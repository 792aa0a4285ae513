"""Host model: CPU cycle accounting, instruction profiling, software costs.

The paper's host is a 6-core i7-8700 pinned at 4.6 GHz with one core
dedicated to I/O.  Figures 12-15 and 20-22 are all derived from VTune /
top-style attribution of CPU cycles and load/store instructions to
storage-stack functions; :class:`~repro.host.accounting.CpuAccounting`
is the simulated equivalent of that profiler.
"""

from repro.host.accounting import CpuAccounting, ExecMode
from repro.host.costs import SoftwareCosts, StepCost

__all__ = [
    "CpuAccounting",
    "ExecMode",
    "SoftwareCosts",
    "StepCost",
]
