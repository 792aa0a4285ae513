"""repro — a mechanism-level reproduction of "Faster than Flash" (IISWC'19).

The paper characterizes an ultra-low-latency (Z-NAND) SSD against a
high-end NVMe SSD across the whole storage stack: device internals,
kernel completion methods (interrupt / poll / hybrid), SPDK kernel
bypass, and a server-client NBD deployment.  This package simulates that
entire system and regenerates every table and figure.

Quickstart::

    from repro import (
        Simulator, SsdDevice, resolve_config, KernelStack,
        CompletionMethod, FioJob, IoEngineKind, run_job,
    )

    sim = Simulator()
    device = SsdDevice(sim, resolve_config("zssd"))
    device.precondition()
    stack = KernelStack(sim, device, completion=CompletionMethod.POLL)
    job = FioJob(name="demo", rw="randread", io_count=1000)
    result = run_job(sim, stack, job)
    print(result.latency.mean_us, "us")

Devices are named entries in a spec registry (``docs/devices.md``);
``list_devices()`` enumerates the zoo, and the higher-level
:mod:`repro.api` facade accepts the same names.  Figure reproductions
live in :data:`repro.core.figures.FIGURES`.
"""

from repro.core.figures import FIGURES, run_figure
from repro.core.report import render_figure
from repro.kstack.completion import CompletionMethod
from repro.kstack.stack import KernelStack
from repro.net.nbd import NbdServerKind, NbdSystem
from repro.sim.engine import Simulator
from repro.spdk.stack import SpdkStack
from repro.ssd.config import SsdConfig
from repro.ssd.device import IoOp, SsdDevice
from repro.ssd.registry import (
    DeviceKind,
    list_devices,
    load_device_spec,
    resolve_config,
)
from repro.ssd.spec import DeviceSpec, DeviceSpecError
from repro.workloads.job import FioJob, IoEngineKind
from repro.workloads.runner import JobResult, run_job

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "SsdDevice",
    "SsdConfig",
    "IoOp",
    "DeviceSpec",
    "DeviceSpecError",
    "list_devices",
    "load_device_spec",
    "resolve_config",
    "KernelStack",
    "SpdkStack",
    "CompletionMethod",
    "NbdSystem",
    "NbdServerKind",
    "FioJob",
    "IoEngineKind",
    "JobResult",
    "run_job",
    "DeviceKind",
    "FIGURES",
    "run_figure",
    "render_figure",
    "__version__",
]
