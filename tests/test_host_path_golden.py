"""Golden outputs of the host software path.

``tests/golden/host_path.json`` freezes, at full float precision (JSON
floats are written with ``repr``), the ``FigureResult.to_dict()`` of
every figure that drives a host-path step at ``--scale 0.05``:

* libaio submission: ``fig04a``;
* kernel interrupt, poll and hybrid completion: ``fig10``, ``fig12``,
  ``fig16``;
* CPU cycle and instruction accounting: ``fig14a``, ``fig15``;
* the SPDK stack: ``fig18``, ``fig21``, ``fig22b``;
* ext4 over NBD: ``fig23`` and ``fault-nbdflap``;
* the light queue: ``ext-lightqueue``;
* blk-mq requeue faults: ``fault-retry``;
* the stage probes: ``ext-anatomy``.

It also holds the per-phase span totals of traced ``ext-anatomy`` and
``fig23`` runs, so trace phase marks are pinned to the nanosecond.

Any change to how host CPU steps are charged or waited must leave these
bytes unchanged.
"""

import json
from pathlib import Path

import pytest

from repro.__main__ import _scaled_kwargs
from repro.core.figures import FIGURES
from repro.obs.anatomy import AnatomyReport
from repro.obs.core import Observability

GOLDEN_PATH = Path(__file__).parent / "golden" / "host_path.json"

#: The CLI's ``--scale`` for every figure below.
SCALE = 0.05

FIGURE_IDS = (
    "fig04a", "fig10", "fig12", "fig16", "fig14a", "fig15",
    "fig18", "fig21", "fig22b", "fig23", "fault-nbdflap",
    "ext-lightqueue", "fault-retry", "ext-anatomy",
)

TRACED_IDS = ("ext-anatomy", "fig23")


def figure_dict(figure_id):
    return FIGURES[figure_id](**_scaled_kwargs(figure_id, SCALE)).to_dict()


def phase_totals(figure_id):
    """Per-phase span totals (ns) of one traced run of ``figure_id``."""
    with Observability(tracing=True) as obs:
        FIGURES[figure_id](**_scaled_kwargs(figure_id, SCALE))
    report = AnatomyReport.from_tracer(obs.tracer)
    return {
        "io_count": report.io_count,
        "total_latency_ns": report.total_latency_ns,
        "phases": {
            row.name: {"total_ns": row.total_ns, "count": row.count}
            for row in report.rows
        },
    }


def measure():
    """Everything the golden file holds, freshly computed."""
    return {
        "scale": SCALE,
        "figures": {fid: figure_dict(fid) for fid in FIGURE_IDS},
        "traced_phases": {fid: phase_totals(fid) for fid in TRACED_IDS},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _json_form(value):
    return json.loads(json.dumps(value))


class TestHostPathGolden:
    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_figure(self, golden, figure_id):
        assert _json_form(figure_dict(figure_id)) == golden["figures"][figure_id]

    @pytest.mark.parametrize("figure_id", TRACED_IDS)
    def test_traced_phase_totals(self, golden, figure_id):
        measured = phase_totals(figure_id)
        assert measured["io_count"] > 0
        assert _json_form(measured) == golden["traced_phases"][figure_id]
