"""Golden outputs of the device power path.

``tests/golden/power_path.json`` freezes, at full float precision
(JSON floats are written with ``repr``), everything the paper's power
results read from :class:`repro.ssd.power.PowerMeter`:

* ``fig07a`` at ``--scale 0.1`` — average power of the idle runner and
  of QD16 async jobs, whose flash ops share instants;
* ``fig08b`` — the windowed power series of a ULL GC run;
* a ``planar-mlc`` random-overwrite job at the smallest I/O count where
  GC engages — its average power, raw series length and windowed means.

Any change to how the meter books intervals must leave these bytes
unchanged.
"""

import json
from pathlib import Path

from repro.api import JobConfig, Testbed
from repro.core.figures_device import fig07a, fig08b

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "power_path.json").read_text()
)

#: The smallest overwrite count at which the preconditioned planar-mlc
#: device runs garbage collection (one fewer runs none).
GC_OVERWRITES = 1857


def _json_form(value):
    return json.loads(json.dumps(value))


def gc_overwrite_power():
    result, device = Testbed(device="planar-mlc").run_job(
        JobConfig(rw="randwrite", io_count=GC_OVERWRITES), want_device=True
    )
    series = device.power.series
    window_ns = max(1, result.duration_ns // 40)
    return {
        "io_count": GC_OVERWRITES,
        "gc_events": len(device.stats.gc_events),
        "avg_power_w": result.avg_power_w,
        "power_series_len": len(series),
        "windowed_power_means": list(series.windowed(window_ns).means),
    }


class TestPowerGolden:
    def test_fig07a_average_power(self):
        assert _json_form(fig07a(io_count=150).to_dict()) == GOLDEN["fig07a"]

    def test_fig08b_power_series(self):
        assert _json_form(fig08b(io_count=2000).to_dict()) == GOLDEN["fig08b"]

    def test_planar_mlc_gc_overwrite_power(self):
        measured = gc_overwrite_power()
        assert measured["gc_events"] > 0
        assert _json_form(measured) == GOLDEN["planar_mlc_gc"]
