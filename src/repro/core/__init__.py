"""The experiment harness — the paper's methodology as a library.

* :mod:`repro.core.metrics` — figure/series result containers.
* :mod:`repro.core.figures` — one function per paper table/figure; the
  registry maps ``"fig04a"``-style ids to them.
* :mod:`repro.core.report` — plain-text rendering of figure results.
"""

from repro.core.metrics import FigureResult, Series
from repro.core.figures import FIGURES, run_figure
from repro.core.report import render_figure

__all__ = [
    "Series",
    "FigureResult",
    "FIGURES",
    "run_figure",
    "render_figure",
]
