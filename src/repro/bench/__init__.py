"""Experiment harness regenerating every table and figure of the paper.

- :mod:`repro.bench.report` -- ASCII table rendering;
- :mod:`repro.bench.runner` -- timing helpers (median-of-k wall clock);
- :mod:`repro.bench.registry` -- one function per paper artifact
  (``table1``, ``table2``, ``table3``, ``table4``, ``fig8``, ``fig9``,
  ``fig10``) plus the ablations (``mu``,
  ``lut_build``, ``tiling``, ``threads``);
- :mod:`repro.bench.cli` -- ``python -m repro.bench <experiment>``.

Every experiment returns :class:`~repro.bench.report.Table` objects so
the benchmark suite, the CLI and EXPERIMENTS.md all render identical
content.
"""

from repro.bench.report import Table, render_table, format_seconds
from repro.bench.runner import time_callable
from repro.bench.registry import EXPERIMENTS, run_experiment

__all__ = [
    "Table",
    "render_table",
    "format_seconds",
    "time_callable",
    "EXPERIMENTS",
    "run_experiment",
]
