"""Unit tests for the experiment registry (repro.bench.registry).

Every registered experiment must run in quick mode and produce
well-formed tables; the content claims are covered by the integration
tests and the cost-model tests.
"""

import pytest

from repro.bench.registry import EXPERIMENTS, run_experiment
from repro.bench.report import Table, render_table

FAST_EXPERIMENTS = [
    "table2",
    "table3",
    "table4",
    "lut_build",
    "dispatch",
]


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        # Every paper table and figure has a registered experiment.
        expected = {
            "table1", "table2", "table3", "table4",
            "fig8", "fig9", "fig10",
            "mu", "lut_build", "tiling", "threads",
            "models", "shared", "cache", "qat",
            "dispatch", "model_compile", "serve", "serve_cluster",
            "steady_state", "compiled_kernels", "obs_overhead", "decode",
        }
        assert expected == set(EXPERIMENTS)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("table99")

    @pytest.mark.parametrize("name", FAST_EXPERIMENTS)
    def test_fast_experiments_render(self, name):
        tables = run_experiment(name, quick=True)
        assert tables
        for t in tables:
            assert isinstance(t, Table)
            assert t.rows
            text = render_table(t)
            assert t.title in text


class TestTable4Content:
    def test_paper_columns_present(self):
        (t,) = run_experiment("table4", quick=True)
        assert "BiQ paper" in t.headers
        assert "cublas model" in t.headers

    def test_quick_grid(self):
        (t,) = run_experiment("table4", quick=True)
        assert len(t.rows) == 4  # 2 sizes x 2 batches


class TestTable2Content:
    def test_model_equals_paper(self):
        (t,) = run_experiment("table2")
        total_idx = list(t.headers).index("total MB")
        paper_idx = list(t.headers).index("paper MB")
        for row in t.rows:
            assert row[total_idx] == pytest.approx(row[paper_idx], abs=5e-4)
