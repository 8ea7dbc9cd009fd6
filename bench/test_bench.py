"""Tests of the benchmark itself: seeded inputs, span arithmetic, smoke runs.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, Span, covered_length, self_times  # noqa: E402


# -- seeded generator --------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)


def test_sweep_draws_differ_but_keep_zero_and_critical():
    a = workloads.generate("lfc_sweep", 1)["values"]
    b = workloads.generate("lfc_sweep", 2)["values"]
    assert a != b
    for values in (a, b):
        assert values[:2] == (0.0, 1.0 / 7.0)
        assert len(values) == 2 + workloads.SWEEP_DRAWS
        assert all(0.0 <= v <= 1.0 for v in values)


def test_fine_grid_phase_depends_on_seed():
    a = workloads.generate("fine_grid", 1)
    b = workloads.generate("fine_grid", 2)
    assert a["phase"] != b["phase"]
    assert a["dt"] == b["dt"] == workloads.FINE_DT


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [m["name"] for m in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == layers.PER_LAYER


# -- span arithmetic ---------------------------------------------------

def _span(id_, start, end, parent=None, thread=1, name="runner.x"):
    return Span(id_, name, start, end, parent, thread)


def test_covered_length_merges_and_clips():
    assert covered_length([], 0.0, 1.0) == 0.0
    assert covered_length([(0.1, 0.3), (0.2, 0.5), (0.7, 0.8)],
                          0.0, 1.0) == pytest.approx(0.5)
    # an interval running past the parent is clipped to it
    assert covered_length([(-1.0, 0.25), (0.9, 2.0)],
                          0.0, 1.0) == pytest.approx(0.35)


def test_self_time_subtracts_nested_and_concurrent_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 2.0, 3.0, parent=2),
        # two children on other threads overlapping each other
        _span(4, 5.0, 8.0, parent=1, thread=2),
        _span(5, 6.0, 9.0, parent=1, thread=3),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)


def test_recorder_wraps_restores_and_links_parents():
    class Box:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Box.inner(x) * 2

    original = vars(Box)["inner"]
    rec = Recorder()
    rec.wrap(Box, "outer", "runner.outer")
    rec.wrap(Box, "inner", "dynamics.inner", lambda r, *a, **k: {"r": r})
    rec.count_calls(Box, "inner", "dynamics.inner_calls")
    rec.wrap(Box, "gone", "basis.gone")
    assert Box.outer(1) == 4
    rec.uninstall()
    assert vars(Box)["inner"] is original
    spans, counts = rec.take()
    inner, outer = spans
    assert (inner.name, outer.name) == ("dynamics.inner", "runner.outer")
    assert inner.parent == outer.id and outer.parent is None
    assert inner.attrs == {"r": 2}
    assert counts == {"dynamics.inner_calls": 1}
    assert "basis.gone" in rec.absent
    assert rec.take() == ([], {"dynamics.inner_calls": 0})


# -- smoke runs ----------------------------------------------------------

def _smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced(workload):
    result = _smoke(workload, 1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == list(layers.PER_LAYER)


def test_smoke_untimed_contract():
    result = _smoke("fine_grid", 0)
    assert result["correct"] and result["attempted"] == 1
    metrics = result["metrics"]
    assert set(metrics) == {"setup_s", "wall_s", "cpu_s", "runs_per_s",
                            "peak_rss_mb"}
    assert all(m["value"] > 0 for m in metrics.values())
