"""Self-tests of the benchmark harness: `python3 -m pytest -q benchmarks`."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from checker import check_command, digest
from run import END_TO_END_UNITS, ROOT, SHIM, child_env, run_pass
from shim import Tracer, _wrap
from tracing import PER_LAYER, layer_metrics, percentile, self_times, union_length
from workloads import PLANS, Command, Plan

SOLVE = ("helix", "solve", "--d", "7", "--r", "3", "--json")
BUILD = ("bracket", "build", "--parity", "odd", "--k", "1", "--Q=1,2,3", "--P=1,-1,2,1",
         "--c=1", "--out", "t.json", "--json")


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert sum(v > percentile(values, 90) for v in values) == 10
    assert percentile([3.0, 1.0, 2.0], 90) == 3.0
    assert percentile([5.0], 50) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_union_length_merges_overlaps():
    assert union_length([(1, 6), (2, 8), (9, 10)]) == 8
    assert union_length([]) == 0


# main [0, 10] with two overlapping worker spans, one of them with a child.
SPANS = [
    [1, None, 100, "cli_reports.main", 0.0, 10.0],
    [2, 1, 200, "poisson_verify.compatibility_check", 1.0, 6.0],
    [3, 1, 300, "poisson_verify.compatibility_check", 2.0, 8.0],
    [4, 2, 200, "poisson_verify.jacobiator", 3.0, 4.0],
]


def test_self_time_subtracts_union_of_overlapping_children():
    own = self_times(SPANS)
    assert own == {1: 3.0, 2: 4.0, 3: 6.0, 4: 1.0}


def test_layer_metrics_from_synthetic_trace():
    trace = {"spawn": -0.25, "absent": ["poisson_verify.gone"], "spans": SPANS,
             "counters": [[4, "exact_core.poly_mul", 7, 0.5, 0],
                          [2, "exact_core.poly_divmod_linear", 4, 0.1, 1],
                          [1, "cli_reports.artifact_bytes_read", 1, 0.0, 123]]}
    metrics, absent = layer_metrics([trace], overhead_s=0.75)
    assert absent == ["poisson_verify.gone"]
    assert metrics["poisson_verify.compatibility_check.calls"] == 2
    assert metrics["poisson_verify.compatibility_check.s"] == 11.0
    assert metrics["poisson_verify.compatibility_check.parallelism"] == pytest.approx(11 / 7)
    assert metrics["poisson_verify.jacobiator.self_s"] == 1.0
    assert metrics["cli_reports.main.self_s"] == 3.0
    assert metrics["cli_reports.startup_s"] == 0.25
    assert metrics["exact_core.poly_mul.calls"] == 7
    assert metrics["exact_core.poly_divmod_linear.useful_ratio"] == 0.25
    assert metrics["cli_reports.artifact_bytes_read"] == 123
    assert metrics["trace.overhead_s"] == 0.75
    assert list(metrics) == [name for name, _ in PER_LAYER]


def test_missing_function_is_reported_absent():
    tracer = Tracer()
    _wrap("poisson_verify.no_such_function", lambda fn: fn, tracer)
    _wrap("no_such_module.f", lambda fn: fn, tracer)
    assert tracer.absent == ["poisson_verify.no_such_function", "no_such_module.f"]


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(PLANS)


def test_plans_are_seeded():
    for make in PLANS.values():
        assert [c.argv for c in make(3).commands] == [c.argv for c in make(3).commands]
    assert len(PLANS["cli_session"](3).commands) >= 100
    assert [c.argv for c in PLANS["curve_sweep"](3).commands] != \
        [c.argv for c in PLANS["curve_sweep"](4).commands]


def test_checker_flags_corrupted_artifact(tmp_path):
    (tmp_path / "t.json").write_text("{}\n")
    cmd = Command(BUILD, artifacts={"t.json": "key"})
    report = json.dumps({"checks": [], "data": {}})
    assert check_command(cmd, 0, report, "", tmp_path, {"key": digest(tmp_path / "t.json")},
                         ROOT / "tests" / "golden") == []
    (tmp_path / "t.json").write_text("{ }\n")
    problems = check_command(cmd, 0, report, "", tmp_path, {"key": "0" * 64},
                             ROOT / "tests" / "golden")
    assert problems == ["artifact t.json digest differs from the reference"]


def test_failures_are_counted(tmp_path):
    """A wrong exit code and a corrupted artifact each count as one failed op."""
    plan = Plan([Command(SOLVE), Command(SOLVE, expect_code=1),
                 Command(BUILD, artifacts={"t.json": "tensor"})], [])
    result = run_pass(plan, tmp_path / "pass", {"tensor": "0" * 64}, time.perf_counter() + 120,
                      traced=False)
    failed = [bool(o.problems) for o in result.outcomes]
    assert failed == [False, True, True]
    assert result.outcomes[1].problems == ["exit code 0, expected 1"]


def test_shim_rebinds_names_imported_by_value(tmp_path):
    """curve_ring calls poly_divmod_linear through its own by-name import."""
    env = child_env()
    env["BENCH_TRACE_OUT"] = str(tmp_path / "trace.json")
    env["BENCH_SPAWN"] = "0"
    done = subprocess.run([sys.executable, str(SHIM), *BUILD], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    trace = json.loads((tmp_path / "trace.json").read_text())
    names = {c[1] for c in trace["counters"]}
    assert {"exact_core.poly_divmod_linear", "exact_core.poly_mul"} <= names
    assert trace["absent"] == []
    main_span = next(s for s in trace["spans"] if s[3] == "cli_reports.main")
    assert main_span[1] is None
    assert all(s[1] is not None for s in trace["spans"] if s is not main_span)
    assert os.path.isfile(tmp_path / "t.json")
