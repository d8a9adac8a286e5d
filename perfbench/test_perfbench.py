"""Self-checks of the benchmark harness, on tiny cases.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import designforge  # noqa: E402
from designforge import build, plan  # noqa: E402

from outcheck import check_build, dgs_lower_bound, points_sha256  # noqa: E402
from run import END_TO_END_UNITS, PER_LAYER  # noqa: E402
from spans import Tracer, traced  # noqa: E402
from workloads import DESIGN_TOL, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_quick_run_prints_the_registered_metrics(workload, trace):
    done = _run("--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", trace, "--quick")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    registered = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in registered}
    assert all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())
    if trace == "0":
        assert "fail_ratio" in done.stdout and last["metrics"]["points_over_dgs"]["value"] >= 1


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in SPEC["workloads"])
    for m in SPEC["end_to_end"]:
        assert END_TO_END_UNITS[m["name"]] == m["unit"]
    for m in SPEC["per_layer"]:
        assert PER_LAYER[m["name"]][0] == m["unit"]
    setup_bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in SPEC["end_to_end"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "solve-s2", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.fixture(scope="module")
def s2_t3():
    design, report = build(plan(2, 3))
    return design.points, report.to_json_dict()


def test_check_accepts_a_correct_build(s2_t3):
    points, report = s2_t3
    assert check_build(2, 3, points, report, DESIGN_TOL, np.random.default_rng(0)) == []


def test_check_catches_a_moved_point(s2_t3):
    points, report = s2_t3
    moved = points.copy()
    c, s = np.cos(np.longdouble(0.01)), np.sin(np.longdouble(0.01))
    moved[0, :2] = c * points[0, :2] + s * points[0, 1::-1] * np.array([-1, 1], dtype=np.longdouble)
    problems = check_build(2, 3, moved, report, DESIGN_TOL, np.random.default_rng(0))
    assert any("monomial" in p for p in problems)
    assert points_sha256(moved) != points_sha256(points)


def test_check_catches_a_wrong_report(s2_t3):
    points, report = s2_t3
    bad = json.loads(json.dumps(report))
    bad["passed"] = False
    bad["tree"]["K"] += 1
    bad["dgs_lower_bound"] += 1
    problems = check_build(2, 3, points, bad, DESIGN_TOL, np.random.default_rng(0))
    assert len(problems) == 3


def test_dgs_bound_matches_the_package():
    for n in range(1, 7):
        for t in range(0, 9):
            assert dgs_lower_bound(n, t) == designforge.lower_bound(n, t)


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, None, "b0"], ["b", 1.0, 4.0, 0, "b0"], ["c", 2.0, 3.0, 1, "b0"], ["b", 5.0, 6.0, 0, "b0"]]
    total, own = tracer.times()
    assert total == {"a": 10.0, "b": 4.0, "c": 1.0}
    assert own == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_traced_restores_the_layers_and_counts_calls():
    from designforge import cache, construct, quadrature, verify

    before = (construct.solve_equal_weight, quadrature.certify, verify.verify_monomials, cache.QuadratureCache.lookup)
    tracer = Tracer()
    with traced(tracer):
        design, report = build(plan(2, 3))
    assert (construct.solve_equal_weight, quadrature.certify, verify.verify_monomials, cache.QuadratureCache.lookup) == before
    assert tracer.counts["quadrature.solves"] == 1
    assert tracer.counts["quadrature.attempts"] >= 1
    assert tracer.counts["construct.product_points"] == design.count
    assert all(end is not None for _, _, end, _, _ in tracer.spans)
