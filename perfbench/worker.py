"""One workload process: set up, run timed passes, check every output, report as JSON.

Started by run.py, never by hand.  The last line on stdout is one JSON
object.  With --setup-only the process stops after set-up and reports only
`setup_s`, so run.py can take the median of several set-ups.

Set-up is the import, one warm-up build through the workload's entry point
(the first build pays the lazy scipy imports), and for cache-prefilled
workloads one `designforge quadrature` call per product node.  `setup_s`
runs from the moment run.py started this process to the first timed pass.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import designforge  # noqa: E402
from designforge import SolverOptions, build, cli, plan  # noqa: E402
from designforge.cache import QuadratureCache  # noqa: E402

from outcheck import check_build, points_sha256  # noqa: E402
from spans import BUILD_SPAN, Tracer, traced  # noqa: E402
from workloads import DESIGN_TOL, WORKLOADS, Workload, phase_for  # noqa: E402

WARM_UP_CASE = (2, 1)


class Runner:
    """Makes one workload's builds through its entry point; `build_case` is the timed step."""

    def __init__(self, workload: Workload, cases, seed: int, work: Path):
        self.workload = workload
        self.cases = cases
        self.seed = seed
        self.phase = phase_for(seed)
        self.work = work
        self.cache_dir = work / "cache"

    def _cli(self, *args: str) -> None:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                cli.main.main(args=list(args), standalone_mode=False)
        except SystemExit as stop:
            if stop.code not in (0, None):
                raise RuntimeError(f"designforge {args[0]} exited with {stop.code}") from None

    def _cli_build(self, n: int, t: int) -> tuple[Path, Path]:
        design_path, report_path = self.work / "design.json", self.work / "report.json"
        self._cli(
            "build", str(n), str(t), "--cache-dir", str(self.cache_dir), "--seed", str(self.seed),
            "--phase", repr(self.phase), "-o", str(design_path), "--report-out", str(report_path),
        )
        return design_path, report_path

    def set_up(self) -> None:
        n, t = WARM_UP_CASE
        if self.workload.entry == "cli":
            self._cli_build(n, t)
        else:
            build(plan(n, t), solver_opts=SolverOptions(seed=self.seed), phase=self.phase)
        if self.workload.cache == "prefilled-disk":
            for n, t in self.cases:
                for m, k in _product_splits(plan(n, t).root):
                    self._cli("quadrature", str(m), str(k), str(t), "--cache-dir", str(self.cache_dir), "--seed", str(self.seed))

    def build_case(self, n: int, t: int, tracer: Tracer | None):
        """Time one build; returns (seconds, points, report as a JSON dict)."""
        cache_obj = None
        if self.workload.cache == "fresh-disk":
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            cache_obj = QuadratureCache(self.cache_dir)
        with _tracing(tracer):
            start = time.perf_counter()
            if self.workload.entry == "cli":
                design_path, report_path = self._cli_build(n, t)
            else:
                design, report = build(plan(n, t), solver_opts=SolverOptions(seed=self.seed), cache_obj=cache_obj, phase=self.phase)
            seconds = time.perf_counter() - start
        if self.workload.entry == "cli":
            data = json.loads(design_path.read_text())
            points = np.array([[float.fromhex(v) for v in row] for row in data["points_hex"]])
            return seconds, points, json.loads(report_path.read_text())
        return seconds, design.points, report.to_json_dict()


@contextlib.contextmanager
def _tracing(tracer: Tracer | None):
    if tracer is None:
        yield
        return
    with traced(tracer), tracer.span(BUILD_SPAN):
        yield


def _product_splits(node):
    if node.kind == "product":
        yield node.split
        yield from _product_splits(node.left)
        yield from _product_splits(node.right)


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, or None when it cannot be asked."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "designforge": str(Path(designforge.__file__).parent.relative_to(ROOT)),
    }


def run_passes(runner: Runner, seconds: float, tracer: Tracer | None) -> dict:
    """Passes over the case list within `seconds`; only the builds are timed.

    A pass starts only if one more pass as long as the last would end in
    time, so a run lasts about `seconds` and at least one pass.
    """
    pass_seconds, cases, failures = [], {}, []
    attempted = 0
    deadline = time.monotonic() + seconds
    last = 0.0
    while not pass_seconds or time.monotonic() + last <= deadline:
        index = len(pass_seconds)
        pass_start = time.monotonic()
        elapsed = 0.0
        for n, t in runner.cases:
            key = f"S{n}_t{t}"
            attempted += 1
            if tracer:
                tracer.build_id = f"pass{index}/{key}"
            try:
                build_s, points, report = runner.build_case(n, t, tracer)
            except Exception:  # BuildError, NoConvergenceError or a crash: counted, the run goes on
                failures.append(f"pass {index} {key}: {traceback.format_exc(limit=3)}")
                continue
            elapsed += build_s
            rng = np.random.default_rng([runner.seed, n, t])
            problems = check_build(n, t, points, report, DESIGN_TOL, rng)
            digest = points_sha256(points)
            record = cases.setdefault(key, {
                "n": n, "t": t, "points": len(points), "dgs_lower_bound": report["dgs_lower_bound"],
                "root_K": report["tree"].get("K"), "points_sha256": digest,
            })
            if digest != record["points_sha256"]:
                problems.append("design differs from the first pass's (same seed, same inputs)")
            if problems:
                failures.append(f"pass {index} {key}: " + "; ".join(problems))
        pass_seconds.append(elapsed)
        last = time.monotonic() - pass_start
    return {"pass_seconds": pass_seconds, "cases": cases, "attempted": attempted, "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--started", type=float, required=True, help="time.monotonic() when run.py started this process")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    work_root = HERE / "out" / "work"
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    try:
        runner = Runner(workload, workload.quick_cases if args.quick else workload.cases, args.seed, work)
        runner.set_up()
        setup_s = time.monotonic() - args.started
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = Tracer() if args.trace else None
        result = run_passes(runner, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.update(
        setup_s=setup_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        provenance=provenance(),
    )
    if tracer:
        total, own = tracer.times()
        result.update(span_total_s=total, span_self_s=own, counts=dict(tracer.counts), spans=tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
