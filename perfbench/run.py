"""Build benchmark for designforge: time to a certified design, design size, memory, per-layer cost.

    python3 perfbench/run.py                          # every workload, untraced then traced
    python3 perfbench/run.py --workload solve-s2 --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --quick --seconds 1      # tiny cases, a self-check of the harness

Each workload runs in its own process (worker.py): a closed loop with one
client, builds one after another, numpy/BLAS threads left at their default.
Every build's outputs are checked outside the timed region (outcheck.py).
For each run this prints every metric with its unit, writes a results file
with provenance under perfbench/out/, and ends with one JSON line:
`{"correct", "attempted", "failed", "metrics"}`.  An untraced run reports the
end-to-end metrics of BENCHMARK.json; a traced run (--trace 1) wraps each
layer's public functions (spans.py) and reports the per-layer metrics.
Without --trace, both runs are made and the tracing overhead is printed.

End-to-end metrics (all lower is better):
    wall_s           median seconds of one pass over the workload's builds
    setup_s          median over three fresh processes of the time from process
                     start to the first timed pass (import, warm-up build, cache pre-fill)
    peak_rss_mb      peak resident memory of the workload process
    points_over_dgs  geometric mean of design size / Delsarte-Goethals-Seidel bound
    fail_ratio       failed builds / builds attempted (printed; `failed` in the JSON line)

Exit codes: 0 when every output was correct, 1 when a build failed or a
check found a wrong output, 2 when the designforge sources are missing.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import BUILD_SPAN
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 3  # set-ups per untraced run; setup_s is their median
WORKER_TIMEOUT_S = 170

# name -> (unit, how it is read off a traced worker's result); times are self times
PER_LAYER = {
    "quadrature.solve_s": ("s", "self:quadrature.solve"),
    "quadrature.solves": ("count", "count"),
    "quadrature.lm_iterations": ("count", "count"),
    "quadrature.attempts": ("count", "count"),
    "quadrature.attempt_yield": ("ratio", "ratio:quadrature.solves/quadrature.attempts"),
    "quadrature.root_K": ("count", "root_K"),  # summed over the workload's cases
    "jacobi.recurrence_s": ("s", "self:jacobi.recurrence"),
    "jacobi.recurrence_calls": ("count", "count"),
    "jacobi.orthonormal_s": ("s", "self:jacobi.orthonormal"),
    "jacobi.orthonormal_calls": ("count", "count"),
    "construct.product_s": ("s", "self:construct.product"),
    "construct.product_points": ("count", "count"),
    "verify.monomial_s": ("s", "self:verify.monomial"),
    "verify.monomial_calls": ("count", "count"),
    "verify.monomial_terms": ("count", "count"),
    "verify.pairwise_s": ("s", "self:verify.pairwise"),
    "verify.pairwise_calls": ("count", "count"),
    "verify.pairwise_pairs": ("count", "count"),
    "moments.sphere_moment_s": ("s", "self:moments.sphere_moment"),
    "moments.sphere_moment_calls": ("count", "count"),
    "cache.lookups": ("count", "count"),
    "cache.hits": ("count", "count"),
    "cache.hit_ratio": ("ratio", "ratio:cache.hits/cache.lookups"),
    "cache.lookup_s": ("s", "self:cache.lookup"),
    "cache.stores": ("count", "count"),
    "cache.store_s": ("s", "self:cache.store"),
    "cli.serialize_s": ("s", "self:cli.serialize"),
    "cli.write_s": ("s", "self:cli.write"),
    "cli.bytes_written": ("bytes", "count"),
}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "points_over_dgs": "ratio", "fail_ratio": "ratio"}


class RunFailed(RuntimeError):
    """A worker process crashed or printed no result."""


def _worker(workload: str, seed: int, seconds: float, trace: int, quick: bool, timeout: float, *extra: str) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace), *extra]
    if quick:
        command.append("--quick")
    command += ["--started", repr(time.monotonic())]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload} worker did not finish within {timeout:g} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunFailed(f"{workload} worker exited with {done.returncode}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(result: dict) -> dict[str, float]:
    ratios = [c["points"] / c["dgs_lower_bound"] for c in result["cases"].values()]
    return {
        "wall_s": statistics.median(result["pass_seconds"]),
        "setup_s": statistics.median(result["setups"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "points_over_dgs": math.exp(statistics.fmean(math.log(r) for r in ratios)) if ratios else 0.0,
        "fail_ratio": len(result["failures"]) / result["attempted"],
    }


def per_layer(result: dict) -> dict[str, float]:
    """Per-pass means of the traced run's counters and self times."""
    passes = len(result["pass_seconds"])
    counts, own = result["counts"], result["span_self_s"]
    out = {}
    for name, (_, source) in PER_LAYER.items():
        kind, _, arg = source.partition(":")
        if kind == "self":
            out[name] = own.get(arg, 0.0) / passes
        elif kind == "count":
            out[name] = counts.get(name, 0) / passes
        elif kind == "ratio":  # 0 when nothing was attempted
            top, bottom = (counts.get(key, 0) for key in arg.split("/"))
            out[name] = top / bottom if bottom else 0.0
        elif kind == "root_K":
            out[name] = sum(c["root_K"] or 0 for c in result["cases"].values())
        else:
            raise ValueError(f"unknown source {source!r} for {name}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    label = f"{name}-seed{seed}-trace{trace}{'-quick' if quick else ''}"
    result = _worker(name, seed, seconds, trace, quick, WORKER_TIMEOUT_S)
    if trace:
        spans = result.pop("spans")
        (OUT / f"{label}-spans.jsonl").write_text("".join(json.dumps(span) + "\n" for span in spans))
    result["setups"] = [result["setup_s"]]
    if not trace:
        for _ in range(SETUPS - 1):
            result["setups"].append(_worker(name, seed, seconds, 0, quick, 60, "--setup-only")["setup_s"])
    result.update(workload=name, seed=seed, seconds=seconds, trace=trace, quick=quick,
                  metrics=per_layer(result) if trace else end_to_end(result))
    (OUT / f"{label}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def report(result: dict, untraced: dict | None) -> None:
    passes = result["pass_seconds"]
    failed, attempted = len(result["failures"]), result["attempted"]
    mode = "traced" if result["trace"] else "untraced"
    print(f"== {result['workload']}  seed {result['seed']}  {mode}: {len(passes)} passes, "
          f"{attempted} builds, {failed} failed")
    for failure in result["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)
    q1, q3 = _quartiles(passes)
    wall_line = f"median of {len(passes)} passes, q1 {q1:.4f}, q3 {q3:.4f}"
    if result["trace"]:
        total, own = result["span_total_s"], result["span_self_s"]
        median = statistics.median(passes)
        print(f"  wall_s (traced)            {median:.4f} s  {wall_line}")
        if untraced is not None:
            overhead = median - untraced["metrics"]["wall_s"]
            print(f"  tracing overhead           {overhead:+.4f} s  traced minus untraced wall_s")
        for name, value in result["metrics"].items():
            print(f"  {name:<26} {value:.6g} {PER_LAYER[name][0]}")
        layers = [k for k in own if k != BUILD_SPAN]
        if layers:
            by_self, by_total = max(layers, key=own.get), max(layers, key=total.get)
            print(f"  largest self time: {by_self}_s = {own[by_self] / len(passes):.4f} s per pass; "
                  f"largest total: {by_total} = {total[by_total] / len(passes):.4f} s per pass; "
                  f"outside every layer span: {own.get(BUILD_SPAN, 0.0) / len(passes):.4f} s per pass")
        for name in sorted(total):
            print(f"    span {name:<22} total {total[name] / len(passes):.4f} s  self {own[name] / len(passes):.4f} s per pass")
    else:
        setups = ", ".join(f"{s:.4f}" for s in result["setups"])
        notes = {
            "wall_s": wall_line,
            "setup_s": f"median of {len(result['setups'])} set-ups: {setups}",
            "fail_ratio": f"{failed} of {attempted} builds",
        }
        for name, unit in END_TO_END_UNITS.items():
            print(f"  {name:<16} {result['metrics'][name]:<10.4f} {unit:<6} {notes.get(name, '')}")
    for key, case in result["cases"].items():
        print(f"  case {key}: {case['points']} points, DGS bound {case['dgs_lower_bound']}, "
              f"root K {case['root_K']}, points sha256 {case['points_sha256'][:16]}")


def _registered() -> dict[str, dict[str, str]]:
    """Metric name -> unit, of the metrics BENCHMARK.json lists, per trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {mode: {m["name"]: m["unit"] for m in spec[key]} for mode, key in (("0", "end_to_end"), ("1", "per_layer"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed; 0 reproduces the CLI defaults")
    parser.add_argument("--seconds", type=float, default=30.0, help="how long each run makes timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="only the untraced (0) or traced (1) run")
    parser.add_argument("--quick", action="store_true", help="tiny cases: a fast self-check of the harness")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "designforge" / "__init__.py").is_file():
        print(f"error: no designforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    registered = _registered()
    OUT.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [args.trace] if args.trace is not None else [0, 1]
    results = []
    try:
        for name in names:
            untraced = None
            for trace in modes:
                result = run_workload(name, args.seed, args.seconds, trace, args.quick)
                if trace and untraced is not None:
                    digests = {k: c["points_sha256"] for k, c in result["cases"].items()}
                    if digests != {k: c["points_sha256"] for k, c in untraced["cases"].items()}:
                        result["failures"].append("traced run built different designs from the untraced run")
                report(result, untraced)
                if not trace:
                    untraced = result
                results.append(result)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = sum(len(r["failures"]) for r in results)
    summary = {"correct": failed == 0, "attempted": sum(r["attempted"] for r in results), "failed": failed}
    if len(results) == 1:
        result = results[0]
        units = registered[str(result["trace"])]
        summary["metrics"] = {k: {"value": result["metrics"][k], "unit": unit} for k, unit in units.items()}
    else:
        summary["metrics"] = {f"{r['workload']}/{'traced' if r['trace'] else 'untraced'}": r["metrics"] for r in results}
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
