"""Command-line surface: bounds tables, quadrature solves, builds, verification.

Exit codes: 0 when every requested certification passed, 1 when a
certification failed or a solve did not converge, 2 with a one-line message
for user-input errors: unreadable input files, output or cache paths that
cannot be written, invalid build plans, out-of-range dimensions, degrees,
tolerances or solver limits, and click's own usage errors (a value of the
wrong type, an unknown option or command, a missing argument); paths are
checked before any solve.
Output files contain no timestamps or environment data, so identical
commands with identical cache state produce byte-identical files.
"""
from __future__ import annotations

import contextlib
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from .cache import InMemoryQuadratureCache, QuadratureCache, atomic_write_text, build_key, dump_json, read_build_index
from .construct import (
    BuildError,
    Design,
    a_sequence,
    build,
    lower_bound,
    plan,
    solve_cached,
)
from .quadrature import NoConvergenceError, SolverOptions, encode_floats
from .verify import verify_design

class InputError(click.ClickException):
    """A user-input error: one line on stderr and exit code 2."""

    exit_code = 2


def _name(param) -> str:
    return param.opts[-1] if isinstance(param, click.Option) else param.human_readable_name


def _at_least(low: int):
    def check(ctx, param, value):
        if value < low:
            raise InputError(f"{_name(param)} must be >= {low}, got {value}")
        return value

    return check


def _positive(ctx, param, value):
    if not (math.isfinite(value) and value > 0):
        raise InputError(f"{_name(param)} must be a finite number > 0, got {value}")
    return value


def _finite(ctx, param, value):
    if not math.isfinite(value):
        raise InputError(f"{_name(param)} must be a finite number, got {value}")
    return value


def _writable(ctx, param, value):
    if value is not None and not value.parent.is_dir():
        raise InputError(f"{_name(param)} {value}: {value.parent} is not a directory")
    return value


def _open_cache(cache_dir: Path | None) -> QuadratureCache | None:
    try:
        return QuadratureCache(cache_dir) if cache_dir else None
    except OSError as exc:
        raise InputError(f"--cache-dir {cache_dir}: {exc.strerror}")


_cache_dir_option = click.option(
    "--cache-dir",
    type=click.Path(file_okay=False, path_type=Path),
    envvar="DESIGNFORGE_CACHE",
    default=None,
    help="Quadrature cache directory (env: DESIGNFORGE_CACHE; flag wins).",
)


def _solver_flags(command):
    """--tol-quad, --max-k, --max-iter and --seed, shared by `quadrature` and `build`."""
    for option in reversed([
        click.option("--tol-quad", type=float, default=1e-12, show_default=True, callback=_positive),
        click.option("--max-k", type=int, default=512, show_default=True, callback=_at_least(1)),
        click.option("--max-iter", type=int, default=300, show_default=True, callback=_at_least(1)),
        click.option("--seed", type=int, default=0, show_default=True, help="Ignored: the solver is deterministic."),
    ]):
        command = option(command)
    return command


# bare `designforge` prints the help text; click >= 8.2 does it by raising this
# UsageError, which must pass through (older click prints the help and exits)
_HELP = getattr(click.exceptions, "NoArgsIsHelpError", ())


@contextlib.contextmanager
def _one_line_usage_errors():
    try:
        yield
    except _HELP:
        raise
    except click.UsageError as exc:
        raise InputError(exc.format_message()) from None


class _Group(click.Group):
    """Reports click's usage errors, its own and each subcommand's, as InputError."""

    def make_context(self, *args, **kwargs):
        with _one_line_usage_errors():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _one_line_usage_errors():
            return super().invoke(ctx)


@click.group(cls=_Group)
def main():
    """Build and certify averaging point sets on spheres."""


# `-1` reaches its argument's range check; an unknown option is an extra argument
_NUMBERS_MAY_BE_NEGATIVE = {"ignore_unknown_options": True}


@main.command(context_settings=_NUMBERS_MAY_BE_NEGATIVE)
@click.argument("n", type=int, callback=_at_least(1))
@click.argument("t_max", type=int)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@_cache_dir_option
def bounds(n, t_max, fmt, cache_dir):
    """Print, for t = 1..T_MAX, the size lower bound on S^N, the growth
    exponent, t^exponent, and any cardinality achieved by earlier builds.
    Only reads the cache directory's size index; creates nothing."""
    index = read_build_index(cache_dir) if cache_dir else {}
    exponent = a_sequence(n)
    rows = []
    for t in range(1, t_max + 1):
        rows.append(
            {
                "t": t,
                "lower_bound": lower_bound(n, t),
                "t_pow_exponent": t**exponent,
                "achieved": index.get(build_key(n, t)),
            }
        )
    if fmt == "json":
        click.echo(json.dumps({"n": n, "exponent": exponent, "rows": rows}, indent=2))
        return
    click.echo(f"sphere S^{n}, growth exponent a_n = {exponent}")
    header = f"{'t':>4}  {'lower_bound':>12}  {'t^a_n':>14}  {'achieved':>10}"
    click.echo(header)
    click.echo("-" * len(header))
    for row in rows:
        achieved = row["achieved"] if row["achieved"] is not None else "-"
        click.echo(
            f"{row['t']:>4}  {row['lower_bound']:>12}  {row['t_pow_exponent']:>14}  {achieved:>10}"
        )


@main.command(context_settings=_NUMBERS_MAY_BE_NEGATIVE)
@click.argument("m", type=int, callback=_at_least(1))
@click.argument("n", type=int, callback=_at_least(1))
@click.argument("t", type=int, callback=_at_least(0))
@click.option("-o", "--output", type=click.Path(dir_okay=False, path_type=Path), default=None, callback=_writable)
@_solver_flags
@_cache_dir_option
def quadrature(m, n, t, output, tol_quad, max_k, max_iter, seed, cache_dir):
    """Solve (or load) an equal-weight rule of degree T for the (M, N) weight."""
    cache = _open_cache(cache_dir) or InMemoryQuadratureCache()
    opts = SolverOptions(tolerance=tol_quad, max_iterations=max_iter, max_K=max_k, seed=seed)
    exit_code = 0
    try:
        q = solve_cached(m, n, t, opts, cache)
    except NoConvergenceError as exc:
        click.echo(f"no convergence: {exc}", err=True)
        q = exc.best
        exit_code = 1
    if output:
        atomic_write_text(output, dump_json(q.to_json_dict()))
    click.echo(
        f"weight (m={m}, n={n}) degree {t}: K={q.K}, "
        f"max residual {q.max_abs_residual:.3e}, certified={q.certified}"
    )
    sys.exit(exit_code)


def _design_csv(design: Design) -> str:
    lines = [",".join(row) for row in encode_floats("points", design.points, exact=False)["points"]]
    return "\n".join(lines) + "\n"


@main.command("build", context_settings=_NUMBERS_MAY_BE_NEGATIVE)
@click.argument("n", type=int)
@click.argument("t", type=int)
@click.option("-o", "--output", type=click.Path(dir_okay=False, path_type=Path), default=None, callback=_writable)
@click.option("--report-out", type=click.Path(dir_okay=False, path_type=Path), default=None, callback=_writable)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@_solver_flags
@click.option("--tol-design", type=float, default=1e-9, show_default=True, callback=_positive)
@click.option("--phase", type=float, default=0.0, show_default=True, callback=_finite, help="Rotation of polygon leaves (radians).")
@click.option("--plan", "plan_file", type=click.Path(exists=True, dir_okay=False, path_type=Path), default=None, help="JSON file mapping ambient dims to [m, n] split overrides.")
@_cache_dir_option
def build_cmd(n, t, output, report_out, fmt, tol_quad, max_k, max_iter, seed, tol_design, phase, plan_file, cache_dir):
    """Plan, build, and verify a degree-T design on S^N."""
    overrides = _load_plan(plan_file) if plan_file else None
    try:
        bp = plan(n, t, overrides)
    except ValueError as exc:
        raise InputError(f"invalid plan: {exc}")
    cache = _open_cache(cache_dir)
    opts = SolverOptions(tolerance=tol_quad, max_iterations=max_iter, max_K=max_k, seed=seed)
    try:
        design, report = build(bp, solver_opts=opts, design_tol=tol_design, cache_obj=cache, phase=phase)
    except (BuildError, NoConvergenceError) as exc:
        click.echo(f"build failed: {exc}", err=True)
        sys.exit(1)
    if cache:
        cache.record_build(n, t, design.count)
    if output:
        if fmt == "csv":
            atomic_write_text(output, _design_csv(design))
        else:
            atomic_write_text(output, dump_json(design.to_json_dict()))
    if report_out:
        atomic_write_text(report_out, dump_json(report.to_json_dict()))
    click.echo(
        f"S^{n} degree {t}: {design.count} points "
        f"(lower bound {report.dgs_lower_bound}), max residual {report.max_residual:.3e}"
    )
    sys.exit(0)


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise InputError(f"parse error in {path}: not UTF-8 text (byte {exc.start}: {exc.reason})")


def _parse_json(path: Path, text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )


def _load_plan(path: Path) -> dict[int, tuple[int, int]]:
    """Split overrides from a --plan file: {"<ambient dim>": [m, n], ...}."""
    raw = _parse_json(path, _read_text(path))
    if not isinstance(raw, dict):
        raise InputError(f"parse error in {path}: expected an object mapping ambient dims to [m, n]")
    overrides = {}
    for key, value in raw.items():
        try:
            dim = int(key)
        except ValueError:
            raise InputError(f"parse error in {path}: ambient dim {key!r} is not an integer")
        if not (isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value)):
            raise InputError(
                f"parse error in {path}: split for {key!r} must be an [m, n] integer pair, "
                f"got {json.dumps(value)}"
            )
        overrides[dim] = (value[0], value[1])
    return overrides


def _load_design(path: Path, t: int) -> Design:
    text = _read_text(path)
    if not text.strip():
        raise InputError(f"parse error in {path}: file is empty")
    if text.lstrip().startswith("{"):
        data = _parse_json(path, text)
        try:
            return Design.from_json_dict(data)
        except (KeyError, ValueError, TypeError) as exc:
            raise InputError(f"parse error in {path}: {exc}")
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError as exc:
            raise InputError(f"parse error in {path} at line {lineno}: {exc}")
        if len(rows[-1]) != len(rows[0]):
            raise InputError(
                f"parse error in {path} at line {lineno}: {len(rows[-1])} values, expected {len(rows[0])}"
            )
    if not rows:
        raise InputError(f"parse error in {path}: no data rows")
    try:
        return Design(ambient_dim=len(rows[0]), degree=t, points=np.array(rows))
    except ValueError as exc:
        raise InputError(f"parse error in {path}: {exc}")


@main.command()
@click.argument("design_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("-t", "--degree", type=int, required=True, callback=_at_least(0))
@click.option("--tol", type=float, default=1e-9, show_default=True, callback=_positive)
@click.option("--method", type=click.Choice(["monomial", "gegenbauer", "both"]), default="both", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def verify(design_file, degree, tol, method, fmt):
    """Verify the design property of a point file at the given degree."""
    design = _load_design(design_file, degree)
    reports = [r for r in verify_design(design, degree, tol) if method in (r.method, "both")]
    if not reports:
        raise InputError(f"--method gegenbauer needs ambient dimension >= 2, {design_file} has 1")
    if fmt == "json":
        click.echo(json.dumps([r.to_json_dict() for r in reports], indent=2))
    else:
        for r in reports:
            click.echo(
                f"{r.method}: degree {r.degree_checked}, max residual "
                f"{r.max_abs_residual:.3e}, tol {r.tolerance:g} -> "
                f"{'pass' if r.passed else 'FAIL'}"
            )
    sys.exit(0 if all(r.passed for r in reports) else 1)


if __name__ == "__main__":
    main()
