"""Command-line surface: bounds tables, quadrature solves, builds, verification.

Every file a command writes or reads is in `formats`.  Exit codes: 0 when
every requested certification passed, 1 when a certification failed or a
solve did not converge (at once, and with no `quadrature -o` file, when the
degree's node floor, the larger of ceil((T+1)/2) and the Christoffel bound,
exceeds --max-k; at once, with one line, when a `verify` file in ambient
d >= 2 has fewer points than the Delsarte-Goethals-Seidel bound of S^(d-1)
at T), 2 with a one-line message for user-input errors: input files that
are not of their format, output or cache paths that cannot be written, `-o`
and `--report-out` naming one file, invalid build plans, out-of-range
dimensions, degrees, tolerances or solver limits, a `bounds` table whose
t^a_n has more digits than Python prints, and click's own usage errors (a
value of the wrong type, an unknown option or command, a missing argument).
One list, in the command group, maps the library's input errors to exit 2
for every command: ParseError (a design or --plan file that is not of its
format), CacheWriteError (a cache entry that cannot be written),
OverflowError (a weight whose mass overflows a double) and MemoryError (a
plan whose leaves alone exceed the address space, before any solve; a
design too large to hold, only with `build -o`, since only -o forms
points; a count too long to print reads "about 10^d").
Paths are checked before any solve; a cache entry that cannot be written
shows only when a solved rule is stored, and an output write that fails
after the build (a full disk) exits 2 too.
"""
from __future__ import annotations

import contextlib
import functools
import math
import os
import stat
import sys
from pathlib import Path

import click

from .cache import CacheWriteError, InMemoryQuadratureCache, QuadratureCache
from .construct import (
    DESIGN_TOLERANCE,
    BuildError,
    Design,
    a_sequence,
    certify_build,
    certify_plan,
    factors,
    lower_bound,
    naming_the_count,
    plan,
    product_rows,
    solve_cached,
)
from .formats import ParseError, atomic_write_text, design_text, dump_json, read_design, read_plan, report_text, rule_text
from .quadrature import NoConvergenceError, SolverOptions
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
    if value is None:
        return value
    try:
        if not value.parent.is_dir():
            raise InputError(f"{_name(param)} {value}: {value.parent} is not a directory")
        # the write would replace a FIFO with a file, or fail on a directory (click reads "" as ".")
        if not stat.S_ISREG(value.stat().st_mode):
            raise InputError(f"{_name(param)} {value}: exists and is not a regular file")
    except FileNotFoundError:
        pass
    except OSError as exc:  # a name too long, a loop of symbolic links
        raise InputError(f"{_name(param)} {value}: {exc.strerror}")
    return value


def _same_file(a: Path, b: Path) -> bool:
    try:
        return os.path.samefile(a, b)  # also a hard link or a symbolic link to the other
    except OSError:  # one of them is not there yet
        return a.resolve() == b.resolve()


def _write(option: str, path: Path, text: str) -> None:
    """Write an output file as `_writable` checked it; a write that fails anyway
    (a full disk, a read-only file system) is reported as that check would."""
    try:
        atomic_write_text(path, text)
    except OSError as exc:
        raise InputError(f"{option} {path}: {exc.strerror}")


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
    """--tol-quad, --max-k and --seed of `quadrature` and `build`, passed on as one SolverOptions `opts`."""

    @functools.wraps(command)
    def with_opts(tol_quad, max_k, seed, **kwargs):
        return command(opts=SolverOptions(tolerance=tol_quad, max_K=max_k, seed=seed), **kwargs)

    defaults = SolverOptions()
    for option in reversed([
        click.option("--tol-quad", type=float, default=defaults.tolerance, show_default=True, callback=_positive),
        click.option("--max-k", type=int, default=defaults.max_K, show_default=True, callback=_at_least(1)),
        click.option("--seed", type=int, default=defaults.seed, show_default=True, help="Ignored: the solver is deterministic."),
    ]):
        with_opts = option(with_opts)
    return with_opts


# bare `designforge` prints the help text; click >= 8.2 does it by raising this
# UsageError, which must pass through (older click prints the help and exits)
_HELP = getattr(click.exceptions, "NoArgsIsHelpError", ())


@contextlib.contextmanager
def _one_line_usage_errors():
    """Click's usage errors, and the library errors that a command's arguments
    alone can cause, as one InputError line: an input file not of its format,
    a cache entry that cannot be written, a weight whose mass overflows a
    double, a design too large to hold."""
    try:
        yield
    except _HELP:
        raise
    except click.UsageError as exc:
        raise InputError(exc.format_message()) from None
    except (CacheWriteError, ParseError, OverflowError, MemoryError) as exc:
        message = str(exc) or f"{type(exc).__name__}: the arguments ask for more than this machine holds"
        raise InputError(message) from None


class _Group(click.Group):
    """Reports click's usage errors, its own and each subcommand's, and the
    library's input errors as InputError (see `_one_line_usage_errors`)."""

    def make_context(self, *args, **kwargs):
        with _one_line_usage_errors():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _one_line_usage_errors():
            return super().invoke(ctx)


@click.group(cls=_Group)
def main():
    """Build and certify averaging point sets on spheres."""


class _SignedArguments(click.Command):
    """Reads `-1` as an argument, so it reaches the argument's range check.

    click reads `-1` as an unknown option.  A strict parse with such numbers
    masked reports every other unknown option as click does; the real parse
    then passes the unknown options, now only numbers, on as arguments.
    """

    def parse_args(self, ctx, args):
        self.make_parser(ctx).parse_args(["0" if arg[:1] == "-" and arg[1:2].isdigit() else arg for arg in args])
        ctx.ignore_unknown_options = True
        return super().parse_args(ctx, args)


class _NoRule(Exception):
    """A rule the bounds table needs is not cached, or fails re-certification."""


@main.command(cls=_SignedArguments)
@click.argument("n", type=int, callback=_at_least(1))
@click.argument("t_max", type=int, callback=_at_least(0))
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@_cache_dir_option
def bounds(n, t_max, fmt, cache_dir):
    """Print, for t = 1..T_MAX, the size lower bound on S^N, the growth
    exponent, t^exponent, and the size of the default tree certified from the
    rules cached under --cache-dir at build's default tolerances and phase
    (builds with --plan or another --tol-quad do not feed it).  A size can
    show for a t never built: t = 2s and 2s+1 share their rules.  "-" means a
    rule is missing or fails, or the tree fails; S^1 needs no rule.  Creates
    nothing."""
    cache = QuadratureCache(cache_dir) if cache_dir and (cache_dir / "quadratures").is_dir() else None

    @functools.cache  # rows t = 2s and 2s+1 need the same rules: each is read once per table, misses too
    def cached_rule(m, k, degree):
        return cache.lookup(m, k, degree, SolverOptions().tolerance) if cache else None

    def rule_for(m, k, degree):
        rule = cached_rule(m, k, degree)
        if rule is None:
            raise _NoRule
        return rule

    def achieved(t):
        try:
            return certify_plan(plan(n, t), rule_for)[0].total_points if cache_dir else None
        except (_NoRule, BuildError):
            return None

    exponent = a_sequence(n)
    # Python prints no int of more digits (0: no limit; Pythons before 3.10.7 have none)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = math.floor(exponent * math.log10(t_max)) + 1 if t_max > 1 else 1
    if limit and digits > limit:
        raise InputError(f"S^{n} up to T_MAX {t_max}: t^a_n reaches {t_max}^{exponent}, "
                         f"{digits} digits, over the {limit} that Python prints")
    rows = [{"t": t, "lower_bound": lower_bound(n, t), "t_pow_exponent": t**exponent, "achieved": achieved(t)}
            for t in range(1, t_max + 1)]
    if fmt == "json":
        click.echo(dump_json({"n": n, "exponent": exponent, "rows": rows}), nl=False)
        return
    click.echo(f"sphere S^{n}, growth exponent a_n = {exponent}")
    header = f"{'t':>4}  {'lower_bound':>12}  {'t^a_n':>14}  {'achieved':>10}"
    click.echo(header)
    click.echo("-" * len(header))
    for row in rows:
        size = row["achieved"] if row["achieved"] is not None else "-"
        click.echo(f"{row['t']:>4}  {row['lower_bound']:>12}  {row['t_pow_exponent']:>14}  {size:>10}")


@main.command(cls=_SignedArguments)
@click.argument("m", type=int, callback=_at_least(1))
@click.argument("n", type=int, callback=_at_least(1))
@click.argument("t", type=int, callback=_at_least(0))
@click.option("-o", "--output", type=click.Path(dir_okay=False, path_type=Path), default=None, callback=_writable)
@_solver_flags
@_cache_dir_option
def quadrature(m, n, t, output, opts, cache_dir):
    """Solve (or load) an equal-weight rule of degree T for the (M, N) weight."""
    cache = _open_cache(cache_dir) or InMemoryQuadratureCache()
    exit_code = 0
    try:
        q = solve_cached(m, n, t, opts, cache)
    except NoConvergenceError as exc:
        click.echo(f"no convergence: {exc}", err=True)
        if exc.best is None:  # refused before any attempt: no best-effort rule to write
            sys.exit(1)
        q, exit_code = exc.best, 1
    if output:
        _write("--output", output, rule_text(q))
    click.echo(
        f"weight (m={m}, n={n}) degree {t}: K={q.K}, "
        f"max residual {q.max_abs_residual:.3e}, certified={q.certified}"
    )
    sys.exit(exit_code)


@main.command("build", cls=_SignedArguments)
@click.argument("n", type=int)
@click.argument("t", type=int)
@click.option("-o", "--output", type=click.Path(dir_okay=False, path_type=Path), default=None, callback=_writable)
@click.option("--report-out", type=click.Path(dir_okay=False, path_type=Path), default=None, callback=_writable)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@_solver_flags
@click.option("--tol-design", type=float, default=DESIGN_TOLERANCE, show_default=True, callback=_positive)
@click.option("--phase", type=float, default=0.0, show_default=True, callback=_finite, help="Rotation of polygon leaves (radians).")
@click.option("--plan", "plan_file", type=click.Path(exists=True, dir_okay=False, path_type=Path), default=None, help="JSON file mapping ambient dims to [m, n] split overrides.")
@_cache_dir_option
def build_cmd(n, t, output, report_out, fmt, opts, tol_design, phase, plan_file, cache_dir):
    """Plan, build, and verify a degree-T design on S^N."""
    if output and report_out and _same_file(output, report_out):
        raise InputError(f"--output {output} and --report-out {report_out} name the same file")
    try:
        bp = plan(n, t, read_plan(plan_file) if plan_file else None)
    except ValueError as exc:
        raise InputError(f"invalid plan: {exc}")
    cache = _open_cache(cache_dir)
    try:
        report, parts = certify_build(bp, solver_opts=opts, design_tol=tol_design, cache_obj=cache, phase=phase)
    except (BuildError, NoConvergenceError) as exc:
        click.echo(f"build failed: {exc}", err=True)
        sys.exit(1)
    # without -o no row is formed: unit norms rest on certify_plan's leaves and rules
    if output:
        with naming_the_count(report):  # a product root's rows are written from its factors, never formed
            rows = parts.points if isinstance(parts, Design) else product_rows(*factors(parts))
            text = design_text(rows, report.degree, fmt)
        _write("--output", output, text)
    if report_out:
        _write("--report-out", report_out, report_text(report))
    click.echo(
        f"S^{n} degree {t}: {report.total_points} points "
        f"(lower bound {report.dgs_lower_bound}), max residual {report.max_residual:.3e}"
    )
    sys.exit(0)


@main.command()
@click.argument("design_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("-t", "--degree", type=int, required=True, callback=_at_least(0))
@click.option("--tol", type=float, default=DESIGN_TOLERANCE, show_default=True, callback=_positive)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def verify(design_file, degree, tol, fmt):
    """Certify a point file at degree T with the certificates `build` applies;
    exit 1 unless all pass.  The points are read directly, so a residual can
    differ from the build report's in its last bits."""
    design = read_design(design_file, degree)
    # no T-design has fewer points, and the certificate's cost grows with T whatever the count
    if design.ambient_dim >= 2 and design.count < (bound := lower_bound(design.ambient_dim - 1, degree)):
        click.echo(f"{design.count} points cannot form a degree-{degree} design on S^{design.ambient_dim - 1}, "
                   f"which needs at least {bound} (Delsarte-Goethals-Seidel)", err=True)
        sys.exit(1)
    reports = verify_design(design, degree, tol)
    if fmt == "json":
        click.echo(dump_json([r.to_json_dict() for r in reports]), nl=False)
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
