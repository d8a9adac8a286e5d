"""Disk cache semantics, file formats, CLI behavior, and determinism."""
import errno
import json
import math
import os
import re
import stat
import sys
import threading
import time
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge import (
    Design,
    InMemoryQuadratureCache,
    JacobiWeight,
    MultiIndex,
    NoConvergenceError,
    Quadrature,
    SolverOptions,
    VerificationReport,
    base_s0,
    base_s1,
    build,
    certify,
    plan,
    solve_equal_weight,
)
from designforge.cache import CacheWriteError, QuadratureCache, key
from designforge import construct
from designforge.cli import main
from designforge.formats import (
    _JSON_ROW, _format_product_rows, _format_rows, atomic_write_text, design_text, dump_json, read_design,
    rule_from_json, rule_text,
)
from oracles import encode_floats, per_value_text, rule_text_encoded


@pytest.fixture
def runner():
    return CliRunner()


# JSON text past the parsers' limits: an integer with more digits than Python
# converts, and lists nested deeper than its recursion limit
LONG_INT = "9" * 5000
DEEP = "[" * 100_000


def nested(depth: int, leaf: str) -> str:
    return "[" * depth + leaf + "]" * depth


def assert_input_error(result, message):
    """A user-input error: exit code 2 and a one-line message, no traceback."""
    assert result.exit_code == 2
    assert message in result.output
    assert "Traceback" not in result.output
    assert len(result.output.strip().splitlines()) == 1


class TestQuadratureCache:
    def test_store_then_lookup_bit_exact(self, tmp_path):
        cache = QuadratureCache(tmp_path)
        q, _ = solve_equal_weight(JacobiWeight(2, 2), 3)
        cache.store(q)
        back = cache.lookup(2, 2, 3, 1e-12)
        assert back is not None
        assert np.array_equal(back.nodes, q.nodes)

    def test_lookup_miss(self, tmp_path):
        assert QuadratureCache(tmp_path).lookup(2, 2, 9, 1e-12) is None

    def test_store_is_idempotent(self, tmp_path):
        cache = QuadratureCache(tmp_path)
        q, _ = solve_equal_weight(JacobiWeight(2, 1), 2)
        cache.store(q)
        first = (cache.quad_dir / (key(2, 1, 2, 1e-12) + ".json")).read_bytes()
        cache.store(q)
        files = list(cache.quad_dir.iterdir())
        assert len(files) == 1
        assert files[0].read_bytes() == first

    def test_tolerance_buckets_by_exponent(self, tmp_path):
        cache = QuadratureCache(tmp_path)
        q, _ = solve_equal_weight(JacobiWeight(2, 2), 2)
        cache.store(q)
        assert cache.lookup(2, 2, 2, 1.0e-12) is not None
        assert cache.lookup(2, 2, 2, 1.3e-12) is not None  # same magnitude
        assert cache.lookup(2, 2, 2, 1e-9) is None

    def test_corrupt_entry_ignored_with_warning(self, tmp_path):
        cache = QuadratureCache(tmp_path)
        q, _ = solve_equal_weight(JacobiWeight(2, 2), 2)
        cache.store(q)
        path = cache.quad_dir / (key(2, 2, 2, 1e-12) + ".json")
        path.write_text("{ not json")
        with pytest.warns(UserWarning, match="corrupt"):
            assert cache.lookup(2, 2, 2, 1e-12) is None

    def test_ragged_nodes_entry_ignored_with_warning_naming_the_row(self, tmp_path):
        # a rule's nodes are one flat list, so the fault is its first cell that is a list,
        # not row 1's width; numpy's "inhomogeneous shape" text once stood here
        cache = QuadratureCache(tmp_path)
        path = cache.quad_dir / (key(2, 2, 2, 1e-12) + ".json")
        path.write_text('{"m": 2, "n": 2, "degree": 2, "K": 2, "nodes_hex": [["0x1p-1"], ["-0x1p-1", "0x0p+0"]]}')
        with pytest.warns(UserWarning, match=r"ignoring corrupt cache entry .*: nodes_hex: expected a hex string, "
                                             r"got a list nested inside$"):
            assert cache.lookup(2, 2, 2, 1e-12) is None

    @pytest.mark.parametrize(
        "nodes,message",
        [
            # each once carried float.fromhex's "bad argument type for built-in operation"
            ('"nodes_hex": ["0x1p-1", 5]', "nodes_hex: expected a hex string, got 5"),
            ('"nodes_hex": [true]', "nodes_hex: expected a hex string, got true"),
            # float()'s OverflowError once escaped the cache as a traceback
            (f'"nodes": [1{"0" * 400}]', "nodes: int too large to convert to float"),
        ],
        ids=["number-in-hex", "bool-in-hex", "integer-past-a-double"],
    )
    def test_bad_cell_ignored_with_warning_naming_the_field(self, tmp_path, nodes, message):
        cache = QuadratureCache(tmp_path)
        path = cache.quad_dir / (key(2, 2, 2, 1e-12) + ".json")
        path.write_text(f'{{"m": 2, "n": 2, "degree": 2, "K": 2, {nodes}}}')
        with pytest.warns(UserWarning, match=rf"ignoring corrupt cache entry .*: {re.escape(message)}$"):
            assert cache.lookup(2, 2, 2, 1e-12) is None

    @pytest.mark.parametrize("nodes", [None, nested(900, '"0x0p+0"')], ids=["whole-file", "nodes"])
    def test_entry_nested_past_the_recursion_limit_ignored_with_warning(self, tmp_path, nodes):
        cache = QuadratureCache(tmp_path)
        path = cache.quad_dir / (key(2, 2, 2, 1e-12) + ".json")
        path.write_text(DEEP if nodes is None else f'{{"m": 2, "n": 2, "degree": 2, "K": 1, "nodes_hex": {nodes}}}')
        with pytest.warns(UserWarning, match="ignoring corrupt cache entry .*nested"):
            assert cache.lookup(2, 2, 2, 1e-12) is None

    def test_unreadable_entry_ignored_with_warning_and_never_written_over(self, tmp_path):
        # a directory at the entry path fails the read and the write even as root, where chmod would not
        cache = QuadratureCache(tmp_path)
        path = cache.quad_dir / (key(2, 2, 2, 1e-12) + ".json")
        path.mkdir()
        with pytest.warns(UserWarning, match="unreadable cache entry"):
            assert cache.lookup(2, 2, 2, 1e-12) is None
        q, _ = solve_equal_weight(JacobiWeight(2, 2), 2)
        with pytest.raises(CacheWriteError, match=f"cannot write cache entry {re.escape(str(path))}: Is a directory"):
            cache.store(q)
        assert list(cache.quad_dir.iterdir()) == [path]  # no temp file left behind

    def test_uncertified_never_served(self, tmp_path):
        cache = QuadratureCache(tmp_path)
        q = Quadrature(weight=JacobiWeight(2, 2), degree=2, nodes=np.array([-1.0, 1.0]))
        cache.store(q)  # refused: not certified
        assert cache.lookup(2, 2, 2, 1e-12) is None

    @pytest.mark.parametrize("kind", ["disk", "memory"])
    def test_hit_recertified_at_requested_tolerance(self, tmp_path, kind):
        # a rule certified at 3e-12 shares the e-12 bucket with 5e-13 but
        # must not be served there
        q, _ = solve_equal_weight(JacobiWeight(2, 2), 3)
        nodes = q.nodes.copy()
        nodes[0] += 1e-12
        loose = Quadrature(weight=q.weight, degree=3, nodes=nodes)
        certify(loose, 3e-12)
        assert loose.certified and loose.max_abs_residual > 5e-13
        cache = QuadratureCache(tmp_path) if kind == "disk" else InMemoryQuadratureCache()
        cache.store(loose)
        assert cache.lookup(2, 2, 3, 5e-13) is None
        hit = cache.lookup(2, 2, 3, 3e-12)
        assert hit is not None and hit.certified
        assert hit.max_abs_residual == loose.max_abs_residual
        assert np.array_equal(hit.nodes, loose.nodes)

    def test_stored_certified_flag_not_trusted(self, tmp_path):
        cache = QuadratureCache(tmp_path)
        q = Quadrature(weight=JacobiWeight(2, 2), degree=2, nodes=np.array([-1.0, 1.0]))
        q.certified, q.tolerance = True, 1e-12  # a forged flag
        cache.store(q)
        assert cache.lookup(2, 2, 2, 1e-12) is None

    def test_memory_and_disk_share_one_key(self, tmp_path):
        q, _ = solve_equal_weight(JacobiWeight(2, 1), 2)
        disk, memory = QuadratureCache(tmp_path), InMemoryQuadratureCache()
        disk.store(q)
        memory.store(q)
        assert list(memory._store) == [p.stem for p in disk.quad_dir.glob("*.json")]


class TestAtomicWrite:
    def test_mode_follows_the_umask_at_write_time(self, tmp_path):
        path = tmp_path / "f.json"
        old = os.umask(0o077)
        try:
            atomic_write_text(path, "{}\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert list(tmp_path.iterdir()) == [path]

    def test_concurrent_writers(self, tmp_path):
        # more writers than cores, all replacing one file; with a shared temp
        # name a writer's rename finds its temp file already moved away
        path = tmp_path / "shared.json"
        writers = 4 * (os.cpu_count() or 1) + 4
        errors = []

        def write(i):
            try:
                for j in range(50):
                    atomic_write_text(path, json.dumps({"writer": i, "round": j, "pad": "x" * 4096}) + "\n")
            except Exception as exc:  # noqa: BLE001 - collected and asserted below
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(i,), daemon=True) for i in range(writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        assert json.loads(path.read_text())["round"] == 49
        assert [p.name for p in tmp_path.iterdir()] == ["shared.json"]


class TestBoundsCommand:
    def test_table_rows(self, runner):
        result = runner.invoke(main, ["bounds", "3", "4"])
        assert result.exit_code == 0
        assert "a_n = 4" in result.output
        lines = [l for l in result.output.splitlines() if l.strip() and l.strip()[0].isdigit()]
        assert len(lines) == 4
        assert lines[3].split()[:3] == ["4", "14", "256"]

    def test_circle_bounds_match_polygon_sizes(self, runner):
        result = runner.invoke(main, ["bounds", "1", "3", "--format", "json"])
        data = json.loads(result.output)
        assert [row["lower_bound"] for row in data["rows"]] == [2, 3, 4]

    def test_degenerate_zero_rows(self, runner):
        result = runner.invoke(main, ["bounds", "2", "0"])
        assert result.exit_code == 0

    def test_sphere_dim_zero_exits_2(self, runner):
        assert_input_error(runner.invoke(main, ["bounds", "0", "3"]), "N must be >= 1")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_power_too_long_to_print_exits_2_before_any_row(self, runner, fmt):
        # a_1000 = 5049: 10^5049 has 5050 digits, past Python's default 4300
        assert_input_error(
            runner.invoke(main, ["bounds", "1000", "10", "--format", fmt]),
            "S^1000 up to T_MAX 10: t^a_n reaches 10^5049, 5050 digits, over the 4300",
        )

    def test_power_just_short_of_the_digit_limit_prints(self, runner):
        # 7^5049 has 4267 digits
        result = runner.invoke(main, ["bounds", "1000", "7", "--format", "json"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["rows"][-1]["t_pow_exponent"] == 7**5049

    def test_achieved_column_fed_by_cache(self, runner, tmp_path):
        build_result = runner.invoke(
            main, ["build", "2", "2", "--cache-dir", str(tmp_path)]
        )
        assert build_result.exit_code == 0
        result = runner.invoke(
            main, ["bounds", "2", "2", "--format", "json", "--cache-dir", str(tmp_path)]
        )
        data = json.loads(result.output)
        assert data["rows"][1]["achieved"] == 6

    def test_each_cached_rule_is_read_once_per_table(self, runner, tmp_path, monkeypatch):
        # rows t = 2s and 2s+1 need the same (2, 1) rule, of degree s: five rules for
        # t = 1..9, of which `build 2 4` cached degree 2 and degree 1 is made corrupt
        assert runner.invoke(main, ["build", "2", "4", "--cache-dir", str(tmp_path)]).exit_code == 0
        entry = tmp_path / "quadratures" / (key(2, 1, 1, 1e-12) + ".json")
        entry.write_text("{")
        reads = []
        real = QuadratureCache._read
        monkeypatch.setattr(QuadratureCache, "_read", lambda self, k: reads.append(k) or real(self, k))
        with pytest.warns(UserWarning) as warned:
            result = runner.invoke(main, ["bounds", "2", "9", "--format", "json", "--cache-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert sorted(reads) == sorted(key(2, 1, d, 1e-12) for d in range(5))
        assert [str(w.message).split(":")[0] for w in warned] == [f"ignoring corrupt cache entry {entry}"]
        assert [row["achieved"] for row in json.loads(result.output)["rows"]] == [None, None, None, 20, 24, *[None] * 4]

    def test_bounds_creates_no_directory(self, runner, tmp_path):
        cache_dir = tmp_path / "newdir"
        result = runner.invoke(main, ["bounds", "2", "2", "--cache-dir", str(cache_dir)])
        assert result.exit_code == 0, result.output
        assert not cache_dir.exists()

    @pytest.mark.parametrize("n,t", [(1, 5), (2, 4), (3, 4), (4, 3), (5, 2)])
    def test_achieved_is_certified_from_the_cached_rules(self, runner, tmp_path, built, n, t):
        cache_dir, report = tmp_path / "c", tmp_path / "r.json"
        result = runner.invoke(main, ["build", str(n), str(t), "--cache-dir", str(cache_dir), "--report-out", str(report)])
        assert result.exit_code == 0, result.output
        assert [p.name for p in cache_dir.iterdir()] == ["quadratures"]
        result = runner.invoke(main, ["bounds", str(n), str(t + 1), "--format", "json", "--cache-dir", str(cache_dir)])
        assert result.exit_code == 0, result.output
        achieved = [row["achieved"] for row in json.loads(result.output)["rows"]]
        assert achieved[t - 1] == json.loads(report.read_text())["total_points"]
        # the default tree of degree s needs rules of degree s // 2 only, and S^1's needs none
        for s in range(1, t + 2):
            cached = n == 1 or s // 2 == t // 2
            assert achieved[s - 1] == (built(n, s)[1].total_points if cached else None), s

    @pytest.mark.parametrize("built_first", [False, True])
    def test_bounds_changes_no_existing_directory(self, runner, tmp_path, built_first):
        if built_first:
            assert runner.invoke(main, ["build", "2", "2", "--cache-dir", str(tmp_path)]).exit_code == 0
        listing = sorted(tmp_path.rglob("*"))
        result = runner.invoke(main, ["bounds", "2", "3", "--format", "json", "--cache-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert [row["achieved"] for row in json.loads(result.output)["rows"]] == ([None, 6, 8] if built_first else [None] * 3)
        assert sorted(tmp_path.rglob("*")) == listing

    @pytest.mark.parametrize("rules_dir", [False, True])
    def test_circle_sizes_need_no_rule(self, runner, tmp_path, rules_dir):
        # S^1's tree is a polygon: its size shows whether or not quadratures/ exists
        if rules_dir:
            (tmp_path / "quadratures").mkdir()
        for cache_dir in (tmp_path, tmp_path / "missing"):
            listing = sorted(tmp_path.rglob("*"))
            result = runner.invoke(main, ["bounds", "1", "3", "--format", "json", "--cache-dir", str(cache_dir)])
            assert result.exit_code == 0, result.output
            assert [row["achieved"] for row in json.loads(result.output)["rows"]] == [2, 3, 4]
            assert sorted(tmp_path.rglob("*")) == listing
        result = runner.invoke(main, ["bounds", "1", "3", "--format", "json"])
        assert [row["achieved"] for row in json.loads(result.output)["rows"]] == [None] * 3

    @pytest.mark.parametrize("field", ["m", "n", "degree", "K"])
    def test_non_integer_rule_field_hides_only_its_rows(self, runner, tmp_path, field):
        # int(1e999) raises OverflowError, which once escaped the cache as a traceback
        for t in ("1", "2", "4"):
            assert runner.invoke(main, ["build", "2", t, "--cache-dir", str(tmp_path)]).exit_code == 0
        path = tmp_path / "quadratures" / (key(2, 1, 1, 1e-12) + ".json")
        data = json.loads(path.read_text())
        good = data[field]
        data[field] = math.inf
        path.write_text(json.dumps(data).replace("Infinity", "1e999"))
        bounds = ["bounds", "2", "5", "--format", "json", "--cache-dir", str(tmp_path)]
        with pytest.warns(UserWarning, match="corrupt cache entry"):
            result = runner.invoke(main, bounds)
        assert result.exit_code == 0, result.output
        assert [row["achieved"] for row in json.loads(result.output)["rows"]] == [4, None, None, 20, 24]
        with pytest.warns(UserWarning, match="corrupt cache entry"):
            result = runner.invoke(main, ["build", "2", "2", "--cache-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert json.loads(path.read_text())[field] == good
        assert [row["achieved"] for row in json.loads(runner.invoke(main, bounds).output)["rows"]] == [4, 6, 8, 20, 24]


class TestUnreadableCacheEntry:
    """A directory where the (2, 1) degree-5 rule's file belongs."""

    @staticmethod
    def entry(cache_dir):
        return cache_dir / "quadratures" / (key(2, 1, 5, 1e-12) + ".json")

    @pytest.mark.parametrize("args", [["build", "2", "10"], ["quadrature", "2", "1", "5"]], ids=["build", "quadrature"])
    def test_solving_commands_exit_2_naming_the_entry(self, runner, tmp_path, args):
        self.entry(tmp_path).mkdir(parents=True)
        with pytest.warns(UserWarning, match="unreadable cache entry"):
            result = runner.invoke(main, [*args, "--cache-dir", str(tmp_path)])
        assert_input_error(result, f"cannot write cache entry {self.entry(tmp_path)}: Is a directory")
        assert self.entry(tmp_path).is_dir()

    def test_bounds_hides_only_the_rows_that_need_it(self, runner, tmp_path):
        for t in ("4", "10"):
            assert runner.invoke(main, ["build", "2", t, "--cache-dir", str(tmp_path)]).exit_code == 0
        bounds = ["bounds", "2", "11", "--format", "json", "--cache-dir", str(tmp_path)]
        before = [row["achieved"] for row in json.loads(runner.invoke(main, bounds).output)["rows"]]
        self.entry(tmp_path).unlink()
        self.entry(tmp_path).mkdir()
        with pytest.warns(UserWarning, match="unreadable cache entry"):
            result = runner.invoke(main, bounds)
        assert result.exit_code == 0, result.output
        # S^2 of degree t joins with the (2, 1) rule of degree t // 2
        assert None not in (before[3], before[4], before[9], before[10])
        expected = [None if t // 2 == 5 else size for t, size in enumerate(before, start=1)]
        assert [row["achieved"] for row in json.loads(result.output)["rows"]] == expected


@pytest.mark.parametrize("args", [["build", "2", "3"], ["bounds", "2", "3"]], ids=["build", "bounds"])
def test_cache_entry_nested_past_the_recursion_limit_is_ignored_with_warning(runner, tmp_path, args):
    entry = tmp_path / "quadratures" / (key(2, 1, 1, 1e-12) + ".json")
    entry.parent.mkdir()
    entry.write_text(DEEP)
    with pytest.warns(UserWarning) as warned:
        result = runner.invoke(main, [*args, "--cache-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert {str(w.message) for w in warned} == {
        f"ignoring corrupt cache entry {entry}: JSON nested deeper than Python's recursion limit"
    }
    if args[0] == "build":  # re-solved and stored over the corrupt entry
        assert rule_from_json(json.loads(entry.read_text())).weight == JacobiWeight(2, 1)


def test_column_shaped_cache_entry_is_ignored_with_warning_and_stored_over(runner, tmp_path):
    # nodes_hex as K one-cell rows was once read as a (K, 1) rule, which failed
    # re-certification and was a miss without a word
    rule = solve_equal_weight(JacobiWeight(2, 1), 1)[0]
    entry = tmp_path / "quadratures" / (key(2, 1, 1, 1e-12) + ".json")
    entry.parent.mkdir()
    data = json.loads(rule_text(rule))
    entry.write_text(dump_json({**data, **{name: [[v] for v in data[name]] for name in ("nodes", "nodes_hex")}}))
    with pytest.warns(UserWarning) as warned:
        result = runner.invoke(main, ["build", "2", "3", "--cache-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert {str(w.message) for w in warned} == {
        f"ignoring corrupt cache entry {entry}: nodes_hex: expected a hex string, got a list nested inside"
    }
    assert entry.read_text() == rule_text(rule)


class TestQuadratureCommand:
    def test_writes_sorted_17_digit_nodes(self, runner, tmp_path):
        out = tmp_path / "q.json"
        result = runner.invoke(main, ["quadrature", "2", "2", "3", "-o", str(out)])
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        assert data["K"] == 2 and data["certified"]
        nodes = [float(s) for s in data["nodes"]]
        assert nodes == sorted(nodes)
        assert nodes[1] == pytest.approx(1 / np.sqrt(3), abs=1e-12)
        # 17 significant digits round-trip exactly
        assert [float(s) for s in data["nodes"]] == [
            float.fromhex(h) for h in data["nodes_hex"]
        ]

    def test_uses_cache_on_second_run(self, runner, tmp_path):
        args = ["quadrature", "2", "1", "2", "--cache-dir", str(tmp_path)]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0 and second.exit_code == 0
        assert first.output == second.output

    def test_no_convergence_nonzero_exit_and_best_effort_file(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr("designforge.quadrature.MAX_ITERATIONS", 5)
        out = tmp_path / "q.json"
        result = runner.invoke(main, ["quadrature", "2", "1", "7", "-o", str(out), "--max-k", "10"])
        assert result.exit_code == 1
        data = json.loads(out.read_text())
        assert data["certified"] is False and data["K"] == 10

    def test_no_convergence_names_the_node_bound(self, runner, tmp_path):
        # ceil(7/2) = 4 fits --max-k 5, the Christoffel bound 6 does not: refused, nothing written
        out = tmp_path / "q.json"
        result = runner.invoke(main, ["quadrature", "2", "1", "6", "-o", str(out), "--max-k", "5"])
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [
            "no convergence: no equal-weight rule of degree 6 for weight (m=2, n=1) up to K=5: "
            "a rule of degree 6 needs at least 6 nodes"
        ]
        assert result.stdout == "" and not out.exists()

    def test_degree_zero(self, runner):
        result = runner.invoke(main, ["quadrature", "3", "2", "0"])
        assert result.exit_code == 0 and "K=1" in result.output

    def test_factor_dim_zero_exits_2(self, runner):
        assert_input_error(runner.invoke(main, ["quadrature", "0", "2", "3"]), "M must be >= 1")

    @pytest.mark.parametrize("m,n", [(1100, 1100), (3000, 3000)])
    def test_weight_whose_mass_factors_overflow_solves(self, runner, m, n):
        # 2^((m+n-2)/2) alone overflows a float64; the mass itself does not
        result = runner.invoke(main, ["quadrature", str(m), str(n), "2"])
        assert result.exit_code == 0, result.output
        assert "K=2" in result.output and "certified=True" in result.output

    def test_weight_whose_mass_overflows_exits_2(self, runner):
        assert_input_error(
            runner.invoke(main, ["quadrature", "3000", "5", "4"]),
            "the mass of the (m=3000, n=5) weight does not fit in a float64",
        )

    def test_degree_past_max_k_exits_1_at_once_and_writes_nothing(self, runner, tmp_path):
        # a 50001-node Gauss rule would need a dense 50001 x 50001 eigenproblem
        out = tmp_path / "q.json"
        start = time.perf_counter()
        result = runner.invoke(main, ["quadrature", "2", "1", "100000", "-o", str(out)])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [
            "no convergence: no equal-weight rule of degree 100000 for weight (m=2, n=1) up to K=512: "
            "a rule of degree 100000 needs at least 50001 nodes"
        ]
        assert result.stdout == "" and not out.exists()


@pytest.mark.parametrize(
    "args,message",
    [
        (["build", "2", "3", "--tol-quad", "inf"], "--tol-quad must be a finite number > 0"),
        (["build", "2", "3", "--tol-quad", "nan"], "--tol-quad must be a finite number > 0"),
        (["quadrature", "2", "1", "3", "--tol-quad", "inf"], "--tol-quad must be a finite number > 0"),
        (["build", "2", "3", "--tol-design", "-1"], "--tol-design must be a finite number > 0"),
        (["quadrature", "2", "1", "3", "--max-k", "0"], "--max-k must be >= 1"),
        (["build", "2", "3", "--phase", "inf"], "--phase must be a finite number"),
    ],
    ids=["build-tol-quad-inf", "build-tol-quad-nan", "quadrature-tol-quad-inf", "build-tol-design-negative",
         "quadrature-max-k-zero", "build-phase-inf"],
)
def test_bad_solver_or_tolerance_option_exits_2(runner, args, message):
    assert_input_error(runner.invoke(main, args), message)


class TestBuildCommand:
    def test_design_too_large_to_hold_exits_2(self, runner, tmp_path, monkeypatch):
        # only -o forms points: S^4 = S^1 x (S^1 x S^0) forms its right factor
        def product(*args):
            raise MemoryError

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("designforge.construct.product", product)
        assert_input_error(
            runner.invoke(main, ["build", "4", "4", "-o", "d.json"]), "the 200 points of S^4 degree 4 do not fit in memory"
        )
        assert not (tmp_path / "d.json").exists()

    def test_design_beyond_any_address_space_exits_2_without_certifying(self, runner, monkeypatch):
        def certify_plan(*args, **kwargs):
            raise AssertionError("certify_plan was called")

        monkeypatch.setattr("designforge.construct.certify_plan", certify_plan)
        assert_input_error(runner.invoke(main, ["build", "200", "2"]), "needs at least 2435013403100201220879672449168160867466000113598464 points")

    def test_count_too_long_to_print_is_a_power_of_ten(self, runner):
        assert_input_error(
            runner.invoke(main, ["build", "20000", "2"]),
            "S^20000 degree 2 needs at least about 10^4997 points, which do not fit in memory",
        )

    def test_degree_past_max_k_exits_1_naming_the_node_count(self, runner):
        # S^2 of degree t joins with the (2, 1) rule of degree t // 2 = 50000
        result = runner.invoke(main, ["build", "2", "100000"])
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [
            "build failed: no equal-weight rule of degree 50000 for weight (m=2, n=1) up to K=512: "
            "a rule of degree 50000 needs at least 25001 nodes"
        ]

    def test_weight_whose_mass_overflows_exits_2(self, runner, tmp_path):
        # a plan that reaches such a weight has over a thousand leaves, so it is
        # refused by its leaf sizes before any rule is solved
        plan_file = tmp_path / "p.json"
        plan_file.write_text('{"3005": [3000, 5]}')
        assert_input_error(
            runner.invoke(main, ["build", "3004", "2", "--plan", str(plan_file)]),
            "S^3004 degree 2 needs at least",
        )

    def test_worked_example_files(self, runner, tmp_path):
        design_file = tmp_path / "d.json"
        report_file = tmp_path / "r.json"
        result = runner.invoke(
            main,
            ["build", "2", "1", "-o", str(design_file), "--report-out", str(report_file)],
        )
        assert result.exit_code == 0
        design = json.loads(design_file.read_text())
        assert design["count"] == 4 and design["ambient_dim"] == 3
        report = json.loads(report_file.read_text())
        assert report["passed"] and report["tree"]["K"] == 1

    def test_hexagon(self, runner, tmp_path):
        out = tmp_path / "hex.json"
        result = runner.invoke(main, ["build", "1", "5", "-o", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["count"] == 6

    def test_csv_output_round_trips(self, runner, tmp_path):
        out = tmp_path / "d.csv"
        result = runner.invoke(main, ["build", "2", "2", "-o", str(out), "--format", "csv"])
        assert result.exit_code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()]
        assert len(rows) == 6 and len(rows[0]) == 3
        verify_result = runner.invoke(main, ["verify", str(out), "-t", "2"])
        assert verify_result.exit_code == 0

    def test_plan_override_file(self, runner, tmp_path):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({"4": [1, 3]}))
        out = tmp_path / "r.json"
        result = runner.invoke(
            main,
            ["build", "3", "2", "--plan", str(plan_file), "--report-out", str(out)],
        )
        assert result.exit_code == 0
        tree = json.loads(out.read_text())["tree"]
        assert (tree["m"], tree["n"]) == (1, 3)

    @pytest.mark.parametrize(
        "content,message",
        [
            (b'{"4": [1, 3]', "parse error"),
            (b'{"4": [1, 1]}', "summing to 4"),
            (b'{"4": [1.5, 2.5]}', "integer pair"),
            (b'{"4": 3}', "integer pair"),
            (b'\xff{"4": [1, 3]}', "not UTF-8"),
            (b'{"2": [1, 1]}', "ambient 2 is a leaf"),
            (b'{"9": [4, 5]}', "invalid plan: ambient 9 is not in the tree"),
            (b'{"4": [1, %s]}' % LONG_INT.encode(), "parse error"),
            (DEEP.encode(), "JSON nested deeper than Python's recursion limit"),
            # each of these used to be read as an override of ambient 4 (or 10) without a word
            (b'{"4": [1, 3], "04": [2, 2]}', "ambient dim '04' is not a plain decimal integer"),
            (b'{"4": [1, 3], "4": [2, 2]}', "key '4' appears twice"),
            (b'{"1_0": [5, 5]}', "ambient dim '1_0' is not a plain decimal integer"),
            (b'{" 4 ": [2, 2]}', "ambient dim ' 4 ' is not a plain decimal integer"),
        ],
        ids=["malformed-json", "bad-sum", "non-integer", "non-pair", "not-utf8", "ambient-2", "unreached",
             "5000-digit-split", "100000-deep", "leading-zero", "repeated-key", "underscore", "spaces"],
    )
    def test_bad_plan_file_exits_2(self, runner, tmp_path, content, message):
        plan_file = tmp_path / "plan.json"
        plan_file.write_bytes(content)
        result = runner.invoke(main, ["build", "3", "2", "--plan", str(plan_file)])
        assert result.exit_code == 2
        assert message in result.output
        assert "Traceback" not in result.output
        assert len(result.output.strip().splitlines()) == 1
        assert not isinstance(result.exception, (ValueError, json.JSONDecodeError))

    @pytest.mark.parametrize("report_out", ["x.json", "./x.json", "link.json", "hard.json"])
    def test_output_and_report_out_naming_one_file_exits_2_before_solving(self, runner, tmp_path, monkeypatch, report_out):
        # the report used to replace the design, and the build exited 0
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("designforge.construct.solve_equal_weight", None)  # any solve would fail loudly
        if report_out == "link.json":
            os.symlink("x.json", "link.json")  # dangling until the design is written
        if report_out == "hard.json":
            (tmp_path / "x.json").write_text("old\n")
            os.link("x.json", "hard.json")
        before = {p.name: p.read_bytes() if p.exists() else os.readlink(p) for p in tmp_path.iterdir()}
        result = runner.invoke(main, ["build", "2", "3", "-o", "x.json", "--report-out", report_out])
        assert_input_error(result, f"--output x.json and --report-out {Path(report_out)} name the same file")
        assert {p.name: p.read_bytes() if p.exists() else os.readlink(p) for p in tmp_path.iterdir()} == before

    def test_phase_changes_points_not_verdict(self, runner, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert runner.invoke(main, ["build", "2", "2", "-o", str(a)]).exit_code == 0
        assert (
            runner.invoke(main, ["build", "2", "2", "-o", str(b), "--phase", "0.5"]).exit_code
            == 0
        )
        assert a.read_text() != b.read_text()

    def test_large_phase_still_certifies(self, runner):
        # added to each angle unreduced, a phase of 1e12 left the hexagon's
        # residual at 9.6e-9, past the 1e-9 design tolerance
        assert runner.invoke(main, ["build", "2", "4", "--phase", "1e12"]).exit_code == 0

    def test_output_files_are_serialization_fixed_points(self, runner, tmp_path):
        design_file = tmp_path / "d.json"
        report_file = tmp_path / "r.json"
        csv_file = tmp_path / "d.csv"
        rule_file = tmp_path / "q.json"
        assert (
            runner.invoke(
                main,
                ["build", "2", "2", "-o", str(design_file), "--report-out", str(report_file)],
            ).exit_code
            == 0
        )
        assert (
            runner.invoke(main, ["build", "2", "2", "-o", str(csv_file), "--format", "csv"]).exit_code
            == 0
        )
        assert runner.invoke(main, ["quadrature", "2", "1", "2", "-o", str(rule_file)]).exit_code == 0
        for path in (design_file, report_file, rule_file):
            text = path.read_text()
            assert dump_json(json.loads(text)) == text
        reparsed = read_design(design_file, 2)
        assert dump_json(reparsed.to_json_dict()) == design_file.read_text()
        reparsed = read_design(csv_file, 2)
        assert design_text(reparsed.points, reparsed.degree, "csv") == csv_file.read_text()

    def test_determinism_byte_identical(self, runner, tmp_path):
        out_a, cache_a = tmp_path / "a.json", tmp_path / "cache_a"
        out_b, cache_b = tmp_path / "b.json", tmp_path / "cache_b"
        for out, cache in [(out_a, cache_a), (out_b, cache_b)]:
            result = runner.invoke(
                main,
                ["build", "3", "3", "-o", str(out), "--report-out", str(out) + ".rep",
                 "--cache-dir", str(cache), "--seed", "0"],
            )
            assert result.exit_code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.json.rep").read_bytes() == (tmp_path / "b.json.rep").read_bytes()

    def test_seed_is_ignored(self, runner, tmp_path):
        outputs = []
        for seed in ("0", "9"):
            design, report = tmp_path / f"d{seed}.json", tmp_path / f"r{seed}.json"
            args = ["build", "3", "3", "-o", str(design), "--report-out", str(report), "--seed", seed]
            assert runner.invoke(main, args).exit_code == 0
            outputs.append((design.read_bytes(), report.read_bytes()))
        assert outputs[0] == outputs[1]


# longer than any file system's 255-byte limit on a name: stat fails with ENAMETOOLONG, even as root
LONG_NAME = "a" * 300 + ".json"


@pytest.mark.parametrize(
    "args,message",
    [
        (["build", "2", "1", "-o", "missing/d.json"], "--output missing/d.json: missing is not a directory"),
        (["build", "2", "1", "--report-out", "missing/r.json"], "--report-out missing/r.json: missing is not a directory"),
        (["quadrature", "2", "1", "1", "-o", "missing/q.json"], "--output missing/q.json: missing is not a directory"),
        (["build", "2", "1", "--cache-dir", "file/cache"], "--cache-dir file/cache: Not a directory"),
        # click reads "" as "."
        (["build", "2", "1", "-o", ""], "--output .: exists and is not a regular file"),
        (["build", "2", "1", "-o", "fifo"], "--output fifo: exists and is not a regular file"),
        (["build", "2", "1", "--report-out", "fifo"], "--report-out fifo: exists and is not a regular file"),
        (["quadrature", "2", "1", "1", "-o", "fifo"], "--output fifo: exists and is not a regular file"),
        (["build", "2", "3", "-o", LONG_NAME], f"--output {LONG_NAME}: File name too long"),
        (["build", "2", "3", "--report-out", LONG_NAME], f"--report-out {LONG_NAME}: File name too long"),
        (["quadrature", "2", "1", "3", "-o", LONG_NAME], f"--output {LONG_NAME}: File name too long"),
    ],
    ids=["build-output", "build-report-out", "quadrature-output", "cache-dir-under-file",
         "build-output-empty", "build-output-fifo", "build-report-out-fifo", "quadrature-output-fifo",
         "build-output-long-name", "build-report-out-long-name", "quadrature-output-long-name"],
)
def test_unwritable_path_exits_2_before_solving(runner, tmp_path, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    os.mkfifo(tmp_path / "fifo")
    monkeypatch.setattr("designforge.construct.solve_equal_weight", None)  # any solve would fail loudly
    assert_input_error(runner.invoke(main, args), message)
    assert stat.S_ISFIFO(os.stat(tmp_path / "fifo").st_mode)  # not replaced by a regular file


@pytest.mark.parametrize(
    "args,option",
    [
        (["build", "2", "3", "-o", "d.json"], "--output"),
        (["build", "2", "3", "--report-out", "d.json"], "--report-out"),
        (["quadrature", "2", "1", "3", "-o", "d.json"], "--output"),
    ],
    ids=["build-output", "build-report-out", "quadrature-output"],
)
def test_write_failing_after_the_solve_exits_2(runner, tmp_path, monkeypatch, args, option):
    def full_disk(path, text):
        assert isinstance(text, str)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("designforge.cli.atomic_write_text", full_disk)
    assert_input_error(runner.invoke(main, args), f"{option} d.json: No space left on device")


@pytest.mark.parametrize(
    "error,text",
    [
        (CacheWriteError, "cannot write cache entry e.json: Read-only file system"),
        (OverflowError, "the mass of the weight does not fit in a float64"),
        (MemoryError, None),
    ],
    ids=["cache-write", "overflow", "bare-memory"],
)
@pytest.mark.parametrize(
    "args,library_call",
    [
        (["build", "2", "3"], "certify_build"),
        (["quadrature", "2", "1", "3"], "solve_cached"),
        (["verify", "d.csv", "-t", "1"], "verify_design"),
        (["bounds", "2", "3", "--cache-dir", "."], "certify_plan"),
    ],
    ids=["build", "quadrature", "verify", "bounds"],
)
def test_library_input_errors_are_one_line_for_every_command(runner, tmp_path, monkeypatch, args, library_call, error, text):
    def fail(*args, **kwargs):
        raise error(text) if text else error()

    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.csv").write_text("1,0\n-1,0\n")
    monkeypatch.setattr(f"designforge.cli.{library_call}", fail)
    result = runner.invoke(main, args)
    assert_input_error(result, text or "MemoryError")
    assert result.output.removeprefix("Error:").strip()


@pytest.mark.parametrize(
    "args,message",
    [
        (["verify", "missing.json", "-t", "1"], "File 'missing.json' does not exist"),
        (["build", "two", "3"], "'two' is not a valid integer"),
        (["build", "2", "3", "--format", "xml"], "'xml' is not one of"),
        (["build", "2", "3", "-o", "dir"], "File 'dir' is a directory"),
        (["build", "2", "3", "--cache-dir", "file"], "Directory 'file' is a file"),
    ],
    ids=["verify-missing-file", "build-non-integer", "build-bad-format", "build-output-dir", "build-cache-dir-file"],
)
def test_click_parameter_error_is_one_line(runner, tmp_path, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    assert_input_error(runner.invoke(main, args), message)


@pytest.mark.parametrize(
    "args,message",
    [
        (["build", "-1", "3"], "invalid plan: sphere dimension must be >= 1, got -1"),
        (["build", "2", "-1"], "invalid plan: degree must be >= 0, got -1"),
        (["quadrature", "-1", "1", "2"], "M must be >= 1, got -1"),
        (["build", "2", "3", "--bogus"], "--bogus"),
        (["bounds", "2", "-3"], "T_MAX must be >= 0, got -3"),
    ],
    ids=[
        "build-negative-dim", "build-negative-degree", "quadrature-negative-m", "build-unknown-option",
        "bounds-negative-t-max",
    ],
)
def test_negative_number_reaches_range_check(runner, args, message):
    assert_input_error(runner.invoke(main, args), message)


@pytest.mark.parametrize(
    "args",
    [["build", "2", "3", "--bogus", "1"], ["build", "--bogus", "2", "3"], ["bounds", "2", "-3", "--bogus"]],
    ids=["build-after-arguments", "build-before-arguments", "bounds-after-negative"],
)
def test_unknown_option_is_named_as_click_names_it(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.output == f"Error: {click.NoSuchOption('--bogus').format_message()}\n"


def per_value_rows(points, open_row, between, close_row, row_sep, exact=False):
    """What `_format_rows` writes, from `per_value_text`'s 17g or hex cells."""
    rows = per_value_text(points, exact)
    return row_sep.join(open_row + between.join(row) + close_row for row in rows)


def per_value_csv(design):
    """A CSV design as the per-value writer made it: 17g cells joined by "," and newlines."""
    return per_value_rows(design.points, "", ",", "", "\n") + "\n"


@st.composite
def repetitive_tables(draw):
    """float64 tables drawn from a few values: any float, NaN (any payload or
    sign), ±inf, ±0 and subnormals, repeated in cells and in whole rows."""
    special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, np.inf, -np.inf, np.nan])
    any_bits = st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64)))
    pool = draw(st.lists(st.floats(allow_subnormal=True) | special | any_bits, min_size=1, max_size=8))
    rows, dim = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    cells = draw(st.lists(st.sampled_from(pool), min_size=rows * dim, max_size=rows * dim))
    table = np.array(cells, dtype=np.float64).reshape(rows, dim)
    order = draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=2 * rows))
    return table[order]


class TestDesignWriters:
    """The row-template writers against json.dumps and the per-value 17g text."""

    @pytest.fixture(params=["s0", "s1", (2, 14), (4, 6), (5, 4), "edge", "distinct"])
    def design(self, request, built):
        if request.param == "s0":
            return base_s0(3)
        if request.param == "s1":
            return base_s1(5, phase=0.3)
        if request.param == "edge":  # a -0.0, a subnormal and the smallest normal
            points = np.array([[-0.0, 1.0, 5e-324], [0.0, -1.0, 0.0], [1.0, 0.0, -2.2250738585072014e-308]])
            return Design(ambient_dim=3, degree=1, points=points)
        if request.param == "distinct":  # random unit vectors: no coordinate repeats
            points = np.random.default_rng(16).standard_normal((300, 4))
            points /= np.linalg.norm(points, axis=1, keepdims=True)
            assert np.unique(points).size == points.size
            return Design(ambient_dim=4, degree=1, points=points)
        return built(*request.param)[0]

    @given(repetitive_tables())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_rows_are_per_value_text(self, table):
        for layout in (_JSON_ROW, ("", ",", "", "\n")):
            for exact in (False, True):
                assert _format_rows(table, *layout, exact=exact) == per_value_rows(table, *layout, exact=exact)

    @given(repetitive_tables())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_encode_floats_is_per_value_text(self, table):
        for values in (table, table[0], table.astype(np.longdouble)):
            assert encode_floats("x", values) == {"x": per_value_text(values), "x_hex": per_value_text(values, exact=True)}

    def test_json_is_dump_json_text(self, design):
        text = design_text(design.points, design.degree)
        assert dump_json(json.loads(text)) == text
        assert design.to_json_dict() == json.loads(text)

    def test_csv_is_per_value_text(self, design):
        assert design_text(design.points, design.degree, "csv") == per_value_csv(design)

    def test_percent_17g_is_format_17g(self):
        rng = np.random.default_rng(15)
        values = np.concatenate([
            rng.standard_normal(50_000),
            rng.standard_normal(50_000) * 10.0 ** rng.integers(-300, 300, 50_000),
            rng.integers(1, 2**52, 50_000, dtype=np.uint64).view(np.float64),  # subnormals
            rng.integers(0, 2**64, 50_000, dtype=np.uint64).view(np.float64),  # any bits: inf, nan too
            [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
        ]).tolist()
        assert ["%.17g" % v for v in values] == ["{:.17g}".format(v) for v in values]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_written_design_verifies(self, runner, tmp_path, built, fmt):
        path = tmp_path / f"d.{fmt}"
        assert runner.invoke(main, ["build", "4", "6", "-o", str(path), "--format", fmt]).exit_code == 0
        result = runner.invoke(main, ["verify", str(path), "-t", "6"])
        assert result.exit_code == 0, result.output
        points = built(4, 6)[0].points.astype(np.float64)
        assert np.array_equal(read_design(path, 6).points.astype(np.float64), points)


class TestRuleWriter:
    """`rule_text`'s template against json's encoder over the rule's fields."""

    def test_every_small_rule(self):
        for m in range(1, 5):
            for n in range(1, 5):
                for t in range(13):
                    rule, _ = solve_equal_weight(JacobiWeight(m, n), t)
                    assert rule_text(rule) == rule_text_encoded(rule), (m, n, t)

    def test_best_effort_rule(self):
        with pytest.raises(NoConvergenceError) as excinfo:
            solve_equal_weight(JacobiWeight(2, 1), 7, SolverOptions(max_K=10))
        rule = excinfo.value.best
        assert rule.K == 10 and not rule.certified
        assert rule_text(rule) == rule_text_encoded(rule)
        assert '"certified": false' in rule_text(rule)

    def test_never_certified_rule(self):
        rule = Quadrature(weight=JacobiWeight(3, 2), degree=3, nodes=np.array([-0.0, 0.5, -1.0]))
        assert math.isnan(rule.max_abs_residual)
        assert rule_text(rule) == rule_text_encoded(rule)
        assert '"max_abs_residual": NaN' in rule_text(rule)


@st.composite
def split_rows(draw):
    """The two halves of a product's rows, (K, M, m) and (K, N, n), drawn from `repetitive_tables`."""
    K, M, N = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    halves = []
    for count in (M, N):
        table = draw(repetitive_tables())
        rows = np.resize(table, (K * count, table.shape[1]))
        halves.append(rows.reshape(K, count, -1))
    return halves


class TestFactoredWriter:
    """`build -o` writes a product root's rows from its two factors, never
    forming its points, with the bytes of the library's formed design."""

    @given(split_rows())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_rows_are_the_joined_halves_text(self, halves):
        left, right = halves
        (K, M, m), N = left.shape, right.shape[1]
        joined = np.concatenate([np.repeat(left, N, axis=1), np.tile(right, (1, M, 1))], axis=2).reshape(K * M * N, -1)
        for layout in (_JSON_ROW, ("", ",", "", "\n")):
            for exact in (False, True):
                assert _format_product_rows(left, right, *layout, exact=exact) == _format_rows(joined, *layout, exact=exact)

    @pytest.mark.parametrize(
        "n,t,extra",
        [(1, 5, []), (4, 6, []), (5, 4, ["--plan", "plan.json"]), (7, 4, []), (4, 0, []), (4, 1, []),
         (3, 5, ["--phase", "0.7"])],
        ids=["leaf-root", "s4-t6", "s5-t4-plan-4-2", "s7-t4", "t0", "t1", "phase"],
    )
    def test_file_is_the_formed_designs_text(self, runner, tmp_path, monkeypatch, n, t, extra):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "plan.json").write_text('{"6": [4, 2]}')
        overrides = {6: (4, 2)} if "--plan" in extra else None
        design, _ = build(plan(n, t, overrides), phase=0.7 if "--phase" in extra else 0.0)
        for fmt in ("json", "csv"):
            result = runner.invoke(main, ["build", str(n), str(t), *extra, "--format", fmt, "-o", f"d.{fmt}"])
            assert result.exit_code == 0, result.output
            assert (tmp_path / f"d.{fmt}").read_text() == design_text(design.points, design.degree, fmt)

    def test_build_without_output_forms_no_points(self, runner, monkeypatch):
        def product(*args):
            raise AssertionError("product was called")

        monkeypatch.setattr(construct, "product", product)
        result = runner.invoke(main, ["build", "5", "4"])
        assert result.exit_code == 0
        assert result.output == "S^5 degree 4: 800 points (lower bound 27), max residual 1.388e-17\n"

    def test_moved_scale_is_refused_on_the_written_rows(self, runner, tmp_path, monkeypatch):
        # S^2 = S^1 x S^0: the root's rows are written from the leaves, never formed;
        # a scale 1e-9 off still certifies at 1e-9 but leaves its rows off the sphere
        real = construct._scales_of

        def moved(rule):
            scales = real(rule).copy()
            scales[0, 0] += 1e-9
            return scales

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(construct, "_scales_of", moved)
        result = runner.invoke(main, ["build", "2", "4", "-o", "d.json"])
        assert isinstance(result.exception, ValueError)
        assert str(result.exception).startswith("points must have unit norm within 1e-12")
        assert not (tmp_path / "d.json").exists()


class TestReportLayout:
    """Key order of the report files; `to_json_dict` writes them in this order."""

    NODE = ["path", "ambient_dim", "kind", "cardinality", "verify_method", "verify_residual"]
    PRODUCT = ["m", "n", "K", "M", "N", "quad_residual"]

    def test_build_report_keys(self):
        _, report = build(plan(2, 3))
        data = report.to_json_dict()
        assert list(data) == [
            "sphere_dim", "degree", "total_points", "exponent", "dgs_lower_bound", "max_residual", "passed", "tree"
        ]
        root = data["tree"]
        assert list(root) == self.NODE + self.PRODUCT + ["children"]
        assert [child["kind"] for child in root["children"]] == ["s1", "s0"]
        for leaf in root["children"]:
            assert list(leaf) == self.NODE + ["children"]
            assert leaf["children"] == []

    def test_verification_report_keys(self):
        head = ["method", "degree_checked", "max_abs_residual", "passed", "tolerance"]
        plain = VerificationReport(method="monomial", degree_checked=2, max_abs_residual=0.0, passed=True, tolerance=1e-9)
        assert list(plain.to_json_dict()) == head
        worst = VerificationReport(
            method="monomial", degree_checked=2, max_abs_residual=0.0, passed=True, tolerance=1e-9,
            worst_monomial=MultiIndex((2, 0)), worst_degree=1,
        )
        data = worst.to_json_dict()
        assert list(data) == head + ["worst_monomial", "worst_degree"]
        assert data["worst_monomial"] == [2, 0]


class TestVerifyCommand:
    @pytest.fixture
    def s2_design_file(self, runner, tmp_path):
        out = tmp_path / "s2.json"
        assert runner.invoke(main, ["build", "2", "1", "-o", str(out)]).exit_code == 0
        return out

    def test_pass_at_built_degree(self, runner, s2_design_file):
        result = runner.invoke(main, ["verify", str(s2_design_file), "-t", "1"])
        assert result.exit_code == 0

    def test_negative_degree_exits_2(self, runner, s2_design_file):
        result = runner.invoke(main, ["verify", str(s2_design_file), "-t", "-1"])
        assert_input_error(result, "degree must be >= 0")

    def test_fail_above_built_degree(self, runner, s2_design_file):
        # the 4-point set averages x^2 to 2/3, not 1/3
        result = runner.invoke(main, ["verify", str(s2_design_file), "-t", "2"])
        assert result.exit_code == 1

    def test_fewer_points_than_the_dgs_bound_exits_1_before_certifying(self, runner, tmp_path):
        # the certificate used to walk every monomial up to degree 1000 here and report an infinite residual
        two = tmp_path / "two.csv"
        two.write_text("1,0\n-1,0\n")
        start = time.perf_counter()
        result = runner.invoke(main, ["verify", str(two), "-t", "1000", "--format", "json"])
        assert time.perf_counter() - start < 1
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [
            "2 points cannot form a degree-1000 design on S^1, which needs at least 1001 (Delsarte-Goethals-Seidel)"
        ]
        assert result.stdout == ""

    def test_as_many_points_as_the_dgs_bound_are_certified(self, runner, tmp_path):
        # the 85-gon at degree 84 has N = lower_bound(1, 84) = 85: both reports are read
        gon = tmp_path / "gon.csv"
        gon.write_text(design_text(base_s1(84).points, 84, "csv"))
        result = runner.invoke(main, ["verify", str(gon), "-t", "84"])
        assert [line.split(",")[0] for line in result.stdout.splitlines()] == [
            "monomial: degree 84", "gegenbauer: degree 84"
        ]

    def test_both_methods_json_serializable(self, runner, s2_design_file):
        result = runner.invoke(
            main, ["verify", str(s2_design_file), "-t", "1", "--format", "json"]
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert [r["method"] for r in data] == ["monomial", "gegenbauer"]
        assert all(isinstance(r["passed"], bool) for r in data)
        assert "worst_degree" in data[1]

    def test_accepts_plain_numeric_json(self, runner, tmp_path):
        # hand-authored file: numbers instead of strings, no hex fields
        hand = tmp_path / "hand.json"
        hand.write_text(
            json.dumps(
                {
                    "ambient_dim": 2,
                    "degree": 1,
                    "count": 2,
                    "points": [[1.0, 0.0], [-1.0, 0.0]],
                }
            )
        )
        result = runner.invoke(main, ["verify", str(hand), "-t", "1"])
        assert result.exit_code == 0

    def test_empty_file_is_parse_error(self, runner, tmp_path):
        bad = tmp_path / "empty.json"
        bad.write_text("")
        result = runner.invoke(main, ["verify", str(bad), "-t", "1"])
        assert result.exit_code == 2

    def test_malformed_json_reports_location(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"ambient_dim": 2,\n  "points": [[}')
        result = runner.invoke(main, ["verify", str(bad), "-t", "1"])
        assert result.exit_code == 2
        assert "line 2" in result.output

    def test_non_utf8_file_is_parse_error(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe1,0\n")
        result = runner.invoke(main, ["verify", str(bad), "-t", "1"])
        assert result.exit_code == 2
        assert "not UTF-8" in result.output

    def test_nan_points_are_parse_error(self, runner, tmp_path):
        # NaN compares false with every bound, so such a file used to pass as a design
        bad = tmp_path / "bad.csv"
        bad.write_text("nan,nan\nnan,nan\n")
        assert_input_error(runner.invoke(main, ["verify", str(bad), "-t", "3"]), "unit norm")

    def test_malformed_csv_reports_line(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,0.0\noops,0.0\n")
        result = runner.invoke(main, ["verify", str(bad), "-t", "1"])
        assert result.exit_code == 2
        assert "line 2" in result.output

    def test_ragged_csv_reports_line_and_width(self, runner, tmp_path):
        bad = tmp_path / "ragged.csv"
        bad.write_text("1,0\n0,1,0\n")
        result = runner.invoke(main, ["verify", str(bad), "-t", "1"])
        assert_input_error(result, "ragged.csv at line 2: 3 values, expected 2")

    @pytest.mark.parametrize(
        "text",
        [
            '{"ambient_dim": 2, "degree": %s, "count": 2, "points": [[1, 0], [-1, 0]]}' % LONG_INT,
            DEEP,
            '{"ambient_dim": 2, "degree": 1, "count": 2, "points": %s}' % nested(900, '"1"'),
        ],
        ids=["5000-digit-degree", "100000-deep", "points-900-deep"],
    )
    def test_json_past_the_parser_limits_is_parse_error(self, runner, tmp_path, text):
        bad = tmp_path / "d.json"
        bad.write_text(text)
        assert_input_error(runner.invoke(main, ["verify", str(bad), "-t", "2"]), f"parse error in {bad}: ")

    def test_json_missing_field_is_named(self, runner, tmp_path):
        bad = tmp_path / "d.json"
        bad.write_text(json.dumps({"ambient_dim": 3, "count": 1, "points": [[1.0, 0.0, 0.0]]}))
        result = runner.invoke(main, ["verify", str(bad), "-t", "1"])
        assert_input_error(result, "d.json: missing field 'degree'")

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"points": [[1, 0], "01"]}, "points[1]: expected a list of numbers, got a string"),
            ({"ambient_dim": 1, "count": 1, "points": "1"}, "points: expected a list of numbers, got a string"),
            ({"points_hex": "0x1p+0"}, "points_hex: expected a list of numbers, got a string"),
            ({"ambient_dim": 2.7}, "ambient_dim must be an integer, got 2.7"),
            ({"degree": "1"}, 'degree must be an integer, got "1"'),
            ({"count": True}, "count must be an integer, got true"),
            # each of these used to print numpy's or Python's own text
            ({"points": [["1", "0"], ["-1"]]}, "points[1]: 1 values, expected 2"),
            ({"points": 5}, "points: expected a list of numbers, got 5"),
            ({"points": {"a": 1}}, "points: expected a list of numbers, got an object"),
            ({"points_hex": None}, "points_hex: expected a list of numbers, got null"),
            ({"points": [[1, 0], [[1], 0]]}, "points[1]: expected a number, got a list nested inside"),
            ({"points": [[1, 0], [-1, [0]]]}, "points[1]: expected a number, got a list"),
            ({"points": [[1, 0], 5]}, "points[1]: expected a list of numbers, got 5"),
            # read as 1.0 without a word, though the header fields refuse a bool
            ({"points": [[True, 0], [-1, 0]]}, "points[0]: expected a number, got true"),
            # float.fromhex's own text: "bad argument type for built-in operation"
            ({"points_hex": [["0x1p+0", "0x0p+0"], ["-0x1p+0", 5]]}, "points_hex[1]: expected a hex string, got 5"),
            # float()'s OverflowError, once one line naming neither the file nor the row
            ({"points": [[1, 0], [10**400, 0]]}, "points[1]: int too large to convert to float"),
        ],
        ids=["string-row", "string-points", "string-hex", "float-dim", "string-degree", "bool-count", "ragged-rows",
             "number-points", "object-points", "null-hex", "list-then-number", "number-then-list", "number-row",
             "bool-coordinate", "number-in-hex-row", "integer-past-a-double"],
    )
    def test_json_field_of_wrong_type_is_parse_error(self, runner, tmp_path, fields, message):
        bad = tmp_path / "d.json"
        bad.write_text(json.dumps({"ambient_dim": 2, "degree": 1, "count": 2, "points": [[1, 0], [-1, 0]], **fields}))
        result = runner.invoke(main, ["verify", str(bad), "-t", "1"])
        assert_input_error(result, f"d.json: {message}")

    def test_points_nested_three_deep_are_parse_error(self, runner, tmp_path):
        # once read as shape (1, 2, 1) and refused by Design's shape check; points are rows of numbers
        bad = tmp_path / "d.json"
        bad.write_text(json.dumps({"ambient_dim": 2, "degree": 1, "count": 1, "points": [[[1], [0]]]}))
        result = runner.invoke(main, ["verify", str(bad), "-t", "1"])
        assert_input_error(result, "d.json: points[0]: expected a number, got a list nested inside")

    @pytest.mark.parametrize("text", ["[]", ' [[1.0, 0.0], [-1.0, 0.0]]\n'])
    def test_json_array_is_not_read_as_csv(self, runner, tmp_path, text):
        bad = tmp_path / "a.json"
        bad.write_text(text)
        result = runner.invoke(main, ["verify", str(bad), "-t", "1"])
        assert_input_error(result, "a.json: a JSON design must be an object, got list")

    def test_env_var_sets_cache_and_flag_wins(self, runner, tmp_path):
        env_cache = tmp_path / "envcache"
        flag_cache = tmp_path / "flagcache"
        result = runner.invoke(
            main,
            ["quadrature", "2", "2", "1"],
            env={"DESIGNFORGE_CACHE": str(env_cache)},
        )
        assert result.exit_code == 0
        assert (env_cache / "quadratures").exists()
        result = runner.invoke(
            main,
            ["quadrature", "2", "2", "2", "--cache-dir", str(flag_cache)],
            env={"DESIGNFORGE_CACHE": str(env_cache)},
        )
        assert result.exit_code == 0
        assert list((flag_cache / "quadratures").glob("*t2*"))
        assert not list((env_cache / "quadratures").glob("*t2*"))
