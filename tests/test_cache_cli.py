"""Disk cache semantics, file formats, CLI behavior, and determinism."""
import json
import os
import sys
import threading

import numpy as np
import pytest
from click.testing import CliRunner

from designforge import (
    InMemoryQuadratureCache,
    JacobiWeight,
    MultiIndex,
    Quadrature,
    VerificationReport,
    build,
    certify,
    plan,
    solve_equal_weight,
)
from designforge.cache import QuadratureCache, atomic_write_text, build_key, key, read_build_index
from designforge.cli import main


@pytest.fixture
def runner():
    return CliRunner()


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

    def test_build_index(self, tmp_path):
        cache = QuadratureCache(tmp_path)
        assert build_key(2, 3) not in read_build_index(tmp_path)
        cache.record_build(2, 3, 24)
        assert read_build_index(tmp_path)[build_key(2, 3)] == 24

    def test_concurrent_record_build_keeps_every_entry(self, tmp_path):
        # an unlocked read-modify-write lets one recorder overwrite another's entry
        cache = QuadratureCache(tmp_path)
        recorders, rounds = 8, 25
        start = threading.Barrier(recorders)
        errors = []

        def record(n):
            try:
                start.wait()
                for t in range(1, rounds + 1):
                    cache.record_build(n, t, 100 * n + t)
            except Exception as exc:  # noqa: BLE001 - collected and asserted below
                errors.append(exc)

        threads = [threading.Thread(target=record, args=(n,), daemon=True) for n in range(1, recorders + 1)]
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
        index = read_build_index(tmp_path)
        for n in range(1, recorders + 1):
            for t in range(1, rounds + 1):
                assert index.get(build_key(n, t)) == 100 * n + t, (n, t)


class TestAtomicWrite:
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

    def test_bounds_creates_no_directory(self, runner, tmp_path):
        cache_dir = tmp_path / "newdir"
        result = runner.invoke(main, ["bounds", "2", "2", "--cache-dir", str(cache_dir)])
        assert result.exit_code == 0, result.output
        assert not cache_dir.exists()


@pytest.mark.parametrize("content", ["[]", '{"n2_t1": "x"}'])
class TestCorruptBuildIndex:
    """Valid JSON that is not an object of integers is a corrupt index."""

    def test_bounds_warns_and_shows_no_size(self, runner, tmp_path, content):
        (tmp_path / "builds.json").write_text(content)
        with pytest.warns(UserWarning, match="corrupt build index"):
            result = runner.invoke(main, ["bounds", "2", "2", "--format", "json", "--cache-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert [row["achieved"] for row in json.loads(result.output)["rows"]] == [None, None]

    def test_build_writes_outputs_and_a_fresh_index(self, runner, tmp_path, content):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "builds.json").write_text(content)
        out, report = tmp_path / "d.json", tmp_path / "r.json"
        args = ["build", "2", "1", "--cache-dir", str(cache_dir), "-o", str(out), "--report-out", str(report)]
        with pytest.warns(UserWarning, match="corrupt build index"):
            result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["degree"] == 1
        total = json.loads(report.read_text())["total_points"]
        assert json.loads((cache_dir / "builds.json").read_text()) == {"n2_t1": total}


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

    def test_no_convergence_nonzero_exit_and_best_effort_file(self, runner, tmp_path):
        out = tmp_path / "q.json"
        result = runner.invoke(
            main,
            ["quadrature", "2", "1", "6", "-o", str(out), "--max-k", "5", "--max-iter", "60"],
        )
        assert result.exit_code == 1
        data = json.loads(out.read_text())
        assert data["certified"] is False

    def test_degree_zero(self, runner):
        result = runner.invoke(main, ["quadrature", "3", "2", "0"])
        assert result.exit_code == 0 and "K=1" in result.output

    def test_factor_dim_zero_exits_2(self, runner):
        assert_input_error(runner.invoke(main, ["quadrature", "0", "2", "3"]), "M must be >= 1")


@pytest.mark.parametrize(
    "args,message",
    [
        (["build", "2", "3", "--tol-quad", "inf"], "--tol-quad must be a finite number > 0"),
        (["build", "2", "3", "--tol-quad", "nan"], "--tol-quad must be a finite number > 0"),
        (["quadrature", "2", "1", "3", "--tol-quad", "inf"], "--tol-quad must be a finite number > 0"),
        (["build", "2", "3", "--tol-design", "-1"], "--tol-design must be a finite number > 0"),
        (["build", "2", "3", "--max-iter", "-1"], "--max-iter must be >= 1"),
        (["quadrature", "2", "1", "3", "--max-k", "0"], "--max-k must be >= 1"),
        (["build", "2", "3", "--phase", "inf"], "--phase must be a finite number"),
    ],
    ids=["build-tol-quad-inf", "build-tol-quad-nan", "quadrature-tol-quad-inf", "build-tol-design-negative",
         "build-max-iter-negative", "quadrature-max-k-zero", "build-phase-inf"],
)
def test_bad_solver_or_tolerance_option_exits_2(runner, args, message):
    assert_input_error(runner.invoke(main, args), message)


class TestBuildCommand:
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
        ],
        ids=["malformed-json", "bad-sum", "non-integer", "non-pair", "not-utf8", "ambient-2", "unreached"],
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
        from designforge.cache import dump_json
        from designforge.cli import _design_csv, _load_design

        for path in (design_file, report_file):
            text = path.read_text()
            assert dump_json(json.loads(text)) == text
        design_text = design_file.read_text()
        reparsed = _load_design(design_file, 2)
        assert dump_json(reparsed.to_json_dict()) == design_text
        csv_text = csv_file.read_text()
        assert _design_csv(_load_design(csv_file, 2)) == csv_text

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


@pytest.mark.parametrize(
    "args,message",
    [
        (["build", "2", "1", "-o", "missing/d.json"], "--output missing/d.json: missing is not a directory"),
        (["build", "2", "1", "--report-out", "missing/r.json"], "--report-out missing/r.json: missing is not a directory"),
        (["quadrature", "2", "1", "1", "-o", "missing/q.json"], "--output missing/q.json: missing is not a directory"),
        (["build", "2", "1", "--cache-dir", "file/cache"], "--cache-dir file/cache: Not a directory"),
    ],
    ids=["build-output", "build-report-out", "quadrature-output", "cache-dir-under-file"],
)
def test_unwritable_path_exits_2_before_solving(runner, tmp_path, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    monkeypatch.setattr("designforge.construct.solve_equal_weight", None)  # any solve would fail loudly
    assert_input_error(runner.invoke(main, args), message)


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
    ],
    ids=["build-negative-dim", "build-negative-degree", "quadrature-negative-m", "build-unknown-option"],
)
def test_negative_number_reaches_range_check(runner, args, message):
    assert_input_error(runner.invoke(main, args), message)


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

    def test_gegenbauer_on_ambient_one_exits_2(self, runner, tmp_path):
        pair = tmp_path / "pair.csv"
        pair.write_text("1.0\n-1.0\n")
        result = runner.invoke(main, ["verify", str(pair), "-t", "1", "--method", "gegenbauer"])
        assert_input_error(result, "needs ambient dimension >= 2")

    def test_fail_above_built_degree(self, runner, s2_design_file):
        # the 4-point set averages x^2 to 2/3, not 1/3
        result = runner.invoke(main, ["verify", str(s2_design_file), "-t", "2"])
        assert result.exit_code == 1

    def test_method_selection_and_json(self, runner, s2_design_file):
        result = runner.invoke(
            main,
            ["verify", str(s2_design_file), "-t", "1", "--method", "monomial", "--format", "json"],
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert [r["method"] for r in data] == ["monomial"]

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
