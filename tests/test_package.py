"""The package's public surface."""
import os
import subprocess
import sys
from pathlib import Path

import designforge


def test_star_import_matches_all():
    # an __all__ entry left behind when its definition is deleted breaks `import *`
    namespace = {}
    exec("from designforge import *", namespace)
    for name in designforge.__all__:
        assert hasattr(designforge, name), name
        assert name in namespace, name


def test_runtime_imports_no_scipy():
    # a fresh process, since this session imports scipy for its oracles: a
    # cold default build, then (4, 2) at degree 10, which certifies only from
    # the quantile start, at K=48 (test_quantile_start_certifies_where_gauss_fails);
    # that start reads a table, so it needs no numpy.polynomial either
    code = (
        "import sys\n"
        "from designforge import JacobiWeight, build, plan, solve_equal_weight\n"
        "assert build(plan(4, 6))[1].passed\n"
        "q, _ = solve_equal_weight(JacobiWeight(4, 2), 10)\n"
        "assert q.certified and q.K == 48, q.K\n"
        "print(sorted(name for name in sys.modules if name.partition('.')[0] == 'scipy'))\n"
        "print('numpy.polynomial' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(designforge.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\nFalse\n"


def test_cold_build_loads_no_openssl(tmp_path):
    # a fresh process: the atomic writer's temp names come from os.urandom, so
    # writing a design loads neither `secrets` nor, through hmac, OpenSSL
    code = (
        "import sys\n"
        "from designforge.cli import main\n"
        "try:\n"
        "    main(['build', '4', '6', '-o', sys.argv[1]])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(sorted(name for name in ('_hashlib', 'hmac', 'secrets') if name in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(designforge.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path / "d.json")], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith("[]\n")
    assert (tmp_path / "d.json").is_file()
