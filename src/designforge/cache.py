"""Quadrature caches, on disk and in memory, plus an index of achieved build sizes.

Both caches use one key, which buckets the tolerance by its decimal exponent,
so re-runs at the same tolerance magnitude reuse solves.  A bucket can hold a
rule certified at a looser tolerance than the one asked for, so every hit is
re-certified at the requested tolerance and served only if it passes.  Disk
writes are atomic (write a unique temp file, then rename) and idempotent:
storing the same key twice leaves one file.  Recording a build holds a file
lock across its read-modify-write of the size index.  Corrupt entries are
ignored with a warning and rebuilt.
"""
from __future__ import annotations

import contextlib
import fcntl
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

from .quadrature import Quadrature, certify


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


# mkstemp creates files 0600; give written files the mode open() would have
_FILE_MODE = 0o666 & ~_umask()


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a temp file unique to this writer, so concurrent writers never share one."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.chmod(tmp, _FILE_MODE)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def recertified(q: Quadrature | None, tol: float) -> Quadrature | None:
    """A fresh copy of a cached rule certified at `tol`, or None if it misses tol.

    The stored `certified` flag and residual are not trusted: they may come
    from a looser tolerance in the same key bucket, or from an edited file.
    """
    if q is None:
        return None
    fresh = Quadrature(weight=q.weight, degree=q.degree, nodes=q.nodes)
    certify(fresh, tol)
    return fresh if fresh.certified else None


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def key(m: int, n: int, t: int, tol: float) -> str:
    """Cache key of a rule; the on-disk cache stores it as <key>.json."""
    return f"m{m}_n{n}_t{t}_e{round(math.log10(tol))}"


class InMemoryQuadratureCache:
    """Session-local quadrature store."""

    def __init__(self):
        self._store: dict[str, Quadrature] = {}

    def lookup(self, m: int, n: int, t: int, tol: float) -> Quadrature | None:
        return recertified(self._store.get(key(m, n, t, tol)), tol)

    def store(self, q: Quadrature) -> None:
        if q.certified:
            self._store[key(q.weight.m, q.weight.n, q.degree, q.tolerance)] = q


class QuadratureCache:
    key = staticmethod(key)

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.quad_dir = self.root / "quadratures"
        self.quad_dir.mkdir(parents=True, exist_ok=True)

    def _path(self, m: int, n: int, t: int, tol: float) -> Path:
        return self.quad_dir / (key(m, n, t, tol) + ".json")

    def lookup(self, m: int, n: int, t: int, tol: float) -> Quadrature | None:
        path = self._path(m, n, t, tol)
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
            q = Quadrature.from_json_dict(data)
        except (ValueError, KeyError, TypeError) as exc:
            warnings.warn(f"ignoring corrupt cache entry {path}: {exc}")
            return None
        if (q.weight.m, q.weight.n, q.degree) != (m, n, t):
            return None
        return recertified(q, tol)

    def store(self, q: Quadrature) -> None:
        if not q.certified:
            return
        path = self._path(q.weight.m, q.weight.n, q.degree, q.tolerance)
        atomic_write_text(path, dump_json(q.to_json_dict()))

    # -- achieved build cardinalities, consumed by the bounds table --------

    @property
    def _builds_path(self) -> Path:
        return self.root / "builds.json"

    def record_build(self, n: int, t: int, cardinality: int) -> None:
        # an exclusive lock on a sidecar file spans the read and the write, so
        # concurrent recorders (threads or processes) never drop each other's entries
        with open(self.root / "builds.json.lock", "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            data = {}
            if self._builds_path.exists():
                try:
                    data = json.loads(self._builds_path.read_text())
                except ValueError:
                    data = {}
            data[f"n{n}_t{t}"] = cardinality
            atomic_write_text(self._builds_path, dump_json(dict(sorted(data.items()))))

    def achieved(self, n: int, t: int) -> int | None:
        if not self._builds_path.exists():
            return None
        try:
            data = json.loads(self._builds_path.read_text())
        except ValueError:
            return None
        value = data.get(f"n{n}_t{t}")
        return int(value) if value is not None else None
