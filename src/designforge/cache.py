"""Quadrature caches, in memory and on disk, plus a store of achieved build sizes.

There is one lookup path over two stores.  `InMemoryQuadratureCache` holds
the lookup and store logic; `QuadratureCache` is a subclass that changes only
where a rule is kept (`_read`/`_write`: a dict entry or a JSON file).  The
key buckets the tolerance by its decimal exponent, so re-runs at the same
tolerance magnitude reuse solves.  A bucket can hold a rule certified at a
looser tolerance than the one asked for, so every hit is re-certified at the
requested tolerance and served only if it passes; only certified rules are
stored.  Disk writes are atomic (write a unique temp file, then rename) and
idempotent: storing the same key twice leaves one file.  Each achieved build
size is kept the same way, as a bare JSON integer in
<root>/builds/<build_key>.json, so concurrent recorders never share a file
and need no lock; the single-file index builds.json of earlier versions is
not read.  `read_build_index` reads the sizes without creating anything.
Corrupt entries are ignored with a warning and rebuilt.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import secrets
import warnings
from pathlib import Path

from .quadrature import Quadrature, certify


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a temp file unique to this writer, so concurrent writers never
    share one; it is created as open() creates a file, so the current umask applies."""
    tmp = path.parent / f"{path.name}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def key(m: int, n: int, t: int, tol: float) -> str:
    """Cache key of a rule; the on-disk cache stores it as <key>.json."""
    return f"m{m}_n{n}_t{t}_e{round(math.log10(tol))}"


def build_key(n: int, t: int) -> str:
    """Key of a t-design on S^n in the size store."""
    return f"n{n}_t{t}"


def read_build_index(root: Path) -> dict[str, int]:
    """The sizes under <root>/builds, keyed by `build_key`, read only.

    A missing directory reads as empty; a corrupt entry warns and is skipped.
    The writer's temp files end in .tmp, so the glob never reads one.
    """
    index = {}
    for path in sorted((Path(root) / "builds").glob("*.json")):
        try:
            size = json.loads(path.read_text())
        except ValueError:
            size = None
        if type(size) is not int:
            warnings.warn(f"ignoring corrupt build index entry {path}")
            continue
        index[path.stem] = size
    return index


class InMemoryQuadratureCache:
    """Session-local quadrature store, and the lookup path of both caches."""

    def __init__(self):
        self._store: dict[str, Quadrature] = {}

    def _read(self, k: str) -> Quadrature | None:
        return self._store.get(k)

    def _write(self, k: str, q: Quadrature) -> None:
        self._store[k] = q

    def lookup(self, m: int, n: int, t: int, tol: float) -> Quadrature | None:
        """A fresh copy of the kept rule certified at `tol`, or None if none passes.

        The kept `certified` flag and residual are not trusted: they may come
        from a looser tolerance in the same key bucket, or from an edited file.
        """
        q = self._read(key(m, n, t, tol))
        if q is None or (q.weight.m, q.weight.n, q.degree) != (m, n, t):
            return None
        fresh = Quadrature(weight=q.weight, degree=q.degree, nodes=q.nodes)
        certify(fresh, tol)
        return fresh if fresh.certified else None

    def store(self, q: Quadrature) -> None:
        if q.certified:
            self._write(key(q.weight.m, q.weight.n, q.degree, q.tolerance), q)


class QuadratureCache(InMemoryQuadratureCache):
    """Quadratures as <key>.json files under root/quadratures, shared across runs."""

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.quad_dir = self.root / "quadratures"
        self.quad_dir.mkdir(parents=True, exist_ok=True)

    def _read(self, k: str) -> Quadrature | None:
        path = self.quad_dir / (k + ".json")
        if not path.exists():
            return None
        try:
            return Quadrature.from_json_dict(json.loads(path.read_text()))
        except (ValueError, KeyError, TypeError) as exc:
            warnings.warn(f"ignoring corrupt cache entry {path}: {exc}")
            return None

    def _write(self, k: str, q: Quadrature) -> None:
        atomic_write_text(self.quad_dir / (k + ".json"), dump_json(q.to_json_dict()))

    # -- achieved build cardinalities, consumed by the bounds table --------

    def record_build(self, n: int, t: int, cardinality: int) -> None:
        build_dir = self.root / "builds"
        build_dir.mkdir(exist_ok=True)
        atomic_write_text(build_dir / (build_key(n, t) + ".json"), dump_json(cardinality))
