"""Quadrature caches, in memory and on disk.

There is one lookup path over two stores.  `InMemoryQuadratureCache` holds
the lookup and store logic; `QuadratureCache` is a subclass that changes only
where a rule is kept (`_read`/`_write`: a dict entry or a JSON file).  The
key buckets the tolerance by its decimal exponent, so re-runs at the same
tolerance magnitude reuse solves.  A bucket can hold a rule certified at a
looser tolerance than the one asked for, so every hit is re-certified at the
requested tolerance and served only if it passes; only certified rules are
stored.  Disk writes are atomic (write a unique temp file, then rename) and
idempotent: storing the same key twice leaves one file.  Corrupt or
unreadable entries are ignored with a warning and rebuilt; a rule that cannot
be written raises `CacheWriteError`, which names the entry.  No build size is
stored: `bounds` certifies sizes from the cached rules
(`construct.certify_plan`), and the builds/ directory and builds.json of
earlier versions are neither read nor deleted.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import warnings
from pathlib import Path

from .quadrature import Quadrature, certify


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a temp file unique to this writer, so concurrent writers never
    share one; it is created as open() creates a file, so the current umask applies."""
    tmp = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


class CacheWriteError(Exception):
    """A certified rule could not be stored; the message names the entry."""


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def load_json(text: str | bytes, object_pairs_hook=None):
    """json.loads, with nesting deeper than the decoder's recursion limit a
    ValueError, like an integer past Python's digit limit or any malformed text."""
    try:
        return json.loads(text, object_pairs_hook=object_pairs_hook)
    except RecursionError:
        raise ValueError("JSON nested deeper than Python's recursion limit") from None


def key(m: int, n: int, t: int, tol: float) -> str:
    """Cache key of a rule; the on-disk cache stores it as <key>.json."""
    return f"m{m}_n{n}_t{t}_e{round(math.log10(tol))}"


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

        A kept rule may be certified at a looser tolerance in the same key
        bucket, and a rule read from a file carries no certificate at all.
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
        self.quad_dir = Path(root) / "quadratures"
        self.quad_dir.mkdir(parents=True, exist_ok=True)

    def _read(self, k: str) -> Quadrature | None:
        path = self.quad_dir / (k + ".json")
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            warnings.warn(f"ignoring unreadable cache entry {path}: {exc.strerror}")
            return None
        try:
            return Quadrature.from_json_dict(load_json(data))
        except (ValueError, KeyError, TypeError) as exc:
            warnings.warn(f"ignoring corrupt cache entry {path}: {exc}")
            return None

    def _write(self, k: str, q: Quadrature) -> None:
        path = self.quad_dir / (k + ".json")
        try:
            atomic_write_text(path, dump_json(q.to_json_dict()))
        except OSError as exc:
            raise CacheWriteError(f"cannot write cache entry {path}: {exc.strerror}") from exc

