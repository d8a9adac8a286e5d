"""Every file designforge writes or reads, each type with one writer and one reader:
design JSON and CSV (`design_text`, `read_design`), the build report
(`report_text`; nothing reads one back yet), rule files of the cache and of
`quadrature -o` (`rule_text`, `rule_from_json`) and --plan files (written by
hand, `read_plan`).  `float_text` writes every double, in "%.17g" text, which
round-trips it, or in float.hex text; a JSON file carries each float field
in both, the hex under field + "_hex", which readers take when present.
`decode_floats` reads a field in one of two shapes, picked by the file
type's reader: a rule's nodes are a flat list and a design's points a list
of rows of equal length; a fault names the field, and in a table the row.
JSON is laid out as json.dumps(indent=2) lays it out, plus a newline; design
and rule files are written from a template of that layout, not by the
encoder.  No file carries a timestamp or environment data, and
`atomic_write_text` writes each one whole or not at all.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
from pathlib import Path

import numpy as np

from .moments import JacobiWeight
from .quadrature import Quadrature


class ParseError(Exception):
    """A design or --plan file that is not of its format; its one line names the file."""


def _shown(value) -> str:  # a JSON value in a message: a list, an object or a string by its kind
    return {list: "a list", dict: "an object", str: "a string"}.get(type(value)) or json.dumps(value)


def _number(value) -> float:
    if isinstance(value, bool):  # float reads true as 1
        raise TypeError
    return float(value)


def float_text(values, exact: bool = False) -> np.ndarray:
    """`values` as float64, each cell "%.17g" text (round-trips a double) or, if
    exact, float.hex text, in an object array of their shape.  Each distinct
    bit pattern is formatted once, so -0.0 and 0.0 stay apart."""
    floats = np.asarray(values).astype(np.float64)
    bits, cells = np.unique(floats.view(np.uint64), return_inverse=True)
    distinct = bits.view(np.float64).tolist()
    text = np.array(list(map(float.hex, distinct)) if exact else ["%.17g" % v for v in distinct], dtype=object)
    return text[cells].reshape(floats.shape)


def _listed(values, place: str) -> list:
    if not isinstance(values, list):  # a string would map over its characters
        raise ValueError(f"{place}: expected a list of numbers, got {_shown(values)}")
    return values


def _floats(values, place: str, exact: bool) -> list[float]:
    """The JSON list `values` at `place`, by one map of float.fromhex if exact
    or of `_number`.  A fault is a ValueError naming the place; the first cell
    of the wrong type is looked for only once the map has failed."""
    cells = _listed(values, place)
    try:
        return list(map(float.fromhex if exact else _number, cells))
    except TypeError:
        bad = next(v for v in cells if isinstance(v, bool) or not isinstance(v, str if exact else (str, int, float)))
        got = "a list nested inside" if isinstance(bad, list) else _shown(bad)
        raise ValueError(f"{place}: expected {'a hex string' if exact else 'a number'}, got {got}") from None
    except (ValueError, OverflowError) as exc:  # OverflowError: an integer past a double's range
        raise ValueError(f"{place}: {exc}") from None


def decode_floats(data: dict, field: str, rows: bool = False) -> np.ndarray:
    """The float64 array written in `float_text`'s two texts under `field` and
    field + "_hex", read from the hex when present: a flat list, or if `rows`
    a list of rows of equal length.  A fault is a ValueError naming the
    field, and in a table the row."""
    exact = field + "_hex" in data
    name = field + "_hex" if exact else field
    if not rows:
        return np.array(_floats(data[name], name, exact), dtype=np.float64)
    table = []
    for i, row in enumerate(_listed(data[name], name)):
        table.append(_floats(row, f"{name}[{i}]", exact))
        if len(row) != len(table[0]):
            raise ValueError(f"{name}[{i}]: {len(row)} values, expected {len(table[0])}")
    return np.array(table, dtype=np.float64)


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def load_json(text: str | bytes, object_pairs_hook=None):
    """json.loads, with nesting past the decoder's recursion limit a ValueError, like any malformed text."""
    try:
        return json.loads(text, object_pairs_hook=object_pairs_hook)
    except RecursionError:
        raise ValueError("JSON nested deeper than Python's recursion limit") from None


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


def _row_texts(points: np.ndarray, open_row: str, between: str, close_row: str, exact: bool = False) -> list[str]:
    """Each row of `points`: open_row, its `float_text` cells joined by `between`, close_row."""
    row = open_row + between.join(["%s"] * points.shape[1]) + close_row
    return [row % tuple(cells) for cells in float_text(points, exact).tolist()]


def _format_rows(points: np.ndarray, open_row: str, between: str, close_row: str, row_sep: str, exact: bool = False) -> str:
    """`_row_texts` of `points` joined by row_sep."""
    return row_sep.join(_row_texts(points, open_row, between, close_row, exact))


def _format_product_rows(left: np.ndarray, right: np.ndarray, open_row: str, between: str, close_row: str,
                         row_sep: str, exact: bool = False) -> str:
    """`_format_rows` of the rows `product_rows` splits in halves, in (k, i, j)
    order, without forming them: each half is formatted once, and row
    (k, i, j) is the text of left[k, i] followed by that of right[k, j]."""
    (K, M, m), (N, n) = left.shape, right.shape[1:]
    heads = _row_texts(left.reshape(-1, m), open_row, between, between, exact)
    tails = _row_texts(right.reshape(-1, n), "", between, close_row, exact)
    return row_sep.join(head + (row_sep + head).join(tails[k * N:(k + 1) * N])
                        for k in range(K) for head in heads[k * M:(k + 1) * M])


# a row of a JSON design's "points" or "points_hex", as json.dumps(indent=2) lays it out
_JSON_ROW = ('    [\n      "', '",\n      "', '"\n    ]', ",\n")


def design_text(rows, degree: int, fmt: str = "json") -> str:
    """A design file: JSON {ambient_dim, degree, count, points, points_hex},
    each point a list of strings, or CSV, a line of 17g cells joined by ","
    per point.  `rows` is a design's points, or the two halves of a product's
    rows that `construct.product_rows` gives, so that none is formed."""
    if isinstance(rows, tuple):
        (K, M, m), (N, n) = rows[0].shape, rows[1].shape[1:]
        lay_out, count, ambient_dim = functools.partial(_format_product_rows, *rows), K * M * N, m + n
    else:
        lay_out, (count, ambient_dim) = functools.partial(_format_rows, rows), rows.shape
    if fmt == "csv":
        return lay_out("", ",", "", "\n") + "\n"
    return (
        f'{{\n  "ambient_dim": {ambient_dim},\n  "degree": {degree},\n  "count": {count},\n'
        f'  "points": [\n{lay_out(*_JSON_ROW)}\n  ],\n'
        f'  "points_hex": [\n{lay_out(*_JSON_ROW, exact=True)}\n  ]\n}}\n'
    )


def report_text(report) -> str:
    return dump_json(report.to_json_dict())


# a rule's "nodes" or "nodes_hex", as json.dumps(indent=2) lays it out; a rule has at least one node
_JSON_NODES = '[\n    "%s"\n  ]'


def rule_text(q) -> str:
    """A rule file; its residual and certificate are for readers of `quadrature -o`, never read back."""
    nodes, nodes_hex = ('",\n    "'.join(float_text(q.nodes, exact).tolist()) for exact in (False, True))
    return (
        f'{{\n  "m": {q.weight.m},\n  "n": {q.weight.n},\n  "degree": {q.degree},\n  "K": {q.K},\n'
        f'  "nodes": {_JSON_NODES % nodes},\n  "nodes_hex": {_JSON_NODES % nodes_hex},\n'
        f'  "max_abs_residual": {json.dumps(float(q.max_abs_residual))},\n  "certified": {json.dumps(bool(q.certified))}\n}}\n'
    )


def _integers(data: dict, *names: str) -> None:
    for name in names:
        if type(data[name]) is not int:  # also rejects a bool, which is an int to Python
            raise TypeError(f"{name} must be an integer, got {json.dumps(data[name])}")


def rule_from_json(data: dict) -> Quadrature:
    """The rule of a rule file's object, uncertified until `certify` runs."""
    _integers(data, "m", "n", "degree", "K")
    q = Quadrature(
        weight=JacobiWeight(data["m"], data["n"]),
        degree=data["degree"],
        nodes=decode_floats(data, "nodes"),
    )
    if q.K != data["K"]:
        raise ValueError(f"node count {q.K} does not match recorded K={data['K']}")
    return q


def design_from_json(data: dict):
    """The design of a JSON design file's object."""
    from .construct import Design  # which imports this module

    _integers(data, "ambient_dim", "degree", "count")
    points = decode_floats(data, "points", rows=True)
    design = Design(ambient_dim=data["ambient_dim"], degree=data["degree"], points=points)
    if design.count != data["count"]:
        raise ValueError(f"point count {design.count} does not match recorded count={data['count']}")
    return design


@contextlib.contextmanager
def _parsing(path: Path):
    """The block's faults in reading `path` as one ParseError line naming the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ParseError(f"parse error in {path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except KeyError as exc:
        raise ParseError(f"parse error in {path}: missing field {exc}") from None
    except (ValueError, TypeError) as exc:  # also an integer past Python's digit limit, nesting past its recursion limit
        raise ParseError(f"parse error in {path}: {exc}") from None


def read_design(path: Path, degree: int):
    """The design in a JSON or CSV design file; a CSV design is claimed to be of `degree`."""
    from .construct import Design  # which imports this module

    with _parsing(path):
        text = path.read_text()
        if not text.strip():
            raise ValueError("file is empty")
        if text.lstrip().startswith(("{", "[")):
            if not isinstance(data := load_json(text), dict):
                raise ValueError(f"a JSON design must be an object, got {type(data).__name__}")
            return design_from_json(data)
        rows = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                rows.append([float(v) for v in line.split(",")])
                if len(rows[-1]) != len(rows[0]):
                    raise ValueError(f"{len(rows[-1])} values, expected {len(rows[0])}")
            except ValueError as exc:
                raise ParseError(f"parse error in {path} at line {lineno}: {exc}") from None
        if not rows:
            raise ValueError("no data rows")
        return Design(ambient_dim=len(rows[0]), degree=degree, points=np.array(rows))


def _unique_keys(pairs: list) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"key {key!r} appears twice")
        out[key] = value
    return out


def read_plan(path: Path) -> dict[int, tuple[int, int]]:
    """Split overrides from a --plan file: {"<ambient dim>": [m, n], ...}, each
    dim a decimal integer written once ("06", " 6 " and "0_6" would be 6 too)."""
    with _parsing(path):
        raw = load_json(path.read_text(), _unique_keys)
        if not isinstance(raw, dict):
            raise ValueError("expected an object mapping ambient dims to [m, n]")
        overrides = {}
        for key, value in raw.items():
            try:
                dim = int(key)
                if str(dim) != key:
                    raise ValueError
            except ValueError:
                raise ValueError(f"ambient dim {key!r} is not a plain decimal integer") from None
            if not (isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value)):
                raise ValueError(f"split for {key!r} must be an [m, n] integer pair, got {json.dumps(value)}")
            overrides[dim] = (value[0], value[1])
        return overrides
