"""The dpm-1 JSON mesh format, trace CSV emission, and document generation.

A dpm-1 document is a single JSON object:

    {
      "format": "dpm-1",
      "num_vertices": N,
      "triangles": [[i, j, k], ...],
      "gluings": [[[t, e], [t2, e2]], ...],        # optional if simplicial
      "edge_lengths": [...],                        # exactly one of these
      "inversive_distances": [...],                 #   two arrays
      "radii": [...],
      "conformal_factors": [...],                   # optional, default zeros
      "target_curvature": [...]                     # optional
    }

Edge arrays follow edge ids: the order of the gluings list when present,
first-encounter order of the inferred matching otherwise.  Numbers are
written with 17 significant digits, so emit -> parse is bit-exact and
parse -> emit is a fixed point.  Supplying inversive distances demands
every value > 1 (the packing hypothesis on initial data); edge lengths
carry no such restriction.

Both directions work on whole arrays.  Parsing reads the triangles and
gluings straight from the text into int64 arrays, with a few whole-array
passes over the bytes (``_read_int_rows``), and ``json.loads`` reads only
the skeleton left with a marker string where each stood; each number
array is converted from that tree with one ``np.array`` call.  The text
reader only recognises input.  On anything else (a backslash or a
non-ASCII byte, an id with a sign, a leading zero or more than 18
digits, a malformed block, a duplicate key) the whole text goes to
``json.loads`` and the int rows are checked with one flat pass per
nesting level, so every error, with its message and position, comes
from that path.  Emission writes each block (triangles, gluings, each
number array) through one ``%`` template, and ``"%.17g" % x`` is
``format(x, ".17g")``; the template layout is fixed.  A parsed complex
keeps the text of the triangles and gluings blocks read from the text
(``DeltaComplex.text_blocks``), which a flip drops; emission writes
the blocks it keeps back as they were read.  Input the JSON reader itself
refuses (an integer literal of more digits than the interpreter
converts, nesting past its recursion limit) raises DpmSyntaxError, and an
integer beyond the float range in a number array raises SchemaError.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain
from typing import IO

import numpy as np

from .errors import (
    DpmSyntaxError,
    InvalidInversiveDistance,
    SchemaError,
)
from .mesh import DeltaComplex, build_complex, infer_gluings
from .metric import DecoratedMetric, lengths_from_inversive
from .presets import preset_metric

FORMAT_NAME = "dpm-1"

TRACE_COLUMNS = (
    "step",
    "t",
    "max_curv_err",
    "calabi_energy",
    "W_est",
    "flips_total",
    "min_margin",
    "h",
)


@dataclass
class DpmDocument:
    """Parsed dpm-1 payload: the metric plus the optional target."""

    metric: DecoratedMetric
    target: np.ndarray | None

    @property
    def mesh(self) -> DeltaComplex:
        return self.metric.mesh


# -- parsing -------------------------------------------------------------------


def _require(obj: dict, key: str, kind, where: str = "document"):
    if key not in obj:
        raise SchemaError(f"missing field {key!r} in {where}")
    val = obj[key]
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise SchemaError(f"field {key!r} must be {kind.__name__}, got {type(val).__name__}")
    return val


def _number_array(obj: dict, key: str, length: int, *, optional: bool = False) -> np.ndarray | None:
    if key not in obj:
        if optional:
            return None
        raise SchemaError(f"missing field {key!r}")
    raw = obj[key]
    if not isinstance(raw, list) or not set(map(type, raw)) <= {int, float}:
        raise SchemaError(f"field {key!r} must be an array of numbers")
    if len(raw) != length:
        raise SchemaError(f"field {key!r} has length {len(raw)}, expected {length}")
    try:
        values = np.array(raw, dtype=float)
    except OverflowError:  # an integer literal beyond the float range
        values = None
    if values is None or not np.all(np.isfinite(values)):
        raise SchemaError(f"field {key!r} must hold finite numbers only")
    return values


def _int_rows(obj: dict, key: str, shape: tuple[int, ...], what: str) -> np.ndarray | list:
    """The list at ``key`` as an int64 array of rows of ``shape``; SchemaError names
    its first row not of ``shape`` with int leaves.  Rows holding an id beyond
    int64 are handed on as they are, for the mesh checks to name the id.  Rows
    that ``_read_int_rows`` read from the text are already such an array."""
    rows = obj.get(key)
    if isinstance(rows, np.ndarray):
        return rows
    rows = _require(obj, key, list)
    leaves = _int_leaves(rows, shape)
    if leaves is None:
        i = next(i for i, row in enumerate(rows) if _int_leaves([row], shape) is None)
        raise SchemaError(f"field {key!r}[{i}] must be {what}")
    try:
        return np.array(leaves, dtype=np.int64).reshape(-1, *shape)
    except OverflowError:
        return rows


def _int_leaves(rows: list, shape: tuple[int, ...]) -> list | None:
    """The int leaves of rows that nest lists of ``shape`` over ints (not bools),
    flattened; None if a row does not.  One flat pass per level."""
    for width in shape:
        if not set(map(type, rows)) <= {list} or not set(map(len, rows)) <= {width}:
            return None
        rows = list(chain.from_iterable(rows))
    return rows if set(map(type, rows)) <= {int} else None


# the skeleton of one row of each field _read_int_rows reads, and its shape
_ROWS = {"triangles": (b"[,,]", (3,)), "gluings": (b"[[,],[,]]", (2, 2))}
_COLON_BRACKET = re.compile(r"[ \t\n\r]*:[ \t\n\r]*\[")
_WHITESPACE = b" \t\n\r"
_DIGITS = b"0123456789"
_ZEROED = bytes.maketrans(_DIGITS, b"0" * len(_DIGITS))
_UNBRACKETED = bytes.maketrans(b"[]", b"  ")
_MARK = "\x7f"  # a marker string is _MARK + its key; a text holding _MARK declines


def _read_int_rows(text: str) -> tuple[dict, dict[str, str]] | None:
    """``json.loads(text)`` with triangles and gluings read straight from the
    text into int64 arrays, and the text of each block so read, by key; None
    where this declines.

    Each of the two values that ``_int_span`` reads as rows is replaced by a
    marker string, and ``json.loads`` reads the skeleton that is left.  A
    marker that comes back as the top-level value of its key stood where
    a JSON value goes, so the whole text reads as the skeleton does with
    the rows in its place.  This declines on a backslash, a non-ASCII or
    DEL byte, a skeleton ``json.loads`` refuses, and a marker that does not
    come back (a duplicate key drops it); it never raises, so every error
    comes from the JSON path on the whole text.
    """
    if not text.isascii() or "\\" in text or _MARK in text:
        return None
    spans = []  # from the "[" after each key to the last "]" before the next quote
    for key in _ROWS:
        at = text.find(f'"{key}"')
        value = _COLON_BRACKET.match(text, at + len(key) + 2) if at >= 0 else None
        if value:
            lo = value.end() - 1
            end = text.find('"', lo)
            spans.append((lo, text.rfind("]", lo, end if end >= 0 else len(text)) + 1, key))
    arrays, blocks, skeleton = {}, {}, text
    for lo, hi, key in sorted(spans, reverse=True):  # the last first: offsets hold
        block = text[lo:hi]
        rows = _int_span(block.encode(), *_ROWS[key])
        if rows is not None:
            arrays[key], blocks[key] = rows, block
            skeleton = f'{skeleton[:lo]}"{_MARK}{key}"{skeleton[hi:]}'
    if not arrays:
        return None
    try:
        tree = json.loads(skeleton)
    except (ValueError, RecursionError):
        return None
    if type(tree) is not dict or any(tree.get(key) != _MARK + key for key in arrays):
        return None
    tree.update(arrays)
    return tree, blocks


def _int_span(span: bytes, row: bytes, shape: tuple[int, ...]) -> np.ndarray | None:
    """The int64 rows of ``shape`` that the JSON text ``span`` spells, or None
    unless it is exactly a JSON array of such rows (``row`` is one row with
    its numbers deleted) of numbers ``0|[1-9][0-9]*`` of at most 18 digits.

    Whole-array passes: whitespace and then digits are deleted with
    ``bytes.translate`` and what is left is compared with the rows'
    skeleton; masks over the bytes place each digit run in a value slot;
    with the brackets blanked, ``np.fromstring`` reads the checked numbers.
    """
    packed = span.translate(None, _WHITESPACE)
    skeleton = packed.translate(None, _DIGITS)
    count = (len(skeleton) - 1) // (len(row) + 1)
    if count < 1 or skeleton != b"[" + b",".join([row] * count) + b"]":
        return None  # an empty array is left to the JSON path
    numbers = count * np.prod(shape)
    chars = np.frombuffer(packed, np.uint8)
    values = chars - 48  # a digit's value; 10 or more on "[", "]" and ","
    digit = values < 10
    first = digit[1:] & ~digit[:-1]  # at i: a run of digits starts at i + 1
    last = digit[:-1] & ~digit[1:]  # at i: a run ends at i
    spaced = np.frombuffer(span, np.uint8) - 48 < 10
    if (
        np.count_nonzero(first) != numbers  # a slot left empty
        or np.count_nonzero(spaced[1:] & ~spaced[:-1]) != numbers  # "1 2" reads as "12"
        or np.any(first & (chars[:-1] == 93))  # a number after "]"
        or np.any(last & (chars[1:] == 91))  # a number before "["
        or np.any(first[:-1] & (values[1:-1] == 0) & digit[2:])  # a leading zero
    ):
        return None
    if b"0" * 19 in packed.translate(_ZEROED):  # more than 18 digits
        return None
    return np.fromstring(packed.translate(_UNBRACKETED), np.int64, sep=",").reshape(-1, *shape)


def _decode(text: str) -> tuple[object, dict[str, str]]:
    """The JSON tree of ``text`` and the text of the blocks ``_read_int_rows``
    read (none on the JSON path); DpmSyntaxError, with line and column where
    the JSON reader gives them, for syntax problems."""
    if decoded := _read_int_rows(text):
        return decoded
    try:
        return json.loads(text), {}
    except json.JSONDecodeError as exc:
        raise DpmSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    except ValueError:  # an integer literal beyond the interpreter's digit limit
        raise DpmSyntaxError("integer literal with too many digits") from None
    except RecursionError:
        raise DpmSyntaxError("arrays or objects nested too deeply") from None


def parse_dpm(text: str) -> DpmDocument:
    """Parse and validate a dpm-1 document.

    Syntax problems raise DpmSyntaxError, with line and column where the
    JSON reader gives them; structural problems raise SchemaError naming
    the field; mesh and metric problems raise the usual validation errors
    carrying ids.
    """
    return _document(*_decode(text))


def parse_target(text: str, num_vertices: int, name: str) -> np.ndarray:
    """The target curvature in the text of target file ``name``, decoded once.

    The file holds a JSON array of ``num_vertices`` numbers, or a dpm-1
    document whose target_curvature has ``num_vertices`` entries, whatever
    the document's own vertex count; SchemaError names the file and what it
    lacks.
    """
    return _target(_decode(text)[0], num_vertices, name)


def _target(raw, num_vertices: int, name: str) -> np.ndarray:
    if isinstance(raw, list):
        if not set(map(type, raw)) <= {int, float}:
            raise SchemaError(f"target file {name!r} must hold numbers only")
        values = raw
    else:
        values = _document(raw).target
        if values is None:
            raise SchemaError(f"target file {name!r} carries no target_curvature")
    if len(values) != num_vertices:
        raise SchemaError(
            f"target file {name!r} holds {len(values)} values, expected {num_vertices}"
        )
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        raise SchemaError(f"target file {name!r} holds a number beyond the float range") from None


def _document(raw, blocks: dict[str, str] | None = None) -> DpmDocument:
    if not isinstance(raw, dict):
        raise SchemaError("top level must be a JSON object")
    fmt = _require(raw, "format", str)
    if fmt != FORMAT_NAME:
        raise SchemaError(f"format {fmt!r} not supported; expected {FORMAT_NAME!r}")
    n = _require(raw, "num_vertices", int)
    tris = _int_rows(raw, "triangles", (3,), "three integer vertex ids")
    if "gluings" in raw:
        mesh = build_complex(n, tris, _int_rows(raw, "gluings", (2, 2), "[[t, e], [t2, e2]]"))
    else:
        mesh = infer_gluings(n, tris)
    if blocks:
        mesh.text_blocks = blocks

    radii = _number_array(raw, "radii", mesh.num_vertices)
    has_lengths = "edge_lengths" in raw
    has_inv = "inversive_distances" in raw
    if has_lengths == has_inv:
        raise SchemaError(
            "exactly one of 'edge_lengths' and 'inversive_distances' must be present"
        )
    if has_inv:
        inv = _number_array(raw, "inversive_distances", mesh.num_edges)
        bad = np.flatnonzero(inv <= 1.0)
        if bad.size:
            raise InvalidInversiveDistance(
                f"inversive distance must exceed 1 on initial data; edges {bad.tolist()[:8]}"
                f" have values {inv[bad][:8].tolist()}"
            )
        lengths = lengths_from_inversive(mesh, radii, inv)
    else:
        lengths = _number_array(raw, "edge_lengths", mesh.num_edges)
    u = _number_array(raw, "conformal_factors", mesh.num_vertices, optional=True)
    target = _number_array(raw, "target_curvature", mesh.num_vertices, optional=True)
    metric = DecoratedMetric(mesh, lengths, radii, u)
    return DpmDocument(metric=metric, target=target)


# -- emission -------------------------------------------------------------------


def _rows(template: str, sep: str, rows: np.ndarray) -> str:
    """``rows`` written through one ``%`` template: ``template`` per row, joined by ``sep``."""
    return sep.join([template] * len(rows)) % tuple(rows.ravel().tolist())


def _int_block(template: str, rows: np.ndarray) -> str:
    """A JSON array of int ``rows``, ``template`` per row, one row per line."""
    return "[\n" + _rows(template, ",\n", rows) + "\n  ]"


def _numbers(values) -> str:
    """A one-line JSON array of floats with 17 significant digits."""
    return "[" + _rows("%.17g", ", ", np.asarray(values, dtype=float)) + "]"


def emit_dpm(metric: DecoratedMetric, target: np.ndarray | None = None) -> str:
    """Serialize a metric, folding the scale factors into the lengths.

    The emitted document stores the effective lengths and radii with zero
    conformal factors, which is the same geometry, and survives a further
    parse/emit round trip byte for byte.  The layout of what the templates
    write is fixed: one field per line, one line per triangle, the two
    sides of a gluing on lines of their own, and each number array on one
    line.  The triangles and gluings blocks that a parsed complex keeps
    (``DeltaComplex.text_blocks``, dropped by a flip) are written as they
    were read, in their own layout; in the emitted layout that is the same
    text.
    """
    mesh = metric.mesh
    kept = mesh.text_blocks or {}
    triangles = kept.get("triangles") or _int_block("    [%d, %d, %d]", mesh.triangles)
    gluings = kept.get("gluings") or _int_block(
        "    [\n      [%d, %d],\n      [%d, %d]\n    ]", mesh.gluings()
    )
    fields = [
        f'"format": "{FORMAT_NAME}"',
        f'"num_vertices": {mesh.num_vertices}',
        f'"triangles": {triangles}',
        f'"gluings": {gluings}',
        f'"edge_lengths": {_numbers(metric.effective_lengths)}',
        f'"radii": {_numbers(metric.effective_radii)}',
    ]
    if target is not None:
        fields.append(f'"target_curvature": {_numbers(target)}')
    return "{\n" + ",\n".join("  " + field for field in fields) + "\n}\n"


# -- generation -------------------------------------------------------------------


def generate(
    preset: str,
    *,
    radius: float = 1.0,
    inversive: float = 2.0,
    n: int | None = None,
) -> str:
    """dpm-1 text for a uniformly decorated preset."""
    return emit_dpm(preset_metric(preset, radius=radius, inversive=inversive, n=n))


# -- trace CSV --------------------------------------------------------------------


def write_trace_csv(trace, sink: IO[str]) -> None:
    """Write the accepted-step history as CSV with the fixed column set.

    Each column is the ``StepRecord`` field of its lower-cased name, written
    with 17 significant digits (which writes the int columns as ``str`` does).
    """
    sink.write(",".join(TRACE_COLUMNS) + "\n")
    for rec in trace.records:
        row = (format(getattr(rec, col.lower()), ".17g") for col in TRACE_COLUMNS)
        sink.write(",".join(row) + "\n")
