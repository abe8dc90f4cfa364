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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
    if kind is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise SchemaError(f"field {key!r} must be a number")
        return float(val)
    if not isinstance(val, kind):
        raise SchemaError(f"field {key!r} must be {kind.__name__}, got {type(val).__name__}")
    return val


def _number_array(obj: dict, key: str, length: int, *, optional: bool = False) -> np.ndarray | None:
    if key not in obj:
        if optional:
            return None
        raise SchemaError(f"missing field {key!r}")
    raw = obj[key]
    if not isinstance(raw, list) or any(
        isinstance(x, bool) or not isinstance(x, (int, float)) for x in raw
    ):
        raise SchemaError(f"field {key!r} must be an array of numbers")
    if len(raw) != length:
        raise SchemaError(f"field {key!r} has length {len(raw)}, expected {length}")
    return np.array(raw, dtype=float)


def parse_dpm(text: str) -> DpmDocument:
    """Parse and validate a dpm-1 document.

    Syntax problems raise DpmSyntaxError with line and column; structural
    problems raise SchemaError naming the field; mesh and metric problems
    raise the usual validation errors carrying ids.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DpmSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    if not isinstance(raw, dict):
        raise SchemaError("top level must be a JSON object")
    fmt = _require(raw, "format", str)
    if fmt != FORMAT_NAME:
        raise SchemaError(f"format {fmt!r} not supported; expected {FORMAT_NAME!r}")
    n = _require(raw, "num_vertices", int)
    tris = _require(raw, "triangles", list)
    for i, tri in enumerate(tris):
        if (
            not isinstance(tri, list)
            or len(tri) != 3
            or any(isinstance(c, bool) or not isinstance(c, int) for c in tri)
        ):
            raise SchemaError(f"field 'triangles'[{i}] must be three integer vertex ids")

    if "gluings" in raw:
        glist = _require(raw, "gluings", list)
        pairs = []
        for i, pair in enumerate(glist):
            ok = (
                isinstance(pair, list)
                and len(pair) == 2
                and all(
                    isinstance(s, list)
                    and len(s) == 2
                    and all(isinstance(v, int) and not isinstance(v, bool) for v in s)
                    for s in pair
                )
            )
            if not ok:
                raise SchemaError(f"field 'gluings'[{i}] must be [[t, e], [t2, e2]]")
            pairs.append(((pair[0][0], pair[0][1]), (pair[1][0], pair[1][1])))
        mesh = build_complex(n, tris, pairs)
    else:
        mesh = infer_gluings(n, tris)

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


def _numbers(values) -> str:
    """A one-line JSON array of floats with 17 significant digits."""
    floats = np.asarray(values, dtype=float).tolist()
    return "[" + ", ".join(format(x, ".17g") for x in floats) + "]"


def emit_dpm(metric: DecoratedMetric, target: np.ndarray | None = None) -> str:
    """Serialize a metric, folding the scale factors into the lengths.

    The emitted document stores the effective lengths and radii with zero
    conformal factors, which is the same geometry, and survives a further
    parse/emit round trip byte for byte.  The layout is fixed: one field
    per line, one line per triangle, the two sides of a gluing on lines of
    their own, and each number array on one line.
    """
    mesh = metric.mesh
    triangles = ",\n".join("    [%d, %d, %d]" % tuple(tri) for tri in mesh.triangles.tolist())
    sides = np.stack(np.divmod(mesh.edge_sides_array(), 3), axis=-1).reshape(-1, 4)
    gluings = ",\n".join(
        "    [\n      [%d, %d],\n      [%d, %d]\n    ]" % tuple(row) for row in sides.tolist()
    )
    fields = [
        f'"format": "{FORMAT_NAME}"',
        f'"num_vertices": {mesh.num_vertices}',
        f'"triangles": [\n{triangles}\n  ]',
        f'"gluings": [\n{gluings}\n  ]',
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
    target: np.ndarray | None = None,
) -> str:
    """dpm-1 text for a uniformly decorated preset."""
    metric = preset_metric(preset, radius=radius, inversive=inversive, n=n)
    return emit_dpm(metric, target)


# -- trace CSV --------------------------------------------------------------------


def write_trace_csv(trace, sink: IO[str]) -> None:
    """Write the accepted-step history as CSV with the fixed column set."""
    sink.write(",".join(TRACE_COLUMNS) + "\n")
    for rec in trace.records:
        row = (
            str(rec.step),
            format(rec.t, ".17g"),
            format(rec.max_curv_err, ".17g"),
            format(rec.calabi_energy, ".17g"),
            format(rec.w_est, ".17g"),
            str(rec.flips_total),
            format(rec.min_margin, ".17g"),
            format(rec.h, ".17g"),
        )
        sink.write(",".join(row) + "\n")
