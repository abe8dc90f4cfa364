"""Weighted Delaunay maintenance by edge flips.

A flip replaces the two triangles over an edge by the opposite diagonal of
their common planar layout.  Because the new diagonal length is measured in
that same layout, the flip is an isometry of the surface: curvature and
area are untouched, only the triangulation changes.  Flips are triggered by
the sign of d1 + d2 (the cotangent-weight numerator), never by trigonometry.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import nan

import numpy as np

from .errors import (
    DegenerateLength,
    FlipProducesDegenerate,
    ImaginaryChord,
    SelfFlip,
    SurgeryBudgetExceeded,
)
from .geometry import delaunay_terms, edge_half_chord, layout_triangle
from .metric import DecoratedMetric, TRIANGLE_MARGIN_REL_TOL, validate_triangles

logger = logging.getLogger(__name__)

SURGERY_BUDGET_PER_EDGE = 100


@dataclass
class SurgeryEvent:
    """One executed flip."""

    flow_time: float
    ordinal: int
    edge_id: int
    old_endpoints: tuple[int, int]
    new_endpoints: tuple[int, int]
    new_length: float
    pre_weight: float
    new_inversive: float

    @property
    def inversive_in_packing_range(self) -> bool:
        return self.new_inversive > 1.0


def delaunay_violations(metric: DecoratedMetric) -> list[tuple[int, float]]:
    """Edges failing the weighted Delaunay condition, worst first.

    Returns (edge id, cotangent weight) pairs sorted by weight ascending.
    The test itself is on d1 + d2 against a scale-relative tolerance; the
    weight is only evaluated on the violating edges, so intact edges can
    never raise chord errors.  An inadmissible metric raises
    DegenerateTriangle naming its worst face and margin.
    """
    validate_triangles(metric).require()
    dsum, eps = delaunay_terms(metric)
    bad = np.where(dsum < -eps)[0]
    if bad.size == 0:
        return []
    ends = metric.mesh.edge_endpoints_array()[bad]
    r = metric.effective_radii
    lengths = metric.effective_lengths[bad]
    chords = edge_half_chord(lengths, r[ends[:, 0]], r[ends[:, 1]])
    weights = dsum[bad] / chords
    order = np.argsort(weights)
    return [(int(bad[i]), float(weights[i])) for i in order]


def _quad_layout(metric: DecoratedMetric, edge_id: int):
    """Lay out the two triangles over an edge in one plane, opposite sides.

    Returns (corner labels (i, j, k, l), their coordinates, side lengths of
    the four outer edges as (l_jk, l_ki, l_il, l_lj), the edge's d1 + d2).
    d1 + d2 is the edge's entry of :func:`delaunay_terms`, which
    ``make_delaunay`` has already computed for this state.
    """
    (t1, e1), (t2, e2) = metric.mesh.edge(edge_id).sides
    if t1 == t2:
        raise SelfFlip(
            f"edge {edge_id} has both sides on triangle {t1}; flip undefined"
        )
    faces = [t1, t2]
    sides = metric.effective_lengths[metric.mesh.slot_edge_array()[faces]]
    sides1 = np.roll(sides[0], -e1)  # (|ij|, |jk|, |ki|)
    sides2 = np.roll(sides[1], -e2)  # (|ji|, |il|, |lj|)
    tri1, tri2 = metric.mesh.triangles[faces].tolist()
    i, j, k = tri1[e1], tri1[(e1 + 1) % 3], tri1[(e1 + 2) % 3]
    l = tri2[(e2 + 2) % 3]

    coords1 = layout_triangle(*sides1)           # i at origin, j on the axis, k above
    coords2 = layout_triangle(*sides2)           # j at origin, i on the axis, l above
    shared = sides1[0]
    p_i, p_j, p_k = coords1
    p_l = np.array([shared - coords2[2, 0], -coords2[2, 1]])  # rotate into the lower half plane
    outer = (float(sides1[1]), float(sides1[2]), float(sides2[1]), float(sides2[2]))
    dsum = float(delaunay_terms(metric)[0][edge_id])
    return (i, j, k, l), np.array([p_i, p_j, p_k, p_l]), outer, dsum


def _cross(a: np.ndarray, b: np.ndarray) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def flip_metric(
    metric: DecoratedMetric,
    edge_id: int,
    *,
    flow_time: float = nan,
    ordinal: int = 0,
) -> tuple[DecoratedMetric, SurgeryEvent]:
    """Flip one edge, updating the complex and the stored lengths in place.

    The new diagonal gets the geometric distance between the two opposite
    corners in the common layout; its base length is chosen so the current
    scale factors reproduce that distance exactly.  That is an isometry only
    if the diagonal runs inside the quad, so a flip whose old endpoints do
    not lie strictly on opposite sides of it raises FlipProducesDegenerate.
    """
    (i, j, k, l), coords, outer, dsum = _quad_layout(metric, edge_id)
    l_jk, l_ki, l_il, l_lj = outer
    p_i, p_j, p_k, p_l = coords
    new_length = float(np.hypot(*(p_k - p_l)))

    scale = max(new_length, l_jk, l_ki, l_il, l_lj)
    for a, b, c in ((l_lj, l_jk, new_length), (l_ki, l_il, new_length)):
        margin = min(a + b - c, b + c - a, c + a - b)
        if margin <= TRIANGLE_MARGIN_REL_TOL * scale:
            raise FlipProducesDegenerate(
                f"flip of edge {edge_id} would create a triangle with margin {margin:.3e}"
            )
    if not _cross(p_l - p_k, p_i - p_k) * _cross(p_l - p_k, p_j - p_k) < 0.0:
        # i sits at the origin with j on the positive axis, k above, l below
        at_i = np.arctan2(p_k[1], p_k[0]) - np.arctan2(p_l[1], p_l[0])
        at_j = np.arctan2(p_k[1], p_j[0] - p_k[0]) - np.arctan2(p_l[1], p_j[0] - p_l[0])
        vertex, angle = (i, at_i) if at_i >= at_j else (j, at_j)
        raise FlipProducesDegenerate(
            f"flip of edge {edge_id} would leave its quad: the quad angle at vertex"
            f" {vertex} is {angle:.6f} rad, not below pi"
        )

    ends = metric.mesh.edge_endpoints_array()[edge_id]
    r = metric.effective_radii
    try:
        chord = float(
            edge_half_chord(metric.effective_lengths[edge_id], r[ends[0]], r[ends[1]])
        )
        pre_weight = dsum / chord
    except ImaginaryChord:
        pre_weight = nan

    metric.mesh.flip(edge_id)
    try:
        metric.rebase_edge(edge_id, new_length)
    except DegenerateLength as exc:
        raise FlipProducesDegenerate(
            f"flip of edge {edge_id} cannot be expressed at the current scale factors: {exc}"
        ) from exc

    r_new = metric.effective_radii
    new_inv = float(
        (new_length**2 - r_new[k] ** 2 - r_new[l] ** 2) / (2.0 * r_new[k] * r_new[l])
    )
    event = SurgeryEvent(
        flow_time=flow_time,
        ordinal=ordinal,
        edge_id=edge_id,
        old_endpoints=(i, j),
        new_endpoints=(k, l),
        new_length=new_length,
        pre_weight=pre_weight,
        new_inversive=new_inv,
    )
    if not event.inversive_in_packing_range:
        logger.warning(
            "flip %d created edge %d with inversive distance %.6g <= 1",
            ordinal,
            edge_id,
            new_inv,
        )
    return metric, event


def make_delaunay(
    metric: DecoratedMetric,
    max_flips: int | None = None,
    *,
    flow_time: float = nan,
    start_ordinal: int = 0,
) -> tuple[DecoratedMetric, list[SurgeryEvent]]:
    """Flip worst-violating edges until the triangulation is weighted Delaunay.

    Deterministic: always flips the most negative weight first.  A second
    call on the result performs zero flips.  Raises SurgeryBudgetExceeded
    if violations persist after the flip budget (default 100 per edge).
    """
    budget = max_flips if max_flips is not None else SURGERY_BUDGET_PER_EDGE * metric.mesh.num_edges
    events: list[SurgeryEvent] = []
    while True:
        violations = delaunay_violations(metric)
        if not violations:
            return metric, events
        if len(events) >= budget:
            raise SurgeryBudgetExceeded(
                f"{len(violations)} weighted Delaunay violations remain after {len(events)} flips"
            )
        edge_id, _ = violations[0]
        _, event = flip_metric(
            metric, edge_id, flow_time=flow_time, ordinal=start_ordinal + len(events)
        )
        events.append(event)
