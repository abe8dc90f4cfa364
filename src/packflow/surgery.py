"""Weighted Delaunay maintenance by edge flips.

A flip replaces the two triangles over an edge by the opposite diagonal of
their quad.  The new diagonal length follows from the two faces' corner
angles alone: the quad angle at an old endpoint is the sum of its two
corner angles there, and the law of cosines across that angle gives the
diagonal.  The flip is an isometry of the surface exactly when both quad
angles at the old endpoints are below pi, so only then is it made:
curvature and area are untouched, only the triangulation changes (intrinsic
flips, Fisher, Springborn, Schroeder, Bobenko 2007).  Flips are triggered
by the sign of d1 + d2 (the cotangent-weight numerator), never by
trigonometry.

``make_delaunay`` flips the most negative weight first, the lowest edge id
among equal weights.  After one whole-mesh test it recomputes and retests
only the two faces (angles included) and five edges that each flip
rewrites, so the curvature after surgery sums patched angles.
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
from .geometry import _edge_terms, _faces, _terms, delaunay_terms, edge_half_chord, triangle_angles
from .metric import DecoratedMetric, TRIANGLE_MARGIN_REL_TOL, triangle_margins
from .metric import _effective_data, _scaled_lengths

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

    Returns (edge id, cotangent weight) pairs by ascending weight, then id.
    The test itself is on d1 + d2 against a scale-relative tolerance; the
    weight is only evaluated on the violating edges, so intact edges can
    never raise chord errors.  An inadmissible metric raises
    DegenerateTriangle naming its worst face and margin.
    """
    dsum, eps = delaunay_terms(metric)
    bad = np.flatnonzero(dsum < -eps)
    weights = _weights(metric, dsum, bad)
    return [(int(bad[i]), float(weights[i])) for i in np.argsort(weights, kind="stable")]


def _weights(metric: DecoratedMetric, dsum: np.ndarray, edges) -> np.ndarray:
    """Cotangent weights of ``edges``: d1 + d2 over the half chord."""
    r = metric.effective_radii[metric.mesh.edge_endpoints_array()[edges]]
    return dsum[edges] / edge_half_chord(metric.effective_lengths[edges], r[:, 0], r[:, 1])


def flip_metric(
    metric: DecoratedMetric,
    edge_id: int,
    *,
    flow_time: float = nan,
    ordinal: int = 0,
) -> tuple[DecoratedMetric, SurgeryEvent]:
    """Flip one edge, updating the complex and the stored lengths in place.

    The faces over the edge i -> j are (i, j, k) and (j, i, l).  The new
    diagonal closes the triangle (k, i, l) whose angle at i is the quad
    angle theta_i, the sum of the two faces' corner angles at i:

        |kl|^2 = |ki|^2 + |il|^2 - 2 |ki| |il| cos theta_i

    Its base length is chosen so the current scale factors reproduce that
    distance exactly.  That is an isometry only if the diagonal runs inside
    the quad, so unless both quad angles theta_i and theta_j are below pi
    the flip raises FlipProducesDegenerate naming the larger one.
    """
    (t1, e1), (t2, e2) = metric.mesh.edge(edge_id).sides
    if t1 == t2:
        raise SelfFlip(
            f"edge {edge_id} has both sides on triangle {t1}; flip undefined"
        )
    try:
        pre_weight = float(_weights(metric, delaunay_terms(metric)[0], [edge_id])[0])
    except ImaginaryChord:
        pre_weight = nan
    # rows (|ij|, |jk|, |ki|) and (|ji|, |il|, |lj|), at corners (i, j, k) and (j, i, l)
    slots = [[3 * t + (e + c) % 3 for c in range(3)] for t, e in ((t1, e1), (t2, e2))]
    sides = metric.effective_lengths[metric.mesh.slot_edge_array().ravel()[slots]]
    (_, l_jk, l_ki), (_, l_il, l_lj) = sides.tolist()
    (at_i, at_j, _), (at_j2, at_i2, _) = triangle_angles(metric).ravel()[slots].tolist()
    theta_i, theta_j = at_i + at_i2, at_j + at_j2
    new_length = float(np.sqrt(l_ki * l_ki + l_il * l_il - 2.0 * l_ki * l_il * np.cos(theta_i)))

    margins = triangle_margins(np.array([[l_lj, l_jk, new_length], [l_ki, l_il, new_length]]))
    thin = margins[~(margins > TRIANGLE_MARGIN_REL_TOL * max(new_length, l_jk, l_ki, l_il, l_lj))]
    if thin.size:
        raise FlipProducesDegenerate(
            f"flip of edge {edge_id} would create a triangle with margin {thin[0]:.3e}"
        )
    tri1, tri2 = metric.mesh.triangles[[t1, t2]].tolist()
    i, j, k, l = tri1[e1], tri1[(e1 + 1) % 3], tri1[(e1 + 2) % 3], tri2[(e2 + 2) % 3]
    if not max(theta_i, theta_j) < np.pi:
        vertex, angle = (i, theta_i) if theta_i >= theta_j else (j, theta_j)
        raise FlipProducesDegenerate(
            f"flip of edge {edge_id} would leave its quad: the quad angle at vertex"
            f" {vertex} is {angle:.6f} rad, not below pi"
        )

    lengths, radii = metric.effective_lengths.copy(), metric.effective_radii
    metric.mesh.flip(edge_id)
    try:
        metric.rebase_edge(edge_id, new_length)
    except DegenerateLength as exc:
        raise FlipProducesDegenerate(
            f"flip of edge {edge_id} cannot be expressed at the current scale factors: {exc}"
        ) from exc
    # the new state differs in this edge's length only
    lengths[[edge_id]] = _scaled_lengths(metric, metric.conformal_factors, [edge_id])
    metric.remember(_effective_data, (lengths, radii))

    new_inv = float(
        (new_length**2 - radii[k] ** 2 - radii[l] ** 2) / (2.0 * radii[k] * radii[l])
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
    *,
    flow_time: float = nan,
    start_ordinal: int = 0,
) -> tuple[DecoratedMetric, list[SurgeryEvent]]:
    """Flip worst-violating edges until the triangulation is weighted Delaunay.

    Deterministic: always flips the most negative weight first, the lowest
    edge id among equal weights.  A second call on the result performs zero
    flips.  Raises SurgeryBudgetExceeded if violations persist after
    SURGERY_BUDGET_PER_EDGE flips per edge.  After the one whole-mesh test, a
    flip recomputes and retests only its two faces and five edges.
    """
    budget = SURGERY_BUDGET_PER_EDGE * metric.mesh.num_edges
    dsum, eps = delaunay_terms(metric)
    bad = np.flatnonzero(dsum < -eps)
    if bad.size == 0:
        return metric, []
    weights = np.full(dsum.size, np.inf)
    weights[bad] = _weights(metric, dsum, bad)
    angles, distances, powers, dsum, eps = terms = [arr.copy() for arr in metric.memo(_terms)]
    mesh, events = metric.mesh, []
    while True:
        edge_id = int(np.argmin(weights))
        if weights[edge_id] == np.inf:
            return metric, events
        if len(events) >= budget:
            raise SurgeryBudgetExceeded(
                f"{np.count_nonzero(weights < np.inf)} weighted Delaunay violations remain"
                f" after {len(events)} flips"
            )
        _, event = flip_metric(
            metric, edge_id, flow_time=flow_time, ordinal=start_ordinal + len(events)
        )
        events.append(event)
        faces = [t for t, _ in mesh.edge(edge_id).sides]
        angles[faces], distances[faces], powers[faces] = _faces(metric, faces)
        edges = mesh.slot_edge_array()[faces].ravel()
        sides = np.array([[3 * t + c for t, c in mesh.edge(e).sides] for e in edges.tolist()])
        dsum[edges], eps[edges] = _edge_terms(distances, powers, sides)
        metric.remember(_terms, terms)
        bad = edges[dsum[edges] < -eps[edges]]
        weights[edges] = np.inf
        weights[bad] = _weights(metric, dsum, bad)
