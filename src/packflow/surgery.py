"""Weighted Delaunay maintenance by edge flips, made in rounds.

A flip replaces the two triangles over an edge by the opposite diagonal of
their quad.  The new diagonal length follows from the two faces' corner
angles alone: the quad angle at an old endpoint is the sum of its two
corner angles there, and the law of cosines across that angle gives the
diagonal.  The flip is an isometry of the surface exactly when both quad
angles at the old endpoints are below pi, so only then is it made:
curvature and area are untouched, only the triangulation changes (intrinsic
flips, Fisher, Springborn, Schroeder, Bobenko 2007).  Flips are triggered
by the sign of d1 + d2, never by trigonometry, and ranked by the edge
weight (d1 + d2)/l that the operators use, which is defined for every
admissible metric, overlapping vertex circles included.

``make_delaunay`` flips in rounds.  A round takes every violating edge
whose (weight, edge id) rank is the lowest among the violating edges on
both of its faces.  No two of these share a face, and the most negative
weight is always among them, so every round makes progress.  The round
checks all its quads at once and rewrites them with one
``DeltaComplex.flip_many``; the flipped state is a new metric state, so
the next round's test reads its own whole-mesh pass.  Flips that share
no face commute, and the weighted Delaunay tessellation is unique
(Bobenko, Lutz), so on generic input the rounds end where flipping the
worst edge one at a time ends.  Within a round, events are numbered in
(weight, edge id) order.  Each round is one ``flip_metric`` call, which
flips any one edge or face-disjoint set.

``flip_along`` makes the flips a flow step needs.  A step moves the scale
factors along a straight segment, and a flip made only at its end would
keep the inversive distance of wherever the step overshot the weighted
Delaunay boundary, so each run would leave the decorated conformal class
by its own overshoot.  Each edge is instead flipped where the segment
crosses it, with d1 + d2 within the Delaunay tolerance of zero: there the
old and the new diagonal both bound faces with one orthogonal circle, and
the flip keeps the class.  The crossing is found by bisecting the segment
on whole-mesh passes once its end violates, so an edge that crosses and
crosses back inside one step is not seen.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import repeat
from math import nan

import numpy as np

from .errors import FlipProducesDegenerate, MetricError, SelfFlip, SurgeryBudgetExceeded
from .geometry import delaunay_terms, edge_weights, triangle_angles
from .mesh import DeltaComplex, _quads
from .metric import DecoratedMetric, triangle_margins

logger = logging.getLogger(__name__)

SURGERY_BUDGET_PER_EDGE = 100
CROSSING_BISECTIONS = 60  # halvings of the segment that locate one crossing, at most


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

    Returns (edge id, weight (d1 + d2)/l) pairs by ascending weight, then
    id.  The test itself is on d1 + d2 against a scale-relative tolerance.
    An inadmissible metric raises DegenerateTriangle naming its worst face
    and margin.
    """
    dsum, eps = delaunay_terms(metric)
    bad = np.flatnonzero(dsum < -eps)
    weights = edge_weights(metric, bad)
    order = np.argsort(weights, kind="stable")
    return list(zip(bad[order].tolist(), weights[order].tolist()))


def flip_metric(
    metric: DecoratedMetric,
    edges,
    *,
    flow_time: float = nan,
    ordinal: int = 0,
) -> tuple[DecoratedMetric, list[SurgeryEvent]]:
    """Flip ``edges`` (one id or several, no two on one face) in place; one event each, in order.

    The faces over the edge i -> j are (i, j, k) and (j, i, l).  The new
    diagonal closes the triangle (k, i, l) whose angle at i is the quad
    angle theta_i, the sum of the two faces' corner angles at i:

        |kl|^2 = |ki|^2 + |il|^2 - 2 |ki| |il| cos theta_i

    Its base length is the one the current scale factors stretch to that
    distance exactly (``DecoratedMetric.base_squares``).  The flip raises
    FlipProducesDegenerate unless both quad angles theta_i and theta_j are
    below pi (else the diagonal leaves the quad and the flip is no
    isometry; the error names the larger), both new faces pass the margin
    gate (``triangle_margins``), and the squared base length is positive.
    Every check runs on all the quads before the complex changes; if an
    edge fails one, the edges before it are flipped and rebased and the
    error names it, as flipping them one at a time in this order would.
    Each event records its edge's weight (d1 + d2)/l before the flip.
    """
    mesh = metric.mesh
    edges = np.atleast_1d(mesh._edge_ids(edges))
    pre_weights = edge_weights(metric, edges)
    # per quad, rows (|ij|, |jk|, |ki|) and (|ji|, |il|, |lj|), at corners (i, j, k) and (j, i, l)
    t, slots = _quads(mesh._twin, mesh._edge_side[edges])  # shapes (2, B) and (2, 3, B)
    lengths = metric.effective_lengths[mesh.slot_edge_array().ravel()[slots]]
    (_, l_jk, l_ki), (_, l_il, l_lj) = lengths
    (at_i, at_j, _), (at_j2, at_i2, _) = triangle_angles(metric).ravel()[slots]
    (i, j, k), (_, _, l) = mesh.triangles.ravel()[slots]
    theta_i, theta_j = at_i + at_i2, at_j + at_j2
    new_length = np.sqrt(l_ki * l_ki + l_il * l_il - 2.0 * l_ki * l_il * np.cos(theta_i))

    # the two new triangles (l, j, k) and (k, i, l) of each quad, rows of shape (2, B)
    s0, s1 = np.stack([l_lj, l_ki]), np.stack([l_jk, l_il])
    margins, threshold = triangle_margins(s0, s1, new_length)
    thin = ~(margins > threshold)
    outside = ~(np.maximum(theta_i, theta_j) < np.pi)
    squares = metric.base_squares(k, l, new_length)
    self_glued = t[0] == t[1]
    failed = np.flatnonzero(self_glued | thin.any(axis=0) | outside | ~(squares > 0))
    n = failed[0] if failed.size else edges.size

    events = []
    if n:
        done, new = edges[:n], new_length[:n]
        radii = metric.effective_radii
        mesh.flip_many(done)
        metric.rebase_edge(done, new)
        rk, rl = radii[k[:n]], radii[l[:n]]
        inversive = (new * new - rk * rk - rl * rl) / (2.0 * rk * rl)
        events = list(map(
            SurgeryEvent, repeat(flow_time), range(ordinal, ordinal + n), done.tolist(),
            zip(i.tolist(), j.tolist()), zip(k.tolist(), l.tolist()),
            new.tolist(), pre_weights.tolist(), inversive.tolist(),
        ))
        for m in np.flatnonzero(~(inversive > 1.0)).tolist():  # not inversive_in_packing_range
            logger.debug(
                "flip %d created edge %d with inversive distance %.6g <= 1",
                events[m].ordinal, events[m].edge_id, events[m].new_inversive,
            )
    if n == edges.size:
        return metric, events

    edge_id = int(edges[n])
    if self_glued[n]:
        raise SelfFlip(f"edge {edge_id} has both sides on triangle {t[0, n]}; flip undefined")
    if thin[:, n].any():
        raise FlipProducesDegenerate(
            f"flip of edge {edge_id} would create a triangle with margin"
            f" {margins[:, n][thin[:, n]][0]:.3e}"
        )
    if outside[n]:
        vertex, angle = (i[n], theta_i[n]) if theta_i[n] >= theta_j[n] else (j[n], theta_j[n])
        raise FlipProducesDegenerate(
            f"flip of edge {edge_id} would leave its quad: the quad angle at vertex"
            f" {vertex} is {angle:.6f} rad, not below pi"
        )
    raise FlipProducesDegenerate(
        f"flip of edge {edge_id} cannot be expressed at the current scale factors:"
        f" squared base length {squares[n]:.3e}"
    )


def _independent(mesh: DeltaComplex, weights: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """The violating edges ``bad`` whose (weight, id) rank is the lowest on both faces, by rank."""
    ranked = bad[np.argsort(weights[bad], kind="stable")]
    own = np.arange(ranked.size)
    rank = np.full(weights.size, ranked.size)
    rank[ranked] = own
    sides = rank[mesh._edge_of].reshape(-1, 3)
    lowest = np.minimum(np.minimum(sides[:, 0], sides[:, 1]), sides[:, 2])  # per face
    first = mesh._edge_side[ranked]
    return ranked[(lowest[first // 3] == own) & (lowest[mesh._twin[first] // 3] == own)]


def make_delaunay(
    metric: DecoratedMetric,
    *,
    flow_time: float = nan,
    start_ordinal: int = 0,
) -> tuple[DecoratedMetric, list[SurgeryEvent]]:
    """Flip violating edges in rounds until the triangulation is weighted Delaunay.

    Deterministic: each round flips the violating edges that rank lowest by
    (weight, edge id) on both of their faces, the most negative weight
    among them.  A second call on the result performs zero flips.  Raises
    SurgeryBudgetExceeded if violations persist after
    SURGERY_BUDGET_PER_EDGE flips per edge.  Every round, and the stop,
    reads the ``delaunay_terms`` of the current state: one whole-mesh pass
    on entry and one after each round, whose margin gate raises
    DegenerateTriangle should a round leave a face too thin for it.
    """
    budget = SURGERY_BUDGET_PER_EDGE * metric.mesh.num_edges
    events = []
    while True:
        dsum, eps = delaunay_terms(metric)
        bad = np.flatnonzero(dsum < -eps)
        if bad.size == 0:
            return metric, events
        if len(events) >= budget:
            raise SurgeryBudgetExceeded(
                f"{bad.size} weighted Delaunay violations remain after {len(events)} flips"
            )
        edges = _independent(metric.mesh, edge_weights(metric), bad)[: budget - len(events)]
        events += flip_metric(
            metric, edges, flow_time=flow_time, ordinal=start_ordinal + len(events)
        )[1]


def flip_along(
    metric: DecoratedMetric,
    du: np.ndarray,
    *,
    flow_time: tuple[float, float] = (0.0, 1.0),
    start_ordinal: int = 0,
) -> tuple[DecoratedMetric, list[SurgeryEvent]]:
    """Flip each edge where the segment of scale factors that ``metric`` ends crosses it.

    ``metric`` holds the end u1 of the straight segment u1 - (1 - s) du,
    s in [0, 1], whose start is weighted Delaunay and whose end passes
    the margin gate on the start's triangulation (else DegenerateTriangle
    from the end's whole-mesh pass).  While the end violates, s is
    bisected, from the last flip on, on whole-mesh passes down to a
    crossing: a state where no edge violates and some edge's d1 + d2 lies
    in [-tolerance, -tolerance / 2), within the Delaunay tolerance of zero
    and on the violating side by more than round-off, so the flipped
    diagonal starts out clearly Delaunay.  A state that is no
    triangulation counts as past the crossing.  The worst edge there is
    flipped from that state's pass, which keeps the decorated conformal
    class, and the rest of the segment is walked on the new
    triangulation; should a face stop being a triangle before any
    crossing, the pass at the bracket's end raises its MetricError.  The
    metric ends at u1 again.  Only the end is tested, so an edge that
    crosses and crosses back inside the segment is not seen.  An event at
    s carries the flow time t0 + s h for ``flow_time`` (t0, h).  Raises
    SurgeryBudgetExceeded like ``make_delaunay``.
    """
    u1 = np.array(metric.conformal_factors)
    budget = SURGERY_BUDGET_PER_EDGE * metric.mesh.num_edges
    events, lo = [], 0.0
    while True:
        dsum, eps = delaunay_terms(metric)
        if not np.any(dsum < -eps):
            return metric, events
        if len(events) >= budget:
            raise SurgeryBudgetExceeded(
                f"the segment's end still violates after {len(events)} flips along it"
            )
        hi = 1.0
        for _ in range(CROSSING_BISECTIONS):
            mid = 0.5 * (lo + hi)
            metric.set_conformal_factors(u1 - (1.0 - mid) * du)
            try:
                dsum, eps = delaunay_terms(metric)
            except MetricError:
                hi = mid
                continue
            if np.all(dsum >= -0.5 * eps):
                lo = mid
                continue
            hi = mid
            if np.all(dsum >= -eps):
                break
        else:
            metric.set_conformal_factors(u1 - (1.0 - hi) * du)
        dsum, eps = delaunay_terms(metric)
        crossed = np.flatnonzero(dsum < -0.5 * eps)
        edge = crossed[np.argmin(edge_weights(metric, crossed))]
        events += flip_metric(
            metric, [edge], flow_time=flow_time[0] + hi * flow_time[1],
            ordinal=start_ordinal + len(events),
        )[1]
        lo = hi
        metric.set_conformal_factors(u1)
