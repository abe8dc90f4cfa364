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

A flow step flips at its trial's end in the decorated conformal class
instead: four circles with one common orthogonal circle have a singular
Gram matrix, so on the weighted Delaunay boundary the new diagonal's
inversive distance follows from the quad's other five, which no u
changes.  Where along a step an edge crossed, or whether it crossed
back, does not change the flip (Bobenko, Lutz; the Ptolemy flips of
Gillespie, Springborn, Crane).  A run's start flips isometrically, since
its input's flat metric defines its class.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import repeat
from math import nan

import numpy as np

from .errors import FlipProducesDegenerate, SelfFlip, SurgeryBudgetExceeded
from .geometry import delaunay_terms, edge_weights, triangle_angles
from .mesh import DeltaComplex
from .metric import DecoratedMetric, triangle_margins

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
    isometric: bool = True,
) -> tuple[DecoratedMetric, list[SurgeryEvent]]:
    """Flip ``edges`` (one id or several, no two on one face) in place; one event each, in order.

    The faces over the edge i -> j are (i, j, k) and (j, i, l).  An
    isometric flip's new diagonal closes the triangle (k, i, l) whose
    angle at i is the quad angle theta_i, the sum of the two faces' corner
    angles at i, and its base length is the one the current scale factors
    stretch to that distance exactly (``DecoratedMetric.base_squares``):

        |kl|^2 = |ki|^2 + |il|^2 - 2 |ki| |il| cos theta_i

    It is refused unless both quad angles theta_i and theta_j are below
    pi (else the diagonal leaves the quad and the flip is no isometry; the
    error names the larger).  With ``isometric=False`` the flip keeps the
    decorated conformal class: with P = [[1, -I_ij], [-I_ij, 1]],
    p = (I_ki, I_jk), q = (I_il, I_lj), alpha = p.P^-1 p, delta = q.P^-1 q
    and beta = p.P^-1 q, the Gram determinant of the four circles is
    det P ((1 - alpha)(1 - delta) - (I_kl + beta)^2), whose larger root

        I_kl = -beta + sqrt((1 - alpha)(1 - delta))

    gives the base length L_kl^2 = R_k^2 + R_l^2 + 2 I_kl R_k R_l.  The
    five I's are read off the stored base lengths L and radii R, which do
    not depend on u.  Either flip raises FlipProducesDegenerate unless
    both new faces pass the margin gate (``triangle_margins``) at the
    current u and the squared base length is positive (not NaN, where no
    root is real).  Every check runs on all the quads before the complex
    changes; if an edge fails one, the edges before it are flipped and
    rebased and the error names it, as flipping them one at a time in
    this order would.  Each event records its edge's weight (d1 + d2)/l
    before the flip.
    """
    mesh = metric.mesh
    edges = np.atleast_1d(mesh._edge_ids(edges))
    pre_weights = edge_weights(metric, edges)
    # per quad, rows (|ij|, |jk|, |ki|) and (|ji|, |il|, |lj|), at corners (i, j, k) and (j, i, l)
    t, slots = mesh.quads(edges)  # shapes (2, B) and (2, 3, B)
    sides, corners = mesh.edge_of.take(slots), mesh.corners.take(slots)
    (_, l_jk, l_ki), (_, l_il, l_lj) = metric.effective_lengths.take(sides)
    (i, j, k), (_, _, l) = corners
    rk, rl = metric.effective_radii[k], metric.effective_radii[l]
    if isometric:
        (at_i, at_j, _), (at_j2, at_i2, _) = triangle_angles(metric).T.take(slots)
        theta_i, theta_j = at_i + at_i2, at_j + at_j2
        new_length = np.sqrt(l_ki * l_ki + l_il * l_il - 2.0 * l_ki * l_il * np.cos(theta_i))
        squares = metric.base_squares(k, l, new_length)
        inversive = (new_length * new_length - rk * rk - rl * rl) / (2.0 * rk * rl)
        outside = ~(np.maximum(theta_i, theta_j) < np.pi)
    else:
        base, r = metric.base_lengths.take(sides), metric.radii.take(corners)
        r_next = np.roll(r, -1, axis=1)  # side e runs from corner e to corner e + 1
        (c, p2, p1), (_, q1, q2) = (base * base - r * r - r_next * r_next) / (2.0 * r * r_next)
        det = 1.0 - c * c  # P^-1 = [[1, c], [c, 1]] / det
        alpha = (p1 * p1 + p2 * p2 + 2.0 * c * p1 * p2) / det
        delta = (q1 * q1 + q2 * q2 + 2.0 * c * q1 * q2) / det
        beta = (p1 * q1 + p2 * q2 + c * (p1 * q2 + p2 * q1)) / det
        (_, _, base_k), (_, _, base_l) = r
        with np.errstate(invalid="ignore"):
            inversive = np.sqrt((1.0 - alpha) * (1.0 - delta)) - beta
            squares = base_k * base_k + base_l * base_l + 2.0 * inversive * base_k * base_l
            new_length = np.sqrt(rk * rk + rl * rl + 2.0 * inversive * rk * rl)
        outside = np.zeros(edges.size, dtype=bool)

    # the two new triangles (l, j, k) and (k, i, l) of each quad, rows of shape (2, B)
    s0, s1 = np.stack([l_lj, l_ki]), np.stack([l_jk, l_il])
    margins, threshold = triangle_margins(s0, s1, new_length)
    thin = ~(margins > threshold)
    self_glued = t[0] == t[1]
    failed = np.flatnonzero(self_glued | thin.any(axis=0) | outside | ~(squares > 0))
    n = failed[0] if failed.size else edges.size

    events = []
    if n:
        done = edges[:n]
        mesh.flip_many(done)
        # the flip starts a new state of the metric, so no memo holds the old base length
        metric.base_lengths[done] = np.sqrt(squares[:n])
        events = list(map(
            SurgeryEvent, repeat(flow_time), range(ordinal, ordinal + n), done.tolist(),
            zip(i.tolist(), j.tolist()), zip(k.tolist(), l.tolist()),
            new_length[:n].tolist(), pre_weights.tolist(), inversive[:n].tolist(),
        ))
        for m in np.flatnonzero(~(inversive[:n] > 1.0)).tolist():  # not inversive_in_packing_range
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
    r0, r1, r2 = rank.take(mesh.edge_of)
    lowest = np.minimum(np.minimum(r0, r1), r2)  # per face
    low1, low2 = mesh.at_faces(lowest, mesh.sides[:, ranked])
    return ranked[(low1 == own) & (low2 == own)]


def make_delaunay(
    metric: DecoratedMetric,
    *,
    flow_time: float = nan,
    start_ordinal: int = 0,
    isometric: bool = True,
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
    ``isometric`` selects the flip (``flip_metric``): a flow step's
    surgery flips in the decorated conformal class.
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
            metric, edges, flow_time=flow_time, ordinal=start_ordinal + len(events),
            isometric=isometric,
        )[1]

