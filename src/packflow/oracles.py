"""Brute-force reference computations and seeded random metric generation.

Everything here deliberately avoids the fast paths of the library: angles
and orthogonal circles come from explicit plane coordinates, the Delaunay
predicate from summed intersection angles, flip lengths from a reflected
layout, surgery from one flip at a time after a whole-mesh test that
lays every face out, and the limit of the flows from Newton's method on
laid-out curvature, its flips located by a scan of that test along each
step and bisection.
Tests compare the production code against these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import nan, pi

import numpy as np

from .errors import FlipProducesDegenerate, GeometryError, MeshError, MetricError, SelfFlip
from .errors import SurgeryError
from .geometry import DELAUNAY_REL_TOL, triangle_angles
from .metric import (
    TRIANGLE_MARGIN_REL_TOL,
    DecoratedMetric,
    lengths_from_inversive,
    validate_triangles,
)
from .operators import fd_jacobian
from .presets import preset_complex
from .surgery import SurgeryEvent, make_delaunay

ORACLE_WALK_POINTS = 64  # points of a path at which oracle_walk tests before it bisects


@dataclass
class RandomMetricSpec:
    """Distribution of one random decorated metric.

    Radii and inversive distances are uniform in the given ranges, scale
    factors uniform in [-u_range, u_range] (not balanced to zero sum).
    Draws failing triangle validation, or, with ``delaunay``, whose flips
    to weighted Delaunay are refused, are resampled up to ``retries`` times.
    """

    preset: str = "tetrahedron"
    n: int | None = None
    radius_range: tuple[float, float] = (0.7, 1.3)
    inversive_range: tuple[float, float] = (1.3, 2.8)
    u_range: float = 0.15
    retries: int = 64
    delaunay: bool = False


def random_metric(spec: RandomMetricSpec, seed: int) -> DecoratedMetric:
    """Seeded admissible metric; optionally flipped to weighted Delaunay."""
    rng = np.random.default_rng(seed)
    mesh = preset_complex(spec.preset, n=spec.n)
    for _ in range(spec.retries):
        radii = rng.uniform(*spec.radius_range, size=mesh.num_vertices)
        inv = rng.uniform(*spec.inversive_range, size=mesh.num_edges)
        u = rng.uniform(-spec.u_range, spec.u_range, size=mesh.num_vertices)
        try:
            lengths = lengths_from_inversive(mesh, radii, inv)
            metric = DecoratedMetric(mesh.copy(), lengths, radii, u)
            if not validate_triangles(metric).admissible:
                continue
            if spec.delaunay:
                make_delaunay(metric)
        except (MetricError, SurgeryError, MeshError):  # a refused flip draws again too
            continue
        return metric
    raise RuntimeError(
        f"no admissible draw for {spec} after {spec.retries} tries (seed {seed})"
    )


def _oracle_layout(l01: float, l12: float, l20: float) -> np.ndarray:
    """Corner 0 at the origin, corner 1 at (l01, 0), corner 2 above the axis."""
    x = (l01 * l01 + l20 * l20 - l12 * l12) / (2.0 * l01)
    y = np.sqrt(max(l20 * l20 - x * x, 0.0))
    return np.array([[0.0, 0.0], [l01, 0.0], [x, y]])


def oracle_angles_via_layout(l01: float, l12: float, l20: float) -> np.ndarray:
    """Inner angles from explicit coordinates, no law of cosines.

    Places the triangle by circle intersection and measures each angle with
    atan2 of the adjacent edge vectors.
    """
    pts = _oracle_layout(l01, l12, l20)
    angles = []
    for c in range(3):
        va = pts[(c + 1) % 3] - pts[c]
        vb = pts[(c + 2) % 3] - pts[c]
        ang = np.arctan2(va[0] * vb[1] - va[1] * vb[0], va @ vb)
        angles.append(abs(ang))
    return np.array(angles)


def oracle_face_circle(sides, radii) -> tuple[np.ndarray, float, np.ndarray]:
    """Orthogonal circle of one face from explicit plane coordinates.

    ``sides`` are (l01, l12, l20) and ``radii`` the corner radii.  Lays the
    face out, solves the two linear equal-power conditions for the center
    with ``np.linalg.solve``, and measures the distance to each side line as
    a cross product over the side length.  Returns (center, power,
    distances), side e running from corner e to corner e+1 and its
    distance positive toward the opposite corner.
    """
    pts = _oracle_layout(*(float(s) for s in sides))
    r = np.asarray(radii, dtype=float)
    # |c - p_k|^2 - r_k^2 is the same for k = 0, 1, 2
    system = 2.0 * (pts[1:] - pts[0])
    rhs = np.sum(pts[1:] ** 2, axis=1) - pts[0] @ pts[0] - r[1:] ** 2 + r[0] ** 2
    center = np.linalg.solve(system, rhs)
    power = float((center - pts[0]) @ (center - pts[0]) - r[0] ** 2)
    distances = []
    for e in range(3):
        v = pts[(e + 1) % 3] - pts[e]
        w = center - pts[e]
        distances.append((v[0] * w[1] - v[1] * w[0]) / np.hypot(*v))
    return center, power, np.array(distances)


class ImaginaryChord(GeometryError):
    """A vertex circle swallows the edge: the orthogonal-circle chord is not real."""


def edge_half_chord(length, r_a, r_b):
    """Half-length of the chord the orthogonal circle cuts on the edge line.

    Computed from the edge alone: with m the equal-power point of the two
    endpoint circles on the line, the squared half-chord is m^2 - r_a^2.
    Real exactly when the circles neither cross nor touch (|I| > 1), so
    only the plane-geometry oracle reads it, never the weights.
    """
    length = np.asarray(length, dtype=float)
    r_a = np.asarray(r_a, dtype=float)
    r_b = np.asarray(r_b, dtype=float)
    m = (length * length + r_a * r_a - r_b * r_b) / (2.0 * length)
    sq = m * m - r_a * r_a
    if np.any(sq <= 0):
        raise ImaginaryChord(
            f"vertex circles meet the edge: squared half-chord {float(np.min(sq)):.3e} <= 0"
        )
    return np.sqrt(sq)


def oracle_delaunay_via_angles(metric: DecoratedMetric, edge_id: int) -> bool:
    """Weighted Delaunay test through the intersection angles.

    Computes, on each side of the edge, the angle at which the neighboring
    face's orthogonal circle crosses the edge line (via atan2 of half-chord
    and signed distance) and checks angle1 + angle2 <= pi.  The production
    predicate never forms these angles.
    """
    ends = metric.mesh.edge_endpoints_array()[edge_id]
    r = metric.effective_radii
    chord = float(
        edge_half_chord(metric.effective_lengths[edge_id], r[ends[0]], r[ends[1]])
    )
    total = 0.0
    for t, e in metric.mesh.gluings()[edge_id].tolist():
        sides = metric.effective_lengths[metric.mesh.slot_edge_array()[t]]
        d = oracle_face_circle(sides, r[metric.mesh.triangles[t]])[2][e]
        total += float(np.arctan2(chord, d))
    return total <= np.pi + 1e-12


def oracle_flip_length(metric: DecoratedMetric, edge_id: int) -> float:
    """New diagonal length by reflecting the far triangle across the edge.

    Both triangles are laid out with the shared edge on the x-axis and the
    far apex reflected below it; the result is the distance between the
    two apexes.  Independent of the surgery module's quad angles.
    """
    lengths = metric.effective_lengths
    slot_edge = metric.mesh.slot_edge_array()

    def apex_xy(t, e):
        shared = lengths[slot_edge[t, e]]
        out_len = lengths[slot_edge[t, (e + 2) % 3]]   # apex -> tail corner
        in_len = lengths[slot_edge[t, (e + 1) % 3]]    # head corner -> apex
        x = (shared * shared + out_len * out_len - in_len * in_len) / (2.0 * shared)
        y = np.sqrt(max(out_len * out_len - x * x, 0.0))
        return x, y

    (x1, y1), (x2, y2) = (apex_xy(t, e) for t, e in metric.mesh.gluings()[edge_id].tolist())
    # The second side traverses the edge backwards, so its apex abscissa is
    # measured from the other endpoint; reflect it below the axis.
    shared = lengths[edge_id]
    return float(np.hypot(x1 - (shared - x2), y1 + y2))


def oracle_delaunay_violations(metric: DecoratedMetric) -> list[tuple[int, float]]:
    """Weighted Delaunay violations, worst first, from ``oracle_face_circle`` alone.

    Every face is laid out and its orthogonal circle solved for; an edge
    sums its two faces' signed distances d1 + d2 and violates when that
    sum is below -DELAUNAY_REL_TOL times the larger sqrt|power| of the two
    faces.  Returns (edge id, (d1 + d2)/l) by ascending weight, then id.
    Raises DegenerateTriangle on an inadmissible metric.
    """
    metric = metric.copy()   # no memoized state
    validate_triangles(metric).require()
    mesh = metric.mesh
    lengths, radii = metric.effective_lengths, metric.effective_radii
    circles = [
        oracle_face_circle(lengths[sides], radii[corners])
        for sides, corners in zip(mesh.slot_edge_array(), mesh.triangles)
    ]
    violations = []
    for edge_id, sides in enumerate(mesh.gluings().tolist()):
        dsum = sum(float(circles[t][2][e]) for t, e in sides)
        scale = max(abs(circles[t][1]) for t, _ in sides)
        if dsum < -DELAUNAY_REL_TOL * np.sqrt(scale):
            violations.append((edge_id, dsum / float(lengths[edge_id])))
    return sorted(violations, key=lambda v: (v[1], v[0]))


def oracle_make_delaunay(metric: DecoratedMetric) -> list[SurgeryEvent]:
    """Sequential reference for ``make_delaunay``: one flip at a time, worst first.

    Before every flip the whole mesh is tested by
    ``oracle_delaunay_violations``, and the most negative weight goes
    first, the lowest edge id among equal weights.  Each flip is worked out
    alone, in Python floats, from a whole-mesh pass of corner angles: the
    same law of cosines and the same checks as surgery, raising the same
    error types, in the same order.
    """
    events = []
    while True:
        violations = oracle_delaunay_violations(metric)
        if not violations:
            return events
        edge_id, weight = violations[0]
        events.append(_oracle_flip(metric, edge_id, weight, len(events)))


def _oracle_flip(
    metric: DecoratedMetric, edge_id: int, weight: float, ordinal: int
) -> SurgeryEvent:
    mesh = metric.mesh
    (t1, e1), (t2, e2) = mesh.gluings()[edge_id].tolist()
    if t1 == t2:
        raise SelfFlip(f"edge {edge_id} has both sides on triangle {t1}")
    tri1, tri2 = mesh.triangles[[t1, t2]].tolist()
    i, j, k, l = tri1[e1], tri1[(e1 + 1) % 3], tri1[(e1 + 2) % 3], tri2[(e2 + 2) % 3]

    slot_edge = mesh.slot_edge_array()

    def side(t: int, e: int) -> float:
        return float(metric.effective_lengths[slot_edge[t, e % 3]])

    l_jk, l_ki, l_il, l_lj = side(t1, e1 + 1), side(t1, e1 + 2), side(t2, e2 + 1), side(t2, e2 + 2)
    angles = triangle_angles(metric)
    theta_i = float(angles[t1, e1]) + float(angles[t2, (e2 + 1) % 3])
    theta_j = float(angles[t1, (e1 + 1) % 3]) + float(angles[t2, e2])
    new = float(np.sqrt(l_ki * l_ki + l_il * l_il - 2.0 * l_ki * l_il * float(np.cos(theta_i))))
    threshold = TRIANGLE_MARGIN_REL_TOL * max(new, l_jk, l_ki, l_il, l_lj)
    for a, b in ((l_lj, l_jk), (l_ki, l_il)):
        if not min(a + b - new, b + new - a, new + a - b) > threshold:
            raise FlipProducesDegenerate(f"flip of edge {edge_id} would create a thin triangle")
    if not max(theta_i, theta_j) < pi:
        raise FlipProducesDegenerate(f"flip of edge {edge_id} would leave its quad")
    if not metric.base_squares(k, l, new) > 0:
        raise FlipProducesDegenerate(f"flip of edge {edge_id} cannot be rebased")
    mesh.flip(edge_id)
    metric.rebase_edge(edge_id, new)
    rk, rl = float(metric.effective_radii[k]), float(metric.effective_radii[l])
    inversive = (new * new - rk * rk - rl * rl) / (2.0 * rk * rl)
    return SurgeryEvent(nan, ordinal, edge_id, (i, j), (k, l), new, weight, inversive)


def oracle_class_residual(before: DecoratedMetric, after: DecoratedMetric, edge_id: int) -> float:
    """|det G| over the product of G's row norms, its Hadamard bound, for the flip of ``edge_id``.

    G is the Gram matrix of the quad's four circles i, j, k, l (the old
    diagonal i -> j), 1 on the diagonal and -I_ab off it, with I_kl read
    off ``after`` and the other five off ``before``, each from effective
    lengths and radii and the determinant from ``np.linalg.det``.  G is
    singular, and this round-off, exactly when the four circles share an
    orthogonal circle: when the flip keeps the decorated conformal class.
    """
    (t1, e1), (t2, e2) = before.mesh.gluings()[edge_id].tolist()
    corners, sides = before.mesh.triangles, before.mesh.slot_edge_array()
    quad = [*np.roll(corners[t1], -e1), corners[t2, (e2 + 2) % 3]]
    gram = np.eye(4)
    for a, b, metric, edge in (
        (0, 1, before, edge_id), (1, 2, before, sides[t1, (e1 + 1) % 3]),
        (2, 0, before, sides[t1, (e1 + 2) % 3]), (0, 3, before, sides[t2, (e2 + 1) % 3]),
        (3, 1, before, sides[t2, (e2 + 2) % 3]), (2, 3, after, edge_id),
    ):
        ra, rb = metric.effective_radii[[quad[a], quad[b]]]
        length = metric.effective_lengths[edge]
        gram[a, b] = gram[b, a] = -(length * length - ra * ra - rb * rb) / (2.0 * ra * rb)
    return float(abs(np.linalg.det(gram)) / np.prod(np.linalg.norm(gram, axis=1)))


def oracle_curvature(metric: DecoratedMetric) -> np.ndarray:
    """2 pi minus the angle sum at each vertex, from ``oracle_angles_via_layout`` per face."""
    lengths, mesh = metric.effective_lengths, metric.mesh
    k = np.full(mesh.num_vertices, 2.0 * pi)
    for sides, corners in zip(mesh.slot_edge_array(), mesh.triangles):
        np.subtract.at(k, corners, oracle_angles_via_layout(*lengths[sides]))
    return k


def oracle_located_newton(
    metric: DecoratedMetric, target: np.ndarray, tol: float = 1e-12
) -> DecoratedMetric:
    """The metric of curvature ``target`` in the decorated conformal class of ``metric``.

    Newton's method on ``oracle_curvature`` with the central-difference
    Jacobian ``fd_jacobian``: a step is delta = -J^+ g with zero
    sum, halved until the walked state is admissible and max|g| falls.
    ``oracle_walk`` flips each edge where the step crosses it, so the
    result stays in the class that ``oracle_make_delaunay`` starts from.
    Flows, whose mid-flow flips keep the class, must reach the same metric.
    Raises RuntimeError when Newton stalls or takes 100 steps.
    """
    state = metric.copy()
    oracle_make_delaunay(state)
    error = float(np.max(np.abs(oracle_curvature(state) - target)))
    for _ in range(100):
        if error < tol:
            return state
        delta = -np.linalg.pinv(fd_jacobian(state)) @ (oracle_curvature(state) - target)
        delta -= np.mean(delta)
        for _ in range(40):
            trial = state.copy()
            try:
                oracle_walk(trial, delta)
                trial_error = float(np.max(np.abs(oracle_curvature(trial) - target)))
            except (MetricError, FlipProducesDegenerate):
                trial_error = np.inf
            if trial_error < error:
                state, error = trial, trial_error
                break
            delta = 0.5 * delta
        else:
            break
    raise RuntimeError(f"located Newton stalled at max|K - target| = {error:.3e}")


def oracle_walk(metric: DecoratedMetric, delta: np.ndarray) -> None:
    """Move u to u + delta, flipping where the straight path first violates.

    ``oracle_delaunay_violations`` runs at ORACLE_WALK_POINTS evenly spaced
    points of what remains of the path, its end the last (a state that is
    not admissible counts as violating).  From the first that violates, s
    is bisected back toward the point before it, down to a bracket of
    2^-60; the worst edge is flipped at the bracket's violating end, and
    the rest of delta is walked on the new triangulation.  So an edge
    that crosses and crosses back inside the path is flipped both times,
    unless both crossings fall between two neighbouring points.
    """
    u = np.array(metric.conformal_factors)
    points = np.arange(1, ORACLE_WALK_POINTS + 1) / ORACLE_WALK_POINTS
    while True:
        for hi in points:
            metric.set_conformal_factors(u + hi * delta)
            if _oracle_violates(metric):
                break
        else:
            return
        lo = hi - 1.0 / ORACLE_WALK_POINTS
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            metric.set_conformal_factors(u + mid * delta)
            lo, hi = (lo, mid) if _oracle_violates(metric) else (mid, hi)
        u, delta = u + hi * delta, (1.0 - hi) * delta
        metric.set_conformal_factors(u)
        edge_id, weight = oracle_delaunay_violations(metric)[0]
        _oracle_flip(metric, edge_id, weight, 0)


def _oracle_violates(metric: DecoratedMetric) -> bool:
    try:
        return bool(oracle_delaunay_violations(metric))
    except MetricError:
        return True
