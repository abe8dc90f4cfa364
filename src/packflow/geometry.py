"""Per-triangle Euclidean data: angles, areas, and the circle orthogonal
to the three vertex circles.

Everything flows from effective lengths and radii.  The orthogonal circle
of a face has its center at the point with equal power with respect to
all three vertex circles; that common power is its squared radius, a
negative one when the circles overlap.  One per-edge weight drives the
weighted Delaunay test, the Jacobian and every Laplacian:

    weight of edge e  =  (d1 + d2) / l_e

with d1, d2 the distances from the two neighboring face centers to the
edge line, signed positive toward the opposite corner.  It is defined
for every admissible metric, overlapping circles included, and its sign
is the Delaunay test's.

No face is laid out in the plane: side e runs from corner e to corner e+1
with length l_e, the center's foot on it lies
a_e = (l_e^2 + r_e^2 - r_{e+1}^2) / (2 l_e) from corner e, and its foot
on the side arriving at corner e lies
b_e = (l_{e-1}^2 + r_e^2 - r_{e-1}^2) / (2 l_{e-1}) from corner e.  With A_e
the angle at corner e, from the law of cosines

    l_e l_{e-1} cos A_e = (l_e^2 + l_{e-1}^2 - l_{e+1}^2) / 2,
    d_e   = (b_e - a_e cos A_e) / sin A_e
          = (b_e l_e l_{e-1} - a_e l_e l_{e-1} cos A_e) / (2 area)
    power = a_0^2 + d_0^2 - r_0^2

(Glickenstein, JDG 2011).  One kernel evaluates angles, distances and
powers face by face from side-major arrays, never from a metric: lengths
and radii as (3, F) columns, row e holding side or corner e of every
face, so sides e-1 and e+1 are whole rows.  The whole-mesh pass gathers
them once per metric state with ``take`` on the complex's side-major
views, laid out for it: the lengths are the gather the margin gate reads
(through ``edge_of``), the radii are gathered through ``corners``, and
no gather reads a strided column.  It runs the kernel behind that gate,
so surgery pays for one more pass per round of flips, and reads d1 + d2
of each edge at the edge's two ``sides``, the powers at their faces
(``at_faces``).  Heron's rule orders each face's sides by
maximum and minimum, which select the values a sort would, with no
sort.  Behind the gate the cosine ratio leaves [-1, 1] by roundoff only,
so a clip, not a guard, keeps arccos defined.  Curvature sums the
angles, a flip reads its quad angles, and ``delaunay_terms`` gives
d1 + d2 per edge: the Delaunay test reads its sign, and
``edge_weights`` divides it by the edge length for surgery's ranking
and the operators.
"""

from __future__ import annotations

import numpy as np

from .mesh import DeltaComplex
from .metric import DecoratedMetric, triangle_side_lengths, validate_triangles

_PREV, _NEXT = np.array([2, 0, 1]), np.array([1, 2, 0])   # side or corner e -> e-1, e+1


# -- whole-surface batches -----------------------------------------------------


def triangle_angles(metric: DecoratedMetric) -> np.ndarray:
    """Inner angles per face, shape (F, 3), entry [t, c] at corner c."""
    return metric.memo(_terms)[0]


def triangle_areas(metric: DecoratedMetric) -> np.ndarray:
    """Face areas by the stable form of Heron's rule."""
    return _heron(*triangle_side_lengths(metric).T)


def _heron(l0: np.ndarray, l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
    """Heron's rule on the sides ordered a >= b >= c, picked by maximum and
    minimum: the values a sort would select, with no sort."""
    lo, hi = np.minimum(l0, l1), np.maximum(l0, l1)
    a, b, c = np.maximum(hi, l2), np.maximum(lo, np.minimum(hi, l2)), np.minimum(lo, l2)
    a_b = a - b
    sq = (a + (b + c)) * (c - a_b) * (c + a_b) * (a + (b - c))
    return 0.25 * np.sqrt(np.maximum(sq, 0.0))


def face_circles(metric: DecoratedMetric) -> tuple[np.ndarray, np.ndarray]:
    """(signed distances (F, 3), powers (F,)) of every face's orthogonal circle."""
    return metric.memo(_terms)[1:3]


def _faces(l: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(angles, distances, powers) of the faces of side-major side lengths
    ``l`` and corner radii ``r``, (3, B) with row e holding side or corner e
    of every face: a column reads its own face only.

    Sides e-1 and e+1 are whole rows, gathered by ``take``; angles and
    distances are computed side-major and handed out face-major, (B, 3), as
    transposed views.
    """
    ll, rr = l * l, r * r
    lp, llp = l.take(_PREV, axis=0), ll.take(_PREV, axis=0)
    a = (ll + rr - rr.take(_NEXT, axis=0)) / (2.0 * l)
    b = (llp + rr - rr.take(_PREV, axis=0)) / (2.0 * lp)
    dot = 0.5 * (ll + llp - ll.take(_NEXT, axis=0))          # l_e l_{e-1} cos A_e
    angles = np.arccos((dot / (l * lp)).clip(-1.0, 1.0))
    distances = (b * l * lp - a * dot) / (2.0 * _heron(*l))
    powers = a[0] ** 2 + distances[0] ** 2 - rr[0]
    return angles.T, distances.T, powers


DELAUNAY_REL_TOL = 1e-12


def delaunay_terms(metric: DecoratedMetric) -> tuple[np.ndarray, np.ndarray]:
    """(d1 + d2, tolerance) per edge for the weighted Delaunay test.

    d1 + d2 is the sum of the two neighboring signed distances: the
    numerator of ``edge_weights``, carrying its sign, so the test reads
    it without square roots or trigonometry.  An edge is treated as
    violating only when d1 + d2 < -tolerance, with the tolerance scaled by
    the orthogonal-circle size of the two incident faces (their
    |power|^(1/2), a length).  Computed once per state of the metric, so
    the Delaunay check of an accepted trial and the operators of the next
    step share one pass.
    """
    return metric.memo(_terms)[3:]


def edge_weights(metric: DecoratedMetric, edges=None) -> np.ndarray:
    """(d1 + d2) / l of ``edges`` (all by default): the weight surgery ranks
    flips by and the coefficient of the Jacobian and every Laplacian.
    Computed once per state of the metric; all of them are one read-only array."""
    weights = metric.memo(_weights)[0]
    return weights if edges is None else weights[edges]


def _weights(metric: DecoratedMetric) -> tuple[np.ndarray]:
    return (delaunay_terms(metric)[0] / metric.effective_lengths,)


def _terms(metric: DecoratedMetric) -> tuple[np.ndarray, ...]:
    """(angles, distances, powers) of every face, then (d1 + d2, tolerance) per edge.

    Raises DegenerateTriangle naming the face when the metric is not
    admissible.
    """
    validate_triangles(metric).require()
    radii = metric.effective_radii.take(metric.mesh.corners)
    angles, distances, powers = _faces(triangle_side_lengths(metric).T, radii)
    return angles, distances, powers, *_edge_terms(distances.T, powers, metric.mesh)


def _edge_terms(distances: np.ndarray, powers: np.ndarray, mesh: DeltaComplex):
    """(d1 + d2, tolerance) of every edge of ``mesh``, read at its two sides, from the
    side-major (3, F) ``distances`` and the faces' ``powers``."""
    sides = mesh.sides
    d1, d2 = distances.take(sides)
    p1, p2 = mesh.at_faces(np.abs(powers), sides)
    return d1 + d2, DELAUNAY_REL_TOL * np.sqrt(np.maximum(p1, p2))
