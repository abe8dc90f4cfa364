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
powers face by face; it runs on the whole mesh once per metric state,
behind the triangle-margin gate, so surgery pays for one more pass per
round of flips.  It reads its faces side-major: lengths and radii are
gathered as (3, F) columns, row e holding side or corner e of every face,
so sides e-1 and e+1 are whole rows, and the margin gate reads the same
gather.  Heron's rule orders each face's sides by maximum and minimum,
which select the values a sort would, with no sort.  Behind the gate
the cosine ratio leaves [-1, 1] by roundoff only, so a clip, not a
guard, keeps arccos defined.  Curvature sums the angles, a flip reads
its quad angles, and ``delaunay_terms`` gives d1 + d2 per edge: the
Delaunay test reads its sign, and ``edge_weights`` divides it by the
edge length for surgery's ranking and the operators.
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
    sq = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
    return 0.25 * np.sqrt(np.maximum(sq, 0.0))


def face_circles(metric: DecoratedMetric) -> tuple[np.ndarray, np.ndarray]:
    """(signed distances (F, 3), powers (F,)) of every face's orthogonal circle."""
    return metric.memo(_terms)[1:3]


def _faces(metric: DecoratedMetric, faces) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(angles, distances, powers) of ``faces`` alone: a row reads its own face only.

    The sides and corners are gathered side-major, row e holding side or
    corner e of every face, so sides e-1 and e+1 are whole rows; angles and
    distances are written back face-major, shape (..., 3).
    """
    l = metric.effective_lengths[metric.mesh.slot_edge_array()[faces].T]
    r = metric.effective_radii[metric.mesh.triangles[faces].T]
    ll, rr = l * l, r * r
    lp, llp = l[_PREV], ll[_PREV]
    a = (ll + rr - rr[_NEXT]) / (2.0 * l)
    b = (llp + rr - rr[_PREV]) / (2.0 * lp)
    dot = 0.5 * (ll + llp - ll[_NEXT])                         # l_e l_{e-1} cos A_e
    angles, distances = np.empty(l.shape[::-1]), np.empty(l.shape[::-1])
    np.arccos(np.clip(dot / (l * lp), -1.0, 1.0), out=angles.T)
    np.divide(b * l * lp - a * dot, 2.0 * _heron(*l), out=distances.T)
    powers = a[0] ** 2 + distances.T[0] ** 2 - rr[0]
    return angles, distances, powers


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


def edge_weights(metric: DecoratedMetric, edges=slice(None)) -> np.ndarray:
    """(d1 + d2) / l of ``edges`` (all by default): the weight surgery ranks
    flips by and the coefficient of the Jacobian and every Laplacian."""
    return delaunay_terms(metric)[0][edges] / metric.effective_lengths[edges]


def _terms(metric: DecoratedMetric) -> tuple[np.ndarray, ...]:
    """(angles, distances, powers) of every face, then (d1 + d2, tolerance) per edge.

    Raises DegenerateTriangle naming the face when the metric is not
    admissible.
    """
    validate_triangles(metric).require()
    angles, distances, powers = _faces(metric, slice(None))
    return angles, distances, powers, *_edge_terms(distances, powers, metric.mesh)


def _edge_terms(distances: np.ndarray, powers: np.ndarray, mesh: DeltaComplex):
    """(d1 + d2, tolerance) of every edge of ``mesh``, read at its two sides (slots)."""
    first = mesh._edge_side
    second = mesh._twin[first]
    flat = distances.ravel()
    scale = np.maximum(np.abs(powers[first // 3]), np.abs(powers[second // 3]))
    return flat[first] + flat[second], DELAUNAY_REL_TOL * np.sqrt(scale)
