"""Per-triangle Euclidean data: angles, areas, and the circle orthogonal
to the three vertex circles.

Everything flows from effective lengths and radii.  The orthogonal circle
of a face (center = the point with equal power with respect to all three
vertex circles, squared radius = that common power) intersects each side
in a chord whose half-length depends only on the edge, which is what makes
the cotangent weights well defined on the glued surface:

    weight of edge e  =  (d1 + d2) / half_chord(e)

with d1, d2 the distances from the two neighboring face centers to the
edge line, signed positive toward the opposite corner.  No face is laid
out in the plane: side e runs from corner e to corner e+1 with length l_e,
the center's foot on it lies a_e = (l_e^2 + r_e^2 - r_{e+1}^2) / (2 l_e)
from corner e, and its foot on the side arriving at corner e lies
b_e = (l_{e-1}^2 + r_e^2 - r_{e-1}^2) / (2 l_{e-1}) from corner e.  With A_e
the angle at corner e,

    d_e   = (b_e - a_e cos A_e) / sin A_e
          = (b_e l_e l_{e-1} - a_e (l_e^2 + l_{e-1}^2 - l_{e+1}^2) / 2) / (2 area)
    power = a_0^2 + d_0^2 - r_0^2

(Glickenstein, JDG 2011).  ``delaunay_terms`` gives d1 + d2 per edge; the
Delaunay test reads its sign, and the operators divide it by the edge
length.  ``inner_angles`` (law of cosines) also gives surgery the corner
angles from which a flip's quad angles and new diagonal follow.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateTriangle, ImaginaryChord
from .metric import DecoratedMetric, triangle_side_lengths, validate_triangles

COS_CLAMP_TOL = 1e-9
_PREV, _NEXT = np.array([2, 0, 1]), np.array([1, 2, 0])   # side or corner e -> e-1, e+1


def _check_cos(cos: np.ndarray, what: str) -> np.ndarray:
    over = np.abs(cos) - 1.0
    if np.any(over > COS_CLAMP_TOL):
        idx = tuple(int(i) for i in np.unravel_index(int(np.argmax(over)), np.shape(cos)))
        raise DegenerateTriangle(
            f"{what}: cosine {np.asarray(cos)[idx]:.12g} at index {idx} leaves [-1, 1]"
        )
    return np.clip(cos, -1.0, 1.0)


def inner_angles(l01, l12, l20):
    """Angles (at corner 0, 1, 2) of a triangle with the given side lengths.

    Sides are labeled by the corner they leave: l01 joins corners 0 and 1,
    and so on.  Accepts scalars or aligned arrays.
    """
    l01, l12, l20 = (np.asarray(x, dtype=float) for x in (l01, l12, l20))
    cos0 = (l01 * l01 + l20 * l20 - l12 * l12) / (2.0 * l01 * l20)
    cos1 = (l12 * l12 + l01 * l01 - l20 * l20) / (2.0 * l12 * l01)
    cos2 = (l20 * l20 + l12 * l12 - l01 * l01) / (2.0 * l20 * l12)
    a0 = np.arccos(_check_cos(cos0, "angle at corner 0"))
    a1 = np.arccos(_check_cos(cos1, "angle at corner 1"))
    a2 = np.arccos(_check_cos(cos2, "angle at corner 2"))
    return a0, a1, a2


def edge_half_chord(length, r_a, r_b):
    """Half-length of the chord the orthogonal circle cuts on the edge line.

    Computed from the edge alone: with m the equal-power point of the two
    endpoint circles on the line, the squared half-chord is m^2 - r_a^2.
    Real exactly when the circles neither cross nor touch (|I| > 1).
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


# -- whole-surface batches -----------------------------------------------------


def triangle_angles(metric: DecoratedMetric) -> np.ndarray:
    """Inner angles per face, shape (F, 3), entry [t, c] at corner c."""
    sides = triangle_side_lengths(metric)
    a0, a1, a2 = inner_angles(sides[:, 0], sides[:, 1], sides[:, 2])
    return np.stack([a0, a1, a2], axis=-1)


def triangle_areas(metric: DecoratedMetric) -> np.ndarray:
    """Face areas by the stable form of Heron's rule."""
    return _heron(triangle_side_lengths(metric))


def _heron(sides: np.ndarray) -> np.ndarray:
    sides = np.sort(sides, axis=1)
    a, b, c = sides[:, 2], sides[:, 1], sides[:, 0]
    sq = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
    return 0.25 * np.sqrt(np.maximum(sq, 0.0))


def face_circles(metric: DecoratedMetric) -> tuple[np.ndarray, np.ndarray]:
    """(signed distances (F, 3), powers (F,)) of every face's orthogonal circle.

    Closed form in the side lengths and radii; raises DegenerateTriangle
    naming the face when the metric is not admissible.
    """
    validate_triangles(metric).require()
    return _circles(metric, slice(None))


def _circles(metric: DecoratedMetric, faces) -> tuple[np.ndarray, np.ndarray]:
    """``face_circles`` of ``faces`` alone: a row reads its own face only."""
    l = metric.effective_lengths[metric.mesh.slot_edge_array()[faces]]
    r = metric.effective_radii[metric.mesh.triangles[faces]]
    ll, rr = l * l, r * r
    a = (ll + rr - rr[:, _NEXT]) / (2.0 * l)
    b = (ll[:, _PREV] + rr - rr[:, _PREV]) / (2.0 * l[:, _PREV])
    dot = 0.5 * (ll + ll[:, _PREV] - ll[:, _NEXT])            # l_e l_{e-1} cos A_e
    distances = (b * l * l[:, _PREV] - a * dot) / (2.0 * _heron(l))[:, None]
    powers = a[:, 0] ** 2 + distances[:, 0] ** 2 - rr[:, 0]
    return distances, powers


DELAUNAY_REL_TOL = 1e-12


def delaunay_terms(metric: DecoratedMetric) -> tuple[np.ndarray, np.ndarray]:
    """(d1 + d2, tolerance) per edge for the weighted Delaunay test.

    d1 + d2 is the sum of the two neighboring signed distances: the
    numerator of the cotangent weight, carrying its sign, so the test reads
    it without square roots or trigonometry.  An edge is treated as
    violating only when d1 + d2 < -tolerance, with the tolerance scaled by
    the orthogonal-circle size of the two incident faces (their
    |power|^(1/2), a length).  Computed once per state of the metric, so
    the Delaunay check of an accepted trial and the operators of the next
    step share one pass; surgery patches it flip by flip.
    """
    return metric.memo(_delaunay_terms)[:2]


def _delaunay_terms(metric: DecoratedMetric) -> tuple[np.ndarray, ...]:
    """(d1 + d2, tolerance) per edge, then the face circles they come from."""
    distances, powers = face_circles(metric)
    return (*_edge_terms(distances, powers, metric.mesh.edge_sides_array()), distances, powers)


def _edge_terms(distances: np.ndarray, powers: np.ndarray, sides: np.ndarray):
    """(d1 + d2, tolerance) of the edges whose two sides (slots) are the rows of ``sides``."""
    flat, scale = distances.ravel(), np.abs(powers[sides // 3])
    tolerance = DELAUNAY_REL_TOL * np.sqrt(np.maximum(scale[:, 0], scale[:, 1]))
    return flat[sides[:, 0]] + flat[sides[:, 1]], tolerance
