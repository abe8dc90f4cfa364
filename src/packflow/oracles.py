"""Brute-force reference computations and seeded random metric generation.

Everything here deliberately avoids the fast paths of the library: angles
and orthogonal circles come from explicit plane coordinates, the Delaunay
predicate from summed intersection angles, flip lengths from a reflected
layout.  Tests compare the production code against these.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateLength, DegenerateTriangle, MetricError
from .geometry import edge_half_chord
from .metric import DecoratedMetric, lengths_from_inversive, validate_triangles
from .presets import preset_complex
from .surgery import make_delaunay


@dataclass
class RandomMetricSpec:
    """Distribution of one random decorated metric.

    Radii and inversive distances are uniform in the given ranges, scale
    factors uniform in [-u_range, u_range] (not balanced to zero sum).
    Draws failing triangle validation are resampled up to ``retries``
    times.
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
        except (MetricError, DegenerateLength, DegenerateTriangle):
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


def oracle_delaunay_via_angles(metric: DecoratedMetric, edge_id: int) -> bool:
    """Weighted Delaunay test through the intersection angles.

    Computes, on each side of the edge, the angle at which the neighboring
    face's orthogonal circle crosses the edge line (via atan2 of half-chord
    and signed distance) and checks angle1 + angle2 <= pi.  The production
    predicate never forms these angles.
    """
    s1, s2 = metric.mesh.edge(edge_id).sides
    ends = metric.mesh.edge_endpoints_array()[edge_id]
    r = metric.effective_radii
    chord = float(
        edge_half_chord(metric.effective_lengths[edge_id], r[ends[0]], r[ends[1]])
    )
    total = 0.0
    for t, e in (s1, s2):
        sides = metric.effective_lengths[metric.mesh.slot_edge_array()[t]]
        d = oracle_face_circle(sides, r[metric.mesh.triangles[t]])[2][e]
        total += float(np.arctan2(chord, d))
    return total <= np.pi + 1e-12


def oracle_flip_length(metric: DecoratedMetric, edge_id: int) -> float:
    """New diagonal length by reflecting the far triangle across the edge.

    Both triangles are laid out with the shared edge on the x-axis and the
    far apex reflected below it; the result is the distance between the
    two apexes.  Independent of the surgery module's layout path.
    """
    s1, s2 = metric.mesh.edge(edge_id).sides
    lengths = metric.effective_lengths
    mesh = metric.mesh

    def apex_xy(slot):
        t, e = slot
        shared = lengths[mesh.slot_edge((t, e))]
        out_len = lengths[mesh.slot_edge((t, (e + 2) % 3))]   # apex -> tail corner
        in_len = lengths[mesh.slot_edge((t, (e + 1) % 3))]    # head corner -> apex
        x = (shared * shared + out_len * out_len - in_len * in_len) / (2.0 * shared)
        y = np.sqrt(max(out_len * out_len - x * x, 0.0))
        return x, y

    x1, y1 = apex_xy(s1)
    x2, y2 = apex_xy(s2)
    # The second side traverses the edge backwards, so its apex abscissa is
    # measured from the other endpoint; reflect it below the axis.
    shared = lengths[edge_id]
    return float(np.hypot(x1 - (shared - x2), y1 + y2))
