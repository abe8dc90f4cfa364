"""Edge lengths induced by circles at the vertices, and their conformal scaling.

A decorated metric stores, per vertex, a circle radius, and per edge a base
length, together with one log scale factor per vertex.  Scaling factor u
changes radii by exp(u_i) and lengths by the mixed rule below, which is
exactly the change that keeps every inversive distance

    I_e = (l^2 - r_a^2 - r_b^2) / (2 r_a r_b)

fixed.  Geometry downstream reads the effective lengths and radii; only
a flip in the decorated conformal class reads the base data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateLength,
    DegenerateTriangle,
    InvalidInversiveDistance,
    MetricError,
    NonPositiveRadius,
)
from .mesh import DeltaComplex, _read_only

TRIANGLE_MARGIN_REL_TOL = 1e-12


@dataclass
class MarginReport:
    """Triangle-inequality slack and its threshold for every face at a given scale factor."""

    margins: np.ndarray
    threshold: np.ndarray

    @property
    def worst_triangle(self) -> int:
        """The face that clears its threshold by the least."""
        return int(np.argmin(self.margins - self.threshold))

    @property
    def admissible(self) -> bool:
        return bool((self.margins > self.threshold).all())

    def require(self) -> None:
        if not self.admissible:
            raise DegenerateTriangle(
                f"triangle {self.worst_triangle} has margin"
                f" {self.margins[self.worst_triangle]:.3e}"
                f" (threshold {self.threshold[self.worst_triangle]:.3e})"
            )


def lengths_from_inversive(
    mesh: DeltaComplex, radii: np.ndarray, inversive: np.ndarray
) -> np.ndarray:
    """Edge lengths l = sqrt(r_a^2 + r_b^2 + 2 I r_a r_b), one per edge id."""
    radii = _radii(np.asarray(radii, dtype=float))
    inversive = np.asarray(inversive, dtype=float)
    if np.any(inversive <= -1.0):
        bad = np.where(inversive <= -1.0)[0]
        raise InvalidInversiveDistance(
            f"inversive distance must exceed -1; edges {bad.tolist()[:8]}"
        )
    ra, rb = radii.take(mesh.ends)
    with np.errstate(over="ignore"):
        sq = ra * ra + rb * rb + 2.0 * inversive * ra * rb
    if (over := np.flatnonzero(np.isinf(sq))).size:
        raise DegenerateLength(f"squared length overflows on edges {over.tolist()[:8]}")
    return np.sqrt(_positive(sq, DegenerateLength, "squared length non-positive on edges"))


def _vector(values, size: int, error: type[MetricError], noun: str) -> np.ndarray:
    """``values`` as a new float array of shape (size,), or ``error`` naming the shape."""
    values = np.array(values, dtype=float)
    if values.shape != (size,):
        raise error(f"expected {size} {noun}, got shape {values.shape}")
    return values


def _positive(values: np.ndarray, error: type[MetricError], what: str) -> np.ndarray:
    """``values``, unless an entry is not positive and finite: then ``error``
    naming ``what`` and the first eight such ids."""
    if not (values.min(initial=np.inf) > 0 and values.max(initial=0.0) < np.inf):  # NaN fails
        bad = np.flatnonzero(~(values > 0) | ~np.isfinite(values))
        raise error(f"{what} {bad.tolist()[:8]}")
    return values


def _radii(radii: np.ndarray) -> np.ndarray:
    """``radii``, unless one is not positive and finite or its square overflows:
    then NonPositiveRadius naming the first eight such vertices."""
    _positive(radii, NonPositiveRadius, "radii must be positive and finite; vertices")
    with np.errstate(over="ignore"):
        bad = np.flatnonzero(np.isinf(radii * radii))
    if bad.size:
        raise NonPositiveRadius(f"radii must have a finite square; vertices {bad.tolist()[:8]}")
    return radii


class DecoratedMetric:
    """A circle-decorated piecewise flat metric on a fixed complex.

    The mesh may be mutated by flips (single writer); every cached array
    here is keyed by the mesh version and the scale-factor token, so reads
    always see current data.
    """

    def __init__(
        self,
        mesh: DeltaComplex,
        base_lengths: np.ndarray,
        radii: np.ndarray,
        conformal_factors: np.ndarray | None = None,
    ):
        n = mesh.num_vertices
        radii = _vector(radii, n, NonPositiveRadius, "radii")
        self.radii = _radii(radii)
        l = _vector(base_lengths, mesh.num_edges, DegenerateLength, "edge lengths")
        self.base_lengths = _positive(l, DegenerateLength, "edge lengths must be positive; edges")
        self.mesh = mesh
        u = np.zeros(n) if conformal_factors is None else conformal_factors
        self._u = _vector(u, n, DegenerateLength, "scale factors")
        self._u_token = 0
        self._memo: dict = {}

    # -- scale factors -----------------------------------------------------------

    @property
    def conformal_factors(self) -> np.ndarray:
        return _read_only(self._u)

    def set_conformal_factors(self, u: np.ndarray) -> None:
        u = np.array(u, dtype=float)
        if u.shape != self._u.shape:
            raise ValueError(f"scale factor shape {u.shape} != {self._u.shape}")
        self._u = u
        self._u_token += 1

    # -- effective data ------------------------------------------------------------

    def memo(self, compute) -> tuple[np.ndarray, ...]:
        """``compute(self)``, a tuple of arrays, computed once per state.

        A state is one triangulation (the mesh version) with one set of
        scale factors; a flip, new scale factors or a rebased edge starts a
        new one.  ``compute`` returns new arrays, which are made read-only
        and handed out as they are.
        """
        key, hit = (self.mesh.version, self._u_token), self._memo.get(compute)
        if hit is None or hit[0] != key:
            arrays = compute(self)
            for arr in arrays:
                arr.flags.writeable = False
            hit = self._memo[compute] = (key, arrays)
        return hit[1]

    @property
    def effective_lengths(self) -> np.ndarray:
        return self.memo(_effective_data)[0]

    @property
    def effective_radii(self) -> np.ndarray:
        return self.memo(_effective_data)[1]

    def copy(self) -> "DecoratedMetric":
        """An independent copy with an empty memo; its data passed the checks already."""
        dup = DecoratedMetric.__new__(DecoratedMetric)
        dup.__dict__.update(
            mesh=self.mesh.copy(), base_lengths=self.base_lengths.copy(), radii=self.radii.copy(),
            _u=self._u.copy(), _u_token=0, _memo={},
        )
        return dup

    def base_squares(self, tails, heads, effective_lengths) -> np.ndarray:
        """The scaling rule solved for l^2 at the current u, on edges from vertices ``tails``
        to ``heads`` of ``effective_lengths``: not positive where no base length fits."""
        (ua, ub), (ra, rb) = self._u[[tails, heads]], self.radii[[tails, heads]]
        ea, eb, eab = np.exp(2.0 * ua), np.exp(2.0 * ub), np.exp(ua + ub)
        target = np.asarray(effective_lengths, dtype=float)
        return (target * target - (ea - eab) * ra**2 - (eb - eab) * rb**2) / eab

    def rebase_edge(self, edge_ids, effective_lengths) -> None:
        """Store base lengths for ``edge_ids`` (one id or an array) so that
        the current scale factors reproduce ``effective_lengths``.

        Used after an isometric flip: a new diagonal's geometric length is
        known in the effective metric and has to be divided back through
        the scaling rule at the current u (``base_squares``, which
        ``surgery.flip_metric`` reads before it writes).  Raises
        DegenerateLength naming the first edge whose squared base length
        is not positive, before any write.
        """
        ids = np.atleast_1d(self.mesh._edge_ids(edge_ids))
        sq = self.base_squares(*self.mesh.ends[:, ids], effective_lengths)
        bad = np.flatnonzero(~(sq > 0))
        if bad.size:
            raise DegenerateLength(
                f"cannot rebase edge {ids[bad[0]]}: squared base length {sq[bad[0]]:.3e}"
            )
        self.base_lengths[ids] = np.sqrt(sq)
        self._u_token += 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"DecoratedMetric({self.mesh!r}, |u|_inf={np.max(np.abs(self._u)):.3g})"


def _effective_data(metric: DecoratedMetric) -> tuple[np.ndarray, ...]:
    """(lengths, radii) at the metric's scale factors, then the lengths gathered
    side-major, (3, F) with row e holding side e of every face, and each face's margin gate."""
    lengths, radii = apply_conformal(metric, metric._u)
    sides = lengths.take(metric.mesh.edge_of)
    return lengths, radii, sides, *triangle_margins(*sides)


def apply_conformal(metric: DecoratedMetric, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Effective (lengths, radii) of ``metric`` under scale factors ``u``.

    Lengths follow

        l~^2 = (e^{2u_a} - e^{u_a+u_b}) r_a^2 + (e^{2u_b} - e^{u_a+u_b}) r_b^2
             + e^{u_a+u_b} l^2

    which for a loop edge (a == b) collapses to l~ = e^{u_a} l, since the
    first two terms vanish identically.  Scale factors whose exponentials
    overflow give non-finite squares, which raise DegenerateLength like
    non-positive ones.  Each end's values are gathered as one (2, E) array,
    and exp(2u) is taken once per vertex.
    """
    u = np.asarray(u, dtype=float)
    ends = metric.mesh.ends
    ua, ub = u.take(ends)
    r = metric.radii.take(ends)
    with np.errstate(over="ignore", invalid="ignore"):
        eab = np.exp(ua + ub)
        sa, sb = (np.exp(2.0 * u).take(ends) - eab) * r * r
        sq = sa + sb + eab * metric.base_lengths**2
    what = "scaled squared length non-positive or non-finite on edges"
    return np.sqrt(_positive(sq, DegenerateLength, what)), np.exp(u) * metric.radii


def inversive_from_lengths(metric: DecoratedMetric) -> np.ndarray:
    """Per-edge inversive distances read off the effective lengths and radii.

    Invariant under scale factors, so this recovers the base decoration.
    """
    ra, rb = metric.effective_radii.take(metric.mesh.ends)
    l = metric.effective_lengths
    return (l * l - ra * ra - rb * rb) / (2.0 * ra * rb)


def triangle_side_lengths(metric: DecoratedMetric) -> np.ndarray:
    """Effective lengths under each (triangle, side) slot, shape (F, 3)."""
    return metric.memo(_effective_data)[2].T


def validate_triangles(metric: DecoratedMetric) -> MarginReport:
    """Triangle-inequality margins for every face.

    The margin of a face is the smallest of the three sums-of-two-sides
    minus the third side; the metric is admissible iff every margin clears
    TRIANGLE_MARGIN_REL_TOL times its face's own longest side, whatever
    the range of scales across the mesh, and the worst face clears it by
    the least.  Computed once per state of the metric; to probe other
    scale factors, set them on a copy.
    """
    return MarginReport(*metric.memo(_effective_data)[3:])


def triangle_margins(s0, s1, s2) -> tuple[np.ndarray, np.ndarray]:
    """(margin, threshold) per face of sides s0, s1, s2, the gate of every state and of a
    flip's new faces: the smallest sum of two sides minus the third, and
    TRIANGLE_MARGIN_REL_TOL times the longest side; a face passes where margin > threshold."""
    longest = np.maximum(np.maximum(s0, s1), s2)  # np.max(axis=...) is 15x slower
    margin = np.minimum(np.minimum(s0 + s1 - s2, s1 + s2 - s0), s2 + s0 - s1)
    return margin, TRIANGLE_MARGIN_REL_TOL * longest
