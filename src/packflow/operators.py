"""Curvature, its scale-factor Jacobian, and the discrete Laplace operators.

The curvature of a marked vertex is 2*pi minus the sum of the incident
corner angles; its differential in the log scale factors assembles from
the same edge weights that drive the Delaunay test:

    dK_i/du_j = -(d1 + d2) / l_e          (j != i, summed over edges {i, j})
    dK_i/du_i = -sum of the off-diagonal row entries

so the matrix is symmetric with zero row sums, and positive semidefinite
with a one-dimensional kernel of constants on a connected surface.  The
discrete Laplacian is minus this matrix.  Every Laplacian the flows use is
applied edge by edge from those weights: the p-th variant replaces each
edge difference by its (p-1)-homogeneous odd power, and p = 2 is the plain
Laplacian of the Calabi flow.  The dense matrix is assembled only where
its spectrum is needed, for fractional powers and the finite-difference
check; ``apply_laplacian`` on it is the reference for the edge flux.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateLength,
    DegenerateTriangle,
    IndefiniteOperator,
    InvalidExponent,
    NoConvergence,
    StepLeavesAdmissible,
)
from .geometry import delaunay_terms, triangle_angles
from .metric import DecoratedMetric

EIGEN_ZERO_REL_TOL = 1e-12
FD_STEP = 1e-6
P_DIFF_REL_TOL = 1e-14

def curvature(metric: DecoratedMetric) -> np.ndarray:
    """Per-vertex curvature 2*pi - (incident corner angles), shape (N,).

    Loops and repeated edges are handled for free: every corner of every
    triangle contributes exactly once to its vertex label.  Computed once
    per state of the metric.
    """
    return metric.memo(_curvature)[0]


def _curvature(metric: DecoratedMetric) -> tuple[np.ndarray]:
    angles = triangle_angles(metric)
    angle_sum = np.bincount(
        metric.mesh.triangles.ravel(), angles.ravel(), minlength=metric.mesh.num_vertices
    )
    return (2.0 * np.pi - angle_sum,)


def gauss_bonnet_residual(metric: DecoratedMetric) -> float:
    """sum(K) - 2*pi*chi; zero up to roundoff for any admissible metric."""
    return float(np.sum(curvature(metric)) - 2.0 * np.pi * metric.mesh.euler_characteristic)


def _edge_weights(metric: DecoratedMetric) -> np.ndarray:
    """Per-edge coefficient (d1 + d2) / l of the Jacobian and every Laplacian."""
    dsum, _ = delaunay_terms(metric)
    return dsum / metric.effective_lengths


def jacobian(metric: DecoratedMetric) -> np.ndarray:
    """Dense symmetric dK/du, shape (N, N), from the edge weights (d1 + d2)/l.

    Each edge {a, b} adds +c to (a, a) and (b, b) and -c to (a, b) and
    (b, a); a loop edge therefore contributes net zero, which matches the
    finite-difference behavior of curvature on loop-carrying complexes.
    On a triangulation that is not weighted Delaunay some off-diagonal
    entries may be positive.
    """
    coeff = _edge_weights(metric)
    ends = metric.mesh.edge_endpoints_array()
    n = metric.mesh.num_vertices
    a, b = ends[:, 0], ends[:, 1]
    # flat indices of (a, a), (b, b), (a, b) and (b, a), added in that order
    flat = np.concatenate([a * (n + 1), b * (n + 1), a * n + b, b * n + a])
    weights = np.concatenate([coeff, coeff, -coeff, -coeff])
    return np.bincount(flat, weights, minlength=n * n).reshape(n, n)


def fd_jacobian(metric: DecoratedMetric) -> np.ndarray:
    """Central-difference dK/du, step FD_STEP, with the triangulation held fixed.

    Independent of the analytic assembly; the arbiter whenever the two
    disagree.  Probes that leave the admissible cone raise
    StepLeavesAdmissible rather than differencing garbage.
    """
    n = metric.mesh.num_vertices
    scratch = metric.copy()
    u0 = np.array(metric.conformal_factors)
    out = np.empty((n, n))
    for jcol in range(n):
        cols = []
        for sign in (+1.0, -1.0):
            u = u0.copy()
            u[jcol] += sign * FD_STEP
            scratch.set_conformal_factors(u)
            try:
                cols.append(curvature(scratch))
            except (DegenerateLength, DegenerateTriangle) as exc:
                raise StepLeavesAdmissible(
                    f"finite-difference probe at vertex {jcol} (sign {sign:+.0f})"
                    f" leaves the admissible cone: {exc}"
                ) from exc
        out[:, jcol] = (cols[0] - cols[1]) / (2.0 * FD_STEP)
    return out


def spectral(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigendecomposition matrix = P.T @ diag(lam) @ P.

    Rows of P are eigenvectors; lam is ascending.  Eigenvalues within
    1e-12 of zero relative to the largest belong to the constants kernel
    on connected weighted Delaunay data.
    """
    mat = np.asarray(matrix, dtype=float)
    try:
        lam, vecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to provoke
        raise NoConvergence(f"symmetric eigensolver failed: {exc}") from exc
    return vecs.T, lam


def apply_laplacian(operator: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Discrete Laplacian: minus the Jacobian applied to f."""
    mat = np.asarray(operator, dtype=float)
    return -(mat @ np.asarray(f, dtype=float))


def apply_fractional(operator: np.ndarray, s: float, f: np.ndarray) -> np.ndarray:
    """Fractional Laplacian -(dK/du)^s f through the spectral decomposition.

    s = 0 bypasses the decomposition and returns -f exactly (the negative
    identity), so the s = 0 flow and the curvature flow coincide bit for
    bit.  For s != 0, eigenvalues within 1e-12 of zero relative to the
    largest are treated as the kernel and map to zero for every s,
    negative exponents included.  Eigenvalues below that band are real
    negatives: an integer s powers them as usual, any other s raises
    IndefiniteOperator, because the fractional power does not exist and
    silently producing NaN would poison the caller.
    """
    f = np.asarray(f, dtype=float)
    if s == 0.0:
        return -f
    p, lam = spectral(operator)
    lam_max = float(lam[-1]) if lam.size else 0.0
    cut = EIGEN_ZERO_REL_TOL * max(lam_max, 0.0)
    negatives = int(np.sum(lam < -cut))
    if negatives and s != int(s):
        raise IndefiniteOperator(
            f"cannot take power {s} of an operator with {negatives} negative"
            f" eigenvalue(s) (most negative {float(lam[0]):.3e}); the"
            f" triangulation violates the weighted Delaunay condition"
        )
    kernel = np.abs(lam) <= cut
    powered = np.where(kernel, 1.0, lam) ** s
    powered = np.where(kernel, 0.0, powered)
    return -(p.T @ (powered * (p @ f)))


def apply_p_laplacian(metric: DecoratedMetric, p: float, f: np.ndarray) -> np.ndarray:
    """p-th discrete Laplacian: per edge, c_e |f_b - f_a|^(p-2) (f_b - f_a),
    accumulated antisymmetrically, so the result always sums to zero.

    At p = 2 this is the Laplacian of the Calabi flow in O(E), equal to
    ``apply_laplacian(jacobian(metric), f)`` up to roundoff.  For p < 2 the
    odd power is singular at equal values and is extended by its limit 0
    whenever |f_b - f_a| <= 1e-14 ||f||.  Exponents p <= 1 are rejected.
    Loop edges contribute nothing (the difference is zero).
    """
    if not p > 1.0:
        raise InvalidExponent(f"p-Laplacian exponent must exceed 1, got {p}")
    f = np.asarray(f, dtype=float)
    coefficients = _edge_weights(metric)
    ends = metric.mesh.edge_endpoints_array()
    diff = f[ends[:, 1]] - f[ends[:, 0]]
    if p >= 2.0:
        flux = coefficients * np.abs(diff) ** (p - 2.0) * diff
    else:
        tiny = np.abs(diff) <= P_DIFF_REL_TOL * float(np.max(np.abs(f), initial=0.0))
        safe = np.where(tiny, 1.0, diff)
        flux = np.where(tiny, 0.0, coefficients * np.abs(safe) ** (p - 2.0) * safe)
    return np.bincount(
        ends.T.ravel(), np.concatenate([flux, -flux]), minlength=metric.mesh.num_vertices
    )


def calabi_energy(curv: np.ndarray, target: np.ndarray) -> float:
    """Squared deviation sum((K - target)^2)."""
    diff = np.asarray(curv, dtype=float) - np.asarray(target, dtype=float)
    return float(diff @ diff)
