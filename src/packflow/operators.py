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
Laplacian of the Calabi flow.  ``edge_laplacian`` applies any edge weights
linearly, which is all that the flows' linearly implicit steps need: the
conjugate gradients of ``solve_shifted``, which take every step, and the
Lanczos basis of ``fractional_velocity``, whose Ritz values
``fractional_powers`` powers, and in whose coordinates a fractional step's
conjugate gradients start (augmented CG, Erhel-Guyomarc'h 2000, in the
Lanczos form, Greenbaum 1997), so that they only check or finish the
Galerkin solution there.  No flow assembles the dense matrix: ``packflow
jacobian-check`` compares it with the finite-difference one, and
``spectral``, ``apply_laplacian`` and ``apply_fractional`` on it are the
dense references.
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
from .geometry import edge_weights, triangle_angles
from .metric import DecoratedMetric

EIGEN_ZERO_REL_TOL = 1e-12
FD_STEP = 1e-6
P_DIFF_REL_TOL = 1e-14
CG_MAX_SWEEPS = 4
DOT_ROUNDOFF = 64 * np.finfo(float).eps  # r . J r within this times |r| |J r| is round-off
LANCZOS_BLOCK = 8   # Lanczos steps to the first checkpoint, and the fewest between two

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


def jacobian(metric: DecoratedMetric) -> np.ndarray:
    """Dense symmetric dK/du, shape (N, N), from the edge weights (d1 + d2)/l.

    Each edge {a, b} adds +c to (a, a) and (b, b) and -c to (a, b) and
    (b, a); a loop edge therefore contributes net zero, which matches the
    finite-difference behavior of curvature on loop-carrying complexes.
    On a triangulation that is not weighted Delaunay some off-diagonal
    entries may be positive.
    """
    coeff = edge_weights(metric)
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
    bit.  For s != 0 the eigenvalues are powered by ``fractional_powers``.
    """
    f = np.asarray(f, dtype=float)
    if s == 0.0:
        return -f
    p, lam = spectral(operator)
    return -(p.T @ (fractional_powers(lam, s) * (p @ f)))


def fractional_powers(lam: np.ndarray, s: float) -> np.ndarray:
    """lam ** s for ascending eigenvalues, with the kernel mapped to zero.

    Eigenvalues within 1e-12 of zero relative to the largest are treated
    as the kernel and map to zero for every s, negative exponents
    included.  Eigenvalues below that band are real negatives: an integer
    s powers them as usual, any other s raises IndefiniteOperator, because
    the fractional power does not exist and silently producing NaN would
    poison the caller.
    """
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
    return np.where(kernel, 0.0, powered)


def apply_p_laplacian(metric: DecoratedMetric, p: float, f: np.ndarray) -> np.ndarray:
    """p-th discrete Laplacian: per edge, c_e |f_b - f_a|^(p-2) (f_b - f_a),
    accumulated antisymmetrically, so the result always sums to zero.

    At p = 2 this is the Laplacian of the Calabi flow in O(E), equal to
    ``apply_laplacian(jacobian(metric), f)`` up to roundoff.  It is the
    edge Laplacian on the weights of ``p_rates``.  Loop edges contribute
    nothing (the difference is zero).
    """
    f = np.asarray(f, dtype=float)
    return -edge_laplacian(metric, p_rates(metric, p, f)[0])(f)


def p_rates(metric: DecoratedMetric, p: float, f: np.ndarray) -> tuple[np.ndarray, float]:
    """Per edge c_e |f_b - f_a|^(p-2), the weights on which the p-th
    Laplacian of f is the edge Laplacian of f, and max |f_b - f_a|.

    For p < 2 the odd power is singular at equal values and is extended by
    its limit 0: an edge with |f_b - f_a| <= 1e-14 ||f|| weighs 0.
    Exponents p <= 1 are rejected.
    """
    if not p > 1.0:
        raise InvalidExponent(f"p-Laplacian exponent must exceed 1, got {p}")
    ends = metric.mesh.edge_endpoints_array()
    jumps = np.abs(f[ends[:, 1]] - f[ends[:, 0]])
    spread = np.max(jumps)
    if p < 2.0:  # inf ** (p - 2) is 0: the limit of the odd power
        tiny = jumps <= P_DIFF_REL_TOL * float(np.max(np.abs(f), initial=0.0))
        jumps = np.where(tiny, np.inf, jumps)
    return edge_weights(metric) * jumps ** (p - 2.0), spread


def calabi_energy(curv: np.ndarray, target: np.ndarray) -> float:
    """Squared deviation sum((K - target)^2)."""
    diff = np.asarray(curv, dtype=float) - np.asarray(target, dtype=float)
    return float(diff @ diff)


def edge_laplacian(metric: DecoratedMetric, weights: np.ndarray):
    """f -> L f with (L f)_a = sum over the edges {a, b} of w_e (f_a - f_b), in O(E).

    The weights (d1 + d2)/l give dK/du; loop edges contribute nothing.
    """
    ends, n = metric.mesh.edge_endpoints_array(), metric.mesh.num_vertices
    a, b = np.ascontiguousarray(ends[:, 0]), np.ascontiguousarray(ends[:, 1])
    both = np.concatenate([a, b])

    def apply(f: np.ndarray) -> np.ndarray:
        flux = weights * (f[a] - f[b])
        return np.bincount(both, np.concatenate([flux, -flux]), minlength=n)

    return apply


def solve_shifted(
    apply_j, apply_w, h: float, v: np.ndarray, rtol: float, x0: np.ndarray | None = None
) -> np.ndarray:
    """x with (I + h W J) x = v, by conjugate gradients in the J-inner product.

    With J = dK/du and W symmetric positive semidefinite, W J is
    self-adjoint and positive semidefinite for <a, b> = a . J b, a norm on
    the zero-sum vectors of a connected weighted Delaunay surface.  Each
    iteration applies J and W once; it stops when the residual's J-norm
    is rtol times v's, or is zero: r . J r within the dot product's own
    rounding, DOT_ROUNDOFF |r| |J r|, of 0.  The iteration starts at x0
    (default 0), whose residual costs two applies of J besides v's own;
    the stop stays relative to v's J-norm, so a start that already meets
    it returns as it is, and one that falls short is finished.  A
    non-positive curvature, or a residual J-norm negative beyond that
    rounding, means J is indefinite (a triangulation that is not weighted
    Delaunay): IndefiniteOperator.  Past CG_MAX_SWEEPS * N iterations:
    NoConvergence.
    """
    r, jr = v, apply_j(v)
    rho0 = float(r @ jr)
    if x0 is None:
        x = np.zeros_like(v)
    else:
        x, r = x0, v - x0 - h * apply_w(apply_j(x0))
        jr = apply_j(r)
    p, jp = r, jr
    rho = float(r @ jr)
    limit = CG_MAX_SWEEPS * v.size
    for _ in range(limit):
        if not rho > rtol * rtol * rho0:
            if not rho >= -DOT_ROUNDOFF * float(np.linalg.norm(r) * np.linalg.norm(jr)):
                raise IndefiniteOperator(f"dK/du is indefinite: r . J r = {rho:.3e}")
            return x
        bp = p + h * apply_w(jp)
        curv = float(jp @ bp)  # p . J (I + h W J) p
        if not curv > 0.0:
            raise IndefiniteOperator(f"I + h W J is not positive definite: {curv:.3e}")
        x, r = x + (rho / curv) * p, r - (rho / curv) * bp
        jr = apply_j(r)
        rho, previous = float(r @ jr), rho
        p, jp = r + (rho / previous) * p, jr + (rho / previous) * jp  # J p by recurrence
    raise NoConvergence(f"conjugate gradients missed relative residual {rtol:.1e} in {limit} steps")


def fractional_velocity(
    apply_j, g: np.ndarray, s: float, rtol: float
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray, float]:
    """(c, top, Q, T, |g - mean(g)|): v = -J^s g on one Lanczos basis Q of
    J, by its coordinates c, v = c Q; top the largest Ritz value of J^s
    there; T the tridiagonal of the process; and the norm of its start.

    J = dK/du is symmetric with the constants in its kernel (zero row
    sums).  The basis starts from g - mean(g); each new vector follows the
    three-term recurrence and is then orthogonalised once against the
    constants and the last two vectors, O(V) beside its apply.  So Q's k
    rows, the Lanczos vectors, are zero-sum and orthogonal to their
    neighbours, and T = S diag(theta) S^T is their tridiagonal.  Across the
    basis orthogonality is lost as Ritz values converge, which in floating
    point only adds copies of converged ones (Paige 1980): theta stays in
    J's spectrum off the constants up to round-off, so no spurious small
    one blows up theta^s at s < 0, and c = -|g - mean(g)| S theta^s S^T e1
    gives v as accurately as the best polynomial in J of slightly higher
    degree (Musco-Musco-Sidford 2018).  ``fractional_powers`` powers theta,
    so the kernel band and IndefiniteOperator are the dense eigenbasis's.
    The first checkpoint comes after LANCZOS_BLOCK steps, and compares c
    with its value on the leading (k - 2) x (k - 2) block of T; the basis
    then grows by a quarter of its size, and at least LANCZOS_BLOCK
    vectors, between two checkpoints.  It stops once c at two compared
    values differs by at most rtol relative, once a new vector vanishes,
    or at n - 1 vectors.  In these coordinates, exact whether or not Q
    stays orthonormal, g - mean(g) is |g - mean(g)| e1 and c = -R times
    that, R = S diag(theta^s) S^T, so top I - R is semidefinite and a solve
    can start there at no apply.  A constant g has c and Q empty, top = 0.
    """
    n = g.size
    start = g - np.mean(g)
    norm = float(np.linalg.norm(start))
    if not norm > 0.0:
        return np.empty(0), 0.0, np.empty((0, n)), np.empty((0, 0)), norm
    # row 0 is the normalised constant vector, and row i + 1 the i-th Lanczos vector
    basis = np.empty((min(LANCZOS_BLOCK + 2, n + 1), n))
    basis[0], basis[1] = 1.0 / np.sqrt(n), start / norm
    alphas: list[float] = []
    betas: list[float] = []
    scale = 0.0  # running estimate of |J| on the basis
    stopped = False  # the process ended, so v is final
    previous, more = None, LANCZOS_BLOCK
    while True:
        k = len(alphas)
        stop = min(k + more, n - 1)
        if basis.shape[0] < stop + 2:
            grown = np.empty((min(max(2 * basis.shape[0], stop + 2), n + 1), n))
            grown[: k + 2] = basis[: k + 2]
            basis = grown
        for j in range(k, stop):
            q, last = basis[j + 1], betas[-1] if betas else 0.0
            w = apply_j(q)
            alpha = float(q @ w)
            w -= np.array((last, alpha)) @ basis[j : j + 2]  # the three-term recurrence
            head = basis[[0, *range(max(1, j), j + 2)]]  # the constants and the last two
            drift = head @ w
            w -= drift @ head
            alpha += float(drift[-1])
            beta = float(np.sqrt(w @ w))
            scale = max(scale, abs(alpha) + last)
            alphas.append(alpha)
            betas.append(beta)
            if j + 2 == n or beta <= EIGEN_ZERO_REL_TOL * scale:
                stopped = True
                break
            basis[j + 2] = w / beta
        k = len(alphas)
        tri = np.diag(alphas)
        tri[range(k - 1), range(1, k)] = tri[range(1, k), range(k - 1)] = betas[: k - 1]
        coeffs, top = _ritz_velocity(tri, norm, s)  # v in the Lanczos vectors
        if previous is None and not stopped:  # two steps back, on the same basis
            previous = _ritz_velocity(tri[: k - 2, : k - 2], norm, s)[0]
        if stopped or _settled(coeffs, previous, rtol):
            return coeffs, top, basis[1 : k + 1], tri, norm
        previous, more = coeffs, max(LANCZOS_BLOCK, k // 4)


def _ritz_velocity(tri: np.ndarray, norm: float, s: float) -> tuple[np.ndarray, float]:
    """v in the Lanczos vectors of the tridiagonal tri, and the largest Ritz value of J^s."""
    try:
        theta, vecs = np.linalg.eigh(tri)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to provoke
        raise NoConvergence(f"symmetric eigensolver failed on the Lanczos matrix: {exc}") from exc
    powers = fractional_powers(theta, s)
    return -norm * (vecs @ (powers * vecs[0])), float(np.max(powers))


def _settled(coeffs: np.ndarray, previous: np.ndarray, rtol: float) -> bool:
    """Whether v moved by at most rtol relative since the value it is compared with."""
    gap = coeffs.copy()
    gap[: previous.size] -= previous
    return bool(np.linalg.norm(gap) <= rtol * np.linalg.norm(coeffs))
