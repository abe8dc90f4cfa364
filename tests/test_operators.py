"""Curvature, its Jacobian, and the three Laplacian flavors.

The regular tetrahedron makes everything explicit.  All six coefficients
equal sqrt(2)/sqrt(6) = 1/sqrt(3), so dK/du is (4/sqrt3)(I - J/4) with J
the all-ones matrix: diagonal sqrt(3), off-diagonal -1/sqrt(3), spectrum
{0} + {4/sqrt3} x 3.  Because I - J/4 is a projection, every power of the
matrix has the same closed form with the scalar powered.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from packflow import (
    DecoratedMetric,
    FlowConfig,
    IndefiniteOperator,
    InvalidExponent,
    NoConvergence,
    StepLeavesAdmissible,
    apply_fractional,
    apply_laplacian,
    apply_p_laplacian,
    calabi_energy,
    curvature,
    delaunay_violations,
    fd_jacobian,
    gauss_bonnet_residual,
    jacobian,
    lengths_from_inversive,
    make_delaunay,
    preset_complex,
    preset_metric,
    spectral,
    velocity,
)
from packflow.geometry import delaunay_terms, edge_weights, triangle_angles
from packflow.operators import edge_laplacian, p_rates
from packflow.oracles import RandomMetricSpec, random_metric

SQ3 = math.sqrt(3.0)
E0 = np.array([1.0, 0.0, 0.0, 0.0])


def test_tetrahedron_curvature_uniform():
    metric = preset_metric("tetrahedron")
    k = curvature(metric)
    assert np.allclose(k, np.pi, rtol=0, atol=1e-14)
    assert abs(gauss_bonnet_residual(metric)) < 1e-13


def test_gauss_bonnet_on_every_preset():
    for name, kwargs in (
        ("tetrahedron", {}),
        ("octahedron", {}),
        ("icosahedron", {}),
        ("torus_grid", {"n": 4}),
        ("one_vertex_torus", {}),
    ):
        metric = preset_metric(name, **kwargs)
        assert abs(gauss_bonnet_residual(metric)) < 1e-12, name


def test_tetrahedron_jacobian_closed_form():
    metric = preset_metric("tetrahedron")
    jac = jacobian(metric)
    expected = (4.0 / SQ3) * (np.eye(4) - 0.25)
    assert np.allclose(jac, expected, rtol=0, atol=1e-13)
    assert delaunay_violations(metric) == []
    ends = metric.mesh.edge_endpoints_array()
    assert np.allclose(-jac[ends[:, 0], ends[:, 1]], 1.0 / SQ3, rtol=1e-13)
    _, lam = spectral(jac)
    assert np.allclose(lam, [0.0, 4.0 / SQ3, 4.0 / SQ3, 4.0 / SQ3], atol=1e-12)


def test_scatters_match_sequential_loops():
    # the bincount scatters add in the same order as a plain loop, so the
    # results are equal bit for bit, loops and repeated edges included
    for spec in (
        RandomMetricSpec(preset="torus_grid", n=3, delaunay=True),
        RandomMetricSpec(preset="one_vertex_torus"),
    ):
        metric = random_metric(spec, 5)
        mesh = metric.mesh
        n = mesh.num_vertices
        angle_sum = np.zeros(n)
        for (a, b, c), angles in zip(mesh.triangles.tolist(), triangle_angles(metric)):
            angle_sum[a] += angles[0]
            angle_sum[b] += angles[1]
            angle_sum[c] += angles[2]
        assert np.array_equal(curvature(metric), 2.0 * np.pi - angle_sum)

        coeff = delaunay_terms(metric)[0] / metric.effective_lengths
        ends = mesh.edge_endpoints_array().tolist()
        mat = np.zeros((n, n))
        for (a, _), c in zip(ends, coeff):
            mat[a, a] += c
        for (_, b), c in zip(ends, coeff):
            mat[b, b] += c
        for (a, b), c in zip(ends, coeff):
            mat[a, b] -= c
        for (a, b), c in zip(ends, coeff):
            mat[b, a] -= c
        assert np.array_equal(jacobian(metric), mat)

        f = np.random.default_rng(2).normal(size=n)
        out = np.zeros(n)
        fluxes = [c * abs(f[b] - f[a]) ** 1.0 * (f[b] - f[a]) for (a, b), c in zip(ends, coeff)]
        for (a, _), flux in zip(ends, fluxes):
            out[a] += flux
        for (_, b), flux in zip(ends, fluxes):
            out[b] -= flux
        assert np.array_equal(apply_p_laplacian(metric, 3.0, f), out)


def test_jacobian_rows_sum_to_zero():
    metric = preset_metric("icosahedron", radius=0.8, inversive=2.1)
    metric.set_conformal_factors(np.linspace(-0.15, 0.15, 12))
    mat = np.asarray(jacobian(metric))
    assert np.allclose(mat, mat.T, atol=1e-14)
    assert np.allclose(mat.sum(axis=1), 0.0, atol=1e-12)


def test_jacobian_matches_finite_differences():
    metric = preset_metric("torus_grid", n=3, radius=0.9)
    rng = np.random.default_rng(11)
    u = rng.uniform(-0.1, 0.1, 9)
    u -= u.mean()
    metric.set_conformal_factors(u)
    analytic = np.asarray(jacobian(metric))
    numeric = fd_jacobian(metric)
    scale = np.max(np.abs(analytic))
    assert np.max(np.abs(analytic - numeric)) < 1e-6 * scale


def test_fd_jacobian_rejects_near_degenerate_states():
    metric = preset_metric("tetrahedron")
    # margin of the flattest triangle shrinks to ~3e-7, below the probe step
    u = 1.0999999 * np.array([1.0, 1.0, -1.0, -1.0])
    metric.set_conformal_factors(u)
    with pytest.raises(StepLeavesAdmissible):
        fd_jacobian(metric)


def test_spectral_reconstructs_the_matrix():
    metric = preset_metric("octahedron", radius=1.2)
    metric.set_conformal_factors(np.linspace(-0.2, 0.2, 6))
    jac = jacobian(metric)
    p, lam = spectral(jac)
    assert np.all(np.diff(lam) >= 0.0)
    assert np.allclose(p @ p.T, np.eye(6), atol=1e-12)
    assert np.allclose(p.T @ np.diag(lam) @ p, np.asarray(jac), atol=1e-12)


def test_laplacian_response_on_tetrahedron():
    jac = jacobian(preset_metric("tetrahedron"))
    out = apply_laplacian(jac, E0)
    assert np.allclose(out, [-SQ3, 1 / SQ3, 1 / SQ3, 1 / SQ3], atol=1e-13)


def test_fractional_closed_form_on_tetrahedron():
    jac = jacobian(preset_metric("tetrahedron"))
    for s in (0.5, 1.0, 2.0, -0.5):
        out = apply_fractional(jac, s, E0)
        expected = -((4.0 / SQ3) ** s) * (E0 - 0.25)
        assert np.allclose(out, expected, atol=1e-12), s


def test_fractional_s_zero_is_exact_negation():
    jac = jacobian(preset_metric("icosahedron"))
    f = np.arange(12.0)
    out = apply_fractional(jac, 0.0, f)
    assert np.array_equal(out, -f)


def test_fractional_keeps_the_kernel():
    jac = jacobian(preset_metric("torus_grid", n=3))
    ones = np.ones(9)
    for s in (0.5, 1.0, -1.0):
        assert np.allclose(apply_fractional(jac, s, ones), 0.0, atol=1e-10)


def test_fractional_indefinite_matrix():
    mat = np.diag([-0.5, 1.0, 2.0])
    with pytest.raises(IndefiniteOperator):
        apply_fractional(mat, 0.5, np.ones(3))
    # integer exponents are plain matrix powers and stay legal
    out = apply_fractional(mat, 2.0, np.array([1.0, 1.0, 1.0]))
    assert np.allclose(out, [-0.25, -1.0, -4.0], atol=1e-14)


def test_edge_laplacian_applies_the_jacobian():
    from packflow.geometry import edge_weights
    from packflow.operators import edge_laplacian

    rng = np.random.default_rng(4)
    for seed in range(3):
        metric = random_metric(RandomMetricSpec(preset="icosahedron", delaunay=True), seed)
        apply_j = edge_laplacian(metric, edge_weights(metric))
        for _ in range(5):
            f = rng.normal(size=12)
            assert np.allclose(apply_j(f), jacobian(metric) @ f, rtol=0, atol=1e-12)


def test_shifted_solve_refuses_an_indefinite_operator():
    # a weighted triangle graph with one negative edge weight: its
    # Laplacian has a negative eigenvalue, whose eigenvector has negative
    # J-norm, so conjugate gradients in that inner product cannot start
    from packflow.operators import solve_shifted

    laplacian = np.array([[-1.0, -1.0, 2.0], [-1.0, 2.0, -1.0], [2.0, -1.0, -1.0]])
    lam, vecs = np.linalg.eigh(laplacian)
    assert lam[0] < 0.0
    with pytest.raises(IndefiniteOperator):
        solve_shifted(lambda f: laplacian @ f, lambda f: f, 1.0, vecs[:, 0], 1e-12)


def _shifted_problem():
    # the Jacobian of a weighted Delaunay torus and a zero-sum right-hand side
    metric = random_metric(RandomMetricSpec(preset="torus_grid", n=4, delaunay=True), 1)
    v = _random_deviation(metric, 1)
    return jacobian(metric), v - v.mean()


def test_shifted_solve_stops_at_its_sweep_limit(monkeypatch):
    from packflow import operators

    jac, v = _shifted_problem()
    monkeypatch.setattr(operators, "CG_MAX_SWEEPS", 0)
    with pytest.raises(NoConvergence, match=r"missed relative residual 1\.0e-08 in 0 steps$"):
        operators.solve_shifted(lambda f: jac @ f, lambda f: f, 1.0, v, 1e-8)


def test_shifted_solve_refuses_a_shift_that_is_not_positive_definite():
    # J is positive semidefinite, but W = -I makes I + h W J indefinite at
    # h = 10, past 1 / |J|: a search direction meets negative curvature
    from packflow.operators import solve_shifted

    jac, v = _shifted_problem()
    assert 10.0 * np.linalg.eigvalsh(jac)[-1] > 1.0
    with pytest.raises(IndefiniteOperator, match=r"^I \+ h W J is not positive definite: -"):
        solve_shifted(lambda f: jac @ f, lambda f: -f, 10.0, v, 1e-8)


def test_fractional_velocity_on_an_indefinite_operator():
    # the weighted triangle graph above: two Lanczos steps span its zero-sum
    # vectors, so the Ritz values are its nonzero eigenvalues, one negative
    from packflow.operators import fractional_velocity

    laplacian = np.array([[-1.0, -1.0, 2.0], [-1.0, 2.0, -1.0], [2.0, -1.0, -1.0]])
    g = np.array([1.0, -2.0, 0.5])
    with pytest.raises(IndefiniteOperator):
        fractional_velocity(lambda f: laplacian @ f, g, 0.5, 1e-12)
    # an integer exponent is a plain matrix power, as in apply_fractional,
    # and top is the largest eigenvalue of that power; the two Lanczos
    # vectors are orthonormal, zero-sum, and carry the operator as T
    coeffs, top, basis, tri, norm = fractional_velocity(lambda f: laplacian @ f, g, 1.0, 1e-12)
    assert norm == float(np.linalg.norm(g - np.mean(g)))
    v = coeffs @ basis
    assert np.allclose(v, apply_fractional(laplacian, 1.0, g), rtol=0, atol=1e-14)
    assert top == pytest.approx(np.linalg.eigvalsh(laplacian)[-1], rel=1e-14)
    assert basis.shape == (2, 3) and tri.shape == (2, 2)
    assert np.allclose(basis @ basis.T, np.eye(2), rtol=0, atol=1e-14)
    assert np.allclose(basis.sum(axis=1), 0.0, rtol=0, atol=1e-14)
    assert np.allclose(basis @ laplacian @ basis.T, tri, rtol=0, atol=1e-14)


def _random_deviation(metric, seed: int) -> np.ndarray:
    # K - target for an N(0, 1) target recentred to 2 pi chi / V
    n = metric.mesh.num_vertices
    target = np.random.default_rng(1000 + seed).normal(0.0, 1.0, n)
    return curvature(metric) - (target - target.mean() + 2.0 * np.pi * metric.mesh.euler_characteristic / n)


@pytest.mark.parametrize(
    "preset, n", [("torus_grid", 6), ("torus_grid", 11), ("icosahedron", None)],
    ids=["torus_grid-6", "torus_grid-11", "icosahedron"],
)
def test_fractional_velocity_meets_its_tolerance_at_the_first_checkpoint(preset, n):
    # the first checkpoint compares v on LANCZOS_BLOCK vectors with v on
    # the leading block of two fewer, so a basis may stop there; v must
    # still be within rtol of the dense -(dK/du)^s g.  Measured: the worst
    # ratio to rtol is 0.10 (0.01 when the first checkpoint could not stop)
    from packflow.geometry import edge_weights
    from packflow.operators import LANCZOS_BLOCK, edge_laplacian, fractional_velocity

    spec, sizes = RandomMetricSpec(preset=preset, n=n, delaunay=True), set()
    for seed in range(8):
        metric = random_metric(spec, seed)
        g, jac = _random_deviation(metric, seed), jacobian(metric)
        apply_j = edge_laplacian(metric, edge_weights(metric))
        for s in (0.5, 1.5, -0.5, -1.5):
            exact = apply_fractional(jac, s, g)
            for rtol in (1e-3, 1e-4, 1e-6):
                coeffs, _, basis, _, _ = fractional_velocity(apply_j, g, s, rtol)
                v = coeffs @ basis
                gap = np.linalg.norm(v - exact)
                assert gap <= rtol * np.linalg.norm(exact), (seed, s, rtol, gap)
                sizes.add(basis.shape[0])
    if preset == "torus_grid":  # some bases stop at the first checkpoint
        assert LANCZOS_BLOCK in sizes, sorted(sizes)


@pytest.mark.parametrize(
    "preset, n, rtol, bound",
    [("torus_grid", 20, 1e-9, 1e-9), ("torus_grid", 3, 1e-12, 1e-12), ("icosahedron", None, 1e-12, 1e-12)],
    ids=["torus_grid-20", "torus_grid-3", "icosahedron"],
)
def test_fractional_velocity_is_accurate_on_a_large_or_spanning_basis(preset, n, rtol, bound):
    # each Lanczos vector is orthogonalised against the constants and the
    # last two only, so orthogonality across the basis is lost as it grows
    # (up to 77 vectors at V = 400) or spans (n - 1 vectors); v must still
    # be within bound of the dense -(dK/du)^s g, relative.  Measured: the
    # worst ratio to bound is 0.015 at V = 400 and 0.0025 where it spans
    from packflow.geometry import edge_weights
    from packflow.operators import edge_laplacian, fractional_velocity

    spec, sizes = RandomMetricSpec(preset=preset, n=n, delaunay=True), set()
    for seed in range(8):
        metric = random_metric(spec, seed)
        g, jac = _random_deviation(metric, seed), jacobian(metric)
        apply_j = edge_laplacian(metric, edge_weights(metric))
        for s in (0.5, 1.5, -0.5, -1.5):
            exact = apply_fractional(jac, s, g)
            coeffs, _, basis, _, _ = fractional_velocity(apply_j, g, s, rtol)
            v = coeffs @ basis
            gap = np.linalg.norm(v - exact)
            assert gap <= bound * np.linalg.norm(exact), (seed, s, gap)
            sizes.add(basis.shape[0])
    if n == 20:  # the basis grows large
        assert max(sizes) >= 64, sorted(sizes)
    else:  # the basis spans: n - 1 vectors
        assert sizes == {metric.mesh.num_vertices - 1}, sorted(sizes)


def test_shifted_solve_from_a_start_stops_relative_to_v():
    # (I + h W J) x = v on the Jacobian of a random grid torus, W = 2 I.  A start
    # at the dense solution is checked and returned; a poor start ends
    # within rtol of the zero start's solution; and a start whose residual
    # already meets rtol of v's J-norm is returned as it is, which a stop
    # relative to the start's own residual would not do
    from packflow.operators import solve_shifted

    metric = random_metric(RandomMetricSpec(preset="torus_grid", n=6, delaunay=True), 3)
    jac, n, h, rtol = jacobian(metric), metric.mesh.num_vertices, 3.0, 1e-6
    v = _random_deviation(metric, 3)
    v -= v.mean()
    applies = [0]

    def apply_j(f):
        applies[0] += 1
        return jac @ f

    def apply_w(f):
        return 2.0 * f

    def jnorm(f):
        return math.sqrt(f @ jac @ f)

    exact = np.linalg.solve(np.eye(n) + h * 2.0 * jac, v)
    x = solve_shifted(apply_j, apply_w, h, v, rtol, exact)
    assert x is exact and applies[0] == 3  # v's J-norm, the start's residual, its J-norm
    zero_start = solve_shifted(apply_j, apply_w, h, v, rtol)
    # both residuals are within rtol of v's J-norm, and (I + h W J)^-1 does
    # not stretch the J-norm, so the two solutions are within twice that
    poor = np.random.default_rng(5).normal(size=n)
    poor -= poor.mean()
    x = solve_shifted(apply_j, apply_w, h, v, rtol, poor)
    assert jnorm(x - zero_start) <= 2.0 * rtol * jnorm(v), jnorm(x - zero_start)
    assert jnorm(v - x - h * 2.0 * jac @ x) <= rtol * jnorm(v)
    # a start whose residual is half rtol of v's J-norm: the conjugate
    # gradients take no step, where a stop relative to the start's own
    # residual would cut it by rtol
    wanted = 0.5 * rtol * jnorm(v) / jnorm(poor) * poor
    near = exact - np.linalg.solve(np.eye(n) + h * 2.0 * jac, wanted)
    assert jnorm(v - near - h * 2.0 * jac @ near) == pytest.approx(jnorm(wanted), rel=1e-6)
    applies[0] = 0
    assert solve_shifted(apply_j, apply_w, h, v, rtol, near) is near
    assert applies[0] == 3


def test_p_laplacian_reduces_to_laplacian_at_two():
    metric = preset_metric("icosahedron", radius=0.7, inversive=2.4)
    rng = np.random.default_rng(3)
    jac = jacobian(metric)
    for _ in range(20):
        f = rng.normal(size=12)
        a = apply_p_laplacian(metric, 2.0, f)
        b = apply_laplacian(jac, f)
        assert np.allclose(a, b, atol=1e-12)


def test_calabi_velocity_matches_the_dense_laplacian():
    # calabi runs on the O(E) edge flux; the dense Jacobian is its reference
    presets = ("icosahedron", "torus_grid", "octahedron")
    for seed in range(12):
        spec = RandomMetricSpec(preset=presets[seed % 3], n=4, delaunay=seed % 2 == 0)
        metric = random_metric(spec, seed)
        n = metric.mesh.num_vertices
        target = np.full(n, 2.0 * np.pi * metric.mesh.euler_characteristic / n)
        fast = velocity(metric, FlowConfig(kind="calabi", target=target))
        dense = apply_laplacian(jacobian(metric), curvature(metric) - target)
        scale = float(np.max(np.abs(dense)))
        assert float(np.max(np.abs(fast - dense))) <= 1e-13 * scale, seed


def test_p_laplacian_response_on_tetrahedron():
    # all differences are 0 or -1, so |diff|^(p-2) is 1 and every p agrees
    metric = preset_metric("tetrahedron")
    for p in (1.5, 2.0, 3.0):
        out = apply_p_laplacian(metric, p, E0)
        assert np.allclose(out, [-SQ3, 1 / SQ3, 1 / SQ3, 1 / SQ3], atol=1e-13)


def test_p_laplacian_sum_and_energy_identities():
    # sum(d_p f) = 0 and f . d_p f = -sum_e c_e |df|^p
    metric = preset_metric("torus_grid", n=3, radius=0.6)
    rng = np.random.default_rng(23)
    dsum = delaunay_terms(metric)[0] / metric.effective_lengths
    ends = metric.mesh.edge_endpoints_array()
    for p in (1.5, 2.0, 3.0, 4.5):
        for _ in range(20):
            f = rng.normal(size=9)
            out = apply_p_laplacian(metric, p, f)
            assert abs(np.sum(out)) < 1e-12
            df = f[ends[:, 1]] - f[ends[:, 0]]
            energy = float(np.sum(dsum * np.abs(df) ** p))
            assert math.isclose(float(f @ out), -energy, rel_tol=1e-10)


def test_p_laplacian_handles_equal_values_below_two():
    metric = preset_metric("octahedron")
    f = np.zeros(6)
    out = apply_p_laplacian(metric, 1.5, f)
    assert np.array_equal(out, np.zeros(6))


def test_p_laplacian_rejects_exponent_at_most_one():
    metric = preset_metric("tetrahedron")
    for p in (1.0, 0.5, -2.0):
        with pytest.raises(InvalidExponent):
            apply_p_laplacian(metric, p, E0)


def test_loop_edges_contribute_nothing():
    mesh = preset_complex("one_vertex_torus")
    metric = DecoratedMetric(mesh, np.array([1.0, 1.1, 1.8]), np.array([0.4]))
    jac = jacobian(metric)
    assert jac.shape == (1, 1)
    assert abs(jac[0, 0]) < 1e-15
    assert np.array_equal(apply_p_laplacian(metric, 3.0, np.array([0.7])), [0.0])


def test_calabi_energy():
    k = np.array([1.0, 2.0, 3.0])
    target = np.array([1.0, 1.0, 1.0])
    assert calabi_energy(k, target) == 5.0
    assert calabi_energy(target, target) == 0.0


def _bumpy_and_flipped_squeezed() -> list[DecoratedMetric]:
    # a bumpy torus_grid n = 11 (V = 121), and a squeezed n = 4 made weighted
    # Delaunay by 16 flips: inversive distance 6 on the diagonals and 1.5 on
    # the grid edges, radii exp(U(-0.1, 0.1))
    bumpy = preset_metric("torus_grid", n=11)
    u = np.random.default_rng(1).uniform(-0.2, 0.2, bumpy.mesh.num_vertices)
    bumpy.set_conformal_factors(u - u.mean())
    mesh = preset_complex("torus_grid", n=4)
    radii = np.exp(np.random.default_rng(1).uniform(-0.1, 0.1, 16))
    a, b = mesh.edge_endpoints_array().T
    di, dj = (b // 4 - a // 4) % 4, (b % 4 - a % 4) % 4
    inversive = np.where((di == dj) & (di != 0), 6.0, 1.5)
    squeezed = DecoratedMetric(mesh, lengths_from_inversive(mesh, radii, inversive), radii)
    assert len(make_delaunay(squeezed)[1]) == 16
    return [bumpy, squeezed]


def test_p_rates_at_two_are_the_edge_weights_bit_for_bit():
    # the premise on which calabi applies dK/du itself as its rate: at p = 2
    # the rates are the weights, and the p-Laplacian is the edge Laplacian on them
    for metric in _bumpy_and_flipped_squeezed():
        n = metric.mesh.num_vertices
        g = curvature(metric) - 2.0 * np.pi * metric.mesh.euler_characteristic / n
        weights = np.array(edge_weights(metric))
        rates, _ = p_rates(metric, 2.0, g)
        assert rates.shape == weights.shape and rates.tobytes() == weights.tobytes()
        flux = -edge_laplacian(metric, weights)(g)
        assert apply_p_laplacian(metric, 2.0, g).tobytes() == flux.tobytes()


def test_edge_weights_are_one_read_only_array_per_state():
    # edge_weights is memoized and handed to every caller as is, p_rates at
    # p = 2 included; a write through any of them must fail, not leak
    metric = _bumpy_and_flipped_squeezed()[0]
    weights = edge_weights(metric)
    g = curvature(metric)
    rates, _ = p_rates(metric, 2.0, g)
    assert rates is weights and edge_weights(metric) is weights
    for shared in (weights, rates):
        with pytest.raises(ValueError):
            shared[0] = 1.0
    assert p_rates(metric, 3.0, g)[0].flags.writeable


def test_an_edge_flux_operator_returns_independent_arrays():
    # the operator writes its fluxes into one buffer of its own; what it
    # returns must not change when it is applied again
    metric = _bumpy_and_flipped_squeezed()[0]
    apply = edge_laplacian(metric, edge_weights(metric))
    f, g = np.random.default_rng(5).normal(size=(2, metric.mesh.num_vertices))
    y1 = apply(f)
    kept = y1.copy()
    apply(g)
    assert y1.tobytes() == kept.tobytes()
    assert y1.tobytes() == edge_laplacian(metric, edge_weights(metric))(f).tobytes()
