"""Desk-scale acceptance checks, one numbered test per promised property.

Each test prints a single PASS/FAIL line with the measured numbers (visible
under ``pytest -s``) and asserts the same condition, so the ``-v`` report
carries one verdict per property.  Tolerances are the contract: loosening
them is a behavior change, not a test fix.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from packflow import (
    FlowConfig,
    PackflowError,
    apply_p_laplacian,
    curvature,
    delaunay_violations,
    fd_jacobian,
    gauss_bonnet_residual,
    jacobian,
    make_delaunay,
    preset_metric,
    run,
    spectral,
    triangle_areas,
    validate_triangles,
    velocity,
)
from packflow.geometry import delaunay_terms
from packflow.oracles import RandomMetricSpec, random_metric

MIXED_SPECS = [
    RandomMetricSpec(),
    RandomMetricSpec(preset="octahedron", u_range=0.25),
    RandomMetricSpec(preset="icosahedron", inversive_range=(1.1, 3.5)),
    RandomMetricSpec(preset="torus_grid", n=3, u_range=0.3),
]

DELAUNAY_SPECS = [
    RandomMetricSpec(preset="tetrahedron", delaunay=True),
    RandomMetricSpec(preset="icosahedron", delaunay=True),
    RandomMetricSpec(preset="torus_grid", n=3, delaunay=True),
]

PRESETS = (
    ("tetrahedron", {}),
    ("octahedron", {}),
    ("icosahedron", {}),
    ("torus_grid", {"n": 3}),
    ("torus_grid", {"n": 4}),
    ("one_vertex_torus", {}),
)


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def _zero_sum_perturbation(rng, n: int, bound: float) -> np.ndarray:
    u = rng.uniform(-bound, bound, n)
    u -= u.mean()
    peak = float(np.max(np.abs(u)))
    if peak > bound:
        u *= bound / peak
    return u


def _perturbed_tetra(seed: int, bound: float):
    metric = preset_metric("tetrahedron")
    rng = np.random.default_rng(seed)
    metric.set_conformal_factors(_zero_sum_perturbation(rng, 4, bound))
    return metric


def _perturbed_flat_torus(seed: int, bound: float = 0.2):
    metric = preset_metric("torus_grid", n=3)
    rng = np.random.default_rng(seed)
    metric.set_conformal_factors(_zero_sum_perturbation(rng, 9, bound))
    return metric


# Convergence runs are shared between the convergence checks and the
# conservation/monotonicity audit, so they are computed once.
_RUNS: list[tuple[str, float, object]] | None = None


def _convergence_runs():
    global _RUNS
    if _RUNS is None:
        runs = []
        for seed in range(10):
            metric = _perturbed_tetra(seed, 0.3)
            started = time.perf_counter()
            trace = run(metric, FlowConfig(kind="calabi", target=np.full(4, np.pi)))
            runs.append((f"calabi/tetrahedron seed {seed}", time.perf_counter() - started, trace))
        torus_jobs = [
            ("fractional", {"s": 0.0}, 5_000),
            ("fractional", {"s": 0.5}, 5_000),
            ("fractional", {"s": 1.0}, 5_000),
            ("p_calabi", {"p": 1.5}, 50_000),
            ("p_calabi", {"p": 3.0}, 50_000),
        ]
        for kind, extra, budget in torus_jobs:
            for seed in range(5):
                metric = _perturbed_flat_torus(seed)
                config = FlowConfig(
                    kind=kind, target=np.zeros(9), max_steps=budget, **extra
                )
                started = time.perf_counter()
                trace = run(metric, config)
                tag = ", ".join(f"{k}={v}" for k, v in extra.items())
                runs.append(
                    (f"{kind}({tag})/torus seed {seed}", time.perf_counter() - started, trace)
                )
        _RUNS = runs
    return _RUNS


def test_01_total_curvature_is_topological():
    started = time.perf_counter()
    worst = 0.0
    for name, kwargs in PRESETS:
        worst = max(worst, abs(gauss_bonnet_residual(preset_metric(name, **kwargs))))
    for i in range(100):
        metric = random_metric(MIXED_SPECS[i % len(MIXED_SPECS)], i)
        worst = max(worst, abs(gauss_bonnet_residual(metric)))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-9 and elapsed < 1.0
    _verdict(
        "01 total curvature", ok, f"worst residual {worst:.3e}, {elapsed:.2f}s"
    )


def test_02_jacobian_against_finite_differences():
    started = time.perf_counter()
    worst = 0.0
    for i in range(20):
        metric = random_metric(DELAUNAY_SPECS[i % len(DELAUNAY_SPECS)], 1 + i)
        analytic = np.asarray(jacobian(metric))
        numeric = fd_jacobian(metric)
        worst = max(
            worst,
            float(np.max(np.abs(analytic - numeric)) / np.max(np.abs(analytic))),
        )
    elapsed = time.perf_counter() - started
    ok = worst < 1e-5 and elapsed < 10.0
    _verdict(
        "02 jacobian assembly", ok, f"worst relative error {worst:.3e}, {elapsed:.2f}s"
    )


def test_03_jacobian_spectrum():
    _, lam = spectral(jacobian(preset_metric("tetrahedron")))
    expected = np.array([0.0] + [4.0 / math.sqrt(3.0)] * 3)
    closed_form_err = float(np.max(np.abs(lam - expected)))

    kernel_counts_ok = True
    most_negative_rel = 0.0
    for i in range(30):
        metric = random_metric(DELAUNAY_SPECS[i % len(DELAUNAY_SPECS)], 200 + i)
        _, lam = spectral(jacobian(metric))
        lam_max = float(lam[-1])
        near_zero = int(np.sum(lam < 1e-9 * lam_max))
        kernel_counts_ok = kernel_counts_ok and near_zero == 1
        most_negative_rel = min(most_negative_rel, float(lam[0]) / lam_max)

    ok = closed_form_err < 1e-9 and kernel_counts_ok and most_negative_rel >= -1e-9
    _verdict(
        "03 jacobian spectrum",
        ok,
        f"closed-form error {closed_form_err:.3e},"
        f" single kernel eigenvalue on 30 draws: {kernel_counts_ok},"
        f" most negative {most_negative_rel:.3e} relative",
    )


def test_04_flow_velocity_reductions():
    exact = True
    frac1_worst = 0.0
    p2_worst = 0.0
    for i in range(20):
        metric = random_metric(MIXED_SPECS[i % len(MIXED_SPECS)], 300 + i)
        n = metric.mesh.num_vertices
        total = 2.0 * np.pi * metric.mesh.euler_characteristic
        target = np.full(n, total / n)
        ricci = velocity(metric, FlowConfig(kind="ricci", target=target))
        frac0 = velocity(metric, FlowConfig(kind="fractional", target=target, s=0.0))
        exact = exact and np.array_equal(ricci, frac0)
        calabi = velocity(metric, FlowConfig(kind="calabi", target=target))
        scale = float(np.max(np.abs(calabi)))
        frac1 = velocity(metric, FlowConfig(kind="fractional", target=target, s=1.0))
        frac1_worst = max(frac1_worst, float(np.max(np.abs(frac1 - calabi))) / scale)
        p2 = velocity(metric, FlowConfig(kind="p_calabi", target=target, p=2.0))
        p2_worst = max(p2_worst, float(np.max(np.abs(p2 - calabi))) / scale)
    ok = exact and frac1_worst < 1e-9 and p2_worst < 1e-12
    _verdict(
        "04 velocity reductions",
        ok,
        f"order 0 exact: {exact}, order 1 vs direct {frac1_worst:.3e},"
        f" exponent 2 vs direct {p2_worst:.3e}",
    )


def test_05_nonlinear_laplacian_identities():
    worst_sum = 0.0
    worst_energy = 0.0
    rng = np.random.default_rng(42)
    for spec in DELAUNAY_SPECS:
        metric = random_metric(spec, 9)
        coeff = delaunay_terms(metric)[0] / metric.effective_lengths
        ends = metric.mesh.edge_endpoints_array()
        n = metric.mesh.num_vertices
        for p in (1.5, 2.0, 3.0):
            for _ in range(50):
                f = rng.normal(size=n)
                out = apply_p_laplacian(metric, p, f)
                worst_sum = max(
                    worst_sum, abs(float(np.sum(out))) / float(np.linalg.norm(f))
                )
                df = f[ends[:, 1]] - f[ends[:, 0]]
                energy = float(np.sum(coeff * np.abs(df) ** p))
                worst_energy = max(
                    worst_energy, abs(float(f @ out) + energy) / max(energy, 1e-300)
                )
    ok = worst_sum < 1e-12 and worst_energy < 1e-10
    _verdict(
        "05 nonlinear laplacian identities",
        ok,
        f"flux sum {worst_sum:.3e} of |f|, energy identity {worst_energy:.3e} relative",
    )


def test_06_surgery_preserves_the_metric():
    total_flips = 0
    worst_k = 0.0
    worst_area = 0.0
    admissible_draws = 0
    for seed in range(10):
        metric = preset_metric("torus_grid", n=3, radius=0.5)
        rng = np.random.default_rng(seed)
        u = rng.uniform(-1.0, 1.0, 9) * 1.2
        u -= u.mean()
        metric.set_conformal_factors(u)
        if not validate_triangles(metric).admissible:
            continue
        admissible_draws += 1
        k_before = curvature(metric)
        area_before = float(np.sum(triangle_areas(metric)))
        _, events = make_delaunay(metric)
        total_flips += len(events)
        worst_k = max(worst_k, float(np.max(np.abs(curvature(metric) - k_before))))
        worst_area = max(
            worst_area,
            abs(float(np.sum(triangle_areas(metric))) - area_before) / area_before,
        )
        assert delaunay_violations(metric) == []
    ok = total_flips >= 1 and worst_k < 1e-9 and worst_area < 1e-10
    _verdict(
        "06 surgery isometry",
        ok,
        f"{total_flips} flips over {admissible_draws} draws,"
        f" curvature jump {worst_k:.3e}, area drift {worst_area:.3e} relative",
    )


def test_07_constant_curvature_convergence():
    failures = []
    for label, elapsed, trace in _convergence_runs():
        if not label.startswith("calabi/tetrahedron"):
            continue
        final_u = float(np.max(np.abs(trace.metric.conformal_factors)))
        if not (
            trace.converged
            and trace.final_max_curv_err < 1e-8
            and final_u < 1e-6
            and elapsed < 5.0
        ):
            failures.append(f"{label}: {trace.termination}, {elapsed:.1f}s, |u| {final_u:.1e}")
    ok = not failures
    _verdict("07 constant-curvature flow", ok, failures[0] if failures else "10 runs converged")


def test_08_fractional_and_p_flow_convergence():
    failures = []
    count = 0
    for label, elapsed, trace in _convergence_runs():
        if label.startswith("calabi/tetrahedron"):
            continue
        count += 1
        if not (trace.converged and trace.final_max_curv_err < 1e-8):
            failures.append(f"{label}: {trace.termination} after {trace.steps} steps")
    ok = count == 25 and not failures
    _verdict(
        "08 fractional and p flows", ok, failures[0] if failures else f"{count} runs converged"
    )


def test_09_conservation_and_monotonicity():
    worst_drift = 0.0
    energy_ok = True
    potential_ok = True
    steps = 0
    for label, _, trace in _convergence_runs():
        base = trace.records[0].sum_u
        energies = [rec.calabi_energy for rec in trace.records]
        potentials = [rec.w_est for rec in trace.records]
        steps += len(trace.records) - 1
        for rec in trace.records:
            worst_drift = max(worst_drift, abs(rec.sum_u - base))
        if trace.kind != "p_calabi":
            # covers calabi and every fractional order, s = 0 included
            energy_ok = energy_ok and all(
                b <= a for a, b in zip(energies, energies[1:])
            )
        potential_ok = potential_ok and all(
            b <= a + 1e-15 for a, b in zip(potentials, potentials[1:])
        )
    ok = worst_drift < 1e-9 and energy_ok and potential_ok
    _verdict(
        "09 conservation and monotonicity",
        ok,
        f"scale-sum drift {worst_drift:.3e} over {steps} accepted steps,"
        f" energy monotone: {energy_ok}, potential monotone: {potential_ok}",
    )


def test_10_fixed_triangulation_mode():
    target = np.full(4, np.pi)
    near_ok = True
    for seed in range(100, 105):
        rng = np.random.default_rng(seed)
        metric = preset_metric("tetrahedron")
        metric.set_conformal_factors(_zero_sum_perturbation(rng, 4, 0.05))
        frozen = run(metric, FlowConfig(kind="calabi", target=target, surgery=False))
        twin = run(metric, FlowConfig(kind="calabi", target=target))
        near_ok = near_ok and (
            frozen.converged
            and frozen.initial_violations == 0
            and frozen.flips_total == 0
            and twin.flips_total == 0
        )

    # push two opposite vertex pairs apart: at 1.02 the state is admissible
    # but one edge violates weighted Delaunay, so surgery must flip
    spread = np.array([1.0, 1.0, -1.0, -1.0])
    flipping = preset_metric("tetrahedron")
    flipping.set_conformal_factors(1.02 * spread)
    flip_trace = run(flipping, FlowConfig(kind="calabi", target=target))
    flips_ok = flip_trace.converged and flip_trace.flips_total >= 1

    # at 1.10 a triangle margin goes negative and the fixed-triangulation
    # run must refuse with a diagnosis instead of integrating garbage
    degenerate = preset_metric("tetrahedron")
    degenerate.set_conformal_factors(1.10 * spread)
    diagnosis = ""
    try:
        run(degenerate, FlowConfig(kind="calabi", target=target, surgery=False))
    except PackflowError as exc:
        diagnosis = str(exc)
    abort_ok = "margin" in diagnosis

    ok = near_ok and flips_ok and abort_ok
    _verdict(
        "10 fixed-triangulation mode",
        ok,
        f"near-target runs flip-free: {near_ok},"
        f" large perturbation flips: {flip_trace.flips_total},"
        f" degenerate start diagnosis: {diagnosis or 'none'!r}",
    )
