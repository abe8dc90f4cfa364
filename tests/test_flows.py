"""Flow integration: velocities, step acceptance, and full runs."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from packflow import (
    DecoratedMetric,
    DegenerateTriangle,
    FlowConfig,
    InvalidExponent,
    InvalidFlowSetting,
    NonAdmissibleTarget,
    PackflowError,
    StepCollapse,
    curvature,
    gauss_bonnet_residual,
    infer_gluings,
    lengths_from_inversive,
    preset_metric,
    run,
    step,
    validate_triangles,
    velocity,
)
from packflow.flows import DEFAULT_STEP, KINDS, MAX_HALVINGS, STEP_GROWTH, STEP_GROWTH_CAP
from packflow.oracles import RandomMetricSpec, random_metric


def _uniform_target(metric) -> np.ndarray:
    n = metric.mesh.num_vertices
    total = 2.0 * np.pi * metric.mesh.euler_characteristic
    return np.full(n, total / n)


def _seeded_tetra(seed: int, scale: float = 0.3):
    metric = preset_metric("tetrahedron")
    rng = np.random.default_rng(seed)
    u = rng.uniform(-scale, scale, 4)
    u -= u.mean()
    metric.set_conformal_factors(u)
    return metric


def test_config_validation():
    target = np.full(4, np.pi)
    with pytest.raises(ValueError):
        FlowConfig(kind="gradient", target=target)
    with pytest.raises(InvalidExponent):
        FlowConfig(kind="p_calabi", target=target, p=1.0)
    for s in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidExponent):
            FlowConfig(kind="fractional", target=target, s=s)
    with pytest.raises(ValueError):
        FlowConfig(kind="calabi", target=target, h=-0.1)
    with pytest.raises(ValueError):
        FlowConfig(kind="calabi", target=target, tol=0.0)
    # p lies in (1, inf); h must be finite and positive, tol positive and
    # the step budget at least 0, each refused with a typed error that is
    # still a ValueError
    for p in (math.inf, math.nan):
        with pytest.raises(InvalidExponent):
            FlowConfig(kind="p_calabi", target=target, p=p)
    bad_settings = [
        {"kind": "gradient"},
        {"h": 0.0},
        {"h": math.inf},
        {"h": math.nan},
        {"tol": 0.0},
        {"tol": math.nan},
        {"max_steps": -2},
    ]
    for setting in bad_settings:
        with pytest.raises(InvalidFlowSetting):
            FlowConfig(**{"kind": "calabi", "target": target, **setting})
    assert issubclass(InvalidFlowSetting, ValueError)
    assert issubclass(InvalidFlowSetting, PackflowError)
    FlowConfig(kind="calabi", target=target, max_steps=0)


def test_default_step_sizes():
    # one default for every kind; an explicit h still overrides it.  The
    # linearly implicit step damps every mode at any h, and a mode of
    # dK/du with eigenvalue lam only by 1 / (1 + h lam): on a bumpy torus of
    # 400 vertices the slowest has lam = 0.113, so h = 1 spent one of four
    # steps cutting max|K - target| from 1 to 0.18, and h = 10 takes three
    target = np.full(4, np.pi)
    for kind in KINDS:
        assert FlowConfig(kind=kind, target=target).initial_step == DEFAULT_STEP == 10.0
    assert FlowConfig(kind="calabi", target=target, h=0.5).initial_step == 0.5


def test_ricci_velocity_is_curvature_deviation():
    metric = _seeded_tetra(2)
    target = _uniform_target(metric)
    from packflow import curvature

    v = velocity(metric, FlowConfig(kind="ricci", target=target))
    assert np.allclose(v, -(curvature(metric) - target), atol=0)


def test_kinds_resolve_to_their_pinned_exponents():
    # each kind pins the exponents it does not take from the caller: its
    # (s, p) is the order of its rate and its Calabi exponent, and the kind
    # keeps the caller's name.  calabi is fractional at s = 1, and so is
    # p_calabi at p = 2, with no special case
    target = np.full(4, np.pi)
    resolved = {
        "ricci": (0.0, 2.0),
        "fractional": (0.7, 2.0),
        "calabi": (1.0, 2.0),
        "p_calabi": (1.0, 3.5),
    }
    for kind, (s, p) in resolved.items():
        config = FlowConfig(kind=kind, target=target, s=0.7, p=3.5)
        assert (config.kind, config.s, config.p) == (kind, s, p)
    config = FlowConfig(kind="p_calabi", target=target, s=0.7, p=2.0)
    assert (config.kind, config.s, config.p) == ("p_calabi", 1.0, 2.0)
    # the exponent a kind does not read is never checked: a setting that
    # only another kind would refuse is accepted and replaced
    assert FlowConfig(kind="calabi", target=target, p=0.5).p == 2.0
    assert FlowConfig(kind="ricci", target=target, s=math.nan).s == 0.0
    assert FlowConfig(kind="fractional", target=target, p=math.inf).p == 2.0
    assert FlowConfig(kind="p_calabi", target=target, s=math.nan, p=3.0).s == 1.0
    metric = _seeded_tetra(5)
    assert run(metric, FlowConfig(kind="ricci", target=_uniform_target(metric))).kind == "ricci"


def test_p_two_matches_calabi_velocity():
    for seed in range(5):
        metric = _seeded_tetra(seed)
        target = _uniform_target(metric)
        a = velocity(metric, FlowConfig(kind="calabi", target=target))
        b = velocity(metric, FlowConfig(kind="p_calabi", target=target, p=2.0))
        assert np.max(np.abs(a - b)) < 1e-12


def test_calabi_run_converges_and_flattens():
    metric = _seeded_tetra(7)
    target = _uniform_target(metric)
    trace = run(metric, FlowConfig(kind="calabi", target=target))
    assert trace.converged
    assert trace.final_max_curv_err < 1e-8
    # the constant-curvature metric in this conformal class is u = 0
    assert np.max(np.abs(trace.metric.conformal_factors)) < 1e-6
    # the input metric is untouched
    assert np.max(np.abs(metric.conformal_factors)) > 0.01


def test_run_conserves_total_scale():
    metric = _seeded_tetra(11)
    total = float(np.sum(metric.conformal_factors))
    trace = run(metric, FlowConfig(kind="calabi", target=_uniform_target(metric)))
    for rec in trace.records:
        assert abs(rec.sum_u - total) < 1e-9


def test_run_monotone_diagnostics():
    metric = _seeded_tetra(3)
    target = _uniform_target(metric)
    for kind in ("calabi", "ricci"):
        trace = run(metric, FlowConfig(kind=kind, target=target))
        energies = [rec.calabi_energy for rec in trace.records]
        assert all(b <= a for a, b in zip(energies, energies[1:]))
        assert all(rec.w_increment <= 0.0 for rec in trace.records)
        w = [rec.w_est for rec in trace.records]
        assert all(b <= a + 1e-15 for a, b in zip(w, w[1:]))


def test_already_converged_run_takes_no_steps():
    metric = preset_metric("tetrahedron")
    trace = run(metric, FlowConfig(kind="calabi", target=_uniform_target(metric)))
    assert trace.converged
    assert trace.steps == 0
    assert len(trace.records) == 1


def test_step_budget_reported():
    metric = _seeded_tetra(7)
    trace = run(
        metric, FlowConfig(kind="calabi", target=_uniform_target(metric), max_steps=2)
    )
    assert trace.termination == "budget"
    assert trace.steps == 2


def test_target_validation():
    metric = preset_metric("tetrahedron")
    with pytest.raises(NonAdmissibleTarget):
        run(metric, FlowConfig(kind="calabi", target=np.full(3, np.pi)))
    with pytest.raises(NonAdmissibleTarget):
        run(metric, FlowConfig(kind="calabi", target=np.array([np.nan, 0, 0, 0])))
    skew = np.array([7.0, -1.0, 0.0, 4.0 * np.pi - 6.0])
    with pytest.raises(NonAdmissibleTarget):
        run(metric, FlowConfig(kind="calabi", target=skew))
    with pytest.raises(NonAdmissibleTarget):
        run(metric, FlowConfig(kind="calabi", target=np.full(4, np.pi + 0.01)))


def test_inadmissible_start_raises():
    metric = preset_metric("tetrahedron")
    metric.set_conformal_factors(1.10 * np.array([1.0, 1.0, -1.0, -1.0]))
    with pytest.raises(DegenerateTriangle):
        run(metric, FlowConfig(kind="calabi", target=_uniform_target(metric)))


def _far_target() -> np.ndarray:
    # the preset tetrahedron has curvature pi everywhere; asking vertex 3
    # for -2 moves the metric far enough that large linearly implicit
    # steps leave the admissible cone
    b = (4.0 * np.pi + 2.0) / 3.0
    return np.array([b, b, b, -2.0])


def test_step_backtracks_oversized_trial():
    metric = _seeded_tetra(7)
    config = FlowConfig(kind="calabi", target=_far_target())
    new_state, rec = step(metric, config, 50.0)
    assert rec.halvings > 0
    assert rec.h < 50.0
    assert rec.w_increment <= 0.0
    # original untouched by the trial-and-copy scheme
    assert np.array_equal(
        metric.conformal_factors, _seeded_tetra(7).conformal_factors
    )


def test_margin_gate_rejects_a_trial_through_degenerate_triangle(monkeypatch):
    # the per-face pass's margin gate is the only admissibility check a
    # trial passes: an inadmissible trial leaves _settle by the typed
    # DegenerateTriangle and is halved once, like any other typed error
    from packflow import flows

    raised = []
    settle = flows._settle

    def spying_settle(*args):
        try:
            return settle(*args)
        except PackflowError as exc:
            raised.append(type(exc))
            raise

    monkeypatch.setattr(flows, "_settle", spying_settle)
    metric = preset_metric("tetrahedron")
    config = FlowConfig(kind="ricci", target=_far_target())
    new_state, rec = step(metric, config, 4.0)
    assert raised == [DegenerateTriangle, DegenerateTriangle]
    assert rec.halvings == 2
    assert rec.h == 1.0
    assert validate_triangles(new_state).admissible


def test_overflowing_trials_halve_to_step_collapse(monkeypatch):
    # e^(2u) overflows on every trial, down to h ~ 1e3; such trials must
    # halve like any other inadmissible one, not escape as a RuntimeWarning.
    # Every kind's linearly implicit step stays bounded as h grows (it
    # tends to a Newton step), so the step's solve is patched to x = v,
    # the explicit step, whose trial is h times the velocity
    from packflow import flows

    linearization = flows._linearization

    def explicit(metric, config):
        v, _ = linearization(metric, config)
        return v, lambda h: v

    monkeypatch.setattr(flows, "_linearization", explicit)
    metric = random_metric(RandomMetricSpec(preset="icosahedron", delaunay=True), 3)
    config = FlowConfig(kind="p_calabi", p=1.5, target=_uniform_target(metric))
    with pytest.raises(StepCollapse, match="DegenerateLength"):
        step(metric, config, 1e12)


def test_a_rejection_at_the_growth_cap_reaches_a_small_step(monkeypatch):
    # h grows geometrically up to the cap, so a monotonicity rejection takes
    # sqrt(h) above h = 4 and halves below: with the potential test rejecting
    # every h >= 1, 1e12 -> 1e6 -> 1e3 -> 31.6 -> 5.6 -> 2.4 -> 1.2 -> 0.59
    # takes 7 rejections, where 30 halvings of the cap stop at 931
    from dataclasses import replace

    from packflow import flows

    settle = flows._settle

    def rejecting_settle(state, config, last, h, *args):
        record = settle(state, config, last, h, *args)
        return replace(record, w_increment=1.0) if h >= 1.0 else record

    monkeypatch.setattr(flows, "_settle", rejecting_settle)
    metric = _seeded_tetra(7)
    config = FlowConfig(kind="calabi", target=_uniform_target(metric))
    _, rec = step(metric, config, STEP_GROWTH_CAP)
    assert rec.h < 1.0 and rec.halvings <= MAX_HALVINGS
    assert rec.halvings == 7
    assert rec.h == pytest.approx(STEP_GROWTH_CAP ** (1 / 32) / 4, rel=1e-12)


def test_an_operator_error_halves_the_trial(monkeypatch):
    # a conjugate-gradient breakdown is raised inside the trial, so the
    # trial halves like one that fails the margin gate
    from packflow import IndefiniteOperator, flows

    solve_shifted, limit = flows.solve_shifted, 1.0

    def refusing(apply_j, apply_w, h, v, rtol):
        if h > limit:
            raise IndefiniteOperator(f"refused h={h:g}")
        return solve_shifted(apply_j, apply_w, h, v, rtol)

    monkeypatch.setattr(flows, "solve_shifted", refusing)
    metric = _seeded_tetra(7)
    config = FlowConfig(kind="ricci", target=_uniform_target(metric))
    _, rec = step(metric, config, 4.0)
    assert rec.halvings == 2
    assert rec.h == 1.0
    limit = 0.0
    with pytest.raises(StepCollapse, match="IndefiniteOperator: refused"):
        step(metric, config, 4.0)


def test_a_mesh_error_halves_the_trial(monkeypatch):
    # a flip located on a self-glued edge raises SelfFlip, a MeshError,
    # inside the trial: the trial is rejected and halved, not the run ended
    from packflow import SelfFlip, flows

    flip_along, raised = flows.flip_along, []

    def self_flipping(metric, du, **kwargs):
        if not raised:
            raised.append(True)
            raise SelfFlip("edge 4 has both sides on triangle 1; flip undefined")
        return flip_along(metric, du, **kwargs)

    monkeypatch.setattr(flows, "flip_along", self_flipping)
    metric = _seeded_tetra(7)
    config = FlowConfig(kind="ricci", target=_uniform_target(metric))
    _, rec = step(metric, config, 4.0)
    assert raised
    assert rec.halvings == 1
    assert rec.h == 2.0


def test_uniform_shift_equivariance():
    # curvature and the step rule only see scale differences, so shifting
    # every u by a constant shifts the whole trajectory by that constant
    base = _seeded_tetra(4)
    shifted = _seeded_tetra(4)
    shifted.set_conformal_factors(shifted.conformal_factors + 0.7)
    target = _uniform_target(base)
    ta = run(base, FlowConfig(kind="calabi", target=target))
    tb = run(shifted, FlowConfig(kind="calabi", target=target))
    assert ta.steps == tb.steps
    diff = tb.metric.conformal_factors - ta.metric.conformal_factors
    assert np.allclose(diff, 0.7, atol=1e-12)


def test_surgery_during_run_counts_flips():
    metric = preset_metric("tetrahedron")
    metric.set_conformal_factors(1.02 * np.array([1.0, 1.0, -1.0, -1.0]))
    target = _uniform_target(metric)
    with_surgery = run(metric, FlowConfig(kind="calabi", target=target))
    assert with_surgery.converged
    assert with_surgery.flips_total >= 1
    assert with_surgery.initial_violations == 0
    without = run(metric, FlowConfig(kind="calabi", target=target, surgery=False))
    assert without.flips_total == 0
    assert without.initial_violations == 1


def test_p_flow_converges_on_torus():
    metric = preset_metric("torus_grid", n=3)
    rng = np.random.default_rng(1)
    u = rng.uniform(-0.2, 0.2, 9)
    u -= u.mean()
    metric.set_conformal_factors(u)
    target = np.zeros(9)
    for p in (1.5, 3.0):
        trace = run(metric, FlowConfig(kind="p_calabi", target=target, p=p))
        assert trace.converged, p
        assert trace.final_max_curv_err < 1e-8
        assert all(rec.w_increment <= 0.0 for rec in trace.records)


def test_fractional_half_converges_on_torus():
    metric = preset_metric("torus_grid", n=3)
    rng = np.random.default_rng(2)
    u = rng.uniform(-0.2, 0.2, 9)
    u -= u.mean()
    metric.set_conformal_factors(u)
    trace = run(metric, FlowConfig(kind="fractional", target=np.zeros(9), s=0.5))
    assert trace.converged
    assert math.isclose(trace.records[-1].sum_u, float(np.sum(u)), abs_tol=1e-9)


def test_fractional_run_never_forms_a_dense_operator(monkeypatch):
    # the fractional velocity runs on a Lanczos basis of the edge Laplacian
    # and the step on conjugate gradients: no dense Jacobian, no spectral
    # decomposition and no V x V eigh
    from packflow import flows, operators

    def refuse(*args, **kwargs):
        raise AssertionError("the fractional flow reached the dense operator")

    eigh, sizes = np.linalg.eigh, []

    def counting_eigh(matrix, *args, **kwargs):
        sizes.append(len(matrix))
        return eigh(matrix, *args, **kwargs)

    for name in ("jacobian", "spectral"):
        monkeypatch.setattr(operators, name, refuse)
        monkeypatch.setattr(flows, name, refuse, raising=False)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    metric = preset_metric("torus_grid", n=12)
    u = np.random.default_rng(5).uniform(-0.2, 0.2, 144)
    metric.set_conformal_factors(u - u.mean())
    trace = run(metric, FlowConfig(kind="fractional", s=0.5, target=np.zeros(144), tol=1e-8))
    assert trace.converged
    assert sizes and max(sizes) < 144, sizes


def test_curvature_is_computed_once_per_trial_state(monkeypatch):
    # every trial state that passes the margin check costs exactly one
    # whole-mesh pass of the per-face kernel: its curvature, Delaunay check
    # and the next step's start all read that pass; recomputing k0 on
    # every step, or angles apart from the circles, breaks the equality.
    # An inadmissible trial enters _settle as well and leaves it by the
    # margin gate, before the pass, so only admissible entries count.
    # Conjugate-gradient matvecs read the memoized edge weights and add no
    # pass.  The run converges in 3 steps from h = 10 (max|K - target|
    # 0.86 -> 2.7e-2 -> 4.8e-5 -> 1.3e-10, no halvings); a budget
    # of 3 keeps the count fixed should a change to the controller
    # lengthen it
    from packflow import flows, geometry

    metric = preset_metric("torus_grid", n=5)
    rng = np.random.default_rng(3)
    u = rng.uniform(-0.2, 0.2, 25)
    u -= u.mean()
    metric.set_conformal_factors(u)
    passes = settled = 0
    faces, settle = geometry._faces, flows._settle

    def counting_faces(l, r):
        nonlocal passes
        passes += l.shape[1] == metric.mesh.num_triangles
        return faces(l, r)

    def counting_settle(state, *args):
        nonlocal settled
        settled += validate_triangles(state).admissible
        return settle(state, *args)

    monkeypatch.setattr(geometry, "_faces", counting_faces)
    monkeypatch.setattr(flows, "_settle", counting_settle)
    trace = run(metric, FlowConfig(kind="ricci", target=np.zeros(25), max_steps=3))
    assert trace.steps == 3
    trial_states = 1 + sum(1 + rec.halvings for rec in trace.records[1:])
    assert passes == settled == trial_states


# -- the linearly implicit step ------------------------------------------------

WILD = RandomMetricSpec(preset="icosahedron", u_range=0.7, inversive_range=(1.05, 4.0))
EVERY_KIND = {
    "ricci": {"kind": "ricci"},
    "calabi": {"kind": "calabi"},
    "fractional-0": {"kind": "fractional", "s": 0.0},
    "fractional-0.5": {"kind": "fractional", "s": 0.5},
    "fractional-1": {"kind": "fractional", "s": 1.0},
    "p_calabi-1.5": {"kind": "p_calabi", "p": 1.5},
    "p_calabi-3": {"kind": "p_calabi", "p": 3.0},
}


def _random_target(metric, seed: int) -> np.ndarray:
    # N(0, 1) per vertex, recentred to 2 pi chi / V, clipped at 2 pi - 0.3
    # and re-summed to 2 pi chi
    n = metric.mesh.num_vertices
    total = 2.0 * np.pi * metric.mesh.euler_characteristic
    target = np.random.default_rng(1000 + seed).normal(0.0, 1.0, n)
    target = np.minimum(target - target.mean() + total / n, 2.0 * np.pi - 0.3)
    return target + (total - target.sum()) / n


def _dense_w(metric, settings: dict, jac: np.ndarray) -> tuple[np.ndarray, float]:
    """W of A = W dK/du and the scale sigma of the right-hand side v / sigma,
    built from the dense Jacobian alone."""
    from packflow import curvature

    n = jac.shape[0]
    g = curvature(metric) - _uniform_target(metric)
    a, b = np.nonzero(np.triu(jac, 1))
    if settings["kind"] == "p_calabi":
        # the p-family steps in the time tau, dt = dtau / sigma, sigma the
        # largest edge jump of g to the power p - 2.  R is the Laplacian on
        # the Jacobian's edge weights times each edge's p-rate relative to
        # that jump (0 on a tiny jump below p = 2), and beta twice the
        # largest absolute row sum of its off-diagonal
        p = settings["p"]
        jumps = np.abs(g[b] - g[a])
        tiny = (jumps <= 1e-14 * np.max(np.abs(g))) & (p < 2.0)
        rates = np.where(tiny, 0.0, (np.where(tiny, 1.0, jumps) / np.max(jumps)) ** (p - 2.0))
        off = np.zeros_like(jac)
        off[a, b] = off[b, a] = -jac[a, b] * rates
        beta, sigma = 2.0 * np.max(np.abs(off).sum(axis=1)), np.max(jumps) ** (p - 2.0)
        r = np.diag(off.sum(axis=1)) - off
    else:
        # the s-family: R = (dK/du)^s, bounded at s = 1 by beta = twice the
        # largest absolute row sum of the off-diagonal, and at every other s
        # by its largest eigenvalue off the kernel
        s = {"ricci": 0.0, "calabi": 1.0}.get(settings["kind"], settings.get("s"))
        if s == 0.0:
            return np.eye(n), 1.0
        lam, vecs = np.linalg.eigh(jac)
        kernel = np.abs(lam) <= 1e-12 * lam[-1]
        powers = np.where(kernel, 0.0, np.where(kernel, 1.0, lam) ** s)
        r = vecs @ np.diag(powers) @ vecs.T
        gershgorin = 2.0 * np.max(np.abs(jac - np.diag(np.diag(jac))).sum(axis=1))
        beta, sigma = (gershgorin if s == 1.0 else np.max(powers)), 1.0
    # D' = beta I - R is semidefinite.  Where every weight is >= 0, W is
    # beta I less the rank-one D' g (D' g)^T / g.D' g, so W g = R g
    dg = beta * g - r @ g
    w = beta * np.eye(n)
    if np.all(jac[a, b] <= 0.0) and g @ dg > 0.0:
        w = w - np.outer(dg, dg) / (g @ dg)
    return w, sigma


@pytest.mark.parametrize(
    "preset, n",
    [("tetrahedron", None), ("icosahedron", None), ("torus_grid", 4), ("torus_grid", 12)],
    ids=["tetrahedron", "icosahedron", "torus_grid", "torus_grid-12"],
)
def test_implicit_step_solves_the_dense_system(preset, n, monkeypatch):
    # on simplicial meshes an edge weight is minus its Jacobian entry, so
    # the reference never touches the edge fluxes, conjugate gradients or
    # Lanczos vectors; at V = 144 a fractional Lanczos basis stops before
    # its Krylov space is spanned, so it must stop on the v it returns, and
    # at s < 0 its largest Ritz value of (dK/du)^s must be beta's
    from packflow import flows, jacobian

    monkeypatch.setattr(flows, "CG_REL_TOL", 1e-13)
    spec = RandomMetricSpec(preset=preset, n=n, delaunay=True)
    for seed in range(3):
        metric = random_metric(spec, seed)
        jac = jacobian(metric)
        for settings in [*EVERY_KIND.values(), {"kind": "fractional", "s": -0.5}]:
            config = FlowConfig(target=_uniform_target(metric), **settings)
            v, solve = flows._linearization(metric, config)
            assert np.array_equal(v, velocity(metric, config))
            w, sigma = _dense_w(metric, settings, jac)
            for h in (0.1, 10.0, 1e6):
                expected = np.linalg.solve(np.eye(len(v)) + h * w @ jac, v / sigma)
                gap = np.max(np.abs(solve(h) - expected))
                assert gap <= 1e-8 * np.linalg.norm(v / sigma), (seed, settings, h, gap)


@pytest.mark.parametrize("spec", [RandomMetricSpec(), WILD], ids=["default", "wild"])
@pytest.mark.parametrize("name", EVERY_KIND)
def test_step_counts_stay_bounded_over_seeds(spec, name):
    # an explicit controller parked on the stability edge: WILD seed 28
    # ran ricci into a 20000-step budget at a median of 130
    steps = []
    for seed in range(40):
        metric = random_metric(spec, seed)
        config = FlowConfig(
            target=_uniform_target(metric), tol=1e-8, max_steps=20_000, **EVERY_KIND[name]
        )
        trace = run(metric, config)
        assert trace.converged, seed
        steps.append(trace.steps)
    assert max(steps) <= 10 * np.median(steps), steps
    # from h = 10, grown by the observed contraction, every kind reaches the
    # Newton regime in a few steps: medians of 3 (default) and 4 (WILD)
    # measured for each, p_calabi at p = 1.5 and 3 included, where the
    # explicit step below p = 2 took 15 / 95.5
    assert np.median(steps) <= (4 if spec == WILD else 3), steps


FORCED_KINDS = ["ricci", "calabi", "fractional-0.5", "p_calabi-3"]


def _count_applies(monkeypatch) -> list[int]:
    """A one-item list that counts every edge-flux apply by the flows: dK/du,
    and the p-Laplacian of each p-family velocity.  The p-family's W, alpha I
    less one rank-one term, goes through no edge flux."""
    from packflow import flows

    laplacian, applies = flows.edge_laplacian, [0]

    def counting_laplacian(metric, weights):
        apply = laplacian(metric, weights)

        def counted(f):
            applies[0] += 1
            return apply(f)

        return counted

    monkeypatch.setattr(flows, "edge_laplacian", counting_laplacian)
    return applies


def _counted_runs(monkeypatch, cg_rel_tol: float) -> dict:
    """Steps per seed and edge-flux applies per kind, at one CG_REL_TOL."""
    from packflow import flows

    applies = _count_applies(monkeypatch)
    monkeypatch.setattr(flows, "CG_REL_TOL", cg_rel_tol)
    counts = {}
    for name in FORCED_KINDS:
        applies[0], steps = 0, []
        for spec in (RandomMetricSpec(preset="torus_grid", n=6), WILD):
            for seed in range(20):
                metric = random_metric(spec, seed)
                config = FlowConfig(
                    target=_random_target(metric, seed), tol=1e-9, max_steps=2000, **EVERY_KIND[name]
                )
                trace = run(metric, config)
                assert trace.converged, (name, spec.preset, seed)
                steps.append(trace.steps)
        counts[name] = (np.array(steps), applies[0])
    return counts


def test_forced_linear_solves_never_cost_a_step(monkeypatch):
    # each linear solve stops at relative residual
    # min(CG_REL_TOL, max(CG_REL_TOL e, 0.1 tol / e)), e = max|K - target|:
    # near tol the last step solves only as finely as tol can see.  Against
    # solves tightened to 1e-10 it must keep the median and every seed within
    # one step, and apply the edge flux fewer times.  Measured: every seed
    # equal for every kind, with 1742 / 2243 / 2400 / 2212 applies (ricci /
    # calabi / fractional(0.5) / p_calabi(3)) against
    # 3157 / 3615 / 4038 / 3575.  On WILD (V = 12) the basis of fractional's
    # velocity spans its Krylov space either way
    forced = _counted_runs(monkeypatch, 1e-3)
    reference = _counted_runs(monkeypatch, 1e-10)
    for name in FORCED_KINDS:
        (steps, applies), (ref_steps, ref_applies) = forced[name], reference[name]
        assert np.median(steps) == np.median(ref_steps), (name, steps, ref_steps)
        assert np.all(steps <= ref_steps + 1), (name, steps, ref_steps)
        assert applies < ref_applies, (name, applies, ref_applies)


@pytest.mark.parametrize("name", EVERY_KIND)
def test_exact_state_stays_put(name):
    # a target equal to the state's own curvature makes e = 0 bit for bit:
    # the solve tolerance stays 0 and never divides by e, the velocity is
    # 0 and a step of any size returns u unchanged, with no warning
    metric = random_metric(WILD, 3)
    u = np.array(metric.conformal_factors)
    config = FlowConfig(target=curvature(metric), **EVERY_KIND[name])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.any(velocity(metric, config))
        for h in (DEFAULT_STEP, 1e6):
            state, record = step(metric, config, h)
            assert np.array_equal(state.conformal_factors, u), h
            assert (record.h, record.halvings) == (h, 0)


@pytest.mark.parametrize("spec", [RandomMetricSpec(), WILD], ids=["default", "wild"])
@pytest.mark.parametrize("p", [1.05, 1.2, 1.5, 1.8, 2.5, 3.0, 4.0, 6.0, 10.0])
def test_p_calabi_steps_stay_bounded_over_seeds(spec, p):
    # with the frozen p-weights A scaled as max|dg|^(p-2), so h had to
    # outgrow the cap: p = 4 took a median of 465 steps on the default
    # spec and p = 4.5 did not converge in 20000
    steps = []
    for seed in range(40):
        metric = random_metric(spec, seed)
        target = _uniform_target(metric)
        trace = run(metric, FlowConfig(kind="p_calabi", p=p, target=target, tol=1e-8, max_steps=300))
        assert trace.converged, seed
        steps.append(trace.steps)
    assert max(steps) <= 10 * np.median(steps), steps
    # W = alpha I less the rank-one term along D' g has W g = W_exact g, the
    # p-flow's own rate, so the step is Newton's at every p: medians of 3
    # (default) and 4 (WILD) at each p here.  Below p = 2 the explicit step
    # took 23 / 19 / 15 / 24 and 97.5 / 91.5 / 95.5 / 82 at p = 1.05 / 1.2 /
    # 1.5 / 1.8.  At p = 2.5 / 3 / 4 / 6 / 10 the rate Laplacian floored at
    # 0.25 took 3 / 5 / 7 / 9 / 10 and 5 / 7 / 11 / 19 / 31, and W = dK/du
    # 9 / 10 / 12 / 16 / 23 and 12 / 17 / 25 / 32.5 / 51
    assert np.median(steps) <= (4 if spec == WILD else 3), steps


@pytest.mark.parametrize(
    "preset, n", [("icosahedron", None), ("torus_grid", 4)], ids=["icosahedron", "torus_grid"]
)
def test_p_step_tends_to_the_newton_step(preset, n, monkeypatch):
    # W g is the p-Laplacian on the rates of v itself: alpha I less the
    # rank-one term along D' g has W g = W_exact g.  So v / sigma = -W g and
    # h x(h) = -(I / h + W J)^-1 W g tends to the Newton step -J^+ g as h
    # grows, at every p, below p = 2 too
    from packflow import flows, jacobian

    monkeypatch.setattr(flows, "CG_REL_TOL", 1e-13)
    spec = RandomMetricSpec(preset=preset, n=n, delaunay=True)
    h = 1e10
    for seed in range(3):
        metric = random_metric(spec, seed)
        target = _uniform_target(metric)
        newton = -np.linalg.pinv(jacobian(metric)) @ (curvature(metric) - target)
        for p in (1.5, 3.0, 6.0):
            config = FlowConfig(kind="p_calabi", p=p, target=target)
            _, solve = flows._linearization(metric, config)
            gap = np.max(np.abs(h * solve(h) - newton))
            assert gap <= config.tol * np.max(np.abs(newton)), (seed, p, gap)


OBTUSE = RandomMetricSpec(preset="icosahedron", u_range=0.7, inversive_range=(-0.9, 1.0))


def test_p_step_refuses_an_indefinite_jacobian():
    # obtuse overlaps (inversive distance below 0) make dK/du indefinite on
    # OBTUSE seed 19, which is not weighted Delaunay.  With surgery off,
    # calabi and the p-family refuse it at every h rather than step: an edge
    # of negative weight leaves W = beta I, and the conjugate gradients of
    # I + h beta dK/du meet the negative curvature, so the run collapses on
    # IndefiniteOperator.  calabi on its Lanczos basis solved I + h
    # (dK/du)^2, definite for any symmetric dK/du, and collapsed on the
    # monotonicity test instead (down to h = 5.9e-9)
    from packflow import IndefiniteOperator, flows, jacobian

    metric = random_metric(OBTUSE, 19)
    assert np.linalg.eigvalsh(jacobian(metric))[0] < -1.0
    for name in ("calabi", "p_calabi-3"):
        config = FlowConfig(target=_uniform_target(metric), surgery=False, **EVERY_KIND[name])
        _, solve = flows._linearization(metric, config)
        for h in (1e-3, 1.0, 1e6):
            with pytest.raises(IndefiniteOperator):
                solve(h)
        with pytest.raises(StepCollapse, match="IndefiniteOperator"):
            run(metric, config)


def test_p_step_solves_wherever_the_jacobian_is_semidefinite():
    # with an edge of negative weight W is beta I, which needs no sign of
    # the weights, so the step solves wherever dK/du is semidefinite, for
    # calabi and fractional(s > 0) as for the p-family.  On the OBTUSE
    # states of seeds 0-299 with negative weights and a semidefinite dK/du,
    # a W with the p-rate on those edges was indefinite in 12 of 528
    # (seed, p) pairs, and conjugate gradients refused it
    from packflow import flows, jacobian
    from packflow.geometry import edge_weights

    kinds = [{"kind": "p_calabi", "p": p} for p in (1.5, 3.0, 6.0)]
    kinds += [{"kind": "calabi"}, *({"kind": "fractional", "s": s} for s in (0.5, 1.5, -0.5))]
    checked = 0
    for seed in range(80):
        metric = random_metric(OBTUSE, seed)
        lam = np.linalg.eigvalsh(jacobian(metric))
        if lam[0] < -1e-9 * lam[-1] or not np.any(edge_weights(metric) < 0.0):
            continue
        checked += 1
        for settings in kinds:
            config = FlowConfig(target=_uniform_target(metric), surgery=False, **settings)
            _, solve = flows._linearization(metric, config)
            for h in (1.0, 1e6):
                assert np.all(np.isfinite(solve(h))), (seed, settings, h)
    assert checked >= 50


ALIAS_SPECS = {
    "default": RandomMetricSpec(),
    "wild": WILD,
    "torus_grid": RandomMetricSpec(preset="torus_grid", n=6),
}


def _assert_alias_runs_bitwise(alias: dict, general: dict) -> None:
    # an alias resolves to its general kind at the pinned exponent, so the
    # two runs are one code path: equal records, flips included.  Random
    # targets flip mid-flow on most WILD seeds
    flipped = 0
    for name, spec in ALIAS_SPECS.items():
        for seed in range(20):
            metric = random_metric(spec, seed)
            target = _random_target(metric, seed)
            a = run(metric, FlowConfig(target=target, tol=1e-9, **alias))
            b = run(metric, FlowConfig(target=target, tol=1e-9, **general))
            assert a.converged and a.records == b.records, (name, seed)
            assert np.array_equal(a.metric.conformal_factors, b.metric.conformal_factors)
            assert (a.kind, b.kind) == (alias["kind"], general["kind"])
            flipped += a.flips_total > a.records[0].flips_total
    assert flipped >= 5


def test_fractional_zero_equals_ricci_bitwise():
    metric = _seeded_tetra(5)
    target = _uniform_target(metric)
    a = velocity(metric, FlowConfig(kind="ricci", target=target))
    b = velocity(metric, FlowConfig(kind="fractional", target=target, s=0.0))
    assert np.array_equal(a, b)
    _assert_alias_runs_bitwise({"kind": "ricci"}, {"kind": "fractional", "s": 0.0})


def test_p_two_runs_calabi_bitwise():
    # p_calabi at p = 2 resolves to the s-family at s = 1, as calabi does
    _assert_alias_runs_bitwise({"kind": "calabi"}, {"kind": "p_calabi", "p": 2.0})


def test_fractional_one_runs_calabi_bitwise():
    # calabi is the fractional Calabi flow at s = 1: one code path
    _assert_alias_runs_bitwise({"kind": "calabi"}, {"kind": "fractional", "s": 1.0})


def test_step_counts_on_from_the_record_it_is_given():
    # one record path: a step taken by hand from a run's state and last
    # record, at the controller's next h, is the run's own next record,
    # step index, t, flips and potential included.  Without a record a
    # step counts from a run's start
    metric = random_metric(WILD, 4)
    config = FlowConfig(kind="ricci", target=_random_target(metric, 4), tol=1e-9)
    full = run(metric, config)
    assert full.converged and full.flips_total > full.records[0].flips_total
    for prev, rec in zip(full.records, full.records[1:]):
        assert (rec.step, rec.t) == (prev.step + 1, prev.t + rec.h)
        assert rec.flips_total == prev.flips_total + rec.flips
        assert rec.w_est == prev.w_est + rec.w_increment
    target_sum = float(np.sum(metric.conformal_factors))
    for k in range(1, full.steps):
        config.max_steps = k
        part = run(metric, config)
        prev, rec = part.records[-2:]
        h = rec.h
        if not rec.halvings:
            contraction = prev.max_curv_err / rec.max_curv_err
            h = min(h * STEP_GROWTH * max(1.0, contraction), STEP_GROWTH_CAP)
        _, by_hand = step(part.metric, config, h, rec, target_sum)
        assert by_hand == full.records[k + 1], k
    _, first = step(metric, config, 0.1)
    assert (first.step, first.t, first.w_est) == (1, first.h, first.w_increment)
    assert first.flips_total == first.flips


def _assert_controller(trace, config):
    recs = trace.records
    assert recs[1].h == config.initial_step * 0.5 ** recs[1].halvings
    for prev, rec, nxt in zip(recs, recs[1:], recs[2:]):
        if rec.halvings:
            trial = rec.h
        else:
            contraction = prev.max_curv_err / rec.max_curv_err
            trial = min(rec.h * STEP_GROWTH * max(1.0, contraction), STEP_GROWTH_CAP)
        assert nxt.h == trial * 0.5 ** nxt.halvings, (nxt.step, nxt.h, trial)


@pytest.mark.parametrize(
    "name, seed", [("ricci", 0), ("p_calabi-1.5", 3)], ids=["ricci", "p_calabi-1.5"]
)
def test_step_grows_by_the_observed_contraction(name, seed):
    # after a clean step the next trial is h STEP_GROWTH max(1, e_prev / e)
    # up to the cap; after a step that halved it is that step's h.  ricci
    # takes no halvings and grows by more than STEP_GROWTH; p_calabi(1.5)
    # on WILD seed 3 halves its first step seven times, and no other
    metric = random_metric(WILD, seed)
    config = FlowConfig(target=_uniform_target(metric), tol=1e-8, **EVERY_KIND[name])
    trace = run(metric, config)
    assert trace.converged
    _assert_controller(trace, config)
    recs = trace.records[1:]
    if name == "ricci":
        assert not any(rec.halvings for rec in recs)
        assert any(b.h > STEP_GROWTH * a.h for a, b in zip(recs, recs[1:]))
    else:
        assert any(rec.halvings for rec in recs) and not all(rec.halvings for rec in recs)


@pytest.mark.parametrize("name", ["ricci", "calabi", "fractional-0.5", "p_calabi-3"])
def test_step_growth_cap_keeps_an_unreachable_tolerance_finite(name):
    # below round-off the error stalls while every trial at the round-off
    # floor is accepted: h climbs to the cap and the run ends by its
    # budget.  Uncapped, h passes 1e45 by step 100, and before step 120 no
    # halving of it gives an acceptable step; without the floor the
    # monotonicity test rejects round-off increases at every h that 30
    # halvings from the cap reach: StepCollapse either way
    metric = random_metric(RandomMetricSpec(preset="icosahedron"), 0)
    target = _uniform_target(metric)
    config = FlowConfig(target=target, tol=1e-30, max_steps=150, **EVERY_KIND[name])
    trace = run(metric, config)
    assert trace.termination == "budget"
    assert trace.steps == 150
    assert max(rec.h for rec in trace.records) == STEP_GROWTH_CAP
    _assert_controller(trace, config)


def test_a_round_off_residual_is_not_an_indefinite_operator(monkeypatch):
    # at the growth cap ricci's conjugate gradients meet r . J r = -6.5e-64
    # on a state at the round-off floor: a zero J-norm, within the dot
    # product's own rounding, so the solve has converged; it used to raise
    # IndefiniteOperator and reject the trial
    from packflow import IndefiniteOperator, flows

    solve_shifted, raised = flows.solve_shifted, []

    def watching(*args):
        try:
            return solve_shifted(*args)
        except IndefiniteOperator as exc:
            raised.append(str(exc))
            raise

    monkeypatch.setattr(flows, "solve_shifted", watching)
    metric = random_metric(RandomMetricSpec(preset="icosahedron"), 0)
    config = FlowConfig(kind="ricci", target=_uniform_target(metric), tol=1e-30, max_steps=150)
    trace = run(metric, config)
    assert trace.termination == "budget"
    assert raised == []
    assert not any(rec.halvings for rec in trace.records)


def _bumpy_torus(n: int = 20):
    # the bumpy torus of the CI convergence check: torus_grid n (20 there,
    # V = 400) as `packflow generate` writes it, u from default_rng(1), recentred
    metric = preset_metric("torus_grid", n=n)
    u = np.random.default_rng(1).uniform(-0.2, 0.2, metric.mesh.num_vertices)
    metric.set_conformal_factors(u - u.mean())
    return metric


@pytest.mark.parametrize(
    "settings, steps",
    [
        ({"kind": "ricci"}, 3),
        ({"kind": "calabi", "tol": 1e-6}, 3),
        ({"kind": "fractional", "s": 0.5, "tol": 1e-6}, 3),
        ({"kind": "fractional", "s": -0.5, "tol": 1e-6}, 3),
        ({"kind": "p_calabi", "p": 3.0, "tol": 1e-6}, 3),
        ({"kind": "p_calabi", "p": 1.5, "tol": 1e-6}, 3),
    ],
    ids=["ricci", "calabi", "fractional-0.5", "fractional--0.5", "p_calabi-3", "p_calabi-1.5"],
)
def test_a_bumpy_torus_converges_in_three_steps_from_the_default_step(settings, steps):
    # from h = 10 the first step damps the slowest mode of dK/du (eigenvalue
    # 0.113) by 1 / (1 + h 0.113), and the rest converge quadratically: three
    # steps, where h = 1 took four.  p_calabi takes Newton steps at every p:
    # three at p = 3, where the floored W took four to six and W = dK/du
    # thirteen, and three at p = 1.5, where the explicit step had not
    # converged after 5000
    metric = _bumpy_torus()
    trace = run(metric, FlowConfig(target=_uniform_target(metric), **settings))
    assert trace.converged
    assert trace.steps <= steps, [rec.max_curv_err for rec in trace.records]


def test_calabi_and_fractional_solve_at_ricci_cost(monkeypatch):
    # calabi and fractional(s > 0) share the p-family's W, beta I less one
    # rank-one term, so each conjugate gradient applies dK/du once and the
    # step tends to Newton's.  On the bumpy torus at n = 40 (V = 1600)
    # calabi applies the edge flux 88 times in 3 steps, where one Lanczos
    # basis of dK/du per step took 138 in 4, and conjugate gradients on
    # I + h (dK/du)^2 took 836; fractional(1.5) takes 3 steps and 99
    # applies, where the Lanczos basis took 5 steps
    applies = _count_applies(monkeypatch)
    metric = _bumpy_torus(40)
    trace = run(metric, FlowConfig(kind="calabi", target=_uniform_target(metric), tol=1e-6))
    assert trace.converged
    assert applies[0] <= 120, applies[0]
    trace = run(metric, FlowConfig(kind="fractional", s=1.5, target=_uniform_target(metric), tol=1e-6))
    assert trace.converged
    assert trace.steps <= 3, [rec.max_curv_err for rec in trace.records]


@pytest.mark.parametrize("s, bound", [(0.5, 110), (-0.5, 150)])
def test_fractional_steps_on_one_krylov_process(s, bound, monkeypatch):
    # the conjugate gradients start from the Galerkin solution on the
    # Lanczos basis v was read from, so they only check it or finish it.
    # On the bumpy torus at n = 40 (V = 1600) fractional(0.5) applies the
    # edge flux 95 times and fractional(-0.5) 132, where a Krylov space
    # rebuilt from zero by the conjugate gradients took 160 and 222
    applies = _count_applies(monkeypatch)
    metric = _bumpy_torus(40)
    trace = run(metric, FlowConfig(kind="fractional", s=s, target=_uniform_target(metric), tol=1e-6))
    assert trace.converged
    assert trace.steps <= 3, [rec.max_curv_err for rec in trace.records]
    assert applies[0] <= bound, applies[0]


def test_fractional_start_survives_a_basis_that_lost_orthogonality(monkeypatch):
    # the Galerkin start is read in the coordinates of v's Lanczos process,
    # which stay exact where its basis is no longer orthonormal.  On a grid
    # torus at V = 400 under fractional(-1.5), solved to 1e-9, the basis
    # has 77 vectors whose Gram matrix is 0.095 off the identity; the
    # start's residual is at most 0.073 of the tolerance, so the conjugate
    # gradients stop after the 3 applies of their check at every h.
    # Projected back on the basis (Q v and Q D' g), the start took 32, 54,
    # 62, 63 and 63 applies at these h
    from packflow import flows

    applies = _count_applies(monkeypatch)
    monkeypatch.setattr(flows, "CG_REL_TOL", 1e-9)
    lanczos, bases = flows.fractional_velocity, []

    def keeping_the_basis(*args):
        coeffs, top, basis, tri, norm = lanczos(*args)
        bases.append(basis)
        return coeffs, top, basis, tri, norm

    monkeypatch.setattr(flows, "fractional_velocity", keeping_the_basis)
    metric = random_metric(RandomMetricSpec(preset="torus_grid", n=20, delaunay=True), 0)
    config = FlowConfig(kind="fractional", s=-1.5, target=_random_target(metric, 0))
    _, solve = flows._linearization(metric, config)
    (basis,) = bases
    assert basis.shape[0] >= 64, basis.shape
    assert np.max(np.abs(basis @ basis.T - np.eye(basis.shape[0]))) > 0.05
    for h in (0.1, 1.0, DEFAULT_STEP, 1e3, 1e6):
        applies[0] = 0
        solve(h)
        assert applies[0] == 3, (h, applies[0])


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_p_calabi_solves_at_ricci_cost(p, monkeypatch):
    # the p-family's W is alpha I less one rank-one term, so I + h W dK/du
    # is ricci's I + h alpha dK/du but in one direction, and each conjugate
    # gradient applies dK/du once.  On the bumpy torus at n = 40 (V = 1600)
    # a run applies the edge flux 95 times at p = 3 and 119 at p = 1.5; the
    # floored rate Laplacian took 2214 at p = 3, and the explicit step
    # below p = 2 stopped on its 3000-step budget
    applies = _count_applies(monkeypatch)
    metric = _bumpy_torus(40)
    trace = run(metric, FlowConfig(kind="p_calabi", p=p, target=_uniform_target(metric), tol=1e-6))
    assert trace.converged
    assert applies[0] <= 200, applies[0]


def test_every_flow_reaches_the_same_limit():
    # rigidity: one decorated conformal class has one metric of a given
    # curvature.  Flips made where a step crosses the weighted Delaunay
    # boundary keep the class, so every kind, from h = 1 and from the
    # default h, and ricci at a small h, reach the limit of Newton's method
    # with its own crossings located by bisection; seeds that flip mid-flow
    # included (the default spec's seed 28, most WILD seeds).  fractional at
    # s < 0 too, whose beta is the largest Ritz value of (dK/du)^s
    from packflow.oracles import oracle_located_newton

    names = ("ricci", "calabi", "fractional-0.5", "p_calabi-3", "p_calabi-1.5")
    kinds = [*(EVERY_KIND[name] for name in names), {"kind": "fractional", "s": -0.5}]
    for spec, seeds, least in ((RandomMetricSpec(preset="icosahedron"), 30, 1), (WILD, 12, 50)):
        mid_flow = 0
        for seed in range(seeds):
            metric = random_metric(spec, seed)
            target = _random_target(metric, seed)
            limit = oracle_located_newton(metric, target).conformal_factors
            for settings in [{"kind": "ricci", "h": 0.02}, *({**k, "h": 1.0} for k in kinds), *kinds]:
                trace = run(metric, FlowConfig(target=target, tol=1e-9, **settings))
                assert trace.converged, (spec.preset, seed, settings)
                mid_flow += trace.flips_total - trace.records[0].flips
                gap = np.max(np.abs(trace.metric.conformal_factors - limit))
                assert gap <= 1e-8, (spec, seed, settings, gap)
        assert mid_flow >= least, spec


@pytest.mark.parametrize(
    "spec",
    [RandomMetricSpec(preset="icosahedron"), WILD, RandomMetricSpec(preset="torus_grid", n=3)],
    ids=["icosahedron", "wild", "torus_grid-3"],
)
def test_fractional_orders_converge_over_seeds(spec):
    # v's Lanczos basis is orthogonalised against the constants and its
    # last two vectors only, and at s < 0 it weights the slowest modes
    # most; every order reaches tol from every seed and target, and the
    # four orders reach one limit (measured spread 5.1e-10 at tol 1e-9)
    for seed in range(20):
        metric = random_metric(spec, seed)
        for target in (_uniform_target(metric), _random_target(metric, seed)):
            limits = []
            for s in (0.5, -0.5, 1.5, -1.5):
                trace = run(metric, FlowConfig(kind="fractional", s=s, target=target, tol=1e-9))
                assert trace.converged, (seed, s)
                limits.append(trace.metric.conformal_factors)
            gap = np.max(np.ptp(np.stack(limits), axis=0))
            assert gap <= 1e-8, (seed, gap)


def test_every_kind_reaches_one_limit_on_a_random_target_at_ladder_size():
    # rigidity at V = 1600: the ladder's random 40, seed 1, flips before
    # the flow and mid-flow under every kind, and the limits agree.  An
    # error of tol in K moves u by up to |J+| tol, so at tol 1e-8 the
    # limits of these kinds differ by up to 5.4e-8 over seeds 0-9; at
    # tol 1e-10 by at most 7.3e-10
    spec = RandomMetricSpec(preset="torus_grid", n=40, u_range=0.5, inversive_range=(1.2, 3.0))
    metric = random_metric(spec, 1)
    target = _random_target(metric, 1)
    limits = []
    for name in ("ricci", "calabi", "fractional-0.5", "p_calabi-3"):
        trace = run(metric, FlowConfig(target=target, tol=1e-10, **EVERY_KIND[name]))
        assert trace.converged, name
        assert trace.flips_total > trace.records[0].flips, name
        limits.append(trace.metric.conformal_factors)
    gap = np.max(np.ptp(np.stack(limits), axis=0))
    assert gap <= 1e-8, gap


def _torus_cover(n: int, g: int, k: int):
    """The g-sheeted cyclic cover of the n x n grid torus, branched at the
    row-0 vertices (0, 0) and (0, k): chi = -2(g - 1), V = g n^2 - 2(g - 1).

    Vertex (i, j) of sheet s is s n^2 + i n + j, as in the grid torus.  On
    sheet s a face of row n - 1 reads the slit-interior vertices (0, 1..k-1)
    of sheet s + 1 mod g, the two branch points keep sheet 0's labels, and
    the labels are compacted."""
    grid = np.arange(g * n * n).reshape(g, n, n)
    grid[:, 0, 0], grid[:, 0, k] = 0, k
    faces = []
    for s in range(g):
        rows = np.vstack([grid[s], grid[s, :1]])  # row n is row 0, across the slit
        rows[n, 1:k] = grid[(s + 1) % g, 0, 1:k]  # on the next sheet
        for i in range(n):
            for j in range(n):
                v00, v10 = rows[i, j], rows[i + 1, j]
                v11, v01 = rows[i + 1, (j + 1) % n], rows[i, (j + 1) % n]
                faces += [[v00, v10, v11], [v00, v11, v01]]
    labels, faces = np.unique(faces, return_inverse=True)
    return infer_gluings(len(labels), faces.reshape(-1, 3))


@pytest.mark.parametrize(
    ("n", "g", "k", "vertices"), [(6, 2, 3, 70), (6, 3, 3, 104)], ids=["genus-2", "genus-3"]
)
def test_every_kind_reaches_one_limit_on_a_higher_genus_cover(n, g, k, vertices):
    # the paper's convergence holds on closed surfaces of every genus; radii
    # 1, inversive distances U(1.2, 3.0) and u ~ U(-0.5, 0.5), the first
    # admissible draw from seed 1.  Every kind takes 5 steps, the genus-2
    # cover flips 2 edges, and the limits agree within 2.1e-11
    mesh = _torus_cover(n, g, k)
    assert (mesh.num_vertices, mesh.euler_characteristic) == (vertices, -2 * (g - 1))
    rng, radii = np.random.default_rng(1), np.ones(vertices)
    while True:
        inversive = rng.uniform(1.2, 3.0, mesh.num_edges)
        u = rng.uniform(-0.5, 0.5, vertices)
        metric = DecoratedMetric(mesh, lengths_from_inversive(mesh, radii, inversive), radii, u)
        if validate_triangles(metric).admissible:
            break
    assert abs(gauss_bonnet_residual(metric)) <= 1e-12
    limits = []
    for settings in ({"kind": "ricci"}, {"kind": "calabi"}, {"kind": "fractional", "s": 0.5},
                     {"kind": "fractional", "s": -0.5}, {"kind": "p_calabi", "p": 3.0}):
        trace = run(metric, FlowConfig(target=_uniform_target(metric), tol=1e-10, **settings))
        assert trace.converged and trace.steps <= 8, (settings, trace.steps)
        limits.append(trace.metric.conformal_factors)
    gap = np.max(np.abs(np.stack(limits) - limits[0]))
    assert gap <= 1e-8, gap


def test_every_mid_flow_flip_is_made_at_its_crossing(monkeypatch):
    # a located flip happens where its edge's d1 + d2 is within the Delaunay
    # tolerance of 0, on the violating side; its event carries that time,
    # inside its trial's step and after the trial's earlier flips.  Each
    # trial is checked on its own, so a rejected trial's flips count too
    from packflow import flows, surgery
    from packflow.geometry import delaunay_terms

    flip_metric, flip_along, trials, done = surgery.flip_metric, flows.flip_along, [], []

    def checking(metric, edges, **kwargs):
        if trials:
            (edge,), (dsum, eps) = edges, delaunay_terms(metric)
            trials[-1][1].append((kwargs["flow_time"], float(dsum[edge]), float(eps[edge])))
        return flip_metric(metric, edges, **kwargs)

    def walking(metric, du, **kwargs):
        trials.append((kwargs["flow_time"], []))
        try:
            return flip_along(metric, du, **kwargs)
        finally:
            done.append(trials.pop())

    monkeypatch.setattr(surgery, "flip_metric", checking)
    monkeypatch.setattr(flows, "flip_along", walking)
    count = 0
    for seed in range(6):
        metric = random_metric(WILD, seed)
        done.clear()
        trace = run(metric, FlowConfig(kind="ricci", target=_random_target(metric, seed), tol=1e-9))
        assert trace.converged
        for (t0, h), located in done:
            for flow_time, dsum, eps in located:
                assert -eps <= dsum < 0.0, (seed, flow_time, dsum, eps)
            times = [t for t, _, _ in located]
            assert times == sorted(times)
            assert all(t0 < t <= t0 + h for t in times)
            count += len(located)
    assert count >= 5
