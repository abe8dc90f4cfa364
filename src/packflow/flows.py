"""Time integration of the curvature flows in the log scale factors.

Four names select the flows, each by its pair (s, p): s is the order of
the flow's rate R, p its Calabi exponent.

    fractional(s) du/dt = -(dK/du)^s (K - target)   (s, 2)
    p_calabi(p)   du/dt = p-laplacian(K - target)    (1, p)
    ricci         fractional at s = 0                (0, 2)
    calabi        fractional at s = 1                (1, 2), and p_calabi at p = 2

``FlowConfig`` resolves a name once to its (s, p), so the integrator reads
those two numbers alone.  Every kind applies dK/du as the edge flux of
the operators module in O(E) and steps by conjugate gradients; an order
s other than 0 and 1 reads its velocity off one Lanczos basis, on which
its conjugate gradients start.  No flow assembles the dense Jacobian or
its spectrum.

Steps are linearly implicit Euler (Hairer-Wanner II): u1 = u0 + h x with
(I + hA) x = v / sigma, A = W dK/du, which damps every mode at any h and
tends to a Newton step as h grows.  sigma = 1 except for p_calabi at
p != 2, whose rate scales as sigma = max|dg_e|^(p-2), g = K - target:
there h and t are the rate-normalised time tau, dt = dtau / sigma.  W = I
for ricci; for every other kind (calabi, fractional, p_calabi) it is
a multiple of the identity less one rank-one term, so that W g is the
flow's own rate: the step tends to Newton's at a conjugate gradient of
ricci's cost.  Any W keeps the step consistent (a W-method), so small
steps follow the flow and the limit is the flow's.  An exact zero-sum projection
follows, so the total of the scale factors is conserved to machine
precision.  Surgery (when on) flips every edge where the step's straight
segment of scale factors, u0 + s h x, crosses the weighted Delaunay
boundary, at its crossing (``surgery.flip_along``), so the run stays in
its decorated conformal class and every kind and step size reach one
limit, up to an edge that crosses and crosses back within one step,
which is not seen.  A trial step is accepted only if the solve succeeds,
the state stays admissible, surgery (when on) succeeds, and the monitored
quantities do not increase: the squared curvature deviation wherever
p = 2 (every kind but p_calabi at p != 2), and the trapezoidal potential
increment for every flow.  A trial already at the round-off floor of max|K - target|
skips that test.
Admissibility is the per-face pass's margin gate alone: its
DegenerateTriangle, like any typed mesh, metric, geometry, operator or
surgery error (a located flip of a self-glued edge raises SelfFlip),
rejects the trial and halves the step.  A trial that fails the
monotone test instead takes sqrt(h) while h > 4, and halves below: h grew
geometrically, so this bisects log h, and a rejection at the growth cap
reaches a small h.  A step takes up to 30 rejections of either kind, and
the next step starts from the accepted h.  After a clean step the next
trial is h * STEP_GROWTH * max(1, e_prev / e), e the max|K - target| of the
last two accepted states, up to STEP_GROWTH_CAP: switched evolution
relaxation (Mulder-van Leer 1985) with doubling as a floor, which grows h
into the Newton regime in a few steps.  The first trial is DEFAULT_STEP
= 10, long enough that it damps even the slowest mode of dK/du, by
1 / (1 + h lam_1) with lam_1 = 0.113 on a bumpy torus of 400 vertices
(pseudo-transient continuation, Kelley-Keyes 1998), so every kind takes
about three steps there, p_calabi at any p.  Each
step's linear solve is only as accurate as the run needs: its tolerance
is an inexact-Newton forcing term (Eisenstat-Walker 1996) that tightens
as max|K - target| falls but never past what tol can see (see
``_linearization``).
Curvature, margins and the per-face pass (angles, circles, Delaunay
terms) are memoized per state (``DecoratedMetric.memo``): a trial state
pays for one whole-mesh pass, plus, for a flip located inside the step,
one per bisection of the step's segment and one at its end; a run's
start pays one per round of ``make_delaunay``; and an accepted state's
curvature and edge weights start the next step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import nan, sqrt

import numpy as np

from .errors import (
    GeometryError,
    InvalidExponent,
    InvalidFlowSetting,
    MeshError,
    MetricError,
    NonAdmissibleTarget,
    OperatorError,
    StepCollapse,
    SurgeryError,
)
from .geometry import edge_weights
from .metric import DecoratedMetric, validate_triangles
from .operators import calabi_energy, curvature, edge_laplacian, p_rates
from .operators import fractional_velocity, solve_shifted
from .surgery import delaunay_violations, flip_along, make_delaunay

logger = logging.getLogger(__name__)

# each kind's (s, p): the order s of its rate R and its Calabi exponent p,
# None where the caller's value is kept
KINDS = {
    "calabi": (1.0, 2.0),
    "fractional": (None, 2.0),
    "p_calabi": (1.0, None),
    "ricci": (0.0, 2.0),
}
DEFAULT_STEP = 10.0
MAX_HALVINGS = 30  # rejected trials per step; each halves h, or takes its square root above h = 4
STEP_GROWTH = 2.0
STEP_GROWTH_CAP = 1e12   # a tol below round-off would otherwise grow h without bound
TARGET_SUM_TOL = 1e-9
CG_REL_TOL = 1e-3
ROUNDOFF_FLOOR = 64 * np.finfo(float).eps * 2.0 * np.pi  # max|K - target| within round-off of 0


@dataclass
class FlowConfig:
    """Everything a run needs besides the metric itself.

    ``kind`` keeps the caller's name.  The integrator reads s and p
    alone, and ``KINDS`` pins each kind's exponents over the caller's:
    both for ricci (0, 2) and calabi (1, 2), p = 2 for fractional, and
    s = 1, the order of its rate, for p_calabi, which at p = 2 is calabi.
    ``h = None`` starts every kind at DEFAULT_STEP = 10: the linearly
    implicit step damps every mode at any h, so no kind needs a smaller
    one, and at h = 1 a mode of dK/du with eigenvalue 0.113 keeps 0.9 of
    itself.  ``tol`` also bounds each step's linear solve (see
    ``_linearization``).  After
    a step that needed no halving the trial step grows by STEP_GROWTH times
    the factor by which that step cut max|K - target|, if above 1.
    """

    kind: str
    target: np.ndarray
    s: float = 0.0
    p: float = 2.0
    h: float | None = None
    tol: float = 1e-8
    max_steps: int = 1_000_000
    surgery: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidFlowSetting(
                f"unknown flow kind {self.kind!r}; expected one of {tuple(KINDS)}"
            )
        self.target = np.asarray(self.target, dtype=float)
        self.s, self.p = (v if pin is None else pin for v, pin in zip((self.s, self.p), KINDS[self.kind]))
        if not 1.0 < self.p < np.inf:
            raise InvalidExponent(f"p_calabi needs p in (1, inf), got {self.p}")
        if not np.isfinite(self.s):
            raise InvalidExponent(f"fractional needs a finite order s, got {self.s}")
        if self.h is not None and not 0.0 < self.h < np.inf:
            raise InvalidFlowSetting(f"step size must be positive and finite, got {self.h}")
        if not self.tol > 0:
            raise InvalidFlowSetting(f"tolerance must be positive, got {self.tol}")
        if not self.max_steps >= 0:
            raise InvalidFlowSetting(f"step budget must be at least 0, got {self.max_steps}")

    @property
    def initial_step(self) -> float:
        return DEFAULT_STEP if self.h is None else self.h


@dataclass
class StepRecord:
    """One accepted step (or the initial snapshot, with h = 0).

    h and t are in the flow's time, except for p_calabi (p != 2), where
    they are in its rate-normalised time tau (see ``_linearization``).
    ``halvings`` counts the step's rejected trials, each a halving of h or,
    for a failed monotone test above h = 4, its square root.
    """

    step: int
    t: float
    h: float
    halvings: int
    max_curv_err: float
    calabi_energy: float
    w_increment: float
    w_est: float
    flips: int
    flips_total: int
    min_margin: float
    curvature_jump: float
    sum_u: float


@dataclass
class FlowTrace:
    """Accepted-step history plus the final state of a run."""

    records: list[StepRecord]
    termination: str
    metric: DecoratedMetric
    target: np.ndarray
    kind: str
    initial_violations: int = 0

    @property
    def converged(self) -> bool:
        return self.termination == "converged"

    @property
    def steps(self) -> int:
        return self.records[-1].step if self.records else 0

    @property
    def final_max_curv_err(self) -> float:
        return self.records[-1].max_curv_err if self.records else nan

    @property
    def flips_total(self) -> int:
        return self.records[-1].flips_total if self.records else 0


def velocity(metric: DecoratedMetric, config: FlowConfig) -> np.ndarray:
    """du/dt at the current state for the configured flow."""
    return _linearization(metric, config)[0]


def _linearization(metric: DecoratedMetric, config: FlowConfig):
    """(v, solve): the velocity, and h -> x with (I + hA) x = v / sigma.

    A = W dK/du and g = K - target.  ricci has W = I and v = -g.  Every
    kind of order s != 0 has v / sigma = -R g.  At s = 1 (calabi and
    p_calabi) R is the edge Laplacian, one apply, on the weights
    c_e |g_b - g_a|^(p-2) of ``p_rates`` (c_e at p = 2) over sigma
    = (max over the edges of |g_b - g_a|)^(p-2), and for p != 2 h is a step
    in the rate-normalised time tau, dt = dtau / sigma: the orbit is the
    flow's, and h, its halvings and its growth act on tau.  sigma = 1 where
    g is constant, where the power underflows, and for fractional(s), whose
    R = (dK/du)^s: ``fractional_velocity`` reads its v off one Lanczos
    basis of dK/du.  beta bounds R.  For s > 0, alpha, twice the largest
    sum of the absolute weights at a vertex, bounds the edge Laplacian's
    spectrum (Gershgorin), so beta = alpha^s.  For s < 0, R is (dK/du)^s
    on the Ritz pairs that v is read from, and beta the largest of their
    powers.  Either way D' = beta I - R is semidefinite, and
    D' g = beta g + v / sigma costs no apply.  Where every edge weight is
    >= 0 and g.D' g > 0, W = beta I - D' g (D' g)^T / g.D' g: W g = R g =
    -v / sigma, so h x tends to the Newton step -(dK/du)^+ g, and by
    Cauchy-Schwarz W dominates R, semidefinite there.  Elsewhere W = beta I:
    g.D' g = 0 means D' g = 0, so W g is already -v / sigma, and a negative
    weight leaves R without a sign.  I + h W dK/du is ricci's I + h beta
    dK/du but in one direction, so each conjugate gradient applies dK/du
    once.  For fractional(s), with Q the rows of v's basis, T its
    tridiagonal, c = Q v / sigma and d = Q D' g, the conjugate gradients
    start at the Galerkin solution x0 = Q^T y of
    (I + h (beta T - d d^T T / g.D' g)) y = c, without the d term where
    W = beta I: g, v and D' g lie in the span of Q and the constants, so
    x0 costs no apply, and the conjugate gradients check it and finish it
    if it falls short.  Conjugate gradients stop at relative residual
    rtol of v / sigma, from any start, and v's Lanczos basis at that
    relative change of v between two compared values, with the forcing term
    rtol = min(CG_REL_TOL, max(CG_REL_TOL e, 0.1 tol / e)), e = max|g|:
    a step solved to rtol leaves a linear error of about rtol e, which is
    CG_REL_TOL e^2 for e < 1, quadratic like the Newton step that large h
    tends to, until that falls to tol / 10, below what ``tol`` can see,
    where the solve stops tightening.  At e = 0, g = 0 and rtol = 0:
    x = 0, with no division by e.
    """
    deviation = curvature(metric) - config.target
    e = float(np.max(np.abs(deviation)))
    rtol = min(CG_REL_TOL, max(CG_REL_TOL * e, 0.1 * config.tol / e)) if e else 0.0
    weights = edge_weights(metric)
    apply_j = edge_laplacian(metric, weights)
    s = config.s  # the order of R
    if s == 0.0:
        v = -deviation
        return v, lambda h: solve_shifted(apply_j, lambda f: f, h, v, rtol)
    rates, spread = p_rates(metric, config.p, deviation)
    # 1 where g is constant, or on underflow
    sigma = float(spread ** (config.p - 2.0) if spread else 0.0) or 1.0
    if s == 1.0:  # calabi and p_calabi: one apply
        v = -edge_laplacian(metric, rates)(deviation)
    else:
        v, top, basis, tri = fractional_velocity(apply_j, deviation, s, rtol)
    if s < 0.0:  # the largest Ritz value of R on the basis v is read from
        beta = top
    else:  # Gershgorin
        ends = metric.mesh.edge_endpoints_array()
        beta = (2.0 * float(np.max(np.bincount(ends.ravel(), np.repeat(np.abs(rates), 2)))) / sigma) ** s
    scaled = v / sigma  # -R g
    dg = beta * deviation + scaled  # D' g
    gdg, apply_w = float(deviation @ dg), lambda f: beta * f
    rank_one = gdg > 0.0 and np.all(weights >= 0.0)
    if rank_one:  # R >= 0, so W >= R >= 0
        apply_w = lambda f: beta * f - dg * (float(dg @ f) / gdg)
    if s == 1.0 or not basis.size:
        return v, lambda h: solve_shifted(apply_j, apply_w, h, scaled, rtol)
    # Q W dK/du Q^T = (beta I - d d^T / g.D' g) T: the Galerkin system on v's basis
    c, d = basis @ scaled, basis @ dg
    wt = beta * tri - (np.outer(d, d @ tri) / gdg if rank_one else 0.0)
    return v, lambda h: solve_shifted(
        apply_j, apply_w, h, scaled, rtol, np.linalg.solve(np.eye(c.size) + h * wt, c) @ basis
    )


def _monotone_ok(config: FlowConfig, energy_before: float, energy_after: float, w_inc: float) -> bool:
    # the squared curvature deviation decreases along the flows with p = 2
    return not w_inc > 0.0 and (config.p != 2.0 or energy_after <= energy_before)


def _settle(
    state: DecoratedMetric, config: FlowConfig, last: StepRecord | None = None, h: float = 0.0,
    halvings: int = 0, g0: np.ndarray | None = None, du: np.ndarray | None = None,
) -> StepRecord:
    """Run surgery (when on) in place on ``state`` and return its finished record.

    A step of size h, after ``halvings`` rejected trials, moved u by du
    from the state of record ``last`` (None: a run's start), where
    K - target was g0; surgery flips the edges du crosses at their
    crossings, which leaves none violating.  Without du, ``state`` is a
    run's start, and ``make_delaunay`` flips every violating edge.  The
    record counts on from ``last``; its curvature jump is across a start's
    flips, which are isometries.  An inadmissible state raises
    DegenerateTriangle at its first whole-mesh read.
    """
    step0, t0, flips0, w0 = (0, 0.0, 0, 0.0)
    if last is not None:
        step0, t0, flips0, w0 = last.step, last.t, last.flips_total, last.w_est
    events, jump = [], 0.0
    if config.surgery and du is not None:
        _, events = flip_along(state, du, flow_time=(t0, h), start_ordinal=flips0)
    k = curvature(state)
    if config.surgery and du is None:
        _, events = make_delaunay(state, flow_time=t0, start_ordinal=flips0)
        if events:
            k_before, k = k, curvature(state)
            jump = float(np.max(np.abs(k - k_before)))
    flips = len(events)
    g = k - config.target
    w_inc = 0.0
    if du is not None:  # a step: counted, with a trapezoidal sample of the flow potential
        step0, w_inc = step0 + 1, 0.5 * (float(g0 @ du) + float(g @ du))
    return StepRecord(
        step=step0,
        t=t0 + h,
        h=h,
        halvings=halvings,
        max_curv_err=float(np.max(np.abs(g))),
        calabi_energy=calabi_energy(k, config.target),
        w_increment=w_inc,
        w_est=w0 + w_inc,
        flips=flips,
        flips_total=flips0 + flips,
        min_margin=float(np.min(validate_triangles(state).margins)),
        curvature_jump=jump,
        sum_u=float(np.sum(state.conformal_factors)),
    )


def step(
    metric: DecoratedMetric,
    config: FlowConfig,
    h: float,
    last: StepRecord | None = None,
    target_sum: float | None = None,
) -> tuple[DecoratedMetric, StepRecord]:
    """One accepted linearly implicit Euler step with projection, surgery, and backtracking.

    Does not mutate ``metric``; returns the new state and its record,
    counted on from ``last``, the record of ``metric`` (see ``_settle``).
    The step projects onto the scale factor total ``target_sum``, by
    default that of ``metric``.
    """
    u0 = np.array(metric.conformal_factors)
    if target_sum is None:
        target_sum = float(np.sum(u0))
    k0 = curvature(metric)
    g0, e0 = k0 - config.target, calabi_energy(k0, config.target)
    _, solve = _linearization(metric, config)
    n = u0.size

    last_reason = "no admissible step"
    h_try = h
    for halvings in range(MAX_HALVINGS + 1):
        trial = metric.copy()
        try:
            u1 = u0 + h_try * solve(h_try)
            u1 -= (np.sum(u1) - target_sum) / n
            trial.set_conformal_factors(u1)
            record = _settle(trial, config, last, h_try, halvings, g0, u1 - u0)
        except (MeshError, MetricError, GeometryError, OperatorError, SurgeryError) as exc:
            last_reason = f"{type(exc).__name__}: {exc}"
            h_try *= 0.5
            continue

        e1, w_inc = record.calabi_energy, record.w_increment
        # at the round-off floor the monitored quantities move by round-off alone
        at_floor = record.max_curv_err <= ROUNDOFF_FLOOR
        if not at_floor and not _monotone_ok(config, e0, e1, w_inc):
            last_reason = (
                f"monotonicity rejected h={h_try:.3e}"
                f" (energy {e0:.6e} -> {e1:.6e}, potential increment {w_inc:.3e})"
            )
            # h grew geometrically, so bisect log h back down: from the cap
            # 1e12 -> 1e6 -> 1e3 -> 31.6 -> 5.6 -> 2.4, then halve
            h_try = sqrt(h_try) if h_try > 4.0 else 0.5 * h_try
            continue
        return trial, record

    raise StepCollapse(
        f"no acceptable step: {MAX_HALVINGS + 1} rejected trials from h={h:.3e};"
        f" last failure: {last_reason}"
    )


def _require_admissible_target(metric: DecoratedMetric, config: FlowConfig) -> None:
    target = config.target
    n = metric.mesh.num_vertices
    if target.shape != (n,):
        raise NonAdmissibleTarget(f"target shape {target.shape} != ({n},)")
    if not np.all(np.isfinite(target)):
        raise NonAdmissibleTarget("target curvature has non-finite entries")
    if np.any(target >= 2.0 * np.pi):
        bad = np.where(target >= 2.0 * np.pi)[0]
        raise NonAdmissibleTarget(
            f"target curvature must stay below 2*pi; vertices {bad.tolist()[:8]}"
        )
    total = float(np.sum(target))
    expected = 2.0 * np.pi * metric.mesh.euler_characteristic
    if abs(total - expected) > TARGET_SUM_TOL:
        raise NonAdmissibleTarget(
            f"target sum {total:.12g} differs from 2*pi*chi = {expected:.12g}"
        )


def run(metric: DecoratedMetric, config: FlowConfig) -> FlowTrace:
    """Integrate until max|K - target| < tol or the step budget runs out.

    Operates on a copy of the input metric.  With surgery enabled the
    triangulation is made weighted Delaunay before the first step and
    kept so along every step, each flip at its crossing; with it
    disabled the triangulation is fixed and violations are only counted.
    """
    _require_admissible_target(metric, config)
    state = metric.copy()
    target_sum = float(np.sum(state.conformal_factors))
    initial_violations = 0
    if not config.surgery:
        initial_violations = len(delaunay_violations(state))
        if initial_violations:
            logger.info(
                "surgery disabled: %d weighted Delaunay violations at the start",
                initial_violations,
            )
    records = [_settle(state, config)]

    h_try = config.initial_step
    while True:
        last = records[-1]
        if last.max_curv_err < config.tol:
            termination = "converged"
            break
        if last.step >= config.max_steps:
            termination = "budget"
            break
        state, rec = step(state, config, h_try, last, target_sum)
        records.append(rec)
        if rec.halvings == 0:
            # an error of exactly 0 converges at the next check, whatever h_try is
            contraction = last.max_curv_err / rec.max_curv_err if rec.max_curv_err else 1.0
            h_try = min(h_try * STEP_GROWTH * max(1.0, contraction), STEP_GROWTH_CAP)
        else:
            h_try = rec.h

    return FlowTrace(
        records=records,
        termination=termination,
        metric=state,
        target=config.target,
        kind=config.kind,
        initial_violations=initial_violations,
    )
