"""One solve through the public calls `packflow flow` makes, and its correctness gate.

The pipeline is parse_dpm -> FlowConfig + run -> emit_dpm + write_trace_csv,
in-process on in-memory text, so interpreter start-up and disk I/O stay
out of the timing.  Module attributes are looked up at call time, so the
wrappers the traced run installs see these calls.
"""

from __future__ import annotations

import hashlib
import io
import time
from dataclasses import dataclass

import numpy as np

from packflow import errors, flows, formats, operators, surgery

SUM_U_TOL_PER_VERTEX = 1e-9
GAUSS_BONNET_TOL = 1e-9
REPARSE_CURVATURE_TOL = 1e-12


@dataclass
class Outcome:
    """What one solve produced; ``trace`` is None when the flow raised."""

    seconds: float
    u0: np.ndarray
    trace: flows.FlowTrace | None
    emitted: str
    csv: str
    tol: float
    max_steps: int
    error: str | None = None

    @property
    def steps(self) -> int:
        """Accepted steps; a solve that raised counts as using the whole budget."""
        return self.trace.steps if self.trace is not None else self.max_steps

    @property
    def trials(self) -> int:
        """Accepted steps plus rejected trials (each halving is one rejected trial)."""
        if self.trace is None:
            return self.max_steps
        return sum(1 + rec.halvings for rec in self.trace.records[1:])

    @property
    def flips(self) -> int:
        return self.trace.flips_total if self.trace is not None else 0

    def fingerprint(self) -> tuple:
        """Counts and output digest that must repeat exactly for one job."""
        digest = hashlib.sha256(self.emitted.encode()).hexdigest()
        return (self.steps, self.trials, self.flips, self.error, digest)


def solve(text: str, flow: dict) -> Outcome:
    """Parse, flow and emit one document; flow errors become a failed outcome."""
    start = time.perf_counter()
    u0 = np.zeros(0)
    trace = None
    error = None
    emitted = csv = ""
    try:
        doc = formats.parse_dpm(text)
        u0 = np.array(doc.metric.conformal_factors)
        config = flows.FlowConfig(target=doc.target, **flow)
        trace = flows.run(doc.metric, config)
        emitted = formats.emit_dpm(trace.metric, config.target)
        sink = io.StringIO()
        formats.write_trace_csv(trace, sink)
        csv = sink.getvalue()
    except errors.PackflowError as exc:
        trace = None
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return Outcome(seconds, u0, trace, emitted, csv, flow["tol"], flow["max_steps"], error)


def gate(outcome: Outcome) -> list[str]:
    """Every way the solve's output is wrong; empty when it passes.

    Checks convergence below tol, exact conservation of sum(u),
    Gauss-Bonnet, a weighted Delaunay final triangulation, an emitted
    document that re-parses to the same curvature, and a complete trace CSV.
    """
    if outcome.trace is None:
        return [outcome.error or "no trace"]
    try:
        return _failures(outcome)
    except errors.PackflowError as exc:
        return [f"checking the output raised {type(exc).__name__}: {exc}"]


def _failures(outcome: Outcome) -> list[str]:
    failures = []
    trace = outcome.trace
    final = trace.metric
    k = operators.curvature(final)
    err = float(np.max(np.abs(k - trace.target)))
    if trace.termination != "converged" or not err < outcome.tol:
        failures.append(f"termination {trace.termination}, max|K - target| = {err:.3e}")
    n = final.mesh.num_vertices
    drift = abs(float(np.sum(final.conformal_factors)) - float(np.sum(outcome.u0)))
    if not drift <= SUM_U_TOL_PER_VERTEX * n:
        failures.append(f"sum(u) drifted by {drift:.3e}")
    residual = abs(operators.gauss_bonnet_residual(final))
    if not residual < GAUSS_BONNET_TOL:
        failures.append(f"Gauss-Bonnet residual {residual:.3e}")
    violations = surgery.delaunay_violations(final)
    if violations:
        failures.append(f"{len(violations)} weighted Delaunay violations remain")
    reparsed = operators.curvature(formats.parse_dpm(outcome.emitted).metric)
    gap = float(np.max(np.abs(reparsed - k)))
    if not gap <= REPARSE_CURVATURE_TOL:
        failures.append(f"re-parsed curvature differs by {gap:.3e}")
    rows = outcome.csv.splitlines()
    header = ",".join(formats.TRACE_COLUMNS)
    if not rows or rows[0] != header or len(rows) != len(trace.records) + 1:
        failures.append("trace CSV is not one header plus one row per record")
    return failures
