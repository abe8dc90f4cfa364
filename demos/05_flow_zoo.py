"""Run every flow family against the same bumpy flat torus.

All four reach the zero-curvature metric; they differ in the operator
turning curvature deviation into velocity.  The direct flow uses the
deviation itself, the second-order flow multiplies by the curvature
Jacobian, the fractional family interpolates through its powers, taken on
the Ritz values of a Lanczos basis of that Jacobian, and the p family
replaces the quadratic edge energy by a p-th power.
"""

import numpy as np

from packflow import FlowConfig, preset_metric, run

rng = np.random.default_rng(3)
u0 = rng.uniform(-0.2, 0.2, 9)
u0 -= u0.mean()

flows = [
    ("ricci", {}),
    ("calabi", {}),
    ("fractional", {"s": 0.5}),
    ("fractional", {"s": 1.0}),
    ("p_calabi", {"p": 1.5}),
    ("p_calabi", {"p": 3.0}),
]

print(f"{'flow':26s} {'steps':>6} {'flow time':>10} {'max|K|':>10} {'flips':>6}")
for kind, extra in flows:
    metric = preset_metric("torus_grid", n=3)
    metric.set_conformal_factors(u0)
    trace = run(metric, FlowConfig(kind=kind, target=np.zeros(9), **extra))
    label = kind if not extra else f"{kind}({', '.join(f'{k}={v}' for k, v in extra.items())})"
    last = trace.records[-1]
    print(f"{label:26s} {trace.steps:6d} {last.t:10.3f} {last.max_curv_err:10.2e}"
          f" {trace.flips_total:6d}")

# s = 0 reproduces the direct flow exactly, step for step; larger s
# weights the smooth eigenmodes more and typically needs fewer steps,
# while the p flows trade curvature weighting for difference weighting.
