"""Seeded benchmark inputs: flat tori written as dpm-1 text.

Every workload is a short list of jobs.  A job is one dpm-1 document plus
the flow settings it is solved with.  The documents are built here from
the seed alone, so the library under test only ever receives text.  All
workloads use the n-by-n grid torus (squares split along one diagonal),
target curvature 0 and surgery on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from packflow import formats, metric, surgery


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int                   # grid side; V = n * n
    inputs: int              # distinct documents generated per run
    squeezed: bool           # squeeze decoration (every diagonal violates) or bumpy scale factors
    flows: tuple[dict, ...]  # FlowConfig keyword arguments, applied to every input in this order


# Step budgets sit several times above the step counts the seed commit
# needs, so a regression shows up as a failed solve rather than a hang.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ricci_bumpy",
            why=(
                "per-step array path through mesh, metric, geometry and curvature"
                " at V=400, with no Jacobian, no eigh and no flips"
            ),
            n=20,
            inputs=4,
            squeezed=False,
            flows=({"kind": "ricci", "tol": 1e-8, "max_steps": 1000},),
        ),
        Workload(
            name="operator_mix",
            why=(
                "operators layer (dense Jacobian, eigh, edge flux) and the step"
                " controller's rejection regime: calabi, fractional(0.5) and p_calabi(3) at V=121"
            ),
            n=11,
            inputs=3,  # nine jobs, about 14 s a pass: two passes fill a 30 s run
            squeezed=False,
            flows=(
                {"kind": "calabi", "tol": 1e-6, "max_steps": 5000},
                {"kind": "fractional", "s": 0.5, "tol": 1e-6, "max_steps": 2000},
                {"kind": "p_calabi", "p": 3.0, "tol": 1e-6, "max_steps": 7000},
            ),
        ),
        Workload(
            name="squeeze_flip",
            why=(
                "same size and flow as ricci_bumpy but every diagonal starts non-Delaunay,"
                " so the difference isolates surgery's flip path"
            ),
            n=20,
            inputs=5,  # about 11 s a pass, so 30 s make three passes at any machine speed
            squeezed=True,
            flows=({"kind": "ricci", "tol": 1e-8, "max_steps": 1000},),
        ),
    )
}


@dataclass(frozen=True)
class Job:
    name: str
    text: str
    flow: dict


class PremiseError(RuntimeError):
    """A generated input lacks the property its workload was chosen for."""


def torus_grid(n: int) -> tuple[list[list[int]], list[list[list[int]]], list[bool]]:
    """Triangles, explicit gluings and a diagonal flag per edge of the grid torus.

    Built here rather than with ``packflow.presets`` so that no change to
    the library can change the benchmark's inputs.
    """
    triangles = []
    for i in range(n):
        for j in range(n):
            v00 = i * n + j
            v10 = ((i + 1) % n) * n + j
            v11 = ((i + 1) % n) * n + (j + 1) % n
            v01 = i * n + (j + 1) % n
            triangles.append([v00, v10, v11])  # side 2 is the diagonal v11 -> v00
            triangles.append([v00, v11, v01])  # side 0 is the diagonal v00 -> v11
    sides: dict[tuple[int, int], list[list[int]]] = {}
    for t, tri in enumerate(triangles):
        for e in range(3):
            a, b = tri[e], tri[(e + 1) % 3]
            sides.setdefault((min(a, b), max(a, b)), []).append([t, e])
    gluings = list(sides.values())
    diagonal = [(s[0][0] % 2, s[0][1]) in ((0, 2), (1, 0)) for s in gluings]
    return triangles, gluings, diagonal


def make_document(workload: Workload, rng: np.random.Generator) -> str:
    """One dpm-1 document drawn from ``rng``.

    Bumpy: radius 1, inversive distance 2, scale factors U(-0.2, 0.2)
    recentred to zero mean.  Squeezed: radii exp(U(-0.1, 0.1)), inversive
    distance 1.5 on grid edges and 6.0 on diagonals.
    """
    triangles, gluings, diagonal = torus_grid(workload.n)
    v = workload.n * workload.n
    if workload.squeezed:
        radii = np.exp(rng.uniform(-0.1, 0.1, v))
        inversive = [6.0 if d else 1.5 for d in diagonal]
        u = np.zeros(v)
    else:
        radii = np.ones(v)
        inversive = [2.0] * len(gluings)
        u = rng.uniform(-0.2, 0.2, v)
        u -= u.mean()
    doc = {
        "format": "dpm-1",
        "num_vertices": v,
        "triangles": triangles,
        "gluings": gluings,
        "radii": radii.tolist(),
        "inversive_distances": inversive,
        "conformal_factors": u.tolist(),
        "target_curvature": [0.0] * v,
    }
    return json.dumps(doc)


def make_jobs(workload: Workload, seed: int) -> list[Job]:
    """The workload's jobs for ``seed``: every input under every flow, input-major."""
    rng = np.random.default_rng(seed)
    texts = [make_document(workload, rng) for _ in range(workload.inputs)]
    return [
        Job(f"in{i}/{flow['kind']}", text, flow)
        for i, text in enumerate(texts)
        for flow in workload.flows
    ]


def check_premises(workload: Workload, jobs: list[Job]) -> None:
    """Raise PremiseError unless every input has its workload's property.

    Bumpy inputs must start weighted Delaunay, squeezed ones must start
    with at least V violations, and every input must be admissible.
    """
    inputs = {job.text: job.name.split("/")[0] for job in jobs}
    for text, name in inputs.items():
        m = formats.parse_dpm(text).metric
        report = metric.validate_triangles(m)
        if not report.admissible:
            raise PremiseError(
                f"{workload.name} {name}: triangle {report.worst_triangle} is inadmissible"
            )
        violations = len(surgery.delaunay_violations(m))
        v = m.mesh.num_vertices
        if workload.squeezed and violations < v:
            raise PremiseError(
                f"{workload.name} {name}: {violations} Delaunay violations, expected >= {v}"
            )
        if not workload.squeezed and violations:
            raise PremiseError(
                f"{workload.name} {name}: {violations} Delaunay violations, expected 0"
            )
