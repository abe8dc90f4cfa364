"""Command line driver.

Subcommands: validate, curvature, flow, generate, jacobian-check.
Exit codes: 0 success (flow: converged), 2 step budget exhausted, 1 any error.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from .errors import InvalidParams, PackflowError, SchemaError
from .flows import DEFAULT_STEP, KINDS, FlowConfig, run
from .formats import emit_dpm, generate, parse_dpm, parse_target, write_trace_csv
from .metric import validate_triangles
from .operators import curvature, fd_jacobian, gauss_bonnet_residual, jacobian
from .oracles import RandomMetricSpec, random_metric
from .presets import PRESET_NAMES
from .surgery import delaunay_violations

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2

JACOBIAN_CHECK_TOL = 1e-5


def _read_document(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dpm(fh.read())


def _cmd_validate(args) -> int:
    doc = _read_document(args.file)
    report = validate_triangles(doc.metric)
    print(f"triangles: {doc.mesh.num_triangles}  edges: {doc.mesh.num_edges}"
          f"  vertices: {doc.mesh.num_vertices}  chi: {doc.mesh.euler_characteristic}")
    face = report.worst_triangle
    print(f"min triangle margin: {np.min(report.margins):.12g}"
          f"  (worst face {face}, threshold {report.threshold[face]:.3g})")
    if report.admissible:
        violations = delaunay_violations(doc.metric)
        if violations:
            worst = violations[0]
            print(f"weighted Delaunay: {len(violations)} violating edges,"
                  f" worst edge {worst[0]} with weight {worst[1]:.6g}")
        else:
            print("weighted Delaunay: ok")
        print("admissible: yes")
        return EXIT_OK
    print("admissible: no")
    return EXIT_ERROR


def _cmd_curvature(args) -> int:
    doc = _read_document(args.file)
    k = curvature(doc.metric)
    for i, val in enumerate(k):
        print(f"K[{i}] = {val:.12g}")
    print(f"gauss-bonnet residual: {gauss_bonnet_residual(doc.metric):.6g}")
    return EXIT_OK


def _resolve_target(args, doc) -> np.ndarray:
    n = doc.mesh.num_vertices
    if args.target == "uniform":
        chi = doc.mesh.euler_characteristic
        return np.full(n, 2.0 * np.pi * chi / n)
    if args.target is not None:
        with open(args.target, "r", encoding="utf-8") as fh:
            text = fh.read()
        return parse_target(text, n, args.target)
    if doc.target is not None:
        return doc.target
    raise SchemaError(
        "no target curvature: pass --target uniform, --target FILE,"
        " or a document with target_curvature"
    )


def _cmd_flow(args) -> int:
    doc = _read_document(args.file)
    kind = args.flow.replace("-", "_")
    config = FlowConfig(
        kind=kind,
        target=_resolve_target(args, doc),
        s=args.s,
        p=args.p,
        h=args.step,
        tol=args.tol,
        max_steps=args.max_steps,
        surgery=not args.no_surgery,
    )
    trace = run(doc.metric, config)
    last = trace.records[-1]
    print(f"{trace.termination} after {last.step} steps, t = {last.t:.6g}")
    print(f"max curvature error: {last.max_curv_err:.6g}  calabi energy: {last.calabi_energy:.6g}")
    print(f"flips: {trace.flips_total}")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            write_trace_csv(trace, fh)
        print(f"trace written to {args.trace}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(emit_dpm(trace.metric, config.target))
        print(f"final metric written to {args.out}")
    return EXIT_OK if trace.converged else EXIT_BUDGET


def _cmd_generate(args) -> int:
    text = generate(args.preset, radius=args.radius, inversive=args.inversive, n=args.n)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_jacobian_check(args) -> int:
    worst = 0.0
    if args.file:
        doc = _read_document(args.file)
        metrics = [doc.metric]
    else:
        if args.count < 1:
            raise InvalidParams(f"--count must be at least 1, got {args.count}")
        metrics = []
        specs = [
            RandomMetricSpec(preset="tetrahedron", delaunay=True),
            RandomMetricSpec(preset="icosahedron", delaunay=True),
            RandomMetricSpec(preset="torus_grid", n=3, delaunay=True),
        ]
        for offset in range(args.count):
            spec = specs[offset % len(specs)]
            metrics.append(random_metric(spec, args.seed + offset))
    for metric in metrics:
        analytic = jacobian(metric)
        numeric = fd_jacobian(metric)
        # an all-loop complex (one-vertex torus) has the zero Jacobian:
        # compare on the absolute scale there
        scale = float(np.max(np.abs(analytic))) or 1.0
        err = float(np.max(np.abs(analytic - numeric))) / scale
        worst = max(worst, err)
    print(f"max relative jacobian error over {len(metrics)} metrics: {worst:.3e}")
    if worst < args.tol_rel:
        return EXIT_OK
    print(f"exceeds tolerance {args.tol_rel:.3e}", file=sys.stderr)
    return EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="packflow",
        description="Prescribed-curvature flows for circle-decorated surface metrics.",
    )
    parser.add_argument("--verbose", action="store_true", help="log surgery and retry details")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check admissibility and the Delaunay condition")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("curvature", help="print per-vertex curvature")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_curvature)

    p = sub.add_parser("flow", help="integrate a curvature flow")
    p.add_argument("file")
    p.add_argument("--flow", default="calabi", choices=[k.replace("_", "-") for k in KINDS])
    p.add_argument("--s", type=float, default=0.0, help="fractional order")
    p.add_argument("--p", type=float, default=2.0, help="p-flow exponent (> 1)")
    p.add_argument("--target", default=None,
                   help="'uniform', or a JSON file (array of N values, or dpm with target_curvature)")
    p.add_argument("--step", type=float, default=None,
                   help=f"initial step size (default {DEFAULT_STEP:g})")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-steps", type=int, default=1_000_000)
    p.add_argument("--no-surgery", action="store_true", help="keep the triangulation fixed")
    p.add_argument("--trace", default=None, help="write accepted-step history CSV here")
    p.add_argument("--out", default=None, help="write the final metric (dpm) here")
    p.set_defaults(fn=_cmd_flow)

    p = sub.add_parser("generate", help="emit a uniformly decorated preset")
    p.add_argument("preset", choices=list(PRESET_NAMES))
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--inversive", type=float, default=2.0)
    p.add_argument("--n", type=int, default=None, help="grid size for torus_grid")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("jacobian-check",
                       help="compare the curvature jacobian against central differences")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=6, help="random metrics when no file is given")
    p.add_argument("--tol-rel", type=float, default=JACOBIAN_CHECK_TOL)
    p.set_defaults(fn=_cmd_jacobian_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        return args.fn(args)
    except PackflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
