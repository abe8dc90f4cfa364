"""Spans around packflow's public functions, installed only for the traced run.

A wrapper replaces each target at every place it is bound: on its class
for a method, and in every loaded packflow module that holds the function
itself (which covers ``from .x import f`` and the package re-exports).
Spans (name, start, end, parent, solve id) stay in memory until the run
writes them out.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

# Module -> wrapped public functions; "Class.method" names a method.
TARGETS = {
    "mesh": [
        "DeltaComplex.edge_endpoints_array",
        "DeltaComplex.slot_edge_array",
        "DeltaComplex.copy",
        "DeltaComplex.flip",
        "build_complex",
    ],
    "metric": ["validate_triangles", "apply_conformal", "DecoratedMetric.copy"],
    "geometry": ["delaunay_terms", "face_circles", "triangle_angles"],
    "operators": [
        "curvature",
        "jacobian",
        "spectral",
        "apply_fractional",
        "apply_laplacian",
        "apply_p_laplacian",
    ],
    "surgery": ["make_delaunay", "delaunay_violations", "flip_metric"],
    "flows": ["run", "step", "velocity"],
    "formats": ["parse_dpm", "emit_dpm", "write_trace_csv"],
}

NAMES = [
    f"{module}.{path.rpartition('.')[2]}" for module, paths in TARGETS.items() for path in paths
]

# Counts a span carries besides its times.
COUNTERS = {
    "surgery.make_delaunay": lambda args, result: len(result[1]),  # flips made
    "formats.parse_dpm": lambda args, result: len(args[0].encode()),  # bytes parsed
}

_MARKER = "_bench_span_name"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top
    solve: int
    count: int | None = None


def _packflow_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if name == "packflow" or name.startswith("packflow.")
    ]


def _owner_and_attr(module_name: str, path: str):
    module = importlib.import_module(f"packflow.{module_name}")
    owner_name, _, attr = path.rpartition(".")
    return (getattr(module, owner_name) if owner_name else module), attr


def installed_wrappers() -> list[str]:
    """Names of the span wrappers currently bound anywhere in packflow."""
    found = []
    places = _packflow_modules() + [
        _owner_and_attr(module, path)[0] for module, paths in TARGETS.items() for path in paths
    ]
    for place in places:
        for value in list(vars(place).values()):
            name = getattr(value, _MARKER, None)
            if isinstance(name, str):
                found.append(name)
    return sorted(set(found))


class Tracer:
    """Installs the wrappers, records spans while ``solve`` is set, restores on remove."""

    def __init__(self):
        self.spans: list[Span] = []
        self.solve: int | None = None  # id of the solve being traced, None between solves
        self.entries = 0  # wrapper executions, traced or not
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("wrappers already installed")
        modules = _packflow_modules()
        for module_name, paths in TARGETS.items():
            for path in paths:
                owner, attr = _owner_and_attr(module_name, path)
                original = vars(owner)[attr]
                if owner is sys.modules[f"packflow.{module_name}"]:
                    places = [m for m in modules if vars(m).get(attr) is original]
                else:
                    places = [owner]
                wrapper = self._wrap(f"{module_name}.{attr}", original)
                for place in places:
                    self._patches.append((place, attr, original))
                    setattr(place, attr, wrapper)

    def remove(self) -> None:
        while self._patches:
            place, attr, original = self._patches.pop()
            setattr(place, attr, original)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.entries += 1
            if tracer.solve is None:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)  # reserve the index before any child span
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = Span(name, start, end, parent, tracer.solve)
            if counter is not None:
                tracer.spans[index].count = counter(args, result)
            return result

        setattr(wrapper, _MARKER, name)
        return wrapper

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        return [span.end - span.start - c for span, c in zip(self.spans, child)]

    def write_csv(self, path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("solve,span,parent,name,start_s,end_s,count\n")
            for i, s in enumerate(self.spans):
                count = "" if s.count is None else s.count
                start, end = s.start - origin, s.end - origin
                fh.write(f"{s.solve},{i},{s.parent},{s.name},{start:.9f},{end:.9f},{count}\n")
