"""Run one packflow benchmark workload and print its metrics as one JSON line.

    python3 benchmarks/run.py --workload ricci_bumpy --seed 1 --seconds 30 --trace 0

The load is a closed loop: one process, one solve at a time, cycling
over the workload's jobs for as many whole passes as fill --seconds
(and, untraced, give at least MIN_SOLVES solves).  Every solve goes
through the correctness gate and must repeat its job's first solve
exactly.  --trace 0 prints the end-to-end metrics; --trace 1 follows
every untraced solve with a traced solve of the same job and prints the
per-layer metrics.  The end-to-end timings are rescaled to a fixed
machine speed by the reference load in calibrate.py, timed between
consecutive solves; the wall seconds go to the result file beside them.
A result file with the environment, per-job counts and failures goes to
benchmarks/out/, and the traced run writes its spans there too.
"""

from __future__ import annotations

import os

# One BLAS thread: at or below nproc on any machine, and steadier on a shared one.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import glob
import itertools
import json
import math
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import packflow  # noqa: E402
from calibrate import REFERENCE_S, reference_seconds, rescale  # noqa: E402
from solve import gate, solve  # noqa: E402
from tracing import NAMES, TARGETS, Tracer, installed_wrappers  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Job,
    Workload,
    check_premises,
    make_document,
    make_jobs,
)

OUT_DIR = BENCH_DIR / "out"
SETUPS = 5           # set-up repeats per run; setup_s is their median
WARMUP_N = 4         # grid side of the small input that warms every flow kind up
WARMUP_STEPS = 3     # accepted steps of each warm-up solve
TAIL_BEYOND = 10     # solves that must lie beyond the reported tail percentile
MIN_SOLVES = TAIL_BEYOND + 1

END_TO_END = {
    "solves_per_s": "1/s",
    "solve_s_p50": "s",
    "solve_s_tail": "s",
    "steps_per_solve": "count",
    "ok_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{name}.calls": "count" for name in NAMES},
    **{f"{name}.self_ms": "ms" for name in NAMES},
    **{f"{module}.self_ms": "ms" for module in TARGETS},
    "flows.accept_ratio": "ratio",
    "surgery.flips_per_solve": "count",
    "surgery.ms_per_flip": "ms",
    "surgery.check_ms_per_trial": "ms",
    "formats.parse_dpm.bytes": "bytes",
    "tracing_overhead": "ratio",
}


@dataclass
class Solved:
    """One gated solve, reduced to what the metrics need."""

    job: int
    seconds: float
    fingerprint: tuple  # (steps, trials, flips, error, output digest)
    failures: list[str]
    traced_id: int | None = None


@dataclass
class Run:
    line: dict                       # the JSON object printed last
    details: dict                    # everything else the result file records
    tracer: Tracer | None = None


# -- environment ---------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _blas() -> tuple[str, int | None]:
    """BLAS name from numpy's build record and its live thread count, if it can be asked."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info['name']} {info.get('version', '')}".strip()
    except (TypeError, KeyError):
        name = "unknown"
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                query = getattr(lib, symbol)
                query.restype = ctypes.c_int
                return name, int(query())
    return name, None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    nproc = os.cpu_count() or 1
    blas_name, blas_threads = _blas()
    if blas_threads is not None and blas_threads > nproc:
        raise RuntimeError(f"BLAS runs {blas_threads} threads on {nproc} cores")
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "blas_threads_requested": BLAS_THREADS,
        "git_commit": _git_commit(),
    }


# -- set-up --------------------------------------------------------------------


def set_up(workload: Workload, seed: int) -> tuple[list[Job], list[float], list[float]]:
    """Generate the inputs, check their premises and warm every flow up, SETUPS times.

    The warm-up solves a small input of the same decoration with each of
    the workload's flows, so first-call costs (lazy imports, BLAS start-up)
    land here and not in the first measured solve.  Returns the jobs, the
    wall seconds of each set-up and the references taken around them.
    """
    jobs: list[Job] | None = None
    times = []
    references = [reference_seconds()]
    for _ in range(SETUPS):
        start = time.perf_counter()
        fresh = make_jobs(workload, seed)
        check_premises(workload, fresh)
        small = make_document(replace(workload, n=WARMUP_N), np.random.default_rng(seed))
        for flow in workload.flows:
            solve(small, {**flow, "max_steps": WARMUP_STEPS})
        times.append(time.perf_counter() - start)
        references.append(reference_seconds())
        if jobs is not None and fresh != jobs:
            raise RuntimeError("the same seed generated different inputs")
        jobs = fresh
    return jobs, times, references


# -- measurement -----------------------------------------------------------------


def _gated(
    index: int, job: Job, first: dict, tracer: Tracer | None = None, traced_id: int | None = None
) -> Solved:
    """Solve ``job``, traced as ``traced_id`` when a tracer is given, then gate it untraced."""
    if tracer is not None:
        tracer.solve = traced_id
        tracer.install()
    try:
        outcome = solve(job.text, job.flow)
    finally:
        if tracer is not None:
            tracer.remove()
            tracer.solve = None
    failures = gate(outcome)
    fingerprint = outcome.fingerprint()
    if first.setdefault(index, fingerprint) != fingerprint:
        failures.append(f"counts or output differ from the first solve of {job.name}")
    return Solved(index, outcome.seconds, fingerprint, failures, traced_id)


def measure(
    jobs: list[Job], seconds: float, tracer: Tracer | None
) -> tuple[list[Solved], list[Solved], float, list[float]]:
    """Solve the jobs in whole passes, as many as fill ``seconds``.

    Whole passes solve every job equally often, so the median of a mixed
    workload does not depend on where the clock ran out.  The first pass,
    rescaled by its references, fixes the number of passes, so the solve
    count, and with it the percentile the tail lands on, depends neither
    on a few milliseconds at the end nor on the machine's momentary
    speed.  The untraced run makes at least MIN_SOLVES solves, which its
    tail needs.  With a tracer, each solve is followed by a traced twin
    of the same job.  The reference load is timed before the first solve
    and after every untraced solve.
    """
    plain: list[Solved] = []
    traced: list[Solved] = []
    first: dict[int, tuple] = {}
    references = [reference_seconds()]
    min_passes = math.ceil(MIN_SOLVES / len(jobs)) if tracer is None else 1
    passes = None
    start = time.perf_counter()
    for count in itertools.count():
        index = count % len(jobs)
        if index == 0 and count > 0:
            if passes is None:
                elapsed = time.perf_counter() - start
                scale = REFERENCE_S / statistics.fmean(references)
                passes = max(min_passes, round(seconds / (scale * elapsed)))
            if count == passes * len(jobs):
                break
        entries = tracer.entries if tracer else 0
        plain.append(_gated(index, jobs[index], first))
        references.append(reference_seconds())
        if tracer is None:
            continue
        if tracer.entries != entries:
            raise RuntimeError("a span wrapper ran during an untraced solve")
        traced.append(_gated(index, jobs[index], first, tracer, len(traced)))
    return plain, traced, time.perf_counter() - start, references


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, solves beyond) of the highest percentile with TAIL_BEYOND beyond it."""
    ordered = sorted(values, reverse=True)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[0], 100.0, 0
    return ordered[TAIL_BEYOND], 100.0 * (len(ordered) - TAIL_BEYOND) / len(ordered), TAIL_BEYOND


def end_to_end(
    plain: list[Solved], wall: float, counts: list[tuple], setups: list[float], references: dict
) -> tuple[dict, dict]:
    """The end-to-end metrics, every timing rescaled by the references taken around it."""
    ok = [s for s in plain if not s.failures]
    seconds = rescale([s.seconds for s in plain], references["solves"])
    # A failed solve never delivers, so it counts as lasting the whole window.
    window = wall * REFERENCE_S / statistics.fmean(references["solves"])
    durations = [window if s.failures else t for s, t in zip(plain, seconds)]
    tail_value, percentile, beyond = tail(durations)
    values = {
        "solves_per_s": len(ok) / sum(seconds),
        "solve_s_p50": statistics.median(durations),
        "solve_s_tail": tail_value,
        "steps_per_solve": statistics.fmean(c[0] for c in counts),
        "ok_frac": len(ok) / len(plain),
        "setup_s": statistics.median(rescale(setups, references["setups"])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "tail_percentile": percentile,
        "tail_solves_beyond": beyond,
        "solves": len(plain),
        "solves_per_s_denominator": (
            "sum of rescaled solve seconds (closed loop, gate time excluded)"
        ),
    }
    return values, notes


def per_layer(
    tracer: Tracer, plain: list[Solved], traced: list[Solved], counts: list[tuple]
) -> tuple[dict, dict, list[str]]:
    """Per-solve calls and self time of every wrapped function, plus the layer ratios."""
    self_s = tracer.self_seconds()
    calls = [dict.fromkeys(NAMES, 0) for _ in traced]
    parse_bytes = [0] * len(traced)
    total_self = dict.fromkeys(NAMES, 0.0)
    flipped_s = flips = 0.0
    clean_s = clean_calls = 0
    for span, own in zip(tracer.spans, self_s):
        calls[span.solve][span.name] += 1
        total_self[span.name] += own
        if span.count is None:  # a counted call that raised, or an uncounted function
            continue
        if span.name == "formats.parse_dpm":
            parse_bytes[span.solve] += span.count
        elif span.name == "surgery.make_delaunay":
            if span.count:
                flipped_s += span.end - span.start
                flips += span.count
            else:
                clean_s += span.end - span.start
                clean_calls += 1

    failures = []
    first_of_job: dict[int, int] = {}
    for solved in traced:
        first = first_of_job.setdefault(solved.job, solved.traced_id)
        if calls[solved.traced_id] != calls[first]:
            failures.append(f"traced solve {solved.traced_id} made other calls than the first")
    jobs = sorted(first_of_job)
    n = len(traced)
    values = {}
    for name in NAMES:
        values[f"{name}.calls"] = statistics.fmean(calls[first_of_job[j]][name] for j in jobs)
        values[f"{name}.self_ms"] = 1000.0 * total_self[name] / n
    for module in TARGETS:
        own = [name for name in NAMES if name.startswith(module + ".")]
        values[f"{module}.self_ms"] = sum(values[f"{name}.self_ms"] for name in own)
    steps = sum(c[0] for c in counts)
    trials = sum(c[1] for c in counts)
    values["flows.accept_ratio"] = steps / trials
    values["surgery.flips_per_solve"] = statistics.fmean(c[2] for c in counts)
    values["surgery.ms_per_flip"] = 1000.0 * flipped_s / flips if flips else 0.0
    values["surgery.check_ms_per_trial"] = 1000.0 * clean_s / clean_calls if clean_calls else 0.0
    values["formats.parse_dpm.bytes"] = statistics.fmean(parse_bytes[first_of_job[j]] for j in jobs)
    values["tracing_overhead"] = sum(s.seconds for s in plain) / sum(s.seconds for s in traced)
    bases = {
        "flows.accept_ratio": {"accepted_steps": steps, "trials": trials},
        "surgery.ms_per_flip": {"flips": flips, "flipping_calls_s": flipped_s},
        "surgery.check_ms_per_trial": {"calls_without_flips": clean_calls},
        "tracing_overhead": {"untraced_solves": len(plain), "traced_solves": n},
        "self_ms_and_calls": "per solve; calls from each job's first traced solve, mean over jobs",
    }
    return values, bases, failures


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> Run:
    jobs, setup_times, setup_references = set_up(workload, seed)
    if installed_wrappers():
        raise RuntimeError(f"span wrappers bound before the run: {installed_wrappers()}")
    tracer = Tracer() if trace else None
    plain, traced, wall, solve_references = measure(jobs, seconds, tracer)
    references = {"setups": setup_references, "solves": solve_references}
    if installed_wrappers():
        raise RuntimeError(f"span wrappers left bound after the run: {installed_wrappers()}")

    first: dict[int, tuple] = {}
    for s in plain:
        first.setdefault(s.job, s.fingerprint)
    counts = [first[i][:3] for i in sorted(first)]
    solved = plain + traced
    failures = [(jobs[s.job].name, s.failures) for s in solved if s.failures]
    details = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "load": "closed loop, one process, one solve at a time",
        "timing": (
            "the end-to-end metrics rescale each wall time below by the mean of the"
            " references taken just before and after it, to the speed at which the"
            f" reference load takes {REFERENCE_S} s (calibrate.py)"
        ),
        "reference_s": references,
        "setup_times_s": setup_times,
        "wall_s": wall,
        "jobs": [
            {"job": job.name, "flow": job.flow, "steps": c[0], "trials": c[1], "flips": c[2]}
            for job, c in zip(jobs, counts)
        ],
        "failures": failures,
        "solve_seconds": [[jobs[s.job].name, s.seconds] for s in plain],
        "traced_solve_seconds": [[jobs[s.job].name, s.seconds] for s in traced],
    }
    if trace:
        metrics, bases, call_failures = per_layer(tracer, plain, traced, counts)
        failures.extend(("traced", [f]) for f in call_failures)
        details["ratio_bases"] = bases
        units = PER_LAYER
    else:
        metrics, notes = end_to_end(plain, wall, counts, setup_times, references)
        details.update(notes)
        units = END_TO_END
    line = {
        "correct": not failures,
        "attempted": len(solved),
        "failed": sum(1 for s in solved if s.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return Run(line, details, tracer)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if not Path(packflow.__file__).resolve().is_relative_to(src):
        print(f"packflow was imported from {packflow.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {**result.details, **result.line}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    if result.tracer is not None:
        result.tracer.write_csv(stem.with_name(stem.name + "-spans.csv"))
    print(json.dumps(result.line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
