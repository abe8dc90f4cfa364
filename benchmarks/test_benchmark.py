"""Checks on the benchmark itself: repeatable counts, premises on a fresh seed, a gate that bites.

    python -m pytest benchmarks/test_benchmark.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import run  # sets the BLAS threads and puts src/ on the path before packflow loads
from calibrate import REFERENCE_S, rescale
from solve import gate, solve
from tracing import installed_wrappers
from workloads import WORKLOADS, PremiseError, check_premises, make_jobs

import packflow.flows


def _counts(result: run.Run) -> tuple[list, dict]:
    jobs = [(j["steps"], j["trials"], j["flips"]) for j in result.details["jobs"]]
    calls = {k: v["value"] for k, v in result.line["metrics"].items() if k.endswith(".calls")}
    return jobs, calls


def test_same_seed_gives_identical_counts_and_calls():
    original_run = packflow.flows.run
    first = run.run_workload(WORKLOADS["squeeze_flip"], seed=1, seconds=0, trace=True)
    second = run.run_workload(WORKLOADS["squeeze_flip"], seed=1, seconds=0, trace=True)
    assert first.line["correct"] and second.line["correct"]
    jobs, calls = _counts(first)
    assert (jobs, calls) == _counts(second)
    assert all(flips >= 400 for _, _, flips in jobs)
    assert calls["surgery.flip_metric.calls"] > 0 and calls["flows.step.calls"] > 0
    # the wrappers are gone again
    assert installed_wrappers() == []
    assert packflow.flows.run is original_run


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_second_seed_satisfies_every_premise(name):
    workload = WORKLOADS[name]
    check_premises(workload, make_jobs(workload, 2))


def test_premise_guard_rejects_an_input_without_its_property():
    bumpy_jobs = make_jobs(WORKLOADS["ricci_bumpy"], 1)
    with pytest.raises(PremiseError):
        check_premises(WORKLOADS["squeeze_flip"], bumpy_jobs)


def test_gate_rejects_a_perturbed_final_metric():
    job = make_jobs(WORKLOADS["ricci_bumpy"], 1)[0]
    outcome = solve(job.text, job.flow)
    assert gate(outcome) == []
    u = np.array(outcome.trace.metric.conformal_factors)
    u[0] += 1e-6
    outcome.trace.metric.set_conformal_factors(u)
    failures = gate(outcome)
    for reason in ("max|K - target|", "sum(u) drifted", "re-parsed curvature"):
        assert any(reason in f for f in failures), (reason, failures)


def test_rescale_uses_the_references_around_each_timing():
    r = REFERENCE_S
    assert rescale([1.0, 1.0], [r, r, 3 * r]) == pytest.approx([1.0, 0.5])
    with pytest.raises(ValueError):
        rescale([1.0], [r])


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])
    assert spec["paths"] == [Path(run.BENCH_DIR).name]
