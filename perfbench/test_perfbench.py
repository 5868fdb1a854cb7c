"""Tests of the benchmark itself: metric names, trace hygiene, seeded inputs."""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

import run as bench_run
from bench_trace import NAMESPACES, Summary, Tracer, instrument
from bench_workloads import WORKLOADS, Estimate
from mlds import scheme
from mlds.params import DEFAULT_PARAMS
from mlds.ring import Ring

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _bindings_snapshot():
    snap = {(ns.__name__, attr): value for ns in NAMESPACES for attr, value in vars(ns).items()}
    snap.update({("Ring", attr): value for attr, value in vars(Ring).items()})
    return snap


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_metric_names_match_benchmark_json(workload, trace):
    result, details = bench_run.run(workload, seed=3, seconds=0.01, trace=trace, setup_runs=1)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert details["context"]["seed"] == 3
    json.dumps(result, allow_nan=False)


def test_traced_run_restores_every_wrapped_function():
    before = _bindings_snapshot()
    with instrument(Tracer()):
        assert scheme.gen_a is not before[("mlds.scheme", "gen_a")]
        assert Ring.ntt is not before[("Ring", "ntt")]
    assert _bindings_snapshot() == before

    with pytest.raises(RuntimeError), instrument(Tracer()):
        raise RuntimeError("abort inside the traced block")
    assert _bindings_snapshot() == before

    bench_run.run("hot-key", seed=4, seconds=0.01, trace=True, setup_runs=1)
    after = _bindings_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def _fed_inputs(name: str, seed: int, groups: int) -> str:
    """Digest of every input the first ``groups`` request groups hand to mlds."""
    workload = WORKLOADS[name](seed)
    digest = hashlib.sha256(repr(workload.setup_args()).encode())
    for group in itertools.islice(workload.groups(), groups):
        for req in group:
            inp = req.make()
            digest.update(repr(inp).encode())
            # Estimate inputs never depend on earlier outputs; its calls are slow.
            if not isinstance(workload, Estimate):
                req.check(inp, req.call(inp))
    return digest.hexdigest()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_feeds_identical_inputs(workload):
    groups = 3 if workload == "hot-key" else 1
    first = _fed_inputs(workload, 7, groups)
    assert _fed_inputs(workload, 7, groups) == first
    assert _fed_inputs(workload, 8, groups) != first


def test_z2_cycle_does_19_transforms():
    tracer = Tracer()
    with instrument(tracer), tracer.operation("cycle"):
        report = scheme.measure_agreement(1, DEFAULT_PARAMS, scheme.Z2_DERIVED, bytes(32))
    assert (report.mu_failures, report.h_failures) == (0, 0)
    spans = Summary(tracer.spans)
    assert spans.count("ring.ntt") + spans.count("ring.intt") == 19
