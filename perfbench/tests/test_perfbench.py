"""Self-tests of the benchmark's own arithmetic and inputs.

They run in a second and touch no cache, server or subprocess:
``python -m pytest perfbench/tests -q`` (with ``src`` on PYTHONPATH
for the hook test).
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


# --- tail percentile rule ------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    value, percentile, samples = common.tail(list(range(1, 101)))
    assert (value, percentile, samples) == (90, 90.0, 100)


def test_tail_is_at_most_p90_on_large_runs():
    value, percentile, _ = common.tail(list(range(1, 1001)))
    assert (value, percentile) == (900, 90.0)


def test_tail_of_eleven_samples_is_the_smallest():
    value, percentile, _ = common.tail(list(range(11)))
    assert value == 0
    assert percentile == pytest.approx(100 / 11)


def test_tail_without_enough_samples_is_the_maximum():
    assert common.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_tail_counts_failures_as_beyond():
    values = list(range(1, 21)) + [math.inf] * 3
    value, _, samples = common.tail(values)
    assert value == 13 and samples == 23


# --- self time -----------------------------------------------------------


def test_self_time_subtracts_children_and_leaves():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    with tracer.span("parent"):
        clock.now = 10
        with tracer.span("child"):
            clock.now = 30
        clock.now = 40
        with tracer.span("child"):
            clock.now = 42
            with tracer.span("grandchild"):
                clock.now = 45
            clock.now = 50
        clock.now = 65
        tracer.leaf("leaf", 60)
        clock.now = 100
    assert tracer.total_ns["parent"] == 100
    assert tracer.self_ns["parent"] == 100 - 20 - 10 - 5
    assert tracer.self_ns["child"] == 20 + (10 - 3)
    assert tracer.self_ns["grandchild"] == 3
    assert tracer.self_ns["leaf"] == 5
    assert tracer.calls["child"] == 2
    # The leaf had a parent, so it left no record of its own.
    assert sorted(r[2] for r in tracer.records) == [
        "child", "child", "grandchild", "parent"
    ]


def test_covered_time_is_a_union():
    index = spans.Intervals([(0, 10), (5, 20), (30, 40), (35, 36)])
    assert index.covered(0, 50) == 20 + 10
    assert index.covered(15, 32) == 5 + 2
    assert index.covered(21, 29) == 0


def test_uncovered_share_respects_request_ids():
    records = [
        (1, 1, 0, "serve.read", 0, 50, "a", 1),
        (1, 2, 0, "serve.read", 50, 100, "b", 1),
    ]
    ops = [(0, 100, "a"), (0, 100, "b")]
    assert spans.uncovered_share(ops, records) == pytest.approx(0.5)


# --- seeded inputs -------------------------------------------------------

GENERATORS = [
    lambda seed: inputs.dse_stream(seed, 0),
    lambda seed: inputs.dse_stream(seed, 3),
    inputs.cli_prefill,
    lambda seed: inputs.cli_cycle(seed, 1),
    lambda seed: inputs.serve_requests(seed, "high", 60.0, 10.0),
    inputs.sim_pool,
]


@pytest.mark.parametrize("generate", GENERATORS)
def test_one_seed_gives_identical_inputs(generate):
    assert json.dumps(generate(7)).encode() == json.dumps(generate(7)).encode()


@pytest.mark.parametrize("generate", GENERATORS)
def test_another_seed_gives_other_inputs(generate):
    assert json.dumps(generate(7)) != json.dumps(generate(8))


def test_serve_load_is_fixed_across_seeds():
    for seed in (1, 2):
        requests = inputs.serve_requests(seed, "low", 20.0, 10.0)
        assert len(requests) == 200
        assert all(0.0 <= r["due"] < 10.0 for r in requests)


# --- metric names ---------------------------------------------------------


def test_benchmark_json_names_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    empty = spans.merge([])
    produced = set(spans.layer_metrics(empty)) | {
        "serve.coalesced_ratio", "loadgen.late_ms",
        "trace.overhead", "trace.uncovered_share",
    }
    assert {m["name"] for m in spec["per_layer"]} == produced


def test_missing_hook_target_fails_loudly():
    with pytest.raises(AttributeError, match="missing"):
        spans._resolve("repro.eval.codec:no_such_function")


def test_hooks_record_and_uninstall():
    from repro.eval.engine import SweepEngine

    original = SweepEngine.evaluate_workloads
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        SweepEngine().sweep(designs=("TC", "HighLight"), a_degrees=(0.5,),
                            b_degrees=(0.0,), m=64, k=64, n=64)
    finally:
        installed.remove()
    assert SweepEngine.evaluate_workloads is original
    merged = spans.merge([tracer.snapshot()])
    metrics = spans.layer_metrics(merged)
    assert merged["calls"]["engine"] >= 2
    assert metrics["engine.requests"] > 0
    assert metrics["model.HighLight.rows"] > 0
