"""sim-infer: the functional simulator, in-process.

One thread, closed loop over a seeded pool of simulated CNN
inferences (``SimulatedNetwork.forward`` on ``random_network``) and
HighLight / DSSO GEMMs on random HSS patterns. Without it ``sim/``,
``compression/``, ``sparsity/`` and ``dnn/`` would go unmeasured.
Simulated statistics are counts; speed is scheduled products per host
second.
"""

from __future__ import annotations

import importlib
import time
from typing import Any, Dict, List, Tuple

import common
import inputs

NAME = "sim-infer"
#: The program runs in this process, so the traced half wraps it here.
IN_PROCESS = True


def _build(op: Dict[str, Any]) -> Dict[str, Any]:
    import numpy as np

    from repro.dnn.inference import random_network
    from repro.sim.config import SimConfig
    from repro.sparsity.hss import HSSPattern

    # The module, not the function ``repro.sparsity`` re-exports under
    # the same name: the traced run wraps the module attribute.
    sparsify_mod = importlib.import_module("repro.sparsity.sparsify")

    rng = np.random.default_rng(op["seed"])
    if op["kind"] == "network":
        network, x = random_network(op["plan"], input_size=op["size"],
                                    rng=rng)
        return {"op": op, "network": network, "x": x}
    m, k, n, h1 = op["m"], op["k"], op["n"], op["h1"]
    if op["kind"] == "highlight":
        pattern = SimConfig().example_pattern(h1)
        a = sparsify_mod.sparsify(rng.normal(size=(m, k)), pattern)
        b = rng.normal(size=(k, n))
        return {"op": op, "a": a, "b": b, "pattern": pattern}
    pattern_a = HSSPattern.from_ratios((2, 4))
    pattern_b = HSSPattern.from_ratios((4, 4), (2, h1))
    a = sparsify_mod.sparsify(rng.normal(size=(m, k)), pattern_a)
    b = sparsify_mod.sparsify(rng.normal(size=(k, n)), pattern_b, axis=0)
    return {"op": op, "a": a, "b": b, "pattern_a": pattern_a,
            "pattern_b": pattern_b}


def prepare(seed: int) -> List[Dict[str, Any]]:
    """Imports plus the seeded pool of built inputs: set-up's cost."""
    return [_build(op) for op in inputs.sim_pool(seed)]


def _execute(item: Dict[str, Any]) -> Tuple[Any, int, int]:
    """Run one op; returns (output, steps, scheduled products)."""
    from repro.sim import dsso, simulator

    kind = item["op"]["kind"]
    if kind == "network":
        output, traces = item["network"].forward(item["x"])
        return (output, sum(t.stats.steps for t in traces),
                sum(t.stats.scheduled_products for t in traces))
    if kind == "highlight":
        output, stats = simulator.simulate_matmul(
            item["a"], item["b"], item["pattern"]
        )
    else:
        output, stats = dsso.simulate_dsso_matmul(
            item["a"], item["b"], item["pattern_a"], item["pattern_b"]
        )
    return output, stats.steps, stats.scheduled_products


def _check(item: Dict[str, Any], output: Any, steps: int) -> str:
    """Empty when the simulated output and schedule are right."""
    import numpy as np

    op = item["op"]
    if op["kind"] == "network":
        network = item["network"]
        reference = network.reference_forward(network.layers, item["x"])
    else:
        reference = item["a"] @ item["b"]
    if not np.allclose(output, reference):
        return f"{op['kind']} {op}: output differs from numpy reference"
    if op["kind"] == "highlight":
        # Every rank-1 group of A holds G1=2 non-empty blocks and K is
        # a multiple of H0*H1, so the schedule is exactly m*n*K/(4*h1).
        expected = op["m"] * op["n"] * -(-op["k"] // (4 * op["h1"]))
        if steps != expected:
            return f"highlight {op}: {steps} steps, expected {expected}"
    return ""


def run(cfg: common.RunConfig) -> common.Outcome:
    import numpy as np

    out = common.Outcome()
    setup_s = common.probe_setup(NAME, cfg.seed) if cfg.measure_setup else 0.0
    pool = prepare(cfg.seed)
    first: List[Tuple[Any, int]] = []
    latencies: List[float] = []
    products = 0
    steps_total = 0
    # Per-pass products per host second: their median shrugs off a
    # stall of the host.
    pass_rates: List[float] = []
    deadline = time.perf_counter() + cfg.seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        pass_products = pass_ns = 0
        for index, item in enumerate(pool):
            start = time.perf_counter_ns()
            output, steps, scheduled = _execute(item)
            end = time.perf_counter_ns()
            out.attempted += 1
            out.ops.append((start, end, None))
            latencies.append((end - start) / 1e6)
            products += scheduled
            steps_total += steps
            pass_products += scheduled
            pass_ns += end - start
            with common.untraced(cfg.tracer):
                if passes == 0:
                    problem = _check(item, output, steps)
                    first.append((output, steps))
                elif not np.array_equal(output, first[index][0]) or (
                    steps != first[index][1]
                ):
                    problem = f"{item['op']}: result changed between passes"
                else:
                    problem = ""
            if problem:
                out.failed += 1
                out.fail(problem)
        pass_rates.append(pass_products / (pass_ns / 1e9))
        passes += 1

    tail_ms, tail_pct, samples = common.tail(latencies)
    out.digest = common.digest_bytes([
        np.ascontiguousarray(output).tobytes() + steps.to_bytes(8, "little")
        for output, steps in first
    ])
    out.named = {
        "sim.products_per_s": (common.median(pass_rates), "1/s"),
        "sim.op_p50_ms": (common.median(latencies), "ms"),
    }
    out.e2e = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (common.self_peak_rss_mb(), "MB"),
        "throughput_per_s": out.named["sim.products_per_s"],
        "op_p50_ms": out.named["sim.op_p50_ms"],
        "op_tail_ms": (tail_ms, "ms"),
    }
    out.properties = [
        f"passes: {passes} over a pool of {len(pool)} ops "
        f"({len(inputs.SIM_NETWORK_SHAPES)} networks, "
        f"{len(inputs.SIM_HIGHLIGHT_SHAPES)} HighLight GEMMs, "
        f"{len(inputs.SIM_DSSO_SHAPES)} DSSO GEMMs)",
        f"scheduled products {products}, steps {steps_total}; "
        f"products/s is the median of per-pass rates",
        f"op = one simulated inference or GEMM; tail = p{tail_pct:.1f} "
        f"of {samples} samples",
    ]
    return out
