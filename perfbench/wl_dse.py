"""dse-sweep: a design-space explorer's library use, in-process.

One thread, closed loop. Each cycle draws a fresh stream of grid and
model sweeps and runs it three times:

* cold: a fresh engine on a fresh cache dir, including the final
  flush at ``close``;
* warm: a fresh engine replays the stream from that dir, so every
  pair is a disk hit;
* queue: ``JobStore.fill`` plus one in-process ``run_queue`` drain on
  a fresh dir (the ``repro worker`` path, flush before complete).

The cost models, batch stacking, cache writes and the queue do their
work here; the CLI import does none.
"""

from __future__ import annotations

import json
import shutil
import time
from typing import Any, Dict, List, Optional, Tuple

import common
import inputs

NAME = "dse-sweep"
#: Cycles every run completes. Peak RSS is read after them: engine and
#: realization memos grow with each cycle, so a faster program that
#: fits more cycles into the run must not read as a bigger one.
MIN_CYCLES = 3
#: The program runs in this process, so the traced half wraps it here.
IN_PROCESS = True


def prepare(seed: int) -> List[Dict[str, Any]]:
    """Imports plus the first cycle's inputs: what set-up costs."""
    from repro.dnn.models import get_model
    from repro.eval import experiments, queue  # noqa: F401

    stream = inputs.dse_stream(seed, 0)
    for item in stream:
        if item["kind"] == "model":
            get_model(item["model"])
    return stream


def _sweep(engine: Any, item: Dict[str, Any]) -> Any:
    from repro.dnn.models import get_model
    from repro.eval import experiments

    if item["kind"] == "grid":
        return engine.sweep(
            designs=inputs.DESIGNS, a_degrees=item["a"],
            b_degrees=item["b"], m=item["mk"], k=item["mk"], n=item["n"],
        )
    return experiments.sweep_model(
        get_model(item["model"]), designs=inputs.DESIGNS,
        degrees=item["degrees"], ctx=engine,
    )


def _sweep_phase(directory: Any, stream: List[Dict[str, Any]],
                 latencies: Optional[List[float]] = None,
                 ops: Optional[List] = None
                 ) -> Tuple[List[Any], Any, float]:
    """Run the stream on a fresh engine over ``directory``; returns
    (results, engine stats, wall seconds including the final flush)."""
    from repro.energy.estimator import Estimator
    from repro.eval import cache as cache_mod
    from repro.eval.engine import SweepEngine

    start = time.perf_counter()
    estimator = Estimator()
    engine = SweepEngine(
        estimator,
        cache=cache_mod.PersistentCache.for_estimator(directory, estimator),
    )
    results = []
    for item in stream:
        op_start = time.perf_counter_ns()
        results.append(_sweep(engine, item))
        op_end = time.perf_counter_ns()
        if latencies is not None and item["kind"] == "grid":
            latencies.append((op_end - op_start) / 1e6)
            ops.append((op_start, op_end, None))
    engine.close()
    return results, engine.stats, time.perf_counter() - start


def _queue_pairs(stream: List[Dict[str, Any]]) -> List[Tuple[str, Any]]:
    from repro.dnn.models import get_model
    from repro.eval import queue as queue_mod

    pairs: List[Tuple[str, Any]] = []
    for item in stream:
        if item["kind"] == "grid":
            pairs.extend(queue_mod.grid_fill_pairs(
                inputs.DESIGNS, item["a"], item["b"],
                item["mk"], item["mk"], item["n"],
            ))
        else:
            pairs.extend(queue_mod.model_fill_pairs(
                get_model(item["model"]), inputs.DESIGNS, item["degrees"]
            ))
    return pairs


def _queue_phase(directory: Any, stream: List[Dict[str, Any]]
                 ) -> Tuple[List[Tuple[str, Any]], int, Any, float]:
    """Fill a fresh queue and drain it in-process; returns (pairs,
    completed cells, final queue stats, wall seconds)."""
    from repro.energy.estimator import Estimator
    from repro.eval import cache as cache_mod
    from repro.eval import queue as queue_mod
    from repro.eval.engine import SweepEngine

    start = time.perf_counter()
    estimator = Estimator()
    fingerprint = cache_mod.estimator_fingerprint(estimator)
    pairs = _queue_pairs(stream)
    with queue_mod.JobStore(
        queue_mod.queue_db_path(directory, fingerprint), fingerprint
    ) as store:
        store.fill(pairs)
        engine = SweepEngine(estimator, cache=cache_mod.PersistentCache(
            directory, fingerprint, backend="sqlite"
        ))
        completed = sum(
            batch.completed
            for batch in engine.run_queue(store, worker_id="perfbench")
        )
        engine.close()
        final = store.stats()
    return pairs, completed, final, time.perf_counter() - start


def _payload(result: Any) -> bytes:
    return json.dumps(result.to_payload(), sort_keys=True).encode()


def _same(a: Any, b: Any) -> bool:
    cells = getattr(a, "cells", None)
    if cells is not None:
        return cells == b.cells
    return a.evaluations == b.evaluations


def _check_queue(out: common.Outcome, cold_dir: Any, queue_dir: Any,
                 pairs: List[Tuple[str, Any]], cycle: int) -> None:
    """Every queue-filled entry equals the cold phase's entry."""
    from repro.energy.estimator import Estimator
    from repro.eval import cache as cache_mod

    fingerprint = cache_mod.estimator_fingerprint(Estimator())
    cold = cache_mod.PersistentCache(cold_dir, fingerprint)
    queued = cache_mod.PersistentCache(queue_dir, fingerprint,
                                       backend="sqlite")
    try:
        for design, workload in pairs:
            key = workload.key()
            expected = cold.get(design, key)
            got = queued.get(design, key)
            if expected is cache_mod.MISS or got != expected:
                out.fail(f"cycle {cycle}: queue result for {design} "
                         f"{workload.describe()} differs from cold")
                return
    finally:
        cold.close()
        queued.close()


def run(cfg: common.RunConfig) -> common.Outcome:
    out = common.Outcome()
    setup_s = common.probe_setup(NAME, cfg.seed) if cfg.measure_setup else 0.0
    prepare(cfg.seed)
    latencies: List[float] = []
    phase_pairs = {"cold": 0, "warm": 0, "queue": 0}
    # Per-cycle rates: their medians shrug off a stall of the host.
    rates: Dict[str, List[float]] = {"cold": [], "warm": [], "queue": [],
                                     "all": []}
    warm_disk_hits = 0
    first_payloads: List[bytes] = []
    deadline = time.perf_counter() + cfg.seconds
    cycle = 0
    while cycle < MIN_CYCLES or time.perf_counter() < deadline:
        stream = inputs.dse_stream(cfg.seed, cycle)
        # A directory per cycle, so each cache file's final size is
        # its own in the write-amplification ratio.
        shutil.rmtree(cfg.work / "dse", ignore_errors=True)
        root = common.fresh_dir(cfg.work / "dse" / f"cycle{cycle}")
        cold, stats, wall = _sweep_phase(root / "cold", stream,
                                         latencies, out.ops)
        done = {"cold": (stats.requests, wall)}
        warm, stats, wall = _sweep_phase(root / "cold", stream)
        done["warm"] = (stats.requests, wall)
        warm_disk_hits += stats.disk_hits
        warm_evaluations = stats.evaluations
        common.fresh_dir(root / "queue")
        pairs, completed, final, wall = _queue_phase(root / "queue", stream)
        done["queue"] = (completed, wall)
        for phase, (count, seconds) in done.items():
            phase_pairs[phase] += count
            rates[phase].append(count / seconds)
        rates["all"].append(sum(n for n, _ in done.values())
                            / sum(w for _, w in done.values()))
        out.attempted += 2 * len(stream) + 1

        failed_before = len(out.problems)
        with common.untraced(cfg.tracer):
            if warm_evaluations:
                out.fail(f"cycle {cycle}: warm replay evaluated "
                         f"{warm_evaluations} pairs")
            for index, (a, b) in enumerate(zip(cold, warm)):
                if not _same(a, b):
                    out.fail(f"cycle {cycle}: warm result {index} "
                             f"differs from cold")
            if final.remaining or final.failed or final.done != completed:
                out.fail(f"cycle {cycle}: queue ended {final.as_dict()} "
                         f"with {completed} completed")
            _check_queue(out, root / "cold", root / "queue", pairs, cycle)
            if cycle == 0:
                first_payloads = [_payload(result) for result in cold]
        out.failed += len(out.problems) - failed_before
        cycle += 1
        if cycle == MIN_CYCLES:
            peak_rss = common.self_peak_rss_mb()
    shutil.rmtree(cfg.work / "dse", ignore_errors=True)

    tail_ms, tail_pct, samples = common.tail(latencies)
    out.digest = common.digest_bytes(first_payloads)
    out.named = {
        f"dse.{phase}_pairs_per_s": (common.median(rates[phase]), "1/s")
        for phase in ("cold", "warm", "queue")
    }
    out.e2e = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "throughput_per_s": (common.median(rates["all"]), "1/s"),
        "op_p50_ms": (common.median(latencies), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
    }
    out.properties = [
        f"cycles: {cycle} (stream of {inputs.DSE_GRIDS_PER_CYCLE} grid "
        f"sweeps + {len(inputs.MODELS)} model sweeps each); rates are "
        f"medians of per-cycle rates",
        f"pairs: cold {phase_pairs['cold']}, warm {phase_pairs['warm']}, "
        f"queue cells {phase_pairs['queue']}",
        f"warm-phase disk-hit share: "
        f"{warm_disk_hits / max(1, phase_pairs['warm']):.4f} "
        f"({warm_disk_hits} of {phase_pairs['warm']} pair requests)",
        f"op = one cold-phase grid sweep call; tail = p{tail_pct:.1f} "
        f"of {samples} samples",
    ]
    return out
