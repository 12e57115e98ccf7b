"""Record the batch-path baselines into ``BENCH_sweep.json``.

Measures, in-process, the wall times the vectorized batch path is
accountable for:

* the Fig. 15-style deit_small network sweep (`bench_network_sweep.py`
  shape) — cold through the scalar reference path, cold through the
  batch path, and warm from a populated persistent cache;
* the Fig. 13 synthetic grid (`bench_fig13.py` shape) — cold, both
  paths, plus a warm run from a populated cache;
* cold ``repro all`` end to end, both paths, plus a warm run;
* the job queue (`repro queue` / `repro worker`) on a small grid —
  fill time, bookkeeping-only claim+complete drain, and the 1-vs-2
  worker drain wall times (recorded for the trajectory, not gated:
  two in-process workers contend on the GIL, so the honest
  multi-machine story is the CI queue smoke job's separate processes).

Every measurement reports the *min* across rounds (scheduling noise
only ever adds time; the ``*_ms`` keys are mins and are the tracked
baselines) and the *mean* (``*_mean_ms``, a dispersion hint: a mean
far above its min means the rounds were noisy and the record is worth
re-taking).

Writes a JSON record (default ``BENCH_sweep.json`` at the repo root;
CI uploads it as an artifact, fails the smoke job if the cold batch
path is slower than the scalar path, and gates with ``--compare``
against the committed baseline). Run from the repo root::

    PYTHONPATH=src python benchmarks/record_bench.py

``--compare BASELINE`` fails (exit 1) if any cold-batch or warm
measurement regressed more than ``--tolerance`` (default 0.25 = 25%)
over the baseline record's value. ``--profile OUT`` additionally
writes a cProfile dump of one cold ``repro all`` run — open
it with ``python -m pstats OUT``.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import json
import platform
import shutil
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

from repro import cli
from repro.dnn.models import deit_small
from repro.energy import Estimator
from repro.eval import experiments as E
from repro.eval.cache import PersistentCache
from repro.eval.engine import SweepEngine

#: The (section key, measurement key) pairs ``--compare`` gates on:
#: the batch-path cold times and the warm (cache-served) times. Cold
#: *scalar* times are recorded for the speedup ratio but not gated —
#: the scalar reference path is the fixed yardstick, not the product.
GATED_MEASUREMENTS = ("cold_batch_ms", "warm_ms")


@contextlib.contextmanager
def scalar_only():
    """Force every engine constructed in the block onto the scalar
    reference path (the pre-batch behavior, for before/after runs)."""
    original = SweepEngine.__init__

    def patched(self, *args, **kwargs):
        kwargs["use_batch"] = False
        original(self, *args, **kwargs)

    SweepEngine.__init__ = patched
    try:
        yield
    finally:
        SweepEngine.__init__ = original


def _measure_ms(fn, rounds: int):
    """(min, mean) wall time over ``rounds`` calls, in milliseconds.

    The min is the tracked number (noise only ever adds time); the
    mean rides along so a record taken on a noisy box is recognizable
    as such.
    """
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times) * 1000.0, sum(times) / len(times) * 1000.0


def _engine_with_cache(cache_dir: Path) -> SweepEngine:
    estimator = Estimator()
    engine = SweepEngine(estimator)
    engine.attach_cache(
        PersistentCache.for_estimator(cache_dir, estimator)
    )
    return engine


def _network_sweep(cache_dir: Path) -> None:
    engine = _engine_with_cache(cache_dir)
    E.sweep_model(
        deit_small(), designs=tuple(E.DESIGN_LADDERS), ctx=engine
    )
    engine.close()


def _fig13(cache_dir: Path) -> None:
    engine = _engine_with_cache(cache_dir)
    E.fig13(engine)
    engine.close()


def _cold(fn, cache_dir: Path, rounds: int):
    def run():
        shutil.rmtree(cache_dir, ignore_errors=True)
        fn()

    return _measure_ms(run, rounds)


def _repro_all(cache_dir: Path) -> None:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = cli.main(
            ["all", "--cache-dir", str(cache_dir)]
        )
    if status not in (0, None):
        raise SystemExit(f"repro all failed with status {status}")


def _queue_section(rounds: int) -> dict:
    """Queue bookkeeping + worker drain timings on a small grid."""
    import threading

    from repro.eval.cache import estimator_fingerprint
    from repro.eval.queue import (
        JobStore,
        grid_fill_pairs,
        queue_db_path,
    )

    designs = ("TC", "DSTC", "HighLight")
    degrees = (0.0, 0.25, 0.5, 0.75)
    pairs = grid_fill_pairs(
        designs, degrees, degrees, m=128, k=128, n=128
    )
    estimator = Estimator()
    fingerprint = estimator_fingerprint(estimator)
    cells = 0

    def timed(body):
        """Best/mean ms of ``body(directory)`` over fresh scratch
        dirs; ``body`` returns the seconds of just the measured op."""
        times = []
        for _ in range(rounds):
            directory = Path(tempfile.mkdtemp(prefix="repro-bench-q-"))
            try:
                times.append(body(directory))
            finally:
                shutil.rmtree(directory, ignore_errors=True)
        return (
            min(times) * 1000.0,
            sum(times) / len(times) * 1000.0,
        )

    def filled_store(directory):
        store = JobStore(queue_db_path(directory, fingerprint))
        store.fill(pairs)
        return store

    def fill_body(directory):
        nonlocal cells
        store = JobStore(queue_db_path(directory, fingerprint))
        start = time.perf_counter()
        store.fill(pairs)
        elapsed = time.perf_counter() - start
        cells = store.stats().pending
        store.close()
        return elapsed

    def bookkeeping_body(directory):
        store = filled_store(directory)
        start = time.perf_counter()
        while True:
            jobs = store.claim_batch("bench", limit=16)
            if not jobs:
                break
            store.complete("bench", [job.digest for job in jobs])
        elapsed = time.perf_counter() - start
        store.close()
        return elapsed

    def drain(directory, store, worker_id):
        engine = SweepEngine(
            estimator,
            cache=PersistentCache.for_estimator(
                directory, estimator, backend="sqlite"
            ),
        )
        list(engine.run_queue(
            store, worker_id=worker_id, batch_size=16, poll_s=0.01
        ))
        engine.close()

    def one_worker_body(directory):
        store = filled_store(directory)
        start = time.perf_counter()
        drain(directory, store, "solo")
        elapsed = time.perf_counter() - start
        store.close()
        return elapsed

    def two_worker_body(directory):
        filled_store(directory).close()

        def run(worker_id):
            store = JobStore(queue_db_path(directory, fingerprint))
            drain(directory, store, worker_id)
            store.close()

        threads = [
            threading.Thread(target=run, args=(f"w{i}",))
            for i in range(2)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start

    fill_ms, fill_mean = timed(fill_body)
    book_ms, book_mean = timed(bookkeeping_body)
    solo_ms, solo_mean = timed(one_worker_body)
    duo_ms, duo_mean = timed(two_worker_body)
    return {
        "cells": cells,
        "fill_ms": round(fill_ms, 3),
        "fill_mean_ms": round(fill_mean, 3),
        "claim_complete_ms": round(book_ms, 3),
        "claim_complete_mean_ms": round(book_mean, 3),
        "one_worker_drain_ms": round(solo_ms, 3),
        "one_worker_drain_mean_ms": round(solo_mean, 3),
        "two_worker_drain_ms": round(duo_ms, 3),
        "two_worker_drain_mean_ms": round(duo_mean, 3),
    }


def record(rounds: int) -> dict:
    scratch = Path(tempfile.mkdtemp(prefix="repro-bench-"))
    sweep_dir = scratch / "sweep-cache"
    fig13_dir = scratch / "fig13-cache"
    all_dir = scratch / "all-cache"
    try:
        sweep = lambda: _network_sweep(sweep_dir)  # noqa: E731
        fig13 = lambda: _fig13(fig13_dir)  # noqa: E731
        repro_all = lambda: _repro_all(all_dir)  # noqa: E731

        with scalar_only():
            sweep_scalar = _cold(sweep, sweep_dir, rounds)
            fig13_scalar = _cold(fig13, fig13_dir, rounds)
            all_scalar = _cold(repro_all, all_dir, rounds)
        sweep_batch = _cold(sweep, sweep_dir, rounds)
        sweep_warm = _measure_ms(sweep, rounds)  # cache left populated
        fig13_batch = _cold(fig13, fig13_dir, rounds)
        fig13_warm = _measure_ms(fig13, rounds)
        all_batch = _cold(repro_all, all_dir, rounds)
        all_warm = _measure_ms(repro_all, rounds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    def section(scalar, batch, warm=None):
        scalar_ms, scalar_mean = scalar
        batch_ms, batch_mean = batch
        record = {
            "cold_scalar_ms": round(scalar_ms, 3),
            "cold_scalar_mean_ms": round(scalar_mean, 3),
            "cold_batch_ms": round(batch_ms, 3),
            "cold_batch_mean_ms": round(batch_mean, 3),
            "cold_speedup": round(scalar_ms / batch_ms, 2),
        }
        if warm is not None:
            warm_ms, warm_mean = warm
            record["warm_ms"] = round(warm_ms, 3)
            record["warm_mean_ms"] = round(warm_mean, 3)
        return record

    return {
        # v3: + the queue_small_grid section (job-queue bookkeeping
        # and worker drain timings; informational, not gated).
        "schema_version": 3,
        "recorded_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "rounds": rounds,
        "network_sweep_deit_small": section(
            sweep_scalar, sweep_batch, sweep_warm
        ),
        "fig13_grid": section(fig13_scalar, fig13_batch, fig13_warm),
        "repro_all_jobs1": section(all_scalar, all_batch, all_warm),
        "queue_small_grid": _queue_section(rounds),
    }


def profile_cold_all(out: Path) -> None:
    """cProfile one cold ``repro all`` into ``out``."""
    scratch = Path(tempfile.mkdtemp(prefix="repro-bench-prof-"))
    try:
        _repro_all(scratch / "cache")  # warm imports outside the profile
        shutil.rmtree(scratch / "cache", ignore_errors=True)
        profiler = cProfile.Profile()
        profiler.enable()
        _repro_all(scratch / "cache")
        profiler.disable()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    profiler.dump_stats(str(out))


def compare(payload: dict, baseline: dict, tolerance: float):
    """Regressions of the gated measurements beyond ``tolerance``,
    as (path, old_ms, new_ms) rows. Sections or keys absent from the
    baseline are skipped, so a schema-1 baseline still gates what it
    recorded."""
    regressions = []
    for section, record in payload.items():
        if not isinstance(record, dict):
            continue
        base = baseline.get(section)
        if not isinstance(base, dict):
            continue
        for key in GATED_MEASUREMENTS:
            if key not in record or key not in base:
                continue
            old, new = base[key], record[key]
            if new > old * (1.0 + tolerance):
                regressions.append((f"{section}.{key}", old, new))
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_sweep.json",
        help="output path (default: %(default)s)",
    )
    parser.add_argument(
        "--rounds", type=int, default=5,
        help="timing rounds per measurement; the min is the tracked "
        "number, the mean is recorded alongside (default: %(default)s)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero if the cold batch path is slower than the "
        "cold scalar path on the end-to-end run (CI smoke gate)",
    )
    parser.add_argument(
        "--compare", metavar="BASELINE",
        help="exit non-zero if a cold-batch or warm measurement "
        "regressed more than --tolerance over this baseline record",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional regression for --compare "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--profile", metavar="OUT",
        help="also write a cProfile dump of one cold "
        "'repro all' run to OUT",
    )
    args = parser.parse_args(argv)
    payload = record(args.rounds)
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    if args.profile:
        profile_cold_all(Path(args.profile))
        print(f"profile written to {args.profile}")
    status = 0
    if args.check:
        gate = payload["repro_all_jobs1"]
        if gate["cold_batch_ms"] > gate["cold_scalar_ms"]:
            print(
                "FAIL: cold batch path is slower than the scalar "
                f"path ({gate['cold_batch_ms']}ms vs "
                f"{gate['cold_scalar_ms']}ms)",
                file=sys.stderr,
            )
            status = 1
        else:
            print(
                "OK: cold batch path is at least as fast as scalar "
                f"({gate['cold_speedup']}x on repro all)"
            )
    if args.compare:
        baseline = json.loads(Path(args.compare).read_text())
        regressions = compare(payload, baseline, args.tolerance)
        if regressions:
            for path, old, new in regressions:
                print(
                    f"FAIL: {path} regressed {old}ms -> {new}ms "
                    f"(> {args.tolerance:.0%} over baseline)",
                    file=sys.stderr,
                )
            status = 1
        else:
            print(
                f"OK: no gated measurement regressed more than "
                f"{args.tolerance:.0%} over {args.compare}"
            )
    return status


if __name__ == "__main__":
    sys.exit(main())
