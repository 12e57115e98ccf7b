"""Tests for the claim-based job queue and the worker loop.

Covers the distributed-fill contract end to end: transactional
exactly-once claims, ownership-guarded completion, lease expiry and
crash recovery (a killed worker's cells are reclaimed and — because
results are flushed before rows turn done — re-served from the cache,
not re-evaluated), and byte-equivalence of a queue-filled cache with a
single-process fill.
"""

import json
import random
import sqlite3
import time

import pytest

from repro.cli import main
from repro.errors import EvaluationError, QueueError
from repro.eval import cache as cache_mod
from repro.eval.cache import PersistentCache, estimator_fingerprint
from repro.eval.engine import SweepEngine
from repro.eval.queue import (
    DEFAULT_BATCH_SIZE,
    JobStore,
    LeaseHeartbeat,
    QueueStats,
    default_worker_id,
    grid_fill_pairs,
    model_fill_pairs,
    operand_from_text,
    operand_text,
    queue_counts,
    queue_db_path,
)
from repro.eval.runs import record_from_worker
from repro.model.workload import synthetic_workload

DESIGNS = ("TC", "DSTC")
A_DEGREES = (0.0, 0.5)
B_DEGREES = (0.0, 0.5)
SIZE = 64

#: Every design, over degrees that reach every realization kind: each
#: canonical HSS pattern (0.5, 0.625, 0.75), G:8 operands (S2TA at
#: 0.3), unstructured operands (0.3) and dense ones (0.0).
ALL_DESIGNS = ("TC", "STC", "DSTC", "S2TA", "HighLight", "DSSO")
EQUIV_A_DEGREES = (0.0, 0.3, 0.5, 0.625, 0.75)
EQUIV_B_DEGREES = (0.0, 0.3, 0.5)

#: The claim select before it was split in two: the reference the
#: split claim must reproduce row for row.
OR_CLAIM_SQL = (
    "SELECT digest, attempts FROM jobs WHERE status = 'pending'"
    " OR (status = 'claimed' AND lease_until < ?)"
    " ORDER BY rowid LIMIT ?"
)

#: The ``jobs`` table as it was before jobs were stored as key columns.
OLD_LAYOUT_SQL = (
    "CREATE TABLE jobs ("
    " digest TEXT PRIMARY KEY,"
    " design TEXT NOT NULL,"
    " workload TEXT NOT NULL,"
    " status TEXT NOT NULL DEFAULT 'pending',"
    " worker TEXT,"
    " lease_until REAL,"
    " attempts INTEGER NOT NULL DEFAULT 0,"
    " error TEXT)"
)


def small_grid():
    return grid_fill_pairs(
        DESIGNS, A_DEGREES, B_DEGREES, m=SIZE, k=SIZE, n=SIZE
    )


def equivalence_grid():
    return grid_fill_pairs(
        ALL_DESIGNS, EQUIV_A_DEGREES, EQUIV_B_DEGREES,
        m=SIZE, k=SIZE, n=SIZE,
    )


def merged_bytes(tmp_path, directory, fingerprint):
    """A cache dir consolidated into the canonical digest-sorted JSON
    format, as bytes: equal bytes mean equal caches."""
    out = tmp_path / f"merged-{directory.name}"
    cache_mod.merge_cache_dirs([directory], out, backend="json")
    return (out / f"{fingerprint}.json").read_bytes()


def drain(directory, pairs, estimator):
    """Fill a fresh queue in ``directory`` with ``pairs`` and drain it
    with one in-process worker."""
    fingerprint = estimator_fingerprint(estimator)
    with JobStore(queue_db_path(directory, fingerprint)) as store:
        store.fill(pairs)
        engine = SweepEngine(
            estimator,
            cache=PersistentCache.for_estimator(
                directory, estimator, backend="sqlite"
            ),
        )
        list(engine.run_queue(store, worker_id="w",
                              batch_size=3, poll_s=0.01))
        engine.close()
        assert store.stats().done == store.stats().total


def make_old_layout(path):
    """A queue database whose ``jobs`` table has the older layout (one
    ``workload`` JSON column), holding one pending row."""
    path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(path)
    conn.execute(OLD_LAYOUT_SQL)
    conn.execute(
        "INSERT INTO jobs (digest, design, workload)"
        " VALUES ('d0', 'TC', '{}')"
    )
    conn.commit()
    conn.close()


@pytest.fixture
def queue_path(tmp_path, estimator):
    return queue_db_path(tmp_path, estimator_fingerprint(estimator))


@pytest.fixture
def store(queue_path, estimator):
    with JobStore(queue_path, estimator_fingerprint(estimator)) as s:
        yield s


class FakeClock:
    """An injectable wall clock so lease-expiry tests need not sleep."""

    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestFill:
    def test_fill_dedups_equal_realizations(self, store):
        pairs = small_grid()
        summary = store.fill(pairs)
        # The grid realizes more candidate workloads than unique
        # (design, workload-key) cells; the queue holds the dedup'd set.
        assert 0 < summary.added <= len(pairs)
        digests = {
            cache_mod.pair_digest(d, w.stripped.key()) for d, w in pairs
        }
        assert summary.added == len(digests)

    def test_refill_is_idempotent(self, store):
        store.fill(small_grid())
        again = store.fill(small_grid())
        assert again.added == 0
        assert again.skipped_queued == store.stats().total

    def test_fill_skips_cached_cells(self, tmp_path, queue_path,
                                     estimator):
        # Warm the cache first: a fill against it queues nothing.
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend="sqlite"
        )
        engine = SweepEngine(estimator, cache=cache)
        engine.sweep(DESIGNS, A_DEGREES, B_DEGREES,
                     m=SIZE, k=SIZE, n=SIZE)
        engine.close()
        with JobStore(queue_path) as store:
            summary = store.fill(small_grid())
        assert summary.added == 0
        assert summary.skipped_cached > 0

    def test_model_fill_pairs_enumerates_network(self):
        from repro.dnn.models import get_model

        pairs = model_fill_pairs(
            get_model("ResNet50"), ("TC",), degrees=(0.5,)
        )
        assert pairs
        assert all(design == "TC" for design, _ in pairs)

    def test_stats_empty_queue(self, store):
        assert store.stats() == QueueStats()
        assert store.stats().remaining == 0


class TestClaims:
    def test_two_workers_partition_the_queue(self, store):
        store.fill(small_grid())
        total = store.stats().pending
        a = store.claim_batch("w-a", limit=3)
        b = store.claim_batch("w-b", limit=total)
        assert len(a) == 3
        assert len(b) == total - 3
        assert not {job.digest for job in a} & {job.digest for job in b}
        assert store.stats().pending == 0

    def test_claim_limit_validated(self, store):
        with pytest.raises(QueueError):
            store.claim_batch("w", limit=0)

    def test_complete_requires_ownership(self, store):
        store.fill(small_grid())
        jobs = store.claim_batch("w-a", limit=2)
        digests = [job.digest for job in jobs]
        assert store.complete("w-b", digests) == 0
        assert store.stats().done == 0
        assert store.complete("w-a", digests) == 2
        assert store.stats().done == 2
        # Done rows are terminal: completing again moves nothing.
        assert store.complete("w-a", digests) == 0

    def test_fail_and_requeue(self, store):
        store.fill(small_grid())
        jobs = store.claim_batch("w", limit=2)
        digests = [job.digest for job in jobs]
        assert store.fail("w", digests, "boom") == 2
        assert store.stats().failed == 2
        assert store.requeue(failed=True) == 2
        assert store.stats().failed == 0
        reclaimed = store.claim_batch("w", limit=10)
        assert {job.digest for job in reclaimed} >= set(digests)

    def test_release_hands_claims_back(self, store):
        store.fill(small_grid())
        store.claim_batch("w", limit=2)
        before = store.stats()
        assert before.claimed == 2
        assert store.release("w") == 2
        after = store.stats()
        assert after.claimed == 0
        assert after.pending == before.pending + 2

    def test_job_roundtrips_workload(self, store):
        workload = synthetic_workload(0.5, 0.25, size=SIZE)
        store.fill([("TC", workload)])
        (job,) = store.claim_batch("w")
        assert job.design == "TC"
        assert job.workload.key() == workload.stripped.key()
        assert job.attempts == 1

    def test_claimed_cells_share_decoded_operands(self, store):
        """Designs that realize a cell alike get one workload instance,
        and equal operands one operand instance, as on the cold path."""
        store.fill(equivalence_grid())
        jobs = store.claim_batch("w", limit=store.stats().total)
        by_key = {}
        operands = {}
        for job in jobs:
            workload = job.workload
            assert by_key.setdefault(workload.key(), workload) is workload
            for operand in (workload.a, workload.b):
                text = operand_text(operand)
                assert operands.setdefault(text, operand) is operand
        assert len(by_key) < len(jobs)

    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_operand_text_roundtrips_exactly(self, design):
        # 1/3 and 0.1 + 0.2 carry float digits past the key's
        # quantization: only the exact density round-trips them.
        for _, workload in grid_fill_pairs(
            (design,), EQUIV_A_DEGREES + (1 / 3,), (0.1 + 0.2,),
            m=SIZE, k=SIZE, n=SIZE,
        ):
            for operand in (workload.a, workload.b):
                decoded = operand_from_text(operand_text(operand))
                # Equal, exact float density included: not merely an
                # equal (quantized) key.
                assert decoded == operand
                assert decoded.density == operand.density
                assert decoded.describe() == operand.describe()

    @pytest.mark.parametrize(
        "text", ["hss 0.375", "hss 0.5 2:4 2:4", "dense x", "sparse 1.0"]
    )
    def test_malformed_operand_text_is_a_queue_error(self, text):
        with pytest.raises(QueueError, match="malformed operand"):
            operand_from_text(text)


def _randomize_rows(path, seed, now):
    """Put every row of a filled queue into a random state: pending,
    live-claimed, stale-claimed, done or failed, with random attempts
    (in a shuffled rowid order relative to the states)."""
    rng = random.Random(seed)
    conn = sqlite3.connect(path)
    rowids = [row[0] for row in conn.execute("SELECT rowid FROM jobs")]
    updates = []
    for rowid in rowids:
        state = rng.choice(
            ("pending", "live", "stale", "done", "failed")
        )
        status = {"live": "claimed", "stale": "claimed"}.get(state, state)
        lease = {
            "live": now + rng.uniform(1.0, 60.0),
            "stale": now - rng.uniform(1.0, 60.0),
        }.get(state)
        worker = f"w{rng.randrange(3)}" if status == "claimed" else None
        updates.append(
            (status, worker, lease, rng.randrange(4), rowid)
        )
    conn.executemany(
        "UPDATE jobs SET status = ?, worker = ?, lease_until = ?,"
        " attempts = ? WHERE rowid = ?",
        updates,
    )
    conn.commit()
    conn.close()


class TestClaimOrder:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("limit", [1, 3, 17, 1000])
    def test_split_claim_equals_the_or_claim(self, queue_path, seed,
                                             limit):
        """Over random mixes of row states, the two-select claim takes
        the same digests, in the same order, with the same attempts as
        the single "pending OR stale" select it replaced."""
        clock = FakeClock()
        with JobStore(queue_path, clock=clock) as store:
            store.fill(equivalence_grid())
            _randomize_rows(queue_path, seed, clock.now)
            with sqlite3.connect(queue_path) as reference:
                expected = [
                    (digest, attempts + 1)
                    for digest, attempts in reference.execute(
                        OR_CLAIM_SQL, (clock.now, limit)
                    )
                ]
            got = store.claim_batch("w-new", limit=limit)
            assert [(j.digest, j.attempts) for j in got] == expected
            # The claim stamped exactly those rows.
            with sqlite3.connect(queue_path) as check:
                owned = [
                    digest for (digest,) in check.execute(
                        "SELECT digest FROM jobs WHERE worker = 'w-new'"
                        " ORDER BY rowid"
                    )
                ]
            assert owned == [digest for digest, _ in expected]

    @pytest.mark.parametrize(
        "sql", [JobStore._CLAIM_PENDING, JobStore._CLAIM_STALE]
    )
    def test_claim_selects_read_the_index_in_order(self, store,
                                                   queue_path, sql):
        store.fill(equivalence_grid())
        _randomize_rows(queue_path, 0, store.clock())
        with sqlite3.connect(queue_path) as conn:
            params = (1.0,) * sql.count("?")
            plan = " | ".join(
                row[-1]
                for row in conn.execute("EXPLAIN QUERY PLAN " + sql,
                                        params)
            )
        assert "jobs_status" in plan, plan
        assert "MULTI-INDEX OR" not in plan, plan
        assert "USE TEMP B-TREE" not in plan, plan


class TestMixedOwnership:
    """A batch in which another worker stole some cells: each
    transition moves only the caller's rows and reports that count."""

    def _split_batch(self, queue_path, clock):
        store = JobStore(queue_path, clock=clock)
        store.fill(small_grid())
        batch = [
            job.digest
            for job in store.claim_batch("w-old", limit=5, lease_s=10.0)
        ]
        store.renew("w-old", batch[2:], lease_s=100.0)
        clock.advance(11.0)
        stolen = [
            job.digest
            for job in store.claim_batch("w-new", limit=2, lease_s=30.0)
        ]
        assert stolen == batch[:2]
        return store, batch, stolen

    @staticmethod
    def _rows(queue_path, digests):
        with sqlite3.connect(queue_path) as conn:
            return {
                digest: conn.execute(
                    "SELECT status, worker, lease_until, attempts, error"
                    " FROM jobs WHERE digest = ?",
                    (digest,),
                ).fetchone()
                for digest in digests
            }

    @pytest.mark.parametrize("op", ["complete", "renew", "fail"])
    def test_transition_moves_only_owned_rows(self, queue_path, op):
        clock = FakeClock()
        store, batch, stolen = self._split_batch(queue_path, clock)
        with store:
            before = self._rows(queue_path, stolen)
            owned = [d for d in batch if d not in stolen]
            if op == "complete":
                moved = store.complete("w-old", batch)
                expected = ("done", "w-old", None, 1, None)
            elif op == "renew":
                moved = store.renew("w-old", batch, lease_s=50.0)
                expected = ("claimed", "w-old", clock.now + 50.0, 1, None)
            else:
                moved = store.fail("w-old", batch, "boom")
                expected = ("failed", "w-old", None, 1, "boom")
            assert moved == len(owned)
            assert self._rows(queue_path, stolen) == before
            assert all(
                row == ("claimed", "w-new", clock.now + 30.0, 2, None)
                for row in before.values()
            )
            assert set(self._rows(queue_path, owned).values()) == {
                expected
            }


class TestLeases:
    def test_expired_lease_is_reclaimable(self, queue_path):
        clock = FakeClock()
        with JobStore(queue_path, clock=clock) as store:
            first = store.fill(small_grid()).added
            claimed = store.claim_batch("w-dead", limit=100,
                                        lease_s=30.0)
            assert len(claimed) == first
            # Nothing pending and every lease live: nothing to claim.
            assert store.claim_batch("w-live", limit=100) == []
            clock.advance(31.0)
            assert store.stats().stale == first
            stolen = store.claim_batch("w-live", limit=100,
                                       lease_s=30.0)
            assert {j.digest for j in stolen} == {
                j.digest for j in claimed
            }
            # The reclaim is recorded on the attempts counter.
            assert all(job.attempts == 2 for job in stolen)

    def test_renew_extends_the_lease(self, queue_path):
        clock = FakeClock()
        with JobStore(queue_path, clock=clock) as store:
            store.fill(small_grid())
            jobs = store.claim_batch("w", limit=100, lease_s=30.0)
            digests = [job.digest for job in jobs]
            clock.advance(20.0)
            assert store.renew("w", digests, lease_s=30.0) == len(jobs)
            clock.advance(20.0)
            # 40s elapsed but renewed at 20s: still live.
            assert store.stats().stale == 0
            assert store.claim_batch("thief", limit=100) == []

    def test_dead_worker_cannot_clobber_the_new_owner(self, queue_path):
        clock = FakeClock()
        with JobStore(queue_path, clock=clock) as store:
            store.fill(small_grid())
            jobs = store.claim_batch("w-dead", limit=1, lease_s=10.0)
            digests = [job.digest for job in jobs]
            clock.advance(11.0)
            store.claim_batch("w-live", limit=1)
            # The original owner lost the lease: its renew/complete
            # are no-ops, the thief's complete wins.
            assert store.renew("w-dead", digests) == 0
            assert store.complete("w-dead", digests) == 0
            assert store.stats().done == 0
            assert store.complete("w-live", digests) == 1

    def test_requeue_stale(self, queue_path):
        clock = FakeClock()
        with JobStore(queue_path, clock=clock) as store:
            store.fill(small_grid())
            store.claim_batch("w", limit=2, lease_s=10.0)
            clock.advance(11.0)
            assert store.requeue(failed=False, stale=False) == 0
            assert store.requeue(failed=False, stale=True) == 2
            assert store.stats().claimed == 0

    def test_heartbeat_renews_in_background(self, queue_path):
        with JobStore(queue_path) as store:
            store.fill(small_grid())
            jobs = store.claim_batch("w", limit=2, lease_s=5.0)
            beat = LeaseHeartbeat(store, "w", lease_s=5.0,
                                  interval_s=0.01)
            with beat:
                beat.start([job.digest for job in jobs])
                deadline = time.time() + 2.0
                while beat.renewals == 0 and time.time() < deadline:
                    time.sleep(0.01)
            assert beat.renewals > 0
            # stop() is idempotent and start([]) spawns nothing.
            beat.stop()
            beat.start([])
            assert beat._thread is None


class TestFingerprint:
    def test_mismatched_fingerprint_rejected(self, queue_path,
                                             estimator):
        with JobStore(queue_path, estimator_fingerprint(estimator)):
            pass
        with pytest.raises(QueueError):
            JobStore(queue_path, "deadbeef00000000")

    def test_default_fingerprint_is_the_stem(self, queue_path):
        with JobStore(queue_path) as store:
            assert store.fingerprint == queue_path.stem

    def test_default_worker_id_is_host_scoped(self):
        assert default_worker_id().count("-") >= 1


class TestRunQueue:
    def test_single_worker_drains_exactly_once(self, tmp_path,
                                               queue_path, estimator):
        with JobStore(queue_path) as store:
            store.fill(small_grid())
            cells = store.stats().pending
            cache = PersistentCache.for_estimator(
                tmp_path, estimator, backend="sqlite"
            )
            engine = SweepEngine(estimator, cache=cache)
            batches = list(engine.run_queue(
                store, worker_id="w", batch_size=3, poll_s=0.01
            ))
            engine.close()
            assert sum(b.stats.evaluations for b in batches) == cells
            assert sum(b.completed for b in batches) == cells
            final = store.stats()
            assert final.done == cells
            assert final.remaining == 0

    def test_two_workers_share_exactly_once(self, tmp_path, queue_path,
                                            estimator):
        with JobStore(queue_path) as store:
            store.fill(small_grid())
            cells = store.stats().pending
        # Two independent stores/engines alternating one batch at a
        # time against the same database — the in-process stand-in for
        # two machines.
        stores = [JobStore(queue_path), JobStore(queue_path)]
        engines = [
            SweepEngine(
                estimator,
                cache=PersistentCache.for_estimator(
                    tmp_path, estimator, backend="sqlite"
                ),
            )
            for _ in stores
        ]
        batches = []
        while any(s.stats().remaining for s in stores):
            for index, (s, engine) in enumerate(zip(stores, engines)):
                batches.extend(engine.run_queue(
                    s, worker_id=f"w{index}", batch_size=2,
                    poll_s=0.01, max_batches=1,
                ))
        for engine in engines:
            engine.close()
        assert sum(b.stats.evaluations for b in batches) == cells
        final = stores[0].stats()
        assert final.done == cells
        for s in stores:
            s.close()

    def test_crash_recovery_reuses_flushed_results(self, tmp_path,
                                                   queue_path,
                                                   estimator):
        """A worker killed after the cache flush but before complete:
        its cells are reclaimed and served from disk, not re-evaluated
        — summed evaluations still equal the cell count."""
        clock = FakeClock()
        with JobStore(queue_path, clock=clock) as store:
            store.fill(small_grid())
            cells = store.stats().pending

            # Worker 1 claims a batch, evaluates, flushes... and dies
            # before complete() (simulated by just not calling it).
            dead_jobs = store.claim_batch("w-dead", limit=2,
                                          lease_s=30.0)
            cache1 = PersistentCache.for_estimator(
                tmp_path, estimator, backend="sqlite"
            )
            engine1 = SweepEngine(estimator, cache=cache1)
            engine1.evaluate_workloads([j.pair for j in dead_jobs])
            assert engine1.stats.evaluations == len(dead_jobs)
            engine1.close()  # flush + die

            clock.advance(31.0)  # the lease lapses

            cache2 = PersistentCache.for_estimator(
                tmp_path, estimator, backend="sqlite"
            )
            engine2 = SweepEngine(estimator, cache=cache2)
            batches = list(engine2.run_queue(
                store, worker_id="w-live", batch_size=3, poll_s=0.01
            ))
            engine2.close()

            # No completed cell was lost and none stranded claimed.
            final = store.stats()
            assert final.done == cells
            assert final.claimed == 0
            # Exactly-once: the dead worker's evaluations plus the
            # survivor's equal the cell count; the reclaimed cells
            # appear as disk hits on the survivor.
            survivor_evals = sum(
                b.stats.evaluations for b in batches
            )
            assert len(dead_jobs) + survivor_evals == cells
            assert sum(
                b.stats.disk_hits for b in batches
            ) == len(dead_jobs)

    def test_run_queue_requires_persistent_cache(self, store,
                                                 estimator):
        engine = SweepEngine(estimator)
        with pytest.raises(EvaluationError):
            list(engine.run_queue(store))

    def test_evaluation_error_marks_batch_failed(self, queue_path,
                                                 tmp_path, estimator):
        with JobStore(queue_path) as store:
            workload = synthetic_workload(0.5, 0.25, size=SIZE)
            store.fill([("NoSuchDesign", workload)])
            cache = PersistentCache.for_estimator(
                tmp_path, estimator, backend="sqlite"
            )
            engine = SweepEngine(estimator, cache=cache)
            with pytest.raises(Exception):
                list(engine.run_queue(store, worker_id="w",
                                      poll_s=0.01))
            engine.close()
            stats = store.stats()
            assert stats.failed == 1
            assert stats.claimed == 0

    def test_queue_fill_matches_single_process_fill(self, tmp_path,
                                                    estimator):
        """The acceptance criterion: a queue-filled cache is
        byte-equivalent to a single-process sweep fill, over every
        design and every realization kind."""
        fingerprint = estimator_fingerprint(estimator)
        queue_dir = tmp_path / "queued"
        local_dir = tmp_path / "local"
        queue_dir.mkdir()
        local_dir.mkdir()

        pairs = equivalence_grid()
        texts = {
            operand_text(operand)
            for _, workload in pairs
            for operand in (workload.a, workload.b)
        }
        for reached in ("dense 1.0", "unstructured 0.7",
                        "hss 0.5 2:4 4:4", "hss 0.375 2:4 3:4",
                        "hss 0.25 2:4 4:8", "hss 0.75 6:8"):
            assert reached in texts, sorted(texts)
        drain(queue_dir, pairs, estimator)

        local = SweepEngine(
            estimator,
            cache=PersistentCache.for_estimator(
                local_dir, estimator, backend="sqlite"
            ),
        )
        local.sweep(ALL_DESIGNS, EQUIV_A_DEGREES, EQUIV_B_DEGREES,
                    m=SIZE, k=SIZE, n=SIZE)
        local.close()

        assert merged_bytes(tmp_path, queue_dir, fingerprint) == (
            merged_bytes(tmp_path, local_dir, fingerprint)
        )

    def test_model_queue_fill_matches_sweep_model_fill(self, tmp_path,
                                                       estimator):
        from repro.dnn.models import get_model
        from repro.eval.experiments import sweep_model

        fingerprint = estimator_fingerprint(estimator)
        queue_dir = tmp_path / "queued"
        local_dir = tmp_path / "local"
        model = get_model("DeiT-small")
        degrees = (0.0, 0.3, 0.625)
        drain(
            queue_dir,
            model_fill_pairs(model, ALL_DESIGNS, degrees),
            estimator,
        )

        local = SweepEngine(
            estimator,
            cache=PersistentCache.for_estimator(
                local_dir, estimator, backend="sqlite"
            ),
        )
        sweep_model(model, designs=ALL_DESIGNS, degrees=degrees,
                    ctx=local)
        local.close()

        assert merged_bytes(tmp_path, queue_dir, fingerprint) == (
            merged_bytes(tmp_path, local_dir, fingerprint)
        )


class TestQueueCounts:
    def test_plain_cache_file_has_no_queue(self, tmp_path, estimator):
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend="sqlite"
        )
        workload = synthetic_workload(0.5, 0.25, size=SIZE)
        cache.put("TC", workload.key(), None)
        cache.close()
        assert queue_counts(cache.path) is None

    def test_queue_file_reports_counts(self, store, queue_path):
        store.fill(small_grid())
        store.claim_batch("w", limit=1)
        counts = queue_counts(queue_path)
        assert counts["claimed"] == 1
        assert counts["total"] == store.stats().total

    def test_missing_file_is_none(self, tmp_path):
        assert queue_counts(tmp_path / "nope.db") is None

    def test_cache_stats_reports_queue(self, store, queue_path,
                                       tmp_path):
        store.fill(small_grid())
        stats = cache_mod.cache_stats(tmp_path)
        (info,) = [
            f for f in stats["files"]
            if f["file"] == queue_path.name
        ]
        assert info["queue"]["pending"] == store.stats().pending


class TestOldLayout:
    """A ``jobs`` table in the older layout is refused with the remedy,
    on every path that opens it, and still counted by ``cache stats``."""

    def test_job_store_refuses_with_the_remedy(self, queue_path):
        make_old_layout(queue_path)
        with pytest.raises(QueueError) as caught:
            JobStore(queue_path)
        message = str(caught.value)
        assert str(queue_path) in message
        assert "DROP TABLE jobs" in message
        assert "repro queue fill" in message
        assert "skips cells already cached" in message

    @pytest.mark.parametrize(
        "argv",
        [
            ["queue", "fill", "--designs", "TC", "--size", "64"],
            ["queue", "stats"],
            ["queue", "requeue"],
            ["worker", "--poll", "0.01"],
        ],
        ids=["fill", "stats", "requeue", "worker"],
    )
    def test_cli_refuses_with_the_remedy(self, tmp_path, queue_path,
                                         capsys, argv):
        make_old_layout(queue_path)
        with pytest.raises(SystemExit) as caught:
            main(argv + ["--cache-dir", str(tmp_path)])
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert "older layout" in err and "DROP TABLE jobs" in err
        # Refused, not half-migrated: the old row is still there.
        assert queue_counts(queue_path)["pending"] == 1

    def test_queue_counts_still_reports_it(self, queue_path):
        make_old_layout(queue_path)
        counts = queue_counts(queue_path)
        assert counts["pending"] == 1
        assert counts["total"] == 1

    def test_cache_stats_still_reports_it(self, tmp_path, queue_path,
                                          capsys):
        make_old_layout(queue_path)
        (info,) = cache_mod.cache_stats(tmp_path)["files"]
        assert info["queue"]["pending"] == 1
        assert main(["cache", "stats", "--cache-dir",
                     str(tmp_path)]) == 0
        assert "queue in" in capsys.readouterr().out


class TestBusyRetry:
    def test_retry_gives_up_after_bounded_attempts(self):
        attempts = []

        def always_locked():
            attempts.append(1)
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError):
            cache_mod._retry_locked(always_locked)
        assert len(attempts) == cache_mod.SQLITE_BUSY_RETRIES + 1

    def test_retry_recovers_from_transient_contention(self):
        state = {"left": 2}

        def flaky():
            if state["left"]:
                state["left"] -= 1
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        assert cache_mod._retry_locked(flaky) == "ok"

    def test_non_busy_errors_propagate_immediately(self):
        attempts = []

        def broken():
            attempts.append(1)
            raise sqlite3.OperationalError("no such table: jobs")

        with pytest.raises(sqlite3.OperationalError):
            cache_mod._retry_locked(broken)
        assert len(attempts) == 1


class TestWorkerRecord:
    def test_record_from_worker_shape(self, tmp_path, queue_path,
                                      estimator):
        with JobStore(queue_path) as store:
            store.fill(small_grid())
            engine = SweepEngine(
                estimator,
                cache=PersistentCache.for_estimator(
                    tmp_path, estimator, backend="sqlite"
                ),
            )
            batches = list(engine.run_queue(
                store, worker_id="w", batch_size=3, poll_s=0.01
            ))
            engine.close()
            record = record_from_worker(
                command="worker",
                queue_path=queue_path,
                worker_id="w",
                batches=batches,
                final_stats=store.stats().as_dict(),
                engine=engine,
            )
        assert record.schema_version == 4
        assert record.grid["worker_id"] == "w"
        assert record.grid["claimed"] == record.grid["completed"]
        assert len(record.artifact_stats) == len(batches)
        first = record.artifact_stats["batch_0001"]
        assert first["claimed"] == 3
        path = record.write(tmp_path / "worker.json")
        loaded = json.loads(path.read_text())
        assert loaded["grid"]["queue_stats"]["done"] == (
            record.grid["claimed"]
        )


class TestCliQueue:
    def _fill_args(self, tmp_path):
        return [
            "queue", "fill", "--cache-dir", str(tmp_path),
            "--designs", ",".join(DESIGNS),
            "--a-degrees", ",".join(str(d) for d in A_DEGREES),
            "--b-degrees", ",".join(str(d) for d in B_DEGREES),
            "--size", str(SIZE),
        ]

    def test_fill_then_worker_then_stats(self, tmp_path, capsys):
        assert main(self._fill_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "queued" in out and "pending" in out

        record = tmp_path / "worker.json"
        assert main([
            "worker", "--cache-dir", str(tmp_path),
            "--batch-size", "3", "--poll", "0.01",
            "--worker-id", "cli-w", "--record", str(record),
        ]) == 0
        captured = capsys.readouterr()
        assert "0 pending" in captured.out
        assert "cli-w" in captured.err
        payload = json.loads(record.read_text())
        assert payload["command"] == "worker"
        assert payload["schema_version"] == 4
        assert payload["grid"]["queue_stats"]["pending"] == 0
        assert payload["grid"]["queue_stats"]["claimed"] == 0

        assert main(["queue", "stats", "--cache-dir",
                     str(tmp_path)]) == 0
        assert "done" in capsys.readouterr().out

    def test_fill_is_idempotent_via_cli(self, tmp_path, capsys):
        assert main(self._fill_args(tmp_path)) == 0
        capsys.readouterr()
        assert main(self._fill_args(tmp_path)) == 0
        assert "queued 0 cell(s)" in capsys.readouterr().out

    def test_worker_without_queue_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["worker", "--cache-dir", str(tmp_path)])
        assert "queue fill" in capsys.readouterr().err

    def test_stats_without_queue_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["queue", "stats", "--cache-dir", str(tmp_path)])
        assert "queue fill" in capsys.readouterr().err

    def test_fill_flags_rejected_on_stats(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["queue", "stats", "--cache-dir", str(tmp_path),
                  "--designs", "TC"])
        assert "queue fill" in capsys.readouterr().err

    def test_stale_flag_rejected_on_fill(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(self._fill_args(tmp_path) + ["--stale"])
        assert "requeue" in capsys.readouterr().err

    def test_mismatched_queue_path_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["queue", "fill", "--queue",
                  str(tmp_path / "wrong-name.db")])
        assert "fingerprint" in capsys.readouterr().err

    def test_cache_stats_shows_queue_line(self, tmp_path, capsys):
        assert main(self._fill_args(tmp_path)) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir",
                     str(tmp_path)]) == 0
        assert "queue in" in capsys.readouterr().out

    def test_requeue_via_cli(self, tmp_path, capsys, estimator):
        assert main(self._fill_args(tmp_path)) == 0
        capsys.readouterr()
        path = queue_db_path(tmp_path, estimator_fingerprint(estimator))
        with JobStore(path) as store:
            jobs = store.claim_batch("w", limit=1)
            store.fail("w", [jobs[0].digest], "boom")
        assert main(["queue", "requeue", "--cache-dir",
                     str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "requeued 1 failed cell(s)" in out
