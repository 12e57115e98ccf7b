"""Tests for the persistent (design, workload) evaluation cache."""

import json

import pytest

from repro.energy import Estimator
from repro.energy.tables import EnergyAreaTable
from repro.errors import CacheError
from repro.eval import codec
from repro.eval.cache import (
    COLUMNS_SCHEMA_VERSION,
    MISS,
    PersistentCache,
    cache_stats,
    clear_cache,
    estimator_fingerprint,
    merge_cache_dirs,
    pair_digest,
)
from repro.eval.engine import SweepEngine
from repro.model.workload import synthetic_workload


@pytest.fixture
def workload():
    return synthetic_workload(0.5, 0.25, size=128)


class TestFingerprint:
    def test_stable_across_instances(self):
        assert estimator_fingerprint(Estimator()) == (
            estimator_fingerprint(Estimator())
        )

    def test_sensitive_to_table_changes(self):
        default = estimator_fingerprint(Estimator())
        tweaked = estimator_fingerprint(
            Estimator(table=EnergyAreaTable(mac_pj=9.9))
        )
        assert default != tweaked

    def test_pair_digest_is_content_based(self, workload):
        relabeled = type(workload)(
            m=workload.m, k=workload.k, n=workload.n,
            a=workload.a, b=workload.b, name="other label",
        )
        assert pair_digest("TC", workload.key()) == pair_digest(
            "TC", relabeled.key()
        )
        assert pair_digest("TC", workload.key()) != pair_digest(
            "STC", workload.key()
        )


class TestPersistentCache:
    def test_round_trip(self, tmp_path, estimator, workload):
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        engine = SweepEngine(estimator)
        (metrics,) = engine.evaluate_workloads([("HighLight", workload)])
        cache.put("HighLight", workload.key(), metrics)
        cache.flush()
        reloaded = PersistentCache.for_estimator(tmp_path, estimator)
        assert len(reloaded) == 1
        cached = reloaded.get("HighLight", workload.key())
        assert cached is not MISS
        assert cached.edp == pytest.approx(metrics.edp)
        assert cached.cycles == pytest.approx(metrics.cycles)

    def test_none_is_a_first_class_entry(self, tmp_path, estimator,
                                         workload):
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        cache.put("S2TA", workload.key(), None)
        cache.flush()
        reloaded = PersistentCache.for_estimator(tmp_path, estimator)
        assert reloaded.get("S2TA", workload.key()) is None
        assert reloaded.get("S2TA", ("other",)) is MISS

    def test_flush_merges_with_concurrent_writer(self, tmp_path,
                                                 estimator, workload):
        first = PersistentCache.for_estimator(tmp_path, estimator)
        second = PersistentCache.for_estimator(tmp_path, estimator)
        first.put("TC", workload.key(), None)
        first.flush()
        second.put("STC", workload.key(), None)
        second.flush()
        reloaded = PersistentCache.for_estimator(tmp_path, estimator)
        assert reloaded.get("TC", workload.key()) is None
        assert reloaded.get("STC", workload.key()) is None

    def test_corrupt_file_treated_as_empty(self, tmp_path, estimator):
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        cache.path.parent.mkdir(parents=True, exist_ok=True)
        cache.path.write_text("{not json")
        assert len(PersistentCache.for_estimator(tmp_path,
                                                 estimator)) == 0

    def test_malformed_entries_treated_as_empty(self, tmp_path,
                                                estimator):
        """Valid JSON with a broken entry must not crash every
        subsequent run — the cache is best-effort."""
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        cache.path.parent.mkdir(parents=True, exist_ok=True)
        cache.path.write_text(json.dumps({
            "schema_version": COLUMNS_SCHEMA_VERSION,
            "fingerprint": cache.fingerprint,
            # One 40-byte entry that is not a v2 codec blob.
            "columns": codec.columns_from_raw({"a" * 64: b"x" * 40}),
        }))
        assert len(PersistentCache.for_estimator(tmp_path,
                                                 estimator)) == 0

    def test_different_fingerprints_are_isolated(self, tmp_path,
                                                 workload):
        default = Estimator()
        tweaked = Estimator(table=EnergyAreaTable(mac_pj=9.9))
        cache = PersistentCache.for_estimator(tmp_path, default)
        cache.put("TC", workload.key(), None)
        cache.flush()
        other = PersistentCache.for_estimator(tmp_path, tweaked)
        assert other.get("TC", workload.key()) is MISS


class TestEngineIntegration:
    def test_second_engine_served_entirely_from_disk(self, tmp_path):
        grid = dict(
            designs=("TC", "HighLight"),
            a_degrees=(0.0, 0.5), b_degrees=(0.0,),
            m=128, k=128, n=128,
        )
        cold_estimator = Estimator()
        cold = SweepEngine(
            cold_estimator,
            cache=PersistentCache.for_estimator(tmp_path, cold_estimator),
        )
        cold_sweep = cold.sweep(**grid)
        cold.flush()  # in-batch flushes are debounced
        assert cold.stats.misses > 0
        warm_estimator = Estimator()
        warm = SweepEngine(
            warm_estimator,
            cache=PersistentCache.for_estimator(tmp_path, warm_estimator),
        )
        warm_sweep = warm.sweep(**grid)
        assert warm.stats.misses == 0
        assert warm.stats.disk_hits > 0
        for cell in cold_sweep.cells:
            for design in grid["designs"]:
                ours = cold_sweep.cells[cell][design]
                theirs = warm_sweep.cells[cell][design]
                assert ours.edp == pytest.approx(theirs.edp)

    def test_cache_file_is_valid_json(self, tmp_path, workload):
        estimator = Estimator()
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        engine = SweepEngine(estimator, cache=cache)
        engine.evaluate_workloads([("HighLight", workload)])
        engine.flush()
        data = json.loads(cache.path.read_text())
        assert data["fingerprint"] == cache.fingerprint
        assert data["schema_version"] == COLUMNS_SCHEMA_VERSION
        assert len(data["columns"]["lengths"]) == 1


class TestMaintenance:
    def test_stats_and_clear(self, tmp_path, estimator, workload):
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        cache.put("TC", workload.key(), None)
        cache.flush()
        stats = cache_stats(tmp_path)
        assert stats["total_entries"] == 1
        assert len(stats["files"]) == 1
        assert clear_cache(tmp_path) == 1
        assert cache_stats(tmp_path)["total_entries"] == 0

    def test_clear_leaves_foreign_json_alone(self, tmp_path, estimator,
                                             workload):
        """Only <fingerprint>.json files are cache files; run records
        or other JSON sharing the directory must survive a clear."""
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        cache.put("TC", workload.key(), None)
        cache.flush()
        record = tmp_path / "run-record.json"
        record.write_text("{}")
        stats = cache_stats(tmp_path)
        assert stats["total_entries"] == 1
        assert len(stats["files"]) == 1
        assert clear_cache(tmp_path) == 1
        assert record.exists()

    def test_stats_on_missing_directory(self, tmp_path):
        stats = cache_stats(tmp_path / "nope")
        assert stats["files"] == []
        assert stats["total_entries"] == 0


class TestMergeCacheDirs:
    def _shard(self, directory, estimator, pairs):
        cache = PersistentCache.for_estimator(directory, estimator)
        engine = SweepEngine(estimator, cache=cache)
        engine.evaluate_workloads(pairs)
        return cache

    def test_union_of_shards(self, tmp_path, estimator):
        a = synthetic_workload(0.5, 0.0, size=128)
        b = synthetic_workload(0.75, 0.0, size=128)
        self._shard(tmp_path / "s1", estimator, [("HighLight", a)])
        self._shard(tmp_path / "s2", estimator, [("HighLight", b)])
        summary = merge_cache_dirs(
            [tmp_path / "s1", tmp_path / "s2"], tmp_path / "out"
        )
        assert summary["total_entries"] == 2
        assert summary["new_entries"] == 2
        assert summary["fingerprint"] == estimator_fingerprint(estimator)
        merged = PersistentCache.for_estimator(
            tmp_path / "out", estimator
        )
        assert merged.get("HighLight", a.key()) is not MISS
        assert merged.get("HighLight", b.key()) is not MISS

    def test_merge_is_idempotent(self, tmp_path, estimator, workload):
        self._shard(tmp_path / "s1", estimator, [("TC", workload)])
        merge_cache_dirs([tmp_path / "s1"], tmp_path / "out")
        again = merge_cache_dirs([tmp_path / "s1"], tmp_path / "out")
        assert again["new_entries"] == 0
        assert again["total_entries"] == 1

    def test_overlapping_shards_deduplicate(self, tmp_path, estimator,
                                            workload):
        self._shard(tmp_path / "s1", estimator, [("TC", workload)])
        self._shard(tmp_path / "s2", estimator, [("TC", workload)])
        summary = merge_cache_dirs(
            [tmp_path / "s1", tmp_path / "s2"], tmp_path / "out"
        )
        assert summary["total_entries"] == 1

    def test_mismatched_fingerprints_refused(self, tmp_path, workload):
        self._shard(tmp_path / "s1", Estimator(), [("TC", workload)])
        other = Estimator(table=EnergyAreaTable(mac_pj=9.9))
        self._shard(tmp_path / "s2", other, [("TC", workload)])
        with pytest.raises(CacheError, match="mismatched"):
            merge_cache_dirs(
                [tmp_path / "s1", tmp_path / "s2"], tmp_path / "out"
            )

    def test_empty_source_refused(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(CacheError, match="no cache files"):
            merge_cache_dirs([tmp_path / "empty"], tmp_path / "out")

    def test_corrupt_source_is_loud(self, tmp_path, estimator):
        shard = tmp_path / "s1"
        shard.mkdir()
        path = shard / f"{estimator_fingerprint(estimator)}.json"
        path.write_text("{not json")
        with pytest.raises(CacheError, match="cannot read"):
            merge_cache_dirs([shard], tmp_path / "out")
