"""Cross-backend cache suite: JSON and SQLite stores must agree.

Every semantic test here is parametrized over both storage backends —
get/put/flush/merge/stats behavior, cached-``None`` entries, concurrent
two-writer flushes — plus the backend-specific paths: ``auto``
resolution, in-place JSON-to-SQLite conversion through ``merge``,
corrupt-database recovery, legacy content (v1 TEXT rows, schema-1 JSON
files) handled as corruption, and the acceptance shape (``repro all --cache-backend sqlite`` twice
performs zero evaluations on the warm run).
"""

import json
import sqlite3

import pytest

from repro.energy import Estimator
from repro.energy.tables import EnergyAreaTable
from repro.errors import CacheError
from repro.eval import cache as cache_mod
from repro.eval import codec
from repro.eval.artifacts import ARTIFACTS, compute_artifacts
from repro.eval.cache import (
    CACHE_SCHEMA_VERSION,
    COLUMNS_SCHEMA_VERSION,
    MISS,
    JsonCacheStore,
    PersistentCache,
    SqliteCacheStore,
    cache_stats,
    clear_cache,
    estimator_fingerprint,
    merge_cache_dirs,
    resolve_backend,
)
from repro.eval.engine import EngineContext, SweepEngine
from repro.model.workload import synthetic_workload

BACKENDS = ("json", "sqlite")

SUFFIX = {"json": ".json", "sqlite": ".db"}


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture
def workload():
    return synthetic_workload(0.5, 0.25, size=128)


@pytest.fixture
def metrics(estimator, workload):
    engine = SweepEngine(estimator)
    (result,) = engine.evaluate_workloads([("HighLight", workload)])
    return result


def _shard(directory, estimator, pairs, backend="json"):
    cache = PersistentCache.for_estimator(
        directory, estimator, backend=backend
    )
    engine = SweepEngine(estimator, cache=cache)
    engine.evaluate_workloads(pairs)
    engine.close()
    return cache


class TestStoreSemantics:
    def test_backend_and_suffix_resolved(self, tmp_path, estimator,
                                         backend):
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend=backend
        )
        assert cache.backend == backend
        assert cache.path.suffix == SUFFIX[backend]

    def test_round_trip(self, tmp_path, estimator, workload, metrics,
                        backend):
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend=backend
        )
        cache.put("HighLight", workload.key(), metrics)
        cache.flush()
        reloaded = PersistentCache.for_estimator(
            tmp_path, estimator, backend=backend
        )
        assert len(reloaded) == 1
        cached = reloaded.get("HighLight", workload.key())
        assert cached is not MISS
        assert cached.edp == pytest.approx(metrics.edp)
        assert cached.cycles == pytest.approx(metrics.cycles)

    def test_none_is_a_first_class_entry(self, tmp_path, estimator,
                                         workload, backend):
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend=backend
        )
        cache.put("S2TA", workload.key(), None)
        cache.flush()
        reloaded = PersistentCache.for_estimator(
            tmp_path, estimator, backend=backend
        )
        assert reloaded.get("S2TA", workload.key()) is None
        assert reloaded.get("S2TA", ("other",)) is MISS

    def test_two_concurrent_writers_union_on_disk(self, tmp_path,
                                                  estimator, workload,
                                                  backend):
        first = PersistentCache.for_estimator(
            tmp_path, estimator, backend=backend
        )
        second = PersistentCache.for_estimator(
            tmp_path, estimator, backend=backend
        )
        first.put("TC", workload.key(), None)
        first.flush()
        second.put("STC", workload.key(), None)
        second.flush()
        first.close()
        second.close()
        reloaded = PersistentCache.for_estimator(
            tmp_path, estimator, backend=backend
        )
        assert reloaded.get("TC", workload.key()) is None
        assert reloaded.get("STC", workload.key()) is None

    def test_flush_without_dirty_entries_writes_nothing(self, tmp_path,
                                                        estimator,
                                                        backend):
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend=backend
        )
        cache.flush()
        assert not cache.path.exists()

    def test_different_fingerprints_are_isolated(self, tmp_path,
                                                 workload, backend):
        default = Estimator()
        tweaked = Estimator(table=EnergyAreaTable(mac_pj=9.9))
        cache = PersistentCache.for_estimator(
            tmp_path, default, backend=backend
        )
        cache.put("TC", workload.key(), None)
        cache.flush()
        other = PersistentCache.for_estimator(
            tmp_path, tweaked, backend=backend
        )
        assert other.get("TC", workload.key()) is MISS

    def test_closed_cache_stays_usable(self, tmp_path, estimator,
                                       workload, backend):
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend=backend
        )
        cache.put("TC", workload.key(), None)
        cache.close()
        cache.put("STC", workload.key(), None)
        cache.flush()
        reloaded = PersistentCache.for_estimator(
            tmp_path, estimator, backend=backend
        )
        assert len(reloaded) == 2

    def test_backends_agree_on_cached_values(self, tmp_path, estimator,
                                             workload, metrics):
        for name in BACKENDS:
            cache = PersistentCache.for_estimator(
                tmp_path / name, estimator, backend=name
            )
            cache.put("HighLight", workload.key(), metrics)
            cache.put("S2TA", workload.key(), None)
            cache.flush()
        via_json = PersistentCache.for_estimator(
            tmp_path / "json", estimator, backend="json"
        )
        via_sqlite = PersistentCache.for_estimator(
            tmp_path / "sqlite", estimator, backend="sqlite"
        )
        a = via_json.get("HighLight", workload.key())
        b = via_sqlite.get("HighLight", workload.key())
        assert a.edp == pytest.approx(b.edp)
        assert a.energy_pj == pytest.approx(b.energy_pj)
        assert via_json.get("S2TA", workload.key()) is None
        assert via_sqlite.get("S2TA", workload.key()) is None


class TestAutoResolution:
    def test_fresh_directory_defaults_to_json(self, tmp_path):
        assert resolve_backend(tmp_path, "0" * 16, "auto") == "json"

    def test_existing_db_wins(self, tmp_path, estimator, workload):
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend="sqlite"
        )
        cache.put("TC", workload.key(), None)
        cache.flush()
        cache.close()
        auto = PersistentCache.for_estimator(tmp_path, estimator)
        assert auto.backend == "sqlite"
        assert auto.get("TC", workload.key()) is None

    def test_large_json_upgrades_to_sqlite(self, tmp_path, estimator,
                                           workload, monkeypatch):
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend="json"
        )
        cache.put("TC", workload.key(), None)
        cache.flush()
        monkeypatch.setattr(cache_mod, "AUTO_SQLITE_SIZE_BYTES", 1)
        auto = PersistentCache.for_estimator(tmp_path, estimator)
        assert auto.backend == "sqlite"
        # The legacy JSON entries seed the upgraded store, so the
        # switchover never goes cold ...
        assert auto.get("TC", workload.key()) is None
        auto.close()
        # ... the import is durable, and the JSON file is retired so
        # stats never double-count and no run re-parses it.
        assert not cache.path.exists()
        stats = cache_stats(tmp_path)
        assert stats["total_entries"] == 1
        again = PersistentCache.for_estimator(tmp_path, estimator)
        assert again.backend == "sqlite"
        assert again.get("TC", workload.key()) is None

    def test_json_entries_beside_a_database_are_folded_in(
        self, tmp_path, estimator
    ):
        """Mixed-backend usage must not shadow entries: a json-backend
        writer landing entries next to an existing database gets them
        imported (database rows win) and the JSON retired, so stats
        never double-count."""
        a = synthetic_workload(0.5, 0.0, size=128)
        b = synthetic_workload(0.75, 0.0, size=128)
        sq = PersistentCache.for_estimator(
            tmp_path, estimator, backend="sqlite"
        )
        sq.put("TC", a.key(), None)
        sq.flush()
        sq.close()
        js = PersistentCache.for_estimator(
            tmp_path, estimator, backend="json"
        )
        js.put("TC", b.key(), None)
        js.flush()
        auto = PersistentCache.for_estimator(tmp_path, estimator)
        assert auto.backend == "sqlite"
        assert auto.get("TC", a.key()) is None
        assert auto.get("TC", b.key()) is None
        auto.close()
        assert not js.path.exists()
        stats = cache_stats(tmp_path)
        assert len(stats["files"]) == 1
        assert stats["total_entries"] == 2

    def test_unknown_backend_rejected(self, tmp_path, estimator):
        with pytest.raises(CacheError, match="unknown cache backend"):
            PersistentCache.for_estimator(
                tmp_path, estimator, backend="shelve"
            )
        with pytest.raises(CacheError, match="unknown cache backend"):
            merge_cache_dirs([tmp_path], tmp_path, backend="shelve")


class TestMaintenanceAcrossBackends:
    def test_stats_and_clear(self, tmp_path, estimator, workload,
                             backend):
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend=backend
        )
        cache.put("TC", workload.key(), None)
        cache.flush()
        cache.close()
        stats = cache_stats(tmp_path)
        assert stats["total_entries"] == 1
        assert len(stats["files"]) == 1
        assert stats["files"][0]["backend"] == backend
        assert clear_cache(tmp_path) == 1
        assert cache_stats(tmp_path)["total_entries"] == 0

    def test_stats_and_clear_cover_rotated_databases(self, tmp_path,
                                                     estimator,
                                                     workload):
        """Databases set aside by flush recovery occupy real space:
        stats must show them and clear must reclaim them."""
        fingerprint = estimator_fingerprint(estimator)
        (tmp_path / f"{fingerprint}.db").write_text("garbage")
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend="sqlite"
        )
        cache.put("TC", workload.key(), None)
        cache.flush()
        cache.close()
        rotated = tmp_path / f"{fingerprint}.db.corrupt"
        assert rotated.exists()
        stats = cache_stats(tmp_path)
        assert rotated.name in [f["file"] for f in stats["files"]]
        by_name = {f["file"]: f for f in stats["files"]}
        assert by_name[rotated.name]["backend"] == "rotated"
        assert stats["total_entries"] == 1  # usable entries only
        assert clear_cache(tmp_path) == 1
        assert not rotated.exists()
        assert not any(tmp_path.iterdir())

    def test_clear_removes_wal_sidecars(self, tmp_path, estimator,
                                        workload):
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend="sqlite"
        )
        cache.put("TC", workload.key(), None)
        cache.flush()
        # The connection is still open, so the WAL sidecars exist.
        wal = cache.path.with_name(cache.path.name + "-wal")
        assert wal.exists()
        assert clear_cache(tmp_path) == 1
        assert not wal.exists()
        assert not any(tmp_path.iterdir())

    def test_special_characters_in_cache_dir(self, tmp_path, estimator,
                                             workload):
        """Read-only SQLite opens go through a percent-encoded URI, so
        cache directories containing '#', '%', or spaces still work
        for stats/merge (the write path uses plain connects)."""
        directory = tmp_path / "run #1, 50% sparse"
        _shard(directory, estimator, [("TC", workload)], "sqlite")
        stats = cache_stats(directory)
        assert stats["total_entries"] == 1
        summary = merge_cache_dirs([directory], tmp_path / "out")
        assert summary["total_entries"] == 1

    def test_stats_mixed_directory(self, tmp_path, workload):
        default = Estimator()
        tweaked = Estimator(table=EnergyAreaTable(mac_pj=9.9))
        for est, backend in ((default, "json"), (tweaked, "sqlite")):
            cache = PersistentCache.for_estimator(
                tmp_path, est, backend=backend
            )
            cache.put("TC", workload.key(), None)
            cache.flush()
            cache.close()
        stats = cache_stats(tmp_path)
        assert stats["total_entries"] == 2
        assert sorted(f["backend"] for f in stats["files"]) == [
            "json", "sqlite"
        ]


class TestMergeAcrossBackends:
    def test_same_backend_shards(self, tmp_path, estimator, backend):
        a = synthetic_workload(0.5, 0.0, size=128)
        b = synthetic_workload(0.75, 0.0, size=128)
        _shard(tmp_path / "s1", estimator, [("HighLight", a)], backend)
        _shard(tmp_path / "s2", estimator, [("HighLight", b)], backend)
        summary = merge_cache_dirs(
            [tmp_path / "s1", tmp_path / "s2"], tmp_path / "out",
            backend=backend,
        )
        assert summary["total_entries"] == 2
        assert summary["backend"] == backend
        merged = PersistentCache.for_estimator(
            tmp_path / "out", estimator
        )
        assert merged.backend == backend
        assert merged.get("HighLight", a.key()) is not MISS
        assert merged.get("HighLight", b.key()) is not MISS

    def test_mixed_format_shards(self, tmp_path, estimator):
        a = synthetic_workload(0.5, 0.0, size=128)
        b = synthetic_workload(0.75, 0.0, size=128)
        _shard(tmp_path / "s1", estimator, [("HighLight", a)], "json")
        _shard(tmp_path / "s2", estimator, [("HighLight", b)], "sqlite")
        summary = merge_cache_dirs(
            [tmp_path / "s1", tmp_path / "s2"], tmp_path / "out"
        )
        assert summary["total_entries"] == 2
        merged = PersistentCache.for_estimator(
            tmp_path / "out", estimator
        )
        assert merged.get("HighLight", a.key()) is not MISS
        assert merged.get("HighLight", b.key()) is not MISS

    def test_auto_dest_keeps_existing_format(self, tmp_path, estimator,
                                             workload):
        _shard(tmp_path / "s1", estimator, [("TC", workload)], "json")
        _shard(tmp_path / "out", estimator, [("STC", workload)],
               "sqlite")
        summary = merge_cache_dirs(
            [tmp_path / "s1"], tmp_path / "out"
        )
        assert summary["backend"] == "sqlite"
        assert summary["total_entries"] == 2
        assert summary["new_entries"] == 1

    def test_merge_consolidates_dual_format_dest(self, tmp_path,
                                                 estimator, workload):
        """A dest directory holding both formats of one fingerprint
        (the auto-upgrade flow) collapses into a single file."""
        other = synthetic_workload(0.75, 0.0, size=128)
        _shard(tmp_path / "out", estimator, [("TC", workload)], "json")
        _shard(tmp_path / "out", estimator, [("STC", workload)],
               "sqlite")
        _shard(tmp_path / "s1", estimator, [("HighLight", other)],
               "json")
        summary = merge_cache_dirs(
            [tmp_path / "s1"], tmp_path / "out", backend="sqlite"
        )
        assert summary["total_entries"] >= 3
        fingerprint = estimator_fingerprint(estimator)
        assert not (tmp_path / "out" / f"{fingerprint}.json").exists()
        merged = PersistentCache.for_estimator(
            tmp_path / "out", estimator
        )
        assert merged.backend == "sqlite"
        assert merged.get("TC", workload.key()) is not MISS
        assert merged.get("STC", workload.key()) is not MISS
        assert merged.get("HighLight", other.key()) is not MISS

    def test_merge_is_idempotent(self, tmp_path, estimator, workload,
                                 backend):
        _shard(tmp_path / "s1", estimator, [("TC", workload)], backend)
        merge_cache_dirs([tmp_path / "s1"], tmp_path / "out",
                         backend=backend)
        again = merge_cache_dirs([tmp_path / "s1"], tmp_path / "out",
                                 backend=backend)
        assert again["new_entries"] == 0
        assert again["total_entries"] == 1

    def test_mismatched_fingerprints_refused(self, tmp_path, workload,
                                             backend):
        _shard(tmp_path / "s1", Estimator(), [("TC", workload)],
               backend)
        other = Estimator(table=EnergyAreaTable(mac_pj=9.9))
        _shard(tmp_path / "s2", other, [("TC", workload)], backend)
        with pytest.raises(CacheError, match="mismatched"):
            merge_cache_dirs(
                [tmp_path / "s1", tmp_path / "s2"], tmp_path / "out"
            )


class TestMigrate:
    """Migrating a JSON cache to SQLite in place is a merge of the
    directory into itself: ``repro cache merge DIR --cache-dir DIR
    --cache-backend sqlite``."""

    def test_json_converted_in_place(self, tmp_path, estimator,
                                     workload, metrics):
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend="json"
        )
        cache.put("HighLight", workload.key(), metrics)
        cache.put("S2TA", workload.key(), None)
        cache.flush()
        json_path = cache.path
        raw = cache_mod._read_raw_entries(json_path)
        summary = merge_cache_dirs([tmp_path], tmp_path,
                                   backend="sqlite")
        assert summary["total_entries"] == 2
        assert summary["new_entries"] == 0
        (db_path,) = cache_mod.cache_files(tmp_path)
        assert db_path == json_path.with_suffix(".db")
        assert cache_mod._read_raw_entries(db_path) == raw
        migrated = PersistentCache.for_estimator(tmp_path, estimator)
        assert migrated.backend == "sqlite"
        assert migrated.get("HighLight", workload.key()) == metrics
        assert migrated.get("S2TA", workload.key()) is None

    def test_migrate_folds_into_existing_db(self, tmp_path, estimator,
                                            workload):
        other = synthetic_workload(0.75, 0.0, size=128)
        _shard(tmp_path, estimator, [("TC", workload)], "sqlite")
        _shard(tmp_path, estimator, [("STC", other)], "json")
        merge_cache_dirs([tmp_path], tmp_path, backend="sqlite")
        assert [p.suffix for p in cache_mod.cache_files(tmp_path)] == [
            ".db"
        ]
        merged = PersistentCache.for_estimator(tmp_path, estimator)
        assert merged.backend == "sqlite"
        assert merged.get("TC", workload.key()) is not MISS
        assert merged.get("STC", other.key()) is not MISS

    def test_migrate_is_loud_on_corrupt_json(self, tmp_path):
        (tmp_path / f"{'0' * 16}.json").write_text("{not json")
        with pytest.raises(CacheError, match="cannot read"):
            merge_cache_dirs([tmp_path], tmp_path, backend="sqlite")

    def test_migrate_refuses_unusable_destination_db(self, tmp_path,
                                                     estimator,
                                                     workload):
        """Folding JSON entries into a corrupt destination database and
        then deleting the JSON would lose them: the destination must be
        validated as loudly as the source, before anything is deleted."""
        _shard(tmp_path, estimator, [("TC", workload)], "json")
        fingerprint = estimator_fingerprint(estimator)
        json_path = tmp_path / f"{fingerprint}.json"
        (tmp_path / f"{fingerprint}.db").write_text("not a database")
        with pytest.raises(CacheError, match="cannot read"):
            merge_cache_dirs([tmp_path], tmp_path, backend="sqlite")
        assert json_path.exists()  # nothing deleted


class TestRawValidation:
    """The loud merge reader must refuse unidentified files (a missing
    fingerprint field used to pass the mismatch check)."""

    def test_json_missing_fingerprint_field_refused(self, tmp_path):
        shard = tmp_path / "s1"
        shard.mkdir()
        (shard / f"{'0' * 16}.json").write_text(json.dumps({
            "schema_version": COLUMNS_SCHEMA_VERSION,
            "columns": codec.columns_from_raw({}),
        }))
        with pytest.raises(CacheError, match="missing the fingerprint"):
            merge_cache_dirs([shard], tmp_path / "out")

    def test_sqlite_missing_fingerprint_field_refused(self, tmp_path):
        shard = tmp_path / "s1"
        shard.mkdir()
        path = shard / f"{'0' * 16}.db"
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        conn.execute(
            "CREATE TABLE entries (digest TEXT PRIMARY KEY, "
            "metrics TEXT)"
        )
        conn.execute(
            "INSERT INTO meta VALUES ('schema_version', ?)",
            (str(CACHE_SCHEMA_VERSION),),
        )
        conn.commit()
        conn.close()
        with pytest.raises(CacheError, match="missing the fingerprint"):
            merge_cache_dirs([shard], tmp_path / "out")

    def test_wrong_fingerprint_still_refused(self, tmp_path):
        shard = tmp_path / "s1"
        shard.mkdir()
        (shard / f"{'0' * 16}.json").write_text(json.dumps({
            "schema_version": COLUMNS_SCHEMA_VERSION,
            "fingerprint": "f" * 16,
            "columns": codec.columns_from_raw({}),
        }))
        with pytest.raises(CacheError, match="records fingerprint"):
            merge_cache_dirs([shard], tmp_path / "out")

    def test_corrupt_sqlite_source_is_loud(self, tmp_path):
        shard = tmp_path / "s1"
        shard.mkdir()
        (shard / f"{'0' * 16}.db").write_text("not a database")
        with pytest.raises(CacheError, match="cannot read"):
            merge_cache_dirs([shard], tmp_path / "out")


class TestCorruptionRecovery:
    def test_corrupt_db_reads_as_empty(self, tmp_path, estimator):
        fingerprint = estimator_fingerprint(estimator)
        (tmp_path / f"{fingerprint}.db").write_text("garbage")
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend="sqlite"
        )
        assert len(cache) == 0

    def test_flush_recovers_from_corrupt_db(self, tmp_path, estimator,
                                            workload):
        """Parity with the JSON store, where a torn file is simply
        overwritten on the next flush: a corrupt database is set aside
        and rebuilt rather than crashing the run."""
        fingerprint = estimator_fingerprint(estimator)
        (tmp_path / f"{fingerprint}.db").write_text("garbage")
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend="sqlite"
        )
        cache.put("TC", workload.key(), None)
        cache.flush()
        reloaded = PersistentCache.for_estimator(
            tmp_path, estimator, backend="sqlite"
        )
        assert reloaded.get("TC", workload.key()) is None
        assert (tmp_path / f"{fingerprint}.db.corrupt").exists()

    def test_transient_errors_never_rotate_the_db(self, tmp_path,
                                                  estimator, workload,
                                                  monkeypatch):
        """Lock contention or a full disk is not corruption: the
        database (possibly held by a concurrent writer) must stay in
        place and the error must propagate."""
        from repro.eval.cache import SqliteCacheStore

        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend="sqlite"
        )
        cache.put("TC", workload.key(), None)
        cache.flush()
        cache.close()
        db_path = cache.path

        def locked(self, dirty):
            raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr(SqliteCacheStore, "_upsert", locked)
        writer = PersistentCache.for_estimator(
            tmp_path, estimator, backend="sqlite"
        )
        writer.put("STC", workload.key(), None)
        with pytest.raises(sqlite3.OperationalError):
            writer.flush()
        assert db_path.exists()
        assert not list(tmp_path.glob("*.corrupt"))

    def test_stale_schema_db_rebuilt_on_flush(self, tmp_path,
                                              estimator, workload):
        """A database from a different schema version reads as empty
        (best-effort) and is rotated aside and rebuilt at the current
        schema on flush — never silently mixed into."""
        fingerprint = estimator_fingerprint(estimator)
        path = tmp_path / f"{fingerprint}.db"
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE meta (key TEXT PRIMARY KEY, "
            "value TEXT NOT NULL)"
        )
        conn.execute(
            "CREATE TABLE entries (digest TEXT PRIMARY KEY, "
            "metrics TEXT)"
        )
        conn.execute(
            "INSERT INTO meta VALUES ('schema_version', '9999'), "
            "('fingerprint', ?)", (fingerprint,),
        )
        conn.execute("INSERT INTO entries VALUES ('future', 'null')")
        conn.commit()
        conn.close()
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend="sqlite"
        )
        assert len(cache) == 0
        cache.put("TC", workload.key(), None)
        cache.flush()
        cache.close()
        assert (tmp_path / f"{fingerprint}.db.stale").exists()
        reloaded = PersistentCache.for_estimator(
            tmp_path, estimator, backend="sqlite"
        )
        assert reloaded.get("TC", workload.key()) is None
        assert len(reloaded) == 1


    def test_poisoned_row_triggers_rebuild_on_flush(self, tmp_path,
                                                    estimator,
                                                    workload):
        """One undecodable row must not leave a permanently cold,
        never-healing cache: load reads empty (best-effort) and the
        next flush rotates and rebuilds, like any other corruption."""
        fingerprint = estimator_fingerprint(estimator)
        path = tmp_path / f"{fingerprint}.db"
        from repro.eval.cache import _sqlite_connect_rw

        conn = _sqlite_connect_rw(path, fingerprint)
        conn.execute(
            "INSERT INTO entries VALUES ('aaaaaaaa', '{\"bad\": 1}')"
        )
        conn.commit()
        conn.close()
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend="sqlite"
        )
        assert len(cache) == 0
        cache.put("TC", workload.key(), None)
        cache.flush()
        cache.close()
        assert (tmp_path / f"{fingerprint}.db.corrupt").exists()
        reloaded = PersistentCache.for_estimator(
            tmp_path, estimator, backend="sqlite"
        )
        assert len(reloaded) == 1
        assert reloaded.get("TC", workload.key()) is None

    def test_cache_close_releases_store_when_flush_fails(self, tmp_path,
                                                         estimator,
                                                         workload):
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend="sqlite"
        )
        cache.put("TC", workload.key(), None)
        cache.flush()
        assert cache.store._conn is not None
        cache.put("STC", workload.key(), None)

        def failing_flush(entries, dirty):
            raise sqlite3.OperationalError("disk I/O error")

        cache.store.flush = failing_flush
        with pytest.raises(sqlite3.OperationalError):
            cache.close()
        assert cache.store._conn is None


class TestEngineIntegration:
    def test_warm_engine_served_entirely_from_disk(self, tmp_path,
                                                   backend):
        grid = dict(
            designs=("TC", "HighLight"),
            a_degrees=(0.0, 0.5), b_degrees=(0.0,),
            m=128, k=128, n=128,
        )
        cold_estimator = Estimator()
        cold = SweepEngine(
            cold_estimator,
            cache=PersistentCache.for_estimator(
                tmp_path, cold_estimator, backend=backend
            ),
        )
        cold_sweep = cold.sweep(**grid)
        assert cold.stats.misses > 0
        cold.close()
        warm_estimator = Estimator()
        warm = SweepEngine(
            warm_estimator,
            cache=PersistentCache.for_estimator(
                tmp_path, warm_estimator, backend=backend
            ),
        )
        warm_sweep = warm.sweep(**grid)
        assert warm.stats.misses == 0
        assert warm.stats.disk_hits > 0
        warm.close()
        for cell in cold_sweep.cells:
            for design in grid["designs"]:
                ours = cold_sweep.cells[cell][design]
                theirs = warm_sweep.cells[cell][design]
                assert ours.edp == pytest.approx(theirs.edp)

    def test_repro_all_sqlite_warm_cache_evaluates_nothing(
        self, tmp_path
    ):
        """The acceptance shape: ``repro all --cache-dir D
        --cache-backend sqlite`` run twice performs zero evaluations
        the second time, with identical payloads."""
        cache_dir = str(tmp_path / "cache")
        cold = EngineContext.create(
            cache_dir=cache_dir, cache_backend="sqlite"
        )
        cold_results = compute_artifacts(list(ARTIFACTS), cold)
        assert cold.cache_backend == "sqlite"
        assert cold.engine.stats.evaluations > 0
        cold.engine.close()

        warm = EngineContext.create(
            cache_dir=cache_dir, cache_backend="sqlite"
        )
        warm_results = compute_artifacts(list(ARTIFACTS), warm)
        assert warm.engine.stats.evaluations == 0
        assert warm.engine.stats.misses == 0
        assert warm.engine.stats.disk_hits > 0
        warm.engine.close()
        for name in ARTIFACTS:
            assert (
                warm_results[name].to_payload()
                == cold_results[name].to_payload()
            )


class TestStoreClasses:
    def test_store_classes_exported(self):
        assert JsonCacheStore.backend == "json"
        assert SqliteCacheStore.backend == "sqlite"
        assert JsonCacheStore.suffix == ".json"
        assert SqliteCacheStore.suffix == ".db"


class TestBulkAccess:
    """get_many/put_many: the engine's bulk cache interface."""

    def test_get_many_mixes_hits_and_misses_in_order(
        self, tmp_path, estimator, workload, metrics, backend
    ):
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend=backend
        )
        cache.put("HighLight", workload.key(), metrics)
        cache.put("S2TA", workload.key(), None)
        results = cache.get_many(
            [
                ("HighLight", workload.key()),
                ("TC", workload.key()),
                ("S2TA", workload.key()),
            ]
        )
        assert results[0] is metrics
        assert results[1] is MISS
        assert results[2] is None

    def test_get_many_probes_store_for_unknown_digests(
        self, tmp_path, estimator, workload, metrics, backend
    ):
        """Entries another process flushed after our load must be
        found by the bulk probe (and not re-marked dirty)."""
        writer = PersistentCache.for_estimator(
            tmp_path, estimator, backend=backend
        )
        reader = PersistentCache.for_estimator(
            tmp_path, estimator, backend=backend
        )
        writer.put("HighLight", workload.key(), metrics)
        writer.flush()
        if backend == "json":
            # The JSON store reads whole files at load; a live probe
            # only sees what this instance already has in memory.
            (result,) = reader.get_many([("HighLight", workload.key())])
            assert result is MISS
        else:
            (result,) = reader.get_many([("HighLight", workload.key())])
            assert result is not MISS
            assert result.cycles == metrics.cycles
            # The probed entry is already on disk: closing the reader
            # must not rewrite it.
            reader.close()

    def test_put_many_equals_repeated_put(
        self, tmp_path, estimator, workload, metrics, backend
    ):
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend=backend
        )
        cache.put_many(
            [
                ("HighLight", workload.key(), metrics),
                ("S2TA", workload.key(), None),
            ]
        )
        cache.flush()
        reloaded = PersistentCache.for_estimator(
            tmp_path, estimator, backend=backend
        )
        assert len(reloaded) == 2
        assert reloaded.get("S2TA", workload.key()) is None


class TestDebouncedFlush:
    def test_maybe_flush_defers_within_interval(
        self, tmp_path, estimator, workload, backend
    ):
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend=backend
        )
        cache.put("TC", workload.key(), None)
        assert cache.maybe_flush(3600.0) is False
        assert not cache.path.exists()
        assert cache.maybe_flush(0.0) is True
        assert cache.path.exists()
        # Nothing dirty anymore: even an expired interval is a no-op.
        assert cache.maybe_flush(0.0) is False

    def test_close_persists_what_maybe_flush_deferred(
        self, tmp_path, estimator, workload, backend
    ):
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend=backend
        )
        cache.put("TC", workload.key(), None)
        assert cache.maybe_flush(3600.0) is False
        cache.close()
        reloaded = PersistentCache.for_estimator(
            tmp_path, estimator, backend=backend
        )
        assert reloaded.get("TC", workload.key()) is None


class TestJsonIncrementalEncoding:
    """The JSON store caches encoded entry runs across flushes; the
    assembled file must stay byte-identical to a canonical
    ``json.dumps`` of its payload through appends and overwrites."""

    def _assert_canonical(self, cache):
        text = cache.path.read_text()
        assert text == json.dumps(json.loads(text))

    def test_file_stays_canonical_across_flushes(
        self, tmp_path, estimator, workload, metrics
    ):
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend="json"
        )
        cache.put("HighLight", workload.key(), metrics)
        cache.flush()
        self._assert_canonical(cache)
        cache.put("TC", workload.key(), None)
        cache.flush()
        self._assert_canonical(cache)
        # Overwrite an entry from the first flush's encoded run.
        cache.put("HighLight", workload.key(), None)
        cache.flush()
        self._assert_canonical(cache)
        reloaded = PersistentCache.for_estimator(
            tmp_path, estimator, backend="json"
        )
        assert reloaded.get("HighLight", workload.key()) is None
        assert reloaded.get("TC", workload.key()) is None

    def test_foreign_writes_merge_canonically(
        self, tmp_path, estimator, workload, metrics
    ):
        ours = PersistentCache.for_estimator(
            tmp_path, estimator, backend="json"
        )
        theirs = PersistentCache.for_estimator(
            tmp_path, estimator, backend="json"
        )
        ours.put("HighLight", workload.key(), metrics)
        ours.flush()
        theirs.put("TC", workload.key(), None)
        theirs.flush()
        ours.put("S2TA", workload.key(), None)
        ours.flush()
        self._assert_canonical(ours)
        reloaded = PersistentCache.for_estimator(
            tmp_path, estimator, backend="json"
        )
        assert len(reloaded) == 3


class TestColumnarAndLegacyFiles:
    """The JSON store reads and writes only columnar schema-2 files. A
    schema-1 file (per-entry dicts: v1 tagged dicts or base64 blob
    strings) is corrupt content: it reads as empty at runtime, is
    rewritten columnar on the next flush, and merge refuses it. Both
    backends must hold byte-identical codec payloads for the same
    entries."""

    def _legacy_file(self, tmp_path, estimator, workload, metrics):
        import base64

        from repro.serialization import metrics_to_dict

        fingerprint = estimator_fingerprint(estimator)
        tmp_path.mkdir(parents=True, exist_ok=True)
        path = tmp_path / f"{fingerprint}.json"
        entries = {
            cache_mod.pair_digest("HighLight", workload.key()):
                metrics_to_dict(metrics),
            cache_mod.pair_digest("TC", workload.key()):
                base64.b64encode(codec.encode_metrics(metrics)).decode(),
            cache_mod.pair_digest("S2TA", workload.key()): None,
        }
        path.write_text(json.dumps({
            "schema_version": 1,
            "fingerprint": fingerprint,
            "entries": entries,
        }))
        return path

    def test_schema1_file_reads_as_miss_at_runtime(
        self, tmp_path, estimator, workload, metrics
    ):
        self._legacy_file(tmp_path, estimator, workload, metrics)
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend="json"
        )
        assert len(cache) == 0
        for design in ("HighLight", "TC", "S2TA"):
            assert cache.get(design, workload.key()) is MISS

    def test_schema1_file_rewrites_columnar_on_flush(
        self, tmp_path, estimator, workload, metrics
    ):
        path = self._legacy_file(tmp_path, estimator, workload, metrics)
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend="json"
        )
        other = synthetic_workload(0.75, 0.0, size=64)
        cache.put("DSTC", other.key(), metrics)
        cache.flush()
        data = json.loads(path.read_text())
        assert data["schema_version"] == COLUMNS_SCHEMA_VERSION
        assert data["columns"] == codec.columns_from_raw(
            {cache_mod.pair_digest("DSTC", other.key()):
                codec.encode_metrics(metrics)}
        )

    def test_schema1_file_refused_by_merge(
        self, tmp_path, estimator, workload, metrics
    ):
        self._legacy_file(tmp_path / "src", estimator, workload, metrics)
        with pytest.raises(CacheError, match="has cache schema 1"):
            merge_cache_dirs([tmp_path / "src"], tmp_path / "dest")
        assert not (tmp_path / "dest").exists()

    def test_corrupt_columns_read_empty_at_runtime_loud_on_merge(
        self, tmp_path, estimator, workload, metrics
    ):
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend="json"
        )
        cache.put("HighLight", workload.key(), metrics)
        cache.flush()
        data = json.loads(cache.path.read_text())
        data["columns"]["lengths"][0] += 7
        cache.path.write_text(json.dumps(data))
        runtime = PersistentCache.for_estimator(
            tmp_path, estimator, backend="json"
        )
        assert runtime.get("HighLight", workload.key()) is MISS
        with pytest.raises(CacheError, match="cannot read"):
            merge_cache_dirs([tmp_path], tmp_path / "dest")

    def test_stats_count_columnar_entries(
        self, tmp_path, estimator, workload, metrics
    ):
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend="json"
        )
        cache.put("HighLight", workload.key(), metrics)
        cache.put("TC", workload.key(), None)
        cache.flush()
        record = cache_stats(tmp_path)
        assert record["total_entries"] == 2
        (per_file,) = record["files"]
        assert per_file["entries"] == 2

    def test_backends_hold_identical_raw_payloads(
        self, tmp_path, estimator, workload, metrics
    ):
        """Payload equality through the codec: the raw blob stored for
        a digest must be the same bytes in a JSON file and a SQLite
        database."""
        for name in BACKENDS:
            cache = PersistentCache.for_estimator(
                tmp_path / name, estimator, backend=name
            )
            cache.put("HighLight", workload.key(), metrics)
            cache.put("S2TA", workload.key(), None)
            cache.flush()
        raw = {
            name: cache_mod._read_raw_entries(
                cache_mod.cache_files(tmp_path / name)[0]
            )
            for name in BACKENDS
        }
        assert raw["json"] == raw["sqlite"]
        assert any(blob is None for blob in raw["json"].values())

    def _v1_text_row(self, tmp_path, estimator, workload, metrics):
        """A database whose one entry is a v1 JSON TEXT row."""
        from repro.serialization import metrics_to_dict

        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend="sqlite"
        )
        cache.put("HighLight", workload.key(), metrics)
        cache.close()
        with sqlite3.connect(cache.path) as conn:
            conn.execute(
                "UPDATE entries SET metrics = ?",
                (json.dumps(metrics_to_dict(metrics)),),
            )
        conn.close()
        return cache.path

    def test_v1_text_row_reads_as_miss_and_rotates_on_flush(
        self, tmp_path, estimator, workload, metrics
    ):
        path = self._v1_text_row(tmp_path, estimator, workload, metrics)
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        assert cache.backend == "sqlite"
        assert cache.get("HighLight", workload.key()) is MISS
        cache.put("TC", workload.key(), None)
        cache.close()
        rotated = path.with_name(path.name + ".corrupt")
        assert rotated.exists()
        by_name = {f["file"]: f for f in cache_stats(tmp_path)["files"]}
        assert by_name[rotated.name]["backend"] == "rotated"
        assert by_name[path.name]["entries"] == 1
        reloaded = PersistentCache.for_estimator(tmp_path, estimator)
        assert reloaded.get("TC", workload.key()) is None
        assert reloaded.get("HighLight", workload.key()) is MISS
        reloaded.close()
        assert clear_cache(tmp_path) == 1
        assert not rotated.exists()
        assert cache_stats(tmp_path)["files"] == []

    def test_v1_text_row_refused_by_merge(
        self, tmp_path, estimator, workload, metrics
    ):
        self._v1_text_row(tmp_path / "src", estimator, workload, metrics)
        with pytest.raises(CacheError, match="str value"):
            merge_cache_dirs([tmp_path / "src"], tmp_path / "dest")

    def test_text_null_row_refused_by_merge(
        self, tmp_path, estimator, workload
    ):
        """Only NULL and BLOB values are entries: a TEXT ``null`` is
        refused, not copied forward as a cached unsupported verdict."""
        cache = PersistentCache.for_estimator(
            tmp_path / "src", estimator, backend="sqlite"
        )
        cache.put("TC", workload.key(), None)
        cache.close()
        with sqlite3.connect(cache.path) as conn:
            conn.execute("UPDATE entries SET metrics = 'null'")
        conn.close()
        with pytest.raises(CacheError, match="str value"):
            merge_cache_dirs([tmp_path / "src"], tmp_path / "dest")


class TestNonObjectJsonFiles:
    """A cache-named JSON file whose top level or ``columns`` block is
    not an object is corrupt content: it counts as 0 entries, reads as
    empty, and merge refuses it with a CacheError."""

    PAYLOADS = (
        [],
        "text",
        {"schema_version": COLUMNS_SCHEMA_VERSION,
         "fingerprint": "0123456789abcdef", "columns": []},
        {"schema_version": COLUMNS_SCHEMA_VERSION,
         "fingerprint": "0123456789abcdef", "columns": "text"},
    )

    @pytest.fixture(params=range(len(PAYLOADS)))
    def shard(self, request, tmp_path):
        directory = tmp_path / "src"
        directory.mkdir()
        (directory / "0123456789abcdef.json").write_text(
            json.dumps(self.PAYLOADS[request.param])
        )
        return directory

    def test_stats_count_zero(self, shard):
        stats = cache_stats(shard)
        assert stats["total_entries"] == 0
        (info,) = stats["files"]
        assert info["entries"] == 0

    def test_runtime_reads_empty(self, shard):
        store = JsonCacheStore(shard, "0123456789abcdef")
        assert store.load() == {}

    def test_merge_refuses(self, shard, tmp_path):
        with pytest.raises(CacheError, match="cannot read cache file"):
            merge_cache_dirs([shard], tmp_path / "dest")


class TestMergeDestinationFormat:
    """merge picks its destination format through resolve_backend, the
    one place a store format is chosen."""

    def test_fresh_auto_merge_writes_json(self, tmp_path, estimator,
                                          workload):
        _shard(tmp_path / "s1", estimator, [("TC", workload)],
               "sqlite")
        summary = merge_cache_dirs([tmp_path / "s1"], tmp_path / "out")
        assert summary["backend"] == "json"
        assert summary["path"].endswith(".json")

    def test_auto_merge_upgrades_outgrown_json_dest(
        self, tmp_path, estimator, workload, monkeypatch
    ):
        other = synthetic_workload(0.75, 0.0, size=128)
        _shard(tmp_path / "s1", estimator, [("TC", workload)], "json")
        _shard(tmp_path / "out", estimator, [("STC", other)], "json")
        monkeypatch.setattr(cache_mod, "AUTO_SQLITE_SIZE_BYTES", 1)
        summary = merge_cache_dirs([tmp_path / "s1"], tmp_path / "out")
        assert summary["backend"] == "sqlite"
        assert [p.suffix for p in cache_mod.cache_files(
            tmp_path / "out")] == [".db"]
        assert summary["total_entries"] == 2
