"""Persistent on-disk memoization of (design, workload) evaluations.

The analytical cost models are pure functions of (design, workload,
technology table), so their results can be reused across *processes and
runs*, not just within one engine. A :class:`PersistentCache` stores
one file per estimator fingerprint under a cache directory, in one of
two interchangeable storage backends (:class:`CacheStore`
implementations)::

    <cache_dir>/<fingerprint>.json    # JSON file store
    <cache_dir>/<fingerprint>.db      # SQLite store (WAL mode)

Keys are SHA-256 digests of the canonical (design name, workload key)
content tuple; values are serialized :class:`~repro.model.metrics
.Metrics` (or ``null`` for unsupported pairs — negative results are
worth caching too). The fingerprint covers the energy/area table, the
plug-in stack, and a model-version constant, so any change to the cost
models invalidates old entries automatically by landing in a new file.

The JSON backend flushes read-merge-write with an atomic rename —
O(total entries) per flush, fine for small caches, and concurrent
writers can only lose each other's *new* entries, never corrupt the
file. The SQLite backend upserts only the dirty entries (``INSERT OR
REPLACE``), so flush cost is O(dirty), and concurrent writers are
serialized by SQLite's own locking — the right choice once a cache
outgrows ~10k entries (the ``auto`` backend switches over on its own;
``repro cache merge DIR --cache-dir DIR --cache-backend sqlite``
converts a directory in place).

Each store reads and writes exactly one on-disk format: v2 codec
``BLOB`` rows in SQLite, one columnar schema-2 block in JSON. Anything
else is corrupt cache content: it reads as empty at runtime (and is
replaced on the next flush) and :func:`merge_cache_dirs` refuses it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import sqlite3
import tempfile
import threading
import time
from functools import lru_cache
from pathlib import Path
from urllib.parse import quote
from typing import Any, Dict, List, Optional, Tuple

from repro.energy.estimator import Estimator
from repro.errors import CacheError
from repro.eval import codec
from repro.model.metrics import Metrics
from repro.model.workload import WorkloadKey

#: Bumped whenever the analytical cost models change in a way that
#: invalidates previously cached metrics.
MODEL_FINGERPRINT_VERSION = 1

#: SQLite store file schema version (recorded in its ``meta`` table).
CACHE_SCHEMA_VERSION = 1

#: JSON store file schema: the entry section is one columnar block
#: (digest column, length column, one base64 blob of concatenated v2
#: codec blobs).
COLUMNS_SCHEMA_VERSION = 2

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Selectable storage backends (``auto`` resolves per fingerprint: an
#: existing ``.db`` wins, a JSON file past the size threshold upgrades
#: to SQLite, everything else stays JSON).
CACHE_BACKENDS = ("json", "sqlite", "auto")

DEFAULT_CACHE_BACKEND = "auto"

#: ``auto`` switches a fingerprint to SQLite once its JSON file reaches
#: this size (~10k entries at typical serialized-metrics weight).
AUTO_SQLITE_SIZE_BYTES = 4 * 1024 * 1024

#: Sentinel distinguishing "no cached entry" from a cached ``None``
#: (an unsupported pair).
MISS = object()

#: SQLite busy-handler timeout (seconds) for cache/queue connections —
#: how long SQLite itself blocks on a locked database before raising
#: ``SQLITE_BUSY``.
SQLITE_BUSY_TIMEOUT_S = 30.0

#: Bounded Python-level retries layered on top of the busy timeout.
#: Under WAL a writer can still see ``SQLITE_BUSY`` without the busy
#: handler running (e.g. a snapshot-upgrade conflict), so contended
#: multi-worker writes retry a few times with backoff and only then
#: fail loudly.
SQLITE_BUSY_RETRIES = 5
SQLITE_BUSY_BACKOFF_S = 0.05


def _is_busy_error(error: sqlite3.OperationalError) -> bool:
    message = str(error).lower()
    return "locked" in message or "busy" in message


def _retry_locked(operation, retries: int = SQLITE_BUSY_RETRIES):
    """Run ``operation`` with bounded retries on ``SQLITE_BUSY``.

    Each retry backs off a little longer (50ms, 100ms, ...). Anything
    but a lock/busy condition — and a lock that persists past the last
    retry — propagates: contention is expected under multi-worker
    writes, but a queue or flush that *stays* stuck must fail loudly,
    not silently drop work.
    """
    attempt = 0
    while True:
        try:
            return operation()
        except sqlite3.OperationalError as error:
            if not _is_busy_error(error) or attempt >= retries:
                raise
            time.sleep(SQLITE_BUSY_BACKOFF_S * (attempt + 1))
            attempt += 1


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-highlight``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-highlight"


def _plugin_signature(plugin: object) -> Any:
    """A plugin's contribution to the fingerprint: its class plus any
    dataclass configuration it carries (the default plug-ins hold the
    :class:`EnergyAreaTable` they were built from as ``_table``, which
    may differ from the estimator's own table). Custom plug-ins with
    non-dataclass state should subclass with a distinct class name or
    bump :data:`MODEL_FINGERPRINT_VERSION`."""
    signature: Dict[str, Any] = {"class": type(plugin).__name__}
    for name, value in sorted(vars(plugin).items()):
        if dataclasses.is_dataclass(value):
            signature[name] = dataclasses.asdict(value)
        elif isinstance(value, (str, int, float, bool, type(None))):
            signature[name] = value
    return signature


#: Memoized fingerprints, keyed by the *identity* of the table and
#: plug-in objects that feed them. Every default-constructed Estimator
#: shares one table/plug-in set (see ``_default_setup``), so repeated
#: cache attachments skip the asdict/json/sha work entirely. The memo
#: value pins strong references to the keyed objects, so their ids
#: cannot be recycled. Assumes fingerprint inputs are not mutated in
#: place — the same assumption the cache itself already makes.
_fingerprint_memo: Dict[
    Tuple[int, Tuple[int, ...]], Tuple[Any, Tuple[Any, ...], str]
] = {}


def estimator_fingerprint(estimator: Estimator) -> str:
    """A stable hex digest of everything that determines an
    estimator's numbers: the technology table, the plug-in stack
    (classes plus their configuration), and the library's cost-model
    version."""
    memo_key = (
        id(estimator.table),
        tuple(id(p) for p in estimator._plugins),
    )
    hit = _fingerprint_memo.get(memo_key)
    if hit is not None:
        return hit[2]
    table = dataclasses.asdict(estimator.table)
    payload = {
        "model_version": MODEL_FINGERPRINT_VERSION,
        "table": {key: table[key] for key in sorted(table)},
        "plugins": [
            _plugin_signature(p) for p in estimator._plugins
        ],
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:16]
    _fingerprint_memo[memo_key] = (
        estimator.table, tuple(estimator._plugins), digest
    )
    return digest


@lru_cache(maxsize=65536)
def pair_digest(design: str, workload_key: WorkloadKey) -> str:
    """The storage key for one (design, workload) pair.

    Workload keys are nested tuples of strings/ints/floats whose
    ``repr`` is deterministic across processes and Python versions.
    Memoized: a sweep digests the same pairs once on probe and once on
    put, and repeated sweeps in one process re-digest them all.
    """
    return hashlib.sha256(
        repr((design, workload_key)).encode()
    ).hexdigest()


# --- storage backends ---------------------------------------------------


#: Absent-marker for the JSON store's encoded-blob memo (a memoized
#: value may legitimately be ``None`` — a cached unsupported verdict).
_UNENCODED = object()


class CacheStore:
    """One fingerprint's on-disk storage: the backend half of
    :class:`PersistentCache`.

    A store owns one file (``<fingerprint><suffix>``) and knows how to
    :meth:`load` all entries, :meth:`flush` new ones, and :meth:`close`
    any held resources. Stores are *not* locked — the owning
    :class:`PersistentCache` serializes access.
    """

    #: Backend name as selected by ``--cache-backend``.
    backend = ""
    #: The store's file extension (with the dot).
    suffix = ""

    def __init__(self, directory: "str | Path", fingerprint: str) -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.path = self.directory / f"{fingerprint}{self.suffix}"

    def load(self) -> Dict[str, Optional[Metrics]]:
        """All on-disk entries (best-effort: corruption reads empty)."""
        raise NotImplementedError

    def get_many(
        self, digests: List[str]
    ) -> Dict[str, Optional[Metrics]]:
        """Entries for ``digests`` that landed on disk *after*
        :meth:`load` (a concurrent process filling the same cache).
        Best-effort: the default says "nothing new", which is exact for
        stores whose load reads the whole file into memory."""
        return {}

    def flush(
        self,
        entries: Dict[str, Optional[Metrics]],
        dirty: Dict[str, Optional[Metrics]],
    ) -> Dict[str, Optional[Metrics]]:
        """Persist ``dirty``; returns the post-flush in-memory view
        (which may fold in entries a concurrent writer landed)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release held resources (reopened lazily if used again)."""


class JsonCacheStore(CacheStore):
    """One JSON file per fingerprint; flush is a read-merge-write of
    the whole file behind an atomic rename (O(total entries)).

    Files hold one columnar block (schema
    :data:`COLUMNS_SCHEMA_VERSION`): one digest column, one length
    column, one base64 blob of every entry's v2 codec blob
    concatenated.
    """

    backend = "json"
    suffix = ".json"

    def __init__(self, directory: "str | Path", fingerprint: str) -> None:
        super().__init__(directory, fingerprint)
        #: (st_mtime_ns, st_size) of the file as last read/written by
        #: this store — lets flush skip the read-merge step when no
        #: other writer has touched the file in between.
        self._disk_state: Optional[Tuple[int, int]] = None
        #: digest -> encoded v2 blob (or ``None`` for cached
        #: unsupported verdicts). Rewriting the whole file is inherent
        #: to the format, but *re-encoding* every Metrics per flush is
        #: not: each flush encodes only digests not yet in the memo
        #: (dirty digests are evicted first, so an overwritten entry
        #: never reuses a stale encoding).
        self._encoded: Dict[str, Optional[bytes]] = {}

    def _stat(self) -> Optional[Tuple[int, int]]:
        try:
            stat = self.path.stat()
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    @staticmethod
    def _read_entries(path: Path) -> Dict[str, Optional[Metrics]]:
        """Deserialize a cache file; any corruption — torn writes,
        invalid JSON, another schema, malformed entries — yields an
        empty dict rather than an exception (the cache is a
        best-effort accelerator)."""
        try:
            return {
                digest: None if blob is None
                else codec.decode_blob(blob)
                for digest, blob in codec.raw_from_columns(
                    _read_json_file(path)["columns"]
                ).items()
            }
        except Exception:
            return {}

    def load(self) -> Dict[str, Optional[Metrics]]:
        self._disk_state = self._stat()
        if self._disk_state is None:
            return {}
        return self._read_entries(self.path)

    def flush(
        self,
        entries: Dict[str, Optional[Metrics]],
        dirty: Dict[str, Optional[Metrics]],
    ) -> Dict[str, Optional[Metrics]]:
        self.directory.mkdir(parents=True, exist_ok=True)
        merged = dict(entries)
        if self._stat() != self._disk_state:
            # Foreign writes landed: merge them under ours (their
            # digests join the columnar block in merged-dict order).
            for digest, entry in self._read_entries(self.path).items():
                merged.setdefault(digest, entry)
        encoded = self._encoded
        for digest in dirty:
            # Overwritten entries must not reuse a stale encoding.
            encoded.pop(digest, None)
        # Digest-sorted columns: the file's byte content is a pure
        # function of its entries, so two fills that evaluated the
        # same grid in different orders (or on different machines)
        # produce identical files — the property queue-vs-local
        # equivalence checks rely on.
        raw: Dict[str, Optional[bytes]] = {}
        for digest in sorted(merged):
            metrics = merged[digest]
            blob = encoded.get(digest, _UNENCODED)
            if blob is _UNENCODED:
                blob = encoded[digest] = (
                    None if metrics is None
                    else codec.encode_metrics(metrics)
                )
            raw[digest] = blob
        _atomic_write_json(
            self.path,
            {
                "schema_version": COLUMNS_SCHEMA_VERSION,
                "fingerprint": self.fingerprint,
                "columns": codec.columns_from_raw(raw),
            },
        )
        self._disk_state = self._stat()
        return merged


#: The SQLite store's table layout. ``meta`` pins the schema version
#: and fingerprint (the loud merge path requires both); ``entries``
#: holds one row per pair digest, with a NULL ``metrics`` column for
#: cached "unsupported" verdicts.
_SQLITE_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS meta ("
    " key TEXT PRIMARY KEY, value TEXT NOT NULL)",
    "CREATE TABLE IF NOT EXISTS entries ("
    " digest TEXT PRIMARY KEY, metrics TEXT)",
)


def _sqlite_connect_rw(path: Path, fingerprint: str) -> sqlite3.Connection:
    """A writable connection with the schema ensured and WAL enabled.

    WAL keeps readers unblocked during a writer's transaction, and
    SQLite's own locking (with a generous busy timeout) replaces the
    JSON store's mtime heuristic for concurrent-writer safety.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(
        path, timeout=SQLITE_BUSY_TIMEOUT_S, check_same_thread=False
    )
    try:
        conn.execute(
            f"PRAGMA busy_timeout={int(SQLITE_BUSY_TIMEOUT_S * 1000)}"
        )
        _retry_locked(lambda: conn.execute("PRAGMA journal_mode=WAL"))
        # synchronous=OFF: an OS crash mid-commit may corrupt the file,
        # but this cache is a reconstructible accelerator — a corrupt
        # database reads as empty and the next flush rotates + rebuilds
        # it — and skipping the fsyncs roughly halves flush latency on
        # the sweep hot path (a plain process crash loses nothing:
        # committed data is in the OS page cache/WAL either way).
        conn.execute("PRAGMA synchronous=OFF")
        def ensure_schema() -> None:
            for statement in _SQLITE_SCHEMA:
                conn.execute(statement)
            conn.executemany(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                [
                    ("schema_version", str(CACHE_SCHEMA_VERSION)),
                    ("fingerprint", fingerprint),
                ],
            )
            conn.commit()

        _retry_locked(ensure_schema)
    except BaseException:
        conn.close()
        raise
    return conn


def _sqlite_meta(conn: sqlite3.Connection) -> Dict[str, str]:
    return dict(conn.execute("SELECT key, value FROM meta"))


def _sqlite_connect_ro(path: Path) -> sqlite3.Connection:
    """A read-only connection (never creates the file). The path is
    percent-encoded: a raw f-string URI would mangle directories
    containing ``#``, ``?``, or ``%``."""
    uri = f"file:{quote(str(path))}?mode=ro"
    return sqlite3.connect(uri, uri=True, timeout=SQLITE_BUSY_TIMEOUT_S)


#: Entry upserts as fixed literal statements (REP002: SQL is never
#: assembled from runtime strings; the REPLACE/IGNORE choice selects
#: between two complete templates instead of interpolating a verb).
_UPSERT_REPLACE = (
    "INSERT OR REPLACE INTO entries (digest, metrics) VALUES (?, ?)"
)
_UPSERT_IGNORE = (
    "INSERT OR IGNORE INTO entries (digest, metrics) VALUES (?, ?)"
)


class _SchemaMismatch(Exception):
    """A database whose recorded schema version this code cannot use
    (internal control flow for the SQLite store's flush recovery)."""


class SqliteCacheStore(CacheStore):
    """One SQLite database per fingerprint; flush upserts only the
    dirty entries (O(dirty), not O(total)).

    Rows hold v2 codec blobs (``NULL`` for cached unsupported
    verdicts). A row of any other type makes the database unreadable:
    it loads as empty and the next flush rotates it aside as
    ``.corrupt``.

    A sibling ``<fingerprint>.json`` file seeds the *first*
    :meth:`load` after a backend switch: its entries are imported into
    the database durably and the JSON file is retired, so the
    switchover never goes cold, later runs never re-parse the JSON
    file, and ``cache stats`` never double-counts.
    """

    backend = "sqlite"
    suffix = ".db"

    def __init__(self, directory: "str | Path", fingerprint: str) -> None:
        super().__init__(directory, fingerprint)
        self._conn: Optional[sqlite3.Connection] = None
        #: Set when load() found the database undecodable for reasons
        #: flush's except clauses cannot see again (e.g. one poisoned
        #: row): the next flush must rebuild, not upsert into a file
        #: every load reads as empty.
        self._unreadable = False

    def _connect(self) -> sqlite3.Connection:
        if self._conn is None:
            self._conn = _sqlite_connect_rw(self.path, self.fingerprint)
        return self._conn

    def load(self) -> Dict[str, Optional[Metrics]]:
        entries: Dict[str, Optional[Metrics]] = {}
        db_usable = not self.path.exists()
        if self.path.exists():
            try:
                conn = self._connect()
                meta = _sqlite_meta(conn)
                if meta.get("schema_version") == str(
                    CACHE_SCHEMA_VERSION
                ):
                    db_usable = True
                    for digest, value in conn.execute(
                        "SELECT digest, metrics FROM entries"
                    ):
                        entries[digest] = codec.decode_sqlite_value(
                            value
                        )
            except sqlite3.OperationalError:
                # Transient (locked, I/O): read as empty this run but
                # leave the file alone — it may be healthy.
                db_usable = False
                entries = {}
            except Exception:
                # Same best-effort contract as the JSON store: a
                # corrupt database reads as empty, never as a crash.
                # Flag it so the next flush rotates and rebuilds even
                # when the damage (e.g. one undecodable row) would not
                # resurface as a sqlite3.DatabaseError there.
                db_usable = False
                entries = {}
                self._unreadable = True
        sibling = self.path.with_suffix(".json")
        if not sibling.is_file():
            return entries
        sibling_entries = JsonCacheStore._read_entries(sibling)
        if not sibling_entries:
            return entries
        if db_usable:
            # Fold the sibling JSON in durably (database rows win) and
            # retire the file — whether this is the first load after a
            # backend switch or a json-backend writer landed entries
            # next to an existing database. Later runs then read only
            # the database: no repeated O(total) JSON parse, no
            # shadowed entries, no double-counted stats. Skipped when
            # the database is corrupt/stale: flush recovery would
            # rotate the import away with it.
            try:
                self._upsert(sibling_entries, replace=False)
            except sqlite3.Error:
                pass
            else:
                sibling.unlink(missing_ok=True)
        for digest, metrics in sibling_entries.items():
            entries.setdefault(digest, metrics)
        return entries

    def get_many(
        self, digests: List[str]
    ) -> Dict[str, Optional[Metrics]]:
        """Probe the database for ``digests`` in one query per ~500
        keys — picks up rows a concurrent writer committed since our
        load. Best-effort like every runtime read: any database problem
        reports "nothing found" rather than raising."""
        if not digests or not self.path.exists():
            return {}
        found: Dict[str, Optional[Metrics]] = {}
        try:
            conn = self._connect()
            if _sqlite_meta(conn).get("schema_version") != str(
                CACHE_SCHEMA_VERSION
            ):
                return {}
            for start in range(0, len(digests), 500):
                chunk = digests[start:start + 500]
                placeholders = ",".join("?" * len(chunk))
                for digest, value in conn.execute(
                    f"SELECT digest, metrics FROM entries "
                    f"WHERE digest IN ({placeholders})",
                    chunk,
                ):
                    found[digest] = codec.decode_sqlite_value(value)
        except Exception:
            return {}
        return found

    def _upsert(
        self,
        dirty: Dict[str, Optional[Metrics]],
        replace: bool = True,
    ) -> None:
        conn = self._connect()
        sql = _UPSERT_REPLACE if replace else _UPSERT_IGNORE
        rows = [
            (
                digest,
                None if metrics is None
                else codec.encode_metrics(metrics),
            )
            for digest, metrics in dirty.items()
        ]

        def upsert() -> None:
            conn.executemany(sql, rows)
            conn.commit()

        # Contended multi-worker flushes retry a few times before the
        # OperationalError escapes (the flush path treats it as
        # transient and never rotates the file away).
        _retry_locked(upsert)

    def _check_schema(self) -> None:
        if not self.path.exists():
            return
        meta = _sqlite_meta(self._connect())
        if meta.get("schema_version") != str(CACHE_SCHEMA_VERSION):
            raise _SchemaMismatch(meta.get("schema_version"))

    def _rotate_aside(self, suffix: str) -> None:
        self.close()
        self.path.replace(self.path.with_name(self.path.name + suffix))
        for sidecar in _sidecar_files(self.path):
            sidecar.unlink(missing_ok=True)

    def flush(
        self,
        entries: Dict[str, Optional[Metrics]],
        dirty: Dict[str, Optional[Metrics]],
    ) -> Dict[str, Optional[Metrics]]:
        try:
            if self._unreadable:
                self._unreadable = False
                raise sqlite3.DatabaseError(
                    "database was undecodable at load"
                )
            self._check_schema()
            self._upsert(dirty)
        except sqlite3.OperationalError:
            # Transient conditions — lock contention past the busy
            # timeout, disk full, I/O errors — are not corruption; a
            # concurrent writer may hold the file, so never rotate it
            # away. (After _connect the meta/entries tables exist, so
            # "no such table" cannot reach here.)
            raise
        except (sqlite3.DatabaseError, _SchemaMismatch) as error:
            # Match the JSON store's behavior for a file this version
            # cannot use (a torn or stale-schema file reads as empty
            # and is overwritten on the next flush): set the database
            # aside and rebuild it from memory at the current schema.
            stale = isinstance(error, _SchemaMismatch)
            self._rotate_aside(".stale" if stale else ".corrupt")
            self._upsert(entries)
        return entries

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


_STORE_CLASSES: Dict[str, type] = {
    "json": JsonCacheStore,
    "sqlite": SqliteCacheStore,
}


def _require_known_backend(backend: str) -> None:
    if backend not in CACHE_BACKENDS:
        raise CacheError(
            f"unknown cache backend {backend!r}; supported: "
            f"{', '.join(CACHE_BACKENDS)}"
        )


def resolve_backend(
    directory: "str | Path", fingerprint: str, backend: str
) -> str:
    """The concrete backend for one fingerprint under ``directory``.

    ``json``/``sqlite`` are honored as given; ``auto`` prefers an
    existing database, upgrades a JSON file that has outgrown
    :data:`AUTO_SQLITE_SIZE_BYTES`, and otherwise stays JSON.
    """
    _require_known_backend(backend)
    if backend != "auto":
        return backend
    root = Path(directory)
    if (root / f"{fingerprint}.db").exists():
        return "sqlite"
    try:
        size = (root / f"{fingerprint}.json").stat().st_size
    except OSError:
        size = 0
    return "sqlite" if size >= AUTO_SQLITE_SIZE_BYTES else "json"


class PersistentCache:
    """A dict-like store of evaluated pairs, backed by one
    :class:`CacheStore` file.

    Entries live in memory after load; :meth:`flush` persists new
    entries through the backend (the JSON store merges and atomically
    rewrites the whole file, the SQLite store upserts only the dirty
    rows). ``None`` values are first-class (cached "unsupported"
    verdicts). All operations are guarded by an internal lock, so an
    engine can perform lookups while another thread flushes.
    """

    #: Fields that must only be touched under ``self._lock`` (REP001).
    #: Helpers that assume the caller already holds the lock carry a
    #: ``*_locked`` suffix instead.
    _lock_guarded = frozenset({"_entries", "_dirty", "_last_flush"})

    def __init__(
        self,
        directory: "str | Path",
        fingerprint: str,
        backend: str = DEFAULT_CACHE_BACKEND,
    ) -> None:
        resolved = resolve_backend(directory, fingerprint, backend)
        self.store: CacheStore = _STORE_CLASSES[resolved](
            directory, fingerprint
        )
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self._entries: Dict[str, Optional[Metrics]] = {}
        self._dirty: Dict[str, Optional[Metrics]] = {}
        self._lock = threading.Lock()
        # Debounce clock for maybe_flush: "the file is never more than
        # `min_interval` behind" holds from construction, so a cache
        # that lives shorter than the interval persists once, at close.
        self._last_flush = time.monotonic()
        self._entries.update(self.store.load())

    @classmethod
    def for_estimator(
        cls,
        directory: "str | Path",
        estimator: Estimator,
        backend: str = DEFAULT_CACHE_BACKEND,
    ) -> "PersistentCache":
        return cls(
            directory, estimator_fingerprint(estimator), backend=backend
        )

    @property
    def backend(self) -> str:
        """The resolved concrete backend name (``json``/``sqlite``)."""
        return self.store.backend

    @property
    def path(self) -> Path:
        """The backing file (suffix depends on the backend)."""
        return self.store.path

    def get(self, design: str, workload_key: WorkloadKey) -> Any:
        """The cached metrics (possibly ``None``), or :data:`MISS`."""
        with self._lock:
            return self._entries.get(
                pair_digest(design, workload_key), MISS
            )

    def get_many(
        self, pairs: "List[Tuple[str, WorkloadKey]]"
    ) -> List[Any]:
        """Cached metrics for each (design, workload key) pair, in
        order, with :data:`MISS` for absent entries.

        One lock acquisition serves the whole batch from memory; keys
        still missing are then probed against the backing store in one
        bulk query (the SQLite store sees rows concurrent processes
        committed after our load). Store finds are folded into the
        in-memory view but *not* marked dirty — they are already on
        disk."""
        digests = [
            pair_digest(design, workload_key)
            for design, workload_key in pairs
        ]
        with self._lock:
            results = [self._entries.get(d, MISS) for d in digests]
            missing = [
                digest
                for digest, value in zip(digests, results)
                if value is MISS
            ]
            if missing:
                found = self.store.get_many(missing)
                if found:
                    for digest, metrics in found.items():
                        self._entries.setdefault(digest, metrics)
                    results = [
                        self._entries.get(d, MISS) for d in digests
                    ]
        return results

    def put(
        self,
        design: str,
        workload_key: WorkloadKey,
        metrics: Optional[Metrics],
    ) -> None:
        digest = pair_digest(design, workload_key)
        with self._lock:
            self._entries[digest] = metrics
            self._dirty[digest] = metrics

    def put_many(
        self,
        entries: "List[Tuple[str, WorkloadKey, Optional[Metrics]]]",
    ) -> None:
        """Record a batch of entries under one lock acquisition.

        Equivalent to :meth:`put` per entry; the batch form keeps the
        engine's per-design-group recording off the per-entry lock
        treadmill."""
        staged = [
            (pair_digest(design, workload_key), metrics)
            for design, workload_key, metrics in entries
        ]
        with self._lock:
            for digest, metrics in staged:
                self._entries[digest] = metrics
                self._dirty[digest] = metrics

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def flush(self) -> None:
        """Persist entries added since the last flush."""
        with self._lock:
            self._flush_locked()

    def maybe_flush(self, min_interval: float) -> bool:
        """Flush, unless a flush already ran within the last
        ``min_interval`` seconds; returns whether a flush happened.

        The engine calls this after every evaluation batch: a run of
        many small batches (a network sweep is one batch per layer
        group) pays for one file rewrite per interval instead of one
        per batch, while a crash still loses at most ``min_interval``
        of completed work — and only on hard kills, since every
        Python-level exit path funnels through :meth:`close`, which
        flushes unconditionally."""
        with self._lock:
            if not self._dirty:
                return False
            if time.monotonic() - self._last_flush < min_interval:
                return False
            self._flush_locked()
            return True

    def _flush_locked(self) -> None:
        if not self._dirty:
            return
        # No snapshot copies: the lock is held for the duration,
        # and the JSON store builds its own merged dict (the
        # SQLite store reads ``entries`` only on corruption
        # recovery), so the SQLite flush stays O(dirty).
        self._entries = self.store.flush(self._entries, self._dirty)
        self._dirty.clear()
        self._last_flush = time.monotonic()

    def close(self) -> None:
        """Flush pending entries and release backend resources (the
        store reopens lazily, so a closed cache stays usable). The
        store is closed even when the final flush fails — a full disk
        must not leak the SQLite connection."""
        try:
            self.flush()
        finally:
            with self._lock:
                self.store.close()


# --- directory-level maintenance (stats / clear / merge) ----------------

#: Cache files are named <16-hex-digit fingerprint>.json or .db — the
#: strict pattern keeps ``cache clear``/``stats`` away from unrelated
#: files (run records, benchmark output) a user may keep in the same
#: directory.
_CACHE_FILE_RE = re.compile(r"^[0-9a-f]{16}\.(json|db)$")

#: Databases the SQLite store set aside during flush recovery
#: (unusable, but they occupy space: ``stats`` reports them and
#: ``clear`` deletes them).
_ROTATED_FILE_RE = re.compile(r"^[0-9a-f]{16}\.db\.(corrupt|stale)$")


def cache_files(directory: "str | Path") -> Tuple[Path, ...]:
    """All cache files under a directory, both backends."""
    root = Path(directory)
    if not root.is_dir():
        return ()
    return tuple(
        sorted(
            path for path in root.iterdir()
            if _CACHE_FILE_RE.match(path.name)
        )
    )


def _rotated_files(directory: "str | Path") -> Tuple[Path, ...]:
    root = Path(directory)
    if not root.is_dir():
        return ()
    return tuple(
        sorted(
            path for path in root.iterdir()
            if _ROTATED_FILE_RE.match(path.name)
        )
    )


def _count_entries(path: Path) -> int:
    """Best-effort entry count of one cache file (0 on corruption)."""
    if path.suffix == ".db":
        try:
            conn = _sqlite_connect_ro(path)
            try:
                (count,) = conn.execute(
                    "SELECT COUNT(*) FROM entries"
                ).fetchone()
                return int(count)
            finally:
                conn.close()
        except sqlite3.Error:
            return 0
    try:
        return len(_read_json_file(path)["columns"]["lengths"])
    except (CacheError, KeyError, TypeError):
        return 0


def cache_stats(directory: "str | Path") -> Dict[str, Any]:
    """Aggregate statistics for ``repro cache stats``.

    SQLite files doubling as job queues (a ``jobs`` table beside the
    cache ``entries`` — see :mod:`repro.eval.queue`) additionally
    report their per-status job counts under ``queue`` rather than
    being listed as plain cache files.
    """
    # Deferred: queue imports this module.
    from repro.eval.queue import queue_counts

    files = cache_files(directory)
    per_file = []
    total_entries = 0
    for path in files:
        entries = _count_entries(path)
        total_entries += entries
        info = {
            "file": path.name,
            "backend": "sqlite" if path.suffix == ".db" else "json",
            "entries": entries,
            "bytes": path.stat().st_size,
        }
        if path.suffix == ".db":
            queue = queue_counts(path)
            if queue is not None:
                info["queue"] = queue
        per_file.append(info)
    for path in _rotated_files(directory):
        # Set aside by flush recovery: no usable entries, but their
        # bytes are real and ``clear`` reclaims them.
        per_file.append(
            {
                "file": path.name,
                "backend": "rotated",
                "entries": 0,
                "bytes": path.stat().st_size,
            }
        )
    return {
        "directory": str(directory),
        "files": per_file,
        "total_entries": total_entries,
    }


def _sidecar_files(path: Path) -> Tuple[Path, ...]:
    """A SQLite file's WAL/shared-memory companions (may not exist)."""
    if path.suffix != ".db":
        return ()
    return (
        path.with_name(path.name + "-wal"),
        path.with_name(path.name + "-shm"),
    )


def clear_cache(directory: "str | Path") -> int:
    """Delete all cache files under ``directory``; returns the count
    (SQLite WAL sidecars and rotated ``.corrupt``/``.stale`` databases
    are removed but not counted)."""
    files = cache_files(directory)
    for path in files:
        path.unlink()
        for sidecar in _sidecar_files(path):
            sidecar.unlink(missing_ok=True)
    for path in _rotated_files(directory):
        path.unlink()
    return len(files)


def _read_json_file(path: Path) -> Dict[str, Any]:
    """A JSON cache file's top-level object, checked down to its
    ``columns`` block being an object. Loud: an unreadable file,
    invalid JSON, a schema other than :data:`COLUMNS_SCHEMA_VERSION`
    or a non-object document or block raises
    :class:`~repro.errors.CacheError` (best-effort callers catch it).
    """
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise CacheError(f"cannot read cache file {path}: {error}")
    if not isinstance(data, dict):
        raise CacheError(
            f"cannot read cache file {path}: top level is not an object"
        )
    version = data.get("schema_version")
    if version != COLUMNS_SCHEMA_VERSION:
        raise CacheError(
            f"{path} has cache schema {version!r}; this version reads "
            f"schema {COLUMNS_SCHEMA_VERSION}"
        )
    if not isinstance(data.get("columns"), dict):
        raise CacheError(
            f"cannot read cache file {path}: columns is not an object"
        )
    return data


def _read_raw_entries(path: Path) -> Dict[str, Optional[bytes]]:
    """One cache file's entries in canonical raw form (v2 codec blobs,
    ``None`` for cached unsupported verdicts) — loud, unlike the
    best-effort runtime reads: merging should never silently drop a
    shard, nor copy content in any other format forward. The
    fingerprint field is *required* and must match the file name; a
    file missing it is refused rather than waved through.
    """
    if path.suffix == ".db":
        try:
            conn = _sqlite_connect_ro(path)
        except sqlite3.Error as error:
            raise CacheError(f"cannot read cache file {path}: {error}")
        try:
            meta = _sqlite_meta(conn)
            rows = conn.execute(
                "SELECT digest, metrics FROM entries"
            ).fetchall()
        except sqlite3.Error as error:
            raise CacheError(f"cannot read cache file {path}: {error}")
        finally:
            conn.close()
        schema = meta.get("schema_version")
        if schema != str(CACHE_SCHEMA_VERSION):
            raise CacheError(
                f"{path} has cache schema {schema!r}; this version "
                f"reads schema {CACHE_SCHEMA_VERSION}"
            )
        _require_fingerprint(path, meta.get("fingerprint"))
        for digest, value in rows:
            if value is not None and not isinstance(value, bytes):
                raise CacheError(
                    f"cannot read cache file {path}: entry {digest} "
                    f"holds a {type(value).__name__} value, not a "
                    f"codec blob"
                )
        return dict(rows)
    data = _read_json_file(path)
    _require_fingerprint(path, data.get("fingerprint"))
    try:
        return codec.raw_from_columns(data["columns"])
    except CacheError as error:
        raise CacheError(f"cannot read cache file {path}: {error}")


def _require_fingerprint(path: Path, fingerprint: Any) -> None:
    if fingerprint is None:
        raise CacheError(
            f"{path} is missing the fingerprint field; refusing to "
            f"treat an unidentified file as cache shard {path.stem!r}"
        )
    if fingerprint != path.stem:
        raise CacheError(
            f"{path} records fingerprint {fingerprint!r} "
            f"but is named {path.stem!r}"
        )


def _atomic_write_json(path: Path, payload: Dict[str, Any]) -> None:
    # dumps-then-write, not json.dump: streaming to a file handle
    # takes the pure-Python iterencode path, while dumps uses the C
    # encoder (several times faster on flush-sized payloads).
    _atomic_write_text(path, json.dumps(payload))


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=".cache-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_raw_json(
    path: Path,
    fingerprint: str,
    entries: Dict[str, Optional[bytes]],
) -> None:
    # Digest-sorted for canonical bytes (see JsonCacheStore.flush):
    # merging N worker shards and one local fill of the same grid
    # yields bit-identical files, whatever order entries landed in.
    _atomic_write_json(
        path,
        {
            "schema_version": COLUMNS_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "columns": codec.columns_from_raw(
                {digest: entries[digest] for digest in sorted(entries)}
            ),
        },
    )


def _write_raw_sqlite(
    path: Path,
    fingerprint: str,
    entries: Dict[str, Optional[bytes]],
) -> None:
    conn = _sqlite_connect_rw(path, fingerprint)
    try:
        conn.executemany(_UPSERT_REPLACE, list(entries.items()))
        conn.commit()
    finally:
        conn.close()


def _ordered_by_format(files: "Tuple[Path, ...] | List[Path]") -> List[Path]:
    """JSON first, SQLite last — so a dict built by successive updates
    lets database rows win over a stale JSON sibling."""
    return sorted(files, key=lambda path: path.suffix == ".db")


def merge_cache_dirs(
    sources: "Tuple[str | Path, ...] | list",
    dest: "str | Path",
    backend: str = DEFAULT_CACHE_BACKEND,
) -> Dict[str, Any]:
    """Merge the cache files of ``sources`` into ``dest`` (one file).

    This is the fan-in step of a sharded grid fill: N workers each run
    with their own ``--cache-dir`` against the *same* estimator, then
    their directories are merged into one warm cache. All source
    directories must therefore hold exactly one, identical estimator
    fingerprint — mixing fingerprints would silently interleave
    incompatible cost models, so it raises
    :class:`~repro.errors.CacheError` instead. Shards may be stored in
    either backend (a directory holding both formats of one fingerprint
    contributes their union, database rows winning). Entries are
    content-keyed, so overlapping shards merge idempotently; existing
    ``dest`` files of the same fingerprint are merged under the sources
    and consolidated into a single file of the backend
    :func:`resolve_backend` picks for ``dest`` (so ``auto`` keeps an
    existing database, upgrades an outgrown JSON file, and otherwise
    writes JSON).

    Returns a summary dict (``fingerprint``, ``path``, ``backend``,
    per-source and total entry counts, how many were new to ``dest``).
    """
    _require_known_backend(backend)
    per_dir: Dict[str, Tuple[Path, ...]] = {}
    for source in sources:
        files = cache_files(source)
        if not files:
            raise CacheError(
                f"no cache files under {source} (expected "
                f"<fingerprint>.json or .db; is this a --cache-dir?)"
            )
        per_dir[str(source)] = files
    fingerprints = {
        path.stem for files in per_dir.values() for path in files
    }
    if len(fingerprints) != 1:
        detail = "; ".join(
            f"{source}: {', '.join(path.stem for path in files)}"
            for source, files in per_dir.items()
        )
        raise CacheError(
            f"refusing to merge caches with mismatched estimator "
            f"fingerprints ({detail}); merge shards produced by the "
            f"same estimator, one fingerprint per directory"
        )
    fingerprint = fingerprints.pop()
    merged: Dict[str, Optional[bytes]] = {}
    source_counts: Dict[str, int] = {}
    for source, files in per_dir.items():
        dir_entries: Dict[str, Optional[bytes]] = {}
        for path in _ordered_by_format(files):
            dir_entries.update(_read_raw_entries(path))
        source_counts[source] = len(dir_entries)
        merged.update(dir_entries)
    dest_dir = Path(dest)
    dest_json = dest_dir / f"{fingerprint}.json"
    dest_db = dest_dir / f"{fingerprint}.db"
    existing_entries: Dict[str, Optional[bytes]] = {}
    for path in _ordered_by_format(
        [p for p in (dest_json, dest_db) if p.is_file()]
    ):
        existing_entries.update(_read_raw_entries(path))
    existing = len(existing_entries)
    for digest, entry in existing_entries.items():
        merged.setdefault(digest, entry)
    dest_backend = resolve_backend(dest_dir, fingerprint, backend)
    if dest_backend == "sqlite":
        _write_raw_sqlite(dest_db, fingerprint, merged)
        absorbed = dest_json
    else:
        _write_raw_json(dest_json, fingerprint, merged)
        absorbed = dest_db
        for sidecar in _sidecar_files(dest_db):
            sidecar.unlink(missing_ok=True)
    # The other-format dest file (if any) is fully folded in above;
    # leaving it behind would double-count in stats and shadow the
    # merge under the auto backend.
    absorbed.unlink(missing_ok=True)
    dest_path = dest_db if dest_backend == "sqlite" else dest_json
    return {
        "fingerprint": fingerprint,
        "path": str(dest_path),
        "backend": dest_backend,
        "sources": source_counts,
        "total_entries": len(merged),
        "new_entries": len(merged) - existing,
    }
