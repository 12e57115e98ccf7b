"""A claim-based job queue for distributed grid fills.

The design-space evaluation is a (design, workload) grid; after the
batch/caching work a single process fills one quickly, but one grid
still lives on one machine. This module turns a grid fill into a fleet
problem, modeled on py_experimenter's experiments-as-DB-rows pattern:
a :class:`JobStore` holds the grid's pending cells as rows *inside the
existing SQLite cache database* (the ``<fingerprint>.db`` file of
:mod:`repro.eval.cache`, reusing its WAL setup and fingerprint guard),
and N ``repro worker`` processes on N machines claim batches
transactionally, evaluate them through the shared
:class:`~repro.eval.engine.SweepEngine`, write results into
the co-located cache ``entries`` table, and mark the rows done.

Semantics:

* **Exactly-once claims.** ``claim_batch`` runs one ``BEGIN
  IMMEDIATE`` transaction per claim (select candidates, stamp them
  ``claimed`` with the worker id and a lease deadline, commit), so two
  racing workers can never claim the same cell.
* **Lease-based crash recovery.** A claim carries a wall-clock lease
  deadline that the worker renews (heartbeats) while evaluating. A
  worker that dies mid-batch stops renewing; once the lease expires the
  cells count as *stale* and any worker's next ``claim_batch`` reclaims
  them. Workers flush evaluated metrics to the cache *before* marking
  cells done, so a reclaimed cell whose result already landed is served
  from the cache — a disk hit, not a second evaluation.
* **Exactly-once completion.** ``complete``/``fail`` only transition
  rows still claimed by the calling worker; a worker whose lease was
  stolen cannot clobber the new owner's state.

A job row stores its cell as key columns (``design``, ``m``, ``k``,
``n`` and the operand texts ``a``, ``b``; see :func:`operand_text`),
so a claim decodes through two small memos to the same shared
operand and workload instances every other row with those columns
gets. A ``jobs`` table in the older layout (one ``workload`` JSON
column) is refused with a :class:`~repro.errors.QueueError`: drop the
table and re-run the fill, which skips every cell already cached.

The queue lives in the same database file as the persistent cache, so
``repro cache stats`` sees it, ``repro cache merge`` folds the filled
``entries`` into other shards, and the fingerprint meta row guards
workers against filling a grid with a mismatched cost model.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.defaults import DEFAULT_BATCH_SIZE, DEFAULT_LEASE_S
from repro.errors import QueueError, ReproError
from repro.eval import cache as cache_mod
from repro.model.workload import (
    MatmulWorkload,
    OperandSparsity,
    Structure,
)
from repro.sparsity.hss import HSSPattern

#: Job lifecycle states, as stored in the ``jobs.status`` column.
JOB_STATUSES = ("pending", "claimed", "done", "failed")

#: The queue's own table, created next to the cache store's
#: ``meta``/``entries`` tables inside one ``<fingerprint>.db``. A row
#: holds its cell as key columns: the GEMM shape ``m, k, n`` and each
#: operand as an :func:`operand_text`. ``digest`` is the cache layer's
#: :func:`~repro.eval.cache.pair_digest`, so queue rows and cache
#: entries share one key space.
QUEUE_TABLE = (
    "CREATE TABLE IF NOT EXISTS jobs ("
    " digest TEXT PRIMARY KEY,"
    " design TEXT NOT NULL,"
    " m INTEGER NOT NULL,"
    " k INTEGER NOT NULL,"
    " n INTEGER NOT NULL,"
    " a TEXT NOT NULL,"
    " b TEXT NOT NULL,"
    " status TEXT NOT NULL DEFAULT 'pending',"
    " worker TEXT,"
    " lease_until REAL,"
    " attempts INTEGER NOT NULL DEFAULT 0,"
    " error TEXT)"
)

#: The ``jobs`` columns in table order; a ``jobs`` table with any other
#: columns is an older layout (see :meth:`JobStore._check_layout`).
JOB_COLUMNS = (
    "digest", "design", "m", "k", "n", "a", "b",
    "status", "worker", "lease_until", "attempts", "error",
)

#: ``(status)`` index entries are ordered by ``(status, rowid)``, so
#: each claim select reads its rows straight off the index in rowid
#: order: no table scan, no sort.
QUEUE_INDEX = "CREATE INDEX IF NOT EXISTS jobs_status ON jobs (status)"


@lru_cache(maxsize=1024)
def operand_text(operand: OperandSparsity) -> str:
    """The canonical text of one operand, as the ``jobs.a``/``jobs.b``
    columns store it: structure, the exact ``repr`` of the float
    density, then the G:H ranks lowest first, space-separated
    (``dense 1.0``, ``unstructured 0.4375``, ``hss 0.375 2:4 3:4``).

    The density is the operand's own float, not the quantized key
    density, so a decoded operand evaluates to bit-identical
    ``Metrics``. Memoized on the (frozen, hashable) operand: a fill
    encodes each distinct operand once.
    """
    text = f"{operand.structure.value} {operand.density!r}"
    if operand.pattern is None:
        return text
    ranks = " ".join(f"{rank.g}:{rank.h}" for rank in operand.pattern.ranks)
    return f"{text} {ranks}"


@lru_cache(maxsize=1024)
def operand_from_text(text: str) -> OperandSparsity:
    """Decode an :func:`operand_text` to a shared, validated operand.

    Memoized like the cold path's realization memo: every claimed cell
    with the same operand gets one instance, whose ``key()`` and
    ``describe()`` are computed here, once.
    """
    structure, density, *ranks = text.split(" ")
    try:
        pattern = (
            HSSPattern.from_ratios(
                *(tuple(map(int, rank.split(":"))) for rank in ranks)
            )
            if ranks
            else None
        )
        operand = OperandSparsity(
            float(density), Structure(structure), pattern
        )
    except (ReproError, TypeError, ValueError) as error:
        raise QueueError(
            f"malformed operand {text!r} in the jobs table: {error}"
        ) from None
    operand.key()
    operand.describe()
    return operand


@lru_cache(maxsize=4096)
def workload_from_columns(
    m: int, k: int, n: int, a: str, b: str
) -> MatmulWorkload:
    """The shared workload of one ``jobs`` row's key columns, its
    ``key()`` and ``describe()`` computed here, once: designs that
    realize a degree pair the same way queue one row each, and all of
    them evaluate this one instance."""
    workload = MatmulWorkload(
        m=m, k=k, n=n, a=operand_from_text(a), b=operand_from_text(b)
    )
    workload.key()
    workload.describe()
    return workload


def default_worker_id() -> str:
    """``<hostname>-<pid>``: unique enough across a fleet, and
    readable in ``queue stats`` / run records."""
    import socket

    return f"{socket.gethostname()}-{os.getpid()}"


def queue_db_path(
    cache_dir: "str | Path", fingerprint: str
) -> Path:
    """The canonical queue location: the cache database itself."""
    return Path(cache_dir) / f"{fingerprint}.db"


@dataclass(frozen=True)
class Job:
    """One claimed queue cell, ready to evaluate."""

    digest: str
    design: str
    workload: MatmulWorkload
    attempts: int = 1

    @property
    def pair(self) -> Tuple[str, MatmulWorkload]:
        """The (design name, workload) pair the engine evaluates."""
        return (self.design, self.workload)


@dataclass(frozen=True)
class QueueStats:
    """Aggregate queue state (``repro queue stats``)."""

    pending: int = 0
    claimed: int = 0
    done: int = 0
    failed: int = 0
    #: Claimed rows whose lease deadline has passed — a crashed or
    #: stalled worker's cells, reclaimable by anyone's next claim.
    stale: int = 0

    @property
    def total(self) -> int:
        return self.pending + self.claimed + self.done + self.failed

    @property
    def remaining(self) -> int:
        """Cells not yet done or failed (what workers still see)."""
        return self.pending + self.claimed

    def as_dict(self) -> Dict[str, int]:
        return {
            "pending": self.pending,
            "claimed": self.claimed,
            "done": self.done,
            "failed": self.failed,
            "stale": self.stale,
            "total": self.total,
        }


@dataclass(frozen=True)
class FillSummary:
    """What one ``fill`` call did."""

    added: int = 0
    #: Cells skipped because the co-located persistent cache already
    #: holds their result — a warm cache means an empty queue.
    skipped_cached: int = 0
    #: Cells skipped because a job row already exists (idempotent
    #: re-fills, overlapping grids).
    skipped_queued: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "added": self.added,
            "skipped_cached": self.skipped_cached,
            "skipped_queued": self.skipped_queued,
        }


class JobStore:
    """One queue database: claim/complete/fail with lease recovery.

    The store opens (and, if needed, creates) a cache-layer SQLite
    database — WAL mode, ``meta``/``entries`` tables — and adds the
    ``jobs`` table beside them. All mutating operations are single
    transactions; ``claim_batch`` uses ``BEGIN IMMEDIATE`` so claims
    serialize across processes. ``fingerprint`` is the estimator
    fingerprint the queue's cells were (or will be) enumerated for: a
    mismatch against the database's recorded fingerprint raises
    :class:`~repro.errors.QueueError` before any work is claimed,
    mirroring the cache layer's merge guard.

    ``clock`` returns the current wall time (seconds); it is injectable
    so lease-expiry tests need not sleep. Wall clock — not
    ``time.monotonic`` — because leases must be comparable across
    machines; the deadline only gates *reclaims*, so modest clock skew
    costs at most an early or late reclaim, never a lost result.
    """

    #: Fields that must only be touched under ``self._lock`` (REP001).
    #: ``*_locked`` helpers assume the caller already holds the lock.
    _lock_guarded = frozenset({"_conn"})

    def __init__(
        self,
        path: "str | Path",
        fingerprint: Optional[str] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = Path(path)
        self.clock = clock
        self._conn: Optional[sqlite3.Connection] = None
        #: One connection serves the worker loop and its heartbeat
        #: thread; sqlite3 connections are not safe for *concurrent*
        #: use, so every store operation runs under this lock.
        self._lock = threading.Lock()
        if fingerprint is None:
            fingerprint = self.path.stem
        self.fingerprint = fingerprint
        with self._lock:
            conn = self._connect_locked()
            recorded = cache_mod._sqlite_meta(conn).get("fingerprint")
        if recorded is not None and recorded != fingerprint:
            self.close()
            raise QueueError(
                f"queue database {self.path} was filled for estimator "
                f"fingerprint {recorded!r}, not {fingerprint!r}; "
                f"workers and fills must share one cost model"
            )

    def _connect_locked(self) -> sqlite3.Connection:
        if self._conn is None:
            conn = cache_mod._sqlite_connect_rw(
                self.path, self.fingerprint
            )
            try:
                # Explicit transaction control: claim/complete must be
                # single atomic units, not sqlite3's implicit ones.
                conn.isolation_level = None
                conn.execute(QUEUE_TABLE)
                self._check_layout(conn)
                conn.execute(QUEUE_INDEX)
            except BaseException:
                conn.close()
                raise
            self._conn = conn
        return self._conn

    def _check_layout(self, conn: sqlite3.Connection) -> None:
        """Refuse a ``jobs`` table in any layout but :data:`JOB_COLUMNS`
        (e.g. the older one with a ``workload`` JSON column): fail with
        the remedy instead of with ``sqlite3`` errors mid-drain."""
        columns = tuple(
            row[1] for row in conn.execute("PRAGMA table_info(jobs)")
        )
        if columns != JOB_COLUMNS:
            raise QueueError(
                f"queue database {self.path} holds a jobs table in an "
                f"older layout (columns {', '.join(columns)}); drop it "
                f"(sqlite3 {self.path} 'DROP TABLE jobs') and re-run "
                f"'repro queue fill', which skips cells already cached"
            )

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # --- filling ---------------------------------------------------------

    def fill(
        self, pairs: Iterable[Tuple[str, MatmulWorkload]]
    ) -> FillSummary:
        """Enqueue (design, workload) cells as pending jobs.

        Cells whose digest already has a result in the co-located
        cache ``entries`` table are skipped (a warm cache needs no
        work); cells already queued — any status — are left untouched,
        so re-filling an overlapping grid is idempotent.
        """
        staged: Dict[str, Tuple[str, MatmulWorkload]] = {}
        for design, workload in pairs:
            # The row stores key columns only, so the display label
            # needs no stripping: the key already excludes it.
            digest = cache_mod.pair_digest(design, workload.key())
            staged.setdefault(digest, (design, workload))
        if not staged:
            return FillSummary()
        with self._lock:
            conn = self._connect_locked()
            digests = list(staged)
            cached = self._existing(conn, "entries", digests)
            queued = self._existing(conn, "jobs", digests)
            rows = [
                (
                    digest,
                    design,
                    workload.m,
                    workload.k,
                    workload.n,
                    operand_text(workload.a),
                    operand_text(workload.b),
                )
                for digest, (design, workload) in staged.items()
                if digest not in cached and digest not in queued
            ]
            cache_mod._retry_locked(
                lambda: self._insert_pending(conn, rows)
            )
        return FillSummary(
            added=len(rows),
            skipped_cached=len(cached),
            skipped_queued=len(queued - cached),
        )

    @staticmethod
    def _insert_pending(
        conn: sqlite3.Connection,
        rows: List[Tuple[str, str, int, int, int, str, str]],
    ) -> None:
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.executemany(
                "INSERT OR IGNORE INTO jobs"
                " (digest, design, m, k, n, a, b)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                rows,
            )
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")

    #: Existence probes as complete literal templates per table —
    #: only the '?'-placeholder list is expanded at run time, never an
    #: identifier (REP002).
    _EXISTING_SQL = {
        "entries": "SELECT digest FROM entries WHERE digest IN ({})",
        "jobs": "SELECT digest FROM jobs WHERE digest IN ({})",
    }

    @classmethod
    def _existing(
        cls, conn: sqlite3.Connection, table: str, digests: List[str]
    ) -> set:
        template = cls._EXISTING_SQL.get(table)
        if template is None:
            raise QueueError(
                f"no existence probe for table {table!r}; "
                f"known: {', '.join(sorted(cls._EXISTING_SQL))}"
            )
        found: set = set()
        for start in range(0, len(digests), 500):
            chunk = digests[start:start + 500]
            placeholders = ",".join("?" * len(chunk))
            found.update(
                digest
                for (digest,) in conn.execute(
                    template.format(placeholders), chunk
                )
            )
        return found

    # --- claiming --------------------------------------------------------

    #: The claim's two selects, each read off the ``jobs_status`` index
    #: in rowid order. Merged by rowid, they give the same rows in the
    #: same order as one ``pending OR stale`` select, without that
    #: select's multi-index OR and its sort of every eligible row.
    _CLAIM_PENDING = (
        "SELECT rowid, digest, design, m, k, n, a, b, attempts"
        " FROM jobs WHERE status = 'pending'"
        " ORDER BY rowid LIMIT ?"
    )
    _CLAIM_STALE = (
        "SELECT rowid, digest, design, m, k, n, a, b, attempts"
        " FROM jobs WHERE status = 'claimed' AND lease_until < ?"
        " ORDER BY rowid LIMIT ?"
    )

    def claim_batch(
        self,
        worker_id: str,
        limit: int = DEFAULT_BATCH_SIZE,
        lease_s: float = DEFAULT_LEASE_S,
    ) -> List[Job]:
        """Transactionally claim up to ``limit`` cells for
        ``worker_id``.

        Eligible cells are pending rows plus claimed rows whose lease
        has expired (a crashed worker's strays — their ``attempts``
        counter records the reclaim), oldest row first. The
        select-and-stamp runs under one ``BEGIN IMMEDIATE``
        transaction, so concurrent workers partition the queue instead
        of double-claiming.
        """
        if limit < 1:
            raise QueueError(f"claim limit must be >= 1, got {limit}")
        now = self.clock()

        def txn() -> List[Tuple[Any, ...]]:
            conn = self._connect_locked()
            conn.execute("BEGIN IMMEDIATE")
            try:
                rows = conn.execute(
                    self._CLAIM_PENDING, (limit,)
                ).fetchall()
                stale = conn.execute(
                    self._CLAIM_STALE, (now, limit)
                ).fetchall()
                if stale:
                    rows = sorted(rows + stale)[:limit]
                if rows:
                    conn.executemany(
                        "UPDATE jobs SET status = 'claimed',"
                        " worker = ?, lease_until = ?,"
                        " attempts = attempts + 1"
                        " WHERE rowid = ?",
                        [
                            (worker_id, now + lease_s, row[0])
                            for row in rows
                        ],
                    )
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            conn.execute("COMMIT")
            return rows

        with self._lock:
            rows = cache_mod._retry_locked(txn)
        return [
            Job(
                digest=digest,
                design=design,
                workload=workload_from_columns(m, k, n, a, b),
                attempts=attempts + 1,
            )
            for _, digest, design, m, k, n, a, b, attempts in rows
        ]

    def renew(
        self,
        worker_id: str,
        digests: Sequence[str],
        lease_s: float = DEFAULT_LEASE_S,
    ) -> int:
        """Heartbeat: extend the lease on cells this worker still
        owns; returns how many it does (a shortfall means some were
        reclaimed — the worker should drop them)."""
        if not digests:
            return 0
        return self._transition(
            worker_id,
            digests,
            "UPDATE jobs SET lease_until = ?"
            " WHERE digest = ? AND status = 'claimed' AND worker = ?",
            lambda digest: (self.clock() + lease_s, digest, worker_id),
        )

    def complete(self, worker_id: str, digests: Sequence[str]) -> int:
        """Mark cells done; only rows still claimed by ``worker_id``
        transition (exactly-once completion). Returns the count that
        did — callers flush evaluated metrics to the cache *before*
        calling this, so ``done`` always implies a durable result."""
        return self._transition(
            worker_id,
            digests,
            "UPDATE jobs SET status = 'done', lease_until = NULL,"
            " error = NULL"
            " WHERE digest = ? AND status = 'claimed' AND worker = ?",
            lambda digest: (digest, worker_id),
        )

    def fail(
        self, worker_id: str, digests: Sequence[str], error: str
    ) -> int:
        """Mark cells failed with a diagnostic; same ownership guard
        as :meth:`complete`. ``requeue`` puts them back."""
        return self._transition(
            worker_id,
            digests,
            "UPDATE jobs SET status = 'failed', lease_until = NULL,"
            " error = ?"
            " WHERE digest = ? AND status = 'claimed' AND worker = ?",
            lambda digest: (error, digest, worker_id),
        )

    def release(self, worker_id: str) -> int:
        """Return every cell this worker still holds to ``pending``
        (the clean-shutdown path: a SIGINT'd worker hands its
        unfinished claims straight back instead of letting the lease
        run out)."""

        def txn() -> int:
            conn = self._connect_locked()
            conn.execute("BEGIN IMMEDIATE")
            try:
                cursor = conn.execute(
                    "UPDATE jobs SET status = 'pending', worker = NULL,"
                    " lease_until = NULL"
                    " WHERE status = 'claimed' AND worker = ?",
                    (worker_id,),
                )
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            conn.execute("COMMIT")
            return cursor.rowcount

        with self._lock:
            return cache_mod._retry_locked(txn)

    def _transition(
        self,
        worker_id: str,
        digests: Sequence[str],
        sql: str,
        params: Callable[[str], Tuple[Any, ...]],
    ) -> int:
        """Run ``sql`` with ``params(digest)`` for every digest as one
        ``executemany`` in one transaction; returns the summed rowcount
        (the rows the statement's ownership guard let through)."""
        if not digests:
            return 0

        def txn() -> int:
            conn = self._connect_locked()
            conn.execute("BEGIN IMMEDIATE")
            try:
                moved = conn.executemany(
                    sql, [params(digest) for digest in digests]
                ).rowcount
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            conn.execute("COMMIT")
            return moved

        with self._lock:
            return cache_mod._retry_locked(txn)

    # --- maintenance -----------------------------------------------------

    def requeue(
        self, failed: bool = True, stale: bool = False
    ) -> int:
        """Return failed (and, optionally, stale-claimed) cells to
        ``pending``; returns how many moved. Stale reclaim normally
        happens implicitly in :meth:`claim_batch` — the explicit form
        exists for operators resetting a queue by hand."""
        if not failed and not stale:
            return 0
        now = self.clock()

        def txn() -> int:
            # One transaction, one complete literal statement per
            # eligibility class (REP002: no clause concatenation) —
            # the rowcounts add because the WHERE conditions are
            # disjoint by status.
            conn = self._connect_locked()
            conn.execute("BEGIN IMMEDIATE")
            try:
                moved = 0
                if failed:
                    moved += conn.execute(
                        "UPDATE jobs SET status = 'pending',"
                        " worker = NULL, lease_until = NULL,"
                        " error = NULL WHERE status = 'failed'"
                    ).rowcount
                if stale:
                    moved += conn.execute(
                        "UPDATE jobs SET status = 'pending',"
                        " worker = NULL, lease_until = NULL,"
                        " error = NULL WHERE status = 'claimed'"
                        " AND lease_until < ?",
                        (now,),
                    ).rowcount
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            conn.execute("COMMIT")
            return moved

        with self._lock:
            return cache_mod._retry_locked(txn)

    def stats(self) -> QueueStats:
        with self._lock:
            conn = self._connect_locked()
            counts = dict(
                conn.execute(
                    "SELECT status, COUNT(*) FROM jobs GROUP BY status"
                )
            )
            (stale,) = conn.execute(
                "SELECT COUNT(*) FROM jobs"
                " WHERE status = 'claimed' AND lease_until < ?",
                (self.clock(),),
            ).fetchone()
        return QueueStats(
            pending=counts.get("pending", 0),
            claimed=counts.get("claimed", 0),
            done=counts.get("done", 0),
            failed=counts.get("failed", 0),
            stale=stale,
        )

    def workers(self) -> Dict[str, int]:
        """Live claim counts per worker id (``queue stats`` detail)."""
        with self._lock:
            conn = self._connect_locked()
            return dict(
                conn.execute(
                    "SELECT worker, COUNT(*) FROM jobs"
                    " WHERE status = 'claimed' GROUP BY worker"
                )
            )


class LeaseHeartbeat:
    """Background lease renewal for a worker's in-flight batch.

    While a worker evaluates a claimed batch it must keep the cells'
    leases fresh, or a long batch looks like a crash and other workers
    steal the cells mid-evaluation. ``start(digests)`` spawns a daemon
    thread that calls :meth:`JobStore.renew` every ``interval_s``
    (default: a quarter of the lease, so a renewal can fail several
    times before the lease actually lapses); ``stop()`` joins it.
    Renewal errors are swallowed: a heartbeat that cannot reach the
    database simply lets the lease expire, which is exactly the
    crash-recovery path — the cells get reclaimed, and the cache flush
    (which happens before ``complete``) keeps their results.

    The :class:`JobStore` lock makes sharing one store between the
    worker loop and this thread safe.
    """

    def __init__(
        self,
        store: JobStore,
        worker_id: str,
        lease_s: float = DEFAULT_LEASE_S,
        interval_s: Optional[float] = None,
    ) -> None:
        self.store = store
        self.worker_id = worker_id
        self.lease_s = lease_s
        if interval_s is None:
            interval_s = max(lease_s / 4.0, 0.05)
        self.interval_s = interval_s
        #: Total successful renewals, for worker run records.
        self.renewals = 0
        self._digests: Tuple[str, ...] = ()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self, digests: Sequence[str]) -> None:
        """Begin renewing ``digests``; replaces any previous batch."""
        self.stop()
        self._digests = tuple(digests)
        if not self._digests:
            return
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run,
            name=f"lease-heartbeat-{self.worker_id}",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop renewing and join the thread (idempotent)."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
        self._digests = ()

    def __enter__(self) -> "LeaseHeartbeat":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.renewals += self.store.renew(
                    self.worker_id, self._digests, self.lease_s
                )
            except Exception:
                # Best-effort: an unreachable database means the lease
                # lapses and the cells are reclaimed — by design.
                return


# --- grid enumeration ----------------------------------------------------


def grid_fill_pairs(
    designs: Sequence[str],
    a_degrees: Sequence[float],
    b_degrees: Sequence[float],
    m: int = 1024,
    k: int = 1024,
    n: int = 1024,
) -> List[Tuple[str, MatmulWorkload]]:
    """The (design, workload) cells of a synthetic degree grid —
    every candidate realization of every cell, exactly the pair set a
    single-process :meth:`~repro.eval.engine.SweepEngine.sweep` would
    evaluate, so a queue-filled cache equals a local fill's."""
    from repro.eval.engine import grid_cells

    pairs: List[Tuple[str, MatmulWorkload]] = []
    for cell in grid_cells(designs, a_degrees, b_degrees, m, k, n):
        pairs.extend(
            (cell.design, workload) for workload in cell.realize()
        )
    return pairs


def model_fill_pairs(
    model: Any,
    designs: Sequence[str],
    degrees: "Optional[Sequence[float]]" = None,
    profile: "Optional[Dict[str, float]]" = None,
) -> List[Tuple[str, MatmulWorkload]]:
    """The (design, workload) cells of a network sweep grid (the
    :func:`~repro.eval.experiments.sweep_model` pair set)."""
    from repro.eval.experiments import (
        _model_pairs,
        design_ladder,
        validate_profile,
    )

    if profile is not None:
        validate_profile(model, profile)
    pairs: List[Tuple[str, MatmulWorkload]] = []
    for design_name in designs:
        ladder = (
            tuple(degrees) if degrees is not None
            else design_ladder(design_name)
        )
        for degree in ladder:
            design_pairs, _ = _model_pairs(
                design_name, model, degree, profile
            )
            pairs.extend(design_pairs)
    return pairs


# --- queue introspection for the cache layer -----------------------------


def queue_counts(path: "str | Path") -> Optional[Dict[str, int]]:
    """Best-effort queue stats of one database file, or ``None`` when
    it has no ``jobs`` table (a plain cache file). Used by
    ``repro cache stats`` so queue databases are reported, not
    silently treated as cache-only files."""
    try:
        conn = cache_mod._sqlite_connect_ro(Path(path))
    except sqlite3.Error:
        return None
    try:
        present = conn.execute(
            "SELECT name FROM sqlite_master"
            " WHERE type = 'table' AND name = 'jobs'"
        ).fetchone()
        if not present:
            return None
        counts = dict(
            conn.execute(
                "SELECT status, COUNT(*) FROM jobs GROUP BY status"
            )
        )
        (stale,) = conn.execute(
            "SELECT COUNT(*) FROM jobs"
            " WHERE status = 'claimed' AND lease_until < ?",
            (time.time(),),
        ).fetchone()
    except sqlite3.Error:
        return None
    finally:
        conn.close()
    stats = QueueStats(
        pending=counts.get("pending", 0),
        claimed=counts.get("claimed", 0),
        done=counts.get("done", 0),
        failed=counts.get("failed", 0),
        stale=stale,
    )
    return stats.as_dict()
