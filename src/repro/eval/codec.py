"""Columnar wire codec for cached :class:`~repro.model.metrics.Metrics`.

Cache profiling after the batch-evaluation work showed the residual
cold/warm cost of a sweep is not model math but metrics serialization:
every flush paid one ``json.dumps(metrics_to_dict(...))`` per entry and
every warm load paid the matching parse + dict walk. This module packs
one Metrics into one little-endian binary blob instead::

    byte 0          codec version (2)
    byte 1          flags: bit0 = supported, bit1 = swapped
    8 + 8 bytes     cycles, utilization          (float64)
    4 x 4 bytes     lengths: design, workload, names block, n components
    variable        design utf-8 | workload utf-8 | NUL-joined names
    n x 8 bytes     component energies in breakdown key order (float64)

Numeric fields are stored as raw IEEE-754 doubles, so a decode returns
the *exact* floats that were encoded (no text round-trip), and the
component name block preserves breakdown key order — the equivalence
suite asserts ``==`` on decoded metrics including dict order.

Each store keeps these blobs in exactly one on-disk form: the SQLite
store as one ``BLOB`` row per entry, the JSON store as one columnar
block per file (see :func:`columns_from_raw`). A stored value in any
other form is corrupt cache content and decodes to
:class:`~repro.errors.CacheError`.
"""

from __future__ import annotations

import base64
import struct
from typing import Any, Dict, Optional

from repro.errors import CacheError
from repro.model.metrics import Metrics

#: Version byte of the packed-blob entry encoding.
METRICS_CODEC_VERSION = 2

_HEAD = struct.Struct("<BBdd")
_LENS = struct.Struct("<IIII")
#: Head + lengths packed in one call ('<' means no padding, so the
#: concatenated layout is byte-identical to packing them separately).
_HEAD_LENS = struct.Struct("<BBddIIII")
#: Energy-vector packers memoized per component count (parsing the
#: ``<{n}d`` format string each call costs more than the pack).
_VALUE_STRUCTS: Dict[int, struct.Struct] = {}


def _values_struct(n: int) -> struct.Struct:
    packer = _VALUE_STRUCTS.get(n)
    if packer is None:
        packer = _VALUE_STRUCTS[n] = struct.Struct(f"<{n}d")
    return packer


#: ``Metrics.__dict__`` key under which trusted batch assembly (see
#: ``repro.model.perf.build_metrics_batch``) stashes the precomputed
#: v2 blob of a freshly built Metrics. :func:`encode_metrics` returns
#: the stash verbatim; Metrics are frozen, so a stash can never go
#: stale, and ``dataclasses.replace`` drops it with the rest of the
#: non-field state.
BLOB_STASH = "_codec_blob"

#: Bounded utf-8 memo for the strings the encoders see repeatedly
#: (design names, workload descriptions shared across designs).
_UTF8_MEMO: Dict[str, bytes] = {}


def utf8(text: str) -> bytes:
    """Memoized ``text.encode("utf-8")``."""
    data = _UTF8_MEMO.get(text)
    if data is None:
        if len(_UTF8_MEMO) >= 8192:
            _UTF8_MEMO.clear()
        data = _UTF8_MEMO[text] = text.encode("utf-8")
    return data


def pack_blob(
    flags: int,
    cycles: float,
    utilization: float,
    design: bytes,
    workload: bytes,
    names: bytes,
    values: bytes,
    n: int,
) -> bytes:
    """Assemble a v2 blob from pre-encoded columns (the batch
    assembler's entry point — ``values`` must be ``n`` little-endian
    float64s, ``names`` the NUL-joined component block)."""
    return b"".join(
        (
            _HEAD_LENS.pack(
                METRICS_CODEC_VERSION,
                flags,
                cycles,
                utilization,
                len(design),
                len(workload),
                len(names),
                n,
            ),
            design,
            workload,
            names,
            values,
        )
    )


def encode_metrics(metrics: Metrics) -> bytes:
    """One Metrics as a v2 packed blob (see the module layout)."""
    blob = metrics.__dict__.get(BLOB_STASH)
    if blob is not None:
        return blob
    breakdown = metrics.energy_breakdown_pj
    design = metrics.design.encode("utf-8")
    workload = metrics.workload.encode("utf-8")
    names = "\0".join(breakdown).encode("utf-8")
    flags = (1 if metrics.supported else 0) | (
        2 if metrics.swapped else 0
    )
    n = len(breakdown)
    return b"".join(
        (
            _HEAD_LENS.pack(
                METRICS_CODEC_VERSION,
                flags,
                metrics.cycles,
                metrics.utilization,
                len(design),
                len(workload),
                len(names),
                n,
            ),
            design,
            workload,
            names,
            _values_struct(n).pack(*breakdown.values()),
        )
    )


def decode_blob(blob: bytes) -> Metrics:
    """The Metrics a v2 blob encodes, bit-exact.

    Construction is *trusted*: the dataclass ``__init__`` and its
    ``__post_init__`` range checks are bypassed (the blob was encoded
    from an already-validated Metrics, and skipping re-validation is
    most of the warm-load win). Structural corruption — a value that
    is not bytes at all, a bad version byte, truncated payload,
    mismatched name count — still raises
    :class:`~repro.errors.CacheError`, which the best-effort runtime
    readers treat like any other corrupt cache content.
    """
    try:
        version, flags, cycles, utilization = _HEAD.unpack_from(blob, 0)
        if version != METRICS_CODEC_VERSION:
            raise CacheError(
                f"unsupported metrics codec version {version}"
            )
        dlen, wlen, nlen, n = _LENS.unpack_from(blob, _HEAD.size)
        offset = _HEAD.size + _LENS.size
        design = blob[offset:offset + dlen].decode("utf-8")
        offset += dlen
        workload = blob[offset:offset + wlen].decode("utf-8")
        offset += wlen
        names_block = blob[offset:offset + nlen].decode("utf-8")
        offset += nlen
        values = _values_struct(n).unpack_from(blob, offset)
    except CacheError:
        raise
    except (struct.error, UnicodeDecodeError, TypeError) as error:
        raise CacheError(f"corrupt metrics blob: {error}")
    names = names_block.split("\0") if nlen else []
    if len(names) != n:
        raise CacheError(
            f"corrupt metrics blob: {n} energies, {len(names)} names"
        )
    metrics = object.__new__(Metrics)
    metrics.__dict__.update(
        design=design,
        workload=workload,
        cycles=cycles,
        energy_breakdown_pj=dict(zip(names, values)),
        utilization=utilization,
        supported=bool(flags & 1),
        swapped=bool(flags & 2),
    )
    return metrics


# --- SQLite store rows ---------------------------------------------------


def decode_sqlite_value(value: Optional[bytes]) -> Optional[Metrics]:
    """A SQLite ``metrics`` column value back to Metrics (``NULL`` is a
    cached unsupported verdict)."""
    return None if value is None else decode_blob(value)


# --- columnar block (JSON store schema 2) --------------------------------
#
# The JSON store's file form keeps all entries in one columnar block: a
# space-joined digest column, a per-entry length column, and a single
# base64 string of every v2 blob concatenated in digest order. One
# base64 encode/decode covers the whole file, and a length of 0 marks a
# cached ``None`` verdict — a real v2 blob is never empty (its fixed
# header alone is 34 bytes).


def columns_from_raw(
    entries: Dict[str, Optional[bytes]]
) -> Dict[str, Any]:
    """A digest -> raw-blob mapping as the columnar block dict."""
    lengths: list = []
    blobs: list = []
    for blob in entries.values():
        if blob is None:
            lengths.append(0)
        else:
            lengths.append(len(blob))
            blobs.append(blob)
    return {
        "digests": " ".join(entries),
        "lengths": lengths,
        "blob": base64.b64encode(b"".join(blobs)).decode("ascii"),
    }


def raw_from_columns(
    columns: Dict[str, Any]
) -> Dict[str, Optional[bytes]]:
    """A columnar block back to the digest -> raw-blob mapping.

    Loud: any structural inconsistency — missing keys, digest/length
    count mismatch, a blob shorter or longer than the lengths claim —
    raises :class:`~repro.errors.CacheError`. Best-effort callers wrap
    this in their usual corruption handling.
    """
    try:
        digest_block = columns["digests"]
        lengths = columns["lengths"]
        blob = base64.b64decode(columns["blob"], validate=True)
    except (KeyError, TypeError, ValueError) as error:
        raise CacheError(f"corrupt columnar cache block: {error}")
    digests = digest_block.split() if digest_block else []
    if len(digests) != len(lengths):
        raise CacheError(
            f"corrupt columnar cache block: {len(digests)} digests, "
            f"{len(lengths)} lengths"
        )
    entries: Dict[str, Optional[bytes]] = {}
    offset = 0
    for digest, length in zip(digests, lengths):
        if not isinstance(length, int) or length < 0:
            raise CacheError(
                f"corrupt columnar cache block: bad length {length!r}"
            )
        if length == 0:
            entries[digest] = None
        else:
            entries[digest] = blob[offset:offset + length]
            offset += length
    if offset != len(blob):
        raise CacheError(
            f"corrupt columnar cache block: lengths cover {offset} "
            f"bytes, blob holds {len(blob)}"
        )
    return entries

