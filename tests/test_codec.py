"""The packed metrics codec (`repro.eval.codec`).

The codec's contract is *exactness*: a decode returns the same floats
that were encoded (raw IEEE-754, no text round-trip) and preserves
energy-breakdown key order, so every equality here is ``==``.
Structural corruption — including a leftover legacy form such as a v1
SQLite TEXT row — must surface as :class:`~repro.errors.CacheError`,
never a silent wrong answer.
"""

from __future__ import annotations

import base64
import dataclasses
import json

import pytest

import repro.accelerators  # noqa: F401 - populates the registry
from repro.accelerators.base import evaluate_workloads_batch
from repro.accelerators import REGISTRY
from repro.energy.estimator import Estimator
from repro.errors import CacheError
from repro.eval import codec
from repro.model.metrics import Metrics
from repro.model.workload import synthetic_workload
from repro.serialization import metrics_to_dict


@pytest.fixture(scope="module")
def estimator():
    return Estimator()


@pytest.fixture(scope="module")
def metrics(estimator):
    design = REGISTRY["HighLight"].shared
    workload = synthetic_workload(0.5, 0.25, size=128)
    return design.evaluate(workload, estimator)


def _assert_exact(a: Metrics, b: Metrics) -> None:
    assert a == b
    # Dict equality is order-insensitive; the render/serialize paths
    # are not, so key order is part of the contract.
    assert list(a.energy_breakdown_pj) == list(b.energy_breakdown_pj)
    assert a.energy_pj == b.energy_pj
    assert a.edp == b.edp


class TestBlobRoundTrip:
    def test_decode_is_bit_exact(self, metrics):
        _assert_exact(codec.decode_blob(codec.encode_metrics(metrics)), metrics)

    def test_flags_round_trip(self, metrics):
        for supported, swapped in (
            (True, True), (True, False), (False, True), (False, False)
        ):
            variant = dataclasses.replace(
                metrics, supported=supported, swapped=swapped
            )
            decoded = codec.decode_blob(codec.encode_metrics(variant))
            assert decoded.supported is supported
            assert decoded.swapped is swapped

    def test_non_ascii_strings_round_trip(self, metrics):
        variant = dataclasses.replace(
            metrics, design="TensorCore-µ", workload="résumé 128³"
        )
        decoded = codec.decode_blob(codec.encode_metrics(variant))
        assert decoded.design == variant.design
        assert decoded.workload == variant.workload

    def test_pack_blob_matches_encode_metrics(self, metrics):
        """The batch assembler's column entry point and the scalar
        encoder must produce identical bytes for the same Metrics."""
        breakdown = metrics.energy_breakdown_pj
        values = codec._values_struct(len(breakdown)).pack(
            *breakdown.values()
        )
        packed = codec.pack_blob(
            (1 if metrics.supported else 0)
            | (2 if metrics.swapped else 0),
            metrics.cycles,
            metrics.utilization,
            codec.utf8(metrics.design),
            codec.utf8(metrics.workload),
            codec.utf8("\0".join(breakdown)),
            values,
            len(breakdown),
        )
        assert packed == codec.encode_metrics(metrics)

    def test_batch_stash_matches_fresh_encode(self, estimator):
        """Metrics built by the vectorized path carry a pre-packed
        blob; encode_metrics must return exactly what a from-scratch
        encode of the same (stash-free) Metrics would."""
        design = REGISTRY["HighLight"].shared
        workloads = [
            synthetic_workload(0.5, 0.25, size=size)
            for size in (64, 128, 256)
        ]
        batch = [
            m for m in evaluate_workloads_batch(
                design, workloads, estimator
            )
            if m is not None
        ]
        assert batch
        for m in batch:
            assert codec.BLOB_STASH in m.__dict__
            bare = dataclasses.replace(m)  # drops the stash
            assert codec.BLOB_STASH not in bare.__dict__
            assert codec.encode_metrics(m) == codec.encode_metrics(bare)
            _assert_exact(codec.decode_blob(codec.encode_metrics(m)), m)


class TestBlobCorruption:
    def test_unknown_version_refused(self, metrics):
        blob = bytearray(codec.encode_metrics(metrics))
        blob[0] = 9
        with pytest.raises(CacheError, match="codec version 9"):
            codec.decode_blob(bytes(blob))

    def test_truncated_blob_refused(self, metrics):
        blob = codec.encode_metrics(metrics)
        with pytest.raises(CacheError, match="corrupt metrics blob"):
            codec.decode_blob(blob[: len(blob) - 3])

    def test_name_count_mismatch_refused(self, metrics):
        blob = bytearray(codec.encode_metrics(metrics))
        # Corrupt the names block: NUL out a separator-adjacent byte so
        # the split yields a different name count than the header's n.
        names = "\0".join(metrics.energy_breakdown_pj).encode()
        start = bytes(blob).index(names)
        blob[start] = 0
        with pytest.raises(CacheError, match="names"):
            codec.decode_blob(bytes(blob))

    def test_non_bytes_value_refused(self):
        for value in ("text", 42, 1.5):
            with pytest.raises(CacheError, match="corrupt metrics blob"):
                codec.decode_blob(value)


class TestLegacyForms:
    def test_v1_sqlite_text_row_refused(self, metrics):
        text = json.dumps(metrics_to_dict(metrics))
        with pytest.raises(CacheError, match="corrupt metrics blob"):
            codec.decode_sqlite_value(text)

    def test_none_passes_through_every_decoder(self):
        assert codec.decode_sqlite_value(None) is None


class TestColumnarBlock:
    def _raw(self, metrics):
        blob = codec.encode_metrics(metrics)
        other = codec.encode_metrics(
            dataclasses.replace(metrics, workload="other 64x64x64")
        )
        return {"aa" * 8: blob, "bb" * 8: None, "cc" * 8: other}

    def test_round_trip_preserves_entries_and_order(self, metrics):
        raw = self._raw(metrics)
        columns = codec.columns_from_raw(raw)
        decoded = codec.raw_from_columns(columns)
        assert decoded == raw
        assert list(decoded) == list(raw)

    def test_empty_mapping_round_trips(self):
        assert codec.raw_from_columns(codec.columns_from_raw({})) == {}

    def test_none_only_mapping_round_trips(self):
        raw = {"aa" * 8: None}
        assert codec.raw_from_columns(codec.columns_from_raw(raw)) == raw

    def test_missing_key_refused(self):
        with pytest.raises(CacheError, match="corrupt columnar"):
            codec.raw_from_columns({"digests": "", "lengths": []})

    def test_invalid_base64_refused(self, metrics):
        columns = codec.columns_from_raw(self._raw(metrics))
        columns["blob"] = "!!not base64!!"
        with pytest.raises(CacheError, match="corrupt columnar"):
            codec.raw_from_columns(columns)

    def test_count_mismatch_refused(self, metrics):
        columns = codec.columns_from_raw(self._raw(metrics))
        columns["digests"] += " dd" + "dd" * 7
        with pytest.raises(CacheError, match="digests"):
            codec.raw_from_columns(columns)

    def test_bad_length_refused(self, metrics):
        columns = codec.columns_from_raw(self._raw(metrics))
        columns["lengths"][0] = -4
        with pytest.raises(CacheError, match="bad length"):
            codec.raw_from_columns(columns)

    def test_trailing_bytes_refused(self, metrics):
        columns = codec.columns_from_raw(self._raw(metrics))
        blob = base64.b64decode(columns["blob"])
        columns["blob"] = base64.b64encode(blob + b"xx").decode()
        with pytest.raises(CacheError, match="lengths cover"):
            codec.raw_from_columns(columns)

    def test_short_blob_refused(self, metrics):
        columns = codec.columns_from_raw(self._raw(metrics))
        blob = base64.b64decode(columns["blob"])
        columns["blob"] = base64.b64encode(blob[:-8]).decode()
        with pytest.raises(CacheError, match="lengths cover"):
            codec.raw_from_columns(columns)

