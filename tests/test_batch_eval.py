"""The batch cost models (`repro.model.batch` and the designs'
``evaluate_batch``), pinned bit for bit to a frozen reference.

``tests/golden/metrics_reference.json`` holds, for every design and
every workload of :func:`_grid_workloads` (the Fig. 13 degree grid in
both orientations plus real DNN layer shapes), the codec-v2 blob of the
expected Metrics — cycles, utilization, breakdown values *and* key
order, and the strings riding on Metrics — plus the derived
``energy_pj``/``edp`` as ``float.hex()``, or ``null`` where the design
cannot process the workload. Every assertion is ``==``, never
``approx``. An intended model change regenerates the fixture with
``PYTHONPATH=src python tests/test_batch_eval.py``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import repro.accelerators  # noqa: F401 - populates the registry
from repro.accelerators.base import evaluate_workloads_batch
from repro.accelerators import REGISTRY
from repro.dnn.models import deit_small
from repro.eval import codec
from repro.energy.estimator import Estimator
from repro.errors import ModelError
from repro.eval.cache import MISS, PersistentCache
from repro.eval.engine import SweepEngine
from repro.eval.harness import realize_workloads
from repro.model.batch import ActivityMatrix, WorkloadBatch, as_vector
from repro.model.workload import MatmulWorkload, synthetic_workload

A_DEGREES = (0.0, 0.5, 0.625, 0.75)
B_DEGREES = (0.0, 0.25, 0.5, 0.75, 0.875)

REFERENCE = Path(__file__).parent / "golden" / "metrics_reference.json"


@pytest.fixture(scope="module")
def estimator():
    return Estimator()


def _grid_workloads(design_name):
    """Every realization of the synthetic degree grid plus a few DeiT
    layer shapes — the workload population a real sweep feeds the
    engine for one design."""
    workloads = []
    for (m, k, n), da, db in itertools.product(
        [(64, 128, 96), (256, 256, 256)], A_DEGREES, B_DEGREES
    ):
        workloads.extend(
            realize_workloads(design_name, da, db, m, k, n)
        )
    for layer in deit_small().layers[:3]:
        m, k, n = layer.gemm_shape()
        workloads.extend(
            realize_workloads(design_name, 0.5, 0.75, m, k, n)
        )
    return workloads


def reference_entry(metrics):
    """The fixture form of one result (``None`` when unsupported)."""
    if metrics is None:
        return None
    return {
        "blob": codec.encode_metrics(metrics).hex(),
        "energy_pj": metrics.energy_pj.hex(),
        "edp": metrics.edp.hex(),
    }


def compute_reference(evaluate=evaluate_workloads_batch):
    """``{design: [{"workload", "metrics"}, ...]}`` over the grid, with
    ``evaluate(design, workloads, estimator)`` as the cost model."""
    estimator = Estimator()
    reference = {}
    for name in REGISTRY.names():
        workloads = _grid_workloads(name)
        results = evaluate(REGISTRY[name].create(), workloads, estimator)
        reference[name] = [
            {"workload": w.describe(), "metrics": reference_entry(m)}
            for w, m in zip(workloads, results)
        ]
    return reference


def write_reference(evaluate=evaluate_workloads_batch):
    REFERENCE.write_text(
        json.dumps(compute_reference(evaluate), indent=1) + "\n"
    )


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


def _assert_matches(metrics, expected):
    """``metrics`` equals one fixture entry bit for bit."""
    if expected is None:
        assert metrics is None
        return
    assert metrics is not None
    blob = bytes.fromhex(expected["blob"])
    # The stashed blob (if any) and a fresh encoding of the fields.
    assert codec.encode_metrics(metrics) == blob
    assert codec.encode_metrics(dataclasses.replace(metrics)) == blob
    assert metrics.energy_pj.hex() == expected["energy_pj"]
    assert metrics.edp.hex() == expected["edp"]


class TestGoldenEquivalence:
    """Every design's cost model == the frozen reference, bit for bit."""

    def test_reference_covers_every_registered_design(self, reference):
        assert set(reference) == set(REGISTRY.names())

    @pytest.mark.parametrize("design_name", REGISTRY.names())
    def test_grid_and_dnn_shapes(
        self, design_name, estimator, reference
    ):
        design = REGISTRY[design_name].create()
        workloads = _grid_workloads(design_name)
        expected = reference[design_name]
        assert [w.describe() for w in workloads] == [
            entry["workload"] for entry in expected
        ]
        results = evaluate_workloads_batch(design, workloads, estimator)
        assert len(results) == len(expected)
        for metrics, entry in zip(results, expected):
            _assert_matches(metrics, entry["metrics"])

    @pytest.mark.parametrize("design_name", REGISTRY.names())
    def test_single_workload_batch(
        self, design_name, estimator, reference
    ):
        """``evaluate`` is a one-workload batch: same bits per row."""
        design = REGISTRY[design_name].create()
        for workload, entry in zip(
            _grid_workloads(design_name), reference[design_name]
        ):
            if entry["metrics"] is not None:
                _assert_matches(
                    design.evaluate(workload, estimator), entry["metrics"]
                )


class TestEngineBatchPath:
    """The engine routes misses through per-design chunks of one shared
    stack, and the chunking is invisible — in-memory, on disk, and in
    the stats."""

    GRID = dict(
        designs=("TC", "STC", "HighLight"),
        a_degrees=(0.0, 0.5, 0.75),
        b_degrees=(0.0, 0.5),
        m=64, k=64, n=64,
    )

    def _sweep_payload(self, tmp_path, chunk_rows=None):
        estimator = Estimator()
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend="json"
        )
        engine = SweepEngine(estimator, cache=cache)
        if chunk_rows is not None:
            engine.batch_chunk_rows = chunk_rows
        sweep = engine.sweep(**self.GRID)
        engine.close()
        payload = {
            cell_key: {
                design: None if m is None else (
                    m.cycles, m.energy_pj, m.workload,
                    list(m.energy_breakdown_pj.items()),
                )
                for design, m in cell.items()
            }
            for cell_key, cell in (
                (str(key), value)
                for key, value in sweep.cells.items()
            )
        }
        return payload, cache.path.read_bytes(), engine.stats

    def test_small_chunks_match_default(self, tmp_path):
        """Splitting every design group into many small chunks must be
        indistinguishable from the default chunking: same payload
        floats, and the persisted cache files must carry byte-identical
        blobs."""
        chunked_payload, chunked_file, chunked_stats = (
            self._sweep_payload(tmp_path / "chunked", chunk_rows=2)
        )
        default_payload, default_file, default_stats = (
            self._sweep_payload(tmp_path / "default")
        )
        assert json.dumps(chunked_payload, sort_keys=True) == json.dumps(
            default_payload, sort_keys=True
        )
        chunked_data = json.loads(chunked_file)
        default_data = json.loads(default_file)
        assert chunked_data["fingerprint"] == default_data["fingerprint"]
        assert codec.raw_from_columns(
            chunked_data["columns"]
        ) == codec.raw_from_columns(default_data["columns"])
        assert chunked_stats.misses == default_stats.misses
        assert chunked_stats.hits == default_stats.hits

    def test_interrupt_mid_batch_keeps_completed_chunks(
        self, tmp_path, monkeypatch
    ):
        """A kill between batch chunks must leave every *completed*
        chunk recorded in the persistent cache — the chunk bound is the
        interrupt-durability granularity."""
        estimator = Estimator()
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend="json"
        )
        engine = SweepEngine(estimator, cache=cache)
        engine.batch_chunk_rows = 4
        workloads = [
            synthetic_workload(0.5, 0.25, size=16 * (i + 1))
            for i in range(12)
        ]
        pairs = [("HighLight", w) for w in workloads]
        original = SweepEngine._evaluate_batch_chunk
        calls = []

        def bomb(self, design, chunk, stack):
            calls.append(len(chunk))
            if len(calls) == 3:
                raise KeyboardInterrupt
            return original(self, design, chunk, stack)

        monkeypatch.setattr(SweepEngine, "_evaluate_batch_chunk", bomb)
        with pytest.raises(KeyboardInterrupt):
            engine.evaluate_workloads(pairs)
        assert calls == [4, 4, 4]
        # The failure path flushed; a fresh cache must see exactly the
        # first two chunks' entries (plan order = submission order).
        fresh = PersistentCache.for_estimator(
            tmp_path, estimator, backend="json"
        )
        keys = [("HighLight", w.key()) for w in workloads]
        probed = fresh.get_many(keys)
        assert [entry is not MISS for entry in probed] == (
            [True] * 8 + [False] * 4
        )

    def test_batch_results_hit_like_scalar_results(self):
        engine = SweepEngine(Estimator())
        workload = synthetic_workload(0.5, 0.5, size=64)
        first = engine.evaluate_workloads([("HighLight", workload)])
        second = engine.evaluate_workloads([("HighLight", workload)])
        assert first[0] is second[0]
        assert engine.stats.misses == 1
        assert engine.stats.hits == 1


class TestWorkloadBatch:
    def test_rejects_empty(self):
        with pytest.raises(ModelError, match="at least one workload"):
            WorkloadBatch.from_workloads([])

    def test_stacked_arrays_mirror_workloads(self):
        workloads = [
            synthetic_workload(0.5, 0.25, size=64),
            synthetic_workload(0.0, 0.75, size=128),
        ]
        batch = WorkloadBatch.from_workloads(workloads)
        assert len(batch) == 2
        assert batch.m.tolist() == [64, 128]
        assert batch.dense_products.tolist() == [
            float(64 ** 3), float(128 ** 3)
        ]
        assert batch.mk.tolist() == [float(64 * 64), float(128 * 128)]
        assert batch.a_density.tolist() == [
            w.a.density for w in workloads
        ]

    def test_descriptions_match_scalar_describe(self):
        workloads = _grid_workloads("HighLight")[:8]
        batch = WorkloadBatch.from_workloads(workloads)
        assert batch.descriptions == [
            w.describe() for w in workloads
        ]

    def test_subset_preserves_order(self):
        workloads = [
            synthetic_workload(0.5, 0.25, size=s) for s in (32, 64, 96)
        ]
        sub = WorkloadBatch.from_workloads(workloads).subset([2, 0])
        assert [w.m for w in sub.workloads] == [96, 32]


class TestActivityMatrix:
    @pytest.fixture()
    def arch(self):
        return REGISTRY["TC"].shared.resources.arch

    def test_scalar_counts_broadcast(self):
        matrix = ActivityMatrix(3)
        matrix.add("macs", "mac", 5.0)
        matrix.add("macs", "mac", np.array([1.0, 2.0, 3.0]))
        assert matrix.counts[("macs", "mac")].tolist() == [
            6.0, 7.0, 8.0
        ]

    def test_rejects_non_positive_size(self):
        with pytest.raises(ModelError, match="batch size"):
            ActivityMatrix(0)

    def test_totals_match_row_sums_exactly(self, arch, estimator):
        matrix = ActivityMatrix(2)
        matrix.add("macs", "mac", np.array([10.0, 0.0]))
        matrix.add("glb_data", "read", np.array([3.0, 4.0]))
        matrix.add("glb_data", "write", 2.0)
        rows, totals = matrix.energy_rows(arch, estimator)
        assert len(rows) == 2
        for row, total in zip(rows, totals.tolist()):
            assert total == sum(row.values())

    def test_zero_count_events_absent_from_row(self, arch, estimator):
        """The presence rule: an event appears in a workload's
        breakdown iff its count is > 0."""
        matrix = ActivityMatrix(2)
        matrix.add("macs", "mac", np.array([10.0, 0.0]))
        matrix.add("glb_data", "read", 1.0)
        rows, _ = matrix.energy_rows(arch, estimator)
        assert "macs" in rows[0]
        assert "macs" not in rows[1]
        assert "glb_data" in rows[1]

    @pytest.mark.parametrize(
        "poison", (math.nan, math.inf, -1.0), ids=("nan", "inf", "neg")
    )
    def test_invalid_accumulated_counts_raise_at_energy_rows(
        self, arch, estimator, poison
    ):
        """Validation is deferred from add() to materialization, but
        poisoned counts still surface before any Metrics exist."""
        matrix = ActivityMatrix(2)
        matrix.add("macs", "mac", np.array([1.0, poison]))
        with pytest.raises(ModelError, match="invalid count for macs.mac"):
            matrix.energy_rows(arch, estimator)

    def test_as_vector_broadcasts_scalars(self):
        assert as_vector(2.5, 3).tolist() == [2.5, 2.5, 2.5]
        vec = np.array([1.0, 2.0])
        assert as_vector(vec, 2) is vec


class TestEstimatorVector:
    def test_energy_vector_matches_energy_pj(self, estimator):
        arch = REGISTRY["HighLight"].shared.resources.arch
        pairs = [
            (arch.component("macs"), "mac"),
            (arch.component("glb_data"), "read"),
            (arch.component("glb_data"), "write"),
            (arch.component("rf"), "read"),
        ]
        vector = estimator.energy_vector(pairs)
        assert vector.dtype == np.float64
        assert vector.tolist() == [
            estimator.energy_pj(component, action)
            for component, action in pairs
        ]

    def test_default_estimators_share_setup(self):
        """Default-constructed estimators share one table and plugin
        set, so identity-keyed caches hit across instances."""
        first, second = Estimator(), Estimator()
        assert first.table is second.table


class TestSharedRegistryInstances:
    def test_shared_is_memoized_create_is_not(self):
        assert REGISTRY["TC"].shared is REGISTRY["TC"].shared
        assert REGISTRY["TC"].create() is not REGISTRY["TC"].create()
        assert type(REGISTRY["TC"].create()) is type(REGISTRY["TC"].shared)


class TestStrippedWorkload:
    def test_stripped_drops_name_keeps_key(self):
        named = synthetic_workload(0.5, 0.25, size=64)
        assert named.name
        bare = named.stripped
        assert bare.name == ""
        assert bare.key() == named.key()
        assert bare.stripped is bare

    def test_nameless_workload_is_its_own_stripped(self):
        w = synthetic_workload(0.5, 0.25, size=64)
        bare = MatmulWorkload(m=w.m, k=w.k, n=w.n, a=w.a, b=w.b)
        assert bare.stripped is bare


if __name__ == "__main__":
    write_reference()
