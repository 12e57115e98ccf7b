"""The vectorized batch-evaluation path (`repro.model.batch` and the
designs' ``evaluate_batch``).

The batch path's contract is *bit-exactness* against the scalar
reference implementation — every assertion here is ``==``, never
``approx``: cycles, utilization, energy breakdown values *and* key
order, derived energy/EDP, and the strings riding on Metrics. The
equivalence classes cover the full Fig. 13 degree grid (both
orientations, supported and unsupported realizations) plus real DNN
layer shapes for all six designs.
"""

from __future__ import annotations

import itertools
import json
import math

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

BATCH_DESIGNS = tuple(
    name for name in REGISTRY.names()
    if REGISTRY[name].shared.batch_capable
)


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


def _assert_identical(scalar, batch):
    assert (scalar is None) == (batch is None)
    if scalar is None:
        return
    assert scalar.design == batch.design
    assert scalar.workload == batch.workload
    assert scalar.cycles == batch.cycles
    assert scalar.utilization == batch.utilization
    # Key order matters: breakdowns are rendered and serialized in
    # insertion order, so dict equality alone would under-assert.
    assert list(scalar.energy_breakdown_pj.items()) == list(
        batch.energy_breakdown_pj.items()
    )
    assert scalar.energy_pj == batch.energy_pj
    assert scalar.edp == batch.edp
    assert scalar.ed2 == batch.ed2
    assert scalar.supported == batch.supported
    assert scalar.swapped == batch.swapped


class TestGoldenEquivalence:
    """evaluate_workloads_batch == the scalar path, bit for bit."""

    @pytest.mark.parametrize("design_name", BATCH_DESIGNS)
    def test_grid_and_dnn_shapes(self, design_name, estimator):
        design = REGISTRY[design_name].create()
        workloads = _grid_workloads(design_name)
        assert workloads  # the grid must exercise the design
        scalar = [
            design.evaluate(w, estimator)
            if design.supports(w) else None
            for w in workloads
        ]
        batch = evaluate_workloads_batch(design, workloads, estimator)
        assert len(batch) == len(scalar)
        for s, b in zip(scalar, batch):
            _assert_identical(s, b)

    @pytest.mark.parametrize("design_name", BATCH_DESIGNS)
    def test_single_workload_batch(self, design_name, estimator):
        """Batch size 1 is the scalar case in batch clothing."""
        design = REGISTRY[design_name].create()
        for workload in _grid_workloads(design_name):
            if design.supports(workload):
                break
        else:
            pytest.skip("no supported realization")
        (batch,) = evaluate_workloads_batch(
            design, [workload], estimator
        )
        _assert_identical(design.evaluate(workload, estimator), batch)

    def test_all_main_designs_are_batch_capable(self):
        assert set(BATCH_DESIGNS) == set(REGISTRY.names())


class TestEngineBatchPath:
    """The engine routes misses through the batch path and the result
    is indistinguishable from the scalar route — in-memory, on disk,
    and in the stats."""

    GRID = dict(
        designs=("TC", "STC", "HighLight"),
        a_degrees=(0.0, 0.5, 0.75),
        b_degrees=(0.0, 0.5),
        m=64, k=64, n=64,
    )

    def _sweep_payload(self, tmp_path, use_batch, chunk_rows=None):
        estimator = Estimator()
        cache = PersistentCache.for_estimator(
            tmp_path, estimator, backend="json"
        )
        engine = SweepEngine(estimator, cache=cache, use_batch=use_batch)
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

    def test_batch_and_scalar_routes_are_byte_identical(self, tmp_path):
        batch_payload, batch_file, batch_stats = self._sweep_payload(
            tmp_path / "batch", use_batch=True
        )
        scalar_payload, scalar_file, scalar_stats = self._sweep_payload(
            tmp_path / "scalar", use_batch=False
        )
        assert json.dumps(batch_payload, sort_keys=True) == json.dumps(
            scalar_payload, sort_keys=True
        )
        # The batch route records misses grouped by design, so the two
        # files may list entries in a different order — but digest for
        # digest the encoded blobs must match byte for byte.
        batch_data = json.loads(batch_file)
        scalar_data = json.loads(scalar_file)
        assert batch_data["fingerprint"] == scalar_data["fingerprint"]
        batch_raw = codec.raw_from_columns(batch_data["columns"])
        scalar_raw = codec.raw_from_columns(scalar_data["columns"])
        assert batch_raw == scalar_raw
        assert batch_stats.misses == scalar_stats.misses
        assert batch_stats.hits == scalar_stats.hits

    def test_small_chunks_match_scalar(self, tmp_path):
        """Splitting every design group into many small chunks must be
        indistinguishable from the scalar route: same payload floats,
        and the persisted cache files must carry byte-identical
        blobs."""
        chunked_payload, chunked_file, chunked_stats = (
            self._sweep_payload(
                tmp_path / "chunked", use_batch=True, chunk_rows=2,
            )
        )
        scalar_payload, scalar_file, scalar_stats = self._sweep_payload(
            tmp_path / "scalar", use_batch=False
        )
        assert json.dumps(chunked_payload, sort_keys=True) == json.dumps(
            scalar_payload, sort_keys=True
        )
        chunked_raw = codec.raw_from_columns(
            json.loads(chunked_file)["columns"]
        )
        scalar_raw = codec.raw_from_columns(
            json.loads(scalar_file)["columns"]
        )
        assert chunked_raw == scalar_raw
        assert chunked_stats.misses == scalar_stats.misses

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
        engine = SweepEngine(estimator, cache=cache, use_batch=True)
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

    def test_non_batch_capable_design_falls_back(self, monkeypatch):
        engine = SweepEngine(Estimator())
        design_cls = type(engine.design("TC"))
        monkeypatch.setattr(design_cls, "batch_capable", False)
        workload = synthetic_workload(0.0, 0.0, size=64)
        (metrics,) = engine.evaluate_workloads([("TC", workload)])
        # The engine caches content-keyed (name-stripped) workloads,
        # so compare against the stripped scalar evaluation.
        reference = REGISTRY["TC"].create().evaluate(
            workload.stripped, engine.estimator
        )
        _assert_identical(reference, metrics)

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
        """The scalar accumulator's presence rule: an event appears in
        a workload's breakdown iff its count is > 0."""
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
