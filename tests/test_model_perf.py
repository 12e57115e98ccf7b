"""Tests for the shared GEMM cost assembly (build_metrics_batch)."""

import numpy as np
import pytest

from repro.arch.designs import highlight_resources, tc_resources
from repro.errors import ModelError
from repro.model.batch import WorkloadBatch
from repro.model.perf import build_metrics_batch, cycle_count
from repro.model.workload import (
    MatmulWorkload,
    dense_operand,
)


def workload():
    return MatmulWorkload(
        m=64, k=64, n=64, a=dense_operand(), b=dense_operand(), name="t"
    )


def assemble(estimator, **overrides):
    defaults = dict(
        batch=WorkloadBatch.from_workloads([workload()]),
        resources=tc_resources(),
        estimator=estimator,
        scheduled_products=64.0**3,
        utilization=1.0,
        full_macs=64.0**3,
        a_stored_words=64.0 * 64,
        b_stored_words=64.0 * 64,
        b_fetch_words=64.0**3 / 32,
    )
    defaults.update(overrides)
    # Counts broadcast; scheduled products are the per-workload vector.
    defaults["scheduled_products"] = np.atleast_1d(
        defaults["scheduled_products"]
    )
    (metrics,) = build_metrics_batch(**defaults)
    return metrics


class TestComputeCycles:
    def test_basic(self):
        assert cycle_count(2048, 1024, 1.0) == 2.0

    def test_utilization_inflates(self):
        assert cycle_count(2048, 1024, 0.5) == 4.0

    def test_rejects_zero_work(self):
        with pytest.raises(ModelError):
            cycle_count(0, 1024, 1.0)


class TestBuildMetrics:
    def test_cycles_from_schedule(self, estimator):
        metrics = assemble(estimator)
        assert metrics.cycles == pytest.approx(64.0**3 / 1024)

    def test_all_components_costed(self, estimator):
        metrics = assemble(estimator)
        for component in ("macs", "glb_data", "rf", "tc_dram"):
            assert metrics.energy_breakdown_pj[component] > 0

    def test_gated_macs_cheaper(self, estimator):
        full = assemble(estimator)
        gated = assemble(
            estimator, full_macs=0.0, gated_macs=64.0**3
        )
        assert (
            gated.energy_breakdown_pj["macs"]
            < full.energy_breakdown_pj["macs"] / 10
        )

    def test_metadata_requires_glb_meta(self, estimator):
        with pytest.raises(ModelError):
            assemble(estimator, a_meta_words=100.0)  # TC has no glb_meta

    def test_metadata_on_sparse_design(self, estimator):
        metrics = assemble(
            estimator,
            resources=highlight_resources(),
            a_meta_words=128.0,
        )
        assert metrics.energy_breakdown_pj["glb_meta"] > 0

    def test_saf_events_routed(self, estimator):
        metrics = assemble(
            estimator,
            resources=highlight_resources(),
            saf_events=[("rank0_mux", "select", 1000.0)],
        )
        assert metrics.energy_breakdown_pj["rank0_mux"] > 0

    def test_unknown_saf_component_rejected(self, estimator):
        with pytest.raises(Exception):
            assemble(
                estimator,
                saf_events=[("warp_scheduler", "select", 1.0)],
            )

    def test_psum_default_uses_spatial_reduction(self, estimator):
        metrics = assemble(estimator)
        rf_energy = metrics.energy_breakdown_pj["rf"]
        explicit = assemble(
            estimator, psum_updates=64.0**3 / 32
        ).energy_breakdown_pj["rf"]
        assert rf_energy == pytest.approx(explicit)

    def test_compression_events(self, estimator):
        metrics = assemble(
            estimator,
            resources=highlight_resources(),
            compress_values=1000.0,
        )
        assert metrics.energy_breakdown_pj["compression_unit"] > 0

    def test_dram_write_counts_outputs(self, estimator):
        metrics = assemble(estimator)
        dram_pj = metrics.energy_breakdown_pj["tc_dram"]
        table = estimator.table
        expected_min = 64 * 64 * table.dram_write_pj
        assert dram_pj >= expected_min
