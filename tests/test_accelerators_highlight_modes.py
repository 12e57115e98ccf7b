"""Tests for HighLight's operand-B mode selection (dense vs compressed)."""

import pytest

from repro.accelerators import HighLight
from repro.model.batch import WorkloadBatch
from repro.model.workload import (
    MatmulWorkload,
    hss_operand,
    unstructured_operand,
)
from repro.sparsity import HSSPattern


def workload(b_sparsity, size=512):
    return MatmulWorkload(
        m=size, k=size, n=size,
        a=hss_operand(HSSPattern.from_ratios((2, 4), (4, 4))),
        b=unstructured_operand(b_sparsity),
    )


def mode(design, workload, estimator, compress_b):
    """The workload costed in one operand-B mode."""
    batch = WorkloadBatch.from_workloads([workload])
    return design._evaluate_batch(batch, estimator, compress_b)[0]


class TestBModeSelection:
    def test_compression_chosen_for_sparse_b(self, estimator):
        """At 60% B sparsity the compressed mode stores/moves less."""
        design = HighLight()
        chosen = design.evaluate(workload(0.6), estimator)
        dense_mode = mode(design, workload(0.6), estimator, False)
        compressed = mode(design, workload(0.6), estimator, True)
        assert compressed.edp < dense_mode.edp
        assert chosen.edp == compressed.edp

    def test_dense_mode_chosen_for_near_dense_b(self, estimator):
        """At 10% B sparsity the metadata + compression-unit overhead
        outweighs the savings: the hardware streams B uncompressed."""
        design = HighLight()
        chosen = design.evaluate(workload(0.1), estimator)
        dense_mode = mode(design, workload(0.1), estimator, False)
        compressed = mode(design, workload(0.1), estimator, True)
        assert dense_mode.edp < compressed.edp
        assert chosen.edp == dense_mode.edp

    def test_gating_active_in_both_modes(self, estimator):
        """Zero detection at the MACs is independent of compression."""
        design = HighLight()
        dense_mode = mode(design, workload(0.6), estimator, False)
        no_sparsity = mode(design, workload(0.0), estimator, False)
        assert (
            dense_mode.energy_breakdown_pj["macs"]
            < no_sparsity.energy_breakdown_pj["macs"]
        )

    def test_cycles_identical_across_modes(self, estimator):
        """B handling never changes the schedule (gating only)."""
        design = HighLight()
        dense_mode = mode(design, workload(0.6), estimator, False)
        compressed = mode(design, workload(0.6), estimator, True)
        assert dense_mode.cycles == pytest.approx(compressed.cycles)

    def test_dense_b_single_variant(self, estimator):
        design = HighLight()
        metrics = design.evaluate(workload(0.0), estimator)
        assert metrics.energy_pj > 0
