"""TC: the dense tensor-core-like baseline (paper Sec. 7.1.1).

Oblivious to sparsity: every product is scheduled and every operand word
stored and moved uncompressed. Zero sparsity tax, zero sparsity benefit
— the normalization baseline for every figure.
"""

from __future__ import annotations

from typing import List

from repro.accelerators.base import AcceleratorDesign, register_design
from repro.arch.designs import tc_resources
from repro.energy.estimator import Estimator
from repro.model.batch import WorkloadBatch
from repro.model.perf import build_metrics, build_metrics_batch
from repro.model.metrics import Metrics
from repro.model.workload import MatmulWorkload


@register_design(category="dense", sparsity_side="none",
                 table4_order=0, main_evaluation=True)
class TC(AcceleratorDesign):
    """Dense accelerator: 320 KB GLB, 4 x 2 KB RF, 1024 MACs."""

    name = "TC"
    batch_capable = True

    def __init__(self) -> None:
        super().__init__(tc_resources())

    @property
    def supported_patterns(self) -> str:
        return "A: dense; B: dense"

    def supports(self, workload: MatmulWorkload) -> bool:
        # A dense design processes anything (zeros are just values).
        return True

    def evaluate(
        self, workload: MatmulWorkload, estimator: Estimator
    ) -> Metrics:
        scheduled = float(workload.dense_products)
        a_words = float(workload.m * workload.k)
        b_words = float(workload.k * workload.n)
        return build_metrics(
            workload=workload,
            resources=self.resources,
            estimator=estimator,
            scheduled_products=scheduled,
            utilization=1.0,
            full_macs=scheduled,
            a_stored_words=a_words,
            b_stored_words=b_words,
            b_fetch_words=scheduled / self.resources.operand_reuse,
        )

    def evaluate_batch(
        self, batch: WorkloadBatch, estimator: Estimator
    ) -> List[Metrics]:
        scheduled = batch.dense_products
        return build_metrics_batch(
            batch=batch,
            resources=self.resources,
            estimator=estimator,
            scheduled_products=scheduled,
            utilization=1.0,
            full_macs=scheduled,
            a_stored_words=batch.mk,
            b_stored_words=batch.kn,
            b_fetch_words=scheduled / self.resources.operand_reuse,
        )
