"""Scalar vs batch evaluation of the analytical model, head to head.

The engine's sweep benchmarks (`bench_network_sweep.py`,
`bench_fig13.py`) time the whole pipeline — realization, caching,
persistence. This module isolates the model itself: the same workload
population evaluated once through the scalar reference path and once
through each design's vectorized ``evaluate_batch``, so the per-design
batching win is visible on its own. The two paths are bit-identical
(`tests/test_batch_eval.py` asserts it); here we only measure.
"""

import itertools

import pytest
from conftest import emit

import repro.accelerators  # noqa: F401 - populates the registry
from repro.accelerators.base import evaluate_workloads_batch
from repro.accelerators import REGISTRY
from repro.eval.harness import realize_workloads

#: The Fig. 13 degree grid over a spread of GEMM shapes — enough
#: workloads per design that vector setup costs amortize like they do
#: in a real sweep.
A_DEGREES = (0.0, 0.5, 0.625, 0.75)
B_DEGREES = (0.0, 0.25, 0.5, 0.75, 0.875)
SHAPES = ((64, 128, 96), (256, 256, 256), (1024, 1024, 1024))


def _workloads(design_name):
    workloads = []
    for (m, k, n), da, db in itertools.product(
        SHAPES, A_DEGREES, B_DEGREES
    ):
        workloads.extend(
            realize_workloads(design_name, da, db, m, k, n)
        )
    return workloads


@pytest.mark.parametrize("design_name", sorted(REGISTRY.names()))
def test_scalar_eval(benchmark, estimator, design_name):
    design = REGISTRY[design_name].shared
    workloads = _workloads(design_name)

    def run():
        return [
            design.evaluate(w, estimator)
            if design.supports(w) else None
            for w in workloads
        ]

    results = benchmark(run)
    emit(
        f"Scalar eval [{design_name}]",
        f"{len(workloads)} workloads, "
        f"{sum(r is not None for r in results)} supported",
    )


@pytest.mark.parametrize("design_name", sorted(REGISTRY.names()))
def test_batch_eval(benchmark, estimator, design_name):
    design = REGISTRY[design_name].shared
    if not design.batch_capable:
        pytest.skip(f"{design_name} has no batch path")
    workloads = _workloads(design_name)

    def run():
        return evaluate_workloads_batch(design, workloads, estimator)

    results = benchmark(run)
    emit(
        f"Batch eval [{design_name}]",
        f"{len(workloads)} workloads, "
        f"{sum(r is not None for r in results)} supported",
    )
