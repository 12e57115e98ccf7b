"""The analytical cost models on their own, one design at a time.

The engine's sweep benchmarks (`bench_network_sweep.py`,
`bench_fig13.py`) time the whole pipeline — realization, caching,
persistence. This module isolates the model itself: a Fig. 13-style
workload population evaluated through each design's ``evaluate_batch``
(`tests/test_batch_eval.py` pins the results to a frozen reference;
here we only measure).
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
def test_batch_eval(benchmark, estimator, design_name):
    design = REGISTRY[design_name].shared
    workloads = _workloads(design_name)

    def run():
        return evaluate_workloads_batch(design, workloads, estimator)

    results = benchmark(run)
    emit(
        f"Batch eval [{design_name}]",
        f"{len(workloads)} workloads, "
        f"{sum(r is not None for r in results)} supported",
    )
