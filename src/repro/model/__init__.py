"""Sparseloop-style analytical performance model.

The model follows the Sparseloop methodology the paper uses [54]:

1. a *workload* describes the matrix multiplication and the density +
   structure of each operand (:mod:`repro.model.workload`);
2. *density models* turn densities and structures into effectual
   operation counts and workload-balance (utilization) estimates
   (:mod:`repro.model.density`);
3. a *dataflow* description provides reuse factors
   (:mod:`repro.model.dataflow`);
4. per-design evaluation produces component *activity counts*
   (:class:`repro.model.batch.ActivityMatrix`) which, with the
   Accelergy-style estimator, become energy; cycle counts come from
   scheduled compute and utilization (:mod:`repro.model.perf`).
"""

from repro.model.workload import (
    MatmulWorkload,
    OperandSparsity,
    dense_operand,
    hss_operand,
    structured_operand,
    unstructured_operand,
)
from repro.model.metrics import Metrics, normalize
from repro.model.density import (
    balance_efficiency,
    highlight_supported_density,
    s2ta_quantized_density,
    stc_effective_density,
)
from repro.model.dataflow import Loop, Loopnest, highlight_loopnest
from repro.model.mapping import Mapping, best_mapping, dram_traffic_vs_glb

__all__ = [
    "MatmulWorkload",
    "OperandSparsity",
    "dense_operand",
    "hss_operand",
    "structured_operand",
    "unstructured_operand",
    "Metrics",
    "normalize",
    "balance_efficiency",
    "highlight_supported_density",
    "s2ta_quantized_density",
    "stc_effective_density",
    "Loop",
    "Loopnest",
    "highlight_loopnest",
    "Mapping",
    "best_mapping",
    "dram_traffic_vs_glb",
]
