"""Workload realization and cell evaluation (paper Sec. 7.1 rules).

The synthetic evaluation sweeps *sparsity degrees*; each design then
processes those degrees in the pattern flavor it supports (Sec. 7.1.1:
"the DNNs were structured pruned for STC and HighLight and unstructured
pruned for DSTC"; the Fig. 13 footnote: "S2TA assumes both operands are
structured"). Designs may also swap operands and report the better
orientation. This module builds, per design, all candidate workload
realizations for a (sparsity_A, sparsity_B) cell and evaluates the best.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.accelerators.base import (
    AcceleratorDesign,
    evaluate_workloads_batch,
)
from repro.energy.estimator import Estimator
from repro.errors import UnsupportedWorkloadError
from repro.model.metrics import Metrics
from repro.model.workload import (
    MatmulWorkload,
    OperandSparsity,
    dense_operand,
    hss_operand,
    quantize_degree,
    structured_operand,
    unstructured_operand,
)
from repro.sparsity.hss import HSSPattern

#: Canonical HighLight-supported HSS patterns per sparsity degree
#: (lowest rank first: C0 then C1).
CANONICAL_HSS = {
    0.0: None,
    0.5: HSSPattern.from_ratios((2, 4), (4, 4)),
    0.625: HSSPattern.from_ratios((2, 4), (3, 4)),
    0.75: HSSPattern.from_ratios((2, 4), (4, 8)),
}


def canonical_hss(sparsity: float) -> Optional[HSSPattern]:
    """The canonical HSS pattern for a degree, ``None`` for dense.

    Raises ``KeyError`` for degrees without a canonical pattern.
    """
    return CANONICAL_HSS[quantize_degree(sparsity)]


def _hss_or_unstructured(sparsity: float) -> OperandSparsity:
    """An HSS operand when a canonical pattern exists, else
    unstructured."""
    key = quantize_degree(sparsity)
    if key in CANONICAL_HSS:
        pattern = CANONICAL_HSS[key]
        return hss_operand(pattern) if pattern else dense_operand()
    return unstructured_operand(sparsity)


def _g8_operand(sparsity: float) -> OperandSparsity:
    """A one-rank G:8 structured operand at (or just above) a density."""
    density = 1.0 - sparsity
    g = max(1, math.ceil(density * 8 - 1e-9))
    if g >= 8:
        return dense_operand()
    return structured_operand(g, 8)


def realize_workloads(
    design_name: str,
    sparsity_a: float,
    sparsity_b: float,
    m: int = 1024,
    k: int = 1024,
    n: int = 1024,
) -> List[MatmulWorkload]:
    """All candidate realizations (both orientations) for one design.

    Each design receives each operand's sparsity degree in its native
    structure: unstructured for DSTC; 2:4-compatible HSS for STC; G:8
    for S2TA; two-rank HSS (weights) plus unstructured (activations)
    for HighLight. Dense TC ignores sparsity entirely.

    Realizations are memoized (workloads are frozen, so sharing
    instances is safe): sweeps re-realize the same (design, degrees,
    shape) points constantly — every degree ladder revisits its dense
    layers, every grid its repeated shapes — and operand construction
    validates HSS pattern densities with exact Fraction arithmetic,
    which is too slow to repeat per request.
    """
    return list(
        _realize_workloads(design_name, sparsity_a, sparsity_b, m, k, n)
    )


@lru_cache(maxsize=4096)
def _realize_workloads(
    design_name: str,
    sparsity_a: float,
    sparsity_b: float,
    m: int,
    k: int,
    n: int,
) -> Tuple[MatmulWorkload, ...]:
    name = design_name.lower()
    label = f"A{sparsity_a:.4g}/B{sparsity_b:.4g}"

    def wl(a: OperandSparsity, b: OperandSparsity, mm: int, nn: int,
           suffix: str = "") -> MatmulWorkload:
        return MatmulWorkload(
            m=mm, k=k, n=nn, a=a, b=b, name=label + suffix
        )

    if name == "tc":
        return [wl(dense_operand(), dense_operand(), m, n)]
    if name == "dstc":
        return [
            wl(
                unstructured_operand(sparsity_a),
                unstructured_operand(sparsity_b),
                m, n,
            )
        ]
    if name == "stc":
        return [
            wl(
                _hss_or_unstructured(sparsity_a),
                unstructured_operand(sparsity_b),
                m, n,
            ),
            wl(
                _hss_or_unstructured(sparsity_b),
                unstructured_operand(sparsity_a),
                n, m, suffix="^T",
            ),
        ]
    if name == "s2ta":
        return [
            wl(_g8_operand(sparsity_a), _g8_operand(sparsity_b), m, n),
            wl(_g8_operand(sparsity_b), _g8_operand(sparsity_a), n, m,
               suffix="^T"),
        ]
    if name in ("highlight", "dsso"):
        candidates = [
            wl(
                _hss_or_unstructured(sparsity_a),
                unstructured_operand(sparsity_b),
                m, n,
            )
        ]
        # Swapping is only useful when the other operand's degree has a
        # canonical HSS realization.
        if quantize_degree(sparsity_b) in CANONICAL_HSS:
            candidates.append(
                wl(
                    _hss_or_unstructured(sparsity_b),
                    unstructured_operand(sparsity_a),
                    n, m, suffix="^T",
                )
            )
        return candidates
    raise UnsupportedWorkloadError(f"unknown design {design_name!r}")


def evaluate_workload(
    design: AcceleratorDesign,
    workload: MatmulWorkload,
    estimator: Estimator,
) -> Optional[Metrics]:
    """Metrics for one (design, workload) pair as given — no operand
    swap, no candidate selection — or ``None`` when the design cannot
    process the workload."""
    return evaluate_workloads_batch(design, [workload], estimator)[0]


def best_metrics(
    candidates: "List[Optional[Metrics]]",
) -> Optional[Metrics]:
    """The paper's selection rule over a cell's candidate realizations:
    lowest EDP wins, first candidate wins ties, all-unsupported is
    ``None``."""
    best: Optional[Metrics] = None
    for metrics in candidates:
        if metrics is None:
            continue
        if best is None or metrics.edp < best.edp:
            best = metrics
    return best


def evaluate_cell(
    design: AcceleratorDesign,
    sparsity_a: float,
    sparsity_b: float,
    estimator: Estimator,
    m: int = 1024,
    k: int = 1024,
    n: int = 1024,
) -> Optional[Metrics]:
    """Best-EDP metrics for one (degree_A, degree_B) cell, or ``None``
    when the design supports no realization (S2TA on dense-dense)."""
    return best_metrics(
        evaluate_workloads_batch(
            design,
            realize_workloads(design.name, sparsity_a, sparsity_b, m, k, n),
            estimator,
        )
    )


def workload_for_layer(
    design_name: str,
    gemm_shape,
    weight_sparsity: float,
    activation_sparsity: float,
) -> List[MatmulWorkload]:
    """Candidate realizations for a DNN layer.

    ``gemm_shape`` is (M, K, N) with weights as operand A and (Toeplitz-
    expanded) activations as operand B.
    """
    m, k, n = gemm_shape
    return realize_workloads(
        design_name, weight_sparsity, activation_sparsity, m=m, k=k, n=n
    )
