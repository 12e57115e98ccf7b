"""The accelerator-design interface, the design registry, and the
operand-swap harness rule.

Designs self-register with :func:`register_design` and free-form
metadata (category, sparsity side, Table 4 position); the engine and
the CLI look them up by name or metadata in :data:`REGISTRY`, so adding
a design is one decorated class.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.arch.designs import DesignResources
from repro.energy.estimator import Estimator
from repro.errors import UnsupportedWorkloadError
from repro.model.batch import WorkloadBatch
from repro.model.metrics import Metrics
from repro.model.workload import MatmulWorkload
from repro.registry import Registry, RegistryError


class AcceleratorDesign(abc.ABC):
    """One evaluated design: resources plus an analytical cost model."""

    #: Short name used in tables/figures.
    name: str

    def __init__(self, resources: DesignResources) -> None:
        self.resources = resources

    @abc.abstractmethod
    def supports(self, workload: MatmulWorkload) -> bool:
        """Whether the design can process this workload *as given*
        (before any operand swap) and produce functionally correct
        results."""

    @abc.abstractmethod
    def evaluate_batch(
        self, batch: WorkloadBatch, estimator: Estimator
    ) -> List[Metrics]:
        """The design's cost model: one Metrics per workload of a
        batch of *supported* workloads, costed as given (no operand
        swap).

        Callers pre-filter with :meth:`supports` (see
        :func:`evaluate_workloads_batch`).
        """

    @abc.abstractmethod
    def evaluate(
        self, workload: MatmulWorkload, estimator: Estimator
    ) -> Metrics:
        """Cost one workload as given: row 0 of :meth:`evaluate_batch`
        on a one-workload batch. Each design spells this out in its
        own class body, so per-class instrumentation can wrap it."""

    @property
    def supported_patterns(self) -> str:
        """Human-readable Table 3 row: patterns per operand."""
        return "A: dense; B: dense"

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


@dataclass(frozen=True)
class DesignInfo:
    """One registered design: its name, factory and metadata."""

    name: str
    factory: Callable[[], AcceleratorDesign]
    metadata: Dict[str, Any] = field(default_factory=dict)

    def create(self) -> AcceleratorDesign:
        """A fresh instance of the design."""
        return self.factory()

    @cached_property
    def shared(self) -> AcceleratorDesign:
        """A memoized instance of the design.

        Designs are stateless after construction (an arch spec plus
        pure cost methods), so callers that only *evaluate* — engines,
        sweeps — can share one instance instead of rebuilding the arch
        spec per engine. Callers that mutate an instance must use
        :meth:`create`.
        """
        return self.factory()


#: The process-wide registry the evaluation stack resolves names against.
REGISTRY: Registry[DesignInfo] = Registry("design", RegistryError)


def register_design(
    registry: Optional[Registry[DesignInfo]] = None, **metadata: Any
) -> Callable[[type], type]:
    """Class decorator: register an :class:`AcceleratorDesign` subclass
    under its ``name`` attribute, with the given metadata.

    ::

        @register_design(category="dense", sparsity_side="none")
        class TC(AcceleratorDesign):
            name = "TC"
    """
    target = registry if registry is not None else REGISTRY

    def decorator(cls: type) -> type:
        target.register(DesignInfo(cls.name, cls, dict(metadata)))
        return cls

    return decorator


def evaluate_workloads_batch(
    design: AcceleratorDesign,
    workloads: Sequence[MatmulWorkload],
    estimator: Estimator,
    batch_source: Optional[
        Callable[[List[MatmulWorkload]], WorkloadBatch]
    ] = None,
) -> List[Optional[Metrics]]:
    """Metrics per workload as given, ``None`` where unsupported — the
    unit every evaluation path (engine, harness, operand swap) goes
    through.

    Unsupported workloads are filtered out before stacking and the
    supported remainder is costed in one :meth:`~AcceleratorDesign
    .evaluate_batch` call. ``batch_source`` overrides how the supported
    workloads are stacked — the engine's shared-batch planner passes
    :meth:`~repro.model.batch.SharedWorkloadStack.batch_for` so design
    groups of one miss set slice one shared stack instead of each
    rebuilding its own (the views are value-identical to a fresh
    stack, so results stay bit-identical).
    """
    results: List[Optional[Metrics]] = [None] * len(workloads)
    supported = [
        i for i, workload in enumerate(workloads)
        if design.supports(workload)
    ]
    if not supported:
        return results
    picked = [workloads[i] for i in supported]
    batch = (
        WorkloadBatch.from_workloads(picked)
        if batch_source is None
        else batch_source(picked)
    )
    for i, metrics in zip(
        supported, design.evaluate_batch(batch, estimator)
    ):
        results[i] = metrics
    return results


def best_orientation(
    design: AcceleratorDesign,
    workload: MatmulWorkload,
    estimator: Estimator,
    allow_swap: bool = True,
) -> Metrics:
    """Evaluate a design with the paper's operand-swap rule.

    Matrix-multiplication accelerators treat operands interchangeably,
    so the harness tries both orientations and reports the better EDP
    (Sec. 7.1.1). Raises :class:`UnsupportedWorkloadError` when neither
    orientation is supported.
    """
    candidates = [workload, workload.swapped()] if allow_swap else [workload]
    results = evaluate_workloads_batch(design, candidates, estimator)
    if len(results) > 1 and results[1] is not None:
        results[1] = replace(results[1], swapped=True)
    supported = [metrics for metrics in results if metrics is not None]
    if not supported:
        raise UnsupportedWorkloadError(
            f"{design.name} supports neither orientation of "
            f"{workload.describe()}"
        )
    return min(supported, key=lambda metrics: metrics.edp)
