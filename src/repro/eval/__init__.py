"""Experiment harness: realizations, sweeps, Pareto, reporting.

:mod:`repro.eval.harness` applies the paper's evaluation rules (each
design gets each sparsity *degree* realized in the structure flavor it
supports, and operands may be swapped — Sec. 7.1);
:mod:`repro.eval.engine` turns declared (design, workload, sparsity)
grids into memoized, optionally persisted cell evaluations; the
experiment functions in :mod:`repro.eval.experiments` regenerate every
figure and table of the evaluation section on top of it;
:mod:`repro.eval.sweeps` is the one sweep request — parsed, defaulted
and run the same for ``repro sweep``, ``repro queue fill`` and
``POST /v1/sweep``; :mod:`repro.eval.reporting` prints them in the
same rows/series the paper reports, and :mod:`repro.eval.runs`
snapshots whole sweep invocations as JSON run records.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.eval.harness import (
        best_metrics,
        evaluate_cell,
        evaluate_workload,
        realize_workloads,
        workload_for_layer,
    )
    from repro.eval.cache import PersistentCache, estimator_fingerprint
    from repro.eval.engine import Cell, SweepEngine, SweepResult, grid_cells
    from repro.eval.pareto import pareto_frontier, is_on_frontier
    from repro.eval.queue import JobStore, LeaseHeartbeat, queue_db_path
    from repro.eval.runs import (
        RunRecord,
        load_record,
        record_from_model_sweep,
        record_from_sweep,
        record_from_worker,
    )
    from repro.eval import experiments, reporting
else:
    from repro import _lazy

    __getattr__, __dir__ = _lazy.attach(__name__, {
        "harness": (
            "best_metrics", "evaluate_cell", "evaluate_workload",
            "realize_workloads", "workload_for_layer",
        ),
        "cache": ("PersistentCache", "estimator_fingerprint"),
        "engine": ("Cell", "SweepEngine", "SweepResult", "grid_cells"),
        "pareto": ("pareto_frontier", "is_on_frontier"),
        "queue": ("JobStore", "LeaseHeartbeat", "queue_db_path"),
        "runs": (
            "RunRecord", "load_record", "record_from_model_sweep",
            "record_from_sweep", "record_from_worker",
        ),
    }, submodules=("experiments", "reporting"))

__all__ = [
    "best_metrics",
    "evaluate_cell",
    "evaluate_workload",
    "realize_workloads",
    "workload_for_layer",
    "PersistentCache",
    "estimator_fingerprint",
    "Cell",
    "SweepEngine",
    "SweepResult",
    "grid_cells",
    "pareto_frontier",
    "is_on_frontier",
    "JobStore",
    "LeaseHeartbeat",
    "queue_db_path",
    "RunRecord",
    "load_record",
    "record_from_model_sweep",
    "record_from_sweep",
    "record_from_worker",
    "experiments",
    "reporting",
]
