"""Sweep requests: one spec behind ``repro sweep``, ``repro queue fill``
and ``POST /v1/sweep``.

A sweep is either a *grid* — the synthetic design x operand-sparsity
grid of Fig. 13 at one cubic GEMM size — or a *model* sweep — a DNN
swept over designs x weight-sparsity degrees, the Fig. 15 ladders by
default. :func:`parse_sweep_spec` turns a JSON-style mapping into a
validated :class:`SweepSpec`: it applies the grid/model exclusions,
fills in the defaults and keys the result with a canonical digest (the
coalescing key of ``repro serve``). Every front end goes through it —
the CLI builds the mapping from the flags the user set, the service
takes the request body — so each rule exists once, and each message
names both the spec key and its CLI flag (``'size' (--size)``).
Failures raise :class:`~repro.errors.WorkloadError`; the CLI turns it
into a usage error, the service into an HTTP 400.

A parsed spec enumerates its queue cells (:meth:`SweepSpec.pairs`) and
runs itself (:meth:`SweepSpec.run`); the resulting :class:`SweepRun`
renders the CLI table and summary line and picks its run-record shape.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.accelerators import REGISTRY, main_design_names
from repro.dnn.models import DnnModel, get_model, model_from_dict
from repro.errors import WorkloadError
from repro.eval import experiments as E
from repro.eval import reporting as R
from repro.eval.engine import EngineContext, EngineStats, SweepResult
from repro.eval.runs import (
    RunRecord,
    record_from_model_sweep,
    record_from_sweep,
)
from repro.model.workload import MatmulWorkload

#: Every accepted spec key; each is also a ``repro sweep`` flag
#: (``a_degrees`` is ``--a-degrees``).
SWEEP_KEYS = (
    "designs", "model", "degrees", "profile",
    "a_degrees", "b_degrees", "size",
)
#: Keys only a model sweep takes, and keys only a grid sweep takes.
MODEL_KEYS = ("degrees", "profile")
GRID_KEYS = ("a_degrees", "b_degrees", "size")
#: Cubic GEMM side M=K=N of a grid sweep that names no ``size``.
DEFAULT_SIZE = 1024


def flag(key: str) -> str:
    """The CLI spelling of a spec key."""
    return "--" + key.replace("_", "-")


def _spelled(key: str) -> str:
    """A spec key as rule messages name it: both spellings."""
    return f"{key!r} ({flag(key)})"


def spec_digest(kind: str, payload: Dict[str, Any]) -> str:
    """SHA-256 over a normalized spec: equal digests, equal work."""
    blob = json.dumps(
        {"kind": kind, **payload}, sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SweepSpec:
    """A validated sweep request.

    ``kind`` is ``"model"`` (``model`` swept over ``designs`` x
    weight-sparsity ``degrees``, each design's Fig. 15 ladder when
    ``None``) or ``"grid"`` (``designs`` over ``a_degrees`` x
    ``b_degrees`` at M=K=N=``size``). ``digest`` is the canonical key
    of the resolved request.
    """

    kind: str
    digest: str
    designs: Tuple[str, ...]
    # model kind
    model: Optional[DnnModel] = None
    degrees: Optional[Tuple[float, ...]] = None
    profile: Optional[Dict[str, float]] = None
    # grid kind
    a_degrees: Optional[Tuple[float, ...]] = None
    b_degrees: Optional[Tuple[float, ...]] = None
    size: int = DEFAULT_SIZE

    def pairs(self) -> List[Tuple[str, MatmulWorkload]]:
        """The (design, workload) cells a queue fill enqueues — the
        pair set :meth:`run` would evaluate."""
        from repro.eval import queue as queue_mod

        if self.model is not None:
            return queue_mod.model_fill_pairs(
                self.model, self.designs, degrees=self.degrees,
                profile=self.profile,
            )
        return queue_mod.grid_fill_pairs(
            self.designs, self.a_degrees or (), self.b_degrees or (),
            m=self.size, k=self.size, n=self.size,
        )

    def run(self, ctx: EngineContext) -> "SweepRun":
        """Evaluate the sweep on ``ctx``'s engine and flush, so the
        results are durable before anyone reports them."""
        engine = ctx.engine
        checkpoint = engine.checkpoint()
        start = time.perf_counter()
        result: Union[SweepResult, E.ModelSweepResult]
        if self.model is not None:
            result = E.sweep_model(
                self.model,
                designs=self.designs,
                degrees=self.degrees,
                ctx=ctx,
                profile=self.profile,
            )
        else:
            result = engine.sweep(
                designs=self.designs,
                a_degrees=self.a_degrees or (),
                b_degrees=self.b_degrees or (),
                m=self.size, k=self.size, n=self.size,
            )
        engine.flush()
        return SweepRun(
            spec=self,
            result=result,
            stats=engine.stats_since(checkpoint),
            wall_time_s=time.perf_counter() - start,
        )


@dataclass(frozen=True)
class SweepRun:
    """One executed sweep: its result, the engine counters it moved and
    its wall time (flush included)."""

    spec: SweepSpec
    result: Union[SweepResult, E.ModelSweepResult]
    stats: EngineStats
    wall_time_s: float

    def render(self, metric: str = "edp") -> str:
        """The CLI table: a grid normalized on ``metric``, or a model
        sweep's per-(design, degree) totals."""
        if isinstance(self.result, SweepResult):
            return R.render_sweep(self.result, metric)
        return R.render_model_sweep(self.result)

    def summary(self) -> str:
        """The CLI's one-line account of the run."""
        designs = len(self.spec.designs)
        if isinstance(self.result, SweepResult):
            shape = (
                f"{designs} designs x {len(self.spec.a_degrees or ())}x"
                f"{len(self.spec.b_degrees or ())} degree grid @ "
                f"{self.spec.size}^3"
            )
        else:
            shape = f"{designs} designs on {self.result.model}"
        return (
            f"{shape}: {self.stats.evaluations} workloads evaluated, "
            f"{self.stats.hits} memory hits, {self.stats.disk_hits} "
            f"disk hits in {self.wall_time_s:.2f}s"
        )

    def record(self, command: Optional[str] = None) -> RunRecord:
        """The run record; ``command`` defaults to the CLI's ``sweep``
        (grid) or ``sweep-model``."""
        if isinstance(self.result, SweepResult):
            size = self.spec.size
            return record_from_sweep(
                command=command or "sweep", sweep=self.result,
                wall_time_s=self.wall_time_s, stats=self.stats,
                shape=(size, size, size),
            )
        return record_from_model_sweep(
            command=command or "sweep-model", sweep=self.result,
            wall_time_s=self.wall_time_s, stats=self.stats,
        )


def _reject_duplicates(values: Sequence[Any], noun: str, key: str) -> None:
    duplicates = sorted({v for v in values if values.count(v) > 1})
    if duplicates:
        raise WorkloadError(
            f"duplicate {noun} in {_spelled(key)}: "
            f"{', '.join(str(v) for v in duplicates)}"
        )


def _designs(data: Mapping[str, Any]) -> Tuple[str, ...]:
    designs = data.get("designs")
    if designs is None:
        return tuple(main_design_names())
    if (
        not isinstance(designs, list) or not designs
        or not all(isinstance(name, str) for name in designs)
    ):
        raise WorkloadError(
            f"{_spelled('designs')} must be a non-empty list of design "
            f"names"
        )
    for name in designs:
        if name not in REGISTRY:
            raise WorkloadError(REGISTRY.unknown(name))
    _reject_duplicates(designs, "design(s)", "designs")
    return tuple(designs)


def _degrees(data: Mapping[str, Any], key: str) -> Tuple[float, ...]:
    value = data[key]
    if (
        not isinstance(value, list) or not value
        or not all(
            isinstance(item, (int, float))
            and not isinstance(item, bool)
            for item in value
        )
    ):
        raise WorkloadError(
            f"{_spelled(key)} must be a non-empty list of sparsity "
            f"degrees"
        )
    degrees = tuple(float(item) for item in value)
    for degree in degrees:
        if not 0.0 <= degree < 1.0:
            raise WorkloadError(
                f"{_spelled(key)} degrees must be in [0, 1), got {degree}"
            )
    _reject_duplicates(degrees, "degree(s)", key)
    return degrees


def _model(raw: Any) -> Tuple[DnnModel, Any]:
    """The spec's model plus its digest token.

    A registered name keys by its resolved name; an inline
    ``--model-file``-style table keys by the whole table, so JSON
    bodies that differ only in key order coalesce. Inline models are
    *not* registered: concurrent requests must never race on the
    process-wide model registry.
    """
    if isinstance(raw, str):
        model = get_model(raw)
        return model, model.name
    model = model_from_dict(raw)
    return model, {key: raw[key] for key in sorted(raw)}


def _profile(raw: Any, model: DnnModel) -> Dict[str, float]:
    """An inline profile mapping, or — from the CLI's ``--profile`` — a
    :class:`~pathlib.Path` to its JSON file (never a string, so a
    request body cannot make the service read a file)."""
    if isinstance(raw, Path):
        profile = E.load_profile(raw)
    else:
        profile = E.profile_from_dict(raw, source=_spelled("profile"))
    E.validate_profile(model, profile)
    return profile


def parse_sweep_spec(data: Any) -> SweepSpec:
    """Validate a sweep request, resolve its defaults and key it."""
    if not isinstance(data, dict):
        raise WorkloadError(
            f"sweep spec must be a JSON object, got "
            f"{type(data).__name__}"
        )
    unknown = sorted(set(data) - set(SWEEP_KEYS))
    if unknown:
        raise WorkloadError(
            f"unknown sweep spec key(s): {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(SWEEP_KEYS))}"
        )
    designs = _designs(data)
    if "model" in data:
        for key in GRID_KEYS:
            if key in data:
                raise WorkloadError(
                    f"{_spelled(key)} applies to synthetic grid sweeps; "
                    f"a model sweep takes its shapes from the network's "
                    f"layers, not from synthetic grids (use "
                    f"{_spelled('degrees')} for the weight-sparsity "
                    f"ladder)"
                )
        model, model_token = _model(data["model"])
        degrees = _degrees(data, "degrees") if "degrees" in data else None
        profile = (
            _profile(data["profile"], model) if "profile" in data
            else None
        )
        return SweepSpec(
            kind="model",
            digest=spec_digest("sweep-model", {
                "model": model_token,
                "designs": list(designs),
                "degrees": {
                    design: list(
                        degrees if degrees is not None
                        else E.design_ladder(design)
                    )
                    for design in designs
                },
                "profile": profile,
            }),
            designs=designs,
            model=model,
            degrees=degrees,
            profile=profile,
        )
    for key in MODEL_KEYS:
        if key in data:
            raise WorkloadError(
                f"{_spelled(key)} applies to model sweeps; name a "
                f"'model' (--model or --model-file)"
            )
    a_degrees = (
        _degrees(data, "a_degrees") if "a_degrees" in data
        else tuple(E.A_DEGREES)
    )
    b_degrees = (
        _degrees(data, "b_degrees") if "b_degrees" in data
        else tuple(E.B_DEGREES)
    )
    size = data.get("size", DEFAULT_SIZE)
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise WorkloadError(
            f"{_spelled('size')} must be a positive integer, got {size!r}"
        )
    return SweepSpec(
        kind="grid",
        digest=spec_digest("sweep-grid", {
            "designs": list(designs),
            "a_degrees": list(a_degrees),
            "b_degrees": list(b_degrees),
            "size": size,
        }),
        designs=designs,
        a_degrees=a_degrees,
        b_degrees=b_degrees,
        size=size,
    )
