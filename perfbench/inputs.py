"""Seeded inputs for every workload, as plain JSON-ready data.

The program never sees the seed: workloads turn these descriptions into
API calls, command lines or HTTP bodies. Each generator draws from its
own ``random.Random`` keyed by (seed, workload, part), so one seed
always gives byte-identical inputs and parts do not shift each other.
Compositions are fixed (so many grids, so many model sweeps, ...) and
only the details are drawn, which keeps runs under different seeds
comparable.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

#: The 1/16 sparsity-degree grid.
GRID = tuple(i / 16 for i in range(16))
DESIGNS = ("TC", "STC", "S2TA", "DSTC", "HighLight", "DSSO")
MAIN_DESIGNS = ("TC", "STC", "S2TA", "DSTC", "HighLight")
MODELS = ("ResNet50", "DeiT-small", "Transformer-Big", "EfficientNet-B0")
ARTIFACTS = ("tables", "fig2", "fig6", "fig13", "fig14", "fig15",
             "fig16", "fig17")
FORMATS = ("text", "json", "csv", "md")

#: dse-sweep: one cycle's stream (every model swept once per cycle).
DSE_GRIDS_PER_CYCLE = 12


def _rng(seed: int, *part: Any) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed, *part)))


def _degrees(rng: random.Random, count: int) -> List[float]:
    return sorted(rng.sample(GRID, count))


def dse_stream(seed: int, cycle: int) -> List[Dict[str, Any]]:
    """Grid sweeps (6x6 degrees, M=K in 64..4096, N in {64,256,1024})
    and model sweeps with seeded ladders, in a seeded order."""
    rng = _rng(seed, "dse", cycle)
    items: List[Dict[str, Any]] = []
    for _ in range(DSE_GRIDS_PER_CYCLE):
        items.append({
            "kind": "grid",
            "a": _degrees(rng, 6),
            "b": _degrees(rng, 6),
            "mk": 64 * rng.randint(1, 64),
            "n": rng.choice((64, 256, 1024)),
        })
    for model in MODELS:
        items.append({
            "kind": "model",
            "model": model,
            "degrees": _degrees(rng, 4),
        })
    rng.shuffle(items)
    return items


def cli_prefill(seed: int) -> List[Dict[str, Any]]:
    """Grid sweeps that pre-fill the session cache to ~10k entries."""
    rng = _rng(seed, "cli-prefill")
    return [
        {"a": _degrees(rng, 6), "b": _degrees(rng, 6),
         "mk": 64 * rng.randint(1, 64), "n": rng.choice((64, 256, 1024))}
        for _ in range(40)
    ]


def _rotation(seed: int, name: str, choices: tuple, cycle: int) -> Any:
    """Cycle ``cycle``'s pick from a seeded permutation of ``choices``,
    so every choice recurs equally often whatever the seed."""
    order = list(choices)
    _rng(seed, "cli-rotation", name).shuffle(order)
    return order[cycle % len(order)]


def cli_cycle(seed: int, cycle: int) -> List[List[str]]:
    """One researcher iteration: list, warm all, one artifact in one
    format, a warm model sweep, one small novel grid, cache stats.
    Commands needing a cache get ``--cache-dir`` from the workload."""
    rng = _rng(seed, "cli", cycle)
    # TC is always in: the CLI normalizes a grid to its baseline and
    # refuses one the baseline cannot cover.
    designs = ["TC"] + sorted(rng.sample(MAIN_DESIGNS[1:], 2),
                              key=MAIN_DESIGNS.index)
    return [
        ["list"],
        ["all"],
        ["artifact", _rotation(seed, "artifact", ARTIFACTS, cycle),
         "--format", _rotation(seed, "format", FORMATS, cycle)],
        ["sweep", "--model", _rotation(seed, "model", MODELS, cycle)],
        ["sweep", "--designs", ",".join(designs),
         "--a-degrees", ",".join(f"{d:g}" for d in _degrees(rng, 3)),
         "--b-degrees", ",".join(f"{d:g}" for d in _degrees(rng, 3)),
         "--size", str(64 * rng.randint(1, 64))],
        ["cache", "stats"],
    ]


#: serve-mixed: the few popular sweep specs (warm hits, coalesced when
#: concurrent).
POPULAR_SWEEPS = (
    {"designs": list(MAIN_DESIGNS), "size": 1024},
    {"designs": ["TC", "HighLight"], "a_degrees": [0.0, 0.5, 0.75],
     "b_degrees": [0.0, 0.5], "size": 512},
    {"model": "DeiT-small", "designs": ["TC", "STC", "HighLight"]},
)
#: Request mix shares: artifact reads, popular sweeps, novel grids.
SERVE_MIX = (("artifact", 0.5), ("popular", 0.2), ("novel", 0.3))


def serve_requests(seed: int, phase: str, rate: float,
                   seconds: float) -> List[Dict[str, Any]]:
    """``rate * seconds`` requests due at seeded times in the phase.

    Each request is due at a uniform time within its own 1/rate slot:
    arrivals are seeded and irregular (two can land back to back), but
    the load is the same across seeds and never bunches beyond two,
    which a Poisson stream does by chance and which then decided the
    queueing more than the server did. The mix is exact per phase and
    shuffled. Novel grids draw from a space (size x degrees x designs)
    large enough that most cells miss.
    """
    rng = _rng(seed, "serve", phase)
    count = max(1, round(rate * seconds))
    kinds: List[str] = []
    for kind, share in SERVE_MIX:
        kinds += [kind] * round(share * count)
    kinds = (kinds + ["artifact"] * count)[:count]
    rng.shuffle(kinds)
    requests = []
    for index, kind in enumerate(kinds):
        due = (index + rng.random()) / rate
        if kind == "artifact":
            path, body = "/v1/artifacts", {"artifacts": [rng.choice(ARTIFACTS)]}
        elif kind == "popular":
            path, body = "/v1/sweep", dict(rng.choice(POPULAR_SWEEPS))
        else:
            designs = sorted(rng.sample(MAIN_DESIGNS, rng.randint(2, 3)),
                             key=MAIN_DESIGNS.index)
            path, body = "/v1/sweep", {
                "designs": designs,
                "a_degrees": _degrees(rng, 2),
                "b_degrees": _degrees(rng, 2),
                "size": 64 * rng.randint(1, 64),
            }
        requests.append({"id": f"{phase}-{index}", "due": due,
                         "kind": kind, "path": path, "body": body})
    return requests


#: sim-infer: the pool's fixed shapes. Every seed simulates the same
#: shapes (so the same scheduled work); the seed draws the matrices,
#: the sparsity positions and the order.
SIM_NETWORK_SHAPES = tuple(
    {"plan": list(plan), "size": size}
    for plan in ((4, 8, 8), (4, 8, 16), (8, 16, 8), (8, 16, 16))
    for size in (6, 8)
) * 3
SIM_HIGHLIGHT_SHAPES = tuple(
    {"h1": h1, "m": m, "n": n, "k": 4 * h1 * blocks}
    for h1 in (2, 3, 4)
    for m, n in ((8, 8), (12, 12), (16, 16), (16, 8))
    for blocks in (4, 8)
) * 2
SIM_DSSO_SHAPES = tuple(
    {"h1": h1, "m": m, "n": n, "k": 4 * h1 * blocks}
    for h1 in (2, 4, 8)
    for m, n in ((6, 6), (8, 8), (12, 12), (12, 6))
    for blocks in (2, 4)
)


def sim_pool(seed: int) -> List[Dict[str, Any]]:
    """Simulated CNN inferences and HighLight / DSSO GEMMs."""
    rng = _rng(seed, "sim")
    ops = [
        {"kind": kind, **shape, "seed": rng.getrandbits(32)}
        for kind, shapes in (("network", SIM_NETWORK_SHAPES),
                             ("highlight", SIM_HIGHLIGHT_SHAPES),
                             ("dsso", SIM_DSSO_SHAPES))
        for shape in shapes
    ]
    rng.shuffle(ops)
    return ops
