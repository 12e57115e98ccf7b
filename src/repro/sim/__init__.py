"""Functional micro-architecture simulator of HighLight (paper Sec. 6).

Simulates the down-sized HighLight organization of Fig. 10 at block
granularity: operand A rows in hierarchical CP form held stationary in
PEs, operand B streamed from a GLB through the Variable Fetch
Management Unit (VFMU), Rank1 skipping (only non-empty A blocks are
dispatched), Rank0 skipping (per-PE muxes select the B values matching
A's CP metadata), and gating of MACs whose B operand is zero.

The simulator is *exact*: its output equals ``A @ B`` bit-for-bit in
float64, and its step/access counts validate the analytical model's
cycle and activity counting.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sim.config import SimConfig
    from repro.sim.glb import GlobalBuffer
    from repro.sim.vfmu import VariableFetchManagementUnit
    from repro.sim.pe import ProcessingElement
    from repro.sim.simulator import (
        HighLightSimulator,
        SimStats,
        simulate_matmul,
    )
    from repro.sim.dsso import DssoStats, simulate_dsso_matmul
else:
    from repro import _lazy

    __getattr__, __dir__ = _lazy.attach(__name__, {
        "config": ("SimConfig",),
        "glb": ("GlobalBuffer",),
        "vfmu": ("VariableFetchManagementUnit",),
        "pe": ("ProcessingElement",),
        "simulator": ("HighLightSimulator", "SimStats", "simulate_matmul"),
        "dsso": ("DssoStats", "simulate_dsso_matmul"),
    })

__all__ = [
    "SimConfig",
    "GlobalBuffer",
    "VariableFetchManagementUnit",
    "ProcessingElement",
    "HighLightSimulator",
    "SimStats",
    "simulate_matmul",
    "DssoStats",
    "simulate_dsso_matmul",
]
