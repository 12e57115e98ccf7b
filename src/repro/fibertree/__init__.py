"""Fibertree abstraction (Sze et al. [44]): precise tensor-content trees.

A *fibertree* represents the content of a tensor independent of its storage
layout. Each tensor dimension corresponds to a *rank*; each rank contains
*fibers*; a fiber is an ordered set of (coordinate, payload) pairs where a
payload is either a lower-rank fiber (intermediate ranks) or a value
(the lowest rank). Sparsity is expressed by *pruning coordinates*.

This package provides:

* :class:`Fiber` / :class:`FiberTensor` — the tree data structures.
* :func:`from_dense` / ``FiberTensor.to_dense`` — numpy round-trips.
* Content-preserving transforms used by sparsity specifications:
  :func:`reorder`, :func:`flatten`, :func:`partition` (rank splitting).
* :func:`render` — a text rendering of small trees for docs and debugging.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.fibertree.fiber import Fiber
    from repro.fibertree.tensor import FiberTensor
    from repro.fibertree.builders import from_dense
    from repro.fibertree.transform import flatten, partition, reorder
    from repro.fibertree.pretty import render
else:
    from repro import _lazy

    __getattr__, __dir__ = _lazy.attach(__name__, {
        "fiber": ("Fiber",),
        "tensor": ("FiberTensor",),
        "builders": ("from_dense",),
        "transform": ("flatten", "partition", "reorder"),
        "pretty": ("render",),
    })

__all__ = [
    "Fiber",
    "FiberTensor",
    "from_dense",
    "flatten",
    "partition",
    "reorder",
    "render",
]
