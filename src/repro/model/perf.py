"""Shared GEMM cost assembly: counts -> activity -> Metrics.

Every accelerator design computes its design-specific quantities
(scheduled products, utilization, stored/fetched words, SAF events) as
per-workload vectors over a :class:`~repro.model.batch.WorkloadBatch`
and hands them to :func:`build_metrics_batch`, which assembles the
common memory activity (DRAM, GLB fills/fetches, partial-sum traffic,
output drain) and turns everything into one
:class:`repro.model.metrics.Metrics` per workload via the energy
estimator. Keeping the memory accounting in one place guarantees the
designs are compared under identical dataflow assumptions except where
a design explicitly deviates (DSTC's outer-product accumulation).
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.arch.designs import DesignResources
from repro.energy.estimator import Estimator
from repro.errors import ModelError
from repro.model.batch import ActivityMatrix, WorkloadBatch, as_vector
from repro.model.metrics import Metrics

#: SAF event: (component, action, per-workload count vector or scalar).
SafEvent = Tuple[str, str, "np.ndarray | float"]


def _dram_name(resources: DesignResources) -> str:
    for component in resources.arch.components:
        if component.name.endswith("_dram"):
            return component.name
    raise ModelError(f"{resources.arch.name} has no DRAM component")


def cycle_count(
    scheduled_products: np.ndarray, num_macs: int, utilization
) -> np.ndarray:
    """Cycles per workload: scheduled MAC slots over usable
    parallelism."""
    scheduled = np.asarray(scheduled_products, dtype=np.float64)
    # min() also rejects NaN (it fails every comparison).
    if not scheduled.min() > 0:
        raise ModelError("scheduled_products must be positive")
    return scheduled / (num_macs * utilization)


def build_metrics_batch(
    *,
    batch: WorkloadBatch,
    resources: DesignResources,
    estimator: Estimator,
    scheduled_products: np.ndarray,
    utilization,
    full_macs,
    gated_macs=0.0,
    a_stored_words,
    a_meta_words=0.0,
    b_stored_words,
    b_meta_words=0.0,
    b_fetch_words,
    a_fetch_words=None,
    psum_component: str = "rf",
    psum_updates=None,
    saf_events: Iterable[SafEvent] = (),
    compress_values=0.0,
    supported: bool = True,
    swapped: bool = False,
) -> List[Metrics]:
    """One Metrics per workload of ``batch``, in batch order.

    Count arguments are per-workload float64 vectors (scalars
    broadcast). Memory model shared by all designs:

    * DRAM: each stored operand word (and metadata word) read once;
      every output word written once.
    * GLB: filled once with stored data/metadata; operand A read once
      (it is held stationary near the MACs); operand B read
      ``b_fetch_words`` times (design-computed, already divided by the
      spatial broadcast reuse); outputs staged through the GLB.
    * Partial sums: ``psum_updates`` read-modify-writes of
      ``psum_component`` (defaults to scheduled products divided by the
      design's spatial-reduction width).

    Every row is computed elementwise, so a workload's Metrics do not
    depend on which other workloads share its batch.
    """
    arch = resources.arch
    size = len(batch)
    outputs = batch.mn
    activity = ActivityMatrix(size)

    activity.add("macs", "mac", full_macs)
    activity.add("macs", "gated_mac", gated_macs)

    # --- DRAM traffic -------------------------------------------------
    a_stored_words = as_vector(a_stored_words, size)
    b_stored_words = as_vector(b_stored_words, size)
    dram = _dram_name(resources)
    activity.add(dram, "read", a_stored_words + b_stored_words)
    activity.add(dram, "read", a_meta_words + b_meta_words)
    activity.add(dram, "write", outputs)

    # --- GLB data -----------------------------------------------------
    if a_fetch_words is None:
        a_fetch_words = a_stored_words
    activity.add("glb_data", "write", a_stored_words + b_stored_words)
    activity.add("glb_data", "read", a_fetch_words + b_fetch_words)
    activity.add("glb_data", "write", outputs)  # drain staging
    activity.add("glb_data", "read", outputs)

    # --- GLB metadata ---------------------------------------------------
    meta_words = as_vector(a_meta_words + b_meta_words, size)
    if meta_words.max() > 0:
        if not arch.has_component("glb_meta"):
            raise ModelError(
                f"{arch.name} produced metadata but has no glb_meta"
            )
        activity.add("glb_meta", "write", meta_words)
        activity.add("glb_meta", "read", meta_words)

    # --- partial sums ---------------------------------------------------
    if psum_updates is None:
        psum_updates = (
            scheduled_products / resources.psum_spatial_reduction
        )
    activity.add(psum_component, "read", psum_updates)
    activity.add(psum_component, "write", psum_updates)

    # --- design-specific SAF events --------------------------------------
    for component, action, counts in saf_events:
        activity.add(component, action, counts)

    compress_values = as_vector(compress_values, size)
    if compress_values.max() > 0:
        activity.add(
            "compression_unit", "compress_value", compress_values
        )

    cycles = cycle_count(scheduled_products, arch.num_macs, utilization)
    breakdowns, energy_totals = activity.energy_rows(arch, estimator)
    cycles_list = cycles.tolist()
    utilization_vec = as_vector(utilization, size)
    utilization_list = utilization_vec.tolist()
    descriptions = batch.descriptions
    if not (
        cycles.min() > 0.0
        and utilization_vec.min() > 0.0
        and utilization_vec.max() <= 1.0 + 1e-9
    ):
        # Some row fails the Metrics range checks (NaN also lands
        # here — it fails every comparison): construct the offending
        # row through the validating dataclass path so the caller gets
        # the dataclass's own ModelError.
        for i in range(size):
            Metrics(
                design=arch.name,
                workload=descriptions[i],
                cycles=cycles_list[i],
                energy_breakdown_pj=breakdowns[i],
                utilization=utilization_list[i],
                supported=supported,
                swapped=swapped,
            )
    # Seed the derived cached properties from the vectorized totals:
    # the fold order matches ``Metrics.energy_pj``'s sum bit for bit
    # (see ActivityMatrix.energy_rows), and edp is the same multiply,
    # so lazy recomputation would produce the identical floats —
    # seeding just skips ~2 cached_property computes per Metrics.
    energy_list = energy_totals.tolist()
    edp_list = (energy_totals * cycles).tolist()
    # Trusted construction: every row passed the vectorized range
    # checks above, so the dataclass __init__/__post_init__ re-checks
    # are skipped (they dominate the per-row assembly cost at batch
    # sizes; the field set below is exactly the dataclass's).
    design_name = arch.name
    value_block = activity.value_block
    if value_block is not None and size:
        # Uniform-breakdown fast path: stash each row's cache-codec
        # blob alongside the Metrics while the packed value column is
        # at hand, so a cache flush never re-encodes what this loop
        # already held as bytes. Deferred import: the eval layer
        # imports the model layer at module load, not vice versa.
        from repro.eval import codec

        n_components = len(breakdowns[0])
        row_bytes = n_components * 8
        design_utf8 = codec.utf8(design_name)
        names_utf8 = codec.utf8("\0".join(breakdowns[0]))
        flags = (1 if supported else 0) | (2 if swapped else 0)
        stash_key = codec.BLOB_STASH
        pack_blob = codec.pack_blob
        utf8 = codec.utf8
    else:
        stash_key = None
    new = object.__new__
    out = []
    for i in range(size):
        metrics = new(Metrics)
        metrics.__dict__.update({
            "design": design_name,
            "workload": descriptions[i],
            "cycles": cycles_list[i],
            "energy_breakdown_pj": breakdowns[i],
            "utilization": utilization_list[i],
            "supported": supported,
            "swapped": swapped,
            "energy_pj": energy_list[i],
            "edp": edp_list[i],
        })
        if stash_key is not None:
            metrics.__dict__[stash_key] = pack_blob(
                flags,
                cycles_list[i],
                utilization_list[i],
                design_utf8,
                utf8(descriptions[i]),
                names_utf8,
                value_block[i * row_bytes:(i + 1) * row_bytes],
                n_components,
            )
        out.append(metrics)
    return out
