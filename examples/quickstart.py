"""Quickstart: hierarchical structured sparsity in five minutes.

Covers the core API end-to-end:

1. define a two-rank HSS pattern and inspect its sparsity degree;
2. sparsify a weight matrix rank-by-rank (paper Sec. 4.2);
3. verify conformance and compress it to hierarchical CP (Fig. 9);
4. run the matmul through the functional HighLight simulator and check
   it is exact while skipping all the structured zeros;
5. compare analytical EDP against a dense accelerator.

Run: ``python examples/quickstart.py``
"""

import numpy as np

from repro.accelerators import REGISTRY
from repro.compression import encode_hierarchical_cp
from repro.energy import Estimator
from repro.model.workload import MatmulWorkload, hss_operand, dense_operand
from repro.sim import SimConfig, simulate_matmul
from repro.sparsity import HSSPattern, conforms, sparsify


def main() -> None:
    # 1. A two-rank HSS pattern: C1(2:4) -> C0(2:4), i.e. 2 of every 4
    # value-blocks are kept, and 2 of every 4 values inside each block.
    pattern = HSSPattern.from_ratios((2, 4), (2, 4))
    print(f"pattern          : {pattern}")
    print(f"overall sparsity : {pattern.sparsity:.1%} "
          f"(1 - 2/4 x 2/4, Sec. 4.1.2)")

    # 2. Sparsify a random weight matrix to the pattern.
    rng = np.random.default_rng(0)
    weights = rng.normal(size=(8, 64))
    sparse_weights = sparsify(weights, pattern)
    print(f"measured sparsity: {np.mean(sparse_weights == 0):.1%}")
    assert conforms(sparse_weights, pattern)

    # 3. Compress one row to hierarchical CP and count metadata.
    encoded = encode_hierarchical_cp(sparse_weights[0], pattern)
    print(f"row 0 stored     : {encoded.num_stored_values} values + "
          f"{encoded.metadata_bits} metadata bits")

    # 4. Exact simulation through the down-sized HighLight (Sec. 6).
    activations = rng.normal(size=(64, 16))
    activations[rng.random(activations.shape) < 0.4] = 0.0  # ReLU-like
    config = SimConfig()
    result, stats = simulate_matmul(
        sparse_weights, activations, pattern, config, compress_b=True
    )
    assert np.allclose(result, sparse_weights @ activations)
    dense_slots = sparse_weights.shape[0] * 64 * 16
    print(f"simulator        : exact; {stats.scheduled_products} of "
          f"{dense_slots} products scheduled "
          f"({stats.gated_macs} gated on zero activations)")

    # 5. Analytical EDP vs a dense accelerator.
    estimator = Estimator()
    workload = MatmulWorkload(
        m=1024, k=1024, n=1024,
        a=hss_operand(pattern), b=dense_operand(), name="quickstart",
    )
    dense = REGISTRY["TC"].create().evaluate(workload, estimator)
    ours = REGISTRY["HighLight"].create().evaluate(workload, estimator)
    print(f"EDP vs dense     : {dense.edp / ours.edp:.1f}x lower "
          f"({ours.cycles / dense.cycles:.2f}x cycles, "
          f"{ours.energy_pj / dense.energy_pj:.2f}x energy)")


if __name__ == "__main__":
    main()
