"""Compare all five accelerators on real DNN layer mixes (paper Fig. 2).

Evaluates TC / STC / DSTC / S2TA / HighLight on every GEMM layer of
ResNet50 and Transformer-Big, each design running the accuracy-matched
sparsity flavor it supports (<0.5% accuracy loss), and prints per-model
normalized EDP — reproducing the paper's motivational result: neither
STC nor DSTC wins on both networks, while HighLight is lowest on both.

Run: ``python examples/dnn_accelerator_comparison.py``
"""

from repro.accelerators import REGISTRY, all_designs
from repro.dnn.models import all_models
from repro.energy import Estimator
from repro.eval.experiments import (
    DESIGN_LADDERS,
    evaluate_model,
    max_degree_within_loss,
    unstructured_degree_within_loss,
)


def main() -> None:
    estimator = Estimator()
    designs = all_designs()
    for model in all_models():
        print(f"\n=== {model.name} (activations "
              f"{model.activation_sparsity:.0%} sparse) ===")
        baseline = evaluate_model(
            REGISTRY["TC"].create(), model, 0.0, estimator
        )
        assert baseline is not None
        for design in designs:
            if design.name == "DSTC":
                degree = unstructured_degree_within_loss(model)
            else:
                ladder, granularity = DESIGN_LADDERS[design.name]
                degree = max_degree_within_loss(model, ladder, granularity)
            evaluation = evaluate_model(design, model, degree, estimator)
            if evaluation is None:
                print(f"  {design.name:10s} cannot process this network "
                      f"(purely dense layers unsupported)")
                continue
            print(
                f"  {design.name:10s} weights {degree:6.1%} sparse -> "
                f"EDP {evaluation.edp / baseline.edp:6.3f}x, "
                f"energy {evaluation.total_energy_pj / baseline.total_energy_pj:5.2f}x, "
                f"latency {evaluation.total_cycles / baseline.total_cycles:5.2f}x"
            )


if __name__ == "__main__":
    main()
