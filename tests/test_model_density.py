"""Tests for the density/utilization models."""

import pytest

from repro.errors import ModelError
from repro.model.density import (
    balance_efficiency,
    fits_2_of_4,
    highlight_supported_densities,
    highlight_supported_density,
    random_balance_utilization,
    s2ta_quantized_density,
    stc_effective_density,
)
from repro.model.workload import (
    dense_operand,
    hss_operand,
    structured_operand,
    unstructured_operand,
)
from repro.sparsity import HSSPattern


class TestHighlightDensities:
    def test_supported_set_contains_key_degrees(self):
        supported = highlight_supported_densities()
        for density in (1.0, 0.5, 0.25):
            assert any(abs(d - density) < 1e-12 for d in supported)

    def test_min_supported_is_quarter(self):
        assert min(highlight_supported_densities()) == pytest.approx(0.25)

    def test_descending(self):
        supported = highlight_supported_densities()
        assert supported == sorted(supported, reverse=True)

    def test_dense_runs_at_one(self):
        assert highlight_supported_density(dense_operand()) == 1.0

    def test_exact_match(self):
        operand = hss_operand(HSSPattern.from_ratios((2, 4), (4, 8)))
        assert highlight_supported_density(operand) == pytest.approx(0.25)

    def test_rounds_up_to_supported(self):
        # 3:4 single-rank = 0.75 density; nearest supported >= is 0.8.
        operand = hss_operand(HSSPattern.from_ratios((3, 4)))
        assert highlight_supported_density(operand) == pytest.approx(0.8)

    def test_sparser_than_supported_clamps(self):
        operand = hss_operand(HSSPattern.from_ratios((1, 8), (1, 8)))
        assert highlight_supported_density(operand) == pytest.approx(0.25)

    def test_rejects_unstructured(self):
        with pytest.raises(ModelError):
            highlight_supported_density(unstructured_operand(0.5))


class TestStc:
    def test_dense_mode(self):
        assert stc_effective_density(dense_operand()) == (1.0, False)

    def test_24_exploited(self):
        density, sparse = stc_effective_density(structured_operand(2, 4))
        assert (density, sparse) == (0.5, True)

    def test_hss_75_capped_at_2x(self):
        """A 75%-sparse HSS tensor with rank0 2:4 runs at 0.5 (cap)."""
        operand = hss_operand(HSSPattern.from_ratios((2, 4), (4, 8)))
        assert stc_effective_density(operand) == (0.5, True)

    def test_unstructured_falls_back_dense(self):
        assert stc_effective_density(unstructured_operand(0.7)) == (
            1.0, False,
        )

    def test_incompatible_structure_falls_back(self):
        operand = hss_operand(HSSPattern.from_ratios((3, 4)))
        assert stc_effective_density(operand) == (1.0, False)


class TestFits24:
    def test_24_fits(self):
        assert fits_2_of_4(HSSPattern.from_ratios((2, 4)))

    def test_28_fits(self):
        assert fits_2_of_4(HSSPattern.from_ratios((2, 8)))

    def test_12_fits(self):
        assert fits_2_of_4(HSSPattern.from_ratios((1, 2)))

    def test_22_does_not_fit(self):
        assert not fits_2_of_4(HSSPattern.from_ratios((2, 2)))

    def test_34_does_not_fit(self):
        assert not fits_2_of_4(HSSPattern.from_ratios((3, 4)))

    def test_none(self):
        assert not fits_2_of_4(None)


class TestS2taQuantization:
    def test_exact_eighths(self):
        assert s2ta_quantized_density(structured_operand(4, 8).density) == 0.5

    def test_rounds_up(self):
        assert s2ta_quantized_density(unstructured_operand(0.6).density) == (
            pytest.approx(0.5)
        )
        assert s2ta_quantized_density(unstructured_operand(0.55).density) == (
            pytest.approx(0.5)
        )
        assert s2ta_quantized_density(unstructured_operand(0.7).density) == (
            pytest.approx(0.375)
        )

    def test_dense(self):
        assert s2ta_quantized_density(dense_operand().density) == 1.0


class TestBalance:
    def test_dense_perfect(self):
        assert random_balance_utilization(1.0) == pytest.approx(1.0)

    def test_monotone_in_density(self):
        values = [
            random_balance_utilization(d) for d in (0.1, 0.3, 0.5, 0.9)
        ]
        assert values == sorted(values)

    def test_bounds(self):
        for density in (0.05, 0.25, 0.75, 1.0):
            assert 0.0 < random_balance_utilization(density) <= 1.0

    def test_rejects_zero_density(self):
        with pytest.raises(ModelError):
            random_balance_utilization(0.0)

    def test_balance_efficiency_multiples(self):
        """Perfect only in the limit of many full groups."""
        assert balance_efficiency(3200, 32) > balance_efficiency(32, 32)

    def test_balance_efficiency_empty_slice(self):
        assert balance_efficiency(0, 32) == 1.0

    def test_balance_efficiency_rejects_bad_lanes(self):
        with pytest.raises(ModelError):
            balance_efficiency(10, 0)
