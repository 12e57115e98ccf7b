"""Tests for activity-count accumulation and energy conversion
(:class:`repro.model.batch.ActivityMatrix` on one-workload batches)."""

import pytest

from repro.arch.designs import tc_resources
from repro.energy import Estimator
from repro.errors import ModelError
from repro.model.batch import ActivityMatrix


def energy_row(counts):
    """The single workload's energy breakdown of ``counts``."""
    rows, _ = counts.energy_rows(tc_resources().arch, Estimator())
    return rows[0]


class TestAccumulation:
    def test_add_accumulates(self):
        counts = ActivityMatrix(1)
        counts.add("macs", "mac", 10)
        counts.add("macs", "mac", 5)
        assert counts.counts[("macs", "mac")].tolist() == [15.0]

    def test_zero_count_ignored(self):
        counts = ActivityMatrix(1)
        counts.add("macs", "mac", 0)
        counts.add("glb_data", "read", 1)
        assert "macs" not in energy_row(counts)

    def test_negative_rejected(self):
        counts = ActivityMatrix(1)
        counts.add("macs", "mac", -1)
        with pytest.raises(ModelError):
            energy_row(counts)

    @pytest.mark.parametrize(
        "count",
        (float("nan"), float("inf"), float("-inf")),
        ids=("nan", "inf", "-inf"),
    )
    def test_non_finite_rejected(self, count):
        """NaN passes every ordering comparison, so without an explicit
        guard it would flow into cached Metrics undetected."""
        counts = ActivityMatrix(1)
        counts.add("macs", "mac", count)
        with pytest.raises(ModelError, match="invalid count"):
            energy_row(counts)


class TestEnergyConversion:
    def test_energy_matches_per_action(self):
        estimator = Estimator()
        resources = tc_resources()
        counts = ActivityMatrix(1)
        counts.add("macs", "mac", 1000)
        rows, _ = counts.energy_rows(resources.arch, estimator)
        expected = 1000 * estimator.energy_pj(
            resources.arch.component("macs"), "mac"
        )
        assert rows[0]["macs"] == pytest.approx(expected)

    def test_unknown_component_raises(self):
        counts = ActivityMatrix(1)
        counts.add("nonexistent", "read", 1)
        with pytest.raises(Exception):
            energy_row(counts)
