"""Golden-number regression tests.

Freezes measured values of the calibrated reproduction that have no
paper counterpart, so refactors that silently shift results are
caught. Values the paper states (Fig. 14's gains, the SAF area share,
...) are rows of the claims ledger, gated by ``tests/test_claims.py``.
"""

import pytest

from repro.arch import area_breakdown, table4
from repro.eval import experiments as E


@pytest.fixture(scope="module")
def sweep(estimator):
    return E.fig13(estimator)


class TestFig13Golden:
    def test_highlight_cells(self, sweep):
        """Spot-freeze the HighLight EDP column."""
        normalized = sweep.normalized("edp")
        expectations = {
            (0.0, 0.0): 1.01,    # paper: parity
            (0.5, 0.0): 0.285,
            (0.75, 0.0): 0.084,
            (0.75, 0.75): 0.043,
        }
        for cell, expected in expectations.items():
            assert normalized[cell]["HighLight"] == pytest.approx(
                expected, rel=0.10
            ), cell

    def test_dstc_dense_penalty(self, sweep):
        value = sweep.normalized("edp")[(0.0, 0.0)]["DSTC"]
        assert value == pytest.approx(5.3, rel=0.15)

    def test_stc_sparse_cells_flat(self, sweep):
        normalized = sweep.normalized("edp")
        values = {
            normalized[(0.5, b)]["STC"] for b in (0.0, 0.25, 0.5, 0.75)
        }
        assert max(values) - min(values) < 1e-9  # B-blind by design


class TestAreaGolden:
    def test_total_area_ordering(self, estimator):
        areas = {
            res.arch.name: area_breakdown(res, estimator).total_mm2
            for res in table4()
        }
        assert areas["TC"] < areas["HighLight"] < areas["DSTC"]


class TestFig2Golden:
    def test_operating_points(self, estimator):
        result = E.fig2(estimator)
        resnet = result.results["ResNet50"]
        transformer = result.results["Transformer-Big"]
        assert resnet["HighLight"][0] == 0.75
        assert transformer["HighLight"][0] == 0.625
        assert resnet["DSTC"][0] == pytest.approx(0.832, abs=0.02)
        assert transformer["DSTC"][0] == pytest.approx(0.731, abs=0.02)
