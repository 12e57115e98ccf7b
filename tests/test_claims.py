"""The paper-claims ledger gate, and the report that renders it.

Every row of :data:`repro.eval.claims.CLAIMS` must measure within its
tolerance of the frozen reproduction value; the same rows render as
EXPERIMENTS.md's ``## Paper claims`` table, where each must read ``ok``.
"""

import pytest

from repro.cli import main
from repro.eval.artifacts import ARTIFACTS, RunPlan
from repro.eval.claims import CLAIMS, FLAG, ClaimContext, render_claims
from repro.eval.engine import EngineContext


@pytest.fixture(scope="module")
def claim_ctx(estimator):
    """Every artifact computed once under one shared context."""
    ctx = EngineContext.coerce(estimator)
    results = RunPlan.from_names(list(ARTIFACTS), ctx).run().results
    return ClaimContext(results, ctx)


@pytest.fixture(scope="module")
def measured(claim_ctx):
    return {claim.id: float(claim.measure(claim_ctx)) for claim in CLAIMS}


def test_ids_are_unique():
    ids = [claim.id for claim in CLAIMS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim_within_tolerance(claim, measured):
    value = measured[claim.id]
    assert value == pytest.approx(
        claim.repro, rel=claim.rel, abs=claim.abs
    ), f"{claim.id}: measured {value}, paper {claim.paper}"
    assert claim.holds(value)


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_value_outside_tolerance_fails(claim):
    """The gate bites: a value just past the tolerance on either side
    is a drift, one just inside it is not."""
    inside = claim.tolerance * 0.99
    outside = claim.tolerance * 1.01 + 1e-9
    assert claim.holds(claim.repro + inside)
    assert claim.holds(claim.repro - inside)
    assert not claim.holds(claim.repro + outside)
    assert not claim.holds(claim.repro - outside)


def test_flags_are_frozen_exactly():
    for claim in CLAIMS:
        if claim.fmt == FLAG:
            assert claim.tolerance == 0.0, claim.id
            assert claim.paper == claim.repro == 1.0, claim.id


def test_drift_renders_as_drift():
    claim = next(c for c in CLAIMS if c.id == "fig14.edp_vs_dense_geomean")
    table = render_claims([(claim, 9.9)])
    assert "| 9.9x |" in table
    assert "DRIFT (frozen 6.4x" in table
    assert "| ok |" not in table


def test_report_renders_every_claim_ok(tmp_path, capsys):
    path = tmp_path / "EXPERIMENTS.md"
    assert main(["report", "--output", str(path)]) == 0
    document = path.read_text()
    for info in ARTIFACTS.infos():
        assert f"## {info.title}" in document
    claims = document.split("\n## Paper claims\n")[1]
    rows = [
        line for line in claims.splitlines() if "(`" in line
    ]
    assert len(rows) == len(CLAIMS)
    for claim, row in zip(CLAIMS, rows):
        assert f"(`{claim.id}`)" in row
        assert row.endswith("| ok |"), row
    assert "| 6.4x | 6.4x |" in claims  # Fig. 14's geomean vs dense
    assert "| 5.7% | 5.6% |" in claims  # the SAF area share
