"""Generate EXPERIMENTS.md: every artifact plus the paper-claims ledger.

:func:`run_report` runs every registered artifact as one
:class:`~repro.eval.artifacts.RunPlan`, stacks each result's registry
``md`` section in paper order under a document header, and closes with
the ``## Paper claims`` table rendered from
:data:`repro.eval.claims.CLAIMS` over the same results. A new artifact
shows up in the report by being registered, and a new paper number by
being a ledger row — there is no per-figure report code.
"""

from __future__ import annotations

from typing import Tuple

from repro.eval.artifacts import ARTIFACTS, RunOutcome, RunPlan
from repro.eval.claims import CLAIMS, ClaimContext, render_claims
from repro.eval.engine import ContextLike, EngineContext

MD_HEADER = """\
# EXPERIMENTS — paper vs. measured

Generated by ``python -m repro report``: every registered artifact
rendered as a markdown section (the artifact registry's ``md`` format),
in paper order, then the paper-claims ledger — each of the paper's
checkable numbers next to the measured value. Each section regenerates
standalone via the command it names. Absolute pJ/cycle values differ
from the authors' 65 nm RTL + Sparseloop numbers by construction; the
reproduction targets are the *relative* results.
"""


def run_report(ctx: ContextLike = None) -> Tuple[str, RunOutcome]:
    """Run every artifact and the ledger; compose EXPERIMENTS.md.

    One shared context is the whole report's memoization domain (the
    ledger's shape sweep and EfficientNet extension reuse its cells).
    Returns ``(document, outcome)`` so callers can also record the
    run's per-artifact stats (the CLI's ``--record``).
    """
    ctx = EngineContext.coerce(ctx)
    outcome = RunPlan.from_names(list(ARTIFACTS), ctx).run()
    claim_ctx = ClaimContext(outcome.results, ctx)
    measured = [(c, float(c.measure(claim_ctx))) for c in CLAIMS]
    sections = [MD_HEADER] + [
        ARTIFACTS[name].render(result, "md")
        for name, result in outcome.results.items()
    ] + [render_claims(measured)]
    return "\n\n".join(sections) + "\n", outcome
