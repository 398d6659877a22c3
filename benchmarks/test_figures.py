"""Figures 2-4 bench — regenerates the §5.2 comparison at paper scale.

The session fixture runs the four protocols once at the §5.1
configuration.  Each figure prints its series and must satisfy its
rows of the claim table (``repro.analysis.PAPER_CLAIMS``) — the same
rows ``repro figures`` / ``claims`` print and ``repro seed-sweep``
tallies:

- Figure 2: Locaware's download distance sits below every baseline
  (paper: ~14%), below flooding's in both halves of the run, and
  improves as queries accumulate, because natural replication keeps
  adding providers in new localities;
- Figure 3: "Locaware like Dicas approaches, outperforms flooding by
  98% in terms of search traffic reduction" — each caching protocol
  cuts more than 90%, and the three stay within 3x of each other;
- Figure 4: flooding wins on success rate (maximal scope at maximal
  cost); Locaware beats Dicas (+23%) and Dicas-Keys (+33%) thanks to
  multi-provider indexes and true keyword support.

``test_paper_scale`` checks that the run is big enough for those rows
to mean anything.
"""

import math

import pytest

from repro.analysis import check_paper_claims, render_claim_lines
from repro.experiments import FIGURES, fig2_download_distance


@pytest.mark.parametrize("figure", FIGURES, ids=lambda f: f.EXPERIMENT_ID)
def test_figure(figure, figure_comparison, benchmark, show):
    benchmark(figure.figure_series, figure_comparison)
    show(figure.render(figure_comparison))

    checks = check_paper_claims(figure_comparison, figure.EXPERIMENT_ID)
    assert checks, f"the claim table has no {figure.EXPERIMENT_ID} rows"
    assert all(check.holds for check in checks), render_claim_lines(checks)


def test_paper_scale(figure_comparison):
    flooding = figure_comparison.summaries()["flooding"].mean_messages
    assert flooding > 100, "flooding at paper scale floods hundreds of messages"
    distances = fig2_download_distance.figure_series(figure_comparison)["locaware"]
    buckets = [d for d in distances if not math.isnan(d)]
    assert len(buckets) >= 3, f"too few distance buckets to split: {distances}"
