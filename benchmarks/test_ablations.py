"""Ablation benches — every entry of the ablation table at paper scale.

Each entry of ``repro.experiments.ablations.ABLATIONS`` (A1-A8, EXT,
EXT2) runs on the §5.1 configuration, prints its table and must
satisfy its own claim rows — the same rows ``repro ablation ID``
prints.  Each runs ``QUERIES`` queries per run, except A4 and A8: they
sweep flooding, the costliest protocol, over four worlds or TTLs, so
they run half the horizon, with a floor.
"""

import pytest

from repro.analysis import claim_verdicts, render_claim_lines
from repro.experiments import paper_config
from repro.experiments.ablations import ABLATIONS, run_ablation

#: Query horizon per ablation run.
QUERIES = 400

_HORIZONS = {
    "a4": lambda queries: max(150, queries // 2),
    "a8": lambda queries: max(200, queries // 2),
}


@pytest.mark.parametrize("entry", ABLATIONS.values(), ids=list(ABLATIONS))
def test_ablation(entry, show):
    queries = _HORIZONS.get(entry.id, lambda queries: queries)(QUERIES)
    result = run_ablation(entry, paper_config(), queries)
    show(result.render())

    checks = entry.check(result)
    assert checks, f"the ablation table declares no {entry.id} rows"
    assert all(check.holds for check in checks), render_claim_lines(
        claim_verdicts({paper_config().seed: checks})
    )
