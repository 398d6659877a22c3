"""Golden run-document ledger: stored results must not move unnoticed.

``tests/golden/run_documents.json`` holds the sha256 of the canonical
``run_to_document`` JSON of every protocol × {baseline, churn-storm,
flash-crowd} × seeds {1, 2} cell at 60 peers / 80 queries, on both
latency models.  A change that claims "byte-identical results" proves
it by leaving this file alone; a change that moves results on purpose
regenerates it in the same commit, which makes the re-baseline visible
in the diff (ROADMAP item 3: the ledger for items 2a and 3).

Regenerate (only for an intentional, documented re-baseline)::

    PYTHONPATH=src python tests/test_golden_documents.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.persistence import run_to_document
from repro.experiments import PROTOCOL_REGISTRY, run_protocol, small_config
from repro.results.keys import canonical_json

GOLDEN_PATH = Path(__file__).parent / "golden" / "run_documents.json"

LATENCY_MODELS = ("euclidean", "router")
SCENARIOS = ("baseline", "churn-storm", "flash-crowd")
SEEDS = (1, 2)
MAX_QUERIES = 80
BUCKET_WIDTH = 20

CELLS = [
    (model, protocol, scenario, seed)
    for model in LATENCY_MODELS
    for protocol in sorted(PROTOCOL_REGISTRY)
    for scenario in SCENARIOS
    for seed in SEEDS
]


def cell_name(model, protocol, scenario, seed):
    return f"{model}/{protocol}/{scenario}/seed{seed}"


def document_sha256(model, protocol, scenario, seed):
    """sha256 of the canonical JSON of one cell's stored run document."""
    config = small_config(seed=seed).replace(
        query_rate_per_peer=0.02, latency_model=model
    )
    run = run_protocol(
        config,
        protocol,
        max_queries=MAX_QUERIES,
        bucket_width=BUCKET_WIDTH,
        scenario=scenario,
        collect_telemetry=False,
    )
    blob = canonical_json(run_to_document(run))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_ledger_covers_exactly_the_cell_matrix(golden):
    assert sorted(golden) == sorted(cell_name(*cell) for cell in CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell_name(*cell))
def test_run_document_matches_golden(golden, cell):
    assert document_sha256(*cell) == golden[cell_name(*cell)]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    ledger = {cell_name(*cell): document_sha256(*cell) for cell in CELLS}
    GOLDEN_PATH.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(ledger)} digests to {GOLDEN_PATH}")
