"""Golden run-document ledger: stored results must not move unnoticed.

``tests/golden/run_documents.json`` holds two sha256 digests for every
protocol × {baseline, churn-storm, flash-crowd} × seeds {1, 2} cell at
60 peers / 80 queries, on both latency models, and for two slices that
reach the write paths those cells barely touch:

- ``churn-storm:calm_session_s=60`` for every protocol: dozens of
  leaves and rejoins per cell, so the overlay's ``remove_peer`` /
  ``add_peer`` and the session-state resets run in earnest;
- ``baseline@index_capacity=1`` for the four caching protocols: a
  one-entry index, so every cache evicts.

Each cell has two digests:

``document``
    the canonical ``run_to_document`` JSON — everything a result store
    keeps for the cell, run-level bookkeeping (``sim_time_s``,
    ``events_processed``) included;
``science``
    what the paper's figures are made of and nothing else — the
    document's ``summary``, ``series`` and ``locally_satisfied`` plus
    the ``repr`` of every :class:`~repro.protocols.base.QueryOutcome`
    (all its fields: ``issued_at``, ``messages``, ``provider``, …).

A change that claims "byte-identical results" proves it by leaving this
file alone.  The ledger holds under any ``PYTHONHASHSEED``:
:class:`TestHashSeedEnvelope` recomputes one cell per protocol in
subprocesses under ``0``, ``1`` and ``random`` and finds the ledger's
digests each time.  A re-baseline that moves run-level bookkeeping only (how
long a cell keeps running after its last query, say) regenerates the
``document`` column and must leave the ``science`` column alone; the
diff of this file then *is* the proof that no figure can have moved.

Regenerate (only for an intentional, documented re-baseline)::

    PYTHONPATH=src python tests/test_golden_documents.py

That rewrites ``document`` digests and records cells new to the
matrix: if the ``science`` digest of a cell already in the ledger would
move it names the cells, writes nothing and exits non-zero.  Moving
those takes the explicit ``--science`` argument.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.persistence import run_to_document
from repro.experiments import PROTOCOL_REGISTRY, run_protocol, small_config
from repro.experiments.grid import ScenarioSpec
from repro.results.keys import canonical_json

GOLDEN_PATH = Path(__file__).parent / "golden" / "run_documents.json"

LATENCY_MODELS = ("euclidean", "router")
SCENARIOS = ("baseline", "churn-storm", "flash-crowd")
SEEDS = (1, 2)
MAX_QUERIES = 80
BUCKET_WIDTH = 20

#: Document fields that describe the run, not its queries.
RUN_LEVEL_FIELDS = ("sim_time_s", "events_processed")

#: The protocols that cache indexes (all but flooding).
CACHING_PROTOCOLS = sorted(set(PROTOCOL_REGISTRY) - {"flooding"})

#: (model, protocol, scenario, seed, config overrides); ``scenario`` is
#: in the grid's ``name:key=value`` form.
CELLS = [
    (model, protocol, scenario, seed, ())
    for model in LATENCY_MODELS
    for protocol in sorted(PROTOCOL_REGISTRY)
    for scenario in SCENARIOS
    for seed in SEEDS
] + [
    (model, protocol, scenario, seed, overrides)
    for scenario, overrides, protocols in (
        ("churn-storm:calm_session_s=60", (), sorted(PROTOCOL_REGISTRY)),
        ("baseline", (("index_capacity", 1),), CACHING_PROTOCOLS),
    )
    for model in LATENCY_MODELS
    for protocol in protocols
    for seed in SEEDS
]

#: One cell per protocol for :class:`TestHashSeedEnvelope`: under a
#: storm on 60 s calm sessions peers leave, rejoin and rewire dozens of
#: times a cell, the most set- and dict-shaped work a cell does.
ENVELOPE_CELLS = [
    ("router", protocol, "churn-storm:calm_session_s=60", 1, ())
    for protocol in sorted(PROTOCOL_REGISTRY)
]


def cell_name(model, protocol, scenario, seed, overrides=()):
    suffix = "".join(f"@{key}={value}" for key, value in overrides)
    return f"{model}/{protocol}/{scenario}{suffix}/seed{seed}"


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_digests(model, protocol, scenario, seed, overrides=()):
    """``{"document": sha, "science": sha}`` of one freshly run cell."""
    config = small_config(seed=seed).replace(
        query_rate_per_peer=0.02, latency_model=model, **dict(overrides)
    )
    run = run_protocol(
        config,
        protocol,
        max_queries=MAX_QUERIES,
        bucket_width=BUCKET_WIDTH,
        scenario=ScenarioSpec.parse(scenario).make(),
        collect_telemetry=False,
    )
    document = run_to_document(run)
    science = {k: v for k, v in document.items() if k not in RUN_LEVEL_FIELDS}
    # repr, not JSON: a failed query's distance is NaN, which the strict
    # canonical form refuses, and repr(float) round-trips exactly.
    outcomes = "\n".join(repr(outcome) for outcome in run.outcomes)
    return {
        "document": _sha256(canonical_json(document)),
        "science": _sha256(canonical_json(science) + "\n" + outcomes),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_ledger_covers_exactly_the_cell_matrix(golden):
    assert sorted(golden) == sorted(cell_name(*cell) for cell in CELLS)
    assert all(sorted(entry) == ["document", "science"] for entry in golden.values())


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell_name(*cell))
def test_run_document_matches_golden(golden, cell):
    digests = cell_digests(*cell)
    expected = golden[cell_name(*cell)]
    # Science first: if both moved, that is the failure worth reading.
    assert digests["science"] == expected["science"]
    assert digests["document"] == expected["document"]


class TestHashSeedEnvelope:
    """String hashing is randomised per process unless ``PYTHONHASHSEED``
    pins it, so a result that leaned on the iteration order of a set or
    dict of strings would differ between two processes.  Each hash seed
    runs in a fresh interpreter and must reproduce the ledger."""

    @pytest.mark.parametrize("hash_seed", ["0", "1", "random"])
    def test_ledger_cells_match_under_the_hash_seed(self, golden, hash_seed):
        script = (
            "import json\n"
            "from test_golden_documents import ENVELOPE_CELLS, cell_digests, cell_name\n"
            "print(json.dumps({cell_name(*c): cell_digests(*c) for c in ENVELOPE_CELLS}))"
        )
        path = os.pathsep.join(
            [str(Path(repro.__file__).parents[1]), str(Path(__file__).parent)]
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {
            cell_name(*cell): golden[cell_name(*cell)] for cell in ENVELOPE_CELLS
        }


def regenerate(argv):
    """Rewrite the ledger; returns the process exit status."""
    if argv not in ([], ["--science"]):
        print(f"usage: {Path(__file__).name} [--science]", file=sys.stderr)
        return 2
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    ledger = {cell_name(*cell): cell_digests(*cell) for cell in CELLS}
    added = [name for name in ledger if name not in old]
    changed = {
        column: [
            name
            for name, digests in ledger.items()
            if name in old and old[name].get(column) != digests[column]
        ]
        for column in ("document", "science")
    }
    moved = changed["science"]
    if moved and not argv:
        print(
            f"refusing to write: the science digest of {len(moved)} cell(s) "
            "would move (per-query outcomes or figure series changed); "
            "pass --science if that is the documented intent:",
            file=sys.stderr,
        )
        for name in moved:
            print(f"  {name}", file=sys.stderr)
        return 1
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print(
        f"wrote {len(ledger)} cells to {GOLDEN_PATH}: "
        f"{len(changed['document'])} document digest(s) changed, "
        f"{len(moved)} science digest(s) changed"
    )
    if added:
        print(f"{len(added)} cell(s) added:")
        for name in added:
            print(f"  {name}")
    return 0


class TestRegenerate:
    """The entry point itself, on a one-cell ledger in a scratch file."""

    @pytest.fixture
    def one_cell(self, golden, tmp_path, monkeypatch):
        cell = CELLS[0]
        path = tmp_path / "ledger.json"
        monkeypatch.setattr(sys.modules[__name__], "CELLS", [cell])
        monkeypatch.setattr(sys.modules[__name__], "GOLDEN_PATH", path)
        return cell_name(*cell), dict(golden[cell_name(*cell)]), path

    def test_document_only_move_is_rewritten(self, one_cell):
        name, entry, path = one_cell
        path.write_text(json.dumps({name: {**entry, "document": "stale"}}))
        assert regenerate([]) == 0
        assert json.loads(path.read_text()) == {name: entry}

    def test_science_move_is_refused_and_named(self, one_cell, capsys):
        name, entry, path = one_cell
        before = json.dumps({name: {**entry, "science": "stale"}})
        path.write_text(before)
        assert regenerate([]) == 1
        assert name in capsys.readouterr().err
        assert path.read_text() == before

    def test_added_cell_is_written_and_named(self, one_cell, capsys):
        """A cell new to the matrix has no digest to move: it is
        recorded without ``--science`` and reported on its own line."""
        name, entry, path = one_cell
        path.write_text(json.dumps({}))
        assert regenerate([]) == 0
        assert json.loads(path.read_text()) == {name: entry}
        out = capsys.readouterr().out
        assert "0 science digest(s) changed" in out
        assert "1 cell(s) added" in out and name in out

    def test_science_move_needs_the_explicit_argument(self, one_cell):
        name, entry, path = one_cell
        path.write_text(json.dumps({name: {**entry, "science": "stale"}}))
        assert regenerate(["--science"]) == 0
        assert json.loads(path.read_text()) == {name: entry}


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
