"""Golden world ledger: a built world must not move unnoticed.

``tests/golden/run_documents.json`` sees a world only through 80
queries on 60 peers.  ``tests/golden/worlds.json`` pins the world
itself: one sha256 per ``NetworkBlueprint.build`` for seeds {1, 2} ×
{euclidean, router} at 60 and 600 peers, plus the 6000-peer router
world of seed 1 (the ``small_config`` ratios the benchmark uses: 3
files per peer, 9x keyword pool), the 1000-peer world at the
``paper_config`` ratios, and one 60-peer world per build branch those
leave out (``VARIANTS``), over

- every peer's locId,
- the latency model's placement, through ``latency_ms`` of a fixed
  sample of peer pairs (``repr`` of the floats: exact),
- every peer's gid and initial shares,
- every filename in file-id order,
- the overlay wiring, as CSR arrays (``indptr`` / ``indices``) derived
  from the public rows (``neighbors_view``), so the digests recorded
  when the graph stored its rows that way still hold.

A change to the build that claims "same world, RNG streams consumed
draw for draw" proves it by leaving that file alone.

Regenerate (only for an intentional, documented re-baseline)::

    PYTHONPATH=src python tests/test_golden_worlds.py
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.experiments import small_config
from repro.overlay.blueprint import NetworkBlueprint

GOLDEN_PATH = Path(__file__).parent / "golden" / "worlds.json"

LATENCY_MODELS = ("euclidean", "router")
PEERS = (60, 600)
SEEDS = (1, 2)
PAIR_SAMPLE = 500

#: Config changes of the worlds that take the build's other branches.
VARIANTS = {
    "uniform": {"peer_placement": "uniform"},  # no cluster draws
    "pool20": {"keyword_pool_size": 20},  # random.sample's list branch (pool <= 21)
    "kw6": {"keywords_per_file": 6},  # random.sample's list branch (k > 5)
    "dense": {"mean_degree": 40},  # the dense-regime G(n, M) overlay
}

WORLDS = (
    [
        (model, peers, seed, None)
        for model in LATENCY_MODELS
        for peers in PEERS
        for seed in SEEDS
    ]
    + [("router", 6000, 1, None)]  # the population idle_6k runs
    + [("euclidean", 1000, 1, None)]  # paper_config: 3000 files, 9000 keywords
    + [("euclidean", 60, 1, variant) for variant in VARIANTS]
)


def world_name(model, peers, seed, variant=None):
    name = f"{model}/{peers}peers/seed{seed}"
    return name if variant is None else f"{name}/{variant}"


def world_config(model, peers, seed, **changes):
    """``small_config`` at the benchmark's ratios, for any population."""
    ratios = {
        "num_peers": peers,
        "num_files": 3 * peers,
        "keyword_pool_size": 9 * peers,
        "latency_model": model,
    }
    return small_config(seed=seed).replace(**{**ratios, **changes})


def csr(graph, peers):
    """The wiring as ``indptr`` / ``indices``: every row in peer-id order."""
    indptr, indices = [0], []
    for pid in range(peers):
        indices.extend(graph.neighbors_view(pid))
        indptr.append(len(indices))
    return {"indptr": indptr, "indices": indices}


def world_digest(model, peers, seed, variant=None):
    """sha256 of one freshly built world."""
    changes = VARIANTS[variant] if variant is not None else {}
    world = NetworkBlueprint.build(world_config(model, peers, seed, **changes))
    pick = random.Random(peers).randrange  # the sample depends on the size only
    latency_ms = world.underlay.latency_ms
    parts = {
        "locids": [world.underlay.locid_of(pid) for pid in range(peers)],
        "latency_ms": [
            repr(latency_ms(pick(peers), pick(peers))) for _ in range(PAIR_SAMPLE)
        ],
        "gids": list(world.gids),
        "initial_shares": [list(shares) for shares in world.initial_shares],
        "filenames": [
            world.catalog.filename(fid) for fid in range(world.catalog.num_files)
        ],
        **csr(world.graph, peers),
    }
    text = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_ledger_covers_exactly_the_world_matrix(golden):
    assert sorted(golden) == sorted(world_name(*world) for world in WORLDS)


@pytest.mark.parametrize("world", WORLDS, ids=lambda world: world_name(*world))
def test_world_matches_golden(golden, world):
    assert world_digest(*world) == golden[world_name(*world)]


def regenerate():
    ledger = {world_name(*world): world_digest(*world) for world in WORLDS}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(ledger)} worlds to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
