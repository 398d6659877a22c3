"""Protocol state made on first use ≡ protocol state made for everybody.

A peer's response index and Bloom state are created by
``index_of`` / ``state_of`` the first time the peer caches or hears
something; a peer that never does carries none, and a rejoined peer is
one whose ``protocol_state`` was cleared.  The oracle kept here is what
the protocols used to do themselves: create that state for every peer
before ``start()`` and again for each peer that rejoins.  Both ways must
store the same document, count the same metrics and report the same
telemetry — state that is never written is indistinguishable from state
that is not there.
"""

import hashlib

import pytest
from test_golden_worlds import world_config

import repro.experiments.runner as runner_module
from repro.analysis.persistence import run_to_document
from repro.experiments import PROTOCOL_REGISTRY, run_protocol
from repro.experiments.grid import ScenarioSpec
from repro.overlay.churn import ChurnProcess
from repro.results.keys import canonical_json

#: The churn storm of the benchmark's ``churn_600`` workload
#: (``bench/workloads.py``): ~1.7 leaves per peer in a 1500-query cell.
CHURN_STORM = (
    "churn-storm:calm_session_s=300,calm_downtime_s=60,"
    "storm_session_s=20,storm_downtime_s=20"
)
#: (peers, queries)
SIZES = ((60, 80), (600, 150))


def touch(protocol, peer):
    """Create whatever state ``protocol`` keeps on ``peer``."""
    if hasattr(protocol, "index_of"):
        protocol.index_of(peer)
    if hasattr(protocol, "bloom_router"):
        protocol.bloom_router.state_of(peer)


def eagerly(monkeypatch):
    """Make ``run_protocol`` create state for every peer, up front and on rejoin."""
    protocols = []
    make_protocol = runner_module.make_protocol
    rejoin = ChurnProcess._rejoin

    def eager_make_protocol(name, network, **options):
        protocol = make_protocol(name, network, **options)
        for peer in network.peers:
            touch(protocol, peer)
        protocols.append(protocol)
        return protocol

    def eager_rejoin(churn, peer_id):
        peer = churn._network.peer(peer_id)
        was_down = not peer.alive
        rejoin(churn, peer_id)
        if was_down:
            touch(protocols[-1], peer)

    monkeypatch.setattr(runner_module, "make_protocol", eager_make_protocol)
    monkeypatch.setattr(ChurnProcess, "_rejoin", eager_rejoin)


def observed(run):
    document = canonical_json(run_to_document(run))
    return (
        hashlib.sha256(document.encode("utf-8")).hexdigest(),
        # repr: an undersampled summary is NaN, which equals nothing.
        repr(run.metric_snapshot),
        repr(run.telemetry.protocol),
    )


@pytest.mark.parametrize("peers, queries", SIZES, ids=lambda v: str(v))
@pytest.mark.parametrize("scenario", ("baseline", CHURN_STORM), ids=("calm", "storm"))
@pytest.mark.parametrize("protocol", sorted(PROTOCOL_REGISTRY))
def test_a_cell_is_the_same_with_state_made_for_every_peer(
    protocol, scenario, peers, queries
):
    config = world_config("router", peers, seed=3, query_rate_per_peer=0.02)

    def cell():
        return run_protocol(
            config,
            protocol,
            max_queries=queries,
            bucket_width=20,
            scenario=ScenarioSpec.parse(scenario).make(),
        )

    shipped = cell()
    with pytest.MonkeyPatch.context() as mp:
        eagerly(mp)
        eager = cell()
    assert observed(shipped) == observed(eager)
    if scenario != "baseline":
        assert shipped.metric_snapshot["counter.churn.rejoins"] > 0
    if protocol == "locaware":
        # The comparison is not vacuous: the population-wide telemetry
        # counted filters the shipped run never made.
        assert shipped.telemetry.protocol["bloom"]["filters"] > 0
