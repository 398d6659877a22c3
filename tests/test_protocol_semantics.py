"""Behavioural tests of subtle protocol semantics (§3.1 fine print)."""


import pytest

from repro.files import FileCatalog, FileRecord, KeywordPool
from repro.files.keywords import join_keywords
from repro.overlay import P2PNetwork
from repro.protocols import FloodingProtocol
from repro.sim import SimulationConfig


class TestAnyMatchingFileSatisfies:
    """§3.1: "q can be satisfied by any file f which filename contains
    all keywords of q" — not only the file the workload sampled."""

    def _network_with_overlapping_files(self):
        """Build a catalog guaranteed to contain two files sharing a
        keyword, then a network over it."""
        config = SimulationConfig.small(seed=2)
        network = P2PNetwork.build(config)
        catalog = network.catalog
        # Find two files sharing at least one keyword.
        for fid_a in range(catalog.num_files):
            kws_a = catalog.keywords(fid_a)
            for kw in kws_a:
                matches = catalog.matching_files([kw])
                if len(matches) >= 2:
                    other = next(m for m in sorted(matches) if m != fid_a)
                    return network, fid_a, other, kw
        pytest.skip("catalog has no keyword shared by two files on this seed")

    def test_query_satisfied_by_non_target_file(self):
        network, target, other, shared_kw = self._network_with_overlapping_files()
        protocol = FloodingProtocol(network)
        for peer in network.peers:
            peer.store.clear()
        holder = 40 if network.peer(40) else 40
        network.peer(holder).store.add(other)  # only the *other* file exists
        qid = protocol.issue_query(0, target, (shared_kw,))
        assert qid is not None
        network.sim.run()
        outcome = protocol.outcomes[0]
        assert outcome.success
        assert outcome.target_file == target
        assert outcome.downloaded_file == other

    def test_downloaded_file_recorded_for_replication(self):
        network, target, other, shared_kw = self._network_with_overlapping_files()
        protocol = FloodingProtocol(network)
        for peer in network.peers:
            peer.store.clear()
        network.peer(40).store.add(other)
        protocol.issue_query(0, target, (shared_kw,))
        network.sim.run()
        # The origin replicates what it downloaded, not what it wanted.
        assert network.peer(0).store.contains(other)
        assert not network.peer(0).store.contains(target)


class TestCatalogEdgeCases:
    def test_duplicate_filename_rejected(self):
        pool = KeywordPool(10)
        record = FileRecord(0, join_keywords(["kw000001", "kw000002"]),
                            frozenset(["kw000001", "kw000002"]))
        clone = FileRecord(1, record.filename, record.keywords)
        with pytest.raises(ValueError):
            FileCatalog([record, clone], pool)

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            FileCatalog([], KeywordPool(10))


class TestMessageAccountingIsolation:
    """Each query's tally must be isolated from concurrent queries."""

    def test_concurrent_queries_do_not_share_tallies(self):
        network = P2PNetwork.build(SimulationConfig.small(seed=5))
        protocol = FloodingProtocol(network)
        for peer in network.peers:
            peer.store.clear()
        qid_a = protocol.issue_query(0, 7, tuple(sorted(network.catalog.keywords(7))))
        qid_b = protocol.issue_query(1, 8, tuple(sorted(network.catalog.keywords(8))))
        network.sim.run()
        outcomes = {o.query_id: o for o in protocol.outcomes}
        total = network.metrics.counter("messages.query").value
        # Tallies are per-query and sum to the global query-message count
        # (no responses exist: stores are empty).
        assert outcomes[qid_a].messages + outcomes[qid_b].messages == total
