"""Unit tests for trace serialisation and replay."""

import io

import pytest

from repro.overlay import P2PNetwork
from repro.sim import SimulationConfig
from repro.workload import (
    QueryEvent,
    QueryWorkload,
    TraceRecorder,
    TraceReplayer,
    parse_trace,
    serialize_trace,
)


def make_network(seed=5):
    config = SimulationConfig.small(seed=seed).replace(query_rate_per_peer=0.05)
    return P2PNetwork.build(config)


def generate_history(seed=5, count=30):
    network = make_network(seed)
    recorder = TraceRecorder(network, lambda *a: None)
    QueryWorkload(network, recorder, max_queries=count).start()
    network.sim.run()
    return recorder.events


class TestSerialisation:
    def test_roundtrip(self):
        history = generate_history()
        buffer = io.StringIO()
        written = serialize_trace(history, buffer)
        assert written == len(history)
        buffer.seek(0)
        parsed = parse_trace(buffer)
        assert len(parsed) == len(history)
        for original, restored in zip(history, parsed):
            assert restored.index == original.index
            assert restored.origin == original.origin
            assert restored.file_id == original.file_id
            assert restored.keywords == original.keywords
            assert restored.time == pytest.approx(original.time, abs=1e-6)

    def test_parse_skips_comments_and_blanks(self):
        text = "# a comment\n\n1 0.500000 3 42 kw1,kw2\n"
        events = parse_trace(io.StringIO(text))
        assert len(events) == 1
        assert events[0].origin == 3
        assert events[0].keywords == ("kw1", "kw2")

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_trace(io.StringIO("1 2 3\n"))


class TestReplay:
    def test_replay_reissues_every_event(self):
        history = generate_history(seed=7)
        network = make_network(seed=7)
        issued = []
        replayer = TraceReplayer(
            network, lambda o, f, k: issued.append((o, f, k)), history
        )
        replayer.start()
        network.sim.run()
        assert replayer.replayed == len(history)
        assert issued == [(e.origin, e.file_id, e.keywords) for e in history]

    def test_replay_respects_recorded_times(self):
        history = generate_history(seed=9)
        network = make_network(seed=9)
        times = []
        replayer = TraceReplayer(
            network, lambda *a: times.append(network.sim.now), history
        )
        replayer.start()
        network.sim.run()
        assert times == pytest.approx([e.time for e in history])

    def test_replay_skips_dead_origins(self):
        history = generate_history(seed=11)
        network = make_network(seed=11)
        dead_origin = history[0].origin
        network.peer(dead_origin).alive = False
        replayer = TraceReplayer(network, lambda *a: None, history)
        replayer.start()
        network.sim.run()
        expected = sum(1 for e in history if e.origin != dead_origin)
        assert replayer.replayed == expected

    def test_replay_sorts_events_by_time(self):
        events = [
            QueryEvent(index=2, time=5.0, origin=1, file_id=2, keywords=("kw000001",)),
            QueryEvent(index=1, time=1.0, origin=0, file_id=3, keywords=("kw000002",)),
        ]
        network = make_network(seed=13)
        order = []
        replayer = TraceReplayer(network, lambda o, f, k: order.append(f), events)
        replayer.start()
        network.sim.run()
        assert order == [3, 2]
