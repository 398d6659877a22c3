"""Unit tests for the tracing hooks."""

import json

import pytest

from repro.sim import JsonlTracer, NullTracer, RecordingTracer


class TestNullTracer:
    def test_is_disabled(self):
        assert NullTracer().enabled is False

    def test_emit_is_noop(self):
        NullTracer().emit(1.0, "anything", a=1)  # must not raise


class TestRecordingTracer:
    def test_records_events_in_order(self):
        tracer = RecordingTracer()
        tracer.emit(1.0, "query.issue", qid=1)
        tracer.emit(2.0, "query.hit", qid=1)
        assert [e.kind for e in tracer.events] == ["query.issue", "query.hit"]

    def test_payload_preserved(self):
        tracer = RecordingTracer()
        tracer.emit(1.0, "cache.insert", file_id=42, peer=7)
        event = tracer.events[0]
        assert event.payload == {"file_id": 42, "peer": 7}
        assert event.time == 1.0

    def test_of_kind_filters(self):
        tracer = RecordingTracer()
        tracer.emit(1.0, "a")
        tracer.emit(2.0, "b")
        tracer.emit(3.0, "a")
        assert len(tracer.of_kind("a")) == 2

    def test_count(self):
        tracer = RecordingTracer()
        for _ in range(3):
            tracer.emit(0.0, "x")
        assert tracer.count("x") == 3
        assert tracer.count("y") == 0

    def test_kind_filter_at_construction(self):
        tracer = RecordingTracer(kinds=["keep"])
        tracer.emit(0.0, "keep")
        tracer.emit(0.0, "drop")
        assert [e.kind for e in tracer.events] == ["keep"]

    def test_clear(self):
        tracer = RecordingTracer()
        tracer.emit(0.0, "x")
        tracer.clear()
        assert tracer.events == []


    def test_disabled_records_nothing(self):
        tracer = RecordingTracer()
        tracer.enabled = False
        tracer.emit(0.0, "x")
        assert tracer.events == []
        tracer.enabled = True
        tracer.emit(1.0, "x")
        assert len(tracer.events) == 1


class TestJsonlTracer:
    def test_writes_parseable_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(path) as tracer:
            tracer.emit(1.0, "query.issue", qid=1, origin=7)
            tracer.emit(2.5, "query.hit", qid=1, peer=3)
        lines = path.read_text(encoding="utf-8").splitlines()
        events = [json.loads(line) for line in lines]
        assert events == [
            {"t": 1.0, "kind": "query.issue", "qid": 1, "origin": 7},
            {"t": 2.5, "kind": "query.hit", "qid": 1, "peer": 3},
        ]
        assert tracer.events_written == 2

    def test_kinds_filter(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(path, kinds=["keep"]) as tracer:
            tracer.emit(0.0, "keep")
            tracer.emit(0.0, "drop")
        assert tracer.events_written == 1
        (event,) = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert event["kind"] == "keep"

    def test_limit_counts_dropped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(path, limit=2) as tracer:
            for i in range(5):
                tracer.emit(float(i), "x")
        assert tracer.events_written == 2
        assert tracer.events_dropped == 3
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2

    def test_negative_limit_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlTracer(tmp_path / "t.jsonl", limit=-1)

    def test_emit_after_close_raises(self, tmp_path):
        tracer = JsonlTracer(tmp_path / "t.jsonl")
        tracer.close()
        tracer.close()  # idempotent
        with pytest.raises(ValueError):
            tracer.emit(0.0, "x")

    def test_disabled_suppresses_emit(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTracer(path) as tracer:
            tracer.enabled = False
            tracer.emit(0.0, "x")
        assert tracer.events_written == 0
        assert path.read_text(encoding="utf-8") == ""

    def test_non_jsonable_payload_falls_back_to_repr(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTracer(path) as tracer:
            tracer.emit(0.0, "x", value={1, 2})
        (event,) = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert event["value"] == repr({1, 2})

    def test_payload_cannot_shadow_canonical_fields(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTracer(path) as tracer:
            # A payload key named "t" must not clobber the canonical
            # sim-time field ("kind" cannot even be passed: it collides
            # with the positional parameter).
            tracer.emit(1.0, "x", t=999.0, extra=5)
        (event,) = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert event["t"] == 1.0
        assert event["kind"] == "x"
        assert event["extra"] == 5
