"""Unit tests for the content-addressed result store and cell keys."""

import json
import os

import pytest

from repro.results import (
    SCHEMA_VERSION,
    CorruptResultError,
    ResultStore,
    canonical_json,
    cell_key,
    cell_key_payload,
    cell_label,
    scenario_label,
)

KEY_A = "a" * 64
KEY_B = "ab" + "0" * 62


def _payload(**changes):
    base = dict(
        config={"num_peers": 60, "seed": 1},
        protocol="locaware",
        scenario_name="baseline",
        scenario_params={},
        max_queries=100,
        bucket_width=25,
        topology_fingerprint="f" * 64,
    )
    base.update(changes)
    return cell_key_payload(**base)


class TestKeys:
    def test_key_is_hex_sha256(self):
        key = cell_key(_payload())
        assert len(key) == 64
        assert all(c in "0123456789abcdef" for c in key)

    def test_key_is_deterministic_and_order_insensitive(self):
        a = cell_key_payload(
            config={"num_peers": 60, "seed": 1},
            protocol="locaware",
            scenario_name="baseline",
            scenario_params={"b": 2, "a": 1},
            max_queries=100,
            bucket_width=25,
        )
        b = cell_key_payload(
            config={"seed": 1, "num_peers": 60},
            protocol="locaware",
            scenario_name="baseline",
            scenario_params={"a": 1, "b": 2},
            max_queries=100,
            bucket_width=25,
        )
        assert cell_key(a) == cell_key(b)

    @pytest.mark.parametrize(
        "changes",
        [
            {"protocol": "flooding"},
            {"scenario_name": "diurnal"},
            {"scenario_params": {"amplitude": 0.3}},
            {"config": {"num_peers": 60, "seed": 2}},
            {"max_queries": 101},
            {"bucket_width": 10},
        ],
    )
    def test_any_identity_change_changes_the_key(self, changes):
        assert cell_key(_payload()) != cell_key(_payload(**changes))

    def test_schema_version_is_in_the_payload(self):
        payload = _payload()
        assert payload["schema_version"] == SCHEMA_VERSION
        bumped = dict(payload, schema_version=SCHEMA_VERSION + 1)
        assert cell_key(payload) != cell_key(bumped)

    def test_canonical_json_is_minimal_and_sorted(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_labels(self):
        assert scenario_label("baseline", {}) == "baseline"
        assert (
            scenario_label("churn-storm", {"storm_time_s": 30.0})
            == "churn-storm[storm_time_s=30.0]"
        )
        assert cell_label("baseline", {}, {"ttl": 5}) == "baseline @ ttl=5"
        assert (
            cell_label("diurnal", {"amplitude": 0.3}, {"ttl": 5, "bloom_bits": 600})
            == "diurnal[amplitude=0.3] @ bloom_bits=600,ttl=5"
        )


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        document = {"kind": "grid-cell", "value": [1, 2, 3]}
        path = store.put(KEY_A, document)
        assert path.is_file()
        assert store.has(KEY_A)
        assert KEY_A in store
        assert store.get(KEY_A) == document

    def test_layout_is_sharded_by_key_prefix(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY_B, {})
        assert store.path_for(KEY_B) == tmp_path / "ab" / f"{KEY_B}.json"
        assert (tmp_path / "ab" / f"{KEY_B}.json").is_file()

    def test_missing_key(self, tmp_path):
        store = ResultStore(tmp_path)
        assert not store.has(KEY_A)
        with pytest.raises(KeyError, match="no result stored"):
            store.get(KEY_A)

    def test_keys_sorted_and_len(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = [KEY_A, KEY_B, "c" * 64]
        for key in reversed(keys):
            store.put(key, {"k": key})
        assert list(store.keys()) == sorted(keys)
        assert len(store) == 3

    def test_empty_store_without_directory(self, tmp_path):
        store = ResultStore(tmp_path / "never-created")
        assert list(store.keys()) == []
        assert len(store) == 0
        assert not store.has(KEY_A)

    def test_delete(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY_A, {})
        assert store.delete(KEY_A) is True
        assert not store.has(KEY_A)
        assert store.delete(KEY_A) is False

    def test_put_overwrites_atomically(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY_A, {"v": 1})
        store.put(KEY_A, {"v": 2})
        assert store.get(KEY_A) == {"v": 2}
        # No temp droppings left behind by the atomic-rename protocol.
        leftovers = [p for p in (tmp_path / KEY_A[:2]).iterdir() if "tmp" in p.name]
        assert leftovers == []

    def test_stored_file_is_plain_indented_json(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY_A, {"b": 1, "a": 2})
        text = store.path_for(KEY_A).read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert json.loads(text) == {"a": 2, "b": 1}
        assert text.index('"a"') < text.index('"b"')  # sort_keys

    @pytest.mark.parametrize("bad", ["", "short", "XYZ" * 22, "../../etc/passwd"])
    def test_malformed_keys_rejected(self, tmp_path, bad):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="malformed"):
            store.path_for(bad)

    def test_stray_files_are_not_listed_as_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY_B, {"v": 1})
        (tmp_path / "ab" / "notes.json").write_text("{}")
        (tmp_path / "ab" / f"{KEY_A}.json").write_text("{}")  # wrong shard
        (tmp_path / "README.md").write_text("not a shard")
        assert list(store.keys()) == [KEY_B]
        assert len(store) == 1

    def test_deleting_a_file_is_how_you_invalidate_one_cell(self, tmp_path):
        """The resume contract: removing one JSON file re-runs one cell."""
        store = ResultStore(tmp_path)
        store.put(KEY_A, {"v": 1})
        os.unlink(store.path_for(KEY_A))
        assert not store.has(KEY_A)


class TestCrashSafety:
    """Leftover temp files, corrupt documents, and their recovery."""

    def test_leftover_tmp_files_are_invisible_to_readers(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY_A, {"v": 1})
        orphan = tmp_path / KEY_A[:2] / f".{KEY_B}.4242.tmp"
        orphan.write_text('{"half": ')
        assert list(store.keys()) == [KEY_A]
        assert not store.has(KEY_B)

    def test_clean_tmp_removes_only_old_orphans(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY_A, {"v": 1})
        shard = tmp_path / KEY_A[:2]
        old = shard / f".{KEY_B}.1.tmp"
        fresh = shard / f".{'c' * 64}.2.tmp"
        old.write_text("x")
        fresh.write_text("x")
        hour_ago = os.path.getmtime(old) - 7200
        os.utime(old, (hour_ago, hour_ago))
        assert store.clean_tmp(max_age_s=3600.0) == 1
        assert not old.exists()
        assert fresh.exists()  # a live writer's file survives
        assert store.get(KEY_A) == {"v": 1}  # documents untouched

    def test_clean_tmp_on_missing_store(self, tmp_path):
        assert ResultStore(tmp_path / "never").clean_tmp() == 0

    def test_clean_tmp_looks_in_shards_only(self, tmp_path):
        """``<two characters>/.<anything>.tmp`` and nothing else: not the
        claims directory (heartbeat temp files are ``ClaimStore.prune``'s),
        not the root, and a stray two-character *file* is stepped over."""
        store = ResultStore(tmp_path)
        store.put(KEY_A, {"v": 1})
        (tmp_path / "claims").mkdir()
        (tmp_path / "zz").write_text("a file where a shard would be")
        kept = [
            tmp_path / "claims" / f".{KEY_A}.runner.hb.tmp",
            tmp_path / f".{KEY_A}.1.tmp",
            tmp_path / KEY_A[:2] / f"{KEY_A}.1.tmp",  # no leading dot
            tmp_path / KEY_A[:2] / f".{KEY_A}.1.tmp.bak",
            tmp_path / KEY_A[:2] / ".tmp",
        ]
        swept = tmp_path / KEY_A[:2] / "..tmp"
        for path in [*kept, swept]:
            path.write_text("x")
        assert store.clean_tmp(max_age_s=-1.0) == 1
        assert not swept.exists()
        assert all(path.exists() for path in kept)


class TestDirectoriesOnDemand:
    """A shard directory is made when a write finds it missing, not
    probed for before every document and sidecar."""

    def test_one_mkdir_per_new_shard_none_after(self, tmp_path, mkdirs):
        root = tmp_path / "store"
        store = ResultStore(root)
        same_shard = "aa" + "1" * 62
        for key in (KEY_A, same_shard, KEY_B):
            store.put(key, {"v": 1})
            store.put_sidecar(key, {"t": 1})
        assert mkdirs == [str(root), str(root / "aa"), str(root / "ab")]
        del mkdirs[:]
        for key in (KEY_A, same_shard, KEY_B):
            store.put(key, {"v": 2})
            store.put_sidecar(key, {"t": 2})
        assert mkdirs == []
        assert store.get(KEY_B) == {"v": 2}
        assert store.get_sidecar(same_shard) == {"t": 2}

    def test_a_sidecar_may_be_the_first_file_of_its_shard(self, tmp_path, mkdirs):
        store = ResultStore(tmp_path)
        store.put_sidecar(KEY_A, {"t": 1})
        assert mkdirs == [str(tmp_path / "aa")]
        assert store.get_sidecar(KEY_A) == {"t": 1}
        assert list(store.keys()) == []

    def test_a_failed_write_leaves_no_litter(self, tmp_path):
        """An unwritable shard still fails loudly, with nothing half made."""
        (tmp_path / "aa").write_text("a file where the shard would be")
        with pytest.raises(OSError):
            ResultStore(tmp_path).put(KEY_A, {"v": 1})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["aa"]

    @pytest.mark.parametrize("payload", ["{truncated", "", "[1, 2, 3]"])
    def test_corrupt_document_is_quarantined_not_fatal(self, tmp_path, payload):
        store = ResultStore(tmp_path)
        store.put(KEY_A, {"v": 1})
        store.path_for(KEY_A).write_text(payload)
        with pytest.raises(CorruptResultError) as excinfo:
            store.get(KEY_A)
        # Renamed aside, reported, and henceforth simply absent.
        quarantined = store.path_for(KEY_A).with_name(f"{KEY_A}.json.corrupt")
        assert excinfo.value.quarantined_to == quarantined
        assert quarantined.is_file()
        assert quarantined.read_text() == payload  # evidence preserved
        assert not store.has(KEY_A)
        assert list(store.keys()) == []
        with pytest.raises(KeyError):
            store.get(KEY_A)

    def test_quarantined_cell_can_be_rewritten(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY_A, {"v": 1})
        store.path_for(KEY_A).write_text("{broken")
        with pytest.raises(CorruptResultError):
            store.get(KEY_A)
        store.put(KEY_A, {"v": 2})  # the re-executed cell commits fine
        assert store.get(KEY_A) == {"v": 2}

    def test_corrupt_error_is_not_a_keyerror(self, tmp_path):
        """Callers distinguish 'absent' (KeyError) from 'was present
        but damaged' (CorruptResultError) — resume treats both as
        pending, but only the latter is reported."""
        assert not issubclass(CorruptResultError, KeyError)

    def test_quarantine_of_missing_file_returns_none(self, tmp_path):
        assert ResultStore(tmp_path).quarantine(KEY_A) is None


class TestStrictJSON:
    """Non-finite floats must not reach keys or stored documents: they
    serialise as non-standard NaN/Infinity tokens (invalid JSON for
    strict parsers) and nan != nan breaks key determinism."""

    def test_canonical_json_rejects_non_finite(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                canonical_json({"x": bad})

    def test_put_rejects_non_finite_and_leaves_no_litter(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError):
            store.put(KEY_A, {"metric": float("nan")})
        assert not store.has(KEY_A)
        # The document is encoded before the temp file is opened, so a
        # rejected put leaves nothing for clean_tmp to sweep.
        assert list(tmp_path.rglob("*.tmp")) == []
        assert len(store) == 0


class TestTelemetrySidecars:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        document = {"kind": "telemetry-sidecar", "telemetry": {"x": 1.5}}
        path = store.put_sidecar(KEY_A, document)
        assert path.name == f"{KEY_A}.telemetry.json"
        assert store.get_sidecar(KEY_A) == document

    def test_absent_reads_none(self, tmp_path):
        assert ResultStore(tmp_path).get_sidecar(KEY_A) is None

    def test_corrupt_sidecar_reads_none_without_quarantine(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_sidecar(KEY_A, {"ok": True})
        store.sidecar_path_for(KEY_A).write_text("{trunca", encoding="utf-8")
        assert store.get_sidecar(KEY_A) is None
        # Advisory data is never quarantined: the damaged file stays put.
        assert store.sidecar_path_for(KEY_A).is_file()

    def test_non_object_sidecar_reads_none(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_sidecar(KEY_A, {"ok": True})
        store.sidecar_path_for(KEY_A).write_text("[1, 2]\n", encoding="utf-8")
        assert store.get_sidecar(KEY_A) is None

    def test_sidecars_invisible_to_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY_A, {"doc": 1})
        store.put_sidecar(KEY_A, {"side": 1})
        store.put_sidecar(KEY_B, {"side": 2})
        assert list(store.keys()) == [KEY_A]
        assert len(store) == 1

    def test_sidecar_keys_lists_only_sidecars(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY_A, {"doc": 1})
        store.put_sidecar(KEY_B, {"side": 2})
        assert list(store.sidecar_keys()) == [KEY_B]

    def test_sidecar_rejects_non_finite(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError):
            store.put_sidecar(KEY_A, {"bad": float("nan")})
        assert store.get_sidecar(KEY_A) is None

    def test_malformed_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path).put_sidecar("nope", {})
