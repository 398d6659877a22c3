"""Unit tests for the lease/claim layer over a shared result store.

The protocol under test: ``try_claim`` is exclusive (one winner per
key), a holder keeps its lease alive with ``heartbeat``, a claim
silent past its lease TTL is stale and may be reclaimed by exactly one
thief, and ``prune`` clears claims whose cell was committed before the
holder died.  Clocks are injected so leases age instantly.
"""

import json

import pytest

from repro.results import Claim, ClaimStore, default_runner_id

KEY_A = "a" * 64
KEY_B = "b" * 64


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


def _store(tmp_path, runner_id="runner-1", ttl=60.0, clock=None):
    return ClaimStore(
        tmp_path,
        runner_id=runner_id,
        lease_ttl_s=ttl,
        clock=clock if clock is not None else FakeClock(),
    )


class TestDefaultRunnerId:
    def test_shape_and_uniqueness(self):
        a, b = default_runner_id(), default_runner_id()
        assert a != b  # nonce guards against pid reuse
        allowed = set(
            "abcdefghijklmnopqrstuvwxyz"
            "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
        )
        assert set(a) <= allowed

    def test_bad_runner_id_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="runner id"):
            ClaimStore(tmp_path, runner_id="has spaces")
        with pytest.raises(ValueError, match="runner id"):
            ClaimStore(tmp_path, runner_id="")

    def test_negative_ttl_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="lease_ttl_s"):
            ClaimStore(tmp_path, lease_ttl_s=-1.0)


class TestClaiming:
    def test_claim_is_exclusive(self, tmp_path, clock):
        ours = _store(tmp_path, "runner-1", clock=clock)
        theirs = _store(tmp_path, "runner-2", clock=clock)
        assert ours.try_claim(KEY_A) is True
        assert theirs.try_claim(KEY_A) is False
        assert ours.try_claim(KEY_B) is True

    def test_reclaiming_our_own_live_claim_fails(self, tmp_path, clock):
        """A second try_claim by the same runner is a refusal, not a
        re-entrant success — the caller is expected to remember what
        it holds."""
        ours = _store(tmp_path, clock=clock)
        assert ours.try_claim(KEY_A) is True
        assert ours.try_claim(KEY_A) is False

    def test_claim_file_contents(self, tmp_path, clock):
        ours = _store(tmp_path, "runner-1", ttl=45.0, clock=clock)
        ours.try_claim(KEY_A)
        doc = json.loads(ours.path_for(KEY_A).read_text())
        assert doc["runner_id"] == "runner-1"
        assert doc["lease_ttl_s"] == 45.0
        assert doc["claimed_at"] == doc["heartbeat_at"] == clock.now

    def test_release_only_for_the_holder(self, tmp_path, clock):
        ours = _store(tmp_path, "runner-1", clock=clock)
        theirs = _store(tmp_path, "runner-2", clock=clock)
        ours.try_claim(KEY_A)
        assert theirs.release(KEY_A) is False
        assert ours.path_for(KEY_A).is_file()
        assert ours.release(KEY_A) is True
        assert not ours.path_for(KEY_A).exists()
        assert ours.release(KEY_A) is False

    def test_release_then_reclaim(self, tmp_path, clock):
        ours = _store(tmp_path, "runner-1", clock=clock)
        theirs = _store(tmp_path, "runner-2", clock=clock)
        ours.try_claim(KEY_A)
        ours.release(KEY_A)
        assert theirs.try_claim(KEY_A) is True

    def test_get_and_claims_listing(self, tmp_path, clock):
        ours = _store(tmp_path, "runner-1", clock=clock)
        assert ours.get(KEY_A) is None
        assert list(ours.claims()) == []
        ours.try_claim(KEY_A)
        ours.try_claim(KEY_B)
        claim = ours.get(KEY_A)
        assert claim is not None
        assert claim.runner_id == "runner-1"
        assert [c.key for c in ours.claims()] == [KEY_A, KEY_B]

    def test_the_first_claim_makes_the_directory_later_ones_do_not(
        self, tmp_path, clock, mkdirs
    ):
        ours = _store(tmp_path / "store", clock=clock)
        theirs = _store(tmp_path / "store", runner_id="runner-2", clock=clock)
        assert ours.try_claim(KEY_A)
        assert mkdirs == [str(tmp_path / "store"), str(tmp_path / "store" / "claims")]
        assert not theirs.try_claim(KEY_A)  # lost, and made nothing
        assert theirs.try_claim(KEY_B)
        assert ours.release(KEY_A) and ours.try_claim(KEY_A)
        assert len(mkdirs) == 2

    def test_malformed_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="malformed"):
            _store(tmp_path).path_for("../../escape")


class TestHeartbeat:
    def test_heartbeat_refreshes_the_lease(self, tmp_path, clock):
        ours = _store(tmp_path, "runner-1", ttl=10.0, clock=clock)
        theirs = _store(tmp_path, "runner-2", ttl=10.0, clock=clock)
        ours.try_claim(KEY_A)
        clock.advance(8.0)
        assert ours.heartbeat(KEY_A) is True
        clock.advance(8.0)
        # 16s since claim but only 8s since heartbeat: still live.
        assert theirs.try_claim(KEY_A) is False
        claim = ours.get(KEY_A)
        assert claim.claimed_at == 1000.0  # original take time preserved
        assert claim.heartbeat_at == 1008.0

    def test_heartbeat_on_a_lost_claim_fails(self, tmp_path, clock):
        ours = _store(tmp_path, "runner-1", ttl=5.0, clock=clock)
        thief = _store(tmp_path, "runner-2", ttl=60.0, clock=clock)
        ours.try_claim(KEY_A)
        clock.advance(6.0)
        assert thief.try_claim(KEY_A) is True  # stale, stolen
        assert ours.heartbeat(KEY_A) is False
        assert thief.get(KEY_A).runner_id == "runner-2"

    def test_heartbeat_without_a_claim_fails(self, tmp_path, clock):
        assert _store(tmp_path, clock=clock).heartbeat(KEY_A) is False


class TestStaleLease:
    def test_stale_claim_is_reclaimed(self, tmp_path, clock):
        dead = _store(tmp_path, "dead", ttl=30.0, clock=clock)
        thief = _store(tmp_path, "thief", ttl=30.0, clock=clock)
        dead.try_claim(KEY_A)
        clock.advance(29.0)
        assert thief.try_claim(KEY_A) is False  # not yet
        clock.advance(2.0)
        assert thief.try_claim(KEY_A) is True  # past the TTL
        assert thief.get(KEY_A).runner_id == "thief"
        # The graveyard file from the steal is gone.
        assert list(tmp_path.glob("claims/*.stale.*")) == []

    def test_staleness_uses_the_claims_own_ttl(self, tmp_path, clock):
        """A runner with a long TTL judges a short-TTL claim by the
        TTL recorded in the claim, not by its own setting."""
        quick = _store(tmp_path, "quick", ttl=1.0, clock=clock)
        patient = _store(tmp_path, "patient", ttl=3600.0, clock=clock)
        quick.try_claim(KEY_A)
        clock.advance(2.0)
        assert patient.try_claim(KEY_A) is True

    def test_only_one_thief_wins(self, tmp_path, clock):
        """Simultaneous reclaim attempts: the rename protocol lets
        exactly one runner hold the claim afterwards."""
        dead = _store(tmp_path, "dead", ttl=0.0, clock=clock)
        dead.try_claim(KEY_A)
        clock.advance(1.0)
        thieves = [
            _store(tmp_path, f"thief-{i}", ttl=60.0, clock=clock)
            for i in range(4)
        ]
        wins = [thief.try_claim(KEY_A) for thief in thieves]
        assert sum(wins) == 1
        winner = thieves[wins.index(True)]
        assert winner.get(KEY_A).runner_id == winner.runner_id

    def test_torn_claim_file_is_live_until_mtime_ages_out(self, tmp_path):
        """An unreadable claim (caught mid-write) must not be stolen
        early: staleness falls back to the file's mtime."""
        import os
        import time as _time

        clock = FakeClock(_time.time())
        ours = _store(tmp_path, "runner-1", ttl=60.0, clock=clock)
        ours.directory.mkdir(parents=True, exist_ok=True)
        torn = ours.path_for(KEY_A)
        torn.write_text("{half a claim")
        claim = ours.get(KEY_A)
        assert claim.readable is False
        assert claim.runner_id == "<unreadable>"
        assert ours.try_claim(KEY_A) is False  # mtime is fresh
        old = _time.time() - 120.0
        os.utime(torn, (old, old))
        assert ours.try_claim(KEY_A) is True  # mtime aged past TTL


class TestPrune:
    def test_prune_removes_claims_on_settled_cells(self, tmp_path, clock):
        ours = _store(tmp_path, clock=clock)
        ours.try_claim(KEY_A)
        ours.try_claim(KEY_B)
        removed = ours.prune(lambda key: key == KEY_A)
        assert removed == 1
        assert ours.get(KEY_A) is None
        assert ours.get(KEY_B) is not None

    def test_prune_sweeps_old_graveyard_and_tmp_litter(self, tmp_path):
        """Only litter older than the lease TTL goes: a live runner's
        in-flight heartbeat temp file must never be yanked away."""
        import os
        import time as _time

        ours = _store(tmp_path, ttl=60.0, clock=FakeClock(_time.time()))
        ours.directory.mkdir(parents=True, exist_ok=True)
        old_grave = ours.directory / f"{KEY_A}.claim.stale.crashed"
        old_tmp = ours.directory / f".{KEY_A}.crashed.hb.tmp"
        fresh_tmp = ours.directory / f".{KEY_B}.alive.hb.tmp"
        for path in (old_grave, old_tmp, fresh_tmp):
            path.write_text("{}")
        ancient = _time.time() - 3600
        for path in (old_grave, old_tmp):
            os.utime(path, (ancient, ancient))
        assert ours.prune(lambda key: False) == 2
        assert not old_grave.exists() and not old_tmp.exists()
        assert fresh_tmp.exists()  # a live heartbeat-in-flight survives

    def test_heartbeat_survives_a_swept_tmp_file(self, tmp_path, clock):
        """If something removes the heartbeat temp file mid-replace,
        heartbeat reports failure instead of raising."""
        import os

        ours = _store(tmp_path, "runner-1", clock=clock)
        ours.try_claim(KEY_A)
        real_replace = os.replace

        def sweeping_replace(src, dst):
            os.unlink(src)
            raise FileNotFoundError(src)

        os.replace = sweeping_replace
        try:
            assert ours.heartbeat(KEY_A) is False
        finally:
            os.replace = real_replace
        # The claim itself still stands.
        assert ours.get(KEY_A).runner_id == "runner-1"

    def test_prune_missing_directory(self, tmp_path, clock):
        assert _store(tmp_path / "never", clock=clock).prune(
            lambda key: True
        ) == 0


class TestClaimObject:
    def test_age_silence_and_staleness(self):
        claim = Claim(
            key=KEY_A,
            runner_id="r",
            claimed_at=100.0,
            heartbeat_at=150.0,
            lease_ttl_s=30.0,
        )
        assert claim.age_s(160.0) == 60.0
        assert claim.silence_s(160.0) == 10.0
        assert not claim.is_stale(180.0)
        assert claim.is_stale(181.0)


class TestWorkerCount:
    """Claims record how many worker processes the holder fans out to,
    so ``grid status`` can show per-runner capacity."""

    def test_workers_stamped_into_the_claim(self, tmp_path, clock):
        ours = ClaimStore(
            tmp_path, runner_id="wide", lease_ttl_s=60.0, workers=4, clock=clock
        )
        assert ours.try_claim(KEY_A)
        claim = ours.get(KEY_A)
        assert claim.workers == 4
        payload = json.loads(ours.path_for(KEY_A).read_text())
        assert payload["workers"] == 4

    def test_heartbeat_preserves_workers(self, tmp_path, clock):
        ours = ClaimStore(
            tmp_path, runner_id="wide", lease_ttl_s=60.0, workers=3, clock=clock
        )
        assert ours.try_claim(KEY_A)
        clock.advance(5)
        assert ours.heartbeat(KEY_A)
        assert ours.get(KEY_A).workers == 3

    def test_pre_workers_claim_files_default_to_one(self, tmp_path, clock):
        """A claim written before the field existed (PR 4) still loads."""
        ours = _store(tmp_path, clock=clock)
        assert ours.try_claim(KEY_A)
        path = ours.path_for(KEY_A)
        payload = json.loads(path.read_text())
        del payload["workers"]
        path.write_text(json.dumps(payload) + "\n")
        claim = ours.get(KEY_A)
        assert claim.readable is True
        assert claim.workers == 1

    def test_default_and_validation(self, tmp_path):
        assert ClaimStore(tmp_path).workers == 1
        with pytest.raises(ValueError, match="workers"):
            ClaimStore(tmp_path, workers=0)
