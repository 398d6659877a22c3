"""Unit tests for deterministic named RNG streams."""

import pytest

from repro.sim import RandomStreams, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "topology") == derive_seed(42, "topology")

    def test_differs_by_name(self):
        assert derive_seed(42, "topology") != derive_seed(42, "workload")

    def test_differs_by_master_seed(self):
        assert derive_seed(1, "topology") != derive_seed(2, "topology")

    def test_fits_in_64_bits(self):
        assert 0 <= derive_seed(123456789, "x") < 2**64


class TestRandomStreams:
    def test_same_name_returns_same_stream(self):
        streams = RandomStreams(7)
        assert streams.stream("a") is streams.stream("a")

    def test_streams_are_independent(self):
        one = RandomStreams(7)
        two = RandomStreams(7)
        # Drawing from "a" must not perturb "b".
        one.stream("a").random()
        assert one.stream("b").random() == two.stream("b").random()

    def test_reproducible_across_instances(self):
        draws_one = [RandomStreams(99).stream("w").random() for _ in range(1)]
        draws_two = [RandomStreams(99).stream("w").random() for _ in range(1)]
        assert draws_one == draws_two

    def test_different_master_seeds_differ(self):
        assert RandomStreams(1).stream("x").random() != RandomStreams(2).stream("x").random()

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomStreams("not-an-int")  # type: ignore[arg-type]

    def test_names_lists_created_streams(self):
        streams = RandomStreams(5)
        streams.stream("first")
        streams.stream("second")
        assert streams.names() == ["first", "second"]

    def test_master_seed_property(self):
        assert RandomStreams(17).master_seed == 17


class TestForbiddenStreams:
    """The build/run stream split: a run-time factory refuses build names."""

    def test_forbidden_name_rejected(self):
        streams = RandomStreams(3, forbidden={"shares"})
        with pytest.raises(ValueError, match="forbidden"):
            streams.stream("shares")

    def test_allowed_names_unaffected_by_forbidden_set(self):
        plain = RandomStreams(3)
        guarded = RandomStreams(3, forbidden={"shares", "underlay"})
        assert [plain.stream("workload").random() for _ in range(4)] == [
            guarded.stream("workload").random() for _ in range(4)
        ]

    def test_forbidden_property(self):
        assert RandomStreams(3, forbidden=["a", "b"]).forbidden == frozenset(
            {"a", "b"}
        )
        assert RandomStreams(3).forbidden == frozenset()
