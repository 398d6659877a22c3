"""Unit tests for landmark orderings and locIds."""

import itertools
import math
import random

import pytest

from repro.net import (
    EuclideanLatencyModel,
    LandmarkSet,
    Point,
    locid_to_permutation,
    permutation_to_locid,
    rtt_ordering,
)


class TestPermutationRanking:
    def test_identity_permutation_is_zero(self):
        assert permutation_to_locid([0, 1, 2, 3]) == 0

    def test_reverse_permutation_is_max(self):
        assert permutation_to_locid([3, 2, 1, 0]) == math.factorial(4) - 1

    def test_roundtrip_all_k4(self):
        """Bijection over all 24 permutations of 4 landmarks."""
        seen = set()
        for perm in itertools.permutations(range(4)):
            locid = permutation_to_locid(list(perm))
            assert 0 <= locid < 24
            assert locid_to_permutation(locid, 4) == list(perm)
            seen.add(locid)
        assert len(seen) == 24

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            permutation_to_locid([0, 0, 1])
        with pytest.raises(ValueError):
            permutation_to_locid([1, 2, 3])

    def test_locid_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            locid_to_permutation(24, 4)
        with pytest.raises(ValueError):
            locid_to_permutation(-1, 4)

    def test_single_landmark(self):
        assert permutation_to_locid([0]) == 0
        assert locid_to_permutation(0, 1) == [0]


class TestRttOrdering:
    def test_orders_by_increasing_rtt(self):
        assert rtt_ordering([30.0, 10.0, 20.0]) == [1, 2, 0]

    def test_ties_break_by_index(self):
        assert rtt_ordering([10.0, 10.0, 5.0]) == [2, 0, 1]

    def test_empty(self):
        assert rtt_ordering([]) == []


class TestLandmarkSet:
    @pytest.fixture()
    def landmarks(self):
        return LandmarkSet.place_spread(4, EuclideanLatencyModel())

    def test_count_and_locids(self, landmarks):
        assert landmarks.count == 4
        assert landmarks.num_locids == 24

    def test_five_landmarks_give_120_locids(self):
        lm = LandmarkSet.place_spread(5, EuclideanLatencyModel())
        assert lm.num_locids == 120

    def test_locid_in_range(self, landmarks):
        rng = random.Random(3)
        for _ in range(100):
            p = Point(rng.random(), rng.random())
            assert 0 <= landmarks.locid_of(p) < 24

    def test_nearby_peers_share_locid(self, landmarks):
        """§4.1.1: physically close peers produce the same ordering.

        The probe pair sits away from the square's symmetry axes, where
        orderings are stable under small perturbations.
        """
        a = Point(0.10, 0.30)
        b = Point(0.11, 0.30)
        assert landmarks.locid_of(a) == landmarks.locid_of(b)

    def test_distant_peers_differ(self, landmarks):
        """Peers in opposite corners must order the corner landmarks oppositely."""
        assert landmarks.locid_of(Point(0.02, 0.02)) != landmarks.locid_of(
            Point(0.98, 0.98)
        )

    def test_measure_rtts_length(self, landmarks):
        assert len(landmarks.measure_rtts(Point(0.5, 0.5))) == 4

    def test_rtts_consistent_with_model(self):
        model = EuclideanLatencyModel()
        lm = LandmarkSet.place_spread(2, model)
        p = Point(0.25, 0.5)
        rtts = lm.measure_rtts(p)
        expected = [model.rtt_ms(p, pos) for pos in lm.positions]
        assert rtts == pytest.approx(expected)

    def test_locid_from_rtts_is_the_rank_of_the_ordering(self):
        """Every ordering of 4 landmarks, asked twice: the second answer
        comes from the per-ordering memo and must be the same."""
        for _ in range(2):
            for perm in itertools.permutations(range(4)):
                rtts = [0.0] * 4
                for place, landmark in enumerate(perm):
                    rtts[landmark] = 10.0 * (place + 1)
                assert rtt_ordering(rtts) == list(perm)
                expected = permutation_to_locid(rtt_ordering(rtts))
                assert LandmarkSet.locid_from_rtts(rtts) == expected
                assert LandmarkSet.locid_from_rtts(tuple(rtts)) == expected
        assert LandmarkSet.locid_from_rtts([7.0, 7.0, 7.0, 7.0]) == 0
        # The memo is in front of the ranking, not of its validation.
        with pytest.raises(ValueError):
            permutation_to_locid([0, 0, 1, 2])

    def test_place_spread_too_many_rejected(self):
        with pytest.raises(ValueError):
            LandmarkSet.place_spread(10, EuclideanLatencyModel())

    def test_empty_landmarks_rejected(self):
        with pytest.raises(ValueError):
            LandmarkSet([], EuclideanLatencyModel())
