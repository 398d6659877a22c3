"""The inlined build draws are the stdlib calls they replace, bit for bit.

Four build loops draw ``randrange(n)`` and the set branch of
``sample(population, k)`` (taken when ``n > 21`` and ``k <= 5``) as
CPython's ``Random._randbelow_with_getrandbits`` does, one
``getrandbits(n.bit_length())`` word at a time, rejecting words
``>= n`` (and, for ``sample``, words already picked).  Every other shape
still calls ``random.Random``.  Each property drives a production loop
and its stdlib oracle (``tests/reference_draws.py``) from equal streams
and asks for the same result *and* the same ``getstate()`` afterwards,
so a CPython whose ``randrange`` or ``sample`` consumed the stream
differently fails here, not in a golden digest.  The ``@example`` rows
pin the fallback shapes (a pool of at most 21, ``k = 0``, ``k > 5``,
``group_count = 1``, ``num_peers = 2``) and a power-of-two ``n``, where
``n.bit_length()`` and ``(n - 1).bit_length()`` part.
"""

import random

import reference_draws
from hypothesis import assume, example, given
from hypothesis import strategies as st

from repro.files import FileCatalog, KeywordPool
from repro.net.coordinates import clustered_points
from repro.overlay.blueprint import _gids_and_shares
from repro.overlay.graph import _random_rows

_seeds = st.integers(0, 2**32 - 1)


def outcome(draw, rng):
    """What ``draw()`` returned (or raised), and ``rng``'s state after."""
    try:
        result = ("ok", draw())
    except ValueError:
        result = ("error", None)
    return result, rng.getstate()


@given(
    seed=_seeds,
    pool_size=st.integers(1, 80),
    keywords_per_file=st.integers(0, 7),
    num_files=st.integers(1, 40),
)
@example(seed=1, pool_size=21, keywords_per_file=3, num_files=40)
@example(seed=1, pool_size=22, keywords_per_file=3, num_files=40)
@example(seed=2, pool_size=60, keywords_per_file=0, num_files=1)
@example(seed=3, pool_size=60, keywords_per_file=6, num_files=40)
@example(seed=4, pool_size=60, keywords_per_file=5, num_files=40)
@example(seed=5, pool_size=32, keywords_per_file=3, num_files=40)
def test_catalog_draws_equal_sample_filename_keywords(
    seed, pool_size, keywords_per_file, num_files
):
    keywords_per_file = min(keywords_per_file, pool_size)
    pool = KeywordPool(pool_size)
    live_rng, oracle_rng = random.Random(seed), random.Random(seed)

    def live():
        catalog = FileCatalog.generate(num_files, keywords_per_file, pool, live_rng)
        return [catalog.filename(fid) for fid in range(catalog.num_files)]

    def oracle():
        return reference_draws.catalog_filenames(
            num_files, keywords_per_file, pool, oracle_rng
        )

    assert outcome(live, live_rng) == outcome(oracle, oracle_rng)


@given(
    seed=_seeds,
    num_peers=st.integers(0, 30),
    group_count=st.integers(1, 40),
    num_files=st.integers(1, 100),
    files_per_peer=st.integers(0, 7),
)
@example(seed=1, num_peers=20, group_count=1, num_files=21, files_per_peer=3)
@example(seed=1, num_peers=20, group_count=4, num_files=22, files_per_peer=3)
@example(seed=2, num_peers=20, group_count=4, num_files=90, files_per_peer=0)
@example(seed=3, num_peers=20, group_count=33, num_files=90, files_per_peer=6)
@example(seed=4, num_peers=20, group_count=16, num_files=64, files_per_peer=3)
def test_gids_and_shares_equal_randrange_and_sample(
    seed, num_peers, group_count, num_files, files_per_peer
):
    files_per_peer = min(files_per_peer, num_files)
    shape = (num_peers, group_count, num_files, files_per_peer)
    live_gid, live_share = random.Random(seed), random.Random(seed + 1)
    oracle_gid, oracle_share = random.Random(seed), random.Random(seed + 1)
    live = _gids_and_shares(*shape, live_gid, live_share)
    oracle = reference_draws.gids_and_shares(*shape, oracle_gid, oracle_share)
    assert live == oracle
    assert live_gid.getstate() == oracle_gid.getstate()
    assert live_share.getstate() == oracle_share.getstate()


@given(
    seed=_seeds,
    num_peers=st.integers(2, 70),
    fill=st.floats(0.01, 1.0),
    connect_components=st.booleans(),
)
@example(seed=1, num_peers=2, fill=1.0, connect_components=True)
@example(seed=2, num_peers=5, fill=1.0, connect_components=False)
@example(seed=3, num_peers=64, fill=0.1, connect_components=True)
def test_sparse_overlay_endpoints_equal_randrange(
    seed, num_peers, fill, connect_components
):
    # The sparse regime only: at most half of all pairs are edges (the
    # dense regime still calls sample).
    mean_degree = fill * (num_peers - 1) / 2
    max_edges = num_peers * (num_peers - 1) // 2
    assume(2 * round(num_peers * mean_degree / 2.0) <= max_edges)
    live_rng, oracle_rng = random.Random(seed), random.Random(seed)
    live = _random_rows(num_peers, mean_degree, live_rng, connect_components)
    oracle = reference_draws.random_rows(
        num_peers, mean_degree, oracle_rng, connect_components
    )
    assert live == oracle
    assert live_rng.getstate() == oracle_rng.getstate()


@given(
    seed=_seeds,
    count=st.integers(0, 50),
    num_clusters=st.integers(1, 40),
    spread=st.floats(0.0, 0.5),
)
@example(seed=1, count=30, num_clusters=1, spread=0.08)
@example(seed=2, count=30, num_clusters=8, spread=0.08)
@example(seed=3, count=30, num_clusters=16, spread=0.08)
def test_cluster_index_equals_randrange(seed, count, num_clusters, spread):
    live_rng, oracle_rng = random.Random(seed), random.Random(seed)
    live = clustered_points(count, live_rng, num_clusters, spread)
    oracle = reference_draws.clustered_points(count, oracle_rng, num_clusters, spread)
    assert [p.as_tuple() for p in live] == [p.as_tuple() for p in oracle]
    assert live_rng.getstate() == oracle_rng.getstate()
