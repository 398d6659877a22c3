"""The build loops as stdlib calls: the oracles of the inlined draws.

``FileCatalog.generate``, ``NetworkBlueprint.build``'s gids and shares,
the sparse G(n, M) overlay and ``clustered_points`` draw their
``randrange`` / ``sample`` results inline, one ``getrandbits`` word at a
time, instead of calling ``random.Random``.  Each function here is the
loop those sites ran before, calling the stdlib:
``tests/test_property_inline_draws.py`` holds them equal, results and
final stream state, on the CPython it runs under.  References live with
the tests that use them (the ``tests/reference_graph.py`` pattern), not
in ``src/``.
"""

from __future__ import annotations

import random

from repro.files.keywords import FILENAME_SEPARATOR, KeywordPool
from repro.net.coordinates import Point
from repro.overlay.graph import _connect_rows

__all__ = ["catalog_filenames", "clustered_points", "gids_and_shares", "random_rows"]


def catalog_filenames(
    num_files: int, keywords_per_file: int, pool: KeywordPool, rng: random.Random
) -> list[str]:
    """``FileCatalog.generate``'s filenames, drawn with
    ``KeywordPool.sample_filename_keywords``."""
    filenames: list[str] = []
    seen: set[str] = set()
    attempts_left = num_files * 100
    while len(filenames) < num_files:
        if attempts_left <= 0:
            raise ValueError("keyword pool too small for the requested catalog")
        attempts_left -= 1
        keywords = pool.sample_filename_keywords(keywords_per_file, rng)
        filename = FILENAME_SEPARATOR.join(sorted(keywords))
        if filename not in seen:
            seen.add(filename)
            filenames.append(filename)
    return filenames


def gids_and_shares(
    num_peers: int,
    group_count: int,
    num_files: int,
    files_per_peer: int,
    gid_rng: random.Random,
    share_rng: random.Random,
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Every peer's gid and initial shares, as ``NetworkBlueprint.build``
    drew them."""
    gids = []
    shares = []
    for _pid in range(num_peers):
        shares.append(tuple(share_rng.sample(range(num_files), files_per_peer)))
        gids.append(gid_rng.randrange(group_count))
    return tuple(gids), tuple(shares)


def random_rows(
    num_peers: int,
    mean_degree: float,
    rng: random.Random,
    connect_components: bool,
) -> list[list[int]]:
    """``overlay.graph._random_rows`` with ``randrange`` endpoints."""
    target_edges = min(
        round(num_peers * mean_degree / 2.0), num_peers * (num_peers - 1) // 2
    )
    rows: list[list[int]] = [[] for _ in range(num_peers)]
    membership: list[set[int]] = [set() for _ in range(num_peers)]
    added = 0
    while added < target_edges:
        a = rng.randrange(num_peers)
        b = rng.randrange(num_peers)
        if a == b or b in membership[a]:
            continue
        rows[a].append(b)
        rows[b].append(a)
        membership[a].add(b)
        membership[b].add(a)
        added += 1
    if connect_components:
        _connect_rows(rows, membership, rng)
    return rows


def clustered_points(
    count: int, rng: random.Random, num_clusters: int, spread: float
) -> list[Point]:
    """``net.coordinates.clustered_points`` with a ``randrange`` cluster."""
    centres = [(rng.random(), rng.random()) for _ in range(num_clusters)]
    points: list[Point] = []
    for _ in range(count):
        cx, cy = centres[rng.randrange(num_clusters)]
        x = min(1.0, max(0.0, rng.gauss(cx, spread)))
        y = min(1.0, max(0.0, rng.gauss(cy, spread)))
        points.append(Point(x, y))
    return points
