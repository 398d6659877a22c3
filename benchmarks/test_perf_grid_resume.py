"""Wall-clock gate on the result store's ``has`` probe.

The probe (``grid status`` / ``watch``, ``ClaimStore.prune``) must be
no dearer than the read it stands in for: on a freshly opened store, a
pass of ``has`` over every stored cell costs no more than a pass of
``get_raw``, timed interleaved (``conftest.time_interleaved``), the
median ratio held to 1.0 plus what the ``get_raw`` pass differs from
itself by on this host right now.  A probe is one ``stat`` of a
string-formatted path (≈ 0.33 of a read at 2000 cells).

What a resumed grid executes (0 cells warm, 1 after a deleted cell) is
pinned by ``tests/test_experiments_grid.py::TestResume``; how long a
warm cell takes is ``bench/``'s ``grid_resume`` workload.
"""

import hashlib

from conftest import time_interleaved

from repro.results import ResultStore

#: Stored cells the probe gate reads back, and its interleaved pairs.
PROBE_CELLS = 2000
PROBE_PAIRS = 5


def _probe_documents(count):
    """``(key, document)`` pairs shaped like real grid cells."""
    return [
        (
            hashlib.sha256(f"bench-cell-{index}".encode()).hexdigest(),
            {
                "cell": {"label": "baseline", "protocol": "locaware", "seed": index},
                "max_queries": 200,
                "metrics": {"distance_series": [float(d) for d in range(24)]},
            },
        )
        for index in range(count)
    ]


def test_a_has_pass_costs_no_more_than_a_read_pass(tmp_path, show):
    documents = _probe_documents(PROBE_CELLS)
    root = tmp_path / "store"
    filled = ResultStore(root)
    for key, document in documents:
        filled.put(key, document)

    def has_scan():
        store = ResultStore(root)
        assert sum(1 for key, _ in documents if store.has(key)) == PROBE_CELLS

    def get_scan():
        store = ResultStore(root)
        assert all(store.get_raw(key) for key, _ in documents)

    timing = time_interleaved(get_scan, has_scan, pairs=PROBE_PAIRS)
    show(
        f"has/get_raw time at {PROBE_CELLS} cells over {PROBE_PAIRS} "
        f"interleaved pairs: {timing.ratio:.2f} "
        f"(noise floor {100.0 * timing.noise:.1f}%)"
    )
    # A probe that costs more than the read it stands in for is a
    # regression.
    assert timing.ratio <= 1.0 + timing.noise, (
        f"has pass took {timing.ratio:.2f}x the get_raw pass's time at "
        f"{PROBE_CELLS} cells (limit 1.0 + get-vs-get noise {timing.noise:.2f})"
    )
