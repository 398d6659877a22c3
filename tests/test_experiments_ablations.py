"""Tests for the ablation table (small-scale runs) and for the claim rows
of both claim tables: the ablations' and the figures'."""

import dataclasses
import math

import pytest

from repro.analysis import PAPER_CLAIMS, ClaimCheck, ResultTable, check_claims
from repro.experiments import run_protocol, small_config
from repro.experiments.ablations import ABLATIONS, _grid_rows, run_ablation
from repro.overlay import blueprint
from repro.overlay.blueprint import NetworkBlueprint
from test_determinism import run_fingerprint


@pytest.fixture(scope="module")
def base():
    return small_config(seed=13).replace(query_rate_per_peer=0.02)


def narrowed(entry_id, **fields):
    """Entry ``entry_id`` with ``fields`` replaced (a shorter axis, fewer protocols)."""
    return dataclasses.replace(ABLATIONS[entry_id], **fields)


class TestResultTable:
    def test_render_contains_title_and_rows(self):
        result = ResultTable("AX", "demo", ["a", "b"], [[1, 2.5], [3, 4.0]])
        text = result.render()
        assert "AX: demo" in text
        assert "2.50" in text

    def test_column_accessor(self):
        result = ResultTable("AX", "demo", ["a", "b"], [[1, 2], [3, 4]])
        assert result.column("a") == [1, 3]
        with pytest.raises(ValueError):
            result.column("missing")


class TestSweeps:
    def test_landmarks(self, base):
        result = run_ablation(narrowed("a1", labels=(2, 4)), base, 60)
        assert result.column("landmarks") == [2, 4]
        assert result.column("locIds") == [2, 24]
        peers_per = result.column("peers/locId")
        assert peers_per[0] > peers_per[1]

    def test_landmarks_read_the_simulated_world(self, base):
        """Regression: A1 rebuilt a default-substrate underlay for its
        ``peers/locId`` column, so on a router-latency base it described
        a world that was never simulated (10.0 / 5.5 here, not 4.6 / 4.0)."""
        router = base.replace(latency_model="router")
        before = blueprint.build_count()
        result = run_ablation(narrowed("a1", labels=(4, 5)), router, 20)
        assert blueprint.build_count() - before <= 2  # the cells' own worlds
        assert result.column("peers/locId") == [
            round(
                NetworkBlueprint.build(router.replace(num_landmarks=count))
                .underlay.mean_peers_per_locid(),
                1,
            )
            for count in (4, 5)
        ] == [4.6, 4.0]

    def test_bloom_size(self, base):
        result = run_ablation(narrowed("a2", labels=(64, 512)), base, 60)
        fprs = result.column("est_fpr")
        assert fprs[0] > fprs[1]
        assert len(result.rows) == 2

    def test_cache_capacity(self, base):
        result = run_ablation(
            narrowed("a3", labels=(2, 20), protocols=("dicas", "locaware")), base, 60
        )
        assert result.headers == ["capacity", "dicas success", "locaware success"]
        for row in result.rows:
            for value in row[1:]:
                assert 0.0 <= value <= 1.0

    def test_ttl(self, base):
        result = run_ablation(narrowed("a4", labels=(2, 5)), base, 60)
        flood_msgs = result.column("flooding msgs")
        assert flood_msgs[0] < flood_msgs[1]

    def test_churn(self, base):
        result = run_ablation(
            narrowed("a5", labels=("off", 300.0), protocols=("locaware",)), base, 60
        )
        assert result.rows[0][0] == "off"
        assert result.rows[1][0] == 300.0

    def test_bloom_overhead(self, base):
        result = run_ablation(ABLATIONS["a6"], base, 100)
        rows = dict(zip(result.column("quantity"), result.column("value")))
        assert rows["paper bound (bits)"] == 132
        if rows["bloom update pushes"] > 0:
            assert rows["mean update size (bits)"] <= base.bloom_bits

    def test_group_count(self, base):
        result = run_ablation(
            narrowed("a7", labels=(2, 8), protocols=("dicas",)), base, 60
        )
        assert result.column("M") == [2, 8]

    def test_locaware_routing_extension(self, base):
        result = run_ablation(ABLATIONS["ext"], base, 60)
        assert result.column("variant") == ["locaware", "locaware+locrouting"]
        for rate in result.column("success"):
            assert 0.0 <= rate <= 1.0

    def test_substrate(self, base):
        before = blueprint.build_count()
        result = run_ablation(ABLATIONS["a8"], base, 40)
        assert blueprint.build_count() - before <= 4  # one per world, not per cell
        assert result.column("substrate") == [
            "euclidean/clustered", "euclidean/uniform",
            "router/clustered", "router/uniform",
        ]
        assert result.headers[1:4] == [
            "flooding success", "flooding dist_ms", "flooding msgs"
        ]
        for flood, loc in zip(
            result.column("flooding msgs"), result.column("locaware msgs")
        ):
            assert loc < flood

    def test_bad_axis_fails_before_any_cell_runs(self, base):
        before = blueprint.build_count()
        with pytest.raises(ValueError, match="duplicate entries on the config-override"):
            run_ablation(narrowed("a4", labels=(3, 3)), base, 60)
        with pytest.raises(ValueError, match="unknown protocol 'gossip'"):
            run_ablation(narrowed("a3", protocols=("gossip",)), base, 60)
        with pytest.raises(ValueError, match="max_queries must be >= 1"):
            run_ablation(ABLATIONS["a6"], base, 0)
        assert blueprint.build_count() == before


class TestOneEngine:
    """The entries are grids: one build per world, same runs as scratch."""

    def test_capacity_sweep_builds_its_one_world_at_most_once(self, base):
        before = blueprint.build_count()
        run_ablation(
            narrowed("a3", labels=(2, 20), protocols=("dicas", "locaware")), base, 60
        )
        assert blueprint.build_count() - before <= 1

    def test_locaware_routing_variants_share_one_build(
        self, base, swap_blueprint_cache
    ):
        swap_blueprint_cache(max_peers=8 * 60)
        before = blueprint.build_count()
        run_ablation(ABLATIONS["ext"], base, 60)
        assert blueprint.build_count() - before == 1

    def test_world_builds_per_entry_from_a_cleared_cache(
        self, base, swap_blueprint_cache
    ):
        """A1, A7 and A8 sweep a topology field, so every axis value is
        its own world; every other entry instantiates one world."""
        builds = {}
        for entry_id, entry in ABLATIONS.items():
            swap_blueprint_cache(max_peers=8000, max_worlds=8)
            before = blueprint.build_count()
            run_ablation(entry, base, 10)
            builds[entry_id] = blueprint.build_count() - before
        assert list(builds.values()) == [4, 1, 1, 1, 1, 1, 4, 4, 1, 1]

    def test_ttl_rows_equal_scratch_runs(self, base):
        """A4's cells are what direct, blueprint-less runs of them give."""
        ttls, protocols = (2, 5), ("flooding", "locaware")
        result = run_ablation(
            narrowed("a4", labels=ttls, protocols=protocols), base, 60
        )
        rows = _grid_rows(
            base, 60, protocols, config_overrides=[{"ttl": ttl} for ttl in ttls]
        )
        for ttl, row, runs in zip(ttls, result.rows, rows, strict=True):
            expected = [ttl]
            for protocol, run in zip(protocols, runs, strict=True):
                scratch = run_protocol(
                    base.replace(ttl=ttl), protocol, max_queries=60,
                    bucket_width=15, scenario="baseline",
                )
                assert run_fingerprint(run) == run_fingerprint(scratch)
                expected += [scratch.summary.success_rate, scratch.summary.mean_messages]
            assert row == expected


class TestAblationTable:
    def test_ids_titles_and_statements(self):
        assert list(ABLATIONS) == [
            "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "ext", "ext2"
        ]
        for entry_id, entry in ABLATIONS.items():
            assert entry.id == entry_id
            assert entry.claims, entry_id
            texts = [claim.text for claim in entry.claims]
            assert len(set(texts)) == len(texts)

    def test_every_axis_has_one_kind(self):
        for entry in ABLATIONS.values():
            assert entry.override is None or entry.scenario is None
            assert len(set(entry.labels)) == len(entry.labels)


# --- the claim rows of both tables, on hand-made tables ---------------------

_SUBSTRATES = (
    "euclidean/clustered", "euclidean/uniform", "router/clustered", "router/uniform"
)

#: The figure table (``figure_table``'s headers) on which every figure row holds.
_FIGURES = (
    [
        "protocol", "success", "dist_ms", "msgs", "dist_ms 1st half", "dist_ms 2nd half",
        "dist_ms trend", "locaware dist_ms cut", "locaware half cut", "msgs cut",
        "msgs/lightest", "caching excess", "locaware success gain",
    ],
    [
        ["flooding", 0.9, 370.0, 1000.0, 300.0, 300.0, 0.0, 0.46, 0.067, 0.0, 20.0, 0.0, -0.44],
        ["dicas", 0.4, 350.0, 50.0, 300.0, 300.0, 0.0, 0.43, 0.067, 0.95, 1.0, 0.0, 0.25],
        ["dicas-keys", 0.35, 350.0, 50.0, 300.0, 300.0, 0.0, 0.43, 0.067, 0.95, 1.0, 0.0, 0.43],
        ["locaware", 0.5, 200.0, 50.0, 280.0, 224.0, -0.2, 0.0, 0.0, 0.95, 1.0, 0.0, 0.0],
    ],
)

#: One table per entry (ablation or figure) on which every row holds
#: (headers as the entry's reader writes them).
_HOLDING = {
    "a1": (
        ["landmarks", "locIds", "peers/locId", "locId matches", "success", "distance_ms"],
        [
            [2, 2, 500.0, 40, 0.3, 200.0],
            [3, 6, 166.7, 30, 0.3, 200.0],
            [4, 24, 41.7, 20, 0.3, 200.0],
            [5, 120, 8.3, 10, 0.3, 200.0],
        ],
    ),
    "a2": (
        ["bits", "est_fpr", "bf matches", "success", "msgs/query", "update_bits"],
        [
            [150, 0.9, 500, 0.2, 120.0, 40.0],
            [300, 0.5, 300, 0.2, 110.0, 45.0],
            [600, 0.2, 200, 0.2, 105.0, 50.0],
            [1200, 0.03, 100, 0.2, 100.0, 55.0],
            [2400, 0.001, 90, 0.2, 100.0, 60.0],
        ],
    ),
    "a3": (
        ["capacity", "dicas success", "dicas-keys success", "locaware success"],
        [[c, 0.1, 0.1, 0.5] for c in (2, 5, 10, 25, 50)],
    ),
    "a4": (
        ["ttl", "flooding success", "flooding msgs", "locaware success", "locaware msgs"],
        [
            [3, 0.1, 40.0, 0.0, 8.0],
            [5, 0.3, 270.0, 0.04, 20.0],
            [7, 0.6, 990.0, 0.1, 50.0],
            [9, 0.8, 500.0 * 4, 0.3, 99.0],
        ],
    ),
    "a5": (
        ["mean_session_s", "dicas success", "locaware success"],
        [["off", 0.5, 0.5], [3600.0, 0.5, 0.5], [1200.0, 0.45, 0.45], [600.0, 0.4, 0.4]],
    ),
    "a6": (
        ["quantity", "value"],
        [
            ["bloom update pushes", 37],
            ["bloom update messages", 161],
            ["mean update size (bits)", 137.4],
            ["paper bound (bits)", 132],
            ["search messages (for scale)", 6309],
            ["bloom/search message ratio", 0.026],
        ],
    ),
    "a7": (
        ["M", "dicas success", "dicas msgs", "locaware success", "locaware msgs"],
        [
            [2, 0.2, 60.0, 0.2, 50.0],
            [4, 0.2, 50.0, 0.2, 50.0],
            [8, 0.2, 45.0, 0.2, 50.0],
            [16, 0.2, 40.0, 0.2, 50.0],
        ],
    ),
    "a8": (
        [
            "substrate", "flooding success", "flooding dist_ms", "flooding msgs",
            "locaware success", "locaware dist_ms", "locaware msgs",
        ],
        [[s, 0.8, 300.0, 1000.0, 0.3, 250.0, 50.0] for s in _SUBSTRATES],
    ),
    "ext": (
        ["variant", "success", "distance_ms", "msgs/query", "locId matches"],
        [
            ["locaware", 0.5, 100.0, 50.0, 10],
            ["locaware+locrouting", 0.5, 100.0, 50.0, 12],
        ],
    ),
    "ext2": (
        ["shift_interval_s", "dicas success", "locaware success"],
        [["stationary", 0.5, 0.4], [1200.0, 0.5, 0.4], [300.0, 0.5, 0.4]],
    ),
    "fig2": _FIGURES,
    "fig3": _FIGURES,
    "fig4": _FIGURES,
}

#: Every entry of both claim tables: the ablations, then the figures.
_ENTRIES = [*ABLATIONS, *PAPER_CLAIMS]


def claims_of(entry_id):
    return PAPER_CLAIMS[entry_id] if entry_id in PAPER_CLAIMS else ABLATIONS[entry_id].claims


def entry_checks(entry_id, table) -> list[ClaimCheck]:
    """Entry ``entry_id``'s rows on ``table``: a figure's through
    ``check_claims``, an ablation's through ``Ablation.check``."""
    if entry_id in PAPER_CLAIMS:
        return check_claims(entry_id.capitalize(), PAPER_CLAIMS[entry_id], table)
    return ABLATIONS[entry_id].check(table)


def hand_made(entry_id, edits=None):
    """``_HOLDING[entry_id]`` with ``{(label, header): value}`` edits."""
    headers, rows = _HOLDING[entry_id]
    rows = [list(row) for row in rows]
    for (label, header), value in (edits or {}).items():
        (row,) = [row for row in rows if row[0] == label]
        row[headers.index(header)] = value
    return ResultTable(entry_id.upper(), "hand-made", list(headers), rows)


def row_check(entry_id, index, edits=None) -> ClaimCheck:
    """Claim row ``index`` of entry ``entry_id`` on the edited table."""
    return entry_checks(entry_id, hand_made(entry_id, edits))[index]


nan = math.nan

#: ``(entry, claim row, edits, holds)``: for every row a holding and a
#: failing case on either side of its threshold (so a moved threshold
#: or a flipped strictness fails one of them), and a NaN case where the
#: row reads a distance or a mean.  A tie refutes every strict row.
_CASES = [
    # A1: peers/locId non-increasing (ties hold); every success > 0.
    ("a1", 0, {(5, "peers/locId"): 41.7}, True),
    ("a1", 0, {(5, "peers/locId"): 41.8}, False),
    ("a1", 0, {(3, "peers/locId"): nan}, False),
    ("a1", 1, {(2, "success"): 1e-9}, True),
    ("a1", 1, {(2, "success"): 0.0}, False),
    ("a1", 1, {(2, "success"): nan}, False),
    # A2: est_fpr non-increasing; msgs[150] >= msgs[1200] * 0.95; success > 0.
    ("a2", 0, {(2400, "est_fpr"): 0.03}, True),
    ("a2", 0, {(2400, "est_fpr"): 0.031}, False),
    ("a2", 0, {(300, "est_fpr"): nan}, False),
    ("a2", 1, {(150, "msgs/query"): 95.0}, True),
    ("a2", 1, {(150, "msgs/query"): 94.9}, False),
    ("a2", 1, {(150, "msgs/query"): nan}, False),
    ("a2", 1, {(1200, "msgs/query"): nan}, False),
    ("a2", 2, {(600, "success"): 1e-9}, True),
    ("a2", 2, {(600, "success"): 0.0}, False),
    # A3: locaware[50] >= locaware[2] * 0.9; every dicas success >= 0.
    ("a3", 0, {(50, "locaware success"): 0.5 * 0.9}, True),
    ("a3", 0, {(50, "locaware success"): 0.449}, False),
    ("a3", 0, {(2, "locaware success"): nan}, False),
    ("a3", 1, {(10, "dicas success"): 0.0}, True),
    ("a3", 1, {(10, "dicas success"): -1e-9}, False),
    ("a3", 1, {(10, "dicas success"): nan}, False),
    # A4: flooding msgs non-decreasing; last locaware msgs < last
    # flooding msgs / 5; last flooding success >= first.
    ("a4", 0, {(5, "flooding msgs"): 40.0}, True),
    ("a4", 0, {(5, "flooding msgs"): 39.9}, False),
    ("a4", 0, {(7, "flooding msgs"): nan}, False),
    ("a4", 1, {(9, "locaware msgs"): 399.9, (9, "flooding msgs"): 2000.0}, True),
    ("a4", 1, {(9, "locaware msgs"): 400.0, (9, "flooding msgs"): 2000.0}, False),
    ("a4", 1, {(9, "locaware msgs"): nan}, False),
    ("a4", 1, {(9, "flooding msgs"): nan}, False),
    ("a4", 2, {(9, "flooding success"): 0.1}, True),
    ("a4", 2, {(9, "flooding success"): 0.099}, False),
    ("a4", 2, {(3, "flooding success"): nan}, False),
    # A5: last row <= the churn-free row + 0.02, per protocol.
    ("a5", 0, {(600.0, "dicas success"): 0.52}, True),
    ("a5", 0, {(600.0, "dicas success"): 0.5201}, False),
    ("a5", 0, {("off", "dicas success"): nan}, False),
    ("a5", 1, {(600.0, "locaware success"): 0.52}, True),
    ("a5", 1, {(600.0, "locaware success"): 0.5201}, False),
    ("a5", 1, {(600.0, "locaware success"): nan}, False),
    # A6: pushes > 0; mean update bits <= 4 * 132; message ratio < 1.
    ("a6", 0, {("bloom update pushes", "value"): 1}, True),
    ("a6", 0, {("bloom update pushes", "value"): 0}, False),
    ("a6", 1, {("mean update size (bits)", "value"): 528.0}, True),
    ("a6", 1, {("mean update size (bits)", "value"): 528.1}, False),
    ("a6", 1, {("mean update size (bits)", "value"): nan}, False),
    ("a6", 2, {("bloom/search message ratio", "value"): 0.999}, True),
    ("a6", 2, {("bloom/search message ratio", "value"): 1.0}, False),
    ("a6", 2, {("bloom/search message ratio", "value"): nan}, False),
    # A7: dicas msgs at M=2 >= at M=16; every locaware success > 0.
    ("a7", 0, {(2, "dicas msgs"): 40.0}, True),
    ("a7", 0, {(2, "dicas msgs"): 39.9}, False),
    ("a7", 0, {(16, "dicas msgs"): nan}, False),
    ("a7", 1, {(8, "locaware success"): 1e-9}, True),
    ("a7", 1, {(8, "locaware success"): 0.0}, False),
    # A8, on every substrate: locaware dist < flooding dist; locaware
    # msgs < flooding msgs / 5.
    ("a8", 0, {(_SUBSTRATES[2], "locaware dist_ms"): 299.9}, True),
    ("a8", 0, {(_SUBSTRATES[2], "locaware dist_ms"): 300.0}, False),
    ("a8", 0, {(_SUBSTRATES[3], "locaware dist_ms"): nan}, False),
    ("a8", 0, {(_SUBSTRATES[0], "flooding dist_ms"): nan}, False),
    ("a8", 1, {(_SUBSTRATES[1], "locaware msgs"): 199.9}, True),
    ("a8", 1, {(_SUBSTRATES[1], "locaware msgs"): 200.0}, False),
    ("a8", 1, {(_SUBSTRATES[3], "locaware msgs"): nan}, False),
    # EXT: routed success >= stock * 0.7; routed distance <= stock * 1.25.
    ("ext", 0, {("locaware+locrouting", "success"): 0.5 * 0.7}, True),
    ("ext", 0, {("locaware+locrouting", "success"): 0.349}, False),
    ("ext", 0, {("locaware", "success"): nan}, False),
    ("ext", 1, {("locaware+locrouting", "distance_ms"): 125.0}, True),
    ("ext", 1, {("locaware+locrouting", "distance_ms"): 125.1}, False),
    ("ext", 1, {("locaware+locrouting", "distance_ms"): nan}, False),
    ("ext", 1, {("locaware", "distance_ms"): nan}, False),
    # EXT2: last locaware success <= stationary + 0.05; every dicas
    # success in [0, 1].
    ("ext2", 0, {(300.0, "locaware success"): 0.45}, True),
    ("ext2", 0, {(300.0, "locaware success"): 0.4501}, False),
    ("ext2", 0, {("stationary", "locaware success"): nan}, False),
    ("ext2", 1, {(1200.0, "dicas success"): 0.0, (300.0, "dicas success"): 1.0}, True),
    ("ext2", 1, {(1200.0, "dicas success"): -1e-9}, False),
    ("ext2", 1, {(300.0, "dicas success"): 1.0 + 1e-9}, False),
    ("ext2", 1, {(300.0, "dicas success"): nan}, False),
    # Fig2: Locaware's distance < every baseline's; < flooding's in each
    # half; its second half-mean < its first.
    ("fig2", 0, {("locaware", "dist_ms"): 349.9}, True),
    ("fig2", 0, {("locaware", "dist_ms"): 350.0}, False),
    ("fig2", 0, {("locaware", "dist_ms"): nan}, False),
    ("fig2", 0, {("dicas", "dist_ms"): nan}, False),
    ("fig2", 1, {("locaware", "dist_ms 2nd half"): 299.9}, True),
    ("fig2", 1, {("locaware", "dist_ms 2nd half"): 300.0}, False),
    ("fig2", 1, {("locaware", "dist_ms 1st half"): 300.0}, False),
    ("fig2", 1, {("flooding", "dist_ms 1st half"): nan}, False),
    ("fig2", 2, {("locaware", "dist_ms 2nd half"): 279.9}, True),
    ("fig2", 2, {("locaware", "dist_ms 2nd half"): 280.0}, False),
    ("fig2", 2, {("locaware", "dist_ms 1st half"): nan}, False),
    # Fig3: each caching protocol's traffic cut vs flooding > 0.9; each
    # one's traffic < 3x the lightest's.
    ("fig3", 0, {("locaware", "msgs cut"): 0.9001}, True),
    ("fig3", 0, {("locaware", "msgs cut"): 0.9}, False),
    ("fig3", 0, {("locaware", "msgs cut"): nan}, False),
    ("fig3", 1, {("dicas", "msgs cut"): 0.9001}, True),
    ("fig3", 1, {("dicas", "msgs cut"): 0.9}, False),
    ("fig3", 1, {("dicas", "msgs cut"): nan}, False),
    ("fig3", 2, {("dicas-keys", "msgs cut"): 0.9001}, True),
    ("fig3", 2, {("dicas-keys", "msgs cut"): 0.9}, False),
    ("fig3", 2, {("dicas-keys", "msgs cut"): nan}, False),
    ("fig3", 3, {("dicas-keys", "msgs/lightest"): 2.999}, True),
    ("fig3", 3, {("dicas-keys", "msgs/lightest"): 3.0}, False),
    ("fig3", 3, {("locaware", "msgs/lightest"): nan}, False),
    # Fig4: flooding's success > every caching protocol's; Locaware's
    # relative success gain vs Dicas and vs Dicas-Keys > 0.
    ("fig4", 0, {("locaware", "success"): 0.8999}, True),
    ("fig4", 0, {("locaware", "success"): 0.9}, False),
    ("fig4", 0, {("dicas-keys", "success"): 0.9}, False),
    ("fig4", 0, {("flooding", "success"): nan}, False),
    ("fig4", 1, {("dicas", "locaware success gain"): 1e-9}, True),
    ("fig4", 1, {("dicas", "locaware success gain"): 0.0}, False),
    ("fig4", 1, {("dicas", "locaware success gain"): nan}, False),
    ("fig4", 2, {("dicas-keys", "locaware success gain"): 1e-9}, True),
    ("fig4", 2, {("dicas-keys", "locaware success gain"): 0.0}, False),
    ("fig4", 2, {("dicas-keys", "locaware success gain"): nan}, False),
]


class TestAblationClaims:
    """Every row of both claim tables, through the one check."""

    def test_every_row_holds_on_the_holding_tables(self):
        for entry_id in _ENTRIES:
            checks = entry_checks(entry_id, hand_made(entry_id))
            tag = entry_id.capitalize() if entry_id in PAPER_CLAIMS else entry_id.upper()
            assert [c.claim for c in checks] == [
                f"{tag}: {claim.text}" for claim in claims_of(entry_id)
            ]
            assert all(c.holds for c in checks), (entry_id, checks)

    def test_every_row_has_a_holding_and_a_failing_case(self):
        covered = {(e, i, holds) for e, i, _, holds in _CASES}
        for entry_id in _ENTRIES:
            for index in range(len(claims_of(entry_id))):
                assert {(entry_id, index, True), (entry_id, index, False)} <= covered

    @pytest.mark.parametrize(
        "entry_id, index, edits, holds", _CASES,
        ids=[f"{e}-{i}-{n}" for n, (e, i, _, _) in enumerate(_CASES)],
    )
    def test_row(self, entry_id, index, edits, holds):
        assert row_check(entry_id, index, edits).holds is holds

    def test_last_and_first_are_positions_not_labels(self):
        """A4 compares the largest TTL with the smallest, whatever they are."""
        result = hand_made("a4")
        result.rows = result.rows[1:3]  # ttl 5 and 7 only
        checks = ABLATIONS["a4"].check(result)
        assert checks[1].detail == "locaware msgs[7] vs flooding msgs[7]: 50 < 198"
        assert checks[2].detail == (
            "flooding success[7] vs flooding success[5]: 0.6 >= 0.3"
        )

    def test_a_missing_label_reads_nan_and_fails(self):
        result = hand_made("a2")
        result.rows = [row for row in result.rows if row[0] != 1200]
        check = ABLATIONS["a2"].check(result)[1]
        assert not check.holds
        assert check.detail == "msgs/query[150] vs msgs/query[1200]: 120 >= nan"

    def test_an_empty_table_fails_every_row(self):
        for entry_id in _ENTRIES:
            headers, _ = _HOLDING[entry_id]
            checks = entry_checks(entry_id, ResultTable("X", "empty", list(headers), []))
            assert not any(c.holds for c in checks), entry_id

    def test_detail_lists_every_comparison(self):
        check = row_check("a8", 1)
        assert check.detail.count("; ") == len(_SUBSTRATES) - 1
        assert check.detail.startswith(
            "locaware msgs[euclidean/clustered]: 50 < 200"
        )
        assert math.isnan(check.value)

    def test_a_figure_row_reads_its_headline_cell(self):
        """The headline is the declared cell; a row without one is NaN."""
        edits = {("dicas-keys", "caching excess"): 0.9, ("locaware", "caching excess"): 0.7}
        assert row_check("fig3", 3, edits).value == 0.7
        assert row_check("fig2", 0).value == 0.46
        assert math.isnan(row_check("fig4", 0).value)

    def test_figure_details_name_the_cells_they_compare(self):
        assert row_check("fig2", 2).detail == (
            "dist_ms 2nd half[locaware] vs dist_ms 1st half[locaware]: 224 < 280"
        )
        assert row_check("fig4", 0).detail == (
            "success[flooding] vs success[dicas]: 0.9 > 0.4; "
            "success[flooding] vs success[dicas-keys]: 0.9 > 0.35; "
            "success[flooding] vs success[locaware]: 0.9 > 0.5"
        )
