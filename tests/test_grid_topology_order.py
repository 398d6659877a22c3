"""Topology-ordered execution: one build per distinct world, same bytes.

Cells run grouped by ``topology_fingerprint`` on every path of
``repro.experiments.grid``.  Under test here: the ordering helper
itself, the build counts it buys on the serial paths with more
topologies than the blueprint cache holds, that execution order cannot
change a stored byte, that the per-row memo behind
``GridSpec.cell_key_payload`` returns exactly what a from-scratch
computation does, and that ``GridSpec.cell_key`` — which hashes a row's
encoded payload once and splices each cell's protocol into it — returns
exactly ``results.keys.cell_key`` of that payload.

``reference_key_payload`` is ``cell_key_payload`` as it was written
before the protocol-independent part was memoised per row; it lives
here, not in ``src/``.
"""

import copy
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.persistence import grid_cell_to_document
from repro.experiments import PROTOCOL_REGISTRY, GridRunner, GridSpec, small_config
from repro.experiments.grid import _PROTOCOL_SLOT, execute_cells
from repro.overlay.blueprint import build_count
from repro.results import ResultStore, cell_key, cell_key_payload
from repro.scenarios import Scenario, scenario_parameters
from repro.scenarios.base import SCENARIO_CLASSES, SCENARIO_REGISTRY


def _spec(**overrides):
    defaults = dict(
        base_config=small_config(seed=1).replace(query_rate_per_peer=0.02),
        protocols=("flooding", "locaware"),
        scenarios=("baseline", "flash-crowd"),
        seeds=(1, 2),
        max_queries=8,
    )
    defaults.update(overrides)
    return GridSpec(**defaults)


def _fingerprint(spec, cell):
    return spec.cell_build_config(cell).topology_fingerprint()


# -- the reference ---------------------------------------------------------


def reference_key_payload(spec, cell):
    effective = spec.base_config
    if cell.overrides:
        effective = effective.replace(**dict(cell.overrides))
    effective = effective.replace(seed=cell.seed)
    scenario = cell.scenario.make()
    configured = scenario.configure(effective)
    resolved = dict(cell.scenario.params)
    for name in scenario_parameters(cell.scenario.name):
        if name not in resolved and hasattr(scenario, name):
            resolved[name] = getattr(scenario, name)
    return cell_key_payload(
        config=effective.to_dict(),
        protocol=cell.protocol,
        scenario_name=cell.scenario.name,
        scenario_params=resolved,
        max_queries=spec.max_queries,
        bucket_width=spec.bucket_width,
        topology_fingerprint=configured.topology_fingerprint(),
    )


# -- the ordering helper ---------------------------------------------------


class TestByTopology:
    @pytest.fixture(scope="class")
    def spec(self):
        return _spec(
            scenarios=("baseline", "flash-crowd:spike_probability=0.9", "cold-start"),
            config_overrides=({}, {"ttl": 5}),
            seeds=(1, 2, 3),
        )

    def test_is_a_permutation_of_its_input(self, spec):
        cells = spec.expand()
        ordered = spec.by_topology(cells)
        assert len(ordered) == len(cells)
        assert set(ordered) == set(cells)

    def test_groups_are_contiguous_and_in_first_appearance_order(self, spec):
        cells = spec.expand()
        first_seen = list(dict.fromkeys(_fingerprint(spec, c) for c in cells))
        runs = []
        for cell in spec.by_topology(cells):
            fingerprint = _fingerprint(spec, cell)
            if not runs or runs[-1] != fingerprint:
                runs.append(fingerprint)
        # Contiguous: no fingerprint starts a second run; and the runs
        # come in the order expand() first shows each fingerprint.
        assert runs == first_seen

    def test_expand_order_is_kept_inside_a_group(self, spec):
        cells = spec.expand()
        position = {cell: index for index, cell in enumerate(cells)}
        by_group = {}
        for cell in spec.by_topology(cells):
            by_group.setdefault(_fingerprint(spec, cell), []).append(position[cell])
        assert all(group == sorted(group) for group in by_group.values())

    def test_rows_of_one_seed_share_a_group_but_cold_start_has_its_own(self, spec):
        groups = {}
        for cell in spec.expand():
            groups.setdefault(_fingerprint(spec, cell), set()).add(
                (cell.scenario.name, cell.seed)
            )
        # ttl and flash-crowd are run-time only; cold-start's sparser
        # shares are a different world.
        assert len(groups) == 2 * len(spec.seeds)
        for members in groups.values():
            names = {name for name, _seed in members}
            assert len({seed for _name, seed in members}) == 1
            assert names in ({"cold-start"}, {"baseline", "flash-crowd"})

    def test_a_shuffled_subset_is_regrouped_not_sorted(self, spec):
        cells = spec.expand()[::-1][:17]
        ordered = spec.by_topology(cells)
        assert set(ordered) == set(cells)
        # First group is the first cell's topology, not the smallest.
        assert _fingerprint(spec, ordered[0]) == _fingerprint(spec, cells[0])
        assert ordered[0] == cells[0]


# -- builds: one per distinct topology at any cache budget --------------------


class TestOneBuildPerTopology:
    """More seeds than the blueprint cache holds, every row of a seed
    sharing one world: the serial paths must still build each world
    exactly once."""

    SEEDS = tuple(range(1, 11))

    def _grid(self, cache):
        spec = _spec(seeds=self.SEEDS, max_queries=5)
        assert len(self.SEEDS) * spec.base_config.num_peers > cache.max_peers
        distinct = {_fingerprint(spec, cell) for cell in spec.expand()}
        assert len(distinct) == len(self.SEEDS) < spec.num_cells
        return spec, distinct

    def test_serial_store_path(self, tmp_path, eight_world_cache):
        spec, distinct = self._grid(eight_world_cache)
        before = build_count()
        report = GridRunner(spec, store=ResultStore(tmp_path)).run()
        builds = build_count() - before
        assert len(eight_world_cache) <= 8
        assert report.executed == spec.num_cells
        assert builds == len(distinct)

    def test_storeless_execute_cells_path(self, eight_world_cache):
        spec, distinct = self._grid(eight_world_cache)
        before = build_count()
        results = list(execute_cells(spec, spec.expand()))
        builds = build_count() - before
        assert {cell for cell, _run in results} == set(spec.expand())
        assert builds == len(distinct)


# -- order independence ------------------------------------------------------


_ORDER_SPEC = dict(scenarios=("baseline", "cold-start"), seeds=(3, 4))
_reference_documents = {}


def _stored_bytes(store, spec):
    return {
        key: store.get_raw(key)
        for key in (spec.cell_key(cell) for cell in spec.expand())
    }


def _reference(backend):
    """The topology-ordered ``GridRunner`` run's key → document bytes."""
    if backend not in _reference_documents:
        spec = _spec(**_ORDER_SPEC)
        with tempfile.TemporaryDirectory() as root:
            store = ResultStore(Path(root), backend=backend)
            GridRunner(spec, store=store).run()
            _reference_documents[backend] = _stored_bytes(store, spec)
    return _reference_documents[backend]


@pytest.mark.parametrize("backend", ["json", "sqlite"])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_execution_order_cannot_change_a_stored_byte(backend, data):
    spec = _spec(**_ORDER_SPEC)
    cells = data.draw(st.permutations(spec.expand()))
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(Path(root), backend=backend)
        for cell, run in execute_cells(spec, cells):
            payload = spec.cell_key_payload(cell)
            key = cell_key(payload)
            store.put(
                key,
                grid_cell_to_document(
                    cell,
                    run,
                    key=key,
                    max_queries=spec.max_queries,
                    bucket_width=spec.bucket_width,
                    topology_fingerprint=payload["topology_fingerprint"],
                ),
            )
        assert _stored_bytes(store, spec) == _reference(backend)


# -- the key payload ---------------------------------------------------------


class TestCellKeyPayloadMemo:
    @pytest.fixture
    def spec(self):
        return _spec(
            scenarios=(
                "baseline",
                "diurnal:amplitude=0.3",
                "churn-storm:storm_session_s=60,storm_time_s=30",
                "cold-start",
            ),
            config_overrides=({}, {"ttl": 5}, {"index_capacity": 10, "ttl": 6}),
            seeds=(1, 2, 3),
            bucket_width=4,
        )

    def test_equals_a_from_scratch_computation_for_every_cell(self, spec):
        fresh = _spec(
            scenarios=spec.scenarios,
            config_overrides=[dict(items) for items in spec.config_overrides],
            seeds=spec.seeds,
            bucket_width=4,
        )
        for cell in spec.expand():
            expected = reference_key_payload(fresh, cell)
            # Twice: the first call of a row computes, the rest look up.
            assert spec.cell_key_payload(cell) == expected
            assert spec.cell_key_payload(cell) == expected
            assert list(spec.cell_key_payload(cell)) == list(expected)

    def test_every_call_returns_a_fresh_dict(self, spec):
        cell = spec.expand()[0]
        first = spec.cell_key_payload(cell)
        second = spec.cell_key_payload(cell)
        assert first == second
        assert first is not second
        assert first["config"] is not second["config"]
        assert first["scenario"]["params"] is not second["scenario"]["params"]

    def test_mutating_a_payload_does_not_change_the_next(self, spec):
        cell = next(c for c in spec.expand() if c.scenario.name == "diurnal")
        pristine = copy.deepcopy(spec.cell_key_payload(cell))
        key = spec.cell_key(cell)
        vandal = spec.cell_key_payload(cell)
        vandal["protocol"] = "nonsense"
        vandal["config"]["ttl"] = -1
        vandal["scenario"]["params"]["amplitude"] = 99
        vandal.pop("topology_fingerprint")
        assert spec.cell_key_payload(cell) == pristine
        assert spec.cell_key(cell) == key
        # ... nor the other protocols of the same row, which share the memo.
        sibling = next(
            c
            for c in spec.expand()
            if (c.scenario, c.overrides, c.seed)
            == (cell.scenario, cell.overrides, cell.seed)
            and c.protocol != cell.protocol
        )
        assert spec.cell_key_payload(sibling) == reference_key_payload(spec, sibling)

    def test_equal_cells_of_different_specs_do_not_share_a_memo(self, spec):
        """The memo is per spec instance: the same coordinates under
        another base config or horizon must key differently."""
        other = _spec(
            base_config=spec.base_config.replace(ttl=3),
            scenarios=spec.scenarios,
            max_queries=9,
        )
        cell = spec.expand()[0]
        assert cell == other.expand()[0]
        mine = spec.cell_key_payload(cell)
        theirs = other.cell_key_payload(cell)
        assert theirs == reference_key_payload(other, cell)
        assert mine == reference_key_payload(spec, cell)
        assert mine["config"]["ttl"] != theirs["config"]["ttl"]
        assert spec.cell_key(cell) != other.cell_key(cell)


# -- the key ---------------------------------------------------------------


class _Annotated(Scenario):
    """Tests-only scenario whose parameters are free text."""

    name = "annotated"

    def __init__(self, note="", tag="plain"):
        self.note = note
        self.tag = tag


@pytest.fixture(scope="module")
def annotated_scenario():
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(SCENARIO_REGISTRY, "annotated", _Annotated())
        mp.setitem(SCENARIO_CLASSES, "annotated", _Annotated)
        yield


#: Text a JSON encoder has to escape, or must not: quotes, backslashes,
#: control characters, non-ASCII, and near misses of the placeholder.
#: The placeholder itself is refused by design (the test after the
#: property), so generated text never equals it.
_AWKWARD = st.one_of(
    st.text(max_size=12),
    st.sampled_from(
        ['"', "\\", '\\"', '","protocol":"locaware', "naïve — ٣ 日本", "\x00",
         "\x00protocol", _PROTOCOL_SLOT + "x", '"' + _PROTOCOL_SLOT + '"']
    ),
).filter(lambda text: text != _PROTOCOL_SLOT)
_OVERRIDES = st.lists(
    st.sampled_from(
        [{}, {"ttl": 5}, {"index_capacity": 10, "ttl": 6}, {"zipf_exponent": 0.5},
         {"latency_model": "router"}, {"churn_enabled": True}]
    ),
    min_size=1, max_size=3, unique_by=repr,
)


class TestCellKeySplice:
    @settings(max_examples=40, deadline=None)
    @given(
        notes=st.lists(_AWKWARD, min_size=1, max_size=3, unique=True),
        tag=_AWKWARD,
        overrides=_OVERRIDES,
        seeds=st.lists(st.integers(0, 2**31), min_size=1, max_size=3, unique=True),
        max_queries=st.integers(1, 500),
    )
    def test_equals_the_hash_of_the_whole_payload_for_every_cell(
        self, annotated_scenario, notes, tag, overrides, seeds, max_queries
    ):
        spec = _spec(
            protocols=tuple(sorted(PROTOCOL_REGISTRY)),
            scenarios=["baseline", "churn-storm:storm_session_s=60"]
            + [("annotated", {"note": note, "tag": tag}) for note in notes],
            config_overrides=overrides,
            seeds=seeds,
            max_queries=max_queries,
        )
        cells = spec.expand()
        keys = [spec.cell_key(cell) for cell in cells]
        assert keys == [cell_key(spec.cell_key_payload(cell)) for cell in cells]
        assert keys == [cell_key(reference_key_payload(spec, cell)) for cell in cells]
        assert len(set(keys)) == len(cells)
        # Any cell may be the first of its row to be asked.
        fresh = _spec(
            protocols=spec.protocols, scenarios=spec.scenarios,
            config_overrides=overrides, seeds=seeds, max_queries=max_queries,
        )
        assert [fresh.cell_key(cell) for cell in reversed(cells)] == keys[::-1]

    def test_a_payload_holding_the_placeholder_is_refused(self, annotated_scenario):
        spec = _spec(scenarios=[("annotated", {"note": _PROTOCOL_SLOT})])
        with pytest.raises(ValueError, match="reserved"):
            spec.cell_key(spec.expand()[0])
