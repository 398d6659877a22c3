"""Ablation experiments (DESIGN.md A1-A8 + the §6 and drift extensions).

Each ablation sweeps one design parameter the paper discusses and
reports how the headline metrics move.  Every sweep is a grid: the
driver declares one axis (config overrides or scenarios) over its
protocols, a storeless :class:`~repro.experiments.grid.GridRunner`
runs the cells, and the driver reads its columns off the runs.

- A1 ``ablate_landmarks`` — §5.1's landmark-count discussion (4
  landmarks → 24 locIds vs 5 → 120: too many localities scatter peers
  and locId matches vanish);
- A2 ``ablate_bloom_size`` — §5.1's "1200 bits is an optimal
  representation" sizing argument (too small → false positives
  mislead routing; larger → no routing benefit, more update bits);
- A3 ``ablate_cache_capacity`` — §4.1.2's storage-control knob; also
  the regime where Dicas-Keys' duplicated indexes visibly pollute;
- A4 ``ablate_ttl`` — the §5.1 TTL bound: scope vs traffic;
- A5 ``ablate_churn`` — §3.1 dynamicity/staleness: Locaware's
  multi-provider entries vs Dicas' single pointer;
- A6 ``measure_bloom_overhead`` — §4.2 footnote: update messages must
  stay within ~0.132 Kb;
- A7 ``ablate_group_count`` — the Dicas M parameter: cache
  concentration vs routing reachability;
- A8 ``ablate_substrate`` — latency model × peer placement;
- EXT ``ablate_locaware_routing`` — §6 future work: location-aware
  *query routing* on top of Locaware (the ``locaware+locrouting``
  protocol, so the grid's protocol axis);
- EXT2 ``ablate_popularity_shift`` — the ``popularity-shift`` scenario.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from ..analysis.tables import format_table
from ..bloom.params import false_positive_rate
from ..net.underlay import Underlay
from ..sim.config import SimulationConfig
from ..sim.rng import RandomStreams
from .grid import GridRunner, GridSpec
from .runner import ProtocolRun
from .setup import paper_config

__all__ = [
    "AblationResult",
    "ablate_landmarks",
    "ablate_bloom_size",
    "ablate_cache_capacity",
    "ablate_ttl",
    "ablate_churn",
    "measure_bloom_overhead",
    "ablate_group_count",
    "ablate_locaware_routing",
    "ablate_popularity_shift",
    "ablate_substrate",
]


@dataclass
class AblationResult:
    """A sweep's rows, ready to render as the bench's output table."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[Any]] = field(default_factory=list)

    def render(self) -> str:
        """The ablation as an ASCII table."""
        return format_table(self.headers, self.rows, title=f"{self.experiment_id}: {self.title}")

    def column(self, header: str) -> list[Any]:
        """All values of one column (for assertions in benches/tests)."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]


#: Column suffix of a per-protocol table → the summary field it reads.
_SUMMARY_COLUMNS = {
    "success": "success_rate",
    "dist_ms": "mean_download_distance_ms",
    "msgs": "mean_messages",
}


def _grid_rows(
    base: SimulationConfig | None,
    max_queries: int,
    protocols: Sequence[str],
    config_overrides: Sequence[Mapping[str, Any]] = ({},),
    scenarios: Sequence[Any] = ("baseline",),
) -> list[list[ProtocolRun]]:
    """Run one axis × ``protocols`` on ``base``'s seed as a storeless grid.

    One row per axis value, in axis order (a driver varies
    ``config_overrides`` or ``scenarios``, never both); each row holds
    that value's runs in ``protocols`` order.
    """
    base = base if base is not None else paper_config()
    spec = GridSpec(
        base_config=base,
        protocols=protocols,
        scenarios=scenarios,
        config_overrides=config_overrides,
        seeds=(base.seed,),
        max_queries=max_queries,
        bucket_width=max(1, max_queries // 4),
    )
    report = GridRunner(spec).run()
    return [
        [report.run_for(protocol, label, base.seed) for protocol in spec.protocols]
        for label in report.scenarios
    ]


def _protocol_table(
    experiment_id: str, title: str, axis_header: str, labels: Sequence[Any],
    columns: Sequence[str], base: SimulationConfig | None, max_queries: int,
    protocols: Sequence[str], **axis: Sequence[Any],
) -> AblationResult:
    """Run ``axis`` (see :func:`_grid_rows`) and tabulate it.

    One row per axis value: its label, then ``columns`` per protocol.
    """
    headers = [axis_header] + [f"{p} {column}" for p in protocols for column in columns]
    fields = [_SUMMARY_COLUMNS[column] for column in columns]
    rows = _grid_rows(base, max_queries, protocols, **axis)
    return AblationResult(
        experiment_id, title, headers,
        [
            [label] + [getattr(run.summary, f) for run in runs for f in fields]
            for label, runs in zip(labels, rows, strict=True)
        ],
    )


def ablate_landmarks(
    base: SimulationConfig | None = None,
    max_queries: int = 400,
    counts: Sequence[int] = (2, 3, 4, 5),
) -> AblationResult:
    """A1 — number of landmarks (locId granularity)."""
    overrides = [{"num_landmarks": count} for count in counts]
    rows = _grid_rows(base, max_queries, ("locaware",), config_overrides=overrides)
    result = AblationResult(
        "A1",
        "landmark count (locId granularity, §5.1 discussion)",
        ["landmarks", "locIds", "peers/locId", "locId matches", "success", "distance_ms"],
    )
    for count, (run,) in zip(counts, rows, strict=True):
        underlay = Underlay.build(
            run.config.num_peers,
            RandomStreams(run.config.seed).stream("underlay"),
            num_landmarks=count,
        )
        result.rows.append(
            [
                count,
                math.factorial(count),
                round(underlay.mean_peers_per_locid(), 1),
                int(run.metric_snapshot.get("counter.selection.locid_match", 0)),
                run.summary.success_rate,
                run.summary.mean_download_distance_ms,
            ]
        )
    return result


def ablate_bloom_size(
    base: SimulationConfig | None = None,
    max_queries: int = 400,
    sizes: Sequence[int] = (150, 300, 600, 1200, 2400),
) -> AblationResult:
    """A2 — Bloom filter size (routing accuracy vs update cost)."""
    overrides = [{"bloom_bits": bits} for bits in sizes]
    rows = _grid_rows(base, max_queries, ("locaware",), config_overrides=overrides)
    result = AblationResult(
        "A2",
        "Bloom filter size (§5.1: 1200 bits for ~150 keywords)",
        ["bits", "est_fpr", "bf matches", "success", "msgs/query", "update_bits"],
    )
    for bits, (run,) in zip(sizes, rows, strict=True):
        config, snapshot = run.config, run.metric_snapshot
        expected_keywords = config.index_capacity * config.keywords_per_file
        result.rows.append(
            [
                bits,
                round(false_positive_rate(bits, config.bloom_hashes, expected_keywords), 4),
                int(snapshot.get("counter.routing.bf_match", 0)),
                run.summary.success_rate,
                run.summary.mean_messages,
                round(snapshot.get("summary.bloom.update_bits.mean", math.nan), 1),
            ]
        )
    return result


def ablate_cache_capacity(
    base: SimulationConfig | None = None,
    max_queries: int = 400,
    capacities: Sequence[int] = (2, 5, 10, 25, 50),
    protocols: Sequence[str] = ("dicas", "dicas-keys", "locaware"),
) -> AblationResult:
    """A3 — response-index capacity (§4.1.2 storage control)."""
    return _protocol_table(
        "A3", "response-index capacity (cache pressure; Dicas-Keys duplication)",
        "capacity", capacities, ("success",), base, max_queries, protocols,
        config_overrides=[{"index_capacity": capacity} for capacity in capacities],
    )


def ablate_ttl(
    base: SimulationConfig | None = None,
    max_queries: int = 300,
    ttls: Sequence[int] = (3, 5, 7, 9),
    protocols: Sequence[str] = ("flooding", "locaware"),
) -> AblationResult:
    """A4 — TTL bound: search scope vs traffic."""
    return _protocol_table(
        "A4", "TTL bound (scope vs traffic)",
        "ttl", ttls, ("success", "msgs"), base, max_queries, protocols,
        config_overrides=[{"ttl": ttl} for ttl in ttls],
    )


def ablate_churn(
    base: SimulationConfig | None = None,
    max_queries: int = 400,
    mean_sessions: Sequence[float | None] = (None, 3600.0, 1200.0, 600.0),
    protocols: Sequence[str] = ("dicas", "locaware"),
) -> AblationResult:
    """A5 — churn: stale single-provider pointers vs multi-provider entries.

    ``None`` in ``mean_sessions`` means churn disabled.
    """
    overrides = [
        {"churn_enabled": False} if s is None
        else {"churn_enabled": True, "mean_session_s": s, "mean_downtime_s": s / 4.0}
        for s in mean_sessions
    ]
    return _protocol_table(
        "A5", "churn (index staleness; §4.1.2 motivation)",
        "mean_session_s", ["off" if s is None else s for s in mean_sessions],
        ("success",), base, max_queries, protocols, config_overrides=overrides,
    )


def measure_bloom_overhead(
    base: SimulationConfig | None = None,
    max_queries: int = 400,
) -> AblationResult:
    """A6 — §4.2 footnote: a BF update is at most 12 × 11 = 132 bits."""
    ((run,),) = _grid_rows(base, max_queries, ("locaware",))
    snapshot = run.metric_snapshot
    mean_bits = snapshot.get("summary.bloom.update_bits.mean", math.nan)
    update_count = snapshot.get("summary.bloom.update_bits.count", 0.0)
    messages = snapshot.get("counter.messages.bloom_update", 0.0)
    search_messages = snapshot.get("counter.messages.query", 0.0) + snapshot.get(
        "counter.messages.response", 0.0
    )
    return AblationResult(
        "A6",
        "Bloom update overhead (§4.2 footnote: I = 132 bits per update)",
        ["quantity", "value"],
        [
            ["bloom update pushes", int(update_count)],
            ["bloom update messages", int(messages)],
            ["mean update size (bits)", round(mean_bits, 1) if not math.isnan(mean_bits) else math.nan],
            ["paper bound (bits)", 132],
            ["search messages (for scale)", int(search_messages)],
            ["bloom/search message ratio", round(messages / search_messages, 3) if search_messages else math.nan],
        ],
    )


def ablate_group_count(
    base: SimulationConfig | None = None,
    max_queries: int = 400,
    group_counts: Sequence[int] = (2, 4, 8, 16),
    protocols: Sequence[str] = ("dicas", "locaware"),
) -> AblationResult:
    """A7 — group modulus M: concentration vs reachability."""
    return _protocol_table(
        "A7", "group count M (Dicas parameter)",
        "M", group_counts, ("success", "msgs"), base, max_queries, protocols,
        config_overrides=[{"group_count": m} for m in group_counts],
    )


def ablate_substrate(
    base: SimulationConfig | None = None,
    max_queries: int = 400,
    protocols: Sequence[str] = ("flooding", "locaware"),
) -> AblationResult:
    """A8 — substrate sensitivity (DESIGN.md substitution audit).

    The reproduction replaces BRITE with a metric-space latency model
    and clusters peer placement.  This sweep re-runs the headline
    protocols on every combination of latency model (Euclidean vs
    Waxman router-level) and placement (clustered vs uniform) to check
    that the paper's *shape* — Locaware's distance advantage at a
    fraction of flooding's traffic — does not hinge on the substitution.
    """
    combos = [
        {"latency_model": model, "peer_placement": placement}
        for model in ("euclidean", "router")
        for placement in ("clustered", "uniform")
    ]
    return _protocol_table(
        "A8", "substrate sensitivity (latency model x placement)",
        "substrate", [f"{c['latency_model']}/{c['peer_placement']}" for c in combos],
        ("success", "dist_ms", "msgs"), base, max_queries, protocols,
        config_overrides=combos,
    )


def ablate_popularity_shift(
    base: SimulationConfig | None = None,
    max_queries: int = 400,
    shift_intervals: Sequence[float | None] = (None, 1200.0, 300.0),
    protocols: Sequence[str] = ("dicas", "locaware"),
) -> AblationResult:
    """EXT2 — popularity drift (temporal-locality stress).

    Re-draws the Zipf rank assignment every ``interval`` virtual
    seconds (``None`` = stationary).  Index caches chase a moving
    popular set; §4.1.2's recency-based replacement is the mechanism
    that lets them keep up.
    """
    scenarios = [
        "baseline" if s is None else ("popularity-shift", {"interval_s": s})
        for s in shift_intervals
    ]
    return _protocol_table(
        "EXT2", "popularity drift (shifting Zipf workload)",
        "shift_interval_s", ["stationary" if s is None else s for s in shift_intervals],
        ("success",), base, max_queries, protocols, scenarios=scenarios,
    )


def ablate_locaware_routing(
    base: SimulationConfig | None = None,
    max_queries: int = 400,
) -> AblationResult:
    """EXT — §6 future work: location-aware query routing.

    Compares stock Locaware against the variant that biases equally
    eligible next hops towards the requestor's locality, both
    instantiated from one built world.
    """
    (runs,) = _grid_rows(base, max_queries, ("locaware", "locaware+locrouting"))
    return AblationResult(
        "EXT",
        "location-aware query routing (§6 future work)",
        ["variant", "success", "distance_ms", "msgs/query", "locId matches"],
        [
            [
                run.protocol_name,
                run.summary.success_rate,
                run.summary.mean_download_distance_ms,
                run.summary.mean_messages,
                int(run.metric_snapshot.get("counter.selection.locid_match", 0)),
            ]
            for run in runs
        ],
    )
