"""Ablation experiments (A1-A8 + the §6 and drift extensions), declared once.

:data:`ABLATIONS` is the one table of them.  Each entry sweeps one
design parameter the paper discusses and declares, once: its id and
title, its protocols, its axis (config overrides or scenarios, with the
labels the table prints), how its table is read off the runs, and the
direction claims the table must satisfy.  :func:`run_ablation` runs
any entry as a storeless :class:`~repro.experiments.grid.GridRunner`
on the base config's seed; :meth:`Ablation.check` tests its claims on
the resulting :class:`~repro.analysis.paper_claims.ResultTable`.

- A1 — §5.1's landmark-count discussion (4 landmarks → 24 locIds vs 5
  → 120: too many localities scatter peers and locId matches vanish);
- A2 — §5.1's "1200 bits is an optimal representation" sizing
  argument (too small → false positives mislead routing; larger → no
  routing benefit, more update bits);
- A3 — §4.1.2's storage-control knob; also the regime where
  Dicas-Keys' duplicated indexes visibly pollute;
- A4 — the §5.1 TTL bound: scope vs traffic;
- A5 — §3.1 dynamicity/staleness: Locaware's multi-provider entries vs
  Dicas' single pointer;
- A6 — §4.2 footnote: update messages must stay within ~0.132 Kb;
- A7 — the Dicas M parameter: cache concentration vs routing
  reachability;
- A8 — latency model × peer placement: substrate sensitivity
  (README.md "The ablations' claims");
- EXT — §6 future work: location-aware *query routing* on top of
  Locaware (the ``locaware+locrouting`` protocol, so the grid's
  protocol axis);
- EXT2 — the ``popularity-shift`` scenario.

A claim row is the figure rows' type,
:class:`~repro.analysis.paper_claims.Claim`: comparisons read off the
table (``vs``, ``each_row``, ``steps``), checked by the one
:func:`~repro.analysis.paper_claims.check_claims`.  It holds when there
is at least one comparison and every one holds, so a NaN fails its row;
no ablation row declares a headline cell.  ``repro ablation ID`` prints
the table and its ``[PASS]`` / ``[FAIL]`` lines, and
``benchmarks/test_ablations.py`` gates every entry on them.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from functools import partial
from typing import Any

from ..analysis.paper_claims import (
    Claim,
    ClaimCheck,
    ResultTable,
    Row,
    all_of,
    check_claims,
    each_row,
    steps,
    vs,
)
from ..bloom.params import false_positive_rate
from ..overlay.blueprint import build_underlay
from ..sim.config import SimulationConfig
from .grid import GridRunner, GridSpec
from .runner import ProtocolRun
from .setup import paper_config

__all__ = ["ABLATIONS", "Ablation", "run_ablation"]


Rows = list[list[ProtocolRun]]
Reader = Callable[["Ablation", Rows], tuple[list[str], list[list[Any]]]]


@dataclass(frozen=True)
class Ablation:
    """One entry of :data:`ABLATIONS`."""

    id: str
    """The CLI id (``a1`` … ``ext2``); upper-cased, the table's title tag."""
    title: str
    protocols: tuple[str, ...]
    read: Reader
    """``(entry, runs per axis value)`` → ``(headers, table rows)``."""
    claims: tuple[Claim, ...]
    axis_header: str = ""
    labels: tuple[Any, ...] = (None,)
    """The axis values as the table prints them (one baseline row by default)."""
    override: Callable[[Any], Mapping[str, Any]] | None = None
    """A label's config overrides."""
    scenario: Callable[[Any], Any] | None = None
    """A label's scenario, for an axis over scenarios instead."""

    def check(self, table: ResultTable) -> list[ClaimCheck]:
        """Every claim on ``table``, in table order."""
        return check_claims(self.id.upper(), self.claims, table)


def _grid_rows(
    base: SimulationConfig | None,
    max_queries: int,
    protocols: Sequence[str],
    config_overrides: Sequence[Mapping[str, Any]] = ({},),
    scenarios: Sequence[Any] = ("baseline",),
) -> Rows:
    """Run one axis × ``protocols`` on ``base``'s seed as a storeless grid.

    One row per axis value, in axis order (an entry varies
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


def run_ablation(
    entry: Ablation, base: SimulationConfig | None, max_queries: int
) -> ResultTable:
    """Run ``entry``'s axis over its protocols on ``base``'s seed and
    read its table (``base`` defaults to :func:`paper_config`).

    The grid validates the axis before any cell runs: a zero horizon,
    an unknown protocol or a duplicate axis value is a ``ValueError``.
    """
    axis = {}
    if entry.override is not None:
        axis["config_overrides"] = [entry.override(label) for label in entry.labels]
    if entry.scenario is not None:
        axis["scenarios"] = [entry.scenario(label) for label in entry.labels]
    headers, rows = entry.read(entry, _grid_rows(base, max_queries, entry.protocols, **axis))
    return ResultTable(entry.id.upper(), entry.title, headers, rows)


# --- readers ---------------------------------------------------------------

#: Column suffix of a per-protocol table → the summary field it reads.
_SUMMARY_COLUMNS = {
    "success": "success_rate",
    "dist_ms": "mean_download_distance_ms",
    "msgs": "mean_messages",
}


def _per_protocol(columns: Sequence[str], entry: Ablation, rows: Rows):
    """One row per axis value: its label, then ``columns`` per protocol."""
    headers = [entry.axis_header] + [
        f"{p} {column}" for p in entry.protocols for column in columns
    ]
    fields = [_SUMMARY_COLUMNS[column] for column in columns]
    return headers, [
        [label] + [getattr(run.summary, f) for run in runs for f in fields]
        for label, runs in zip(entry.labels, rows, strict=True)
    ]


def _read_landmarks(entry: Ablation, rows: Rows):
    """A1: locId granularity, read off the underlay each run used.

    The grid has released the worlds by now; the underlay alone is
    rebuilt from the same streams, so nothing re-enters the cache.
    """
    return (
        [entry.axis_header, "locIds", "peers/locId", "locId matches", "success", "distance_ms"],
        [
            [
                count,
                math.factorial(count),
                round(build_underlay(run.config).mean_peers_per_locid(), 1),
                int(run.metric_snapshot.get("counter.selection.locid_match", 0)),
                run.summary.success_rate,
                run.summary.mean_download_distance_ms,
            ]
            for count, (run,) in zip(entry.labels, rows, strict=True)
        ],
    )


def _read_bloom_size(entry: Ablation, rows: Rows):
    """A2: estimated FPR, BF routing matches, traffic and update size."""
    table = []
    for bits, (run,) in zip(entry.labels, rows, strict=True):
        config, snapshot = run.config, run.metric_snapshot
        expected_keywords = config.index_capacity * config.keywords_per_file
        table.append(
            [
                bits,
                round(false_positive_rate(bits, config.bloom_hashes, expected_keywords), 4),
                int(snapshot.get("counter.routing.bf_match", 0)),
                run.summary.success_rate,
                run.summary.mean_messages,
                round(snapshot.get("summary.bloom.update_bits.mean", math.nan), 1),
            ]
        )
    return [entry.axis_header, "est_fpr", "bf matches", "success", "msgs/query", "update_bits"], table


def _read_bloom_overhead(entry: Ablation, rows: Rows):
    """A6: one Locaware run's Bloom update traffic against §4.2's bound."""
    ((run,),) = rows
    snapshot = run.metric_snapshot
    mean_bits = snapshot.get("summary.bloom.update_bits.mean", math.nan)
    update_count = snapshot.get("summary.bloom.update_bits.count", 0.0)
    messages = snapshot.get("counter.messages.bloom_update", 0.0)
    search_messages = snapshot.get("counter.messages.query", 0.0) + snapshot.get(
        "counter.messages.response", 0.0
    )
    return ["quantity", "value"], [
        ["bloom update pushes", int(update_count)],
        ["bloom update messages", int(messages)],
        ["mean update size (bits)", round(mean_bits, 1) if not math.isnan(mean_bits) else math.nan],
        ["paper bound (bits)", 132],
        ["search messages (for scale)", int(search_messages)],
        ["bloom/search message ratio", round(messages / search_messages, 3) if search_messages else math.nan],
    ]


def _read_variants(entry: Ablation, rows: Rows):
    """EXT: one row per protocol variant, all on one world."""
    (runs,) = rows
    return ["variant", "success", "distance_ms", "msgs/query", "locId matches"], [
        [
            run.protocol_name,
            run.summary.success_rate,
            run.summary.mean_download_distance_ms,
            run.summary.mean_messages,
            int(run.metric_snapshot.get("counter.selection.locid_match", 0)),
        ]
        for run in runs
    ]


def _churn(session_s: Any) -> dict[str, Any]:
    """A5: ``"off"``, or sessions of that mean with a quarter as downtime."""
    if session_s == "off":
        return {"churn_enabled": False}
    return {"churn_enabled": True, "mean_session_s": session_s, "mean_downtime_s": session_s / 4.0}


def _drift(interval_s: Any) -> Any:
    """EXT2: ``"stationary"``, or a Zipf re-draw every ``interval_s``."""
    if interval_s == "stationary":
        return "baseline"
    return ("popularity-shift", {"interval_s": interval_s})


_SUBSTRATE_FIELDS = ("latency_model", "peer_placement")

ABLATIONS: dict[str, Ablation] = {
    entry.id: entry
    for entry in (
        Ablation(
            "a1", "landmark count (locId granularity, §5.1 discussion)",
            protocols=("locaware",),
            axis_header="landmarks", labels=(2, 3, 4, 5),
            override=lambda count: {"num_landmarks": count},
            read=_read_landmarks,
            claims=(
                Claim(
                    "locality population shrinks as landmarks are added",
                    partial(steps, "peers/locId", ">="),
                ),
                Claim(
                    "every landmark count finds downloads",
                    partial(each_row, "success", ">", 0.0),
                ),
            ),
        ),
        Ablation(
            "a2", "Bloom filter size (§5.1: 1200 bits for ~150 keywords)",
            protocols=("locaware",),
            axis_header="bits", labels=(150, 300, 600, 1200, 2400),
            override=lambda bits: {"bloom_bits": bits},
            read=_read_bloom_size,
            claims=(
                Claim("FPR falls as bits grow", partial(steps, "est_fpr", ">=")),
                Claim(
                    "a saturated 150-bit filter costs at least 0.95x the "
                    "traffic of the paper's 1200 bits",
                    partial(vs, ("msgs/query", 150), ">=", ("msgs/query", 1200),
                            bound=lambda msgs: msgs * 0.95),
                ),
                Claim(
                    "every filter size finds downloads",
                    partial(each_row, "success", ">", 0.0),
                ),
            ),
        ),
        Ablation(
            "a3", "response-index capacity (cache pressure; Dicas-Keys duplication)",
            protocols=("dicas", "dicas-keys", "locaware"),
            axis_header="capacity", labels=(2, 5, 10, 25, 50),
            override=lambda capacity: {"index_capacity": capacity},
            read=partial(_per_protocol, ("success",)),
            claims=(
                Claim(
                    "more cache does not hurt: Locaware at 50 filenames keeps "
                    "at least 0.9x its success at 2",
                    partial(vs, ("locaware success", 50), ">=", ("locaware success", 2),
                            bound=lambda rate: rate * 0.9),
                ),
                Claim(
                    "every Dicas success rate is a rate (>= 0)",
                    partial(each_row, "dicas success", ">=", 0.0),
                ),
            ),
        ),
        Ablation(
            "a4", "TTL bound (scope vs traffic)",
            protocols=("flooding", "locaware"),
            axis_header="ttl", labels=(3, 5, 7, 9),
            override=lambda ttl: {"ttl": ttl},
            read=partial(_per_protocol, ("success", "msgs")),
            claims=(
                Claim(
                    "flooding traffic grows with TTL",
                    partial(steps, "flooding msgs", "<="),
                ),
                Claim(
                    "at the largest TTL Locaware sends under a fifth of "
                    "flooding's messages",
                    partial(vs, ("locaware msgs", Row.LAST), "<",
                            ("flooding msgs", Row.LAST), bound=lambda msgs: msgs / 5),
                ),
                Claim(
                    "larger scope does not reduce flooding success",
                    partial(vs, ("flooding success", Row.LAST), ">=",
                            ("flooding success", Row.FIRST)),
                ),
            ),
        ),
        Ablation(
            "a5", "churn (index staleness; §4.1.2 motivation)",
            protocols=("dicas", "locaware"),
            axis_header="mean_session_s", labels=("off", 3600.0, 1200.0, 600.0),
            override=_churn,
            read=partial(_per_protocol, ("success",)),
            claims=tuple(
                Claim(
                    f"the heaviest churn does not beat the churn-free run "
                    f"by more than 0.02 ({protocol})",
                    partial(vs, (f"{protocol} success", Row.LAST), "<=",
                            (f"{protocol} success", "off"), bound=lambda rate: rate + 0.02),
                )
                for protocol in ("dicas", "locaware")
            ),
        ),
        Ablation(
            "a6", "Bloom update overhead (§4.2 footnote: I = 132 bits per update)",
            protocols=("locaware",),
            read=_read_bloom_overhead,
            claims=(
                Claim(
                    "the run exercises Bloom updates",
                    partial(vs, ("value", "bloom update pushes"), ">", 0),
                ),
                Claim(
                    "the mean update stays within 4x the paper's 132-bit bound",
                    partial(vs, ("value", "mean update size (bits)"), "<=", 4 * 132),
                ),
                Claim(
                    "Bloom maintenance sends fewer messages than search",
                    partial(vs, ("value", "bloom/search message ratio"), "<", 1.0),
                ),
            ),
        ),
        Ablation(
            "a7", "group count M (Dicas parameter)",
            protocols=("dicas", "locaware"),
            axis_header="M", labels=(2, 4, 8, 16),
            override=lambda m: {"group_count": m},
            read=partial(_per_protocol, ("success", "msgs")),
            claims=(
                Claim(
                    "broad Dicas groups (M=2) cost at least the traffic of narrow ones (M=16)",
                    partial(vs, ("dicas msgs", 2), ">=", ("dicas msgs", 16)),
                ),
                Claim(
                    "every M finds Locaware downloads",
                    partial(each_row, "locaware success", ">", 0.0),
                ),
            ),
        ),
        Ablation(
            "a8", "substrate sensitivity (latency model x placement)",
            protocols=("flooding", "locaware"),
            axis_header="substrate",
            labels=tuple(
                f"{model}/{placement}"
                for model in ("euclidean", "router")
                for placement in ("clustered", "uniform")
            ),
            override=lambda label: dict(zip(_SUBSTRATE_FIELDS, label.split("/"), strict=True)),
            read=partial(_per_protocol, ("success", "dist_ms", "msgs")),
            claims=(
                Claim(
                    "Locaware downloads closer than flooding on every substrate",
                    partial(each_row, "locaware dist_ms", "<", "flooding dist_ms"),
                ),
                Claim(
                    "Locaware sends under a fifth of flooding's messages on every substrate",
                    partial(each_row, "locaware msgs", "<", "flooding msgs",
                            bound=lambda msgs: msgs / 5),
                ),
            ),
        ),
        Ablation(
            "ext", "location-aware query routing (§6 future work)",
            protocols=("locaware", "locaware+locrouting"),
            read=_read_variants,
            claims=(
                Claim(
                    "location-aware routing keeps at least 0.7x Locaware's success",
                    partial(vs, ("success", "locaware+locrouting"), ">=",
                            ("success", "locaware"), bound=lambda rate: rate * 0.7),
                ),
                Claim(
                    "location-aware routing's distance stays within 1.25x Locaware's",
                    partial(vs, ("distance_ms", "locaware+locrouting"), "<=",
                            ("distance_ms", "locaware"), bound=lambda ms: ms * 1.25),
                ),
            ),
        ),
        Ablation(
            "ext2", "popularity drift (shifting Zipf workload)",
            protocols=("dicas", "locaware"),
            axis_header="shift_interval_s", labels=("stationary", 1200.0, 300.0),
            scenario=_drift,
            read=partial(_per_protocol, ("success",)),
            claims=(
                Claim(
                    "the fastest drift does not beat a stationary workload "
                    "by more than 0.05 (Locaware)",
                    partial(vs, ("locaware success", Row.LAST), "<=",
                            ("locaware success", "stationary"), bound=lambda rate: rate + 0.05),
                ),
                Claim(
                    "every Dicas success rate lies in [0, 1]",
                    all_of(
                        partial(each_row, "dicas success", ">=", 0.0),
                        partial(each_row, "dicas success", "<=", 1.0),
                    ),
                ),
            ),
        ),
    )
}
