"""Persist experiment results to JSON and load them back.

Persisting results lets plots be re-rendered and claim checks be
re-evaluated without re-simulating, and makes results diffable
artefacts.  The format is deliberately plain JSON (no pickles).

One document kind, ``grid-cell``, holds one completed grid cell as
persisted by the content-addressed
:class:`~repro.results.store.ResultStore`; its run is the per-run
encoding of :func:`run_to_document` / :func:`load_run_document`.  A
whole grid is persisted only as its cells in a store: a
:class:`~repro.experiments.grid.GridRunner` over that store loads them
back into the same :class:`~repro.experiments.grid.GridReport` a live
run returns, which :func:`repro.analysis.aggregate_sweep`,
:func:`repro.analysis.comparison_slice` and
:func:`repro.analysis.check_report` consume.  :func:`read_grid_cell`
is the one reader of a stored cell, so every command that reads a
store agrees on what a damaged document means.

Floats round-trip exactly (JSON uses ``repr``-exact encoding), and a
restored run's figure series are the same
:class:`~repro.analysis.collectors.Series` values the live run
collected, so an aggregate computed from restored documents is
byte-identical to one computed from the live runs — the property grid
resume relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, NamedTuple

from ..results import CorruptResultError, ResultStore
from ..results.keys import cell_label
from .collectors import MetricSeries, OutcomeSummary, Series

__all__ = [
    "run_to_document",
    "load_run_document",
    "grid_cell_to_document",
    "load_grid_cell_document",
    "StoredCell",
    "read_grid_cell",
]

_FORMAT_VERSION = 1


def _series_to_lists(series: Series) -> dict[str, Any]:
    return {
        "name": series.name,
        "bucket_width": series.bucket_width,
        "edges": list(series.edges),
        "windowed_means": [_none_if_nan(v) for v in series.windowed],
        "cumulative_means": [_none_if_nan(v) for v in series.cumulative],
        "sample_count": series.sample_count,
        "overall_mean": _none_if_nan(series.overall),
    }


def _none_if_nan(value: float) -> Any:
    return None if isinstance(value, float) and math.isnan(value) else value


def _nan_if_none(value: Any) -> float:
    return math.nan if value is None else float(value)


def run_to_document(run: Any) -> dict[str, Any]:
    """Serialise one protocol run's measurements to a JSON-able dict.

    Accepts any run-shaped object (``summary``, ``series``,
    ``locally_satisfied``, ``sim_time_s``, ``events_processed``) —
    live :class:`~repro.experiments.runner.ProtocolRun` or an already
    restored one; the encoding is a fixed point either way.
    """
    summary = run.summary
    return {
        "summary": {
            "queries": summary.queries,
            "successes": summary.successes,
            "success_rate": _none_if_nan(summary.success_rate),
            "mean_messages": _none_if_nan(summary.mean_messages),
            "mean_download_distance_ms": _none_if_nan(
                summary.mean_download_distance_ms
            ),
            "mean_responses": _none_if_nan(summary.mean_responses),
        },
        "series": {
            "download_distance": _series_to_lists(run.series.download_distance),
            "search_traffic": _series_to_lists(run.series.search_traffic),
            "success_rate": _series_to_lists(run.series.success_rate),
        },
        "locally_satisfied": run.locally_satisfied,
        "sim_time_s": run.sim_time_s,
        "events_processed": run.events_processed,
    }


@dataclass
class _LoadedRun:
    """One protocol's restored results."""

    protocol_name: str
    summary: OutcomeSummary
    series: MetricSeries
    locally_satisfied: int
    sim_time_s: float
    events_processed: int


def _load_series(doc: dict[str, Any]) -> Series:
    # Three of these per stored cell on the warm path, so the fields go
    # positionally and ``null`` decodes inline: keyword arguments to a
    # frozen dataclass cost about 1 µs more per series.
    nan = math.nan
    return Series(
        doc["name"],
        doc["bucket_width"],
        tuple(doc["edges"]),
        tuple([nan if v is None else float(v) for v in doc["windowed_means"]]),
        tuple([nan if v is None else float(v) for v in doc["cumulative_means"]]),
        doc["sample_count"],
        _nan_if_none(doc["overall_mean"]),
    )


def load_run_document(protocol_name: str, run_doc: dict[str, Any]) -> _LoadedRun:
    """Restore one run from its :func:`run_to_document` encoding."""
    s = run_doc["summary"]
    summary = OutcomeSummary(
        queries=s["queries"],
        successes=s["successes"],
        success_rate=_nan_if_none(s["success_rate"]),
        mean_messages=_nan_if_none(s["mean_messages"]),
        mean_download_distance_ms=_nan_if_none(s["mean_download_distance_ms"]),
        mean_responses=_nan_if_none(s["mean_responses"]),
    )
    curves = run_doc["series"]
    series = MetricSeries(
        _load_series(curves["download_distance"]),
        _load_series(curves["search_traffic"]),
        _load_series(curves["success_rate"]),
    )
    return _LoadedRun(
        protocol_name=protocol_name,
        summary=summary,
        series=series,
        locally_satisfied=run_doc["locally_satisfied"],
        sim_time_s=run_doc["sim_time_s"],
        events_processed=run_doc["events_processed"],
    )


def _check_kind(doc: Any, kind: str) -> None:
    found = doc.get("kind") if isinstance(doc, dict) else None
    if found != kind:
        raise ValueError(f"not a {kind} document: kind={found!r}")
    if doc.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported format version {doc.get('format_version')!r} "
            f"(expected {_FORMAT_VERSION})"
        )


# -- grid documents --------------------------------------------------------
#
# Cells arrive shaped like :class:`~repro.experiments.grid.GridCell`:
# ``protocol``/``seed``, a ``scenario`` with ``name``/``params`` items,
# and an ``overrides`` item tuple.  The analysis layer never imports
# the experiments layer, so shape — not type — is the contract.


def _cell_axes(cell: Any) -> tuple[str, dict[str, Any], dict[str, Any]]:
    return cell.scenario.name, dict(cell.scenario.params), dict(cell.overrides)


def grid_cell_to_document(
    cell: Any,
    run: Any,
    key: str,
    max_queries: int,
    bucket_width: int,
    topology_fingerprint: Any = None,
) -> dict[str, Any]:
    """Serialise one completed grid cell for the result store."""
    name, params, overrides = _cell_axes(cell)
    return {
        "format_version": _FORMAT_VERSION,
        "kind": "grid-cell",
        "key": key,
        "cell": {
            "protocol": cell.protocol,
            "scenario": {"name": name, "params": params},
            "overrides": overrides,
            "seed": cell.seed,
            "label": cell_label(name, params, overrides),
        },
        "topology_fingerprint": topology_fingerprint,
        "max_queries": max_queries,
        "bucket_width": bucket_width,
        "run": run_to_document(run),
    }


def load_grid_cell_document(doc: dict[str, Any]) -> _LoadedRun:
    """Restore the run of a stored grid cell."""
    _check_kind(doc, "grid-cell")
    return load_run_document(doc["cell"]["protocol"], doc["run"])


class StoredCell(NamedTuple):
    """One grid cell read back from a result store."""

    label: str
    protocol: str
    seed: int
    max_queries: int
    run: _LoadedRun


def read_grid_cell(store: ResultStore, key: str) -> StoredCell:
    """The grid cell stored under ``key``.

    Raises :class:`KeyError` if none is stored.  A document that does
    not parse, or parses but is not a well-formed grid-cell document,
    is moved aside and reported as
    :class:`~repro.results.CorruptResultError`: either way the cell
    reads as absent from then on, and re-executing it recovers it.
    """
    document = store.get(key)
    try:
        run = load_grid_cell_document(document)
        cell = document["cell"]
        return StoredCell(
            cell["label"], cell["protocol"], cell["seed"], document["max_queries"], run
        )
    except (KeyError, TypeError, ValueError) as error:
        raise CorruptResultError(
            key, store.quarantine(key), f"malformed grid-cell document: {error}"
        ) from None
