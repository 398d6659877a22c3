"""Content-addressed keys and labels for experiment-grid cells.

A grid cell's identity is *everything that determines its results*:
the effective simulation configuration (base config + overrides +
seed), the protocol, the scenario with its parameter overrides, the
query horizon and bucket width, and the store schema version.  The key
is a SHA-256 over a canonical JSON encoding of exactly that payload,
so two cells collide if and only if they would produce byte-identical
results — which is what makes the result store safely resumable and a
repeated grid free.

``schema_version`` is part of the payload on purpose: bumping
:data:`SCHEMA_VERSION` when the run-document format changes silently
invalidates every stored cell instead of mixing formats.

This module depends only on the standard library so that both the
experiments layer and the analysis layer can import it without
creating a cycle.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from typing import Any

__all__ = [
    "SCHEMA_VERSION",
    "canonical_json",
    "cell_key",
    "cell_key_payload",
    "scenario_label",
    "cell_label",
]

#: Version of the stored cell-document schema.  Bump when the run
#: document format — or what its fields cover — changes; old cells then
#: miss the cache and re-run.
#:
#: 2: a run ends at the event that settles its last query, so
#:    ``sim_time_s`` / ``events_processed`` cover [0, settle] instead of
#:    [0, next multiple of 500 s].  Every per-query field is unchanged.
SCHEMA_VERSION = 2


def canonical_json(payload: Any) -> str:
    """Minimal, key-sorted JSON — the hashing canonical form.

    Strict (``allow_nan=False``): a NaN/Infinity smuggled into a key
    payload would serialise as non-standard JSON tokens — and since
    ``nan != nan``, two hashes of "the same" payload could disagree.
    The grid layer rejects non-finite axis values before they get
    here; this is the backstop that turns any leak into a loud
    ``ValueError`` instead of a poisoned key.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def cell_key_payload(
    config: Mapping[str, Any],
    protocol: str,
    scenario_name: str,
    scenario_params: Mapping[str, Any],
    max_queries: int,
    bucket_width: int,
    topology_fingerprint: str | None = None,
) -> dict[str, Any]:
    """The identity payload one grid cell hashes into its key.

    ``config`` is the *effective* configuration dict of the cell (base
    config with its override axis and seed applied), so every run-time
    knob — not just the topology-shaping fields — contributes to the
    key.  ``topology_fingerprint`` (of the scenario-configured config)
    rides along for human inspection and store listings.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "protocol": protocol,
        "scenario": {"name": scenario_name, "params": dict(scenario_params)},
        "config": dict(config),
        "max_queries": max_queries,
        "bucket_width": bucket_width,
        "topology_fingerprint": topology_fingerprint,
    }


def cell_key(payload: Mapping[str, Any]) -> str:
    """SHA-256 of the canonical JSON encoding of a key payload."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def scenario_label(name: str, params: Mapping[str, Any]) -> str:
    """Human-readable scenario label: ``name`` or ``name[k=v,...]``."""
    if not params:
        return name
    inner = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{name}[{inner}]"


def cell_label(
    name: str,
    params: Mapping[str, Any],
    overrides: Mapping[str, Any],
) -> str:
    """Row label of one (scenario+params, config-override) combination.

    The config-override part is appended after ``@`` so rows from a
    config axis stay distinguishable: ``baseline @ ttl=5``.
    """
    label = scenario_label(name, params)
    if overrides:
        suffix = ",".join(f"{k}={overrides[k]}" for k in sorted(overrides))
        label = f"{label} @ {suffix}"
    return label
