"""Content-addressed persistence of experiment results.

The grid runner (:mod:`repro.experiments.grid`) keys every completed
cell by a SHA-256 over everything that determines its results
(:mod:`repro.results.keys`) and persists the cell document in a
:class:`~repro.results.store.ResultStore` — a directory of sharded
JSON files, ``<key[:2]>/<key>.json`` — which is what makes interrupted
grids resumable and repeated grids free.  Concurrent runners share a
store through lease claims (:mod:`repro.results.claims`), one
``claims/<key>.claim`` file per cell in flight.

This package is a leaf: it imports only the standard library, so both
the experiments and the analysis layers can build on it.
"""

from .claims import DEFAULT_LEASE_TTL_S, Claim, ClaimStore, default_runner_id
from .keys import (
    SCHEMA_VERSION,
    canonical_json,
    cell_key,
    cell_key_payload,
    cell_label,
    check_key,
    is_cell_key,
    scenario_label,
)
from .store import CorruptResultError, ResultStore

__all__ = [
    "SCHEMA_VERSION",
    "canonical_json",
    "cell_key",
    "cell_key_payload",
    "cell_label",
    "check_key",
    "is_cell_key",
    "scenario_label",
    "Claim",
    "ClaimStore",
    "CorruptResultError",
    "DEFAULT_LEASE_TTL_S",
    "ResultStore",
    "default_runner_id",
]
