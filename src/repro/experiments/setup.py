"""Experiment configurations.

Two presets:

- :func:`paper_config` — the exact §5.1 parameters (1000 peers, 3000
  files, 0.00083 q/s/peer, TTL 7, 4 landmarks, 50-filename caches,
  1200-bit filters); benches run it as-is at a shorter query horizon
  (``BENCH_MAX_QUERIES``): simulation wall time is governed by the
  event count, not by virtual time, so there is no reason to distort
  the paper's query rate;
- :func:`small_config` — miniature population for unit/integration
  tests (milliseconds per run).

The defaults of :class:`~repro.sim.config.SimulationConfig` *are* the
paper's; these helpers only exist to make intent explicit at call
sites and to centralise the scaled-down variants.
"""

from __future__ import annotations

from ..sim.config import SimulationConfig

__all__ = [
    "paper_config",
    "small_config",
    "BENCH_MAX_QUERIES",
    "BENCH_BUCKET_WIDTH",
]

#: Query horizon used by the benchmark harness.
BENCH_MAX_QUERIES = 1500
#: Figure bucket width used by the benchmark harness.
BENCH_BUCKET_WIDTH = 250


def paper_config(seed: int = 20090322) -> SimulationConfig:
    """The exact §5.1 configuration."""
    return SimulationConfig(seed=seed)


def small_config(seed: int = 7) -> SimulationConfig:
    """Miniature system for fast tests (60 peers, 180 files)."""
    return SimulationConfig.small(seed=seed)
