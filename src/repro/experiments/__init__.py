"""Experiment drivers: §5.1 setup, figure reproductions, ablations."""

from . import ablations
from .figures import (
    FIGURES,
    fig2_download_distance,
    fig3_search_traffic,
    fig4_success_rate,
)
from .grid import (
    GridCell,
    GridReport,
    GridRunner,
    GridSpec,
    GridWorkerPool,
    NonFiniteValueError,
    ScenarioSpec,
    execute_cells,
)
from .runner import (
    DEFAULT_PROTOCOL_ORDER,
    PROTOCOL_REGISTRY,
    ProtocolRun,
    check_run_bounds,
    drive_until_settled,
    make_protocol,
    run_protocol,
)
from .setup import (
    BENCH_BUCKET_WIDTH,
    BENCH_MAX_QUERIES,
    paper_config,
    small_config,
)

__all__ = [
    "paper_config",
    "small_config",
    "BENCH_MAX_QUERIES",
    "BENCH_BUCKET_WIDTH",
    "PROTOCOL_REGISTRY",
    "DEFAULT_PROTOCOL_ORDER",
    "ProtocolRun",
    "run_protocol",
    "check_run_bounds",
    "make_protocol",
    "drive_until_settled",
    "FIGURES",
    "fig2_download_distance",
    "fig3_search_traffic",
    "fig4_success_rate",
    "ablations",
    "ScenarioSpec",
    "GridCell",
    "GridSpec",
    "GridReport",
    "GridRunner",
    "GridWorkerPool",
    "NonFiniteValueError",
    "execute_cells",
]
