"""``kill -9`` in the middle of a grid: the store survives it.

A ``repro grid run`` process is killed with ``SIGKILL`` as soon as its
first cell document lands in a fresh store — mid-grid, with a claim
held and possibly a temp file half written — or, in the second test,
as soon as it holds its first claim, before any document exists.  The store must come out
of it whole: a second run with the same flags completes the grid
(``executed + cached == total``; the dead runner's claim goes stale
after its one-second lease and is stolen), every stored cell reads
back without a :class:`CorruptResultError`, ``keys()`` lists cells
only, ``grid status`` reads no claim and nothing pending, and a third
run executes nothing.
"""

import io
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.results import ResultStore, is_cell_key

SRC = Path(__file__).resolve().parent.parent / "src"

#: 16 cells of about 60 ms each: the first document lands long before
#: the last one would.
FLAGS = (
    "--config", "small",
    "--protocols", "flooding", "dicas", "dicas-keys", "locaware",
    "--scenarios", "baseline", "flash-crowd",
    "--seeds", "1", "2",
    "--queries", "150",
)
CELLS = 16

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="needs SIGKILL"
)


def _cells_line(text):
    match = re.search(r"cells: total=(\d+) executed=(\d+) cached=(\d+)", text)
    assert match, text
    return tuple(int(group) for group in match.groups())


def _run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def _first_document(store):
    for path in store.glob("??/*.json"):
        if is_cell_key(path.stem):
            return path
    return None


def _first_claim(store):
    for path in store.glob("claims/*.claim"):
        if is_cell_key(path.name[: -len(".claim")]):
            return path
    return None


def _kill_when(store, run_flags, found):
    """Start ``grid run`` and ``SIGKILL`` it once ``found(store)`` is not None."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro", "grid", "run", *run_flags],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60.0
        while found(store) is None:
            assert victim.poll() is None, "the grid ended before it was killed"
            assert time.monotonic() < deadline, "nothing to kill at within 60 s"
            time.sleep(0.002)
        victim.send_signal(signal.SIGKILL)
    finally:
        if victim.poll() is None:
            victim.kill()
        victim.wait(timeout=60)
    assert victim.returncode == -signal.SIGKILL


def _resumes_whole(store, run_flags):
    """A second run completes the grid; returns its ``cached`` count."""
    code, text = _run("grid", "run", *run_flags)
    assert code == 0, text
    total, executed, cached = _cells_line(text)
    assert total == CELLS
    assert executed + cached == total

    results = ResultStore(store)
    keys = list(results.keys())
    assert len(keys) == CELLS
    assert all(is_cell_key(key) for key in keys)
    for key in keys:
        assert results.get(key)["kind"] == "grid-cell"

    code, text = _run("grid", "status", "--store", str(store), *FLAGS)
    assert code == 0, text
    assert f"total={CELLS} stored={CELLS} claimed=0 pending=0" in text

    code, text = _run("grid", "run", *run_flags)
    assert code == 0, text
    assert _cells_line(text) == (CELLS, 0, CELLS)
    return cached


def _flags(store):
    return ("--store", str(store), *FLAGS, "--workers", "1", "--lease-ttl", "1")


def test_a_grid_killed_mid_run_resumes_whole(tmp_path):
    store = tmp_path / "store"
    _kill_when(store, _flags(store), _first_document)
    assert _resumes_whole(store, _flags(store)) >= 1  # the document that triggered the kill


def test_a_grid_killed_holding_its_first_claim_resumes_whole(tmp_path):
    """Killed before any document lands: the dead runner's claim on an
    unstored cell goes stale and is stolen, and the cell runs once."""
    store = tmp_path / "store"
    _kill_when(store, _flags(store), _first_claim)
    _resumes_whole(store, _flags(store))
