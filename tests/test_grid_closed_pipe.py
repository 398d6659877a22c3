"""``repro grid run … | head -2``: a reader that stops reading early.

Once the reader closes the pipe, the next line cannot be written.
Every command must drop its output from then on — no
``BrokenPipeError``, no ``error:`` line, no traceback — and ``grid
run`` must still execute every cell, so ``grid status`` afterwards
reads nothing pending.
"""

import fcntl
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.results import ResultStore

SRC = Path(__file__).resolve().parent.parent / "src"

#: Six cells, each long enough that the reader closes the pipe while
#: most of them are still to run.
FLAGS = (
    "--config", "small",
    "--protocols", "flooding", "locaware",
    "--seeds", "1", "2", "3",
    "--queries", "150",
)


def test_a_grid_whose_reader_closes_the_pipe_runs_every_cell(tmp_path):
    store = str(tmp_path / "store")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    runner = subprocess.Popen(
        [sys.executable, "-m", "repro", "grid", "run", "--store", store,
         *FLAGS, "--workers", "1"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        head = [runner.stdout.readline() for _ in range(2)]
        runner.stdout.close()
        errors = runner.stderr.read()
        runner.wait(timeout=120)
    finally:
        if runner.poll() is None:
            runner.kill()
            runner.wait()
    assert head[0].startswith("  runner: ")
    assert runner.returncode == 0, errors
    assert errors == ""

    out = io.StringIO()
    assert main(["grid", "status", "--store", store, *FLAGS], out=out) == 0
    assert "total=6 stored=6 claimed=0 pending=0" in out.getvalue()


def _store_of_many_rows(root, rows):
    """A store whose ``grid ls`` and ``grid report`` print ``rows`` rows
    each: one committed cell, put again under further keys and labels."""
    store = str(root / "store")
    assert main(
        ["grid", "run", "--store", store, "--config", "small",
         "--protocols", "flooding", "--seeds", "1", "--queries", "5"],
        out=io.StringIO(),
    ) == 0
    results = ResultStore(store)
    (key,) = results.keys()
    document = results.get(key)
    for row in range(1, rows):
        document["cell"]["label"] = f"copy-{row:04d}"
        results.put(hashlib.sha256(b"%d" % row).hexdigest(), document)
    return store


@pytest.mark.parametrize("command", ["ls", "report"])
def test_a_reader_that_closes_the_pipe_after_one_line_sees_no_error(
    tmp_path, command
):
    store = _store_of_many_rows(tmp_path, 200)
    read_end, write_end = os.pipe()
    # One page of pipe buffer: the command is still writing its table
    # when the reader below closes the pipe.
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    reader = subprocess.Popen(
        [sys.executable, "-m", "repro", "grid", command, "--store", store],
        env=env,
        stdout=write_end,
        stderr=subprocess.PIPE,
        text=True,
    )
    os.close(write_end)
    try:
        first = b""
        while not first.endswith(b"\n"):
            byte = os.read(read_end, 1)
            if not byte:
                break
            first += byte
        os.close(read_end)
        _, errors = reader.communicate(timeout=120)
    finally:
        if reader.poll() is None:
            reader.kill()
            reader.wait()
    assert first.startswith(b"Result store ")
    assert errors == ""
    assert reader.returncode == 0
