"""``repro grid run … | head -2``: a reader that stops reading early.

Once the reader closes the pipe, the next progress line cannot be
written.  The run must drop its output from then on and still execute
every cell — no ``BrokenPipeError``, no ``error:`` line, no traceback —
so ``grid status`` afterwards reads nothing pending.
"""

import io
import os
import subprocess
import sys
from pathlib import Path

from repro.cli import main

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
