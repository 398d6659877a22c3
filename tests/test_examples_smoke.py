"""Smoke tests: every shipped example must run end-to-end.

The examples are user-facing documentation; if they break, the
quickstart experience breaks.  Each test executes an example's
``main()`` in-process (stdout captured) and asserts on its key output.

``compare_protocols`` is exercised at a reduced scale through its CLI
arguments; the others are already small.
"""

import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path


EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    """Import an example script as a module."""
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_main(module, argv=None):
    """Run a module's main() with optional argv, capturing stdout.

    Returns ``(output, exit_code)``; ``exit_code`` is 0 unless the
    example called ``sys.exit`` with something else (compare_protocols
    exits 1 when a paper claim fails, which is expected at toy scale).
    """
    buffer = io.StringIO()
    old_argv = sys.argv
    code = 0
    try:
        if argv is not None:
            sys.argv = argv
        with redirect_stdout(buffer):
            try:
                module.main()
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 0
    finally:
        sys.argv = old_argv
    return buffer.getvalue(), code


class TestExamples:
    def test_quickstart(self):
        output, code = run_main(load_example("quickstart"))
        assert code == 0
        assert "success rate" in output
        assert "messages per query" in output

    def test_locality_analysis(self):
        output, code = run_main(load_example("locality_analysis"))
        assert code == 0
        assert "locId granularity" in output
        assert "provider-selection policies" in output
        # The headline effect must reproduce: Locaware's policy saves
        # distance over random selection.
        assert "saves" in output

    def test_churn_resilience(self):
        output, code = run_main(load_example("churn_resilience"))
        assert code == 0
        assert "Part 1" in output
        assert "Part 2" in output
        # The deterministic mechanism demo: dicas fails, locaware succeeds.
        lines = [l for l in output.splitlines() if l.strip().startswith(("dicas", "locaware"))]
        assert any("no" in l for l in lines if l.strip().startswith("dicas"))
        assert any("yes" in l for l in lines if l.strip().startswith("locaware"))

    def test_trace_replay(self):
        output, code = run_main(load_example("trace_replay"))
        assert code == 0
        assert "replay determinism: OK" in output

    def test_compare_protocols_small(self):
        """Toy scale: every figure prints and flooding still loses on
        traffic, though the paper's 90%+ reduction bar (a paper-scale
        property) may not be met — a non-zero exit is acceptable."""
        output, _code = run_main(
            load_example("compare_protocols"),
            argv=["compare_protocols.py", "--peers", "80", "--queries", "150",
                  "--bucket", "50", "--seed", "11"],
        )
        assert "Figure 2" in output
        assert "Figure 3" in output
        assert "Figure 4" in output
        assert "claims hold" in output
        lines = output.splitlines()
        cuts = [
            detail
            for claim, detail in zip(lines, lines[1:])
            if claim.startswith(("[PASS]", "[FAIL]"))
            and "cuts search traffic" in claim
        ]
        assert len(cuts) == 3
        for detail in cuts:
            # Caching must still reduce traffic, just by less.
            cut = float(detail.split("]: ", 1)[1].split(" ", 1)[0])
            assert detail.strip().startswith("msgs cut[") and cut > 0, detail
