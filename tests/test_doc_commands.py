"""Every CLI command the docs show parses with the CLI's own parser.

A ``$ … python -m repro …`` line (``\\`` continuations joined) in
``README.md`` or the verify recipe (``.claude/skills/verify/SKILL.md``)
is a promise that the command runs; a flag renamed or removed in
``repro.cli`` must take the doc line with it.  Shell around the command
is dropped before parsing: environment assignments, a trailing comment,
anything after a pipe, redirection or ``&``, and ``…`` placeholders for
"the flags shown above".
"""

import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = {
    "README.md": ROOT / "README.md",
    "SKILL.md": ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
}
#: Where a shell command stops being the CLI's argument list.
SHELL_STOPS = {"|", "&", "&&", ";", ">", ">>", "2>&1"}


def doc_commands(path):
    """``(line number, command text)`` of every prompt line running the CLI."""
    lines = path.read_text(encoding="utf-8").splitlines()
    index = 0
    while index < len(lines):
        number, text = index + 1, lines[index].strip()
        while text.endswith("\\") and index + 1 < len(lines):
            index += 1
            text = text[:-1] + " " + lines[index].strip()
        if text.startswith("$ ") and "python -m repro" in text:
            yield number, text[2:]
        index += 1


def cli_arguments(command):
    """The argument list ``python -m repro`` receives in ``command``."""
    tokens = shlex.split(command, comments=True)
    start = tokens.index("-m") + 2
    assert tokens[start - 1] == "repro", command
    arguments = []
    for token in tokens[start:]:
        if token in SHELL_STOPS:
            break
        if token != "…":
            arguments.append(token)
    return arguments


CASES = [
    pytest.param(path, number, command, id=f"{name}:{number}")
    for name, path in DOCS.items()
    for number, command in doc_commands(path)
]


def test_the_docs_show_commands():
    per_doc = {
        name: sum(1 for _ in doc_commands(path)) for name, path in DOCS.items()
    }
    assert per_doc["README.md"] >= 18, per_doc
    assert per_doc["SKILL.md"] >= 1, per_doc


@pytest.mark.parametrize(("path", "number", "command"), CASES)
def test_a_documented_command_parses(path, number, command, capsys):
    try:
        build_parser().parse_args(cli_arguments(command))
    except SystemExit:
        error = capsys.readouterr().err.strip().splitlines()[-1]
        pytest.fail(f"{path.name}:{number}: {command!r} does not parse: {error}")


class TestExtraction:
    def test_continuations_comments_and_shell_are_dropped(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "text\n"
            "$ PYTHONPATH=src python -m repro grid run --store s \\\n"
            "    --seeds 1 2 … &   # first\n"
            "$ python -m repro info | head\n"
            "$ python3 bench/run.py --workload idle_6k\n"
            "python -m repro no-prompt\n",
            encoding="utf-8",
        )
        commands = list(doc_commands(doc))
        assert [number for number, _ in commands] == [2, 4]
        assert [cli_arguments(command) for _, command in commands] == [
            ["grid", "run", "--store", "s", "--seeds", "1", "2"],
            ["info"],
        ]

    def test_a_removed_flag_fails(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                cli_arguments("python -m repro grid run --store s --backend sqlite")
            )
