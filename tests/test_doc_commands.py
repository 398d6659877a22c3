"""Every CLI command the docs show parses with the CLI's own parser,
and every markdown file the source names exists.

A ``$ … python -m repro …`` line (``\\`` continuations joined) in
``README.md`` or the verify recipe (``.claude/skills/verify/SKILL.md``)
is a promise that the command runs, and so is a ``repro-locaware …``
example in ``repro.cli``'s docstring; a flag renamed or removed in
``repro.cli`` must take the doc line with it.  Shell around the command
is dropped before parsing: environment assignments, a trailing comment,
anything after a pipe, redirection or ``&``, and ``…`` placeholders for
"the flags shown above".
"""

import re
import shlex
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = {
    "README.md": ROOT / "README.md",
    "SKILL.md": ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
}
#: Where a shell command stops being the CLI's argument list.
SHELL_STOPS = {"|", "&", "&&", ";", ">", ">>", "2>&1"}


def joined_lines(text):
    """``(line number, stripped line)``, ``\\`` continuations joined."""
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        number, line = index + 1, lines[index].strip()
        while line.endswith("\\") and index + 1 < len(lines):
            index += 1
            line = line[:-1] + " " + lines[index].strip()
        yield number, line
        index += 1


def doc_commands(path):
    """``(line number, command text)`` of every prompt line running the CLI."""
    for number, line in joined_lines(path.read_text(encoding="utf-8")):
        if line.startswith("$ ") and "python -m repro" in line:
            yield number, line[2:]


def docstring_examples():
    """``(line number, command text)`` of every example in the CLI's
    module docstring."""
    for number, line in joined_lines(repro.cli.__doc__):
        if line.startswith("repro-locaware "):
            yield number, line


def cli_arguments(command):
    """The argument list the CLI receives in ``command``, whether it is
    run as ``python -m repro`` or as ``repro-locaware``."""
    tokens = shlex.split(command, comments=True)
    if tokens[0] == "repro-locaware":
        start = 1
    else:
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
    pytest.param(name, number, command, id=f"{name}:{number}")
    for name, path in DOCS.items()
    for number, command in doc_commands(path)
] + [
    pytest.param("cli.py", number, command, id=f"cli.py:{number}")
    for number, command in docstring_examples()
]


def test_the_docs_show_commands():
    per_doc = {
        name: sum(1 for _ in doc_commands(path)) for name, path in DOCS.items()
    }
    assert per_doc["README.md"] >= 18, per_doc
    assert per_doc["SKILL.md"] >= 1, per_doc
    assert sum(1 for _ in docstring_examples()) >= 15


@pytest.mark.parametrize(("source", "number", "command"), CASES)
def test_a_documented_command_parses(source, number, command, capsys):
    try:
        build_parser().parse_args(cli_arguments(command))
    except SystemExit:
        error = capsys.readouterr().err.strip().splitlines()[-1]
        pytest.fail(f"{source}:{number}: {command!r} does not parse: {error}")


#: A markdown file named in a source file, and the section heading
#: quoted right after it, if any (``README.md "Store layout"``).
MD_REFERENCE = re.compile(r'([\w./-]+\.md)\b(?: "([^"]+)")?')


def source_md_references():
    """``(source file, markdown path, quoted heading or None)``."""
    for source in sorted((ROOT / "src").rglob("*.py")):
        for match in MD_REFERENCE.finditer(source.read_text(encoding="utf-8")):
            yield source.relative_to(ROOT), match.group(1), match.group(2)


def test_every_markdown_file_named_in_src_exists():
    references = list(source_md_references())
    assert references  # the scan finds the references it checks
    for source, name, heading in references:
        target = ROOT / name
        assert target.is_file(), f"{source} names {name}, which does not exist"
        if heading is not None:
            headings = {
                line.lstrip("#").strip()
                for line in target.read_text(encoding="utf-8").splitlines()
                if line.startswith("#")
            }
            assert heading in headings, f"{source}: no section {heading!r} in {name}"


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
