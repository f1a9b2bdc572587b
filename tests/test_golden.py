"""Golden CLI transcripts.

Each file under golden/ records one command line, its exit code, and its
exact stdout and stderr; the *.help.txt files hold every subcommand's
--help at 80 columns. The test replays the command through
`knotsum.cli.main` in-process and compares the rendered transcript byte
for byte. The files are not regenerated by any tool: edit one by hand
only for an intended output change, and record that change in
CHANGES.md.
"""

import difflib
import shlex
from pathlib import Path

import pytest

from knotsum.cli import main

GOLDEN = Path(__file__).parent / "golden"
TRANSCRIPTS = sorted(GOLDEN.glob("*.txt"))
PROMPT = "$ knotsum "
README = Path(__file__).parent.parent / "README.md"


def _argv(transcript: str) -> list[str]:
    first_line = transcript.split("\n", 1)[0]
    assert first_line.startswith(PROMPT), first_line
    return shlex.split(first_line[len(PROMPT):])


def _render(argv: list[str], code: int, out: str, err: str) -> str:
    return f"{PROMPT}{shlex.join(argv)}\nexit {code}\n--- stdout\n{out}--- stderr\n{err}"


@pytest.mark.parametrize("path", TRANSCRIPTS, ids=lambda p: p.stem)
def test_cli_transcript(path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the width --help wraps at
    expected = path.read_bytes().decode("utf-8")
    argv = _argv(expected)
    code = main(argv)
    captured = capsys.readouterr()
    actual = _render(argv, code, captured.out, captured.err)
    if actual != expected:
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=f"golden/{path.name}",
            tofile="actual",
        ))
        pytest.fail(f"transcript differs from golden/{path.name}:\n{diff}")


def test_readme_examples_have_transcripts():
    recorded = {tuple(_argv(p.read_text())) for p in TRANSCRIPTS}
    examples = [
        shlex.split(line[len(PROMPT):], comments=True)
        for line in README.read_text().splitlines()
        if line.startswith(PROMPT)
    ]
    assert examples
    for argv in examples:
        for fmt in ("human", "structured"):
            assert (*argv, "--format", fmt) in recorded, (argv, fmt)
