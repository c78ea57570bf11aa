"""README's Python examples run against the library as it is, and its CLI
examples parse."""

import re
import shlex
from pathlib import Path

import pytest

from memvec.harness import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, f"{README}:quick start", "exec"), {})
    assert "(0, 1.0" in capsys.readouterr().out  # the query's own row ranks first


def _cli_commands() -> list[list[str]]:
    """The ``memvec`` commands of the CLI section's sh block, continuation
    lines joined, each split into its arguments."""
    text = README.read_text()
    section = text[text.index("## CLI"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("memvec ")]


def test_cli_commands_parse():
    commands = _cli_commands()
    assert commands
    parser = cli.build_parser()
    written = set()
    for argv in commands:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: memvec {' '.join(argv)}")
        if args.cmd in ("build", "query", "eval"):
            # each file these read is written by an earlier command
            for dest in ("data", "queries", "index", "results", "gt"):
                path = getattr(args, dest, None)
                assert path in written or path is None, f"{path} is read before it is written"
        written.update((getattr(args, "out", None), getattr(args, "labels_out", None)))
