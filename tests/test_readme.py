"""Every command line the README shows is one the CLI still accepts.

Each line that starts with ``catstego `` inside a fenced code block is
split like a shell would, without its trailing ``# comment``, and parsed,
not run, with the CLI's own parser, so a removed command or option left in
the docs fails here.
"""

import shlex
from pathlib import Path

import pytest

from catstego.cli import _PARSER

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    in_block = False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("catstego "):
            yield line


def test_readme_commands_parse():
    commands = list(_readme_commands())
    assert commands
    for command in commands:
        try:
            _PARSER.parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command refused by the parser: {command}")
