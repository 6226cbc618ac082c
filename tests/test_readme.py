"""Every command line and every Python example the README shows still works.

Each line that starts with ``catstego `` inside a fenced code block is
split like a shell would, without its trailing ``# comment``, and parsed,
not run, with the CLI's own parser, so a removed command or option left in
the docs fails here. The lines that need no input file (``keygen`` and
``period``) are also run, so a bad number in them fails too. Each
```` ```python ```` block is run, in a directory that holds the 128x128
``cover.pgm`` and ``secret.pbm`` the examples read. The example key under
"Key file format" is parsed with ``parse_key``. Each ``python scripts/``
line is run in a temporary directory with ``--side 16`` appended, so a
deleted or renamed script left in the docs fails too.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from catstego.cli import _PARSER, main
from catstego.netpbm import write_binary, write_gray
from catstego.schedule import parse_key
from catstego.synth import natural_binary, natural_gray

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _readme_blocks():
    """(info string, lines) of each fenced code block, in order."""
    block = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if block is None and line.startswith("```"):
            info, block = line[3:].strip(), []
        elif block is not None and line.startswith("```"):
            yield info, block
            block = None
        elif block is not None:
            block.append(line)


def _readme_commands():
    for _, lines in _readme_blocks():
        yield from (line for line in lines if line.startswith("catstego "))


def test_readme_commands_parse():
    commands = list(_readme_commands())
    assert commands
    for command in commands:
        try:
            _PARSER.parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command refused by the parser: {command}")


def test_readme_key_commands_run(tmp_path, monkeypatch, capsys):
    commands = [shlex.split(c, comments=True)[1:] for c in _readme_commands()]
    runnable = [argv for argv in commands if argv[0] in ("keygen", "period")]
    assert {argv[0] for argv in runnable} == {"keygen", "period"}
    monkeypatch.chdir(tmp_path)
    for argv in runnable:
        assert main(argv) == 0, f"README command failed: catstego {' '.join(argv)}"
    assert capsys.readouterr().err == ""


def test_readme_scripts_run(tmp_path):
    commands = [shlex.split(line, comments=True) for _, lines in _readme_blocks()
                for line in lines if line.startswith("python scripts/")]
    assert commands
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for _, script, *args in commands:
        done = subprocess.run(
            [sys.executable, str(ROOT / script), *args, "--side", "16"],
            cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, f"README command failed: python {script} {' '.join(args)}\n{done.stderr}"


def test_readme_python_examples_run(tmp_path, monkeypatch):
    examples = ["\n".join(lines) for info, lines in _readme_blocks() if info == "python"]
    assert examples
    write_gray(tmp_path / "cover.pgm", natural_gray(128, seed=1))
    write_binary(tmp_path / "secret.pbm", natural_binary(128, seed=2))
    monkeypatch.chdir(tmp_path)
    for code in examples:
        exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})


def test_readme_key_example_parses():
    section = README.read_text(encoding="utf-8").split("\n## Key file format\n", 1)[1]
    key = section.split("```\n", 2)[1]  # the section's first fenced block
    sched, planes = parse_key(key)
    assert sched == (128, (("ROWFIRST", 5, 51), ("COLFIRST", 2, 5)), (1, 0))
    assert planes == [0, 1, 2]
