"""Each experiment script runs to completion on a small side, and the
paper report's numbers are the ones the library and the closed form give.

The scripts are not part of the package, so nothing else imports them; this
runs each one as a user would, in its own process with the package on
``PYTHONPATH``, writing only into a temporary directory.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from catstego.arnold import period

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
REPORT = ROOT / "scripts" / "paper_report.py"

# paper_report.py replaced psnr_table.py and period_sweep_report.py; each of
# their names runs the report with the options only that script took.
REPLACED = [
    ("psnr_table.py", ["--covers", "1", "--seed", "5"]),
    ("period_sweep_report.py", ["--lo", "3", "--hi", "9", "--outdir", "csv"]),
]
RUNS = [(s, []) for s in SCRIPTS] + [(REPORT, args) for _, args in REPLACED]
RUN_IDS = [s.name for s in SCRIPTS] + [name for name, _ in REPLACED]


def _run(script, cwd, *args):
    """Run ``script --side 16 *args`` in ``cwd``, asserting exit status 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script), "--side", "16", *args],
        cwd=cwd, capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script, args", RUNS, ids=RUN_IDS)
def test_script_runs(script, args, tmp_path):
    _run(script, tmp_path, *args)


def test_paper_report_numbers(tmp_path):
    lines = _run(REPORT, tmp_path).stdout.splitlines()
    assert lines[0].split() == ["cover", "planes", "psnr", "dB", "closed", "form", "bits", "kept"]
    rows = [line.split() for line in lines[1:13]]
    assert [(int(c), int(k)) for c, k, *_ in rows] == [(c, k) for c in range(3) for k in (1, 2, 3, 4)]
    for _, k, _, closed, _ in rows:
        mse = 0.5 * sum(4**p for p in range(int(k)))
        assert closed == f"{10 * math.log10(255**2 / mse):.4f}"

    assert len(lines) == 13 + 6
    for family, (title, wrote, distinct) in zip(("ROWFIRST", "COLFIRST"), (lines[13:16], lines[16:19])):
        assert title == f"{family}: i=1..20, N=16"
        csv = Path("sweep_out") / f"periods_{family.lower()}_n16.csv"
        assert wrote == f"  wrote {csv}"
        table = (tmp_path / csv).read_text(encoding="ascii").splitlines()
        assert table == ["i,period"] + [f"{i},{period(family, i, 16)}" for i in range(1, 21)]
        assert distinct == f"  distinct periods: {sorted({int(row.split(',')[1]) for row in table[1:]})}"
