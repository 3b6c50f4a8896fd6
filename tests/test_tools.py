"""The scripts under tools/ run."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_stage_times_one_round_one_config():
    proc = subprocess.run([sys.executable, str(TOOLS / "stage_times.py"), "--configs",
                           "toeplitz4", "--sizes", "2", "--blocks", "1", "--rounds", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, rule, row = proc.stdout.splitlines()
    assert header == "| config | B | draw | rank | sums | PLE | one-step | total |"
    assert rule == "|---|---|---|---|---|---|---|---|"
    cells = row.strip("|").split("|")
    assert [cell.strip() for cell in cells[:2]] == ["toeplitz4", "2"]
    assert len(cells) == 8 and all(float(cell) >= 0.0 for cell in cells[2:])
