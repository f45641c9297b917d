"""The demos run as scripts, the way a reader runs them."""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_blocks_and_correction_demo_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "blocks_and_correction.py")],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    line = re.search(
        r"sum Y_j = (\S+), S_n = (\S+), telescoping residual (\S+)", proc.stdout
    )
    assert line is not None, proc.stdout
    assert line[1] == line[2]
    assert abs(float(line[3])) <= 1e-8
