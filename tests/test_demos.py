"""Every demo runs as a script, the way a reader runs it."""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(name):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_blocks_and_correction_demo_runs():
    out = _run_demo("blocks_and_correction.py")
    line = re.search(r"sum Y_j = (\S+), S_n = (\S+), telescoping residual (\S+)", out)
    assert line is not None, out
    assert line[1] == line[2]
    assert abs(float(line[3])) <= 1e-8


def test_clt_and_modulus_demo_runs():
    # modulus_experiment runs at 50k points here, across several grid blocks
    out = _run_demo("clt_and_modulus.py")
    for m in (6, 9):
        assert re.search(rf"increments h=r\^-{m}, .*KS = \S+ -> pass", out), out


def test_evaluate_fractal_demo_runs():
    out = _run_demo("evaluate_fractal.py")
    assert "eps=1e-16 refused" in out, out


def test_lil_bands_demo_runs():
    out = _run_demo("lil_bands.py")
    assert re.search(r"coverage of \[-0\.9, 0\.9\]: \S+", out), out
    band = re.search(r"ceiling 1\.905: walk (\S+), oracle (\S+) in band", out)
    assert band is not None, out
    assert min(float(band[1]), float(band[2])) >= 0.95
    gap = re.search(r"median gap (\S+) \(tolerance (\S+)\)", out)
    assert gap is not None, out
    assert float(gap[1]) <= float(gap[2])


def test_walk_moments_demo_runs():
    out = _run_demo("walk_moments.py")
    # weights 1,0,1,0,...: s_n^2 / ceil(n/2) -> (1 + alpha^2) / (1 - alpha^2)
    ratio = re.search(r"n= 10000: s_n\^2/ceil\(n/2\) = (\S+)", out)
    assert ratio is not None, out
    assert abs(float(ratio[1]) - 5.0 / 3.0) <= 1e-3


def test_cli_tour_demo_runs():
    out = _run_demo("cli_tour.py")
    runs = re.findall(r"^(\w+)/[0-9a-f]{12}: experiment=\1, passed=True$", out, re.M)
    assert sorted(runs) == ["blocks", "clt", "eval"], out
