"""Smoke tests: every script in demos/ runs to completion and prints output."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path: Path) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(path)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    return proc.stdout


def test_demos_found():
    assert {p.name for p in DEMOS} >= {"certificates.py", "interrogate.py", "moment_sums.py",
                                      "norm_scaling.py"}


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    run_demo(path)


def test_moment_sums_demo_values():
    out = run_demo(ROOT / "demos" / "moment_sums.py")
    lines = [line for line in out.splitlines() if line.lstrip().startswith("T=")]
    assert len(lines) == 4
    for line in lines:
        match = re.fullmatch(r"\s*T=\d+: (\S+) \(B\^2/2\^n = (\S+)\)", line)
        assert match and Fraction(match[1]) == Fraction(match[2]), line
    assert re.search(r"evenness spot check.*: all matched$", out, re.M)
