"""The study scripts run end to end at desk scale."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args, outputs", [
    ("frequency_study.py", ["--grids", "20", "--points", "5", "--out", "{tmp}/freq"],
     ["freq/sweep_n20.dat", "freq/kernel_i0.dat", "freq/kernel_i1.dat",
      "freq/denominator.dat"]),
    ("gain_study.py", ["--n", "20", "--points", "5", "--out", "{tmp}/gain.csv"],
     ["gain.csv"]),
    ("ref_report.py", ["--n", "20"], []),
], ids=["frequency_study", "gain_study", "ref_report"])
def test_script_runs(tmp_path, script, args, outputs):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *(a.format(tmp=tmp_path) for a in args)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        assert (tmp_path / name).is_file(), name
