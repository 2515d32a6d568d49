"""The study scripts run end to end at desk scale, and what they write reads."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
CASES = {
    "gain_study.py": ["--n", "20", "--points", "5", "--out", "{tmp}/gain.csv"],
}


def test_every_script_has_a_case():
    assert sorted(CASES) == sorted(p.name for p in SCRIPTS.glob("*.py"))


@pytest.mark.parametrize("script", CASES, ids=[name[:-3] for name in CASES])
def test_script_runs(tmp_path, script):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *(a.format(tmp=tmp_path) for a in CASES[script])],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    if script == "gain_study.py":
        header, *rows = (tmp_path / "gain.csv").read_text(encoding="utf-8").splitlines()
        assert header == "chi3,margin,admissible,abscissa"
        assert len(rows) == 5
        for row in rows:
            chi3, margin, admissible, abscissa = row.split(",")
            float(chi3)
            assert admissible == ("true" if float(margin) > 0.0 else "false")
            if admissible == "true":
                float(abscissa)
            else:
                assert abscissa == ""
