"""`tools/ab_points.py` run A/A on this checkout with tiny counts."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_a_checkout_against_itself():
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "tools/ab_points.py",
         "--parent", ".", "--change", ".", "--rounds", "2", "--points", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.startswith("2 rounds of 2 points a loop")
    assert [row.split()[0] for row in rows] == ["semi_qll", "ma2_s", "weak_iv_split"]
    for row in rows:
        # a ratio with its quartiles, wins over the two rounds, and equal statistics
        assert re.search(r" x\d+\.\d{3} \[\d+\.\d{3}, \d+\.\d{3}\]  (\d):(\d):(\d)  ", row)
        assert sum(map(int, re.search(r"  (\d):(\d):(\d)  ", row).groups())) == 2
        assert row.endswith("same statistics")
