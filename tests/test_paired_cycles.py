"""The in-process pair timer, run on this tree against itself for a few cycles."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "paired_cycles.py"


def test_paired_cycles_of_the_tree_against_itself(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), "--workload", "modewise_ladder", "--pairs", "3"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4
    for line, side in zip(lines, ("parent", "this")):
        assert re.fullmatch(rf"{side}: median cycle \d+\.\d{{3}} ms, IQR \d+\.\d{{3}} ms", line)
    assert re.fullmatch(r"median ratio parent/this \d+\.\d{4} over 3 pairs", lines[2])
    led = re.fullmatch(r"this tree led (\d) pairs, the parent (\d)", lines[3])
    assert led and int(led[1]) + int(led[2]) <= 3
    assert list(tmp_path.iterdir()) == []  # its work files go to a temporary directory
