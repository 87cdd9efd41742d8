"""tools/peak_rss.py: the peak RSS of a command's process tree."""

import os
import subprocess
import sys
from pathlib import Path

import c2lab

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "peak_rss.py"


def test_a_child_that_allocates_64_mb_reads_at_least_64_mb():
    # the bytes are written, so every page is resident
    child = [sys.executable, "-c", "block = b'x' * (64 << 20)"]
    done = subprocess.run([sys.executable, str(_TOOL), *child], capture_output=True, text=True, check=True)
    last = done.stdout.splitlines()[-1]
    assert last.startswith("peak_rss_mb: ")
    assert 64 <= float(last.split()[1]) < 128


def test_a_report_reads_its_reaped_stage_workers():
    # the command's own process peaks near 40 MB; a tiny report's stage worker near 90 MB
    src = str(Path(c2lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    report = [sys.executable, "-m", "c2lab.cli", "report", "--scale", "tiny"]
    done = subprocess.run(
        [sys.executable, str(_TOOL), *report], env=env, capture_output=True, text=True, check=True, timeout=600
    )
    assert float(done.stdout.splitlines()[-1].split()[1]) >= 70
