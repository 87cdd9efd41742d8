"""tools/peak_rss.py: the peak RSS of a command's process tree."""

import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "peak_rss.py"


def test_a_child_that_allocates_64_mb_reads_at_least_64_mb():
    # the bytes are written, so every page is resident
    child = [sys.executable, "-c", "block = b'x' * (64 << 20)"]
    done = subprocess.run([sys.executable, str(_TOOL), *child], capture_output=True, text=True, check=True)
    last = done.stdout.splitlines()[-1]
    assert last.startswith("peak_rss_mb: ")
    assert 64 <= float(last.split()[1]) < 128
