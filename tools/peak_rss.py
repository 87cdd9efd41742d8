#!/usr/bin/env python3
"""Run a command and print the largest peak RSS in its process tree.

    python3 tools/peak_rss.py python3 -m c2lab.cli report --out results/

The command runs as a child with the caller's stdin, stdout and stderr.
When it exits, getrusage(RUSAGE_CHILDREN) gives the largest peak resident
set of any process in the child's tree that was waited for: the child
itself, or a worker it started and reaped.
That is one process's high-water mark, not a sum over processes running at
once. The last line printed is ``peak_rss_mb: <MB>`` (MB = 1,048,576
bytes, as perfbench reports it), and the exit status is the child's.
"""

from __future__ import annotations

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    status = subprocess.run(argv).returncode
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
    print(f"peak_rss_mb: {peak_kib / 1024:.1f}", flush=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
