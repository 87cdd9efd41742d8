#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs, summarized as one JSON file.

Runs the unchanged ``perfbench/run.py --trace 0`` of two checkouts, one
after the other, for each workload, seed and pair, alternating which side
runs first. Each side runs its own ``perfbench/run.py`` from its own
directory, so each measures its own ``src/``. Run from anywhere:

    python3 tools/bench_pairs.py --parent ../parent-checkout \\
        --workload capture-roundtrip --seeds 1 2 --pairs 10 --seconds 30 \\
        --out BENCH.json

The output holds, per workload and seed, each side's median, q1 and q3 of
every end-to-end metric, its pass counts and failed checks, the ``env``
line of its first run, and how many pairs the change won per metric
(``better`` taken from the change's BENCHMARK.json). ``commits`` holds each
side's HEAD and the sha256 of its ``src/c2lab/*.py`` (``source_sha256``), so
an uncommitted change is told apart from its parent. ``steal_share`` lists,
per run, the share of the machine's CPU ticks that the hypervisor stole while
it ran (from the ``cpu`` line of /proc/stat, None where that cannot be read):
a noisy neighbour shows there before it shows as spread. Every run's values are
kept too, so a summary can be recomputed. If --out exists, its other
workloads and seeds are kept, so workloads can be run with different
seeds and pair counts into one file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
PASSES = re.compile(r"^passes: (\d+) untraced, (\d+) traced$")


def cpu_ticks(stat: str) -> tuple[int, int] | None:
    """(steal, total) ticks of the aggregate ``cpu`` line of /proc/stat text, or None if it has none.

    guest and guest_nice are already counted in user and nice, so the total
    sums the eight fields from user to steal.
    """
    for line in stat.splitlines():
        fields = line.split()
        if fields[:1] == ["cpu"] and len(fields) >= 9 and all(f.isdigit() for f in fields[1:9]):
            ticks = [int(f) for f in fields[1:9]]
            return ticks[7], sum(ticks)
    return None


def read_cpu_ticks() -> tuple[int, int] | None:
    try:
        return cpu_ticks(Path("/proc/stat").read_text())
    except OSError:
        return None


def steal_share(before: tuple[int, int] | None, after: tuple[int, int] | None) -> float | None:
    """Stolen ticks over all ticks between two cpu_ticks readings; None without both or without elapsed ticks."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its result, env line, pass count, failed checks and steal share."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    before = read_cpu_ticks()
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    after = read_cpu_ticks()
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {done.returncode}\n{done.stderr[-2000:]}")
    run = {
        "result": json.loads(lines[-1]),
        "env": None,
        "passes": None,
        "failed_checks": [],
        "steal_share": steal_share(before, after),
    }
    for line in lines[:-1]:
        if line.startswith("env "):
            run["env"] = json.loads(line[4:])
        elif line.startswith("failed: "):
            run["failed_checks"].append(line[8:])
        elif match := PASSES.match(line):
            run["passes"] = int(match.group(1))
    return run


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    sides = {}
    for side in ("parent", "change"):
        runs = [pair[side] for pair in pairs]
        metrics = {}
        for name in better:
            values = [run["result"]["metrics"][name]["value"] for run in runs if name in run["result"]["metrics"]]
            if values:
                metrics[name] = quartiles(values) | {"values": values}
        sides[side] = {
            "metrics": metrics,
            "passes": [run["passes"] for run in runs],
            "steal_share": [run["steal_share"] for run in runs],
            "failed_checks": sorted({name for run in runs for name in run["failed_checks"]}),
            "failed_runs": sum(not run["result"]["correct"] for run in runs),
            "env": runs[0]["env"],
        }
    wins = {}
    for name, direction in better.items():
        won = 0
        for pair in pairs:
            old = pair["parent"]["result"]["metrics"].get(name, {}).get("value")
            new = pair["change"]["result"]["metrics"].get(name, {}).get("value")
            if old is not None and new is not None and new != old:
                won += (new < old) == (direction == "lower")
        wins[name] = won
    return {"sides": sides, "change_wins": wins, "pairs": len(pairs), "first": [pair["first"] for pair in pairs]}


def source_sha256(checkout: Path) -> str:
    """sha256 of a checkout's src/c2lab/*.py, the digest perfbench/run.py's env line calls source_sha256."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "c2lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_state(checkout: Path) -> dict:
    """HEAD of a checkout, whether its src/ differs from HEAD, and the digest of
    the package source it ran, which tells two sides apart even at one HEAD."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=checkout, capture_output=True, text=True)
    state = {"commit": None, "src_modified": None, "source_sha256": source_sha256(checkout)}
    if head.returncode == 0:
        state |= {"commit": head.stdout.strip(), "src_modified": bool(status.stdout.strip())}
    return state


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=HERE, help="checkout of the change (default: this one)")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}

    report = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    report["commits"] = {side: git_state(path) for side, path in checkouts.items()}
    for workload in args.workload:
        per_seed = report["workloads"].setdefault(workload, {})
        for seed in args.seeds:
            pairs = []
            for index in range(args.pairs):
                order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_side(checkouts[side], workload, seed, args.seconds)
                    wall = pair[side]["result"]["metrics"]["wall_s"]["value"]
                    print(f"{workload} seed {seed} pair {index} {side}: wall_s {wall:.4f}", flush=True)
                pairs.append(pair)
            per_seed[str(seed)] = summarize(pairs, better) | {"seconds": args.seconds}
            args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
