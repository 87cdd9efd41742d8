#!/usr/bin/env python3
"""c2lab benchmark: one workload, one closed-loop client, one pass at a time.

Run from the repository root:

    python3 perfbench/run.py --workload report-small --seed 1 --seconds 15 --trace 0

Set-up imports c2lab and builds the workload's inputs from the seed; it is
repeated SETUP_REPEATS times and the median is reported as setup_s. Passes
then run back to back with the same inputs until --seconds have elapsed, and
at least MIN_PASSES of them, because the determinism checks compare passes.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced passes and reports the per-layer metrics, including the traced
passes' wall time over the untraced ones' as trace.overhead_ratio.

Every line but the last is for people. The last line of standard output is
the result as one JSON object. The environment, pass times, failed checks
and (when traced) every span are also written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_PASSES = 2
SETUP_REPEATS = 5
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("flows_per_s", "1/s"), ("peak_rss_mb", "MB"))
WORKLOAD_NAMES = ("report-small", "evade-replay", "capture-roundtrip")

# A fresh interpreter's import of every c2lab module, timed from inside it.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import c2lab.cli, c2lab.extract; "
    "print(time.perf_counter() - t)"
)


def import_c2lab() -> None:
    """Import c2lab from this checkout's src/ or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import c2lab
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import c2lab from {SRC}: {exc}")
    if Path(c2lab.__file__).resolve().parent != SRC / "c2lab":
        raise SystemExit(f"perfbench: c2lab resolved to {c2lab.__file__}, not to {SRC}")


def import_seconds() -> float:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy bundles, if it bundles one."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    """What a result depends on besides the code, so set-ups are never mixed up."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "c2lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    import_c2lab()
    import layers
    from spans import Recorder
    from workloads import WORKLOADS, Checks

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        rec = Recorder()
        checks = Checks()
        cls = WORKLOADS[args.workload]

        setup_times = []
        if args.trace:
            rec.start_pass("setup")
            patches = layers.install(rec)
            try:
                workload = cls(args.seed, workdir, rec)
            finally:
                patches.restore()
        else:
            for _ in range(SETUP_REPEATS):
                imported = import_seconds()
                t = perf_counter()
                workload = cls(args.seed, workdir, rec)
                setup_times.append(imported + perf_counter() - t)

        walls: dict[bool, list[float]] = {False: [], True: []}
        rates: list[float] = []
        pass_counts: dict[str, dict[str, float]] = {}
        start = perf_counter()
        index = 0
        while index < MIN_PASSES or perf_counter() - start < args.seconds:
            traced = bool(args.trace) and index % 2 == 1
            rec.start_pass(str(index))
            patches = layers.install(rec) if traced else None
            raised = False
            t = perf_counter()
            try:
                flows = workload.run_pass(index, checks)
            except Exception:
                traceback.print_exc()
                raised = True
                flows = 0
            finally:
                wall = perf_counter() - t
                if patches is not None:
                    patches.restore()
            walls[traced].append(wall)
            if traced:
                pass_counts[str(index)] = dict(rec.counts)
            else:
                rates.append(flows / wall)
            index += 1
            if raised:
                checks.expect(f"pass {index - 1} raised no error", False)
                break

        env = environment(args.seed)
        if args.trace:
            ratio = statistics.median(walls[True]) / statistics.median(walls[False]) if walls[True] else 0.0
            values = layers.layer_metrics(rec, pass_counts, ratio) if pass_counts else {}
            units = dict(layers.PER_LAYER)
        else:
            values = {
                "setup_s": statistics.median(setup_times),
                "wall_s": statistics.median(walls[False]),
                "flows_per_s": statistics.median(rates),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = dict(END_TO_END)
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units if name in values}
        result = {
            "correct": not checks.failed,
            "attempted": checks.attempted,
            "failed": len(checks.failed),
            "metrics": metrics,
        }

        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
        print("env " + json.dumps(env, sort_keys=True))
        print(f"passes: {len(walls[False])} untraced, {len(walls[True])} traced")
        if not args.trace:
            print(f"setup_s: {values['setup_s']:.6g} s (median of {SETUP_REPEATS} set-ups; {spread(setup_times)})")
            print(f"wall_s: {values['wall_s']:.6g} s (median pass; {spread(walls[False])})")
            print(f"flows_per_s: {values['flows_per_s']:.6g} 1/s (median pass; {spread(rates)})")
            print(f"peak_rss_mb: {values['peak_rss_mb']:.6g} MB")
        else:
            for name, metric in metrics.items():
                print(f"{name}: {metric['value']:.6g} {metric['unit']}")
        print(f"fail_ratio: {len(checks.failed) / max(1, checks.attempted):.6g} ({len(checks.failed)} of {checks.attempted} checks failed)")
        for name in checks.failed:
            print(f"failed: {name}")

        record = {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "env": env,
            "result": result,
            "failed_checks": checks.failed,
            "setup_times": setup_times,
            "untraced_walls": walls[False],
            "traced_walls": walls[True],
        }
        if args.trace:
            record["pass_counts"] = pass_counts
            record["spans"] = [s.to_dict() for s in rec.spans]
        with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(record, fh)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
