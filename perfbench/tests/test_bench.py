"""The benchmark's checks catch real faults; its span arithmetic is exact.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from c2lab import cli, sim
import layers
import run
from spans import Recorder, Span, self_times
from workloads import WORKLOADS, Checks, capture_inputs, check_capture, check_report

BENCH = Path(__file__).resolve().parent.parent


def test_self_time_subtracts_merged_child_intervals():
    spans = [
        Span("root", 0.0, 10.0, None, "0"),
        Span("a", 1.0, 4.0, 0, "0"),
        Span("b", 3.0, 6.0, 0, "0"),  # overlaps a: together they cover 1..6
        Span("a.child", 2.0, 3.0, 1, "0"),
        Span("late", 9.0, 12.0, 0, "0"),  # only 9..10 lies inside root
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_recorder_links_nested_spans_to_their_parent():
    rec = Recorder()
    rec.start_pass("7")
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    outer, inner = rec.spans
    assert (outer.parent, inner.parent, inner.pass_id) == (None, 0, "7")
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_capture_check_catches_one_flipped_record_size(tmp_path):
    inputs = capture_inputs(seed=3, per_kind=10)
    good = tmp_path / "good.pcap"
    sim.emit_pcap(good, inputs.conn_records, inputs.cfg, seed=3)
    checks = Checks()
    assert len(check_capture(good, inputs, checks)) == len(inputs.conn_records)
    assert checks.attempted > 0 and checks.failed == []

    records = list(inputs.conn_records)
    (t, direction, size), *rest = records[0]
    records[0] = ((t, direction, size + 16), *rest)  # one cipher block more
    flipped = tmp_path / "flipped.pcap"
    sim.emit_pcap(flipped, records, inputs.cfg, seed=3)
    checks = Checks()
    check_capture(flipped, inputs, checks)
    assert checks.failed == ["extracted records and features equal the simulated ones"]


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory) -> bytes:
    out = tmp_path_factory.mktemp("report")
    assert cli.main(["report", "--scale", "tiny", "--seed", "1", "--out", str(out)]) == 0
    return (out / "report.json").read_bytes()


def test_report_check_accepts_a_real_report(tiny_report):
    checks = Checks()
    assert check_report(tiny_report, tiny_report, checks) is not None
    assert checks.attempted == 2 and checks.failed == []


def test_report_check_catches_one_perturbed_byte(tiny_report):
    at = tiny_report.index(b'"baseline_accuracy": ') + len(b'"baseline_accuracy": ') + 2
    perturbed = bytearray(tiny_report)
    perturbed[at] = ord("1") if perturbed[at] != ord("1") else ord("2")
    checks = Checks()
    assert check_report(bytes(perturbed), tiny_report, checks) is not None  # still valid JSON
    assert checks.failed == ["report.json byte-identical across passes"]


def test_report_check_catches_a_missing_stage(tiny_report):
    report = json.loads(tiny_report)
    del report["overhead"]
    checks = Checks()
    assert check_report(json.dumps(report).encode(), None, checks) is None
    assert checks.failed == ["report has every stage's keys"]


def test_benchmark_json_declares_the_metrics_the_runner_prints():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    per_pass = [name for name, _unit in layers.PER_LAYER if name != "trace.overhead_ratio"]
    assert list(layers.pass_metrics([], [], {})) == per_pass


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "capture-roundtrip", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
