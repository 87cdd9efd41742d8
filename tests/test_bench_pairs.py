"""tools/bench_pairs.py: pair summaries and the source digest of each side."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def run(**values):
    return {
        "result": {"metrics": {name: {"value": v} for name, v in values.items()}, "correct": True},
        "passes": 3,
        "failed_checks": [],
        "env": {"cpus": 2},
        "steal_share": None,
    }


def pair(parent, change, first="parent"):
    return {"first": first, "parent": parent, "change": change}


def test_ties_count_for_neither_side():
    pairs = [pair(run(wall_s=1.0), run(wall_s=1.0)), pair(run(wall_s=1.0), run(wall_s=0.5), "change")]
    summary = bench_pairs.summarize(pairs, {"wall_s": "lower"})
    assert summary["change_wins"] == {"wall_s": 1}
    assert summary["pairs"] == 2
    assert summary["first"] == ["parent", "change"]


@pytest.mark.parametrize("better, wins", [("lower", 1), ("higher", 2)])
def test_better_sets_the_direction(better, wins):
    pairs = [pair(run(m=1.0), run(m=2.0)), pair(run(m=1.0), run(m=3.0)), pair(run(m=1.0), run(m=0.5))]
    assert bench_pairs.summarize(pairs, {"m": better})["change_wins"] == {"m": wins}


def test_a_missing_metric_is_skipped():
    pairs = [pair(run(wall_s=2.0), run(wall_s=1.0, flows_per_s=9.0)), pair(run(wall_s=2.0), run(wall_s=1.5))]
    summary = bench_pairs.summarize(pairs, {"wall_s": "lower", "flows_per_s": "higher", "peak_rss_mb": "lower"})
    assert summary["change_wins"] == {"wall_s": 2, "flows_per_s": 0, "peak_rss_mb": 0}
    parent, change = summary["sides"]["parent"]["metrics"], summary["sides"]["change"]["metrics"]
    assert set(parent) == {"wall_s"}
    assert set(change) == {"wall_s", "flows_per_s"}
    assert change["flows_per_s"] == {"median": 9.0, "q1": 9.0, "q3": 9.0, "n": 1, "values": [9.0]}
    assert change["wall_s"]["values"] == [1.0, 1.5]


def test_src_digest_tells_apart_sources_at_one_head(tmp_path):
    sides = []
    for name, body in (("a", b"x = 1\n"), ("b", b"x = 1\n"), ("c", b"x = 2\n")):
        pkg = tmp_path / name / "src" / "c2lab"
        pkg.mkdir(parents=True)
        (pkg / "sim.py").write_bytes(body)
        (pkg / "notes.txt").write_bytes(name.encode())  # only *.py counts
        sides.append(bench_pairs.source_sha256(tmp_path / name))
    assert sides[0] == sides[1] != sides[2]


def test_steal_share_reads_the_aggregate_cpu_line():
    before = "cpu  100 5 50 800 10 0 5 30 7 0\ncpu0 50 2 25 400 5 0 2 15 3 0\n"
    after = "cpu  160 5 70 1500 10 0 5 50 9 0\ncpu0 80 2 35 750 5 0 2 25 4 0\n"
    # guest (the ninth field) is inside user: totals are 1000 and 1800
    assert bench_pairs.cpu_ticks(before) == (30, 1000)
    assert bench_pairs.steal_share(bench_pairs.cpu_ticks(before), bench_pairs.cpu_ticks(after)) == 20 / 800
    assert bench_pairs.cpu_ticks("cpu0 1 2 3 4 5 6 7 8\n") is None  # no aggregate line
    assert bench_pairs.cpu_ticks("cpu  1 2 3\n") is None  # a kernel without a steal field
    assert bench_pairs.steal_share(None, bench_pairs.cpu_ticks(after)) is None
    pairs = [pair(run(wall_s=1.0) | {"steal_share": 0.25}, run(wall_s=1.0))]
    sides = bench_pairs.summarize(pairs, {"wall_s": "lower"})["sides"]
    assert (sides["parent"]["steal_share"], sides["change"]["steal_share"]) == ([0.25], [None])
