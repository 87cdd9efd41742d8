"""Experiment harness: seeding, mode wiring, artifacts, overhead stage."""

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from c2lab import detector as det
from c2lab import harness
from c2lab.adversarial import StuffSide, plan_from_adversarial
from c2lab.harness import (
    MODE_PROVENANCES,
    NOT_CONFIG_KEYS,
    Artifacts,
    ExperimentConfig,
    attack_config,
    build_dataset,
    mode_for,
    report_bytes,
    run_full_experiment,
    run_overhead,
    seed_for,
)
from c2lab.model import Dataset, FeatureVector, Label, Provenance, write_rows
from c2lab.sim import (
    FIXED_REQ_PER_CONN,
    NAIVE_MODES,
    RAND_REQ_PER_CONN,
    STUFF_FIXED_BYTES,
    STUFF_RAND_BYTES,
    Adversarial,
    SimConfig,
    WebConfig,
)
from c2lab.sizing import TlsSizeModel


# ---------------------------------------------------------------------------
# seeding

def test_seed_for_deterministic():
    assert seed_for(7, "tm1-regular") == seed_for(7, "tm1-regular")


def test_seed_for_distinguishes_names_and_masters():
    seeds = {
        seed_for(7, "tm1-regular"),
        seed_for(7, "tm1-web"),
        seed_for(8, "tm1-regular"),
    }
    assert len(seeds) == 3


def test_seed_for_fits_int32():
    for master in (0, 7, 2**40):
        for name in ("a", "overhead-19", "tm2-eps0.05"):
            s = seed_for(master, name)
            assert 0 <= s < 2**31 - 1


# ---------------------------------------------------------------------------
# attack config

def test_attack_config_floors_follow_smallest_messages():
    ec = ExperimentConfig()
    cfg = attack_config(ec, 0.05)
    # smallest request 283-12=271 frames to 288, smallest response 171-4=167 to 192
    assert cfg.position_floors == (288, 192)
    assert cfg.epsilon == 0.05
    assert cfg.size_model == ec.sim.size_model


def test_attack_config_tracks_sim_overrides():
    from dataclasses import replace

    ec = ExperimentConfig()
    ec = replace(ec, sim=replace(ec.sim, url_jitter=0, response_jitter=0))
    cfg = attack_config(ec, 0.01)
    assert cfg.position_floors == (304, 192)  # framed(283), framed(171)


# ---------------------------------------------------------------------------
# provenance -> traffic mode

def test_mode_for_naive_modes():
    assert MODE_PROVENANCES is NAIVE_MODES
    for prov in NAIVE_MODES:
        assert mode_for(prov) is prov
    assert STUFF_FIXED_BYTES == 50
    assert STUFF_RAND_BYTES == (1, 1400)
    assert FIXED_REQ_PER_CONN == 3
    assert RAND_REQ_PER_CONN == (2, 6)


def _toy_plan():
    fv = FeatureVector.from_sizes([640, 480, 720, 512])
    return plan_from_adversarial(fv, StuffSide.TWO_SIDE)


def test_mode_for_adversarial_provenances():
    lib = (_toy_plan(),)
    for prov, side in (
        (Provenance.ADV_FRAMEWORK, StuffSide.FRAMEWORK_ONLY),
        (Provenance.ADV_PAYLOAD, StuffSide.PAYLOAD_ONLY),
        (Provenance.ADV_TWO_SIDE, StuffSide.TWO_SIDE),
    ):
        mode = mode_for(prov, lib)
        assert isinstance(mode, Adversarial)
        assert mode.side is side
        assert mode.library == lib


def test_mode_for_adversarial_requires_library():
    with pytest.raises(ValueError):
        mode_for(Provenance.ADV_TWO_SIDE)


def test_mode_for_rejects_web():
    with pytest.raises(ValueError, match="no traffic mode"):
        mode_for(Provenance.WEB)


# ---------------------------------------------------------------------------
# dataset assembly

SMALL = ExperimentConfig(master_seed=11)


def test_build_dataset_c2_labels():
    ds, flows = build_dataset(Provenance.REGULAR, 6, SMALL, "stage-x")
    assert len(ds) == 6
    assert all(s.label is Label.C2 for s in ds.samples)
    assert all(s.provenance is Provenance.REGULAR for s in ds.samples)
    assert len(flows.traces) == 6


def test_build_dataset_web_labels():
    ds, _ = build_dataset(Provenance.WEB, 5, SMALL, "stage-x")
    assert all(s.label is Label.NON_C2 for s in ds.samples)
    assert all(s.provenance is Provenance.WEB for s in ds.samples)


def test_build_dataset_deterministic_per_stage():
    a, _ = build_dataset(Provenance.RAND_REQ, 8, SMALL, "stage-x")
    b, _ = build_dataset(Provenance.RAND_REQ, 8, SMALL, "stage-x")
    c, _ = build_dataset(Provenance.RAND_REQ, 8, SMALL, "stage-y")
    mat = lambda d: np.stack([s.features.values for s in d.samples])
    assert np.array_equal(mat(a), mat(b))
    assert not np.array_equal(mat(a), mat(c))


# ---------------------------------------------------------------------------
# scaled copies

def test_scaled_applies_floors():
    tiny = ExperimentConfig().scaled(1e-9)
    assert tiny.n_train == 200
    assert tiny.n_test == 80
    assert tiny.n_eval == 80
    assert tiny.n_aware_regular == 100
    assert tiny.n_aware_randreq == 100
    assert tiny.n_adv_eval == 80
    assert tiny.overhead_runs == 3


def test_scaled_keeps_structure():
    base = ExperimentConfig()
    half = base.scaled(0.5)
    assert half.n_train == 3000
    assert half.epsilon_sweep == base.epsilon_sweep
    assert half.master_seed == base.master_seed
    assert half.sim == base.sim


# ---------------------------------------------------------------------------
# config schema

@pytest.mark.parametrize(
    "overrides, fragment",
    [
        ({"n_train": 0}, "n_train"),
        ({"n_test": -3}, "n_test"),
        ({"n_adv_eval": 2.5}, "n_adv_eval"),
        ({"n_eval": True}, "n_eval"),
        ({"overhead_runs": -1}, "overhead_runs"),
        ({"epsilon_sweep": ()}, "epsilon_sweep"),
        ({"epsilon_sweep": (0.01, 0.0)}, r"epsilon_sweep\[1\]"),
        ({"epsilon_sweep": (math.inf,)}, r"epsilon_sweep\[0\]"),
        ({"epsilon_sweep": (math.nan,)}, r"epsilon_sweep\[0\]"),
    ],
)
def test_experiment_config_names_out_of_range_field(overrides, fragment):
    with pytest.raises(ValueError, match=fragment):
        dataclasses.replace(ExperimentConfig(), **overrides)


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        ({"tail_p": 0.0}, "tail_p"),
        ({"tail_p": 1.5}, "tail_p"),
        ({"server_prob": -0.1}, "server_prob"),
        ({"full_record_prob": 1.2}, "full_record_prob"),
        ({"ack_prob": math.nan}, "ack_prob"),
        ({"upload_prob": 1.1}, "upload_prob"),
        ({"poll_prob": -0.5}, "poll_prob"),
        ({"upload_prob": 0.6, "poll_prob": 0.5}, r"upload_prob \+ poll_prob"),
        ({"gap_mean": -1.0}, "gap_mean"),
        ({"gap_mean": math.nan}, "gap_mean"),
        ({"request_sigma": -0.1}, "request_sigma"),
        ({"server_sigma": -1.0}, "server_sigma"),
        ({"client_sigma": -1.0}, "client_sigma"),
        ({"ack_sigma": -1.0}, "ack_sigma"),
        ({"upload_sigma": -1.0}, "upload_sigma"),
        ({"poll_req_sigma": -1.0}, "poll_req_sigma"),
        ({"poll_resp_sigma": math.nan}, "poll_resp_sigma"),
        ({"max_records": 0}, "max_records"),
        ({"max_records": -3}, "max_records"),
    ],
)
def test_web_config_names_out_of_range_field(overrides, fragment):
    with pytest.raises(ValueError, match=fragment):
        WebConfig(**overrides)


def test_range_checks_accept_edges_and_scaled_copies():
    ExperimentConfig(overhead_runs=0, epsilon_sweep=(1e-9,))
    WebConfig(tail_p=1.0, upload_prob=0.0, poll_prob=1.0, server_prob=1.0, ack_prob=0.0)
    WebConfig(gap_mean=0.0, server_sigma=0.0, max_records=1)
    SimConfig(rtt=0.0, exec_delay=0.0, url_jitter=0, response_jitter=0, get_base=0, post_base=0, response_base=0)
    SimConfig(url_jitter=40, response_jitter=9, get_base=40, post_base=40, response_base=9)
    for factor in (0.02, 0.1):
        ExperimentConfig().scaled(factor)


def _leaf_paths(section, prefix=""):
    for f in dataclasses.fields(section):
        path, value = prefix + f.name, getattr(section, f.name)
        if dataclasses.is_dataclass(value) and path not in NOT_CONFIG_KEYS:
            yield from _leaf_paths(value, path + ".")
        else:
            yield path


def _doc_paths(doc, prefix=""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _doc_paths(value, prefix + key + ".")
        else:
            yield prefix + key


def test_config_keys_are_every_leaf_but_the_derived_ones():
    assert NOT_CONFIG_KEYS == {"sim.mode", "sim.seed", "train.seed"}
    # size_model's fields sit flat under sim
    leaves = {p.replace("sim.size_model.", "sim.") for p in _leaf_paths(ExperimentConfig())}
    emitted = set(_doc_paths(ExperimentConfig().to_dict()))
    assert emitted == leaves - NOT_CONFIG_KEYS
    assert {"sim.tag_len", "sim.block_len", "train.beta1", "train.beta2", "train.adam_eps"} <= emitted


_unit = st.floats(0.0, 1.0)
_positive = st.floats(1e-6, 1e3)
_sizes = st.integers(1, 10**6)


@st.composite
def _configs(draw):
    poll_initial = draw(_positive)
    url_jitter = draw(st.integers(0, 50))
    sim = SimConfig(
        poll_initial=poll_initial,
        poll_max=poll_initial + draw(st.floats(0.0, 1e3)),
        rtt=draw(_positive),
        url_jitter=url_jitter,
        get_base=url_jitter + draw(st.integers(0, 2000)),
        response_jitter=draw(st.integers(0, 50)),
        handshake_wire_bytes=draw(st.integers(600, 10**4)),
        mss=draw(st.integers(600, 9000)),
        size_model=TlsSizeModel(draw(st.integers(0, 32)), draw(st.integers(1, 64))),
    )
    web = WebConfig(
        tail_p=draw(st.floats(1e-3, 1.0)),
        max_records=draw(st.integers(1, 100)),
        server_prob=draw(_unit),
        upload_prob=draw(st.floats(0.0, 0.5)),
        poll_prob=draw(st.floats(0.0, 0.5)),
        request_mu=draw(st.floats(-10.0, 10.0)),
        gap_mean=draw(_positive),
    )
    train = det.TrainConfig(
        hidden_sizes=tuple(draw(st.lists(st.integers(1, 4096), max_size=4))),
        learning_rate=draw(_positive),
        beta1=draw(st.floats(0.0, 0.999)),
        adam_eps=draw(st.floats(1e-12, 1e-3)),
        batch_size=draw(_sizes),
        patience=draw(_sizes),
        val_fraction=draw(st.floats(0.01, 0.49)),
    )
    return ExperimentConfig(
        master_seed=draw(st.integers(-(2**62), 2**62)),
        n_train=draw(_sizes),
        n_adv_eval=draw(_sizes),
        epsilon_sweep=tuple(draw(st.lists(_positive, min_size=1, max_size=5, unique=True))),
        overhead_runs=draw(st.integers(0, 100)),
        sim=sim,
        web=web,
        train=train,
    )


@settings(max_examples=150, deadline=None)
@given(_configs())
def test_config_dict_roundtrips_through_json(ec):
    doc = json.loads(json.dumps(ec.to_dict()))
    assert ExperimentConfig.from_dict(doc) == ec


def test_from_dict_nests_range_errors_under_the_section():
    with pytest.raises(ValueError, match=r"^train\.batch_size must be"):
        ExperimentConfig.from_dict({"train": {"batch_size": 0}})
    with pytest.raises(ValueError, match=r"^sim\.block_len must be"):
        ExperimentConfig.from_dict({"sim": {"block_len": 0}})
    with pytest.raises(ValueError, match=r"^web\.tail_p must be"):
        ExperimentConfig.from_dict({"web": {"tail_p": 0}})


@pytest.mark.parametrize("budget", [70_000, 200_000])
def test_from_dict_names_an_unreachable_handshake_budget(budget):
    with pytest.raises(ValueError, match=rf"^sim\.handshake_wire_bytes \({budget}\) cannot be met at mss 1460 "):
        ExperimentConfig.from_dict({"sim": {"handshake_wire_bytes": budget}})


def test_from_dict_stores_ints_as_floats_in_float_fields():
    ec = ExperimentConfig.from_dict({"epsilon_sweep": [1], "sim": {"rtt": 0}})
    assert ec.epsilon_sweep == (1.0,) and type(ec.epsilon_sweep[0]) is float
    assert type(ec.sim.rtt) is float


def _readme_config_example():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config file", 1)[1].split("\n## ", 1)[0]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


def test_readme_config_example_loads_as_the_defaults():
    # the documented example spells out the defaults, so it drifts with neither
    assert ExperimentConfig.from_dict(_readme_config_example()) == ExperimentConfig()


# ---------------------------------------------------------------------------
# artifacts

def test_artifacts_none_root_is_noop(tmp_path):
    art = Artifacts(None)
    written = []
    art.save("datasets/x.csv", written.append)
    art.save("y.json", written.append)
    art.write_manifest()
    assert written == []
    assert art.files == []
    assert list(tmp_path.iterdir()) == []


def test_artifacts_collects_and_manifests(tmp_path):
    art = Artifacts(tmp_path)
    ds, _ = build_dataset(Provenance.REGULAR, 2, SMALL, "art")
    art.save("datasets/sample.csv", ds.to_csv)
    art.save("report/part.json", lambda path: path.write_bytes(report_bytes({"k": [1, 2]})))
    art.save("rows.csv", lambda path: write_rows(path, ["a", "b"], [[1, 2], [3, 4]]))
    params = det.DetectorParams.initialize(np.random.default_rng(0), hidden_sizes=(4,))
    art.save("net.bin", params.save)
    art.notes.append("note-b")
    art.notes.append("note-a")
    art.write_manifest()

    assert Dataset.from_csv(tmp_path / "datasets/sample.csv").samples == ds.samples
    assert json.loads((tmp_path / "report/part.json").read_text()) == {"k": [1, 2]}
    assert (tmp_path / "rows.csv").read_bytes() == b"a,b\r\n1,2\r\n3,4\r\n"
    assert (tmp_path / "net.bin").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert art.files != sorted(art.files)
    assert manifest["files"] == sorted(art.files)
    assert manifest["notes"] == ["note-a", "note-b"]
    assert "datasets/sample.csv" in manifest["files"]


# ---------------------------------------------------------------------------
# canonical report serialization

def test_report_bytes_ignores_insertion_order():
    a = {"x": 1, "y": {"b": 2, "a": 3}}
    b = {"y": {"a": 3, "b": 2}, "x": 1}
    assert report_bytes(a) == report_bytes(b)
    assert report_bytes(a).endswith(b"\n")


def test_report_bytes_differs_on_values():
    assert report_bytes({"x": 1}) != report_bytes({"x": 2})


# ---------------------------------------------------------------------------
# overhead stage

def _toy_library():
    shapes = [
        [640, 480, 720, 512],
        [608, 496, 688, 480, 752, 512],
        [592, 464],
    ]
    return [plan_from_adversarial(FeatureVector.from_sizes(s), StuffSide.TWO_SIDE) for s in shapes]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


OVERHEAD_FILE_SHA256 = {
    "runs.csv": "94701fb6a4d27970a2e9b505606982c30c184e101ea81f257e246941aa31ba3e",
    "cdf_conn_appdata_regular.csv": "24a2d7338784cb1624418d8a64cbfdced89df4ce967b82abd2105b680d38849e",
    "cdf_conn_appdata_adversarial.csv": "39793ef12a899880290ee271ef424c9a14cc2b2f559e4aa91f99d1c838b1522e",
    "cdf_conn_gap_regular.csv": "1aaed84797517758346cfc180989e2b106c80593c6e5cc665163681fc9d3b599",
    "cdf_conn_gap_adversarial.csv": "511ad757bd62a6e56d941bf9604434a7e072d53a47ecec48052a0fdc94c8f82e",
}


def test_run_overhead_summary_and_files(tmp_path):
    ec = ExperimentConfig(master_seed=3, overhead_runs=2)
    art = Artifacts(tmp_path)
    result = run_overhead(ec, _toy_library(), art)
    summary = result["summary"]
    for key in (
        "appdata_ratio",
        "wire_bytes_lower",
        "connection_ratio",
        "runtime_max_abs_delta",
    ):
        assert key in summary
    # reshaping moves bytes around but never stretches the operator's session
    assert summary["runtime_max_abs_delta"] == 0.0
    assert summary["appdata_ratio"] > 1.0
    assert len(result["per_run"]) == 2
    for run in result["per_run"]:
        assert run["exchanges_regular"] == run["exchanges_adversarial"]
        assert run["connections_adversarial"] <= run["connections_regular"]
    # the summary and every file, byte for byte
    assert _sha256(report_bytes(result)) == "5943ab0d60e1b026de5a7c7bf9e2dad9d7f4c689bf9c877d118a0d0a1e8adb44"
    assert {p.name: _sha256(p.read_bytes()) for p in (tmp_path / "overhead").iterdir()} == OVERHEAD_FILE_SHA256
    assert sorted(art.files) == sorted(f"overhead/{name}" for name in OVERHEAD_FILE_SHA256)


def test_run_overhead_zero_runs_notes_skip():
    ec = ExperimentConfig(overhead_runs=0)
    art = Artifacts(None)
    assert run_overhead(ec, _toy_library(), art) is None
    assert any("skipped" in n for n in art.notes)


# ---------------------------------------------------------------------------
# whole experiment: both threat-model stages run in child interpreters

def _child_pids() -> set[str]:
    """Every live child of this process, whichever thread started it."""
    return {pid for path in Path("/proc/self/task").glob("*/children") for pid in path.read_text().split()}


def test_report_is_byte_identical_at_one_and_two_stage_workers(tmp_path, monkeypatch):
    ec = ExperimentConfig().scaled(0.02)
    blas_threads = os.environ.get("OPENBLAS_NUM_THREADS")
    outs = []
    for workers in (1, 2):
        monkeypatch.setattr(harness, "_stage_workers", lambda n=workers: n)
        out = tmp_path / f"workers-{workers}"
        children = _child_pids()
        run_full_experiment(ec, out)
        assert _child_pids() == children  # no worker left behind
        assert os.environ.get("OPENBLAS_NUM_THREADS") == blas_threads  # only the workers ran at one thread
        outs.append(out)
    files = json.loads((outs[0] / "manifest.json").read_text())["files"]
    assert "detector_baseline.bin" in files and "detector_aware.bin" in files
    assert files == json.loads((outs[1] / "manifest.json").read_text())["files"]
    for rel in files + ["manifest.json"]:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_a_script_without_a_main_guard_runs_the_report(tmp_path):
    script = tmp_path / "report.py"
    script.write_text(
        "import sys\n"
        "from c2lab.harness import ExperimentConfig, run_full_experiment\n"
        "run_full_experiment(ExperimentConfig().scaled(0.02), sys.argv[1])\n"
    )
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = tmp_path / "out"
    subprocess.run([sys.executable, str(script), str(out)], env=env, check=True, capture_output=True, timeout=600)
    assert "report.json" in json.loads((out / "manifest.json").read_text())["files"]


@pytest.mark.parametrize("blocked", ["out_dir", "baseline_detector", "aware_train_set"])
def test_failed_stage_raises_its_error_and_leaves_no_workers(tmp_path, blocked):
    if blocked == "out_dir":
        # both stages fail on their first file
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        expected, path = NotADirectoryError, out / "datasets"
    elif blocked == "baseline_detector":
        # threat model 1 fails once its detector is trained, while threat model 2 still trains
        out = tmp_path / "out"
        path = out / "detector_baseline.bin"
        path.mkdir(parents=True)
        expected = IsADirectoryError
    else:
        # threat model 2 fails on its training set, while threat model 1 still trains
        out = tmp_path / "out"
        path = out / "datasets" / "tm2_train.csv"
        path.mkdir(parents=True)
        expected = IsADirectoryError
    children = _child_pids()
    with pytest.raises(expected, match=re.escape(str(path))):
        run_full_experiment(ExperimentConfig().scaled(0.02), out)
    assert _child_pids() == children


def test_worker_that_exits_without_a_result_names_its_stage_and_status(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_WORKER_COMMAND", "import os; os._exit(3)")
    children = _child_pids()
    with pytest.raises(RuntimeError, match=r"run_threat_model_[12] worker exited with status 3 "):
        run_full_experiment(ExperimentConfig().scaled(0.02), tmp_path / "out")
    assert _child_pids() == children
