"""Command line interface, driven through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import c2lab
from c2lab import adversarial as adv
from c2lab import detector as det
from c2lab.adversarial import StuffSide, plan_from_adversarial
from c2lab.cli import build_parser, main
from c2lab.harness import ExperimentConfig
from c2lab.model import Dataset, FeatureVector, Label, Provenance
from c2lab.sim import emit_pcap, generate_c2_traces
from dataclasses import replace


def _toy_plans_file(path):
    shapes = [[640, 480, 720, 512], [608, 496, 688, 480]]
    lib = [plan_from_adversarial(FeatureVector.from_sizes(s), StuffSide.TWO_SIDE) for s in shapes]
    adv.save_plan_library(path, lib, {"note": "test"})
    return path


def test_gen_regular(tmp_path, capsys):
    out = tmp_path / "reg.csv"
    assert main(["gen", "--mode", "regular", "--n", "5", "--seed", "3", "--out", str(out)]) == 0
    ds = Dataset.from_csv(out)
    assert len(ds) == 5
    assert all(s.label is Label.C2 and s.provenance is Provenance.REGULAR for s in ds.samples)
    assert "wrote 5 regular samples" in capsys.readouterr().out


def test_gen_web(tmp_path):
    out = tmp_path / "web.csv"
    assert main(["gen", "--mode", "web", "--n", "4", "--seed", "3", "--out", str(out)]) == 0
    ds = Dataset.from_csv(out)
    assert all(s.label is Label.NON_C2 for s in ds.samples)


def test_gen_seed_changes_data(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    main(["gen", "--mode", "randReq", "--n", "6", "--seed", "1", "--out", str(a)])
    main(["gen", "--mode", "randReq", "--n", "6", "--seed", "1", "--out", str(b)])
    main(["gen", "--mode", "randReq", "--n", "6", "--seed", "2", "--out", str(c)])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_gen_adversarial_needs_plans(tmp_path, capsys):
    out = tmp_path / "adv.csv"
    assert main(["gen", "--mode", "advTwoSide", "--n", "3", "--out", str(out)]) == 2
    _assert_one_line_error(capsys, "need --plans")
    assert not out.exists()


def test_gen_adversarial_with_plans(tmp_path):
    plans = _toy_plans_file(tmp_path / "plans.json")
    out = tmp_path / "adv.csv"
    rc = main([
        "gen", "--mode", "advTwoSide", "--n", "4", "--seed", "5",
        "--plans", str(plans), "--out", str(out),
    ])
    assert rc == 0
    ds = Dataset.from_csv(out)
    assert all(s.provenance is Provenance.ADV_TWO_SIDE for s in ds.samples)


def test_config_file_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"master_seed": 9, "sim": {"get_base": 400}}))
    with_cfg = tmp_path / "with.csv"
    plain = tmp_path / "plain.csv"
    main(["gen", "--mode", "regular", "--n", "5", "--config", str(cfg), "--out", str(with_cfg)])
    main(["gen", "--mode", "regular", "--n", "5", "--seed", "9", "--out", str(plain)])
    # same seed but a different request base size: flows must differ
    assert with_cfg.read_bytes() != plain.read_bytes()


def test_seed_flag_beats_config_seed(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"master_seed": 3}))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["gen", "--mode", "regular", "--n", "5", "--config", str(cfg), "--seed", "9", "--out", str(a)])
    main(["gen", "--mode", "regular", "--n", "5", "--seed", "9", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen -> train -> attack -> gen(adversarial) chain shared by the tests below."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"train": {"hidden_sizes": [48, 24], "max_epochs": 4}}))

    reg = root / "reg.csv"
    web = root / "web.csv"
    main(["gen", "--mode", "regular", "--n", "120", "--seed", "3", "--out", str(reg)])
    main(["gen", "--mode", "web", "--n", "120", "--seed", "3", "--out", str(web)])

    model = root / "model.bin"
    rc = main([
        "train", "--data", str(reg), str(web), "--out", str(model),
        "--seed", "3", "--config", str(cfg),
    ])
    assert rc == 0

    randreq = root / "randreq.csv"
    main(["gen", "--mode", "randReq", "--n", "40", "--seed", "3", "--out", str(randreq)])
    plans = root / "plans.json"
    rc = main([
        "attack", "--model", str(model), "--data", str(randreq),
        "--epsilon", "0.05", "--side", "two_side", "--min-exchanges", "2",
        "--out", str(plans), "--seed", "3",
    ])
    assert rc == 0
    return {"root": root, "model": model, "plans": plans, "randreq": randreq}


def test_train_writes_loadable_model(pipeline):
    params = det.DetectorParams.load(pipeline["model"])
    assert [w.shape[1] for w in params.weights] == [48, 24, 2]


def test_attack_writes_plan_library(pipeline):
    lib, meta = adv.load_plan_library(pipeline["plans"])
    assert lib
    assert meta["epsilon"] == 0.05
    assert meta["side"] == "two_side"
    # min-exchanges 2 keeps only flows with at least two request/response rounds
    assert all(p.n_records >= 4 for p in lib)
    # two-side plans target every record
    assert all(None not in p.targets for p in lib)


def test_eval_reports_accuracy(pipeline, tmp_path, capsys):
    preds = tmp_path / "preds.csv"
    rc = main([
        "eval", "--model", str(pipeline["model"]), "--data", str(pipeline["randreq"]),
        "--out", str(preds),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "accuracy:" in out
    assert "evasion rate" in out
    header = preds.read_text().splitlines()[0]
    assert header == "index,provenance,label,predicted"


def test_eval_out_creates_its_directory(pipeline, tmp_path):
    preds = tmp_path / "missing" / "preds.csv"
    rc = main(["eval", "--model", str(pipeline["model"]), "--data", str(pipeline["randreq"]), "--out", str(preds)])
    assert rc == 0
    # a header row, then one row per sample
    assert len(preds.read_text().splitlines()) == 1 + len(Dataset.from_csv(pipeline["randreq"]))


def test_overhead_command(pipeline, tmp_path, capsys):
    out_dir = tmp_path / "ov"
    rc = main([
        "overhead", "--plans", str(pipeline["plans"]), "--runs", "2",
        "--seed", "3", "--out", str(out_dir),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "appdata_ratio:" in out
    assert (out_dir / "overhead/runs.csv").exists()


@pytest.mark.parametrize("budget", [70_000, 200_000])
def test_overhead_names_an_unreachable_handshake_budget(tmp_path, capsys, budget):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sim": {"handshake_wire_bytes": budget}}))
    plans = _toy_plans_file(tmp_path / "plans.json")
    argv = ["overhead", "--plans", str(plans), "--runs", "1", "--config", str(cfg), "--out", str(tmp_path / "ov")]
    assert main(argv) == 2
    _assert_one_line_error(capsys, f"c2lab: error: {cfg}: sim.handshake_wire_bytes ({budget}) cannot be met at mss 1460")


def test_overhead_negative_runs_exits_2_naming_the_flag(tmp_path, capsys):
    plans = _toy_plans_file(tmp_path / "plans.json")
    out = tmp_path / "ov"
    assert main(["overhead", "--plans", str(plans), "--runs=-1", "--out", str(out)]) == 2
    _assert_one_line_error(capsys, "--runs must be an integer >= 0", "got -1")
    assert not out.exists()


def test_extract_command(tmp_path, capsys):
    cfg = replace(ExperimentConfig().sim, seed=4)
    flows = generate_c2_traces(6, cfg)
    pcap = tmp_path / "flows.pcap"
    emit_pcap(pcap, flows.conn_records, cfg, seed=4)
    out = tmp_path / "extracted.csv"
    rc = main([
        "extract", "--pcap", str(pcap), "--out", str(out),
        "--label", "c2", "--provenance", "regular",
    ])
    assert rc == 0
    ds = Dataset.from_csv(out)
    assert len(ds) == len(flows.traces)
    stdout = capsys.readouterr().out
    assert f"extracted {len(ds)} flows" in stdout
    assert "tls_parse_errors: 0" in stdout


def test_extract_label_follows_provenance(tmp_path):
    cfg = replace(ExperimentConfig().sim, seed=4)
    pcap = tmp_path / "flows.pcap"
    emit_pcap(pcap, generate_c2_traces(3, cfg).conn_records, cfg, seed=4)
    out = tmp_path / "extracted.csv"
    for provenance, label in (("web", Label.NON_C2), ("randReq", Label.C2)):
        assert main(["extract", "--pcap", str(pcap), "--out", str(out), "--provenance", provenance]) == 0
        ds = Dataset.from_csv(out)
        assert len(ds) == 3
        assert all(s.label is label and s.provenance.value == provenance for s in ds.samples)


@pytest.mark.parametrize("label, provenance", [("c2", "web"), ("web", "regular")])
def test_extract_contradicting_label_exits_2_naming_both_flags(tmp_path, capsys, label, provenance):
    cfg = replace(ExperimentConfig().sim, seed=4)
    pcap = tmp_path / "flows.pcap"
    emit_pcap(pcap, generate_c2_traces(2, cfg).conn_records, cfg, seed=4)
    out = tmp_path / "extracted.csv"
    rc = main(["extract", "--pcap", str(pcap), "--out", str(out), "--label", label, "--provenance", provenance])
    assert rc == 2
    _assert_one_line_error(capsys, f"--label {label}", f"--provenance {provenance}")
    assert not out.exists()


def test_unknown_mode_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["gen", "--mode", "nonsense", "--n", "1", "--out", str(tmp_path / "x.csv")])


def _assert_one_line_error(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("c2lab: error: ")
    assert "Traceback" not in err
    for fragment in fragments:
        assert fragment in err


@pytest.mark.parametrize(
    "magic, fmt",
    [(b"\x0a\x0d\x0d\x0a", "pcapng"), (b"\x4d\x3c\xb2\xa1", "nanosecond pcap"), (b"\xa1\xb2\x3c\x4d", "nanosecond pcap")],
)
def test_extract_other_capture_format_exits_2_naming_it(tmp_path, capsys, magic, fmt):
    pcap = tmp_path / "capture"
    pcap.write_bytes(magic + b"\x00" * 60)
    out = tmp_path / "x.csv"
    rc = main(["extract", "--pcap", str(pcap), "--out", str(out), "--label", "c2", "--provenance", "regular"])
    assert rc == 2
    _assert_one_line_error(capsys, f"{fmt} capture", "only classic microsecond pcap is read")
    assert not out.exists()


def test_bad_detector_exits_2_without_traceback(tmp_path, capsys):
    model = tmp_path / "bad.bin"
    model.write_bytes(b"\x05\x00\x00\x00{oops")
    data = tmp_path / "data.csv"
    main(["gen", "--mode", "regular", "--n", "3", "--seed", "1", "--out", str(data)])
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--data", str(data)]) == 2
    _assert_one_line_error(capsys, str(model))


def test_non_finite_detector_exits_2_naming_the_tensor(pipeline, tmp_path, capsys):
    params = det.DetectorParams.load(pipeline["model"]).copy()
    params.biases[1][5] = float("inf")
    model = tmp_path / "inf.bin"
    params.save(model)
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--data", str(pipeline["randreq"])]) == 2
    _assert_one_line_error(capsys, str(model), "layer 1 biases", "non-finite")


def test_bad_plan_library_exits_2_without_traceback(tmp_path, capsys):
    plans = tmp_path / "plans.json"
    plans.write_text(json.dumps({"version": 1, "plans": [{"n_records": 2, "targets": [[0, "payload_to_framework", 300.5]], "first_size_next_conn": None}]}))
    rc = main(["gen", "--mode", "advTwoSide", "--n", "3", "--plans", str(plans), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    _assert_one_line_error(capsys, str(plans), "plans[0]", "targets[0].size")


@pytest.mark.parametrize("epsilon", ["inf", "nan", "--epsilon=-inf"])
def test_attack_non_finite_epsilon_exits_2_without_plans(pipeline, tmp_path, capsys, epsilon):
    out = tmp_path / "plans.json"
    flag = [epsilon] if epsilon.startswith("--") else ["--epsilon", epsilon]
    capsys.readouterr()
    rc = main([
        "attack", "--model", str(pipeline["model"]), "--data", str(pipeline["randreq"]),
        *flag, "--side", "two_side", "--out", str(out),
    ])
    assert rc == 2
    _assert_one_line_error(capsys, "epsilon must be finite")
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_gen_non_positive_count_exits_2_naming_the_flag(tmp_path, capsys, n):
    out = tmp_path / "reg.csv"
    assert main(["gen", "--mode", "regular", f"--n={n}", "--out", str(out)]) == 2
    _assert_one_line_error(capsys, "--n must be an integer >= 1", f"got {n}")
    assert not out.exists()


@pytest.mark.parametrize("min_exchanges", ["0", "-1"])
def test_attack_non_positive_min_exchanges_exits_2_naming_the_flag(pipeline, tmp_path, capsys, min_exchanges):
    out = tmp_path / "plans.json"
    capsys.readouterr()
    rc = main([
        "attack", "--model", str(pipeline["model"]), "--data", str(pipeline["randreq"]),
        f"--min-exchanges={min_exchanges}", "--out", str(out),
    ])
    assert rc == 2
    _assert_one_line_error(capsys, "--min-exchanges must be an integer >= 1", f"got {min_exchanges}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "attack", "train"])
def test_header_only_dataset_exits_2_naming_the_file(pipeline, tmp_path, capsys, command):
    empty = tmp_path / "empty.csv"
    Dataset([], 0).to_csv(empty)
    out = tmp_path / "out"
    args = {
        "eval": ["eval", "--model", str(pipeline["model"]), "--data", str(empty)],
        "attack": ["attack", "--model", str(pipeline["model"]), "--data", str(empty), "--out", str(out)],
        "train": ["train", "--data", str(pipeline["randreq"]), str(empty), "--out", str(out)],
    }[command]
    capsys.readouterr()
    assert main(args) == 2
    _assert_one_line_error(capsys, f"{empty}: holds no samples")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen", "--mode", "regular", "--out", "o.csv"],
    ["train", "--data", "d.csv", "--out", "m.bin"],
    ["attack", "--model", "m.bin", "--data", "d.csv", "--out", "p.json"],
    ["overhead", "--plans", "p.json"],
    ["report"],
])
def test_experiment_subcommands_take_seed_and_config(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    assert (args.seed, args.config) == (None, None)
    args = parser.parse_args([*argv, "--seed", "5", "--config", "c.json"])
    assert (args.seed, args.config) == (5, "c.json")


@pytest.mark.parametrize("argv", [
    ["eval", "--model", "m.bin", "--data", "d.csv"],
    ["extract", "--pcap", "c.pcap", "--out", "o.csv"],
])
@pytest.mark.parametrize("flag", ["--seed", "--config"])
def test_other_subcommands_reject_seed_and_config(argv, flag, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([*argv, flag, "5"])
    assert "unrecognized arguments" in capsys.readouterr().err


def test_missing_input_exits_2_without_traceback(tmp_path, capsys):
    missing = tmp_path / "nowhere.csv"
    rc = main(["train", "--data", str(missing), "--out", str(tmp_path / "m.bin")])
    assert rc == 2
    _assert_one_line_error(capsys, str(missing))


@pytest.mark.parametrize(
    "doc, key_path",
    [
        ({"n_trian": 5}, "n_trian"),
        ({"sim": {"get_bse": 5}}, "sim.get_bse"),
        ({"n_train": True}, "n_train"),
        ({"n_train": 1.5}, "n_train"),
        ({"n_train": "5"}, "n_train"),
        ({"sim": []}, "sim"),
        ({"epsilon_sweep": 0.05}, "epsilon_sweep"),
        ({"train": {"hidden_sizes": [64, "x"]}}, "train.hidden_sizes[1]"),
        ({"sim": {"mode": "regular"}}, "sim.mode"),
        ({"sim": {"seed": 3}}, "sim.seed"),
        ({"sim": {"codec": {"padding_name": "X"}}}, "sim.codec"),
        ({"train": {"seed": 5}}, "train.seed"),
        ([{"n_train": 5}], "config"),
        ({"sim": {"size_model": {"tag_len": 16}}}, "sim.size_model"),
        ({"sim": {"poll_initial": float("nan")}}, "sim.poll_initial"),
        ({"epsilon_sweep": []}, "epsilon_sweep"),
        ({"overhead_runs": -1}, "overhead_runs"),
        ({"train": {"batch_size": 0}}, "train.batch_size"),
        ({"sim": {"tag_len": -1}}, "sim.tag_len"),
        ({"web": {"upload_prob": 0.9, "poll_prob": 0.2}}, "web.upload_prob"),
        ({"sim": {"rtt": -1}}, "sim.rtt"),
        ({"sim": {"exec_delay": -1}}, "sim.exec_delay"),
        ({"sim": {"url_jitter": -1}}, "sim.url_jitter"),
        ({"sim": {"response_jitter": -1}}, "sim.response_jitter"),
        ({"sim": {"get_base": -5}}, "sim.get_base"),
        ({"sim": {"get_base": 20, "url_jitter": 30}}, "sim.get_base"),
        ({"sim": {"post_base": 11}}, "sim.post_base"),
        ({"sim": {"response_base": 3}}, "sim.response_base"),
        ({"epsilon_sweep": [0.05, 0.05]}, "epsilon_sweep[1] repeats 0.05"),
    ],
)
def test_bad_config_exits_2_naming_the_key(tmp_path, capsys, doc, key_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "x.csv"
    assert main(["gen", "--mode", "regular", "--n", "2", "--config", str(cfg), "--out", str(out)]) == 2
    _assert_one_line_error(capsys, f"{cfg}: {key_path}")
    assert not out.exists()


@pytest.mark.parametrize("content", [b'{"master_seed": 3,\n', b"", b'{"sim": {"rtt": 0.05}} x', b"\xff\xfe{}"])
def test_unreadable_config_names_the_file(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    assert main(["gen", "--mode", "regular", "--n", "2", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    _assert_one_line_error(capsys, f"c2lab: error: {cfg}: ")


def test_report_config_replays_to_identical_artifacts(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "train": {"hidden_sizes": [32, 16], "max_epochs": 3, "beta1": 0.8},
        "web": {"tail_p": 0.35},
    }))
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["report", "--scale", "tiny", "--seed", "5", "--config", str(cfg), "--out", str(first)]) == 0
    echo = json.loads((first / "report.json").read_text())["config"]
    assert echo["train"]["beta1"] == 0.8 and echo["web"]["tail_p"] == 0.35
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(echo))
    # the echo holds the already-scaled sizes, so it replays without --scale
    assert main(["report", "--config", str(replay), "--out", str(second)]) == 0
    files = json.loads((first / "manifest.json").read_text())["files"]
    assert files == json.loads((second / "manifest.json").read_text())["files"]
    for rel in files + ["manifest.json"]:
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel


def _run_cli_at_blas_threads(threads, argv):
    """c2lab in a fresh interpreter: OpenBLAS reads its thread count once, at load."""
    src = str(Path(c2lab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-m", "c2lab.cli", *argv], env=env, check=True, capture_output=True, timeout=600)


def test_report_is_byte_identical_across_blas_thread_counts(tmp_path):
    # a split of the matmuls must not reach any artifact
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        _run_cli_at_blas_threads(threads, ["report", "--scale", "tiny", "--seed", "7", "--out", str(out)])
        outs.append(out)
    files = json.loads((outs[0] / "manifest.json").read_text())["files"]
    assert any(f.endswith(".bin") for f in files)
    assert files == json.loads((outs[1] / "manifest.json").read_text())["files"]
    for rel in files + ["manifest.json"]:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_train_is_byte_identical_across_blas_thread_counts(tmp_path):
    # report trains in one-BLAS-thread workers; train runs in the command's own
    # process, at whatever thread count OpenBLAS was started with
    reg, web = tmp_path / "reg.csv", tmp_path / "web.csv"
    main(["gen", "--mode", "regular", "--n", "200", "--seed", "4", "--out", str(reg)])
    main(["gen", "--mode", "web", "--n", "200", "--seed", "4", "--out", str(web)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"max_epochs": 2}}))  # default layer sizes: matmuls big enough to split
    models = []
    for threads in ("1", "2"):
        model = tmp_path / f"threads-{threads}.bin"
        argv = ["train", "--data", str(reg), str(web), "--seed", "4", "--config", str(cfg), "--out", str(model)]
        _run_cli_at_blas_threads(threads, argv)
        models.append(model.read_bytes())
    assert models[0] == models[1]
