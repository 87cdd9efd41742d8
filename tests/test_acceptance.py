"""Acceptance gate: one test, and one pass/fail line, per criterion.

The criteria pin down the whole cat-and-mouse loop end to end: a baseline
detector that catches beaconing, naive padding failing against it, request
coalescing evading it, a retrained detector catching the coalescer, the
gradient-guided stuffing beating the retrained detector with the documented
side asymmetry, exact gradients and projections, lossless capture round
trips, the two protocol state machines realizing crafted sizes in lockstep,
bounded wire overhead, and bit-for-bit reproducibility.

The full-scale pipeline runs once (session fixture); criteria that only
need its report or artifacts share that single run.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from c2lab.adversarial import (
    StuffSide,
    chain_plans,
    fgsm_raw,
    load_plan_library,
    plan_from_adversarial,
)
from c2lab.detector import DetectorParams, forward, input_gradient, loss_on, normalize
from c2lab.extract import traces_from_pcap
from c2lab.harness import ExperimentConfig, report_bytes, run_full_experiment
from c2lab.model import Direction, FeatureVector, Provenance, features_from_trace
from c2lab.protocol import HeaderCodec
from c2lab.sim import (
    Adversarial,
    SimConfig,
    emit_pcap,
    generate_c2_traces,
    generate_web_traces,
    run_lockstep,
)

pytestmark = pytest.mark.slow

RUNTIME_BUDGET_SECONDS = 15 * 60


@pytest.fixture(scope="session")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("full-run")
    started = time.perf_counter()
    report = run_full_experiment(ExperimentConfig(), out)
    elapsed = time.perf_counter() - started
    return {"report": report, "out": out, "elapsed": elapsed}


def test_criterion_01_baseline_accuracy_and_runtime(full_run):
    """Baseline detector separates beaconing from web browsing, quickly."""
    tm1 = full_run["report"]["threat_model_1"]
    assert tm1["baseline_accuracy"] >= 0.97
    assert full_run["elapsed"] <= RUNTIME_BUDGET_SECONDS


def test_criterion_02_fixed_stuffing_fails_random_stuffing_works(full_run):
    """Constant padding shifts sizes without hiding them; random padding does."""
    evasion = full_run["report"]["threat_model_1"]["evasion"]
    assert evasion["stuff50"]["evasion_rate"] <= 0.20
    assert evasion["stuffRand"]["evasion_rate"] >= 0.90


def test_criterion_03_request_coalescing_evades_baseline(full_run):
    """Splitting a session over multi-request connections breaks the fingerprint."""
    evasion = full_run["report"]["threat_model_1"]["evasion"]
    assert evasion["fixed3Req"]["evasion_rate"] >= 0.95
    assert evasion["randReq"]["evasion_rate"] >= 0.95


def test_criterion_04_retrained_detector_catches_coalescing(full_run):
    """Retraining on coalesced traffic restores detection."""
    tm2 = full_run["report"]["threat_model_2"]
    assert tm2["aware_accuracy"] >= 0.95
    assert tm2["randreq_vs_aware"]["evasion_rate"] <= 0.10


def test_criterion_05_gradient_stuffing_side_asymmetry(full_run):
    """Both-side stuffing evades the retrained detector; payload-only lags.

    Only the framework knows the upcoming response sizes and decides the
    connection splits, so framework-side stuffing must clearly beat an
    implant that can only inflate its own requests.
    """
    best = full_run["report"]["threat_model_2"]["best"]
    two = best["two_side"]["evasion_rate"]
    fw = best["framework_only"]["evasion_rate"]
    payload = best["payload_only"]["evasion_rate"]
    assert two >= fw >= payload + 0.20
    assert fw >= 0.70


def _hidden_signs(params, row):
    a = row
    signs = []
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = a @ w + b
        signs.append(z > 0)
        a = np.maximum(z, 0)
    return signs


def test_criterion_06_input_gradient_and_fgsm_step_are_exact():
    """Analytic input gradients match central differences across many random
    (params, input, label) cases; the raw step matches its closed form on a
    linear model."""
    rng = np.random.default_rng(123)
    h = 1e-5
    shapes = [(24, 16), (16,), (32, 24, 12), (12, 12)]
    cases = 0
    coords = 0
    worst = 0.0
    for net_idx in range(8):
        params = DetectorParams.initialize(
            rng, hidden_sizes=shapes[net_idx % len(shapes)], dtype="float64"
        )
        x = rng.uniform(0.01, 1.0, size=(15, 20))
        y = rng.integers(0, 2, size=15)
        analytic = np.atleast_2d(input_gradient(params, x, y))
        for i in range(len(x)):
            cases += 1
            for j in range(20):
                xp = x[i].copy()
                xm = x[i].copy()
                xp[j] += h
                xm[j] -= h
                # a ReLU changing sign between the two probe points makes the
                # difference quotient meaningless there; skip those coordinates
                kinked = any(
                    not np.array_equal(sp, sm)
                    for sp, sm in zip(_hidden_signs(params, xp), _hidden_signs(params, xm))
                )
                if kinked:
                    continue
                numeric = (loss_on(params, xp, y[i]) - loss_on(params, xm, y[i])) / (2 * h)
                err = abs(analytic[i, j] - numeric) / max(abs(analytic[i, j]) + abs(numeric), 1e-6)
                worst = max(worst, err)
                coords += 1
    assert cases >= 100
    assert coords >= 100
    assert worst < 1e-4

    # On a model with no hidden layers the loss gradient has a closed form:
    # (softmax(xW+b) - onehot(y)) W^T. The unprojected step must equal
    # x + eps*scale*sign of that, exactly.
    linear = DetectorParams.initialize(rng, hidden_sizes=(), dtype="float64")
    x_raw = rng.integers(16, 16409, size=(50, 20)).astype(np.float64)
    y_lin = rng.integers(0, 2, size=50)
    eps = 0.05
    probs = forward(linear, normalize(x_raw, linear.norm_scale))
    onehot = np.eye(2)[y_lin]
    grad = (probs - onehot) @ linear.weights[0].T
    expected = x_raw + eps * linear.norm_scale * np.sign(grad)
    stepped = fgsm_raw(linear, x_raw, y_lin, eps, respect_padding=False)
    assert np.allclose(stepped, expected, rtol=0, atol=1e-9)
    assert np.any(stepped != x_raw)


def _planned_capture_conns():
    base = SimConfig(seed=41)
    toy_shapes = [[640, 480, 720, 512], [608, 496, 688, 480, 752, 512]]
    library = tuple(
        plan_from_adversarial(FeatureVector.from_sizes(s), StuffSide.TWO_SIDE)
        for s in toy_shapes
    )
    planned = []
    c2_modes = [
        (Provenance.REGULAR, 200, 41),
        (Provenance.STUFF50, 150, 42),
        (Provenance.STUFF_RAND, 150, 43),
        (Provenance.FIXED3_REQ, 120, 44),
        (Provenance.RAND_REQ, 120, 45),
        (Adversarial(StuffSide.TWO_SIDE, library), 100, 46),
    ]
    for mode, n, seed in c2_modes:
        planned.extend(generate_c2_traces(n, replace(base, mode=mode, seed=seed)).conn_records)
    planned.extend(generate_web_traces(100, 47).conn_records)

    def big_conn(i):
        t = 4000.0 + 3.0 * i
        sizes = [304, 16408, 2944, 5008 + 16 * (i % 30), 16408 - 16 * (i % 5)]
        records = []
        for j, size in enumerate(sizes):
            d = Direction.PAYLOAD_TO_FRAMEWORK if j % 2 == 0 else Direction.FRAMEWORK_TO_PAYLOAD
            records.append((round(t, 6), d, size))
            t += 0.05
        return tuple(records)

    planned.extend(big_conn(i) for i in range(90))
    return planned, base


def test_criterion_07_capture_roundtrip_lossless(tmp_path):
    """Emitted captures from every traffic mode parse back to the exact
    record sequences and feature vectors, including records split across
    many TCP segments."""
    planned, cfg = _planned_capture_conns()
    assert len(planned) >= 1000
    assert any(size > cfg.mss for records in planned for _t, _d, size in records)
    path = tmp_path / "capture.pcap"
    emit_pcap(path, planned, cfg, seed=7)

    traces, counters = traces_from_pcap(path)
    assert counters.tcp_gaps == 0
    assert counters.tls_parse_errors == 0
    assert counters.incomplete_records == 0
    assert len(traces) == len(planned)

    by_id = {t.connection_id: t for t in traces}
    mismatches = 0
    for idx, records in enumerate(planned):
        conn_id = f"10.0.{idx // 20000}.1:{40000 + idx % 20000}-10.8.0.2:443"
        trace = by_id[conn_id]
        got = [(r.direction, r.size) for r in trace.records]
        want = [(direction, size) for _t, direction, size in records]
        mismatches += got != want
        mismatches += features_from_trace(trace) != FeatureVector.from_sizes(
            [size for _t, _d, size in records]
        )
    assert mismatches == 0


def test_criterion_08_lockstep_realizes_plans_and_codec_roundtrips(full_run):
    """Framework and payload stay in lockstep over crafted plans: every
    targeted position lands exactly on its target, one close per plan."""
    tm2 = full_run["report"]["threat_model_2"]
    lib, _meta = load_plan_library(
        full_run["out"] / "plans" / f"two_side_eps{tm2['best_epsilon']}.json"
    )
    plans = list(lib)
    if len(plans) < 1000:
        plans = (plans * math.ceil(1000 / len(plans)))[:1000]
    assert len(plans) >= 1000
    chained = chain_plans(plans)

    n_exchanges = sum(p.n_exchanges for p in chained)
    rng = np.random.default_rng(5)
    # small plaintexts: framed request <= 288, framed response + header <= 192,
    # so every crafted target is reachable by stuffing alone
    requests = [int(v) for v in rng.integers(60, 273, size=n_exchanges)]
    responses = [int(v) for v in rng.integers(40, 151, size=n_exchanges)]
    conns, closes = run_lockstep(chained, requests, responses, StuffSide.TWO_SIDE)

    assert closes == len(chained)
    assert len(conns) == len(chained)
    mismatches = 0
    targeted = 0
    for plan, realized in zip(chained, conns):
        assert len(realized) == 2 * plan.n_exchanges
        for position, size in enumerate(realized):
            target = plan.target_at(position)
            if target is not None:
                targeted += 1
                mismatches += size != target
    assert targeted >= 1000
    assert mismatches == 0

    codec = HeaderCodec()
    header_rng = np.random.default_rng(9)
    rounds = 0
    for total in header_rng.integers(codec.min_padding_line, 400, size=4000):
        h = codec.make_padding(int(total), header_rng)
        assert codec.encoded_len(h) == int(total)
        assert codec.decode(codec.encode(h)) == h
        rounds += 1
    for size in header_rng.integers(0, 16409, size=4000):
        h = codec.make_next_size(int(size))
        assert codec.decode(codec.encode(h)) == h
        rounds += 1
    for flag in header_rng.integers(0, 2, size=2000):
        h = codec.make_conn_state(bool(flag))
        assert codec.decode(codec.encode(h)) == h
        rounds += 1
    assert rounds >= 10_000


def test_criterion_09_wire_overhead_bounded(full_run):
    """Stuffing pays in appdata bytes but coalescing repays on the wire, and
    the operator's session never slows down."""
    summary = full_run["report"]["overhead"]["summary"]
    assert summary["appdata_ratio"] >= 2.0
    assert summary["wire_bytes_adversarial_mean"] < summary["wire_bytes_regular_mean"]
    assert summary["wire_bytes_lower"] is True
    assert 2.5 <= summary["connection_ratio"] <= 6.0
    assert summary["runtime_max_abs_delta"] <= 1.0


def test_criterion_10_reproducible_from_master_seed(tmp_path):
    """Two runs from the same master seed produce byte-identical reports,
    datasets, and persisted artifacts."""
    ec = ExperimentConfig().scaled(0.02)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    report_a = run_full_experiment(ec, dir_a)
    report_b = run_full_experiment(ec, dir_b)

    assert report_bytes(report_a) == report_bytes(report_b)
    assert (dir_a / "report.json").read_bytes() == (dir_b / "report.json").read_bytes()

    datasets_a = sorted((dir_a / "datasets").glob("*.csv"))
    assert datasets_a
    for file_a in datasets_a:
        file_b = dir_b / "datasets" / file_a.name
        assert file_a.read_bytes() == file_b.read_bytes(), file_a.name
