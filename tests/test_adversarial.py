import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from c2lab import adversarial as adv
from c2lab import detector as det
from c2lab.adversarial import (
    DIRECTIONS,
    FgsmConfig,
    StuffSide,
    StuffingPlan,
    build_plan_library,
    chain_plans,
    fgsm_batch,
    fgsm_raw,
    plan_from_adversarial,
    sample_plan,
    stuff_amount,
)
from c2lab.harness import ExperimentConfig, craft_libraries
from c2lab.model import Dataset, Direction, FeatureVector, Label, LabeledSample, PAD_VALUE, Provenance
from c2lab.sizing import TlsSizeModel
from oracles import loss_on, on_grid


def params_fixture(seed=0):
    rng = np.random.default_rng(seed)
    return det.DetectorParams.initialize(rng, hidden_sizes=(16, 8), dtype="float64")


def flow_rows(rng, n):
    x = rng.integers(32, 16000, size=(n, 20)).astype(np.float64)
    for row in x:
        k = rng.integers(2, 21)
        row[k:] = PAD_VALUE
    return x


def test_stuff_amount_oracle():
    assert stuff_amount(800, 300) == 500
    assert stuff_amount(300, 800) == 0
    assert stuff_amount(300, 300) == 0
    with pytest.raises(ValueError):
        stuff_amount(-1, 0)


@given(st.integers(min_value=0, max_value=1 << 20), st.integers(min_value=0, max_value=1 << 20))
def test_stuffing_only_grows(target, content):
    s = stuff_amount(target, content)
    assert s >= 0
    assert content + s >= target
    assert s == 0 or content + s == target


def test_epsilon_zero_is_identity():
    params = params_fixture()
    x = flow_rows(np.random.default_rng(2), 6)
    out = fgsm_batch(params, x, np.zeros(6, dtype=np.int64), FgsmConfig(epsilon=0.0))
    assert np.array_equal(out, x)
    assert out is not x


def test_projection_grid_and_padding():
    params = params_fixture()
    rng = np.random.default_rng(3)
    x = flow_rows(rng, 40)
    cfg = FgsmConfig(epsilon=0.05)
    out = fgsm_batch(params, x, np.zeros(40, dtype=np.int64), cfg)
    model = cfg.size_model
    moved = out != x
    assert moved.any()
    assert np.array_equal(out == PAD_VALUE, x == PAD_VALUE)
    changed = out[moved]
    assert np.all(changed % model.block_len == 0)
    assert np.all(changed >= model.min_framed_size())
    assert np.all(changed <= cfg.grid_cap)


def test_position_floors_clamp_even_and_odd():
    params = params_fixture()
    rng = np.random.default_rng(9)
    x = flow_rows(rng, 60)
    cfg = FgsmConfig(epsilon=0.05, position_floors=(288, 192))
    out = fgsm_batch(params, x, np.zeros(60, dtype=np.int64), cfg)
    moved = out != x
    for j in range(20):
        col = out[:, j][moved[:, j]]
        floor = 288 if j % 2 == 0 else 192
        assert np.all(col >= floor)


def test_mask_restricts_the_step():
    params = params_fixture()
    rng = np.random.default_rng(5)
    x = flow_rows(rng, 30)
    mask = np.array([1.0, 0.0] * 10)
    out = fgsm_batch(params, x, np.zeros(30, dtype=np.int64), FgsmConfig(epsilon=0.1), mask=mask)
    assert np.array_equal(out[:, 1::2], x[:, 1::2])


def test_step_direction_increases_loss():
    # raw step (before projection) must not decrease the loss
    params = params_fixture(seed=7)
    rng = np.random.default_rng(8)
    x = flow_rows(rng, 25)
    y = np.zeros(25, dtype=np.int64)
    adv_x = fgsm_raw(params, x, y, epsilon=0.02)
    before = [loss_on(params, det.normalize(x[i]), 0) for i in range(len(x))]
    after = [loss_on(params, det.normalize(adv_x[i]), 0) for i in range(len(x))]
    assert np.mean(after) > np.mean(before)
    assert sum(a >= b - 1e-12 for a, b in zip(after, before)) >= 23


def test_raw_step_is_exactly_epsilon_scaled():
    params = params_fixture()
    rng = np.random.default_rng(12)
    x = flow_rows(rng, 10)
    y = np.zeros(10, dtype=np.int64)
    out = fgsm_raw(params, x, y, epsilon=0.05)
    delta = np.abs(out - x)
    step = 0.05 * params.norm_scale
    assert np.all((delta == 0) | np.isclose(delta, step))


def test_fgsm_config_validation():
    with pytest.raises(ValueError):
        FgsmConfig(epsilon=-0.1)
    for eps in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
            FgsmConfig(epsilon=eps)
    with pytest.raises(ValueError):
        FgsmConfig(position_floors=(1, 2, 3))
    assert FgsmConfig().grid_cap == 16400


# ---------------------------------------------------------------------------
# gradient signs memoized on the detector


def cold_signs(params, x, y):
    return np.sign(det.input_gradient(params, det.normalize(x, params.norm_scale), y))


def count_gradients(monkeypatch):
    """Row counts of the input gradients fgsm actually computes."""
    calls = []
    real = adv.input_gradient

    def counting(params, x_norm, y):
        calls.append(len(x_norm))
        return real(params, x_norm, y)

    monkeypatch.setattr(adv, "input_gradient", counting)
    return calls


def test_sign_cache_hit_is_the_cold_gradient_bit_for_bit(monkeypatch):
    params = params_fixture()
    x = flow_rows(np.random.default_rng(30), 12)
    y = np.zeros(12, dtype=np.int64)
    calls = count_gradients(monkeypatch)
    first = adv._gradient_signs(params, x, y)
    assert adv._gradient_signs(params, x, y) is first
    assert adv._gradient_signs(params, x.copy(), y.copy()) is first  # keyed on the rows, not their identity
    assert calls == [12]
    assert first.tobytes() == cold_signs(params, x, y).tobytes()
    assert not first.flags.writeable


# A detector's arrays stay fixed once FGSM has used it (trained and loaded
# ones are read-only), so a changed net is a copy, which starts cold.
def _bump_weight_one_ulp(params, x, y):
    params = params.copy()
    w = params.weights[1]
    w[0, 0] = np.nextafter(w[0, 0], np.inf)
    return params, x, y


def _bump_bias(params, x, y):
    params = params.copy()
    params.biases[0][3] += 0.25
    return params, x, y


def _copy(params, x, y):
    return params.copy(), x, y


def _rescale(params, x, y):
    params.norm_scale *= 2
    return params, x, y


def _other_rows(params, x, y):
    x = x.copy()
    x[3, 0] += 16
    return params, x, y


def _other_labels(params, x, y):
    y = y.copy()
    y[0] = 1
    return params, x, y


@pytest.mark.parametrize(
    "change",
    [_bump_weight_one_ulp, _bump_bias, _copy, _rescale, _other_rows, _other_labels],
    ids=lambda f: f.__name__[1:],
)
def test_sign_cache_misses_on_any_change_the_gradient_depends_on(monkeypatch, change):
    params = params_fixture()
    x = flow_rows(np.random.default_rng(31), 12)
    y = np.zeros(12, dtype=np.int64)
    calls = count_gradients(monkeypatch)
    adv._gradient_signs(params, x, y)
    params, x, y = change(params, x, y)
    got = adv._gradient_signs(params, x, y)
    assert calls == [12, 12]
    assert got.tobytes() == cold_signs(params, x, y).tobytes()


def test_trained_and_loaded_detectors_are_read_only(tmp_path):
    samples = _samples_from_rows(flow_rows(np.random.default_rng(35), 12))
    samples += [LabeledSample(s.features, Label.NON_C2, Provenance.WEB) for s in samples[:6]]
    trained, _ = det.train(Dataset(samples, 0), det.TrainConfig(hidden_sizes=(8,), max_epochs=1))
    trained.save(tmp_path / "net.bin")
    loaded = det.DetectorParams.load(tmp_path / "net.bin")
    for params in (trained, loaded):
        for a in (*params.weights, *params.biases):
            with pytest.raises(ValueError, match="read-only"):
                a[0] += 1
        copy = params.copy()
        copy.weights[0][0, 0] += 1  # a copy is the detector to change
        assert copy.sign_memo == {}


def test_masked_step_leaves_no_edit_in_the_cache():
    params = params_fixture()
    x = flow_rows(np.random.default_rng(33), 20)
    y = np.zeros(20, dtype=np.int64)
    mask = np.array([1.0, 0.0] * 10)
    cold_masked = fgsm_raw(params.copy(), x, y, 0.05, mask=mask)
    cold_plain = fgsm_raw(params.copy(), x, y, 0.05, respect_padding=False)
    warm_masked = fgsm_raw(params, x, y, 0.05, mask=mask)
    warm_plain = fgsm_raw(params, x, y, 0.05, respect_padding=False)
    assert len(params.sign_memo) == 1
    assert warm_masked.tobytes() == cold_masked.tobytes()
    assert warm_plain.tobytes() == cold_plain.tobytes()


def test_one_sweep_computes_one_gradient_per_row_set(monkeypatch):
    params = params_fixture()
    rows = flow_rows(np.random.default_rng(34), 40)
    short = int(((rows != PAD_VALUE).sum(axis=1) < 4).sum())
    assert 0 < short < 40  # two-record flows only payload-only plans use
    samples = _samples_from_rows(rows)
    ec = ExperimentConfig()
    calls = count_gradients(monkeypatch)

    def sweep(detector):
        calls.clear()
        return {eps: craft_libraries(ec, detector, samples, eps) for eps in ec.epsilon_sweep}, sorted(calls)

    libraries, first = sweep(params)
    assert len(libraries) == 3
    assert first == [40 - short, 40]
    assert sweep(params) == (libraries, [])
    assert sweep(params.copy()) == (libraries, [40 - short, 40])
    for eps, crafted in libraries.items():
        assert craft_libraries(ec, params.copy(), samples, eps) == crafted  # each from cold gradients


# ---------------------------------------------------------------------------
# plans


def test_alternating_directions():
    # the client (payload) speaks on even positions, the framework on odd ones
    assert DIRECTIONS == (Direction.PAYLOAD_TO_FRAMEWORK, Direction.FRAMEWORK_TO_PAYLOAD)
    fv = FeatureVector.from_sizes([640, 480, 656, 496, 672])
    payload = plan_from_adversarial(fv, StuffSide.PAYLOAD_ONLY)
    assert payload.targets == (640, None, 656, None, 672)


def test_plan_from_adversarial_covers_one_side():
    fv = FeatureVector.from_sizes([640, 480, 656, 496])
    plan = plan_from_adversarial(fv, StuffSide.FRAMEWORK_ONLY, source_id="s1")
    assert plan.n_records == 4
    assert plan.n_exchanges == 2
    assert plan.targets == (None, 480, None, 496)
    assert plan.profile == (640, 480, 656, 496)
    assert plan.target_at(1) == 480 and plan.target_at(0) is None

    both = plan_from_adversarial(fv, StuffSide.TWO_SIDE)
    assert both.targets == (640, 480, 656, 496)
    assert both.target_at(0) == 640


def test_plan_validation():
    with pytest.raises(ValueError):
        StuffingPlan(targets=())
    with pytest.raises(ValueError):
        StuffingPlan(targets=(None, None, None), profile=(1, 2))
    with pytest.raises(ValueError):
        StuffingPlan(targets=(0, None))
    with pytest.raises(ValueError):
        StuffingPlan(targets=(None, -480))
    plan = StuffingPlan(targets=(None, 100))
    assert (plan.n_records, plan.n_exchanges) == (2, 1)
    assert [plan.target_at(i) for i in (-1, 0, 1, 2)] == [None, None, 100, None]


def test_chain_plans_carries_next_first_request():
    fv1 = FeatureVector.from_sizes([640, 480])
    fv2 = FeatureVector.from_sizes([720, 480])
    plans = [plan_from_adversarial(fv, StuffSide.TWO_SIDE) for fv in (fv1, fv2)]
    chained = chain_plans(plans)
    assert chained[0].first_size_next_conn == 720
    assert chained[1].first_size_next_conn is None


def test_chain_plans_carries_nothing_for_an_uncovered_first_request():
    # the successor targets a later request only; its first request stays bare
    later_only = StuffingPlan((None, None, 900, None))
    first, _ = chain_plans([plan_from_adversarial(FeatureVector.from_sizes([640, 480]), StuffSide.TWO_SIDE), later_only])
    assert first.first_size_next_conn is None


def test_sample_plan_uniform_and_empty():
    lib = [plan_from_adversarial(FeatureVector.from_sizes([640, 480]), StuffSide.TWO_SIDE)]
    rng = np.random.default_rng(0)
    assert sample_plan(lib, rng) is lib[0]
    with pytest.raises(ValueError):
        sample_plan([], rng)


def _samples_from_rows(rows):
    return [
        LabeledSample(FeatureVector(tuple(r)), Label.C2, Provenance.RAND_REQ) for r in rows
    ]


def test_build_plan_library_masks_to_side():
    params = params_fixture()
    rng = np.random.default_rng(21)
    rows = flow_rows(rng, 50)
    samples = _samples_from_rows(rows)
    for side in StuffSide:
        lib = build_plan_library(params, samples, side, FgsmConfig(epsilon=0.05), min_exchanges=1)
        assert len(lib) == 50
        for plan, row in zip(lib, rows):
            n = int((row != PAD_VALUE).sum())
            assert plan.n_records == n
            assert len(plan.profile) == n
            for i in range(n):
                if side.covers(DIRECTIONS[i % 2]):
                    assert plan.targets[i] == plan.profile[i]
                else:
                    # uncovered positions carry no target and keep the original size in the profile
                    assert plan.targets[i] is None
                    assert plan.profile[i] == int(row[i])


def test_build_plan_library_skips_short_flows():
    params = params_fixture()
    rows = flow_rows(np.random.default_rng(22), 30)
    rows[:12, 2:] = PAD_VALUE  # a third of the flows collapse to one exchange
    samples = _samples_from_rows(rows)
    lib = build_plan_library(params, samples, StuffSide.TWO_SIDE, FgsmConfig(epsilon=0.05), min_exchanges=2)
    long_enough = sum(1 for r in rows if (r != PAD_VALUE).sum() >= 4)
    assert len(lib) == long_enough < 18  # every one-exchange flow dropped
    assert all(p.n_records >= 4 for p in lib)
    with pytest.raises(ValueError):
        build_plan_library(params, samples, StuffSide.TWO_SIDE, FgsmConfig(), min_exchanges=11)


def test_plan_library_roundtrip(tmp_path):
    params = params_fixture()
    rows = flow_rows(np.random.default_rng(23), 12)
    lib = build_plan_library(
        params, _samples_from_rows(rows), StuffSide.TWO_SIDE, FgsmConfig(epsilon=0.03),
        source_tag="rt", min_exchanges=1,
    )
    lib = chain_plans(lib)
    path = tmp_path / "plans.json"
    adv.save_plan_library(path, lib, {"epsilon": 0.03})
    loaded, meta = adv.load_plan_library(path)
    assert loaded == lib
    assert meta == {"epsilon": 0.03}


def test_plan_library_version_gate(tmp_path):
    path = tmp_path / "v9.json"
    path.write_text('{"version": 9, "plans": []}')
    with pytest.raises(ValueError):
        adv.load_plan_library(path)
    for garbage in (b'{"version": 1, "plans": [', b"\xff\xfe\x00"):
        path.write_bytes(garbage)
        with pytest.raises(ValueError, match="not a JSON document"):
            adv.load_plan_library(path)


def _set(path, value):
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return mutate


def _delete(path):
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        del doc[last]
    return mutate


# (mutation of a saved two-plan library, fragments the error must name)
LIBRARY_MUTATIONS = {
    "top-level list": (lambda doc: [doc], ["JSON object"]),
    "missing plans": (_delete(["plans"]), ["plans"]),
    "non-list plans": (_set(["plans"], {"0": {}}), ["plans"]),
    "empty plans": (_set(["plans"], []), ["plans"]),
    "plan not an object": (_set(["plans", 1], 5), ["plans[1]"]),
    "missing n_records": (_delete(["plans", 1, "n_records"]), ["plans[1]", "n_records"]),
    "zero n_records": (_set(["plans", 0, "n_records"], 0), ["plans[0]", "n_records"]),
    "n_records past the feature length": (_set(["plans", 0, "n_records"], 10**9), ["plans[0]", "n_records"]),
    "missing targets": (_delete(["plans", 0, "targets"]), ["plans[0]", "targets"]),
    "two-element target": (_set(["plans", 1, "targets", 0], [0, "payload_to_framework"]), ["plans[1]", "targets[0]"]),
    "string size": (_set(["plans", 0, "targets", 1, 2], "480"), ["plans[0]", "targets[1].size"]),
    "float size": (_set(["plans", 0, "targets", 1, 2], 300.5), ["plans[0]", "targets[1].size"]),
    "bool size": (_set(["plans", 0, "targets", 1, 2], True), ["plans[0]", "targets[1].size"]),
    "oversized size": (_set(["plans", 0, "targets", 1, 2], 10**30), ["plans[0]", "targets[1].size"]),
    "float position": (_set(["plans", 0, "targets", 0, 0], 0.0), ["plans[0]", "targets[0].position"]),
    "position past n_records": (_set(["plans", 0, "targets", 3, 0], 7), ["plans[0]", "targets[3].position"]),
    "unknown direction": (_set(["plans", 0, "targets", 0, 1], "sideways"), ["plans[0]", "targets[0].direction"]),
    "direction against position": (
        _set(["plans", 0, "targets", 0, 1], "framework_to_payload"),
        ["plans[0]", "targets[0].direction", "does not match position 0"],
    ),
    "repeated position": (_set(["plans", 1, "targets", 2, 0], 0), ["plans[1]", "targets[2].position"]),
    "descending positions": (lambda doc: doc["plans"][0]["targets"].reverse(), ["plans[0]", "targets[1].position"]),
    "float profile entry": (_set(["plans", 1, "profile", 2], 656.0), ["plans[1]", "profile[2]"]),
    "short profile": (_set(["plans", 1, "profile"], [640]), ["plans[1]", "profile"]),
    "float carry-over size": (_set(["plans", 0, "first_size_next_conn"], 600.5), ["plans[0]", "first_size_next_conn"]),
    "missing carry-over size": (_delete(["plans", 0, "first_size_next_conn"]), ["plans[0]", "first_size_next_conn"]),
    "non-string source_id": (_set(["plans", 0, "source_id"], 3), ["plans[0]", "source_id"]),
}


@pytest.mark.parametrize("name", sorted(LIBRARY_MUTATIONS))
def test_malformed_plan_library_names_the_field(tmp_path, name):
    fv = FeatureVector.from_sizes([640, 480, 656, 512])
    plans = chain_plans([plan_from_adversarial(fv, StuffSide.TWO_SIDE)] * 2)
    path = tmp_path / "plans.json"
    adv.save_plan_library(path, plans, {"epsilon": 0.03})
    assert adv.load_plan_library(path)[0] == plans
    mutate, fragments = LIBRARY_MUTATIONS[name]
    doc = json.loads(path.read_text())
    doc = mutate(doc) or doc
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        adv.load_plan_library(path)
    for fragment in [str(path), *fragments]:
        assert fragment in str(err.value)


def test_plan_fields_must_be_ints():
    for size in (640.0, True, "640"):
        with pytest.raises(ValueError):
            StuffingPlan(targets=(size, None))
    with pytest.raises(ValueError):
        StuffingPlan(targets=(None, None), profile=(640, 480.5))
    with pytest.raises(ValueError):
        StuffingPlan(targets=(None, None), first_size_next_conn=True)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=0.001, max_value=0.2))
def test_projection_always_realizable(seed, epsilon):
    params = params_fixture(seed=1)
    rng = np.random.default_rng(seed)
    x = flow_rows(rng, 4)
    cfg = FgsmConfig(epsilon=float(epsilon), position_floors=(288, 192))
    out = fgsm_batch(params, x, np.zeros(4, dtype=np.int64), cfg)
    model = TlsSizeModel()
    for row in out:
        fv = FeatureVector(tuple(row))  # padding suffix and bounds both hold
        for v in fv.values[: fv.n_records]:
            assert on_grid(model, int(v))
