import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from c2lab import adversarial as adv
from c2lab import detector as det
from c2lab.adversarial import (
    FgsmConfig,
    PlanTarget,
    StuffSide,
    StuffingPlan,
    alternating_directions,
    build_plan_library,
    chain_plans,
    fgsm_batch,
    fgsm_raw,
    plan_from_adversarial,
    sample_plan,
    stuff_amount,
)
from c2lab.model import Direction, FeatureVector, Label, LabeledSample, PAD_VALUE, Provenance
from c2lab.sizing import TlsSizeModel


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
    before = [det.loss_on(params, det.normalize(x[i]), 0) for i in range(len(x))]
    after = [det.loss_on(params, det.normalize(adv_x[i]), 0) for i in range(len(x))]
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
    with pytest.raises(ValueError):
        FgsmConfig(position_floors=(1, 2, 3))
    assert FgsmConfig().grid_cap == 16400


# ---------------------------------------------------------------------------
# plans


def test_alternating_directions():
    dirs = alternating_directions(5)
    assert dirs[0] is Direction.PAYLOAD_TO_FRAMEWORK
    assert dirs[1] is Direction.FRAMEWORK_TO_PAYLOAD
    assert dirs[4] is Direction.PAYLOAD_TO_FRAMEWORK


def test_plan_from_adversarial_covers_one_side():
    fv = FeatureVector.from_sizes([640, 480, 656, 496])
    plan = plan_from_adversarial(fv, StuffSide.FRAMEWORK_ONLY, source_id="s1")
    assert plan.n_records == 4
    assert plan.n_exchanges == 2
    assert [(t.position, t.size) for t in plan.targets] == [(1, 480), (3, 496)]
    assert all(t.direction is Direction.FRAMEWORK_TO_PAYLOAD for t in plan.targets)
    assert plan.profile == (640, 480, 656, 496)
    assert plan.first_payload_target() is None
    assert plan.target_at(1) == 480 and plan.target_at(0) is None

    both = plan_from_adversarial(fv, StuffSide.TWO_SIDE)
    assert len(both.targets) == 4
    assert both.first_payload_target() == 640


def test_plan_validation():
    with pytest.raises(ValueError):
        StuffingPlan(n_records=0, targets=())
    with pytest.raises(ValueError):
        StuffingPlan(n_records=2, targets=(PlanTarget(5, Direction.PAYLOAD_TO_FRAMEWORK, 100),))
    with pytest.raises(ValueError):
        StuffingPlan(
            n_records=2,
            targets=(
                PlanTarget(1, Direction.FRAMEWORK_TO_PAYLOAD, 100),
                PlanTarget(1, Direction.FRAMEWORK_TO_PAYLOAD, 100),
            ),
        )
    with pytest.raises(ValueError):
        StuffingPlan(n_records=3, targets=(), profile=(1, 2))
    with pytest.raises(ValueError):
        PlanTarget(0, Direction.PAYLOAD_TO_FRAMEWORK, 0)


def test_chain_plans_carries_next_first_request():
    fv1 = FeatureVector.from_sizes([640, 480])
    fv2 = FeatureVector.from_sizes([720, 480])
    plans = [plan_from_adversarial(fv, StuffSide.TWO_SIDE) for fv in (fv1, fv2)]
    chained = chain_plans(plans)
    assert chained[0].first_size_next_conn == 720
    assert chained[1].first_size_next_conn is None


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
            dirs = alternating_directions(n)
            for t in plan.targets:
                assert side.covers(t.direction)
            # uncovered positions keep the original size in the profile
            for i in range(n):
                if not side.covers(dirs[i]):
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
    dirn = Direction.PAYLOAD_TO_FRAMEWORK
    for position, size in ((0.0, 640), (True, 640), (0, 640.0), (0, False), (0, "640")):
        with pytest.raises(ValueError):
            PlanTarget(position, dirn, size)
    with pytest.raises(ValueError):
        StuffingPlan(n_records=2.0, targets=())
    with pytest.raises(ValueError):
        StuffingPlan(n_records=2, targets=(), profile=(640, 480.5))
    with pytest.raises(ValueError):
        StuffingPlan(n_records=2, targets=(), first_size_next_conn=True)


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
        for v in fv.sizes():
            assert model.on_grid(v)
