import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from c2lab.adversarial import PlanTarget, StuffSide, StuffingPlan, chain_plans, plan_from_adversarial
from c2lab.model import FEATURE_LEN, Direction, FeatureVector
from c2lab.protocol import (
    CodecError,
    FrameworkSession,
    HeaderCodec,
    HeaderKind,
    MAX_NEXT_SIZE,
    PayloadSession,
    ProtocolError,
    framework_step,
    payload_step,
)
from c2lab.sim import (
    Adversarial,
    SessionScript,
    SimConfig,
    _schedule_plans,
    lockstep,
    run_lockstep,
    sample_script,
    simulate_session,
    substream,
)
from c2lab.sizing import TlsSizeModel

CODEC = HeaderCodec()
SIZE = TlsSizeModel()


# ---------------------------------------------------------------------------
# header codec


def test_padding_line_is_exactly_the_requested_length():
    h = CODEC.make_padding(50)
    assert CODEC.encoded_len(h) == 50
    assert CODEC.decode(CODEC.encode(h)) == h


def test_padding_lower_bound():
    assert CODEC.encoded_len(CODEC.make_padding(CODEC.min_padding_line)) == CODEC.min_padding_line
    with pytest.raises(CodecError):
        CODEC.make_padding(CODEC.min_padding_line - 1)


def test_padding_filler_can_be_randomized():
    rng = np.random.default_rng(3)
    h = CODEC.make_padding(64, rng)
    assert CODEC.encoded_len(h) == 64
    assert h.value != CODEC.make_padding(64).value


def test_next_size_roundtrip():
    h = CODEC.make_next_size(1072)
    line = CODEC.encode(h)
    assert line == b"X-Correlation-Id: 1072\r\n"
    back = CODEC.decode(line)
    assert back.kind is HeaderKind.NEXT_SIZE
    assert int(back.value) == 1072


def test_next_size_bounds():
    CODEC.make_next_size(0)
    CODEC.make_next_size(MAX_NEXT_SIZE)
    with pytest.raises(CodecError):
        CODEC.make_next_size(-1)
    with pytest.raises(CodecError):
        CODEC.make_next_size(MAX_NEXT_SIZE + 1)


def test_decode_rejects_malformed_lines():
    with pytest.raises(CodecError):
        CODEC.decode(b"X-Correlation-Id: 12")  # no CRLF
    with pytest.raises(CodecError):
        CODEC.decode(b"X-Correlation-Id:12\r\n")  # no separator space
    with pytest.raises(CodecError):
        CODEC.decode(b"X-Unknown: 1\r\n")
    with pytest.raises(CodecError):
        CODEC.decode(b"X-Correlation-Id: 007\r\n")  # leading zeros
    with pytest.raises(CodecError):
        CODEC.decode(b"X-Correlation-Id: 12a\r\n")
    with pytest.raises(CodecError):
        CODEC.decode(b"Connection: upgrade\r\n")


def test_conn_state_values():
    assert CODEC.make_conn_state(True).value == b"close"
    assert CODEC.make_conn_state(False).value == b"keep-alive"
    assert CODEC.decode(b"Connection: close\r\n").kind is HeaderKind.CONN_STATE


def test_renamed_headers_still_roundtrip():
    codec = HeaderCodec(padding_name="X-Trace", next_size_name="X-Req-Id")
    h = codec.make_padding(40)
    assert codec.encoded_len(h) == 40
    assert codec.decode(codec.encode(codec.make_next_size(99))).value == b"99"
    with pytest.raises(CodecError):
        codec.decode(b"X-Client-Data: xx\r\n")  # default name no longer known


@given(st.integers(min_value=0, max_value=MAX_NEXT_SIZE))
def test_next_size_roundtrip_property(size):
    assert int(CODEC.decode(CODEC.encode(CODEC.make_next_size(size))).value) == size


@given(st.integers(min_value=CODEC.min_padding_line, max_value=400))
def test_padding_roundtrip_property(total):
    h = CODEC.make_padding(total)
    assert CODEC.encoded_len(h) == total
    assert CODEC.decode(CODEC.encode(h)) == h


# ---------------------------------------------------------------------------
# state machines


def _two_side_plan():
    fv = FeatureVector.from_sizes([640, 480, 720, 512])
    return plan_from_adversarial(fv, StuffSide.TWO_SIDE)


def test_framework_announces_next_request_size():
    plan = _two_side_plan()
    state = FrameworkSession(plan=plan, side=StuffSide.TWO_SIDE)
    reply = framework_step(state, content_plaintext=180)
    assert not reply.close
    kinds = [h.kind for h in reply.headers]
    assert kinds == [HeaderKind.CONN_STATE, HeaderKind.NEXT_SIZE]
    assert reply.headers[0].value == b"keep-alive"
    assert int(reply.headers[1].value) == 720  # target for position 2

    final = framework_step(reply.state, content_plaintext=180)
    assert final.close
    assert final.headers[0].value == b"close"
    # no carry-over configured, so the close carries no size announcement
    assert [h.kind for h in final.headers] == [HeaderKind.CONN_STATE]
    with pytest.raises(ProtocolError):
        framework_step(final.state, 100)


def test_framework_close_hands_over_next_connection_target():
    plan, last = chain_plans([_two_side_plan(), _two_side_plan()])
    state = FrameworkSession(plan=plan, side=StuffSide.TWO_SIDE)
    reply = framework_step(state, 180)
    final = framework_step(reply.state, 180)
    assert final.close
    assert int(final.headers[1].value) == last.target_at(0) == 640


def test_framework_only_mode_sends_no_size_headers():
    fv = FeatureVector.from_sizes([640, 480, 720, 512])
    plan = plan_from_adversarial(fv, StuffSide.FRAMEWORK_ONLY)
    state = FrameworkSession(plan=plan, side=StuffSide.FRAMEWORK_ONLY)
    reply = framework_step(state, 180)
    assert [h.kind for h in reply.headers] == [HeaderKind.CONN_STATE]
    framed = SIZE.framed_size(180)
    assert reply.stuffing == 480 - framed
    assert reply.realized_size == 480


def test_framework_stuffing_accounts_for_control_bytes():
    plan = _two_side_plan()
    state = FrameworkSession(plan=plan, side=StuffSide.TWO_SIDE)
    content = 180
    reply = framework_step(state, content)
    control = CODEC.encoded_len(reply.headers[1])
    framed = SIZE.framed_size(content + control)
    assert reply.realized_size == framed + reply.stuffing == 480


def test_framework_overshoot_keeps_content():
    plan = _two_side_plan()
    state = FrameworkSession(plan=plan, side=StuffSide.TWO_SIDE)
    reply = framework_step(state, content_plaintext=2000)  # past the 480 target
    assert reply.stuffing == 0
    assert reply.realized_size > 480


def test_payload_applies_pending_size():
    state = PayloadSession(pending_next_size=640)
    action = payload_step(state, received=None, content_plaintext=280)
    assert action.realized_size == 640
    assert action.stuffing == 640 - SIZE.framed_size(280)
    assert action.state.pending_next_size is None
    assert action.state.missing_next_size == 0


def test_payload_without_guidance_sends_bare_content():
    action = payload_step(PayloadSession(), received=None, content_plaintext=280)
    assert action.realized_size == SIZE.framed_size(280)
    assert action.state.missing_next_size == 1


def test_payload_reads_headers():
    headers = (CODEC.make_conn_state(True), CODEC.make_next_size(912))
    action = payload_step(PayloadSession(), received=headers, content_plaintext=280)
    assert not action.reuse_connection
    assert action.realized_size == 912
    keepalive = (CODEC.make_conn_state(False),)
    action2 = payload_step(PayloadSession(), received=keepalive, content_plaintext=280)
    assert action2.reuse_connection
    assert action2.state.missing_next_size == 1  # no size came down


def test_lockstep_small_chain():
    plans = chain_plans([_two_side_plan(), _two_side_plan(), _two_side_plan()])
    n_msgs = sum(p.n_exchanges for p in plans)
    reqs = [120] * n_msgs
    resps = [100] * n_msgs
    conns, closes = run_lockstep(plans, reqs, resps, StuffSide.TWO_SIDE)
    assert closes == 3
    assert [len(c) for c in conns] == [4, 4, 4]
    for conn, plan in zip(conns, plans):
        for pos, size in enumerate(conn):
            assert size == plan.target_at(pos)  # targets comfortably above content


def test_lockstep_framework_only_leaves_requests_alone():
    fv = FeatureVector.from_sizes([640, 480, 720, 512])
    plans = chain_plans([plan_from_adversarial(fv, StuffSide.FRAMEWORK_ONLY)] * 2)
    conns, closes = run_lockstep(plans, [120] * 4, [100] * 4, StuffSide.FRAMEWORK_ONLY)
    framed_req = SIZE.framed_size(120)
    for conn in conns:
        assert conn[0::2] == [framed_req, framed_req]
        assert conn[1::2] == [480, 512]
    assert closes == 2


def test_lockstep_seeds_only_a_covered_first_request():
    # position 0 has no target; the payload target at position 2 must not
    # be spent on the session's first request
    later_only = StuffingPlan(4, (PlanTarget(2, Direction.PAYLOAD_TO_FRAMEWORK, 900),))
    conns, closes = run_lockstep([later_only], [100, 100], [100, 100], StuffSide.TWO_SIDE)
    assert closes == 1
    assert conns[0][0] == SIZE.framed_size(100)
    assert conns[0][2] == 900


def test_lockstep_odd_plan_leaves_tail_response_bare():
    fv = FeatureVector.from_sizes([640, 480, 720])  # three records, two exchanges
    plan = plan_from_adversarial(fv, StuffSide.TWO_SIDE)
    conns, closes = run_lockstep([plan], [120, 120], [100, 100], StuffSide.TWO_SIDE)
    assert closes == 1
    (conn,) = conns
    assert conn[:3] == [640, 480, 720]
    assert conn[3] == SIZE.framed_size(100)  # position 3 has no target


# ---------------------------------------------------------------------------
# the lockstep driver over random chained plans

PAYLOAD_SIDES = (StuffSide.PAYLOAD_ONLY, StuffSide.TWO_SIDE)
FRAMEWORK_SIDES = (StuffSide.FRAMEWORK_ONLY, StuffSide.TWO_SIDE)

sides = st.sampled_from(list(StuffSide))
# crafted plans, each for its own side, so a run may meet plans it cannot stuff
plans_st = st.lists(
    st.builds(
        lambda sizes, side: plan_from_adversarial(FeatureVector.from_sizes(sizes), side),
        st.lists(st.integers(1, 4000), min_size=1, max_size=FEATURE_LEN),
        sides,
    ),
    min_size=1,
    max_size=6,
).map(chain_plans)
plaintexts = st.tuples(st.integers(0, 3000), st.integers(0, 3000))


def _exchange_targets(plans, side):
    """(plan index, request target, response target) per exchange, read off the plans."""
    return [
        (
            i,
            plan.target_at(2 * k) if side in PAYLOAD_SIDES else None,
            plan.target_at(2 * k + 1) if side in FRAMEWORK_SIDES else None,
        )
        for i, plan in enumerate(plans)
        for k in range(plan.n_exchanges)
    ]


@settings(max_examples=200, deadline=None)
@given(plans=plans_st, side=sides, data=st.data())
def test_lockstep_realizes_each_target_the_content_allows(plans, side, data):
    targets = _exchange_targets(plans, side)
    pairs = data.draw(st.lists(plaintexts, min_size=len(targets), max_size=len(targets)))
    steps = list(lockstep(plans, side, pairs))
    assert [i for i, _, _ in steps] == [i for i, _, _ in targets]
    for j, ((_i, action, reply), (req_pt, resp_pt)) in enumerate(zip(steps, pairs)):
        # the response announces the next request's target, if there is one
        announced = targets[j + 1][1] if j + 1 < len(targets) else None
        control = CODEC.encoded_len(CODEC.make_next_size(announced)) if announced is not None else 0
        for realized, content, target in (
            (action.realized_size, SIZE.framed_size(req_pt), targets[j][1]),
            (reply.realized_size, SIZE.framed_size(resp_pt + control), targets[j][2]),
        ):
            assert realized >= content
            if target is not None and target >= content:
                assert realized == target
            else:
                assert realized == content


@settings(max_examples=200, deadline=None)
@given(plans=plans_st, side=sides, data=st.data())
def test_lockstep_full_run_closes_each_plan_once(plans, side, data):
    n = sum(p.n_exchanges for p in plans)
    pairs = data.draw(st.lists(plaintexts, min_size=n, max_size=n))
    conns, closes = run_lockstep(plans, [q for q, _ in pairs], [r for _, r in pairs], side)
    assert closes == len(plans) == len(conns)
    assert [len(c) for c in conns] == [2 * p.n_exchanges for p in plans]
    # only a plan's last exchange closes
    ends = np.cumsum([p.n_exchanges for p in plans]) - 1
    assert [j for j, (_, _, reply) in enumerate(lockstep(plans, side, pairs)) if reply.close] == ends.tolist()


@settings(max_examples=200, deadline=None)
@given(plans=plans_st, side=sides, data=st.data())
def test_lockstep_counts_requests_that_heard_no_size(plans, side, data):
    targets = _exchange_targets(plans, side)
    pairs = data.draw(st.lists(plaintexts, min_size=len(targets), max_size=len(targets)))
    *_, (_, action, _) = lockstep(plans, side, pairs)
    assert action.state.missing_next_size == sum(req is None for _, req, _ in targets)


@settings(max_examples=200, deadline=None)
@given(plans=plans_st, side=sides, data=st.data())
def test_lockstep_short_input_truncates_the_last_connection(plans, side, data):
    n = sum(p.n_exchanges for p in plans)
    pairs = data.draw(st.lists(plaintexts, min_size=n, max_size=n))
    cut = data.draw(st.integers(0, n - 1))
    full, _ = run_lockstep(plans, [q for q, _ in pairs], [r for _, r in pairs], side)
    conns, closes = run_lockstep(plans, [q for q, _ in pairs[:cut]], [r for _, r in pairs[:cut]], side)
    flat_full = [size for conn in full for size in conn]
    assert [size for conn in conns for size in conn] == flat_full[: 2 * cut]
    complete = int(np.searchsorted(np.cumsum([p.n_exchanges for p in plans]), cut, side="right"))
    assert closes == complete
    assert [len(c) for c in conns[:complete]] == [len(c) for c in full[:complete]]


@settings(max_examples=100, deadline=None)
@given(
    library=st.lists(
        st.lists(st.integers(1, 4000), min_size=1, max_size=FEATURE_LEN).map(FeatureVector.from_sizes),
        min_size=1,
        max_size=8,
    ),
    side=sides,
    seed=st.integers(0, 2**16),
    session_index=st.integers(0, 1000),
    n_commands=st.integers(1, 3),
)
def test_simulated_session_sizes_are_the_lockstep_run_of_its_plans(library, side, seed, session_index, n_commands):
    cfg = SimConfig(mode=Adversarial(side, tuple(plan_from_adversarial(fv, side) for fv in library)), seed=seed)
    full = sample_script(substream(seed, "script"))
    sc = SessionScript(full.commands[:n_commands], full.gaps[:n_commands])
    result = simulate_session(sc, cfg, session_index)
    exchanges = [(kind, req.time, req.content, resp.time, resp.content) for c in result.conns for kind, req, resp in c.exchanges]
    plans = chain_plans(
        _schedule_plans(exchanges, cfg.mode, substream(seed, "plans", session_index), cfg.size_model.framed_size)
    )
    conns, _ = run_lockstep(plans, [ev[2] for ev in exchanges], [ev[4] for ev in exchanges], side, cfg.codec, cfg.size_model)
    assert conns == [[m.size for m in c.records()] for c in result.conns]
