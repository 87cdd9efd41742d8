import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from c2lab import sim
from c2lab.adversarial import DIRECTIONS, StuffSide, StuffingPlan, plan_from_adversarial, sample_plan
from c2lab.model import Direction, FeatureVector, MAX_RECORD_SIZE, Provenance, RecordEvent
from c2lab.sim import (
    Adversarial,
    Command,
    SessionScript,
    SimConfig,
    WebConfig,
    _group_sizes,
    _schedule_plans,
    _workflow,
    conn_frame_plan,
    conn_shape,
    generate_c2_traces,
    generate_web_traces,
    interactive_script,
    sample_script,
    simulate_session,
    substream,
)
from c2lab.sizing import RECORD_HEADER_LEN
from c2lab.wire import FRAME_OVERHEAD
from oracles import on_grid
from test_capture_reference import EMISSION_CASES

CFG = SimConfig(seed=11)


def script(*cmds, gap=0.5):
    commands = tuple(Command(f"c{i}", req, resp) for i, (req, resp) in enumerate(cmds))
    return SessionScript(commands, (gap,) * len(commands))


def plaintexts(sc, cfg, session_index=0):
    """Plaintext bytes of each message of a session, in order, from its jitter draws."""
    jit = substream(cfg.seed, "jitter", session_index)
    jit_p = int(jit.integers(-cfg.url_jitter, cfg.url_jitter + 1))
    jit_f = int(jit.integers(-cfg.response_jitter, cfg.response_jitter + 1))
    return [pt for ev in _workflow(sc, cfg, jit_p, jit_f) for pt in (ev[2], ev[4])]


def rand_fillers(seed, n, session_index=0):
    """The stuffRand filler of each of a session's first n messages."""
    stuff = substream(seed, "stuff", session_index)
    return [int(stuff.integers(1, 1401)) for _ in range(n)]


def flat(result):
    return [rec for conn in result.conns for rec in conn]


REQ_RESP = [Direction.PAYLOAD_TO_FRAMEWORK, Direction.FRAMEWORK_TO_PAYLOAD]


def test_poll_backoff_doubles_then_saturates():
    # one command far in the future forces a long empty-poll run
    sc = SessionScript((Command("x", 50, 200),), (36.0,))
    events = _workflow(sc, CFG, 0, 0)
    polls = [e for e in events if e[0] == "poll"]
    times = [e[1] for e in polls]
    deltas = [round(b - a, 6) for a, b in zip(times, times[1:])]
    assert deltas == [1.0, 2.0, 4.0, 8.0, 10.0, 10.0]


def test_poll_interval_resets_after_serving():
    sc = SessionScript((Command("a", 50, 100), Command("b", 50, 100)), (4.0, 4.0))
    events = _workflow(sc, CFG, 0, 0)
    kinds = [e[0] for e in events]
    # serve/result for the first command, then polling starts over at 1s
    i = kinds.index("result")
    next_polls = [e[1] for e in events[i + 1 :] if e[0] == "poll"]
    assert len(next_polls) >= 2
    assert round(next_polls[1] - next_polls[0], 6) == 1.0


def test_regular_mode_one_exchange_per_connection():
    result = simulate_session(script((60, 300), (70, 2000)), CFG)
    for conn in result.conns:
        assert [d for _t, d, _size in conn] == REQ_RESP
    assert result.n_exchanges() == len(result.conns)


def test_fixed_grouping_three_requests_six_records():
    sc = script((60, 300), (70, 2000), (50, 400))
    cfg = SimConfig(mode=Provenance.FIXED3_REQ, seed=11)
    result = simulate_session(sc, cfg)
    assert [d for _t, d, _size in result.conns[0]] == REQ_RESP * 3


def test_rand_grouping_sizes_within_bounds():
    rng = substream(3, "t")
    for n in (1, 2, 7, 23, 60):
        sizes = _group_sizes(Provenance.RAND_REQ, n, rng)
        assert sum(sizes) == n
        assert all(1 <= s <= 6 for s in sizes)
        # only the remainder may fall below the lower bound
        assert all(s >= 2 for s in sizes[:-1])


@settings(max_examples=200, deadline=None)
@given(mode=st.sampled_from(sim.NAIVE_MODES), n=st.integers(0, 50), seed=st.integers(0, 2**31 - 1))
def test_group_sizes_partition_every_naive_mode(mode, n, seed):
    sizes = _group_sizes(mode, n, substream(seed, "group"))
    assert sum(sizes) == n
    assert all(s >= 1 for s in sizes)


@pytest.mark.parametrize(
    "mode",
    [
        Provenance.WEB,
        Provenance.ADV_FRAMEWORK,
        Provenance.ADV_PAYLOAD,
        Provenance.ADV_TWO_SIDE,
        "stuff50",
        None,
    ],
    ids=repr,
)
def test_sim_config_rejects_non_modes(mode):
    with pytest.raises(ValueError, match="mode"):
        SimConfig(mode=mode)


# 68,474 is the largest budget met at mss 1460; 70,000 takes a 67,007-byte
# server record, and 200,000 one longer still
@pytest.mark.parametrize("budget", [70_000, 200_000])
def test_sim_config_rejects_a_handshake_budget_no_record_header_states(budget):
    assert SimConfig(handshake_wire_bytes=68_474).handshake_wire_bytes == 68_474
    with pytest.raises(ValueError, match=rf"^handshake_wire_bytes \({budget}\) cannot be met at mss 1460 "):
        SimConfig(handshake_wire_bytes=budget)


def test_a_handshake_budget_is_met_with_any_record_a_header_states():
    # a 45,387-byte server record takes 76 frames of mss 600
    cfg = SimConfig(mss=600, handshake_wire_bytes=50_000)
    shape = conn_shape([(1.0, Direction.PAYLOAD_TO_FRAMEWORK, 100)], cfg)
    assert shape.longest == 45_387
    # the budget, the one record and the two FINs
    assert shape.wire_bytes == 50_000 + (RECORD_HEADER_LEN + 100 + FRAME_OVERHEAD) + 2 * FRAME_OVERHEAD


def test_fixed_stuffing_inflates_every_record():
    sc = script((60, 300))
    plain = simulate_session(sc, SimConfig(seed=11))
    stuffed = simulate_session(sc, SimConfig(mode=Provenance.STUFF50, seed=11))
    frame = CFG.size_model.framed_size
    content = plaintexts(sc, SimConfig(seed=11))
    assert [size for *_, size in flat(plain)] == [frame(pt) for pt in content]
    assert [size for *_, size in flat(stuffed)] == [frame(pt + 50) for pt in content]


def test_random_stuffing_bounded():
    sc = script((60, 300), (80, 5000))
    cfg = SimConfig(mode=Provenance.STUFF_RAND, seed=4)
    result = simulate_session(sc, cfg)
    content = plaintexts(sc, cfg)
    fillers = rand_fillers(4, len(content))
    assert all(1 <= f <= 1400 for f in fillers)
    sizes = [size for *_, size in flat(result)]
    assert sizes == [cfg.size_model.framed_size(pt + f) for pt, f in zip(content, fillers)]
    assert max(sizes) <= MAX_RECORD_SIZE


def test_reshaping_preserves_the_workflow():
    sc = script((60, 300), (70, 2000), (55, 800))
    content = plaintexts(sc, CFG)
    n = len(content)
    fillers = {
        Provenance.REGULAR: [0] * n,
        Provenance.STUFF50: [50] * n,
        Provenance.STUFF_RAND: rand_fillers(11, n),
        Provenance.FIXED3_REQ: [0] * n,
    }
    runs = [simulate_session(sc, SimConfig(mode=mode, seed=11)) for mode in fillers]
    skeletons = [[(t, d) for t, d, _size in flat(r)] for r in runs]
    assert all(s == skeletons[0] for s in skeletons[1:])
    assert len({r.runtime for r in runs}) == 1
    # every mode frames the same plaintexts, plus only its own filler
    frame = CFG.size_model.framed_size
    for r, filler in zip(runs, fillers.values()):
        assert [size for *_, size in flat(r)] == [frame(pt + f) for pt, f in zip(content, filler)]


def test_session_determinism():
    sc = script((60, 300), (70, 2000))
    a = simulate_session(sc, SimConfig(mode=Provenance.STUFF_RAND, seed=9), session_index=2)
    b = simulate_session(sc, SimConfig(mode=Provenance.STUFF_RAND, seed=9), session_index=2)
    assert a.conns == b.conns
    c = simulate_session(sc, SimConfig(mode=Provenance.STUFF_RAND, seed=9), session_index=3)
    assert a.conns != c.conns


def test_generate_c2_traces_counts_and_clock():
    flows = generate_c2_traces(17, SimConfig(seed=21))
    assert len(flows.traces) == 17
    assert len(flows.conn_records) == 17
    assert flows.sessions >= 1
    opens = [conn_shape(records, CFG).open_ts for records in flows.conn_records]
    assert opens == sorted(opens)
    assert opens[0] > 0


def test_generated_sizes_are_framed():
    flows = generate_c2_traces(10, SimConfig(seed=21))
    for trace in flows.traces:
        for rec in trace.records:
            assert on_grid(CFG.size_model, rec.size)


def test_web_traces_shape():
    flows = generate_web_traces(40, 5, WebConfig())
    assert len(flows.traces) == 40
    for t in flows.traces:
        assert t.records[0].direction is Direction.PAYLOAD_TO_FRAMEWORK
        assert all(1 <= r.size <= MAX_RECORD_SIZE for r in t.records)
        assert len(t.records) >= 1


def test_web_traces_deterministic_and_seed_sensitive():
    a = generate_web_traces(12, 5)
    b = generate_web_traces(12, 5)
    c = generate_web_traces(12, 6)
    assert [t.records for t in a.traces] == [t.records for t in b.traces]
    assert [t.records for t in a.traces] != [t.records for t in c.traces]


def test_script_samplers():
    sc = sample_script(substream(1, "s"))
    assert 3 <= len(sc.commands) <= 8
    inter = interactive_script(substream(1, "i"))
    assert len(inter.commands) == 12
    assert all(0.8 <= g <= 1.6 for g in inter.gaps)


def _toy_plan(n_records, side):
    profile = tuple(640 if i % 2 == 0 else 480 for i in range(n_records))
    targets = tuple(size if side.covers(DIRECTIONS[i % 2]) else None for i, size in enumerate(profile))
    return StuffingPlan(targets, profile=profile)


def test_adversarial_session_realizes_targets():
    side = StuffSide.TWO_SIDE
    lib = tuple(_toy_plan(n, side) for n in (4, 6, 8))
    sc = script((60, 300), (70, 400), (55, 300), (60, 350), (62, 310))
    cfg = SimConfig(mode=Adversarial(side, lib), seed=13)
    result = simulate_session(sc, cfg)
    frame = cfg.size_model.framed_size
    assert result.missing_next_size == 0
    for conn in result.conns:
        assert [d for _t, d, _size in conn] == REQ_RESP * (len(conn) // 2)
        assert len(conn) >= 4  # no orphan connections
    content = plaintexts(sc, cfg)
    assert len(flat(result)) == len(content)
    for (_t, direction, size), pt in zip(flat(result), content):
        if direction is Direction.PAYLOAD_TO_FRAMEWORK:
            # targets bind unless content already overflows them
            assert size == max(640, frame(pt))
        else:
            assert size >= 480

    # grouping follows plan lengths, timing is untouched
    plain = simulate_session(sc, SimConfig(seed=13))
    assert result.runtime == plain.runtime
    assert [t for t, *_ in flat(result)] == [t for t, *_ in flat(plain)]


def test_adversarial_mode_needs_library():
    with pytest.raises(ValueError):
        Adversarial(StuffSide.TWO_SIDE, ())


def _adversarial_flows(side):
    library = tuple(_toy_plan(n, side) for n in (2, 4, 6, 8))
    return lambda seed: generate_c2_traces(9, SimConfig(mode=Adversarial(side, library), seed=seed))


FLOW_SOURCES = {
    **{mode.value: (lambda seed, mode=mode: generate_c2_traces(9, SimConfig(mode=mode, seed=seed))) for mode in sim.NAIVE_MODES},
    **{f"adv-{side.value}": _adversarial_flows(side) for side in StuffSide},
    "web": lambda seed: generate_web_traces(9, seed),
}


@pytest.mark.parametrize("source", FLOW_SOURCES)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_each_trace_carries_its_connection_records(source, seed):
    flows = FLOW_SOURCES[source](seed)
    assert len(flows.traces) == len(flows.conn_records) == 9
    for trace, records in zip(flows.traces, flows.conn_records):
        assert trace.records is records
        assert all(type(r) is RecordEvent for r in records)


def test_substream_is_label_sensitive():
    a = substream(7, "x", 1).integers(0, 1 << 30, 5)
    b = substream(7, "x", 1).integers(0, 1 << 30, 5)
    c = substream(7, "y", 1).integers(0, 1 << 30, 5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        substream(-1, "x")


# ---------------------------------------------------------------------------
# reference scheduler: the per-candidate scalar loop the vectorized one replaced

PLAN_CANDIDATES = 48
PROFILE_WEIGHT = 0.25


def _plan_fit(plan: StuffingPlan, upcoming: list[tuple], frame) -> float:
    err = 0.0
    for i in range(min(plan.n_exchanges, len(upcoming))):
        _, _, req_pt, _, resp_pt = upcoming[i]
        for pos, content in ((2 * i, frame(req_pt)), (2 * i + 1, frame(resp_pt))):
            if pos >= plan.n_records:
                break
            target = plan.target_at(pos)
            if target is not None:
                err += max(0, content - target)
            elif plan.profile:
                err += PROFILE_WEIGHT * abs(content - plan.profile[pos])
    return err


def _reference_schedule(events, mode, plan_rng, frame):
    remaining = len(events)
    cursor = 0
    plans: list[StuffingPlan] = []
    while remaining > 0:
        best: StuffingPlan | None = None
        best_err = float("inf")
        for _ in range(PLAN_CANDIDATES):
            cand = sample_plan(mode.library, plan_rng)
            for _ in range(64):
                if cand.n_exchanges <= remaining:
                    break
                cand = sample_plan(mode.library, plan_rng)
            err = _plan_fit(cand, events[cursor : cursor + cand.n_exchanges], frame)
            if remaining - min(cand.n_exchanges, remaining) == 1:
                err += 1e6
            if err < best_err:
                best, best_err = cand, err
        plans.append(best)
        took = min(best.n_exchanges, remaining)
        remaining -= took
        cursor += took
    return plans


@st.composite
def plan_strategy(draw):
    # up to 14 exchanges: longer than many two-event sessions
    n_records = draw(st.integers(1, 28))
    covered = draw(st.lists(st.booleans(), min_size=n_records, max_size=n_records))
    sizes = st.integers(32, 6000)
    targets = tuple(draw(sizes) if covered[i] else None for i in range(n_records))
    profiled = draw(st.booleans())
    profile = tuple(draw(st.lists(sizes, min_size=n_records, max_size=n_records))) if profiled else ()
    return StuffingPlan(targets, profile=profile)


commands = st.tuples(st.integers(30, 90), st.integers(40, 12000))
scripts = st.lists(
    st.tuples(commands, st.sampled_from([0.0, 0.3, 2.5, 9.0])), min_size=1, max_size=4
).map(lambda cs: SessionScript(tuple(Command(f"c{i}", *c) for i, (c, _) in enumerate(cs)), tuple(g for _, g in cs)))


@settings(max_examples=150, deadline=None)
@given(
    library=st.lists(plan_strategy(), min_size=1, max_size=12),
    side=st.sampled_from(list(StuffSide)),
    sc=scripts,
    seed=st.integers(0, 2**16),
    session_index=st.integers(0, 1000),
)
def test_scheduler_matches_scalar_reference(library, side, sc, seed, session_index):
    cfg = SimConfig(mode=Adversarial(side, tuple(library)), seed=seed)
    events = _workflow(sc, cfg, 0, 0)
    frame = cfg.size_model.framed_size
    fast_rng = substream(seed, "plans", session_index)
    ref_rng = substream(seed, "plans", session_index)
    fast = _schedule_plans(events, cfg.mode, fast_rng, frame)
    ref = _reference_schedule(events, cfg.mode, ref_rng, frame)
    assert [id(p) for p in fast] == [id(p) for p in ref]

    got = simulate_session(sc, cfg, session_index)
    with mock.patch.object(sim, "_schedule_plans", _reference_schedule):
        want = simulate_session(sc, cfg, session_index)
    assert got.conns == want.conns
    assert got.missing_next_size == want.missing_next_size


def test_scheduler_single_exchange_leftovers_and_unfit_libraries():
    # a two-exchange plan beside a one-exchange plan, and a library of plans
    # longer than the session so every candidate keeps its last draw
    split = (_toy_plan(4, StuffSide.TWO_SIDE), _toy_plan(2, StuffSide.TWO_SIDE))
    too_long = (_toy_plan(30, StuffSide.FRAMEWORK_ONLY), _toy_plan(27, StuffSide.PAYLOAD_ONLY))
    sc = script((60, 300), (70, 400), (55, 300))
    for library in (split, too_long):
        cfg = SimConfig(mode=Adversarial(StuffSide.TWO_SIDE, library), seed=5)
        events = _workflow(sc, cfg, 0, 0)
        for session_index in range(20):
            fast = _schedule_plans(events, cfg.mode, substream(5, "plans", session_index), CFG.size_model.framed_size)
            ref = _reference_schedule(events, cfg.mode, substream(5, "plans", session_index), CFG.size_model.framed_size)
            assert [id(p) for p in fast] == [id(p) for p in ref]


@settings(max_examples=100, deadline=None)
@given(plan=plan_strategy(), position=st.integers(-3, 32))
def test_target_at_matches_linear_scan(plan, position):
    scanned = next((size for i, size in enumerate(plan.targets) if i == position), None)
    assert plan.target_at(position) == scanned


def assert_shape_sums_the_plan(records, cfg):
    plan = conn_frame_plan(records, cfg)
    # each TLS record's first chunk starts at 0; a bare frame has content type 0
    record_lens = [rec_len for _ts, _c, _f, ctype, rec_len, start, _end in plan if ctype and not start]
    assert conn_shape(records, cfg) == (
        min(frame[0] for frame in plan),
        len(plan),
        sum(-(-rec_len // 4) for rec_len in record_lens),
        sum(FRAME_OVERHEAD + end - start for *_, start, end in plan),
        max(record_lens),
    )


@st.composite
def wire_cases(draw):
    mss = draw(st.integers(600, 9000))
    # records whose header plus body lands on, or one byte off, a frame boundary
    near_boundary = st.builds(
        lambda k, d: k * mss - RECORD_HEADER_LEN + d, st.integers(1, 3), st.integers(-1, 1)
    )
    any_size = st.integers(0, MAX_RECORD_SIZE + 64)
    sizes = draw(st.lists(st.one_of(any_size, near_boundary), min_size=1, max_size=24))
    # microsecond times, in order or not: a record may precede the SYN
    times = draw(st.lists(st.integers(0, 5_000_000), min_size=len(sizes), max_size=len(sizes)))
    dirs = (Direction.PAYLOAD_TO_FRAMEWORK, Direction.FRAMEWORK_TO_PAYLOAD)
    records = [(round(1.0 + t / 1e6, 6), dirs[i % 2], size) for i, (t, size) in enumerate(zip(times, sizes))]
    return records, SimConfig(mss=mss, handshake_wire_bytes=draw(st.integers(600, 40000)))


@settings(max_examples=300, deadline=None)
@given(wire_cases())
def test_conn_shape_sums_the_frame_plan(case):
    assert_shape_sums_the_plan(*case)


def _overhead_session(seed):
    """One overhead-stage session per mode, as harness.run_overhead simulates it."""
    library = tuple(_toy_plan(n, StuffSide.TWO_SIDE) for n in (2, 4, 6, 8))
    script = interactive_script(substream(seed, "overhead-script"))
    return [
        records
        for mode in (Provenance.REGULAR, Adversarial(StuffSide.TWO_SIDE, library))
        for records in simulate_session(script, SimConfig(mode=mode, seed=seed)).conns
    ]


@pytest.mark.parametrize("case", [*sorted(EMISSION_CASES), "overhead session"])
@pytest.mark.parametrize("seed", [1, 2])
def test_conn_shape_sums_the_frame_plan_of_emitted_connections(case, seed):
    conns = _overhead_session(seed) if case == "overhead session" else EMISSION_CASES[case](seed)
    for records in conns:
        assert_shape_sums_the_plan(records, SimConfig(seed=seed))


def test_conn_shape_needs_records():
    with pytest.raises(ValueError, match="must carry records"):
        conn_shape([], CFG)


# ---------------------------------------------------------------------------
# pinned adversarial flows: a fixed library, no detector, digests that must not move


def _pinned_plans(side):
    """24 plans of 1 to 20 records with sizes drawn from a fixed seed; every
    third one carries no profile."""
    rng = np.random.default_rng(20240601)
    plans = []
    for k in range(24):
        sizes = (16 * rng.integers(20, 200, size=int(rng.integers(1, 21)))).tolist()
        plan = plan_from_adversarial(FeatureVector.from_sizes(sizes), side, f"pin[{k}]")
        if k % 3 == 2:
            plan = StuffingPlan(plan.targets, source_id=plan.source_id)
        plans.append(plan)
    return plans


def _pinned_library(side):
    # as in the threat-model-2 sweep: the two-side operator may also ride framework-only plans
    extra = _pinned_plans(StuffSide.FRAMEWORK_ONLY) if side is StuffSide.TWO_SIDE else []
    return tuple(_pinned_plans(side) + extra)


# sha256 of every connection's (time, direction, size) records, and the
# requests that heard no size, of 240 flows per side at seed 23
PINNED_FLOWS = {
    StuffSide.FRAMEWORK_ONLY: ("358c96f2a9c09c65799b8cf627422bf9153645ed5cd09c41c1fcc0e68e3363a1", 1129),
    StuffSide.PAYLOAD_ONLY: ("1e161721ab285755d94e8bf2b3d7f9b83ea86c79b488342df617c58d6cf20108", 0),
    StuffSide.TWO_SIDE: ("c302a13c8a37629020f5f3445e5ce2e5d5fa87630f0ad160232da596b3c9cb82", 600),
}


@pytest.mark.parametrize("side", list(StuffSide))
def test_adversarial_flows_match_pinned_digests(side):
    flows = generate_c2_traces(240, SimConfig(mode=Adversarial(side, _pinned_library(side)), seed=23))
    records = [[(t, d.value, size) for t, d, size in conn] for conn in flows.conn_records]
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert (digest, flows.missing_next_size) == PINNED_FLOWS[side]


# ---------------------------------------------------------------------------
# hooks: one protocol step of each kind per exchange, one chain per session


@pytest.mark.parametrize("side", list(StuffSide))
def test_per_exchange_hooks_see_every_simulated_exchange(side, monkeypatch):
    calls = dict.fromkeys(["payload_step", "framework_step", "chain_plans"], 0)
    simulated = {"sessions": 0, "exchanges": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def traced_session(script, cfg, session_index=0):
        result = simulate_session(script, cfg, session_index)
        simulated["sessions"] += 1
        simulated["exchanges"] += result.n_exchanges()
        return result

    for name in calls:
        monkeypatch.setattr(sim, name, counted(name, getattr(sim, name)))
    monkeypatch.setattr(sim, "simulate_session", traced_session)
    flows = generate_c2_traces(40, SimConfig(mode=Adversarial(side, _pinned_library(side)), seed=5))
    assert simulated["sessions"] == flows.sessions > 1
    assert calls == {
        "payload_step": simulated["exchanges"],
        "framework_step": simulated["exchanges"],
        "chain_plans": flows.sessions,
    }
