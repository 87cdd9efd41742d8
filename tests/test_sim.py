from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from c2lab import sim
from c2lab.adversarial import StuffSide, StuffingPlan, PlanTarget, sample_plan
from c2lab.model import Direction, MAX_RECORD_SIZE
from c2lab.sim import (
    Adversarial,
    Command,
    FixedReqPerConn,
    RandReqPerConn,
    Regular,
    SessionScript,
    SimConfig,
    StuffFixed,
    StuffRandom,
    WebConfig,
    _group_sizes,
    _schedule_plans,
    _workflow,
    generate_c2_traces,
    generate_web_traces,
    interactive_script,
    sample_script,
    simulate_session,
    substream,
)

CFG = SimConfig(seed=11)


def script(*cmds, gap=0.5):
    commands = tuple(Command(f"c{i}", req, resp) for i, (req, resp) in enumerate(cmds))
    return SessionScript(commands, (gap,) * len(commands))


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
    assert all(len(c.exchanges) == 1 for c in result.conns)
    for conn in result.conns:
        sizes = [m.size for m in conn.records()]
        assert len(sizes) == 2


def test_fixed_grouping_three_requests_six_records():
    sc = script((60, 300), (70, 2000), (50, 400))
    cfg = SimConfig(mode=FixedReqPerConn(3), seed=11)
    result = simulate_session(sc, cfg)
    assert len(result.conns[0].exchanges) == 3
    assert len(result.conns[0].records()) == 6


def test_rand_grouping_sizes_within_bounds():
    rng = substream(3, "t")
    for n in (1, 2, 7, 23, 60):
        sizes = _group_sizes(RandReqPerConn(2, 6), n, rng)
        assert sum(sizes) == n
        assert all(1 <= s <= 6 for s in sizes)
        # only the remainder may fall below the lower bound
        assert all(s >= 2 for s in sizes[:-1])


def test_fixed_stuffing_inflates_every_record():
    sc = script((60, 300))
    plain = simulate_session(sc, SimConfig(seed=11))
    stuffed = simulate_session(sc, SimConfig(mode=StuffFixed(50), seed=11))
    frame = CFG.size_model.framed_size
    for p, s in zip(plain.conns[0].records(), stuffed.conns[0].records()):
        assert s.stuffing == 50
        assert s.size == frame(p.content + 50)


def test_random_stuffing_bounded():
    sc = script((60, 300), (80, 5000))
    result = simulate_session(sc, SimConfig(mode=StuffRandom(1, 1400), seed=4))
    for conn in result.conns:
        for m in conn.records():
            assert 1 <= m.stuffing <= 1400
            assert m.size <= MAX_RECORD_SIZE


def test_reshaping_preserves_the_workflow():
    sc = script((60, 300), (70, 2000), (55, 800))
    runs = [
        simulate_session(sc, SimConfig(mode=mode, seed=11))
        for mode in (Regular(), StuffFixed(50), StuffRandom(1, 1400), FixedReqPerConn(3))
    ]
    skeletons = [
        [(m.time, m.direction, m.content) for c in r.conns for m in c.records()]
        for r in runs
    ]
    assert all(s == skeletons[0] for s in skeletons[1:])
    assert len({r.runtime for r in runs}) == 1


def test_session_determinism():
    sc = script((60, 300), (70, 2000))
    a = simulate_session(sc, SimConfig(mode=StuffRandom(1, 1400), seed=9), session_index=2)
    b = simulate_session(sc, SimConfig(mode=StuffRandom(1, 1400), seed=9), session_index=2)
    assert a.conns == b.conns
    c = simulate_session(sc, SimConfig(mode=StuffRandom(1, 1400), seed=9), session_index=3)
    assert a.conns != c.conns


def test_generate_c2_traces_counts_and_clock():
    flows = generate_c2_traces(17, SimConfig(seed=21))
    assert len(flows.traces) == 17
    assert len(flows.conn_records) == 17
    assert flows.sessions >= 1
    opens = [t.open_time for t in flows.traces]
    assert opens == sorted(opens)
    assert opens[0] > 0


def test_generated_sizes_are_framed():
    flows = generate_c2_traces(10, SimConfig(seed=21))
    for trace in flows.traces:
        for rec in trace.records:
            assert CFG.size_model.on_grid(rec.size)


def test_web_traces_shape():
    flows = generate_web_traces(40, SimConfig(seed=5), WebConfig())
    assert len(flows.traces) == 40
    for t in flows.traces:
        assert t.records[0].direction is Direction.PAYLOAD_TO_FRAMEWORK
        assert all(1 <= r.size <= MAX_RECORD_SIZE for r in t.records)
        assert len(t.records) >= 1


def test_web_traces_deterministic_and_seed_sensitive():
    a = generate_web_traces(12, SimConfig(seed=5))
    b = generate_web_traces(12, SimConfig(seed=5))
    c = generate_web_traces(12, SimConfig(seed=6))
    assert [t.records for t in a.traces] == [t.records for t in b.traces]
    assert [t.records for t in a.traces] != [t.records for t in c.traces]


def test_script_samplers():
    sc = sample_script(substream(1, "s"))
    assert 3 <= len(sc.commands) <= 8
    inter = interactive_script(substream(1, "i"))
    assert len(inter.commands) == 12
    assert all(0.8 <= g <= 1.6 for g in inter.gaps)


def _toy_plan(n_records, side):
    dirs = [Direction.PAYLOAD_TO_FRAMEWORK, Direction.FRAMEWORK_TO_PAYLOAD]
    targets = tuple(
        PlanTarget(i, dirs[i % 2], 640 if i % 2 == 0 else 480)
        for i in range(n_records)
        if side.covers(dirs[i % 2])
    )
    profile = tuple(640 if i % 2 == 0 else 480 for i in range(n_records))
    return StuffingPlan(n_records=n_records, targets=targets, profile=profile)


def test_adversarial_session_realizes_targets():
    side = StuffSide.TWO_SIDE
    lib = tuple(_toy_plan(n, side) for n in (4, 6, 8))
    sc = script((60, 300), (70, 400), (55, 300), (60, 350), (62, 310))
    cfg = SimConfig(mode=Adversarial(side, lib), seed=13)
    result = simulate_session(sc, cfg)
    frame = cfg.size_model.framed_size
    assert result.missing_next_size == 0
    for conn in result.conns:
        assert len(conn.exchanges) >= 2  # no orphan connections
        for _kind, req, resp in conn.exchanges:
            # targets bind unless content already overflows them
            assert req.size == max(640, frame(req.content))
            assert resp.size >= 480

    # grouping follows plan lengths, timing is untouched
    plain = simulate_session(sc, SimConfig(seed=13))
    assert result.runtime == plain.runtime
    flat_adv = [m.time for c in result.conns for m in c.records()]
    flat_plain = [m.time for c in plain.conns for m in c.records()]
    assert flat_adv == flat_plain


def test_adversarial_mode_needs_library():
    with pytest.raises(ValueError):
        Adversarial(StuffSide.TWO_SIDE, ())


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
    dirs = (Direction.PAYLOAD_TO_FRAMEWORK, Direction.FRAMEWORK_TO_PAYLOAD)
    targets = tuple(
        PlanTarget(i, dirs[i % 2], draw(sizes)) for i in range(n_records) if covered[i]
    )
    profiled = draw(st.booleans())
    profile = tuple(draw(st.lists(sizes, min_size=n_records, max_size=n_records))) if profiled else ()
    return StuffingPlan(n_records=n_records, targets=targets, profile=profile)


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
    # both consumed exactly the same draws
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state

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
    scanned = next((t.size for t in plan.targets if t.position == position), None)
    assert plan.target_at(position) == scanned
