"""Session-level traffic generator for both sides of the lab.

One simulated C2 session is a command script driven through a beacon loop:
the payload polls with empty GETs, the framework answers with queued
commands or nothing, results come back as POSTs. Empty-poll spacing doubles
from poll_initial up to poll_max and resets whenever a command is served.

Traffic-shaping modes only change message sizes and connection grouping,
never the workflow, so a reshaped run keeps the exact timing of its regular
twin. Benign browsing flows come from a separate generator with heavy-tailed
record sizes.

The same frame plan (handshake, MSS-sized data segments, teardown) backs
both the per-connection wire-byte accounting and the pcap emitter, so totals
computed here always match what a parser recovers from the file.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

# sample_plan is unused here but stays importable as sim.sample_plan, the name
# perfbench/layers.py wraps to count scalar plan draws
from .adversarial import StuffingPlan, StuffSide, chain_plans, sample_plan  # noqa: F401
from .model import Direction, FlowTrace, Provenance, RecordEvent
from .protocol import (
    FrameworkReply,
    FrameworkSession,
    HeaderCodec,
    PayloadAction,
    PayloadSession,
    framework_step,
    payload_step,
)
from .sizing import RECORD_HEADER_LEN, TlsSizeModel
from .wire import ACK, FIN, FRAME_OVERHEAD, PSH, SYN, PcapWriter, build_frame

HANDSHAKE_LEAD = 0.005  # seconds between SYN and the first record
FIN_TRAIL = 0.0015

_TLS_HANDSHAKE = 22
_TLS_APPDATA = 23


def substream(seed: int, *labels) -> np.random.Generator:
    """Independent, reproducible RNG stream named by (seed, labels)."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    keys = [zlib.crc32(str(l).encode()) for l in labels]
    return np.random.default_rng(np.random.SeedSequence([seed, *keys]))


# ---------------------------------------------------------------------------
# modes

# A naive C2 mode is the provenance its flows are labeled with; each one's
# single setting is a constant here. Ranges are inclusive.
STUFF_FIXED_BYTES = 50  # stuff50: filler added to every message
STUFF_RAND_BYTES = (1, 1400)  # stuffRand: filler drawn per message
FIXED_REQ_PER_CONN = 3  # fixed3Req: exchanges per connection
RAND_REQ_PER_CONN = (2, 6)  # randReq: exchanges drawn per connection

NAIVE_MODES = (
    Provenance.REGULAR,
    Provenance.STUFF50,
    Provenance.STUFF_RAND,
    Provenance.FIXED3_REQ,
    Provenance.RAND_REQ,
)


@dataclass(frozen=True, eq=False)
class PlanIndex:
    """A plan library as int64 rows, one per plan, for the scheduler.

    Columns are record positions, 2 * the longest plan's n_exchanges of
    them. target holds the crafted size where covered is set and 0
    elsewhere; profiled marks the uncovered positions inside n_records
    whose plan carries a profile, and profile holds those sizes.
    """

    n_exchanges: np.ndarray
    target: np.ndarray
    covered: np.ndarray
    profile: np.ndarray
    profiled: np.ndarray

    @classmethod
    def build(cls, library: Sequence[StuffingPlan]) -> "PlanIndex":
        n_exchanges = np.array([p.n_exchanges for p in library], dtype=np.int64)
        width = 2 * int(n_exchanges.max())

        def padded(values) -> list[int]:
            return list(values) + [0] * (width - len(values))

        target = np.array(
            [padded([p.target_at(i) or 0 for i in range(p.n_records)]) for p in library], dtype=np.int64
        )
        profile = np.array([padded(p.profile) for p in library], dtype=np.int64)
        n_records = np.array([p.n_records for p in library], dtype=np.int64)
        has_profile = np.array([bool(p.profile) for p in library])
        covered = target > 0
        inside = np.arange(width) < n_records[:, None]
        profiled = ~covered & inside & has_profile[:, None]
        return cls(n_exchanges, target, covered, profile, profiled)


@dataclass(frozen=True)
class Adversarial:
    side: StuffSide
    library: tuple[StuffingPlan, ...]
    index: PlanIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.library:
            raise ValueError("adversarial mode needs a plan library")
        object.__setattr__(self, "index", PlanIndex.build(self.library))


Mode = Union[Provenance, Adversarial]


# ---------------------------------------------------------------------------
# scripts

@dataclass(frozen=True)
class Command:
    name: str
    request_size: int  # tasking bytes the framework sends
    response_size: int  # result bytes the payload posts back

    def __post_init__(self) -> None:
        if self.request_size < 1 or self.response_size < 1:
            raise ValueError("command sizes must be positive")


@dataclass(frozen=True)
class SessionScript:
    """Commands with the operator idle time preceding each one."""

    commands: tuple[Command, ...]
    gaps: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.commands:
            raise ValueError("script needs at least one command")
        if len(self.gaps) != len(self.commands):
            raise ValueError("one gap per command required")
        if any(g < 0 for g in self.gaps):
            raise ValueError("negative gap")


@dataclass(frozen=True)
class CommandSpec:
    name: str
    request_range: tuple[int, int]
    response_range: tuple[int, int]

    def sample(self, rng: np.random.Generator) -> Command:
        return Command(
            self.name,
            int(rng.integers(self.request_range[0], self.request_range[1] + 1)),
            int(rng.integers(self.response_range[0], self.response_range[1] + 1)),
        )


DEFAULT_CATALOG: tuple[CommandSpec, ...] = (
    CommandSpec("sysinfo", (40, 80), (150, 400)),
    CommandSpec("ps", (30, 60), (2000, 12000)),
    CommandSpec("ipconfig", (40, 80), (600, 2500)),
    CommandSpec("route", (40, 80), (400, 1600)),
    CommandSpec("ls", (30, 60), (500, 4000)),
    CommandSpec("download /etc/shadow", (50, 90), (900, 3000)),
)

OVERHEAD_COMMANDS: tuple[CommandSpec, ...] = (
    CommandSpec("sysinfo", (40, 80), (150, 400)),
    CommandSpec("ps", (30, 60), (2000, 12000)),
    CommandSpec("getuid", (30, 60), (60, 120)),
    CommandSpec("getpid", (30, 60), (60, 120)),
    CommandSpec("ipconfig", (40, 80), (600, 2500)),
    CommandSpec("route", (40, 80), (400, 1600)),
    CommandSpec("pwd", (30, 60), (60, 150)),
    CommandSpec("ls", (30, 60), (500, 4000)),
    CommandSpec("cat /etc/shadow", (50, 90), (800, 2500)),
    CommandSpec("download /etc/shadow", (50, 90), (900, 3000)),
    CommandSpec("webcam_list", (40, 80), (60, 200)),
    CommandSpec("exit", (30, 60), (40, 80)),
)


def sample_script(rng: np.random.Generator) -> SessionScript:
    """3 to 8 commands drawn from DEFAULT_CATALOG, exponential gaps (mean 2.5 s) capped at 9 s."""
    n = int(rng.integers(3, 9))
    commands = tuple(DEFAULT_CATALOG[int(rng.integers(len(DEFAULT_CATALOG)))].sample(rng) for _ in range(n))
    gaps = tuple(float(min(rng.exponential(2.5), 9.0)) for _ in range(n))
    return SessionScript(commands, gaps)


def interactive_script(rng: np.random.Generator) -> SessionScript:
    """One operator pass over OVERHEAD_COMMANDS, typing-paced."""
    commands = tuple(spec.sample(rng) for spec in OVERHEAD_COMMANDS)
    gaps = tuple(float(rng.uniform(0.8, 1.6)) for _ in OVERHEAD_COMMANDS)
    return SessionScript(commands, gaps)


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class SimConfig:
    mode: Mode = Provenance.REGULAR  # one of NAIVE_MODES, or Adversarial
    seed: int = 0
    poll_initial: float = 1.0
    poll_max: float = 10.0
    rtt: float = 0.05
    exec_delay: float = 0.2
    get_base: int = 283  # GET request line plus headers
    post_base: int = 283  # POST headers before the result body
    response_base: int = 171  # status line plus headers
    url_jitter: int = 12  # per-session URI length variation
    response_jitter: int = 4
    handshake_wire_bytes: int = 3500
    mss: int = 1460
    size_model: TlsSizeModel = field(default_factory=TlsSizeModel)
    codec: HeaderCodec = field(default_factory=HeaderCodec)

    def __post_init__(self) -> None:
        if not isinstance(self.mode, Adversarial) and self.mode not in NAIVE_MODES:
            raise ValueError(f"mode must be a naive C2 provenance or Adversarial, got {self.mode!r}")
        if self.poll_initial <= 0 or self.poll_max < self.poll_initial:
            raise ValueError("poll_initial must be > 0 and <= poll_max")
        if self.handshake_wire_bytes < 600:
            raise ValueError("handshake_wire_bytes must be >= 600 to build a handshake")
        if self.mss < 600:
            raise ValueError("mss must be >= 600")
        for name in ("rtt", "exec_delay", "url_jitter", "response_jitter"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        # a jittered base must stay a non-negative plaintext length
        for name, jitter in (("get_base", "url_jitter"), ("post_base", "url_jitter"), ("response_base", "response_jitter")):
            value, bound = getattr(self, name), getattr(self, jitter)
            if value < bound:
                raise ValueError(f"{name} must be >= {jitter} ({bound}), got {value!r}")


@dataclass(frozen=True)
class Msg:
    time: float
    direction: Direction
    content: int  # plaintext bytes before stuffing
    stuffing: int
    size: int  # record length field on the wire


@dataclass(frozen=True)
class Conn:
    exchanges: tuple[tuple[str, Msg, Msg], ...]

    def records(self) -> list[Msg]:
        out = []
        for _kind, req, resp in self.exchanges:
            out.append(req)
            out.append(resp)
        return out


@dataclass
class SessionResult:
    conns: list[Conn]
    runtime: float
    missing_next_size: int = 0

    def n_exchanges(self) -> int:
        return sum(len(c.exchanges) for c in self.conns)


# ---------------------------------------------------------------------------
# the beacon workflow

def _workflow(script: SessionScript, cfg: SimConfig, jit_p: int, jit_f: int) -> list[tuple]:
    """(kind, t_req, req_plaintext, t_resp, resp_plaintext) per exchange."""
    events = []
    t = 0.0
    interval = cfg.poll_initial
    done = 0.0
    for cmd, gap in zip(script.commands, script.gaps):
        ready = done + gap
        while t < ready:
            events.append(("poll", t, cfg.get_base + jit_p, round(t + cfg.rtt, 6), cfg.response_base + jit_f))
            step = interval
            interval = min(interval * 2, cfg.poll_max)
            t = round(t + step, 6)
        events.append(
            ("serve", t, cfg.get_base + jit_p, round(t + cfg.rtt, 6), cfg.response_base + jit_f + cmd.request_size)
        )
        t_post = round(t + cfg.rtt + cfg.exec_delay, 6)
        events.append(
            ("result", t_post, cfg.post_base + jit_p + cmd.response_size, round(t_post + cfg.rtt, 6), cfg.response_base + jit_f)
        )
        done = round(t_post + cfg.rtt, 6)
        interval = cfg.poll_initial
        t = round(done + interval, 6)
    return events


def _group_sizes(mode: Provenance, n_exchanges: int, rng: np.random.Generator) -> list[int]:
    """Exchanges per connection, in session order."""
    sizes = []
    left = n_exchanges
    while left > 0:
        if mode is Provenance.RAND_REQ:
            per = int(rng.integers(RAND_REQ_PER_CONN[0], RAND_REQ_PER_CONN[1] + 1))
        else:
            per = FIXED_REQ_PER_CONN if mode is Provenance.FIXED3_REQ else 1
        sizes.append(min(per, left))
        left -= sizes[-1]
    return sizes


def simulate_session(script: SessionScript, cfg: SimConfig, session_index: int = 0) -> SessionResult:
    """Run one session under the configured mode.

    Reshaping never touches the workflow: message times and plaintext sizes
    are drawn from streams that do not depend on the mode, so paired runs
    stay comparable down to the last poll.
    """
    jit_rng = substream(cfg.seed, "jitter", session_index)
    jit_p = int(jit_rng.integers(-cfg.url_jitter, cfg.url_jitter + 1))
    jit_f = int(jit_rng.integers(-cfg.response_jitter, cfg.response_jitter + 1))
    events = _workflow(script, cfg, jit_p, jit_f)
    runtime = events[-1][3]

    if isinstance(cfg.mode, Adversarial):
        conns, missing = _adversarial_session(events, cfg, session_index)
        return SessionResult(conns, runtime, missing)

    stuff_rng = substream(cfg.seed, "stuff", session_index)
    group_rng = substream(cfg.seed, "group", session_index)
    frame = cfg.size_model.framed_size
    mode = cfg.mode

    def stuffing() -> int:
        if mode is Provenance.STUFF50:
            return STUFF_FIXED_BYTES
        if mode is Provenance.STUFF_RAND:
            return int(stuff_rng.integers(STUFF_RAND_BYTES[0], STUFF_RAND_BYTES[1] + 1))
        return 0

    exchanges = []
    for kind, t_req, req_pt, t_resp, resp_pt in events:
        s_req, s_resp = stuffing(), stuffing()
        exchanges.append(
            (
                kind,
                Msg(round(t_req, 6), Direction.PAYLOAD_TO_FRAMEWORK, req_pt, s_req, frame(req_pt + s_req)),
                Msg(t_resp, Direction.FRAMEWORK_TO_PAYLOAD, resp_pt, s_resp, frame(resp_pt + s_resp)),
            )
        )

    conns = []
    cursor = 0
    for take in _group_sizes(mode, len(exchanges), group_rng):
        conns.append(Conn(tuple(exchanges[cursor : cursor + take])))
        cursor += take
    return SessionResult(conns, runtime)


PLAN_CANDIDATES = 48  # library draws scored per connection
PLAN_DRAWS = 65  # draws per candidate; the last one is kept even if too long
PROFILE_WEIGHT = 0.25  # context drift is cheaper than corrupting a crafted size


def _draw_candidates(n_exchanges: np.ndarray, remaining: int, rng: np.random.Generator) -> np.ndarray:
    """Library rows of the PLAN_CANDIDATES candidates for one connection.

    Each candidate redraws while its plan needs more exchanges than remain,
    and keeps its PLAN_DRAWS-th draw regardless. Every open candidate needs
    at least one more draw, so a block of one draw per open candidate takes
    exactly the values, and leaves the generator in the state, of drawing
    them one at a time.
    """
    chosen: list[int] = []
    tries = 0  # draws spent on the candidate being drawn
    while len(chosen) < PLAN_CANDIDATES:
        block = rng.integers(len(n_exchanges), size=PLAN_CANDIDATES - len(chosen))
        for row, fits in zip(block.tolist(), (n_exchanges[block] <= remaining).tolist()):
            tries += 1
            if fits or tries == PLAN_DRAWS:
                chosen.append(row)
                tries = 0
    return np.array(chosen)


def _schedule_plans(events: list[tuple], mode: Adversarial, plan_rng: np.random.Generator, frame) -> list[StuffingPlan]:
    """The library plan each connection of the session rides, in order.

    The operator schedules each connection onto the candidate whose shape
    best matches the queued contents; only sizes the sender knows ahead of
    time feed the score. Covered positions drift only by overshoot (content
    already past the target), which corrupts a size the plan explicitly
    crafted. Uncovered positions drift by however far the queued content
    sits from the profile the plan was crafted around; that is context, not
    the attack itself, so it is discounted. Every term is a multiple of
    PROFILE_WEIGHT, so the sums are exact and ties go to the first draw.
    """
    index = mode.index
    width = index.target.shape[1]
    content = np.array([frame(pt) for ev in events for pt in (ev[2], ev[4])], dtype=np.int64)
    remaining = len(events)
    cursor = 0
    plans: list[StuffingPlan] = []
    while remaining > 0:
        rows = _draw_candidates(index.n_exchanges, remaining, plan_rng)
        # positions past the session's last exchange carry no content
        span = min(2 * remaining, width)
        window = content[2 * cursor : 2 * cursor + span]
        overshoot = np.maximum(window - index.target[rows, :span], 0) * index.covered[rows, :span]
        drift = np.abs(window - index.profile[rows, :span]) * index.profiled[rows, :span]
        err = overshoot.sum(axis=1) + PROFILE_WEIGHT * drift.sum(axis=1)
        # a lone leftover exchange would ride an ill-fitting plan; plan the
        # splits so no orphan connection remains
        err[remaining - np.minimum(index.n_exchanges[rows], remaining) == 1] += 1e6
        best = mode.library[int(rows[np.argmin(err)])]
        plans.append(best)
        took = min(best.n_exchanges, remaining)
        remaining -= took
        cursor += took
    return plans


def lockstep(
    plans: Sequence[StuffingPlan],
    side: StuffSide,
    exchanges: Iterable[tuple[int, int]],
    codec: HeaderCodec | None = None,
    size_model: TlsSizeModel | None = None,
) -> Iterator[tuple[int, PayloadAction, FrameworkReply]]:
    """Step the payload and framework machines over a chained plan sequence.

    exchanges holds one (request plaintext, response plaintext) pair per
    exchange, consumed in order; each yields (plan index, payload action,
    framework reply). A plan's last exchange closes its connection; an odd
    plan's closing response has no position to target. When the exchanges
    run out partway through a plan, the run stops there and that connection
    gets no close.
    """
    # Steady-state assumption: the implant already holds the first request's
    # target, carried over from before this session.
    seeds_payload = plans and side in (StuffSide.PAYLOAD_ONLY, StuffSide.TWO_SIDE)
    payload = PayloadSession(pending_next_size=plans[0].target_at(0) if seeds_payload else None)
    last_headers = None
    pairs = iter(exchanges)
    for i, plan in enumerate(plans):
        framework = FrameworkSession(plan=plan, side=side)
        for _ in range(plan.n_exchanges):
            pair = next(pairs, None)
            if pair is None:
                return
            action = payload_step(payload, last_headers, pair[0], size_model)
            reply = framework_step(framework, pair[1], codec, size_model)
            payload, framework, last_headers = action.state, reply.state, reply.headers
            yield i, action, reply


def run_lockstep(
    plans: Sequence[StuffingPlan],
    request_plaintexts: Sequence[int],
    response_plaintexts: Sequence[int],
    side: StuffSide,
    codec: HeaderCodec | None = None,
    size_model: TlsSizeModel | None = None,
) -> tuple[list[list[int]], int]:
    """Realized record sizes per connection, and the closes seen, of a lockstep run.

    Plaintext sizes are consumed one per message in exchange order.
    """
    connections: list[list[int]] = []
    closes = 0
    for i, action, reply in lockstep(plans, side, zip(request_plaintexts, response_plaintexts), codec, size_model):
        if i == len(connections):
            connections.append([])
        connections[i] += (action.realized_size, reply.realized_size)
        closes += reply.close
    return connections, closes


def _adversarial_session(events: list[tuple], cfg: SimConfig, session_index: int) -> tuple[list[Conn], int]:
    mode = cfg.mode
    plan_rng = substream(cfg.seed, "plans", session_index)
    plans = chain_plans(_schedule_plans(events, mode, plan_rng, cfg.size_model.framed_size))
    steps = lockstep(plans, mode.side, ((ev[2], ev[4]) for ev in events), cfg.codec, cfg.size_model)
    groups: list[list[tuple[str, Msg, Msg]]] = []
    for (kind, t_req, req_pt, t_resp, resp_pt), (i, action, reply) in zip(events, steps):
        if i == len(groups):
            groups.append([])
        groups[i].append(
            (
                kind,
                Msg(round(t_req, 6), Direction.PAYLOAD_TO_FRAMEWORK, req_pt, action.stuffing, action.realized_size),
                Msg(t_resp, Direction.FRAMEWORK_TO_PAYLOAD, resp_pt, reply.stuffing, reply.realized_size),
            )
        )
    return [Conn(tuple(g)) for g in groups], action.state.missing_next_size


# ---------------------------------------------------------------------------
# frame planning shared by wire accounting and emission

def _record_chunks(total: int, mss: int) -> list[int]:
    chunks = []
    left = total
    while left > 0:
        take = min(left, mss)
        chunks.append(take)
        left -= take
    return chunks


def _record_frames(rec_len: int, mss: int) -> int:
    """Frames one TLS record takes: its header and body split into mss chunks."""
    return -(-(RECORD_HEADER_LEN + rec_len) // mss)


def _record_wire(rec_len: int, mss: int) -> int:
    """Wire bytes of one TLS record: header, body and one frame per mss chunk."""
    return RECORD_HEADER_LEN + rec_len + FRAME_OVERHEAD * _record_frames(rec_len, mss)


# Bare TCP frames of a connection as (seconds after open or after the last
# record, from_client, flags): the handshake before the TLS flights and the two FINs.
_TCP_OPEN = ((0.0, True, SYN), (0.0002, False, SYN | ACK), (0.0004, True, ACK))
_TCP_CLOSE = ((0.0010, True, FIN | ACK), (FIN_TRAIL, False, FIN | ACK))


@lru_cache(maxsize=64)
def _handshake_record_lens(handshake_wire_bytes: int, mss: int) -> tuple[int, int]:
    """Client and server handshake record lengths filling the wire budget.

    Solved so the TCP handshake plus both flights cost handshake_wire_bytes
    on the wire exactly when possible, overshooting minimally otherwise.
    """
    client_len = 283
    remaining = handshake_wire_bytes - len(_TCP_OPEN) * FRAME_OVERHEAD - _record_wire(client_len, mss)
    for frames in range(1, 64):
        server_len = remaining - RECORD_HEADER_LEN - FRAME_OVERHEAD * frames
        if server_len >= 1 and _record_frames(server_len, mss) == frames:
            return client_len, server_len
    # no exact fit: smallest overshoot with the next frame count
    for frames in range(1, 64):
        low = (frames - 1) * mss - 4  # smallest record needing this many frames
        server_len = max(low, remaining - RECORD_HEADER_LEN - FRAME_OVERHEAD * frames)
        if server_len >= 1 and _record_frames(server_len, mss) == frames:
            return client_len, server_len
    raise ValueError("handshake budget unsatisfiable")


# Not frozen: one is built per frame, and frozen dataclasses are slow to build.
@dataclass(slots=True)
class FrameSpec:
    ts: float
    from_client: bool
    flags: int
    # (content_type, record_len, chunk_offset, chunk_len); None for bare TCP
    record: tuple[int, int, int, int] | None


def conn_frame_plan(records: Sequence[tuple[float, Direction, int]], cfg: SimConfig) -> list[FrameSpec]:
    if not records:
        raise ValueError("a connection must carry records")
    t0 = round(records[0][0] - HANDSHAKE_LEAD, 6)
    plan = [FrameSpec(round(t0 + dt, 6), from_client, flags, None) for dt, from_client, flags in _TCP_OPEN]
    c_len, s_len = _handshake_record_lens(cfg.handshake_wire_bytes, cfg.mss)
    for ts, from_client, rec_len in (
        (round(t0 + 0.0010, 6), True, c_len),
        (round(t0 + 0.0020, 6), False, s_len),
    ):
        offset = 0
        for chunk in _record_chunks(RECORD_HEADER_LEN + rec_len, cfg.mss):
            plan.append(FrameSpec(ts, from_client, PSH | ACK, (_TLS_HANDSHAKE, rec_len, offset, chunk)))
            offset += chunk
    for ts, direction, size in records:
        from_client = direction is Direction.PAYLOAD_TO_FRAMEWORK
        offset = 0
        for chunk in _record_chunks(RECORD_HEADER_LEN + size, cfg.mss):
            plan.append(FrameSpec(round(ts, 6), from_client, PSH | ACK, (_TLS_APPDATA, size, offset, chunk)))
            offset += chunk
    t_end = records[-1][0]
    plan.extend(FrameSpec(round(t_end + dt, 6), from_client, flags, None) for dt, from_client, flags in _TCP_CLOSE)
    return plan


def conn_wire_bytes(records: Sequence[tuple[float, Direction, int]], cfg: SimConfig) -> int:
    """Wire bytes of conn_frame_plan(records, cfg), without building its frames."""
    if not records:
        raise ValueError("a connection must carry records")
    total = (len(_TCP_OPEN) + len(_TCP_CLOSE)) * FRAME_OVERHEAD
    for rec_len in (*_handshake_record_lens(cfg.handshake_wire_bytes, cfg.mss), *(r[2] for r in records)):
        total += _record_wire(rec_len, cfg.mss)
    return total


def conn_open_close(records: Sequence[tuple[float, Direction, int]]) -> tuple[float, float]:
    return round(records[0][0] - HANDSHAKE_LEAD, 6), round(records[-1][0] + FIN_TRAIL, 6)


# ---------------------------------------------------------------------------
# flows out of sessions

@dataclass
class GeneratedFlows:
    """Aligned traces and raw per-connection records, ready for emission."""

    traces: list[FlowTrace]
    conn_records: list[tuple[tuple[float, Direction, int], ...]]
    sessions: int = 0
    missing_next_size: int = 0


def _conn_to_trace(records: Sequence[tuple[float, Direction, int]], cfg: SimConfig, conn_id: str) -> FlowTrace:
    open_t, close_t = conn_open_close(records)
    return FlowTrace(
        connection_id=conn_id,
        records=tuple(RecordEvent(ts, d, size) for ts, d, size in records),
        open_time=open_t,
        close_time=close_t,
        total_wire_bytes=conn_wire_bytes(records, cfg),
    )


def generate_c2_traces(n_flows: int, cfg: SimConfig) -> GeneratedFlows:
    """Simulate sessions until n_flows connections exist, on a shared clock,
    one second apart."""
    out = GeneratedFlows([], [], 0, 0)
    cursor = 1.0  # leaves room for the first handshake's lead frames
    session = 0
    while len(out.traces) < n_flows:
        script_rng = substream(cfg.seed, "script", session)
        script = sample_script(script_rng)
        result = simulate_session(script, cfg, session)
        out.missing_next_size += result.missing_next_size
        for conn in result.conns:
            if len(out.traces) >= n_flows:
                break
            records = tuple((round(m.time + cursor, 6), m.direction, m.size) for m in conn.records())
            out.conn_records.append(records)
            out.traces.append(_conn_to_trace(records, cfg, f"c2-{session}-{len(out.traces)}"))
        cursor = round(cursor + result.runtime + 1.0, 6)
        session += 1
        out.sessions = session
    return out


# ---------------------------------------------------------------------------
# benign browsing

@dataclass(frozen=True)
class WebConfig:
    tail_p: float = 0.28  # record-count tail: P(n=2) = tail_p
    max_records: int = 40
    server_prob: float = 0.62
    full_record_prob: float = 0.16  # server record is a full 16408
    ack_prob: float = 0.34  # server record is a short ack (204/JSON status)
    upload_prob: float = 0.22  # whole flow is request/ack upload rounds
    poll_prob: float = 0.18  # whole flow is repeated API polling
    request_mu: float = 5.9
    request_sigma: float = 1.0
    server_mu: float = 6.9
    server_sigma: float = 1.35
    client_mu: float = 5.6
    client_sigma: float = 0.85
    ack_mu: float = 5.4
    ack_sigma: float = 0.8
    upload_mu: float = 8.3
    upload_sigma: float = 1.3
    poll_req_mu: float = 5.75
    poll_req_sigma: float = 0.45
    poll_resp_mu: float = 6.2
    poll_resp_sigma: float = 1.1
    gap_mean: float = 0.04
    flow_spacing: float = 0.5

    def __post_init__(self) -> None:
        for name in ("server_prob", "full_record_prob", "ack_prob", "upload_prob", "poll_prob"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0 < self.tail_p <= 1:
            raise ValueError("tail_p must be in (0, 1]")
        if self.upload_prob + self.poll_prob > 1:
            raise ValueError("upload_prob + poll_prob must be <= 1")


def _upload_records(rng: np.random.Generator, web: WebConfig, t: float) -> list[tuple[float, Direction, int]]:
    # multipart/chunked POST rounds: big client body, short server ack
    records: list[tuple[float, Direction, int]] = []
    rounds = min(1 + int(rng.geometric(0.6)), 4)
    for _ in range(rounds):
        body = int(np.clip(round(rng.lognormal(web.upload_mu, web.upload_sigma)), 256, 16408))
        records.append((round(t, 6), Direction.PAYLOAD_TO_FRAMEWORK, body))
        t += rng.exponential(web.gap_mean)
        ack = int(np.clip(round(rng.lognormal(web.ack_mu, web.ack_sigma)), 80, 2048))
        records.append((round(t, 6), Direction.FRAMEWORK_TO_PAYLOAD, ack))
        t += rng.exponential(web.gap_mean)
    return records


def _api_poll_records(rng: np.random.Generator, web: WebConfig, t: float) -> list[tuple[float, Direction, int]]:
    # XHR/API polling: byte-identical requests, responses vary per poll
    records: list[tuple[float, Direction, int]] = []
    rounds = min(2 + int(rng.geometric(0.45)), 9)
    req = int(np.clip(round(rng.lognormal(web.poll_req_mu, web.poll_req_sigma)), 120, 2048))
    steady = rng.random() < 0.35  # cache hits: the answer barely changes
    base = int(np.clip(round(rng.lognormal(web.poll_resp_mu, web.poll_resp_sigma)), 90, 16408))
    for _ in range(rounds):
        records.append((round(t, 6), Direction.PAYLOAD_TO_FRAMEWORK, req))
        t += rng.exponential(web.gap_mean)
        if steady:
            size = int(np.clip(base + int(rng.integers(-8, 9)), 60, 16408))
        else:
            size = int(np.clip(round(rng.lognormal(web.poll_resp_mu, web.poll_resp_sigma)), 90, 16408))
        records.append((round(t, 6), Direction.FRAMEWORK_TO_PAYLOAD, size))
        t += rng.exponential(web.gap_mean)
    return records


def generate_web_traces(n_flows: int, cfg: SimConfig, web: WebConfig | None = None, seed: int | None = None) -> GeneratedFlows:
    """Browsing-like flows: one request, then a heavy-tailed mix of records."""
    web = web or WebConfig()
    rng = substream(cfg.seed if seed is None else seed, "web")
    out = GeneratedFlows([], [], 0, 0)
    cursor = 1.0
    full = 16408
    for i in range(n_flows):
        t = cursor
        roll = rng.random()
        if roll < web.upload_prob:
            records = _upload_records(rng, web, t)
        elif roll < web.upload_prob + web.poll_prob:
            records = _api_poll_records(rng, web, t)
        else:
            n = min(1 + int(rng.geometric(web.tail_p)), web.max_records)
            records = []
            size = int(np.clip(round(rng.lognormal(web.request_mu, web.request_sigma)), 64, 4096))
            records.append((round(t, 6), Direction.PAYLOAD_TO_FRAMEWORK, size))
            for j in range(1, n):
                t += rng.exponential(web.gap_mean)
                server = j == 1 or rng.random() < web.server_prob
                if server:
                    roll = rng.random()
                    if roll < web.full_record_prob:
                        size = full
                    elif roll < web.full_record_prob + web.ack_prob:
                        size = int(np.clip(round(rng.lognormal(web.ack_mu, web.ack_sigma)), 80, 1024))
                    else:
                        size = int(np.clip(round(rng.lognormal(web.server_mu, web.server_sigma)), 100, full))
                    records.append((round(t, 6), Direction.FRAMEWORK_TO_PAYLOAD, size))
                else:
                    size = int(np.clip(round(rng.lognormal(web.client_mu, web.client_sigma)), 40, 4096))
                    records.append((round(t, 6), Direction.PAYLOAD_TO_FRAMEWORK, size))
        recs = tuple(records)
        out.conn_records.append(recs)
        out.traces.append(_conn_to_trace(recs, cfg, f"web-{i}"))
        cursor = round(records[-1][0] + web.flow_spacing, 6)
    return out


# ---------------------------------------------------------------------------
# pcap emission

def emit_pcap(
    path: str | Path,
    conn_records: Sequence[Sequence[tuple[float, Direction, int]]],
    cfg: SimConfig,
    seed: int = 0,
) -> None:
    """Write the planned connections as a capture file.

    Every frame the wire-byte accounting promised is emitted literally:
    same chunk sizes, same overhead, ciphertext drawn from the seed.
    """
    rng = substream(seed, "ciphertext")
    entries: list[tuple[float, int, bytes]] = []
    ip_id = 0
    server = ("10.8.0.2", 443)
    for idx, records in enumerate(conn_records):
        client = (f"10.0.{idx // 20000}.1", 40000 + idx % 20000)
        seqs = {True: 1000, False: 2000}
        plan = conn_frame_plan(records, cfg)
        # One draw per connection. rng.bytes(n) draws ceil(n / 4) uint32 words
        # and drops the tail bytes, so each record's ciphertext is the head of
        # its own words in the block, and the generator ends where per-record
        # draws would leave it. One block per capture would hold it all in memory.
        rec_lens = [spec.record[1] for spec in plan if spec.record is not None and spec.record[2] == 0]
        words = rng.integers(0, 2**32, size=sum((n + 3) // 4 for n in rec_lens), dtype=np.uint32)
        ciphertext = words.astype("<u4", copy=False).tobytes()
        cipher_pos = 0
        current_blob = b""
        for spec in plan:
            src, dst = (client, server) if spec.from_client else (server, client)
            payload = b""
            if spec.record is not None:
                ctype, rec_len, offset, chunk = spec.record
                if offset == 0:
                    header = bytes([ctype, 3, 3, (rec_len >> 8) & 0xFF, rec_len & 0xFF])
                    current_blob = header + ciphertext[cipher_pos : cipher_pos + rec_len]
                    cipher_pos += 4 * ((rec_len + 3) // 4)
                payload = current_blob[offset : offset + chunk]
            if spec.flags & SYN and not spec.from_client:
                ack = seqs[True]
            elif spec.flags == SYN:
                ack = 0
            else:
                ack = seqs[not spec.from_client]
            frame = build_frame(
                src[0], dst[0], src[1], dst[1], seqs[spec.from_client], ack, spec.flags, payload, ip_id
            )
            ip_id += 1
            if spec.flags & SYN or spec.flags & FIN:
                seqs[spec.from_client] += 1
            seqs[spec.from_client] += len(payload)
            entries.append((spec.ts, len(entries), frame))
    # (timestamp, emission order) is unique, so the frames are never compared.
    entries.sort()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        writer = PcapWriter(fh)
        for ts, _order, frame in entries:
            writer.write_packet(ts, frame)
