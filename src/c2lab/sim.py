"""Session-level traffic generator for both sides of the lab.

One simulated C2 session is a command script driven through a beacon loop:
the payload polls with empty GETs, the framework answers with queued
commands or nothing, results come back as POSTs. Empty-poll spacing doubles
from poll_initial up to poll_max and resets whenever a command is served.

Traffic-shaping modes only change message sizes and connection grouping,
never the workflow, so a reshaped run keeps the exact timing of its regular
twin. Benign browsing flows come from a separate generator with heavy-tailed
record sizes.

A connection is a tuple of (time, direction, size) records from the
session to the dataset. conn_frame_plan lays out its frames (handshake,
MSS-sized data segments, teardown) and emit_pcap writes exactly those;
conn_shape is the plan's closed form (open time, frames, ciphertext words,
wire bytes, longest record), and a test checks that the two agree.
"""

from __future__ import annotations

import heapq
import math
import struct
import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

import numpy as np

# sample_plan is unused here but stays importable as sim.sample_plan, the name
# perfbench/layers.py wraps to count scalar plan draws
from .adversarial import StuffingPlan, StuffSide, chain_plans, sample_plan  # noqa: F401
from .model import Direction, FlowTrace, Provenance, RecordEvent
from .protocol import (
    FrameworkReply,
    FrameworkSession,
    PayloadAction,
    PayloadSession,
    framework_step,
    payload_step,
)
from .sizing import RECORD_HEADER_LEN, TLS_APPDATA, TLS_HANDSHAKE, TlsSizeModel
from .wire import ACK, FIN, FRAME_OVERHEAD, PSH, SYN, PcapWriter, build_frame

HANDSHAKE_LEAD = 0.005  # seconds between SYN and the first record
FIN_TRAIL = 0.0015

# One TLS application-data record: (time, sending endpoint, length field).
Record = tuple[float, Direction, int]


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
    """A plan library laid out for the scheduler, one row per plan.

    A plan's fit error to queued content is a sum of terms
    max(slope * content - offset, 0), in units of PROFILE_WEIGHT so that
    every term is an integer. terms[row] holds the slopes, then the offsets,
    of three terms per record position over 2 * the longest plan's
    n_exchanges positions:

    - a covered position's overshoot past its target t: slope OVERSHOOT_UNITS
      and offset OVERSHOOT_UNITS * t;
    - the drift of an uncovered position inside n_records from the profile
      size p, when the plan carries a profile: the two halves of
      |content - p|, slopes 1 and -1, offsets p and -p;
    - every other term: slope and offset 0.
    """

    n_exchanges: list[int]
    terms: np.ndarray

    @property
    def longest(self) -> int:
        """Exchanges of the library's longest plan."""
        return self.terms.shape[-1] // 2

    @classmethod
    def build(cls, library: Sequence[StuffingPlan]) -> "PlanIndex":
        n_exchanges = [p.n_exchanges for p in library]
        width = 2 * max(n_exchanges)
        target = np.array([[*(t or 0 for t in p.targets), *[0] * (width - p.n_records)] for p in library], dtype=np.int64)
        profile = np.array([[*p.profile, *[0] * (width - len(p.profile))] for p in library], dtype=np.int64)
        profiled_records = np.array([p.n_records if p.profile else 0 for p in library])
        covered = target > 0
        profiled = (~covered & (np.arange(width) < profiled_records[:, None])).astype(np.int64)
        slopes = np.stack([OVERSHOOT_UNITS * covered, profiled, -profiled], axis=1)
        offsets = np.stack([OVERSHOOT_UNITS * target, profile * profiled, -profile * profiled], axis=1)
        return cls(n_exchanges, np.stack([slopes, offsets], axis=1))


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

    def __post_init__(self) -> None:
        if not isinstance(self.mode, Adversarial) and self.mode not in NAIVE_MODES:
            raise ValueError(f"mode must be a naive C2 provenance or Adversarial, got {self.mode!r}")
        if self.poll_initial <= 0 or self.poll_max < self.poll_initial:
            raise ValueError("poll_initial must be > 0 and <= poll_max")
        if self.handshake_wire_bytes < 600:
            raise ValueError("handshake_wire_bytes must be >= 600 to build a handshake")
        if self.mss < 600:
            raise ValueError("mss must be >= 600")
        try:
            fits = _handshake_record_lens(self.handshake_wire_bytes, self.mss)[1] <= MAX_HEADER_RECORD_LEN
        except ValueError:  # no server record length meets the budget
            fits = False
        if not fits:
            raise ValueError(
                f"handshake_wire_bytes ({self.handshake_wire_bytes}) cannot be met at mss {self.mss} "
                f"with a server handshake record of at most {MAX_HEADER_RECORD_LEN} bytes"
            )
        for name in ("rtt", "exec_delay", "url_jitter", "response_jitter"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        # a jittered base must stay a non-negative plaintext length
        for name, jitter in (("get_base", "url_jitter"), ("post_base", "url_jitter"), ("response_base", "response_jitter")):
            value, bound = getattr(self, name), getattr(self, jitter)
            if value < bound:
                raise ValueError(f"{name} must be >= {jitter} ({bound}), got {value!r}")


@dataclass
class SessionResult:
    conns: list[tuple[Record, ...]]  # each a request, response, request, ... run
    runtime: float
    missing_next_size: int = 0

    def n_exchanges(self) -> int:
        return sum(len(c) for c in self.conns) // 2


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

    records: list[Record] = []
    for _kind, t_req, req_pt, t_resp, resp_pt in events:
        s_req, s_resp = stuffing(), stuffing()
        records.append((round(t_req, 6), Direction.PAYLOAD_TO_FRAMEWORK, frame(req_pt + s_req)))
        records.append((t_resp, Direction.FRAMEWORK_TO_PAYLOAD, frame(resp_pt + s_resp)))

    conns = []
    cursor = 0
    for take in _group_sizes(mode, len(events), group_rng):
        conns.append(tuple(records[2 * cursor : 2 * (cursor + take)]))
        cursor += take
    return SessionResult(conns, runtime)


PLAN_CANDIDATES = 48  # library draws scored per connection
PLAN_DRAWS = 65  # draws per candidate; the last one is kept even if too long
PROFILE_WEIGHT = 0.25  # context drift is cheaper than corrupting a crafted size
# Fit errors count in units of PROFILE_WEIGHT, so they are exact integers: a
# byte of drift costs one unit and a byte of overshoot OVERSHOOT_UNITS.
OVERSHOOT_UNITS = round(1 / PROFILE_WEIGHT)
ORPHAN_PENALTY = 10**6 * OVERSHOOT_UNITS
DRAW_BLOCK = 512  # library rows drawn from the generator per call


class _RowDraws:
    """Uniform library rows for one session, drawn from rng in blocks.

    A run of draws yields the same values however it is split into calls,
    so the rows equal one-at-a-time draws. The rng ends past the whole
    block; nothing draws from it after the session's plans are scheduled.
    """

    def __init__(self, rng: np.random.Generator, n_plans: int):
        self.rng = rng
        self.n_plans = n_plans
        self.rows: list[int] = []
        self.taken = 0

    def take(self, n: int) -> list[int]:
        while self.taken + n > len(self.rows):
            self.rows += self.rng.integers(self.n_plans, size=DRAW_BLOCK).tolist()
        self.taken += n
        return self.rows[self.taken - n : self.taken]


def _draw_candidates(index: PlanIndex, remaining: int, draws: _RowDraws) -> list[int]:
    """Library rows of the PLAN_CANDIDATES candidates for one connection.

    Each candidate redraws while its plan needs more exchanges than remain,
    and keeps its PLAN_DRAWS-th draw regardless. Every open candidate needs
    at least one more draw, so taking one row per open candidate takes
    exactly the rows that drawing them one at a time would.
    """
    if remaining >= index.longest:  # every draw fits
        return draws.take(PLAN_CANDIDATES)
    n_exchanges = index.n_exchanges
    chosen: list[int] = []
    tries = 0  # draws spent on the candidate being drawn
    while len(chosen) < PLAN_CANDIDATES:
        for row in draws.take(PLAN_CANDIDATES - len(chosen)):
            tries += 1
            if n_exchanges[row] <= remaining or tries == PLAN_DRAWS:
                chosen.append(row)
                tries = 0
    return chosen


def _schedule_plans(events: list[tuple], mode: Adversarial, plan_rng: np.random.Generator, frame) -> list[StuffingPlan]:
    """The library plan each connection of the session rides, in order.

    The operator schedules each connection onto the candidate whose shape
    best matches the queued contents; only sizes the sender knows ahead of
    time feed the score. Covered positions drift only by overshoot (content
    already past the target), which corrupts a size the plan explicitly
    crafted. Uncovered positions drift by however far the queued content
    sits from the profile the plan was crafted around; that is context, not
    the attack itself, so it is discounted. Every term is a multiple of
    PROFILE_WEIGHT, so the errors are exact and ties go to the first draw.
    """
    index = mode.index
    n_exchanges = index.n_exchanges
    content = np.array([frame(pt) for ev in events for pt in (ev[2], ev[4])], dtype=np.int64)
    draws = _RowDraws(plan_rng, len(n_exchanges))
    remaining = len(events)
    cursor = 0
    plans: list[StuffingPlan] = []
    while remaining > 0:
        rows = _draw_candidates(index, remaining, draws)
        # positions past the session's last exchange carry no content
        span = 2 * min(remaining, index.longest)
        window = content[2 * cursor : 2 * cursor + span]
        terms = index.terms[rows, :, :, :span]
        errors = np.maximum(terms[:, 0] * window - terms[:, 1], 0).sum(axis=(1, 2)).tolist()
        # a lone leftover exchange would ride an ill-fitting plan; plan the
        # splits so no orphan connection remains
        for k, row in enumerate(rows):
            if n_exchanges[row] == remaining - 1:
                errors[k] += ORPHAN_PENALTY
        best = mode.library[rows[errors.index(min(errors))]]
        plans.append(best)
        took = min(best.n_exchanges, remaining)
        remaining -= took
        cursor += took
    return plans


def lockstep(
    plans: Sequence[StuffingPlan],
    side: StuffSide,
    exchanges: Iterable[tuple[int, int]],
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
    seeds_payload = plans and side.covers(Direction.PAYLOAD_TO_FRAMEWORK)
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
            reply = framework_step(framework, pair[1], size_model=size_model)
            payload, framework, last_headers = action.state, reply.state, reply.headers
            yield i, action, reply


def _adversarial_session(events: list[tuple], cfg: SimConfig, session_index: int) -> tuple[list[tuple[Record, ...]], int]:
    mode = cfg.mode
    plan_rng = substream(cfg.seed, "plans", session_index)
    plans = chain_plans(_schedule_plans(events, mode, plan_rng, cfg.size_model.framed_size))
    steps = lockstep(plans, mode.side, ((ev[2], ev[4]) for ev in events), cfg.size_model)
    groups: list[list[Record]] = []
    for (_kind, t_req, _req_pt, t_resp, _resp_pt), (i, action, reply) in zip(events, steps):
        if i == len(groups):
            groups.append([])
        groups[i].append((round(t_req, 6), Direction.PAYLOAD_TO_FRAMEWORK, action.realized_size))
        groups[i].append((t_resp, Direction.FRAMEWORK_TO_PAYLOAD, reply.realized_size))
    return [tuple(g) for g in groups], action.state.missing_next_size


# ---------------------------------------------------------------------------
# frame planning shared by wire accounting and emission

@lru_cache(maxsize=4096)
def _chunk_layout(rec_len: int, mss: int) -> tuple[tuple[int, int], ...]:
    """(start, end) of each frame's slice of a TLS record's header and body."""
    total = RECORD_HEADER_LEN + rec_len
    return tuple((start, min(start + mss, total)) for start in range(0, total, mss))


def _record_frames(rec_len: int, mss: int) -> int:
    """Frames one TLS record takes: its header and body split into mss chunks."""
    return -(-(RECORD_HEADER_LEN + rec_len) // mss)


# Bare TCP frames of a connection as (seconds after open or after the last
# record, from_client, flags): the handshake before the TLS flights and the two FINs.
_TCP_OPEN = ((0.0, True, SYN), (0.0002, False, SYN | ACK), (0.0004, True, ACK))
_TCP_CLOSE = ((0.0010, True, FIN | ACK), (FIN_TRAIL, False, FIN | ACK))


@lru_cache(maxsize=64)
def _handshake_record_lens(handshake_wire_bytes: int, mss: int) -> tuple[int, int]:
    """Client and server handshake record lengths filling the wire budget.

    Solved so the TCP handshake plus both flights cost handshake_wire_bytes
    on the wire exactly when possible, overshooting minimally otherwise. The
    search covers every server record a TLS record header can state.
    """
    client_len = 283
    client_wire = RECORD_HEADER_LEN + client_len + FRAME_OVERHEAD * _record_frames(client_len, mss)
    remaining = handshake_wire_bytes - len(_TCP_OPEN) * FRAME_OVERHEAD - client_wire
    frame_counts = range(1, _record_frames(MAX_HEADER_RECORD_LEN, mss) + 1)
    for frames in frame_counts:
        server_len = remaining - RECORD_HEADER_LEN - FRAME_OVERHEAD * frames
        if server_len >= 1 and _record_frames(server_len, mss) == frames:
            return client_len, server_len
    # no exact fit: smallest overshoot with the next frame count
    for frames in frame_counts:
        low = (frames - 1) * mss - 4  # smallest record needing this many frames
        server_len = max(low, remaining - RECORD_HEADER_LEN - FRAME_OVERHEAD * frames)
        if server_len >= 1 and _record_frames(server_len, mss) == frames:
            return client_len, server_len
    raise ValueError("handshake budget unsatisfiable")


@lru_cache(maxsize=64)
def _handshake_shape(handshake_wire_bytes: int, mss: int) -> tuple[int, int, int, int]:
    """conn_shape's (frames, words, body, longest) of the bare TCP frames and handshake records."""
    c_len, s_len = _handshake_record_lens(handshake_wire_bytes, mss)
    frames = len(_TCP_OPEN) + len(_TCP_CLOSE) + _record_frames(c_len, mss) + _record_frames(s_len, mss)
    return frames, (c_len + 3) // 4 + (s_len + 3) // 4, c_len + s_len, max(c_len, s_len)


def conn_frame_plan(records: Sequence[Record], cfg: SimConfig) -> list[tuple[float, bool, int, int, int, int, int]]:
    """A connection's frames in plan order: its TCP handshake, both TLS
    handshake records, its records, then the two FINs.

    Each frame is (ts, from_client, flags, content_type, record_len,
    chunk_start, chunk_end), a record going out as the frames of its
    _chunk_layout; a bare TCP frame has content type 0 and an empty chunk.
    Record times are taken as given.
    """
    if not records:
        raise ValueError("a connection must carry records")
    mss = cfg.mss
    t0 = round(records[0][0] - HANDSHAKE_LEAD, 6)
    t_end = records[-1][0]
    c_len, s_len = _handshake_record_lens(cfg.handshake_wire_bytes, mss)
    flights = [(round(t0 + 0.0010, 6), True, TLS_HANDSHAKE, c_len), (round(t0 + 0.0020, 6), False, TLS_HANDSHAKE, s_len)]
    flights += [(ts, direction is Direction.PAYLOAD_TO_FRAMEWORK, TLS_APPDATA, size) for ts, direction, size in records]
    plan = [(round(t0 + dt, 6), from_client, flags, 0, 0, 0, 0) for dt, from_client, flags in _TCP_OPEN]
    for ts, from_client, ctype, rec_len in flights:
        for start, end in _chunk_layout(rec_len, mss):
            plan.append((ts, from_client, PSH | ACK, ctype, rec_len, start, end))
    plan.extend((round(t_end + dt, 6), from_client, flags, 0, 0, 0, 0) for dt, from_client, flags in _TCP_CLOSE)
    return plan


class ConnShape(NamedTuple):
    """What a connection's frame plan adds up to."""

    open_ts: float  # the earliest frame: the SYN, or a record stamped before it
    frames: int
    words: int  # ciphertext words: ceil(record_len / 4) per TLS record
    wire_bytes: int  # FRAME_OVERHEAD per frame plus every record's header and body
    longest: int  # the longest TLS record, handshake records included


def conn_shape(records: Sequence[Record], cfg: SimConfig) -> ConnShape:
    """conn_frame_plan(records, cfg) in closed form, in one pass over the
    records and building no frame."""
    if not records:
        raise ValueError("a connection must carry records")
    mss = cfg.mss
    frames, words, body, longest = _handshake_shape(cfg.handshake_wire_bytes, mss)
    earliest = round(records[0][0] - HANDSHAKE_LEAD, 6)
    for ts, _direction, size in records:
        frames += _record_frames(size, mss)
        words += (size + 3) // 4
        body += size
        if ts < earliest:
            earliest = ts
        if size > longest:
            longest = size
    headers = RECORD_HEADER_LEN * (len(records) + 2)
    return ConnShape(earliest, frames, words, FRAME_OVERHEAD * frames + headers + body, longest)


# ---------------------------------------------------------------------------
# flows out of sessions

@dataclass
class GeneratedFlows:
    """One trace per generated connection, ready for features and emission."""

    traces: list[FlowTrace]
    sessions: int = 0
    missing_next_size: int = 0

    @property
    def conn_records(self) -> list[tuple[RecordEvent, ...]]:
        return [t.records for t in self.traces]


def generate_c2_traces(n_flows: int, cfg: SimConfig) -> GeneratedFlows:
    """Simulate sessions until n_flows connections exist, on a shared clock,
    one second apart."""
    out = GeneratedFlows([])
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
            records = tuple(RecordEvent(round(t + cursor, 6), d, size) for t, d, size in conn)
            out.traces.append(FlowTrace(f"c2-{session}-{len(out.traces)}", records))
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


def _upload_records(rng: np.random.Generator, web: WebConfig, t: float) -> list[RecordEvent]:
    # multipart/chunked POST rounds: big client body, short server ack
    records: list[RecordEvent] = []
    rounds = min(1 + int(rng.geometric(0.6)), 4)
    for _ in range(rounds):
        body = int(np.clip(round(rng.lognormal(web.upload_mu, web.upload_sigma)), 256, 16408))
        records.append(RecordEvent(round(t, 6), Direction.PAYLOAD_TO_FRAMEWORK, body))
        t += rng.exponential(web.gap_mean)
        ack = int(np.clip(round(rng.lognormal(web.ack_mu, web.ack_sigma)), 80, 2048))
        records.append(RecordEvent(round(t, 6), Direction.FRAMEWORK_TO_PAYLOAD, ack))
        t += rng.exponential(web.gap_mean)
    return records


def _api_poll_records(rng: np.random.Generator, web: WebConfig, t: float) -> list[RecordEvent]:
    # XHR/API polling: byte-identical requests, responses vary per poll
    records: list[RecordEvent] = []
    rounds = min(2 + int(rng.geometric(0.45)), 9)
    req = int(np.clip(round(rng.lognormal(web.poll_req_mu, web.poll_req_sigma)), 120, 2048))
    steady = rng.random() < 0.35  # cache hits: the answer barely changes
    base = int(np.clip(round(rng.lognormal(web.poll_resp_mu, web.poll_resp_sigma)), 90, 16408))
    for _ in range(rounds):
        records.append(RecordEvent(round(t, 6), Direction.PAYLOAD_TO_FRAMEWORK, req))
        t += rng.exponential(web.gap_mean)
        if steady:
            size = int(np.clip(base + int(rng.integers(-8, 9)), 60, 16408))
        else:
            size = int(np.clip(round(rng.lognormal(web.poll_resp_mu, web.poll_resp_sigma)), 90, 16408))
        records.append(RecordEvent(round(t, 6), Direction.FRAMEWORK_TO_PAYLOAD, size))
        t += rng.exponential(web.gap_mean)
    return records


def generate_web_traces(n_flows: int, seed: int, web: WebConfig | None = None) -> GeneratedFlows:
    """Browsing-like flows: one request, then a heavy-tailed mix of records."""
    web = web or WebConfig()
    rng = substream(seed, "web")
    out = GeneratedFlows([])
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
            records.append(RecordEvent(round(t, 6), Direction.PAYLOAD_TO_FRAMEWORK, size))
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
                    records.append(RecordEvent(round(t, 6), Direction.FRAMEWORK_TO_PAYLOAD, size))
                else:
                    size = int(np.clip(round(rng.lognormal(web.client_mu, web.client_sigma)), 40, 4096))
                    records.append(RecordEvent(round(t, 6), Direction.PAYLOAD_TO_FRAMEWORK, size))
        out.traces.append(FlowTrace(f"web-{i}", tuple(records)))
        cursor = round(records[-1][0] + web.flow_spacing, 6)
    return out


# ---------------------------------------------------------------------------
# pcap emission

MAX_HEADER_RECORD_LEN = 0xFFFF  # the TLS record header's length field is 16 bits
# a TLS record header: content type, version (0x0303, TLS 1.2) and length
_TLS_RECORD_HEADER = struct.Struct("!BHH")
# a heap bound no frame reaches
_NO_FRAME = (math.inf,)


class RecordTooLargeError(ValueError):
    """A planned record longer than a TLS record header can state."""


_SERVER_IP, _SERVER_PORT = "10.8.0.2", 443


def _client_endpoint(idx: int) -> tuple[str, int]:
    return f"10.0.{idx // 20000}.1", 40000 + idx % 20000


def _conn_starts(conn_records: Sequence[Sequence[Record]], cfg: SimConfig) -> list[tuple[float, int, int, int, int]]:
    """(open time, index, first IP id, first ciphertext word, words) of each
    connection, in the order the connections open.

    Read off each connection's conn_shape, building no frame: IP ids number
    every frame in connection order, then plan order, and the ciphertext
    words follow the same order. An oversize record raises
    RecordTooLargeError here, before anything is written.
    """
    starts = []
    ip_id = word = 0
    for idx, records in enumerate(conn_records):
        shape = conn_shape(records, cfg)
        if shape.longest > MAX_HEADER_RECORD_LEN:
            client_ip, client_port = _client_endpoint(idx)
            raise RecordTooLargeError(
                f"connection {idx} ({client_ip}:{client_port}-{_SERVER_IP}:{_SERVER_PORT}): record of "
                f"{shape.longest} bytes exceeds the {MAX_HEADER_RECORD_LEN} a TLS record header can state"
            )
        starts.append((shape.open_ts, idx, ip_id, word, shape.words))
        ip_id += shape.frames
        word += shape.words
    starts.sort()
    return starts


def _conn_frames(
    idx: int, records: Sequence[Record], cfg: SimConfig, ciphertext: memoryview, ip_id: int
) -> list[tuple[float, int, bytes]]:
    """One connection's (timestamp, IP id, frame), sorted, its IP ids from ip_id on."""
    client_ip, client_port = _client_endpoint(idx)
    server_ip, server_port = _SERVER_IP, _SERVER_PORT
    frames: list[tuple[float, int, bytes]] = []
    blob, cipher_pos = b"", 0
    client_seq, server_seq = 1000, 2000
    in_order, last_ts = True, -1.0
    for ts, from_client, flags, ctype, rec_len, start, end in conn_frame_plan(records, cfg):
        if ctype and not start:
            blob = _TLS_RECORD_HEADER.pack(ctype, 0x0303, rec_len) + ciphertext[cipher_pos : cipher_pos + rec_len]
            cipher_pos += 4 * ((rec_len + 3) // 4)
        if ts < last_ts:
            in_order = False
        last_ts = ts
        # a bare frame's chunk (0, 0) is empty; SYN and FIN take one sequence number each
        payload = blob[start:end]
        step = 1 if flags & (SYN | FIN) else 0
        if from_client:
            ack = 0 if flags == SYN else server_seq
            frame = build_frame(client_ip, server_ip, client_port, server_port, client_seq, ack, flags, payload, ip_id)
            client_seq += step + len(payload)
        else:
            frame = build_frame(server_ip, client_ip, server_port, client_port, server_seq, client_seq, flags, payload, ip_id)
            server_seq += step + len(payload)
        frames.append((ts, ip_id, frame))
        ip_id += 1
    if not in_order:
        # (timestamp, IP id) is unique, so the frames are never compared
        frames.sort()
    return frames


def emit_pcap(
    path: str | Path,
    conn_records: Sequence[Sequence[Record]],
    cfg: SimConfig,
    seed: int = 0,
) -> None:
    """Write the planned connections as a capture file.

    Every frame the wire-byte accounting promised is emitted literally:
    conn_frame_plan's frames, with ciphertext drawn from the seed. Record
    times are taken as given; the generators round them to 6 places. A
    record over MAX_HEADER_RECORD_LEN bytes raises RecordTooLargeError
    naming its connection, and nothing is written.

    Frames go out in (timestamp, IP id) order, where IP ids number every
    frame in connection order, then plan order. Connections are built in
    the order they open and their frames merged through a heap, so only the
    connections open at the current point of the capture are held.
    """
    starts = _conn_starts(conn_records, cfg)
    # Ciphertext comes from the seed's ciphertext substream, as if one
    # rng.bytes(n) per record were drawn in connection order. rng.bytes(n)
    # draws ceil(n / 4) full-range uint32 words and drops the tail bytes, so
    # each record's ciphertext is the head of its own words, and a connection's
    # records take one run of words from its first word on. PCG64 makes a
    # uint32 word from each 64-bit output, low half first, so word w is a half
    # of output w // 2: a connection draws its run as raw outputs from there,
    # whatever the order connections are built in. advance() steps forward
    # only; stepping back uses the 2**128 period.
    bitgen = substream(seed, "ciphertext").bit_generator
    drawn = 0  # 64-bit outputs the generator stands after
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        write_packet = PcapWriter(fh).write_packet
        # (timestamp, IP id, position, frames) of each open connection's next frame
        heap: list[tuple[float, int, int, list[tuple[float, int, bytes]]]] = []
        n_conns, k = len(starts), 0
        while heap or k < n_conns:
            next_open = starts[k][0] if k < n_conns else math.inf
            # a connection opening no later than the next frame may precede it
            if not heap or next_open <= heap[0][0]:
                _open, idx, ip_id, word, n_words = starts[k]
                k += 1
                first, skip = divmod(word, 2)
                if first != drawn:
                    bitgen.advance((first - drawn) % 2**128)
                outputs = (skip + n_words + 1) // 2
                drawn = first + outputs
                ciphertext = memoryview(bitgen.random_raw(outputs).astype("<u8", copy=False).view(np.uint8))[4 * skip :]
                frames = _conn_frames(idx, conn_records[idx], cfg, ciphertext, ip_id)
                heapq.heappush(heap, (*frames[0][:2], 0, frames))
                continue
            # The earliest connection writes frames until another connection's
            # next frame or the next open comes first; its first frame always goes.
            _ts, _ip_id, pos, frames = heapq.heappop(heap)
            bound = heap[0] if heap else _NO_FRAME
            for pos in range(pos, len(frames)):
                frame = frames[pos]
                if frame > bound or frame[0] >= next_open:
                    heapq.heappush(heap, (frame[0], frame[1], pos, frames))
                    break
                write_packet(frame[0], frame[2])
