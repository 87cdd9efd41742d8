"""In-band coordination between the stuffing endpoints.

The framework tells the payload how big its next request must be by smuggling
a size into an innocuous-looking HTTP header; connection teardown rides the
stock Connection header. Filler itself is opaque: a padding header when the
amount fits a line, URI or value growth otherwise, so any byte count the
arithmetic asks for is realizable.

Both state machines are single-owner: one framework session object per C2
session, one payload session object per implant, stepped in lockstep with
the request/response alternation by sim.lockstep.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adversarial import StuffSide, StuffingPlan, stuff_amount
from .model import Direction
from .sizing import TlsSizeModel

CRLF = b"\r\n"
MAX_NEXT_SIZE = 2**24


class CodecError(ValueError):
    """A header line that cannot be produced or understood."""


class ProtocolError(RuntimeError):
    """A state machine stepped outside its plan."""


class HeaderKind(enum.Enum):
    PADDING = "padding"
    NEXT_SIZE = "next_size"
    CONN_STATE = "conn_state"


@dataclass(frozen=True)
class StuffHeader:
    kind: HeaderKind
    value: bytes


# The two Connection header values; every connection-state header is one of them.
_KEEP_ALIVE = StuffHeader(HeaderKind.CONN_STATE, b"keep-alive")
_CLOSE = StuffHeader(HeaderKind.CONN_STATE, b"close")


class HeaderCodec:
    """Encodes, decodes and sizes the stuffing header lines.

    The names look like stock headers, so captures share no obvious marker.
    """

    # each kind's header name, ASCII-encoded
    NAMES = {
        HeaderKind.PADDING: b"X-Client-Data",
        HeaderKind.NEXT_SIZE: b"X-Correlation-Id",
        HeaderKind.CONN_STATE: b"Connection",
    }

    def encode(self, header: StuffHeader) -> bytes:
        return self.NAMES[header.kind] + b": " + header.value + CRLF

    def encoded_len(self, header: StuffHeader) -> int:
        """len(encode(header)): the name, ": ", the value and CRLF."""
        return len(self.NAMES[header.kind]) + 4 + len(header.value)

    def decode(self, line: bytes) -> StuffHeader:
        if not line.endswith(CRLF):
            raise CodecError("header line lacks CRLF terminator")
        body = line[:-2]
        name, sep, value = body.partition(b": ")
        if not sep:
            raise CodecError("header line lacks ': ' separator")
        for kind, kind_name in self.NAMES.items():
            if name == kind_name:
                self._check_value(kind, value)
                return StuffHeader(kind, value)
        raise CodecError(f"unrecognized header name {name!r}")

    def _check_value(self, kind: HeaderKind, value: bytes) -> None:
        if b"\r" in value or b"\n" in value:
            raise CodecError("header value contains line break")
        if kind is HeaderKind.NEXT_SIZE:
            if not value.isdigit():
                raise CodecError(f"size value {value!r} is not a decimal integer")
            if len(value) > 1 and value[0:1] == b"0":
                raise CodecError("size value has leading zeros")
            if int(value) > MAX_NEXT_SIZE:
                raise CodecError(f"size value {int(value)} exceeds {MAX_NEXT_SIZE}")
        elif kind is HeaderKind.CONN_STATE:
            if value not in (b"keep-alive", b"close"):
                raise CodecError(f"connection state {value!r} unknown")

    @property
    def min_padding_line(self) -> int:
        # name, ": ", one filler byte, CRLF
        return len(self.NAMES[HeaderKind.PADDING]) + 5

    def make_padding(self, total_len: int, rng: np.random.Generator | None = None) -> StuffHeader:
        """A padding line whose encoded form is exactly total_len bytes."""
        if total_len < self.min_padding_line:
            raise CodecError(
                f"padding line of {total_len} bytes impossible, minimum is {self.min_padding_line}"
            )
        fill_len = total_len - len(self.NAMES[HeaderKind.PADDING]) - 4
        if rng is None:
            value = b"x" * fill_len
        else:
            alphabet = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
            value = bytes(alphabet[i] for i in rng.integers(0, len(alphabet), fill_len))
        return StuffHeader(HeaderKind.PADDING, value)

    def make_next_size(self, size: int) -> StuffHeader:
        if size < 0 or size > MAX_NEXT_SIZE:
            raise CodecError(f"size {size} outside [0, {MAX_NEXT_SIZE}]")
        return StuffHeader(HeaderKind.NEXT_SIZE, str(size).encode("ascii"))

    def make_conn_state(self, close: bool) -> StuffHeader:
        return _CLOSE if close else _KEEP_ALIVE


_DEFAULT_CODEC = HeaderCodec()
_DEFAULT_SIZE_MODEL = TlsSizeModel()


# The step types below are not frozen: one of each is built per exchange, and
# frozen dataclasses are slow to build. No step changes a state it is given;
# each returns a new one.
@dataclass(slots=True)
class FrameworkSession:
    """Server-side cursor over one connection's stuffing plan."""

    plan: StuffingPlan
    side: StuffSide
    exchange_index: int = 0


@dataclass(slots=True)
class FrameworkReply:
    headers: tuple[StuffHeader, ...]
    stuffing: int
    realized_size: int
    close: bool
    state: FrameworkSession


def framework_step(
    state: FrameworkSession,
    content_plaintext: int,
    codec: HeaderCodec | None = None,
    size_model: TlsSizeModel | None = None,
) -> FrameworkReply:
    """Produce the control headers and stuffing for one response.

    The response position is 2*exchange_index + 1 under request/response
    alternation. The final exchange of the plan closes the connection, and
    its response hands over the next connection's first request target.
    """
    if codec is None:
        codec = _DEFAULT_CODEC
    if size_model is None:
        size_model = _DEFAULT_SIZE_MODEL
    plan, side, index = state.plan, state.side, state.exchange_index
    n_exchanges = plan.n_exchanges
    if index >= n_exchanges:
        raise ProtocolError("framework stepped past the end of its plan")
    close = index == n_exchanges - 1

    headers: tuple[StuffHeader, ...] = (codec.make_conn_state(close),)
    # Connection is a stock header already counted in content_plaintext;
    # only the size announcement adds bytes.
    control_len = 0
    if side.covers(Direction.PAYLOAD_TO_FRAMEWORK):
        next_target = plan.first_size_next_conn if close else plan.target_at(2 * index + 2)
        if next_target is not None:
            announcement = codec.make_next_size(next_target)
            headers += (announcement,)
            control_len = codec.encoded_len(announcement)
    framed = size_model.framed_size(content_plaintext + control_len)
    stuffing = 0
    if side.covers(Direction.FRAMEWORK_TO_PAYLOAD):
        own_target = plan.target_at(2 * index + 1)
        if own_target is not None:
            stuffing = stuff_amount(own_target, framed)
    return FrameworkReply(
        headers=headers,
        stuffing=stuffing,
        realized_size=framed + stuffing,
        close=close,
        state=FrameworkSession(plan, side, index + 1),
    )


@dataclass(slots=True)
class PayloadSession:
    """Client-side stuffing state: at most one pending size at a time."""

    pending_next_size: int | None = None
    missing_next_size: int = 0


@dataclass(slots=True)
class PayloadAction:
    stuffing: int
    realized_size: int
    reuse_connection: bool
    state: PayloadSession


def payload_step(
    state: PayloadSession,
    received: Sequence[StuffHeader] | None,
    content_plaintext: int,
    size_model: TlsSizeModel | None = None,
) -> PayloadAction:
    """Apply the previous response's control headers to the next request.

    received is None only for the very first request of a session, which
    then falls back to the pre-seeded pending size (zero stuffing if none,
    mirroring an implant that has not heard from its framework yet).
    """
    if size_model is None:
        size_model = _DEFAULT_SIZE_MODEL
    reuse = True
    if received is None:
        pending = state.pending_next_size
    else:
        pending = None
        for h in received:
            if h.kind is HeaderKind.NEXT_SIZE:
                pending = int(h.value)
            elif h.kind is HeaderKind.CONN_STATE:
                reuse = h.value != b"close"
    missing = state.missing_next_size + (1 if pending is None else 0)

    framed = size_model.framed_size(content_plaintext)
    stuffing = stuff_amount(pending, framed) if pending is not None else 0
    return PayloadAction(
        stuffing=stuffing,
        realized_size=framed + stuffing,
        reuse_connection=reuse,
        state=PayloadSession(pending_next_size=None, missing_next_size=missing),
    )
