"""Capture-file to flow-trace extraction.

Frames are read one at a time and grouped into TCP connections. A
connection is finished once it has closed (both endpoints sent a FIN, or
either sent an RST) or at the end of the capture: each direction is
reassembled in sequence order, TLS records are walked out of the byte
stream, and its segments are dropped. So extraction holds only the
connections open at the current point of the capture. Only
application-data records (content type 23) become RecordEvents; everything
else is skipped, and its anomalies are counted.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterator, NamedTuple

from .model import MAX_RECORD_SIZE, Direction, FlowTrace, RecordEvent
from .sizing import RECORD_HEADER_LEN, TLS_APPDATA, TLS_CONTENT_TYPES
from .wire import FIN, RST, SYN, PcapFormatError, parse_frame, read_packets

TLS_MAX_RECORD_LEN = 2**14 + 2048

Endpoint = tuple[str, int]


class TcpStreamKey(NamedTuple):
    """Order-independent identity of a TCP connection.

    A named tuple rather than a dataclass: extraction hashes one per segment.
    """

    a: Endpoint
    b: Endpoint

    @classmethod
    def from_endpoints(cls, e1: Endpoint, e2: Endpoint) -> "TcpStreamKey":
        lo, hi = sorted((e1, e2))
        return cls(lo, hi)


@dataclass
class ExtractionCounters:
    frames_total: int = 0
    frames_skipped: int = 0
    tcp_gaps: int = 0
    duplicate_segments: int = 0
    tls_parse_errors: int = 0
    incomplete_records: int = 0
    flows_without_appdata: int = 0
    # data segments and SYNs on a 4-tuple whose connection has closed
    segments_after_close: int = 0

    def to_dict(self) -> dict[str, int]:
        return dict(vars(self))


# Not frozen: one is built per frame, and frozen dataclasses are slow to build.
@dataclass(slots=True)
class SegmentRecord:
    index: int
    timestamp: float
    key: TcpStreamKey
    src: Endpoint
    seq: int
    flags: int
    payload: bytes


# Endpoint pairs read_pcap keeps stream keys for: two per open connection.
_ENDPOINT_PAIRS = 4096


def read_pcap(path: str | Path, counters: ExtractionCounters) -> Iterator[SegmentRecord]:
    """Yield every TCP segment of a capture, non-TCP frames counted and skipped.

    Frames are counted into counters once the capture has been read to its
    end. A frame parse_frame rejects raises its PcapFormatError, prefixed
    with the frame's 0-based packet index.
    """
    # One stream key and source endpoint per (source, destination) pair,
    # emptied when full so that it does not grow with the capture.
    endpoints: dict[tuple[str, int, str, int], tuple[TcpStreamKey, Endpoint]] = {}
    frames = segments = 0
    for index, (timestamp, frame) in enumerate(read_packets(path)):
        frames += 1
        try:
            parsed = parse_frame(frame)
        except PcapFormatError as exc:
            raise PcapFormatError(f"packet {index}: {exc}") from None
        if parsed is None:
            continue
        pair = (parsed.src_ip, parsed.src_port, parsed.dst_ip, parsed.dst_port)
        known = endpoints.get(pair)
        if known is None:
            if len(endpoints) >= _ENDPOINT_PAIRS:
                endpoints.clear()
            src = (parsed.src_ip, parsed.src_port)
            known = endpoints[pair] = (TcpStreamKey.from_endpoints(src, (parsed.dst_ip, parsed.dst_port)), src)
        key, src = known
        segments += 1
        yield SegmentRecord(index, timestamp, key, src, parsed.seq, parsed.flags, parsed.payload)
    counters.frames_total += frames
    counters.frames_skipped += frames - segments


@dataclass
class _DirectionStream:
    data: bytes
    # Cumulative end offset of each appended chunk plus the segment that
    # supplied it; lets a record be timestamped by its completing segment.
    mark_ends: list[int]
    mark_ts: list[float]
    mark_idx: list[int]


_SEQ_ORDER = attrgetter("seq", "index")


def reassemble(segments: list[SegmentRecord], counters: ExtractionCounters) -> _DirectionStream:
    """Rebuild one direction's byte stream from its segments.

    Duplicates are dropped, overlaps keep the previously seen bytes, and a
    sequence gap terminates the stream: bytes after a hole cannot be framed.
    """
    stream = _DirectionStream(b"", [], [], [])
    if not segments:
        return stream
    base = None
    for seg in segments:
        if seg.flags & SYN:
            base = (seg.seq + 1) & 0xFFFFFFFF
            break
    data_segs = [s for s in segments if s.payload]
    data_segs.sort(key=_SEQ_ORDER)
    if base is None:
        if not data_segs:
            return stream
        base = data_segs[0].seq
    chunks: list[bytes] = []
    mark_ends, mark_ts, mark_idx = stream.mark_ends, stream.mark_ts, stream.mark_idx
    expected = base
    for seg in data_segs:
        payload = seg.payload
        rel = (seg.seq - base) & 0xFFFFFFFF
        if rel > 0x7FFFFFFF:  # before the ISN, stale
            counters.duplicate_segments += 1
            continue
        offset = base + rel
        if offset == expected:
            chunks.append(payload)
            expected += len(payload)
        elif offset < expected:
            overlap = expected - offset
            if overlap >= len(payload):
                counters.duplicate_segments += 1
                continue
            counters.duplicate_segments += 1
            tail = payload[overlap:]
            chunks.append(tail)
            expected += len(tail)
        else:
            counters.tcp_gaps += 1
            break
        mark_ends.append(expected - base)
        mark_ts.append(seg.timestamp)
        mark_idx.append(seg.index)
    stream.data = b"".join(chunks)
    return stream


# Not frozen: one is built per record.
@dataclass(slots=True)
class TlsRecordInfo:
    content_type: int
    size: int
    timestamp: float
    completing_index: int


def parse_tls_records(stream: _DirectionStream, counters: ExtractionCounters) -> list[TlsRecordInfo]:
    """Walk TLS records out of a reassembled direction.

    An unknown content type or an oversize length field means the walker has
    desynchronized; the rest of the stream is abandoned and counted. A record
    whose body runs past the capture is merely incomplete.
    """
    data = stream.data
    n = len(data)
    records: list[TlsRecordInfo] = []
    pos = 0
    while pos + RECORD_HEADER_LEN <= n:
        ctype = data[pos]
        length = (data[pos + 3] << 8) | data[pos + 4]
        if ctype not in TLS_CONTENT_TYPES or length > TLS_MAX_RECORD_LEN:
            counters.tls_parse_errors += 1
            break
        end = pos + RECORD_HEADER_LEN + length
        if end > n:
            counters.incomplete_records += 1
            break
        if length > 0:
            mark = bisect.bisect_left(stream.mark_ends, end)
            records.append(TlsRecordInfo(ctype, length, stream.mark_ts[mark], stream.mark_idx[mark]))
        pos = end
    return records


# A record's completion time, then its completing frame; stable for records
# that one frame completes.
_TIME_ORDER = itemgetter(0, 1)
# the flags that open or close a connection
_CONTROL = SYN | FIN | RST


@dataclass(slots=True)
class _OpenConnection:
    # position among the capture's connections, by first segment
    order: int
    # segments by source endpoint, in capture order
    by_src: dict[Endpoint, list[SegmentRecord]]
    # source of the first SYN: that endpoint is the client
    syn_src: Endpoint | None = None
    # endpoints that sent a FIN; the connection has closed once both have
    fin_srcs: set[Endpoint] = field(default_factory=set)


def _connection_trace(key: TcpStreamKey, conn: _OpenConnection, counters: ExtractionCounters) -> FlowTrace | None:
    """The connection's trace, or None when it carried no application data."""
    by_src = conn.by_src
    # without a SYN, whoever sent first is the client
    client = conn.syn_src or next(iter(by_src))
    server = key.b if client == key.a else key.a
    conn_id = f"{client[0]}:{client[1]}-{server[0]}:{server[1]}"

    merged: list[tuple[float, int, Direction, int]] = []
    for endpoint, direction in (
        (client, Direction.PAYLOAD_TO_FRAMEWORK),
        (server, Direction.FRAMEWORK_TO_PAYLOAD),
    ):
        stream = reassemble(by_src.get(endpoint, []), counters)
        for rec in parse_tls_records(stream, counters):
            if rec.content_type != TLS_APPDATA:
                continue
            # the walker admits TLS 1.2 CBC expansion, past what a feature can hold
            if rec.size > MAX_RECORD_SIZE:
                raise PcapFormatError(
                    f"connection {conn_id}: application-data record of {rec.size} bytes exceeds {MAX_RECORD_SIZE}"
                )
            merged.append((rec.timestamp, rec.completing_index, direction, rec.size))
    if not merged:
        counters.flows_without_appdata += 1
        return None
    merged.sort(key=_TIME_ORDER)
    return FlowTrace(conn_id, tuple(RecordEvent(ts, direction, size) for ts, _idx, direction, size in merged))


def traces_from_pcap(path: str | Path) -> tuple[list[FlowTrace], ExtractionCounters]:
    """Extract one FlowTrace per TCP connection that carried application data.

    Traces come in the order of each connection's first segment. A data
    segment or a SYN on a connection that has closed is counted as
    segments_after_close and not merged; bare ACKs and FINs there change
    nothing and are dropped. Of several connections whose records are too
    large for a feature, the first by first segment is named, and a frame
    that cannot be parsed takes precedence over all of them.
    """
    counters = ExtractionCounters()
    open_conns: dict[TcpStreamKey, _OpenConnection] = {}
    closed: set[TcpStreamKey] = set()
    # one slot per connection in first-segment order, filled when it finishes
    slots: list[FlowTrace | PcapFormatError | None] = []

    def finish(key: TcpStreamKey, conn: _OpenConnection) -> None:
        try:
            slots[conn.order] = _connection_trace(key, conn, counters)
        except PcapFormatError as exc:
            # raised once the whole capture has been read
            slots[conn.order] = exc

    for seg in read_pcap(path, counters):
        key = seg.key
        conn = open_conns.get(key)
        if conn is None:
            if key in closed:
                if seg.payload or seg.flags & SYN:
                    counters.segments_after_close += 1
                continue
            conn = open_conns[key] = _OpenConnection(len(slots), {})
            slots.append(None)
        own = conn.by_src.get(seg.src)
        if own is None:
            own = conn.by_src[seg.src] = []
        own.append(seg)
        flags = seg.flags
        if flags & _CONTROL:
            if flags & SYN and conn.syn_src is None:
                conn.syn_src = seg.src
            if flags & FIN:
                conn.fin_srcs.add(seg.src)
            if flags & RST or len(conn.fin_srcs) == 2:
                del open_conns[key]
                closed.add(key)
                finish(key, conn)
    for key, conn in open_conns.items():
        finish(key, conn)
    for result in slots:
        if isinstance(result, PcapFormatError):
            raise result
    return [trace for trace in slots if trace is not None], counters
