"""Capture-file to flow-trace extraction.

Frames are grouped into TCP connections, each direction is reassembled in
sequence order, and TLS records are walked out of the byte stream. Only
application-data records (content type 23) become RecordEvents; everything
else is skipped, and its anomalies are counted.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from pathlib import Path

from .model import MAX_RECORD_SIZE, Direction, FlowTrace, RecordEvent
from .sizing import RECORD_HEADER_LEN, TLS_APPDATA, TLS_CONTENT_TYPES
from .wire import SYN, PcapFormatError, parse_frame, read_packets

TLS_MAX_RECORD_LEN = 2**14 + 2048

Endpoint = tuple[str, int]


@dataclass(frozen=True)
class TcpStreamKey:
    """Order-independent identity of a TCP connection."""

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


def read_pcap(path: str | Path) -> tuple[list[SegmentRecord], ExtractionCounters]:
    """Load every TCP segment of a capture, non-TCP frames counted and skipped."""
    counters = ExtractionCounters()
    segments: list[SegmentRecord] = []
    # One key per (source, destination) pair rather than one per frame.
    keys: dict[tuple[Endpoint, Endpoint], TcpStreamKey] = {}
    for index, (timestamp, frame) in enumerate(read_packets(path)):
        counters.frames_total += 1
        parsed = parse_frame(frame)
        if parsed is None:
            counters.frames_skipped += 1
            continue
        src = (parsed.src_ip, parsed.src_port)
        dst = (parsed.dst_ip, parsed.dst_port)
        key = keys.get((src, dst))
        if key is None:
            key = keys[src, dst] = TcpStreamKey.from_endpoints(src, dst)
        segments.append(
            SegmentRecord(
                index=index,
                timestamp=timestamp,
                key=key,
                src=src,
                seq=parsed.seq,
                flags=parsed.flags,
                payload=parsed.payload,
            )
        )
    return segments, counters


@dataclass
class _DirectionStream:
    data: bytes
    # Cumulative end offset of each appended chunk plus the segment that
    # supplied it; lets a record be timestamped by its completing segment.
    mark_ends: list[int]
    mark_ts: list[float]
    mark_idx: list[int]


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
    data_segs = sorted((s for s in segments if s.payload), key=lambda s: (s.seq, s.index))
    if base is None:
        if not data_segs:
            return stream
        base = data_segs[0].seq
    chunks: list[bytes] = []
    expected = base
    for seg in data_segs:
        rel = (seg.seq - base) & 0xFFFFFFFF
        if rel > 0x7FFFFFFF:  # before the ISN, stale
            counters.duplicate_segments += 1
            continue
        offset = base + rel
        if offset == expected:
            chunks.append(seg.payload)
            expected += len(seg.payload)
        elif offset < expected:
            overlap = expected - offset
            if overlap >= len(seg.payload):
                counters.duplicate_segments += 1
                continue
            counters.duplicate_segments += 1
            tail = seg.payload[overlap:]
            chunks.append(tail)
            expected += len(tail)
        else:
            counters.tcp_gaps += 1
            break
        stream.mark_ends.append(expected - base)
        stream.mark_ts.append(seg.timestamp)
        stream.mark_idx.append(seg.index)
    stream.data = b"".join(chunks)
    return stream


@dataclass(frozen=True)
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
    records: list[TlsRecordInfo] = []
    pos = 0
    while pos + RECORD_HEADER_LEN <= len(data):
        ctype = data[pos]
        length = (data[pos + 3] << 8) | data[pos + 4]
        if ctype not in TLS_CONTENT_TYPES or length > TLS_MAX_RECORD_LEN:
            counters.tls_parse_errors += 1
            break
        end = pos + RECORD_HEADER_LEN + length
        if end > len(data):
            counters.incomplete_records += 1
            break
        if length > 0:
            mark = bisect.bisect_left(stream.mark_ends, end)
            records.append(
                TlsRecordInfo(
                    content_type=ctype,
                    size=length,
                    timestamp=stream.mark_ts[mark],
                    completing_index=stream.mark_idx[mark],
                )
            )
        pos = end
    return records


def traces_from_pcap(path: str | Path) -> tuple[list[FlowTrace], ExtractionCounters]:
    """Extract one FlowTrace per TCP connection that carried application data."""
    segments, counters = read_pcap(path)
    by_key: dict[TcpStreamKey, list[SegmentRecord]] = {}
    for seg in segments:
        by_key.setdefault(seg.key, []).append(seg)

    traces: list[FlowTrace] = []
    for key, segs in by_key.items():
        client = None
        for seg in segs:
            if seg.flags & SYN:
                client = seg.src
                break
        if client is None:
            client = segs[0].src
        server = key.b if client == key.a else key.a
        conn_id = f"{client[0]}:{client[1]}-{server[0]}:{server[1]}"

        merged: list[tuple[float, int, Direction, int]] = []
        for endpoint, direction in (
            (client, Direction.PAYLOAD_TO_FRAMEWORK),
            (server, Direction.FRAMEWORK_TO_PAYLOAD),
        ):
            own = [s for s in segs if s.src == endpoint]
            stream = reassemble(own, counters)
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
            continue
        merged.sort(key=lambda item: (item[0], item[1]))
        records = tuple(RecordEvent(ts, direction, size) for ts, _idx, direction, size in merged)
        traces.append(FlowTrace(conn_id, records))
    return traces, counters
