"""Reassembly and TLS record walking against hand-built segment streams."""

import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from c2lab.extract import (
    ExtractionCounters,
    SegmentRecord,
    TcpStreamKey,
    parse_tls_records,
    read_pcap,
    reassemble,
    traces_from_pcap,
)
from c2lab.model import Direction
from c2lab.sim import (
    RecordTooLargeError,
    SimConfig,
    conn_wire_bytes,
    emit_pcap,
    generate_c2_traces,
    generate_web_traces,
)
from c2lab import extract
from c2lab.wire import ACK, FIN, PSH, RST, SYN, PcapFormatError, PcapWriter, build_frame, parse_frame, read_packets

CLIENT = ("10.0.0.1", 40001)
SERVER = ("10.8.0.2", 443)
KEY = TcpStreamKey.from_endpoints(CLIENT, SERVER)


def seg(seq, payload, ts=0.0, idx=0, flags=PSH | ACK):
    return SegmentRecord(
        index=idx, timestamp=ts, key=KEY, src=CLIENT, seq=seq, flags=flags,
        payload=payload,
    )


def tls(ctype, body):
    return bytes([ctype, 3, 3, (len(body) >> 8) & 0xFF, len(body) & 0xFF]) + body


def test_in_order_reassembly():
    c = ExtractionCounters()
    stream = reassemble([seg(0, b"abc", idx=0), seg(3, b"def", idx=1)], c)
    assert stream.data == b"abcdef"
    assert c.tcp_gaps == 0 and c.duplicate_segments == 0


def test_reorder_is_repaired():
    c = ExtractionCounters()
    stream = reassemble([seg(3, b"def", idx=1), seg(0, b"abc", idx=0)], c)
    assert stream.data == b"abcdef"


def test_pure_duplicate_dropped():
    c = ExtractionCounters()
    stream = reassemble([seg(0, b"abcd", idx=0), seg(0, b"abcd", idx=1)], c)
    assert stream.data == b"abcd"
    assert c.duplicate_segments == 1


def test_partial_overlap_keeps_first_copy():
    c = ExtractionCounters()
    stream = reassemble([seg(0, b"abcd", idx=0), seg(2, b"cdEF", idx=1)], c)
    assert stream.data == b"abcdEF"
    assert c.duplicate_segments == 1


def test_gap_truncates_stream():
    c = ExtractionCounters()
    stream = reassemble([seg(0, b"ab", idx=0), seg(10, b"zz", idx=1)], c)
    assert stream.data == b"ab"
    assert c.tcp_gaps == 1


def test_syn_fixes_the_base_sequence():
    c = ExtractionCounters()
    stream = reassemble([seg(99, b"", flags=SYN, idx=0), seg(100, b"xy", idx=1)], c)
    assert stream.data == b"xy"


def test_stale_segment_before_isn_ignored():
    c = ExtractionCounters()
    stream = reassemble([seg(1000, b"", flags=SYN, idx=0), seg(500, b"old", idx=1), seg(1001, b"new", idx=2)], c)
    assert stream.data == b"new"
    assert c.duplicate_segments == 1


@given(st.binary(min_size=1, max_size=400), st.data())
def test_reassembly_from_random_split(blob, data):
    # cut the stream at random points, deliver in seq order with duplicates
    n_cuts = data.draw(st.integers(min_value=0, max_value=6))
    cuts = sorted(data.draw(st.sets(st.integers(min_value=1, max_value=max(1, len(blob) - 1)), max_size=n_cuts)))
    bounds = [0, *cuts, len(blob)]
    segs = [seg(a, blob[a:b], idx=i) for i, (a, b) in enumerate(zip(bounds, bounds[1:])) if b > a]
    c = ExtractionCounters()
    assert reassemble(segs, c).data == blob


def test_single_appdata_record_from_21_bytes():
    c = ExtractionCounters()
    stream = reassemble([seg(0, tls(23, b"\x00" * 16), ts=4.5, idx=9)], c)
    assert len(stream.data) == 21
    records = parse_tls_records(stream, c)
    assert len(records) == 1
    assert records[0].content_type == 23
    assert records[0].size == 16
    assert records[0].timestamp == 4.5
    assert records[0].completing_index == 9


def test_record_split_across_segments_timestamped_by_completion():
    body = tls(23, b"\x01" * 100)
    c = ExtractionCounters()
    stream = reassemble([seg(0, body[:30], ts=1.0, idx=0), seg(30, body[30:], ts=2.0, idx=1)], c)
    records = parse_tls_records(stream, c)
    assert [r.size for r in records] == [100]
    assert records[0].timestamp == 2.0


def test_back_to_back_records():
    blob = tls(22, b"h" * 50) + tls(23, b"a" * 64) + tls(23, b"b" * 32)
    c = ExtractionCounters()
    records = parse_tls_records(reassemble([seg(0, blob)], c), c)
    assert [(r.content_type, r.size) for r in records] == [(22, 50), (23, 64), (23, 32)]


def test_unknown_content_type_desynchronizes():
    blob = tls(23, b"a" * 8) + b"\x99garbage-that-never-parses"
    c = ExtractionCounters()
    records = parse_tls_records(reassemble([seg(0, blob)], c), c)
    assert [r.size for r in records] == [8]
    assert c.tls_parse_errors == 1


def test_oversize_length_field_rejected():
    bad = bytes([23, 3, 3, 0xFF, 0xFF])  # 65535 > 2^14 + 2048
    c = ExtractionCounters()
    assert parse_tls_records(reassemble([seg(0, bad)], c), c) == []
    assert c.tls_parse_errors == 1


def test_incomplete_record_counted_not_fatal():
    blob = tls(23, b"a" * 40)[:-10]
    c = ExtractionCounters()
    assert parse_tls_records(reassemble([seg(0, blob)], c), c) == []
    assert c.incomplete_records == 1


def test_zero_length_record_skipped():
    blob = tls(23, b"") + tls(23, b"x" * 24)
    c = ExtractionCounters()
    records = parse_tls_records(reassemble([seg(0, blob)], c), c)
    assert [r.size for r in records] == [24]


# ---------------------------------------------------------------------------
# whole-capture round trips against the generator's own plan


def _client(idx):
    return (f"10.0.{idx // 20000}.1", 40000 + idx % 20000)


def _conn_id(idx):
    return "{}:{}-{}:{}".format(*_client(idx), *SERVER)


def test_capture_roundtrip_c2_and_web(tmp_path):
    cfg = SimConfig(seed=31)
    c2 = generate_c2_traces(25, cfg)
    web = generate_web_traces(15, cfg, seed=32)
    planned = c2.conn_records + web.conn_records
    path = tmp_path / "mix.pcap"
    emit_pcap(path, planned, cfg, seed=5)

    traces, counters = traces_from_pcap(path)
    assert counters.tcp_gaps == 0
    assert counters.tls_parse_errors == 0
    assert counters.incomplete_records == 0
    assert len(traces) == len(planned)

    wire_bytes = Counter()
    for _ts, frame in read_packets(path):
        parsed = parse_frame(frame)
        src, dst = (parsed.src_ip, parsed.src_port), (parsed.dst_ip, parsed.dst_port)
        wire_bytes[dst if src == SERVER else src] += len(frame)

    by_id = {t.connection_id: t for t in traces}
    for idx, records in enumerate(planned):
        got = by_id[_conn_id(idx)]
        assert [(r.direction, r.size) for r in got.records] == [
            (direction, size) for _ts, direction, size in records
        ]
        # the emitter writes exactly the bytes the accounting charged
        assert wire_bytes[_client(idx)] == conn_wire_bytes(records, cfg)


def test_capture_roundtrip_mss_split_record(tmp_path):
    cfg = SimConfig(seed=8)
    records = (
        (1.0, Direction.PAYLOAD_TO_FRAMEWORK, 304),
        (1.1, Direction.FRAMEWORK_TO_PAYLOAD, 16408),  # 12 segments at mss 1460
        (1.3, Direction.PAYLOAD_TO_FRAMEWORK, 5000),
    )
    path = tmp_path / "split.pcap"
    emit_pcap(path, [records], cfg, seed=1)
    traces, counters = traces_from_pcap(path)
    assert len(traces) == 1
    assert [r.size for r in traces[0].records] == [304, 16408, 5000]
    assert counters.incomplete_records == 0


def test_oversize_appdata_record_names_its_connection(tmp_path):
    # a TLS 1.2 CBC record can legally reach about 16460 bytes, which the
    # record walker admits but a feature vector cannot hold
    records = (
        (1.0, Direction.PAYLOAD_TO_FRAMEWORK, 304),
        (1.1, Direction.FRAMEWORK_TO_PAYLOAD, 16464),
    )
    path = tmp_path / "oversize.pcap"
    emit_pcap(path, [records], SimConfig(seed=8), seed=1)
    with pytest.raises(PcapFormatError, match=re.escape(f"connection {_conn_id(0)}") + ".* 16464 bytes"):
        traces_from_pcap(path)


@pytest.mark.parametrize("size", [65_536, 70_000])
def test_emit_refuses_a_record_its_length_field_cannot_state(tmp_path, size):
    # the header's 16-bit length would wrap, and the capture would read back
    # as different records
    ok = ((1.0, Direction.PAYLOAD_TO_FRAMEWORK, 304), (1.1, Direction.FRAMEWORK_TO_PAYLOAD, 65_535))
    big = ((2.0, Direction.PAYLOAD_TO_FRAMEWORK, 304), (2.1, Direction.FRAMEWORK_TO_PAYLOAD, size))
    path = tmp_path / "wrap.pcap"
    with pytest.raises(RecordTooLargeError, match=re.escape(f"connection 1 ({_conn_id(1)})") + f".* {size} bytes"):
        emit_pcap(path, [ok, big], SimConfig(seed=8), seed=1)
    assert not path.exists()


# ---------------------------------------------------------------------------
# a frame parse_frame rejects is named by its 0-based packet index


def _set(frame: bytes, offset: int, value: bytes) -> bytes:
    return frame[:offset] + value + frame[offset + len(value) :]


def _data_frame() -> bytes:
    return build_frame(CLIENT[0], SERVER[0], CLIENT[1], SERVER[1], 1001, 2001, PSH | ACK, b"\x17\x03\x03" + b"\x00" * 40)


BROKEN_FRAMES = {
    "truncated IPv4 header": lambda f: f[:30],
    "bad IPv4 header length": lambda f: _set(f, 14, b"\x44"),
    # cut inside the TCP header, and a total length too short for one
    "truncated TCP header": lambda f: f[:50],
    "truncated TCP header (total length)": lambda f: _set(f, 16, b"\x00\x24"),
    "bad TCP data offset": lambda f: _set(f, 46, b"\x40"),
    "TCP payload extends past frame": lambda f: f[:60],
}


@pytest.mark.parametrize("damage", sorted(BROKEN_FRAMES))
@pytest.mark.parametrize("position", [0, 3])
def test_rejected_frame_names_its_packet(tmp_path, damage, position):
    frames = [_data_frame() for _ in range(4)]
    frames[position] = BROKEN_FRAMES[damage](frames[position])
    path = tmp_path / "broken.pcap"
    with open(path, "wb") as fh:
        writer = PcapWriter(fh)
        for i, frame in enumerate(frames):
            writer.write_packet(1.0 + i, frame)
    message = damage.split(" (")[0]
    with pytest.raises(PcapFormatError, match=f"^packet {position}: {re.escape(message)}$"):
        list(read_pcap(path, ExtractionCounters()))
    with pytest.raises(PcapFormatError, match=f"^packet {position}: {re.escape(message)}$"):
        traces_from_pcap(path)


# ---------------------------------------------------------------------------
# streaming: a connection is finished once it has closed


def _write_packets(path, packets):
    with open(path, "wb") as fh:
        writer = PcapWriter(fh)
        for ts, frame in packets:
            writer.write_packet(ts, frame)
    return path


ONE_CONN = (
    (1.0, Direction.PAYLOAD_TO_FRAMEWORK, 304),
    (1.1, Direction.FRAMEWORK_TO_PAYLOAD, 2000),
)


def _after_close(path, records, frames):
    """The capture of one emitted connection, with frames of its 4-tuple after its close."""
    emit_pcap(path, [records], SimConfig(seed=8), seed=1)
    packets = list(read_packets(path))
    last = packets[-1][0]
    return _write_packets(path, packets + [(last + 0.01 * (i + 1), f) for i, f in enumerate(frames)])


def _from_client(seq, flags, payload=b""):
    client = _client(0)
    return build_frame(client[0], SERVER[0], client[1], SERVER[1], seq, 5000, flags, payload)


def test_data_and_syn_after_both_fins_are_counted_not_merged(tmp_path):
    path = _after_close(
        tmp_path / "after.pcap",
        ONE_CONN,
        [
            _from_client(9000, ACK),  # bare ACK: changes nothing
            _from_client(9000, FIN | ACK),  # retransmitted FIN: changes nothing
            _from_client(9001, PSH | ACK, tls(23, b"\x00" * 64)),
            _from_client(7000, SYN),  # the 4-tuple reused by a new connection
        ],
    )
    traces, counters = traces_from_pcap(path)
    assert [[r.size for r in t.records] for t in traces] == [[304, 2000]]
    assert counters.segments_after_close == 2
    assert counters.tcp_gaps == counters.duplicate_segments == counters.tls_parse_errors == 0


def test_an_rst_closes_the_connection(tmp_path):
    emit_pcap(tmp_path / "one.pcap", [ONE_CONN], SimConfig(seed=8), seed=1)
    packets = list(read_packets(tmp_path / "one.pcap"))
    # the RST replaces both FINs; the data segment after it is not merged
    packets = packets[:-2] + [
        (packets[-2][0], _from_client(9000, RST | ACK)),
        (packets[-1][0], _from_client(9000, PSH | ACK, tls(23, b"\x00" * 64))),
    ]
    traces, counters = traces_from_pcap(_write_packets(tmp_path / "rst.pcap", packets))
    assert [[r.size for r in t.records] for t in traces] == [[304, 2000]]
    assert counters.segments_after_close == 1


def test_a_connection_is_finished_when_it_closes(tmp_path, monkeypatch):
    # three connections one after another: each is reassembled as soon as
    # its second FIN is read, not at the end of the capture
    cfg = SimConfig(seed=8)
    conns = [tuple((ts + 2.0 * i, d, size) for ts, d, size in ONE_CONN) for i in range(3)]
    path = tmp_path / "seq.pcap"
    emit_pcap(path, conns, cfg, seed=1)
    per_conn = len(list(read_packets(path))) // 3
    frames_read = [0]
    at_reassembly = []

    def counted_read_packets(p):
        for item in read_packets(p):
            frames_read[0] += 1
            yield item

    def recorded_reassemble(segments, counters):
        at_reassembly.append(frames_read[0])
        return reassemble(segments, counters)

    monkeypatch.setattr(extract, "read_packets", counted_read_packets)
    monkeypatch.setattr(extract, "reassemble", recorded_reassemble)
    traces, _counters = traces_from_pcap(path)
    assert len(traces) == 3
    # two directions per connection
    assert at_reassembly == [per_conn] * 2 + [2 * per_conn] * 2 + [3 * per_conn] * 2


def test_the_first_connection_by_first_segment_is_named_whichever_closes_first(tmp_path):
    # connection 0 opens first and closes last; connection 1 closes first
    long_lived = ((1.0, Direction.PAYLOAD_TO_FRAMEWORK, 304), (1.1, Direction.FRAMEWORK_TO_PAYLOAD, 16464),
                  (5.0, Direction.PAYLOAD_TO_FRAMEWORK, 304))
    short = ((2.0, Direction.PAYLOAD_TO_FRAMEWORK, 304), (2.1, Direction.FRAMEWORK_TO_PAYLOAD, 16470))
    path = tmp_path / "two.pcap"
    emit_pcap(path, [long_lived, short], SimConfig(seed=8), seed=1)
    with pytest.raises(PcapFormatError, match=re.escape(f"connection {_conn_id(0)}") + ".* 16464 bytes"):
        traces_from_pcap(path)
    # a frame that cannot be parsed, after both connections, is named instead
    packets = list(read_packets(path))
    _write_packets(path, packets + [(packets[-1][0], packets[-1][1][:30])])
    with pytest.raises(PcapFormatError, match=f"^packet {len(packets)}: truncated IPv4 header$"):
        traces_from_pcap(path)
