import io
import re
import struct

import pytest
from hypothesis import given, settings, strategies as st

from c2lab import wire
from c2lab.wire import (
    ACK,
    FRAME_OVERHEAD,
    PCAP_MAGIC,
    PSH,
    SYN,
    PcapFormatError,
    PcapWriter,
    build_frame,
    parse_frame,
    read_packets,
)
from oracles import ipv4_checksum


def test_frame_roundtrip():
    frame = build_frame("10.0.0.1", "10.8.0.2", 40000, 443, 1234, 5678, PSH | ACK, b"hello", ip_id=7)
    seg = parse_frame(frame)
    assert seg is not None
    assert (seg.src_ip, seg.dst_ip) == ("10.0.0.1", "10.8.0.2")
    assert (seg.src_port, seg.dst_port) == (40000, 443)
    assert seg.seq == 1234
    assert seg.flags == PSH | ACK
    assert seg.payload == b"hello"
    assert len(frame) == FRAME_OVERHEAD + 5


def test_ip_checksum_validates():
    frame = build_frame("10.0.0.1", "10.8.0.2", 1, 2, 0, 0, SYN)
    ip_header = frame[14:34]
    # a correct checksum folds the header sum to zero
    assert ipv4_checksum(ip_header[:10] + b"\x00\x00" + ip_header[12:]) == struct.unpack(
        "!H", ip_header[10:12]
    )[0]


def test_non_ipv4_frames_are_skipped():
    frame = bytearray(build_frame("10.0.0.1", "10.8.0.2", 1, 2, 0, 0, SYN))
    frame[12:14] = b"\x86\xdd"  # IPv6 ethertype
    assert parse_frame(bytes(frame)) is None
    assert parse_frame(b"\x00" * 10) is None  # runt


def test_truncated_tcp_raises():
    frame = build_frame("10.0.0.1", "10.8.0.2", 1, 2, 0, 0, SYN)
    with pytest.raises(PcapFormatError):
        parse_frame(frame[:40])


@given(st.binary(min_size=0, max_size=1200))
def test_arbitrary_payload_roundtrip(payload):
    frame = build_frame("192.168.1.10", "10.8.0.2", 55555, 443, 42, 0, PSH | ACK, payload)
    seg = parse_frame(frame)
    assert seg.payload == payload


@settings(max_examples=200)
@given(st.binary(min_size=0, max_size=120))
def test_parser_never_crashes_on_junk(blob):
    # structurally broken input either parses, skips, or raises the typed error
    try:
        parse_frame(blob)
    except PcapFormatError:
        pass


def test_pcap_write_read_roundtrip(tmp_path):
    frames = [
        (0.5, build_frame("10.0.0.1", "10.8.0.2", 40000, 443, 1000, 0, SYN)),
        (1.25, build_frame("10.0.0.1", "10.8.0.2", 40000, 443, 1001, 2000, PSH | ACK, b"data")),
        (1.2500009, build_frame("10.8.0.2", "10.0.0.1", 443, 40000, 2000, 1005, ACK)),
    ]
    path = tmp_path / "t.pcap"
    with open(path, "wb") as fh:
        w = PcapWriter(fh)
        for ts, frame in frames:
            w.write_packet(ts, frame)
    got = list(read_packets(path))
    assert len(got) == 3
    for (ts_in, frame_in), (ts_out, frame_out) in zip(frames, got):
        assert frame_out == frame_in
        assert ts_out == pytest.approx(ts_in, abs=1e-6)


def test_pcap_big_endian_accepted(tmp_path):
    path = tmp_path / "be.pcap"
    frame = build_frame("10.0.0.1", "10.8.0.2", 40000, 443, 1, 2, ACK)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, 1))
        fh.write(struct.pack(">IIII", 3, 500, len(frame), len(frame)))
        fh.write(frame)
    (ts, got) = next(iter(read_packets(path)))
    assert got == frame
    assert ts == pytest.approx(3.0005)


def test_pcap_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pcap"
    path.write_bytes(b"\x00" * 24)
    with pytest.raises(PcapFormatError):
        list(read_packets(path))


def test_pcap_rejects_truncated_body(tmp_path):
    path = tmp_path / "trunc.pcap"
    buf = io.BytesIO()
    w = PcapWriter(buf)
    w.write_packet(0.0, build_frame("10.0.0.1", "10.8.0.2", 40000, 443, 1, 2, ACK))
    path.write_bytes(buf.getvalue()[:-3])
    with pytest.raises(PcapFormatError):
        list(read_packets(path))


def test_pcap_rejects_negative_timestamp(tmp_path):
    with open(tmp_path / "x.pcap", "wb") as fh:
        w = PcapWriter(fh)
        with pytest.raises(ValueError):
            w.write_packet(-1.0, b"")


def test_bad_ip_address_rejected():
    # only canonical dotted quads: ASCII digits, no padding or leading zeros
    bad = ["300.0.0.1", "1.2.3. 4", "1.2.3.\u0664", "a.b.c.d", "1.2.3", "1.2.3.4.5", "1..3.4", "01.2.3.4", "+1.2.3.4", ""]
    for ip in bad:
        with pytest.raises(ValueError, match=f"^{re.escape(f'bad IPv4 address {ip!r}')}$"):
            build_frame(ip, "10.8.0.2", 40000, 443, 1, 2, ACK)
        with pytest.raises(ValueError, match=re.escape(repr(ip))):
            build_frame("10.8.0.2", ip, 443, 40000, 1, 2, ACK)


def test_rejected_address_is_not_cached():
    before = wire._frame_template.cache_info()
    for _ in range(2):
        with pytest.raises(ValueError, match="bad IPv4 address"):
            build_frame("1.2.3. 4", "10.8.0.2", 40000, 443, 1, 2, ACK)
    after = wire._frame_template.cache_info()
    # both calls missed: the failed template was not stored
    assert (after.hits, after.misses) == (before.hits, before.misses + 2)


octets = st.tuples(*[st.integers(min_value=0, max_value=255)] * 4).map(lambda o: ".".join(map(str, o)))


@given(src=octets, dst=octets, ip_id=st.integers(min_value=0, max_value=2**20), payload_len=st.integers(0, 1460))
def test_templated_checksum_matches_reference(src, dst, ip_id, payload_len):
    frame = build_frame(src, dst, 40000, 443, 7, 9, PSH | ACK, b"\xa5" * payload_len, ip_id)
    ip_header = frame[14:34]
    assert struct.unpack("!H", ip_header[10:12])[0] == ipv4_checksum(ip_header[:10] + b"\x00\x00" + ip_header[12:])
    assert struct.unpack("!HH", ip_header[2:6]) == (40 + payload_len, ip_id & 0xFFFF)
    seg = parse_frame(frame)
    # canonical addresses come back unchanged, so connection ids round-trip
    assert (seg.src_ip, seg.dst_ip) == (src, dst)


def _pcap_with_usec(tmp_path, usecs, endian="<"):
    path = tmp_path / "usec.pcap"
    frame = build_frame("10.0.0.1", "10.8.0.2", 40000, 443, 1, 2, ACK)
    with open(path, "wb") as fh:
        fh.write(struct.pack(endian + "IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, 1))
        for usec in usecs:
            fh.write(struct.pack(endian + "IIII", 3, usec, len(frame), len(frame)))
            fh.write(frame)
    return path


@pytest.mark.parametrize("endian", ["<", ">"])
@pytest.mark.parametrize("usec", [1_000_000, 2**32 - 1])
def test_pcap_rejects_out_of_range_microseconds(tmp_path, endian, usec):
    path = _pcap_with_usec(tmp_path, [999_999, usec], endian)
    with pytest.raises(PcapFormatError, match=f"packet 1: microseconds field {usec} "):
        list(read_packets(path))


def test_pcap_accepts_largest_microseconds(tmp_path):
    (ts, _frame), = read_packets(_pcap_with_usec(tmp_path, [999_999]))
    assert ts == pytest.approx(3.999999)


# ---------------------------------------------------------------------------
# every capture-level error names its packet, 0-based


def _pcap_bytes(n_packets: int) -> bytes:
    buf = io.BytesIO()
    writer = PcapWriter(buf)
    for i in range(n_packets):
        writer.write_packet(1.0 + i, build_frame("10.0.0.1", "10.8.0.2", 40000, 443, 1 + i, 2, ACK))
    return buf.getvalue()


def _damaged_tail(tmp_path, tail: bytes):
    # two whole packets, then the damage as packet 2
    path = tmp_path / "damaged.pcap"
    path.write_bytes(_pcap_bytes(2) + tail)
    return path


def test_truncated_packet_header_names_its_packet(tmp_path):
    path = _damaged_tail(tmp_path, struct.pack("<II", 3, 0))
    with pytest.raises(PcapFormatError, match=r"^packet 2: truncated packet header at end of file$"):
        list(read_packets(path))


@pytest.mark.parametrize("incl_len, orig_len", [(60, 54), (0x40001, 0x40001)])
def test_implausible_capture_length_names_its_packet(tmp_path, incl_len, orig_len):
    path = _damaged_tail(tmp_path, struct.pack("<IIII", 3, 0, incl_len, orig_len) + b"\x00" * 60)
    with pytest.raises(PcapFormatError, match=rf"^packet 2: implausible capture length {incl_len}$"):
        list(read_packets(path))


def test_truncated_packet_body_names_its_packet(tmp_path):
    path = tmp_path / "trunc.pcap"
    path.write_bytes(_pcap_bytes(3)[:-3])
    with pytest.raises(PcapFormatError, match=r"^packet 2: truncated packet body at end of file$"):
        list(read_packets(path))


# ---------------------------------------------------------------------------
# capture formats other than classic microsecond pcap fail by name

OTHER_FORMAT_HEADERS = {
    # a pcapng section header block starts with its block type
    "pcapng": (b"\x0a\x0d\x0d\x0a" + struct.pack("<II", 28, 0x1A2B3C4D) + b"\x00" * 16, 0x0A0D0D0A),
    "nanosecond-le": (struct.pack("<IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 1), 0xA1B23C4D),
    "nanosecond-be": (struct.pack(">IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 1), 0x4D3CB2A1),
}


@pytest.mark.parametrize("fmt", sorted(OTHER_FORMAT_HEADERS))
def test_other_capture_formats_fail_by_name(tmp_path, fmt):
    head, magic = OTHER_FORMAT_HEADERS[fmt]
    path = tmp_path / f"{fmt}.cap"
    path.write_bytes(head + b"\x00" * 32)
    name = "pcapng" if fmt == "pcapng" else "nanosecond pcap"
    expected = f"{name} capture (magic 0x{magic:08x}): only classic microsecond pcap is read"
    with pytest.raises(PcapFormatError, match="^" + re.escape(expected)):
        list(read_packets(path))
