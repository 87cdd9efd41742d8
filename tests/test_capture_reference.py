"""The capture fast path against the per-frame implementation it replaced.

``reference_*`` below are the straightforward versions of frame building,
capture emission, frame parsing and extraction: one ``rng.bytes`` draw per
record, every header packed and checksummed word by word, one stream key
per frame, every frame held until one final sort, and every segment of the
capture read before any connection is grouped and reassembled. The
streaming fast path must write byte-identical captures and extract
identical traces and counters.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from c2lab import extract, sim, wire
from c2lab.extract import ExtractionCounters, SegmentRecord, TcpStreamKey
from c2lab.model import MAX_RECORD_SIZE, Direction, FlowTrace, Provenance, RecordEvent
from c2lab.sim import SimConfig, conn_frame_plan, emit_pcap, generate_c2_traces, generate_web_traces, substream
from c2lab.sizing import TLS_APPDATA
from c2lab.wire import (
    ETH_LEN,
    ETHERTYPE_IPV4,
    FIN,
    IP_LEN,
    IP_PROTO_TCP,
    SYN,
    TCP_LEN,
    ParsedSegment,
    PcapFormatError,
    PcapWriter,
    read_packets,
)
from oracles import ipv4_checksum

# ---------------------------------------------------------------------------
# reference implementation


def _reference_mac_for(ip: str) -> bytes:
    last = int(ip.rsplit(".", 1)[1])
    return bytes([0x02, 0, 0, 0, 0, last & 0xFF])


def _reference_pack_ip(ip: str) -> bytes:
    parts = [int(p) for p in ip.split(".")]
    if len(parts) != 4 or any(p < 0 or p > 255 for p in parts):
        raise ValueError(f"bad IPv4 address {ip!r}")
    return bytes(parts)


def _reference_unpack_ip(raw: bytes) -> str:
    return ".".join(str(b) for b in raw)


def reference_build_frame(src_ip, dst_ip, src_port, dst_port, seq, ack, flags, payload=b"", ip_id=0) -> bytes:
    eth = struct.pack("!6s6sH", _reference_mac_for(dst_ip), _reference_mac_for(src_ip), ETHERTYPE_IPV4)
    total_len = IP_LEN + TCP_LEN + len(payload)
    ip_wo_csum = struct.pack(
        "!BBHHHBBH4s4s",
        0x45,
        0,
        total_len,
        ip_id & 0xFFFF,
        0x4000,  # don't fragment
        64,
        IP_PROTO_TCP,
        0,
        _reference_pack_ip(src_ip),
        _reference_pack_ip(dst_ip),
    )
    csum = ipv4_checksum(ip_wo_csum)
    ip_hdr = ip_wo_csum[:10] + struct.pack("!H", csum) + ip_wo_csum[12:]
    tcp_hdr = struct.pack(
        "!HHIIBBHHH",
        src_port,
        dst_port,
        seq & 0xFFFFFFFF,
        ack & 0xFFFFFFFF,
        5 << 4,
        flags,
        65535,
        0,
        0,
    )
    return eth + ip_hdr + tcp_hdr + payload


def _reference_write_packet(fh, timestamp: float, frame: bytes) -> None:
    ts_sec = int(timestamp)
    ts_usec = int(round((timestamp - ts_sec) * 1_000_000))
    if ts_usec >= 1_000_000:
        ts_sec += 1
        ts_usec -= 1_000_000
    fh.write(struct.pack("<IIII", ts_sec, ts_usec, len(frame), len(frame)))
    fh.write(frame)


def reference_emit_pcap(path, conn_records, cfg, seed=0) -> None:
    rng = substream(seed, "ciphertext")
    entries = []
    order = 0
    ip_id = 0
    for idx, records in enumerate(conn_records):
        client = (f"10.0.{idx // 20000}.1", 40000 + idx % 20000)
        server = ("10.8.0.2", 443)
        seqs = {True: 1000, False: 2000}
        current_blob = b""
        for spec in conn_frame_plan(records, cfg):
            src, dst = (client, server) if spec.from_client else (server, client)
            payload = b""
            if spec.record is not None:
                ctype, rec_len, offset, chunk = spec.record
                if offset == 0:
                    header = bytes([ctype, 3, 3, (rec_len >> 8) & 0xFF, rec_len & 0xFF])
                    current_blob = header + rng.bytes(rec_len)
                payload = current_blob[offset : offset + chunk]
            if spec.flags & SYN and not spec.from_client:
                ack = seqs[True]
            elif spec.flags == SYN:
                ack = 0
            else:
                ack = seqs[not spec.from_client]
            frame = reference_build_frame(
                src[0], dst[0], src[1], dst[1], seqs[spec.from_client], ack, spec.flags, payload, ip_id
            )
            ip_id += 1
            if spec.flags & SYN or spec.flags & FIN:
                seqs[spec.from_client] += 1
            seqs[spec.from_client] += len(payload)
            entries.append((spec.ts, order, frame))
            order += 1
    entries.sort(key=lambda e: (e[0], e[1]))
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IHHiIII", wire.PCAP_MAGIC, 2, 4, 0, 0, 65535, wire.LINKTYPE_ETHERNET))
        for ts, _order, frame in entries:
            _reference_write_packet(fh, ts, frame)


def reference_parse_frame(frame: bytes) -> ParsedSegment | None:
    if len(frame) < ETH_LEN:
        return None
    ethertype = struct.unpack_from("!H", frame, 12)[0]
    if ethertype != ETHERTYPE_IPV4:
        return None
    if len(frame) < ETH_LEN + IP_LEN:
        raise PcapFormatError("truncated IPv4 header")
    ver_ihl = frame[ETH_LEN]
    if ver_ihl >> 4 != 4:
        return None
    ihl = (ver_ihl & 0x0F) * 4
    if ihl < IP_LEN or len(frame) < ETH_LEN + ihl:
        raise PcapFormatError("bad IPv4 header length")
    total_len = struct.unpack_from("!H", frame, ETH_LEN + 2)[0]
    proto = frame[ETH_LEN + 9]
    if proto != IP_PROTO_TCP:
        return None
    src_ip = _reference_unpack_ip(frame[ETH_LEN + 12 : ETH_LEN + 16])
    dst_ip = _reference_unpack_ip(frame[ETH_LEN + 16 : ETH_LEN + 20])
    tcp_off = ETH_LEN + ihl
    if len(frame) < tcp_off + TCP_LEN or total_len < ihl + TCP_LEN:
        raise PcapFormatError("truncated TCP header")
    src_port, dst_port, seq, _ack = struct.unpack_from("!HHII", frame, tcp_off)
    data_off = (frame[tcp_off + 12] >> 4) * 4
    if data_off < TCP_LEN:
        raise PcapFormatError("bad TCP data offset")
    flags = frame[tcp_off + 13]
    payload_start = tcp_off + data_off
    payload_end = ETH_LEN + total_len
    if payload_end > len(frame) or payload_start > payload_end:
        raise PcapFormatError("TCP payload extends past frame")
    return ParsedSegment(src_ip, dst_ip, src_port, dst_port, seq, flags, frame[payload_start:payload_end])


def reference_read_pcap(path):
    counters = ExtractionCounters()
    segments = []
    for index, (timestamp, frame) in enumerate(read_packets(path)):
        counters.frames_total += 1
        try:
            parsed = reference_parse_frame(frame)
        except PcapFormatError as exc:
            raise PcapFormatError(f"packet {index}: {exc}") from None
        if parsed is None:
            counters.frames_skipped += 1
            continue
        src = (parsed.src_ip, parsed.src_port)
        dst = (parsed.dst_ip, parsed.dst_port)
        segments.append(
            SegmentRecord(
                index=index,
                timestamp=timestamp,
                key=TcpStreamKey.from_endpoints(src, dst),
                src=src,
                seq=parsed.seq,
                flags=parsed.flags,
                payload=parsed.payload,
            )
        )
    return segments, counters


def reference_traces_from_pcap(path):
    """Read the whole capture, then group and reassemble every connection."""
    segments, counters = reference_read_pcap(path)
    by_key = {}
    syn_src = {}
    for seg in segments:
        by_key.setdefault(seg.key, {}).setdefault(seg.src, []).append(seg)
        if seg.flags & SYN and seg.key not in syn_src:
            syn_src[seg.key] = seg.src
    traces = []
    for key, by_src in by_key.items():
        client = syn_src.get(key) or next(iter(by_src))
        server = key.b if client == key.a else key.a
        conn_id = f"{client[0]}:{client[1]}-{server[0]}:{server[1]}"
        merged = []
        for endpoint, direction in (
            (client, Direction.PAYLOAD_TO_FRAMEWORK),
            (server, Direction.FRAMEWORK_TO_PAYLOAD),
        ):
            stream = extract.reassemble(by_src.get(endpoint, []), counters)
            for rec in extract.parse_tls_records(stream, counters):
                if rec.content_type != TLS_APPDATA:
                    continue
                if rec.size > MAX_RECORD_SIZE:
                    raise PcapFormatError(
                        f"connection {conn_id}: application-data record of {rec.size} bytes exceeds {MAX_RECORD_SIZE}"
                    )
                merged.append((rec.timestamp, rec.completing_index, direction, rec.size))
        if not merged:
            counters.flows_without_appdata += 1
            continue
        merged.sort(key=lambda m: (m[0], m[1]))
        traces.append(FlowTrace(conn_id, tuple(RecordEvent(ts, d, size) for ts, _i, d, size in merged)))
    return traces, counters


# ---------------------------------------------------------------------------
# inputs

# A response of one full 16 KB TLS record, split over 12 MSS-sized frames.
SPLIT_CONN = (
    (1.0, Direction.PAYLOAD_TO_FRAMEWORK, 304),
    (1.1, Direction.FRAMEWORK_TO_PAYLOAD, 16408),
    (1.3, Direction.PAYLOAD_TO_FRAMEWORK, 5000),
    (1.4, Direction.FRAMEWORK_TO_PAYLOAD, 1),
)


def c2_web_mix(seed: int) -> tuple[list, SimConfig]:
    cfg = SimConfig(seed=seed)
    c2 = generate_c2_traces(12, cfg)
    web = generate_web_traces(8, cfg, seed=seed + 1)
    conns = c2.conn_records + web.conn_records + [SPLIT_CONN]
    assert any(size > cfg.mss for records in conns for _ts, _d, size in records)
    return conns, cfg


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# writing


@pytest.mark.parametrize("seed", [1, 2, 3, 11])
def test_emit_pcap_is_byte_identical_to_reference(tmp_path, seed):
    conns, cfg = c2_web_mix(seed)
    emit_pcap(tmp_path / "fast.pcap", conns, cfg, seed=seed)
    reference_emit_pcap(tmp_path / "ref.pcap", conns, cfg, seed=seed)
    assert _sha(tmp_path / "fast.pcap") == _sha(tmp_path / "ref.pcap")


def _alternating(t: float, sizes: list[int]) -> tuple:
    """A connection of alternating requests and responses, 0.1 s apart from t."""
    directions = (Direction.PAYLOAD_TO_FRAMEWORK, Direction.FRAMEWORK_TO_PAYLOAD)
    return tuple((round(t + 0.1 * i, 6), directions[i % 2], size) for i, size in enumerate(sizes))


def _timelines_starting_together(seed: int) -> list:
    # each kind runs on its own clock from 1.0 s, so their first connections
    # open together and their connections interleave by index
    cfg = SimConfig(seed=seed)
    regular = generate_c2_traces(5, cfg).conn_records
    rand_req = generate_c2_traces(5, SimConfig(seed=seed, mode=Provenance.RAND_REQ)).conn_records
    web = generate_web_traces(5, cfg, seed=seed + 1).conn_records
    return regular + rand_req + web


# Connections whose opens do not follow their index, and frames that tie on
# their timestamp: emission builds connections as they open, and must still
# write the frames in (timestamp, IP id) order.
EMISSION_CASES = {
    "opens out of index order": lambda seed: [
        _alternating(6.0, [300, 900]),
        _alternating(1.0, [304, 16408, 5000, 1]),
        _alternating(3.5, [2000, 3000]),
        _alternating(0.5, [600, 40, 7000]),
    ],
    "timelines starting together": _timelines_starting_together,
    # connections 0 and 2 open on one timestamp, and every frame of one ties
    # with a frame of the other, so the IP id alone orders them
    "opens on one timestamp": lambda seed: [
        _alternating(2.0, [304, 16408, 700]),
        _alternating(1.0, [500, 500]),
        _alternating(2.0, [1500, 3000, 16408]),
    ],
    # records stamped before their connection's SYN, and a FIN due before
    # the last records: the connection opens with its earliest frame
    "records out of time order": lambda seed: [
        _alternating(2.0, [400, 800]),
        (
            (3.0, Direction.PAYLOAD_TO_FRAMEWORK, 304),
            (1.0, Direction.FRAMEWORK_TO_PAYLOAD, 9000),
            (2.5, Direction.PAYLOAD_TO_FRAMEWORK, 700),
            (1.5, Direction.FRAMEWORK_TO_PAYLOAD, 200),
        ),
        _alternating(1.2, [350, 16408]),
    ],
}


@pytest.mark.parametrize("case", sorted(EMISSION_CASES))
@pytest.mark.parametrize("seed", [1, 2])
def test_emit_pcap_matches_reference_when_opens_leave_index_order(tmp_path, case, seed):
    conns = EMISSION_CASES[case](seed)
    cfg = SimConfig(seed=seed)
    opens = [sim.conn_open_close(records)[0] for records in conns]
    assert opens != sorted(opens) or len(set(opens)) < len(opens)
    emit_pcap(tmp_path / "fast.pcap", conns, cfg, seed=seed)
    reference_emit_pcap(tmp_path / "ref.pcap", conns, cfg, seed=seed)
    assert _sha(tmp_path / "fast.pcap") == _sha(tmp_path / "ref.pcap")


def test_emit_pcap_holds_only_the_open_connections(tmp_path, monkeypatch):
    """Frames built but not yet written never exceed one connection's worth
    when the connections do not overlap in time."""
    cfg = SimConfig(seed=3)
    conns = [_alternating(1.0 + 2.0 * i, [304, 16408, 5000, 16408]) for i in range(6)][::-1]
    per_conn = len(conn_frame_plan(conns[0], cfg))
    held = [0]
    peak = [0]

    def counted_build_frame(*args):
        held[0] += 1
        peak[0] = max(peak[0], held[0])
        return wire.build_frame(*args)

    def counted_write_packet(self, timestamp, frame):
        held[0] -= 1
        return write_packet(self, timestamp, frame)

    write_packet = PcapWriter.write_packet
    monkeypatch.setattr(sim, "build_frame", counted_build_frame)
    monkeypatch.setattr(PcapWriter, "write_packet", counted_write_packet)
    emit_pcap(tmp_path / "seq.pcap", conns, cfg, seed=3)
    assert held[0] == 0
    assert peak[0] == per_conn


@given(
    src=st.tuples(*[st.integers(0, 255)] * 4).map(lambda o: ".".join(map(str, o))),
    dst=st.tuples(*[st.integers(0, 255)] * 4).map(lambda o: ".".join(map(str, o))),
    ports=st.tuples(st.integers(0, 65535), st.integers(0, 65535)),
    seq=st.integers(0, 2**40),
    ack=st.integers(0, 2**40),
    flags=st.integers(0, 255),
    payload=st.binary(max_size=64),
    ip_id=st.integers(0, 2**20),
)
def test_build_frame_matches_reference(src, dst, ports, seq, ack, flags, payload, ip_id):
    args = (src, dst, *ports, seq, ack, flags, payload, ip_id)
    assert wire.build_frame(*args) == reference_build_frame(*args)


# ---------------------------------------------------------------------------
# reading


def _packets(path: Path) -> list[tuple[float, bytes]]:
    return list(read_packets(path))


def _write(path: Path, packets: list[tuple[float, bytes]]) -> Path:
    with open(path, "wb") as fh:
        writer = PcapWriter(fh)
        for ts, frame in packets:
            writer.write_packet(ts, frame)
    return path


def _is_data(frame: bytes) -> bool:
    return len(frame) > wire.FRAME_OVERHEAD


def _extract_both(path: Path):
    """Extraction results of the fast path and the reference, or their errors."""
    results = []
    for traces_from_pcap in (extract.traces_from_pcap, reference_traces_from_pcap):
        try:
            results.append(traces_from_pcap(path))
        except PcapFormatError as exc:
            results.append(("error", str(exc)))
    return results


@pytest.fixture(scope="module")
def mix_packets(tmp_path_factory) -> list[tuple[float, bytes]]:
    conns, cfg = c2_web_mix(4)
    path = tmp_path_factory.mktemp("mix") / "mix.pcap"
    emit_pcap(path, conns, cfg, seed=4)
    return _packets(path)


def _duplicated(packets):
    out = []
    for i, (ts, frame) in enumerate(packets):
        out.append((ts, frame))
        if _is_data(frame) and i % 5 == 0:
            out.append((ts, frame))
    return out


def _first_data_index(packets) -> int:
    return next(i for i, (_ts, frame) in enumerate(packets) if _is_data(frame))


def _snapped(packets):
    # one data frame cut short, as a small snap length would leave it
    i = _first_data_index(packets)
    ts, frame = packets[i]
    return packets[:i] + [(ts, frame[:60])] + packets[i + 1 :]


def _with_foreign_frames(packets):
    ipv6 = b"\x02" * 12 + b"\x86\xdd" + b"\x00" * 40
    udp = bytearray(packets[0][1])
    udp[ETH_LEN + 9] = 17
    return [packets[0], (packets[0][0], ipv6), (packets[0][0], bytes(udp)), *packets[1:]]


MUTATIONS = {
    "well-formed": lambda p: p,
    "truncated": lambda p: p[: len(p) * 3 // 5],
    "duplicated-segments": _duplicated,
    "dropped-segments": lambda p: [x for i, x in enumerate(p) if not (_is_data(x[1]) and i % 9 == 4)],
    "snapped-frame": _snapped,
    "foreign-frames": _with_foreign_frames,
}


# The counter each damage must show, so the comparison is not between two
# results that ignored it.
DAMAGE_COUNTER = {
    "duplicated-segments": "duplicate_segments",
    "dropped-segments": "tcp_gaps",
    "foreign-frames": "frames_skipped",
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_extraction_matches_reference(tmp_path, mix_packets, mutation):
    path = _write(tmp_path / f"{mutation}.pcap", MUTATIONS[mutation](mix_packets))
    fast, ref = _extract_both(path)
    assert fast == ref
    if mutation == "snapped-frame":
        assert fast == ("error", f"packet {_first_data_index(mix_packets)}: TCP payload extends past frame")
        return
    traces, counters = fast
    if mutation == "well-formed":
        assert counters == ExtractionCounters(frames_total=len(mix_packets))
        assert len(traces) == 21
    elif mutation == "truncated":
        assert len(traces) < 21
    else:
        assert getattr(counters, DAMAGE_COUNTER[mutation]) > 0


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_extraction_matches_reference_on_random_damage(tmp_path_factory, mix_packets, data):
    n = len(mix_packets)
    drop = data.draw(st.sets(st.integers(0, n - 1), max_size=8))
    dup = data.draw(st.sets(st.integers(0, n - 1), max_size=8))
    keep = data.draw(st.integers(n // 2, n))
    packets = []
    for i, packet in enumerate(mix_packets[:keep]):
        if i not in drop:
            packets.append(packet)
        if i in dup:
            packets.append(packet)
    path = _write(tmp_path_factory.mktemp("damage") / "d.pcap", packets)
    fast, ref = _extract_both(path)
    assert fast == ref


# Header bytes by field, as offsets into an emitted frame: Ethernet type, IPv4
# version/IHL, total length and protocol, TCP data offset, and the TLS record
# header that starts a record's first frame.
HEADER_FIELDS = {
    "ethertype": (12, 13),
    "version/IHL": (14,),
    "total length": (16, 17),
    "protocol": (23,),
    "data offset": (46,),
    "TLS record header": (54, 55, 56, 57, 58),
}


@st.composite
def header_damage(draw, frame: bytes) -> bytes:
    """Up to 4 header bytes of a frame overwritten or bit-flipped.

    The total length is overwritten as one 16-bit value, often a small one,
    so that lengths below the IPv4 and TCP headers' 40 bytes come up.
    """
    damaged = bytearray(frame)
    budget = draw(st.integers(1, 4))
    while budget > 0:
        offsets = HEADER_FIELDS[draw(st.sampled_from(sorted(HEADER_FIELDS)))]
        if offsets == HEADER_FIELDS["total length"] and budget >= 2 and draw(st.booleans()):
            struct.pack_into("!H", damaged, offsets[0], draw(st.integers(0, 64) | st.integers(0, 0xFFFF)))
            budget -= 2
            continue
        budget -= 1
        offset = draw(st.sampled_from(offsets))
        if offset >= len(damaged):  # a bare frame has no TLS header
            continue
        if draw(st.booleans()):
            damaged[offset] ^= 1 << draw(st.integers(0, 7))
        else:
            damaged[offset] = draw(st.integers(0, 255))
    return bytes(damaged)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_extraction_matches_reference_on_header_damage(tmp_path_factory, mix_packets, data):
    packets = list(mix_packets)
    for i in data.draw(st.sets(st.integers(0, len(packets) - 1), min_size=1, max_size=3)):
        packets[i] = (packets[i][0], data.draw(header_damage(packets[i][1])))
    path = _write(tmp_path_factory.mktemp("headers") / "h.pcap", packets)
    # _extract_both catches PcapFormatError only: any other exception fails
    fast, ref = _extract_both(path)
    assert fast == ref


# ---------------------------------------------------------------------------
# records on MSS chunk boundaries


def test_chunk_boundary_records_emit_like_the_reference(tmp_path):
    cfg = SimConfig(seed=9)
    mss = cfg.mss
    # record plus its 5-byte header: one byte short of a frame, a frame, one
    # byte over, two frames, three frames and a byte
    totals = [mss - 1, mss, mss + 1, 2 * mss, 3 * mss + 1]
    conns = [
        ((1.0 + i, Direction.PAYLOAD_TO_FRAMEWORK, total - 5), (1.2 + i, Direction.FRAMEWORK_TO_PAYLOAD, total - 5))
        for i, total in enumerate(totals)
    ]
    # and all five in one connection, alternating directions
    directions = (Direction.PAYLOAD_TO_FRAMEWORK, Direction.FRAMEWORK_TO_PAYLOAD)
    conns.append(tuple((3.0 + 0.1 * j, directions[j % 2], total - 5) for j, total in enumerate(totals)))
    emit_pcap(tmp_path / "fast.pcap", conns, cfg, seed=9)
    reference_emit_pcap(tmp_path / "ref.pcap", conns, cfg, seed=9)
    assert _sha(tmp_path / "fast.pcap") == _sha(tmp_path / "ref.pcap")

    frames = _packets(tmp_path / "fast.pcap")
    assert len(frames) == sum(len(conn_frame_plan(records, cfg)) for records in conns)
    # independent of the chunk layout: 5 bare frames, and ceil(total / mss) per record
    handshake = sum(-(-(5 + n) // mss) for n in sim._handshake_record_lens(cfg.handshake_wire_bytes, mss))
    assert len(frames) == sum(5 + handshake + sum(-(-(5 + r[2]) // mss) for r in records) for records in conns)
    wire_bytes = {}
    for _ts, frame in frames:
        parsed = wire.parse_frame(frame)
        assert len(parsed.payload) <= mss
        client = parsed.dst_port if parsed.src_port == 443 else parsed.src_port
        wire_bytes[client] = wire_bytes.get(client, 0) + len(frame)
    assert [wire_bytes[40000 + idx] for idx in range(len(conns))] == [
        sim.conn_wire_bytes(records, cfg) for records in conns
    ]
    traces, counters = extract.traces_from_pcap(tmp_path / "fast.pcap")
    assert counters == ExtractionCounters(frames_total=len(frames))
    sizes = {t.connection_id: [r.size for r in t.records] for t in traces}
    assert sizes == {f"10.0.0.1:{40000 + idx}-10.8.0.2:443": [r[2] for r in records] for idx, records in enumerate(conns)}


# ---------------------------------------------------------------------------
# hooks: one call per planned frame through each per-frame name


def test_per_frame_hooks_see_every_planned_frame(tmp_path, monkeypatch):
    conns, cfg = c2_web_mix(5)
    planned = sum(len(conn_frame_plan(records, cfg)) for records in conns)
    calls = dict.fromkeys(["build_frame", "write_packet", "parse_frame", "read_packets"], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_read_packets(path):
        for item in read_packets(path):
            calls["read_packets"] += 1
            yield item

    monkeypatch.setattr(sim, "build_frame", counted("build_frame", sim.build_frame))
    monkeypatch.setattr(PcapWriter, "write_packet", counted("write_packet", PcapWriter.write_packet))
    monkeypatch.setattr(extract, "parse_frame", counted("parse_frame", extract.parse_frame))
    monkeypatch.setattr(extract, "read_packets", counted_read_packets)

    path = tmp_path / "hooks.pcap"
    emit_pcap(path, conns, cfg, seed=5)
    traces, counters = extract.traces_from_pcap(path)
    assert counters.frames_total == planned
    assert calls == dict.fromkeys(calls, planned)
