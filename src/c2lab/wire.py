"""Ethernet/IPv4/TCP frame construction and classic pcap file primitives.

Synthetic captures only need enough realism for a parser to do honest work:
real IPv4 header checksums, real sequence numbers, MSS-sized segments. TCP
checksums are left zero since nothing in the lab validates them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from pathlib import Path
from typing import BinaryIO, Iterator

PCAP_MAGIC = 0xA1B2C3D4
PCAP_MAGIC_SWAPPED = 0xD4C3B2A1
# Capture formats read_packets names rather than reads, by their magic
# number read little-endian: pcapng's is the same in either byte order.
_OTHER_FORMATS = {
    0x0A0D0D0A: "pcapng",
    0xA1B23C4D: "nanosecond pcap",
    0x4D3CB2A1: "nanosecond pcap",
}
LINKTYPE_ETHERNET = 1
GLOBAL_HEADER_FMT = "<IHHiIII"
PACKET_HEADER_FMT = "<IIII"

ETHERTYPE_IPV4 = 0x0800
IP_PROTO_TCP = 6

FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10

ETH_LEN = 14
IP_LEN = 20
TCP_LEN = 20
FRAME_OVERHEAD = ETH_LEN + IP_LEN + TCP_LEN


class PcapFormatError(ValueError):
    """Raised when a capture file cannot be interpreted."""


# Not frozen: one is built per frame, and frozen dataclasses are slow to build.
@dataclass(slots=True)
class ParsedSegment:
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    seq: int
    flags: int
    payload: bytes


def _pack_ip(ip: str) -> bytes:
    """Pack a dotted quad written the way parse_frame gives it back.

    Only ASCII digits, no leading zeros and no octet above 255, so that an
    address packs to one form only and extraction returns the same string.
    """
    parts = ip.split(".")
    if len(parts) == 4 and all(p.isascii() and p.isdigit() for p in parts):
        octets = [int(p) for p in parts]
        if max(octets) <= 255 and ".".join(map(str, octets)) == ip:
            return bytes(octets)
    raise ValueError(f"bad IPv4 address {ip!r}")


@lru_cache(maxsize=4096)
def _unpack_ip(raw: bytes) -> str:
    return ".".join(map(str, raw))


# Ethernet + IPv4 + TCP headers of one frame, packed in one call.
_FRAME_HEADERS = struct.Struct("!14sBBHHHBBH8sHHIIBBHHH")
_VERSION_IHL = 0x45
_DONT_FRAGMENT = 0x4000
_TTL = 64
# Checksum sum of the IPv4 words that never vary: version/IHL/TOS (TOS 0),
# flags/fragment offset and TTL/protocol. The addresses are added per pair.
_IP_FIXED_WORDS = (_VERSION_IHL << 8) + _DONT_FRAGMENT + ((_TTL << 8) | IP_PROTO_TCP)


@lru_cache(maxsize=4096)
def _frame_template(src_ip: str, dst_ip: str) -> tuple[bytes, bytes, int]:
    """Ethernet header, packed addresses and the checksum sum of the fixed words.

    The ones'-complement sum does not depend on word order (RFC 1071), so a
    frame's checksum is this partial sum plus its total length and IP id.
    A rejected address raises and is therefore never cached.
    """
    src, dst = _pack_ip(src_ip), _pack_ip(dst_ip)
    # Locally administered MACs keyed on the host part, purely cosmetic.
    eth = struct.pack("!6s6sH", bytes([2, 0, 0, 0, 0, dst[3]]), bytes([2, 0, 0, 0, 0, src[3]]), ETHERTYPE_IPV4)
    addrs = src + dst
    return eth, addrs, _IP_FIXED_WORDS + sum(struct.unpack("!4H", addrs))


def build_frame(
    src_ip: str,
    dst_ip: str,
    src_port: int,
    dst_port: int,
    seq: int,
    ack: int,
    flags: int,
    payload: bytes = b"",
    ip_id: int = 0,
) -> bytes:
    eth, addrs, fixed_sum = _frame_template(src_ip, dst_ip)
    total_len = IP_LEN + TCP_LEN + len(payload)
    ip_id &= 0xFFFF
    csum = fixed_sum + total_len + ip_id
    csum = (csum & 0xFFFF) + (csum >> 16)
    csum = (csum & 0xFFFF) + (csum >> 16)
    headers = _FRAME_HEADERS.pack(
        eth,
        _VERSION_IHL,
        0,
        total_len,
        ip_id,
        _DONT_FRAGMENT,
        _TTL,
        IP_PROTO_TCP,
        ~csum & 0xFFFF,
        addrs,
        src_port,
        dst_port,
        seq & 0xFFFFFFFF,
        ack & 0xFFFFFFFF,
        5 << 4,
        flags,
        65535,
        0,  # checksum not validated anywhere in the lab
        0,
    )
    return headers + payload


# Version/IHL, total length, protocol and both addresses of an IPv4 header.
_IP_FIELDS = struct.Struct("!B1xH5xB2x4s4s")
# Ports, sequence number, data offset and flags of a TCP header.
_TCP_FIELDS = struct.Struct("!HHI4xBB")
_ETHERTYPE_IPV4_BYTES = struct.pack("!H", ETHERTYPE_IPV4)
# The ethertype and the fields of both structs above, at their offsets in a
# frame whose IPv4 header has no options: one unpack for the common frame.
_FRAME_FIELDS = struct.Struct("!12xHB1xH5xB2x8sHHI4xBB")
_PLAIN_HEADERS_LEN = ETH_LEN + IP_LEN + TCP_LEN


@lru_cache(maxsize=4096)
def _unpack_ip_pair(raw: bytes) -> tuple[str, str]:
    return _unpack_ip(raw[:4]), _unpack_ip(raw[4:])


def parse_frame(frame: bytes) -> ParsedSegment | None:
    """Decode an Ethernet frame down to its TCP payload.

    Returns None for anything that is not IPv4/TCP; the caller counts those.
    Raises PcapFormatError on structurally broken IPv4/TCP headers.
    """
    if len(frame) >= _PLAIN_HEADERS_LEN:
        ethertype, ver_ihl, total_len, proto, addrs, src_port, dst_port, seq, data_off, flags = (
            _FRAME_FIELDS.unpack_from(frame)
        )
        if ethertype == ETHERTYPE_IPV4 and ver_ihl == _VERSION_IHL:
            # The checks of the general path below, in its order, for a
            # 20-byte IPv4 header with a whole TCP header behind it.
            if proto != IP_PROTO_TCP:
                return None
            if total_len < IP_LEN + TCP_LEN:
                raise PcapFormatError("truncated TCP header")
            data_off = (data_off >> 4) * 4
            if data_off < TCP_LEN:
                raise PcapFormatError("bad TCP data offset")
            payload_start = ETH_LEN + IP_LEN + data_off
            payload_end = ETH_LEN + total_len
            if payload_end > len(frame) or payload_start > payload_end:
                raise PcapFormatError("TCP payload extends past frame")
            src_ip, dst_ip = _unpack_ip_pair(addrs)
            return ParsedSegment(src_ip, dst_ip, src_port, dst_port, seq, flags, frame[payload_start:payload_end])
    if len(frame) < ETH_LEN or frame[12:14] != _ETHERTYPE_IPV4_BYTES:
        return None
    if len(frame) < ETH_LEN + IP_LEN:
        raise PcapFormatError("truncated IPv4 header")
    ver_ihl, total_len, proto, src_raw, dst_raw = _IP_FIELDS.unpack_from(frame, ETH_LEN)
    if ver_ihl >> 4 != 4:
        return None
    ihl = (ver_ihl & 0x0F) * 4
    if ihl < IP_LEN or len(frame) < ETH_LEN + ihl:
        raise PcapFormatError("bad IPv4 header length")
    if proto != IP_PROTO_TCP:
        return None
    tcp_off = ETH_LEN + ihl
    if len(frame) < tcp_off + TCP_LEN or total_len < ihl + TCP_LEN:
        raise PcapFormatError("truncated TCP header")
    src_port, dst_port, seq, data_off, flags = _TCP_FIELDS.unpack_from(frame, tcp_off)
    data_off = (data_off >> 4) * 4
    if data_off < TCP_LEN:
        raise PcapFormatError("bad TCP data offset")
    payload_start = tcp_off + data_off
    payload_end = ETH_LEN + total_len
    if payload_end > len(frame) or payload_start > payload_end:
        raise PcapFormatError("TCP payload extends past frame")
    return ParsedSegment(
        _unpack_ip(src_raw), _unpack_ip(dst_raw), src_port, dst_port, seq, flags, frame[payload_start:payload_end]
    )


_GLOBAL_HEADER = struct.Struct(GLOBAL_HEADER_FMT)
_PACKET_HEADER = struct.Struct(PACKET_HEADER_FMT)


class PcapWriter:
    """Writes a classic little-endian pcap file."""

    def __init__(self, fh: BinaryIO):
        self._fh = fh
        self._fh.write(_GLOBAL_HEADER.pack(PCAP_MAGIC, 2, 4, 0, 0, 65535, LINKTYPE_ETHERNET))

    def write_packet(self, timestamp: float, frame: bytes) -> None:
        if timestamp < 0:
            raise ValueError("pcap timestamps cannot be negative")
        ts_sec = int(timestamp)
        ts_usec = round((timestamp - ts_sec) * 1_000_000)
        if ts_usec >= 1_000_000:
            ts_sec += 1
            ts_usec -= 1_000_000
        n = len(frame)
        self._fh.write(_PACKET_HEADER.pack(ts_sec, ts_usec, n, n) + frame)


def read_packets(path: str | Path) -> Iterator[tuple[float, bytes]]:
    """Yield (timestamp, frame) pairs from a classic pcap file.

    Both byte orders are accepted. Structural damage raises PcapFormatError.
    """
    with open(path, "rb") as fh:
        head = fh.read(_GLOBAL_HEADER.size)
        if len(head) < _GLOBAL_HEADER.size:
            raise PcapFormatError("file too short for a pcap global header")
        magic_le = struct.unpack_from("<I", head)[0]
        if magic_le == PCAP_MAGIC:
            endian = "<"
        elif magic_le == PCAP_MAGIC_SWAPPED:
            endian = ">"
        elif magic_le in _OTHER_FORMATS:
            raise PcapFormatError(
                f"{_OTHER_FORMATS[magic_le]} capture (magic 0x{magic_le:08x}): only classic microsecond "
                "pcap is read; editcap -F pcap converts it"
            )
        else:
            raise PcapFormatError(f"unrecognized magic 0x{magic_le:08x}")
        _magic, vmaj, _vmin, _tz, _sf, _snap, network = struct.unpack(endian + "IHHiIII", head)
        if vmaj != 2:
            raise PcapFormatError(f"unsupported pcap version {vmaj}")
        if network != LINKTYPE_ETHERNET:
            raise PcapFormatError(f"unsupported link type {network}")
        packet_header = struct.Struct(endian + "IIII")
        header_len, unpack, read = packet_header.size, packet_header.unpack, fh.read
        for index in count():
            hdr = read(header_len)
            if not hdr:
                return
            if len(hdr) < header_len:
                raise PcapFormatError(f"packet {index}: truncated packet header at end of file")
            ts_sec, ts_usec, incl_len, orig_len = unpack(hdr)
            if ts_usec >= 1_000_000:
                raise PcapFormatError(f"packet {index}: microseconds field {ts_usec} is not below 1000000")
            if incl_len > orig_len or incl_len > 0x40000:
                raise PcapFormatError(f"packet {index}: implausible capture length {incl_len}")
            frame = read(incl_len)
            if len(frame) < incl_len:
                raise PcapFormatError(f"packet {index}: truncated packet body at end of file")
            yield ts_sec + ts_usec / 1_000_000, frame
