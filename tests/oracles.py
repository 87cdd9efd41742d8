"""Reference definitions the tests check the package against."""


def on_grid(model, framed: int) -> bool:
    """Whether a record length field is one the size model can produce."""
    return framed >= model.min_framed_size() and framed % model.block_len == 0


def ipv4_checksum(header: bytes) -> int:
    """RFC 791 header checksum, summed word by word."""
    if len(header) % 2:
        header += b"\x00"
    total = 0
    for i in range(0, len(header), 2):
        total += (header[i] << 8) | header[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF
