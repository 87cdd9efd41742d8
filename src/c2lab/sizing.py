"""Plaintext-to-record size arithmetic for the simulated TLS channel.

The cipher model is block-aligned AEAD: a plaintext of p bytes becomes a
ciphertext of ceil((p + tag) / block) * block bytes, which is what the
record's length field advertises. The 5-byte record header sits outside the
length field and only matters for wire accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RECORD_HEADER_LEN = 5


@dataclass(frozen=True)
class TlsSizeModel:
    tag_len: int = 16
    block_len: int = 16

    def __post_init__(self) -> None:
        if self.tag_len < 0:
            raise ValueError("tag_len must be >= 0")
        if self.block_len < 1:
            raise ValueError("block_len must be >= 1")

    def framed_size(self, plaintext_len: int) -> int:
        """Record length field for a plaintext of the given size."""
        if plaintext_len < 0:
            raise ValueError("negative plaintext length")
        return math.ceil((plaintext_len + self.tag_len) / self.block_len) * self.block_len

    def min_framed_size(self) -> int:
        """Smallest length field any record can carry (empty plaintext)."""
        return self.framed_size(0)

    def on_grid(self, framed: int) -> bool:
        return framed >= self.min_framed_size() and framed % self.block_len == 0

    def snap(self, framed):
        """Round a size, or an array of sizes, onto the achievable record-size grid.

        A half block rounds to the even block count.
        """
        return np.maximum(np.round(np.divide(framed, self.block_len)) * self.block_len, self.min_framed_size())
