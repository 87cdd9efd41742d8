"""Reference definitions the tests check the package against."""

import numpy as np

from c2lab import detector as det
from c2lab.sim import lockstep


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


def float64_params(params):
    """A float64 copy of a detector's weights and biases."""
    return det.DetectorParams(
        [w.astype(np.float64) for w in params.weights],
        [b.astype(np.float64) for b in params.biases],
        params.norm_scale,
    )


def reference_logits(params, x):
    """Logits of a float64 batch through a float64 copy of the net, dropout off."""
    return det._forward_core(float64_params(params), x)


def reference_input_gradient(params, x, y):
    """Per-sample input gradients of a float64 batch through a float64 copy
    of the net, from cached float64 activations."""
    p64 = float64_params(params)
    cache = []
    delta = det._softmax(det._forward_core(p64, x, cache=cache))
    delta[np.arange(len(x)), y] -= 1.0
    delta /= len(x)
    for i in range(len(p64.weights) - 1, 0, -1):
        delta = delta @ p64.weights[i].T
        delta *= cache[i][0] > 0
    dx = delta @ p64.weights[0].T
    dx *= len(x)
    return dx


def loss_on(params, x_norm, y) -> float:
    """Mean cross-entropy on normalized inputs through a float64 copy of the net, dropout off."""
    x = np.atleast_2d(np.asarray(x_norm, dtype=np.float64))
    return det.cross_entropy(reference_logits(params, x), np.atleast_1d(np.asarray(y, dtype=np.int64)))


def run_lockstep(plans, request_plaintexts, response_plaintexts, side, size_model=None):
    """Realized record sizes per connection, and the closes seen, of a
    lockstep run; plaintext sizes are consumed one per message in exchange
    order."""
    connections = []
    closes = 0
    for i, action, reply in lockstep(plans, side, zip(request_plaintexts, response_plaintexts), size_model):
        if i == len(connections):
            connections.append([])
        connections[i] += (action.realized_size, reply.realized_size)
        closes += reply.close
    return connections, closes
