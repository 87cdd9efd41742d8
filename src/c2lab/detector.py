"""Record-size MLP classifier.

A fully connected net over the 20 leading record sizes of a flow:
20 -> 2048 -> 1024 -> 512 -> 2 with ReLU hiddens, softmax output, inverted
dropout on every hidden layer while training, Adam updates, cross-entropy
loss. Inputs are scaled by 1/16408 so sizes land in (0, 1] and pad entries
become -1/16408.

Class order is fixed: column 0 is C2, column 1 is benign. Ties go to C2;
flagging traffic for a second look is the cheap mistake.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .model import FEATURE_LEN, Dataset, FeatureVector, Label, MAX_RECORD_SIZE, check_int

NORM_SCALE = float(MAX_RECORD_SIZE)
CLASS_ORDER = (Label.C2, Label.NON_C2)
LABEL_INDEX = {Label.C2: 0, Label.NON_C2: 1}

_MAGIC = b"SZMLP1\n"
# Elements per chunk of the in-place Adam update: a chunk's operands and
# scratch take about 1 MB, inside a core's L2 cache.
_ADAM_CHUNK = 1 << 15

# Training keeps float32 arithmetic off subnormal values, which x86 handles
# far more slowly than normal ones. Two flushes drop values below
# _FLUSH_BELOW: softmax outputs in the training backward pass, and Adam first
# moments that would decay to subnormals. Both are numerically inert. A
# dropped value changes a gradient or a moment by about its own size (times
# activations and weights of order one), and reaches a weight only through
# m / (sqrt(v) + eps), where eps = 1e-8 caps the amplification: the weight
# moves by about lr_t * 1e-30 / 1e-8, 1e-25 at the default learning rate, far
# less than half an ulp of any weight the net holds. The float64 input
# gradient keeps exact softmax values.
_FLUSH_BELOW = 1e-30
# Adam steps between first-moment flushes. A flush zeroes |m| below
# tiny / beta1**period (capped at _FLUSH_BELOW), so a zero-gradient moment
# stays normal until the next flush; scanning every step would cost more than
# the subnormals do.
_MOMENT_FLUSH_PERIOD = 16
# Elements per block of a weight gradient, whole rows of it, that training
# computes and hands to Adam at once: 1 MB of float32, 256 rows of the
# 2048x1024 layer. Smaller blocks cost more GEMM calls per step: one block per
# Adam chunk (32 rows) made a step 14-20% slower. A layer that fits in one
# block is not split: the 512x2 output layer split into 256-row halves
# differs from the whole product at 1000-row batches.
_GRAD_BLOCK = 1 << 18
# Validation widens a float32 layer of more than 2 * _WIDEN_COLS columns to
# float64 _WIDEN_COLS columns at a time (4 MB of the 2048x1024 layer); numpy's
# mixed-dtype matmul widens the whole layer. The blocked product equals the
# whole one bit for bit, but a 512-column layer split this way does not at 2
# and 3 rows, where OpenBLAS takes its small-matrix path.
_WIDEN_COLS = 256


@dataclass
class TrainConfig:
    hidden_sizes: tuple[int, ...] = (2048, 1024, 512)
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    dropout_rate: float = 0.20
    batch_size: int = 128
    max_epochs: int = 20
    val_fraction: float = 0.15
    patience: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        for name, value in (
            ("batch_size", self.batch_size),
            ("max_epochs", self.max_epochs),
            ("patience", self.patience),
            *((f"hidden_sizes[{i}]", n) for i, n in enumerate(self.hidden_sizes)),
        ):
            check_int(name, value, 1)
        for name in ("learning_rate", "adam_eps"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("beta1", "beta2", "dropout_rate"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1)")
        if not 0 < self.val_fraction < 0.5:
            raise ValueError("val_fraction must be in (0, 0.5)")


@dataclass
class DetectorParams:
    """Weights and biases, first hidden layer to output.

    sign_memo holds the FGSM sign matrices computed on this detector (see
    adversarial._gradient_signs). They stay valid while the arrays do not
    change: train and load return read-only arrays, and copy() starts with
    an empty memo.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    norm_scale: float = NORM_SCALE
    sign_memo: dict[tuple, np.ndarray] = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def copy(self) -> "DetectorParams":
        return DetectorParams(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.norm_scale,
        )

    def read_only(self) -> "DetectorParams":
        """Mark every weight and bias read-only, so nothing memoized on them goes stale; returns self."""
        for a in (*self.weights, *self.biases):
            a.flags.writeable = False
        return self

    @classmethod
    def initialize(
        cls,
        rng: np.random.Generator,
        input_len: int = FEATURE_LEN,
        hidden_sizes: Sequence[int] = (2048, 1024, 512),
        dtype: str = "float32",
    ) -> "DetectorParams":
        sizes = [input_len, *hidden_sizes, len(CLASS_ORDER)]
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            draw = rng.standard_normal((fan_in, fan_out))
            draw *= np.sqrt(2.0 / fan_in)  # He, matches the ReLU hiddens
            weights.append(draw.astype(dtype))
            biases.append(np.zeros(fan_out, dtype=dtype))
        return cls(weights, biases)

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = json.dumps(
            {
                "layer_sizes": self.layer_sizes,
                "dtypes": [str(w.dtype) for w in self.weights],
                "norm_scale": self.norm_scale,
            },
            sort_keys=True,
        ).encode()
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            for w, b in zip(self.weights, self.biases):
                fh.write(np.ascontiguousarray(w, dtype=w.dtype.newbyteorder("<")).tobytes())
                fh.write(np.ascontiguousarray(b, dtype=b.dtype.newbyteorder("<")).tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "DetectorParams":
        """Read a file written by save; any malformed field raises ValueError naming it."""
        data = Path(path).read_bytes()
        if not data.startswith(_MAGIC):
            raise ValueError(f"{path}: not a detector parameter file")
        pos = len(_MAGIC) + 4
        if len(data) < pos:
            raise ValueError(f"{path}: header length prefix is truncated")
        (header_len,) = struct.unpack_from("<I", data, len(_MAGIC))
        try:
            header = json.loads(data[pos : pos + header_len])
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ValueError(f"{path}: header is not valid JSON ({exc})") from None
        pos += header_len
        sizes, dtypes, norm_scale = _header_fields(path, header)
        expected = sum((fan_in + 1) * fan_out * dt.itemsize for fan_in, fan_out, dt in zip(sizes, sizes[1:], dtypes))
        if len(data) - pos < expected:
            raise ValueError(f"{path}: parameter data shorter than header promises")
        if len(data) - pos > expected:
            raise ValueError(f"{path}: trailing bytes after parameters")
        weights, biases = [], []
        for fan_in, fan_out, dt in zip(sizes, sizes[1:], dtypes):
            stored = dt.newbyteorder("<")
            w = np.frombuffer(data, dtype=stored, count=fan_in * fan_out, offset=pos)
            pos += w.nbytes
            b = np.frombuffer(data, dtype=stored, count=fan_out, offset=pos)
            pos += b.nbytes
            for tensor, values in (("weights", w), ("biases", b)):
                if not np.isfinite(values).all():
                    raise ValueError(f"{path}: layer {len(weights)} {tensor} hold a non-finite value")
            weights.append(w.reshape(fan_in, fan_out).astype(dt))
            biases.append(b.astype(dt))
        return cls(weights, biases, float(norm_scale)).read_only()


def _header_fields(path, header) -> tuple[list[int], list[np.dtype], float]:
    """Layer sizes, per-layer float dtypes and norm_scale of a parameter file header."""
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header must be a JSON object, got {type(header).__name__}")
    missing = [k for k in ("layer_sizes", "dtypes", "norm_scale") if k not in header]
    if missing:
        raise ValueError(f"{path}: header lacks {', '.join(missing)}")
    sizes, names, norm_scale = header["layer_sizes"], header["dtypes"], header["norm_scale"]
    if not isinstance(sizes, list) or len(sizes) < 2:
        raise ValueError(f"{path}: layer_sizes must list at least two integers >= 1, got {sizes!r}")
    for i, n in enumerate(sizes):
        check_int(f"{path}: layer_sizes[{i}]", n, 1)
    if sizes[0] != FEATURE_LEN:
        raise ValueError(
            f"{path}: layer_sizes[0] is {sizes[0]}, but layer 0 weights take one input per feature ({FEATURE_LEN})"
        )
    if sizes[-1] != len(CLASS_ORDER):
        raise ValueError(
            f"{path}: layer_sizes[-1] is {sizes[-1]}, but layer {len(sizes) - 2} weights give one output "
            f"per class ({len(CLASS_ORDER)})"
        )
    if not isinstance(names, list) or len(names) != len(sizes) - 1:
        raise ValueError(f"{path}: dtypes must name one dtype for each of {len(sizes) - 1} layers, got {names!r}")
    dtypes = []
    for i, name in enumerate(names):
        try:
            dt = np.dtype(name) if isinstance(name, str) else None
        except (TypeError, ValueError):
            dt = None
        if dt is None or dt.kind != "f":
            raise ValueError(f"{path}: dtypes[{i}] must be a float dtype, got {name!r}")
        dtypes.append(dt)
    if type(norm_scale) not in (int, float) or not (math.isfinite(norm_scale) and norm_scale > 0):
        raise ValueError(f"{path}: norm_scale must be a finite number > 0, got {norm_scale!r}")
    return sizes, dtypes, norm_scale


def normalize(x_raw: np.ndarray, norm_scale: float = NORM_SCALE) -> np.ndarray:
    return np.asarray(x_raw, dtype=np.float64) / norm_scale


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def forward(params: DetectorParams, x_norm: np.ndarray) -> np.ndarray:
    """Class probabilities for normalized inputs, shape (..., 2), dropout off."""
    probs = _softmax(_forward_core(params, np.atleast_2d(np.asarray(x_norm))))
    return probs if np.ndim(x_norm) > 1 else probs[0]


def _forward_core(
    params: DetectorParams, x: np.ndarray, dropout_rate: float = 0.0, rng=None, cache=None, product=np.matmul
) -> np.ndarray:
    """Logits for a 2-D batch, inverted dropout on every hidden layer when dropout_rate > 0.

    With a cache list, each layer's input and the dropout mask already
    applied to it (None for the net input or without dropout) are appended
    as pairs for _gradient_blocks. product(h, w) gives each layer's h @ w.
    """
    h, mask = x, None
    keep = 1.0 - dropout_rate
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        if cache is not None:
            cache.append((h, mask))
        h = product(h, w)
        h += b
        np.maximum(h, 0, out=h)
        if dropout_rate > 0:
            mask = (rng.random(h.shape) < keep).astype(h.dtype)
            mask /= keep
            h *= mask
    if cache is not None:
        cache.append((h, mask))
    logits = product(h, params.weights[-1])
    logits += params.biases[-1]
    return logits


def _column_blocked_product(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """h @ w for a float64 h and a float32 w, widening a layer wider than
    2 * _WIDEN_COLS columns _WIDEN_COLS columns at a time into one float64
    output; bit-identical to h @ w."""
    if w.shape[1] <= 2 * _WIDEN_COLS:
        return h @ w
    out = np.empty((len(h), w.shape[1]))
    for c in range(0, w.shape[1], _WIDEN_COLS):
        np.matmul(h, w[:, c : c + _WIDEN_COLS].astype(np.float64), out=out[:, c : c + _WIDEN_COLS])
    return out


def _classes(probs: np.ndarray) -> np.ndarray:
    """Class index per row of probabilities; ties go to C2."""
    return np.where(probs[:, 0] >= probs[:, 1], 0, 1)


def predict(params: DetectorParams, features: Sequence[FeatureVector]) -> list[Label]:
    """Labels for feature vectors."""
    x_raw = np.array([fv.values for fv in features], dtype=np.float64)
    probs = forward(params, normalize(x_raw, params.norm_scale))
    return [CLASS_ORDER[i] for i in _classes(probs).tolist()]


def dataset_matrices(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Raw feature matrix and integer class vector for a dataset."""
    x = np.array([s.features.values for s in dataset.samples], dtype=np.float64)
    y = np.array([LABEL_INDEX[s.label] for s in dataset.samples], dtype=np.int64)
    return x, y


def cross_entropy(logits: np.ndarray, y: np.ndarray) -> float:
    # logsumexp form keeps the loss exact for the gradient checks
    z = np.atleast_2d(logits)
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    return float(np.mean(lse - z[np.arange(len(z)), y]))


def _output_delta(logits: np.ndarray, y: np.ndarray, flush_below: float) -> np.ndarray:
    """d(mean cross-entropy)/d(logits): softmax minus one-hot over the batch
    size, with softmax outputs below flush_below counted as zero."""
    n = len(logits)
    delta = _softmax(logits)
    if flush_below:
        np.putmask(delta, delta < flush_below, 0.0)
    delta[np.arange(n), y] -= 1.0
    delta /= n
    return delta


def _hidden_delta(w: np.ndarray, delta: np.ndarray, active: np.ndarray, mask) -> np.ndarray:
    """Carry delta back through w to a hidden layer; active marks where its
    output (after ReLU and any dropout mask) is positive."""
    delta = delta @ w.T
    if mask is not None:
        delta *= mask
    delta *= active
    return delta


def _gradient_blocks(params: DetectorParams, cache, logits, y):
    """Gradients of mean cross-entropy wrt every weight and bias, for
    training, a block at a time from the output layer down.

    Yields (layer, rows, block): block is the gradient of
    params.weights[layer][rows], or of params.biases[layer] where rows is
    None. A layer's blocks come after delta has been carried through its
    weights, so the consumer may update each block's parameters before
    taking the next. cache is _forward_core's. Softmax outputs below
    _FLUSH_BELOW count as zero, so each output delta moves by less than
    _FLUSH_BELOW / n, and a row the net gets right with its other output
    below the cutoff contributes exactly nothing.
    """
    delta = _output_delta(logits, y, _FLUSH_BELOW)
    for i in range(len(params.weights) - 1, -1, -1):
        h, mask = cache[i]
        below = _hidden_delta(params.weights[i], delta, h > 0, mask) if i > 0 else None
        yield i, None, delta.sum(axis=0)
        n_rows = max(1, _GRAD_BLOCK // delta.shape[1])
        for r in range(0, h.shape[1], n_rows):
            yield i, slice(r, r + n_rows), h[:, r : r + n_rows].T @ delta
        delta = below


class _SignCache(list):
    """A _forward_core cache keeping only where each layer input is positive."""

    def append(self, pair) -> None:
        super().append((pair[0] > 0, pair[1]))


def input_gradient(params: DetectorParams, x_norm: np.ndarray, y: np.ndarray | int) -> np.ndarray:
    """d(cross-entropy)/d(input) for normalized inputs, dropout off.

    Accepts a single row or a batch; per-sample losses are not batch-averaged
    so each returned row is the gradient of that sample's own loss. Each
    layer is widened to float64 before it is transposed: bit for bit a pass
    over a float64 copy of the net.
    """
    x = np.atleast_2d(np.asarray(x_norm, dtype=np.float64))
    y_arr = np.atleast_1d(np.asarray(y, dtype=np.int64))
    if len(y_arr) != len(x):
        raise ValueError("labels do not match input rows")
    cache = _SignCache()
    logits = _forward_core(params, x, cache=cache)
    # exact softmax: FGSM takes the sign of every entry, tiny ones included
    delta = _output_delta(logits, y_arr, 0.0)
    for i in range(len(params.weights) - 1, 0, -1):
        delta = _hidden_delta(params.weights[i].astype(np.float64), delta, *cache[i])
    dx = delta @ params.weights[0].astype(np.float64).T
    dx *= len(x)  # undo the batch mean: per-sample gradients
    return dx if np.ndim(x_norm) > 1 else dx[0]


@dataclass
class _AdamState:
    m_w: list[np.ndarray]
    v_w: list[np.ndarray]
    m_b: list[np.ndarray]
    v_b: list[np.ndarray]
    # Step scratch for one chunk of rows: moment-term temporaries in the
    # parameter dtype, the float64 update lr_t * m / (sqrt(v) + eps),
    # float64 because lr_t is an np.float64, and the float64 copy of each
    # operand the update combines with.
    scratch: np.ndarray
    scratch64: np.ndarray
    wide64: np.ndarray
    t: int = 0

    @classmethod
    def zeros_for(cls, params: DetectorParams) -> "_AdamState":
        largest = max(_ADAM_CHUNK, *(w.shape[1] for w in params.weights))
        return cls(
            m_w=[np.zeros_like(w) for w in params.weights],
            v_w=[np.zeros_like(w) for w in params.weights],
            m_b=[np.zeros_like(b) for b in params.biases],
            v_b=[np.zeros_like(b) for b in params.biases],
            scratch=np.empty(largest, dtype=params.weights[0].dtype),
            scratch64=np.empty(largest, dtype=np.float64),
            wide64=np.empty(largest, dtype=np.float64),
        )


def train(dataset: Dataset, config: TrainConfig | None = None) -> tuple[DetectorParams, list[dict]]:
    """Fit the detector; returns parameters and a per-epoch history.

    The dataset must contain both classes. A held-back validation slice
    drives early stopping; the best-validation-loss parameters win.
    """
    config = config or TrainConfig()
    x_raw, y = dataset_matrices(dataset)
    return train_arrays(x_raw, y, config)


def train_arrays(x_raw: np.ndarray, y: np.ndarray, config: TrainConfig) -> tuple[DetectorParams, list[dict]]:
    if len(np.unique(y)) < 2:
        raise ValueError("training data must contain both classes")
    seq = np.random.SeedSequence(config.seed)
    init_rng, shuffle_rng, drop_rng = (np.random.default_rng(s) for s in seq.spawn(3))

    x = normalize(x_raw).astype(np.float32)
    y = np.asarray(y, dtype=np.int64)
    n = len(x)
    order = shuffle_rng.permutation(n)
    n_val = max(1, int(n * config.val_fraction))
    val_idx, train_idx = order[:n_val], order[n_val:]
    x_tr, y_tr = x[train_idx], y[train_idx]
    x_val, y_val = x[val_idx].astype(np.float64), y[val_idx]

    params = DetectorParams.initialize(
        init_rng, input_len=x.shape[1], hidden_sizes=tuple(config.hidden_sizes)
    )
    state = _AdamState.zeros_for(params)

    history: list[dict] = []
    best_val = np.inf
    best_params = params.copy()
    strikes = 0
    for epoch in range(config.max_epochs):
        epoch_order = shuffle_rng.permutation(len(x_tr))
        batch_losses = []
        for start in range(0, len(x_tr), config.batch_size):
            idx = epoch_order[start : start + config.batch_size]
            xb, yb = x_tr[idx], y_tr[idx]
            cache: list = []
            logits = _forward_core(params, xb, config.dropout_rate, drop_rng, cache)
            batch_losses.append(cross_entropy(logits, yb))
            _adam_step(params, state, _gradient_blocks(params, cache, logits, yb), config)
        del cache, logits  # the last batch's activations are not held through validation
        # one float64 pass over the float32 weights scores the validation slice
        val_logits = _forward_core(params, x_val, product=_column_blocked_product)
        entry = {
            "epoch": epoch,
            "train_loss": float(np.mean(batch_losses)),
            "val_loss": cross_entropy(val_logits, y_val),
            "val_accuracy": float(np.mean(_classes(_softmax(val_logits)) == y_val)),
        }
        history.append(entry)
        if entry["val_loss"] < best_val - 1e-5:
            best_val = entry["val_loss"]
            for best, current in zip(best_params.weights + best_params.biases, params.weights + params.biases):
                np.copyto(best, current)
            strikes = 0
        else:
            strikes += 1
            if strikes >= config.patience:
                break
    return best_params.read_only(), history


def _adam_step(params, state, blocks, config: TrainConfig) -> None:
    """One Adam update in place, from _gradient_blocks' blocks, each of its
    parameter's dtype, applied as they come; no block outlives its update.

    Same operations, in the same order and precision, as
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        target -= lr_t * m / (sqrt(v) + eps)
    with every temporary in the state's scratch buffers. Each block is
    updated a chunk of rows at a time so the operands stay in cache between
    the passes. Every _MOMENT_FLUSH_PERIOD steps, after the update, first
    moments that would decay to subnormals before the next flush are zeroed.
    """
    state.t += 1
    lr_t = config.learning_rate * (
        np.sqrt(1 - config.beta2**state.t) / (1 - config.beta1**state.t)
    )
    flush = state.t % _MOMENT_FLUSH_PERIOD == 0
    for i, block_rows, grad in blocks:
        if block_rows is None:
            target, m, v = params.biases[i], state.m_b[i], state.v_b[i]
        else:
            target, m, v = params.weights[i][block_rows], state.m_w[i][block_rows], state.v_w[i][block_rows]
        rows = max(1, _ADAM_CHUNK * len(target) // target.size)
        for r in range(0, len(target), rows):
            tg, g, mc, vc = target[r : r + rows], grad[r : r + rows], m[r : r + rows], v[r : r + rows]
            tmp = state.scratch[: g.size].reshape(g.shape)
            update = state.scratch64[: g.size].reshape(g.shape)
            wide = state.wide64[: g.size].reshape(g.shape)
            mc *= config.beta1
            np.multiply(1 - config.beta1, g, out=tmp)
            mc += tmp
            vc *= config.beta2
            np.multiply(1 - config.beta2, g, out=tmp)
            tmp *= g
            vc += tmp
            np.sqrt(vc, out=tmp)
            tmp += config.adam_eps
            # The float64 steps take their operands widened into scratch
            # first: the same float64 arithmetic as the mixed-dtype
            # ufunc loops, without their buffered casts.
            np.copyto(update, mc)
            update *= lr_t
            np.copyto(wide, tmp)
            update /= wide
            np.copyto(wide, tg)
            wide -= update
            np.copyto(tg, wide, casting="same_kind")
            if flush:
                np.abs(mc, out=tmp)
                np.putmask(mc, tmp < _moment_floor(mc.dtype, config.beta1), 0.0)


def _moment_floor(dtype: np.dtype, beta1: float) -> float:
    """Smallest first moment that stays normal over _MOMENT_FLUSH_PERIOD
    zero-gradient steps, capped at _FLUSH_BELOW (for a small beta1)."""
    tiny = float(np.finfo(dtype).tiny)
    return tiny / max(beta1**_MOMENT_FLUSH_PERIOD, tiny / _FLUSH_BELOW)


def accuracy(params: DetectorParams, dataset: Dataset) -> float:
    x, y = dataset_matrices(dataset)
    pred = _classes(forward(params, normalize(x, params.norm_scale)))
    return float(np.mean(pred == y))
