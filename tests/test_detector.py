import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from c2lab import detector as det
from c2lab.model import Dataset, FeatureVector, Label, LabeledSample, Provenance


def small_params(seed=0, dtype="float64", hidden=(8, 6)):
    rng = np.random.default_rng(seed)
    return det.DetectorParams.initialize(rng, input_len=20, hidden_sizes=hidden, dtype=dtype)


def random_rows(rng, n):
    x = rng.integers(16, 16408, size=(n, 20)).astype(np.float64)
    # realistic padding suffixes
    for row in x:
        k = rng.integers(1, 21)
        row[k:] = -1.0
    return x


def test_forward_outputs_probabilities():
    params = small_params()
    rng = np.random.default_rng(1)
    x = det.normalize(random_rows(rng, 32))
    probs = det.forward(params, x)
    assert probs.shape == (32, 2)
    assert np.all(probs >= 0)
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_forward_single_row_shape():
    params = small_params()
    probs = det.forward(params, np.zeros(20))
    assert probs.shape == (2,)


def test_ties_flag_as_c2():
    # zero weights force identical logits; the cheap mistake wins
    zero = det.DetectorParams(
        [np.zeros((20, 4)), np.zeros((4, 2))], [np.zeros(4), np.zeros(2)]
    )
    fv = FeatureVector.from_sizes([304, 192])
    assert det.predict(zero, [fv]) == [Label.C2]


def test_class_order_pins_c2_to_column_zero():
    assert det.LABEL_INDEX[Label.C2] == 0
    assert det.LABEL_INDEX[Label.NON_C2] == 1
    assert det.CLASS_ORDER == (Label.C2, Label.NON_C2)


def test_normalization_scale():
    x = np.array([[16408.0] + [-1.0] * 19])
    norm = det.normalize(x)
    assert norm[0, 0] == pytest.approx(1.0)
    assert norm[0, 1] == pytest.approx(-1.0 / 16408)


def test_save_load_roundtrip(tmp_path):
    params = small_params(seed=3, dtype="float32")
    path = tmp_path / "net.bin"
    params.save(path)
    loaded = det.DetectorParams.load(path)
    assert loaded.layer_sizes == params.layer_sizes
    assert loaded.norm_scale == params.norm_scale
    for a, b in zip(loaded.weights, params.weights):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    rng = np.random.default_rng(5)
    x = det.normalize(random_rows(rng, 16))
    assert np.array_equal(det.forward(loaded, x), det.forward(params, x))


def test_load_rejects_corrupt_files(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTDETZ" + b"\x00" * 64)
    with pytest.raises(ValueError):
        det.DetectorParams.load(path)
    good = tmp_path / "good.bin"
    small_params(dtype="float32").save(good)
    trailing = tmp_path / "trailing.bin"
    trailing.write_bytes(good.read_bytes() + b"\x00")
    with pytest.raises(ValueError):
        det.DetectorParams.load(trailing)


def _split_saved(path):
    data = path.read_bytes()
    n = len(det._MAGIC)
    (header_len,) = struct.unpack_from("<I", data, n)
    return json.loads(data[n + 4 : n + 4 + header_len]), data[n + 4 + header_len :]


def _file(header, body):
    raw = header if isinstance(header, bytes) else json.dumps(header).encode()
    return det._MAGIC + struct.pack("<I", len(raw)) + raw + body


_DROP = object()


def _edit(key, value):
    def mutate(header, body):
        edited = dict(header)
        if value is _DROP:
            del edited[key]
        else:
            edited[key] = value(header[key]) if callable(value) else value
        return _file(edited, body)

    return mutate


@pytest.mark.parametrize(
    "mutate, field",
    [
        pytest.param(lambda h, b: det._MAGIC + b"\x05\x00", "length prefix", id="short-length-prefix"),
        pytest.param(lambda h, b: _file(h, b)[: len(det._MAGIC) + 14], "JSON", id="cut-header"),
        pytest.param(lambda h, b: _file(b"{layer_sizes", b), "JSON", id="non-json-header"),
        pytest.param(lambda h, b: _file(b"\xff\xfe", b), "JSON", id="non-utf8-header"),
        pytest.param(lambda h, b: _file([20, 8, 6, 2], b), "JSON object", id="list-header"),
        pytest.param(_edit("dtypes", _DROP), "dtypes", id="missing-dtypes"),
        pytest.param(_edit("dtypes", lambda d: d[:-1]), "dtypes", id="short-dtypes"),
        pytest.param(_edit("dtypes", lambda d: ["float99"] + d[1:]), "dtypes[0]", id="unknown-dtype"),
        pytest.param(_edit("dtypes", lambda d: ["object"] + d[1:]), "dtypes[0]", id="object-dtype"),
        pytest.param(_edit("dtypes", lambda d: d[:-1] + ["int32"]), "dtypes[2]", id="int-dtype"),
        pytest.param(_edit("dtypes", lambda d: [None] + d[1:]), "dtypes[0]", id="null-dtype"),
        pytest.param(_edit("layer_sizes", lambda s: [20, -8, 6, 2]), "layer_sizes", id="negative-size"),
        pytest.param(_edit("layer_sizes", lambda s: [20, 0, 6, 2]), "layer_sizes", id="zero-size"),
        pytest.param(_edit("layer_sizes", lambda s: [20, 8.0, 6, 2]), "layer_sizes", id="float-size"),
        pytest.param(_edit("layer_sizes", lambda s: [20, 10**9, 6, 2]), "shorter", id="huge-size"),
        pytest.param(_edit("norm_scale", 0), "norm_scale", id="zero-norm-scale"),
        pytest.param(_edit("norm_scale", -16408.0), "norm_scale", id="negative-norm-scale"),
        pytest.param(_edit("norm_scale", math.nan), "norm_scale", id="nan-norm-scale"),
        pytest.param(_edit("norm_scale", "16408"), "norm_scale", id="string-norm-scale"),
        pytest.param(lambda h, b: _file(h, b[:-1]), "shorter", id="cut-body"),
    ],
)
def test_load_names_the_bad_field(tmp_path, mutate, field):
    good = tmp_path / "good.bin"
    small_params(dtype="float32").save(good)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(mutate(*_split_saved(good)))
    with pytest.raises(ValueError) as excinfo:
        det.DetectorParams.load(bad)
    assert str(bad) in str(excinfo.value)
    assert field in str(excinfo.value)


def _separable_dataset(n=240, seed=0):
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n // 2):
        c2 = [int(v) for v in rng.integers(280, 340, size=4)]
        samples.append(LabeledSample(FeatureVector.from_sizes(c2), Label.C2, Provenance.REGULAR))
        web = [int(v) for v in rng.integers(2000, 16000, size=12)]
        samples.append(LabeledSample(FeatureVector.from_sizes(web), Label.NON_C2, Provenance.WEB))
    return Dataset(samples, seed)


def test_training_learns_a_separable_problem():
    ds = _separable_dataset()
    cfg = det.TrainConfig(hidden_sizes=(32, 16), max_epochs=12, batch_size=32, seed=1)
    params, history = det.train(ds, cfg)
    assert det.accuracy(params, ds) >= 0.95
    assert 1 <= len(history) <= 12
    for entry in history:
        assert set(entry) == {"epoch", "train_loss", "val_loss", "val_accuracy"}


def test_training_is_seed_deterministic():
    ds = _separable_dataset()
    cfg = det.TrainConfig(hidden_sizes=(16, 8), max_epochs=4, batch_size=32, seed=7)
    p1, h1 = det.train(ds, cfg)
    p2, h2 = det.train(ds, cfg)
    assert h1 == h2
    assert all(np.array_equal(a, b) for a, b in zip(p1.weights, p2.weights))


def test_training_needs_both_classes():
    full = _separable_dataset()
    ds = Dataset([s for s in full.samples if s.label is Label.C2], full.seed)
    with pytest.raises(ValueError):
        det.train(ds, det.TrainConfig(hidden_sizes=(8,), max_epochs=1))


def test_early_stopping_respects_patience():
    ds = _separable_dataset(n=120)
    cfg = det.TrainConfig(hidden_sizes=(16,), max_epochs=20, patience=2, batch_size=32, seed=2)
    _params, history = det.train(ds, cfg)
    assert len(history) <= 20


def test_train_config_validation():
    with pytest.raises(ValueError):
        det.TrainConfig(dropout_rate=1.0)
    with pytest.raises(ValueError):
        det.TrainConfig(val_fraction=0.6)


@pytest.mark.parametrize(
    "field, value",
    [
        ("batch_size", 0),
        ("batch_size", 2.5),
        ("max_epochs", 0),
        ("patience", 0),
        ("learning_rate", -1.0),
        ("learning_rate", 0.0),
        ("beta1", 1.0),
        ("beta1", -0.1),
        ("beta2", 1.0),
        ("adam_eps", 0.0),
        ("adam_eps", math.nan),
        ("hidden_sizes", (2048, 0, 512)),
    ],
)
def test_train_config_names_out_of_range_field(field, value):
    # a config file's train section reaches these checks through ExperimentConfig.from_dict
    with pytest.raises(ValueError, match=field):
        replace(det.TrainConfig(), **{field: value})


def test_train_config_accepts_edge_values():
    det.TrainConfig()
    det.TrainConfig(max_epochs=10, patience=10)
    det.TrainConfig(beta1=0.0, beta2=0.0, batch_size=1, max_epochs=1, patience=1, hidden_sizes=())


def _reference_adam_step(params, state, grads_w, grads_b, config):
    # the allocating update the in-place one must reproduce bit for bit
    state.t += 1
    lr_t = config.learning_rate * (
        np.sqrt(1 - config.beta2**state.t) / (1 - config.beta1**state.t)
    )
    for i in range(len(params.weights)):
        for target, grad, m, v in (
            (params.weights[i], grads_w[i], state.m_w[i], state.v_w[i]),
            (params.biases[i], grads_b[i], state.m_b[i], state.v_b[i]),
        ):
            grad = grad.astype(target.dtype)
            m *= config.beta1
            m += (1 - config.beta1) * grad
            v *= config.beta2
            v += (1 - config.beta2) * grad * grad
            target -= lr_t * m / (np.sqrt(v) + config.adam_eps)


@pytest.mark.parametrize("chunk", [None, 7])
def test_adam_step_is_bit_identical_to_allocating_update(monkeypatch, chunk):
    if chunk is not None:
        # single rows wider than a chunk, and a short last chunk of a bias
        monkeypatch.setattr(det, "_ADAM_CHUNK", chunk)
    config = det.TrainConfig()
    # the 1024x64 weight spans two default chunks
    params = small_params(seed=2, dtype="float32", hidden=(1024, 64))
    ref = params.copy()
    state, ref_state = det._AdamState.zeros_for(params), det._AdamState.zeros_for(ref)
    rng = np.random.default_rng(9)
    for _ in range(5):
        grads_w = [(rng.standard_normal(w.shape) * 1e-2).astype(np.float32) for w in params.weights]
        grads_b = [(rng.standard_normal(b.shape) * 1e-2).astype(np.float32) for b in params.biases]
        det._adam_step(params, state, grads_w, grads_b, config)
        _reference_adam_step(ref, ref_state, grads_w, grads_b, config)
    assert state.t == ref_state.t == 5
    for got, want in (
        (params.weights, ref.weights),
        (params.biases, ref.biases),
        (state.m_w, ref_state.m_w),
        (state.v_w, ref_state.v_w),
        (state.m_b, ref_state.m_b),
        (state.v_b, ref_state.v_b),
    ):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


def _reference_backward(params, cache, logits, y):
    # the full backward pass from exact softmax values: every parameter
    # gradient and the input gradient
    n = len(logits)
    delta = det._softmax(logits)
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.biases)
    for i in range(len(params.weights) - 1, -1, -1):
        h, mask = cache[i]
        grads_w[i] = h.T @ delta
        grads_b[i] = delta.sum(axis=0)
        delta = delta @ params.weights[i].T
        if i > 0:
            if mask is not None:
                delta *= mask
            delta *= h > 0
    return grads_w, grads_b, delta


def _confident_batch(dtype, seed=4, n=48):
    # a large output layer pushes many rows' logit margins past the flush
    # cutoff; labels mostly follow the net's own predictions
    params = small_params(seed=seed, dtype=dtype, hidden=(32, 16))
    params.weights[-1] *= 400.0
    x = det.normalize(random_rows(np.random.default_rng(6), n)).astype(dtype)
    probs = det.forward(params, x)
    y = probs.argmax(axis=1)
    y[:4] = 1 - y[:4]  # and a few wrong rows
    # rows the net gets right with the other output below the cutoff
    settled = (probs.min(axis=1) < det._FLUSH_BELOW) & (probs.argmax(axis=1) == y)
    assert 0 < settled.sum() < n
    return params, x, y, settled


def test_input_gradient_skips_parameter_gradients_bit_for_bit():
    params, x, y, settled = _confident_batch("float64")
    cache: list = []
    logits = det._forward_core(params, x, cache=cache)
    *_, want = _reference_backward(params, cache, logits, y)
    want *= len(x)
    got = det.input_gradient(params, x, y)
    assert np.array_equal(got, want)
    # softmax entries below the training cutoff still reach the input gradient
    assert np.all(np.any(got[settled] != 0, axis=1))


def _flush_bound(params, cache, n):
    # every flushed softmax entry is below the cutoff, so each output delta
    # moves by less than cutoff / n; carry that back through |w| and the masks
    d = np.full((n, params.layer_sizes[-1]), det._FLUSH_BELOW / n)
    bounds_w, bounds_b = [None] * len(params.weights), [None] * len(params.weights)
    for i in range(len(params.weights) - 1, -1, -1):
        h, mask = cache[i]
        h = h.astype(np.float64)
        bounds_w[i] = np.abs(h).T @ d
        bounds_b[i] = d.sum(axis=0)
        d = d @ np.abs(params.weights[i].astype(np.float64)).T
        if mask is not None:
            d *= mask
        d *= h > 0
    return bounds_w, bounds_b


def test_training_backward_flushes_only_what_the_cutoff_bounds():
    params, x, y, settled = _confident_batch("float32")
    cache: list = []
    logits = det._forward_core(params, x, 0.2, np.random.default_rng(1), cache)
    gw, gb = det._backward(params, cache, logits, y)
    ref_w, ref_b, _ = _reference_backward(params, cache, logits, y)
    bound_w, bound_b = _flush_bound(params, cache, len(x))
    for got, want, bound in zip(gw + gb, ref_w + ref_b, bound_w + bound_b):
        assert got.dtype == np.float32
        # a last-place slack for the float32 sums the dropped terms fed
        assert np.all(np.abs(got.astype(np.float64) - want) <= bound + np.spacing(np.abs(want)))

    # settled rows contribute exactly nothing; unflushed they leave subnormals
    sub_cache: list = []
    sub_logits = det._forward_core(params, x[settled], cache=sub_cache)
    gw, gb = det._backward(params, sub_cache, sub_logits, y[settled])
    assert all(not np.any(g) for g in gw + gb)
    ref_w, ref_b, _ = _reference_backward(params, sub_cache, sub_logits, y[settled])
    assert any(np.any(g) for g in ref_w + ref_b)


def _subnormal_count(arrays):
    tiny = np.finfo(np.float32).tiny
    return sum(int(np.count_nonzero((a != 0) & (np.abs(a) < tiny))) for a in arrays)


def test_adam_moment_flush_keeps_weights_exact():
    config = det.TrainConfig()
    rng = np.random.default_rng(5)
    params = small_params(seed=2, dtype="float32", hidden=(1024, 64))
    # a mid-training state: a dropped moment is inert for parameters away from zero
    for b in params.biases:
        b[...] = rng.standard_normal(b.shape) * 1e-2
    ref = params.copy()
    state, ref_state = det._AdamState.zeros_for(params), det._AdamState.zeros_for(ref)
    tiny = np.finfo(np.float32).tiny
    # first moments: subnormal, near tiny (under and over the flush floor)
    # and normal; second moments small enough that eps dominates some
    levels = np.array([tiny / 4, tiny * 1.5, tiny * 8, 1e-4], dtype=np.float32)
    dead = []
    for i, w in enumerate(params.weights + params.biases):
        m = rng.choice(levels, size=w.shape) * rng.choice([-1, 1], size=w.shape).astype(np.float32)
        v = (10.0 ** rng.uniform(-16, -6, size=w.shape)).astype(np.float32)
        for st in (state, ref_state):
            moments = (st.m_w, st.v_w) if i < len(params.weights) else (st.m_b, st.v_b)
            j = i % len(params.weights)
            moments[0][j][...] = m
            moments[1][j][...] = v
        dead.append(rng.random(w.shape) < 0.5)  # these never see a gradient
    flushed = 0
    for t in range(1, 2 * det._MOMENT_FLUSH_PERIOD + 5):
        grads = [
            np.where(d, 0, rng.standard_normal(d.shape) * 1e-2).astype(np.float32) for d in dead
        ]
        nw = len(params.weights)
        det._adam_step(params, state, grads[:nw], grads[nw:], config)
        _reference_adam_step(ref, ref_state, grads[:nw], grads[nw:], config)
        for a, b in zip(params.weights + params.biases, ref.weights + ref.biases):
            assert np.array_equal(a, b)
        if t % det._MOMENT_FLUSH_PERIOD == 0:
            assert _subnormal_count(state.m_w + state.m_b) == 0
            flushed += sum(
                int(np.count_nonzero((a == 0) & (b != 0)))
                for a, b in zip(state.m_w + state.m_b, ref_state.m_w + ref_state.m_b)
            )
    assert _subnormal_count(ref_state.m_w + ref_state.m_b) > 0
    assert flushed > 0


def test_moment_floor_is_capped_for_a_small_beta1():
    tiny = float(np.finfo(np.float32).tiny)
    assert det._moment_floor(np.float32, 0.9) == tiny / 0.9**det._MOMENT_FLUSH_PERIOD
    assert det._moment_floor(np.float32, 0.9) < det._FLUSH_BELOW
    for beta1 in (0.0, 0.1, 0.3):
        assert det._moment_floor(np.float32, beta1) == pytest.approx(det._FLUSH_BELOW)


def test_short_training_run_leaves_no_subnormal_moments(monkeypatch):
    # confident enough, at this rate, for softmax outputs and zero-gradient
    # first moments to underflow when nothing flushes them
    ds = _separable_dataset()
    cfg = det.TrainConfig(hidden_sizes=(32, 16), learning_rate=3e-2, max_epochs=60, patience=60, batch_size=16, seed=1)
    step = det._adam_step

    def run():
        states, grads = [], []

        def spy(params, state, grads_w, grads_b, config):
            grads.append(_subnormal_count(grads_w + grads_b))
            step(params, state, grads_w, grads_b, config)
            states[:] = [state]

        monkeypatch.setattr(det, "_adam_step", spy)
        params, _ = det.train(ds, cfg)
        return params, states[0], sum(grads)

    params, state, sub_grads = run()
    monkeypatch.setattr(det, "_FLUSH_BELOW", 0.0)
    monkeypatch.setattr(det, "_MOMENT_FLUSH_PERIOD", 10**9)
    raw_params, raw_state, raw_sub_grads = run()
    assert _subnormal_count(state.m_w + state.m_b + state.v_w + state.v_b) == sub_grads == 0
    assert _subnormal_count(raw_state.m_w + raw_state.m_b) > 0 and raw_sub_grads > 0
    for a, b in zip(params.weights + params.biases, raw_params.weights + raw_params.biases):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_training_forward_matches_allocating_dropout(dtype):
    params = small_params(seed=8, dtype=dtype, hidden=(32, 16))
    x = det.normalize(random_rows(np.random.default_rng(3), 16)).astype(dtype)
    rate, keep = 0.2, 0.8
    rng = np.random.default_rng(12)
    h = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = np.maximum(h @ w + b, 0)
        h = h * ((rng.random(h.shape) < keep).astype(h.dtype) / keep)
    want = det._softmax(h @ params.weights[-1] + params.biases[-1])
    got = det._softmax(det._forward_core(params, x, rate, np.random.default_rng(12)))
    assert np.array_equal(got, want)


def test_loss_matches_cross_entropy_formula():
    logits = np.array([[2.0, -1.0], [0.5, 0.5], [-3.0, 1.0]])
    y = np.array([0, 1, 1])
    manual = float(np.mean(
        [-np.log(np.exp(l[t]) / np.exp(l).sum()) for l, t in zip(logits, y)]
    ))
    assert det.cross_entropy(logits, y) == pytest.approx(manual, rel=1e-12)


def test_input_gradient_matches_finite_differences():
    params = small_params(seed=11, dtype="float64")
    rng = np.random.default_rng(4)
    x = det.normalize(random_rows(rng, 3))
    y = np.array([0, 1, 0])
    analytic = det.input_gradient(params, x, y)
    h = 1e-6
    for i in range(len(x)):
        for j in range(0, 20, 3):
            xp, xm = x.copy(), x.copy()
            xp[i, j] += h
            xm[i, j] -= h
            numeric = (det.loss_on(params, xp[i], y[i]) - det.loss_on(params, xm[i], y[i])) / (2 * h)
            assert analytic[i, j] == pytest.approx(numeric, rel=1e-4, abs=1e-7)


def test_per_sample_gradients_not_batch_scaled():
    params = small_params(seed=11, dtype="float64")
    x = det.normalize(np.arange(40, dtype=np.float64).reshape(2, 20) * 100 + 100)
    single = det.input_gradient(params, x[0], 0)
    batch = det.input_gradient(params, x, np.array([0, 0]))
    assert np.allclose(single, batch[0])


def test_accuracy_on_known_predictions():
    zero = det.DetectorParams([np.zeros((20, 2))], [np.zeros(2)])
    ds = _separable_dataset(n=40)
    # ties everywhere: every sample lands on C2
    acc = det.accuracy(zero, ds)
    assert acc == pytest.approx(0.5)
