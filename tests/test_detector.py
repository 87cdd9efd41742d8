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


def test_dropout_needs_rng():
    params = small_params()
    with pytest.raises(ValueError):
        det.forward(params, np.zeros((2, 20)), training=True, dropout_rate=0.5)


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
    ds = _separable_dataset().only(Label.C2)
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


def test_backward_parameter_gradients_ignore_input_gradient_flag():
    params = small_params(seed=4, dtype="float32", hidden=(32, 16))
    x = det.normalize(random_rows(np.random.default_rng(6), 24)).astype(np.float32)
    y = np.arange(24) % 2
    cache: list = []
    logits = det._forward_core(params, x, 0.2, np.random.default_rng(1), cache)
    gw, gb, dx = det._backward(params, cache, logits, y, input_grad=True)
    gw_train, gb_train, none = det._backward(params, cache, logits, y)
    assert none is None
    assert dx.shape == x.shape
    assert all(np.array_equal(a, b) for a, b in zip(gw, gw_train))
    assert all(np.array_equal(a, b) for a, b in zip(gb, gb_train))


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
    got = det.forward(params, x, training=True, dropout_rate=rate, rng=np.random.default_rng(12))
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
