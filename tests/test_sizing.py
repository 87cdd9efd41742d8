import numpy as np
import pytest
from hypothesis import given, strategies as st

from c2lab.sizing import TlsSizeModel
from oracles import on_grid


def test_known_framings():
    m = TlsSizeModel()
    # bare GET/POST header block and a bare status response
    assert m.framed_size(283) == 304
    assert m.framed_size(171) == 192
    assert m.framed_size(0) == 16
    assert m.framed_size(1) == 32


def test_min_framed_size_is_empty_plaintext():
    m = TlsSizeModel()
    assert m.min_framed_size() == m.framed_size(0) == 16


def test_rejects_negative_plaintext():
    with pytest.raises(ValueError):
        TlsSizeModel().framed_size(-1)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TlsSizeModel(tag_len=-1)
    with pytest.raises(ValueError):
        TlsSizeModel(block_len=0)


@given(st.integers(min_value=0, max_value=1 << 20))
def test_framing_covers_plaintext_and_tag(p):
    m = TlsSizeModel()
    framed = m.framed_size(p)
    assert framed >= p + m.tag_len
    assert framed % m.block_len == 0
    # minimal multiple: one block less would not fit
    assert framed - m.block_len < p + m.tag_len


@given(
    st.integers(min_value=0, max_value=1 << 16),
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=1, max_value=64),
)
def test_framing_general_cipher_parameters(p, tag, block):
    m = TlsSizeModel(tag_len=tag, block_len=block)
    framed = m.framed_size(p)
    assert framed >= p + tag
    assert framed % block == 0


def test_grid_membership():
    m = TlsSizeModel()
    assert on_grid(m, 16)
    assert on_grid(m, 304)
    assert not on_grid(m, 15)
    assert not on_grid(m, 305)
    assert not on_grid(m, 0)  # below the smallest record


@given(st.floats(min_value=-100.0, max_value=20000.0, allow_nan=False))
def test_snap_lands_on_grid(x):
    m = TlsSizeModel()
    assert on_grid(m, m.snap(x))


def test_snap_rounds_to_nearest_block():
    m = TlsSizeModel()
    assert m.snap(304.0) == 304
    assert m.snap(310.0) == 304
    assert m.snap(312.0) == 320  # midpoint rounds to the even block count
    assert m.snap(313.0) == 320
    assert m.snap(328.0) == 320
    assert m.snap(3.0) == 16


@given(
    st.lists(st.floats(min_value=-100.0, max_value=20000.0, allow_nan=False), min_size=1, max_size=40),
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=1, max_value=64),
)
def test_snap_on_an_array_is_scalar_snap_per_element(xs, tag, block):
    m = TlsSizeModel(tag_len=tag, block_len=block)
    snapped = m.snap(np.array(xs))
    assert snapped.tolist() == [m.snap(x) for x in xs]
    # Python's round also takes a half block to the even count
    assert snapped.tolist() == [max(round(x / block) * block, m.min_framed_size()) for x in xs]
    assert all(on_grid(m, v) for v in snapped.tolist())
