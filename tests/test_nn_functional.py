"""Tests for repro.nn.functional — conv/pool kernels against references."""

import numpy as np
import pytest

from repro.nn import functional as F


def _naive_conv2d(x, w, b, stride, padding):
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    x = F.pad_nchw(x, padding)
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, f, oh, ow))
    for ni in range(n):
        for fi in range(f):
            for oy in range(oh):
                for ox in range(ow):
                    patch = x[ni, :, oy * stride : oy * stride + kh, ox * stride : ox * stride + kw]
                    out[ni, fi, oy, ox] = (patch * w[fi]).sum()
            if b is not None:
                out[ni, fi] += b[fi]
    return out


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_conv2d_matches_naive(stride, padding):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 7, 7))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    out, _ = F.conv2d_forward(x, w, b, stride, padding)
    expected = _naive_conv2d(x, w, b, stride, padding)
    np.testing.assert_allclose(out, expected, atol=1e-10)


def test_conv_output_size():
    assert F.conv_output_size(32, 3, 1, 1) == 32
    assert F.conv_output_size(32, 3, 2, 1) == 16
    assert F.conv_output_size(28, 5, 1, 2) == 28
    with pytest.raises(ValueError):
        F.conv_output_size(2, 5, 1, 0)


def test_im2col_col2im_adjoint():
    # <im2col(x), y> == <x, col2im(y)> — the defining adjoint identity.
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3, 6, 6))
    cols = F.im2col(x, 3, 3, 2, 1)
    y = rng.normal(size=cols.shape)
    lhs = float((cols * y).sum())
    x_back = F.col2im(y, x.shape, 3, 3, 2, 1)
    rhs = float((x * x_back).sum())
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_conv2d_backward_finite_difference():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 2, 5, 5))
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    out, cols = F.conv2d_forward(x, w, b, 1, 1)
    grad_out = rng.normal(size=out.shape)
    grad_x, grad_w, grad_b = F.conv2d_backward(
        grad_out, cols, x.shape, w, 1, 1, with_bias=True
    )

    def loss(x_, w_, b_):
        out_, _ = F.conv2d_forward(x_, w_, b_, 1, 1)
        return float((out_ * grad_out).sum())

    eps = 1e-6
    for array, grad, name in ((x, grad_x, "x"), (w, grad_w, "w"), (b, grad_b, "b")):
        flat = array.reshape(-1)
        index = 3 % flat.size
        flat[index] += eps
        plus = loss(x, w, b)
        flat[index] -= 2 * eps
        minus = loss(x, w, b)
        flat[index] += eps
        numeric = (plus - minus) / (2 * eps)
        assert grad.reshape(-1)[index] == pytest.approx(numeric, rel=1e-5), name


def test_maxpool_forward_and_routing():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    out, arg = F.maxpool2d_forward(x, 2, 2)
    assert out[0, 0, 0, 0] == 4.0
    grad = F.maxpool2d_backward(np.ones_like(out), arg, x.shape, 2, 2)
    expected = np.array([[[[0.0, 0.0], [0.0, 1.0]]]])
    np.testing.assert_array_equal(grad, expected)


def test_maxpool_finite_difference():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 2, 6, 6))
    out, arg = F.maxpool2d_forward(x, 2, 2)
    grad_out = rng.normal(size=out.shape)
    grad_x = F.maxpool2d_backward(grad_out, arg, x.shape, 2, 2)
    eps = 1e-6
    index = (0, 1, 2, 3)
    x[index] += eps
    plus = float((F.maxpool2d_forward(x, 2, 2)[0] * grad_out).sum())
    x[index] -= 2 * eps
    minus = float((F.maxpool2d_forward(x, 2, 2)[0] * grad_out).sum())
    x[index] += eps
    assert grad_x[index] == pytest.approx((plus - minus) / (2 * eps), abs=1e-5)


def test_avgpool_roundtrip():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 2, 4, 4))
    out = F.avgpool2d_forward(x, 2, 2)
    assert out.shape == (1, 2, 2, 2)
    assert out[0, 0, 0, 0] == pytest.approx(x[0, 0, :2, :2].mean())
    grad = F.avgpool2d_backward(np.ones_like(out), x.shape, 2, 2)
    np.testing.assert_allclose(grad, 0.25)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(8, 10)) * 50  # large values: stability test
    probs = F.softmax(logits)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs >= 0.0)


@pytest.mark.parametrize("padding", [1, 2, 3])
@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 3, 7, 5), (4, 1, 28, 28)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.uint8])
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_pad_nchw_equals_np_pad_byte_for_byte(padding, shape, dtype, layout):
    """Same values, dtype, memory order and strides as ``np.pad``."""
    rng = np.random.default_rng(1)
    x = (rng.uniform(0.0, 100.0, size=shape)).astype(dtype)
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "strided":
        x = np.concatenate([x, x], axis=3)[..., ::2]
    expected = np.pad(
        x, ((0, 0), (0, 0), (padding, padding), (padding, padding))
    )
    padded = F.pad_nchw(x, padding)
    assert padded.dtype == expected.dtype
    assert padded.shape == expected.shape
    assert padded.strides == expected.strides
    assert padded.tobytes(order="A") == expected.tobytes(order="A")


def test_pad_nchw_zero_padding_is_identity():
    x = np.ones((1, 2, 3, 3))
    assert F.pad_nchw(x, 0) is x
