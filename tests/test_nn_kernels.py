"""Byte-identity of the conv and max-pool kernels against their old forms.

``conv2d_forward`` used to contract ``sliding_window_view`` columns with
``np.einsum("fk,nkp->nfp", optimize=True)`` and ``MaxPool2D`` took an
argmax + ``take_along_axis`` per window.  The serving path and training
now run the direct GEMM and the slice-max fold instead; these tests keep
the old formulations as references and require equal bytes (and equal
memory layout, which downstream reductions are sensitive to).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.layers import MaxPool2D
from repro.nn.models import build_lenet
from repro.nn.optim import SGD, ConstantLR
from repro.nn.train import Trainer


# --------------------------------------------------------------------------
# Reference formulations (the kernels as they were)
# --------------------------------------------------------------------------
def _sliding_im2col(x, kernel_h, kernel_w, stride, padding):
    n, c, h, w = x.shape
    out_h = F.conv_output_size(h, kernel_h, stride, padding)
    out_w = F.conv_output_size(w, kernel_w, stride, padding)
    x = F.pad_nchw(x, padding)
    windows = np.lib.stride_tricks.sliding_window_view(
        x, (kernel_h, kernel_w), axis=(2, 3)
    )
    windows = windows[:, :, ::stride, ::stride, :, :]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(
        n, c * kernel_h * kernel_w, out_h * out_w
    )
    return np.ascontiguousarray(cols)


def _einsum_conv2d_forward(x, weight, bias, stride, padding):
    n = x.shape[0]
    f, _, kernel_h, kernel_w = weight.shape
    out_h = F.conv_output_size(x.shape[2], kernel_h, stride, padding)
    out_w = F.conv_output_size(x.shape[3], kernel_w, stride, padding)
    cols = _sliding_im2col(x, kernel_h, kernel_w, stride, padding)
    flat_w = weight.reshape(f, -1)
    out = np.einsum("fk,nkp->nfp", flat_w, cols, optimize=True)
    if bias is not None:
        out += bias[None, :, None]
    return out.reshape(n, f, out_h, out_w), cols


def _argmax_maxpool(x, pool, stride):
    n, c, h, w = x.shape
    out_h = F.conv_output_size(h, pool, stride, 0)
    out_w = F.conv_output_size(w, pool, stride, 0)
    windows = np.lib.stride_tricks.sliding_window_view(x, (pool, pool), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    flat = windows.reshape(n, c, out_h, out_w, pool * pool)
    arg = flat.argmax(axis=-1)
    return np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]


def _layout(array):
    """Strides of the axes that have more than one element."""
    return tuple(s for s, d in zip(array.strides, array.shape) if d > 1)


def _as_layout(x, layout):
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "strided":
        wide = np.zeros(x.shape[:3] + (2 * x.shape[3],), dtype=x.dtype)
        wide[..., ::2] = x
        return wide[..., ::2]
    return np.ascontiguousarray(x)


def _assert_same_bytes(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()
    assert _layout(actual) == _layout(expected)


# --------------------------------------------------------------------------
# Convolution
# --------------------------------------------------------------------------
@st.composite
def conv_cases(draw):
    kernel_h = draw(st.integers(1, 5))
    kernel_w = draw(st.integers(1, 5))
    padding = draw(st.integers(0, 2))
    stride = draw(st.integers(1, 3))
    h = draw(st.integers(max(1, kernel_h - 2 * padding), kernel_h + 9))
    w = draw(st.integers(max(1, kernel_w - 2 * padding), kernel_w + 9))
    return {
        "n": draw(st.integers(1, 8)),
        "c": draw(st.integers(1, 4)),
        "f": draw(st.integers(1, 8)),
        "kernel": (kernel_h, kernel_w),
        "stride": stride,
        "padding": padding,
        "hw": (h, w),
        "bias": draw(st.booleans()),
        "ternary": draw(st.booleans()),
        "layout": draw(st.sampled_from(["C", "F", "strided"])),
        "seed": draw(st.integers(0, 2**16)),
    }


@given(case=conv_cases())
@settings(max_examples=150, deadline=None)
def test_conv2d_forward_matches_einsum_bytes(case):
    rng = np.random.default_rng(case["seed"])
    shape = (case["n"], case["c"]) + case["hw"]
    if case["ternary"]:
        # The optical convolve's inputs: the VAM's three levels.
        x = rng.integers(0, 3, size=shape) / 2.0
    else:
        x = rng.normal(size=shape)
    x = _as_layout(x, case["layout"])
    weight = rng.normal(size=(case["f"], case["c"]) + case["kernel"])
    bias = rng.normal(size=case["f"]) if case["bias"] else None
    args = (case["stride"], case["padding"])

    out, cols = F.conv2d_forward(x, weight, bias, *args)
    ref_out, ref_cols = _einsum_conv2d_forward(x, weight, bias, *args)
    _assert_same_bytes(out, ref_out)
    _assert_same_bytes(cols, ref_cols)

    # The cached columns feed the unchanged backward to the same bytes.
    grad_out = rng.normal(size=out.shape)
    got = F.conv2d_backward(grad_out, cols, x.shape, weight, *args, case["bias"])
    want = F.conv2d_backward(grad_out, ref_cols, x.shape, weight, *args, case["bias"])
    for actual, expected in zip(got, want):
        if expected is None:
            assert actual is None
        else:
            _assert_same_bytes(actual, expected)


@pytest.mark.parametrize("n,f", [(1, 1), (1, 3), (4, 1), (4, 3)])
def test_conv2d_forward_single_tap_matches_einsum_bytes(n, f):
    # C * KH * KW == 1 leaves einsum nothing to contract: it multiplies,
    # so zero padding times a negative weight stays -0.0.
    rng = np.random.default_rng(n * 10 + f)
    x = rng.integers(0, 3, size=(n, 1, 4, 5)) / 2.0
    weight = -np.abs(rng.normal(size=(f, 1, 1, 1)))
    out, _ = F.conv2d_forward(x, weight, None, 1, 1)
    ref, _ = _einsum_conv2d_forward(x, weight, None, 1, 1)
    _assert_same_bytes(out, ref)
    assert np.signbit(out[:, :, 0, 0]).all()


@given(case=conv_cases())
@settings(max_examples=80, deadline=None)
def test_im2col_matches_sliding_window_view(case):
    rng = np.random.default_rng(case["seed"])
    x = _as_layout(rng.normal(size=(case["n"], case["c"]) + case["hw"]), case["layout"])
    kernel_h, kernel_w = case["kernel"]
    cols = F.im2col(x, kernel_h, kernel_w, case["stride"], case["padding"])
    ref = _sliding_im2col(x, kernel_h, kernel_w, case["stride"], case["padding"])
    _assert_same_bytes(cols, ref)
    assert cols.flags.c_contiguous


# --------------------------------------------------------------------------
# Max pooling
# --------------------------------------------------------------------------
#: Few distinct values, so windows tie often; ±0, ±inf and NaN included.
_POOL_VALUES = np.array([-np.inf, -1.5, -0.0, 0.0, 0.5, 1.5, np.inf, np.nan])


@st.composite
def pool_cases(draw):
    pool = draw(st.integers(1, 3))
    return {
        "n": draw(st.integers(1, 3)),
        "c": draw(st.integers(1, 3)),
        "pool": pool,
        "stride": draw(st.integers(1, pool)),
        "hw": (draw(st.integers(pool, pool + 7)), draw(st.integers(pool, pool + 7))),
        "nan": draw(st.booleans()),
        "layout": draw(st.sampled_from(["C", "F", "strided"])),
        "seed": draw(st.integers(0, 2**16)),
    }


@given(case=pool_cases())
@settings(max_examples=200, deadline=None)
def test_maxpool2d_matches_argmax_bytes(case):
    rng = np.random.default_rng(case["seed"])
    values = _POOL_VALUES if case["nan"] else _POOL_VALUES[:-1]
    x = rng.choice(values, size=(case["n"], case["c"]) + case["hw"])
    x = _as_layout(x, case["layout"])
    out = F.maxpool2d(x, case["pool"], case["stride"])
    ref = _argmax_maxpool(x, case["pool"], case["stride"])
    assert out.shape == ref.shape
    assert out.flags.c_contiguous
    assert not np.shares_memory(out, x)
    nan = np.isnan(ref)
    np.testing.assert_array_equal(np.isnan(out), nan)
    assert out[~nan].tobytes() == ref[~nan].tobytes()


def test_maxpool2d_keeps_first_signed_zero():
    x = np.array([[[[-0.0, 0.0], [0.0, 0.0]]]])
    assert np.signbit(F.maxpool2d(x, 2, 2)[0, 0, 0, 0])
    assert not np.signbit(F.maxpool2d(-x, 2, 2)[0, 0, 0, 0])


# --------------------------------------------------------------------------
# Training through the layers
# --------------------------------------------------------------------------
def test_maxpool_backward_routes_ties_to_first_maximum():
    layer = MaxPool2D(2)
    x = np.array(
        [
            [
                [
                    [3.0, 3.0, -0.0, 0.0],
                    [3.0, 1.0, 0.0, 0.0],
                    [1.0, 2.0, 5.0, 4.0],
                    [2.0, 0.0, 5.0, 5.0],
                ]
            ]
        ]
    )
    out = layer.forward(x)
    np.testing.assert_array_equal(out, [[[[3.0, 0.0], [2.0, 5.0]]]])
    grad = layer.backward(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    expected = np.array(
        [
            [
                [
                    [1.0, 0.0, 2.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0],
                    [0.0, 3.0, 4.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0],
                ]
            ]
        ]
    )
    np.testing.assert_array_equal(grad, expected)


def _one_lenet_step():
    rng = np.random.default_rng(11)
    x = rng.random((8, 1, 16, 16))
    y = rng.integers(0, 10, size=8)
    model = build_lenet(input_size=16, width_multiplier=0.5, seed=5)
    optimizer = SGD(model.parameters(), momentum=0.9)
    Trainer(model, optimizer, ConstantLR(0.05), seed=3).fit(
        x, y, epochs=1, batch_size=8
    )
    return model


def test_trainer_step_matches_old_kernels(monkeypatch):
    model = _one_lenet_step()
    with monkeypatch.context() as patch:
        patch.setattr(F, "conv2d_forward", _einsum_conv2d_forward)
        patch.setattr(F, "maxpool2d", _argmax_maxpool)
        reference = _one_lenet_step()
    params = model.parameters()
    ref_params = reference.parameters()
    assert len(params) == len(ref_params) > 0
    for param, ref in zip(params, ref_params):
        assert param.data.tobytes() == ref.data.tobytes(), param.name
        assert param.grad.tobytes() == ref.grad.tobytes(), param.name
    for layer, ref in zip(model, reference):
        for stat in ("running_mean", "running_var"):
            if hasattr(layer, stat):
                assert getattr(layer, stat).tobytes() == getattr(ref, stat).tobytes()


@pytest.mark.parametrize("pool,stride", [(2, 2), (3, 2), (2, 1)])
def test_maxpool_layer_backward_matches_argmax_routing(pool, stride):
    rng = np.random.default_rng(pool * 10 + stride)
    x = rng.choice(_POOL_VALUES[:-1], size=(2, 3, 7, 7))
    layer = MaxPool2D(pool, stride)
    out = layer.forward(x)
    grad_out = rng.normal(size=out.shape)
    ref_out, arg = F.maxpool2d_forward(x, pool, stride)
    assert out.tobytes() == ref_out.tobytes()
    expected = F.maxpool2d_backward(grad_out, arg, x.shape, pool, stride)
    assert layer.backward(grad_out).tobytes() == expected.tobytes()
