"""Tests for repro.core.opc — the photonic MAC non-ideality chain."""

import numpy as np
import pytest

from repro.core.config import OISAConfig
from repro.core.opc import OpticalProcessingCore
from repro.nn.functional import conv2d_forward
from repro.nn.quant import UniformWeightQuantizer


def _quantized_weights(shape=(4, 3, 3, 3), bits=4, seed=0):
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=shape) * 0.1
    quantizer = UniformWeightQuantizer(bits)
    return quantizer.quantize(weights), quantizer.scale(weights)


def test_program_returns_record():
    opc = OpticalProcessingCore(seed=0)
    quantized, scale = _quantized_weights()
    programmed = opc.program(quantized, scale)
    assert programmed.realized.shape == quantized.shape
    assert programmed.mapping_iterations == 100
    assert programmed.tuning.energy_j > 0.0


def test_realized_weights_close_but_not_exact():
    opc = OpticalProcessingCore(seed=0)
    quantized, scale = _quantized_weights()
    programmed = opc.program(quantized, scale)
    assert 0.0 < programmed.weight_error_relative < 0.08


def test_ideal_opc_is_exact():
    opc = OpticalProcessingCore(seed=0, enable_crosstalk=False, enable_read_noise=False)
    config = OISAConfig()
    from dataclasses import replace

    from repro.circuits.awc import AwcDesign

    ideal_awc = AwcDesign(
        mismatch_sigma=0.0, offset_sigma_a=0.0, compression_alpha=0.0
    )
    opc = OpticalProcessingCore(
        replace(config, awc_design=ideal_awc),
        seed=0,
        enable_crosstalk=False,
        enable_read_noise=False,
    )
    quantized, scale = _quantized_weights()
    programmed = opc.program(quantized, scale)
    np.testing.assert_allclose(programmed.realized, quantized, atol=1e-12)


def test_convolve_matches_reference_with_realized_weights():
    opc = OpticalProcessingCore(seed=1, enable_read_noise=False)
    quantized, scale = _quantized_weights()
    programmed = opc.program(quantized, scale)
    x = np.random.default_rng(2).choice([0.0, 0.5, 1.0], size=(2, 3, 8, 8))
    out = opc.convolve(x, stride=1, padding=1)
    expected, _ = conv2d_forward(x, programmed.realized, None, 1, 1)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_read_noise_perturbs_outputs():
    quantized, scale = _quantized_weights()
    x = np.random.default_rng(3).choice([0.0, 0.5, 1.0], size=(1, 3, 8, 8))
    noiseless = OpticalProcessingCore(seed=4, enable_read_noise=False)
    noiseless.program(quantized, scale)
    clean = noiseless.convolve(x, padding=1)
    noisy_core = OpticalProcessingCore(seed=4, enable_read_noise=True)
    noisy_core.program(quantized, scale)
    noisy = noisy_core.convolve(x, padding=1)
    assert not np.allclose(clean, noisy)
    # But the noise is small relative to the signal scale.
    assert np.abs(noisy - clean).max() < 0.3 * np.abs(clean).max() + 0.5


def test_read_noise_scale_follows_weights_and_config():
    """The noise scale is reused across readouts of one weight tensor and
    recomputed when the weights or the config change."""
    import copy
    from dataclasses import replace

    opc = OpticalProcessingCore(seed=4)
    values = np.zeros((2, 4, 5, 5))
    small, _ = _quantized_weights(seed=1)
    large = 3.0 * small
    for weights, config in (
        (small, opc.config),
        (small, opc.config),
        (large, opc.config),
        (large, replace(opc.config, bpd_read_noise_fraction=0.05)),
    ):
        opc.config = config
        rng = copy.deepcopy(opc._read_rng)
        expected = rng.normal(0.0, opc._read_noise_sigma(weights), values.shape)
        noisy = opc._add_read_noise(values, weights)
        assert noisy.tobytes() == expected.tobytes()


def test_convolve_requires_programming():
    opc = OpticalProcessingCore(seed=0)
    with pytest.raises(RuntimeError):
        opc.convolve(np.zeros((1, 3, 8, 8)))


def test_dense_dot():
    opc = OpticalProcessingCore(seed=5, enable_read_noise=False)
    rng = np.random.default_rng(6)
    weights = rng.normal(size=(10, 50)) * 0.1
    quantizer = UniformWeightQuantizer(4)
    quantized = quantizer.quantize(weights)
    programmed = opc.program(quantized, quantizer.scale(weights))
    x = rng.choice([0.0, 0.5, 1.0], size=(4, 50))
    out = opc.dot(x)
    np.testing.assert_allclose(out, x @ programmed.realized.T, atol=1e-12)


def test_conv_dot_shape_mismatch():
    opc = OpticalProcessingCore(seed=0)
    quantized, scale = _quantized_weights()
    opc.program(quantized, scale)
    with pytest.raises(ValueError):
        opc.dot(np.zeros((2, 27)))


def test_crosstalk_systematic_not_random():
    quantized, scale = _quantized_weights()
    a = OpticalProcessingCore(seed=7, enable_read_noise=False)
    b = OpticalProcessingCore(seed=7, enable_read_noise=False)
    ra = a.program(quantized, scale).realized
    rb = b.program(quantized, scale).realized
    np.testing.assert_array_equal(ra, rb)


def test_weight_transform_hook_matches_program():
    opc = OpticalProcessingCore(seed=8, enable_read_noise=False)
    quantized, scale = _quantized_weights()
    transform = opc.weight_transform(scale_hint=scale)
    realized_hook = transform(quantized)
    realized_program = opc.program(quantized, scale).realized
    np.testing.assert_allclose(realized_hook, realized_program)


def test_scale_validation():
    opc = OpticalProcessingCore(seed=0)
    with pytest.raises(ValueError):
        opc.program(np.zeros((1, 1, 3, 3)), 0.0)
