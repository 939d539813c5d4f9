"""Log-singular symbol tests: closed-form values, sampling and Fourier decay."""

import math
import tracemalloc

import numpy as np
import pytest

from hankelspec.symbols import (
    AsLogSpec,
    aslog_coefficient,
    eval_aslog,
    fourier_coefficients,
    sample_aslog,
    sample_bytes,
)


# ------------------------------------------------------------ fourier basics


def test_fft_recovers_coefficients():
    # Samples of a trigonometric polynomial: with enough samples the FFT
    # returns its coefficients exactly, here q(16) = 1/(16 log 16) from
    # sum_j q(j) (mu^j - mu^-j), q(j) = 1/(j log j).
    J, samples = 512, 2048
    j = np.arange(2, J + 1)
    q = 1.0 / (j * np.log(j))
    theta = 2.0 * np.pi * np.arange(samples) / samples
    values = 2j * (np.sin(np.outer(theta, j)) @ q)
    coeffs = fourier_coefficients(values)
    want = 1.0 / (16.0 * math.log(16.0))
    assert coeffs[16] == pytest.approx(want, rel=1e-10)
    assert coeffs[-16] == pytest.approx(-want, rel=1e-10)
    assert abs(coeffs[0]) < 1e-14
    assert abs(coeffs[1]) < 1e-14


# ---------------------------------------------------------- log-singular spec


def test_aslog_plateau_value():
    # Inside the flat part of the cutoff the symbol is (-log|theta|)^(1-alpha);
    # at |theta| = 1/e that is exactly 1.
    spec = AsLogSpec(alpha=2.0, cutoffs=(0.4, 0.6))
    x = math.exp(-1.0)
    assert eval_aslog(spec, x) == pytest.approx(1.0, rel=1e-14)
    assert eval_aslog(spec, -x) == pytest.approx(1.0, rel=1e-14)


def test_aslog_vanishes_beyond_cutoff():
    spec = AsLogSpec(alpha=2.0, cutoffs=(0.4, 0.6))
    assert eval_aslog(spec, 0.7) == 0.0
    assert eval_aslog(spec, -0.9) == 0.0


def test_aslog_rejects_theta_zero():
    spec = AsLogSpec(alpha=2.0)
    with pytest.raises(ValueError, match="singularity"):
        eval_aslog(spec, 0.0)
    with pytest.raises(ValueError, match="singularity"):
        eval_aslog(spec, np.array([0.1, 0.0]))


def test_aslog_symmetric_conjugation():
    spec = AsLogSpec(
        alpha=2.0,
        u0_plus=(0.5j,),
        u0_minus=(-0.5j,),
        v1_plus=(0.25j,),
        v1_minus=(-0.25j,),
    )
    assert spec.symmetric
    theta = np.linspace(0.01, 0.99, 37)
    assert np.allclose(
        eval_aslog(spec, -theta), np.conj(eval_aslog(spec, theta)), rtol=1e-14
    )


def test_aslog_asymmetric_flag():
    spec = AsLogSpec(alpha=2.0, u0_plus=(0.5j,), u0_minus=(0.5j,))
    assert not spec.symmetric


def test_aslog_validation():
    with pytest.raises(ValueError, match="alpha"):
        AsLogSpec(alpha=0.0)
    with pytest.raises(ValueError, match="cutoff"):
        AsLogSpec(alpha=2.0, cutoffs=(0.6, 0.4))
    with pytest.raises(ValueError, match="degree"):
        AsLogSpec(alpha=2.0, v1_plus=(1.0,) * 6)
    with pytest.raises(ValueError, match="single-valued"):
        AsLogSpec(alpha=2.0, v0_plus=(1.0,), v0_minus=(2.0,))
    with pytest.raises(ValueError, match="half-plane"):
        AsLogSpec(alpha=2.0, u0_plus=(-5.0,))


def test_sample_aslog_grid():
    spec = AsLogSpec(alpha=2.0)
    s = sample_aslog(spec, 1024)
    assert s[0] == 0.0
    theta = 2.0 * np.pi * 5.0 / 1024.0
    assert s[5] == eval_aslog(spec, theta)
    # Index near the top wraps to negative theta; the wrapped angle differs
    # from -theta by one rounding of the 2 pi subtraction.
    assert s[-5] == pytest.approx(eval_aslog(spec, -theta), rel=1e-12)


def test_sample_aslog_validation():
    with pytest.raises(ValueError, match="alpha"):
        sample_aslog(AsLogSpec(alpha=1.0), 1024)
    with pytest.raises(ValueError, match="power of two"):
        sample_aslog(AsLogSpec(alpha=2.0), 1000)


def test_aslog_coefficient_examples():
    # Plain symbol: b = (1 - alpha)/2.
    assert aslog_coefficient(AsLogSpec(alpha=2.0)) == pytest.approx(-0.5)
    # Phase jump u0(+-0) = +-i pi/2 doubles the weight: b = 1 - alpha.
    spec = AsLogSpec(alpha=2.0, u0_plus=(0.5j * math.pi,), u0_minus=(-0.5j * math.pi,))
    assert aslog_coefficient(spec) == pytest.approx(-1.0)
    # v0 = 0 with a v1 jump of 2 pi i gives b = 1.
    spec = AsLogSpec(
        alpha=2.0,
        v0_plus=(0.0,),
        v0_minus=(0.0,),
        v1_plus=(1j * math.pi,),
        v1_minus=(-1j * math.pi,),
    )
    assert aslog_coefficient(spec) == pytest.approx(1.0)


def test_aslog_fourier_decay_matches_coefficient():
    # Medium-resolution check that omega_hat(j) * j log(j)^alpha approaches b;
    # the acceptance run repeats this at 2^20 samples with tighter bounds.
    spec = AsLogSpec(alpha=2.0)
    coeffs = fourier_coefficients(sample_aslog(spec, 2**18))
    b = aslog_coefficient(spec).real
    j = np.arange(256, 1025)
    ratio = coeffs[j].real * j * np.log(j) ** 2 / b
    assert 0.7 < np.median(ratio) < 1.1


# ------------------------------------------------------------------- fourier


def test_fourier_pure_mode():
    n = 64
    theta = 2.0 * np.pi * np.arange(n) / n
    c = fourier_coefficients(np.exp(3j * theta))
    assert c[3] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(np.delete(c, 3))) < 1e-14


def test_fourier_constant():
    c = fourier_coefficients(np.full(32, 2.5))
    assert c[0] == pytest.approx(2.5)
    assert np.max(np.abs(c[1:])) < 1e-14


def test_fourier_requires_power_of_two():
    with pytest.raises(ValueError):
        fourier_coefficients(np.ones(48))


@pytest.mark.parametrize("cutoffs", [(0.25, 0.5), (0.001, 0.999)])
@pytest.mark.parametrize("samples", [2**16, 2**18])
def test_sample_bytes_bounds_the_traced_peak(cutoffs, samples):
    # The widest cutoff band holds almost 1/pi of the samples, the most the
    # per-sample count allows for.
    spec = AsLogSpec(alpha=2.0, v0_plus=[1.0], v0_minus=[1.0], cutoffs=cutoffs)
    sample_aslog(spec, 64)  # numpy allocates once on first use
    tracemalloc.start()
    try:
        sample_aslog(spec, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sample_bytes(samples)
