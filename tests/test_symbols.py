"""Log-singular symbol tests: closed-form values, sampling and Fourier decay."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hankelspec
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


@st.composite
def _windows(draw):
    """(n, j_lo, j_hi): n a power of two in [4, 2^14], 0 <= j_lo <= j_hi <= n/2."""
    n = 2 ** draw(st.integers(2, 14))
    j_hi = draw(st.one_of(st.just(n // 2), st.integers(0, n // 2)))
    j_lo = draw(st.one_of(st.just(j_hi), st.integers(0, j_hi)))
    return n, j_lo, j_hi


@settings(max_examples=100, deadline=None)
@given(window=_windows(), seed=st.integers(0, 2**32 - 1))
@example(window=(2**17, 0, 1), seed=0)  # R = 2^16 columns, split over two twiddle blocks
def test_fourier_window_is_a_slice_of_the_full_transform(window, seed):
    n, j_lo, j_hi = window
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    full = np.fft.fft(x) / n
    assert np.array_equal(fourier_coefficients(x), full)
    got = fourier_coefficients(x, (j_lo, j_hi))
    assert got.shape == (j_hi - j_lo + 1,)
    # A length-n FFT's error: a few log2(n) roundings of sum |x| / n.
    u = np.finfo(float).eps / 2
    bound = 4 * math.log2(n) * u * np.sum(np.abs(x)) / n
    assert np.max(np.abs(got - full[j_lo : j_hi + 1])) <= bound
    for bad in ((-1, j_hi), (j_lo, n), (j_hi + 1, j_hi)):
        with pytest.raises(ValueError, match="window"):
            fourier_coefficients(x, bad)


# Sampling and transform of a symbol run in a fresh process; prints the
# growth of its peak RSS over its RSS before them.  Linux keeps both in
# /proc/self/status: VmHWM is the peak of this process image, where
# getrusage's ru_maxrss also covers the image before exec.
BOTH_PHASES = """
import sys
from hankelspec.symbols import AsLogSpec, fourier_coefficients, sample_aslog

def kib(key):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith(key))

samples, j_max, c1, c2 = int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3]), float(sys.argv[4])
spec = AsLogSpec(alpha=2.0, cutoffs=(c1, c2))
fourier_coefficients(sample_aslog(spec, 64), (2, 8))  # the code pages of first use
before = kib("VmRSS:")
x = sample_aslog(spec, samples)
fourier_coefficients(x, (2, j_max), out=x)
print(1024 * (kib("VmHWM:") - before))
"""


@pytest.mark.parametrize("cutoffs", [(0.25, 0.5), (0.001, 0.999)])
@pytest.mark.parametrize("samples", [2**16, 2**18])
def test_sample_bytes_bounds_the_traced_peak(cutoffs, samples):
    """sample_bytes bounds the sampling and the in-place transform of a symbol run.

    Sampling and the twiddle blocks allocate through numpy, so tracemalloc
    sees their peak.  The transform's own buffers, pocketfft's plan and work
    buffer, are allocated outside numpy and are not traced; they are counted
    from the RSS of a fresh process instead, as the growth of its peak RSS
    over both phases.  At cutoffs (0.001, 0.999) each window sampling
    evaluates holds almost 1/(2 pi) of the samples, more than one chunk at
    2^18.  j_max 8 gives the most columns, R = samples/16, samples/4 the
    longest batched transform (R = 2) and samples/2 the single transform
    (R = 1).
    """
    spec = AsLogSpec(alpha=2.0, v0_plus=[1.0], v0_minus=[1.0], cutoffs=cutoffs)
    fourier_coefficients(sample_aslog(spec, 64), (2, 8))  # numpy allocates once on first use
    src = str(Path(hankelspec.__file__).resolve().parents[1])
    for j_max in (8, samples // 4, samples // 2):
        tracemalloc.start()
        try:
            x = sample_aslog(spec, samples)
            fourier_coefficients(x, (2, j_max), out=x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sample_bytes(samples, j_max), j_max
        if not Path("/proc/self/status").exists():
            continue
        proc = subprocess.run(
            [sys.executable, "-c", BOTH_PHASES, str(samples), str(j_max), *map(str, cutoffs)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) <= sample_bytes(samples, j_max), j_max


# ------------------------------------------------------------ windowed sampling

_TAIL = st.lists(st.complex_numbers(max_magnitude=0.5), max_size=4)


@st.composite
def _asymmetric_specs(draw):
    """AsLogSpecs whose polynomials differ on the two sides of theta = 0.

    Each u starts with a real part of at least 2 and has at most four more
    coefficients of modulus at most 0.5, so -log|theta| + u stays in the
    right half-plane for |theta| < 1.
    """
    c1, c2 = sorted(draw(st.lists(st.floats(0.001, 0.999), min_size=2, max_size=2, unique=True)))
    v0 = draw(st.complex_numbers(max_magnitude=4.0))
    polys = {
        "v0_plus": [v0, *draw(_TAIL)],
        "v0_minus": [v0, *draw(_TAIL)],
        "v1_plus": draw(st.lists(st.complex_numbers(max_magnitude=4.0), min_size=1, max_size=5)),
        "v1_minus": draw(st.lists(st.complex_numbers(max_magnitude=4.0), min_size=1, max_size=5)),
    }
    for name in ("u0_plus", "u0_minus", "u1_plus", "u1_minus"):
        head = complex(draw(st.floats(2.0, 3.0)), draw(st.floats(-2.0, 2.0)))
        polys[name] = [head, *draw(_TAIL)]
    return AsLogSpec(alpha=draw(st.floats(1.01, 4.0)), cutoffs=(c1, c2), **polys)


@settings(max_examples=60, deadline=None)
@given(spec=_asymmetric_specs(), log2_samples=st.integers(1, 16))
@example(spec=AsLogSpec(alpha=2.0, u0_plus=(2.0 + 0.5j,), cutoffs=(0.001, 0.999)), log2_samples=16)
@example(spec=AsLogSpec(alpha=1.5, v1_minus=(0.5j,), cutoffs=(0.01, 0.02)), log2_samples=16)
# Windows of 41680 points: two chunks each.
@example(spec=AsLogSpec(alpha=2.0, v1_plus=(0.5j,), cutoffs=(0.001, 0.999)), log2_samples=18)
def test_sample_aslog_is_eval_aslog_on_the_full_grid(spec, log2_samples):
    # sample_aslog evaluates only the windows where |theta| < c2; every bit
    # of its samples is that of eval_aslog over the whole grid.
    samples = 2**log2_samples
    theta = 2.0 * np.pi * np.arange(samples) / samples
    theta = np.where(theta > np.pi, theta - 2.0 * np.pi, theta)
    want = np.zeros(samples, dtype=complex)
    want[1:] = eval_aslog(spec, theta[1:])
    got = sample_aslog(spec, samples)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_fourier_coefficients_in_place_matches_a_new_array():
    x = sample_aslog(AsLogSpec(alpha=2.0, u0_plus=(0.5j,), cutoffs=(0.001, 0.999)), 2**12)
    # No window, then R = 256, R = 2 and a window sliced from the single transform.
    for window in (None, (2, 8), (512, 1024), (1000, 2048)):
        y = x.copy()
        want = fourier_coefficients(y, window)
        got = fourier_coefficients(y, window, out=y)
        if window is None:
            assert got is y
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), window
