"""Pointwise sequence/kernel evaluation against hand-computed values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelspec.model import ContinuousKernelSpec, DiscreteSymbolSpec
from hankelspec.sequences import (
    CutoffPair,
    eval_discrete,
    eval_discrete_many,
    eval_kernel,
    eval_kernel_many,
    finite_difference,
    smooth_step,
)

B1_SPEC = DiscreteSymbolSpec(alpha=1.0, b_plus1=1.0)


# ----------------------------------------------------------- discrete sequence


def test_eval_discrete_zero_at_small_j():
    assert eval_discrete(B1_SPEC, 0) == 0.0
    assert eval_discrete(B1_SPEC, 1) == 0.0


def test_eval_discrete_b1_at_two():
    assert eval_discrete(B1_SPEC, 2) == pytest.approx(1.0 / (2.0 * math.log(2.0)), rel=1e-14)


def test_eval_discrete_oscillation_at_four():
    spec = DiscreteSymbolSpec(alpha=1.0, oscillations=[(math.pi / 2, 0.0, 1.0)])
    # cos(pi/2 * 4) = cos(2 pi) = 1, so h(4) = 2 / (4 ln 4).
    assert eval_discrete(spec, 4) == pytest.approx(2.0 / (4.0 * math.log(4.0)), rel=1e-12)


def test_eval_discrete_alternating_point():
    spec = DiscreteSymbolSpec(alpha=1.0, b_minus1=1.0)
    q3 = 1.0 / (3.0 * math.log(3.0))
    assert eval_discrete(spec, 3) == pytest.approx(-q3, rel=1e-14)
    q4 = 1.0 / (4.0 * math.log(4.0))
    assert eval_discrete(spec, 4) == pytest.approx(q4, rel=1e-14)


def test_eval_discrete_perturbation_term():
    spec = DiscreteSymbolSpec(alpha=1.0, b_plus1=1.0, perturbation=(0.5, 1.0))
    j = 7
    base = 1.0 / (j * math.log(j))
    pert = 0.5 / (j * math.log(j) ** 2)
    assert eval_discrete(spec, j) == pytest.approx(base + pert, rel=1e-14)


def test_eval_discrete_many_matches_scalar():
    spec = DiscreteSymbolSpec(
        alpha=0.7, b_plus1=0.3, b_minus1=-1.2, oscillations=[(1.1, 0.4, 2.0)]
    )
    j = np.arange(0, 50)
    vec = eval_discrete_many(spec, j)
    for jj in [0, 1, 2, 3, 17, 49]:
        assert vec[jj] == eval_discrete(spec, jj)


def test_eval_discrete_rejects_negative_index():
    with pytest.raises(ValueError):
        eval_discrete(B1_SPEC, -1)


def test_psi_shift_invariance_to_rounding():
    # cos is 2 pi periodic in psi; equality holds to float rounding of the
    # shifted argument.
    base = DiscreteSymbolSpec(alpha=1.0, oscillations=[(1.3, 0.7, 1.0)])
    shifted = DiscreteSymbolSpec(alpha=1.0, oscillations=[(1.3, 0.7 + 2 * math.pi, 1.0)])
    j = np.arange(2, 2000)
    a = eval_discrete_many(base, j)
    b = eval_discrete_many(shifted, j)
    assert np.max(np.abs(a - b)) < 1e-12


# -------------------------------------------------------------------- cutoffs


def test_smooth_step_plateaus_exact():
    assert smooth_step(-1.0) == 0.0
    assert smooth_step(0.0) == 0.0
    assert smooth_step(1.0) == 1.0
    assert smooth_step(2.0) == 1.0
    assert smooth_step(0.5) == pytest.approx(0.5, abs=1e-15)
    x = np.linspace(-0.5, 1.5, 401)
    s = smooth_step(x)
    assert np.all(np.diff(s) >= 0.0)
    assert np.all((s >= 0.0) & (s <= 1.0))


def test_cutoff_pair_plateaus():
    cut = CutoffPair(0.25, 0.5, 1.5, 2.0)
    assert cut.chi0(0.1) == 1.0
    assert cut.chi0(0.25) == 1.0
    assert cut.chi0(0.5) == 0.0
    assert cut.chi0(3.0) == 0.0
    assert cut.chi_inf(1.5) == 0.0
    assert cut.chi_inf(0.3) == 0.0
    assert cut.chi_inf(2.0) == 1.0
    assert cut.chi_inf(100.0) == 1.0
    t = np.linspace(0.2, 0.6, 200)
    vals = cut.chi0(t)
    assert np.all(np.diff(vals) <= 0.0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_cutoff_pair_validation():
    with pytest.raises(ValueError):
        CutoffPair(0.5, 0.25, 1.5, 2.0)
    with pytest.raises(ValueError):
        CutoffPair(0.25, 0.5, 2.0, 1.5)


# ------------------------------------------------------------------- kernels


def test_eval_kernel_b_zero_plateau():
    spec = ContinuousKernelSpec(alpha=1.0, b_zero=1.0, cutoffs=(0.2, 0.5, 1.5, 2.0))
    # chi0(0.1) = 1, so h(0.1) = 1/(0.1 * ln 10).
    assert eval_kernel(spec, 0.1) == pytest.approx(10.0 / math.log(10.0), rel=1e-14)


def test_eval_kernel_triangle_piecewise():
    spec = ContinuousKernelSpec(alpha=1.0, local_singularities=[(1.0, 0, 1.0)])
    assert eval_kernel(spec, 0.5) == 1.0
    assert eval_kernel(spec, 1.5) == 0.0
    assert eval_kernel(spec, 1.0) == 1.0


def test_eval_kernel_tail_plateau():
    spec = ContinuousKernelSpec(alpha=1.0, b_inf=1.0)
    t = math.e**2
    assert eval_kernel(spec, t) == pytest.approx(math.exp(-2.0) / 2.0, rel=1e-12)


def test_eval_kernel_rejects_nonpositive_t():
    with pytest.raises(ValueError):
        eval_kernel(B1_KERNEL, 0.0)
    with pytest.raises(ValueError):
        eval_kernel(B1_KERNEL, -1.0)


B1_KERNEL = ContinuousKernelSpec(alpha=1.0, b_inf=1.0)


def test_eval_kernel_linear_in_coefficients():
    t = np.array([0.1, 0.3, 0.7, 1.7, 2.5, 10.0])
    s1 = ContinuousKernelSpec(alpha=1.0, b_zero=1.0)
    s2 = ContinuousKernelSpec(alpha=1.0, b_inf=1.0, oscillations=[(2.0, 0.3, 1.0)])
    s12 = ContinuousKernelSpec(
        alpha=1.0, b_zero=2.0, b_inf=-3.0, oscillations=[(2.0, 0.3, -3.0)]
    )
    v = 2.0 * eval_kernel_many(s1, t) - 3.0 * eval_kernel_many(s2, t)
    assert np.allclose(v, eval_kernel_many(s12, t), rtol=1e-13, atol=1e-300)


def test_eval_kernel_oscillation_rides_tail():
    spec = ContinuousKernelSpec(alpha=1.0, oscillations=[(1.0, 0.0, 1.0)])
    t = 4.0 * math.pi
    expected = 2.0 * math.cos(t) / (t * math.log(t))
    assert eval_kernel(spec, t) == pytest.approx(expected, rel=1e-12)
    # Inside the support gap (t <= C1) the tail term vanishes.
    assert eval_kernel(spec, 1.0) == 0.0


# ---------------------------------------------------------- finite differences


def test_finite_difference_examples():
    assert np.array_equal(finite_difference([0, 1, 2, 3], 1), [1, 1, 1])
    assert np.array_equal(finite_difference([0, 1, 2, 3], 2), [0, 0])
    assert np.array_equal(finite_difference([1, 2, 4, 8], 1), [1, 2, 4])
    assert np.array_equal(finite_difference([5, 5], 0), [5, 5])


def test_finite_difference_too_short():
    with pytest.raises(ValueError):
        finite_difference([1.0, 2.0], 2)


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(st.floats(-100, 100), min_size=5, max_size=20),
    m1=st.integers(0, 2),
    m2=st.integers(0, 2),
)
def test_finite_difference_composes(values, m1, m2):
    direct = finite_difference(values, m1 + m2)
    nested = finite_difference(finite_difference(values, m1), m2)
    assert np.allclose(direct, nested, rtol=1e-12, atol=1e-9)
