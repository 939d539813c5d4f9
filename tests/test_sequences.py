"""Pointwise sequence/kernel evaluation against hand-computed values."""

import math

import numpy as np
import pytest

from hankelspec.model import ContinuousKernelSpec, DiscreteSymbolSpec
from hankelspec.sequences import eval_discrete_many, eval_kernel_many, smooth_step

B1_SPEC = DiscreteSymbolSpec(alpha=1.0, b_plus1=1.0)


# ----------------------------------------------------------- discrete sequence


def test_eval_discrete_zero_at_small_j():
    assert eval_discrete_many(B1_SPEC, [0])[0] == 0.0
    assert eval_discrete_many(B1_SPEC, [1])[0] == 0.0


def test_eval_discrete_b1_at_two():
    assert eval_discrete_many(B1_SPEC, [2])[0] == pytest.approx(1.0 / (2.0 * math.log(2.0)), rel=1e-14)


def test_eval_discrete_oscillation_at_four():
    spec = DiscreteSymbolSpec(alpha=1.0, oscillations=[(math.pi / 2, 0.0, 1.0)])
    # cos(pi/2 * 4) = cos(2 pi) = 1, so h(4) = 2 / (4 ln 4).
    assert eval_discrete_many(spec, [4])[0] == pytest.approx(2.0 / (4.0 * math.log(4.0)), rel=1e-12)


def test_eval_discrete_alternating_point():
    spec = DiscreteSymbolSpec(alpha=1.0, b_minus1=1.0)
    q3 = 1.0 / (3.0 * math.log(3.0))
    assert eval_discrete_many(spec, [3])[0] == pytest.approx(-q3, rel=1e-14)
    q4 = 1.0 / (4.0 * math.log(4.0))
    assert eval_discrete_many(spec, [4])[0] == pytest.approx(q4, rel=1e-14)


def test_eval_discrete_perturbation_term():
    spec = DiscreteSymbolSpec(alpha=1.0, b_plus1=1.0, perturbation=(0.5, 1.0))
    j = 7
    base = 1.0 / (j * math.log(j))
    pert = 0.5 / (j * math.log(j) ** 2)
    assert eval_discrete_many(spec, [j])[0] == pytest.approx(base + pert, rel=1e-14)


def test_eval_discrete_many_matches_scalar():
    spec = DiscreteSymbolSpec(
        alpha=0.7, b_plus1=0.3, b_minus1=-1.2, oscillations=[(1.1, 0.4, 2.0)]
    )
    j = np.arange(0, 50)
    vec = eval_discrete_many(spec, j)
    # An entry does not depend on the other indices of the call.
    for jj in [0, 1, 2, 3, 17, 49]:
        assert vec[jj] == eval_discrete_many(spec, [jj])[0]


def test_eval_discrete_rejects_negative_index():
    with pytest.raises(ValueError):
        eval_discrete_many(B1_SPEC, [-1])


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


def _step_reference(x):
    # The closed form e(x) / (e(x) + e(1 - x)), e(y) = exp(-1/y) for y > 0 and
    # 0 otherwise, with both bumps evaluated at every point, off the band too.
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ex = np.where(x > 0.0, np.exp(-1.0 / x), 0.0)
        e1x = np.where(1.0 - x > 0.0, np.exp(-1.0 / (1.0 - x)), 0.0)
        band = ex / (ex + e1x)
    return np.where(x <= 0.0, 0.0, np.where(x >= 1.0, 1.0, band))


def test_smooth_step_is_bitwise_its_closed_form():
    rng = np.random.default_rng(0)
    edges = [-np.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0, 2.0, np.inf]
    x = np.concatenate([rng.uniform(-0.5, 1.5, 4096), edges])
    s = smooth_step(x)
    assert s.tobytes() == _step_reference(x).tobytes()
    assert np.all(s[x <= 0.0] == 0.0) and np.all(s[x >= 1.0] == 1.0)
    # The band's ends underflow to the plateau values exactly.
    assert smooth_step(5e-324) == 0.0
    assert smooth_step(1.0 - 2.0**-53) == 1.0
    # A scalar gives the value it has inside an array.
    for i in range(0, len(x), 97):
        assert smooth_step(float(x[i])) == s[i]


@pytest.mark.parametrize(
    "spec",
    [
        ContinuousKernelSpec(alpha=1.0, b_zero=1.0),
        ContinuousKernelSpec(alpha=1.0, b_inf=1.0),
    ],
    ids=["b_zero", "b_inf"],
)
def test_kernel_cutoffs_are_bitwise_the_closed_form(spec):
    # chi0 on (c1, c2) and chi_inf on (C1, C2) reach the kernel through
    # eval_kernel_many; every point, plateaus included, matches the closed
    # form to the bit.
    c1, c2, C1, C2 = spec.cutoffs
    t = np.concatenate([np.linspace(0.01, 3.0, 2999), [c1, c2, C1, C2]])
    h = eval_kernel_many(spec, t)
    want = np.zeros_like(t)
    if spec.b_zero:
        m = t < c2
        chi = _step_reference((c2 - t[m]) / (c2 - c1))
        want[m] += spec.b_zero * (chi / (t[m] * np.log(1.0 / t[m]) ** spec.alpha))
        assert np.all(h[t <= c1] == 1.0 / (t[t <= c1] * np.log(1.0 / t[t <= c1])))
        assert np.all(h[t >= c2] == 0.0)
    else:
        m = t > C1
        chi = _step_reference((t[m] - C1) / (C2 - C1))
        want[m] += np.full(m.sum(), spec.b_inf) * (chi / (t[m] * np.log(t[m]) ** spec.alpha))
        assert np.all(h[t <= C1] == 0.0)
        assert np.all(h[t >= C2] == 1.0 / (t[t >= C2] * np.log(t[t >= C2])))
    assert h.tobytes() == want.tobytes()


# ------------------------------------------------------------------- kernels


def test_eval_kernel_b_zero_plateau():
    spec = ContinuousKernelSpec(alpha=1.0, b_zero=1.0, cutoffs=(0.2, 0.5, 1.5, 2.0))
    # chi0(0.1) = 1, so h(0.1) = 1/(0.1 * ln 10).
    assert eval_kernel_many(spec, [0.1])[0] == pytest.approx(10.0 / math.log(10.0), rel=1e-14)


def test_eval_kernel_triangle_piecewise():
    spec = ContinuousKernelSpec(alpha=1.0, local_singularities=[(1.0, 0, 1.0)])
    assert eval_kernel_many(spec, [0.5])[0] == 1.0
    assert eval_kernel_many(spec, [1.5])[0] == 0.0
    assert eval_kernel_many(spec, [1.0])[0] == 1.0


def test_eval_kernel_tail_plateau():
    spec = ContinuousKernelSpec(alpha=1.0, b_inf=1.0)
    t = math.e**2
    assert eval_kernel_many(spec, [t])[0] == pytest.approx(math.exp(-2.0) / 2.0, rel=1e-12)


def test_eval_kernel_rejects_nonpositive_t():
    with pytest.raises(ValueError):
        eval_kernel_many(B1_KERNEL, [0.0])
    with pytest.raises(ValueError):
        eval_kernel_many(B1_KERNEL, [-1.0])


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
    assert eval_kernel_many(spec, [t])[0] == pytest.approx(expected, rel=1e-12)
    # Inside the support gap (t <= C1) the tail term vanishes.
    assert eval_kernel_many(spec, [1.0])[0] == 0.0



# ------------------------------------------------- in-place kernel evaluation


def _kernel_reference(spec, t):
    # The term-by-term formula on the gathered points of each support, with
    # the closed-form cutoff: every point gets the same float operations in
    # the same order as in eval_kernel_many, and each term is added to a zero.
    t = np.asarray(t, dtype=float)
    c1, c2, C1, C2 = spec.cutoffs
    out = np.zeros(t.shape)
    if spec.b_zero != 0.0:
        m = t < c2
        ts = t[m]
        chi = _step_reference((c2 - ts) / (c2 - c1))
        out[m] += spec.b_zero * (chi / (ts * np.log(1.0 / ts) ** spec.alpha))
    if spec.b_inf != 0.0 or spec.oscillations:
        m = t > C1
        ts = t[m]
        chi = _step_reference((ts - C1) / (C2 - C1))
        amp = np.full(ts.shape, spec.b_inf)
        for osc in spec.oscillations:
            amp += 2.0 * osc.b * np.cos(osc.rho * ts - osc.psi)
        out[m] += amp * (chi / (ts * np.log(ts) ** spec.alpha))
    for sing in spec.local_singularities:
        m = t <= sing.t0
        out[m] += sing.coeff * (sing.t0 - t[m]) ** sing.m
    return out


def _branch_kernels(alpha, m):
    # b_zero cannot be combined with a local singularity, so two kernels
    # share the branches.  Their negative amplitudes make -0.0 terms where a
    # cutoff underflows to 0 or t = t0.
    return [
        ContinuousKernelSpec(
            alpha=alpha, b_zero=-1.0, b_inf=0.5, oscillations=[(3.0, 0.25, -0.5)]
        ),
        ContinuousKernelSpec(
            alpha=alpha,
            b_inf=-1.0,
            oscillations=[(3.0, 0.25, 0.5), (7.0, 0.0, 0.25)],
            local_singularities=[(0.75, m, -2.0), (3.0, m, 0.5)],
        ),
    ]


def _edge_points(spec):
    # The cutoff ends, t0 and their float neighbours.
    marks = [*spec.cutoffs, *(s.t0 for s in spec.local_singularities)]
    return np.concatenate([marks, np.nextafter(marks, 0.0), np.nextafter(marks, np.inf)])


def _bits_equal(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("alpha", [0.5, 1, 2.0, 2.5])
def test_eval_kernel_is_bitwise_the_term_by_term_formula(alpha, m):
    rng = np.random.default_rng(0)
    for spec in _branch_kernels(alpha, m):
        t = np.concatenate([_edge_points(spec), np.exp(rng.uniform(-28.0, 3.0, 5000))])
        rng.shuffle(t)
        h = eval_kernel_many(spec, t)
        assert _bits_equal(h, _kernel_reference(spec, t))
        assert not np.any(np.signbit(h[h == 0.0]))
        # Node sums of a geometric grid, as build_graded passes them.
        nodes = np.geomspace(1e-12, 8.0, 160)
        sums = np.add.outer(nodes[:40], nodes)
        want = _kernel_reference(spec, sums.ravel()).reshape(sums.shape)
        assert _bits_equal(eval_kernel_many(spec, sums), want)
        assert _bits_equal(eval_kernel_many(spec, sums.T), want.T)


def test_eval_kernel_writes_into_a_strided_out():
    spec = _branch_kernels(2.0, 1)[1]
    t = np.add.outer(np.geomspace(1e-6, 1.0, 30), np.geomspace(1e-6, 8.0, 70))
    big = np.full((40, 90), np.nan)
    view = big[5:35, 10:80]
    assert eval_kernel_many(spec, t, out=view) is view
    assert _bits_equal(view, _kernel_reference(spec, t.ravel()).reshape(t.shape))
    view[...] = np.nan
    assert np.isnan(big).all()
    with pytest.raises(ValueError, match="shape"):
        eval_kernel_many(spec, t, out=np.empty(t.size))
