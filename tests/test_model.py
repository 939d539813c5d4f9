"""Closed-form coefficient tests against independent high-precision oracles."""

import math
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelspec import model
from hankelspec.model import (
    DiscreteSymbolSpec,
    ContinuousKernelSpec,
    LocalSingularity,
    Oscillation,
    Perturbation,
    UnsupportedCombinationError,
    kappa,
    predict_continuous,
    predict_discrete,
)
from hankelspec.quadrature import GridSpec
from hankelspec.symbols import AsLogSpec

mpmath.mp.dps = 40


# ------------------------------------------------------------ log-gamma oracle

LOG_GAMMA_POINTS = [
    1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0,
    4.5, 7.0, 10.0, 13.25, 25.0, 50.0, 100.0, 170.5, 500.0, 1e4,
]


@pytest.mark.parametrize("x", LOG_GAMMA_POINTS)
def test_log_gamma_matches_mpmath(x):
    # kappa takes log B from the C library's lgamma, whose accuracy differs
    # between C libraries; this pins it on the platform that runs the tests.
    expected = float(mpmath.loggamma(x))
    # Absolute floor covers the zeros of log-gamma at x = 1, 2.
    assert math.lgamma(x) == pytest.approx(expected, rel=1e-13, abs=1e-14)


# ------------------------------------------------------------ kappa oracle

KAPPA_ALPHAS = [0.25, 0.3, 0.5, 0.7, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 10.0]


@pytest.mark.parametrize("alpha", KAPPA_ALPHAS)
def test_kappa_matches_mpmath(alpha):
    a = mpmath.mpf(alpha)
    beta = mpmath.beta(1 / (2 * a), mpmath.mpf(1) / 2)
    expected = float(2**-a * mpmath.pi ** (1 - 2 * a) * beta**a)
    assert kappa(alpha) == pytest.approx(expected, rel=1e-14, abs=0.0)


# ------------------------------------------------------------------- kappa


def test_kappa_special_values():
    # B(1/2,1/2) = pi and B(1,1/2) = 2 give exact closed forms.
    assert abs(kappa(1.0) - 0.5) < 1e-12
    assert abs(kappa(0.5) - 1.0) < 1e-12


def test_kappa_2_against_gamma_oracle():
    beta = mpmath.beta(mpmath.mpf(1) / 4, mpmath.mpf(1) / 2)
    expected = float(mpmath.mpf(2) ** -2 * mpmath.pi**-3 * beta**2)
    assert kappa(2.0) == pytest.approx(expected, rel=1e-10)
    assert f"{kappa(2.0):.4f}" == "0.2217"


def test_kappa_positive_and_continuous_on_grid():
    import numpy as np

    alphas = np.linspace(0.05, 8.0, 400)
    values = np.array([kappa(a) for a in alphas])
    assert np.all(values > 0.0)
    assert np.all(np.isfinite(values))
    # Continuity proxy: small steps produce small relative changes.
    assert np.max(np.abs(np.diff(values)) / values[:-1]) < 0.1


def test_kappa_domain():
    with pytest.raises(ValueError):
        kappa(0.0)
    with pytest.raises(ValueError):
        kappa(-1.0)


def test_predict_discrete_point_only():
    pred = predict_discrete(DiscreteSymbolSpec(alpha=1.0, b_plus1=1.0))
    assert pred.a_plus == pytest.approx(0.5, rel=1e-12)
    assert pred.a_minus == 0.0


def test_predict_discrete_single_oscillation():
    spec = DiscreteSymbolSpec(alpha=1.0, oscillations=[(math.pi / 2, 0.0, 1.0)])
    pred = predict_discrete(spec)
    assert pred.a_plus == pytest.approx(0.5, rel=1e-12)
    assert pred.a_minus == pred.a_plus


def test_predict_discrete_combined():
    spec = DiscreteSymbolSpec(
        alpha=1.0, b_plus1=1.0, b_minus1=-1.0, oscillations=[(1.0, 0.0, 2.0)]
    )
    pred = predict_discrete(spec)
    assert pred.a_plus == pytest.approx(1.5, rel=1e-12)
    assert pred.a_minus == pytest.approx(1.5, rel=1e-12)


def test_prediction_terms_sum_to_pth_powers():
    spec = DiscreteSymbolSpec(
        alpha=0.5, b_plus1=2.0, b_minus1=-3.0, oscillations=[(1.0, 0.5, 1.5)]
    )
    pred = predict_discrete(spec)
    p = 1.0 / spec.alpha
    total_plus = sum(t[1] for t in pred.terms)
    total_minus = sum(t[2] for t in pred.terms)
    assert pred.a_plus == pytest.approx(total_plus**spec.alpha, rel=1e-12)
    assert pred.a_minus == pytest.approx(total_minus**spec.alpha, rel=1e-12)
    assert pred.a_singular == pytest.approx(
        (pred.a_plus**p + pred.a_minus**p) ** spec.alpha, rel=1e-12
    )


# -------------------------------------------------------- continuous predictions


def test_predict_continuous_tails():
    pred = predict_continuous(ContinuousKernelSpec(alpha=1.0, b_zero=1.0, b_inf=1.0))
    assert pred.a_plus == pytest.approx(1.0, rel=1e-12)
    assert pred.a_minus == 0.0


def test_predict_continuous_single_oscillation():
    # Oscillation terms are 2 b cos(rho t - psi) q_inf(t), so b = 1 is the
    # kernel 2 cos(t) q_inf(t); both channels get kappa(1) |b| = 0.5.
    spec = ContinuousKernelSpec(alpha=1.0, oscillations=[(1.0, 0.0, 1.0)])
    pred = predict_continuous(spec)
    assert pred.a_plus == pytest.approx(0.5, rel=1e-12)
    assert pred.a_minus == pred.a_plus


def test_predict_continuous_triangle():
    spec = ContinuousKernelSpec(alpha=1.0, local_singularities=[(1.0, 0, 1.0)])
    pred = predict_continuous(spec)
    assert pred.a_plus == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
    assert pred.a_minus == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)


def test_predict_continuous_triangle_plus_tail():
    spec = ContinuousKernelSpec(
        alpha=1.0, b_inf=1.0, local_singularities=[(1.0, 0, 1.0)]
    )
    pred = predict_continuous(spec)
    assert pred.a_plus == pytest.approx(1.0 / (2.0 * math.pi) + 0.5, rel=1e-12)
    assert pred.a_minus == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)


def test_predict_continuous_rejects_wrong_alpha_for_singularity():
    spec = ContinuousKernelSpec(alpha=1.5, local_singularities=[(1.0, 0, 1.0)])
    with pytest.raises(UnsupportedCombinationError):
        predict_continuous(spec)


def test_spec_rejects_b_zero_with_singularity():
    with pytest.raises(UnsupportedCombinationError):
        ContinuousKernelSpec(alpha=1.0, b_zero=1.0, local_singularities=[(1.0, 0, 1.0)])


# ------------------------------------------------------------- local term
#
# A local singularity alone obeys lambda_n^{+-} ~ m! t0^{m+1} (2 pi n)^{-m-1}:
# its prediction at alpha = m + 1 is a^{+-} = m! t0^{m+1} (2 pi)^{-m-1}.


def _local_term(t0: float, m: int, n: int) -> float:
    spec = ContinuousKernelSpec(alpha=m + 1.0, local_singularities=[(t0, m, 1.0)])
    pred = predict_continuous(spec)
    assert pred.a_minus == pred.a_plus
    return pred.a_plus * float(n) ** (-(m + 1))


def test_predict_local_term_examples():
    assert _local_term(1.0, 0, 1) == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)
    assert _local_term(2.0, 1, 1) == pytest.approx(1.0 / math.pi**2, rel=1e-12)
    assert _local_term(1.0, 0, 10) == pytest.approx(1.0 / (20 * math.pi), rel=1e-12)


@given(
    t0=st.floats(0.1, 10.0),
    m=st.integers(0, 4),
    n=st.integers(1, 1000),
)
def test_predict_local_term_identity(t0, m, n):
    value = _local_term(t0, m, n)
    assert value * (2.0 * math.pi * n) ** (m + 1) == pytest.approx(
        math.factorial(m) * t0 ** (m + 1), rel=1e-12
    )


# ------------------------------------------------------------ spec validation


def test_oscillation_phi_open_interval():
    with pytest.raises(ValueError, match=r"\(0, pi\)"):
        Oscillation(math.pi, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"\(0, pi\)"):
        Oscillation(0.0, 0.0, 1.0)


def test_duplicate_frequencies_rejected():
    with pytest.raises(ValueError, match="distinct"):
        DiscreteSymbolSpec(alpha=1.0, oscillations=[(1.0, 0.0, 1.0), (1.0, 1.0, 2.0)])
    with pytest.raises(ValueError, match="distinct"):
        ContinuousKernelSpec(alpha=1.0, oscillations=[(1.0, 0.0, 1.0), (1.0, 1.0, 2.0)])


def test_perturbation_validation():
    with pytest.raises(ValueError):
        Perturbation(1.0, 0.0)
    spec = DiscreteSymbolSpec(alpha=1.0, b_plus1=1.0, perturbation=(0.1, 2.0))
    assert spec.perturbation == Perturbation(0.1, 2.0)


@pytest.mark.parametrize(
    "cutoffs",
    [
        (0.0, 0.5, 1.5, 2.0),
        (0.5, 0.5, 1.5, 2.0),
        (0.25, 1.0, 1.5, 2.0),
        (0.25, 0.5, 1.0, 2.0),
        (0.25, 0.5, 2.0, 1.5),
    ],
    ids=["0<c1", "c1<c2", "c2<1", "1<C1", "C1<C2"],
)
def test_cutoffs_out_of_order_rejected(cutoffs):
    with pytest.raises(ValueError, match=r"^cutoffs must satisfy 0 < c1 < c2 < 1 < C1 < C2"):
        ContinuousKernelSpec(alpha=1.0, b_zero=1.0, cutoffs=cutoffs)


def test_local_singularity_validation():
    with pytest.raises(ValueError):
        LocalSingularity(-1.0, 0, 1.0)
    with pytest.raises(ValueError):
        LocalSingularity(1.0, -2, 1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: DiscreteSymbolSpec(alpha=NAN, b_plus1=1.0), "alpha"),
        (lambda: DiscreteSymbolSpec(alpha=1.0, b_plus1=INF), "b_plus1"),
        (lambda: DiscreteSymbolSpec(alpha=1.0, b_minus1=-INF), "b_minus1"),
        (lambda: Oscillation(1.0, NAN, 1.0), "psi"),
        (lambda: Oscillation(1.0, 0.0, INF), "b"),
        (lambda: Perturbation(NAN, 1.0), "scale"),
        (lambda: Perturbation(1.0, INF), "beta"),
        (lambda: ContinuousKernelSpec(alpha=1.0, b_zero=INF), "b_zero"),
        (lambda: ContinuousKernelSpec(alpha=1.0, b_inf=NAN), "b_inf"),
        (lambda: ContinuousKernelSpec(alpha=1.0, cutoffs=(0.25, 0.5, 1.5, INF)), "cutoffs"),
        (lambda: model.KernelOscillation(INF, 0.0, 1.0), "rho"),
        (lambda: LocalSingularity(INF, 0, 1.0), "t0"),
        (lambda: LocalSingularity(1.0, 0, NAN), "coeff"),
        (lambda: GridSpec("uniform", 1e-12, INF, 64), "t_max"),
        (lambda: GridSpec("geometric", NAN, 1.0, 64), "t_min"),
        (lambda: AsLogSpec(alpha=INF), "alpha"),
        (lambda: AsLogSpec(alpha=2.0, v0_plus=(1.0, complex(0.0, NAN))), "v0_plus"),
        (lambda: AsLogSpec(alpha=2.0, cutoffs=(0.25, NAN)), "cutoffs"),
    ],
)
def test_spec_rejects_non_finite_field(build, field):
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        build()


# -------------------------------------------------------- hypothesis invariants

COEFFS = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
ALPHAS = st.floats(0.25, 4.0, allow_nan=False, allow_infinity=False)
OSC_LISTS = st.lists(
    st.tuples(
        st.floats(0.01, math.pi - 0.01),
        st.floats(-6.0, 6.0),
        st.floats(-5.0, 5.0),
    ),
    max_size=3,
    unique_by=lambda t: t[0],
)


@settings(max_examples=100, deadline=None)
@given(alpha=ALPHAS, b1=COEFFS, bm1=COEFFS, oscs=OSC_LISTS)
def test_predict_discrete_permutation_and_phase_invariance(alpha, b1, bm1, oscs):
    spec = DiscreteSymbolSpec(alpha=alpha, b_plus1=b1, b_minus1=bm1, oscillations=oscs)
    reversed_spec = DiscreteSymbolSpec(
        alpha=alpha, b_plus1=b1, b_minus1=bm1, oscillations=list(reversed(oscs))
    )
    shifted = DiscreteSymbolSpec(
        alpha=alpha,
        b_plus1=b1,
        b_minus1=bm1,
        oscillations=[(phi, psi + 2 * math.pi, b) for (phi, psi, b) in oscs],
    )
    base = predict_discrete(spec)
    assert predict_discrete(reversed_spec).a_plus == pytest.approx(base.a_plus, rel=1e-13, abs=1e-300)
    assert predict_discrete(shifted).a_plus == base.a_plus
    assert predict_discrete(shifted).a_minus == base.a_minus


@settings(max_examples=100, deadline=None)
@given(alpha=ALPHAS, b1=COEFFS, bm1=COEFFS, oscs=OSC_LISTS)
def test_sign_flip_swaps_channels(alpha, b1, bm1, oscs):
    pred = predict_discrete(
        DiscreteSymbolSpec(alpha=alpha, b_plus1=b1, b_minus1=bm1, oscillations=oscs)
    )
    flipped = predict_discrete(
        DiscreteSymbolSpec(alpha=alpha, b_plus1=-b1, b_minus1=-bm1, oscillations=oscs)
    )
    assert flipped.a_plus == pred.a_minus
    assert flipped.a_minus == pred.a_plus


@settings(max_examples=100, deadline=None)
@given(alpha=ALPHAS, oscs=OSC_LISTS)
def test_oscillation_only_channels_equal(alpha, oscs):
    pred = predict_discrete(DiscreteSymbolSpec(alpha=alpha, oscillations=oscs))
    assert pred.a_plus == pred.a_minus


@settings(max_examples=100, deadline=None)
@given(alpha=ALPHAS, b1=COEFFS, bm1=COEFFS, oscs=OSC_LISTS)
def test_singular_coefficient_identity(alpha, b1, bm1, oscs):
    pred = predict_discrete(
        DiscreteSymbolSpec(alpha=alpha, b_plus1=b1, b_minus1=bm1, oscillations=oscs)
    )
    p = 1.0 / alpha
    assert pred.a_singular == (pred.a_plus**p + pred.a_minus**p) ** alpha


# ------------------------------------------------- reference closed form
#
# The share arithmetic of the spec checks and of predict_discrete and
# predict_continuous as first written, kept as the reference (the spec
# check since counts an unsigned share once for each sign): every
# prediction must be bitwise equal to it, and every refusal must have its
# type, field and message.  A spec here is a plain namespace of fields that
# pass the constructors' other checks.


def _ref_kappa_p(alpha: float) -> float:
    """kappa(alpha)^(1/alpha), or FieldError at alpha where it overflows."""
    try:
        kap_p = kappa(alpha) ** (1.0 / alpha)
    except OverflowError:
        kap_p = math.inf
    if not math.isfinite(kap_p):
        raise model.FieldError("alpha", f"kappa(alpha)^(1/alpha) overflows at alpha = {alpha!r}")
    return kap_p


def _ref_require_finite_shares(alpha: float, shares) -> None:
    # count is 1 for a share of one sign, 2 for one of both: the sum then
    # bounds a_plus^p + a_minus^p, of which a_singular is the alpha-th power.
    total = 0.0
    for field, weight, base, count in shares:
        try:
            total += count * weight * base ** (1.0 / alpha)
            finite = math.isfinite(total) and math.isfinite(total**alpha)
        except OverflowError:
            finite = False
        if not finite:
            raise model.FieldError(
                field,
                f"its share of the predicted coefficients' p-th powers "
                f"(p = 1/alpha = {1.0 / alpha!r}) overflows",
            )


def _ref_check_discrete(spec) -> None:
    kap_p = _ref_kappa_p(spec.alpha)
    _ref_require_finite_shares(
        spec.alpha,
        [("b_minus1", kap_p, abs(spec.b_minus1), 1), ("b_plus1", kap_p, abs(spec.b_plus1), 1)]
        + [(f"oscillations[{i}].b", kap_p, abs(o.b), 2) for i, o in enumerate(spec.oscillations)],
    )


def _ref_check_continuous(spec) -> None:
    kap_p = _ref_kappa_p(spec.alpha)
    _ref_require_finite_shares(
        spec.alpha,
        [
            (
                f"local_singularities[{i}]",
                sing.t0 / (2.0 * math.pi),
                math.factorial(sing.m) * abs(sing.coeff) if sing.m <= 170 else math.inf,
                2,
            )
            for i, sing in enumerate(spec.local_singularities)
            if spec.alpha == sing.m + 1
        ]
        + [("b_zero", kap_p, abs(spec.b_zero), 1), ("b_inf", kap_p, abs(spec.b_inf), 1)]
        + [(f"oscillations[{i}].b", kap_p, abs(o.b), 2) for i, o in enumerate(spec.oscillations)],
    )


def _ref_signed_terms(kap_p: float, p: float, *pairs) -> list:
    return [
        (label, kap_p * (b if b > 0.0 else 0.0) ** p, kap_p * (-b if b < 0.0 else 0.0) ** p)
        for label, b in pairs
        if b != 0.0
    ]


def _ref_combine(alpha: float, plus_terms, minus_terms):
    p = 1.0 / alpha
    total_plus = math.fsum(plus_terms)
    total_minus = math.fsum(minus_terms)
    a_plus = total_plus**alpha if total_plus > 0.0 else 0.0
    a_minus = total_minus**alpha if total_minus > 0.0 else 0.0
    a_singular = 0.0
    if total_plus + total_minus > 0.0:
        a_singular = (a_plus**p + a_minus**p) ** alpha
    return a_plus, a_minus, a_singular


def _ref_predict_discrete(spec):
    alpha = spec.alpha
    p = 1.0 / alpha
    kap_p = kappa(alpha) ** p
    terms = _ref_signed_terms(
        kap_p, p, ("point mu=-1", spec.b_minus1), ("point mu=+1", spec.b_plus1)
    )
    for osc in spec.oscillations:
        share = kap_p * abs(osc.b) ** p
        terms.append((f"oscillation phi={osc.phi:.12g}", share, share))
    a_plus, a_minus, a_singular = _ref_combine(
        alpha, [t[1] for t in terms], [t[2] for t in terms]
    )
    return model.AsymptoticPrediction(alpha, a_plus, a_minus, a_singular, tuple(terms))


def _ref_predict_continuous(spec):
    alpha = spec.alpha
    p = 1.0 / alpha
    kap_p = kappa(alpha) ** p
    for sing in spec.local_singularities:
        if alpha != sing.m + 1:
            raise UnsupportedCombinationError(
                f"a local singularity of order m={sing.m} is only covered at "
                f"alpha = m + 1 = {sing.m + 1}, got alpha = {alpha}"
            )
    terms = []
    for sing in spec.local_singularities:
        share = (
            sing.t0 / (2.0 * math.pi) * (math.factorial(sing.m) * abs(sing.coeff)) ** p
        )
        terms.append((f"local singularity t0={sing.t0:.12g}", share, share))
    terms += _ref_signed_terms(
        kap_p, p, ("t->0 singularity", spec.b_zero), ("slow tail", spec.b_inf)
    )
    for osc in spec.oscillations:
        share = kap_p * abs(osc.b) ** p
        terms.append((f"oscillation rho={osc.rho:.12g}", share, share))
    a_plus, a_minus, a_singular = _ref_combine(
        alpha, [t[1] for t in terms], [t[2] for t in terms]
    )
    return model.AsymptoticPrediction(alpha, a_plus, a_minus, a_singular, tuple(terms))


def _outcome(build, predict):
    """A prediction's fields and terms as float hex strings, or the refusal's type, field and message."""
    try:
        pred = predict(build())
    except (ValueError, ArithmeticError) as exc:
        return type(exc), getattr(exc, "field", None), str(exc)
    fields = [float(x).hex() for x in (pred.alpha, pred.a_plus, pred.a_minus, pred.a_singular)]
    return fields, [(label, tp.hex(), tm.hex()) for label, tp, tm in pred.terms]


# 0 and magnitudes from 1e-300 to 1e301 of either sign.
AMPLITUDES = st.one_of(
    st.just(0.0),
    st.builds(
        lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
        st.sampled_from((-1.0, 1.0)), st.floats(1.0, 9.99), st.integers(-300, 300),
    ),
)
# kappa(alpha)^(1/alpha) overflows below about alpha = 0.0016; the integers
# reach alpha = m + 1 for every local singularity order up to 200.
REFERENCE_ALPHAS = st.one_of(
    st.floats(5e-4, 3e-3), st.floats(5e-4, 10.0), st.integers(1, 201).map(float)
)


@st.composite
def _discrete_fields(draw):
    phis = draw(st.lists(st.floats(0.01, 3.13), max_size=3, unique=True))
    return {
        "alpha": draw(REFERENCE_ALPHAS),
        "b_plus1": draw(AMPLITUDES),
        "b_minus1": draw(AMPLITUDES),
        "oscillations": tuple(Oscillation(phi, 0.0, draw(AMPLITUDES)) for phi in phis),
    }


@st.composite
def _continuous_fields(draw):
    alpha = draw(REFERENCE_ALPHAS)
    orders = st.integers(0, 200)
    if alpha == int(alpha):
        orders = st.one_of(st.just(int(alpha) - 1), orders)
    t0s = draw(st.lists(st.floats(1e-3, 1e3), max_size=2, unique=True))
    rhos = draw(st.lists(st.floats(0.1, 100.0), max_size=2, unique=True))
    return {
        "alpha": alpha,
        "b_zero": 0.0 if t0s else draw(AMPLITUDES),
        "b_inf": draw(AMPLITUDES),
        "oscillations": tuple(model.KernelOscillation(rho, 0.0, draw(AMPLITUDES)) for rho in rhos),
        "local_singularities": tuple(
            LocalSingularity(t0, draw(orders), draw(AMPLITUDES)) for t0 in t0s
        ),
    }


def _reference_spec(check, fields):
    def build():
        spec = SimpleNamespace(**fields)
        check(spec)
        return spec

    return build


@settings(max_examples=300, deadline=None)
@given(fields=_discrete_fields())
def test_predict_discrete_matches_the_reference(fields):
    assert _outcome(lambda: DiscreteSymbolSpec(**fields), predict_discrete) == _outcome(
        _reference_spec(_ref_check_discrete, fields), _ref_predict_discrete
    )


@settings(max_examples=300, deadline=None)
@given(fields=_continuous_fields())
def test_predict_continuous_matches_the_reference(fields):
    assert _outcome(lambda: ContinuousKernelSpec(**fields), predict_continuous) == _outcome(
        _reference_spec(_ref_check_continuous, fields), _ref_predict_continuous
    )
