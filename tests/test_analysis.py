"""Fit, symmetry, localization, and truncation-study pipeline tests."""

import math
import tracemalloc

import numpy as np
import pytest

from hankelspec import analysis, cli
from hankelspec.analysis import (
    SolverParams,
    compare_localization,
    discrete_spectrum,
    fit_bytes,
    fit_coefficient,
    symmetry_ratio,
    truncation_study,
    window_scaled_median,
)
from hankelspec.eigensolve import SpectrumResult, dense_spectrum
from hankelspec.hankel_core import build_discrete, dense_matrix
from hankelspec.model import DiscreteSymbolSpec, predict_discrete


def _result(lambda_plus, lambda_minus, order=4096):
    lp = np.asarray(lambda_plus, dtype=float)
    lm = np.asarray(lambda_minus, dtype=float)
    return SpectrumResult(
        lambda_plus=lp,
        lambda_minus=lm,
        residuals_plus=np.zeros_like(lp),
        residuals_minus=np.zeros_like(lm),
        order=order,
        solver_id="synthetic",
        seed=0,
        tol=1e-8,
    )


def _power_law(a_plus, a_minus, alpha, count):
    n = np.arange(1, count + 1, dtype=float)
    return _result(a_plus * n**-alpha, a_minus * n**-alpha)


# ------------------------------------------------------------------- fitting


def test_fit_exact_power_law():
    S = _power_law(0.5, 0.25, 1.0, 64)
    rep = fit_coefficient(S, 1.0, (8, 32))
    assert rep.a_hat_plus == pytest.approx(0.5, rel=1e-14)
    assert rep.a_hat_minus == pytest.approx(0.25, rel=1e-14)
    assert rep.drift < 1e-13
    assert rep.model == "plain"
    assert rep.c_hat is None
    assert len(rep.per_n) == 25


def test_fit_log_corrected_recovers_coefficient():
    # lambda_n = 0.5 n^-1 (1 + 2/log n): the corrected model is exact here,
    # the plain median carries the full 1/log n bias.
    n = np.arange(1, 201, dtype=float)
    lam = 0.5 * n**-1.0 * (1.0 + 2.0 / np.log(np.maximum(n, 2.0)))
    S = _result(lam, lam)
    corrected = fit_coefficient(S, 1.0, (10, 200), model="log_corrected")
    assert corrected.a_hat_plus == pytest.approx(0.5, abs=1e-6)
    assert corrected.c_hat[0] == pytest.approx(1.0, abs=1e-5)
    plain = fit_coefficient(S, 1.0, (10, 200), model="plain")
    assert plain.a_hat_plus > 0.6


def test_fit_window_past_converged_length():
    S = _result([1.0, 0.5], [0.8])
    with pytest.raises(ValueError, match="extend_by_zero"):
        fit_coefficient(S, 1.0, (1, 4))
    rep = fit_coefficient(S, 1.0, (1, 4), extend_by_zero=True)
    # Missing eigenvalues count as zero, so the scaled window is 1,1,0,0.
    assert rep.a_hat_plus == pytest.approx(0.5)


def test_fit_validation():
    S = _power_law(1.0, 1.0, 1.0, 16)
    with pytest.raises(ValueError, match="model"):
        fit_coefficient(S, 1.0, (1, 8), model="quadratic")
    with pytest.raises(ValueError, match="window"):
        fit_coefficient(S, 1.0, (5, 3))
    # 1 / log 1 is infinite: the log-corrected model needs n >= 2.
    with pytest.raises(ValueError, match="log n"):
        fit_coefficient(S, 1.0, (1, 4), model="log_corrected")


def test_window_scaled_median():
    S = _power_law(0.7, 0.2, 2.0, 32)
    assert window_scaled_median(S, 2.0, (4, 16), "plus") == pytest.approx(
        0.7, rel=1e-14
    )
    assert window_scaled_median(S, 2.0, (4, 16), "minus") == pytest.approx(
        0.2, rel=1e-14
    )
    with pytest.raises(ValueError, match="sign"):
        window_scaled_median(S, 2.0, (4, 16), "both")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 25, 1000, 1001])
def test_median_is_bitwise_np_median(n):
    rng = np.random.default_rng(n)
    cases = [
        rng.standard_normal(n),
        rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
        np.round(rng.standard_normal(n), 1),  # ties
        rng.choice([-0.0, 0.0, 1.0], n),  # ties of signed zeros
        np.full(n, 1.0 + 2.0**-52),
    ]
    for values in cases:
        with np.errstate(over="ignore"):
            got, want = analysis._median(values), np.median(values)
        assert np.float64(got).tobytes() == want.tobytes()
    # The mean of two middle values whose sum overflows.
    with np.errstate(over="ignore"):
        assert analysis._median([1.5e308, 1.6e308]) == np.median([1.5e308, 1.6e308])
    with_nan = rng.standard_normal(n)
    with_nan[n // 2] = np.nan
    assert math.isnan(analysis._median(with_nan)) and math.isnan(np.median(with_nan))


def test_window_scaled_median_extends_by_zero():
    S = _result([1.0], [])
    assert window_scaled_median(S, 1.0, (1, 5), "plus", extend_by_zero=True) == 0.0
    with pytest.raises(ValueError, match="extend_by_zero"):
        window_scaled_median(S, 1.0, (1, 5), "plus")


def _window_values_loop(values, n_lo, n_hi):
    """The per-n loop _window_values replaced, kept as its reference."""
    out = np.zeros(n_hi - n_lo + 1)
    for i, n in enumerate(range(n_lo, n_hi + 1)):
        out[i] = values[n - 1] if n <= len(values) else 0.0
    return out


@pytest.mark.parametrize(
    "n_lo, n_hi",
    [(1, 5), (3, 10), (10, 10), (10, 14), (11, 11), (11, 20), (40, 50)],
    ids=["head", "inside", "last", "across-end", "just-past", "beyond", "far-beyond"],
)
@pytest.mark.parametrize("container", [np.asarray, list])
def test_window_values_match_the_per_n_loop(n_lo, n_hi, container):
    values = container(0.5 / np.arange(1.0, 11.0))
    got = analysis._window_values(values, n_lo, n_hi, True, "positive")
    assert np.array_equal(got, _window_values_loop(values, n_lo, n_hi))


def test_fit_bytes_bounds_the_fit_and_its_report():
    # 10^5 window rows of distinct nonzero eigenvalues: every row's text is
    # as long as %.17g makes it.
    rows = 10**5
    n = np.arange(1, rows + 1)
    S = _result(1.0 / (n + math.pi), 1.0 / (n + math.e), order=rows)
    tracemalloc.start()
    try:
        cli._fit_json(fit_coefficient(S, 1.0, (1, rows), extend_by_zero=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= fit_bytes((1, rows))


def test_fit_json_rows_keep_integer_n():
    rep = fit_coefficient(_power_law(0.5, 0.25, 1.0, 4), 1.0, (3, 6), extend_by_zero=True)
    rows = rep.to_dict()["per_n"]
    assert [row[0] for row in rows] == [3, 4, 5, 6]
    assert all(type(row[0]) is int for row in rows)
    assert rows[0][1:] == [0.5 / 3, 0.25 / 3, 0.5, 0.25]
    assert rows[-1][1:] == [0.0, 0.0, 0.0, 0.0]


# ------------------------------------------------------------------ symmetry


def test_symmetry_ratio_identical_channels():
    S = _power_law(0.5, 0.5, 1.0, 32)
    stats = symmetry_ratio(S, (1, 16))
    assert stats.median == pytest.approx(1.0)
    assert stats.lo == pytest.approx(1.0)
    assert stats.hi == pytest.approx(1.0)


def test_symmetry_ratio_constant_factor():
    S = _result([2.0, 1.0], [1.0, 0.5])
    stats = symmetry_ratio(S, (1, 2))
    assert stats.median == pytest.approx(2.0)
    assert list(stats.ratios) == pytest.approx([2.0, 2.0])


def test_symmetry_ratio_reports_missing_counts():
    S = _result([1.0, 0.5, 0.25], [0.9])
    with pytest.raises(ValueError, match="3 positive and 1 negative"):
        symmetry_ratio(S, (1, 2))


# -------------------------------------------------------------- localization


def _synthetic_spectrum(spec, N, params):
    pred = predict_discrete(spec)
    n = np.arange(1, 41, dtype=float)
    return _result(
        pred.a_plus * n**-spec.alpha, pred.a_minus * n**-spec.alpha, order=N
    )


def test_localization_additive_on_synthetic_spectra():
    specs = [
        DiscreteSymbolSpec(alpha=1.0, b_plus1=1.0),
        DiscreteSymbolSpec(alpha=1.0, oscillations=[(1.0, 0.0, 1.0)]),
    ]
    rep = compare_localization(
        specs, N=4096, window=(8, 32), spectrum_fn=_synthetic_spectrum
    )
    assert rep.prediction_sum.a_plus == pytest.approx(1.0)
    assert rep.prediction_sum.a_minus == pytest.approx(0.5)
    assert rep.fit_sum.a_hat_plus == pytest.approx(1.0, rel=1e-13)
    assert rep.additivity_gap_plus < 1e-12
    assert rep.additivity_gap_minus < 1e-12
    assert len(rep.fits) == 2
    assert len(rep.predictions) == 2


def test_localization_single_spec_gap_zero():
    specs = [DiscreteSymbolSpec(alpha=1.0, b_plus1=1.0)]
    rep = compare_localization(
        specs, N=64, window=(1, 8), spectrum_fn=_synthetic_spectrum
    )
    assert rep.additivity_gap_plus == 0.0
    assert rep.additivity_gap_minus == 0.0


def test_localization_permutation_invariant():
    specs = [
        DiscreteSymbolSpec(alpha=1.0, b_plus1=1.0),
        DiscreteSymbolSpec(alpha=1.0, oscillations=[(1.0, 0.0, 1.0)]),
    ]
    a = compare_localization(
        specs, N=64, window=(1, 8), spectrum_fn=_synthetic_spectrum
    )
    b = compare_localization(
        specs[::-1], N=64, window=(1, 8), spectrum_fn=_synthetic_spectrum
    )
    assert a.prediction_sum.a_plus == b.prediction_sum.a_plus
    assert a.prediction_sum.a_minus == b.prediction_sum.a_minus


def test_localization_rejects_overlapping_supports():
    specs = [
        DiscreteSymbolSpec(alpha=1.0, oscillations=[(1.0, 0.0, 1.0)]),
        DiscreteSymbolSpec(alpha=1.0, oscillations=[(1.0, 0.5, 2.0)]),
    ]
    with pytest.raises(ValueError, match="supports of specs 0 and 1 overlap"):
        compare_localization(specs, N=64, spectrum_fn=_synthetic_spectrum)


def test_localization_rejects_mixed_alpha():
    specs = [
        DiscreteSymbolSpec(alpha=1.0, b_plus1=1.0),
        DiscreteSymbolSpec(alpha=2.0, b_minus1=1.0),
    ]
    with pytest.raises(ValueError, match="share alpha"):
        compare_localization(specs, N=64, spectrum_fn=_synthetic_spectrum)


def test_localization_rejects_empty():
    with pytest.raises(ValueError, match="at least one spec"):
        compare_localization([], N=64)


def test_localization_rejects_perturbed_specs():
    specs = [
        DiscreteSymbolSpec(alpha=1.0, b_plus1=1.0, perturbation=(0.1, 1.5)),
        DiscreteSymbolSpec(alpha=1.0, b_minus1=1.0),
    ]
    with pytest.raises(ValueError, match="perturbed"):
        compare_localization(specs, N=64, spectrum_fn=_synthetic_spectrum)


# --------------------------------------------------------- truncation study


def test_truncation_study_on_synthetic_spectra():
    spec = DiscreteSymbolSpec(alpha=1.0, b_plus1=1.0)
    rep = truncation_study(
        spec, [256, 512, 1024], window=(8, 32), spectrum_fn=_synthetic_spectrum
    )
    assert rep.N_list == [256, 512, 1024]
    assert all(d <= 1e-12 for d in rep.deviations)
    assert rep.improving
    assert rep.prediction.a_plus == pytest.approx(0.5)


def test_truncation_study_flags_worsening():
    spec = DiscreteSymbolSpec(alpha=1.0, b_plus1=1.0)
    calls = {"i": 0}

    def degrading(s, N, params):
        calls["i"] += 1
        n = np.arange(1, 41, dtype=float)
        a = 0.5 + 0.1 * calls["i"]
        return _result(a * n**-1.0, np.zeros(0), order=N)

    rep = truncation_study(spec, [256, 512], window=(8, 32), spectrum_fn=degrading)
    assert not rep.improving
    assert rep.deviations[1] > rep.deviations[0]


def test_truncation_study_validation():
    spec = DiscreteSymbolSpec(alpha=1.0, b_plus1=1.0)
    with pytest.raises(ValueError, match="empty"):
        truncation_study(spec, [])
    with pytest.raises(ValueError, match="increasing"):
        truncation_study(spec, [512, 512])


# ------------------------------------------------------------ solver params


def test_solver_params_validation():
    with pytest.raises(ValueError, match="k"):
        SolverParams(k=0)
    with pytest.raises(ValueError, match="tol"):
        SolverParams(tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        SolverParams(max_iter=0)
    with pytest.raises(ValueError, match="seed"):
        SolverParams(seed=-1)


def test_discrete_spectrum_dense_route():
    # Every discrete order takes the expsum route; the dense route of the
    # built truncation is its reference.
    spec = DiscreteSymbolSpec(alpha=1.0, b_plus1=1.0)
    S = discrete_spectrum(spec, 512, SolverParams())
    direct = dense_spectrum(dense_matrix(build_discrete(spec, 512)))
    assert S.solver_id == "expsum"
    norm = float(direct.lambda_plus[0])
    for got, want in ((S.lambda_plus, direct.lambda_plus), (S.lambda_minus, direct.lambda_minus)):
        assert len(got) == len(want)
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * norm


def test_discrete_spectrum_monotone_in_order():
    # Interlacing of nested truncations: each lambda_n grows with N, so the
    # scaled window medians must be non-decreasing across orders.  Their
    # small-n limits carry a positive 1/log n bias above the asymptotic
    # coefficient 0.5, hence the generous upper sanity cap.
    spec = DiscreteSymbolSpec(alpha=1.0, b_plus1=1.0)
    meds = []
    for N in (256, 512, 1024, 2048):
        S = discrete_spectrum(spec, N, SolverParams())
        meds.append(window_scaled_median(S, 1.0, (2, 5), "plus"))
    assert all(b >= a for a, b in zip(meds, meds[1:]))
    assert 0.5 < meds[0] and meds[-1] < 1.0
