"""Turns computed spectra into verdicts about the asymptotic laws.

The fits quantify how close the windowed eigenvalue data sits to the
predicted power law lambda_n ~ a n^-alpha: the plain model takes the median
of n^alpha lambda_n over the window (robust against the slowly decaying
1/log n bias and stray unconverged values), the log-corrected model fits
n^alpha lambda_n ~ a + c/log n by least squares because the error terms of
the underlying expansions are one logarithm weaker than the main term.

Eigenvalue lists are extended by zero past their converged length when the
caller asks for it: a finite symmetric truncation of a compact operator has
lambda_n := 0 once n exceeds the count of (numerically) nonzero eigenvalues
of that sign, which is the standard min-max convention.  The strict mode
raises instead, reporting the available counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolve import SolverParams, SpectrumResult, solve
from .hankel_core import DiscreteTruncation
from .model import (
    AsymptoticPrediction,
    DiscreteSymbolSpec,
    FieldError,
    predict_discrete,
)

__all__ = [
    "SolverParams",
    "FitParams",
    "FitReport",
    "fit_coefficient",
    "fit_bytes",
    "window_scaled_median",
    "SymmetryStats",
    "symmetry_ratio",
    "LocalizationReport",
    "compare_localization",
    "TruncationReport",
    "truncation_study",
    "discrete_spectrum",
]


def _median(values) -> float:
    """np.median of a 1-D array, bitwise, without importing numpy.ma.

    The same steps as np.median: np.partition at the middle positions and
    the last (so a NaN lands last), then np.mean of the middle value, or of
    the two middle values for an even count; NaN when the array is empty
    or holds a NaN.  np.median itself imports numpy.ma on its first call,
    a fixed 20-40 ms the CLI does not need.
    """
    a = np.asarray(values, dtype=float)
    n = len(a)
    if n == 0:
        return math.nan
    m = n // 2
    lo = m if n % 2 else m - 1
    part = np.partition(a, [m, -1] if n % 2 else [lo, m, -1])
    if math.isnan(part[-1]):
        return math.nan
    return float(np.mean(part[lo : m + 1]))


def discrete_spectrum(spec: DiscreteSymbolSpec, N: int, params: SolverParams):
    """Spectrum of the order-N truncation of the spec.

    By the exponential-sum factorization at every order; it does not read
    params, which stays for the callers' common signature.
    """
    return solve(DiscreteTruncation(spec, N), params)


@dataclass(frozen=True)
class FitParams:
    """The fit window [n_min, n_max] and model, checked here for every fit.

    The window needs 1 <= n_min <= n_max.  model is plain or log_corrected,
    which divides by log n and so needs n_min >= 2.  A refusal is a
    FieldError naming window or model.
    """

    window: tuple = (8, 32)
    model: str = "plain"

    def __post_init__(self):
        n_lo, n_hi = (int(n) for n in self.window)
        object.__setattr__(self, "window", (n_lo, n_hi))
        if not (1 <= n_lo <= n_hi):
            raise FieldError("window", f"need 1 <= n_min <= n_max, got {[n_lo, n_hi]}")
        if self.model not in ("plain", "log_corrected"):
            raise FieldError("model", f"expected plain|log_corrected, got {self.model!r}")
        if self.model == "log_corrected" and n_lo < 2:
            raise FieldError(
                "window", f"log_corrected divides by log n, so needs n_min >= 2, got {[n_lo, n_hi]}"
            )


def _window_values(values, n_lo, n_hi, extend_by_zero, channel):
    if len(values) < n_hi and not extend_by_zero:
        raise ValueError(
            f"window [{n_lo}, {n_hi}] exceeds the {len(values)} converged "
            f"{channel} eigenvalues; pass extend_by_zero=True to treat the "
            f"missing tail as zero"
        )
    out = np.zeros(n_hi - n_lo + 1)
    present = values[n_lo - 1 : n_hi]
    out[: len(present)] = present
    return out


def window_scaled_median(
    S: SpectrumResult,
    alpha: float,
    window,
    sign: str,
    extend_by_zero: bool = False,
) -> float:
    """Median of n^alpha lambda_n over the window for one sign channel."""
    n_lo, n_hi = FitParams(window).window
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    values = S.lambda_plus if sign == "plus" else S.lambda_minus
    lam = _window_values(values, n_lo, n_hi, extend_by_zero, sign)
    n = np.arange(n_lo, n_hi + 1, dtype=float)
    return _median(n**alpha * lam)


@dataclass
class FitReport:
    """Windowed fit of lambda_n ~ a n^-alpha for both sign channels.

    per_n has one row (n, lambda_n^+, lambda_n^-, n^alpha lambda_n^+,
    n^alpha lambda_n^-) per window index.
    """

    alpha: float
    window: tuple
    a_hat_plus: float
    a_hat_minus: float
    model: str
    c_hat: tuple | None
    per_n: np.ndarray
    drift: float

    def to_dict(self) -> dict:
        rows = self.per_n.tolist()
        for row in rows:
            row[0] = int(row[0])  # n, written as an integer
        return {
            "alpha": self.alpha,
            "window": list(self.window),
            "a_hat_plus": self.a_hat_plus,
            "a_hat_minus": self.a_hat_minus,
            "model": self.model,
            "c_hat": list(self.c_hat) if self.c_hat is not None else None,
            "drift": self.drift,
            "per_n": rows,
        }


def _fit_channel(scaled, n, model):
    if model == "plain":
        return _median(scaled), None
    design = np.column_stack([np.ones_like(n), 1.0 / np.log(n)])
    coef, *_ = np.linalg.lstsq(design, scaled, rcond=None)
    return max(float(coef[0]), 0.0), float(coef[1])


def _channel_drift(scaled):
    top = float(np.max(scaled) - np.min(scaled))
    mid = abs(_median(scaled))
    if top == 0.0:
        return 0.0
    return top / mid if mid > 0.0 else math.inf


def fit_coefficient(
    S: SpectrumResult,
    alpha: float,
    window,
    model: str = "plain",
    extend_by_zero: bool = False,
) -> FitReport:
    """Fit the windowed power-law coefficient for both sign channels.

    model='plain' takes the median of n^alpha lambda_n; 'log_corrected'
    solves the least-squares system n^alpha lambda_n ~ a + c/log n and
    reports a (clamped at 0).  drift is the worse over the two channels of
    the relative spread (max - min) / |median| of the scaled values.
    """
    n_lo, n_hi = FitParams(window, model).window
    n = np.arange(n_lo, n_hi + 1, dtype=float)
    lam_p = _window_values(S.lambda_plus, n_lo, n_hi, extend_by_zero, "positive")
    lam_m = _window_values(S.lambda_minus, n_lo, n_hi, extend_by_zero, "negative")
    scaled_p = n**alpha * lam_p
    scaled_m = n**alpha * lam_m
    a_plus, c_plus = _fit_channel(scaled_p, n, model)
    a_minus, c_minus = _fit_channel(scaled_m, n, model)
    per_n = np.column_stack([n, lam_p, lam_m, scaled_p, scaled_m])
    return FitReport(
        alpha=alpha,
        window=(n_lo, n_hi),
        a_hat_plus=a_plus,
        a_hat_minus=a_minus,
        model=model,
        c_hat=None if model == "plain" else (c_plus, c_minus),
        per_n=per_n,
        drift=max(_channel_drift(scaled_p), _channel_drift(scaled_m)),
    )


def fit_bytes(window) -> int:
    """Bytes a fit and its fit.json report allocate for the window, by arithmetic.

    Per window row, summed over the steps: fit_coefficient holds the per_n
    row, five floats, 40 bytes, and at most 56 bytes of transient arrays.
    FitReport.to_dict makes a list slot and a list of an int and four floats
    of it, 8 + 96 + 32 + 4 * 24 bytes.  cli._to_json copies that list, 8
    bytes, and makes a string of each row, 8 + 49 bytes plus the row's text;
    joining the rows and bracketing the result hold the text twice more.
    The text is at most 135 bytes: 8 of indent, 2 brackets, 19 digits of n,
    four %.17g values of at most 24 characters after their ", ", and ",\n".
    """
    n_lo, n_hi = FitParams(window).window
    text = 8 + 2 + 19 + 4 * (2 + 24) + 2
    return (40 + 56 + (8 + 96 + 32 + 4 * 24) + 8 + (8 + 49) + 3 * text) * (n_hi - n_lo + 1)


@dataclass
class SymmetryStats:
    """Per-n ratios lambda_n+ / lambda_n- and their window statistics."""

    window: tuple
    ratios: np.ndarray
    median: float
    lo: float
    hi: float


def symmetry_ratio(S: SpectrumResult, window) -> SymmetryStats:
    """Ratios of the two sign channels over the window.

    Both channels must cover the window; otherwise this is a domain error
    reporting how many eigenvalues each channel has.
    """
    n_lo, n_hi = FitParams(window).window
    if len(S.lambda_plus) < n_hi or len(S.lambda_minus) < n_hi:
        raise ValueError(
            f"window [{n_lo}, {n_hi}] needs both channels: have "
            f"{len(S.lambda_plus)} positive and {len(S.lambda_minus)} "
            f"negative eigenvalues"
        )
    lp = S.lambda_plus[n_lo - 1 : n_hi]
    lm = S.lambda_minus[n_lo - 1 : n_hi]
    ratios = lp / lm
    return SymmetryStats(
        window=(n_lo, n_hi),
        ratios=ratios,
        median=_median(ratios),
        lo=float(np.min(ratios)),
        hi=float(np.max(ratios)),
    )


def _support_markers(spec: DiscreteSymbolSpec):
    markers = []
    if spec.b_plus1 != 0.0:
        markers.append(("point", 1.0))
    if spec.b_minus1 != 0.0:
        markers.append(("point", -1.0))
    for osc in spec.oscillations:
        markers.append(("pair", float(osc.phi)))
    return markers


def _markers_overlap(a, b) -> bool:
    for kind_a, val_a in a:
        for kind_b, val_b in b:
            if kind_a == kind_b and abs(val_a - val_b) < 1e-12:
                return True
    return False


def _merge_specs(specs):
    alpha = specs[0].alpha
    for s in specs[1:]:
        if s.alpha != alpha:
            raise ValueError(
                f"all specs must share alpha; got {alpha} and {s.alpha}"
            )
    if any(s.perturbation is not None for s in specs):
        raise ValueError("perturbed specs cannot be combined")
    return DiscreteSymbolSpec(
        alpha=alpha,
        b_plus1=sum(s.b_plus1 for s in specs),
        b_minus1=sum(s.b_minus1 for s in specs),
        oscillations=tuple(o for s in specs for o in s.oscillations),
    )


@dataclass
class LocalizationReport:
    """Additivity check: spectrum of a sum vs its singular-support parts."""

    prediction_sum: AsymptoticPrediction
    predictions: list
    fit_sum: FitReport
    fits: list
    additivity_gap_plus: float
    additivity_gap_minus: float


def compare_localization(
    specs,
    N: int,
    params: SolverParams = SolverParams(),
    window=(8, 32),
    model: str = "plain",
    spectrum_fn=None,
) -> LocalizationReport:
    """Fit the summed spec and each component; report additivity in p-th powers.

    The singular supports ({1} for the b_plus1 point, {-1} for b_minus1,
    conjugate pairs e^{+-i phi} per oscillation) must be pairwise disjoint
    across the specs; the predicted coefficients of the sum then combine the
    component contributions additively in the p = 1/alpha powers, which is
    exactly how predict_discrete computes them.  spectrum_fn(spec, N, params)
    may replace the build-and-solve step (testing seam).
    """
    specs = list(specs)
    if not specs:
        raise ValueError("need at least one spec")
    markers = [_support_markers(s) for s in specs]
    for i in range(len(specs)):
        for j in range(i + 1, len(specs)):
            if _markers_overlap(markers[i], markers[j]):
                raise ValueError(
                    f"singular supports of specs {i} and {j} overlap; "
                    f"localization needs disjoint supports"
                )
    if spectrum_fn is None:
        spectrum_fn = discrete_spectrum
    merged = _merge_specs(specs)
    prediction_sum = predict_discrete(merged)
    predictions = [predict_discrete(s) for s in specs]
    fit_sum = fit_coefficient(
        spectrum_fn(merged, N, params), merged.alpha, window, model,
        extend_by_zero=True,
    )
    fits = [
        fit_coefficient(
            spectrum_fn(s, N, params), s.alpha, window, model,
            extend_by_zero=True,
        )
        for s in specs
    ]
    p = 1.0 / merged.alpha
    gap_plus = abs(
        fit_sum.a_hat_plus**p - sum(f.a_hat_plus**p for f in fits)
    )
    gap_minus = abs(
        fit_sum.a_hat_minus**p - sum(f.a_hat_minus**p for f in fits)
    )
    return LocalizationReport(
        prediction_sum=prediction_sum,
        predictions=predictions,
        fit_sum=fit_sum,
        fits=fits,
        additivity_gap_plus=gap_plus,
        additivity_gap_minus=gap_minus,
    )


@dataclass
class TruncationReport:
    """Fitted coefficients across truncation orders vs the prediction.

    spectra holds the solved spectrum at each order, so callers report the
    largest order without solving it again.
    """

    N_list: list
    spectra: list
    fits: list
    deviations: list
    improving: bool
    prediction: AsymptoticPrediction


def truncation_study(
    spec: DiscreteSymbolSpec,
    N_list,
    params: SolverParams = SolverParams(),
    window=(8, 32),
    model: str = "plain",
    spectrum_fn=None,
) -> TruncationReport:
    """Run the pipeline at each N; deviations are max over sign channels of
    |a_hat - a_predicted|.  Flags runs whose deviation sequence is not
    non-increasing."""
    N_list = [int(N) for N in N_list]
    if not N_list:
        raise ValueError("N_list must not be empty")
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError(f"N_list must be strictly increasing, got {N_list}")
    if spectrum_fn is None:
        spectrum_fn = discrete_spectrum
    prediction = predict_discrete(spec)
    spectra = [spectrum_fn(spec, N, params) for N in N_list]
    fits = [
        fit_coefficient(S, spec.alpha, window, model, extend_by_zero=True)
        for S in spectra
    ]
    deviations = [
        max(
            abs(f.a_hat_plus - prediction.a_plus),
            abs(f.a_hat_minus - prediction.a_minus),
        )
        for f in fits
    ]
    improving = all(
        deviations[i + 1] <= deviations[i] for i in range(len(deviations) - 1)
    )
    return TruncationReport(
        N_list=N_list,
        spectra=spectra,
        fits=fits,
        deviations=deviations,
        improving=improving,
        prediction=prediction,
    )
