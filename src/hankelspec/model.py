"""Problem specifications and closed-form eigenvalue-asymptotics coefficients.

Discrete side: a symbol sequence on the half-line lattice,

    h(j) = (b_plus1 + b_minus1 (-1)^j + 2 sum_l b_l cos(phi_l j - psi_l))
           * j^{-1} (log j)^{-alpha},        j >= 2,   h(0) = h(1) = 0,

whose Hankel matrix Gamma(h)[j][k] = h(j+k) has extreme eigenvalues obeying
lambda_n^{+-} = a^{+-} n^{-alpha} + o(n^{-alpha}).  The leading coefficients
combine additively in p-th powers, p = 1/alpha:

    a^{+-} = kappa(alpha) * ((b_minus1)_{+-}^p + (b_plus1)_{+-}^p
                              + sum_l |b_l|^p)^alpha,

with x_{+-} = (|x| +- x)/2 and the universal constant

    kappa(alpha) = 2^{-alpha} pi^{1-2 alpha} B(1/(2 alpha), 1/2)^alpha.

Continuous side: an integral kernel on (0, infinity) built from the model
pieces q0(t) = chi0(t) t^{-1} (log(1/t))^{-alpha} (singular at t=0),
q_inf(t) = chi_inf(t) t^{-1} (log t)^{-alpha} (slow tail), oscillations
cos(rho t - psi) riding q_inf, and finitely supported local singularities
(t0 - t)^m on [0, t0].  A local singularity alone yields the exact law
lambda_n^{+-} ~ m! t0^{m+1} (2 pi n)^{-m-1}; combined specs (requiring
alpha = m + 1) enter the same p-th power combination with weight
(2 pi)^{-1} t0 (m! |coeff|)^{1/alpha}.

One table, _shares, states this closed form, a row per summand: the spec
constructors refuse, naming its field, a share that overflows, and
predict_discrete and predict_continuous sum the shares of each sign.

Everything here is closed-form arithmetic; no operator is ever built.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

__all__ = [
    "Oscillation",
    "KernelOscillation",
    "LocalSingularity",
    "Perturbation",
    "DiscreteSymbolSpec",
    "ContinuousKernelSpec",
    "AsymptoticPrediction",
    "UnsupportedCombinationError",
    "FieldError",
    "kappa",
    "predict_discrete",
    "predict_continuous",
]

DEFAULT_CUTOFFS = (0.25, 0.5, 1.5, 2.0)


class UnsupportedCombinationError(ValueError):
    """Parameter combination the asymptotic theory does not cover."""


class FieldError(ValueError):
    """A spec field the closed forms cannot take; field names it."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


def require_finite(spec, *names) -> None:
    """Raise ValueError naming the first field that holds a NaN or infinity.

    Each named field is a real or complex number, or a tuple or list of them.
    An integer too large for a float counts as infinite.
    """
    for name in names:
        value = getattr(spec, name)
        for x in value if isinstance(value, (tuple, list)) else (value,):
            try:
                finite = cmath.isfinite(x)
            except OverflowError:
                finite = False
            if not finite:
                raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Oscillation:
    """One oscillating term 2 b cos(phi j - psi) of a discrete symbol."""

    phi: float
    psi: float
    b: float

    def __post_init__(self):
        require_finite(self, "phi", "psi", "b")
        if not 0.0 < self.phi < math.pi:
            raise ValueError(
                f"oscillation frequency phi must lie strictly inside (0, pi), got {self.phi}"
            )


@dataclass(frozen=True)
class KernelOscillation:
    """One oscillating term 2 b cos(rho t - psi) riding the q_inf tail."""

    rho: float
    psi: float
    b: float

    def __post_init__(self):
        require_finite(self, "rho", "psi", "b")
        if self.rho <= 0.0:
            raise ValueError(f"kernel oscillation frequency rho must be positive, got {self.rho}")


@dataclass(frozen=True)
class LocalSingularity:
    """Kernel term coeff * (t0 - t)^m on [0, t0], zero beyond t0."""

    t0: float
    m: int
    coeff: float

    def __post_init__(self):
        require_finite(self, "t0", "m", "coeff")
        if self.t0 <= 0.0:
            raise ValueError(f"singularity location t0 must be positive, got {self.t0}")
        if self.m < 0 or self.m != int(self.m):
            raise ValueError(f"singularity order m must be a nonnegative integer, got {self.m}")
        object.__setattr__(self, "m", int(self.m))


@dataclass(frozen=True)
class Perturbation:
    """Additive error term scale * j^{-1} (log j)^{-alpha-beta}, beta > 0."""

    scale: float
    beta: float

    def __post_init__(self):
        require_finite(self, "scale", "beta")
        if self.beta <= 0.0:
            raise ValueError(f"perturbation decay exponent beta must be positive, got {self.beta}")


def _as_oscillations(items, cls):
    out = []
    for item in items:
        if isinstance(item, cls):
            out.append(item)
        else:
            out.append(cls(*item))
    return tuple(out)


@dataclass(frozen=True)
class DiscreteSymbolSpec:
    """Parameters of the discrete model sequence h(j)."""

    alpha: float
    b_plus1: float = 0.0
    b_minus1: float = 0.0
    oscillations: tuple = ()
    perturbation: Perturbation | None = None

    def __post_init__(self):
        require_finite(self, "alpha", "b_plus1", "b_minus1")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        object.__setattr__(
            self, "oscillations", _as_oscillations(self.oscillations, Oscillation)
        )
        phis = [osc.phi for osc in self.oscillations]
        for i in range(len(phis)):
            for j in range(i + 1, len(phis)):
                if phis[i] == phis[j]:
                    raise ValueError(
                        f"oscillation frequencies must be pairwise distinct, phi={phis[i]} repeats"
                    )
        if self.perturbation is not None and not isinstance(self.perturbation, Perturbation):
            object.__setattr__(self, "perturbation", Perturbation(*self.perturbation))
        _check_shares(self)


@dataclass(frozen=True)
class ContinuousKernelSpec:
    """Parameters of the continuous model kernel h(t).

    cutoffs = (c1, c2, C1, C2): chi0 falls from 1 to 0 over [c1, c2], chi_inf
    rises from 0 to 1 over [C1, C2], and 0 < c1 < c2 < 1 < C1 < C2 keeps their
    supports disjoint and away from t = 1.
    """

    alpha: float
    b_zero: float = 0.0
    b_inf: float = 0.0
    oscillations: tuple = ()
    local_singularities: tuple = ()
    cutoffs: tuple = DEFAULT_CUTOFFS

    def __post_init__(self):
        require_finite(self, "alpha", "b_zero", "b_inf", "cutoffs")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        object.__setattr__(
            self, "oscillations", _as_oscillations(self.oscillations, KernelOscillation)
        )
        object.__setattr__(
            self,
            "local_singularities",
            _as_oscillations(self.local_singularities, LocalSingularity),
        )
        rhos = [osc.rho for osc in self.oscillations]
        if len(set(rhos)) != len(rhos):
            raise ValueError("kernel oscillation frequencies rho must be pairwise distinct")
        t0s = [s.t0 for s in self.local_singularities]
        if len(set(t0s)) != len(t0s):
            raise ValueError("local singularity locations t0 must be pairwise distinct")
        c1, c2, C1, C2 = self.cutoffs
        if not (0.0 < c1 < c2 < 1.0 < C1 < C2):
            raise ValueError(
                f"cutoffs must satisfy 0 < c1 < c2 < 1 < C1 < C2, got {self.cutoffs}"
            )
        if self.local_singularities and self.b_zero != 0.0:
            raise UnsupportedCombinationError(
                "a t->0 singular term (b_zero != 0) cannot be combined with local "
                "singularities; the two contributions are not independent"
            )
        _check_shares(self)


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Leading coefficients of lambda_n^{+-} = a^{+-} n^{-alpha} + o(n^{-alpha}).

    terms lists each contributing summand as (label, share of a_plus^p,
    share of a_minus^p) with p = 1/alpha; the shares sum to a_plus^p and
    a_minus^p respectively.  a_singular is the coefficient of the merged
    singular-value sequence, tied to a_plus and a_minus by the exact identity
    a_singular = (a_plus^{1/alpha} + a_minus^{1/alpha})^alpha.
    """

    alpha: float
    a_plus: float
    a_minus: float
    a_singular: float
    terms: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "a_plus": self.a_plus,
            "a_minus": self.a_minus,
            "a_singular": self.a_singular,
            "terms": [
                {"label": label, "plus_pth": tp, "minus_pth": tm}
                for (label, tp, tm) in self.terms
            ],
        }


def kappa(alpha: float) -> float:
    """Universal leading coefficient 2^{-a} pi^{1-2a} B(1/(2a), 1/2)^a."""
    if alpha <= 0.0:
        raise ValueError(f"kappa requires alpha > 0, got {alpha}")
    a = 1.0 / (2.0 * alpha)
    lb = math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)  # log B(a, 1/2)
    return math.exp(
        -alpha * math.log(2.0) + (1.0 - 2.0 * alpha) * math.log(math.pi) + alpha * lb
    )


def _shares(spec):
    """Rows (field, label, weight, amplitude, signed), one per summand of a spec.

    By the localization principle each summand adds its own share
    weight * |amplitude|^p, p = 1/alpha, to the p-th powers of the
    coefficients.  A signed summand adds it to the sign of its amplitude
    only; by the symmetry principle every other one adds it to both.
    Raises FieldError at alpha where kappa(alpha)^(1/alpha) overflows.
    """
    alpha = spec.alpha
    try:
        kap_p = kappa(alpha) ** (1.0 / alpha)
    except OverflowError:
        kap_p = math.inf
    if not math.isfinite(kap_p):
        raise FieldError("alpha", f"kappa(alpha)^(1/alpha) overflows at alpha = {alpha!r}")
    discrete = isinstance(spec, DiscreteSymbolSpec)
    if discrete:
        yield "b_minus1", "point mu=-1", kap_p, spec.b_minus1, True
        yield "b_plus1", "point mu=+1", kap_p, spec.b_plus1, True
    else:
        # A local singularity enters a prediction only at alpha = m + 1 >= 1,
        # with the share t0 (m! |coeff|)^p / (2 pi); m! overflows above 170.
        for i, sing in enumerate(spec.local_singularities):
            if alpha == sing.m + 1:
                base = math.factorial(sing.m) * abs(sing.coeff) if sing.m <= 170 else math.inf
                yield (
                    f"local_singularities[{i}]", f"local singularity t0={sing.t0:.12g}",
                    sing.t0 / (2.0 * math.pi), base, False,
                )
        yield "b_zero", "t->0 singularity", kap_p, spec.b_zero, True
        yield "b_inf", "slow tail", kap_p, spec.b_inf, True
    for i, osc in enumerate(spec.oscillations):
        frequency = f"phi={osc.phi:.12g}" if discrete else f"rho={osc.rho:.12g}"
        yield f"oscillations[{i}].b", f"oscillation {frequency}", kap_p, osc.b, False


def _check_shares(spec) -> None:
    """Raise FieldError at the first summand whose share overflows.

    The running sum of the shares, an unsigned share counted once for each
    sign, bounds a_plus^p + a_minus^p, the p-th power of a_singular; the
    first field at which a share, that sum or that sum to the power alpha
    leaves the float range is named.
    """
    p = 1.0 / spec.alpha
    total = 0.0
    for field, _label, weight, amplitude, signed in _shares(spec):
        try:
            total += (1.0 if signed else 2.0) * weight * abs(amplitude) ** p
            finite = math.isfinite(total) and math.isfinite(total**spec.alpha)
        except OverflowError:
            finite = False
        if not finite:
            raise FieldError(
                field,
                f"its share of the predicted coefficients' p-th powers "
                f"(p = 1/alpha = {p!r}) overflows",
            )


def _predict(spec) -> AsymptoticPrediction:
    """The closed form a^{+-} = (sum of the shares of the sign)^alpha."""
    alpha = spec.alpha
    p = 1.0 / alpha
    terms = []
    for _field, label, weight, amplitude, signed in _shares(spec):
        share = weight * abs(amplitude) ** p
        if not signed:
            terms.append((label, share, share))
        elif amplitude != 0.0:
            terms.append((label, share, 0.0) if amplitude > 0.0 else (label, 0.0, share))
    total_plus = math.fsum(t[1] for t in terms)
    total_minus = math.fsum(t[2] for t in terms)
    a_plus = total_plus**alpha if total_plus > 0.0 else 0.0
    a_minus = total_minus**alpha if total_minus > 0.0 else 0.0
    # Exact identity for the merged sequence; p-th powers add.
    a_singular = 0.0
    if total_plus + total_minus > 0.0:
        a_singular = (a_plus**p + a_minus**p) ** alpha
    return AsymptoticPrediction(alpha, a_plus, a_minus, a_singular, tuple(terms))


def predict_discrete(spec: DiscreteSymbolSpec) -> AsymptoticPrediction:
    """Leading eigenvalue coefficients for the discrete symbol spec."""
    return _predict(spec)


def predict_continuous(spec: ContinuousKernelSpec) -> AsymptoticPrediction:
    """Leading eigenvalue coefficients for the continuous kernel spec."""
    for sing in spec.local_singularities:
        if spec.alpha != sing.m + 1:
            raise UnsupportedCombinationError(
                f"a local singularity of order m={sing.m} is only covered at "
                f"alpha = m + 1 = {sing.m + 1}, got alpha = {spec.alpha}"
            )
    return _predict(spec)

