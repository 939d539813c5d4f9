"""Symbols on the unit circle and the real line, and their Fourier behavior.

Covers four families:

  * partial sums of the oscillation symbols omega_zeta (trigonometric
    polynomials whose Fourier coefficients reproduce the model sequences);
  * log-singular symbols with polynomial modulations around theta = 0,
    whose Fourier coefficients decay like b / (j log(j)^alpha);
  * the local-singularity symbols tau_m with explicit closed form;
  * the model symbols 2i * integral q(t) sin(xt) dt on the line, evaluated
    by oscillatory quadrature between the zeros of the sine.

A Mobius map transports circle symbols to line symbols and back.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .model import require_finite
from .sequences import smooth_step

__all__ = [
    "AsLogSpec",
    "eval_omega_zeta",
    "sample_omega_zeta",
    "eval_tau",
    "eval_aslog",
    "sample_aslog",
    "aslog_coefficient",
    "fourier_coefficients",
    "mobius_to_line",
    "mobius_to_circle",
    "OscillatoryIntegral",
    "eval_omega_model",
]

MAX_POLY_DEGREE = 4
DEFAULT_HALF_WIDTHS = (0.25, 0.5)


def _as_poly(coeffs) -> tuple:
    out = tuple(complex(c) for c in coeffs)
    if len(out) > MAX_POLY_DEGREE + 1:
        raise ValueError(
            f"polynomial degree is capped at {MAX_POLY_DEGREE}, "
            f"got {len(out)} coefficients"
        )
    return out

def _poly_eval(coeffs: tuple, theta):
    acc = np.zeros_like(np.asarray(theta, dtype=float), dtype=complex)
    for c in reversed(coeffs):
        acc = acc * theta + c
    return acc


def _conj_reflected(p: tuple, q: tuple) -> bool:
    """p(theta) == conj(q(-theta)) for all real theta, coefficient-wise."""
    n = max(len(p), len(q))
    for k in range(n):
        a = p[k] if k < len(p) else 0.0
        b = q[k] if k < len(q) else 0.0
        if abs(a - (-1.0) ** k * b.conjugate()) > 1e-14 * max(1.0, abs(a), abs(b)):
            return False
    return True


@dataclass(frozen=True)
class AsLogSpec:
    """Log-singular circle symbol around theta = 0.

    The symbol is

        sum over j in {0,1}, sigma in {+,-} of
            v_{j,sigma}(theta) (-log|theta| + u_{j,sigma}(theta))^(1-j-alpha)

    restricted to sign(theta) = sigma and cut off smoothly at |theta| = c2.
    Polynomials are given by ascending complex coefficient tuples of degree
    at most 4.  The complex powers use the principal branch, valid because
    the base is checked to stay in the right half-plane on the cutoff
    support.  The symmetric flag (value equals the conjugate at -theta)
    is detected from the coefficients: it holds exactly when each
    sigma=+ polynomial is the conjugate reflection of its sigma=- partner
    and v0 is real.
    """

    alpha: float
    v0_plus: tuple = (1.0,)
    v0_minus: tuple = (1.0,)
    v1_plus: tuple = (0.0,)
    v1_minus: tuple = (0.0,)
    u0_plus: tuple = (0.0,)
    u0_minus: tuple = (0.0,)
    u1_plus: tuple = (0.0,)
    u1_minus: tuple = (0.0,)
    cutoffs: tuple = DEFAULT_HALF_WIDTHS

    def __post_init__(self):
        require_finite(self, "alpha", "cutoffs")
        if not (self.alpha > 0.0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        for name in ("v0", "v1", "u0", "u1"):
            for side in ("plus", "minus"):
                key = f"{name}_{side}"
                object.__setattr__(self, key, _as_poly(getattr(self, key)))
                require_finite(self, key)
        c1, c2 = self.cutoffs
        if not (0.0 < c1 < c2 < 1.0):
            raise ValueError(
                f"cutoff half-widths must satisfy 0 < c1 < c2 < 1, got {self.cutoffs}"
            )
        object.__setattr__(self, "cutoffs", (float(c1), float(c2)))
        if self.v0_plus[0] != self.v0_minus[0]:
            raise ValueError(
                f"v0 must be single-valued at 0: v0_plus(0)={self.v0_plus[0]} "
                f"!= v0_minus(0)={self.v0_minus[0]}"
            )
        self._check_base_nonvanishing()

    def _check_base_nonvanishing(self):
        c2 = self.cutoffs[1]
        grid = np.linspace(c2 * 1e-6, c2, 2001)
        for side, sgn in (("plus", 1.0), ("minus", -1.0)):
            theta = sgn * grid
            for name in ("u0", "u1"):
                u = _poly_eval(getattr(self, f"{name}_{side}"), theta)
                base = -np.log(np.abs(theta)) + u
                if np.min(base.real) <= 0.0:
                    raise ValueError(
                        f"-log|theta| + {name}_{side} leaves the right "
                        f"half-plane on the cutoff support"
                    )

    @property
    def v0(self) -> complex:
        return self.v0_plus[0]

    @property
    def symmetric(self) -> bool:
        return (
            abs(self.v0.imag) < 1e-14 * max(1.0, abs(self.v0))
            and _conj_reflected(self.v0_plus, self.v0_minus)
            and _conj_reflected(self.v1_plus, self.v1_minus)
            and _conj_reflected(self.u0_plus, self.u0_minus)
            and _conj_reflected(self.u1_plus, self.u1_minus)
        )


def eval_omega_zeta(zeta: complex, alpha: float, J: int, theta):
    """Partial sum sum_{j=2}^J j^-1 (log j)^-alpha ((mu/zeta)^j - (mu/zeta)^-j).

    mu = e^{i theta}; theta may be a scalar or an array.  Each term equals
    2i sin(j (theta - arg zeta)) / (j (log j)^alpha), so the value is purely
    imaginary and odd in theta - arg zeta.
    """
    if J < 2:
        raise ValueError(f"truncation J must be at least 2, got {J}")
    zeta = complex(zeta)
    if abs(abs(zeta) - 1.0) > 1e-12:
        raise ValueError(f"zeta must lie on the unit circle, got |zeta|={abs(zeta)}")
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=float))
    phase = theta_arr - cmath.phase(zeta)
    j = np.arange(2, J + 1)
    q = 1.0 / (j * np.log(j) ** alpha)
    # sum_j q_j * 2i sin(j phase); chunked so the outer product stays small
    vals = np.empty(phase.shape, dtype=complex)
    step = max(1, 2**22 // (J + 1))
    for lo in range(0, len(phase), step):
        block = phase[lo : lo + step]
        vals[lo : lo + step] = 2j * (np.sin(np.outer(block, j)) @ q)
    if np.isscalar(theta) or np.asarray(theta).ndim == 0:
        return complex(vals[0])
    return vals


def sample_omega_zeta(zeta: complex, alpha: float, J: int, samples: int):
    """Exact uniform-grid samples of the partial sum via an inverse FFT.

    Returns the values at theta_k = 2 pi k / samples, k = 0..samples-1.
    The partial sum is a trigonometric polynomial of degree J, so for
    samples > 2J the FFT of the result recovers its coefficients exactly.
    """
    if samples < 2 * J + 1:
        raise ValueError(
            f"need more than 2J samples to avoid aliasing, got {samples} <= {2*J}"
        )
    zeta = complex(zeta)
    j = np.arange(2, J + 1)
    q = 1.0 / (j * np.log(j) ** alpha)
    coeff = np.zeros(samples, dtype=complex)
    coeff[j] = q * zeta ** (-j.astype(float))
    coeff[-j] = -q * zeta ** (j.astype(float))
    return np.fft.ifft(coeff) * samples


def eval_tau(t0: float, m: int, x):
    """Local-singularity symbol m! (ix)^{-m-1} (e^{i t0 x} - partial exponential).

    The subtraction loses about (m+1) log10(1/|t0 x|) digits, so |t0 x| < 1
    switches to the convergent tail series
    m! t0^{m+1} sum_r (i t0 x)^r / (r+m+1)!, whose value at x = 0 is
    t0^{m+1}/(m+1).
    """
    if t0 <= 0.0:
        raise ValueError(f"t0 must be positive, got {t0}")
    if m < 0 or m != int(m):
        raise ValueError(f"m must be a nonnegative integer, got {m}")
    m = int(m)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty(x_arr.shape, dtype=complex)
    small = np.abs(t0 * x_arr) < 1.0
    fact_m = math.factorial(m)

    if np.any(small):
        z = 1j * t0 * x_arr[small]
        acc = np.zeros_like(z)
        term = np.ones_like(z) / math.factorial(m + 1)
        r = 0
        while True:
            acc = acc + term
            r += 1
            term = term * z / (m + 1 + r)
            if np.all(np.abs(term) < 1e-18):
                break
        out[small] = fact_m * t0 ** (m + 1) * acc

    big = ~small
    if np.any(big):
        xb = x_arr[big]
        partial = np.zeros_like(xb, dtype=complex)
        zk = np.ones_like(xb, dtype=complex)
        for k in range(m + 1):
            partial = partial + zk
            zk = zk * (1j * t0 * xb) / (k + 1)
        out[big] = fact_m * (1j * xb) ** (-m - 1) * (np.exp(1j * t0 * xb) - partial)

    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return complex(out[0])
    return out


def eval_aslog(spec: AsLogSpec, theta):
    """Evaluate the log-singular symbol; theta = 0 is a domain error."""
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if np.any(theta_arr == 0.0):
        raise ValueError("the symbol has a logarithmic singularity at theta = 0")
    return _eval_aslog_nonzero(spec, theta_arr, np.isscalar(theta) or np.asarray(theta).ndim == 0)


def _eval_aslog_nonzero(spec, theta_arr, scalar):
    c1, c2 = spec.cutoffs
    out = np.zeros(theta_arr.shape, dtype=complex)
    absq = np.abs(theta_arr)
    chi = smooth_step((c2 - absq) / (c2 - c1))
    live = (chi > 0.0) & (absq > 0.0)
    for side, mask in (("plus", theta_arr > 0), ("minus", theta_arr < 0)):
        sel = live & mask
        if not np.any(sel):
            continue
        th = theta_arr[sel]
        loga = -np.log(np.abs(th))
        acc = np.zeros(th.shape, dtype=complex)
        for j, vname, uname in ((0, "v0", "u0"), (1, "v1", "u1")):
            v = _poly_eval(getattr(spec, f"{vname}_{side}"), th)
            u = _poly_eval(getattr(spec, f"{uname}_{side}"), th)
            base = loga + u
            acc = acc + v * np.exp((1.0 - j - spec.alpha) * np.log(base))
        out[sel] = acc * chi[sel]
    if scalar:
        return complex(out[0])
    return out


def sample_aslog(spec: AsLogSpec, samples: int):
    """Uniform circle samples for FFT use; needs alpha > 1.

    Sample k sits at theta_k = 2 pi k / samples wrapped to (-pi, pi].  The
    k = 0 sample is assigned the limit value 0, which is the correct limit
    only when alpha > 1 (the exponent 1 - alpha is then negative).
    """
    if spec.alpha <= 1.0:
        raise ValueError(
            f"uniform sampling through theta=0 needs alpha > 1 for a finite "
            f"limit, got alpha={spec.alpha}"
        )
    if samples < 2 or samples & (samples - 1):
        raise ValueError(f"sample count must be a power of two, got {samples}")
    k = np.arange(samples)
    theta = 2.0 * np.pi * k / samples
    theta = np.where(theta > np.pi, theta - 2.0 * np.pi, theta)
    out = np.zeros(samples, dtype=complex)
    out[1:] = _eval_aslog_nonzero(spec, theta[1:], False)
    return out


def aslog_coefficient(spec: AsLogSpec) -> complex:
    """Leading Fourier-decay coefficient b of the log-singular symbol.

    The Fourier coefficients obey omega_hat(j) ~ b j^-1 (log j)^-alpha with

        b = (1-alpha) v0 (1/2 + (u0+(0) - u0-(0)) / (2 pi i))
            + (v1+(0) - v1-(0)) / (2 pi i).

    For symmetric specs b is real (the imaginary part cancels); callers can
    take .real without loss.
    """
    two_pi_i = 2j * np.pi
    b = (1.0 - spec.alpha) * spec.v0 * (
        0.5 + (spec.u0_plus[0] - spec.u0_minus[0]) / two_pi_i
    ) + (spec.v1_plus[0] - spec.v1_minus[0]) / two_pi_i
    return complex(b)


def fourier_coefficients(samples) -> np.ndarray:
    """DFT normalized so that samples of mu^j give coefficient 1 at index j."""
    samples = np.asarray(samples, dtype=complex)
    n = len(samples)
    if n < 2 or n & (n - 1):
        raise ValueError(f"sample count must be a power of two, got {n}")
    return np.fft.fft(samples) / n


def mobius_to_line(omega):
    """Transport a circle symbol to the line: x -> -w(x) omega(w(x)).

    w(x) = (x - i/2) / (x + i/2) maps the real line onto the unit circle.
    """

    def line_symbol(x):
        w = (x - 0.5j) / (x + 0.5j)
        return -w * omega(w)

    return line_symbol


def mobius_to_circle(line_symbol):
    """Inverse transport; the point w = 1 maps to x = infinity (domain error)."""

    def circle_symbol(w):
        w = complex(w)
        if abs(w - 1.0) < 1e-15:
            raise ValueError("w = 1 corresponds to x = infinity")
        x = 0.5j * (1.0 + w) / (1.0 - w)
        return -line_symbol(x) / w

    return circle_symbol


@dataclass(frozen=True)
class OscillatoryIntegral:
    """Value of 2i * integral q(t) sin(xt) dt with accuracy diagnostics."""

    value: complex
    abs_err: float
    converged: bool
    segments: int


@lru_cache(maxsize=1)
def _gauss_rule(n=32):
    return np.polynomial.legendre.leggauss(n)


def _gauss_segment(f, a, b, panels: int = 4):
    x, w = _gauss_rule()
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for i in range(panels):
        mid, half = 0.5 * (edges[i] + edges[i + 1]), 0.5 * (edges[i + 1] - edges[i])
        total += half * float(w @ f(mid + half * x))
    return total


def _euler_accelerate(partials):
    """Repeated averaging of the partial-sum sequence; returns the diagonal."""
    row = list(partials)
    diag = [row[-1]]
    while len(row) > 1:
        row = [0.5 * (row[i] + row[i + 1]) for i in range(len(row) - 1)]
        diag.append(row[-1])
    return diag


def eval_omega_model(
    which: str,
    alpha: float,
    x: float,
    cutoffs=(0.25, 0.5, 1.5, 2.0),
    max_segments: int = 60,
) -> OscillatoryIntegral:
    """Model symbol 2i * integral_0^inf q(t) sin(xt) dt by segment quadrature.

    which = "zero" uses q(t) = chi0(t) t^-1 log(1/t)^-alpha (compact support,
    finitely many sine zeros); which = "infinity" uses the slow tail
    q(t) = chi_inf(t) t^-1 log(t)^-alpha, where the integral converges only
    conditionally and the alternating between-zeros segments are summed with
    repeated-averaging acceleration.  Accuracy target 1e-6 absolute; a result
    that fails the target is returned flagged, not raised.
    """
    if which not in ("zero", "infinity"):
        raise ValueError(f"which must be 'zero' or 'infinity', got {which!r}")
    if alpha < 0.0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    x = float(x)
    if x == 0.0:
        if which == "infinity":
            raise ValueError("the tail integral needs x != 0")
        return OscillatoryIntegral(0.0 + 0.0j, 0.0, True, 0)
    if x < 0.0:
        res = eval_omega_model(which, alpha, -x, cutoffs, max_segments)
        return OscillatoryIntegral(-res.value, res.abs_err, res.converged, res.segments)

    c1, c2, C1, C2 = cutoffs

    if which == "zero":
        def q(t):
            chi = smooth_step((c2 - t) / (c2 - c1))
            return chi * np.sin(x * t) / (t * np.log(1.0 / t) ** alpha)

        lo = 1e-12
        cuts = {lo, c2}
        # break panels at the cutoff ramp edges and at the sine zeros
        if lo < c1 < c2:
            cuts.add(c1)
        k = 1
        while k * np.pi / x < c2:
            z = k * np.pi / x
            if z > lo:
                cuts.add(z)
            k += 1
        cuts = sorted(cuts)
        total = sum(_gauss_segment(q, cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1))
        # neglected head (0, lo): |sin(xt)| <= xt kills the 1/t factor
        head = x * lo
        return OscillatoryIntegral(2j * total, 2.0 * head + 1e-12, True, len(cuts) - 1)

    def q(t):
        chi = smooth_step((t - C1) / (C2 - C1))
        return chi * np.sin(x * t) / (t * np.log(t) ** alpha)

    k0 = int(np.ceil(C1 * x / np.pi))
    start = C1
    partials = []
    acc = 0.0
    for k in range(k0, k0 + max_segments):
        end = k * np.pi / x
        if end <= start:
            continue
        # break at the cutoff ramp edge, then subdivide long segments
        if start < C2 < end:
            acc += _gauss_segment(q, start, C2)
            start = C2
        while end / start > 2.0:
            mid = start * 2.0
            acc += _gauss_segment(q, start, mid)
            start = mid
        acc += _gauss_segment(q, start, end)
        partials.append(acc)
        start = end
    diag = _euler_accelerate(partials)
    value = diag[-1]
    err = abs(diag[-1] - diag[-2]) if len(diag) > 1 else abs(value)
    return OscillatoryIntegral(2j * value, 2.0 * err, err * 2.0 <= 1e-6, len(partials))
