"""Log-singular symbols on the unit circle and their Fourier behavior.

The symbols carry polynomial modulations around theta = 0, and their
Fourier coefficients decay like b / (j log(j)^alpha).  This module
evaluates and samples them, gives the closed-form coefficient b, and
computes normalized Fourier coefficients from uniform samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import FieldError, require_finite
from .sequences import smooth_step

__all__ = [
    "AsLogSpec",
    "eval_aslog",
    "sample_aslog",
    "sample_bytes",
    "aslog_coefficient",
    "fourier_coefficients",
]

MAX_POLY_DEGREE = 4
DEFAULT_HALF_WIDTHS = (0.25, 0.5)


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
            raise FieldError("alpha", f"alpha must be positive, got {self.alpha}")
        for name in ("v0", "v1", "u0", "u1"):
            for side in ("plus", "minus"):
                key = f"{name}_{side}"
                poly = tuple(complex(c) for c in getattr(self, key))
                if len(poly) > MAX_POLY_DEGREE + 1:
                    raise FieldError(
                        key, f"polynomial degree is capped at {MAX_POLY_DEGREE}, "
                        f"got {len(poly)} coefficients",
                    )
                object.__setattr__(self, key, poly)
                require_finite(self, key)
        c1, c2 = self.cutoffs
        if not (0.0 < c1 < c2 < 1.0):
            raise FieldError(
                "cutoffs", f"cutoff half-widths must satisfy 0 < c1 < c2 < 1, got {self.cutoffs}"
            )
        object.__setattr__(self, "cutoffs", (float(c1), float(c2)))
        if self.v0_plus[0] != self.v0_minus[0]:
            raise FieldError(
                "v0_minus", f"v0 must be single-valued at 0: v0_plus(0)={self.v0_plus[0]} "
                f"!= v0_minus(0)={self.v0_minus[0]}",
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
                    raise FieldError(
                        f"{name}_{side}", f"-log|theta| + {name}_{side} leaves the right "
                        f"half-plane on the cutoff support",
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


def eval_aslog(spec: AsLogSpec, theta):
    """Evaluate the log-singular symbol; theta = 0 is a domain error.

    A scalar theta gives a complex number, an array theta an array.
    """
    scalar = np.ndim(theta) == 0
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if np.any(theta_arr == 0.0):
        raise ValueError("the symbol has a logarithmic singularity at theta = 0")
    c1, c2 = spec.cutoffs
    out = np.zeros(theta_arr.shape, dtype=complex)
    absq = np.abs(theta_arr)
    chi = smooth_step((c2 - absq) / (c2 - c1))
    live = chi > 0.0
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
    return complex(out[0]) if scalar else out


def sample_aslog(spec: AsLogSpec, samples: int):
    """Uniform circle samples for FFT use; needs alpha > 1.

    Sample k sits at theta_k = 2 pi k / samples wrapped to (-pi, pi].  The
    k = 0 sample is assigned the limit value 0, which is the correct limit
    only when alpha > 1 (the exponent 1 - alpha is then negative).

    The symbol is 0 for |theta| >= c2, so eval_aslog runs only on the two
    windows k in [1, reach] and [samples - reach, samples), reach =
    floor(c2 samples / (2 pi)) + 1, one window at a time.  Past them
    |theta_k| exceeds c2 by about 2 pi / samples or more, far more than the
    rounding of theta_k, so smooth_step's argument is negative and the
    sample 0 on the full grid as well.  A window's theta_k is the full
    grid's expression and eval_aslog works point by point, so every sample
    is the full grid's bit for bit.
    """
    if spec.alpha <= 1.0:
        raise ValueError(
            f"uniform sampling through theta=0 needs alpha > 1 for a finite "
            f"limit, got alpha={spec.alpha}"
        )
    if samples < 2 or samples & (samples - 1):
        raise ValueError(f"sample count must be a power of two, got {samples}")
    reach = min(int(spec.cutoffs[1] * samples / (2.0 * np.pi)) + 1, samples // 2)
    out = np.zeros(samples, dtype=complex)
    for lo, hi in ((1, reach + 1), (max(samples - reach, reach + 1), samples)):
        theta = 2.0 * np.pi * np.arange(lo, hi) / samples
        theta = np.where(theta > np.pi, theta - 2.0 * np.pi, theta)
        out[lo:hi] = eval_aslog(spec, theta)
    return out


def sample_bytes(samples: int) -> int:
    """Bytes the symbol action holds at its peak, by arithmetic.

    Sampling holds the complex result (16 bytes a sample) and the evaluation
    of one window, under 1/(2 pi) of the samples since c2 < 1.  eval_aslog
    holds 155 bytes over each point of it at its peak: the angles, their
    moduli and logarithms, the cutoff, three masks, the result and six
    complex arrays of one term.  That is under 40.7 in all.  The transform
    overwrites the samples in place (16) and holds pocketfft's plan and work
    buffer, one complex array each (32): 48.  56 bytes leave 8 a sample for
    fixed objects.  The rows the CLI dumps to symbol.csv are counted where
    it builds them.
    """
    return 56 * samples


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


def fourier_coefficients(samples, out=None) -> np.ndarray:
    """DFT normalized so that samples of mu^j give coefficient 1 at index j.

    out, if given, is a complex array of the samples' length that receives
    the coefficients and is returned; it may be samples itself, which are
    then transformed in place.
    """
    samples = np.asarray(samples, dtype=complex)
    n = len(samples)
    if n < 2 or n & (n - 1):
        raise ValueError(f"sample count must be a power of two, got {n}")
    out = np.fft.fft(samples, out=out)
    out /= n
    return out

