"""Log-singular symbols on the unit circle and their Fourier behavior.

The symbols carry polynomial modulations around theta = 0, and their
Fourier coefficients decay like b / (j log(j)^alpha).  This module
evaluates and samples them, gives the closed-form coefficient b, and
computes normalized Fourier coefficients from uniform samples: all of
them, or a window [j_lo, j_hi] whose transform, run in the samples,
holds nothing that grows with their count.
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
# Points of one eval_aslog call in sample_aslog, and twiddles of one block
# in a windowed fourier_coefficients: fixed, so their arrays do not grow
# with the sample count.
_CHUNK = 2**15


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
    floor(c2 samples / (2 pi)) + 1, on _CHUNK points at a time.  Past them
    |theta_k| exceeds c2 by about 2 pi / samples or more, far more than the
    rounding of theta_k, so smooth_step's argument is negative and the
    sample 0 on the full grid as well.  A chunk's theta_k is the full
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
        for a in range(lo, hi, _CHUNK):
            b = min(a + _CHUNK, hi)
            theta = 2.0 * np.pi * np.arange(a, b) / samples
            theta = np.where(theta > np.pi, theta - 2.0 * np.pi, theta)
            out[a:b] = eval_aslog(spec, theta)
    return out


def sample_bytes(samples: int, j_max: int) -> int:
    """Bytes a symbol action with coefficients up to j_max holds at its peak.

    The samples take 16 bytes each, and the transform runs in them.  The
    rest is a transient that does not grow with the sample count:
    - Sampling evaluates _CHUNK points at a time.  eval_aslog holds 155
      bytes over each point at its peak: the angles, their moduli and
      logarithms, the cutoff, three masks, the result and six complex arrays
      of one term.  With sample_aslog's indices and angles that is under 200.
    - A twiddle block of the window transform holds 40 bytes a twiddle: its
      integer exponent and two complex arrays.  With the sampling chunk, 256
      bytes a point of _CHUNK.
    - pocketfft holds a plan and a work buffer of the transform length L, the
      power of two above j_max.  That is 32 bytes a row when L = samples, a
      single contiguous transform.  Otherwise the batched transform also
      copies several columns at a time, 80 bytes a row in all.
    - The window's coefficients and the arithmetic of their ratios take 64
      bytes a coefficient, j_max at most.
    The rows the CLI dumps to symbol.csv are counted where it builds them.
    """
    rows = 1 << int(j_max).bit_length()
    return 16 * samples + (32 if rows == samples else 80) * rows + 64 * j_max + 256 * _CHUNK


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


def fourier_coefficients(samples, window=None, out=None) -> np.ndarray:
    """DFT normalized so that samples of mu^j give coefficient 1 at index j.

    window = (j_lo, j_hi), 0 <= j_lo <= j_hi < n, gives the coefficients
    j_lo..j_hi alone, as a new array; without it every coefficient comes
    out, bit for bit np.fft.fft(samples) / n.

    The window is read through decimation in time (Cooley and Tukey, 1965)
    in the four-step form (Bailey, 1990).  With L the power of two above
    j_hi and R = n / L, sample l R + r is entry (l, r) of an L x R array,
    and one batched length-L FFT down its columns gives Y.  Then

        c_j = (1/n) sum_r exp(-2 pi i j r / n) Y[j, r],    j < L,

    each twiddle from the exact integer j r, under n since j < L and r < R,
    built _CHUNK at a time.  R = 1 when j_hi >= n/2, and the window is then
    sliced from the length-n transform.  Its error is that of a length-n
    FFT, a few log2(n) roundings of sum |samples| / n.

    The transform runs in out, a complex array of the samples' length; it
    may be samples itself, which are then overwritten, and is a new array
    if omitted.  Without a window out receives the coefficients and is
    returned; with one it is scratch.
    """
    samples = np.asarray(samples, dtype=complex)
    n = len(samples)
    if n < 2 or n & (n - 1):
        raise ValueError(f"sample count must be a power of two, got {n}")
    j_lo, j_hi = (0, n - 1) if window is None else window
    if not 0 <= j_lo <= j_hi < n:
        raise ValueError(f"need 0 <= j_lo <= j_hi < {n}, got window {window}")
    L = 1 << int(j_hi).bit_length()
    R = n // L
    if R == 1:
        out = np.fft.fft(samples, out=out)
        out /= n
        return out if window is None else out[j_lo : j_hi + 1].copy()
    Y = np.fft.fft(
        samples.reshape(L, R), axis=0, out=None if out is None else out.reshape(L, R)
    )
    coeffs = np.zeros(j_hi - j_lo + 1, dtype=complex)
    cols = min(R, _CHUNK)
    rows = _CHUNK // cols
    for a in range(j_lo, j_hi + 1, rows):
        b = min(a + rows, j_hi + 1)
        j = np.arange(a, b)[:, None]
        for r in range(0, R, cols):
            twiddle = np.exp(-2j * np.pi / n * (j * np.arange(r, r + cols)))
            twiddle *= Y[a:b, r : r + cols]
            coeffs[a - j_lo : b - j_lo] += twiddle.sum(axis=1)
    coeffs /= n
    return coeffs
