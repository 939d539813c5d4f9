"""Pointwise evaluation of model sequences and kernels.

The discrete sequence and the continuous kernel defined in `model` are
evaluated here exactly, with smooth cutoffs built from the classic bump
construction, so the asymptotic error terms are identically zero in the
regions the theory constrains.  The kernel's cutoffs chi0 and chi_inf are
smooth_step over the bands of spec.cutoffs (see ContinuousKernelSpec).
The kernel is evaluated in place, into an output array that may be a view
of a larger matrix, with smooth_step called on the cutoff bands only.
"""

from __future__ import annotations

import numpy as np

from .model import ContinuousKernelSpec, DiscreteSymbolSpec

__all__ = [
    "smooth_step",
    "eval_discrete_many",
    "eval_kernel_many",
]


def smooth_step(x):
    """C-infinity step: exactly 0 for x <= 0, exactly 1 for x >= 1, monotone between.

    s(x) = e(x) / (e(x) + e(1-x)) with e(x) = exp(-1/x) for x > 0, else 0;
    all derivatives of e vanish at 0.  The bumps are evaluated on the open
    band 0 < x < 1 only (and at NaN, which stays NaN).
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    lo = x <= 0.0
    hi = x >= 1.0
    mid = ~(lo | hi)
    out[lo] = 0.0
    out[hi] = 1.0
    xm = x[mid]
    # exp(-1/y) underflows to 0 for y near 0, where -1/y may overflow to -inf.
    # In place, so the band holds two arrays of its size at a time.
    with np.errstate(over="ignore"):
        ex = np.divide(-1.0, xm)
        np.exp(ex, out=ex)
        e1x = np.subtract(1.0, xm, out=xm)
        np.divide(-1.0, e1x, out=e1x)
        np.exp(e1x, out=e1x)
    e1x += ex
    out[mid] = np.divide(ex, e1x, out=ex)
    return float(out[0]) if scalar else out


def eval_discrete_many(spec: DiscreteSymbolSpec, j) -> np.ndarray:
    """Vectorized h(j) over an integer array. h(0) = h(1) = 0 exactly."""
    j = np.asarray(j)
    if np.any(j < 0):
        raise ValueError("sequence index j must be nonnegative")
    jf = j.astype(float)
    out = np.zeros(j.shape, dtype=float)
    big = j >= 2
    if not np.any(big):
        return out
    jb = jf[big]
    logj = np.log(jb)
    q = 1.0 / (jb * logj**spec.alpha)
    amp = np.full(jb.shape, spec.b_plus1, dtype=float)
    if spec.b_minus1 != 0.0:
        amp += spec.b_minus1 * np.where(j[big] % 2 == 0, 1.0, -1.0)
    for osc in spec.oscillations:
        amp += 2.0 * osc.b * np.cos(osc.phi * jb - osc.psi)
    val = q * amp
    if spec.perturbation is not None:
        pert = spec.perturbation
        val += pert.scale / (jb * logj ** (spec.alpha + pert.beta))
    out[big] = val
    return out


def eval_kernel_many(spec: ContinuousKernelSpec, t, out=None) -> np.ndarray:
    """Vectorized kernel h(t) over a positive array of points, of any shape.

    out, if given, is a float array of t's shape, possibly a strided view,
    that receives h(t) and is returned.  Each term is evaluated by ufuncs
    with where= its support mask, into one scratch array, and added into out
    the same way: nothing is gathered or scattered except the transition
    bands (c1, c2) and (C1, C2), the only points where smooth_step is called.
    Everywhere else on a support the cutoff is exactly 1, so the term is
    1.0 / d where a band point's is smooth_step(x) / d.  Every point sees
    the float operations of the term-by-term formula in the same order, so
    the result does not depend on the shape of t or on the other points.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("kernel argument t must be positive")
    if out is None:
        out = np.zeros(t.shape)
    elif out.shape != t.shape:
        raise ValueError(f"out has shape {out.shape}, the points {t.shape}")
    else:
        out.fill(0.0)
    c1, c2, C1, C2 = spec.cutoffs
    q = np.empty(t.shape)

    if spec.b_zero != 0.0:
        # q0 support is (0, c2); log(1/t) > 0 there.
        mask = t < c2
        band = mask & (t > c1)
        x = t[band]
        np.subtract(c2, x, out=x)
        x /= c2 - c1
        np.divide(1.0, t, out=q, where=mask)
        np.log(q, out=q, where=mask)
        _over_log_power(q, t, mask, band, smooth_step(x), spec.alpha)
        np.multiply(spec.b_zero, q, out=q, where=mask)
        np.add(out, q, out=out, where=mask)

    if spec.b_inf != 0.0 or spec.oscillations:
        # q_inf support is (C1, infinity); log t > 0 there.
        mask = t > C1
        band = mask & (t < C2)
        x = t[band]
        x -= C1
        x /= C2 - C1
        np.log(t, out=q, where=mask)
        _over_log_power(q, t, mask, band, smooth_step(x), spec.alpha)
        if spec.oscillations:
            amp = np.full(t.shape, spec.b_inf)
            wave = np.empty(t.shape)
            for osc in spec.oscillations:
                np.multiply(osc.rho, t, out=wave, where=mask)
                np.subtract(wave, osc.psi, out=wave, where=mask)
                np.cos(wave, out=wave, where=mask)
                np.multiply(2.0 * osc.b, wave, out=wave, where=mask)
                np.add(amp, wave, out=amp, where=mask)
            np.multiply(amp, q, out=q, where=mask)
        else:
            np.multiply(spec.b_inf, q, out=q, where=mask)
        np.add(out, q, out=out, where=mask)

    for sing in spec.local_singularities:
        mask = t <= sing.t0
        np.subtract(sing.t0, t, out=q, where=mask)
        np.power(q, sing.m, out=q, where=mask)
        np.multiply(sing.coeff, q, out=q, where=mask)
        np.add(out, q, out=out, where=mask)

    return out


def _over_log_power(q, t, mask, band, chi, alpha) -> None:
    """q <- chi / (t * q**alpha) where mask holds, in place.

    q holds the log factor of the term.  chi holds the cutoff on the band,
    in the band's order; off the band the cutoff is exactly 1.
    """
    np.power(q, alpha, out=q, where=mask)
    np.multiply(t, q, out=q, where=mask)
    chi /= q[band]
    np.divide(1.0, q, out=q, where=mask)
    q[band] = chi
