"""Pointwise evaluation of model sequences and kernels.

The discrete sequence and the continuous kernel defined in `model` are
evaluated here exactly, with smooth cutoffs built from the classic bump
construction, so the asymptotic error terms are identically zero in the
regions the theory constrains.  The kernel's cutoffs chi0 and chi_inf are
smooth_step over the bands of spec.cutoffs (see ContinuousKernelSpec).
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
    with np.errstate(over="ignore"):
        ex = np.exp(-1.0 / xm)
        e1x = np.exp(-1.0 / (1.0 - xm))
    out[mid] = ex / (ex + e1x)
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


def eval_kernel_many(spec: ContinuousKernelSpec, t) -> np.ndarray:
    """Vectorized kernel h(t) over a positive array of points."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("kernel argument t must be positive")
    c1, c2, C1, C2 = spec.cutoffs
    out = np.zeros(t.shape, dtype=float)

    if spec.b_zero != 0.0:
        # q0 support is (0, c2); log(1/t) > 0 there.
        mask = t < c2
        ts = t[mask]
        q0 = smooth_step((c2 - ts) / (c2 - c1)) / (ts * np.log(1.0 / ts) ** spec.alpha)
        out[mask] += spec.b_zero * q0

    tail_needed = spec.b_inf != 0.0 or spec.oscillations
    if tail_needed:
        # q_inf support is (C1, infinity); log t > 0 there.
        mask = t > C1
        ts = t[mask]
        qinf = smooth_step((ts - C1) / (C2 - C1)) / (ts * np.log(ts) ** spec.alpha)
        amp = np.full(ts.shape, spec.b_inf, dtype=float)
        for osc in spec.oscillations:
            amp += 2.0 * osc.b * np.cos(osc.rho * ts - osc.psi)
        out[mask] += amp * qinf

    for sing in spec.local_singularities:
        mask = t <= sing.t0
        out[mask] += sing.coeff * (sing.t0 - t[mask]) ** sing.m

    return out
