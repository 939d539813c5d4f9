"""Nystrom discretization of integral Hankel operators on the positive half-line.

Uniform midpoint grids keep the Hankel structure exactly: with step w and
nodes t_i = (i + 1/2) w the node sums t_i + t_j = (i + j + 1) w depend on
i + j only, so the weighted kernel matrix w * h((i+j+1) w) is a Hankel
truncation, which Lanczos solves through the FFT fast matvec at every order
physical memory can hold (hankel_core.require_memory).  Geometric
grids resolve the t -> 0 logarithmic singularity instead; they produce a
dense symmetric matrix with the node weights split symmetrically.  Its
singular values decay rapidly, so eigensolve.solve takes it to the
randomized range finder, which holds a basis of a few hundred columns in
place of the M^3 dense eigendecomposition; building the matrix still costs
M^2 / 2 kernel values and 8 M^2 bytes, refused beforehand when physical
memory cannot hold them (hankel_core.require_memory).  Its row blocks are
evaluated in place by a concurrent.futures thread pool, one thread per CPU;
they write disjoint parts of the matrix, so the result does not depend on
the thread count.

The domain truncation helper bounds the neglected tail of an oscillating
kernel by integration by parts (one oscillation period costs 2 q(T) / rho),
because for slowly decaying tails the absolute mass integral can diverge
while the oscillatory integral still converges.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .analysis import FitParams
from .eigensolve import SolverParams, solve
from .hankel_core import HankelTruncation, require_memory
from .model import ContinuousKernelSpec, FieldError, UnsupportedCombinationError, require_finite
from .sequences import eval_kernel_many

__all__ = [
    "GridSpec",
    "geometric_nodes",
    "build_uniform",
    "build_graded",
    "build_from_grid",
    "tail_bound",
    "suggest_domain",
    "ConvergenceReport",
    "lanczos_request",
    "convergence_report",
]

GRID_KINDS = ("uniform", "geometric")
MIN_POINTS = 16
# Rows of the geometric Nystrom matrix evaluated per kernel call.
_GRADED_ROWS = 128
# Bytes a build thread holds per point of its row block, at most: the node
# sums, the evaluator's scratch and masks, and its arrays over a cutoff band.
# Measured: 34 with an oscillating tail, 53 when the block lies in a band.
_SCRATCH_PER_POINT = 64


@dataclass(frozen=True)
class GridSpec:
    """Quadrature grid: uniform on [0, t_max] or geometric on [t_min, t_max].

    Uniform grids ignore t_min (the midpoint rule starts at step/2).
    """

    kind: str
    t_min: float
    t_max: float
    points: int

    def __post_init__(self):
        if self.kind not in GRID_KINDS:
            raise FieldError("kind", f"grid kind must be one of {GRID_KINDS}, got {self.kind!r}")
        require_finite(self, "t_min", "t_max")
        if not (0.0 < self.t_min < self.t_max):
            raise FieldError(
                "t_max" if self.t_min > 0.0 else "t_min",
                f"need 0 < t_min < t_max, got t_min={self.t_min}, t_max={self.t_max}",
            )
        if self.points < MIN_POINTS:
            raise FieldError("points", f"need at least {MIN_POINTS} points, got {self.points}")


def geometric_nodes(grid: GridSpec):
    """Log-midpoint nodes and weights for a geometric grid.

    Nodes are midpoints in the log domain, t_i = t_min * r^(i+1/2) with
    r = (t_max/t_min)^(1/M); the weight of node t_i is t_i * log(r), the
    image of the midpoint rule under t = e^x.
    """
    if grid.kind != "geometric":
        raise ValueError(f"expected a geometric grid, got kind={grid.kind!r}")
    M = grid.points
    step = math.log(grid.t_max / grid.t_min) / M
    x = math.log(grid.t_min) + step * (np.arange(M) + 0.5)
    t = np.exp(x)
    w = t * step
    return t, w


def _kernel_values(kernel, t: np.ndarray, out=None) -> np.ndarray:
    """Kernel evaluation seam: a ContinuousKernelSpec or a plain callable h(t).

    With out, the values are written there and out is returned.  A callable
    must return one value per point of t.
    """
    if isinstance(kernel, ContinuousKernelSpec):
        return eval_kernel_many(kernel, t, out=out)
    if not callable(kernel):
        raise TypeError(f"expected a ContinuousKernelSpec or a callable kernel, got {type(kernel)}")
    values = np.asarray(kernel(t), dtype=float)
    if values.shape != t.shape:
        raise ValueError(f"the kernel returned shape {values.shape} for points of shape {t.shape}")
    if out is None:
        return values
    out[...] = values
    return out


def build_uniform(spec, T: float, M: int) -> HankelTruncation:
    """Midpoint Nystrom matrix on [0, T], returned as a Hankel truncation.

    Entries g(k) = w * h((k+1) w) with w = T/M; eigenvalues approximate
    those of the integral operator with kernel h(t+s).  `spec` is a
    ContinuousKernelSpec or any vectorized callable h(t) on t > 0.
    """
    if isinstance(spec, ContinuousKernelSpec) and spec.b_zero != 0.0:
        raise UnsupportedCombinationError(
            "uniform grids cannot resolve the t -> 0 singularity of a kernel "
            "with b_zero != 0; use build_graded with a geometric grid"
        )
    if T <= 0.0:
        raise ValueError(f"domain length T must be positive, got {T}")
    if M < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} points, got {M}")
    w = T / M
    k = np.arange(2 * M - 1)
    entries = w * _kernel_values(spec, (k + 1.0) * w)
    return HankelTruncation(M, entries)


def build_graded(spec, grid: GridSpec) -> np.ndarray:
    """Symmetrized Nystrom matrix sqrt(w_i w_j) h(t_i + t_j) on a geometric grid.

    `spec` is a ContinuousKernelSpec or any vectorized, elementwise callable
    h(t); it is called on 2-D blocks of node sums.  Row blocks are built by
    a ThreadPoolExecutor of _workers(M) threads; an exception raised in any
    block reaches the caller once every thread has stopped.  Memory: the
    M x M result plus, per thread, at most _SCRATCH_PER_POINT bytes for each
    point of a _GRADED_ROWS x M block; from M = 1024 on, all threads
    together stay within a second 8 M^2 bytes.
    """
    # Imported here: concurrent.futures costs about 8 ms at every CLI start.
    from concurrent.futures import ThreadPoolExecutor

    if grid.kind != "geometric":
        raise ValueError(f"build_graded needs a geometric grid, got kind={grid.kind!r}")
    M = grid.points
    require_memory(8 * M * M, f"a {M}-point geometric grid")
    t, w = geometric_nodes(grid)
    sw = np.sqrt(w)
    K = np.empty((M, M))

    # Evaluate the upper triangle one row block at a time, straight into K,
    # and mirror it, so the kernel's temporaries scale with the block, not
    # with M^2.  Node sums and weight products commute, so the result is
    # bitwise symmetric.  Each block writes its own rows right of the
    # diagonal and its own columns below the block, so blocks run on
    # separate threads in any order and give the same matrix.
    def fill(i):
        rows = slice(i, min(i + _GRADED_ROWS, M))
        block = K[rows, i:]
        _kernel_values(spec, np.add.outer(t[rows], t[i:]), out=block)
        block *= np.multiply.outer(sw[rows], sw[i:])
        # A contiguous copy first: numpy's own copy of a source that shares
        # K's buffer is taken in the transposed order, at twice the cost.
        K[rows.stop :, rows] = block[:, rows.stop - i :].copy().T

    # The with block joins every thread; reading map's results re-raises
    # the first failing block's exception and cancels the blocks not yet
    # started.
    with ThreadPoolExecutor(_workers(M)) as pool:
        list(pool.map(fill, range(0, M, _GRADED_ROWS)))
    return K


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _workers(M: int) -> int:
    """Threads that build an M-point geometric matrix.

    One per CPU and at most one per row block, and no more than fit their
    scratch into 8 M^2 bytes, the second matrix solve_bytes counts for the
    solve that follows the build.
    """
    blocks = -(-M // _GRADED_ROWS)
    fit = 8 * M // (_SCRATCH_PER_POINT * _GRADED_ROWS)
    return max(1, min(_cpu_count(), blocks, fit))


def build_from_grid(spec, grid: GridSpec):
    """Dispatch on grid kind: HankelTruncation (uniform) or dense matrix."""
    if grid.kind == "uniform":
        return build_uniform(spec, grid.t_max, grid.points)
    return build_graded(spec, grid)


def tail_bound(spec: ContinuousKernelSpec, T: float) -> float:
    """Upper bound for the neglected tail of the kernel beyond T.

    Oscillating terms are bounded by integration by parts: one factor
    2 q(T) / rho per oscillation, q(T) = 1/(T log(T)^alpha).  The
    non-oscillating tail b_inf has absolute mass log(T)^(1-alpha)/(alpha-1),
    finite only for alpha > 1.
    """
    C2 = spec.cutoffs[3]
    if T <= max(C2, math.e):
        raise ValueError(f"tail bound needs T beyond the tail cutoff, got {T}")
    logT = math.log(T)
    q_T = 1.0 / (T * logT**spec.alpha)
    total = 0.0
    for osc in spec.oscillations:
        total += 2.0 * abs(osc.b) * 2.0 * q_T / osc.rho
    if spec.b_inf != 0.0:
        if spec.alpha <= 1.0:
            raise UnsupportedCombinationError(
                "the non-oscillating tail has divergent absolute mass for "
                "alpha <= 1; no finite truncation bound exists"
            )
        total += abs(spec.b_inf) * logT ** (1.0 - spec.alpha) / (spec.alpha - 1.0)
    return total


def suggest_domain(
    spec: ContinuousKernelSpec,
    eigen_scale: float,
    target_ratio: float = 1e-4,
    T_max: float = 1e12,
):
    """Smallest domain length T with tail_bound(T) <= target_ratio * eigen_scale.

    eigen_scale should be the size of the smallest eigenvalue the caller
    wants to trust (for a window ending at n, roughly the predicted
    lambda_n).  Returns (T, report) where the report states the bound
    actually achieved.
    """
    if eigen_scale <= 0.0:
        raise ValueError(f"eigen_scale must be positive, got {eigen_scale}")
    if not (0.0 < target_ratio < 1.0):
        raise ValueError(f"target_ratio must be in (0, 1), got {target_ratio}")
    C2 = spec.cutoffs[3]
    if not spec.oscillations and spec.b_inf == 0.0:
        t_hi = max(C2, *(s.t0 for s in spec.local_singularities), 0.0)
        T = max(2.0 * t_hi, 8.0)
        return T, {"bound": 0.0, "target": target_ratio * eigen_scale, "T": T}
    target = target_ratio * eigen_scale
    lo = max(C2, math.e) * 1.01
    if tail_bound(spec, T_max) > target:
        raise UnsupportedCombinationError(
            f"tail bound {tail_bound(spec, T_max):.3e} still exceeds target "
            f"{target:.3e} at T_max={T_max:g}"
        )
    hi = T_max
    if tail_bound(spec, lo) <= target:
        hi = lo
    else:
        while hi / lo > 1.0 + 1e-9:
            mid = math.sqrt(lo * hi)
            if tail_bound(spec, mid) <= target:
                hi = mid
            else:
                lo = mid
    return hi, {"bound": tail_bound(spec, hi), "target": target, "T": hi}


@dataclass
class ConvergenceReport:
    """Eigenvalue tables per grid and relative changes between refinements.

    converged[i] is the solver's convergence flag on grid i; the tables of
    an unconverged grid hold only its converged prefixes.
    """

    labels: list
    tables_plus: list
    tables_minus: list
    window: tuple
    changes: list
    improving: bool
    converged: list


def lanczos_request(action: str, k: int, window) -> int:
    """Eigenvalues per end a uniform grid's Lanczos solve asks for, by action.

    spectrum fits the window (n_min, n_max): k, and at least n_max.  verify
    tabulates it on every grid: 2 n_max, at least 16.
    """
    if action == "verify":
        return max(2 * window[1], 16)
    return max(k, window[1])


def convergence_report(
    spec: ContinuousKernelSpec,
    grids,
    window=(1, 8),
    params: SolverParams = SolverParams(),
) -> ConvergenceReport:
    """Tabulate lambda_n^+- across grids and their successive relative changes.

    Each grid is solved once through eigensolve.solve with the knobs of
    params: a uniform grid by Lanczos (lanczos_request), a geometric grid by
    the range finder.

    The change between two grids is the max over the window (clipped to the
    eigenvalues available in both) and over both sign channels of the
    relative difference; an eigenvalue present on one grid but absent on
    the other counts as a change of 1.
    """
    grids = list(grids)
    if len(grids) < 2:
        raise ValueError(f"need at least 2 grids to compare, got {len(grids)}")
    n_lo, n_hi = FitParams(window).window

    labels, tp, tm, converged = [], [], [], []
    k = lanczos_request("verify", params.k, (n_lo, n_hi))
    for g in grids:
        S = solve(build_from_grid(spec, g), params, k=k)
        labels.append(f"{g.kind} M={g.points} [{g.t_min:g},{g.t_max:g}]")
        tp.append(np.asarray(S.lambda_plus[:n_hi]))
        tm.append(np.asarray(S.lambda_minus[:n_hi]))
        converged.append(S.converged)

    def channel_change(a, b):
        hi = min(n_hi, max(len(a), len(b)))
        if hi < n_lo:
            return 0.0
        worst = 0.0
        for n in range(n_lo, hi + 1):
            va = a[n - 1] if n <= len(a) else None
            vb = b[n - 1] if n <= len(b) else None
            if va is None or vb is None:
                worst = max(worst, 1.0)
            else:
                worst = max(worst, abs(va - vb) / max(abs(va), abs(vb)))
        return worst

    changes = []
    for i in range(len(grids) - 1):
        changes.append(
            max(
                channel_change(tp[i], tp[i + 1]),
                channel_change(tm[i], tm[i + 1]),
            )
        )
    improving = all(
        changes[i + 1] <= changes[i] for i in range(len(changes) - 1)
    )
    return ConvergenceReport(
        labels=labels,
        tables_plus=tp,
        tables_minus=tm,
        window=(n_lo, n_hi),
        changes=changes,
        improving=improving,
        converged=converged,
    )
