"""Compact Hankel truncations with an FFT-based fast matvec.

An order-N truncation stores only the 2N-1 distinct entries h(0)..h(2N-2) of
the symmetric matrix A[j][k] = h(j+k).  Products A u are computed by
embedding the Hankel product into a circular convolution:

    (A u)[j] = sum_k h(j+k) u[k] = (h * reverse(u))[j + N - 1],

carried out with fast Fourier transforms of length P, the next power of two
at or above 2N.  The linear convolution of h (length 2N-1) with reverse(u)
(length N) has support 0..3N-3, so circular wrap-around of size P >= 2N can
only contaminate output indices below N-1, never the window [N-1, 2N-2] that
is read.  Cost O(N log N) per product.

Each product needs three length-P work arrays: the zero-padded reversed
input, its spectrum, and the circular convolution.  HankelTruncation.
workspace() allocates them; matvec reuses a workspace passed to it, and
allocates a fresh one otherwise.  A workspace belongs to one caller at a
time: concurrent products on the same truncation each use their own.

A DiscreteTruncation only describes the truncation of a discrete spec;
expsum factorizes it at every order (build_discrete builds its entries as
the tests' dense reference).  solve_route names the route eigensolve.solve
takes for each kind of operator, and solve_bytes what that route allocates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import expsum
from .model import DiscreteSymbolSpec
from .sequences import eval_discrete_many

__all__ = [
    "HankelTruncation",
    "DiscreteTruncation",
    "ResourceLimitError",
    "DENSE_LIMIT",
    "DENSE_SOLVE_LIMIT",
    "RANGE_BLOCK",
    "solve_route",
    "lanczos_cap",
    "range_cap",
    "solve_bytes",
    "build_discrete",
    "matvec",
    "matvec_direct",
    "dense_matrix",
]

# The size policy, in matrix order.  A truncation given by its entries is
# solved densely up to DENSE_SOLVE_LIMIT and by Lanczos through the fast
# matvec above it; a discrete symbol's truncation always goes to the
# exponential-sum factorization (expsum); a dense matrix (a geometric
# Nystrom grid) goes to the randomized range finder, which gives up for
# dense eigvalsh once its basis would pass range_cap(order) columns (the
# rule is solve_route).  No dense matrix above DENSE_LIMIT is ever built:
# dense_matrix, the dense routes, the geometric Nystrom build and the CLI's
# geometric grids refuse such an order before allocating, and the CLI
# refuses a run whose solve_bytes exceed physical memory.
DENSE_SOLVE_LIMIT = 2048
DENSE_LIMIT = 8192
# Columns of each Gaussian test block the range finder draws.
RANGE_BLOCK = 64


def solve_route(order: int, kind: str) -> str:
    """The route eigensolve.solve takes for an order-N operator of this kind.

    kind is "matrix" for a dense matrix (a geometric Nystrom grid),
    "entries" for a truncation given by its entries (a HankelTruncation,
    such as a uniform grid) and "symbol" for the truncation of a discrete
    spec (a DiscreteTruncation).  The route is "expsum" for a symbol; for a
    matrix "range" (the randomized range finder) when range_cap leaves room
    for one test block and "dense" below that, that is below order 256; for
    entries "dense" up to DENSE_SOLVE_LIMIT and "lanczos" above it.  Uniform
    grids carry triangle kernels, which are not low rank, so their dense
    orders skip the range finder.
    """
    if kind == "symbol":
        return "expsum"
    if kind == "matrix":
        return "range" if range_cap(order) >= RANGE_BLOCK else "dense"
    return "dense" if order <= DENSE_SOLVE_LIMIT else "lanczos"


def lanczos_cap(order: int, k: int, basis_cap: int) -> int:
    """Basis vectors eigensolve.lanczos_extremes keeps before a thick restart.

    basis_cap, raised to the 2k + 2 that k eigenvalues per end need, and
    never above the order.
    """
    return min(order, max(basis_cap, 2 * k + 2))


def range_cap(order: int) -> int:
    """Basis columns the range finder may hold before it falls back to dense.

    A quarter of the order: a basis much wider than that costs more than
    the dense eigvalsh it would replace.
    """
    return order // 4


def solve_bytes(order: int, kind: str, k: int, basis_cap: int, spec=None) -> int:
    """Bytes eigensolve.solve allocates for an order-N operator, by arithmetic.

    On the dense route (see solve_route): the matrix and the copy eigvalsh
    factors, 8 N^2 bytes each.  On the range route: the matrix, and the
    larger of that copy, made only on fallback once the rest is freed, and
    what the range finder holds before it: the basis and its product with
    the matrix, range_cap(N) rows of N floats each, the Rayleigh quotient
    and the copy eigvalsh factors, and four blocks of RANGE_BLOCK rows (the
    test block, its product, a projection and a QR copy).  On the expsum
    route: expsum.solve_bytes of the spec, which grows with log N only.  On
    the Lanczos route: the 2N - 1 entries and their FFT image, one matvec
    workspace, and the cap + 1 basis rows of N floats that lanczos_extremes
    allocates at once.
    """
    route = solve_route(order, kind)
    if route == "dense":
        return 2 * 8 * order * order
    if route == "range":
        cap = range_cap(order)
        finder = 8 * (2 * order * cap + 2 * cap * cap + 4 * RANGE_BLOCK * order)
        return 8 * order * order + max(8 * order * order, finder)
    if route == "expsum":
        return expsum.solve_bytes(spec, order)
    P = _next_pow2(2 * order)
    spectrum = 16 * (P // 2 + 1)
    entries = 8 * (2 * order - 1) + spectrum
    workspace = 8 * P + spectrum + 8 * P
    return entries + workspace + 8 * (lanczos_cap(order, k, basis_cap) + 1) * order


class ResourceLimitError(RuntimeError):
    """Requested dense materialization exceeds the configured limit."""


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


@dataclass(frozen=True, eq=False)
class HankelTruncation:
    """Order-N Hankel truncation, immutable after construction.

    The fast-transform image of the entries is precomputed once here and
    only read afterwards.  The instance holds no matvec scratch: each
    caller owns the workspace() it passes to matvec, so products on the
    same instance are safe to run concurrently as long as no workspace is
    shared between threads.
    """

    order: int
    entries: np.ndarray
    _embed: int = field(init=False, repr=False)
    _fft_entries: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be positive, got {self.order}")
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 1 or len(entries) != 2 * self.order - 1:
            raise ValueError(
                f"entries must be a flat array of length 2N-1 = {2 * self.order - 1}, "
                f"got shape {entries.shape}"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        embed = _next_pow2(2 * self.order)
        object.__setattr__(self, "_embed", embed)
        object.__setattr__(self, "_fft_entries", np.fft.rfft(entries, n=embed))

    def workspace(self):
        """Fresh matvec scratch: (padded input, spectrum, convolution).

        The padded input must stay zero beyond the first N entries; matvec
        writes only those.
        """
        P = self._embed
        return np.zeros(P), np.empty(P // 2 + 1, dtype=complex), np.empty(P)


@dataclass(frozen=True)
class DiscreteTruncation:
    """Order-N truncation of a discrete symbol, described by its spec.

    Nothing is built here: eigensolve.solve factorizes the symbol by
    expsum, whose cost grows with log N only.
    """

    spec: DiscreteSymbolSpec
    order: int

    def __post_init__(self):
        if self.order < 2:
            raise ValueError(f"truncation order must be at least 2, got {self.order}")


def build_discrete(spec: DiscreteSymbolSpec, N: int) -> HankelTruncation:
    """Truncation of the discrete-symbol Hankel matrix to order N >= 2 (a test reference)."""
    if N < 2:
        raise ValueError(f"truncation order must be at least 2, got {N}")
    entries = eval_discrete_many(spec, np.arange(2 * N - 1))
    return HankelTruncation(N, entries)


def matvec(H: HankelTruncation, u, out=None, workspace=None) -> np.ndarray:
    """Fast product A u through the circulant embedding.

    The product is written to `out` when given (a float array of length N;
    it may be u itself) and returned.  `workspace` is a tuple from
    H.workspace(); passing the same one to repeated calls saves three
    length-P allocations per call.
    """
    u = np.asarray(u, dtype=float)
    N = H.order
    if u.shape != (N,):
        raise ValueError(f"expected vector of length {N}, got shape {u.shape}")
    pad, fu, conv = H.workspace() if workspace is None else workspace
    if out is None:
        out = np.empty(N)
    pad[:N] = u[::-1]
    np.fft.rfft(pad, out=fu)
    fu *= H._fft_entries
    np.fft.irfft(fu, n=H._embed, out=conv)
    out[:] = conv[N - 1 : 2 * N - 1]
    return out


def matvec_direct(H: HankelTruncation, u) -> np.ndarray:
    """Reference double-loop product, row by row; O(N^2)."""
    u = np.asarray(u, dtype=float)
    N = H.order
    if u.shape != (N,):
        raise ValueError(f"expected vector of length {N}, got shape {u.shape}")
    out = np.empty(N)
    for j in range(N):
        out[j] = np.dot(H.entries[j : j + N], u)
    return out


def dense_matrix(H: HankelTruncation) -> np.ndarray:
    """Materialize the full symmetric matrix; refused above DENSE_LIMIT."""
    if H.order > DENSE_LIMIT:
        raise ResourceLimitError(
            f"order {H.order} exceeds the dense materialization limit {DENSE_LIMIT}"
        )
    # Row j of the window view is entries[j : j + N], so A[j, k] = h(j + k).
    rows = sliding_window_view(H.entries, H.order)
    return rows.copy()
