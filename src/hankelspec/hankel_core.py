"""Compact Hankel truncations with an FFT-based fast matvec.

An order-N truncation stores only the 2N-1 distinct entries h(0)..h(2N-2) of
the symmetric matrix A[j][k] = h(j+k).  Products A u are computed by
embedding the Hankel product into a circular convolution:

    (A u)[j] = sum_k h(j+k) u[k] = (h * reverse(u))[j + N - 1],

carried out with fast Fourier transforms of circulant length P, the next
power of two at or above 2N.  The linear convolution of h (length 2N-1) with
reverse(u) (length N) has support 0..3N-3, so circular wrap-around of size
P >= 2N can only contaminate output indices below N-1, never the window
[N-1, 2N-2] that is read.  Cost O(N log N) per product.

The real length-P convolution runs as one complex transform of length P/2
each way (the packing of Cooley, Lewis and Welch, J. Sound Vib. 1970).  The
padded input x is read as the P/2 complex numbers z[n] = x[2n] + i x[2n+1].
With F the length-P DFT of the entries, F0 = F[:P/2], F1 = F[P/2:] and
w_k = exp(-2 pi i k / P), the spectrum Z of z maps to the spectrum of the
packed output by

    Z'[k] = alpha[k] Z[k] + beta[k] conj(Z[-k mod P/2]),
    alpha = c a F0 + d b F1,   beta = c b F0 + d a F1,

where a = (1 - i w_k)/2 and b = (1 + i w_k)/2 unpack Z into the spectrum of
x, and c = (1 + i/w_k)/2 and d = (1 - i/w_k)/2 pack the product back.  With
t_k = 2 pi k / P the products reduce to c a = (1 - sin t_k)/2,
d b = (1 + sin t_k)/2 and c b = -d a = i cos(t_k)/2.  The inverse transform
of Z', read as P floats, is the circular convolution.  HankelTruncation
folds the unpacking and packing into alpha and beta once.

Each product needs two work arrays: the zero-padded reversed input (P
floats, also the scratch of the conjugate reversal and the target of the
inverse transform) and its spectrum (P/2 complex numbers).
circulant_embedding states P and their bytes; HankelTruncation.workspace()
allocates them; matvec reuses a workspace passed to it, and allocates a
fresh one otherwise.  A workspace belongs to one caller at a time:
concurrent products on the same truncation each use their own.

A DiscreteTruncation only describes the truncation of a discrete spec;
expsum factorizes it at every order (build_discrete builds its entries as
the tests' dense reference).

require_memory is the one size rule: every dense materialization here, in
eigensolve and in quadrature, and every run the CLI accepts, is refused
before it allocates when it needs more bytes than physical memory holds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import DiscreteSymbolSpec
from .sequences import eval_discrete_many

__all__ = [
    "HankelTruncation",
    "DiscreteTruncation",
    "circulant_embedding",
    "ResourceLimitError",
    "require_memory",
    "build_discrete",
    "matvec",
    "matvec_direct",
    "dense_matrix",
]


class ResourceLimitError(RuntimeError):
    """A job needs more bytes than the machine's physical memory holds."""


def require_memory(need: int, what: str) -> None:
    """Refuse, before it allocates, a job that needs more bytes than physical memory.

    what names the job in the message.  Where the memory size is unknown,
    nothing is refused.
    """
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if need > have:
        raise ResourceLimitError(
            f"{what} needs {need} bytes, more than the {have} bytes of physical memory"
        )


def circulant_embedding(order: int) -> tuple:
    """(P, bytes) of the fast matvec of an order-N truncation, N >= 1.

    P is the circulant length, the power of two at or above 2N.  bytes is
    what a truncation keeps beyond its entries, alpha and beta (P/2 complex
    numbers each), plus one workspace (P floats and P/2 complex numbers).
    """
    P = 1 << (2 * order - 1).bit_length()
    return P, 8 * P + 3 * 16 * (P // 2)


@dataclass(frozen=True, eq=False)
class HankelTruncation:
    """Order-N Hankel truncation, immutable after construction.

    The packed transform image of the entries (alpha and beta in the
    module docstring) is precomputed once here and only read afterwards.
    The instance holds no matvec scratch: each caller owns the workspace()
    it passes to matvec, so products on the same instance are safe to run
    concurrently as long as no workspace is shared between threads.
    """

    order: int
    entries: np.ndarray
    _embed: int = field(init=False, repr=False)
    _alpha: np.ndarray = field(init=False, repr=False)
    _beta: np.ndarray = field(init=False, repr=False)

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
        embed = circulant_embedding(self.order)[0]
        object.__setattr__(self, "_embed", embed)
        half = embed // 2
        # F[half + k] = conj(F[half - k]) for real entries, so the half
        # spectrum of rfft gives both F0 and F1.  alpha = (F0 + F1)/2 -
        # sin(t) (F0 - F1)/2 and beta = i cos(t) (F0 - F1)/2 are formed in
        # place, so the build holds few transients of length P/2.
        F = np.fft.rfft(entries, n=embed)
        beta = np.conj(F[half:0:-1])
        alpha = F[:half] + beta
        np.subtract(F[:half], beta, out=beta)
        del F
        alpha *= 0.5
        beta *= 0.5
        t = 2.0 * np.pi / embed * np.arange(half)
        alpha -= np.sin(t) * beta
        beta *= np.cos(t, out=t)
        beta *= 1j
        object.__setattr__(self, "_alpha", alpha)
        object.__setattr__(self, "_beta", beta)

    def workspace(self):
        """Fresh matvec scratch: (padded input, P floats; spectrum, P/2 complex).

        matvec overwrites both in full on every call, so a workspace carries
        nothing from one product to the next.
        """
        P = self._embed
        return np.empty(P), np.empty(P // 2, dtype=complex)


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
    """Fast product A u through the packed circulant embedding.

    The product is written to `out` when given (a float array of length N;
    it may be u itself) and returned.  `workspace` is a tuple from
    H.workspace(); passing the same one to repeated calls saves two
    allocations per call.
    """
    u = np.asarray(u, dtype=float)
    N = H.order
    if u.shape != (N,):
        raise ValueError(f"expected vector of length {N}, got shape {u.shape}")
    pad, spec = H.workspace() if workspace is None else workspace
    if out is None:
        out = np.empty(N)
    pad[:N] = u[::-1]
    pad[N:] = 0.0
    packed = pad.view(complex)
    np.fft.fft(packed, out=spec)
    # The input is consumed, so its buffer takes conj(Z[-k mod P/2]).
    np.conjugate(spec[:1], out=packed[:1])
    np.conjugate(spec[:0:-1], out=packed[1:])
    packed *= H._beta
    spec *= H._alpha
    spec += packed
    np.fft.ifft(spec, out=packed)
    out[:] = pad[N - 1 : 2 * N - 1]
    return out


def matvec_direct(H: HankelTruncation, u) -> np.ndarray:
    """Reference product by the definition, 256 rows of A at a time; O(N^2)."""
    u = np.asarray(u, dtype=float)
    N = H.order
    if u.shape != (N,):
        raise ValueError(f"expected vector of length {N}, got shape {u.shape}")
    rows = sliding_window_view(H.entries, N)  # row j of A, uncopied
    out = np.empty(N)
    for j in range(0, N, 256):
        out[j : j + 256] = rows[j : j + 256] @ u
    return out


def dense_matrix(H: HankelTruncation) -> np.ndarray:
    """The full symmetric matrix, the tests' dense reference; refused beyond physical memory."""
    require_memory(8 * H.order * H.order, f"an order-{H.order} dense matrix")
    # Row j of the window view is entries[j : j + N], so A[j, k] = h(j + k).
    rows = sliding_window_view(H.entries, H.order)
    return rows.copy()
