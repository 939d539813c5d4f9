"""Discrete truncations of any order by exponential-sum factorization.

For x > 1 the decay profile q_a(x) = 1 / (x log^a x) is completely monotone:

    q_a(x) = int_0^inf e^{-x s} g_a(s) ds,
    g_a(s) = Gamma(a)^{-1} int_0^inf u^{a-1} s^u / Gamma(1 + u) du > 0,

which follows from log^{-a} x = Gamma(a)^{-1} int u^{a-1} x^{-u} du and
x^{-1-u} = Gamma(1+u)^{-1} int s^u e^{-x s} ds.  The module has three parts.

Nodes.  The trapezoid rule in log s, step _STEP, over [e^-37 / N, 1.5] gives
q_a(x) = sum_m w_m e^{-s_m x} with w_m = _STEP s_m g_a(s_m), to a few 1e-15
relative for 32 <= x <= 2N.  Only x >= HEAD is ever needed, which is why
s <= 1.5 suffices: e^{-1.5 HEAD} is far below rounding.

Factorization.  Every entry h(x) with x >= HEAD is then a sum over nodes and
characters e^{i phi x}: phi = 0 carries b_plus1 and the perturbation (whose
q_{a+beta} shares the nodes with its own weights), phi = pi carries
b_minus1, and each oscillation 2 b cos(phi x - psi) = 2 Re(c e^{i phi x}),
c = b e^{-i psi}, gives the pair of real columns Re and Im of
sqrt(c / |c|) e^{(-s + i phi) x}.  With the head of order HEAD kept dense
(from eval_discrete_many; up to order HEAD it is the whole matrix) and the
tail rows written as columns F,

    A = [I 0; 0 F] K [I 0; 0 F]^T,   K = [A_hh, B M; M B^T, M],

where B holds the head rows of the columns and M is diagonal, the sign of
each column: the sign of the weight for a real character, +1 for the Re
and -1 for the Im column of an oscillation (the symmetry principle: an
oscillation adds the same share to both signs of the spectrum).  The
columns are balanced (scaled by the square root of their weight), so every
entry stays bounded.  Their Gram matrix F^T F has closed-form
entries, geometric sums over the N - HEAD tail rows written with expm1; it
is eigen-truncated below _RANK_REL of its largest eigenvalue.

Spectrum.  With F^T F ~ U L U^T on the kept rank, the nonzero eigenvalues
of A are those of the order-(HEAD + rank) matrix [A_hh, B M Z; Z^T M B^T,
Z^T M Z], Z = U L^{1/2}, found by eigvalsh.

The order enters only as an exponent (through log N) and as the phases
phi (N - HEAD) of the geometric sums.  Those are reduced modulo 2 pi
exactly, taking each phi as the exact value of its double, with 2 pi to
about 106 bits; that suffices up to PHASE_ORDER_LIMIT.  Cost: about
4 (log N + 37) nodes, that many columns per real character and twice that
per oscillation, and O(columns^2) memory.  Nothing is computed at import.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .model import DiscreteSymbolSpec
from .sequences import eval_discrete_many

__all__ = [
    "HEAD",
    "PHASE_ORDER_LIMIT",
    "nodes",
    "weights",
    "solve_bytes",
    "eigenvalues",
]

# Rows and columns below HEAD form the dense head block.
HEAD = 32
# Largest order whose phases phi * n the reduction below covers; beyond 2^53
# an order is no longer an exact double, and 2 pi would need more bits.
PHASE_ORDER_LIMIT = 2**53

# Node step in log s (0.3 leaves an aliasing ripple of up to 9e-13 in the node sum),
# the smallest node e^_LOG_S_MIN / N and the largest node.
_STEP = 0.25
_LOG_S_MIN = -37.0
_S_MAX = 1.5
# Gram eigenvalues kept, relative to the largest.
_RANK_REL = 1e-15
# Quadrature of g_a in y = log u: trapezoid step and lower end of the grid;
# grid points below _Y_LO are summed in closed form from
# u^a (1 + u (log s + Euler's gamma)).  The grid ends at u = 2a + 60, where
# u^(a-1) s^u / Gamma(1 + u) has fallen by far more than e^-40 from its peak
# near u = a for every s <= 1.5.
_Y_STEP = 0.1
_Y_LO = -30.0
_EULER_GAMMA = 0.5772156649015329
# pi - math.pi rounded to a double, so math.pi + _PI_TAIL is pi to ~106 bits.
_PI_TAIL = 1.2246467991473532e-16


def nodes(N: int) -> np.ndarray:
    """log s_m of the nodes for order N (none up to HEAD), descending from log 1.5 by _STEP."""
    if N <= HEAD:
        return np.empty(0)
    lo = _LOG_S_MIN - math.log(N)
    top = math.log(_S_MAX)
    return top - _STEP * np.arange(int((top - lo) / _STEP) + 1)


def _quadrature_points(alpha: float) -> int:
    """Points of the grid in y = log u, from _Y_LO to log(2 alpha + 60)."""
    return int((math.log(2.0 * alpha + 60.0) - _Y_LO) / _Y_STEP) + 1


def weights(log_s, alpha: float) -> np.ndarray:
    """Trapezoid weights _STEP s g_alpha(s) at the nodes log_s."""
    log_s = np.asarray(log_s, dtype=float)
    y = _Y_LO + _Y_STEP * np.arange(_quadrature_points(alpha))
    u = np.exp(y)
    # Gamma(alpha) is divided out inside the exponentials, so no factor
    # overflows at large alpha.
    lg = np.array([math.lgamma(1.0 + v) for v in u]) + math.lgamma(alpha)
    g = np.exp(alpha * y + np.outer(log_s, u) - lg).sum(axis=1)
    # The grid points _Y_LO - k _Y_STEP, k >= 1, of the same trapezoid sum.
    ra, rb = math.exp(-alpha * _Y_STEP), math.exp(-(alpha + 1.0) * _Y_STEP)
    lo = alpha * _Y_LO - math.lgamma(alpha)
    g += math.exp(lo) * ra / (1.0 - ra)
    g += (log_s + _EULER_GAMMA) * math.exp(lo + _Y_LO) * rb / (1.0 - rb)
    return _STEP * _Y_STEP * np.exp(log_s) * g


def _angle(phi: float, n: int) -> float:
    """phi * n modulo 2 pi, in [-pi, pi]; math.pi stands for pi itself."""
    if phi == 0.0:
        return 0.0
    if phi == math.pi:
        return math.pi if n % 2 else 0.0
    # Exact rationals: 2 pi = T / D and phi n / (2 pi) = a / b.
    hi, hi_den = math.pi.as_integer_ratio()
    lo, lo_den = _PI_TAIL.as_integer_ratio()
    D = max(hi_den, lo_den)  # both are powers of two
    T = 2 * (hi * (D // hi_den) + lo * (D // lo_den))
    num, den = phi.as_integer_ratio()
    a, b = num * n * D, den * T
    k = (2 * a + b) // (2 * b)  # the nearest integer to a / b
    return (a - k * b) * T / (b * D)


def _unit(phi: float, n: int) -> complex:
    """e^{i phi n}, with phi n reduced exactly."""
    angle = _angle(phi, n)
    return complex(math.cos(angle), math.sin(angle))


def _characters(spec: DiscreteSymbolSpec, log_s):
    """(phi, amplitudes, signs) of each character block of columns.

    amplitudes is a list of one (real character) or two (oscillation)
    complex arrays over the nodes: the column of amplitude a has the entry
    Re(a e^{(-s + i phi) x}) in row x.  signs is the diagonal of M over the
    block's columns.  An oscillation's amplitude carries sqrt(c / |c|),
    c = b e^{-i psi}, so that with z = e^{-s + i phi} and
    u_x = sqrt(c / |c|) z^x

        Re(c z^{x+y}) = |c| (Re u_x Re u_y - Im u_x Im u_y),

    and its Re and Im columns take the signs +1 and -1.
    """
    w = weights(log_s, spec.alpha)
    pert = spec.perturbation
    plus1, minus1, pairs = _present(spec)
    out = []
    if plus1:
        W = spec.b_plus1 * w
        if pert is not None:
            W = W + pert.scale * weights(log_s, spec.alpha + pert.beta)
        out.append((0.0, [np.sqrt(np.abs(W)).astype(complex)], np.sign(W)))
    if minus1:
        W = spec.b_minus1 * w
        out.append((math.pi, [np.sqrt(np.abs(W)).astype(complex)], np.sign(W)))
    for osc in pairs:
        c = osc.b * complex(math.cos(osc.psi), -math.sin(osc.psi))
        a = np.sqrt(2.0 * abs(c) * w) * np.sqrt(c / abs(c))
        out.append((osc.phi, [a, -1j * a], np.repeat([1.0, -1.0], len(w))))
    return out


def _present(spec: DiscreteSymbolSpec) -> tuple:
    """Whether the phi = 0 and phi = pi characters carry weight, and the oscillations that do."""
    pert = spec.perturbation
    plus1 = spec.b_plus1 != 0.0 or (pert is not None and pert.scale != 0.0)
    return plus1, spec.b_minus1 != 0.0, [o for o in spec.oscillations if o.b != 0.0]


def _cexpm1(x, y):
    """e^{x + i y} - 1, accurate for small |x + i y|."""
    return np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2 + 1j * np.exp(x) * np.sin(y)


def _gram(chars, log_s, L: int) -> np.ndarray:
    """F^T F over the L tail rows, the columns shifted to start at row HEAD.

    Re(a z^t) Re(b y^t) = (Re(a b (z y)^t) + Re(a conj(b) (z conj y)^t)) / 2,
    and sum_{t < L} r^t = expm1(L log r) / expm1(log r), with the phase of
    L log r reduced exactly.
    """
    K = len(log_s)
    s = np.exp(log_s)
    sig = np.exp(np.logaddexp.outer(log_s, log_s))  # s_m + s_n
    sig_L = np.exp(np.logaddexp.outer(log_s, log_s) + math.log(L))
    # The amplitudes of row HEAD, a e^{(-s + i phi) HEAD}, in column order.
    u = [a * (np.exp(-s * HEAD) * _unit(phi, HEAD)) for phi, amps, _ in chars for a in amps]
    first = np.cumsum([0] + [len(amps) for _, amps, _ in chars])
    G = np.empty((len(u), K, len(u), K))
    for i, j in itertools.combinations_with_replacement(range(len(chars)), 2):
        phi_a, phi_b = chars[i][0], chars[j][0]
        S = []
        for sign in (1.0, -1.0):
            theta = math.remainder(phi_a + sign * phi_b, 2.0 * math.pi)
            theta_L = math.remainder(_angle(phi_a, L) + sign * _angle(phi_b, L), 2.0 * math.pi)
            S.append(_cexpm1(-sig_L, theta_L) / _cexpm1(-sig, theta))
        for p in range(first[i], first[i + 1]):
            for q in range(first[j], first[j + 1]):
                block = 0.5 * (np.outer(u[p], u[q]) * S[0] + np.outer(u[p], u[q].conj()) * S[1]).real
                G[p, :, q] = block
                G[q, :, p] = block.T
    return G.reshape(len(u) * K, -1)


def _head_rows(chars, log_s) -> np.ndarray:
    """The rows x < HEAD of every column."""
    decay = np.exp(-np.outer(np.arange(HEAD), np.exp(log_s)))
    return np.hstack([
        (decay * np.array([_unit(phi, x) for x in range(HEAD)])[:, None] * a).real
        for phi, amps, _ in chars for a in amps
    ])


def solve_bytes(spec: DiscreteSymbolSpec, N: int) -> int:
    """Bytes eigenvalues allocates for the order-N truncation, by arithmetic.

    The Gram matrix with the eigenvectors and workspace of its eigh (five
    columns^2 arrays in all), the complex node-pair sums of one character
    pair (eight nodes^2 complex arrays), the quadrature table of the
    weights, and the reduced matrix with the copy eigvalsh factors.
    Independent of N but for log N.
    """
    K = len(nodes(N))
    plus1, minus1, pairs = _present(spec)
    cols = K * (plus1 + minus1 + 2 * len(pairs))
    quad = _quadrature_points(spec.alpha + (spec.perturbation.beta if spec.perturbation else 0.0))
    return 8 * (5 * cols * cols + 16 * K * K + 2 * K * quad + 2 * (HEAD + cols) ** 2)


def eigenvalues(spec: DiscreteSymbolSpec, N: int):
    """Eigenvalues of the order-N truncation of spec, and the route's counters.

    Returns (theta, details): theta holds the head + rank eigenvalues of the
    reduced matrix, ascending, the head of order min(HEAD, N); the other
    N - head - rank eigenvalues lie below the Gram truncation.  details
    holds the deterministic counters nodes, columns, gram_rank and
    head_order.
    """
    if spec.oscillations and N > PHASE_ORDER_LIMIT:
        raise ValueError(
            f"order {N} exceeds {PHASE_ORDER_LIMIT}: the phases phi * n of an "
            f"oscillation are reduced exactly only up to that order"
        )
    head = min(HEAD, N)
    log_s = nodes(N)
    chars = _characters(spec, log_s)
    rows = eval_discrete_many(spec, np.arange(2 * head - 1))
    A_hh = np.lib.stride_tricks.sliding_window_view(rows, head)
    cols = sum(len(signs) for _, _, signs in chars)
    rank = 0
    if cols:
        lam, U = np.linalg.eigh(_gram(chars, log_s, N - HEAD))
        keep = lam > _RANK_REL * lam[-1]
        Z = U[:, keep] * np.sqrt(lam[keep])
        rank = Z.shape[1]
        MZ = np.concatenate([signs for _, _, signs in chars])[:, None] * Z
        coupling = _head_rows(chars, log_s) @ MZ
        R = np.block([[A_hh, coupling], [coupling.T, Z.T @ MZ]])
    else:
        R = np.array(A_hh)
    theta = np.linalg.eigvalsh(R)
    return theta, {
        "nodes": len(log_s),
        "columns": cols,
        "gram_rank": rank,
        "head_order": head,
    }
