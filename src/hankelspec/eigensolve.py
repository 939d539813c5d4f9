"""Eigensolvers and counting functions for symmetric truncations.

Four routes to the spectrum:

  * dense_spectrum: full symmetric eigendecomposition, the reference route,
    for any matrix that fits in physical memory twice over;
  * the randomized range finder: for a dense matrix of low numerical rank
    (a geometric Nystrom grid), an orthonormal basis grown as a block
    Krylov space from one Gaussian block, each block orthonormalized by
    shifted Cholesky QR (BLAS-3, with Householder QR as the fallback),
    until a fresh Gaussian block certifies that it captures the matrix to
    within the zero band, then the eigenvalues of the matrix compressed to
    that basis; it falls back to dense_spectrum when the matrix is not low
    rank;
  * expsum.eigenvalues: the exponential-sum factorization of a discrete
    symbol's truncation, whose cost grows with log N only, so it reaches
    orders far beyond any stored vector;
  * lanczos_extremes: matrix-free Lanczos with partial reorthogonalization
    (Simon 1984: a global Gram-Schmidt pass only where an estimate of the
    loss of orthogonality asks for it, and on every step after a thick
    restart or a breakdown) and thick restarts, returning converged
    eigenvalues at both spectral ends, for truncations given by their
    entries (uniform grids) at every order.

solve() dispatches once on the operator's type.  solve_bytes counts what
each route allocates; the CLI refuses a run whose count exceeds physical
memory (hankel_core.require_memory), and the dense route refuses a matrix
it cannot hold the same way, after checking it is symmetric.

All report eigenvalues as two positive, non-increasing lists: lambda_plus
for the positive end and lambda_minus for the magnitudes of the negative
end.  Eigenvalues inside the zero band |theta| <= 1e-13 * ||A|| are dropped
from the lists and counted once each in n_dropped.  One helper, _result,
builds the result of every route; the dense, range and expsum routes are
the case in which every eigenvalue has converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expsum
from .hankel_core import (
    DiscreteTruncation,
    HankelTruncation,
    circulant_embedding,
    matvec,
    require_memory,
)
from .model import FieldError

__all__ = [
    "SolverParams",
    "SpectrumResult",
    "RANGE_BLOCK",
    "lanczos_cap",
    "range_cap",
    "solve_bytes",
    "solve",
    "dense_spectrum",
    "lanczos_extremes",
    "counting",
]

# Columns of each block the range finder examines.
RANGE_BLOCK = 64

ZERO_BAND_REL = 1e-13
# A Lanczos residual within _BREAKDOWN_REL * ||A||_est is a breakdown.
_BREAKDOWN_REL = 1e-14
# Partial reorthogonalization (Simon, Math. Comp. 42, 1984): a basis whose
# vectors are orthogonal to within sqrt(eps) gives Ritz values as accurate as
# a fully orthogonal one, so the global Gram-Schmidt pass runs only when the
# estimated loss of the new vector passes that level.
_EPS = float(np.finfo(float).eps)
_SEMI_ORTHOGONAL = math.sqrt(_EPS)
ASYMMETRY_REL = 1e-12
# Tile edge of the dense symmetry check and column width of the in-place
# thick restart; both bound a transient to a small fixed number of bytes.
# The symmetry tile is small enough that its transposed reads stay in cache.
_SYMMETRY_TILE = 64
_RESTART_COLUMNS = 2048
# Lanczos steps between Ritz convergence checks while the basis is short.
_CHECK_EVERY = 8
# The range finder's Gaussian blocks come from this seed, so its results
# never depend on SolverParams.seed.  It stops once the a posteriori bound of
# Halko, Martinsson and Tropp (SIREV 2011, Lemma 4.1),
#   ||(I - Q Q^T) A|| <= 10 sqrt(2/pi) max_i ||(I - Q Q^T) A w_i||,
# which holds with probability at least 1 - 10^-RANGE_BLOCK over a Gaussian
# block w drawn independently of the basis Q, puts the part of A outside Q
# inside the zero band.
_RANGE_SEED = 0
_RANGE_BOUND = 10.0 * math.sqrt(2.0 / math.pi)
# Blocks a residual may go without a tenfold drop before the range finder
# gives up on low rank and falls back to dense.
_RANGE_STALL = 2
# The Cholesky QR of a range finder block is accepted when its rows are
# orthonormal to this tolerance; Householder QR replaces it otherwise.
_ORTHONORMAL_TOL = 1e-13


def lanczos_cap(order: int, k: int, basis_cap: int) -> int:
    """Basis vectors lanczos_extremes keeps before a thick restart.

    basis_cap, raised to 3k + 2, and never above the order: a thick restart
    keeps the k values wanted per end and at most 32 more, so the room it
    leaves for new steps grows with k.
    """
    return min(order, max(basis_cap, 3 * k + 2))


def range_cap(order: int) -> int:
    """Basis columns the range finder may hold before it falls back to dense.

    A quarter of the order: a basis much wider than that costs more than
    the dense eigvalsh it would replace.
    """
    return order // 4


def solve_bytes(order: int, kind: str, k: int, basis_cap: int, spec=None) -> int:
    """Bytes solve allocates for an order-N operator, by arithmetic.

    kind is "matrix" (a geometric grid), "entries" (a HankelTruncation) or
    "symbol" (a DiscreteTruncation).  For a matrix: the matrix, and the
    larger of the copy eigvalsh factors, made by the dense solve below order
    256 or on fallback once the rest is freed, and what the range finder
    holds before it: the basis, cap = range_cap(N) rows of N floats, the
    Rayleigh quotient and the copy eigvalsh factors, cap^2 floats each, the
    product of the newest block with the matrix, and four blocks of
    RANGE_BLOCK rows, more than any step holds at once: a Gaussian block and
    its product, or that product and the two iterates of a Cholesky QR step,
    or the product and the copy and factor of the Householder fallback; a
    Krylov block is held in the basis rows it would join, and adds nothing.
    That is 8 (N cap + 2 cap^2 + 5 RANGE_BLOCK N) bytes, at most 8 N^2 from
    N = 512 on.  For a symbol: expsum.solve_bytes of the spec, which grows
    with log N only.  For entries, solved by Lanczos: the 2N - 1 entries,
    their transform image and one matvec workspace
    (hankel_core.circulant_embedding), and what lanczos_extremes holds: the
    cap + 1 basis rows of N floats it allocates at once, four N-vectors (the
    start vector, the product the apply returns and two Gram-Schmidt
    transients), the block of at most cap * _RESTART_COLUMNS floats a thick
    restart rotates at a time, four (cap + 1)^2 arrays (the projected matrix
    T, the copy eigh factors, its eigenvectors and its workspace), and the
    two omega estimates of partial reorthogonalization, cap + 1 floats each.
    """
    if kind == "matrix":
        cap = range_cap(order)
        finder = 8 * (order * cap + 2 * cap * cap + 5 * RANGE_BLOCK * order)
        return 8 * order * order + max(8 * order * order, finder)
    if kind == "symbol":
        return expsum.solve_bytes(spec, order)
    cap = lanczos_cap(order, k, basis_cap)
    basis = (cap + 1) * order
    transients = (
        4 * order + cap * min(order, _RESTART_COLUMNS) + 4 * (cap + 1) ** 2 + 2 * (cap + 1)
    )
    return 8 * (2 * order - 1) + circulant_embedding(order)[1] + 8 * (basis + transients)


@dataclass(frozen=True)
class SolverParams:
    """Eigensolver knobs shared by the pipeline helpers."""

    k: int = 64
    tol: float = 1e-8
    max_iter: int = 2000
    seed: int = 0
    basis_cap: int = 600

    def __post_init__(self):
        if self.k < 1:
            raise FieldError("k", f"k must be at least 1, got {self.k}")
        if self.tol <= 0.0:
            raise FieldError("tol", f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise FieldError("max_iter", f"max_iter must be at least 1, got {self.max_iter}")
        if self.seed < 0:
            raise FieldError("seed", f"expected a non-negative integer, got {self.seed}")


@dataclass
class SpectrumResult:
    """Converged spectrum of one symmetric truncation.

    lambda_plus / lambda_minus are positive and sorted non-increasing;
    residuals_* are the per-eigenvalue Ritz residual norms (zero for the
    dense route).  converged is False when the solver hit its iteration
    budget before securing the requested count at both ends; the partial
    lists are still valid converged prefixes.
    """

    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    residuals_plus: np.ndarray
    residuals_minus: np.ndarray
    order: int
    solver_id: str
    seed: int
    tol: float
    converged: bool = True
    n_dropped: int = 0
    details: dict = field(default_factory=dict)


def dense_spectrum(A) -> SpectrumResult:
    """Full spectrum by symmetric eigendecomposition (reference route)."""
    return _dense(_symmetric_matrix(A))


def _symmetric_matrix(A) -> np.ndarray:
    """A as a float array, refused unless square, finite, symmetric and within physical memory.

    The memory check counts A and the copy eigvalsh factors, and comes
    before any other work on A.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    require_memory(2 * 8 * n * n, f"a dense solve of order {n}")
    asym = _max_asymmetry(A)
    # A nonzero asymmetry implies a nonzero entry, so max |A| is read only
    # then: an exactly symmetric matrix, the common case, is read once.
    if asym > 0.0:
        amax = max(float(A.max()), -float(A.min()))
        if asym > ASYMMETRY_REL * amax:
            raise ValueError(
                f"matrix is not symmetric: max asymmetry {asym:.3e} exceeds "
                f"{ASYMMETRY_REL:.0e} * max entry {amax:.3e}"
            )
    return A


def _dense(A) -> SpectrumResult:
    """The dense route on a matrix _symmetric_matrix has accepted."""
    n = A.shape[0]
    evals = np.linalg.eigvalsh(A)
    anorm = float(np.max(np.abs(evals))) if n else 0.0
    return _result(
        evals, np.zeros(n), n, n, anorm,
        order=n, solver_id="dense", seed=0, tol=0.0, details={"norm_est": anorm},
    )


def _range_spectrum(A) -> SpectrumResult:
    """Spectrum of an accepted symmetric matrix by a randomized block Krylov range finder.

    The search starts from Y = A W, W a Gaussian block of RANGE_BLOCK
    columns drawn from a fixed seed.  Each block Y examined is projected
    twice against the orthonormal basis Q held so far.  Unless it passes
    the stop test below, its columns, orthonormalized by shifted Cholesky
    QR (_cholesky_qr, with Householder QR as the fallback), projected
    against Q once more and orthonormalized again, join Q.  The second
    round is needed because orthonormalizing an ill-conditioned Y
    amplifies what rounding left of it along Q.  The product A Q_new of the
    rows that joined, which the Rayleigh quotient needs anyway, is the next
    block of the block Krylov space (Halko, Martinsson and Tropp, SIREV
    2011, sections 4.3-4.5; Musco and Musco, NeurIPS 2015): it becomes the
    next Y at no further product with A, written into the rows of Q it
    would join.

    A block passes when 10 sqrt(2/pi) times its largest column norm is at
    most ZERO_BAND_REL times ||A||_est, the largest Ritz value |theta| of
    Q^T A Q, a lower bound of ||A||.  Lemma 4.1's bound holds only for a
    test block independent of Q, so a Krylov block that passes only calls
    for a probe, a fresh Gaussian block, and the search stops when a
    Gaussian block passes; a probe that does not pass joins Q like any
    other block.  A probe also replaces the Krylov block when that block
    could not join Q (no room below the cap), or when the block that just
    joined was rank deficient to rounding (Cholesky QR refused it): after a
    Gaussian block Q then holds all of A above rounding, and after a
    Krylov block the space has stopped growing along some directions.  The
    result holds the eigenvalues of Q^T A Q, and the order - rank values
    outside the basis count as zero-band values.

    The route falls back to the dense route, bitwise, when the basis would
    pass range_cap(order) columns, or when the residual, per unit test
    vector (a Gaussian column has norm about sqrt(order), a Krylov one
    norm 1), goes _RANGE_STALL blocks that do not pass without a tenfold
    drop below the last block that made one.  A block that passes never
    counts as a stall, since rounding may keep a residual already below
    the threshold from dropping further, but its drop counts: a probe that
    fails must drop tenfold below the Krylov block that called for it.  So
    a matrix that is not low rank pays a few blocks, never a full-rank
    basis, and one whose rounding floor sits at the stop threshold falls
    back after two failed probes.
    details records the blocks examined (the start, the Krylov blocks and
    the probes), the probes, the basis rank and fell_back.  Below order
    256, where range_cap leaves no room for one block, the route is the
    dense route from the start, and draws nothing.

    Memory, besides A: the basis Q and the Rayleigh quotient Q^T A Q,
    allocated once at cap = range_cap(order) columns, the copy of Q^T A Q
    eigvalsh factors, the product A Q_new of the newest block only, and at
    most four more blocks of RANGE_BLOCK rows: 8 (order cap + 2 cap^2 +
    5 RANGE_BLOCK order) bytes in all, as solve_bytes counts.  All are
    released before a fallback.
    """
    n, b, cap = A.shape[0], RANGE_BLOCK, range_cap(A.shape[0])
    if cap < b:
        return _dense(A)
    rng = np.random.default_rng(_RANGE_SEED)
    # The basis vectors are rows, so every block is a contiguous row slice.
    Qt, T = np.empty((cap, n)), np.empty((cap, cap))
    theta = np.empty(0)
    r = blocks = probes = stall = 0
    norm_est, last_drop = 0.0, math.inf
    # Rows of W^T A are the columns of A W, since A is symmetric.
    Y, gaussian = rng.standard_normal((b, n)) @ A, True
    while True:
        blocks += 1
        _project_out(Y, Qt[:r])
        _project_out(Y, Qt[:r])
        res = float(np.max(np.linalg.norm(Y, axis=1)))
        # A Gaussian row is A w with E ||w||^2 = n, a Krylov row A q with
        # ||q|| = 1: the stall rule compares them per unit test vector.
        scaled = res / math.sqrt(n) if gaussian else res
        passed = _RANGE_BOUND * res <= ZERO_BAND_REL * norm_est
        if scaled <= 0.1 * last_drop:
            last_drop, stall = scaled, 0
        elif not passed:
            stall += 1
        if passed and gaussian:
            break
        # Neither test fires on a block that passed: stall grows only on
        # blocks that do not, and a Krylov block lies in rows below the cap.
        if stall >= _RANGE_STALL or r + b > cap:
            # The first block always joins Q, so AQ is bound here.
            del Qt, T, Y, AQ
            S = _dense(A)
            S.details.update(blocks=blocks, probes=probes, basis_rank=r, fell_back=True)
            return S
        if passed:
            # Only a block independent of Q may certify the stop.
            Y, gaussian = rng.standard_normal((b, n)) @ A, True
            probes += 1
            continue
        new = slice(r, r + b)
        X = _cholesky_qr(Y)
        # A block rank deficient to rounding ends the Krylov growth: a
        # Gaussian one held all of A outside Q, so the next Krylov block
        # would hold only rounding, and after a Krylov one the space has
        # stopped growing along the lost directions.
        deficient = X is None
        Qt[new] = np.linalg.qr(Y.T)[0].T if deficient else X
        del X, Y
        _project_out(Qt[new], Qt[:r])
        Qt[new] = _orthonormal_rows(Qt[new])
        AQ = Qt[new] @ A
        r += b
        # Grow the Rayleigh quotient T = Q^T A Q by its new columns and
        # mirror them, so T stays exactly symmetric.
        T[:r, new] = Qt[:r] @ AQ.T
        T[new, : r - b] = T[: r - b, new].T
        T[new, new] = 0.5 * (T[new, new] + T[new, new].T)
        theta = np.linalg.eigvalsh(T[:r, :r])
        norm_est = max(-float(theta[0]), float(theta[-1]))
        if r + b <= cap and not deficient:
            # The next block of the Krylov space, free: A times the new rows,
            # written where it would join Q.
            Y, gaussian = Qt[r : r + b], False
            Y[...] = AQ
        else:
            # A Krylov block could not join Q, or would hold only rounding.
            Y, gaussian = rng.standard_normal((b, n)) @ A, True
            probes += 1
    # The n - r eigenvalues outside the basis lie in the zero band.
    return _result(
        theta, np.zeros(r), r, r, norm_est, complete=True,
        order=n, solver_id="randomized_range_finder", seed=0, tol=0.0,
        details={
            "blocks": blocks, "probes": probes, "basis_rank": r, "fell_back": False,
            "norm_est": norm_est,
        },
    )


def _orthonormal_rows(Y) -> np.ndarray:
    """Orthonormal rows spanning the rows of the b x n block Y, b <= n.

    _cholesky_qr's rows, or, where it fails, those of Householder QR, which
    is orthonormal whatever Y is.
    """
    X = _cholesky_qr(Y)
    return np.linalg.qr(Y.T)[0].T if X is None else X


def _cholesky_qr(Y):
    """Orthonormal rows spanning the rows of Y by Cholesky QR, or None.

    Shifted CholQR3 (Fukaya, Kannan, Nakatsukasa, Yamamoto and Yanagisawa,
    SISC 2020): one Cholesky step of the Gram matrix X X^T shifted by
    11 (n b + b (b + 1)) u ||Y||_F^2, u the unit roundoff, which factors
    however ill-conditioned Y is, then two plain steps, each replacing X by
    inv(L) X.  All of it is BLAS-3.  The result is accepted when
    max |X X^T - I| <= _ORTHONORMAL_TOL.  It is None otherwise, or when a
    step does not factor: the shifted steps reach that tolerance up to a
    condition number near 1/u, so None marks a block rank deficient to
    rounding.
    """
    b, n = Y.shape
    diag = np.diag_indices(b)
    G = Y @ Y.T
    G[diag] += 11.0 * (n * b + b * (b + 1)) * 0.5 * np.finfo(float).eps * float(np.trace(G))
    X = Y
    try:
        for _ in range(3):
            X = np.linalg.inv(np.linalg.cholesky(G)) @ X
            G = X @ X.T
    except np.linalg.LinAlgError:
        return None
    G[diag] -= 1.0
    return X if float(np.max(np.abs(G))) <= _ORTHONORMAL_TOL else None


def _project_out(Y, Qt) -> None:
    """Remove from the rows of Y, in place, their components along the orthonormal rows of Qt."""
    if len(Qt):
        Y -= (Y @ Qt.T) @ Qt


def _max_asymmetry(A) -> float:
    """max |A - A.T|, tile pair by tile pair, without an n x n temporary.

    A NaN or infinite entry makes its difference NaN or infinite, so the
    same scan refuses it, in place of numpy's warning about inf - inf.
    """
    n, t = A.shape[0], _SYMMETRY_TILE
    worst = 0.0
    with np.errstate(invalid="ignore"):
        for i in range(0, n, t):
            for j in range(i, n, t):
                diff = A[i : i + t, j : j + t] - A[j : j + t, i : i + t].T
                tile = float(np.max(np.abs(diff)))
                if not math.isfinite(tile):
                    raise ValueError("matrix has a NaN or infinite entry")
                worst = max(worst, tile)
    return worst


def _converged_prefixes(theta, res, tol, norm_est):
    """Contiguous converged position counts inward from both spectral ends."""
    bad = np.flatnonzero(~(res <= tol * np.maximum(np.abs(theta), norm_est)))
    if bad.size == 0:
        return len(res), len(res)
    return len(res) - 1 - int(bad[-1]), int(bad[0])


def _stop_state(theta, res, tol, norm_est, k):
    """(top, bot, done, at_band) of ascending Ritz values theta with residuals res.

    top and bot are the converged prefixes.  An end is at the band when its
    prefix reaches a band value with every residual up to it within
    _BREAKDOWN_REL * norm_est, a tenth of the band; it is done then, or at
    k values outside the band on its own side.  Both ends must agree.
    """
    top, bot = _converged_prefixes(theta, res, tol, norm_est)
    band, resolved = ZERO_BAND_REL * norm_est, _BREAKDOWN_REL * norm_est
    done, at_band = True, True
    for vals, r in ((theta[::-1][:top], res[::-1][:top]), (-theta[:bot], res[:bot])):
        inside = np.flatnonzero(np.abs(vals) <= band)
        at = inside.size > 0 and bool(np.all(r[: inside[0] + 1] <= resolved))
        done &= at or int(np.count_nonzero(vals > band)) >= k
        at_band &= at
    return top, bot, done, at_band


def _result(theta, res, top, bot, norm_est, complete=False, **fields) -> SpectrumResult:
    """The SpectrumResult of ascending eigenvalues theta with residuals res.

    The top `top` and the bottom `bot` positions of theta are the converged
    prefixes.  lambda_plus takes the values of the top prefix above the zero
    band |theta| <= ZERO_BAND_REL * norm_est, lambda_minus the magnitudes of
    the values of the bottom prefix below it, and n_dropped counts the band
    values in the union of the two prefixes, each once.  When complete, every
    eigenvalue outside the band is in theta, so n_dropped counts the rest
    of the order.
    """
    band = ZERO_BAND_REL * norm_est
    pos = np.arange(len(theta))
    in_top, in_bot = pos >= len(theta) - top, pos < bot
    plus, minus = in_top & (theta > band), in_bot & (theta < -band)
    if complete:
        dropped = fields["order"] - int(np.count_nonzero(plus | minus))
    else:
        dropped = int(np.count_nonzero((in_top | in_bot) & (np.abs(theta) <= band)))
    return SpectrumResult(
        lambda_plus=theta[plus][::-1],
        lambda_minus=-theta[minus],
        residuals_plus=res[plus][::-1],
        residuals_minus=res[minus],
        n_dropped=dropped,
        **fields,
    )


def lanczos_extremes(
    apply,
    n: int,
    k: int,
    tol: float = 1e-10,
    max_iter: int = 2000,
    seed: int = 0,
    basis_cap: int = 600,
) -> SpectrumResult:
    """Extreme eigenvalues at both spectral ends of a symmetric operator.

    apply(v) must implement the symmetric matvec for vectors of length n.
    The solver runs one Lanczos recurrence with partial reorthogonalization
    (Simon, Math. Comp. 42, 1984, the scheme PROPACK uses), extracting Ritz
    pairs at both ends from the same basis.  Each step orthogonalizes A v
    against the two newest basis vectors.  A classical Gram-Schmidt pass
    over the whole basis follows only when it is needed: Simon's recurrence
    estimates omega_i ~ v_new . v_i from the entries of T alone (_omega_next),
    and the pass runs when max_i |omega_i| exceeds sqrt(eps), the level
    below which the basis is semi-orthogonal and its Ritz values are as
    accurate as under full reorthogonalization.  The pass then runs on the
    next step too, since the vector before it carries the same loss, and
    both estimates restart at the floor u = sqrt(n) eps / 2, the rounding
    of a length-n dot product; u ||A||_est is also the noise each step adds
    to them.  With eps in place of u the estimate fell up to 10^4-fold
    below the true loss on a discrete truncation of order 2^18 whose
    residuals shrink to 1e-7 ||A||, and the basis lost orthogonality.
    details["reorth_passes"] counts the passes.  A second pass (the DGKS
    criterion, counted in details["reorth_repeats"]) runs only when a pass
    shrinks the vector below 1/sqrt(2) of its norm after the local step.  A step that breaks
    down after its local step skips the pass: the breakdown drops a
    residual larger than anything the pass would remove.

    From the first thick restart or breakdown on, the pass runs on every
    step.  The recurrence assumes a basis orthonormal to working precision:
    the Ritz vectors a restart keeps, or the fresh direction, come from a
    basis that is only semi-orthogonal, so components of size
    sqrt(eps) ||A|| lie outside T, the estimate no longer bounds the loss,
    and skipping passes there lets orthogonality collapse within a few
    steps.

    When the basis reaches basis_cap vectors it is thick-restarted around
    the wanted ends, in the manner of Wu and Simon's TRLan (SIMAX 2000):
    the restart keeps up to k + 32 Ritz vectors per end, but leaves room
    for _CHECK_EVERY steps before the next restart unless the k wanted per
    end need it, so that no rotation of the basis follows the last within
    fewer steps.  A Ritz pair (theta, y) counts as converged when its
    residual ||A y - theta y|| = |beta * s_last| is at most
    tol * max(|theta|, ||A||_est), counted contiguously inward from each
    end.  max_iter bounds the number of operator applications; a run that
    reaches it takes its Ritz pairs from the applied part of the basis, so
    basis_final never exceeds the applications.

    An end is done at k values outside the zero band or where it reaches
    the band (_stop_state).  Convergence is checked at the cap and every
    _CHECK_EVERY steps, or m/16 to m/8 past m = 128 basis vectors, so the
    checks' O(m^3) eigh costs O(m^2) a step; the check that ends the solve
    also gives its Ritz pairs, with no further eigh.  A check at a breakdown
    never ends the solve: the invariant subspace holds one copy of each
    eigenvalue, so further copies are sought from a fresh direction.  The
    space is exhausted when the basis spans it, or when that direction
    breaks down at once with its Rayleigh quotient in the band.  Then, or
    when both ends stopped at the band, n_dropped counts the rest of the
    order.  An end stopped at k may still miss copies of a repeated value.

    ||A||_est is the running maximum of ||A v_j|| over the applied basis
    vectors and of the Ritz values |theta|; both are lower bounds of ||A||
    that reach it as the extreme Ritz values converge, so no applications
    are spent on a separate norm estimate.  The zero band is derived from
    the final estimate; a solve whose estimate is not finite, as when
    ||A v||^2 overflows, is not converged, since its band holds every value.

    Deterministic for a fixed seed: the start vector and every subsequent
    decision depend only on the seed, the dimension, and the operator.

    Memory: the basis V takes (cap + 1) * n * 8 bytes, allocated once, and
    the two omega estimates (cap + 1) floats each.  Reorthogonalization,
    normalization and the thick restart work in place on V, so beyond it
    the solver holds a few n-vectors and transients of at most
    cap * _RESTART_COLUMNS floats.  The solver also updates the array
    apply returns in place, so an apply may reuse one output buffer across
    calls.
    """
    if k < 1:
        raise ValueError(f"count per end k must be at least 1, got {k}")
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")

    rng = np.random.default_rng(seed)
    k_eff = min(k, n)
    cap = lanczos_cap(n, k_eff, basis_cap)
    keep_per_end = max(k_eff, min(k_eff + 32, (cap - _CHECK_EVERY) // 2))

    V = np.empty((cap + 1, n))
    T = np.zeros((cap + 1, cap + 1))
    # omega[i] estimates v_cur . v_i and omega_prev[i] v_{cur-1} . v_i.
    omega, omega_prev = np.zeros(cap + 1), np.zeros(cap + 1)
    # The rounding of a length-n dot product: the estimates' floor, and,
    # times ||A||_est, the noise each step adds to them.
    rounding = 0.5 * math.sqrt(n) * _EPS
    omega[0] = 1.0
    V[0] = rng.standard_normal(n)
    V[0] /= np.linalg.norm(V[0])
    m, applies, restarts, reorth_passes, reorth_repeats = 1, 0, 0, 0, 0
    norm_est = beta = 0.0
    exhausted = fresh = False
    checked = None  # the Ritz pairs of the check that stops the solve
    # partial: no restart or breakdown yet; again: the last step ran a pass
    # its estimate asked for, so this one runs one too.
    partial, again = True, False

    while applies < max_iter:
        cur = m - 1
        w = np.asarray(apply(V[cur]), dtype=float)
        if np.may_share_memory(w, V):
            w = w.copy()  # an apply that returns (a view of) its argument
        applies += 1
        norm_est = max(norm_est, float(np.linalg.norm(w)))
        breakdown = _BREAKDOWN_REL * norm_est
        # Local step: modified Gram-Schmidt against the two newest rows, which
        # carry the large three-term components of A v.  The global pass then
        # removes only what rounding left along the rest of the basis.
        c = np.zeros(m)
        for i in range(max(cur - 1, 0), m):
            c[i] = V[i] @ w
            w -= c[i] * V[i]
        T[:m, cur] = c  # alpha_j, which the omega estimate reads
        T[cur, :m] = c
        beta = w_local = float(np.linalg.norm(w))
        # A step that breaks down here skips the global pass: what the pass
        # would remove is smaller than the residual the breakdown drops.
        run_pass = beta > breakdown
        if partial and run_pass:
            run_pass, again = again, False
            if not run_pass:
                loss = _omega_next(omega, omega_prev, T, cur, w_local, rounding * norm_est)
                run_pass = again = loss > _SEMI_ORTHOGONAL
            if run_pass:
                omega_prev[:m] = rounding  # the pass leaves the new vector orthogonal
                omega_prev[m] = 1.0
            omega, omega_prev = omega_prev, omega
        if run_pass:
            reorth_passes += 1
            for repeat in (False, True):
                cg = V[:m] @ w
                w -= V[:m].T @ cg
                c += cg
                beta = float(np.linalg.norm(w))
                if repeat or beta >= 0.70710678 * w_local:
                    break
                reorth_repeats += 1  # DGKS: the pass cancelled too much to trust
            T[:m, cur] = c
            T[cur, :m] = c

        broke = beta <= breakdown
        if m == n or (broke and fresh and abs(c[cur]) <= ZERO_BAND_REL * norm_est):
            exhausted = True
            break
        fresh = broke
        # The newest vector's row of T, read when max_iter ends the solve.
        T[m, cur] = T[cur, m] = 0.0 if broke else beta

        at_cap = m == cap
        # The gap between checks: a power of two from m/16 to m/8, at least 8.
        if at_cap or m % max(_CHECK_EVERY, (1 << m.bit_length()) // 16) == 0:
            theta, S = np.linalg.eigh(T[:m, :m])
            norm_est = max(norm_est, float(abs(theta[0])), float(abs(theta[-1])))
            res = beta * np.abs(S[m - 1, :])
            # At a breakdown every residual is tiny, but copies may lie outside.
            if not broke and _stop_state(theta, res, tol, norm_est, k_eff)[2]:
                checked = theta, S  # T[:m, :m] as the extraction below reads it
                break
            if at_cap:
                # Thick restart: lock both spectral ends plus a buffer and
                # continue the recurrence from the current residual direction.
                keep_idx = np.concatenate(
                    [np.arange(keep_per_end), np.arange(m - keep_per_end, m)]
                )
                kept_theta = theta[keep_idx]
                kept_b = beta * S[m - 1, keep_idx]
                Sk = S[:, keep_idx].T
                s = len(keep_idx)
                # Rotate the basis block of columns by block of columns; each
                # block is read in full before it is overwritten.
                for j in range(0, n, _RESTART_COLUMNS):
                    cols = slice(j, j + _RESTART_COLUMNS)
                    V[:s, cols] = Sk @ V[:m, cols]
                T[:, :] = 0.0
                T[:s, :s] = np.diag(kept_theta)
                if broke:
                    V[s] = _fresh_direction(rng, V[:s], n)
                else:
                    np.divide(w, beta, out=V[s])
                    T[s, :s] = kept_b
                    T[:s, s] = kept_b
                m = s + 1
                restarts += 1
                partial = False
                continue

        if broke:
            # Invariant subspace found early; continue in a fresh direction.
            V[m] = _fresh_direction(rng, V[:m], n)
            partial = False
        else:
            np.divide(w, beta, out=V[m])
        m += 1
    else:
        # max_iter: the newest basis vector was never applied, so the Ritz
        # pairs come from the rows before it, and its row of T holds their
        # residuals' coefficients.
        m -= 1

    theta, S = checked or np.linalg.eigh(T[:m, :m])
    norm_est = max(norm_est, float(abs(theta[0])), float(abs(theta[-1])))
    # Exhausted, the basis spans the whole space, or all of it outside the
    # band, so T is exact and residuals vanish.
    res = np.zeros(m) if exhausted else np.abs(T[m, :m] @ S)
    top, bot, done, at_band = _stop_state(theta, res, tol, norm_est, k_eff)
    return _result(
        theta, res, top, bot, norm_est, complete=exhausted or at_band,
        order=n,
        solver_id="lanczos_partial_reorth_thick_restart",
        seed=seed,
        tol=tol,
        converged=(done or exhausted) and math.isfinite(norm_est),
        details={
            "applies": applies,
            "restarts": restarts,
            "reorth_passes": reorth_passes,
            "reorth_repeats": reorth_repeats,
            "basis_final": m,
            "basis_cap": cap,
            "norm_est": norm_est,
            "top_converged": top,
            "bot_converged": bot,
            "requested_per_end": k_eff,
        },
    )


def _omega_next(omega, omega_prev, T, j, beta, noise) -> float:
    """Simon's estimate of the loss of orthogonality of v_{j+1}; written into omega_prev.

    omega[i] estimates v_j . v_i for i <= j, omega_prev[i] v_{j-1} . v_i for
    i < j, and T's diagonal and subdiagonal hold alpha and beta of the
    recurrence beta_j v_{j+1} = A v_j - alpha_j v_j - beta_{j-1} v_{j-1}.
    Its dot product with v_i, with A v_i expanded by the same recurrence,
    gives, for i < j,

      beta_j omega_{j+1,i} = beta_i omega_{j,i+1} + (alpha_i - alpha_j) omega_{j,i}
                             + beta_{i-1} omega_{j,i-1} - beta_{j-1} omega_{j-1,i},

    to which the rounding of both recurrences adds about noise (a multiple
    of eps ||A||), taken with the sign that increases |omega|.  The local step
    orthogonalizes v_{j+1} against v_{j-1} and v_j explicitly, which leaves
    only that rounding, noise / beta_j: large when the step cancels most of
    A v_j, as near a breakdown.  O(j) work, and no read of the basis.
    Returns max_i |omega_{j+1,i}|, i <= j.
    """
    if j >= 1:
        alpha, sub = np.diagonal(T)[: j + 1], np.diagonal(T, -1)[:j]
        x = (alpha[:j] - alpha[j]) * omega[:j]
        x += sub * omega[1 : j + 1]
        x[1:] += sub[: j - 1] * omega[: j - 1]
        x -= sub[j - 1] * omega_prev[:j]
        x += np.copysign(noise, x)
        np.divide(x, beta, out=omega_prev[:j])
    omega_prev[max(j - 1, 0) : j + 1] = noise / beta
    omega_prev[j + 1] = 1.0
    return float(np.max(np.abs(omega_prev[: j + 1])))


def _fresh_direction(rng, basis, n):
    for _ in range(5):
        v = rng.standard_normal(n)
        v -= basis.T @ (basis @ v)
        v -= basis.T @ (basis @ v)
        nv = float(np.linalg.norm(v))
        if nv > 1e-8 * math.sqrt(n):
            return v / nv
    raise RuntimeError("could not generate a direction orthogonal to the basis")


def solve(op, params: SolverParams, k: int | None = None) -> SpectrumResult:
    """Spectrum of a dense matrix or a truncation, by the route of its type.

    op is a dense matrix, a DiscreteTruncation or a HankelTruncation.  A
    DiscreteTruncation takes the expsum route, which returns every
    eigenvalue above its Gram truncation.  A dense matrix takes the range
    finder, which returns every eigenvalue outside the zero band (dense
    below order 256 and on fallback).  A HankelTruncation takes Lanczos
    through the fast matvec at every order, asking for k eigenvalues per
    end (params.k when k is None).
    """
    if isinstance(op, DiscreteTruncation):
        theta, details = expsum.eigenvalues(op.spec, op.order)
        n = len(theta)
        norm = float(np.max(np.abs(theta))) if n else 0.0
        # The factorization's N - n implicit eigenvalues lie below its Gram
        # truncation, in the zero band.
        return _result(
            theta, np.zeros(n), n, n, norm, complete=True,
            order=op.order, solver_id="expsum", seed=0, tol=0.0,
            details={**details, "norm_est": norm},
        )
    if not isinstance(op, HankelTruncation):
        return _range_spectrum(_symmetric_matrix(op))
    # One workspace and output vector per solve, so concurrent solves on the
    # same truncation never share scratch.
    workspace = op.workspace()
    w = np.empty(op.order)
    return lanczos_extremes(
        lambda v: matvec(op, v, out=w, workspace=workspace),
        op.order,
        k=params.k if k is None else k,
        tol=params.tol,
        max_iter=params.max_iter,
        seed=params.seed,
        basis_cap=params.basis_cap,
    )


def counting(S: SpectrumResult, lam: float):
    """Counting functions (n_plus, n_minus, n) at level lam > 0."""
    if lam <= 0.0:
        raise ValueError(f"counting level must be positive, got {lam}")
    n_plus = int(np.count_nonzero(S.lambda_plus > lam))
    n_minus = int(np.count_nonzero(S.lambda_minus > lam))
    return n_plus, n_minus, n_plus + n_minus

