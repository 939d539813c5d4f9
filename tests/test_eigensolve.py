"""Eigensolver cross-checks: dense oracle, Lanczos agreement, spectral counting."""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest

from hankelspec import eigensolve
from hankelspec.eigensolve import (
    RANGE_BLOCK,
    SolverParams,
    SpectrumResult,
    counting,
    dense_spectrum,
    lanczos_extremes,
    solve,
    solve_bytes,
)
from hankelspec.hankel_core import (
    DiscreteTruncation,
    HankelTruncation,
    ResourceLimitError,
    build_discrete,
    dense_matrix,
    matvec,
)
from hankelspec.model import ContinuousKernelSpec, DiscreteSymbolSpec
from hankelspec.quadrature import GridSpec, build_graded, build_uniform

mpmath.mp.dps = 30


def _hilbert_truncation(N):
    return HankelTruncation(N, 1.0 / (np.arange(2 * N - 1) + 1.0))


def _result(lp, lm):
    lp = np.asarray(lp, dtype=float)
    lm = np.asarray(lm, dtype=float)
    return SpectrumResult(
        lambda_plus=lp,
        lambda_minus=lm,
        residuals_plus=np.zeros(len(lp)),
        residuals_minus=np.zeros(len(lm)),
        order=len(lp) + len(lm),
        solver_id="synthetic",
        seed=0,
        tol=0.0,
    )


# --------------------------------------------------------------------- dense


def test_dense_spectrum_swap_matrix():
    S = dense_spectrum([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(S.lambda_plus, [1.0])
    assert np.allclose(S.lambda_minus, [1.0])


def test_dense_spectrum_diagonal():
    S = dense_spectrum([[2.0, 0.0], [0.0, -3.0]])
    assert np.allclose(S.lambda_plus, [2.0])
    assert np.allclose(S.lambda_minus, [3.0])
    assert S.n_dropped == 0


def test_dense_spectrum_hilbert_5x5():
    A = dense_matrix(_hilbert_truncation(5))
    S = dense_spectrum(A)
    top = S.lambda_plus[0]
    # Higher-precision oracle for the leading eigenvalue.
    M = mpmath.matrix(5, 5)
    for i in range(5):
        for j in range(5):
            M[i, j] = mpmath.mpf(1) / (i + j + 1)
    oracle = max(float(v) for v in mpmath.eigsy(M, eigvals_only=True))
    assert top == pytest.approx(oracle, rel=1e-12)
    assert abs(top - 1.5670507) < 5e-8


def test_dense_spectrum_rejects_asymmetry():
    with pytest.raises(ValueError, match="not symmetric"):
        dense_spectrum([[0.0, 1.0], [0.5, 0.0]])


def test_dense_spectrum_zero_matrix():
    S = dense_spectrum(np.zeros((4, 4)))
    assert len(S.lambda_plus) == 0
    assert len(S.lambda_minus) == 0
    assert S.n_dropped == 4


def test_dense_spectrum_refuses_above_dense_limit():
    # A broadcast view has the shape without the memory; the check comes
    # before any work.
    A = np.broadcast_to(0.0, (2**20, 2**20))
    with pytest.raises(ResourceLimitError, match="bytes of physical memory"):
        dense_spectrum(A)


@pytest.mark.parametrize("where", [(0, -1), (-1, 0)])
def test_dense_spectrum_rejects_asymmetry_in_a_far_tile(where):
    # Only the corner tile pair is asymmetric; the tiled check must see it.
    n = 3 * eigensolve._SYMMETRY_TILE + 5
    rng = np.random.default_rng(8)
    B = rng.standard_normal((n, n))
    A = B + B.T
    A[where] += 1e-6
    with pytest.raises(ValueError, match="not symmetric"):
        dense_spectrum(A)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", [[(0, 0)], [(1, 2)], [(1, 2), (2, 1)], [(-1, 0)]])
def test_dense_spectrum_refuses_a_non_finite_entry(bad, where):
    # Folding the tile maxima with max() drops a NaN, and a symmetric pair of
    # infinities is as asymmetric as inf allows; the scan checks each tile.
    A = np.eye(3 * eigensolve._SYMMETRY_TILE + 5)
    for ij in where:
        A[ij] = bad
    with pytest.raises(ValueError, match="NaN or infinite entry"):
        dense_spectrum(A)


def test_range_finder_refuses_a_non_finite_entry():
    A = _full_rank(256)
    A[3, 7] = A[7, 3] = math.inf
    with pytest.raises(ValueError, match="NaN or infinite entry"):
        solve(A, SolverParams())


# -------------------------------------------------------------------- lanczos


def test_lanczos_matches_dense_hilbert_1024():
    H = _hilbert_truncation(1024)
    dense = dense_spectrum(dense_matrix(H))
    S = lanczos_extremes(lambda v: matvec(H, v), 1024, k=10, tol=1e-12, seed=0)
    assert S.converged
    got = S.lambda_plus[:10]
    want = dense.lambda_plus[:10]
    assert len(got) == 10
    assert np.max(np.abs(got - want) / want) < 1e-10
    # Residual invariant: every reported eigenvalue meets the tolerance.
    norm = max(S.lambda_plus[0], 1.0)
    assert np.all(S.residuals_plus <= 1e-12 * norm * 1.0000001)


def test_lanczos_stopped_at_a_check_decomposes_t_once_per_check(monkeypatch):
    # The check that ends the solve has decomposed T[:m, :m] already, and
    # the extraction after it reads the same matrix: it takes that check's
    # Ritz pairs instead of a second eigh of the largest T of the solve.
    sizes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    H = _hilbert_truncation(1024)
    S = lanczos_extremes(lambda v: matvec(H, v), 1024, k=10, tol=1e-12, seed=0)
    assert S.converged and S.details["restarts"] == 0
    assert S.details["basis_final"] < 1024
    # One eigh per check, each of a larger T, the last the one that stopped it.
    assert len(sizes) >= 2
    assert sizes == sorted(set(sizes))
    assert sizes[-1] == S.details["basis_final"]


def test_lanczos_two_by_two_closure():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    S = lanczos_extremes(lambda v: A @ v, 2, k=1, seed=3)
    assert np.allclose(S.lambda_plus, [1.0], rtol=1e-12)
    assert np.allclose(S.lambda_minus, [1.0], rtol=1e-12)
    assert S.converged


def test_lanczos_zero_operator():
    S = lanczos_extremes(lambda v: np.zeros_like(v), 16, k=2, seed=0)
    assert S.converged
    assert len(S.lambda_plus) == 0
    assert len(S.lambda_minus) == 0


def test_lanczos_counts_each_zero_band_value_once():
    # b1 at 2^14 has 32 positive and 1 negative value outside the zero band.
    # Both ends reach the band long before k = 64, so, as on the dense route,
    # every value not returned is a band value.
    S = solve(build_discrete(DiscreteSymbolSpec(alpha=1.0, b_plus1=1.0), 2**14), SolverParams())
    assert S.solver_id == "lanczos_partial_reorth_thick_restart"
    assert S.converged
    assert (len(S.lambda_plus), len(S.lambda_minus)) == (32, 1)
    assert S.n_dropped == 2**14 - 33
    # The zero operator breaks down at its first apply, and the fresh
    # direction drawn then breaks down in the band: the space is exhausted
    # after two applies, whatever k asks.
    for k in (2, 16):
        Z = lanczos_extremes(lambda v: np.zeros_like(v), 16, k=k, seed=0)
        assert Z.converged and Z.details["applies"] == 2
        assert Z.n_dropped == 16
    # An end that stops at k leaves the rest of its side unseen, so only the
    # band values the converged prefixes hold are counted, each once.
    d = np.concatenate([1.0 / np.arange(1, 101), np.zeros(924)])
    R = lanczos_extremes(lambda v: d * v, 1024, k=2, seed=0)
    assert R.converged and len(R.lambda_minus) == 0
    assert 1 <= R.n_dropped <= R.details["basis_final"] - len(R.lambda_plus)


def test_converged_prefixes_match_the_scan_from_each_end():
    def scan(ok):
        top = next((i for i, v in enumerate(ok[::-1]) if not v), len(ok))
        bot = next((i for i, v in enumerate(ok) if not v), len(ok))
        return top, bot

    rng = np.random.default_rng(7)
    theta = np.linspace(-1.0, 1.0, 12)
    draws = [np.where(rng.random(12) < 0.7, 0.0, 1.0) for _ in range(200)]
    for res in draws:
        res[rng.random(12) < 0.1] = np.nan  # a NaN residual never converges
    for res in [np.zeros(12), np.ones(12), *draws]:
        expected = scan(res <= 1e-8 * np.maximum(np.abs(theta), 1.0))
        assert eigensolve._converged_prefixes(theta, res, 1e-8, 1.0) == expected


def test_lanczos_deterministic_given_seed():
    H = _hilbert_truncation(512)
    runs = [
        lanczos_extremes(lambda v: matvec(H, v), 512, k=6, tol=1e-10, seed=42)
        for _ in range(2)
    ]
    assert runs[0].lambda_plus.tobytes() == runs[1].lambda_plus.tobytes()
    assert runs[0].lambda_minus.tobytes() == runs[1].lambda_minus.tobytes()
    assert runs[0].details["applies"] == runs[1].details["applies"]


def test_lanczos_seed_changes_start_but_not_values():
    H = _hilbert_truncation(512)
    a = lanczos_extremes(lambda v: matvec(H, v), 512, k=6, tol=1e-10, seed=1)
    b = lanczos_extremes(lambda v: matvec(H, v), 512, k=6, tol=1e-10, seed=2)
    n = min(len(a.lambda_plus), len(b.lambda_plus), 6)
    assert np.allclose(a.lambda_plus[:n], b.lambda_plus[:n], rtol=1e-9)


def test_lanczos_flags_nonconvergence():
    H = _hilbert_truncation(2048)
    S = lanczos_extremes(
        lambda v: matvec(H, v), 2048, k=40, tol=1e-14, max_iter=12, seed=0
    )
    assert not S.converged
    # Partial results are still valid converged prefixes, never padded.
    assert len(S.lambda_plus) < 40


def test_lanczos_is_not_converged_when_its_norm_overflows():
    # ||A v||^2 overflows for entries of 1e200, so ||A||_est is infinite and
    # the zero band holds every value.
    d = 1e200 * np.linspace(-1.0, 1.0, 64)
    with np.errstate(over="ignore"):
        S = lanczos_extremes(lambda v: d * v, 64, k=4)
    assert math.isinf(S.details["norm_est"])
    assert not S.converged


def test_lanczos_vs_dense_random_hankel_ensemble():
    # 50 random symmetric Hankel truncations at N = 256: top-5 at both ends.
    for seed in range(50):
        rng = np.random.default_rng(seed)
        H = HankelTruncation(256, rng.standard_normal(511))
        dense = dense_spectrum(dense_matrix(H))
        S = lanczos_extremes(lambda v: matvec(H, v), 256, k=5, tol=1e-12, seed=seed)
        for got, want in ((S.lambda_plus, dense.lambda_plus), (S.lambda_minus, dense.lambda_minus)):
            m = min(5, len(want))
            assert len(got) >= m
            assert np.max(np.abs(got[:m] - want[:m]) / want[:m]) < 1e-9


def test_lanczos_spends_applies_only_on_the_recurrence():
    # The norm estimate comes from the recurrence itself: every operator
    # application is a counted Lanczos step.
    H = _hilbert_truncation(1024)
    calls = []

    def apply(v):
        calls.append(1)
        return matvec(H, v)

    S = lanczos_extremes(apply, 1024, k=10, tol=1e-12, seed=0)
    assert S.converged
    assert len(calls) == S.details["applies"]
    assert S.details["norm_est"] == pytest.approx(S.lambda_plus[0], rel=1e-12)


def test_lanczos_thick_restart_memory_is_basis_plus_vectors():
    # A 1/j spectrum at both ends is not low rank, so a small cap forces
    # thick restarts.  The restart rotates the basis in place: the traced
    # peak stays below V plus a few n-vectors, where a rotated copy of the
    # basis would add another 12 n-vectors (the 6 Ritz vectors kept per end).
    n, cap = 2**14, 20
    j = np.arange(1, n // 2 + 1)
    d = np.concatenate([1.0 / j, -1.0 / j])
    # Warm up numpy.linalg outside the trace: its first calls allocate once.
    lanczos_extremes(lambda v: d[:64] * v, 64, k=4, seed=0, basis_cap=cap)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        S = lanczos_extremes(lambda v: d * v, n, k=4, tol=1e-8, seed=0, basis_cap=cap)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert S.details["restarts"] >= 2
    assert S.converged
    assert np.allclose(S.lambda_plus[:4], 1.0 / j[:4], rtol=1e-8)
    basis_bytes = (cap + 1) * n * 8
    assert peak < basis_bytes + 8 * n * 8


def _triangle_truncation(M):
    # Midpoint Nystrom matrix of the kernel 1 on [0, 1]: A[i][j] = 1/M for
    # i + j + 1 <= M.  Its eigenvalues are 1 / (2 M sin((2k+1) pi / (2 (2M+1))))
    # for k = 0, 1, ..., alternating in sign, starting positive.
    return HankelTruncation(M, np.where(np.arange(2 * M - 1) < M, 1.0 / M, 0.0))


def _count_breakdowns(monkeypatch):
    """Counter of the fresh directions drawn after a breakdown."""
    count = [0]
    real = eigensolve._fresh_direction

    def spy(*args):
        count[0] += 1
        return real(*args)

    monkeypatch.setattr(eigensolve, "_fresh_direction", spy)
    return count


def _assert_triangle_values(S, M, count):
    """At least count values per end, each within 1e-12 ||A|| of the closed form.

    Compared position by position: a duplicated (ghost) value shifts every
    later one onto the wrong closed-form eigenvalue.
    """
    k = np.arange(2 * M)
    exact = 1.0 / (2.0 * M * np.sin((2 * k + 1) * math.pi / (2 * (2 * M + 1))))
    plus, minus = S.lambda_plus, S.lambda_minus
    assert len(plus) >= count and len(minus) >= count
    bound = 1e-12 * exact[0]
    assert np.max(np.abs(plus - exact[0::2][: len(plus)])) <= bound
    assert np.max(np.abs(minus - exact[1::2][: len(minus)])) <= bound


def test_lanczos_thick_restarts_reproduce_closed_form_eigenvalues(monkeypatch):
    breakdowns = _count_breakdowns(monkeypatch)
    M = 3000
    H = _triangle_truncation(M)
    S = solve(H, SolverParams(k=16, basis_cap=48))
    assert S.details["restarts"] >= 1
    assert S.converged
    _assert_triangle_values(S, M, 16)
    assert S.details["reorth_repeats"] <= S.details["restarts"] + breakdowns[0]


@pytest.mark.parametrize("seed", range(4))
def test_lanczos_partial_reorthogonalization_survives_thick_restarts(seed):
    # The first cycle skips global passes while the basis stays orthogonal to
    # within sqrt(eps), so the Ritz vectors a restart keeps are only that
    # orthogonal.  Skipping passes after the restart too lets orthogonality
    # collapse: the values returned were off by hundreds of ||A||.
    M = 4096
    S = solve(_triangle_truncation(M), SolverParams(k=16, basis_cap=48, seed=seed))
    assert S.details["restarts"] >= 1
    assert S.converged
    _assert_triangle_values(S, M, 16)


def test_lanczos_skips_global_passes_while_semi_orthogonal():
    # Without a restart, the omega estimate skips most global passes, and
    # the Ritz values stay as accurate as under full reorthogonalization.
    M = 4096
    for seed in range(2):
        S = solve(_triangle_truncation(M), SolverParams(k=16, seed=seed))
        assert S.details["restarts"] == 0
        assert S.converged
        assert 2 * S.details["reorth_passes"] < S.details["applies"]
        _assert_triangle_values(S, M, 16)


def test_lanczos_stopped_by_max_iter_uses_the_applied_basis_only():
    # Five applies of a positive definite operator: the sixth basis vector
    # was never applied, so it must not enter T, whose Ritz values would then
    # include one near its zero diagonal entry, outside the spectrum.
    d = np.linspace(1.0, 2.0, 400)
    for seed in range(4):
        S = lanczos_extremes(lambda v: d * v, d.size, k=4, tol=0.2, max_iter=5, seed=seed)
        assert not S.converged
        assert S.details["applies"] == S.details["basis_final"] == 5
        assert len(S.lambda_plus) > 0 and len(S.lambda_minus) == 0
        assert np.all((1.0 <= S.lambda_plus) & (S.lambda_plus <= 2.0))
        # Each residual bounds the distance to the spectrum.
        gap = np.min(np.abs(d[:, None] - S.lambda_plus[None, :]), axis=0)
        assert np.all(gap <= S.residuals_plus)


def _restart_rows(H, k, cap):
    """Solve H by Lanczos; return the result and the basis row each restart resumes at.

    Every apply receives a row of the basis, so its address gives the row
    index, and a restart is where that index falls.
    """
    addresses = []

    def apply(v):
        addresses.append(v.ctypes.data)
        return matvec(H, v)

    S = lanczos_extremes(apply, H.order, k=k, tol=1e-10, seed=0, basis_cap=cap)
    rows = (np.array(addresses) - addresses[0]) // (8 * H.order)
    return S, rows[np.flatnonzero(np.diff(rows) < 0) + 1]


def test_lanczos_restart_leaves_room_for_a_convergence_check():
    M, k = 3000, 8
    H = _triangle_truncation(M)
    # With room in the cap, a restart keeps at most cap - _CHECK_EVERY
    # vectors, so every rotation of the basis is followed by at least one
    # convergence check.
    cap = 32
    S, resumed = _restart_rows(H, k, cap)
    assert len(resumed) == S.details["restarts"] >= 2
    assert np.all(cap - resumed >= eigensolve._CHECK_EVERY)
    assert S.converged
    _assert_triangle_values(S, M, 0)
    # At the minimum cap 3k + 2 a restart keeps the k wanted values per end
    # and at most 32 more, and leaves room for k + 2 new steps, or for
    # _CHECK_EVERY and then k - 62 as the buffer grows: the room grows with
    # k, so a solve for many values per end restarts rarely.
    for k in (1, 8, 100):
        S, resumed = _restart_rows(H, k, 0)
        cap = S.details["basis_cap"]
        assert cap == 3 * k + 2
        assert len(resumed) == S.details["restarts"] >= 1
        assert np.all(resumed >= 2 * k)
        assert np.all(cap - resumed >= min(k + 2, max(eigensolve._CHECK_EVERY, k - 62)))
        assert S.converged


def test_lanczos_repeats_reorthogonalization_only_after_breakdowns(monkeypatch):
    # Two values of multiplicity two and a null space: the first Krylov
    # space breaks down after five steps, the one from the fresh direction
    # after three more, and the second fresh direction, a null vector,
    # breaks down at once and ends the solve.
    breakdowns = _count_breakdowns(monkeypatch)
    d = np.concatenate([[3.0, 2.0, 2.0, -1.0, -2.0, -2.0], np.zeros(1018)])
    S = lanczos_extremes(lambda v: d * v, d.size, k=8, seed=0)
    assert breakdowns[0] == 2 and S.details["applies"] == 9
    assert S.converged
    assert np.allclose(S.lambda_plus, [3.0, 2.0, 2.0], rtol=1e-12)
    assert np.allclose(S.lambda_minus, [2.0, 2.0, 1.0], rtol=1e-12)
    assert S.details["reorth_repeats"] <= S.details["restarts"] + breakdowns[0]


@pytest.mark.parametrize("k", [1, 8, 64])
def test_lanczos_finds_each_copy_of_a_value_before_the_null_space(k):
    # diag(1, 1, -1, 0, ...): the start vector's Krylov space breaks down
    # with one copy of 1 and a null vector in it.  Stopping there would miss
    # the second copy and count it in the band.
    d = np.concatenate([[1.0, 1.0, -1.0], np.zeros(1021)])
    D = dense_spectrum(np.diag(d))
    for seed in range(4):
        S = lanczos_extremes(lambda v: d * v, d.size, k=k, seed=seed)
        assert S.converged
        assert np.allclose(S.lambda_plus, D.lambda_plus, rtol=1e-12), seed
        assert np.allclose(S.lambda_minus, D.lambda_minus, rtol=1e-12), seed
        assert S.n_dropped == D.n_dropped == 1021, seed


def test_lanczos_identity_apply_leaves_basis_intact():
    # The solver updates the applied vector in place; an apply returning its
    # own argument, a row of the basis, must not corrupt the basis.
    S = lanczos_extremes(lambda v: v, 64, k=1, seed=0)
    assert S.converged
    assert np.allclose(S.lambda_plus, [1.0], rtol=1e-12)


def test_lanczos_rejects_bad_args():
    with pytest.raises(ValueError):
        lanczos_extremes(lambda v: v, 16, k=0)
    with pytest.raises(ValueError):
        lanczos_extremes(lambda v: v, 0, k=1)


# --------------------------------------------------------------- range finder


def _b_zero_grid(M):
    return build_graded(ContinuousKernelSpec(alpha=1.0, b_zero=1.0), GridSpec("geometric", 1e-12, 1.0, M))


def _full_rank(M):
    G = np.random.default_rng(7).standard_normal((M, M))
    return G + G.T


def test_range_route_covers_dense_matrices_from_order_256():
    # Below 4 RANGE_BLOCK columns the range finder has no room for one block:
    # it is the dense route from the start, bitwise, and records no blocks.
    small = _b_zero_grid(4 * RANGE_BLOCK - 1)
    S, D = solve(small, SolverParams()), dense_spectrum(small)
    assert S.solver_id == "dense" and S.details == D.details == {"norm_est": D.details["norm_est"]}
    assert np.array_equal(S.lambda_plus, D.lambda_plus)
    assert np.array_equal(S.lambda_minus, D.lambda_minus)
    assert S.n_dropped == D.n_dropped
    # From order 256 on it draws blocks (and here falls back after them).
    assert solve(_b_zero_grid(4 * RANGE_BLOCK), SolverParams()).details["blocks"] >= 1


def test_range_finder_returns_an_adversarial_tail():
    # 64 eigenvalues at 1 and 300 at 1e-9 in a random basis: the residual of
    # the second block is tiny against ||A|| but far above the zero band, so
    # the stop rule must not fire before the tail is resolved.
    M = 1024
    rng = np.random.default_rng(3)
    U = np.linalg.qr(rng.standard_normal((M, 364)))[0]
    d = np.concatenate([np.ones(64), np.full(300, 1e-9)])
    A = (U * d) @ U.T
    A = 0.5 * (A + A.T)
    S = solve(A, SolverParams())
    # The Krylov space of the top 64 is invariant: only a Gaussian probe
    # can find the tail.
    assert S.details["probes"] >= 1
    assert len(S.lambda_plus) == 364 and len(S.lambda_minus) == 0
    assert np.max(np.abs(S.lambda_plus - d)) <= 1e-12
    assert S.n_dropped == M - 364


class _CountedMatrix(np.ndarray):
    """A matrix that counts the matrix products it takes part in."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountedMatrix.products += 1
        inputs = tuple(x.view(np.ndarray) if isinstance(x, _CountedMatrix) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_range_finder_reuses_each_product_as_the_next_block(monkeypatch):
    # Each block that joins the basis costs one product with A, which is
    # also the next block of the Krylov space; Gaussian blocks cost one more
    # each, only to start and to certify the stop.  Drawing every block
    # from Gaussians took 7 products on this grid.
    A = _b_zero_grid(1024).view(_CountedMatrix)
    monkeypatch.setattr(_CountedMatrix, "products", 0)
    S = eigensolve._range_spectrum(A)
    assert not S.details["fell_back"] and S.details["basis_rank"] == 192
    gaussian = 1 + S.details["probes"]
    assert _CountedMatrix.products == gaussian + S.details["basis_rank"] // RANGE_BLOCK
    assert _CountedMatrix.products < 7


def test_range_finder_falls_back_bitwise_on_a_full_rank_matrix():
    A = _full_rank(1024)
    S = solve(A, SolverParams())
    D = dense_spectrum(A)
    assert S.details["fell_back"] is True
    assert S.details["blocks"] <= 3
    assert S.solver_id == D.solver_id == "dense"
    for name in ("lambda_plus", "lambda_minus", "residuals_plus", "residuals_minus"):
        assert np.array_equal(getattr(S, name), getattr(D, name)), name
    assert S.n_dropped == D.n_dropped
    assert S.details["norm_est"] == D.details["norm_est"]


def test_range_finder_checks_symmetry_first():
    A = _full_rank(256)
    A[0, 255] += 1e-6
    with pytest.raises(ValueError, match="not symmetric"):
        solve(A, SolverParams())


def test_range_finder_on_the_zero_matrix_drops_every_value():
    S = solve(np.zeros((256, 256)), SolverParams())
    assert S.solver_id == "randomized_range_finder"
    assert S.details["blocks"] == 1 and S.details["basis_rank"] == 0
    assert len(S.lambda_plus) == len(S.lambda_minus) == 0
    assert S.n_dropped == 256


def _counting_qr(monkeypatch):
    calls = []
    qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


def test_range_finder_falls_back_to_householder_on_a_rank_deficient_block(monkeypatch):
    # Rank 63 leaves the first 64-column block rank deficient to rounding:
    # Cholesky QR cannot make it orthonormal, so Householder QR must.
    M, rank = 1024, 63
    rng = np.random.default_rng(63)
    U = np.linalg.qr(rng.standard_normal((M, rank)))[0]
    d = rng.choice([-1.0, 1.0], rank) * np.logspace(0, -6, rank)
    A = (U * d) @ U.T
    A = 0.5 * (A + A.T)
    calls = _counting_qr(monkeypatch)
    S = solve(A, SolverParams())
    assert calls, "the Householder branch did not run"
    assert S.solver_id == "randomized_range_finder" and not S.details["fell_back"]
    D = dense_spectrum(A)
    assert len(S.lambda_plus) == len(D.lambda_plus)
    assert len(S.lambda_minus) == len(D.lambda_minus)
    assert S.n_dropped == D.n_dropped
    norm = D.details["norm_est"]
    assert np.max(np.abs(S.lambda_plus - D.lambda_plus)) <= 1e-12 * norm
    assert np.max(np.abs(S.lambda_minus - D.lambda_minus)) <= 1e-12 * norm


def test_range_finder_orthonormalizes_the_b_zero_grid_by_cholesky_qr(monkeypatch):
    A = _b_zero_grid(1024)
    calls = _counting_qr(monkeypatch)
    S = solve(A, SolverParams())
    assert S.solver_id == "randomized_range_finder" and not S.details["fell_back"]
    assert calls == []


def test_orthonormal_rows_spans_a_well_conditioned_block():
    Y = np.random.default_rng(5).standard_normal((RANGE_BLOCK, 1024))
    X = eigensolve._orthonormal_rows(Y)
    assert np.max(np.abs(X @ X.T - np.eye(RANGE_BLOCK))) <= 1e-13
    # Y lies in the span of the rows of X.
    assert np.max(np.abs(Y - (Y @ X.T) @ X)) <= 1e-12 * np.max(np.abs(Y))


@pytest.mark.parametrize("matrix", [_b_zero_grid, _full_rank], ids=["b_zero", "full-rank"])
def test_range_route_peak_is_within_solve_bytes(matrix):
    M = 1024
    A = matrix(M)
    solve(matrix(256), SolverParams())  # numpy.linalg allocates once on first use
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        S = solve(A, SolverParams())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert S.details["fell_back"] is (matrix is _full_rank)
    assert A.nbytes + peak <= solve_bytes(M, "matrix", 64, 600)


@pytest.mark.parametrize("M", [700, 1024])
def test_range_finder_peak_is_within_its_count(M):
    # The finder holds its basis, the Rayleigh quotient and the copy eigvalsh
    # factors, the product of the newest block with A and four more blocks.
    # From about M = 700 up the dense copy is larger, so solve_bytes alone
    # would not see a finder that holds more than its count.  The kernel
    # 1/t keeps the finder from falling back at 700 points, where b_zero's
    # rank does not fit range_cap.
    cap = eigensolve.range_cap(M)
    finder = 8 * (M * cap + 2 * cap * cap + 5 * RANGE_BLOCK * M)
    assert solve_bytes(M, "matrix", 64, 600) == 8 * M * M + max(8 * M * M, finder)
    A = build_graded(lambda t: 1.0 / t, GridSpec("geometric", 1e-12, 1.0, M))
    solve(_b_zero_grid(256), SolverParams())  # numpy.linalg allocates once on first use
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        S = solve(A, SolverParams())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert S.solver_id == "randomized_range_finder"
    assert peak <= finder


def test_lanczos_route_peak_is_within_solve_bytes():
    _check_lanczos_peak(2**14)


@pytest.mark.parametrize("M", [64, 1024])
def test_lanczos_route_peak_is_within_solve_bytes_at_small_orders(M):
    _check_lanczos_peak(M)


def _check_lanczos_peak(M):
    params = SolverParams(k=8, basis_cap=40)
    H = _triangle_truncation(M)
    solve(_triangle_truncation(M), params)  # first-use allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        S = solve(H, params)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert S.solver_id == "lanczos_partial_reorth_thick_restart"
    assert S.details["restarts"] >= (M > 64)
    held = H.entries.nbytes + H._alpha.nbytes + H._beta.nbytes
    assert held + peak <= solve_bytes(M, "entries", 8, 40)


# ------------------------------------------------------------------- counting


def test_counting_examples():
    S = _result([3.0, 2.0, 1.0], [1.0])
    assert counting(S, 1.5) == (2, 0, 2)
    assert counting(S, 0.5) == (3, 1, 4)
    empty = _result([], [])
    assert counting(empty, 1.0) == (0, 0, 0)


def test_counting_identity_and_domain():
    S = _result([0.9, 0.5, 0.1], [0.7, 0.2])
    for lam in [0.05, 0.15, 0.3, 0.6, 0.8, 1.0]:
        n_plus, n_minus, n = counting(S, lam)
        assert n == n_plus + n_minus
        merged = np.concatenate([S.lambda_plus, S.lambda_minus])
        assert n == int(np.sum(merged > lam))
    with pytest.raises(ValueError):
        counting(S, 0.0)


# ------------------------------------------------------------ Weyl inequality


def test_weyl_counting_inequality_sample():
    # n_+(l1+l2; A+B) <= n_+(l1; A) + n_+(l2; B) on random pairs.
    rng = np.random.default_rng(123)
    for _ in range(40):
        n = int(rng.integers(2, 65))
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2.0
        B = rng.standard_normal((n, n))
        B = (B + B.T) / 2.0
        l1, l2 = rng.uniform(0.05, 2.0, size=2)
        nAB = counting(dense_spectrum(A + B), l1 + l2)[0]
        nA = counting(dense_spectrum(A), l1)[0]
        nB = counting(dense_spectrum(B), l2)[0]
        assert nAB <= nA + nB


# ---------------------------------------------------------------------- solve


def test_concurrent_solves_share_a_truncation():
    # Each solve owns its matvec workspace, so threads solving the same
    # truncation at once return the serial spectrum bit for bit.
    N = 2560
    H = _hilbert_truncation(N)
    params = SolverParams(k=6, tol=1e-10, seed=3)
    want = solve(H, params)
    assert want.solver_id.startswith("lanczos")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(solve, H, params) for _ in range(3)]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for S in got:
        assert np.array_equal(S.lambda_plus, want.lambda_plus)
        assert np.array_equal(S.lambda_minus, want.lambda_minus)
        assert S.details == want.details


def test_solve_dispatches_on_the_operator_type():
    # One route per operator type, whatever the order.  Eight applications
    # are enough to see the route and the request.
    params = SolverParams(k=4, max_iter=8)
    A = np.array([[2.0, 0.0], [0.0, -3.0]])
    assert solve(A, params).solver_id == "dense"
    spec = DiscreteSymbolSpec(alpha=1.0, b_plus1=1.0)
    assert solve(DiscreteTruncation(spec, 16), params).solver_id == "expsum"
    assert solve(_hilbert_truncation(16), params).solver_id.startswith("lanczos")
    big = _hilbert_truncation(4096)
    S = solve(big, params)
    assert S.solver_id.startswith("lanczos")
    assert S.details["applies"] == 8
    assert S.details["requested_per_end"] == 4
    assert solve(big, params, k=6).details["requested_per_end"] == 6


def _rank_one(M):
    # h(t) = e^-t: h(s + t) = e^-s e^-t, so every truncation has rank one.
    return build_uniform(lambda t: np.exp(-t), 10.0, M)


def _b_inf(M):
    # A tail whose singular values fall below the zero band after a few dozen.
    return build_uniform(ContinuousKernelSpec(alpha=2.0, b_inf=1.0), 1000.0, M)


@pytest.mark.parametrize("M", [16, 256, 1024, 2048])
@pytest.mark.parametrize("kernel", [_triangle_truncation, _rank_one, _b_inf], ids=["triangle", "rank-one", "b_inf"])
def test_lanczos_returns_what_dense_returns(kernel, M):
    # Lanczos stops at k = 64 values per end or where an end reaches the zero
    # band; it must return dense's values there, and count the same band.
    H = kernel(M)
    D = dense_spectrum(dense_matrix(H))
    norm = D.details["norm_est"]
    for seed in range(4):
        S = solve(H, SolverParams(seed=seed))
        assert S.converged
        for got, want in ((S.lambda_plus, D.lambda_plus), (S.lambda_minus, D.lambda_minus)):
            if len(want) <= 64:
                assert len(got) == len(want), seed
            else:
                assert 64 <= len(got) < len(want), seed
            assert np.max(np.abs(got - want[: len(got)]), initial=0.0) <= 1e-12 * norm
        assert S.n_dropped == D.n_dropped, seed


def test_lanczos_stops_on_a_rank_one_kernel_at_once():
    for M in (256, 4096):
        S = solve(_rank_one(M), SolverParams())
        assert S.details["applies"] <= 10
        assert len(S.lambda_plus) == 1 and len(S.lambda_minus) == 0
        assert S.n_dropped == M - 1
