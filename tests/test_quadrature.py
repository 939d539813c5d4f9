"""Nystrom discretization tests against analytic kernel oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from hankelspec import eigensolve, quadrature
from hankelspec.eigensolve import dense_spectrum, solve_bytes
from hankelspec.hankel_core import HankelTruncation, ResourceLimitError, dense_matrix
from hankelspec.model import ContinuousKernelSpec, UnsupportedCombinationError
from hankelspec.quadrature import (
    GridSpec,
    build_from_grid,
    build_graded,
    build_uniform,
    convergence_report,
    geometric_nodes,
    suggest_domain,
    tail_bound,
)
from hankelspec.sequences import eval_kernel_many

RANK_ONE = lambda t: np.exp(-t)  # noqa: E731  kernel e^{-(t+s)} = e^{-t} e^{-s}


# ------------------------------------------------------------------ grid spec


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec("cubic", 1e-8, 1.0, 64)
    with pytest.raises(ValueError):
        GridSpec("geometric", 1.0, 0.5, 64)
    with pytest.raises(ValueError):
        GridSpec("uniform", 1e-8, 1.0, 8)


def test_geometric_nodes_cover_range():
    g = GridSpec("geometric", 1e-6, 100.0, 256)
    t, w = geometric_nodes(g)
    assert len(t) == 256
    assert np.all(np.diff(t) > 0)
    assert t[0] > 1e-6 and t[-1] < 100.0
    # Weights integrate dt = t d(log t) exactly on the log-midpoint rule.
    assert np.sum(w) == pytest.approx(
        np.sum(t) * math.log(100.0 / 1e-6) / 256, rel=1e-12
    )


# -------------------------------------------------------------- uniform grids


def test_uniform_rank_one_kernel():
    H = build_uniform(RANK_ONE, 40.0, 4096)
    S = dense_spectrum(dense_matrix(H))
    assert S.lambda_plus[0] == pytest.approx(0.5, abs=1e-4)
    others = np.concatenate([S.lambda_plus[1:], S.lambda_minus])
    assert others.size == 0 or np.max(others) <= 1e-8


def test_uniform_triangle_leading_eigenvalues(triangle_spectrum_4096):
    S = triangle_spectrum_4096
    assert S.lambda_plus[0] == pytest.approx(2.0 / math.pi, rel=1e-3)
    assert S.lambda_minus[0] == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-3)


def test_uniform_zero_kernel():
    spec = ContinuousKernelSpec(alpha=1.0)
    H = build_uniform(spec, 10.0, 64)
    assert np.array_equal(H.entries, np.zeros(127))


def test_uniform_is_exactly_hankel():
    spec = ContinuousKernelSpec(alpha=1.0, local_singularities=[(1.0, 0, 1.0)])
    M = 32
    H = build_uniform(spec, 1.0, M)
    assert isinstance(H, HankelTruncation)
    w = 1.0 / M
    A = dense_matrix(H)
    from hankelspec.sequences import eval_kernel_many

    for i in [0, 3, 31]:
        for j in [0, 7, 31]:
            h = eval_kernel_many(spec, [(i + j + 1) * w])[0]
            assert A[i, j] == pytest.approx(w * h, rel=1e-14)


def test_uniform_rejects_b_zero():
    spec = ContinuousKernelSpec(alpha=1.0, b_zero=1.0)
    with pytest.raises(UnsupportedCombinationError, match="build_graded"):
        build_uniform(spec, 10.0, 64)


def test_uniform_rejects_bad_domain():
    with pytest.raises(ValueError):
        build_uniform(RANK_ONE, -1.0, 64)
    with pytest.raises(ValueError):
        build_uniform(RANK_ONE, 1.0, 4)


# --------------------------------------------------------------- graded grids


def test_graded_rank_one_kernel():
    g = GridSpec("geometric", 1e-8, 40.0, 2048)
    A = build_graded(RANK_ONE, g)
    S = dense_spectrum(A)
    assert S.lambda_plus[0] == pytest.approx(0.5, abs=1e-6)
    others = np.concatenate([S.lambda_plus[1:], S.lambda_minus])
    assert others.size == 0 or np.max(others) <= 1e-8


def test_graded_matrix_symmetric():
    g = GridSpec("geometric", 1e-10, 5.0, 128)
    spec = ContinuousKernelSpec(alpha=1.0, b_zero=1.0)
    A = build_graded(spec, g)
    assert np.array_equal(A, A.T)


# Between them these kernels take every branch of the evaluator: chi0's band
# with b_zero, the tail with an oscillation and chi_inf's band, a local
# singularity of order m = 1, and a plain callable.
BRANCH_KERNELS = {
    "b_zero": ContinuousKernelSpec(alpha=1.0, b_zero=1.0),
    "zero-tail": ContinuousKernelSpec(
        alpha=2.0, b_zero=1.0, b_inf=-0.5, oscillations=[(3.0, 0.25, 0.5)]
    ),
    "local-tail": ContinuousKernelSpec(
        alpha=2.0, b_inf=1.0, oscillations=[(3.0, 0.25, -0.5)], local_singularities=[(0.75, 1, -2.0)]
    ),
    "callable": RANK_ONE,
}


def _count_threads(monkeypatch, cpus: int) -> list:
    """Make build_graded see `cpus` CPUs; the list collects the thread count of each build."""
    monkeypatch.setattr(quadrature, "_cpu_count", lambda: cpus)
    used = []
    workers = quadrature._workers

    def spy(M):
        used.append(workers(M))
        return used[-1]

    monkeypatch.setattr(quadrature, "_workers", spy)
    return used


@pytest.mark.parametrize("rows", [16, 256])
def test_graded_blocked_build_matches_full_formula(monkeypatch, rows):
    # M = 300 is not a multiple of either block height, and t_max = 8 puts
    # node sums past C2.  Two threads fit their scratch into 8 M^2 bytes only
    # with 16-row blocks, so 256-row blocks are built on one.
    monkeypatch.setattr(quadrature, "_GRADED_ROWS", rows)
    g = GridSpec("geometric", 1e-12, 8.0, 300)
    t, w = geometric_nodes(g)
    sw = np.sqrt(w)
    sums = np.add.outer(t, t).ravel()
    for name, kernel in BRANCH_KERNELS.items():
        if name == "callable":
            want = kernel(sums).reshape(300, 300)
        else:
            want = eval_kernel_many(kernel, sums).reshape(300, 300)
        want *= np.multiply.outer(sw, sw)
        for cpus in (1, 2):
            used = _count_threads(monkeypatch, cpus)
            A = build_graded(kernel, g)
            assert used == [cpus if rows == 16 else 1]
            assert np.array_equal(A.view(np.int64), want.view(np.int64)), (name, cpus)
            assert np.array_equal(A, A.T)


class BlockError(Exception):
    pass


@pytest.mark.parametrize("cpus", [1, 2])
def test_graded_build_raises_a_threads_error(monkeypatch, cpus):
    # The callable fails on the block that starts at row 64 only, while
    # other blocks run on the other threads.
    monkeypatch.setattr(quadrature, "_GRADED_ROWS", 16)
    used = _count_threads(monkeypatch, cpus)
    g = GridSpec("geometric", 1e-12, 8.0, 300)
    t, _ = geometric_nodes(g)

    def kernel(s):
        if s[0, 0] == t[64] + t[64]:
            raise BlockError("block 64")
        return np.exp(-s)

    with pytest.raises(BlockError, match="block 64"):
        build_graded(kernel, g)
    assert used == [cpus]


@pytest.mark.parametrize("cpus", [1, 2])
def test_graded_build_refuses_a_kernel_of_the_wrong_shape(monkeypatch, cpus):
    # One row of values would broadcast over the whole block.
    monkeypatch.setattr(quadrature, "_GRADED_ROWS", 16)
    _count_threads(monkeypatch, cpus)
    g = GridSpec("geometric", 1e-12, 8.0, 300)
    with pytest.raises(ValueError, match="shape"):
        build_graded(lambda s: np.exp(-s[0]), g)


@pytest.mark.parametrize(
    "name, t_min, t_max",
    [
        ("b_zero", 1e-12, 1.0),
        ("zero-tail", 1e-12, 8.0),
        # Every node sum inside chi0's band, then inside chi_inf's: the
        # evaluator's band arrays are as large as they get.
        ("zero-tail", 0.126, 0.249),
        ("local-tail", 0.76, 0.99),
        ("callable", 1e-8, 40.0),
    ],
)
def test_graded_peak_is_within_its_scratch_and_solve_bytes(monkeypatch, name, t_min, t_max):
    M = 2048
    used = _count_threads(monkeypatch, 2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        A = build_graded(BRANCH_KERNELS[name], GridSpec("geometric", t_min, t_max, M))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert used == [2] and A.nbytes == 8 * M * M
    scratch = quadrature._SCRATCH_PER_POINT * quadrature._GRADED_ROWS * M
    assert peak <= 8 * M * M + 2 * scratch
    assert peak <= solve_bytes(M, "matrix", eigensolve.SolverParams())


def test_graded_zero_kernel():
    g = GridSpec("geometric", 1e-6, 1.0, 32)
    A = build_graded(ContinuousKernelSpec(alpha=1.0), g)
    assert np.array_equal(A, np.zeros((32, 32)))


def test_graded_requires_geometric_grid():
    with pytest.raises(ValueError, match="geometric"):
        build_graded(RANK_ONE, GridSpec("uniform", 1e-8, 1.0, 64))


def test_graded_resource_limit():
    # 8 TiB for the matrix: refused before the nodes are computed.
    g = GridSpec("geometric", 1e-8, 1.0, 2**20)
    with pytest.raises(ResourceLimitError, match="bytes of physical memory"):
        build_graded(RANK_ONE, g)


def test_graded_q0_negative_channel_subordinate():
    # The t->0 singular kernel is one-signed to leading order: the negative
    # channel decays faster than n^{-alpha}, so the per-n ratio collapses.
    spec = ContinuousKernelSpec(alpha=1.0, b_zero=1.0)
    g = GridSpec("geometric", 1e-12, 1.0, 4096)
    S = dense_spectrum(build_graded(spec, g))
    assert len(S.lambda_plus) >= 8
    assert len(S.lambda_minus) >= 4
    ratios = S.lambda_minus[:4] / S.lambda_plus[:4]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[2] < 0.05
    # Leading channel tracks the predicted coefficient kappa(1) = 0.5.
    n = np.arange(3, 7)
    scaled = n * S.lambda_plus[2:6]
    assert abs(np.median(scaled) - 0.5) < 0.15 * 0.5


def test_graded_rank_one_kernel_stops_after_two_blocks():
    A = build_graded(RANK_ONE, GridSpec("geometric", 1e-8, 40.0, 2048))
    S = eigensolve.solve(A, eigensolve.SolverParams())
    assert S.solver_id == "randomized_range_finder"
    assert S.details["blocks"] <= 2 and not S.details["fell_back"]
    assert S.lambda_plus[0] == pytest.approx(0.5, abs=1e-6)
    assert len(S.lambda_plus) == 1 and len(S.lambda_minus) == 0


@pytest.mark.parametrize("M", [512, 1024, 2048, 4096])
def test_graded_range_finder_agrees_with_dense(M):
    spec = ContinuousKernelSpec(alpha=1.0, b_zero=1.0)
    A = build_graded(spec, GridSpec("geometric", 1e-12, 1.0, M))
    S = eigensolve.solve(A, eigensolve.SolverParams())
    D = dense_spectrum(A)
    assert len(S.lambda_plus) == len(D.lambda_plus)
    assert len(S.lambda_minus) == len(D.lambda_minus)
    assert S.n_dropped == D.n_dropped
    norm = D.details["norm_est"]
    assert np.max(np.abs(S.lambda_plus - D.lambda_plus)) <= 1e-12 * norm
    assert np.max(np.abs(S.lambda_minus - D.lambda_minus)) <= 1e-12 * norm


def test_build_from_grid_dispatch():
    spec = ContinuousKernelSpec(alpha=1.0, b_inf=1.0)
    H = build_from_grid(spec, GridSpec("uniform", 1e-8, 20.0, 64))
    assert isinstance(H, HankelTruncation)
    A = build_from_grid(spec, GridSpec("geometric", 1e-8, 20.0, 64))
    assert isinstance(A, np.ndarray)


# ----------------------------------------------------------------- tail policy


def test_tail_bound_oscillating():
    spec = ContinuousKernelSpec(alpha=1.0, oscillations=[(1.0, 0.0, 1.0)])
    T = 1000.0
    expected = 2.0 * 1.0 * 2.0 / (T * math.log(T))
    assert tail_bound(spec, T) == pytest.approx(expected, rel=1e-12)
    # The bound decreases in T.
    assert tail_bound(spec, 2000.0) < tail_bound(spec, 1000.0)


def test_tail_bound_mass_term():
    spec = ContinuousKernelSpec(alpha=2.0, b_inf=1.0)
    T = math.e**4
    assert tail_bound(spec, T) == pytest.approx(1.0 / math.log(T), rel=1e-12)


def test_tail_bound_divergent_mass_rejected():
    spec = ContinuousKernelSpec(alpha=1.0, b_inf=1.0)
    with pytest.raises(UnsupportedCombinationError, match="alpha"):
        tail_bound(spec, 100.0)


def test_suggest_domain_meets_target():
    spec = ContinuousKernelSpec(alpha=1.0, oscillations=[(1.0, 0.0, 1.0)])
    T, report = suggest_domain(spec, eigen_scale=0.02, target_ratio=1e-4)
    assert report["bound"] <= report["target"]
    assert report["bound"] == pytest.approx(tail_bound(spec, T), rel=1e-12)
    # Tighter targets push the domain out.
    T2, _ = suggest_domain(spec, eigen_scale=0.002, target_ratio=1e-4)
    assert T2 > T


def test_suggest_domain_compact_kernel():
    spec = ContinuousKernelSpec(alpha=1.0, local_singularities=[(3.0, 0, 1.0)])
    T, report = suggest_domain(spec, eigen_scale=0.1)
    assert T >= 6.0
    assert report["bound"] == 0.0


# ---------------------------------------------------------- convergence report


def _converge(spec, grids, window):
    """convergence_report of each grid's spectrum, solved for 2 n_max values per end."""
    params = eigensolve.SolverParams(k=max(2 * window[1], 16))
    spectra = [eigensolve.solve(build_from_grid(spec, g), params) for g in grids]
    return convergence_report(grids, spectra, window=window), spectra


def test_convergence_rank_one_geometric():
    grids = [GridSpec("geometric", 1e-8, 40.0, M) for M in (512, 1024, 2048)]
    rep, _ = _converge(RANK_ONE, grids, window=(1, 1))
    assert all(c <= 1e-6 for c in rep.changes)


def test_convergence_triangle_shrinks():
    spec = ContinuousKernelSpec(alpha=1.0, local_singularities=[(1.0, 0, 1.0)])
    grids = [GridSpec("uniform", 1e-12, 1.0, M) for M in (256, 512, 1024)]
    rep, _ = _converge(spec, grids, window=(1, 8))
    assert rep.changes[0] / rep.changes[1] >= 2.0
    assert rep.improving


def test_convergence_identical_grids():
    spec = ContinuousKernelSpec(alpha=1.0, local_singularities=[(1.0, 0, 1.0)])
    grids = [GridSpec("uniform", 1e-12, 1.0, 256)] * 2
    rep, _ = _converge(spec, grids, window=(1, 4))
    assert rep.changes == [0.0]


def test_convergence_above_dense_solve_limit_uses_lanczos():
    # M = 2500 and 3000 lie between the dense-solve limit (2048) and the
    # dense materialization limit (8192): the iterative route must be taken
    # and must reproduce the exact Nystrom eigenvalues of the triangle kernel.
    # With A[i][j] = w for i + j + 1 <= M (w = t0/M) the eigenvalues are
    # t0 / (2 M sin((2k+1) pi / (2 (2M+1)))), k = 0, 1, ..., alternating in
    # sign from the sign of coeff.
    spec = ContinuousKernelSpec(alpha=1.0, local_singularities=[(1.0, 0, 1.0)])
    sizes = (2500, 3000)
    grids = [GridSpec("uniform", 1e-12, 1.0, M) for M in sizes]
    rep, spectra = _converge(spec, grids, window=(1, 8))
    for S in spectra:
        assert S.solver_id == "lanczos_partial_reorth_thick_restart" and S.converged
    for M, plus, minus in zip(sizes, rep.tables_plus, rep.tables_minus):
        k = np.arange(16)
        exact = 1.0 / (2.0 * M * np.sin((2 * k + 1) * math.pi / (2 * (2 * M + 1))))
        assert len(plus) == 8 and len(minus) == 8
        bound = 1e-10 * exact[0]
        assert np.max(np.abs(plus - exact[0::2])) <= bound
        assert np.max(np.abs(minus - exact[1::2])) <= bound


def test_convergence_needs_two_grids():
    with pytest.raises(ValueError):
        _converge(RANK_ONE, [GridSpec("uniform", 1e-8, 1.0, 64)], window=(1, 8))


def test_convergence_needs_one_spectrum_per_grid():
    grids = [GridSpec("uniform", 1e-8, 1.0, M) for M in (64, 128)]
    _, spectra = _converge(RANK_ONE, grids, window=(1, 1))
    with pytest.raises(ValueError, match="one spectrum per grid"):
        convergence_report(grids, spectra[:1], window=(1, 1))
