"""Exponential-sum factorization: nodes, dense and Lanczos oracles, the paper's regime."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from hankelspec import expsum
from hankelspec.analysis import SolverParams, discrete_spectrum, window_scaled_median
from hankelspec.eigensolve import dense_spectrum, solve
from hankelspec.hankel_core import DiscreteTruncation, build_discrete, dense_matrix
from hankelspec.model import DiscreteSymbolSpec, Perturbation

B1 = DiscreteSymbolSpec(alpha=1.0, b_plus1=1.0)
BM1 = DiscreteSymbolSpec(alpha=1.0, b_minus1=1.0)
SPECS = {
    "b1": B1,
    "b_minus1": BM1,
    "oscillation": DiscreteSymbolSpec(alpha=1.0, oscillations=[(1.1, 0.7, 0.8)]),
    "perturbation": DiscreteSymbolSpec(
        alpha=0.5, b_plus1=1.0, perturbation=Perturbation(-0.7, 0.5)
    ),
    "combined": DiscreteSymbolSpec(
        alpha=2.0,
        b_plus1=1.0,
        b_minus1=-0.5,
        oscillations=[(math.pi / 2, 0.0, 1.0), (0.3, 1.0, -0.4)],
        perturbation=(0.3, 1.0),
    ),
}
# The spec of the discrete benchmark workload: b1 plus the phi = pi/2 oscillation.
B1_OSC = DiscreteSymbolSpec(alpha=1.0, b_plus1=1.0, oscillations=[(math.pi / 2, 0.0, 1.0)])
# Three oscillations whose b e^{-i psi} is not a positive real.
ROTATED = DiscreteSymbolSpec(alpha=1.5, oscillations=[(1.0, 0.5, -0.75), (2.0, -1.2, 0.4), (0.4, 2.0, 1.0)])
AGREE = 1e-12  # relative to ||A||


def _channels(theta, norm):
    """(positive, negative magnitudes) outside the zero band, non-increasing."""
    band = 1e-13 * norm
    return np.sort(theta[theta > band])[::-1], np.sort(-theta[theta < -band])[::-1]


def _prefix_gap(a, b) -> float:
    n = min(len(a), len(b))
    return float(np.max(np.abs(a[:n] - b[:n]), initial=0.0))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("N", [2048, 2**18, math.ceil(math.exp(200))], ids=["2^11", "2^18", "e^200"])
def test_node_sum_reproduces_the_decay_profile(alpha, N):
    log_s = expsum.nodes(N)
    w = expsum.weights(log_s, alpha)
    log_x = np.linspace(math.log(32), math.log(2 * N), 300)
    got = np.exp(-np.outer(np.exp(log_x), np.exp(log_s))) @ w
    want = np.exp(-log_x) / log_x**alpha
    assert np.max(np.abs(got / want - 1.0)) <= 1e-13


@mpmath.workdps(30)
def test_weights_match_the_mpmath_integral():
    for alpha in (0.5, 2.0):
        for log_s in (math.log(1.5), -5.0, -120.0):
            def integrand(y):
                u = mpmath.e**y
                return mpmath.e**(alpha * y + u * log_s) / mpmath.gamma(1 + u)

            g = mpmath.quad(integrand, [-mpmath.inf, -50, -10, 0, 5]) / mpmath.gamma(alpha)
            want = float(expsum._STEP * mpmath.e**log_s * g)
            got = float(expsum.weights([log_s], alpha)[0])
            assert abs(got / want - 1.0) <= 1e-13


@pytest.mark.parametrize("phi", [0.1, 1.1, math.pi / 2, 3.0])
@pytest.mark.parametrize("n", [0, 1, 32, 2**18 - 32, 10**15 + 7, 2**53])
@mpmath.workdps(60)
def test_phase_reduction_is_exact(phi, n):
    want = mpmath.mpf(phi) * n
    want = float(want - mpmath.nint(want / (2 * mpmath.pi)) * 2 * mpmath.pi)
    assert abs(expsum._angle(phi, n) - want) <= 4e-16


@pytest.mark.parametrize("name", list(SPECS))
@pytest.mark.parametrize("N", [2, 16, 32, 33, 64, 256, 512, 2048])
def test_matches_dense_eigvalsh(name, N):
    spec = SPECS[name]
    theta, details = expsum.eigenvalues(spec, N)
    dense = np.linalg.eigvalsh(dense_matrix(build_discrete(spec, N)))
    if N <= expsum.HEAD:
        # The head block is the whole matrix: the same eigvalsh call.
        assert np.array_equal(theta, dense)
        assert details["columns"] == 0
    norm = float(np.max(np.abs(dense)))
    # Every eigenvalue: the ones the factorization does not return are zero.
    full = np.sort(np.concatenate([theta, np.zeros(N - len(theta))]))
    assert np.max(np.abs(full - dense)) <= AGREE * norm
    got, want = _channels(theta, norm), _channels(dense, norm)
    assert [len(c) for c in got] == [len(c) for c in want]
    assert details["head_order"] == min(expsum.HEAD, N)
    assert len(theta) == details["head_order"] + details["gram_rank"]


@pytest.mark.parametrize(
    "spec, N", [(B1_OSC, 2**14), (B1_OSC, 2**18), (SPECS["oscillation"], 2**14)],
    ids=["16384", "262144", "oscillation-16384"],
)
def test_matches_tight_lanczos(spec, N):
    lanczos = solve(build_discrete(spec, N), SolverParams(k=120, tol=1e-13))
    assert lanczos.converged
    theta, _ = expsum.eigenvalues(spec, N)
    norm = float(np.max(np.abs(theta)))
    plus, minus = _channels(theta, norm)
    assert _prefix_gap(plus, lanczos.lambda_plus) <= AGREE * norm
    assert _prefix_gap(minus, lanczos.lambda_minus) <= AGREE * norm
    assert min(len(plus), len(minus)) >= 30


@pytest.mark.parametrize(
    "spec, N", [(B1_OSC, 2**18), (SPECS["combined"], 2**14), (B1, math.ceil(math.exp(100)))],
    ids=["b1-osc-2^18", "combined-2^14", "b1-e^100"],
)
def test_independent_of_the_node_step(monkeypatch, spec, N):
    spectra = []
    for step in (0.3, 0.2):
        monkeypatch.setattr(expsum, "_STEP", step)
        theta, _ = expsum.eigenvalues(spec, N)
        norm = float(np.max(np.abs(theta)))
        spectra.append(_channels(theta, norm))
    for a, b in zip(*spectra):
        assert _prefix_gap(a, b) <= AGREE * norm


def test_solve_reports_the_route():
    S = solve(DiscreteTruncation(B1_OSC, 2**14), SolverParams(seed=7, tol=1e-3))
    assert (S.solver_id, S.seed, S.tol, S.converged) == ("expsum", 0, 0.0, True)
    assert not np.any(S.residuals_plus) and not np.any(S.residuals_minus)
    assert {"nodes", "columns", "gram_rank", "head_order"} <= set(S.details)
    for N in (2, 32, 33, 2048):
        assert solve(DiscreteTruncation(B1_OSC, N), SolverParams()).solver_id == "expsum"
    # The dense reference, called directly: a dense matrix given to solve
    # goes to the range finder, whose fallback to it rests on its stop rule.
    dense = dense_spectrum(dense_matrix(build_discrete(B1_OSC, 2048)))
    # Both routes are exhaustive: every eigenvalue not returned is in the zero band.
    for R in (S, dense):
        assert len(R.lambda_plus) + len(R.lambda_minus) + R.n_dropped == R.order


def test_oscillation_orders_beyond_the_phase_limit_refused():
    with pytest.raises(ValueError, match="reduced exactly"):
        expsum.eigenvalues(B1_OSC, expsum.PHASE_ORDER_LIMIT + 1)
    theta, _ = expsum.eigenvalues(BM1, expsum.PHASE_ORDER_LIMIT**3)
    assert theta[-1] > 0.0


@pytest.mark.parametrize(
    "spec, N",
    [
        pytest.param(spec, 2**log2, id=f"{name}-2^{log2}")
        for name, spec in [("b1", B1), ("b1-osc", B1_OSC), ("combined", SPECS["combined"]), ("rotated", ROTATED)]
        for log2 in (10, 18, 40)
    ] + [pytest.param(B1, math.ceil(math.exp(200)), id="b1-e^200")],
)
def test_solve_stays_within_solve_bytes(spec, N):
    expsum.eigenvalues(spec, 2**10)  # numpy.linalg allocates once on first use
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        expsum.eigenvalues(spec, N)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= expsum.solve_bytes(spec, N)


def test_solve_bytes_grows_with_log_order_only():
    small = expsum.solve_bytes(B1_OSC, 2**14)
    assert small < expsum.solve_bytes(B1_OSC, 2**40) < 4 * small
    assert expsum.solve_bytes(B1_OSC, 2**40) < 64 << 20


@pytest.mark.parametrize("spec", [B1, BM1], ids=["b1", "b_minus1"])
def test_paper_regime_at_log_order_200(spec):
    # At N = e^200 the window [8, 32] lies inside the resolution horizon
    # alpha log N / (2 pi) ~ 32, so criterion 5's coefficient shows: the
    # median of n lambda_n^+ is within its 30% of kappa(1) = 0.5.
    params = SolverParams()
    spectra = [
        discrete_spectrum(spec, math.ceil(math.exp(log_n)), params)
        for log_n in (12.5, 50.0, 100.0, 200.0)
    ]
    S = spectra[-1]
    assert abs(window_scaled_median(S, 1.0, (8, 32), "plus", extend_by_zero=True) - 0.5) <= 0.15
    assert window_scaled_median(S, 1.0, (8, 32), "minus", extend_by_zero=True) <= 0.15
    # Cauchy interlacing: each lambda_n^+- is non-decreasing in N.
    norm = float(S.lambda_plus[0])
    for small, large in zip(spectra, spectra[1:]):
        for a, b in ((small.lambda_plus, large.lambda_plus), (small.lambda_minus, large.lambda_minus)):
            n = min(len(a), len(b))
            assert len(b) >= len(a)
            assert np.all(b[:n] >= a[:n] - AGREE * norm)
