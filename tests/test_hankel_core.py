"""Hankel truncation construction and fast matvec correctness."""

import math

import numpy as np
import pytest

from hankelspec.eigensolve import SolverParams, lanczos_cap, solve_bytes
from hankelspec.hankel_core import (
    HankelTruncation,
    ResourceLimitError,
    build_discrete,
    circulant_embedding,
    dense_matrix,
    matvec,
    matvec_direct,
)
from hankelspec.model import DiscreteSymbolSpec


def _random_truncation(N, seed):
    rng = np.random.default_rng(seed)
    return HankelTruncation(N, rng.standard_normal(2 * N - 1))


# ---------------------------------------------------------------- construction


def test_build_discrete_b1_order_two():
    H = build_discrete(DiscreteSymbolSpec(alpha=1.0, b_plus1=1.0), 2)
    expected = np.array([0.0, 0.0, 1.0 / (2.0 * math.log(2.0))])
    assert np.allclose(H.entries, expected, rtol=1e-14, atol=0.0)


def test_build_discrete_zero_spec():
    H = build_discrete(DiscreteSymbolSpec(alpha=1.0), 4)
    assert np.array_equal(H.entries, np.zeros(7))


def test_build_discrete_entry_count():
    H = build_discrete(DiscreteSymbolSpec(alpha=1.0, b_plus1=1.0), 3)
    assert len(H.entries) == 5
    assert H.order == 3


def test_build_discrete_rejects_small_order():
    with pytest.raises(ValueError):
        build_discrete(DiscreteSymbolSpec(alpha=1.0), 1)


def test_truncation_validates_entry_length():
    with pytest.raises(ValueError):
        HankelTruncation(3, np.zeros(4))


def test_entries_are_immutable():
    H = _random_truncation(8, 0)
    with pytest.raises(ValueError):
        H.entries[0] = 99.0


# --------------------------------------------------------------------- matvec


def test_matvec_unit_vector_selects_column():
    H = HankelTruncation(4, np.arange(1.0, 8.0))
    u = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(matvec(H, u), [1.0, 2.0, 3.0, 4.0], rtol=1e-13, atol=1e-13)


def test_matvec_ones_vector():
    H = HankelTruncation(4, np.arange(1.0, 8.0))
    got = matvec(H, np.ones(4))
    assert np.allclose(got, [10.0, 14.0, 18.0, 22.0], rtol=1e-14)


def test_matvec_zero_entries():
    H = HankelTruncation(5, np.zeros(9))
    assert np.allclose(matvec(H, np.ones(5)), np.zeros(5), atol=1e-300)


@pytest.mark.parametrize("N", [3, 64, 1000, 4096])
def test_fast_matvec_matches_direct(N):
    H = _random_truncation(N, N)
    rng = np.random.default_rng(N + 1)
    u = rng.standard_normal(N)
    fast = matvec(H, u)
    direct = matvec_direct(H, u)
    scale = np.max(np.abs(direct)) or 1.0
    assert np.max(np.abs(fast - direct)) / scale < 1e-12


@pytest.mark.parametrize("N", [1, 255, 256, 257, 1000])
def test_direct_matvec_matches_the_row_loop(N):
    # matvec_direct takes 256 rows at a time; each row is still the dot
    # product of the definition, summed in another order.
    H = _random_truncation(N, N)
    u = np.random.default_rng(N + 2).standard_normal(N)
    loop = np.array([np.dot(H.entries[j : j + N], u) for j in range(N)])
    row_sum = np.max(np.abs(dense_matrix(H)).sum(axis=1))
    assert np.max(np.abs(matvec_direct(H, u) - loop)) <= 1e-13 * row_sum


# Every order up to 70 (P/2 = 1 at N = 1, odd N) and both sides of each power of two.
EDGE_ORDERS = sorted(
    set(range(1, 71)) | {2**j + d for j in range(1, 13) for d in (-1, 0, 1)}
)


@pytest.mark.parametrize("N", EDGE_ORDERS)
def test_packed_matvec_matches_direct_at_edge_orders(N):
    H = _random_truncation(N, N)
    u = np.random.default_rng(N + 1).standard_normal(N)
    row_sum = np.max(np.abs(dense_matrix(H)).sum(axis=1))
    assert np.max(np.abs(matvec(H, u) - matvec_direct(H, u))) <= 1e-13 * row_sum


@pytest.mark.parametrize("N", [1, 2, 3, 1023, 1024, 1025, 2**18])
def test_circulant_embedding_is_what_a_truncation_holds(N):
    # The arithmetic solve_bytes used before the circulant length was stated
    # once: P the power of two at or above 2N, the entries with alpha and
    # beta, one workspace, and what Lanczos holds at k = 64, cap 600.
    P = 1 << (2 * N - 1).bit_length()
    half_spectrum = 16 * (P // 2)
    cap = lanczos_cap(N, 64, 600)
    lanczos = 8 * (
        (cap + 1) * N + 4 * N + cap * min(N, 2048) + 4 * (cap + 1) ** 2 + 2 * (cap + 1)
    )
    parent = 8 * (2 * N - 1) + 2 * half_spectrum + 8 * P + half_spectrum + lanczos
    params = SolverParams(k=64, basis_cap=600)
    assert solve_bytes(N, "entries", params) == parent
    H = HankelTruncation(N, np.zeros(2 * N - 1))
    held = sum(a.nbytes for a in H.workspace()) + H._alpha.nbytes + H._beta.nbytes
    assert circulant_embedding(N) == (P, held)
    assert H._embed == P
    assert solve_bytes(N, "entries", params) == H.entries.nbytes + held + lanczos


def test_matvec_symmetry():
    H = _random_truncation(257, 7)
    rng = np.random.default_rng(8)
    u = rng.standard_normal(257)
    w = rng.standard_normal(257)
    left = np.dot(matvec(H, u), w)
    right = np.dot(u, matvec(H, w))
    assert left == pytest.approx(right, rel=1e-12)


def test_matvec_linearity():
    H = _random_truncation(100, 3)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(100)
    w = rng.standard_normal(100)
    combo = matvec(H, 2.5 * u - 1.5 * w)
    split = 2.5 * matvec(H, u) - 1.5 * matvec(H, w)
    assert np.allclose(combo, split, rtol=1e-11, atol=1e-11)


def test_matvec_dimension_check():
    H = _random_truncation(10, 0)
    with pytest.raises(ValueError):
        matvec(H, np.ones(9))
    with pytest.raises(ValueError):
        matvec_direct(H, np.ones(11))


def test_matvec_reused_workspace_is_bitwise_fresh():
    rng = np.random.default_rng(5)
    H = HankelTruncation(1000, rng.standard_normal(1999))
    workspace = H.workspace()
    out = np.empty(1000)
    for _ in range(3):
        u = rng.standard_normal(1000)
        fresh = matvec(H, u)
        reused = matvec(H, u, out=out, workspace=workspace)
        assert reused is out
        assert np.array_equal(fresh, reused)


def test_matvec_output_may_alias_input():
    H = _random_truncation(64, 6)
    u = np.random.default_rng(7).standard_normal(64)
    want = matvec(H, u)
    assert np.array_equal(matvec(H, u, out=u), want)


# --------------------------------------------------------------- dense matrix


def test_dense_matrix_small():
    H = HankelTruncation(2, np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(dense_matrix(H), [[1.0, 2.0], [2.0, 3.0]])


def test_dense_matrix_hilbert():
    entries = 1.0 / (np.arange(5) + 1.0)
    H = HankelTruncation(3, entries)
    expected = [
        [1.0, 1 / 2, 1 / 3],
        [1 / 2, 1 / 3, 1 / 4],
        [1 / 3, 1 / 4, 1 / 5],
    ]
    assert np.array_equal(dense_matrix(H), expected)


def test_dense_matrix_zero():
    H = HankelTruncation(3, np.zeros(5))
    assert np.array_equal(dense_matrix(H), np.zeros((3, 3)))


def test_dense_matrix_resource_limit():
    # Refused on its 8 TiB alone: the 2^20-order matrix is never allocated.
    H = HankelTruncation(2**20, np.zeros(2**21 - 1))
    with pytest.raises(ResourceLimitError, match="bytes of physical memory"):
        dense_matrix(H)


def test_dense_matrix_agrees_with_matvec():
    H = _random_truncation(50, 11)
    A = dense_matrix(H)
    rng = np.random.default_rng(12)
    u = rng.standard_normal(50)
    assert np.allclose(A @ u, matvec(H, u), rtol=1e-12, atol=1e-12)
