import numpy as np
import pytest

from watertank.errors import ConfigError, NumericalError
from watertank.finite_dim import (
    LinearPair,
    backstep_pair,
    to_canonical,
)


def backstep_lstsq(pairA: LinearPair, pairAtilde: LinearPair):
    """Independent least-squares solve of the (T, K) linear system.

    Vectorizes ``T A + B K - A~ T = 0`` and ``T B = B`` into one linear
    system in the n^2 + n unknowns; used to confirm uniqueness against the
    companion construction.
    """
    n = pairA.n
    A, B, At = pairA.A, pairA.B, pairAtilde.A
    nT = n * n
    rows = []
    rhs = []
    # (T A)_{ij} + B_i K_j - (A~ T)_{ij} = 0
    for i in range(n):
        for j in range(n):
            row = np.zeros(nT + n)
            for k in range(n):
                row[i * n + k] += A[k, j]
                row[k * n + j] -= At[i, k]
            row[nT + j] += B[i]
            rows.append(row)
            rhs.append(0.0)
    # (T B)_i = B_i
    for i in range(n):
        row = np.zeros(nT + n)
        row[i * n : (i + 1) * n] = B
        rows.append(row)
        rhs.append(B[i])
    M = np.asarray(rows)
    sol, *_ = np.linalg.lstsq(M, np.asarray(rhs), rcond=None)
    T = sol[:nT].reshape(n, n)
    K = sol[nT:]
    return T, K


class TestCanonical:
    def test_already_canonical_identity(self):
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        B = np.array([0.0, 1.0])
        Tc, canon = to_canonical(LinearPair(A, B))
        assert np.allclose(Tc, np.eye(2), atol=1e-12)
        assert np.allclose(canon.A, A, atol=1e-12)

    def test_random_pair_structure(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal(4)
        Tc, canon = to_canonical(LinearPair(A, B))
        # ones on the superdiagonal, zeros elsewhere above the last row
        upper = canon.A[:-1, :]
        expect = np.eye(4, k=1)[:-1, :]
        assert np.allclose(upper, expect, atol=1e-9)
        assert np.allclose(canon.B, np.eye(4)[:, -1], atol=1e-10)

    def test_uncontrollable_rejected(self):
        # B spans an A-invariant proper subspace
        A = np.diag([1.0, 2.0, 3.0])
        B = np.array([1.0, 0.0, 0.0])
        with pytest.raises(NumericalError):
            to_canonical(LinearPair(A, B))

    def test_dimension_cap(self):
        with pytest.raises(ConfigError):
            LinearPair(np.eye(13), np.ones(13))


class TestBackstepPair:
    def test_identity_when_targets_match(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal(3)
        T, K = backstep_pair(LinearPair(A, B), LinearPair(A.copy(), B.copy()))
        assert np.allclose(T, np.eye(3), atol=1e-9)
        assert np.allclose(K, 0.0, atol=1e-9)

    def test_hand_solved_example(self):
        # A = [[0,1],[0,0]], B = e_2, target companion of (s+1)^2
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([0.0, 1.0])
        At = np.array([[0.0, 1.0], [-1.0, -2.0]])
        T, K = backstep_pair(LinearPair(A, B), LinearPair(At, B))
        assert np.allclose(K, [-1.0, -2.0], atol=1e-12)
        assert np.allclose(T, np.eye(2), atol=1e-12)

    def test_spectrum_placement(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((5, 5))
        B = rng.standard_normal(5)
        At = rng.standard_normal((5, 5))
        T, K = backstep_pair(LinearPair(A, B), LinearPair(At, B))
        e1 = np.sort_complex(np.linalg.eigvals(A + np.outer(B, K)))
        e2 = np.sort_complex(np.linalg.eigvals(At))
        assert np.max(np.abs(e1 - e2)) < 1e-8

    def test_tb_equals_b(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal(4)
        At = rng.standard_normal((4, 4))
        T, _ = backstep_pair(LinearPair(A, B), LinearPair(At, B))
        assert np.max(np.abs(T @ B - B)) < 1e-10
        assert np.isfinite(np.linalg.cond(T))

    def test_uniqueness_against_lstsq(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            A = rng.standard_normal((4, 4))
            B = rng.standard_normal(4)
            At = rng.standard_normal((4, 4))
            T1, K1 = backstep_pair(LinearPair(A, B), LinearPair(At, B))
            T2, K2 = backstep_lstsq(LinearPair(A, B), LinearPair(At, B))
            assert np.max(np.abs(T1 - T2)) < 1e-8
            assert np.max(np.abs(K1 - K2)) < 1e-8

    def test_mismatched_b_rejected(self):
        A = np.eye(2)
        with pytest.raises(ConfigError):
            backstep_pair(
                LinearPair(A, np.array([1.0, 0.0])),
                LinearPair(A, np.array([0.0, 1.0])),
            )
