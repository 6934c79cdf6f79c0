"""Exact finite-dimensional backstepping oracle.

For controllable pairs (A, B) and (A~, B) there is a unique (T, K) with
``T A + B K = A~ T`` and ``T B = B``; it is constructed through the control
canonical form and doubles as a fast test anchor for the modal pipeline.
Matrices are capped at n <= 12 (companion conditioning degrades beyond
that; this is a test anchor, not a production pole placer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from watertank.errors import ConfigError, NumericalError

__all__ = ["LinearPair", "ctrb", "to_canonical", "backstep_pair", "placement_mismatch",
           "random_backstep_pairs"]

_MAX_N = 12


@dataclass
class LinearPair:
    """A state matrix with a single input column."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B = np.asarray(self.B, dtype=float).reshape(-1)
        n = self.A.shape[0]
        if self.A.shape != (n, n) or self.B.shape != (n,):
            raise ConfigError("A must be n x n and B length n")
        if n > _MAX_N:
            raise ConfigError(f"n capped at {_MAX_N} for the companion construction")

    @property
    def n(self) -> int:
        return self.A.shape[0]


def ctrb(pair: LinearPair) -> np.ndarray:
    """Controllability matrix [B, AB, ..., A^(n-1) B]."""
    cols = [pair.B]
    for _ in range(pair.n - 1):
        cols.append(pair.A @ cols[-1])
    return np.stack(cols, axis=1)


def to_canonical(pair: LinearPair):
    """Change of basis to control canonical (companion) form.

    Returns ``(Tc, canonical_pair)`` with ``Tc A Tc^-1`` in companion form
    (ones on the superdiagonal, characteristic coefficients in the last
    row) and ``Tc B = e_n``. Raises on rank deficiency.
    """
    n = pair.n
    C = ctrb(pair)
    if np.linalg.matrix_rank(C) < n:
        raise NumericalError("pair is not controllable (rank-deficient ctrb matrix)")
    q = np.linalg.solve(C.T, np.eye(n)[:, -1])  # last row of C^-1
    rows = [q]
    for _ in range(n - 1):
        rows.append(rows[-1] @ pair.A)
    Tc = np.stack(rows, axis=0)
    Ac = Tc @ pair.A @ np.linalg.inv(Tc)
    Bc = Tc @ pair.B
    return Tc, LinearPair(Ac, Bc)


def backstep_pair(pairA: LinearPair, pairAtilde: LinearPair):
    """Unique (T, K) with ``T A + B K = A~ T`` and ``T B = B``.

    Built via the canonical forms of both pairs: in A's canonical frame the
    gain is read off from the companion matrix of A~, and
    ``T = T_(A~)^-1 T_A`` satisfies both equations. Residuals are checked to
    1e-10 in max norm.
    """
    if pairA.n != pairAtilde.n:
        raise ConfigError("pairs must share the dimension")
    if not np.allclose(pairA.B, pairAtilde.B, atol=0.0, rtol=0.0):
        raise ConfigError("pairs must share B")
    TA, canA = to_canonical(pairA)
    TT, canAt = to_canonical(pairAtilde)
    # in canonical coordinates: Abar + e_n Kbar = companion(A~)
    Kbar = (canAt.A - canA.A)[-1, :]
    K = Kbar @ TA
    T = np.linalg.solve(TT, TA)
    scale = max(
        1.0,
        float(np.max(np.abs(pairA.A))),
        float(np.max(np.abs(pairAtilde.A))),
    )
    r1 = np.max(np.abs(T @ pairA.A + np.outer(pairA.B, K) - pairAtilde.A @ T))
    r2 = np.max(np.abs(T @ pairA.B - pairA.B))
    cond = float(np.linalg.cond(T))
    if r1 / scale > 1e-10 or r2 > 1e-10:
        raise NumericalError(
            f"backstepping residuals too large: {r1:.2e}, {r2:.2e} (cond T = {cond:.2e})"
        )
    return T, K


def placement_mismatch(pairA: LinearPair, pairAtilde: LinearPair, K) -> float:
    """Largest distance between the sorted spectra of ``A + B K`` and ``A~``: 0 for exact placement."""
    placed, target = (np.sort_complex(np.linalg.eigvals(M))
                      for M in (pairA.A + np.outer(pairA.B, K), pairAtilde.A))
    return float(np.max(np.abs(placed - target)))


def random_backstep_pairs(rng, dim_max: int = 6):
    """Endless seeded draws of pairs ``(A, B)``, ``(A~, B)`` with their (T, K).

    Each draw takes n uniform in ``2..dim_max``, then A, B and A~ standard
    normal, in that order. Draws with a rank-deficient controllability
    matrix, or whose backstepping residuals fail the 1e-10 check
    (ill-conditioned T), are skipped. Yields ``(pairA, pairAtilde, T, K)``;
    the first draw raises ConfigError unless ``2 <= dim_max <= 12``.
    """
    if not 2 <= dim_max <= _MAX_N:
        raise ConfigError(f"dim_max must lie in 2..{_MAX_N}, got {dim_max}")
    while True:
        n = int(rng.integers(2, dim_max + 1))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal(n)
        At = rng.standard_normal((n, n))
        pa, pt = LinearPair(A, B), LinearPair(At, B)
        try:  # to_canonical refuses a rank-deficient controllability matrix
            T, K = backstep_pair(pa, pt)
        except NumericalError:
            continue
        yield pa, pt, T, K
