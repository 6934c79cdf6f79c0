"""Truncated Fredholm transform and the closed-loop spectrum.

All operator actions are modal: the conservative operator is diagonal on
its basis, the damped target operator on its own, and the transform is the
dense change-of-basis matrix

    G[p, n] = <T f_n, dual_p> = -table[n] <I_nu, dual_p> / (mu~_p - mu_n),

assembled over the shared truncation window |p|, |n| <= N. The kernel PDE
is represented only through this coefficient system. The closed-loop
spectrum is the exception to the window: it solves the characteristic
equation of the full law, tail |n| > N in closed form, by ``spectral.secant``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from watertank.errors import NumericalError, RegimeError
from watertank.feedback import FeedbackLaw, virtual_profile
from watertank.model import Params
from watertank.spectral import (
    Basis, BcKind, ModeIndexed, collision, find_eigenvalues, gram_matrix, pairings, secant,
)

__all__ = [
    "TransformMatrix",
    "build_transform",
    "dirichlet_sum",
    "galerkin_spectrum",
    "tail_sum",
    "characteristic_function",
    "closed_loop_spectrum",
    "match_spectrum",
    "target_distances",
]


@dataclass
class TransformMatrix(ModeIndexed):
    """Backstepping transform in modal coordinates, with conditioning data."""

    n_list: np.ndarray
    entries: np.ndarray          # (P, N) = (target mode p, source mode n)
    eigenvalues: np.ndarray      # mu_n (source)
    target_eigenvalues: np.ndarray  # mu~_p
    i_nu_target_moments: np.ndarray  # <I_nu, dual_p>
    weighted_condition: float

    def apply(self, coeffs) -> np.ndarray:
        """Map source coefficients (over f_n) to target coefficients."""
        return self.entries @ np.asarray(coeffs)


def build_transform(params: Params, basisA: Basis, basisAtilde: Basis,
                    law: FeedbackLaw) -> TransformMatrix:
    """Assemble the transform over the shared truncation window.

    Requires the damped basis to carry its biorthogonal duals. Raises
    RegimeError when the spectral gap min |mu~_p - mu_n| falls below mu/2.
    """
    if basisAtilde.dual_values is None:
        raise ValueError("target basis must carry biorthogonal duals")
    if basisA.n_list.size != basisAtilde.n_list.size:
        raise ValueError("bases must share the truncation window")
    itld = pairings(virtual_profile(params, basisA), basisAtilde.dual_values, basisA.grid)
    denom = basisAtilde.eigenvalues[:, None] - basisA.eigenvalues[None, :]
    gap = float(np.min(np.abs(denom)))
    if gap <= params.mu / 2.0:
        raise RegimeError(
            f"spectral gap {gap:.3g} <= mu/2; transform denominators unsafe"
        )
    G = -(law.table[None, :] * itld[:, None]) / denom
    wt = np.diag(1.0 + np.abs(basisAtilde.eigenvalues))
    wsrc = np.diag(1.0 / (1.0 + np.abs(basisA.eigenvalues)))
    sv = np.linalg.svd(wt @ G @ wsrc, compute_uv=False)
    cond = float(sv[0] / sv[-1])
    return TransformMatrix(
        n_list=basisA.n_list.copy(), entries=G,
        eigenvalues=basisA.eigenvalues.copy(),
        target_eigenvalues=basisAtilde.eigenvalues.copy(),
        i_nu_target_moments=itld, weighted_condition=cond,
    )


def dirichlet_sum(basisA: Basis, g):
    """Partial sum ``sum_{|n|<=N} f_{n,1}(0) <f_n, g>`` over the basis window.

    For piecewise-C^1 g compatible with the reflection coupling this
    converges to ``conj(g_1(0) - g_2(0))/2`` (the Dirichlet jump mean). ``g``
    is a (2, nx) array on the basis grid, whose sum is returned as a complex
    number, or a (M, 2, nx) stack of them, whose M sums come from one
    :func:`gram_matrix` product.
    """
    g = np.asarray(g)
    values = basisA.samples()
    sums = values[:, 0, 0] @ gram_matrix(values, g.reshape(-1, *g.shape[-2:]), basisA.grid)
    return complex(sums[0]) if g.ndim == 2 else sums


def galerkin_spectrum(law: FeedbackLaw) -> np.ndarray:
    """Eigenvalues of the N-mode Galerkin matrix, sorted by imag part.

    ``law.galerkin_matrix()`` is the real generator ``integrate_closed_loop``
    records the closed loop by, in the real coordinates of a real state, so
    its eigenvalues come in conjugate pairs. Truncating the law at |n| <= N
    displaces its eigenvalues by O(|p|/N) from the targets and leaves weakly
    damped edge modes (Re ~ -0.26 at N = 41).
    """
    eig = np.linalg.eigvals(law.galerkin_matrix())
    return eig[np.argsort(eig.imag)]


_DIGAMMA_SERIES = (-1 / 12, 1 / 120, -1 / 252, 1 / 240, -1 / 132, 691 / 32760, -1 / 12)  # -B_2k/(2k)


def _digamma(z):
    """Complex digamma ``psi(z)``, entry by entry; non-finite at the poles 0, -1, -2, ...

    ``Re z < 0.5`` reflects through ``psi(z) = psi(1 - z) - pi cot(pi f)``
    with ``f = z - round(Re z)``: cot has period 1, and the reduced argument
    keeps it accurate near the negative real axis. Then ``psi(w) =
    psi(w + 10) - sum_{k<10} 1/(w + k)`` and the asymptotic series of
    ``psi(w + 10)`` through ``B_14``.
    """
    z = np.asarray(z, dtype=complex)
    reflect = z.real < 0.5
    w = np.where(reflect, 1.0 - z, z)
    shift = sum(1.0 / (w + k) for k in range(10))
    w = w + 10.0
    r = 1.0 / (w * w)
    series = 0.0
    for c in reversed(_DIGAMMA_SERIES):
        series = (series + c) * r
    psi = np.log(w) - 0.5 / w + series - shift
    with np.errstate(divide="ignore", invalid="ignore"):
        pi_cot = math.pi / np.tan(math.pi * (z - np.round(z.real)))
    return np.where(reflect, psi - pi_cot, psi)


def tail_sum(s, mu_plus, mu_minus, c_inf, L: float):
    """Closed form of ``sum_{j>=1} c_inf [1/(s + mu_+ + j i pi/L)
    + 1/(s + mu_- - j i pi/L)]``.

    With ``x_+- = (s + mu_+-) L / (i pi)`` the sum is
    ``(L c_inf / (i pi)) [psi(1 - x_-) - psi(1 + x_+)]``, with the digamma
    ``psi`` from ``_digamma``.
    """
    xp = (s + mu_plus) * L / (1j * math.pi)
    xm = (s + mu_minus) * L / (1j * math.pi)
    return L * c_inf / (1j * math.pi) * (_digamma(1.0 - xm) - _digamma(1.0 + xp))


def characteristic_function(law: FeedbackLaw, s) -> np.ndarray:
    """``F(s) = 1 - sum_n c_n / (s + mu_n)`` over all n, with ``c_n = table[n] <I_nu, f_n>``.

    The closed-loop eigenvalues are the roots of F. The modes |n| <= N are
    summed from the law's data; the tail |n| > N continues them by the
    law's asymptotics: ``c_n = c_inf`` (the mean of ``c_{+-N}``) and
    ``mu_n`` stepping on from ``mu_{+-N}`` by ``i pi / L``, summed by
    ``tail_sum``.
    """
    s = np.asarray(s, dtype=complex)
    c = law.table * law.i_nu_moments
    mu = law.eigenvalues
    head = np.sum(c / (s[..., None] + mu), axis=-1)
    tail = tail_sum(s, mu[-1], mu[0], 0.5 * (c[0] + c[-1]), law.params.L)
    return 1.0 - head - tail


def closed_loop_spectrum(law: FeedbackLaw) -> np.ndarray:
    """Closed-loop eigenvalues under the full law, sorted by imag part.

    The infinite system has exactly the reflected target spectrum {-mu~_p}.
    Each root of ``characteristic_function`` is refined by secant from one
    eigenvalue of the Galerkin matrix (``galerkin_spectrum``), so there is
    one root per mode of the law. Raises NumericalError when a seed does
    not converge to a root with ``|F| < 1e-10`` or two seeds reach one root.
    """
    seeds = galerkin_spectrum(law)
    roots, done = secant(lambda s: characteristic_function(law, s), seeds,
                         seeds + 1e-3 / law.params.L, lambda s: 1e-12 * (1.0 + np.abs(s)),
                         max_iter=40)
    with np.errstate(all="ignore"):  # nan where a seed diverged
        residual = np.abs(characteristic_function(law, roots))
    bad = ~(done & (residual < 1e-10))
    if np.any(bad):
        raise NumericalError(
            f"closed-loop characteristic equation did not converge from "
            f"{int(bad.sum())} Galerkin seed(s), first at {complex(seeds[bad][0]):.4g}"
        )
    roots = roots[np.argsort(roots.imag)]
    if pair := collision(roots):
        raise NumericalError(
            f"two Galerkin seeds converged to one closed-loop root {complex(roots[pair[0]]):.4g}"
        )
    return roots


def match_spectrum(eig: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Distance from each target to the nearest computed eigenvalue."""
    return np.array([np.min(np.abs(eig - t)) for t in targets])


def target_distances(eig, params: Params, n: int):
    """``(targets, dist)``: the reflected damped targets ``-mu~_p`` at ``params`` for
    p = -n..n, and each one's distance to the nearest entry of ``eig``, a closed-loop spectrum."""
    targets = -find_eigenvalues(params, BcKind.DAMPED, np.arange(-n, n + 1))
    return targets, match_spectrum(eig, targets)
