"""Truncated Fredholm transform and the closed-loop spectrum.

All operator actions are modal: the conservative operator is diagonal on
its basis, the damped target operator on its own, and the transform is the
dense change-of-basis matrix

    G[p, n] = <T f_n, dual_p> = -table[n] <I_nu, dual_p> / (mu~_p - mu_n),

assembled over the shared truncation window |p|, |n| <= N. The kernel PDE
is represented only through this coefficient system. The closed-loop
spectrum is the exception to the window: it solves the characteristic
equation of the full law, whose tail |n| > N is summed in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import psi

from watertank.errors import NumericalError, RegimeError
from watertank.feedback import FeedbackLaw, virtual_profile
from watertank.model import Params
from watertank.spectral import Basis, ModeIndexed, pairings

__all__ = [
    "TransformMatrix",
    "build_transform",
    "dirichlet_sum",
    "galerkin_spectrum",
    "tail_sum",
    "characteristic_function",
    "closed_loop_spectrum",
    "match_spectrum",
]


@dataclass
class TransformMatrix(ModeIndexed):
    """Backstepping transform in modal coordinates, with conditioning data."""

    params: Params
    n_list: np.ndarray
    entries: np.ndarray          # (P, N) = (target mode p, source mode n)
    eigenvalues: np.ndarray      # mu_n (source)
    target_eigenvalues: np.ndarray  # mu~_p
    i_nu_target_moments: np.ndarray  # <I_nu, dual_p>
    weighted_condition: float
    law: FeedbackLaw = None

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
        params=params, n_list=basisA.n_list.copy(), entries=G,
        eigenvalues=basisA.eigenvalues.copy(),
        target_eigenvalues=basisAtilde.eigenvalues.copy(),
        i_nu_target_moments=itld, weighted_condition=cond, law=law,
    )


def dirichlet_sum(basisA: Basis, g) -> complex:
    """Partial sum ``sum_{|n|<=N} f_{n,1}(0) <f_n, g>`` over the basis window.

    For piecewise-C^1 g compatible with the reflection coupling this
    converges to ``conj(g_1(0) - g_2(0))/2`` (the Dirichlet jump mean); ``g``
    is a (2, nx) array on the basis grid.
    """
    return complex(np.sum(basisA.f1_at_0 * pairings(basisA.values, g, basisA.grid)))


def galerkin_spectrum(law: FeedbackLaw) -> np.ndarray:
    """Eigenvalues of the N-mode Galerkin matrix, sorted by imag part.

    ``M[m, n] = -mu_n delta_mn + <I_nu, f_m> table[n]`` is the generator
    ``integrate_closed_loop`` propagates. Truncating the law at |n| <= N
    displaces its eigenvalues by O(|p|/N) from the targets and leaves
    weakly damped edge modes (Re ~ -0.26 at N = 41).
    """
    M = np.diag(-law.eigenvalues) + np.outer(law.i_nu_moments, law.table)
    eig = np.linalg.eigvals(M)
    return eig[np.argsort(eig.imag)]


def tail_sum(s, mu_plus, mu_minus, c_inf, L: float):
    """Closed form of ``sum_{j>=1} c_inf [1/(s + mu_+ + j i pi/L)
    + 1/(s + mu_- - j i pi/L)]``.

    With ``x_+- = (s + mu_+-) L / (i pi)`` the sum is
    ``(L c_inf / (i pi)) [psi(1 - x_-) - psi(1 + x_+)]``.
    """
    xp = (s + mu_plus) * L / (1j * math.pi)
    xm = (s + mu_minus) * L / (1j * math.pi)
    return L * c_inf / (1j * math.pi) * (psi(1.0 - xm) - psi(1.0 + xp))


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
    s_prev, s_cur = seeds, seeds + 1e-3 / law.params.L
    done = np.zeros(seeds.size, dtype=bool)
    with np.errstate(all="ignore"):  # a diverging seed turns to nan; caught below
        f_prev = characteristic_function(law, s_prev)
        f_cur = characteristic_function(law, s_cur)
        for _ in range(40):
            df = f_cur - f_prev
            safe = ~done & (df != 0)
            step = np.where(safe, f_cur * (s_cur - s_prev) / np.where(safe, df, 1.0), 0.0)
            s_prev, f_prev = s_cur, f_cur
            s_cur = s_cur - step
            done = done | (np.abs(step) < 1e-12 * (1.0 + np.abs(s_cur)))
            if np.all(done):
                break
            f_cur = np.where(done, f_prev, characteristic_function(law, s_cur))
        residual = np.abs(characteristic_function(law, s_cur))
    bad = ~(done & (residual < 1e-10))
    if np.any(bad):
        raise NumericalError(
            f"closed-loop characteristic equation did not converge from "
            f"{int(bad.sum())} Galerkin seed(s), first at {complex(seeds[bad][0]):.4g}"
        )
    roots = s_cur[np.argsort(s_cur.imag)]
    close = np.abs(roots[:, None] - roots[None, :]) < 1e-8
    if np.count_nonzero(close) > roots.size:
        i = int(np.argmax(np.sum(close, axis=1)))
        raise NumericalError(
            f"two Galerkin seeds converged to one closed-loop root {complex(roots[i]):.4g}"
        )
    return roots


def match_spectrum(eig: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Distance from each target to the nearest computed eigenvalue."""
    return np.array([np.min(np.abs(eig - t)) for t in targets])
