"""Moment-method controllability diagnostics and open-loop steering.

The w-system ``w_t + L w_x + delta(x) J0 w = u(t) (1,1)`` is steered through
its moments: expanding on the eigenfamily ``psi_n`` with adjoint family
``chi_n``, each modal amplitude obeys an independent scalar ODE whose
Duhamel integral is a moment ``int_0^{2L} e^{mu_n (s-2L)} u(s) ds``. The dual
family of the exponentials, from their Gram matrix in closed form (no
quadrature), turns prescribed terminal amplitudes into an explicit control.

At gamma = 0 the even-mode moments vanish identically (the even subspace is
unobservable from the control profile); for small gamma > 0 they are of
size gamma/n, which is what makes the synthesis possible at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from watertank.errors import ConfigError, NumericalError, UncontrollableError
from watertank.model import Params, diagonal_weight, simpson_weights, uniform_grid
from watertank.spectral import Basis, WModes, collision, gram_matrix, pairings

__all__ = [
    "MomentReport",
    "DualBasis",
    "ControlSignal",
    "control_profile",
    "plain_moments",
    "i_moments",
    "input_gains",
    "controllability_report",
    "dual_exponentials",
    "synthesize_open_loop",
]


def plain_moments(values, grid):
    """Plain integrals ``int (v1 + v2)``, i.e. ``2L <v, (1,1)>``, per row of values."""
    return 2.0 * grid[-1] * pairings(values, np.ones((2, grid.size)), grid)


def control_profile(params: Params) -> np.ndarray:
    """The interior control profile ``I = exp(int_0^x delta) (1, 1)``."""
    ew = diagonal_weight(params, uniform_grid(params))
    return np.stack([ew, ew])


def i_moments(params: Params, basis: Basis) -> np.ndarray:
    """Coefficients ``<I, f_n>`` of the control profile on the zeta basis."""
    return pairings(control_profile(params), basis.values, basis.grid)


def input_gains(modes: WModes):
    """``(b_n, beta_n)``: plain moments and input gains of the w-modes.

    ``beta_n = b_n / <psi_n, chi_n>`` drives ``w_n' = -mu_n w_n + u beta_n``;
    both factors are plain bilinear integrals.
    """
    b = plain_moments(modes.chi, modes.grid)
    pair = pairings(modes.psi, modes.chi, modes.grid, conjugate=False)
    return b, b / (2.0 * modes.grid[-1] * pair)


@dataclass
class MomentReport:
    """Per-mode moment table plus pass/fail flags for the four key items."""

    params: Params
    n_list: np.ndarray
    eigenvalues: np.ndarray
    b: np.ndarray
    a: np.ndarray
    i_mom: np.ndarray
    items: dict
    constants: dict
    gamma_zero_even_modes: list

    @property
    def all_passed(self) -> bool:
        return all(v["passed"] for v in self.items.values())

    def expected_gamma_zero_pattern(self) -> bool:
        """True when the only failures are the gamma = 0 even-mode moments."""
        others = all(
            v["passed"] for k, v in self.items.items() if k != "moment_bounds"
        )
        evens = [n for n in self.n_list if n != 0 and n % 2 == 0]
        return others and sorted(self.gamma_zero_even_modes) == sorted(evens)

    def to_dict(self) -> dict:
        return {
            "gamma": self.params.gamma,
            "n_modes": int((self.n_list.size - 1) // 2),
            "items": self.items,
            "constants": self.constants,
            "gamma_zero_even_modes": [int(n) for n in self.gamma_zero_even_modes],
            "all_passed": self.all_passed,
        }


def controllability_report(params: Params, basis: Basis, modes: WModes) -> MomentReport:
    """Check the controllability estimates on the computed spectrum.

    Items: (i) Riesz/Gram conditioning of the families, (ii) the pairing
    ``|<psi_n, chi_n>|`` in (1/2, 2), (iii) eigenvalue drift below 1/(4L),
    (iv) moment bounds ``gamma c/n < |b_n| < C/n`` with fitted positive
    constants. Additionally checks ``m <= |mu_n <I, f_n>| <= M`` for n != 0
    and ``<I, f_0> = 0``. Failures are recorded in the report, never raised:
    at gamma = 0 item (iv) is supposed to fail on exactly the even modes.
    """
    n_list = basis.n_list
    N = (n_list.size - 1) // 2
    grid = basis.grid
    eigs = basis.eigenvalues
    b = plain_moments(modes.chi, grid)
    a = plain_moments(modes.psi, grid)
    imom = i_moments(params, basis)
    items = {}

    # (i) conditioning: the zeta family is orthonormal; the w family is Riesz
    G = gram_matrix(basis.values, basis.values, grid)
    dev = float(np.max(np.abs(G - np.eye(n_list.size))))
    Gpsi = gram_matrix(modes.psi, modes.psi, grid)
    sv = np.linalg.svd(Gpsi, compute_uv=False)
    riesz_cond = float(sv[0] / sv[-1])
    items["riesz_gram"] = {
        "passed": bool(dev < 1e-6 and riesz_cond < 10.0),
        "gram_deviation": dev,
        "psi_riesz_condition": riesz_cond,
    }

    # (ii) pairing of the biorthogonal w families (bilinear, 1/(2L))
    pair = pairings(modes.psi, modes.chi, grid, conjugate=False)
    pmin, pmax = float(np.min(np.abs(pair))), float(np.max(np.abs(pair)))
    items["pairing"] = {
        "passed": bool(0.5 < pmin and pmax < 2.0),
        "min": pmin,
        "max": pmax,
    }

    # (iii) eigenvalue localization
    drift = np.abs(eigs - 1j * math.pi * n_list / params.L)
    items["eigenvalue_drift"] = {
        "passed": bool(np.max(drift) < 0.25 / params.L),
        "max_drift": float(np.max(drift)),
        "bound": 0.25 / params.L,
    }

    # (iv) moment bounds; at gamma = 0 the even modes are expected to fail
    pos = n_list > 0
    nn = n_list[pos].astype(float)
    nb = nn * np.abs(b[pos])
    dead = [int(n) for n, v in zip(n_list, np.abs(b)) if n != 0 and v < 1e-8]
    if params.gamma > 0:
        c_fit = float(np.min(nb) / params.gamma)
        C_fit = float(np.max(nb))
        passed = bool(c_fit > 0 and not dead)
    else:
        c_fit, C_fit = 0.0, float(np.max(nb))
        passed = False
    items["moment_bounds"] = {
        "passed": passed,
        "lower_c": c_fit,
        "upper_C": C_fit,
        "dead_modes": dead,
    }

    # profile moments on the zeta side: m <= |mu_n <I,f_n>| <= M, <I,f0> = 0
    nz = n_list != 0
    mui = np.abs(eigs[nz] * imom[nz])
    m_fit, M_fit = float(np.min(mui)), float(np.max(mui))
    i0 = float(np.abs(imom[~nz][0]))
    items["profile_moments"] = {
        "passed": bool(m_fit > 0 and i0 < 1e-8),
        "m": m_fit,
        "M": M_fit,
        "i_f0": i0,
    }

    constants = {"c": c_fit, "C": C_fit, "m": m_fit, "M": M_fit}
    return MomentReport(
        params=params, n_list=n_list, eigenvalues=eigs, b=b, a=a, i_mom=imom,
        items=items, constants=constants, gamma_zero_even_modes=dead,
    )


@dataclass
class DualBasis:
    """Biorthogonal duals of ``{e^{mu_n (s - 2L)}}`` on L^2(0, 2L).

    ``coeffs[j, m]`` expresses dual p_m in the span of the exponentials;
    ``grid`` is the control's sample grid, whose end is the horizon T.
    """

    eigenvalues: np.ndarray
    coeffs: np.ndarray
    grid: np.ndarray
    gram_condition: float


def dual_exponentials(eigenvalues, quadrature) -> DualBasis:
    """Solve the Gram system for the dual family of the exponentials.

    ``quadrature`` is an odd-size grid on [0, T], T = 2L: the control's sample
    grid and horizon. The Gram matrix is exact, ``G_ij = int_0^T e^{z (s-T)} ds
    = -expm1(-z T)/z`` with ``z = mu_i + conj(mu_j)`` (``T`` at z = 0). Raises
    if two eigenvalues lie within 1e-8 (spectrum not simple) or if the Gram
    matrix is ill-conditioned beyond 1e12 (truncation too large).
    """
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    if collision(eigenvalues):
        raise NumericalError("eigenvalue collision below 1e-8: duals are singular")
    grid = np.asarray(quadrature, dtype=float)
    if grid.ndim == 0:
        raise ConfigError("quadrature must be a grid array on [0, 2L]")
    if grid.size % 2 == 0:
        raise ConfigError("quadrature grid must have an odd number of points")
    T = grid[-1]
    z = eigenvalues[:, None] + np.conj(eigenvalues)
    G = np.where(z == 0, T, -np.expm1(-z * T) / np.where(z == 0, 1.0, z))
    cond = float(np.linalg.cond(G))
    if cond > 1e12:
        raise NumericalError(
            f"Gram condition {cond:.2e} > 1e12; reduce the number of steered modes"
        )
    # duals p_m = sum_j coeffs[j,m] e_j with <e_n, p_m> = delta_nm
    coeffs = np.conj(np.linalg.inv(G))
    return DualBasis(
        eigenvalues=eigenvalues.copy(), coeffs=coeffs, grid=grid,
        gram_condition=cond,
    )


@dataclass
class ControlSignal:
    """Open-loop control ``u(s) = sum_j amp[j] e^{rate[j] (s - T)}`` on [0, T].

    ``T = t[-1] = 2L`` is the control horizon; the control is zero after it.
    ``u`` holds the samples on ``t``. A zero target has no exponentials.
    """

    t: np.ndarray
    rates: np.ndarray
    amplitudes: np.ndarray

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape, dtype=complex)
        inside = s <= self.t[-1] + 1e-12
        out[inside] = self.amplitudes @ np.exp(np.outer(self.rates, s[inside] - self.t[-1]))
        return out

    @cached_property
    def u(self) -> np.ndarray:
        return self(self.t)

    def l2_norm(self) -> float:
        w = simpson_weights(self.t)
        return math.sqrt(float(np.sum(w * np.abs(self.u) ** 2)))

    def to_csv_rows(self):
        for ti, ui in zip(self.t, self.u):
            yield ti, ui.real, ui.imag


def synthesize_open_loop(params: Params, modes: WModes, duals: DualBasis,
                         target: dict) -> ControlSignal:
    """Open-loop control steering 0 to the prescribed modal state at t = 2L.

    ``target`` maps mode index n (n != 0) to the desired psi_n amplitude.
    The moment solved for each steered mode is
    ``int e^{mu_n (s-2L)} u(s) ds = k_n <psi_n, chi_n> / b_n`` (plain
    bilinear pairing in both factors), hence
    ``u = sum_n (k_n <psi_n,chi_n>/b_n) conj(p_n)``.
    """
    if any(int(n) == 0 for n in target):
        raise UncontrollableError(
            "mode 0 is the conserved mass direction; its target must be absent"
        )
    n_list = modes.n_list
    K = n_list.size
    outside = [int(n) for n in target if abs(int(n)) > (K - 1) // 2]
    if outside:
        raise ConfigError(f"target modes {outside} outside the modes' -N..N")
    b, beta = input_gains(modes)
    cvec = np.zeros(K, dtype=complex)
    any_target = False
    for n, k in target.items():
        i = modes.index(n)
        if k == 0:
            continue
        any_target = True
        if abs(b[i]) < 1e-8:
            raise UncontrollableError(
                f"moment b_{int(n)} vanishes (|b| = {abs(b[i]):.2e}); "
                "this direction is unobservable at the current gamma"
            )
        cvec[i] = complex(k) / beta[i]
    tq = duals.grid
    if not any_target:
        empty = np.zeros(0, dtype=complex)
        return ControlSignal(t=tq, rates=empty, amplitudes=empty)
    if duals.eigenvalues.size != K:
        raise ConfigError(
            "duals must be built on the full 2N+1 eigenvalue family of the modes"
        )
    # u = sum_m cvec[m] conj(p_m) as an exponential sum; the mode-0 dual is
    # part of the family (with zero coefficient), which pins the mass moment
    # int u = 0 exactly
    return ControlSignal(
        t=tq, rates=np.conj(duals.eigenvalues), amplitudes=np.conj(duals.coeffs) @ cvec
    )
