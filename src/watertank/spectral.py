"""Eigenstructure of the transport operators by shooting.

Two boundary-condition kinds are shot for the first-order system
``L f' + delta(x) J f = lambda f`` on [0, L] (``L = diag(1, -1)``,
``J = [[0, 1/3], [-1/3, 0]]``): conservative (reflection at both ends) and
damped (reflection coefficient ``-exp(-2 mu L)`` at x=0). The damped
adjoint family is not shot: the component swap ``S`` anticommutes with
``L`` and ``J``, so ``S conj(f_n)`` is an adjoint eigenfunction with
eigenvalue ``conj(mu_n)`` (:func:`adjoint_values`).

The integrator works on modulated variables ``g = (exp(-lambda x) f1,
exp(lambda x) f2)``, which removes the stiff oscillation; at gamma = 0 the
integration is exact to rounding, and for gamma > 0 the error scales like
``gamma * (2 |lambda| h)^4``.

The eigenvalue search runs on fixed 512- and 1024-step marches, whatever the
grid, and returns their Richardson value ``b + (b - a)/15``. Only the store
pass of :func:`build_basis` marches on the grid, and its residual checks that root.
Every spectrum, this one and the closed loop's, is found by :func:`secant`, which
never counts a non-finite residual as converged, and guarded by :func:`collision`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from watertank.errors import DomainError, GridMismatchError, NumericalError
from watertank.model import Params, delta, diagonal_weight, simpson_weights, uniform_grid

__all__ = [
    "BcKind",
    "ModeIndexed",
    "Basis",
    "WModes",
    "find_eigenvalues",
    "build_basis",
    "w_modes",
    "kato_psi",
    "j0_overlap",
    "first_order_perturbation",
    "reference_mode",
    "adjoint_values",
    "gram_matrix",
    "pairings",
    "secant",
    "collision",
]


class BcKind(Enum):
    CONSERVATIVE = "conservative"
    DAMPED = "damped"


def _left_seed(kind: BcKind, params: Params) -> np.ndarray:
    if kind is BcKind.CONSERVATIVE:
        return np.array([1.0, -1.0], dtype=complex)
    return np.array([-math.exp(-2.0 * params.mu * params.L), 1.0], dtype=complex)


def _seed_eigenvalues(kind: BcKind, params: Params, n_list) -> np.ndarray:
    """Unperturbed eigenvalues used as root seeds."""
    base = 1j * math.pi * np.asarray(n_list, dtype=float) / params.L
    return base if kind is BcKind.CONSERVATIVE else params.mu + base


_SUBSTEPS = 2  # RK4 steps per grid cell of the store pass; its error estimate reruns at 1
_SEARCH_STEPS = 512  # RK4 steps of the coarse search march; the fine one takes twice as many
_BLOCK_STEPS = 512  # RK4 steps per stage table, which bounds its memory at any step count
_SECANT_TOL = 1e-10  # secant step below which an eigenvalue counts as converged


def _march(C, h, g, out=None):
    """RK4 through a stage table whose rows alternate step ends and midpoints.

    ``C[i]`` is the (2, K) pair ``(c e^{-2 lam x_i}, c e^{2 lam x_i})``, so a
    stage is ``C[i] * g[::-1]``. Marches the (2, K) state ``g`` and returns
    the final one; with ``out`` (K, 2, m), also stores g in it after every
    ``steps / m``-th step.
    """
    nsteps = (C.shape[0] - 1) // 2
    if out is not None:
        every = nsteps // out.shape[2]

    for k in range(nsteps):
        i0 = 2 * k
        k1 = C[i0] * g[::-1]
        k2 = C[i0 + 1] * (g + 0.5 * h * k1)[::-1]
        k3 = C[i0 + 1] * (g + 0.5 * h * k2)[::-1]
        k4 = C[i0 + 2] * (g + h * k3)[::-1]
        g = g + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if out is not None and (k + 1) % every == 0:
            out[:, :, (k + 1) // every - 1] = g.T
    return g


def _integrate(params: Params, lams, seed, nsteps, store=False):
    """Batch RK4 integration of the modulated shooting system.

    Parameters
    ----------
    lams : array of complex
        Shooting parameters (one integration per entry).
    seed : complex 2-vector
        Left boundary values (f1(0), f2(0)), shared by the batch.
    nsteps : int
        RK4 steps over [0, L]; with ``store`` a multiple of ``grid_points - 1``.
    store : bool
        If True, also sample f on the params grid and estimate its error.

    Returns
    -------
    residuals : array (K,)
        ``f1(L) + f2(L)`` per batch entry; with ``store``, relative to
        ``max |f|``.
    values : array (K, 2, nx), only if store.
    ode_err : array (K,), only if store
        ``max |f - f_coarse| / max |f|`` against a pass at twice the step.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    h = params.L / nsteps
    xs = np.linspace(0.0, params.L, 2 * nsteps + 1)  # stage abscissae: step ends and midpoints
    c = -np.asarray(delta(params, xs))[:, None] / 3.0
    g = np.tile(np.asarray(seed, dtype=complex)[:, None], lams.size)  # (2, K)
    if store:
        per_cell = nsteps // (params.grid_points - 1)
        vals = np.empty((lams.size, 2, params.grid_points), dtype=complex)
        vals[:, :, 0] = g.T
        coarse, g_coarse = vals.copy(), g
    for s0 in range(0, nsteps, _BLOCK_STEPS):
        s1 = min(s0 + _BLOCK_STEPS, nsteps)
        rows = slice(2 * s0, 2 * s1 + 1)
        E = np.exp(2.0 * np.outer(xs[rows], lams))  # e^{2 lam x}, (S, K)
        C = np.stack([c[rows] / E, c[rows] * E], axis=1)
        if store:
            cells = slice(s0 // per_cell + 1, s1 // per_cell + 1)
            # every other stage row is the stage table of the doubled step
            g_coarse = _march(C[::2], 2.0 * h, g_coarse, coarse[:, :, cells])
        g = _march(C, h, g, vals[:, :, cells] if store else None)
    eL = np.exp(lams * params.L)
    if not store:
        return g[0] * eL + g[1] / eL

    residuals = vals[:, 0, -1] * eL + vals[:, 1, -1] / eL
    # back to f variables: f1 = e^{lam x} g1, f2 = e^{-lam x} g2
    Eg = np.exp(np.outer(lams, uniform_grid(params)))  # (K, nx)
    for v in (vals, coarse):
        v[:, 0, :] *= Eg
        v[:, 1, :] /= Eg
    scale = np.max(np.abs(vals), axis=(1, 2))
    ode_err = np.max(np.abs(vals - coarse), axis=(1, 2)) / scale
    return np.abs(residuals) / scale, vals, ode_err


def secant(f, z_prev, z_cur, tol, max_step=np.inf, max_iter=14):
    """Vectorized secant roots of ``f`` (residuals entry by entry) from ``(z_prev, z_cur)``.

    An entry whose ``z_prev`` residual is below 1e-13 stays there. ``tol``, a number
    or a function of the new points, bounds the step; ``max_step`` caps it. An entry
    converges when its step is below ``tol`` and its residual is finite. Returns the
    last iterates and the converged mask.
    """
    with np.errstate(all="ignore"):  # a diverging entry turns to nan; it never converges
        r_prev, r_cur = f(np.concatenate([z_prev, z_cur])).reshape(2, -1)
        done = np.abs(r_prev) < 1e-13
        z_cur = np.where(done, z_prev, z_cur)
        r_cur = np.where(done, r_prev, r_cur)
        for _ in range(max_iter):
            dr = r_cur - r_prev
            safe = ~done & (dr != 0)
            step = np.where(safe, r_cur * (z_cur - z_prev) / np.where(safe, dr, 1.0), 0.0)
            big = np.abs(step) > max_step
            step = np.where(big, step * max_step / np.where(big, np.abs(step), 1.0), step)
            z_new = z_cur - step
            bound = tol(z_new) if callable(tol) else tol
            done = done | ((np.abs(z_new - z_cur) < bound) & np.isfinite(r_cur))
            if np.all(done):
                return z_new, done
            r_new = f(z_new)
            z_prev, r_prev = z_cur, r_cur
            z_cur, r_cur = z_new, np.where(done, r_cur, r_new)
    return z_cur, done


def collision(z):
    """Indices ``(i, j)``, ``i < j``, of the two closest entries of ``z``, every pair
    compared, if they lie within 1e-8; else None."""
    if len(z) < 2:
        return None
    d = np.abs(np.subtract.outer(z, z)) + np.diag(np.full(len(z), np.inf))
    i, j = np.unravel_index(np.argmin(d), d.shape)
    return (int(i), int(j)) if d[i, j] < 1e-8 else None


def find_eigenvalues(params: Params, kind: BcKind, n_range):
    """Operator eigenvalues for the requested mode indices.

    Secant refinement in the complex plane from the unperturbed eigenvalues
    (``i pi n / L``, plus ``mu`` if damped) on the 512- and 1024-step marches,
    Richardson-extrapolated. Raises NumericalError on non-convergence or root collision.
    """
    n_list = np.asarray(list(n_range), dtype=int)
    lam0 = _seed_eigenvalues(kind, params, n_list)
    seed = _left_seed(kind, params)

    def search(lam_prev, lam_cur, nsteps):  # the step cap is a trust region: roots sit within 1/(2L) of seeds
        lam, ok = secant(lambda lam: _integrate(params, lam, seed, nsteps), lam_prev, lam_cur,
                         _SECANT_TOL, max_step=0.3 / params.L)
        if not np.all(ok):
            raise NumericalError(f"eigenvalue search did not converge for n in {n_list[~ok].tolist()}")
        return lam

    coarse = search(lam0, lam0 + 0.02j / params.L, _SEARCH_STEPS)
    fine = search(coarse, coarse + 1e-6j / params.L, 2 * _SEARCH_STEPS)
    roots = fine + (fine - coarse) / 15.0

    if pair := collision(roots):  # the spectrum is simple in-regime
        a, b = n_list[list(pair)]
        raise NumericalError(
            f"root collision between modes {a} and {b}: spectrum not simple at these parameters"
        )
    drift = np.abs(roots - lam0)
    if np.any(drift > 0.5 / params.L):
        bad = n_list[drift > 0.5 / params.L]
        raise NumericalError(
            f"eigenvalue drift exceeds 1/(2L) for n in {bad.tolist()}; gamma outside the perturbative regime"
        )
    return roots


class ModeIndexed:
    """Rows of a mode family: mode ``n`` of ``n_list = -N..N`` is row ``n + N``."""

    def index(self, n: int) -> int:
        N = (self.n_list.size - 1) // 2
        if abs(int(n)) > N:
            raise DomainError(f"mode {int(n)} outside -{N}..{N}")
        return int(n) + N


@dataclass
class Basis(ModeIndexed):
    """Ordered eigenfamily for ``n in [-N, N]``, optionally with duals.

    ``values`` has shape (K, 2, nx) in mode order ``n_list``. For the damped
    kind, ``dual_values`` holds the biorthogonal family: the adjoint
    eigenfunctions :func:`adjoint_values` derives from ``values``, rescaled
    so the cross-Gram is the identity.
    """

    params: Params
    kind: BcKind
    n_list: np.ndarray
    eigenvalues: np.ndarray
    grid: np.ndarray
    values: np.ndarray
    dual_values: np.ndarray = None
    bc_residuals: np.ndarray = None
    ode_residuals: np.ndarray = None

    def eigenvalue(self, n: int) -> complex:
        return complex(self.eigenvalues[self.index(n)])

    @property
    def f1_at_0(self):
        return self.values[:, 0, 0]


def _slots(a_values, b_values, grid, conjugate):
    if a_values.shape[-2:] != (2, grid.size) or b_values.shape[-2:] != (2, grid.size):
        raise GridMismatchError("paired functions must be (..., 2, nx) arrays on the grid")
    b1 = b_values[..., 0, :]
    b2 = b_values[..., 1, :]
    if conjugate:
        b1, b2 = np.conj(b1), np.conj(b2)
    return a_values[..., 0, :], a_values[..., 1, :], b1, b2


def gram_matrix(a_values, b_values, grid, conjugate=True):
    """Pairing matrix ``G[i, j] = <a_i, b_j>`` of two (K, 2, nx) families.

    ``<f, g> = (1/2L) int (f1 conj(g1) + f2 conj(g2))`` under Simpson
    quadrature; ``conjugate=False`` gives the bilinear form.
    """
    a1, a2, b1, b2 = _slots(a_values, b_values, grid, conjugate)
    w = simpson_weights(grid)
    return ((a1 * w) @ b1.T + (a2 * w) @ b2.T) / (2.0 * grid[-1])


def pairings(a_values, b_values, grid, conjugate=True):
    """Diagonal of :func:`gram_matrix`: ``<a_k, b_k>`` for each row k.

    Either argument may be a single (2, nx) function, paired with every row
    of the other.
    """
    a1, a2, b1, b2 = _slots(a_values, b_values, grid, conjugate)
    w = simpson_weights(grid)
    return np.sum((a1 * b1 + a2 * b2) * w, axis=-1) / (2.0 * grid[-1])


def reference_mode(params: Params, kind: BcKind, n: int, grid=None) -> np.ndarray:
    """Unperturbed (gamma = 0) eigenfunctions in closed form.

    Conservative: ``(e^{i pi n x/L}, -e^{-i pi n x/L})``. Damped: the
    boundary-damped exponential pair with rate ``mu + i pi n/L``.
    """
    if grid is None:
        grid = uniform_grid(params)
    x = grid
    L = params.L
    if kind is BcKind.CONSERVATIVE:
        up = np.exp(1j * math.pi * n * x / L)
        return np.stack([up, -1.0 / up])
    rate = params.mu + 1j * math.pi * n / L
    return np.stack([np.exp(rate * x), -np.exp(rate * (2 * L - x))])


def adjoint_values(params: Params, values):
    """Damped-adjoint eigenfunctions ``-e^{-2 mu L} S conj(f)`` from damped ones.

    ``S`` swaps the two components (axis -2 of ``values``). It anticommutes
    with ``L`` and ``J``, whose entries are real, so the result solves
    ``-(L phi' + delta J phi) = conj(mu_n) phi`` with ``phi1(0) = -e^{2 mu L}
    phi2(0)`` and ``phi1(L) + phi2(L) = 0``. The factor maps the gamma = 0
    damped pair onto the closed-form adjoint pair ``(e^{r x}, -e^{r(2L-x)})``,
    ``r = -mu + i pi n/L``, the duals of (39).
    """
    return -math.exp(-2.0 * params.mu * params.L) * np.conj(values[..., ::-1, :])


def build_basis(params: Params, kind: BcKind, N=None, with_duals=True) -> Basis:
    """Assemble the eigenfamily for ``|n| <= N`` with invariant checks.

    Conservative: orthonormal family (Gram = identity to 1e-6), self-dual.
    Damped: functions continue the gamma = 0 family (38), scaled so that
    ``<f_n, phi_n^(0)> = 1`` against the gamma = 0 adjoint pair; the duals
    are :func:`adjoint_values` of the functions, rescaled so that
    ``<f_n, dual_m> = delta_nm`` (checked to 1e-6).
    """
    if N is None:
        N = params.n_modes
    n_list = np.arange(-N, N + 1)
    grid = uniform_grid(params)
    eigs = find_eigenvalues(params, kind, n_list)
    nsteps = (params.grid_points - 1) * _SUBSTEPS
    bc_res, vals, ode_err = _integrate(params, eigs, _left_seed(kind, params), nsteps, store=True)
    bad = n_list[~(bc_res <= np.maximum(1e-9, ode_err))]  # the grid march checks the roots; nan fails
    if bad.size:
        raise NumericalError(f"boundary residual of the grid march exceeds max(1e-9, its ODE "
                             f"error) for n in {bad.tolist()}")

    def check_identity(G, what):
        dev = np.abs(G - np.eye(n_list.size))
        if not np.max(dev) <= 1e-6:  # nan fails too
            i, j = np.unravel_index(np.argmax(dev), dev.shape)
            raise NumericalError(
                f"{what} failure at ({n_list[i]}, {n_list[j]}): {np.max(dev):.2e}"
            )

    dual_values = None
    if kind is BcKind.CONSERVATIVE:
        vals = vals / np.sqrt(pairings(vals, vals, grid).real)[:, None, None]
        phases = vals[:, 0, 0] / np.abs(vals[:, 0, 0])
        vals = vals / phases[:, None, None]
        check_identity(gram_matrix(vals, vals, grid), "orthonormality")
    else:
        refs = np.stack([reference_mode(params, BcKind.DAMPED, n, grid) for n in n_list])
        vals = vals / pairings(vals, adjoint_values(params, refs), grid)[:, None, None]
        if with_duals:
            phi = adjoint_values(params, vals)
            q = pairings(vals, phi, grid)  # <f_n, phi_n>
            dual_values = phi * np.conj(1.0 / q)[:, None, None]
            check_identity(gram_matrix(vals, dual_values, grid), "biorthonormality")
    return Basis(
        params=params, kind=kind, n_list=n_list, eigenvalues=eigs, grid=grid,
        values=vals, dual_values=dual_values,
        bc_residuals=bc_res, ode_residuals=ode_err,
    )


@dataclass
class WModes(ModeIndexed):
    """Kato-normalized eigenfamilies of the w-system and its adjoint.

    ``psi`` solves the system with diagonal-inclusive coupling; ``chi`` the
    adjoint one. Both continue the explicit gamma = 0 exponentials, with
    ``<psi_n(gamma), chi_n^(0)> = 1`` and ``<psi_n^(0), chi_n(gamma)> = 1``
    in the bilinear 1/(2L) pairing.
    """

    params: Params
    n_list: np.ndarray
    eigenvalues: np.ndarray
    grid: np.ndarray
    psi: np.ndarray
    chi: np.ndarray


def w_modes(params: Params, basis: Basis) -> WModes:
    """Derive the w-system families from the conservative basis.

    The diagonal weight ``exp(int delta)`` intertwines the two systems:
    ``psi_n = exp(-int delta) f_n`` up to scale, and the adjoint family is
    ``chi_n = exp(+int delta) conj(f_n)`` up to scale.
    """
    if basis.kind is not BcKind.CONSERVATIVE:
        raise ValueError("w_modes requires the conservative basis")
    grid = basis.grid
    ew = diagonal_weight(params, grid)
    psi_raw = basis.values / ew[None, None, :]
    chi_raw = np.conj(basis.values) * ew[None, None, :]
    refs = np.stack([reference_mode(params, BcKind.CONSERVATIVE, n, grid) for n in basis.n_list])
    # Kato scales: <psi_raw, psi_n^(0)> sesquilinear = <psi_raw, chi_n^(0)> bilinear
    psi = psi_raw / pairings(psi_raw, refs, grid)[:, None, None]
    chi = chi_raw / pairings(chi_raw, refs, grid, conjugate=False)[:, None, None]
    return WModes(
        params=params, n_list=basis.n_list.copy(),
        eigenvalues=basis.eigenvalues.copy(), grid=grid, psi=psi, chi=chi,
    )


def kato_psi(params: Params, basis: Basis, n: int) -> np.ndarray:
    """Kato-normalized w-system eigenfunction ``psi_n(gamma)`` for one mode."""
    modes = w_modes(params, basis)
    return modes.psi[modes.index(n)]


def j0_overlap(n: int, k: int) -> complex:
    """Closed-form ``<J0 psi_n^(0), psi_k^(0)>``; zero when |n| = |k|."""
    if abs(n) == abs(k):
        return 0.0 + 0.0j
    return (
        ((-1.0) ** (n + k) - 1.0)
        / (1j * math.pi)
        * (1.0 / (n - k) + (1.0 / 3.0) / (n + k))
    )


def _kato_series(params: Params, n: int, K: int):
    """Modes ``0 < |k-n| <= K`` and the coefficients of ``psi_n^(1)`` on them.

    ``c_k = (3L/4) <J0 psi_n^(0), psi_k^(0)> / (i pi (k-n))``.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    ks = [k for k in range(n - K, n + K + 1) if k != n]
    coefs = np.array(
        [
            (3.0 * params.L / 4.0) * j0_overlap(n, k) / (1j * math.pi * (k - n))
            for k in ks
        ]
    )
    return np.array(ks), coefs


def first_order_perturbation(params: Params, n: int, K: int = 2000) -> np.ndarray:
    """First-order Kato correction ``psi_n^(1)`` as a truncated mode series.

    ``psi_n^(1) = sum_{0 < |k-n| <= K} c_k psi_k^(0)``, ``c_k`` from
    :func:`_kato_series`. On the grid ``x_j = j L/(nx-1)`` the mode
    ``e^{i pi k x_j/L}`` is periodic in k with period ``P = 2(nx-1)``, so the
    coefficients are folded modulo P and the series is one FFT per component.
    """
    ks, coefs = _kato_series(params, n, K)
    nx = params.grid_points
    P = 2 * (nx - 1)
    a = np.zeros(P, dtype=complex)
    np.add.at(a, ks % P, coefs)
    return np.stack([P * np.fft.ifft(a)[:nx], -np.fft.fft(a)[:nx]])

