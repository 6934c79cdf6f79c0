"""Time integration, Lyapunov certificates, and decay-rate estimation.

The modal closed loop and the open-loop w-system are both linear with
constant coefficients, so both are recorded through one exact propagator,
the matrix exponential of their generator over one record step; there is no
step size to choose. The open-loop control is a sum of exponentials, which
enter as extra states ``v' = diag(rates) v`` with ``u = sum v``. The
recorded mass is linear in the modal coefficients, so it is one dot product
with the per-mode masses.

A first-order upwind scheme provides the independent cross-check path for
the same systems on the spatial grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from watertank.control import ControlSignal, input_gains
from watertank.errors import ConfigError, DomainError, NumericalError
from watertank.feedback import FeedbackLaw
from watertank.model import (
    Params,
    delta,
    diagonal_weight,
    height_root_profile,
    simpson_weights,
    uniform_grid,
)
from watertank.spectral import Basis, BcKind, WModes, pairings

__all__ = [
    "Trajectory",
    "LyapunovCertificate",
    "RECORD_INTERVALS",
    "real_initial_datum",
    "integrate_closed_loop",
    "integrate_target",
    "integrate_open_loop_w",
    "fd_upwind_step",
    "fd_simulate",
    "lyapunov_certificate",
    "lyapunov_functional",
    "decay_rate_estimate",
]

RECORD_INTERVALS = 500  # closed-loop records per run, after the initial state


@dataclass
class Trajectory:
    """Recorded modal time series with derived norms and the mass invariant."""

    params: Params
    n_list: np.ndarray
    times: np.ndarray
    coeffs: np.ndarray          # (nt, K) state coefficients
    zeta0: np.ndarray           # (nt,) dynamic-extension scalar (0 if unused)
    norm_l2: np.ndarray
    norm_da: np.ndarray         # D(A)-weighted norm
    mass: np.ndarray
    control: np.ndarray

    def norm(self, selector: str) -> np.ndarray:
        if selector == "l2":
            return self.norm_l2
        if selector == "da":
            return self.norm_da
        raise ConfigError(f"unknown norm selector {selector!r}")

    def csv_rows(self):
        for i, t in enumerate(self.times):
            row = [t]
            row.extend(np.abs(self.coeffs[i]))
            row.extend([self.zeta0[i].real, self.zeta0[i].imag])
            row.extend([self.norm_l2[i], self.norm_da[i]])
            row.extend([self.mass[i].real, self.mass[i].imag])
            row.extend([self.control[i].real, self.control[i].imag])
            yield row


def _propagate(M, y0, t_final, n_steps):
    """Record ``y' = M y`` from ``y0`` at ``n_steps`` equal steps of ``t_final``.

    Forms the exact propagator ``expm(M t_final / n_steps)`` once; returns the
    record times and the (n_steps + 1, size) records. Raises NumericalError on
    a non-finite generator or state.
    """
    if not np.all(np.isfinite(M)):
        raise NumericalError("generator has non-finite entries")
    P = expm(M * (t_final / n_steps))
    y = np.empty((n_steps + 1, y0.size), dtype=complex)
    y[0] = y0
    for k in range(n_steps):
        y[k + 1] = P @ y[k]
    if not np.all(np.isfinite(y)):
        raise NumericalError("propagated state is not finite")
    return np.linspace(0.0, t_final, n_steps + 1), y


def _norms(coeffs, eigenvalues) -> dict:
    """``norm_l2`` and the D(A)-weighted ``norm_da`` of each record."""
    sq = np.abs(coeffs) ** 2
    return {
        "norm_l2": np.sqrt(np.sum(sq, axis=1)),
        "norm_da": np.sqrt(np.sum((1.0 + np.abs(eigenvalues) ** 2) * sq, axis=1)),
    }


def _mode_masses(params, values, gauge=1.0) -> np.ndarray:
    """``model.mass_functional`` of each mode's w-function ``values / gauge``.

    Mass is linear, so this is one contraction of both components against
    the weight ``simpson * W^2 / gauge``.
    """
    grid = uniform_grid(params)
    q = simpson_weights(grid) * height_root_profile(params, grid) ** 2 / gauge
    return values[:, 0, :] @ q - values[:, 1, :] @ q


def real_initial_datum(rng, n_modes: int) -> np.ndarray:
    """Seeded real datum on modes ``-N..N``: conjugate pairs, mode 0 zero.

    ``c_n = (a + i b)/(1+n)^2`` with a, b standard normal drawn in the order
    n = 1..N (real part first), and ``c_{-n} = conj c_n``.
    """
    c0 = np.zeros(2 * n_modes + 1, dtype=complex)
    for n in range(1, n_modes + 1):
        a = (rng.standard_normal() + 1j * rng.standard_normal()) / (1 + n) ** 2
        c0[n_modes + n] = a
        c0[n_modes - n] = np.conj(a)
    return c0


def integrate_closed_loop(params: Params, law: FeedbackLaw, init,
                          zeta0_init=0.0, t_final=None) -> Trajectory:
    """Closed-loop propagation of the virtual-extended modal system.

    State: zeta coefficients over |n| <= N (mode 0 must start at zero: the
    physical mass constraint) plus the dynamic-extension scalar zeta0. The
    control value is ``u = sum c_n table[n] + zeta0 table[0]``; the zeta
    modes are forced through the physical profile moments <I, f_n> while
    ``zeta0' = nu u`` carries the virtual direction. A zero-table law (see
    feedback.zero_law) yields the open-loop skew system.

    The extended system is linear with constant coefficients, ``y' = M y``
    with ``M = diag(-mu_n, 0) + (<I, f_n>, nu) (table, table[0])``, so the
    state is recorded at ``RECORD_INTERVALS`` equal steps of ``t_final`` by
    the exact propagator ``expm(M t_final / RECORD_INTERVALS)``.
    """
    basis = law.basis
    if basis is None:
        raise ConfigError("integrate_closed_loop needs a law carrying its basis")
    n_list = law.n_list
    K = n_list.size
    init = np.asarray(init, dtype=complex)
    if init.shape != (K,):
        raise ConfigError(f"init must have shape ({K},)")
    i0 = law.index(0)
    if abs(init[i0]) > 1e-10:
        raise ConfigError("init must have zero mode-0 component (mass constraint)")
    if t_final is None:
        t_final = params.t_final

    eigs = law.eigenvalues
    table_ext = np.concatenate([law.table, [law.table[i0]]])
    force_ext = np.concatenate([law.i_moments, [law.nu]])
    M = np.diag(np.concatenate([-eigs, [0.0]])) + np.outer(force_ext, table_ext)
    times, y = _propagate(M, np.concatenate([init, [zeta0_init]]), t_final, RECORD_INTERVALS)

    coeffs, zeta0 = y[:, :K], y[:, K]
    zc = coeffs.copy()
    zc[:, i0] += zeta0
    masses = _mode_masses(params, basis.values, diagonal_weight(params, basis.grid))
    return Trajectory(
        params=params, n_list=n_list.copy(), times=times, coeffs=coeffs, zeta0=zeta0,
        **_norms(zc, eigs), mass=coeffs @ masses, control=y @ table_ext,
    )


def integrate_target(params: Params, basis: Basis, init, t_final=None,
                     n_samples=400) -> Trajectory:
    """Uncontrolled target system: exact diagonal decay on the damped basis."""
    if basis.kind is not BcKind.DAMPED:
        raise ConfigError("integrate_target expects the damped basis")
    init = np.asarray(init, dtype=complex)
    K = basis.n_list.size
    if init.shape != (K,):
        raise ConfigError(f"init must have shape ({K},)")
    if t_final is None:
        t_final = params.t_final
    times = np.linspace(0.0, t_final, n_samples)
    coeffs = init[None, :] * np.exp(-np.outer(times, basis.eigenvalues))
    zeros = np.zeros(times.size, dtype=complex)
    return Trajectory(
        params=params, n_list=basis.n_list.copy(), times=times, coeffs=coeffs,
        zeta0=zeros, **_norms(coeffs, basis.eigenvalues), mass=zeros.copy(),
        control=zeros.copy(),
    )


def integrate_open_loop_w(params: Params, modes: WModes, control: ControlSignal,
                          init, t_final, dt=1e-3) -> Trajectory:
    """w-system under a prescribed control: ``w_n' = -mu_n w_n + u(t) beta_n``.

    ``beta_n = b_n / <psi_n, chi_n>`` (plain bilinear pairing in both
    factors). Each exponential ``amp_j e^{rate_j (t - T)}`` of the control
    is a state ``v_j' = rate_j v_j`` with ``u = sum v``, so the extended
    system is linear with constant coefficients and is recorded exactly
    every ``dt`` (rounded so the records split ``t_final`` evenly).
    ``t_final`` must not pass the control horizon T. The recorded mass
    applies the quadrature mass functional of each psi_n to the
    coefficients -- a genuine cross-check of the conserved-weight closed
    form against the modal data.
    """
    n_list = modes.n_list
    K = n_list.size
    init = np.asarray(init, dtype=complex)
    if init.shape != (K,):
        raise ConfigError(f"init must have shape ({K},)")
    horizon = control.t[-1]
    if t_final > horizon + 1e-12:
        raise ConfigError(f"t_final = {t_final} passes the control horizon {horizon}")
    _, beta = input_gains(modes)
    M = np.diag(np.concatenate([-modes.eigenvalues, control.rates]))
    M[:K, K:] = beta[:, None]
    v0 = control.amplitudes * np.exp(-control.rates * horizon)
    times, y = _propagate(M, np.concatenate([init, v0]), t_final,
                          int(math.ceil(t_final / dt)))
    coeffs = y[:, :K]
    zeros = np.zeros(times.size, dtype=complex)
    return Trajectory(
        params=params, n_list=n_list.copy(), times=times, coeffs=coeffs, zeta0=zeros,
        **_norms(coeffs, modes.eigenvalues), mass=coeffs @ _mode_masses(params, modes.psi),
        control=y[:, K:].sum(axis=1),
    )


def _upwind(state, u, dt, cfl, c, ew, r0):
    """One upwind step on precomputed grid data.

    ``c = -delta/3``, ``ew = e^{int delta}``, inflow ``zeta_1(0) = r0 zeta_2(0)``.
    """
    z1, z2 = state[0], state[1]
    s1 = c * z2 + u * ew
    s2 = -c * z1 + u * ew
    new1 = z1.copy()
    new2 = z2.copy()
    new1[1:] = z1[1:] - cfl * (z1[1:] - z1[:-1]) + dt * s1[1:]
    new2[:-1] = z2[:-1] + cfl * (z2[1:] - z2[:-1]) + dt * s2[:-1]
    new1[0] = r0 * new2[0]
    new2[-1] = -new1[-1]
    return np.stack([new1, new2])


def _upwind_setup(params: Params, state, kind: BcKind, dt: float):
    """Check the state shape, the CFL number and the kind; return ``_upwind``'s grid data."""
    grid = uniform_grid(params)
    state = np.asarray(state)
    if state.shape != (2, grid.size):
        raise ConfigError(f"state must have shape (2, {grid.size})")
    cfl = dt / (grid[1] - grid[0])
    if cfl > 1.0 + 1e-12:
        raise ConfigError(f"CFL violation: dt/dx = {cfl:.3f} > 1")
    if kind is BcKind.CONSERVATIVE:
        r0 = -1.0
    elif kind is BcKind.DAMPED:
        r0 = -math.exp(-2.0 * params.mu * params.L)
    else:
        raise ConfigError("fd_upwind_step supports conservative/damped kinds")
    return cfl, -delta(params, grid) / 3.0, diagonal_weight(params, grid), r0


def fd_upwind_step(params: Params, state: np.ndarray, kind: BcKind, u,
                   dt: float) -> np.ndarray:
    """One first-order upwind step of the zeta system on the grid.

    ``zeta_1`` transports rightward, ``zeta_2`` leftward; the coupling
    ``delta J`` and the control ``u I`` are added explicitly; inflow
    boundary values follow the kind's reflection law. Requires
    ``CFL = dt/dx <= 1``.
    """
    return _upwind(np.asarray(state), u, dt, *_upwind_setup(params, state, kind, dt))


def fd_simulate(params: Params, init: np.ndarray, kind: BcKind, t_final,
                control=None, cfl=1.0):
    """March the upwind scheme to t_final; returns the final state.

    ``control`` is a callable t -> complex (or None). CFL defaults to 1,
    where the pure transport part is exact.
    """
    grid = uniform_grid(params)
    dx = grid[1] - grid[0]
    dt = cfl * dx
    nst = int(math.ceil(t_final / dt))
    dt = t_final / nst
    if dt / dx > 1.0 + 1e-12:
        nst += 1
        dt = t_final / nst
    state = np.asarray(init, dtype=complex).copy()
    step_data = _upwind_setup(params, state, kind, dt)
    for k in range(nst):
        u = 0.0 if control is None else control(k * dt)
        state = _upwind(state, u, dt, *step_data)
    return state


@dataclass
class LyapunovCertificate:
    """Weight data certifying exponential decay of the target system."""

    lam: float
    grid: np.ndarray
    eta: np.ndarray
    xi: np.ndarray
    feasible: bool
    theta1: np.ndarray
    theta2: np.ndarray
    blowup_x: float = None


def lyapunov_certificate(params: Params, lam: float) -> LyapunovCertificate:
    """Integrate the Riccati-type weight ODE and compare with its supersolution.

    ``eta' = |delta/3| (e^{-2 lam (x-L)} - eta^2 e^{2 lam (x-L)})`` with
    ``eta(0) = e^{-2(mu-lam)L}``; feasible iff eta exists on [0, L] with
    ``eta(L) <= 1``. The closed-form supersolution is
    ``xi = eta(0) + (||delta||_inf / 6 lam)(e^{2 lam L} - e^{2 lam (L-x)})``,
    and the quadratic weights are reconstructed as
    ``theta1 = e^{-2 lam (x-L)}/eta``, ``theta2 = eta e^{2 lam (x-L)}``.
    """
    if not 0 < lam < params.mu:
        raise DomainError("lambda must lie in (0, mu)")
    grid = uniform_grid(params)
    L = params.L
    h = grid[1] - grid[0]
    eta0 = math.exp(-2.0 * (params.mu - lam) * L)

    # stage data on the half-grid (step endpoints and midpoints)
    xs = np.linspace(0.0, L, 2 * (grid.size - 1) + 1)
    dabs = np.abs(delta(params, xs)) / 3.0
    em = np.exp(-2.0 * lam * (xs - L))
    ep = np.exp(2.0 * lam * (xs - L))

    def rhs(j, e):
        return dabs[j] * (em[j] - e * e * ep[j])

    eta = np.empty(grid.size)
    eta[0] = eta0
    e = eta0
    blowup = None
    for i in range(grid.size - 1):
        j = 2 * i
        k1 = rhs(j, e)
        k2 = rhs(j + 1, e + h / 2 * k1)
        k3 = rhs(j + 1, e + h / 2 * k2)
        k4 = rhs(j + 2, e + h * k3)
        e = e + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not math.isfinite(e) or abs(e) > 1e6 or e <= 0:
            blowup = float(grid[i + 1])
            eta[i + 1 :] = np.nan
            break
        eta[i + 1] = e

    dmax = float(np.max(np.abs(delta(params, grid))))
    xi = eta0 + (dmax / (6.0 * lam)) * (
        math.exp(2.0 * lam * L) - np.exp(2.0 * lam * (L - grid))
    )
    feasible = blowup is None and eta[-1] <= 1.0 + 1e-12
    if feasible:
        theta1 = np.exp(-2.0 * lam * (grid - L)) / eta
        theta2 = eta * np.exp(2.0 * lam * (grid - L))
    else:
        theta1 = np.full(grid.size, np.nan)
        theta2 = np.full(grid.size, np.nan)
    return LyapunovCertificate(
        lam=lam, grid=grid, eta=eta, xi=xi, feasible=feasible,
        theta1=theta1, theta2=theta2, blowup_x=blowup,
    )


def lyapunov_functional(params: Params, basis: Basis, coeffs,
                        cert: LyapunovCertificate) -> float:
    """Quadratic functional ``V = sum_{k=0,1} ||Theta (A~^k z)||^2`` (p = 1).

    The operator power is applied modally (exact on the damped basis), the
    weights come from the certificate, and each norm is the 1/(2L) pairing
    of ``spectral.pairings``.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    comps = np.tensordot(np.stack([coeffs, coeffs * basis.eigenvalues]), basis.values, axes=(1, 0))
    theta = np.stack([cert.theta1, cert.theta2])
    return float(np.sum(pairings(comps * theta, comps, basis.grid).real))


def decay_rate_estimate(traj: Trajectory, selector="da", window=None):
    """Log-linear least-squares decay rate of a recorded norm.

    Returns ``(rate, r_squared)`` where the fitted model is
    ``log norm = a - rate * t`` over the window (defaults to the full run).
    """
    norm = traj.norm(selector)
    t = traj.times
    if window is not None:
        mask = (t >= window[0]) & (t <= window[1])
    else:
        mask = np.ones(t.size, dtype=bool)
    if mask.sum() < 3:
        raise ConfigError("window contains fewer than 3 samples")
    y = norm[mask]
    if np.any(y <= 0):
        raise NumericalError("norm is not positive on the fit window")
    ly = np.log(y)
    A = np.vstack([t[mask], np.ones(mask.sum())]).T
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0
    else:
        ss_res = float(res[0]) if res.size else float(np.sum((ly - A @ coef) ** 2))
        r2 = 1.0 - ss_res / ss_tot
    return float(-coef[0]), float(r2)
