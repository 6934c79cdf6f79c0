"""Time integration, Lyapunov certificates, and decay-rate estimation.

The modal closed loop and the open-loop w-system are both linear with
constant coefficients, so both are recorded through one exact propagator,
the matrix exponential of their generator over one record step; there is no
step size to choose. The n records of a run are built by doubling over the
repeated squares of that propagator, about log2(n) matrix products. The
closed loop runs from the data of a real state, so it is recorded in real
arithmetic: in the real coordinates ``r = feedback.to_real(y)`` of
``y = c + zeta0 e_0`` (the dynamic-extension scalar in mode 0), by the one
real Galerkin matrix that ``backstepping.galerkin_spectrum`` analyses. Its
norms and control are rows of r, its mass ``m_0 c_0`` is 0 by construction
(``feedback``), and its modal records are real by construction,
``y_{-n} = conj(y_n)`` exactly. The open-loop control is a
sum of exponentials, which enter as extra states ``v' = diag(rates) v``
with ``u = sum v``.

A grid march at CFL 1, ``fd_simulate``, provides the independent
cross-check path for the same systems on the spatial grid: transport is an
exact one-cell shift per step, and the coupling and control are added
explicitly. It has one step rule, on one flat array: zeta_1, then zeta_2 in
reverse order, so both components move toward the higher index and each
entry's coupling partner is entry ``2 nx - 1 - i``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from watertank.control import ControlSignal, dual_exponentials, input_gains, synthesize_open_loop
from watertank.errors import ConfigError, DomainError, NumericalError, RegimeError
from watertank.feedback import FeedbackLaw, from_real, real_row, real_weights, to_real
from watertank.model import LAW_KEYS, Params, delta, diagonal_weight, mode_masses, uniform_grid
from watertank.spectral import Basis, BcKind, WModes, gram_matrix, reflection, shoot

__all__ = [
    "Trajectory",
    "LyapunovCertificate",
    "RECORD_INTERVALS",
    "real_initial_datum",
    "integrate_closed_loop",
    "integrate_target",
    "integrate_open_loop_w",
    "steer",
    "fd_simulate",
    "lyapunov_certificate",
    "lyapunov_functional",
    "decay_rate_estimate",
]

RECORD_INTERVALS = 500  # closed-loop records per run, after the initial state


@dataclass
class Trajectory:
    """Recorded modal time series with derived norms and the mass invariant."""

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

    @property
    def mass_drift(self) -> float:
        """``max |mass - mass[0]|``: how far the conserved mass moved over the run."""
        return float(np.max(np.abs(self.mass - self.mass[0])))


_PADE13 = (64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800, 129060195264000,
           10559470521600, 670442572800, 33522128640, 1323241920, 40840800, 960960, 16380, 182, 1)


def _expm(A):
    """Matrix exponential by the degree-13 Pade approximant with scaling and squaring.

    The approximant is Higham's (2005). The scaling ``s`` is Al-Mohy and
    Higham's (2009): from ``eta = min(max(d6, d8), max(d8, d10))`` with the
    exact ``d_k = ||A^k||_1^(1/k)``, then raised by their backward-error
    correction, whose ``||(|2^-s A|)^27||_1`` is 27 products with a ones vector.
    """
    b = _PADE13
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    A8 = A4 @ A4
    d6, d8, d10 = (np.linalg.norm(X, 1) ** (1.0 / k) for X, k in ((A6, 6), (A8, 8), (A4 @ A6, 10)))
    eta = min(max(d6, d8), max(d8, d10))
    if not math.isfinite(eta):  # the powers of A overflow, and so would e^A
        return np.full(A.shape, np.nan, dtype=A.dtype)
    s = max(math.ceil(math.log2(eta / 4.25)), 0) if eta > 0 else 0
    X = np.abs(A) * 2.0 ** -s
    v = np.ones(A.shape[0])
    for _ in range(27):
        v = v @ X  # column sums of X^k: for X >= 0 their max is ||X^k||_1
    if v.max() > 0:  # c = (2m)! (2m+1)! / (m!)^2 at m = 13; u = 2^-53
        alpha = v.max() / (np.linalg.norm(X, 1) * 113250775606021113483283660800000000.0)
        s += max(math.ceil((math.log2(alpha) + 53) / 26), 0)
    A, A2, A4, A6 = (P * 2.0 ** (-k * s) for P, k in ((A, 1), (A2, 2), (A4, 4), (A6, 6)))
    I = np.eye(A.shape[0])
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I
    R = np.linalg.solve(V - U, 2.0 * U) + I  # (V - U)^-1 (V + U), with the identity split off
    for _ in range(s):
        R = R @ R
    return R


def _step_propagator(M, dt, n_steps):
    """The transposed powers ``[P^T, (P^2)^T, ..., (P^(2^J))^T]``, ``2^J <= n_steps``, of the
    exact propagator ``P = _expm(M dt)`` of ``y' = M y`` over one record step ``dt``.

    Each power is the square of the one before, so ``_record`` gets ``n_steps``
    records from J + 1 of them. Squaring stops at the last finite power: a
    power past the float range would turn even a record that stays finite into
    nan. Raises NumericalError on a non-finite generator.
    """
    if not np.all(np.isfinite(M)):
        raise NumericalError("generator has non-finite entries")
    with np.errstate(all="ignore"):  # a non-finite P fails its records
        powers = [_expm(M * dt).T]
        while 2 ** len(powers) <= n_steps:
            square = powers[-1] @ powers[-1]
            if not np.all(np.isfinite(square)):
                break
            powers.append(square)
    return powers


def _record(powers, y0, n_steps):
    """The (n_steps + 1, size) records ``y[k] = P^k y0`` from the powers of ``_step_propagator``.

    Records are built by doubling: once rows ``0..m - 1`` are set, with ``m =
    2^j``, the first ``r = min(m, n_steps + 1 - m)`` rows times ``(P^m)^T`` are
    rows ``m..m + r``. Past the largest power ``(P^s)^T`` the rows are filled in
    strides of s, rows ``k - s..k - s + r`` times it giving rows ``k..k + r``.
    Either way ``r`` does not pass the stride, so no product overlaps its
    source. The records are real when the powers and ``y0`` are. Raises
    NumericalError on a non-finite state.
    """
    y = np.empty((n_steps + 1, y0.size), dtype=np.result_type(powers[0], y0))
    y[0] = y0
    done = 1  # rows y[:done] are set
    with np.errstate(all="ignore"):  # a state past the float range raises below
        while done <= n_steps:
            j = min(done.bit_length(), len(powers)) - 1
            m = 2 ** j
            r = min(m, n_steps + 1 - done)
            np.matmul(y[done - m:done - m + r], powers[j], out=y[done:done + r])
            done += r
    if not np.all(np.isfinite(y)):
        raise NumericalError("propagated state is not finite")
    return y


def _norms(coeffs, eigenvalues) -> dict:
    """``norm_l2`` and the D(A)-weighted ``norm_da`` of each record."""
    sq = coeffs.real ** 2 + coeffs.imag ** 2
    weight = 1.0 + eigenvalues.real ** 2 + eigenvalues.imag ** 2
    return {"norm_l2": np.sqrt(np.sum(sq, axis=1)), "norm_da": np.sqrt(np.sum(weight * sq, axis=1))}


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
    """Closed-loop propagation of the virtual-extended modal system from a real state.

    State: zeta coefficients over |n| <= N (mode 0 must start at zero: the
    physical mass constraint) plus the dynamic-extension scalar zeta0. As
    ``mu_0`` and ``<I, f_0>`` vanish, the mode-0 coefficient stays zero and
    ``y = c + zeta0 e_0`` obeys the Galerkin system of
    ``law.galerkin_matrix()``. The data must be those of a real state:
    ``init[-n] = conj(init[n])`` and a real ``zeta0_init``, each to 1e-10
    (absolute, as the mode-0 check); anything else raises ConfigError. The
    run records the real coordinates ``r = feedback.to_real(y)`` at
    ``RECORD_INTERVALS`` equal steps of ``t_final`` by the exact real
    propagator ``P = _expm(M t_final / RECORD_INTERVALS)``, doubling over its
    squares ``P^(2^j)``. The norms and the control ``real_row(table) . r``
    are taken from r; the modal records follow by ``feedback.from_real``, so
    ``y_{-n} = conj(y_n)`` exactly and zeta0 and the control are real, stored
    complex. The mass ``m_0 c_0`` is recorded as 0: the other modes carry no
    mass and ``c_0`` stays 0 (see ``feedback``).
    zeta0 is mode 0 of y and the coefficients are the rest. A zero-table law
    (see feedback.zero_law) yields the open-loop skew system.

    Only the datum is paid for per run. The law keeps the powers of its last
    run's propagator in ``law.record_memo`` and reuses them while its freshly
    formed Galerkin matrix equals the stored one and the step is the same, so
    runs from many data on one law form them once, and a law whose table was
    replaced forms them anew. ``params`` must match ``law.params`` in every
    model parameter (``model.LAW_KEYS``); only ``t_final`` may differ.
    """
    mismatched = [k for k in LAW_KEYS if getattr(params, k) != getattr(law.params, k)]
    if mismatched:
        k = mismatched[0]
        raise ConfigError(f"params has {k} = {getattr(params, k)!r}, "
                          f"but the law was built at {getattr(law.params, k)!r}")
    K = law.n_list.size
    init = np.asarray(init, dtype=complex)
    if init.shape != (K,):
        raise ConfigError(f"init must have shape ({K},)")
    i0 = law.index(0)
    if abs(init[i0]) > 1e-10:
        raise ConfigError("init must have zero mode-0 component (mass constraint)")
    if np.max(np.abs(init[::-1] - np.conj(init))) > 1e-10:
        raise ConfigError("init must be the datum of a real state: init[-n] = conj(init[n])")
    if abs(complex(zeta0_init).imag) > 1e-10:
        raise ConfigError(f"zeta0_init must be real, got {zeta0_init!r}")
    if t_final is None:
        t_final = params.t_final

    dt = t_final / RECORD_INTERVALS
    M = law.galerkin_matrix()
    memo = law.record_memo
    if memo is None or memo[1] != dt or not np.array_equal(memo[0], M):
        memo = law.record_memo = (M, dt, _step_propagator(M, dt, RECORD_INTERVALS))
    r0 = to_real(init)
    r0[0] = complex(zeta0_init).real
    r = _record(memo[2], r0, RECORD_INTERVALS)
    sq = r * r
    y = from_real(r)
    zeta0 = y[:, i0].copy()
    y[:, i0] = 0.0
    return Trajectory(
        times=np.linspace(0.0, t_final, RECORD_INTERVALS + 1), coeffs=y, zeta0=zeta0,
        norm_l2=np.sqrt(sq @ real_weights(np.ones(K))),
        norm_da=np.sqrt(sq @ real_weights(1.0 + np.abs(law.eigenvalues) ** 2)),
        mass=np.zeros(len(r), dtype=complex), control=(r @ real_row(law.table)).astype(complex),
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
        times=times, coeffs=coeffs, zeta0=zeros, **_norms(coeffs, basis.eigenvalues),
        mass=zeros.copy(), control=zeros.copy(),
    )


def integrate_open_loop_w(params: Params, modes: WModes, control: ControlSignal,
                          init, t_final, dt=1e-3) -> Trajectory:
    """w-system under a prescribed control: ``w_n' = -mu_n w_n + u(t) beta_n``.

    ``beta_n = b_n / <psi_n, chi_n>`` (plain bilinear pairing in both
    factors). Each exponential ``amp_j e^{rate_j (t - T)}`` of the control
    is a state ``v_j' = rate_j v_j`` with ``u = sum v``, so the extended
    system is linear with constant coefficients and is recorded exactly
    every ``dt`` (rounded so the records split ``t_final`` evenly), by
    doubling over the squares of the step propagator, formed per run.
    ``t_final`` must not pass the control horizon T. The recorded mass
    applies the quadrature mass functional of each psi_n to the
    coefficients -- a genuine cross-check of the conserved-weight closed
    form against the modal data.
    """
    K = modes.n_list.size
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
    n_steps = int(math.ceil(t_final / dt))
    powers = _step_propagator(M, t_final / n_steps, n_steps)
    y = _record(powers, np.concatenate([init, v0]), n_steps)
    times = np.linspace(0.0, t_final, n_steps + 1)
    coeffs = y[:, :K]
    zeros = np.zeros(times.size, dtype=complex)
    return Trajectory(
        times=times, coeffs=coeffs, zeta0=zeros,
        **_norms(coeffs, modes.eigenvalues), mass=coeffs @ mode_masses(params, modes.psi),
        control=y[:, K:].sum(axis=1),
    )


def steer(params: Params, modes: WModes, target: dict):
    """Steer the w-system from rest to the psi_n amplitudes ``target`` (n -> amplitude) at 2L.

    Returns ``(control, trajectory, error, duals)``, ``error`` relative to the
    target's norm. The Gram matrix of the duals is exact, so the control's
    ``8 (nx - 1) + 1`` samples on [0, 2L] set only its samples and the Simpson
    quadrature of its L2 norm.
    """
    tq = np.linspace(0.0, 2 * params.L, 8 * (params.grid_points - 1) + 1)
    duals = dual_exponentials(modes.eigenvalues, tq)
    sig = synthesize_open_loop(params, modes, duals, target)
    traj = integrate_open_loop_w(params, modes, sig, np.zeros(modes.n_list.size, dtype=complex),
                                 t_final=2 * params.L)
    kvec = np.zeros(modes.n_list.size, dtype=complex)
    for n, v in target.items():
        kvec[modes.index(n)] = v
    err = float(np.linalg.norm(traj.coeffs[-1] - kvec) / np.linalg.norm(kvec))
    return sig, traj, err, duals


def fd_simulate(params: Params, init: np.ndarray, kind: BcKind, t_final, control=None):
    """March the zeta system on the grid at CFL 1 to t_final; returns the final state.

    ``zeta_1`` transports rightward, ``zeta_2`` leftward, each by exactly one
    cell per step (the Courant–Isaacson–Rees upwind scheme at CFL 1); the
    coupling ``delta J`` and the control ``u I`` are added explicitly; the inflow
    ``zeta_1(0) = r zeta_2(0)`` follows the kind's reflection law and
    ``zeta_2(L) = -zeta_1(L)``. ``control`` is a callable t -> complex (or
    None). ``t_final`` must be finite, positive and a whole number of cells
    (to 1e-9 relative); the march takes that many steps. The state is one flat
    array ``z``: ``zeta_1``, then ``zeta_2`` reversed, so both components move
    toward the higher index and the partner of entry ``i`` is entry
    ``2 nx - 1 - i``. A step writes into a preallocated buffer and swaps them.
    """
    if not (math.isfinite(t_final) and t_final > 0):
        raise ConfigError(f"t_final must be finite and positive, got {t_final!r}")
    grid = uniform_grid(params)
    dx = grid[1] - grid[0]
    nst = int(round(t_final / dx))
    if abs(nst * dx - t_final) > 1e-9 * t_final:
        raise ConfigError(f"t_final = {t_final!r} is not a whole number of cells of dx = {dx!r}")
    dt = t_final / nst
    init = np.asarray(init, dtype=complex)
    nx = grid.size
    if init.shape != (2, nx):
        raise ConfigError(f"state must have shape (2, {nx})")
    c = -delta(params, grid) / 3.0
    ew = diagonal_weight(params, grid)
    coup_dt = (np.concatenate([c, -c[::-1]])[1:] * dt).astype(complex)  # zeta_2' carries -c
    ew_dt = (np.concatenate([ew, ew[::-1]])[1:] * dt).astype(complex)
    r0 = reflection(kind, params)
    z = np.concatenate([init[0], init[1, ::-1]])
    new = np.empty_like(z)
    d = np.empty_like(ew_dt)
    for k in range(nst):
        np.multiply(coup_dt, z[-2::-1], out=new[1:])
        if control is not None:
            np.add(new[1:], np.multiply(ew_dt, control(k * dt), out=d), out=new[1:])
        np.add(z[:-1], new[1:], out=new[1:])
        new[0] = r0 * new[-1]
        new[nx] = -new[nx - 1]
        z, new = new, z
    return np.stack([z[:nx], z[:nx - 1:-1]])


@dataclass
class LyapunovCertificate:
    """Weight data certifying exponential decay of the target system."""

    grid: np.ndarray
    eta: np.ndarray
    xi: np.ndarray
    feasible: bool
    eta_below_xi: bool
    theta1: np.ndarray
    theta2: np.ndarray
    blowup_x: float = None


def lyapunov_certificate(params: Params, lam: float) -> LyapunovCertificate:
    """Solve the Riccati-type weight ODE and compare with its supersolution.

    ``eta' = |delta/3| (e^{-2 lam (x-L)} - eta^2 e^{2 lam (x-L)})`` with
    ``eta(0) = e^{-2(mu-lam)L}``; feasible iff eta exists on [0, L] with
    ``eta(L) <= 1``. The substitution ``eta = s e^{2 lam L} g1/g2``, with
    ``s`` the sign of gamma (so ``|delta|/3 = -s delta/3``), makes it the
    linear shooting system of :func:`spectral.shoot` at the real parameter
    lam, seeded ``(eta(0), s e^{2 lam L})`` and marched one Filon–Magnus
    step per grid cell; eta blows up where g2 crosses zero. An
    ``e^{2 lam L}`` past the float range raises RegimeError. The closed-form
    supersolution is
    ``xi = eta(0) + (||delta||_inf / 6 lam)(e^{2 lam L} - e^{2 lam (L-x)})``,
    and the quadratic weights are ``theta2 = eta e^{2 lam (x-L)}`` and
    ``theta1 = 1/theta2``.
    """
    if not 0 < lam < params.mu:
        raise DomainError("lambda must lie in (0, mu)")
    try:
        e2L = math.exp(2.0 * lam * params.L)
    except OverflowError:
        raise RegimeError(f"e^{{2 lam L}} = e^{2.0 * lam * params.L:.6g} leaves the float range: "
                          "the Lyapunov weights are not representable") from None
    grid = uniform_grid(params)
    eta0 = math.exp(-2.0 * (params.mu - lam) * params.L)
    sign = -1.0 if params.gamma < 0 else 1.0
    dmax = float(np.max(np.abs(delta(params, grid))))
    g = np.empty((grid.size, 2), dtype=complex)
    g[0] = eta0, sign * e2L
    with np.errstate(all="ignore"):
        for s0, s1, states in shoot(params, lam, g[0], grid.size - 1):
            g[s0 + 1:s1 + 1] = states[:, :, 0]
        eta = sign * e2L * (g[:, 0] / g[:, 1]).real
        xi = eta0 + (dmax / (6.0 * lam)) * (e2L - np.exp(2.0 * lam * (params.L - grid)))
    ok = np.logical_and.accumulate((eta > 0) & (eta <= 1e6))  # up to the first blow-up
    eta[~ok] = np.nan
    blowup = None if ok.all() else float(grid[ok.sum()])
    feasible = blowup is None and eta[-1] <= 1.0 + 1e-12
    theta2 = eta * np.exp(2.0 * lam * (grid - params.L)) if feasible else np.full(grid.size, np.nan)
    return LyapunovCertificate(
        grid=grid, eta=eta, xi=xi, feasible=feasible,
        eta_below_xi=bool(np.all(eta <= xi + 1e-12)),
        theta1=1.0 / theta2, theta2=theta2, blowup_x=blowup,
    )


def lyapunov_functional(basis: Basis, coeffs, cert: LyapunovCertificate):
    """Quadratic functional ``V = sum_{k=0,1} ||Theta (A~^k z)||^2`` (p = 1).

    ``coeffs`` holds (..., K) damped-basis coefficients; returns V for each
    row. The operator power is applied modally (exact on the damped basis),
    and each norm is the quadratic form ``c^T G conj(c)`` of the weighted
    Gram matrix ``G = <Theta f_m, f_n>`` of ``spectral.gram_matrix``, taken at
    ``c`` and ``c * eigenvalues``.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    G = gram_matrix(basis.values * np.stack([cert.theta1, cert.theta2]), basis.values, basis.grid)
    return sum(np.sum((c @ G) * np.conj(c), axis=-1).real
               for c in (coeffs, coeffs * basis.eigenvalues))


def decay_rate_estimate(traj: Trajectory, selector="da", window=None):
    """Log-linear least-squares decay rate of a recorded norm.

    Returns ``(rate, r_squared)`` where the fitted model is
    ``log norm = a - rate * t`` over the window (defaults to the full run),
    fitted in closed form: the slope of the centred data, and ``r_squared``
    from the centred residual.
    A log-norm whose spread is within rounding of its size gives ``r_squared`` 1.
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
    tc = t[mask] - t[mask].mean()
    lc = ly - ly.mean()
    slope = float(tc @ lc) / float(tc @ tc)  # the least-squares line, centred
    hi, lo = float(ly.max()), float(ly.min())
    if hi - lo <= 1e3 * np.finfo(float).eps * max(1.0, abs(hi), abs(lo)):
        r2 = 1.0  # flat to rounding: no variation for the fit to explain
    else:
        res = lc - slope * tc
        r2 = 1.0 - float(res @ res) / float(lc @ lc)
    return -slope, r2
