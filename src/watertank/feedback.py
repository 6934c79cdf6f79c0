"""Construction of the stabilizing modal feedback law.

The law acts on states expanded over the conservative eigenbasis (f_n):
for a state with coefficients c_n (mode 0 carried by the dynamic-extension
scalar), the control value is ``u = sum_n c_n * table[n]`` with

    table[n] = -2 tanh(mu L) f_{n,1}(0)^2 / (2L <I_nu, f_n>),

where ``I_nu = I + nu f_0`` is the virtual control profile and the bracket
is the 1/(2L)-weighted product the basis is orthonormal under. (The product
``c_n = table[n] * <I_nu, f_n> = -tanh(mu L) f_{n,1}(0)^2 / L`` is
normalization-invariant and does not decay: it is ~ -tanh(mu L) for every
n != 0. This is the unique scale at which the closed loop, with the tail
|n| > N of its characteristic sum taken in closed form
(``backstepping.closed_loop_spectrum``), has the boundary-damped target
eigenvalues, and the TB = B partial sums converge to the identity.)

The table grows linearly in n and is unbounded as a functional; its
singular part ``h_n = +tanh(mu L) f_{n,1}(0) mu_n / tau_n`` (with
``tau_n = e^{int delta} f_{n,1}(L)/f_{n,1}(0) - 1``) captures the growth,
the remainder having a square-summable tail against mu_n.

The law reads the basis only through its moments (``spectral.Moments``):
``f_n(0)``, ``f_n(L)`` and ``<I, f_n>``, which the store pass sums while it
marches. So a law built from a basis with ``samples=False`` has the same
bits as one from the full family, and no law path pairs samples;
:func:`virtual_profile` alone reads them. The rest is exact: f_0 alone
spans the conserved mass, which the control cannot move, so every other
mode has zero mass and ``<f_0, f_n> = delta_{n0}``. Hence
``<I_nu, f_n> = <I, f_n> + nu delta_{n0}``, and the closed loop's mass is
``m_0 c_0 = 0``, since ``c_0`` starts at 0 and is never driven.

The physical PI law (:func:`physical_feedback`) is this table carried through
the change of variables, which only rescales it by L/L_gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from watertank.control import control_profile
from watertank.errors import NumericalError, RegimeError, UncontrollableError
from watertank.model import Params, diagonal_weight, gamma_s_threshold, l_gamma
from watertank.spectral import Basis, BcKind, ModeIndexed

__all__ = [
    "FeedbackLaw",
    "to_real",
    "from_real",
    "real_row",
    "real_weights",
    "PhysicalFeedback",
    "virtual_profile",
    "synthesis_regime_check",
    "feedback_coefficients",
    "zero_law",
    "physical_feedback",
]


def virtual_profile(params: Params, basis: Basis) -> np.ndarray:
    """Virtual control profile ``I_nu = I + nu f_0``.

    The nu-component restores controllability of the conserved direction;
    ``<I_nu, f_0> = nu`` exactly (I is orthogonal to f_0).
    """
    return control_profile(params) + params.nu * basis.samples()[basis.index(0)]


def synthesis_regime_check(params: Params):
    """Raise RegimeError unless gamma lies in the synthesis regime (0, gamma_s(3mu/4))."""
    if params.gamma <= 0:
        raise RegimeError("synthesis requires gamma > 0 (gamma = 0 is uncontrollable)")
    gs = gamma_s_threshold(params, 0.75 * params.mu)
    if params.gamma >= gs:
        raise RegimeError(
            f"gamma = {params.gamma} is not below the feasibility threshold "
            f"gamma_s(3mu/4) = {gs:.4g}"
        )


def to_real(y) -> np.ndarray:
    """Real coordinates ``r = (Re y_0, Re y_1..N, Im y_1..N)`` of modal data over ``-N..N``
    (last axis): the coordinates of a real state, whose modes ``-n`` are ``conj(y_n)``."""
    y = np.asarray(y)
    pos = y[..., y.shape[-1] // 2:]
    return np.concatenate([pos.real, pos[..., 1:].imag], axis=-1)


def from_real(r) -> np.ndarray:
    """The modal data over ``-N..N`` of real coordinates ``r`` (:func:`to_real`): the real
    state's, with ``y_{-n} = conj(y_n)`` exactly and ``y_0`` real."""
    r = np.asarray(r)
    N = r.shape[-1] // 2
    y = np.empty(r.shape, dtype=complex)
    y[..., N:].real = r[..., :N + 1]
    y[..., N].imag = 0.0
    y[..., N + 1:].imag = r[..., N + 1:]
    y[..., :N] = np.conj(y[..., :N:-1])
    return y


def real_row(v) -> np.ndarray:
    """The row ``w`` with ``w . to_real(y) = Re(v . y)`` for every real state ``y``: for
    ``y_n = a_n + i b_n``, the pair ``v_n y_n + v_{-n} y_{-n}`` gives ``a_n`` the weight
    ``Re(v_n + v_{-n})`` and ``b_n`` the weight ``Im(v_{-n} - v_n)``."""
    v = np.asarray(v)
    N = v.size // 2
    pos, neg = v[N + 1:], v[N - 1::-1]
    return np.concatenate([[v[N].real], (pos + neg).real, (neg - pos).imag])


def real_weights(w) -> np.ndarray:
    """The weights ``q`` with ``q . to_real(y)**2 = sum_n w_n |y_n|^2`` for every real state
    ``y``, for real per-mode weights ``w``: ``a_n^2`` and ``b_n^2`` both weigh ``w_n + w_{-n}``."""
    w = np.asarray(w)
    N = w.size // 2
    pair = w[N + 1:] + w[N - 1::-1]
    return np.concatenate([[w[N]], pair, pair])


_SYMMETRY_TOL = 1e-10  # criterion 12's reality tolerance, here relative to the largest entry


@dataclass
class FeedbackLaw(ModeIndexed):
    """Modal feedback table with its moment data and singular/regular split.

    The closed loop of a real state runs in the real coordinates of
    :func:`to_real`, by the one real :meth:`galerkin_matrix`; its control is
    ``real_row(table) . r``.
    """

    params: Params
    n_list: np.ndarray
    table: np.ndarray          # <f_n, F>, applied linearly to coefficients
    i_nu_moments: np.ndarray   # <I_nu, f_n>
    eigenvalues: np.ndarray
    tau: np.ndarray            # tau_n = e^{int delta} f1(L)/f1(0) - 1
    singular: np.ndarray       # h_n
    # (M, dt, powers) of the last closed-loop run, the powers being the transposed squares
    # (e^{M dt})^(2^j) that simulate._record doubles over; simulate.integrate_closed_loop
    # reuses them only while galerkin_matrix() still equals M; dataclasses.replace starts it empty
    record_memo: tuple = field(default=None, init=False, repr=False, compare=False)

    def galerkin_matrix(self) -> np.ndarray:
        """The real N-mode closed loop ``r' = M r`` in ``r = to_real(y)``, ``y = c + zeta0 e_0``.

        In modal form the loop is ``y' = -diag(mu_n) y + <I_nu, f_n> u`` with the
        control ``u = table . y``, and a real state stays real. So each conjugate
        pair ``y_{+-n}`` is one real pair ``(a_n, b_n)``: ``mu_n = p + i q`` acts on it
        as the block ``[[-p, q], [-q, -p]]``, mode 0 as ``-mu_0``, and the forcing
        is the rank-one ``outer(to_real(<I_nu, f_n>), real_row(table))``. The matrix
        reads the eigenvalues and moments only at n >= 0, so it raises
        NumericalError, naming the worst mode, when ``table``, ``i_nu_moments`` or
        ``eigenvalues`` break ``v[-n] = conj(v[n])`` by more than 1e-10 of their
        largest entry.
        """
        N = self.index(0)
        for name in ("table", "i_nu_moments", "eigenvalues"):
            v = getattr(self, name)
            defect, scale = np.abs(v[N::-1] - np.conj(v[N:])), np.max(np.abs(v))
            if defect.max() > _SYMMETRY_TOL * scale:  # an all-zero table passes
                n = int(np.argmax(defect))
                raise NumericalError(f"{name} breaks v[-n] = conj(v[n]) most at n = {n}: "
                                     f"{defect[n]:.3g} against its largest entry {scale:.3g}")
        mu = self.eigenvalues[N:]
        M = np.outer(to_real(self.i_nu_moments), real_row(self.table))
        a, b = np.arange(1, N + 1), np.arange(N + 1, 2 * N + 1)
        M[0, 0] -= mu[0].real
        M[a, a] -= mu[1:].real
        M[b, b] -= mu[1:].real
        M[a, b] += mu[1:].imag
        M[b, a] -= mu[1:].imag
        return M

    def reality_defect(self) -> float:
        """``max |table[-n] - conj table[n]| / |table[n]|``, n = 0..N: 0 when real states get real controls."""
        pos, neg = self.table[self.index(0):], self.table[self.index(0)::-1]
        return float(np.max(np.abs(neg - np.conj(pos)) / np.abs(pos)))

    def growth_window(self):
        """Fitted (c, C) with c(1+|n|) <= |table| <= C(1+|n|)."""
        g = np.abs(self.table) / (1.0 + np.abs(self.n_list))
        return float(np.min(g)), float(np.max(g))


def _tau(params: Params, basis: Basis) -> np.ndarray:
    """``tau_n = e^{int delta} f_{n,1}(L) / f_{n,1}(0) - 1``."""
    ew_L = float(diagonal_weight(params, np.array([params.L]))[0])
    return ew_L * basis.moments.at_L[:, 0] / basis.moments.at_0[:, 0] - 1.0


def feedback_coefficients(params: Params, basis: Basis) -> FeedbackLaw:
    """Assemble the feedback table from the conservative basis's moments (``basis.moments``).

    Raises UncontrollableError naming the mode if any virtual moment
    vanishes, and RegimeError outside the synthesis regime
    (gamma in (0, gamma_s(3mu/4))).
    """
    if basis.kind is not BcKind.CONSERVATIVE:
        raise ValueError("feedback_coefficients requires the conservative basis")
    synthesis_regime_check(params)
    moments = basis.moments
    inu_m = moments.profile + params.nu * (basis.n_list == 0)  # <I_nu, f_n> = <I, f_n> + nu delta_{n0}
    dead = np.abs(inu_m) < 1e-12
    if np.any(dead):
        raise UncontrollableError(
            f"vanishing virtual moment <I_nu, f_n> at n in {basis.n_list[dead].tolist()}"
        )
    f1_0 = moments.at_0[:, 0]
    L = params.L
    table = -2.0 * math.tanh(params.mu * L) * f1_0**2 / (2.0 * L * inu_m)
    tau = _tau(params, basis)
    if np.any(np.abs(tau) < 1e-6):
        bad = basis.n_list[np.abs(tau) < 1e-6]
        raise RegimeError(f"|tau_n| below 1e-6 at n in {bad.tolist()}")
    h = math.tanh(params.mu * L) * f1_0 * basis.eigenvalues / tau
    return FeedbackLaw(
        params=params, n_list=basis.n_list.copy(), table=table,
        i_nu_moments=inu_m, eigenvalues=basis.eigenvalues.copy(), tau=tau, singular=h,
    )


def zero_law(params: Params, basis: Basis) -> FeedbackLaw:
    """A zero-table law carrying the basis moments: drives the open loop."""
    zeros = np.zeros(basis.n_list.size, dtype=complex)
    return FeedbackLaw(
        params=params, n_list=basis.n_list.copy(), table=zeros,
        i_nu_moments=basis.moments.profile.copy(), eigenvalues=basis.eigenvalues.copy(),
        tau=_tau(params, basis), singular=zeros.copy(),
    )


@dataclass
class PhysicalFeedback(ModeIndexed):
    """Feedback in physical (h, v) coordinates, with the PI recurrence.

    ``table[n]`` is the value of the physical functional on the physical
    image of f_n; the control is ``u(t) = <(h,v), F1> + u2(t)`` with
    ``u2' = u2_coefficient * (u2 + <(h,v), F1>)``. The physical rate is
    ``mu_phys = mu/4``: the internal damping, the law's ``params.mu = 4 mu_phys``
    (not a field here), guarantees the physical decay rate ``(3/4) mu L / L_gamma
    >= mu_phys``.
    """

    mu_phys: float
    table: np.ndarray
    n_list: np.ndarray
    u2_coefficient: complex


def physical_feedback(law: FeedbackLaw) -> PhysicalFeedback:
    """The modal law carried into physical coordinates.

    In terms of the pulled-back eigenfunctions ``(h_n, v_n)`` the physical
    table reads

        P[n] = +tanh(4 mu_phys L) sqrt(H(0)) h_n(0)^2
               / int_0^L H(x) v_n(x) dx,                  n != 0,
        P[0] = -tanh(4 mu_phys L) h_0(0)^2 / (H(0) L_gamma nu),

    which is the exact pushforward of the modal table: P[n] = (L/L_gamma) *
    table[n] (the time rescaling contributes the L/L_gamma; the boundary
    factor sqrt(H(0)) accounts for the diagonal weight W(x)^{3/2} carrying
    the constant gauge W(0)^{3/2} at x = 0). The table is formed by that
    rescaling; the PI coefficient is ``nu * P[0]``.
    """
    params = law.params
    table = (params.L / l_gamma(params)) * law.table
    return PhysicalFeedback(
        mu_phys=params.mu / 4.0, table=table,
        n_list=law.n_list.copy(), u2_coefficient=complex(params.nu * table[law.index(0)]),
    )
