import math

import numpy as np
import pytest

from watertank.control import (
    DualBasis,
    controllability_report,
    dual_exponentials,
    plain_moments,
    synthesize_open_loop,
)
from watertank.errors import ConfigError, DomainError, NumericalError, UncontrollableError
from watertank.model import Params, simpson_weights
from watertank.simulate import integrate_open_loop_w
from watertank.spectral import BcKind, WModes


def moment_b(params: Params, modes: WModes, n: int) -> complex:
    """Moment ``b_n = <chi_n, (1,1)>`` in the plain (unprefactored) integral.

    Closed form at gamma = 0: ``-(2iL/(pi n)) (1 - cos pi n)`` -- zero for
    even n, ``-4iL/(pi n)`` for odd n.
    """
    return complex(plain_moments(modes.chi[modes.index(n)], modes.grid))


def evaluate_dual(duals: DualBasis, m: int, s) -> np.ndarray:
    """Dual ``p_m`` sampled at the times ``s`` from its exponential coefficients."""
    s = np.asarray(s, dtype=float)
    E = np.exp(np.outer(duals.eigenvalues, s - duals.grid[-1]))
    return duals.coeffs[:, m] @ E


def biorthogonality_residual(duals: DualBasis, grid=None) -> float:
    """Biorthogonality defect measured by Simpson quadrature on ``grid``.

    Defaults to a 4x refinement of the build grid. The duals come from the
    exact Gram matrix, so the defect is the measuring quadrature's error.
    """
    if grid is None:
        grid = np.linspace(0.0, duals.grid[-1], 4 * (duals.grid.size - 1) + 1)
    w = simpson_weights(grid)
    T = grid[-1]
    E = np.exp(np.outer(duals.eigenvalues, grid - T))
    P = duals.coeffs.T @ E  # duals sampled, (K, nq)
    G = (E * w) @ np.conj(P).T
    return float(np.max(np.abs(G - np.eye(duals.eigenvalues.size))))


class TestMomentB:
    def test_gamma0_even_modes_dead(self, p_gamma0, wmodes_cache):
        modes = wmodes_cache(p_gamma0, 20)
        for n in (2, 4, 10, 20):
            assert abs(moment_b(p_gamma0, modes, n)) < 1e-8

    def test_gamma0_closed_form(self, p_gamma0, wmodes_cache):
        modes = wmodes_cache(p_gamma0, 20)
        assert moment_b(p_gamma0, modes, 1) == pytest.approx(
            -4j / math.pi, abs=1e-9
        )
        for n in (3, 7, 19):
            expect = -2j * p_gamma0.L / (math.pi * n) * 2.0
            assert moment_b(p_gamma0, modes, n) == pytest.approx(expect, abs=1e-8)

    def test_perturbed_band(self, p_std, wmodes_cache):
        modes = wmodes_cache(p_std, 20)
        nb = np.array(
            [n * abs(moment_b(p_std, modes, n)) for n in range(1, 21)]
        )
        c_fit = nb.min() / p_std.gamma
        assert c_fit > 0.1  # measured ~0.48
        assert nb.max() < 10.0

    def test_lower_constant_stable_across_truncation(self, wmodes_cache):
        # fitted lower constant varies by < 20% across N in {10, 15, 20}
        vals = []
        for N in (10, 15, 20):
            p = Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=N, grid_points=2049)
            modes = wmodes_cache(p, N)
            nb = [n * abs(moment_b(p, modes, n)) for n in range(1, N + 1)]
            vals.append(min(nb) / p.gamma)
        assert max(vals) / min(vals) < 1.2


class TestControllabilityReport:
    def test_gamma0_expected_pattern(self, p_gamma0, basis_cache, wmodes_cache):
        basis = basis_cache(p_gamma0, BcKind.CONSERVATIVE, 20)
        modes = wmodes_cache(p_gamma0, 20)
        report = controllability_report(p_gamma0, basis, modes)
        assert not report.all_passed
        assert report.expected_gamma_zero_pattern()
        assert sorted(report.items["moment_bounds"]["dead_modes"]) == sorted(
            [n for n in range(-20, 21) if n != 0 and n % 2 == 0]
        )

    def test_perturbed_all_pass(self, p_std, basis_cache, wmodes_cache):
        basis = basis_cache(p_std, BcKind.CONSERVATIVE, 20)
        modes = wmodes_cache(p_std, 20)
        report = controllability_report(p_std, basis, modes)
        assert report.all_passed, report.items

    def test_profile_orthogonal_to_zero_mode(self, p_std, basis_cache):
        basis = basis_cache(p_std, BcKind.CONSERVATIVE, 20)
        imom = basis.moments.profile
        assert abs(imom[basis.index(0)]) < 1e-8


class TestDualExponentials:
    def test_gamma0_diagonal_gram(self, p_gamma0):
        # at gamma = 0 the exponentials are Fourier-orthogonal on (0, 2L):
        # the duals are rescaled exponentials (diagonal coefficient matrix)
        eigs = 1j * math.pi * np.arange(-6, 7) / p_gamma0.L
        tq = np.linspace(0.0, 2 * p_gamma0.L, 4097)
        duals = dual_exponentials(eigs, tq)
        off = duals.coeffs - np.diag(np.diag(duals.coeffs))
        assert np.max(np.abs(off)) < 1e-12
        assert np.allclose(np.diag(duals.coeffs), 1.0 / (2 * p_gamma0.L), atol=1e-10)

    def test_biorthogonality(self, p_std, wmodes_cache):
        modes = wmodes_cache(p_std, 12)
        tq = np.linspace(0.0, 2 * p_std.L, 8193)
        duals = dual_exponentials(modes.eigenvalues[modes.index(-12):modes.index(12) + 1], tq)
        assert biorthogonality_residual(duals) < 1e-6

    def test_delta_moments(self, p_std, wmodes_cache):
        # int e^{mu_n (s-2L)} conj(p_m) ds = delta_nm, checked pointwise
        modes = wmodes_cache(p_std, 8)
        tq = np.linspace(0.0, 2 * p_std.L, 8193)
        duals = dual_exponentials(modes.eigenvalues, tq)
        w = np.full(tq.size, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w *= (tq[1] - tq[0]) / 3.0
        for n in (0, 5):
            e = np.exp(modes.eigenvalues[modes.index(n)] * (tq - 2 * p_std.L))
            for m in (0, 5, -3):
                val = np.sum(w * e * np.conj(evaluate_dual(duals, modes.index(m), tq)))
                assert val == pytest.approx(
                    1.0 if m == n else 0.0, abs=1e-8
                )

    def test_exact_gram_matches_fine_simpson(self):
        # the closed-form Gram against Simpson on a fine grid; mu_0 = 0 gives
        # the one entry z = mu_0 + conj(mu_0) = 0, whose value is T
        eigs = np.array([0.0, -0.5 + 3.0j, -1.2 - 7.0j])
        T = 2.0
        duals = dual_exponentials(eigs, np.linspace(0.0, T, 65))
        s = np.linspace(0.0, T, 20001)
        E = np.exp(np.outer(eigs, s - T))
        G = (E * simpson_weights(s)) @ np.conj(E).T
        assert np.max(np.abs(G @ np.conj(duals.coeffs) - np.eye(3))) < 1e-12

    def test_collision_raises(self):
        eigs = np.array([1j, 1j + 1e-10, 2j])
        with pytest.raises(NumericalError):
            dual_exponentials(eigs, np.linspace(0, 2, 257))


@pytest.fixture(scope="module")
def setup(wmodes_cache):
    p = Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=12, grid_points=2049)
    modes = wmodes_cache(p, 12)
    tq = np.linspace(0.0, 2 * p.L, 8193)
    duals = dual_exponentials(modes.eigenvalues, tq)
    return p, modes, duals


class TestSynthesizeOpenLoop:

    def test_zero_target_zero_control(self, setup):
        p, modes, duals = setup
        sig = synthesize_open_loop(p, modes, duals, {1: 0.0})
        assert np.all(sig.u == 0)

    def test_mode0_target_rejected(self, setup):
        p, modes, duals = setup
        with pytest.raises(UncontrollableError):
            synthesize_open_loop(p, modes, duals, {0: 1.0})

    @pytest.mark.parametrize("n", [13, -13])
    def test_target_outside_truncation_rejected(self, setup, n):
        p, modes, duals = setup
        with pytest.raises(DomainError, match=f"mode {n} outside -12..12"):
            synthesize_open_loop(p, modes, duals, {n: 1.0})

    def test_gamma0_even_target_uncontrollable(self, p_gamma0, wmodes_cache):
        modes = wmodes_cache(p_gamma0, 6)
        tq = np.linspace(0.0, 2 * p_gamma0.L, 4097)
        duals = dual_exponentials(modes.eigenvalues, tq)
        with pytest.raises(UncontrollableError):
            synthesize_open_loop(p_gamma0, modes, duals, {2: 1.0})

    def test_steering_verified_by_simulation(self, setup):
        p, modes, duals = setup
        sig = synthesize_open_loop(p, modes, duals, {1: 1.0, 3: 0.5})
        init = np.zeros(modes.n_list.size, dtype=complex)
        traj = integrate_open_loop_w(p, modes, sig, init, t_final=2 * p.L, dt=1e-3)
        kvec = np.zeros(modes.n_list.size, dtype=complex)
        kvec[modes.index(1)] = 1.0
        kvec[modes.index(3)] = 0.5
        err = np.linalg.norm(traj.coeffs[-1] - kvec) / np.linalg.norm(kvec)
        assert err < 5e-2
        assert np.max(np.abs(traj.mass - traj.mass[0])) < 1e-6

    def test_steering_cross_checked_by_fd(self, setup):
        # independent discretization: drive the zeta system with the same
        # control through the CFL-1 grid march (exact transport, explicit
        # coupling and control), pull back to w, compare moments
        from watertank.model import diagonal_weight, uniform_grid
        from watertank.simulate import fd_simulate

        p, modes, duals = setup
        sig = synthesize_open_loop(p, modes, duals, {1: 1.0})
        grid = uniform_grid(p)
        z0 = np.zeros((2, grid.size), dtype=complex)
        zf = fd_simulate(p, z0, BcKind.CONSERVATIVE, 2 * p.L,
                         control=lambda t: complex(sig(np.array([t]))[0]))
        wf = zf / diagonal_weight(p, grid)[None, :]
        wq = simpson_weights(grid)
        pair = np.sum(
            wq * (modes.psi[:, 0, :] * modes.chi[:, 0, :]
                  + modes.psi[:, 1, :] * modes.chi[:, 1, :]),
            axis=1,
        )
        coeffs = (
            np.sum(wq * (wf[0] * modes.chi[:, 0, :] + wf[1] * modes.chi[:, 1, :]),
                   axis=1)
            / pair
        )
        kvec = np.zeros(modes.n_list.size, dtype=complex)
        kvec[modes.index(1)] = 1.0
        err = np.linalg.norm(coeffs - kvec) / np.linalg.norm(kvec)
        assert err < 5e-2

    def test_steering_error_flat_in_truncation(self, wmodes_cache):
        # the synthesized control solves the truncated moment problem
        # exactly, so the modal-loop terminal error sits at rounding level
        # for every N ("decreasing within noise" holds vacuously); the FD
        # cross-check above carries the discretization-independent content
        for N in (6, 12):
            p = Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=N, grid_points=2049)
            modes = wmodes_cache(p, N)
            tq = np.linspace(0.0, 2 * p.L, 8193)
            duals = dual_exponentials(modes.eigenvalues, tq)
            sig = synthesize_open_loop(p, modes, duals, {1: 1.0})
            init = np.zeros(modes.n_list.size, dtype=complex)
            traj = integrate_open_loop_w(p, modes, sig, init,
                                         t_final=2 * p.L, dt=1e-3)
            kvec = np.zeros(modes.n_list.size, dtype=complex)
            kvec[modes.index(1)] = 1.0
            err = np.linalg.norm(traj.coeffs[-1] - kvec)
            assert err < 1e-6

    def test_control_signal_csv_and_norm(self, setup):
        p, modes, duals = setup
        sig = synthesize_open_loop(p, modes, duals, {1: 1.0})
        assert sig.u.shape == sig.t.shape  # one control.csv row per sample
        assert sig.l2_norm() > 0

    def test_mismatched_duals_rejected(self, setup, p_gamma0, wmodes_cache):
        p, modes, duals = setup
        small = wmodes_cache(p_gamma0, 6)
        with pytest.raises((ConfigError, KeyError, UncontrollableError)):
            synthesize_open_loop(p, small, duals, {1: 1.0})
