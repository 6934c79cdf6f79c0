import functools
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from test_cli import FAST
from test_model import mass_functional
from watertank import cli, simulate
from watertank.backstepping import galerkin_spectrum, match_spectrum
from watertank.control import dual_exponentials, input_gains, synthesize_open_loop
from watertank.errors import ConfigError, DomainError, NumericalError
from watertank.feedback import feedback_coefficients, from_real, zero_law
from watertank.model import (
    Params,
    delta,
    LAW_KEYS,
    diagonal_weight,
    gamma_s_threshold,
    simpson_weights,
    uniform_grid,
)
from watertank.simulate import (
    RECORD_INTERVALS,
    Trajectory,
    _expm,
    _record,
    _step_propagator,
    decay_rate_estimate,
    fd_simulate,
    integrate_closed_loop,
    integrate_open_loop_w,
    integrate_target,
    lyapunov_certificate,
    lyapunov_functional,
    real_initial_datum,
    steer,
)
from watertank.spectral import BcKind, pairings, reflection, w_modes


class TestClosedLoopIntegration:
    def test_open_loop_amplitudes_conserved(self, p_std, basis_cache):
        # skew diagonal generator: every |c_n| and the mass stay constant
        basis = basis_cache(p_std, BcKind.CONSERVATIVE, 20)
        law = zero_law(p_std, basis)
        c0 = real_initial_datum(np.random.default_rng(3), 20)
        traj = integrate_closed_loop(p_std, law, c0, t_final=10 * p_std.L)
        drift = np.max(np.abs(np.abs(traj.coeffs) - np.abs(traj.coeffs[0])[None, :]))
        assert drift < 1e-8
        # the run records the mass m_0 c_0 = 0; the quadrature mass of the
        # recorded coefficients, mode by mode, is conserved too
        assert not np.any(traj.mass)
        ew = diagonal_weight(p_std, basis.grid)
        mass = traj.coeffs @ np.array([mass_functional(p_std, v / ew) for v in basis.values])
        assert np.max(np.abs(mass - mass[0])) < 1e-8

    @pytest.mark.parametrize("kind", [BcKind.CONSERVATIVE, BcKind.DAMPED])
    def test_da_norm_of_one_mode(self, kind, p_std, basis_cache):
        # one conjugate pair under the zero law (conservative) or the target system
        # (damped) stays one pair, so at every record ||.||_da = sqrt(1 + |mu_n|^2) ||.||_2
        basis = basis_cache(p_std, kind, 20)
        for n in (1, 6):
            c0 = np.zeros(41, dtype=complex)
            c0[basis.index(n)], c0[basis.index(-n)] = 0.3 - 0.4j, 0.3 + 0.4j
            if kind is BcKind.CONSERVATIVE:
                traj = integrate_closed_loop(p_std, zero_law(p_std, basis), c0, t_final=2.0)
            else:
                traj = integrate_target(p_std, basis, c0, t_final=2.0)
            want = math.sqrt(1.0 + abs(basis.eigenvalues[basis.index(n)]) ** 2) * traj.norm_l2
            assert np.max(np.abs(traj.norm_da - want)) <= 1e-13 * np.max(want), n

    def test_mode0_stays_dead(self, p_synth, basis_cache):
        basis = basis_cache(p_synth, BcKind.CONSERVATIVE, 20)
        law = feedback_coefficients(p_synth, basis)
        c0 = real_initial_datum(np.random.default_rng(4), 20)
        traj = integrate_closed_loop(p_synth, law, c0, t_final=5.0)
        assert np.max(np.abs(traj.coeffs[:, law.index(0)])) < 1e-8

    def test_nonzero_mode0_rejected(self, p_synth, basis_cache):
        basis = basis_cache(p_synth, BcKind.CONSERVATIVE, 20)
        law = feedback_coefficients(p_synth, basis)
        c0 = np.zeros(41, dtype=complex)
        c0[law.index(0)] = 0.5
        with pytest.raises(ConfigError):
            integrate_closed_loop(p_synth, law, c0)

    def test_central_subspace_decays_at_design_rate(self, p_synth, basis_cache):
        # start on the span of the central eigenvectors of the real Galerkin
        # matrix the integrator propagates, mapped to modal data by the law's
        # coordinates: trajectories then decay at the matched rates ~ mu (the
        # resolved part of the infinite-dimensional statement; generic data
        # also excites the matrix's weakly damped truncation-edge modes,
        # which closed_loop_spectrum does not have). Each eigenvector's phase
        # is pinned, its largest entry real and positive: LAPACK's sign is
        # arbitrary, and a table that moves at rounding level can flip it
        basis = basis_cache(p_synth, BcKind.CONSERVATIVE, 20)
        law = feedback_coefficients(p_synth, basis)
        eig, vec = np.linalg.eig(law.galerkin_matrix())
        big = vec[np.argmax(np.abs(vec), axis=0), np.arange(vec.shape[1])]
        vec *= np.conj(big) / np.abs(big)
        central = [
            int(np.argmin(np.abs(eig.imag - math.pi * k / p_synth.L)))
            for k in range(-5, 6)
        ]
        rng = np.random.default_rng(8)
        r0 = np.zeros(41)
        for j in central:
            a = rng.standard_normal() + 1j * rng.standard_normal()
            r0 += 2.0 * (a * vec[:, j]).real
        c0 = from_real(r0)
        z0 = c0[law.index(0)].real
        c0[law.index(0)] = 0.0
        traj = integrate_closed_loop(
            p_synth, law, c0, zeta0_init=z0,
            t_final=15.0 / p_synth.mu,
        )
        window = (5.0 / p_synth.mu, 15.0 / p_synth.mu)
        rate, r2 = decay_rate_estimate(traj, "da", window)
        assert rate >= 0.7 * 0.75 * p_synth.mu
        assert r2 > 0.98
        # fit windows agree within 10% on this clean run
        r1, _ = decay_rate_estimate(traj, "da", (5 / p_synth.mu, 10 / p_synth.mu))
        r2b, _ = decay_rate_estimate(traj, "da", (10 / p_synth.mu, 15 / p_synth.mu))
        assert abs(r1 - r2b) / r1 < 0.1

    def test_real_data_give_real_records(self, p_synth, basis_cache):
        # the run is real by construction: each conjugate pair is written from
        # one real pair, and zeta0, the mass and the control have no imaginary part
        law = feedback_coefficients(p_synth, basis_cache(p_synth, BcKind.CONSERVATIVE, 20))
        c0 = real_initial_datum(np.random.default_rng(13), 20)
        traj = integrate_closed_loop(p_synth, law, c0, zeta0_init=0.2, t_final=3.0)
        assert np.array_equal(traj.coeffs[:, ::-1], np.conj(traj.coeffs))
        for name in ("zeta0", "mass", "control"):
            values = getattr(traj, name)
            assert values.dtype == complex and not np.any(values.imag), name

    def test_data_of_a_complex_state_rejected(self, p_synth, basis_cache):
        law = feedback_coefficients(p_synth, basis_cache(p_synth, BcKind.CONSERVATIVE, 20))
        c0 = real_initial_datum(np.random.default_rng(14), 20)
        c0[law.index(-3)] += 1e-6
        with pytest.raises(ConfigError, match="real state"):
            integrate_closed_loop(p_synth, law, c0, t_final=1.0)
        with pytest.raises(ConfigError, match="zeta0_init must be real"):
            integrate_closed_loop(p_synth, law, real_initial_datum(np.random.default_rng(14), 20),
                                  zeta0_init=0.1 + 1e-6j, t_final=1.0)

    def test_closed_loop_norm_decays(self, p_synth, basis_cache):
        basis = basis_cache(p_synth, BcKind.CONSERVATIVE, 20)
        law = feedback_coefficients(p_synth, basis)
        c0 = real_initial_datum(np.random.default_rng(5), 20)
        traj = integrate_closed_loop(p_synth, law, c0, t_final=10.0)
        assert traj.norm_da[-1] < 0.25 * traj.norm_da[0]


class TestClosedLoopPropagator:
    P8 = Params(gamma=0.03, mu=2.0, nu=0.5, n_modes=8, grid_points=1025)

    def _law(self, basis_cache):
        return feedback_coefficients(self.P8, basis_cache(self.P8, BcKind.CONSERVATIVE, 8))

    def test_matches_solve_ivp(self, basis_cache):
        # independent reference: a tight adaptive DOP853 run of the physical
        # extended system, zeta modes forced through <I, f_n> and zeta0' = nu u,
        # against the Galerkin coordinates y = c + zeta0 e_0 the run records
        law = self._law(basis_cache)
        basis = basis_cache(self.P8, BcKind.CONSERVATIVE, 8)
        c0 = real_initial_datum(np.random.default_rng(6), 8)
        traj = integrate_closed_loop(self.P8, law, c0, zeta0_init=0.1, t_final=3.0)
        i0 = law.index(0)
        table_ext = np.append(law.table, law.table[i0])
        force_ext = np.append(basis.moments.profile, self.P8.nu)
        M = np.diag(np.append(-law.eigenvalues, 0.0)) + np.outer(force_ext, table_ext)
        ref = solve_ivp(lambda t, y: M @ y, (0.0, 3.0), np.append(c0, 0.1 + 0j),
                        method="DOP853", t_eval=traj.times, rtol=1e-12, atol=1e-14)
        assert ref.success
        y = ref.y.T
        for got, want in ((traj.coeffs, y[:, :-1]), (traj.zeta0, y[:, -1]),
                          (traj.control, y @ table_ext)):
            assert np.max(np.abs(got - want)) < 1e-9 * np.max(np.abs(want))

    def test_record_times_span_the_run(self, basis_cache):
        law = self._law(basis_cache)
        traj = integrate_closed_loop(self.P8, law, np.zeros(17, dtype=complex),
                                     t_final=2.5)
        assert traj.times.size == RECORD_INTERVALS + 1
        assert traj.times[0] == 0.0 and traj.times[-1] == 2.5

    def test_non_finite_table_raises(self, basis_cache):
        law = self._law(basis_cache)
        table = law.table.copy()
        table[law.index(3)] = np.nan
        with pytest.raises(NumericalError):
            integrate_closed_loop(self.P8, replace(law, table=table),
                                  real_initial_datum(np.random.default_rng(1), 8))


    def assert_same_runs(self, got, want):
        for f in fields(Trajectory):
            assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name

    def test_runs_on_one_law_match_fresh_laws(self, basis_cache):
        # the second run on a law reuses the first run's propagator, bit for bit
        rng = np.random.default_rng(7)
        data = [real_initial_datum(rng, 8) for _ in range(2)]
        law = self._law(basis_cache)
        shared = [integrate_closed_loop(self.P8, law, c0, t_final=3.0) for c0 in data]
        for c0, got in zip(data, shared):
            self.assert_same_runs(got, integrate_closed_loop(self.P8, self._law(basis_cache), c0,
                                                             t_final=3.0))

    def test_replaced_table_forms_a_new_propagator(self, basis_cache):
        # a law whose table is replaced on the instance (the library allows it): the
        # next run is the run of a fresh law with that table, never the stored propagator's
        c0 = real_initial_datum(np.random.default_rng(8), 8)
        law = self._law(basis_cache)
        before = integrate_closed_loop(self.P8, law, c0, t_final=3.0)
        law.table = 2.0 * law.table
        got = integrate_closed_loop(self.P8, law, c0, t_final=3.0)
        fresh = self._law(basis_cache)
        fresh.table = 2.0 * fresh.table
        self.assert_same_runs(got, integrate_closed_loop(self.P8, fresh, c0, t_final=3.0))
        assert not np.array_equal(got.coeffs, before.coeffs)

    def test_one_exponential_per_record_step(self, basis_cache):
        # one _expm per distinct step on a law, none for a repeated one; a law
        # made by dataclasses.replace starts without the stored propagator
        law = self._law(basis_cache)
        c0 = real_initial_datum(np.random.default_rng(9), 8)

        def runs():
            for t_final in (3.0, 3.0, 2.0, 2.0):
                integrate_closed_loop(self.P8, law, c0, t_final=t_final)

        M = law.galerkin_matrix()
        assert M.dtype == np.float64
        gens = generators_of(runs)
        assert len(gens) == 2
        for A, t_final in zip(gens, (3.0, 2.0)):
            assert np.array_equal(A, M * (t_final / RECORD_INTERVALS))
        copy = replace(law, table=law.table)
        [A] = generators_of(lambda: integrate_closed_loop(self.P8, copy, c0, t_final=2.0))
        assert np.array_equal(A, gens[1])

    MISMATCHES = [("L", 1.5), ("gamma", 0.02), ("mu", 3.0), ("nu", 0.4), ("n_modes", 9),
                  ("grid_points", 513)]

    @pytest.mark.parametrize("key, value", MISMATCHES)
    def test_params_of_another_law_rejected(self, key, value, basis_cache):
        assert {k for k, _ in self.MISMATCHES} == set(LAW_KEYS)
        c0 = real_initial_datum(np.random.default_rng(10), 8)
        with pytest.raises(ConfigError, match=f"{key} = "):
            integrate_closed_loop(replace(self.P8, **{key: value}), self._law(basis_cache), c0)

    def test_params_may_differ_in_t_final(self, basis_cache):
        law = self._law(basis_cache)
        c0 = real_initial_datum(np.random.default_rng(11), 8)
        self.assert_same_runs(integrate_closed_loop(replace(self.P8, t_final=1.5), law, c0),
                              integrate_closed_loop(self.P8, law, c0, t_final=1.5))


class TestOpenLoopPropagator:
    P8 = Params(gamma=0.03, mu=2.0, nu=0.5, n_modes=8, grid_points=1025)

    def _steer(self, basis_cache):
        modes = w_modes(self.P8, basis_cache(self.P8, BcKind.CONSERVATIVE, 8))
        tq = np.linspace(0.0, 2 * self.P8.L, 2049)
        duals = dual_exponentials(modes.eigenvalues, tq)
        return modes, synthesize_open_loop(self.P8, modes, duals, {1: 1.0, 3: 0.5})

    def test_matches_solve_ivp(self, basis_cache):
        # independent reference: a tight adaptive DOP853 run of
        # w' = -mu w + beta u(t), with u evaluated from the control signal
        modes, sig = self._steer(basis_cache)
        c0 = real_initial_datum(np.random.default_rng(7), 8)
        t_final = 2 * self.P8.L
        traj = integrate_open_loop_w(self.P8, modes, sig, c0, t_final=t_final, dt=1e-2)
        _, beta = input_gains(modes)
        ref = solve_ivp(lambda t, w: -modes.eigenvalues * w + beta * sig(np.array([t]))[0],
                        (0.0, t_final), c0, method="DOP853", t_eval=traj.times,
                        rtol=1e-12, atol=1e-14)
        assert ref.success
        want = ref.y.T
        assert np.max(np.abs(traj.coeffs - want)) < 1e-10 * np.max(np.abs(want))
        u = sig(traj.times)
        assert np.max(np.abs(traj.control - u)) < 1e-10 * np.max(np.abs(u))

    def test_t_final_past_horizon_rejected(self, basis_cache):
        modes, sig = self._steer(basis_cache)
        init = np.zeros(modes.n_list.size, dtype=complex)
        with pytest.raises(ConfigError):
            integrate_open_loop_w(self.P8, modes, sig, init, t_final=2 * self.P8.L + 0.1)


def sequential_record(P, y0, n):
    """The (n + 1, size) records ``y[k + 1] = P y[k]`` from ``y[0] = y0``, one step at a time."""
    y = np.empty((n + 1, y0.size), dtype=complex)
    y[0] = y0
    for k in range(n):
        y[k + 1] = P @ y[k]
    return y


class TestDoublingRecord:
    """``simulate._record`` doubles over the powers of the step propagator; the
    reference takes one product with that propagator per record."""

    P8 = TestClosedLoopPropagator.P8

    def assert_matches_sequential(self, powers, y0, n):
        y = _record(powers, y0, n)
        want = sequential_record(powers[0].T, y0, n)
        assert y.shape == (n + 1, y0.size)
        assert np.array_equal(y[0], y0)
        assert np.max(np.abs(y - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("make", [feedback_coefficients, zero_law])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 500, 501])
    def test_closed_loop_matches_sequential(self, make, n, basis_cache):
        law = make(self.P8, basis_cache(self.P8, BcKind.CONSERVATIVE, 8))
        y0 = real_initial_datum(np.random.default_rng(12), 8)
        y0[law.index(0)] = 0.1
        powers = _step_propagator(law.galerkin_matrix(), 3.0 / RECORD_INTERVALS, n)
        assert len(powers) == n.bit_length()  # P^(2^j) for 2^j <= n
        self.assert_matches_sequential(powers, y0, n)

    def test_steer_open_loop_matches_sequential(self, tmp_path):
        # the open loop of `watertank steer` at the CLI tests' FAST settings
        calls = []

        def spy(powers, y0, n):
            calls.append((powers, y0, n))
            return _record(powers, y0, n)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_record", spy)
            assert cli.main(["steer"] + FAST + ["--set", f"outdir={tmp_path}"]) == 0
        [(powers, y0, n)] = calls
        assert n == 2000
        self.assert_matches_sequential(powers, y0, n)

    def test_zero_datum_stays_zero(self, basis_cache):
        law = feedback_coefficients(self.P8, basis_cache(self.P8, BcKind.CONSERVATIVE, 8))
        powers = _step_propagator(law.galerkin_matrix(), 3.0 / RECORD_INTERVALS, RECORD_INTERVALS)
        y = _record(powers, np.zeros(17, dtype=complex), RECORD_INTERVALS)
        assert y.shape == (RECORD_INTERVALS + 1, 17) and not np.any(y)

    def test_overflowing_powers_raise(self):
        # e^(3 * 256) passes the float range: squaring stops at P^128, the last finite power
        powers = _step_propagator(np.diag([0.0, 1.0]).astype(complex), 3.0, 256)
        assert len(powers) == 8 and all(np.all(np.isfinite(power)) for power in powers)
        with pytest.raises(NumericalError, match="propagated state is not finite"):
            _record(powers, np.ones(2, dtype=complex), 256)

    def test_finite_record_survives_an_overflowing_power(self):
        # y0 has no component along the growing mode, so every record stays (1, 0)
        M = np.diag([0.0, 1.0]).astype(complex)
        y0 = np.array([1.0, 0.0], dtype=complex)
        y = _record(_step_propagator(M, 3.0, 256), y0, 256)
        assert np.array_equal(y, sequential_record(_expm(M * 3.0), y0, 256))
        assert np.array_equal(y[-1], y0)

    @pytest.mark.parametrize("n", [5, 8, 9, 40, 500])
    def test_strides_of_the_largest_power_match_sequential(self, n, basis_cache):
        # fewer powers than n needs: the rows past 2 P^(2^j) are filled in strides of it
        law = feedback_coefficients(self.P8, basis_cache(self.P8, BcKind.CONSERVATIVE, 8))
        y0 = real_initial_datum(np.random.default_rng(5), 8)
        powers = _step_propagator(law.galerkin_matrix(), 3.0 / RECORD_INTERVALS, n)[:2]
        self.assert_matches_sequential(powers, y0, n)

    def test_non_finite_generator_raises_before_squaring(self):
        M = np.diag([0.0, np.nan]).astype(complex)

        def run():
            with pytest.raises(NumericalError, match="generator has non-finite entries"):
                _step_propagator(M, 1.0, 500)

        assert generators_of(run) == []


def generators_of(run):
    """The matrices that ``run()`` hands to ``simulate._expm``, in call order."""
    seen = []

    def recording(A):
        seen.append(A)
        return _expm(A)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_expm", recording)
        run()
    return seen


def relative_error(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


class TestMatrixExponential:
    """``simulate._expm`` against scipy's ``expm`` as the independent reference."""

    @pytest.fixture(scope="class")
    def closed_loop_generators(self, basis_cache):
        # M t_final / 500 as integrate_closed_loop forms it, by N
        gens = {}
        for N, nx in ((12, 2049), (20, 2049), (41, 4097)):
            p = Params(gamma=0.03, mu=2.0, nu=0.5, n_modes=N, grid_points=nx)
            law = feedback_coefficients(p, basis_cache(p, BcKind.CONSERVATIVE, N))
            init = real_initial_datum(np.random.default_rng(0), N)
            [gens[N]] = generators_of(lambda: integrate_closed_loop(p, law, init))
        return gens

    @pytest.mark.parametrize("N", [12, 20, 41])
    def test_closed_loop_generators(self, closed_loop_generators, N):
        A = closed_loop_generators[N]
        assert A.shape == (2 * N + 1, 2 * N + 1)
        assert relative_error(_expm(A), expm(A)) < 1e-12

    def test_closed_loop_generator_is_the_galerkin_matrix(self, p_synth, basis_cache):
        # the run records y = c + zeta0 e_0 by the one real Galerkin matrix
        # that galerkin_spectrum analyses, scaled to one record step
        law = feedback_coefficients(p_synth, basis_cache(p_synth, BcKind.CONSERVATIVE, 20))
        init = real_initial_datum(np.random.default_rng(0), 20)
        [A] = generators_of(lambda: integrate_closed_loop(p_synth, law, init, t_final=4.0))
        step = 4.0 / RECORD_INTERVALS
        assert A.dtype == np.float64
        assert np.array_equal(A, law.galerkin_matrix() * step)
        eig = np.linalg.eigvals(A) / step
        want = galerkin_spectrum(law)
        assert np.max(match_spectrum(eig, want)) < 1e-10 * np.max(np.abs(want))

    def test_steer_generator(self, tmp_path):
        # the open-loop generator, with the control's exponentials as states
        args = ["steer", "--set", "n_modes=20", "--set", "grid_points=2049",
                "--set", f"outdir={tmp_path}"]
        [A] = generators_of(lambda: cli.main(args))
        assert A.shape[0] > 41
        assert relative_error(_expm(A), expm(A)) < 1e-12

    def test_zero_matrix(self):
        A = np.zeros((5, 5), dtype=complex)
        assert relative_error(_expm(A), expm(A)) < 1e-12

    def test_large_nonnormal_matrix(self):
        # a seeded complex Gaussian matrix moved to spectral abscissa 0, so
        # e^A stays O(1) while ||A||_1 > 1e4 forces 12 squarings; over 200
        # seeds the two agree to 2.3e-13 in the median and 1.1e-12 at worst
        rng = np.random.default_rng(0)
        A = 600.0 * (rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
        A -= np.max(np.linalg.eigvals(A).real) * np.eye(12)
        assert np.linalg.norm(A, 1) > 1e4
        assert np.linalg.norm(A @ A.conj().T - A.conj().T @ A) > 1e-3 * np.linalg.norm(A) ** 2
        assert relative_error(_expm(A), expm(A)) < 1e-12

    def test_generator_and_propagator_are_real(self, closed_loop_generators, basis_cache):
        # real data stay real by construction: the generator acts on the real
        # coordinates of a real state, so it and every power of its
        # exponential that the run records by are real
        A = closed_loop_generators[41]
        assert A.dtype == np.float64 and _expm(A).dtype == np.float64
        p = Params(gamma=0.03, mu=2.0, nu=0.5, n_modes=41, grid_points=4097)
        law = feedback_coefficients(p, basis_cache(p, BcKind.CONSERVATIVE, 41))
        integrate_closed_loop(p, law, real_initial_datum(np.random.default_rng(0), 41))
        assert all(power.dtype == np.float64 for power in law.record_memo[2])


def upwind_stepper(params: Params, kind: BcKind, dt: float):
    """Reference CFL-1 upwind step of the zeta system on two rows ``(zeta_1, zeta_2)``.

    ``zeta_1`` shifts one cell rightward, ``zeta_2`` one cell leftward; the
    coupling ``c = -delta/3`` and the control ``u e^{int delta}`` are added
    explicitly, their weights scaled by dt once; the inflow ``zeta_1(0) = r
    zeta_2(0)`` follows the kind's reflection law and ``zeta_2(L) =
    -zeta_1(L)``. The grid data are computed once; returns ``step(state, u)``.
    ``fd_simulate`` must match it bit for bit.
    """
    grid = uniform_grid(params)
    c = -delta(params, grid) / 3.0
    c1_dt, c2_dt = (c * dt).astype(complex), (-c * dt).astype(complex)
    ew_dt = (diagonal_weight(params, grid) * dt).astype(complex)
    r0 = reflection(kind, params)

    def step(state, u):
        z1, z2 = state[0], state[1]
        new1, new2 = np.empty_like(z1), np.empty_like(z2)
        new1[1:] = z1[:-1] + (c1_dt[1:] * z2[1:] + ew_dt[1:] * u)
        new2[:-1] = z2[1:] + (c2_dt[:-1] * z1[:-1] + ew_dt[:-1] * u)
        new1[0] = r0 * new2[0]
        new2[-1] = -new1[-1]
        return np.stack([new1, new2])

    return step


def reference_march(params: Params, init, kind: BcKind, t_final, control=None):
    """``upwind_stepper`` marched with ``fd_simulate``'s step count and times; returns the state."""
    grid = uniform_grid(params)
    nst = round(t_final / (grid[1] - grid[0]))
    dt = t_final / nst
    step = upwind_stepper(params, kind, dt)
    z = np.asarray(init, dtype=complex)
    for k in range(nst):
        z = step(z, 0.0 if control is None else control(k * dt))
    return z


def fd_replay(basis_cache, grid_points):
    """The modal closed loop (N=8, t = 1.5) replayed on the grid by ``fd_simulate``.

    The march is driven by the control recorded along the modal run,
    interpolated linearly between its records. Returns, each relative to the
    modal final state, the full-state error, the error of the grid state's
    N-mode head and the share of the grid state in the modes |n| > N. The
    conservative modes are orthogonal, so the head is the sum of
    ``<z, f_n> / <f_n, f_n> f_n``.
    """
    p = Params(gamma=0.03, mu=2.0, nu=0.5, n_modes=8, grid_points=grid_points)
    basis = basis_cache(p, BcKind.CONSERVATIVE, 8)
    law = feedback_coefficients(p, basis)
    c0 = real_initial_datum(np.random.default_rng(3), 8)
    traj = integrate_closed_loop(p, law, c0, t_final=1.5)

    def control(t):
        return complex(np.interp(t, traj.times, traj.control.real),
                       np.interp(t, traj.times, traj.control.imag))

    z = fd_simulate(p, np.tensordot(c0, basis.values, axes=(0, 0)), BcKind.CONSERVATIVE, 1.5,
                    control=control)
    zmod = np.tensordot(traj.coeffs[-1], basis.values, axes=(0, 0))
    a = pairings(z, basis.values, basis.grid) / pairings(basis.values, basis.values, basis.grid)
    head = np.tensordot(a, basis.values, axes=(0, 0))
    w = simpson_weights(basis.grid)

    def norm(f):
        return math.sqrt(float(np.sum(w * np.sum(np.abs(f) ** 2, axis=0))))

    return norm(z - zmod) / norm(zmod), norm(head - zmod) / norm(zmod), norm(z - head) / norm(zmod)


@pytest.fixture(scope="module")
def replay_errors(basis_cache):
    """``fd_replay`` memoized per grid size."""
    return functools.cache(lambda grid_points: fd_replay(basis_cache, grid_points))


class TestClosedLoopFdReplay:
    def test_fd_replay_matches_modal(self, replay_errors):
        # whole-pipeline consistency: the grid march driven by the control
        # recorded along the modal closed loop. The full-state error is
        # almost all the energy the control drives into the modes |n| > N,
        # which the modal state drops; the scheme's own error is the head's
        full, head, tail = replay_errors(2049)
        assert full < 0.15  # measured 0.0699
        assert head < 5e-3  # measured 2.44e-3
        assert 0.05 < tail < 0.1  # measured 0.0698
        assert full ** 2 == pytest.approx(head ** 2 + tail ** 2, rel=1e-6)


class TestTargetIntegration:
    def test_single_mode_exact(self, p_synth, basis_cache):
        bt = basis_cache(p_synth, BcKind.DAMPED, 10)
        c0 = np.zeros(21, dtype=complex)
        c0[bt.index(2)] = 1.0
        traj = integrate_target(p_synth, bt, c0, t_final=2.0, n_samples=60)
        mu_t = bt.eigenvalues[bt.index(2)]
        expect = np.abs(np.exp(-mu_t * traj.times))
        got = np.abs(traj.coeffs[:, bt.index(2)])
        assert np.max(np.abs(got - expect)) < 1e-13

    def test_gamma0_decay_rate_is_mu(self, p_gamma0, basis_cache):
        bt = basis_cache(p_gamma0, BcKind.DAMPED, 6)
        c0 = np.zeros(13, dtype=complex)
        c0[bt.index(1)] = 1.0
        traj = integrate_target(p_gamma0, bt, c0, t_final=3.0)
        rate, _ = decay_rate_estimate(traj, "l2")
        assert rate == pytest.approx(p_gamma0.mu, abs=1e-3)

    def test_modal_vs_fd_cross_check(self, basis_cache):
        p = Params(gamma=0.03, mu=2.0, nu=0.5, n_modes=6, grid_points=4097)
        bt = basis_cache(p, BcKind.DAMPED, 6)
        cc = np.zeros(13, dtype=complex)
        for n in range(-3, 4):
            cc[bt.index(n)] = 1.0 / (1 + abs(n)) ** 2
        z0 = np.tensordot(cc, bt.values, axes=(0, 0))
        zfd = fd_simulate(p, z0, BcKind.DAMPED, 2 * p.L)
        cmod = cc * np.exp(-bt.eigenvalues * 2 * p.L)
        zmod = np.tensordot(cmod, bt.values, axes=(0, 0))
        w = simpson_weights(bt.grid)
        num = math.sqrt(float(np.sum(w * np.sum(np.abs(zfd - zmod) ** 2, axis=0))))
        den = math.sqrt(float(np.sum(w * np.sum(np.abs(zmod) ** 2, axis=0))))
        assert num / den < 1e-6  # measured 1.07e-7


class TestUpwind:
    def test_pure_advection(self):
        # at CFL 1 transport is exact: a pulse zero at the inflow to rounding
        # arrives 104 cells on as the same pulse
        p = Params(gamma=0.0, mu=2.0, nu=0.5, n_modes=2, grid_points=513)
        g = uniform_grid(p)
        z = np.stack([np.exp(-400 * (g - 0.3) ** 2), np.zeros_like(g)]).astype(complex)
        t_final = 104 / 512
        zf = fd_simulate(p, z, BcKind.CONSERVATIVE, t_final)
        assert np.max(np.abs(zf[0] - np.exp(-400 * (g - 0.3 - t_final) ** 2))) < 1e-14
        assert np.max(np.abs(zf[1])) < 1e-14

    def test_round_trip_restores_datum(self):
        # at gamma = 0 each value travels out and back over 2L, through both
        # reflections (-1 each): a datum that meets the boundary conditions
        # returns bit for bit
        p = Params(gamma=0.0, mu=2.0, nu=0.5, n_modes=2, grid_points=257)
        g = uniform_grid(p)
        z = np.stack([np.sin(2 * np.pi * g), np.cos(np.pi * g)]).astype(complex)
        z[0, 0] = -z[1, 0]
        z[1, -1] = -z[0, -1]
        assert np.array_equal(fd_simulate(p, z, BcKind.CONSERVATIVE, 2 * p.L), z)

    def test_cfl_guard(self):
        # the march steps at CFL 1 only, so the horizon must be a whole number
        # of cells: 51.2 cells, 20.5 cells and 0.3 of a cell are refused
        p = Params(gamma=0.0, mu=2.0, nu=0.5, n_modes=2, grid_points=257)
        z = np.zeros((2, 257), dtype=complex)
        for t_final in (0.2, 20.5 / 256, 0.3 / 256):
            with pytest.raises(ConfigError, match="is not a whole number of cells"):
                fd_simulate(p, z, BcKind.CONSERVATIVE, t_final)

    @pytest.mark.parametrize("t_final", [0.0, -0.5, math.inf, math.nan])
    def test_horizon_refused(self, t_final):
        # no step count follows from a horizon that is not finite and positive
        p = Params(gamma=0.0, mu=2.0, nu=0.5, n_modes=2, grid_points=257)
        z = np.zeros((2, 257), dtype=complex)
        with pytest.raises(ConfigError, match="t_final must be finite and positive"):
            fd_simulate(p, z, BcKind.CONSERVATIVE, t_final)

    def test_state_shape_guard(self):
        p = Params(gamma=0.0, mu=2.0, nu=0.5, n_modes=2, grid_points=257)
        with pytest.raises(ConfigError, match="state must have shape"):
            fd_simulate(p, np.zeros((2, 256), dtype=complex), BcKind.CONSERVATIVE, 0.5)

    @pytest.mark.parametrize("case", ["steer", "damped", "conservative_wiggle"])
    def test_flat_march_bit_identical_to_reference(self, case, wmodes_cache):
        # the flat in-place march keeps the reference's operation order, so
        # every entry of the final state is the same double
        rng = np.random.default_rng(11)
        p = Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=4, grid_points=257)
        nx = p.grid_points
        z0 = rng.standard_normal((2, nx)) + 1j * rng.standard_normal((2, nx))

        def wiggle(t):
            return complex(math.sin(3.0 * t), math.cos(t))

        if case == "steer":  # the steer_n20 op on a small grid; dt = dx is a power of two
            # here, so only the other cases, at L = 0.7, can tell dt folded into the weights
            sig = steer(p, wmodes_cache(p, 4), {1: 1.0})[0]
            args = (np.zeros((2, nx), dtype=complex), BcKind.CONSERVATIVE, 2 * p.L,
                    lambda t: complex(sig(np.array([t]))[0]))
        elif case == "damped":  # 234 cells
            p = replace(p, L=0.7)
            args = (z0, BcKind.DAMPED, 234 * 0.7 / 256, None)
        else:  # conservative_wiggle, 256 cells
            p = replace(p, L=0.7)
            args = (z0, BcKind.CONSERVATIVE, 0.7, wiggle)
        ref = reference_march(p, *args)
        got = fd_simulate(p, *args)
        assert np.array_equal(got, ref)

    def test_first_order_convergence(self, replay_errors):
        # transport is exact at CFL 1, so the order shows where the explicit
        # coupling and control act: in the head of the closed-loop replay,
        # measured 4.74e-3, 2.44e-3 and 1.29e-3
        errs = [replay_errors(gp)[1] for gp in (1025, 2049, 4097)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(0.7 < o < 1.3 for o in orders)


def riccati_weight(params: Params, lam: float):
    """The Riccati weight ODE of ``lyapunov_certificate`` by RK4 on eta itself.

    ``eta' = |delta/3| (e^{-2 lam (x-L)} - eta^2 e^{2 lam (x-L)})``, one step
    per grid cell, stopped where eta turns non-finite, exceeds 1e6 or leaves
    eta > 0. Returns eta on the grid (nan from the blow-up on) and the
    blow-up position or None.
    """
    grid = uniform_grid(params)
    L = params.L
    h = grid[1] - grid[0]
    xs = np.linspace(0.0, L, 2 * (grid.size - 1) + 1)
    dabs = np.abs(delta(params, xs)) / 3.0
    em = np.exp(-2.0 * lam * (xs - L))
    ep = np.exp(2.0 * lam * (xs - L))

    def rhs(j, e):
        return dabs[j] * (em[j] - e * e * ep[j])

    eta = np.full(grid.size, np.nan)
    e = eta[0] = math.exp(-2.0 * (params.mu - lam) * L)
    for i in range(grid.size - 1):
        j = 2 * i
        k1 = rhs(j, e)
        k2 = rhs(j + 1, e + h / 2 * k1)
        k3 = rhs(j + 1, e + h / 2 * k2)
        k4 = rhs(j + 2, e + h * k3)
        e = e + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not math.isfinite(e) or abs(e) > 1e6 or e <= 0:
            return eta, float(grid[i + 1])
        eta[i + 1] = e
    return eta, None


class TestLyapunov:
    @pytest.mark.parametrize(
        "gamma, lam, mu, nx",
        [
            (0.03, 1.0, 2.0, 2049),
            (-0.03, 1.0, 2.0, 2049),
            (0.0, 1.0, 2.0, 2049),
            (0.6, 1.9, 2.0, 1025),
            (0.42, 1.9, 2.0, 1025),
            (0.03, 30.0, 40.0, 2049),  # stiff: blows up in the first cell
        ],
    )
    def test_matches_riccati_reference(self, gamma, lam, mu, nx):
        # the weight solved as the linear shooting system is the one the
        # Riccati ODE gives directly
        p = Params(gamma=gamma, mu=mu, nu=0.5, n_modes=4, grid_points=nx)
        cert = lyapunov_certificate(p, lam)
        ref, blowup = riccati_weight(p, lam)
        assert np.array_equal(np.isnan(cert.eta), np.isnan(ref))
        ok = ~np.isnan(ref)
        assert np.max(np.abs(cert.eta[ok] - ref[ok]) / ref[ok]) < 1e-12
        assert cert.blowup_x == blowup
        assert cert.feasible == (blowup is None and ref[-1] <= 1.0 + 1e-12)

    def test_gamma0_eta_constant(self):
        p = Params(gamma=0.0, mu=2.0, nu=0.5, n_modes=4, grid_points=513)
        lam = 1.0
        cert = lyapunov_certificate(p, lam)
        expect = math.exp(-2 * (p.mu - lam) * p.L)
        assert cert.feasible
        assert np.max(np.abs(cert.eta - expect)) < 1e-14

    def test_eta_below_supersolution(self, p_synth):
        cert = lyapunov_certificate(p_synth, 1.0)
        assert cert.feasible
        assert bool(np.all(cert.eta <= cert.xi + 1e-12))

    def test_gamma_s_decreasing(self, p_synth):
        lams = np.linspace(0.1, 1.9, 12)
        gs = [gamma_s_threshold(p_synth, l) for l in lams]
        assert all(np.diff(gs) <= 1e-12)

    def test_gamma_s_without_overflow(self):
        # e^{2 lam L} overflows a float past lam L ~ 355; the bound tends to 0
        p = Params(mu=1000.0)
        assert gamma_s_threshold(p, 999.0) == 0.0
        p = Params(mu=3.0)
        lam = 2.25
        direct = 6 * lam * (1 - math.exp(-2 * (p.mu - lam))) / math.expm1(2 * lam)
        assert gamma_s_threshold(p, lam) == pytest.approx(direct, rel=1e-14)

    def test_lambda_domain(self, p_synth):
        with pytest.raises(DomainError):
            gamma_s_threshold(p_synth, p_synth.mu)
        with pytest.raises(DomainError):
            lyapunov_certificate(p_synth, 0.0)

    def test_v_decay_along_target(self, p_synth, basis_cache):
        lam = p_synth.mu / 2.0
        cert = lyapunov_certificate(p_synth, lam)
        bt = basis_cache(p_synth, BcKind.DAMPED, 10)
        rng = np.random.default_rng(11)
        c0 = (rng.standard_normal(21) + 1j * rng.standard_normal(21)) / (
            1 + np.abs(np.arange(-10, 11))
        ) ** 2
        traj = integrate_target(p_synth, bt, c0, t_final=10 / p_synth.mu,
                                n_samples=120)
        Ve = lyapunov_functional(bt, traj.coeffs, cert) * np.exp(2 * lam * traj.times)
        assert float(np.max(Ve / Ve[0])) - 1.0 < 1e-3

    def test_functional_matches_per_record_pairings(self, p_synth, basis_cache):
        # the Gram quadratic form equals ||Theta z||^2 + ||Theta A z||^2
        # summed from the grid functions of each record
        cert = lyapunov_certificate(p_synth, 1.0)
        bt = basis_cache(p_synth, BcKind.DAMPED, 10)
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal((7, 21)) + 1j * rng.standard_normal((7, 21))
        theta = np.stack([cert.theta1, cert.theta2])
        ref = []
        for c in coeffs:
            z = np.tensordot(np.stack([c, c * bt.eigenvalues]), bt.values, axes=(1, 0))
            ref.append(np.sum(pairings(z * theta, z, bt.grid).real))
        V = lyapunov_functional(bt, coeffs, cert)
        assert V.shape == (7,)
        assert np.max(np.abs(V - ref) / np.abs(ref)) < 1e-12
        assert lyapunov_functional(bt, coeffs[3], cert) == pytest.approx(V[3], rel=1e-14)

    def test_infeasible_at_large_gamma(self):
        # eta blow-up (or eta(L) > 1) flags infeasibility with a location
        p = Params(gamma=0.6, mu=2.0, nu=0.5, n_modes=2, grid_points=1025)
        lam = 1.9
        cert = lyapunov_certificate(p, lam)
        assert (not cert.feasible) or cert.eta[-1] > 1.0 or cert.blowup_x is not None


class TestDecayRateEstimate:
    def _synthetic(self, alpha):
        t = np.linspace(0.0, 5.0, 400)
        norm = np.exp(-alpha * t) * 3.0
        K = 3
        return Trajectory(
            times=t, coeffs=np.zeros((t.size, K), dtype=complex),
            zeta0=np.zeros(t.size, dtype=complex),
            norm_l2=norm, norm_da=norm,
            mass=np.zeros(t.size, dtype=complex),
            control=np.zeros(t.size, dtype=complex),
        )

    def test_synthetic_exact(self):
        traj = self._synthetic(0.735)
        rate, r2 = decay_rate_estimate(traj, "l2")
        assert rate == pytest.approx(0.735, abs=1e-6)
        assert r2 == pytest.approx(1.0, abs=1e-9)

    def test_target_mode_rate(self, p_synth, basis_cache):
        bt = basis_cache(p_synth, BcKind.DAMPED, 10)
        c0 = np.zeros(21, dtype=complex)
        c0[bt.index(1)] = 1.0
        traj = integrate_target(p_synth, bt, c0, t_final=2.0)
        rate, _ = decay_rate_estimate(traj, "l2")
        assert rate == pytest.approx(bt.eigenvalues[bt.index(1)].real, abs=1e-3)

    def test_flat_norm_fits_with_r2_one(self):
        # a constant norm with 1-ulp jitter: the fit has nothing to explain,
        # so R^2 must not be a ratio of rounding noise
        traj = self._synthetic(0.0)
        traj.norm_l2[1::3] = np.nextafter(3.0, 4.0)
        traj.norm_l2[2::7] = np.nextafter(3.0, 2.0)
        rate, r2 = decay_rate_estimate(traj, "l2")
        assert abs(rate) < 1e-12
        assert r2 == 1.0

    def test_fit_matches_polyfit_on_a_window(self):
        # the closed-form fit against numpy's least-squares polynomial, on a
        # noisy log-norm restricted to a window
        traj = self._synthetic(0.735)
        rng = np.random.default_rng(15)
        traj.norm_da[:] *= np.exp(0.05 * rng.standard_normal(traj.times.size))
        window = (1.0, 4.0)
        rate, r2 = decay_rate_estimate(traj, "da", window)
        mask = (traj.times >= window[0]) & (traj.times <= window[1])
        t, ly = traj.times[mask], np.log(traj.norm_da[mask])
        coef = np.polyfit(t, ly, 1)
        want_r2 = 1.0 - np.sum((ly - np.polyval(coef, t)) ** 2) / np.sum((ly - ly.mean()) ** 2)
        assert 0.5 < want_r2 < 0.999
        assert abs(rate + coef[0]) < 1e-12
        assert abs(r2 - want_r2) < 1e-12
        rate, r2 = decay_rate_estimate(self._synthetic(0.0), "da", window)
        assert abs(rate) < 1e-12 and r2 == 1.0

    def test_window_too_small(self):
        traj = self._synthetic(1.0)
        with pytest.raises(ConfigError):
            decay_rate_estimate(traj, "l2", (4.99, 5.0))
