import dataclasses
import math

import numpy as np
import pytest

from watertank.acceptance import P_LOOP, P_STD
from watertank.control import control_profile
from watertank.errors import NumericalError, RegimeError, UncontrollableError
from watertank.feedback import (
    FeedbackLaw,
    feedback_coefficients,
    from_real,
    physical_feedback,
    real_row,
    real_weights,
    to_real,
    virtual_profile,
    zero_law,
)
from watertank.model import (
    Params,
    diagonal_weight,
    height_root_profile,
    l_gamma,
    mode_masses,
    simpson_weights,
    steady_state_height,
    uniform_grid,
    zeta_to_physical,
)
from watertank import spectral
from watertank.spectral import Basis, BcKind, build_basis, pairings


def singular_split(law: FeedbackLaw, basis: Basis):
    """Split the table into its singular part h and the regular remainder.

    ``h_n = tanh(mu L) f_{n,1}(0) mu_n / tau_n``, from the basis's moments.
    Returns ``(h, regular, tail)`` where ``tail[k]`` is the partial-sum
    increment of ``sum |((table - h)/mu_n)|^2`` beyond |n| = k; the sequence
    being numerically Cauchy is the computable stand-in for the X^2
    continuity of the remainder.
    """
    p = law.params
    h = math.tanh(p.mu * p.L) * basis.moments.at_0[:, 0] * law.eigenvalues / law.tau
    regular = law.table - h
    nz = law.n_list != 0
    r = np.zeros(law.n_list.size, dtype=complex)
    r[nz] = regular[nz] / law.eigenvalues[nz]
    r[~nz] = regular[~nz]  # mu_0 = 0: keep the raw value
    N = (law.n_list.size - 1) // 2
    absn = np.abs(law.n_list)
    tail = {}
    total = float(np.sum(np.abs(r) ** 2))
    for k in range(0, N + 1):
        tail[k] = float(np.sum(np.abs(r[absn > k]) ** 2))
    return h, regular, {"partial_tails": tail, "total": total}


def pulled_back_table(law: FeedbackLaw, basis: Basis) -> np.ndarray:
    """The physical table from physical-space integrals of the pulled-back modes.

    ``P[n] = tanh(mu L) sqrt(H(0)) h_n(0)^2 / int_0^L H v_n`` for n != 0 and
    ``P[0] = -tanh(mu L) h_0(0)^2 / (H(0) L_gamma nu)``, with ``(h_n, v_n)``
    the :func:`zeta_to_physical` image of f_n (monotone-cubic resampling).
    """
    params = law.params
    lg = l_gamma(params)
    H0 = float(steady_state_height(params, 0.0))
    grid = uniform_grid(params)
    wq = simpson_weights(grid)
    Hx = steady_state_height(params, grid)
    tanh4 = math.tanh(params.mu * params.L)
    sqH0 = math.sqrt(H0)
    table = np.empty(law.n_list.size, dtype=complex)
    for i, n in enumerate(law.n_list):
        if n == 0:
            h0, _v0 = zeta_to_physical(params, basis.values[basis.index(0)])
            table[i] = -tanh4 * h0[0] ** 2 / (H0 * lg * params.nu)
            continue
        hn, vn = zeta_to_physical(params, basis.values[i])
        denom = complex(np.sum(wq * Hx * vn))
        table[i] = tanh4 * sqH0 * hn[0] ** 2 / denom
    return table


@pytest.fixture(scope="module")
def law_std(p_std, basis_cache):
    basis = basis_cache(p_std, BcKind.CONSERVATIVE, 20)
    return feedback_coefficients(p_std, basis), basis


class TestVirtualProfile:
    def test_nu_moment(self, p_std, basis_cache):
        basis = basis_cache(p_std, BcKind.CONSERVATIVE, 20)
        i_nu = virtual_profile(p_std, basis)
        val = complex(pairings(i_nu, basis.values[basis.index(0)], basis.grid))
        assert val == pytest.approx(p_std.nu, abs=1e-8)

    def test_gamma0_profile_is_ones(self, p_gamma0):
        prof = control_profile(p_gamma0)
        assert np.all(prof[0] == 1.0)
        assert np.all(prof[1] == 1.0)

    def test_moment_band(self, p_std, basis_cache):
        basis = basis_cache(p_std, BcKind.CONSERVATIVE, 20)
        i_nu = virtual_profile(p_std, basis)
        nz = basis.n_list != 0
        mom = pairings(i_nu, basis.values, basis.grid)
        band = np.abs(basis.eigenvalues[nz] * mom[nz])
        m, M = float(band.min()), float(band.max())
        assert 0 < m <= M < 10.0  # fitted constants, reported
        assert m > 0.01


class TestFeedbackCoefficients:
    def test_reality_symmetry(self, law_std):
        law, _ = law_std
        for n in range(0, 21):
            a = law.table[law.index(n)]
            b = law.table[law.index(-n)]
            assert abs(b - np.conj(a)) <= 1e-10 * abs(a)

    def test_reality_defect_is_the_worst_pair(self, law_std):
        law, _ = law_std
        t = law.table
        worst = max(abs(t[law.index(-n)] - np.conj(t[law.index(n)])) / abs(t[law.index(n)])
                    for n in range(0, 21))
        assert law.reality_defect() == pytest.approx(worst, rel=1e-12)
        skewed = dataclasses.replace(law, table=t.copy())
        skewed.table[law.index(-3)] *= 1.5
        assert skewed.reality_defect() == pytest.approx(0.5, rel=1e-9)

    def test_growth_window(self, law_std):
        # |table| / (1+|n|) within fitted [c, C]; the spread is dominated by
        # the nearly-uncontrollable even modes whose gains scale like 1/gamma
        # (measured ~102 at gamma = 0.05, N = 20)
        law, _ = law_std
        c, C = law.growth_window()
        assert c > 0.1
        assert C / c < 150.0

    def test_zero_mode_value(self, p_std, law_std):
        # table[0] = -2 tanh(mu L) f_{0,1}(0)^2 / (2L nu): the 1/(2L) carries
        # the product convention under which the closed-loop spectrum
        # reproduces the reflected target eigenvalues
        law, basis = law_std
        f010 = float(basis.values[basis.index(0), 0, 0].real)
        expect = -2 * math.tanh(p_std.mu * p_std.L) * f010**2 / (
            2 * p_std.L * p_std.nu
        )
        assert law.table[law.index(0)] == pytest.approx(expect, rel=1e-9)

    def test_purely_imaginary_for_nonzero_modes(self, law_std):
        law, _ = law_std
        nz = law.n_list != 0
        assert np.max(np.abs(law.table[nz].real)) < 1e-8 * np.max(
            np.abs(law.table)
        )

    def test_regime_rejection(self, basis_cache):
        p = Params(gamma=0.35, mu=2.0, nu=0.5, n_modes=4, grid_points=513)
        basis = basis_cache(p, BcKind.CONSERVATIVE, 4)
        with pytest.raises(RegimeError):
            feedback_coefficients(p, basis)  # gamma above gamma_s(3mu/4)

    def test_gamma0_uncontrollable(self, p_gamma0, basis_cache):
        basis = basis_cache(p_gamma0, BcKind.CONSERVATIVE, 4)
        with pytest.raises((UncontrollableError, RegimeError)):
            feedback_coefficients(p_gamma0, basis)


class TestRealGalerkinMatrix:
    def real_state(self, seed, N):
        rng = np.random.default_rng(seed)
        return from_real(rng.standard_normal(2 * N + 1))

    def test_coordinates_round_trip(self):
        y = self.real_state(1, 6)
        assert np.array_equal(y[::-1], np.conj(y)) and y[6].imag == 0.0
        assert np.array_equal(from_real(to_real(y)), y)

    def test_rows_are_the_real_functionals(self, law_std):
        law, _ = law_std
        y = self.real_state(2, 20)
        r = to_real(y)
        for v in (law.table, law.i_nu_moments):
            want = complex(v @ y)
            assert abs(real_row(v) @ r - want.real) <= 1e-13 * np.sum(np.abs(v * y))
        w = 1.0 + np.abs(law.eigenvalues) ** 2
        assert real_weights(w) @ r ** 2 == pytest.approx(np.sum(w * np.abs(y) ** 2), rel=1e-14)

    def test_is_the_modal_matrix_in_real_coordinates(self, law_std):
        # y' = -diag(mu) y + <I_nu, f_n> (table . y), read in r = to_real(y)
        law, _ = law_std
        M = law.galerkin_matrix()
        assert M.dtype == np.float64
        modal = np.diag(-law.eigenvalues) + np.outer(law.i_nu_moments, law.table)
        y = self.real_state(3, 20)
        want = to_real(modal @ y)
        assert np.max(np.abs(M @ to_real(y) - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", ["table", "i_nu_moments", "eigenvalues"])
    def test_broken_conjugate_pair_raises(self, law_std, name):
        law, _ = law_std
        skewed = dataclasses.replace(law, **{name: getattr(law, name).copy()})
        getattr(skewed, name)[law.index(-3)] += 1e-6
        with pytest.raises(NumericalError, match=f"{name} breaks .* at n = 3:"):
            skewed.galerkin_matrix()

    def test_zero_law_passes(self, p_std, basis_cache):
        # an all-zero table is symmetric: its generator is the skew rotation blocks alone
        law = zero_law(p_std, basis_cache(p_std, BcKind.CONSERVATIVE, 20))
        y = self.real_state(4, 20)
        want = to_real(-law.eigenvalues * y)
        assert np.max(np.abs(law.galerkin_matrix() @ to_real(y) - want)) <= 1e-14 * np.max(np.abs(want))


class TestSingularSplit:
    def test_remainder_vanishes_identically(self, law_std):
        # delta * e^{int delta} (1,-1) is proportional to f_0, so the moment
        # correction term vanishes exactly and the table equals its singular
        # part for every n != 0 (stronger than the square-summable-tail claim)
        law, basis = law_std
        h, regular, tails = singular_split(law, basis)
        nz = law.n_list != 0
        rel = np.abs(regular[nz]) / np.abs(law.table[nz])
        assert np.max(rel) < 1e-8

    def test_l2_tail_cauchy(self, basis_cache):
        p = Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=40, grid_points=4097)
        basis = basis_cache(p, BcKind.CONSERVATIVE, 40)
        law = feedback_coefficients(p, basis)
        _, _, tails = singular_split(law, basis)
        pt = tails["partial_tails"]
        assert abs(pt[10] - pt[20]) < 1e-3
        assert abs(pt[20] - pt[40]) < 1e-3

    def test_tau_band(self, law_std):
        law, _ = law_std
        t = np.abs(law.tau)
        assert float(t.min()) > 1e-3  # even modes scale like gamma
        assert float(t.max()) < 3.0

    @pytest.mark.parametrize("tau, refused", [(0.99e-6, True), (1.01e-6, False)])
    def test_tau_floor(self, tau, refused, law_std):
        # tau_n = tau at n = +-3, set in the moments: refused just below 1e-6, naming both modes
        law, basis = law_std
        p = law.params
        taus = basis.moments.tau.copy()
        rows = [basis.index(-3), basis.index(3)]
        taus[rows] = tau
        edited = dataclasses.replace(basis, moments=dataclasses.replace(basis.moments, tau=taus))
        if refused:
            with pytest.raises(RegimeError, match=r"\|tau_n\| below 1e-6 at n in \[-3, 3\]"):
                feedback_coefficients(p, edited)
        else:
            got = feedback_coefficients(p, edited).tau[rows]
            assert np.allclose(got, tau, rtol=1e-8, atol=0.0)

    def test_gamma0_tau_pattern(self, p_gamma0, basis_cache):
        basis = basis_cache(p_gamma0, BcKind.CONSERVATIVE, 6)
        law = zero_law(p_gamma0, basis)
        for n in (1, 3, 5):
            assert law.tau[law.index(n)] == pytest.approx(-2.0, abs=1e-9)
        for n in (2, 4):
            assert abs(law.tau[law.index(n)]) < 1e-9


class TestApplyFeedback:
    def test_basis_evaluation(self, law_std):
        law, _ = law_std
        coeffs = np.zeros(41, dtype=complex)
        coeffs[law.index(3)] = 1.0
        assert complex(np.dot(law.table, coeffs)) == law.table[law.index(3)]

    def test_real_state_real_output(self, law_std):
        law, _ = law_std
        rng = np.random.default_rng(0)
        coeffs = np.zeros(41, dtype=complex)
        for n in range(1, 21):
            a = rng.standard_normal() + 1j * rng.standard_normal()
            coeffs[law.index(n)] = a
            coeffs[law.index(-n)] = np.conj(a)
        coeffs[law.index(0)] = rng.standard_normal()
        u = complex(np.dot(law.table, coeffs))
        assert abs(u.imag) < 1e-10 * max(1.0, abs(u))

    def test_linearity(self, law_std):
        law, _ = law_std
        rng = np.random.default_rng(1)
        a = rng.standard_normal(41) + 1j * rng.standard_normal(41)
        b = rng.standard_normal(41) + 1j * rng.standard_normal(41)
        lhs = complex(np.dot(law.table, 2.0 * a + 3.0 * b))
        rhs = 2.0 * complex(np.dot(law.table, a)) + 3.0 * complex(np.dot(law.table, b))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestPhysicalFeedback:
    def test_consistency_with_internal_law(self, basis_cache):
        # the physical table is the internal table times L/L_gamma (exact
        # pushforward); physical-space integrals of the pulled-back
        # eigenfunctions must reproduce it (the fine grid keeps the
        # monotone-cubic resampling error below the tolerance)
        p = Params(gamma=0.03, mu=2.0, nu=0.5, n_modes=6, grid_points=8193)
        basis = basis_cache(p, BcKind.CONSERVATIVE, 6)
        law = feedback_coefficients(p, basis)
        phys = physical_feedback(law)
        scale = p.L / l_gamma(p)
        exact = np.abs(phys.table - scale * law.table) / np.abs(scale * law.table)
        assert float(exact.max()) < 1e-14
        ref = pulled_back_table(law, basis)
        rel = np.abs(phys.table - ref) / np.abs(ref)
        assert float(rel.max()) < 1e-6

    def test_tanh_scaling_rule(self, basis_cache):
        # the internal damping mu = 4 mu_phys, with mu_phys = mu/4, is a hard rule
        p = Params(gamma=0.03, mu=2.0, nu=0.5, n_modes=4, grid_points=2049)
        basis = basis_cache(p, BcKind.CONSERVATIVE, 4)
        phys = physical_feedback(feedback_coefficients(p, basis))
        assert phys.mu_phys == 0.5
        assert 4 * phys.mu_phys == p.mu == 2.0

    def test_zero_mode_blows_up_through_nu_only(self, basis_cache):
        # as gamma -> 0 the n = 0 coefficient stays finite at fixed nu
        vals = []
        for g in (1e-3, 1e-4):
            p = Params(gamma=g, mu=2.0, nu=0.5, n_modes=2, grid_points=1025)
            basis = basis_cache(p, BcKind.CONSERVATIVE, 2)
            phys = physical_feedback(feedback_coefficients(p, basis))
            vals.append(abs(phys.table[phys.index(0)]))
        assert vals[1] == pytest.approx(vals[0], rel=1e-2)

    def test_u2_coefficient(self, basis_cache):
        p = Params(gamma=0.03, mu=2.0, nu=0.5, n_modes=4, grid_points=2049)
        basis = basis_cache(p, BcKind.CONSERVATIVE, 4)
        phys = physical_feedback(feedback_coefficients(p, basis))
        expect = p.nu * phys.table[phys.index(0)]
        assert phys.u2_coefficient == pytest.approx(expect, rel=1e-12)


# the pinned law point, and a small coarse one
MOMENT_POINTS = [Params(gamma=0.03, mu=2.0, nu=0.5, n_modes=41, grid_points=4097),
                 Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=8, grid_points=257)]


class TestStreamedMoments:
    @pytest.mark.parametrize("p", MOMENT_POINTS, ids=["N41", "N8"])
    def test_moments_are_the_pairings_of_the_samples(self, p):
        # the identity moments against the normalized samples and their grid pairings, to
        # Simpson's error: the table's measured 5.4e-9 (N41) and 3.2e-8 (N=4, nx=257), with margin
        basis = build_basis(p, BcKind.CONSERVATIVE)
        m, bound = basis.moments, (1e-8 if p.grid_points >= 4097 else 1e-7)

        def close(got, want, rel):
            assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))

        close(m.profile, pairings(control_profile(p), basis.values, basis.grid), bound)
        close(m.at_0, basis.values[:, :, 0], 1e-10)
        close(m.at_L, basis.values[:, :, -1], 1e-10)
        gaps = basis.diagnostics()
        assert 0.0 < gaps["norm_gap_max"] <= 1e-10 and 0.0 < gaps["profile_gap_max"] <= 10 * bound

    # the points, and the largest |m(f_n)| and |<f_0, f_n>| over n != 0 allowed there: five
    # times the measured 1.4e-11 and 6.9e-12 (N=4/nx=257), 2.3e-13 and 1.1e-13 (P_STD),
    # and 4.0e-14 and 2.0e-14 (P_LOOP), rounded up
    IDENTITY_POINTS = [(Params(gamma=0.03, mu=2.0, nu=0.5, n_modes=4, grid_points=257), 7e-11, 3.5e-11),
                       (P_STD, 1.2e-12, 6e-13), (P_LOOP, 2e-13, 1e-13)]

    @pytest.mark.parametrize("p, mass_bound, pair_bound", IDENTITY_POINTS, ids=["N4", "P_STD", "P_LOOP"])
    def test_the_identities_the_law_takes_as_exact(self, p, mass_bound, pair_bound, basis_cache):
        # f_0 alone spans the conserved mass: for n != 0 the mass of f_n and <f_0, f_n> are 0,
        # so the law takes <I_nu, f_n> = <I, f_n> + nu delta_n0; quadratures of the samples
        basis = basis_cache(p, BcKind.CONSERVATIVE, p.n_modes)
        N, nz = basis.index(0), basis.n_list != 0
        masses = mode_masses(p, basis.values / diagonal_weight(p, basis.grid))
        pairs = pairings(basis.values[N], basis.values, basis.grid)
        assert np.max(np.abs(masses[nz])) <= mass_bound
        assert np.max(np.abs(pairs[nz])) <= pair_bound
        # f_0 = sqrt(W) (1, -1) / sqrt(int W / L), so m(f_0) = 2 W(0)^(3/2) sqrt(L int W),
        # with W linear; Simpson's rule on the smooth samples has it to 1e-9
        W0, WL = height_root_profile(p, np.array([0.0, p.L]))
        assert masses[N] == pytest.approx(2.0 * W0**1.5 * math.sqrt(p.L * p.L * (W0 + WL) / 2.0), rel=1e-9)
        # the samples are scaled by the identity norm d_n, so <f_0, f_0> is 1 only within the
        # norm gap, (1 + gap)^2 - 1: the stencil's ~1e-12 (1.2e-12 measured at N4)
        assert abs(pairs[N] - 1.0) <= 3.0 * basis.diagnostics()["norm_gap_max"]
        assert basis.moments.profile[N] == 0.0
        # the law's <I, f_n> is the identity's, which the quadrature misses by Simpson's error
        want = pairings(virtual_profile(p, basis), basis.values, basis.grid)
        simpson = np.max(np.abs(basis.moments.profile - pairings(control_profile(p), basis.values, basis.grid)))
        law = feedback_coefficients(p, basis)
        err = np.max(np.abs(law.i_nu_moments - want))
        assert err <= abs(p.nu) * pair_bound + simpson + 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("p", [point for point, *_ in IDENTITY_POINTS], ids=["N4", "P_STD", "P_LOOP"])
    def test_samples_and_moments_are_one_family(self, p, basis_cache):
        # one norm d_n scales the samples and the moments: the samples start at the moments'
        # f_n(0) bit for bit, end at their f_n(L) within the store pass's ODE error (measured
        # at 0.77-0.92 of it), and their quadrature norms are 1 within the build's norm gap
        basis = basis_cache(p, BcKind.CONSERVATIVE, p.n_modes)
        diag = basis.diagnostics()
        assert np.array_equal(basis.values[:, :, 0], basis.moments.at_0)
        end = np.max(np.abs(basis.values[:, :, -1] - basis.moments.at_L), axis=1)
        assert np.max(end / np.max(np.abs(basis.values), axis=(1, 2))) <= diag["ode_error_max"]
        norms = np.sqrt(pairings(basis.values, basis.values, basis.grid).real)
        assert np.max(np.abs(norms - 1.0)) <= diag["norm_gap_max"] + 1e-15

    @pytest.mark.parametrize("p", MOMENT_POINTS, ids=["N41", "N8"])
    def test_a_law_without_samples_is_the_law_with_them(self, p):
        # the law reads only the moments, which the identities give either way
        kept, lean = (build_basis(p, BcKind.CONSERVATIVE, samples=s) for s in (True, False))
        assert lean.values is None and lean.gram_deviation is None and kept.gram_deviation < 1e-6
        assert np.array_equal(lean.search_errors, kept.search_errors)
        for build in (feedback_coefficients, zero_law):
            a, b = build(p, kept), build(p, lean)
            for f in dataclasses.fields(FeedbackLaw):
                x, y = getattr(a, f.name), getattr(b, f.name)
                assert (x == y) if f.name == "params" else (x is y is None or np.array_equal(x, y)), f.name


class TestBoundaryIdentities:
    """The law's moments come from the roots by boundary identities, not from sums over the grid."""

    @pytest.mark.parametrize("gamma", [0.03, 0.3])
    def test_simpson_sums_converge_to_the_identities(self, gamma):
        # <I, f_n> by Simpson's rule on the sampled family closes on the identity at h^4:
        # the largest relative gap over N=20 reads 7.9e-8, 4.9e-9, 3.1e-10, 1.9e-11 at
        # nx = 1025..8193. The quadrature norm sits at the identity's own floor, about
        # 1.6e-12, on every grid
        gaps = []
        for nx in (1025, 2049, 4097, 8193):
            basis = build_basis(Params(gamma=gamma, mu=2.0, nu=0.5, n_modes=20, grid_points=nx), BcKind.CONSERVATIVE)
            gaps.append(np.max(basis.identity_gaps["profile"]))
            assert np.max(basis.identity_gaps["norm"]) <= 5e-12, nx
        ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
        assert 5e-8 < gaps[0] < 1.2e-7, gaps
        assert np.all(ratios[:2] > 13.0) and np.all(ratios[:2] < 19.0) and ratios[2] > 8.0, ratios

    # points, modes checked, and the largest relative table error allowed against Simpson
    # sums at nx = 32769 (which carry about 2e-11 of their own): measured 5.6e-12 (P_LOOP),
    # 2.1e-11 (P_STD) and 2.1e-11 (N=4/nx=257), against 5.4e-9, 4.9e-9 and 3.2e-8 for
    # Simpson sums on the point's own grid
    REFERENCE_POINTS = [(P_LOOP, [0, 1, 2, 39, 40, 41]), (P_STD, [0, 1, 2, 18, 19, 20]),
                        (Params(gamma=0.03, mu=2.0, nu=0.5, n_modes=4, grid_points=257), [-4, -1, 0, 1, 2, 3, 4])]

    @pytest.mark.parametrize("p, modes", REFERENCE_POINTS, ids=["P_LOOP", "P_STD", "N4"])
    def test_table_against_a_fine_grid_reference(self, p, modes):
        law = feedback_coefficients(p, build_basis(p, BcKind.CONSERVATIVE, samples=False))
        rows = [law.index(n) for n in modes]
        fine = dataclasses.replace(p, grid_points=32769)
        _, vals, _ = spectral._store_pass(fine, law.eigenvalues[rows], np.array([1.0, -1.0], dtype=complex))
        grid = uniform_grid(fine)
        d = np.sqrt(pairings(vals, vals, grid).real)
        profile = pairings(control_profile(fine), vals, grid) / d + p.nu * (np.array(modes) == 0)
        ref = -2.0 * math.tanh(p.mu * p.L) / d**2 / (2.0 * p.L * profile)
        assert np.max(np.abs(law.table[rows] - ref) / np.abs(ref)) <= 5e-11
