import math

import numpy as np
import pytest

from watertank.errors import NumericalError, RegimeError
from watertank.model import Params, delta, uniform_grid
from watertank import spectral
from watertank.spectral import (
    _SECANT_TOL,
    _SUBSTEPS,
    BcKind,
    _integrate,
    _kato_series,
    _left_seed,
    _seed_eigenvalues,
    adjoint_values,
    build_basis,
    collision,
    find_eigenvalues,
    first_order_perturbation,
    gram_matrix,
    j0_overlap,
    kato_psi,
    march,
    pairings,
    reference_mode,
    secant,
    w_modes,
)


def shoot(params: Params, kind: BcKind, lam) -> complex:
    """Boundary residual ``f1(L) + f2(L)`` of the shooting solution.

    Integrates from x=0 with the kind's left seed on the grid march of the
    store pass; roots in ``lam`` are the operator eigenvalues.
    """
    nsteps = (params.grid_points - 1) * _SUBSTEPS
    return complex(_integrate(params, [lam], _left_seed(kind, params), nsteps)[0])


def l1_boundary(params: Params, n: int, K: int = 2000) -> complex:
    """Boundary combination of ``psi_n^(1)``; zero for odd n.

    ``l1_n = psi^(1)_{n,1}(L) - psi^(1)_{n,1}(0) - psi^(1)_{n,2}(L)
    + psi^(1)_{n,2}(0)``, evaluated from the series (each basis mode
    contributes ``2((-1)^k - 1)``).
    """
    ks, coefs = _kato_series(params, n, K)
    return complex(coefs @ (2.0 * ((-1.0) ** ks - 1.0)))


def shoot_derivative_check(params: Params, kind: BcKind, lam, h=1e-6):
    """Residual derivatives along the real and imaginary directions.

    For a holomorphic residual these agree (Cauchy-Riemann); returns the
    pair (d/d_real, d/d_imag / i).
    """
    r = lambda z: shoot(params, kind, z)
    d_re = (r(lam + h) - r(lam - h)) / (2.0 * h)
    d_im = (r(lam + 1j * h) - r(lam - 1j * h)) / (2j * h)
    return d_re, d_im


def inner_product(f, g, grid) -> complex:
    return complex(pairings(f, g, grid))


class TestShoot:
    def test_gamma0_conservative_roots(self, p_gamma0):
        for n in (0, 1, 5, 20):
            assert abs(shoot(p_gamma0, BcKind.CONSERVATIVE, 1j * math.pi * n)) < 1e-10

    def test_gamma0_damped_roots(self, p_gamma0):
        for n in (0, 3, 12):
            lam = p_gamma0.mu + 1j * math.pi * n / p_gamma0.L
            assert abs(shoot(p_gamma0, BcKind.DAMPED, lam)) < 1e-10

    def test_nonroot_is_nonzero(self, p_gamma0):
        assert abs(shoot(p_gamma0, BcKind.CONSERVATIVE, 0.5 + 1j)) > 1e-3

    def test_holomorphic_in_lambda(self, p_std):
        # Cauchy-Riemann: the finite-difference derivative along the real
        # axis matches the one along the imaginary axis
        lam = 1j * math.pi * 3 / p_std.L + 0.01
        d_re, d_im = shoot_derivative_check(p_std, BcKind.CONSERVATIVE, lam)
        assert abs(d_re - d_im) < 1e-6 * max(1.0, abs(d_re))


def march_two_arrays(CEM, CEP, h, seed, nx):
    """RK4 of the shooting march on separate ``(g1, g2)`` arrays and stage tables.

    ``CEM`` and ``CEP`` are the (S, K) rows of the stage table; returns the
    final ``(g1, g2)`` and the (K, 2, nx) grid samples.
    """
    nsteps = (CEP.shape[0] - 1) // 2
    g1 = np.full(CEP.shape[1], seed[0], dtype=complex)
    g2 = np.full(CEP.shape[1], seed[1], dtype=complex)
    every = nsteps // (nx - 1)
    out = np.empty((CEP.shape[1], 2, nx), dtype=complex)
    out[:, 0, 0], out[:, 1, 0] = g1, g2
    for k in range(nsteps):
        i0 = 2 * k
        a1, b1 = CEM[i0] * g2, CEP[i0] * g1
        a2, b2 = CEM[i0 + 1] * (g2 + 0.5 * h * b1), CEP[i0 + 1] * (g1 + 0.5 * h * a1)
        a3, b3 = CEM[i0 + 1] * (g2 + 0.5 * h * b2), CEP[i0 + 1] * (g1 + 0.5 * h * a2)
        a4, b4 = CEM[i0 + 2] * (g2 + h * b3), CEP[i0 + 2] * (g1 + h * a3)
        g1 = g1 + (h / 6.0) * (a1 + 2.0 * (a2 + a3) + a4)
        g2 = g2 + (h / 6.0) * (b1 + 2.0 * (b2 + b3) + b4)
        if (k + 1) % every == 0:
            out[:, 0, (k + 1) // every], out[:, 1, (k + 1) // every] = g1, g2
    return (g1, g2), out


def whole_table_march(params: Params, kind: BcKind, lams):
    """Two-array march over one stage table for the whole grid march.

    Returns the step, the final ``(g1, g2)`` and the (K, 2, nx) samples.
    """
    nsteps = (params.grid_points - 1) * _SUBSTEPS
    xs = np.linspace(0.0, params.L, 2 * nsteps + 1)
    c = -np.asarray(delta(params, xs))[:, None] / 3.0
    E = np.exp(2.0 * np.outer(xs, lams))
    C = np.stack([c / E, c * E], axis=1)
    h = params.L / nsteps
    return (h, C) + march_two_arrays(C[:, 0], C[:, 1], h, _left_seed(kind, params), params.grid_points)


class TestMarch:
    @pytest.mark.parametrize("kind", list(BcKind))
    def test_stacked_march_matches_two_arrays(self, kind):
        # the stacked (2, K) march does the same arithmetic in the same order
        p = Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=3, grid_points=65)
        lams = find_eigenvalues(p, kind, range(-3, 4)) + 0.01
        h, C, (g1, g2), ref = whole_table_march(p, kind, lams)
        g0 = np.tile(_left_seed(kind, p)[:, None], lams.size)
        g = march(C, h, g0)
        assert np.array_equal(g[0], g1) and np.array_equal(g[1], g2)
        out = np.empty((lams.size, 2, p.grid_points - 1), dtype=complex)
        march(C, h, g0, out)
        assert np.array_equal(out, ref[:, :, 1:])

    @pytest.mark.parametrize("kind", list(BcKind))
    def test_blocked_tables_match_whole_table(self, kind):
        # the integrator builds its stage table _BLOCK_STEPS steps at a time;
        # marching block after block is the march over the whole table
        p = Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=3, grid_points=1025)
        nsteps = (p.grid_points - 1) * _SUBSTEPS
        assert nsteps > 2 * spectral._BLOCK_STEPS
        lams = find_eigenvalues(p, kind, range(-3, 4)) + 0.01
        _, _, (g1, g2), ref = whole_table_march(p, kind, lams)
        seed = _left_seed(kind, p)
        eL = np.exp(lams * p.L)
        assert np.array_equal(_integrate(p, lams, seed, nsteps), g1 * eL + g2 / eL)
        Eg = np.exp(np.outer(lams, uniform_grid(p)))
        ref[:, 0, :] *= Eg
        ref[:, 1, :] /= Eg
        assert np.array_equal(_integrate(p, lams, seed, nsteps, store=True)[1], ref)


def grid_march_eigenvalues(params: Params, kind: BcKind, n_range) -> np.ndarray:
    """Secant roots of the boundary residual on the grid march of the store pass.

    The search before it moved to a fixed march: the shared secant, seeded at
    the unperturbed eigenvalues, at ``_SUBSTEPS`` RK4 steps per grid cell.
    """
    nsteps = (params.grid_points - 1) * _SUBSTEPS
    seed = _left_seed(kind, params)
    lam0 = _seed_eigenvalues(kind, params, list(n_range))
    lam, ok = secant(lambda lam: _integrate(params, lam, seed, nsteps), lam0,
                     lam0 + 0.02j / params.L, _SECANT_TOL, max_step=0.3 / params.L)
    assert np.all(ok), "grid-march secant did not converge"
    return lam


class TestFindEigenvalues:
    @pytest.mark.parametrize("gamma", [0.01, 0.05])
    @pytest.mark.parametrize("kind", list(BcKind))
    def test_matches_grid_march_secant(self, kind, gamma):
        # the extrapolated fixed-march roots agree with the secant run on
        # the 4096-step grid march itself
        p = Params(gamma=gamma, mu=2.0, nu=0.5, n_modes=20, grid_points=2049)
        ev = find_eigenvalues(p, kind, range(-20, 21))
        ref = grid_march_eigenvalues(p, kind, range(-20, 21))
        assert np.max(np.abs(ev - ref)) < 1e-10

    def test_search_steps_independent_of_grid(self, monkeypatch):
        # the search marches the same step counts whatever the output grid;
        # every block of a march has its step h = L / steps, and L = 1 here
        steps = []
        real = spectral.march

        def counted(C, h, g, out=None):
            steps.append(((C.shape[0] - 1) // 2, round(1.0 / h)))
            return real(C, h, g, out)

        monkeypatch.setattr(spectral, "march", counted)
        evs, runs = [], []
        for nx in (2049, 4097):
            steps.clear()
            p = Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=3, grid_points=nx)
            evs.append(find_eigenvalues(p, BcKind.DAMPED, range(-3, 4)))
            runs.append(list(steps))
        assert runs[0] == runs[1]
        assert {n for _, n in runs[0]} == {spectral._SEARCH_STEPS, 2 * spectral._SEARCH_STEPS}
        assert np.array_equal(evs[0], evs[1])

    def test_gamma0_exact(self, p_gamma0):
        ev = find_eigenvalues(p_gamma0, BcKind.CONSERVATIVE, range(-20, 21))
        exact = 1j * math.pi * np.arange(-20, 21) / p_gamma0.L
        assert np.max(np.abs(ev - exact)) < 1e-9

    def test_perturbed_localization(self, p_std):
        ev = find_eigenvalues(p_std, BcKind.CONSERVATIVE, range(-20, 21))
        exact = 1j * math.pi * np.arange(-20, 21) / p_std.L
        assert np.max(np.abs(ev - exact)) < 0.25 / p_std.L

    def test_real_parts_vanish(self, p_std):
        ev = find_eigenvalues(p_std, BcKind.CONSERVATIVE, range(-20, 21))
        assert np.max(np.abs(ev.real)) < 1e-8

    def test_mu0_exactly_zero(self, p_std):
        ev = find_eigenvalues(p_std, BcKind.CONSERVATIVE, [0])
        assert abs(ev[0]) == 0.0

    def test_non_finite_residual_never_converges(self):
        # at mu = 400 the damped march overflows to nan; a nan residual gives
        # no secant step, which must not read as convergence
        p = Params(mu=400.0, n_modes=2, grid_points=257)
        with pytest.raises(NumericalError, match="did not converge"):
            find_eigenvalues(p, BcKind.DAMPED, range(-2, 3))
        with pytest.raises(NumericalError):
            build_basis(p, BcKind.DAMPED, 2)

    def test_out_of_regime_raises(self):
        # the damped operator's perturbation constants grow like e^{2 mu L},
        # so even small gamma pushes its roots out of the localization window
        p = Params(gamma=0.01, mu=4.0, nu=0.5, n_modes=4, grid_points=513)
        with pytest.raises(RegimeError):
            find_eigenvalues(p, BcKind.DAMPED, range(-4, 5))


class TestCollision:
    def test_closest_pair_not_adjacent_in_imag_order(self):
        # in imaginary-part order the entries read 0, 5 + 0.5e-9i, 1e-9i: the
        # colliding pair 0 and 1e-9i is not adjacent, which a sorted-gap test misses
        z = np.array([0.0, 5.0 + 0.5e-9j, 1e-9j])
        assert np.min(np.abs(np.diff(z[np.argsort(z.imag)]))) > 1.0
        assert collision(z) == (0, 2)

    def test_distinct_values_pass(self):
        assert collision(np.array([0.0, 1e-7, 1j])) is None
        assert collision(np.array([1j])) is None


class TestEigenfunction:
    def test_gamma0_zero_mode_constant(self, p_gamma0, basis_cache):
        basis = basis_cache(p_gamma0, BcKind.CONSERVATIVE, 10)
        f = basis.values[basis.index(0)]
        assert np.max(np.abs(f[0] - 1.0)) < 1e-12
        assert np.max(np.abs(f[1] + 1.0)) < 1e-12
        assert inner_product(f, f, basis.grid) == pytest.approx(1.0, abs=1e-12)

    def test_residuals_within_tolerance(self, p_std, basis_cache):
        basis = basis_cache(p_std, BcKind.CONSERVATIVE, 20)
        i = basis.index(7)
        assert basis.bc_residuals[i] < 1e-9
        assert basis.ode_residuals[i] < 1e-9

    def test_w_system_zero_modes_closed_form(self, p_std, basis_cache):
        from watertank.model import height_root_profile

        basis = basis_cache(p_std, BcKind.CONSERVATIVE, 20)
        modes = w_modes(p_std, basis)
        prof = height_root_profile(p_std, basis.grid)
        psi0 = modes.psi[modes.index(0)]
        r = psi0[0] * prof  # psi_{0,1} ~ prof^{-1}
        assert np.max(np.abs(r - r[0])) / abs(r[0]) < 1e-7
        assert np.max(np.abs(psi0[0] + psi0[1])) < 1e-12
        chi0 = modes.chi[modes.index(0)]
        r2 = chi0[0] / prof**2  # chi_{0,1} ~ prof^2
        assert np.max(np.abs(r2 - r2[0])) / abs(r2[0]) < 1e-7

    def test_damped_continues_reference(self, p_gamma0):
        basis = build_basis(p_gamma0, BcKind.DAMPED, 4, with_duals=False)
        ref = reference_mode(p_gamma0, BcKind.DAMPED, 4)
        assert np.max(np.abs(basis.values[basis.index(4)] - ref)) < 1e-9


class TestBuildBasis:
    @pytest.mark.parametrize("kind", list(BcKind))
    def test_smaller_basis_is_rows_of_larger(self, kind):
        # search and store act entry by entry: the N=12 family is bit for
        # bit the |n| <= 12 rows of the N=20 family
        p = Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=20, grid_points=257)
        small, big = build_basis(p, kind, 12), build_basis(p, kind, 20)
        rows = slice(big.index(-12), big.index(12) + 1)
        for name in ("eigenvalues", "values", "dual_values", "bc_residuals", "ode_residuals"):
            a, b = getattr(small, name), getattr(big, name)
            assert (a is None and b is None) or np.array_equal(a, b[rows]), name

    def test_store_pass_rejects_shifted_roots(self, monkeypatch):
        p = Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=4, grid_points=257)
        real = spectral.find_eigenvalues
        monkeypatch.setattr(
            spectral, "find_eigenvalues", lambda *args: real(*args) + 1e-6
        )
        for kind in BcKind:
            with pytest.raises(NumericalError, match=r"n in \[-4, -3, -2, -1, 0, 1, 2, 3, 4\]"):
                build_basis(p, kind, 4)

    def test_coarse_grid_failure_names_grid_points(self):
        p = Params(gamma=0.03, n_modes=8, grid_points=17)
        with pytest.raises(NumericalError, match="orthonormality failure .*raise grid_points"):
            build_basis(p, BcKind.CONSERVATIVE, 8)

    def test_gamma0_gram_identity(self, p_gamma0, basis_cache):
        basis = basis_cache(p_gamma0, BcKind.CONSERVATIVE, 10)
        G = gram_matrix(basis.values, basis.values, basis.grid)
        assert np.max(np.abs(G - np.eye(21))) < 1e-12

    def test_perturbed_gram_identity(self, p_std, basis_cache):
        basis = basis_cache(p_std, BcKind.CONSERVATIVE, 20)
        G = gram_matrix(basis.values, basis.values, basis.grid)
        assert np.max(np.abs(G - np.eye(41))) < 1e-6

    def test_gram_bound_at_gamma_point1(self, basis_cache):
        # orthonormality deviation < 1e-6 holds up to gamma = 0.1
        p = Params(gamma=0.1, mu=2.0, nu=0.5, n_modes=10, grid_points=2049)
        basis = basis_cache(p, BcKind.CONSERVATIVE, 10)
        G = gram_matrix(basis.values, basis.values, basis.grid)
        assert np.max(np.abs(G - np.eye(21))) < 1e-6

    def test_damped_biorthonormal(self, p_std, basis_cache):
        basis = basis_cache(p_std, BcKind.DAMPED, 10)
        G = gram_matrix(basis.values, basis.dual_values, basis.grid)
        assert np.max(np.abs(G - np.eye(21))) < 1e-6

    def test_damped_duals_solve_adjoint(self, p_std, basis_cache):
        # -(L phi' + delta J phi) = conj(mu~_n) phi, by 4th-order central
        # differences, with the adjoint boundary conditions
        bd = basis_cache(p_std, BcKind.DAMPED, 10)
        phi = bd.dual_values
        h = bd.grid[1] - bd.grid[0]
        d = (phi[..., :-4] - 8 * phi[..., 1:-3] + 8 * phi[..., 3:-1] - phi[..., 4:]) / (12 * h)
        c = phi[..., 2:-2]
        dl = delta(p_std, bd.grid[2:-2])
        op = np.stack([d[:, 0] + dl * c[:, 1] / 3, -d[:, 1] - dl * c[:, 0] / 3], axis=1)
        res = -op - np.conj(bd.eigenvalues)[:, None, None] * c
        size = np.max(np.abs(phi), axis=(1, 2))
        assert np.all(
            np.max(np.abs(res), axis=(1, 2)) < 1e-6 * size * (1 + np.abs(bd.eigenvalues))
        )
        e2 = math.exp(2 * p_std.mu * p_std.L)
        assert np.all(np.abs(phi[:, 0, 0] + e2 * phi[:, 1, 0]) < 1e-12 * size)
        assert np.all(np.abs(phi[:, 0, -1] + phi[:, 1, -1]) < 1e-12 * size)

    def test_adjoint_values_of_reference(self, p_gamma0):
        L = p_gamma0.L
        x = uniform_grid(p_gamma0)
        for n in (-3, 0, 5):
            r = -p_gamma0.mu + 1j * math.pi * n / L
            expect = np.stack([np.exp(r * x), -np.exp(r * (2 * L - x))])
            ref = reference_mode(p_gamma0, BcKind.DAMPED, n, x)
            assert np.max(np.abs(adjoint_values(p_gamma0, ref) - expect)) < 1e-13

    def test_eigenfunction_symmetry(self, p_std, basis_cache):
        basis = basis_cache(p_std, BcKind.CONSERVATIVE, 20)
        for n in (1, 7, 20):
            fm = basis.values[basis.index(-n)]
            fp = basis.values[basis.index(n)]
            assert np.max(np.abs(fm - np.conj(fp))) < 1e-10
            assert np.max(np.abs(fm[0] + fp[1])) < 1e-10

    def test_phase_fixing(self, p_std, basis_cache):
        basis = basis_cache(p_std, BcKind.CONSERVATIVE, 20)
        f10 = basis.f1_at_0
        assert np.max(np.abs(f10.imag)) < 1e-12
        assert np.all(f10.real > 0)

    def test_eigenvalue_pairing(self, p_std, basis_cache):
        basis = basis_cache(p_std, BcKind.CONSERVATIVE, 20)
        for n in (1, 5, 20):
            mu_p = basis.eigenvalue(n)
            mu_m = basis.eigenvalue(-n)
            assert abs(mu_m + mu_p) < 1e-10
            assert abs(mu_m - np.conj(mu_p)) < 1e-10

    def test_damped_conjugate_pairing(self, p_std, basis_cache):
        basis = basis_cache(p_std, BcKind.DAMPED, 10)
        for n in (1, 6):
            assert abs(basis.eigenvalue(-n) - np.conj(basis.eigenvalue(n))) < 1e-9

    def test_damped_real_part_band(self, p_std, basis_cache):
        basis = basis_cache(p_std, BcKind.DAMPED, 20)
        dev = np.max(np.abs(basis.eigenvalues.real - p_std.mu))
        assert dev < 0.1 * p_std.mu

    def test_boundary_value_uniformity(self, p_std, basis_cache):
        basis = basis_cache(p_std, BcKind.CONSERVATIVE, 20)
        m = float(np.min(np.abs(basis.f1_at_0)))
        M = float(np.max(np.abs(basis.f1_at_0)))
        assert 0.5 < m <= M < 2.0
        bd = basis_cache(p_std, BcKind.DAMPED, 10)
        phi0 = np.abs(bd.dual_values[:, 0, 0])
        assert 0.5 < phi0.min() <= phi0.max() < 2.0

    def test_reference_norm_convention(self, p_gamma0):
        # ||f~_n^(0)||^2 = (e^{4 mu L}-1)/(4 mu L) under the 1/(2L) product;
        # the unprefactored value (e^{4 mu L}-1)/(2 mu) is the plain-product one
        ref = reference_mode(p_gamma0, BcKind.DAMPED, 3)
        val = inner_product(ref, ref, uniform_grid(p_gamma0)).real
        muL = p_gamma0.mu * p_gamma0.L
        assert val == pytest.approx(
            math.expm1(4 * muL) / (4 * muL), rel=1e-10
        )


class TestPerturbationSeries:
    def test_overlap_vanishes_on_diagonal(self):
        assert j0_overlap(3, 3) == 0
        assert j0_overlap(3, -3) == 0

    def test_overlap_closed_form_spot(self, p_gamma0):
        # quadrature cross-check of the closed-form inner product
        g = uniform_grid(p_gamma0)
        n, k = 2, 5
        psi_n = reference_mode(p_gamma0, BcKind.CONSERVATIVE, n, g)
        psi_k = reference_mode(p_gamma0, BcKind.CONSERVATIVE, k, g)
        j0psi = np.stack(
            [psi_n[0] + psi_n[1] / 3.0, -psi_n[0] / 3.0 - psi_n[1]]
        )
        val = inner_product(j0psi, psi_k, g)
        assert val == pytest.approx(j0_overlap(n, k), abs=1e-10)

    def test_quadratic_remainder_order(self, basis_cache):
        errs = []
        gammas = (0.01, 0.04)
        for g in gammas:
            p = Params(gamma=g, mu=2.0, nu=0.5, n_modes=4, grid_points=1025)
            basis = basis_cache(p, BcKind.CONSERVATIVE, 4)
            psi = kato_psi(p, basis, 1)
            psi0 = reference_mode(p, BcKind.CONSERVATIVE, 1, basis.grid)
            psi1 = first_order_perturbation(p, 1, K=2000)
            errs.append(float(np.max(np.abs(psi - psi0 - g * psi1))))
        slope = math.log(errs[1] / errs[0]) / math.log(gammas[1] / gammas[0])
        assert 1.8 <= slope <= 2.2

    @pytest.mark.parametrize("n", [0, 3, -5])
    def test_folded_fft_matches_mode_sum(self, n):
        # K = 600 runs past the period P = 2(nx-1) = 256 in k, so the fold wraps
        p = Params(gamma=0.05, mu=2.0, nu=0.5, grid_points=129)
        ks, coefs = _kato_series(p, n, 600)
        up = np.exp(1j * math.pi * np.outer(ks, uniform_grid(p)) / p.L)
        direct = np.stack([coefs @ up, coefs @ (-1.0 / up)])
        psi1 = first_order_perturbation(p, n, K=600)
        assert np.max(np.abs(psi1 - direct)) < 1e-13 * np.max(np.abs(direct))

    def test_l1_parity(self):
        p = Params(gamma=0.05, mu=2.0, nu=0.5, grid_points=257)
        for n in (1, 3, 7):
            assert abs(l1_boundary(p, n, K=500)) < 1e-12
        for n in (0, 2, 6):
            assert abs(l1_boundary(p, n, K=4000)) > 2 * p.L / math.pi**2

    def test_l1_values(self):
        # l1_0 -> L and l1_{2m} -> 3L/2: exact limits of the series
        p = Params(gamma=0.05, mu=2.0, nu=0.5, grid_points=257)
        assert abs(l1_boundary(p, 0, K=20000)) == pytest.approx(p.L, rel=1e-3)
        assert abs(l1_boundary(p, 6, K=20000)) == pytest.approx(
            1.5 * p.L, rel=1e-3
        )
