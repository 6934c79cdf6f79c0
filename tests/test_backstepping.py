import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from watertank import backstepping
from watertank import spectral
from watertank.backstepping import (
    TransformMatrix,
    _digamma,
    build_transform,
    characteristic_function,
    closed_loop_spectrum,
    dirichlet_sum,
    galerkin_spectrum,
    match_spectrum,
    tail_sum,
)
from watertank.errors import NumericalError
from watertank.feedback import FeedbackLaw, feedback_coefficients
from watertank.model import Params, uniform_grid
from watertank.spectral import (
    Basis,
    BcKind,
    adjoint_values,
    find_eigenvalues,
    pairings,
    reference_mode,
)


def column_norm_spread(transform: TransformMatrix, law: FeedbackLaw) -> float:
    """Spread of ||column n|| / (|table[n]| * ||resolvent profile||)."""
    prof = np.sqrt(
        np.sum(
            1.0
            / np.abs(
                transform.target_eigenvalues[:, None] - transform.eigenvalues[None, :]
            )
            ** 2,
            axis=0,
        )
    )
    ratios = np.linalg.norm(transform.entries, axis=0) / (
        np.abs(law.table) * prof
    )
    return float(np.max(ratios) / np.min(ratios))


def tau_tilde_scalars(params: Params, basisAtilde: Basis) -> np.ndarray:
    """Diagonal action of the boundary-trace operator on the damped family.

    ``tau~ f~_p = conj(dual_p,1(0)) (1 - e^{-2 mu L}) / (2L) * f~_p`` in the
    1/(2L)-product convention.
    """
    phi1_0 = basisAtilde.dual_values[:, 0, 0]
    return (
        np.conj(phi1_0)
        * (1.0 - math.exp(-2.0 * params.mu * params.L))
        / (2.0 * params.L)
    )


def kn_relation_check(params: Params, basisA: Basis, basisAtilde: Basis,
                      n_values=None) -> dict:
    """Residuals of the resolvent-family identity f_n = f1(0) tau~ k_n.

    ``k_n = sum_p f~_p / (mu~_p - mu_n)`` truncated at the target window;
    the residual per n is the relative L2 error of the reconstruction.
    """
    if n_values is None:
        n_values = [n for n in basisA.n_list if abs(n) <= 3]
    taus = tau_tilde_scalars(params, basisAtilde)
    grid = basisA.grid
    out = {}
    for n in n_values:
        i = basisA.index(n)
        mu_n = basisA.eigenvalues[i]
        coef = taus / (basisAtilde.eigenvalues - mu_n)
        recon = basisA.values[i, 0, 0] * np.tensordot(
            coef, basisAtilde.values, axes=(0, 0)
        )
        diff = recon - basisA.values[i]
        ratio = pairings(diff, diff, grid) / pairings(basisA.values[i], basisA.values[i], grid)
        out[int(n)] = float(math.sqrt(ratio.real))
    return out


def tb_residual(params: Params, transform: TransformMatrix,
                i_nu_moments: np.ndarray, m: int) -> complex:
    """Weak TB = B residual ``<T I_nu^(N), dual_m> - <I_nu, dual_m>``."""
    p = transform.index(m)
    lhs = complex(np.dot(transform.entries[p, :], i_nu_moments))
    return lhs - complex(transform.i_nu_target_moments[p])


def operator_equality_residual(params: Params, transform: TransformMatrix,
                               law: FeedbackLaw, alpha_coeffs) -> float:
    """Truncated residual of ``T(-A alpha + <alpha,F> I_nu) + A~ T alpha``.

    Measured in the weighted target norm ``sum (1+|mu~_p|^2)|.|^2``, all
    pieces computed modally.
    """
    a = np.asarray(alpha_coeffs, dtype=complex)
    u = complex(np.dot(law.table, a))
    rhs = -transform.eigenvalues * a + u * law.i_nu_moments
    lhs_coeffs = transform.apply(rhs) + transform.target_eigenvalues * transform.apply(a)
    wt = 1.0 + np.abs(transform.target_eigenvalues) ** 2
    return float(math.sqrt(np.sum(wt * np.abs(lhs_coeffs) ** 2)))


@pytest.fixture(scope="module")
def stack20(basis_cache):
    p = Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=20, grid_points=2049)
    ba = basis_cache(p, BcKind.CONSERVATIVE, 20)
    bt = basis_cache(p, BcKind.DAMPED, 20)
    law = feedback_coefficients(p, ba)
    tr = build_transform(p, ba, bt, law)
    return p, ba, bt, law, tr


class TestTransform:
    def test_column_norm_spread(self, stack20):
        _, _, _, law, tr = stack20
        assert column_norm_spread(tr, law) < 50.0  # measured ~14

    def test_weighted_condition(self, stack20):
        _, _, _, _, tr = stack20
        assert tr.weighted_condition < 1e4  # measured ~1.1e3

    def test_condition_stability_under_truncation(self, basis_cache):
        # Riesz bounds manifest as a weighted condition stable within +-50%
        conds = []
        for N in (10, 15, 20):
            p = Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=N, grid_points=2049)
            ba = basis_cache(p, BcKind.CONSERVATIVE, N)
            bt = basis_cache(p, BcKind.DAMPED, N)
            law = feedback_coefficients(p, ba)
            conds.append(build_transform(p, ba, bt, law).weighted_condition)
        assert max(conds) / min(conds) < 1.5

    def test_conjugate_pair_symmetry(self, stack20):
        _, _, _, _, tr = stack20
        for pp in (-5, 0, 3):
            for nn in (-4, 1, 7):
                a = tr.entries[tr.index(pp), tr.index(nn)]
                b = tr.entries[tr.index(-pp), tr.index(-nn)]
                assert abs(b - np.conj(a)) < 1e-12 * max(1.0, abs(a))

    def test_spectral_gap(self, stack20):
        p, _, _, _, tr = stack20
        gap = np.min(
            np.abs(tr.target_eigenvalues[:, None] - tr.eigenvalues[None, :])
        )
        assert gap > p.mu - 2 * 0.25 / p.L


class TestKnRelation:
    def test_gamma0_coefficient_closed_form(self, basis_cache):
        # <f_n, phi~_p> = f_{n,1}(0) conj(phi~_{p,1}(0)) (1-e^{-2 mu L})
        #                 / (2L (mu~_p - mu_n)), checked against quadrature
        # with the explicit gamma = 0 families
        p = Params(gamma=0.0, mu=2.0, nu=0.5, n_modes=6, grid_points=2049)
        n, pp = 1, 3
        fn = reference_mode(p, BcKind.CONSERVATIVE, n)
        phi = adjoint_values(p, reference_mode(p, BcKind.DAMPED, pp))
        val = complex(pairings(fn, phi, uniform_grid(p)))
        mu_n = 1j * math.pi * n / p.L
        mu_p = p.mu + 1j * math.pi * pp / p.L
        expect = (
            1.0
            * np.conj(phi[0, 0])
            * -math.expm1(-2 * p.mu * p.L)
            / (2 * p.L * (mu_p - mu_n))
        )
        assert val == pytest.approx(expect, rel=1e-10)

    def test_residual_decreases_with_truncation(self, basis_cache):
        # truncation tail of the resolvent family: the squared-coefficient
        # tail is O(1/P), so the L2 residual decays like P^(-1/2) with a
        # large constant (the damped-family norms carry e^{2 mu L})
        res = {}
        for P in (20, 40, 80):
            p = Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=P, grid_points=4097)
            ba = basis_cache(p, BcKind.CONSERVATIVE, 1)
            bt = basis_cache(p, BcKind.DAMPED, P)
            res[P] = kn_relation_check(p, ba, bt, n_values=[1])[1]
        assert res[80] < res[40] < res[20]
        rate = math.log(res[20] / res[80]) / math.log(80 / 20)
        assert 0.3 < rate < 1.3


class TestTbResidual:
    def test_partial_sums_converge(self, basis_cache):
        vals = {}
        for N in (20, 40):
            p = Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=N, grid_points=4097)
            ba = basis_cache(p, BcKind.CONSERVATIVE, N)
            bt = basis_cache(p, BcKind.DAMPED, N)
            law = feedback_coefficients(p, ba)
            tr = build_transform(p, ba, bt, law)
            vals[N] = max(
                abs(tb_residual(p, tr, law.i_nu_moments, m)) for m in range(-5, 6)
            )
        assert vals[40] < vals[20]
        assert vals[40] < 5e-2

    def test_gamma0_dirichlet_jump(self, basis_cache):
        # scalar-transport analog: partial sums of the boundary-weighted
        # expansion converge to the Dirichlet jump mean (g1(0) - g2(0))*/2
        p = Params(gamma=0.0, mu=2.0, nu=0.5, n_modes=40, grid_points=4097)
        ba = basis_cache(p, BcKind.CONSERVATIVE, 40)
        g = adjoint_values(p, reference_mode(p, BcKind.DAMPED, 2))
        target = np.conj(g[0, 0] - g[1, 0]) / 2.0
        val = dirichlet_sum(ba, g)
        assert abs(val - target) < 5e-2

    def test_stack_gives_the_per_function_sums(self, basis_cache):
        # one gram_matrix product for a (M, 2, nx) stack against the per-function loop;
        # the sums run in another order, so they agree to rounding, not bit for bit
        p = Params(gamma=0.0, mu=2.0, nu=0.5, n_modes=40, grid_points=4097)
        ba = basis_cache(p, BcKind.CONSERVATIVE, 40)
        stack = np.array([adjoint_values(p, reference_mode(p, BcKind.DAMPED, m)) for m in range(-5, 6)])
        loop = np.array([np.sum(ba.values[:, 0, 0] * pairings(ba.values, g, ba.grid)) for g in stack])
        sums = dirichlet_sum(ba, stack)
        assert sums.shape == (11,)
        np.testing.assert_allclose(sums, loop, rtol=1e-13, atol=0)
        one = dirichlet_sum(ba, stack[3])
        assert isinstance(one, complex)
        assert one == pytest.approx(loop[3], rel=1e-13)


class TestOperatorEquality:
    def test_mode0_input_reduces_to_tb_error(self, stack20):
        # with alpha supported on mode 0 the residual equals |<alpha, F>|
        # times the weighted TB defect (A f_0 = 0)
        p, ba, bt, law, tr = stack20
        alpha = np.zeros(41, dtype=complex)
        alpha[tr.index(0)] = 1.0
        res = operator_equality_residual(p, tr, law, alpha)
        u = law.table[law.index(0)]
        wt = 1.0 + np.abs(tr.target_eigenvalues) ** 2
        tb = np.array(
            [tb_residual(p, tr, law.i_nu_moments, m) for m in tr.n_list]
        )
        expect = abs(u) * math.sqrt(float(np.sum(wt * np.abs(tb) ** 2)))
        assert res == pytest.approx(expect, rel=1e-10)

    def test_eigenvector_pullback_residual(self, stack20):
        # columns of the inverse transform applied to f~_p / mu~_p are the
        # closed-loop eigenvector approximations; at desk truncation the
        # residual is dominated by the weighted TB tail (measured ~0.8
        # relative at N = 20, decreasing with N)
        p, ba, bt, law, tr = stack20
        Ginv = np.linalg.inv(tr.entries)
        hp = Ginv[:, tr.index(2)] / bt.eigenvalues[bt.index(2)]
        res = operator_equality_residual(p, tr, law, hp)
        nrm = math.sqrt(
            float(np.sum((1 + np.abs(ba.eigenvalues) ** 2) * np.abs(hp) ** 2))
        )
        assert res < 1.0 * nrm

    def test_residual_grows_under_law_perturbation(self, stack20):
        p, ba, bt, law, tr = stack20
        Ginv = np.linalg.inv(tr.entries)
        hp = Ginv[:, tr.index(2)] / bt.eigenvalues[bt.index(2)]
        base = operator_equality_residual(p, tr, law, hp)
        law_p = feedback_coefficients(p, ba)
        law_p.table = law_p.table * 1.1
        pert = operator_equality_residual(p, tr, law_p, hp)
        assert pert > base


@pytest.fixture(scope="module")
def law41(basis_cache):
    # criterion 8's point
    p = Params(gamma=0.03, mu=2.0, nu=0.5, n_modes=41, grid_points=4097)
    ba = basis_cache(p, BcKind.CONSERVATIVE, 41)
    return p, ba, feedback_coefficients(p, ba)


@pytest.fixture(scope="module")
def spectrum41(law41):
    p, _, law = law41
    eig = closed_loop_spectrum(law)
    pd = Params(gamma=0.03, mu=2.0, nu=0.5, n_modes=12, grid_points=2049)
    targets = -find_eigenvalues(pd, BcKind.DAMPED, range(-10, 11))
    return p, eig, targets


class TestClosedLoopSpectrum:

    def test_relative_distance_to_targets(self, spectrum41):
        # the closed loop under the full law (tail |n| > N summed in closed
        # form) has the reflected target spectrum; the roots land within
        # ~2e-8 of the shooting targets
        p, eig, targets = spectrum41
        dist = match_spectrum(eig, targets)
        assert float(np.max(dist / np.abs(targets))) < 1e-6

    def test_galerkin_relative_distance(self, spectrum41, law41):
        # the N = 41 Galerkin matrix that the integrator propagates reaches
        # each target only to 10% of its modulus (shift O(|p|/N))
        p, eig, targets = spectrum41
        dist = match_spectrum(galerkin_spectrum(law41[2]), targets)
        assert float(np.max(dist / np.abs(targets))) < 0.1
        assert float(np.max(dist)) > 0.1 * p.mu

    def test_central_real_parts(self, spectrum41):
        # eigenvalues matched to central targets are damped at least mu/2
        p, eig, targets = spectrum41
        for t in targets:
            j = int(np.argmin(np.abs(eig.imag - t.imag)))
            assert eig[j].real <= -p.mu / 2.0

    def test_gamma_to_zero_docum(self, spectrum41, law41, capsys):
        # frozen-law degradation at gamma -> 0 is documented, not asserted:
        # the mode-0 handling rides on nu alone
        p, eig, targets = spectrum41
        print(
            f"closed-loop spectrum note: max Re = {eig.real.max():.3f} "
            f"(Galerkin matrix: {galerkin_spectrum(law41[2]).real.max():.3f}, "
            "weakly damped truncation-edge modes)"
        )

    def test_tail_matches_direct_partial_sum(self, law41):
        # the direct sum's own remainder is ~ |c| L |s| / (pi J), below 1e-5
        # for |s| < 7 at J = 4e5
        p, _, law = law41
        mu = law.eigenvalues
        c = law.table * law.i_nu_moments
        c_inf = 0.5 * (c[0] + c[-1])
        j = np.arange(1, 400_001)
        for s in (-2.0, -2.0 + 3.1j, -2.0 - 6.3j, 1.0 + 0.5j):
            direct = c_inf * np.sum(
                1.0 / (s + mu[-1] + 1j * math.pi * j / p.L)
                + 1.0 / (s + mu[0] - 1j * math.pi * j / p.L)
            )
            assert abs(tail_sum(s, mu[-1], mu[0], c_inf, p.L) - direct) < 1e-5

    def test_roots_solve_characteristic_equation(self, spectrum41, law41):
        p, eig, _ = spectrum41
        assert eig.size == law41[2].n_list.size
        assert float(np.max(np.abs(characteristic_function(law41[2], eig)))) < 1e-10

    @pytest.mark.parametrize("scale", [0.98, 1.02])
    def test_perturbed_table_misses_targets(self, spectrum41, law41, scale):
        # criterion 8 discriminates: a 2% error in the law moves the
        # closed-loop spectrum beyond its 0.1 mu tolerance
        p, _, law = law41
        _, _, targets = spectrum41
        eig = closed_loop_spectrum(replace(law, table=law.table * scale))
        assert float(np.max(match_spectrum(eig, targets))) > 0.1 * p.mu

    def test_diverging_seed_raises(self, law41):
        # doubling the table sends one real Galerkin seed off to nan
        law = law41[2]
        with pytest.raises(NumericalError, match="did not converge"):
            closed_loop_spectrum(replace(law, table=2.0 * law.table))

    def test_seed_collision_raises(self, law41, monkeypatch):
        law = law41[2]
        seed = galerkin_spectrum(law)[40]
        monkeypatch.setattr(
            backstepping, "galerkin_spectrum",
            lambda law: np.array([seed, seed + 1e-3]),
        )
        with pytest.raises(NumericalError, match="one closed-loop root"):
            closed_loop_spectrum(law)


# points s with |Im s| <= 40, off the poles -mu_n (Re s != 0), and per (mu, gamma) the
# largest relative gap |F - ratio| / |ratio| over them allowed at N = 20, 41, 80: about
# twice the measured 1.28e-7, 1.47e-8, 2.01e-9 (mu = 2) and 1.32e-8, 2.29e-9, 1.16e-9 (mu = 4)
ORACLE_S = np.array([-3.3 + 0.7j, -2.5 - 13.3j, -1.2 + 25.9j, -0.5 - 38.1j,
                     0.4 + 4.6j, 1.1 - 20.2j, 1.8 + 33.3j, 2.5 - 0.9j])
ORACLE_BOUNDS = {(2.0, 0.03): (3e-7, 3e-8, 4e-9), (4.0, 0.005): (3e-8, 5e-9, 2.5e-9)}


@pytest.mark.parametrize("mu, gamma", list(ORACLE_BOUNDS), ids=["mu2", "mu4"])
def test_characteristic_function_is_a_ratio_of_shooting_residuals(mu, gamma):
    # F(s) = -(1 + tanh(mu L)) R~(-s) / R(-s), R and R~ the residuals f1(L) + f2(L) of the
    # conservative and damped marches. Derived, not fitted: the poles -lam_n agree, since
    # c_n = -tanh(mu L) / (L d_n^2) with d_n^2 = f_{n,1}(L) R'(lam_n) / (2L), and the Wronskian
    # det[f, f~] is constant in x (tr L(lam - delta J) = 0), so f_{n,1}(L) R~(lam_n) equals its
    # value at 0, 1 - e^{-2 mu L} = 2 tanh(mu L) / (1 + tanh(mu L)). As Re s -> +inf, F -> 1 +
    # tanh(mu L) and R~(-s)/R(-s) -> -1, which fixes the constant. The gap is the tail model's
    # error, N^-3 at mu = 2; at mu = 4, N = 80 it meets a floor of about 1e-12 absolute, the
    # law's own rounding, where |F| is 1e-3 (Re s <= -2.5), not the march's: 512- and
    # 1024-step ratios agree to 3e-13
    ratios = []
    for nsteps in (512, 1024):
        p = Params(gamma=gamma, mu=mu, nu=0.5, n_modes=4, grid_points=257)
        R, Rt = (spectral._residual(p, -ORACLE_S, spectral._left_seed(kind, p), nsteps) for kind in BcKind)
        ratios.append(-(1.0 + math.tanh(mu * p.L)) * Rt / R)
    assert np.max(np.abs(ratios[0] / ratios[1] - 1.0)) <= 1e-11
    gaps = []
    for N, nx, bound in zip((20, 41, 80), (2049, 4097, 8193), ORACLE_BOUNDS[mu, gamma]):
        p = Params(gamma=gamma, mu=mu, nu=0.5, n_modes=N, grid_points=nx)
        law = feedback_coefficients(p, spectral.build_basis(p, BcKind.CONSERVATIVE, samples=False))
        gaps.append(np.max(np.abs(characteristic_function(law, ORACLE_S) - ratios[1]) / np.abs(ratios[1])))
        assert gaps[-1] <= bound, (N, gaps[-1])
    if mu == 2.0:  # each doubling of N cuts the gap by N^3, to within 30%
        for (n0, g0), (n1, g1) in zip(((20, gaps[0]), (41, gaps[1])), ((41, gaps[1]), (80, gaps[2]))):
            assert 0.7 < (g0 / g1) / (n1 / n0) ** 3 < 1.3, gaps


class TestDigamma:
    """``_digamma`` against mpmath's digamma as the independent reference."""

    @staticmethod
    def error(z, floor=0.0):
        with mpmath.workdps(30):
            want = np.array([complex(mpmath.digamma(complex(x))) for x in z])
        return float(np.max(np.abs(_digamma(z) - want) / np.maximum(np.abs(want), floor)))

    def test_grid_through_reflection(self):
        # Re z from -60 to 60, so the reflected half-plane Re z < 0.5 is
        # half the grid; offsets keep the poles off it
        x, y = np.meshgrid(np.linspace(-60.0, 60.0, 41) + 0.3, np.linspace(-60.0, 60.0, 41) + 0.1)
        z = (x + 1j * y).ravel()
        assert np.count_nonzero(z.real < 0.5) > 700
        assert self.error(z) < 1e-14

    def test_near_real_axis(self):
        # within 1e-3 of the axis; psi has a real zero in each negative unit
        # interval, where no implementation is relatively accurate, so the
        # error is relative to max(|psi|, 1)
        rng = np.random.default_rng(3)
        z = rng.uniform(-30.0, 30.0, 600) + 1j * rng.uniform(-1e-3, 1e-3, 600)
        assert self.error(z, floor=1.0) < 1e-14

    def test_large_imaginary_part(self):
        rng = np.random.default_rng(4)
        z = rng.uniform(-50.0, 50.0, 400) + 1j * rng.uniform(-500.0, 500.0, 400)
        z = np.concatenate([z, 1.0 + 1j * np.linspace(-500.0, 500.0, 101)])
        assert self.error(z) < 1e-14

    def test_poles_non_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = _digamma(np.array([0.0, -1.0, -7.0], dtype=complex))
        assert not np.any(np.isfinite(psi))


def test_a_root_left_off_its_zero_is_refused(monkeypatch):
    # the secant stops one seed 1e-7 off its root, where 1e-10 < |F| < 1e-4: the residual
    # guard, not the secant's step test, must refuse it
    p = Params(gamma=0.03, mu=2.0, nu=0.5, n_modes=4, grid_points=257)
    law = feedback_coefficients(p, spectral.build_basis(p, BcKind.CONSERVATIVE, samples=False))
    real, left = backstepping.secant, []

    def stops_short(*args, **kwargs):
        roots, done = real(*args, **kwargs)
        roots = roots.copy()
        roots[0] += 1e-7
        left.append(abs(complex(characteristic_function(law, roots[0]))))
        return roots, done

    monkeypatch.setattr(backstepping, "secant", stops_short)
    with pytest.raises(NumericalError, match=r"did not converge from 1 Galerkin seed\(s\), first at"):
        closed_loop_spectrum(law)
    assert 1e-10 < left[0] < 1e-4, left
