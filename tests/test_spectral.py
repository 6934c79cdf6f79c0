import math
import tracemalloc

import numpy as np
import pytest

from watertank.errors import NumericalError, RegimeError
from watertank.model import Params, delta, uniform_grid
from watertank import spectral
from watertank.spectral import (
    _SECANT_TOL,
    BcKind,
    _cosh_sinhc,
    _filon_moments,
    _kato_series,
    _left_seed,
    _residual,
    _series_terms,
    _sinh_minus,
    _store_pass,
    adjoint_values,
    build_basis,
    collision,
    find_eigenvalues,
    first_order_perturbation,
    gram_matrix,
    kato_psi,
    march,
    pairings,
    reference_mode,
    secant,
    step_tables,
    unperturbed_eigenvalues,
    w_modes,
)


_RK4_SUBSTEPS = 2  # RK4 steps per grid cell of the reference march


def march_two_arrays(CEM, CEP, h, seed):
    """RK4 of the shooting march on separate ``(g1, g2)`` arrays and stage tables.

    ``CEM`` and ``CEP`` are the (2S + 1, K) stage rows ``c e^{-2 lam x}`` and
    ``c e^{2 lam x}`` at the step ends and midpoints; returns the final
    ``(g1, g2)``.
    """
    g1 = np.full(CEP.shape[1], seed[0], dtype=complex)
    g2 = np.full(CEP.shape[1], seed[1], dtype=complex)
    for k in range((CEP.shape[0] - 1) // 2):
        i0 = 2 * k
        a1, b1 = CEM[i0] * g2, CEP[i0] * g1
        a2, b2 = CEM[i0 + 1] * (g2 + 0.5 * h * b1), CEP[i0 + 1] * (g1 + 0.5 * h * a1)
        a3, b3 = CEM[i0 + 1] * (g2 + 0.5 * h * b2), CEP[i0 + 1] * (g1 + 0.5 * h * a2)
        a4, b4 = CEM[i0 + 2] * (g2 + h * b3), CEP[i0 + 2] * (g1 + h * a3)
        g1 = g1 + (h / 6.0) * (a1 + 2.0 * (a2 + a3) + a4)
        g2 = g2 + (h / 6.0) * (b1 + 2.0 * (b2 + b3) + b4)
    return g1, g2


def rk4_residuals(params: Params, kind: BcKind, lams, nsteps=None) -> np.ndarray:
    """Boundary residuals ``f1(L) + f2(L)`` by the RK4 reference march.

    Independent of the package's march: RK4 on the modulated variables from
    the kind's left seed, ``nsteps`` steps over [0, L] (default
    ``_RK4_SUBSTEPS`` per grid cell).
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    if nsteps is None:
        nsteps = (params.grid_points - 1) * _RK4_SUBSTEPS
    xs = np.linspace(0.0, params.L, 2 * nsteps + 1)
    c = -np.asarray(delta(params, xs))[:, None] / 3.0
    E = np.exp(2.0 * np.outer(xs, lams))
    g1, g2 = march_two_arrays(c / E, c * E, params.L / nsteps, _left_seed(kind, params))
    eL = np.exp(lams * params.L)
    return g1 * eL + g2 / eL


def shoot(params: Params, kind: BcKind, lam) -> complex:
    """Boundary residual ``f1(L) + f2(L)`` of the shooting solution.

    Integrates from x=0 with the kind's left seed on the RK4 reference march;
    roots in ``lam`` are the operator eigenvalues.
    """
    return complex(rk4_residuals(params, kind, [lam])[0])


def j0_overlap(n: int, k: int) -> complex:
    """Closed-form ``<J0 psi_n^(0), psi_k^(0)>``, one pair at a time; zero when |n| = |k|."""
    if abs(n) == abs(k):
        return 0.0 + 0.0j
    return (
        ((-1.0) ** (n + k) - 1.0)
        / (1j * math.pi)
        * (1.0 / (n - k) + (1.0 / 3.0) / (n + k))
    )


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


def magnus_two_arrays(P, seed):
    """The Magnus march on separate ``(g1, g2)`` arrays, storing every step.

    ``P`` is a table of :func:`spectral.step_tables`; returns the final
    ``(g1, g2)`` and the (K, 2, S + 1) samples, seed included.
    """
    g1 = np.full(P.shape[-1], seed[0], dtype=complex)
    g2 = np.full(P.shape[-1], seed[1], dtype=complex)
    out = np.empty((P.shape[-1], 2, P.shape[0] + 1), dtype=complex)
    out[:, 0, 0], out[:, 1, 0] = g1, g2
    for k in range(P.shape[0]):
        (d1, d2), (o1, o2) = P[k]
        g1, g2 = d1 * g1 + o1 * g2, d2 * g2 + o2 * g1
        out[:, 0, k + 1], out[:, 1, k + 1] = g1, g2
    return (g1, g2), out


def whole_table(params: Params, lams, nsteps):
    """The step table of an ``nsteps`` march over [0, L], built in one piece: one block of all its steps."""
    xs = np.linspace(0.0, params.L, 2 * nsteps + 1)
    (rows, P), = step_tables(-np.asarray(delta(params, xs)) / 3.0, lams, params.L / nsteps, [slice(0, nsteps)])
    assert rows == slice(0, nsteps)
    return P


def node_major_store_pass(params: Params, lams, seed):
    """The store pass on whole node-major arrays: both marches kept in full, then converted.

    The reference for :func:`spectral._store_pass`, which streams the same
    marches through :func:`spectral.shoot` one block at a time; this one
    marches each whole table with :func:`march`. Returns the same ``(bc
    residuals, (K, 2, nx) samples, ODE errors)``.
    """
    nsteps = params.grid_points - 1
    vals = np.empty((nsteps + 1, 2, lams.size), dtype=complex)
    coarse = np.empty((nsteps // 2 + 1, 2, lams.size), dtype=complex)
    vals[0] = coarse[0] = np.asarray(seed, dtype=complex)[:, None]
    march(whole_table(params, lams, nsteps), vals[0], vals[1:])
    march(whole_table(params, lams, nsteps // 2), coarse[0], coarse[1:])
    Eg = np.exp(np.outer(uniform_grid(params), lams))  # (nx, K)
    vals[:, 0] *= Eg
    vals[:, 1] /= Eg
    coarse[:, 0] *= Eg[::2]
    coarse[:, 1] /= Eg[::2]
    scale = np.max(np.abs(vals), axis=(0, 1))
    ode_err = np.max(np.abs(vals[::2] - coarse), axis=(0, 1)) / scale
    return np.abs(vals[-1, 0] + vals[-1, 1]) / scale, np.ascontiguousarray(vals.transpose(2, 1, 0)), ode_err


class TestMarch:
    @pytest.mark.parametrize("kind", list(BcKind))
    def test_stacked_march_matches_two_arrays(self, kind):
        # the stacked (2, K) march does the same arithmetic in the same order
        p = Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=3, grid_points=65)
        lams = find_eigenvalues(p, kind, range(-3, 4)) + 0.01
        P = whole_table(p, lams, p.grid_points - 1)
        (g1, g2), ref = magnus_two_arrays(P, _left_seed(kind, p))
        g0 = np.tile(_left_seed(kind, p)[:, None], lams.size)
        out = np.empty((p.grid_points - 1, 2, lams.size), dtype=complex)
        g = march(P, g0, out)[-1]
        assert np.array_equal(g[0], g1) and np.array_equal(g[1], g2)
        assert np.array_equal(out, ref[:, :, 1:].transpose(2, 1, 0))

    @pytest.mark.parametrize("kind", list(BcKind))
    def test_blocked_tables_match_whole_table(self, kind):
        # shoot builds its step table _BLOCK_STEPS steps at a time; marching
        # block after block is the march over the whole table
        p = Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=3, grid_points=2049)
        nsteps = p.grid_points - 1
        assert nsteps > 2 * spectral._BLOCK_STEPS
        lams = find_eigenvalues(p, kind, range(-3, 4)) + 0.01
        (g1, g2), ref = magnus_two_arrays(whole_table(p, lams, nsteps), _left_seed(kind, p))
        seed = _left_seed(kind, p)
        eL = np.exp(lams * p.L)
        *_, (_, _, states) = spectral.shoot(p, lams, seed, nsteps)
        assert np.array_equal(states[-1], np.stack([g1, g2]))
        assert np.array_equal(_residual(p, lams, seed, nsteps), g1 * eL + g2 / eL)
        Eg = np.exp(np.outer(lams, uniform_grid(p)))
        ref[:, 0, :] *= Eg
        ref[:, 1, :] /= Eg
        assert np.array_equal(_store_pass(p, lams, seed)[1], ref)
        # a lone last step joins the block before it: 2 x 128 + 1 steps march as 128 + 129
        n = 2 * spectral._BLOCK_STEPS + 1
        (g1, g2), _ = magnus_two_arrays(whole_table(p, lams, n), seed)
        *_, (s0, s1, states) = spectral.shoot(p, lams, seed, n)
        assert (s0, s1) == (spectral._BLOCK_STEPS, n)
        assert np.array_equal(states[-1], np.stack([g1, g2]))

    def test_store_layouts(self):
        # on every grid the fine layout is the coarse one doubled, so fine block k's even
        # nodes are coarse block k's; each covers its steps once, in order, none in a
        # one-row block, and the longest fine block fits the store pass's buffers
        for nx in range(17, 8194, 2):
            nsteps = nx - 1
            coarse, fine = spectral._store_blocks(nsteps)
            assert [(2 * b.start, 2 * b.stop) for b in coarse] == [(b.start, b.stop) for b in fine]
            for blocks, steps in ((coarse, nsteps // 2), (fine, nsteps)):
                assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
                assert blocks[-1].stop == steps
                assert min(b.stop - b.start for b in blocks) > 1
            merged = nsteps % spectral._STORE_STEPS == 2  # the coarse march's lone last step
            assert spectral._longest(fine) == min(nsteps, spectral._STORE_STEPS + (2 if merged else 0))
        for nx in (17, 67, 131, 257, 1283):
            _, fine = spectral._store_blocks(nx - 1)
            sums = spectral._Sums(Params(gamma=0.05, grid_points=nx), 3)
            assert sums._buf.shape == (3, spectral._longest(fine))

    @pytest.mark.parametrize("kind", list(BcKind))
    def test_streamed_store_pass_matches_node_major(self, kind):
        # coarse blocks of _STORE_STEPS / 2 = 32 steps, and the fine march on that layout
        # doubled. At nx = 67 (64 + 2 fine steps), 131 (2 x 64 + 2) and 1283 (20 x 64 + 2)
        # the coarse march's lone last step joins the block before it, so the last fine
        # block is 66 steps long; at nx = 257 every block is whole
        for nx in (67, 131, 257, 1283):
            p = Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=6, grid_points=nx)
            nsteps = p.grid_points - 1
            assert nsteps % spectral._STORE_STEPS == (0 if nx == 257 else 2)
            assert nsteps // 2 % (spectral._STORE_STEPS // 2) == (0 if nx == 257 else 1)
            lams = find_eigenvalues(p, kind, range(-6, 7))
            seed = _left_seed(kind, p)
            got, want = _store_pass(p, lams, seed), node_major_store_pass(p, lams, seed)
            for name, a, b in zip(("bc_residuals", "values", "ode_residuals"), got, want):
                assert a.shape == b.shape and np.array_equal(a, b), (nx, name)
            assert got[1].flags.c_contiguous
            # without samples, and with the sums taken, the residuals keep their bits; the
            # sums are the same whether or not the samples are kept
            sums = [spectral._Sums(p, lams.size) for _ in range(2)]
            kept, lean = _store_pass(p, lams, seed, True, sums[0]), _store_pass(p, lams, seed, False, sums[1])
            assert lean[1] is None and np.array_equal(kept[1], want[1])
            for a in (kept, lean):
                assert np.array_equal(a[0], want[0]) and np.array_equal(a[2], want[2]), nx
            for name in ("norm2", "gram", "profile", "last"):
                assert np.array_equal(getattr(sums[0], name), getattr(sums[1], name)), (nx, name)

    def test_lyapunov_weight_is_one_piece_march(self):
        # the certificate's eta is the march over the whole table, bit for bit
        from watertank.simulate import lyapunov_certificate

        p = Params(gamma=0.05, mu=2.0, nu=0.5, grid_points=2049)
        lam = 1.0
        assert p.grid_points - 1 > 2 * spectral._BLOCK_STEPS
        e2L = math.exp(2.0 * lam * p.L)
        g0 = np.array([[math.exp(-2.0 * (p.mu - lam) * p.L)], [e2L]], dtype=complex)
        g = np.empty((p.grid_points, 2, 1), dtype=complex)
        g[0] = g0
        march(whole_table(p, [lam], p.grid_points - 1), g0, g[1:])
        cert = lyapunov_certificate(p, lam)
        assert cert.feasible
        assert np.array_equal(cert.eta, e2L * (g[:, 0, 0] / g[:, 1, 0]).real)

    @pytest.mark.parametrize("lam", [0.3 + 2.0j, 2.0 + 40.0j, 1.5])
    def test_step_is_exponential_of_magnus_exponent(self, lam):
        # each step matrix is expm([[w, alpha], [beta, -w]]), alpha and beta the
        # integrals of the quadratic interpolant of c against e^{-/+ 2 lam s}
        from scipy.linalg import expm

        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        p = Params(gamma=0.05, mu=2.0, nu=0.5, grid_points=65)
        nsteps, h = 16, p.L / 16
        P = whole_table(p, [lam], nsteps)
        xs = np.linspace(0.0, p.L, 2 * nsteps + 1)
        c = -np.asarray(delta(p, xs)) / 3.0
        for k in (0, 7, 15):
            c0, cm, c1 = (mpmath.mpf(float(v)) for v in c[2 * k: 2 * k + 3])
            x0 = mpmath.mpf(float(xs[2 * k]))

            def integral(sign):  # the interpolant through (0, c0), (1/2, cm), (1, c1) in t = s/h
                poly = lambda t: c0 * (1 - t) * (1 - 2 * t) + 4 * cm * t * (1 - t) - c1 * t * (1 - 2 * t)
                f = lambda t: poly(t) * mpmath.exp(sign * 2 * lam * (x0 + t * h))
                return complex(h * mpmath.quad(f, [0, 1]))

            z = 2 * lam * h
            w = complex(-cm**2 * (mpmath.sinh(z) - z) / (2 * mpmath.mpmathify(lam)) ** 2)
            expect = expm(np.array([[w, integral(-1)], [integral(1), -w]]))
            got = np.array([[P[k, 0, 0, 0], P[k, 1, 0, 0]], [P[k, 1, 1, 0], P[k, 0, 1, 0]]])
            assert np.max(np.abs(got - expect)) < 1e-14

    @pytest.mark.parametrize("kind", list(BcKind))
    def test_fourth_order(self, kind):
        # against a fine RK4 reference, halving the step cuts the error about 16x
        p = Params(gamma=0.1, mu=2.0, nu=0.5, grid_points=257)
        lams = unperturbed_eigenvalues(kind, p, [1, 5, 12]) + 0.05
        ref = rk4_residuals(p, kind, lams, nsteps=8192)
        errs = [np.abs(_residual(p, lams, _left_seed(kind, p), n) - ref) for n in (32, 64)]
        ratio = errs[0] / errs[1]
        assert np.all((ratio > 12.0) & (ratio < 20.0)), ratio


class TestFilonMoments:
    POINTS = [0.0, 0.5, -0.5, 3j, -3j, 40.0, -40.0]

    @pytest.mark.parametrize("z", POINTS)
    def test_moments_match_quadrature(self, z):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        got = _filon_moments(np.array([z]))[:, 0]
        for k in range(3):
            ref = complex(mpmath.quad(lambda t: t**k * mpmath.exp(z * t), [0, 1]))
            assert abs(got[k] - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("z", POINTS)
    def test_sinh_minus_matches_reference(self, z):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        got = complex(_sinh_minus(np.array([z]))[0])
        ref = 0j if z == 0 else complex((mpmath.sinh(z) - z) / mpmath.mpmathify(z) ** 2)
        assert abs(got - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("q", [0.0, 1e-6, -0.0099, 0.0099j, 0.0101, -0.5, 3j, 40.0])
    def test_cosh_sinhc_match_reference(self, q):
        # at the series terms the bound picks for |q|, and at the most terms
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        s = mpmath.sqrt(mpmath.mpmathify(q))
        ref = (1.0, 1.0) if q == 0 else (complex(mpmath.cosh(s)), complex(mpmath.sinh(s) / s))
        for terms in (_series_terms(abs(q)), 5):
            got = _cosh_sinhc(np.array([q], dtype=complex), terms)
            for g, r in zip(got, ref):
                assert abs(g[0] - r) <= 1e-15 * abs(r)

    @pytest.mark.parametrize("terms", range(6))
    def test_cosh_sinhc_at_the_largest_q_each_term_count_admits(self, terms):
        # every count the bound can pick, on a circle just inside the largest |q| it admits
        # (for 5 terms, the switch to the closed forms at |q| = 0.01)
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        radius = (spectral._SERIES_RADII + [0.01])[terms] * (1.0 - 1e-12)
        assert _series_terms(radius) == terms
        q = radius * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 9))
        got = _cosh_sinhc(q, terms)
        for k, qk in enumerate(q):
            s = mpmath.sqrt(mpmath.mpmathify(complex(qk)))
            for g, r in zip(got, (mpmath.cosh(s), mpmath.sinh(s) / s)):
                assert abs(g[k] - complex(r)) <= 1e-15 * abs(complex(r))

    def test_one_series_term_at_the_pinned_grid(self, monkeypatch):
        # every |q| of a march lies below the radius of the count its bound picked,
        # and at nx = 4097 the N = 41 marches take one term
        seen = {}
        real = spectral._cosh_sinhc

        def counted(q, n):
            seen[n] = max(seen.get(n, 0.0), np.max(np.abs(q)))
            return real(q, n)

        monkeypatch.setattr(spectral, "_cosh_sinhc", counted)
        for nx in (257, 4097):
            seen.clear()
            for gamma in (0.02, 0.05):
                p = Params(gamma=gamma, mu=2.0, nu=0.5, n_modes=41, grid_points=nx)
                for kind in BcKind:
                    lams = unperturbed_eigenvalues(kind, p, range(-41, 42))
                    for _ in spectral.shoot(p, lams, _left_seed(kind, p), p.grid_points - 1):
                        pass
            assert all(q < spectral._SERIES_RADII[n] for n, q in seen.items()), seen
        assert list(seen) == [1]

    @pytest.mark.parametrize("f, radius", [
        (_filon_moments, 1.0),
        (_sinh_minus, 1.0),
        (lambda q: np.stack(_cosh_sinhc(q, 5)), 0.01),
    ])
    def test_branches_agree_at_switch(self, f, radius):
        # the series gives way to the closed form at |argument| = radius
        u = radius * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 9))
        inside, outside = f(u * (1.0 - 1e-15)), f(u * (1.0 + 1e-15))
        assert np.max(np.abs(inside - outside) / np.abs(outside)) < 1e-14


def grid_march_eigenvalues(params: Params, kind: BcKind, n_range) -> np.ndarray:
    """Secant roots of the boundary residual on the RK4 reference march.

    The shared secant, seeded at the unperturbed eigenvalues, at
    ``_RK4_SUBSTEPS`` RK4 steps per grid cell: independent of the package's
    march and of its step counts.
    """
    seed_lams = unperturbed_eigenvalues(kind, params, list(n_range))
    lam, ok = secant(lambda lam: rk4_residuals(params, kind, lam), seed_lams,
                     seed_lams + 0.02j / params.L, _SECANT_TOL, max_step=0.3 / params.L)
    assert np.all(ok), "grid-march secant did not converge"
    return lam


class TestFindEigenvalues:
    @pytest.mark.parametrize("gamma", [0.01, 0.05])
    @pytest.mark.parametrize("kind", list(BcKind))
    def test_matches_grid_march_secant(self, kind, gamma):
        # the extrapolated fixed-march roots agree with the secant run on
        # the 4096-step RK4 reference march
        p = Params(gamma=gamma, mu=2.0, nu=0.5, n_modes=20, grid_points=2049)
        ev = find_eigenvalues(p, kind, range(-20, 21))
        ref = grid_march_eigenvalues(p, kind, range(-20, 21))
        assert np.max(np.abs(ev - ref)) < 1e-10

    def test_search_steps_independent_of_grid(self, monkeypatch):
        # the search marches the same step counts whatever the output grid;
        # every table of a march has its step h = L / steps, and L = 1 here
        steps = []
        real = spectral.step_tables

        def counted(c, lams, h, blocks):
            for rows, P in real(c, lams, h, blocks):
                steps.append((len(P), round(1.0 / h)))
                yield rows, P

        monkeypatch.setattr(spectral, "step_tables", counted)
        evs, runs = [], []
        for nx in (2049, 4097):
            steps.clear()
            p = Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=3, grid_points=nx)
            evs.append(find_eigenvalues(p, BcKind.DAMPED, range(-3, 4)))
            runs.append(list(steps))
        assert runs[0] == runs[1]
        assert {n for _, n in runs[0]} == {64, 128}
        assert all(rows == n for rows, n in runs[0])
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
        # bit the |n| <= 12 rows of the N=20 family, and so are its moments
        p = Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=20, grid_points=257)
        small, big = build_basis(p, kind, 12), build_basis(p, kind, 20)
        rows = slice(big.index(-12), big.index(12) + 1)
        for name in ("eigenvalues", "values", "dual_values", "bc_residuals", "ode_residuals"):
            a, b = getattr(small, name), getattr(big, name)
            assert (a is None and b is None) or np.array_equal(a, b[rows]), name
        assert (small.moments is None) == (big.moments is None) == (kind is BcKind.DAMPED)
        for name in ("at_0", "at_L", "profile") if small.moments else ():
            assert np.array_equal(getattr(small.moments, name), getattr(big.moments, name)[rows]), name

    @pytest.mark.parametrize("build", ["conservative", "damped", "w_modes"])
    def test_footprint_is_the_family_plus_scratch(self, build):
        # the traced peak of a build stays within 1.5x the bytes it returns
        p = Params(gamma=0.03, mu=2.0, nu=0.5, n_modes=20, grid_points=8193)
        basis = build_basis(p, BcKind.CONSERVATIVE) if build == "w_modes" else None
        tracemalloc.start()
        try:
            if build == "w_modes":
                modes = w_modes(p, basis)
                returned = modes.psi.nbytes + modes.chi.nbytes
            else:
                built = build_basis(p, BcKind(build))
                returned = built.values.nbytes + (0 if built.dual_values is None else built.dual_values.nbytes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * returned, peak / returned

    def test_footprint_at_the_pinned_point(self):
        # N = 41, nx = 4097: the search peaks at 3 MB at most, a conservative build
        # holds its 10.4 MiB family plus at most 0.3 of it in scratch, and a build
        # without samples peaks at 4 MiB at most
        p = Params(gamma=0.03, mu=2.0, nu=0.5, n_modes=41, grid_points=4097)
        tracemalloc.start()
        try:
            find_eigenvalues(p, BcKind.CONSERVATIVE, range(-41, 42))
            search_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            built = build_basis(p, BcKind.CONSERVATIVE)
            build_peak = tracemalloc.get_traced_memory()[1]
            family = built.values.nbytes
            del built
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            build_basis(p, BcKind.CONSERVATIVE, samples=False)
            lean_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert search_peak <= 3e6, search_peak
        assert build_peak <= 1.3 * family, build_peak / family
        assert lean_peak <= 4 * 2**20, lean_peak

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
        for samples in (True, False):
            with pytest.raises(NumericalError, match="orthonormality failure .*raise grid_points"):
                build_basis(p, BcKind.CONSERVATIVE, 8, samples=samples)

    def test_sample_readers_refuse_a_basis_without_samples(self):
        from watertank.backstepping import dirichlet_sum
        from watertank.feedback import virtual_profile

        p = Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=4, grid_points=257)
        lean = build_basis(p, BcKind.CONSERVATIVE, samples=False)
        assert lean.values is None and lean.moments is not None and lean.gram_deviation < 1e-6
        readers = [lambda: lean.samples(), lambda: w_modes(p, lean),
                   lambda: kato_psi(p, lean, 1), lambda: virtual_profile(p, lean),
                   lambda: dirichlet_sum(lean, np.ones((2, p.grid_points)))]
        for read in readers:
            with pytest.raises(ValueError, match="built with samples=False"):
                read()

    def test_more_modes_than_samples_refused_before_shooting(self, monkeypatch):
        monkeypatch.setattr(spectral, "find_eigenvalues", None)  # a search would raise TypeError
        p = Params(gamma=0.03, n_modes=9, grid_points=17)
        with pytest.raises(NumericalError, match=r"n_modes = 9 needs grid_points >= 2 n_modes \+ 1 = 19"):
            build_basis(p, BcKind.CONSERVATIVE)

    @pytest.mark.parametrize("K", [1, 2, 8, 9, 16, 17, 41, 83])
    def test_mode_blocks(self, K):
        # whole blocks from multiples of _MODE_ROWS; a lone last row joins the block before it
        blocks = spectral._row_blocks(K)
        assert [b.start for b in blocks] == list(range(0, K, spectral._MODE_ROWS))[:len(blocks)]
        assert np.array_equal(np.concatenate([np.arange(K)[b] for b in blocks]), np.arange(K))
        assert all(b.stop - b.start > 1 for b in blocks) or K == 1

    def test_gamma0_gram_identity(self, p_gamma0, basis_cache):
        basis = basis_cache(p_gamma0, BcKind.CONSERVATIVE, 10)
        G = gram_matrix(basis.values, basis.values, basis.grid)
        assert np.max(np.abs(G - np.eye(21))) < 1e-12

    def test_perturbed_gram_identity(self, p_std, basis_cache):
        basis = basis_cache(p_std, BcKind.CONSERVATIVE, 20)
        G = gram_matrix(basis.values, basis.values, basis.grid)
        assert np.max(np.abs(G - np.eye(41))) < 1e-6
        # the build's own check, on the Gram its store pass summed, kept the same deviation
        assert abs(basis.gram_deviation - np.max(np.abs(G - np.eye(41)))) <= 1e-14

    def test_gram_bound_at_gamma_point1(self, basis_cache):
        # orthonormality deviation < 1e-6 holds up to gamma = 0.1
        p = Params(gamma=0.1, mu=2.0, nu=0.5, n_modes=10, grid_points=2049)
        basis = basis_cache(p, BcKind.CONSERVATIVE, 10)
        G = gram_matrix(basis.values, basis.values, basis.grid)
        assert np.max(np.abs(G - np.eye(21))) < 1e-6

    def test_biorthonormality_bound_refuses_just_past_it(self):
        # at nx = 67 the damped family's cross-Gram deviates by 3.83e-6 at gamma 0.02, mu 3.2
        # and by 8.4e-7 at gamma 0.05, mu 2: the 1e-6 bound refuses the one, takes the other
        p = Params(gamma=0.02, mu=3.2, nu=0.5, n_modes=10, grid_points=67)
        with pytest.raises(NumericalError, match=r"biorthonormality failure at \(10, -10\): 3\.83e-06"):
            build_basis(p, BcKind.DAMPED)
        basis = build_basis(Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=10, grid_points=67), BcKind.DAMPED)
        assert 5e-7 < basis.gram_deviation < 1e-6

    def test_damped_biorthonormal(self, p_std, basis_cache):
        basis = basis_cache(p_std, BcKind.DAMPED, 10)
        G = gram_matrix(basis.values, basis.dual_values, basis.grid)
        assert np.max(np.abs(G - np.eye(21))) < 1e-6
        assert basis.gram_deviation == np.max(np.abs(G - np.eye(21)))

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
        f10 = basis.values[:, 0, 0]
        assert np.max(np.abs(f10.imag)) < 1e-12
        assert np.all(f10.real > 0)

    def test_eigenvalue_pairing(self, p_std, basis_cache):
        basis = basis_cache(p_std, BcKind.CONSERVATIVE, 20)
        for n in (1, 5, 20):
            mu_p = basis.eigenvalues[basis.index(n)]
            mu_m = basis.eigenvalues[basis.index(-n)]
            assert abs(mu_m + mu_p) < 1e-10
            assert abs(mu_m - np.conj(mu_p)) < 1e-10

    def test_damped_conjugate_pairing(self, p_std, basis_cache):
        basis = basis_cache(p_std, BcKind.DAMPED, 10)
        for n in (1, 6):
            ev = basis.eigenvalues
            assert abs(ev[basis.index(-n)] - np.conj(ev[basis.index(n)])) < 1e-9

    def test_damped_real_part_band(self, p_std, basis_cache):
        basis = basis_cache(p_std, BcKind.DAMPED, 20)
        dev = np.max(np.abs(basis.eigenvalues.real - p_std.mu))
        assert dev < 0.1 * p_std.mu

    def test_boundary_value_uniformity(self, p_std, basis_cache):
        basis = basis_cache(p_std, BcKind.CONSERVATIVE, 20)
        m = float(np.min(np.abs(basis.values[:, 0, 0])))
        M = float(np.max(np.abs(basis.values[:, 0, 0])))
        assert 0.5 < m <= M < 2.0
        bd = basis_cache(p_std, BcKind.DAMPED, 10)
        phi0 = np.abs(bd.dual_values[:, 0, 0])
        assert 0.5 < phi0.min() <= phi0.max() < 2.0

    @pytest.mark.parametrize("kind", list(BcKind))
    def test_reference_modes_of_an_array_of_n(self, kind, p_std):
        # one call on an array of n gives the rows of the single calls bit for bit
        n_list = np.arange(-9, 10)
        refs = reference_mode(p_std, kind, n_list)
        assert refs.shape == (n_list.size, 2, p_std.grid_points)
        assert np.array_equal(refs, np.stack([reference_mode(p_std, kind, int(n)) for n in n_list]))
        assert np.array_equal(refs[3:11], reference_mode(p_std, kind, n_list[3:11], uniform_grid(p_std)))

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

    @pytest.mark.parametrize("n", [0, 1, -4, 7])
    def test_series_coefficients_match_overlap(self, n):
        # the vectorized closed form gives each pair's scalar overlap coefficient
        p = Params(gamma=0.05, mu=2.0, nu=0.5, grid_points=129)
        ks, coefs = _kato_series(p, n, 300)
        assert ks.tolist() == [k for k in range(n - 300, n + 301) if k != n]
        ref = np.array([(3.0 * p.L / 4.0) * j0_overlap(n, k) / (1j * math.pi * (k - n)) for k in ks])
        assert np.array_equal(coefs == 0, ref == 0)
        np.testing.assert_allclose(coefs, ref, rtol=1e-15, atol=0)

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
