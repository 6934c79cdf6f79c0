import math

import numpy as np
import pytest

from watertank.errors import ConfigError, DomainError, GridMismatchError
from watertank.model import (
    Params,
    _check_x,
    _resample,
    _sampled,
    delta,
    diagonal_weight,
    height_root_profile,
    l_gamma,
    simpson_weights,
    steady_state_height,
    uniform_grid,
    zeta_to_physical,
)
from watertank.spectral import pairings


def mass_functional(params: Params, w) -> complex:
    """Conserved mass seen in the w-coordinates: ``int W(x)^2 (w1 - w2) dx``.

    The reference quadrature, one function at a time, that the recorded mass
    (``model.mode_masses`` contracted with the coefficients) is checked against.
    """
    w = _sampled(params, w, "w")
    grid = uniform_grid(params)
    weight = height_root_profile(params, grid) ** 2
    sw = simpson_weights(grid)
    return complex(np.sum(sw * weight * (w[0] - w[1])))


def exp_weight(params: Params, x):
    """The diagonalizing weight in the closed form ``W(x)^(3/2)``.

    Note this equals ``W(0)^(3/2) * exp(int_0^x delta)``: the closed form
    carries the constant gauge ``W(0)^(3/2) = (1 + gamma L/2)^(3/4)`` at
    x = 0 (a constant rescaling of the diagonal change of variables, which
    is immaterial for the dynamics). See :func:`diagonal_weight` for the
    ungauged exponential used by the coordinate maps and control profile.
    """
    return height_root_profile(params, x) ** 1.5


def x_of_z(params: Params, z):
    """Inverse of ``model.z_of_x``, in closed form (no iteration).

    ``x = (L_gamma/L) z sqrt(1+gamma L/2) - gamma L_gamma^2 z^2 / (4 L^2)``.
    """
    z = _check_x(params, z)
    lg = l_gamma(params)
    a = math.sqrt(1.0 + params.gamma * params.L / 2.0)
    x = (lg / params.L) * z * a - params.gamma * lg * lg * z * z / (4.0 * params.L**2)
    return x


def physical_to_zeta(params: Params, h, v) -> np.ndarray:
    """Map physical perturbations (h, v) on the x-grid to zeta on the z-grid.

    The reference inverse of ``model.zeta_to_physical``. Applies the Riemann diagonalization ``xi = S(x) (h, v)`` with
    ``S = [[H^(-1/2), 1], [-H^(-1/2), 1]]``, resamples through the space map
    x(z) (monotone cubic), and multiplies by ``exp(int_0^x delta)``.
    """
    grid = uniform_grid(params)
    h = np.asarray(h)
    v = np.asarray(v)
    if h.shape != grid.shape or v.shape != grid.shape:
        raise GridMismatchError("h, v must be sampled on the params grid")
    s = 1.0 / np.sqrt(steady_state_height(params, grid))
    xi1 = s * h + v
    xi2 = -s * h + v
    xq = x_of_z(params, grid)
    # x(z) in [0, L] analytically; clamp rounding spill at the endpoints
    xq = np.clip(xq, 0.0, params.L)
    w1 = _resample(xi1, grid, xq)
    w2 = _resample(xi2, grid, xq)
    ew = diagonal_weight(params, grid)
    return np.stack([ew * w1, ew * w2])


def inner_product(f, g, grid) -> complex:
    """The 1/(2L)-weighted product of two (2, nx) functions, through ``pairings``."""
    return complex(pairings(f, g, grid))


def test_params_validation():
    with pytest.raises(ConfigError):
        Params(L=-1.0)
    with pytest.raises(ConfigError):
        Params(gamma=2.5)  # |gamma| L/2 >= 1
    with pytest.raises(ConfigError):
        Params(nu=0.0)
    with pytest.raises(ConfigError):
        Params(nu=1.5)
    with pytest.raises(ConfigError):
        Params(grid_points=2048)  # even
    with pytest.raises(ConfigError):
        Params(n_modes=0)


class TestSteadyState:
    def test_unperturbed(self):
        p = Params(gamma=0.0)
        assert steady_state_height(p, 0.3) == 1.0

    def test_left_endpoint(self):
        p = Params(gamma=0.1, L=1.0)
        assert steady_state_height(p, 0.0) == pytest.approx(1.05, abs=1e-15)

    def test_midpoint(self):
        p = Params(gamma=0.1, L=1.0)
        assert steady_state_height(p, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_mass_normalized(self):
        # int_0^L H = L analytically; Simpson reproduces it to rounding
        p = Params(gamma=0.08, grid_points=257)
        g = uniform_grid(p)
        val = np.sum(simpson_weights(g) * steady_state_height(p, g))
        assert val == pytest.approx(p.L, abs=1e-13)

    def test_domain_error(self):
        p = Params()
        with pytest.raises(DomainError):
            steady_state_height(p, 1.5)


class TestLGamma:
    def test_limit(self):
        assert l_gamma(Params(gamma=0.0, L=1.0)) == 1.0

    def test_near_L(self):
        # |L_gamma - L| <= gamma^2 L^3 / 8 (actual constant is L^3/32)
        p = Params(gamma=0.1, L=1.0)
        assert abs(l_gamma(p) - 1.0) <= 0.1**2 / 8.0

    def test_even_in_gamma(self):
        a = l_gamma(Params(gamma=0.07))
        b = l_gamma(Params(gamma=-0.07))
        assert a == pytest.approx(b, abs=0.0)


class TestDelta:
    def test_zero_at_gamma0(self):
        p = Params(gamma=0.0, grid_points=257)
        assert np.all(delta(p, uniform_grid(p)) == 0.0)

    def test_negative_for_positive_gamma(self):
        p = Params(gamma=0.05, grid_points=257)
        assert np.all(delta(p, uniform_grid(p)) < 0)

    def test_second_order_expansion(self):
        # second-order expansion of the closed form:
        # delta = -(3/4) gamma (1 + (gamma/2)(x - L/2)) + O(gamma^3).
        # (The published expansion carries a sign typo on the L/2 term: with
        # +L/2 the residual is exactly (3/8) gamma^2 L, i.e. second order.)
        ratios = []
        for g in (0.02, 0.04, 0.08):
            p = Params(gamma=g, grid_points=513)
            x = uniform_grid(p)
            model = -(3.0 / 4.0) * g * (1.0 + (g / 2.0) * (x - p.L / 2.0))
            resid = float(np.max(np.abs(delta(p, x) - model)))
            ratios.append(resid / g**3)
        ratios = np.array(ratios)
        # cubic order: fitted C stable within a factor 2 across a 4x gamma span
        assert ratios.max() / ratios.min() < 2.0

    def test_monotone_magnitude(self):
        p = Params(gamma=0.05, grid_points=1025)
        d = np.abs(delta(p, uniform_grid(p)))
        assert np.all(np.diff(d) > 0)


class TestExpWeight:
    def test_unity_at_gamma0(self):
        p = Params(gamma=0.0, grid_points=257)
        assert np.allclose(exp_weight(p, uniform_grid(p)), 1.0, atol=0.0)

    def test_endpoint_value(self):
        p = Params(gamma=0.05, L=1.0)
        expect = (1.0 + 0.05 / 2.0) ** 0.75
        assert float(exp_weight(p, 0.0)) == pytest.approx(expect, abs=1e-15)

    @pytest.mark.parametrize("gamma", [0.05, 0.2])
    def test_quadrature_consistency(self, gamma):
        # exp_weight = W(0)^(3/2) * exp(int delta): the closed form carries the
        # constant gauge; diagonal_weight is the ungauged exponential
        p = Params(gamma=gamma, grid_points=2049)
        x = uniform_grid(p)
        h = x[1] - x[0]
        # cumulative integral of delta by per-cell Simpson (independent oracle)
        xs = np.linspace(0, p.L, 2 * (x.size - 1) + 1)
        ds = delta(p, xs)
        seg = (ds[:-2:2] + 4 * ds[1::2] + ds[2::2]) * (h / 6.0)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        w0 = (1.0 + gamma * p.L / 2.0) ** 0.75
        assert np.max(np.abs(exp_weight(p, x) - w0 * np.exp(cum))) < 1e-10
        assert np.max(np.abs(diagonal_weight(p, x) - np.exp(cum))) < 1e-10


class TestCoordinateMaps:
    def test_gamma0_identity(self):
        p = Params(gamma=0.0, grid_points=513)
        g = uniform_grid(p)
        h = np.cos(2 * np.pi * g / p.L)
        v = np.sin(np.pi * g / p.L) * g * (p.L - g)
        zeta = physical_to_zeta(p, h, v)
        assert np.allclose(zeta[0], h + v, atol=1e-12)
        assert np.allclose(zeta[1], -h + v, atol=1e-12)

    def test_round_trip(self):
        # monotone cubic flattens derivatives at interior data extrema
        # (O(h^2) locally), so the 1e-8 identity needs the finer grid; the
        # default resolution is checked at the practical 1e-6 level.
        p = Params(gamma=0.05, grid_points=32769)
        g = uniform_grid(p)
        h = np.cos(2 * np.pi * g / p.L) - 0.1
        v = np.sin(np.pi * g / p.L) * g * (p.L - g)
        zeta = physical_to_zeta(p, h, v)
        h2, v2 = zeta_to_physical(p, zeta)
        assert np.max(np.abs(h2 - h)) < 1e-8
        assert np.max(np.abs(v2 - v)) < 1e-8

    def test_round_trip_default_grid(self):
        p = Params(gamma=0.05, grid_points=2049)
        g = uniform_grid(p)
        h = np.cos(2 * np.pi * g / p.L) - 0.1
        v = np.sin(np.pi * g / p.L) * g * (p.L - g)
        zeta = physical_to_zeta(p, h, v)
        h2, v2 = zeta_to_physical(p, zeta)
        assert np.max(np.abs(h2 - h)) < 1e-6
        assert np.max(np.abs(v2 - v)) < 1e-6

    def test_boundary_preservation(self):
        p = Params(gamma=0.04, grid_points=513)
        g = uniform_grid(p)
        h = np.cos(np.pi * g / p.L)
        v = np.sin(np.pi * g / p.L)  # v(0) = v(L) = 0
        zeta = physical_to_zeta(p, h, v)
        assert abs(zeta[0, 0] + zeta[1, 0]) < 1e-12


class TestInnerProduct:
    def _mode(self, p, n):
        g = uniform_grid(p)
        up = np.exp(1j * np.pi * n * g / p.L)
        return np.stack([up, -1.0 / up])

    def test_normalized(self):
        p = Params(grid_points=257)
        e1 = self._mode(p, 1)
        assert inner_product(e1, e1, uniform_grid(p)) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal(self):
        p = Params(grid_points=257)
        assert abs(inner_product(self._mode(p, 1), self._mode(p, 2), uniform_grid(p))) < 1e-12

    def test_conjugate_symmetry(self):
        p = Params(grid_points=257)
        g = uniform_grid(p)
        rng = np.random.default_rng(0)
        f = rng.standard_normal((2, g.size)) + 1j * rng.standard_normal((2, g.size))
        h = rng.standard_normal((2, g.size)) + 1j * rng.standard_normal((2, g.size))
        assert inner_product(f, h, g) == pytest.approx(
            np.conj(inner_product(h, f, g)), abs=1e-12
        )

    def test_grid_mismatch(self):
        p1 = Params(grid_points=257)
        p2 = Params(grid_points=513)
        with pytest.raises(GridMismatchError):
            inner_product(self._mode(p1, 1), self._mode(p2, 1), uniform_grid(p1))

    def test_component_axis_mismatch(self):
        g = uniform_grid(Params(grid_points=257))
        with pytest.raises(GridMismatchError):
            inner_product(np.ones((3, g.size)), np.ones((3, g.size)), g)


class TestMassFunctional:
    def test_equal_components(self):
        p = Params(gamma=0.05, grid_points=257)
        g = uniform_grid(p)
        w = np.stack([np.sin(g), np.sin(g)])
        assert abs(mass_functional(p, w)) < 1e-14

    def test_gamma0_reduction(self):
        p = Params(gamma=0.0, grid_points=513)
        g = uniform_grid(p)
        w1 = np.cos(np.pi * g / p.L) ** 2
        w2 = np.sin(np.pi * g / p.L)
        w = np.stack([w1, w2])
        plain = np.sum(simpson_weights(g) * (w1 - w2))
        assert mass_functional(p, w) == pytest.approx(plain, abs=1e-14)

    @pytest.mark.parametrize("shape", [(2, 513), (3, 257)])
    def test_off_grid_rejected(self, shape):
        p = Params(gamma=0.05, grid_points=257)
        with pytest.raises(GridMismatchError):
            mass_functional(p, np.ones(shape))
        with pytest.raises(GridMismatchError):
            zeta_to_physical(p, np.ones(shape))

    def test_invariance_under_control(self, wmodes_cache, p_std):
        # mass is conserved along the w-system for ANY control
        from watertank.control import ControlSignal
        from watertank.simulate import integrate_open_loop_w

        modes = wmodes_cache(p_std, 20)
        t = np.linspace(0.0, 2 * p_std.L, 513)
        # 0.4 sin 3t + 0.2i cos t as its four exponentials e^{r (t - T)}
        rates = np.array([3j, -3j, 1j, -1j])
        coefs = np.array([-0.2j, 0.2j, 0.1j, 0.1j])
        sig = ControlSignal(t=t, rates=rates, amplitudes=coefs * np.exp(rates * t[-1]))
        assert np.max(np.abs(sig.u - (0.4 * np.sin(3.0 * t) + 0.2j * np.cos(t)))) < 1e-14
        rng = np.random.default_rng(1)
        init = (rng.standard_normal(41) + 1j * rng.standard_normal(41)) / (
            1 + np.abs(np.arange(-20, 21))
        ) ** 2
        traj = integrate_open_loop_w(p_std, modes, sig, init,
                                     t_final=2 * p_std.L, dt=2e-3)
        assert np.max(np.abs(traj.mass - traj.mass[0])) < 1e-6
