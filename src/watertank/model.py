"""Physical model, steady states, coordinate changes, and basic functionals.

The pipeline works in three coordinate systems on [0, L]:

* physical ``(h, v)``: height/velocity perturbations around the accelerated
  steady state ``H(x) = 1 - gamma*(x - L/2)`` (g is normalized to 1);
* ``w``: Riemann invariants after diagonalizing the transport matrix and
  rescaling space/time so both speeds are 1 (coupling matrix has nonzero
  diagonal);
* ``zeta``: the ``w`` variables multiplied by ``exp(int_0^x delta)``, which
  removes the diagonal coupling (coupling matrix J is antidiagonal).

All closed forms below are written in algebraically stable form so that
``gamma -> 0`` needs no special casing (no 0/0 is ever evaluated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from watertank.errors import ConfigError, DomainError, GridMismatchError

__all__ = [
    "Params",
    "uniform_grid",
    "simpson_weights",
    "steady_state_height",
    "l_gamma",
    "delta",
    "diagonal_weight",
    "height_root_profile",
    "z_of_x",
    "zeta_to_physical",
    "mode_masses",
    "gamma_s_threshold",
    "LAW_KEYS",
]


@dataclass(frozen=True)
class Params:
    """Physical and numerical configuration.

    Parameters
    ----------
    L : float
        Tank length (default 1).
    gamma : float
        Steady tank acceleration. Positive for synthesis; 0 is allowed for
        the uncontrollability diagnostics. ``|gamma|*L/2 < 1`` is required
        so the steady height stays positive.
    mu : float
        Internal decay / boundary damping parameter of the target system.
    nu : float
        Virtual-control weight, ``0 < |nu| < 1``.
    n_modes : int
        Spectral truncation N (modes ``-N..N`` are used).
    grid_points : int
        Spatial samples on [0, L], endpoints included. Must be odd (>= 17)
        so composite Simpson applies.
    t_final : float
        Simulation horizon.
    """

    L: float = 1.0
    gamma: float = 0.03
    mu: float = 2.0
    nu: float = 0.5
    n_modes: int = 20
    grid_points: int = 2049
    t_final: float = 10.0

    def __post_init__(self):
        for name in ("L", "gamma", "mu", "nu", "t_final"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.L <= 0:
            raise ConfigError("L must be positive")
        if abs(self.gamma) * self.L / 2 >= 1:
            raise ConfigError("|gamma|*L/2 must be < 1 (steady height positive)")
        if self.mu <= 0:
            raise ConfigError("mu must be positive")
        if not 0 < abs(self.nu) < 1:
            raise ConfigError("nu must satisfy 0 < |nu| < 1")
        if self.n_modes < 1:
            raise ConfigError("n_modes must be >= 1")
        if self.grid_points < 17 or self.grid_points % 2 == 0:
            raise ConfigError("grid_points must be odd and >= 17 (composite Simpson)")
        if self.t_final <= 0:
            raise ConfigError("t_final must be positive")


LAW_KEYS = ("L", "gamma", "mu", "nu", "n_modes", "grid_points")  # the Params a law is built at


def uniform_grid(params: Params) -> np.ndarray:
    """The x-grid of every sampled function; a function is a (2, nx) array on it."""
    return np.linspace(0.0, params.L, params.grid_points)


def _sampled(params: Params, values, what: str) -> np.ndarray:
    """``values`` as a (2, nx) array on the params grid, or GridMismatchError."""
    values = np.asarray(values)
    if values.shape != (2, params.grid_points):
        raise GridMismatchError(f"{what} shape {values.shape} is not (2, {params.grid_points})")
    return values


def simpson_weights(grid: np.ndarray) -> np.ndarray:
    """Composite-Simpson quadrature weights for a uniform odd-size grid."""
    n = grid.size
    if n % 2 == 0 or n < 3:
        raise ConfigError("Simpson weights need an odd number of points >= 3")
    h = grid[1] - grid[0]
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def _check_x(params: Params, x):
    x = np.asarray(x, dtype=float)
    if np.any(x < -1e-14) or np.any(x > params.L + 1e-14):
        raise DomainError(f"position outside [0, {params.L}]")
    return x


def steady_state_height(params: Params, x):
    """Steady height ``H(x) = 1 - gamma*(x - L/2)``; integrates to L."""
    x = _check_x(params, x)
    return 1.0 - params.gamma * (x - params.L / 2.0)


def l_gamma(params: Params) -> float:
    """Rescaled domain length after the space change of variables.

    Equals ``(2/gamma)*(sqrt(1+gamma L/2) - sqrt(1-gamma L/2))``, evaluated
    in the stable form ``2L/(sqrt(1+gamma L/2)+sqrt(1-gamma L/2))`` which is
    even in gamma and tends to L as gamma -> 0. ``L_gamma = L + O(gamma^2)``.
    """
    u = params.gamma * params.L / 2.0
    return 2.0 * params.L / (math.sqrt(1.0 + u) + math.sqrt(1.0 - u))


def height_root_profile(params: Params, z):
    """The profile ``W(z) = sqrt(1+gamma L/2) - (gamma/2)(L_gamma/L) z``.

    ``W(z)^2`` is the steady height seen through the space map, ``W^(3/2)``
    is the diagonalizing weight, ``W^(-1)`` and ``W^2`` are the explicit
    zero modes of the w-system and its adjoint.
    """
    z = _check_x(params, z)
    lg = l_gamma(params)
    w = math.sqrt(1.0 + params.gamma * params.L / 2.0) - (
        params.gamma / 2.0
    ) * (lg / params.L) * z
    return w


def delta(params: Params, x):
    """Coupling coefficient of the scaled system; negative for gamma > 0.

    ``delta(x) = -(3 L_gamma/(4L)) * gamma / W(x)`` with W the height-root
    profile. Smooth on [0, L]; identically 0 at gamma = 0.
    """
    w = height_root_profile(params, x)
    lg = l_gamma(params)
    return -(3.0 * lg / (4.0 * params.L)) * params.gamma / w


def diagonal_weight(params: Params, x):
    """``exp(int_0^x delta) = (W(x)/W(0))^(3/2)`` exactly; 1 at x = 0."""
    w = height_root_profile(params, x)
    w0 = math.sqrt(1.0 + params.gamma * params.L / 2.0)
    return (w / w0) ** 1.5


def z_of_x(params: Params, x):
    """Scaled coordinate z in [0, L] of a physical position x.

    Stable form of ``(L/L_gamma)*(2/gamma)*(sqrt(1+gamma L/2)-sqrt(H(x)))``.
    """
    x = _check_x(params, x)
    lg = l_gamma(params)
    h = steady_state_height(params, x)
    y = 2.0 * x / (math.sqrt(1.0 + params.gamma * params.L / 2.0) + np.sqrt(h))
    return (params.L / lg) * y


def _resample(values, src_grid, dst_points):
    """Monotone cubic (PCHIP) resampling of complex samples."""
    # imported here: no CLI path resamples, so the CLI never pays for this import
    from scipy.interpolate import PchipInterpolator

    if np.iscomplexobj(values):
        re = PchipInterpolator(src_grid, values.real)(dst_points)
        im = PchipInterpolator(src_grid, values.imag)(dst_points)
        return re + 1j * im
    return PchipInterpolator(src_grid, values)(dst_points)


def zeta_to_physical(params: Params, zeta):
    """Map zeta on the z-grid to physical perturbations (h, v) on the x-grid.

    Divides by ``exp(int_0^x delta)``, resamples through the space map z(x)
    (monotone cubic) and inverts the Riemann diagonalization
    ``xi = S(x) (h, v)``, ``S = [[H^(-1/2), 1], [-H^(-1/2), 1]]``.
    """
    zeta = _sampled(params, zeta, "zeta")
    grid = uniform_grid(params)
    ew = diagonal_weight(params, grid)
    w1 = zeta[0] / ew
    w2 = zeta[1] / ew
    zq = np.clip(z_of_x(params, grid), 0.0, params.L)
    xi1 = _resample(w1, grid, zq)
    xi2 = _resample(w2, grid, zq)
    sqh = np.sqrt(steady_state_height(params, grid))
    h = 0.5 * sqh * (xi1 - xi2)
    v = 0.5 * (xi1 + xi2)
    return h, v


def mode_masses(params: Params, values) -> np.ndarray:
    """The conserved mass ``int W(x)^2 (w1 - w2) dx`` of each mode's w-function ``values``.

    Mass is constant along every trajectory of the w/zeta systems, whatever
    the control (the "missing direction"); the immaterial L/L_gamma prefactor
    is dropped. It is linear, so this is one contraction of both components
    against the weight ``simpson * W^2``.
    """
    grid = uniform_grid(params)
    q = simpson_weights(grid) * height_root_profile(params, grid) ** 2
    return values[:, 0, :] @ q - values[:, 1, :] @ q


def gamma_s_threshold(params: Params, lam: float) -> float:
    """Feasibility threshold gamma_s(lambda) for the Lyapunov certificate.

    ``min(7/(16L), 6 lambda (1 - e^{-2(mu-lambda)L}) / (e^{2 lambda L}-1))``
    with the free position in the second bound taken at x = L (worst case).
    Decreasing in lambda on (0, mu). The second bound is evaluated times
    ``e^{-2 lambda L}`` above and below, so no exponential can overflow.
    """
    if not 0 < lam < params.mu:
        raise DomainError("lambda must lie in (0, mu)")
    L = params.L
    second = (
        6.0 * lam * math.exp(-2.0 * lam * L) * math.expm1(-2.0 * (params.mu - lam) * L)
        / math.expm1(-2.0 * lam * L)
    )
    return min(7.0 / (16.0 * L), second)
