"""Eigenstructure of the transport operators by shooting.

Two boundary-condition kinds are shot for the first-order system
``L f' + delta(x) J f = lambda f`` on [0, L] (``L = diag(1, -1)``,
``J = [[0, 1/3], [-1/3, 0]]``): conservative (reflection at both ends) and
damped (reflection coefficient ``-exp(-2 mu L)`` at x=0). The damped
adjoint family is not shot: the component swap ``S`` anticommutes with
``L`` and ``J``, so ``S conj(f_n)`` is an adjoint eigenfunction with
eigenvalue ``conj(mu_n)`` (:func:`adjoint_values`).

The integrator works on modulated variables ``g = (exp(-lambda x) f1,
exp(lambda x) f2)``, which removes the stiff oscillation, and marches them by
a fourth-order Filon–Magnus method (:func:`step_tables`, :func:`march`): each
step is the exponential of a traceless 2x2 exponent whose oscillatory
integrals are taken exactly against a quadratic interpolant of the coupling.
At gamma = 0 the march is exact to rounding.

The eigenvalue search runs on fixed 64- and 128-step marches, whatever the
grid, and returns their Richardson value ``b + (b - a)/15``. Only the store
pass of :func:`build_basis` marches on the grid, one step per cell, and its
residual checks that root. Every spectrum, this one and the closed loop's, is
found by :func:`secant`, which never counts a non-finite residual as
converged, and guarded by :func:`collision`. Every march over [0, L], that of
the Lyapunov weight of ``simulate.lyapunov_certificate`` at a real parameter
too, streams through :func:`shoot` one block of steps at a time.

Memory: a march computes once what no block's step table depends on and
builds its tables one block of steps at a time (:func:`step_tables`),
freeing each temporary as soon as it is used. The block layout is data the
caller chooses (:func:`shoot`), by default ``_BLOCK_STEPS`` = 128 steps. The
store pass lays the ODE check's coarse march out in blocks of
``_STORE_STEPS / 2`` = 32 steps and marches the grid on that layout doubled
(:func:`_store_blocks`), so on every grid each coarse block holds the even
nodes of one fine block. It streams each fine block into the (K, 2, nx)
family, if kept, and into the conservative family's per-mode sums
(:class:`_Sums`): the norms, the ``<I, f_n>`` and ``f_n(L)`` that a feedback
law reads, and the Gram of the orthonormality check. One real scale per
mode then normalizes the sums and the family in place. So a conservative
build holds its family plus a few blocks of scratch, each sized from the
layout it serves, or, with ``samples=False``, the scratch alone; a damped
build holds its family and duals, and pairs them, and the reference modes
that scale them, one block of mode rows at a time (:func:`pairings`,
:func:`gram_matrix`, :func:`reference_mode`). The search evaluates the
secant's two seed columns in two marches, not one twice as wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from watertank.errors import DomainError, GridMismatchError, NumericalError, RegimeError
from watertank.model import (
    Params,
    delta,
    diagonal_weight,
    simpson_weights,
    uniform_grid,
)

__all__ = [
    "BcKind",
    "ModeIndexed",
    "Basis",
    "WModes",
    "find_eigenvalues",
    "build_basis",
    "w_modes",
    "kato_psi",
    "first_order_perturbation",
    "reference_mode",
    "unperturbed_eigenvalues",
    "reflection",
    "adjoint_values",
    "gram_matrix",
    "pairings",
    "secant",
    "collision",
    "step_tables",
    "march",
    "shoot",
]


class BcKind(Enum):
    CONSERVATIVE = "conservative"
    DAMPED = "damped"


def reflection(kind: BcKind, params: Params) -> float:
    """Inflow law at x = 0, ``f1(0) = r f2(0)``: ``r = -1`` conservative, ``-e^{-2 mu L}`` damped."""
    return -1.0 if kind is BcKind.CONSERVATIVE else -math.exp(-2.0 * params.mu * params.L)


def _left_seed(kind: BcKind, params: Params) -> np.ndarray:
    if kind is BcKind.CONSERVATIVE:  # not [reflection, 1] = -[1, -1]: samples would print -0 for 0
        return np.array([1.0, -1.0], dtype=complex)
    return np.array([reflection(kind, params), 1.0], dtype=complex)


def unperturbed_eigenvalues(kind: BcKind, params: Params, n_list) -> np.ndarray:
    """The gamma = 0 eigenvalues ``i pi n/L``, plus ``mu`` if damped: root seeds and drift origin."""
    base = 1j * math.pi * np.asarray(n_list, dtype=float) / params.L
    return base if kind is BcKind.CONSERVATIVE else params.mu + base


_SEARCH_STEPS = 64  # Magnus steps of the coarse search march; the fine one takes twice as many
_BLOCK_STEPS = 128  # Magnus steps per block of a march's default layout: bounds its memory at any step count
_STORE_STEPS = 64  # grid steps per block of the store pass, which bounds its scratch (the last block: up to 2 more)
_SECANT_TOL = 1e-10  # secant step below which an eigenvalue counts as converged


def _filon_moments(z):
    """``M_k(z) = int_0^1 t^k e^{z t} dt`` for k = 0, 1, 2, stacked on a new first axis.

    The recurrence ``M_k = (e^z - k M_{k-1})/z`` cancels for small z, so below
    |z| = 1 (z = 0 included) the series ``sum_j z^j / (j! (j + k + 1))`` is used.
    """
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1.0
    zc = np.where(small, 1.0, z)
    e = np.exp(zc)
    m0 = np.expm1(zc) / zc
    m1 = (e - m0) / zc
    closed = np.stack([m0, m1, (e - 2.0 * m1) / zc])
    j = np.arange(20)  # the series remainder is below 1/20! < 1e-18
    terms = np.where(small, z, 0.0)[..., None] ** j / np.cumprod(np.maximum(j, 1.0))
    series = np.stack([np.sum(terms / (j + k + 1), axis=-1) for k in range(3)])
    return np.where(small, series, closed)


def _sinh_minus(z):
    """``(sinh z - z) / z^2``, by the series ``sum_j z^{2j+1} / (2j+3)!`` below |z| = 1."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1.0
    zc = np.where(small, 1.0, z)
    j = np.arange(10)  # the series remainder is below 1/23! < 1e-22
    zs = np.where(small, z, 0.0)[..., None]
    series = np.sum(zs ** (2 * j + 1) / np.cumprod(np.arange(1.0, 22.0))[2 * j + 2], axis=-1)
    return np.where(small, series, (np.sinh(zc) - zc) / zc**2)


# _SERIES_RADII[n]: below this |q| the first term the series through q^n omits,
# q^{n+1}/(2n+2)!, is under 2e-21, and all of them together under 3e-21
_SERIES_RADII = [(2e-21 * math.factorial(2 * n + 2)) ** (1 / (n + 1)) for n in range(5)]
_COSH_TERMS = [1 / math.factorial(2 * j) for j in range(6)]
_SINHC_TERMS = [1 / math.factorial(2 * j + 1) for j in range(6)]


def _series_terms(q_bound):
    """The fewest powers of q, at most 5, that :func:`_cosh_sinhc` needs while every |q| < ``q_bound``."""
    return next((n for n, r in enumerate(_SERIES_RADII) if q_bound < r), 5)


def _cosh_sinhc(q, terms):
    """``cosh(s)`` and ``sinh(s)/s`` at ``s^2 = q``; both are even in s.

    Below |q| = 0.01 (q = 0 included), where nearly every step lies, their
    Taylor series in q through q^terms, whose remainder is below 3e-21 when
    ``terms`` is :func:`_series_terms` of a bound on |q|; elsewhere the closed
    forms.
    """
    ch, sinhc = np.full_like(q, _COSH_TERMS[terms]), np.full_like(q, _SINHC_TERMS[terms])
    for j in reversed(range(terms)):  # Horner
        ch *= q
        ch += _COSH_TERMS[j]
        sinhc *= q
        sinhc += _SINHC_TERMS[j]
    far = ~(np.abs(q) < 0.01)  # nan lands here too
    if np.any(far):
        s = np.sqrt(q[far])
        ch[far], sinhc[far] = np.cosh(s), np.sinh(s) / s
    return ch, sinhc


def step_tables(c, lams, h, blocks):
    """Filon–Magnus step matrices of ``g' = [[0, c e^{-2 lam x}], [c e^{2 lam x}, 0]] g``, block by block.

    ``c`` is sampled at the step ends and midpoints of a whole march (2S + 1
    points, step ``h``; step k starts at ``x0 = k h``). Step k is ``exp(Omega1
    + Omega2)``. ``Omega1`` has the off-diagonal entries ``int c e^{-/+ 2 lam
    s} ds`` over the step, with c interpolated quadratically, ``c(x0 + t h) =
    sum a_j t^j``: ``alpha = (A m-) / E`` and ``beta = (A m+) E``, with ``m-/+
    = h M_j(-/+ 2 lam h)`` and ``E = e^{2 lam x0}``. ``Omega2 = diag(w, -w)``
    is the commutator term at the midpoint value of c. The exponent is
    traceless, so its exponential is ``cosh(s) I + (sinh(s)/s) Omega`` with
    ``s^2 = w^2 + alpha beta = w^2 + (A m-)(A m+)``.

    Once per march: ``a``, ``m-/+``, ``_sinh_minus(2 lam h)``, the factors
    ``e^{2 lam h j}`` and ``e^{2 lam h i _BLOCK_STEPS}`` whose product at ``j =
    k mod _BLOCK_STEPS``, ``i = k // _BLOCK_STEPS`` is E, and the series terms
    of :func:`_cosh_sinhc`, from a bound on |s^2| over the march. Per block,
    row by row: the products ``A m-/+`` and what follows from them. So a row
    depends only on its step, and a table equals its blocks bit for bit in
    any layout ``blocks``: slices of :func:`_row_blocks` over the S steps.

    Yields ``(rows, P)`` per block, ``P`` of shape (rows, 2, 2, K) in one
    buffer as long as the longest block: ``P[k, 0]`` holds the diagonal
    ``(P11, P22)`` of step k, ``P[k, 1]`` the off-diagonal ``(P12, P21)``.
    """
    lams = np.asarray(lams, dtype=complex)
    c = np.asarray(c, dtype=float)
    c0, cm, c1 = c[:-1:2], c[1::2], c[2::2]
    a = np.stack([c0, 4.0 * cm - 3.0 * c0 - c1, 2.0 * (c0 + c1) - 4.0 * cm], axis=1)
    z = 2.0 * h * lams
    m_minus, m_plus = np.split(h * _filon_moments(np.concatenate([-z, z])), 2, axis=1)
    sm = _sinh_minus(z)
    a_max = np.max(np.abs(a), axis=0)  # |A m| <= a_max @ |m| on every step
    q_bound = (h**2 * np.max(cm**2) * np.abs(sm)) ** 2 + (a_max @ abs(m_minus)) * (a_max @ abs(m_plus))
    terms = _series_terms(np.max(q_bound))
    nsteps = len(cm)
    e_local = np.exp(2.0 * h * np.outer(np.arange(min(_BLOCK_STEPS, nsteps)), lams))
    e_offset = np.exp(2.0 * h * np.outer(np.arange(0, nsteps, _BLOCK_STEPS), lams))
    # one table buffer for the march: a table allocated anew for each block lets the
    # allocator hand its pages back to the system and fault them in again for the next
    out = np.empty((_longest(blocks), 2, 2, lams.size), dtype=complex)
    for rows in blocks:
        P = out[:rows.stop - rows.start]
        # real (rows, 3) @ (3, 2K) products on the views of m as reals: the complex product, entry for entry
        am = np.matmul(a[rows], m_minus.view(float), out=P[:, 1, 0].view(float)).view(complex)
        ap = np.matmul(a[rows], m_plus.view(float), out=P[:, 1, 1].view(float)).view(complex)
        w = -((h * cm[rows, None]) ** 2) * sm
        q = w * w
        q += am * ap
        ch, sinhc = _cosh_sinhc(q, terms)
        del q
        w *= sinhc
        np.add(ch, w, out=P[:, 0, 0])
        np.subtract(ch, w, out=P[:, 0, 1])
        del w, ch  # each temporary goes as soon as it is used, before E's
        k = np.arange(rows.start, rows.stop)
        E = e_local[k % _BLOCK_STEPS] * e_offset[k // _BLOCK_STEPS]
        am /= E
        ap *= E
        del E
        am *= sinhc
        ap *= sinhc
        del sinhc  # none is held while the caller marches
        yield rows, P


def march(P, g, out):
    """March the (2, K) state ``g`` through the step matrices ``P`` of :func:`step_tables`.

    Each step is ``g <- P[k, 0] * g + P[k, 1] * g[::-1]``, four multiplies
    into two preallocated product buffers, and stores g in ``out[k]``, of
    shape (S, 2, K). Returns ``out``.
    """
    a, b = np.empty(P.shape[2:], dtype=P.dtype), np.empty(P.shape[2:], dtype=P.dtype)
    for diag, off, slot in zip(P[:, 0], P[:, 1], out):
        np.multiply(diag, g, out=a)
        np.multiply(off, g[::-1], out=b)
        g = np.add(a, b, out=slot)
    return out


def shoot(params: Params, lams, seed, nsteps, blocks=None):
    """March the modulated system over [0, L] from ``seed`` in ``nsteps`` Filon–Magnus steps.

    One march per entry of ``lams``, all from the left boundary values ``seed``
    (a 2-vector). Yields ``(s0, s1, states)`` per block of the layout
    ``blocks`` (:func:`step_tables`; by default ``_row_blocks(nsteps,
    _BLOCK_STEPS)``), ``states`` the node-major (s1 - s0, 2, K) states after
    steps s0 + 1..s1. What no block's step table depends on is computed once
    per march, so the states do not depend on the layout. Every block reuses
    one step-table buffer and one state block, each as long as the longest
    block, so a caller may change a block in place but must copy what it
    keeps past the next block.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    xs = np.linspace(0.0, params.L, 2 * nsteps + 1)  # step ends and midpoints
    c = -np.asarray(delta(params, xs)) / 3.0
    del xs
    blocks = _row_blocks(nsteps, _BLOCK_STEPS) if blocks is None else blocks
    block = np.empty((_longest(blocks), 2, lams.size), dtype=complex)  # node-major: a step writes one row
    g = np.tile(np.asarray(seed, dtype=complex)[:, None], lams.size)  # (2, K)
    for rows, P in step_tables(c, lams, params.L / nsteps, blocks):
        states = march(P, g, block[:len(P)])
        g = states[-1].copy()
        yield rows.start, rows.stop, states


def _residual(params: Params, lams, seed, nsteps):
    """Boundary residual ``f1(L) + f2(L)`` of the ``nsteps`` march, per entry of ``lams``."""
    *_, (_, _, states) = shoot(params, lams, seed, nsteps)
    eL = np.exp(lams * params.L)
    return states[-1, 0] * eL + states[-1, 1] / eL


class _Sums:
    """The sums over the grid that a conservative family's law and Gram check read, block by block.

    Of the raw samples ``f``, with Simpson weights w: ``norm2 = sum w
    |f_n|^2``, ``profile = sum w I conj(f_n)`` for the control profile ``I =
    e^{int delta} (1, 1)``, the raw Gram ``gram[i, j] = sum w f_i
    conj(f_j)``, and ``last = f(L)``. No mass and no ``<f_0, f_n>`` is
    summed: for n != 0 both are 0 in exact arithmetic, since f_0 alone spans
    the conserved mass (``feedback.feedback_coefficients``). Each
    per-mode sum is taken row by row (``np.einsum``, which calls no BLAS),
    along each block and then block after block, so it depends on its own
    mode's samples alone: the sums of a smaller family are rows of a larger
    one's, and conjugate modes have conjugate sums. Only the Gram, which the
    orthonormality check alone reads, is a BLAS product. A block is added
    one component at a time, through one buffer sized from the store layout.
    """

    def __init__(self, params: Params, K: int):
        grid = uniform_grid(params)
        self.w = simpson_weights(grid)
        self.w_profile = self.w * diagonal_weight(params, grid)
        self.norm2, self.gram = np.zeros(K), np.zeros((K, K), dtype=complex)
        self.profile = np.zeros(K, dtype=complex)
        self.last = np.empty((K, 2), dtype=complex)
        self._buf = np.empty((K, _longest(_store_blocks(params.grid_points - 1)[1])), dtype=complex)

    def add(self, nodes: slice, comp: int, f):
        """Add the samples ``f``, (K, r), of component ``comp`` at ``grid[nodes]``."""
        a = self._buf[:, :f.shape[-1]]
        np.multiply(np.conjugate(f, out=a), self.w[nodes], out=a)  # w conj(f)
        self.gram += f @ a.T
        self.norm2 += np.einsum("ij,ij->i", f, a).real
        self.profile += np.conj(np.einsum("ij,j->i", f, self.w_profile[nodes]))
        self.last[:, comp] = f[:, -1]


def _store_blocks(nsteps):
    """The store pass's layouts: the coarse march's and the fine march's, that one doubled.

    So on every grid fine block k's even nodes are coarse block k's. Where the
    coarse march's lone last step joins the block before it (``nsteps`` 2 mod
    64), the last fine block is ``_STORE_STEPS + 2`` steps long.
    """
    coarse = _row_blocks(nsteps // 2, _STORE_STEPS // 2)
    return coarse, [slice(2 * b.start, 2 * b.stop) for b in coarse]


def _store_pass(params: Params, lams, seed, samples=True, sums=None):
    """Sample the eigenfunctions at ``lams`` on the params grid, one march step per cell.

    Returns the boundary residuals ``|f1(L) + f2(L)| / max |f|``, the (K, 2, nx)
    samples (None unless ``samples``) and the ODE error ``max |f - f_coarse| /
    max |f|`` on the even grid nodes, against the march at two cells per step.
    The two marches go block beside block on the layouts of
    :func:`_store_blocks`, so each coarse block holds the even nodes of its
    fine block and the check is one subtraction per block. Each block
    :func:`shoot` yields is turned in place into f variables, ``f1 = e^{lam
    x} g1`` and ``f2 = e^{-lam x} g2`` (the coarse block with the factors of
    its fine block's even rows). Each component of a fine block is copied
    mode-major into one buffer, from which the samples, if kept, and
    ``sums`` (a :class:`_Sums`), if given, read it. So the pass holds the
    samples, if kept, and one block of each march, never a whole march.
    """
    nsteps = params.grid_points - 1
    grid = uniform_grid(params)
    K = lams.size
    seed = np.asarray(seed, dtype=complex)
    coarse_blocks, fine_blocks = _store_blocks(nsteps)
    vals = np.empty((K, 2, nsteps + 1), dtype=complex) if samples else None
    buf = np.empty((K, _longest(fine_blocks)), dtype=complex)

    def store(nodes, states):  # each component mode-major through buf, into the samples and the sums
        for comp in range(2):
            f = buf[:, :len(states)]
            f[...] = states[:, comp].T
            if samples:
                vals[:, comp, nodes] = f
            if sums:
                sums.add(nodes, comp, f)

    first = np.tile(seed[:, None], (1, 1, K))  # node-major: f = g at x = 0
    store(slice(0, 1), first)
    scale = np.max(np.abs(first), axis=(0, 1))
    ode_err = np.zeros(K)
    marches = zip(shoot(params, lams, seed, nsteps, fine_blocks),
                  shoot(params, lams, seed, nsteps // 2, coarse_blocks))
    for (s0, s1, states), (_, _, half) in marches:
        E = np.exp(np.outer(grid[s0 + 1:s1 + 1], lams))
        for g, e in ((states, E), (half, E[1::2])):  # rows 1, 3, ... sit at the even nodes s0 + 2, ..., s1
            g[:, 0] *= e
            g[:, 1] /= e
        scale = np.maximum(scale, np.max(np.abs(states), axis=(0, 1)))
        store(slice(s0 + 1, s1 + 1), states)
        diff = np.abs(np.subtract(half, states[1::2], out=half))
        ode_err = np.maximum(ode_err, np.max(diff, axis=(0, 1)))
    return np.abs(states[-1, 0] + states[-1, 1]) / scale, vals, ode_err / scale


def secant(f, z_prev, z_cur, tol, max_step=np.inf, max_iter=14):
    """Vectorized secant roots of ``f`` (residuals entry by entry) from ``(z_prev, z_cur)``.

    An entry whose ``z_prev`` residual is below 1e-13 stays there. ``tol``, a number
    or a function of the new points, bounds the step; ``max_step`` caps it. An entry
    converges when its step is below ``tol`` and its residual is finite. Returns the
    last iterates and the converged mask.
    """
    with np.errstate(all="ignore"):  # a diverging entry turns to nan; it never converges
        r_prev, r_cur = f(z_prev), f(z_cur)  # two calls: half the peak of one on both
        done = np.abs(r_prev) < 1e-13
        z_cur = np.where(done, z_prev, z_cur)
        r_cur = np.where(done, r_prev, r_cur)
        for _ in range(max_iter):
            dr = r_cur - r_prev
            safe = ~done & (dr != 0)
            step = np.where(safe, r_cur * (z_cur - z_prev) / np.where(safe, dr, 1.0), 0.0)
            big = np.abs(step) > max_step
            step = np.where(big, step * max_step / np.where(big, np.abs(step), 1.0), step)
            z_new = z_cur - step
            bound = tol(z_new) if callable(tol) else tol
            done = done | ((np.abs(z_new - z_cur) < bound) & np.isfinite(r_cur))
            if np.all(done):
                return z_new, done
            r_new = f(z_new)
            z_prev, r_prev = z_cur, r_cur
            z_cur, r_cur = z_new, np.where(done, r_cur, r_new)
    return z_cur, done


def collision(z):
    """Indices ``(i, j)``, ``i < j``, of the two closest entries of ``z``, every pair
    compared, if they lie within 1e-8; else None."""
    if len(z) < 2:
        return None
    d = np.abs(np.subtract.outer(z, z)) + np.diag(np.full(len(z), np.inf))
    i, j = np.unravel_index(np.argmin(d), d.shape)
    return (int(i), int(j)) if d[i, j] < 1e-8 else None


def find_eigenvalues(params: Params, kind: BcKind, n_range):
    """Operator eigenvalues for the requested mode indices.

    Secant refinement in the complex plane from the unperturbed eigenvalues
    (``i pi n / L``, plus ``mu`` if damped) on the 64- and 128-step Magnus
    marches, Richardson-extrapolated. Raises NumericalError on non-convergence or root collision,
    and RegimeError when a root, or the last iterate of a search that failed,
    drifts more than 1/(2L) from its seed.
    """
    n_list = np.asarray(list(n_range), dtype=int)
    lam0 = unperturbed_eigenvalues(kind, params, n_list)
    seed = _left_seed(kind, params)

    def drift_guard(lam, among):
        bad = among & (np.abs(lam - lam0) > 0.5 / params.L)
        if np.any(bad):
            raise RegimeError(f"eigenvalue drift exceeds 1/(2L) for n in {n_list[bad].tolist()}; "
                              "gamma outside the perturbative regime")

    def search(lam_prev, lam_cur, nsteps):  # the step cap is a trust region: roots sit within 1/(2L) of seeds
        lam, ok = secant(lambda lam: _residual(params, lam, seed, nsteps), lam_prev, lam_cur,
                         _SECANT_TOL, max_step=0.3 / params.L)
        if not np.all(ok):
            drift_guard(lam, ~ok)  # a failed search that wandered off is out of regime, not a numerical fault
            raise NumericalError(f"eigenvalue search did not converge for n in {n_list[~ok].tolist()}")
        return lam

    coarse = search(lam0, lam0 + 0.02j / params.L, _SEARCH_STEPS)
    fine = search(coarse, coarse + 1e-6j / params.L, 2 * _SEARCH_STEPS)
    roots = fine + (fine - coarse) / 15.0

    drift_guard(roots, True)  # first: two roots within 1/(2L) of distinct seeds cannot collide
    if pair := collision(roots):
        a, b = n_list[list(pair)]
        raise NumericalError(
            f"root collision between modes {a} and {b}: spectrum not simple at these parameters"
        )
    return roots


class ModeIndexed:
    """Rows of a mode family: mode ``n`` of ``n_list = -N..N`` is row ``n + N``."""

    def index(self, n: int) -> int:
        return self.row(n, (self.n_list.size - 1) // 2)

    @staticmethod
    def row(n: int, N: int) -> int:
        """Row of mode ``n`` in a -N..N family; DomainError outside it."""
        if abs(int(n)) > N:
            raise DomainError(f"mode {int(n)} outside -{N}..{N}")
        return int(n) + N


@dataclass
class Moments:
    """What a feedback law reads of a normalized conservative family, per mode n.

    ``at_0`` and ``at_L`` hold the (K, 2) boundary values f_n(0) and f_n(L);
    with the 1/(2L) product of :func:`pairings`, ``profile`` is ``<I, f_n>``
    for the control profile ``I = e^{int delta} (1, 1)``.
    """

    at_0: np.ndarray
    at_L: np.ndarray
    profile: np.ndarray


@dataclass
class Basis(ModeIndexed):
    """Ordered eigenfamily for ``n in [-N, N]``, optionally with duals.

    ``values`` has shape (K, 2, nx) in mode order ``n_list``, or is None for a
    conservative build with ``samples=False``, which keeps only ``moments``:
    a sample reader (:meth:`samples`) refuses it. For the damped kind,
    ``dual_values`` holds the biorthogonal family: the adjoint eigenfunctions
    :func:`adjoint_values` derives from ``values``, rescaled so the
    cross-Gram is the identity. ``gram_deviation`` is the largest entry of
    ``|G - I|`` that the build's (bi)orthonormality check measured.
    """

    kind: BcKind
    n_list: np.ndarray
    eigenvalues: np.ndarray
    grid: np.ndarray
    values: np.ndarray
    dual_values: np.ndarray = None
    bc_residuals: np.ndarray = None
    ode_residuals: np.ndarray = None
    gram_deviation: float = None
    moments: Moments = None  # conservative only

    def diagnostics(self) -> dict:
        """Build health: the search's step counts, the store pass's worst residuals and the Gram deviation."""
        return {
            "search_steps": [_SEARCH_STEPS, 2 * _SEARCH_STEPS],
            "bc_residual_max": float(np.max(self.bc_residuals)),
            "ode_error_max": float(np.max(self.ode_residuals)),
            "gram_deviation": self.gram_deviation,
        }

    def samples(self) -> np.ndarray:
        """``values``, or ValueError for a basis built without them (``samples=False``)."""
        if self.values is None:
            raise ValueError("this basis was built with samples=False: it holds the law's moments, "
                             "not the eigenfunctions on the grid")
        return self.values


_MODE_ROWS = 8  # mode rows per block of pairings and reference modes
_GRAM_ROWS = 16  # rows of the first family per product of gram_matrix: a multiple of the BLAS kernels' column group


def _row_blocks(K, size=_MODE_ROWS):
    """Slices of ``size`` rows (modes, steps) over 0..K; a lone last row joins the block before it.

    A product with a single row or column goes to a BLAS gemv, whose sums
    differ in the last bits from gemm's, so every block product of
    :func:`gram_matrix` and :func:`step_tables` keeps its entries bit for bit
    those of the whole product.
    """
    starts = list(range(0, K, size))
    if len(starts) > 1 and K - starts[-1] == 1:
        starts.pop()
    return [slice(s0, s1) for s0, s1 in zip(starts, starts[1:] + [K])]


def _longest(blocks):
    """Rows of the longest block of a layout: what a buffer that serves each block in turn holds."""
    return max(b.stop - b.start for b in blocks)


def _check_grid(a_values, b_values, grid):
    if a_values.shape[-2:] != (2, grid.size) or b_values.shape[-2:] != (2, grid.size):
        raise GridMismatchError("paired functions must be (..., 2, nx) arrays on the grid")


def gram_matrix(a_values, b_values, grid):
    """Pairing matrix ``G[i, j] = <a_i, b_j>`` of two (K, 2, nx) families.

    ``<f, g> = (1/2L) int (f1 conj(g1) + f2 conj(g2))`` under Simpson quadrature:
    ``conj(conj(a1 w) @ b1^T + conj(a2 w) @ b2^T)``, taken one component and one
    ``_GRAM_ROWS`` block of rows of ``a`` at a time. Only that block is
    conjugated, in one reused buffer; ``b_c^T`` is a transposed view that
    BLAS reads in place.
    """
    _check_grid(a_values, b_values, grid)
    w = simpson_weights(grid)
    G = np.empty((len(a_values), len(b_values)), dtype=complex)
    blocks = _row_blocks(len(a_values), _GRAM_ROWS)
    buf = np.empty((_longest(blocks), grid.size), dtype=complex)
    for i in blocks:
        caw = buf[: i.stop - i.start]
        for c in (0, 1):
            np.conj(np.multiply(a_values[i, c], w, out=caw), out=caw)
            if c == 0:
                G[i] = caw @ b_values[:, c].T
            else:
                G[i] += caw @ b_values[:, c].T
        np.conj(G[i], out=G[i])
    return G / (2.0 * grid[-1])


def pairings(a_values, b_values, grid, conjugate=True):
    """Diagonal of :func:`gram_matrix`: ``<a_k, b_k>`` for each row k of two (K, 2, nx) families.

    Either argument may be a single (2, nx) function, paired with every row
    of the other. Rows are paired one block of :func:`_row_blocks` at a time.
    """
    _check_grid(a_values, b_values, grid)
    w = simpson_weights(grid)

    def pair(a, b):
        b1, b2 = (np.conj(b[..., 0, :]), np.conj(b[..., 1, :])) if conjugate else (b[..., 0, :], b[..., 1, :])
        return np.sum((a[..., 0, :] * b1 + a[..., 1, :] * b2) * w, axis=-1)

    families = {v.shape[:-2] for v in (a_values, b_values)} - {()}
    if len(families) != 1 or len(next(iter(families))) != 1:  # no one (K,) family: pair whole
        return pair(a_values, b_values) / (2.0 * grid[-1])
    out = np.empty(families.pop(), dtype=complex)
    for rows in _row_blocks(out.size):
        out[rows] = pair(*(v if v.ndim == 2 else v[rows] for v in (a_values, b_values)))
    return out / (2.0 * grid[-1])


def reference_mode(params: Params, kind: BcKind, n, grid=None) -> np.ndarray:
    """Unperturbed (gamma = 0) eigenfunctions in closed form, (2, nx) for one ``n``, (k, 2, nx) for k of them.

    Conservative: ``(e^{i pi n x/L}, -e^{-i pi n x/L})``. Damped: the
    boundary-damped exponential pair with rate ``mu + i pi n/L``. Each entry
    is computed on its own, so the rows for an array of n are the single
    calls' bit for bit.
    """
    x = uniform_grid(params) if grid is None else grid
    L = params.L
    if kind is BcKind.CONSERVATIVE:
        up = np.exp(np.multiply.outer(1j * math.pi * n, x) / L)
        return np.stack([up, -1.0 / up], axis=-2)
    rate = params.mu + 1j * math.pi * n / L
    return np.stack([np.exp(np.multiply.outer(rate, x)), -np.exp(np.multiply.outer(rate, 2 * L - x))], -2)


def adjoint_values(params: Params, values):
    """Damped-adjoint eigenfunctions ``-e^{-2 mu L} S conj(f)`` from damped ones.

    ``S`` swaps the two components (axis -2 of ``values``). It anticommutes
    with ``L`` and ``J``, whose entries are real, so the result solves
    ``-(L phi' + delta J phi) = conj(mu_n) phi`` with ``phi1(0) = -e^{2 mu L}
    phi2(0)`` and ``phi1(L) + phi2(L) = 0``. The factor maps the gamma = 0
    damped pair onto the closed-form adjoint pair ``(e^{r x}, -e^{r(2L-x)})``,
    ``r = -mu + i pi n/L``, the duals of (39).
    """
    out = np.conj(values[..., ::-1, :])
    return np.multiply(reflection(BcKind.DAMPED, params), out, out=out)


def build_basis(params: Params, kind: BcKind, N=None, with_duals=True, samples=True) -> Basis:
    """Assemble the eigenfamily for ``|n| <= N`` with invariant checks.

    Conservative: orthonormal family (Gram = identity to 1e-6), self-dual,
    with the :class:`Moments` its feedback law reads. The store pass sums
    them, and the Gram, from the raw samples (:class:`_Sums`); one real
    scale per mode, ``d_n = ||f_n||``, then normalizes the sums, and the
    samples when ``samples`` keeps them. ``f_n,1(0) = 1/d_n > 0`` needs no
    phase fixing. With ``samples=False`` no (K, 2, nx) family is ever
    allocated, and the moments have the same bits. Damped: functions continue
    the gamma = 0 family (38), scaled so that ``<f_n, phi_n^(0)> = 1`` against
    the gamma = 0 adjoint pair; the duals are :func:`adjoint_values` of the
    functions, rescaled so that ``<f_n, dual_m> = delta_nm`` (checked to
    1e-6). A damped build always keeps its samples.
    """
    if N is None:
        N = params.n_modes
    if 2 * N + 1 > params.grid_points:  # more modes than samples: the Gram check would fail
        raise NumericalError(f"n_modes = {N} needs grid_points >= 2 n_modes + 1 = {2 * N + 1}, "
                             f"not {params.grid_points}: raise grid_points")
    n_list = np.arange(-N, N + 1)
    grid = uniform_grid(params)
    eigs = find_eigenvalues(params, kind, n_list)
    conservative = kind is BcKind.CONSERVATIVE
    seed = _left_seed(kind, params)
    sums = _Sums(params, n_list.size) if conservative else None
    bc_res, vals, ode_err = _store_pass(params, eigs, seed, samples or not conservative, sums)
    bad = n_list[~(bc_res <= np.maximum(1e-9, ode_err))]  # the grid march checks the roots; nan fails
    if bad.size:
        raise NumericalError(f"boundary residual of the grid march exceeds max(1e-9, its ODE "
                             f"error) for n in {bad.tolist()}")

    def check_identity(G, what):
        dev = np.abs(G - np.eye(n_list.size))
        if not np.max(dev) <= 1e-6:  # nan fails too
            i, j = np.unravel_index(np.argmax(dev), dev.shape)
            raise NumericalError(
                f"{what} failure at ({n_list[i]}, {n_list[j]}): {np.max(dev):.2e}; "
                f"grid_points = {params.grid_points} may be too coarse for n_modes = {N}: raise grid_points"
            )
        return float(np.max(dev))

    dual_values = moments = gram_dev = None  # the family is scaled in place, never copied
    if conservative:
        two_L = 2.0 * grid[-1]
        d = np.sqrt(sums.norm2 / two_L)
        gram_dev = check_identity(sums.gram / np.outer(d, d) / two_L, "orthonormality")
        if vals is not None:
            vals /= d[:, None, None]
        moments = Moments(at_0=seed / d[:, None], at_L=sums.last / d[:, None],
                          profile=sums.profile / d / two_L)
    else:
        scales = np.empty(n_list.size, dtype=complex)
        for rows in _row_blocks(n_list.size):  # one block of reference modes at a time
            refs = adjoint_values(params, reference_mode(params, kind, n_list[rows], grid))
            scales[rows] = pairings(vals[rows], refs, grid)
        vals /= scales[:, None, None]
        if with_duals:
            dual_values = adjoint_values(params, vals)
            dual_values *= np.conj(1.0 / pairings(vals, dual_values, grid))[:, None, None]  # 1/<f_n, phi_n>
            gram_dev = check_identity(gram_matrix(vals, dual_values, grid), "biorthonormality")
    return Basis(
        kind=kind, n_list=n_list, eigenvalues=eigs, grid=grid,
        values=vals, dual_values=dual_values,
        bc_residuals=bc_res, ode_residuals=ode_err, gram_deviation=gram_dev, moments=moments,
    )


@dataclass
class WModes(ModeIndexed):
    """Kato-normalized eigenfamilies of the w-system and its adjoint.

    ``psi`` solves the system with diagonal-inclusive coupling; ``chi`` the
    adjoint one. Both continue the explicit gamma = 0 exponentials, with
    ``<psi_n(gamma), chi_n^(0)> = 1`` and ``<psi_n^(0), chi_n(gamma)> = 1``
    in the bilinear 1/(2L) pairing.
    """

    n_list: np.ndarray
    eigenvalues: np.ndarray
    grid: np.ndarray
    psi: np.ndarray
    chi: np.ndarray


def w_modes(params: Params, basis: Basis) -> WModes:
    """Derive the w-system families from the conservative basis.

    The diagonal weight ``exp(int delta)`` intertwines the two systems:
    ``psi_n = exp(-int delta) f_n`` up to scale, and the adjoint family is
    ``chi_n = exp(+int delta) conj(f_n)`` up to scale.
    """
    if basis.kind is not BcKind.CONSERVATIVE:
        raise ValueError("w_modes requires the conservative basis")
    grid = basis.grid
    ew = diagonal_weight(params, grid)
    psi = basis.samples() / ew
    chi = np.conj(basis.values)
    chi *= ew
    # Kato scales, taken before either family is rescaled in place:
    # <psi, psi_n^(0)> sesquilinear = <psi, chi_n^(0)> bilinear
    psi_scale, chi_scale = np.empty((2, basis.n_list.size), dtype=complex)
    for rows in _row_blocks(basis.n_list.size):
        refs = reference_mode(params, BcKind.CONSERVATIVE, basis.n_list[rows], grid)
        psi_scale[rows] = pairings(psi[rows], refs, grid)
        chi_scale[rows] = pairings(chi[rows], refs, grid, conjugate=False)
    psi /= psi_scale[:, None, None]
    chi /= chi_scale[:, None, None]
    return WModes(
        n_list=basis.n_list.copy(), eigenvalues=basis.eigenvalues.copy(), grid=grid,
        psi=psi, chi=chi,
    )


def kato_psi(params: Params, basis: Basis, n: int) -> np.ndarray:
    """Kato-normalized w-system eigenfunction ``psi_n(gamma)`` for one mode."""
    modes = w_modes(params, basis)
    return modes.psi[modes.index(n)]


def _kato_series(params: Params, n: int, K: int):
    """Modes ``0 < |k-n| <= K`` and the coefficients of ``psi_n^(1)`` on them.

    ``c_k = (3L/4) <J0 psi_n^(0), psi_k^(0)> / (i pi (k-n))``, with the overlap
    in closed form: ``-(2/(i pi)) (1/(n-k) + (1/3)/(n+k))`` when n + k is odd,
    and 0 when it is even, which covers |k| = |n|.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    ks = np.delete(np.arange(n - K, n + K + 1), K)
    odd = (n + ks) % 2 == 1  # n + k = 0 is even, so the odd terms never divide by zero
    overlap = (-2.0 / (1j * math.pi)) * (1.0 / (n - ks) + (1.0 / 3.0) / np.where(odd, n + ks, 1))
    return ks, np.where(odd, (3.0 * params.L / 4.0) * overlap / (1j * math.pi * (ks - n)), 0.0)


def first_order_perturbation(params: Params, n: int, K: int = 2000) -> np.ndarray:
    """First-order Kato correction ``psi_n^(1)`` as a truncated mode series.

    ``psi_n^(1) = sum_{0 < |k-n| <= K} c_k psi_k^(0)``, ``c_k`` from
    :func:`_kato_series`. On the grid ``x_j = j L/(nx-1)`` the mode
    ``e^{i pi k x_j/L}`` is periodic in k with period ``P = 2(nx-1)``, so the
    coefficients are folded modulo P and the series is one FFT per component.
    """
    ks, coefs = _kato_series(params, n, K)
    nx = params.grid_points
    P = 2 * (nx - 1)
    a = np.zeros(P, dtype=complex)
    np.add.at(a, ks % P, coefs)
    return np.stack([P * np.fft.ifft(a)[:nx], -np.fft.fft(a)[:nx]])

