"""Acceptance suite: every criterion with its pinned tolerances.

Each criterion runs at fixed, stated parameters and returns its verdict as
a :class:`CriterionResult`; the pytest acceptance module and the CLI ``report``
subcommand (which writes the results) both delegate here. Criteria build
their bases through :func:`cached_basis`, their feedback laws through
:func:`_law` and a law's closed-loop and Galerkin spectra through
:func:`_spectra`, into one memo keyed on ``(params, kind, N)``, where
``kind`` is the basis's ``BcKind``, ``FeedbackLaw`` for a law or
``"spectra"``. A law reads only its basis's moments, so a law whose basis
is not in the memo is built from a basis without samples, which never
enters it. Two points are read by more than one criterion, and
``SHARED_READERS`` names what each passes on and its readers: ``P_STD``'s
conservative basis goes to criteria 2, 4 and 12, ``P_LOOP``'s law and its
spectra to criteria 8 and 9. So the N=41 family is never held, and
criterion 9 reads criterion 8's law and spectra.

:func:`run_all` runs the criteria on lanes, one per core that BLAS leaves
free (:func:`_lane_count`). Lane 0 is the calling process; every other lane
is a forked child that pickles its results back through a pipe. The
readers of one shared point always share a lane, so nothing shared is built
twice. Each lane owns the lifetime of the entries it builds: after each of
its criteria it drops every one that no criterion still to run in that lane
reads, so a lane holds at most the entries of one criterion and what the
shared points pass on. With one lane nothing is forked, and the run is the
serial run.

Criterion 8 takes the closed-loop spectrum under the full law: the roots
of its characteristic equation, with the law's tail beyond N summed in
closed form. The N-mode Galerkin matrix alone misses the targets by up to
0.94 (its details keep those values) because the law's products
``table[n] <I_nu, f_n>`` do not decay. Criterion 9 stays red: the
integrator records the closed loop as ``y = c + zeta0 e_0`` by that
Galerkin matrix, whose weakly damped edge modes hold generic decay fits
near 0.5, and even without them the closed loop's norm oscillates within
each round trip, so its logarithm is not linear enough for the R^2 > 0.98
clause. Both report the causes in their details.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import sys
import time
from dataclasses import dataclass

import numpy as np

from watertank.backstepping import (
    characteristic_function,
    closed_loop_spectrum,
    dirichlet_sum,
    galerkin_spectrum,
    match_spectrum,
    target_distances,
)
from watertank.control import controllability_report, plain_moments
from watertank.errors import NumericalError
from watertank.feedback import FeedbackLaw, feedback_coefficients
from watertank.finite_dim import placement_mismatch, random_backstep_pairs
from watertank.model import Params, gamma_s_threshold
from watertank.simulate import (
    decay_rate_estimate,
    integrate_closed_loop,
    integrate_target,
    lyapunov_certificate,
    lyapunov_functional,
    real_initial_datum,
    steer,
)
from watertank.spectral import (
    BcKind,
    build_basis,
    find_eigenvalues,
    first_order_perturbation,
    reference_mode,
    unperturbed_eigenvalues,
    w_modes,
)

__all__ = ["CriterionResult", "cached_basis", "run_criterion", "run_all", "CRITERIA"]


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    details: dict
    elapsed: float
    lane: int = 0  # the run_all lane that ran it; lane 0 is the calling process
    lane_peak_rss_mb: float | None = None  # that lane's process's peak resident memory (_peak_rss_mb)


# The two points that pass a basis or a law on to more than one criterion (SHARED_READERS).
P_STD = Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=20, grid_points=2049)
P_LOOP = Params(gamma=0.03, mu=2.0, nu=0.5, n_modes=41, grid_points=4097)

_memo: dict = {}  # (params, kind, N) -> its Basis, or its law when kind is FeedbackLaw


def cached_basis(params: Params, kind: BcKind, N=None):
    """``build_basis`` memoized on ``(params, kind, N)``.

    ``N`` defaults to ``params.n_modes`` before the lookup, so a defaulted
    and an explicit argument share one entry. An entry that :func:`run_all`
    builds lives until its last reader in that call returns; any other entry
    stays for the life of the process.
    """
    key = (params, kind, params.n_modes if N is None else int(N))
    if key not in _memo:
        _memo[key] = build_basis(*key)
    return _memo[key]


def _law(params: Params, N: int):
    """``feedback_coefficients`` on the conservative basis, memoized on ``(params, FeedbackLaw, N)``.

    The law reads only the basis's moments: it takes the memo's basis when
    one is there, and otherwise builds one with ``samples=False``, which
    never enters the memo.
    """
    key = (params, FeedbackLaw, N)
    if key not in _memo:
        basis = _memo.get((params, BcKind.CONSERVATIVE, N))
        if basis is None:
            basis = build_basis(params, BcKind.CONSERVATIVE, N, samples=False)
        _memo[key] = feedback_coefficients(params, basis)
    return _memo[key]


def _spectra(params: Params, N: int):
    """``(closed_loop_spectrum, galerkin_spectrum)`` of :func:`_law`'s law, memoized on
    ``(params, "spectra", N)``."""
    key = (params, "spectra", N)
    if key not in _memo:
        law = _law(params, N)
        _memo[key] = closed_loop_spectrum(law), galerkin_spectrum(law)
    return _memo[key]


def _moment_report(params: Params):
    basis = cached_basis(params, BcKind.CONSERVATIVE)
    return controllability_report(params, basis, w_modes(params, basis))


def _c1():
    p = Params(gamma=0.0, mu=2.0, nu=0.5, n_modes=20, grid_points=1025)
    t0 = time.perf_counter()
    n_list = range(-20, 21)
    ev_c = find_eigenvalues(p, BcKind.CONSERVATIVE, n_list)
    ev_d = find_eigenvalues(p, BcKind.DAMPED, n_list)
    err_c = float(np.max(np.abs(ev_c - unperturbed_eigenvalues(BcKind.CONSERVATIVE, p, n_list))))
    err_d = float(np.max(np.abs(ev_d - unperturbed_eigenvalues(BcKind.DAMPED, p, n_list))))
    elapsed = time.perf_counter() - t0
    passed = err_c < 1e-9 and err_d < 1e-9 and elapsed < 5.0
    return passed, {
        "max_err_conservative": err_c,
        "max_err_damped": err_d,
        "runtime_s": elapsed,
        "tolerance": 1e-9,
        "runtime_budget_s": 5.0,
    }


def _c2():
    p = P_STD
    # the spectrum of the basis criteria 4 and 12 read too (SHARED_READERS)
    ev = cached_basis(p, BcKind.CONSERVATIVE).eigenvalues
    drift = float(np.max(np.abs(ev - unperturbed_eigenvalues(BcKind.CONSERVATIVE, p, range(-20, 21)))))
    re = float(np.max(np.abs(ev.real)))
    passed = drift < 0.25 / p.L and re < 1e-8
    return passed, {
        "max_drift": drift,
        "drift_bound": 0.25 / p.L,
        "max_abs_real_part": re,
        "real_part_tolerance": 1e-8,
    }


def _c3():
    gammas = [0.01, 0.02, 0.04]
    ns = [1, 2, 4, 8]
    errs = {}
    for g in gammas:
        p = Params(gamma=g, mu=2.0, nu=0.5, n_modes=10, grid_points=1025)
        basis = cached_basis(p, BcKind.CONSERVATIVE, 10)
        modes = w_modes(p, basis)
        for n in ns:
            psi0 = reference_mode(p, BcKind.CONSERVATIVE, n, basis.grid)
            psi1 = first_order_perturbation(p, n, K=2000)
            errs[(g, n)] = float(np.max(np.abs(modes.psi[modes.index(n)] - psi0 - g * psi1)))
    slopes = {}
    ok = True
    for n in ns:
        x = np.log(gammas)
        y = np.log([errs[(g, n)] for g in gammas])
        s = float(np.polyfit(x, y, 1)[0])
        slopes[n] = s
        ok = ok and abs(s - 2.0) <= 0.2
    return ok, {"slopes": slopes, "band": [1.8, 2.2],
                "residuals": {f"g={g},n={n}": errs[(g, n)] for g, n in errs}}


def _c4():
    p0 = Params(gamma=0.0, mu=2.0, nu=0.5, n_modes=20, grid_points=2049)
    r0 = _moment_report(p0)
    n = r0.n_list
    even, odd = (n > 0) & (n % 2 == 0), (n > 0) & (n % 2 == 1)
    even_max = float(np.max(np.abs(r0.b[even])))
    odd_err = float(np.max(np.abs(r0.b[odd] + 4j * p0.L / (math.pi * n[odd]))))
    fit = _moment_report(P_STD).items["moment_bounds"]
    c_fit, C_fit = fit["lower_c"], fit["upper_C"]
    passed = even_max < 1e-8 and odd_err < 1e-6 and c_fit > 0.01
    return passed, {
        "gamma0_even_max": even_max,
        "gamma0_odd_closed_form_err": odd_err,
        "fitted_lower_c": c_fit,
        "fitted_upper_C": C_fit,
    }


def _c5():
    # target-moment zeroth order at mu > 3/L (the target-controllability regime)
    mu = 3.2
    combos = {}
    consts = {}
    for g in (0.01, 0.02):
        p = Params(gamma=g, mu=mu, nu=0.5, n_modes=10, grid_points=2049)
        bd = cached_basis(p, BcKind.DAMPED, 10)
        q = -bd.eigenvalues * np.conj(plain_moments(bd.dual_values, bd.grid))
        n = bd.n_list
        target = 2 * (-1.0) ** n * math.exp(-mu * p.L) - 1 - math.exp(-2 * mu * p.L)
        errs = np.abs(q - target)
        combos[g] = float(max(errs))
        consts[g] = float(max(errs) / g)
    ratio = consts[0.02] / consts[0.01]
    passed = 0.5 <= ratio <= 2.0
    return passed, {
        "mu": mu,
        "max_err_by_gamma": combos,
        "fitted_C_by_gamma": consts,
        "stability_ratio": ratio,
        "stability_band": [0.5, 2.0],
    }


def _c6():
    p = Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=12, grid_points=2049)
    modes = w_modes(p, cached_basis(p, BcKind.CONSERVATIVE, 12))
    errs = {}
    drifts = {}
    for nt in (1, 2, 3):
        _, traj, errs[nt], _ = steer(p, modes, {nt: 1.0})
        drifts[nt] = traj.mass_drift
    passed = all(e < 5e-2 for e in errs.values()) and all(
        d < 1e-6 for d in drifts.values()
    )
    return passed, {
        "terminal_relative_errors": errs,
        "mass_drifts": drifts,
        "error_tolerance": 5e-2,
        "mass_tolerance": 1e-6,
    }


def _c7():
    p = Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=40, grid_points=4097)
    basis = cached_basis(p, BcKind.CONSERVATIVE, 40)
    bd = cached_basis(p, BcKind.DAMPED, 5)
    phi = bd.dual_values  # the duals of modes m = -5..5
    tgt = np.conj(phi[:, 0, 0] - phi[:, 1, 0]) / 2.0
    errs = np.abs(dirichlet_sum(basis, phi) - tgt)
    worst = float(errs.max())
    return worst < 5e-2, {
        "dirichlet_errors": {str(m): float(e) for m, e in zip(bd.n_list, errs)},
        "max_error": worst,
        "tolerance": 5e-2,
    }


def _c8():
    t0 = time.perf_counter()
    p = P_LOOP
    law = _law(p, 41)
    eig, galerkin = _spectra(p, 41)
    targets, dist = target_distances(eig, p, 10)
    rel = dist / np.abs(targets)
    elapsed = time.perf_counter() - t0
    tol = 0.1 * p.mu
    passed = bool(np.max(dist) < tol) and elapsed < 30.0
    return passed, {
        "tolerance_abs": tol,
        "max_distance": float(np.max(dist)),
        "distance_by_p": {int(k): float(d) for k, d in zip(range(-10, 11), dist)},
        "relative_distance_max": float(np.max(rel)),
        "max_real_part": float(eig.real.max()),
        "max_characteristic_residual": float(
            np.max(np.abs(characteristic_function(law, eig)))
        ),
        "galerkin_max_distance": float(np.max(match_spectrum(galerkin, targets))),
        "galerkin_max_real_part": float(galerkin.real.max()),
        "runtime_s": elapsed,
        "note": (
            "eigenvalues are the roots of 1 = sum_n c_n/(s+mu_n) with the "
            "tail |n|>N summed in closed form; the N=41 Galerkin matrix "
            "alone misses because c_n = table[n]<I_nu,f_n> does not decay "
            "(~ -tanh(mu L)), so truncation drops O(1) terms near each "
            "target and shifts it by O(|p|/N), with edge modes near Re -0.26"
        ),
    }


def _c9():
    p = P_LOOP
    law = _law(p, 41)
    rng = np.random.default_rng(2024)
    rates, r2s = [], []
    window = (5.0 / p.mu, 15.0 / p.mu)
    for _ in range(10):
        c0 = real_initial_datum(rng, 41)
        traj = integrate_closed_loop(p, law, c0, t_final=window[1])
        r, r2 = decay_rate_estimate(traj, "da", window)
        rates.append(r)
        r2s.append(r2)
    need = 0.7 * 0.75 * p.mu
    passed = all(r >= need for r in rates) and all(q > 0.98 for q in r2s)
    eig, galerkin = _spectra(p, 41)
    return passed, {
        "required_rate": need,
        "fitted_rates": rates,
        "r_squared": r2s,
        "window": list(window),
        "closed_loop_max_real_part": float(eig.real.max()),
        "galerkin_max_real_part": float(galerkin.real.max()),
        "note": (
            "two causes: (1) integrate_closed_loop propagates the N=41 "
            "Galerkin matrix, whose edge modes (galerkin_max_real_part) hold "
            "the fitted rates near 0.5; with asymptotic tail modes appended "
            "(640-1280 modes a side) the rates reach 1.96-2.00; (2) even "
            "then R^2 stays 0.82-0.89: the da-norm is e^{-mu t} times a "
            "2L-periodic factor that swings by ~e^5 per round trip, and the "
            "paper bounds the norm by C e^{-lambda t}, it does not make its "
            "logarithm linear"
        ),
    }


def _c10():
    p = Params(gamma=0.03, mu=2.0, nu=0.5, n_modes=20, grid_points=2049)
    lam = p.mu / 2.0
    gs = gamma_s_threshold(p, lam)
    cert = lyapunov_certificate(p, lam)
    bd = cached_basis(p, BcKind.DAMPED, 20)
    rng = np.random.default_rng(42)
    c0 = (rng.standard_normal(41) + 1j * rng.standard_normal(41)) / (
        1 + np.abs(np.arange(-20, 21))
    ) ** 2
    traj = integrate_target(p, bd, c0, t_final=10.0 / p.mu, n_samples=200)
    Ve = lyapunov_functional(bd, traj.coeffs, cert) * np.exp(2 * lam * traj.times)
    drift_up = float(np.max(Ve / Ve[0]) - 1.0)
    eta_ok = cert.feasible and cert.eta[-1] <= 1.0
    passed = p.gamma < gs and eta_ok and cert.eta_below_xi and drift_up < 1e-3
    return passed, {
        "gamma_s": gs,
        "gamma": p.gamma,
        "eta_L": float(cert.eta[-1]),
        "eta_below_xi": cert.eta_below_xi,
        "V_exp_drift_up": drift_up,
        "drift_tolerance": 1e-3,
    }


def _c11():
    worst_res = 0.0
    worst_eig = 0.0
    draws = random_backstep_pairs(np.random.default_rng(7), dim_max=6)
    for pa, pt, T, Kg in itertools.islice(draws, 100):
        A, B, At = pa.A, pa.B, pt.A
        r1 = np.max(np.abs(T @ A + np.outer(B, Kg) - At @ T))
        r2 = np.max(np.abs(T @ B - B))
        worst_res = max(worst_res, float(r1), float(r2))
        worst_eig = max(worst_eig, placement_mismatch(pa, pt, Kg))
    passed = worst_res < 1e-10 * 10 and worst_eig < 1e-8
    return passed, {
        "pairs": 100,
        "max_equation_residual": worst_res,
        "max_spectrum_mismatch": worst_eig,
        "residual_tolerance": 1e-9,
        "spectrum_tolerance": 1e-8,
    }


def _c12():
    p = P_STD
    basis = cached_basis(p, BcKind.CONSERVATIVE, 20)
    # modes -n and n for n = 0..20
    neg, pos = basis.values[basis.index(0)::-1], basis.values[basis.index(0):]
    sym_conj = float(np.max(np.abs(neg - np.conj(pos))))
    sym_swap = float(np.max(np.abs(neg[:, 0] + pos[:, 1])))
    tab_sym = _law(p, 20).reality_defect()
    # short closed-loop run from real data stays real
    pr = Params(gamma=0.03, mu=2.0, nu=0.5, n_modes=21, grid_points=2049)
    lawr = _law(pr, 21)
    c0 = real_initial_datum(np.random.default_rng(5), 21)
    traj = integrate_closed_loop(pr, lawr, c0, t_final=3.0)
    c = traj.coeffs.copy()
    c[:, lawr.index(0)] += traj.zeta0
    real_drift = float(np.max(np.abs(c - np.conj(c[:, ::-1]))))
    u_imag = float(np.max(np.abs(traj.control.imag)))
    passed = (
        sym_conj < 1e-8
        and sym_swap < 1e-8
        and tab_sym < 1e-10
        and real_drift < 1e-10
        and u_imag < 1e-10
    )
    return passed, {
        "eigenfunction_conjugation": sym_conj,
        "eigenfunction_swap": sym_swap,
        "feedback_table_symmetry": tab_sym,
        "trajectory_reality_drift": real_drift,
        "control_imag_max": u_imag,
        "tolerance": 1e-10,
    }


CRITERIA = {
    1: ("unperturbed spectra match closed forms to 1e-9 in under 5 s", _c1),
    2: ("perturbed eigenvalues localized within 1/(4L), purely imaginary", _c2),
    3: ("first-order perturbation series has quadratic remainder (slope 2 +/- 0.2)", _c3),
    4: ("moment structure: even modes dead at gamma=0, gamma*c/n lower bound at gamma=0.05", _c4),
    5: ("target moments match the boundary combination to O(gamma) with stable constant", _c5),
    6: ("open-loop steering reaches single-mode targets under 5e-2 with conserved mass", _c6),
    7: ("TB=B Dirichlet partial sums within 5e-2 at N=40 for |m| <= 5", _c7),
    8: ("truncated closed-loop spectrum within 0.1*mu of the reflected target spectrum", _c8),
    9: ("closed-loop decay rate >= 0.7*(3 mu/4) with R^2 > 0.98 on [5/mu, 15/mu]", _c9),
    10: ("Lyapunov certificate feasible and V e^{2 lam t} non-increasing to 1e-3", _c10),
    11: ("finite-dimensional oracle: unique (T,K), exact pole placement, 100 seeds", _c11),
    12: ("symmetry/reality suite: eigenfamily, feedback table, real trajectories", _c12),
}

# What each shared point passes on, as the (params, kind) of its memo entries, and the criteria
# that read it: one lane runs them all, and keeps those entries while one of them is still to
# run. P_LOOP passes on its law and the law's two spectra; its basis, built without samples
# (_law), is never in the memo.
SHARED_READERS = {(P_STD, BcKind.CONSERVATIVE): (2, 4, 12),
                  (P_LOOP, FeedbackLaw): (8, 9), (P_LOOP, "spectra"): (8, 9)}


def run_criterion(cid: int) -> CriterionResult:
    title, fn = CRITERIA[cid]
    t0 = time.perf_counter()
    passed, details = fn()
    return CriterionResult(
        cid=cid, title=title, passed=bool(passed), details=details,
        elapsed=time.perf_counter() - t0,
    )


# the variables numpy's bundled OpenBLAS reads its thread count from, first one first
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _lane_count(groups: int) -> int:
    """How many lanes :func:`run_all` deals ``groups`` share groups to: one per core BLAS leaves free.

    That is the usable CPUs over the BLAS threads, capped by ``groups``, and at
    least 1. BLAS threads is the first of ``_BLAS_THREAD_VARS`` set to a positive
    integer. With neither set, OpenBLAS takes a thread per usable CPU and the
    count is 1; so it is where the platform cannot fork or report its CPUs.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    for var in _BLAS_THREAD_VARS:
        threads = os.environ.get(var, "")
        if threads.isdigit() and int(threads) > 0:
            return max(1, min(groups, len(os.sched_getaffinity(0)) // int(threads)))
    return 1


def _deal(criteria) -> list:
    """The positions in ``criteria`` that each lane runs, each lane's in the requested order.

    The readers of one shared point (``SHARED_READERS``) form one group, and
    every other criterion is a group of its own. The groups, in the order of
    their first position, go round-robin to the lanes, so a lane runs the same
    criteria, and reaches the same peak memory, from run to run.
    """
    group_of = {cid: shared[0] for shared, readers in SHARED_READERS.items() for cid in readers}
    groups = list(dict.fromkeys(group_of.get(cid, cid) for cid in criteria))
    lanes = _lane_count(len(groups))
    lane_of = {group: i % lanes for i, group in enumerate(groups)}
    return [[k for k, cid in enumerate(criteria) if lane_of[group_of.get(cid, cid)] == lane]
            for lane in range(lanes)]


def _peak_rss_mb():
    """This process's peak resident memory in MB (``ru_maxrss``); None without ``resource``."""
    try:
        import resource  # not loaded on the CLI's start-up path
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux, bytes on macOS
    return peak / (2.0 ** 20 if sys.platform == "darwin" else 2.0 ** 10)


def _run_lane(criteria):
    """Run ``criteria`` in order; return their results, the exception that stopped them, if any,
    and the lane's process's peak resident memory in MB once they have run.

    After each criterion, of the entries this lane built the memo keeps only
    those that a shared point passes on to a criterion still to run in the
    lane (``SHARED_READERS``). So every basis and law goes after its last
    reader, and the lane leaves the memo holding what it held before.
    """
    before = set(_memo)
    results = []
    try:
        for k, cid in enumerate(criteria):
            results.append(run_criterion(cid))
            to_run = set(criteria[k + 1:])
            for key in set(_memo) - before:
                if to_run.isdisjoint(SHARED_READERS.get(key[:2], ())):
                    del _memo[key]
    except Exception as exc:  # the caller raises the one of the earliest criterion
        return results, exc, _peak_rss_mb()
    return results, None, _peak_rss_mb()


def _fork_lane(criteria):
    """Run ``criteria`` in a forked child; return its pid and the pipe it pickles its outcome into.

    The child ends only through ``os._exit``, in a ``finally``: it never returns
    into the caller's stack, whose file writes and clean-up would run twice.
    It is forked, not spawned, so it shares the imported modules instead of
    importing numpy again; OpenBLAS stops its threads around a fork.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read_end)
        os.close(write_end)
        raise NumericalError(f"cannot start a lane for criteria {criteria}: {exc}") from exc
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pickle.dump(_run_lane(criteria), pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _join_lane(pid, pipe, criteria):
    """The outcome the lane ``pid`` pickled into ``pipe``, once it has ended and been reaped.

    A lane that ended without sending one, say by a signal or an OOM kill, has
    the outcome of a :class:`NumericalError` at its first criterion.
    """
    with pipe:
        answer = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == 0:
        return pickle.loads(answer)  # bytes our own fork wrote
    ending = f"signal {-code}" if code < 0 else f"exit status {code}"
    failure = NumericalError(f"the lane running criteria {criteria} ended by {ending} without a result")
    return [], failure, None


def run_all(criteria=None):
    """Run ``criteria`` (all, in order, by default) and return their results in that order.

    The criteria run on the lanes of :func:`_deal`: lane 0 in this process,
    the others in forked children, each under the lifetime rule of
    :func:`_run_lane`. Every child is reaped before this returns or raises.
    If criteria raise, the exception of the earliest one in ``criteria``
    reaches the caller, as in a serial run. With one lane nothing is forked,
    and the call leaves the memo holding what it held before. Each result
    carries its lane and that lane's peak resident memory; a forked lane's
    is its own process's, the pages it shares with the caller included.
    """
    criteria = sorted(CRITERIA) if criteria is None else list(criteria)
    positions = _deal(criteria)
    lanes = [[criteria[k] for k in lane] for lane in positions]
    children = []  # (pid, pipe) of each forked lane not yet reaped
    try:
        for lane in lanes[1:]:
            children.append(_fork_lane(lane))
        outcomes = [_run_lane(lanes[0])]
        for lane in lanes[1:]:
            outcomes.append(_join_lane(*children[0], lane))
            children.pop(0)
    finally:  # a child is left here only when something raised past the lanes' own catch
        if children:
            from signal import SIGKILL  # not loaded on the CLI's start-up path

            for pid, pipe in children:
                pipe.close()
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    results, failures = [None] * len(criteria), []
    for i, (lane, (done, exc, peak)) in enumerate(zip(positions, outcomes)):
        for k, result in zip(lane, done):
            result.lane, result.lane_peak_rss_mb = i, peak
            results[k] = result
        if exc is not None:
            failures.append((lane[len(done)], exc))
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results
