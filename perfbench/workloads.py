"""The benchmark's four workloads: inputs drawn from the seed, one op, its check.

An op returns ``(problems, facts)``: a list of failed checks (empty when the
op is correct) and numbers read from the program's output for the traced
run. ``report`` and ``cli_n41`` run the ``watertank`` CLI in fresh child
processes, as users run it; ``ensemble_n41`` and ``steer_n20`` call the
library in this process. Why each workload exists is in README.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from spans import clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
CHILD_TIMEOUT_S = 150.0
MASS_TOL = 1e-6


@dataclass
class Ctx:
    """What an op needs from the harness: a scratch directory and the recorder."""

    workdir: Path
    rec: object = None  # spans.Recorder when the op is traced

    def cli(self, args, outdir: Path) -> int:
        """Run one ``watertank`` subcommand in a fresh interpreter; return its exit code."""
        args = [*args, "--set", f"outdir={outdir}"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        if self.rec is None:
            cmd = [sys.executable, "-m", "watertank", *args]
        else:
            spans_file = outdir / f"spans-{args[0]}.json"
            cmd = [sys.executable, str(CHILD), "cli", *args]
            env.update(PERFBENCH_SPANS=str(spans_file), PERFBENCH_SPAWN_T=repr(clock()))
        proc = subprocess.run(cmd, env=env, cwd=outdir, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        if self.rec is not None:
            self.rec.merge(json.loads(spans_file.read_text()))
        if proc.returncode not in (0, 4):
            sys.stderr.write(proc.stderr[-2000:])
        return proc.returncode


def real_init(rng, n_modes: int) -> np.ndarray:
    """Seeded real initial datum on modes ``-N..N`` (conjugate pairs, mode 0 zero)."""
    c0 = np.zeros(2 * n_modes + 1, dtype=complex)
    for n in range(1, n_modes + 1):
        a = (rng.standard_normal() + 1j * rng.standard_normal()) / (1 + n) ** 2
        c0[n_modes + n] = a
        c0[n_modes - n] = np.conj(a)
    return c0


# --- report: the whole 12-criterion contract, one fresh process per op ------

ALLOWED_RED = (8, 9)  # red since the import; documented truncation effects


def check_report(code: int, doc: dict) -> list:
    problems = []
    if code not in (0, 4):
        problems.append(f"report exit code {code}")
    crit = {c["id"]: c for c in doc.get("criteria", [])}
    missing = sorted(set(range(1, 13)) - set(crit))
    if missing:
        problems.append(f"criteria missing: {missing}")
    red = [cid for cid, c in sorted(crit.items()) if not c["passed"] and cid not in ALLOWED_RED]
    if red:
        problems.append(f"criteria failing: {red}")
    return problems


def report_op(state, rng, ctx: Ctx):
    code = ctx.cli(["report"], ctx.workdir)
    doc = json.loads((ctx.workdir / "acceptance_report.json").read_text())
    facts = {f"acceptance.c{c['id']}.s": c["elapsed_seconds"] for c in doc["criteria"]}
    facts["acceptance.criteria_passed"] = sum(bool(c["passed"]) for c in doc["criteria"])
    return check_report(code, doc), facts


# --- cli_n41: feedback then simulate at the pinned N=41 / nx=4097 point ------

def check_cli(fb_code: int, sim_code: int, fb: dict, sim: dict) -> list:
    problems = [f"{cmd} exit code {code}"
                for cmd, code in (("feedback", fb_code), ("simulate", sim_code)) if code != 0]
    loop = fb["closed_loop"]
    if not fb["reality_symmetric"]:
        problems.append("feedback table not reality-symmetric")
    if not loop["relative_distance_pass"]:
        problems.append(f"closed-loop spectrum distance {loop['relative_distance_max']}")
    if not loop["max_real_part"] < 0:
        problems.append(f"closed-loop max Re eig {loop['max_real_part']} >= 0")
    if not sim["mass_conserved"]:
        problems.append(f"mass drift {sim['mass_drift']}")
    return problems


def cli_op(state, rng, ctx: Ctx):
    gamma = float(rng.uniform(0.02, 0.05))
    seed = int(rng.integers(2**31))
    point = ["--set", "n_modes=41", "--set", "grid_points=4097", "--set", f"gamma={gamma!r}"]
    fb_code = ctx.cli(["feedback", *point], ctx.workdir)
    law_file = ctx.workdir / "feedback.json"
    sim_code = ctx.cli(["simulate", *point, "--set", f"seed={seed}",
                        "--set", f"law_file={law_file}"], ctx.workdir)
    fb = json.loads(law_file.read_text())
    sim = json.loads((ctx.workdir / "simulate_summary.json").read_text())
    return check_cli(fb_code, sim_code, fb, sim), {}


# --- ensemble_n41: many closed-loop runs on one law built in setup -----------

@dataclass
class EnsembleState:
    params: object
    law: object
    simulate: object  # the module; looked up per call so traced runs see the wrappers


def ensemble_setup() -> EnsembleState:
    """Import, build the basis and law at criterion 9's point, warm up."""
    from watertank import simulate
    from watertank.feedback import feedback_coefficients
    from watertank.model import Params
    from watertank.spectral import BcKind, build_basis

    p = Params(gamma=0.03, mu=2.0, nu=0.5, n_modes=41, grid_points=4097)
    law = feedback_coefficients(p, build_basis(p, BcKind.CONSERVATIVE, 41))
    simulate.integrate_closed_loop(p, law, real_init(np.random.default_rng(0), 41), t_final=0.5)
    return EnsembleState(p, law, simulate)


def ensemble_op(st: EnsembleState, rng, ctx: Ctx):
    mu = st.params.mu
    traj = st.simulate.integrate_closed_loop(st.params, st.law, real_init(rng, 41),
                                             t_final=15.0 / mu)
    st.simulate.decay_rate_estimate(traj, "da", (5.0 / mu, 15.0 / mu))
    problems = []
    drift = float(np.max(np.abs(traj.mass - traj.mass[0])))
    if not drift < MASS_TOL:
        problems.append(f"mass drift {drift:.3e}")
    u_imag = float(np.max(np.abs(traj.control.imag)))
    if not u_imag < 1e-10:
        problems.append(f"control imaginary part {u_imag:.3e}")
    return problems, {}


# --- steer_n20: open-loop steering with the upwind cross-check ---------------

STEER_TOL = 5e-2


def steer_setup():
    """Import and warm up every step of a steering op on a tiny grid."""
    import watertank.control
    import watertank.model
    import watertank.simulate
    import watertank.spectral

    mods = (watertank.model, watertank.spectral, watertank.control, watertank.simulate)
    steer(mods, gamma=0.05, target=1, n_modes=3, grid_points=257)
    return mods


def steer(mods, gamma, target, n_modes=20, grid_points=2049):
    """Steer the w-system to a single mode; return modal and upwind errors and the drift."""
    model, spectral, control, simulate = mods
    p = model.Params(gamma=gamma, mu=2.0, nu=0.5, n_modes=n_modes, grid_points=grid_points)
    modes = spectral.w_modes(p, spectral.build_basis(p, spectral.BcKind.CONSERVATIVE, n_modes))
    tq = np.linspace(0.0, 2 * p.L, 8 * (p.grid_points - 1) + 1)
    duals = control.dual_exponentials(modes.eigenvalues, tq)
    sig = control.synthesize_open_loop(p, modes, duals, {target: 1.0})
    init = np.zeros(modes.n_list.size, dtype=complex)
    traj = simulate.integrate_open_loop_w(p, modes, sig, init, t_final=2 * p.L, dt=1e-3)
    kvec = np.zeros(modes.n_list.size, dtype=complex)
    kvec[modes.index(target)] = 1.0
    modal_err = float(np.linalg.norm(traj.coeffs[-1] - kvec))
    drift = float(np.max(np.abs(traj.mass - traj.mass[0])))

    # independent discretization: upwind zeta system, pulled back to w modes
    grid = model.uniform_grid(p)
    zf = simulate.fd_simulate(p, np.zeros((2, grid.size), dtype=complex),
                              spectral.BcKind.CONSERVATIVE, 2 * p.L,
                              control=lambda t: complex(sig(np.array([t]))[0]))
    wf = zf / model.diagonal_weight(p, grid)[None, :]
    wq = model.simpson_weights(grid)
    chi, psi = modes.chi, modes.psi
    pair = np.sum(wq * (psi[:, 0, :] * chi[:, 0, :] + psi[:, 1, :] * chi[:, 1, :]), axis=1)
    coeffs = np.sum(wq * (wf[0] * chi[:, 0, :] + wf[1] * chi[:, 1, :]), axis=1) / pair
    fd_err = float(np.linalg.norm(coeffs - kvec))
    return modal_err, fd_err, drift  # kvec has unit norm: the errors are relative


def steer_op(mods, rng, ctx: Ctx):
    gamma = float(rng.uniform(0.03, 0.06))
    target = int(rng.integers(1, 4))
    modal_err, fd_err, drift = steer(mods, gamma, target)
    problems = [f"{what} terminal error {err:.3e} (gamma={gamma!r}, target={target})"
                for what, err in (("modal", modal_err), ("upwind", fd_err))
                if not err < STEER_TOL]
    if not drift < MASS_TOL:
        problems.append(f"mass drift {drift:.3e}")
    return problems, {}


# -----------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    op: Callable
    setup: Callable | None = None  # None: ops run in child processes

    @property
    def in_process(self) -> bool:
        return self.setup is not None


def import_cli():
    """Set-up of the child-process workloads: the program's own start-up."""
    import watertank.cli

    origin = Path(watertank.cli.__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"watertank imported from {origin}, not from {SRC}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("report", report_op),
        Workload("cli_n41", cli_op),
        Workload("ensemble_n41", ensemble_op, ensemble_setup),
        Workload("steer_n20", steer_op, steer_setup),
    )
}
