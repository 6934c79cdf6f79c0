"""Batch front door: flat key=value configs, deterministic CSV/JSON output.

Subcommands: spectrum, controllability, feedback, simulate, lyapunov,
steer, finite-demo, report. Exit codes: 0 success (or expected pattern),
2 configuration error (a bad key or value, an unreadable file, an argument
outside its domain), 3 regime violation, 4 numerical failure. Every nonzero
exit prints one line to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from watertank import acceptance
from watertank.backstepping import closed_loop_spectrum, match_spectrum
from watertank.control import (
    controllability_report,
    dual_exponentials,
    synthesize_open_loop,
)
from watertank.errors import (
    ConfigError,
    DomainError,
    GridMismatchError,
    NumericalError,
    RegimeError,
)
from watertank.feedback import feedback_coefficients, physical_feedback, zero_law
from watertank.finite_dim import random_backstep_pairs
from watertank.model import Params, gamma_s_threshold
from watertank.simulate import (
    decay_rate_estimate,
    integrate_closed_loop,
    integrate_open_loop_w,
    lyapunov_certificate,
    real_initial_datum,
)
from watertank.spectral import BcKind, build_basis, find_eigenvalues, w_modes

_PARAM_KEYS = {f.name: type(f.default) for f in dataclasses.fields(Params)}


def _int_list(text):
    """``"0,1,-2"`` -> ``[0, 1, -2]``."""
    return [int(s) for s in text.split(",")]


def _target_map(text):
    """``"1:1.0,3:0.5"`` -> ``{1: 1.0, 3: 0.5}``."""
    target = {}
    for part in text.split(","):
        n, v = part.split(":")
        if not math.isfinite(float(v)):
            raise ValueError(f"non-finite target amplitude {v!r}")
        target[int(n)] = float(v)
    return target


def _window(text):
    """``"2.5:7.5"`` -> ``(2.5, 7.5)``."""
    a, b = text.split(":")
    return float(a), float(b)


def _seed(text):
    """A non-negative integer, as ``np.random.default_rng`` requires."""
    seed = int(text)
    if seed < 0:
        raise ValueError(f"negative seed {seed}")
    return seed


_COMMON_KEYS = {"seed": _seed, "outdir": str}
_COMMAND_KEYS = {
    "spectrum": {"modes": _int_list},
    "controllability": {},
    "feedback": {},
    "simulate": {"open_loop": int, "law_file": str, "fit_window": _window},
    "lyapunov": {"lam": float},
    "steer": {"target": _target_map},
    "finite-demo": {"count": int, "dim_max": int},
    "report": {"criteria": _int_list},
}


def _fmt(x) -> str:
    return f"{x:.17g}"


def load_config(path, overrides, command):
    """Merge a key=value file with command-line overrides; reject unknowns."""
    allowed = dict(_PARAM_KEYS)
    allowed.update(_COMMON_KEYS)
    allowed.update(_COMMAND_KEYS.get(command, {}))
    cfg = {}

    def absorb(key, value, origin):
        key = key.strip()
        if key not in allowed:
            raise ConfigError(f"unknown configuration key {key!r} ({origin})")
        try:
            cfg[key] = allowed[key](value.strip() if isinstance(value, str) else value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc

    if path:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        for ln, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {ln} of {path} is not key = value")
            k, v = line.split("=", 1)
            absorb(k, v, f"{path}:{ln}")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        k, v = item.split("=", 1)
        absorb(k, v, "command line")
    return cfg


def params_from_config(cfg) -> Params:
    kw = {k: cfg[k] for k in _PARAM_KEYS if k in cfg}
    return Params(**kw)


_LAW_KEYS = ("L", "gamma", "mu", "nu", "n_modes", "grid_points")


def _read_law_table(path, params: Params) -> np.ndarray:
    """The modal table stored by ``watertank feedback`` in ``feedback.json``.

    The file's ``config`` must carry exactly the model parameters of this
    run: a table is only the law of the parameters it was built at.
    """
    try:
        stored = json.loads(Path(path).read_text())
        table = np.array(
            [m["re"] + 1j * m["im"] for m in stored["law"]["modes"]], dtype=complex
        )
        mismatched = [k for k in _LAW_KEYS if stored["config"][k] != getattr(params, k)]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read law file {path}: {exc!r}") from exc
    if mismatched:
        k = mismatched[0]
        raise ConfigError(
            f"law file {path} was built at {k} = {stored['config'][k]!r}, "
            f"not {getattr(params, k)!r}"
        )
    if table.shape != (2 * params.n_modes + 1,):
        raise ConfigError("law file truncation does not match n_modes")
    if not np.all(np.isfinite(table)):
        raise ConfigError(f"law file {path} has non-finite entries")
    return table


def _outdir(cfg) -> Path:
    out = Path(cfg.get("outdir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header, rows):
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _write_json(path: Path, obj):
    with path.open("w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _config_echo(cfg, params: Params) -> dict:
    echo = {k: getattr(params, k) for k in _PARAM_KEYS}
    echo.update(
        {k: v for k, v in cfg.items() if k not in _PARAM_KEYS and k != "outdir"}
    )
    return echo


def cmd_spectrum(cfg) -> int:
    params = params_from_config(cfg)
    out = _outdir(cfg)
    N = params.n_modes
    n_list = np.arange(-N, N + 1)
    seeds = 1j * math.pi * n_list / params.L
    wanted = cfg.get("modes")
    if wanted:
        if any(abs(n) > N for n in wanted):
            raise ConfigError(f"modes {wanted} must lie in -{N}..{N}")
        # the basis shoots the conservative spectrum; reuse it
        basis = build_basis(params, BcKind.CONSERVATIVE, N)
        ev_c = basis.eigenvalues
    else:
        ev_c = find_eigenvalues(params, BcKind.CONSERVATIVE, n_list)
    ev_d = find_eigenvalues(params, BcKind.DAMPED, n_list)
    rows_c = [
        (int(n), float(e.real), float(e.imag), float(abs(e - s)))
        for n, e, s in zip(n_list, ev_c, seeds)
    ]
    rows_d = [
        (int(n), float(e.real), float(e.imag), float(abs(e - params.mu - s)))
        for n, e, s in zip(n_list, ev_d, seeds)
    ]
    _write_csv(out / "spectrum_conservative.csv", ["n", "re", "im", "drift"], rows_c)
    _write_csv(out / "spectrum_damped.csv", ["n", "re", "im", "drift"], rows_d)
    if wanted:
        header = ["x"]
        cols = [basis.grid]
        for n in wanted:
            f1, f2 = basis.values[basis.index(n)]
            header += [f"re_f1_{n}", f"im_f1_{n}", f"re_f2_{n}", f"im_f2_{n}"]
            cols += [f1.real, f1.imag, f2.real, f2.imag]
        rows = zip(*[list(map(float, c)) for c in cols])
        _write_csv(out / "eigenfunctions.csv", header, rows)
    drift_max = max(r[3] for r in rows_c)
    summary = {
        "config": _config_echo(cfg, params),
        "tolerances": {"drift_bound": 0.25 / params.L},
        "drift_max_conservative": drift_max,
        "drift_within_quarter": bool(drift_max < 0.25 / params.L),
    }
    _write_json(out / "spectrum_summary.json", summary)
    return 0


def cmd_controllability(cfg) -> int:
    params = params_from_config(cfg)
    if params.gamma < 0:
        raise RegimeError("gamma must be >= 0 (synthesis regime is gamma > 0)")
    out = _outdir(cfg)
    basis = build_basis(params, BcKind.CONSERVATIVE, params.n_modes)
    modes = w_modes(params, basis)
    report = controllability_report(params, basis, modes)
    rows = [
        (
            int(n),
            float(b.real), float(b.imag),
            float(a.real), float(a.imag),
            float(i.real), float(i.imag),
            float(e.real), float(e.imag),
        )
        for n, b, a, i, e in zip(
            report.n_list, report.b, report.a, report.i_mom, report.eigenvalues
        )
    ]
    _write_csv(
        out / "moments.csv",
        ["n", "re_b", "im_b", "re_a", "im_a", "re_i", "im_i", "re_mu", "im_mu"],
        rows,
    )
    doc = {"config": _config_echo(cfg, params)}
    doc.update(report.to_dict())
    _write_json(out / "moment_report.json", doc)
    if params.gamma == 0:
        return 0 if report.expected_gamma_zero_pattern() else 4
    return 0 if report.all_passed else 4


def cmd_feedback(cfg) -> int:
    params = params_from_config(cfg)
    out = _outdir(cfg)
    basis = build_basis(params, BcKind.CONSERVATIVE, params.n_modes)
    law = feedback_coefficients(params, basis)
    phys = physical_feedback(law)
    c, C = law.growth_window()
    # closed-loop spectrum report against the reflected target eigenvalues
    eig = closed_loop_spectrum(law)
    n_cmp = min(10, params.n_modes)
    cmp_modes = np.arange(-n_cmp, n_cmp + 1)
    ev_d = find_eigenvalues(params, BcKind.DAMPED, cmp_modes)
    targets = -ev_d
    dist = match_spectrum(eig, targets)
    _write_csv(
        out / "closed_loop_spectrum.csv",
        ["re", "im"],
        [(float(e.real), float(e.imag)) for e in eig],
    )
    reality = max(
        float(abs(law.value(-n) - np.conj(law.value(n))) / abs(law.value(n)))
        for n in range(0, params.n_modes + 1)
    )
    doc = {
        "config": _config_echo(cfg, params),
        "tolerances": {"reality_symmetry": 1e-10, "relative_spectrum_distance": 0.1},
        "growth_window": {"c": c, "C": C},
        "reality_symmetric": bool(reality < 1e-10),
        "closed_loop": {
            "max_real_part": float(eig.real.max()),
            "relative_distance_max": float(np.max(dist / np.abs(targets))),
            "relative_distance_pass": bool(np.max(dist / np.abs(targets)) < 0.1),
            "compared_modes": int(n_cmp),
        },
        "law": law.to_json_dict(),
        "physical": {
            "mu_phys": phys.mu_phys,
            "mu_internal": phys.mu_internal,
            "u2_coefficient_re": float(phys.u2_coefficient.real),
            "u2_coefficient_im": float(phys.u2_coefficient.imag),
            "modes": [
                {"n": int(n), "re": float(v.real), "im": float(v.imag)}
                for n, v in zip(phys.n_list, phys.table)
            ],
        },
    }
    _write_json(out / "feedback.json", doc)
    return 0


def cmd_simulate(cfg) -> int:
    params = params_from_config(cfg)
    table = None
    if cfg.get("law_file") and not cfg.get("open_loop"):
        table = _read_law_table(cfg["law_file"], params)
    out = _outdir(cfg)
    basis = build_basis(params, BcKind.CONSERVATIVE, params.n_modes)
    if cfg.get("open_loop"):
        law = zero_law(params, basis)
    else:
        law = feedback_coefficients(params, basis)
        if table is not None:
            law.table = table
    init = real_initial_datum(np.random.default_rng(cfg.get("seed", 0)), params.n_modes)
    traj = integrate_closed_loop(params, law, init)
    header = (
        ["t"]
        + [f"abs_c_{int(n)}" for n in law.n_list]
        + ["re_zeta0", "im_zeta0", "norm_l2", "norm_da", "re_mass", "im_mass",
           "re_u", "im_u"]
    )
    _write_csv(out / "trajectory.csv", header, traj.csv_rows())
    window = cfg.get("fit_window")
    if window is None:
        b = min(15.0 / params.mu, params.t_final)
        window = (min(5.0 / params.mu, 0.5 * b), b)
    rate, r2 = decay_rate_estimate(traj, "da", window)
    mass_drift = float(np.max(np.abs(traj.mass - traj.mass[0])))
    summary = {
        "config": _config_echo(cfg, params),
        "tolerances": {"mass_drift": 1e-6},
        "fit_window": list(window),
        "fitted_rate": rate,
        "r_squared": r2,
        "mass_drift": mass_drift,
        "mass_conserved": bool(mass_drift < 1e-6),
        "open_loop": bool(cfg.get("open_loop")),
    }
    _write_json(out / "simulate_summary.json", summary)
    return 0


def cmd_lyapunov(cfg) -> int:
    params = params_from_config(cfg)
    out = _outdir(cfg)
    lam = cfg.get("lam", params.mu / 2.0)
    gs = gamma_s_threshold(params, lam)
    if params.gamma >= gs:
        raise RegimeError(f"gamma = {params.gamma} >= gamma_s(lambda) = {gs:.6g}")
    cert = lyapunov_certificate(params, lam)
    rows = zip(
        map(float, cert.grid), map(float, cert.eta), map(float, cert.xi),
        map(float, cert.theta1), map(float, cert.theta2),
    )
    _write_csv(out / "eta_xi.csv", ["x", "eta", "xi", "theta1", "theta2"], rows)
    doc = {
        "config": _config_echo(cfg, params),
        "tolerances": {"eta_terminal": 1.0},
        "lambda": lam,
        "gamma_s": gs,
        "feasible": bool(cert.feasible),
        "eta_L": float(cert.eta[-1]),
        "eta_below_xi": bool(np.all(cert.eta <= cert.xi + 1e-12)),
    }
    _write_json(out / "lyapunov_certificate.json", doc)
    return 0 if cert.feasible else 3


def cmd_steer(cfg) -> int:
    params = params_from_config(cfg)
    if params.gamma <= 0:
        raise RegimeError("steering requires gamma > 0")
    target = cfg.get("target", {1: 1.0})
    if not any(target.values()):
        raise ConfigError("every target amplitude is zero: no terminal error to measure")
    out = _outdir(cfg)
    basis = build_basis(params, BcKind.CONSERVATIVE, params.n_modes)
    modes = w_modes(params, basis)
    tq = np.linspace(0.0, 2 * params.L, 8 * (params.grid_points - 1) + 1)
    duals = dual_exponentials(modes.eigenvalues, tq)
    sig = synthesize_open_loop(params, modes, duals, target)
    _write_csv(out / "control.csv", ["t", "re_u", "im_u"], sig.to_csv_rows())
    init = np.zeros(modes.n_list.size, dtype=complex)
    traj = integrate_open_loop_w(params, modes, sig, init, t_final=2 * params.L)
    kvec = np.zeros(modes.n_list.size, dtype=complex)
    for n, v in target.items():
        kvec[modes.index(n)] = v
    err = float(np.linalg.norm(traj.coeffs[-1] - kvec) / np.linalg.norm(kvec))
    summary = {
        "config": _config_echo(cfg, params),
        "target": {str(k): v for k, v in target.items()},
        "terminal_relative_error": err,
        "terminal_error_pass": bool(err < 5e-2),
        "mass_drift": float(np.max(np.abs(traj.mass - traj.mass[0]))),
        "control_l2_norm": sig.l2_norm(),
        "dual_gram_condition": duals.gram_condition,
    }
    _write_json(out / "steer_summary.json", summary)
    return 0


def cmd_finite_demo(cfg) -> int:
    out = _outdir(cfg)
    count = cfg.get("count", 25)
    dim_max = cfg.get("dim_max", 6)
    if count < 1:
        raise ConfigError("finite-demo needs count >= 1")
    draws = random_backstep_pairs(np.random.default_rng(cfg.get("seed", 0)), dim_max)
    runs = []
    for pa, pt, T, K in itertools.islice(draws, count):
        e1 = np.sort_complex(np.linalg.eigvals(pa.A + np.outer(pa.B, K)))
        e2 = np.sort_complex(np.linalg.eigvals(pt.A))
        runs.append(
            {
                "n": pa.n,
                "spectrum_mismatch": float(np.max(np.abs(e1 - e2))),
                "cond_T": float(np.linalg.cond(T)),
            }
        )
    worst = max(r["spectrum_mismatch"] for r in runs)
    doc = {
        "config": {"seed": cfg.get("seed", 0), "count": count, "dim_max": dim_max},
        "tolerances": {"spectrum_mismatch": 1e-8},
        "max_spectrum_mismatch": worst,
        "all_within_tolerance": bool(worst < 1e-8),
        "runs": runs,
    }
    _write_json(out / "finite_demo.json", doc)
    return 0


def cmd_report(cfg) -> int:
    out = _outdir(cfg)
    wanted = cfg.get("criteria")
    if wanted is not None:
        unknown = sorted(set(wanted) - set(acceptance.CRITERIA))
        if unknown:
            raise ConfigError(f"unknown criteria {unknown}")
    results = acceptance.run_all(wanted)
    doc = {
        "criteria": [r.to_dict() for r in results],
        "all_passed": all(r.passed for r in results),
    }
    _write_json(out / "acceptance_report.json", doc)
    for r in results:
        print(f"criterion {r.cid}: {'PASS' if r.passed else 'FAIL'} - {r.title}")
    return 0 if doc["all_passed"] else 4


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "controllability": cmd_controllability,
    "feedback": cmd_feedback,
    "simulate": cmd_simulate,
    "lyapunov": cmd_lyapunov,
    "steer": cmd_steer,
    "finite-demo": cmd_finite_demo,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="watertank",
        description="Spectral stabilization pipeline for the linearized water-tank system",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a configuration key (repeatable)",
    )
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.set, args.command)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, DomainError, GridMismatchError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except RegimeError as exc:
        print(f"regime violation: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
