"""Batch front door: flat key=value configs, deterministic CSV/JSON output.

Subcommands: spectrum, controllability, feedback, simulate, lyapunov,
steer, finite-demo, report. Each ``cmd_*`` computes its files and verdict;
:func:`main` writes the files once the computation is done, then applies the
verdict. Exit codes: 0 success (or expected pattern), 2 configuration error (a
bad key or value, an unreadable file, an argument outside its domain), 3 regime
violation, 4 numerical failure. Every nonzero exit prints one line to stderr. A
failed verdict (exit 3 or 4) writes its files first; an earlier failure leaves no outdir.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from watertank.backstepping import closed_loop_spectrum, target_distances
from watertank.control import controllability_report
from watertank.errors import (
    ConfigError,
    DomainError,
    GridMismatchError,
    NumericalError,
    RegimeError,
)
from watertank.feedback import (
    FeedbackLaw,
    feedback_coefficients,
    physical_feedback,
    synthesis_regime_check,
    zero_law,
)
from watertank.model import LAW_KEYS, Params, gamma_s_threshold
from watertank.simulate import (
    decay_rate_estimate,
    integrate_closed_loop,
    lyapunov_certificate,
    real_initial_datum,
    steer,
)
from watertank.spectral import (
    BcKind,
    ModeIndexed,
    build_basis,
    find_eigenvalues,
    unperturbed_eigenvalues,
    w_modes,
)

_PARAM_KEYS = {f.name: type(f.default) for f in dataclasses.fields(Params)}


def _unique(entries):
    """``entries``, refused if any repeats: a later one would silently drop or override it."""
    if repeated := sorted({e for e in entries if entries.count(e) > 1}):
        raise ConfigError(repeated)  # load_config names the key
    return entries


def _int_list(text):
    """``"0,1,-2"`` -> ``[0, 1, -2]``."""
    return _unique([int(s) for s in text.split(",")])


def _target_map(text):
    """``"1:1.0,3:0.5"`` -> ``{1: 1.0, 3: 0.5}``."""
    pairs = [part.split(":") for part in text.split(",")]
    amplitudes = [float(v) for _, v in pairs]
    if not all(map(math.isfinite, amplitudes)):
        raise ValueError(f"non-finite target amplitude in {text!r}")
    return dict(zip(_unique([int(n) for n, _ in pairs]), amplitudes))


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


def load_config(path, overrides, command):
    """Merge a key=value file with command-line overrides; reject keys the command does not read.

    An override replaces the file's value; a key set twice by the file, or twice
    on the command line, is refused, since the later setting would silently win.
    """
    allowed = {**_COMMANDS[command][1], "outdir": str}
    cfg = {}

    def absorb(key, value, origin, seen):
        key = key.strip()
        if key not in allowed:
            raise ConfigError(f"unknown configuration key {key!r} ({origin})")
        if key in seen:
            raise ConfigError(f"key {key!r} is set twice ({origin})")
        seen.add(key)
        try:
            cfg[key] = allowed[key](value.strip())
        except ConfigError as exc:  # from _unique: the entries that repeat
            raise ConfigError(f"repeated {key} {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc

    in_file, on_command_line = set(), set()
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
            absorb(k, v, f"{path}:{ln}", in_file)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        k, v = item.split("=", 1)
        absorb(k, v, "command line", on_command_line)
    return cfg


# the law block's per-mode key prefixes, each a complex FeedbackLaw field written as a
# ``<prefix>re``/``<prefix>im`` pair after ``n``: the file format of a law, in one place
_LAW_FIELDS = {"": "table", "tau_": "tau", "mu_": "eigenvalues", "b_": "i_nu_moments"}


def _law_doc(law) -> dict:
    """The ``law`` block of ``feedback.json``, which :func:`_read_law` reads back: every field a
    closed-loop run reads, and ``tau_n``, which no run reads. JSON writes each float by ``repr``,
    so it reads back exactly."""
    cols = {}
    for prefix, name in _LAW_FIELDS.items():
        values = getattr(law, name)
        cols[f"{prefix}re"], cols[f"{prefix}im"] = values.real.tolist(), values.imag.tolist()
    return {
        "mu_internal": law.params.mu,
        "nu": law.params.nu,
        "modes": [{"n": int(n), **{k: c[i] for k, c in cols.items()}}
                  for i, n in enumerate(law.n_list)],
    }


def _moment_doc(report, params: Params) -> dict:
    """``moment_report.json``: the report's items, with their four fitted constants gathered."""
    bounds, profile = report.items["moment_bounds"], report.items["profile_moments"]
    return {
        "gamma": params.gamma,
        "n_modes": params.n_modes,
        "items": report.items,
        "constants": {"c": bounds["lower_c"], "C": bounds["upper_C"], "m": profile["m"], "M": profile["M"]},
        "gamma_zero_even_modes": bounds["dead_modes"],
        "all_passed": report.all_passed,
    }


def _criterion_doc(result) -> dict:
    return {
        "id": result.cid,
        "title": result.title,
        "passed": result.passed,
        "elapsed_seconds": round(result.elapsed, 2),
        "details": result.details,
    }


def _read_law(path, params: Params) -> FeedbackLaw:
    """The law :func:`_law_doc` stored in ``feedback.json``, at this run's ``params``; no basis is built.

    The file's ``config`` must carry exactly the model parameters of this
    run: a law is only the law of the parameters it was built at. The
    synthesis regime is checked again at them; the law passed every other
    check of ``feedback_coefficients`` at those parameters when it was written.
    Only the ``_LAW_FIELDS`` columns are read, so an older file that also
    holds each mode's mass (``mass_re``/``mass_im``) or the table's singular
    part (``h_re``/``h_im``) reads as the same law.
    """
    try:
        stored = json.loads(Path(path).read_text())
        modes = stored["law"]["modes"]
        n = [m["n"] for m in modes]
        fields = {name: np.array([complex(m[f"{p}re"], m[f"{p}im"]) for m in modes], complex)
                  for p, name in _LAW_FIELDS.items()}
        mismatched = [k for k in LAW_KEYS if stored["config"][k] != getattr(params, k)]
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ConfigError(f"cannot read law file {path}: {exc!r}") from exc
    if mismatched:
        k = mismatched[0]
        raise ConfigError(
            f"law file {path} was built at {k} = {stored['config'][k]!r}, "
            f"not {getattr(params, k)!r}"
        )
    N = params.n_modes
    n_list = np.arange(-N, N + 1)
    if n != n_list.tolist():
        raise ConfigError(f"law file {path} does not list its modes as n = -{N}..{N}")
    if not all(np.all(np.isfinite(v)) for v in fields.values()):
        raise ConfigError(f"law file {path} has non-finite entries")
    synthesis_regime_check(params)
    return FeedbackLaw(params=params, n_list=n_list, **fields)


_CSV_BLOCK_ROWS = 128


def _write_csv(path: Path, columns: dict):
    """Write every CSV file of the CLI from named columns, each value as ``%.17g`` (a float keeps
    all 17 digits, an integer index prints as itself). A complex column ``name`` is written as
    ``re_name, im_name``, or as ``re, im`` when the name is empty. Rows are formatted
    ``_CSV_BLOCK_ROWS`` at a time, each block by one ``%`` on its flattened values, so a
    file holds one small block of rows as Python objects at a time."""
    cols = {}
    for name, col in columns.items():
        if np.iscomplexobj(col):
            sep = "_" if name else ""
            cols.update({f"re{sep}{name}": col.real, f"im{sep}{name}": col.imag})
        else:
            cols[name] = col
    line = ",".join(["%.17g"] * len(cols)) + "\n"
    data = list(cols.values())
    with path.open("w") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(0, len(data[0]), _CSV_BLOCK_ROWS):
            block = np.column_stack([c[i:i + _CSV_BLOCK_ROWS] for c in data])
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def _write(out: Path, files: dict):
    """Make ``out`` and write each file: CSV columns for a ``.csv`` name, else a JSON document."""
    out.mkdir(parents=True, exist_ok=True)
    for name, body in files.items():
        if name.endswith(".csv"):
            _write_csv(out / name, body)
        else:
            (out / name).write_text(json.dumps(body, indent=2) + "\n")


def _config_echo(cfg, params: Params) -> dict:
    echo = {k: getattr(params, k) for k in _PARAM_KEYS}
    echo.update(
        {k: v for k, v in cfg.items() if k not in _PARAM_KEYS and k != "outdir"}
    )
    return echo


def cmd_spectrum(cfg, params):
    N = params.n_modes
    n_list = np.arange(-N, N + 1)
    wanted = cfg.get("modes")
    if wanted:
        for n in wanted:  # the basis's own index check, before the build
            ModeIndexed.row(n, N)
        # the basis shoots the conservative spectrum; reuse it
        basis = build_basis(params, BcKind.CONSERVATIVE, N)
        ev_c = basis.eigenvalues
    else:
        ev_c = find_eigenvalues(params, BcKind.CONSERVATIVE, n_list)
    ev_d = find_eigenvalues(params, BcKind.DAMPED, n_list)
    d_c = ev_c - unperturbed_eigenvalues(BcKind.CONSERVATIVE, params, n_list)
    d_d = ev_d - unperturbed_eigenvalues(BcKind.DAMPED, params, n_list)
    drift_c = np.hypot(d_c.real, d_c.imag)  # np.abs would round some drifts differently
    files = {"spectrum_conservative.csv": {"n": n_list, "": ev_c, "drift": drift_c},
             "spectrum_damped.csv": {"n": n_list, "": ev_d, "drift": np.hypot(d_d.real, d_d.imag)}}
    if wanted:
        cols = {"x": basis.grid}
        for n in wanted:
            cols[f"f1_{n}"], cols[f"f2_{n}"] = basis.samples()[basis.index(n)]
        files["eigenfunctions.csv"] = cols
    drift_max = float(np.max(drift_c))
    files["spectrum_summary.json"] = {
        "tolerances": {"drift_bound": 0.25 / params.L},
        "drift_max_conservative": drift_max,
        "drift_within_quarter": bool(drift_max < 0.25 / params.L),
    }
    return files, None


def cmd_controllability(cfg, params):
    if params.gamma < 0:
        raise RegimeError("gamma must be >= 0 (synthesis regime is gamma > 0)")
    basis = build_basis(params, BcKind.CONSERVATIVE, params.n_modes)
    modes = w_modes(params, basis)
    report = controllability_report(params, basis, modes)
    files = {"moments.csv": {"n": report.n_list, "b": report.b, "a": report.a,
                             "i": report.i_mom, "mu": report.eigenvalues},
             "moment_report.json": _moment_doc(report, params)}
    if report.expected_gamma_zero_pattern() if params.gamma == 0 else report.all_passed:
        return files, None
    failed = [k for k, v in report.items.items() if not v["passed"]]
    return files, f"controllability items failed: {', '.join(failed)}"


def cmd_feedback(cfg, params):
    basis = build_basis(params, BcKind.CONSERVATIVE, params.n_modes, samples=False)  # the law reads moments
    law = feedback_coefficients(params, basis)
    phys = physical_feedback(law)
    c, C = law.growth_window()
    n_cmp = min(10, params.n_modes)
    eig = closed_loop_spectrum(law)
    targets, dist = target_distances(eig, params, n_cmp)
    doc = {
        "tolerances": {"reality_symmetry": 1e-10, "relative_spectrum_distance": 0.1},
        "growth_window": {"c": c, "C": C},
        "reality_symmetric": bool(law.reality_defect() < 1e-10),
        "closed_loop": {
            "max_real_part": float(eig.real.max()),
            "relative_distance_max": float(np.max(dist / np.abs(targets))),
            "relative_distance_pass": bool(np.max(dist / np.abs(targets)) < 0.1),
            "compared_modes": int(n_cmp),
        },
        "diagnostics": basis.diagnostics(),
        "law": _law_doc(law),
        "physical": {
            "mu_phys": phys.mu_phys,
            "mu_internal": law.params.mu,
            "u2_coefficient_re": float(phys.u2_coefficient.real),
            "u2_coefficient_im": float(phys.u2_coefficient.imag),
            "modes": [
                {"n": int(n), "re": float(v.real), "im": float(v.imag)}
                for n, v in zip(phys.n_list, phys.table)
            ],
        },
    }
    return {"closed_loop_spectrum.csv": {"": eig}, "feedback.json": doc}, None


def cmd_simulate(cfg, params):
    if cfg.get("law_file") and cfg.get("open_loop"):
        raise ConfigError("open_loop and law_file exclude each other: an open-loop run reads no law")
    if cfg.get("law_file"):
        law = _read_law(cfg["law_file"], params)
    else:
        basis = build_basis(params, BcKind.CONSERVATIVE, params.n_modes, samples=False)
        law = (zero_law if cfg.get("open_loop") else feedback_coefficients)(params, basis)
    init = real_initial_datum(np.random.default_rng(cfg.get("seed", 0)), params.n_modes)
    traj = integrate_closed_loop(params, law, init)
    files = {"trajectory.csv": {
        "t": traj.times,
        **{f"abs_c_{int(n)}": c for n, c in zip(law.n_list, np.abs(traj.coeffs).T)},
        "zeta0": traj.zeta0, "norm_l2": traj.norm_l2, "norm_da": traj.norm_da,
        "mass": traj.mass, "u": traj.control,
    }}
    window = cfg.get("fit_window")
    if window is None:
        b = min(15.0 / params.mu, params.t_final)
        window = (min(5.0 / params.mu, 0.5 * b), b)
    rate, r2 = decay_rate_estimate(traj, "da", window)
    files["simulate_summary.json"] = {
        "tolerances": {"mass_drift": 1e-6},
        "fit_window": list(window),
        "fitted_rate": rate,
        "r_squared": r2,
        "mass_drift": traj.mass_drift,
        "mass_conserved": bool(traj.mass_drift < 1e-6),
        "open_loop": bool(cfg.get("open_loop")),
    }
    return files, None


def cmd_lyapunov(cfg, params):
    lam = cfg.get("lam", params.mu / 2.0)
    gs = gamma_s_threshold(params, lam)
    if params.gamma >= gs:
        raise RegimeError(f"gamma = {params.gamma} >= gamma_s(lambda) = {gs:.6g}")
    cert = lyapunov_certificate(params, lam)
    files = {"eta_xi.csv": {"x": cert.grid, "eta": cert.eta, "xi": cert.xi,
                            "theta1": cert.theta1, "theta2": cert.theta2}}
    files["lyapunov_certificate.json"] = {
        "tolerances": {"eta_terminal": 1.0},
        "lambda": lam,
        "gamma_s": gs,
        "feasible": bool(cert.feasible),
        "eta_L": float(cert.eta[-1]),
        "eta_below_xi": cert.eta_below_xi,
    }
    if cert.feasible:
        return files, None
    why = (f"eta(L) = {cert.eta[-1]:.6g} > 1" if cert.blowup_x is None
           else f"eta blows up at x = {cert.blowup_x:.6g}")
    return files, RegimeError(f"Lyapunov certificate infeasible: {why}")


def cmd_steer(cfg, params):
    if params.gamma <= 0:
        raise RegimeError("steering requires gamma > 0")
    target = cfg.get("target", {1: 1.0})
    scale = max(abs(v) for v in target.values())
    if scale == 0:
        raise ConfigError("every target amplitude is zero: no terminal error to measure")
    basis = build_basis(params, BcKind.CONSERVATIVE, params.n_modes)
    # steering is linear in the target: solve for it over its largest
    # amplitude, so no amplitude reaches the ends of the float range inside
    sig, traj, err, duals = steer(params, w_modes(params, basis),
                                  {n: v / scale for n, v in target.items()})
    with np.errstate(over="ignore"):  # a control past the float range is refused below
        u = (sig.u.view(float) * scale).view(complex)  # a complex product would add 0 * the other part
    summary = {
        "target": {str(k): v for k, v in target.items()},
        "terminal_relative_error": err,
        "terminal_error_pass": bool(err < 5e-2),
        "mass_drift": traj.mass_drift * scale,
        "control_l2_norm": sig.l2_norm() * scale,
        "dual_gram_condition": duals.gram_condition,
    }
    if not (np.all(np.isfinite(u)) and math.isfinite(summary["mass_drift"] + summary["control_l2_norm"])):
        raise ConfigError(f"target amplitude {scale:g} puts the control past the float range")
    return {"control.csv": {"t": sig.t, "u": u}, "steer_summary.json": summary}, None


def cmd_finite_demo(cfg, params):
    from watertank.finite_dim import placement_mismatch, random_backstep_pairs  # no other command reads it

    count = cfg.get("count", 25)
    dim_max = cfg.get("dim_max", 6)
    if count < 1:
        raise ConfigError("finite-demo needs count >= 1")
    draws = random_backstep_pairs(np.random.default_rng(cfg.get("seed", 0)), dim_max)
    runs = [
        {
            "n": pa.n,
            "spectrum_mismatch": placement_mismatch(pa, pt, K),
            "cond_T": float(np.linalg.cond(T)),
        }
        for pa, pt, T, K in itertools.islice(draws, count)
    ]
    worst = max(r["spectrum_mismatch"] for r in runs)
    doc = {
        "config": {"seed": cfg.get("seed", 0), "count": count, "dim_max": dim_max},
        "tolerances": {"spectrum_mismatch": 1e-8},
        "max_spectrum_mismatch": worst,
        "all_within_tolerance": bool(worst < 1e-8),
        "runs": runs,
    }
    return {"finite_demo.json": doc}, None


def cmd_report(cfg, params):
    from watertank import acceptance  # no other command reads it

    wanted = cfg.get("criteria")
    if wanted is not None:
        unknown = sorted(set(wanted) - set(acceptance.CRITERIA))
        if unknown:
            raise ConfigError(f"unknown criteria {unknown}")
    results = acceptance.run_all(wanted)
    peaks = {r.lane: r.lane_peak_rss_mb for r in results}
    doc = {
        "lanes": len(peaks),  # >1: the elapsed times overlapped
        "lane_peak_rss_mb": [peaks[lane] for lane in range(len(peaks))],
        "criteria": [_criterion_doc(r) for r in results],
        "all_passed": all(r.passed for r in results),
    }
    for r in results:
        print(f"criterion {r.cid}: {'PASS' if r.passed else 'FAIL'} - {r.title}")
    red = [r.cid for r in results if not r.passed]
    return {"acceptance_report.json": doc}, f"acceptance criteria failed: {red}" if red else None


# each command's handler and the keys it reads besides ``outdir``; the six model commands
# read every Params field, and main builds their Params and stamps their config echo
_COMMANDS = {
    "spectrum": (cmd_spectrum, {**_PARAM_KEYS, "modes": _int_list}),
    "controllability": (cmd_controllability, _PARAM_KEYS),
    "feedback": (cmd_feedback, _PARAM_KEYS),
    "simulate": (cmd_simulate, {**_PARAM_KEYS, "seed": _seed, "open_loop": int, "law_file": str,
                                "fit_window": _window}),
    "lyapunov": (cmd_lyapunov, {**_PARAM_KEYS, "lam": float}),
    "steer": (cmd_steer, {**_PARAM_KEYS, "target": _target_map}),
    "finite-demo": (cmd_finite_demo, {"seed": _seed, "count": int, "dim_max": int}),
    "report": (cmd_report, {"criteria": _int_list}),
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
        handler, keys = _COMMANDS[args.command]
        params = None
        if _PARAM_KEYS.keys() <= keys.keys():  # the six model commands
            params = Params(**{k: cfg[k] for k in _PARAM_KEYS if k in cfg})
        files, failure = handler(cfg, params)
        if params is not None:
            echo = _config_echo(cfg, params)
            files = {name: body if name.endswith(".csv") else {"config": echo, **body}
                     for name, body in files.items()}
        out = Path(cfg.get("outdir", "."))
        try:
            _write(out, files)
        except OSError as exc:
            raise ConfigError(f"cannot write to outdir {str(out)!r}: {exc}") from exc
        if isinstance(failure, Exception):
            raise failure
        if failure:
            print(failure, file=sys.stderr)
            return 4
        return 0
    except (ConfigError, DomainError, GridMismatchError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except RegimeError as exc:
        print(f"regime violation: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"numerical failure: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 4


def entry() -> None:
    """The ``watertank`` command: :func:`main`, after freezing every object made so far.

    ``gc.freeze()`` moves the import-time objects, numpy's among them, to the
    permanent generation, so no collection in the run or at exit walks them,
    and a forked lane's collections leave their pages shared. :func:`main`
    stays free of it, since tests call it in process.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
