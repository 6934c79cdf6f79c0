import json
import math
import os
import re
import resource
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from watertank import acceptance, cli, spectral
from watertank.cli import main
from watertank.feedback import FeedbackLaw, feedback_coefficients
from watertank.model import LAW_KEYS, Params
from watertank.simulate import integrate_closed_loop

FAST = [
    "--set", "n_modes=4",
    "--set", "grid_points=257",
    "--set", "t_final=2.0",
]


def run(args, tmp_path):
    return main(args + ["--set", f"outdir={tmp_path}"])


def test_write_csv_columns(tmp_path):
    path = tmp_path / "x.csv"
    # a complex column splits into re_/im_ columns, an unnamed one into re, im;
    # an integer index prints as itself and -0.0 keeps its sign
    cli._write_csv(path, {"n": np.array([-3, 0]), "x": np.array([1 + 2j, complex(-0.0, -0.5)]),
                          "": np.array([complex(0.1, -0.0), 2.0]), "y": np.array([-0.0, 1 / 3])})
    assert path.read_text() == (
        "n,re_x,im_x,re,im,y\n"
        "-3,1,2,0.10000000000000001,-0,-0\n"
        "0,-0,-0.5,2,0,0.33333333333333331\n"
    )


def test_write_csv_in_blocks(tmp_path):
    # more rows than one block: the same bytes as formatting row by row
    rows = 2 * cli._CSV_BLOCK_ROWS + 7
    rng = np.random.default_rng(1)
    x, z = rng.standard_normal(rows), rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    path = tmp_path / "x.csv"
    cli._write_csv(path, {"k": np.arange(rows), "x": x, "z": z})
    want = "k,x,re_z,im_z\n" + "".join(
        "%.17g,%.17g,%.17g,%.17g\n" % (k, x[k], z[k].real, z[k].imag) for k in range(rows))
    assert path.read_text() == want


def _readme_keys():
    """README's table of the keys each command reads besides ``outdir``, as ``{command: keys}``."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    table = text.split("| command | keys besides `outdir` |\n")[1].split("\n\n")[0]
    keys = {}
    for row in table.splitlines()[1:]:
        commands, read = row.strip("|").split("|")
        params = set(cli._PARAM_KEYS) if "the parameter keys" in read else set()
        keys.update({c: params | set(re.findall(r"`([^`]+)`", read))
                     for c in re.findall(r"`([^`]+)`", commands)})
    return keys


def test_commands_declared_once():
    # each cmd_* function handles exactly one command, and README's table lists its keys
    handlers = Counter(handler for handler, _ in cli._COMMANDS.values())
    assert handlers == Counter(f for name, f in vars(cli).items() if name.startswith("cmd_"))
    assert _readme_keys() == {c: set(keys) for c, (_, keys) in cli._COMMANDS.items()}


@pytest.mark.parametrize("args, code", [(["spectrum", "--set", "modes=9"], 2),
                                         (["feedback", "--set", "mu=1000"], 3)])
def test_failure_before_output_leaves_no_outdir(args, code, tmp_path, capsys):
    # the files are written once the computation is done, so a run refused
    # before then does not make its outdir
    out = tmp_path / "out"
    assert run(args + FAST, out) == code
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


def test_spectrum_mode_refused_before_the_build(tmp_path, capsys, monkeypatch):
    # the basis's own message for an out-of-range mode, before any shooting
    monkeypatch.setattr(cli, "build_basis", None)  # a build would raise TypeError
    assert run(["spectrum", "--set", "modes=0,9"] + FAST, tmp_path) == 2
    assert capsys.readouterr().err == "configuration error: mode 9 outside -4..4\n"


def test_outdir_that_cannot_be_made_exit2(tmp_path, capsys):
    # an outdir below a plain file: one line and exit 2, not a traceback
    (tmp_path / "file").write_text("")
    assert run(["finite-demo", "--set", "count=1"], tmp_path / "file" / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot write to outdir") and err.count("\n") == 1


# each model command with the non-Params keys it was given, as its JSON echoes them
CONFIG_ECHO = [
    (["spectrum", "--set", "gamma=0.05", "--set", "modes=0,1"], {"modes": [0, 1]}),
    (["controllability", "--set", "gamma=0.05"], {}),
    (["feedback", "--set", "gamma=0.03"], {}),
    (["simulate", "--set", "gamma=0.03", "--set", "seed=3", "--set", "fit_window=0.5:1.5"],
     {"seed": 3, "fit_window": [0.5, 1.5]}),
    (["lyapunov", "--set", "gamma=0.03", "--set", "lam=1.0"], {"lam": 1.0}),
    (["steer", "--set", "gamma=0.05", "--set", "target=1:1.0"], {"target": {"1": 1.0}}),
]


@pytest.mark.parametrize("args, extra", CONFIG_ECHO, ids=[a[0] for a, _ in CONFIG_ECHO])
def test_config_echo_opens_every_json(args, extra, tmp_path):
    # every JSON file opens with the run's Params fields, then the other keys set
    assert run(args + FAST, tmp_path) == 0
    gamma = float(args[2].split("=")[1])
    want = {**asdict(Params(gamma=gamma, n_modes=4, grid_points=257, t_final=2.0)),
            **extra}
    docs = [json.loads(path.read_text()) for path in sorted(tmp_path.glob("*.json"))]
    assert docs
    for doc in docs:
        assert next(iter(doc)) == "config"
        assert doc["config"] == want


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        code = run(["spectrum", "--set", "bogus_key=1"], tmp_path)
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma 0.05\n")
        code = run(["spectrum", "--config", str(cfg)], tmp_path)
        assert code == 2

    def test_config_file_with_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# run configuration\ngamma = 0.0\nn_modes = 4\ngrid_points = 257\n"
        )
        code = run(["spectrum", "--config", str(cfg)], tmp_path)
        assert code == 0

    def test_command_line_overrides_the_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 0.03\n")
        code = run(["spectrum", "--config", str(cfg), "--set", "gamma=0.05"] + FAST, tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "spectrum_summary.json").read_text())
        assert doc["config"]["gamma"] == 0.05

    def test_bad_value_rejected(self, tmp_path):
        code = run(["spectrum", "--set", "gamma=abc"], tmp_path)
        assert code == 2

    @pytest.mark.parametrize(
        "command, key",
        [(c, k) for c in ("report", "finite-demo") for k in cli._PARAM_KEYS]
        + [(c, "seed") for c in sorted(set(cli._COMMANDS) - {"simulate", "finite-demo"})],
    )
    def test_key_of_no_use_to_the_command_rejected(self, command, key, tmp_path, capsys):
        # report and finite-demo build no Params; only simulate and finite-demo draw from a seed
        code = run([command, "--set", f"{key}=1"], tmp_path)
        err = capsys.readouterr().err
        assert code == 2
        assert f"unknown configuration key {key!r}" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_format_is_unknown(self, command, tmp_path, capsys):
        code = run([command, "--set", "format=x"], tmp_path)
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown configuration key 'format'" in err and err.count("\n") == 1


# each case with a text its message must hold: its own key or value
BAD_INPUT = [
    (["lyapunov", "--set", "lam=5"], "lambda must lie in (0, mu)"),
    (["steer", "--set", "gamma=0.05", "--set", "target=1"], "'target': '1'"),
    (["steer", "--set", "gamma=0.05", "--set", "target=9:1.0"], "mode 9 outside -4..4"),
    (["steer", "--set", "gamma=0.05", "--set", "target=1:nan"], "'target': '1:nan'"),
    (["spectrum", "--set", "modes=x"], "'modes': 'x'"),
    (["spectrum", "--set", "modes=0,9"], "mode 9 outside -4..4"),
    (["simulate", "--set", "law_file={tmp}/missing.json"], "missing.json"),
    (["simulate", "--set", "law_file={tmp}/nan_law.json"], "nan_law.json has non-finite"),
    (["simulate", "--set", "law_file={tmp}/run.cfg"], "run.cfg"),
    (["simulate", "--set", "fit_window=1"], "'fit_window': '1'"),
    (["report", "--set", "criteria=13"], "unknown criteria [13]"),
    (["spectrum", "--config", "{tmp}/missing.cfg"], "missing.cfg"),
    (["finite-demo", "--set", "count=0"], "count >= 1"),
    (["finite-demo", "--set", "dim_max=1"], "dim_max must lie in 2..12, got 1"),
    (["finite-demo", "--set", "dim_max=13", "--set", "count=1"], "got 13"),
    (["finite-demo", "--set", "seed=-1"], "'seed': '-1'"),
    (["simulate", "--set", "seed=-1"], "'seed': '-1'"),
    (["simulate", "--set", "law_file={tmp}/law.json", "--set", "gamma=0.045"], "gamma = 0.03, not 0.045"),
    (["simulate", "--set", "law_file={tmp}/law.json", "--set", "mu=3"], "mu = 2.0, not 3.0"),
    (["spectrum", "--set", "ode_tol=1e-9"], "'ode_tol'"),
    (["steer", "--set", "gamma=0.05", "--set", "target=1:0"], "every target amplitude is zero"),
    (["steer", "--set", "gamma=0.05", "--set", "target=1:1.7e308"], "1.7e+308"),
    (["report", "--set", "criteria=11,11"], "repeated criteria [11]"),
    (["simulate", "--set", "law_file={tmp}/old_law.json"], "cannot read law file {tmp}/old_law.json"),
    (["simulate", "--set", "law_file={tmp}/huge_law.json"], "cannot read law file {tmp}/huge_law.json"),
    (["simulate", "--set", "open_loop=1", "--set", "law_file={tmp}/missing.json"],
     "open_loop and law_file exclude each other"),
    (["steer", "--set", "gamma=0.05", "--set", "target=1:1.0,1:0.5"], "repeated target [1]"),
    (["spectrum", "--set", "modes=1,1,-1"], "repeated modes [1]"),
    (["simulate", "--set", "law_file={tmp}/short_law.json"], "does not list its modes as n = -4..4"),
    (["spectrum", "--set", "gamma=0.03", "--set", "gamma=0.05"], "key 'gamma' is set twice (command line)"),
    (["spectrum", "--config", "{tmp}/twice.cfg"], "key 'gamma' is set twice ({tmp}/twice.cfg:3)"),
]


class TestBadInput:
    @pytest.mark.parametrize("args, named", BAD_INPUT, ids=[f"args{i}" for i in range(len(BAD_INPUT))])
    def test_exit2_with_one_line(self, args, named, tmp_path, capsys):
        # every law file carries the config of a run at the FAST defaults and the value
        # ``re2`` at n = 2; old_law.json only the keys written before the law block carried
        # the eigenvalues, moments and mode masses, the others every key the reader reads
        config = {"L": 1.0, "gamma": 0.03, "mu": 2.0, "nu": 0.5, "n_modes": 4,
                  "grid_points": 257}
        every = {f"{prefix}{part}": 0.0 for prefix in cli._LAW_FIELDS for part in ("re", "im")}
        old = {k: 0.0 for k in ("im", "tau_re", "tau_im", "h_re", "h_im")}
        for name, keys, re2 in (("law.json", every, 1.0), ("nan_law.json", every, float("nan")),
                                ("huge_law.json", every, 10**400), ("old_law.json", old, 1.0)):
            modes = [{"n": n, **keys, "re": re2 if n == 2 else 1.0} for n in range(-4, 5)]
            if name == "law.json":  # short_law.json drops mode 4
                (tmp_path / "short_law.json").write_text(
                    json.dumps({"config": config, "law": {"modes": modes[:-1]}}))
            (tmp_path / name).write_text(json.dumps({"config": config, "law": {"modes": modes}}))
        (tmp_path / "run.cfg").write_text("gamma = 0.03\n")
        (tmp_path / "twice.cfg").write_text("gamma = 0.03\nmu = 2.0\ngamma = 0.05\n")
        args = [a.replace("{tmp}", str(tmp_path)) for a in args]
        named = named.replace("{tmp}", str(tmp_path))
        # report and finite-demo take no model key: FAST would stop them at the key check
        code = run(args + (FAST if "n_modes" in cli._COMMANDS[args[0]][1] else []), tmp_path)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert named in err  # the case's own check refused it, not the key check

    @pytest.mark.parametrize("command", ["spectrum", "feedback"])
    @pytest.mark.parametrize("key", [k for k, kind in cli._PARAM_KEYS.items() if kind is float])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_parameter_exit2(self, command, key, value, tmp_path, capsys):
        code = run([command] + FAST + ["--set", f"{key}={value}"], tmp_path)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["feedback", "spectrum"])
def test_too_large_for_memory_exit4(command, tmp_path):
    # one child at a time, its address space capped at 1.5 GB: the search over
    # 200001 modes needs more, and a basis of them would need about 13 GB
    cap = 1536 << 20
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-m", "watertank", command, "--set", "n_modes=100000",
         "--set", f"outdir={tmp_path}"],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert out.returncode == 4, out.stderr
    assert out.stderr.startswith("numerical failure:") and out.stderr.count("\n") == 1
    assert "Traceback" not in out.stderr
    if command == "feedback":  # refused before any shooting
        assert "n_modes = 100000" in out.stderr and "grid_points" in out.stderr


def test_import_skips_unused_scipy_modules():
    # a fresh process, so no other test's imports count; no run-time path needs scipy
    src = str(Path(cli.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import watertank.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestSpectrumCommand:
    def test_gamma0_drift_zero(self, tmp_path):
        code = run(["spectrum", "--set", "gamma=0.0"] + FAST, tmp_path)
        assert code == 0
        rows = (tmp_path / "spectrum_conservative.csv").read_text().splitlines()
        assert rows[0] == "n,re,im,drift"
        drifts = [float(r.split(",")[3]) for r in rows[1:]]
        assert max(drifts) < 1e-9

    def test_perturbed_flagged_pass(self, tmp_path):
        code = run(["spectrum", "--set", "gamma=0.05"] + FAST, tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "spectrum_summary.json").read_text())
        assert doc["drift_within_quarter"] is True

    def test_overflowing_search_exit4(self, tmp_path, capsys):
        # at mu = 400 the damped shooting march overflows to nan residuals
        code = run(["spectrum", "--set", "mu=400"] + FAST, tmp_path)
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert not (tmp_path / "spectrum_damped.csv").exists()

    def test_drift_outside_regime_exit3(self, tmp_path, capsys):
        code = run(["spectrum", "--set", "gamma=0.6"] + FAST, tmp_path)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("regime violation:") and err.count("\n") == 1
        assert "drift" in err

    def test_drifted_roots_that_meet_exit3(self, tmp_path, capsys):
        # at mu = 4 the damped roots drift past 1/(2L) and the n = 0 and n = 1
        # roots meet: a regime violation, not a root collision
        code = run(["spectrum", "--set", "gamma=0.03", "--set", "mu=4"] + FAST, tmp_path)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("regime violation:") and err.count("\n") == 1
        assert "drift" in err

    def test_failed_search_that_drifted_exit3(self, tmp_path, capsys):
        # the damped n = 0 secant fails after wandering to the n = 1 root,
        # 2.83/L from its seed: a regime violation, not a numerical failure
        code = run(["spectrum", "--set", "gamma=1.9"] + FAST, tmp_path)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("regime violation:") and err.count("\n") == 1
        assert "drift" in err and "[0]" in err

    def test_eigenfunction_dump(self, tmp_path):
        code = run(
            ["spectrum", "--set", "gamma=0.05", "--set", "modes=0,1"] + FAST,
            tmp_path,
        )
        assert code == 0
        header = (tmp_path / "eigenfunctions.csv").read_text().splitlines()[0]
        assert "re_f1_0" in header and "im_f2_1" in header

    def test_eigenfunction_dump_shoots_each_kind_once(self, tmp_path, monkeypatch):
        # the basis dumped for ``modes`` supplies the conservative spectrum
        calls = Counter()
        real = spectral.find_eigenvalues

        def counted(params, kind, n_range):
            calls[kind] += 1
            return real(params, kind, n_range)

        monkeypatch.setattr(spectral, "find_eigenvalues", counted)
        monkeypatch.setattr(cli, "find_eigenvalues", counted)
        args = ["spectrum", "--set", "gamma=0.05"] + FAST
        assert run(args + ["--set", "modes=0,1"], tmp_path / "modes") == 0
        assert calls == {spectral.BcKind.CONSERVATIVE: 1, spectral.BcKind.DAMPED: 1}
        assert run(args, tmp_path / "plain") == 0
        name = "spectrum_conservative.csv"
        assert (tmp_path / "modes" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


class TestControllabilityCommand:
    def test_gamma0_expected_pattern_exit0(self, tmp_path):
        code = run(["controllability", "--set", "gamma=0.0"] + FAST, tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "moment_report.json").read_text())
        assert doc["all_passed"] is False
        assert doc["gamma_zero_even_modes"] == [-4, -2, 2, 4]

    def test_perturbed_all_pass(self, tmp_path):
        code = run(["controllability", "--set", "gamma=0.05"] + FAST, tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "moment_report.json").read_text())
        assert doc["all_passed"] is True

    @pytest.mark.parametrize("gamma", ["0.0", "0.05"])
    def test_gathered_fields_match_the_items(self, gamma, tmp_path):
        # the document's constants and dead-mode list are rebuilt from its items
        assert run(["controllability", "--set", f"gamma={gamma}"] + FAST, tmp_path) == 0
        doc = json.loads((tmp_path / "moment_report.json").read_text())
        bounds, profile = doc["items"]["moment_bounds"], doc["items"]["profile_moments"]
        assert doc["constants"] == {"c": bounds["lower_c"], "C": bounds["upper_C"],
                                    "m": profile["m"], "M": profile["M"]}
        assert list(doc["constants"]) == ["c", "C", "m", "M"]
        assert doc["gamma_zero_even_modes"] == bounds["dead_modes"]
        assert (doc["gamma"], doc["n_modes"]) == (float(gamma), 4)

    def test_negative_gamma_rejected(self, tmp_path):
        code = run(["controllability", "--set", "gamma=-0.05"] + FAST, tmp_path)
        assert code == 3

    def test_failed_items_named_exit4(self, tmp_path, capsys):
        # far outside the perturbative regime the family is ill-conditioned
        # and the eigenvalues leave the 1/(4L) window
        code = run(["controllability", "--set", "gamma=1.9"] + FAST, tmp_path)
        err = capsys.readouterr().err
        assert code == 4
        assert err.count("\n") == 1 and "riesz_gram" in err and "eigenvalue_drift" in err
        assert (tmp_path / "moment_report.json").exists()


class TestFeedbackCommand:
    def test_json_schema(self, tmp_path):
        code = run(["feedback", "--set", "gamma=0.03"] + FAST, tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "feedback.json").read_text())
        mode = doc["law"]["modes"][0]
        assert set(mode) == {"n", "re", "im", "tau_re", "tau_im", "h_re", "h_im",
                             "mu_re", "mu_im", "b_re", "b_im", "mass_re", "mass_im"}
        assert doc["physical"]["mu_internal"] == pytest.approx(2.0)

    def test_shooting_diagnostics(self, tmp_path):
        # the search's step counts, the store pass's worst residuals and the
        # orthonormality check's deviation; the law file still reads back into simulate
        assert run(["feedback", "--set", "gamma=0.03"] + FAST, tmp_path) == 0
        diag = json.loads((tmp_path / "feedback.json").read_text())["diagnostics"]
        assert diag["search_steps"] == [64, 128]
        for key in ("bc_residual_max", "ode_error_max"):
            assert math.isfinite(diag[key]) and 0.0 <= diag[key] <= 1e-9, key
        assert 0.0 <= diag["gram_deviation"] <= 1e-6
        law = ["--set", f"law_file={tmp_path}/feedback.json"]
        assert run(["simulate", "--set", "gamma=0.03"] + law + FAST, tmp_path) == 0

    def test_regime_violation_exit3(self, tmp_path):
        code = run(["feedback", "--set", "gamma=0.35"] + FAST, tmp_path)
        assert code == 3

    def test_unsolvable_spectrum_exit4(self, tmp_path, monkeypatch, capsys):
        # a doubled table leaves a Galerkin seed from which the closed-loop
        # characteristic equation cannot be solved
        real = cli.feedback_coefficients

        def doubled(params, basis):
            law = real(params, basis)
            return replace(law, table=2.0 * law.table)

        monkeypatch.setattr(cli, "feedback_coefficients", doubled)
        code = run(["feedback", "--set", "gamma=0.03"] + FAST, tmp_path)
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1


class TestSimulateCommand:
    def test_state_past_float_range_exit4(self, tmp_path, capsys):
        # over t_final = 1e300 the propagated state overflows, and over 1e50 at
        # N = 1 the powers of the step generator overflow inside the matrix
        # exponential: one line, no warning
        for i, args in enumerate([["--set", "n_modes=4", "--set", "grid_points=257",
                                   "--set", "t_final=1e300"],
                                  ["--set", "n_modes=1", "--set", "grid_points=257", "--set", "gamma=0",
                                   "--set", "open_loop=1", "--set", "t_final=1e50"]]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run(["simulate"] + args, tmp_path / str(i))
            err = capsys.readouterr().err
            assert code == 4 and not caught
            assert err == "numerical failure: propagated state is not finite\n"

    def test_deterministic_outputs(self, tmp_path):
        args = ["simulate", "--set", "gamma=0.03", "--set", "seed=3"] + FAST
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        assert run(args, d1) == 0
        assert run(args, d2) == 0
        assert (d1 / "trajectory.csv").read_bytes() == (
            d2 / "trajectory.csv"
        ).read_bytes()
        assert (d1 / "simulate_summary.json").read_bytes() == (
            d2 / "simulate_summary.json"
        ).read_bytes()

    def test_trajectory_csv_renders_each_value(self, tmp_path, monkeypatch):
        # one %-format per row gives the same bytes as formatting value by value
        trajs = []

        def recording(*args, **kwargs):
            trajs.append(integrate_closed_loop(*args, **kwargs))
            return trajs[-1]

        monkeypatch.setattr(cli, "integrate_closed_loop", recording)
        assert run(["simulate", "--set", "gamma=0.03"] + FAST, tmp_path) == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines(keepends=True)
        tr = trajs[0]
        rows = np.column_stack([
            tr.times, np.abs(tr.coeffs), tr.zeta0.real, tr.zeta0.imag, tr.norm_l2, tr.norm_da,
            tr.mass.real, tr.mass.imag, tr.control.real, tr.control.imag,
        ]).tolist()
        assert len(lines) == 1 + len(rows) and lines[0].count(",") == len(rows[0]) - 1
        assert lines[1:] == [",".join(f"{v:.17g}" for v in row) + "\n" for row in rows]

    def test_open_loop_flag(self, tmp_path):
        code = run(
            ["simulate", "--set", "gamma=0.03", "--set", "open_loop=1"] + FAST,
            tmp_path,
        )
        assert code == 0
        doc = json.loads((tmp_path / "simulate_summary.json").read_text())
        assert doc["open_loop"] is True
        assert doc["mass_drift"] < 1e-8

    def test_law_file_round_trip(self, tmp_path):
        # the stored law runs exactly as the law built afresh
        assert run(["feedback", "--set", "gamma=0.03"] + FAST, tmp_path) == 0
        args = ["simulate", "--set", "gamma=0.03", "--set", "seed=3"] + FAST
        law = ["--set", f"law_file={tmp_path}/feedback.json"]
        assert run(args + law, tmp_path / "stored") == 0
        assert run(args, tmp_path / "fresh") == 0
        assert (tmp_path / "stored" / "trajectory.csv").read_bytes() == (
            tmp_path / "fresh" / "trajectory.csv"
        ).read_bytes()

    def test_law_file_modes_out_of_order_exit2(self, tmp_path, capsys):
        # each row is the mode its n names: a reversed list would run the conjugate table
        assert run(["feedback", "--set", "gamma=0.03"] + FAST, tmp_path) == 0
        doc = json.loads((tmp_path / "feedback.json").read_text())
        doc["law"]["modes"].reverse()
        (tmp_path / "feedback.json").write_text(json.dumps(doc))
        law = ["--set", f"law_file={tmp_path}/feedback.json"]
        capsys.readouterr()
        assert run(["simulate", "--set", "gamma=0.03"] + law + FAST, tmp_path / "sim") == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: law file {tmp_path}/feedback.json does not list its modes as n = -4..4\n"

    def test_law_file_builds_no_basis(self, tmp_path, monkeypatch):
        assert run(["feedback", "--set", "gamma=0.03"] + FAST, tmp_path) == 0
        calls = []

        def spy(name):
            real = getattr(cli, name)
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        for name in ("build_basis", "feedback_coefficients"):
            monkeypatch.setattr(cli, name, spy(name))
        law = ["--set", f"law_file={tmp_path}/feedback.json"]
        assert run(["simulate", "--set", "gamma=0.03"] + law + FAST, tmp_path) == 0
        assert calls == []
        assert run(["simulate", "--set", "gamma=0.03"] + FAST, tmp_path) == 0
        assert calls == ["build_basis", "feedback_coefficients"]  # the spies see a fresh law

    def test_read_law_returns_every_field(self, tmp_path, basis_cache):
        params = Params(gamma=0.03, n_modes=4, grid_points=257)
        law = feedback_coefficients(params, basis_cache(params, spectral.BcKind.CONSERVATIVE, 4))
        config = {k: getattr(params, k) for k in LAW_KEYS}
        doc = json.loads(json.dumps(cli._law_doc(law)))
        (tmp_path / "feedback.json").write_text(json.dumps({"config": config, "law": doc}))
        got = cli._read_law(tmp_path / "feedback.json", params)
        assert got.params == law.params
        for f in fields(FeedbackLaw):
            if f.init and f.name != "params":
                assert np.array_equal(getattr(got, f.name), getattr(law, f.name)), f.name

    def test_out_of_regime_law_file_exit3(self, tmp_path, capsys):
        # a law file whose config is out of the synthesis regime is refused as feedback refuses it
        assert run(["feedback", "--set", "gamma=0.35"] + FAST, tmp_path / "fb") == 3
        refusal = capsys.readouterr().err
        assert run(["feedback", "--set", "gamma=0.03"] + FAST, tmp_path) == 0
        doc = json.loads((tmp_path / "feedback.json").read_text())
        doc["config"]["gamma"] = 0.35
        (tmp_path / "feedback.json").write_text(json.dumps(doc))
        law = ["--set", f"law_file={tmp_path}/feedback.json"]
        capsys.readouterr()
        assert run(["simulate", "--set", "gamma=0.35"] + law + FAST, tmp_path / "sim") == 3
        err = capsys.readouterr().err
        assert err == refusal
        assert err.startswith("regime violation: gamma = 0.35 is not below the feasibility threshold ")
        assert err.count("\n") == 1


class TestLyapunovCommand:
    def test_feasible_exit0(self, tmp_path):
        code = run(
            ["lyapunov", "--set", "gamma=0.03", "--set", "lam=1.0"] + FAST,
            tmp_path,
        )
        assert code == 0
        doc = json.loads((tmp_path / "lyapunov_certificate.json").read_text())
        assert doc["feasible"] is True
        assert doc["eta_below_xi"] is True

    def test_gamma_above_threshold_exit3(self, tmp_path, capsys):
        code = run(
            ["lyapunov", "--set", "gamma=0.42", "--set", "lam=1.9"] + FAST,
            tmp_path,
        )
        assert code == 3
        assert "gamma_s" in capsys.readouterr().err

    def test_infeasible_names_eta_L_exit3(self, tmp_path, capsys):
        code = run(["lyapunov", "--set", "gamma=-1.0", "--set", "lam=1.0"] + FAST, tmp_path)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("regime violation:") and err.count("\n") == 1
        assert "eta(L) = 1.00577" in err
        doc = json.loads((tmp_path / "lyapunov_certificate.json").read_text())
        assert doc["feasible"] is False
        assert (tmp_path / "eta_xi.csv").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["feedback", "--set", "mu=1000"],
        ["simulate", "--set", "mu=1000"],
        ["lyapunov", "--set", "mu=400", "--set", "lam=399"],
        # gamma < 0 passes the threshold; e^{2 lam L} then leaves the float range
        ["lyapunov", "--set", "gamma=-0.03", "--set", "mu=400", "--set", "lam=399"],
    ],
)
def test_large_lam_L_exit3(args, tmp_path, capsys):
    code = run(args + FAST, tmp_path)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("regime violation:") and err.count("\n") == 1


def test_weight_past_float_range_exit3(tmp_path, capsys):
    # at gamma = 0 the threshold has not underflowed yet, but e^{2 lam L} = e^720
    # is past the float range: the message says so instead of a blow-up at x = 0
    code = run(["lyapunov", "--set", "gamma=0", "--set", "mu=400", "--set", "lam=360"] + FAST, tmp_path)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("regime violation:") and err.count("\n") == 1
    assert "e^{2 lam L} = e^720 leaves the float range" in err and "blows up" not in err


class TestSteerCommand:
    def test_single_mode_summary(self, tmp_path):
        code = run(
            ["steer", "--set", "gamma=0.05", "--set", "target=1:1.0"] + FAST,
            tmp_path,
        )
        assert code == 0
        doc = json.loads((tmp_path / "steer_summary.json").read_text())
        assert doc["terminal_relative_error"] < 5e-2
        assert doc["mass_drift"] < 1e-6
        header = (tmp_path / "control.csv").read_text().splitlines()[0]
        assert header == "t,re_u,im_u"

    def test_gamma0_rejected(self, tmp_path):
        code = run(["steer", "--set", "gamma=0.0"] + FAST, tmp_path)
        assert code == 3

    @pytest.mark.parametrize("amplitude", [1e-300, 1e300])
    def test_extreme_amplitude_scales(self, amplitude, tmp_path):
        # the same relative error as a unit target, and the control scales with it
        unit, extreme = tmp_path / "unit", tmp_path / "extreme"
        args = ["steer", "--set", "gamma=0.05"] + FAST
        assert run(args + ["--set", "target=1:1.0"], unit) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(args + ["--set", f"target=1:{amplitude!r}"], extreme) == 0
        a, b = (json.loads((d / "steer_summary.json").read_text()) for d in (unit, extreme))
        assert b["terminal_relative_error"] == a["terminal_relative_error"]
        assert b["control_l2_norm"] == pytest.approx(a["control_l2_norm"] * amplitude, rel=1e-14)


class TestFiniteDemoCommand:
    def test_runs_and_reports(self, tmp_path):
        code = run(["finite-demo", "--set", "count=10", "--set", "seed=1"], tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "finite_demo.json").read_text())
        assert len(doc["runs"]) == 10
        assert doc["max_spectrum_mismatch"] < 1e-8


class TestReportCommand:
    def test_passing_subset(self, tmp_path, capsys):
        code = run(["report", "--set", "criteria=1,11"], tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "acceptance_report.json").read_text())
        assert doc["all_passed"] is True
        assert [c["id"] for c in doc["criteria"]] == [1, 11]
        out = capsys.readouterr().out
        assert "criterion 1: PASS" in out

    def test_red_criteria_named_exit4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(acceptance.CRITERIA, 1, ("always red", lambda: (False, {})))
        code = run(["report", "--set", "criteria=1,11"], tmp_path)
        err = capsys.readouterr().err
        assert code == 4
        assert err == "acceptance criteria failed: [1]\n"
        assert (tmp_path / "acceptance_report.json").exists()


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


SWEEP = [
    [command, "--set", setting]
    for command in sorted(set(cli._COMMANDS) - {"report"})
    for setting in ("mu=1000", "gamma=-1.9")
] + [
    ["lyapunov", "--set", "mu=400", "--set", "lam=399"],
    ["lyapunov", "--set", "gamma=-0.03", "--set", "mu=400", "--set", "lam=399"],
    ["lyapunov", "--set", "gamma=-1.0", "--set", "lam=1.0"],
    ["steer", "--set", "gamma=0.05", "--set", "target=1:1e-300"],
    ["steer", "--set", "gamma=0.05", "--set", "target=1:1e300"],
    ["steer", "--set", "gamma=0.05", "--set", "target=1:1.7e308"],
]


def test_extreme_sweep_exits_cleanly(tmp_path, capsys):
    # every subcommand at the edges of its parameters, in this process so no
    # child processes start: a known exit code, one stderr line on failure,
    # and no warning, NaN or Infinity on success
    t0 = time.perf_counter()
    for i, args in enumerate(SWEEP):
        out = tmp_path / str(i)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(args + FAST, out)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), args
        assert not caught, (args, [str(w.message) for w in caught])
        assert err.count("\n") == (code != 0) and "Traceback" not in err, (args, err)
        if code == 0:
            for path in out.glob("*.json"):
                json.loads(path.read_text(), parse_constant=_reject_constant)
    assert time.perf_counter() - t0 < 10.0
