import json
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from watertank import cli, spectral
from watertank.cli import main

FAST = [
    "--set", "n_modes=4",
    "--set", "grid_points=257",
    "--set", "t_final=2.0",
]


def run(args, tmp_path):
    return main(args + ["--set", f"outdir={tmp_path}"])


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

    def test_bad_value_rejected(self, tmp_path):
        code = run(["spectrum", "--set", "gamma=abc"], tmp_path)
        assert code == 2

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_format_is_unknown(self, command, tmp_path, capsys):
        code = run([command, "--set", "format=x"], tmp_path)
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown configuration key 'format'" in err and err.count("\n") == 1


class TestBadInput:
    @pytest.mark.parametrize(
        "args",
        [
            ["lyapunov", "--set", "lam=5"],
            ["steer", "--set", "gamma=0.05", "--set", "target=1"],
            ["steer", "--set", "gamma=0.05", "--set", "target=9:1.0"],
            ["steer", "--set", "gamma=0.05", "--set", "target=1:nan"],
            ["spectrum", "--set", "modes=x"],
            ["spectrum", "--set", "modes=0,9"],
            ["simulate", "--set", "law_file={tmp}/missing.json"],
            ["simulate", "--set", "law_file={tmp}/nan_law.json"],
            ["simulate", "--set", "law_file={tmp}/run.cfg"],
            ["simulate", "--set", "fit_window=1"],
            ["report", "--set", "criteria=13"],
            ["spectrum", "--config", "{tmp}/missing.cfg"],
            ["finite-demo", "--set", "count=0"],
            ["finite-demo", "--set", "dim_max=1"],
            ["finite-demo", "--set", "dim_max=13", "--set", "count=1"],
            ["finite-demo", "--set", "seed=-1"],
            ["simulate", "--set", "seed=-1"],
            ["simulate", "--set", "law_file={tmp}/law.json", "--set", "gamma=0.045"],
            ["simulate", "--set", "law_file={tmp}/law.json", "--set", "mu=3"],
            ["spectrum", "--set", "ode_tol=1e-9"],
            ["steer", "--set", "gamma=0.05", "--set", "target=1:0"],
        ],
    )
    def test_exit2_with_one_line(self, args, tmp_path, capsys):
        # both law files carry the config of a run at the FAST defaults
        config = {"L": 1.0, "gamma": 0.03, "mu": 2.0, "nu": 0.5, "n_modes": 4,
                  "grid_points": 257}
        for name, bad in (("law.json", None), ("nan_law.json", 2)):
            modes = [{"n": n, "re": float("nan") if n == bad else 1.0, "im": 0.0}
                     for n in range(-4, 5)]
            (tmp_path / name).write_text(json.dumps({"config": config, "law": {"modes": modes}}))
        (tmp_path / "run.cfg").write_text("gamma = 0.03\n")
        args = [a.replace("{tmp}", str(tmp_path)) for a in args]
        code = run(args + FAST, tmp_path)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["spectrum", "feedback"])
    @pytest.mark.parametrize("key", [k for k, kind in cli._PARAM_KEYS.items() if kind is float])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_parameter_exit2(self, command, key, value, tmp_path, capsys):
        code = run([command] + FAST + ["--set", f"{key}={value}"], tmp_path)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error:") and err.count("\n") == 1


def test_import_skips_unused_scipy_modules():
    # a fresh process, so no other test's imports count
    src = str(Path(cli.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import watertank.cli; "
            "print([m for m in ('scipy.interpolate', 'scipy.optimize') if m in sys.modules])")
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

    def test_negative_gamma_rejected(self, tmp_path):
        code = run(["controllability", "--set", "gamma=-0.05"] + FAST, tmp_path)
        assert code == 3


class TestFeedbackCommand:
    def test_json_schema(self, tmp_path):
        code = run(["feedback", "--set", "gamma=0.03"] + FAST, tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "feedback.json").read_text())
        mode = doc["law"]["modes"][0]
        assert set(mode) == {"n", "re", "im", "tau_re", "tau_im", "h_re", "h_im"}
        assert doc["physical"]["mu_internal"] == pytest.approx(2.0)

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
        assert run(["feedback", "--set", "gamma=0.03"] + FAST, tmp_path) == 0
        code = run(
            [
                "simulate", "--set", "gamma=0.03",
                "--set", f"law_file={tmp_path}/feedback.json",
            ]
            + FAST,
            tmp_path,
        )
        assert code == 0


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
