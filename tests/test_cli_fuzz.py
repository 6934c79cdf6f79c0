"""Hypothesis fuzz of the CLI's ``--set KEY=VALUE`` overrides, run in this process.

Each subcommand but ``report`` is drawn with keys that ``cli._COMMANDS``
declares for it, and one time in four a key of another subcommand that this
one does not read (it must be rejected).
Values mix valid, out-of-range, non-numeric, non-finite and extreme text.
``outdir`` and ``law_file`` are pinned under ``tmp_path``. Valid integers are
capped (``n_modes`` <= 64, ``grid_points`` <= 2049, ``count`` <= 30) so that
no draw asks for gigabytes or hours: the fuzz looks for unhandled input, not
for the limits of the machine. Every run must exit 0, 2, 3 or 4, print
exactly one stderr line when it fails and none when it succeeds, raise no
warning and no traceback, and write no NaN or Infinity into its JSON.
"""

import itertools
import json
import time
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_cli import FAST, _reject_constant
from watertank import cli

EXTREME = ["0", "-1", "1e-300", "1e300", "-1e300", "nan", "inf", "-inf", "abc", "", "1.5"]


def mostly(valid):
    """``valid`` three times in four, else one of the ``EXTREME`` texts."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else st.sampled_from(EXTREME))


def float_text(lo, hi):
    return mostly(st.floats(lo, hi).map(repr))


def int_text(lo, hi):
    return mostly(st.integers(lo, hi).map(str))


def joined(parts, sep=","):
    return mostly(st.lists(parts, min_size=1, max_size=4).map(sep.join))


MODE = st.integers(-70, 70).map(str)
VALUES = {
    "L": float_text(0.25, 4.0),
    "gamma": float_text(-0.5, 0.5),
    "mu": float_text(0.05, 10.0),
    "nu": float_text(-1.0, 1.0),
    "n_modes": int_text(-1, 64),
    "grid_points": mostly(st.integers(-1, 1024).map(lambda k: str(2 * k + 1))),
    "t_final": float_text(0.05, 20.0),
    "seed": int_text(-1, 2**32),
    "modes": joined(MODE),
    "open_loop": int_text(-1, 2),
    "fit_window": joined(float_text(-1.0, 20.0), sep=":"),
    "lam": float_text(-1.0, 10.0),
    "target": joined(st.tuples(MODE, float_text(-2.0, 2.0)).map(":".join)),
    "count": int_text(-1, 30),
    "dim_max": int_text(-1, 13),
}
COMMANDS = sorted(set(cli._COMMANDS) - {"report"})
KEYS = sorted({k for c in COMMANDS for k in cli._COMMANDS[c][1]})


@st.composite
def invocations(draw):
    """A command and up to four overrides: its own keys, and one time in four a key it does not read."""
    command = draw(st.sampled_from(COMMANDS))
    own = sorted(cli._COMMANDS[command][1])
    keys = draw(st.lists(st.sampled_from(own), max_size=4, unique=True))
    if draw(st.integers(0, 3)) == 0:
        keys.append(draw(st.sampled_from(sorted(set(KEYS) - set(own)))))
    return command, [(k, None if k == "law_file" else draw(VALUES[k])) for k in dict.fromkeys(keys)]


def test_every_key_is_drawn():
    assert set(KEYS) == set(VALUES) | {"law_file"}


def test_overrides_exit_cleanly(tmp_path, capsys):
    law_file = tmp_path / "law" / "feedback.json"
    assert cli.main(["feedback", *FAST, "--set", f"outdir={law_file.parent}"]) == 0
    runs = itertools.count()

    @settings(max_examples=150, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(invocations())
    def fuzz(invocation):
        command, pairs = invocation
        out = tmp_path / str(next(runs))
        args = [command]
        for key, value in pairs + [("outdir", str(out))]:
            args += ["--set", f"{key}={law_file if key == 'law_file' else value}"]
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(args)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), args
        assert not caught, (args, [str(w.message) for w in caught])
        assert err.count("\n") == (code != 0) and "Traceback" not in err, (args, err)
        if code == 0:
            for path in out.glob("*.json"):
                json.loads(path.read_text(), parse_constant=_reject_constant)

    t0 = time.perf_counter()
    fuzz()
    assert time.perf_counter() - t0 < 10.0
