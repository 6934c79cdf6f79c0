"""Regenerate ``tests/snapshot.json`` from one ``acceptance.run_all()`` and the CLI's files.

    PYTHONPATH=src python tests/make_snapshot.py

The snapshot has two parts. ``criteria`` holds every numeric and boolean
detail of the 12 criteria, apart from the timing keys, as
``{cid: {path: value}}``; a path joins the nested keys and list positions of
a detail with ``/``. ``commands`` holds, for the six model commands at the
tests' ``FAST`` settings and ``finite-demo`` at its defaults, each run in
this process, ``{command: {path: value}}``: the exit code, every numeric and
boolean leaf of each JSON file (``<file>/<path>``), and for each CSV column
its row count, min, max and sum of absolute values
(``<file>/<column>/rows`` and so on).
``test_acceptance.py::test_details_match_snapshot`` and
``::test_cli_files_match_snapshot`` compare fresh runs against it with
:func:`mismatches`. It records the values as they stand, criterion 9 red
included, and judges nothing. A regeneration names in CHANGES.md every
value that moved, with its old and new value and why.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from test_cli import FAST
from watertank import cli
from watertank.acceptance import run_all

SNAPSHOT = Path(__file__).with_name("snapshot.json")
TIMING_KEYS = {"runtime_s"}  # wall-clock details, which differ from run to run
# the command-line arguments of each recorded run, besides ``outdir``
CLI_RUNS = {**{c: FAST for c in ("spectrum", "controllability", "feedback", "simulate",
                                 "lyapunov", "steer")},
            "finite-demo": []}


def _leaves(value, path, out):
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, dict):
        for k, v in value.items():
            if not (path == "" and k in TIMING_KEYS):
                _leaves(v, f"{path}/{k}" if path else str(k), out)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _leaves(v, f"{path}/{i}", out)
    elif isinstance(value, (bool, int, float)):
        out[path] = value
    elif not isinstance(value, str):
        raise TypeError(f"detail {path!r} is neither a number, a boolean nor text: {value!r}")


def snapshot_values(results) -> dict:
    """``{str(cid): {path: value}}`` over every numeric and boolean detail of ``results``."""
    snapshot = {}
    for r in results:
        _leaves(r.details, "", snapshot.setdefault(str(r.cid), {}))
    return snapshot


def command_values(root: Path) -> dict:
    """``{command: {path: value}}`` over the ``CLI_RUNS``, each written under ``root / command``."""
    snapshot = {}
    for command, args in CLI_RUNS.items():
        out = root / command
        values = snapshot[command] = {"exit_code": cli.main([command, *args, "--set", f"outdir={out}"])}
        for path in sorted(out.iterdir()):
            if path.suffix == ".json":
                _leaves(json.loads(path.read_text()), path.name, values)
                continue
            header = path.read_text().splitlines()[0].split(",")
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            for name, col in zip(header, table.T):
                stats = {"rows": col.size, "min": col.min(), "max": col.max(), "abs_sum": np.abs(col).sum()}
                _leaves(stats, f"{path.name}/{name}", values)
    return snapshot


def mismatches(got, want, rtol=1e-9, atol=1e-12):
    """Paths where ``got`` differs from ``want``: booleans exactly, numbers to ``atol + rtol |want|``."""
    bad = [f"{path}: missing" for path in want.keys() - got.keys()]
    bad += [f"{path}: not in the snapshot" for path in got.keys() - want.keys()]
    for path in want.keys() & got.keys():
        g, w = got[path], want[path]
        if isinstance(g, bool) or isinstance(w, bool):
            same = g is w
        else:
            same = abs(g - w) <= atol + rtol * abs(w)
        if not same:
            bad.append(f"{path}: {g!r} against {w!r}")
    return sorted(bad)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        commands = command_values(Path(tmp))
    snapshot = {"criteria": snapshot_values(run_all()), "commands": commands}
    SNAPSHOT.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {SNAPSHOT}")


if __name__ == "__main__":
    main()
