"""Regenerate ``tests/snapshot.json`` from one ``acceptance.run_all()``.

    PYTHONPATH=src python tests/make_snapshot.py

The snapshot holds every numeric and boolean detail of the 12 criteria,
apart from the timing keys, as ``{cid: {path: value}}``; a path joins the
nested keys and list positions of a detail with ``/``.
``test_acceptance.py::test_details_match_snapshot`` compares a fresh run
against it. It records the details as they stand, criterion 9 red included,
and judges no criterion. A regeneration names in CHANGES.md every value that
moved, with its old and new value and why.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from watertank.acceptance import run_all

SNAPSHOT = Path(__file__).with_name("snapshot.json")
TIMING_KEYS = {"runtime_s"}  # wall-clock details, which differ from run to run


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


def main() -> None:
    SNAPSHOT.write_text(json.dumps(snapshot_values(run_all()), indent=1) + "\n")
    print(f"wrote {SNAPSHOT}")


if __name__ == "__main__":
    main()
