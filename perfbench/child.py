"""Child-process entry points of the benchmark.

    python3 perfbench/child.py setup <workload>        # one set-up probe
    python3 perfbench/child.py cli <watertank args>    # one traced CLI call

A set-up probe prints the seconds from the start of this script until the
set-up is done. A traced CLI call records ``cli.import`` from the parent's
spawn time (``PERFBENCH_SPAWN_T``, on the shared monotonic clock) until
``import watertank.cli`` returns, then runs ``watertank.cli.main`` under a
``cli.<command>`` span with every layer wrapped, and writes its spans to
``PERFBENCH_SPANS``. Both modes expect ``PYTHONPATH`` to name the sources.
"""

from time import monotonic

T0 = monotonic()  # before any import the set-up pays for

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Recorder, clock, traced  # noqa: E402


def traced_cli(argv) -> int:
    spawn_t = float(os.environ["PERFBENCH_SPAWN_T"])
    rec = Recorder()
    from watertank import cli

    rec.add("cli.import", spawn_t, clock())
    try:
        with traced(rec), rec.span(f"cli.{argv[0]}"):
            return cli.main(argv)
    finally:
        Path(os.environ["PERFBENCH_SPANS"]).write_text(json.dumps(rec.dump()))


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        from workloads import WORKLOADS, import_cli

        (WORKLOADS[rest[0]].setup or import_cli)()
        print(clock() - T0)
        return 0
    if mode == "cli":
        return traced_cli(rest)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
