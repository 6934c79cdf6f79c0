"""Run one workload under several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload ensemble_n41 --seeds 1-10 [--trace 0]

For each metric it prints the median over the runs and the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound in BENCHMARK.json. Runs are
sequential; each run's info and result lines are kept in ``.bench_work/spread-*.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(spec: str):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    log = ROOT / ".bench_work" / f"spread-{args.workload}-trace{args.trace}.jsonl"
    log.parent.mkdir(exist_ok=True)
    values: dict = {}
    with log.open("a") as fh:
        for seed in seeds(args.seeds):
            info, out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            ).stdout.splitlines()[-2:]
            fh.write(info + "\n" + out + "\n")
            result = json.loads(out)
            print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']}",
                  {k: round(m["value"], 4) for k, m in result["metrics"].items()}, flush=True)
            for k, m in result["metrics"].items():
                values.setdefault(k, []).append(m["value"])
    for k, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        print(f"{k:45s} median {med:.6g}  spread {spread:.4f}  bound {bounds.get(k)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
