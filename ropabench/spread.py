"""Run the benchmark once per seed and summarise each metric's spread.

Usage, from the root of a checkout:

    python3 ropabench/spread.py --workloads audit publish --seeds 1-10 --seconds 30 \
        [--trace 0|1] [--out runs.json]

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  The per-command
figures a run prints on its ``#`` lines (``validate_s``, ``failed_frac``, ...)
are summarised the same way, under ``details``.  ``--out`` writes the
summaries and every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
_DETAIL_RE = re.compile(r"# (\w+) (-?\d+(?:\.\d+)?) ", re.M)


def seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / median if median else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(command, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                print(done.stderr, file=sys.stderr)
            result["details"] = {k: float(v) for k, v in _DETAIL_RE.findall(done.stdout)}
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        metrics = {
            name: dict(summary([r["metrics"][name]["value"] for r in runs]),
                       unit=runs[0]["metrics"][name]["unit"])
            for name in runs[0]["metrics"]
        }
        details = {
            name: summary([r["details"][name] for r in runs]) for name in runs[0]["details"]
        }
        for name, s in metrics.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{workload} {name}: median {s['median']:.5g} {s['unit']} "
                  f"(q1 {s['q1']:.5g}, q3 {s['q3']:.5g}, n {s['n']}) spread {spread}")
        report[workload] = {
            "metrics": metrics,
            "details": details,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "runs": runs,
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
