"""Steadiness check: two sets of runs per workload, compared against the bounds.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --runs 10 [--workloads fleet-http,...] [--out runs.json]

Each workload runs ``--runs`` times with seeds ``first-seed ...`` (set A)
and again with the next ``--runs`` seeds (set B), each run a separate
``run.py`` process.  For every end-to-end metric the command prints each
set's median and quartiles, the spread (third minus first quartile over
the median), and how far set B's median moved from set A's in the worse
direction — all against the metric's bound in ``BENCHMARK.json``.  The
spread of ``setup_s`` is reported but not held to the bound.  Exit code 0
when every spread and shift is within its bound and both sets fail the
same share of operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv: List[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None, help="write every run's result here")
    args = parser.parse_args(argv)

    ok = True
    record: Dict[str, Any] = {}
    for workload in args.workloads.split(","):
        sets = []
        for offset in (0, args.runs):
            seeds = range(args.first_seed + offset, args.first_seed + offset + args.runs)
            sets.append([one_run(workload, seed, args.seconds) for seed in seeds])
        record[workload] = sets
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        print(f"\n{workload}: failed share A {shares[0]:.4f}  B {shares[1]:.4f}")
        ok &= shares[0] == shares[1] and all(r["correct"] for s in sets for r in s)
        print(f"  {'metric':22s} {'set':3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'shift':>7s} {'bound':>6s}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in s]) for s in sets]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            base = stats[0]["median"]
            shift = sign * (stats[1]["median"] - base) / base if base else 0.0
            for label, st in zip("AB", stats):
                within = st["spread"] <= bound or name == "setup_s"
                ok &= within
                print(f"  {name:22s} {label:3s} {st['median']:12.4f} {st['q1']:12.4f} "
                      f"{st['q3']:12.4f} {st['spread']:7.3f} "
                      f"{shift if label == 'B' else 0.0:7.3f} {bound:6.2f}"
                      f"{'' if within else '  SPREAD OVER BOUND'}")
            if shift > bound:
                ok = False
                print(f"  {name}: set B median worse than set A by {shift:.3f} > {bound}")
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
