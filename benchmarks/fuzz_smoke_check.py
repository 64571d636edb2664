#!/usr/bin/env python3
"""CI fuzz gate: the differential harness must pass clean and catch breakage.

This script is the blocking ``fuzz`` CI job.  It runs two phases:

1. **Clean sweep** — a bounded seeded ``run_fuzz`` (default 15 cases,
   seed 0) over generated corpus machines; every cross-engine invariant
   (compiled==legacy detections, incremental==reference scores, KISS2
   round-trip digests, warm==cold cache) must hold on every case,
   including the >=200-state tier.
2. **Mutation smoke** — the same harness with ``--mutate
   engine-legacy-drop`` (a deliberately broken legacy fault simulator)
   and with ``--mutate engine-cone-drop`` (a compiled fault simulator
   whose fanout cones lose their last gate) must *fail*, emit a minimized
   repro case, and that case must replay deterministically: failing with
   the mutation active, passing without.
   A harness that cannot catch a broken engine is worse than no harness,
   so this phase gates the job exactly like the clean sweep.

Usage::

    python benchmarks/fuzz_smoke_check.py --out BENCH_fuzz.json

Exit code 0 when both phases pass; 1 with a diagnostic otherwise.  The
JSON report (written even on failure) embeds the full ``repro.fuzz/1``
reports of both phases and is uploaded as a CI artifact, so a red run
ships its own minimized repro case.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.corpus import replay_case, run_fuzz  # noqa: E402  (path bootstrap)

SMOKE_MUTATIONS = ("engine-legacy-drop", "engine-cone-drop")


def check(report: Dict[str, Any], name: str, ok: bool, detail: str) -> bool:
    report["checks"].append({"name": name, "ok": bool(ok), "detail": detail})
    print(f"{'PASS' if ok else 'FAIL'}: {name} — {detail}")
    return bool(ok)


def smoke_mutation(report: Dict[str, Any], mutation: str, cases: int) -> bool:
    """One broken engine must be caught, minimized and replayed."""
    started = time.perf_counter()
    mutated = run_fuzz(cases=cases, seed=0, mutate=mutation)
    report["mutated"][mutation] = mutated.to_dict()
    ok = check(report, f"{mutation}: mutation-caught", not mutated.ok,
               f"{mutated.failed}/{len(mutated.outcomes)} cases flagged the "
               f"broken engine in {time.perf_counter() - started:.1f}s")

    entry = mutated.failures[0] if mutated.failures else None
    minimized = entry.get("minimized") if entry else None
    ok &= check(report, f"{mutation}: minimized-case-emitted",
                bool(minimized) and minimized.get("schema") == "repro.fuzz/1",
                f"minimized spec: {minimized.get('spec') if minimized else None}")

    if minimized:
        replayed = replay_case(entry)
        ok &= check(report, f"{mutation}: repro-replays-failure",
                    replayed["status"] == "fail",
                    f"replay with stored mutation -> {replayed['status']}")
        healthy = replay_case({**minimized, "mutation": None})
        ok &= check(report, f"{mutation}: repro-passes-clean",
                    healthy["status"] == "pass",
                    f"replay without mutation -> {healthy['status']}")
    else:
        ok &= check(report, f"{mutation}: repro-replays-failure", False,
                    "no minimized case to replay")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cases", type=int, default=15,
                        help="cases of the clean sweep (seed 0)")
    parser.add_argument("--mutation-cases", type=int, default=3,
                        help="cases of each mutation smoke run")
    parser.add_argument("--out", default="BENCH_fuzz.json",
                        help="JSON report path (CI artifact)")
    args = parser.parse_args()

    report: Dict[str, Any] = {
        "schema": "repro.fuzz-bench/1",
        "checks": [],
        "cases": args.cases,
        "mutations": list(SMOKE_MUTATIONS),
        "mutated": {},
    }
    ok = True

    # ---- phase 1: clean sweep ------------------------------------------
    started = time.perf_counter()
    clean = run_fuzz(cases=args.cases, seed=0,
                     progress=lambda line: print(f"  {line}"))
    report["clean"] = clean.to_dict()
    ok &= check(report, "clean-sweep", clean.ok,
                f"{clean.passed}/{len(clean.outcomes)} cases passed, "
                f"max {clean.max_states()} states, "
                f"{time.perf_counter() - started:.1f}s")

    # ---- phase 2: mutation smoke ---------------------------------------
    for mutation in SMOKE_MUTATIONS:
        ok &= smoke_mutation(report, mutation, args.mutation_cases)

    report["ok"] = bool(ok)
    Path(args.out).write_text(json.dumps(report, indent=2))
    print(f"report written to {args.out}")
    if not ok:
        print("FUZZ SMOKE CHECK FAILED", file=sys.stderr)
        return 1
    print("fuzz check passed: all invariants hold clean, and a broken "
          "engine is caught with a replayable minimized case")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
