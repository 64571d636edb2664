#!/usr/bin/env python3
"""CI check: a repeated quick sweep is served entirely from the artifact cache.

Runs the quick Table 2/3 sweep twice against one content-addressed cache
directory and asserts, from the serialized stage timings:

* the first (cold) pass computed every cell and the second (warm) pass did
  **zero** assignment/excitation/minimisation/baseline stage work (every
  work stage reports ``cached: true``),
* both passes produced bit-identical Table 2/3 metrics, and
* the warm pass spent less wall-clock than the cold pass.

A third pass runs the same cells on another seed against the warm cache.
Only the MISR assignment of PST reads the seed, so that pass must
recompute every PST stage and serve every DFF/PAT stage from the cache,
with the cold pass's DFF/PAT metrics.  It runs without the Table 2
baseline, which is not a flow stage.

The serialized :class:`repro.flow.SweepResult` payloads are written next to
``--out`` so CI uploads them as artifacts (the JSON diff between two PRs is
the perf/metric trajectory of the sweep).

Run with::

    PYTHONPATH=src python benchmarks/sweep_cache_check.py [--out DIR]
        [--names a,b,c] [--trials N]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path
from typing import Optional

from repro.flow import ArtifactCache, Sweep, SweepResult


def run_pass(names, trials: Optional[int], cache: ArtifactCache, seed: int = 0) -> SweepResult:
    return Sweep(
        names,
        structures=("PST", "DFF", "PAT"),
        seeds=(seed,),
        random_trials=trials,
        random_seed=1991,
        cache=cache,
    ).run()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--names", default="dk512,ex4,modulo12",
                        help="comma-separated benchmark names of the quick sweep")
    parser.add_argument("--trials", type=int, default=2,
                        help="random encodings of the Table 2 baseline")
    parser.add_argument("--out", type=Path, default=Path("sweep_artifacts"),
                        help="directory for the serialized sweep JSON artifacts")
    args = parser.parse_args()

    names = [n.strip() for n in args.names.split(",") if n.strip()]
    args.out.mkdir(parents=True, exist_ok=True)

    with tempfile.TemporaryDirectory() as cache_dir:
        cache = ArtifactCache(cache_dir)
        cold = run_pass(names, args.trials, cache)
        warm = run_pass(names, args.trials, cache)
        reseeded = run_pass(names, None, cache, seed=1)

    (args.out / "sweep_cold.json").write_text(cold.to_json())
    (args.out / "sweep_warm.json").write_text(warm.to_json())
    (args.out / "sweep_reseeded.json").write_text(reseeded.to_json())

    failures = []
    if cold.all_cached:
        failures.append("cold pass unexpectedly reported cached stages")
    if not warm.all_cached:
        uncached = [
            f"{r.fsm}/{r.structure}:{s.name}"
            for r in warm.results for s in r.cacheable_stages if not s.cached
        ] + [f"{b.fsm}:baseline" for b in warm.baselines.values() if not b.cached]
        failures.append(f"warm pass recomputed stages: {', '.join(uncached)}")
    if warm.uncached_seconds != 0:
        failures.append(f"warm pass did {warm.uncached_seconds:.3f}s of stage work")

    cold_metrics = [(r.fsm, r.structure, dict(r.metrics)) for r in cold.results]
    warm_metrics = [(r.fsm, r.structure, dict(r.metrics)) for r in warm.results]
    if cold_metrics != warm_metrics:
        failures.append("warm pass metrics differ from the cold pass")
    for name in names:
        if (cold.baselines[name].average, cold.baselines[name].best) != (
            warm.baselines[name].average, warm.baselines[name].best
        ):
            failures.append(f"baseline of {name} differs between passes")

    cold_by_cell = {(r.fsm, r.structure): dict(r.metrics) for r in cold.results}
    for result in reseeded.results:
        cell = f"{result.fsm}/{result.structure}"
        cached = [s.name for s in result.cacheable_stages if s.cached]
        computed = [s.name for s in result.cacheable_stages if not s.cached]
        if result.structure == "PST":
            if cached:
                failures.append(f"reseeded pass served {cell} stages from the cache: "
                                f"{', '.join(cached)}")
        elif computed:
            failures.append(f"reseeded pass recomputed {cell} stages: {', '.join(computed)}")
        elif dict(result.metrics) != cold_by_cell[(result.fsm, result.structure)]:
            failures.append(f"reseeded pass metrics of {cell} differ from the cold pass")

    # Timing backstop: a broken cache makes the warm pass as slow as the cold
    # one.  The absolute guard keeps shared-runner wall-clock noise from
    # failing the job when the warm pass is trivially fast anyway — the
    # cached-flag and zero-stage-work assertions above are the real gate.
    if warm.total_seconds >= cold.total_seconds and warm.total_seconds > 1.0:
        failures.append(
            f"warm pass not faster: {warm.total_seconds:.3f}s vs {cold.total_seconds:.3f}s"
        )

    print(f"cold pass: {cold.total_seconds:.3f}s "
          f"({cold.uncached_seconds:.3f}s stage work, {len(cold.results)} cells)")
    print(f"warm pass: {warm.total_seconds:.3f}s "
          f"({warm.uncached_seconds:.3f}s stage work, all cached: {warm.all_cached})")
    print(f"reseeded pass: {reseeded.total_seconds:.3f}s "
          f"({reseeded.uncached_seconds:.3f}s stage work, cache hits: "
          f"{reseeded.cache_stats.get('hits', 0)})")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("OK: second pass served entirely from the artifact cache; "
          "a new seed recomputed only the PST stages")
    return 0


if __name__ == "__main__":
    sys.exit(main())
