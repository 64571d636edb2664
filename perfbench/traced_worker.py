"""``repro worker --url`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/traced_worker.py --spans OUT.json <repro worker
arguments>``.  The wrappers go in before the worker entry point runs; the
spans are written to ``OUT.json`` when the worker exits.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402


def main(argv: list) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: traced_worker.py --spans OUT.json <repro worker args>", file=sys.stderr)
        return 2
    from repro.cli import main as repro_main

    tracer = tracing.Tracer()
    tracing.install(tracer, workers=True)
    try:
        return int(repro_main(["worker", *argv[2:]]) or 0)
    finally:
        tracer.dump(Path(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
