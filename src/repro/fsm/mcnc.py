"""Registry of the MCNC benchmark machines used in the paper's evaluation.

The paper (Tables 2 and 3) reports results on 13 machines from the MCNC 1988
FSM benchmark set.  This module records

* the published size statistics of every machine (inputs, outputs, states,
  transitions), used to generate structurally equivalent synthetic machines
  when the original ``.kiss2`` files are not available, and
* the numbers reported in the paper itself (Tables 2 and 3), so that the
  benchmark harness can print a paper-vs-measured comparison.

If the original benchmark files are placed in a directory (``.kiss2`` files
named after the benchmark), :func:`load_benchmark` parses and returns the real
machine; otherwise a synthetic controller of matching size is produced with a
fixed seed, as documented in ``DESIGN.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from .generators import generate_controller
from .kiss import parse_kiss_file
from .machine import FSM

__all__ = [
    "BenchmarkStats",
    "PaperTable2Row",
    "PaperTable3Row",
    "BENCHMARK_STATS",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "benchmark_names",
    "load_benchmark",
    "load_benchmark_suite",
]


@dataclass(frozen=True)
class BenchmarkStats:
    """Published size statistics of an MCNC FSM benchmark."""

    name: str
    inputs: int
    outputs: int
    states: int
    transitions: int


@dataclass(frozen=True)
class PaperTable2Row:
    """Table 2 of the paper: product terms for PST/SIG state assignment."""

    name: str
    random_average: float
    random_best: int
    heuristic: int


@dataclass(frozen=True)
class PaperTable3Row:
    """Table 3 of the paper: PST/SIG vs DFF vs PAT product terms and literals."""

    name: str
    terms_pst_sig: int
    terms_dff: int
    terms_pat: int
    literals_pst_sig: int
    literals_dff: int
    literals_pat: int


# Size statistics of the MCNC machines referenced by the paper.  The values
# follow the published LGSynth/MCNC benchmark documentation; they control the
# size of the synthetic stand-ins when the original files are unavailable.
BENCHMARK_STATS: Dict[str, BenchmarkStats] = {
    "dk16": BenchmarkStats("dk16", inputs=2, outputs=3, states=27, transitions=108),
    "dk512": BenchmarkStats("dk512", inputs=1, outputs=3, states=15, transitions=30),
    "donfile": BenchmarkStats("donfile", inputs=2, outputs=1, states=24, transitions=96),
    "ex1": BenchmarkStats("ex1", inputs=9, outputs=19, states=20, transitions=138),
    "ex4": BenchmarkStats("ex4", inputs=6, outputs=9, states=14, transitions=21),
    "kirkman": BenchmarkStats("kirkman", inputs=12, outputs=6, states=16, transitions=370),
    "mark1": BenchmarkStats("mark1", inputs=5, outputs=16, states=15, transitions=22),
    "modulo12": BenchmarkStats("modulo12", inputs=1, outputs=1, states=12, transitions=24),
    "planet": BenchmarkStats("planet", inputs=7, outputs=19, states=48, transitions=115),
    "sand": BenchmarkStats("sand", inputs=11, outputs=9, states=32, transitions=184),
    "scf": BenchmarkStats("scf", inputs=27, outputs=56, states=121, transitions=166),
    "styr": BenchmarkStats("styr", inputs=9, outputs=10, states=30, transitions=166),
    "tbk": BenchmarkStats("tbk", inputs=6, outputs=3, states=32, transitions=1569),
}


# Table 2 of the paper (number of product terms for PST/SIG state assignment).
PAPER_TABLE2: Dict[str, PaperTable2Row] = {
    row.name: row
    for row in [
        PaperTable2Row("dk16", 91.7, 87, 76),
        PaperTable2Row("dk512", 25.5, 23, 19),
        PaperTable2Row("donfile", 73.5, 65, 42),
        PaperTable2Row("ex1", 73.8, 69, 64),
        PaperTable2Row("ex4", 20.6, 18, 18),
        PaperTable2Row("kirkman", 122.1, 94, 67),
        PaperTable2Row("mark1", 26.0, 25, 23),
        PaperTable2Row("modulo12", 17.4, 15, 13),
        PaperTable2Row("planet", 103.9, 102, 94),
        PaperTable2Row("sand", 116.3, 111, 107),
        PaperTable2Row("scf", 168.0, 156, 138),
        PaperTable2Row("styr", 143.5, 132, 128),
        PaperTable2Row("tbk", 261.9, 224, 159),
    ]
}


# Table 3 of the paper (PST/SIG vs DFF vs PAT, product terms and literals).
PAPER_TABLE3: Dict[str, PaperTable3Row] = {
    row.name: row
    for row in [
        PaperTable3Row("dk16", 76, 59, 57, 289, 270, 241),
        PaperTable3Row("dk512", 19, 18, 17, 67, 70, 48),
        PaperTable3Row("donfile", 42, 29, 28, 121, 160, 74),
        PaperTable3Row("ex1", 64, 48, 44, 288, 280, 253),
        PaperTable3Row("ex4", 18, 19, 16, 65, 77, 70),
        PaperTable3Row("kirkman", 67, 64, 54, 153, 176, 146),
        PaperTable3Row("mark1", 23, 20, 17, 119, 108, 94),
        PaperTable3Row("modulo12", 13, 13, 9, 39, 35, 29),
        PaperTable3Row("planet", 94, 91, 83, 545, 578, 569),
        PaperTable3Row("sand", 107, 97, 97, 566, 570, 547),
        PaperTable3Row("scf", 138, 146, 136, 714, 822, 773),
        PaperTable3Row("styr", 128, 94, 93, 629, 594, 512),
        PaperTable3Row("tbk", 159, 149, 59, 421, 547, 496),
    ]
}


def benchmark_names() -> List[str]:
    """Names of the benchmarks evaluated in the paper, in table order."""
    return list(BENCHMARK_STATS)


def load_benchmark(
    name: str,
    data_dir: Optional[Union[str, Path]] = None,
    max_transitions: Optional[int] = 400,
    seed: int = 1991,
) -> FSM:
    """Load one benchmark machine.

    If ``data_dir`` contains ``<name>.kiss2``, the original benchmark is
    parsed.  Otherwise a synthetic controller with the published size
    statistics is generated.  ``max_transitions`` caps the synthetic machine's
    transition count (the very large ``tbk`` description would otherwise
    dominate experiment runtime); set it to ``None`` to use the published
    count verbatim.
    """
    key = name.lower()
    if key not in BENCHMARK_STATS:
        raise KeyError(f"unknown benchmark {name!r}; known: {', '.join(BENCHMARK_STATS)}")
    if data_dir is not None:
        candidate = Path(data_dir) / f"{key}.kiss2"
        if candidate.exists():
            return parse_kiss_file(candidate, name=key)
        candidate = Path(data_dir) / f"{key}.kiss"
        if candidate.exists():
            return parse_kiss_file(candidate, name=key)

    stats = BENCHMARK_STATS[key]
    transitions = stats.transitions
    if max_transitions is not None:
        transitions = min(transitions, max_transitions)
    decision_bits = 4
    if stats.states > 0 and transitions / stats.states > 12:
        decision_bits = 6
    return generate_controller(
        name=key,
        num_states=stats.states,
        num_inputs=stats.inputs,
        num_outputs=stats.outputs,
        num_transitions=transitions,
        seed=seed + _stable_offset(key),
        decision_bits_per_state=min(decision_bits, max(1, stats.inputs)),
    )


def load_benchmark_suite(
    names: Optional[List[str]] = None,
    data_dir: Optional[Union[str, Path]] = None,
    max_transitions: Optional[int] = 400,
) -> Dict[str, FSM]:
    """Load several benchmarks (default: all of them) as a name -> FSM map."""
    result: Dict[str, FSM] = {}
    for name in names or benchmark_names():
        result[name] = load_benchmark(name, data_dir=data_dir, max_transitions=max_transitions)
    return result


def _stable_offset(name: str) -> int:
    """Deterministic per-benchmark seed offset (independent of hash seeds)."""
    return sum(ord(ch) * (i + 1) for i, ch in enumerate(name)) % 10_000
