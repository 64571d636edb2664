"""Reproduction of "A Unified Approach for the Synthesis of Self-Testable
Finite State Machines" (Eschermann & Wunderlich, DAC 1991).

The package synthesises controllers (finite state machines) into one of four
built-in self-test (BIST) target structures — DFF, PAT, SIG and PST — while
accounting for the self-test registers during state assignment and logic
minimisation, exactly as proposed by the paper.

Typical use::

    from repro import fsm, bist

    machine = fsm.parse_kiss_file("my_controller.kiss2")
    controller = bist.synthesize(machine, bist.BISTStructure.PST)
    print(controller.product_terms, controller.sop_literals)

The staged pipeline API in :mod:`repro.flow` is the recommended entry point
for anything beyond a one-off synthesis — one serializable
:class:`~repro.flow.FlowConfig`, one :func:`~repro.flow.run_flow` call, a
JSON-ready :class:`~repro.flow.FlowResult`, artifact caching and batch
sweeps::

    import repro

    config = repro.FlowConfig(structure="PST", fault_patterns=4096)
    result = repro.run_flow("dk512", config, cache=repro.ArtifactCache(".cache"))
    print(result.product_terms, result.fault_coverage)

Subpackages:
    fsm       – symbolic FSM model, KISS2 I/O, benchmark registry
    logic     – cubes/covers, two-level and multi-level minimisation
    lfsr      – GF(2) polynomials, LFSRs, MISRs
    encoding  – state-assignment algorithms (random, MUSTANG, PAT, MISR)
    bist      – BIST structures, excitation derivation, synthesis flow
    circuit   – gate-level netlists, logic/fault simulation, self-test runs
    flow      – staged pipeline, artifact cache, batch sweep orchestration
    reporting – text tables for the experiment harness
"""

from . import bist, circuit, encoding, flow, fsm, lfsr, logic, reporting
from .bist import (
    BISTStructure,
    SynthesisOptions,
    compare_structures,
    synthesize,
    synthesize_all_structures,
)
from .circuit.faults import FaultSimulator
from .encoding import StateEncoding, assign_misr_states, assign_mustang, assign_pat
from .flow import (
    ArtifactCache,
    FlowConfig,
    FlowResult,
    LocalPoolExecutor,
    QueueExecutor,
    SerialExecutor,
    StageResult,
    Sweep,
    SweepExecutor,
    SweepResult,
    run_flow,
    run_worker,
)
from .fsm import FSM, Transition, load_benchmark, parse_kiss, parse_kiss_file

__version__ = "1.9.0"

__all__ = [
    "bist",
    "circuit",
    "encoding",
    "flow",
    "fsm",
    "lfsr",
    "logic",
    "reporting",
    "BISTStructure",
    "SynthesisOptions",
    "synthesize",
    "synthesize_all_structures",
    "compare_structures",
    "FaultSimulator",
    "ArtifactCache",
    "FlowConfig",
    "FlowResult",
    "StageResult",
    "Sweep",
    "SweepResult",
    "SweepExecutor",
    "SerialExecutor",
    "LocalPoolExecutor",
    "QueueExecutor",
    "run_flow",
    "run_worker",
    "StateEncoding",
    "assign_misr_states",
    "assign_mustang",
    "assign_pat",
    "FSM",
    "Transition",
    "load_benchmark",
    "parse_kiss",
    "parse_kiss_file",
    "__version__",
]
