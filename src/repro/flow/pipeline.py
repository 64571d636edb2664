"""The staged synthesis/fault-simulation pipeline (Fig. 7 / Fig. 9 as stages).

:func:`run_flow` models one run as explicit, re-runnable stages::

    parse -> assign -> excite -> minimize -> faultsim -> report

Every stage produces a JSON-safe *payload* — metrics plus the data needed to
reconstruct its objects — which is what the content-addressed artifact cache
stores under ``(fsm digest, stage, stage-config digest)``.  On a warm cache
the pipeline does **zero** assignment/minimisation/fault-simulation work: the
payloads are read back, the metrics flow straight into the
:class:`~repro.flow.results.FlowResult`, and live objects (encoding,
excitation covers, minimised cover, controller) are only rebuilt lazily when
a cold downstream stage — or a caller via ``materialize=True`` — actually
needs them.

The stage implementations are the exact functions behind
:func:`repro.bist.synthesize` (``assign_states`` / ``derive_excitation`` /
``minimize_excitation``), so a flow run is bit-identical to the classic
entry points — they are thin compatibility wrappers over the same code.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..bist.excitation import ExcitationTable, derive_excitation
from ..bist.structures import BISTStructure, structure_profile
from ..bist.synthesis import (
    SynthesizedController,
    assign_states,
    minimize_excitation,
)
from ..encoding.assignment import StateEncoding
from ..fsm.kiss import parse_kiss_file, write_kiss
from ..fsm.machine import FSM
from ..fsm.mcnc import benchmark_names, load_benchmark
from ..lfsr.lfsr import LFSR
from ..logic.cover import Cover
from ..logic.espresso import MinimizationResult
from ..logic.factor import multilevel_literal_count
from ..logic.symbolic import SymbolicImplicant
from .cache import ArtifactCache, artifact_key
from .config import FlowConfig
from .results import FlowResult, StageResult, jsonable

__all__ = ["run_flow", "fsm_digest", "resolve_fsm", "stage_keys"]

FSMSource = Union[FSM, str, Path]


def fsm_digest(fsm: FSM) -> str:
    """Content digest of a machine (name, state order, canonical KISS2 text).

    The declared state *order* participates: the assignment heuristics break
    ties by state index, so two machines with identical transitions but
    different state orderings can synthesise differently and must not share
    cache artifacts.
    """
    payload = f"{fsm.name}\n{','.join(fsm.states)}\n{write_kiss(fsm)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def stage_keys(fsm: FSM, cfg: FlowConfig) -> Dict[str, str]:
    """The artifact key of every cacheable stage of one flow run.

    ``assign``, ``excite`` and ``minimize`` always; ``faultsim`` when the
    run simulates faults.  The pipeline reads and writes its artifacts
    under exactly these keys, and :func:`run_flow` prefetches them with
    one :meth:`~repro.flow.cache.ArtifactCache.warm` call.
    """
    return _stage_keys(fsm_digest(fsm), cfg)


def _stage_keys(digest: str, cfg: FlowConfig) -> Dict[str, str]:
    """:func:`stage_keys` of the machine with content digest ``digest``."""
    keys = {
        stage: artifact_key(digest, stage, cfg.stage_digest(stage))
        for stage in ("assign", "excite", "minimize")
    }
    if cfg.fault_patterns is not None:
        keys["faultsim"] = artifact_key(digest, "faultsim", cfg.stage_digest("faultsim"))
    return keys


def resolve_fsm(source: FSMSource, data_dir: Optional[Union[str, Path]] = None) -> FSM:
    """Resolve a flow input to an :class:`FSM`.

    Accepts a live FSM, a path to a ``.kiss2`` file, a ``corpus:`` machine
    spec (see :mod:`repro.corpus.registry`), or the name of a registered
    MCNC benchmark (``data_dir`` selects original files over the synthetic
    stand-ins) — so sweeps address machines by plain strings.

    Registered benchmark names win over bare filesystem entries of the same
    name (a stray ``dk512`` file in the working directory must not shadow
    the benchmark); explicit paths — a :class:`~pathlib.Path` instance or a
    ``.kiss``/``.kiss2`` suffix — always read the file.
    """
    if isinstance(source, FSM):
        return source
    if isinstance(source, Path):
        return parse_kiss_file(source)
    if source.startswith("corpus:"):
        # Imported lazily: repro.corpus depends on this module for digests.
        from ..corpus.registry import corpus_fsm

        return corpus_fsm(source)
    path = Path(source)
    if path.suffix in (".kiss", ".kiss2"):
        return parse_kiss_file(path)
    if source in benchmark_names():
        return load_benchmark(source, data_dir=data_dir)
    if path.is_file():
        return parse_kiss_file(path)
    # Neither a registered benchmark nor a readable file: let the benchmark
    # registry raise its descriptive unknown-name error.
    return load_benchmark(source, data_dir=data_dir)


# ------------------------------------------------------------- lazy objects


class _Materializer:
    """Lazy bridge between stage payloads and live synthesis objects.

    When a stage computes live, it deposits its real objects here; when it
    is served from the cache, downstream stages (or ``materialize=True``)
    reconstruct the objects from the payload on first use.  A controller
    rebuilt purely from cache payloads carries everything the netlist /
    Verilog / PLA writers consume; only the symbolic truth table (unused by
    those paths) is not resurrected.
    """

    def __init__(self, fsm: FSM, config: FlowConfig) -> None:
        self.fsm = fsm
        self.config = config
        self.structure = config.structure_enum
        self.payloads: Dict[str, Dict[str, Any]] = {}
        self._encoding: Optional[StateEncoding] = None
        self._register: Optional[LFSR] = None
        self._register_known = False
        self._report: Optional[Dict[str, Any]] = None
        self._excitation: Optional[ExcitationTable] = None
        self._minimization: Optional[MinimizationResult] = None
        self._controller: Optional[SynthesizedController] = None

    # ------------------------------------------------------------- per-stage
    def encoding(self) -> StateEncoding:
        if self._encoding is None:
            data = self.payloads["assign"]["data"]
            self._encoding = StateEncoding.from_dict(data["encoding"])
        return self._encoding

    def register(self) -> Optional[LFSR]:
        if not self._register_known:
            polynomial = self.payloads["assign"]["data"]["polynomial"]
            self._register = (
                LFSR(self.encoding().width, int(polynomial)) if polynomial is not None else None
            )
            self._register_known = True
        return self._register

    def assignment_report(self) -> Dict[str, Any]:
        if self._report is None:
            self._report = dict(self.payloads["assign"]["data"]["report"])
        return self._report

    def excitation(self) -> ExcitationTable:
        if self._excitation is None:
            data = self.payloads["excite"]["data"]
            self._excitation = ExcitationTable(
                structure=self.structure,
                fsm_name=self.fsm.name,
                encoding=self.encoding(),
                register=self.register(),
                table=None,
                on_set=Cover.from_dict(data["on_set"]),
                dc_set=Cover.from_dict(data["dc_set"]),
                input_names=tuple(data["input_names"]),
                output_names=tuple(data["output_names"]),
                num_primary_inputs=data["num_primary_inputs"],
                num_primary_outputs=data["num_primary_outputs"],
                mode_output=data["mode_output"],
                autonomous_transitions=data["autonomous_transitions"],
            )
        return self._excitation

    def minimization(self) -> MinimizationResult:
        if self._minimization is None:
            data = self.payloads["minimize"]["data"]
            self._minimization = MinimizationResult(
                cover=Cover.from_dict(data["cover"]),
                initial_terms=data["initial_terms"],
                final_terms=data["final_terms"],
                iterations=data["iterations"],
                method=data["method"],
            )
        return self._minimization

    def controller(self) -> SynthesizedController:
        if self._controller is None:
            self._controller = SynthesizedController(
                fsm=self.fsm,
                structure=self.structure,
                encoding=self.encoding(),
                register=self.excitation().register,
                excitation=self.excitation(),
                minimization=self.minimization(),
                assignment_report=self.assignment_report(),
            )
        return self._controller


# ------------------------------------------------------------ stage running


def _run_stage(
    name: str,
    cache: Optional[ArtifactCache],
    keys: Mapping[str, str],
    compute: Callable[[], Dict[str, Any]],
) -> Tuple[Dict[str, Any], StageResult]:
    """Serve one stage from the cache or compute (and store) its payload.

    ``keys`` is the run's :func:`stage_keys` (empty without a cache).
    """
    start = time.perf_counter()
    if cache is not None:
        payload = cache.get(keys[name])
        if payload is not None:
            seconds = time.perf_counter() - start
            return payload, StageResult(name, seconds, cached=True,
                                        metrics=payload.get("metrics", {}))
    payload = compute()
    if cache is not None:
        cache.put(keys[name], payload)
    seconds = time.perf_counter() - start
    return payload, StageResult(name, seconds, cached=False,
                                metrics=payload.get("metrics", {}))


def run_flow(
    source: FSMSource,
    config: Optional[FlowConfig] = None,
    cache: Optional[ArtifactCache] = None,
    data_dir: Optional[Union[str, Path]] = None,
    implicants: Optional[Sequence[SymbolicImplicant]] = None,
    materialize: bool = False,
    stage_hook: Optional[Callable[[str], None]] = None,
) -> FlowResult:
    """Run the staged pipeline for one machine and one configuration.

    Args:
        source: an FSM, a ``.kiss2`` path, or a registered benchmark name.
        config: the flow configuration (defaults to :class:`FlowConfig`).
        cache: optional content-addressed artifact cache; stages whose
            ``(fsm, stage, config)`` digest is already stored are served
            from disk instead of recomputed.  The run first prefetches its
            stage keys with one ``cache.warm`` call; for a remote tier that
            is one exchange with the coordinator, and its time counts in
            ``total_seconds``.
        data_dir: directory with original MCNC ``.kiss2`` files (benchmark
            names only).
        implicants: precomputed symbolic minimisation for the PST/SIG
            assignment (same contract as :func:`repro.bist.synthesize`).
            Caller-supplied implicants are not part of the stage digests, so
            the run bypasses the artifact cache entirely — a cached artifact
            computed from different implicants must never be served, and a
            custom-implicants result must never poison the default keys.
        materialize: also attach the live :class:`SynthesizedController` to
            the result (``result.controller``), reconstructing it from cached
            payloads when every stage hit.
        stage_hook: called with the stage name immediately before each work
            stage (``assign``/``excite``/``minimize``/``faultsim``) runs —
            the seam used for chaos stage-error/stage-delay injection and
            for worker-side execution deadlines.  An exception raised by
            the hook aborts the run exactly like a stage failure.
    """
    cfg = config or FlowConfig()
    structure = cfg.structure_enum
    opts = cfg.to_synthesis_options()
    if implicants is not None:
        cache = None
    flow_start = time.perf_counter()
    stages: List[StageResult] = []

    # parse — resolve the machine and pin its content digest.
    parse_start = time.perf_counter()
    fsm = resolve_fsm(source, data_dir=data_dir)
    digest = fsm_digest(fsm)
    stages.append(StageResult(
        "parse",
        time.perf_counter() - parse_start,
        cached=False,
        metrics={
            "states": fsm.num_states,
            "inputs": fsm.num_inputs,
            "outputs": fsm.num_outputs,
            "transitions": len(fsm.transitions),
        },
    ))

    keys: Dict[str, str] = {}
    if cache is not None:
        keys = _stage_keys(digest, cfg)
        # A remote tier fetches every stage artifact it lacks in one
        # exchange; the local store has nothing to prefetch.
        cache.warm(keys.values())
    ctx = _Materializer(fsm, cfg)

    # assign — structure-specific state assignment.
    def compute_assign() -> Dict[str, Any]:
        encoding, register, report = assign_states(fsm, structure, None, opts, implicants)
        ctx._encoding = encoding
        ctx._register = register
        ctx._register_known = True
        ctx._report = dict(report)
        return {
            "metrics": jsonable({"state_bits": encoding.width, **report}),
            "data": {
                "encoding": encoding.to_dict(),
                "polynomial": register.polynomial if register is not None else None,
                "report": jsonable(report),
            },
        }

    if stage_hook is not None:
        stage_hook("assign")
    payload, stage = _run_stage("assign", cache, keys, compute_assign)
    ctx.payloads["assign"] = payload
    stages.append(stage)

    # excite — derive the encoded ON/DC covers of the combinational logic.
    def compute_excite() -> Dict[str, Any]:
        excitation = derive_excitation(fsm, ctx.encoding(), structure, register=ctx.register())
        ctx._excitation = excitation
        return {
            "metrics": {
                "on_set_cubes": len(excitation.on_set),
                "dc_set_cubes": len(excitation.dc_set),
                "autonomous_transitions": excitation.autonomous_transitions,
            },
            "data": {
                "on_set": excitation.on_set.to_dict(),
                "dc_set": excitation.dc_set.to_dict(),
                "input_names": list(excitation.input_names),
                "output_names": list(excitation.output_names),
                "num_primary_inputs": excitation.num_primary_inputs,
                "num_primary_outputs": excitation.num_primary_outputs,
                "mode_output": excitation.mode_output,
                "autonomous_transitions": excitation.autonomous_transitions,
            },
        }

    if stage_hook is not None:
        stage_hook("excite")
    payload, stage = _run_stage("excite", cache, keys, compute_excite)
    ctx.payloads["excite"] = payload
    stages.append(stage)

    # minimize — two-level minimisation plus the literal metrics of Table 3.
    def compute_minimize() -> Dict[str, Any]:
        excitation = ctx.excitation()
        minimization = minimize_excitation(excitation, opts)
        ctx._minimization = minimization
        sop_literals = minimization.cover.sop_literal_count()
        multilevel = multilevel_literal_count(
            minimization.cover,
            input_names=list(excitation.input_names),
            output_names=list(excitation.output_names),
        )
        return {
            "metrics": {
                "product_terms": minimization.final_terms,
                "sop_literals": sop_literals,
                "multilevel_literals": multilevel,
                "initial_terms": minimization.initial_terms,
                "iterations": minimization.iterations,
                "method": minimization.method,
            },
            "data": {
                "cover": minimization.cover.to_dict(),
                "initial_terms": minimization.initial_terms,
                "final_terms": minimization.final_terms,
                "iterations": minimization.iterations,
                "method": minimization.method,
            },
        }

    if stage_hook is not None:
        stage_hook("minimize")
    payload, stage = _run_stage("minimize", cache, keys, compute_minimize)
    ctx.payloads["minimize"] = payload
    stages.append(stage)
    minimize_metrics = payload["metrics"]

    # faultsim — optional stuck-at fault simulation of the built circuit.
    faultsim_metrics: Dict[str, Any] = {}
    coverage_curve: Optional[List[List[float]]] = None
    if cfg.fault_patterns is not None:
        fault_patterns = cfg.fault_patterns

        def compute_faultsim() -> Dict[str, Any]:
            from ..circuit.faults import FaultSimulator, enumerate_faults
            from ..circuit.netlist import netlist_from_controller

            circuit = netlist_from_controller(ctx.controller())
            faults = enumerate_faults(circuit, collapse=cfg.fault_collapse)
            simulator = FaultSimulator(circuit, word_width=cfg.word_width, engine=cfg.engine)
            result = simulator.coverage_for_random_patterns(
                fault_patterns, seed=cfg.fault_seed, faults=faults
            )
            summary = result.to_dict()
            curve = summary.pop("coverage_curve")
            summary["gates"] = circuit.gate_count()
            summary["collapsed"] = cfg.fault_collapse
            return {"metrics": summary, "data": {"coverage_curve": curve}}

        if stage_hook is not None:
            stage_hook("faultsim")
        payload, stage = _run_stage("faultsim", cache, keys, compute_faultsim)
        ctx.payloads["faultsim"] = payload
        stages.append(stage)
        faultsim_metrics = payload["metrics"]
        coverage_curve = payload["data"]["coverage_curve"]

    # report — aggregate the headline metrics (never cached; trivial).
    report_start = time.perf_counter()
    encoding_dict = ctx.payloads["assign"]["data"]["encoding"]
    width = int(encoding_dict["width"])
    profile = structure_profile(structure, width)
    polynomial = ctx.payloads["assign"]["data"]["polynomial"]
    metrics: Dict[str, Any] = {
        "state_bits": width,
        "product_terms": minimize_metrics["product_terms"],
        "sop_literals": minimize_metrics["sop_literals"],
        "multilevel_literals": minimize_metrics["multilevel_literals"],
        "register_polynomial": polynomial,
        "autonomous_transitions": ctx.payloads["excite"]["data"]["autonomous_transitions"],
        "register_bits": profile.register_bits,
        "control_signals": profile.control_signals,
        "xor_gates_in_system_path": profile.xor_gates_in_system_path,
        "mode_multiplexers": profile.mode_multiplexers,
        "disjoint_test_mode": profile.disjoint_test_mode,
        "at_speed_dynamic_fault_test": profile.at_speed_dynamic_fault_test,
        "fault_coverage": faultsim_metrics.get("coverage"),
        "fault_total": faultsim_metrics.get("total_faults"),
        "fault_detected": faultsim_metrics.get("detected"),
        "patterns_simulated": faultsim_metrics.get("patterns_simulated"),
        "gates": faultsim_metrics.get("gates"),
    }
    stages.append(StageResult("report", time.perf_counter() - report_start, cached=False,
                              metrics={}))

    controller = ctx.controller() if materialize else None
    return FlowResult(
        fsm=fsm.name,
        fsm_digest=digest,
        structure=cfg.structure,
        config=cfg.to_dict(),
        stages=tuple(stages),
        metrics=metrics,
        encoding=encoding_dict,
        coverage_curve=coverage_curve,
        total_seconds=time.perf_counter() - flow_start,
        controller=controller,
    )
