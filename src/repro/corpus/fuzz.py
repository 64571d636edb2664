"""Cross-engine differential fuzzing over the corpus (the ``repro fuzz`` core).

The reproduction carries independently-implemented engine pairs that
are exact oracles for each other; this harness drives seeded random corpus
machines through synthesize→faultsim and checks, per case, every invariant
that applies at the case's size:

* ``kiss-roundtrip`` — ``parse_kiss(write_kiss(fsm))`` preserves the flow
  digest (and the transition list) exactly,
* ``seed-stability`` — resolving the same corpus spec twice produces a
  digest-identical machine,
* ``engine-parity`` — compiled and legacy fault simulators agree on the
  full fault→detection-cycle map at every checked word width, and on
  multi-word sequences down every route of the compiled engine (its cone
  path, and each fallback: an ``observe`` list without a flip-flop data
  signal, a partial lane mask before the last word, flip-flop-branch
  faults — plus an explicit initial state, which stays on the cone path),
* ``score-parity`` — incremental and reference assignment scorers produce
  the same encoding and the same cost,
* ``cache-parity`` — a warm-cache rerun reproduces the cold run's metrics
  with every work stage served from the cache,
* ``cover-contract`` — the minimised cover meets its specification
  exactly, per output: ON ⊆ cover ⊆ ON ∪ DC, checked by the tautology
  recursion without a node budget (small and medium cases).

Failures are **minimized** (greedy shrink over the machine's state count,
re-running only the failing invariants) and emitted inside a
schema-versioned ``repro.fuzz/1`` JSON report; each minimized case replays
deterministically via ``repro fuzz --repro <case.json>``.

``--mutate`` deliberately breaks one comparison side (see :data:`MUTATIONS`)
so CI can prove the harness actually catches a broken engine — the mutation
stays active during minimization and replay.
"""

from __future__ import annotations

import random
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..circuit.engine import CompiledFaultEngine
from ..circuit.faults import (
    FaultSimulator,
    enumerate_faults,
    observation_points,
    random_input_words,
)
from ..circuit.netlist import Netlist, netlist_from_controller
from ..circuit.simulate import StuckAtFault
from ..flow.cache import ArtifactCache
from ..flow.config import FlowConfig
from ..flow.pipeline import fsm_digest, resolve_fsm, run_flow
from ..flow.results import FlowResult
from ..fsm.kiss import parse_kiss, write_kiss
from ..fsm.machine import FSM
from ..logic import espresso
from ..logic.cover import raised_mask
from .generators import generate_corpus_fsm, resolve_parameters
from .registry import canonical_spec, parse_corpus_spec

__all__ = [
    "FUZZ_SCHEMA_VERSION",
    "INVARIANTS",
    "MUTATIONS",
    "FuzzCase",
    "FuzzReport",
    "make_cases",
    "check_case",
    "minimize_case",
    "replay_case",
    "run_fuzz",
]

#: Schema tag of the JSON fuzz report (and of serialized repro cases).
FUZZ_SCHEMA_VERSION = "repro.fuzz/1"

#: Deliberate one-sided breakages for the CI mutation smoke test.  Each
#: emulates a broken engine on exactly one comparison side so the named
#: invariant must flag the case; the mutation stays active while the case
#: is minimized and replayed.
MUTATIONS: Dict[str, str] = {
    "engine-legacy-drop": "legacy fault simulator silently loses its last "
                          "detected fault (engine-parity must catch it)",
    "engine-cone-drop": "compiled fault simulator's fanout cones lose their "
                        "last gate (engine-parity must catch it)",
    "score-reference-offset": "reference scorer reports cost+1 "
                              "(score-parity must catch it)",
    "kiss-swap-lines": "KISS2 writer emits the first two transitions swapped "
                       "(kiss-roundtrip must catch it)",
    "seed-drift": "corpus generator ignores the requested seed "
                  "(seed-stability must catch it)",
    "cache-metric-bump": "warm-cache rerun reports product_terms+1 "
                         "(cache-parity must catch it)",
    "minimize-bitset-drop": "EXPAND's raise check on minterm bitsets lets "
                            "one extra minterm through "
                            "(cover-contract must catch it)",
}


@dataclass(frozen=True)
class FuzzCase:
    """One deterministic differential-testing case.

    ``spec`` + ``config`` fully determine the machine and every engine run,
    so a case serialized into the report replays bit-identically.
    """

    case_id: int
    spec: str
    config: Dict[str, Any]
    invariants: Tuple[str, ...]
    word_widths: Tuple[int, ...] = (8, 64)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": FUZZ_SCHEMA_VERSION,
            "kind": "case",
            "case_id": self.case_id,
            "spec": self.spec,
            "config": dict(self.config),
            "invariants": list(self.invariants),
            "word_widths": list(self.word_widths),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FuzzCase":
        schema = data.get("schema", FUZZ_SCHEMA_VERSION)
        if schema != FUZZ_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported fuzz case schema {schema!r} (expected {FUZZ_SCHEMA_VERSION!r})"
            )
        unknown = [inv for inv in data["invariants"] if inv not in INVARIANTS]
        if unknown:
            raise ValueError(f"unknown fuzz invariants: {', '.join(unknown)}")
        return cls(
            case_id=int(data.get("case_id", 0)),
            spec=str(data["spec"]),
            config=dict(data["config"]),
            invariants=tuple(data["invariants"]),
            word_widths=tuple(int(w) for w in data.get("word_widths", (8, 64))),
        )


# ------------------------------------------------------------ the invariants


def _flow(fsm: FSM, cfg: FlowConfig, **changes: Any) -> FlowResult:
    return run_flow(fsm, cfg.replace(**changes) if changes else cfg)


#: The materialized flow of the case being checked, ``(fsm, config,
#: result)``: engine-parity and cover-contract read the same controller, so
#: it is built once per case.  :func:`check_case` clears it after the case.
_case_flow: List[Tuple[FSM, FlowConfig, FlowResult]] = []


def _materialized(fsm: FSM, cfg: FlowConfig) -> FlowResult:
    """The case's flow without fault simulation, with its controller."""
    cfg = cfg.replace(fault_patterns=None)
    for seen_fsm, seen_cfg, result in _case_flow:
        if seen_fsm is fsm and seen_cfg == cfg:
            return result
    result = run_flow(fsm, cfg, materialize=True)
    _case_flow[:] = [(fsm, cfg, result)]
    return result


def _stage_metrics(result: FlowResult, stage: str) -> Dict[str, Any]:
    for s in result.stages:
        if s.name == stage:
            return dict(s.metrics)
    raise KeyError(f"flow result has no {stage!r} stage")


def _check_kiss_roundtrip(
    fsm: FSM, cfg: FlowConfig, case: FuzzCase, mutation: Optional[str]
) -> Optional[str]:
    text = write_kiss(fsm)
    if mutation == "kiss-swap-lines":
        lines = text.splitlines()
        body = [i for i, line in enumerate(lines)
                if line and not line.startswith((".", "#"))]
        if len(body) >= 2:
            i, j = body[0], body[1]
            lines[i], lines[j] = lines[j], lines[i]
        text = "\n".join(lines) + "\n"
    again = parse_kiss(text, name=fsm.name)
    if fsm_digest(again) != fsm_digest(fsm):
        return "KISS2 round-trip changed the flow digest"
    if again.transitions != fsm.transitions:
        return "KISS2 round-trip changed the transition list"
    return None


def _check_seed_stability(
    fsm: FSM, cfg: FlowConfig, case: FuzzCase, mutation: Optional[str]
) -> Optional[str]:
    if mutation == "seed-drift":
        generator, raw = parse_corpus_spec(case.spec)
        _, params = resolve_parameters(generator, raw)
        params["seed"] = int(params["seed"]) + 1
        again = generate_corpus_fsm(generator, params, name=fsm.name)
    else:
        again = resolve_fsm(case.spec)
    first, second = fsm_digest(fsm), fsm_digest(again)
    if first != second:
        return (
            f"re-resolving the spec changed the digest "
            f"({first[:12]} -> {second[:12]})"
        )
    return None


class _ConeDropEngine(CompiledFaultEngine):
    """The ``engine-cone-drop`` mutation: every fanout cone loses its last op."""

    def _cone(self, idx: int) -> Tuple[Tuple[Any, ...], Tuple[int, ...]]:
        ops, cone = super()._cone(idx)
        return ops[:-1], cone


#: Faults per route run at most: the legacy side of a three-word run costs
#: three whole-netlist evaluations per fault, so large machines are sampled.
_ROUTE_FAULTS = 400


def _engine_routes(
    circuit: Netlist, faults: List[StuckAtFault], width: int, seed: int
) -> List[Tuple[str, Dict[str, Any]]]:
    """``FaultSimulator.run`` arguments that drive every compiled-engine
    route over a three-word sequence: ``(label, kwargs)`` pairs.  Lists
    longer than ``_ROUTE_FAULTS`` are thinned to an evenly spaced sample."""
    stride = max(1, (len(faults) + _ROUTE_FAULTS - 1) // _ROUTE_FAULTS)
    faults = faults[::stride]
    rng = random.Random(seed)
    mask = (1 << width) - 1
    sequence = random_input_words(circuit.primary_inputs, 3, width, seed=seed)
    flip_flops = circuit.flip_flops
    routes: List[Tuple[str, Dict[str, Any]]] = [
        ("multi-word", {}),
        ("initial-state",
         {"initial_state": {ff.state: rng.getrandbits(width) for ff in flip_flops}}),
        # One valid lane in the first word: faults may diverge unseen in
        # the others, which the full second word then observes.
        ("partial-lane-mask", {"lane_masks": [1, mask, rng.getrandbits(width)]}),
        ("flip-flop-branch", {"faults": faults + [
            StuckAtFault(ff.data, value, gate_input=ff.state)
            for ff in flip_flops for value in (0, 1)
        ]}),
    ]
    if flip_flops:
        dropped = flip_flops[0].data
        observe = [p for p in observation_points(circuit, None) if p != dropped]
        routes.append(("observe-without-data", {"observe": observe}))
    for _, kwargs in routes:
        kwargs.setdefault("faults", faults)
        kwargs["input_sequence"] = sequence
    return routes


def _map_difference(compiled: Mapping[str, int], legacy: Mapping[str, int]) -> str:
    only_c = set(compiled) - set(legacy)
    only_l = set(legacy) - set(compiled)
    moved = sum(1 for f in set(compiled) & set(legacy) if compiled[f] != legacy[f])
    return (
        f"detection maps differ (compiled-only={len(only_c)}, "
        f"legacy-only={len(only_l)}, cycle-mismatch={moved})"
    )


def _check_engine_parity(
    fsm: FSM, cfg: FlowConfig, case: FuzzCase, mutation: Optional[str]
) -> Optional[str]:
    controller = _materialized(fsm, cfg).controller
    if controller is None:  # pragma: no cover - materialize=True always attaches it
        raise RuntimeError("materialized flow result lost its controller")
    circuit = netlist_from_controller(controller)
    faults = enumerate_faults(circuit, collapse=cfg.fault_collapse)
    patterns = cfg.fault_patterns if cfg.fault_patterns else 32
    route_width = min(case.word_widths)
    for width in case.word_widths:
        simulators: Dict[str, FaultSimulator] = {}
        for engine in ("compiled", "legacy"):
            simulators[engine] = FaultSimulator(circuit, word_width=width, engine=engine)
        if mutation == "engine-cone-drop":
            simulators["compiled"]._compiled = _ConeDropEngine(circuit, width)
        runs: List[Tuple[str, Callable[[FaultSimulator], Any]]] = [(
            "random patterns",
            lambda sim: sim.coverage_for_random_patterns(
                patterns, seed=cfg.fault_seed, faults=faults
            ),
        )]
        if width == route_width:
            for label, kwargs in _engine_routes(circuit, faults, width, cfg.fault_seed):
                runs.append((label, lambda sim, kwargs=kwargs: sim.run(**kwargs)))
        for label, simulate in runs:
            maps: Dict[str, Dict[str, int]] = {}
            for engine, simulator in simulators.items():
                cycles = dict(simulate(simulator).detection_cycle)
                if mutation == "engine-legacy-drop" and engine == "legacy" and cycles:
                    cycles.pop(max(cycles))
                maps[engine] = cycles
            if maps["compiled"] != maps["legacy"]:
                return (
                    f"word width {width}, {label}: "
                    f"{_map_difference(maps['compiled'], maps['legacy'])}"
                )
    return None


def _check_score_parity(
    fsm: FSM, cfg: FlowConfig, case: FuzzCase, mutation: Optional[str]
) -> Optional[str]:
    incremental = _flow(fsm, cfg, assignment_engine="incremental", fault_patterns=None)
    reference = _flow(fsm, cfg, assignment_engine="reference", fault_patterns=None)
    cost_inc = _stage_metrics(incremental, "assign").get("cost")
    cost_ref = _stage_metrics(reference, "assign").get("cost")
    if mutation == "score-reference-offset" and isinstance(cost_ref, (int, float)):
        cost_ref = cost_ref + 1
    if cost_inc != cost_ref:
        return f"assignment cost differs (incremental={cost_inc}, reference={cost_ref})"
    if incremental.encoding != reference.encoding:
        return "assignment encodings differ between scoring engines"
    return None


_WORK_STAGES = ("assign", "excite", "minimize", "faultsim")


def _check_cache_parity(
    fsm: FSM, cfg: FlowConfig, case: FuzzCase, mutation: Optional[str]
) -> Optional[str]:
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") as tmp:
        cache = ArtifactCache(tmp)
        cold = run_flow(fsm, cfg, cache=cache)
        warm = run_flow(fsm, cfg, cache=cache)
    warm_metrics = dict(warm.metrics)
    if mutation == "cache-metric-bump" and isinstance(
        warm_metrics.get("product_terms"), int
    ):
        warm_metrics["product_terms"] = warm_metrics["product_terms"] + 1
    if dict(cold.metrics) != warm_metrics:
        diff = sorted(
            k for k in set(cold.metrics) | set(warm_metrics)
            if cold.metrics.get(k) != warm_metrics.get(k)
        )
        return f"warm-cache metrics differ from cold run: {', '.join(diff)}"
    if cold.coverage_curve != warm.coverage_curve:
        return "warm-cache coverage curve differs from cold run"
    expected = [s for s in _WORK_STAGES
                if s != "faultsim" or cfg.fault_patterns is not None]
    missed = [s.name for s in warm.stages if s.name in expected and not s.cached]
    if missed:
        return f"warm run recomputed stages that should be cached: {', '.join(missed)}"
    return None


def _leaky_raise(mask: int, inputs: int, var: int) -> int:
    """The ``minimize-bitset-drop`` mutation of :func:`raised_mask`: the
    raised bitset drops the lowest minterm the raise adds, so EXPAND's
    containment check lets that one minterm through unchecked."""
    raised = raised_mask(mask, inputs, var)
    added = raised & ~mask
    return raised ^ (added & -added)


@contextmanager
def _leaky_bitsets() -> Iterator[None]:
    """EXPAND raises with :func:`_leaky_raise` while the block runs."""
    espresso.raised_mask = _leaky_raise
    try:
        yield
    finally:
        espresso.raised_mask = raised_mask


def _check_cover_contract(
    fsm: FSM, cfg: FlowConfig, case: FuzzCase, mutation: Optional[str]
) -> Optional[str]:
    if mutation == "minimize-bitset-drop":
        with _leaky_bitsets():
            result = run_flow(fsm, cfg.replace(fault_patterns=None), materialize=True)
    else:
        result = _materialized(fsm, cfg)
    controller = result.controller
    if controller is None:  # pragma: no cover - materialize=True always attaches it
        raise RuntimeError("materialized flow result lost its controller")
    on_set = controller.excitation.on_set
    dc_set = controller.excitation.dc_set
    cover = controller.minimization.cover
    # ``functionally_contains`` checks cube by cube and output by output,
    # with no tautology budget: nothing is left unchecked.
    if not cover.functionally_contains(on_set):
        return "minimised cover misses part of the ON-set"
    if not on_set.merged_with(dc_set).functionally_contains(cover):
        return "minimised cover reaches outside ON ∪ DC"
    return None


#: Invariant name -> checker.  A checker returns ``None`` on success or a
#: human-readable failure detail; exceptions are recorded as failures too.
INVARIANTS: Dict[
    str, Callable[[FSM, FlowConfig, FuzzCase, Optional[str]], Optional[str]]
] = {
    "kiss-roundtrip": _check_kiss_roundtrip,
    "seed-stability": _check_seed_stability,
    "engine-parity": _check_engine_parity,
    "score-parity": _check_score_parity,
    "cache-parity": _check_cache_parity,
    "cover-contract": _check_cover_contract,
}


# --------------------------------------------------------------- case making


def _family_params(rng: random.Random, family: str, states: int) -> Dict[str, Any]:
    if family == "controller":
        return {
            "states": states,
            "inputs": rng.randint(2, 7),
            "outputs": rng.randint(1, 5),
            "density": round(rng.uniform(1.5, 4.0), 2),
            "output_dc": round(rng.uniform(0.0, 0.4), 2),
        }
    if family == "chain":
        return {
            "states": states,
            "inputs": rng.randint(1, 4),
            "outputs": rng.randint(1, 4),
            "skip": rng.randint(2, 16),
        }
    if family == "ring":
        return {
            "states": states,
            "outputs": rng.randint(1, 4),
            "jump_every": rng.randint(4, 64),
        }
    branch = rng.choice([2, 4])
    dispatch = branch.bit_length() - 1
    return {
        "states": states,
        "branch": branch,
        "inputs": dispatch + rng.randint(0, 2),
        "outputs": rng.randint(1, 5),
    }


def make_cases(count: int, seed: int = 0) -> List[FuzzCase]:
    """Deterministically derive ``count`` cases from ``seed``.

    Sizes cycle through buckets (``case_id % 10``): seven small cases
    (4–28 states, full invariant set), two medium (30–80 states), one large
    (200–256 states, cheap invariants only — except the first large case,
    which also runs engine-parity so every ``--cases >= 10`` run covers the
    cross-engine oracles at >= 200 states).
    """
    rng = random.Random(seed)
    cases: List[FuzzCase] = []
    for case_id in range(count):
        bucket = case_id % 10
        if bucket <= 6:
            tier, states = "small", rng.randint(4, 28)
            family = rng.choice(["controller", "chain", "ring", "tree"])
        elif bucket <= 8:
            tier, states = "medium", rng.randint(30, 80)
            family = rng.choice(["controller", "chain", "ring", "tree"])
        else:
            tier, states = "large", rng.choice([200, 224, 256])
            family = rng.choice(["controller", "ring", "tree"])
        params = _family_params(rng, family, states)
        params["seed"] = rng.randrange(10_000)
        _, resolved = resolve_parameters(family, params)
        spec = canonical_spec(family, resolved)

        structure = "PST"
        if tier == "small":
            structure = rng.choice(["PST", "PST", "PST", "DFF", "PAT"])
        config = FlowConfig(
            structure=structure,
            seed=rng.randrange(10_000),
            minimize_method="quick" if tier == "large" else "auto",
            fault_patterns=None if tier == "large" else rng.randint(16, 48),
            fault_seed=rng.randrange(10_000),
        )
        if rng.random() < 0.5:
            config = config.replace(
                max_polynomials=rng.choice([4, 8, 16]),
                input_weight=rng.randint(1, 3),
                output_weight=rng.randint(0, 2),
            )

        invariants = ["kiss-roundtrip", "seed-stability"]
        word_widths: Tuple[int, ...] = (8, 64)
        if tier == "small":
            invariants += ["engine-parity", "cache-parity", "cover-contract"]
            if structure in ("PST", "SIG"):
                invariants.append("score-parity")
            if case_id % 3 == 0:
                word_widths = (8, 64, 256)
        elif tier == "medium":
            invariants += ["engine-parity", "cache-parity", "cover-contract"]
            word_widths = (32,)
            if structure in ("PST", "SIG") and states <= 48:
                invariants.append("score-parity")
        else:
            invariants.append("cache-parity")
            if case_id == 9:
                invariants.append("engine-parity")
                word_widths = (32,)
                config = config.replace(fault_patterns=16)
        cases.append(
            FuzzCase(
                case_id=case_id,
                spec=spec,
                config=config.to_dict(),
                invariants=tuple(invariants),
                word_widths=word_widths,
            )
        )
    return cases


# ------------------------------------------------------------ case checking


def check_case(case: FuzzCase, mutation: Optional[str] = None) -> Dict[str, Any]:
    """Run one case's invariants; returns a JSON-safe outcome record."""
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(
            f"unknown mutation {mutation!r}; known: {', '.join(MUTATIONS)}"
        )
    start = time.perf_counter()
    failures: List[Dict[str, str]] = []
    fsm: Optional[FSM] = None
    cfg = FlowConfig()
    try:
        cfg = FlowConfig.from_dict(case.config)
        fsm = resolve_fsm(case.spec)
    except Exception as exc:
        failures.append({
            "invariant": "resolve",
            "detail": f"case setup raised {type(exc).__name__}: {exc}",
        })
    if fsm is not None:
        for name in case.invariants:
            checker = INVARIANTS[name]
            try:
                detail = checker(fsm, cfg, case, mutation)
            except Exception as exc:
                detail = f"raised {type(exc).__name__}: {exc}"
            if detail is not None:
                failures.append({"invariant": name, "detail": detail})
        _case_flow.clear()
    return {
        "case": case.to_dict(),
        "status": "fail" if failures else "pass",
        "states": fsm.num_states if fsm is not None else None,
        "failures": failures,
        "seconds": round(time.perf_counter() - start, 3),
    }


def _shrunk_specs(spec: str) -> List[str]:
    """Candidate smaller specs, smallest first (greedy state-count shrink)."""
    generator, raw = parse_corpus_spec(spec)
    if generator == "file":
        return []
    _, params = resolve_parameters(generator, raw)
    states = int(params["states"])
    candidates: List[str] = []
    for target in (2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128):
        if target < states:
            shrunk = dict(params)
            shrunk["states"] = target
            candidates.append(canonical_spec(generator, shrunk))
    return candidates


def minimize_case(
    case: FuzzCase,
    failures: Sequence[Mapping[str, str]],
    mutation: Optional[str] = None,
    budget: int = 10,
) -> FuzzCase:
    """Greedy-shrink a failing case, re-running only its failing invariants.

    Tries successively smaller state counts (smallest first) and keeps the
    first (smallest) machine that still fails; the original case — trimmed
    to its failing invariants — is returned when nothing smaller reproduces
    within ``budget`` re-runs.
    """
    failing = tuple(
        inv for inv in case.invariants
        if any(f["invariant"] == inv for f in failures)
    )
    if not failing:
        return case
    base = FuzzCase(
        case_id=case.case_id,
        spec=case.spec,
        config=case.config,
        invariants=failing,
        word_widths=case.word_widths,
    )
    for spec in _shrunk_specs(case.spec)[:budget]:
        candidate = FuzzCase(
            case_id=case.case_id,
            spec=spec,
            config=case.config,
            invariants=failing,
            word_widths=case.word_widths,
        )
        if check_case(candidate, mutation)["status"] == "fail":
            return candidate
    return base


def replay_case(
    data: Mapping[str, Any], mutation: Optional[str] = None
) -> Dict[str, Any]:
    """Replay a serialized case (``--repro``); returns its outcome record."""
    payload: Mapping[str, Any] = data
    if data.get("kind") != "case" and "case" in data:
        # Accept a whole failure entry; replay its minimized case.
        entry = data.get("minimized") or data.get("case")
        if not isinstance(entry, Mapping):
            raise ValueError("failure entry carries no replayable case")
        payload = entry
    if mutation is None:
        stored = payload.get("mutation", data.get("mutation"))
        mutation = str(stored) if isinstance(stored, str) else None
    return check_case(FuzzCase.from_dict(payload), mutation)


# ---------------------------------------------------------------- the report


@dataclass
class FuzzReport:
    """Schema-versioned result of one fuzzing run (``repro.fuzz/1``)."""

    seed: int
    requested_cases: int
    mutation: Optional[str] = None
    outcomes: List[Dict[str, Any]] = field(default_factory=list)
    failures: List[Dict[str, Any]] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> int:
        return sum(1 for o in self.outcomes if o["status"] == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o["status"] != "pass")

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def invariant_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            for name in outcome["case"]["invariants"]:
                counts[name] = counts.get(name, 0) + 1
        return counts

    def max_states(self) -> int:
        return max((o["states"] or 0 for o in self.outcomes), default=0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": FUZZ_SCHEMA_VERSION,
            "seed": self.seed,
            "cases": self.requested_cases,
            "mutation": self.mutation,
            "passed": self.passed,
            "failed": self.failed,
            "max_states": self.max_states(),
            "invariant_counts": self.invariant_counts(),
            "seconds": round(self.seconds, 3),
            "outcomes": self.outcomes,
            "failures": self.failures,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FuzzReport":
        schema = data.get("schema")
        if schema != FUZZ_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported fuzz report schema {schema!r} "
                f"(expected {FUZZ_SCHEMA_VERSION!r})"
            )
        mutation = data.get("mutation")
        return cls(
            seed=int(data["seed"]),
            requested_cases=int(data["cases"]),
            mutation=str(mutation) if isinstance(mutation, str) else None,
            outcomes=[dict(o) for o in data.get("outcomes", [])],
            failures=[dict(f) for f in data.get("failures", [])],
            seconds=float(data.get("seconds", 0.0)),
        )


def run_fuzz(
    cases: int = 50,
    seed: int = 0,
    mutate: Optional[str] = None,
    minimize: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run the differential fuzzing harness.

    Fully deterministic for a given ``(cases, seed, mutate)``: the case
    list, every engine run and the minimized repro cases are all pure
    functions of the inputs.
    """
    if mutate is not None and mutate not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutate!r}; known: {', '.join(MUTATIONS)}")
    start = time.perf_counter()
    report = FuzzReport(seed=seed, requested_cases=cases, mutation=mutate)
    for case in make_cases(cases, seed=seed):
        outcome = check_case(case, mutate)
        report.outcomes.append(outcome)
        if progress is not None:
            progress(
                f"case {case.case_id}: {outcome['status']} "
                f"({outcome['states']} states, {outcome['seconds']}s)"
            )
        if outcome["status"] != "pass":
            minimized = (
                minimize_case(case, outcome["failures"], mutate) if minimize else case
            )
            report.failures.append({
                "case": case.to_dict(),
                "failures": outcome["failures"],
                "mutation": mutate,
                "minimized": {**minimized.to_dict(), "mutation": mutate},
            })
    report.seconds = time.perf_counter() - start
    return report
