"""The configuration object of the staged synthesis flow.

:class:`FlowConfig` subsumes :class:`repro.bist.SynthesisOptions` and adds
the fault-simulation / self-test knobs, so a single frozen, serializable
value describes everything one flow run needs: the target structure, the
state-assignment effort, the two-level minimiser settings and the optional
stuck-at fault simulation.  Round-tripping through ``to_dict``/``from_dict``
is exact, which is what lets sweep cells be shipped to worker processes (and
eventually remote workers) and lets the artifact cache address results by a
content digest of the configuration.

Per-stage digests (:meth:`FlowConfig.stage_digest`) only hash the fields
that can change that stage's output: fault-simulation knobs do not
invalidate cached assignment or minimisation artifacts, and the knobs of
the MISR state assignment
(``seed``, ``beam_width``, ...) are hashed only for the PST and SIG
structures that run it: the DFF and PAT assigners read nothing but
``width``, so their artifacts are shared across seeds.  The assign stage
hashes its assigner (MUSTANG, PAT or MISR) in place of the structure, so
PST and SIG, which call the MISR assigner identically, share one
assignment artifact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from ..bist.structures import BISTStructure
from ..bist.synthesis import SynthesisOptions

__all__ = [
    "FlowConfig",
    "FLOW_STAGES",
    "MINIMIZER_KEYS",
    "add_flow_arguments",
    "config_from_args",
]

#: Stage names of the pipeline, in execution order.
FLOW_STAGES: Tuple[str, ...] = (
    "parse",
    "assign",
    "excite",
    "minimize",
    "faultsim",
    "report",
)

_VALID_STRUCTURES = tuple(s.value for s in BISTStructure)
_VALID_ASSIGNMENT_ENGINES = ("incremental", "reference")
_VALID_FAULT_ENGINES = ("compiled", "legacy")
_VALID_MINIMIZE_METHODS = ("auto", "espresso", "quick")

# The state assigner each structure runs (``bist.synthesis.assign_states``).
# The assign stage digests the assigner, not the structure: PST and SIG
# call the MISR assigner with identical arguments.
_ASSIGNERS: Dict[str, str] = {
    BISTStructure.DFF.value: "mustang",
    BISTStructure.PAT.value: "pat",
    BISTStructure.PST.value: "misr",
    BISTStructure.SIG.value: "misr",
}

# Fields that influence each (cacheable) stage's output.  Later stages
# include everything earlier stages depend on, so a stage digest implicitly
# chains through its upstream configuration.  The MISR-assignment fields
# are digested only for the structures in ``_MISR_STRUCTURES``: the DFF
# (MUSTANG) and PAT assigners read ``width`` alone, so hashing the seed
# there would recompute byte-identical artifacts for every seed.
_MISR_ASSIGN_KEYS = (
    "beam_width",
    "partitions_per_column",
    "seed",
    "assignment_engine",
    "multi_start",
    "max_polynomials",
    "input_weight",
    "output_weight",
)
_MISR_STRUCTURES = frozenset(s for s, assigner in _ASSIGNERS.items() if assigner == "misr")
_ASSIGN_KEYS = ("structure", "width") + _MISR_ASSIGN_KEYS
_EXCITE_KEYS = _ASSIGN_KEYS
#: The two-level minimiser's own knobs (``bist.synthesis.minimize_excitation``).
MINIMIZER_KEYS = (
    "minimize_method",
    "espresso_iterations",
    "tautology_budget",
    "quick_threshold",
)
_MINIMIZE_KEYS = _EXCITE_KEYS + MINIMIZER_KEYS
_FAULTSIM_KEYS = _MINIMIZE_KEYS + (
    "engine",
    "word_width",
    "fault_patterns",
    "fault_seed",
    "fault_collapse",
)

# Every key any structure can digest, per stage, so the digest-completeness
# lint rule sees each field; ``stage_digest`` drops ``_MISR_ASSIGN_KEYS``
# for DFF and PAT.
_STAGE_KEYS: Dict[str, Tuple[str, ...]] = {
    "assign": _ASSIGN_KEYS,
    "excite": _EXCITE_KEYS,
    "minimize": _MINIMIZE_KEYS,
    "faultsim": _FAULTSIM_KEYS,
}


@dataclass(frozen=True)
class FlowConfig:
    """Every knob of one flow run, as a frozen serializable value.

    The synthesis fields mirror :class:`repro.bist.SynthesisOptions`
    one-to-one; ``engine``/``word_width``/``fault_patterns``/``fault_seed``/
    ``fault_collapse`` configure the optional fault-simulation stage, and
    ``structure`` names the BIST target (``"DFF"``, ``"PAT"``, ``"SIG"`` or
    ``"PST"``).  ``fault_patterns=None`` skips the fault-simulation stage.
    A run is one process; sweeps parallelise across cells.
    """

    structure: str = "PST"
    width: Optional[int] = None
    beam_width: int = 4
    partitions_per_column: int = 8
    seed: int = 0
    minimize_method: str = "auto"
    espresso_iterations: int = 3
    tautology_budget: Optional[int] = 20_000
    quick_threshold: int = 700
    assignment_engine: str = "incremental"
    multi_start: int = 1
    max_polynomials: int = 16
    input_weight: int = 2
    output_weight: int = 1
    engine: str = "compiled"
    word_width: int = 256
    fault_patterns: Optional[int] = None
    fault_seed: int = 0
    fault_collapse: bool = False

    def __post_init__(self) -> None:
        if self.structure not in _VALID_STRUCTURES:
            raise ValueError(
                f"unknown structure {self.structure!r} (expected one of {_VALID_STRUCTURES})"
            )
        if self.assignment_engine not in _VALID_ASSIGNMENT_ENGINES:
            raise ValueError(
                f"unknown assignment engine {self.assignment_engine!r} "
                f"(expected one of {_VALID_ASSIGNMENT_ENGINES})"
            )
        if self.engine not in _VALID_FAULT_ENGINES:
            raise ValueError(
                f"unknown fault-sim engine {self.engine!r} (expected one of {_VALID_FAULT_ENGINES})"
            )
        if self.minimize_method not in _VALID_MINIMIZE_METHODS:
            raise ValueError(
                f"unknown minimize method {self.minimize_method!r} "
                f"(expected one of {_VALID_MINIMIZE_METHODS})"
            )
        if self.beam_width < 1 or self.partitions_per_column < 1:
            raise ValueError("beam_width and partitions_per_column must be >= 1")
        if self.multi_start < 1:
            raise ValueError("multi_start must be >= 1")
        if self.max_polynomials < 1:
            raise ValueError("max_polynomials must be >= 1")
        if self.input_weight < 0 or self.output_weight < 0:
            raise ValueError("input_weight and output_weight must be >= 0")
        if self.word_width < 1:
            raise ValueError("word_width must be >= 1")
        if self.fault_patterns is not None and self.fault_patterns < 0:
            raise ValueError("fault_patterns must be >= 0")

    # ------------------------------------------------------------- transforms
    @property
    def structure_enum(self) -> BISTStructure:
        return BISTStructure(self.structure)

    def replace(self, **changes: Any) -> "FlowConfig":
        """A copy with the given fields changed."""
        return replace(self, **changes)

    def to_synthesis_options(self) -> SynthesisOptions:
        """The :class:`SynthesisOptions` view of this configuration."""
        return SynthesisOptions(
            width=self.width,
            beam_width=self.beam_width,
            partitions_per_column=self.partitions_per_column,
            seed=self.seed,
            minimize_method=self.minimize_method,
            espresso_iterations=self.espresso_iterations,
            tautology_budget=self.tautology_budget,
            quick_threshold=self.quick_threshold,
            assignment_engine=self.assignment_engine,
            multi_start=self.multi_start,
            max_polynomials=self.max_polynomials,
            input_weight=self.input_weight,
            output_weight=self.output_weight,
        )

    @classmethod
    def from_synthesis_options(
        cls, options: Optional[SynthesisOptions], **extra: Any
    ) -> "FlowConfig":
        """Lift :class:`SynthesisOptions` (plus fault knobs) into a config."""
        opts = options or SynthesisOptions()
        values = {f.name: getattr(opts, f.name) for f in fields(SynthesisOptions)}
        values.update(extra)
        return cls(**values)

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dictionary; ``from_dict`` round-trips it exactly."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FlowConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown FlowConfig fields: {', '.join(unknown)}")
        return cls(**dict(data))

    def digest(self) -> str:
        """Content digest of the full configuration."""
        return _digest(self.to_dict())

    def stage_digest(self, stage: str) -> str:
        """Content digest of the fields that can change ``stage``'s output.

        A stage's digest is insensitive to knobs of later stages — changing
        ``fault_patterns`` keeps cached assignment/minimisation artifacts
        valid — the MISR-assignment knobs count only for PST and SIG, and
        the assign stage keys on the assigner rather than the structure.
        """
        try:
            keys = _STAGE_KEYS[stage]
        except KeyError:
            raise ValueError(
                f"stage {stage!r} has no cache digest (expected one of {sorted(_STAGE_KEYS)})"
            ) from None
        if self.structure not in _MISR_STRUCTURES:
            keys = tuple(key for key in keys if key not in _MISR_ASSIGN_KEYS)
        values = {key: getattr(self, key) for key in keys}
        if stage == "assign":
            values["assigner"] = _ASSIGNERS[values.pop("structure")]
        return _digest(values)


def _digest(data: Mapping[str, Any]) -> str:
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -------------------------------------------------------------- argparse glue


def add_flow_arguments(
    parser: argparse.ArgumentParser,
    structure: bool = False,
    default_structure: str = "PST",
) -> None:
    """Attach the shared flow options to an (sub)parser.

    Every CLI subcommand that runs the pipeline uses this single bridge, so
    the engine knobs (``--assignment-engine``, ``--multi-start``,
    ``--word-width``, ``--engine``) are available uniformly instead of
    drifting per subcommand.
    """
    if structure:
        parser.add_argument(
            "--structure", choices=list(_VALID_STRUCTURES), default=default_structure,
            help="target BIST structure",
        )
        parser.add_argument("--width", type=int, default=None,
                            help="number of state variables")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all randomised tie-breaking")
    parser.add_argument("--assignment-engine", choices=list(_VALID_ASSIGNMENT_ENGINES),
                        default="incremental",
                        help="scoring engine of the MISR state assignment")
    parser.add_argument("--multi-start", type=int, default=1,
                        help="independent state-assignment searches (best result wins)")
    parser.add_argument("--max-polynomials", type=int, default=16,
                        help="primitive feedback polynomials examined per register "
                             "width (MISR/LFSR polynomial-ablation axis)")
    parser.add_argument("--input-weight", type=int, default=2,
                        help="weight of the input (face) incompatibility term of "
                             "the MISR assignment cost")
    parser.add_argument("--output-weight", type=int, default=1,
                        help="weight of the output (excitation) incompatibility "
                             "term of the MISR assignment cost")
    parser.add_argument("--word-width", type=int, default=256,
                        help="pattern lanes per simulated word")
    parser.add_argument("--engine", choices=list(_VALID_FAULT_ENGINES), default="compiled",
                        help="fault-simulation back end")
    parser.add_argument("--cache-dir", default=None,
                        help="artifact-cache directory (content-addressed; reruns "
                             "skip unchanged stages)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the serialized FlowResult as JSON instead of text")


def config_from_args(args: argparse.Namespace, **overrides: Any) -> FlowConfig:
    """Build a :class:`FlowConfig` from a parsed argparse namespace.

    Only attributes present on the namespace are read, so one bridge serves
    every subcommand; ``overrides`` win over namespace values (used e.g. to
    map ``faultsim --patterns`` onto ``fault_patterns``).
    """
    values: Dict[str, Any] = {}
    for f in fields(FlowConfig):
        if hasattr(args, f.name):
            values[f.name] = getattr(args, f.name)
    values.update(overrides)
    return FlowConfig(**values)
