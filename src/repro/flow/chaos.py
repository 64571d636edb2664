"""Deterministic fault injection for the distributed sweep layer.

A :class:`FaultPlan` is a **seeded, serializable** description of the
adversity one run should face — worker crashes mid-cell, stalled
heartbeats, transient stage exceptions, per-stage slowdowns, corrupted
task/result payloads, corrupted cache entries.  The flow layer exposes
explicit injection *seams* (in :mod:`repro.flow.worker`,
:mod:`repro.flow.cells`, :mod:`repro.flow.backends.queue` and
:mod:`repro.flow.cache`) that consult the active plan at well-defined
sites; with no plan active every seam is a no-op on the hot path.

Activation:

* ``REPRO_CHAOS=<plan.json>`` in the environment — real ``repro worker``
  processes (and the orchestrator) pick the plan up, which is how CI runs
  a genuinely multi-process chaos'd sweep,
* :func:`set_active_plan` for in-process tests.

Determinism is the point: every injection decision is a pure function of
``(plan seed, rule index, site kind, site label, attempt)`` through a
SHA-256 draw — no RNG state, no wall clock — so a chaos run is exactly
reproducible across processes, hosts and reruns, and a failure found in
CI replays locally from the plan file alone.

Rules match sites by *cell label* (``kind:name:structure:seed``, a pure
content address — never the queue's per-run cell ids, which carry a
nonce) and by *attempt number*, which is what makes transient faults
transient: a rule with ``attempts=[1]`` fires on the first execution of a
matching cell and lets the retry succeed.

Schema (``repro.chaos/1``)::

    {
      "schema": "repro.chaos/1",
      "seed": 1991,
      "rules": [
        {"kind": "stage-error", "match": "flow:dk512:*", "stage": "minimize",
         "attempts": [1], "probability": 1.0},
        {"kind": "worker-crash", "match": "flow:ex4:PST:*"},
        {"kind": "heartbeat-stall", "match": "*:modulo12:*", "seconds": 5.0},
        ...
      ]
    }
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from .atomic import write_atomic

__all__ = [
    "CHAOS_SCHEMA",
    "CHAOS_ENV_VAR",
    "FAULT_KINDS",
    "ChaosStageError",
    "FaultRule",
    "FaultPlan",
    "active_plan",
    "set_active_plan",
    "cell_label",
    "corrupt_file",
]

CHAOS_SCHEMA = "repro.chaos/1"

#: Environment variable naming the active plan file for out-of-process
#: workers (and CLI orchestrators).
CHAOS_ENV_VAR = "REPRO_CHAOS"

#: Every injection site kind a rule may target.
FAULT_KINDS: Tuple[str, ...] = (
    "worker-crash",      # worker.py: os._exit mid-cell (kill -9 semantics)
    "heartbeat-stall",   # worker.py: suppress lease heartbeats for `seconds`
    "stage-error",       # cells.py/pipeline.py: raise before a stage runs
    "stage-delay",       # cells.py/pipeline.py: sleep `seconds` before a stage
    "corrupt-result",    # worker.py: upload a torn result (its transport tears it)
    "corrupt-task",      # backends/queue.py: submit a torn task payload
    "corrupt-cache",     # cache.py: corrupt the artifact just written
    # Network kinds of the HTTP coordinator path (repro.flow.net).  All
    # four are keyed by the request site label ``"METHOD /path"`` and the
    # sender's per-request try number, so a rule with ``attempts=[1]``
    # models a transient network fault (first try fails, the retry goes
    # through) and an unrestricted rule a hard network partition.
    "net-drop",          # net/protocol.py: connection dropped before sending
    "net-5xx",           # net/coordinator.py: respond 500 instead of handling
    "net-slow",          # net/coordinator.py: delay the response `seconds`
    "net-corrupt",       # net/protocol.py: corrupt the response body bytes
)


class ChaosStageError(RuntimeError):
    """The injected (transient, by default) stage exception.

    The message deliberately excludes the attempt number: the retry
    classifier compares structured error records across attempts, and an
    injected *deterministic* fault (a rule matching every attempt) must
    produce bit-identical records so it is classified as poison.
    """


@dataclass(frozen=True)
class FaultRule:
    """One injection rule of a plan.

    Args:
        kind: the injection site kind (one of :data:`FAULT_KINDS`).
        match: glob matched against the site label — for cell-scoped
            kinds the label is ``kind:name:structure:seed`` (see
            :func:`cell_label`); for ``corrupt-cache`` it is the artifact
            key.
        stage: restrict ``stage-error`` / ``stage-delay`` to one pipeline
            stage (``None``: any stage — the first one consulted fires).
        attempts: attempt numbers the rule fires on (empty: every
            attempt, which makes the fault deterministic poison).
        probability: seeded firing probability in ``[0, 1]`` — the draw
            is a pure hash of (seed, rule, site, attempt), so it is the
            same in every process that loads the plan.
        seconds: duration parameter (stall/delay kinds).
    """

    kind: str
    match: str = "*"
    stage: Optional[str] = None
    attempts: Tuple[int, ...] = (1,)
    probability: float = 1.0
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (expected one of {FAULT_KINDS})"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.seconds < 0:
            raise ValueError("seconds must be >= 0")

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind, "match": self.match}
        if self.stage is not None:
            data["stage"] = self.stage
        data["attempts"] = list(self.attempts)
        data["probability"] = self.probability
        data["seconds"] = self.seconds
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultRule":
        return cls(
            kind=str(data["kind"]),
            match=str(data.get("match", "*")),
            stage=data.get("stage"),
            attempts=tuple(int(a) for a in data.get("attempts", (1,))),
            probability=float(data.get("probability", 1.0)),
            seconds=float(data.get("seconds", 0.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable set of fault-injection rules."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()
    schema: str = CHAOS_SCHEMA

    # ---------------------------------------------------------------- decide
    def decide(
        self,
        kind: str,
        label: str,
        attempt: int = 1,
        stage: Optional[str] = None,
    ) -> Optional[FaultRule]:
        """The first rule firing at this site, or ``None``.

        A rule fires when its kind matches, its glob matches the label,
        the attempt is in its ``attempts`` set (empty set: any), its
        ``stage`` restriction matches, and its seeded probability draw
        passes.  The decision is a pure function of the plan and the
        site, identical in every process.
        """
        for index, rule in enumerate(self.rules):
            if rule.kind != kind:
                continue
            if not fnmatchcase(label, rule.match):
                continue
            if rule.attempts and attempt not in rule.attempts:
                continue
            if rule.stage is not None and stage is not None and rule.stage != stage:
                continue
            if rule.stage is not None and stage is None:
                continue
            if rule.probability < 1.0:
                if self._draw(index, kind, label, attempt) >= rule.probability:
                    continue
            return rule
        return None

    def _draw(self, rule_index: int, kind: str, label: str, attempt: int) -> float:
        """Deterministic uniform draw in ``[0, 1)`` for one (rule, site)."""
        material = f"{self.seed}:{rule_index}:{kind}:{label}:{attempt}"
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    # --------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        schema = str(data.get("schema", CHAOS_SCHEMA))
        if schema != CHAOS_SCHEMA:
            raise ValueError(
                f"unsupported chaos plan schema {schema!r} (expected {CHAOS_SCHEMA!r})"
            )
        return cls(
            seed=int(data.get("seed", 0)),
            rules=tuple(FaultRule.from_dict(r) for r in data.get("rules", ())),
            schema=schema,
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def save(self, path: Union[str, Path]) -> None:
        """Write the plan as JSON (atomically, like every flow-layer file)."""
        write_atomic(path, self.to_json().encode("utf-8"))


# ------------------------------------------------------------- activation


_override: Optional[FaultPlan] = None
#: (path, plan) cache of the env-named plan so hot seams do one dict
#: lookup + string compare, not a file read per consultation.
_env_cache: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def set_active_plan(plan: Optional[FaultPlan]) -> None:
    """Install (or with ``None`` clear) an in-process plan override.

    The override wins over ``$REPRO_CHAOS``; tests use it to chaos
    in-process backends and worker threads without touching the
    environment.
    """
    global _override
    _override = plan


def active_plan() -> Optional[FaultPlan]:
    """The currently active plan: the override, else ``$REPRO_CHAOS``."""
    if _override is not None:
        return _override
    path = os.environ.get(CHAOS_ENV_VAR)
    if not path:
        return None
    global _env_cache
    if _env_cache[0] != path:
        _env_cache = (path, FaultPlan.load(path))
    return _env_cache[1]


# ------------------------------------------------------------------ helpers


def cell_label(task: Mapping[str, Any]) -> str:
    """The content-addressed site label of one cell payload.

    ``kind:name:structure:seed`` — stable across backends, runs and queue
    nonces, so a plan written once targets the same cells everywhere.
    """
    config = task.get("config") or {}
    return (
        f"{task.get('kind', '?')}:{task.get('name', '?')}:"
        f"{config.get('structure', '?')}:{config.get('seed', '?')}"
    )


#: The deterministic garbage written over corrupted payloads: valid UTF-8,
#: invalid JSON, recognisably chaos-injected in a hex dump.
_CORRUPT_BYTES = b'{"chaos": "torn payload...'


def corrupt_file(path: Union[str, Path]) -> None:
    """Deterministically corrupt a payload file (torn-write simulation).

    The replacement is atomic — the point is an *unparseable/integrity-
    failing* payload, not a torn filesystem write, so concurrent readers
    still only ever see one of (old content, garbage).
    """
    write_atomic(path, _CORRUPT_BYTES)


def sleep_for(rule: FaultRule) -> None:
    """Serve a stall/delay rule's duration (one seam, one sleep site)."""
    if rule.seconds > 0:
        time.sleep(rule.seconds)
