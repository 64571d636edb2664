"""Digest-addressed corpus entries and the ``corpus:`` machine spec.

A corpus machine is addressed by a **spec string** usable anywhere a machine
name is accepted today (``run_flow``, ``Sweep``, every CLI subcommand, the
queue/HTTP workers — they all funnel through
:func:`repro.flow.pipeline.resolve_fsm`, which recognises the prefix)::

    corpus:<generator>                      # registry defaults
    corpus:<generator>:<k=v>[,<k=v>...]     # parameter overrides
    corpus:file:<path>                      # one ingested KISS2 file

Specs are canonicalised to the *full* parameter map (defaults filled in,
keys sorted), and the generated machine is **named by its canonical spec**.
Because :func:`repro.flow.pipeline.fsm_digest` hashes the name alongside the
canonical KISS2 text, the content digest that keys the artifact cache is a
pure function of ``(generator, params, seed)`` — two workers that resolve
the same spec share cache artifacts, and a parameter change can never alias
a stale artifact.

:func:`ingest_kiss_dir` turns a directory of ``.kiss``/``.kiss2`` files into
named, digest-addressed :class:`CorpusEntry` values whose specs feed the
same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Tuple, Union

from ..fsm.kiss import parse_kiss_file
from ..fsm.machine import FSM, FSMError
from .generators import generate_corpus_fsm, resolve_parameters

__all__ = [
    "CORPUS_PREFIX",
    "CorpusEntry",
    "canonical_spec",
    "is_corpus_spec",
    "parse_corpus_spec",
    "corpus_fsm",
    "corpus_entry",
    "ingest_kiss_dir",
]

#: Machine-spec prefix recognised by ``resolve_fsm``.
CORPUS_PREFIX = "corpus:"


@dataclass(frozen=True)
class CorpusEntry:
    """One named, digest-addressed corpus machine.

    ``spec`` is the string that resolves the machine anywhere a machine name
    is accepted (``run_flow``, ``Sweep``, the CLI); ``digest`` is its
    :func:`~repro.flow.pipeline.fsm_digest`, i.e. the value that joins the
    artifact-cache key path.
    """

    name: str
    spec: str
    digest: str
    states: int
    inputs: int
    outputs: int
    transitions: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "spec": self.spec,
            "digest": self.digest,
            "states": self.states,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "transitions": self.transitions,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CorpusEntry":
        return cls(
            name=str(data["name"]),
            spec=str(data["spec"]),
            digest=str(data["digest"]),
            states=int(data["states"]),
            inputs=int(data["inputs"]),
            outputs=int(data["outputs"]),
            transitions=int(data["transitions"]),
        )


def is_corpus_spec(source: str) -> bool:
    """True when ``source`` is a ``corpus:`` machine spec."""
    return source.startswith(CORPUS_PREFIX)


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def canonical_spec(generator: str, params: Mapping[str, Any]) -> str:
    """The canonical spec string for a full (defaults-resolved) parameter map."""
    body = ",".join(f"{key}={_format_value(params[key])}" for key in sorted(params))
    return f"{CORPUS_PREFIX}{generator}:{body}" if body else f"{CORPUS_PREFIX}{generator}"


def parse_corpus_spec(spec: str) -> Tuple[str, Dict[str, str]]:
    """Split a spec into ``(generator, raw params)`` without resolving them.

    ``corpus:file:<path>`` returns ``("file", {"path": <path>})``; the path
    is taken verbatim (it may itself contain ``:``).
    """
    if not is_corpus_spec(spec):
        raise FSMError(f"not a corpus spec (expected {CORPUS_PREFIX!r} prefix): {spec!r}")
    rest = spec[len(CORPUS_PREFIX):]
    if not rest:
        raise FSMError(f"corpus spec names no generator: {spec!r}")
    generator, _, body = rest.partition(":")
    if generator == "file":
        if not body:
            raise FSMError(f"corpus file spec names no path: {spec!r}")
        return "file", {"path": body}
    params: Dict[str, str] = {}
    if body:
        for item in body.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key or not value:
                raise FSMError(
                    f"malformed corpus parameter {item!r} in {spec!r} (expected k=v)"
                )
            if key in params:
                raise FSMError(f"duplicate corpus parameter {key!r} in {spec!r}")
            params[key] = value
    return generator, params


def corpus_fsm(spec: str) -> FSM:
    """Resolve a ``corpus:`` spec to a live :class:`FSM`.

    Generated machines are named by their canonical spec, so equal requests
    produce digest-identical machines regardless of parameter spelling or
    order; ``corpus:file:`` machines keep their file-stem name exactly like
    a direct ``.kiss2`` path.
    """
    generator, raw = parse_corpus_spec(spec)
    if generator == "file":
        return parse_kiss_file(raw["path"])
    _, resolved = resolve_parameters(generator, raw)
    return generate_corpus_fsm(
        generator, resolved, name=canonical_spec(generator, resolved)
    )


def corpus_entry(spec: str) -> CorpusEntry:
    """Resolve a spec and describe it as a digest-addressed entry."""
    from ..flow.pipeline import fsm_digest

    generator, raw = parse_corpus_spec(spec)
    if generator == "file":
        fsm = parse_kiss_file(raw["path"])
        resolved_spec = spec
    else:
        _, resolved = resolve_parameters(generator, raw)
        resolved_spec = canonical_spec(generator, resolved)
        fsm = generate_corpus_fsm(generator, resolved, name=resolved_spec)
    return CorpusEntry(
        name=fsm.name,
        spec=resolved_spec,
        digest=fsm_digest(fsm),
        states=fsm.num_states,
        inputs=fsm.num_inputs,
        outputs=fsm.num_outputs,
        transitions=len(fsm.transitions),
    )


def ingest_kiss_dir(directory: Union[str, Path]) -> List[CorpusEntry]:
    """Ingest every ``.kiss``/``.kiss2`` file under ``directory``.

    Returns digest-addressed entries sorted by machine name; each entry's
    ``spec`` (``corpus:file:<path>``) is directly usable in ``run_flow`` and
    ``Sweep``.  An empty or missing directory raises — an ingest that finds
    nothing is a configuration error, not an empty corpus.
    """
    from ..flow.pipeline import fsm_digest

    root = Path(directory)
    if not root.is_dir():
        raise FSMError(f"corpus ingest directory does not exist: {root}")
    files = sorted(
        p for p in root.iterdir() if p.suffix in (".kiss", ".kiss2") and p.is_file()
    )
    if not files:
        raise FSMError(f"no .kiss/.kiss2 files to ingest under {root}")
    entries: List[CorpusEntry] = []
    for path in files:
        fsm = parse_kiss_file(path)
        entries.append(
            CorpusEntry(
                name=fsm.name,
                spec=f"{CORPUS_PREFIX}file:{path}",
                digest=fsm_digest(fsm),
                states=fsm.num_states,
                inputs=fsm.num_inputs,
                outputs=fsm.num_outputs,
                transitions=len(fsm.transitions),
            )
        )
    entries.sort(key=lambda e: e.name)
    return entries
