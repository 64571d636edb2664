"""The executor-backend interface of the sweep orchestrator.

A :class:`SweepExecutor` takes the serializable cell payloads produced by
:meth:`repro.flow.Sweep.cells` and returns their outcomes **in submission
order** — the only contract the orchestrator needs to assemble a
deterministic :class:`~repro.flow.SweepResult`.  How the cells actually
run (in-process, in a local process pool, leased from a shared work-queue
directory by remote worker daemons) is entirely the backend's business.

Every backend funnels through :func:`repro.flow.cells.run_cell`, so all
of them are bit-identical modulo timing and worker-metadata fields.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Sequence

from ..cache import ArtifactCache

__all__ = ["ExecutionReport", "SweepExecutor"]


@dataclass
class ExecutionReport:
    """What one backend execution produced.

    ``outcomes`` are the :func:`~repro.flow.cells.run_cell` outcome
    dictionaries in submission order; the remaining fields are the
    executor metadata the orchestrator threads into
    ``SweepResult.to_dict()``.
    """

    outcomes: List[Dict[str, Any]]
    backend: str
    workers: int = 1
    cells_requeued: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_summary(
        cls, summary: Mapping[str, Any], backend: str, **extra: Any
    ) -> "ExecutionReport":
        """The report of a distributed run from its terminal ledger
        summary (:meth:`repro.flow.ledger.CellLedger.summary`), plus the
        backend's own ``extra`` metadata."""
        counters = summary["counters"]
        return cls(
            outcomes=[dict(outcome) for outcome in summary["outcomes"]],
            backend=backend,
            workers=max(1, len(summary["workers_seen"])),
            cells_requeued=int(counters["requeues"]),
            extra=dict(
                extra,
                workers_seen=list(summary["workers_seen"]),
                retries=int(counters["retries"]),
                corrupt_results=int(counters["corrupt_results"]),
                quarantined=list(summary["quarantined"]),
                retry_policy=dict(summary["retry_policy"]),
                cell_attempts=dict(summary["cell_attempts"]),
            ),
        )


class SweepExecutor(abc.ABC):
    """Pluggable execution strategy for a batch of sweep cells."""

    #: Backend name recorded in the executor metadata.
    name: ClassVar[str] = "abstract"

    #: True when cells run in the caller's process — the orchestrator then
    #: hands live FSM objects and its shared cache instance to the backend.
    in_process: ClassVar[bool] = False

    @abc.abstractmethod
    def execute(
        self,
        tasks: Sequence[Mapping[str, Any]],
        *,
        fsms: Optional[Mapping[str, Any]] = None,
        cache: Optional[ArtifactCache] = None,
    ) -> ExecutionReport:
        """Run every cell and return outcomes in submission order.

        ``fsms`` maps machine names to live FSM objects and ``cache`` is
        the orchestrator's shared cache instance; both are conveniences
        only in-process backends may use — out-of-process backends rebuild
        everything from the payloads.
        """
