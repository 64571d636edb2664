"""Staged pipeline API unifying synthesis, fault simulation and benchmarks.

One serializable configuration (:class:`FlowConfig`), one staged runner
(:func:`run_flow` — ``parse -> assign -> excite -> minimize -> faultsim ->
report``), one serializable result (:class:`FlowResult`), a
content-addressed on-disk artifact cache (:class:`ArtifactCache`, with
size-bounded LRU eviction) and a batch orchestrator (:class:`Sweep`) that
fans ``machines x structures x seeds`` grids out through pluggable
executor backends (:mod:`repro.flow.backends`): in-process serial, a
local process pool, a filesystem work-queue serviced by ``repro
worker`` daemons (:mod:`repro.flow.worker`), or a ``repro serve`` HTTP
coordinator (:mod:`repro.flow.net`) whose ``repro worker --url`` fleets
and shared :class:`RemoteCache` tier span hosts with no shared
filesystem at all.  A run is one process; sweeps parallelise across
cells.

Every front end — the ``repro`` CLI, the benchmark harnesses under
``benchmarks/``, and remote workers — drives the engines of PR 1/2
through this layer; the classic :func:`repro.bist.synthesize` /
:func:`repro.bist.compare_structures` entry points remain as compatibility
wrappers over the same stage functions.
"""

from .backends import (
    BACKEND_NAMES,
    ExecutionReport,
    LocalPoolExecutor,
    QueueExecutor,
    RetryPolicy,
    SerialExecutor,
    SweepExecutor,
    resolve_backend,
)
from .backends.queue import run_worker
from .cache import ArtifactCache, artifact_key, default_cache_dir
from .cells import (
    CellDeadlineExceeded,
    cell_id,
    error_record,
    rebuild_fsm,
    run_cell,
    run_cell_safe,
)
from .chaos import ChaosStageError, FaultPlan, FaultRule, set_active_plan
from .config import FLOW_STAGES, FlowConfig, add_flow_arguments, config_from_args
from .fsck import FsckIssue, FsckReport, fsck_queue
from .net import (
    NET_SCHEMA,
    Coordinator,
    CoordinatorHandle,
    HttpExecutor,
    RemoteCache,
    run_coordinator,
    run_http_worker,
)
from .pipeline import fsm_digest, resolve_fsm, run_flow
from .results import FLOW_RESULT_SCHEMA, FlowResult, StageResult
from .sweep import BaselineResult, Sweep, SweepResult
from .worker import WorkerStats

__all__ = [
    "ArtifactCache",
    "artifact_key",
    "default_cache_dir",
    "FLOW_STAGES",
    "FlowConfig",
    "add_flow_arguments",
    "config_from_args",
    "fsm_digest",
    "resolve_fsm",
    "run_flow",
    "FLOW_RESULT_SCHEMA",
    "FlowResult",
    "StageResult",
    "BaselineResult",
    "Sweep",
    "SweepResult",
    "BACKEND_NAMES",
    "ExecutionReport",
    "SweepExecutor",
    "SerialExecutor",
    "LocalPoolExecutor",
    "QueueExecutor",
    "RetryPolicy",
    "resolve_backend",
    "CellDeadlineExceeded",
    "cell_id",
    "error_record",
    "rebuild_fsm",
    "run_cell",
    "run_cell_safe",
    "ChaosStageError",
    "FaultPlan",
    "FaultRule",
    "set_active_plan",
    "FsckIssue",
    "FsckReport",
    "fsck_queue",
    "WorkerStats",
    "run_worker",
    "NET_SCHEMA",
    "Coordinator",
    "CoordinatorHandle",
    "HttpExecutor",
    "RemoteCache",
    "run_coordinator",
    "run_http_worker",
]
