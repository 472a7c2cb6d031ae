"""The parallel experiment runner: fan independent work over processes.

Experiments are sweeps of independent cells — E6 runs (arm, dwell)
cells, E7 runs (architecture, n_aps) cells — and the CLI runs whole
experiments back to back. Both levels are embarrassingly parallel as
long as every task derives its randomness from the task *key* rather
than from execution order, which this package enforces:

* :func:`derive_seed` — a stable seed from (root seed, task key), the
  per-task analogue of :meth:`repro.simcore.rng.RngRegistry.stream`'s
  name hashing: same key, same seed, in any process and any order.
* :func:`supervised_map` — the one ordered map, for experiments and
  sweep cells alike: fork workers with per-task deadlines, heartbeats,
  crashed and hung-worker kill + bounded retry (byte-identical by
  stable reseeding), structured :class:`TaskFailure` records, and
  checkpoint/resume via :class:`SweepCheckpoint` (see ROBUSTNESS.md).
  ``jobs=1`` (the default) runs a plain serial loop, so parallel tables
  are byte-identical to serial ones.
* :func:`set_jobs` / :func:`set_supervision` — the process-wide
  defaults the CLI's ``--jobs``, ``--task-timeout`` and ``--retries``
  set for every map.
* :class:`~repro.runner.shardpool.ShardWorkerPool` — the same workers
  pinned one per shard for a fork-mode sharded simulation.

Telemetry composes (see OBSERVABILITY.md): when a
:data:`~repro.telemetry.hub.HUB` run is active, workers bracket each
task with their own hub run and ship the collected per-simulator
telemetry back for the parent hub to splice in, in task order — so
``--profile`` merges per-worker hot-path tables exactly as a serial run
would.
"""

from repro.runner.checkpoint import SweepCheckpoint
from repro.runner.parallel import get_jobs, in_worker, set_jobs
from repro.runner.seeds import derive_seed
from repro.runner.supervisor import (
    SupervisorReport,
    TaskFailedError,
    TaskFailure,
    set_supervision,
    supervised_map,
    take_session_report,
)

__all__ = [
    "SupervisorReport",
    "SweepCheckpoint",
    "TaskFailedError",
    "TaskFailure",
    "derive_seed",
    "get_jobs",
    "in_worker",
    "set_jobs",
    "set_supervision",
    "supervised_map",
    "take_session_report",
]
