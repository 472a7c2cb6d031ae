"""Process-wide fan-out settings shared by every worker map.

The contract that keeps parallel runs byte-identical to serial ones:

* results come back in *item order*, never completion order;
* every task is self-seeding (see :mod:`repro.runner.seeds`) — nothing
  it computes may depend on which worker ran it or when;
* nested calls run serially: a worker that reaches another map just
  loops, so cell-level parallelism inside an experiment composes with
  experiment-level fan-out at the CLI without daemonic-process errors
  or oversubscription.

The map itself — fork workers with deadlines, heartbeats and retries —
is :func:`repro.runner.supervisor.supervised_map`; this module holds
the job count the CLI's ``--jobs`` sets and the in-worker flag.
"""

from __future__ import annotations

from repro.telemetry.hub import HUB

__all__ = ["get_jobs", "in_worker", "mark_worker", "set_jobs"]

#: Process-wide default fan-out, set once by the CLI's ``--jobs``.
_JOBS = 1

#: True inside a worker process: nested maps run serially instead of
#: forking grandchildren.
_IN_WORKER = False


def set_jobs(jobs: int) -> None:
    """Set the process-wide default worker count (1 = serial)."""
    global _JOBS
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    _JOBS = int(jobs)


def get_jobs() -> int:
    """The process-wide default worker count."""
    return _JOBS


def in_worker() -> bool:
    """True when executing inside a worker process."""
    return _IN_WORKER


def mark_worker() -> None:
    """Mark this process as a worker (nested maps run serially).

    Called by the supervisor's worker main; also drops any hub run
    inherited from a mid-run parent under the fork start method, so the
    child does not double-collect the parent's simulators.
    """
    global _IN_WORKER
    _IN_WORKER = True
    if HUB.active:
        HUB.abort_run()
