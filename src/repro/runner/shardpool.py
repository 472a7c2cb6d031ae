"""Fork-worker driver for sharded simulation: one pinned worker per shard.

The :class:`~repro.simcore.sharded.ShardedSimulator` façade drives its
shards through a small driver interface (``couplings`` / ``start_time``
/ ``step`` / ``harvest`` / ``close``). This module is the multi-process
implementation. Each shard pins one supervisor worker
(:class:`repro.runner.supervisor._Worker`) and runs stateful tasks on
it: a build task keeps the built
:class:`~repro.simcore.sharded.ShardHost` in the worker's module state
(and, under an active hub run, opens the worker's own run), a step task
advances it one window, and a harvest task returns the result, the
stats and the worker's telemetry export. Every window is one pipe
round-trip per shard — the parent sends ``(until, final, records)`` to
every shard, the workers advance concurrently, and the parent blocks on
each reply in shard order.

Shard workers are **stateful**, so unlike
:func:`~repro.runner.supervisor.supervised_map` cells they are never
retried and have no deadline: an exception or a dead worker raises
:class:`~repro.runner.supervisor.TaskFailedError` naming the shard at
once. They share everything else with the supervised map: fork start,
nested maps degrading to serial, SIGINT shielding, the SIGTERM
flight-recorder post-mortem, the ``atexit`` reaper, and the hub's
worker export/absorb protocol so ``--profile`` output merges per-shard
data exactly like a serial drive.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.runner.supervisor import _Worker
from repro.telemetry.hub import HUB

__all__ = ["ShardWorkerPool"]

#: The shard this worker process hosts (each shard pins its own worker).
_HOST: Any = None


def _build(task) -> Tuple[float, List[Tuple[str, int, float]]]:
    """Worker task: build the shard and keep it for the later tasks."""
    global _HOST
    builder, spec, collect, profile, trace = task
    if collect:
        HUB.start_run(profile=profile, trace=trace)
    _HOST = builder(spec)
    return _HOST.sim.now, list(_HOST.boundary.couplings)


def _step(task) -> Tuple[List[Any], float]:
    """Worker task: inject the barrier's records and run one window."""
    until, final, records = task
    t0 = time.perf_counter()
    _HOST.inject(records)
    _HOST.advance(until, final)
    return _HOST.boundary.drain(), time.perf_counter() - t0


def _harvest(_task) -> Tuple[Any, Dict[str, Any], Any]:
    """Worker task: the shard's result, stats and telemetry export."""
    result = _HOST.harvest()
    stats = _HOST.stats()
    payload = HUB.export_worker_run() if HUB.active else None
    return result, stats, payload


class ShardWorkerPool:
    """Driver that runs each shard on its own pinned supervisor worker."""

    def __init__(self, builder: Callable[[Any], Any], specs: Sequence[Any]) -> None:
        self._workers: List[_Worker] = []
        try:
            for _ in specs:
                self._workers.append(_Worker())
            hub = (HUB.active, HUB.profiling, HUB.tracing)
            ready = self._call("build", _build,
                               [(builder, spec, *hub) for spec in specs])
        except BaseException:
            self.close()
            raise
        self._start_time = max(now for now, _ in ready)
        self._couplings = [couplings for _, couplings in ready]

    def _call(self, what: str, fn: Callable[[Any], Any],
              tasks: Sequence[Any]) -> List[Any]:
        """Send one task to every shard, then block on each reply."""
        for shard, (worker, task) in enumerate(zip(self._workers, tasks)):
            try:
                worker.assign(shard, f"shard {shard} {what}", fn, task)
            except (BrokenPipeError, OSError):
                pass  # the worker is dead: wait() reports the crash
        return [worker.wait(task)
                for worker, task in zip(self._workers, tasks)]

    def couplings(self) -> List[List[Tuple[str, int, float]]]:
        return self._couplings

    def start_time(self) -> float:
        return self._start_time

    def step(self, until: float, final: bool,
             injections: Sequence[Sequence[Any]],
             ) -> Tuple[List[List[Any]], List[float]]:
        replies = self._call("step", _step, [(until, final, records)
                                             for records in injections])
        return ([egress for egress, _ in replies],
                [spent for _, spent in replies])

    def harvest(self) -> Tuple[List[Any], List[Dict[str, Any]]]:
        replies = self._call("harvest", _harvest, [None] * len(self._workers))
        # Absorb in shard order so merged telemetry matches a serial
        # drive's adoption order.
        for _, _, payload in replies:
            if payload is not None:
                HUB.absorb_worker_run(payload)
        return ([result for result, _, _ in replies],
                [stats for _, stats, _ in replies])

    def close(self) -> None:
        for worker in self._workers:
            if worker.busy:  # a failed window: do not wait on the rest
                worker.kill()
            else:
                worker.stop()
        self._workers = []
