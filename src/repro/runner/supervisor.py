"""Supervised ordered map: deadlines, heartbeats, kill, and retry.

The one place the harness starts processes. A crashed fork worker (OOM
kill, segfault in a native extension) or a hung task must not strand
the whole ``--all --jobs N`` regeneration; this module is the execution
layer the paper's own argument demands the harness have (§3:
independently-failing parts must not take the federation down). It runs
the ordered, self-seeding task contract of :mod:`repro.runner.parallel`
under *supervision* — for whole experiments, for their sweep cells, and
(as pinned stateful workers) for the shards of a fork-mode
:class:`~repro.simcore.sharded.ShardedSimulator`:

* **per-task deadlines** — a task that exceeds ``task_timeout_s`` of
  wall clock is declared hung and its worker is killed (SIGKILL);
* **heartbeats** — each worker beats on its result pipe from a side
  thread; a silent-but-alive worker (SIGSTOP, kernel-level wedge) is
  declared hung after ``_HEARTBEAT_LIMIT_S`` even with no deadline set;
* **crash detection** — a worker whose pipe hits EOF (process died) is
  reaped and replaced;
* **bounded retry with stable reseeding** — a killed or crashed task is
  re-executed up to ``retries`` times on a fresh worker. Tasks are
  self-seeding (:func:`repro.runner.seeds.derive_seed` keys the task,
  not the attempt), so a retried task reproduces byte-identical output;
* **structured failure records** — every crash/hang/exception becomes a
  :class:`TaskFailure` on the :class:`SupervisorReport`, and counters
  (``runner.supervisor.{crashes,hangs,exceptions,retries}``) land in the
  ambient telemetry registry so ``--metrics-out`` exports them. The
  counters are created lazily: a clean run's telemetry is byte-identical
  to an unsupervised one;
* **checkpoint/resume** — with a :class:`~repro.runner.checkpoint.
  SweepCheckpoint`, completed tasks are journaled as they finish and
  already-journaled tasks are replayed without executing (see
  ``--resume``).

Worker processes are tracked in a module-global registry with an
``atexit`` reaper, and every exit path (success, failure, Ctrl-C) kills
and joins the full worker set — no orphans survive the parent.

Chaos hooks for the kill-tests: when ``REPRO_CHAOS_PLAN`` is set (e.g.
``"E5:crash,E9:hang"``) and ``REPRO_CHAOS_DIR`` names a directory, a
worker about to run a task whose label appears in the plan first writes
a once-marker file there and then dies (``crash``) or spins past any
deadline (``hang``) — exactly once per label, so the retry succeeds.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from multiprocessing.connection import wait as _conn_wait

from repro.runner.parallel import get_jobs, in_worker, mark_worker
from repro.telemetry import flightrec
from repro.telemetry.hub import HUB, ambient_registry

__all__ = ["SupervisorReport", "TaskFailedError", "TaskFailure",
           "set_supervision", "supervised_map", "take_session_report"]

#: Live supervisor worker processes, reaped at interpreter exit.
_LIVE_WORKERS: set = set()

#: Parent poll tick (seconds): bounds detection latency, not throughput.
_TICK_S = 0.05

#: Worker beat interval, and the silence after which a busy worker
#: that is still alive is declared hung.
_HEARTBEAT_S = 1.0
_HEARTBEAT_LIMIT_S = 5.0

#: Process-wide supervision defaults, set once by the CLI's
#: ``--task-timeout`` and ``--retries`` (see :func:`set_supervision`).
_TASK_TIMEOUT_S: Optional[float] = None
_RETRIES = 0

#: Task tokens: a result is matched to the attempt that produced it.
_TOKENS = itertools.count(1)


def set_supervision(task_timeout_s: Optional[float] = None,
                    retries: int = 0) -> None:
    """Set the deadline and retry budget every :func:`supervised_map`
    call defaults to — experiment-level fan-out and sweep cells alike.

    ``task_timeout_s=None`` means no deadline.
    """
    global _TASK_TIMEOUT_S, _RETRIES
    if task_timeout_s is not None and task_timeout_s <= 0:
        raise ValueError(f"task_timeout_s must be positive, "
                         f"got {task_timeout_s}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    _TASK_TIMEOUT_S = task_timeout_s
    _RETRIES = int(retries)


def _reap_workers() -> None:
    """atexit hook: kill any supervisor worker the parent left behind."""
    for proc in list(_LIVE_WORKERS):
        try:
            if proc.is_alive():
                proc.kill()
                proc.join()
        except Exception:  # pragma: no cover - interpreter teardown
            pass
    _LIVE_WORKERS.clear()


atexit.register(_reap_workers)


@dataclass(frozen=True)
class TaskFailure:
    """One supervised-task failure event (crash, hang, or exception)."""

    label: str
    slot: int
    attempt: int
    kind: str  # "crash" | "hang" | "exception"
    detail: str
    elapsed_s: float

    def __str__(self) -> str:
        return (f"[{self.kind}] task {self.label!r} (slot {self.slot}, "
                f"attempt {self.attempt}, {self.elapsed_s:.1f}s): "
                f"{self.detail.splitlines()[-1] if self.detail else ''}")


class TaskFailedError(RuntimeError):
    """A supervised task exhausted its retry budget.

    Carries the final :class:`TaskFailure` plus the full failure history
    for the task, so the original worker-side traceback (for exception
    kinds) survives into the parent's error.
    """

    def __init__(self, failure: TaskFailure, item: Any,
                 history: Sequence[TaskFailure]) -> None:
        self.failure = failure
        self.item = item
        self.history = list(history)
        item_repr = repr(item)
        if len(item_repr) > 200:
            item_repr = item_repr[:197] + "..."
        lines = [f"supervised task {failure.label!r} (slot {failure.slot}, "
                 f"item {item_repr}) failed {len(self.history)} time(s); "
                 f"last failure: {failure.kind}"]
        if failure.detail:
            lines.append(failure.detail)
        super().__init__("\n".join(lines))


@dataclass
class SupervisorReport:
    """What a supervised run did beyond returning results."""

    failures: List[TaskFailure] = field(default_factory=list)
    retries: int = 0
    crashes: int = 0
    hangs: int = 0
    exceptions: int = 0
    completed: int = 0
    replayed_from_checkpoint: int = 0

    def record(self, failure: TaskFailure) -> None:
        """Append a failure and bump the matching counters."""
        self.failures.append(failure)
        if failure.kind == "crash":
            self.crashes += 1
        elif failure.kind == "hang":
            self.hangs += 1
        else:
            self.exceptions += 1
        # lazily-created counters: a clean run never touches the
        # registry, keeping its telemetry byte-identical
        registry = ambient_registry()
        registry.counter("runner.supervisor.failures",
                         kind=failure.kind).inc()

    def merge(self, other: "SupervisorReport") -> None:
        """Add another report's failures and counts to this one."""
        self.failures.extend(other.failures)
        self.retries += other.retries
        self.crashes += other.crashes
        self.hangs += other.hangs
        self.exceptions += other.exceptions
        self.completed += other.completed
        self.replayed_from_checkpoint += other.replayed_from_checkpoint

    def __str__(self) -> str:
        return (f"<SupervisorReport completed={self.completed} "
                f"retries={self.retries} crashes={self.crashes} "
                f"hangs={self.hangs} exceptions={self.exceptions} "
                f"replayed={self.replayed_from_checkpoint}>")


#: every map's report in this process since the last
#: :func:`take_session_report`, so a sweep deep inside an experiment
#: still reaches the CLI's end-of-run summary
_SESSION_REPORT = SupervisorReport()


def take_session_report() -> SupervisorReport:
    """Return what every map since the last call did, and start afresh."""
    global _SESSION_REPORT
    report, _SESSION_REPORT = _SESSION_REPORT, SupervisorReport()
    return report


# -- chaos hooks (worker side) -------------------------------------------------


def _maybe_chaos(label: str) -> None:
    """Die or hang once per label when a chaos plan names this task."""
    plan = os.environ.get("REPRO_CHAOS_PLAN")
    if not plan:
        return
    # labels may themselves contain colons (e.g. "exp:E16"), so the
    # action is whatever follows the *last* colon
    actions = dict(entry.rsplit(":", 1) for entry in plan.split(",")
                   if ":" in entry)
    action = actions.get(label)
    if action is None:
        return
    chaos_dir = os.environ.get("REPRO_CHAOS_DIR")
    if not chaos_dir:
        raise RuntimeError("REPRO_CHAOS_PLAN set without REPRO_CHAOS_DIR")
    marker = os.path.join(chaos_dir, f"chaos-{label}.done")
    if os.path.exists(marker):
        return  # already fired: the retry runs clean
    with open(marker, "w") as handle:
        handle.write(action)
    if action == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    elif action == "hang":
        while True:  # pragma: no cover - killed by the supervisor
            time.sleep(3600)
    else:
        raise ValueError(f"unknown chaos action {action!r} for {label!r}")


# -- worker side ---------------------------------------------------------------


def _worker_main(conn) -> None:
    """Supervisor worker: serve tasks from ``conn`` until told to stop.

    Protocol (all on one duplex pipe, parent <-> worker):

    * parent -> worker: ``("task", token, slot, label, fn, item,
      collect, profile, trace)`` or ``("stop",)``;
    * worker -> parent: ``("beat", token)`` every ``_HEARTBEAT_S`` while
      a task runs, then ``("done", token, slot, result)`` or
      ``("fail", token, slot, exc_type, traceback_text)``.

    The worker process outlives its tasks, so a task may keep state in
    its own module between calls: the shard pool pins one worker per
    shard and holds the shard's simulator there across windows.

    A side thread emits the beats; sends are serialized with a lock so
    a beat never interleaves a result mid-pickle.

    When the supervisor kills this worker (deadline/heartbeat), the
    first signal is SIGTERM: the handler below writes a flight-recorder
    post-mortem — the black box of whatever the worker was doing — then
    exits. SIGKILL follows after a grace period only if the worker is
    too wedged to run the handler.
    """
    mark_worker()
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass

    def _on_sigterm(signum, frame):
        flightrec.write_postmortem(
            "supervisor-kill",
            detail=f"worker pid {os.getpid()} terminated by supervisor "
                   f"(deadline, heartbeat timeout, or teardown after a "
                   f"failed task)")
        os._exit(70)

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    send_lock = threading.Lock()
    current_token: List[Optional[int]] = [None]
    stop_beats = threading.Event()

    def beat_loop() -> None:
        while not stop_beats.wait(_HEARTBEAT_S):
            token = current_token[0]
            if token is None:
                continue
            try:
                with send_lock:
                    conn.send(("beat", token))
            except (BrokenPipeError, OSError):  # parent died
                return

    beats = threading.Thread(target=beat_loop, daemon=True,
                             name="supervisor-heartbeat")
    beats.start()
    try:
        while True:
            message = conn.recv()
            if message[0] == "stop":
                return
            _kind, token, slot, label, fn, item, collect, profile, trace = \
                message
            current_token[0] = token
            _maybe_chaos(label)
            try:
                if collect:
                    if HUB.active:  # inherited via fork mid-run
                        HUB.abort_run()
                    HUB.start_run(profile=profile, trace=trace)
                    started_at = time.monotonic()
                    try:
                        result = fn(item)
                    except BaseException:
                        HUB.abort_run()
                        raise
                    exec_s = time.monotonic() - started_at
                    # pickle here, timed and sized, for runner-lifecycle
                    # tracing; the pipe then ships one cheap bytes object
                    t0 = time.monotonic()
                    blob = pickle.dumps((result, HUB.export_worker_run()),
                                        protocol=pickle.HIGHEST_PROTOCOL)
                    payload = (blob, {
                        "pid": os.getpid(), "started_at": started_at,
                        "exec_s": exec_s,
                        "serialize_s": time.monotonic() - t0,
                        "serialize_bytes": len(blob),
                        "finished_at": time.monotonic()})
                else:
                    payload = fn(item)
            except Exception as exc:
                current_token[0] = None
                with send_lock:
                    conn.send(("fail", token, slot, type(exc).__name__,
                               traceback.format_exc()))
            else:
                current_token[0] = None
                with send_lock:
                    conn.send(("done", token, slot, payload))
    except (EOFError, KeyboardInterrupt, BrokenPipeError, OSError):
        pass  # parent went away; die quietly
    finally:
        stop_beats.set()


# -- parent side ---------------------------------------------------------------


def _context():
    """Prefer fork (cheap, Linux default); fall back to the platform default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


class _Worker:
    """Parent-side handle: process, pipe, and the task it holds."""

    __slots__ = ("proc", "conn", "token", "slot", "label", "started_at",
                 "last_beat")

    def __init__(self) -> None:
        ctx = _context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.proc = ctx.Process(target=_worker_main, args=(child_conn,),
                                daemon=True, name="repro-supervised-worker")
        self.proc.start()
        child_conn.close()  # the worker holds the only other end
        _LIVE_WORKERS.add(self.proc)
        self.token: Optional[int] = None
        self.slot: Optional[int] = None
        self.label = ""
        self.started_at = 0.0
        self.last_beat = 0.0

    @property
    def busy(self) -> bool:
        return self.token is not None

    def assign(self, slot: int, label: str, fn, item, collect: bool = False,
               profile: bool = False, trace: bool = False) -> None:
        now = time.monotonic()
        self.token, self.slot, self.label = next(_TOKENS), slot, label
        self.started_at = self.last_beat = now
        self.conn.send(("task", self.token, slot, label, fn, item,
                        collect, profile, trace))

    def settle(self) -> None:
        """Mark idle after a result arrived."""
        self.token = self.slot = None

    def wait(self, item: Any) -> Any:
        """Block until the held task replies; return its result.

        For pinned stateful workers (the shard pool), whose tasks cannot
        be retried elsewhere: beats are skipped, and an exception or a
        dead worker raises :class:`TaskFailedError` at once.
        """
        while True:
            try:
                message = self.conn.recv()
            except (EOFError, OSError):
                self.proc.join(1.0)
                kind = "crash"
                detail = (f"worker pid {self.proc.pid} died "
                          f"(pipe EOF, exitcode {self.proc.exitcode})")
                break
            if message[0] == "beat" or message[1] != self.token:
                continue
            if message[0] == "done":
                self.settle()
                return message[3]
            kind = "exception"
            detail = f"{message[3]} in worker:\n{message[4]}"
            break
        failure = TaskFailure(label=self.label, slot=self.slot, attempt=1,
                              kind=kind, detail=detail,
                              elapsed_s=time.monotonic() - self.started_at)
        self.settle()
        raise TaskFailedError(failure, item, [failure])

    def kill(self, grace_s: float = 1.0) -> None:
        """Terminate the process and drop it from the live registry.

        SIGTERM first: the worker's handler writes its flight-recorder
        post-mortem (the black box of the hung/doomed task) and exits.
        SIGKILL follows after ``grace_s`` only if the worker is wedged
        too hard to run the handler.
        """
        try:
            if self.proc.is_alive():
                self.proc.terminate()
                self.proc.join(grace_s)
                if self.proc.is_alive():
                    self.proc.kill()
            self.proc.join()
        finally:
            _LIVE_WORKERS.discard(self.proc)
            try:
                self.conn.close()
            except OSError:  # pragma: no cover
                pass

    def stop(self) -> None:
        """Ask the worker to exit cleanly; fall back to kill."""
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=2.0)
        self.kill()


def supervised_map(fn: Callable[[Any], Any], items: Sequence[Any],
                   jobs: Optional[int] = None,
                   costs: Optional[Sequence[float]] = None,
                   labels: Optional[Sequence[str]] = None,
                   task_timeout_s: Optional[float] = None,
                   retries: Optional[int] = None,
                   checkpoint=None,
                   report: Optional[SupervisorReport] = None) -> List[Any]:
    """Ordered map over supervised fork workers; results in item order.

    The contract of :mod:`repro.runner.parallel` — picklable
    ``fn``/``items``, self-seeding tasks, nested calls run serially —
    plus supervision:

    Args:
        jobs: worker count; defaults to :func:`~repro.runner.parallel.
            get_jobs`. ``1`` (or a nested call inside a worker) runs
            inline — the reference behavior parallel runs must match.
        costs: optional per-item cost hints; tasks are *submitted*
            longest-first, results still come back in item order.
        labels: stable per-task names (default the item index as a
            string); used in failure records, chaos plans, and as
            checkpoint keys — must be unique.
        task_timeout_s: wall-clock deadline per attempt; exceeding it
            kills the worker and counts a hang. ``None`` takes the
            process-wide default (:func:`set_supervision`).
        retries: extra attempts per task after a crash/hang/exception;
            ``None`` takes the process-wide default.
        checkpoint: a :class:`~repro.runner.checkpoint.SweepCheckpoint`;
            tasks already journaled are replayed without executing, and
            completed tasks are journaled as they finish (results must
            be JSON-serializable). Incompatible with an active telemetry
            run (replayed tasks would contribute no telemetry).
        report: a :class:`SupervisorReport` to add this map's failures
            and counts to. Every map's are also added to the process
            session report (:func:`take_session_report`).

    Raises:
        TaskFailedError: a task failed ``retries + 1`` times; all
            workers are killed and joined before it propagates. At
            ``jobs=1`` it is chained from the task's own exception.

    Serial mode executes inline with the same retry/annotation/
    checkpoint semantics but cannot preempt hangs — deadlines need
    workers. A single pending item at ``jobs>1`` therefore still gets a
    worker, so ``--task-timeout`` protects one-task maps too.

    Telemetry (see OBSERVABILITY.md): with an active hub run, each task
    is bracketed with a worker-side hub run and its per-simulator
    telemetry is absorbed into the parent run in item order, and each
    map records runner-lifecycle timings (fork, queue wait, exec,
    pickle, ship, merge) into ``HUB.lifecycle``.
    """
    own = SupervisorReport()
    try:
        return _supervised_map(fn, items, jobs, costs, labels,
                               task_timeout_s, retries, checkpoint, own)
    finally:
        if report is not None:
            report.merge(own)
        _SESSION_REPORT.merge(own)


def _supervised_map(fn, items, jobs, costs, labels, task_timeout_s,
                    retries, checkpoint, report) -> List[Any]:
    items = list(items)
    n = jobs if jobs is not None else get_jobs()
    if n < 1:
        raise ValueError(f"jobs must be >= 1, got {n}")
    if task_timeout_s is None:
        task_timeout_s = _TASK_TIMEOUT_S
    if retries is None:
        retries = _RETRIES
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if labels is None:
        labels = [str(i) for i in range(len(items))]
    else:
        labels = [str(label) for label in labels]
        if len(labels) != len(items):
            raise ValueError("labels must align with items")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be unique")
    if costs is not None and len(costs) != len(items):
        raise ValueError("costs must align with items")
    collecting = HUB.active
    if checkpoint is not None and collecting:
        raise ValueError("checkpoint/resume cannot run under an active "
                         "telemetry run: replayed tasks contribute no "
                         "telemetry, so exports would not match")

    results: List[Any] = [None] * len(items)
    telemetry_payloads: List[Any] = [None] * len(items)
    pending: List[int] = []
    for slot in range(len(items)):
        if checkpoint is not None and checkpoint.done(labels[slot]):
            results[slot] = checkpoint.get(labels[slot])
            report.replayed_from_checkpoint += 1
        else:
            pending.append(slot)
    if not pending:
        return results

    def finish(slot: int, value: Any) -> None:
        if collecting:
            results[slot], telemetry_payloads[slot] = value
        else:
            results[slot] = value
        report.completed += 1
        if checkpoint is not None:
            checkpoint.record(labels[slot], results[slot])

    if n == 1 or in_worker():
        _serial_supervised(fn, items, labels, pending, retries, report,
                           collecting, finish)
        record = None
    else:
        record = _parallel_supervised(fn, items, labels, pending, costs, n,
                                      task_timeout_s, retries, report,
                                      collecting, finish)

    if collecting:
        by_slot = ({task.slot: task for task in record.tasks}
                   if record is not None else {})
        for slot in range(len(items)):
            payload = telemetry_payloads[slot]
            if payload is not None:
                t0 = time.monotonic()
                HUB.absorb_worker_run(payload)
                task = by_slot.get(slot)
                if task is not None:
                    task.merge_s += time.monotonic() - t0
        lifecycle = HUB.lifecycle
        if record is not None and lifecycle is not None:
            lifecycle.finish_map(record)
    return results


def _serial_supervised(fn, items, labels, pending, retries, report,
                       collecting, finish) -> None:
    """Inline fallback: retry + annotate, no preemption."""
    for slot in pending:
        attempt = 0
        history: List[TaskFailure] = []
        while True:
            attempt += 1
            started = time.monotonic()
            try:
                if collecting:
                    # serial mode inside an active run: the parent hub
                    # already collects this process's simulators, so run
                    # the task directly
                    value = (fn(items[slot]), None)
                else:
                    value = fn(items[slot])
            except Exception as exc:
                failure = TaskFailure(
                    label=labels[slot], slot=slot, attempt=attempt,
                    kind="exception",
                    detail=traceback.format_exc(),
                    elapsed_s=time.monotonic() - started)
                report.record(failure)
                history.append(failure)
                if attempt > retries:
                    raise TaskFailedError(failure, items[slot],
                                          history) from exc
                report.retries += 1
                ambient_registry().counter("runner.supervisor.retries").inc()
            else:
                finish(slot, value)
                break


def _parallel_supervised(fn, items, labels, pending, costs, jobs,
                         task_timeout_s, retries, report, collecting,
                         finish):
    """The supervised pool: assign, watch, kill, retry.

    Returns the map's lifecycle record (or None when not collecting) so
    the caller can add hub-merge timings and close it.
    """
    queue = list(pending)
    if costs is not None:
        queue.sort(key=lambda slot: -costs[slot])
    queue.reverse()  # pop() takes the longest first

    attempts: Dict[int, int] = {slot: 0 for slot in pending}
    history: Dict[int, List[TaskFailure]] = {slot: [] for slot in pending}
    profile, trace = HUB.profiling, HUB.tracing
    lifecycle = HUB.lifecycle if collecting else None
    map_started = time.monotonic()
    workers: List[_Worker] = [_Worker()
                              for _ in range(min(jobs, len(pending)))]
    record = None
    if lifecycle is not None:
        record = lifecycle.begin_map(min(jobs, len(pending)))
        record.started_at = map_started
        record.fork_s = time.monotonic() - map_started
    outstanding = len(pending)

    def assign_next(worker: _Worker) -> None:
        while queue:
            slot = queue.pop()
            attempts[slot] += 1
            try:
                worker.assign(slot, labels[slot], fn, items[slot],
                              collecting, profile, trace)
                return
            except (BrokenPipeError, OSError):
                # the worker died between spawn and first task: charge
                # no attempt, replace it, and try the next fresh worker
                attempts[slot] -= 1
                queue.append(slot)
                worker.kill()
                workers.remove(worker)
                worker = _Worker()
                workers.append(worker)

    def fail_task(worker: _Worker, kind: str, detail: str) -> _Worker:
        """Record a crash/hang, kill the worker, retry or abort.

        Killing starts with SIGTERM so the worker writes its own
        flight-recorder dump; the parent then records its side of the
        story (which task, which attempt, how long) as a second
        post-mortem — the pair is the black box of the failure.
        """
        nonlocal outstanding
        slot = worker.slot
        pid = worker.proc.pid
        elapsed = time.monotonic() - worker.started_at
        worker.kill()
        workers.remove(worker)
        replacement = _Worker()
        workers.append(replacement)
        failure = TaskFailure(label=labels[slot], slot=slot,
                              attempt=attempts[slot], kind=kind,
                              detail=detail, elapsed_s=elapsed)
        report.record(failure)
        history[slot].append(failure)
        flightrec.write_postmortem(
            f"supervisor-{kind}", detail=str(failure), sims=[],
            extra={"task": {"label": failure.label, "slot": slot,
                            "attempt": failure.attempt,
                            "elapsed_s": failure.elapsed_s,
                            "worker_pid": pid}})
        if attempts[slot] > retries:
            raise TaskFailedError(failure, items[slot], history[slot])
        report.retries += 1
        ambient_registry().counter("runner.supervisor.retries").inc()
        queue.append(slot)  # retried next; byte-identical by self-seeding
        return replacement

    try:
        for worker in workers:
            assign_next(worker)
        while outstanding > 0:
            conns = {worker.conn: worker for worker in workers}
            ready = _conn_wait(list(conns), timeout=_TICK_S)
            for conn in ready:
                worker = conns[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    if worker.busy:
                        replacement = fail_task(
                            worker, "crash",
                            f"worker pid {worker.proc.pid} died "
                            f"(pipe EOF, exitcode {worker.proc.exitcode})")
                        assign_next(replacement)
                    else:  # idle worker died: just replace it
                        worker.kill()
                        workers.remove(worker)
                        workers.append(_Worker())
                    continue
                kind = message[0]
                if kind == "beat":
                    if message[1] == worker.token:
                        worker.last_beat = time.monotonic()
                    continue
                if message[1] != worker.token:
                    continue  # stale result from a superseded attempt
                if kind == "done":
                    _mk, _token, slot, value = message
                    received = time.monotonic()
                    if collecting:
                        blob, timing = value
                        value = pickle.loads(blob)
                        if record is not None:
                            task = lifecycle.record_task(
                                record, slot, labels[slot], timing["pid"],
                                queue_wait_s=max(
                                    0.0,
                                    timing["started_at"] - map_started),
                                exec_s=timing["exec_s"],
                                serialize_s=timing["serialize_s"],
                                serialize_bytes=timing["serialize_bytes"],
                                ship_s=max(0.0, received
                                           - timing["finished_at"]))
                            # unpickling is part of merging the result
                            task.merge_s = time.monotonic() - received
                    worker.settle()
                    finish(slot, value)
                    outstanding -= 1
                    assign_next(worker)
                elif kind == "fail":
                    _mk, _token, slot, exc_type, tb_text = message
                    worker.settle()
                    elapsed = time.monotonic() - worker.started_at
                    failure = TaskFailure(
                        label=labels[slot], slot=slot,
                        attempt=attempts[slot], kind="exception",
                        detail=f"{exc_type} in worker:\n{tb_text}",
                        elapsed_s=elapsed)
                    report.record(failure)
                    history[slot].append(failure)
                    if attempts[slot] > retries:
                        raise TaskFailedError(failure, items[slot],
                                              history[slot])
                    report.retries += 1
                    ambient_registry().counter(
                        "runner.supervisor.retries").inc()
                    queue.append(slot)
                    assign_next(worker)
            # deadline / liveness scan
            now = time.monotonic()
            for worker in list(workers):
                if not worker.busy:
                    continue
                if (task_timeout_s is not None
                        and now - worker.started_at > task_timeout_s):
                    replacement = fail_task(
                        worker, "hang",
                        f"exceeded task deadline of {task_timeout_s:g}s")
                    assign_next(replacement)
                elif now - worker.last_beat > _HEARTBEAT_LIMIT_S:
                    if worker.proc.is_alive():
                        replacement = fail_task(
                            worker, "hang",
                            f"no heartbeat for {_HEARTBEAT_LIMIT_S:g}s "
                            f"(worker alive but silent)")
                    else:
                        replacement = fail_task(
                            worker, "crash",
                            f"worker pid {worker.proc.pid} died "
                            f"(exitcode {worker.proc.exitcode})")
                    assign_next(replacement)
    finally:
        for worker in workers:
            worker.stop()
    return record
