"""One benchmark repeat, in a fresh interpreter.

Usage (spawned by run.py): ``python3 perfbench/worker.py '<json spec>'``
with spec keys ``workload``, ``seed``, ``overrides`` (extra ``run()``
keyword arguments), ``trace`` (``""``, ``"all"`` or ``"runner"``),
``probe`` (measure the host's speed) and ``warm_up`` (import only, then
exit).

Protocol on stdout: the line ``ready`` once ``repro`` and the
experiment registry are imported (the parent times spawn -> ``ready``
as set-up), then one JSON line with the repeat's measurements. The
experiment itself runs as ``python -m repro`` would call it: no
telemetry hub bracket, stdout discarded.

A repeat with ``probe`` set measures the host's speed from its first
line on: every ``PROBE_INTERVAL_S`` a SIGALRM handler times
``PROBE_LOOPS`` turns of a fixed integer loop. ``wall_ref_s`` and
``cpu_ref_s`` are the repeat's wall and CPU time less the probes',
rescaled from the median probe time to ``PROBE_REF_S`` (see
:func:`rescale`); the probes taken before ``ready`` are reported as
``setup_probes`` so the parent can rescale the set-up time the same way.
Changing any of the three constants changes the scale of all three
times.
"""

import contextlib
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

PROBE_INTERVAL_S = 0.05
PROBE_LOOPS = 8000
PROBE_REF_S = 0.0005


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


class HostProbe:
    """Times a fixed loop every ``PROBE_INTERVAL_S`` of wall time."""

    def __init__(self) -> None:
        self.samples = []

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def rescale(seconds: float, samples: list) -> float:
    """``seconds`` less the ``samples``' time, at ``PROBE_REF_S`` per probe:
    the seconds it would take on a host where the probe takes
    ``PROBE_REF_S``."""
    if not samples:
        return seconds
    own = seconds - sum(samples)
    return own * PROBE_REF_S / statistics.median(samples)


def main(argv) -> int:
    spec = json.loads(argv[1])
    probe = HostProbe() if spec["probe"] else None
    if probe is not None:
        probe.start()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.experiments import ALL_EXPERIMENTS

    run = ALL_EXPERIMENTS[workload.experiment].run
    kwargs = dict(workload.kwargs, seed=spec["seed"], **spec["overrides"])
    print("ready", flush=True)
    ready = len(probe.samples) if probe is not None else 0
    if spec["warm_up"]:
        print("{}", flush=True)
        return 0

    ledger = None
    if spec["trace"]:
        from layers import RUNNER_SITES, Ledger
        ledger = Ledger(RUNNER_SITES if spec["trace"] == "runner" else None)
        ledger.install()
    out = {"error": None, "digest": None}
    first = len(probe.samples) if probe is not None else 0
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            result = run(**kwargs)
        out["digest"] = hashlib.sha256(result.render().encode()).hexdigest()
        workload.check(result)
    except Exception as exc:  # the run failed; report it, do not crash
        out["error"] = "".join(
            traceback.format_exception_only(type(exc), exc)).strip()
    out["wall_s"] = time.perf_counter() - t0
    out["cpu_s"] = _cpu_s() - cpu0
    if probe is not None:
        probe.stop()
        samples = probe.samples[first:]
        out["setup_probes"] = probe.samples[:ready]
        out["probe_ms"] = statistics.median(samples) * 1e3 \
            if samples else None
        out["wall_ref_s"] = rescale(out["wall_s"], samples)
        out["cpu_ref_s"] = rescale(out["cpu_s"], samples)
    out["peak_rss_mb"] = _peak_rss_mb()
    if ledger is not None:
        ledger.remove()
        out["layers"] = ledger.metrics(out["wall_s"])
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(
            OUT_DIR, f"trace-{spec['workload']}-seed{spec['seed']}-"
            f"{spec['trace']}.json")
        with open(path, "w") as fh:
            json.dump(dict(ledger.dump(), metrics=out["layers"]), fh)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
