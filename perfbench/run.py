"""Repo benchmark: one workload, one seed, timed in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` repeats the workload, each repeat in a fresh interpreter
(worker.py), until ``S`` seconds of repeats are spent (at least
``MIN_REPEATS``), then runs the workload's untimed check passes. It
prints every repeat, the medians with quartiles (raw ``wall_s`` and
``cpu_s`` among them), and as its last line a JSON object with the
end-to-end metrics (``wall_ref_s``, ``cpu_ref_s``, ``setup_s``: wall,
CPU and set-up time at the reference host speed, see worker.py;
``peak_rss_mb``: medians over the repeats).

``--trace 1`` alternates untraced and traced repeats for ``S`` seconds
and reports the per-layer metrics of the traced ones (medians), the
tracing overhead and the layer coverage (see layers.py).

A run fails when it raises, its table fails the workload's check, its
table digest differs from the other runs of the set (or, for
city-shards, from the 1-shard serial table), or an invariant-armed pass
breaches a conservation law. README.md explains the design.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from worker import rescale  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402

MIN_REPEATS = 3
MAX_REPEATS = 40
#: a repeat that has not finished by then is killed and counted failed
REPEAT_TIMEOUT_S = 120.0

END_TO_END = (("wall_ref_s", "s"), ("cpu_ref_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))
#: printed with the end-to-end metrics, not reported in the JSON line
RAW = (("wall_s", "s"), ("cpu_s", "s"), ("setup_raw_s", "s"),
       ("probe_ms", "ms"))

with open(os.path.join(HERE, "reference_digests.json")) as _fh:
    REFERENCE_DIGESTS: Dict[str, Dict[str, str]] = json.load(_fh)


class Repeat:
    """One worker process: its set-up time and what it reported."""

    def __init__(self, label: str, setup_s: Optional[float],
                 report: Optional[dict], error: Optional[str]) -> None:
        self.label = label
        self.setup_s = setup_s
        self.report = report or {}
        self.error = error or self.report.get("error")

    @property
    def digest(self) -> Optional[str]:
        return self.report.get("digest")

    def value(self, key: str) -> Optional[float]:
        if key == "setup_raw_s":
            return self.setup_s
        if key == "setup_s":
            if self.setup_s is None:
                return None
            # a repeat without probes keeps its raw set-up time
            return rescale(self.setup_s, self.report.get("setup_probes", []))
        return self.report.get(key)


def spawn(label: str, workload: str, seed: int, overrides: dict,
          trace: str = "", probe: bool = False,
          warm_up: bool = False) -> Repeat:
    """Run worker.py once; set-up is spawn until its ``ready`` line."""
    spec = json.dumps({"workload": workload, "seed": seed,
                       "overrides": overrides, "trace": trace,
                       "probe": probe, "warm_up": warm_up})
    env = dict(os.environ,
               REPRO_POSTMORTEM_DIR=os.path.join(HERE, "out", "postmortem"))
    # users import from bytecode caches; measure that in every environment
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, spec], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0 if first == "ready\n" else None
        rest, _ = proc.communicate(timeout=REPEAT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Repeat(label, None, None, "timed out")
    lines = rest.strip().splitlines()
    if proc.returncode != 0 or setup_s is None or not lines:
        return Repeat(label, setup_s, None,
                      f"worker exited with code {proc.returncode}")
    return Repeat(label, setup_s, json.loads(lines[-1]), None)


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def repeat_for(seconds: float, make) -> List[Repeat]:
    """Call ``make(i)`` until ``seconds`` are spent, MIN_REPEATS at least.

    A repeat starts only when the median repeat so far still fits, so a
    run ends near ``seconds`` instead of one repeat past it.
    """
    repeats: List[Repeat] = []
    durations: List[float] = []
    start = time.perf_counter()
    while len(repeats) < MAX_REPEATS:
        spent = time.perf_counter() - start
        if len(repeats) >= MIN_REPEATS and \
                spent + statistics.median(durations) > seconds:
            break
        t0 = time.perf_counter()
        repeats.extend(make(len(durations)))
        durations.append(time.perf_counter() - t0)
    return repeats


def mark_digest_mismatches(repeats: List[Repeat],
                           expected: Optional[str]) -> None:
    """Fail every run whose table differs from ``expected`` (or, with no
    expected digest, from the most common digest of the set)."""
    digests = [r.digest for r in repeats if r.digest]
    if expected is None and digests:
        expected = max(set(digests), key=digests.count)
    for r in repeats:
        if r.error is None and r.digest != expected:
            r.error = f"table digest {str(r.digest)[:12]} differs from " \
                      f"the set's {str(expected)[:12]}"


def describe(r: Repeat) -> str:
    vals = " ".join(f"{key}={r.value(key):.4f}" for key, _ in END_TO_END + RAW
                    if r.value(key) is not None)
    status = "ok" if r.error is None else f"FAILED: {r.error}"
    return f"  {r.label:<22} {vals} digest={str(r.digest)[:12]} {status}"


def context_line() -> str:
    import platform

    import numpy
    return (f"# machine: nproc={os.cpu_count()} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"platform={platform.platform()}")


def reference_line(workload: str, seed: int, digest: Optional[str]) -> str:
    reference = REFERENCE_DIGESTS.get(workload, {}).get(str(seed))
    if reference is None:
        verdict = "no reference kept for this seed"
    elif reference == digest:
        verdict = "matches the kept reference"
    else:
        verdict = f"DIFFERS from the kept reference {reference[:12]} " \
                  f"(not a failure: an intended table change shows here)"
    return f"# table digest {digest}: {verdict}"


def timed(name: str, seed: int, seconds: float) -> Tuple[List[Repeat], dict]:
    workload = WORKLOADS[name]
    repeats = repeat_for(seconds, lambda i: [
        spawn(f"timed[{i}]", name, seed, {}, probe=True)])
    checks: List[Repeat] = []
    expected = None
    if workload.reference is not None:
        ref = spawn("reference", name, seed, workload.reference)
        checks.append(ref)
        expected = ref.digest
    mark_digest_mismatches(repeats + checks, expected)
    digests = [r.digest for r in repeats if r.digest]
    digest = digests[0] if digests else None
    if workload.invariants:
        # fails on a conservation breach (it raises) or a failed check;
        # its table is compared with the unarmed one, but a difference
        # is printed, not failed on (README.md, "Output checks")
        armed = spawn("invariants", name, seed, {"invariants": True})
        checks.append(armed)
    for r in repeats + checks:
        print(describe(r))
    if workload.invariants:
        print(f"# invariant-armed table "
              f"{'equals' if armed.digest == digest else 'DIFFERS from'} "
              f"the unarmed table")
    metrics = {}
    for key, unit in END_TO_END + RAW:
        values = [r.value(key) for r in repeats if r.value(key) is not None]
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        if (key, unit) in END_TO_END:
            metrics[key] = {"value": med, "unit": unit}
        print(f"# {key:<12} median {med:.4f} {unit}  q1 {q1:.4f}  "
              f"q3 {q3:.4f}  runs {len(values)}")
    print(reference_line(name, seed, digest))
    return repeats + checks, metrics


def traced(name: str, seed: int, seconds: float) -> Tuple[List[Repeat], dict]:
    from layers import PER_LAYER_METRICS

    workload = WORKLOADS[name]
    overrides = workload.traced or {}
    runs = repeat_for(seconds, lambda i: [
        spawn(f"untraced[{i}]", name, seed, overrides),
        spawn(f"traced[{i}]", name, seed, overrides, trace="all")])
    checks: List[Repeat] = []
    if workload.traced is not None:
        # the layers ran in-process above; the fork shard pool's own cost
        # comes from a run of the timed configuration
        checks.append(spawn("runner-traced", name, seed, {}, trace="runner"))
    mark_digest_mismatches(runs + checks, None)
    for r in runs + checks:
        print(describe(r))
    plain = [r.value("wall_s") for r in runs if r.label.startswith("untraced")
             and r.value("wall_s") is not None]
    layered = [r for r in runs if r.label.startswith("traced")
               and r.report.get("layers")]
    values: Dict[str, List[float]] = {}
    for r in layered:
        for key, value in r.report["layers"].items():
            values.setdefault(key, []).append(value)
    for r in checks:
        for key, value in r.report.get("layers", {}).items():
            if key.startswith("runner."):
                values[key] = [value]
    metrics = {}
    for key, unit in PER_LAYER_METRICS:
        if key in values:
            metrics[key] = {"value": statistics.median(values[key]),
                            "unit": unit}
    traced_wall = [r.value("wall_s") for r in layered]
    if plain and traced_wall:
        metrics["trace.wall_s"] = {"value": statistics.median(traced_wall),
                                   "unit": "s"}
        metrics["trace.overhead"] = {
            "value": statistics.median(traced_wall) / statistics.median(plain),
            "unit": "ratio"}
    for key, unit in PER_LAYER_METRICS:
        if key in metrics:
            print(f"# {key:<30} {metrics[key]['value']:.6g} {unit}")
    return runs + checks, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"experiment seed (default {DEFAULT_SEED}; "
                             f"held out for claims: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    print(context_line())
    print(f"# workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    # compiles the bytecode caches, which users do not pay on every run
    warm = spawn("warm-up", args.workload, args.seed, {}, warm_up=True)
    if warm.setup_s is None:
        print("error: the worker could not import repro", file=sys.stderr)
        return 2
    run = traced if args.trace else timed
    repeats, metrics = run(args.workload, args.seed, args.seconds)
    failed = sum(1 for r in repeats if r.error is not None)
    print(json.dumps({"correct": failed == 0, "attempted": len(repeats),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
