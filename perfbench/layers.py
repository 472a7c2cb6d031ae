"""Per-layer ledger for the traced benchmark run.

The ledger wraps the public entry points of each ``repro.<layer>``
package from outside (no program code changes) and installs a dispatch
hook on every ``Simulator`` so each event callback is charged to the
layer whose module defines it. Every wrapped call or callback is a
frame on one stack; a frame's *self* time is its duration minus the
durations of the frames nested under it, so a layer's self time is the
time spent in that layer's own code, not in the layers it calls.

Spans (site, start, end, parent site) are kept in memory up to
``SPAN_CAP`` and written with the aggregates when the run ends; counts
and self times are always complete.
"""

import functools
import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layers reported by name; every other frame is charged to ``other``
LAYERS = ("simcore", "phy", "mac", "net", "transport", "enodeb", "epc",
          "telemetry", "runner")
SPAN_CAP = 50_000

_SIMULATOR = ("repro.simcore.simulator", "Simulator")
_LINK = ("repro.net.links", "Link")
_ROUTER = ("repro.net.nodes", "Router")
_CONN = ("repro.transport.base", "TransportConnection")
_CELL = ("repro.enodeb.cell", "Cell")
_SCHED = ("repro.mac.schedulers", "LteScheduler")
_CSMA = ("repro.mac.csma", "CsmaSimulation")
_BUDGET = ("repro.phy.linkbudget", "LinkBudget")
_HIST = ("repro.telemetry.registry", "Histogram")
_REGISTRY = ("repro.telemetry.registry", "MetricsRegistry")
_AGENT = ("repro.epc.agents", "ControlAgent")
_POOL = ("repro.runner.shardpool", "ShardWorkerPool")


#: site key -> (layer, [(module, class, method, units)]). ``units``
#: names the Ledger method that counts a call's work (UEs per TTI,
#: slots, samples); a call without one counts 1. Methods that nest in
#: one site (a subclass calling ``super()``, ``sinr_db`` calling
#: ``rx_power_dbm``) are counted once, at the outermost call on the
#: same object.
SITES: Dict[str, Tuple[str, List[Tuple[str, str, str, Optional[str]]]]] = {
    "simcore.run": ("simcore", [(*_SIMULATOR, "run", None)]),
    "simcore.schedule": ("simcore", [(*_SIMULATOR, m, None) for m in
                                     ("schedule", "at", "post_at",
                                      "call_soon")]),
    "net.link_send": ("net", [(*_LINK, "send", None)]),
    "net.router_handle": ("net", [(*_ROUTER, "handle", None)]),
    "net.route_lookup": ("net", [(*_ROUTER, "lookup", None)]),
    "net.route_write": ("net", [(*_ROUTER, "add_route", None),
                                (*_ROUTER, "remove_routes_to", None)]),
    "transport.on_segment": ("transport", [(*_CONN, "on_segment", None)]),
    "enodeb.tti": ("enodeb", [(*_CELL, "schedule_tti", "_ues"),
                              (*_CELL, "schedule_uplink_tti", "_ues")]),
    "mac.alloc": ("mac", [(*_SCHED, "allocate", None),
                          (*_SCHED, "allocate_batch", None)]),
    "mac.csma": ("mac", [(*_CSMA, "run", "_slots")]),
    "phy.sinr": ("phy", [(*_BUDGET, m, None) for m in
                         ("sinr_db", "rx_power_dbm",
                          "sinr_db_fixed_tx_many", "rx_power_dbm_fixed_tx_many",
                          "sinr_db_many_tx_fixed_rx",
                          "rx_power_dbm_many_tx_fixed_rx")]),
    "telemetry.observe": ("telemetry", [(*_HIST, "observe", "_written"),
                                        (*_HIST, "observe_many",
                                         "_written_many")]),
    "telemetry.quantile": ("telemetry", [(*_HIST, "quantile", "_read")]),
    "telemetry.lookup": ("telemetry", [(*_REGISTRY, m, None) for m in
                                       ("counter", "gauge", "histogram")]),
    "epc.enqueue": ("epc", [(*_AGENT, "enqueue", None)]),
    "runner.step": ("runner", [(*_POOL, "step", None)]),
    "runner.fork": ("runner", [(*_POOL, "__init__", None)]),
}

#: every per-layer metric the traced run reports, with its unit
PER_LAYER_METRICS: Tuple[Tuple[str, str], ...] = tuple(
    (name, "1/s" if name.endswith("_per_s") else
     "s" if name.endswith("_s") else
     "ratio" if name.endswith(("_ratio", ".share", "imbalance",
                               "coverage", "overhead")) else "count")
    for name in (
        "simcore.events", "simcore.heap_hwm", "simcore.run.self_s",
        "net.link_send.calls", "net.link_send.self_s",
        "net.router_handle.calls", "net.router_handle.self_s",
        "net.route_lookup.calls", "net.route_lookup.self_s",
        "net.route_writes", "net.delivered_ratio", "net.drops",
        "net.link_peak_queue", "net.ecn_marks",
        "transport.segments", "transport.on_segment.self_s",
        "transport.retransmissions", "transport.useful_ratio",
        "enodeb.tti.calls", "enodeb.ue_ttis", "enodeb.tti.self_s",
        "mac.alloc.calls", "mac.alloc.self_s",
        "mac.csma.slots", "mac.csma.run_s", "mac.csma.slots_per_s",
        "phy.sinr.calls", "phy.sinr.self_s",
        "telemetry.observe.values", "telemetry.observe.self_s",
        "telemetry.quantile.calls", "telemetry.quantile.self_s",
        "telemetry.read_ratio", "telemetry.lookup.calls",
        "epc.enqueue.calls", "epc.enqueue.self_s",
        "epc.agent_peak_queue", "epc.shed",
        "runner.windows", "runner.step_wait_s", "runner.shard_exec_s",
        "runner.barrier_wait_s", "runner.imbalance", "runner.fork_s",
        *(f"layer.{layer}.share" for layer in LAYERS + ("other",)),
        "trace.coverage", "trace.wall_s", "trace.overhead"))

#: the sites wrapped when only the fork shard pool is traced (the shards'
#: own layers run in child processes that ship no counts home)
RUNNER_SITES = ("runner.step", "runner.fork")


class Site:
    __slots__ = ("key", "layer", "calls", "units", "self_s", "incl_s")

    def __init__(self, key: str, layer: str) -> None:
        self.key = key
        self.layer = layer
        self.calls = 0
        self.units = 0
        self.self_s = 0.0
        self.incl_s = 0.0


def _subclasses(cls) -> List[type]:
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def _module_layer(fn: Any) -> str:
    fn = getattr(fn, "__func__", fn)
    fn = getattr(fn, "func", fn)  # functools.partial
    parts = (getattr(fn, "__module__", None) or "").split(".")
    if parts[0] == "repro" and len(parts) > 1 and parts[1] in LAYERS:
        return parts[1]
    return "other"


class Ledger:
    """Install with :meth:`install`, run the workload, then
    :meth:`remove` and read :meth:`metrics`."""

    def __init__(self, sites: Optional[Tuple[str, ...]] = None) -> None:
        self.sites: Dict[str, Site] = {}
        self.stack: List[list] = []
        self.spans: List[Tuple[str, float, float, Optional[str]]] = []
        self._restore: List[Tuple[type, str, Any]] = []
        self._keys = tuple(sites) if sites is not None else tuple(SITES)
        self._callback_sites: Dict[str, Site] = {}
        self._layer_cache: Dict[Any, str] = {}
        # instances whose end-of-run counters feed the ledger
        self.sims: List[Any] = []
        self.links: List[Any] = []
        self.conns: List[Any] = []
        self.agents: List[Any] = []
        self.written: Dict[int, Any] = {}
        self.read: Dict[int, Any] = {}
        self.shard_stats: List[dict] = []
        self.data_segments = 0
        self.t0 = 0.0

    # -- frames ---------------------------------------------------------

    def _enter(self, site: Site, owner: Any) -> list:
        frame = [site, time.perf_counter(), 0.0, owner]
        self.stack.append(frame)
        return frame

    def _leave(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self.stack
        stack.pop()
        site, start = frame[0], frame[1]
        elapsed = end - start
        site.calls += 1
        site.incl_s += elapsed
        site.self_s += elapsed - frame[2]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += elapsed
        if len(self.spans) < SPAN_CAP:
            self.spans.append((site.key, start - self.t0, end - self.t0,
                               parent[0].key if parent else None))

    # -- units per call (see SITES) ------------------------------------

    def _ues(self, args, kwargs) -> int:
        return len(args[0]._ues)

    def _slots(self, args, kwargs) -> int:
        return args[1] if len(args) > 1 else kwargs["slots"]

    def _written(self, args, kwargs) -> int:
        self.written[id(args[0])] = args[0]
        return 1

    def _written_many(self, args, kwargs) -> int:
        self.written[id(args[0])] = args[0]
        return len(args[1])

    def _read(self, args, kwargs) -> int:
        self.read[id(args[0])] = args[0]
        return 1

    def _wrap(self, site: Site, fn: Callable,
              units: Optional[Callable]) -> Callable:
        stack = self.stack
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            owner = args[0] if args else None
            if stack and stack[-1][0] is site and stack[-1][3] is owner:
                return fn(*args, **kwargs)  # nested in its own site
            site.units += units(args, kwargs) if units else 1
            frame = enter(site, owner)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)
        return wrapper

    def run_callback(self, fn: Callable, args: tuple) -> None:
        """Simulator dispatch hook: one frame per event callback."""
        key = getattr(fn, "__func__", fn)
        layer = self._layer_cache.get(key)
        if layer is None:
            layer = self._layer_cache[key] = _module_layer(fn)
        site = self._callback_sites.get(layer)
        if site is None:
            site = self._callback_sites[layer] = self.sites[
                f"{layer}.callbacks"] = Site(f"{layer}.callbacks", layer)
        frame = self._enter(site, None)
        try:
            fn(*args)
        finally:
            self._leave(frame)

    def note_category(self, category: str) -> None:
        """Simulator trace hook; trace categories are not counted."""

    # -- installation ---------------------------------------------------

    def _patch(self, cls: type, name: str, value: Any) -> None:
        self._restore.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, value)

    def _collect_init(self, cls: type, sink: List[Any],
                      after: Optional[Callable] = None) -> None:
        init = cls.__init__

        @functools.wraps(init)
        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            sink.append(obj)
            if after is not None:
                after(obj)
        self._patch(cls, "__init__", __init__)

    def install(self) -> None:
        for key in self._keys:
            layer, methods = SITES[key]
            site = self.sites[key] = Site(key, layer)
            for module, cls_name, method, units in methods:
                base = getattr(importlib.import_module(module), cls_name)
                for cls in _subclasses(base):
                    if method in cls.__dict__:
                        self._patch(cls, method, self._wrap(
                            site, cls.__dict__[method],
                            getattr(self, units) if units else None))
        if self._keys == RUNNER_SITES:
            self._patch_shard_stats()
            self.t0 = time.perf_counter()
            return
        mods = {name: importlib.import_module(module) for name, module in (
            ("sim", _SIMULATOR[0]), ("link", _LINK[0]), ("conn", _CONN[0]),
            ("agent", _AGENT[0]))}
        self._collect_init(getattr(mods["sim"], _SIMULATOR[1]), self.sims,
                           after=self._arm_simulator)
        self._collect_init(getattr(mods["link"], _LINK[1]), self.links)
        self._collect_init(getattr(mods["conn"], _CONN[1]), self.conns)
        self._collect_init(getattr(mods["agent"], _AGENT[1]), self.agents)
        self._count_data_segments(getattr(mods["conn"], _CONN[1]))
        self._patch_shard_stats()
        self.t0 = time.perf_counter()

    def _arm_simulator(self, sim: Any) -> None:
        sim.profiler = self

    def _count_data_segments(self, conn_cls: type) -> None:
        emit = conn_cls._emit

        @functools.wraps(emit)
        def _emit(conn, header, *args, **kwargs):
            if header.get("kind") == "data":
                self.data_segments += 1
            return emit(conn, header, *args, **kwargs)
        self._patch(conn_cls, "_emit", _emit)

    def _patch_shard_stats(self) -> None:
        hub_cls = type(importlib.import_module("repro.telemetry.hub").HUB)
        note = hub_cls.note_shards

        @functools.wraps(note)
        def note_shards(hub, stats):
            self.shard_stats.extend(dict(entry) for entry in stats)
            return note(hub, stats)
        self._patch(hub_cls, "note_shards", note_shards)

    def remove(self) -> None:
        for cls, name, value in reversed(self._restore):
            setattr(cls, name, value)
        self._restore = []
        for sim in self.sims:
            sim.profiler = None

    # -- results --------------------------------------------------------

    def _site(self, key: str) -> Site:
        return self.sites.get(key) or Site(key, "")

    def layer_self(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS + ("other",)}
        for site in self.sites.values():
            out[site.layer] += site.self_s
        return out

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of one traced run of ``wall_s`` seconds."""
        s = self._site
        links, sims, conns = self.links, self.sims, self.conns
        offered = sum(link.offered for link in links)
        sent = self.data_segments
        retx = sum(conn.retransmissions for conn in conns)
        written = len(self.written)
        csma = s("mac.csma")
        exec_by_shard = [e.get("exec_s", 0.0) for e in self.shard_stats]
        mean_exec = (sum(exec_by_shard) / len(exec_by_shard)
                     if exec_by_shard else 0.0)
        out = {
            "simcore.events": sum(sim.events_executed for sim in sims),
            "simcore.heap_hwm": max((sim.heap_high_water for sim in sims),
                                    default=0),
            "simcore.run.self_s": s("simcore.run").self_s,
            "net.link_send.calls": s("net.link_send").calls,
            "net.link_send.self_s": s("net.link_send").self_s,
            "net.router_handle.calls": s("net.router_handle").calls,
            "net.router_handle.self_s": s("net.router_handle").self_s,
            "net.route_lookup.calls": s("net.route_lookup").calls,
            "net.route_lookup.self_s": s("net.route_lookup").self_s,
            "net.route_writes": s("net.route_write").calls,
            "net.delivered_ratio": (sum(link.delivered for link in links)
                                    / offered if offered else 0.0),
            "net.drops": sum(link.dropped for link in links),
            "net.link_peak_queue": max((sim.link_peak_queue for sim in sims),
                                       default=0),
            "net.ecn_marks": sum(sim.ecn_marks for sim in sims),
            "transport.segments": s("transport.on_segment").calls,
            "transport.on_segment.self_s": s("transport.on_segment").self_s,
            "transport.retransmissions": retx,
            "transport.useful_ratio": 1.0 - retx / sent if sent else 0.0,
            "enodeb.tti.calls": s("enodeb.tti").calls,
            "enodeb.ue_ttis": s("enodeb.tti").units,
            "enodeb.tti.self_s": s("enodeb.tti").self_s,
            "mac.alloc.calls": s("mac.alloc").calls,
            "mac.alloc.self_s": s("mac.alloc").self_s,
            "mac.csma.slots": csma.units,
            "mac.csma.run_s": csma.incl_s,
            "mac.csma.slots_per_s": (csma.units / csma.incl_s
                                     if csma.incl_s else 0.0),
            "phy.sinr.calls": s("phy.sinr").calls,
            "phy.sinr.self_s": s("phy.sinr").self_s,
            "telemetry.observe.values": s("telemetry.observe").units,
            "telemetry.observe.self_s": s("telemetry.observe").self_s,
            "telemetry.quantile.calls": s("telemetry.quantile").calls,
            "telemetry.quantile.self_s": s("telemetry.quantile").self_s,
            "telemetry.read_ratio": (len(self.read) / written
                                     if written else 0.0),
            "telemetry.lookup.calls": s("telemetry.lookup").calls,
            "epc.enqueue.calls": s("epc.enqueue").calls,
            "epc.enqueue.self_s": s("epc.enqueue").self_s,
            "epc.agent_peak_queue": max((sim.agent_peak_queue
                                         for sim in sims), default=0),
            "epc.shed": sum(agent.shed for agent in self.agents),
            "runner.windows": max((e.get("windows_driven", 0)
                                   for e in self.shard_stats), default=0),
            "runner.step_wait_s": s("runner.step").incl_s,
            "runner.shard_exec_s": sum(exec_by_shard),
            "runner.barrier_wait_s": sum(e.get("barrier_wait_s", 0.0)
                                         for e in self.shard_stats),
            "runner.imbalance": (max(exec_by_shard) / mean_exec
                                 if mean_exec else 0.0),
            "runner.fork_s": s("runner.fork").incl_s,
        }
        layers = self.layer_self()
        for layer, self_s in layers.items():
            out[f"layer.{layer}.share"] = self_s / wall_s
        out["trace.coverage"] = sum(layers[layer] for layer in LAYERS) / wall_s
        return out

    def dump(self) -> dict:
        """Aggregates per site plus the recorded spans, for the trace file."""
        return {
            "sites": {key: {"layer": site.layer, "calls": site.calls,
                            "units": site.units, "self_s": site.self_s,
                            "incl_s": site.incl_s}
                      for key, site in sorted(self.sites.items())},
            "shard_stats": self.shard_stats,
            "spans_recorded": len(self.spans),
            "span_cap": SPAN_CAP,
            "span_fields": ["site", "start_s", "end_s", "parent_site"],
            "spans": self.spans,
        }
