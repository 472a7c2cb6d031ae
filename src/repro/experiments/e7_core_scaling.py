"""E7 — §4.1 "Local Cores": one shared core vs one stub per site.

An attach storm (every UE attaches within a short window) against:

* one centralized EPC serving all eNodeBs over backhaul, whose MME and
  HSS are serial processors — load concentrates, queues build;
* one :class:`LocalCoreStub` per AP — load is embarrassingly parallel,
  "the one stub per site model naturally scales as the total number of
  APs increases."

Reported vs AP count: mean/p95 attach latency, the MME's peak queue
depth, and its utilization during the storm.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.enodeb.relay import EnbControlRelay
from repro.epc.agents import ControlChannel
from repro.epc.centralized import CentralizedEpc
from repro.epc.stub import LocalCoreStub
from repro.epc.subscriber import make_profile
from repro.epc.ue import UeState, UserEquipment
from repro.metrics.stats import percentile
from repro.metrics.tables import ResultTable
from repro.net.addressing import AddressPool
from repro.runner import supervised_map
from repro.simcore.simulator import Simulator

AIR_DELAY_S = 0.005
BACKHAUL_DELAY_S = 0.030
STORM_WINDOW_S = 1.0


def _attach_storm_centralized(n_aps: int, ue_per_ap: int,
                              seed: int) -> Dict[str, float]:
    sim = Simulator(seed)
    epc = CentralizedEpc(sim, AddressPool("10.0.0.0/12"))
    enbs: List[EnbControlRelay] = []
    for i in range(n_aps):
        enb = EnbControlRelay(sim, f"enb{i}")
        channel = epc.connect_enb(enb, backhaul_delay_s=BACKHAUL_DELAY_S)
        enb.connect_core(channel)
        enbs.append(enb)
    ues = _spawn_ues(sim, enbs, n_aps, ue_per_ap,
                     provision=lambda p: epc.provision(p))
    sim.run(until=STORM_WINDOW_S + 30.0)
    return _harvest(sim, ues, extra={
        "core_peak_queue": float(epc.mme.peak_queue_depth),
        "core_utilization": epc.mme.utilization(sim.now),
    })


def _attach_storm_dlte(n_aps: int, ue_per_ap: int,
                       seed: int) -> Dict[str, float]:
    sim = Simulator(seed)
    stubs: List[LocalCoreStub] = []
    enbs: List[EnbControlRelay] = []
    for i in range(n_aps):
        stub = LocalCoreStub(sim, f"stub{i}",
                             AddressPool(f"10.{(i % 250) + 1}.0.0/16"))
        enb = EnbControlRelay(sim, f"enb{i}")
        s1 = ControlChannel(sim, enb, stub, 0.1e-3, f"s1:{i}")
        enb.connect_core(s1)
        stub.connect_enb(s1)
        stubs.append(stub)
        enbs.append(enb)

    def provision(profile):
        # published keys are pre-cached (steady state after first fetch)
        for stub in stubs:
            stub.preload_key(profile.imsi, profile.key)

    ues = _spawn_ues(sim, enbs, n_aps, ue_per_ap, provision=provision)
    sim.run(until=STORM_WINDOW_S + 30.0)
    peak = max(stub.peak_queue_depth for stub in stubs)
    util = max(stub.utilization(sim.now) for stub in stubs)
    return _harvest(sim, ues, extra={
        "core_peak_queue": float(peak),
        "core_utilization": util,
    })


def _spawn_ues(sim, enbs, n_aps, ue_per_ap, provision):
    ues: List[UserEquipment] = []
    total = n_aps * ue_per_ap
    for k in range(total):
        profile = make_profile(f"9991200{k:08d}")
        provision(profile)
        ue = UserEquipment(sim, profile, name=f"ue{k}")
        enb = enbs[k % n_aps]
        air = ControlChannel(sim, ue, enb, AIR_DELAY_S, f"air:{k}")
        ue.connect_air(air)
        enb.attach_ue(ue.ue_id, air)
        # uniform storm over the window
        sim.schedule(STORM_WINDOW_S * k / max(total, 1), ue.start_attach)
        ues.append(ue)
    return ues


def _harvest(sim, ues, extra) -> Dict[str, float]:
    latencies = [ue.attach_latency_s for ue in ues
                 if ue.state is UeState.ATTACHED]
    failures = sum(1 for ue in ues if ue.state is not UeState.ATTACHED)
    out = {
        "mean_attach_s": (sum(latencies) / len(latencies)
                          if latencies else float("nan")),
        "p95_attach_s": (percentile(latencies, 95)
                         if latencies else float("nan")),
        "failures": float(failures),
    }
    out.update(extra)
    return out


_ARCHITECTURES = (("centralized EPC", _attach_storm_centralized),
                  ("dLTE stubs", _attach_storm_dlte))


def _run_cell(task) -> Dict[str, float]:
    """Picklable cell body for :func:`repro.runner.supervised_map`."""
    arch, n_aps, ue_per_ap, seed = task
    fn = dict(_ARCHITECTURES)[arch]
    return fn(n_aps, ue_per_ap, seed)


def run(ap_counts: Optional[List[int]] = None, ue_per_ap: int = 8,
        seed: int = 3) -> ResultTable:
    """Attach-storm latency and core load vs AP count, both shapes.

    The MME/HSS process ~1 message/ms; each attach costs the MME four
    messages, so the shared core saturates near 250 attaches/s — i.e.
    between 32 and 128 APs at 8 UEs/AP over the 1 s storm — while the
    per-site stubs never see more than their own site's load.

    Each (architecture, AP count) cell is an independent simulation with
    a fixed seed, so under ``--jobs N`` the cells fan out over workers
    (UE count as the cost hint) with byte-identical output.
    """
    counts = ap_counts or [1, 8, 32, 128]
    table = ResultTable(
        f"E7: core scaling under an attach storm ({ue_per_ap} UEs/AP)",
        ["architecture", "n_aps", "n_ues", "mean_attach_ms",
         "p95_attach_ms", "core_peak_queue", "core_utilization"])
    cells = [(name, n_aps, ue_per_ap, seed)
             for n_aps in counts for name, _ in _ARCHITECTURES]
    results = supervised_map(_run_cell, cells,
                             costs=[n_aps for _, n_aps, _, _ in cells],
                             labels=[f"E7:{name.split()[0]}:{n_aps}"
                                     for name, n_aps, _, _ in cells])
    for (name, n_aps, _, _), stats in zip(cells, results):
        table.add_row(architecture=name, n_aps=n_aps,
                      n_ues=n_aps * ue_per_ap,
                      mean_attach_ms=stats["mean_attach_s"] * 1e3,
                      p95_attach_ms=stats["p95_attach_s"] * 1e3,
                      core_peak_queue=stats["core_peak_queue"],
                      core_utilization=stats["core_utilization"])
    return table
