"""The benchmark's workloads: one fixed experiment configuration each.

Each workload is a ``repro.experiments`` module's ``run()`` with fixed
keyword arguments; the benchmark's ``--seed`` is passed as its ``seed=``.
The check functions are the paper-shape assertions of the matching
``benchmarks/test_e*.py`` / ``tests/`` checks that hold at these sizes;
they raise :class:`CheckFailed` on a wrong table. README.md says why
each workload was chosen.
"""

from typing import Callable, Dict, NamedTuple, Optional

#: seed used for claims, and the seed held out from tuning to confirm them
DEFAULT_SEED = 1
HELD_OUT_SEED = 9


class CheckFailed(Exception):
    """The experiment's table breaks one of the workload's assertions."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _by(table, key: str) -> Dict[str, list]:
    groups: Dict[str, list] = {}
    for row in table.rows:
        groups.setdefault(row[key], []).append(row)
    return groups


def check_tti_massed(table) -> None:
    rows = {row["arm"]: row for row in table.rows}
    wifi = rows["legacy WiFi (CSMA)"]
    uncoord = rows["dLTE uncoordinated"]
    fair = rows["dLTE fair-sharing"]
    coop = rows["dLTE cooperative"]
    _require(fair["aggregate_mbps"] > wifi["aggregate_mbps"],
             "fair sharing must out-deliver CSMA")
    _require(uncoord["min_ue_mbps"] < fair["min_ue_mbps"],
             "uncoordinated reuse-1 must starve the cell edge")
    _require(coop["jain_fairness"] > fair["jain_fairness"],
             "cooperation must be fairer than plain fair sharing")
    _require(coop["aggregate_mbps"] > wifi["aggregate_mbps"],
             "cooperative dLTE must out-deliver CSMA")


def check_handover_datapath(table) -> None:
    arms = _by(table, "arm")
    carrier, tcp, quic = arms["carrier"], arms["dlte-tcp"], arms["dlte-quic"]
    _require(all(row["reconnects"] == 0 for row in carrier),
             "the carrier masks mobility: no reconnects")
    _require(all(row["stall_fraction"] < 0.05 for row in carrier),
             "the carrier's stall fraction stays tiny")
    _require(all(row["reconnects"] >= 3 for row in tcp),
             "dLTE+TCP re-handshakes at every AP change")
    _require(all(row["reconnects"] == 0 for row in quic),
             "dLTE+QUIC migrates without reconnecting")
    for q, t in zip(quic, tcp):
        _require(q["stall_fraction"] <= t["stall_fraction"] + 1e-9,
                 "QUIC never stalls more than TCP")


def check_overload_aqm(table) -> None:
    rows = table.rows
    _require(all(row["shed_gbr"] == 0 for row in rows),
             "the policer never sheds GBR traffic")
    for arch, arch_rows in _by(table, "arch").items():
        aqm = [row for row in arch_rows if row["mode"] == "AQM+ECN"]
        goodput = [row["goodput_mbps"] for row in aqm]
        _require(goodput == sorted(goodput),
                 f"{arch}: CoDel+ECN goodput must not fall with load")
        _require(aqm[-1]["ecn_marks"] > 0,
                 f"{arch}: CoDel must mark at overload")


def check_csma_dense(table) -> None:
    rows = table.rows
    _require(all(row["registry_collision_rate"] == 0.0 for row in rows),
             "the registry arm never collides")
    _require(all(row["registry_utilization"] > 0.9 for row in rows),
             "the registry arm keeps its scheduled airtime")
    collisions = table.column("csma_collision_rate")
    _require(collisions == sorted(collisions),
             "CSMA collisions rise with density")
    hidden = table.column("hidden_pairs")
    _require(hidden[-1] > hidden[0], "hidden pairs grow with density")


def check_city_shards(table) -> None:
    rows = {row["architecture"]: row for row in table.rows}
    cent, dlte = rows["centralized EPC"], rows["dLTE stubs"]
    _require(dlte["failures"] == 0, "local cores attach every UE")
    _require(dlte["wan_ctl_mb"] == 0.0, "local attach never rides the WAN")
    _require(dlte["mean_attach_ms"] <= cent["mean_attach_ms"],
             "local cores never attach slower than the centralized EPC")
    _require(dlte["bg_served_mbit"] == cent["bg_served_mbit"],
             "the fluid tier is independent of the core architecture")


class Workload(NamedTuple):
    experiment: str
    kwargs: dict
    check: Callable
    #: run once more with ``invariants=True``; a breach fails that run
    invariants: bool = False
    #: overrides for a run whose table every timed table must equal
    reference: Optional[dict] = None
    #: overrides for the traced run (the layers must run in-process)
    traced: Optional[dict] = None


WORKLOADS: Dict[str, Workload] = {
    "tti-massed": Workload(
        "E5", dict(n_aps=2, ue_per_ap=128), check_tti_massed),
    "handover-datapath": Workload(
        "E6", dict(dwells_s=[3.0, 1.0]), check_handover_datapath),
    # runnable by name, but not listed in BENCHMARK.json (README.md says why)
    "overload-aqm": Workload(
        "E18", dict(loads=(0.5, 4.0), n_aps=1, ue_per_ap=3, settle_s=4.0,
                    warmup_s=1.0, measure_s=12.0),
        check_overload_aqm, invariants=True),
    "csma-dense": Workload(
        "E8", dict(ap_counts=[6, 12]), check_csma_dense),
    "city-shards": Workload(
        "E19", dict(n_cells=200, ue_per_cell=8, background_per_cell=492,
                    shards=2, mode="fork"),
        check_city_shards, invariants=True,
        reference=dict(shards=1, mode="serial"),
        traced=dict(mode="serial")),
}
