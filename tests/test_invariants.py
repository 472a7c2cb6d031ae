"""Tests for the runtime invariant layer (repro.invariants).

The checker must (a) catch deliberately broken conservation laws — the
negative tests seed a bug and demand a violation — and (b) be perfectly
passive when armed on a healthy run: same tables, no violations.
"""

import dataclasses

import pytest

from repro.core.network import CentralizedLTENetwork, DLTENetwork
from repro.epc.ue import UeState
from repro.invariants import (
    InvariantChecker,
    InvariantError,
    watch_federation,
    watch_network,
)
from repro.net.links import Link
from repro.net.packet import Packet
from repro.simcore import Simulator
from repro.workloads import RuralTown

TOWN = RuralTown(radius_m=1500, n_ues=6, n_aps=2, seed=3)


def _pkt(size=100):
    return Packet(src=None, dst=None, size_bytes=size)


def _loaded_link(seed=0):
    sim = Simulator(seed)
    link = Link(sim, rate_bps=8000.0, delay_s=1e-3, queue_packets=4,
                name="audited")
    link.connect(lambda p: None)
    return sim, link


# -- link conservation --------------------------------------------------------------


def test_healthy_link_has_no_violations():
    sim, link = _loaded_link()
    checker = InvariantChecker(sim)
    checker.watch_link(link)
    for _ in range(10):
        link.send(_pkt())
    sim.run()
    assert checker.check_now() == []
    checker.verify()  # must not raise
    assert checker.checks_run >= 2


def test_seeded_packet_leak_is_caught():
    # deliberately break conservation: a packet "delivered" that was
    # never offered — the negative test the acceptance demands
    sim, link = _loaded_link()
    checker = InvariantChecker(sim)
    checker.watch_link(link)
    for _ in range(5):
        link.send(_pkt())
    sim.run()
    link.delivered += 1  # the seeded bug
    violations = checker.check_now()
    assert len(violations) == 1
    assert violations[0].check == "link-conservation"
    assert "packet leak" in violations[0].detail
    with pytest.raises(InvariantError, match="packet leak"):
        checker.verify()
    # the violation also lands in the sim's metrics
    assert sim.metrics.counter("invariants.violations").value >= 1


def test_unattributed_drop_is_caught():
    sim, link = _loaded_link()
    checker = InvariantChecker(sim)
    checker.watch_link(link)
    link.send(_pkt())
    sim.run()
    link.dropped += 1  # a drop with no cause counter: must be flagged
    link.delivered -= 1  # keep the totals law intact; isolate attribution
    details = [v.detail for v in checker.check_now()]
    assert any("unattributed drops" in d for d in details)


def test_armed_sweep_records_mid_run_violation():
    sim, link = _loaded_link()
    checker = InvariantChecker(sim)
    checker.watch_link(link)
    checker.arm(period_s=0.5)
    sim.at(1.0, lambda: setattr(link, "delivered", link.delivered + 7))
    sim.run(until=3.0)
    assert checker.violations
    # caught by the first sweep at or after the tampering, not only at
    # the end-of-run verify
    assert 1.0 <= checker.violations[0].time_s <= 1.5


# -- clock monotonicity -------------------------------------------------------------


def test_clock_check_passes_on_healthy_sim():
    sim = Simulator(0)
    checker = InvariantChecker(sim)
    checker.watch_clock()
    sim.at(1.0, lambda: None)
    sim.run()
    assert checker.check_now() == []


# -- NAS legality -------------------------------------------------------------------


def test_illegal_attach_transition_is_caught():
    sim = Simulator(0)
    checker = InvariantChecker(sim)

    class FakeUe:
        name = "ue-fake"
        _state_observer = None

    ue = FakeUe()
    checker.watch_ue(ue)
    # IDLE -> ATTACHED without ATTACHING: illegal, checked per-transition
    ue._state_observer(ue, UeState.IDLE, UeState.ATTACHED)
    assert len(checker.violations) == 1
    assert checker.violations[0].check == "nas-legality"
    # the legal path records nothing
    ue._state_observer(ue, UeState.ATTACHING, UeState.ATTACHED)
    assert len(checker.violations) == 1


# -- whole-network wiring -----------------------------------------------------------


def _report_fingerprint(report):
    return dataclasses.asdict(report)


def test_watch_network_covers_dlte_and_stays_clean():
    net = DLTENetwork.build(TOWN, seed=3)
    checker = watch_network(net)
    assert len(checker._checks) > 5  # links, NATs, tunnels, clock, spectrum
    net.run(duration_s=5.0)
    checker.verify()
    assert checker.checks_run > 0
    assert checker.violations == []


def test_watch_network_covers_centralized():
    net = CentralizedLTENetwork.build(TOWN, seed=3)
    checker = watch_network(net)
    net.run(duration_s=5.0)
    checker.verify()


def test_armed_checker_changes_no_tables():
    # passivity: an armed checker must not perturb the simulation —
    # the instrumented run's report is identical field-for-field
    plain = DLTENetwork.build(TOWN, seed=3).run(duration_s=5.0)
    watched_net = DLTENetwork.build(TOWN, seed=3)
    checker = watch_network(watched_net)
    watched = watched_net.run(duration_s=5.0)
    assert _report_fingerprint(watched) == _report_fingerprint(plain)
    checker.verify()


def test_armed_checker_leaves_aqm_links_alone():
    # on managed links the capacity check must not promote due packets:
    # promotion runs CoDel, whose marks would then land at sweep times
    # (this case once showed 284 ECN marks armed vs 283 unarmed)
    from repro.experiments import e18_sustained_overload as e18

    kwargs = dict(loads=(0.5, 4.0), n_aps=1, ue_per_ap=3, settle_s=4,
                  warmup_s=1, measure_s=6, seed=7)
    armed = e18.run(invariants=True, **kwargs).render()
    assert armed == e18.run(**kwargs).render()


def test_link_queued_reads_without_promoting():
    sim = Simulator(0)
    link = Link(sim, rate_bps=8000.0, delay_s=10.0, queue_packets=4)
    link.connect(lambda p: None)
    for _ in range(4):
        link.send(_pkt())  # 0.1 s of service each; three wait
    sim.run(until=0.25)
    assert link.queued == 3  # two services are due but not yet promoted
    assert link.queue_depth == 1  # this read promotes them
    assert link.queued == 1


def test_federation_flags_overlapping_slices():
    net = DLTENetwork.build(TOWN, seed=3)
    net.run(duration_s=3.0)
    sim = net.sim
    checker = InvariantChecker(sim)
    watch_federation(checker, net.aps, registry=net.spectrum_registry)
    assert checker.check_now() == []  # converged slices are disjoint
    # seed a split-brain: both APs claim the full grid simultaneously
    for ap in net.aps.values():
        ap.cell.allowed_prbs = frozenset(range(3))
    details = [v.check for v in checker.check_now()]
    assert "spectrum-non-overlap" in details
