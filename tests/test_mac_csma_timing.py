"""Unit tests for the CSMA/DCF simulation, Bianchi model, and timing limits."""

from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac import (
    CsmaNode,
    CsmaSimulation,
    LTE_MAX_CELL_RANGE_M,
    WIFI_DEFAULT_ACK_RANGE_M,
    bianchi_throughput,
    lte_timing_advance_steps,
    max_range_supported_m,
    propagation_delay_s,
)
from repro.mac.csma import CW_MAX, CW_MIN, CsmaResult
from repro.telemetry.registry import MetricsRegistry


def _fully_connected(n, frame_slots=50, seed=0):
    ids = [f"s{i}" for i in range(n)] + ["ap"]
    everyone = frozenset(ids)
    nodes = [CsmaNode(f"s{i}", hears=everyone - {f"s{i}"}, destination="ap")
             for i in range(n)]
    nodes.append(CsmaNode("ap", hears=everyone - {"ap"}, saturated=False))
    return CsmaSimulation(nodes, np.random.default_rng(seed),
                          frame_slots=frame_slots)


def test_single_node_no_collisions():
    sim = _fully_connected(1)
    res = sim.run(50_000)
    assert res.total_collided == 0
    # mean backoff ~8 slots between 50-slot frames -> ~0.86 utilization
    assert res.channel_utilization > 0.8


def test_two_connected_nodes_rarely_collide():
    res = _fully_connected(2).run(100_000)
    assert res.collision_rate < 0.25
    assert res.channel_utilization > 0.6


def test_utilization_degrades_with_contention():
    """More contenders -> more collisions, the CSMA scaling pathology."""
    few = _fully_connected(2).run(150_000)
    many = _fully_connected(20).run(150_000)
    assert many.collision_rate > few.collision_rate


def test_simulation_matches_bianchi_fully_connected():
    for n in (3, 10):
        sim = _fully_connected(n, frame_slots=50, seed=n)
        res = sim.run(300_000)
        analytic = bianchi_throughput(n, frame_slots=50)
        assert res.channel_utilization == pytest.approx(analytic, abs=0.06)


def test_hidden_terminal_much_worse_than_connected():
    """E8 core effect: hidden pairs collide far more than connected ones."""
    connected = _fully_connected(2, seed=3).run(200_000)
    nodes = [
        CsmaNode("a", hears=frozenset({"ap"}), destination="ap"),
        CsmaNode("c", hears=frozenset({"ap"}), destination="ap"),
        CsmaNode("ap", hears=frozenset({"a", "c"}), saturated=False),
    ]
    hidden = CsmaSimulation(nodes, np.random.default_rng(3), 50).run(200_000)
    # BEB partially adapts (CW grows), but hidden pairs still collide
    # roughly twice as often and deliver less useful channel time.
    assert hidden.collision_rate > 1.5 * connected.collision_rate
    assert hidden.channel_utilization < connected.channel_utilization


def test_harmless_overlap_outside_receiver_range():
    # a->b and c->d far apart: both transmit concurrently, neither receiver
    # hears the other transmitter, so spatial reuse succeeds.
    nodes = [
        CsmaNode("a", hears=frozenset({"b"}), destination="b"),
        CsmaNode("b", hears=frozenset({"a"}), saturated=False),
        CsmaNode("c", hears=frozenset({"d"}), destination="d"),
        CsmaNode("d", hears=frozenset({"c"}), saturated=False),
    ]
    res = CsmaSimulation(nodes, np.random.default_rng(1), 50).run(100_000)
    assert res.total_collided == 0
    # two parallel links exceed one channel's worth of delivery
    assert res.channel_utilization > 1.5


def test_duplicate_ids_rejected():
    nodes = [CsmaNode("x"), CsmaNode("x")]
    with pytest.raises(ValueError):
        CsmaSimulation(nodes, np.random.default_rng(0))


def test_bad_frame_slots_rejected():
    with pytest.raises(ValueError):
        CsmaSimulation([CsmaNode("x")], np.random.default_rng(0), frame_slots=0)


def test_deliveries_conserved():
    sim = _fully_connected(5, seed=9)
    res = sim.run(100_000)
    for node in sim.nodes.values():
        assert node.sent >= node.delivered + node.collided - 1  # one in flight


def test_repeated_runs_count_from_construction():
    """run(a) then run(b) reports what one run(a + b) does."""
    split = _fully_connected(2, seed=0)
    split.run(50_000)
    second = split.run(50_000)
    whole = _fully_connected(2, seed=0)
    once = whole.run(100_000)
    assert second == once
    assert second.slots == 100_000
    assert second.channel_utilization < 1.0
    assert split.rng.bit_generator.state == whole.rng.bit_generator.state


# -- oracle: the slot-by-slot evaluation of the DCF rule ------------------------

class SlotBySlot(CsmaSimulation):
    """Evaluates the per-slot DCF rule one slot at a time.

    This is the loop :class:`CsmaSimulation` ran before it jumped over
    quiet slots; it needs no reasoning about which slots are quiet, so
    it is the oracle the event-jump engine must match exactly.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._overlaps: Dict[str, set] = {}

    def _senses_busy(self, node: CsmaNode, transmitting: List[str]) -> bool:
        return any(t in node.hears for t in transmitting)

    def run(self, slots: int) -> CsmaResult:
        for _ in range(slots):
            self._step()
        self.slots += slots
        delivered = {nid: n.delivered for nid, n in self.nodes.items()}
        collided = {nid: n.collided for nid, n in self.nodes.items()}
        return CsmaResult(slots=self.slots, frame_slots=self.frame_slots,
                          delivered=delivered, collided=collided,
                          busy_slots=self.busy_slots)

    def _step(self) -> None:
        transmitting = [nid for nid, n in self.nodes.items() if n.tx_remaining > 0]
        if transmitting:
            self.busy_slots += 1
        # record overlaps for in-flight frames
        for nid in transmitting:
            others = [o for o in transmitting if o != nid]
            self._overlaps.setdefault(nid, set()).update(others)

        # progress transmissions; finish ones that end this slot
        finished: List[str] = []
        for nid in transmitting:
            node = self.nodes[nid]
            node.tx_remaining -= 1
            if node.tx_remaining == 0:
                finished.append(nid)
        for nid in finished:
            self._complete(nid)

        # backoff countdown for idle contenders
        still_transmitting = [nid for nid, n in self.nodes.items()
                              if n.tx_remaining > 0]
        starters: List[CsmaNode] = []
        for node in self.nodes.values():
            if node.tx_remaining > 0 or not node.saturated:
                continue
            if self._senses_busy(node, still_transmitting):
                continue
            if node.backoff > 0:
                node.backoff -= 1
            if node.backoff == 0:
                starters.append(node)
        for node in starters:
            node.tx_remaining = self.frame_slots
            node.sent += 1
            self._m_sent.inc()
            self._overlaps[node.node_id] = set()

    def _complete(self, nid: str) -> None:
        node = self.nodes[nid]
        overlapped = self._overlaps.pop(nid, set())
        receiver = self.nodes.get(node.destination) if node.destination else None
        if receiver is not None:
            # only overlaps audible at the receiver corrupt the frame
            harmful = {o for o in overlapped
                       if o in receiver.hears or o == receiver.node_id}
        else:
            harmful = overlapped
        if harmful:
            node.collided += 1
            self._m_collisions.inc()
            node.cw = min(node.cw * 2, CW_MAX)
        else:
            node.delivered += 1
            self._m_delivered.inc()
            node.cw = CW_MIN
        node.backoff = int(self.rng.integers(0, node.cw))
        if node.backoff == 0:
            node.backoff = 1  # DIFS gap: never back-to-back zero-slot grab
        self._m_backoff.observe(node.backoff)


_NODE_FIELDS = ("sent", "delivered", "collided", "cw", "backoff",
                "tx_remaining")


def _state(sim: CsmaSimulation, registry: MetricsRegistry):
    backoffs = registry.histogram("mac.csma.backoff_slots")
    return {
        "nodes": {nid: tuple(getattr(n, f) for f in _NODE_FIELDS)
                  for nid, n in sim.nodes.items()},
        "busy_slots": sim.busy_slots,
        "metrics": {name: registry.value(f"mac.csma.{name}")
                    for name in ("frames_sent", "frames_delivered",
                                 "collisions")},
        "backoff_hist": (backoffs.count, backoffs.sum),
        "rng": sim.rng.bit_generator.state,
    }


@st.composite
def _csma_setups(draw):
    n = draw(st.integers(1, 6))
    ids = [f"n{i}" for i in range(n)]
    # "ghost" is named in hearing sets and as a destination but is not a
    # node of the simulation; hearing is drawn per node, so asymmetric
    names = ids + ["ghost"]
    spec = [(nid,
             draw(st.frozensets(st.sampled_from(names))),
             draw(st.sampled_from(names + [None])),
             draw(st.booleans()))
            for nid in ids]
    return {
        "spec": spec,
        "frame_slots": draw(st.sampled_from([1, 2, 50])),
        "seed": draw(st.integers(0, 2**32 - 1)),
        # start these nodes at backoff 0, which a construction-time draw
        # can give (after a frame the DIFS rule raises 0 to 1)
        "zeroed": draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        "runs": draw(st.lists(st.integers(0, 700), min_size=1, max_size=3)),
    }


def _build(cls, setup):
    registry = MetricsRegistry()
    nodes = [CsmaNode(nid, hears=hears, destination=dest, saturated=sat)
             for nid, hears, dest, sat in setup["spec"]]
    sim = cls(nodes, np.random.default_rng(setup["seed"]),
              setup["frame_slots"], metrics=registry)
    for node, zero in zip(nodes, setup["zeroed"]):
        if zero:
            node.backoff = 0
    return sim, registry


@settings(max_examples=300, deadline=None)
@given(_csma_setups())
def test_event_jump_matches_slot_by_slot(setup):
    jump, jump_metrics = _build(CsmaSimulation, setup)
    oracle, oracle_metrics = _build(SlotBySlot, setup)
    for slots in setup["runs"]:
        result = jump.run(slots)
        assert result == oracle.run(slots)
        assert _state(jump, jump_metrics) == _state(oracle, oracle_metrics)
    # where the runs were split is invisible: one run of the total agrees
    whole, whole_metrics = _build(CsmaSimulation, setup)
    assert whole.run(sum(setup["runs"])) == result
    assert _state(whole, whole_metrics) == _state(jump, jump_metrics)


def test_bianchi_monotone_decreasing_in_n():
    values = [bianchi_throughput(n, 50) for n in (1, 5, 20, 50)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert 0 < values[-1] < values[0] <= 1.0


def test_bianchi_longer_frames_amortize_overhead():
    assert bianchi_throughput(10, 200) > bianchi_throughput(10, 20)


def test_bianchi_validates():
    with pytest.raises(ValueError):
        bianchi_throughput(0)


# -- timing / range limits -----------------------------------------------------

def test_propagation_delay():
    assert propagation_delay_s(299_792_458.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        propagation_delay_s(-1)


def test_ta_zero_at_zero_distance():
    assert lte_timing_advance_steps(0) == 0


def test_ta_steps_grow_with_distance():
    assert lte_timing_advance_steps(10_000) > lte_timing_advance_steps(1000) > 0


def test_ta_covers_100km_but_not_beyond():
    lte_timing_advance_steps(99_000)  # fine
    with pytest.raises(ValueError):
        lte_timing_advance_steps(110_000)


def test_ta_step_is_about_78m():
    # one TA step corresponds to ~78 m of one-way range
    assert lte_timing_advance_steps(78) == 1
    assert lte_timing_advance_steps(156) == 2


def test_range_limits_lte_vs_wifi():
    """§3.2: LTE's scheduler compensates delay; stock WiFi dies ~km scale."""
    assert max_range_supported_m("lte") == LTE_MAX_CELL_RANGE_M
    assert max_range_supported_m("wifi") == WIFI_DEFAULT_ACK_RANGE_M
    assert LTE_MAX_CELL_RANGE_M > 30 * WIFI_DEFAULT_ACK_RANGE_M
    with pytest.raises(ValueError):
        max_range_supported_m("zigbee")
