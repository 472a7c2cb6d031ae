"""Tests for the packet-datapath fast lane (see PERFORMANCE.md).

Covers link egress pipelining, one event per router hop, timer-heap
hygiene, and packet pooling, plus the scheduling fast path they ride
on. The contract under test everywhere is *semantic equivalence*: the
fast lane must produce the same delivery times, the same drop
accounting, and the same FIFO order as the naive implementations it
replaced.

One event per router hop is checked against :class:`TwoEventRouter`,
the router as it was before the fold: its inbound link hands a packet
over at the physical arrival ``T`` and ``handle`` posts the forwarding
(a linear longest-prefix scan) at ``T + f``. The folded router must
match it in per-packet (time, node) traces, link and router counters,
and the order of same-instant deliveries. There is one order the fold
cannot reproduce: a folded hop that lands on the same float instant as
an event of an unrelated causal chain (a router with a different ``f``,
or a host delivery). The reference posted its forwarding at ``T`` and
so ran after every event posted before ``T`` for that instant; the fold
posts its wake-up when the packet enters flight, so it may run before
them. The oracle below keeps one source on one chain, where every link
is fed by one node and such a tie cannot reorder a queue.
"""

import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Host, Router
from repro.net.links import Link
from repro.net.packet import Packet, PacketPool
from repro.simcore import Simulator
from repro.transport import BulkTransferApp, TcpConnection, TcpListener, \
    TransportDemux

IP = ipaddress.IPv4Address


@pytest.fixture
def sim():
    return Simulator(seed=7)


def _packet(size=1000, **kw):
    return Packet(src=IP("10.0.0.1"), dst=IP("10.0.0.2"), size_bytes=size,
                  **kw)


# -- link egress pipelining ---------------------------------------------------

def test_pipelined_deliveries_keep_serialization_chain(sim):
    """Back-to-back sends serialize sequentially; each delivery lands at
    its own serialization-done + propagation instant."""
    link = Link(sim, rate_bps=1e6, delay_s=0.01, name="l")
    arrivals = []
    link.connect(lambda p: arrivals.append((sim.now, p.seq)))
    for seq in range(4):
        assert link.send(_packet(size=1250, seq=seq))  # 10 ms each at 1 Mbps
    sim.run()
    expect = [(0.01 * (i + 1) + 0.01, i) for i in range(4)]
    assert [(pytest.approx(t), s) for t, s in expect] == arrivals


def test_busy_link_keeps_one_live_heap_event(sim):
    """A deep egress queue costs one wake-up event, not one per packet."""
    link = Link(sim, rate_bps=1e6, delay_s=0.05, queue_packets=100, name="l")
    link.connect(lambda p: None)
    for seq in range(50):
        link.send(_packet(size=1250, seq=seq))
    # 50 packets queued or in flight, but only the single drain wake-up
    # (plus nothing else) sits in the run queue
    assert link.in_flight == 50
    assert sim.live_queue_length == 1
    sim.run()
    assert link.delivered == 50


def test_overflow_at_depth_counts_and_conserves(sim):
    """Sends past the drop-tail cap are refused with cause=overflow and
    the conservation law (offered = delivered + dropped + in_flight)
    holds throughout."""
    link = Link(sim, rate_bps=1e6, delay_s=0.001, queue_packets=5, name="l")
    delivered = []
    link.connect(delivered.append)
    accepted = sum(link.send(_packet(size=1250, seq=i)) for i in range(10))
    # one in service + 5 queued fit; the other 4 overflow
    assert accepted == 6
    assert link.dropped_overflow == 4
    assert link.offered == link.delivered + link.dropped + link.in_flight
    sim.run()
    assert len(delivered) == 6
    assert link.queue_depth == 0
    assert link.offered == link.delivered + link.dropped + link.in_flight


def test_down_mid_flight_drops_at_delivery_time(sim):
    """A packet already serialized when the link is cut is lost at its
    delivery instant, not retroactively."""
    link = Link(sim, rate_bps=1e6, delay_s=0.1, name="l")
    arrivals = []
    link.connect(arrivals.append)
    link.send(_packet(size=1250))          # in service until t=0.01
    link.send(_packet(size=1250, seq=1))   # queued
    sim.schedule(0.005, link.set_up, False)
    sim.run()
    assert arrivals == []
    # the queued packet was lost to the cut immediately; the in-service
    # one rode out its flight and was dropped on arrival
    assert link.dropped_down == 2
    assert link.in_flight == 0
    assert link.offered == link.delivered + link.dropped


def test_loss_draws_deterministic_across_runs():
    """The cached per-link loss stream reproduces exactly from the seed."""
    def run_once():
        sim = Simulator(seed=42)
        link = Link(sim, rate_bps=1e9, delay_s=0.001, name="lossy")
        link.set_loss_rate(0.3)
        got = []
        link.connect(lambda p: got.append(p.seq))
        for seq in range(40):
            link.send(_packet(seq=seq))
        sim.run()
        return got
    first, second = run_once(), run_once()
    assert first == second
    assert 0 < len(first) < 40


def test_queue_depth_promotes_lazily(sim):
    """Reading queue_depth after time passed reflects completed service
    even though no event has touched the link in between."""
    link = Link(sim, rate_bps=1e6, delay_s=1.0, name="l")
    link.connect(lambda p: None)
    for seq in range(3):
        link.send(_packet(size=1250, seq=seq))
    assert link.queue_depth == 2
    sim.run(until=0.025)  # 2 of 3 serializations (10 ms each) done
    assert link.queue_depth == 0


# -- one event per router hop ---------------------------------------------------

class TwoEventRouter(Router):
    """The reference: a router hop as two events and a linear scan.

    Overriding ``handle`` keeps inbound links unfolded: they deliver at
    ``T``, ``receive`` counts and records the hop, and ``handle`` posts
    the forwarding at ``T + f``.
    """

    def handle(self, packet):
        sim = self.sim
        sim.post_at(sim.now + self.forwarding_delay_s, self._scan_forward,
                    packet)

    def _scan_forward(self, packet):
        neighbor = self.default_route
        for net, via in self._routes:
            if packet.dst in net:
                neighbor = via
                break
        if packet.dst is None or neighbor not in self.links:
            self.no_route += 1
            return
        self.forwarded += 1
        self.links[neighbor].send(packet)


DST = IP("10.9.0.1")
_RATES = (float("inf"), 1e6, 8e6, 1e8)


class Chain:
    """src -> r1 -> ... -> rk -> dst, every send and arrival logged."""

    def __init__(self, folded, links, fwd_delays, seed=5):
        self.sim = sim = Simulator(seed=seed)
        cls = Router if folded else TwoEventRouter
        self.src = Host(sim, "src", IP("10.1.0.1"))
        self.dst = Host(sim, "dst", DST)
        self.routers = [cls(sim, f"r{i}", forwarding_delay_s=f)
                        for i, f in enumerate(fwd_delays)]
        nodes = [self.src, *self.routers, self.dst]
        self.links = []
        #: per packet seq: [(time, node that sent it on)] + arrival
        self.trace = {}
        #: per link: [(time, seq)] in send order
        self.sends = {}
        for (rate, delay, queue), here, there in zip(links, nodes,
                                                     nodes[1:]):
            link = here.attach_link(there, rate, delay, queue)
            self._log_sends(link, here.name)
            self.links.append(link)
        for router, nxt in zip(self.routers, nodes[2:]):
            router.add_route("10.9.0.0/16", nxt.name)
        self.arrivals = []
        self.dst.on_packet = self._arrive

    def _log_sends(self, link, node):
        send = link.send
        log = self.sends[link.name] = []

        def logged(packet):
            log.append((self.sim.now, packet.seq))
            self.trace.setdefault(packet.seq, []).append((self.sim.now, node))
            return send(packet)
        link.send = logged

    def _arrive(self, packet):
        self.arrivals.append((self.sim.now, packet.seq, tuple(packet.hops)))
        self.trace[packet.seq].append((self.sim.now, "dst"))

    def observed(self):
        link_counts = [(l.offered, l.delivered, l.dropped, l.dropped_down,
                        l.dropped_overflow, l.dropped_loss, l.bytes_sent,
                        l.in_flight) for l in self.links]
        router_counts = [(r.received, r.forwarded, r.no_route)
                         for r in self.routers]
        metrics = self.sim.metrics
        bound = [(metrics.value("net.link.delivered", link=l.name),
                  metrics.value("net.link.bytes_sent", link=l.name))
                 for l in self.links]
        assert bound == [(float(l.delivered), float(l.bytes_sent))
                         for l in self.links]
        return (self.trace, self.sends, self.arrivals, link_counts,
                router_counts)


@st.composite
def _chain_runs(draw):
    k = draw(st.integers(1, 4))
    links = [(draw(st.sampled_from(_RATES)),
              draw(st.floats(0.0, 0.01, allow_subnormal=False)),
              draw(st.integers(1, 6))) for _ in range(k + 1)]
    fwd = [draw(st.sampled_from((0.0, 20e-6, 1e-4, 1e-3)))
           for _ in range(k)]
    grid = st.sampled_from([i * 5e-4 for i in range(20)])
    packets = [(draw(grid), draw(st.sampled_from((40, 500, 1500))),
                draw(st.booleans()) or draw(st.booleans()))
               for _ in range(draw(st.integers(1, 25)))]
    faults = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("cut", "withdraw", "loss")))
        at = draw(st.floats(0.0, 0.03, allow_subnormal=False))
        span = draw(st.floats(1e-6, 0.01, allow_subnormal=False))
        faults.append((kind, draw(st.integers(0, k)), at, span))
    return links, fwd, packets, faults


def _run_chain(folded, links, fwd, packets, faults):
    chain = Chain(folded, links, fwd)
    sim = chain.sim
    for seq, (at, size, routable) in enumerate(packets):
        dst = DST if routable else IP("192.0.2.1")
        sim.at(at, chain.src.send,
               Packet(src=chain.src.address, dst=dst, size_bytes=size,
                      seq=seq))
    for kind, index, at, span in faults:
        link = chain.links[index]
        if kind == "cut":
            sim.at(at, link.set_up, False)
            sim.at(at + span, link.set_up, True)
        elif kind == "loss":
            sim.at(at, link.set_loss_rate, 0.5)
            sim.at(at + span, link.set_loss_rate, 0.0)
        elif index < len(chain.routers):
            router = chain.routers[index]
            via = f"r{index + 1}" if index + 1 < len(chain.routers) else "dst"
            sim.at(at, router.remove_routes_to, via)
            sim.at(at + span, router.add_route, "10.9.0.0/16", via)
    sim.run()
    return chain.observed()


@settings(max_examples=250, deadline=None)
@given(_chain_runs())
def test_folded_hop_matches_two_event_router(case):
    assert _run_chain(True, *case) == _run_chain(False, *case)


def _two_router_chain(folded, f=1e-3):
    chain = Chain(folded, [(float("inf"), 0.01, 10)] * 3, [f, f])
    packet = Packet(src=chain.src.address, dst=DST, size_bytes=100)
    return chain, packet


@pytest.mark.parametrize("folded", [True, False])
def test_route_withdrawn_inside_forwarding_window(folded):
    """The lookup happens at T + f: a route withdrawn after the packet
    reached the router, but before it forwards, leaves it no route."""
    chain, packet = _two_router_chain(folded)
    sim = chain.sim
    chain.src.send(packet)  # reaches r0 at T = 0.01, forwarded at 0.011
    sim.at(0.0105, chain.routers[0].remove_routes_to, "r1")
    sim.run()
    assert chain.routers[0].received == 1
    assert chain.routers[0].no_route == 1
    assert chain.arrivals == []


@pytest.mark.parametrize("folded", [True, False])
def test_link_cut_inside_forwarding_window_still_forwards(folded):
    """A cut of the inbound link after the physical arrival at T loses
    nothing: the packet is already in the router."""
    chain, packet = _two_router_chain(folded)
    sim = chain.sim
    chain.src.send(packet)
    sim.at(0.0105, chain.links[0].set_up, False)
    sim.run()
    assert chain.links[0].delivered == 1 and chain.links[0].dropped == 0
    assert [(round(t, 9), hops) for t, _seq, hops in chain.arrivals] == \
        [(0.032, ("r0", "r1", "dst"))]


@pytest.mark.parametrize("folded", [True, False])
def test_outage_covering_arrival_loses_packet(folded):
    """Cut before T and restored inside (T, T + f): the link was down
    when the packet arrived, so it is lost even though the link is up
    again by the time the router would have forwarded it."""
    chain, packet = _two_router_chain(folded)
    sim = chain.sim
    chain.src.send(packet)
    sim.at(0.005, chain.links[0].set_up, False)
    sim.at(0.0105, chain.links[0].set_up, True)
    sim.run()
    assert chain.links[0].dropped_down == 1
    assert chain.routers[0].received == 0 and chain.arrivals == []


def _merge(folded):
    """Two sources whose links deliver to one router at the same T."""
    sim = Simulator(seed=1)
    cls = Router if folded else TwoEventRouter
    router = cls(sim, "r", forwarding_delay_s=1e-4)
    dst = Host(sim, "dst", DST)
    a, b = Host(sim, "a", IP("10.1.0.1")), Host(sim, "b", IP("10.1.0.2"))
    a.attach_link(router, delay_s=0.002)
    b.attach_link(router, delay_s=0.002)
    router.attach_link(dst, rate_bps=1e6, delay_s=0.001)
    router.add_route("10.9.0.0/16", "dst")
    got = []
    dst.on_packet = lambda p: got.append((sim.now, p.src))
    for host in (b, a, b):
        sim.at(0.0, host.send, Packet(src=host.address, dst=DST,
                                      size_bytes=125))
    sim.run()
    return got


def test_same_instant_deliveries_keep_fifo_order():
    """Both links deliver at T = 2 ms; the router serializes the packets
    in the order the links handed them over, as the reference does."""
    folded = _merge(True)
    assert [src for _t, src in folded] == [IP("10.1.0.2"), IP("10.1.0.2"),
                                           IP("10.1.0.1")]
    assert folded == _merge(False)


@pytest.mark.parametrize("folded,events", [(True, 3 + 1), (False, 2 * 3 + 1)])
def test_one_event_per_router_hop(folded, events):
    """Three routers: one heap event per hop plus the final delivery
    (the reference pays two per hop)."""
    chain = Chain(folded, [(float("inf"), 0.001, 10)] * 4, [20e-6] * 3)
    chain.src.send(Packet(src=chain.src.address, dst=DST, size_bytes=100))
    chain.sim.run()
    assert chain.arrivals[0][2] == ("r0", "r1", "r2", "dst")
    assert chain.sim.events_executed == events


# -- timer-heap hygiene -------------------------------------------------------

def test_same_time_fifo_survives_cancellation_and_compaction():
    """Cancelling enough entries to trigger heap compaction must not
    disturb the FIFO order of surviving same-time events."""
    sim = Simulator()
    order = []
    survivors = []
    doomed = []
    for i in range(200):
        handle = sim.at(1.0, order.append, i)
        (doomed if i % 3 else survivors).append((i, handle))
    before = sim.queue_length
    for _i, handle in doomed:
        handle.cancel()
    # compaction fired at least once along the way: most of the dead
    # entries are physically gone, and the live count is exact
    assert sim.queue_length < before
    assert sim.live_queue_length == len(survivors)
    sim.run()
    assert order == [i for i, _h in survivors]


def test_cancel_counts_and_compaction_threshold():
    sim = Simulator()
    handles = [sim.at(1.0, lambda: None) for _ in range(100)]
    for handle in handles[:60]:
        handle.cancel()
    # 60 cancelled of 100: compaction (needs >64) has not fired yet,
    # but live_queue_length already excludes the garbage
    assert sim.queue_length == 100
    assert sim.live_queue_length == 40
    for handle in handles[60:70]:
        handle.cancel()
    # the 65th cancellation crossed the threshold (>64 with garbage
    # dominating) and compacted down to the then-live 35; the last five
    # cancels accumulate as fresh garbage
    assert sim.queue_length == 35
    assert sim.live_queue_length == 30


def test_double_cancel_counted_once():
    sim = Simulator()
    keep = sim.at(1.0, lambda: None)
    handle = sim.at(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim.live_queue_length == 1
    sim.run()  # dispatch decrements the garbage counter exactly once
    assert sim.live_queue_length == 0
    assert keep.cancelled is False


def test_post_at_interleaves_fifo_with_at():
    """Handle-free fast-path events share the same (time, seq) ordering
    as normal ones."""
    sim = Simulator()
    order = []
    sim.at(1.0, order.append, "a")
    sim.post_at(1.0, order.append, "b")
    sim.at(1.0, order.append, "c")
    sim.post_at(0.5, order.append, "early")
    sim.run()
    assert order == ["early", "a", "b", "c"]


def test_rto_rearm_churn_does_not_grow_heap():
    """A bulk transfer re-arms its RTO on every ack; the lazy-deadline
    timer must keep the live queue flat instead of pushing one heap
    entry per ack."""
    sim = Simulator(seed=3)
    a = Host(sim, "a", IP("10.0.0.1"))
    b = Host(sim, "b", IP("10.0.0.2"))
    a.connect_bidirectional(b, rate_bps=50e6, delay_s=0.01)
    demux_a, demux_b = TransportDemux(a), TransportDemux(b)
    TcpListener(sim, demux_b)
    app = BulkTransferApp(sim, demux_a, b.address, TcpConnection,
                          total_bytes=400_000)
    app.start()
    sim.run(until=30)
    assert app.done_at is not None
    # every acked MSS re-armed the RTO at least once
    assert app.conn.bytes_acked >= 400_000
    # cancel/re-push per ack would have driven the high-water mark (or
    # the garbage count) toward one entry per ack; the lazy timer keeps
    # the whole footprint near the handful of live events
    assert sim.heap_high_water < 32
    assert sim.live_queue_length <= sim.queue_length <= \
        sim.live_queue_length + 2


# -- packet pooling -----------------------------------------------------------

def test_pool_recycles_shell_with_fresh_identity():
    pool = PacketPool(capacity=4)
    p = pool.acquire(IP("10.0.0.1"), IP("10.0.0.2"), 500, flow_id="f",
                     payload={"k": 1}, created_at=1.5)
    old_id = p.packet_id
    p.record_hop("r1")
    pool.release(p)
    q = pool.acquire(IP("10.0.0.3"), IP("10.0.0.4"), 700, seq=9)
    assert q is p  # same shell ...
    assert q.packet_id != old_id  # ... new life
    assert q.payload is None and q.hops is None and q.encap_stack is None
    assert (q.src, q.dst, q.size_bytes, q.seq) == \
        (IP("10.0.0.3"), IP("10.0.0.4"), 700, 9)
    assert pool.acquired == 2 and pool.recycled == 1


def test_pool_capacity_caps_free_list():
    pool = PacketPool(capacity=2)
    packets = [pool.acquire(None, None, 100) for _ in range(5)]
    for p in packets:
        pool.release(p)
    assert len(pool) == 2


def test_pool_validates_size_on_recycle():
    pool = PacketPool()
    pool.release(pool.acquire(None, None, 100))
    with pytest.raises(ValueError):
        pool.acquire(None, None, 0)


def test_transport_pooling_preserves_transfer():
    """End-to-end: the pooled segment path completes a transfer with the
    same byte accounting as ever."""
    sim = Simulator(seed=11)
    a = Host(sim, "a", IP("10.0.0.1"))
    b = Host(sim, "b", IP("10.0.0.2"))
    a.connect_bidirectional(b, rate_bps=50e6, delay_s=0.005)
    demux_a, demux_b = TransportDemux(a), TransportDemux(b)
    TcpListener(sim, demux_b)
    app = BulkTransferApp(sim, demux_a, b.address, TcpConnection,
                          total_bytes=250_000)
    app.start()
    sim.run(until=30)
    assert app.done_at is not None
    assert app._acked_total() == 250_000


# -- observability plumbing ---------------------------------------------------

def test_heap_high_water_reported_through_hub():
    from repro.telemetry.hub import HUB

    HUB.start_run()
    try:
        sim = Simulator()
        for i in range(10):
            sim.schedule(i * 0.1, lambda: None)
        sim.run()
    except BaseException:
        HUB.abort_run()
        raise
    run = HUB.finish_run()
    assert run.heap_high_water == sim.heap_high_water == 10
