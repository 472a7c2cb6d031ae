"""End-to-end ECN: transport marking, AQM CE-marks, and the ECE echo.

The loop under test: an ``ecn=True`` sender marks data segments ECT; a
congested AQM rewrites ECT -> CE instead of dropping; the receiver
echoes CE back as a one-shot ``ece`` ack flag; the sender halves its
window once per RTT. Everything is default-off — the seed's transports
send not-ECT and never react to ``ece``.
"""

import ipaddress

import pytest

from repro.net import Host, InternetCore, Router
from repro.net.aqm import CoDelDiscipline
from repro.net.packet import ECN_CE, ECN_ECT, ECN_NOT_ECT
from repro.simcore import Simulator
from repro.transport import (BulkTransferApp, QuicConnection, QuicListener,
                             TcpConnection, TcpListener, TransportDemux)

IP = ipaddress.IPv4Address


class Net:
    """Client -> AP -> Internet -> server, with a slow client uplink
    that a test can put under AQM before any traffic flows."""

    def __init__(self, seed=1, uplink_bps=1e6):
        self.sim = Simulator(seed)
        sim = self.sim
        self.inet = InternetCore(sim)
        self.ap = Router(sim, "ap")
        self.server_edge = Router(sim, "server_edge")
        self.inet.attach(self.ap, "10.1.0.0/16", access_delay_s=0.02)
        self.inet.attach(self.server_edge, "203.0.113.0/24",
                         access_delay_s=0.005)
        self.client = Host(sim, "client", IP("10.1.0.5"))
        self.client.connect_bidirectional(self.ap, rate_bps=uplink_bps,
                                          delay_s=0.005)
        self.ap.add_route("10.1.0.5/32", "client")
        self.server = Host(sim, "server", IP("203.0.113.10"))
        self.server.connect_bidirectional(self.server_edge, rate_bps=1e9,
                                          delay_s=0.001)
        self.server_edge.add_route("203.0.113.10/32", "server")
        self.cd = TransportDemux(self.client)
        self.sd = TransportDemux(self.server)
        #: the congestible hop: the client's uplink serializer
        self.bottleneck = self.client.links["ap"]

    def wiretap(self):
        """Record the ECN codepoint of every packet crossing the uplink."""
        seen = []
        downstream = self.bottleneck.receiver

        def tee(packet):
            seen.append(packet.ecn)
            downstream(packet)

        self.bottleneck.connect(tee, self.bottleneck.forwarding_delay_s)
        return seen


def _bulk(net, cls, listener_cls, nbytes=120_000, **kw):
    listener_cls(net.sim, net.sd)
    app = BulkTransferApp(net.sim, net.cd, net.server.address, cls,
                          total_bytes=nbytes, **kw)
    app.start()
    return app


def test_ecn_off_sends_not_ect():
    net = Net()
    seen = net.wiretap()
    app = _bulk(net, TcpConnection, TcpListener)
    net.sim.run(until=30)
    assert app.done_at is not None
    assert set(seen) == {ECN_NOT_ECT}    # the seed's wire, untouched


def test_ecn_on_marks_data_segments_ect():
    net = Net()
    seen = net.wiretap()
    app = _bulk(net, TcpConnection, TcpListener, ecn=True)
    net.sim.run(until=30)
    assert app.done_at is not None
    assert ECN_ECT in seen               # data segments opted in
    assert ECN_NOT_ECT in seen           # handshake stays not-ECT
    assert ECN_CE not in seen            # nothing congested, nothing marked


@pytest.mark.parametrize("cls,listener", [(TcpConnection, TcpListener),
                                          (QuicConnection, QuicListener)])
def test_ce_marks_close_the_loop_without_drops(cls, listener):
    net = Net()
    net.bottleneck.set_aqm(CoDelDiscipline(ecn=True))
    app = _bulk(net, cls, listener, ecn=True)
    net.sim.run(until=60)
    assert app.done_at is not None
    link = net.bottleneck
    # congestion became marks, not losses: every data drop avoided
    assert link.marked_ecn > 0
    assert net.sim.ecn_marks == link.marked_ecn
    assert link.dropped_aqm == 0
    # the sender actually responded: CE -> ECE echo -> cwnd cut
    assert app.conn.ecn_responses > 0


def test_ecn_responses_are_once_per_window():
    net = Net()
    conn = TcpConnection(sim=net.sim, demux=net.cd,
                         peer_addr=net.server.address, ecn=True)
    conn.cwnd = 16.0
    conn.snd_una = 50
    conn.snd_nxt = 100
    conn._on_ece()
    assert conn.cwnd == 8.0 and conn.ecn_responses == 1
    # further ECE inside the same window (acks still below the cut
    # point) must not halve again
    conn._on_ece()
    assert conn.cwnd == 8.0 and conn.ecn_responses == 1
    # once the window that saw the mark is fully acked, ECE bites again
    conn.snd_una = conn._ece_cut
    conn._on_ece()
    assert conn.cwnd == 4.0 and conn.ecn_responses == 2


def test_non_ecn_transport_under_ecn_aqm_still_gets_drops():
    # transport never negotiated ECN -> its packets are not-ECT -> an
    # ECN-enabled AQM falls back to dropping them (and the transfer
    # still completes through ordinary loss recovery)
    net = Net()
    net.bottleneck.set_aqm(CoDelDiscipline(ecn=True))
    app = _bulk(net, TcpConnection, TcpListener)
    net.sim.run(until=120)
    assert app.done_at is not None
    assert net.bottleneck.marked_ecn == 0
    assert net.bottleneck.dropped_aqm > 0
