"""Forwarding nodes: hosts and longest-prefix-match routers."""

from __future__ import annotations

import ipaddress
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.net.addressing import IPv4Address
from repro.net.links import Link
from repro.net.packet import Packet
from repro.simcore.simulator import Simulator

PrefixLike = Union[str, ipaddress.IPv4Network]


class NetworkNode:
    """Base node: named, owns outgoing links, receives packets."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.links: Dict[str, Link] = {}  # neighbour name -> link
        self.received = 0

    def attach_link(self, neighbor: "NetworkNode", rate_bps: float = float("inf"),
                    delay_s: float = 0.0, queue_packets: int = 100) -> Link:
        """Create (or replace) the unidirectional link to ``neighbor``."""
        link = Link(self.sim, rate_bps, delay_s, queue_packets,
                    name=f"{self.name}->{neighbor.name}")
        link.connect(*neighbor.link_entry())
        self.links[neighbor.name] = link
        return link

    def link_entry(self) -> Tuple[Callable[[Packet], None], float]:
        """What an inbound link calls per packet, and the delay after
        the packet's arrival at which it calls it."""
        return self.receive, 0.0

    def connect_bidirectional(self, other: "NetworkNode",
                              rate_bps: float = float("inf"),
                              delay_s: float = 0.0,
                              queue_packets: int = 100) -> Tuple[Link, Link]:
        """Symmetric links both ways; returns (out_link, in_link)."""
        out = self.attach_link(other, rate_bps, delay_s, queue_packets)
        back = other.attach_link(self, rate_bps, delay_s, queue_packets)
        return out, back

    def receive(self, packet: Packet) -> None:
        """Entry point for packets arriving on any inbound link."""
        self.received += 1
        packet.record_hop(self.name)
        self.handle(packet)

    def handle(self, packet: Packet) -> None:
        """Node-specific processing; default drops silently-but-counted."""

    def send_via(self, neighbor_name: str, packet: Packet) -> bool:
        """Push a packet onto the link toward a named neighbour."""
        try:
            link = self.links[neighbor_name]
        except KeyError:
            raise KeyError(
                f"{self.name} has no link to {neighbor_name!r}; "
                f"neighbours: {sorted(self.links)}") from None
        return link.send(packet)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class Host(NetworkNode):
    """An endpoint with one or more addresses and an application callback."""

    def __init__(self, sim: Simulator, name: str,
                 address: Optional[IPv4Address] = None) -> None:
        super().__init__(sim, name)
        self.addresses: List[IPv4Address] = [address] if address else []
        self.on_packet: Optional[Callable[[Packet], None]] = None
        self.default_gateway: Optional[str] = None

    @property
    def address(self) -> Optional[IPv4Address]:
        """Primary address (first configured), or None."""
        return self.addresses[0] if self.addresses else None

    def add_address(self, address: IPv4Address) -> None:
        """Configure an additional address (multihoming / re-attach)."""
        if address not in self.addresses:
            self.addresses.append(address)

    def remove_address(self, address: IPv4Address) -> None:
        """Drop an address (e.g. on leaving an AP)."""
        self.addresses.remove(address)

    def handle(self, packet: Packet) -> None:
        if self.on_packet is not None:
            self.on_packet(packet)

    def send(self, packet: Packet) -> bool:
        """Send via the default gateway (or the only link)."""
        gateway = self.default_gateway
        if gateway is None:
            if len(self.links) != 1:
                raise RuntimeError(
                    f"{self.name}: no default gateway and {len(self.links)} links")
            gateway = next(iter(self.links))
        return self.send_via(gateway, packet)


#: FIB miss marker (``None`` is a cached "no prefix matched")
_MISS = object()


class Router(NetworkNode):
    """Longest-prefix-match forwarding over static routes.

    A packet is forwarded ``forwarding_delay_s`` after it arrives. Links
    built by :meth:`NetworkNode.attach_link` fold that delay into their
    delivery and hand the packet to :meth:`_arrive` once, at arrival +
    delay; a direct :meth:`receive` posts the forwarding as its own event.
    Lookups go through a FIB keyed by the destination's integer, filled
    on first use and cleared by every route change.
    """

    def __init__(self, sim: Simulator, name: str,
                 forwarding_delay_s: float = 20e-6) -> None:
        super().__init__(sim, name)
        self.forwarding_delay_s = forwarding_delay_s
        self._routes: List[Tuple[ipaddress.IPv4Network, str]] = []
        #: destination integer -> matched neighbour, or None when no
        #: prefix matched (the default route is read at lookup time)
        self._fib: Dict[int, Optional[str]] = {}
        self.default_route: Optional[str] = None
        self.forwarded = 0
        self.no_route = 0

    def link_entry(self) -> Tuple[Callable[[Packet], None], float]:
        cls = type(self)
        if cls.handle is Router.handle and cls.receive is NetworkNode.receive:
            return self._arrive, self.forwarding_delay_s
        return self.receive, 0.0  # subclass processing must run at arrival

    def add_route(self, prefix: PrefixLike, neighbor_name: str) -> None:
        """Install a static route; most-specific prefix wins on lookup."""
        net = ipaddress.IPv4Network(prefix)
        self._routes.append((net, neighbor_name))
        self._routes.sort(key=lambda r: r[0].prefixlen, reverse=True)
        self._fib.clear()

    def remove_routes_to(self, neighbor_name: str) -> int:
        """Withdraw every route via a neighbour; returns count removed."""
        before = len(self._routes)
        self._routes = [r for r in self._routes if r[1] != neighbor_name]
        self._fib.clear()
        return before - len(self._routes)

    def lookup(self, dst: IPv4Address) -> Optional[str]:
        """Next-hop neighbour for ``dst`` (longest match, then default)."""
        fib = self._fib
        neighbor = fib.get(dst._ip, _MISS)
        if neighbor is _MISS:
            neighbor = None
            for net, via in self._routes:
                if dst in net:
                    neighbor = via
                    break
            fib[dst._ip] = neighbor
        return neighbor if neighbor is not None else self.default_route

    def handle(self, packet: Packet) -> None:
        sim = self.sim
        sim.post_at(sim.now + self.forwarding_delay_s, self._forward, packet)

    def _arrive(self, packet: Packet) -> None:
        """Link-fed entry, called at arrival + forwarding delay: count,
        record the hop and forward in one step."""
        self.received += 1
        hops = packet.hops
        if hops is None:
            packet.hops = [self.name]
        else:
            hops.append(self.name)
        self._forward(packet)

    def _forward(self, packet: Packet) -> None:
        dst = packet.dst
        if dst is None:
            self.no_route += 1
            return
        link = self.links.get(self.lookup(dst))
        if link is None:
            self.no_route += 1
            return
        self.forwarded += 1
        link.send(packet)
