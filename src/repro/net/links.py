"""Point-to-point links with rate, delay, drop-tail queues, and faults.

A link is the unit of backhaul modelling: the AP's Internet uplink, the
S1 path to a carrier EPC, the X2 path between peers. Serialization time
(size/rate) plus propagation delay plus queueing; a finite queue drops
from the tail, which is where "backhaul constrained" (E9) bites.

Links also carry the fault state the resilience experiments (E16) need:
an ``up`` flag (a down link drops everything offered to it and loses
whatever was queued or in flight) and a ``loss_rate`` (per-packet random
drops drawn from the link's own named RNG stream, so a run stays
reproducible from the seed). Drops are accounted *by cause* —
``dropped_overflow`` vs ``dropped_down`` vs ``dropped_loss`` — so
congestion can be told apart from failure.

Datapath fast lane (see PERFORMANCE.md): the link no longer schedules
two heap events per packet (serialization done + delivery). Because the
propagation delay is a per-link constant and serialization completions
are monotone, deliveries happen in send order — so a busy link keeps a
single live wake-up event aimed at the head of its in-flight deque and
drains every delivery that is due when it fires. Service completions
are pure float arithmetic (``done += tx``; ``deliver = done + delay``),
identical to the times the old per-event chain produced, and queued
packets are promoted into service *lazily* whenever the link is
touched. Net effect: one heap event per busy period segment instead of
two per packet, with byte-identical delivery times.

One event per router hop: a router used to cost a second event per
packet (the link hands the packet over at its arrival ``T``, the router
posts its forwarding at ``T + f``). A link whose receiver is a plain
:class:`~repro.net.nodes.Router` is connected with that router's
forwarding delay ``f`` and fires its wake-up at ``(done + delay) + f``
instead, the same float the router used to post, so the route lookup
and the onward send still happen at ``T + f``. The flight deque keeps
the physical arrival ``T``: whether the link was down is judged at
``T``, not at the hand-over, so a cut inside ``(T, T + f)`` still
forwards the packet and an outage covering ``T`` still loses it. The
fold cannot reproduce one order: a folded hand-over that lands on the
same float instant as an event of an unrelated causal chain may run
before it, where the posted forwarding ran after (PERFORMANCE.md).

Counts stay those of the physical arrival: ``delivered``, ``dropped``,
``dropped_down`` and ``in_flight`` include the packets that have arrived
but still wait out the forwarding delay, so a read inside ``(T, T + f)``
(a run horizon, an invariant audit) sees what it saw before the fold.
Nothing telemetry-side is incremented per packet: the
``net.link.delivered``, ``net.link.bytes_sent`` and ``net.link.dropped``
counters are bound to these ints and read them, summed over every link
that shares the name.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.net.aqm import DROP, MARK, PASS, AqmDiscipline
from repro.net.packet import ECN_CE, ECN_ECT, Packet
from repro.simcore.simulator import Simulator

_INF = float("inf")


class Link:
    """Unidirectional link delivering packets to a receive callback.

    Args:
        sim: the event kernel.
        rate_bps: serialization rate; ``float('inf')`` for ideal links.
        delay_s: propagation delay.
        queue_packets: drop-tail queue capacity (packets awaiting
            serialization); the packet in service is not counted.
        queue_bytes: optional byte-based queue capacity enforced
            alongside ``queue_packets`` (whichever bites first).
            Setting it switches the link into *managed* mode.
        name: for hop recording and diagnostics.

    Managed mode (default off): installing an AQM discipline
    (:meth:`set_aqm`) or a ``queue_bytes`` limit routes sends through
    :meth:`_send_managed`, which additionally keeps a byte-granular
    conservation ledger (``offered_bytes == delivered_bytes +
    dropped_bytes + in_flight_bytes``), per-packet enqueue timestamps
    for sojourn-time AQM, the ``aqm`` drop cause, and ECN
    mark-instead-of-drop. An unmanaged link pays exactly one extra
    predictable branch per send/delivery over the seed's fast path —
    the microbenchmark suite holds that line.
    """

    def __init__(self, sim: Simulator, rate_bps: float, delay_s: float,
                 queue_packets: int = 100, name: str = "link",
                 queue_bytes: Optional[int] = None) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive (use inf for ideal)")
        if delay_s < 0:
            raise ValueError("delay must be non-negative")
        if queue_packets < 1:
            raise ValueError("queue must hold at least one packet")
        self.sim = sim
        self.rate_bps = rate_bps
        self.delay_s = delay_s
        self.queue_packets = queue_packets
        self.name = name
        self.receiver: Optional[Callable[[Packet], None]] = None
        #: the receiver's forwarding delay folded into delivery: the
        #: receiver is called at arrival + this (see the module docstring)
        self.forwarding_delay_s = 0.0
        #: packets waiting for the serializer (the drop-tail queue)
        self._egress: Deque[Packet] = deque()
        #: serialized packets in propagation: (arrival, packet), arrival
        #: monotone because delay is a per-link constant; the hand-over
        #: is at arrival + forwarding_delay_s
        self._flight: Deque[Tuple[float, Packet]] = deque()
        #: when the packet currently in service finishes serializing;
        #: the link is busy iff this is in the future
        self._service_done = 0.0
        #: True while the one live wake-up event (aimed at the flight
        #: head's delivery) is queued; wake-ups are never cancelled, so
        #: they ride the simulator's handle-free fast path
        self._wakeup = False
        # fault state
        self.up = True
        self.loss_rate = 0.0
        #: start of the current outage (inf while up), and the closed
        #: outages a folded in-flight arrival may still fall inside
        self._down_since = _INF
        self._outages: Deque[Tuple[float, float]] = deque()
        # counters; ``dropped`` is the running total across all causes.
        # ``offered`` and ``in_flight`` close the conservation law the
        # invariant checker audits: at any instant
        # ``offered == delivered + dropped + in_flight``. The four
        # underscored tallies move at the hand-over; the public
        # properties count a packet at its physical arrival
        self.offered = 0
        self._in_flight = 0
        self._delivered = 0
        self._dropped = 0
        self.dropped_overflow = 0
        self._dropped_down = 0
        self.dropped_loss = 0
        self.bytes_sent = 0
        # managed-mode state (AQM / queue_bytes / byte ledger); all of
        # it stays inert — and the ledger stays zero — until
        # _enable_managed() flips the one flag send() checks
        self._managed = False
        self._aqm: Optional[AqmDiscipline] = None
        self.queue_bytes = queue_bytes
        self.dropped_aqm = 0
        self.marked_ecn = 0
        self.offered_bytes = 0
        self.delivered_bytes = 0
        self.dropped_bytes = 0
        self.in_flight_bytes = 0
        self._egress_bytes = 0
        self._egress_times: Optional[Deque[float]] = None
        #: the link's own loss stream, fetched once instead of a
        #: per-send f-string + registry lookup
        self._loss_rng = sim.rng(f"link-loss:{name}")
        # telemetry: the delivered, byte and drop counters read this
        # link's own ints; the queue gauge is fetched once
        metrics = sim.metrics
        metrics.bound_counter("net.link.delivered", self, "delivered",
                              link=name)
        metrics.bound_counter("net.link.bytes_sent", self, "bytes_sent",
                              link=name)
        for cause in ("overflow", "down", "loss"):
            metrics.bound_counter("net.link.dropped", self,
                                  f"dropped_{cause}", link=name, cause=cause)
        self._m_queue = metrics.gauge("net.link.queue_depth", link=name)
        if queue_bytes is not None:
            if queue_bytes < 1:
                raise ValueError("queue_bytes must hold at least one byte")
            self._enable_managed()

    def connect(self, receiver: Callable[[Packet], None],
                forwarding_delay_s: float = 0.0) -> None:
        """Attach the downstream receive function, called at each
        packet's arrival plus ``forwarding_delay_s``."""
        self.receiver = receiver
        self.forwarding_delay_s = forwarding_delay_s

    # -- managed mode (AQM / ECN / byte accounting) ------------------------

    def set_aqm(self, discipline: Optional[AqmDiscipline]) -> None:
        """Install an AQM discipline (or ``None`` to keep the current
        mode's drop-tail behaviour); installing one enables managed mode."""
        self._aqm = discipline
        if discipline is not None:
            discipline.bind(self)
            self._enable_managed()

    def _enable_managed(self) -> None:
        if self._managed:
            return
        if self.offered:
            raise RuntimeError(
                f"link {self.name!r}: AQM/queue_bytes must be configured "
                "before any traffic (the byte ledger starts at zero)")
        self._managed = True
        self._egress_times = deque()
        metrics = self.sim.metrics
        metrics.bound_counter("net.link.dropped", self, "dropped_aqm",
                              link=self.name, cause="aqm")
        self._m_marks = metrics.counter("net.link.ecn_marked", link=self.name)

    def _mark(self, packet: Packet) -> bool:
        """CE-mark an ECT packet; False means the caller must drop."""
        if packet.ecn != ECN_ECT:
            return False
        packet.ecn = ECN_CE
        self.marked_ecn += 1
        self.sim.ecn_marks += 1
        self._m_marks.inc()
        return True

    @property
    def queue_depth(self) -> int:
        """Packets currently waiting (excludes the one being serialized)."""
        if self._egress and self._service_done <= self.sim.now:
            self._advance(self.sim.now)
        return len(self._egress)

    @property
    def queued(self) -> int:
        """Packets in the egress queue, read with no side effects.

        Unlike :attr:`queue_depth` it promotes nothing, so no AQM verdict
        runs (CoDel state, ECN marks) and an observer cannot perturb the
        run. Packets whose service is already due are still counted, so
        it bounds :attr:`queue_depth` from above; ``send`` keeps it
        within ``queue_packets``.
        """
        return len(self._egress)

    # -- counts as of the physical arrivals ----------------------------------

    def _window(self) -> Tuple[int, int]:
        """(delivered, lost) among the packets that have physically
        arrived but still wait out a folded forwarding delay."""
        delivered = lost = 0
        if self.forwarding_delay_s:
            now = self.sim.now
            for arrived, _packet in self._flight:
                if arrived > now:
                    break
                if arrived >= self._down_since or any(
                        start <= arrived < end
                        for start, end in self._outages):
                    lost += 1
                else:
                    delivered += 1
        return delivered, lost

    @property
    def delivered(self) -> int:
        """Packets delivered, counted at their physical arrival."""
        return self._delivered + self._window()[0]

    @delivered.setter
    def delivered(self, value: int) -> None:
        self._delivered = value - self._window()[0]

    @property
    def dropped(self) -> int:
        """Packets dropped, all causes; a loss to an outage counts at
        the arrival it fell on."""
        return self._dropped + self._window()[1]

    @dropped.setter
    def dropped(self, value: int) -> None:
        self._dropped = value - self._window()[1]

    @property
    def dropped_down(self) -> int:
        """Packets lost to the link being down."""
        return self._dropped_down + self._window()[1]

    @property
    def in_flight(self) -> int:
        """Packets offered and not yet delivered or dropped."""
        return self._in_flight - sum(self._window())

    # -- fault state -------------------------------------------------------

    def set_up(self, up: bool) -> None:
        """Raise or cut the link; cutting loses every queued packet."""
        if up == self.up:
            return
        self.up = up
        now = self.sim.now
        self.sim.trace("fault", f"link {self.name} {'up' if up else 'down'}")
        if up:
            if self.forwarding_delay_s and self._flight:
                self._outages.append((self._down_since, now))
            self._down_since = _INF
        else:
            self._down_since = now
            # promote first: a serialization that already started stays
            # in flight and is dropped at its arrival, exactly as the old
            # per-event chain behaved
            self._advance(now)
            if self._egress:
                lost = len(self._egress)
                if self._managed:
                    self.dropped_bytes += self._egress_bytes
                    self.in_flight_bytes -= self._egress_bytes
                    self._egress_bytes = 0
                    self._egress_times.clear()
                self._egress.clear()
                self._dropped += lost
                self._dropped_down += lost
                self._in_flight -= lost
                self._m_queue.set(0)

    def set_loss_rate(self, loss_rate: float) -> None:
        """Set the per-packet drop probability (0 disables loss)."""
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError("loss rate must be in [0, 1]")
        if loss_rate != self.loss_rate:
            self.sim.trace("fault", f"link {self.name} loss={loss_rate:g}")
        self.loss_rate = loss_rate

    def _drop(self, cause: str) -> bool:
        self._dropped += 1
        if cause == "overflow":
            self.dropped_overflow += 1
        elif cause == "down":
            self._dropped_down += 1
        elif cause == "aqm":
            self.dropped_aqm += 1
        else:
            self.dropped_loss += 1
        self.sim.trace("drop", f"link {self.name}: {cause}")
        return False

    def send(self, packet: Packet) -> bool:
        """Enqueue a packet; returns False (and counts a drop by cause)
        when the link is down, the loss draw fails, the queue is full,
        or — in managed mode — the AQM discipline says drop."""
        if self.receiver is None:
            raise RuntimeError(f"link {self.name!r} has no receiver connected")
        if self._managed:
            return self._send_managed(packet)
        self.offered += 1
        if not self.up:
            return self._drop("down")
        if self.loss_rate > 0.0 and self._loss_rng.random() < self.loss_rate:
            return self._drop("loss")
        now = self.sim.now
        if self._egress and self._service_done <= now:
            self._advance(now)
        if self._service_done > now:  # serializer busy: join the queue
            egress = self._egress
            if len(egress) >= self.queue_packets:
                return self._drop("overflow")
            egress.append(packet)
            self._in_flight += 1
            qlen = len(egress)
            self._m_queue.set(qlen)
            sim = self.sim
            if qlen > sim.link_peak_queue:
                sim.link_peak_queue = qlen
            return True
        self._in_flight += 1
        self._start_service(now, packet)
        return True

    def _send_managed(self, packet: Packet) -> bool:
        """Managed-mode send: byte ledger, byte capacity, AQM, ECN."""
        size = packet.size_bytes
        self.offered += 1
        self.offered_bytes += size
        if not self.up:
            self.dropped_bytes += size
            return self._drop("down")
        if self.loss_rate > 0.0 and self._loss_rng.random() < self.loss_rate:
            self.dropped_bytes += size
            return self._drop("loss")
        now = self.sim.now
        if self._egress and self._service_done <= now:
            self._advance_managed(now)
        aqm = self._aqm
        if self._service_done > now:  # serializer busy: join the queue
            egress = self._egress
            if len(egress) >= self.queue_packets or (
                    self.queue_bytes is not None
                    and self._egress_bytes + size > self.queue_bytes):
                self.dropped_bytes += size
                return self._drop("overflow")
            if aqm is not None:
                verdict = aqm.on_enqueue(len(egress), self._egress_bytes,
                                         packet, now)
                if verdict != PASS and (verdict == DROP
                                        or not self._mark(packet)):
                    self.dropped_bytes += size
                    return self._drop("aqm")
            egress.append(packet)
            self._egress_times.append(now)
            self._egress_bytes += size
            self._in_flight += 1
            self.in_flight_bytes += size
            qlen = len(egress)
            self._m_queue.set(qlen)
            sim = self.sim
            if qlen > sim.link_peak_queue:
                sim.link_peak_queue = qlen
            return True
        if aqm is not None:
            # empty queue: the enqueue hook still observes the arrival
            # (RED's average) and the dequeue hook sees a zero sojourn
            # (CoDel leaves its dropping state)
            verdict = aqm.on_enqueue(0, 0, packet, now)
            if verdict == PASS:
                verdict = aqm.on_dequeue(0.0, now)
            if verdict != PASS and (verdict == DROP or not self._mark(packet)):
                self.dropped_bytes += size
                return self._drop("aqm")
        self._in_flight += 1
        self.in_flight_bytes += size
        self._start_service(now, packet)
        return True

    def _start_service(self, start: float, packet: Packet) -> None:
        """Begin serializing ``packet`` at ``start`` and push its flight.

        The float chain (``done = start + tx``, ``deliver = done +
        delay``) reproduces the exact timestamps the old
        serialize/transmitted/deliver event pair computed.
        """
        size = packet.size_bytes
        rate = self.rate_bps
        done = start + (size * 8.0 / rate if rate != _INF else 0.0)
        self._service_done = done
        self.bytes_sent += size
        flight = self._flight
        flight.append((done + self.delay_s, packet))
        if not self._wakeup:
            self._wakeup = True
            self.sim.post_at(flight[0][0] + self.forwarding_delay_s,
                             self._drain)

    def _advance(self, now: float) -> None:
        """Promote queued packets whose service has started by ``now``."""
        if self._managed:
            self._advance_managed(now)
            return
        egress = self._egress
        while egress and self._service_done <= now:
            packet = egress.popleft()
            self._start_service(self._service_done, packet)
            self._m_queue.set(len(egress))

    def _advance_managed(self, now: float) -> None:
        """Managed promotion: sojourn-time AQM at dequeue, byte ledger.

        The sojourn a dequeue-side discipline (CoDel) sees is measured
        against the packet's deterministic *service-start* time — the
        pre-update ``_service_done`` chain — not the wall-clock moment
        the lazy promotion happens to run, so verdicts are identical no
        matter when the link is next touched.
        """
        egress = self._egress
        times = self._egress_times
        aqm = self._aqm
        while egress and self._service_done <= now:
            packet = egress.popleft()
            enq_at = times.popleft()
            size = packet.size_bytes
            self._egress_bytes -= size
            if aqm is not None:
                start = self._service_done
                verdict = aqm.on_dequeue(start - enq_at, start)
                if verdict != PASS and (verdict == DROP
                                        or not self._mark(packet)):
                    self._in_flight -= 1
                    self.in_flight_bytes -= size
                    self.dropped_bytes += size
                    self._drop("aqm")
                    self._m_queue.set(len(egress))
                    continue
            self._start_service(self._service_done, packet)
            self._m_queue.set(len(egress))

    def _drain(self) -> None:
        """Wake-up event: hand over every delivery that is due."""
        self._wakeup = False
        now = self.sim.now
        flight = self._flight
        receiver = self.receiver
        managed = self._managed
        fold = self.forwarding_delay_s
        while flight and flight[0][0] + fold <= now:
            arrived, packet = flight.popleft()
            self._in_flight -= 1
            if arrived >= self._down_since or (
                    self._outages and self._lost(arrived)):
                if managed:
                    size = packet.size_bytes
                    self.in_flight_bytes -= size
                    self.dropped_bytes += size
                self._drop("down")  # cut mid-flight
                continue
            if managed:
                size = packet.size_bytes
                self.in_flight_bytes -= size
                self.delivered_bytes += size
            self._delivered += 1
            receiver(packet)
        if self._egress:
            self._advance(now)
        if flight and not self._wakeup:
            self._wakeup = True
            self.sim.post_at(flight[0][0] + fold, self._drain)

    def _lost(self, arrived: float) -> bool:
        """Whether a folded arrival fell inside a closed outage.

        Arrivals come in order and outages are disjoint and ordered, so
        an outage that ended by ``arrived`` can be forgotten.
        """
        outages = self._outages
        while outages and outages[0][1] <= arrived:
            outages.popleft()
        return bool(outages) and outages[0][0] <= arrived

    def __repr__(self) -> str:
        rate = ("inf" if self.rate_bps == float("inf")
                else f"{self.rate_bps/1e6:g}Mbps")
        return (f"<Link {self.name} {rate} {self.delay_s*1e3:g}ms "
                f"q={self.queue_depth}/{self.queue_packets}>")
