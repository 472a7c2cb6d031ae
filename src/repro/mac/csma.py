"""WiFi DCF: slotted CSMA/CA with binary exponential backoff.

Two implementations of the same MAC, used to cross-validate each other:

* :class:`CsmaSimulation` — a slotted simulation over an explicit
  *hearing graph*, so hidden terminals (nodes that contend for the same
  receiver but cannot sense each other) are modelled exactly. It is
  specified slot by slot and evaluated event by event, jumping over the
  quiet slots between frame ends and backoff expiries. This is the
  engine behind E5 (legacy-WiFi baseline) and E8 (hidden terminal
  losses vs registry coordination).
* :func:`bianchi_throughput` — Bianchi's analytic saturation-throughput
  model (all-hear-all, no hiddens), the standard closed form the
  simulation must agree with in the fully-connected case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

import numpy as np

from repro.telemetry.hub import ambient_registry
from repro.telemetry.registry import MetricsRegistry

#: 802.11 DCF defaults (802.11b/g-era, matching Bianchi's parametrization).
CW_MIN = 16
CW_MAX = 1024


@dataclass
class CsmaNode:
    """One contending station.

    Attributes:
        node_id: unique name.
        hears: node_ids whose transmissions this node can carrier-sense.
        destination: node_id of the receiver of this node's frames (an AP,
            or None for broadcast-style accounting at all neighbours).
        saturated: if True the node always has a frame queued.
    """

    node_id: str
    hears: FrozenSet[str] = frozenset()
    destination: Optional[str] = None
    saturated: bool = True

    # runtime state, managed by the simulation: each run() reads it and
    # writes it back (the hearing graph is read once, at construction)
    backoff: int = field(default=0, repr=False)
    cw: int = field(default=CW_MIN, repr=False)
    tx_remaining: int = field(default=0, repr=False)
    sent: int = field(default=0, repr=False)
    delivered: int = field(default=0, repr=False)
    collided: int = field(default=0, repr=False)


@dataclass
class CsmaResult:
    """Aggregate outcome of a CSMA simulation since its construction.

    Every field counts from construction, so ``run(a)`` then ``run(b)``
    returns the same result as one ``run(a + b)``.
    """

    slots: int
    frame_slots: int
    delivered: Dict[str, int]
    collided: Dict[str, int]
    busy_slots: int

    @property
    def total_delivered(self) -> int:
        """Frames successfully received across all nodes."""
        return sum(self.delivered.values())

    @property
    def total_collided(self) -> int:
        """Frames lost to collisions across all nodes."""
        return sum(self.collided.values())

    @property
    def collision_rate(self) -> float:
        """Fraction of transmitted frames that collided."""
        attempts = self.total_delivered + self.total_collided
        return self.total_collided / attempts if attempts else 0.0

    @property
    def channel_utilization(self) -> float:
        """Fraction of slots carrying a *successful* frame's payload."""
        return self.total_delivered * self.frame_slots / self.slots if self.slots else 0.0


class CsmaSimulation:
    """Slotted DCF over a hearing graph.

    The model is specified slot by slot. In each slot, in order:

    1. the medium is busy if any node is transmitting; every transmitter
       records the others as overlapping its frame;
    2. every transmission loses one slot; those that reach zero complete,
       in node insertion order. A frame is delivered iff none of its
       overlaps was audible at the *receiver* (in the receiver's
       ``hears`` set, or the receiver itself; any overlap counts when the
       destination is not a node of the simulation). A delivery resets
       CW to CW_MIN, a collision doubles it (to CW_MAX); either way the
       node draws a fresh backoff from ``[0, cw)``, raised to 1 (DIFS);
    3. carrier sense: every saturated node not transmitting that senses
       the medium idle (no node still transmitting is in its ``hears``
       set) decrements a positive backoff, and at backoff zero starts a
       ``frame_slots``-slot frame. A node that completed in step 2 takes
       part, so it can count down, and even start, in the same slot.

    :meth:`run` evaluates this rule exactly without visiting every slot.
    Between two *events* — a frame ending or a backoff reaching zero —
    nothing but the counters changes, so the engine computes the number
    of quiet slots directly, advances every counter by it at once, and
    applies the per-slot rule only to the event slot. RNG draws, their
    order, and every counter match the slot-by-slot evaluation.

    The slot clock abstracts SIFS/DIFS/ACK detail into the frame length;
    Bianchi's model makes the same abstraction, so they are comparable.
    """

    def __init__(self, nodes: List[CsmaNode], rng: np.random.Generator,
                 frame_slots: int = 50,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if frame_slots <= 0:
            raise ValueError("frame_slots must be positive")
        ids = [n.node_id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        self.nodes = {n.node_id: n for n in nodes}
        self.rng = rng
        self.frame_slots = frame_slots
        self.slots = 0
        self.busy_slots = 0
        # slot-loop MAC has no simulator; record into the ambient registry
        if metrics is None:
            metrics = ambient_registry()
        self._m_sent = metrics.counter("mac.csma.frames_sent")
        self._m_delivered = metrics.counter("mac.csma.frames_delivered")
        self._m_collisions = metrics.counter("mac.csma.collisions")
        self._m_backoff = metrics.histogram("mac.csma.backoff_slots")
        for node in nodes:
            node.cw = CW_MIN
            node.backoff = int(self.rng.integers(0, node.cw))
            node.tx_remaining = 0
        # nodes are indexed by insertion order and node sets are int
        # bitmasks (bit i = i-th node); ids outside the simulation drop out
        index = {nid: i for i, nid in enumerate(ids)}
        self._hears = [sum(1 << index[h] for h in set(n.hears) if h in index)
                       for n in nodes]
        # overlaps audible at each node's receiver: its hearing set plus
        # itself, or every node when the destination is not simulated
        self._harmful: List[int] = []
        for node in nodes:
            rx = index.get(node.destination) if node.destination else None
            self._harmful.append(-1 if rx is None
                                 else self._hears[rx] | 1 << rx)
        # per in-flight frame: mask of the nodes that transmitted
        # concurrently with it at any point (for collision detection)
        self._overlaps = [0] * len(nodes)

    def run(self, slots: int) -> CsmaResult:
        """Advance the simulation ``slots`` slots and return the
        aggregates since construction."""
        nodes = list(self.nodes.values())
        order = range(len(nodes))
        hears = self._hears
        overlaps = self._overlaps
        contends = [n.saturated for n in nodes]
        tx = [n.tx_remaining for n in nodes]
        backoff = [n.backoff for n in nodes]
        transmitting = sum(1 << i for i in order if tx[i] > 0)
        frame = self.frame_slots
        busy = self.busy_slots
        left = slots
        while left > 0:
            # quiet slots before the next event, capped by the slots left
            quiet = left
            for i in order:
                if tx[i]:
                    if tx[i] <= quiet:
                        quiet = tx[i] - 1
                elif contends[i] and not hears[i] & transmitting:
                    if backoff[i] <= quiet:
                        quiet = max(backoff[i] - 1, 0)
            if quiet:
                for i in order:
                    if tx[i]:
                        tx[i] -= quiet
                    elif contends[i] and not hears[i] & transmitting:
                        backoff[i] -= quiet
                if transmitting:
                    busy += quiet
                left -= quiet
                if not left:
                    break
            # the event slot, by the per-slot rule
            if transmitting:
                busy += 1
                for i in order:
                    if tx[i]:
                        tx[i] -= 1
                        if not tx[i]:
                            transmitting ^= 1 << i
                            backoff[i] = self._complete(nodes[i], i)
            starters = 0
            for i in order:
                if tx[i] or not contends[i] or hears[i] & transmitting:
                    continue
                if backoff[i] > 0:
                    backoff[i] -= 1
                if backoff[i] == 0:
                    # carrier sense above reads ``transmitting``, which
                    # gains this slot's starters only after the loop
                    starters |= 1 << i
                    tx[i] = frame
                    nodes[i].sent += 1
                    self._m_sent.inc()
            if starters:
                transmitting |= starters
                # the transmitting set is fixed until the next event
                for i in order:
                    if transmitting >> i & 1:
                        overlaps[i] |= transmitting ^ 1 << i
            left -= 1
        for i, node in enumerate(nodes):
            node.tx_remaining = tx[i]
            node.backoff = backoff[i]
        self.busy_slots = busy
        self.slots += slots
        delivered = {nid: n.delivered for nid, n in self.nodes.items()}
        collided = {nid: n.collided for nid, n in self.nodes.items()}
        return CsmaResult(slots=self.slots, frame_slots=self.frame_slots,
                          delivered=delivered, collided=collided,
                          busy_slots=self.busy_slots)

    def _complete(self, node: CsmaNode, i: int) -> int:
        """Settle node ``i``'s finished frame; return its new backoff."""
        harmful = self._overlaps[i] & self._harmful[i]
        self._overlaps[i] = 0
        if harmful:
            node.collided += 1
            self._m_collisions.inc()
            node.cw = min(node.cw * 2, CW_MAX)
        else:
            node.delivered += 1
            self._m_delivered.inc()
            node.cw = CW_MIN
        backoff = int(self.rng.integers(0, node.cw))
        if backoff == 0:
            backoff = 1  # DIFS gap: never back-to-back zero-slot grab
        self._m_backoff.observe(backoff)
        return backoff


def bianchi_throughput(n_nodes: int, frame_slots: int = 50,
                       cw_min: int = CW_MIN, retry_stages: int = 6,
                       tol: float = 1e-10) -> float:
    """Bianchi (2000) saturation throughput, normalized to channel rate.

    Solves the (tau, p) fixed point for ``n_nodes`` saturated stations
    with binary exponential backoff over ``retry_stages`` doublings, then
    returns the fraction of time the channel carries successful payload.
    Payload, success, and collision durations are all ``frame_slots``
    slots (the same abstraction as :class:`CsmaSimulation`).
    """
    if n_nodes <= 0:
        raise ValueError("need at least one node")
    w = float(cw_min)
    m = retry_stages
    tau = 0.1
    for _ in range(10_000):
        p = 1.0 - (1.0 - tau) ** (n_nodes - 1)
        if p >= 1.0:
            p = 1.0 - 1e-12
        denom = ((1 - 2 * p) * (w + 1) + p * w * (1 - (2 * p) ** m))
        new_tau = 2 * (1 - 2 * p) / denom
        if abs(new_tau - tau) < tol:
            tau = new_tau
            break
        tau = 0.5 * tau + 0.5 * new_tau
    p_tr = 1.0 - (1.0 - tau) ** n_nodes
    if p_tr == 0.0:
        return 0.0
    p_s = n_nodes * tau * (1.0 - tau) ** (n_nodes - 1) / p_tr
    slot_idle = 1.0
    slot_busy = float(frame_slots)
    numerator = p_s * p_tr * slot_busy
    denominator = ((1 - p_tr) * slot_idle + p_tr * p_s * slot_busy
                   + p_tr * (1 - p_s) * slot_busy)
    return numerator / denominator
