"""One logical processor: controller loops, authorization gates, clocks.

Each compute processor owns an arrival calendar of incoming spikes, a heap
of ``(stamp, source)`` keys into its cells' forecast tables, a processing
time register, and a local clock array with its latest knowledge of every
processor's emission time; its own entry is its emission time register. A
node's message raises its sender's entry alone; a broadcast sets entry 0 to
T and lifts every other but our own to the environment's raise. A spike,
emitted here or received as a ``Spike``, is filed as its bare source id for
each local target in ``fanout``; it is staged once for each processor in
``owners``. Only the arrival gate sees ``CMEvent`` records.

The processing time and the clock entries are plain stamps that never
decrease. Each transition checks the order it relies on, in every mode, and
raises ``ProtocolViolation`` otherwise: a broadcast brings T + 1 with a
raise below it, and an emission or a computation lies at or above the last
and at or below T. The gates read queue emptiness from the queues themselves.
Another processor counts as silent below a stamp only once its clock entry
has reached it: an empty queue is no promise, since a later arrival can
refill it at or just above its last stamp (Chandy & Misra 1979).

A forecast goes out once the stamp order is safe (``emission_authorized``).
Whether it is certain (at or below its cell's ``horizon + 1``) guards it
against cancellation and is counted, but does not gate its emission.
"""

from __future__ import annotations

import enum
import heapq

from .events import (ArrivalCalendar, CMEvent, CPEvent, EXT_NEURON,
                     ProtocolViolation, Spike, TopologyError)
from .neuron import ECState, IntegrationResult
from .transport import Message, Report


# floor() of a processor with nothing pending: it sets no bound of its own.
UNBOUNDED = 2**31 - 1


class AuthDecision(enum.Enum):
    AUTHORIZED = "authorized"
    DELAYED = "delayed"
    PRIORITY_DEFERRED = "priority_deferred"


class NodeStats:
    def __init__(self) -> None:
        self.computed = self.emitted = self.cancellations = 0
        self.certifications = 0  # emissions at or below their cell's horizon + 1
        self.delayed_emissions = self.delayed_computations = self.messages_sent = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


class NodeState:
    """Full protocol state of one compute processor (id >= 1)."""

    def __init__(self, node_id: int, procs: int,
                 ecs: dict[int, ECState],
                 fanout: dict[int, list[int]],
                 owners: dict[int, set[int]],
                 outputs: set[int], minpak: int = 1) -> None:
        if node_id < 1:
            raise ValueError("compute processor ids start at 1")
        self.id = node_id
        self.procs = procs
        self.cm_queue = ArrivalCalendar()
        # Forecast keys; a cell that cancels a stamp and forecasts it again adds a duplicate.
        self.cp_queue: list[tuple[int, int]] = []
        self.pt = 0  # processing time register: the last started stamp
        self.running: set[int] = set()  # cells with a computation in flight
        self.refused: CMEvent | None = None  # the last arrival the gate refused
        self.clock = [0] * (procs + 1)  # clock[id]: the last emitted stamp
        self.ecs = ecs
        self.fanout = fanout  # source -> its local targets (at least one)
        self.owners = owners  # local neuron -> other processors it reaches
        self.outputs = outputs
        self.minpak = minpak  # staged events that fill a batch to another processor
        self.outboxes: dict[int, list[Spike]] = {}
        # Spike messages (anything but a report) per destination / source.
        self.sent = [0] * (procs + 1)
        self.received = [0] * (procs + 1)
        self.reported = None  # (sent, received) at the last report
        self.stats = NodeStats()
        self.trace: list[tuple[int, int]] = []  # (neuron, stamp) emissions

    # -- queue access ----------------------------------------------------------

    def cp_top(self) -> CPEvent | None:
        """The least unemitted forecast by (stamp, source). A key whose cell
        table holds no unemitted forecast at its stamp is dropped on sight."""
        queue, ecs = self.cp_queue, self.ecs
        while queue:
            stamp, source = queue[0]
            top = ecs[source].queued.get(stamp)
            if top is not None and not top.emitted:
                return top
            heapq.heappop(queue)
        return None

    def queue_forecast(self, ev: CPEvent) -> None:
        """Queue the key of a forecast its cell has filed in its table."""
        if ev.stamp <= 0:
            raise ProtocolViolation(f"non-positive event stamp: {ev}")
        heapq.heappush(self.cp_queue, (ev.stamp, ev.source))

    # -- message handling ------------------------------------------------------

    def file_spike(self, source: int, stamp: int) -> bool:
        """File a spike of ``source`` for each local target; False if none."""
        if targets := self.fanout.get(source):
            self.cm_queue.file(source, stamp, targets)
        return bool(targets)

    def receive(self, msg) -> None:
        sender, clock = msg.sender, self.clock
        self.received[sender] += 1
        if sender:  # its emission time
            clock[sender] = max(clock[sender], msg.clock[0])
        else:  # T, and the raise, which lifts every entry but our own
            T, raised = msg.clock
            if T != clock[0] + 1 or raised >= T:  # each advancement, once, in order
                raise ProtocolViolation(f"node {self.id}: broadcast {msg.clock} after T {clock[0]}")
            clock[0] = T
            for m in range(1, self.procs + 1):
                if m != self.id:
                    clock[m] = max(clock[m], raised)
        for neuron, stamp in msg.events:
            if sender == 0:  # a stimulus drives the input it names
                if neuron not in self.ecs:
                    raise TopologyError(f"node {self.id}: no cell for neuron {neuron}")
                self.cm_queue.file(EXT_NEURON, stamp, (neuron,))
            elif not self.file_spike(neuron, stamp):
                raise TopologyError(f"node {self.id}: no local target of neuron {neuron}")

    def floor(self) -> int:
        """The least stamp this processor may still emit without new mail:
        its top live forecast, or a forecast from its top incoming spike."""
        top_out, stamps_in = self.cp_top(), self.cm_queue.stamps
        return min(UNBOUNDED if top_out is None else top_out.stamp,
                   stamps_in[0] + 1 if stamps_in else UNBOUNDED)

    # -- authorization algorithms ----------------------------------------------

    def others_reached(self, st: int) -> bool:
        """Every other processor, the environment included, can no longer
        send below ``st``: its clock entry has reached ``st``."""
        return all(st <= self.clock[m]
                   for m in range(self.procs + 1) if m != self.id)

    def emission_authorized(self, e: CPEvent) -> bool:
        """At the node's emission time, behind a started computation, or in stamp order."""
        st = e.stamp
        return (st == self.clock[self.id] or (st <= self.pt and bool(self.cm_queue))
                or self.emission_order_safe(st))

    # While computations are synchronous (``cpc_step`` starts, integrates and
    # collects each one back to back), ``running`` is empty here, and the
    # gate refuses only a remote spike at st that overtook the environment's
    # raise to st. A local spike at st was filed by our emission at st, whose
    # rule (each disjunct, by induction) found every other entry at st. A
    # remote spike raises its sender's entry to st. Each other entry the
    # sender read at st came from a raise, or from an emission that read ours
    # at st: from an emission of ours, which read every entry at st, or from
    # a raise, which stays at or below the floor we reported, so no forecast
    # of ours lies below st. A raise reaches every processor in one
    # broadcast, which ``receive`` takes once and in order, so it alone can
    # arrive after the spike. Det takes the environment's channel first and
    # never refuses; in 72 seeded schedules each of the 4,737 arrivals the
    # gate refused waited for the raise to st in flight, and 36 threads runs
    # refused none. The ``running`` branches serve overlapping work.

    def computation_authorized(self, e: CMEvent) -> AuthDecision:
        st = e.stamp
        if e.target in self.running:
            return AuthDecision.PRIORITY_DEFERRED
        if st == self.pt:
            return AuthDecision.AUTHORIZED
        if not self.running and self.others_reached(st):
            # Our own clock has reached st, or (the paper's local deadlock)
            # no forecast of ours lies below it.
            top = self.cp_top()
            if st <= self.clock[self.id] or top is None or st <= top.stamp:
                return AuthDecision.AUTHORIZED
        return AuthDecision.DELAYED

    # -- protocol transitions ----------------------------------------------------

    def apply_emission(self, e: CPEvent) -> None:
        """Emit the top forecast: file it locally, stage it once per processor it reaches."""
        top = self.cp_top()
        if top is not e:
            raise ProtocolViolation("apply_emission on a non-top event")
        source, stamp = e.source, e.stamp
        if not self.clock[self.id] <= stamp <= self.clock[0]:
            raise ProtocolViolation(f"node {self.id}: emission at {stamp} after "
                                    f"{self.clock[self.id]}, T {self.clock[0]}")
        heapq.heappop(self.cp_queue)
        self.clock[self.id] = stamp
        self.stats.certifications += self.ecs[source].on_emitted(stamp)
        self.trace.append((source, stamp))
        self.stats.emitted += 1

        self.file_spike(source, stamp)
        spike, outboxes = Spike(source, stamp), self.outboxes
        for owner in self.owners.get(source, ()):
            outboxes.setdefault(owner, []).append(spike)
        if source in self.outputs:
            outboxes.setdefault(0, []).append(spike)

    def start_computation(self, target: int, stamp: int) -> ECState:
        """Start one cell's arrivals of one stamp, taken from the calendar."""
        if not self.pt <= stamp <= self.clock[0]:
            raise ProtocolViolation(f"node {self.id}: computation at {stamp} after "
                                    f"{self.pt}, T {self.clock[0]}")
        self.running.add(target)
        self.pt = stamp
        return self.ecs[target]

    def collect_result(self, ec: ECState, result: IntegrationResult) -> None:
        if ec.neuron not in self.running:
            raise ProtocolViolation("collect_result for an idle cell")
        for ev in result.new_forecasts:
            self.queue_forecast(ev)
        self.stats.cancellations += len(result.cancellations)
        self.running.discard(ec.neuron)

    # -- emission order --------------------------------------------------------
    #
    # Emitting a forecast early could put spikes on the wire out of stamp
    # order: a pending computation, local or remote, may yet forecast a
    # smaller stamp. Any future forecast is bounded below by (pending
    # incoming stamp + 1) locally and clock[m] remotely (emission times never
    # decrease, but an equal stamp may still follow), and emissions never
    # exceed the environment time. The same bound keeps every incoming spike
    # off the forecast's neuron at or before its stamp: the spike is final.

    def emission_order_safe(self, st: int) -> bool:
        if self.running:
            return False
        stamps_in = self.cm_queue.stamps
        if stamps_in and st > stamps_in[0] + 1:
            return False
        return self.others_reached(st)

    # -- controller steps ---------------------------------------------------------

    def step(self, inbound):
        """Receive, compute and emit; returns (moved, messages). Only mail can
        change a processor whose step moves nothing, so such a step ships its
        partial batches and reports any change of its message counts."""
        for msg in inbound:
            self.receive(msg)
        computed = self.cpc_step()
        progress, messages = self.cmc_step()
        if computed or progress or messages:
            return True, messages
        messages = self.flush_ready(force=True)
        if (self.sent, self.received) != self.reported:
            self.reported = (list(self.sent), list(self.received))
            report = Report(self.floor(), *self.reported)
            messages.append((0, Message(self.id, [], report=report)))
        return False, messages

    def cmc_step(self):
        """Emission control + message staging; returns (progress, messages)."""
        progress = False
        while (e := self.cp_top()) is not None:
            if not self.emission_authorized(e):
                if not e.delayed:  # count each delayed spike once
                    e.delayed = True
                    self.stats.delayed_emissions += 1
                break
            self.apply_emission(e)
            progress = True
        return progress, self.flush_ready()

    def cpc_step(self) -> bool:
        """Once the top arrival is authorized, so is every arrival of its stamp
        (``st == pt``): each cell integrates its own in one computation."""
        queue, computed = self.cm_queue, 0
        while (e := queue.peek()) is not None:
            if self.computation_authorized(e) is not AuthDecision.AUTHORIZED:
                if e != self.refused:  # count each delayed arrival once
                    self.refused = e
                    self.stats.delayed_computations += 1
                break
            st, by_cell = queue.pop_stamp()
            for target, sources in by_cell.items():
                ec = self.start_computation(target, st)
                self.collect_result(ec, ec.integrate(st, sources))
                computed += len(sources)
        self.stats.computed += computed
        return computed > 0

    def flush_ready(self, force: bool = False):
        """Messages ready to send, as (destination, message) pairs.

        Destination 0 always flushes immediately: a withheld output spike
        would suppress the very clock advancement that drives progress.
        """
        messages = []
        for dest in sorted(self.outboxes):
            staged = self.outboxes[dest]
            if dest == 0 or force or len(staged) >= self.minpak:
                del self.outboxes[dest]  # the batch leaves with the message
                messages.append(
                    (dest, Message(sender=self.id, clock=[self.clock[self.id]],
                                   events=staged))
                )
                self.sent[dest] += 1
                self.stats.messages_sent += 1
        return messages
