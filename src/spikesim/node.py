"""One logical processor: controller loops, authorization gates, clocks.

Each compute processor owns two stamp-ordered queues (incoming spikes to
compute, outgoing spikes to emit), two signed time registers, and a local
clock array with its latest knowledge of every processor's emission time.

Sign convention for the registers and clock entries: a negative value
means "the corresponding queue was empty at magnitude |value|". Magnitudes
never decrease.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .events import CMEvent, CPEvent, EXT_NEURON, EventQueue, ProtocolViolation, TopologyError
from .neuron import ECState, IntegrationResult
from .transport import Message, merge_clock_into


class AuthDecision(enum.Enum):
    AUTHORIZED = "authorized"
    DELAYED = "delayed"
    PRIORITY_DEFERRED = "priority_deferred"


@dataclass
class NodeStats:
    computed: int = 0
    emitted: int = 0
    cancellations: int = 0
    certifications: int = 0
    delayed_emissions: int = 0
    delayed_computations: int = 0
    messages_sent: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


class NodeState:
    """Full protocol state of one compute processor (id >= 1)."""

    def __init__(self, node_id: int, procs: int,
                 ecs: dict[int, ECState],
                 post_tables: dict[int, list[tuple[int, int]]],
                 outputs: set[int]) -> None:
        if node_id < 1:
            raise ValueError("compute processor ids start at 1")
        self.id = node_id
        self.procs = procs
        self.cm_queue = EventQueue()
        self.cp_queue = EventQueue()
        self.et = 0  # emission time register (signed)
        self.pt = 0  # processing time register (signed)
        self.nbth = 0
        self.clock = [0] * (procs + 1)
        self.ecs = ecs
        self.post_tables = post_tables
        self.outputs = outputs
        self.outboxes: dict[int, list[CMEvent]] = {}
        self.cp_live = 0  # un-cancelled, un-emitted events in cp_queue
        self.stats = NodeStats()
        self.trace: list[tuple[int, int]] = []  # (neuron, stamp) emissions

    # -- sign maintenance ----------------------------------------------------

    def _set_et(self, magnitude: int | None = None) -> None:
        mag = abs(self.et) if magnitude is None else magnitude
        self.et = mag if self.cp_live > 0 else -mag
        self.clock[self.id] = self.et

    def _set_pt(self, magnitude: int | None = None) -> None:
        mag = abs(self.pt) if magnitude is None else magnitude
        self.pt = mag if len(self.cm_queue) > 0 else -mag

    # -- queue access ----------------------------------------------------------

    def cp_top(self) -> CPEvent | None:
        """Top un-cancelled outgoing event; tombstones are dropped on sight."""
        while self.cp_queue:
            top = self.cp_queue.peek()
            if top.cancelled:
                self.cp_queue.pop()
                continue
            return top
        return None

    # -- message handling ------------------------------------------------------

    def merge_clock(self, remote: list[int]) -> None:
        merge_clock_into(self.clock, remote, own=self.id)

    def receive(self, msg) -> None:
        self.merge_clock(msg.clock)
        for ev in msg.events:
            self.cm_queue.push(ev)
        if msg.events:
            self._set_pt()

    # -- authorization algorithms ----------------------------------------------

    def _emission_eval(self, e: CPEvent) -> tuple[AuthDecision, str]:
        st = e.stamp
        if st == self.et:
            return AuthDecision.AUTHORIZED, "at_emission_time"
        if e.crt:
            return AuthDecision.AUTHORIZED, "certified"
        if st <= self.pt:
            return AuthDecision.AUTHORIZED, "behind_processing"
        if self.nbth == 0 and self.pt < 0:
            if all(st <= self.clock[m] or self.clock[m] <= 0
                   for m in range(self.procs + 1) if m != self.id):
                return AuthDecision.AUTHORIZED, "quiescent"
        return AuthDecision.DELAYED, "delayed"

    def emission_authorized(self, e: CPEvent) -> AuthDecision:
        return self._emission_eval(e)[0]

    def local_deadlock(self, st: int) -> bool:
        return self.et < st and all(
            st <= self.clock[m] or self.clock[m] <= 0
            for m in range(self.procs + 1) if m != self.id
        )

    def computation_authorized(self, e: CMEvent) -> AuthDecision:
        ec = self.ecs.get(e.target)
        if ec is None:
            raise TopologyError(f"node {self.id}: no cell for neuron {e.target}")
        st = e.stamp
        if ec.active:
            ec.priority = True
            return AuthDecision.PRIORITY_DEFERRED
        if st == self.pt:
            return AuthDecision.AUTHORIZED
        if self.nbth == 0:
            if all(st <= self.clock[m] or self.clock[m] <= 0
                   for m in range(self.procs + 1)):
                return AuthDecision.AUTHORIZED
            if self.local_deadlock(st):
                top = self.cp_top()
                if top is None or st <= top.stamp:
                    return AuthDecision.AUTHORIZED
        return AuthDecision.DELAYED

    # -- protocol transitions ----------------------------------------------------

    def apply_emission(self, e: CPEvent) -> None:
        """Emit the top outgoing event: queue local targets, stage the rest."""
        top = self.cp_top()
        if top is not e:
            raise ProtocolViolation("apply_emission on a non-top event")
        self.cp_queue.pop()
        e.emitted = True
        self.cp_live -= 1
        self._set_et(e.stamp)
        self.ecs[e.source].on_emitted(e.stamp)
        self.trace.append((e.source, e.stamp))
        self.stats.emitted += 1

        targets = self.post_tables.get(e.source)
        if targets is None:
            raise TopologyError(f"node {self.id}: no post table for {e.source}")
        local = False
        for tgt, owner in targets:
            cm = CMEvent(target=tgt, source=e.source, stamp=e.stamp)
            if owner == self.id:
                self.cm_queue.push(cm)
                local = True
            else:
                self.outboxes.setdefault(owner, []).append(cm)
        if local:
            self._set_pt()
        if e.source in self.outputs:
            out = CMEvent(target=EXT_NEURON, source=e.source, stamp=e.stamp)
            self.outboxes.setdefault(0, []).append(out)

    def start_computation(self, e: CMEvent) -> ECState:
        top = self.cm_queue.peek()
        if top is not e:
            raise ProtocolViolation("start_computation on a non-top event")
        self.cm_queue.pop()
        self.nbth += 1
        self._set_pt(e.stamp)
        ec = self.ecs[e.target]
        ec.active = True
        return ec

    def collect_result(self, ec: ECState, result: IntegrationResult) -> None:
        if not ec.active:
            raise ProtocolViolation("collect_result for an idle cell")
        for ev in result.new_forecasts:
            self.cp_queue.push(ev)
        # Cancellations were tombstoned during integration; only the live
        # count moves here.
        self.cp_live += len(result.new_forecasts) - len(result.cancellations)
        self._set_et()
        self.stats.cancellations += len(result.cancellations)
        for ev in result.certifications:
            ev.certify()
        self.stats.certifications += len(result.certifications)
        self.nbth -= 1
        ec.active = False
        ec.priority = False

    # -- emission-order safety -------------------------------------------------
    #
    # A certified forecast is content-safe (the spike itself can never be
    # invalidated) but emitting it early could put spikes on the wire out of
    # stamp order: a computation still pending locally or remotely may yet
    # forecast a smaller stamp. Any future forecast is bounded below by
    # (pending incoming stamp + 1) locally and |et_m| remotely (emission
    # magnitudes never decrease, but an equal stamp may still follow), and
    # emissions never exceed the environment time, so the certified branch
    # additionally waits for:

    def emission_order_safe(self, st: int) -> bool:
        if self.nbth != 0:
            return False
        top = self.cm_queue.peek()
        if top is not None and st > top.stamp + 1:
            return False
        if st > abs(self.clock[0]):
            return False
        return all(st <= abs(self.clock[m])
                   for m in range(1, self.procs + 1) if m != self.id)

    # The same bound proves no incoming spike can still reach the forecast's
    # own neuron at or before its stamp, so it doubles as an opportunistic
    # certification rule evaluated at the queue top each loop iteration. It
    # unblocks nodes whose forecast sits just above the d_min bound while
    # unrelated incoming events keep the processing register positive.

    def certify_top(self) -> bool:
        top = self.cp_top()
        if top is None or top.crt:
            return False
        if self.emission_order_safe(top.stamp):
            top.certify()
            self.stats.certifications += 1
            return True
        return False

    # -- controller steps ---------------------------------------------------------

    def cmc_step(self, minpak: int = 1, limit: int | None = None):
        """Emission control + message staging; returns (progress, messages).

        ``limit`` caps the stamps considered this step; the deterministic
        scheduler uses it to offer work in global stamp order. It restricts
        which events are offered, never how they are authorized.
        """
        progress = False
        self.certify_top()
        while True:
            e = self.cp_top()
            if e is None or (limit is not None and e.stamp > limit):
                break
            decision, branch = self._emission_eval(e)
            if decision is not AuthDecision.AUTHORIZED:
                self.stats.delayed_emissions += 1
                break
            if branch == "certified" and not (
                e.stamp <= self.pt or self.emission_order_safe(e.stamp)
            ):
                self.stats.delayed_emissions += 1
                break
            self.apply_emission(e)
            progress = True
            self.certify_top()
        return progress, self.flush_ready(minpak)

    def cpc_step(self, limit: int | None = None) -> bool:
        progress = False
        while True:
            e = self.cm_queue.peek()
            if e is None or (limit is not None and e.stamp > limit):
                break
            decision = self.computation_authorized(e)
            if decision is not AuthDecision.AUTHORIZED:
                self.stats.delayed_computations += 1
                break
            ec = self.start_computation(e)
            result = ec.integrate(e)
            self.collect_result(ec, result)
            self.stats.computed += 1
            progress = True
        return progress

    def flush_ready(self, minpak: int, force: bool = False):
        """Messages ready to send, as (destination, message) pairs.

        Destination 0 always flushes immediately: a withheld output spike
        would suppress the very clock advancement that drives progress.
        """
        messages = []
        for dest in sorted(self.outboxes):
            staged = self.outboxes[dest]
            if not staged:
                continue
            if dest == 0 or force or len(staged) >= minpak:
                messages.append(
                    (dest, Message(sender=self.id, clock=list(self.clock),
                                   events=list(staged)))
                )
                staged.clear()
                self.stats.messages_sent += 1
        return messages
