"""Environment processor (id 0): stimuli, actual time T, quiescence.

The environment injects external stimuli towards input neurons, collects
the spikes of output neurons, and advances the actual time T. Every
advancement is broadcast to all compute processors as a message carrying
``[T, raised]`` and, when scheduled, the stimuli emitted at T-1 (so input
neurons fire at T), each a ``Spike(input, T-1)`` that its owner files
under the source ``EXT_NEURON``. Processors with nothing scheduled still
receive the bare stamps; the environment is the only sender allowed to
emit clock-only messages.

T advances when an output carries its sender's emission time at T, or
once the idle processors' reports prove the run quiescent (the paper's
timeout path; channel counting after Mattern 1987). It then raises every
emission time to the least reported floor, as one stamp (Chandy & Misra 1979).
"""

from __future__ import annotations

from .events import ProtocolViolation, Spike
from .oracle import trace_order
from .transport import Message, Report


class EnvStats:
    def __init__(self) -> None:
        self.timeouts = self.advancements = self.outputs_received = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


class EnvState:
    # Ticks T keeps advancing past the horizon, so that forecasts stamped
    # up to the horizon still get emitted.
    slack = 8

    def __init__(self, procs: int, stimuli: dict[int, list[int]],
                 owner_of: dict[int, int], horizon: int,
                 timeout_ms: int = 20) -> None:
        if timeout_ms < 1:
            # A zero wait would make both loops spin on an empty inbox.
            raise ValueError(f"timeout_ms must be at least 1, got {timeout_ms}")
        self.procs = procs
        self.T = 0
        self.raised = 0  # the stamp the last quiescence raise lifted every emission time to
        self.stimuli = dict(stimuli)
        self.owner_of = owner_of
        self.horizon = horizon
        self.timeout_ms = timeout_ms
        self.output_log: list[tuple[int, int]] = []
        self.stats = EnvStats()
        self.received = [0] * (procs + 1)  # output messages from each node
        self.reports: dict[int, Report] = {}  # the latest from each node

    # -- derived state -------------------------------------------------------

    def past_end(self, t: int) -> bool:
        """Whether a processor that has seen T reach ``t`` has seen the end."""
        return t > self.horizon + self.slack

    @property
    def done(self) -> bool:
        return self.past_end(self.T)

    # -- advancement ---------------------------------------------------------

    def step(self, inbound: list[Message]) -> tuple[bool, list[tuple[int, Message]]]:
        """Take reports and outputs; advance T at the start, on an output that
        reached T, else at quiescence. Returns (moved, messages) as
        ``NodeState.step`` does: whether T advanced, and the (dest, message)
        pairs of its broadcast."""
        advance = self.T == 0
        for msg in inbound:
            if msg.report is not None:
                self.on_report(msg)
            elif self.on_output(msg):
                advance = True
        if advance:
            broadcast = self.advance_T()
        elif (floor := self.quiescence_floor()) is not None:
            broadcast = self.on_timeout(floor)
        else:
            return False, []
        return True, list(enumerate(broadcast, start=1))

    def _advance(self) -> list[Message]:
        """T + 1; one message per compute processor, with stimuli emitted at T-1."""
        self.T += 1
        self.stats.advancements += 1
        per_proc: dict[int, list[Spike]] = {p: [] for p in range(1, self.procs + 1)}
        for nid in self.stimuli.get(self.T - 1, ()):  # noqa: delivered exactly once
            per_proc[self.owner_of[nid]].append(Spike(nid, self.T - 1))
        return [Message(sender=0, clock=[self.T, self.raised], events=spikes)
                for spikes in per_proc.values()]  # in processor order

    def advance_T(self) -> list[Message]:
        return self._advance()

    def on_timeout(self, floor: int) -> list[Message]:
        """Advancement at quiescence: also raise every emission time to
        ``floor``, the least stamp any processor may still emit, but not past
        T-1."""
        self.stats.timeouts += 1
        self.raised = max(self.raised, min(self.T, floor))  # the new T - 1 at most
        return self._advance()

    def on_report(self, msg: Message) -> None:
        if not 1 <= msg.sender <= self.procs or len(msg.report.sent) != self.procs + 1:
            raise ProtocolViolation(
                f"report from {msg.sender} does not fit {self.procs} processors")
        self.reports[msg.sender] = msg.report

    def quiescence_floor(self) -> int | None:
        """The least reported floor once the latest reports prove that no
        processor is busy and no message is in flight, else None. An idle
        processor changes only when mail arrives, so a busy one or a message
        in flight leaves some channel (env to i, i to env, i to j) whose
        counts differ; totals alone could balance across channels. Each
        advancement sends one message to every processor, so the channel
        from the environment to i balances once i has received T."""
        reps = self.reports
        if len(reps) < self.procs:
            return None
        for i, r in reps.items():
            if r.received[0] != self.T or r.sent[0] != self.received[i]:
                return None
            if any(r.sent[j] != reps[j].received[i] for j in reps):
                return None
        return min(r.floor for r in reps.values())

    def on_output(self, msg: Message) -> bool:
        """Log output spikes; True if the sender's emission time reached T."""
        self.received[msg.sender] += 1
        for spike in msg.events:
            if self.owner_of.get(spike.neuron) != msg.sender:
                raise ProtocolViolation(
                    f"{spike} from processor {msg.sender}, which does not own it")
            self.output_log.append(spike)
            self.stats.outputs_received += 1
        return msg.clock[0] == self.T

    def sorted_outputs(self) -> list[tuple[int, int]]:
        return sorted(self.output_log, key=trace_order)
