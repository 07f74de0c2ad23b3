"""Environment processor (id 0): stimuli, actual time T, liveness timeout.

The environment injects external stimuli towards input neurons, collects
the spikes of output neurons, and advances the actual time T. Every
advancement is broadcast to all compute processors as a message carrying
the environment's clock array and, when scheduled, the stimuli emitted at
T-1 (so input neurons fire at T). Processors with nothing scheduled still
receive the bare clock; the environment is the only sender allowed to
emit clock-only messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .events import CMEvent, EXT_NEURON
from .oracle import trace_order
from .transport import Message, merge_clock_into


@dataclass
class EnvStats:
    timeouts: int = 0
    advancements: int = 0
    outputs_received: int = 0

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
            # A zero timeout lets T race past the horizon before nodes run.
            raise ValueError(f"timeout_ms must be at least 1, got {timeout_ms}")
        self.procs = procs
        self.T = 0
        self.clock = [0] * (procs + 1)
        self.stimuli = dict(stimuli)
        self.owner_of = owner_of
        self.horizon = horizon
        self.timeout_ms = timeout_ms
        self.output_log: list[tuple[int, int]] = []
        self._output_seen: set[tuple[int, int]] = set()
        self.stats = EnvStats()

    # -- derived state -------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.T > self.horizon + self.slack

    # -- advancement ---------------------------------------------------------

    def _broadcast(self) -> list[Message]:
        """One message per compute processor, with stimuli emitted at T-1."""
        per_proc: dict[int, list[CMEvent]] = {p: [] for p in range(1, self.procs + 1)}
        for nid in self.stimuli.get(self.T - 1, ()):  # noqa: delivered exactly once
            owner = self.owner_of.get(nid)
            if owner is None:
                raise KeyError(f"stimulus for unmapped neuron {nid}")
            per_proc[owner].append(CMEvent(target=nid, source=EXT_NEURON, stamp=self.T - 1))
        return [
            Message(sender=0, clock=list(self.clock), events=per_proc[p])
            for p in range(1, self.procs + 1)
        ]

    def advance_T(self) -> list[Message]:
        self.T += 1
        self.clock[0] = self.T
        self.stats.advancements += 1
        return self._broadcast()

    def on_timeout(self) -> list[Message]:
        """Timeout advancement: also raise every known emission time to T-1.

        Signs are preserved (a queue believed empty stays flagged empty);
        magnitudes only ever increase.
        """
        self.T += 1
        self.clock[0] = self.T
        self.stats.advancements += 1
        self.stats.timeouts += 1
        for m in range(1, self.procs + 1):
            sign = 1 if self.clock[m] > 0 else -1
            self.clock[m] = sign * max(abs(self.clock[m]), self.T - 1)
        return self._broadcast()

    def on_output(self, msg: Message) -> bool:
        """Log output spikes, merge the clock; True if T must advance."""
        if msg.sender < 1:
            raise ValueError("on_output expects a compute processor message")
        for ev in msg.events:
            if ev.target != EXT_NEURON:
                raise ValueError(f"non-output event routed to environment: {ev}")
            key = (ev.source, ev.stamp)
            if key not in self._output_seen:
                self._output_seen.add(key)
                self.output_log.append(key)
            self.stats.outputs_received += 1
        merge_clock_into(self.clock, msg.clock, own=0)
        return any(abs(msg.clock[m]) == self.T for m in range(1, self.procs + 1))

    def sorted_outputs(self) -> list[tuple[int, int]]:
        return sorted(self.output_log, key=trace_order)
