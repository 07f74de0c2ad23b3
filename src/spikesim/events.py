"""Event records and the stamp-ordered priority queues used by both controllers.

Two kinds of events flow through the system:

* ``CMEvent`` -- an incoming spike, to be computed by the target neuron's
  event-driven cell.
* ``CPEvent`` -- an outgoing spike forecast by a cell, to be emitted once
  it can no longer be invalidated.

Time is discrete (integer ticks, resolution 1). Event stamps are strictly
positive, except that stimuli injected by the environment processor may
carry stamp 0 (the environment emits at T-1 and the run starts at T=1).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import NamedTuple

# Reserved neuron id for the external environment ("Ext"). Encodes as
# 0xFFFFFFFF on the wire, so the same value is used in memory.
EXT_NEURON = 0xFFFFFFFF


class ProtocolViolation(RuntimeError):
    """A state transition broke a protocol rule. Always a bug, never data."""


class TopologyError(ValueError):
    """Network description or routing table is inconsistent."""


class CMEvent(NamedTuple):
    """Incoming spike: ``source`` fired at ``stamp`` towards ``target``."""

    target: int
    source: int
    stamp: int

    def sort_key(self) -> tuple[int, int, int]:
        return (self.stamp, self.source, self.target)


@dataclass
class CPEvent:
    """Outgoing spike forecast: ``source`` is expected to fire at ``stamp``.

    ``crt`` marks the forecast as certain (no future incoming spike can
    cancel it). ``cancelled`` tombstones an invalidated forecast; the event
    then stays in the queue until popped, so the owning cell can keep a
    stable reference. Both flags are one-way.
    """

    source: int
    stamp: int
    crt: bool = False
    cancelled: bool = False
    emitted: bool = field(default=False, compare=False)

    def certify(self) -> None:
        if self.cancelled:
            raise ProtocolViolation(
                f"certify() on cancelled forecast [{self.source}, {self.stamp}]"
            )
        self.crt = True

    def cancel(self) -> None:
        if self.crt:
            raise ProtocolViolation(
                f"cancel() on certified forecast [{self.source}, {self.stamp}]"
            )
        if self.emitted:
            raise ProtocolViolation(
                f"cancel() on emitted forecast [{self.source}, {self.stamp}]"
            )
        self.cancelled = True

    def sort_key(self) -> tuple[int, int, int]:
        return (self.stamp, self.source, 0)


def _stamp_ok(event) -> bool:
    if event.stamp > 0:
        return True
    # Environment stimuli are emitted at T-1 and the run starts at T=1.
    return event.stamp == 0 and event.source == EXT_NEURON


class EventQueue:
    """Priority queue ordered by (stamp, source, target, arrival order).

    The content-based part of the key makes pop order independent of the
    transport. The queue's own push counter breaks ties between otherwise
    identical events, so no two entries ever compare equal and the events
    themselves are never compared or written to.

    Instances are not synchronized; the owning node serializes access.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[tuple[int, int, int], int, object]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, event) -> None:
        if not _stamp_ok(event):
            raise ProtocolViolation(f"non-positive event stamp: {event}")
        heapq.heappush(self._heap, (event.sort_key(), self._seq, event))
        self._seq += 1

    def peek(self):
        """Minimum event without removal, or None if empty."""
        return self._heap[0][2] if self._heap else None

    def pop(self):
        return heapq.heappop(self._heap)[2]
