"""Event records and the arrival calendar of a compute processor.

Three records describe a spike:

* ``Spike`` -- ``neuron`` fired at ``stamp``, as mail carries it.
* ``CMEvent`` -- an incoming spike towards one cell. An ``ArrivalCalendar``
  files it by stamp and cell as its bare source id; ``peek`` rebuilds one.
* ``CPEvent`` -- an outgoing spike forecast by a cell, to be emitted once
  emission control authorizes it. Its cell's forecast table is its only
  record; the node queues its ``(stamp, source)`` key.

Time is discrete (integer ticks, resolution 1). Event stamps are strictly
positive, except that stimuli injected by the environment processor may
carry stamp 0 (the environment emits at T-1 and the run starts at T=1).
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

# Reserved source id of the environment's stimuli ("Ext"). It never goes on
# the wire: a stimulus names its input neuron, filed under this source.
EXT_NEURON = 0xFFFFFFFF


class ProtocolViolation(RuntimeError):
    """A state transition broke a protocol rule. Always a bug, never data."""


class TopologyError(ValueError):
    """Network description or routing table is inconsistent."""


class Spike(NamedTuple):
    """``neuron`` fired at ``stamp``; a stimulus names the input it drives."""

    neuron: int
    stamp: int


class CMEvent(NamedTuple):
    """Incoming spike: ``source`` fired at ``stamp`` towards ``target``."""

    target: int
    source: int
    stamp: int


class CPEvent:
    """Outgoing spike forecast: ``source`` is expected to fire at ``stamp``.

    Its cell decides whether it is final: a forecast at or below the cell's
    ``horizon + 1`` is certain, and one it cancels leaves the cell's table.
    ``emitted`` and ``delayed`` (emission control has held it back) are
    one-way flags. A cell holds one forecast per stamp, so two are equal
    only if they are the same object.
    """

    __slots__ = ("source", "stamp", "emitted", "delayed")

    def __init__(self, source: int, stamp: int) -> None:
        self.source, self.stamp = source, stamp
        self.emitted = self.delayed = False

    def __repr__(self) -> str:
        return f"CPEvent(source={self.source}, stamp={self.stamp})"


class ArrivalCalendar:
    """Incoming spikes as source ids, filed by stamp, then by target cell: a
    calendar queue (Brown 1988). The heap ``stamps`` holds each stamp once."""

    def __init__(self) -> None:
        self._buckets: dict[int, dict[int, list[int]]] = {}
        self.stamps: list[int] = []

    def __bool__(self) -> bool:
        return bool(self.stamps)

    def file(self, source: int, stamp: int, targets) -> None:
        """File a spike of ``source`` at ``stamp`` for each of ``targets`` (one or more)."""
        # Environment stimuli are emitted at T-1 and the run starts at T=1.
        if stamp <= 0 and not (stamp == 0 and source == EXT_NEURON):
            raise ProtocolViolation(f"non-positive event stamp {stamp} from {source}")
        by_cell = self._buckets.get(stamp)
        if by_cell is None:
            by_cell = self._buckets[stamp] = {}
            heapq.heappush(self.stamps, stamp)
        for target in targets:
            by_cell.setdefault(target, []).append(source)

    def peek(self) -> CMEvent | None:
        """An arrival of the least stamp as a ``CMEvent``, or None if empty."""
        if self.stamps:
            target, sources = next(iter(self._buckets[self.stamps[0]].items()))
            return CMEvent(target, sources[0], self.stamps[0])

    def pop_stamp(self) -> tuple[int, dict[int, list[int]]]:
        """Remove the least stamp's arrivals: (stamp, {target: sources})."""
        stamp = heapq.heappop(self.stamps)
        return stamp, self._buckets.pop(stamp)

