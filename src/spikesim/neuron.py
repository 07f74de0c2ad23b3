"""Event-driven cell: leaky integrate-and-fire with forecasting.

A cell integrates incoming spikes for one neuron, forecasts the outgoing
spikes they imply, and cancels forecasts invalidated by later-processed
arrivals with smaller delays (the delayed firing problem). A forecast that
no future arrival can touch is certain; that is a rule on its stamp, not a
state it carries. One computation is the cell's arrivals of one stamp,
integrated in one replay. A cell holds its incoming synapses by source, as
``engine.build_simulation`` gives them; an input's also hold the delay-1
stimulus synapse from ``EXT_NEURON``, so ``d_min`` is their least delay.

Membrane rule, per effective arrival tick t (all arrivals landing at t are
handled as one group, in a fixed order, so results do not depend on the
order events were processed in):

    V <- V * exp(-(t - t_prev) / tau)
    V <- V + sum of excitatory weights at t
    if V >= theta: fire at t, V <- reset
    V <- V + sum of inhibitory weights at t

Inhibition landing exactly at t applies after the threshold check, so a
fire decision at t can never be revoked by a same-tick arrival. This is
what makes a forecast at ``horizon + 1`` certain when two presynaptic
neurons fire on the same tick: later arrivals land at or above it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort

from .events import CPEvent, ProtocolViolation, TopologyError

def membrane_step(v: float, t_prev: int, t: int, entries, params) -> tuple[float, bool]:
    """Advance the membrane from t_prev to t and apply one arrival group.

    ``entries`` is a sequence of (source, stamp, weight) sorted by (source,
    stamp): the cell and the oracle keep their groups in that order, so both
    sum in it and perform bit-identical float operations. Returns the
    potential after the group and whether the neuron fires at t.
    """
    if t > t_prev:
        v *= math.exp(-(t - t_prev) / params.tau)
    for _s, _st, w in entries:
        if w > 0:
            v += w
    fired = v >= params.threshold
    if fired:
        v = params.reset
    for _s, _st, w in entries:
        if w <= 0:
            v += w
    return v, fired


class Synapse:
    __slots__ = ("weight", "delay")

    def __init__(self, weight: float, delay: int) -> None:
        self.weight, self.delay = weight, delay

    def __eq__(self, other) -> bool:
        return (isinstance(other, Synapse)
                and (self.weight, self.delay) == (other.weight, other.delay))

    def __repr__(self) -> str:
        return f"Synapse({self.weight}, {self.delay})"


class NeuronParams:
    """The neuron model alone; its synapses live in ``NetworkSpec.synapses``."""

    __slots__ = ("threshold", "tau", "reset", "stim_weight")

    def __init__(self, threshold: float, tau: float, reset: float = 0.0) -> None:
        self.threshold, self.tau, self.reset = threshold, tau, reset
        self.stim_weight = 2.0 * threshold


class IntegrationResult:  # two lists of CPEvent
    __slots__ = ("new_forecasts", "cancellations")

    def __init__(self) -> None:
        self.new_forecasts, self.cancellations = [], []


class ECState:
    """One neuron's cell state.

    ``horizon`` is the certainty horizon: every arrival with effective time
    <= horizon has been folded into ``v`` and is final. A forecast stamped
    at or below ``horizon + 1`` is certain: later arrivals land above the
    horizon, and one landing at its stamp cannot revoke a fire. ``v_time``
    is the tick of the last folded arrival group (kept separate from
    ``horizon`` so decay is always computed group-to-group, exactly like
    the oracle).

    Pending arrival groups, all above the horizon between integrations,
    are parallel lists in time order: effective ``times``, their ``groups``
    of (source, stamp, weight) and the potential ``after`` each group as
    the last replay left it. Arrivals land above the horizon, so a replay
    starts at the earliest arrival's group, from the cached state.

    ``queued`` is the cell's one forecast table, by stamp. It holds every
    unemitted forecast, live or final, and every emitted forecast still
    above the horizon. It is where a pending group's fire is kept: above
    the horizon it holds a forecast at a pending time exactly when that
    group fired (up to ``sim_horizon``).
    """

    def __init__(self, neuron: int, params: NeuronParams,
                 synapses: dict[int, Synapse], sim_horizon: int) -> None:
        self.neuron = neuron
        self.params = params
        self.synapses = synapses  # incoming, by source; an input's holds its stimulus
        self.d_min = min([s.delay for s in synapses.values()], default=1)
        if self.d_min < 1:
            raise TopologyError(f"neuron {neuron}: incoming delay {self.d_min} < 1")
        self.sim_horizon = sim_horizon
        self.v = params.reset
        self.v_time = 0
        self.horizon = 0
        self.times: list[int] = []
        self.groups: list[list[tuple[int, int, float]]] = []
        self.after: list[float] = []
        self.queued: dict[int, CPEvent] = {}
        self._last_stamp_per_source: dict[int, int] = {}

    # -- bookkeeping driven by the owning node ------------------------------

    def on_emitted(self, stamp: int) -> bool:
        """Mark the forecast at ``stamp`` emitted; a final one leaves the table.
        Returns whether the forecast was certain."""
        self.queued[stamp].emitted = True
        if stamp <= self.horizon:
            del self.queued[stamp]
        return stamp <= self.horizon + 1

    # -- integration ---------------------------------------------------------

    def integrate(self, stamp: int, sources) -> IntegrationResult:
        """Integrate the spikes ``sources`` fired at ``stamp``, each checked, in
        one replay from the earliest arriving group; update the forecast table."""
        times, groups, after, horizon = self.times, self.groups, self.after, self.horizon
        last_stamps, synapses, start = self._last_stamp_per_source, self.synapses, len(times)
        for source in sources:
            if stamp <= last_stamps.get(source, -1):
                raise ProtocolViolation(f"neuron {self.neuron}: duplicate or reordered event from "
                                        f"{source} (stamp {stamp} after {last_stamps[source]})")
            last_stamps[source] = stamp
            syn = synapses.get(source)
            if syn is None:
                raise TopologyError(f"neuron {self.neuron}: no synapse from source {source}")
            eff = stamp + syn.delay
            if eff <= horizon:
                raise ProtocolViolation(f"neuron {self.neuron}: stale arrival at {eff}, "
                                        f"horizon {horizon}")
            i = bisect_left(times, eff)
            if i < len(times) and times[i] == eff:
                insort(groups[i], (source, stamp, syn.weight))
            else:
                times.insert(i, eff)
                groups.insert(i, [(source, stamp, syn.weight)])
                after.insert(i, 0.0)
            if i < start:
                start = i
        self.horizon = max(horizon, stamp + self.d_min - 1)
        result = self._diff(start)
        k = bisect_right(times, self.horizon)
        if k:  # fold: the groups up to the horizon are final, and so are their fires
            queued = self.queued
            for t in times[:k]:
                ev = queued.get(t)
                if ev is not None and ev.emitted:
                    del queued[t]
            self.v, self.v_time = after[k - 1], times[k - 1]
            del times[:k], groups[:k], after[:k]
        return result

    def _diff(self, start: int) -> IntegrationResult:
        """Replay from group ``start`` and reconcile the table, in stamp order.
        The arrivals' groups lie above the horizon; earlier groups keep
        their fires."""
        result = IntegrationResult()
        queued, times, groups, after = self.queued, self.times, self.groups, self.after
        horizon, sim_horizon, params = self.horizon, self.sim_horizon, self.params
        v, t_prev = (after[start - 1], times[start - 1]) if start else (self.v, self.v_time)
        for j in range(start, len(times)):
            t = times[j]
            v, fired = membrane_step(v, t_prev, t, groups[j], params)
            after[j], t_prev = v, t
            if t > sim_horizon:
                continue
            ev = queued.get(t)  # the group's fire as the last replay left it
            if ev is None:
                if fired:
                    queued[t] = ev = CPEvent(source=self.neuron, stamp=t)
                    result.new_forecasts.append(ev)
            elif not fired:
                if ev.emitted:  # every replay must reproduce an emitted fire
                    raise ProtocolViolation(
                        f"neuron {self.neuron}: emitted spike at {t} "
                        f"invalidated by a later arrival"
                    )
                if t <= horizon + 1:  # certain: no arrival may revoke it
                    raise ProtocolViolation(
                        f"neuron {self.neuron}: certain forecast at {t} "
                        f"invalidated (horizon {horizon})"
                    )
                result.cancellations.append(ev)
        # Only now, so an invalid cancellation raises before the table moves.
        for ev in result.cancellations:
            del queued[ev.stamp]
        return result
