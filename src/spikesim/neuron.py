"""Event-driven cell: leaky integrate-and-fire with forecasting.

A cell integrates incoming spikes for one neuron, forecasts the outgoing
spikes they imply, cancels forecasts invalidated by later-processed
arrivals with smaller delays (the delayed firing problem), and certifies
forecasts that no future arrival can touch.

Membrane rule, per effective arrival tick t (all arrivals landing at t are
handled as one group, in a fixed order, so results do not depend on the
order events were processed in):

    V <- V * exp(-(t - t_prev) / tau)
    V <- V + sum of excitatory weights at t
    if V >= theta: fire at t, V <- reset
    V <- V + sum of inhibitory weights at t

Inhibition landing exactly at t applies after the threshold check, so a
fire decision at t can never be revoked by a same-tick arrival. This is
what makes the certification bound (stamp <= processed stamp + d_min)
safe when two presynaptic neurons fire on the same tick.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

from .events import EXT_NEURON, CPEvent, ProtocolViolation, TopologyError

# Arrivals within one tick are summed in this order; shared with the oracle
# so both simulators perform bit-identical float operations.
def _group_order(entry):
    source, stamp, _w = entry
    return (source, stamp)


def membrane_step(v: float, t_prev: int, t: int, entries, params,
                  presorted: bool = False) -> tuple[float, bool]:
    """Advance the membrane from t_prev to t and apply one arrival group.

    ``entries`` is an iterable of (source, stamp, weight). Returns the
    potential after the group and whether the neuron fires at t.
    ``presorted`` skips the (source, stamp) sort for callers that already
    keep groups in that order; the summation order must stay identical.
    """
    if t > t_prev:
        v *= math.exp(-(t - t_prev) / params.tau)
    ordered = entries if presorted else sorted(entries, key=_group_order)
    for _s, _st, w in ordered:
        if w > 0:
            v += w
    fired = v >= params.threshold
    if fired:
        v = params.reset
    for _s, _st, w in ordered:
        if w <= 0:
            v += w
    return v, fired


@dataclass
class Synapse:
    weight: float
    delay: int


@dataclass
class NeuronParams:
    threshold: float
    tau: float
    reset: float = 0.0
    synapses: dict[int, Synapse] = field(default_factory=dict)
    is_input: bool = False
    stim_weight: float | None = None  # defaults to 2 * threshold

    def __post_init__(self) -> None:
        for src, syn in self.synapses.items():
            if syn.delay < 1:
                raise TopologyError(f"synapse {src}: delay {syn.delay} < 1")
        if self.stim_weight is None:
            self.stim_weight = 2.0 * self.threshold

    @property
    def d_min(self) -> int:
        """Minimum incoming delay; stimuli count as delay-1 connections."""
        delays = [s.delay for s in self.synapses.values()]
        if self.is_input:
            delays.append(1)
        return min(delays) if delays else 1


@dataclass
class IntegrationResult:
    new_forecasts: list[CPEvent] = field(default_factory=list)
    cancellations: list[CPEvent] = field(default_factory=list)
    certifications: list[CPEvent] = field(default_factory=list)


class ECState:
    """One neuron's cell state.

    ``horizon`` is the certainty horizon: every arrival with effective time
    <= horizon has been folded into ``v`` and is final, and so is every
    forecast stamped at or below it. ``v_time`` is the tick of the last
    folded arrival group (kept separate from ``horizon`` so decay is always
    computed group-to-group, exactly like the oracle).

    ``queued`` is the cell's one forecast table, by stamp. It holds every
    unemitted forecast, live or final, and every emitted forecast still
    above the horizon, which each re-simulation must reproduce.
    """

    def __init__(self, neuron: int, params: NeuronParams, sim_horizon: int) -> None:
        self.neuron = neuron
        self.params = params
        self.d_min = params.d_min  # topology is fixed for the whole run
        self.sim_horizon = sim_horizon
        self.v = params.reset
        self.v_time = 0
        self.horizon = 0
        # effective time -> list of (source, stamp, weight)
        self.pending: dict[int, list[tuple[int, int, float]]] = {}
        self.queued: dict[int, CPEvent] = {}
        self.priority = False
        self.active = False
        self._last_stamp_per_source: dict[int, int] = {}

    # -- bookkeeping driven by the owning node ------------------------------

    def on_emitted(self, stamp: int) -> None:
        """Mark the forecast at ``stamp`` emitted; a final one leaves the table."""
        ev = self.queued.get(stamp)
        if ev is None:
            return
        ev.emitted = True
        if stamp <= self.horizon:
            del self.queued[stamp]

    # -- integration ---------------------------------------------------------

    def _arrival(self, e) -> tuple[int, float]:
        if e.source == EXT_NEURON:
            return e.stamp + 1, self.params.stim_weight
        syn = self.params.synapses.get(e.source)
        if syn is None:
            raise TopologyError(
                f"neuron {self.neuron}: no synapse from source {e.source}"
            )
        return e.stamp + syn.delay, syn.weight

    def integrate(self, e) -> IntegrationResult:
        """Process one incoming spike and rebuild the forecast table."""
        if e.target != self.neuron:
            raise ProtocolViolation(f"event for {e.target} routed to {self.neuron}")
        last = self._last_stamp_per_source.get(e.source)
        if last is not None and e.stamp <= last:
            raise ProtocolViolation(
                f"neuron {self.neuron}: duplicate or reordered event from "
                f"{e.source} (stamp {e.stamp} after {last})"
            )
        self._last_stamp_per_source[e.source] = e.stamp

        eff, weight = self._arrival(e)
        if eff <= self.horizon:
            raise ProtocolViolation(
                f"neuron {self.neuron}: stale arrival at {eff}, horizon {self.horizon}"
            )
        bisect.insort(self.pending.setdefault(eff, []),
                      (e.source, e.stamp, weight))

        old_horizon = self.horizon
        self.horizon = max(old_horizon, e.stamp + self.d_min - 1)
        fires = self._resimulate(fold_to=self.horizon)
        return self._diff(fires, old_horizon, cert_bound=e.stamp + self.d_min)

    def _resimulate(self, fold_to: int) -> list[int]:
        """Replay pending arrivals from the horizon; fold groups <= fold_to."""
        sim_v, sim_t = self.v, self.v_time
        fires: list[int] = []
        folded: list[int] = []
        for t in sorted(self.pending):
            sim_v, fired = membrane_step(sim_v, sim_t, t, self.pending[t],
                                         self.params, presorted=True)
            sim_t = t
            if fired:
                fires.append(t)
            if t <= fold_to:
                folded.append(t)
                self.v, self.v_time = sim_v, sim_t
        for t in folded:
            del self.pending[t]
        return fires

    def _diff(self, fires: list[int], old_horizon: int,
              cert_bound: int) -> IntegrationResult:
        """Reconcile the table with the replayed fires, in stamp order."""
        result = IntegrationResult()
        fire_set = {t for t in fires if t <= self.sim_horizon}
        queued = self.queued
        for stamp in sorted(fire_set.union(queued)):
            if stamp <= old_horizon:
                continue  # final: not replayed, a candidate when it became final
            ev = queued.get(stamp)
            if ev is None:
                ev = queued[stamp] = CPEvent(source=self.neuron, stamp=stamp)
                result.new_forecasts.append(ev)
            elif stamp not in fire_set:
                # Emitted fires must be reproduced by every re-simulation.
                if ev.emitted:
                    raise ProtocolViolation(
                        f"neuron {self.neuron}: emitted spike at {stamp} "
                        f"invalidated by a later arrival"
                    )
                result.cancellations.append(ev)
                continue
            if ev.emitted:
                if stamp <= self.horizon:
                    del queued[stamp]  # final: no arrival can revoke it now
            elif stamp <= cert_bound and not ev.crt:
                result.certifications.append(ev)
        # Only now, so an invalidated emission raises before anything moves.
        for ev in result.cancellations:
            ev.cancel()
            del queued[ev.stamp]
        return result
