import math

import pytest
from hypothesis import given, settings, strategies as st

from spikesim.engine import build_simulation
from spikesim.events import EXT_NEURON, ProtocolViolation, TopologyError
from spikesim.neuron import ECState, NeuronParams, Synapse, membrane_step
from spikesim.topology import MappingSpec, NetworkSpec


def lif(threshold=1.0, tau=10.0, reset=0.0):
    return NeuronParams(threshold=threshold, tau=tau, reset=reset)


STIMULUS = Synapse(2.0, 1)  # an input's stimulus synapse, for lif()'s threshold


# -- membrane rule -------------------------------------------------------------

def test_decay_and_fire_hand_value():
    params = lif(tau=10.0)
    v, fired = membrane_step(0.0, 0, 1, [(1, 0, 0.6)], params)
    assert (v, fired) == (0.6, False)
    v, fired = membrane_step(v, 1, 3, [(2, 2, 0.6)], params)
    # 0.6 * exp(-2/10) + 0.6, frozen from an independent computation
    assert fired
    assert v == params.reset


def test_subthreshold_accumulation_hand_value():
    params = lif(tau=12.0, threshold=2.0)
    v, fired = membrane_step(0.0, 0, 2, [(1, 1, 0.7)], params)
    assert not fired
    v, fired = membrane_step(v, 2, 5, [(2, 4, 0.5)], params)
    assert not fired
    assert v == pytest.approx(1.0451605481499833, abs=0.0)


def test_no_decay_within_same_tick():
    params = lif(tau=10.0)
    v, _ = membrane_step(0.5, 3, 3, [(1, 2, 0.1)], params)
    assert v == 0.6


def test_same_tick_inhibition_cannot_revoke_fire():
    # Excitation is summed and the threshold checked before same-tick
    # inhibition applies, so a simultaneous inhibitory arrival cannot
    # retract the fire decision.
    params = lif(threshold=1.0, tau=10.0)
    v, fired = membrane_step(0.0, 0, 4, [(1, 3, 1.2), (2, 3, -5.0)], params)
    assert fired
    assert v == -5.0  # reset applied, then inhibition


def test_same_tick_order_is_by_source_then_stamp():
    # The membrane rule sums a group in the order given; a cell keeps each
    # tick's group sorted by (source, stamp) whatever order its sources
    # arrive in, within one computation or across several.
    syn = {1: Synapse(1.2, 1), 2: Synapse(-5.0, 2), 3: Synapse(0.25, 1)}
    cell = make_cell(syn)
    cell.integrate(2, [2])  # lands at 4
    cell.integrate(3, [3, 1])  # both land at 4
    group = [(1, 3, 1.2), (2, 2, -5.0), (3, 3, 0.25)]
    assert cell.times == [4] and cell.groups == [group]
    v, fired = membrane_step(0.0, 0, 4, group, cell.params)
    assert cell.after == [v] and (4 in cell.queued) == fired


def test_fire_resets_potential():
    params = lif(threshold=1.0, tau=10.0, reset=0.25)
    v, fired = membrane_step(0.9, 1, 1, [(1, 1, 0.5)], params)
    assert fired and v == 0.25


# -- parameters ------------------------------------------------------------------

def test_d_min_is_minimum_incoming_delay():
    assert make_cell({1: Synapse(0.5, 3), 2: Synapse(-0.5, 7)}).d_min == 3
    assert make_cell({}).d_min == 1  # no arrival ever comes


def test_d_min_counts_stimuli_for_input_neurons():
    # Neurons 1 and 2 each take a delay-3 synapse, and only 1 is an input:
    # its stimulus synapse sets its d_min to 1, while neuron 2's stays 3.
    net = NetworkSpec(neurons={1: lif(), 2: lif()},
                      synapses=[(2, 1, 0.5, 3), (1, 2, 0.5, 3)],
                      inputs={1}, outputs={2})
    _env, nodes = build_simulation(net, MappingSpec({1: 1, 2: 1}), {}, horizon=10)
    assert (nodes[1].ecs[1].d_min, nodes[1].ecs[2].d_min) == (1, 3)


def test_stim_weight_is_twice_threshold():
    assert lif(threshold=0.8).stim_weight == 1.6


def test_delay_below_one_rejected():
    with pytest.raises(TopologyError, match="neuron 5: incoming delay 0 < 1"):
        make_cell({1: Synapse(0.5, 0), 2: Synapse(0.5, 3)})


# -- event-driven cell -----------------------------------------------------------

def make_cell(synapses, neuron=5, horizon=100):
    return ECState(neuron, lif(), synapses, sim_horizon=horizon)


def test_stimulus_fires_input_neuron_next_tick():
    cell = make_cell({EXT_NEURON: STIMULUS})
    result = cell.integrate(3, [EXT_NEURON])
    assert [(e.source, e.stamp) for e in result.new_forecasts] == [(5, 4)]
    # d_min = 1, so the forecast at stamp+1 is certain at once.
    assert cell.horizon + 1 == 4
    assert cell.on_emitted(4) is True


def test_forecast_from_excitatory_sum():
    syn = {1: Synapse(0.6, 5), 2: Synapse(0.6, 5)}
    cell = make_cell(syn)
    assert cell.integrate(10, [1]).new_forecasts == []
    result = cell.integrate(10, [2])
    assert [e.stamp for e in result.new_forecasts] == [15]


def test_delayed_firing_cancellation():
    # Three excitatory synapses with a long delay and one inhibitory with a
    # shorter delay: all four presynaptic spikes at the same stamp must
    # produce no fire, cancelling the forecast created before the
    # inhibitory arrival is processed.
    syn = {1: Synapse(0.4, 5), 2: Synapse(0.4, 5), 3: Synapse(0.4, 5),
           4: Synapse(-2.0, 2)}
    cell = make_cell(syn)
    for src in (1, 2, 3):
        result = cell.integrate(1, [src])
    assert [e.stamp for e in result.new_forecasts] == [6]
    forecast = result.new_forecasts[0]
    result = cell.integrate(1, [4])
    assert result.cancellations == [forecast]
    assert cell.queued == {}  # 6 lay above horizon + 1 = 2


def test_certification_bound_is_stamp_plus_d_min():
    syn = {1: Synapse(2.0, 2), 2: Synapse(-1.0, 6)}
    cell = make_cell(syn)
    result = cell.integrate(10, [1])  # fires at 12
    assert [e.stamp for e in result.new_forecasts] == [12]
    # d_min = 2, horizon = 10 + 2 - 1: the forecast at 12 is certain at once.
    assert cell.horizon + 1 == 12
    assert cell.on_emitted(12) is True


def test_forecast_beyond_bound_not_certified():
    syn = {1: Synapse(0.3, 2), 2: Synapse(1.0, 8)}
    cell = make_cell(syn)
    result = cell.integrate(10, [2])  # fires at 18 > 10 + 2
    assert [e.stamp for e in result.new_forecasts] == [18]
    assert cell.on_emitted(18) is False  # not certain, and kept above the horizon
    assert cell.queued[18].emitted
    cell.integrate(20, [1])  # the fold that makes the fire final drops it
    assert cell.horizon == 21 and 18 not in cell.queued


def test_stale_arrival_rejected():
    syn = {1: Synapse(0.5, 1), 2: Synapse(0.5, 1)}
    cell = make_cell(syn)
    cell.integrate(10, [1])  # horizon -> 10
    with pytest.raises(ProtocolViolation):
        cell.integrate(8, [2])


def test_duplicate_event_from_same_source_rejected():
    syn = {1: Synapse(0.1, 5)}
    cell = make_cell(syn)
    cell.integrate(10, [1])
    with pytest.raises(ProtocolViolation):
        cell.integrate(10, [1])
    with pytest.raises(ProtocolViolation, match="duplicate"):
        make_cell(syn).integrate(10, [1, 1])


def test_source_without_synapse_rejected():
    cell = make_cell({1: Synapse(0.5, 2)})
    with pytest.raises(TopologyError, match="no synapse from source 3"):
        cell.integrate(10, [1, 3])


@pytest.mark.parametrize("stamp, sources, error", [
    (12, [1, 99], "no synapse from source 99"),
    (12, [1, 1], "duplicate event at 12 in sources \\[1, 1\\]"),
    (11, [1, 2], "duplicate or reordered event from 2 \\(stamp 11 after 12\\)"),
    (11, [1, 3], "stale arrival at 12, horizon 12"),
], ids=["synapse", "duplicate", "reordered", "stale"])
def test_a_refused_call_leaves_the_cell_unchanged(stamp, sources, error):
    # Every arrival passes its checks before any is filed: an earlier good
    # arrival of the call must not stay behind in the cell.
    cell = make_cell({1: Synapse(0.5, 2), 2: Synapse(0.5, 1), 3: Synapse(0.5, 1)})
    cell.integrate(12, [2])  # horizon 12; a pending group at 13
    state = (list(cell.times), [list(g) for g in cell.groups], list(cell.after),
             dict(cell.queued), dict(cell._last_stamp_per_source), cell.horizon,
             cell.v, cell.v_time)
    with pytest.raises((ProtocolViolation, TopologyError), match=error):
        cell.integrate(stamp, sources)
    assert state == (cell.times, cell.groups, cell.after, cell.queued,
                     cell._last_stamp_per_source, cell.horizon, cell.v, cell.v_time)


def test_emitted_spike_invalidated_is_fatal():
    syn = {1: Synapse(2.0, 4), 2: Synapse(-5.0, 2)}
    cell = make_cell(syn)
    result = cell.integrate(10, [1])  # fires at 14
    cell.on_emitted(result.new_forecasts[0].stamp)
    with pytest.raises(ProtocolViolation):
        cell.integrate(11, [2])  # inhibition lands at 13 < 14


def test_certain_forecast_invalidated_is_fatal():
    # No arrival can revoke a fire at or below horizon + 1, so a replay that
    # does means a corrupt cell. Hand-built: the folded potential is pushed
    # far down under a forecast at 14 while the horizon stands at 13.
    syn = {1: Synapse(2.0, 4), 2: Synapse(0.1, 2)}
    cell = make_cell(syn)
    forecast = cell.integrate(10, [1]).new_forecasts[0]  # fires at 14
    cell.v, cell.v_time, cell.horizon = -10.0, 13, 13
    with pytest.raises(ProtocolViolation, match="certain forecast at 14 invalidated"):
        cell.integrate(12, [2])  # lands at 14 = horizon + 1; no fire on replay
    assert cell.queued == {14: forecast} and not forecast.emitted
    # The same replay above horizon + 1 is an ordinary cancellation.
    cell = make_cell(syn)
    forecast = cell.integrate(10, [1]).new_forecasts[0]
    cell.v, cell.v_time = -10.0, 11
    assert cell.integrate(11, [2]).cancellations == [forecast]  # 13 < 14


def test_forecasts_beyond_simulation_horizon_discarded():
    syn = {1: Synapse(2.0, 4)}
    cell = make_cell(syn, horizon=12)
    result = cell.integrate(10, [1])  # would fire at 14 > 12
    assert result.new_forecasts == []


# -- re-simulation equivalence ------------------------------------------------------

def emit_certain(cell):
    """Emit every unemitted forecast the cell holds at or below horizon + 1,
    the earliest a forecast is sure to stand."""
    for stamp in sorted(s for s, e in cell.queued.items()
                        if not e.emitted and s <= cell.horizon + 1):
        assert cell.on_emitted(stamp) is True


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 30)),
                min_size=1, max_size=12, unique_by=lambda sw: sw))
def test_incremental_equals_batch_simulation(arrivals):
    """Integrating arrivals one by one must end with exactly the spikes a
    single batch replay of all arrivals produces, whether or not every
    forecast is emitted as soon as it is certain."""
    syn = {0: Synapse(0.7, 2), 1: Synapse(0.8, 4), 2: Synapse(-0.9, 3),
           3: Synapse(0.5, 5)}
    params = lif(tau=8.0)
    horizon = 60

    # Feed in global stamp order, keeping only the first event per
    # (source, stamp) and strictly increasing stamps per source, as the
    # protocol guarantees.
    ordered = []
    last = {}
    for src, stamp in sorted(set(arrivals), key=lambda sw: (sw[1], sw[0])):
        if last.get(src, 0) >= stamp:
            continue
        last[src] = stamp
        ordered.append((src, stamp))

    def incremental(emit):
        cell = ECState(5, params, syn, sim_horizon=horizon)
        fired = {}
        for src, stamp in ordered:
            result = cell.integrate(stamp, [src])
            for e in result.new_forecasts:
                assert e.stamp not in fired  # never forecast a stamp twice
                fired[e.stamp] = e
            for e in result.cancellations:
                fired.pop(e.stamp, None)
            if emit:
                emit_certain(cell)
        return sorted(fired)

    # Batch replay of the same arrivals grouped by effective time.
    groups = {}
    for src, stamp in ordered:
        groups.setdefault(stamp + syn[src].delay, []).append(
            (src, stamp, syn[src].weight))
    v, t_prev = params.reset, 0
    batch = []
    for t in sorted(groups):
        v, went = membrane_step(v, t_prev, t, sorted(groups[t]), params)
        t_prev = t
        if went and t <= horizon:
            batch.append(t)
    assert incremental(emit=False) == batch
    assert incremental(emit=True) == batch


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 30)),
                min_size=1, max_size=16),
       st.booleans(), st.booleans())
def test_replay_cache_equals_replay_from_scratch(arrivals, in_stamp_order, emit):
    """After every integration the cell's live forecasts above the horizon
    are the fires of a replay of every arrival so far from the reset
    potential, and its folded state is that replay's state at the horizon,
    bit for bit. Arrivals that break the protocol's order are skipped."""
    syn = {0: Synapse(0.7, 2), 1: Synapse(0.8, 4), 2: Synapse(-0.9, 3),
           3: Synapse(0.5, 5)}
    params = lif(tau=8.0)
    horizon = 40
    cell = ECState(5, params, {**syn, EXT_NEURON: STIMULUS}, sim_horizon=horizon)
    if in_stamp_order:
        arrivals = sorted(arrivals, key=lambda sw: sw[1])
    groups, last = {}, {}
    for src, stamp in arrivals:
        source = EXT_NEURON if src == 0 and stamp % 2 else src
        delay, weight = ((STIMULUS.delay, STIMULUS.weight) if source == EXT_NEURON
                         else (syn[src].delay, syn[src].weight))
        if stamp <= last.get(source, -1) or stamp + delay <= cell.horizon:
            continue
        last[source] = stamp
        cell.integrate(stamp, [source])
        groups.setdefault(stamp + delay, []).append((source, stamp, weight))
        if emit:
            emit_certain(cell)

        v, t_prev, fires = params.reset, 0, []
        folded = (v, t_prev)
        for t in sorted(groups):
            v, fired = membrane_step(v, t_prev, t, sorted(groups[t]), params)
            t_prev = t
            if fired:
                fires.append(t)
            if t <= cell.horizon:
                folded = (v, t_prev)
        live = sorted(s for s in cell.queued if s > cell.horizon)
        assert live == [t for t in fires if cell.horizon < t <= horizon]
        assert (cell.v.hex(), cell.v_time) == (folded[0].hex(), folded[1])


def _cell_state(cell):
    return (cell.v.hex(), cell.v_time, cell.horizon, cell.times, cell.groups,
            [v.hex() for v in cell.after],
            sorted((s, e.emitted) for s, e in cell.queued.items()))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.sets(st.integers(0, 4), min_size=1)),
                min_size=1, max_size=10),
       st.booleans())
def test_one_computation_equals_one_call_per_arrival(batches, emit):
    """Integrating one stamp's arrivals in one call leaves the cell exactly as
    integrating them one call at a time does, and both match a replay of
    every arrival so far from the reset potential. Stamps never decrease, and
    each source's stamps rise, as the protocol guarantees."""
    syn = {0: Synapse(0.7, 2), 1: Synapse(0.8, 4), 2: Synapse(-0.9, 3),
           3: Synapse(0.5, 5)}
    params = lif(tau=8.0)
    horizon = 40
    whole, split = (ECState(5, params, {**syn, EXT_NEURON: STIMULUS}, sim_horizon=horizon)
                    for _ in range(2))

    def settle(cell):
        if emit:
            emit_certain(cell)

    groups, last = {}, {}
    for stamp, sources in sorted(batches, key=lambda b: b[0]):
        arriving = []
        for src in sorted(sources):
            source = EXT_NEURON if src == 4 else src
            if stamp > last.get(source, -1):
                last[source] = stamp
                arriving.append(source)
                delay, weight = ((STIMULUS.delay, STIMULUS.weight) if source == EXT_NEURON
                                 else (syn[src].delay, syn[src].weight))
                groups.setdefault(stamp + delay, []).append((source, stamp, weight))
        if not arriving:
            continue
        whole.integrate(stamp, arriving)
        settle(whole)
        for source in arriving:
            split.integrate(stamp, [source])
            settle(split)
        assert _cell_state(whole) == _cell_state(split)

        v, t_prev, fires = params.reset, 0, []
        folded = (v, t_prev)
        for t in sorted(groups):
            v, fired = membrane_step(v, t_prev, t, sorted(groups[t]), params)
            t_prev = t
            if fired:
                fires.append(t)
            if t <= whole.horizon:
                folded = (v, t_prev)
        live = sorted(s for s in whole.queued if s > whole.horizon)
        assert live == [t for t in fires if whole.horizon < t <= horizon]
        assert (whole.v.hex(), whole.v_time) == (folded[0].hex(), folded[1])
        assert whole.times == [t for t in sorted(groups) if t > whole.horizon]
