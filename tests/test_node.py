"""Hand-built processor states driving every authorization branch."""

import pytest

from spikesim.events import (CMEvent, CPEvent, EXT_NEURON, ProtocolViolation,
                             Spike, TopologyError)
from spikesim.neuron import ECState, NeuronParams, Synapse
from spikesim.node import AuthDecision, NodeState
from spikesim.transport import Broadcast, Spikes


def make_node(node_id=1, procs=2, neurons=(7,), outputs=(), fanout=None, owners=None):
    """Each cell is an input that remote neuron 99 reaches; ``fanout`` and
    ``owners`` default to just that."""
    ecs = {}
    for nid in neurons:
        synapses = {99: Synapse(2.0, 2), EXT_NEURON: Synapse(2.0, 1)}  # an input
        ecs[nid] = ECState(nid, NeuronParams(threshold=1.0, tau=10.0), synapses,
                           sim_horizon=1000)
    return NodeState(node_id, procs, ecs, fanout=fanout or {99: list(neurons)},
                     owners=owners or {}, outputs=set(outputs))


def test_node_ids_start_at_1():
    with pytest.raises(ValueError, match="compute processor ids start at 1"):
        make_node(node_id=0)


def queue_forecast(node, stamp, source=7, certain=False):
    """File a forecast in its cell's table and queue its key; a certain one
    lies at its cell's horizon + 1."""
    cell = node.ecs[source]
    e = cell.queued[stamp] = CPEvent(source=source, stamp=stamp)
    if certain:
        cell.horizon = stamp - 1
    node.queue_forecast(e)
    return e


def queue_incoming(node, stamp, target=7, source=99):
    node.cm_queue.file(source, stamp, [target])
    return CMEvent(target=target, source=source, stamp=stamp)


# -- emission authorization ------------------------------------------------------
#
# One rule: a forecast goes out at the node's emission time, behind a started
# computation (st <= pt with an arrival pending), or once the stamp order is
# safe. Whether the forecast is certain does not enter it.


def decides(node, e):
    """The gate's decision, a plain bool."""
    decision = node.emission_authorized(e)
    assert type(decision) is bool
    return decision


def test_emission_authorized_when_stamp_equals_emission_time():
    node = make_node()
    e = queue_forecast(node, 5)
    node.clock[node.id] = 5
    assert decides(node, e) is True


def test_emission_authorized_when_certified():
    node = make_node()
    e = queue_forecast(node, 9, certain=True)
    queue_incoming(node, 8)  # can forecast 9 at the earliest
    node.pt = 8
    node.clock = [9, 3, 9]
    assert decides(node, e) is True


def test_certified_emission_delayed_out_of_order():
    # A certain forecast is final, but a running computation may still
    # forecast a smaller stamp.
    node = make_node()
    e = queue_forecast(node, 9, certain=True)
    node.pt, node.running = 2, {7}
    node.clock = [9, 3, 9]
    assert decides(node, e) is False


def test_emission_authorized_behind_processing_time():
    node = make_node()
    e = queue_forecast(node, 6)
    queue_incoming(node, 8)
    node.clock[node.id] = 4
    node.pt = 8  # a computation for stamp 8 has already started
    assert decides(node, e) is True


def test_emission_authorized_in_quiescence():
    node = make_node(node_id=1, procs=2)
    e = queue_forecast(node, 7)
    node.pt = 6           # incoming queue empty
    node.clock = [9, 4, 7]  # the remote clock reached 7
    assert decides(node, e) is True


def test_emission_delayed_when_remote_empty_below_stamp():
    # An empty remote queue at 3 is no promise: an arrival can refill it
    # and make that processor send at 3 or later, below the stamp.
    node = make_node(node_id=1, procs=2)
    e = queue_forecast(node, 7)
    node.pt = 6
    node.clock = [9, 4, 3]
    assert decides(node, e) is False


def test_emission_quiescent_branch_accepts_remote_ahead():
    node = make_node(node_id=1, procs=2)
    e = queue_forecast(node, 7)
    node.pt = 6
    node.clock = [9, 4, 8]  # remote already emitted past 7
    assert decides(node, e) is True


def test_emission_delayed_when_threads_active():
    node = make_node()
    e = queue_forecast(node, 7)
    node.pt, node.running = 6, {7}
    node.clock = [9, 4, 7]
    assert decides(node, e) is False


def test_emission_delayed_when_incoming_pending():
    node = make_node()
    e = queue_forecast(node, 7)
    queue_incoming(node, 3)  # may still forecast below the stamp
    node.pt = 3
    node.clock = [9, 4, 7]
    assert decides(node, e) is False


@pytest.mark.parametrize("at_et, behind, order_safe", [
    (True, False, False), (False, True, False), (False, False, True),
    (False, False, False)])
def test_each_disjunct_alone_decides(at_et, behind, order_safe):
    # A forecast at 7; one condition of the rule holds at a time, or none.
    node = make_node(node_id=1, procs=2)
    e = queue_forecast(node, 7)
    node.clock = [9, 7 if at_et else 4, 7 if order_safe else 5]
    if behind:
        queue_incoming(node, 8)  # a computation at 8 has started
        node.pt, node.running = 8, {7}
    else:
        node.pt = 6
    assert (e.stamp == node.clock[node.id]) is at_et
    assert (e.stamp <= node.pt and bool(node.cm_queue)) is behind
    assert node.emission_order_safe(e.stamp) is order_safe
    assert decides(node, e) is (at_et or behind or order_safe)


def test_uncertified_order_safe_forecast_goes_out_past_a_pending_spike():
    # The spike pending at 8 can forecast 9 at the earliest, so 9 is in stamp
    # order though it lies above its cell's horizon + 1: it goes out before
    # it is certain, and is not counted as certain.
    node = make_node(node_id=1, procs=2)
    e = queue_forecast(node, 9)
    queue_incoming(node, 8)
    node.pt = 5
    node.clock = [9, 3, 9]
    assert node.emission_authorized(e) is True
    assert node.cmc_step() == (True, [])
    assert node.trace == [(7, 9)] and e.emitted
    assert node.stats.certifications == 0


def test_emission_waits_for_the_environment_clock():
    node = make_node(node_id=1, procs=2)
    e = queue_forecast(node, 5)
    node.clock = [4, 0, 9]  # environment time behind the stamp
    assert decides(node, e) is False
    node.clock = [5, 0, 9]
    assert decides(node, e) is True


# -- computation authorization branches -----------------------------------------


def test_computation_deferred_while_cell_active():
    node = make_node()
    e = queue_incoming(node, 5)
    node.running = {7}
    assert node.computation_authorized(e) is AuthDecision.PRIORITY_DEFERRED


def test_deferred_arrival_is_computed_first_once_its_cell_is_idle():
    # Why no cell stores a priority flag: a deferred arrival stays at the
    # head of the calendar, so its cell computes next once it leaves running.
    node = make_node(neurons=(7, 8))
    e = queue_incoming(node, 5, target=7)
    queue_incoming(node, 6, target=8)
    node.pt, node.running = 5, {7}
    node.clock = [9, 9, 9]
    assert node.cpc_step() is False
    assert node.stats.delayed_computations == 1
    assert node.cm_queue.peek() == e
    started, start = [], node.start_computation

    def spy(target, stamp):
        started.append((target, stamp))
        return start(target, stamp)

    node.start_computation = spy
    node.running.clear()
    assert node.cpc_step() is True
    assert started == [(7, 5), (8, 6)]


def test_a_cell_is_running_from_start_to_collect():
    node = make_node(neurons=(7, 8))
    node.clock[0] = 3
    ec = node.start_computation(7, 3)
    assert node.running == {7} and node.pt == 3
    node.collect_result(ec, ec.integrate(3, [99]))
    assert node.running == set()
    with pytest.raises(ProtocolViolation, match="collect_result for an idle cell"):
        node.collect_result(ec, ec.integrate(4, [99]))


def test_computation_authorized_at_processing_time():
    node = make_node(neurons=(7, 8))
    e = queue_incoming(node, 5)
    node.pt = 5
    node.running = {8}  # another cell's computation at stamp 5
    assert node.computation_authorized(e) is AuthDecision.AUTHORIZED


def test_computation_authorized_when_all_clocks_ahead_or_empty():
    node = make_node(node_id=1, procs=2)
    e = queue_incoming(node, 5)
    node.pt = 3
    node.clock = [6, 4, 9]  # others ahead; own entry is not read
    assert node.computation_authorized(e) is AuthDecision.AUTHORIZED


def test_computation_blocked_by_own_pending_emission():
    # Own forecast pending and behind the stamp: not authorized by the
    # global condition, and not a local deadlock either (et >= st fails).
    node = make_node(node_id=1, procs=2)
    e = queue_incoming(node, 5)
    queue_forecast(node, 4)
    node.pt = 3
    node.clock = [6, 4, 9]
    assert node.computation_authorized(e) is AuthDecision.DELAYED


def test_computation_authorized_on_local_deadlock():
    # The paper's deadlock rule: every other processor's clock has reached
    # the stamp, our own emission time is below it, and our own pending
    # forecast is not earlier than the stamp.
    node = make_node(node_id=1, procs=2)
    e = queue_incoming(node, 5)
    queue_forecast(node, 6)
    node.pt = 3
    node.clock = [6, 3, 5]
    assert node.others_reached(5)
    assert node.computation_authorized(e) is AuthDecision.AUTHORIZED


def test_computation_deadlock_delayed_when_remote_empty_below_stamp():
    node = make_node(node_id=1, procs=2)
    e = queue_incoming(node, 5)
    queue_forecast(node, 6)
    node.pt = 3
    node.clock = [6, 3, 2]  # idle at 2 may still send at 2
    assert not node.others_reached(5)
    assert node.computation_authorized(e) is AuthDecision.DELAYED


def test_computation_deadlock_blocked_by_earlier_forecast():
    node = make_node(node_id=1, procs=2)
    e = queue_incoming(node, 5)
    queue_forecast(node, 4)  # must be emitted first
    node.pt = 3
    node.clock = [6, 3, 5]
    assert node.computation_authorized(e) is AuthDecision.DELAYED


def test_computation_deadlock_with_empty_forecast_queue():
    node = make_node(node_id=1, procs=2)
    e = queue_incoming(node, 5)
    node.pt = 3
    node.clock = [6, 3, 5]
    assert node.computation_authorized(e) is AuthDecision.AUTHORIZED


def test_computation_delayed_with_empty_forecast_queue_and_remote_below():
    node = make_node(node_id=1, procs=2)
    e = queue_incoming(node, 5)
    node.pt = 3
    node.clock = [6, 3, 2]
    assert node.computation_authorized(e) is AuthDecision.DELAYED


def test_remote_entry_below_stamp_is_no_promise():
    # Seed 7 (n=64, P=4): node 2 computed stamp 56 while clock[3] read 55
    # with node 3's queue empty, and node 3 then emitted at 55 towards
    # neuron 9.
    clock = [57, 60, 0, 55, 56]
    node = make_node(node_id=2, procs=4)
    e = queue_incoming(node, 56)
    node.pt = 50
    node.clock = list(clock)
    assert node.computation_authorized(e) is AuthDecision.DELAYED

    node = make_node(node_id=2, procs=4)
    f = queue_forecast(node, 56)
    node.pt = 50
    node.clock = list(clock)
    node.clock[2] = 50  # node 2's own entry: its emission time
    assert decides(node, f) is False
    node.clock[3] = 56  # once node 3's clock reaches 56, 56 may go
    assert decides(node, f) is True


def test_computation_delayed_when_remote_behind():
    node = make_node(node_id=1, procs=2)
    e = queue_incoming(node, 5)
    node.pt = 3
    node.clock = [6, 4, 2]  # remote behind the stamp
    assert node.computation_authorized(e) is AuthDecision.DELAYED


def test_computation_delayed_while_threads_running():
    node = make_node(node_id=1, procs=2, neurons=(7, 8, 9))
    e = queue_incoming(node, 5)
    node.pt, node.running = 3, {8, 9}
    node.clock = [6, 4, 9]
    assert node.computation_authorized(e) is AuthDecision.DELAYED


# -- each transition checks its own order ----------------------------------------


@pytest.mark.parametrize("transition, message", [
    (lambda node: node.receive(Broadcast(4, 3, [])), "broadcast of T 4, raise 3, after T 4"),
    (lambda node: node.receive(Broadcast(6, 3, [])), "broadcast of T 6, raise 3, after T 4"),
    (lambda node: node.receive(Broadcast(5, 5, [])), "broadcast of T 5, raise 5, after T 4"),
    (lambda node: node.apply_emission(queue_forecast(node, 2)), "emission at 2 after 3, T 4"),
    (lambda node: node.apply_emission(queue_forecast(node, 5)), "emission at 5 after 3, T 4"),
    (lambda node: node.start_computation(7, 1), "computation at 1 after 2, T 4"),
    (lambda node: node.start_computation(7, 5), "computation at 5 after 2, T 4"),
], ids=["T-repeated", "T-skipped", "raise-at-T", "emission-falls", "emission-past-T",
        "computation-falls", "computation-past-T"])
def test_each_transition_rejects_an_out_of_order_input(transition, message):
    # T 4, emission time 3, processing time 2. A broadcast must bring T + 1
    # with a raise below it; an emission and a computation start at or above
    # the node's last and at or below its T.
    node = make_node(node_id=1, procs=2)
    node.clock, node.pt = [4, 3, 4], 2
    with pytest.raises(ProtocolViolation, match=message):
        transition(node)


# -- clocks and message handling -------------------------------------------------


def test_receive_raises_the_sender_entry_and_a_broadcast_the_others():
    # A node's message carries its emission time alone; a broadcast carries
    # T and the raise, which lifts every entry but our own. None falls.
    node = make_node(node_id=1, procs=3)
    node.clock = [5, 2, 3, 2]
    node.receive(Spikes(sender=3, stamp=6, events=[Spike(99, 6)]))
    assert node.clock == [5, 2, 3, 6]
    node.receive(Broadcast(T=6, raised=4, events=[]))
    assert node.clock == [6, 2, 4, 6]  # entry 1 (self) untouched, 6 > 4
    node.receive(Spikes(sender=2, stamp=3, events=[Spike(99, 3)]))
    assert node.clock == [6, 2, 4, 6]  # the raise already passed 3


def test_receive_queues_events_and_leaves_pt_alone():
    node = make_node()
    node.pt = node.clock[0] = 4
    node.receive(Broadcast(T=5, raised=0, events=[]))
    assert node.pt == 4 and not node.cm_queue  # clock-only message
    node.receive(Broadcast(T=6, raised=0, events=[Spike(7, 5)]))
    assert node.pt == 4  # moves only when a computation starts
    assert node.cm_queue.peek() == CMEvent(7, EXT_NEURON, 5)  # a stimulus of input 7


def test_cp_top_skips_cancelled_tombstones():
    node = make_node()
    queue_forecast(node, 3)
    live = queue_forecast(node, 4)
    del node.ecs[7].queued[3]  # a cancelled forecast leaves its cell's table
    assert node.cp_top() is live
    assert node.cp_queue == [(4, 7)]  # its key dropped on sight


def test_reforecast_at_a_cancelled_stamp_is_emitted_once():
    # A cell that cancels a forecast and forecasts again at the same stamp
    # leaves two equal keys; the second reads emitted and is dropped.
    node = make_node(node_id=1, procs=2)
    dead = queue_forecast(node, 5)
    del node.ecs[7].queued[5]  # cancelled
    live = queue_forecast(node, 5)
    assert node.cp_queue == [(5, 7), (5, 7)]
    assert node.cp_top() is live
    node.clock = [5, 0, 5]  # every other processor has reached 5
    assert node.cmc_step() == (True, [])
    assert node.cmc_step() == (False, [])
    assert node.trace == [(7, 5)] and node.stats.emitted == 1
    assert live.emitted and not dead.emitted
    assert node.cp_top() is None and node.cp_queue == []


def test_queue_forecast_rejects_non_positive_stamps():
    node = make_node()
    for source, stamp in ((7, 0), (7, -3), (EXT_NEURON, 0)):  # a forecast is never a stimulus
        with pytest.raises(ProtocolViolation, match="non-positive event stamp"):
            node.queue_forecast(CPEvent(source=source, stamp=stamp))
    assert node.cp_queue == []


def test_apply_emission_routes_local_remote_and_output():
    node = make_node(node_id=1, procs=2, neurons=(7, 8), outputs=(7,),
                     fanout={7: [8]}, owners={7: {2}})
    e = queue_forecast(node, 5, source=7)
    node.pt, node.clock[0] = 3, 6
    assert node.apply_emission(e) is None
    assert e.emitted and node.clock[1] == 5
    assert node.trace == [(7, 5)]
    # local target lands in our own incoming queue
    assert node.cm_queue.peek().target == 8
    assert node.pt == 3
    # the spike staged once for processor 2, once for Pr_0 as an output
    assert node.outboxes == {2: [Spike(7, 5)], 0: [Spike(7, 5)]}
    # an emission without local targets files no empty stamp
    assert node.cm_queue.pop_stamp() == (5, {8: [7]})  # the source id alone
    node.apply_emission(queue_forecast(node, 6, source=8))
    assert not node.cm_queue and node.cm_queue.peek() is None


def test_arrival_for_a_neuron_the_node_does_not_own_rejected():
    # A misrouted stimulus is rejected where it arrives, alone or next to
    # one for an owned cell, so no later step looks for its cell.
    for events in ([Spike(3, 0)], [Spike(7, 0), Spike(9, 0)]):
        with pytest.raises(TopologyError, match=f"no cell for neuron {events[-1].neuron}"):
            make_node(neurons=(7,)).receive(Broadcast(T=1, raised=0, events=events))


def test_apply_emission_requires_queue_top():
    node = make_node()
    queue_forecast(node, 3)
    other = CPEvent(source=7, stamp=9)
    with pytest.raises(ProtocolViolation):
        node.apply_emission(other)


def test_emission_sets_et_to_its_stamp():
    node = make_node(node_id=1, procs=1)
    e = queue_forecast(node, 5)
    node.clock[0] = 5
    assert node.clock[1] == 0  # the own entry moves only on emission
    node.apply_emission(e)
    assert node.clock[1] == 5 and node.cp_top() is None


def test_stats_count_transitions():
    node = make_node(node_id=1, procs=1)
    queue_incoming(node, 2, source=EXT_NEURON)
    node.pt = 2
    node.clock[0] = 3  # environment time must cover the computation and the forecast
    assert node.cpc_step()
    _progress, _msgs = node.cmc_step()
    assert node.stats.computed == 1
    assert node.stats.emitted == 1
    assert node.stats.certifications == 1  # at emission: 3 <= the cell's horizon 2, + 1
    assert node.trace == [(7, 3)]


def test_a_received_spike_is_filed_for_every_local_target():
    node = make_node(neurons=(7, 8), fanout={99: [7, 8]})
    node.receive(Spikes(sender=2, stamp=4, events=[Spike(99, 4)]))
    assert node.received == [0, 0, 1]
    assert node.cm_queue.pop_stamp() == (4, {7: [99], 8: [99]})


def test_a_received_spike_without_a_local_target_or_stamped_0_rejected():
    # The stimulus source is in no fanout either, so a node cannot send the
    # stamp-0 spike that only a stimulus may carry.
    for source in (98, EXT_NEURON):
        with pytest.raises(TopologyError, match=f"no local target of neuron {source}"):
            make_node().receive(Spikes(sender=2, stamp=4, events=[Spike(source, 0)]))
    for stamp in (0, -2):
        node = make_node()
        with pytest.raises(ProtocolViolation, match=f"non-positive event stamp {stamp}"):
            node.receive(Spikes(sender=2, stamp=4, events=[Spike(99, stamp)]))
        assert not node.cm_queue
