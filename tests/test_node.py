"""Hand-built processor states driving every authorization branch."""

import pytest

from spikesim.events import CMEvent, CPEvent, EXT_NEURON, ProtocolViolation
from spikesim.neuron import ECState, NeuronParams, Synapse
from spikesim.node import AuthDecision, NodeState
from spikesim.transport import Message


def make_node(node_id=1, procs=2, neurons=(7,), outputs=(), post=None):
    ecs = {}
    for nid in neurons:
        params = NeuronParams(threshold=1.0, tau=10.0,
                              synapses={99: Synapse(2.0, 2)}, is_input=True)
        ecs[nid] = ECState(nid, params, sim_horizon=1000)
    tables = {nid: list(post.get(nid, [])) if post else [] for nid in neurons}
    return NodeState(node_id, procs, ecs, post_tables=tables,
                     outputs=set(outputs))


def queue_forecast(node, stamp, source=7, crt=False):
    e = CPEvent(source=source, stamp=stamp, crt=crt)
    node.cp_queue.push(e)
    node.cp_live += 1
    node._set_et()
    return e


def queue_incoming(node, stamp, target=7, source=99):
    e = CMEvent(target=target, source=source, stamp=stamp)
    node.cm_queue.push(e)
    node._set_pt()
    return e


# -- emission authorization branches -------------------------------------------


def test_emission_authorized_when_stamp_equals_emission_time():
    node = make_node()
    e = queue_forecast(node, 5)
    node.et = 5
    assert node.emission_authorized(e) is AuthDecision.AUTHORIZED
    assert node._emission_eval(e)[1] == "at_emission_time"


def test_emission_authorized_when_certified():
    node = make_node()
    e = queue_forecast(node, 9, crt=True)
    node.et = 3
    node.pt = -2
    node.nbth = 1  # nothing else would authorize it
    assert node._emission_eval(e) == (AuthDecision.AUTHORIZED, "certified")


def test_emission_authorized_behind_processing_time():
    node = make_node()
    e = queue_forecast(node, 6)
    node.et = 4
    node.pt = 8  # a computation for stamp 8 has already started
    assert node._emission_eval(e) == (AuthDecision.AUTHORIZED,
                                      "behind_processing")


def test_emission_authorized_in_quiescence():
    node = make_node(node_id=1, procs=2)
    e = queue_forecast(node, 7)
    node.et = 4
    node.pt = -6          # incoming queue empty
    node.nbth = 0
    node.clock = [9, node.et, -3]  # remote entry negative: empty at 3
    assert node._emission_eval(e) == (AuthDecision.AUTHORIZED, "quiescent")


def test_emission_quiescent_branch_accepts_remote_ahead():
    node = make_node(node_id=1, procs=2)
    e = queue_forecast(node, 7)
    node.et, node.pt, node.nbth = 4, -6, 0
    node.clock = [9, node.et, 8]  # remote already emitted past 7
    assert node._emission_eval(e) == (AuthDecision.AUTHORIZED, "quiescent")


def test_emission_delayed_when_remote_lags_positive():
    node = make_node(node_id=1, procs=2)
    e = queue_forecast(node, 7)
    node.et, node.pt, node.nbth = 4, -6, 0
    node.clock = [9, node.et, 5]  # remote holds un-emitted work at 5 < 7
    assert node._emission_eval(e) == (AuthDecision.DELAYED, "delayed")


def test_emission_delayed_when_threads_active():
    node = make_node()
    e = queue_forecast(node, 7)
    node.et, node.pt, node.nbth = 4, -6, 1
    node.clock = [9, node.et, -3]
    assert node.emission_authorized(e) is AuthDecision.DELAYED


def test_emission_delayed_when_incoming_pending():
    node = make_node()
    e = queue_forecast(node, 7)
    node.et, node.nbth = 4, 0
    node.pt = 3  # positive: incoming spikes still queued below the stamp
    node.clock = [9, node.et, -3]
    assert node.emission_authorized(e) is AuthDecision.DELAYED


# -- computation authorization branches -----------------------------------------


def test_computation_deferred_while_cell_active():
    node = make_node()
    e = queue_incoming(node, 5)
    node.ecs[7].active = True
    assert node.computation_authorized(e) is AuthDecision.PRIORITY_DEFERRED
    assert node.ecs[7].priority


def test_computation_authorized_at_processing_time():
    node = make_node()
    e = queue_incoming(node, 5)
    node.pt = 5
    node.nbth = 1
    assert node.computation_authorized(e) is AuthDecision.AUTHORIZED


def test_computation_authorized_when_all_clocks_ahead_or_empty():
    node = make_node(node_id=1, procs=2)
    e = queue_incoming(node, 5)
    node.pt, node.nbth = 3, 0
    node.clock = [6, -4, 9]  # own entry negative counts as empty
    assert node.computation_authorized(e) is AuthDecision.AUTHORIZED


def test_computation_blocked_by_own_pending_emission():
    # Own clock entry positive and behind the stamp: not authorized by the
    # global condition, and not a local deadlock either (et >= st fails).
    node = make_node(node_id=1, procs=2)
    e = queue_incoming(node, 5)
    queue_forecast(node, 4)
    node.et = 4
    node.pt, node.nbth = 3, 0
    node.clock = [6, node.et, 9]
    assert node.computation_authorized(e) is AuthDecision.DELAYED


def test_computation_authorized_on_local_deadlock():
    # The paper's deadlock rule: every other processor waits at or beyond
    # the stamp (or is empty), our own emission time is below it, and our
    # own pending forecast is not earlier than the stamp.
    node = make_node(node_id=1, procs=2)
    e = queue_incoming(node, 5)
    queue_forecast(node, 6)
    node.et = 3
    node.pt, node.nbth = 3, 0
    node.clock = [6, node.et, -2]
    assert node.local_deadlock(5)
    assert node.computation_authorized(e) is AuthDecision.AUTHORIZED


def test_computation_deadlock_blocked_by_earlier_forecast():
    node = make_node(node_id=1, procs=2)
    e = queue_incoming(node, 5)
    queue_forecast(node, 4)  # must be emitted first
    node.et = 3
    node.pt, node.nbth = 3, 0
    node.clock = [6, node.et, -2]
    assert node.computation_authorized(e) is AuthDecision.DELAYED


def test_computation_deadlock_with_empty_forecast_queue():
    node = make_node(node_id=1, procs=2)
    e = queue_incoming(node, 5)
    node.et = -3
    node.pt, node.nbth = 3, 0
    node.clock = [6, node.et, -2]
    assert node.computation_authorized(e) is AuthDecision.AUTHORIZED


def test_computation_delayed_when_remote_behind():
    node = make_node(node_id=1, procs=2)
    e = queue_incoming(node, 5)
    node.pt, node.nbth = 3, 0
    node.clock = [6, -4, 2]  # remote positive and behind the stamp
    assert node.computation_authorized(e) is AuthDecision.DELAYED


def test_computation_delayed_while_threads_running():
    node = make_node(node_id=1, procs=2)
    e = queue_incoming(node, 5)
    node.pt, node.nbth = 3, 2
    node.clock = [6, -4, 9]
    assert node.computation_authorized(e) is AuthDecision.DELAYED


# -- clocks and message handling -------------------------------------------------


def test_merge_clock_keeps_larger_magnitudes_and_skips_self():
    node = make_node(node_id=1, procs=3)
    node.clock = [5, 4, -3, 2]
    node.merge_clock([7, 99, 2, -6])
    assert node.clock == [7, 4, -3, -6]  # entry 1 (self) untouched, |2| < 3


def test_receive_flips_pt_only_when_events_arrive():
    node = make_node()
    node.pt = -4
    node.receive(Message(sender=0, clock=[5, 0, 0], events=[]))
    assert node.pt == -4  # clock-only message: queue still empty
    node.receive(Message(sender=0, clock=[5, 0, 0],
                         events=[CMEvent(7, EXT_NEURON, 5)]))
    assert node.pt == 4


def test_cp_top_skips_cancelled_tombstones():
    node = make_node()
    dead = queue_forecast(node, 3)
    live = queue_forecast(node, 4)
    dead.cancel()
    node.cp_live -= 1
    assert node.cp_top() is live
    assert len(node.cp_queue) == 1  # tombstone physically dropped


def test_apply_emission_routes_local_remote_and_output():
    node = make_node(node_id=1, procs=2, neurons=(7, 8), outputs=(7,),
                     post={7: [(8, 1), (9, 2)]})
    e = queue_forecast(node, 5, source=7)
    node.ecs[8].params.synapses[7] = Synapse(0.5, 1)
    node.pt = -3  # incoming queue empty at magnitude 3
    assert node.apply_emission(e) is None
    assert e.emitted and abs(node.et) == 5
    assert node.trace == [(7, 5)]
    # local target lands in our own incoming queue
    assert node.cm_queue.peek().target == 8
    assert node.pt == 3
    # remote target staged for processor 2, output copy staged for Pr_0
    assert node.outboxes == {2: [CMEvent(9, 7, 5)],
                             0: [CMEvent(EXT_NEURON, 7, 5)]}


def test_apply_emission_requires_queue_top():
    node = make_node()
    queue_forecast(node, 3)
    other = CPEvent(source=7, stamp=9)
    with pytest.raises(ProtocolViolation):
        node.apply_emission(other)


def test_emission_updates_et_sign_for_emptied_queue():
    node = make_node(node_id=1, procs=1)
    e = queue_forecast(node, 5)
    assert node.et == 0  # magnitude moves only on emission
    node.apply_emission(e)
    assert node.et == -5  # queue empty again, magnitude recorded


def test_certify_top_requires_order_safety():
    node = make_node(node_id=1, procs=2)
    queue_forecast(node, 5)
    node.nbth = 0
    node.clock = [4, node.et, -9]  # environment time behind the stamp
    assert not node.certify_top()
    node.clock = [5, node.et, -9]
    assert node.certify_top()
    assert node.cp_top().crt


def test_stats_count_transitions():
    node = make_node(node_id=1, procs=1, post={7: []})
    queue_incoming(node, 2, source=EXT_NEURON)
    node.pt = 2
    assert node.cpc_step()
    node.clock[0] = 3  # environment time must cover the forecast stamp
    _progress, _msgs = node.cmc_step()
    assert node.stats.computed == 1
    assert node.stats.emitted == 1
    assert node.trace == [(7, 3)]
