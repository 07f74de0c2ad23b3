import pytest

from spikesim.environment import EnvState
from spikesim.events import ProtocolViolation, Spike
from spikesim.node import UNBOUNDED
from spikesim.transport import Message, Report


def make_env(procs=2, stimuli=None, horizon=20, owners=None):
    owners = owners or {1: 1, 2: 2, 7: 1}
    return EnvState(procs=procs, stimuli=stimuli or {}, owner_of=owners,
                    horizon=horizon)


def report(env, node, sent, received, floor=UNBOUNDED):
    env.on_report(Message(sender=node, clock=[],
                          report=Report(floor, sent, received)))


def test_advance_broadcasts_clock_to_every_processor():
    env = make_env()
    messages = env.advance_T()
    assert env.T == 1
    assert len(messages) == 2
    assert all(m.sender == 0 and m.clock == [1, 0] for m in messages)  # T, the raise
    assert all(m.events == [] for m in messages)


def test_stimuli_delivered_at_T_minus_one_to_owner():
    env = make_env(stimuli={0: [1], 1: [2]})
    first = env.advance_T()  # T=1, delivers stimuli stamped 0
    assert first[0].events == [Spike(neuron=1, stamp=0)]  # the input it drives
    assert first[1].events == []
    second = env.advance_T()  # T=2, delivers stimuli stamped 1
    assert second[0].events == []
    assert second[1].events == [Spike(2, 1)]


def test_stimulus_for_unmapped_neuron_raises():
    env = make_env(stimuli={0: [9]})
    with pytest.raises(KeyError):
        env.advance_T()


def test_timeout_raises_magnitudes_to_T_minus_one():
    env = make_env(procs=3, owners={1: 1})
    env.T = 6
    env.raised = 4
    messages = env.on_timeout(floor=UNBOUNDED)
    assert env.T == 7
    # The raise rises to T-1 = 6; each node lifts its entries behind it.
    assert env.raised == 6
    assert [m.clock for m in messages] == [[7, 6]] * 3
    assert env.stats.timeouts == 1
    env.on_timeout(floor=2)  # a raise never falls
    assert env.T == 8 and env.raised == 6


def test_timeout_raises_no_entry_above_a_pending_forecast():
    # Seed 3 at n=64, P=4 (hole B): node 3 (et 32) holds a certain
    # forecast at 37 when the environment times out from T = 38. Raising
    # its entry to T-1 = 38 let node 2 compute stamp 38 before node 3 could
    # emit at 37.
    env = make_env(procs=4, owners={1: 1})
    env.T = 38
    env.raised = 32
    messages = env.on_timeout(floor=37)
    assert env.T == 39
    assert env.raised == 37  # not T - 1 = 38
    assert [m.clock for m in messages] == [[39, 37]] * 4


def test_quiescence_needs_every_channel_to_balance():
    env = make_env(procs=3, owners={1: 1})
    env.advance_T()  # one broadcast to each node: the count is T
    assert env.T == 1
    report(env, 1, [0, 0, 0, 0], [1, 0, 0, 0])
    report(env, 2, [0, 1, 0, 0], [1, 0, 0, 0], floor=12)
    assert env.quiescence_floor() is None   # node 3 has not reported
    report(env, 3, [0, 0, 0, 0], [1, 1, 0, 0], floor=9)
    # Four messages sent and four received, but 2->1 holds one in flight
    # and node 1's message to 3 was sent after node 1 reported.
    assert env.quiescence_floor() is None
    report(env, 1, [0, 0, 0, 1], [1, 0, 1, 0])
    assert env.quiescence_floor() == 9
    env.on_timeout(floor=9)   # the broadcast is not yet received
    assert env.quiescence_floor() is None
    for node, r in list(env.reports.items()):  # now each has received T = 2
        report(env, node, r.sent, [2, *r.received[1:]], floor=r.floor)
    assert env.quiescence_floor() == 9


def test_quiescence_waits_for_outputs_in_flight():
    env = make_env()
    env.advance_T()
    report(env, 1, [1, 0, 0], [1, 0, 0])
    report(env, 2, [0, 0, 0], [1, 0, 0])
    assert env.quiescence_floor() is None
    env.on_output(Message(sender=1, clock=[1], events=[Spike(1, 1)]))
    assert env.quiescence_floor() == UNBOUNDED


def report_msg(node, sent, received, floor=UNBOUNDED):
    return Message(sender=node, clock=[], report=Report(floor, sent, received))


def test_step_starts_the_run_and_then_waits_for_mail():
    env = make_env()
    moved, broadcast = env.step([])
    assert moved and [(dest, msg.clock[0]) for dest, msg in broadcast] == [(1, 1), (2, 1)]
    assert env.step([]) == (False, [])
    assert env.T == 1


def test_step_returns_nothing_while_a_channel_is_unbalanced():
    env = make_env()
    env.step([])
    # Node 2 has not yet received the first broadcast.
    assert env.step([report_msg(1, [0, 0, 0], [1, 0, 0]),
                     report_msg(2, [0, 0, 0], [0, 0, 0])]) == (False, [])
    # Node 1 sent node 2 a message that node 2 has not reported.
    assert env.step([report_msg(1, [0, 0, 1], [1, 0, 0], floor=4),
                     report_msg(2, [0, 0, 0], [1, 0, 0])]) == (False, [])
    assert env.T == 1 and env.stats.timeouts == 0
    moved, broadcast = env.step([report_msg(2, [0, 0, 0], [1, 1, 0], floor=3)])
    assert moved and [dest for dest, _ in broadcast] == [1, 2]
    assert env.T == 2 and env.stats.timeouts == 1


def test_step_advances_on_an_output_before_quiescence():
    env = make_env()
    env.step([])
    output = Message(sender=1, clock=[1], events=[Spike(1, 1)])
    # The same mail also proves quiescence; the output decides first.
    moved, broadcast = env.step([report_msg(1, [1, 0, 0], [1, 0, 0], floor=5),
                                 report_msg(2, [0, 0, 0], [1, 0, 0]), output])
    assert moved and [dest for dest, _ in broadcast] == [1, 2]
    assert env.T == 2
    assert env.stats.timeouts == 0 and env.stats.advancements == 2
    assert env.raised == 0   # no magnitude raised to the floor
    assert [msg.clock for _, msg in broadcast] == [[2, 0]] * 2


def test_report_that_does_not_fit_is_rejected():
    env = make_env()
    with pytest.raises(ProtocolViolation):
        report(env, 3, [0, 0, 0], [0, 0, 0])
    with pytest.raises(ProtocolViolation):
        report(env, 1, [0, 0], [0, 0])


def test_output_logging_and_advancement_trigger():
    env = make_env()
    env.T = 4
    spike = Spike(neuron=7, stamp=3)
    msg = Message(sender=1, clock=[4], events=[spike])
    assert env.on_output(msg) is True  # et_1 reached T
    assert env.output_log == [(7, 3)]
    # a second copy is logged again, so a double emission shows
    env.on_output(Message(sender=1, clock=[4], events=[spike]))
    assert env.output_log == [(7, 3), (7, 3)]


def test_output_below_T_does_not_trigger_advancement():
    env = make_env()
    env.T = 9
    assert env.on_output(Message(sender=2, clock=[8], events=[])) is False
    assert env.T == 9 and env.raised == 0  # an output moves neither


def test_non_output_event_rejected():
    # Only the owner of a neuron can emit its spikes.
    env = make_env()
    env.T = 2
    for neuron in (2, 8):  # owned by processor 2; owned by none
        msg = Message(sender=1, clock=[2], events=[Spike(neuron, 1)])
        with pytest.raises(ProtocolViolation,
                           match="from processor 1, which does not own it"):
            env.on_output(msg)
    assert env.output_log == []


def test_done_after_horizon_plus_slack():
    env = make_env(horizon=10)
    assert not env.done
    env.T = 10 + env.slack
    assert not env.done
    env.T += 1
    assert env.done


def test_sorted_outputs_by_time_then_neuron():
    env = make_env(owners={2: 1, 5: 1, 9: 1})
    env.T = 5
    for neuron, stamp in ((9, 3), (2, 3), (5, 1)):
        env.on_output(Message(sender=1, clock=[stamp], events=[Spike(neuron, stamp)]))
    assert env.sorted_outputs() == [(5, 1), (2, 3), (9, 3)]
