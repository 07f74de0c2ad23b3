import pytest
from hypothesis import given, strategies as st

from spikesim.events import ArrivalCalendar, CMEvent, EXT_NEURON, ProtocolViolation


def test_calendar_orders_by_stamp_and_files_by_target():
    cal = ArrivalCalendar()
    cal.file(9, 3, [5])
    cal.file(2, 3, [5])
    cal.file(9, 2, [1])
    cal.file(2, 3, [4])
    assert cal.peek() == CMEvent(target=1, source=9, stamp=2)
    assert cal.pop_stamp() == (2, {1: [9]})
    assert cal.pop_stamp() == (3, {5: [9, 2], 4: [2]})
    assert not cal and cal.peek() is None


def test_identical_events_break_ties_by_arrival_order():
    cal = ArrivalCalendar()
    for source in (3, 2, 3):
        cal.file(source, 5, [1])
    assert cal.pop_stamp() == (5, {1: [3, 2, 3]})  # filed in arrival order


def test_one_filing_reaches_every_target():
    cal = ArrivalCalendar()
    cal.file(9, 3, [4, 5])
    cal.file(2, 3, [5])
    assert cal.stamps == [3]
    assert cal.pop_stamp() == (3, {4: [9], 5: [9, 2]})


def test_peek_does_not_remove():
    cal = ArrivalCalendar()
    cal.file(2, 4, [1])
    assert cal.peek() == cal.peek() == CMEvent(1, 2, 4)
    assert cal.pop_stamp() == (4, {1: [2]})


def test_empty_queue_peek_is_none():
    assert ArrivalCalendar().peek() is None


def test_non_positive_stamp_rejected():
    cal = ArrivalCalendar()
    with pytest.raises(ProtocolViolation):
        cal.file(2, 0, [1])
    with pytest.raises(ProtocolViolation):
        cal.file(EXT_NEURON, -1, [1])
    assert not cal


def test_stamp_zero_allowed_only_for_external_stimuli():
    cal = ArrivalCalendar()
    cal.file(EXT_NEURON, 0, [1])
    assert cal.pop_stamp() == (0, {1: [EXT_NEURON]})


events = st.tuples(st.integers(1, 50), st.integers(0, 9), st.integers(0, 9))


@given(st.lists(st.tuples(st.booleans(), events), max_size=60))
def test_calendar_pop_order_follows_stamps(ops):
    """Pushes interleaved with pops: each pop takes exactly the pending
    arrivals of the least pending stamp, which ``peek`` showed first."""
    cal, pending = ArrivalCalendar(), []
    for pop, (stamp, source, target) in ops:
        if pop and cal:
            least = min(e.stamp for e in pending)
            assert cal.peek().stamp == least
            popped, by_cell = cal.pop_stamp()
            taken = [e for e in pending if e.stamp == least]
            pending = [e for e in pending if e.stamp != least]
            assert popped == least
            assert (sorted((tgt, src) for tgt, srcs in by_cell.items() for src in srcs)
                    == sorted((e.target, e.source) for e in taken))
        else:
            e = CMEvent(target=target, source=source, stamp=stamp)
            cal.file(source, stamp, [target])
            pending.append(e)
    assert bool(cal) == bool(pending)


@given(st.lists(events, max_size=80))
def test_pop_stamp_files_every_target_its_events(items):
    cal, expected = ArrivalCalendar(), {}
    for stamp, source, target in items:
        cal.file(source, stamp, [target])
        expected.setdefault(stamp, {}).setdefault(target, []).append(source)
    assert sorted(cal.stamps) == sorted(expected)  # one heap entry per stamp
    popped = []
    while cal:
        least = cal.peek()
        stamp, by_cell = cal.pop_stamp()
        assert by_cell == expected[stamp]  # each target's sources, in filing order
        assert least.stamp == stamp and least.source in by_cell[least.target]
        popped.append(stamp)
    assert popped == sorted(expected)  # strictly increasing, none missing
