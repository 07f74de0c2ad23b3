import struct
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from spikesim.events import CMEvent, EXT_NEURON
from spikesim.transport import (CodecError, InProcBackend, Message,
                                TcpBackend, decode, encode, load_roster)


def test_clock_only_message_golden_bytes():
    # Environment clock-only message for two compute processors: 23 bytes.
    msg = Message(sender=0, clock=[3, -2, 5], events=[])
    data = encode(msg)
    assert len(data) == 23
    assert data.hex() == "444e010000030003000000feffffff0500000000000000"
    back = decode(data)
    assert (back.sender, back.clock, back.events) == (0, [3, -2, 5], [])


def test_event_message_golden_bytes():
    msg = Message(sender=2, clock=[4, 4, -4],
                  events=[CMEvent(target=7, source=EXT_NEURON, stamp=3)])
    assert encode(msg).hex() == ("444e01020003000400000004000000fcffffff"
                                 "0100000007000000ffffffff03000000")


def test_external_neuron_id_round_trips():
    msg = Message(sender=1, clock=[1, 1],
                  events=[CMEvent(target=EXT_NEURON, source=3, stamp=9)])
    back = decode(encode(msg))
    assert back.events[0].target == EXT_NEURON


def test_truncated_data_rejected():
    data = encode(Message(sender=1, clock=[1, 2],
                          events=[CMEvent(1, 2, 3)]))
    for cut in (1, 6, 10, len(data) - 1):
        with pytest.raises(CodecError):
            decode(data[:cut])
    # Two events announced, the second one byte short.
    two = encode(Message(sender=1, clock=[1, 2],
                         events=[CMEvent(1, 2, 3), CMEvent(4, 5, 6)]))
    with pytest.raises(CodecError):
        decode(two[:-1])


def test_trailing_bytes_rejected():
    data = encode(Message(sender=0, clock=[1], events=[]))
    with pytest.raises(CodecError):
        decode(data + b"\x00")
    # An event section one byte longer than its count says.
    data = encode(Message(sender=1, clock=[1, 2], events=[CMEvent(1, 2, 3)]))
    with pytest.raises(CodecError):
        decode(data + b"\x00")


def test_bad_magic_and_version_rejected():
    data = bytearray(encode(Message(sender=0, clock=[1], events=[])))
    bad = bytes([0x58]) + bytes(data[1:])
    with pytest.raises(CodecError):
        decode(bad)
    data[2] = 9
    with pytest.raises(CodecError):
        decode(bytes(data))


def test_out_of_range_values_rejected():
    with pytest.raises(CodecError):
        encode(Message(sender=1 << 16, clock=[], events=[]))
    with pytest.raises(CodecError):
        encode(Message(sender=0, clock=[1 << 40], events=[]))
    with pytest.raises(CodecError):
        encode(Message(sender=0, clock=[1],
                       events=[CMEvent(1, 2, 1 << 40)]))
    with pytest.raises(CodecError):
        encode(Message(sender=0, clock=[1], events=[CMEvent(-1, 2, 3)]))
    with pytest.raises(CodecError):
        encode(Message(sender=0, clock=[1], events=[CMEvent(1, 1 << 32, 3)]))


def test_clock_only_allowed_for_environment_only():
    Message(sender=0, clock=[1], events=[]).validate()
    with pytest.raises(CodecError):
        Message(sender=3, clock=[1], events=[]).validate()


@settings(max_examples=300, deadline=None)
@given(
    sender=st.integers(0, 65535),
    clock=st.lists(st.integers(-(2**31), 2**31 - 1), max_size=9),
    events=st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
                  st.integers(-(2**31), 2**31 - 1)),
        max_size=12),
)
def test_codec_round_trip(sender, clock, events):
    msg = Message(sender=sender, clock=clock,
                  events=[CMEvent(t, s, ts) for t, s, ts in events])
    back = decode(encode(msg))
    assert back.sender == sender
    assert back.clock == clock
    assert [(e.target, e.source, e.stamp) for e in back.events] == events


def test_roster_parsing(tmp_path):
    path = tmp_path / "roster"
    path.write_text("# comment\n0 127.0.0.1:9000\n1 127.0.0.1:9001\n")
    assert load_roster(str(path)) == {0: ("127.0.0.1", 9000),
                                      1: ("127.0.0.1", 9001)}
    path.write_text("0 localhost\n")
    with pytest.raises(CodecError):
        load_roster(str(path))


def test_inproc_backend_fifo_per_channel():
    backend = InProcBackend(procs=2)
    msgs = [Message(sender=0, clock=[i], events=[]) for i in range(5)]
    for m in msgs:
        backend.send(1, m)
    assert backend.poll(1) == msgs
    assert backend.poll(1) == []


def test_inproc_poll_waits_for_the_first_message():
    backend = InProcBackend(procs=1)
    sent = Message(sender=0, clock=[1, 0], events=[])
    sender = threading.Timer(0.05, backend.send, args=(1, sent))
    start = time.monotonic()
    sender.start()
    try:
        got = backend.poll(1, wait=10.0)
    finally:
        sender.join(timeout=5)
    assert not sender.is_alive()
    assert got == [sent]
    assert time.monotonic() - start < 5.0
    start = time.monotonic()
    assert backend.poll(1, wait=0.1) == []
    assert 0.09 <= time.monotonic() - start < 5.0


def _tcp_pair(free_ports):
    """Two connected TcpBackends, processors 0 and 1, on kernel-given ports."""
    roster = {pid: ("127.0.0.1", port) for pid, port in enumerate(free_ports(2))}
    backends = {}
    errors = []

    def build(pid):
        try:
            backends[pid] = TcpBackend(pid, roster)
        except Exception as exc:  # pragma: no cover - diagnostic only
            errors.append(exc)

    threads = [threading.Thread(target=build, args=(pid,)) for pid in roster]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=20)
    assert not errors
    return backends


def test_tcp_backend_exchanges_framed_messages(free_ports):
    backends = _tcp_pair(free_ports)
    try:
        sent = Message(sender=0, clock=[2, -1],
                       events=[CMEvent(4, EXT_NEURON, 1)])
        backends[0].send(1, sent)
        got = []
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            got = backends[1].poll(1)
            if got:
                break
            time.sleep(0.005)
        assert len(got) == 1
        assert got[0].clock == [2, -1]
        assert got[0].events[0].target == 4
    finally:
        for b in backends.values():
            b.close()


def test_tcp_backend_reassembles_a_split_frame(free_ports):
    backends = _tcp_pair(free_ports)
    try:
        sent = Message(sender=0, clock=[3, -2],
                       events=[CMEvent(4, EXT_NEURON, 2), CMEvent(5, 9, 3)])
        payload = encode(sent)
        frame = struct.pack("<I", len(payload)) + payload
        # Cut inside the length prefix and inside the payload.
        for piece in (frame[:2], frame[2:11], frame[11:]):
            backends[0]._out[1].sendall(piece)
            time.sleep(0.05)
        assert backends[1].poll(1, wait=5) == [sent]
    finally:
        for b in backends.values():
            b.close()
