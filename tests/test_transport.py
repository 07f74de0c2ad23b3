import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from spikesim import transport
from spikesim.environment import EnvState
from spikesim.events import Spike
from spikesim.transport import (CodecError, InProcBackend, Message, Report,
                                TcpBackend, TransportError, decode, encode,
                                load_roster)


def test_clock_only_message_golden_bytes():
    # Environment clock-only message, T and the raise, whatever P: 19 bytes.
    msg = Message(sender=0, clock=[3, -2], events=[])
    data = encode(msg)
    assert len(data) == 19
    assert data.hex() == "444e030000020003000000feffffff00000000"
    back = decode(data)
    assert (back.sender, back.clock, back.events) == (0, [3, -2], [])


def test_event_message_golden_bytes():
    # Processor 2, at emission time 4, ships neuron 7's spike at 3: 8 bytes
    # after the count.
    msg = Message(sender=2, clock=[4], events=[Spike(neuron=7, stamp=3)])
    data = encode(msg)
    assert data.hex() == ("444e030200010004000000"
                          "010000000700000003000000")
    assert decode(data) == msg


def test_report_golden_bytes():
    # Processor 2 of 2 reports floor 37, 3 messages sent to the environment,
    # 1 to processor 1, and 5 received from the environment: 35 bytes.
    msg = Message(sender=2, clock=[], report=Report(37, [3, 1, 0], [5, 0, 0]))
    data = encode(msg)
    assert data.hex() == ("445203020003002500000003000000010000000000000005"
                          "0000000000000000000000")
    assert decode(data) == msg


def test_truncated_or_padded_report_rejected():
    data = encode(Message(sender=1, clock=[],
                          report=Report(-4, [1, 0], [2, 0])))
    for cut in (1, 6, 10, len(data) - 1):
        with pytest.raises(CodecError):
            decode(data[:cut])
    with pytest.raises(CodecError):
        decode(data + b"\x00")


def test_truncated_data_rejected():
    data = encode(Message(sender=1, clock=[2], events=[Spike(1, 3)]))
    for cut in (1, 6, 10, len(data) - 1):
        with pytest.raises(CodecError):
            decode(data[:cut])
    # Two events announced, the second one byte short.
    two = encode(Message(sender=1, clock=[2], events=[Spike(1, 3), Spike(4, 6)]))
    with pytest.raises(CodecError):
        decode(two[:-1])


def test_trailing_bytes_rejected():
    data = encode(Message(sender=0, clock=[1, 0], events=[]))
    with pytest.raises(CodecError):
        decode(data + b"\x00")
    # An event section one byte longer than its count says.
    data = encode(Message(sender=1, clock=[2], events=[Spike(1, 3)]))
    with pytest.raises(CodecError):
        decode(data + b"\x00")


def test_bad_magic_and_version_rejected():
    data = bytearray(encode(Message(sender=0, clock=[1, 0], events=[])))
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
        encode(Message(sender=0, clock=[1 << 40, 0], events=[]))
    for neuron, stamp in ((1, 1 << 40), (1, -(1 << 31) - 1), (-1, 3), (1 << 32, 3)):
        with pytest.raises(CodecError):
            encode(Message(sender=0, clock=[1, 0], events=[Spike(neuron, stamp)]))


def test_clock_only_allowed_for_environment_only():
    # A node sends its emission time and spikes; the environment sends T and
    # the raise. ``decode`` rejects what ``validate`` does.
    Message(sender=0, clock=[1, 0], events=[]).validate()
    Message(sender=3, clock=[1], events=[Spike(1, 1)]).validate()
    for bad in (Message(sender=3, clock=[1], events=[]),
                Message(sender=0, clock=[1], events=[]),
                Message(sender=0, clock=[1, 0, 0], events=[]),
                Message(sender=3, clock=[1, 1], events=[Spike(1, 1)]),
                Message(sender=3, clock=[], events=[Spike(1, 1)])):
        with pytest.raises(CodecError):
            bad.validate()
        with pytest.raises(CodecError):
            decode(encode(bad))


def test_only_a_node_may_report_and_a_report_carries_nothing_else():
    report = Report(5, [0, 0], [1, 0])
    Message(sender=1, clock=[], report=report).validate()
    for bad in (Message(sender=0, clock=[], report=report),
                Message(sender=1, clock=[1, 1], report=report),
                Message(sender=1, clock=[], report=Report(0, [1, 0], [2])),
                Message(sender=1, clock=[], events=[Spike(1, 3)],
                        report=report)):
        with pytest.raises(CodecError):
            bad.validate()
    with pytest.raises(CodecError):  # on the wire, a report's sender alone can be bad
        decode(encode(Message(sender=0, clock=[], report=report)))


@settings(max_examples=300, deadline=None)
@given(
    sender=st.integers(0, 65535),
    clock=st.lists(st.integers(-(2**31), 2**31 - 1), min_size=2, max_size=2),
    events=st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.integers(-(2**31), 2**31 - 1)),
        max_size=12),
)
def test_codec_round_trip(sender, clock, events):
    # A node's message: its emission time and at least one spike.
    if sender:
        clock, events = clock[:1], events or [(0, 0)]
    msg = Message(sender=sender, clock=clock,
                  events=[Spike(neuron, stamp) for neuron, stamp in events])
    data = encode(msg)
    assert len(data) == transport._HEADER.size + 4 * len(clock) + 4 + 8 * len(events)
    back = decode(data)
    assert back.sender == sender
    assert back.clock == clock
    assert [(e.neuron, e.stamp) for e in back.events] == events


def test_roster_parsing(tmp_path):
    path = tmp_path / "roster"
    path.write_text("# comment\n0 127.0.0.1:9000\n1 127.0.0.1:9001\n")
    assert load_roster(str(path)) == {0: ("127.0.0.1", 9000),
                                      1: ("127.0.0.1", 9001)}
    path.write_text("0 localhost\n")
    with pytest.raises(CodecError):
        load_roster(str(path))


def inproc(procs, horizon=10):
    env = EnvState(procs=procs, stimuli={}, owner_of={}, horizon=horizon)
    return InProcBackend(procs, env)


def test_inproc_backend_fifo_per_channel():
    backend = inproc(2)
    msgs = [Message(sender=0, clock=[i, 0], events=[]) for i in range(5)]
    for m in msgs:
        backend.send(1, m)
    assert backend.poll(1) == msgs
    assert backend.poll(1) == []


def test_inproc_poll_waits_for_the_first_message():
    backend = inproc(1)
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


def test_inproc_mail_to_the_environment_steps_it_until_the_run_ends():
    # Processor 0 has no inbox: each report steps the environment in the
    # sender's thread, and the broadcast is in the node's inbox on return.
    backend = inproc(1, horizon=0)
    env = backend.env
    for dest, msg in env.step([]):
        backend.send(dest, msg)
    while not env.done:
        [broadcast] = backend.poll(1)
        assert broadcast.clock[0] == env.T
        backend.send(0, Message(sender=1, clock=[], report=Report(0, [0, 0], [env.T, 0])))
    assert env.T == env.slack + 1 and env.stats.advancements == env.T
    # Once the run is over, mail to the environment is dropped unstepped.
    backend.send(0, Message(sender=1, clock=[], report=Report(0, [0, 0], [env.T, 0])))
    assert env.stats.advancements == env.T and env.reports[1].received == [env.T - 1, 0]
    assert [msg.clock[0] for msg in backend.poll(1)] == [env.T]
    assert 0 not in backend.inboxes


def _tcp_pair(free_ports, count=2):
    """Connected TcpBackends, processors 0 to ``count - 1`` (0 and 1 by
    default), on kernel-given ports."""
    roster = {pid: ("127.0.0.1", port) for pid, port in enumerate(free_ports(count))}
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
                       events=[Spike(4, 1)])
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
        assert got[0].events == [Spike(4, 1)]
    finally:
        for b in backends.values():
            b.close()


def test_tcp_backend_reassembles_a_split_frame(free_ports):
    backends = _tcp_pair(free_ports)
    try:
        sent = Message(sender=0, clock=[3, -2],
                       events=[Spike(4, 2), Spike(5, 3)])
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


def test_tcp_backend_polls_frames_sent_before_it_reads_in_order(free_ports):
    # Two whole frames and the head of a third wait in the socket before
    # the peer polls; the tail of the third follows later.
    backends = _tcp_pair(free_ports)
    try:
        sent = [Message(sender=0, clock=[i, -1], events=[Spike(4, i)])
                for i in range(3)]
        stream = b"".join(struct.pack("<I", len(p)) + p for p in map(encode, sent))
        cut = len(stream) - 7
        got = []
        for piece, count in ((stream[:cut], 2), (stream[cut:], 3)):
            backends[0]._out[1].sendall(piece)
            deadline = time.monotonic() + 5.0
            while len(got) < count and time.monotonic() < deadline:
                got += backends[1].poll(1, wait=0.1)
            assert got == sent[:count]
    finally:
        for b in backends.values():
            b.close()


def test_tcp_backend_starts_no_thread(free_ports):
    before = threading.active_count()
    backends = _tcp_pair(free_ports)
    try:
        assert threading.active_count() == before
        backends[0].send(1, Message(sender=0, clock=[1, -1]))
        assert backends[1].poll(1, wait=5) == [Message(sender=0, clock=[1, -1])]
        assert threading.active_count() == before
    finally:
        for b in backends.values():
            b.close()
    assert threading.active_count() == before


def test_tcp_backend_reports_a_malformed_frame(free_ports):
    # A bad frame, then a good message on the same connection: poll must
    # raise instead of waiting for a frame that never arrives, or handing
    # its actor a message it cannot take. The frames to processor 1: bad
    # magic, a broadcast with one stamp, a node message with the
    # environment's two, mail from processor 9, which is no peer of a
    # three-processor roster, and processor 2's report, which only the
    # environment takes. To the environment: a broadcast from itself.
    node_mail = Message(sender=1, clock=[2], events=[Spike(4, 1)])
    for dest, payload in (
            (1, b"XX" + encode(Message(sender=0, clock=[1, -1]))[2:]),
            (1, encode(Message(sender=0, clock=[1]))),
            (1, encode(Message(sender=1, clock=[1, 0], events=[Spike(4, 1)]))),
            (1, encode(Message(sender=9, clock=[1], events=[Spike(4, 1)]))),
            (1, encode(Message(sender=2, clock=[], report=Report(0, [0] * 3, [0] * 3)))),
            (0, encode(Message(sender=0, clock=[1, 0])))):
        backends = _tcp_pair(free_ports, count=3)
        peer = 1 - dest
        try:
            backends[peer]._out[dest].sendall(struct.pack("<I", len(payload)) + payload)
            backends[peer].send(dest, node_mail if peer else Message(sender=0, clock=[2, -1]))
            start = time.monotonic()
            with pytest.raises(TransportError, match="bad frame"):
                backends[dest].poll(dest, wait=5)
            assert time.monotonic() - start < 4.0
        finally:
            for b in backends.values():
                b.close()


def test_tcp_backend_reports_an_environment_that_closes(free_ports):
    # A node learns its peer from the frames it reads; once the environment
    # has spoken, its EOF is an error, not the quiet end of a peer.
    backends = _tcp_pair(free_ports)
    try:
        backends[0].send(1, Message(sender=0, clock=[1, 0]))
        backends[0].close()
        start = time.monotonic()
        with pytest.raises(TransportError, match="environment closed"):
            while time.monotonic() - start < 2.0:
                backends[1].poll(1, wait=5)
        assert time.monotonic() - start < 2.0
    finally:
        for b in backends.values():
            b.close()


def test_tcp_backend_that_fails_to_build_releases_its_port(free_ports,
                                                          monkeypatch):
    # No peer listens, so construction fails; the second attempt on the same
    # roster must fail the same way, not on a port the first left bound.
    monkeypatch.setattr(transport, "CONNECT_TIMEOUT_S", 0.3)
    roster = {pid: ("127.0.0.1", port) for pid, port in enumerate(free_ports(2))}
    before = set(threading.enumerate())
    for _ in range(2):
        with pytest.raises(TransportError, match="cannot reach processor 1"):
            TcpBackend(0, roster)
    started = [t for t in threading.enumerate() if t not in before]
    for t in started:
        t.join(timeout=2.0)
    assert not any(t.is_alive() for t in started)


def test_tcp_backend_build_stops_once_it_gives_up(free_ports):
    # Processor 1 accepts the connection but never connects back, so the
    # build would wait CONNECT_TIMEOUT_S for it; ``give_up`` ends it sooner.
    roster = {pid: ("127.0.0.1", port) for pid, port in enumerate(free_ports(2))}
    with socket.create_server(roster[1]):
        start = time.monotonic()
        with pytest.raises(TransportError, match="peers failed to connect"):
            TcpBackend(0, roster, give_up=lambda: time.monotonic() > start + 0.2)
        assert time.monotonic() - start < 2.0
