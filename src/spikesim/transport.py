"""Message codec and delivery backends.

Wire layout (little-endian, bit-exact):

    magic   2 bytes  0x44 0x4E ("DN")
    version 1 byte   3
    sender  u16
    nclock  u16      1 from a compute processor, 2 from the environment
    clocks  i32 * nclock
    nevents u32
    events  (neuron u32, stamp i32) * nevents

A channel carries its sender's time alone (Chandy & Misra 1979): a node's
emission time, or the environment's T and quiescence raise. Each event is a
``Spike``. In a node's message it names a neuron of that node that fired,
and the receiver files it for each of its cells that neuron reaches; in the
environment's, it names the input a stimulus drives. A ``Report`` has magic
"DR" and the same header with n = P + 1 in place of nclock, then floor i32,
sent u32 * n, received u32 * n. ``decode`` rejects what ``validate`` does.

Each TCP frame is one encoded message preceded by a u32 length prefix;
frames carry their sender, so a connection sends nothing but frames, and
the first frame on a connection binds it to the sender it names. The
in-process backend hands messages to node threads through queues and steps
the environment in the thread that mails it; the TCP backend starts no
thread and reads its sockets inside ``poll``.
"""

from __future__ import annotations

import queue
import selectors
import socket
import struct
import threading
import time
from itertools import chain
from typing import Callable, NamedTuple

from .events import Spike
from .topology import read_tokens

MAGIC = b"DN"
REPORT_MAGIC = b"DR"
VERSION = 3
_HEADER = struct.Struct("<2sBHH")
_NEVENTS = struct.Struct("<I")
_EVENT = struct.Struct("<Ii")
_FRAME = struct.Struct("<I")


class CodecError(ValueError):
    """Malformed or out-of-range wire data."""


class Report(NamedTuple):
    """What an idle compute processor tells the environment: the least
    stamp it may still emit without new mail, and its spike-message counts
    per channel (index = peer id, 0 the environment)."""
    floor: int
    sent: list[int]
    received: list[int]


class Message:
    __slots__ = ("sender", "clock", "events", "report")

    def __init__(self, sender: int, clock: list[int], events: list[Spike] | None = None,
                 report: Report | None = None) -> None:  # a report: no clock, no events
        self.sender, self.clock, self.report = sender, clock, report
        self.events = [] if events is None else events

    def _fields(self) -> tuple:
        return self.sender, self.clock, self.events, self.report

    def __eq__(self, other) -> bool:
        return isinstance(other, Message) and self._fields() == other._fields()

    def __repr__(self) -> str:
        return "Message(sender={!r}, clock={!r}, events={!r}, report={!r})".format(*self._fields())

    def validate(self) -> None:
        if self.report is not None:
            if (self.sender == 0 or self.events or self.clock
                    or len(self.report.sent) != len(self.report.received)):
                raise CodecError("a report comes from a compute processor alone")
        elif len(self.clock) != (1 if self.sender else 2):
            raise CodecError(f"{len(self.clock)} stamps from processor {self.sender}")
        elif not self.events and self.sender != 0:
            raise CodecError("only the environment may send clock-only messages")


def encode(msg: Message) -> bytes:
    """Pack ``msg``; struct rejects every value the layout cannot hold."""
    try:
        if msg.report is not None:
            floor, sent, received = msg.report
            return (_HEADER.pack(REPORT_MAGIC, VERSION, msg.sender, len(sent))
                    + struct.pack(f"<i{2 * len(sent)}I", floor, *sent, *received))
        return b"".join((
            _HEADER.pack(MAGIC, VERSION, msg.sender, len(msg.clock)),
            struct.pack(f"<{len(msg.clock)}i", *msg.clock),
            _NEVENTS.pack(len(msg.events)),
            struct.pack("<" + "Ii" * len(msg.events), *chain.from_iterable(msg.events)),
        ))
    except struct.error as exc:
        raise CodecError(f"value out of range: {exc}") from exc


def decode(data: bytes) -> Message:
    try:
        magic, version, sender, nclock = _HEADER.unpack_from(data)
    except struct.error as exc:
        raise CodecError(f"truncated header: {exc}") from exc
    if magic not in (MAGIC, REPORT_MAGIC):
        raise CodecError(f"bad magic {magic!r}")
    if version != VERSION:
        raise CodecError(f"unsupported version {version}")
    if magic == REPORT_MAGIC:
        body = struct.Struct(f"<i{2 * nclock}I")
        if len(data) != _HEADER.size + body.size:
            raise CodecError(f"{len(data)} bytes for a report on {nclock} channels")
        floor, *counts = body.unpack_from(data, _HEADER.size)
        msg = Message(sender, [], report=Report(floor, counts[:nclock], counts[nclock:]))
    else:
        off = _HEADER.size + 4 * nclock
        try:
            clock = list(struct.unpack_from(f"<{nclock}i", data, _HEADER.size))
            (nevents,) = _NEVENTS.unpack_from(data, off)
        except struct.error as exc:
            raise CodecError(f"truncated message: {exc}") from exc
        off += _NEVENTS.size
        if len(data) - off != nevents * _EVENT.size:
            raise CodecError(f"{len(data) - off} bytes left for {nevents} events")
        events = list(map(Spike._make, _EVENT.iter_unpack(memoryview(data)[off:])))
        msg = Message(sender=sender, clock=clock, events=events)
    msg.validate()
    return msg


# -- roster -------------------------------------------------------------------

def load_roster(path: str) -> dict[int, tuple[str, int]]:
    """`<id> <host>:<port>` per line; must include the environment (id 0)."""
    roster: dict[int, tuple[str, int]] = {}
    for lineno, tok in read_tokens(path):
        try:
            pid_s, addr = tok
            host, port_s = addr.rsplit(":", 1)
            roster[int(pid_s)] = (host, int(port_s))
        except ValueError as exc:
            raise CodecError(f"{path}:{lineno}: bad roster line") from exc
    return roster


# -- delivery backends -----------------------------------------------------------

class InProcBackend:
    """Thread-safe mailbox delivery for free-running in-process runs.

    The environment ``env`` is processor 0's inbox: mail to it steps ``env``
    in the sender's thread, under one lock that also covers queueing the
    broadcast, and is dropped once ``env.done``. Per-channel FIFO holds
    because each sender enqueues its own messages in send order and
    ``queue.SimpleQueue`` preserves insertion order.
    """

    def __init__(self, procs: int, env) -> None:
        self.env = env
        self.inboxes = {p: queue.SimpleQueue() for p in range(1, procs + 1)}
        self._lock = threading.Lock()

    def send(self, dest: int, msg: Message) -> None:
        msg.validate()
        if dest:
            self.inboxes[dest].put(msg)
            return
        with self._lock:
            if not self.env.done:
                for pid, out in self.env.step([msg])[1]:
                    self.inboxes[pid].put(out)

    def poll(self, pid: int, wait: float = 0) -> list[Message]:
        """Wait up to ``wait`` seconds for a first message, then take every
        message already queued behind it."""
        box = self.inboxes[pid]
        try:
            out = [box.get(block=wait > 0, timeout=wait)]
        except queue.Empty:
            return []
        while True:
            try:
                out.append(box.get_nowait())
            except queue.Empty:
                return out


# -- TCP backend ----------------------------------------------------------------

class TransportError(RuntimeError):
    pass


# How long a TcpBackend keeps trying to reach and hear from its peers.
CONNECT_TIMEOUT_S = 15.0
CONNECT_RETRY_S = 0.002  # between tries


class TcpBackend:
    """One connection per ordered processor pair, established at startup.

    Each endpoint listens on its roster address, opens one outgoing
    connection per peer (used only for its own sends), then accepts one
    incoming connection per peer from the listen backlog. Every endpoint
    listens before it connects, so no endpoint waits on another's accept.
    Building it fails at once when ``give_up()`` holds.

    Connections carry nothing but frames, and frames carry their sender.
    The first frame on an incoming connection binds it to its sender; a
    later frame there that names another sender, or a second connection
    that names a bound sender, is a bad frame. No thread reads them:
    ``poll`` waits on the incoming connections, reads what is readable into
    a buffer per connection and decodes each complete frame. Sends block,
    so two processes that each sent much without polling could fill each
    other's receive buffers and both block in ``sendall``. Each advancement
    of T needs the peers' mail, though, so a connection's unread backlog
    stays near one tick of traffic: in det, at most 1,347 bytes on the
    n=512, p=0.02 net at P=2 (707 at P=4), against the 131,072-byte
    initial TCP receive buffer of a Linux host.
    """

    def __init__(self, pid: int, roster: dict[int, tuple[str, int]],
                 give_up: Callable[[], bool] = lambda: False) -> None:
        self.pid = pid
        self.roster = roster
        self._out: dict[int, socket.socket] = {}
        self._in: dict[socket.socket, bytearray] = {}  # unread bytes of each
        self._sender: dict[socket.socket, int] = {}  # bound by each one's first frame
        self._selector = selectors.DefaultSelector()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind(roster[pid])
            self._listener.listen(len(roster))
            self._listener.settimeout(CONNECT_RETRY_S)
            peers = sorted(p for p in roster if p != pid)
            for peer in peers:
                self._out[peer] = self._connect(peer, give_up)
            end = time.monotonic() + CONNECT_TIMEOUT_S
            while len(self._in) < len(peers):
                try:
                    conn, _addr = self._listener.accept()
                except TimeoutError:
                    if give_up() or time.monotonic() >= end:
                        raise TransportError(f"processor {pid}: peers failed to connect")
                    continue
                self._in[conn] = bytearray()
                self._selector.register(conn, selectors.EVENT_READ)
        except BaseException:
            self.close()  # frees the port
            raise
        self._listener.close()

    def _connect(self, peer: int, give_up: Callable[[], bool]) -> socket.socket:
        host, port = self.roster[peer]
        end = time.monotonic() + CONNECT_TIMEOUT_S
        while True:
            try:
                sock = socket.create_connection((host, port), timeout=2.0)
                sock.settimeout(None)
                return sock
            except OSError:
                if give_up() or time.monotonic() >= end:
                    raise TransportError(f"cannot reach processor {peer} at {host}:{port}")
                time.sleep(CONNECT_RETRY_S)

    def send(self, dest: int, msg: Message) -> None:
        msg.validate()
        payload = encode(msg)
        try:
            self._out[dest].sendall(_FRAME.pack(len(payload)) + payload)
        except OSError as exc:
            raise TransportError(f"send to {dest} failed: {exc}") from exc

    def poll(self, pid: int, wait: float = 0) -> list[Message]:
        """Read every readable connection until at least one message is
        decoded or ``wait`` seconds have passed."""
        out: list[Message] = []
        end = time.monotonic() + wait
        while True:
            for key, _events in self._selector.select(end - time.monotonic()):
                self._read(key.fileobj, out)
            if out or time.monotonic() >= end:
                return out

    def _read(self, conn: socket.socket, out: list[Message]) -> None:
        # Peers close their sockets when they terminate. A node closes only
        # once it has seen the run end, and the environment only after every
        # node has exited, so an environment that reads a node's close has
        # lost its run, as has a node that reads the environment's. The
        # sender is bound by the first frame; an environment that closes
        # before it failed to build its backend (its launcher kills the nodes
        # after STOP_GRACE_S) or was killed (they fail at TCP_WALL_S).
        try:
            chunk = conn.recv(1 << 16)
        except OSError:
            chunk = b""
        if not chunk:
            sender = self._sender.get(conn)
            self._selector.unregister(conn)
            del self._in[conn]
            conn.close()
            if sender == 0:
                raise TransportError(f"processor {self.pid}: environment closed the connection")
            if self.pid == 0:
                peer = "a node" if sender is None else f"processor {sender}"
                raise TransportError(f"environment: {peer} closed the connection")
            return
        buf = self._in[conn]
        buf += chunk
        start, bound = 0, self._sender.get(conn)
        while len(buf) - start >= _FRAME.size:
            (length,) = _FRAME.unpack_from(buf, start)
            end = start + _FRAME.size + length
            if end > len(buf):
                break
            try:
                msg = decode(buf[start + _FRAME.size:end])
                if msg.sender == self.pid or msg.sender not in self.roster:
                    raise CodecError(f"sender {msg.sender} is no peer")
                if bound is None:
                    if msg.sender in self._sender.values():
                        raise CodecError(f"a second connection from {msg.sender}")
                    self._sender[conn] = bound = msg.sender
                elif msg.sender != bound:
                    raise CodecError(f"sender {msg.sender} on the connection from {bound}")
                if msg.report is not None and self.pid:
                    raise CodecError("a report goes to the environment alone")
            except CodecError as exc:
                raise TransportError(f"processor {self.pid}: bad frame: {exc}") from exc
            out.append(msg)
            start = end
        del buf[:start]

    def close(self) -> None:
        for sock in chain(self._out.values(), self._in, [self._listener]):
            sock.close()
        self._selector.close()
