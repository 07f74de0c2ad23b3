"""Message codec and delivery backends.

Wire layout (little-endian, bit-exact):

    magic   2 bytes  0x44 0x4E ("DN")
    version 1 byte   1
    sender  u16
    nclock  u16      P + 1
    clocks  i32 * nclock
    nevents u32
    events  (target u32, source u32, stamp i32) * nevents

The external-environment neuron id encodes as 0xFFFFFFFF. Each TCP frame
is one encoded message preceded by a u32 length prefix; frames carry their
sender, so a connection sends nothing but frames.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from itertools import chain

from .events import CMEvent

MAGIC = b"DN"
VERSION = 1
_HEADER = struct.Struct("<2sBHH")
_NEVENTS = struct.Struct("<I")
_EVENT = struct.Struct("<IIi")
_FRAME = struct.Struct("<I")


class CodecError(ValueError):
    """Malformed or out-of-range wire data."""


@dataclass
class Message:
    sender: int
    clock: list[int]
    events: list[CMEvent] = field(default_factory=list)

    def validate(self) -> None:
        if not self.events and self.sender != 0:
            raise CodecError("only the environment may send clock-only messages")


def merge_clock_into(local: list[int], remote: list[int], own: int) -> None:
    """Take each remote entry of larger or equal magnitude, except ``own``."""
    for m in range(len(local)):
        if m != own and abs(remote[m]) >= abs(local[m]):
            local[m] = remote[m]


def encode(msg: Message) -> bytes:
    """Pack ``msg``; struct rejects every value the layout cannot hold."""
    try:
        return b"".join((
            _HEADER.pack(MAGIC, VERSION, msg.sender, len(msg.clock)),
            struct.pack(f"<{len(msg.clock)}i", *msg.clock),
            _NEVENTS.pack(len(msg.events)),
            struct.pack("<" + "IIi" * len(msg.events), *chain.from_iterable(msg.events)),
        ))
    except struct.error as exc:
        raise CodecError(f"value out of range: {exc}") from exc


def decode(data: bytes) -> Message:
    try:
        magic, version, sender, nclock = _HEADER.unpack_from(data)
    except struct.error as exc:
        raise CodecError(f"truncated header: {exc}") from exc
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r}")
    if version != VERSION:
        raise CodecError(f"unsupported version {version}")
    off = _HEADER.size + 4 * nclock
    try:
        clock = list(struct.unpack_from(f"<{nclock}i", data, _HEADER.size))
        (nevents,) = _NEVENTS.unpack_from(data, off)
    except struct.error as exc:
        raise CodecError(f"truncated message: {exc}") from exc
    off += _NEVENTS.size
    if len(data) - off != nevents * _EVENT.size:
        raise CodecError(f"{len(data) - off} bytes left for {nevents} events")
    events = list(map(CMEvent._make, _EVENT.iter_unpack(memoryview(data)[off:])))
    return Message(sender=sender, clock=clock, events=events)


# -- roster -------------------------------------------------------------------

def load_roster(path: str) -> dict[int, tuple[str, int]]:
    """`<id> <host>:<port>` per line; must include the environment (id 0)."""
    roster: dict[int, tuple[str, int]] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                pid_s, addr = line.split()
                host, port_s = addr.rsplit(":", 1)
                roster[int(pid_s)] = (host, int(port_s))
            except ValueError as exc:
                raise CodecError(f"{path}:{lineno}: bad roster line") from exc
    return roster


# -- delivery backends -----------------------------------------------------------

def _drain(box: queue.Queue, wait: float) -> list[Message]:
    """Wait up to ``wait`` seconds for a first message, then take every
    message already queued behind it."""
    try:
        out = [box.get(block=wait > 0, timeout=wait)]
    except queue.Empty:
        return []
    while True:
        try:
            out.append(box.get_nowait())
        except queue.Empty:
            return out


class InProcBackend:
    """Thread-safe mailbox delivery for free-running in-process runs.

    Per-channel FIFO holds because each sender enqueues its own messages in
    send order and ``queue.Queue`` preserves insertion order.
    """

    def __init__(self, procs: int) -> None:
        self.inboxes: dict[int, queue.Queue] = {p: queue.Queue() for p in range(procs + 1)}

    def send(self, dest: int, msg: Message) -> None:
        msg.validate()
        self.inboxes[dest].put(msg)

    def poll(self, pid: int, wait: float = 0) -> list[Message]:
        return _drain(self.inboxes[pid], wait)


# -- TCP backend ----------------------------------------------------------------

class TransportError(RuntimeError):
    pass


# How long a TcpBackend keeps trying to reach and hear from its peers.
CONNECT_TIMEOUT_S = 15.0


class TcpBackend:
    """One connection per ordered processor pair, established at startup.

    Each endpoint listens on its roster address; for every peer it opens
    one outgoing connection (used only for its own sends) and accepts one
    incoming connection per peer. Connections carry nothing but frames, and
    frames carry their sender. One reader thread per incoming connection
    reads frames through a buffered reader into the inbox that ``poll``
    drains.
    """

    def __init__(self, pid: int, roster: dict[int, tuple[str, int]]) -> None:
        self.pid = pid
        self.roster = roster
        self._inbox: queue.Queue = queue.Queue()
        self._out: dict[int, socket.socket] = {}
        self._stop = threading.Event()

        host, port = roster[pid]
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(len(roster))
        peers = [p for p in roster if p != pid]
        self._accepter = threading.Thread(
            target=self._accept_loop, args=(len(peers),), daemon=True
        )
        self._accepter.start()
        for peer in sorted(peers):
            self._out[peer] = self._connect(peer)
        self._accepter.join(timeout=CONNECT_TIMEOUT_S)
        if self._accepter.is_alive():
            raise TransportError(f"processor {pid}: peers failed to connect")

    def _connect(self, peer: int) -> socket.socket:
        host, port = self.roster[peer]
        end = time.monotonic() + CONNECT_TIMEOUT_S
        while True:
            try:
                sock = socket.create_connection((host, port), timeout=2.0)
                sock.settimeout(None)
                return sock
            except OSError:
                if time.monotonic() >= end:
                    raise TransportError(f"cannot reach processor {peer} at {host}:{port}")
                time.sleep(0.05)

    def _accept_loop(self, expected: int) -> None:
        for _ in range(expected):
            conn, _addr = self._listener.accept()
            threading.Thread(
                target=self._read_loop, args=(conn,), daemon=True
            ).start()

    def _read_loop(self, conn: socket.socket) -> None:
        # Peers close their sockets when they terminate; an EOF or a short
        # read ends the loop.
        try:
            with conn, conn.makefile("rb") as reader:
                while not self._stop.is_set():
                    header = reader.read(_FRAME.size)
                    if len(header) < _FRAME.size:
                        return
                    (length,) = _FRAME.unpack(header)
                    payload = reader.read(length)
                    if len(payload) < length:
                        return
                    self._inbox.put(decode(payload))
        except OSError:
            pass

    def send(self, dest: int, msg: Message) -> None:
        msg.validate()
        payload = encode(msg)
        try:
            self._out[dest].sendall(_FRAME.pack(len(payload)) + payload)
        except OSError as exc:
            raise TransportError(f"send to {dest} failed: {exc}") from exc

    def poll(self, pid: int, wait: float = 0) -> list[Message]:
        return _drain(self._inbox, wait)

    def close(self) -> None:
        self._stop.set()
        for sock in self._out.values():
            try:
                sock.close()
            except OSError:
                pass
        try:
            self._listener.close()
        except OSError:
            pass
