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
is one encoded message preceded by a u32 length prefix.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

from .events import CMEvent, EXT_NEURON

MAGIC = b"DN"
VERSION = 1
_HEADER = struct.Struct("<2sBHH")
_CLOCK = struct.Struct("<i")
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
    if not 0 <= msg.sender < 1 << 16:
        raise CodecError(f"sender {msg.sender} out of range")
    if len(msg.clock) >= 1 << 16:
        raise CodecError("clock array too long")
    if len(msg.events) >= 1 << 32:
        raise CodecError("too many events")
    parts = [_HEADER.pack(MAGIC, VERSION, msg.sender, len(msg.clock))]
    for value in msg.clock:
        if not -(1 << 31) <= value < 1 << 31:
            raise CodecError(f"clock value {value} out of range")
        parts.append(_CLOCK.pack(value))
    parts.append(_NEVENTS.pack(len(msg.events)))
    for ev in msg.events:
        if not 0 <= ev.target < 1 << 32 or not 0 <= ev.source < 1 << 32:
            raise CodecError(f"neuron id out of range in {ev}")
        if not -(1 << 31) <= ev.stamp < 1 << 31:
            raise CodecError(f"stamp out of range in {ev}")
        parts.append(_EVENT.pack(ev.target, ev.source, ev.stamp))
    return b"".join(parts)


def decode(data: bytes) -> Message:
    try:
        magic, version, sender, nclock = _HEADER.unpack_from(data, 0)
    except struct.error as exc:
        raise CodecError(f"truncated header: {exc}") from exc
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r}")
    if version != VERSION:
        raise CodecError(f"unsupported version {version}")
    off = _HEADER.size
    clock = []
    try:
        for _ in range(nclock):
            clock.append(_CLOCK.unpack_from(data, off)[0])
            off += _CLOCK.size
        nevents = _NEVENTS.unpack_from(data, off)[0]
        off += _NEVENTS.size
        events = []
        for _ in range(nevents):
            target, source, stamp = _EVENT.unpack_from(data, off)
            off += _EVENT.size
            events.append(CMEvent(target=target, source=source, stamp=stamp))
    except struct.error as exc:
        raise CodecError(f"truncated message: {exc}") from exc
    if off != len(data):
        raise CodecError(f"{len(data) - off} trailing bytes")
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
    incoming connection per peer. A 2-byte hello carrying the sender id
    follows each connect. Reader threads feed the inbox that ``poll`` drains.
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
                sock.sendall(struct.pack("<H", self.pid))
                return sock
            except OSError:
                if time.monotonic() >= end:
                    raise TransportError(f"cannot reach processor {peer} at {host}:{port}")
                time.sleep(0.05)

    def _accept_loop(self, expected: int) -> None:
        for _ in range(expected):
            conn, _addr = self._listener.accept()
            _recv_exact(conn, 2)  # the hello: frames carry their sender
            threading.Thread(
                target=self._read_loop, args=(conn,), daemon=True
            ).start()

    def _read_loop(self, conn: socket.socket) -> None:
        try:
            while not self._stop.is_set():
                header = _recv_exact(conn, _FRAME.size)
                (length,) = _FRAME.unpack(header)
                payload = _recv_exact(conn, length)
                self._inbox.put(decode(payload))
        except (OSError, EOFError):
            pass  # peers close their sockets when they terminate
        finally:
            conn.close()

    def send(self, dest: int, msg: Message) -> None:
        msg.validate()
        payload = encode(msg)
        try:
            self._out[dest].sendall(_FRAME.pack(len(payload)) + payload)
        except OSError as exc:
            raise TransportError(f"send to {dest} failed: {exc}") from exc

    def poll(self, _pid: int | None = None, wait: float = 0) -> list[Message]:
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


def _recv_exact(conn: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = conn.recv(n - len(buf))
        if not chunk:
            raise EOFError("connection closed")
        buf += chunk
    return buf
