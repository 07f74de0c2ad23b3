import os
import socket
import threading

import pytest


@pytest.fixture
def free_ports():
    """Return a function giving ``count`` distinct ports the kernel hands out."""
    def take(count: int) -> list[int]:
        socks = []
        try:
            for _ in range(count):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.bind(("127.0.0.1", 0))
                socks.append(sock)
            return [sock.getsockname()[1] for sock in socks]
        finally:
            for sock in socks:
                sock.close()
    return take


class Started(list):
    """The pids of the node processes started through ``os.<how>``, one of
    ``fork`` and ``posix_spawnp``; starting one the other way fails."""

    def __init__(self, monkeypatch, how: str) -> None:
        super().__init__()
        start = getattr(os, how)

        def recorded(*args, **kwargs):
            pid = start(*args, **kwargs)
            if pid:  # 0 in a forked child
                self.append(pid)
            return pid

        def refuse(*args, **_kwargs):
            raise AssertionError(f"started {args}")

        monkeypatch.setattr(os, how, recorded)
        monkeypatch.setattr(os, "posix_spawnp" if how == "fork" else "fork", refuse)

    def assert_reaped(self) -> None:
        for pid in self:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)


@pytest.fixture
def forked(monkeypatch):
    """The pids of the node processes the launcher forks; it spawns none."""
    assert threading.active_count() == 1  # else the launcher would spawn
    return Started(monkeypatch, "fork")


@pytest.fixture
def spawned(monkeypatch):
    """The pids of the node processes the launcher spawns; it forks none."""
    return Started(monkeypatch, "posix_spawnp")
