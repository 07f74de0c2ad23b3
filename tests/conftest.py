import socket

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
