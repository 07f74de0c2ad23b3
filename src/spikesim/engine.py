"""Run orchestration. Every mode runs the same two steps, ``NodeState.step``
(one processor receives, computes, emits, and reports once it is idle) and
``EnvState.step`` (the environment advances T on an output or at proven
quiescence); no wall-clock timer advances T.

* ``drive`` -- one thread steps both in the order a ``choose`` function
  picks. ``DeterministicEngine`` is its round robin, reproducible
  bit-for-bit and certified against the sequential oracle; the tests'
  seeded schedules are its random orders.
* ``ThreadedEngine`` -- one thread per compute processor runs ``run_node``;
  the environment steps in the thread that mails it, under one lock.
* ``run_tcp_node`` / ``run_tcp_launcher`` -- one OS process per processor
  runs ``run_node`` over TCP; the launcher's own loop steps the environment.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable

from .environment import EnvState
from .events import EXT_NEURON, ProtocolViolation, TopologyError
from .neuron import ECState, Synapse
from .node import NodeState
from .oracle import trace_order
from .topology import MappingSpec, NetworkSpec
from .transport import (InProcBackend, Message, TcpBackend, TransportError,
                        load_roster)


class RunResult:
    def __init__(self, trace: list[tuple[int, int]], outputs: list[tuple[int, int]],
                 stats: dict[str, int], violations: list[str]) -> None:
        self.trace = trace  # every neuron firing (neuron, time)
        self.outputs = outputs  # spikes logged by the environment
        self.stats, self.violations = stats, violations


def build_simulation(net: NetworkSpec, mapping: MappingSpec,
                     stimuli: dict[int, list[int]], horizon: int,
                     timeout_ms: int = 20, only_node: int | None = None):
    """Instantiate the environment and the compute processors. One pass over
    ``net.synapses`` gives each cell its incoming synapses, and each
    processor its ``fanout`` (every source's local targets) and ``owners``
    (the other processors each local neuron reaches).

    ``only_node`` restricts construction to one processor (multi-process
    mode, where each OS process owns a single node).
    """
    owner_of = dict(mapping.assignment)
    if unmapped := net.neurons.keys() - owner_of.keys():
        raise TopologyError(f"neuron {min(unmapped)} unmapped")
    env = EnvState(procs=mapping.procs, stimuli=stimuli, owner_of=owner_of,
                   horizon=horizon, timeout_ms=timeout_ms)
    built = [pid for pid in range(1, mapping.procs + 1) if only_node in (None, pid)]
    incoming: dict[int, dict[int, Synapse]] = {nid: {} for nid in net.neurons
                                               if owner_of[nid] in built}
    fanout: dict[int, dict[int, list[int]]] = {pid: {} for pid in built}
    owners: dict[int, dict[int, set[int]]] = {pid: {} for pid in built}
    for src, dst, weight, delay in net.synapses:
        src_owner, dst_owner = owner_of[src], owner_of[dst]
        if dst in incoming:
            incoming[dst][src] = Synapse(weight, delay)
            fanout[dst_owner].setdefault(src, []).append(dst)
        if src_owner != dst_owner and src_owner in owners:
            owners[src_owner].setdefault(src, set()).add(dst_owner)
    for nid in net.inputs & incoming.keys():  # a stimulus lands one tick after its time
        incoming[nid][EXT_NEURON] = Synapse(net.neurons[nid].stim_weight, 1)
    nodes: dict[int, NodeState] = {}
    for pid in built:
        ecs = {nid: ECState(nid, net.neurons[nid], incoming[nid], horizon)
               for nid in incoming if owner_of[nid] == pid}
        nodes[pid] = NodeState(pid, mapping.procs, ecs, fanout=fanout[pid],
                               owners=owners[pid], outputs=set(net.outputs))
    return env, nodes


def aggregate_stats(env: EnvState, nodes: dict[int, NodeState]) -> dict[str, int]:
    stats = env.stats.as_dict()
    for node in nodes.values():
        for key, value in node.stats.as_dict().items():
            stats[key] = stats.get(key, 0) + value
    return stats


def run_result(env: EnvState, nodes: dict[int, NodeState],
               violations: list[str]) -> RunResult:
    trace = sorted((spike for node in nodes.values() for spike in node.trace),
                   key=trace_order)
    return RunResult(trace=trace, outputs=env.sorted_outputs(),
                     stats=aggregate_stats(env, nodes), violations=list(violations))


class InvariantMonitor:
    """Samples, before each environment step of ``drive``, the one fact no
    single actor can check: no processor's view runs ahead of the truth.
    Its T is at most the environment's, and its entry of another processor
    at most that processor's emission time or the environment's raise.
    Each node checks its own order as it steps (``NodeState``), in every mode.
    """

    def __init__(self, env: EnvState, nodes: dict[int, NodeState]) -> None:
        self.env = env
        self.nodes = nodes
        self.violations: list[str] = []
        self.samples = 0

    def _flag(self, text: str) -> None:
        if len(self.violations) < 50:
            self.violations.append(text)

    def check(self) -> None:
        self.samples += 1
        env, nodes = self.env, self.nodes
        for pid, node in nodes.items():
            if node.clock[0] > env.T:
                self._flag(f"node {pid}: T {node.clock[0]} ahead of {env.T}")
            for m, other in nodes.items():
                if m != pid and node.clock[m] > max(other.clock[m], env.raised):
                    self._flag(f"node {pid}: clock[{m}] {node.clock[m]} ahead of "
                               f"{other.clock[m]} and the raise {env.raised}")


def drive(env: EnvState, nodes: dict[int, NodeState], choose, minpak: int,
          monitor: InvariantMonitor) -> RunResult:
    """Step the environment (actor 0) and the processors in one thread, over
    one FIFO channel per ordered pair of actors, in the order ``choose`` picks.

    The driver takes the environment's first step. Then ``choose(waiting)``
    gets the set of actors that have mail or whose last step moved, and
    returns ``(actor, take)``, or None to end the run. The actor receives
    ``take(len(channel))`` messages from the front of each inbound channel,
    in sender order. ``monitor.check()`` runs before every later environment
    step. A ``ProtocolViolation`` ends the run as a violation. So does a run
    that is not over with no actor waiting: no step could advance T.
    """
    inboxes = {dest: {src: [] for src in (0, *nodes) if src != dest}
               for dest in (0, *nodes)}
    waiting: set[int] = set()
    actor, pairs = 0, env.step([])
    moved = bool(pairs)
    while True:
        if moved or any(inboxes[actor].values()):
            waiting.add(actor)
        else:
            waiting.discard(actor)
        for dest, msg in pairs:
            inboxes[dest][actor].append(msg)
            waiting.add(dest)
        if not (waiting or env.done):
            monitor.violations.append(f"no advancement at quiescence (T = {env.T})")
            break
        if (pick := choose(waiting)) is None:
            break
        actor, take = pick
        inbound: list[Message] = []
        for channel in inboxes[actor].values():
            if channel:
                count = take(len(channel))
                inbound += channel[:count]
                del channel[:count]
        try:
            if actor:
                moved, pairs = nodes[actor].step(inbound, minpak)
            else:
                monitor.check()
                pairs = env.step(inbound)
                moved = bool(pairs)
        except ProtocolViolation as exc:
            who = f"node {actor}" if actor else "environment"
            monitor.violations.append(f"{who}: {exc!r}")
            break
    return run_result(env, nodes, monitor.violations)


class DeterministicEngine:
    """The reference schedule: the next waiting processor after the last, in
    pid order and cyclically, takes all its mail; once none is waiting, the
    environment steps. Every run with the same inputs is identical."""

    def __init__(self, net: NetworkSpec, mapping: MappingSpec,
                 stimuli: dict[int, list[int]], horizon: int,
                 minpak: int = 1) -> None:
        self.env, self.nodes = build_simulation(net, mapping, stimuli, horizon)
        self.minpak = minpak
        self.monitor = InvariantMonitor(self.env, self.nodes)

    def run(self) -> RunResult:
        env, last = self.env, 0

        def choose(waiting: set[int]):
            nonlocal last
            if env.done:
                return None
            # A processor after the last, else the first one, else the environment.
            last = min(waiting, key=lambda pid: (pid == 0, pid <= last, pid), default=0)
            return last, lambda count: count  # the whole channel

        return drive(env, self.nodes, choose, self.minpak, self.monitor)


# -- free-running modes: one node loop -----------------------------------------

# Wall-clock budget of a tcp run, for the launcher and for each node process.
TCP_WALL_S = 120.0
# How long the launcher lets node processes run on after a run cut short,
# and waits for them to exit after a finished run.
STOP_GRACE_S = 1.0
EXIT_WAIT_S = 15.0
# How long ThreadedEngine waits for its node threads to stop after the run.
JOIN_S = 5.0
# First on each tcp node's PYTHONPATH: nodes import this spikesim, installed or not.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def ship(backend, pairs) -> None:
    """Send each ``(dest, msg)``, skipping a peer that has closed, which
    happens only once the run is over."""
    for dest, msg in pairs:
        try:
            backend.send(dest, msg)
        except TransportError:
            pass


def run_node(node: NodeState, env: EnvState, backend, minpak: int,
             stop: Callable[[], bool]) -> None:
    """Step one processor on its mail until it has seen the run end or
    ``stop()`` holds, then ship what is staged. After a step that moves
    nothing it waits for mail, at most ``env.timeout_ms`` at a time."""
    wait = 0.0
    while not env.past_end(node.clock[0]) and not stop():
        moved, messages = node.step(backend.poll(node.id, wait), minpak)
        ship(backend, messages)
        wait = 0.0 if moved else env.timeout_ms / 1000.0
    ship(backend, node.flush_ready(minpak, force=True))


class ThreadedEngine:
    """Free-running execution: one thread per compute processor. There is no
    environment thread: ``InProcBackend`` steps the environment in the node
    thread that mails it, under one lock, so at P=1 a tick costs no thread
    switch. A node's exception, the environment's included, stops the run."""

    def __init__(self, net: NetworkSpec, mapping: MappingSpec,
                 stimuli: dict[int, list[int]], horizon: int,
                 minpak: int = 1, timeout_ms: int = 20,
                 max_wall_s: float = 60.0) -> None:
        self.env, self.nodes = build_simulation(
            net, mapping, stimuli, horizon, timeout_ms=timeout_ms)
        self.minpak = minpak
        self.max_wall_s = max_wall_s
        self.backend = InProcBackend(mapping.procs, self.env)
        self._stop = threading.Event()
        self._errors: list[str] = []
        self._errlock = threading.Lock()

    def _node_loop(self, node: NodeState) -> None:
        try:
            run_node(node, self.env, self.backend, self.minpak,
                     self._stop.is_set)
        except Exception as exc:  # noqa: BLE001 - reported as a run violation
            with self._errlock:
                self._errors.append(f"node {node.id}: {exc!r}")
            self._stop.set()

    def run(self) -> RunResult:
        ship(self.backend, self.env.step([]))  # T = 1
        threads = [
            threading.Thread(target=self._node_loop, args=(node,), daemon=True)
            for node in self.nodes.values()
        ]
        for t in threads:
            t.start()
        try:
            deadline = time.monotonic() + self.max_wall_s
            for t in threads:
                t.join(max(0.0, deadline - time.monotonic()))
            late = any(t.is_alive() for t in threads)
            errors = ["wall-clock budget exceeded"] if late else []
        finally:
            # A finished run's final advancement stops every node; a run
            # cut short or interrupted stops them here.
            self._stop.set()
            deadline = time.monotonic() + JOIN_S
            for t in threads:
                t.join(max(0.0, deadline - time.monotonic()))
        # A thread still running may still write its node's trace.
        errors += [f"node {node.id}: thread still running {JOIN_S} s after the run"
                   for node, t in zip(self.nodes.values(), threads) if t.is_alive()]
        with self._errlock:
            self._errors.extend(errors)
        return run_result(self.env, self.nodes, self._errors)


def run_tcp_node(net: NetworkSpec, mapping: MappingSpec,
                 stimuli: dict[int, list[int]], horizon: int,
                 node_id: int, roster_path: str, minpak: int = 1,
                 timeout_ms: int = 20) -> NodeState:
    """Run one compute processor against live TCP peers until T passes
    ``horizon + EnvState.slack``; returns the node for trace extraction.
    Raises ``TransportError`` if the run is not over within ``TCP_WALL_S``."""
    roster = load_roster(roster_path)
    env, nodes = build_simulation(net, mapping, stimuli, horizon,
                                  timeout_ms=timeout_ms, only_node=node_id)
    node = nodes[node_id]
    backend = TcpBackend(node_id, roster)
    deadline = time.monotonic() + TCP_WALL_S

    def stop() -> bool:
        if time.monotonic() > deadline:
            raise TransportError(f"processor {node_id}: no end of run in {TCP_WALL_S} s")
        return False

    try:
        run_node(node, env, backend, minpak, stop)
    finally:
        backend.close()
    return node


def run_tcp_launcher(net: NetworkSpec, mapping: MappingSpec,
                     stimuli: dict[int, list[int]], horizon: int,
                     roster_path: str, node_argv: list[list[str]],
                     timeout_ms: int = 20,
                     max_wall_s: float = TCP_WALL_S) -> RunResult:
    """Spawn one subprocess per compute processor and act as the environment.

    ``node_argv`` holds the full command line for each node process; each
    node writes its firing trace to a shard file merged by the caller. A
    node that fails to start, a transport failure, a message the environment
    rejects and every non-zero exit of a node are violations; every node
    started is reaped before this returns.
    """
    import subprocess  # the launcher alone spawns; node processes never import it
    roster = load_roster(roster_path)
    env, _ = build_simulation(net, mapping, stimuli, horizon,
                              timeout_ms=timeout_ms, only_node=-1)
    paths = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    procs: list[subprocess.Popen] = []
    errors: list[str] = []
    backend = None

    def node_exited() -> bool:  # only a failing node exits before the end
        return any(p.poll() is not None for p in procs)

    try:
        for pid, argv in enumerate(node_argv, start=1):
            try:
                procs.append(subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=paths)))
            except OSError as exc:
                raise TransportError(
                    f"node process for processor {pid} failed to start: {exc}") from exc
        backend = TcpBackend(0, roster, give_up=node_exited)
        # Step until the run ends or a node fails, waiting on the inbox at
        # most env.timeout_ms at a time to check both and the budget.
        deadline = time.monotonic() + max_wall_s
        inbound: list[Message] = []
        while True:
            ship(backend, env.step(inbound))
            if env.done or node_exited():
                break
            if time.monotonic() > deadline:
                errors = ["wall-clock budget exceeded"]
                break
            inbound = backend.poll(0, env.timeout_ms / 1000.0)
    except TransportError as exc:
        errors = [str(exc)]
    except ProtocolViolation as exc:
        errors = [f"environment: {exc!r}"]
    finally:
        # After a finished run every node sees the final advancement (channels
        # are FIFO) and stops by itself, flushing to this backend until then;
        # after a run cut short, none does.
        deadline = time.monotonic() + (EXIT_WAIT_S if env.done else STOP_GRACE_S)
        for pid, p in enumerate(procs, start=1):
            # A blocking wait wakes at the exit; Popen.wait(timeout) would
            # poll with sleeps of up to 50 ms.
            waiter = threading.Thread(target=p.wait, daemon=True)
            waiter.start()
            waiter.join(max(0.0, deadline - time.monotonic()))
            code = p.returncode
            if waiter.is_alive():
                p.kill()
                code = f"{p.wait()} after the run stopped"
            if code != 0:
                errors.append(f"node process exited with {code} (processor {pid})")
        if backend is not None:
            backend.close()
    return run_result(env, {}, errors)
