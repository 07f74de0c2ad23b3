"""Run orchestration. Every mode runs the same two steps, ``NodeState.step``
(one processor receives, computes, emits, and reports once it is idle) and
``EnvState.step`` (the environment advances T on an output or at proven
quiescence); no wall-clock timer advances T.

* ``drive`` -- one thread steps both in the order a ``choose`` function
  picks. ``DeterministicEngine`` is its round robin, reproducible
  bit-for-bit and certified against the sequential oracle; the tests'
  seeded schedules are its random orders.
* ``run_actor`` -- the one free-running loop, which steps an actor on its
  mail. ``ThreadedEngine`` runs it in one thread per compute processor; the
  environment steps in the thread that mails it, under one lock.
* ``run_tcp_node`` / ``run_tcp_launcher`` -- it runs over TCP in one OS
  process per processor, and as the launcher's environment.
  ``start_node`` forks a node that runs spikesim's own CLI and spawns any
  other. The launcher knows each node by its pid and an exit pipe (POSIX
  only), and starts no thread.
"""

from __future__ import annotations

import os
import select
import sys
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
                     timeout_ms: int = 20, only_node: int | None = None,
                     minpak: int = 1):
    """Instantiate the environment and the compute processors, which batch
    their messages to each other at ``minpak`` events. One pass over
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
                               owners=owners[pid], outputs=set(net.outputs),
                               minpak=minpak)
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


def drive(env: EnvState, nodes: dict[int, NodeState], choose,
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
    actors: dict[int, EnvState | NodeState] = {0: env, **nodes}
    inboxes = {dest: {src: [] for src in actors if src != dest} for dest in actors}
    waiting: set[int] = set()
    actor, (moved, pairs) = 0, env.step([])
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
            if not actor:
                monitor.check()
            moved, pairs = actors[actor].step(inbound)
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
        self.env, self.nodes = build_simulation(net, mapping, stimuli, horizon,
                                                minpak=minpak)
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

        return drive(env, self.nodes, choose, self.monitor)


# -- free-running modes: one actor loop ----------------------------------------

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
    """Send each ``(dest, msg)``, skipping a peer that has closed. A node
    closes once the run is over; one that failed before is reported when
    the environment reads its close."""
    for dest, msg in pairs:
        try:
            backend.send(dest, msg)
        except TransportError:
            pass


def run_actor(actor: int, step, over: Callable[[], bool], env: EnvState,
              backend, stop: Callable[[], bool]) -> None:
    """Step one actor (0 the environment) on its mail until ``over()`` or
    ``stop()`` holds, shipping what each step sends. ``step(inbound)``
    returns ``(moved, messages)``; after a step that moves nothing the actor
    waits for mail, at most ``env.timeout_ms`` at a time."""
    wait = 0.0
    while not over() and not stop():
        moved, messages = step(backend.poll(actor, wait))
        ship(backend, messages)
        wait = 0.0 if moved else env.timeout_ms / 1000.0


def run_node(node: NodeState, env: EnvState, backend,
             stop: Callable[[], bool]) -> None:
    """Run one processor until it has seen the run end or ``stop()`` holds,
    then ship what is staged."""
    run_actor(node.id, node.step, lambda: env.past_end(node.clock[0]), env,
              backend, stop)
    ship(backend, node.flush_ready(force=True))


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
            net, mapping, stimuli, horizon, timeout_ms=timeout_ms, minpak=minpak)
        self.max_wall_s = max_wall_s
        self.backend = InProcBackend(mapping.procs, self.env)
        self._stop = threading.Event()
        self._errors: list[str] = []
        self._errlock = threading.Lock()

    def _node_loop(self, node: NodeState) -> None:
        try:
            run_node(node, self.env, self.backend, self._stop.is_set)
        except Exception as exc:  # noqa: BLE001 - reported as a run violation
            with self._errlock:
                self._errors.append(f"node {node.id}: {exc!r}")
            self._stop.set()

    def run(self) -> RunResult:
        ship(self.backend, self.env.step([])[1])  # T = 1
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
                                  timeout_ms=timeout_ms, only_node=node_id,
                                  minpak=minpak)
    node = nodes[node_id]
    backend = TcpBackend(node_id, roster)
    deadline = time.monotonic() + TCP_WALL_S
    try:
        run_node(node, env, backend, lambda: time.monotonic() > deadline)
    finally:
        backend.close()
    if not env.past_end(node.clock[0]):
        raise TransportError(f"processor {node_id}: no end of run in {TCP_WALL_S} s")
    return node


def start_node(argv: list[str], fork: bool, env: dict[str, str]) -> tuple[int, int]:
    """Start one node process; return its pid and the read end of its exit
    pipe. The node holds the pipe's only write end, so the read end reaches
    end of file once the node has exited. With ``fork``, a command
    ``[sys.executable, "-m", "spikesim", *args]`` is forked and the child
    ends as that command would (``cli.run_and_exit``); any other command is
    spawned with ``env``. Raises ``OSError`` if the node cannot start."""
    exit_pipe, held = os.pipe()
    try:
        if fork and argv[:3] == [sys.executable, "-m", "spikesim"]:
            from .cli import run_and_exit  # before the fork, so that no child imports it
            sys.stdout.flush()  # else the child writes what is buffered once more
            sys.stderr.flush()
            pid = os.fork()
            if pid == 0:
                run_and_exit(argv[3:])
        else:
            os.set_inheritable(held, True)
            pid = os.posix_spawnp(argv[0], argv, env)
    except OSError:
        os.close(exit_pipe)
        raise
    finally:
        os.close(held)
    return pid, exit_pipe


def node_exits(exit_pipes: list[int], timeout: float) -> bool:
    """Whether a node with an exit pipe in ``exit_pipes`` has exited or
    exits within ``timeout`` seconds. ``poll``, since ``select`` takes no fd
    above ``FD_SETSIZE`` (1024)."""
    watch = select.poll()
    for exit_pipe in exit_pipes:
        watch.register(exit_pipe, select.POLLIN)
    return bool(watch.poll(timeout * 1000.0))  # ms


def run_tcp_launcher(net: NetworkSpec, mapping: MappingSpec,
                     stimuli: dict[int, list[int]], horizon: int,
                     roster_path: str, node_argv: list[list[str]],
                     timeout_ms: int = 20,
                     max_wall_s: float = TCP_WALL_S) -> RunResult:
    """Start one node process per compute processor and act as the environment.

    ``node_argv`` holds the full command line for each node process; each
    node writes its firing trace to a shard file merged by the caller. Each
    node starts through ``start_node``, which forks the CLI's own command
    only while no other thread runs. The environment steps in ``run_actor``;
    a node that fails mid-run closes its connections. Exit pipes serve the
    backend's build, which gives up once a node has exited, and the reaping.
    A node that fails to start, a transport failure, a message the
    environment rejects and every non-zero exit of a node are violations;
    every node started is reaped before this returns.
    """
    roster = load_roster(roster_path)
    env, _ = build_simulation(net, mapping, stimuli, horizon,
                              timeout_ms=timeout_ms, only_node=-1)
    fork = threading.active_count() == 1
    paths = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    spawn_env = dict(os.environ, PYTHONPATH=paths)
    children: list[int] = []
    exit_pipes: list[int] = []
    errors: list[str] = []
    backend = None
    try:
        # Every node starts before the backend opens a socket.
        for pid, argv in enumerate(node_argv, start=1):
            try:
                child, exit_pipe = start_node(argv, fork, spawn_env)
            except OSError as exc:
                raise TransportError(
                    f"node process for processor {pid} failed to start: {exc}") from exc
            children.append(child)
            exit_pipes.append(exit_pipe)
        # Only a failing node exits before the end.
        backend = TcpBackend(0, roster, give_up=lambda: node_exits(exit_pipes, 0.0))
        deadline = time.monotonic() + max_wall_s
        run_actor(0, env.step, lambda: env.done, env, backend,
                  lambda: time.monotonic() > deadline)
        if not env.done:
            errors = ["wall-clock budget exceeded"]
    except TransportError as exc:
        errors = [str(exc)]
    except ProtocolViolation as exc:
        errors = [f"environment: {exc!r}"]
    finally:
        # After a finished run every node sees the final advancement (channels
        # are FIFO) and stops by itself, flushing to this backend until then;
        # after a run cut short, none does.
        deadline = time.monotonic() + (EXIT_WAIT_S if env.done else STOP_GRACE_S)
        for pid, (child, exit_pipe) in enumerate(zip(children, exit_pipes), start=1):
            exited = node_exits([exit_pipe], max(0.0, deadline - time.monotonic()))
            os.close(exit_pipe)
            if not exited:
                os.kill(child, 9)  # SIGKILL
            code = os.waitstatus_to_exitcode(os.waitpid(child, 0)[1])
            if code != 0 or not exited:
                late = "" if exited else " after the run stopped"
                errors.append(f"node process exited with {code}{late} (processor {pid})")
        if backend is not None:
            backend.close()
    return run_result(env, {}, errors)
