"""Run orchestration: deterministic, free-running, and multi-process modes.

* ``DeterministicEngine`` -- single thread, round-robin over processors
  with synchronous message delivery and exhaustive draining between
  actual-time advancements. The processors' own gates order the work; no
  scheduler orders stamps for them. Reproducible bit-for-bit; this is the
  mode certified against the sequential oracle.
* ``ThreadedEngine`` -- one free-running thread per processor.
* ``run_tcp_node`` / ``run_tcp_launcher`` -- one OS process per processor
  over TCP; the launcher doubles as the environment.

Both free-running modes drive the environment with ``run_environment`` and
each processor with ``run_node``, through a backend's ``send(dest, msg)``
and ``poll(pid, wait)``: in-process mailboxes or TCP sockets. Both loops
block on their inbox while they have nothing to do; mail wakes them. A
processor that runs out of work reports to the environment, which advances
T on an output or once the reports prove the run quiescent; no wall-clock
timer advances T.
"""

from __future__ import annotations

import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from .environment import EnvState
from .neuron import ECState
from .node import NodeState
from .oracle import trace_order
from .topology import MappingSpec, NetworkSpec, build_post_tables
from .transport import (InProcBackend, Message, Report, TcpBackend,
                        TransportError, load_roster)


@dataclass
class RunResult:
    trace: list[tuple[int, int]]            # every neuron firing (neuron, time)
    outputs: list[tuple[int, int]]          # spikes logged by the environment
    stats: dict[str, int]
    violations: list[str] = field(default_factory=list)


def build_simulation(net: NetworkSpec, mapping: MappingSpec,
                     stimuli: dict[int, list[int]], horizon: int,
                     timeout_ms: int = 20, only_node: int | None = None):
    """Instantiate the environment and the compute processors.

    ``only_node`` restricts construction to one processor (multi-process
    mode, where each OS process owns a single node).
    """
    tables = build_post_tables(net, mapping)
    owner_of = dict(mapping.assignment)
    env = EnvState(procs=mapping.procs, stimuli=stimuli, owner_of=owner_of,
                   horizon=horizon, timeout_ms=timeout_ms)
    nodes: dict[int, NodeState] = {}
    for pid in range(1, mapping.procs + 1):
        if only_node is not None and pid != only_node:
            continue
        ecs = {
            nid: ECState(nid, net.neurons[nid], sim_horizon=horizon)
            for nid in tables[pid]
        }
        # Routing must see every neuron's owner, not just local ones.
        nodes[pid] = NodeState(pid, mapping.procs, ecs,
                               post_tables=tables[pid], outputs=set(net.outputs))
    return env, nodes


def aggregate_stats(env: EnvState, nodes: dict[int, NodeState]) -> dict[str, int]:
    stats = env.stats.as_dict()
    for node in nodes.values():
        for key, value in node.stats.as_dict().items():
            stats[key] = stats.get(key, 0) + value
    return stats


def merge_traces(nodes: dict[int, NodeState]) -> list[tuple[int, int]]:
    trace: list[tuple[int, int]] = []
    for node in nodes.values():
        trace.extend(node.trace)
    trace.sort(key=trace_order)
    return trace


class InvariantMonitor:
    """Samples protocol invariants at controller-loop boundaries.

    Checked properties: the actual time is positive and never decreases;
    the environment's own emission time equals T and dominates every
    processor's emission time magnitude; register and clock magnitudes
    never decrease; register signs match queue emptiness.
    """

    def __init__(self, env: EnvState, nodes: dict[int, NodeState]) -> None:
        self.env = env
        self.nodes = nodes
        self.violations: list[str] = []
        self._prev_T = 0
        self._prev_et = {p: 0 for p in nodes}
        self._prev_pt = {p: 0 for p in nodes}
        self._prev_clock = {p: [0] * (env.procs + 1) for p in nodes}
        self.samples = 0

    def _flag(self, text: str) -> None:
        if len(self.violations) < 50:
            self.violations.append(text)

    def check(self) -> None:
        self.samples += 1
        env = self.env
        if env.T <= 0:
            self._flag(f"T = {env.T} not positive")
        if env.T < self._prev_T:
            self._flag(f"T decreased {self._prev_T} -> {env.T}")
        self._prev_T = env.T
        if env.clock[0] != env.T:
            self._flag(f"environment emission time {env.clock[0]} != T {env.T}")
        for pid, node in self.nodes.items():
            if env.T < abs(node.et):
                self._flag(f"node {pid}: |et| {abs(node.et)} exceeds T {env.T}")
            if env.T < abs(node.pt):
                self._flag(f"node {pid}: |pt| {abs(node.pt)} exceeds T {env.T}")
            if abs(node.et) < self._prev_et[pid]:
                self._flag(f"node {pid}: |et| decreased")
            if abs(node.pt) < self._prev_pt[pid]:
                self._flag(f"node {pid}: |pt| decreased")
            self._prev_et[pid] = abs(node.et)
            self._prev_pt[pid] = abs(node.pt)
            if (node.et >= 0) != (node.cp_live > 0) and node.et != 0:
                self._flag(f"node {pid}: et sign {node.et} vs live {node.cp_live}")
            if (node.pt >= 0) != (len(node.cm_queue) > 0) and node.pt != 0:
                self._flag(f"node {pid}: pt sign {node.pt} vs queue "
                           f"{len(node.cm_queue)}")
            for m in range(env.procs + 1):
                if abs(node.clock[m]) < self._prev_clock[pid][m]:
                    self._flag(f"node {pid}: clock[{m}] magnitude decreased")
                self._prev_clock[pid][m] = abs(node.clock[m])


class DeterministicEngine:
    """Single-threaded reference execution of the distributed protocol.

    Processors are stepped round-robin, each offered all its pending work,
    and messages are delivered synchronously; the actual time advances only
    once a whole pass moves nothing, which proves quiescence here without
    reports. The authorization gates alone keep
    stamps in order, so this mode tests them, and every run with the same
    inputs is identical.
    """

    def __init__(self, net: NetworkSpec, mapping: MappingSpec,
                 stimuli: dict[int, list[int]], horizon: int,
                 minpak: int = 1) -> None:
        self.env, self.nodes = build_simulation(net, mapping, stimuli, horizon)
        self.minpak = minpak
        self.monitor = InvariantMonitor(self.env, self.nodes)

    def _deliver(self, pairs) -> None:
        for dest, msg in pairs:
            if dest == 0:
                if self.env.on_output(msg):
                    self._advance_pending = True
            else:
                self.nodes[dest].receive(msg)

    def _drain(self) -> None:
        """Step every node until a whole pass moves nothing. Every pass ends
        by force-flushing all outboxes, so a partial batch never stalls it."""
        moved = True
        while moved:
            moved = False
            for pid in sorted(self.nodes):
                node = self.nodes[pid]
                computed = node.cpc_step()
                progress, messages = node.cmc_step(self.minpak)
                moved = moved or computed or progress or bool(messages)
                self._deliver(messages)
            for pid in sorted(self.nodes):
                leftovers = self.nodes[pid].flush_ready(self.minpak, force=True)
                moved = moved or bool(leftovers)
                self._deliver(leftovers)

    def run(self) -> RunResult:
        env = self.env
        self._advance_pending = False
        self._deliver(enumerate(env.advance_T(), start=1))
        while not env.done:
            self._drain()
            self.monitor.check()
            if self._advance_pending:
                self._advance_pending = False
                self._deliver(enumerate(env.advance_T(), start=1))
                continue
            floor = min(node.floor() for node in self.nodes.values())
            self._deliver(enumerate(env.on_timeout(floor), start=1))
        return RunResult(
            trace=merge_traces(self.nodes),
            outputs=env.sorted_outputs(),
            stats=aggregate_stats(env, self.nodes),
            violations=list(self.monitor.violations),
        )


# -- free-running modes: one environment loop and one node loop ----------------

# Wall-clock budget of a tcp run, for the launcher and for each node process.
TCP_WALL_S = 120.0


def ship(backend, pairs) -> None:
    """Send each ``(dest, msg)``, skipping a peer that has closed, which
    happens only once the run is over."""
    for dest, msg in pairs:
        try:
            backend.send(dest, msg)
        except TransportError:
            pass


def run_environment(env: EnvState, backend, max_wall_s: float,
                    stop: Callable[[], bool]) -> list[str]:
    """Advance T on outputs, or once the nodes' reports prove quiescence,
    until ``env.done``, ``stop()`` or ``max_wall_s``; returns the loop's
    violations. Between advancements the loop waits on its inbox, at most
    ``env.timeout_ms`` at a time, so it checks ``stop()`` and the budget."""
    wait_s = env.timeout_ms / 1000.0
    ship(backend, enumerate(env.advance_T(), start=1))
    deadline = time.monotonic() + max_wall_s
    while not env.done and not stop():
        if time.monotonic() > deadline:
            return ["wall-clock budget exceeded"]
        advanced = False
        for msg in backend.poll(0, wait_s):
            if msg.report is not None:
                env.on_report(msg)
            elif env.on_output(msg):
                advanced = True
        if advanced:
            ship(backend, enumerate(env.advance_T(), start=1))
        elif (floor := env.quiescence_floor()) is not None:
            ship(backend, enumerate(env.on_timeout(floor), start=1))
    return []


def run_node(node: NodeState, env: EnvState, backend, minpak: int,
             stop: Callable[[], bool]) -> None:
    """Deliver, compute and emit on one processor until it has seen T pass
    ``env.horizon + env.slack`` or ``stop()`` holds, then ship what is staged.

    Only mail can change an idle processor, so it ships its partial batches,
    reports to the environment if its message counts moved since its last
    report, and waits for mail, at most ``env.timeout_ms`` at a time."""
    end = env.horizon + env.slack
    wait = 0.0
    reported = None
    while abs(node.clock[0]) <= end and not stop():
        inbound = backend.poll(node.id, wait)
        for msg in inbound:
            node.receive(msg)
        computed = node.cpc_step()
        progress, messages = node.cmc_step(minpak)
        ship(backend, messages)
        wait = 0.0
        if not (inbound or computed or progress or messages):
            ship(backend, node.flush_ready(minpak, force=True))
            counts = (list(node.sent), list(node.received))
            if counts != reported:
                reported = counts
                report = Report(node.floor(), *counts)
                ship(backend, [(0, Message(node.id, [], report=report))])
            wait = env.timeout_ms / 1000.0
    ship(backend, node.flush_ready(minpak, force=True))


class ThreadedEngine:
    """Free-running execution: one thread per processor, plus the environment
    in the calling thread, which stops the run early when a node fails."""

    def __init__(self, net: NetworkSpec, mapping: MappingSpec,
                 stimuli: dict[int, list[int]], horizon: int,
                 minpak: int = 1, timeout_ms: int = 20,
                 max_wall_s: float = 60.0) -> None:
        self.env, self.nodes = build_simulation(
            net, mapping, stimuli, horizon, timeout_ms=timeout_ms)
        self.minpak = minpak
        self.max_wall_s = max_wall_s
        self.backend = InProcBackend(mapping.procs)
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
        threads = [
            threading.Thread(target=self._node_loop, args=(node,), daemon=True)
            for node in self.nodes.values()
        ]
        for t in threads:
            t.start()
        try:
            errors = run_environment(self.env, self.backend, self.max_wall_s,
                                     self._stop.is_set)
        finally:
            # A finished run's final advancement stops every node; a run
            # cut short never sends it.
            if not self.env.done:
                self._stop.set()
            for t in threads:
                t.join(timeout=5.0)
        with self._errlock:
            self._errors.extend(errors)
        return RunResult(
            trace=merge_traces(self.nodes),
            outputs=self.env.sorted_outputs(),
            stats=aggregate_stats(self.env, self.nodes),
            violations=list(self._errors),
        )


def run_tcp_node(net: NetworkSpec, mapping: MappingSpec,
                 stimuli: dict[int, list[int]], horizon: int,
                 node_id: int, roster_path: str, minpak: int = 1) -> NodeState:
    """Run one compute processor against live TCP peers until T passes
    ``horizon + EnvState.slack``; returns the node for trace extraction.
    Raises ``TransportError`` if the run is not over within ``TCP_WALL_S``."""
    roster = load_roster(roster_path)
    env, nodes = build_simulation(net, mapping, stimuli, horizon,
                                  only_node=node_id)
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
    node writes its firing trace to a shard file merged by the caller.
    """
    roster = load_roster(roster_path)
    env, _ = build_simulation(net, mapping, stimuli, horizon,
                              timeout_ms=timeout_ms, only_node=-1)
    procs = [subprocess.Popen(argv) for argv in node_argv]
    errors: list[str] = []
    backend = None
    try:
        backend = TcpBackend(0, roster)
        errors = run_environment(env, backend, max_wall_s, stop=lambda: False)
    finally:
        # Channels are FIFO, so every node sees the final advancement and
        # stops by itself; it may still flush to this backend until then.
        for p in procs:
            try:
                if p.wait(timeout=15.0) != 0:
                    errors.append(f"node process exited with {p.returncode}")
            except subprocess.TimeoutExpired:
                p.kill()
                errors.append("node process killed after timeout")
        if backend is not None:
            backend.close()
    return RunResult(trace=[], outputs=env.sorted_outputs(),
                     stats=env.stats.as_dict(), violations=errors)
