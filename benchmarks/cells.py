"""Workloads and cells: one (seed, network) run to the horizon in one mode.

A cell never raises. A protocol violation, a node process that exits
non-zero or is left running, a missing trace shard, an overrun of the wall
budget and a trace that differs from the oracle all become the cell's
``reason``; the benchmark counts them in ``failed``.

Every call into spikesim goes through the module (``engine.X``,
``topology.X``) so that the tracing wrappers apply when installed.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from spikesim import engine, oracle, topology

BENCH_DIR = Path(__file__).resolve().parent
# A cell normally takes under 8 s, traced; a hang or livelock ends here.
CELL_BUDGET_S = 30.0
# The engines stop themselves at the budget; the alarm is the backstop for
# a run call that does not return, such as a tcp launcher still waiting on
# its node processes.
ALARM_GRACE_S = {"det": 0.0, "threads": 5.0, "tcp": 10.0}
# The environment's timeout, as the CLI's ``--timeout-ms`` default.
TIMEOUT_MS = 20


@dataclass
class Workload:
    name: str
    mode: str
    n: int
    prob: float
    procs: int
    horizon: int
    seeds: list[int]
    held_out: list[int]


def load_workloads() -> dict[str, Workload]:
    with open(BENCH_DIR / "workloads.json") as fh:
        return {name: Workload(name=name, **spec)
                for name, spec in json.load(fh).items()}


@dataclass
class CellFiles:
    seed: int
    net: str
    mapping: str
    stim: str


def write_inputs(wl: Workload, seeds: list[int], workdir: Path) -> list[CellFiles]:
    """Generate each seed's network, mapping and stimuli as files."""
    files = []
    for seed in seeds:
        net, mapping, stimuli = topology.generate_random(
            seed=seed, n=wl.n, prob=wl.prob, procs=wl.procs, horizon=wl.horizon)
        prefix = str(workdir / f"s{seed}")
        cf = CellFiles(seed, prefix + ".net", prefix + ".map", prefix + ".stim")
        topology.save_network(net, cf.net)
        topology.save_mapping(mapping, cf.mapping)
        topology.save_stimuli(stimuli, cf.stim)
        files.append(cf)
    return files


@dataclass
class Built:
    files: CellFiles
    net: topology.NetworkSpec
    mapping: topology.MappingSpec
    stimuli: dict[int, list[int]]
    sim: object | None  # the det/threads engine; tcp nodes build their own


def set_up(wl: Workload, cf: CellFiles) -> Built:
    """Load and validate the inputs, then build the simulation.

    For tcp the launcher and each node process build their own part, so
    the whole simulation is built here once to time the same work.
    """
    net = topology.load_network(cf.net)
    mapping = topology.load_mapping(cf.mapping)
    stimuli = topology.load_stimuli(cf.stim)
    report = topology.validate(net, mapping)
    if not report.ok:
        raise ValueError(f"seed {cf.seed}: invalid inputs: {report.violations[:3]}")
    if wl.mode == "det":
        sim = engine.DeterministicEngine(net, mapping, stimuli, wl.horizon)
    elif wl.mode == "threads":
        sim = engine.ThreadedEngine(net, mapping, stimuli, wl.horizon,
                                    timeout_ms=TIMEOUT_MS,
                                    max_wall_s=CELL_BUDGET_S)
    else:
        engine.build_simulation(net, mapping, stimuli, wl.horizon,
                                timeout_ms=TIMEOUT_MS)
        sim = None
    return Built(cf, net, mapping, stimuli, sim)


@dataclass
class Outcome:
    seed: int
    ticks: int           # final actual time T reached
    run_s: float         # host seconds in the run call
    reason: str | None   # None when the cell passed
    silent: bool = False  # trace != oracle although no failure was reported
    stats: dict[str, int] = field(default_factory=dict)
    node_stats: dict[int, dict[str, int]] = field(default_factory=dict)
    node_counts: list[dict] = field(default_factory=list)  # tcp, traced only
    trace: list[tuple[int, int]] = field(default_factory=list)  # dropped once checked

    @property
    def ok(self) -> bool:
        return self.reason is None


class BudgetExceeded(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise BudgetExceeded(f"wall budget of {CELL_BUDGET_S:.0f} s exceeded")


def free_ports(count: int) -> list[int]:
    """Ports the kernel hands out now; bound together so they differ."""
    socks = []
    try:
        for _ in range(count):
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def stop_children() -> int:
    """Kill and reap any child process still alive; returns how many."""
    me = os.getpid()
    found = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Fields after the parenthesised command name: state, ppid, ...
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) != me:
            continue
        pid = int(entry)
        if fields[0] != "Z":
            found += 1
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return found


def cli_node_argv(wl: Workload, b: Built, roster: str, prefix: str) -> list[list[str]]:
    """The node processes the CLI's ``run --mode tcp`` launches."""
    return [[sys.executable, "-m", "spikesim", "run",
             "--net", b.files.net, "--map", b.files.mapping, "--stim", b.files.stim,
             "--mode", "tcp", "--horizon", str(wl.horizon), "--minpak", "1",
             "--roster", roster, "--node", str(pid), "--out", prefix]
            for pid in range(1, wl.procs + 1)]


def traced_node_argv(wl: Workload, b: Built, roster: str, prefix: str) -> list[list[str]]:
    """The same node processes, through the benchmark's traced node command."""
    return [[sys.executable, str(BENCH_DIR / "tcp_node.py"),
             "--net", b.files.net, "--map", b.files.mapping, "--stim", b.files.stim,
             "--horizon", str(wl.horizon), "--roster", roster,
             "--node", str(pid), "--out", prefix,
             "--counts", f"{prefix}.counts{pid}"]
            for pid in range(1, wl.procs + 1)]


def run_cell(wl: Workload, b: Built, reference: list[tuple[int, int]],
             workdir: Path, node_argv=cli_node_argv) -> Outcome:
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, CELL_BUDGET_S + ALARM_GRACE_S[wl.mode])
    try:
        if wl.mode == "tcp":
            out = _run_tcp(wl, b, workdir, node_argv)
        else:
            out = _run_inproc(b)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if wl.mode == "tcp":
        left = stop_children()
        if left and out.ok:
            out.reason = f"{left} node process(es) left running"
    if out.ok and out.trace != reference:
        diff = oracle.compare_traces(out.trace, reference)
        out.reason = "trace != oracle: " + diff.render().splitlines()[0]
        out.silent = True
    out.trace = []
    return out


def _failure(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{exc!r} at {Path(frame.filename).name}:{frame.lineno}"


def _run_inproc(b: Built) -> Outcome:
    sim = b.sim
    trace, reason = [], None
    start = time.perf_counter()
    try:
        result = sim.run()
        trace = result.trace
        if result.violations:
            reason = "; ".join(result.violations[:3])
    except Exception as exc:  # noqa: BLE001 - one failed cell, never a crash
        reason = _failure(exc)
    run_s = time.perf_counter() - start
    out = Outcome(seed=b.files.seed, ticks=sim.env.T, run_s=run_s, reason=reason,
                  stats=engine.aggregate_stats(sim.env, sim.nodes),
                  node_stats={pid: n.stats.as_dict() for pid, n in sim.nodes.items()},
                  trace=trace)
    return out


def _run_tcp(wl: Workload, b: Built, workdir: Path, node_argv) -> Outcome:
    prefix = str(workdir / f"s{b.files.seed}.trace")
    shards = [f"{prefix}.shard{pid}" for pid in range(1, wl.procs + 1)]
    counts = [f"{prefix}.counts{pid}" for pid in range(1, wl.procs + 1)]
    for path in shards + counts:
        if os.path.exists(path):
            os.remove(path)
    roster = str(workdir / f"s{b.files.seed}.roster")
    with open(roster, "w") as fh:
        for pid, port in enumerate(free_ports(wl.procs + 1)):
            fh.write(f"{pid} 127.0.0.1:{port}\n")
    out = Outcome(seed=b.files.seed, ticks=0, run_s=0.0, reason=None)
    argv = node_argv(wl, b, roster, prefix)
    start = time.perf_counter()
    try:
        result = engine.run_tcp_launcher(
            b.net, b.mapping, b.stimuli, wl.horizon, roster_path=roster,
            node_argv=argv, timeout_ms=TIMEOUT_MS, max_wall_s=CELL_BUDGET_S)
    except Exception as exc:  # noqa: BLE001 - one failed cell, never a crash
        out.run_s = time.perf_counter() - start
        out.reason = _failure(exc)
        return out
    out.run_s = time.perf_counter() - start
    out.ticks = result.stats["advancements"]
    out.stats = dict(result.stats)
    reasons = list(result.violations)
    for pid, shard in enumerate(shards, start=1):
        if os.path.exists(shard):
            out.trace.extend(oracle.read_trace(shard))
        else:
            reasons.append(f"missing trace shard {pid}")
    out.trace.sort(key=lambda nt: (nt[1], nt[0]))
    for pid, path in enumerate(counts, start=1):
        if os.path.exists(path):
            with open(path) as fh:
                data = json.load(fh)
            out.node_counts.append(data)
            if "node_stats" in data:
                out.node_stats[pid] = data["node_stats"]
                for key, value in data["node_stats"].items():
                    out.stats[key] = out.stats.get(key, 0) + value
    if reasons:
        out.reason = "; ".join(reasons[:3])
    return out
