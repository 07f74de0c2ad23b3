"""Spans and counters around the public calls of each spikesim module.

``install`` replaces module attributes and class methods with wrappers
that record one span per call: (name, start, end, parent, cell), taken
with ``perf_counter_ns`` and kept in memory per thread. Nothing under
``src/`` changes; the wrappers sit at the module boundaries, so a span's
self time is its duration minus its children's. ``membrane_step`` is only
counted, which keeps the trace affordable on replay-heavy workloads.

Each thread records into its own state, so free-running node threads never
share an accumulator. A tcp node process installs the same wrappers and
hands its totals back through ``Recorder.export``.

In det and threads mode no message is encoded. There the recorder keeps
every message sent and ``computed_codec`` encodes and decodes them after
the round, outside any span: the codec cost and wire bytes those messages
would have had, labelled computed.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
import types
from array import array
from collections import Counter

from spikesim import engine, environment, neuron, node, topology, transport

# Stable ids, so node processes and the launcher agree on them.
SPAN_NAMES = (
    "engine.run",            # engine loop: DeterministicEngine.run,
                             # ThreadedEngine.run, run_tcp_launcher
    "engine.node_loop",      # free-running node loop (thread or process)
    "engine.monitor",
    "engine.sleep",
    "neuron.integrate",
    "node.cpc_step",
    "node.cmc_step",
    "node.receive",
    "node.flush_ready",
    "environment.advance_T",
    "environment.on_timeout",
    "environment.on_output",
    "transport.encode",
    "transport.decode",
    "transport.send",
    "transport.poll",
    "transport.connect",
    "topology.load",
    "topology.validate",
    "topology.build",
)
NAME_ID = {name: i for i, name in enumerate(SPAN_NAMES)}
ROOTS = (NAME_ID["engine.run"], NAME_ID["engine.node_loop"])
ADVANCES = (NAME_ID["environment.advance_T"], NAME_ID["environment.on_timeout"])
SPAN_FIELDS = 5  # name id, start ns, end ns, parent index, cell

# The codec itself, kept before ``install`` wraps it.
_encode, _decode = transport.encode, transport.decode


class ThreadState:
    """One thread's spans, per-name totals and counters."""

    def __init__(self, role: str) -> None:
        self.role = role
        self.stack: list[list[int]] = []   # [span index, start ns, child ns]
        self.spans = array("q")
        self.totals: dict[int, list[int]] = {}  # name id -> calls, busy, child
        self.counts: Counter = Counter()
        self.messages: list = []  # sent messages, when the recorder keeps them


class Recorder:
    def __init__(self, main_role: str, keep_messages: bool = False) -> None:
        self.main_role = main_role
        self.keep_messages = keep_messages
        self.cell = -1
        self.states: list[ThreadState] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def state(self) -> ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            main = threading.current_thread() is threading.main_thread()
            st = ThreadState(self.main_role if main else "io")
            self._local.st = st
            with self._lock:
                self.states.append(st)
        return st

    def reset(self) -> None:
        """Forget every thread's records (start of a traced round)."""
        with self._lock:
            for st in self.states:
                st.spans = array("q")
                st.totals.clear()
                st.counts.clear()
                st.messages.clear()

    def export(self) -> dict:
        """Totals and counters by role, as plain JSON data."""
        totals: dict[str, dict[str, list[int]]] = {}
        counts: Counter = Counter()
        for st in self.states:
            per_role = totals.setdefault(st.role, {})
            for nid, (calls, busy, child) in st.totals.items():
                acc = per_role.setdefault(SPAN_NAMES[nid], [0, 0, 0])
                acc[0] += calls
                acc[1] += busy
                acc[2] += child
            counts.update(st.counts)
        return {"totals": totals, "counts": dict(counts)}

    def main_spans(self) -> array:
        for st in self.states:
            if st.role == self.main_role and st.spans:
                return st.spans
        return array("q")

    def write_spans(self, path: str) -> None:
        """Raw spans, one int64 array per thread, plus a JSON index."""
        index = {"names": SPAN_NAMES, "fields": SPAN_FIELDS, "threads": []}
        with open(path + ".bin", "wb") as fh:
            for st in self.states:
                index["threads"].append({"role": st.role, "offset": fh.tell(),
                                         "spans": len(st.spans) // SPAN_FIELDS})
                st.spans.tofile(fh)
        with open(path + ".json", "w") as fh:
            json.dump(index, fh)


def _wrap(rec: Recorder, name: str, fn, after=None, role: str | None = None):
    nid = NAME_ID[name]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        st = rec.state()
        if role is not None:
            st.role = role
        stack = st.stack
        spans = st.spans
        idx = len(spans) // SPAN_FIELDS
        start = time.perf_counter_ns()
        spans.extend((nid, start, 0, stack[-1][0] if stack else -1, rec.cell))
        frame = [idx, start, 0]
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[idx * SPAN_FIELDS + 2] = end
            dur = end - start
            tot = st.totals.get(nid)
            if tot is None:
                tot = st.totals[nid] = [0, 0, 0]
            tot[0] += 1
            tot[1] += dur
            tot[2] += frame[2]
            if stack:
                stack[-1][2] += dur
        if after is not None:
            after(rec, st, result)
        return result

    return wrapper


def _count_integration(_rec, st, result) -> None:
    st.counts["forecasts"] += len(result.new_forecasts)
    st.counts["cancellations"] += len(result.cancellations)


def _count_node_messages(rec, st, pairs) -> None:
    st.counts["node_messages"] += len(pairs)
    for _dest, msg in pairs:
        st.counts["node_events"] += len(msg.events)
        if rec.keep_messages:
            st.messages.append(msg)


def _count_broadcast(rec, st, messages) -> None:
    st.counts["env_messages"] += len(messages)
    if rec.keep_messages:
        st.messages.extend(messages)


def _count_poll(_rec, st, messages) -> None:
    st.counts["polls"] += 1
    if not messages:
        st.counts["empty_polls"] += 1


def _count_encoded(_rec, st, payload) -> None:
    st.counts["encoded_bytes"] += len(payload)


def computed_codec(rec: Recorder) -> dict[str, int]:
    """Encode and decode every kept message: wire bytes and codec ns."""
    out = {"bytes": 0, "encode_ns": 0, "decode_ns": 0}
    for st in rec.states:
        for msg in st.messages:
            t0 = time.perf_counter_ns()
            payload = _encode(msg)
            t1 = time.perf_counter_ns()
            _decode(payload)
            out["decode_ns"] += time.perf_counter_ns() - t1
            out["encode_ns"] += t1 - t0
            out["bytes"] += len(payload)
    return out


def install(rec: Recorder) -> None:
    """Wrap the public calls of neuron, node, engine, environment,
    transport and topology. Callers must reach them through the module
    (``engine.run_tcp_launcher``, ``topology.load_network``), as the
    benchmark does, for the module-level wrappers to apply."""
    def patch(owner, attr, name, **kw):
        setattr(owner, attr, _wrap(rec, name, getattr(owner, attr), **kw))

    real_step = neuron.membrane_step

    def membrane_step(*args, **kwargs):
        rec.state().counts["membrane_steps"] += 1
        return real_step(*args, **kwargs)

    # The cell's binding only; the oracle imported its own.
    neuron.membrane_step = membrane_step
    patch(neuron.ECState, "integrate", "neuron.integrate", after=_count_integration)

    patch(node.NodeState, "cpc_step", "node.cpc_step")
    patch(node.NodeState, "cmc_step", "node.cmc_step")
    patch(node.NodeState, "receive", "node.receive")
    patch(node.NodeState, "flush_ready", "node.flush_ready",
          after=_count_node_messages)

    patch(environment.EnvState, "advance_T", "environment.advance_T",
          after=_count_broadcast)
    patch(environment.EnvState, "on_timeout", "environment.on_timeout",
          after=_count_broadcast)
    patch(environment.EnvState, "on_output", "environment.on_output")

    patch(transport, "encode", "transport.encode", after=_count_encoded)
    patch(transport, "decode", "transport.decode")
    for backend in (transport.InProcBackend, transport.TcpBackend):
        patch(backend, "send", "transport.send")
        patch(backend, "poll", "transport.poll", after=_count_poll)
    patch(transport.TcpBackend, "__init__", "transport.connect")

    for attr in ("load_network", "load_mapping", "load_stimuli"):
        patch(topology, attr, "topology.load")
    patch(topology, "validate", "topology.validate")
    patch(engine, "build_simulation", "topology.build")

    patch(engine.DeterministicEngine, "run", "engine.run")
    patch(engine.ThreadedEngine, "run", "engine.run")
    patch(engine, "run_tcp_launcher", "engine.run")
    # The thread target of ThreadedEngine; the root span of a node thread.
    patch(engine.ThreadedEngine, "_node_loop", "engine.node_loop", role="node")
    patch(engine, "run_tcp_node", "engine.node_loop", role="node")
    patch(engine.InvariantMonitor, "check", "engine.monitor")
    # Only the engine's sleeps; other modules keep the real time module.
    engine.time = types.SimpleNamespace(
        monotonic=time.monotonic,
        sleep=_wrap(rec, "engine.sleep", time.sleep))


# -- per-layer metrics ------------------------------------------------------------

def merge(into: dict, export: dict) -> None:
    """Add one ``Recorder.export`` (e.g. from a node process) into another."""
    for role, per_name in export["totals"].items():
        dest = into["totals"].setdefault(role, {})
        for name, values in per_name.items():
            acc = dest.setdefault(name, [0, 0, 0])
            for i, v in enumerate(values):
                acc[i] += v
    counts = Counter(into["counts"])
    counts.update(export["counts"])
    into["counts"] = dict(counts)


def tick_gaps_ms(spans: array) -> list[float]:
    """Host time between successive advancements of T, within each cell."""
    last: dict[int, int] = {}
    gaps = []
    for i in range(0, len(spans), SPAN_FIELDS):
        if spans[i] in ADVANCES:
            start, cell = spans[i + 1], spans[i + 4]
            if cell in last:
                gaps.append((start - last[cell]) / 1e6)
            last[cell] = start
    return gaps


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(export: dict, gaps: list[float], cells: list,
                  codec: dict[str, int] | None, untraced_rate: float,
                  traced_rate: float) -> dict[str, float]:
    """The per-layer metrics of the traced rounds.

    ``cells`` are those rounds' outcomes (stats summed and per node).
    ``codec`` is ``computed_codec``'s result where nothing was encoded.
    """
    def total(name: str, field: int, role: str | None = None) -> int:
        return sum(per_name.get(name, (0, 0, 0))[field]
                   for r, per_name in export["totals"].items()
                   if role is None or r == role)

    def busy_s(name: str, role: str | None = None) -> float:
        return total(name, 1, role) / 1e9

    def self_s(name: str, role: str | None = None) -> float:
        return (total(name, 1, role) - total(name, 2, role)) / 1e9

    counts = Counter(export["counts"])
    stats: Counter = Counter()
    for cell in cells:
        stats.update(cell.stats)
    imbalance = []
    for cell in cells:
        computed = [s["computed"] for s in cell.node_stats.values()]
        if computed and sum(computed):
            imbalance.append(max(computed) / statistics.mean(computed))
    integrations = total("neuron.integrate", 0)
    roots_busy = sum(total(SPAN_NAMES[r], 1) for r in ROOTS)
    roots_child = sum(total(SPAN_NAMES[r], 2) for r in ROOTS)
    p = statistics.quantiles(gaps, n=100) if len(gaps) >= 2 else [0.0] * 99
    if codec is None:
        encode_s = busy_s("transport.encode")
        decode_s = busy_s("transport.decode")
        wire_bytes = counts["encoded_bytes"]
    else:
        encode_s = codec["encode_ns"] / 1e9
        decode_s = codec["decode_ns"] / 1e9
        wire_bytes = codec["bytes"]
    return {
        "neuron.integrate.calls": integrations,
        "neuron.integrate.busy_s": busy_s("neuron.integrate"),
        "neuron.replay_steps_per_integrate":
            _ratio(counts["membrane_steps"], integrations),
        "neuron.cancel_ratio": _ratio(counts["cancellations"], counts["forecasts"]),
        "node.cpc_step.self_s": self_s("node.cpc_step"),
        "node.cmc_step.busy_s": busy_s("node.cmc_step"),
        "node.receive.busy_s": busy_s("node.receive"),
        "node.flush_ready.busy_s": busy_s("node.flush_ready"),
        "node.emit_delay_ratio": _ratio(
            stats["delayed_emissions"], stats["emitted"] + stats["delayed_emissions"]),
        "node.delayed_computations": stats["delayed_computations"],
        "node.events_per_message":
            _ratio(counts["node_events"], counts["node_messages"]),
        "node.computed.max_over_mean":
            statistics.mean(imbalance) if imbalance else 0.0,
        "engine.scheduler.self_s": self_s("engine.run", "env"),
        "engine.monitor.busy_s": busy_s("engine.monitor"),
        "engine.idle_sleep_s.env": busy_s("engine.sleep", "env"),
        "engine.idle_sleep_s.node": busy_s("engine.sleep", "node"),
        "environment.timeout_share":
            _ratio(stats["timeouts"], stats["advancements"]),
        "environment.tick_gap_ms.p50": p[49],
        "environment.tick_gap_ms.p98": p[97],
        "environment.broadcast.busy_s":
            busy_s("environment.advance_T") + busy_s("environment.on_timeout"),
        "transport.encode.busy_s": encode_s,
        "transport.decode.busy_s": decode_s,
        "transport.bytes": wire_bytes,
        "transport.msgs_per_tick": _ratio(
            counts["node_messages"] + counts["env_messages"],
            sum(cell.ticks for cell in cells)),
        "transport.poll.empty_ratio":
            _ratio(counts["empty_polls"], counts["polls"]),
        "topology.load.busy_s":
            busy_s("topology.load") + busy_s("topology.validate"),
        "topology.build.busy_s": busy_s("topology.build"),
        "trace.overhead_ratio": _ratio(untraced_rate, traced_rate),
        "trace.layer_share": _ratio(roots_child, roots_busy),
    }


def self_time_table(export: dict) -> list[tuple[str, str, int, float, float]]:
    """(role, span, calls, busy s, self s) rows, largest self time first."""
    rows = []
    for role, per_name in export["totals"].items():
        for name, (calls, busy, child) in per_name.items():
            rows.append((role, name, calls, busy / 1e9, (busy - child) / 1e9))
    rows.sort(key=lambda r: -r[4])
    return rows
