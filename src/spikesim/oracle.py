"""Ground-truth sequential simulator and trace comparison.

The oracle keeps one global queue of arrivals keyed by effective time
(emission stamp + synaptic delay). Processing arrivals in effective-time
order makes every fire decision final, so no forecasting, cancellation or
certification machinery is needed. Membrane updates go through the same
single-tick rule as the distributed cells (`neuron.membrane_step`) so both
simulators perform identical floating-point operations.
"""

from __future__ import annotations

import heapq
from collections import Counter

from .events import EXT_NEURON
from .neuron import membrane_step
from .topology import NetworkSpec, read_tokens

SpikeTrace = list[tuple[int, int]]  # (neuron, time), sorted by trace_order


def trace_order(spike: tuple[int, int]) -> tuple[int, int]:
    """Sort key of a trace: by time, then by neuron."""
    return spike[1], spike[0]


def sequential_simulate(net: NetworkSpec, stimuli: dict[int, list[int]],
                        horizon: int) -> SpikeTrace:
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    adjacency: dict[int, list[tuple[int, float, int]]] = {}
    for src, dst, w, d in net.synapses:
        adjacency.setdefault(src, []).append((dst, w, d))
    for targets in adjacency.values():
        targets.sort()

    # heap of (effective_time, target, source, stamp, weight)
    heap: list[tuple[int, int, int, int, float]] = []
    for t in sorted(stimuli):
        for nid in stimuli[t]:
            params = net.neurons[nid]
            heapq.heappush(heap, (t + 1, nid, EXT_NEURON, t, params.stim_weight))

    potential = {nid: p.reset for nid, p in net.neurons.items()}
    last_time = {nid: 0 for nid in net.neurons}
    spikes: SpikeTrace = []

    while heap:
        eff, target = heap[0][0], heap[0][1]
        if eff > horizon:
            break
        group = []
        while heap and heap[0][0] == eff and heap[0][1] == target:
            _eff, _tgt, source, stamp, weight = heapq.heappop(heap)
            group.append((source, stamp, weight))
        params = net.neurons[target]
        # Heap pops arrive in (source, stamp) order, so the group is sorted.
        v, fired = membrane_step(potential[target], last_time[target], eff, group, params)
        potential[target] = v
        last_time[target] = eff
        if fired:
            spikes.append((target, eff))
            for dst, w, d in adjacency.get(target, ()):
                heapq.heappush(heap, (eff + d, dst, target, eff, w))

    spikes.sort(key=trace_order)
    return spikes


class TraceDiff:
    def __init__(self, missing_in_b: SpikeTrace, missing_in_a: SpikeTrace) -> None:
        self.missing_in_b, self.missing_in_a = missing_in_b, missing_in_a
        self.first_divergence = min(missing_in_a + missing_in_b, key=trace_order,
                                    default=None)

    @property
    def empty(self) -> bool:
        return not self.missing_in_a and not self.missing_in_b

    def render(self) -> str:
        if self.empty:
            return "traces identical"
        lines = [f"first divergence at (time={self.first_divergence[1]}, "
                 f"neuron={self.first_divergence[0]})"]
        for neuron, time in self.missing_in_b:
            lines.append(f"only in a: spike {neuron} {time}")
        for neuron, time in self.missing_in_a:
            lines.append(f"only in b: spike {neuron} {time}")
        return "\n".join(lines)


def compare_traces(a: SpikeTrace, b: SpikeTrace) -> TraceDiff:
    """Compare as multisets, so a spike emitted twice is a difference."""
    ca, cb = Counter(a), Counter(b)
    return TraceDiff(missing_in_b=sorted((ca - cb).elements(), key=trace_order),
                     missing_in_a=sorted((cb - ca).elements(), key=trace_order))


def write_trace(trace: SpikeTrace, path: str) -> None:
    with open(path, "w") as fh:
        for neuron, time in sorted(trace, key=trace_order):
            fh.write(f"spike {neuron} {time}\n")


def read_trace(path: str) -> SpikeTrace:
    trace: SpikeTrace = []
    for lineno, tok in read_tokens(path):
        if tok[0] != "spike" or len(tok) != 3:
            raise ValueError(f"{path}:{lineno}: bad trace line")
        trace.append((int(tok[1]), int(tok[2])))
    return trace
