"""Network description, static neuron-to-processor mapping, routing tables.

File formats (line oriented, ``#`` comments allowed):

network file
    neuron <id> theta <v> tau <v> reset <v> [model lif]
    synapse <src> <dst> <weight> <delay>
    input <id>
    output <id>

mapping file
    procs <P>
    assign <id> <proc>

stimulus file
    stim <neuron> <time>      # emission time; the neuron fires at time+1
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .events import TopologyError
from .neuron import NeuronParams, Synapse


@dataclass
class NetworkSpec:
    neurons: dict[int, NeuronParams] = field(default_factory=dict)
    synapses: list[tuple[int, int, float, int]] = field(default_factory=list)
    inputs: set[int] = field(default_factory=set)
    outputs: set[int] = field(default_factory=set)


@dataclass
class MappingSpec:
    assignment: dict[int, int] = field(default_factory=dict)
    procs: int = 1


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)
    d_min: dict[int, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(net: NetworkSpec, mapping: MappingSpec) -> ValidationReport:
    report = ValidationReport()
    for src, dst, _w, delay in net.synapses:
        if delay < 1:
            report.violations.append(f"synapse {src}->{dst}: delay {delay} < 1")
        if src not in net.neurons:
            report.violations.append(f"synapse {src}->{dst}: unknown source")
        if dst not in net.neurons:
            report.violations.append(f"synapse {src}->{dst}: unknown target")
    for nid in net.inputs | net.outputs:
        if nid not in net.neurons:
            report.violations.append(f"io neuron {nid} not declared")
    if mapping.procs < 1:
        report.violations.append(f"procs {mapping.procs} < 1")
    for nid, proc in mapping.assignment.items():
        if nid not in net.neurons:
            report.violations.append(f"assignment of unknown neuron {nid}")
        if proc < 1 or proc > mapping.procs:
            report.violations.append(
                f"neuron {nid} assigned to processor {proc} (0 is the environment)"
            )
    for nid in net.neurons:
        if nid not in mapping.assignment:
            report.violations.append(f"neuron {nid} unmapped")
    # Outputs that no synapse and no stimulus can ever reach.
    reachable = set(net.inputs)
    frontier = list(net.inputs)
    adj: dict[int, list[int]] = {}
    for src, dst, _w, _d in net.synapses:
        adj.setdefault(src, []).append(dst)
    while frontier:
        cur = frontier.pop()
        for nxt in adj.get(cur, ()):
            if nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    for nid in net.outputs:
        if nid in net.neurons and nid not in reachable:
            report.violations.append(f"output neuron {nid} unreachable from inputs")
    for nid, params in net.neurons.items():
        report.d_min[nid] = params.d_min
    return report


def build_post_tables(net: NetworkSpec, mapping: MappingSpec):
    """Per-processor routing: owner(N_i) gets N_i -> [(N_j, owner(N_j))].

    Weights and delays live with the postsynaptic cell (they are already in
    ``NeuronParams.synapses``); the presynaptic side stores routing only.
    """
    tables: dict[int, dict[int, list[tuple[int, int]]]] = {
        p: {} for p in range(1, mapping.procs + 1)
    }
    for nid in net.neurons:
        owner = mapping.assignment.get(nid)
        if owner is None:
            raise TopologyError(f"neuron {nid} unmapped")
        tables[owner].setdefault(nid, [])
    for src, dst, _w, _d in net.synapses:
        src_owner = mapping.assignment[src]
        dst_owner = mapping.assignment[dst]
        tables[src_owner][src].append((dst, dst_owner))
    for per_neuron in tables.values():
        for targets in per_neuron.values():
            targets.sort()
    return tables


def attach_synapses(net: NetworkSpec) -> None:
    """Materialize synapse list into each postsynaptic neuron's params."""
    for params in net.neurons.values():
        params.synapses.clear()
    for src, dst, weight, delay in net.synapses:
        if dst not in net.neurons or src not in net.neurons:
            raise TopologyError(f"synapse {src}->{dst}: unknown endpoint")
        params = net.neurons[dst]
        if src in params.synapses:
            raise TopologyError(f"duplicate synapse {src}->{dst}")
        params.synapses[src] = Synapse(weight=weight, delay=delay)
    for nid in net.inputs:
        net.neurons[nid].is_input = True


# -- parsing ----------------------------------------------------------------

def _tokens(path: str):
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line.split()


def load_network(path: str) -> NetworkSpec:
    net = NetworkSpec()
    for lineno, tok in _tokens(path):
        kind = tok[0]
        try:
            if kind == "neuron":
                nid = int(tok[1])
                kv = dict(zip(tok[2::2], tok[3::2]))
                model = kv.pop("model", "lif")
                if model != "lif":
                    raise TopologyError(f"unsupported neuron model {model!r}")
                net.neurons[nid] = NeuronParams(
                    threshold=float(kv["theta"]),
                    tau=float(kv["tau"]),
                    reset=float(kv.get("reset", 0.0)),
                )
            elif kind == "synapse":
                net.synapses.append(
                    (int(tok[1]), int(tok[2]), float(tok[3]), int(tok[4]))
                )
            elif kind == "input":
                net.inputs.add(int(tok[1]))
            elif kind == "output":
                net.outputs.add(int(tok[1]))
            else:
                raise TopologyError(f"unknown directive {kind!r}")
        except (IndexError, KeyError, ValueError) as exc:
            raise TopologyError(f"{path}:{lineno}: {exc}") from exc
    attach_synapses(net)
    return net


def load_mapping(path: str) -> MappingSpec:
    mapping = MappingSpec()
    for lineno, tok in _tokens(path):
        try:
            if tok[0] == "procs":
                mapping.procs = int(tok[1])
            elif tok[0] == "assign":
                mapping.assignment[int(tok[1])] = int(tok[2])
            else:
                raise TopologyError(f"unknown directive {tok[0]!r}")
        except (IndexError, ValueError) as exc:
            raise TopologyError(f"{path}:{lineno}: {exc}") from exc
    return mapping


def load_stimuli(path: str) -> dict[int, list[int]]:
    """Emission time -> list of input neuron ids."""
    schedule: dict[int, list[int]] = {}
    for lineno, tok in _tokens(path):
        try:
            if tok[0] != "stim":
                raise TopologyError(f"unknown directive {tok[0]!r}")
            neuron, time = int(tok[1]), int(tok[2])
        except (IndexError, ValueError) as exc:
            raise TopologyError(f"{path}:{lineno}: {exc}") from exc
        if time < 0:
            raise TopologyError(f"{path}:{lineno}: negative stimulus time")
        schedule.setdefault(time, []).append(neuron)
    for neurons in schedule.values():
        neurons.sort()
    return schedule


def save_network(net: NetworkSpec, path: str) -> None:
    with open(path, "w") as fh:
        for nid in sorted(net.neurons):
            p = net.neurons[nid]
            fh.write(f"neuron {nid} theta {p.threshold} tau {p.tau} reset {p.reset}\n")
        for src, dst, w, d in net.synapses:
            fh.write(f"synapse {src} {dst} {w} {d}\n")
        for nid in sorted(net.inputs):
            fh.write(f"input {nid}\n")
        for nid in sorted(net.outputs):
            fh.write(f"output {nid}\n")


def save_mapping(mapping: MappingSpec, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"procs {mapping.procs}\n")
        for nid in sorted(mapping.assignment):
            fh.write(f"assign {nid} {mapping.assignment[nid]}\n")


def save_stimuli(schedule: dict[int, list[int]], path: str) -> None:
    with open(path, "w") as fh:
        for time in sorted(schedule):
            for neuron in schedule[time]:
                fh.write(f"stim {neuron} {time}\n")


# -- random workload generator ------------------------------------------------

WEIGHT_RANGE = (0.3, 0.7)
DELAY_RANGE = (1, 5)
INHIBITORY_FRACTION = 0.25
STIM_RATE = 0.04  # stimulus probability per input neuron per tick


def generate_random(seed: int, n: int, prob: float, procs: int, horizon: int = 200):
    """Reproducible random network, round-robin mapping, sparse stimuli.

    Weights are quantized to 1/64 so threshold comparisons stay away from
    rounding noise. At least one inhibitory synapse and a delay spread of
    at least 2 are forced whenever the synapse count allows, so the
    delayed-firing path is exercised.
    """
    if not 0.0 <= prob <= 1.0:
        raise ValueError("connection probability must be in [0, 1]")
    if n < 1 or procs < 1:
        raise ValueError("n and procs must be positive")
    rng = random.Random(seed)
    net = NetworkSpec()
    for nid in range(n):
        tau = rng.choice([8.0, 12.0, 16.0, 20.0])
        net.neurons[nid] = NeuronParams(threshold=1.0, tau=tau, reset=0.0)

    lo, hi = WEIGHT_RANGE
    dlo, dhi = DELAY_RANGE
    for src in range(n):
        for dst in range(n):
            if src == dst or rng.random() >= prob:
                continue
            w = rng.uniform(lo, hi)
            if rng.random() < INHIBITORY_FRACTION:
                w = -w * 1.5
            w = round(w * 64) / 64.0
            d = rng.randint(dlo, dhi)
            net.synapses.append((src, dst, w, d))
    if net.synapses:
        if not any(w < 0 for _s, _d, w, _dl in net.synapses):
            src, dst, w, d = net.synapses[0]
            net.synapses[0] = (src, dst, -abs(w), d)
        if len(net.synapses) >= 2 and dhi - dlo >= 2:
            s0 = net.synapses[0]
            s1 = net.synapses[1]
            net.synapses[0] = (s0[0], s0[1], s0[2], dlo)
            net.synapses[1] = (s1[0], s1[1], s1[2], min(dhi, dlo + 4))

    k = max(1, n // 8)
    ids = list(range(n))
    rng.shuffle(ids)
    net.inputs = set(ids[:k])
    net.outputs = set(ids[k:2 * k]) or set(ids[:k])
    attach_synapses(net)

    mapping = MappingSpec(procs=procs)
    for i, nid in enumerate(sorted(net.neurons)):
        mapping.assignment[nid] = 1 + (i % procs)

    schedule: dict[int, list[int]] = {}
    for nid in sorted(net.inputs):
        for t in range(horizon):
            if rng.random() < STIM_RATE:
                schedule.setdefault(t, []).append(nid)
    for neurons in schedule.values():
        neurons.sort()
    return net, mapping, schedule
