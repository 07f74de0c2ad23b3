"""Network description, static neuron-to-processor mapping, file formats.

``NetworkSpec.synapses`` is the network's one synapse table, each
(src, dst, weight, delay) once; ``NeuronParams`` holds the neuron model
alone. ``engine.build_simulation`` reads this table once: it gives each
cell it builds its incoming synapses, and each processor the routing of
the spikes that reach its cells.

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

from .events import TopologyError
from .neuron import NeuronParams


class NetworkSpec:
    def __init__(self, neurons: dict[int, NeuronParams] | None = None,
                 synapses: list[tuple[int, int, float, int]] | None = None,
                 inputs: set[int] | None = None, outputs: set[int] | None = None) -> None:
        self.neurons = {} if neurons is None else neurons
        self.synapses = [] if synapses is None else synapses
        self.inputs = set() if inputs is None else inputs
        self.outputs = set() if outputs is None else outputs


class MappingSpec:
    def __init__(self, assignment: dict[int, int] | None = None, procs: int = 1) -> None:
        self.assignment = {} if assignment is None else assignment
        self.procs = procs


class ValidationReport:
    def __init__(self, violations: list[str]) -> None:
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations


def _synapse_targets(net: NetworkSpec) -> tuple[dict[int, set[int]], list[str]]:
    """Each declared neuron's targets, and the synapse list's faults in list
    order: an unknown endpoint, a (src, dst) pair already listed, a delay
    below 1."""
    neurons, problems = net.neurons, []
    targets: dict[int, set[int]] = {nid: set() for nid in neurons}
    for src, dst, _w, delay in net.synapses:
        seen = targets.get(src)
        if seen is None or dst not in neurons:
            problems.append(f"synapse {src}->{dst}: unknown endpoint")
        elif dst in seen:
            problems.append(f"duplicate synapse {src}->{dst}")
        else:
            seen.add(dst)
        if delay < 1:
            problems.append(f"synapse {src}->{dst}: delay {delay} < 1")
    return targets, problems


def validate(net: NetworkSpec, mapping: MappingSpec) -> ValidationReport:
    targets, problems = _synapse_targets(net)
    report = ValidationReport(problems)
    for nid in net.inputs | net.outputs:
        if nid not in net.neurons:
            report.violations.append(f"io neuron {nid} not declared")
    if mapping.procs < 1:
        report.violations.append(f"procs {mapping.procs} < 1")
    for nid, proc in mapping.assignment.items():
        if nid not in net.neurons:
            report.violations.append(f"assignment of unknown neuron {nid}")
        if not 1 <= proc <= mapping.procs:
            why = " (0 is the environment)" if proc == 0 else f", outside 1..{mapping.procs}"
            report.violations.append(f"neuron {nid} assigned to processor {proc}{why}")
    for nid in net.neurons:
        if nid not in mapping.assignment:
            report.violations.append(f"neuron {nid} unmapped")
    # Outputs that no synapse and no stimulus can ever reach.
    reachable = set(net.inputs)
    frontier = list(net.inputs)
    while frontier:
        cur = frontier.pop()
        for nxt in targets.get(cur, ()):
            if nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    for nid in net.outputs:
        if nid in net.neurons and nid not in reachable:
            report.violations.append(f"output neuron {nid} unreachable from inputs")
    return report


def validate_stimuli(net: NetworkSpec, stimuli: dict[int, list[int]]) -> list[str]:
    """Stimuli may only target declared inputs: only an input's cell has a
    stimulus synapse."""
    return [f"stimulus at {t} for neuron {nid}, which is not a declared input"
            for t, nids in sorted(stimuli.items()) for nid in nids
            if nid not in net.inputs]


# -- parsing ----------------------------------------------------------------

def read_tokens(path: str):
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line.split()


def load_network(path: str) -> NetworkSpec:
    net = NetworkSpec()
    for lineno, tok in read_tokens(path):
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
    _targets, problems = _synapse_targets(net)  # once every neuron is declared
    if problems:
        raise TopologyError(problems[0])
    return net


def load_mapping(path: str) -> MappingSpec:
    mapping = MappingSpec()
    for lineno, tok in read_tokens(path):
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
    for lineno, tok in read_tokens(path):
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
