"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The randomized sweep (criteria 1, 2, 4, 5) is computed once and shared.
"""

import random
import time

import pytest

from spikesim.engine import DeterministicEngine, ThreadedEngine
from spikesim.events import CMEvent, CPEvent, Spike
from spikesim.neuron import ECState, NeuronParams, Synapse
from spikesim.node import AuthDecision, NodeState
from spikesim.oracle import compare_traces, read_trace, sequential_simulate
from spikesim.topology import (MappingSpec, NetworkSpec,
                               generate_random, save_mapping, save_network,
                               save_stimuli)
from spikesim.transport import Broadcast, Spikes, decode, encode

SEEDS = range(100)
PROCS = (1, 2, 4)
HORIZON = 200


def _params_for(seed: int) -> tuple[int, float]:
    """Network size 16..64 and connection probability 0.05..0.2."""
    return 16 + (seed % 4) * 16, 0.05 + (seed % 7) * 0.025


_sweep_cache = {}


def sweep():
    """Run every (seed, P) cell once: traces, oracle traces, violations."""
    if _sweep_cache:
        return _sweep_cache
    start = time.perf_counter()
    results = {}
    for seed in SEEDS:
        n, prob = _params_for(seed)
        net, _m, stimuli = generate_random(seed=seed, n=n, prob=prob,
                                           procs=1, horizon=HORIZON)
        expected = sequential_simulate(net, stimuli, HORIZON)
        per_p = {}
        for procs in PROCS:
            _net, mapping, _s = generate_random(seed=seed, n=n, prob=prob,
                                                procs=procs, horizon=HORIZON)
            engine = DeterministicEngine(net, mapping, stimuli, HORIZON)
            run = engine.run()
            per_p[procs] = run
        results[seed] = (expected, per_p)
    _sweep_cache["results"] = results
    _sweep_cache["seconds"] = time.perf_counter() - start
    return _sweep_cache


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_oracle_equivalence():
    data = sweep()
    mismatches = []
    spikes = 0
    for seed, (expected, per_p) in data["results"].items():
        spikes += len(expected)
        for procs, run in per_p.items():
            if not compare_traces(run.trace, expected).empty:
                mismatches.append((seed, procs))
    ok = not mismatches and data["seconds"] < 120.0
    report(1, ok,
           f"{len(SEEDS)}x{len(PROCS)} runs, {spikes} oracle spikes, "
           f"{len(mismatches)} mismatches, {data['seconds']:.1f}s (<120s)")


def test_criterion_2_partition_independence():
    data = sweep()
    unequal = [seed for seed, (_e, per_p) in data["results"].items()
               if len({tuple(run.trace) for run in per_p.values()}) != 1]
    report(2, not unequal,
           f"traces identical across P={PROCS} for "
           f"{len(data['results']) - len(unequal)}/{len(data['results'])} nets")


def delayed_firing_net():
    # Neurons 1-3 fire at 1 and land on 5 at 6, so 5 forecasts a spike at 6.
    # Inhibitory neuron 4 fires one stamp later, at 2, and lands at 3: its
    # arrival is computed after the forecast and must cancel it, whatever
    # the order of arrivals within one stamp.
    net = NetworkSpec()
    for nid in (1, 2, 3, 4, 5):
        net.neurons[nid] = NeuronParams(threshold=1.0, tau=10.0)
    for src in (1, 2, 3):
        net.synapses.append((src, 5, 0.4, 5))
    net.synapses.append((4, 5, -2.0, 1))  # inhibitory, smaller delay
    net.inputs = {1, 2, 3, 4}
    net.outputs = {5}
    return net, {0: [1, 2, 3], 1: [4]}


def test_criterion_3_delayed_firing_scenario():
    net, stimuli = delayed_firing_net()
    mapping = MappingSpec(assignment={n: 1 for n in net.neurons}, procs=1)
    run = DeterministicEngine(net, mapping, stimuli, horizon=20).run()
    oracle = sequential_simulate(net, stimuli, 20)
    target_dist = [s for s in run.trace if s[0] == 5]
    target_oracle = [s for s in oracle if s[0] == 5]
    cancels = run.stats["cancellations"]
    ok = (target_dist == [] and target_oracle == [] and cancels >= 1
          and compare_traces(run.trace, oracle).empty and not run.violations)
    report(3, ok, f"target spikes dist={target_dist} oracle={target_oracle}, "
                  f"{cancels} cancellation(s)")


def test_criterion_4_condition_suite():
    data = sweep()
    violations = [v for _e, per_p in data["results"].values()
                  for run in per_p.values() for v in run.violations]
    # the monitor also needs to have actually sampled states
    net, mapping, stimuli = generate_random(seed=0, n=16, prob=0.1, procs=2)
    engine = DeterministicEngine(net, mapping, stimuli, horizon=50)
    engine.run()
    samples = engine.monitor.samples
    ok = not violations and samples > 0
    report(4, ok, f"{len(violations)} violations over "
                  f"{len(data['results']) * len(PROCS)} runs "
                  f"({samples} boundary samples in probe run)")


def test_criterion_5_safety_no_invalid_cancellations():
    # Cancelling an emitted or certain forecast raises inside the run and
    # surfaces in RunResult.violations, so "zero violations" covers both
    # safety properties across deterministic and free-running modes.
    data = sweep()
    det_violations = [v for _e, per_p in data["results"].values()
                      for run in per_p.values() for v in run.violations]
    free_violations = []
    runs = 0
    for seed in range(20):
        net, mapping, stimuli = generate_random(seed=seed, n=16, prob=0.12,
                                                procs=3, horizon=50)
        for _rep in range(5):
            run = ThreadedEngine(net, mapping, stimuli, horizon=50,
                                 timeout_ms=4).run()
            runs += 1
            free_violations.extend(run.violations)
    ok = not det_violations and not free_violations
    report(5, ok, f"0 emitted/certain-then-cancelled forecasts; "
                  f"{runs} free-running runs, "
                  f"{len(free_violations)} violations")


def test_free_running_matches_oracle_at_readme_size():
    # Criterion 5 samples small nets and reads only violations; this run
    # compares whole traces on the README's network size, where threads
    # once failed with `stale arrival` in 4 of 10 seeds.
    failures = []
    for seed in range(10):
        net, mapping, stimuli = generate_random(seed=seed, n=64, prob=0.1,
                                                procs=4, horizon=HORIZON)
        run = ThreadedEngine(net, mapping, stimuli, horizon=HORIZON).run()
        expected = sequential_simulate(net, stimuli, HORIZON)
        if run.violations or not compare_traces(run.trace, expected).empty:
            failures.append((seed, run.violations[:1]))
    assert failures == []


def test_criterion_6_liveness_through_timeouts():
    start = time.perf_counter()
    net, mapping, stimuli = generate_random(seed=1, n=16, prob=0.0, procs=2,
                                            horizon=50)
    silent = DeterministicEngine(net, mapping, stimuli, horizon=50).run()
    silent_threaded = ThreadedEngine(net, mapping, stimuli, horizon=50,
                                     timeout_ms=5).run()

    loop_net = NetworkSpec()
    loop_net.neurons = {1: NeuronParams(1.0, 1e9), 2: NeuronParams(1.0, 1e9),
                        3: NeuronParams(1.0, 10.0)}
    loop_net.synapses = [(1, 2, 1.5, 2), (2, 1, 1.5, 2), (1, 3, 0.01, 1)]
    loop_net.inputs = {1}
    loop_net.outputs = {3}
    loop_map = MappingSpec(assignment={1: 1, 2: 1, 3: 2}, procs=2)
    loop = DeterministicEngine(loop_net, loop_map, {0: [1]}, horizon=50).run()

    elapsed = time.perf_counter() - start
    ok = (silent.stats["advancements"] > 50 and silent.stats["timeouts"] > 0
          and silent_threaded.stats["advancements"] > 50
          and silent_threaded.stats["timeouts"] > 0
          and loop.stats["advancements"] > 50 and loop.outputs == []
          and not (silent.violations or silent_threaded.violations
                   or loop.violations)
          and elapsed < 10.0)
    report(6, ok, f"horizon 50 reached: silent det/threads timeouts "
                  f"{silent.stats['timeouts']}/{silent_threaded.stats['timeouts']}, "
                  f"loop advancements {loop.stats['advancements']}, "
                  f"{elapsed:.1f}s (<10s)")


def test_criterion_7_batching_neutrality():
    net, mapping, stimuli = generate_random(seed=7, n=64, prob=0.1, procs=4,
                                            horizon=HORIZON)
    traces, counts = [], []
    for minpak in (1, 4, 16):
        run = DeterministicEngine(net, mapping, stimuli, HORIZON,
                                  minpak=minpak).run()
        assert not run.violations
        traces.append(run.trace)
        counts.append(run.stats["messages_sent"])
    identical = traces[0] == traces[1] == traces[2]
    monotone = counts[0] >= counts[1] >= counts[2]
    report(7, identical and monotone,
           f"traces identical={identical}, messages {counts} non-increasing")


def test_criterion_8_wire_fidelity(tmp_path, free_ports):
    rng = random.Random(20260826)
    checked = 0
    for _ in range(10_000):
        # Half broadcasts (T and the raise, any events), half node messages
        # (an emission time and at least one spike).
        sender = rng.randrange(1, 1 << 16) if rng.randrange(2) else 0
        stamps = [rng.randrange(-(1 << 31), 1 << 31) for _ in range(1 if sender else 2)]
        events = [Spike(rng.randrange(1 << 32), rng.randrange(-(1 << 31), 1 << 31))
                  for _ in range(rng.randrange(1 if sender else 0, 6))]
        msg = Spikes(sender, *stamps, events) if sender else Broadcast(*stamps, events)
        back = decode(encode(msg))
        assert type(back) is type(msg) and back == msg
        checked += 1

    # 2-process tcp run of a criterion-1 style network.
    from spikesim.cli import main
    net, mapping, stimuli = generate_random(seed=0, n=16, prob=0.12, procs=2,
                                            horizon=60)
    prefix = str(tmp_path / "w")
    save_network(net, prefix + ".net")
    save_mapping(mapping, prefix + ".map")
    save_stimuli(stimuli, prefix + ".stim")
    roster = tmp_path / "roster"
    roster.write_text("".join(f"{pid} 127.0.0.1:{port}\n"
                              for pid, port in enumerate(free_ports(3))))
    tcp_trace = str(tmp_path / "tcp.trace")
    code = main(["run", "--net", prefix + ".net", "--map", prefix + ".map",
                 "--stim", prefix + ".stim", "--mode", "tcp",
                 "--horizon", "60", "--roster", str(roster),
                 "--timeout-ms", "10", "--out", tcp_trace])
    inproc = DeterministicEngine(net, mapping, stimuli, horizon=60).run()
    tcp = read_trace(tcp_trace)
    equal = compare_traces(tcp, inproc.trace).empty
    report(8, code == 0 and equal,
           f"{checked} codec round-trips; tcp trace == in-process trace: "
           f"{equal}")


def test_criterion_9_authorization_branch_coverage():
    def node():
        cells = {nid: ECState(nid, NeuronParams(1.0, 10.0), {9: Synapse(2.0, 2)}, 100)
                 for nid in (7, 8, 9)}
        return NodeState(1, 2, cells, fanout={9: [7, 8, 9]}, owners={}, outputs=set())

    checks = []

    def emission(st, et, pt, running, clock, expect, pending=False):
        n = node()
        e = n.ecs[7].queued[st] = CPEvent(source=7, stamp=st)
        n.queue_forecast(e)
        if pending:  # an incoming spike at pt waits behind the started one
            n.cm_queue.file(9, pt, [7])
        n.pt, n.running, n.clock = pt, running, clock
        n.clock[n.id] = et  # the own entry is the emission time
        checks.append(n.emission_authorized(e) is expect)

    emission(5, 5, 1, {8}, [9, 5, 1], True)    # at the emission time
    emission(9, 3, 2, {8}, [9, 3, 1], False)   # out of order
    emission(9, 3, 8, set(), [9, 3, 9], True,
             pending=True)                     # order safe past stamp 8
    emission(6, 4, 8, {8}, [9, 4, 1], True,
             pending=True)                     # behind processing
    emission(7, 4, 6, set(), [9, 4, 7], True)  # quiescent, order safe
    emission(7, 4, 6, set(), [9, 4, 8], True)  # remote ahead
    emission(7, 4, 6, {8}, [9, 4, 7], False)   # computations running
    emission(7, 4, 3, set(), [9, 4, 7], False,
             pending=True)                     # incoming pending
    emission(7, 4, 6, set(), [9, 4, 5], False)  # remote behind
    emission(7, 4, 6, set(), [9, 4, 3], False)  # remote idle below

    def computation(st, pt, running, clock, forecast=None,
                    et=None, expect=AuthDecision.DELAYED):
        n = node()
        e = CMEvent(target=7, source=9, stamp=st)
        n.cm_queue.file(e.source, e.stamp, [e.target])
        if forecast is not None:
            f = n.ecs[7].queued[forecast] = CPEvent(source=7, stamp=forecast)
            n.queue_forecast(f)
        n.pt, n.running, n.clock = pt, running, clock
        if et is not None:
            n.clock[n.id] = et
        checks.append(n.computation_authorized(e) is expect)

    computation(5, 3, {7}, [6, 4, 9],
                expect=AuthDecision.PRIORITY_DEFERRED)  # its cell is running
    computation(5, 5, {8}, [6, 4, 9], expect=AuthDecision.AUTHORIZED)
    computation(5, 3, set(), [6, 4, 9], expect=AuthDecision.AUTHORIZED)
    computation(5, 3, set(), [6, 3, 5], forecast=6, et=3,
                expect=AuthDecision.AUTHORIZED)        # local deadlock
    computation(5, 3, set(), [6, 3, 2], forecast=6, et=3,
                expect=AuthDecision.DELAYED)           # remote idle below
    computation(5, 3, set(), [6, 3, 5], forecast=4, et=3,
                expect=AuthDecision.DELAYED)           # earlier forecast first
    computation(5, 3, set(), [6, 4, 2], expect=AuthDecision.DELAYED)
    computation(5, 3, {8, 9}, [6, 4, 9], expect=AuthDecision.DELAYED)

    ok = all(checks)
    report(9, ok, f"{sum(checks)}/{len(checks)} hand-built branch states "
                  f"decided as specified")
