import hashlib
import json
import os
import random
import resource
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

import spikesim
from spikesim import cli, engine, neuron
from spikesim.engine import (DeterministicEngine, ThreadedEngine,
                             build_simulation, run_tcp_node)
from spikesim.environment import EnvState
from spikesim.events import (CPEvent, EXT_NEURON, ProtocolViolation, Spike,
                             TopologyError)
from spikesim.neuron import NeuronParams
from spikesim.node import UNBOUNDED, NodeState
from spikesim.oracle import compare_traces, sequential_simulate
from spikesim.topology import (MappingSpec, NetworkSpec,
                               generate_random, save_mapping, save_network,
                               save_stimuli)
from spikesim.transport import Report, Spikes, TcpBackend, TransportError, load_roster
from test_schedules import run_schedule


def test_deterministic_engine_matches_oracle_small():
    net, mapping, stimuli = generate_random(seed=4, n=24, prob=0.12, procs=2)
    result = DeterministicEngine(net, mapping, stimuli, horizon=120).run()
    assert result.violations == []
    expected = sequential_simulate(net, stimuli, 120)
    assert compare_traces(result.trace, expected).empty


def test_deterministic_engine_is_reproducible():
    net, mapping, stimuli = generate_random(seed=8, n=32, prob=0.1, procs=4)
    a = DeterministicEngine(net, mapping, stimuli, horizon=100).run()
    b = DeterministicEngine(net, mapping, stimuli, horizon=100).run()
    assert a.trace == b.trace
    assert a.stats == b.stats
    assert a.outputs == b.outputs


def test_deterministic_engine_stats_are_pinned():
    # Counts of the cell and node bookkeeping on one README-sized net;
    # any change to forecasting, cancelling, certifying or batching shows.
    # The cells certify 3,769 of the 3,834 emitted forecasts before they go
    # out; the other 65 go out on stamp order alone.
    net, mapping, stimuli = generate_random(seed=3, n=64, prob=0.1, procs=4,
                                            horizon=200)
    result = DeterministicEngine(net, mapping, stimuli, horizon=200).run()
    assert result.violations == []
    assert result.stats == {
        "cancellations": 1392, "certifications": 3769, "computed": 24528,
        "emitted": 3834, "delayed_emissions": 726, "delayed_computations": 0,
        "messages_sent": 2160, "advancements": 209, "timeouts": 208,
        "outputs_received": 309,
    }


def test_deterministic_engine_replay_work_is_pinned(monkeypatch):
    # Computations and calls to the membrane rule on one README-sized net at
    # P = 1: a computation is one cell's arrivals of one stamp, and it
    # replays from the earliest arriving group only, through the module's
    # function.
    calls = {"integrate": 0, "membrane_step": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(neuron, "membrane_step")
    counted(neuron.ECState, "integrate")
    net, mapping, stimuli = generate_random(seed=3, n=64, prob=0.1, procs=1,
                                            horizon=200)
    result = DeterministicEngine(net, mapping, stimuli, horizon=200).run()
    assert result.violations == []
    assert result.stats["computed"] == 24528
    assert calls == {"integrate": 8927, "membrane_step": 25585}


@pytest.mark.parametrize("nets, pinned", [
    # 48 small nets, with 6 cancellations in all.
    pytest.param([(seed, 24, prob, procs) for seed in range(8) for prob in (0.1, 0.2)
                  for procs in (1, 2, 4)],
                 "8e0fca03459b0e6f5ccfc60222646c6fc2f2f81738ff0f109088d8055f4a2251",
                 id="small"),
    # det-dense: 14,705 cancellations, many of them re-forecast at one stamp.
    pytest.param([(seed, 64, 0.2, procs) for seed in (3, 7, 11) for procs in (1, 4)],
                 "940150ac66fa36b6e1a3c1c7c335bf8a2abb0cd9034ce9aca4c2819734d93556",
                 id="dense"),
])
def test_deterministic_engine_fingerprint_is_pinned(nets, pinned):
    # Det trace, outputs, stats and violations of each net at H=200, hashed: a
    # change that claims byte-identical results must leave the digest alone.
    runs = []
    for seed, n, prob, procs in nets:
        net, mapping, stimuli = generate_random(seed=seed, n=n, prob=prob,
                                                procs=procs, horizon=200)
        r = DeterministicEngine(net, mapping, stimuli, horizon=200).run()
        runs.append([r.trace, r.outputs, r.stats, r.violations])
    digest = hashlib.sha256(json.dumps(runs, sort_keys=True).encode()).hexdigest()
    assert digest == pinned


@pytest.mark.parametrize("procs, messages, events", [(2, 563, 4017), (4, 2160, 10112)])
def test_node_traffic_is_pinned(monkeypatch, procs, messages, events):
    # Node messages, and the spikes they carry, on the README-sized net. An
    # emitted spike crosses once to each other processor that owns a target
    # of its neuron, and once to the environment if the neuron is an output,
    # so the events are that sum over the trace; one record per crossing
    # synapse was 12,356 events at P = 2 and 18,786 at P = 4. Batching alone
    # sets the message count: with minpak 1 a flush sends one message to
    # each destination with a staged spike.
    net, mapping, stimuli = generate_random(seed=3, n=64, prob=0.1, procs=procs,
                                            horizon=200)
    owner = mapping.assignment
    reach = {nid: set() for nid in net.neurons}
    for src, dst, _w, _d in net.synapses:
        if owner[dst] != owner[src]:
            reach[src].add(owner[dst])
    sent = {"messages": 0, "events": 0}
    flush_ready = NodeState.flush_ready

    def counted(self, *args, **kwargs):
        out = flush_ready(self, *args, **kwargs)
        sent["messages"] += len(out)
        sent["events"] += sum(len(msg.events) for _dest, msg in out)
        return out
    monkeypatch.setattr(NodeState, "flush_ready", counted)
    result = DeterministicEngine(net, mapping, stimuli, horizon=200).run()
    assert result.violations == []
    assert sent["events"] == sum(len(reach[nid]) + (nid in net.outputs)
                                 for nid, _stamp in result.trace)
    assert sent == {"messages": messages, "events": events}
    assert result.stats["messages_sent"] == messages


def test_a_spike_crosses_once_to_each_processor_it_reaches():
    # Neuron 1 reaches 2 and 3 on processor 2, 4 on processor 3, and 5 on
    # its own processor.
    net = NetworkSpec()
    net.neurons = {nid: NeuronParams(1.0, 10.0) for nid in range(1, 6)}
    net.synapses = [(1, dst, 0.5, 2) for dst in (2, 3, 4, 5)]
    net.inputs, net.outputs = {1}, {1}
    mapping = MappingSpec(assignment={1: 1, 2: 2, 3: 2, 4: 3, 5: 1}, procs=3)
    _env, nodes = build_simulation(net, mapping, {}, horizon=10)
    sender = nodes[1]
    assert sender.owners == {1: {2, 3}} and sender.fanout == {1: [5]}
    assert nodes[2].fanout == {1: [2, 3]} and nodes[3].fanout == {1: [4]}
    forecast = sender.ecs[1].queued[4] = CPEvent(source=1, stamp=4)
    sender.queue_forecast(forecast)
    sender.clock[0] = 4
    sender.apply_emission(forecast)
    assert sender.outboxes == {2: [Spike(1, 4)], 3: [Spike(1, 4)], 0: [Spike(1, 4)]}
    assert sender.cm_queue.pop_stamp() == (4, {5: [1]})


def test_stimulus_to_a_non_input_is_a_topology_error():
    # Only an input's cell has a stimulus synapse, which its d_min counts. The
    # CLI rejects such stimuli first; an engine given one directly must not
    # integrate it, where it could land at or below the cell's horizon.
    net, mapping, stimuli = generate_random(seed=0, n=12, prob=0.25, procs=2, horizon=100)
    nid = min(set(net.neurons) - net.inputs)
    stimuli.setdefault(5, []).append(nid)
    with pytest.raises(TopologyError, match=f"neuron {nid}: no synapse from source {EXT_NEURON}"):
        DeterministicEngine(net, mapping, stimuli, horizon=100).run()


def test_one_stamp_of_arrivals_is_one_computation(monkeypatch):
    # Excitatory neurons 1-3 (delay 5) and inhibitory neuron 4 (delay 2) all
    # fire at 1. Neuron 5 integrates the four arrivals in one computation,
    # so the inhibition at 3 is in place before any forecast at 6 is made.
    net = NetworkSpec()
    for nid in (1, 2, 3, 4, 5):
        net.neurons[nid] = NeuronParams(threshold=1.0, tau=10.0)
    for src in (1, 2, 3):
        net.synapses.append((src, 5, 0.4, 5))
    net.synapses.append((4, 5, -2.0, 2))
    net.inputs = {1, 2, 3, 4}
    net.outputs = {5}
    stimuli = {0: [1, 2, 3, 4]}
    computations = []
    real = neuron.ECState.integrate

    def spy(cell, stamp, sources):
        result = real(cell, stamp, sources)
        if cell.neuron == 5:
            computations.append(([(source, stamp) for source in sources],
                                 result.new_forecasts))
        return result

    monkeypatch.setattr(neuron.ECState, "integrate", spy)
    mapping = MappingSpec(assignment={n: 1 for n in net.neurons}, procs=1)
    run = DeterministicEngine(net, mapping, stimuli, horizon=20).run()
    assert run.violations == []
    assert compare_traces(run.trace, sequential_simulate(net, stimuli, 20)).empty
    assert computations == [([(1, 1), (2, 1), (3, 1), (4, 1)], [])]
    assert run.stats["cancellations"] == 0


def test_outputs_are_subset_of_trace_restricted_to_output_neurons():
    net, mapping, stimuli = generate_random(seed=4, n=24, prob=0.12, procs=2)
    result = DeterministicEngine(net, mapping, stimuli, horizon=120).run()
    expected = sorted(((n, t) for n, t in result.trace if n in net.outputs),
                      key=lambda nt: (nt[1], nt[0]))
    assert result.outputs == expected


def test_invariant_monitor_samples_states():
    net, mapping, stimuli = generate_random(seed=4, n=16, prob=0.1, procs=2)
    engine = DeterministicEngine(net, mapping, stimuli, horizon=60)
    result = engine.run()
    assert engine.monitor.samples > 0
    assert result.violations == []


def test_invariant_monitor_flags_a_view_ahead_of_the_truth():
    # A node's T may lag the environment's, and its entry of another node
    # that node's emission time or the raise, but never run ahead of them.
    net, mapping, stimuli = generate_random(seed=4, n=16, prob=0.1, procs=2)
    run = DeterministicEngine(net, mapping, stimuli, horizon=60)
    assert run.run().violations == []
    monitor, node, env = run.monitor, run.nodes[1], run.env
    node.clock[0] = env.T + 1
    monitor.check()
    assert monitor.violations == [f"node 1: T {env.T + 1} ahead of {env.T}"]
    node.clock[0] = env.T
    truth = max(run.nodes[2].clock[2], env.raised)
    node.clock[2] = truth + 1
    monitor.check()
    assert monitor.violations[1:] == [
        f"node 1: clock[2] {truth + 1} ahead of {run.nodes[2].clock[2]} and the raise {env.raised}"]


def test_single_processor_run_equals_partitioned_run():
    net, _m, stimuli = generate_random(seed=13, n=24, prob=0.12, procs=1)
    traces = []
    for procs in (1, 3):
        mapping = MappingSpec(
            assignment={nid: 1 + (i % procs)
                        for i, nid in enumerate(sorted(net.neurons))},
            procs=procs)
        traces.append(DeterministicEngine(net, mapping, stimuli, 100).run().trace)
    assert traces[0] == traces[1]


def test_threaded_engine_matches_oracle():
    net, mapping, stimuli = generate_random(seed=2, n=16, prob=0.12, procs=2,
                                            horizon=50)
    result = ThreadedEngine(net, mapping, stimuli, horizon=50,
                            timeout_ms=5).run()
    assert result.violations == []
    expected = sequential_simulate(net, stimuli, 50)
    assert compare_traces(result.trace, expected).empty


@pytest.mark.parametrize("seed", [0, 3, 5, 9])
def test_threaded_engine_batches_at_minpak_4(seed):
    # Sized as criterion 5. On these seeds no outbox reaches four events, so
    # every message between processors is held until its sender runs out of
    # work and flushes before it waits.
    net, mapping, stimuli = generate_random(seed=seed, n=16, prob=0.12,
                                            procs=3, horizon=50)
    result = ThreadedEngine(net, mapping, stimuli, horizon=50, minpak=4,
                            timeout_ms=4).run()
    assert result.violations == []
    expected = sequential_simulate(net, stimuli, 50)
    assert compare_traces(result.trace, expected).empty


def test_a_duplicated_broadcast_ends_a_threads_run_as_that_nodes_violation():
    # Node 1 gets the advancement to 20 twice. Its step rejects the second
    # copy at once; without that check its count of the environment's
    # messages never balances, quiescence is never proven and the run waits
    # out its wall budget.
    net, mapping, stimuli = generate_random(seed=3, n=64, prob=0.1, procs=2,
                                            horizon=200)
    run = ThreadedEngine(net, mapping, stimuli, horizon=200, max_wall_s=5)
    step = run.env.step

    def step_and_repeat_20_to_node_1(inbound):
        moved, pairs = step(inbound)
        return moved, pairs + [(1, msg) for dest, msg in pairs
                               if dest == 1 and msg.T == 20]

    run.env.step = step_and_repeat_20_to_node_1
    start = time.monotonic()
    result = run.run()
    assert time.monotonic() - start < 2.5
    assert len(result.violations) == 1
    assert result.violations[0].startswith(
        "node 1: ProtocolViolation('node 1: broadcast of T 20, raise ")
    assert result.violations[0].endswith(", after T 20')")


def test_threaded_engine_reports_a_node_thread_that_does_not_stop(monkeypatch):
    # Node 2's loop blocks and never reads the stop flag: the run is cut at
    # its wall budget, and the thread still running after the join wait is a
    # violation, not a silent return.
    monkeypatch.setattr(engine, "JOIN_S", 0.2)
    release = threading.Event()

    class StuckNode(ThreadedEngine):
        def _node_loop(self, node):
            if node.id == 2:
                release.wait(30.0)
            else:
                super()._node_loop(node)

    net, mapping, stimuli = generate_random(seed=2, n=16, prob=0.12, procs=2,
                                            horizon=50)
    try:
        result = StuckNode(net, mapping, stimuli, horizon=50, timeout_ms=5,
                           max_wall_s=0.5).run()
    finally:
        release.set()
    assert result.violations == ["wall-clock budget exceeded",
                                 "node 2: thread still running 0.2 s after the run"]


@pytest.mark.parametrize("procs", [1, 4])
def test_threaded_run_equals_det_at_readme_size(procs):
    # Once the run is over the environment takes no more mail, so the
    # nodes' last flush and report advance nothing: 209 advancements.
    for seed in (0, 1, 2):
        net, mapping, stimuli = generate_random(seed=seed, n=64, prob=0.1,
                                                procs=procs, horizon=200)
        det = DeterministicEngine(net, mapping, stimuli, 200).run()
        threads = ThreadedEngine(net, mapping, stimuli, 200).run()
        assert threads.violations == det.violations == []
        assert threads.trace == det.trace and threads.outputs == det.outputs
        assert threads.stats["advancements"] == det.stats["advancements"] == 209


def spy_on_steps(monkeypatch, cls, calls, pause=0.0):
    """Record (thread, steps in progress) at each call of ``cls.step``."""
    step, active = cls.step, []

    def spy(self, *args, **kwargs):
        active.append(None)
        calls.append((threading.current_thread(), len(active)))
        time.sleep(pause)  # gives another thread the chance to step too
        try:
            return step(self, *args, **kwargs)
        finally:
            active.pop()

    monkeypatch.setattr(cls, "step", spy)


def test_threaded_environment_steps_in_node_threads_one_at_a_time(monkeypatch):
    calls = []
    spy_on_steps(monkeypatch, EnvState, calls, pause=1e-4)
    net, mapping, stimuli = generate_random(seed=3, n=64, prob=0.1, procs=4,
                                            horizon=200)
    result = ThreadedEngine(net, mapping, stimuli, 200).run()
    assert result.violations == []
    main = threading.main_thread()
    assert calls[0][0] is main  # T = 1, before the node threads start
    steppers = {thread for thread, _depth in calls[1:]}
    assert main not in steppers and len(steppers) > 1
    assert max(depth for _thread, depth in calls) == 1


def test_threaded_run_at_p1_is_one_thread_making_every_step(monkeypatch):
    started, env_calls, node_calls = [], [], []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread) or start(thread))
    spy_on_steps(monkeypatch, EnvState, env_calls)
    spy_on_steps(monkeypatch, NodeState, node_calls)
    net, mapping, stimuli = generate_random(seed=3, n=64, prob=0.1, procs=1,
                                            horizon=200)
    result = ThreadedEngine(net, mapping, stimuli, 200).run()
    assert result.violations == [] and result.stats["advancements"] == 209
    assert len(started) == 1
    steppers = {thread for thread, _depth in env_calls[1:] + node_calls}
    assert steppers == set(started)


def disown_an_output(env, net, outputs) -> int:
    """Make the environment believe no processor owns the first output
    neuron that fires and is no input; it rejects that neuron's spikes."""
    out = next(nid for nid, _t in outputs if nid not in net.inputs)
    env.owner_of[out] = env.procs + 1
    return out


def rejected_output_net():
    net, mapping, stimuli = generate_random(seed=3, n=64, prob=0.1, procs=1,
                                            horizon=60)
    outputs = DeterministicEngine(net, mapping, stimuli, 60).run().outputs
    return net, mapping, stimuli, outputs


@pytest.mark.parametrize("mode", ["det", "threads"])
def test_a_message_the_environment_rejects_is_a_violation(mode):
    net, mapping, stimuli, outputs = rejected_output_net()
    cls = DeterministicEngine if mode == "det" else ThreadedEngine
    sim = cls(net, mapping, stimuli, 60)
    out = disown_an_output(sim.env, net, outputs)
    result = sim.run()
    who = "environment" if mode == "det" else "node 1"
    assert len(result.violations) == 1
    assert result.violations[0].startswith(f"{who}: ProtocolViolation('Spike(neuron={out}, ")
    assert result.violations[0].endswith("from processor 1, which does not own it')")


def test_tcp_launcher_reports_a_message_its_environment_rejects(tmp_path, monkeypatch,
                                                                free_ports, forked):
    net, mapping, stimuli, outputs = rejected_output_net()
    prefix = str(tmp_path / "w")
    save_network(net, prefix + ".net")
    save_mapping(mapping, prefix + ".map")
    save_stimuli(stimuli, prefix + ".stim")
    roster = tmp_path / "roster"
    roster.write_text("".join(f"{pid} 127.0.0.1:{port}\n"
                              for pid, port in enumerate(free_ports(2))))
    build = engine.build_simulation

    def build_disowning(*args, only_node, **kwargs):  # the launcher's environment only
        env, nodes = build(*args, only_node=only_node, **kwargs)
        if only_node == -1:  # the forked node builds through this too
            disown_an_output(env, net, outputs)
        return env, nodes

    monkeypatch.setattr(engine, "build_simulation", build_disowning)
    argv = [sys.executable, "-m", "spikesim", "run", "--net", prefix + ".net",
            "--map", prefix + ".map", "--stim", prefix + ".stim", "--mode", "tcp",
            "--horizon", "60", "--roster", str(roster), "--node", "1",
            "--out", prefix]
    result = engine.run_tcp_launcher(net, mapping, stimuli, 60,
                                     roster_path=str(roster), node_argv=[argv])
    assert result.violations[0].startswith("environment: ProtocolViolation('Spike(")
    assert result.violations[0].endswith("from processor 1, which does not own it')")
    # The launcher closes its backend before the grace period, so the node
    # reads the close and exits 2 (a transport error) on its own.
    assert result.violations[1:] == ["node process exited with 2 (processor 1)"]
    assert len(forked) == 1
    forked.assert_reaped()


def two_neuron_simulation(minpak=1):
    # Neuron 1 on processor 1 fires once, at 1, into neuron 2 on processor 2.
    net = NetworkSpec()
    net.neurons = {1: NeuronParams(1.0, 10.0), 2: NeuronParams(1.0, 10.0)}
    net.synapses = [(1, 2, 0.5, 1)]
    net.inputs = {1}
    net.outputs = {2}
    mapping = MappingSpec(assignment={1: 1, 2: 2}, procs=2)
    return build_simulation(net, mapping, {0: [1]}, horizon=10, minpak=minpak)


def test_node_flushes_a_partial_batch_before_it_waits():
    env, nodes = two_neuron_simulation(minpak=4)
    # T = 2 after a quiescence advancement: the spike at 1 may be emitted.
    floor = min(node.floor() for node in nodes.values())
    inbound = [env.advance_T()[0], env.on_timeout(floor)[0]]
    moved, messages = nodes[1].step(inbound)
    # One staged event, below minpak, stays in the outbox while work moves.
    assert moved and messages == [] and nodes[1].trace == [(1, 1)]
    moved, messages = nodes[1].step([])
    assert not moved
    assert [(dest, type(msg)) for dest, msg in messages] == [(2, Spikes), (0, Report)]
    assert messages[0][1].events == [Spike(1, 1)]
    assert messages[1][1].sent == [0, 0, 1]


def test_node_step_reports_once_per_change_of_counts():
    env, nodes = two_neuron_simulation()
    node = nodes[2]
    moved, messages = node.step([])
    assert not moved
    assert [(dest, type(msg), msg) for dest, msg in messages] == [
        (0, Report, Report(2, UNBOUNDED, [0, 0, 0], [0, 0, 0]))]
    assert node.step([]) == (False, [])
    # A clock-only broadcast moves nothing here; its receipt is reported at
    # once, and only once.
    broadcast = dict(env.step([])[1])
    moved, messages = node.step([broadcast[2]])
    assert not moved
    assert [(dest, type(msg), msg) for dest, msg in messages] == [
        (0, Report, Report(2, UNBOUNDED, [0, 0, 0], [1, 0, 0]))]
    assert node.step([]) == (False, [])


@pytest.mark.parametrize("schedule", ["det", "pct"])
def test_det_reports_a_run_that_cannot_advance(monkeypatch, schedule):
    # drive's one stall rule holds in every schedule it steps.
    monkeypatch.setattr(EnvState, "quiescence_floor", lambda self: None)
    net, mapping, stimuli = generate_random(seed=1, n=8, prob=0.0, procs=2,
                                            horizon=30)
    if schedule == "det":
        result = DeterministicEngine(net, mapping, stimuli, horizon=30).run()
    else:
        result = run_schedule(net, mapping, stimuli, 30, random.Random(0), depth=3)
    assert result.violations == ["no advancement at quiescence (T = 1)"]


def test_det_steps_a_processor_only_on_mail_or_after_a_step_that_moved(monkeypatch):
    # Any other step would repeat, on the same state, a step that moved
    # nothing. At the README's size.
    step, moved_last, idle = NodeState.step, {}, []

    def spy(self, inbound):
        if not inbound and not moved_last.get(self.id):
            idle.append(self.id)
        moved, messages = step(self, inbound)
        moved_last[self.id] = moved
        return moved, messages

    monkeypatch.setattr(NodeState, "step", spy)
    net, mapping, stimuli = generate_random(seed=3, n=64, prob=0.1, procs=4,
                                            horizon=200)
    result = DeterministicEngine(net, mapping, stimuli, horizon=200).run()
    assert result.violations == [] and sorted(moved_last) == [1, 2, 3, 4]
    assert idle == []


def test_timeout_drives_time_without_activity():
    net, mapping, stimuli = generate_random(seed=1, n=8, prob=0.0, procs=2,
                                            horizon=30)
    result = DeterministicEngine(net, mapping, stimuli, horizon=30).run()
    assert result.stats["timeouts"] > 0
    assert result.stats["advancements"] > 30


def test_build_simulation_restricts_to_one_node():
    net, mapping, stimuli = generate_random(seed=1, n=8, prob=0.1, procs=2)
    _env, nodes = build_simulation(net, mapping, stimuli, horizon=10,
                                   only_node=2)
    assert set(nodes) == {2}


def test_activity_loop_without_outputs_reaches_horizon():
    # Two neurons excite each other forever on one processor; the output
    # neuron on the other processor never fires, so the environment can
    # advance only through timeouts.
    net = NetworkSpec()
    net.neurons = {1: NeuronParams(1.0, 1e9), 2: NeuronParams(1.0, 1e9),
                   3: NeuronParams(1.0, 10.0)}
    net.synapses = [(1, 2, 1.5, 2), (2, 1, 1.5, 2), (1, 3, 0.01, 1)]
    net.inputs = {1}
    net.outputs = {3}
    mapping = MappingSpec(assignment={1: 1, 2: 1, 3: 2}, procs=2)
    result = DeterministicEngine(net, mapping, {0: [1]}, horizon=40).run()
    assert result.violations == []
    assert result.stats["advancements"] > 40
    assert result.outputs == []
    expected = sequential_simulate(net, {0: [1]}, 40)
    assert compare_traces(result.trace, expected).empty


def test_tcp_node_gives_up_without_environment(tmp_path, monkeypatch, free_ports):
    # The environment connects but never advances T, as if it had died.
    net, mapping, stimuli = generate_random(seed=2, n=8, prob=0.2, procs=1,
                                            horizon=20)
    roster = tmp_path / "roster"
    roster.write_text("".join(f"{pid} 127.0.0.1:{port}\n"
                              for pid, port in enumerate(free_ports(2))))
    monkeypatch.setattr(engine, "TCP_WALL_S", 0.5)
    envs = []
    env_thread = threading.Thread(target=lambda: envs.append(
        TcpBackend(0, load_roster(str(roster)))))
    env_thread.start()
    try:
        with pytest.raises(TransportError, match="no end of run"):
            run_tcp_node(net, mapping, stimuli, 20, node_id=1,
                         roster_path=str(roster))
    finally:
        env_thread.join(timeout=20)
        for backend in envs:
            backend.close()
    assert not env_thread.is_alive() and len(envs) == 1


def test_tcp_launcher_stops_soon_after_a_node_dies(tmp_path, free_ports, spawned):
    # Processor 2 is killed about 1 s into a run that would take far longer.
    horizon = 20_000
    net, mapping, stimuli = generate_random(seed=2, n=32, prob=0.1, procs=2,
                                            horizon=horizon)
    prefix = str(tmp_path / "w")
    save_network(net, prefix + ".net")
    save_mapping(mapping, prefix + ".map")
    save_stimuli(stimuli, prefix + ".stim")
    roster = tmp_path / "roster"
    roster.write_text("".join(f"{pid} 127.0.0.1:{port}\n"
                              for pid, port in enumerate(free_ports(3))))
    src = str(Path(spikesim.__file__).parent.parent)

    def node_argv(pid, prelude=""):
        args = ["run", "--net", prefix + ".net", "--map", prefix + ".map",
                "--stim", prefix + ".stim", "--mode", "tcp",
                "--horizon", str(horizon), "--roster", str(roster),
                "--node", str(pid), "--out", prefix]
        return [sys.executable, "-c",
                f"import sys; sys.path.insert(0, {src!r}); {prelude}"
                f"from spikesim.cli import main; sys.exit(main({args!r}))"]

    kill = ("import os, signal, threading; threading.Timer(1.0, os.kill, "
            "(os.getpid(), signal.SIGKILL)).start(); ")
    start = time.monotonic()
    result = engine.run_tcp_launcher(
        net, mapping, stimuli, horizon, roster_path=str(roster),
        node_argv=[node_argv(1), node_argv(2, kill)], max_wall_s=30.0)
    elapsed = time.monotonic() - start
    assert f"node process exited with {-signal.SIGKILL} (processor 2)" in \
        result.violations
    assert elapsed < 6.0
    assert len(spawned) == 2
    spawned.assert_reaped()


@pytest.mark.parametrize("send, peer", [("", "a node"), (
    "b.send(0, Report(1, 0, [0, 0], [0, 0])); ", "processor 1")],
    ids=["silent", "after-a-report"])
def test_tcp_launcher_reports_a_node_that_closes_before_the_run_ends(
        tmp_path, free_ports, spawned, send, peer):
    # The node builds its backend, sends nothing or one report, closes the
    # backend and exits 0 long before a 50-tick run could end. Its exit code
    # says nothing is wrong, so the violation is the close the environment
    # reads, which names the node once a frame has bound its connection.
    net, mapping, stimuli = generate_random(seed=2, n=8, prob=0.2, procs=1,
                                            horizon=50)
    roster = tmp_path / "roster"
    roster.write_text("".join(f"{pid} 127.0.0.1:{port}\n"
                              for pid, port in enumerate(free_ports(2))))
    quits = ("from spikesim.transport import Report, TcpBackend, load_roster; "
             f"b = TcpBackend(1, load_roster({str(roster)!r})); {send}b.close()")
    start = time.monotonic()
    result = engine.run_tcp_launcher(net, mapping, stimuli, 50, roster_path=str(roster),
                                     node_argv=[[sys.executable, "-c", quits]],
                                     max_wall_s=30.0)
    assert time.monotonic() - start < 5.0
    assert result.violations == [f"environment: {peer} closed the connection"]
    assert result.stats["advancements"] <= 1
    assert len(spawned) == 1
    spawned.assert_reaped()


def test_tcp_launcher_reports_a_backend_it_cannot_build(tmp_path, monkeypatch,
                                                        free_ports, capsys, spawned):
    # The node processes exit at once, so the environment cannot reach them.
    net, mapping, stimuli = generate_random(seed=2, n=24, prob=0.12, procs=1,
                                            horizon=20)
    prefix = str(tmp_path / "w")
    save_network(net, prefix + ".net")
    save_mapping(mapping, prefix + ".map")
    save_stimuli(stimuli, prefix + ".stim")
    exit3 = [sys.executable, "-c", "import sys; sys.exit(3)"]
    # Both runs share one roster: a backend that failed to build frees its port.
    roster = tmp_path / "roster"
    roster.write_text("".join(f"{pid} 127.0.0.1:{port}\n"
                              for pid, port in enumerate(free_ports(2))))

    launch = engine.run_tcp_launcher
    start = time.monotonic()
    result = launch(net, mapping, stimuli, 20, roster_path=str(roster),
                    node_argv=[exit3])
    # The backend gives up once the node has exited, well before
    # CONNECT_TIMEOUT_S.
    assert time.monotonic() - start < 2.0
    assert "node process exited with 3 (processor 1)" in result.violations
    assert any(v.startswith("cannot reach processor 1")
               for v in result.violations)

    monkeypatch.setattr(cli, "run_tcp_launcher", lambda *args, node_argv, **kw:
                        launch(*args, node_argv=[exit3], **kw))
    assert cli.main(["run", "--net", prefix + ".net", "--map", prefix + ".map",
                     "--stim", prefix + ".stim", "--horizon", "20",
                     "--mode", "tcp", "--roster", str(roster),
                     "--out", prefix]) == 1
    err = capsys.readouterr().err
    assert "violation: node process exited with 3 (processor 1)" in err
    assert "violation: cannot reach processor 1" in err
    assert len(spawned) == 2
    spawned.assert_reaped()


def test_tcp_launcher_kills_a_node_that_does_not_exit(tmp_path, monkeypatch,
                                                      free_ports, spawned):
    # The node finishes its run, then blocks writing its trace shard. Once
    # EXIT_WAIT_S has passed, the launcher kills it and reports the exit.
    net, mapping, stimuli = generate_random(seed=2, n=24, prob=0.12, procs=1,
                                            horizon=20)
    prefix = str(tmp_path / "w")
    save_network(net, prefix + ".net")
    save_mapping(mapping, prefix + ".map")
    save_stimuli(stimuli, prefix + ".stim")
    roster = tmp_path / "roster"
    roster.write_text("".join(f"{pid} 127.0.0.1:{port}\n"
                              for pid, port in enumerate(free_ports(2))))
    pid_file = tmp_path / "node.pid"
    blocked = ("import os, pathlib, sys, time\n"
               "from spikesim import cli\n"
               f"pathlib.Path({str(pid_file)!r}).write_text(str(os.getpid()))\n"
               "cli.write_trace = lambda *args: time.sleep(60)\n"
               "sys.exit(cli.main(sys.argv[1:]))\n")
    argv = [sys.executable, "-c", blocked, "run", "--net", prefix + ".net",
            "--map", prefix + ".map", "--stim", prefix + ".stim", "--mode", "tcp",
            "--horizon", "20", "--roster", str(roster), "--node", "1", "--out", prefix]
    monkeypatch.setattr(engine, "EXIT_WAIT_S", 1.0)
    start = time.monotonic()
    result = engine.run_tcp_launcher(net, mapping, stimuli, 20,
                                     roster_path=str(roster), node_argv=[argv])
    assert time.monotonic() - start < 10.0  # the node blocks for 60 s
    assert result.violations == [
        "node process exited with -9 after the run stopped (processor 1)"]
    assert result.stats["advancements"] > 20  # the run itself finished
    assert spawned == [int(pid_file.read_text())]
    spawned.assert_reaped()


def test_tcp_launcher_reaps_the_nodes_it_started_when_one_fails_to_start(
        tmp_path, monkeypatch, free_ports, capsys, spawned):
    # Processor 1's node would wait a minute; processor 2's cannot start.
    net, mapping, stimuli = generate_random(seed=2, n=24, prob=0.12, procs=2,
                                            horizon=20)
    prefix = str(tmp_path / "w")
    save_network(net, prefix + ".net")
    save_mapping(mapping, prefix + ".map")
    save_stimuli(stimuli, prefix + ".stim")
    roster = tmp_path / "roster"
    roster.write_text("".join(f"{pid} 127.0.0.1:{port}\n"
                              for pid, port in enumerate(free_ports(3))))
    failing = [[sys.executable, "-c", "import time; time.sleep(60)"],
               [str(tmp_path / "no-such-python")]]
    monkeypatch.setattr(engine, "STOP_GRACE_S", 0.2)
    launch = engine.run_tcp_launcher
    result = launch(net, mapping, stimuli, 20, roster_path=str(roster),
                    node_argv=failing)
    assert result.violations[0].startswith(
        "node process for processor 2 failed to start: ")
    assert result.violations[1:] == [
        "node process exited with -9 after the run stopped (processor 1)"]
    assert len(spawned) == 1
    spawned.assert_reaped()

    monkeypatch.setattr(cli, "run_tcp_launcher", lambda *args, node_argv, **kw:
                        launch(*args, node_argv=failing, **kw))
    assert cli.main(["run", "--net", prefix + ".net", "--map", prefix + ".map",
                     "--stim", prefix + ".stim", "--horizon", "20",
                     "--mode", "tcp", "--roster", str(roster),
                     "--out", prefix]) == 1
    assert "violation: node process for processor 2 failed to start: " in \
        capsys.readouterr().err
    assert len(spawned) == 2
    spawned.assert_reaped()


def test_run_tcp_node_builds_with_its_timeout(tmp_path, monkeypatch):
    net, mapping, stimuli = generate_random(seed=2, n=12, prob=0.12, procs=1,
                                            horizon=20)
    roster = tmp_path / "roster"
    roster.write_text("0 127.0.0.1:1\n1 127.0.0.1:2\n")
    built = {}

    def build(*_args, timeout_ms, **_kw):
        built["timeout_ms"] = timeout_ms
        raise TransportError("stop before connecting")

    monkeypatch.setattr(engine, "build_simulation", build)
    with pytest.raises(TransportError, match="stop before connecting"):
        run_tcp_node(net, mapping, stimuli, 20, node_id=1,
                     roster_path=str(roster), timeout_ms=7)
    assert built == {"timeout_ms": 7}


# -- forked tcp nodes: the launcher's failure cases through the CLI's own command --

def cli_workload(tmp_path, free_ports, procs, horizon, n=24):
    """Files and a roster for a tcp run, and each node's CLI command."""
    net, mapping, stimuli = generate_random(seed=2, n=n, prob=0.12, procs=procs,
                                            horizon=horizon)
    prefix = str(tmp_path / "w")
    save_network(net, prefix + ".net")
    save_mapping(mapping, prefix + ".map")
    save_stimuli(stimuli, prefix + ".stim")
    roster = tmp_path / "roster"
    roster.write_text("".join(f"{pid} 127.0.0.1:{port}\n"
                              for pid, port in enumerate(free_ports(procs + 1))))
    argv = [[sys.executable, "-m", "spikesim", "run", "--net", prefix + ".net",
             "--map", prefix + ".map", "--stim", prefix + ".stim", "--mode", "tcp",
             "--horizon", str(horizon), "--roster", str(roster),
             "--node", str(pid), "--out", prefix] for pid in range(1, procs + 1)]
    return net, mapping, stimuli, str(roster), argv


@pytest.mark.parametrize("how, code, err", [
    ("returns", 2, "error: [Errno 2] No such file or directory"),
    ("exits", 2, "invalid input: --node 2 is not a compute processor 1..1"),
    ("raises", 1, "RuntimeError: node failed"),
])
def test_tcp_launcher_reports_a_forked_node_that_fails(tmp_path, monkeypatch, free_ports,
                                                       forked, capfd, how, code, err):
    # The node's main returns 2, raises SystemExit(2) or raises another
    # exception; the child exits with that code, as `python -m spikesim`.
    net, mapping, stimuli, roster, [argv] = cli_workload(tmp_path, free_ports, 1, 20)
    if how == "returns":
        argv[argv.index("--net") + 1] = str(tmp_path / "missing.net")
    elif how == "exits":
        argv[argv.index("--node") + 1] = "2"
    else:
        def fail(*_args, **_kwargs):
            raise RuntimeError("node failed")
        monkeypatch.setattr(cli, "run_tcp_node", fail)
    start = time.monotonic()
    result = engine.run_tcp_launcher(net, mapping, stimuli, 20, roster_path=roster,
                                     node_argv=[argv])
    assert time.monotonic() - start < 2.0  # the backend gives up at the exit
    assert f"node process exited with {code} (processor 1)" in result.violations
    assert any(v.startswith("cannot reach processor 1") for v in result.violations)
    assert err in capfd.readouterr().err
    assert len(forked) == 1
    forked.assert_reaped()


def test_tcp_launcher_stops_soon_after_a_forked_node_dies(tmp_path, monkeypatch,
                                                          free_ports, forked):
    # Forked processor 2 is killed about 1 s into a run that would take far longer.
    horizon = 20_000
    net, mapping, stimuli, roster, argv = cli_workload(tmp_path, free_ports, 2,
                                                       horizon, n=32)
    run_tcp_node = cli.run_tcp_node

    def dying(*args, node_id, **kwargs):
        if node_id == 2:
            threading.Timer(1.0, os.kill, (os.getpid(), signal.SIGKILL)).start()
        return run_tcp_node(*args, node_id=node_id, **kwargs)

    monkeypatch.setattr(cli, "run_tcp_node", dying)
    start = time.monotonic()
    result = engine.run_tcp_launcher(net, mapping, stimuli, horizon, roster_path=roster,
                                     node_argv=argv, max_wall_s=30.0)
    assert f"node process exited with {-signal.SIGKILL} (processor 2)" in \
        result.violations
    assert time.monotonic() - start < 6.0
    assert len(forked) == 2
    forked.assert_reaped()


def test_tcp_launcher_kills_a_forked_node_that_does_not_exit(tmp_path, monkeypatch,
                                                             free_ports, forked):
    # The forked node finishes its run, then blocks writing its trace shard.
    net, mapping, stimuli, roster, argv = cli_workload(tmp_path, free_ports, 1, 20)
    monkeypatch.setattr(cli, "write_trace", lambda *args: time.sleep(60))
    monkeypatch.setattr(engine, "EXIT_WAIT_S", 1.0)
    start = time.monotonic()
    result = engine.run_tcp_launcher(net, mapping, stimuli, 20, roster_path=roster,
                                     node_argv=argv)
    assert time.monotonic() - start < 10.0  # the node blocks for 60 s
    assert result.violations == [
        "node process exited with -9 after the run stopped (processor 1)"]
    assert result.stats["advancements"] > 20  # the run itself finished
    assert len(forked) == 1
    forked.assert_reaped()
    assert threading.active_count() == 1  # the launcher started no thread


def test_tcp_launcher_stops_a_forked_node_once_its_budget_is_spent(tmp_path, free_ports,
                                                                  forked):
    # The run would take seconds; the launcher stops stepping after 0.5 s,
    # so the node never sees the run end. It reads the launcher's close
    # instead and exits on its own before STOP_GRACE_S runs out: a node
    # killed after the grace period would be reported "after the run stopped".
    horizon = 20_000
    net, mapping, stimuli, roster, argv = cli_workload(tmp_path, free_ports, 1,
                                                       horizon, n=32)
    start = time.monotonic()
    result = engine.run_tcp_launcher(net, mapping, stimuli, horizon, roster_path=roster,
                                     node_argv=argv, max_wall_s=0.5)
    assert time.monotonic() - start < 5.0
    assert result.violations == [
        "wall-clock budget exceeded", "node process exited with 2 (processor 1)"]
    assert 0 < result.stats["advancements"] < horizon
    assert len(forked) == 1
    forked.assert_reaped()


def test_tcp_launcher_reaps_the_nodes_it_forked_when_one_fails_to_fork(
        tmp_path, monkeypatch, free_ports, forked):
    # Processor 1's node waits for the environment, which never listens;
    # processor 2's fork fails. No exit pipe stays open.
    net, mapping, stimuli, roster, argv = cli_workload(tmp_path, free_ports, 2, 20)
    fork = os.fork

    def fork_once():
        if forked:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    monkeypatch.setattr(engine, "STOP_GRACE_S", 0.2)
    fds = sorted(os.listdir("/proc/self/fd"))
    result = engine.run_tcp_launcher(net, mapping, stimuli, 20, roster_path=roster,
                                     node_argv=argv)
    assert result.violations == [
        "node process for processor 2 failed to start: "
        "[Errno 11] Resource temporarily unavailable",
        "node process exited with -9 after the run stopped (processor 1)"]
    assert len(forked) == 1
    forked.assert_reaped()
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_tcp_launcher_watches_exit_pipes_above_fd_setsize(tmp_path, free_ports, forked):
    # With 1,100 files open, the node's exit pipe lies above select's limit
    # of 1024 fds.
    if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1200:
        pytest.skip("needs 1,200 open files")
    net, mapping, stimuli, roster, argv = cli_workload(tmp_path, free_ports, 1, 20)
    files = [os.open(os.devnull, os.O_RDONLY) for _ in range(1100)]
    try:
        result = engine.run_tcp_launcher(net, mapping, stimuli, 20, roster_path=roster,
                                         node_argv=argv)
    finally:
        for fd in files:
            os.close(fd)
    assert result.violations == []
    assert len(forked) == 1
    forked.assert_reaped()
