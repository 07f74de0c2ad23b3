import pytest

from spikesim.neuron import NeuronParams
from spikesim.oracle import (compare_traces, read_trace, sequential_simulate,
                             write_trace)
from spikesim.topology import NetworkSpec, generate_random


def chain_net():
    """1 -> 2 -> 3, strong weights: stimulus walks down the chain."""
    net = NetworkSpec()
    for nid in (1, 2, 3):
        net.neurons[nid] = NeuronParams(threshold=1.0, tau=10.0)
    net.synapses = [(1, 2, 1.5, 2), (2, 3, 1.5, 3)]
    net.inputs = {1}
    net.outputs = {3}
    return net


def test_chain_propagation_hand_computed():
    # stimulus emitted at 0 -> 1 fires at 1 -> 2 at 3 -> 3 at 6
    trace = sequential_simulate(chain_net(), {0: [1]}, horizon=20)
    assert trace == [(1, 1), (2, 3), (3, 6)]


def test_subthreshold_input_never_fires():
    net = chain_net()
    net.synapses = [(1, 2, 0.5, 2)]  # below threshold, no accumulation
    trace = sequential_simulate(net, {0: [1]}, horizon=20)
    assert trace == [(1, 1)]


def test_decay_blocks_slow_accumulation_hand_computed():
    # Two 0.6 arrivals 2 ticks apart: 0.6*exp(-0.2)+0.6 = 1.0912... >= 1,
    # but 8 ticks apart: 0.6*exp(-0.8)+0.6 = 0.8696... < 1.
    net = NetworkSpec()
    net.neurons = {1: NeuronParams(1.0, 10.0), 2: NeuronParams(1.0, 10.0),
                   3: NeuronParams(1.0, 10.0)}
    net.synapses = [(1, 3, 0.6, 1), (2, 3, 0.6, 1)]
    net.inputs = {1, 2}
    net.outputs = {3}
    close = sequential_simulate(net, {0: [1], 2: [2]}, horizon=20)
    assert (3, 4) in close
    far = sequential_simulate(net, {0: [1], 8: [2]}, horizon=20)
    assert all(neuron != 3 for neuron, _t in far)


def test_delayed_inhibition_cancels_fire():
    net = NetworkSpec()
    for nid in (1, 2, 3, 4, 5):
        net.neurons[nid] = NeuronParams(1.0, 10.0)
    net.synapses = [(1, 5, 0.4, 5), (2, 5, 0.4, 5), (3, 5, 0.4, 5),
                    (4, 5, -2.0, 2)]
    net.inputs = {1, 2, 3, 4}
    net.outputs = {5}
    trace = sequential_simulate(net, {0: [1, 2, 3, 4]}, horizon=20)
    assert all(neuron != 5 for neuron, _t in trace)
    without = sequential_simulate(net, {0: [1, 2, 3]}, horizon=20)
    assert (5, 6) in without


def test_horizon_cuts_trace():
    trace = sequential_simulate(chain_net(), {0: [1]}, horizon=5)
    assert trace == [(1, 1), (2, 3)]


def test_bad_horizon_rejected():
    with pytest.raises(ValueError):
        sequential_simulate(chain_net(), {}, horizon=0)


def test_trace_sorted_by_time_then_neuron():
    net, _mapping, stimuli = generate_random(seed=3, n=24, prob=0.15, procs=1)
    trace = sequential_simulate(net, stimuli, horizon=100)
    assert trace == sorted(trace, key=lambda nt: (nt[1], nt[0]))


def test_oracle_is_deterministic_and_file_stable(tmp_path):
    net, _mapping, stimuli = generate_random(seed=9, n=32, prob=0.1, procs=1)
    a = sequential_simulate(net, stimuli, horizon=150)
    b = sequential_simulate(net, stimuli, horizon=150)
    assert a == b
    pa, pb = tmp_path / "a", tmp_path / "b"
    write_trace(a, str(pa))
    write_trace(b, str(pb))
    assert pa.read_bytes() == pb.read_bytes()
    assert read_trace(str(pa)) == a


def test_compare_traces_reports_first_divergence():
    a = [(1, 1), (2, 3)]
    b = [(1, 1), (2, 3), (4, 2)]
    diff = compare_traces(a, b)
    assert not diff.empty
    assert diff.first_divergence == (4, 2)
    assert diff.missing_in_a == [(4, 2)]
    assert compare_traces(a, list(a)).empty


def test_compare_traces_counts_a_repeated_spike():
    diff = compare_traces([(1, 2), (1, 2), (3, 4)], [(1, 2), (3, 4)])
    assert not diff.empty
    assert diff.missing_in_b == [(1, 2)] and diff.missing_in_a == []
    assert diff.first_divergence == (1, 2)
    assert "only in a: spike 1 2" in diff.render()
    assert compare_traces([(1, 2)], [(1, 2), (1, 2)]).missing_in_a == [(1, 2)]


def test_trace_file_round_trip(tmp_path):
    path = tmp_path / "t"
    write_trace([(5, 2), (1, 2), (9, 1)], str(path))
    assert path.read_text() == "spike 9 1\nspike 1 2\nspike 5 2\n"
    assert read_trace(str(path)) == [(9, 1), (1, 2), (5, 2)]
    path.write_text("spike 1\n")
    with pytest.raises(ValueError):
        read_trace(str(path))
