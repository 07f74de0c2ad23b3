import pytest
from hypothesis import given, settings, strategies as st

from spikesim.engine import build_simulation
from spikesim.events import EXT_NEURON, TopologyError
from spikesim.neuron import NeuronParams, Synapse
from spikesim.topology import (MappingSpec, NetworkSpec, generate_random,
                               load_mapping, load_network, load_stimuli,
                               save_mapping, save_network, save_stimuli,
                               validate)


def small_net():
    net = NetworkSpec()
    for nid in (1, 2, 3):
        net.neurons[nid] = NeuronParams(threshold=1.0, tau=10.0)
    net.synapses = [(1, 2, 0.5, 2), (2, 3, -0.25, 1), (1, 3, 0.75, 4)]
    net.inputs = {1}
    net.outputs = {3}
    return net


def test_file_round_trip(tmp_path):
    net = small_net()
    mapping = MappingSpec(assignment={1: 1, 2: 2, 3: 1}, procs=2)
    stimuli = {0: [1], 7: [1]}
    save_network(net, str(tmp_path / "a.net"))
    save_mapping(mapping, str(tmp_path / "a.map"))
    save_stimuli(stimuli, str(tmp_path / "a.stim"))
    net2 = load_network(str(tmp_path / "a.net"))
    mapping2 = load_mapping(str(tmp_path / "a.map"))
    stimuli2 = load_stimuli(str(tmp_path / "a.stim"))
    assert net2.synapses == net.synapses
    assert set(net2.neurons) == set(net.neurons)
    assert (net2.inputs, net2.outputs) == (net.inputs, net.outputs)
    assert mapping2.assignment == mapping.assignment
    assert mapping2.procs == 2
    assert stimuli2 == stimuli


def test_validate_accepts_consistent_spec():
    report = validate(small_net(), MappingSpec({1: 1, 2: 1, 3: 2}, procs=2))
    assert report.ok


def test_validate_rejects_zero_delay():
    net = small_net()
    net.synapses.append((2, 1, 0.5, 0))
    report = validate(net, MappingSpec({1: 1, 2: 1, 3: 1}, procs=1))
    assert any("delay" in v for v in report.violations)


def test_validate_rejects_unknown_endpoints_and_unmapped():
    net = small_net()
    net.synapses.append((9, 2, 0.5, 1))
    report = validate(net, MappingSpec({1: 1, 2: 1}, procs=1))
    assert "synapse 9->2: unknown endpoint" in report.violations
    assert any("unmapped" in v for v in report.violations)


def test_validate_reports_every_synapse_problem():
    # A hand-built spec bypasses load_network: validate alone must catch a
    # repeated pair, which would otherwise route one spike twice.
    net = small_net()
    net.synapses += [(1, 2, 0.6, 1), (2, 9, 0.5, 0), (1, 2, 0.1, 3)]
    report = validate(net, MappingSpec({1: 1, 2: 1, 3: 1}, procs=1))
    assert report.violations == [
        "duplicate synapse 1->2",
        "synapse 2->9: unknown endpoint", "synapse 2->9: delay 0 < 1",
        "duplicate synapse 1->2",
    ]


def test_validate_rejects_environment_assignment():
    report = validate(small_net(), MappingSpec({1: 0, 2: 1, 3: 1}, procs=1))
    assert any("0 is the environment" in v for v in report.violations)


@pytest.mark.parametrize("change, why", [
    (lambda net, mapping: net.inputs.add(8), "io neuron 8 not declared"),
    (lambda net, mapping: net.outputs.add(9), "io neuron 9 not declared"),
    (lambda net, mapping: setattr(mapping, "procs", 0), "procs 0 < 1"),
    (lambda net, mapping: mapping.assignment.update({7: 1}),
     "assignment of unknown neuron 7"),
    (lambda net, mapping: mapping.assignment.update({3: 3}),
     "neuron 3 assigned to processor 3, outside 1..2"),
    (lambda net, mapping: setattr(mapping, "procs", 0),
     "neuron 1 assigned to processor 1, outside 1..0"),
], ids=["input", "output", "procs", "assignment", "above-procs", "no-procs"])
def test_validate_rejects_what_the_spec_does_not_declare(change, why):
    net, mapping = small_net(), MappingSpec({1: 1, 2: 1, 3: 2}, procs=2)
    change(net, mapping)
    assert why in validate(net, mapping).violations


def test_validate_flags_unreachable_output():
    net = small_net()
    net.synapses = [(1, 2, 0.5, 2)]
    report = validate(net, MappingSpec({1: 1, 2: 1, 3: 1}, procs=1))
    assert any("unreachable" in v for v in report.violations)


@pytest.mark.parametrize("net, mapping", [
    (small_net(), MappingSpec({1: 1, 2: 2, 3: 1}, procs=2)),
    generate_random(seed=5, n=24, prob=0.2, procs=3)[:2],
], ids=["small", "random"])
def test_routing_tables_partition_synapses_exactly(net, mapping):
    # Each synapse is one fanout entry, on its target's processor. Each
    # (source, other processor) pair that a synapse crosses is one owners
    # entry, on its source's processor.
    _env, nodes = build_simulation(net, mapping, {}, horizon=10)
    owner = mapping.assignment
    fanned = [(src, dst) for pid, node in nodes.items()
              for src, targets in node.fanout.items() for dst in targets
              if owner[dst] == pid]
    assert sorted(fanned) == sorted((s, d) for s, d, _w, _dl in net.synapses)
    assert sum(len(targets) for node in nodes.values()
               for targets in node.fanout.values()) == len(net.synapses)
    reached = [(src, other) for pid, node in nodes.items()
               for src, others in node.owners.items() for other in others
               if owner[src] == pid]
    assert sorted(reached) == sorted({(s, owner[d]) for s, d, _w, _dl in net.synapses
                                      if owner[s] != owner[d]})
    assert all(entry for node in nodes.values()
               for entry in (*node.fanout.values(), *node.owners.values()))


def test_build_simulation_rejects_an_unmapped_neuron():
    net = small_net()
    net.neurons[4] = NeuronParams(threshold=1.0, tau=10.0)  # no synapse either
    with pytest.raises(TopologyError, match="neuron 4 unmapped"):
        build_simulation(net, MappingSpec({1: 1, 2: 2, 3: 1}, procs=2), {}, horizon=10)


def test_build_simulation_gives_only_inputs_a_stimulus_synapse():
    net = small_net()
    mapping = MappingSpec({1: 1, 2: 2, 3: 1}, procs=2)
    _env, nodes = build_simulation(net, mapping, {}, horizon=10)
    cells = {nid: cell for node in nodes.values() for nid, cell in node.ecs.items()}
    assert cells[1].synapses == {EXT_NEURON: Synapse(2.0, 1)}  # stim_weight 2 * theta
    assert cells[2].synapses == {1: Synapse(0.5, 2)}
    assert cells[3].synapses == {2: Synapse(-0.25, 1), 1: Synapse(0.75, 4)}
    # A tcp node builds its own cells' tables only; the launcher builds none.
    _env, nodes = build_simulation(net, mapping, {}, horizon=10, only_node=2)
    assert list(nodes) == [2] and nodes[2].ecs[2].synapses == {1: Synapse(0.5, 2)}
    assert build_simulation(net, mapping, {}, horizon=10, only_node=-1)[1] == {}


def test_duplicate_synapse_rejected(tmp_path):
    path = tmp_path / "bad.net"
    save_network(small_net(), str(path))
    with open(path, "a") as fh:
        fh.write("synapse 1 2 0.1 3\n")
    with pytest.raises(TopologyError, match="duplicate synapse 1->2"):
        load_network(str(path))


def test_load_network_raises_on_the_first_synapse_problem(tmp_path):
    path = tmp_path / "bad.net"
    save_network(small_net(), str(path))
    with open(path, "a") as fh:
        fh.write("synapse 3 1 0.5 0\nsynapse 1 2 0.1 3\n")
    with pytest.raises(TopologyError, match=r"^synapse 3->1: delay 0 < 1$"):
        load_network(str(path))


def test_generator_is_deterministic():
    a = generate_random(seed=11, n=20, prob=0.1, procs=3)
    b = generate_random(seed=11, n=20, prob=0.1, procs=3)
    assert a[0].synapses == b[0].synapses
    assert a[1].assignment == b[1].assignment
    assert a[2] == b[2]


def test_generator_output_validates():
    net, mapping, _ = generate_random(seed=5, n=64, prob=0.1, procs=4)
    report = validate(net, mapping)
    assert report.ok, report.violations[:3]
    assert set(mapping.assignment.values()) == {1, 2, 3, 4}


def test_generator_zero_probability_has_no_synapses():
    net, _, _ = generate_random(seed=5, n=16, prob=0.0, procs=2)
    assert net.synapses == []


def test_generator_forces_inhibition_and_delay_spread():
    net, _, _ = generate_random(seed=5, n=32, prob=0.1, procs=2)
    weights = [w for _s, _d, w, _dl in net.synapses]
    delays = [dl for _s, _d, _w, dl in net.synapses]
    assert any(w < 0 for w in weights)
    assert max(delays) - min(delays) >= 2


@pytest.mark.parametrize("kwargs, why", [
    ({"prob": 1.5}, "connection probability must be in [0, 1]"),
    ({"prob": -0.1}, "connection probability must be in [0, 1]"),
    ({"n": 0}, "n and procs must be positive"),
    ({"procs": 0}, "n and procs must be positive"),
])
def test_generator_rejects_bad_arguments(kwargs, why):
    with pytest.raises(ValueError) as exc_info:
        generate_random(**{"seed": 1, "n": 8, "prob": 0.1, "procs": 1, **kwargs})
    assert str(exc_info.value) == why


def test_parse_errors_carry_location(tmp_path):
    path = tmp_path / "bad.net"
    path.write_text("neuron 1 theta 1.0 tau 10\nsynapse 1\n")
    with pytest.raises(TopologyError, match="bad.net:2"):
        load_network(str(path))


@pytest.mark.parametrize("load, text, why", [
    (load_network, "neuron 1 theta 1.0 tau 10 model izh\n",
     "bad.txt:1: unsupported neuron model 'izh'"),
    (load_network, "neuron 1 theta 1.0 tau 10\nneurons 2\n",
     "bad.txt:2: unknown directive 'neurons'"),
    (load_mapping, "procs 2\nprocessors 2\n", "bad.txt:2: unknown directive 'processors'"),
    (load_mapping, "procs 2\nassign 1 x\n",
     "bad.txt:2: invalid literal for int() with base 10: 'x'"),
    (load_stimuli, "stim 1 0\nstimulus 1 2\n", "bad.txt:2: unknown directive 'stimulus'"),
    (load_stimuli, "stim 1\n", "bad.txt:1: list index out of range"),
], ids=["net-model", "net-directive", "map-directive", "map-field",
        "stim-directive", "stim-field"])
def test_loaders_reject_a_bad_line_with_its_location(tmp_path, load, text, why):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(TopologyError) as exc_info:
        load(str(path))
    assert str(exc_info.value).endswith(why)


def test_negative_stimulus_time_rejected(tmp_path):
    path = tmp_path / "bad.stim"
    path.write_text("stim 1 -2\n")
    with pytest.raises(TopologyError):
        load_stimuli(str(path))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), procs=st.integers(1, 6))
def test_generator_mapping_covers_all_neurons(seed, procs):
    net, mapping, _ = generate_random(seed=seed, n=12, prob=0.15, procs=procs)
    assert set(mapping.assignment) == set(net.neurons)
    assert all(1 <= p <= procs for p in mapping.assignment.values())
