"""The benchmark calls ``src/`` by name and signature, and its tracer wraps
names by their spelling. Changing either must fail here, not only in a
benchmark run."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Install the wrappers, then trace a small det run whose kept messages are
# encoded, so the wrapped calls must still return what the tracer counts.
# A threads run follows: its node threads step the environment themselves,
# so their spans hold the environment's as well as the node's.
PROBE = """
import sys
sys.path[:0] = ["benchmarks", "src"]
import tracing
from spikesim import engine, topology
rec = tracing.Recorder(main_role="env", keep_messages=True)
tracing.install(rec)
net, mapping, stimuli = topology.generate_random(seed=4, n=16, prob=0.12,
                                                 procs=2, horizon=30)
result = engine.DeterministicEngine(net, mapping, stimuli, 30).run()
assert result.violations == [], result.violations
counts = rec.export()["counts"]
assert counts["env_messages"] > 0 and counts["node_messages"] > 0, counts
assert tracing.computed_codec(rec)["bytes"] > 0
rec.reset()
result = engine.ThreadedEngine(net, mapping, stimuli, 30, timeout_ms=5).run()
assert result.violations == [], result.violations
node = rec.export()["totals"]["node"]
assert node["engine.node_loop"][0] == 2, node
advances = sum(node.get(name, [0])[0]
               for name in ("environment.advance_T", "environment.on_timeout"))
assert advances > 0 and node["node.cpc_step"][0] > 0, node
assert node["transport.send"][0] > 0 and node["transport.poll"][0] > 0, node
"""


def test_benchmark_tracer_installs_on_this_tree():
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def cells():
    spec = importlib.util.spec_from_file_location("benchmark_cells",
                                                  ROOT / "benchmarks" / "cells.py")
    cells = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    spec.loader.exec_module(cells)
    yield cells
    del sys.modules[spec.name]


@pytest.mark.parametrize("mode, procs", [("det", 2), ("threads", 1), ("tcp", 1)])
def test_benchmark_sets_up_each_mode_on_this_tree(cells, tmp_path, mode, procs):
    # A tiny net through the benchmark's own input writer and set-up; the
    # set-up loads, validates and builds as a benchmark cell does.
    wl = cells.Workload(name=f"{mode}-tiny", mode=mode, n=12, prob=0.15,
                        procs=procs, horizon=20, seeds=[3], held_out=[])
    [files] = cells.write_inputs(wl, wl.seeds, tmp_path)
    built = cells.set_up(wl, files)
    if mode == "tcp":  # each node process builds its own part
        assert built.sim is None
    else:
        assert sorted(built.sim.nodes) == list(range(1, procs + 1))
