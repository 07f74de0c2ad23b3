"""The benchmark's tracer wraps names of ``src/`` by their spelling. Renaming
one must fail here, not only in a ``--trace 1`` benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Install the wrappers, then trace a small det run whose kept messages are
# encoded, so the wrapped calls must still return what the tracer counts.
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
"""


def test_benchmark_tracer_installs_on_this_tree():
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
