"""Randomized certification suite: distributed runs against the oracle.

One entry checks a single (seed, processor count) cell: generate a
reproducible workload, run the deterministic distributed engine, run the
sequential oracle on the same workload, and compare traces exactly. The
invariant monitor runs throughout, so a passing cell certifies both the
result and the protocol conditions sampled at every loop boundary.
"""

from __future__ import annotations

import time

from .engine import DeterministicEngine
from .oracle import compare_traces, sequential_simulate
from .topology import generate_random


class CellResult:
    def __init__(self, seed: int, procs: int, equal: bool, violations: list[str],
                 spikes: int, seconds: float) -> None:
        self.seed, self.procs, self.equal, self.violations = seed, procs, equal, violations
        self.spikes, self.seconds = spikes, seconds

    @property
    def ok(self) -> bool:
        return self.equal and not self.violations


class SuiteReport:
    def __init__(self, cells: list[CellResult]) -> None:
        self.cells = cells

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cells)

    @property
    def failures(self) -> list[CellResult]:
        return [c for c in self.cells if not c.ok]

    def summary(self) -> str:
        total = len(self.cells)
        bad = self.failures
        spikes = sum(c.spikes for c in self.cells)
        secs = sum(c.seconds for c in self.cells)
        head = (f"{total - len(bad)}/{total} cells passed, "
                f"{spikes} spikes certified in {secs:.1f}s")
        if not bad:
            return head
        lines = [head]
        for c in bad[:10]:
            why = "trace mismatch" if not c.equal else c.violations[0]
            lines.append(f"  FAIL seed={c.seed} procs={c.procs}: {why}")
        return "\n".join(lines)


def run_cell(seed: int, procs: int, n: int = 24, prob: float = 0.12,
             horizon: int = 200) -> CellResult:
    net, mapping, stimuli = generate_random(seed=seed, n=n, prob=prob,
                                            procs=procs, horizon=horizon)
    start = time.perf_counter()
    result = DeterministicEngine(net, mapping, stimuli, horizon).run()
    expected = sequential_simulate(net, stimuli, horizon)
    diff = compare_traces(result.trace, expected)
    violations = list(result.violations)
    if not diff.empty:
        violations.insert(0, diff.render().splitlines()[0])
    return CellResult(seed=seed, procs=procs, equal=diff.empty,
                      violations=violations, spikes=len(expected),
                      seconds=time.perf_counter() - start)


def run_property_suite(seeds, procs_list=(1, 2, 4), n: int = 24,
                       prob: float = 0.12, horizon: int = 200) -> SuiteReport:
    return SuiteReport([run_cell(seed, procs, n=n, prob=prob, horizon=horizon)
                        for seed in seeds for procs in procs_list])
