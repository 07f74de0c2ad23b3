"""spikesim benchmark: simulated ticks per host second in det, threads and tcp
mode, every cell checked against the sequential oracle.

    python3 benchmarks/run.py --workload threads-p2 --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; spikesim is imported from its ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` cells, ``metrics``.
Full results, per-node counters and raw spans go to ``benchmarks/.work/``.
See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "benchmarks" / ".work"
RESULTS = WORK / "results"

# spikesim comes from this checkout only, never from an installed copy.
if not (SRC / "spikesim").is_dir():
    raise SystemExit(f"error: no spikesim sources under {SRC}")
sys.path.insert(0, str(SRC))
try:
    import cells  # noqa: E402
    import tracing  # noqa: E402
    from spikesim import oracle  # noqa: E402
except ModuleNotFoundError as exc:
    raise SystemExit(f"error: cannot import spikesim from {SRC}: {exc}")

# No cell starts after this, so a run that hits cell budgets still ends
# well inside three minutes.
RUN_DEADLINE_S = 120.0
# The host's speed drifts over seconds, so set-up and the oracle are timed
# at every cell visit, spread over the run like the cells themselves. Each
# visit repeats them for a burst; a cell's figure is the median of all its
# samples in the run, and the set's figure the sum over its cells. A set-up
# takes about 3 ms and the host switches between two speeds, so its bursts
# are long enough for the median to cover both.
SETUP_REPEAT = (3, 0.4)   # at least this many times, and this many seconds
ORACLE_REPEAT = (1, 0.1)


def _repeat(fn, samples: list[float], least: int, min_s: float):
    """Time ``fn()`` into ``samples`` over a short burst; its last result."""
    start = time.perf_counter()
    for i in itertools.count():
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
        if i + 1 >= least and time.perf_counter() - start >= min_s:
            return result


def _parse_args(workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0,
                        help="shuffles the order in which cells run")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="run whole rounds of cells while another one "
                        "fits in this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-set", choices=("default", "held-out"),
                        default="default",
                        help="the workload's network seeds, or its held-out set "
                        "for confirming a claim")
    return parser.parse_args()


class Bench:
    def __init__(self, wl, seeds: list[int], order_seed: int) -> None:
        self.wl = wl
        self.workdir = WORK / wl.name
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.files = cells.write_inputs(wl, seeds, self.workdir)
        self.rng = random.Random(order_seed)
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.refs: dict[int, list] = {}  # the oracle's trace per seed
        self.setup_samples: dict[int, list[float]] = {cf.seed: [] for cf in self.files}
        self.oracle_samples: dict[int, list[float]] = {cf.seed: [] for cf in self.files}
        self.outcomes: list = []   # every cell run, all rounds
        self.problems: list[str] = []  # anything that makes the run incorrect

    def round(self, rec=None, node_argv=cells.cli_node_argv) -> dict:
        """Every cell of the set once, in a seeded order.

        Untraced rounds also time set-up and the oracle at each cell. The
        first round computes the oracle's reference traces; later ones
        check that they repeat. Traced rounds set up once and reuse them.
        """
        order = list(self.files)
        self.rng.shuffle(order)
        outcomes = []
        for i, cf in enumerate(order):
            if time.monotonic() > self.deadline:
                self.problems.append(f"run deadline reached, seed {cf.seed} not run")
                break
            if rec is not None:
                rec.cell = i
                built = cells.set_up(self.wl, cf)
            else:
                built = _repeat(lambda: cells.set_up(self.wl, cf),
                                self.setup_samples[cf.seed], *SETUP_REPEAT)
                trace = _repeat(lambda: oracle.sequential_simulate(
                    built.net, built.stimuli, self.wl.horizon),
                    self.oracle_samples[cf.seed], *ORACLE_REPEAT)
                if self.refs.setdefault(cf.seed, trace) != trace:
                    self.problems.append(f"seed {cf.seed}: oracle trace differs "
                                         "between repetitions")
            out = cells.run_cell(self.wl, built, self.refs[cf.seed], self.workdir,
                                 node_argv=node_argv)
            status = "ok" if out.ok else f"FAILED: {out.reason}"
            print(f"cell {self.wl.name} seed {out.seed}: T={out.ticks} "
                  f"run {out.run_s:.3f} s {status}", flush=True)
            if out.silent:
                self.problems.append(f"seed {out.seed}: {out.reason}")
            outcomes.append(out)
        self.outcomes.extend(outcomes)
        ticks = sum(o.ticks for o in outcomes)
        run_s = sum(o.run_s for o in outcomes)
        return {"outcomes": outcomes, "ticks": ticks, "run_s": run_s,
                "rate": ticks / run_s if run_s else 0.0}

    def check_repeats(self, rounds: list[dict]) -> None:
        """det mode is reproducible: every round must count the same work."""
        if self.wl.mode != "det":
            return
        seen: dict[int, tuple] = {}
        for rnd in rounds:
            for out in rnd["outcomes"]:
                sig = (out.ticks, out.stats, out.node_stats)
                if seen.setdefault(out.seed, sig) != sig:
                    self.problems.append(f"seed {out.seed}: det counts differ between rounds")

    def attempted_failed(self) -> tuple[int, int]:
        return len(self.outcomes), sum(not o.ok for o in self.outcomes)

    def save(self, tag: str, data: dict) -> None:
        data["cells"] = [
            {"seed": o.seed, "ticks": o.ticks, "run_s": o.run_s, "reason": o.reason,
             "stats": o.stats, "node_stats": o.node_stats}
            for o in self.outcomes]
        data["problems"] = self.problems
        with open(RESULTS / f"{tag}.json", "w") as fh:
            json.dump(data, fh, indent=1)


def peak_rss_mb(wl) -> float:
    """Peak resident memory of this process, plus its node processes for
    tcp: the largest child's peak, once per concurrently running node."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.mode == "tcp":
        kib += wl.procs * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def _set_median(samples: dict[int, list[float]]) -> float:
    """A figure for the seed set: each cell's median, summed over cells."""
    return sum(statistics.median(v) for v in samples.values())


def timed_run(bench: Bench, seconds: float) -> tuple[dict[str, float], dict]:
    """Whole rounds while another one fits in ``seconds``, at least one.

    Each figure is a per-cell median over the run, summed over the set.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(bench.round())
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    bench.check_repeats(rounds)
    ticks: dict[int, list[float]] = {}
    run_s: dict[int, list[float]] = {}
    for out in bench.outcomes:
        ticks.setdefault(out.seed, []).append(out.ticks)
        run_s.setdefault(out.seed, []).append(out.run_s)
    oracle_s = _set_median(bench.oracle_samples)
    print(f"oracle {oracle_s:.6g} s over the set, beside the run's "
          f"{_set_median(run_s):.6g} s")
    metrics = {
        "sim_ticks_per_s": _set_median(ticks) / _set_median(run_s),
        "setup_s": _set_median(bench.setup_samples),
        "peak_rss_mb": peak_rss_mb(bench.wl),
    }
    return metrics, {
        "oracle_s": oracle_s,
        "rounds": [{k: r[k] for k in ("ticks", "run_s", "rate")} for r in rounds],
        "setup_samples": bench.setup_samples,
        "oracle_samples": bench.oracle_samples,
    }


def _stats_sums(outcomes) -> dict[str, int]:
    return {key: sum(o.stats.get(key, 0) for o in outcomes)
            for key in ("advancements", "computed", "messages_sent", "cancellations")}


def _count_signature(export: dict, outcomes) -> dict[str, int]:
    """The counts a det round must repeat exactly."""
    stats = _stats_sums(outcomes)
    counts = export["counts"]
    stats.update({
        "integrate_calls": sum(per_name.get("neuron.integrate", [0])[0]
                               for per_name in export["totals"].values()),
        "replay_steps": counts.get("membrane_steps", 0),
        "forecasts": counts.get("forecasts", 0),
        "traced_cancellations": counts.get("cancellations", 0),
        "node_messages": counts.get("node_messages", 0),
    })
    return stats


def traced_run(bench: Bench, tag: str) -> tuple[dict[str, float], dict]:
    """One untraced round as the overhead baseline, then two traced rounds.

    The per-layer metrics cover both traced rounds, which gives every
    workload enough tick gaps for a p98; in det mode the two rounds' counts
    must repeat exactly.
    """
    untraced = bench.round()
    in_process = bench.wl.mode != "tcp"
    rec = tracing.Recorder(main_role="env", keep_messages=in_process)
    tracing.install(rec)
    export = {"totals": {}, "counts": {}}
    codec = {"bytes": 0, "encode_ns": 0, "decode_ns": 0}
    gaps, outcomes, signatures = [], [], []
    for i in range(2):
        rec.reset()
        rnd = bench.round(rec=rec, node_argv=cells.traced_node_argv)
        this = rec.export()
        for out in rnd["outcomes"]:
            for node_export in out.node_counts:
                tracing.merge(this, node_export)
        signatures.append(_count_signature(this, rnd["outcomes"]))
        tracing.merge(export, this)
        gaps += tracing.tick_gaps_ms(rec.main_spans())
        if in_process:
            for key, value in tracing.computed_codec(rec).items():
                codec[key] += value
        rec.write_spans(str(RESULTS / f"{tag}.round{i + 1}.spans"))
        outcomes += rnd["outcomes"]
    traced_s = sum(o.run_s for o in outcomes)
    traced_rate = sum(o.ticks for o in outcomes) / traced_s if traced_s else 0.0
    metrics = tracing.layer_metrics(
        export, gaps, outcomes, codec if in_process else None,
        untraced_rate=untraced["rate"], traced_rate=traced_rate)
    metrics["oracle.busy_s"] = _set_median(bench.oracle_samples)

    print(f"tracing overhead: {untraced['rate']:.2f} ticks/s untraced, "
          f"{traced_rate:.2f} traced")
    beyond = sum(g > metrics["environment.tick_gap_ms.p98"] for g in gaps)
    print(f"tick gaps: {len(gaps)} samples, {beyond} beyond p98")
    table = tracing.self_time_table(export)
    loops = sum(busy for _role, span, _c, busy, _s in table
                if span in ("engine.run", "engine.node_loop"))
    print(f"self time by span, two rounds ({loops:.3f} s in engine and node loops):")
    for role, span, calls, busy, self_s in table:
        print(f"  {role:4} {span:24} {calls:9d} calls  busy {busy:8.3f} s  "
              f"self {self_s:8.3f} s")
    total_self = sum(row[4] for row in table)
    print(f"self times sum to {total_self:.3f} s: {loops:.3f} s in the engine "
          f"and node loops, {total_self - loops:.3f} s of set-up before them")
    for out in outcomes:
        per_node = {pid: s["computed"] for pid, s in sorted(out.node_stats.items())}
        print(f"seed {out.seed}: computed per node {per_node}")
    if bench.wl.mode == "det":
        for key, value in _stats_sums(untraced["outcomes"]).items():
            if value != signatures[0][key]:
                bench.problems.append(f"{key}: traced and untraced rounds differ")
        if signatures[0] != signatures[1]:
            bench.problems.append("per-layer counts differ between traced rounds")
        print("per-layer counts per round:", json.dumps(signatures[0]))
    return metrics, {"export": export, "self_times": table, "tick_gaps": len(gaps),
                     "untraced_rate": untraced["rate"], "traced_rate": traced_rate,
                     "count_signatures": signatures}


def units_of(kind: str) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main() -> int:
    # Node processes of the tcp workload import spikesim from here too.
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    workloads = cells.load_workloads()
    args = _parse_args(workloads)
    wl = workloads[args.workload]
    seeds = wl.held_out if args.seed_set == "held-out" else wl.seeds
    RESULTS.mkdir(parents=True, exist_ok=True)
    bench = Bench(wl, seeds, args.seed)
    tag = f"{wl.name}-trace{args.trace}-seed{args.seed}"
    try:
        if args.trace:
            metrics, detail = traced_run(bench, tag)
            units = units_of("per_layer")
        else:
            metrics, detail = timed_run(bench, args.seconds)
            units = units_of("end_to_end")
    finally:
        cells.stop_children()
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} "
                         "do not match BENCHMARK.json")
    attempted, failed = bench.attempted_failed()
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.4f}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for problem in bench.problems:
        print(f"INCORRECT: {problem}")
    bench.save(tag, {"workload": wl.name, "seeds": seeds, "order_seed": args.seed,
                     "metrics": metrics, "detail": detail})
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
