"""Command-line interface.

Subcommands:

    run      distributed simulation (deterministic, threaded, or tcp)
    oracle   sequential reference simulation
    compare  diff two trace files
    gen      reproducible random workload generator
    suite    randomized certification against the oracle

Exit codes: 0 success (or traces equal), 1 semantic difference or
invariant failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import NoReturn

from .engine import (DeterministicEngine, ThreadedEngine, run_tcp_launcher,
                     run_tcp_node)
from .events import TopologyError
from .oracle import (compare_traces, read_trace, sequential_simulate,
                     trace_order, write_trace)
from .topology import (generate_random, load_mapping, load_network,
                       load_stimuli, save_mapping, save_network, save_stimuli,
                       validate, validate_stimuli)
from .transport import CodecError, TransportError, load_roster


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikesim",
        description="Event-driven distributed spiking network simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the distributed simulation")
    run.add_argument("--net", required=True, help="network description file")
    run.add_argument("--map", required=True, dest="mapping",
                     help="neuron-to-processor mapping file")
    run.add_argument("--stim", required=True, help="stimulus schedule file")
    run.add_argument("--mode", choices=("det", "threads", "tcp"), default="det")
    run.add_argument("--horizon", type=int, required=True,
                     help="simulate spikes up to this time (inclusive)")
    run.add_argument("--minpak", type=int, default=1,
                     help="minimum events per non-urgent message")
    run.add_argument("--timeout-ms", type=int, default=20,
                     help="longest wait on an empty inbox (threads/tcp modes)")
    run.add_argument("--out", help="write the firing trace here")
    run.add_argument("--stats", help="write run statistics here as JSON")
    run.add_argument("--roster", help="tcp mode: processor address file")
    run.add_argument("--node", type=int,
                     help="tcp mode: run as this compute processor only")

    oracle = sub.add_parser("oracle", help="run the sequential reference")
    oracle.add_argument("--net", required=True)
    oracle.add_argument("--stim", required=True)
    oracle.add_argument("--horizon", type=int, required=True)
    oracle.add_argument("--out", help="write the firing trace here")

    compare = sub.add_parser("compare", help="diff two trace files")
    compare.add_argument("a")
    compare.add_argument("b")

    gen = sub.add_parser("gen", help="generate a random workload")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--procs", type=int, required=True)
    gen.add_argument("--out", required=True,
                     help="prefix; writes <out>.net, <out>.map, <out>.stim")
    gen.add_argument("--n", type=int, default=24, help="neuron count")
    gen.add_argument("--prob", type=float, default=0.12,
                     help="connection probability")
    gen.add_argument("--horizon", type=int, default=200,
                     help="stimulus schedule length")

    suite = sub.add_parser("suite", help="randomized oracle certification")
    suite.add_argument("--seeds", type=int, default=20,
                       help="number of random seeds (0..seeds-1)")
    suite.add_argument("--procs", default="1,2,4",
                       help="comma-separated processor counts")
    suite.add_argument("--n", type=int, default=24)
    suite.add_argument("--prob", type=float, default=0.12)
    suite.add_argument("--horizon", type=int, default=200)
    return parser


def _require_valid(violations: list[str]) -> None:
    if violations:
        for line in violations:
            print(f"invalid input: {line}", file=sys.stderr)
        raise SystemExit(2)


def _load_run_inputs(args):
    net = load_network(args.net)
    mapping = load_mapping(args.mapping)
    stimuli = load_stimuli(args.stim)
    _require_valid(validate(net, mapping).violations
                   + validate_stimuli(net, stimuli))
    return net, mapping, stimuli


def _cmd_run(args) -> int:
    net, mapping, stimuli = _load_run_inputs(args)
    if args.horizon < 1:
        print("horizon must be positive", file=sys.stderr)
        return 2

    if args.mode == "tcp":
        if not args.roster:
            print("tcp mode requires --roster", file=sys.stderr)
            return 2
        procs, roster = mapping.procs, load_roster(args.roster)
        problems = [f"roster has no line for processor {pid}"
                    for pid in range(procs + 1) if pid not in roster]
        problems += [f"roster names processor {pid}, outside 0..{procs}"
                     for pid in sorted(roster) if not 0 <= pid <= procs]
        if args.node is not None and not 1 <= args.node <= procs:
            problems.append(f"--node {args.node} is not a compute processor 1..{procs}")
        _require_valid(problems)
        prefix = args.out or "trace"
        if args.node is not None:
            node = run_tcp_node(net, mapping, stimuli, args.horizon,
                                node_id=args.node, roster_path=args.roster,
                                minpak=args.minpak, timeout_ms=args.timeout_ms)
            write_trace(node.trace, f"{prefix}.shard{args.node}")
            return 0
        node_argv = []
        for pid in range(1, mapping.procs + 1):
            with contextlib.suppress(FileNotFoundError):  # a shard of an earlier run
                os.remove(f"{prefix}.shard{pid}")
            node_argv.append([
                sys.executable, "-m", "spikesim", "run",
                "--net", args.net, "--map", args.mapping, "--stim", args.stim,
                "--mode", "tcp", "--horizon", str(args.horizon),
                "--minpak", str(args.minpak), "--timeout-ms", str(args.timeout_ms),
                "--roster", args.roster, "--node", str(pid), "--out", prefix,
            ])
        result = run_tcp_launcher(net, mapping, stimuli, args.horizon,
                                  roster_path=args.roster, node_argv=node_argv,
                                  timeout_ms=args.timeout_ms)
        trace = []
        for pid in range(1, mapping.procs + 1):
            try:
                trace.extend(read_trace(f"{prefix}.shard{pid}"))
            except FileNotFoundError:
                result.violations.append(f"missing trace shard {pid}")
        trace.sort(key=trace_order)
        result.trace = trace
    elif args.mode == "threads":
        result = ThreadedEngine(net, mapping, stimuli, args.horizon,
                                minpak=args.minpak,
                                timeout_ms=args.timeout_ms).run()
    else:
        result = DeterministicEngine(net, mapping, stimuli, args.horizon,
                                     minpak=args.minpak).run()

    if args.out:
        write_trace(result.trace, args.out)
    if args.stats:
        import json  # a tcp node process writes no stats
        with open(args.stats, "w") as fh:
            json.dump(result.stats, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"{len(result.trace)} spikes, T advanced "
          f"{result.stats.get('advancements', 0)} times")
    if result.violations:
        for line in result.violations:
            print(f"violation: {line}", file=sys.stderr)
        return 1
    return 0


def _cmd_oracle(args) -> int:
    net = load_network(args.net)
    stimuli = load_stimuli(args.stim)
    _require_valid(validate_stimuli(net, stimuli))
    trace = sequential_simulate(net, stimuli, args.horizon)
    if args.out:
        write_trace(trace, args.out)
    print(f"{len(trace)} spikes")
    return 0


def _cmd_compare(args) -> int:
    diff = compare_traces(read_trace(args.a), read_trace(args.b))
    print(diff.render())
    return 0 if diff.empty else 1


def _cmd_gen(args) -> int:
    net, mapping, stimuli = generate_random(
        seed=args.seed, n=args.n, prob=args.prob, procs=args.procs,
        horizon=args.horizon)
    save_network(net, args.out + ".net")
    save_mapping(mapping, args.out + ".map")
    save_stimuli(stimuli, args.out + ".stim")
    print(f"wrote {args.out}.net/.map/.stim "
          f"({args.n} neurons, {len(net.synapses)} synapses)")
    return 0


def _cmd_suite(args) -> int:
    from .suite import run_property_suite  # no other command needs it
    procs_list = tuple(int(p) for p in args.procs.split(","))
    report = run_property_suite(range(args.seeds), procs_list=procs_list,
                                n=args.n, prob=args.prob, horizon=args.horizon)
    print(report.summary())
    return 0 if report.ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "oracle": _cmd_oracle,
        "compare": _cmd_compare,
        "gen": _cmd_gen,
        "suite": _cmd_suite,
    }[args.command]
    try:
        return handler(args)
    except (OSError, TopologyError, CodecError, TransportError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run_and_exit(argv: list[str]) -> NoReturn:
    """End this process as ``python -m spikesim *argv`` does: run
    ``main(argv)``, flush stdout and stderr, and skip the interpreter's
    teardown, since main closed every file it wrote. A ``SystemExit`` gives
    its own code; any other exception prints its traceback and exits 1.
    Never returns, so a node the tcp launcher forked never resumes its code.
    """
    code = 1
    try:
        try:
            code = main(argv)
        except SystemExit as exc:  # None is success, any other object failure
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except BaseException:  # reported here: raising would not end the process
            sys.excepthook(*sys.exc_info())
        sys.stdout.flush()
        sys.stderr.flush()
    finally:
        os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
