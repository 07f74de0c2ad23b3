"""Traced tcp node: the CLI's ``run --mode tcp --node`` path with the
benchmark's wrappers installed.

Writes the node's trace shard exactly as the CLI does, and next to it a
JSON file with the node's span totals, counters and ``NodeState.stats``.
Exits non-zero without a shard when the node fails, like the CLI.
"""

from __future__ import annotations

import argparse
import json
import sys

import tracing
from spikesim import engine, oracle, topology


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    for flag in ("--net", "--map", "--stim", "--roster", "--out", "--counts"):
        parser.add_argument(flag, required=True)
    parser.add_argument("--horizon", type=int, required=True)
    parser.add_argument("--node", type=int, required=True)
    args = parser.parse_args()

    rec = tracing.Recorder(main_role="node")
    tracing.install(rec)
    data = {}
    try:
        net = topology.load_network(args.net)
        mapping = topology.load_mapping(args.map)
        stimuli = topology.load_stimuli(args.stim)
        report = topology.validate(net, mapping)
        if not report.ok:
            for line in report.violations:
                print(f"invalid input: {line}", file=sys.stderr)
            return 2
        node = engine.run_tcp_node(net, mapping, stimuli, args.horizon,
                                   node_id=args.node, roster_path=args.roster)
        oracle.write_trace(node.trace, f"{args.out}.shard{args.node}")
        data["node_stats"] = node.stats.as_dict()
    finally:
        data.update(rec.export())
        with open(args.counts, "w") as fh:
            json.dump(data, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
