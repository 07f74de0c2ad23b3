import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

import spikesim
from spikesim import cli, engine
from spikesim.cli import main
from spikesim.engine import RunResult
from spikesim.events import ProtocolViolation
from spikesim.neuron import ECState
from spikesim.oracle import read_trace, sequential_simulate
from spikesim.suite import CellResult, SuiteReport
from spikesim.topology import load_network, load_stimuli

SRC = str(Path(spikesim.__file__).parent.parent)


def gen_workload(tmp_path, seed=3, procs=2, n=12, horizon=40):
    prefix = str(tmp_path / "w")
    assert main(["gen", "--seed", str(seed), "--procs", str(procs),
                 "--n", str(n), "--prob", "0.15",
                 "--horizon", str(horizon), "--out", prefix]) == 0
    return prefix


def test_run_oracle_compare_pipeline(tmp_path, capsys):
    prefix = gen_workload(tmp_path)
    run_trace = str(tmp_path / "run.trace")
    oracle_trace = str(tmp_path / "oracle.trace")
    stats = str(tmp_path / "stats.json")
    assert main(["run", "--net", prefix + ".net", "--map", prefix + ".map",
                 "--stim", prefix + ".stim", "--horizon", "40",
                 "--out", run_trace, "--stats", stats]) == 0
    assert main(["oracle", "--net", prefix + ".net", "--stim",
                 prefix + ".stim", "--horizon", "40",
                 "--out", oracle_trace]) == 0
    assert main(["compare", run_trace, oracle_trace]) == 0
    out = capsys.readouterr().out
    assert "traces identical" in out
    with open(stats) as fh:
        recorded = json.load(fh)
    assert recorded["advancements"] > 40


def test_compare_detects_difference(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.write_text("spike 1 1\n")
    b.write_text("spike 1 1\nspike 2 5\n")
    assert main(["compare", str(a), str(b)]) == 1
    assert "only in b" in capsys.readouterr().out


def test_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["compare", str(tmp_path / "nope"), str(tmp_path / "nope")]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_network_is_usage_error(tmp_path, capsys):
    net = tmp_path / "bad.net"
    net.write_text("neuron 1 theta 1.0 tau 10\nsynapse 1 2 0.5 1\n")
    mapping = tmp_path / "bad.map"
    mapping.write_text("procs 1\nassign 1 1\n")
    stim = tmp_path / "bad.stim"
    stim.write_text("")
    assert main(["run", "--net", str(net), "--map", str(mapping),
                 "--stim", str(stim), "--horizon", "10"]) == 2
    assert "unknown endpoint" in capsys.readouterr().err


@pytest.mark.parametrize("synapse, why", [
    ("synapse 0 7 0.25 3", "error: duplicate synapse 0->7"),
    ("synapse 0 99 0.25 3", "error: synapse 0->99: unknown endpoint"),
    ("synapse 5 5 0.25 0", "error: synapse 5->5: delay 0 < 1"),
])
def test_bad_synapse_list_is_usage_error_for_run_and_oracle(tmp_path, capsys,
                                                            synapse, why):
    prefix = gen_workload(tmp_path, procs=1)  # seed 3 has a synapse 0->7
    with open(prefix + ".net", "a") as fh:
        fh.write(synapse + "\n")
    capsys.readouterr()
    inputs = ["--net", prefix + ".net", "--stim", prefix + ".stim", "--horizon", "40"]
    for argv in (["run", "--map", prefix + ".map", *inputs], ["oracle", *inputs]):
        assert main(argv) == 2
        assert why in capsys.readouterr().err


@pytest.mark.parametrize("stim, why", [
    ("stim 999 0\n", "neuron 999, which is not a declared input"),
    # Neuron 7 is declared but is not an input, so its cell has no stimulus
    # synapse; det used to fail with a stale arrival.
    ("stim 7 5\nstim 7 30\nstim 7 60\n",
     "neuron 7, which is not a declared input"),
])
def test_stimulus_outside_the_inputs_is_usage_error(tmp_path, capsys, stim, why):
    prefix = str(tmp_path / "w")
    assert main(["gen", "--seed", "11", "--procs", "2", "--n", "24",
                 "--prob", "0.15", "--horizon", "100", "--out", prefix]) == 0
    with open(prefix + ".stim", "w") as fh:
        fh.write(stim)
    capsys.readouterr()
    for argv in (["run", "--map", prefix + ".map"], ["oracle"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--net", prefix + ".net", "--stim", prefix + ".stim",
                         "--horizon", "100"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and why in err


def test_threads_mode_runs(tmp_path):
    prefix = gen_workload(tmp_path, horizon=20)
    assert main(["run", "--net", prefix + ".net", "--map", prefix + ".map",
                 "--stim", prefix + ".stim", "--horizon", "20",
                 "--mode", "threads", "--timeout-ms", "5"]) == 0


@pytest.mark.parametrize("timeout_ms", ["0", "-5"])
def test_timeout_below_1_ms_is_usage_error(tmp_path, capsys, timeout_ms):
    # Without the check, T races past the horizon before any node runs and
    # the run exits 0 with no spikes.
    prefix = str(tmp_path / "w")
    assert main(["gen", "--seed", "4", "--procs", "2", "--n", "16",
                 "--prob", "0.12", "--horizon", "50", "--out", prefix]) == 0
    assert main(["run", "--net", prefix + ".net", "--map", prefix + ".map",
                 "--stim", prefix + ".stim", "--horizon", "50",
                 "--mode", "threads", "--timeout-ms", timeout_ms]) == 2
    assert "timeout_ms must be at least 1" in capsys.readouterr().err


def test_horizon_below_1_is_usage_error(tmp_path, capsys):
    prefix = gen_workload(tmp_path)
    assert main(["run", "--net", prefix + ".net", "--map", prefix + ".map",
                 "--stim", prefix + ".stim", "--horizon", "0"]) == 2
    assert "horizon must be positive" in capsys.readouterr().err


def test_det_reports_a_protocol_violation(tmp_path, capsys, monkeypatch):
    # As in threads mode, a node's ProtocolViolation is a reported violation
    # with exit code 1 and the run's partial result, not a traceback.
    integrate, calls = ECState.integrate, []

    def failing(cell, stamp, sources):
        calls.append(stamp)
        if len(calls) == 5:
            raise ProtocolViolation("injected")
        return integrate(cell, stamp, sources)

    monkeypatch.setattr(ECState, "integrate", failing)
    prefix = gen_workload(tmp_path)
    stats = tmp_path / "stats.json"
    assert main(["run", "--net", prefix + ".net", "--map", prefix + ".map",
                 "--stim", prefix + ".stim", "--horizon", "40",
                 "--stats", str(stats)]) == 1
    assert len(calls) == 5
    err = capsys.readouterr().err
    assert err.splitlines() == ["violation: node 2: ProtocolViolation('injected')"]
    assert json.loads(stats.read_text())["computed"] > 0


def test_suite_subcommand(capsys):
    assert main(["suite", "--seeds", "2", "--procs", "1,2", "--n", "12",
                 "--horizon", "50"]) == 0
    assert "cells passed" in capsys.readouterr().out


def test_suite_summary_names_each_failing_cell():
    cells = [CellResult(1, 2, True, [], 10, 0.5),
             CellResult(2, 4, False, ["only in a: spike 3 7"], 3, 0.25),
             CellResult(3, 1, True, ["node 1: boom"], 0, 0.25)]
    assert SuiteReport(cells).summary().splitlines() == [
        "1/3 cells passed, 13 spikes certified in 1.0s",
        "  FAIL seed=2 procs=4: trace mismatch",
        "  FAIL seed=3 procs=1: node 1: boom"]


def test_tcp_mode_requires_roster(tmp_path, capsys):
    prefix = gen_workload(tmp_path, horizon=10)
    assert main(["run", "--net", prefix + ".net", "--map", prefix + ".map",
                 "--stim", prefix + ".stim", "--horizon", "10",
                 "--mode", "tcp"]) == 2
    assert "roster" in capsys.readouterr().err


def write_roster(path, pids):
    """A roster naming ``pids``; its ports are never bound."""
    path.write_text("".join(f"{pid} 127.0.0.1:{40000 + pid}\n" for pid in pids))


@pytest.mark.parametrize("pids, node, why", [
    ((0, 1, 2), ["--node", "9"], "--node 9 is not a compute processor 1..2"),
    ((0, 1, 2), ["--node", "0"], "--node 0 is not a compute processor 1..2"),
    ((0, 1), [], "roster has no line for processor 2"),
    ((0, 1, 2, 3), [], "roster names processor 3, outside 0..2"),
], ids=["node-9", "node-0", "roster-without-2", "roster-with-3"])
def test_tcp_usage_error_exits_2_before_anything_starts(tmp_path, capsys, monkeypatch,
                                                        pids, node, why):
    def refuse(*args, **_kwargs):
        raise AssertionError(f"started {args}")

    monkeypatch.setattr(os, "posix_spawnp", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(engine, "TcpBackend", refuse)
    prefix = gen_workload(tmp_path, procs=2, horizon=10)
    write_roster(tmp_path / "roster", pids)
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--net", prefix + ".net", "--map", prefix + ".map",
              "--stim", prefix + ".stim", "--horizon", "10", "--mode", "tcp",
              "--roster", str(tmp_path / "roster"), *node])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.splitlines() == [f"invalid input: {why}"]


def run_tcp_with_crashed_nodes(tmp_path, monkeypatch):
    """``spikesim run --mode tcp`` at P=2 whose node processes all failed;
    the trace goes to ``tmp_path / "tcp.trace"``."""
    def crashed_launcher(*_args, **_kwargs):
        return RunResult(trace=[], outputs=[], stats={"advancements": 9},
                         violations=["node process exited with 1"])

    monkeypatch.setattr(cli, "run_tcp_launcher", crashed_launcher)
    prefix = gen_workload(tmp_path, procs=2, horizon=10)
    write_roster(tmp_path / "roster", (0, 1, 2))
    return main(["run", "--net", prefix + ".net", "--map", prefix + ".map",
                 "--stim", prefix + ".stim", "--horizon", "10",
                 "--mode", "tcp", "--roster", str(tmp_path / "roster"),
                 "--out", str(tmp_path / "tcp.trace")])


def test_tcp_crashed_node_is_a_violation(tmp_path, capsys, monkeypatch):
    # A node that fails writes no shard; the launcher reports its exit.
    assert run_tcp_with_crashed_nodes(tmp_path, monkeypatch) == 1
    err = capsys.readouterr().err
    assert "violation: missing trace shard 1" in err
    assert "violation: missing trace shard 2" in err


def test_tcp_shard_of_an_earlier_run_is_not_read(tmp_path, capsys, monkeypatch):
    # The launcher deletes each shard before its nodes start, so a node that
    # fails is reported even where an earlier run left its shard behind.
    (tmp_path / "tcp.trace.shard1").write_text("spike 4 7\n")
    assert run_tcp_with_crashed_nodes(tmp_path, monkeypatch) == 1
    err = capsys.readouterr().err
    assert "violation: missing trace shard 1" in err
    assert "violation: missing trace shard 2" in err
    assert read_trace(str(tmp_path / "tcp.trace")) == []


def test_tcp_nodes_wait_as_long_as_the_launcher(tmp_path, monkeypatch):
    # The launcher hands --timeout-ms to each node process it spawns.
    launched, nodes = {}, {}

    def launcher(*_args, node_argv, timeout_ms, **_kw):
        launched.update(argv=node_argv, timeout_ms=timeout_ms)
        return RunResult(trace=[], outputs=[], stats={}, violations=[])

    def node(*_args, node_id, timeout_ms, **_kw):
        nodes[node_id] = timeout_ms
        return SimpleNamespace(trace=[])

    monkeypatch.setattr(cli, "run_tcp_launcher", launcher)
    monkeypatch.setattr(cli, "run_tcp_node", node)
    prefix = gen_workload(tmp_path, procs=2, horizon=10)
    write_roster(tmp_path / "roster", (0, 1, 2))
    assert main(["run", "--net", prefix + ".net", "--map", prefix + ".map",
                 "--stim", prefix + ".stim", "--horizon", "10", "--mode", "tcp",
                 "--roster", str(tmp_path / "roster"), "--timeout-ms", "7",
                 "--out", str(tmp_path / "tcp.trace")]) == 1  # no shards
    assert launched["timeout_ms"] == 7 and len(launched["argv"]) == 2
    for argv in launched["argv"]:
        assert argv[:3] == [sys.executable, "-m", "spikesim"]
        assert main(argv[3:]) == 0
    assert nodes == {1: 7, 2: 7}


def test_tcp_run_at_four_processors_equals_det(tmp_path, free_ports):
    # Each of the five processes accepts four connections.
    prefix = gen_workload(tmp_path, seed=5, procs=4, n=24, horizon=60)
    roster = tmp_path / "roster"
    roster.write_text("".join(f"{pid} 127.0.0.1:{port}\n"
                              for pid, port in enumerate(free_ports(5))))
    inputs = ["--net", prefix + ".net", "--map", prefix + ".map",
              "--stim", prefix + ".stim", "--horizon", "60"]
    for mode in ("det", "tcp"):
        assert main(["run", *inputs, "--mode", mode, "--roster", str(roster),
                     "--out", str(tmp_path / f"{mode}.trace")]) == 0
    det = read_trace(str(tmp_path / "det.trace"))
    assert det and read_trace(str(tmp_path / "tcp.trace")) == det


def write_free_roster(path, free_ports, procs):
    path.write_text("".join(f"{pid} 127.0.0.1:{port}\n"
                            for pid, port in enumerate(free_ports(procs + 1))))


def tcp_run_of_the_readme_net(tmp_path, free_ports, procs):
    """Run README's net over tcp through the CLI at P=``procs``; return the
    exit code, the run's trace and the oracle's."""
    prefix = str(tmp_path / "w")
    assert main(["gen", "--seed", "7", "--n", "64", "--prob", "0.1",
                 "--procs", str(procs), "--out", prefix]) == 0
    write_free_roster(tmp_path / "roster", free_ports, procs)
    code = main(["run", "--net", prefix + ".net", "--map", prefix + ".map",
                 "--stim", prefix + ".stim", "--horizon", "200", "--mode", "tcp",
                 "--roster", str(tmp_path / "roster"),
                 "--out", str(tmp_path / "tcp.trace")])
    expected = sequential_simulate(load_network(prefix + ".net"),
                                   load_stimuli(prefix + ".stim"), 200)
    return code, read_trace(str(tmp_path / "tcp.trace")), expected


@pytest.mark.parametrize("procs", [1, 2])
def test_tcp_run_forks_its_nodes_and_equals_the_oracle(tmp_path, free_ports, forked,
                                                       procs):
    # No node is spawned: each is a fork of this process that runs the CLI.
    code, trace, expected = tcp_run_of_the_readme_net(tmp_path, free_ports, procs)
    assert code == 0 and expected and trace == expected
    assert len(forked) == procs
    forked.assert_reaped()


def test_a_tcp_run_starts_no_thread(tmp_path, monkeypatch, free_ports, forked):
    # The launcher watches its nodes through their exit pipes.
    def refuse(thread):
        raise AssertionError(f"started {thread}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    code, trace, expected = tcp_run_of_the_readme_net(tmp_path, free_ports, 2)
    assert code == 0 and expected and trace == expected
    assert len(forked) == 2
    forked.assert_reaped()


def test_output_buffered_before_a_tcp_run_is_written_once(tmp_path, free_ports):
    # With stdout a pipe, what the caller wrote before the run still waits
    # in its buffer when the launcher forks its two nodes.
    prefix = gen_workload(tmp_path, procs=2)
    write_free_roster(tmp_path / "roster", free_ports, 2)
    args = ["run", "--net", prefix + ".net", "--map", prefix + ".map",
            "--stim", prefix + ".stim", "--horizon", "40", "--mode", "tcp",
            "--roster", str(tmp_path / "roster"), "--out", str(tmp_path / "tcp.trace")]
    code = ("import sys; sys.stdout.write('before the run\\n'); "
            f"from spikesim.cli import main; sys.exit(main({args!r}))")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stderr) == (0, "")
    lines = run.stdout.splitlines()
    assert lines[0] == "before the run" and len(lines) == 2
    assert " spikes, T advanced " in lines[1]


def test_tcp_nodes_import_the_launchers_package(tmp_path, capsys, monkeypatch,
                                                free_ports, spawned):
    # Without PYTHONPATH and outside the checkout, `python -m spikesim` finds
    # the package only through the path the launcher hands its nodes. While
    # another thread runs, the launcher spawns its nodes rather than fork.
    monkeypatch.delenv("PYTHONPATH", raising=False)
    monkeypatch.chdir(tmp_path)
    prefix = gen_workload(tmp_path, procs=2)
    write_free_roster(tmp_path / "roster", free_ports, 2)
    inputs = ["--net", prefix + ".net", "--stim", prefix + ".stim", "--horizon", "40"]
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60.0,))
    other.start()
    try:
        assert main(["run", *inputs, "--map", prefix + ".map", "--mode", "tcp",
                     "--roster", str(tmp_path / "roster"),
                     "--out", str(tmp_path / "tcp.trace")]) == 0
    finally:
        release.set()
        other.join()
    assert len(spawned) == 2
    spawned.assert_reaped()
    assert main(["oracle", *inputs, "--out", str(tmp_path / "oracle.trace")]) == 0
    assert main(["compare", str(tmp_path / "tcp.trace"),
                 str(tmp_path / "oracle.trace")]) == 0
    assert "traces identical" in capsys.readouterr().out


def test_a_node_process_imports_only_what_it_runs():
    # A tcp node process imports spikesim.cli; only other commands need these.
    unused = ["dataclasses", "inspect", "subprocess", "json", "spikesim.suite"]
    probe = "import spikesim.cli, sys; print(*sorted(sys.modules.keys() & set(sys.argv[1:])))"
    out = subprocess.run([sys.executable, "-S", "-c", probe, *unused],
                         env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.split() == []


def test_python_m_spikesim_keeps_its_output_and_exit_codes(tmp_path, capsys):
    # `python -m spikesim` skips interpreter teardown. With stdout a pipe and
    # PYTHONUNBUFFERED unset, output it did not flush before exiting is lost.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "spikesim", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    prefix = gen_workload(tmp_path)
    capsys.readouterr()
    inputs = ["run", "--net", prefix + ".net", "--map", prefix + ".map",
              "--stim", prefix + ".stim", "--horizon", "40"]
    assert main([*inputs, "--out", str(tmp_path / "a.trace"),
                 "--stats", str(tmp_path / "a.json")]) == 0
    summary = capsys.readouterr().out
    run = module(*inputs, "--out", str(tmp_path / "b.trace"),
                 "--stats", str(tmp_path / "b.json"))
    assert (run.returncode, run.stdout, run.stderr) == (0, summary, "")
    for name in ("trace", "json"):
        assert (tmp_path / f"b.{name}").read_text() == (tmp_path / f"a.{name}").read_text()

    (tmp_path / "c.trace").write_text("spike 1 1\nspike 2 5\n")
    assert main(["compare", str(tmp_path / "a.trace"), str(tmp_path / "c.trace")]) == 1
    diff = capsys.readouterr().out
    compare = module("compare", str(tmp_path / "a.trace"), str(tmp_path / "c.trace"))
    assert (compare.returncode, compare.stdout) == (1, diff)
    assert "only in b: spike 2 5" in diff

    missing = module("compare", str(tmp_path / "nope"), str(tmp_path / "nope"))
    assert missing.returncode == 2 and missing.stderr.startswith("error: ")
