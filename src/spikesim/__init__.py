"""Distributed event-driven spiking neural network simulator.

Multithreaded, message-passing simulation of leaky integrate-and-fire
networks with no central scheduler: processors coordinate purely through
time-stamped spike events, each message carrying its sender's time alone,
forecasting outgoing spikes and cancelling the ones later arrivals
invalidate. A sequential reference simulator certifies every distributed run.
"""

from .engine import DeterministicEngine, RunResult, ThreadedEngine
from .oracle import compare_traces, sequential_simulate
from .topology import (MappingSpec, NetworkSpec, generate_random,
                       load_mapping, load_network, load_stimuli, validate)

__all__ = [
    "DeterministicEngine",
    "ThreadedEngine",
    "RunResult",
    "sequential_simulate",
    "compare_traces",
    "NetworkSpec",
    "MappingSpec",
    "validate",
    "generate_random",
    "load_network",
    "load_mapping",
    "load_stimuli",
]

__version__ = "0.1.0"
