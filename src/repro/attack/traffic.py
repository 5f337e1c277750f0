"""Background traffic: the standard interconnection-network workload patterns.

Legitimate cluster traffic matters twice in the paper's setting: it is the
noise the detector must separate attacks from, and it is what creates the
congestion that makes adaptive routing actually adapt (no congestion, no
path diversity). Patterns are the classics of the interconnect literature:
uniform random, transpose, bit-reversal, tornado, hotspot, and fixed
permutations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence

import numpy as np

from repro.attack.flows import Rows
from repro.errors import ConfigurationError
from repro.network.fabric import Fabric
from repro.topology.base import Topology
from repro.util.validation import check_in_range, check_probability

__all__ = [
    "TrafficPattern",
    "UniformRandomPattern",
    "TransposePattern",
    "BitReversalPattern",
    "TornadoPattern",
    "HotspotPattern",
    "PermutationPattern",
    "schedule_background",
]


class TrafficPattern(ABC):
    """Maps a source node (plus randomness) to a destination node."""

    name: str = "abstract"

    @abstractmethod
    def destination(self, source: int, topology: Topology,
                    rng: np.random.Generator) -> int:
        """Destination node for one packet injected at ``source``."""


class UniformRandomPattern(TrafficPattern):
    """Each packet targets a uniformly random other node."""

    name = "uniform"

    def destination(self, source: int, topology: Topology,
                    rng: np.random.Generator) -> int:
        dst = int(rng.integers(topology.num_nodes - 1))
        return dst if dst < source else dst + 1


class TransposePattern(TrafficPattern):
    """Coordinate transpose: (x0, x1, ..) -> (x1, x0, ..) pairwise reversal.

    For a square 2-D network this is the matrix-transpose workload; for
    general dims the coordinate tuple is reversed (requires palindromic
    dimension sizes).
    """

    name = "transpose"

    def destination(self, source: int, topology: Topology,
                    rng: np.random.Generator) -> int:
        dims = topology.dims
        if tuple(dims) != tuple(reversed(dims)):
            raise ConfigurationError(
                f"transpose requires palindromic dims, got {dims}"
            )
        coord = topology.coord(source)
        dst = topology.index(tuple(reversed(coord)))
        if dst == source:
            return UniformRandomPattern().destination(source, topology, rng)
        return dst


class BitReversalPattern(TrafficPattern):
    """Node index bit-reversal (classic hypercube adversarial pattern)."""

    name = "bit-reversal"

    def destination(self, source: int, topology: Topology,
                    rng: np.random.Generator) -> int:
        bits = (topology.num_nodes - 1).bit_length()
        if topology.num_nodes != 1 << bits:
            raise ConfigurationError(
                f"bit-reversal requires a power-of-two node count, got {topology.num_nodes}"
            )
        reversed_index = int(format(source, f"0{bits}b")[::-1], 2)
        if reversed_index == source:
            return UniformRandomPattern().destination(source, topology, rng)
        return reversed_index


class TornadoPattern(TrafficPattern):
    """Each node sends half-way around its first ring dimension (torus stressor)."""

    name = "tornado"

    def destination(self, source: int, topology: Topology,
                    rng: np.random.Generator) -> int:
        coord = list(topology.coord(source))
        k = topology.dims[0]
        if k < 2:
            raise ConfigurationError("tornado needs dimension 0 of size >= 2")
        coord[0] = (coord[0] + max(1, k // 2)) % k
        dst = topology.index(tuple(coord))
        if dst == source:
            return UniformRandomPattern().destination(source, topology, rng)
        return dst


class HotspotPattern(TrafficPattern):
    """A fraction of traffic converges on one hot node, the rest uniform.

    The benign traffic shape closest to a DDoS signature — the detector
    ablation (AB3) uses it to probe false positives.
    """

    name = "hotspot"

    def __init__(self, hot_node: int, fraction: float = 0.2):
        self.hot_node = hot_node
        self.fraction = check_probability(fraction, "fraction")

    def destination(self, source: int, topology: Topology,
                    rng: np.random.Generator) -> int:
        if source != self.hot_node and rng.random() < self.fraction:
            return self.hot_node
        return UniformRandomPattern().destination(source, topology, rng)


class PermutationPattern(TrafficPattern):
    """A fixed random permutation drawn once (seeded), stable per instance."""

    name = "permutation"

    def __init__(self, topology: Topology, rng: np.random.Generator):
        perm = rng.permutation(topology.num_nodes)
        # Displace fixed points so every node has a distinct partner.
        for i in range(topology.num_nodes):
            if perm[i] == i:
                j = (i + 1) % topology.num_nodes
                perm[i], perm[j] = perm[j], perm[i]
        self._perm = [int(x) for x in perm]

    def destination(self, source: int, topology: Topology,
                    rng: np.random.Generator) -> int:
        return self._perm[source]


def schedule_background(fabric: Fabric, pattern: TrafficPattern, *,
                        rate: float, duration: float,
                        rng: np.random.Generator,
                        sources: Optional[Sequence[int]] = None,
                        start: float = 0.0,
                        payload_bytes: int = 64,
                        flow_id: int = 0) -> Rows:
    """Schedule open-loop Poisson background traffic on the fabric.

    Each source injects packets with exponential inter-arrival times of mean
    ``1/rate`` over ``[start, start + duration)``, destinations drawn from
    ``pattern``. Draws are scalar and in source order on every engine; the
    whole sweep reaches ``fabric.inject_rows`` in one call. Returns the
    scheduled packets (exact fabric) or their ids (columnar fabrics) for
    ground-truth scoring.
    """
    check_in_range(rate, "rate", 1e-12, float("inf"))
    check_in_range(duration, "duration", 0.0, float("inf"))
    topology = fabric.topology
    nodes = list(topology.nodes()) if sources is None else list(sources)
    delays: List[float] = []
    srcs: List[int] = []
    dsts: List[int] = []
    end = start + duration
    gap = 1.0 / rate
    exponential = rng.exponential
    destination = pattern.destination
    for source in nodes:
        t = start + float(exponential(gap))
        while t < end:
            dsts.append(destination(source, topology, rng))
            srcs.append(source)
            delays.append(t)
            t += float(exponential(gap))
    return fabric.inject_rows(delays, srcs, None, dsts, flow_id=flow_id,
                              payload_bytes=payload_bytes)
