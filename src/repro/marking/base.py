"""Marking-scheme and victim-analysis interfaces.

A :class:`MarkingScheme` is the switch-side half: it initializes the marking
field at injection and mutates it at every hop — per packet (``on_inject`` /
``on_hop``, the exact engine) or per column of rows (``inject_array`` /
``on_hop_array``, the batched and sharded engines), both halves built from
the scheme's own transforms. A :class:`VictimAnalysis` is
the destination-side half: it observes delivered packets and maintains a
suspect set of source nodes. The two halves communicate *only* through the
16-bit MF — tests enforce that no ground-truth leaks through.

The split matters for scoring: DDPM's analysis is exact after one packet;
PPM's converges as marks accumulate; DPM's is signature-based and only as
good as its (route-stability-dependent) signature table.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, FrozenSet, Optional, TYPE_CHECKING

import numpy as np

from repro.errors import (ConfigurationError, IdentificationError,
                          MarkingError)
from repro.network.packet import Packet
from repro.topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.markstream import MarkBatch

__all__ = ["MarkingScheme", "VictimAnalysis"]


class VictimAnalysis(ABC):
    """Destination-side accumulator turning observed packets into suspects."""

    def __init__(self, victim: int):
        self.victim = victim
        self.packets_observed = 0
        #: packets whose Marking Field could not be attributed (e.g. a
        #: fault-injected bit flip decoding to a coordinate outside the
        #: network); discarded, never turned into suspects.
        self.corrupted_packets = 0

    def observe(self, packet: Packet) -> None:
        """Feed one delivered packet; updates the suspect estimate.

        A packet whose mark cannot be decoded — wire corruption is a fault
        campaigns inject on purpose — is counted in ``corrupted_packets``
        and otherwise ignored: a victim under attack must keep analyzing,
        not die on the first damaged header.
        """
        self.packets_observed += 1
        try:
            self._observe(packet)
        except IdentificationError:
            self.corrupted_packets += 1

    def observe_batch(self, batch: "MarkBatch") -> None:
        """Feed a columnar batch of delivered packets.

        Overrides must be *order- and partition-insensitive in effect*:
        after any sequence of ``observe``/``observe_batch`` calls covering
        the same packets, ``suspects()``, ``packets_observed``, and
        ``corrupted_packets`` must equal the per-packet outcome (the
        hypothesis property suite pins this for every registered scheme).
        This base implementation replays rows through :meth:`observe`, so
        third-party analyses keep working unmodified; the in-tree schemes
        override it with vectorized decoders. Batches produced by the
        batched engine carry no packet objects (``batch.packets is None``)
        and therefore require a columnar override.
        """
        if batch.packets is None:
            raise ConfigurationError(
                f"{type(self).__name__} has no columnar observe_batch "
                "override and the batch carries no packet objects (batched "
                "engine); implement observe_batch over the column arrays"
            )
        for packet in batch.packets:
            self.observe(packet)

    @abstractmethod
    def _observe(self, packet: Packet) -> None:
        """Scheme-specific per-packet processing."""

    @abstractmethod
    def suspects(self) -> FrozenSet[int]:
        """Current best estimate of the set of attacking source nodes.

        May legitimately be broader than the true attacker set (ambiguity)
        or narrower (not yet converged); the defense metrics quantify both.
        """


class MarkingScheme(ABC):
    """Switch-side marking logic plus a factory for its victim analysis."""

    #: human-readable scheme name
    name: str = "abstract"

    def __init__(self):
        self.topology: Optional[Topology] = None

    # -- lifecycle -------------------------------------------------------
    def attach(self, topology: Topology) -> None:
        """Bind to a topology; precompute layouts/labels; validate applicability.

        Raises :class:`MarkingError` (or a subclass) when the scheme cannot
        operate on this topology — e.g. a marking field too narrow for the
        network size (the paper's Tables 1-3).
        """
        self.topology = topology
        self._on_attach(topology)

    def _on_attach(self, topology: Topology) -> None:
        """Subclass hook; default does nothing extra."""

    def _require_attached(self) -> Topology:
        if self.topology is None:
            raise MarkingError(f"{self.name}: attach() must be called before use")
        return self.topology

    # -- switch side -------------------------------------------------------
    def on_inject(self, packet: Packet, node: int) -> None:
        """First switch, packet arriving from the local NIC.

        Default zeroes the MF — overwriting attacker-supplied garbage, the
        integrity anchor of every scheme here.
        """
        self._require_attached()
        packet.header.identification = 0

    @abstractmethod
    def on_hop(self, packet: Packet, from_node: int, to_node: int) -> None:
        """Per-hop mark applied by the switch at ``from_node`` after routing."""

    # -- switch side, columnar (batched and sharded engines) -----------------
    def inject_array(self, n: int) -> np.ndarray:
        """MF words of ``n`` injected rows: the word :meth:`on_inject` writes.

        Default zeroes, matching the default :meth:`on_inject`.
        """
        self._require_attached()
        return np.zeros(n, dtype=np.int64)

    def on_hop_array(self, words: np.ndarray, src: np.ndarray,
                     dst: np.ndarray, ttls: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
        """Columnar :meth:`on_hop`: the MF words after one hop, row by row.

        Row ``i`` moves from ``src[i]`` to ``dst[i]`` carrying ``words[i]``
        with its already-decremented TTL ``ttls[i]``; rows come in rank
        order and any marking draws come from ``rng``. Default refuses: a
        scheme without a columnar transform runs on the exact engine only.
        """
        raise ConfigurationError(
            f"marking scheme {self.name!r} is not supported by the batched "
            "engine; use engine='exact'"
        )

    # -- victim side -------------------------------------------------------
    @abstractmethod
    def new_victim_analysis(self, victim: int) -> VictimAnalysis:
        """Create the destination-side analyzer for ``victim``."""

    # -- cost model ---------------------------------------------------------
    def per_hop_operations(self) -> dict:
        """Abstract operation counts per hop (adds/xors/hashes/reads/writes).

        Drives the §6.2 switch-overhead comparison without relying on Python
        timing alone.
        """
        return {}

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r}>"


def _probe_map(keys: np.ndarray, table: Dict[int, int],
               fn: Callable[[int], int]) -> np.ndarray:
    """Map int keys through a lazily probed scalar function.

    Only *distinct unseen* keys ever reach the Python function — the
    steady-state cost is one ``np.unique`` plus a dict hit per distinct key,
    exactly the int-keyed per-hop memo pattern the exact engine uses, read
    back as a lookup array.
    """
    uniq, inverse = np.unique(keys, return_inverse=True)
    values = np.empty(uniq.size, dtype=np.int64)
    for i, key in enumerate(uniq.tolist()):  # per-unique-key probe  # repro-lint: disable=H3
        hit = table.get(key)
        if hit is None:
            hit = table[key] = int(fn(key))
        values[i] = hit
    return values[inverse]


def _coin_hop_array(words: np.ndarray, rng: np.random.Generator,
                    probability: float,
                    start: Callable[[np.ndarray], np.ndarray],
                    cont: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Columnar edge-sampling hop shared by the PPM family.

    One coin column decides, per row, between the two branches:
    ``start(mark)`` returns the words of the rows that begin a new mark,
    ``cont(rest)`` those of the rows that continue the stored one. The coin
    column is drawn before either branch runs, so draws ``start`` makes
    follow it in the stream.
    """
    out = words.copy()
    mark = rng.random(words.size) < probability
    if mark.any():
        out[mark] = start(mark)
    rest = ~mark
    if rest.any():
        out[rest] = cont(rest)
    return out
