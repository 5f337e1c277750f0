"""Deterministic Distance Packet Marking — the paper's contribution (§5, Figure 4).

Switch side, per Figure 4: the injecting switch zeroes the distance vector V;
every switch, *after* choosing the next node Y, computes the per-hop delta
``delta = Y - X`` and stores ``V' = V + delta`` (XOR on hypercubes). No per-path
state, no probability, no hashing — just the topology's offset algebra.

Victim side: a single packet's V satisfies ``V = D - S`` (in the topology's
algebra) *regardless of the route taken*, because per-hop deltas telescope.
The victim computes ``S = D - V`` (mesh), ``S = (D - V) mod k`` (torus) or
``S = D XOR V`` (hypercube) and has the exact source from one packet.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, TYPE_CHECKING

import numpy as np

from repro.errors import FieldOverflowError, IdentificationError, TopologyError
from repro.marking.base import MarkingScheme, VictimAnalysis
from repro.marking.ddpm_layout import DdpmLayout
from repro.network.packet import Packet
from repro.topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.markstream import MarkBatch

__all__ = ["DdpmScheme", "DdpmVictimAnalysis"]


class DdpmScheme(MarkingScheme):
    """DDPM switch-side marking.

    Parameters
    ----------
    total_bits:
        Marking-field width (default: the 16-bit IP identification field).
        ``attach`` raises :class:`FieldLayoutError` when the topology exceeds
        Table 3's capacity for that width.
    """

    name = "ddpm"

    def __init__(self, total_bits: int = 16):
        super().__init__()
        self.total_bits = total_bits
        self.layout: Optional[DdpmLayout] = None
        # Memo of the pure per-hop MF transform and the inject constant;
        # rebuilt on attach (they are functions of the attached topology).
        self._hop_cache: Dict[int, int] = {}
        self._delta_cache: Dict[tuple, tuple] = {}
        self._inject_word: Optional[int] = None
        self._n_nodes = 0
        # Node coordinates, one row per node: the columnar hop's deltas.
        self._coords = np.empty((0, 0), dtype=np.int64)

    def _on_attach(self, topology: Topology) -> None:
        self.layout = DdpmLayout.for_topology(topology, total_bits=self.total_bits)
        self._hop_cache = {}
        self._delta_cache = {}
        self._inject_word = self.layout.encode(topology.identity_offset())
        self._n_nodes = topology.num_nodes
        self._coords = np.array([topology.coord(i) for i in topology.nodes()],
                                dtype=np.int64)

    # -- switch side -------------------------------------------------------
    def on_inject(self, packet: Packet, node: int) -> None:
        """Zero the distance vector (overwrites attacker-preloaded MF)."""
        self._require_attached()
        packet.header.identification = self._inject_word

    def on_hop(self, packet: Packet, from_node: int, to_node: int) -> None:
        """V' := V + (Y - X), the constant-time per-switch operation.

        The transform is a pure function of (MF word, from, to), so each
        distinct triple is decoded/combined/encoded once and memoized —
        the steady-state per-hop cost is one dict lookup. The triple is
        flattened to a single int key (node indices are < num_nodes), which
        hashes without allocating a tuple per hop.
        """
        ident = packet.header.identification
        n = self._n_nodes
        key = (ident * n + from_node) * n + to_node
        word = self._hop_cache.get(key)
        if word is None:
            topo = self._require_attached()
            vector = self.layout.decode(ident)
            # hop_delta is a pure function of the edge; an N-node k-ary
            # topology has only O(N * degree) edges, far fewer than the
            # (word, edge) triples above, so misses there still hit here.
            edge = (from_node, to_node)
            delta = self._delta_cache.get(edge)
            if delta is None:
                delta = topo.hop_delta(from_node, to_node)
                self._delta_cache[edge] = delta
            combined = topo.combine_offsets(vector, delta)
            try:
                word = self.layout.encode(combined)
            except FieldOverflowError:
                # Attach-time capacity validation guarantees honest marks
                # never overflow, so this MF was corrupted in flight (e.g.
                # a fault-injected bit flip). The switch forwards it
                # unchanged — the victim discards it as corrupted.
                word = ident
            self._hop_cache[key] = word
        packet.header.identification = word

    def inject_array(self, n: int) -> np.ndarray:
        """The zero distance vector, once per injected row."""
        self._require_attached()
        return np.full(n, self._inject_word, dtype=np.int64)

    def on_hop_array(self, words: np.ndarray, src: np.ndarray,
                     dst: np.ndarray, ttls: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
        """Columnar V' := V + (Y - X): decode, add the deltas, encode.

        The transform telescopes, so the delivered word is a pure function
        of source and destination whatever the route; no draws are made.
        """
        topo = self._require_attached()
        vectors = self.layout.decode_array(words)
        if topo.kind == "hypercube":
            vectors ^= self._coords[dst] ^ self._coords[src]
        else:
            # Mesh deltas are exact; torus deltas may differ from the
            # canonical minimal residue by a multiple of k, which the
            # encoder's fold removes.
            vectors += self._coords[dst] - self._coords[src]
        return self.layout.encode_array(vectors)

    # -- victim side -------------------------------------------------------
    def identify_word(self, word: int, victim: int) -> int:
        """Decode one MF word's source node: S = D (-) V.

        Raises :class:`IdentificationError` when the MF decodes to a
        coordinate outside the network — the packet bypassed the marking
        path (switches are trusted) or its MF was corrupted in flight
        (fault campaigns inject exactly that); victim analyses discard
        such packets as ``corrupted_packets`` rather than propagating.
        """
        topo = self._require_attached()
        vector = self.layout.decode(word)
        try:
            return topo.resolve_source(victim, vector)
        except TopologyError as exc:
            raise IdentificationError(
                f"DDPM vector {vector} at victim {victim} resolves outside "
                f"the network: {exc}"
            ) from exc

    def identify(self, packet: Packet, victim: int) -> int:
        """Decode one packet's source node (see :meth:`identify_word`)."""
        return self.identify_word(packet.header.identification, victim)

    def new_victim_analysis(self, victim: int,
                            min_share: float = 0.0) -> "DdpmVictimAnalysis":
        return DdpmVictimAnalysis(self, victim, min_share=min_share)

    def per_hop_operations(self) -> dict:
        """n additions (or XORs) + one MF read + one MF write per hop (§6.2)."""
        topo = self._require_attached()
        n = len(topo.dims)
        op = "xor" if topo.kind == "hypercube" else "add"
        return {op: n, "field_read": 1, "field_write": 1}


class DdpmVictimAnalysis(VictimAnalysis):
    """Per-packet exact identification; suspects = sources actually observed.

    Parameters
    ----------
    min_share:
        When > 0, a source only counts as a suspect once it accounts for at
        least this fraction of analyzed packets — separates flooders from
        legitimate senders that happen to be active during the attack
        window. Default 0 reports every observed source.
    """

    def __init__(self, scheme: DdpmScheme, victim: int, min_share: float = 0.0):
        super().__init__(victim)
        if not 0.0 <= min_share < 1.0:
            raise ValueError(f"min_share must be in [0, 1), got {min_share}")
        self.scheme = scheme
        self.min_share = min_share
        self.source_counts: Dict[int, int] = {}
        # word -> resolved source (None = corrupted); DDPM words are a pure
        # function of (source, victim), so an attack stream has very few
        # distinct words and the batched decoder amortizes to a dict hit.
        self._word_to_source: Dict[int, Optional[int]] = {}

    def _observe(self, packet: Packet) -> None:
        source = self.scheme.identify(packet, self.victim)
        self.source_counts[source] = self.source_counts.get(source, 0) + 1

    def observe_batch(self, batch: "MarkBatch") -> None:
        """Vectorized victim decode: unique MF words, one resolve per word.

        Equivalent to per-packet :meth:`observe` over the same rows —
        ``source_counts``, ``packets_observed`` and ``corrupted_packets``
        end identical regardless of how the stream is partitioned.
        """
        n = len(batch)
        if n == 0:
            return
        words, counts = np.unique(batch.words, return_counts=True)
        cache = self._word_to_source
        fresh = [w for w in words.tolist() if w not in cache]
        if fresh:
            # All uncached words decode in one vectorized pass; only the
            # (rare) topology resolve stays per-word.
            topo = self.scheme._require_attached()
            vectors = self.scheme.layout.decode_array(
                np.asarray(fresh, dtype=np.int64))
            for word, row in zip(fresh, vectors):
                try:
                    cache[word] = topo.resolve_source(self.victim,
                                                      tuple(row.tolist()))
                except TopologyError:
                    cache[word] = None
        source_counts = self.source_counts
        corrupted = 0
        for word, count in zip(words.tolist(), counts.tolist()):
            source = cache[word]
            if source is None:
                corrupted += count
            else:
                source_counts[source] = source_counts.get(source, 0) + count
        self.packets_observed += n
        self.corrupted_packets += corrupted

    def suspects(self) -> FrozenSet[int]:
        if self.min_share <= 0.0 or not self.source_counts:
            return frozenset(self.source_counts)
        floor = self.min_share * self.packets_observed
        return frozenset(node for node, count in self.source_counts.items()
                         if count >= floor)

    def heavy_hitters(self, factor: float = 10.0) -> FrozenSet[int]:
        """Sources whose exact packet count exceeds ``factor`` x the median."""
        if not self.source_counts:
            return frozenset()
        counts = sorted(self.source_counts.values())
        median = counts[len(counts) // 2]
        return frozenset(node for node, count in self.source_counts.items()
                         if count > factor * median)
