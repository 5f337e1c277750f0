"""Deterministic Packet Marking — Yaar-style TTL-indexed one-bit marks (§4.3).

Every switch writes one bit — the low bit of the hash of its node index —
into the MF at position ``TTL mod 16``. Because TTL drops by one per hop,
consecutive switches write consecutive positions and a (stable) path leaves
a near-unique 16-bit signature.

The paper's two criticisms, both directly measurable here:

* **overwrite past 16 hops** — positions wrap, so switches more than 16 hops
  from the victim have their bits clobbered;
* **ambiguity** — roughly half of a node's neighbors share its hash bit, and
  adaptive routing gives one source many signatures while distinct sources
  collide on the same one.

Victim-side identification needs a signature table — a map from signature to
the sources that would produce it — which is only well-defined when routes
are stable. :func:`build_signature_table` constructs it by walking the
(deterministic) router from every node; applying the same table under
adaptive routing is exactly the mismatch the paper predicts, quantified by
benchmark A2/A3.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set, Tuple, TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.marking.base import MarkingScheme, VictimAnalysis
from repro.network.ip import MF_BITS
from repro.network.packet import Packet
from repro.routing.base import Router, walk_route
from repro.topology.base import Topology
from repro.util.hashing import hash_bits

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.markstream import MarkBatch

__all__ = ["DpmScheme", "DpmVictimAnalysis", "build_signature_table", "path_signature"]


class DpmScheme(MarkingScheme):
    """TTL-position one-bit deterministic marking."""

    name = "dpm"

    def __init__(self, mf_bits: int = MF_BITS):
        super().__init__()
        if mf_bits < 1:
            raise ConfigurationError(f"mf_bits must be >= 1, got {mf_bits}")
        self.mf_bits = mf_bits
        # node -> hash bit, filled for the whole topology on attach so the
        # per-hop path never recomputes the hash; the columnar hop indexes
        # the same bits as an array.
        self._node_bits: Dict[int, int] = {}
        self._bit_column = np.zeros(0, dtype=np.int64)

    def _on_attach(self, topology: Topology) -> None:
        bits = [hash_bits(node, 1) for node in topology.nodes()]
        self._node_bits = dict(zip(topology.nodes(), bits))
        self._bit_column = np.array(bits, dtype=np.int64)

    def node_bit(self, node: int) -> int:
        """The single bit this switch stamps: low bit of its index hash."""
        bit = self._node_bits.get(node)
        if bit is None:
            bit = hash_bits(node, 1)
            self._node_bits[node] = bit
        return bit

    # -- switch side -------------------------------------------------------
    def on_hop(self, packet: Packet, from_node: int, to_node: int) -> None:
        """Write own hash bit at position ttl mod mf_bits.

        The fabric decrements TTL before routing, so the position seen here
        already reflects this hop — consecutive switches hit consecutive
        (mod 16) positions.
        """
        self._require_attached()
        position = packet.header.ttl % self.mf_bits
        bit = self.node_bit(from_node)
        word = packet.header.identification
        word = (word & ~(1 << position)) | (bit << position)
        packet.header.identification = word

    def on_hop_array(self, words: np.ndarray, src: np.ndarray,
                     dst: np.ndarray, ttls: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
        """Columnar :meth:`on_hop`: each row's bit at ``ttl mod mf_bits``."""
        self._require_attached()
        position = ttls % self.mf_bits
        return (words & ~(1 << position)) | (self._bit_column[src] << position)

    # -- victim side -------------------------------------------------------
    def new_victim_analysis(self, victim: int,
                            signature_table: Optional[Dict[int, FrozenSet[int]]] = None
                            ) -> "DpmVictimAnalysis":
        return DpmVictimAnalysis(self, victim, signature_table)

    def per_hop_operations(self) -> dict:
        """One hash, one bit insert per hop (§6.2)."""
        return {"hash": 1, "field_read": 1, "field_write": 1}


class DpmVictimAnalysis(VictimAnalysis):
    """Signature collector; identifies sources via a signature table.

    Without a table, :meth:`suspects` is empty but
    :meth:`observed_signatures` still supports the paper's actual defense —
    blocking all traffic carrying an attack signature — whose collateral
    damage the defense metrics measure.
    """

    def __init__(self, scheme: DpmScheme, victim: int,
                 signature_table: Optional[Dict[int, FrozenSet[int]]] = None):
        super().__init__(victim)
        self.scheme = scheme
        self.signature_table = signature_table
        self.signature_counts: Dict[int, int] = {}

    def _observe(self, packet: Packet) -> None:
        signature = packet.header.identification
        self.signature_counts[signature] = self.signature_counts.get(signature, 0) + 1

    def observe_batch(self, batch: "MarkBatch") -> None:
        """Vectorized signature tally: one np.unique per batch.

        End state (``signature_counts``, ``packets_observed``) is identical
        to replaying the rows through :meth:`observe` in any order.
        """
        n = len(batch)
        if n == 0:
            return
        signatures, counts = np.unique(batch.words, return_counts=True)
        signature_counts = self.signature_counts
        for signature, count in zip(signatures.tolist(), counts.tolist()):
            signature_counts[signature] = signature_counts.get(signature, 0) + count
        self.packets_observed += n

    def observed_signatures(self) -> FrozenSet[int]:
        """All distinct signatures seen."""
        return frozenset(self.signature_counts)

    def suspects(self) -> FrozenSet[int]:
        if self.signature_table is None:
            return frozenset()
        out: Set[int] = set()
        for signature in self.signature_counts:
            out.update(self.signature_table.get(signature, frozenset()))
        return frozenset(out)


def path_signature(scheme: DpmScheme, path: Tuple[int, ...], initial_ttl: int,
                   mf_bits: int = MF_BITS) -> int:
    """Signature a packet would carry after traversing ``path`` (src..victim).

    Mirrors the fabric's order of operations: at each forwarding node the
    TTL is decremented, then the node's bit lands at ``ttl mod mf_bits``.
    """
    word = 0
    ttl = initial_ttl
    for node in path[:-1]:
        ttl -= 1
        position = ttl % mf_bits
        word = (word & ~(1 << position)) | (scheme.node_bit(node) << position)
    return word


def build_signature_table(scheme: DpmScheme, topology: Topology, router: Router,
                          victim: int, initial_ttl: int,
                          select=None) -> Dict[int, FrozenSet[int]]:
    """Signature -> {sources} map under the given (ideally stable) routing.

    Walks every source's route to the victim with a deterministic selection
    (first candidate unless ``select`` is given) and records the resulting
    signature. Collisions — several sources sharing a signature — are the
    DPM ambiguity the paper predicts (about half of a node's neighbors share
    its hash bit).
    """
    if select is None:
        def select(candidates, current):
            return candidates[0]
    table: Dict[int, Set[int]] = {}
    for source in topology.nodes():
        if source == victim:
            continue
        path = tuple(walk_route(topology, router, source, victim, select))
        signature = path_signature(scheme, path, initial_ttl, scheme.mf_bits)
        table.setdefault(signature, set()).add(source)
    return {sig: frozenset(nodes) for sig, nodes in table.items()}
