"""Hierarchical DDPM — extending §5 to hybrid cluster networks (§6.3).

The paper stops at direct networks; hybrid topologies (a regular backbone
of switches with several hosts per switch, :class:`ClusterMesh`) "may need
a completely different approach". They need a *small* extension: split the
marking field into

* a **port slot** — which host of the source switch injected the packet,
  written once by the injecting switch (trusted, so the attacker cannot
  lie about it); and
* a **backbone distance vector** — standard DDPM accumulation over the
  backbone's coordinates; host<->switch hops contribute nothing.

The victim resolves the source backbone switch from its own switch's
coordinates minus the vector, then the exact host from the port slot.
Capacity example: a 16-bit MF supports a 64x64 backbone (7+7 signed bits
would overflow — 6+6 bits = 32x32) with 16 hosts per switch, i.e. 16384
hosts with 4 port bits + two 6-bit slots.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, TYPE_CHECKING

import numpy as np

from repro.errors import IdentificationError, MarkingError, TopologyError
from repro.marking.base import MarkingScheme, VictimAnalysis
from repro.marking.ddpm_layout import DdpmLayout
from repro.marking.field import SubfieldLayout
from repro.network.ip import MF_BITS
from repro.network.packet import Packet
from repro.topology.base import Topology
from repro.topology.hybrid import ClusterMesh
from repro.util.bitops import bit_length_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.markstream import MarkBatch

__all__ = ["HierarchicalDdpmScheme", "HierarchicalDdpmVictimAnalysis"]


class HierarchicalDdpmScheme(MarkingScheme):
    """DDPM over a :class:`ClusterMesh`: port slot + backbone vector."""

    name = "h-ddpm"

    def __init__(self, total_bits: int = MF_BITS):
        super().__init__()
        self.total_bits = total_bits
        self.port_bits = 0
        self.vector_layout: Optional[DdpmLayout] = None
        self.layout: Optional[SubfieldLayout] = None

    def _on_attach(self, topology: Topology) -> None:
        if not isinstance(topology, ClusterMesh):
            raise MarkingError(
                "hierarchical DDPM requires a ClusterMesh hybrid topology"
            )
        self.cluster = topology
        self.port_bits = max(1, bit_length_for(topology.hosts_per_switch))
        vector_bits = self.total_bits - self.port_bits
        backbone = topology.backbone
        # Reuse the DDPM layout machinery for the backbone slots, shrunk by
        # the port slot.
        self.vector_layout = DdpmLayout(
            backbone.dims, signed=True,
            fold_modulo=(backbone.kind == "torus"),
            total_bits=vector_bits,
        )
        slots = [("port", self.port_bits)]
        for i, width in enumerate(self.vector_layout.widths):
            slots.append((f"v{i}", width, True))
        self.layout = SubfieldLayout(slots, total_bits=self.total_bits)

    # -- helpers -------------------------------------------------------------
    def _pack(self, port: int, vector) -> int:
        values = {"port": port}
        folded = self.vector_layout._fold(vector)
        for i, component in enumerate(folded):
            values[f"v{i}"] = component
        return self.layout.pack(values)

    def _unpack(self, word: int):
        values = self.layout.unpack(word)
        vector = tuple(values[f"v{i}"]
                       for i in range(len(self.vector_layout.widths)))
        return values["port"], vector

    # -- switch side -----------------------------------------------------------
    def on_inject(self, packet: Packet, node: int) -> None:
        """The injecting host's own (leaf) switch writes the port slot.

        Hosts are leaf nodes in the fabric; their switch is trusted, so the
        port identity is authoritative even with full address spoofing.
        """
        topo = self._require_attached()
        if not self.cluster.is_host(node):
            raise MarkingError(f"injection from non-host node {node}")
        zero = (0,) * len(self.cluster.backbone.dims)
        packet.header.identification = self._pack(self.cluster.port_of(node), zero)

    def inject_array(self, n: int) -> np.ndarray:
        """Refused: the inject word carries the injecting host's port, and
        ``inject_array`` is given no node column to read it from."""
        raise self._columnar_refusal()

    def on_hop(self, packet: Packet, from_node: int, to_node: int) -> None:
        """Backbone hops accumulate deltas; host<->switch hops are neutral."""
        self._require_attached()
        cluster = self.cluster
        if not (cluster.is_backbone(from_node) and cluster.is_backbone(to_node)):
            return  # leaf hop: no coordinate change
        backbone = cluster.backbone
        delta = backbone.hop_delta(cluster.backbone_index(from_node),
                                   cluster.backbone_index(to_node))
        port, vector = self._unpack(packet.header.identification)
        combined = backbone.combine_offsets(vector, delta)
        packet.header.identification = self._pack(port, combined)

    # -- victim side -----------------------------------------------------------
    def identify_word(self, word: int, victim: int) -> int:
        """Exact source host: backbone switch from the vector, host from port."""
        self._require_attached()
        cluster = self.cluster
        if not cluster.is_host(victim):
            raise IdentificationError(f"victim {victim} is not a host")
        port, vector = self._unpack(word)
        victim_switch = cluster.backbone_index(cluster.switch_of(victim))
        backbone = cluster.backbone
        try:
            source_switch = backbone.resolve_source(victim_switch, vector)
        except TopologyError as exc:
            raise IdentificationError(
                f"H-DDPM vector {vector} resolves outside the backbone: {exc}"
            ) from exc
        if port >= cluster.hosts_per_switch:
            raise IdentificationError(
                f"port {port} out of range for {cluster.hosts_per_switch} hosts"
            )
        return cluster.host_at(source_switch, port)

    def identify(self, packet: Packet, victim: int) -> int:
        """Decode one packet's source host (see :meth:`identify_word`)."""
        return self.identify_word(packet.header.identification, victim)

    def new_victim_analysis(self, victim: int) -> "HierarchicalDdpmVictimAnalysis":
        return HierarchicalDdpmVictimAnalysis(self, victim)

    def per_hop_operations(self) -> dict:
        """Backbone hops only: n additions + field read/write."""
        self._require_attached()
        n = len(self.cluster.backbone.dims)
        return {"add": n, "field_read": 1, "field_write": 1}


class HierarchicalDdpmVictimAnalysis(VictimAnalysis):
    """Per-packet exact host identification on hybrid topologies."""

    def __init__(self, scheme: HierarchicalDdpmScheme, victim: int):
        super().__init__(victim)
        self.scheme = scheme
        self.source_counts: Dict[int, int] = {}
        # word -> resolved host (None = corrupted), same amortization as
        # the flat DDPM analysis: attack streams carry few distinct words.
        self._word_to_source: Dict[int, Optional[int]] = {}

    def _observe(self, packet: Packet) -> None:
        source = self.scheme.identify(packet, self.victim)
        self.source_counts[source] = self.source_counts.get(source, 0) + 1

    def observe_batch(self, batch: "MarkBatch") -> None:
        """Unique-word batched decode, equivalent to per-packet observe."""
        n = len(batch)
        if n == 0:
            return
        words, counts = np.unique(batch.words, return_counts=True)
        cache = self._word_to_source
        source_counts = self.source_counts
        corrupted = 0
        scheme = self.scheme
        victim = self.victim
        for word, count in zip(words.tolist(), counts.tolist()):
            if word in cache:
                source = cache[word]
            else:
                try:
                    source = scheme.identify_word(word, victim)
                except IdentificationError:
                    source = None
                cache[word] = source
            if source is None:
                corrupted += count
            else:
                source_counts[source] = source_counts.get(source, 0) + count
        self.packets_observed += n
        self.corrupted_packets += corrupted

    def suspects(self) -> FrozenSet[int]:
        return frozenset(self.source_counts)
