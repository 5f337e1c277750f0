"""PPM edge-mark encoders for direct networks (paper §4.2, Tables 1-2).

Node *labels*: the paper labels nodes with per-dimension Gray codes (its
Figure 3(a) path 0001 -> 0011 -> 0010 -> 0110 -> 1110 walks a 4x4 mesh where
each hop flips exactly one label bit). :func:`gray_label` reproduces that
labeling: each coordinate is Gray-coded into ``ceil(log2 k)`` bits and the
per-dimension codes are concatenated. Mesh neighbors then always differ in
exactly one bit; torus wrap links share the property only when the dimension
size is a power of two (the cyclic property of reflected Gray codes) —
encoders that rely on it validate this at attach time.

Three encodings of an edge mark (start, end, distance):

* :class:`FullIndexEncoder` — both labels plus distance (Table 1);
* :class:`XorEncoder` — XOR of the two labels plus distance; ambiguous
  because every XOR value is one-hot and maps to ~n(n-1)/log(n) edges;
* :class:`BitDifferenceEncoder` — one label, the differing-bit position, and
  distance (Table 2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, NamedTuple, Optional, Tuple

from repro.errors import FieldLayoutError, MarkingError
from repro.marking.field import SubfieldLayout
from repro.network.ip import MF_BITS
from repro.topology.base import Topology
from repro.util.bitops import bit_length_for, gray_encode, gray_decode, popcount

__all__ = [
    "gray_label_bits",
    "gray_label",
    "gray_unlabel",
    "EdgeMark",
    "MarkEncoder",
    "FullIndexEncoder",
    "XorEncoder",
    "BitDifferenceEncoder",
]


def gray_label_bits(topology: Topology) -> int:
    """Total label width: sum over dimensions of ceil(log2 k_i)."""
    return sum(bit_length_for(k) for k in topology.dims)


def gray_label(topology: Topology, node: int) -> int:
    """Concatenated per-dimension Gray codes of the node's coordinates."""
    label = 0
    for coord, k in zip(topology.coord(node), topology.dims):  # per-dimension, probed keys only  # repro-lint: disable=H3
        width = bit_length_for(k)
        label = (label << width) | gray_encode(coord)
    return label


def gray_unlabel(topology: Topology, label: int) -> int:
    """Inverse of :func:`gray_label`.

    Raises :class:`MarkingError` when the label decodes to a coordinate
    outside the topology (possible when dimension sizes are not powers of
    two, so some codes are unused).
    """
    coords = []
    remaining = label
    for k in reversed(topology.dims):
        width = bit_length_for(k)
        code = remaining & ((1 << width) - 1)
        remaining >>= width
        coord = gray_decode(code)
        if coord >= k:
            raise MarkingError(f"label {label:#x} decodes outside dimension of size {k}")
        coords.append(coord)
    if remaining:
        raise MarkingError(f"label {label:#x} wider than the topology's label space")
    return topology.index(tuple(reversed(coords)))


class EdgeMark(NamedTuple):
    """A decoded candidate edge: (from_node, to_node, distance).

    ``to_node`` is None for distance-0 marks, where the victim substitutes
    itself (the marking switch was the last hop).
    """

    start: int
    end: Optional[int]
    distance: int


class MarkEncoder(ABC):
    """Wire format of one PPM mark within the 16-bit MF."""

    name: str = "abstract"

    def __init__(self, total_bits: int = MF_BITS):
        self.total_bits = total_bits
        self.topology: Optional[Topology] = None
        self.layout: Optional[SubfieldLayout] = None
        self.label_bits = 0
        self.distance_bits = 0
        self._label_of: Dict[int, int] = {}
        self._node_of: Dict[int, int] = {}

    # -- lifecycle -------------------------------------------------------
    def attach(self, topology: Topology) -> None:
        """Bind to a topology: compute label tables and validate field fit."""
        self.topology = topology
        self.label_bits = gray_label_bits(topology)
        self.distance_bits = bit_length_for(topology.diameter() + 1)
        self._label_of = {n: gray_label(topology, n) for n in topology.nodes()}
        self._node_of = {lab: n for n, lab in self._label_of.items()}
        self.layout = self._build_layout()

    @abstractmethod
    def _build_layout(self) -> SubfieldLayout:
        """Construct the slot layout; raises FieldLayoutError when > total_bits."""

    def _require_attached(self) -> Topology:
        if self.topology is None or self.layout is None:
            raise MarkingError(f"{self.name}: attach() must be called before use")
        return self.topology

    def label(self, node: int) -> int:
        """Gray label of a node."""
        return self._label_of[node]

    def node_for_label(self, label: int) -> Optional[int]:
        """Node owning ``label``, or None for unused codes."""
        return self._node_of.get(label)

    # -- distance handling (shared) ----------------------------------------
    @property
    def max_distance(self) -> int:
        """Largest storable distance; increments saturate here."""
        return (1 << self.distance_bits) - 1

    # -- Savage's per-switch operations --------------------------------------
    @abstractmethod
    def write_start(self, word: int, node: int) -> int:
        """Probabilistic-branch write: this switch starts a new mark."""

    @abstractmethod
    def write_continue(self, word: int, node: int) -> int:
        """Else-branch: complete a distance-0 mark and/or increment distance."""

    @abstractmethod
    def read_distance(self, word: int) -> int:
        """Distance field of a mark word."""

    # -- victim side -------------------------------------------------------
    @abstractmethod
    def candidate_edges(self, word: int, victim: int) -> Tuple[EdgeMark, ...]:
        """All physical edges consistent with the mark word.

        Deterministic encodings return at most one; the XOR encoding returns
        every physical edge whose labels XOR to the stored value — the
        ambiguity the paper quantifies as ~n(n-1)/log(n).
        """

    def _validate_one_bit_adjacency(self) -> None:
        """Require every physical edge to flip exactly one label bit."""
        topo = self._require_attached()
        for u, v in topo.links.all_links:
            xor = self._label_of[u] ^ self._label_of[v]
            if popcount(xor) != 1:
                raise MarkingError(
                    f"{self.name} requires one-bit label adjacency, but edge "
                    f"({u}, {v}) flips {popcount(xor)} bits; use power-of-two "
                    f"torus dimensions or a mesh/hypercube"
                )


class FullIndexEncoder(MarkEncoder):
    """(start label, end label, distance) — the Table 1 format."""

    name = "full-index"

    def _build_layout(self) -> SubfieldLayout:
        try:
            return SubfieldLayout(
                [("start", self.label_bits), ("end", self.label_bits),
                 ("distance", self.distance_bits)],
                total_bits=self.total_bits,
            )
        except FieldLayoutError as exc:
            raise FieldLayoutError(
                f"simple PPM needs {2 * self.label_bits + self.distance_bits} bits "
                f"for this network; only {self.total_bits} available (Table 1 limit)"
            ) from exc

    def write_start(self, word: int, node: int) -> int:
        return self.layout.pack({"start": self.label(node), "end": 0, "distance": 0})

    def write_continue(self, word: int, node: int) -> int:
        values = self.layout.unpack(word)
        if values["distance"] == 0:
            values["end"] = self.label(node)
        values["distance"] = min(values["distance"] + 1, self.max_distance)
        return self.layout.pack(values)

    def read_distance(self, word: int) -> int:
        return self.layout.unpack(word)["distance"]

    def candidate_edges(self, word: int, victim: int) -> Tuple[EdgeMark, ...]:
        topo = self._require_attached()
        values = self.layout.unpack(word)
        start = self.node_for_label(values["start"])
        if start is None:
            return ()
        if values["distance"] == 0:
            # The marker was the final forwarding switch; its edge ends at us.
            if topo.is_neighbor(start, victim, include_failed=True) or start == victim:
                return (EdgeMark(start, None, 0),)
            return ()
        end = self.node_for_label(values["end"])
        if end is None or not topo.is_neighbor(start, end, include_failed=True):
            return ()
        return (EdgeMark(start, end, values["distance"]),)


class XorEncoder(MarkEncoder):
    """(label XOR, distance) — compact but reconstruction-ambiguous (§4.2)."""

    name = "xor"

    def _build_layout(self) -> SubfieldLayout:
        try:
            layout = SubfieldLayout(
                [("edge", self.label_bits), ("distance", self.distance_bits)],
                total_bits=self.total_bits,
            )
        except FieldLayoutError as exc:
            raise FieldLayoutError(
                f"XOR PPM needs {self.label_bits + self.distance_bits} bits; "
                f"only {self.total_bits} available"
            ) from exc
        return layout

    def attach(self, topology: Topology) -> None:
        super().attach(topology)
        self._validate_one_bit_adjacency()
        # Precompute XOR value -> physical edges for victim-side decode.
        self._edges_by_xor: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        grouped: Dict[int, list] = {}
        for u, v in topology.links.all_links:
            xor = self.label(u) ^ self.label(v)
            grouped.setdefault(xor, []).append((u, v))
            grouped.setdefault(xor, []).append((v, u))
        self._edges_by_xor = {k: tuple(sorted(vs)) for k, vs in grouped.items()}

    def write_start(self, word: int, node: int) -> int:
        return self.layout.pack({"edge": self.label(node), "distance": 0})

    def write_continue(self, word: int, node: int) -> int:
        values = self.layout.unpack(word)
        if values["distance"] == 0:
            values["edge"] ^= self.label(node)
        values["distance"] = min(values["distance"] + 1, self.max_distance)
        return self.layout.pack(values)

    def read_distance(self, word: int) -> int:
        return self.layout.unpack(word)["distance"]

    def candidate_edges(self, word: int, victim: int) -> Tuple[EdgeMark, ...]:
        topo = self._require_attached()
        values = self.layout.unpack(word)
        distance = values["distance"]
        if distance == 0:
            # Un-XORed raw label of the final marking switch.
            start = self.node_for_label(values["edge"])
            if start is not None and (
                topo.is_neighbor(start, victim, include_failed=True) or start == victim
            ):
                return (EdgeMark(start, None, 0),)
            return ()
        edges = self._edges_by_xor.get(values["edge"], ())
        return tuple(EdgeMark(u, v, distance) for u, v in edges)


class BitDifferenceEncoder(MarkEncoder):
    """(start label, differing-bit position, distance) — the Table 2 format."""

    name = "bit-difference"

    def _build_layout(self) -> SubfieldLayout:
        self.bitpos_bits = max(1, bit_length_for(self.label_bits))
        try:
            return SubfieldLayout(
                [("start", self.label_bits), ("bitpos", self.bitpos_bits),
                 ("distance", self.distance_bits)],
                total_bits=self.total_bits,
            )
        except FieldLayoutError as exc:
            raise FieldLayoutError(
                f"bit-difference PPM needs "
                f"{self.label_bits + self.bitpos_bits + self.distance_bits} bits; "
                f"only {self.total_bits} available (Table 2 limit)"
            ) from exc

    def attach(self, topology: Topology) -> None:
        super().attach(topology)
        self._validate_one_bit_adjacency()

    def write_start(self, word: int, node: int) -> int:
        return self.layout.pack({"start": self.label(node), "bitpos": 0, "distance": 0})

    def write_continue(self, word: int, node: int) -> int:
        values = self.layout.unpack(word)
        if values["distance"] == 0:
            xor = values["start"] ^ self.label(node)
            if xor != 0 and (xor & (xor - 1)) == 0:
                values["bitpos"] = xor.bit_length() - 1
            # else: the stored start is not our neighbor (e.g. an unmarked
            # injection word); leave bitpos — the mark decodes as garbage and
            # is filtered at the victim, as in real PPM.
        values["distance"] = min(values["distance"] + 1, self.max_distance)
        return self.layout.pack(values)

    def read_distance(self, word: int) -> int:
        return self.layout.unpack(word)["distance"]

    def candidate_edges(self, word: int, victim: int) -> Tuple[EdgeMark, ...]:
        topo = self._require_attached()
        values = self.layout.unpack(word)
        start = self.node_for_label(values["start"])
        if start is None:
            return ()
        if values["distance"] == 0:
            if topo.is_neighbor(start, victim, include_failed=True) or start == victim:
                return (EdgeMark(start, None, 0),)
            return ()
        end = self.node_for_label(values["start"] ^ (1 << values["bitpos"]))
        if end is None or not topo.is_neighbor(start, end, include_failed=True):
            return ()
        return (EdgeMark(start, end, values["distance"]),)
