"""Savage's compressed edge fragments — PPM for networks too large for Table 1.

The full-index format (Table 1) dies at 8x8 because two labels plus a
distance must fit in 16 bits. Savage's answer (§2): encode the *edge* as one
word protected by a hash, split it into ``k`` fragments, and let each mark
carry one random fragment plus its offset. The victim reassembles edges by
combining one fragment per offset and keeping combinations whose hash
verifies. Cost: the victim needs far more packets — the paper's
``k ln(kd) / (p (1-p)^(d-1))`` bound, reproduced by benchmark A1 — and
reassembly work grows combinatorially with concurrent attack paths.

Unlike Savage's Internet routers, a cluster switch knows its chosen next hop
at marking time, so the edge (self, next) is written in one operation — no
two-router completion protocol is needed.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError, FieldLayoutError, MarkingError
from repro.marking.base import (MarkingScheme, VictimAnalysis, _coin_hop_array,
                                _probe_map)
from repro.marking.field import SubfieldLayout
from repro.marking.ppm_encoding import EdgeMark, gray_label, gray_label_bits, gray_unlabel
from repro.marking.ppm_reconstruct import reconstruct_paths
from repro.network.ip import MF_BITS
from repro.network.packet import Packet
from repro.topology.base import Topology
from repro.util.bitops import bit_length_for
from repro.util.hashing import hash_bits
from repro.util.validation import check_positive_int, check_probability

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.markstream import MarkBatch

__all__ = ["FragmentEncoder", "FragmentPpmScheme", "FragmentVictimAnalysis"]


class FragmentEncoder:
    """Fragmenting codec for edge words.

    Parameters
    ----------
    num_fragments:
        ``k`` — fragments per edge word.
    check_bits:
        Hash bits appended to the edge word before splitting; more bits,
        fewer false reassemblies.
    """

    def __init__(self, num_fragments: int = 8, check_bits: int = 12,
                 total_bits: int = MF_BITS):
        self.num_fragments = check_positive_int(num_fragments, "num_fragments")
        if self.num_fragments < 2:
            raise ConfigurationError("num_fragments must be >= 2 (else use FullIndexEncoder)")
        if check_bits < 1:
            raise ConfigurationError(f"check_bits must be >= 1, got {check_bits}")
        self.check_bits = check_bits
        self.total_bits = total_bits
        self.topology: Optional[Topology] = None

    def attach(self, topology: Topology) -> None:
        """Compute word geometry and validate the MF fit."""
        self.topology = topology
        label_bits = gray_label_bits(topology)
        self.word_bits = 2 * label_bits + self.check_bits
        self.label_bits = label_bits
        self.fragment_bits = -(-self.word_bits // self.num_fragments)  # ceil div
        self.offset_bits = max(1, bit_length_for(self.num_fragments))
        self.distance_bits = bit_length_for(topology.diameter() + 1)
        try:
            self.layout = SubfieldLayout(
                [("fragment", self.fragment_bits), ("offset", self.offset_bits),
                 ("distance", self.distance_bits)],
                total_bits=self.total_bits,
            )
        except FieldLayoutError as exc:
            raise FieldLayoutError(
                f"fragment PPM mark needs {self.fragment_bits}+{self.offset_bits}+"
                f"{self.distance_bits} bits; only {self.total_bits} available — "
                f"raise num_fragments or lower check_bits"
            ) from exc

    def _require_attached(self) -> Topology:
        if self.topology is None:
            raise MarkingError("FragmentEncoder: attach() must be called before use")
        return self.topology

    # -- codec ------------------------------------------------------------
    def edge_word(self, u: int, v: int) -> int:
        """Hash-protected word for directed edge (u, v)."""
        topo = self._require_attached()
        edge = (gray_label(topo, u) << self.label_bits) | gray_label(topo, v)
        return (edge << self.check_bits) | hash_bits(edge, self.check_bits)

    def fragment_of(self, word: int, offset: int) -> int:
        """Fragment ``offset`` (0 = least significant) of an edge word."""
        if not 0 <= offset < self.num_fragments:
            raise MarkingError(f"offset {offset} out of range 0..{self.num_fragments - 1}")
        return (word >> (offset * self.fragment_bits)) & ((1 << self.fragment_bits) - 1)

    def reassemble(self, fragments: Tuple[int, ...]) -> Optional[Tuple[int, int]]:
        """Verify a full fragment tuple; return the (u, v) edge or None.

        Checks the hash, decodes both labels, and confirms the edge is a
        physical link of the topology.
        """
        topo = self._require_attached()
        word = 0
        for offset, fragment in enumerate(fragments):
            word |= fragment << (offset * self.fragment_bits)
        padded_bits = self.num_fragments * self.fragment_bits
        if word >= (1 << self.word_bits) and padded_bits > self.word_bits:
            return None  # padding bits must be zero
        check = word & ((1 << self.check_bits) - 1)
        edge = word >> self.check_bits
        if hash_bits(edge, self.check_bits) != check:
            return None
        label_mask = (1 << self.label_bits) - 1
        try:
            u = gray_unlabel(topo, (edge >> self.label_bits) & label_mask)
            v = gray_unlabel(topo, edge & label_mask)
        except MarkingError:
            return None
        if not topo.is_neighbor(u, v, include_failed=True):
            return None
        return (u, v)

    @property
    def max_distance(self) -> int:
        """Saturation value of the distance slot."""
        return (1 << self.distance_bits) - 1


class FragmentPpmScheme(MarkingScheme):
    """Edge sampling with fragment marks (Savage's full scheme)."""

    def __init__(self, probability: float, rng: np.random.Generator,
                 encoder: Optional[FragmentEncoder] = None):
        super().__init__()
        self.probability = check_probability(probability, "probability")
        self.rng = rng
        self.encoder = encoder if encoder is not None else FragmentEncoder()
        self.name = f"ppm[fragment/{self.encoder.num_fragments}]"

    def _on_attach(self, topology: Topology) -> None:
        self.encoder.attach(topology)
        # Columnar memos of the two pure branch transforms below.
        self._start_memo: Dict[int, int] = {}
        self._continue_memo: Dict[int, int] = {}

    def on_inject(self, packet: Packet, node: int) -> None:
        self._require_attached()
        packet.header.identification = 0

    def _start_mark(self, from_node: int, to_node: int, offset: int) -> int:
        """Marking branch: fragment ``offset`` of edge (from, to), distance 0."""
        enc = self.encoder
        return enc.layout.pack({
            "fragment": enc.fragment_of(enc.edge_word(from_node, to_node),
                                        offset),
            "offset": offset,
            "distance": 0,
        })

    def _continue_mark(self, word: int) -> int:
        """Else-branch: count the hop (saturating), fragment untouched."""
        enc = self.encoder
        values = enc.layout.unpack(word)
        values["distance"] = min(values["distance"] + 1, enc.max_distance)
        return enc.layout.pack(values)

    def on_hop(self, packet: Packet, from_node: int, to_node: int) -> None:
        if self.rng.random() < self.probability:
            offset = int(self.rng.integers(self.encoder.num_fragments))
            word = self._start_mark(from_node, to_node, offset)
        else:
            word = self._continue_mark(packet.header.identification)
        packet.header.identification = word

    def on_hop_array(self, words: np.ndarray, src: np.ndarray,
                     dst: np.ndarray, ttls: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
        """Columnar :meth:`on_hop`: one coin per row from ``rng``, then one
        fragment offset per marking row, then :meth:`_start_mark` or
        :meth:`_continue_mark`, probed once per distinct key."""
        n = self._require_attached().num_nodes
        k = self.encoder.num_fragments

        def start(mark: np.ndarray) -> np.ndarray:
            offsets = rng.integers(k, size=int(np.count_nonzero(mark)))
            keys = (src[mark] * n + dst[mark]) * k + offsets
            return _probe_map(
                keys, self._start_memo,
                lambda key: self._start_mark(*divmod(key // k, n), key % k))

        def cont(rest: np.ndarray) -> np.ndarray:
            return _probe_map(words[rest], self._continue_memo,
                              self._continue_mark)

        return _coin_hop_array(words, rng, self.probability, start, cont)

    def new_victim_analysis(self, victim: int) -> "FragmentVictimAnalysis":
        return FragmentVictimAnalysis(self, victim)

    def per_hop_operations(self) -> dict:
        """One RNG draw; a hash only on the marking branch (~p per packet)."""
        return {"rng_draw": 2, "hash": self.probability,
                "field_read": 1, "field_write": 1}


class FragmentVictimAnalysis(VictimAnalysis):
    """Combinatorial fragment reassembly with a work cap.

    ``max_combinations`` bounds the per-distance cartesian product; when the
    cap trips, ``truncated`` is set and results may be incomplete — the
    honest cost signal of fragment PPM under distributed attacks.
    """

    def __init__(self, scheme: FragmentPpmScheme, victim: int,
                 max_combinations: int = 200_000):
        super().__init__(victim)
        self.scheme = scheme
        self.max_combinations = max_combinations
        #: distance -> offset -> set of fragments
        self.fragments: Dict[int, Dict[int, Set[int]]] = {}
        self.truncated = False

    def _observe(self, packet: Packet) -> None:
        enc = self.scheme.encoder
        values = enc.layout.unpack(packet.header.identification)
        per_distance = self.fragments.setdefault(values["distance"], {})
        per_distance.setdefault(values["offset"], set()).add(values["fragment"])

    def observe_batch(self, batch: "MarkBatch") -> None:
        """Vectorized fragment bucketing: unique words, masked-shift unpack.

        Each distinct MF word maps to one (distance, offset, fragment)
        triple and the buckets are sets, so processing unique words once is
        exactly equivalent to unpacking every packet.
        """
        n = len(batch)
        if n == 0:
            return
        columns = self.scheme.encoder.layout.unpack_array(np.unique(batch.words))
        fragments = self.fragments
        for distance, offset, fragment in zip(columns["distance"].tolist(),
                                              columns["offset"].tolist(),
                                              columns["fragment"].tolist()):
            fragments.setdefault(distance, {}).setdefault(offset, set()).add(fragment)
        self.packets_observed += n

    def reassembled_edges(self) -> Tuple[EdgeMark, ...]:
        """All hash-verified physical edges recoverable from collected fragments."""
        enc = self.scheme.encoder
        out: List[EdgeMark] = []
        for distance, by_offset in sorted(self.fragments.items()):
            if len(by_offset) < enc.num_fragments:
                continue  # some offset never arrived; edge incomplete
            pools = [sorted(by_offset[o]) for o in range(enc.num_fragments)]
            combos = 1
            for pool in pools:
                combos *= len(pool)
            if combos > self.max_combinations:
                self.truncated = True
                continue
            for fragments in product(*pools):
                edge = enc.reassemble(fragments)
                if edge is not None:
                    out.append(EdgeMark(edge[0], edge[1], distance))
        return tuple(sorted(set(out)))

    def suspects(self) -> FrozenSet[int]:
        topology = self.scheme.encoder.topology
        graph = reconstruct_paths(self.reassembled_edges(), topology, self.victim)
        return frozenset(graph.sources())
