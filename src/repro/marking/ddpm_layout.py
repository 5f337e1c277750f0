"""DDPM marking-field layouts (paper §5, Table 3).

The 16-bit MF is split into one slot per topology dimension:

* mesh/torus — signed slots; a ``w``-bit slot supports ``2^(w-1)`` nodes in
  its dimension ("the distance can be negative, so half of MF can represent
  2^7 nodes in one dimension"). 2-D gets 8+8 (max 128x128 = 16384 nodes),
  3-D gets 5+5+6 (max 16x16x32 = 8192 nodes);
* hypercube — one bit per dimension, so a 16-cube (65536 nodes).

Torus offsets are stored as minimal signed residues: accumulated distance is
folded mod k at every write, so arbitrarily long (even looping) routes can
never overflow the slot, and the victim's modular decode is unaffected
(DESIGN.md decision #4).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.errors import FieldLayoutError, FieldOverflowError, MarkingError
from repro.marking.field import SubfieldLayout
from repro.network.ip import MF_BITS
from repro.topology.base import Topology
from repro.topology.coords import minimal_signed_residue
from repro.topology.hypercube import Hypercube
from repro.topology.irregular import IrregularTopology
from repro.util.bitops import bit_length_for

__all__ = ["DdpmLayout"]


class DdpmLayout:
    """Bit layout of the DDPM distance vector for one topology.

    Parameters
    ----------
    dims:
        Topology dimension sizes.
    signed:
        True for mesh/torus (signed distance slots), False for hypercube
        (1-bit XOR slots).
    fold_modulo:
        When set (torus), components are folded to minimal signed residues
        modulo the corresponding dimension before encoding.
    total_bits:
        Marking-field width (default 16).
    """

    def __init__(self, dims: Sequence[int], *, signed: bool,
                 fold_modulo: bool = False, total_bits: int = MF_BITS):
        self.dims = tuple(dims)
        self.signed = signed
        self.fold_modulo = fold_modulo
        self.total_bits = total_bits
        if signed:
            widths = [self.signed_width_for(k) for k in self.dims]
        else:
            widths = [1] * len(self.dims)
        slots = [(f"v{i}", w, signed) for i, w in enumerate(widths)]
        try:
            self.layout = SubfieldLayout(slots, total_bits=total_bits)
        except FieldLayoutError as exc:
            raise FieldLayoutError(
                f"DDPM cannot mark a {'x'.join(map(str, self.dims))} network in "
                f"{total_bits} bits: {exc}"
            ) from exc
        self.widths = tuple(widths)
        # Precomputed per-slot metadata for the fast encode/decode paths:
        # (bit offset, value mask, min, max, sign bit, fold modulus or 0,
        # fold threshold). Equivalent to SubfieldLayout.pack/unpack over the
        # v0..vn slots, minus the per-call dict building and name checks.
        meta = []
        offset = 0
        for width, k in zip(widths, self.dims):
            sign_bit = (1 << (width - 1)) if signed else 0
            low = -sign_bit if signed else 0
            high = (sign_bit - 1) if signed else (1 << width) - 1
            meta.append((offset, (1 << width) - 1, low, high, sign_bit,
                         k if fold_modulo else 0, k // 2))
            offset += width
        self._slot_meta = tuple(meta)
        self._word_limit = 1 << total_bits

    # ------------------------------------------------------------------
    @staticmethod
    def signed_width_for(k: int) -> int:
        """Bits of a signed slot covering distances of a k-node dimension.

        Distances range over [-(k-1), k-1]; per the paper's accounting a
        w-bit signed slot supports k <= 2^(w-1).
        """
        if k < 1:
            raise FieldLayoutError(f"dimension size must be >= 1, got {k}")
        return bit_length_for(k) + 1

    @classmethod
    def for_topology(cls, topology: Topology, total_bits: int = MF_BITS) -> "DdpmLayout":
        """Derive the layout for a concrete topology instance."""
        if isinstance(topology, IrregularTopology):
            raise MarkingError(
                "DDPM requires a regular coordinate system; irregular topologies "
                "are out of scope (paper §6.3)"
            )
        if isinstance(topology, Hypercube):
            return cls(topology.dims, signed=False, total_bits=total_bits)
        fold = topology.kind == "torus"
        return cls(topology.dims, signed=True, fold_modulo=fold, total_bits=total_bits)

    @classmethod
    def capacities(cls, n_dims: int, total_bits: int = MF_BITS,
                   hypercube: bool = False) -> Tuple[int, ...]:
        """Max per-dimension node counts when the MF is split across n_dims.

        Reproduces Table 3's sizing rule: distribute ``total_bits`` as evenly
        as possible (wider slots last, matching the paper's "two five-bits
        and one six-bits"), each signed w-bit slot supporting 2^(w-1) nodes.
        For hypercubes each dimension takes 1 bit and supports its 2 nodes.
        """
        if n_dims < 1:
            raise FieldLayoutError(f"n_dims must be >= 1, got {n_dims}")
        if hypercube:
            if n_dims > total_bits:
                raise FieldLayoutError(
                    f"{n_dims}-cube needs {n_dims} bits, field has {total_bits}"
                )
            return (2,) * n_dims
        base, remainder = divmod(total_bits, n_dims)
        widths = [base] * (n_dims - remainder) + [base + 1] * remainder
        if base < 2:
            raise FieldLayoutError(
                f"{total_bits} bits across {n_dims} signed slots leaves <2 bits each"
            )
        return tuple(1 << (w - 1) for w in widths)

    @classmethod
    def max_nodes(cls, n_dims: int, total_bits: int = MF_BITS,
                  hypercube: bool = False) -> int:
        """Largest cluster size supported (product of :meth:`capacities`)."""
        total = 1
        for k in cls.capacities(n_dims, total_bits, hypercube=hypercube):
            total *= k
        return total

    # ------------------------------------------------------------------
    def _fold(self, vector: Sequence[int]) -> Tuple[int, ...]:
        if not self.fold_modulo:
            return tuple(vector)
        return tuple(minimal_signed_residue(v, k) for v, k in zip(vector, self.dims))

    def encode(self, vector: Sequence[int]) -> int:
        """Pack a distance vector into the MF word (folding tori mod k).

        Slot placement and overflow semantics are identical to packing
        through ``self.layout``; this inlines the arithmetic because DDPM
        encodes once per packet-hop. Folded (torus) components always fit
        their slot by construction; unfolded components that overflow
        delegate to the validating slow path for the canonical error.
        """
        if len(vector) != len(self.dims):
            raise MarkingError(
                f"vector arity {len(vector)} != {len(self.dims)} dimensions"
            )
        word = 0
        for (offset, mask, low, high, _sign, k, fold_max), v in zip(  # per-axis, scalar word  # repro-lint: disable=H3
                self._slot_meta, vector):
            if k:
                v = v % k
                if v > fold_max:
                    v -= k
            elif v < low or v > high:
                folded = self._fold(vector)
                return self.layout.pack({f"v{i}": x for i, x in enumerate(folded)})
            word |= (v & mask) << offset
        return word

    def decode(self, word: int) -> Tuple[int, ...]:
        """Unpack an MF word into the distance vector."""
        if word < 0 or word >= self._word_limit:
            raise FieldOverflowError(
                f"word {word} is not a {self.total_bits}-bit value"
            )
        out = []
        for offset, mask, _low, _high, sign_bit, _k, _fold_max in self._slot_meta:  # per-axis, scalar word  # repro-lint: disable=H3
            raw = (word >> offset) & mask
            if sign_bit and raw >= sign_bit:
                raw -= sign_bit << 1
            out.append(raw)
        return tuple(out)

    def decode_array(self, words: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`decode`: one (n, n_dims) int64 matrix per call.

        Row ``i`` equals ``decode(int(words[i]))`` component for component —
        per slot a shift, a mask, and a sign fold over the whole column at
        once. This is the victim-side batch decoder: distinct MF words from
        a flushed delivery batch decode in a handful of numpy passes instead
        of a Python loop per packet.
        """
        column = np.asarray(words, dtype=np.int64).reshape(-1)
        if column.size and (int(column.min()) < 0
                            or int(column.max()) >= self._word_limit):
            raise FieldOverflowError(
                f"decode_array got values outside the {self.total_bits}-bit range"
            )
        out = np.empty((column.size, len(self.dims)), dtype=np.int64)
        for axis, (offset, mask, _low, _high, sign_bit, _k, _fold_max) in enumerate(  # per-axis over whole columns  # repro-lint: disable=H3
                self._slot_meta):
            raw = (column >> offset) & mask
            if sign_bit:
                raw = np.where(raw >= sign_bit, raw - (sign_bit << 1), raw)
            out[:, axis] = raw
        return out

    def encode_array(self, vectors: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`encode`: one int64 word per (n, n_dims) row.

        ``encode_array(v)[i] == encode(tuple(v[i]))`` for every row,
        including the torus fold to minimal signed residues. Unfolded slots
        (mesh/hypercube) must already be in range — the batched engine only
        encodes honest accumulated offsets, which are in range by
        construction — and raise :class:`FieldOverflowError` otherwise.
        """
        arr = np.asarray(vectors, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != len(self.dims):
            raise MarkingError(
                f"vectors has shape {arr.shape}, expected (n, {len(self.dims)})"
            )
        words = np.zeros(arr.shape[0], dtype=np.int64)
        for axis, (offset, mask, low, high, _sign, k, fold_max) in enumerate(  # per-axis over whole columns  # repro-lint: disable=H3
                self._slot_meta):
            v = arr[:, axis]
            if k:
                v = v % k
                v = np.where(v > fold_max, v - k, v)
            elif v.size and (int(v.min()) < low or int(v.max()) > high):
                raise FieldOverflowError(
                    f"encode_array slot v{axis} got values outside "
                    f"[{low}, {high}]"
                )
            words |= (v & mask) << offset
        return words

    def __repr__(self) -> str:  # pragma: no cover
        return (f"DdpmLayout(dims={self.dims}, widths={self.widths}, "
                f"signed={self.signed}, fold={self.fold_modulo})")
