"""Packing several named sub-fields into the 16-bit marking field.

Every encoder in this package describes its wire format as a
:class:`SubfieldLayout` — an ordered list of (name, width, signed) slots —
and packs/unpacks through it. The layout validates, at construction, that
the total width fits the identification field; that check *is* the
scalability limit the paper's Tables 1-3 tabulate.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import FieldLayoutError, FieldOverflowError
from repro.network.ip import MF_BITS
from repro.util.bitops import extract_bits, insert_bits, to_signed, to_unsigned

__all__ = ["SubfieldLayout"]


class SubfieldLayout:
    """An ordered set of named bit slots within a ``total_bits``-wide word.

    Slots are allocated from the least-significant bit upward, in the order
    given. ``signed`` slots use two's complement.

    Parameters
    ----------
    slots:
        Sequence of (name, width) or (name, width, signed) tuples.
    total_bits:
        Word width to fit within (default: the 16-bit MF).
    """

    def __init__(self, slots: Sequence[Tuple], total_bits: int = MF_BITS):
        if total_bits < 1:
            raise FieldLayoutError(f"total_bits must be >= 1, got {total_bits}")
        self.total_bits = total_bits
        self._slots: List[Tuple[str, int, int, bool]] = []  # name, offset, width, signed
        offset = 0
        seen = set()
        for slot in slots:
            if len(slot) == 2:
                name, width = slot
                signed = False
            elif len(slot) == 3:
                name, width, signed = slot
            else:
                raise FieldLayoutError(f"slot {slot!r} is not (name, width[, signed])")
            if not isinstance(width, int) or width < 1:
                raise FieldLayoutError(f"slot {name!r} width must be a positive int, got {width!r}")
            if name in seen:
                raise FieldLayoutError(f"duplicate slot name {name!r}")
            seen.add(name)
            self._slots.append((name, offset, width, bool(signed)))
            offset += width
        if offset > total_bits:
            raise FieldLayoutError(
                f"layout needs {offset} bits but the field has only {total_bits} "
                f"(slots: {[(n, w) for n, _, w, _ in self._slots]})"
            )
        self.used_bits = offset

    # ------------------------------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        """Slot names in allocation order."""
        return tuple(name for name, _, _, _ in self._slots)

    def width(self, name: str) -> int:
        """Bit width of slot ``name``."""
        for slot_name, _, width, _ in self._slots:
            if slot_name == name:
                return width
        raise FieldLayoutError(f"unknown slot {name!r}")

    def value_range(self, name: str) -> Tuple[int, int]:
        """(min, max) representable value of slot ``name``."""
        for slot_name, _, width, signed in self._slots:  # per-subfield, scalar  # repro-lint: disable=H3
            if slot_name == name:
                if signed:
                    return -(1 << (width - 1)), (1 << (width - 1)) - 1
                return 0, (1 << width) - 1
        raise FieldLayoutError(f"unknown slot {name!r}")

    # ------------------------------------------------------------------
    def pack(self, values: Dict[str, int]) -> int:
        """Encode ``values`` (one per slot) into a word.

        Raises :class:`FieldOverflowError` when any value exceeds its slot's
        range — overflow is an explicit error, never silent truncation.
        """
        missing = set(self.names) - set(values)
        extra = set(values) - set(self.names)
        if missing or extra:
            raise FieldLayoutError(
                f"pack values mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}"
            )
        word = 0
        for name, offset, width, signed in self._slots:  # per-subfield, probed keys only  # repro-lint: disable=H3
            value = values[name]
            try:
                raw = to_unsigned(value, width) if signed else value
                if not signed and not 0 <= value < (1 << width):
                    raise ValueError
            except ValueError:
                low, high = self.value_range(name)
                raise FieldOverflowError(
                    f"slot {name!r}: value {value} outside [{low}, {high}] "
                    f"({width} {'signed' if signed else 'unsigned'} bits)"
                ) from None
            word = insert_bits(word, offset, width, raw)
        return word

    def unpack(self, word: int) -> Dict[str, int]:
        """Decode a word into a dict of slot values."""
        if word < 0 or word >= (1 << self.total_bits):
            raise FieldOverflowError(
                f"word {word} is not a {self.total_bits}-bit value"
            )
        out: Dict[str, int] = {}
        for name, offset, width, signed in self._slots:  # per-subfield, probed keys only  # repro-lint: disable=H3
            raw = extract_bits(word, offset, width)
            out[name] = to_signed(raw, width) if signed else raw
        return out

    def unpack_array(self, words) -> Dict[str, np.ndarray]:
        """Vectorized :meth:`unpack`: one int64 column per slot.

        ``unpack_array(ws)[name][i] == unpack(int(ws[i]))[name]`` — per slot
        a masked shift plus (for signed slots) a two's-complement fold over
        the whole column. Used by the batched victim analyses.
        """
        column = np.asarray(words, dtype=np.int64).reshape(-1)
        if column.size and (int(column.min()) < 0
                            or int(column.max()) >= (1 << self.total_bits)):
            raise FieldOverflowError(
                f"unpack_array got values outside the {self.total_bits}-bit range"
            )
        out: Dict[str, np.ndarray] = {}
        for name, offset, width, signed in self._slots:
            raw = (column >> offset) & ((1 << width) - 1)
            if signed:
                sign_bit = 1 << (width - 1)
                raw = np.where(raw >= sign_bit, raw - (sign_bit << 1), raw)
            out[name] = raw
        return out

    def __repr__(self) -> str:  # pragma: no cover
        slots = ", ".join(
            f"{name}:{width}{'s' if signed else 'u'}"
            for name, _, width, signed in self._slots
        )
        return f"SubfieldLayout({slots}; {self.used_bits}/{self.total_bits} bits)"
