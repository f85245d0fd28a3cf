"""Series terms as packed bytes: counted from byte marks, decoded on request.

The engine packs the 2^d coefficients of a degree-d part into one int with
fixed-width slots; a SeriesTerm keeps the part's bytes, each value v stored
as v + 2^(width-1) so that no slot is negative, over one denominator.  A
slot is 0 exactly when its bytes are those of the offset, so the census,
the bound checks and the letter profile read which coefficients are
non-zero from the bytes alone, without a Python int per slot.  to_dense()
decodes the ints, with one struct pass, for the consumers of the values.
"""

from __future__ import annotations

from itertools import chain, compress
from math import gcd
from struct import Struct

from .algebra import FreePoly

# byte b -> 1 unless it is that of a zero slot's offset: 0x80 on top, 0x00 below
_MARK_TOP = bytes(int(b != 0x80) for b in range(256))
_MARK = bytes(int(b != 0x00) for b in range(256))
# byte b -> b with its top bit flipped; 0xFF if its top bit is set, else 0x00;
# and a sign byte -> the top byte of 2^(width-1) plus a 64-bit value of that sign
_FLIP = bytes(b ^ 0x80 for b in range(256))
_SIGN = bytes(0xFF if b >> 7 else 0 for b in range(256))
_TOP = bytes(0x7F if b >> 7 else 0x80 for b in range(256))


def _slot_size(bits: int) -> int:
    """Whole bytes for a signed slot of `bits` bits; up to 8, a struct size: 1, 2, 4 or 8."""
    size = -(-bits // 8)
    return 1 << (size - 1).bit_length() if size <= 8 else size


def _decode(data: bytes, size: int) -> tuple[int, ...]:
    """The signed values of a SeriesTerm's slots, low slot first.

    Up to 8 bytes, v + 2^(8 size - 1) with the top bit flipped is v in two's
    complement, read by one struct pass.  A wider slot holds v in its low 8
    bytes, read by one struct pass as a signed q, unless v is outside
    [-2^63, 2^63), that is, unless a byte above differs from that of a 64-bit
    value of the sign s of byte 7: 0xFF s below the top, 0x7F or 0x80 on top.
    Those byte columns mark the wide slots, and only these are read again.
    """
    count = len(data) // size
    if size <= 8:
        flipped = bytearray(data)
        flipped[size - 1 :: size] = data[size - 1 :: size].translate(_FLIP)
        return Struct(f"<{count}{'bhiq'[size.bit_length() - 1]}").unpack(flipped)
    chunk = Struct("<" + f"q{size - 8}x" * min(256, count))
    values = tuple(chain.from_iterable(chunk.iter_unpack(data)))
    sign = data[7::size].translate(_SIGN)
    wide = 0
    for j, column in enumerate([sign] * (size - 9) + [sign.translate(_TOP)], 8):
        wide |= int.from_bytes(data[j::size], "little") ^ int.from_bytes(column, "little")
    if not wide:
        return values
    values, half = list(values), 1 << (8 * size - 1)
    for i in compress(range(count), wide.to_bytes(count, "little")):
        values[i] = int.from_bytes(data[i * size : (i + 1) * size], "little") - half
    return tuple(values)


class SeriesTerm:
    """The homogeneous degree-n term of a series: bytes, slot size and denominator.

    Slot `bits` of data, `size` little-endian bytes, holds v + 2^(8 size - 1)
    for the coefficient v / den of Word(n, bits).  SeriesTerm(n, body) packs
    body.to_dense(n) so; the engine packs its parts with _from_packed.  A term
    never changes: to_dense() and .body decode the bytes anew on each call.
    The engine's den depends on the truncation N, so equality and the hash
    compare the values: the form reduced by the gcd of den and the ints.
    """

    __slots__ = ("degree", "_data", "_size", "_den")

    def __init__(self, degree: int, body: FreePoly):
        ints, den = body.to_dense(degree)
        size = _slot_size(max(map(abs, ints)).bit_length() + 1)
        half = 1 << (8 * size - 1)
        self.degree, self._size, self._den = degree, size, den
        self._data = b"".join([(c + half).to_bytes(size, "little") for c in ints])

    @classmethod
    def _from_packed(cls, degree: int, packed: int, size: int, den: int) -> "SeriesTerm":
        """The term whose slots, size bytes each, are the 2^degree slots of packed."""
        term, width = object.__new__(cls), size << 3
        offset = 1 << (width - 1)  # in every slot, by doubling, so that no slot is negative
        for t in range(degree):
            offset += offset << (width << t)
        term.degree, term._size, term._den = degree, size, den
        term._data = (packed + offset).to_bytes(size << degree, "little")
        return term

    @property
    def body(self) -> FreePoly:
        return FreePoly.from_dense(self.degree, *self.to_dense())

    def to_dense(self) -> tuple[tuple[int, ...], int]:
        """(ints, den): the 2^n coefficient numerators, indexed by Word.bits, over den."""
        return _decode(self._data, self._size), self._den

    def marks(self) -> bytes:
        """One byte per coefficient, indexed by Word.bits: 1 if it is non-zero, else 0."""
        # each byte column marked against that of a zero slot, the marks ORed
        data, size = self._data, self._size
        marks = int.from_bytes(data[size - 1 :: size].translate(_MARK_TOP), "little")
        for j in range(size - 1):
            marks |= int.from_bytes(data[j::size].translate(_MARK), "little")
        return marks.to_bytes(len(data) // size, "little")

    @property
    def count(self) -> int:
        """The number of non-zero coefficients."""
        return self.marks().count(1)

    def _reduced(self) -> tuple[int, tuple[int, ...], int]:
        ints, den = self.to_dense()
        g = gcd(den, *ints)
        return self.degree, tuple(c // g for c in ints), den // g

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SeriesTerm):
            return self._reduced() == other._reduced()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._reduced())

    def __repr__(self) -> str:
        return f"SeriesTerm(degree={self.degree}, body={self.body!r})"
