"""Exact GF(2) linear algebra on int-backed bit vectors.

Vectors of F2^n are stored as Python ints: coordinate i (1-based) lives in
bit i-1.  The canonical string form writes coordinate 1 leftmost, so the
string "0110" has coordinates 2 and 3 set.  All row reductions pivot on the
leftmost coordinate first, which makes echelon forms (and therefore reported
bases) canonical and directly comparable in tests.

Convention for the whole library: inside a computation an element of F2^n
is a plain int plus the width n, and addition is `^`.  `BitVector` appears
only at the boundary (public arguments, result objects and files): code reads
`.bits` once on entry and wraps its results once on return.  The one order on
F2^n is that of `lex_key`, the canonical bitstring.  The exact search sorts
bit-reversed ints instead, whose int order is the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

#: Hard cap on ambient dimension; every desk-scale instance fits well below.
MAX_DIM = 128


def _check_dim(n: int) -> None:
    if not 0 <= n <= MAX_DIM:
        raise ValueError(f"dimension {n} outside [0, {MAX_DIM}]")


@dataclass(frozen=True)
class BitVector:
    """Element of F2^n; addition is coordinatewise XOR."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        _check_dim(self.n)
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bits {self.bits:#x} do not fit dimension {self.n}")

    @classmethod
    def zero(cls, n: int) -> "BitVector":
        return cls(n, 0)

    @classmethod
    def unit(cls, n: int, coord: int) -> "BitVector":
        """Basis vector with coordinate `coord` (1-based) set."""
        if not 1 <= coord <= n:
            raise ValueError(f"coordinate {coord} outside [1, {n}]")
        return cls(n, 1 << (coord - 1))

    @classmethod
    def from_string(cls, text: str) -> "BitVector":
        """Parse a bitstring with coordinate 1 leftmost (the inverse of lex_key)."""
        if text.strip("01"):
            raise ValueError(f"not a bitstring: {text!r}")
        return cls(len(text), int(text[::-1], 2) if text else 0)

    def to_string(self) -> str:
        return lex_key(self.bits, self.n)

    def coord(self, i: int) -> int:
        """Coordinate i, 1-based."""
        if not 1 <= i <= self.n:
            raise ValueError(f"coordinate {i} outside [1, {self.n}]")
        return (self.bits >> (i - 1)) & 1

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if (self.bits >> (i - 1)) & 1)

    @property
    def lex_key(self) -> str:
        return lex_key(self.bits, self.n)

    def __add__(self, other: "BitVector") -> "BitVector":
        if not isinstance(other, BitVector):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        return BitVector(self.n, self.bits ^ other.bits)

    def __lt__(self, other: "BitVector") -> bool:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        return self.lex_key < other.lex_key

    def __str__(self) -> str:
        return self.to_string()


def lex_key(bits: int, n: int) -> str:
    """The canonical bitstring of a vector of F2^n, coordinate 1 leftmost.

    Equal-width strings of 0s and 1s sort lexicographically, so this string
    is also the sort key of the library's one order on F2^n.
    """
    return format(bits, f"0{n}b")[::-1] if n else ""


def lex_sorted(bits: Iterable[int], n: int) -> list[int]:
    """Vectors of F2^n given as ints, in bitstring-lexicographic order."""
    return sorted(bits, key=lambda b: lex_key(b, n))


# ---------------------------------------------------------------------------
# Row-level routines on int bitmasks (bit c = column c+1).


def rref_rows(rows: Iterable[int], width: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, 0-based pivot columns)."""
    work = [r for r in rows]
    reduced: list[int] = []
    pivots: list[int] = []
    for col in range(width):
        mask = 1 << col
        pivot_row = None
        for idx, r in enumerate(work):
            if r & mask:
                pivot_row = work.pop(idx)
                break
        if pivot_row is None:
            continue
        for i, r in enumerate(work):
            if r & mask:
                work[i] = r ^ pivot_row
        for i, r in enumerate(reduced):
            if r & mask:
                reduced[i] = r ^ pivot_row
        reduced.append(pivot_row)
        pivots.append(col)
        if not work:
            break
    return reduced, pivots


def rank_rows(rows: Iterable[int], width: int) -> int:
    return len(rref_rows(rows, width)[0])


def nullspace_rows(rows: Iterable[int], width: int) -> list[int]:
    """Canonical (echelonized) basis of {x : row & x has even parity for all rows}."""
    reduced, pivots = rref_rows(rows, width)
    pivot_set = set(pivots)
    free_cols = [c for c in range(width) if c not in pivot_set]
    basis = []
    for free in free_cols:
        vec = 1 << free
        for row, piv in zip(reduced, pivots):
            if (row >> free) & 1:
                vec |= 1 << piv
        basis.append(vec)
    return rref_rows(basis, width)[0]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearMap2:
    """GF(2)-linear map F2^cols -> F2^rows, one int bitmask per output row."""

    rows: int
    cols: int
    matrix: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.matrix) != self.rows:
            raise ValueError("matrix row count disagrees with rows")
        for r in self.matrix:
            if not 0 <= r < (1 << self.cols):
                raise ValueError("matrix row does not fit cols")

    @classmethod
    def identity(cls, n: int) -> "LinearMap2":
        return cls(n, n, tuple(1 << i for i in range(n)))

    def apply(self, x: BitVector) -> BitVector:
        if x.n != self.cols:
            raise ValueError(f"dimension mismatch: map expects {self.cols}, got {x.n}")
        return BitVector(self.rows, self.apply_bits(x.bits))

    def apply_bits(self, x: int) -> int:
        """The image of the vector with bits x, as bits."""
        out = 0
        for r, row in enumerate(self.matrix):
            if (row & x).bit_count() & 1:
                out |= 1 << r
        return out

    def compose(self, inner: "LinearMap2") -> "LinearMap2":
        """self after inner: (self.compose(inner)).apply(x) == self.apply(inner.apply(x))."""
        if self.cols != inner.rows:
            raise ValueError("composition shape mismatch")
        new_rows = []
        for row in self.matrix:
            acc = 0
            j = 0
            r = row
            while r:
                if r & 1:
                    acc ^= inner.matrix[j]
                r >>= 1
                j += 1
            new_rows.append(acc)
        return LinearMap2(self.rows, inner.cols, tuple(new_rows))

    def rank(self) -> int:
        return rank_rows(self.matrix, self.cols)

    def kernel(self) -> "Subspace2":
        basis = nullspace_rows(self.matrix, self.cols)
        return Subspace2(self.cols, tuple(BitVector(self.cols, b) for b in basis))


@dataclass(frozen=True)
class Subspace2:
    """Subspace of F2^n with a canonical reduced-echelon basis."""

    n: int
    basis: tuple[BitVector, ...]

    @classmethod
    def from_vectors(cls, n: int, vectors: Iterable[BitVector]) -> "Subspace2":
        masks = []
        for v in vectors:
            if v.n != n:
                raise ValueError(f"dimension mismatch: {v.n} vs ambient {n}")
            masks.append(v.bits)
        reduced, _ = rref_rows(masks, n)
        return cls(n, tuple(BitVector(n, b) for b in reduced))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return 1 << self.dim

    def __contains__(self, x: BitVector) -> bool:
        if x.n != self.n:
            raise ValueError(f"dimension mismatch: {x.n} vs ambient {self.n}")
        return rank_rows([b.bits for b in self.basis] + [x.bits], self.n) == self.dim

    def elements(self) -> Iterator[BitVector]:
        """All 2^dim elements, ordered by basis-coefficient counter."""
        masks = [b.bits for b in self.basis]
        for combo in range(1 << len(masks)):
            acc = 0
            c = combo
            i = 0
            while c:
                if c & 1:
                    acc ^= masks[i]
                c >>= 1
                i += 1
            yield BitVector(self.n, acc)


def quotient_map(n: int, x: BitVector) -> LinearMap2:
    """Surjection F2^n -> F2^(n-1) whose kernel is exactly {0, x}."""
    if x.n != n:
        raise ValueError(f"dimension mismatch: {x.n} vs {n}")
    return quotient_map_bits(n, x.bits)


def quotient_map_bits(n: int, x: int) -> LinearMap2:
    """quotient_map for the vector of F2^n with bits x.

    Pivots on the lowest set coordinate p of x: output coordinates are the
    input coordinates i != p, corrected by x_i * v_p so that x maps to zero.
    """
    if x == 0:
        raise ValueError("kernel generator must be nonzero")
    p = (x & -x).bit_length() - 1  # 0-based pivot coordinate
    rows = []
    for i in range(n):
        if i == p:
            continue
        row = 1 << i
        if (x >> i) & 1:
            row |= 1 << p
        rows.append(row)
    return LinearMap2(n - 1, n, tuple(rows))


def sumset(xs: Iterable[BitVector], ys: Iterable[BitVector]) -> frozenset[BitVector]:
    """{x + y : x in xs, y in ys}; in characteristic 2 this is also x - y."""
    xs = list(xs)
    ys = list(ys)
    if not xs or not ys:
        return frozenset()
    n = xs[0].n
    for v in xs + ys:
        if v.n != n:
            raise ValueError(f"dimension mismatch: {v.n} vs {n}")
    y_bits = [y.bits for y in ys]
    sums = {x.bits ^ y for x in xs for y in y_bits}
    return frozenset(BitVector(n, b) for b in sums)
