"""Polynomial-method certificates over F2.

Multilinear polynomials of bounded degree that vanish off a set A give rank
certificates for witness matrices: the evaluation matrix (P(s_i + t_j))_ij is
lower-triangular-zero for a valid witness, so its rank is at least the number
of nonzero diagonal entries, while a degree split caps the rank by twice the
dimension of the half-degree monomial space.  Binary-entropy estimates turn
those dimensions into the stability exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Optional, Sequence, Union

from stabset.gf2 import BitVector, lex_key, nullspace_rows, rank_rows, rref_rows
from stabset.orderprop import FiniteSet, Witness, require_f2, verify_witness

#: Largest ambient dimension for 2^n-bit value tables and the dense monomial
#: basis.  At n=14 the certificate of dyadic l=2 padded to F2^14 takes about
#: 0.22 s on a 2-vCPU VM (117 s when the kernel was solved per monomial).
MAX_POINTSPACE_DIM = 14

Rational = Union[Fraction, float, int]


def monomial_space_dim(n: int, d: int) -> int:
    """Number of multilinear monomials in n variables of degree at most d."""
    if not 0 <= d <= n:
        raise ValueError(f"degree {d} outside [0, {n}]")
    return sum(math.comb(n, r) for r in range(d + 1))


class MonomialBasis:
    """Monomials x -> prod_{i in I} x_i with |I| <= d, in degree-then-lex order.

    Monomials are stored as coordinate masks (bit i-1 for coordinate i).  Within
    one degree, lex order of the support tuples I is descending lex_key order.
    """

    def __init__(self, n: int, d: int):
        if not 0 <= d <= n:
            raise ValueError(f"degree {d} outside [0, {n}]")
        self.n = n
        self.d = d
        masks = [m for m in range(1 << n) if m.bit_count() <= d]
        masks.sort(key=lambda m: lex_key(m, n), reverse=True)
        masks.sort(key=int.bit_count)  # stable: keeps the order within a degree
        self.monomials: tuple[int, ...] = tuple(masks)
        self.index: dict[int, int] = {m: i for i, m in enumerate(masks)}
        self.dim = len(masks)
        if self.dim != monomial_space_dim(n, d):
            raise AssertionError(f"{self.dim} monomials, expected {monomial_space_dim(n, d)}")

    def scatter(self) -> Callable[[int], int]:
        """The map from a coefficient vector to the 2^n-bit table with bit m
        set for each monomial m present.  Built per call, not cached: at
        n=14 it holds 16384 indices."""
        return _bit_permutation([self.index.get(x, self.dim) for x in range(1 << self.n)], self.dim)

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialBasis) and (self.n, self.d) == (other.n, other.d)

    def __hash__(self) -> int:
        return hash((self.n, self.d))

    def __repr__(self) -> str:
        return f"MonomialBasis(n={self.n}, d={self.d}, dim={self.dim})"


@lru_cache(maxsize=64)
def monomial_basis(n: int, d: int) -> MonomialBasis:
    if n > MAX_POINTSPACE_DIM:
        raise ValueError(f"n = {n} exceeds dense guard {MAX_POINTSPACE_DIM}")
    return MonomialBasis(n, d)


def _bit_permutation(sources: Sequence[int], width: int) -> Callable[[int], int]:
    """The map bits -> sum_r ((bits >> sources[r]) & 1) << r on ints below 2^width.

    A source equal to `width` reads as 0.  The bits move in bulk: the input is
    formatted as a bitstring, permuted by one `itemgetter` and parsed back.
    """
    if not sources:
        return lambda bits: 0
    fmt = f"0{width + 1}b"  # the leading character is bit `width`, always 0
    pick = itemgetter(*[width - src for src in reversed(sources)])
    # one source makes `pick` return a single character, which joins the same
    return lambda bits: int("".join(pick(format(bits, fmt))), 2)


@lru_cache(maxsize=32)
def _zero_bit_masks(n: int) -> tuple[int, ...]:
    """For each coordinate i: the set of point indices x with bit i clear."""
    masks = []
    for i in range(n):
        half = 1 << i
        ones = (1 << half) - 1
        m = 0
        for start in range(0, 1 << n, 2 * half):
            m |= ones << start
        masks.append(m)
    return tuple(masks)


def _subset_parity_transform(table: int, n: int) -> int:
    """In place over a 2^n-bit table: out[x] = XOR of in[y] over subsets y of x."""
    for i, mask0 in enumerate(_zero_bit_masks(n)):
        table ^= (table & mask0) << (1 << i)
    return table


@dataclass(frozen=True)
class Poly2:
    """Multilinear polynomial over F2: coefficient bit per basis monomial."""

    basis: MonomialBasis
    coeffs: int

    def __post_init__(self) -> None:
        if not 0 <= self.coeffs < (1 << self.basis.dim):
            raise ValueError("coefficient vector does not fit the basis")

    def __add__(self, other: "Poly2") -> "Poly2":
        if self.basis != other.basis:
            raise ValueError("basis mismatch")
        return Poly2(self.basis, self.coeffs ^ other.coeffs)

    def evaluate(self, x: BitVector) -> int:
        if x.n != self.basis.n:
            raise ValueError(f"dimension mismatch: {x.n} vs {self.basis.n}")
        acc = 0
        c = self.coeffs
        idx = 0
        while c:
            if c & 1:
                m = self.basis.monomials[idx]
                if m & x.bits == m:
                    acc ^= 1
            c >>= 1
            idx += 1
        return acc

    def value_table(self) -> int:
        """All 2^n values at once: bit x of the result is the value at point x."""
        return _subset_parity_transform(self.basis.scatter()(self.coeffs), self.basis.n)

    def support(self) -> frozenset[BitVector]:
        n = self.basis.n
        values = lex_key(self.value_table(), 1 << n)  # character x is the value at x
        return frozenset(BitVector(n, x) for x, value in enumerate(values) if value == "1")


def binary_entropy(p: Rational) -> float:
    """H(p) = -p log2 p - (1-p) log2 (1-p), with H(0) = H(1) = 0."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"entropy argument {p} outside [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _as_exact_ratio(p: Rational, n: int) -> Fraction:
    """p as an exact fraction r/n; rejects values with p*n not an integer."""
    if isinstance(p, (Fraction, int)):
        frac = Fraction(p)
        if (frac * n).denominator != 1:
            raise ValueError(f"p*n = {frac * n} is not an integer")
        return frac
    r = p * n
    if abs(r - round(r)) > 1e-9:
        raise ValueError(f"p*n = {r} is not an integer")
    return Fraction(round(r), n)


@dataclass(frozen=True)
class TailCheck:
    lhs: int
    rhs: float
    holds: bool


def entropy_tail_check(n: int, p: Rational) -> TailCheck:
    """Exact check of sum_{r >= pn} binom(n, r) <= 2^(H(p) n) for p in (1/2, 1].

    The left side is exact integer arithmetic; the 1e-9 relative tolerance is
    applied to the floating right side only.
    """
    frac = _as_exact_ratio(p, n)
    if not Fraction(1, 2) < frac <= 1:
        raise ValueError(f"p = {frac} outside (1/2, 1]")
    r = int(frac * n)
    lhs = sum(math.comb(n, i) for i in range(r, n + 1))
    rhs = 2.0 ** (binary_entropy(frac) * n)
    return TailCheck(lhs, rhs, lhs <= rhs * (1.0 + 1e-9))


# ---------------------------------------------------------------------------


def _dense_dim(A: FiniteSet) -> int:
    """A's dimension, refused above MAX_POINTSPACE_DIM."""
    n = require_f2(A.ambient, "polynomial certificates")
    if n > MAX_POINTSPACE_DIM:
        raise ValueError(f"n = {n} exceeds dense guard {MAX_POINTSPACE_DIM}")
    return n


def vanishing_space(A: FiniteSet, d: int) -> list[Poly2]:
    """Canonical basis of the degree-<= d polynomials vanishing off A.

    Solved on the point side (Reed-Muller duality; MacWilliams & Sloane, The
    Theory of Error-Correcting Codes, ch. 13): a polynomial vanishing off A
    is given by its values f(a) on A, and its coefficient at monomial m is
    the XOR of f(a) over the points a of A with a & m == a.  So the unknowns
    are the |A| values, with one constraint per monomial of degree > d.
    Each kernel vector goes back to coefficients by the subset-parity
    transform (its own inverse over F2), and one reduction puts the basis in
    reduced echelon form, which is unique for the subspace.  The dimension
    is at least dim S - |complement|.
    """
    n = _dense_dim(A)
    basis = monomial_basis(n, d)
    pts = sorted(A.int_members())
    rows = [
        sum(1 << i for i, a in enumerate(pts) if a & m == a)
        for m in range(1 << n)
        if m.bit_count() > d
    ]
    position = {a: i for i, a in enumerate(pts)}
    scatter = _bit_permutation([position.get(x, len(pts)) for x in range(1 << n)], len(pts))
    gather = _bit_permutation(basis.monomials, 1 << n)  # coefficient table -> basis order
    coeffs = [
        gather(_subset_parity_transform(scatter(values), n))
        for values in nullspace_rows(rows, len(pts))
    ]
    return [Poly2(basis, c) for c in rref_rows(coeffs, basis.dim)[0]]


def max_support_polynomial(space: list[Poly2]) -> tuple[Poly2, frozenset[BitVector]]:
    """Member of the span with inclusion-maximal support.

    Works in point coordinates: every value table is restricted to the union
    U of the supports, and column x of the transposed tables says which basis
    members are nonzero at x.  Each round looks for a nonzero combination
    vanishing on the current support (a kernel of those columns) and adds it
    in; each step strictly grows the support, and at termination the support
    size is at least the space dimension.
    """
    if not space:
        raise ValueError("vanishing space is trivial")
    basis = space[0].basis
    scatter = basis.scatter()  # the work of value_table, with the map built once
    tables = [_subset_parity_transform(scatter(poly.coeffs), basis.n) for poly in space]
    union = 0
    for table in tables:
        union |= table
    width = 1 << basis.n
    points = [x for x, value in enumerate(lex_key(union, width)) if value == "1"]
    restrict = _bit_permutation(points, width)
    tables = [restrict(table) for table in tables]
    # row b of `flat` is table b as a bitstring, point U-1 first; slice j
    # is then column U-1-j, whose character b belongs to basis member b
    size = len(points)
    flat = "".join(format(table, f"0{size}b") for table in tables).encode("ascii")
    columns = [int(flat[j::size][::-1], 2) for j in range(size)]
    current = space[0].coeffs
    current_table = tables[0]
    while True:
        rows = [col for col, value in zip(columns, format(current_table, f"0{size}b")) if value == "1"]
        null = nullspace_rows(rows, len(space))
        combo = next((c for c in null), 0)
        if combo == 0:
            break
        addition = 0
        addition_table = 0
        b = 0
        c = combo
        while c:
            if c & 1:
                addition ^= space[b].coeffs
                addition_table ^= tables[b]
            c >>= 1
            b += 1
        new_table = current_table ^ addition_table
        if new_table.bit_count() <= current_table.bit_count():
            raise AssertionError("support failed to grow")
        current ^= addition
        current_table = new_table
    if current_table.bit_count() < len(space):
        raise AssertionError("maximal support smaller than the space dimension")
    poly = Poly2(basis, current)
    return poly, poly.support()


@dataclass(frozen=True)
class RankCertificate:
    n: int
    d: int
    p: Fraction
    vanishing_dim: int
    support_size: int
    diagonal_hits: int  # |{i : P(s_i + t_i) != 0}|
    rank: int
    rank_upper: int
    k: int

    def csv_row(self) -> str:
        return ",".join(
            str(v)
            for v in (
                self.n,
                self.d,
                self.p,
                self.vanishing_dim,
                self.support_size,
                self.diagonal_hits,
                self.rank,
                self.rank_upper,
                self.k,
            )
        )

    CSV_HEADER = "n,d,p,dimV,support,I,rank,upper,k"

    def text_report(self) -> str:
        return "\n".join(
            [
                f"ambient dimension n: {self.n}",
                f"degree cap d = p*n - 1: {self.d}  (p = {self.p})",
                f"vanishing space dimension: {self.vanishing_dim}",
                f"polynomial support size: {self.support_size}",
                f"nonzero diagonal entries: {self.diagonal_hits}",
                f"witness matrix rank: {self.rank}",
                f"rank upper bound 2 dim(deg <= {self.d // 2}): {self.rank_upper}",
                f"witness order k: {self.k}",
            ]
        )


def rank_certificate(A: FiniteSet, w: Witness, p: Rational) -> RankCertificate:
    """Certificate for a valid witness: build the maximal-support polynomial
    vanishing off A at degree d = p*n - 1, evaluate it on the witness matrix,
    and record the rank sandwich diagonal_hits <= rank <= 2 dim S(n, d//2).

    p must lie in (1/2, 1] with p*n integral; an odd p*n makes d even, and
    even p*n is accepted with the floor degree split.
    """
    n = _dense_dim(A)
    verdict = verify_witness(A, w)
    if not verdict.valid:
        raise ValueError(f"witness invalid: {verdict.describe()}")
    frac = _as_exact_ratio(p, n)
    if not Fraction(1, 2) < frac <= 1:
        raise ValueError(f"p = {frac} outside (1/2, 1]")
    d = int(frac * n) - 1
    space = vanishing_space(A, d)
    if not space:
        raise ValueError(f"no nonzero polynomial of degree <= {d} vanishes off A")
    poly, support = max_support_polynomial(space)
    table = poly.value_table()
    if table & ~sum(1 << a for a in A.int_members()):
        raise AssertionError("polynomial does not vanish off A")
    k = w.k
    s = [x.bits for x in w.s]
    t = [x.bits for x in w.t]
    rows = []
    diagonal_hits = 0
    for i in range(k):
        row = 0
        for j in range(k):
            if (table >> (s[i] ^ t[j])) & 1:
                row |= 1 << j
        if (row >> i) & 1:
            diagonal_hits += 1
        rows.append(row)
    if any(row & ((1 << i) - 1) for i, row in enumerate(rows)):
        raise AssertionError("witness matrix is nonzero below the diagonal")
    rank = rank_rows(rows, k)
    # cross-check with the transposed matrix; row and column rank agree
    cols = [sum(((rows[i] >> j) & 1) << i for i in range(k)) for j in range(k)]
    if rank != rank_rows(cols, k):
        raise AssertionError("row rank and column rank disagree")
    upper = 2 * monomial_space_dim(n, d // 2)
    if not diagonal_hits <= rank <= upper:
        raise AssertionError(f"rank sandwich fails: {diagonal_hits} <= {rank} <= {upper}")
    # when the degree cap leaves less than k/2 of the cube uncovered, at
    # least half the diagonal survives in the support
    if 2 * ((1 << n) - monomial_space_dim(n, d)) <= k and 2 * diagonal_hits < k:
        raise AssertionError(f"only {diagonal_hits} of {k} diagonal cells survive")
    return RankCertificate(
        n=n,
        d=d,
        p=frac,
        vanishing_dim=len(space),
        support_size=len(support),
        diagonal_hits=diagonal_hits,
        rank=rank,
        rank_upper=upper,
        k=k,
    )


def choose_certificate_p(n: int, complement_size: int) -> Fraction:
    """Smallest admissible p = r/n whose degree cap guarantees a nontrivial
    vanishing space against the given complement size, preferring odd r."""
    for r in range(n // 2 + 1, n + 1):
        if monomial_space_dim(n, r - 1) > complement_size:
            if r % 2 == 1:
                return Fraction(r, n)
            if r + 1 <= n:
                return Fraction(r + 1, n)
            return Fraction(r, n)
    raise ValueError("complement too large for any admissible degree cap")


def stability_upper_bound(n: int) -> tuple[float, Fraction]:
    """Best witness-order bound max(2^(H(p)n+1), 2^(H(1-p/2)n+2)) over
    admissible p = r/n with r odd in (n/2, n]; returns (bound, minimizer)."""
    if n < 3:
        raise ValueError("n must be at least 3")
    best: Optional[tuple[float, Fraction]] = None
    for r in range(n // 2 + 1, n + 1):
        if r % 2 == 0:
            continue
        p = Fraction(r, n)
        exponent = max(
            binary_entropy(p) * n + 1,
            binary_entropy(1 - p / 2) * n + 2,
        )
        if best is None or exponent < best[0]:
            best = (exponent, p)
    if best is None:
        raise ValueError(f"no admissible odd numerator for n = {n}")
    return 2.0 ** best[0], best[1]


def stability_constants() -> tuple[float, float]:
    """(c0, c): c0 = 1 - H(2/3) from the dense bound, and the final stability
    exponent c = c0 / (15 - 14 c0) after one compression round."""
    c0 = 1.0 - binary_entropy(Fraction(2, 3))
    return c0, c0 / (15.0 - 14.0 * c0)
