"""Explicit witness-bearing sets.

Two families: arithmetic progressions in Z, which meet the cardinality cap
exactly (order N at size N), and a dyadic block construction in F2^n whose
order grows like |A|^(1/(2-c)) for a constant c = 0.1523.  Both return the
set together with an explicitly verified witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from stabset.orderprop import (
    AMBIENT_Z,
    INT64_MAX,
    INT64_MIN,
    FiniteSet,
    Witness,
    require_f2,
    verify_witness,
)

MAX_DYADIC_L = 4


@dataclass(frozen=True)
class ConstructedInstance:
    A: FiniteSet
    witness: Witness
    meta: dict

    def __post_init__(self) -> None:
        verdict = verify_witness(self.A, self.witness)
        if not verdict.valid:
            raise AssertionError(f"constructed witness fails: {verdict.describe()}")


def ap_witness(x: int, d: int, length: int) -> ConstructedInstance:
    """Arithmetic progression {x, x+d, ..., x+(length-1)d} with a witness of
    full order: s_i = x - i*d and t_i = i*d for 1 <= i <= length."""
    if d == 0:
        raise ValueError("difference must be nonzero")
    if length < 1:
        raise ValueError("length must be positive")
    for extreme in (x - length * d, x + length * d, length * d):
        if not INT64_MIN <= extreme <= INT64_MAX:
            raise ValueError("progression exceeds signed 64-bit range")
    elements = frozenset(x + i * d for i in range(length))
    s = tuple(x - i * d for i in range(1, length + 1))
    t = tuple(i * d for i in range(1, length + 1))
    A = FiniteSet(AMBIENT_Z, elements)
    witness = Witness(AMBIENT_Z, s, t)
    meta = {"kind": "ap", "start": x, "difference": d, "order": length}
    return ConstructedInstance(A, witness, meta)


# ---------------------------------------------------------------------------
# Dyadic block construction.


@dataclass(frozen=True)
class DyadicPlan:
    """Deterministic layout for the block construction at parameter l.

    subset_sequence pairs complementary l-subsets of the first 2l coordinates
    mirror-wise (entry r and entry R+1-r partition them); tag coordinates
    beyond 2l separate the translates: block row i carries the binary code of
    i-1 on coordinates 2l+1 .. 2l+tag_bits, block column j the code of j-1 on
    the following tag_bits coordinates.  Vectors of F2^dim are returned as
    ints (bit c-1 for coordinate c).
    """

    l: int
    R: int
    dim: int
    tag_bits: int
    subset_sequence: tuple[frozenset[int], ...]

    def cube_enumeration(self, index: int) -> list[int]:
        """v_1 .. v_{2^l}: all vectors supported on S_index (1-based index),
        in lexicographic order of their restriction to those coordinates."""
        coords = sorted(self.subset_sequence[index - 1])
        out = []
        for m in range(1 << self.l):
            bits = 0
            for pos, c in enumerate(coords):
                if (m >> (self.l - 1 - pos)) & 1:
                    bits |= 1 << (c - 1)
            out.append(bits)
        return out

    def row_tag(self, i: int) -> int:
        """u_i: code of i-1 on the first tag block."""
        return self._tag(i, offset=2 * self.l)

    def column_tag(self, j: int) -> int:
        """w_j: code of j-1 on the second tag block."""
        return self._tag(j, offset=2 * self.l + self.tag_bits)

    def _tag(self, index: int, offset: int) -> int:
        if not 1 <= index <= self.R:
            raise ValueError(f"tag index {index} outside [1, {self.R}]")
        return (index - 1) << offset


def dyadic_plan(l: int) -> DyadicPlan:
    """Pair the l-subsets of [2l] so that entries r and R+1-r are complements.

    Walks the subsets in lexicographic order, assigning each not-yet-paired
    subset to the lowest free front slot and its complement to the mirrored
    back slot.
    """
    if not 1 <= l <= MAX_DYADIC_L:
        raise ValueError(f"l must be in [1, {MAX_DYADIC_L}]")
    ground = frozenset(range(1, 2 * l + 1))
    R = math.comb(2 * l, l)
    front: list[frozenset[int]] = []
    back: list[frozenset[int]] = []
    used: set[frozenset[int]] = set()
    for combo in combinations(sorted(ground), l):
        subset = frozenset(combo)
        if subset in used:
            continue
        complement = ground - subset
        front.append(subset)
        back.append(complement)
        used.add(subset)
        used.add(complement)
    sequence = tuple(front) + tuple(reversed(back))
    if len(sequence) != R:
        raise AssertionError(f"paired {len(sequence)} subsets, expected {R}")
    tag_bits = max(1, math.ceil(math.log2(R)))
    return DyadicPlan(l, R, 2 * l + 2 * tag_bits, tag_bits, sequence)


def dyadic_exact_size(l: int) -> int:
    """Exact cardinality of the constructed set, from the block layout alone:
    off-diagonal blocks contribute 2^|S_i ∪ S_{R+1-j}| each, diagonal blocks
    2^(l-1) (2^l + 1) each."""
    plan = dyadic_plan(l)
    R = plan.R
    total = R * (1 << (l - 1)) * ((1 << l) + 1)
    for i in range(1, R + 1):
        for j in range(i + 1, R + 1):
            union = plan.subset_sequence[i - 1] | plan.subset_sequence[R - j]
            total += 1 << len(union)
    return total


@dataclass(frozen=True)
class SizeBound:
    closed_form: float
    binomial_form: Fraction


def size_bound(l: int) -> SizeBound:
    """Upper bounds on the constructed size: the exact binomial-sum form
    binom(2l,l) 4^l sum_s binom(l,s)^2 2^(-s) and its closed-form relaxation
    16^l (1 + 1/sqrt 2)^(2l)."""
    if l < 1:
        raise ValueError("l must be positive")
    binomial = (
        Fraction(math.comb(2 * l, l))
        * (1 << (2 * l))
        * sum(Fraction(math.comb(l, s) ** 2, 1 << s) for s in range(l + 1))
    )
    closed = (2.0 ** (4 * l)) * (1.0 + 1.0 / math.sqrt(2.0)) ** (2 * l)
    return SizeBound(closed, binomial)


def dyadic_construction(l: int) -> ConstructedInstance:
    """Set of order R 2^l built from tagged block translates.

    Block (i, j) with i < j contributes the full cube on S_i ∪ S_{R+1-j};
    block (i, i) only the pairs v_m + v_n with m <= n from the complementary
    cubes.  The tags keep distinct blocks in disjoint cosets, which is what
    makes the witness condition an equivalence rather than an implication.
    """
    plan = dyadic_plan(l)
    R, dim = plan.R, plan.dim
    enumerations = {i: plan.cube_enumeration(i) for i in range(1, R + 1)}
    elements: set[int] = set()
    for i in range(1, R + 1):
        u = plan.row_tag(i)
        cube_i = enumerations[i]
        for j in range(i, R + 1):
            base = u ^ plan.column_tag(j)
            cube_mirror = enumerations[R + 1 - j]
            if i < j:
                for vm in cube_i:
                    shifted = base ^ vm
                    elements.update([shifted ^ vn for vn in cube_mirror])
            else:
                for m in range(1 << l):
                    shifted = base ^ cube_i[m]
                    elements.update([shifted ^ vn for vn in cube_mirror[m:]])
    s_seq = [plan.row_tag(b) ^ v for b in range(1, R + 1) for v in enumerations[b]]
    t_seq = [plan.column_tag(b) ^ v for b in range(1, R + 1) for v in enumerations[R + 1 - b]]
    A = FiniteSet.from_bits(dim, elements)
    witness = Witness.from_bits(dim, s_seq, t_seq)
    bound = size_bound(l)
    meta = {
        "kind": "dyadic",
        "l": l,
        "R": R,
        "order": R * (1 << l),
        "dim": dim,
        "exact_size": len(elements),
        "size_bound_closed": bound.closed_form,
        "size_bound_binomial": bound.binomial_form,
    }
    return ConstructedInstance(A, witness, meta)


def dyadic_exponent_constant() -> float:
    """The constant c with order ~ size^(1/(2-c)) for the block family:
    c = log_8(1 + (5 - 2 sqrt 2)/(3 + 2 sqrt 2)) = 0.1523..."""
    r2 = math.sqrt(2.0)
    return math.log(1.0 + (5.0 - 2.0 * r2) / (3.0 + 2.0 * r2)) / math.log(8.0)


def pad_to_size(inst: ConstructedInstance, size: int) -> ConstructedInstance:
    """Grow the set to the requested cardinality without touching the order.

    Each filler element turns on one brand-new coordinate, so no filler can
    collide with any witness sum (those vanish on the new coordinates) and
    the verified order is preserved.
    """
    current = inst.A.N
    if size < current:
        raise ValueError(f"cannot pad down: {size} < {current}")
    if size == current:
        return inst
    old_n = require_f2(inst.A.ambient, "padding")
    extra = size - current
    new_n = old_n + extra
    fillers = [1 << (old_n + idx) for idx in range(extra)]
    A = FiniteSet.from_bits(new_n, [*inst.A.int_members(), *fillers])
    to_ints = inst.A.ambient.to_ints
    witness = Witness.from_bits(new_n, to_ints(inst.witness.s), to_ints(inst.witness.t))
    meta = dict(inst.meta)
    meta["padded_to"] = size
    meta["dim"] = new_n
    return ConstructedInstance(A, witness, meta)
