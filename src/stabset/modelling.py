"""Compressing a witness into a small ambient group.

A witness of order k whose middle band is kept intact can be pushed through
a group homomorphism into F2^n with 2^n comparable to k, losing only the 2l
outer indices: project onto the span of the middle elements, then repeatedly
quotient out any point missing from the fourfold midband sumset D.  Each
quotient keeps the map injective on the midband sumset, and the loop stops
exactly when D fills the whole image group, which pins 2^n = |D| and yields
the explicit bound 2^n <= 16 (k/l)^10 (|A|/k)^15 k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from stabset.gf2 import (
    BitVector,
    LinearMap2,
    lex_key,
    quotient_map_bits,
    rref_rows,
    sumset,
)
from stabset.orderprop import (
    Ambient,
    FiniteSet,
    Witness,
    require_f2,
    verify_witness,
)

MAX_MODEL_DIM = 16  # quotient search enumerates all 2^n candidate points


@dataclass(frozen=True)
class WitnessPartition:
    """Index bands of a valid witness: head/middle of s, middle/tail of t.

    With 1-based inclusive ranges: s_head = {s_1..s_l}, s_mid = {s_l..s_(k-l)},
    t_tail = {t_(k-l)..t_k}, t_mid = {t_l..t_(k-l)}.  All of s_head + t_mid,
    s_head + t_tail and s_mid + t_tail land inside A.
    """

    ambient: Ambient
    s_head: frozenset[BitVector]
    s_mid: frozenset[BitVector]
    t_tail: frozenset[BitVector]
    t_mid: frozenset[BitVector]
    l: int
    k: int
    trim_ratio: Fraction  # l / k
    size_ratio: Fraction  # |A| / k


def partition_witness(A: FiniteSet, w: Witness, l: int) -> WitnessPartition:
    """Split a valid witness at trim parameter l, 1 <= l <= floor(k/4)."""
    require_f2(A.ambient, "witness partitioning")
    verdict = verify_witness(A, w)
    if not verdict.valid:
        raise ValueError(f"witness invalid: {verdict.describe()}")
    k = w.k
    if not 1 <= l <= k // 4:
        raise ValueError(f"l = {l} outside [1, k//4] = [1, {k // 4}]")
    s_head = frozenset(w.s[0:l])
    s_mid = frozenset(w.s[l - 1 : k - l])
    t_tail = frozenset(w.t[k - l - 1 : k])
    t_mid = frozenset(w.t[l - 1 : k - l])
    if min(len(s_head), len(t_tail)) < l or min(len(s_mid), len(t_mid)) < k - 2 * l:
        raise AssertionError("a band lost entries despite a valid witness")
    members = A.int_members()
    for left, right in ((s_head, t_mid), (s_head, t_tail), (s_mid, t_tail)):
        right_bits = [y.bits for y in right]
        if not members.issuperset([x.bits ^ y for x in left for y in right_bits]):
            raise AssertionError("band sumset escapes A despite a valid witness")
    return WitnessPartition(
        ambient=A.ambient,
        s_head=s_head,
        s_mid=s_mid,
        t_tail=t_tail,
        t_mid=t_mid,
        l=l,
        k=k,
        trim_ratio=Fraction(l, k),
        size_ratio=Fraction(A.N, k),
    )


@dataclass(frozen=True)
class RuzsaReport:
    mid_sumset_size: int  # |s_mid + t_mid|
    chain_value: Fraction  # |s_mid+t_tail| |t_tail+s_head| |s_head+t_mid| / (|t_tail| |s_head|)
    ratio_bound: Fraction  # (k/l)^2 (|A|/k)^3 k
    min_bound: Fraction  # 2 (k/l)^2 (|A|/k)^3 min(|t_mid|, |s_mid|)
    holds: bool


def ruzsa_check(p: WitnessPartition) -> RuzsaReport:
    """Exact midband sumset size against its triangle-inequality bounds."""
    mid = len(sumset(p.s_mid, p.t_mid))
    chain = Fraction(
        len(sumset(p.s_mid, p.t_tail))
        * len(sumset(p.t_tail, p.s_head))
        * len(sumset(p.s_head, p.t_mid)),
        len(p.t_tail) * len(p.s_head),
    )
    ratio_bound = (1 / p.trim_ratio) ** 2 * p.size_ratio**3 * p.k
    min_bound = 2 * (1 / p.trim_ratio) ** 2 * p.size_ratio**3 * min(
        len(p.t_mid), len(p.s_mid)
    )
    holds = mid <= chain <= ratio_bound <= min_bound
    return RuzsaReport(mid, chain, ratio_bound, min_bound, holds)


@dataclass(frozen=True)
class ModelStep:
    n: int
    d_size: int  # |phi(s_mid) + phi(s_mid) + phi(t_mid) + phi(t_mid)|
    injective: bool  # on the midband sumset


@dataclass(frozen=True)
class ModelResult:
    n: int
    phi: LinearMap2
    A_prime: FiniteSet
    witness_prime: Witness
    bound_ok: bool
    bound_value: Fraction
    trim_ratio: Fraction
    size_ratio: Fraction
    steps: tuple[ModelStep, ...]


def minimal_model(
    p: WitnessPartition, ambient_n: int
) -> tuple[int, LinearMap2, tuple[ModelStep, ...]]:
    """Homomorphism into the smallest reachable F2^n injective on the midband
    sumset, by greedy quotients.

    Start from the coordinate projection onto the span of the midband
    elements.  While some x is missing from D = phi(s_mid) + phi(s_mid)
    + phi(t_mid) + phi(t_mid), compose with the quotient killing {0, x} for
    the lexicographically first such x: a collision a != b created by that
    quotient would force phi(a) + phi(b) = x inside D, so injectivity
    survives (and is re-checked after every step).  The loop ends exactly
    when 2^n = |D|.
    """
    for v in p.s_mid | p.t_mid:
        if v.n != ambient_n:
            raise ValueError(f"element dimension {v.n} differs from ambient {ambient_n}")
    s_mid = [v.bits for v in p.s_mid]
    t_mid = [v.bits for v in p.t_mid]
    _, pivots = rref_rows(s_mid + t_mid, ambient_n)
    n = len(pivots)
    phi = LinearMap2(n, ambient_n, tuple(1 << piv for piv in pivots))
    if n > MAX_MODEL_DIM:
        raise ValueError(f"midband span dimension {n} exceeds guard {MAX_MODEL_DIM}")
    mid_sums = {a ^ b for a in s_mid for b in t_mid}
    steps: list[ModelStep] = []
    while True:
        images_s = {phi.apply_bits(v) for v in s_mid}
        images_t = {phi.apply_bits(v) for v in t_mid}
        ss = {a ^ b for a in images_s for b in images_s}
        tt = {a ^ b for a in images_t for b in images_t}
        d_set = {a ^ b for a in ss for b in tt}
        injective = len({phi.apply_bits(u) for u in mid_sums}) == len(mid_sums)
        steps.append(ModelStep(n, len(d_set), injective))
        if not injective:
            raise AssertionError("model map lost injectivity on the midband sumset")
        if len(d_set) == (1 << n):
            return n, phi, tuple(steps)
        missing = min(
            (x for x in range(1 << n) if x not in d_set), key=lambda x: lex_key(x, n)
        )
        phi = quotient_map_bits(n, missing).compose(phi)
        n -= 1


def compress(A: FiniteSet, w: Witness, l: int) -> ModelResult:
    """Model a valid witness of order k inside F2^n, keeping order k - 2l + 1.

    The compressed set collects phi(s_i + t_j) over the midband cells
    l <= i <= j <= k - l; the shifted midband sequences witness the reduced
    order because phi is injective exactly there.  bound_ok records the
    explicit inequality 2^n <= 16 (k/l)^10 (|A|/k)^15 k.
    """
    partition = partition_witness(A, w, l)
    n, phi, steps = minimal_model(partition, A.ambient.n)
    k = w.k
    # phi is linear, so phi(s_i + t_j) = phi(s_i) + phi(t_j)
    s_img = [phi.apply_bits(x.bits) for x in w.s[l - 1 : k - l]]
    t_img = [phi.apply_bits(x.bits) for x in w.t[l - 1 : k - l]]
    cells = {si ^ tj for i, si in enumerate(s_img) for tj in t_img[i:]}
    A_prime = FiniteSet.from_bits(n, cells)
    witness_prime = Witness.from_bits(n, s_img, t_img)
    verdict = verify_witness(A_prime, witness_prime)
    if not verdict.valid:
        raise AssertionError(f"compressed witness fails: {verdict.describe()}")
    bound_value = (
        16 * (1 / partition.trim_ratio) ** 10 * partition.size_ratio**15 * k
    )
    return ModelResult(
        n=n,
        phi=phi,
        A_prime=A_prime,
        witness_prime=witness_prime,
        bound_ok=(1 << n) <= bound_value,
        bound_value=bound_value,
        trim_ratio=partition.trim_ratio,
        size_ratio=partition.size_ratio,
        steps=steps,
    )


def petridis_minimizer(
    S: Iterable[BitVector], T: Iterable[BitVector]
) -> tuple[frozenset[BitVector], Fraction]:
    """Nonempty Z inside T minimizing |S + Z| / |Z|, by exhaustion.

    Ties break toward smaller |Z|, then lexicographically.  The returned
    ratio controls |S + Z + C| <= ratio * |Z + C| for every finite C.
    """
    S = list(S)
    T = sorted(set(T))
    if not S or not T:
        raise ValueError("S and T must be nonempty")
    if len(T) > 15:
        raise ValueError("exhaustive minimizer guarded to |T| <= 15")
    best_z: tuple[BitVector, ...] = ()
    best_ratio: Fraction | None = None
    for size in range(1, len(T) + 1):
        for combo in combinations(T, size):
            ratio = Fraction(len(sumset(S, combo)), size)
            if best_ratio is None or ratio < best_ratio:
                best_z, best_ratio = combo, ratio
    return frozenset(best_z), best_ratio
