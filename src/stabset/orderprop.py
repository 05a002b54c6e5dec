"""Order-property witnesses: verification, canonical recovery, exact maxima.

A set A in an abelian group has the k-order property when there are length-k
sequences s and t with s_i + t_j in A exactly when i <= j.  This module makes
that definition executable: it checks claimed witnesses cell by cell, recovers
the unique enumeration of witnessing sets, and computes the exact maximal k
for subsets of F2^n by confined depth-first search, cross-checkable against an
independent brute-force oracle and a SAT encoding.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, count
from math import comb
from typing import Callable, Iterable, Optional, Union

from stabset.gf2 import BitVector, lex_key, lex_sorted

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

Element = Union[BitVector, int]


@dataclass(frozen=True)
class Ambient:
    """Group descriptor: F2^n ("f2", with n) or the integers ("z")."""

    kind: str
    n: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind == "f2":
            if self.n is None or self.n < 0:
                raise ValueError("f2 ambient needs a non-negative dimension")
        elif self.kind == "z":
            if self.n is not None:
                raise ValueError("z ambient carries no dimension")
        else:
            raise ValueError(f"unknown ambient kind {self.kind!r}")

    def check_element(self, x: Element) -> None:
        if self.kind == "f2":
            if not isinstance(x, BitVector) or x.n != self.n:
                raise ValueError(f"element {x!r} not in F2^{self.n}")
        else:
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValueError(f"element {x!r} not an integer")
            if not INT64_MIN <= x <= INT64_MAX:
                raise ValueError(f"integer {x} outside signed 64-bit range")

    def to_ints(self, xs: Iterable[Element]) -> list[int]:
        """Elements as ints: F2 vectors by their bits, integers as they are."""
        return [x.bits for x in xs] if self.kind == "f2" else list(xs)

    @property
    def add(self) -> Callable[[int, int], int]:
        """The group law on the int form of elements."""
        return operator.xor if self.kind == "f2" else operator.add


def ambient_f2(n: int) -> Ambient:
    return Ambient("f2", n)


def require_f2(ambient: Ambient, purpose: str) -> int:
    """The dimension of an F2 ambient; refuses the integers."""
    if ambient.kind != "f2":
        raise ValueError(f"{purpose} supports F2 ambients only")
    return ambient.n


AMBIENT_Z = Ambient("z")


@dataclass(frozen=True)
class FiniteSet:
    """A finite subset of F2^n or of the 64-bit integers."""

    ambient: Ambient
    elements: frozenset

    def __post_init__(self) -> None:
        for x in self.elements:
            self.ambient.check_element(x)

    @classmethod
    def f2(cls, n: int, elements: Iterable[BitVector]) -> "FiniteSet":
        return cls(ambient_f2(n), frozenset(elements))

    @classmethod
    def from_bits(cls, n: int, bits: Iterable[int]) -> "FiniteSet":
        return cls.f2(n, [BitVector(n, b) for b in bits])

    @classmethod
    def z(cls, elements: Iterable[int]) -> "FiniteSet":
        return cls(AMBIENT_Z, frozenset(elements))

    @property
    def N(self) -> int:
        return len(self.elements)

    def int_members(self) -> frozenset[int]:
        """The members as ints (see Ambient.to_ints), built on each call."""
        if self.ambient.kind == "f2":
            return frozenset(x.bits for x in self.elements)
        return self.elements


@dataclass(frozen=True)
class Witness:
    """Claimed order-k witness: sequences s and t of length k."""

    ambient: Ambient
    s: tuple
    t: tuple

    def __post_init__(self) -> None:
        if len(self.s) != len(self.t):
            raise ValueError("s and t must have equal length")
        for x in self.s:
            self.ambient.check_element(x)
        for x in self.t:
            self.ambient.check_element(x)
        if self.ambient.kind == "z" and self.s:
            # keep every pairwise sum inside the signed 64-bit range
            for a in (min(self.s) + min(self.t), max(self.s) + max(self.t)):
                if not INT64_MIN <= a <= INT64_MAX:
                    raise ValueError("witness sums overflow signed 64-bit range")

    @classmethod
    def from_bits(cls, n: int, s: Iterable[int], t: Iterable[int]) -> "Witness":
        return cls(
            ambient_f2(n),
            tuple(BitVector(n, b) for b in s),
            tuple(BitVector(n, b) for b in t),
        )

    @property
    def k(self) -> int:
        return len(self.s)

    def translate(self, g: Element) -> "Witness":
        """(s + g, t + g); in characteristic 2 this preserves every s_i + t_j."""
        self.ambient.check_element(g)
        return Witness(self.ambient, tuple(x + g for x in self.s), tuple(x + g for x in self.t))

    def permute(self, sigma: Iterable[int], tau: Iterable[int]) -> "Witness":
        """Reorder by 0-based index sequences sigma (for s) and tau (for t)."""
        return Witness(
            self.ambient,
            tuple(self.s[i] for i in sigma),
            tuple(self.t[j] for j in tau),
        )


@dataclass(frozen=True)
class Verdict:
    """Outcome of a witness check; `where` carries 1-based indices."""

    valid: bool
    reason: Optional[str] = None
    where: Optional[tuple[int, int]] = None

    def describe(self) -> str:
        if self.valid:
            return "valid"
        i, j = self.where
        return f"({i},{j}) {self.reason}"


@dataclass(frozen=True)
class SolveReport:
    kmax: int
    witness: Witness
    nodes_explored: int
    elapsed: float
    status: str  # "exact" | "lower-bound-only"


def verify_witness(A: FiniteSet, w: Witness) -> Verdict:
    """Check the definition cell by cell; k = 0 is vacuously valid.

    Reports the first duplicate entry, then the first bad cell in row-major
    order: "expected-in-A" when i <= j but s_i + t_j misses A, and
    "expected-not-in-A" when i > j but the sum lands in A.
    """
    if A.ambient != w.ambient:
        raise ValueError(f"ambient mismatch: {A.ambient} vs {w.ambient}")
    to_ints = A.ambient.to_ints
    return _verify_ints(A.int_members(), to_ints(w.s), to_ints(w.t), A.ambient.add)


def _first_repeat(seq: list[int]) -> Optional[tuple[int, int]]:
    """1-based (earlier, later) indices of the first entry equal to an earlier one."""
    seen: dict[int, int] = {}
    for idx, x in enumerate(seq, start=1):
        first = seen.setdefault(x, idx)
        if first != idx:
            return first, idx
    return None


def _verify_ints(
    members: frozenset[int], s: list[int], t: list[int], add: Callable[[int, int], int]
) -> Verdict:
    for role, seq in (("s", s), ("t", t)):
        repeat = _first_repeat(seq)
        if repeat:
            return Verdict(False, f"duplicate-{role}", repeat)
    for i, si in enumerate(s, start=1):
        row = [add(si, tj) for tj in t]
        # row i is right when its cells j < i miss A and the rest lie in A;
        # only a wrong row is scanned cell by cell
        if members.isdisjoint(row[: i - 1]) and members.issuperset(row[i - 1 :]):
            continue
        for j, x in enumerate(row, start=1):
            if (x in members) != (i <= j):
                reason = "expected-in-A" if i <= j else "expected-not-in-A"
                return Verdict(False, reason, (i, j))
    return Verdict(True)


def canonical_enumeration(A: FiniteSet, S: Iterable, T: Iterable) -> Optional[Witness]:
    """Recover the unique witnessing order of the sets S and T, if any.

    In a valid witness s_i has degree k+1-i against T and t_j has degree j
    against S, so the degrees are forced and pairwise distinct: sort S by
    descending degree, T by ascending degree, then verify.  Returns None when
    degrees collide or the sorted sequences fail verification.
    """
    S = list(S)
    T = list(T)
    ambient = A.ambient
    for x in S + T:
        ambient.check_element(x)
    s_ints = ambient.to_ints(S)
    t_ints = ambient.to_ints(T)
    if len(S) != len(set(s_ints)) or len(T) != len(set(t_ints)):
        raise ValueError("S and T must be sets of distinct elements")
    if len(S) != len(T):
        raise ValueError(f"size mismatch: |S| = {len(S)}, |T| = {len(T)}")
    members, add = A.int_members(), ambient.add
    # a row of sums has distinct entries, so its degree is an intersection size
    s_deg = [len(members.intersection([add(x, y) for y in t_ints])) for x in s_ints]
    t_deg = [len(members.intersection([add(x, y) for x in s_ints])) for y in t_ints]
    if len(set(s_deg)) != len(S) or len(set(t_deg)) != len(T):
        return None
    s_order = sorted(range(len(S)), key=lambda i: -s_deg[i])
    t_order = sorted(range(len(T)), key=lambda j: t_deg[j])
    s_seq = [s_ints[i] for i in s_order]
    t_seq = [t_ints[j] for j in t_order]
    if not _verify_ints(members, s_seq, t_seq, add).valid:
        return None
    return Witness(ambient, tuple(S[i] for i in s_order), tuple(T[j] for j in t_order))


def staircase_check(w: Witness) -> Verdict:
    """Structural check on the matrix M_ij = s_i + t_j (F2 only).

    Valid witnesses force every row and every column of M to be distinct, and
    forbid M_ij = M_i'j' whenever i <= j < i' <= j' (two comparable cells of
    the upper staircase can never coincide).  Scans the rows, then the
    columns, then the upper cells row by row, and reports the first collision.
    """
    require_f2(w.ambient, "staircase check")
    s, t = w.ambient.to_ints(w.s), w.ambient.to_ints(w.t)
    # M_ij = M_ij' exactly when t_j = t_j', so the first row collision lies in
    # row 1 at the first repeated t; likewise for columns and s
    repeat = _first_repeat(t)
    if repeat:
        return Verdict(False, "row-collision", (1, repeat[1]))
    repeat = _first_repeat(s)
    if repeat:
        return Verdict(False, "column-collision", (repeat[1], 1))
    # first_col[v]: the first column holding v as an upper cell (i <= j);
    # cell (i2, j2) repeats an upper cell of a column before i2 exactly when
    # first_col of its value is below i2
    first_col: dict[int, int] = {}
    for j in reversed(range(len(t))):
        tj = t[j]
        first_col.update({si ^ tj: j for si in s[: j + 1]})
    for i2, si in enumerate(s):
        for j2 in range(i2, len(t)):
            if first_col[si ^ t[j2]] < i2:
                return Verdict(False, "staircase-collision", (i2 + 1, j2 + 1))
    return Verdict(True)


# ---------------------------------------------------------------------------
# Exact search.
#
# Search-space confinement (two-line lemma): translating both sequences by
# t_1 changes no pairwise sum in characteristic 2, so t_1 = 0 may be assumed.
# Then s_1 = s_1 + t_1 lies in A; every t_j satisfies s_1 + t_j in A, hence
# t_j in s_1 + A, a subset of A + A; and every s_i satisfies s_i + t_i in A,
# hence s_i in t_i + A, a subset of A + A + A.


def _confined_domains(members: frozenset[int], n: int) -> tuple[list[int], list[int]]:
    """A + A and A + A + A in lexicographic order: the global domains of the
    later t's and of every s."""
    aa = {a ^ b for a in members for b in members}
    aaa = {a ^ b for a in aa for b in members}
    return lex_sorted(aa, n), lex_sorted(aaa, n)


class _Timeout(Exception):
    pass


#: Largest n for which the exact search runs its ladder bound, whose work is
#: on 2^n-bit ints: on random sets of 40-70 elements it was faster up to n=16,
#: even in time with 1.4-2.6x the memory at n=17-18, 3x slower at n=20.
LADDER_MAX_DIM = 16


def ladder_cap(degrees: Iterable[int]) -> int:
    """Largest m such that the i-th largest degree is at least m+1-i for every i <= m.

    An m-rung ladder (an order-m witness) needs m vertices on each side with
    degrees m, m-1, ..., 1 into the other.  With the degrees sorted, d_0 >=
    d_1 >= ..., and a zero appended, m fails just when some d_j + j < m, so
    the cap is the least d_j + j.  The staircase m, m-1, ..., 1 is its own
    conjugate, so the counts of degrees >= 1, >= 2, ... have the same cap;
    counts up to >= v alone give the smaller of the cap and v.
    """
    return min(map(operator.add, sorted(degrees, reverse=True) + [0], count()))


class _Translates(dict):
    """g -> g + A as a 2^n-bit int (bit x set for each member x), built on first lookup.

    With 2^j the top bit of g, g + A is the cached (g - 2^j) + A with each
    block of 2^j bits whose positions have bit j clear swapped with the next.
    """

    def __init__(self, members: frozenset[int], n: int) -> None:
        self[0] = sum(map((1).__lshift__, members))
        self.low = [int(("0" * 2**j + "1" * 2**j) * 2 ** (n - j - 1), 2) for j in range(n)]

    def __missing__(self, g: int) -> int:
        j = g.bit_length() - 1
        rest, low, width = self[g - (1 << j)], self.low[j], 1 << j
        got = self[g] = (rest & low) << width | (rest >> width) & low
        return got


def max_order_exact(
    A: FiniteSet,
    time_limit: Optional[float] = None,
    node_limit: Optional[int] = None,
) -> SolveReport:
    """Largest k for which A has the k-order property, with a witness.

    Depth-first search over rounds r = 1..k, choosing t_r then s_r from the
    confined domains t_r in the intersection of s_i + A over i < r (t_1 = 0)
    and s_r in (t_r + A) minus the union of t_j + A over j < r.  Those
    domains satisfy every cell of the definition, which already makes the
    entries, the diagonal and the upper staircase distinct.  A subtree is
    pruned when it cannot beat the best k: by the size of the t-domain (which
    also caps k at |A|), then from round 2 on and for n <= LADDER_MAX_DIM by
    a two-sided ladder bound, the ladder_cap of the degrees between the
    t-domain and the s's outside the union.  The search order is kept, so
    kmax, witness and status of an exact solve do not depend on the prunes;
    only the node count does.
    On hitting time_limit (wall clock) or node_limit (deterministic budget)
    the best witness found so far is reported as a lower bound.

    The search runs on bit-reversed ints (coordinate 1 in the top bit), which
    XOR like the originals and sort in the bitstrings' lexicographic order;
    the witness is reversed back at the end.
    """
    n = require_f2(A.ambient, "exact search")
    start = time.monotonic()

    def reverse(b: int) -> int:
        # its own inverse; the leading "0" covers n = 0
        return int("0" + lex_key(b, n), 2)

    members = frozenset(map(reverse, A.int_members()))
    ncap = len(members)

    shifted = {}  # g -> frozenset(g + A)
    translates = _Translates(members, n) if n <= LADDER_MAX_DIM else None

    def shift(g: int) -> frozenset:
        got = shifted.get(g)
        if got is None:
            got = frozenset(g ^ a for a in members)
            shifted[g] = got
        return got

    best_k = 0
    best_s: list[int] = []
    best_t: list[int] = []
    nodes = 0

    s_seq: list[int] = []
    t_seq: list[int] = []
    union_t: set[int] = set()  # union of t_j + A over chosen j

    def descend(t_domain: list[int]) -> None:
        # t_domain: candidates for this round's t, already restricted to the
        # intersection of s_i + A over previous rounds, minus the used t's
        # (the first round pins t_1 = 0, so its domain is just [0])
        nonlocal best_k, best_s, best_t, nodes
        if best_k == ncap or len(s_seq) + len(t_domain) <= best_k:
            return
        if s_seq and translates is not None:
            # ladder bound on the degrees |(u + A) - union| of the t-domain ...
            free = ~reduce(operator.or_, map(translates.__getitem__, t_seq))
            rows = [translates[u] & free for u in t_domain]
            if len(s_seq) + ladder_cap(map(int.bit_count, rows)) <= best_k:
                return
            # ... then on the s side: levels[v] holds the s in more than v of
            # those sets, for v below the rounds that would beat best_k
            levels = [0] * (best_k + 1 - len(s_seq))
            for bits in rows:
                for v, level in enumerate(levels):
                    levels[v], bits = level | bits, level & bits
                    if not bits:
                        break
            if len(s_seq) + ladder_cap(map(int.bit_count, levels)) <= best_k:
                return
        r = len(s_seq) + 1
        for t in t_domain:
            if node_limit is not None and nodes >= node_limit:
                raise _Timeout
            if time_limit is not None and time.monotonic() - start > time_limit:
                raise _Timeout
            # s_r's domain, and what t_r adds to the union
            fresh = shift(t) - union_t
            union_t.update(fresh)
            t_seq.append(t)
            for s in sorted(fresh):
                nodes += 1
                s_seq.append(s)
                if r > best_k:
                    best_k, best_s, best_t = r, list(s_seq), list(t_seq)
                near = shift(s)
                if r == 1:
                    descend(sorted(near - {0}))
                else:
                    descend([u for u in t_domain if u != t and u in near])
                if best_k == ncap:
                    return
                s_seq.pop()
            union_t.difference_update(fresh)
            t_seq.pop()

    status = "exact"
    try:
        descend([0])
    except _Timeout:
        status = "lower-bound-only"

    witness = Witness.from_bits(n, map(reverse, best_s), map(reverse, best_t))
    return SolveReport(best_k, witness, nodes, time.monotonic() - start, status)


def max_order_bruteforce(A: FiniteSet) -> int:
    """Independent oracle: naive enumeration over the confined global domains.

    Candidates are drawn from fixed sets (t_1 = 0, later t from A + A, every
    s from A + A + A) and every extension is validated directly against the
    definition on its new row and column, with no incremental domain logic.
    Guarded to |A| <= 8 and n <= 5.
    """
    n = require_f2(A.ambient, "exact search")
    if A.N > 8 or n > 5:
        raise ValueError("brute-force oracle guarded to |A| <= 8 and n <= 5")
    if not A.elements:
        return 0
    members = A.int_members()
    t_candidates, s_candidates = _confined_domains(members, n)

    def new_cells_ok(ss: list[int], tt: list[int]) -> bool:
        r = len(ss) - 1  # 0-based index of the appended pair
        s_new, t_new = ss[r], tt[r]
        for j in range(r + 1):
            if ((s_new ^ tt[j]) in members) != (r <= j):
                return False
        for i in range(r):
            if ((ss[i] ^ t_new) in members) != (i <= r):
                return False
        return True

    best = 0

    def extend(ss: list[int], tt: list[int]) -> None:
        nonlocal best
        best = max(best, len(ss))
        t_opts = [0] if not ss else t_candidates
        for t in t_opts:
            for s in s_candidates:
                ss.append(s)
                tt.append(t)
                if new_cells_ok(ss, tt):
                    extend(ss, tt)
                ss.pop()
                tt.pop()

    extend([], [])
    return best


# ---------------------------------------------------------------------------
# DIMACS export.


@dataclass(frozen=True)
class CnfLayout:
    """Variable layout of the order-property encoding (ids are 1-based)."""

    n: int
    k: int
    s_domain: tuple[int, ...]  # bits values, lexicographic
    t1_domain: tuple[int, ...]  # (0,) once A is nonempty
    t_domain: tuple[int, ...]

    def s_var(self, i: int, a: int) -> int:
        """Variable for s_i = s_domain[a]; i is 1-based, a 0-based."""
        return (i - 1) * len(self.s_domain) + a + 1

    def t_var(self, j: int, b: int) -> int:
        base = self.k * len(self.s_domain)
        if j == 1:
            return base + b + 1
        return base + len(self.t1_domain) + (j - 2) * len(self.t_domain) + b + 1

    @property
    def var_count(self) -> int:
        return (
            self.k * len(self.s_domain)
            + len(self.t1_domain)
            + (self.k - 1) * len(self.t_domain)
        )


def cnf_layout(A: FiniteSet, k: int) -> CnfLayout:
    n = require_f2(A.ambient, "exact search")
    if k < 1:
        raise ValueError("k must be at least 1")
    members = A.int_members()
    if not members:
        return CnfLayout(n, k, (), (), ())
    t_domain, s_domain = _confined_domains(members, n)
    return CnfLayout(n, k, tuple(s_domain), (0,), tuple(t_domain))


def cnf_clause_count(A: FiniteSet, k: int) -> int:
    """Number of clauses `export_cnf(A, k)` emits, computed without building any.

    A one-hot block over m values has 1 + C(m, 2) clauses.  Cell (i, j) bans
    the (s_i, t_j) value pairs on the wrong side of A: the misses when i <= j
    and the hits otherwise.
    """
    layout = cnf_layout(A, k)
    members = A.int_members()
    s_values = frozenset(layout.s_domain)
    count = sum(
        1 + comb(len(dom), 2)
        for dom in (layout.s_domain,) * k + (layout.t1_domain,) + (layout.t_domain,) * (k - 1)
    )
    for dom, columns in ((layout.t1_domain, [1]), (layout.t_domain, range(2, k + 1))):
        # s + t lies in A exactly when s = a + t for some a in A
        hits = sum(1 for t in dom for a in members if a ^ t in s_values)
        misses = len(layout.s_domain) * len(dom) - hits
        count += sum(j * misses + (k - j) * hits for j in columns)
    return count


def export_cnf(A: FiniteSet, k: int) -> str:
    """DIMACS CNF satisfiable iff A has the k-order property.

    One-hot selection variables pick each s_i from A + A + A and each t_j
    from A + A (t_1 is pinned to 0 by translation); clauses forbid any pair
    of choices violating a cell of the definition.  Those cell clauses
    already force distinct entries (a repeated s or t breaks a cell), so no
    distinctness clauses are emitted.  Header comments carry the layout and
    the candidate values so that a model decodes back into a witness.
    """
    layout = cnf_layout(A, k)
    n, members = layout.n, A.int_members()
    clauses: list[str] = []

    def one_hot(var_ids: list[int]) -> None:
        clauses.append(" ".join(map(str, var_ids)) + " 0")
        clauses.extend(f"-{x} -{y} 0" for x, y in combinations(var_ids, 2))

    def t_dom(j: int) -> tuple[int, ...]:
        return layout.t1_domain if j == 1 else layout.t_domain

    for i in range(1, k + 1):
        one_hot([layout.s_var(i, a) for a in range(len(layout.s_domain))])
    for j in range(1, k + 1):
        one_hot([layout.t_var(j, b) for b in range(len(t_dom(j)))])

    # hits[dom][a][b]: whether s_domain[a] + dom[b] lies in A
    hits = {
        dom: [[(sval ^ tval) in members for tval in dom] for sval in layout.s_domain]
        for dom in (layout.t1_domain, layout.t_domain)
    }
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            want_in, t_base = i <= j, layout.t_var(j, 0)
            for a, row in enumerate(hits[t_dom(j)]):
                s_lit = -layout.s_var(i, a)
                clauses.extend(
                    f"{s_lit} -{t_base + b} 0" for b, hit in enumerate(row) if hit != want_in
                )

    def fmt(bits: int) -> str:
        return lex_key(bits, n)

    lines = [
        "c stabset order-property encoding",
        f"c group f2 n={n}  set-size={len(members)}  k={k}",
        "c variables, in blocks: s_1..s_k over sdom, t_1 over t1dom, t_2..t_k over tdom",
        "c var(s_i = sdom[a]) = (i-1)*|sdom| + a + 1",
        "c var(t_1 = t1dom[b]) = k*|sdom| + b + 1",
        "c var(t_j = tdom[b]) = k*|sdom| + |t1dom| + (j-2)*|tdom| + b + 1   (j >= 2)",
        "c variable count = k*|sdom| + |t1dom| + (k-1)*|tdom|",
        "c sdom " + " ".join(fmt(v) for v in layout.s_domain),
        "c t1dom " + " ".join(fmt(v) for v in layout.t1_domain),
        "c tdom " + " ".join(fmt(v) for v in layout.t_domain),
        f"p cnf {layout.var_count} {len(clauses)}",
        *clauses,
    ]
    return "\n".join(lines) + "\n"


def decode_cnf_model(A: FiniteSet, k: int, true_vars: Iterable[int]) -> Witness:
    """Rebuild the witness selected by a satisfying assignment."""
    layout = cnf_layout(A, k)
    n = layout.n
    true_set = set(true_vars)
    s_vals: list[Optional[int]] = [None] * k
    t_vals: list[Optional[int]] = [None] * k
    for i in range(1, k + 1):
        for a, val in enumerate(layout.s_domain):
            if layout.s_var(i, a) in true_set:
                if s_vals[i - 1] is not None:
                    raise ValueError(f"model selects two values for s_{i}")
                s_vals[i - 1] = val
    for j in range(1, k + 1):
        dom = layout.t1_domain if j == 1 else layout.t_domain
        for b, val in enumerate(dom):
            if layout.t_var(j, b) in true_set:
                if t_vals[j - 1] is not None:
                    raise ValueError(f"model selects two values for t_{j}")
                t_vals[j - 1] = val
    if any(v is None for v in s_vals) or any(v is None for v in t_vals):
        raise ValueError("model leaves a role unassigned")
    return Witness.from_bits(n, s_vals, t_vals)
