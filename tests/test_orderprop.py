import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpll
from stabset.constructions import dyadic_construction
from stabset.gf2 import BitVector
from stabset.orderprop import (
    AMBIENT_Z,
    LADDER_MAX_DIM,
    FiniteSet,
    Witness,
    ambient_f2,
    canonical_enumeration,
    cnf_clause_count,
    cnf_layout,
    decode_cnf_model,
    export_cnf,
    ladder_cap,
    max_order_bruteforce,
    max_order_exact,
    staircase_check,
    verify_witness,
)


def bv(text: str) -> BitVector:
    return BitVector.from_string(text)


def f2set(n: int, *strings: str) -> FiniteSet:
    return FiniteSet.f2(n, [bv(s) for s in strings])


def f2wit(n: int, s: list[str], t: list[str]) -> Witness:
    return Witness(ambient_f2(n), tuple(bv(x) for x in s), tuple(bv(x) for x in t))


AP_SET = FiniteSet.z([0, 1, 2])
AP_WITNESS = Witness(AMBIENT_Z, (-1, -2, -3), (1, 2, 3))


def strings(xs) -> list[str]:
    return [x.to_string() for x in xs]


def bad_cells(A: FiniteSet, w: Witness) -> list[tuple[int, int]]:
    """Every cell (1-based) that breaks the definition, by a plain int scan."""
    members = {x.bits for x in A.elements}
    return [
        (i, j)
        for i, si in enumerate(w.s, start=1)
        for j, tj in enumerate(w.t, start=1)
        if ((si.bits ^ tj.bits) in members) != (i <= j)
    ]


def unit_witness(k: int) -> tuple[FiniteSet, Witness]:
    """s_i = e_i and t_j = e_(k+j) in F2^(2k), with A the upper cells.

    Every cell s_i + t_j is a distinct vector, so an edit of A breaks exactly
    the cell it touches.
    """
    n = 2 * k
    s = tuple(BitVector.unit(n, i) for i in range(1, k + 1))
    t = tuple(BitVector.unit(n, k + j) for j in range(1, k + 1))
    A = FiniteSet.f2(n, [s[i] + t[j] for i in range(k) for j in range(i, k)])
    return A, Witness(ambient_f2(n), s, t)


def small_f2_sets(n_max: int = 4, size_max: int = 5):
    return st.integers(min_value=1, max_value=n_max).flatmap(
        lambda n: st.frozensets(
            st.integers(min_value=0, max_value=(1 << n) - 1).map(
                lambda b: BitVector(n, b)
            ),
            min_size=0,
            max_size=size_max,
        ).map(lambda els: FiniteSet.f2(n, els))
    )


class TestVerifyWitness:
    def test_arithmetic_progression_witness(self):
        assert verify_witness(AP_SET, AP_WITNESS).valid

    def test_first_violation_row_major(self):
        verdict = verify_witness(f2set(2, "00"), f2wit(2, ["00", "01"], ["00", "01"]))
        assert not verdict.valid
        assert verdict.reason == "expected-in-A"
        assert verdict.where == (1, 2)

    def test_single_diagonal_cell(self):
        a = bv("10")
        A = FiniteSet.f2(2, [a])
        w = Witness(ambient_f2(2), (bv("00"),), (a,))
        assert verify_witness(A, w).valid

    def test_empty_witness_vacuous(self):
        assert verify_witness(f2set(2, "00"), f2wit(2, [], [])).valid

    def test_duplicate_entries_reported(self):
        verdict = verify_witness(f2set(2, "00"), f2wit(2, ["00", "00"], ["00", "01"]))
        assert not verdict.valid and verdict.reason == "duplicate-s"
        assert verdict.where == (1, 2)

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            verify_witness(AP_SET, f2wit(2, ["00"], ["00"]))

    def test_fails_only_at_one_diagonal_cell(self):
        A, w = unit_witness(5)
        for m in (1, 3, 5):
            B = FiniteSet(A.ambient, A.elements - {w.s[m - 1] + w.t[m - 1]})
            assert bad_cells(B, w) == [(m, m)]
            verdict = verify_witness(B, w)
            assert (verdict.valid, verdict.reason, verdict.where) == (False, "expected-in-A", (m, m))

    def test_dyadic_fails_only_at_one_diagonal_cell(self):
        inst = dyadic_construction(2)
        w = inst.witness
        for m in (1, 13, 24):
            B = FiniteSet(inst.A.ambient, inst.A.elements - {w.s[m - 1] + w.t[m - 1]})
            assert bad_cells(B, w) == [(m, m)]
            verdict = verify_witness(B, w)
            assert (verdict.reason, verdict.where) == ("expected-in-A", (m, m))

    def test_fails_only_at_last_row_first_column(self):
        k = 5
        A, w = unit_witness(k)
        B = FiniteSet(A.ambient, A.elements | {w.s[k - 1] + w.t[0]})
        assert bad_cells(B, w) == [(k, 1)]
        verdict = verify_witness(B, w)
        assert (verdict.valid, verdict.reason, verdict.where) == (False, "expected-not-in-A", (k, 1))

    def test_integer_witness_fails_only_at_last_row_first_column(self):
        # s_i + t_j = j - i, so only cell (3, 1) sums to -2
        A = FiniteSet.z([0, 1, 2, -2])
        verdict = verify_witness(A, AP_WITNESS)
        assert (verdict.reason, verdict.where) == ("expected-not-in-A", (3, 1))

    def test_not_in_a_violation(self):
        # valid diagonal, but s_2 + t_1 falls into A
        A = f2set(2, "00", "01", "10")
        verdict = verify_witness(A, f2wit(2, ["00", "01"], ["00", "01"]))
        assert not verdict.valid and verdict.reason == "expected-not-in-A"
        assert verdict.where == (2, 1)


class TestCanonicalEnumeration:
    def test_recovers_ap_order(self):
        got = canonical_enumeration(AP_SET, [-3, -1, -2], [2, 3, 1])
        assert got is not None
        assert got.s == (-1, -2, -3) and got.t == (1, 2, 3)

    def test_shuffled_witness_recovers_original(self):
        A = f2set(2, "00", "01", "11")
        w = f2wit(2, ["00", "10"], ["00", "11"])
        assert verify_witness(A, w).valid
        got = canonical_enumeration(A, list(reversed(w.s)), list(reversed(w.t)))
        assert got is not None and got.s == w.s and got.t == w.t

    def test_degenerate_sets_fail(self):
        A = f2set(2, "00")
        S = [bv("00"), bv("01")]
        T = [bv("00"), bv("01")]
        assert canonical_enumeration(A, S, T) is None
        # oracle: no ordering of S and T verifies
        for s_perm in itertools.permutations(S):
            for t_perm in itertools.permutations(T):
                w = Witness(ambient_f2(2), s_perm, t_perm)
                assert not verify_witness(A, w).valid

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            canonical_enumeration(AP_SET, [1, 2], [1])


class TestMaxOrderExact:
    def test_empty_set(self):
        report = max_order_exact(FiniteSet.f2(2, []))
        assert report.kmax == 0 and report.status == "exact"

    def test_full_group_is_one(self):
        A = f2set(2, "00", "01", "10", "11")
        report = max_order_exact(A)
        assert report.kmax == 1

    def test_three_element_example(self):
        A = f2set(2, "00", "01", "11")
        report = max_order_exact(A)
        assert report.kmax == 2
        assert verify_witness(A, report.witness).valid
        assert report.kmax == max_order_bruteforce(A)

    def test_singleton(self):
        report = max_order_exact(f2set(2, "00"))
        assert report.kmax == 1
        assert verify_witness(f2set(2, "00"), report.witness).valid

    def test_rejects_z_ambient(self):
        with pytest.raises(ValueError):
            max_order_exact(AP_SET)

    def test_deterministic_witness(self):
        A = f2set(3, "000", "001", "011", "111")
        r1 = max_order_exact(A)
        r2 = max_order_exact(A)
        assert r1.kmax == r2.kmax and r1.witness == r2.witness

    def test_time_limit_reports_lower_bound(self):
        A = FiniteSet.f2(4, [BitVector(4, b) for b in range(12)])
        report = max_order_exact(A, time_limit=0.0)
        assert report.status == "lower-bound-only"
        assert verify_witness(A, report.witness).valid

    def test_time_limit_not_reached_is_exact(self):
        # a generous limit must not cut a short solve; time_limit=0.0 alone
        # cannot tell a correct elapsed time from one that is far too large
        report = max_order_exact(dyadic_construction(1).A, time_limit=60)
        assert (report.kmax, report.status) == (4, "exact")

    def test_pinned_dyadic_l1(self):
        report = max_order_exact(dyadic_construction(1).A)
        assert (report.kmax, report.status, report.nodes_explored) == (4, "exact", 394)
        assert strings(report.witness.s) == ["0000", "0010", "0101", "0110"]
        assert strings(report.witness.t) == ["0000", "0011", "0001", "1001"]

    def test_ladder_bound_off_above_max_dim(self):
        # dyadic l=1 lifted into F2^n keeps its sums and its search order, so
        # the ladder bound prunes the same nodes at every n up to LADDER_MAX_DIM
        bits = dyadic_construction(1).A.int_members()
        for n, nodes in ((9, 394), (LADDER_MAX_DIM, 394), (LADDER_MAX_DIM + 1, 1257)):
            report = max_order_exact(FiniteSet.from_bits(n, bits))
            assert (report.kmax, report.status, report.nodes_explored) == (4, "exact", nodes)

    def test_pinned_dyadic_l2_budgets(self):
        A = dyadic_construction(2).A
        report = max_order_exact(A, node_limit=20000)
        assert (report.kmax, report.status, report.nodes_explored) == (10, "lower-bound-only", 20000)
        assert strings(report.witness.s) == [
            "0000000000", "0000000011", "0000001011", "0010000100", "0110010111",
            "0010101111", "0110101111", "0110001011", "0001101111", "0010101011",
        ]
        assert strings(report.witness.t) == [
            "0000000000", "0000000001", "0000000010", "0000000110", "0100000110",
            "0000100110", "0010000010", "1010000010", "1000100110", "1010100110",
        ]
        report = max_order_exact(A, node_limit=1)
        assert (report.kmax, report.status, report.nodes_explored) == (1, "lower-bound-only", 1)
        assert strings(report.witness.s) == strings(report.witness.t) == ["0000000000"]

    def test_pinned_random_corpus(self):
        # kmax, status and witness of 8 seeded 12-subsets of F2^5, hashed so
        # the pin stays one line; the node total is pinned on its own, so a
        # change to the prunes shows which of the two moved
        rng = random.Random(5)
        lines, nodes = [], 0
        for _ in range(8):
            report = max_order_exact(FiniteSet.from_bits(5, rng.sample(range(32), 12)))
            w = report.witness
            lines.append(f"{report.kmax} {report.status} {' '.join(strings(w.s))} {' '.join(strings(w.t))}")
            nodes += report.nodes_explored
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "754f5b0389b750571158cb2ba4455ae925370174777b108be9fbdc89c8d83234"
        assert nodes == 46_441

    def test_pinned_dimension_zero(self):
        report = max_order_exact(FiniteSet.f2(0, [BitVector(0, 0)]))
        assert (report.kmax, report.status, report.nodes_explored) == (1, "exact", 1)
        assert strings(report.witness.s) == strings(report.witness.t) == [""]


class TestLadderCap:
    def test_matches_definition(self):
        # every non-increasing degree sequence of length <= 6 with entries <= 6,
        # given in either order, against the definition read literally
        for length in range(7):
            for degrees in itertools.combinations_with_replacement(range(6, -1, -1), length):
                fits = [
                    m for m in range(length + 1)
                    if all(degrees[i - 1] >= m + 1 - i for i in range(1, m + 1))
                ]
                assert ladder_cap(degrees) == ladder_cap(reversed(degrees)) == max(fits), degrees
                # the counts of degrees >= 1, ..., >= v, as the solver's s side reads them
                for v in range(8):
                    counts = [sum(d >= w for d in degrees) for w in range(1, v + 1)]
                    assert ladder_cap(counts) == min(max(fits), v), (degrees, v)


class TestBruteforceOracle:
    def test_singleton(self):
        assert max_order_bruteforce(f2set(2, "00")) == 1

    def test_small_subspace(self):
        assert max_order_bruteforce(f2set(2, "00", "01")) == 1

    def test_guard(self):
        with pytest.raises(ValueError):
            max_order_bruteforce(FiniteSet.f2(6, [BitVector(6, 0)]))
        with pytest.raises(ValueError):
            max_order_bruteforce(FiniteSet.f2(4, [BitVector(4, b) for b in range(9)]))

    @given(small_f2_sets())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_exact_solver(self, A):
        report = max_order_exact(A)
        assert report.kmax == max_order_bruteforce(A)
        assert report.status == "exact"
        if report.kmax:
            assert verify_witness(A, report.witness).valid


class TestInvariants:
    @given(small_f2_sets())
    @settings(max_examples=40, deadline=None)
    def test_order_capped_by_cardinality(self, A):
        assert max_order_exact(A).kmax <= A.N

    @given(small_f2_sets(n_max=3, size_max=5), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_valid_witness_structure(self, A, rng):
        report = max_order_exact(A)
        w = report.witness
        k = w.k
        if k == 0:
            return
        assert staircase_check(w).valid
        diag = {w.s[i] + w.t[i] for i in range(k)}
        assert len(diag) == k
        # translation invariance
        g = BitVector(A.ambient.n, rng.randrange(1 << A.ambient.n))
        assert verify_witness(A, w.translate(g)).valid

    @given(small_f2_sets(n_max=3, size_max=5))
    @settings(max_examples=30, deadline=None)
    def test_nontrivial_permutations_fail(self, A):
        w = max_order_exact(A).witness
        k = w.k
        if k < 2 or k > 4:
            return
        idx = list(range(k))
        for sigma in itertools.permutations(idx):
            if list(sigma) != idx:
                assert not verify_witness(A, w.permute(sigma, idx)).valid
        for tau in itertools.permutations(idx):
            if list(tau) != idx:
                assert not verify_witness(A, w.permute(idx, tau)).valid


class TestStaircase:
    def test_valid_witness_passes(self):
        A = f2set(2, "00", "01", "11")
        w = max_order_exact(A).witness
        assert staircase_check(w).valid

    def test_equal_diagonal_rejected(self):
        # M_11 = M_22 = 00 while rows and columns stay distinct
        w = f2wit(2, ["00", "01"], ["00", "01"])
        verdict = staircase_check(w)
        assert not verdict.valid and verdict.reason == "staircase-collision"
        assert verdict.where == (2, 2)

    def test_z_ambient_rejected(self):
        with pytest.raises(ValueError):
            staircase_check(AP_WITNESS)

    def test_duplicate_row_value_rejected(self):
        w = f2wit(2, ["00", "01"], ["10", "10"])
        assert staircase_check(w).reason == "row-collision"

    def test_pinned_collision_locations(self):
        w = dyadic_construction(2).witness

        def edit(role: str, index: int, value: BitVector) -> Witness:
            seq = list(getattr(w, role))
            seq[index - 1] = value
            s, t = (tuple(seq), w.t) if role == "s" else (w.s, tuple(seq))
            return Witness(w.ambient, s, t)

        cases = [
            (edit("t", 9, w.t[4]), "row-collision", (1, 9)),
            (edit("s", 11, w.s[5]), "column-collision", (11, 1)),
            # cell (5, 7) now equals the upper cell (2, 3)
            (edit("t", 7, w.s[4] + w.s[1] + w.t[2]), "staircase-collision", (5, 7)),
            (edit("t", 17, w.s[12] + w.s[3] + w.t[8]), "staircase-collision", (13, 17)),
        ]
        for corrupted, reason, where in cases:
            verdict = staircase_check(corrupted)
            assert (verdict.valid, verdict.reason, verdict.where) == (False, reason, where)


class TestCnfExport:
    def test_singleton_k1_unique_model(self):
        A = f2set(2, "00")
        text = export_cnf(A, 1)
        nvars, clauses = dpll.parse_dimacs(text)
        layout = cnf_layout(A, 1)
        assert nvars == layout.var_count
        models = list(
            dpll.all_models(nvars, clauses, set(range(1, nvars + 1)), cap=10)
        )
        assert len(models) == 1
        w = decode_cnf_model(A, 1, models[0])
        assert w.s == (bv("00"),) and w.t == (bv("00"),)

    def test_singleton_k2_unsat(self):
        assert not dpll.satisfiable(export_cnf(f2set(2, "00"), 2))

    def test_variable_count_formula(self):
        A = f2set(3, "000", "001", "011")
        for k in (1, 2, 3):
            layout = cnf_layout(A, k)
            expected = (
                k * len(layout.s_domain)
                + len(layout.t1_domain)
                + (k - 1) * len(layout.t_domain)
            )
            assert layout.var_count == expected
            nvars, _ = dpll.parse_dimacs(export_cnf(A, k))
            assert nvars == expected

    def test_clause_count_matches_header(self):
        rng = random.Random(6)
        sets = [FiniteSet.f2(2, []), f2set(1, "0", "1")]
        for _ in range(12):
            n = rng.randint(1, 6)
            sets.append(FiniteSet.from_bits(n, rng.sample(range(1 << n), rng.randint(1, 1 << n))))
        for A in sets:
            for k in (1, 2, 4):
                text = export_cnf(A, k)
                header = text[text.index("\np cnf ") + 1 :].split("\n", 1)[0].split()
                assert cnf_clause_count(A, k) == int(header[3])

    def test_empty_set_unsat(self):
        text = export_cnf(FiniteSet.f2(2, []), 1)
        assert not dpll.satisfiable(text)

    @given(small_f2_sets(n_max=3, size_max=4))
    @settings(max_examples=20, deadline=None)
    def test_satisfiability_matches_solver(self, A):
        kmax = max_order_exact(A).kmax
        for k in (1, 2, kmax if kmax else 1, kmax + 1):
            text = export_cnf(A, k)
            sat = dpll.satisfiable(text)
            assert sat == (kmax >= k)

    def test_models_decode_to_valid_witnesses(self):
        A = f2set(2, "00", "01", "11")
        text = export_cnf(A, 2)
        nvars, clauses = dpll.parse_dimacs(text)
        count = 0
        for model in dpll.all_models(nvars, clauses, set(range(1, nvars + 1)), cap=50):
            w = decode_cnf_model(A, 2, model)
            assert verify_witness(A, w).valid
            count += 1
        assert count >= 1
