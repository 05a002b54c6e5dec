import hashlib
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabset import polymethod
from stabset.constructions import dyadic_construction, pad_to_size
from stabset.gf2 import BitVector, nullspace_rows
from stabset.modelling import compress
from stabset.orderprop import FiniteSet, Witness, ambient_f2
from stabset.polymethod import (
    Poly2,
    binary_entropy,
    choose_certificate_p,
    entropy_tail_check,
    max_support_polynomial,
    monomial_basis,
    monomial_space_dim,
    rank_certificate,
    stability_upper_bound,
    stability_constants,
    vanishing_space,
)


def bv(text: str) -> BitVector:
    return BitVector.from_string(text)


def pin_sets() -> list[FiniteSet]:
    """For each n <= 7: the empty set, the whole cube and three seeded random sets."""
    rng = random.Random(22)
    out = []
    for n in range(8):
        size = 1 << n
        out.append(FiniteSet.from_bits(n, []))
        out.append(FiniteSet.from_bits(n, range(size)))
        for _ in range(3):
            out.append(FiniteSet.from_bits(n, rng.sample(range(size), rng.randint(1, size))))
    return out


def reference_vanishing(A: FiniteSet, d: int) -> list[int]:
    """Coefficient vectors of the kernel of the evaluation matrix: one row per
    point off A, one column per monomial of degree <= d."""
    n = A.ambient.n
    basis = monomial_basis(n, d)
    members = A.int_members()
    rows = [
        sum(1 << j for j, m in enumerate(basis.monomials) if m & x == m)
        for x in range(1 << n)
        if x not in members
    ]
    return nullspace_rows(rows, basis.dim)


def dyadic2_certificate_row(trim: int = 0, pad_n: int = 0) -> str:
    """CSV row of the certificate for dyadic l=2, compressed at `trim` or
    padded to F2^pad_n, with the CLI's default p."""
    inst = dyadic_construction(2)
    if trim:
        res = compress(inst.A, inst.witness, trim)
        A, w = res.A_prime, res.witness_prime
    else:
        padded = pad_to_size(inst, inst.A.N + pad_n - inst.A.ambient.n)
        A, w = padded.A, padded.witness
    n = A.ambient.n
    return rank_certificate(A, w, choose_certificate_p(n, (1 << n) - A.N)).csv_row()


class TestMonomialSpace:
    def test_small_value(self):
        assert monomial_space_dim(4, 2) == 11

    def test_full_degree_is_whole_cube(self):
        for n in range(0, 8):
            assert monomial_space_dim(n, n) == 1 << n

    def test_constants_only(self):
        assert monomial_space_dim(9, 0) == 1

    def test_tail_symmetry(self):
        for n in range(1, 21):
            for d in range(n + 1):
                low = sum(math.comb(n, r) for r in range(d + 1))
                high = sum(math.comb(n, r) for r in range(n - d, n + 1))
                assert low == high == monomial_space_dim(n, d)

    def test_basis_order_degree_then_lex(self):
        basis = monomial_basis(3, 2)
        supports = [tuple(BitVector(3, m).support()) for m in basis.monomials]
        assert supports == [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]

    def test_basis_order_matches_support_tuple_reference(self):
        for n in range(7):

            def support(m: int) -> tuple[int, ...]:
                return tuple(i + 1 for i in range(n) if (m >> i) & 1)

            for d in range(n + 1):
                expected = sorted(
                    (m for m in range(1 << n) if m.bit_count() <= d),
                    key=lambda m: (m.bit_count(), support(m)),
                )
                assert list(monomial_basis(n, d).monomials) == expected

    def test_range_errors(self):
        with pytest.raises(ValueError):
            monomial_space_dim(3, 4)
        with pytest.raises(ValueError):
            monomial_space_dim(3, -1)


class TestEntropy:
    def test_endpoints(self):
        assert binary_entropy(0) == 0.0
        assert binary_entropy(1) == 0.0

    def test_midpoint(self):
        assert binary_entropy(0.5) == 1.0

    def test_two_thirds(self):
        assert binary_entropy(Fraction(2, 3)) == pytest.approx(
            math.log2(3) - 2 / 3, abs=1e-12
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(1.5)

    def test_decreasing_on_upper_half(self):
        grid = [0.5 + i / 200 for i in range(101)]
        values = [binary_entropy(p) for p in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestEntropyTailCheck:
    def test_example_n4(self):
        check = entropy_tail_check(4, Fraction(3, 4))
        assert check.lhs == 5
        assert check.rhs == pytest.approx(9.4815, abs=1e-3)
        assert check.holds

    def test_equality_at_p_one(self):
        check = entropy_tail_check(2, 1)
        assert check.lhs == 1 and check.rhs == 1.0 and check.holds

    def test_sweep_all_small_n(self):
        for n in range(1, 31):
            for r in range(n // 2 + 1, n + 1):
                assert entropy_tail_check(n, Fraction(r, n)).holds

    def test_rejects_half(self):
        with pytest.raises(ValueError):
            entropy_tail_check(4, Fraction(1, 2))

    def test_rejects_non_integral(self):
        with pytest.raises(ValueError):
            entropy_tail_check(4, 0.7)


class TestPoly2:
    def test_value_table_matches_evaluate(self):
        rng = random.Random(8)
        for n in range(9):
            points = [BitVector(n, x) for x in range(1 << n)]
            for d in range(n + 1):
                basis = monomial_basis(n, d)
                for coeffs in (0, (1 << basis.dim) - 1, rng.getrandbits(basis.dim)):
                    poly = Poly2(basis, coeffs)
                    table = poly.value_table()
                    assert [(table >> x.bits) & 1 for x in points] == [poly.evaluate(x) for x in points]
                    assert poly.support() == {x for x in points if poly.evaluate(x)}


class TestVanishingSpace:
    def test_matches_monomial_side_reference(self):
        for A in pin_sets():
            for d in range(A.ambient.n + 1):
                space = vanishing_space(A, d)
                assert all(poly.basis == monomial_basis(A.ambient.n, d) for poly in space)
                assert [poly.coeffs for poly in space] == reference_vanishing(A, d)

    def test_whole_cube_gives_everything(self):
        A = FiniteSet.f2(3, [BitVector(3, b) for b in range(8)])
        space = vanishing_space(A, 2)
        assert len(space) == monomial_space_dim(3, 2)

    def test_empty_set_gives_zero_space(self):
        A = FiniteSet.f2(3, [])
        assert vanishing_space(A, 3) == []

    def test_halfspace_dimension(self):
        # A = {x : x_1 = 1}; only multiples of x_1 vanish on the complement
        A = FiniteSet.f2(3, [BitVector(3, b) for b in range(8) if b & 1])
        space = vanishing_space(A, 1)
        assert len(space) == 1
        # brute-force oracle over all degree-<=1 coefficient vectors
        basis = monomial_basis(3, 1)
        count = sum(
            1
            for c in range(1 << basis.dim)
            if all(
                Poly2(basis, c).evaluate(BitVector(3, b)) == 0
                for b in range(8)
                if not (b & 1)
            )
        )
        assert count == 1 << len(space)

    def test_dimension_lower_bound(self):
        rng = random.Random(5)
        for n in (4, 5, 6):
            universe = [BitVector(n, b) for b in range(1 << n)]
            A = FiniteSet.f2(n, rng.sample(universe, (1 << n) // 2))
            for d in (n // 2, 2 * n // 3):
                space = vanishing_space(A, d)
                assert len(space) >= monomial_space_dim(n, d) - ((1 << n) - A.N)

    def test_members_vanish_off_a(self):
        A = FiniteSet.f2(4, [BitVector(4, b) for b in (0, 3, 5, 9, 14)])
        for poly in vanishing_space(A, 3):
            for b in range(16):
                x = BitVector(4, b)
                if x not in A.elements:
                    assert poly.evaluate(x) == 0

    def test_dimension_meets_bound_iff_full_row_rank(self):
        from stabset.gf2 import rank_rows

        rng = random.Random(21)
        for _ in range(8):
            n = rng.choice([3, 4, 5])
            universe = [BitVector(n, b) for b in range(1 << n)]
            A = FiniteSet.f2(n, rng.sample(universe, rng.randint(1, (1 << n) - 1)))
            d = rng.randint(0, n)
            basis = monomial_basis(n, d)
            members = {x.bits for x in A.elements}
            rows = []
            for point in range(1 << n):
                if point in members:
                    continue
                rows.append(
                    sum(1 << j for j, m in enumerate(basis.monomials) if m & point == m)
                )
            rank = rank_rows(rows, basis.dim)
            space = vanishing_space(A, d)
            assert len(space) == basis.dim - rank
            meets_bound = len(space) == basis.dim - len(rows)
            assert meets_bound == (rank == len(rows))


class TestMaxSupportPolynomial:
    def test_constant_span(self):
        basis = monomial_basis(3, 0)
        poly, support = max_support_polynomial([Poly2(basis, 1)])
        assert len(support) == 8

    def test_full_space_reaches_everything(self):
        A = FiniteSet.f2(3, [BitVector(3, b) for b in range(8)])
        space = vanishing_space(A, 3)
        poly, support = max_support_polynomial(space)
        assert len(support) == 8

    def test_trivial_space_rejected(self):
        with pytest.raises(ValueError):
            max_support_polynomial([])

    @given(st.integers(min_value=2, max_value=6), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_support_at_least_dimension(self, n, rng):
        universe = [BitVector(n, b) for b in range(1 << n)]
        size = rng.randint(1, (1 << n) - 1)
        A = FiniteSet.f2(n, rng.sample(universe, size))
        d = rng.randint(0, n)
        space = vanishing_space(A, d)
        if not space:
            return
        poly, support = max_support_polynomial(space)
        assert len(support) >= len(space)
        # still vanishes off A
        for x in universe:
            if x not in A.elements:
                assert poly.evaluate(x) == 0

    def test_pinned_on_seeded_sets(self):
        # (n, d, A, coefficients, support) for every nonzero space of the pin sets
        lines = []
        for A in pin_sets():
            n = A.ambient.n
            for d in range(n + 1):
                space = vanishing_space(A, d)
                if not space:
                    continue
                poly, support = max_support_polynomial(space)
                assert support == poly.support()
                members = sorted(A.int_members())
                lines.append(f"{n} {d} {members} {poly.coeffs:x} {sorted(x.bits for x in support)}")
        assert len(lines) == 101
        digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
        assert digest == "3a0cd6b0f667a142a67e7e83830e15270d4ed0f4ecd0e726f895b20c9d966387"


# dyadic l=2 compressed at trim l -> certificate CSV row
CERTIFICATE_TRIM_PINS = {
    2: "10,8,9/10,138,142,18,19,772,21",
    4: "9,6,7/9,53,68,6,8,260,17",
    6: "8,6,7/8,56,58,11,11,186,13",
}


@pytest.mark.parametrize("trim", sorted(CERTIFICATE_TRIM_PINS))
def test_compressed_dyadic2_certificate_pinned(trim):
    assert dyadic2_certificate_row(trim=trim) == CERTIFICATE_TRIM_PINS[trim]


# dyadic l=2 padded to F2^n -> certificate CSV row (n=12 is the benchmark's pin)
CERTIFICATE_PAD_PINS = {
    11: "11,8,9/11,117,132,16,20,1124,24",
    12: "12,10,11/12,157,168,24,24,3172,24",
    14: "14,12,13/14,157,168,24,24,12952,24",
}


@pytest.mark.parametrize("n", sorted(CERTIFICATE_PAD_PINS))
def test_padded_dyadic2_certificate_pinned(n):
    assert dyadic2_certificate_row(pad_n=n) == CERTIFICATE_PAD_PINS[n]


class TestRankCertificate:
    def test_order_one(self):
        A = FiniteSet.f2(2, [bv("00"), bv("01")])
        w = Witness(ambient_f2(2), (bv("00"),), (bv("00"),))
        cert = rank_certificate(A, w, 1)
        assert cert.rank == 1 and cert.diagonal_hits == 1
        assert cert.d == 1 and cert.rank_upper == 2 * monomial_space_dim(2, 0)

    def test_compressed_dyadic1(self):
        inst = dyadic_construction(1)
        res = compress(inst.A, inst.witness, 1)
        p = choose_certificate_p(res.n, (1 << res.n) - res.A_prime.N)
        cert = rank_certificate(res.A_prime, res.witness_prime, p)
        assert cert.diagonal_hits <= cert.rank <= cert.rank_upper
        assert cert.k == 3

    def test_compressed_dyadic2(self):
        inst = dyadic_construction(2)
        res = compress(inst.A, inst.witness, 6)
        p = choose_certificate_p(res.n, (1 << res.n) - res.A_prime.N)
        cert = rank_certificate(res.A_prime, res.witness_prime, p)
        assert cert.diagonal_hits <= cert.rank <= cert.rank_upper
        assert cert.k == 13

    def test_invalid_witness_rejected(self):
        A = FiniteSet.f2(2, [bv("00")])
        w = Witness(ambient_f2(2), (bv("01"),), (bv("00"),))
        with pytest.raises(ValueError):
            rank_certificate(A, w, 1)

    def test_p_out_of_range(self):
        A = FiniteSet.f2(2, [bv("00")])
        w = Witness(ambient_f2(2), (bv("00"),), (bv("00"),))
        with pytest.raises(ValueError):
            rank_certificate(A, w, Fraction(1, 2))

    def test_csv_row_shape(self):
        A = FiniteSet.f2(2, [bv("00"), bv("01")])
        w = Witness(ambient_f2(2), (bv("00"),), (bv("00"),))
        cert = rank_certificate(A, w, 1)
        row = cert.csv_row()
        assert len(row.split(",")) == len(cert.CSV_HEADER.split(","))

    def test_polynomial_not_vanishing_off_a_raises(self, monkeypatch):
        A = FiniteSet.f2(2, [bv("00"), bv("01")])
        w = Witness(ambient_f2(2), (bv("00"),), (bv("00"),))
        one = Poly2(monomial_basis(2, 0), 1)  # nonzero at 10 and 11, off A
        monkeypatch.setattr(polymethod, "max_support_polynomial", lambda space: (one, one.support()))
        with pytest.raises(AssertionError, match="does not vanish off A"):
            rank_certificate(A, w, 1)

    def test_matrix_nonzero_below_diagonal_raises(self, monkeypatch):
        # s_2 + t_1 = 01 lies in A, so the witness breaks cell (2, 1); with
        # verification bypassed, the maximal polynomial 1 + x_1 is nonzero there
        A = FiniteSet.f2(2, [bv("00"), bv("01")])
        w = Witness(ambient_f2(2), (bv("00"), bv("01")), (bv("00"), bv("10")))
        monkeypatch.setattr(polymethod, "verify_witness", lambda A, w: SimpleNamespace(valid=True))
        with pytest.raises(AssertionError, match="below the diagonal"):
            rank_certificate(A, w, 1)

    def test_diagonal_majority_when_degree_covers(self):
        # with d = n - 1 the uncovered tail is a single monomial, so the
        # support misses at most one point of A and most of the diagonal hits
        from stabset.orderprop import max_order_exact

        A = FiniteSet.f2(2, [bv("00"), bv("01"), bv("11")])
        report = max_order_exact(A)
        assert report.kmax == 2
        cert = rank_certificate(A, report.witness, 1)
        assert 2 * ((1 << 2) - monomial_space_dim(2, cert.d)) <= cert.k
        assert 2 * cert.diagonal_hits >= cert.k


class TestStabilityBound:
    def test_exponent_approaches_entropy_limit(self):
        h23 = binary_entropy(Fraction(2, 3))
        gaps = []
        for n in (30, 60, 120, 240):
            bound, _ = stability_upper_bound(n)
            gaps.append(math.log2(bound) / n - h23)
        assert all(g > 0 for g in gaps)
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 0.01

    def test_exponent_overhead_bounded(self):
        h23 = binary_entropy(Fraction(2, 3))
        for n in range(3, 121):
            bound, _ = stability_upper_bound(n)
            assert math.log2(bound) <= h23 * n + 2.4

    def test_minimizer_near_two_thirds(self):
        for n in range(9, 121):
            _, p_star = stability_upper_bound(n)
            assert abs(p_star - Fraction(2, 3)) <= Fraction(2, n)

    def test_small_n_guard(self):
        with pytest.raises(ValueError):
            stability_upper_bound(2)


class TestStabilityConstants:
    def test_values(self):
        c0, c = stability_constants()
        assert c0 == pytest.approx(0.0817, abs=1e-4)
        assert c == pytest.approx(0.00590, abs=1e-4)

    def test_below_half(self):
        _, c = stability_constants()
        assert c < 0.5
