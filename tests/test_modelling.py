import hashlib
import random
from fractions import Fraction

import pytest

from stabset.constructions import dyadic_construction
from stabset.fileformats import serialize_set, serialize_witness
from stabset.gf2 import BitVector, Subspace2, sumset
from stabset.modelling import (
    WitnessPartition,
    compress,
    minimal_model,
    partition_witness,
    petridis_minimizer,
    ruzsa_check,
)
from stabset.orderprop import FiniteSet, ambient_f2, max_order_exact, verify_witness


def bv(text: str) -> BitVector:
    return BitVector.from_string(text)


def make_partition(n, mids, l=1, k=4, size_ratio=Fraction(1)):
    mids = frozenset(mids)
    some = next(iter(mids))
    return WitnessPartition(
        ambient_f2(n), frozenset([some]), mids, frozenset([some]), mids,
        l, k, Fraction(l, k), size_ratio,
    )


class TestPartitionWitness:
    def test_dyadic1_band_sizes(self):
        inst = dyadic_construction(1)
        p = partition_witness(inst.A, inst.witness, 1)
        assert len(p.s_head) == 1
        assert p.s_mid == frozenset(inst.witness.s[0:3])
        assert p.t_tail == frozenset(inst.witness.t[2:4])
        assert p.t_mid == frozenset(inst.witness.t[0:3])

    def test_band_sums_inside_set(self):
        inst = dyadic_construction(2)
        for l in (1, 3, 6):
            p = partition_witness(inst.A, inst.witness, l)
            for left, right in ((p.s_head, p.t_mid), (p.s_head, p.t_tail), (p.s_mid, p.t_tail)):
                assert sumset(left, right) <= inst.A.elements

    def test_trim_parameter_guard(self):
        inst = dyadic_construction(1)  # k = 4, floor(k/4) = 1
        with pytest.raises(ValueError):
            partition_witness(inst.A, inst.witness, 2)
        with pytest.raises(ValueError):
            partition_witness(inst.A, inst.witness, 0)

    def test_invalid_witness_rejected(self):
        inst = dyadic_construction(1)
        bad = inst.witness.permute([1, 0, 2, 3], [0, 1, 2, 3])
        with pytest.raises(ValueError):
            partition_witness(inst.A, bad, 1)

    def test_ratios(self):
        inst = dyadic_construction(2)
        p = partition_witness(inst.A, inst.witness, 6)
        assert p.trim_ratio == Fraction(1, 4)
        assert p.size_ratio == Fraction(168, 24)


class TestRuzsaCheck:
    def test_dyadic_partitions(self):
        for l_param, trims in ((1, (1,)), (2, (1, 2, 4, 6))):
            inst = dyadic_construction(l_param)
            for trim in trims:
                p = partition_witness(inst.A, inst.witness, trim)
                report = ruzsa_check(p)
                assert report.holds
                assert report.mid_sumset_size <= report.chain_value

    def test_subspace_closure_case(self):
        v = frozenset(Subspace2.from_vectors(3, [bv("100"), bv("010")]).elements())
        p = make_partition(3, v, size_ratio=Fraction(4, 4))
        report = ruzsa_check(p)
        assert report.mid_sumset_size == len(v)
        assert report.holds

    def test_translated_witnesses(self):
        inst = dyadic_construction(2)
        rng = random.Random(7)
        for _ in range(5):
            g = BitVector(10, rng.randrange(1 << 10))
            w = inst.witness.translate(g)
            shifted = FiniteSet.f2(10, inst.A.elements)
            assert verify_witness(shifted, w).valid
            p = partition_witness(shifted, w, 5)
            assert ruzsa_check(p).holds


class TestMinimalModel:
    def test_subspace_collapses_to_its_dimension(self):
        v = frozenset(Subspace2.from_vectors(6, [bv("110000"), bv("011000")]).elements())
        p = make_partition(6, v)
        n, phi, steps = minimal_model(p, 6)
        assert n == 2
        assert steps[-1].d_size == 4
        image = {phi.apply(x) for x in v}
        assert len(image) == 4

    def test_trivial_band(self):
        p = make_partition(6, [BitVector.zero(6)])
        n, phi, steps = minimal_model(p, 6)
        assert n == 0
        assert steps[-1].d_size == 1

    def test_termination_equality_and_injectivity(self):
        inst = dyadic_construction(1)
        p = partition_witness(inst.A, inst.witness, 1)
        n, phi, steps = minimal_model(p, 4)
        assert steps[-1].d_size == (1 << n)
        assert all(step.injective for step in steps)
        mid_sums = sumset(p.s_mid, p.t_mid)
        assert len({phi.apply(u) for u in mid_sums}) == len(mid_sums)


class TestCompress:
    def test_dyadic1(self):
        inst = dyadic_construction(1)
        res = compress(inst.A, inst.witness, 1)
        assert res.witness_prime.k == 3
        assert verify_witness(res.A_prime, res.witness_prime).valid
        assert res.bound_ok

    def test_dyadic2_quarter_trim(self):
        inst = dyadic_construction(2)
        res = compress(inst.A, inst.witness, 6)
        assert res.witness_prime.k == 13
        assert verify_witness(res.A_prime, res.witness_prime).valid
        assert (1 << res.n) == res.steps[-1].d_size
        assert res.bound_ok
        assert all(step.injective for step in res.steps)

    def test_compressed_set_keeps_high_order(self):
        inst = dyadic_construction(1)
        res = compress(inst.A, inst.witness, 1)
        assert max_order_exact(res.A_prime).kmax >= 3

    def test_reduced_order_formula(self):
        inst = dyadic_construction(2)
        for l in (1, 2, 6):
            res = compress(inst.A, inst.witness, l)
            assert res.witness_prime.k == inst.witness.k - 2 * l + 1

    def test_explicit_bound_every_trim(self):
        inst = dyadic_construction(2)
        for l in range(1, 7):
            res = compress(inst.A, inst.witness, l)
            assert (1 << res.n) <= res.bound_value


# dyadic l=2 at trim l -> (n, |A'|, step d_sizes, phi.matrix, sha256 of the
# serialized A' and of the serialized witness')
COMPRESS_D2_PINS = {
    2: (
        10, 149, [1024], (1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
        "4901448642390ca227e703e8582761dc5d7b191bccb4bb31bf44931235bfdd7e",
        "18173d511dadf835e9fd8819bfa89417e1ac00a3978a13c7ac77cb5acd885ea0",
    ),
    4: (
        9, 97, [1008, 512], (1, 2, 4, 8, 16, 32, 192, 320, 512),
        "3ccc19407dcec4b8eb3390b9f709c23b61d7b249b5f4b9b8fcd42351e5d7a9df",
        "79c668f0cd168c9832f5a6879855238581e48b24ec4b05c700e04d0a4af8d13b",
    ),
    6: (
        8, 65, [720, 448, 256], (1, 2, 4, 8, 16, 32, 128, 256),
        "58022eee14a9fe158d5ae6c66760e20c7f7784c068bdf50a4e3eb00a2fabed49",
        "1a02e89ab83fc45662ae32850b6d78a3470b32f91e719a7dd50969b6032baa07",
    ),
}


@pytest.mark.parametrize("trim", sorted(COMPRESS_D2_PINS))
def test_compress_dyadic2_pinned(trim):
    inst = dyadic_construction(2)
    res = compress(inst.A, inst.witness, trim)

    def digest(text: str) -> str:
        return hashlib.sha256(text.encode("ascii")).hexdigest()

    got = (
        res.n,
        res.A_prime.N,
        [step.d_size for step in res.steps],
        res.phi.matrix,
        digest(serialize_set(res.A_prime)),
        digest(serialize_witness(res.witness_prime)),
    )
    assert got == COMPRESS_D2_PINS[trim]


class TestPetridis:
    def test_all_ties_pick_smallest(self):
        z, ratio = petridis_minimizer([bv("00"), bv("01")], [bv("00"), bv("10")])
        assert ratio == 2
        assert z == frozenset({bv("00")})

    def test_subspace_minimized_at_full_set(self):
        v = list(Subspace2.from_vectors(3, [bv("100"), bv("010")]).elements())
        t = v[:3]
        z, ratio = petridis_minimizer(v, t)
        assert z == frozenset(t)
        assert ratio == Fraction(4, 3)

    def test_guard(self):
        with pytest.raises(ValueError):
            petridis_minimizer([bv("0")], [])
        with pytest.raises(ValueError):
            petridis_minimizer(
                [BitVector(4, 0)], [BitVector(4, b) for b in range(16)]
            )

    def test_growth_inequality_sampled(self):
        rng = random.Random(11)
        for trial in range(6):
            n = rng.choice([3, 4])
            universe = [BitVector(n, b) for b in range(1 << n)]
            s = rng.sample(universe, rng.randint(1, 5))
            t = rng.sample(universe, rng.randint(1, 5))
            z, ratio = petridis_minimizer(s, t)
            for _ in range(100):
                c = rng.sample(universe, rng.randint(1, 6))
                lhs = len(sumset(sumset(s, z), c))
                rhs = len(sumset(z, c))
                assert lhs * ratio.denominator <= ratio.numerator * rhs
