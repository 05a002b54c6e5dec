"""Acceptance suite: one check per shipped guarantee, one line per outcome.

Run under pytest (`pytest tests/test_acceptance.py -v -s`) or standalone
(`python tests/test_acceptance.py`) for the plain pass/fail listing.
"""

import contextlib
import io
import itertools
import math
import random
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from stabset.cli import main as cli_main
from stabset.constructions import (
    dyadic_construction,
    dyadic_exact_size,
    dyadic_exponent_constant,
)
from stabset.fileformats import read_set, read_witness
from stabset.gf2 import BitVector
from stabset.generators import SweepSpec, run_sweep
from stabset.modelling import compress
from stabset.orderprop import (
    FiniteSet,
    max_order_bruteforce,
    max_order_exact,
    staircase_check,
    verify_witness,
)
from stabset.polymethod import (
    choose_certificate_p,
    entropy_tail_check,
    max_support_polynomial,
    monomial_space_dim,
    rank_certificate,
    stability_constants,
    vanishing_space,
)


def criterion_1_ap_exactness() -> str:
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        for length in range(2, 9):
            sp = str(Path(tmp) / f"ap{length}.set")
            wp = str(Path(tmp) / f"ap{length}.wit")
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli_main(
                    ["construct", "ap", "--start", "0", "--diff", "1",
                     "--length", str(length), "--set-out", sp, "--witness-out", wp]
                ) == 0
                assert cli_main(["verify", sp, wp]) == 0
            A, w = read_set(sp), read_witness(wp)
            # the cardinality cap makes order N the exact maximum at size N
            assert w.k == A.N == length
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"AP construction suite took {elapsed:.2f}s"
    return f"orders 2..8 verified at full size, {elapsed:.2f}s"


def criterion_2_solver_oracle_equivalence() -> str:
    start = time.monotonic()
    rng = random.Random(2026)
    checked = 0
    # sets of 6-8 elements reach kmax 3-4 and give the solver's ladder bound more to prune
    for n, count, sizes in ((3, 200, (0, 5)), (4, 50, (0, 5)), (4, 12, (6, 8)), (5, 3, (6, 8))):
        universe = [BitVector(n, b) for b in range(1 << n)]
        for _ in range(count):
            size = rng.randint(*sizes)
            A = FiniteSet.f2(n, rng.sample(universe, size))
            report = max_order_exact(A)
            assert report.status == "exact"
            assert report.kmax == max_order_bruteforce(A), f"disagreement on {A}"
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"equivalence suite took {elapsed:.1f}s"
    return f"{checked} instances agree, {elapsed:.1f}s"


def _acceptance_sweeps() -> list:
    rows = []
    rows += run_sweep(SweepSpec("random", n=4, size_min=4, size_max=8, seeds=20, seed=0))
    rows += run_sweep(SweepSpec("subspace", n=5, dim_min=0, dim_max=3, seeds=5, seed=1))
    rows += run_sweep(SweepSpec("dyadic", l_min=1, l_max=2, node_limit=20_000))
    rows += run_sweep(SweepSpec("ap", n=4, size_min=2, size_max=10))
    return rows


def criterion_3_cardinality_cap_in_sweeps() -> str:
    rows = _acceptance_sweeps()
    assert len(rows) == 100 + 20 + 2 + 9
    violations = [r for r in rows if r.kmax > r.N]
    assert not violations, f"cap violated: {violations}"
    return f"{len(rows)} sweep rows, kmax <= |A| throughout"


def criterion_4_dyadic_construction() -> str:
    inst1 = dyadic_construction(1)
    assert inst1.A.N == 8
    report = max_order_exact(inst1.A)
    assert report.status == "exact" and report.kmax == 4

    inst2 = dyadic_construction(2)
    assert inst2.witness.k == 24
    assert verify_witness(inst2.A, inst2.witness).valid
    assert inst2.A.N <= 2172

    t0 = time.monotonic()
    inst3 = dyadic_construction(3)
    assert inst3.witness.k == 160
    assert verify_witness(inst3.A, inst3.witness).valid
    elapsed3 = time.monotonic() - t0
    assert elapsed3 < 10.0, f"order-160 verification took {elapsed3:.1f}s"

    target = 1.0 / (2.0 - dyadic_exponent_constant())
    gaps = []
    for l in (1, 2, 3, 4):
        k = math.comb(2 * l, l) * 2**l
        ratio = math.log(k) / math.log(dyadic_exact_size(l))
        gaps.append(abs(ratio - target))
    assert gaps == sorted(gaps, reverse=True), f"trend not monotone: {gaps}"
    assert gaps[-1] < 0.06, f"gap at l=4 is {gaps[-1]:.4f}"
    return (
        f"l=1 exact order 4 at size 8; l=2 order 24 at size {inst2.A.N}; "
        f"l=3 order 160 verified in {elapsed3:.1f}s; exponent gap {gaps[-1]:.3f} at l=4"
    )


def criterion_5_compression_end_to_end() -> str:
    inst = dyadic_construction(2)
    k = inst.witness.k
    l = k // 4
    assert l == 6
    res = compress(inst.A, inst.witness, l)
    assert res.witness_prime.k == k - 2 * l + 1 == 13
    assert verify_witness(res.A_prime, res.witness_prime).valid
    assert all(step.injective for step in res.steps)
    assert res.steps[-1].d_size == (1 << res.n)
    bound = 16 * Fraction(k, l) ** 10 * Fraction(inst.A.N, k) ** 15 * k
    assert res.bound_value == bound
    assert (1 << res.n) <= bound
    assert res.bound_ok
    return (
        f"order 13 verified in F2^{res.n}; 2^n = |D| = {res.steps[-1].d_size}; "
        f"injectivity held over {len(res.steps) - 1} quotients; bound slack "
        f"{float(bound / (1 << res.n)):.3g}"
    )


def criterion_6_polynomial_certificates() -> str:
    rng = random.Random(99)
    spaces_checked = 0
    for n in range(4, 11):
        universe = [BitVector(n, b) for b in range(1 << n)]
        A = FiniteSet.f2(n, rng.sample(universe, (1 << n) // 2))
        complement = (1 << n) - A.N
        for d in (n // 2, 2 * n // 3):
            space = vanishing_space(A, d)
            assert len(space) >= monomial_space_dim(n, d) - complement
            spaces_checked += 1
        space = vanishing_space(A, 2 * n // 3)
        poly, support = max_support_polynomial(space)
        assert len(support) >= len(space)

    certs = []
    for l_param, trim in ((1, 1), (2, 3), (2, 6)):
        inst = dyadic_construction(l_param)
        res = compress(inst.A, inst.witness, trim)
        p = choose_certificate_p(res.n, (1 << res.n) - res.A_prime.N)
        cert = rank_certificate(res.A_prime, res.witness_prime, p)
        assert cert.diagonal_hits <= cert.rank <= cert.rank_upper
        assert cert.rank_upper == 2 * monomial_space_dim(cert.n, cert.d // 2)
        certs.append(cert)
    ranks = ", ".join(
        f"k={c.k}: {c.diagonal_hits}<={c.rank}<={c.rank_upper}" for c in certs
    )
    return f"{spaces_checked} vanishing spaces bounded; certificates {ranks}"


def criterion_7_entropy_inequality() -> str:
    start = time.monotonic()
    count = 0
    for n in range(1, 31):
        for r in range(n // 2 + 1, n + 1):
            check = entropy_tail_check(n, Fraction(r, n))
            assert check.holds, f"tail bound fails at n={n}, r={r}"
            count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"entropy sweep took {elapsed:.2f}s"
    return f"{count} (n, p) pairs hold, {elapsed:.2f}s"


def criterion_8_constants() -> str:
    c0, c = stability_constants()
    assert abs(c0 - 0.0817) <= 1e-4, f"c0 = {c0}"
    assert abs(c - 0.00590) <= 1e-4, f"c = {c}"
    ce = dyadic_exponent_constant()
    assert abs(ce - 0.152) <= 1e-3, f"exponent constant = {ce}"
    return f"c0 = {c0:.5f}, c = {c:.6f}, construction exponent {ce:.4f}"


def _witness_corpus():
    from stabset.constructions import ap_witness

    corpus = []
    for length in (2, 3, 4, 5):
        inst = ap_witness(0, 1, length)
        corpus.append((inst.A, inst.witness))
    for l_param in (1, 2):
        inst = dyadic_construction(l_param)
        corpus.append((inst.A, inst.witness))
    big = dyadic_construction(2)
    res = compress(big.A, big.witness, 6)
    corpus.append((res.A_prime, res.witness_prime))
    rng = random.Random(5)
    universe = [BitVector(4, b) for b in range(16)]
    for _ in range(4):
        A = FiniteSet.f2(4, rng.sample(universe, 7))
        report = max_order_exact(A)
        if report.kmax >= 2:
            corpus.append((A, report.witness))
    return corpus


def criterion_9_uniqueness_and_structure() -> str:
    rng = random.Random(17)
    permutation_checks = 0
    for A, w in _witness_corpus():
        assert verify_witness(A, w).valid
        k = w.k
        identity = list(range(k))
        if k <= 4:
            perms = [list(p) for p in itertools.permutations(identity)]
        else:
            perms = []
            while len(perms) < 40:
                p = identity[:]
                rng.shuffle(p)
                if p != identity:
                    perms.append(p)
        for perm in perms:
            if perm == identity:
                continue
            assert not verify_witness(A, w.permute(perm, identity)).valid
            assert not verify_witness(A, w.permute(identity, perm)).valid
            permutation_checks += 2
        # nontrivial pairs fail too: only the identity pair re-witnesses
        pair_pool = [p for p in perms if p != identity]
        for sigma, tau in zip(pair_pool, reversed(pair_pool)):
            assert not verify_witness(A, w.permute(sigma, tau)).valid
            permutation_checks += 1
        if A.ambient.kind == "f2":
            assert staircase_check(w).valid
            diag = {w.s[i] + w.t[i] for i in range(k)}
            assert len(diag) == k
    return f"{permutation_checks} permuted witnesses rejected; staircase and diagonal hold"


CRITERIA = [
    ("1 AP exactness", criterion_1_ap_exactness),
    ("2 solver-oracle equivalence", criterion_2_solver_oracle_equivalence),
    ("3 cardinality cap in sweeps", criterion_3_cardinality_cap_in_sweeps),
    ("4 dyadic construction", criterion_4_dyadic_construction),
    ("5 compression end-to-end", criterion_5_compression_end_to_end),
    ("6 polynomial certificates", criterion_6_polynomial_certificates),
    ("7 entropy inequality", criterion_7_entropy_inequality),
    ("8 constants", criterion_8_constants),
    ("9 uniqueness and structure", criterion_9_uniqueness_and_structure),
]


def _run(name, fn):
    detail = fn()
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_1():
    _run(*CRITERIA[0])


def test_criterion_2():
    _run(*CRITERIA[1])


def test_criterion_3():
    _run(*CRITERIA[2])


def test_criterion_4():
    _run(*CRITERIA[3])


def test_criterion_5():
    _run(*CRITERIA[4])


def test_criterion_6():
    _run(*CRITERIA[5])


def test_criterion_7():
    _run(*CRITERIA[6])


def test_criterion_8():
    _run(*CRITERIA[7])


def test_criterion_9():
    _run(*CRITERIA[8])


if __name__ == "__main__":
    failures = 0
    for name, fn in CRITERIA:
        try:
            _run(name, fn)
        except AssertionError as exc:
            failures += 1
            print(f"ACCEPTANCE {name}: FAIL ({exc})")
    raise SystemExit(1 if failures else 0)
