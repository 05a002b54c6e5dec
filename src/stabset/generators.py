"""Seeded instance generators and the experiment sweep runner."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional

from stabset.constructions import dyadic_construction
from stabset.gf2 import BitVector, Subspace2
from stabset.orderprop import FiniteSet, max_order_exact

GENERATORS = ("random", "subspace", "dyadic", "ap")


@dataclass(frozen=True)
class SweepSpec:
    """One experiment sweep: a generator, its ranges, and seeding."""

    generator: str
    n: int = 4
    size_min: int = 1
    size_max: int = 1
    dim_min: int = 0
    dim_max: int = 0
    l_min: int = 1
    l_max: int = 1
    seeds: int = 1
    seed: int = 0
    node_limit: Optional[int] = 200_000

    def __post_init__(self) -> None:
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")


@dataclass(frozen=True)
class SweepRow:
    instance_id: str
    N: int
    n: int
    kmax: int
    status: str
    runtime: float

    def csv(self) -> str:
        return (
            f"{self.instance_id},{self.N},{self.n},{self.kmax},"
            f"{self.status},{self.runtime:.6f}"
        )


CSV_HEADER = "instance-id,N,n,kmax,status,runtime"


def random_subset(n: int, size: int, rng: random.Random) -> FiniteSet:
    if size > 1 << n:
        raise ValueError(f"size {size} exceeds 2^{n}")
    return FiniteSet.from_bits(n, rng.sample(range(1 << n), size))


def random_subspace(n: int, dim: int, rng: random.Random) -> FiniteSet:
    """Span of dim random vectors re-drawn until the rank is exactly dim."""
    if not 0 <= dim <= n:
        raise ValueError(f"dim {dim} outside [0, {n}]")
    while True:
        vecs = [BitVector(n, rng.randrange(1 << n)) for _ in range(dim)]
        space = Subspace2.from_vectors(n, vecs)
        if space.dim == dim:
            return FiniteSet.f2(n, space.elements())


def binary_encoded_range(n: int, size: int) -> FiniteSet:
    """The first `size` integers written in binary inside F2^n."""
    if size > 1 << n:
        raise ValueError(f"size {size} exceeds 2^{n}")
    return FiniteSet.from_bits(n, range(size))


def _instances(spec: SweepSpec):
    """Yields (instance-id, set, known order lower bound or None)."""
    if spec.generator == "random":
        for size in range(spec.size_min, spec.size_max + 1):
            for s in range(spec.seeds):
                seed_tag = spec.seed + s
                iid = f"random-n{spec.n}-N{size}-s{seed_tag}"
                rng = random.Random(f"{seed_tag}:{iid}")
                yield iid, random_subset(spec.n, size, rng), None
    elif spec.generator == "subspace":
        for dim in range(spec.dim_min, spec.dim_max + 1):
            for s in range(spec.seeds):
                seed_tag = spec.seed + s
                iid = f"subspace-n{spec.n}-d{dim}-s{seed_tag}"
                rng = random.Random(f"{seed_tag}:{iid}")
                yield iid, random_subspace(spec.n, dim, rng), None
    elif spec.generator == "dyadic":
        for l in range(spec.l_min, spec.l_max + 1):
            inst = dyadic_construction(l)
            yield f"dyadic-l{l}", inst.A, inst.witness.k
    elif spec.generator == "ap":
        for size in range(spec.size_min, spec.size_max + 1):
            yield f"ap-n{spec.n}-N{size}", binary_encoded_range(spec.n, size), None


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Solve every instance of the sweep; kmax is the best verified order.

    The solver runs under the deterministic node budget; for generators with
    a built-in witness (dyadic) the known order is folded in as a lower
    bound, so a budget-limited row still reports the construction's order.
    """
    rows = []
    for iid, A, known in _instances(spec):
        t0 = time.monotonic()
        report = max_order_exact(A, node_limit=spec.node_limit)
        runtime = time.monotonic() - t0
        kmax, status = report.kmax, report.status
        if known is not None and known > kmax:
            kmax, status = known, "lower-bound-only"
        rows.append(
            SweepRow(iid, A.N, A.ambient.n, kmax, status, runtime)
        )
    return rows


def sweep_csv(rows: list[SweepRow]) -> str:
    return "\n".join([CSV_HEADER, *(r.csv() for r in rows)]) + "\n"
