"""The three stage groups the workloads are built from.

Each group owns some end-to-end metrics and comes in two sizes.  A workload
runs its own group at full size and the other two at smoke size, so that
every run reports every end-to-end metric; the smoke mode runs all three at
smoke size.  A group is a table of sizes and four functions:

- `setup(size, rng)` builds the inputs (timed as `setup_s`);
- `run(inputs)` makes the library calls one at a time and returns
  `(samples, outputs)`, where `samples` maps metric names to this pass's
  values;
- `check(inputs, outputs, tally)` verifies the outputs by a path that does
  not trust the call being checked, outside every timed region;
- `params(size)` is the instance description stored in the run record.

The benchmark calls the library only through module attributes
(`orderprop.max_order_exact(...)`), so the tracer's rebinding sees every call.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from typing import Callable, NamedTuple

import checks
from stabset import constructions, fileformats, generators, gf2, modelling, orderprop, polymethod
from stabset.gf2 import BitVector
from stabset.orderprop import FiniteSet, Witness

clock = time.perf_counter

# ---------------------------------------------------------------------------
# solve: the exact solver on a seeded random corpus, a budgeted dyadic run
# and DIMACS export.

SOLVE_SIZES = {
    # corpus: (n, |A| min, |A| max, instances per size); cnf: (n, |A|, k,
    # instances).  The full corpus holds two stated sizes in the middle of
    # the solver's range, weighted so that the median and the tail solve
    # fall inside the n=6 class; see NOTES.md for why not the whole range.
    "full": {
        "corpus": [[5, 13, 13, 16], [6, 15, 15, 64]],
        "budget_nodes": 200_000,
        "cnf": [[7, 24, 6, 2], [8, 32, 6, 1]],
        "oracle": [5, 6, 8, 2],
    },
    "smoke": {
        "corpus": [[5, 8, 10, 8]],
        "budget_nodes": 20_000,
        "cnf": [[6, 16, 4, 1]],
        "oracle": [4, 5, 7, 1],
    },
}

#: Deterministic node cap for corpus solves; every corpus instance finishes
#: far below it, and a solve that hits it fails the `exact` check.
CORPUS_NODE_CAP = 100_000_000

#: The budgeted solve runs on dyadic l=2 (|A|=168), whose construction
#: witnesses order 24.
BUDGET_L = 2

#: A solve's tail percentile keeps at least this many samples beyond it.
TAIL_BEYOND = 10

#: The CNF list is exported this many times per pass and `cnf_s` is the
#: median total: one export allocates millions of clause lists, and a single
#: total moved by 5% between identical calls.
CNF_REPEATS = 3


def _random_sets(spec, rng):
    n, lo, hi, per = spec
    return [
        (f"random-n{n}-N{size}-{rep}", generators.random_subset(n, size, rng))
        for size in range(lo, hi + 1)
        for rep in range(per)
    ]


def solve_setup(size, rng):
    corpus = [inst for spec in size["corpus"] for inst in _random_sets(spec, rng)]
    cnf = [
        (f"cnf-n{n}-N{card}-k{k}-{rep}", generators.random_subset(n, card, rng), k)
        for n, card, k, count in size["cnf"]
        for rep in range(count)
    ]
    return {
        "corpus": corpus,
        "budget": constructions.dyadic_construction(BUDGET_L),
        "budget_nodes": size["budget_nodes"],
        "cnf": cnf,
        "oracle": _random_sets(size["oracle"], rng),
    }


def tail_index(count: int) -> int:
    """Index in the sorted samples of the highest percentile that still has
    TAIL_BEYOND samples beyond it (the maximum when there are too few)."""
    return count - 1 - TAIL_BEYOND if count > TAIL_BEYOND else count - 1


def solve_run(inputs):
    reports, times = [], []
    for _, A in inputs["corpus"]:
        start = clock()
        reports.append(orderprop.max_order_exact(A, node_limit=CORPUS_NODE_CAP))
        times.append(clock() - start)
    budget = orderprop.max_order_exact(inputs["budget"].A, node_limit=inputs["budget_nodes"])
    totals = []
    for _ in range(CNF_REPEATS):
        cnf_texts, total = [], 0.0
        for _, A, k in inputs["cnf"]:
            start = clock()
            cnf_texts.append(orderprop.export_cnf(A, k))
            total += clock() - start
        totals.append(total)
    ordered = sorted(times)
    samples = {
        "solved_per_s": sum(r.status == "exact" for r in reports) / sum(times),
        "solve_p50_s": statistics.median(times),
        "solve_tail_s": ordered[tail_index(len(ordered))],
        "budget_kmax": budget.kmax,
        "cnf_s": statistics.median(totals),
    }
    return samples, {"reports": reports, "budget": budget, "cnf": cnf_texts}


def solve_check(inputs, outputs, tally):
    for (label, A), report in zip(inputs["corpus"], outputs["reports"]):
        tally(f"{label} solve is exact", report.status == "exact")
        checks.witness(tally, label, A, report.witness, report.kmax)
    budget = outputs["budget"]
    checks.witness(tally, "budget", inputs["budget"].A, budget.witness, budget.kmax)
    for (label, A, k), text in zip(inputs["cnf"], outputs["cnf"]):
        checks.cnf_header(tally, label, A, k, text)
    # the oracle and the CNF re-check need kmax, so these few small sets are
    # solved here, outside the timed pass
    for label, A in inputs["oracle"]:
        report = orderprop.max_order_exact(A)
        tally(f"{label} kmax equals the brute-force oracle", report.kmax == orderprop.max_order_bruteforce(A))
        checks.witness(tally, label, A, report.witness, report.kmax)
        checks.cnf_model(tally, label, A, report.witness)
    first = {}
    for (label, A), report in zip(inputs["corpus"], outputs["reports"]):
        first.setdefault(A.ambient.n, (label, A, report))
    for label, A, report in first.values():
        checks.cnf_model(tally, label, A, report.witness)


def solve_params(size):
    return dict(size, budget_l=BUDGET_L, corpus_node_cap=CORPUS_NODE_CAP, tail_beyond=TAIL_BEYOND, cnf_repeats=CNF_REPEATS)


# ---------------------------------------------------------------------------
# witness: build the dyadic construction, then round-trip and check its
# witness in every way the library offers.

WITNESS_SIZES = {"full": {"l": 4}, "smoke": {"l": 3}}


def dyadic_order(l):
    """R * 2^l, the order the dyadic construction witnesses."""
    return math.comb(2 * l, l) << l


def witness_setup(size, rng):
    l = size["l"]
    k = dyadic_order(l)
    s_order = list(range(k))
    t_order = list(range(k))
    rng.shuffle(s_order)
    rng.shuffle(t_order)
    # swapping t_j and t_(j+1) breaks cell (j+1, j); keeping j in the last
    # rows makes the rejection scan nearly the whole matrix for every seed
    swap = k - 2 - rng.randrange(max(1, k // 64))
    return {"l": l, "k": k, "s_order": s_order, "t_order": t_order, "swap": swap}


def witness_run(inputs):
    times = {}

    def timed(name, fn, *args):
        start = clock()
        result = fn(*args)
        times[name] = clock() - start
        return result

    inst = timed("dyadic_construction", constructions.dyadic_construction, inputs["l"])
    A, w = inst.A, inst.witness
    set_text = timed("serialize_set", fileformats.serialize_set, A)
    parsed_A = timed("parse_set", fileformats.parse_set, set_text)
    wit_text = timed("serialize_witness", fileformats.serialize_witness, w)
    parsed_w = timed("parse_witness", fileformats.parse_witness, wit_text)
    verdict = timed("verify_witness", orderprop.verify_witness, parsed_A, parsed_w)
    staircase = timed("staircase_check", orderprop.staircase_check, parsed_w)
    s_shuffled = [parsed_w.s[i] for i in inputs["s_order"]]
    t_shuffled = [parsed_w.t[i] for i in inputs["t_order"]]
    recovered = timed("canonical_enumeration", orderprop.canonical_enumeration, parsed_A, s_shuffled, t_shuffled)
    t = list(parsed_w.t)
    j = inputs["swap"]
    t[j], t[j + 1] = t[j + 1], t[j]
    corrupted = Witness(parsed_w.ambient, parsed_w.s, tuple(t))
    rejected = timed("verify_corrupted", orderprop.verify_witness, parsed_A, corrupted)
    outputs = {
        "inst": inst,
        "set_text": set_text,
        "wit_text": wit_text,
        "parsed": (parsed_A, parsed_w),
        "verdict": verdict,
        "staircase": staircase,
        "recovered": recovered,
        "rejected": rejected,
    }
    samples = {
        "construct_s": times.pop("dyadic_construction"),
        "check_s": sum(times.values()),
        **{f"witness.{name}_s": value for name, value in times.items()},
    }
    return samples, outputs


def witness_check(inputs, outputs, tally):
    l, k = inputs["l"], inputs["k"]
    inst = outputs["inst"]
    A, w = inst.A, inst.witness
    tag = f"dyadic-l{l}"
    tally(f"{tag} has order R*2^l = {k}", w.k == k)
    tally(f"{tag} size matches dyadic_exact_size", A.N == constructions.dyadic_exact_size(l))
    checks.witness(tally, tag, A, w, k)
    parsed_A, parsed_w = outputs["parsed"]
    tally(f"{tag} parsed set equals the constructed set", parsed_A == A)
    tally(f"{tag} parsed witness equals the constructed witness", parsed_w == w)
    tally(f"{tag} set file round trip is byte-identical", fileformats.serialize_set(parsed_A) == outputs["set_text"])
    tally(f"{tag} witness file round trip is byte-identical", fileformats.serialize_witness(parsed_w) == outputs["wit_text"])
    tally(f"{tag} verify_witness accepts", outputs["verdict"].valid)
    tally(f"{tag} staircase_check accepts", outputs["staircase"].valid)
    tally(f"{tag} canonical recovery returns the original order", outputs["recovered"] == w)
    j = inputs["swap"] + 1  # 1-based index of the first swapped t
    rejected = outputs["rejected"]
    tally(f"{tag} corrupted witness is rejected at cell ({j + 1},{j})", not rejected.valid and rejected.where == (j + 1, j))


def witness_params(size):
    return dict(size, k=dyadic_order(size["l"]))


# ---------------------------------------------------------------------------
# model: compression of dyadic witnesses and polynomial rank certificates.

MODEL_SIZES = {
    "full": {
        # (dyadic l, trim l); d3 trim 5 is one sumset-bound step, trim 20
        # walks the quotients 16 -> 15 -> 14
        "compress": [[3, 5], [3, 20], [2, 2], [2, 4], [2, 6]],
        # (kind, ambient n) on dyadic l=2 (n=10, |A|=168): "pad" adds filler
        # coordinates, "dense" fills DENSE_SHARE of F2^n keeping the witness
        # valid; the compressed dyadic l=2 outputs are certified too
        "certificates": [["pad", 12], ["dense", 12], ["pad", 11]],
    },
    "smoke": {
        "compress": [[2, 2], [2, 4], [2, 6]],
        "certificates": [["pad", 10], ["dense", 10]],
    },
}

DENSE_SHARE = 0.3

#: Outputs fixed by the construction and the deterministic algorithms.
PINNED = {
    "compress d3 trim 20": {"n": 14, "size": 3161},
    "compress d2 trim 6": {"n": 8, "size": 65},
    "certificate pad n=12": {"row": "12,10,11/12,157,168,24,24,3172,24"},
}


def _dense_superset(inst, n, rng):
    """inst padded to F2^n, then grown with random points to DENSE_SHARE * 2^n,
    avoiding every lower cell s_i + t_j (i > j) so the witness stays valid."""
    padded = constructions.pad_to_size(inst, inst.A.N + n - inst.A.ambient.n)
    A, w = padded.A, padded.witness
    members = {x.bits for x in A.elements}
    lower = {(w.s[i] + w.t[j]).bits for i in range(w.k) for j in range(i)}
    free = [x for x in range(1 << n) if x not in members and x not in lower]
    extra = rng.sample(free, round(DENSE_SHARE * (1 << n)) - len(members))
    return FiniteSet.f2(n, [BitVector(n, b) for b in members.union(extra)]), w


def certificate_p(A):
    """The CLI's default: the smallest admissible p for the complement size."""
    n = A.ambient.n
    return polymethod.choose_certificate_p(n, (1 << n) - A.N)


def model_setup(size, rng):
    dyadic = {l: constructions.dyadic_construction(l) for l in sorted({l for l, _ in size["compress"]} | {2})}
    compress_jobs = [(f"compress d{l} trim {trim}", dyadic[l], trim) for l, trim in size["compress"]]
    cert_jobs = []
    for kind, n in size["certificates"]:
        if kind == "pad":
            padded = constructions.pad_to_size(dyadic[2], dyadic[2].A.N + n - dyadic[2].A.ambient.n)
            A, w = padded.A, padded.witness
        else:
            A, w = _dense_superset(dyadic[2], n, rng)
        cert_jobs.append((f"certificate {kind} n={n}", A, w, certificate_p(A)))
    return {"compress": compress_jobs, "certificates": cert_jobs}


def model_run(inputs):
    compress_s, results = 0.0, []
    for label, inst, trim in inputs["compress"]:
        start = clock()
        result = modelling.compress(inst.A, inst.witness, trim)
        ruzsa = modelling.ruzsa_check(modelling.partition_witness(inst.A, inst.witness, trim))
        compress_s += clock() - start
        results.append((result, ruzsa))
    jobs = list(inputs["certificates"])
    for (label, inst, trim), (result, _) in zip(inputs["compress"], results):
        if inst.meta["l"] == 2:
            jobs.append((f"certificate {label}", result.A_prime, result.witness_prime, certificate_p(result.A_prime)))
    certificate_s, certs = 0.0, []
    for label, A, w, p in jobs:
        start = clock()
        certs.append(polymethod.rank_certificate(A, w, p))
        certificate_s += clock() - start
    samples = {"compress_s": compress_s, "certificate_s": certificate_s}
    return samples, {"compress": results, "cert_jobs": jobs, "certs": certs}


def model_check(inputs, outputs, tally):
    for (label, inst, trim), (result, ruzsa) in zip(inputs["compress"], outputs["compress"]):
        k = inst.witness.k
        checks.witness(tally, label, result.A_prime, result.witness_prime, k - 2 * trim + 1)
        tally(f"{label} 2^n equals the final |D|", 1 << result.n == result.steps[-1].d_size)
        tally(f"{label} Ruzsa chain holds", ruzsa.holds)
        pin = PINNED.get(label)
        if pin is not None:
            tally(f"{label} gives n={pin['n']}, |A'|={pin['size']}", (result.n, result.A_prime.N) == (pin["n"], pin["size"]))
    for (label, A, w, p), cert in zip(outputs["cert_jobs"], outputs["certs"]):
        checks.rank_sandwich(tally, label, A, w, cert)
        pin = PINNED.get(label)
        if pin is not None:
            tally(f"{label} row is {pin['row']}", cert.csv_row() == pin["row"])


def model_params(size):
    return dict(size, dense_share=DENSE_SHARE, pinned=PINNED)


# ---------------------------------------------------------------------------


class Group(NamedTuple):
    sizes: dict
    setup: Callable
    run: Callable
    check: Callable
    params: Callable


GROUPS = {
    "solve": Group(SOLVE_SIZES, solve_setup, solve_run, solve_check, solve_params),
    "witness": Group(WITNESS_SIZES, witness_setup, witness_run, witness_check, witness_params),
    "model": Group(MODEL_SIZES, model_setup, model_run, model_check, model_params),
}

#: workload -> the group it runs at full size
WORKLOADS = {"search": "solve", "witness-l4": "witness", "compress-certify": "model"}


# ---------------------------------------------------------------------------
# Trace targets: (span name, owner, attribute, counter, record rss rise).


def _count_sumset(add, args, result):
    add("gf2.sumset.pairs", len(args[0]) * len(args[1]))
    add("gf2.sumset.sums", len(result))


def _count_nullspace(add, args, result):
    add("gf2.nullspace_rows.cells", len(args[0]) * args[1])


def _count_solve(add, args, report):
    add("orderprop.nodes", report.nodes_explored)
    if report.status == "exact":
        add("orderprop.exact", 1)
        add("orderprop.nodes_to_exact", report.nodes_explored)


def _count_cnf(add, args, text):
    header = text[text.index("\np cnf ") + 1 :].split("\n", 1)[0].split()
    add("orderprop.export_cnf.bytes", len(text))
    add("orderprop.export_cnf.clauses", int(header[3]))


def _count_bytes(add, args, text):
    add("fileformats.bytes", len(text))


def _count_model(add, args, result):
    _, _, steps = result
    add("modelling.quotient_steps", len(steps) - 1)
    add("modelling.final_d_size", steps[-1].d_size)


def _count_vanishing(add, args, space):
    add("polymethod.vanishing_dim", len(space))


TRACE_TARGETS = [
    ("gf2.sumset", gf2, "sumset", _count_sumset, False),
    ("gf2.LinearMap2.apply", gf2.LinearMap2, "apply", None, False),
    ("gf2.nullspace_rows", gf2, "nullspace_rows", _count_nullspace, False),
    ("gf2.rank_rows", gf2, "rank_rows", None, False),
    ("gf2.Subspace2.from_vectors", gf2.Subspace2, "from_vectors", None, False),
    ("orderprop.max_order_exact", orderprop, "max_order_exact", _count_solve, False),
    ("orderprop.export_cnf", orderprop, "export_cnf", _count_cnf, True),
    ("orderprop.verify_witness", orderprop, "verify_witness", None, False),
    ("orderprop.staircase_check", orderprop, "staircase_check", None, True),
    ("orderprop.canonical_enumeration", orderprop, "canonical_enumeration", None, False),
    ("constructions.dyadic_construction", constructions, "dyadic_construction", None, True),
    ("constructions.pad_to_size", constructions, "pad_to_size", None, False),
    ("fileformats.serialize_set", fileformats, "serialize_set", _count_bytes, False),
    ("fileformats.parse_set", fileformats, "parse_set", None, True),
    ("fileformats.serialize_witness", fileformats, "serialize_witness", _count_bytes, False),
    ("fileformats.parse_witness", fileformats, "parse_witness", None, False),
    ("modelling.partition_witness", modelling, "partition_witness", None, False),
    ("modelling.minimal_model", modelling, "minimal_model", _count_model, False),
    ("modelling.compress", modelling, "compress", None, False),
    ("modelling.ruzsa_check", modelling, "ruzsa_check", None, False),
    ("polymethod.vanishing_space", polymethod, "vanishing_space", _count_vanishing, False),
    ("polymethod.max_support_polynomial", polymethod, "max_support_polynomial", None, False),
    ("polymethod.rank_certificate", polymethod, "rank_certificate", None, False),
    ("generators.random_subset", generators, "random_subset", None, False),
]


def group_rng(seed: int, group: str) -> random.Random:
    return random.Random(f"{seed}:{group}")


def layer_metrics(tracer) -> dict:
    """Per-layer metrics from one traced setup and pass."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts
    out = {}
    for name, *_ in TRACE_TARGETS:
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{name}.calls"] = calls.get(name, 0)
    for key, value in counts.items():
        out[key] = value
    pairs = counts.get("gf2.sumset.pairs", 0)
    out["gf2.sumset.yield"] = counts.get("gf2.sumset.sums", 0) / pairs if pairs else 0.0
    solve_s = self_s.get("orderprop.max_order_exact", 0.0)
    out["orderprop.nodes_per_s"] = counts.get("orderprop.nodes", 0) / solve_s if solve_s else 0.0
    solves = calls.get("orderprop.max_order_exact", 0)
    out["orderprop.exact_ratio"] = counts.get("orderprop.exact", 0) / solves if solves else 0.0
    out["polymethod.max_support_rounds"] = tracer.calls_under("gf2.nullspace_rows", "polymethod.max_support_polynomial")
    return out
