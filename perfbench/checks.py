"""Output checks that do not trust the call they check.

Each check reports through `tally(description, ok)`.  None of them uses
`assert`, so they also run under `python -O`.  They recompute what they can
with plain ints here (witness cells, DIMACS clauses, GF(2) ranks and
polynomial value tables) rather than through the library routine that
produced the output.
"""

from __future__ import annotations

import math

from stabset import orderprop, polymethod


def witness(tally, label, A, w, k):
    """verify_witness accepts w, w has order k, and an independent cell scan
    agrees: s_i + t_j lies in A exactly when i <= j, entries distinct."""
    tally(f"{label} witness has order {k}", w.k == k)
    tally(f"{label} verify_witness accepts the witness", orderprop.verify_witness(A, w).valid)
    members = {x.bits for x in A.elements}
    s = [x.bits for x in w.s]
    t = [x.bits for x in w.t]
    ok = len(set(s)) == len(s) and len(set(t)) == len(t)
    ok = ok and all(((si ^ tj) in members) == (i <= j) for i, si in enumerate(s) for j, tj in enumerate(t))
    tally(f"{label} witness cells pass an independent scan", ok)


def _header(text):
    """(domains from the 'c sdom/t1dom/tdom' comments, p-line fields, clause lines)."""
    head, _, body = text.partition("\np cnf ")
    domains = {}
    for line in head.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] == "c" and parts[1] in ("sdom", "t1dom", "tdom"):
            domains[parts[1]] = parts[2:]
    p_line, _, clauses = body.partition("\n")
    var_count, clause_count = (int(v) for v in p_line.split())
    return domains, var_count, clause_count, clauses


def cnf_header(tally, label, A, k, text):
    """The DIMACS header agrees with cnf_layout and with the clause lines."""
    layout = orderprop.cnf_layout(A, k)
    domains, var_count, clause_count, clauses = _header(text)
    tally(f"{label} CNF variable count matches cnf_layout", var_count == layout.var_count)
    tally(
        f"{label} CNF domain sizes match cnf_layout",
        [len(domains.get(d, ())) for d in ("sdom", "t1dom", "tdom")]
        == [len(layout.s_domain), len(layout.t1_domain), len(layout.t_domain)],
    )
    tally(f"{label} CNF clause count matches its header", clauses.count(" 0\n") == clause_count)


def cnf_model(tally, label, A, w):
    """The witness, encoded by the variable formula the header documents,
    satisfies every clause of the CNF at k = w.k."""
    k = w.k
    if k == 0:
        return
    text = orderprop.export_cnf(A, k)
    cnf_header(tally, f"{label} k={k}", A, k, text)
    domains, _, _, clauses = _header(text)
    sdom = {v: a for a, v in enumerate(domains["sdom"])}
    tdom = {v: b for b, v in enumerate(domains["tdom"])}
    t1dom = {v: b for b, v in enumerate(domains["t1dom"])}
    base = k * len(sdom)
    true = set()
    try:
        for i, x in enumerate(w.s, start=1):
            true.add((i - 1) * len(sdom) + sdom[x.to_string()] + 1)
        true.add(base + t1dom[w.t[0].to_string()] + 1)
        for j, x in enumerate(w.t[1:], start=2):
            true.add(base + len(t1dom) + (j - 2) * len(tdom) + tdom[x.to_string()] + 1)
    except KeyError:
        tally(f"{label} witness lies in the CNF domains", False)
        return
    satisfied = all(
        any((lit > 0) == (abs(lit) in true) for lit in map(int, line.split()[:-1]))
        for line in clauses.splitlines()
    )
    tally(f"{label} witness satisfies the CNF at k={k}", satisfied)


def _gf2_rank(rows):
    pivots = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in pivots:
                pivots[top] = r
                break
            r ^= pivots[top]
    return len(pivots)


def _value_table(poly):
    """Values of a multilinear polynomial at all 2^n points, by the subset
    (Moebius) transform over a list."""
    n = poly.basis.n
    f = [0] * (1 << n)
    for idx, m in enumerate(poly.basis.monomials):
        if (poly.coeffs >> idx) & 1:
            f[m] = 1
    for i in range(n):
        bit = 1 << i
        for x in range(1 << n):
            if x & bit:
                f[x] ^= f[x ^ bit]
    return f


def rank_sandwich(tally, label, A, w, cert):
    """Rebuild the certificate's polynomial, evaluate it here and recompute
    diagonal_hits <= rank <= 2 dim S(n, d//2) with an independent rank."""
    space = polymethod.vanishing_space(A, cert.d)
    poly, _ = polymethod.max_support_polynomial(space)
    f = _value_table(poly)
    n = A.ambient.n
    members = {x.bits for x in A.elements}
    tally(f"{label} polynomial vanishes off A", not any(f[x] for x in range(1 << n) if x not in members))
    tally(f"{label} support size matches", sum(f) == cert.support_size)
    s = [x.bits for x in w.s]
    t = [x.bits for x in w.t]
    matrix = [[f[si ^ tj] for tj in t] for si in s]
    tally(f"{label} witness matrix is zero below the diagonal", not any(matrix[i][j] for i in range(len(s)) for j in range(i)))
    rank = _gf2_rank(sum(v << j for j, v in enumerate(row)) for row in matrix)
    hits = sum(matrix[i][i] for i in range(len(s)))
    upper = 2 * sum(math.comb(n, r) for r in range(cert.d // 2 + 1))
    tally(
        f"{label} rank sandwich {hits} <= {rank} <= {upper} matches the certificate",
        hits <= rank <= upper
        and (cert.diagonal_hits, cert.rank, cert.rank_upper, cert.k, cert.vanishing_dim) == (hits, rank, upper, w.k, len(space)),
    )
