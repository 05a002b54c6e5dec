"""Command-line surface: verify, solve, construct, compress, certify, sweep.

Exit codes: 0 success (witness valid where applicable), 1 invalid witness,
2 usage or parse errors.  All output is deterministic given flags and seeds;
the only wall-clock-dependent value is the runtime column of sweep CSVs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from fractions import Fraction
from typing import Optional, Sequence

from stabset import constructions, fileformats, generators, modelling, polymethod
from stabset.fileformats import ParseError
from stabset.orderprop import cnf_clause_count, export_cnf, max_order_exact, verify_witness

#: `--cnf-out` refuses larger encodings.  `export_cnf` holds every clause in
#: memory; its peak measured 106-116 bytes per clause (0.5M-2.8M clauses,
#: export plus write), so this cap keeps the export near 450 MB.
MAX_CNF_CLAUSES = 4_000_000


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_verify(args: argparse.Namespace) -> int:
    A = fileformats.read_set(args.set)
    w = fileformats.read_witness(args.witness)
    verdict = verify_witness(A, w)
    print(verdict.describe())
    return 0 if verdict.valid else 1


def cmd_max_order(args: argparse.Namespace) -> int:
    A = fileformats.read_set(args.set)
    report = max_order_exact(A, time_limit=args.time_limit, node_limit=args.node_limit)
    print(f"kmax={report.kmax}")
    print(f"status={report.status}")
    print(f"nodes={report.nodes_explored}")
    if args.witness_out:
        fileformats.write_witness(args.witness_out, report.witness)
        print(f"witness written to {args.witness_out}")
    if args.cnf_out:
        k = args.cnf_k if args.cnf_k is not None else max(report.kmax, 1)
        clauses = cnf_clause_count(A, k)
        if clauses > MAX_CNF_CLAUSES:
            return _fail(f"cnf for k={k} would have {clauses} clauses, above the cap of {MAX_CNF_CLAUSES}")
        with open(args.cnf_out, "w", encoding="ascii") as fh:
            fh.write(export_cnf(A, k))
        print(f"cnf for k={k} written to {args.cnf_out}")
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    if args.kind == "ap":
        inst = constructions.ap_witness(args.start, args.diff, args.length)
    else:
        inst = constructions.dyadic_construction(args.l)
    if args.pad_to is not None:
        inst = constructions.pad_to_size(inst, args.pad_to)
    fileformats.write_set(args.set_out, inst.A)
    fileformats.write_witness(args.witness_out, inst.witness)
    print(f"size={inst.A.N}")
    print(f"k={inst.witness.k}")
    if args.kind == "dyadic":
        bound = constructions.size_bound(args.l)
        print(f"size-bound-closed={bound.closed_form:.4f}")
        print(f"size-bound-binomial={float(bound.binomial_form):.4f}")
    return 0


def cmd_compress(args: argparse.Namespace) -> int:
    A = fileformats.read_set(args.set)
    w = fileformats.read_witness(args.witness)
    result = modelling.compress(A, w, args.l)
    fileformats.write_set(args.set_out, result.A_prime)
    fileformats.write_witness(args.witness_out, result.witness_prime)
    final = result.steps[-1]
    print(f"n={result.n}")
    print(f"order={result.witness_prime.k}")
    print(f"size={result.A_prime.N}")
    print(f"trim-ratio-l-over-k={result.trim_ratio}")
    print(f"size-ratio-A-over-k={result.size_ratio}")
    print(f"d-size={final.d_size}")
    print(f"bound-value={float(result.bound_value):.6g}")
    print(f"bound-slack={float(result.bound_value / (1 << result.n)):.6g}")
    print(f"bound-ok={'yes' if result.bound_ok else 'no'}")
    print(f"quotient-steps={len(result.steps) - 1}")
    return 0


def _parse_p(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad fraction {text!r}") from exc


def cmd_certificate(args: argparse.Namespace) -> int:
    A = fileformats.read_set(args.set)
    w = fileformats.read_witness(args.witness)
    if A.ambient.kind != "f2":
        return _fail("certificates need an F2 set")
    if args.p is not None:
        p = _parse_p(args.p)
    else:
        p = polymethod.choose_certificate_p(
            A.ambient.n, (1 << A.ambient.n) - A.N
        )
    cert = polymethod.rank_certificate(A, w, p)
    print(cert.text_report())
    if args.csv_out:
        with open(args.csv_out, "w", encoding="ascii") as fh:
            fh.write(cert.CSV_HEADER + "\n" + cert.csv_row() + "\n")
        print(f"csv written to {args.csv_out}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    spec = generators.SweepSpec(**{f.name: getattr(args, f.name) for f in fields(generators.SweepSpec)})
    text = generators.sweep_csv(generators.run_sweep(spec))
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"csv written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabset",
        description="order-property witnesses in F2^n: verify, solve, construct, compress, certify",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a witness file against a set file")
    p.add_argument("set")
    p.add_argument("witness")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("max-order", help="exact maximal order of an F2 set")
    p.add_argument("set")
    p.add_argument("--time-limit", type=float, default=None, metavar="SECONDS")
    p.add_argument("--node-limit", type=int, default=None, metavar="NODES")
    p.add_argument("--witness-out", default=None, metavar="PATH")
    p.add_argument("--cnf-out", default=None, metavar="PATH")
    p.add_argument("--cnf-k", type=int, default=None, metavar="K")
    p.set_defaults(func=cmd_max_order)

    p = sub.add_parser("construct", help="emit an explicit witnessed instance")
    kinds = p.add_subparsers(dest="kind", required=True)
    ap = kinds.add_parser("ap", help="arithmetic progression in Z")
    ap.add_argument("--start", type=int, required=True)
    ap.add_argument("--diff", type=int, required=True)
    ap.add_argument("--length", type=int, required=True)
    dy = kinds.add_parser("dyadic", help="dyadic block construction")
    dy.add_argument("--l", type=int, required=True)
    for sp in (ap, dy):
        sp.add_argument("--pad-to", type=int, default=None, metavar="N")
        sp.add_argument("--set-out", required=True, metavar="PATH")
        sp.add_argument("--witness-out", required=True, metavar="PATH")
        sp.set_defaults(func=cmd_construct)

    p = sub.add_parser("compress", help="model a witness inside a small F2^n")
    p.add_argument("set")
    p.add_argument("witness")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--set-out", required=True, metavar="PATH")
    p.add_argument("--witness-out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("certificate", help="polynomial rank certificate for a witness")
    p.add_argument("set")
    p.add_argument("witness")
    p.add_argument("--p", default=None, metavar="FRACTION", help="p in (1/2, 1] with p*n integral")
    p.add_argument("--csv-out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_certificate)

    p = sub.add_parser("experiment", help="seeded sweep, one CSV row per instance")
    p.add_argument("--generator", required=True, choices=generators.GENERATORS)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--size-min", type=int, default=1)
    p.add_argument("--size-max", type=int, default=0)
    p.add_argument("--dim-min", type=int, default=0)
    p.add_argument("--dim-max", type=int, default=-1)
    p.add_argument("--l-min", type=int, default=1)
    p.add_argument("--l-max", type=int, default=0)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--node-limit", type=int, default=200_000)
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as exc:  # ParseError is a ValueError
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
