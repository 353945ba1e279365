"""Command-line interface.

Verbs: rot, csl, equal, enumerate, census, dirichlet, selftest.  Output is
deterministic (byte-identical across repeated runs); all numbers are
printed exactly.  Exit codes: 0 success, 2 parse error,
3 domain precondition, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BudgetError, DomainError, ParseError
from .field import parse_oint
from .icosian import Icosian, to_icosian
from .quaternion import parse_quat
from . import counting
from .counting import NodeBudget, census, census_csv, census_table, dirichlet_coeffs, f, f_prime_power
from .csl import (
    csl_Lq,
    csl_ideal_form,
    csl_intersection,
    csl_record,
    equal_csl,
    rotation_of,
    sufficient_equal_lemma,
    symmetry_related,
)

SCHEMA = 1

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_BUDGET = 4


def _parse_icosian(text: str, coords: bool) -> Icosian:
    if coords:
        parts = text.strip()
        if parts.startswith("(") and parts.endswith(")"):
            parts = parts[1:-1]
        items = parts.split(",")
        if len(items) != 4:
            raise ParseError(f"expected 4 coordinates: {text!r}")
        return Icosian.from_coords(tuple(parse_oint(p) for p in items))
    q = parse_quat(text)
    ico = to_icosian(q)
    if ico is None:
        raise DomainError(f"{text} is not in the icosian ring")
    return ico


def _emit(payload: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=None, separators=(",", ":"), sort_keys=False))
    else:
        for line in text_lines:
            print(line)


def cmd_rot(args) -> int:
    q = _parse_icosian(args.q, args.coords)
    rot = rotation_of(q)
    primitive = q.is_primitive()
    payload = {"schema": SCHEMA, "primitive": primitive, "admissible": True}
    payload.update(rot.to_json())
    lines = [
        f"q         = {rot.q}",
        f"primitive = {str(primitive).lower()}",
        f"admissible= true",
        f"den       = {rot.den}",
        f"sigma     = {rot.sigma}",
        f"alpha     = {rot.alpha}",
        f"q_alpha   = {rot.q_alpha}",
        "matrix (columns are images of the basis):",
    ]
    for row in rot.matrix:
        lines.append("  [" + ", ".join(str(v) for v in row) + "]")
    _emit(payload, args.output, lines)
    return EXIT_OK


def cmd_csl(args) -> int:
    q = _parse_icosian(args.q, args.coords)
    rec = csl_record(q)
    rot = rec.rotation
    agree = csl_intersection(rot).hnf == rec.csl.hnf == csl_ideal_form(rot).hnf
    payload = {"schema": SCHEMA, **rec.to_json(), "constructions_agree": agree}
    lines = [
        f"sigma = {rot.sigma}",
        f"den   = {rot.den}",
        f"constructions agree = {str(agree).lower()}",
        "csl hnf rows:",
    ]
    for row in rec.csl.hnf:
        lines.append("  [" + ", ".join(str(v) for v in row) + "]")
    _emit(payload, args.output, lines)
    return EXIT_OK


def cmd_equal(args) -> int:
    p1 = _parse_icosian(args.q1, args.coords)
    p2 = _parse_icosian(args.q2, args.coords)
    crit = equal_csl(p1, p2)
    r1, r2 = rotation_of(p1), rotation_of(p2)
    hnf_equal = csl_Lq(r1).hnf == csl_Lq(r2).hnf
    sym = symmetry_related(p1, p2)
    suff = sufficient_equal_lemma(p1, p2)
    payload = {
        "schema": SCHEMA,
        "equal_csl_criterion": crit,
        "equal_csl_hnf": hnf_equal,
        "symmetry_related": sym,
        "sufficient_condition": suff,
    }
    lines = [
        f"equal CSL (criterion) = {str(crit).lower()}",
        f"equal CSL (HNF)       = {str(hnf_equal).lower()}",
        f"symmetry related      = {str(sym).lower()}",
    ]
    _emit(payload, args.output, lines)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    budget = NodeBudget(args.budget)
    reps = counting.enumerate_rotations(args.n, budget=budget)
    hnfs = sorted({csl_record(q).csl.hnf for q in reps})
    payload = {
        "schema": SCHEMA,
        "n": args.n,
        "rotation_classes": len(reps),
        "csl_count": len(hnfs),
        "csls": [[v for row in h for v in row] for h in hnfs],
        "representatives": [q.to_json() for q in reps],
    }
    lines = [f"n = {args.n}", f"rotation classes = {len(reps)}", f"distinct CSLs = {len(hnfs)}"]
    lines += [f"  {q}" for q in reps]
    _emit(payload, args.output, lines)
    return EXIT_OK


def cmd_census(args) -> int:
    budget = NodeBudget(args.budget)
    rows, truncated = census_table(args.nmax, budget=budget)
    if args.output == "json":
        payload = {
            "schema": SCHEMA,
            "nmax": args.nmax,
            "truncated": truncated,
            "rows": [
                {
                    "n": r.n,
                    "rotation_classes": r.rotation_classes,
                    "csl_count": r.csl_count,
                    "f_formula": r.f_formula,
                    "match": r.match,
                }
                for r in rows
            ],
        }
        print(json.dumps(payload, separators=(",", ":")))
    else:
        sys.stdout.write(census_csv(rows, truncated))
    return EXIT_BUDGET if truncated else EXIT_OK


def cmd_dirichlet(args) -> int:
    coeffs = dirichlet_coeffs(args.n)
    if args.output == "json":
        print(json.dumps({"schema": SCHEMA, "coefficients": coeffs}, separators=(",", ":")))
    elif args.output == "csv":
        print("n,f")
        for i, c in enumerate(coeffs, start=1):
            print(f"{i},{c}")
    else:
        print(",".join(str(c) for c in coeffs))
    return EXIT_OK


def _selftest_checks():
    from .lattice import SublatticeL, to_L_coords

    r = _parse_icosian("(t,2*t,0,0)", False)
    s = _parse_icosian("(1+t,t,t,1)", False)

    yield "dirichlet series through 11", lambda: dirichlet_coeffs(11) == [
        1, 5, 10, 20, 6, 50, 50, 80, 90, 30, 144,
    ]
    yield "f(5^1) = 6", lambda: f_prime_power(5, 1) == 6
    yield "f(2^2) = 20", lambda: f_prime_power(2, 2) == 20
    yield "f(11^1) = 144", lambda: f_prime_power(11, 1) == 144
    yield "f(3^2) = 90", lambda: f_prime_power(3, 2) == 90
    yield "f(6) = 50", lambda: f(6) == 50
    yield "f(10) = 30", lambda: f(10) == 30
    yield "example pair is primitive", lambda: r.is_primitive() and s.is_primitive()
    yield "example pair: equal CSL", lambda: equal_csl(r, s)
    yield "example pair: same HNF", lambda: csl_Lq(rotation_of(r)).hnf == csl_Lq(rotation_of(s)).hnf
    yield "example pair: not symmetry related", lambda: not symmetry_related(r, s)
    yield "example pair: sigma = den = 5", lambda: rotation_of(r).sigma == 5 and rotation_of(r).den == 5

    def printed_basis_matches():
        printed = [
            "(1,2,0,0)",
            "(2,-1,0,0)",
            "(3/2,1/2,1/2,1/2)",
            "(-1,1/2,-1/2+1/2*t,-1/2*t)",
        ]
        rows = []
        for text in printed:
            coords = to_L_coords(parse_quat(text))
            if coords is None:
                return False
            rows.append(coords)
        lat = SublatticeL.from_rational_rows(rows)
        return lat.index == 5 and lat.hnf == csl_Lq(rotation_of(r)).hnf

    yield "printed CSL basis: index 5, same HNF", printed_basis_matches

    for n, expect in ((2, 5), (3, 10), (4, 20), (5, 6), (11, 144)):
        yield f"census({n}) counts {expect} CSLs", (
            lambda n=n, expect=expect: census(n).csl_count == expect
        )


def cmd_selftest(args) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            ok = check()
        except Exception as exc:  # noqa: BLE001 - selftest reports, never hides
            ok = False
            name = f"{name} (error: {exc})"
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            failures += 1
    print(f"selftest: {failures} failure(s)")
    return EXIT_OK if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="a4csl", description=__doc__)
    ap.add_argument("--output", choices=("json", "csv", "text"), default="text",
                    help="csv is honoured by census and dirichlet; other verbs print text")
    ap.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility; enumeration is serial")
    ap.add_argument("--budget", type=int, default=counting.DEFAULT_BUDGET,
                    help="maximum enumeration nodes")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("rot", help="inspect a coincidence rotation")
    p.add_argument("q")
    p.add_argument("--coords", action="store_true", help="read q as o-coordinates")
    p.set_defaults(fn=cmd_rot)

    p = sub.add_parser("csl", help="compute the CSL of a rotation")
    p.add_argument("q")
    p.add_argument("--coords", action="store_true")
    p.set_defaults(fn=cmd_csl)

    p = sub.add_parser("equal", help="compare the CSLs of two rotations")
    p.add_argument("q1")
    p.add_argument("q2")
    p.add_argument("--coords", action="store_true")
    p.set_defaults(fn=cmd_equal)

    p = sub.add_parser("enumerate", help="rotation classes of a given index")
    p.add_argument("n", type=int)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("census", help="CSL counts for n = 1..nmax")
    p.add_argument("--nmax", type=int, default=counting.DEFAULT_NMAX)
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("dirichlet", help="counting-series coefficients f(1)..f(N)")
    p.add_argument("n", type=int)
    p.set_defaults(fn=cmd_dirichlet)

    p = sub.add_parser("selftest", help="re-derive the published reference values")
    p.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None) -> int:
    # Exact numbers outgrow Python's limit on int-str conversions (4300
    # digits): lift it while the command runs, and give it back on return.
    if not hasattr(sys, "set_int_max_str_digits"):  # before Python 3.10.7
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.threads < 1:
        ap.error(f"argument --threads: must be at least 1, got {args.threads}")
    if args.budget < 0:
        ap.error(f"argument --budget: must be at least 0, got {args.budget}")
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
