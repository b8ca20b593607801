"""Command-line surface: field reports, eigensystem recovery, regression
verification, and the a_p comparison report; ``bundle`` reads every input.

Exit codes: 0 success, 1 check or comparison failure, 2 input error: any OSError
or ValueError a command raises, which ``main`` prints as one line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import algext
from .bundle import (
    DEFAULT_BUNDLE_DIR,
    BundleError,
    FixtureBundle,
    curve_from_json,
    eigensystem_to_json,
    fixture_oracle_from_json,
    read_json,
    system_from_json,
)
from .characters import character_group, character_order
from .classgroup import compute_class_group
from .eigensystem import hecke_field_report, selftwist_status, twist_orbit
from .quadfield import label, make_field
from .recovery import recover
from .verify import ALL_CHECKS, compare_ap, run_checks


def _bundle_dir(args) -> Path:
    if getattr(args, "bundle", None):
        return Path(args.bundle)
    env = os.environ.get("IQHECKE_BUNDLE")
    return Path(env) if env else DEFAULT_BUNDLE_DIR


def cmd_field(args) -> int:
    K = make_field(args.d)
    group = compute_class_group(K)
    chars = character_group(group)
    if args.json:
        print(
            json.dumps(
                {
                    "d": K.d,
                    "disc": K.disc,
                    "class_group": {
                        "h": group.h,
                        "elementary_divisors": list(group.elementary_divisors),
                        "generators": [[g.a, g.b, g.c] for g in group.generators],
                    },
                    "n_characters": len(chars),
                    "n_quadratic_characters": len(group.two_torsion()),
                    "r2": group.r2,
                },
                indent=1,
            )
        )
        return 0
    print(f"Q(sqrt(-{K.d})): disc {K.disc}")
    if group.elementary_divisors:
        shape = " x ".join(f"C{d}" for d in group.elementary_divisors)
    else:
        shape = "trivial"
    print(f"class group: {shape} (h = {group.h})")
    for g, d in zip(group.generators, group.elementary_divisors):
        print(f"  generator of order {d}: form ({g.a}, {g.b}, {g.c})")
    orders = sorted(character_order(group, chi) for chi in chars)
    print(f"characters: {len(chars)} total, orders {orders}")
    sq, tt = len(group.squares()), len(group.two_torsion())
    print(f"genus data: |CL^2| = {sq}, |CL[2]| = {tt}, r2 = {group.r2}")
    return 0


def _print_system(F):
    print(f"level {label(F.level)}, character exponents {list(F.character.exps)}")
    print(f"value field: {F.vfield.describe()}")
    for p, v in F.alpha:
        print(f"  alpha({label(p)}) = {algext.render_value(v)}")
    if F.al_signs is not None:
        for q, s in F.al_signs:
            print(f"  eps({label(q)}) = {s:+d}")
    st = selftwist_status(F)
    if st.status == "impossible":
        print("self-twist: ruled out")
    else:
        cands = ", ".join(str(list(c.exps)) for c in st.candidates)
        print(f"self-twist: possible (unproven) by characters {cands}")
    rep = hecke_field_report(F)
    print(
        f"Hecke fields: principal degree {rep.principal_degree}, "
        f"full degree {rep.full_degree} (ratio {rep.ratio})"
    )
    print(f"twist orbit size: {len(twist_orbit(F))}")


def cmd_recover(args) -> int:
    group = compute_class_group(make_field(args.field))
    oracle, level = fixture_oracle_from_json(group, read_json(args.oracle))
    if args.level and label(level) != args.level:
        raise BundleError(f"oracle file is for level {label(level)}, not {args.level}")
    # under "skip" an oracle gap is recorded, so only ValueErrors escape
    res = recover(oracle, group, level, bound=args.bound, on_missing="skip")
    if args.json:
        out = eigensystem_to_json(res.system)
        out["alpha_gaps"] = {label(p): str(op) for p, op in res.alpha_gaps}
        out["al_incomplete"] = [label(q) for q in res.al_incomplete]
        print(json.dumps(out, indent=1))
        return 0
    _print_system(res.system)
    if res.alpha_gaps:
        print("oracle gaps:")
        for p, op in res.alpha_gaps:
            print(f"  {label(p)}: no value for {op}")
    if res.al_incomplete:
        labs = ", ".join(label(q) for q in res.al_incomplete)
        print(f"involution signs left undetermined at: {labs}")
    return 0


def cmd_verify(args) -> int:
    results = run_checks(FixtureBundle(_bundle_dir(args)), args.check or None)
    if args.json:
        payload = [
            {
                "name": r.name,
                "status": r.status,
                "detail": r.detail,
                **({"seconds": round(r.seconds, 3)} if args.timing else {}),
            }
            for r in results
        ]
        print(json.dumps(payload, indent=1))
    else:
        for r in results:
            timing = f" [{r.seconds:.2f}s]" if args.timing else ""
            print(f"{r.status:4} {r.name}{timing}: {r.detail}")
    return 1 if any(r.status == "FAIL" for r in results) else 0


def cmd_compare_ap(args) -> int:
    K = make_field(args.field)
    F = system_from_json(compute_class_group(K), read_json(args.eigensystem), args.name)
    curve = curve_from_json(K, read_json(args.curve))
    cmp = compare_ap(F, curve, bound=args.bound)
    if args.json:
        print(
            json.dumps(
                {
                    "curve": curve.get("curve"),
                    "level": label(F.level),
                    "matched": cmp.matched,
                    "mismatched": [
                        {"prime": lab, "form": fv, "curve": cv}
                        for lab, fv, cv in cmp.mismatched
                    ],
                    "missing": cmp.missing,
                    "bad_primes": [
                        {"prime": lab, "ok": ok, "detail": detail}
                        for lab, ok, detail in cmp.bad_prime_checks
                    ],
                    "ok": cmp.ok,
                },
                indent=1,
            )
        )
        return 0 if cmp.ok else 1
    if not cmp.matched and not cmp.mismatched:
        print("warning: no primes compared")
    else:
        print(f"matched primes: {', '.join(cmp.matched) or '(none)'}")
    for lab, fv, cv in cmp.mismatched:
        print(f"MISMATCH at {lab}: form {fv}, curve {cv}")
    for lab in cmp.missing:
        print(f"missing eigenvalue at {lab}")
    for lab, ok, detail in cmp.bad_prime_checks:
        print(f"bad prime {lab}: {detail} -> {'agree' if ok else 'DISAGREE'}")
    print("result:", "match" if cmp.ok else "mismatch")
    return 0 if cmp.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iqhecke",
        description=(
            "Hecke eigensystems over imaginary quadratic fields: exact class-group "
            "and character arithmetic, eigensystem recovery from principal-operator "
            "eigenvalues, and table regression checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="class group and character report")
    p_field.add_argument("d", type=int, help="squarefree d for Q(sqrt(-d))")
    p_field.add_argument("--json", action="store_true")
    p_field.set_defaults(fn=cmd_field)

    p_rec = sub.add_parser("recover", help="run the recovery procedure on an oracle file")
    p_rec.add_argument("--field", type=int, required=True)
    p_rec.add_argument("--level", help="expected level label N.i (cross-checked)")
    p_rec.add_argument("--oracle", required=True, help="principal-operator oracle JSON")
    p_rec.add_argument("--bound", type=int, default=50)
    p_rec.add_argument("--json", action="store_true")
    p_rec.set_defaults(fn=cmd_recover)

    p_ver = sub.add_parser("verify", help="run the fixture regression suite")
    p_ver.add_argument("--bundle", help="bundle directory (default: shipped data)")
    p_ver.add_argument(
        "--check", action="append", metavar="NAME", choices=[name for name, _ in ALL_CHECKS],
        help="run only the named check",
    )
    p_ver.add_argument("--json", action="store_true")
    p_ver.add_argument("--timing", action="store_true")
    p_ver.set_defaults(fn=cmd_verify)

    p_ap = sub.add_parser("compare-ap", help="eigenvalues vs a curve's Frobenius traces")
    p_ap.add_argument("--field", type=int, required=True)
    p_ap.add_argument("--eigensystem", required=True)
    p_ap.add_argument("--name", help="system name inside a table file")
    p_ap.add_argument("--curve", required=True)
    p_ap.add_argument("--bound", type=int)
    p_ap.add_argument("--json", action="store_true")
    p_ap.set_defaults(fn=cmd_compare_ap)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        prefix = "schema error" if args.command == "verify" else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
