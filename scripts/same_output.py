#!/usr/bin/env python3
"""Dump the outputs a refactor must keep, for a before/after comparison.

    python3 scripts/same_output.py TREE OUT

TREE is the root of a checkout. Its library (``TREE/src``) runs on inputs
from its own benchmark generator (``TREE/perfbench``), which this script only
imports. OUT receives one JSON row per line:

- 360 ``recover`` calls: ``RoundTripSource`` seeds 1-3, 60 systems each, each
  recovered with and without ``sign_flip`` at bound 200 with
  ``on_missing="skip"``. A row holds the recovered system, its gaps and
  whether it lies in the twist orbit of the input system.
- the level-2.1 fixture oracle recovered at bound 13.
- 36 ``TableSource`` operations (seeds 1-3, 12 each) through
  ``workloads.tables_op``.
- one row per eigensystem of the default bundle (14 systems): its JSON, its
  twist orbit, its Galois conjugate, its inner-twist pairs, its Hecke-field
  report and a(p^0), ..., a(p^4) at each stored prime.

That makes 411 rows.

Run one copy of this script, the newer tree's, on both trees and compare the
dumps with ``diff``; it uses only library names that both trees have. A failed
operation is a row with its error, so the row count does not depend on the
outcome.
"""

import json
import os
import random
import sys
import warnings
from pathlib import Path

SEEDS = (1, 2, 3)
RECOVER_SYSTEMS = 60
TABLE_OPS = 12


def main(tree: Path, out: Path) -> int:
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import inputs
    import workloads
    from iqhecke import algext, bundle as bundle_module, eigensystem, quadfield, recovery

    to_json = bundle_module.eigensystem_to_json
    label = quadfield.label

    def attempt(make):
        try:
            return make()
        except Exception as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}

    def recovered(res, F=None):
        row = {
            "system": to_json(res.system),
            "gaps": sorted(label(p) for p, _ in res.alpha_gaps),
            "al_incomplete": sorted(label(q) for q in res.al_incomplete),
        }
        if F is not None:
            orbit = eigensystem.twist_orbit(F)
            row["in_orbit"] = any(eigensystem.systems_equal(res.system, H) for H in orbit)
        return row

    def table_row(inp):
        table, orbit, conjugate, selftwist, report = workloads.tables_op(inp)
        return {
            "table": {label(a): algext.render_value(v) for a, v in table.items()},
            "orbit": [to_json(H) for H in orbit],
            "conjugate": to_json(conjugate),
            "selftwist": [selftwist.status, [list(c.exps) for c in selftwist.candidates]],
            "report": [report.principal_degree, report.full_degree,
                       inp.report_system.vfield.describe()],
        }

    def report_row(F):
        report = eigensystem.hecke_field_report(F)
        k_f, k_F = report.principal_degree, report.full_degree
        return [k_f, k_F, k_F // k_f, F.vfield.describe()]

    def bundle_row(F):
        return {
            "system": to_json(F),
            "orbit": [to_json(H) for H in eigensystem.twist_orbit(F)],
            "conjugate": to_json(eigensystem.galois_conjugate_system(F)),
            "inner_twists": [[tau.describe(), list(psi.exps)]
                             for tau, psi in eigensystem.inner_twist_pairs(F)],
            "report": report_row(F),
            "powers": {label(p): [algext.render_value(v) for v in
                                  eigensystem.prime_power_coefficients(F, p, 4)]
                       for p in F.stored_primes()},
        }

    warnings.simplefilter("ignore")
    groups = inputs.sweep_groups()
    rows = []
    for seed in SEEDS:
        source = inputs.RoundTripSource(groups, random.Random(f"timed:{seed}"))
        for n in range(RECOVER_SYSTEMS):
            F = source.next().system
            for flip in (False, True):
                row = attempt(lambda: recovered(recovery.recover(
                    recovery.SyntheticOracle(F), F.group, F.level, inputs.RECOVERY_BOUND,
                    sign_flip=flip, on_missing="skip"), F))
                rows.append({"recover": [seed, n, flip], "d": F.group.field.d, **row})
    bundle = bundle_module.FixtureBundle()
    oracle, level = bundle.oracles["2.1"]
    rows.append({"oracle_2.1": 13, **attempt(lambda: recovered(
        recovery.recover(oracle, bundle.group, level, 13, on_missing="skip")))})
    for seed in SEEDS:
        source = inputs.TableSource(groups, random.Random(f"timed:{seed}"))
        for n in range(TABLE_OPS):
            inp = source.next()
            rows.append({"tables": [seed, n], "d": inp.system.group.field.d,
                         **attempt(lambda: table_row(inp))})
    for level, table in bundle.eigensystem_tables.items():
        for name, F in table.items():
            rows.append({"bundle": [level, name], **attempt(lambda: bundle_row(F))})
    out.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
    print(f"wrote {len(rows)} rows to {out}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    # set and dict order over string keys must repeat between the two trees
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main(Path(sys.argv[1]).resolve(), Path(sys.argv[2]).resolve()))
