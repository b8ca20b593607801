"""One operation of each workload, and the checks of its output.

Operations call the library through module attributes (``recovery.recover``
and not a by-name import), so that the traced run's patches see the calls
the benchmark makes. Validation runs outside the timed region and returns a
list of problems, empty when the output is correct.
"""

from __future__ import annotations

import bisect
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from iqhecke import algext, eigensystem, quadfield, recovery

from inputs import RECOVERY_BOUND, TABLE_NORM, RoundTripInput, TableInput, restriction_trivial

# -- roundtrip -----------------------------------------------------------------


class CountingOracle:
    """The benchmark's own count of oracle queries, to check the trace."""

    def __init__(self, inner):
        self.inner = inner
        self.queries = 0

    def query(self, op):
        self.queries += 1
        return self.inner.query(op)


def roundtrip_op(inp: RoundTripInput, oracle=None):
    F = inp.system
    oracle = oracle if oracle is not None else recovery.SyntheticOracle(F)
    return recovery.recover(oracle, F.group, F.level, RECOVERY_BOUND, on_missing="skip")


class Unverifiable(Exception):
    """An output that exact arithmetic cannot compare with the expected one.

    The operation counts as failed, with this reason, and not as wrong."""


def degenerate_join(fields) -> bool:
    """True when the join of square-root towers over Q is not a field: some
    product of the adjoined radicands is a square, as for sqrt(-2) next to i
    and sqrt(2). Values in such a tower have no unique coordinates, so
    ``systems_equal`` cannot tell whether two of them are equal."""
    radicands = set()
    for f in fields:
        if f.base_degree != 1:
            return False
        radicands.update(r[0] for r in f.adjoined)
    radicands = sorted(radicands)
    for mask in range(1, 1 << len(radicands)):
        product = Fraction(1)
        for j, r in enumerate(radicands):
            if mask >> j & 1:
                product *= r
        if algext.squarefree_part(product)[1] == 1:
            return True
    return False


def validate_roundtrip(inp: RoundTripInput, res) -> list[str]:
    """No gaps, the recovered system in the twist orbit of F, and a trivial
    recovered character when F's character is trivial on the two-torsion.

    Raises ``Unverifiable`` when the result is not in the orbit and its tower
    joins the orbit's towers into a degenerate one (see ``degenerate_join``).
    """
    F = inp.system
    where = f"d={F.group.field.d} level {quadfield.label(F.level)}"
    problems = []
    if res.alpha_gaps:
        problems.append(f"{where}: synthetic oracle left gaps {res.alpha_gaps}")
    orbit = eigensystem.twist_orbit(F)
    if not any(eigensystem.systems_equal(res.system, H) for H in orbit):
        towers = [res.system.vfield] + [H.vfield for H in orbit]
        if not problems and degenerate_join(towers):
            raise Unverifiable(
                f"recovered tower {res.system.vfield.describe()} is degenerate next to "
                f"{F.vfield.describe()}; orbit membership cannot be decided"
            )
        problems.append(f"{where}: recovered system is not in the twist orbit")
    if restriction_trivial(F) and not res.system.character.is_trivial():
        problems.append(f"{where}: restriction trivial but recovered character is not")
    return problems


# -- tables --------------------------------------------------------------------


def tables_op(inp: TableInput):
    F = inp.system
    table = {
        a: eigensystem.coefficient(F, a)
        for a in inp.ideals
        if quadfield.coprime(a, F.level)
    }
    orbit = eigensystem.twist_orbit(F)
    conjugate = eigensystem.galois_conjugate_system(F)
    selftwist = eigensystem.selftwist_status(F)
    report = eigensystem.hecke_field_report(inp.report_system)
    return table, orbit, conjugate, selftwist, report


MULT_PAIRS = 24
EULER_TERMS = 3


def validate_tables(inp: TableInput, out, rng: random.Random) -> list[str]:
    """a(mn) = a(m) a(n) on coprime pairs drawn from the table, recursion ==
    Euler-factor expansion at every stored prime, and the full Hecke-field
    degree a multiple of the principal one."""
    table, orbit, conjugate, selftwist, report = out
    F = inp.system
    where = f"d={F.group.field.d} level {quadfield.label(F.level)}"
    problems = []
    keys = sorted(table, key=lambda a: a.norm)
    norms = [a.norm for a in keys]
    checked = 0
    for _ in range(50 * MULT_PAIRS):
        if checked == MULT_PAIRS:
            break
        m = rng.choice(keys)
        n = rng.choice(keys[: bisect.bisect_right(norms, TABLE_NORM // m.norm)])
        if m.is_unit() or n.is_unit() or not quadfield.coprime(m, n):
            continue
        mn = quadfield.ideal_mul(m, n)
        checked += 1
        if not algext.values_equal(table[mn], table[m] * table[n]):
            problems.append(f"{where}: a(mn) != a(m) a(n) at {quadfield.label(mn)}")
    if checked < MULT_PAIRS:
        problems.append(f"{where}: only {checked} coprime pairs found in the table")
    for p in F.stored_primes():
        rec = eigensystem.prime_power_coefficients(F, p, EULER_TERMS)
        euler = eigensystem.euler_factor_coefficients(F, p, EULER_TERMS)
        if any(not algext.values_equal(a, b) for a, b in zip(rec, euler)):
            problems.append(f"{where}: recursion != Euler factor at {quadfield.label(p)}")
    if report.full_degree % report.principal_degree:
        problems.append(f"{where}: full degree {report.full_degree} is not a multiple "
                        f"of the principal degree {report.principal_degree}")
    if not any(eigensystem.systems_equal(F, H) for H in orbit):
        problems.append(f"{where}: the system is missing from its own twist orbit")
    if conjugate.level != F.level.conjugate():
        problems.append(f"{where}: conjugate system has the wrong level")
    if selftwist.status not in ("impossible", "possible"):
        problems.append(f"{where}: self-twist status {selftwist.status!r}")
    return problems


# -- verify --------------------------------------------------------------------


def run_process(argv: list[str], env: dict, cwd: Path):
    """Run one child to completion: (wall seconds, peak RSS in KiB, exit code,
    stdout). The child's own peak RSS comes from wait4."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=cwd)
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode, out


VERIFY_ARGV = [sys.executable, "-m", "iqhecke.cli", "verify", "--json"]


def validate_verify(code: int, stdout: bytes, golden: bytes) -> list[str]:
    """Exit code 0, every check PASS, and output byte-identical to the golden
    copy of ``iqhecke verify --json``."""
    if code != 0:
        return [f"iqhecke verify exited with {code}"]
    try:
        got = json.loads(stdout)
    except ValueError:
        return ["iqhecke verify --json printed no JSON"]
    problems = [f"check {r['name']} is {r['status']}" for r in got if r["status"] != "PASS"]
    if stdout != golden:
        want = json.loads(golden)
        diff = [g for g, w in zip(got, want) if g != w] or ["a different number of checks"]
        problems.append(f"output differs from the golden copy at {str(diff[0])[:300]}")
    return problems
