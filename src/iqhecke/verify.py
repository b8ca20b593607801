"""Regression checks over the fixture bundle, shared by pytest and the CLI.

Each check returns a detail string, or raises CheckFailure (the check
fails) or CheckSkipped (the bundle lacks its data).  run_checks turns each
outcome into a CheckResult whose status is PASS, FAIL or SKIP, and a check
that crashes fails alone; the CLI runner prints one line per check and exits
nonzero if any fails.  The checks mirror the package's acceptance
surface: exact class-group facts, the genus-character congruence law, the
level-2.1 recovery regression, synthetic round trips through the recovery
procedure, the multiplicative-relations oracle, dimension-table validation,
structure detectors, the a_p comparison report, and oldform multiplicities.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import tee

from . import algext
from .bundle import FixtureBundle
from .characters import character_group, character_kernel, order_two_characters
from .classgroup import ClassGroup, IdealClass, compute_class_group
from .dimensions import (
    NewformRecord,
    newspace_dims,
    oldclass_principal_multiplicity,
    validate_row,
)
from .eigensystem import (
    EigensystemError,
    HeckeEigensystem,
    euler_factor_coefficients,
    galois_conjugate_system,
    base_change_candidate,
    hecke_field_report,
    has_quadratic_inner_twist,
    inner_twist_pairs,
    make_eigensystem,
    prime_power_coefficients,
    selftwist_status,
    support_subgroup,
    systems_equal,
    twist,
    twist_orbit,
)
from .quadfield import (
    coprime,
    divisors,
    exact_prime_power_divisors,
    factor_rational_prime,
    ideal_from_label,
    ideal_mul,
    ideals_of_norm,
    is_rational_prime,
    label,
    label_key,
    make_field,
    primes_of_norm_up_to,
    sigma0,
    sigma0_quotient,
    unit_ideal,
)
from .recovery import SyntheticOracle, make_principal_operator, recover


@dataclass
class CheckResult:
    name: str
    status: str  # "PASS" | "FAIL" | "SKIP"
    detail: str = ""
    seconds: float = 0.0


class CheckFailure(AssertionError):
    pass


class CheckSkipped(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailure(message)


# -- 1. class-group facts -------------------------------------------------------


def check_class_groups(bundle: FixtureBundle) -> str:
    expectations = {17: (4,), 5: (2,), 23: (3,), 31: (3,), 21: (2, 2)}
    for d, divs in expectations.items():
        g = compute_class_group(make_field(d))
        _require(
            g.elementary_divisors == divs,
            f"class group of Q(sqrt(-{d})) is {g.elementary_divisors}, expected {divs}",
        )
    g17 = bundle.group
    p31 = ideal_from_label(bundle.field, "3.1")
    _require(
        g17.class_order(g17.ideal_class(p31)) == 4,
        "the norm-3 prime 3.1 does not generate the class group of Q(sqrt(-17))",
    )
    return "class groups: -17 C4 (3.1 generates), -5 C2, -23 C3, -31 C3, -21 C2xC2"


# -- 2. genus-character congruence law ------------------------------------------


def _chi2(group: ClassGroup) -> IdealClass:
    cands = order_two_characters(group)
    _require(len(cands) == 1, f"{len(cands)} nontrivial quadratic characters, expected one")
    return cands[0]


def check_genus_character(bundle: FixtureBundle) -> str:
    group = bundle.group
    K = bundle.field
    kernel = character_kernel(group, _chi2(group))
    minus_res = {3, 5, 6, 7, 10, 11, 12, 14}  # +-3, +-5, +-6, +-7 mod 17
    checked = 0
    for p in range(2, 500):
        if not is_rational_prime(p):
            continue
        rec = factor_rational_prime(K, p)
        if rec.kind == "inert":
            continue
        for pp in rec.primes:
            sign = 1 if group.ideal_class(pp) in kernel else -1
            if rec.kind == "ramified":
                _require(sign == 1, f"chi2 at ramified prime above {p} is {sign}")
            else:
                expected = 1 if p % 4 == 1 else -1
                _require(
                    sign == expected,
                    f"chi2 at split prime above {p}: {sign}, expected {expected}",
                )
                minus = p % 4 == 3 and p % 17 in minus_res
                _require(
                    (sign == -1) == minus,
                    f"congruence description fails at p = {p}",
                )
                _require(
                    (group.class_order(group.ideal_class(pp)) == 4) == (sign == -1),
                    f"order-4 class description fails at p = {p}",
                )
            checked += 1
    return f"chi2 congruence law verified at {checked} primes below 500"


# -- 3. level-2.1 recovery regression --------------------------------------------


def check_recovery_2_1(bundle: FixtureBundle) -> str:
    group = bundle.group
    K = bundle.field
    _require("2.1" in bundle.oracles, "bundle has no oracle fixture for level 2.1")
    oracle, level = bundle.oracles["2.1"]
    res = recover(oracle, group, level, bound=13, on_missing="skip")
    F = res.system
    _require(F.character.is_trivial(), "recovered character is not trivial")
    expected = {
        "3.1": "2*sqrt2",
        "3.2": "-2*sqrt2",
        "13.1": "-2",
    }
    amap = F.alpha_map()
    f2 = algext.make_value_field(adjoined=[2])
    for lab, text in expected.items():
        p = ideal_from_label(K, lab)
        _require(p in amap, f"no recovered eigenvalue at {lab}")
        _require(
            algext.values_equal(amap[p], algext.parse_value(f2, text)),
            f"alpha({lab}) = {algext.render_value(amap[p])}, expected {text}",
        )
    q = ideal_from_label(K, "2.1")
    _require(F.al_sign(q) == -1, "involution sign at 2.1 is not -1")
    # twisting the table's first row reproduces all four rows
    F0 = bundle.system("2.1", "F0")
    for j, name in enumerate(["F0", "F1", "F2", "F3"]):
        got = twist(F0, IdealClass((j,)))
        _require(
            systems_equal(got, bundle.system("2.1", name)),
            f"twist by character {j} does not reproduce row {name}",
        )
    # the recovered partial system agrees with F0 at its recovered primes
    for lab in expected:
        p = ideal_from_label(K, lab)
        _require(
            algext.values_equal(amap[p], F0.alpha_map()[p]),
            f"recovered alpha({lab}) differs from the table",
        )
    gaps = sorted(label(p) for p, _ in res.alpha_gaps)
    return (
        "recovered chi0, alpha(3.1)=2*sqrt2, alpha(3.2)=-2*sqrt2, alpha(13.1)=-2, "
        f"eps(2.1)=-1; oracle gaps at {gaps}; all four table rows are twists of F0"
    )


# -- 4. synthetic round trips -----------------------------------------------------


def _restriction_trivial(group: ClassGroup, chi: IdealClass) -> bool:
    """chi = 1 on CL[2]: its kernel holds CL[2]."""
    return group.two_torsion() <= character_kernel(group, chi)


def random_eigensystem(
    group: ClassGroup, rng: random.Random, bound: int = 200
) -> HeckeEigensystem:
    """A random consistent eigensystem seed for round-trip testing.

    The character is trivial (with random involution signs) or has a
    nontrivial restriction to the two-torsion subgroup, so that the recovery
    contract (trivial character whenever the restriction is trivial) can be
    exercised from both sides.
    """
    K = group.field
    while not (choices := ideals_of_norm(K, rng.choice(range(1, 21)))):
        pass
    level = rng.choice(choices)
    nontrivial_restriction = [
        chi for chi in character_group(group) if not _restriction_trivial(group, chi)
    ]
    mode = rng.random()
    if nontrivial_restriction and mode < 0.35:
        chi = rng.choice(nontrivial_restriction)
        al = None
    elif mode < 0.75:
        chi = group.identity()
        al = {q: rng.choice([1, -1]) for q in exact_prime_power_divisors(level)}
    else:
        # arbitrary character; systems with nontrivial character carry no
        # involution data, and a trivial-character seed may lack it too
        chi = rng.choice(character_group(group))
        al = None
        if chi.is_trivial() and rng.random() < 0.5:
            al = {q: rng.choice([1, -1]) for q in exact_prime_power_divisors(level)}
    f = algext.make_value_field(adjoined=[2] if rng.random() < 0.5 else [])
    syms = algext.field_symbols(f)
    sqrt2 = syms.get("sqrt2")

    # (x, y) -> x + y*sqrt2 (1 for 0 + 0*sqrt2), y = 0 without a second
    # draw; each value is built on its first draw and read after that
    zero, values = algext.zero(f), {(0, 0): algext.one(f)}

    def random_value():
        if rng.random() < 0.12:
            return zero
        x = rng.randint(-4, 4)
        y = rng.randint(-3, 3) if sqrt2 is not None and rng.random() < 0.7 else 0
        v = values.get((x, y))
        if v is None:
            v = values[x, y] = algext.from_rational(f, x) + (sqrt2.scale(y) if y else zero)
        return v

    alpha = {}
    for p in primes_of_norm_up_to(K, bound):
        if coprime(p, level):
            alpha[p] = random_value()
    return make_eigensystem(group, level, chi, alpha, al, vfield=f)


ROUND_TRIP_FIELDS = (1, 5, 23, 17, 21)
ROUND_TRIP_COUNT = 100  # systems, spread evenly over the fields
ROUND_TRIP_BOUND = 200  # norm bound of the stored primes and of recovery


def check_round_trip(bundle: FixtureBundle) -> str:
    rng = random.Random(68)
    groups = [compute_class_group(make_field(d)) for d in ROUND_TRIP_FIELDS]
    per_field = -(-ROUND_TRIP_COUNT // len(groups))
    done = 0
    for group in groups:
        for _ in range(per_field):
            F = random_eigensystem(group, rng, ROUND_TRIP_BOUND)
            res = recover(SyntheticOracle(F), group, F.level, ROUND_TRIP_BOUND, on_missing="skip")
            _require(
                not res.alpha_gaps,
                f"synthetic oracle left eigenvalue gaps: {res.alpha_gaps}",
            )
            # twists are built until one matches; the sign-flip test reuses them
            twists, again = tee(twist(F, psi) for psi in character_group(group))
            _require(
                any(systems_equal(res.system, H) for H in twists),
                f"recovered system not in the twist orbit (d={group.field.d}, "
                f"level {label(F.level)})",
            )
            if _restriction_trivial(group, F.character):
                _require(
                    res.system.character.is_trivial(),
                    "restriction trivial but recovered character is not",
                )
            # a flipped sign convention lands in the same orbit
            if done % 10 == 0:
                res2 = recover(
                    SyntheticOracle(F),
                    group,
                    F.level,
                    ROUND_TRIP_BOUND,
                    sign_flip=True,
                    on_missing="skip",
                )
                _require(
                    any(systems_equal(res2.system, H) for H in again),
                    "sign-flipped recovery left the twist orbit",
                )
            done += 1
    return f"{done} synthetic round trips across fields {ROUND_TRIP_FIELDS}"


# -- 5. multiplicative relations ---------------------------------------------------


def check_mult_relations(bundle: FixtureBundle) -> str:
    checked = 0
    for level, table in bundle.eigensystem_tables.items():
        for name, F in table.items():
            for p in F.stored_primes():
                rec = prime_power_coefficients(F, p, 4)
                eul = euler_factor_coefficients(F, p, 4)
                for n in range(5):
                    _require(
                        algext.values_equal(rec[n], eul[n]),
                        f"{level}/{name}: recursion and Euler factor disagree "
                        f"at {label(p)}^{n}",
                    )
                checked += 1
    return f"recursion == Euler-factor expansion for {checked} stored primes (n <= 4)"


# -- 6. dimension-table validation --------------------------------------------------


def check_dimension_table(bundle: FixtureBundle) -> str:
    rows = bundle.dimension_rows
    _require(rows, "bundle has no dimension table")
    records = bundle.newform_records()
    reports = [validate_row(bundle.group, row, records) for row in rows]
    failures = [f"{r.level}: {'; '.join(r.violations)}" for r in reports if not r.ok]
    _require(not failures, " | ".join(failures))
    row64 = next(r for r in rows if r.level == "64.1")
    dim_h = sum(row64.hplus) + sum(row64.hminus)
    _require(
        4 * dim_h - row64.nd == 4,
        "the 64.1 deficit is not 4",
    )
    for row in rows:
        if row.level == "64.1":
            continue
        _require(
            row.nd == 4 * (sum(row.hplus) + sum(row.hminus)),
            f"{row.level}: nd != 4 dim H on a row without self-twist",
        )
    # inclusion-exclusion consistency of the newspace formula over the table
    K = bundle.field
    nd = {ideal_from_label(K, r.level): r.nd for r in rows}
    nd.update({ideal_from_label(K, r.conj): r.nd for r in rows if r.conj})
    levels = set(nd)
    for n in nd:
        levels.update(divisors(n))
    full = {
        n: sum(sigma0_quotient(n, m) * nd[m] for m in divisors(n) if nd.get(m))
        for n in levels
    }
    recovered = newspace_dims(full)
    for n in levels:
        _require(
            recovered[n] == nd.get(n, 0),
            f"newspace formula does not invert at {label(n)}",
        )
    return f"all {len(rows)} table rows validate; deficit 4 exactly at 64.1"


# -- 7. structure detectors -----------------------------------------------------------


def separation_eigenvalues(bundle: FixtureBundle) -> dict[str, Fraction]:
    """Eigenvalues of the principal operator T_{3.1,3.1} T_{3.1^2} on the four
    homological systems under level 16.1, recomputed from the fixture tables
    through the principal projection."""
    group = bundle.group
    K = bundle.field
    level = ideal_from_label(K, "16.1")
    op = make_principal_operator(
        group,
        level,
        aa=ideal_from_label(K, "3.1"),
        t=ideal_from_label(K, "9.1"),
    )
    out = {}
    for name in ["F1", "F2", "F4", "F6"]:
        F = bundle.system("16.1", name)
        v = SyntheticOracle(F).query(op)
        _require(v.is_rational(), f"separation eigenvalue at {name} is irrational")
        out[name] = v.rational_value()
    return out


def check_structure_detectors(bundle: FixtureBundle) -> str:
    group = bundle.group
    details = []

    F0 = bundle.system("2.1", "F0")
    chi2 = _chi2(group)
    _require(
        any(
            psi == chi2 and tau.describe() == "sqrt2 -> -sqrt2"
            for tau, psi in inner_twist_pairs(F0)
        ),
        "F0 at 2.1 is missing the inner twist (sqrt2 -> -sqrt2, chi2)",
    )
    _require(
        systems_equal(galois_conjugate_system(F0), bundle.system("2.1", "F2")),
        "conjugating F0 at 2.1 does not give F2",
    )
    for name, expected in [("F1", True), ("F3", True), ("F0", False)]:
        got = base_change_candidate(bundle.system("2.1", name))
        _require(
            got == expected,
            f"base-change flag for {name} at 2.1 is {got}, expected {expected}",
        )
    details.append("2.1: inner twist, conjugation, base-change flags as published")

    rep0 = hecke_field_report(F0)
    _require(
        (rep0.principal_degree, rep0.full_degree) == (1, 2),
        f"2.1 F0 Hecke fields have degrees {(rep0.principal_degree, rep0.full_degree)}",
    )
    rep25 = hecke_field_report(bundle.system("25.1", "F0"))
    _require(
        (rep25.principal_degree, rep25.full_degree) == (3, 3),
        f"25.1 Hecke fields have degrees {(rep25.principal_degree, rep25.full_degree)}",
    )

    # 16.1 orbit shapes: one joined degree-4 orbit, three quadratic-twist pairs
    F1 = bundle.system("16.1", "F1")
    _require(
        has_quadratic_inner_twist(F1),
        "16.1 F1 is not conjugate to its quadratic twist",
    )
    rep1 = hecke_field_report(F1)
    _require(
        (rep1.principal_degree, rep1.full_degree) == (1, 4),
        f"16.1 F1 Hecke fields have degrees {(rep1.principal_degree, rep1.full_degree)}",
    )
    for name in ["F2", "F4", "F6"]:
        F = bundle.system("16.1", name)
        _require(
            not has_quadratic_inner_twist(F),
            f"16.1 {name} unexpectedly conjugate to its quadratic twist",
        )
        rep = hecke_field_report(F)
        _require(
            (rep.principal_degree, rep.full_degree) == (1, 2),
            f"16.1 {name} Hecke fields have degrees "
            f"{(rep.principal_degree, rep.full_degree)}",
        )
    for a, b in [("F2", "F3"), ("F4", "F5"), ("F6", "F7")]:
        _require(
            systems_equal(twist(bundle.system("16.1", a), chi2), bundle.system("16.1", b)),
            f"16.1 {a} and {b} are not quadratic twists",
        )
    seps = separation_eigenvalues(bundle)
    _require(
        len(set(seps.values())) == 4,
        f"separation eigenvalues do not separate the four systems: {seps}",
    )
    details.append(
        "16.1: joined degree-4 orbit + three twist-paired Q(i) orbits; "
        f"separating eigenvalues {sorted(seps.values())}"
    )

    # 64.1 self-twist screening
    F64 = bundle.system("64.1", "selftwist")
    st = selftwist_status(F64, bound=25)
    _require(
        st.status == "possible" and st.candidates == (chi2,),
        f"64.1 self-twist screening returned {st}",
    )
    orbit64 = twist_orbit(F64)
    _require(len(orbit64) == 2, f"64.1 twist orbit has size {len(orbit64)}")
    sup = support_subgroup(F64)
    _require(sup.index == 2, f"64.1 support subgroup has index {sup.index}")
    st0 = selftwist_status(F0)
    _require(
        st0.status == "impossible",
        "2.1 F0 self-twist should be ruled out by a nonzero order-4-class eigenvalue",
    )
    details.append("64.1: possible self-twist by chi2, orbit size 2, support index 2")
    return "; ".join(details)


# -- Hecke-field table cross-checks -------------------------------------------------------


def check_hecke_fields(bundle: FixtureBundle) -> str:
    if bundle.hecke_field_rows is None:
        raise CheckSkipped("bundle has no Hecke-field table")
    rows = bundle.hecke_field_rows
    # degrees recomputed from the fixture eigensystems match the table
    expectations = {
        ("2.1", 1): bundle.system("2.1", "F0"),
        ("25.1", 1): bundle.system("25.1", "F0"),
    }
    for (lev, idx), F in expectations.items():
        row = next(r for r in rows if r.level == lev and r.index == idx)
        rep = hecke_field_report(F)
        _require(
            (rep.principal_degree, rep.full_degree) == (row.kf_degree, row.kF_degree),
            f"{lev}#{idx}: computed degrees "
            f"{(rep.principal_degree, rep.full_degree)} vs table "
            f"{(row.kf_degree, row.kF_degree)}",
        )
    # the bundle checked kF_degree in (d, 2d) and the H+ coverage at load
    return f"{len(rows)} Hecke-field rows consistent with the dimension table"


# -- 8. a_p comparison -----------------------------------------------------------------


@dataclass
class ApComparison:
    matched: list = dc_field(default_factory=list)
    mismatched: list = dc_field(default_factory=list)
    missing: list = dc_field(default_factory=list)
    bad_prime_checks: list = dc_field(default_factory=list)  # (label, ok, detail)

    @property
    def ok(self) -> bool:
        return (
            not self.mismatched
            and not self.missing
            and all(ok for _, ok, _ in self.bad_prime_checks)
        )


def compare_ap(F: HeckeEigensystem, curve: dict, bound: int | None = None) -> ApComparison:
    """Compare stored eigenvalues against a curve's traces of Frobenius, and
    the involution sign against the curve's local data at the bad prime; the
    curve is a record as ``bundle.curve_from_json`` checks it, of conductor F.level."""
    K, conductor = F.group.field, curve["conductor"]
    if ideal_from_label(K, conductor) != F.level:
        raise EigensystemError(f"level {label(F.level)} is not the curve's conductor {conductor}")
    out = ApComparison()
    amap = F.alpha_map()

    def by_label(entries: dict) -> list:
        """(ideal, label, value) for each entry, in label order."""
        triples = [(ideal_from_label(K, lab), lab, v) for lab, v in entries.items()]
        return sorted(triples, key=lambda t: label_key(t[0]))

    for p, lab, ap in by_label(curve.get("ap", {})):
        if bound is not None and p.norm > bound:
            continue
        if not coprime(p, F.level):
            continue
        if p not in amap:
            out.missing.append(lab)
            continue
        v = amap[p]
        if v.is_rational() and v.rational_value() == ap:
            out.matched.append(lab)
        else:
            out.mismatched.append((lab, algext.render_value(v), ap))
    for q, lab, rec in by_label(curve.get("bad_primes", {})):
        try:
            eps = F.al_sign(q)
        except EigensystemError:
            out.bad_prime_checks.append((lab, False, "no involution sign stored"))
            continue
        ok = rec["ap"] == eps
        detail = f"eps={eps:+d}, curve a={rec['ap']:+d} ({rec['reduction']})"
        out.bad_prime_checks.append((lab, ok, detail))
    return out


def check_compare_ap(bundle: FixtureBundle) -> str:
    curve = bundle.curves.get("2.0.68.1-7.2-a2")
    _require(curve is not None, "bundle has no curve fixture 2.0.68.1-7.2-a2")
    F = bundle.system("7.2", "a")
    cmp = compare_ap(F, curve)
    _require(not cmp.missing, f"missing eigenvalues at {cmp.missing}")
    _require(not cmp.mismatched, f"mismatches at {cmp.mismatched}")
    _require(len(cmp.matched) == 12, f"expected 12 matched primes, got {len(cmp.matched)}")
    _require(
        cmp.bad_prime_checks and all(ok for _, ok, _ in cmp.bad_prime_checks),
        f"bad-prime Euler comparison failed: {cmp.bad_prime_checks}",
    )
    return "7.2-a matches the curve at all 12 good primes and the bad-prime sign (+1, nonsplit)"


# -- 9. oldform multiplicities ------------------------------------------------------------


def check_oldform_multiplicities(bundle: FixtureBundle) -> str:
    rng = random.Random(17)
    group = bundle.group
    K = bundle.field
    chi2 = _chi2(group)
    kernel = character_kernel(group, chi2)
    cases = 0
    for _ in range(120):
        m = rng.choice(list(ideals_of_norm(K, rng.randint(1, 12)) or [unit_ideal(K)]))
        extra = rng.choice(list(ideals_of_norm(K, rng.randint(1, 20)) or [unit_ideal(K)]))
        n = ideal_mul(m, extra)
        quotient_sigma0 = sigma0(extra)
        plain = NewformRecord(level=m, side="plus", degree=1)
        twisted = NewformRecord(level=m, side="plus", degree=1, selftwist=chi2)
        mult_plain = oldclass_principal_multiplicity(group, plain, n)
        mult_tw = oldclass_principal_multiplicity(group, twisted, n)
        _require(mult_plain == quotient_sigma0, "multiplicity without self-twist != sigma0")
        _require(mult_tw <= quotient_sigma0, "self-twist multiplicity exceeds sigma0")
        if mult_tw == quotient_sigma0:
            _require(
                all(group.ideal_class(d) in kernel for d in divisors(extra)),
                "equality without chi2 = +1 on every divisor",
            )
        cases += 1
    # the single-prime step with psi(p) = -1 gives multiplicity exactly 1
    p = next(
        pp
        for pp in primes_of_norm_up_to(K, 50)
        if group.ideal_class(pp) not in kernel
    )
    m = unit_ideal(K)
    rec = NewformRecord(level=m, side="plus", degree=1, selftwist=chi2)
    _require(
        oldclass_principal_multiplicity(group, rec, p) == 1,
        "psi(p) = -1 prime step does not give multiplicity 1",
    )
    return f"{cases} random (m, n) cases plus the psi(p) = -1 prime step"


# -- runner ------------------------------------------------------------------------------


ALL_CHECKS = [
    ("class-groups", check_class_groups),
    ("genus-character-law", check_genus_character),
    ("recovery-2.1", check_recovery_2_1),
    ("round-trip", check_round_trip),
    ("mult-relations", check_mult_relations),
    ("dimension-table", check_dimension_table),
    ("structure-detectors", check_structure_detectors),
    ("hecke-fields", check_hecke_fields),
    ("compare-ap-7.2", check_compare_ap),
    ("oldform-multiplicities", check_oldform_multiplicities),
]


def run_checks(bundle: FixtureBundle, names: list[str] | None = None) -> list[CheckResult]:
    results = []
    for name, fn in ALL_CHECKS:
        if names and name not in names:
            continue
        t0 = time.perf_counter()
        try:
            status, detail = "PASS", fn(bundle)
        except CheckFailure as exc:
            status, detail = "FAIL", str(exc)
        except CheckSkipped as exc:
            status, detail = "SKIP", str(exc)
        except Exception as exc:  # a crashing check fails alone; the rest still run
            status, detail = "FAIL", f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, status, detail, time.perf_counter() - t0))
    return results
