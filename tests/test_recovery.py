import json
import random
import re
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from iqhecke import algext, quadfield, recovery
from iqhecke.algext import values_equal
from iqhecke.bundle import DEFAULT_BUNDLE_DIR, fixture_oracle_from_json
from iqhecke.classgroup import IdealClass, compute_class_group
from iqhecke.eigensystem import make_eigensystem, systems_equal, twist_orbit
from iqhecke.quadfield import (
    ideal_from_label,
    is_prime_ideal,
    label,
    make_field,
    primes_of_norm_up_to,
    principal_ideal,
    unit_ideal,
)
from iqhecke.recovery import (
    FixtureOracle,
    OracleMissingError,
    PrincipalOperator,
    RecoveryError,
    SyntheticOracle,
    double_sign_table,
    make_principal_operator,
    recover,
)
from iqhecke.verify import random_eigensystem, run_checks
from reference_search import first_ideal


def load_oracle(G17):
    data = json.loads((DEFAULT_BUNDLE_DIR / "oracle_2.1.json").read_text())
    return fixture_oracle_from_json(G17, data)


def test_principality_enforced(G17, K17):
    level = ideal_from_label(K17, "2.1")
    p31 = ideal_from_label(K17, "3.1")
    p131 = ideal_from_label(K17, "13.1")
    # T_{13.1,13.1} T_{13.1} has total class c^2: not principal
    with pytest.raises(RecoveryError):
        make_principal_operator(G17, level, aa=p131, t=p131)
    # T_{3.1} alone is not principal either
    with pytest.raises(RecoveryError):
        make_principal_operator(G17, level, t=p31)
    op = make_principal_operator(G17, level, aa=p31, t=p131)
    assert str(op) == "T(3.1,3.1)*T(13.1)"
    # parts must be coprime to the level
    with pytest.raises(RecoveryError):
        make_principal_operator(G17, level, t=principal_ideal(K17, 4, 0))
    # W-part must exactly divide the level
    with pytest.raises(RecoveryError):
        make_principal_operator(
            G17, principal_ideal(K17, 4, 0), aa=p31, w=ideal_from_label(K17, "2.1")
        )


def test_non_principal_operator_raises_on_every_call(G17, K17):
    # the memoised class test stores no failure
    level = ideal_from_label(K17, "2.1")
    p131 = ideal_from_label(K17, "13.1")
    for _ in range(2):
        with pytest.raises(RecoveryError, match="not principal"):
            make_principal_operator(G17, level, aa=p131, t=p131)


def test_memoised_operator_still_checks_the_level(G17, K17):
    # an operator accepted at one level meets the level checks again at another
    p21, p31, p131 = (ideal_from_label(K17, lab) for lab in ("2.1", "3.1", "13.1"))
    op = make_principal_operator(G17, p21, aa=p31, t=p131)
    assert make_principal_operator(G17, ideal_from_label(K17, "7.1"), aa=p31, t=p131) is op
    for level in ("3.1", "6.1", "13.1", "26.1"):
        with pytest.raises(RecoveryError, match="coprime to the level"):
            make_principal_operator(G17, ideal_from_label(K17, level), aa=p31, t=p131)
    # at the conjugate primes the norms share 3 or 13 with N(level), but the
    # parts are coprime to the level: the norm test fails and coprime decides
    for level in ("3.2", "13.2"):
        n = ideal_from_label(K17, level)
        assert gcd(p31.norm * p131.norm, n.norm) != 1
        assert make_principal_operator(G17, n, aa=p31, t=p131) is op
    # a part over another field is rejected although its norm is prime to N(level)
    with pytest.raises(quadfield.QuadFieldError, match="different fields"):
        make_principal_operator(G17, p21, aa=ideal_from_label(make_field(5), "3.1"))
    w_op = make_principal_operator(G17, p21, aa=p31, w=p21)
    assert str(w_op) == "T(3.1,3.1)*W(2.1)"
    with pytest.raises(RecoveryError, match="not an exact divisor"):
        make_principal_operator(G17, principal_ideal(K17, 4, 0), aa=p31, w=p21)
    with pytest.raises(RecoveryError, match="not an exact divisor"):
        make_principal_operator(G17, ideal_from_label(K17, "13.2"), aa=p31, w=p21)


def test_fixture_recovery(G17, K17):
    oracle, level = load_oracle(G17)
    res = recover(oracle, G17, level, bound=13, on_missing="skip")
    F = res.system
    assert F.character.is_trivial()
    f2 = algext.make_value_field(adjoined=[2])
    expected = {
        "3.1": algext.parse_value(f2, "2*sqrt2"),
        "3.2": algext.parse_value(f2, "-2*sqrt2"),
        "13.1": algext.parse_value(f2, "-2"),
    }
    amap = F.alpha_map()
    for lab, want in expected.items():
        assert values_equal(amap[ideal_from_label(K17, lab)], want)
    assert F.al_sign(ideal_from_label(K17, "2.1")) == -1
    assert {str(p.norm) + "." for p, _ in res.alpha_gaps} == {"7.", "11.", "13."}
    assert res.al_incomplete == []


def test_fixture_recovery_strict_mode_raises(G17, K17):
    oracle, level = load_oracle(G17)
    with pytest.raises(OracleMissingError):
        recover(oracle, G17, level, bound=13, on_missing="error")
    with pytest.raises(RecoveryError, match="bad on_missing='ignore'"):
        recover(oracle, G17, level, bound=13, on_missing="ignore")


def test_synthetic_oracle_answers_principal_operators(bundle, G17, K17):
    F0 = bundle.system("2.1", "F0")
    oracle = SyntheticOracle(F0)
    level = F0.level
    p31 = ideal_from_label(K17, "3.1")
    op = make_principal_operator(G17, level, aa=p31, t=ideal_from_label(K17, "9.1"))
    assert values_equal(oracle.query(op), algext.from_rational(F0.vfield, 5))
    trivial = make_principal_operator(G17, level)
    assert values_equal(oracle.query(trivial), algext.one(F0.vfield))
    # F0 and F2 are twists, so their principal projections agree everywhere
    oracle2 = SyntheticOracle(bundle.system("2.1", "F2"))
    ops = [
        op,
        trivial,
        make_principal_operator(G17, level, t=ideal_from_label(K17, "9.2")),
        make_principal_operator(G17, level, aa=p31, t=ideal_from_label(K17, "13.1")),
        make_principal_operator(G17, level, aa=p31, w=ideal_from_label(K17, "2.1")),
        make_principal_operator(G17, level, t=ideal_from_label(K17, "17.1")),
    ]
    for o in ops:
        assert values_equal(oracle.query(o), oracle2.query(o))
    # chi is 0 at a part that meets the level, also under the trivial character
    assert F0.character.is_trivial()
    at_level = PrincipalOperator(level, ideal_from_label(K17, "9.1"))
    assert not oracle.query(op).is_zero() and oracle.query(at_level).is_zero()


def test_oracle_coverage_errors(bundle, G17, K17):
    F0 = bundle.system("2.1", "F0")
    oracle = SyntheticOracle(F0)
    # the primes above 53 are principal (53 = 6^2 + 17) but not stored in F0
    op = make_principal_operator(G17, F0.level, t=ideal_from_label(K17, "53.1"))
    with pytest.raises(OracleMissingError):
        oracle.query(op)


def test_class_number_one_recovery_is_exact():
    g = compute_class_group(make_field(1))
    rng = random.Random(5)
    F = random_eigensystem(g, rng, bound=80)
    res = recover(SyntheticOracle(F), g, F.level, 80)
    # with h = 1 every operator is principal and the source comes back exactly
    assert systems_equal(res.system, F)


def test_16_1_round_trip(bundle, G17):
    for name in ["F1", "F2", "F4", "F6"]:
        F = bundle.system("16.1", name)
        res = recover(SyntheticOracle(F), G17, F.level, bound=17)
        orbit = twist_orbit(F)
        assert any(systems_equal(res.system, H) for H in orbit)
        assert res.system.character in (IdealClass((1,)), IdealClass((3,)))


def test_sign_flip_lands_in_same_orbit(bundle, G17):
    F0 = bundle.system("2.1", "F0")
    res_a = recover(SyntheticOracle(F0), G17, F0.level, bound=25)
    res_b = recover(SyntheticOracle(F0), G17, F0.level, bound=25, sign_flip=True)
    orbit = twist_orbit(F0)
    assert any(systems_equal(res_a.system, H) for H in orbit)
    assert any(systems_equal(res_b.system, H) for H in orbit)
    assert not systems_equal(res_a.system, res_b.system)


@pytest.mark.parametrize("sign_flip", [False, True])
@pytest.mark.parametrize("d", [14, 65, 105])  # C4, C2 x C4, C2^3: the widest sign tables
def test_round_trip_at_wide_sign_tables(d, sign_flip):
    g = compute_class_group(make_field(d))
    rng = random.Random(d)
    for _ in range(4):
        F = random_eigensystem(g, rng, 200)
        res = recover(SyntheticOracle(F), g, F.level, 200, sign_flip=sign_flip, on_missing="skip")
        assert not res.alpha_gaps
        assert any(systems_equal(res.system, H) for H in twist_orbit(F))


def test_sign_table_doubles_and_caps():
    g = compute_class_group(make_field(21))  # C2 x C2, r2 = 2
    table = {}
    f = algext.RATIONAL_FIELD
    pool = primes_of_norm_up_to(g.field, 60)
    used = []
    for p in pool:
        cls = g.ideal_class(p)
        if cls.is_trivial() or cls in g.squares():
            continue
        if g.genus(cls) not in table:
            double_sign_table(g, table, p, algext.from_rational(f, 1))
            used.append(p)
        if len(table) + 1 == 4:  # counting the implicit ((1), 1) entry
            break
    assert len(table) + 1 == 4  # 2^r2
    assert len(used) == 2  # doubled exactly r2 times


def test_character_probe_must_be_sign(G17, K17):
    level = ideal_from_label(K17, "2.1")
    op = make_principal_operator(G17, level, aa=ideal_from_label(K17, "9.1"))
    bad = FixtureOracle({op: algext.from_rational(algext.RATIONAL_FIELD, 3)})
    with pytest.raises(RecoveryError):
        recover(bad, G17, level, bound=3)


@pytest.mark.parametrize("adjoined", [[], [2], [-1, 2]], ids=["Q", "Q(sqrt2)", "Q(i, sqrt2)"])
def test_sign_accepts_exactly_plus_or_minus_one(adjoined):
    f = algext.make_value_field(adjoined=adjoined)
    for s in (1, -1):
        got = recovery._sign(algext.from_rational(f, s), "sign")
        assert got == s and type(got) is int
    bad = [algext.zero(f), algext.from_rational(f, 2), algext.from_rational(f, Fraction(-1, 2))]
    if 2 in adjoined:
        bad.append(algext.parse_value(f, "1+sqrt2"))
    for v in bad:
        with pytest.raises(RecoveryError) as err:
            recovery._sign(v, "involution sign at 2.1 is")
        assert str(err.value) == f"involution sign at 2.1 is {algext.render_value(v)}, not +-1"
    if 2 in adjoined:
        assert str(err.value) == "involution sign at 2.1 is 1 + sqrt2, not +-1"


def test_oracle_fixture_round_trip_serialization(G17):
    data = json.loads((DEFAULT_BUNDLE_DIR / "oracle_2.1.json").read_text())
    oracle, level = fixture_oracle_from_json(G17, data)
    assert len(oracle.mapping) == len(data["values"])
    for row in data["values"]:
        op = make_principal_operator(
            G17,
            level,
            aa=ideal_from_label(G17.field, row["aa"]) if row["aa"] else None,
            t=ideal_from_label(G17.field, row["t"]) if row["t"] else None,
            w=ideal_from_label(G17.field, row["w"]) if row["w"] else None,
        )
        assert values_equal(
            oracle.query(op),
            algext.parse_value(algext.RATIONAL_FIELD, str(row["value"])),
        )


def test_selftwist_pattern_round_trip(bundle, G17):
    # all eigenvalues vanish in the order-4 classes: the sign table never
    # fires and the zero branch of the nonsquare route is exercised
    F64 = bundle.system("64.1", "selftwist")
    restricted = make_eigensystem(
        G17,
        F64.level,
        F64.character,
        {p: v for p, v in F64.alpha if p.norm <= 13},
        None,
        vfield=F64.vfield,
    )
    res = recover(
        SyntheticOracle(restricted), G17, F64.level, bound=13, on_missing="skip"
    )
    assert res.system.character.is_trivial()
    assert not res.alpha_gaps
    assert res.al_incomplete  # the fixture carries no involution signs
    orbit = twist_orbit(restricted)
    assert len(orbit) == 2
    assert any(systems_equal(res.system, H) for H in orbit)
    amap = res.system.alpha_map()
    assert all(amap[p].is_zero() for p in amap if G17.class_order(G17.ideal_class(p)) == 4)


def test_projection_is_twist_invariant(bundle, G17, K17):
    from iqhecke.characters import character_group
    from iqhecke.eigensystem import twist

    F0 = bundle.system("2.1", "F0")
    level = F0.level
    p31 = ideal_from_label(K17, "3.1")
    ops = [
        make_principal_operator(G17, level, aa=p31, t=ideal_from_label(K17, "9.1")),
        make_principal_operator(G17, level, t=ideal_from_label(K17, "9.2")),
        make_principal_operator(G17, level, aa=p31, t=ideal_from_label(K17, "13.1")),
        make_principal_operator(G17, level, t=ideal_from_label(K17, "17.1")),
        make_principal_operator(G17, level, t=ideal_from_label(K17, "25.1")),
        make_principal_operator(
            G17, level, t=ideal_from_label(K17, "21.2")
        ),  # 3.1 * 7.2, principal
    ]
    base = SyntheticOracle(F0)
    for psi in character_group(G17):
        other = SyntheticOracle(twist(F0, psi))
        for op in ops:
            assert values_equal(base.query(op), other.query(op))


def recover_at_31(g, zeroed, sign):
    """Recover a trivial-character system at level 3.1 in Q(sqrt(-17)) with
    alpha = 0 on the classes in zeroed, 2 elsewhere, and eps(3.1) = sign."""
    level = ideal_from_label(g.field, "3.1")
    f = algext.RATIONAL_FIELD
    alpha = {
        p: algext.zero(f) if g.ideal_class(p) in zeroed else algext.from_rational(f, 2)
        for p in primes_of_norm_up_to(g.field, 30)
        if p.norm % 3
    }
    F = make_eigensystem(g, level, IdealClass((0,)), alpha, {level: sign}, f)
    return level, recover(SyntheticOracle(F), g, level, bound=30, on_missing="skip")


@pytest.mark.parametrize("sign", [1, -1])
def test_al_sign_read_from_the_genus_entry(G17, K17, sign):
    # 3.1 sits in a nonsquare class; with every eigenvalue zero in the
    # inverse class, the sign table's entry for 3.1's genus still gives eps
    inverse = G17.inv(G17.ideal_class(ideal_from_label(K17, "3.1")))
    level, res = recover_at_31(G17, {inverse}, sign)
    assert res.al_incomplete == [] and res.system.al_sign(level) == sign


def test_al_incomplete_reported(G17, K17):
    # with every eigenvalue zero in the genus of 3.1 the sign is unreachable
    genus = G17.genus(G17.ideal_class(ideal_from_label(K17, "3.1")))
    zeroed = {c for c in G17.all_classes() if G17.genus(c) == genus}
    level, res = recover_at_31(G17, zeroed, 1)
    assert res.al_incomplete == [level]


def test_a_missing_involution_sign_is_a_gap_or_an_error(bundle, G17):
    # step 3 queries W at each exact prime-power divisor of the level, and a
    # system with no stored sign there gives the oracle no value to answer with
    F0 = bundle.system("2.1", "F0")
    F = make_eigensystem(G17, F0.level, F0.character, F0.alpha_map(), {}, F0.vfield)
    res = recover(SyntheticOracle(F), G17, F.level, bound=13, on_missing="skip")
    assert not res.alpha_gaps and res.al_incomplete == [F.level]
    with pytest.raises(OracleMissingError) as info:
        recover(SyntheticOracle(F), G17, F.level, bound=13, on_missing="error")
    assert info.value.operator.w == F.level
    assert info.value.detail == "no stored involution sign at 2.1"


class RecordingOracle:
    def __init__(self, inner):
        self.inner = inner
        self.queried = []
        self.ops = []

    def query(self, op):
        self.queried.append(str(op))
        self.ops.append(op)
        return self.inner.query(op)


def test_fixture_recovery_query_sequence(G17):
    oracle, level = load_oracle(G17)
    recording = RecordingOracle(oracle)
    recover(recording, G17, level, bound=13, on_missing="skip")
    assert recording.queried == [
        "T(9.1,9.1)",
        "T(3.1,3.1)*T(9.1)",
        "T(9.2)",
        "T(3.1,3.1)*T(21.1)",
        "T(21.2)",
        "T(33.1)",
        "T(3.1,3.1)*T(33.2)",
        "T(3.1,3.1)*T(13.1)",
        "T(3.1,3.1)*T(13.2)",
        "T(3.1,3.1)*W(2.1)",
    ]


# the memos of level-free work: operator class tests, class tables of
# auxiliary ideals, ideal products and powers, prime-power divisors, radical
# towers and the classes of the primes
LEVEL_FREE_MEMOS = (
    recovery._principal_operator,
    recovery._class_ideals,
    recovery._character_with_restriction,
    recovery._product,
    quadfield.ideal_pow,
    quadfield.exact_prime_power_divisors,
    algext._with_radical,
    recovery._prime_classes,
)


def clear_level_free_memos():
    for memo in LEVEL_FREE_MEMOS:
        memo.cache_clear()


def recorded_recovery(oracle, group, level, bound):
    recording = RecordingOracle(oracle)
    res = recover(recording, group, level, bound, on_missing="skip")
    return res, recording.queried


def test_recover_is_the_same_with_cold_and_warm_memos(G17):
    oracle, level = load_oracle(G17)
    cases = [(oracle, G17, level, 13)]
    for d in (21, 65, 105):
        g = compute_class_group(make_field(d))
        F = random_eigensystem(g, random.Random(d), bound=60)
        cases.append((SyntheticOracle(F), g, F.level, 60))
    for case in cases:
        clear_level_free_memos()
        cold = recorded_recovery(*case)
        assert all(memo.cache_info().currsize for memo in LEVEL_FREE_MEMOS[:2])
        warm = recorded_recovery(*case)
        assert warm == cold and len(cold[1]) > 5
        assert warm[0].system.vfield is cold[0].system.vfield


def test_synthetic_recovery_query_sequence_at_c2xc4():
    # Q(sqrt(-65)) has CL = C2 x C4 (r2 = 2); the level 20.1 = 4.1 * 5.1 has
    # 4.1 in a square class and 5.1 in a nonsquare genus, so step 3 reads one
    # sign directly and one through the sign table.  A synthetic oracle
    # leaves no gaps, so only this list shows a change in what is queried.
    # It runs with every level-free memo cleared, then with them warm.
    g = compute_class_group(make_field(65))
    F = random_eigensystem(g, random.Random(5), bound=40)
    assert label(F.level) == "20.1" and F.character.is_trivial()
    clear_level_free_memos()
    res, queried = recorded_recovery(SyntheticOracle(F), g, F.level, 40)
    assert not res.alpha_gaps and res.al_incomplete == []
    assert recorded_recovery(SyntheticOracle(F), g, F.level, 40) == (res, queried)
    assert queried == [
        "T(9.2,9.2)",
        "T(33.1,33.1)",
        "T(13.1,13.1)",
        "T(3.1,3.1)*T(9.2)",
        "T(9.1)",
        "T(3.1,3.1)*T(121.3)",
        "T(121.1)",
        "T(3.1,3.1)*T(429.4)",
        "T(3.1,3.1)*T(209.2)",
        "T(209.1)",
        "T(3.1,3.1)*T(69.2)",
        "T(69.4)",
        "T(3.1,3.1)*T(29.1)",
        "T(3.1,3.1)*T(29.2)",
        "T(341.2)",
        "T(3.1,3.1)*T(341.1)",
        "T(1221.4)",
        "T(1221.1)",
        "W(4.1)",
        "T(3.1,3.1)*T(33.1)*W(5.1)",
    ]


def oracle_without_character_probe(G17):
    oracle, level = load_oracle(G17)
    probe = make_principal_operator(G17, level, aa=ideal_from_label(G17.field, "9.1"))
    return FixtureOracle({op: v for op, v in oracle.mapping.items() if op != probe}), level


def test_missing_character_probe_cannot_be_skipped(G17):
    oracle, level = oracle_without_character_probe(G17)
    with pytest.raises(RecoveryError, match=re.escape("character probe T(9.1,9.1)")):
        recover(oracle, G17, level, bound=13, on_missing="skip")
    with pytest.raises(OracleMissingError):
        recover(oracle, G17, level, bound=13, on_missing="error")


@pytest.mark.parametrize("d", [17, 21, 14, 65, 105])
def test_genus_key_identifies_square_cosets(d):
    g = compute_class_group(make_field(d))
    squares = g.squares()
    classes = g.all_classes()
    for x in classes:
        for y in classes:
            same_coset = g.mul(x, g.inv(y)) in squares
            assert (g.genus(x) == g.genus(y)) == same_coset


@pytest.mark.parametrize("d", [1, 5, 17, 21, 23, 65, 105])
def test_class_table_matches_the_label_order_search(d):
    # first[x]: the first ideal in class x coprime to the modulus; roots[c]:
    # the first a with [a]^2 c trivial, for every square class c (in C3,
    # unlike C4, x^2 and x^-2 differ).  A root that meets an extra ideal t is
    # replaced by the root of modulus m*t, which must be the first a coprime
    # to both m and t; with CL^2 trivial every root is the unit ideal, so
    # only d = 17, 23 and 65 take that path.
    g = compute_class_group(make_field(d))
    K = g.field
    primes = primes_of_norm_up_to(K, 30)
    moduli = [unit_ideal(K), *primes[:4], quadfield.ideal_mul(primes[0], primes[1]),
              principal_ideal(K, 6, 0)]
    fallbacks = 0
    for m in moduli:
        first, roots = recovery._class_ideals(g, m)
        assert first.keys() == set(g.all_classes())
        assert roots.keys() == g.squares()
        for x in g.all_classes():
            assert first[x] == first_ideal(g, lambda y: y == x, (m,))
        for c in g.squares():
            def fits(y, c=c):
                return g.mul(g.power(y, 2), c).is_trivial()

            assert roots[c] == first_ideal(g, fits, (m,))
            for t in primes:
                if quadfield.coprime(roots[c], t) or not quadfield.coprime(t, m):
                    continue
                fallbacks += 1
                got = recovery._class_ideals(g, quadfield.ideal_mul(m, t))[1][c]
                assert got == first_ideal(g, fits, (m, t))
    assert fallbacks > 0 or len(g.squares()) == 1


@pytest.mark.parametrize("d", [1, 5, 23, 17, 21, 14, 65, 105])
def test_prime_classes_agree_with_the_group(d):
    g = compute_class_group(make_field(d))
    entries = recovery._prime_classes(g, 200)
    assert [p for p, *_ in entries] == list(primes_of_norm_up_to(g.field, 200))
    for p, cls, genus in entries:
        assert cls == g.ideal_class(p)
        assert genus == g.genus(cls)
        # the principal genus is CL^2, the classes that step 2 reads directly
        assert (not any(genus)) == (cls in g.squares())
    assert recovery._prime_classes(g, 200) is entries


def test_prime_classes_are_keyed_by_group_and_bound_only():
    # recoveries at three levels of one field share one entry: neither the
    # level nor the eigensystem enters the key
    g = compute_class_group(make_field(65))
    systems = {}
    for seed in range(100):
        F = random_eigensystem(g, random.Random(seed), bound=200)
        systems.setdefault(F.level, F)
        if len(systems) == 3:
            break
    assert len(systems) == 3
    recovery._prime_classes.cache_clear()
    for level, F in systems.items():
        res = recover(SyntheticOracle(F), g, level, 200)
        assert any(systems_equal(res.system, G) for G in twist_orbit(F))
    info = recovery._prime_classes.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 2)


def test_repeated_round_trip_check_keeps_group_memos_fixed(bundle):
    # verify keeps one class group per check field, so a second run of the
    # round-trip check finds every group-keyed memo entry it needs
    memos = (recovery._principal_operator, recovery._class_ideals, recovery.character_values,
             recovery._character_with_restriction)
    assert run_checks(bundle, ["round-trip"])[0].status == "PASS"
    sizes = [memo.cache_info().currsize for memo in memos]
    assert run_checks(bundle, ["round-trip"])[0].status == "PASS"
    assert [memo.cache_info().currsize for memo in memos] == sizes


def recover_with_inconsistent_restriction():
    # C2 x C2 has no character that is -1 on all three nontrivial classes
    g = compute_class_group(make_field(21))
    level = unit_ideal(g.field)
    minus_one = algext.from_rational(algext.RATIONAL_FIELD, -1)
    oracle = FixtureOracle(
        {
            make_principal_operator(g, level, aa=first_ideal(g, lambda x, c=c: x == c)): minus_one
            for c in g.two_torsion()
            if not c.is_trivial()
        }
    )
    recover(oracle, g, level, bound=10)


def test_inconsistent_restriction_raises():
    with pytest.raises(RecoveryError, match="restriction"):
        recover_with_inconsistent_restriction()


def test_inconsistent_restriction_raises_under_optimize(run_optimized):
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from test_recovery import recover_with_inconsistent_restriction as run; run()"
    )
    last = run_optimized(code, str(Path(__file__).parent)).stderr.strip().splitlines()[-1]
    assert last.startswith("iqhecke.recovery.RecoveryError") and "restriction" in last


def test_missing_character_values_raise(G17, monkeypatch):
    oracle, level = load_oracle(G17)
    monkeypatch.setattr(recovery, "character_values", lambda f, g, chi: dict.fromkeys(g.all_classes()))
    with pytest.raises(RecoveryError, match="lacks the values"):
        recover(oracle, G17, level, bound=13, on_missing="skip")


@pytest.mark.parametrize("d", [17, 21, 23, 65, 105])
def test_each_auxiliary_ideal_is_the_first_that_fits(d):
    # recover reads each auxiliary ideal from a class table; every T_{a,a}
    # must still be the first a in label order coprime to the level (and to
    # t when t is a prime of square class) with a^2 t w principal
    g = compute_class_group(make_field(d))
    F = random_eigensystem(g, random.Random(d), bound=80)
    recording = RecordingOracle(SyntheticOracle(F))
    recover(recording, g, F.level, 80, on_missing="skip")
    principal_ops = [op for op in recording.ops if not op.t.is_unit() or op.w is not None]
    assert len(principal_ops) > 10
    for op in principal_ops:
        cls = g.ideal_class(op.t)
        if op.w is not None:
            cls = g.mul(cls, g.ideal_class(op.w))
        extra = (op.t,) if is_prime_ideal(op.t) else ()
        first = first_ideal(
            g, lambda x: g.mul(g.power(x, 2), cls).is_trivial(), (F.level, *extra)
        )
        assert op.aa == first
