import copy
import pickle
import random
from itertools import product
from math import prod

import pytest

from iqhecke import classgroup
from iqhecke.classgroup import (
    ClassGroup,
    ClassGroupError,
    IdealClass,
    compute_class_group,
    form_of_ideal,
    ideal_of_form,
    reduced_forms,
)
from iqhecke.quadfield import (
    factor_int,
    ideal_from_label,
    ideal_mul,
    ideals_of_norm,
    is_prime_ideal,
    make_field,
    principal_ideal,
    primes_of_norm_up_to,
    unit_ideal,
)
from iqhecke.recovery import _class_ideals

# the first six keep their sorted order, so their test ids stay the same
FIELDS = {
    1: (), 5: (2,), 17: (4,), 21: (2, 2), 23: (3,), 31: (3,),
    14: (4,), 65: (2, 4), 105: (2, 2, 2), 47: (5,), 71: (7,), 41: (8,), 89: (12,),
}

# then every other squarefree d < 400 (the fields of the shape probe, 31
# class-group shapes), with its divisors unpinned
BELOW_400 = [d for d in range(1, 400) if all(d % (p * p) for p in range(2, 20))]
STRUCTURES = [*FIELDS.items(), *((d, None) for d in BELOW_400 if d not in FIELDS)]


@pytest.mark.parametrize("d,divs", STRUCTURES)
def test_structure(d, divs):
    g = compute_class_group(make_field(d))
    ds = g.elementary_divisors
    assert divs is None or ds == divs
    assert all(b % a == 0 for a, b in zip(ds, ds[1:]))
    assert prod(ds) == g.h == len(reduced_forms(g.field.disc))
    for gen, dv in zip(g.generators, ds):
        assert g.class_order(g.ideal_class(ideal_of_form(g.field, gen))) == dv
    classes = g.all_classes()
    assert len(classes) == len(set(classes)) == g.h
    # the forms map one-to-one onto the classes
    assert {g.ideal_class(ideal_of_form(g.field, f)) for f in g.forms} == set(classes)
    for x in classes:
        k = g.class_order(x)
        assert g.power(x, k).is_trivial()
        assert not any(g.power(x, j).is_trivial() for j in range(1, k))


def test_generator_pinned_to_norm_3_prime(G17, K17):
    p31 = ideal_from_label(K17, "3.1")
    assert G17.ideal_class(p31).exps == (1,)
    assert G17.class_order(G17.ideal_class(p31)) == 4


def test_class_map_is_homomorphism():
    rng = random.Random(7)
    for d in (5, 17, 21, 23, 14, 65, 105, 47, 71, 41, 89):
        g = compute_class_group(make_field(d))
        pool = [i for n in range(1, 40) for i in ideals_of_norm(g.field, n)]
        for _ in range(500):
            a, b = rng.choice(pool), rng.choice(pool)
            assert g.ideal_class(ideal_mul(a, b)) == g.mul(
                g.ideal_class(a), g.ideal_class(b)
            )


@pytest.mark.parametrize("d", (1, 5, 23, 17, 21, 14, 65, 105))  # the sweep fields
def test_memoised_group_law_matches_the_exponent_formula(d):
    # a fresh group, so the first pass fills the memos and the second reads them
    g = ClassGroup(make_field(d))
    divs = g.elementary_divisors
    classes = g.all_classes()

    def formula(exps):
        return IdealClass(tuple(e % n for e, n in zip(exps, divs)))

    for _ in range(2):
        for x in classes:
            assert g.inv(x) == formula([-a for a in x.exps])
            for e in (-1, 0, 1, 2, 3, g.h):
                assert g.power(x, e) == formula([a * e for a in x.exps])
            for y in classes:
                assert g.mul(x, y) == formula([a + b for a, b in zip(x.exps, y.exps)])
    assert all(type(z) is IdealClass for z in (g.mul(x, x), g.inv(x), g.power(x, 2)))


@pytest.mark.parametrize("d", (1, 5, 23, 17, 21, 14, 65, 105))  # the sweep fields
def test_membership_is_being_a_reduced_exponent_vector(d):
    g = compute_class_group(make_field(d))
    divs = g.elementary_divisors
    assert all(x in g for x in g.all_classes())
    for exps in product(*(range(-1, n + 2) for n in divs)):
        reduced = all(0 <= e < n for e, n in zip(exps, divs))
        assert (IdealClass(exps) in g) == reduced
    # a vector of the wrong length is no class, also where its entries are in range
    assert IdealClass((0,) * (len(divs) + 1)) not in g
    if divs:
        assert IdealClass((0,) * (len(divs) - 1)) not in g


@pytest.mark.parametrize("d", (1, 5, 23, 17, 21, 14, 65, 105))  # the sweep fields
def test_class_map_and_law_are_lru_cached(d):
    # a fresh group: a first pass over its classes, pairs and small ideals only
    # misses the class-level memos, and a second pass only hits them
    g = ClassGroup(make_field(d))
    classes = g.all_classes()
    ideals = [i for n in range(1, 51) for i in ideals_of_norm(g.field, n)]
    memos = (ClassGroup.mul, ClassGroup.inv, ClassGroup.power, ClassGroup.ideal_class)
    sizes = (len(classes) ** 2, len(classes), 2 * len(classes), len(ideals))

    def one_pass():
        for x in classes:
            g.inv(x)
            for e in (-1, 3):  # not 2: construction already read power(x, 2)
                g.power(x, e)
            for y in classes:
                g.mul(x, y)
        for i in ideals:
            g.ideal_class(i)

    for hits, misses in ((0, 1), (1, 0)):
        before = [m.cache_info() for m in memos]
        one_pass()
        added = [(a.hits - b.hits, a.misses - b.misses)
                 for a, b in zip((m.cache_info() for m in memos), before)]
        assert added == [(hits * n, misses * n) for n in sizes]


def test_group_law_memos_are_per_group():
    # (1,) is a class of C2 (d = 5) and of C3 (d = 23), with different laws
    x = IdealClass((1,))
    c2, c3 = ClassGroup(make_field(5)), ClassGroup(make_field(23))
    assert (c2.mul(x, x), c2.inv(x), c2.power(x, 2)) == (
        IdealClass((0,)), IdealClass((1,)), IdealClass((0,)))
    assert (c3.mul(x, x), c3.inv(x), c3.power(x, 2)) == (
        IdealClass((2,)), IdealClass((2,)), IdealClass((2,)))
    assert c2.mul(x, x) == IdealClass((0,))  # read from c2's memo, not c3's
    # a copied group is the memoised one, and its law agrees with the original's
    for g in (c2, c3):
        for copied in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
            assert copied is compute_class_group(g.field)
            classes = g.all_classes()
            assert all(copied.mul(a, b) == g.mul(a, b) for a in classes for b in classes)
            assert all(copied.inv(a) == g.inv(a) and copied.power(a, 2) == g.power(a, 2)
                       for a in classes)


def test_group_law_on_all_form_pairs_small_h():
    # the reduced-form enumeration is the oracle for h; the composition is
    # checked for associativity and commutativity on all pairs
    for d in (5, 17, 21, 23, 31):
        g = compute_class_group(make_field(d))
        assert g.h <= 16
        for f1 in g.forms:
            for f2 in g.forms:
                assert g._compose(f1, f2) == g._compose(f2, f1)
                for f3 in g.forms:
                    assert g._compose(g._compose(f1, f2), f3) == g._compose(
                        f1, g._compose(f2, f3)
                    )


def test_conjugate_class_is_inverse(G17, K17):
    for p in primes_of_norm_up_to(K17, 500):
        assert G17.ideal_class(p.conjugate()) == G17.inv(G17.ideal_class(p))


def test_is_principal_examples(G17, K17):
    assert G17.ideal_class(principal_ideal(K17, 5, 0)).is_trivial()
    assert not G17.ideal_class(ideal_from_label(K17, "2.1")).is_trivial()
    p31, p32 = ideal_from_label(K17, "3.1"), ideal_from_label(K17, "3.2")
    assert G17.ideal_class(ideal_mul(p31, p32)).is_trivial()
    # no element of Z[sqrt(-17)] has norm 2
    assert all(
        (x * x + 17 * y * y) != 2 for x in range(-2, 3) for y in range(-1, 2)
    )


def test_ideal_class_examples(G17, K17):
    assert G17.ideal_class(principal_ideal(K17, 7, 0)).is_trivial()
    c = G17.ideal_class(ideal_from_label(K17, "3.1"))
    assert G17.ideal_class(ideal_from_label(K17, "13.1")) == G17.power(c, 2)


def test_genus_data():
    g17 = compute_class_group(make_field(17))
    assert g17.r2 == 1
    assert g17.squares() == g17.two_torsion() and len(g17.squares()) == 2
    g1 = compute_class_group(make_field(1))
    assert g1.r2 == 0 and len(g1.squares()) == 1
    g21 = compute_class_group(make_field(21))
    assert g21.r2 == 2
    assert len(factor_int(84)) == 3


def test_genus_size_relation():
    for d in (1, 5, 17, 21, 23):
        g = compute_class_group(make_field(d))
        assert g.h // len(g.squares()) == 1 << g.r2
        assert len(g.two_torsion()) == 1 << g.r2


def test_two_rank_is_checked_at_construction(monkeypatch):
    # one prime dividing disc -68 would mean r2 = 0, but CL = C4 has r2 = 1
    K = make_field(17)
    monkeypatch.setattr(classgroup, "factor_int", lambda n: [(n, 1)])
    with pytest.raises(ClassGroupError, match="2-rank 1 disagrees"):
        ClassGroup(K)


def test_one_group_per_field(bundle):
    assert compute_class_group(make_field(17)) is bundle.group


def test_bundle_and_checks_build_one_group_per_field(run_fresh):
    # a fresh process, since this session's memo already holds the groups
    code = (
        "from collections import Counter\n"
        "from iqhecke import classgroup\n"
        "from iqhecke.bundle import FixtureBundle\n"
        "from iqhecke.verify import run_checks\n"
        "built, init = Counter(), classgroup.ClassGroup.__init__\n"
        "def counted(self, field):\n"
        "    built[field.d] += 1\n"
        "    init(self, field)\n"
        "classgroup.ClassGroup.__init__ = counted\n"
        "run_checks(FixtureBundle())\n"
        "print(sorted(built.items()))\n"
    )
    out = run_fresh(code)
    assert out.stdout.strip() == "[(1, 1), (5, 1), (17, 1), (21, 1), (23, 1), (31, 1)]", out.stderr


def test_two_rank_is_checked_at_construction_under_optimize(run_optimized):
    code = (
        "from iqhecke import classgroup, quadfield\n"
        "K = quadfield.make_field(17)\n"
        "classgroup.factor_int = lambda n: [(n, 1)]\n"
        "classgroup.compute_class_group(K)\n"
    )
    last = run_optimized(code).stderr.strip().splitlines()[-1]
    assert last.startswith("iqhecke.classgroup.ClassGroupError") and "2-rank 1 disagrees" in last


def test_find_ideal_in_class(G17, K17):
    # recovery's class table: the first ideal of each class coprime to a modulus
    c = G17.ideal_class(ideal_from_label(K17, "3.1"))
    first = _class_ideals(G17, ideal_from_label(K17, "2.1"))[0]
    assert first[c] == ideal_from_label(K17, "3.1")
    assert _class_ideals(G17, unit_ideal(K17))[0][G17.identity()] == unit_ideal(K17)
    # the minimal-norm ideal in class c^2 coprime to (3) is the ramified
    # norm-2 prime; excluding 2 as well forces the norm-13 prime
    c2 = G17.power(c, 2)
    got2 = _class_ideals(G17, principal_ideal(K17, 3, 0))[0][c2]
    assert got2 == ideal_from_label(K17, "2.1") and is_prime_ideal(got2)
    got3 = _class_ideals(G17, principal_ideal(K17, 6, 0))[0][c2]
    assert got3 == ideal_from_label(K17, "13.1") and is_prime_ideal(got3)


def test_form_of_ideal_matches_reduction(G17, K17):
    p31 = ideal_from_label(K17, "3.1")
    assert form_of_ideal(p31) == G17.generators[0]


def test_serialization(G17):
    # the pin that field_68.json and `iqhecke field 17 --json` carry
    assert G17.h == 4
    assert G17.elementary_divisors == (4,)
    assert [(g.a, g.b, g.c) for g in G17.generators] == [(3, 2, 6)]
