import re

import pytest

from iqhecke import algext
from iqhecke.bundle import character_from_json
from iqhecke.characters import (
    RootOfUnity,
    character_group,
    character_kernel,
    character_order,
    check_selftwist,
    eligible_selftwists,
    eval_on_class,
    order_two_characters,
)
from iqhecke.classgroup import BQForm, IdealClass, compute_class_group, reduce_form
from iqhecke.eigensystem import character_field, character_values, chi_value
from iqhecke.quadfield import (
    Ideal,
    QuadField,
    SplittingRecord,
    factor_rational_prime,
    ideal_from_gens,
    ideal_from_label,
    make_field,
    principal_ideal,
    primes_of_norm_up_to,
    unit_ideal,
)
from iqhecke.recovery import PrincipalOperator


def test_roots_of_unity():
    i = RootOfUnity.make(1, 4)
    assert RootOfUnity.make(5, 10) == RootOfUnity.make(1, 2)
    assert RootOfUnity.make(1, 2).as_sign() == -1
    with pytest.raises(ValueError):
        i.as_sign()
    with pytest.raises(ValueError):
        RootOfUnity.make(1, 0)


def test_character_group_c4(G17):
    chars = character_group(G17)
    assert len(chars) == 4
    c = G17.ideal_class(ideal_from_label(G17.field, "3.1"))
    chi1 = IdealClass((1,))
    for j in range(4):
        for k in range(4):
            chij = IdealClass((j,))
            assert eval_on_class(G17, chij, G17.power(c, k)) == RootOfUnity.make(
                j * k, 4
            )
    # closure and trivial member
    assert IdealClass((0,)) in chars
    for a in chars:
        for b in chars:
            assert G17.mul(a, b) in chars
    assert character_order(G17, chi1) == 4
    assert G17.mul(chi1, chi1) == IdealClass((2,)) and G17.inv(chi1) == IdealClass((3,))


def test_character_group_small_fields():
    g1 = compute_class_group(make_field(1))
    assert character_group(g1) == [IdealClass(())]
    g21 = compute_class_group(make_field(21))
    chars = character_group(g21)
    assert len(chars) == 4
    assert all(character_order(g21, c) <= 2 for c in chars)


def test_pairing_nondegenerate():
    for d in (5, 17, 21, 23):
        g = compute_class_group(make_field(d))
        chars = character_group(g)
        for cls in g.all_classes():
            if not cls.is_trivial():
                assert any(eval_on_class(g, chi, cls).n != 1 for chi in chars)
        for chi in chars:
            if not chi.is_trivial():
                assert any(eval_on_class(g, chi, cls).n != 1 for cls in g.all_classes())


@pytest.mark.parametrize("d", [17, 21, 105])
def test_characters_use_the_class_group_law(d):
    g = compute_class_group(make_field(d))
    chars = character_group(g)
    for chi in chars:
        values = character_values(character_field(algext.RATIONAL_FIELD, g, chi), g, chi)
        assert len(values) == g.h and values.keys() == set(chars)
        for psi in chars:
            prod = g.mul(chi, psi)
            for x in g.all_classes():
                a, b = eval_on_class(g, chi, x), eval_on_class(g, psi, x)
                want = RootOfUnity.make(a.k * b.n + b.k * a.n, a.n * b.n)
                assert eval_on_class(g, prod, x) == want


@pytest.mark.parametrize(
    "d, chi, cls",
    [
        (21, (1,), (0, 0)),  # too short a character
        (21, (0, 0), (1,)),  # too short a class
        (21, (1, 1), (1, 1, 1)),  # too long a class
        (17, (1,), (7,)),  # an entry past its elementary divisor
        (17, (-1,), (1,)),  # a negative entry
    ],
)
def test_eval_on_class_rejects_vectors_outside_the_group(d, chi, cls):
    g = compute_class_group(make_field(d))
    with pytest.raises(ValueError, match="is not a reduced exponent vector"):
        eval_on_class(g, IdealClass(chi), IdealClass(cls))
    # the same vector in the other slot is just as wrong
    with pytest.raises(ValueError, match="is not a reduced exponent vector"):
        eval_on_class(g, IdealClass(cls), IdealClass(chi))


@pytest.mark.parametrize("d", (1, 5, 23, 17, 21, 14, 65, 105, 47, 71, 41, 89))
def test_character_kernel_is_where_the_character_is_one(d):
    # the sweep fields and four larger groups; kernels need no tower values
    g = compute_class_group(make_field(d))
    for chi in character_group(g):
        kernel = character_kernel(g, chi)
        assert kernel == {x for x in g.all_classes() if eval_on_class(g, chi, x).n == 1}
        assert g.h == len(kernel) * character_order(g, chi)
        assert kernel == character_kernel(g, g.inv(chi))
        assert character_kernel(g, chi) is kernel  # one set per (group, character)


def test_quadratic_character_count():
    for d in (1, 5, 14, 17, 21, 23, 65, 105):
        g = compute_class_group(make_field(d))
        assert 1 + len(order_two_characters(g)) == 1 << g.r2


@pytest.mark.parametrize("d", [17, 5, 21, 47])  # C4, C2, C2 x C2, C5
def test_check_selftwist_admits_exactly_the_nontrivial_quadratic_characters(d):
    g = compute_class_group(make_field(d))

    class Refused(ValueError):
        pass

    for psi in character_group(g):
        if g.power(psi, 2) == g.identity() and not psi.is_trivial():
            assert check_selftwist(g, psi, Refused) is psi
            continue
        message = (f"self-twist character {list(psi.exps)} is not a nontrivial quadratic"
                   f" character for the elementary divisors {list(g.elementary_divisors)}")
        with pytest.raises(Refused, match=re.escape(message)):
            check_selftwist(g, psi, Refused)
        with pytest.raises(ValueError, match=re.escape(message)):
            check_selftwist(g, psi)


def test_eval_with_level_zero_convention(bundle, K17):
    F0 = bundle.system("2.1", "F0")
    assert F0.level == ideal_from_label(K17, "2.1")
    one, zero = algext.one(F0.vfield), algext.zero(F0.vfield)
    assert algext.values_equal(chi_value(F0, ideal_from_label(K17, "3.1")), one)
    assert algext.values_equal(chi_value(F0, ideal_from_label(K17, "2.1")), zero)
    assert algext.values_equal(chi_value(F0, principal_ideal(K17, 8, 0)), zero)


def test_chi2_values(G17, K17):
    chi2 = IdealClass((2,))
    # ramified primes above 2 and 17 evaluate to +1
    for lab in ("2.1", "17.1"):
        assert eval_on_class(G17, chi2, G17.ideal_class(ideal_from_label(K17, lab))).as_sign() == 1
    # split primes above p = 1 mod 4 evaluate to +1 (examples: 13, 29)
    for p in primes_of_norm_up_to(K17, 30):
        if p.norm in (13, 29):
            assert eval_on_class(G17, chi2, G17.ideal_class(p)).as_sign() == 1


def test_eligible_selftwists(G17, K17):
    chi2 = IdealClass((2,))
    assert eligible_selftwists(G17, principal_ideal(K17, 8, 0)) == [chi2]
    assert eligible_selftwists(G17, ideal_from_label(K17, "12.1")) == []
    g1 = compute_class_group(make_field(1))
    assert eligible_selftwists(g1, principal_ideal(g1.field, 9, 0)) == []
    # a unit-level has no involution constraints at all
    assert eligible_selftwists(G17, principal_ideal(K17, 1, 0)) == [chi2]


def test_character_serialization(G17):
    assert character_from_json(G17, [3]) == IdealClass((3,))
    # one spelling per character: an unreduced vector is an error, not reduced
    for exps in ([7], [-1], [4], [1, 2], []):
        with pytest.raises(ValueError, match="is not a reduced exponent vector"):
            character_from_json(G17, exps)


@pytest.mark.parametrize(
    "make, same, other",
    [
        (lambda: IdealClass((1, 2)), lambda: IdealClass((1, 2)), lambda: IdealClass((2, 1))),
        (lambda: RootOfUnity(1, 2), lambda: RootOfUnity.make(6, 12), lambda: RootOfUnity(1, 4)),
        (lambda: make_field(17), lambda: QuadField(17, -68, False), lambda: make_field(21)),
        # one triple over two fields is two ideals
        (lambda: Ideal(make_field(17), 3, 1, 1),
         lambda: ideal_from_gens(make_field(17), [(3, 0), (1, 1)]),
         lambda: Ideal(make_field(5), 3, 1, 1)),
        (lambda: BQForm(1, 0, 17), lambda: reduce_form(17, 0, 1), lambda: BQForm(2, 2, 9)),
        (lambda: factor_rational_prime(make_field(17), 3),
         lambda: SplittingRecord("split", (Ideal(make_field(17), 3, 1, 1),
                                           Ideal(make_field(17), 3, 2, 1))),
         lambda: factor_rational_prime(make_field(17), 5)),
        (lambda: PrincipalOperator(unit_ideal(make_field(17)), unit_ideal(make_field(17))),
         lambda: PrincipalOperator(unit_ideal(make_field(17)), unit_ideal(make_field(17)), None),
         lambda: PrincipalOperator(unit_ideal(make_field(17)), unit_ideal(make_field(17)),
                                   Ideal(make_field(17), 2, 1, 1))),
    ],
)
def test_record_contract(make, same, other):
    x = make()
    name = type(x)._fields[0]
    with pytest.raises(AttributeError):
        setattr(x, name, getattr(x, name))
    with pytest.raises(AttributeError):
        x.extra = 1
    # a record is no sequence: no length, iteration, indexing, membership,
    # concatenation or repetition
    for call in (lambda: len(x), lambda: iter(x), lambda: x[0], lambda: 0 in x,
                 lambda: x + x, lambda: 2 * x):
        with pytest.raises(TypeError):
            call()
    # equality and hashing go by the fields, and every record is true
    y = same()
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert x != other() and x and make_field(1) and IdealClass(())


def test_record_order():
    # records have no order; characters come in lexicographic exponent order
    chars = character_group(compute_class_group(make_field(65)))
    assert [chi.exps for chi in chars] == sorted(chi.exps for chi in chars)
    pairs = (
        (IdealClass((1,)), IdealClass((2,))),
        (RootOfUnity(0, 1), RootOfUnity(1, 2)),
        (make_field(1), make_field(2)),
        (Ideal(make_field(17), 2, 1, 1), Ideal(make_field(17), 3, 1, 1)),
        (BQForm(1, 0, 17), BQForm(2, 2, 9)),
        (factor_rational_prime(make_field(17), 2), factor_rational_prime(make_field(17), 3)),
        (PrincipalOperator(unit_ideal(make_field(17)), unit_ideal(make_field(17))),
         PrincipalOperator(unit_ideal(make_field(17)), Ideal(make_field(17), 2, 1, 1))),
    )
    for a, b in pairs:
        for compare in (lambda: a < b, lambda: a <= b, lambda: a > b, lambda: a >= b):
            with pytest.raises(TypeError):
                compare()
