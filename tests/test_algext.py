import cmath
import copy
import pickle
import random
import re
from fractions import Fraction
from math import isqrt

import pytest

from iqhecke import algext
from iqhecke.algext import (
    MAX_EXPONENT,
    AlgebraError,
    adjoined_root,
    automorphisms,
    canonical_sign,
    embed,
    field_symbols,
    from_coeffs,
    from_rational,
    join_fields,
    lift,
    make_value_field,
    one,
    parse_value,
    render_value,
    sqrt_in_tower,
    sqrt_or_adjoin,
    squarefree_part,
    theta,
    values_equal,
    with_radical,
    zero,
)

Q = make_value_field()
QI = make_value_field(adjoined=[-1])
QI2 = make_value_field(adjoined=[-1, 2])
CUBIC = make_value_field(minpoly=[1, -3, -1, 1])
QUAD_SQRT3 = make_value_field(minpoly=[-2, 0, 1], adjoined=[3])  # Q(sqrt2)(sqrt3), base sqrt2 = a
QI23 = make_value_field(adjoined=[-1, 2, 3])
CUBIC_I = make_value_field(minpoly=[1, -3, -1, 1], adjoined=[-1])
QUARTIC = make_value_field(minpoly=[1, 0, -10, 0, 1])  # a = sqrt2 + sqrt3


def rand_value(f, rng, span=4):
    v = zero(f)
    syms = [one(f)] + list(field_symbols(f).values())
    for s in syms:
        v = v + s.scale(rng.randint(-span, span))
    return v


def rand_full(f, rng):
    """A value with a random rational coefficient on every basis element."""
    return from_coeffs(f, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(f.dim)])


def close(z, w):
    return cmath.isclose(z, w, rel_tol=1e-9, abs_tol=1e-9)


def test_basic_arithmetic():
    s2 = field_symbols(make_value_field(adjoined=[2]))["sqrt2"]
    assert values_equal(s2 * s2, from_rational(s2.field, 2))
    v = parse_value(QI2, "2*sqrt2") * field_symbols(QI2)["i"]
    assert values_equal(v, parse_value(QI2, "2*sqrt2*i"))
    # a^2 * a reduces by the cubic relation a^3 = a^2 + 3a - 1
    a = theta(CUBIC)
    assert values_equal(a * a * a, parse_value(CUBIC, "a^2+3*a-1"))


def test_value_contract():
    v = parse_value(QI2, "1/2*sqrt2 - i")
    with pytest.raises(AttributeError):
        v.den = 2
    with pytest.raises(AttributeError):
        v.extra = 1
    # a value is no sequence: no repetition, length, iteration or indexing
    for call in (lambda: 3 * v, lambda: v * 3, lambda: len(v), lambda: iter(v),
                 lambda: v[0], lambda: v < v, lambda: v + 1, lambda: v - 1, lambda: v / 2):
        with pytest.raises(TypeError):
            call()
    assert v and zero(QI2)  # every value is true, as before
    s2, i = field_symbols(QI2)["sqrt2"], field_symbols(QI2)["i"]
    routes = [
        from_coeffs(QI2, [0, -1, Fraction(1, 2), 0]),
        s2.scale(Fraction(1, 2)) - i,
        s2 * s2 * s2 / from_rational(QI2, 4) + i * i * i,
        (s2 - i.scale(2)) * from_rational(QI2, Fraction(1, 2)),
        lift(parse_value(make_value_field(adjoined=[2]), "sqrt2/2"), QI2) - lift(i, QI2),
        parse_value(QI2, "(2*sqrt2 - 4*i) / 4"),
    ]
    assert all(w == v and hash(w) == hash(v) for w in routes)
    assert len({v, *routes}) == 1
    # the same numerators over two towers of one dimension are different values
    S2, S3 = make_value_field(adjoined=[2]), make_value_field(adjoined=[3])
    r2, r3 = field_symbols(S2)["sqrt2"], field_symbols(S3)["sqrt3"]
    assert (r2.nums, r2.den) == (r3.nums, r3.den) and r2 != r3 and len({r2, r3}) == 2
    assert one(S2) != one(S3) and one(S2) is one(S2)
    with pytest.raises(AlgebraError, match="different fields"):
        r2 * r3


def test_int_rationals_match_their_fractions():
    # an int skips Fraction: the value is the one Fraction(n) gives, with int coordinates
    v = parse_value(QI2, "5/6*sqrt2 - 7/4*i + 1/3")
    for n in (0, 1, -1, -7, 12, -360, 1000003, -(10**30)):
        for f in (Q, QI2, CUBIC):
            w = from_rational(f, n)
            assert w == from_rational(f, Fraction(n))
            assert all(type(c) is int for c in (*w.nums, w.den))
        assert v.scale(n) == v.scale(Fraction(n))
        assert all(type(c) is int for c in (*v.scale(n).nums, v.scale(n).den))
    assert from_rational(QI2, 0) == zero(QI2) == v.scale(0)


def test_field_inverse_and_division():
    # the fixed complex embedding is a ring map, an independent reference
    rng = random.Random(11)
    for f in (Q, QI, QI2, QI23, CUBIC, QUAD_SQRT3, CUBIC_I):
        for _ in range(20):
            v, w = rand_value(f, rng), rand_full(f, rng)
            assert close(embed(v * w), embed(v) * embed(w))
            assert close(embed(w * w), embed(w) ** 2)
            assert close(embed(w.inv()), 1 / embed(w))
            if v.is_zero():
                continue
            assert values_equal(v * v.inv(), one(f))
            assert close(embed(v.inv()), 1 / embed(v))
    with pytest.raises(ZeroDivisionError):
        zero(QI).inv()
    # sqrt(-2) and i*sqrt(2) are independent roots here, so the algebra has zero
    # divisors; make_value_field rejects it, and only the unchecked _tower builds it
    degenerate = algext._tower((0, 1), ((Fraction(-2),), (Fraction(-1),), (Fraction(2),)))
    with pytest.raises(ZeroDivisionError, match="degenerate"):
        parse_value(degenerate, "sqrtm2 - i*sqrt2").inv()
    v = parse_value(degenerate, "1 + sqrt2")
    assert values_equal(v * v.inv(), one(degenerate))


def test_squarefree_part():
    assert squarefree_part(Fraction(8)) == (Fraction(2), 2)
    assert squarefree_part(Fraction(-18)) == (Fraction(3), -2)
    assert squarefree_part(Fraction(9, 2)) == (Fraction(3, 2), 2)
    with pytest.raises(AlgebraError):
        squarefree_part(Fraction(0))


def test_sqrt_examples():
    root, f = sqrt_or_adjoin(from_rational(Q, 8))
    assert render_value(root) == "2*sqrt2"
    assert values_equal(root * root, from_rational(f, 8))
    root4, f4 = sqrt_or_adjoin(from_rational(Q, 4))
    assert f4 == Q and render_value(root4) == "2"
    # 2i is a square inside Q(i); 4i needs sqrt2 and lands on sqrt2*(1+i)
    i = field_symbols(QI)["i"]
    r, f = sqrt_or_adjoin(i.scale(2))
    assert f == QI and values_equal(r, parse_value(QI, "1+i"))
    r, f = sqrt_or_adjoin(i.scale(4))
    assert values_equal(r, parse_value(f, "sqrt2*(1+i)"))
    # -2 = -1 * 2 and sqrt2 is already there, so the least class adjoined is -1
    r, f = sqrt_or_adjoin(from_rational(make_value_field(adjoined=[2]), -2))
    assert f == QI2 and values_equal(r, parse_value(QI2, "i*sqrt2"))


@pytest.mark.parametrize("f, held", [
    (Q, ()),
    (CUBIC, ()),
    (QUAD_SQRT3.base, (2,)),  # Q(sqrt2)
    (QUARTIC, (2, 6, Fraction(3, 4), Fraction(4, 3))),  # Q(sqrt2 + sqrt3)
], ids=["Q", "cubic", "Q(sqrt2)", "Q(sqrt2 + sqrt3)"])
def test_base_sqrt_of_rationals(f, held):
    # a square p/q in lowest terms gives its rational root; of the non-squares,
    # only those that the base holds (listed) have a root, and it squares back
    for q in (Fraction(0), Fraction(1), Fraction(4, 9), Fraction(49, 36), Fraction(8, 18),
              Fraction(10**40, 9)):
        root = Fraction(isqrt(q.numerator), isqrt(q.denominator))
        assert root * root == q
        assert algext._base_sqrt(from_rational(f, q)) == from_rational(f, root)
    for q in (2, 6, Fraction(3, 4), Fraction(4, 3), 5, Fraction(7, 2), Fraction(-4, 9),
              Fraction(10**40 + 1, 9)):
        r = algext._base_sqrt(from_rational(f, q))
        if q in held:
            assert r is not None and r * r == from_rational(f, q)
        else:
            assert r is None


@pytest.mark.parametrize("f", [Q, QI, QI2, CUBIC, CUBIC_I, QUAD_SQRT3, QUARTIC],
                         ids=lambda f: f.describe())
def test_embed_equals_the_fraction_formula_bit_for_bit(f):
    rng = random.Random(52)
    values = [rand_value(f, rng) for _ in range(30)]
    values += [v.scale(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))) for v in values]
    values += [v.inv() for v in values if not v.is_zero()][:20]
    for v in values:
        expected = sum((float(Fraction(n, v.den)) * z for n, z in zip(v.nums, f._basis_values) if n), 0j)
        got = embed(v)
        assert (got.real.hex(), got.imag.hex()) == (expected.real.hex(), expected.imag.hex())


def test_sqrt_or_adjoin_random_towers():
    rng = random.Random(13)
    for f in (Q, QI, QI2, CUBIC, make_value_field(adjoined=[2])):
        has_i = "i" in field_symbols(f)
        for k in range(200):
            kind = k % 3
            if kind == 0:
                w = rand_value(f, rng, span=3)
                v = w * w
                root, g = sqrt_or_adjoin(v)
                assert g == f  # square of a tower element stays in the tower
                assert values_equal(root, w) or values_equal(root, -w)
            elif kind == 1:
                v = from_rational(f, rng.randint(-50, 200) or 1)
                root, g = sqrt_or_adjoin(v)
            elif has_i:
                v = field_symbols(f)["i"].scale(2 * rng.randint(1, 30))
                root, g = sqrt_or_adjoin(v)
            else:
                continue
            assert values_equal(root * root, lift(v, g))


def test_sqrt_or_adjoin_extends_and_verifies():
    rng = random.Random(17)
    for _ in range(100):
        q = Fraction(rng.randint(1, 400))
        root, f = sqrt_or_adjoin(from_rational(Q, q))
        assert values_equal(root * root, from_rational(f, q))
    for _ in range(100):
        q = Fraction(-rng.randint(1, 200))
        root, f = sqrt_or_adjoin(from_rational(QI, q))
        assert values_equal(root * root, from_rational(f, q))


@pytest.mark.parametrize("text", ["-24 - 16*sqrt2", "-11 + 6*sqrt2"])
def test_sqrt_of_minus_a_square_adjoins_i(text):
    # v = -w^2 with w in Q(sqrt2): the root is i*w, in Q(i, sqrt2)
    v = parse_value(make_value_field(adjoined=[2]), text)
    root, f = sqrt_or_adjoin(v)
    assert f == QI2
    assert values_equal(root * root, lift(v, QI2))


def test_a_value_with_no_square_class_has_no_root_in_any_tower():
    for adjoined, text in [
        # 1 + sqrt2 has norm -1, so it is c*u^2 for no rational c, and a tower
        # that only adjoins square roots of rationals never holds its root
        ([2], "1 + sqrt2"),
        # v = v0 + sqrt3 has a square relative norm v0^2 - 3 = n^2, n = -13/4 +
        # 11/4*sqrt2, but 2(v0 + n) = 12(sqrt2 - 1) has norm -144 < 0
        ([2, 3], "-11/4 + 13/4*sqrt2 + sqrt3"),
    ]:
        v = parse_value(make_value_field(adjoined=adjoined), text)
        assert sqrt_in_tower(v) is None
        message = f"cannot adjoin a square root of {text}"
        with pytest.raises(AlgebraError, match=re.escape(message)):
            sqrt_or_adjoin(v)


def test_canonical_sign():
    root, f = sqrt_or_adjoin(from_rational(Q, 2))
    assert embed(root).real > 0
    assert values_equal(canonical_sign(-root), root)
    iroot, fi = sqrt_or_adjoin(from_rational(Q, -1))
    assert embed(iroot).imag > 0


def test_automorphisms_are_ring_maps():
    rng = random.Random(19)
    for f, expected in ((make_value_field(adjoined=[2]), 2), (Q, 1), (QI2, 4), (QUAD_SQRT3, 4)):
        autos = automorphisms(f)
        assert len(autos) == expected
        for au in autos:
            for _ in range(100):
                x, y = rand_value(f, rng), rand_value(f, rng)
                assert values_equal(au.apply(x + y), au.apply(x) + au.apply(y))
                assert values_equal(au.apply(x * y), au.apply(x) * au.apply(y))


def test_automorphisms_describe_themselves():
    assert [au.describe() for au in automorphisms(QUAD_SQRT3)] == [
        "id", "sqrt3 -> -sqrt3", "a -> a'", "a -> a', sqrt3 -> -sqrt3"]


def test_quadratic_base_automorphism():
    B = make_value_field(minpoly=[-2, 0, 1])  # base Q(t), t^2 = 2
    autos = automorphisms(B)
    assert len(autos) == 2
    t = theta(B)
    nontrivial = next(a for a in autos if not a.is_identity())
    assert values_equal(nontrivial.apply(t), -t)


def test_tower_dimension():
    assert Q.dim == 1
    assert QI.dim == 2
    assert QI2.dim == 4
    assert CUBIC.dim == 3
    assert make_value_field(minpoly=[-2, 0, 1], adjoined=[3]).dim == 4


def test_lift_and_join():
    f2 = make_value_field(adjoined=[2])
    j = join_fields(f2, QI)
    assert j == QI2
    v = parse_value(f2, "1+2*sqrt2")
    assert values_equal(lift(v, j), parse_value(j, "1+2*sqrt2"))
    # -1 = sqrtm2^2 / sqrt2^2 is a square already, so the join stays a field
    m2 = make_value_field(adjoined=[-2, 2])
    j = join_fields(m2, QI2)
    assert j.dim == 4
    assert values_equal(field_symbols(m2)["sqrtm2"], parse_value(QI2, "i*sqrt2"))
    with pytest.raises(AlgebraError):
        join_fields(CUBIC, QI)


@pytest.mark.parametrize("f,h", [
    (Q, QI), (make_value_field(adjoined=[2]), QI2), (QI, QI2), (QI2, QI23),
    (make_value_field(adjoined=[3]), QI23),
    # sqrt(-2) and sqrt(-6) are i*sqrt2 and i*sqrt2*sqrt3 in the join
    (make_value_field(adjoined=[-2]), QI2), (make_value_field(adjoined=[-6]), QI23),
    (CUBIC, CUBIC_I), (make_value_field(minpoly=[-2, 0, 1]), QUAD_SQRT3),
])
def test_lift_is_a_ring_map(f, h):
    g = join_fields(h, f)
    assert g == h
    rng = random.Random(29)
    for _ in range(20):
        a, b = rand_full(f, rng), rand_full(f, rng)
        assert lift(a * b, g) == lift(a, g) * lift(b, g)
        assert lift(a + b, g) == lift(a, g) + lift(b, g)
        assert close(embed(lift(a, g)), embed(a))


def test_even_degree_base_holds_rational_square_roots():
    # a = sqrt2 + sqrt3 has a^4 - 10a^2 + 1 = 0, and ((a^3 - 9a)/2)^2 = 2
    f = QUARTIC
    assert with_radical(f, 2) is f
    root = sqrt_in_tower(from_rational(f, 2))
    assert values_equal(root * root, from_rational(f, 2))
    half = parse_value(f, "(a^3 - 9*a)/2")
    assert values_equal(root, half) or values_equal(root, -half)
    assert sqrt_in_tower(from_rational(f, 5)) is None
    assert sqrt_in_tower(from_rational(CUBIC, 2)) is None
    assert with_radical(CUBIC, 2).dim == 6


@pytest.mark.parametrize("f", [CUBIC, QUARTIC], ids=["cubic", "quartic"])
@pytest.mark.parametrize("text", ["(a+1)/1000003", "1000000000000*a + 1",
                                  "(3*a^2 + 5)*1000000000 + 7*a"])
def test_squares_with_large_coordinates_stay_in_the_base(f, text):
    # large numerators or denominators, beyond any float reconstruction
    w = parse_value(f, text)
    v = w * w
    root = sqrt_in_tower(v)
    assert root is not None and (values_equal(root, w) or values_equal(root, -w))
    assert with_radical(f, v.coeffs) is f
    root, g = sqrt_or_adjoin(v)
    assert g is f and values_equal(root * root, v)
    assert sqrt_in_tower(-v) is None  # the base is totally real, so -w^2 is no square


# Q(2cos(2pi/e)) for e = 7, 11, 13, 19: bases of degree 3, 5, 6 and 9
REAL_CYCLOTOMIC_BASES = [[-1, -2, 1, 1], [1, 3, -3, -4, 1, 1], [-1, 3, 6, -4, -5, 1, 1],
                         [1, 5, -10, -20, 15, 21, -7, -8, 1, 1]]


@pytest.mark.parametrize("minpoly", REAL_CYCLOTOMIC_BASES, ids=["e7", "e11", "e13", "e19"])
def test_wide_bases_have_exact_roots_and_inverses(minpoly):
    f = make_value_field(minpoly=minpoly)
    rng = random.Random(len(minpoly))
    for _ in range(8):
        x = from_coeffs(f, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(f.dim)])
        if x.is_zero():
            continue
        assert sqrt_in_tower(x * x) in (x, -x)
        assert sqrt_in_tower(-(x * x)) is None
        assert x.inv() * x == one(f)


@pytest.mark.parametrize("f", [Q, QI2, CUBIC, QUAD_SQRT3, CUBIC_I, QUARTIC],
                         ids=["Q", "QI2", "cubic", "quad_sqrt3", "cubic_i", "quartic"])
def test_the_base_is_the_root_free_tower_over_an_integer_minimal_polynomial(f):
    assert f.base is make_value_field(f.minpoly)
    assert f.base.base is f.base and not f.base.adjoined
    assert all(type(c) is int for c in f.minpoly)


@pytest.mark.parametrize("minpoly", [[5, 1], [-3, 1], [0, 1], (Fraction(7), 1)])
def test_every_degree_one_base_is_q(minpoly):
    assert make_value_field(minpoly) is algext.RATIONAL_FIELD
    assert make_value_field(minpoly, adjoined=[2]) is make_value_field(adjoined=[2])
    assert make_value_field(minpoly).describe() == "Q"


def test_a_repeat_make_value_field_runs_no_base_or_kummer_test(monkeypatch):
    calls = []

    def counted(fn):
        return lambda *args: calls.append(fn.__name__) or fn(*args)

    make_value_field([1, -3, -1, 1], [-1])
    monkeypatch.setattr(algext.poly, "is_irreducible", counted(algext.poly.is_irreducible))
    monkeypatch.setattr(algext, "_base_root", counted(algext._base_root))
    assert make_value_field([1, -3, -1, 1], [-1]) is CUBIC_I
    assert calls == []


def test_make_value_field_is_the_tower_that_with_radical_builds():
    towers = (make_value_field(adjoined=[-1, 2]), join_fields(QI, make_value_field(adjoined=[2])),
              with_radical(with_radical(Q, -1), 2))
    assert all(f is QI2 for f in towers)


def test_with_radical_is_one_tower_per_radicand_vector():
    # a list radicand and a tuple radicand name one memo entry and one tower
    f = QUAD_SQRT3.subfield()  # Q(sqrt2), base a = sqrt2
    hits = algext._with_radical.cache_info().hits
    g = with_radical(f, [1, 1])
    assert g is with_radical(f, (1, 1)) is with_radical(f, (Fraction(1), Fraction(1)))
    assert algext._with_radical.cache_info().hits >= hits + 2
    assert g.dim == 4 and g.adjoined == ((1, 1),)
    assert with_radical(f, 3) is QUAD_SQRT3 and with_radical(f, [3, 0]) is QUAD_SQRT3
    assert with_radical(f, 2) is f and with_radical(f, [2, 0]) is f


def test_parse_render_round_trip():
    rng = random.Random(23)
    for f in (QI2, CUBIC):
        for _ in range(30):
            v = rand_value(f, rng)
            assert values_equal(parse_value(f, render_value(v)), v)


def test_radicand_length_is_checked():
    with pytest.raises(AlgebraError, match="base degree"):
        make_value_field(adjoined=[[1, 2]])


def test_radicand_length_is_checked_under_optimize(run_optimized):
    code = "from iqhecke.algext import make_value_field; make_value_field(adjoined=[[1, 2]])"
    last = run_optimized(code).stderr.strip().splitlines()[-1]
    assert last.startswith("iqhecke.algext.AlgebraError") and "base degree" in last


@pytest.mark.parametrize(
    "adjoined,message",
    [([2, 2], "duplicate"), ([2, 8], "squarefree"), ([1], "squarefree"), ([0], "squarefree"),
     ([Fraction(1, 2)], "squarefree"), ([-4], "squarefree")],
)
def test_malformed_radicands_are_rejected(adjoined, message):
    with pytest.raises(AlgebraError, match=message):
        make_value_field(adjoined=adjoined)


@pytest.mark.parametrize("minpoly,adjoined", [
    ((0, 1), [-2, -1, 2]),  # 2 = (sqrtm2/i)^2
    ((-2, 0, 1), [2]),  # a^2 = 2
    ((-2, 0, 1), [[3, 2]]),  # 3 + 2a = (1 + a)^2
    ((-2, 0, 1), [[0, 1], [0, 2]]),  # 2a = (a * sqrt(a))^2
])
def test_radicands_that_are_squares_in_the_tower_are_rejected(minpoly, adjoined):
    with pytest.raises(AlgebraError, match="is a square in .*, so the tower is not a field"):
        make_value_field(minpoly, adjoined)
    # a subset whose products are no squares still builds a field of full degree
    f = make_value_field(minpoly, adjoined[:-1])
    assert f.dim == (len(minpoly) - 1) << (len(adjoined) - 1)


@pytest.mark.parametrize(
    "minpoly,message",
    [([1, 0, 1], "totally real"), ([0, 0, 1], "totally real"), (["1/2", 0, 1], "integer"),
     ([2, -3, 1], "reducible"), ([6, 0, -5, 0, 1], "reducible")],
)
def test_malformed_minimal_polynomials_are_rejected(minpoly, message):
    with pytest.raises(AlgebraError, match=message):
        make_value_field(minpoly=minpoly)


def test_parse_errors():
    # the grammar's boundary: leading zeros and any whitespace lex, unary signs
    # chain, x^0 is one, and a long sum stays inside the depth limit
    assert values_equal(parse_value(QI2, " 007*sqrt2 -\n i^2"), parse_value(QI2, "1 + 7*sqrt2"))
    assert parse_value(Q, "--3").rational_value() == 3
    assert parse_value(Q, "+-3").rational_value() == -3
    assert parse_value(QI, "(1+i)^0").rational_value() == 1
    assert parse_value(Q, "+".join(["1"] * 500)).rational_value() == 500
    for text in ["sqrt2", "1 +", "2 ^ -1", "2**3", "0x1", "1_0", "2.5", "True",
                 "a^2^3", "2^a", "(1", "1)", "1/0", "9" * 5000, "a^" + "9" * 5000]:
        with pytest.raises(AlgebraError):
            parse_value(CUBIC, text)
    with pytest.raises(AlgebraError):  # fullwidth letters, which NFKC folds to sqrt2
        parse_value(QI2, "\uff53\uff51\uff52\uff542")


def test_powers_are_bounded_and_computed_by_squaring():
    v = parse_value(QI2, "1 + sqrt2 + i/3")
    power = one(QI2)
    for n in range(12):
        assert parse_value(QI2, f"(1 + sqrt2 + i/3)^{n}") == power
        power = power * v
    assert parse_value(CUBIC, f"2^{MAX_EXPONENT}").rational_value() == 2**MAX_EXPONENT
    # an exponent past the cap is refused before any multiplication
    for text in [f"2^{MAX_EXPONENT + 1}", "1^300000", "a^" + "9" * 4000]:
        with pytest.raises(AlgebraError, match="exponent"):
            parse_value(CUBIC, text)


def test_nested_powers_are_bounded_before_any_power_is_computed(monkeypatch):
    assert parse_value(CUBIC, "(a^2)^3") == parse_value(CUBIC, "a^6")
    assert parse_value(CUBIC, "a^((2))") == parse_value(CUBIC, "a*a")
    assert parse_value(QI, "(1+i)^0").rational_value() == 1
    assert parse_value(Q, "((2^10)^10)^10").rational_value() == 2**1000
    assert parse_value(Q, "(2^1000)^0 + (3^0)^1000").rational_value() == 2

    def no_power(v, n):
        raise AssertionError("a power was computed")

    monkeypatch.setattr(algext, "power", no_power)
    for field, text in [(Q, "((2^1000)^1000)^100"), (QI2, "((1+sqrt2)^1000)^100"),
                        (Q, "(2^11)^100"), (QI2, "(i * (1+sqrt2)^2 + 1)^501"),
                        (Q, "1 + ((2^0)^5000)^0")]:
        with pytest.raises(AlgebraError, match="exponent"):
            parse_value(field, text)


# -- compiled kernels: each against the loop that interpreted its sparse map ---


def reference_product(u, v, table):
    """sum_{i,j} u_i v_j table[i][j], skipping zero entries."""
    acc = [0] * len(u)
    for a, row in zip(u, table):
        if a:
            for b, terms in zip(v, row):
                if b:
                    for k, c in terms:
                        acc[k] += a * b * c
    return tuple(acc)


def reference_image(nums, images, dim):
    """sum_i nums[i] images[i]: a sparse integer matrix times a vector."""
    acc = [0] * dim
    for c, image in zip(nums, images):
        if c:
            for k, x in image:
                acc[k] += c * x
    return tuple(acc)


def kernel_inputs(n, seed):
    """Every unit vector, then random dense and sparse integer vectors of length n."""
    rng = random.Random(seed)
    out = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    for _ in range(20):
        out.append(tuple(rng.randint(-9, 9) for _ in range(n)))
        sparse = [0] * n
        for _ in range(rng.randint(1, 2)):
            sparse[rng.randrange(n)] = rng.randint(-10**12, 10**12)
        out.append(tuple(sparse))
    return out


PSI7 = make_value_field(minpoly=[-1, -2, 1, 1])  # 2cos(2pi/7)
PSI7_ROOT = make_value_field(minpoly=[-1, -2, 1, 1], adjoined=[(-4, 0, 1)])  # sqrt(a^2 - 4)
QM3 = make_value_field(adjoined=[-3])
QM3_I2 = make_value_field(adjoined=[-3, -1, 2])
Q2 = make_value_field(adjoined=[2])


@pytest.mark.parametrize("f", [Q, QI, Q2, QM3, QI2, QM3_I2, CUBIC, PSI7_ROOT],
                         ids=lambda f: f.describe())
def test_product_kernel_matches_the_table_loop(f):
    kernel, den = f._mul
    # one kernel per tower, built on the first read
    assert f._mul is f._mul and make_value_field(f.minpoly, f.adjoined)._mul is f._mul
    assert den == f._table[1]
    vectors = kernel_inputs(f.dim, f.dim)
    for u in vectors:
        for v in vectors[: f.dim] + [u]:
            assert kernel(u, v) == kernel(v, u) == reference_product(u, v, f._table[0])


CUBIC_FRAC = with_radical(CUBIC, [Fraction(1, 2), Fraction(1, 3), 0])  # table denominator 6


@pytest.mark.parametrize("f", [Q, QI2, QM3_I2, CUBIC, CUBIC_FRAC], ids=lambda f: f.describe())
def test_products_and_negatives_are_canonical_for_every_denominator(f):
    # a product over denominator 1 returns before the gcd; the others reduce by it
    table, table_den = f._table
    values = [algext._value(f, nums, den) for den in (1, 2, 6, 35)
              for nums in kernel_inputs(f.dim, den)[f.dim:f.dim + 8]]
    dens = set()
    for u in values:
        assert -u == algext._value(f, [-n for n in u.nums], u.den) and type((-u).nums) is tuple
        assert (-u).coeffs == tuple(-c for c in u.coeffs)
        for v in values[::5]:
            den = u.den * v.den * table_den
            dens.add(den == 1)
            w = u * v
            assert w == algext._value(f, reference_product(u.nums, v.nums, table), den)
            assert type(w.nums) is tuple and w.den > 0
    assert dens == {True, False} or table_den > 1


@pytest.mark.parametrize("src,target", [
    (Q, QI), (Q2, QI2), (QI, QI2), (QI2, QM3_I2), (QM3, QM3_I2),
    (make_value_field(adjoined=[-2]), QI2), (CUBIC, CUBIC_I), (PSI7, PSI7_ROOT),
], ids=lambda f: f.describe())
def test_lift_kernel_matches_the_image_loop(src, target):
    kernel, den = algext._lift_map(src, target)
    assert algext._lift_map(src, target)[0] is kernel
    # the lift is the ring map that sends theta to theta and each root to a
    # square root of its radicand with the same embedded value
    roots = [lift(adjoined_root(src, j), target) for j in range(src.nroots)]
    for j, w in enumerate(roots):
        r = adjoined_root(src, j)
        assert w * w == lift(r * r, target) and close(embed(w), embed(r))
    t = theta(target) if target.base_degree > 1 else zero(target)
    images, image_den = algext._ring_images(src, t, roots)
    assert den == image_den
    for u in kernel_inputs(src.dim, target.dim):
        assert kernel(u) == reference_image(u, images, target.dim)


@pytest.mark.parametrize("f", [QI2, QUAD_SQRT3], ids=lambda f: f.describe())
def test_automorphism_kernels_match_the_image_loop(f):
    autos = automorphisms(f)
    assert len(autos) == 4
    t = theta(f) if f.base_degree > 1 else zero(f)
    x = one(f) + adjoined_root(f, 0)
    for tau in autos:
        key = (f, tau.sign_mask, tau.conjugate_base)
        kernel, den = algext._automorphism_map(*key)
        assert algext._automorphism_map(*key)[0] is kernel
        # theta goes to -c1 - theta when the base is conjugated, a flipped root to its negative
        t_image = from_rational(f, -f.minpoly[1]) - t if tau.conjugate_base else t
        roots = [adjoined_root(f, j) for j in range(f.nroots)]
        roots = [-w if tau.sign_mask >> j & 1 else w for j, w in enumerate(roots)]
        assert tau.apply(t) == t_image
        assert [tau.apply(adjoined_root(f, j)) for j in range(f.nroots)] == roots
        images, image_den = algext._ring_images(f, t_image, roots)
        assert den == image_den == 1
        for u in kernel_inputs(f.dim, 4):
            assert kernel(u) == reference_image(u, images, f.dim)
        # a used automorphism pickles, copies and applies as the original
        for copied in (pickle.loads(pickle.dumps(tau)), copy.copy(tau), copy.deepcopy(tau)):
            assert copied == tau and copied.apply(x) == tau.apply(x)


AUTOMORPHISM_MASKS = [
    (Q, [(0, False)]),
    (Q2, [(0, False), (1, False)]),
    (QI2, [(0, False), (1, False), (2, False), (3, False)]),
    (QUAD_SQRT3, [(0, False), (1, False), (0, True), (1, True)]),
    (CUBIC_I, [(0, False), (1, False)]),
]


@pytest.mark.parametrize("f,masks", AUTOMORPHISM_MASKS, ids=lambda f: getattr(f, "describe", str)())
def test_automorphisms_are_a_group_in_a_fixed_order(f, masks):
    autos = automorphisms(f)
    assert [(tau.sign_mask, tau.conjugate_base) for tau in autos] == masks
    assert autos[0].is_identity()
    # a map is fixed by the images of theta and the roots: every composite is listed
    gens = ([theta(f)] if f.base_degree > 1 else []) + [adjoined_root(f, j) for j in range(f.nroots)]
    rng = random.Random(37)
    values = [rand_full(f, rng) for _ in range(3)]
    for sigma in autos:
        for tau in autos:
            composite = [sigma.apply(tau.apply(g)) for g in gens]
            (rho,) = [rho for rho in autos if [rho.apply(g) for g in gens] == composite]
            assert all(rho.apply(v) == sigma.apply(tau.apply(v)) for v in values)


def test_base_conjugation_of_an_irrational_radicand_raises():
    # over Q(a), a^2 = 2, with sqrt(a) adjoined, a -> -a sends sqrt(a)^2 = a to
    # -a, so no image of sqrt(a) makes it a ring map
    f = make_value_field((-2, 0, 1), [[0, 1]])
    with pytest.raises(AlgebraError, match="no automorphism with sign mask 0 and base conj"):
        algext.FieldAutomorphism(f, 0, True).apply(one(f))
    assert [(tau.sign_mask, tau.conjugate_base) for tau in automorphisms(f)] == [(0, False),
                                                                                 (1, False)]


def test_an_automorphism_that_is_no_ring_map_cannot_be_built():
    # over Q, conjugation has no quadratic base to act on, and Q(sqrt2) has
    # one root: masks 0 and 1 only, integers
    QS2 = with_radical(Q, 2)
    with pytest.raises(AlgebraError, match="no automorphism with sign mask 0 and base conj"):
        algext.FieldAutomorphism(QS2, 0, True)
    for mask in (-1, 2, 1.5):
        with pytest.raises(AlgebraError, match=f"no automorphism with sign mask {mask}$"):
            algext.FieldAutomorphism(QS2, mask, False)
    assert algext.FieldAutomorphism(QS2, 1, False) == automorphisms(QS2)[1]


@pytest.mark.parametrize("f,masks", AUTOMORPHISM_MASKS, ids=lambda f: getattr(f, "describe", str)())
def test_only_the_listed_automorphisms_apply(f, masks):
    # automorphisms is the one statement of the rule: every other (mask,
    # conjugation), a mask out of range or negative included, raises
    x = one(f) + (adjoined_root(f, 0) if f.nroots else one(f))
    for mask in range(-1, (2 << f.nroots) + 1):
        for conj in (False, True):
            if (mask, conj) in masks:
                assert algext.FieldAutomorphism(f, mask, conj).apply(x).field is f
            else:
                with pytest.raises(AlgebraError, match=f"no automorphism with sign mask {mask}"):
                    algext.FieldAutomorphism(f, mask, conj)


@pytest.mark.parametrize("chain", [
    (Q, QI, QI2), (make_value_field(adjoined=[-2]), QI2, QI23),
    (CUBIC, CUBIC_I, with_radical(CUBIC_I, 2)),
], ids=lambda chain: " < ".join(f.describe() for f in chain))
def test_lifting_in_two_steps_equals_lifting_in_one(chain):
    bottom, middle, top = chain
    rng = random.Random(41)
    for _ in range(20):
        v = rand_full(bottom, rng)
        assert lift(lift(v, middle), top) == lift(v, top)
