"""Property tests: exact square roots over totally real bases, and tower
values as canonical integer numerators over one denominator."""

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from iqhecke.algext import (  # noqa: E402
    RATIONAL_FIELD,
    automorphisms,
    from_coeffs,
    from_rational,
    lift,
    make_value_field,
    one,
    sqrt_in_tower,
    with_radical,
)

BASES = [
    make_value_field(minpoly=[-1, -1, 1]),  # the golden ratio
    make_value_field(minpoly=[1, -3, -1, 1]),
    make_value_field(minpoly=[1, 0, -10, 0, 1]),  # sqrt2 + sqrt3
]

rationals = st.builds(Fraction, st.integers(-10**14, 10**14), st.integers(1, 10**8))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.data())
def test_base_squares_have_exact_roots(data):
    f = data.draw(st.sampled_from(BASES))
    w = from_coeffs(f, data.draw(st.lists(rationals, min_size=f.dim, max_size=f.dim)))
    hypothesis.assume(not w.is_zero())
    v = w * w
    root = sqrt_in_tower(v)
    assert root is not None and root.coeffs in (w.coeffs, (-w).coeffs)
    assert sqrt_in_tower(-v) is None


# -- integer numerators over one denominator, against a Fraction reference --

TOWER_Q = make_value_field(adjoined=[-1, 2])
TOWER_8 = make_value_field(adjoined=[-1, 2, 3])
CUBIC = make_value_field(minpoly=[1, -3, -1, 1])
CUBIC_FRAC = with_radical(CUBIC, [Fraction(1, 2), Fraction(1, 3), 0])  # table denominator 6
TOWERS = [TOWER_Q, TOWER_8, CUBIC_FRAC]
small = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


def values(f):
    return st.lists(small, min_size=f.dim, max_size=f.dim).map(lambda c: from_coeffs(f, c))


def assert_canonical(v):
    assert len(v.nums) == v.field.dim and all(type(n) is int for n in v.nums)
    assert type(v.den) is int and v.den > 0 and gcd(v.den, *v.nums) == 1
    assert from_coeffs(v.field, v.coeffs) == v


def _mul_mod(p, q, mp):
    """p*q mod the monic minimal polynomial mp, all constant first."""
    deg = len(mp) - 1
    out = [Fraction(0)] * (2 * deg - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    for n in range(len(out) - 1, deg - 1, -1):
        out[n - deg:n] = [x - out[n] * c for x, c in zip(out[n - deg:n], mp)]
    return out[:deg]


def reference_product(f, u, v):
    """u*v from the definition of the basis: theta^a sqrt(S) * theta^b sqrt(T)
    = theta^(a+b) r_{S&T} sqrt(S^T), in plain Fraction polynomial arithmetic."""
    deg, mp = f.base_degree, list(f.minpoly)
    out = [Fraction(0)] * f.dim
    for s in range(1 << f.nroots):
        for t in range(1 << f.nroots):
            p = _mul_mod(u[s * deg:(s + 1) * deg], v[t * deg:(t + 1) * deg], mp)
            for j in range(f.nroots):
                if (s & t) >> j & 1:
                    p = _mul_mod(p, list(f.adjoined[j]), mp)
            for k, c in enumerate(p):
                out[(s ^ t) * deg + k] += c
    return out


def test_fraction_reference_towers():
    assert CUBIC_FRAC.nroots == 1 and CUBIC_FRAC._table[1] == 6
    assert TOWER_8.dim == 8 and TOWER_Q._table[1] == 1


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.data())
def test_ring_operations_match_the_fraction_reference(data):
    f = data.draw(st.sampled_from(TOWERS))
    u, v = data.draw(values(f)), data.draw(values(f))
    q = data.draw(small)
    for w in (u, v, u + v, u - v, -u, u * v, u.scale(q)):
        assert_canonical(w)
    assert (u + v).coeffs == tuple(a + b for a, b in zip(u.coeffs, v.coeffs))
    assert (u - v).coeffs == tuple(a - b for a, b in zip(u.coeffs, v.coeffs))
    assert (u * v).coeffs == tuple(reference_product(f, u.coeffs, v.coeffs))
    assert u.scale(q).coeffs == tuple(q * a for a in u.coeffs)
    if not v.is_zero():
        w = v.inv()
        assert_canonical(w)
        assert reference_product(f, v.coeffs, w.coeffs) == list(one(f).coeffs)


@pytest.mark.parametrize("f", [RATIONAL_FIELD] + TOWERS, ids=lambda f: f.describe())
@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(data=st.data())
def test_rational_factors_and_subtraction_match_the_fraction_reference(f, data):
    """Products with a rational factor on either side (every product on Q),
    which the tower's kernel forms like any other, and subtraction without a
    negation."""
    u, v = data.draw(values(f)), data.draw(values(f))
    q = data.draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]) | small)
    r = from_rational(f, q)
    for w in (u * r, r * u, u * v, u - v, r - u):
        assert_canonical(w)
    assert (u * r).coeffs == (r * u).coeffs == tuple(q * a for a in u.coeffs)
    assert (u * r).coeffs == tuple(reference_product(f, u.coeffs, r.coeffs))
    assert (u * v).coeffs == tuple(reference_product(f, u.coeffs, v.coeffs))
    assert u - v == u + (-v) and (u - v).coeffs == tuple(a - b for a, b in zip(u.coeffs, v.coeffs))
    assert u - u == r - r == from_rational(f, 0)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(st.data())
def test_lift_and_automorphisms_match_the_fraction_reference(data):
    src, target = data.draw(st.sampled_from(
        [(make_value_field(adjoined=[2]), TOWER_8), (TOWER_Q, TOWER_8), (CUBIC, CUBIC_FRAC)]))
    v = data.draw(values(src))
    # a root of src is the root of target with the same radicand
    bits = [1 << target.adjoined.index(r) for r in src.adjoined]
    expected = [Fraction(0)] * target.dim
    deg = src.base_degree
    for i, c in enumerate(v.coeffs):
        mask, k = divmod(i, deg)
        expected[sum(b for j, b in enumerate(bits) if mask >> j & 1) * deg + k] = c
    w = lift(v, target)
    assert_canonical(w)
    assert w.coeffs == tuple(expected)
    for tau in automorphisms(target):
        # sqrt(S) changes sign with the number of flipped roots in S
        image = tau.apply(w)
        assert_canonical(image)
        assert image.coeffs == tuple(
            -c if bin(i // deg & tau.sign_mask).count("1") % 2 else c
            for i, c in enumerate(w.coeffs))
