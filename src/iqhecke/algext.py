"""Exact arithmetic in small square-root towers over a totally real base.

A ValueField is k = Q(theta)(sqrt(r_1), ..., sqrt(r_m)) where theta has a
monic integer minimal polynomial of small degree deg and the r_j are
base-field elements (usually rationals), the radicands.  A value is a flat
tuple of deg * 2^m integers over one positive denominator, in lowest terms
(Cohen, GTM 138, sec. 4.2), on the basis theta^k * prod_{j in S} sqrt(r_j),
at index S*deg + k for a root bitmask S.  The last root owns the top bit, so
v = v0 + v1*sqrt(r) with v0, v1 the two contiguous halves of ``nums``, in
the subtower without it.  Inverses and square roots descend through that
split; the inverse is (v0 - v1*sqrt(r)) / N with the relative norm
N = v0^2 - r*v1^2, down to the root-free tower ``f.base``.

Each tower memoises its structure constants (e_i*e_j as a sparse sum of
integers over one denominator; Q(theta)'s in the root-free tower), and the
complex value and name of each basis element, and each pair of towers its
lift map, so products, lifts and automorphisms are one integer loop and one
gcd, and embeddings and rendering loops over the Fraction view ``coeffs``.
``with_radical`` is memoised per (tower, radicand), so its Kummer test
runs once per pair.

An ``AlgValue`` is the named triple (field, nums, den), a tuple underneath:
every builder goes through one unchecked constructor, ``_new_value``, a
single C call, and equality and hashing are tuple's, by tower identity,
numerators and denominator.  It is no sequence (``len``, iteration and
``n * v`` raise TypeError).  A product with a rational factor, and so every
product over Q, scales the other factor's numerators without the structure
constants, since basis element 0 is 1 in every tower.

Square roots are exact.  A base square root comes from p-adic lifting and
interpolation at a split prime (``poly``), bounded through the trace form of
Q(theta), which ``make_value_field`` therefore requires to be positive
definite: the base is totally real.  It also requires an irreducible minimal
polynomial, so the base is a field.  A root is adjoined only when its radicand
is not already a square (Kummer theory: no product of the tower's radicands
times it is a base square), so every tower the library builds is a field;
``make_value_field`` builds exactly the tower it is given.  The embedding
sends theta to the largest root of its minimal polynomial and gives every root
its value, and ``canonical_sign`` and ``lift`` follow it.
"""

from __future__ import annotations

import ast
import cmath
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import product
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import NamedTuple

from . import poly
from .quadfield import factor_int, no_sequence


class AlgebraError(ValueError):
    pass


BaseVec = tuple[Fraction, ...]  # coefficients on 1, theta, ..., theta^(deg-1)
Sparse = tuple[tuple[int, int], ...]  # (basis index, integer coefficient) pairs, zeros left out
Table = tuple[tuple[Sparse, ...], ...]  # structure constants: e_i*e_j at [i][j]

MAX_EXPONENT = 1000  # the largest product of nested exponents that parse_value reads


@dataclass(frozen=True, eq=False)
class ValueField:
    """Q(theta) with square roots of base elements; ``_tower`` keeps one object per tower."""

    minpoly: tuple[int, ...]  # monic, constant coefficient first; (0, 1) for Q
    adjoined: tuple[BaseVec, ...]  # sorted; each of length deg(minpoly)

    def __reduce__(self):  # a copied or unpickled tower is the interned one
        return _tower, (self.minpoly, self.adjoined)

    @cached_property
    def base(self) -> "ValueField":
        """Q(theta), the tower without roots: its values are the base elements."""
        return _tower(self.minpoly, ())

    @property
    def base_degree(self) -> int:
        return len(self.minpoly) - 1

    @property
    def nroots(self) -> int:
        return len(self.adjoined)

    @property
    def dim(self) -> int:
        return self.base_degree << self.nroots

    def subfield(self) -> "ValueField":
        if not self.adjoined:
            raise AlgebraError("a tower without roots has no subfield")
        return _tower(self.minpoly, self.adjoined[:-1])

    def describe(self) -> str:
        base = "Q" if self.base_degree == 1 else f"Q(a), deg {self.base_degree}"
        if not self.adjoined:
            return base
        names = ", ".join(_root_name(self, j) for j in range(self.nroots))
        return f"{base}({names})"

    @cached_property
    def _radicand_products(self) -> tuple["AlgValue", ...]:
        """The base values prod_{j in S} r_j for every root subset S, by mask."""
        out = [one(self.base)]
        for r in self.adjoined:
            r = from_coeffs(self.base, r)
            out += [p * r for p in out]
        return tuple(out)

    @cached_property
    def _table(self) -> tuple[Table, int]:
        """e_i*e_j at [i][j] over one denominator: theta^(a+b), reduced, without
        roots, and theta^a sqrt(S) * theta^b sqrt(T) = theta^(a+b) r_{S&T} sqrt(S^T)."""
        deg = self.base_degree
        units = [_unit_vec(deg, k) for k in range(deg)]
        if not self.adjoined:
            powers = units[:]
            for _ in range(deg - 1):
                # theta^n = theta * theta^(n-1), where theta^deg = -(c_0 + c_1*theta + ...)
                prev = powers[-1]
                powers.append(tuple((prev[k - 1] if k else 0) - prev[-1] * self.minpoly[k]
                                    for k in range(deg)))
            return tuple(tuple(_sparse(powers[a + b]) for b in range(deg)) for a in range(deg)), 1
        table = self.base._table[0]
        den = lcm(*(p.den for p in self._radicand_products))
        radicands = [[n * (den // p.den) for n in p.nums] for p in self._radicand_products]
        basis = [divmod(i, deg) for i in range(self.dim)]  # (S, a) at index S*deg + a
        return tuple(
            tuple(
                _sparse(_product(_product(units[a], units[b], table), radicands[s & t], table),
                        (s ^ t) * deg)
                for t, b in basis
            )
            for s, a in basis
        ), den

    @cached_property
    def _trace_form(self) -> tuple[int, Fraction, tuple[Fraction, ...]]:
        """(disc, b, tr) from the trace form T = (Tr theta^(j+k)) of the base:
        disc = det T is the discriminant of the minimal polynomial, tr is the
        row Tr(theta^i), and b = max_j (T^-1)_jj, so |x_j|^2 <= Tr(x^2) * b for
        x = sum x_j theta^j (Cauchy-Schwarz).  By Hermite, T is positive
        definite, and Gauss-Jordan without row swaps meets only positive
        pivots, exactly when the base is totally real with distinct roots."""
        deg, table = self.base_degree, self.base._table[0]
        tr = tuple(sum(c for a in range(deg) for k, c in table[i][a] if k == a) for i in range(deg))
        m = [[Fraction(sum(c * tr[i] for i, c in table[j][k])) for k in range(deg)]
             + list(_unit_vec(deg, j)) for j in range(deg)]
        disc = 1
        for k in range(deg):
            if m[k][k] <= 0:
                raise AlgebraError(f"minimal polynomial [{', '.join(map(str, self.minpoly))}] "
                                   "is not totally real with distinct roots")
            disc *= m[k][k]
            m[k] = [x / m[k][k] for x in m[k]]
            for r in range(deg):
                if r != k:
                    m[r] = [x - m[r][k] * y for x, y in zip(m[r], m[k])]
        return int(disc), max(m[j][deg + j] for j in range(deg)), tr

    @cached_property
    def _basis_values(self) -> tuple[complex, ...]:
        """Each basis element under the fixed embedding: theta goes to the
        largest root, sqrt(r) to the principal root."""
        th = complex(poly.largest_root([float(c) for c in self.minpoly]))
        powers = [th**k for k in range(self.base_degree)]
        radicals = [cmath.sqrt(sum(float(c) * p for c, p in zip(r, powers)))
                    for r in self.adjoined]
        return tuple(
            p * prod((z for j, z in enumerate(radicals) if mask >> j & 1), start=1 + 0j)
            for mask in range(1 << self.nroots)
            for p in powers
        )

    @cached_property
    def _basis_names(self) -> tuple[str, ...]:
        """Each basis element as ``render_value`` writes it; '' for 1."""
        thetas = [[], ["a"]] + [[f"a^{k}"] for k in range(2, self.base_degree)]
        roots = [_root_name(self, j) for j in range(self.nroots)]
        return tuple(
            "*".join(thetas[k] + [name for j, name in enumerate(roots) if mask >> j & 1])
            for mask in range(1 << self.nroots)
            for k in range(self.base_degree)
        )


def make_value_field(minpoly=(0, 1), adjoined=()) -> ValueField:
    mp = tuple(Fraction(c) for c in minpoly)
    if len(mp) < 2 or mp[-1] != 1 or any(c.denominator != 1 for c in mp):
        raise AlgebraError(f"minimal polynomial must be monic and integer, got {minpoly}")
    mp = (0, 1) if len(mp) == 2 else tuple(map(int, mp))  # every degree-1 base is Q
    _tower(mp, ())._trace_form  # raises unless the base is totally real
    if len(mp) > 2 and not poly.is_irreducible(mp):
        raise AlgebraError(f"minimal polynomial [{', '.join(map(str, mp))}] is reducible")
    deg = len(mp) - 1
    radicands = [_as_base_vec(deg, r) for r in adjoined]
    if len(set(radicands)) != len(radicands):
        raise AlgebraError(f"duplicate radicand in {list(adjoined)}")
    for q, *rest in radicands:
        if not any(rest) and (q in (0, 1) or squarefree_part(q) != (1, q)):
            raise AlgebraError(f"radicand {q} is not a squarefree integer other than 0 and 1")
    return _tower(mp, tuple(sorted(radicands)))


@lru_cache(maxsize=None)
def _tower(minpoly: tuple[int, ...], adjoined: tuple[BaseVec, ...]) -> ValueField:
    return ValueField(minpoly, adjoined)


def _as_base_vec(deg: int, r) -> BaseVec:
    if isinstance(r, (int, Fraction)):
        return (Fraction(r),) + (Fraction(0),) * (deg - 1)
    vec = tuple(Fraction(c) for c in r)
    if len(vec) != deg:
        raise AlgebraError(f"radicand {list(r)} has {len(vec)} coefficients, base degree is {deg}")
    return vec


@no_sequence
class AlgValue(NamedTuple):
    """nums/den on the basis of ``field``, in the canonical form den > 0 and
    gcd(den, *nums) == 1 that every operation returns (``_value``); a tuple
    underneath but no sequence (``quadfield.no_sequence``: no ``len``,
    iteration, indexing, order or ``n * v``), and true like any object."""

    field: ValueField
    nums: tuple[int, ...]
    den: int

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise AlgebraError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "AlgValue") -> "AlgValue":
        _check_same_field(self, other)
        a, b = self.den, other.den
        return _value(self.field, [x * b + y * a for x, y in zip(self.nums, other.nums)], a * b)

    def __neg__(self) -> "AlgValue":
        return _new_value((self.field, tuple(-n for n in self.nums), self.den))

    def __sub__(self, other: "AlgValue") -> "AlgValue":
        _check_same_field(self, other)
        a, b = self.den, other.den
        return _value(self.field, [x * b - y * a for x, y in zip(self.nums, other.nums)], a * b)

    def __mul__(self, other: "AlgValue") -> "AlgValue":
        _check_same_field(self, other)
        u, v = self.nums, other.nums
        if not any(v[1:]):
            c = v[0]
            return _value(self.field, [c * x for x in u], self.den * other.den)
        if not any(u[1:]):
            c = u[0]
            return _value(self.field, [c * x for x in v], self.den * other.den)
        table, den = self.field._table
        return _value(self.field, _product(u, v, table), self.den * other.den * den)

    def scale(self, q) -> "AlgValue":
        q = Fraction(q)
        return _value(self.field, [q.numerator * n for n in self.nums], q.denominator * self.den)

    def inv(self) -> "AlgValue":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        f = self.field
        if f.dim == 1:
            return _value(f, (self.den,), self.nums[0])
        if f.nroots == 0:
            return _base_inv(self)
        # v is a unit exactly when its relative norm is a unit of the subtower
        v0, v1, r = _halves(self)
        try:
            n_inv = (v0 * v0 - v1 * v1 * r).inv()
        except ZeroDivisionError:
            raise ZeroDivisionError("value is a zero divisor; tower is degenerate") from None
        return _merge(f, v0 * n_inv, -(v1 * n_inv))

    def __truediv__(self, other: "AlgValue") -> "AlgValue":
        _check_same_field(self, other)
        return self * other.inv()

    def __repr__(self):
        return f"AlgValue({render_value(self)})"


_new_value = partial(tuple.__new__, AlgValue)  # (field, nums, den) -> AlgValue, unchecked


def _check_same_field(a: AlgValue, b):
    if b.__class__ is not AlgValue:
        raise TypeError(f"cannot combine an AlgValue with {type(b).__name__}")
    if a.field is not b.field:
        raise AlgebraError("values live in different fields; lift them first")


def _value(f: ValueField, nums, den: int) -> AlgValue:
    """The value nums/den of f in canonical form (den != 0)."""
    g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
    if g == 1:
        return _new_value((f, tuple(nums), den))
    return _new_value((f, tuple(n // g for n in nums), den // g))


def from_coeffs(f: ValueField, coeffs) -> AlgValue:
    """The value of f with the given rational coefficients (ints or Fractions)."""
    den = lcm(*(c.denominator for c in coeffs))
    return _value(f, [c.numerator * (den // c.denominator) for c in coeffs], den)


def _product(u, v, table: Table) -> list[int]:
    """The product of two integer vectors through integer structure constants."""
    acc = [0] * len(u)
    for a, row in zip(u, table):
        if a:
            for b, terms in zip(v, row):
                if b:
                    ab = a * b
                    for k, c in terms:
                        acc[k] += ab * c
    return acc


def _linear_image(nums, images: tuple[Sparse, ...], dim: int) -> list[int]:
    """sum_i nums[i] * images[i]: a sparse integer matrix times a vector."""
    acc = [0] * dim
    for c, image in zip(nums, images):
        if c:
            for k, x in image:
                acc[k] += c * x
    return acc


def _sparse(coeffs, lead: int = 0) -> Sparse:
    """The nonzero integer coefficients as (index, coefficient) pairs, indices shifted by lead."""
    return tuple((lead + k, c) for k, c in enumerate(coeffs) if c)


def _base_inv(v: AlgValue) -> AlgValue:
    """Inverse of a nonzero base value nums/den: den * x, where Gauss-Jordan
    elimination over Q on [M | 1] solves M x = 1 for the multiplication matrix
    M of nums (column k is nums * theta^k)."""
    deg, (table, _) = v.field.dim, v.field._table
    cols = [_product(v.nums, _unit_vec(deg, k), table) for k in range(deg)] + [_unit_vec(deg, 0)]
    m = [[col[i] for col in cols] for i in range(deg)]
    for k in range(deg):
        piv = next((r for r in range(k, deg) if m[r][k]), None)
        if piv is None:
            raise ZeroDivisionError("value is a zero divisor; tower is degenerate")
        inv = 1 / Fraction(m[piv][k])
        m[piv], m[k] = m[k], [x * inv for x in m[piv]]  # swap, scaling the pivot row
        for r in range(deg):
            if r != k and (factor := m[r][k]):
                m[r] = [x - factor * y for x, y in zip(m[r], m[k])]
    return from_coeffs(v.field, [m[r][deg] * v.den for r in range(deg)])


def _halves(v: AlgValue) -> tuple[AlgValue, AlgValue, AlgValue]:
    """(v0, v1, r) with v = v0 + v1*sqrt(r), where sqrt(r) is the last root
    and v0, v1, r lie in the subtower without it."""
    f = v.field
    sub = f.subfield()
    half = len(v.nums) // 2
    r = _place(sub, f._radicand_products[1 << (f.nroots - 1)])
    return _value(sub, v.nums[:half], v.den), _value(sub, v.nums[half:], v.den), r


def _merge(f: ValueField, v0: AlgValue, v1: AlgValue) -> AlgValue:
    """v0 + v1*sqrt(r) in f, for v0, v1 in the subtower without the last root."""
    return _value(f, [n * v1.den for n in v0.nums] + [n * v0.den for n in v1.nums],
                  v0.den * v1.den)


# -- constructors ------------------------------------------------------------


def _unit_vec(deg: int, k: int) -> tuple[int, ...]:
    return tuple(int(i == k) for i in range(deg))


RATIONAL_FIELD = make_value_field()


def from_rational(f: ValueField, q) -> AlgValue:
    q = Fraction(q)
    return _new_value((f, (q.numerator,) + (0,) * (f.dim - 1), q.denominator))


def zero(f: ValueField) -> AlgValue:
    return _new_value((f, (0,) * f.dim, 1))


@lru_cache(maxsize=None)
def one(f: ValueField) -> AlgValue:
    """The unit of f, one shared value per tower (values are immutable)."""
    return from_rational(f, 1)


def theta(f: ValueField) -> AlgValue:
    if f.base_degree < 2:
        raise AlgebraError("base field is Q; there is no generator")
    return _new_value((f, _unit_vec(f.dim, 1), 1))


def adjoined_root(f: ValueField, j: int) -> AlgValue:
    return _new_value((f, _unit_vec(f.dim, f.base_degree << j), 1))


def _place(f: ValueField, b: AlgValue, mask: int = 0) -> AlgValue:
    """The base value b times prod_{j in mask} sqrt(r_j), in f."""
    lead = mask * f.base_degree
    return _new_value((f, (0,) * lead + b.nums + (0,) * (f.dim - lead - len(b.nums)), b.den))


# -- field embeddings ---------------------------------------------------------


@lru_cache(maxsize=None)
def join_fields(f1: ValueField, f2: ValueField) -> ValueField:
    """f1 with every root of f2 that f1 does not already hold."""
    if f1.minpoly != f2.minpoly:
        raise AlgebraError("cannot join towers over different base fields")
    for r in f2.adjoined:
        f1 = with_radical(f1, r)
    return f1


def lift(v: AlgValue, target: ValueField) -> AlgValue:
    """Re-express v in another tower over the same base that holds a square
    root of every radicand of v's tower (see ``_lift_map``)."""
    src = v.field
    if src == target:
        return v
    if src.minpoly != target.minpoly:
        raise AlgebraError("cannot lift across different base fields")
    images, den = _lift_map(src, target)
    return _value(target, _linear_image(v.nums, images, target.dim), v.den * den)


@lru_cache(maxsize=None)
def _lift_map(src: ValueField, target: ValueField) -> tuple[tuple[Sparse, ...], int]:
    """The image in target of each basis element of src, over one denominator:
    sqrt(r) goes to the square root of r in target with the same embedded value."""
    monomials = [one(target)]  # the images of the root products, by mask
    for j in range(src.nroots):
        w, z = _base_root(target, src._radicand_products[1 << j]), embed(adjoined_root(src, j))
        if w is None:
            raise AlgebraError(f"{target.describe()} has no root {_root_name(src, j)}")
        w = w if abs(embed(w) - z) < abs(embed(w) + z) else -w
        monomials += [m * w for m in monomials]
    powers = [_new_value((target, _unit_vec(target.dim, k), 1)) for k in range(src.base_degree)]
    images = [p * m for m in monomials for p in powers]
    den = lcm(*(x.den for x in images))
    return tuple(_sparse([n * (den // x.den) for n in x.nums]) for x in images), den


def values_equal(a: AlgValue, b: AlgValue) -> bool:
    f = join_fields(a.field, b.field)
    return lift(a, f) == lift(b, f)


# -- square roots -------------------------------------------------------------


def _rational_sqrt(q: Fraction) -> Fraction | None:
    rn, rd = isqrt(max(q.numerator, 0)), isqrt(q.denominator)
    return Fraction(rn, rd) if rn * rn == q.numerator and rd * rd == q.denominator else None


def squarefree_part(q: Fraction) -> tuple[Fraction, int]:
    """Write q = s^2 * f with f a squarefree integer; returns (s, f)."""
    if q == 0:
        raise AlgebraError("0 has no squarefree part")
    m = q.numerator * q.denominator
    f = -1 if m < 0 else 1
    for p, e in factor_int(abs(m)):
        if e % 2:
            f *= p
    # q = m / den^2 and m / f is a square, so s = sqrt(m / f) / den exactly
    return Fraction(isqrt(m // f), q.denominator), f


def _base_sqrt(c: AlgValue) -> AlgValue | None:
    """Exact square root of a base value, or None.

    A rational goes by integer square roots first; a base of odd degree holds
    no square root of a rational non-square, one of even degree may (sqrt2
    lies in Q(sqrt2 + sqrt3)).  Otherwise a root w scales to X = e*w in
    Z[theta], e = disc * D with D the denominator of c, as (D*w)^2 is
    integral and disc * O_K lies in Z[theta].  At the least odd prime p where
    the minimal polynomial splits into distinct roots x_i and t = X^2 has unit
    images, X(x_i) = +-sqrt(t(x_i)); both lift by Newton's method to p^k past
    twice the bound on X's coordinates that Tr(X^2) = Tr(t) gives through the
    trace form, and the sign pattern that interpolates X squares to t exactly.
    """
    f, deg = c.field, c.field.dim
    if c.is_rational():
        r = _rational_sqrt(c.rational_value())
        if r is not None:
            return from_rational(f, r)
        if deg % 2:
            return None
    disc, bound, tr = f._trace_form
    e = disc * c.den
    t = [n * disc * e for n in c.nums]  # c * e^2
    for p, xs in poly.split_primes(f.minpoly):
        images = [poly.evaluate(t, x) % p for x in xs]
        if all(images):
            break
    ys = [next((y for y in range(p) if y * y % p == tx), None) for tx in images]
    if None in ys:
        return None  # t is not a square mod p
    m, xs = poly.lift_roots(f.minpoly, p, xs, 4 * bound * sum(map(mul, t, tr)))
    ys = [poly.hensel([-poly.evaluate(t, x), 0, 1], y, m) for x, y in zip(xs, ys)]
    cols = [[y * c for c in li] for y, li in zip(ys, poly.lagrange_basis(xs, m))]
    for signs in product((1, -1), repeat=deg - 1):
        cand = [(sum(map(mul, (1,) + signs, row)) + m // 2) % m - m // 2 for row in zip(*cols)]
        if _product(cand, cand, f._table[0]) == t:
            return _value(f, cand, e)
    return None


def _base_root(f: ValueField, c: AlgValue) -> AlgValue | None:
    """A square root in f of the base value c, or None.  By Kummer theory f
    holds one exactly when c*P is a base square s^2 for a product P of its
    radicands, and then sqrt(c) = (s/P) * sqrt(P)."""
    for mask, p in enumerate(f._radicand_products):
        s = _base_sqrt(c * p if mask else c)
        if s is not None:
            return _place(f, s / p if mask else s, mask)
    return None


def _square_class(v: AlgValue) -> tuple[AlgValue, AlgValue] | None:
    """(c, u) with v = c*u^2, c in the base and u in v's tower; None when v
    has no such form.  Through the last root: with n^2 = v0^2 - r*v1^2 the
    element x = v + n has x^2 = 2v(v0 + n), so v = c*(x/(c*u))^2 once the
    subtower has 2(v0 + n) = c*u^2."""
    f = v.field
    if f.nroots == 0:
        return v, one(f)
    v0, v1, r = _halves(v)
    sub = v0.field
    if v1.is_zero():
        found = _square_class(v0)
        return found and (found[0], _merge(f, found[1], zero(sub)))
    n = sqrt_in_tower(v0 * v0 - v1 * v1 * r)
    if n is None:
        return None
    if (v0 + n).is_zero():
        n = -n
    found = _square_class((v0 + n).scale(2))
    if found is None:
        return None
    c, u = found
    return c, _merge(f, v0 + n, v1) / _merge(f, _place(sub, c) * u, zero(sub))


def sqrt_in_tower(v: AlgValue) -> AlgValue | None:
    """A w in the same tower with w^2 = v, by descent; None if no such w."""
    found = _square_class(v)
    root = found and _base_root(v.field, found[0])
    return None if root is None else root * found[1]


def sqrt_or_adjoin(v: AlgValue) -> tuple[AlgValue, ValueField]:
    """A square root of v with the canonical sign, and its tower.  With
    v = c*u^2 (``_square_class``) and no sqrt(c) in the tower, the tower gains
    the squarefree class of least absolute value (positive on ties) among the
    rational c*P, P a product of its radicands, or c when no c*P is rational.
    """
    f = v.field
    found = _square_class(v)
    if found is None:
        raise AlgebraError(f"cannot adjoin a square root of {render_value(v)}")
    c, u = found
    root = _base_root(f, c)
    if root is None:
        classes = [
            squarefree_part(cp.rational_value())[1]
            for cp in (c * p for p in f._radicand_products)
            if cp.is_rational()
        ]
        f = _with_radical(f, from_rational(f.base, min(classes, key=lambda q: (abs(q), q < 0)))
                          if classes else c)
        root, u = _base_root(f, c), lift(u, f)
    return canonical_sign(root * u), f


def with_radical(f: ValueField, q) -> ValueField:
    """f with sqrt(q) adjoined, or f itself when q is already a square in f;
    q is a base element, and a rational q is adjoined by its squarefree class.
    Memoised per (tower, radicand), as towers are interned."""
    return _with_radical(f, from_coeffs(f.base, _as_base_vec(f.base_degree, q)))


@lru_cache(maxsize=None)
def _with_radical(f: ValueField, c: AlgValue) -> ValueField:
    if c.coeffs in f.adjoined or _base_root(f, c) is not None:
        return f
    if c.is_rational():
        c = from_rational(f.base, squarefree_part(c.rational_value())[1])
    return _tower(f.minpoly, tuple(sorted(f.adjoined + (c.coeffs,))))


# -- numeric embedding (root values, signs and rendering order) --------------


def embed(v: AlgValue) -> complex:
    return sum((float(c) * z for c, z in zip(v.coeffs, v.field._basis_values) if c), 0j)


def canonical_sign(v: AlgValue) -> AlgValue:
    z = embed(v)
    if z.real < -1e-9 or (abs(z.real) <= 1e-9 and z.imag < 0):
        return -v
    return v


# -- automorphisms ------------------------------------------------------------


@dataclass(frozen=True)
class FieldAutomorphism:
    """Sign flips on the adjoined roots, optionally composed with the
    nontrivial base automorphism (quadratic bases only)."""

    field: ValueField
    sign_mask: int
    conjugate_base: bool

    def is_identity(self) -> bool:
        return self.sign_mask == 0 and not self.conjugate_base

    def apply(self, v: AlgValue) -> AlgValue:
        if v.field != self.field:
            raise AlgebraError("automorphism applied to a foreign value")
        return _value(self.field, _linear_image(v.nums, self._images, self.field.dim), v.den)

    @cached_property
    def _images(self) -> tuple[Sparse, ...]:
        """The image of each basis element, integral: theta^k goes to theta'^k when the
        base is conjugated, and sqrt(S) to -sqrt(S) for an odd number of
        flipped roots in S."""
        f = self.field
        powers = [_unit_vec(f.base_degree, k) for k in range(f.base_degree)]
        if self.conjugate_base:
            powers = [_conjugate_base(f, p) for p in powers]
        return tuple(
            _sparse(p if bin(mask & self.sign_mask).count("1") % 2 == 0 else [-c for c in p],
                    mask * f.base_degree)
            for mask in range(1 << f.nroots)
            for p in powers
        )

    def describe(self) -> str:
        if self.is_identity():
            return "id"
        parts = []
        if self.conjugate_base:
            parts.append("a -> a'")
        for j in range(self.field.nroots):
            if self.sign_mask & (1 << j):
                name = _root_name(self.field, j)
                parts.append(f"{name} -> -{name}")
        return ", ".join(parts)


def _conjugate_base(f: ValueField, vec: BaseVec) -> BaseVec:
    # theta' = -c1 - theta for a monic quadratic x^2 + c1 x + c0
    if f.base_degree != 2:
        raise AlgebraError(f"base conjugation needs a quadratic base, not degree {f.base_degree}")
    c1 = f.minpoly[1]
    x, y = vec
    return (x - c1 * y, -y)


@lru_cache(maxsize=None)
def automorphisms(f: ValueField) -> tuple[FieldAutomorphism, ...]:
    """All ring automorphisms of the tower visible to this representation:
    sign flips of the adjoined roots, times the base conjugation when the
    base is quadratic and fixes every adjoined element; one tuple per tower."""
    base_opts = [False]
    if f.base_degree == 2 and all(_conjugate_base(f, r) == r for r in f.adjoined):
        base_opts.append(True)
    return tuple(FieldAutomorphism(f, mask, conj)
                 for conj in base_opts for mask in range(1 << f.nroots))


# -- symbolic values ----------------------------------------------------------


def _root_name(f: ValueField, j: int) -> str:
    vec = f.adjoined[j]
    if all(c == 0 for c in vec[1:]):
        q = vec[0]
        if q == -1:
            return "i"
        if q.denominator == 1:
            return f"sqrt{q.numerator}" if q > 0 else f"sqrtm{-q.numerator}"
    return f"r{j + 1}"


def field_symbols(f: ValueField) -> dict[str, AlgValue]:
    symbols = {}
    if f.base_degree > 1:
        symbols["a"] = theta(f)
    for j in range(f.nroots):
        symbols[_root_name(f, j)] = adjoined_root(f, j)
    return symbols


_BINARY = {ast.Add: AlgValue.__add__, ast.Sub: AlgValue.__sub__,
           ast.Mult: AlgValue.__mul__, ast.Div: AlgValue.__truediv__}


def _tokenize(text: str) -> list[str]:
    """Integers, names (a letter, then letters, digits or _) and operators."""
    toks = []
    for num, name, other in re.findall(r"(\d+)|([^\W\d_]\w*)|(\S)", text):
        if other and other not in "+-*/^()":
            raise AlgebraError(f"bad character {other!r} in value expression")
        if num:
            try:
                num = str(int(num))
            except ValueError:  # past the interpreter's int-string digit limit
                raise AlgebraError(f"integer of {len(num)} digits in value expression") from None
        toks.append(num or name or other)
    return toks


def parse_value(f: ValueField, text: str) -> AlgValue:
    """Read a value of f from text such as ``2*sqrt2*i`` or ``-a^2+a+2``.

    The text is Python's expression grammar cut down to integers, the names
    of ``field_symbols(f)``, binary + - * /, unary + and -, and ^ to an
    integer literal, computed by repeated squaring. Before any power is
    computed, the syntax tree is checked so that the exponents along every
    chain of nested powers, as in ``(x^a * y)^b``, multiply to at most
    MAX_EXPONENT (an exponent 0 counting as 1): nesting would otherwise
    multiply the size of a value. Any other expression, a larger exponent
    or product of exponents, a division by zero and nesting past the
    interpreter's recursion limit (about 1,000 operators or 200
    parentheses; a rendered value has one term per basis element) raise
    AlgebraError.
    """
    text = str(text)
    source = " ".join(_tokenize(text)).replace("^", "**")
    if not source.isascii():
        # Python folds names by NFKC (a fullwidth sqrt2 reads as sqrt2), and
        # every symbol is ASCII
        raise AlgebraError(f"unknown name in value {text!r}")
    symbols = field_symbols(f)

    def value(node: ast.expr) -> AlgValue:
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return from_rational(f, node.value)
        if isinstance(node, ast.Name) and node.id in symbols:
            return symbols[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            v = value(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return _BINARY[type(node.op)](value(node.left), value(node.right))
        if _is_power(node):
            return _power(value(node.left), node.right.value)
        what = f"name {node.id!r}" if isinstance(node, ast.Name) else type(node).__name__
        raise AlgebraError(f"unsupported {what} in value {text!r}")

    def check_exponents(node: ast.AST, product: int) -> None:
        if _is_power(node):
            product *= max(node.right.value, 1)
            if product > MAX_EXPONENT:
                raise AlgebraError(f"exponent above {MAX_EXPONENT} in value {text[:80]!r}")
        for child in ast.iter_child_nodes(node):
            check_exponents(child, product)

    try:
        tree = ast.parse(source, mode="eval").body
        check_exponents(tree, 1)
        return value(tree)
    except (SyntaxError, RecursionError, ZeroDivisionError) as exc:
        raise AlgebraError(f"malformed value {text!r}: {exc}") from None


def _is_power(node: ast.AST) -> bool:
    """node is x ** n with n an integer literal."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.Constant) and type(node.right.value) is int)


def _power(v: AlgValue, n: int) -> AlgValue:
    """v^n for n >= 0, by repeated squaring."""
    if n < 2:
        return v if n else one(v.field)
    half = _power(v * v, n // 2)
    return half * v if n & 1 else half


def render_value(v: AlgValue) -> str:
    out = ""
    for c, name in zip(v.coeffs, v.field._basis_names):
        if c == 0:
            continue
        if not name:
            text = str(c)
        elif abs(c) == 1:
            text = name if c > 0 else f"-{name}"
        else:
            text = f"{c}*{name}"
        if not out:
            out = text
        else:
            out += f" - {text[1:]}" if text.startswith("-") else f" + {text}"
    return out or "0"
