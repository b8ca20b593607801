"""The ideal class group of an imaginary quadratic field.

The group is realized concretely through reduced positive definite binary
quadratic forms of the field discriminant.  Composition of classes is done by
converting forms to ideals, multiplying ideals exactly, and reducing the
resulting form; with the unique-HNF ideal layer already in place this avoids
a separate implementation of Gauss composition.

Structure and coordinates come from cyclic orbits of forms, [f, f^2, ...,
identity], each composed once by brute force, which is fine for the class
numbers this library targets (h up to a few hundred).  Generators are chosen
greedily by orbit length, and the exponent table of the subgroup they span
grows with each pick until it maps every form to its exponent vector
(discrete logs).  After that, every class query works on exponent vectors
alone; the set of classes, CL^2 and CL[2] are computed once, at
construction, where the 2-rank is checked against genus theory, and the
class of an ideal once, on its first query.  A character is the class with
the same exponent vector.

The class map ``ideal_class`` and the group law (``mul``, ``inv`` and
``power``) are ``lru_cache``d methods: each computes its class once per
group and operands, and ``compute_class_group`` builds one group per field,
which the memo keys keep alive.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import product
from math import gcd, lcm, prod
from typing import NamedTuple

from .quadfield import Ideal, QuadField, factor_int, ideal_mul, no_sequence


class ClassGroupError(ValueError):
    pass


@no_sequence
class BQForm(NamedTuple):
    a: int
    b: int
    c: int


def reduce_form(a: int, b: int, c: int) -> BQForm:
    """Standard reduction of a positive definite form."""
    while True:
        if a > c:
            a, b, c = c, -b, a
            continue
        if abs(b) > a:
            r = b % (2 * a)
            if r > a:
                r -= 2 * a
            c = c + (r * r - b * b) // (4 * a)
            b = r
            continue
        if (abs(b) == a or a == c) and b < 0:
            b = -b
            continue
        return BQForm(a, b, c)


def reduced_forms(disc: int) -> list[BQForm]:
    """All reduced forms of the given negative fundamental discriminant."""
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ClassGroupError(f"{disc} is not a negative discriminant")
    out = []
    a = 1
    while 3 * a * a <= -disc:
        for b in range(-a + 1, a + 1):
            if (b - disc) % 2:
                continue
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            # reduction fixes exactly the reduced forms
            if (f := BQForm(a, b, c)) == reduce_form(a, b, c):
                out.append(f)
        a += 1
    return sorted(out, key=lambda f: (f.a, f.b, f.c))


def form_of_ideal(i: Ideal) -> BQForm:
    """The reduced form of the norm form N(a*x + (b + c*omega)*y) / N(I)."""
    f = i.field
    t, n = f.trace_omega, f.norm_omega
    a, b, c = i.a, i.b, i.c
    A = a // c
    B = 2 * (b // c) + t
    C = (b * b + b * c * t + c * c * n) // (a * c)
    return reduce_form(A, B, C)


def ideal_of_form(field: QuadField, f: BQForm) -> Ideal:
    t = field.trace_omega
    b0 = (f.b - t) // 2
    return Ideal(field, f.a, b0 % f.a, 1)


@no_sequence
class IdealClass(NamedTuple):
    """Exponent vector with respect to the pinned generators of CL, also
    read as a character (see ``characters``); a record (``no_sequence``) that
    compares and hashes by ``exps``."""

    exps: tuple[int, ...]

    def is_trivial(self) -> bool:
        return not any(self.exps)


_new_class = partial(tuple.__new__, IdealClass)  # (exps,) -> IdealClass, one C call


class ClassGroup:
    """Immutable class-group context for one field.

    Attributes:
        field: the underlying QuadField.
        h: class number.
        forms: all reduced forms of the discriminant.
        elementary_divisors: (d1, ..., dk) with d1 | d2 | ... | dk.
        generators: reduced forms generating the cyclic factors, aligned with
            the elementary divisors.
        r2: the 2-rank, checked against genus theory at construction.
    """

    def __init__(self, field: QuadField):
        self.field = field
        self.forms = reduced_forms(field.disc)
        self.h = len(self.forms)
        self._identity = reduce_form(*_principal_form(field))
        cycles = {f: self._cycle(f) for f in self.forms}
        self.elementary_divisors, self.generators, self._coords = self._structure(cycles)
        if prod(self.elementary_divisors) != self.h or self._coords.keys() != set(self.forms):
            raise ClassGroupError("generators do not give one exponent vector per form")
        classes = self.all_classes()
        self._classes = frozenset(classes)
        self._squares = frozenset(self.power(x, 2) for x in classes)
        self._two_torsion = tuple(x for x in classes if self.power(x, 2).is_trivial())
        # genus theory: CL/CL^2 and CL[2] have order 2^r2, and r2 + 1 primes
        # divide the discriminant
        genus_order = self.h // len(self._squares)
        self.r2 = genus_order.bit_length() - 1
        if 1 << self.r2 != genus_order or len(self._two_torsion) != genus_order:
            raise ClassGroupError("genus group is not elementary abelian of the right size")
        n_disc_primes = len(factor_int(-field.disc))
        if self.r2 != n_disc_primes - 1:
            raise ClassGroupError(
                f"2-rank {self.r2} disagrees with genus theory ({n_disc_primes} primes divide the discriminant)"
            )

    def __reduce__(self):  # a copied or unpickled group is the memoised one
        return compute_class_group, (self.field,)

    # -- construction ------------------------------------------------------

    def _compose(self, f: BQForm, g: BQForm) -> BQForm:
        i = ideal_of_form(self.field, f)
        j = ideal_of_form(self.field, g)
        return form_of_ideal(ideal_mul(i, j))

    def _cycle(self, f: BQForm) -> list[BQForm]:
        """The cyclic orbit [f, f^2, ..., identity]; its length is the order of f."""
        out = [f]
        while out[-1] != self._identity:
            out.append(self._compose(out[-1], f))
        return out

    def _coordinates(self, table, cycle: list[BQForm]) -> dict[BQForm, tuple[int, ...]]:
        """The exponent table of a subgroup H extended by a generator g that
        meets H trivially and has the orbit cycle: f * g^e gets v + (e,) for
        each f -> v in table, so exponent index 0 varies fastest."""
        new = {f: v + (0,) for f, v in table.items()}
        for e, p in enumerate(cycle[:-1], 1):
            for f, v in table.items():
                new[p if f == self._identity else self._compose(f, p)] = v + (e,)
        return new

    def _structure(self, cycles: dict[BQForm, list[BQForm]]):
        """Elementary divisors, generators and the form -> exponent table.

        Greedy decomposition: repeatedly pick an element of maximal order
        whose cyclic orbit meets the subgroup generated so far trivially, and
        extend that subgroup's table by it.  For disc -68 the generator is
        pinned to the class of the norm-3 prime <3, 1+omega>, so that
        published eigensystem tables line up.
        """
        pinned = None
        if self.field.disc == -68:
            pinned = form_of_ideal(Ideal(self.field, 3, 1, 1))
            if len(cycles[pinned]) != 4:
                raise ClassGroupError("the pinned generator of disc -68 does not have order 4")
        candidates = sorted(
            (f for f in self.forms if f != self._identity),
            key=lambda f: (-len(cycles[f]), f != pinned, f.a, f.b),
        )
        gens: list[BQForm] = []
        table = {self._identity: ()}
        while len(table) < self.h:
            best = next((f for f in candidates if not table.keys() & cycles[f][:-1]), None)
            if best is None:
                raise ClassGroupError("could not decompose class group")
            gens.append(best)
            table = self._coordinates(table, cycles[best])
        # Order the factors so divisors ascend (d1 | d2 | ... for the groups
        # at hand, where distinct factor orders only occur pairwise coprime
        # or equal; check divisibility to be safe).
        order = sorted(
            range(len(gens)), key=lambda i: (len(cycles[gens[i]]), gens[i].a, gens[i].b, gens[i].c)
        )
        divisors = tuple(len(cycles[gens[i]]) for i in order)
        for i in range(len(divisors) - 1):
            if divisors[i + 1] % divisors[i]:
                raise ClassGroupError(f"divisors not nested: {list(divisors)}")
        coords = {f: tuple(v[i] for i in order) for f, v in table.items()}
        return divisors, tuple(gens[i] for i in order), coords

    # -- queries -----------------------------------------------------------

    def identity(self) -> IdealClass:
        return IdealClass(tuple(0 for _ in self.elementary_divisors))

    @lru_cache(maxsize=None)
    def ideal_class(self, i: Ideal) -> IdealClass:
        """The class of i, reduced once per ideal and then read from the memo."""
        return _new_class((self._coords[form_of_ideal(i)],))

    # the law of Z/d1 x ... x Z/dk on exponent vectors, memoised per group and operands

    @lru_cache(maxsize=None)
    def mul(self, x: IdealClass, y: IdealClass) -> IdealClass:
        exps = tuple((a + b) % d for a, b, d in zip(x.exps, y.exps, self.elementary_divisors))
        return _new_class((exps,))

    @lru_cache(maxsize=None)
    def inv(self, x: IdealClass) -> IdealClass:
        exps = tuple((-a) % d for a, d in zip(x.exps, self.elementary_divisors))
        return _new_class((exps,))

    @lru_cache(maxsize=None)
    def power(self, x: IdealClass, e: int) -> IdealClass:
        exps = tuple((a * e) % d for a, d in zip(x.exps, self.elementary_divisors))
        return _new_class((exps,))

    def all_classes(self) -> list[IdealClass]:
        """Every class once, in lexicographic exponent order."""
        return [_new_class((e,)) for e in product(*map(range, self.elementary_divisors))]

    def __contains__(self, x: IdealClass) -> bool:
        """Whether x is a class of this group: a reduced exponent vector."""
        return x in self._classes

    def class_order(self, x: IdealClass) -> int:
        return lcm(*(d // gcd(e, d) for e, d in zip(x.exps, self.elementary_divisors)))

    def genus(self, x: IdealClass) -> tuple[int, ...]:
        """The coset of CL^2 holding x: its exponent parities on the even
        cyclic factors (odd factors lie wholly inside CL^2)."""
        return tuple(e % 2 for e, d in zip(x.exps, self.elementary_divisors) if d % 2 == 0)

    def squares(self) -> frozenset[IdealClass]:
        """CL^2, computed once at construction."""
        return self._squares

    def two_torsion(self) -> tuple[IdealClass, ...]:
        """CL[2] in all_classes order, the identity first; computed once."""
        return self._two_torsion


def _principal_form(field: QuadField) -> tuple[int, int, int]:
    d = field.disc
    if d % 4 == 0:
        return (1, 0, -d // 4)
    return (1, 1, (1 - d) // 4)


@lru_cache(maxsize=None)
def compute_class_group(field: QuadField) -> ClassGroup:
    """The class group of field, built once per field (fields compare by value)."""
    return ClassGroup(field)
