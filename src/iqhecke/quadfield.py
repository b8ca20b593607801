"""Exact arithmetic for imaginary quadratic fields K = Q(sqrt(-d)).

Elements of O_K are integer coordinate pairs (x, y) meaning x + y*omega on the
integral basis [1, omega], where omega = sqrt(-d) when -d = 2, 3 (mod 4) and
omega = (1 + sqrt(-d))/2 when -d = 1 (mod 4), so that O_K = Z[omega].
Integral ideals are stored in a unique Hermite normal form [a, b + c*omega]
with c | a, c | b and 0 <= b < a; equality of ideals is therefore equality of
the (a, b, c) triples.  Everything is exact integer arithmetic.

Ideal arithmetic rests on two primitives, HNF multiplication (`ideal_mul`)
and trial division of integers (`factor_int`).  An ideal in HNF is its
content (c) times the primitive ideal [a/c, b/c + omega], so `factor_ideal`
reads the exponents off the triple without dividing, in one pass over the
primes of a/c and of c.  The same pass checks them without multiplying back:
distinct primes are comaximal, so if the norms of the pp^e multiply to N(n)
and each pp^e contains n, their product is n.  Containment J <= I is one
integer test on the two triples (`Ideal.contains_ideal`): I holds J's Z-basis
a and b + c*omega.  `divisors` keeps the ideals of each norm k | N(n) that
contain n, read from the label enumeration `ideals_of_norm`, so it is in
label order without a product.  Exact quotients come from
n * conj(m) = (N m) * (n / m); `sigma0_quotient` counts the divisors of n / m
from the exponents of n and m without forming it.  Coprimality never forms
I + J: I and J are coprime iff gcd(N I, N J) = 1 or no prime factor of J,
read from the factorisation memo, contains I.

An ideal is a record (``no_sequence``) of its field, its triple and its norm
a*c, so one triple over two fields gives two keys.

Memos, each keyed by a field or by ideals, so they grow with the primes and
levels a caller visits and never with eigenvalue data: `factor_rational_prime`
(field, p), `factor_ideal` (n), `ideal_pow` (ideal, e),
`exact_prime_power_divisors` (n), `ideals_of_norm` (field, N), `label_key`
(ideal), `primes_of_norm_up_to` (field, bound) and `Ideal.conjugate` (ideal).
Callers share each memo's answer, a tuple for a sequence.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import NamedTuple


class QuadFieldError(ValueError):
    pass


def factor_int(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization of a positive integer."""
    if n < 1:
        raise QuadFieldError(f"can only factor a positive integer, got {n}")
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    f = 5
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e:
            out.append((f, e))
        f += 2
    if n > 1:
        out.append((n, 1))
    return out


def is_rational_prime(p: int) -> bool:
    return p > 1 and factor_int(p) == [(p, 1)]


def no_sequence(cls):
    """Make a ``NamedTuple`` class a record that is a tuple underneath but no
    sequence: ``len``, iteration, indexing, ``in``, ``+``, repetition
    (``n * x``, ``x * n``) and order raise TypeError, unless the class
    defines the operator itself.  Construction, equality, hashing and the
    fields that pickle and copy read stay tuple's, in C, and every record is
    true.  Records of two such classes with equal contents are equal, so no
    dict should mix them."""

    def refuse(self, *args):
        raise TypeError(f"a {cls.__name__} is not a sequence")

    def unsupported(self, other):
        return NotImplemented

    for name in ("__len__", "__iter__", "__getitem__", "__contains__"):
        setattr(cls, name, refuse)
    for name in ("__add__", "__radd__", "__mul__", "__rmul__",
                 "__lt__", "__le__", "__gt__", "__ge__"):
        if name not in vars(cls):
            setattr(cls, name, unsupported)
    if "_fields" in vars(cls):  # NamedTuple's own iterates; a subclass (Ideal) sets its own
        cls.__getnewargs__ = lambda self: tuple.__getitem__(self, slice(None))
    cls.__bool__ = lambda self: True
    return cls


@no_sequence
class QuadField(NamedTuple):
    """The field Q(sqrt(-d)) together with its ring of integers Z[omega],
    a record (``no_sequence``) that compares and hashes by value."""

    d: int
    disc: int
    half: bool  # omega = (1 + sqrt(-d))/2 rather than sqrt(-d)

    @property
    def trace_omega(self) -> int:
        # omega satisfies x^2 - t x + n = 0
        return 1 if self.half else 0

    @property
    def norm_omega(self) -> int:
        return (1 + self.d) // 4 if self.half else self.d

    def __repr__(self):
        return f"QuadField(-{self.d})"


def make_field(d: int) -> QuadField:
    """Build Q(sqrt(-d)) for squarefree d >= 1."""
    if not isinstance(d, int) or d < 1:
        raise QuadFieldError(f"d must be a positive integer, got {d!r}")
    if any(e > 1 for _, e in factor_int(d)):
        raise QuadFieldError(f"d must be squarefree, got {d}")
    if (-d) % 4 == 1:
        return QuadField(d=d, disc=-d, half=True)
    return QuadField(d=d, disc=-4 * d, half=False)


def _same_field(u, v) -> None:
    """Raise unless two ideals lie in the same field."""
    if u.field is not v.field and u.field != v.field:
        raise QuadFieldError(f"operands over different fields {u.field} and {v.field}")


# a NamedTuple may not define __new__, so Ideal's checked one is in a subclass
class _IdealFields(NamedTuple):
    field: QuadField
    a: int
    b: int
    c: int
    norm: int


@no_sequence
class Ideal(_IdealFields):
    """Integral ideal [a, b + c*omega] in HNF: c | a, c | b, 0 <= b < a, a*c | N(b + c*omega),
    stored with its norm a*c."""

    __slots__ = ()

    def __new__(cls, field: QuadField, a: int, b: int, c: int):
        if a <= 0 or c <= 0 or not 0 <= b < a:
            raise QuadFieldError(f"bad HNF triple ({a}, {b}, {c})")
        t, n = field.trace_omega, field.norm_omega
        if a % c or b % c or (b * b + t * b * c + n * c * c) % (a * c):
            raise QuadFieldError(f"HNF triple ({a}, {b}, {c}) not omega-closed")
        return tuple.__new__(cls, (field, a, b, c, a * c))

    def __getnewargs__(self):  # so that unpickling and copying check the triple again
        return self.field, self.a, self.b, self.c

    def is_unit(self) -> bool:
        return self.a == 1 and self.c == 1

    def contains_ideal(self, other: "Ideal") -> bool:
        """Whether other <= self: self contains other's Z-basis a and b + c*omega,
        where x + y*omega lies in self iff c | y and a | x - (y/c)*b."""
        a, c = self.a, self.c
        return other.a % a == 0 and other.c % c == 0 and (other.b - other.c // c * self.b) % a == 0

    @lru_cache(maxsize=None)
    def conjugate(self) -> "Ideal":
        """The conjugate ideal, memoised per ideal."""
        t = self.field.trace_omega
        return Ideal(self.field, self.a, (-self.b - self.c * t) % self.a, self.c)

    def __repr__(self):
        return f"Ideal[{self.a}, {self.b}+{self.c}w]"


def _hnf_from_rows(field: QuadField, rows: list[tuple[int, int]]) -> Ideal:
    """HNF of the Z-module spanned by rows (x, y) meaning x + y*omega."""
    rows = [r for r in rows if r != (0, 0)]
    if not rows:
        raise QuadFieldError("zero module")
    # Reduce to a single vector (b0, c) with c = gcd of y-parts.
    b0, c = 0, 0
    for x, y in rows:
        if y == 0:
            continue
        if c == 0:
            b0, c = x, y
            continue
        # Combine (b0, c) and (x, y) to reach gcd in the y-coordinate.
        g, u, v = _xgcd(c, y)
        b0, c = u * b0 + v * x, g
    xs = []
    for x, y in rows:
        if c:
            x -= (y // c) * b0  # y is a multiple of c once c = gcd
        xs.append(x)
    a = 0
    for x in xs:
        a = gcd(a, abs(x))
    if a == 0 or c == 0:
        raise QuadFieldError("module does not have full rank")
    c = abs(c)
    return Ideal(field, a, b0 % a, c)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _xgcd(b, a % b)
    return (g, y, x - (a // b) * y)


def _times(t: int, n: int, x1: int, y1: int, x2: int, y2: int) -> tuple[int, int]:
    """(x1 + y1*omega)(x2 + y2*omega), where omega^2 = t*omega - n."""
    return (x1 * x2 - n * y1 * y2, x1 * y2 + x2 * y1 + t * y1 * y2)


def ideal_from_gens(field: QuadField, gens: list[tuple[int, int]]) -> Ideal:
    """Smallest O_K-ideal containing the elements x + y*omega."""
    t, n = field.trace_omega, field.norm_omega
    rows = []
    for x, y in gens:
        rows.append((x, y))
        rows.append(_times(t, n, x, y, 0, 1))  # times omega
    return _hnf_from_rows(field, rows)


def unit_ideal(field: QuadField) -> Ideal:
    return Ideal(field, 1, 0, 1)


def principal_ideal(field: QuadField, x: int, y: int) -> Ideal:
    return ideal_from_gens(field, [(x, y)])


def ideal_mul(i: Ideal, j: Ideal) -> Ideal:
    _same_field(i, j)
    f = i.field
    t, n = f.trace_omega, f.norm_omega
    g1 = [(i.a, 0), (i.b, i.c)]
    g2 = [(j.a, 0), (j.b, j.c)]
    # the products of Z-bases of I and J already span IJ over Z
    out = _hnf_from_rows(f, [_times(t, n, x1, y1, x2, y2) for x1, y1 in g1 for x2, y2 in g2])
    if out.norm != i.norm * j.norm:
        raise QuadFieldError(f"product of {i} and {j} has norm {out.norm}")
    return out


def ideal_add(i: Ideal, j: Ideal) -> Ideal:
    """The sum I + J, i.e. the gcd of the two ideals."""
    _same_field(i, j)
    return _hnf_from_rows(i.field, [(i.a, 0), (i.b, i.c), (j.a, 0), (j.b, j.c)])


def coprime(i: Ideal, j: Ideal) -> bool:
    """Whether I + J = O_K: no prime factor of J contains I.  J's factorisation
    is memoised, so callers pass the side that repeats (a level, a conductor)
    second."""
    if i.field is not j.field:
        _same_field(i, j)
    if gcd(i.norm, j.norm) == 1:
        return True
    for pp, _ in factor_ideal(j):
        # pp contains i only if N(pp) divides N(i): the norm test skips most HNF tests
        if i.norm % pp.norm == 0 and pp.contains_ideal(i):
            return False
    return True


@lru_cache(maxsize=None)
def ideal_pow(i: Ideal, e: int) -> Ideal:
    """i^e, memoised per (ideal, exponent)."""
    if e < 0:
        raise QuadFieldError(f"negative exponent {e} for an integral ideal")
    if e == 0:
        return unit_ideal(i.field)
    # square-and-multiply seeded with the first factor, so no product has a unit operand
    out = None
    while True:
        if e & 1:
            out = i if out is None else ideal_mul(out, i)
        e >>= 1
        if not e:
            return out
        i = ideal_mul(i, i)


@no_sequence
class SplittingRecord(NamedTuple):
    kind: str  # "split" | "inert" | "ramified"
    primes: tuple[Ideal, ...]


@lru_cache(maxsize=None)
def factor_rational_prime(field: QuadField, p: int) -> SplittingRecord:
    """Split/inert/ramified behaviour of a rational prime, with prime ideals in HNF.

    Roots of x^2 + t*x + n mod p are found by exhaustive search, which is fine
    at the scale this library targets (p up to about 10^6).
    """
    if not is_rational_prime(p):
        raise QuadFieldError(f"{p} is not prime")
    t, n = field.trace_omega, field.norm_omega
    roots = [b for b in range(p) if (b * b + t * b + n) % p == 0]
    if not roots:
        return SplittingRecord("inert", (Ideal(field, p, 0, p),))
    if len(roots) == 1:
        return SplittingRecord("ramified", (Ideal(field, p, roots[0], 1),))
    primes = tuple(Ideal(field, p, b, 1) for b in sorted(roots))
    return SplittingRecord("split", primes)


def primes_above(field: QuadField, p: int) -> tuple[Ideal, ...]:
    return factor_rational_prime(field, p).primes


def is_prime_ideal(i: Ideal) -> bool:
    return factor_ideal(i) == ((i, 1),)


@lru_cache(maxsize=None)
def factor_ideal(n: Ideal) -> tuple[tuple[Ideal, int], ...]:
    """Factor a nonzero integral ideal into prime ideals with exponents.

    n = (c) * [a/c, b/c + omega]: the content c contributes v_p(c) to each
    prime above a split or inert p and 2*v_p(c) to the prime above a
    ramified p.  The primitive part is divisible by no rational integer, so
    above each p it lies in the one prime [p, r + omega] with b/c = r (mod p)
    and carries all of v_p(a/c).  One pass over the primes of a/c and c, in
    order, reads each pp^e and checks it: the pp are distinct, each pp^e
    contains n, and their norms multiply to N(n).  Factorisations are
    memoised as tuples.
    """
    field, c = n.field, n.c
    r = n.b // c
    primes = factor_int(n.a // c)  # (p, v_p(a/c))
    content = dict(factor_int(c)) if c > 1 else {}
    if content:  # with the content primes that a/c lacks, at v_p(a/c) = 0
        primes = sorted((dict.fromkeys(content, 0) | dict(primes)).items())
    out = {}
    norm, contained = 1, True
    for p, e_primitive in primes:
        e_content = content.get(p, 0)
        if e_content and factor_rational_prime(field, p).kind == "ramified":
            e_content *= 2
        for pp in primes_above(field, p):
            e = e_content + e_primitive if pp.c == 1 and (r - pp.b) % p == 0 else e_content
            if e:
                contained = contained and pp not in out and (
                    pp if e == 1 else ideal_pow(pp, e)).contains_ideal(n)
                out[pp] = e
                norm *= pp.norm**e
    if norm != n.norm or not contained:
        raise QuadFieldError(f"prime factors {out} of {n} do not recombine to it")
    return tuple(out.items())


def divisors(n: Ideal) -> list[Ideal]:
    """The divisors of n in label order: the ideals of each norm k | N(n) that contain n."""
    norms = [k for k in range(1, n.norm + 1) if n.norm % k == 0]
    return [d for k in norms for d in ideals_of_norm(n.field, k) if d.contains_ideal(n)]


def is_exact_divisor(q: Ideal, n: Ideal) -> bool:
    """Whether q || n, i.e. q and n/q are coprime: q takes each prime power of n whole."""
    return set(factor_ideal(q)) <= set(factor_ideal(n))


@lru_cache(maxsize=None)
def exact_prime_power_divisors(n: Ideal) -> tuple[Ideal, ...]:
    """The prime powers pp^e exactly dividing n, in factorisation order; one
    memoised tuple, shared by every caller."""
    return tuple(ideal_pow(p, e) for p, e in factor_ideal(n))


def sigma0(n: Ideal) -> int:
    out = 1
    for _, e in factor_ideal(n):
        out *= e + 1
    return out


def sigma0_quotient(n: Ideal, m: Ideal) -> int:
    """sigma0(n / m) for m | n, the product of e_n(pp) - e_m(pp) + 1 over the
    primes of n, read from both factorisations without forming n / m."""
    if not m.contains_ideal(n):
        raise QuadFieldError(f"{m} does not divide {n}")
    in_m = dict(factor_ideal(m))
    out = 1
    for pp, e in factor_ideal(n):
        out *= e - in_m.get(pp, 0) + 1
    return out


def ideal_div_exact(n: Ideal, m: Ideal) -> Ideal:
    """Exact quotient n / m for m | n, from n * conj(m) = (N m) * (n / m)."""
    if not m.contains_ideal(n):
        raise QuadFieldError(f"{m} does not divide {n}")
    q, k = ideal_mul(n, m.conjugate()), m.norm
    return Ideal(n.field, q.a // k, q.b // k, q.c // k)


# ---------------------------------------------------------------------------
# Labels.  The order on the ideals of a given norm is a fixed rule per
# discriminant.  By default it is lexicographic on the HNF triple (a, c, b).
# The discriminants in FACTOR_LABEL_DISCS use the factor order instead: ideals
# of norm N by descending exponent vectors with respect to the prime ideals
# above the rational primes dividing N (primes above p taken in increasing-b
# order).  For disc -68 that rule reproduces every label used in the
# published tables for Q(sqrt(-17)).  A bundle's `label_ordering` field is
# validated against this rule and never changes it.
# ---------------------------------------------------------------------------

FACTOR_LABEL_DISCS = frozenset({-68})


def _factor_sort_key(i: Ideal):
    fac = {p: e for p, e in factor_ideal(i)}
    key = []
    for p, _ in factor_int(i.norm):
        for pp in primes_above(i.field, p):
            key.append(-fac.get(pp, 0))
    return tuple(key)


@lru_cache(maxsize=None)
def ideals_of_norm(field: QuadField, norm: int) -> tuple[Ideal, ...]:
    """All integral ideals of the given norm, in label order."""
    t, n = field.trace_omega, field.norm_omega
    out = []
    c = 1
    while c * c <= norm:
        if norm % (c * c) == 0:
            a = norm // c
            for b in range(0, a, c):
                if (b * b + b * c * t + c * c * n) % (a * c) == 0:
                    out.append(Ideal(field, a, b, c))
        c += 1
    # an ideal is determined by its factor key, so neither order has ties
    if field.disc in FACTOR_LABEL_DISCS:
        return tuple(sorted(out, key=_factor_sort_key))
    return tuple(sorted(out, key=lambda i: (i.a, i.c, i.b)))


@lru_cache(maxsize=None)
def label_key(i: Ideal) -> tuple[int, int]:
    """(N, k) for the ideal labelled N.k; sorting by it is label order."""
    return i.norm, ideals_of_norm(i.field, i.norm).index(i) + 1


def label(i: Ideal) -> str:
    return "%d.%d" % label_key(i)


def ideal_from_label(field: QuadField, lab: str) -> Ideal:
    """The ideal a label names, spelled as ``label`` writes it: no sign,
    space, leading zero, underscore or non-ASCII digit, so that one ideal has
    one spelling."""
    try:
        norm_s, idx_s = lab.split(".")
        norm, idx = int(norm_s), int(idx_s)
    except (AttributeError, ValueError):
        norm = idx = None
    if norm is None or lab != f"{norm}.{idx}":
        raise QuadFieldError(f"bad ideal label {lab!r}")
    ordered = ideals_of_norm(field, norm)
    if not 1 <= idx <= len(ordered):
        raise QuadFieldError(f"no ideal with label {lab!r}")
    return ordered[idx - 1]


@lru_cache(maxsize=None)
def primes_of_norm_up_to(field: QuadField, bound: int) -> tuple[Ideal, ...]:
    """Prime ideals of norm <= bound, sorted by (norm, label index); memoised
    as a tuple."""
    out = [
        pp
        for p in range(2, bound + 1)
        if is_rational_prime(p)
        for pp in primes_above(field, p)
        if pp.norm <= bound
    ]
    return tuple(sorted(out, key=label_key))
