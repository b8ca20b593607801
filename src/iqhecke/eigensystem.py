"""Hecke eigensystems lambda = (alpha, chi) and their structure detectors.

An eigensystem stores exact eigenvalues alpha(p) for a finite set of prime
ideals, the class-group character chi, and (for trivial chi) the involution
signs at the exact prime-power divisors of the level.  Everything downstream
of the stored primes comes out of the multiplicative relations:

    alpha(ab) = alpha(a) alpha(b)                 for coprime a, b
    alpha(p^(n+1)) = alpha(p^n) alpha(p) - N(p) chi(p) alpha(p^(n-1))

with chi(p) = 0 at primes dividing the level.  Each system memoises, per
prime p, the list alpha(p^0), alpha(p^1), ... and grows it on demand, so an
eigenvalue expansion runs the recursion once per (system, prime).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import chain, combinations_with_replacement, groupby
from math import gcd

from . import algext
from .algext import AlgValue, ValueField, lift, values_equal
from .characters import (
    RootOfUnity,
    character_group,
    character_kernel,
    check_reduced,
    eligible_selftwists,
    eval_on_class,
    order_two_characters,
)
from .classgroup import ClassGroup, IdealClass
from .quadfield import Ideal, coprime, factor_ideal, label, label_key


class EigensystemError(ValueError):
    pass


# -- roots of unity as tower values -------------------------------------------

# t = 2cos(2pi/n) for the orders n whose t is rational
_ROU_TRACE = {1: 2, 2: -2, 3: -1, 4: 0, 6: 1}


@lru_cache(maxsize=None)
def root_of_unity_value(f: ValueField, z: RootOfUnity) -> AlgValue | None:
    """zeta_n^k = ((t + sqrt(t^2 - 4))/2)^k with t = 2cos(2pi/n), the root of
    positive imaginary part; None when the tower lacks it."""
    t = _ROU_TRACE.get(z.n)
    s = None if t is None else algext.sqrt_in_tower(algext.from_rational(f, t * t - 4))
    if s is None:
        return None
    zeta = (algext.from_rational(f, t) + algext.canonical_sign(s)).scale(Fraction(1, 2))
    out = algext.one(f)
    for _ in range(z.k):
        out = out * zeta
    return out


@lru_cache(maxsize=None)
def character_field(f: ValueField, group: ClassGroup, chi: IdealClass) -> ValueField:
    """f with the values of chi: zeta_n for n the order of chi, one interned
    tower per (tower, group, character).  An unsupported order raises on
    every call, as the memo keeps no exception."""
    n = group.class_order(chi)
    if n not in _ROU_TRACE:
        raise EigensystemError(f"roots of unity of order {n} are not supported")
    return algext.with_radical(f, _ROU_TRACE[n] ** 2 - 4)


@lru_cache(maxsize=None)
def character_values(f: ValueField, group: ClassGroup, chi: IdealClass) -> dict:
    """class -> chi(class) in f, None where f lacks the value; one table per
    (tower, character), as towers are interned.  Callers must not mutate it."""
    return {x: root_of_unity_value(f, eval_on_class(group, chi, x)) for x in group.all_classes()}


@dataclass(frozen=True)
class HeckeEigensystem:
    """lambda = (alpha, chi), with memos that are not fields: among them the
    stored values lifted into each tower that twists read."""

    group: ClassGroup
    level: Ideal
    character: IdealClass
    alpha: tuple  # tuple of (Ideal, AlgValue), sorted by (norm, label)
    al_signs: tuple | None  # tuple of (Ideal, +-1) when chi is trivial, sorted as alpha
    vfield: ValueField
    selftwist_candidates: tuple[IdealClass, ...] | None = None

    @cached_property
    def _alpha(self) -> dict:
        return dict(self.alpha)

    @cached_property
    def _powers(self) -> dict:
        """prime -> [alpha(p^0), alpha(p^1), ...], grown in place by _prime_powers."""
        return {}

    @cached_property
    def _chi(self) -> dict:
        """ideal -> chi(ideal) in vfield, filled by chi_value."""
        return {}

    @cached_property
    def _classes(self) -> tuple[IdealClass, ...]:
        """The class of each stored prime, in alpha order."""
        return tuple(self.group.ideal_class(p) for p, _ in self.alpha)

    @cached_property
    def _lifted(self) -> dict:
        """tower -> the stored values lifted into it, in alpha order; filled by twist."""
        return {}

    def alpha_map(self) -> dict:
        return dict(self.alpha)

    def stored_primes(self) -> list[Ideal]:
        return [p for p, _ in self.alpha]

    def alpha_at(self, p: Ideal) -> AlgValue:
        if p not in self._alpha:
            raise EigensystemError(f"missing eigenvalue at prime {label(p)}")
        return self._alpha[p]

    def al_sign(self, q: Ideal) -> int:
        if self.al_signs is None:
            raise EigensystemError("no involution signs on a nontrivial-character system")
        for qq, s in self.al_signs:
            if qq == q:
                return s
        raise EigensystemError(f"no stored involution sign at {label(q)}")


def make_eigensystem(
    group: ClassGroup,
    level: Ideal,
    character: IdealClass,
    alpha: dict,
    al_signs: dict | None,
    vfield: ValueField,
    selftwist_candidates=None,
) -> HeckeEigensystem:
    """Normalize and validate the pieces of an eigensystem; every value of
    alpha lifts into vfield (grown by the character's values)."""
    f = _checked_field(group, character, vfield, None if al_signs is None else al_signs.items())
    lifted = {p: v if v.field is f else lift(v, f) for p, v in alpha.items()}
    al = None
    if al_signs is not None:
        al = tuple(sorted(al_signs.items(), key=lambda qs: label_key(qs[0])))
    cands = tuple(selftwist_candidates) if selftwist_candidates else None
    return HeckeEigensystem(
        group=group,
        level=level,
        character=character,
        alpha=tuple(sorted(lifted.items(), key=lambda pv: label_key(pv[0]))),
        al_signs=al,
        vfield=f,
        selftwist_candidates=cands,
    )


def _checked_field(group: ClassGroup, character: IdealClass, f: ValueField, al_signs) -> ValueField:
    """character_field(f, group, character) for a character that is a reduced
    exponent vector of group (check_reduced), with involution signs ((ideal,
    sign) pairs, or None) that are +-1 and come only with the trivial character."""
    check_reduced(group, character, error=EigensystemError)
    f = character_field(f, group, character)
    if al_signs is not None and not character.is_trivial():
        raise EigensystemError("involution signs only make sense for trivial character")
    for q, s in al_signs or ():
        if s not in (1, -1):
            raise EigensystemError(f"involution sign at {label(q)} must be +-1, got {s}")
    return f


def chi_value(F: HeckeEigensystem, p: Ideal) -> AlgValue:
    """chi(p) as a tower value, with the zero convention at ideals that meet
    the level; memoised per ideal in F._chi, so a repeat is one dict read.
    A tower without the value raises on every call, as the memo keeps no
    exception."""
    v = F._chi.get(p)
    if v is None:
        if not coprime(p, F.level):
            v = algext.zero(F.vfield)
        else:
            v = character_values(F.vfield, F.group, F.character)[F.group.ideal_class(p)]
            if v is None:
                raise EigensystemError("value field does not contain the character values")
        F._chi[p] = v
    return v


def coefficient(F: HeckeEigensystem, a: Ideal) -> AlgValue:
    """alpha(a) for any integral ideal: the stored eigenvalue at a stored
    prime, else the running product of alpha(p^e) over the prime
    factorisation of a (1 for the unit ideal).  A stored alpha(p) for e = 1
    is read directly; any other alpha(p^e) is memo[e] of F's prime-power
    list for p, which _prime_powers starts or grows only where it is short."""
    v = F._alpha.get(a)
    if v is not None:
        return v
    out = None
    for p, e in factor_ideal(a):
        v = F._alpha.get(p) if e == 1 else None
        if v is None:
            memo = F._powers.get(p)
            v = memo[e] if memo and e < len(memo) else _prime_powers(F, p, e)[e]
        out = v if out is None else out * v
    return algext.one(F.vfield) if out is None else out


def _prime_powers(F: HeckeEigensystem, p: Ideal, nmax: int) -> list[AlgValue]:
    """F's memo [alpha(p^0), alpha(p^1), ...] for p, started from the stored
    eigenvalue (alpha_at, which raises for a prime F does not store) and grown
    in place by the recursion to at least nmax + 1 terms, with N(p) chi(p)
    scaled from chi_value's memo at each growth. Callers must not mutate it."""
    out = F._powers.get(p)
    if out is None:
        out = F._powers[p] = [algext.one(F.vfield), F.alpha_at(p)]
    if len(out) <= nmax:
        nchi = chi_value(F, p).scale(p.norm)
        while len(out) <= nmax:
            out.append(out[-1] * out[1] - nchi * out[-2])
    return out


def prime_power_coefficients(F: HeckeEigensystem, p: Ideal, nmax: int) -> list[AlgValue]:
    """[alpha(p^0), ..., alpha(p^nmax)] by the recursion, memoised in F."""
    return _prime_powers(F, p, nmax)[: nmax + 1]


def euler_factor_coefficients(F: HeckeEigensystem, p: Ideal, nmax: int) -> list[AlgValue]:
    """Power-series inverse of (1 - alpha(p) x + N(p) chi(p) x^2): the same
    sequence as the recursion, computed the brute-force way as an oracle."""
    ap = F.alpha_at(p)
    chip = chi_value(F, p)
    c1 = -ap
    c2 = algext.from_rational(F.vfield, p.norm) * chip
    series = [algext.one(F.vfield)]
    for n in range(1, nmax + 1):
        val = -(c1 * series[n - 1])
        if n >= 2:
            val = val - c2 * series[n - 2]
        series.append(val)
    return series


# -- structure operations ------------------------------------------------------


def twist(F: HeckeEigensystem, psi: IdealClass) -> HeckeEigensystem:
    """F twisted by psi: eigenvalues psi(p) alpha(p) in F's prime order and
    character chi psi^2, after make_eigensystem's checks (_checked_field) and
    the same check of psi (check_reduced).  psi is read once per class, from
    its values in the twist's tower: the value is kept where psi(x) = 1,
    negated where psi(x) = -1 and multiplied by psi(x) elsewhere.  Involution
    signs survive exactly when chi psi^2 is trivial, each multiplied by
    psi(q) = +-1 from the same table.  F keeps its stored values lifted into
    each tower, for every psi that shares the tower."""
    group = F.group
    check_reduced(group, psi, error=EigensystemError)
    character = group.mul(F.character, group.power(psi, 2))
    f = character_field(F.vfield, group, psi)
    one = algext.one(f)
    minus_one = -one
    # class x -> 1 or -1 where psi(x) is +-1, else psi(x)
    action = {x: 1 if z == one else -1 if z == minus_one else z
              for x, z in character_values(f, group, psi).items()}
    al = None
    if F.al_signs is not None and character.is_trivial():
        al = tuple((q, s * action[group.ideal_class(q)]) for q, s in F.al_signs)
    # f holds chi psi^2's values, so the checked tower is f itself
    _checked_field(group, character, f, al)
    lifted = F._lifted.get(f)
    if lifted is None:
        lifted = F._lifted[f] = tuple([lift(v, f) for _, v in F.alpha])
    alpha = tuple([
        (p, v if (a := action[x]) == 1 else -v if a == -1 else v * a)
        for (p, _), v, x in zip(F.alpha, lifted, F._classes)
    ])
    return HeckeEigensystem(group, F.level, character, alpha, al, f, F.selftwist_candidates)


def systems_equal(F: HeckeEigensystem, G: HeckeEigensystem) -> bool:
    """Same level, character, and stored eigenvalues (exact comparison)."""
    return (
        F.level == G.level
        and F.character == G.character
        and F.stored_primes() == G.stored_primes()
        and all(values_equal(v, w) for (_, v), (_, w) in zip(F.alpha, G.alpha))
    )


def twist_orbit(F: HeckeEigensystem) -> list[HeckeEigensystem]:
    """The distinct twists of F by the characters of its group, chosen on
    classes: walking the characters in order, psi is kept unless psi k^-1 is
    1 on the support subgroup H (support_subgroup) for an earlier kept k.  H
    holds CL^2, so such psi k^-1 squares to 1 and the two twists have the
    same character; H holds the class of every stored prime with a nonzero
    eigenvalue, so they have the same stored eigenvalues.  As towers are
    fields, the converse holds too, and the orbit has |H| members.  Twists
    are told apart by their stored eigenvalues only, so with few stored
    primes two distinct twists may agree and the orbit comes out too small."""
    group = F.group
    H = support_subgroup(F).classes
    kept = []
    for psi in character_group(group):
        if not any(H <= character_kernel(group, group.mul(psi, group.inv(k))) for k in kept):
            kept.append(psi)
    return [twist(F, psi) for psi in kept]


@dataclass(frozen=True)
class SelfTwistReport:
    candidates: tuple[IdealClass, ...]

    @property
    def status(self) -> str:
        """The verdict: "possible" while a candidate survives, else "impossible"."""
        return "possible" if self.candidates else "impossible"


def selftwist_status(F: HeckeEigensystem, bound: int | None = None) -> SelfTwistReport:
    """Self-twist screening: never proves a self-twist, only rules one out
    or reports the surviving candidate characters, those eligible at the
    level whose kernel holds the class of every good stored prime (of norm
    <= bound) with a nonzero eigenvalue."""
    group = F.group
    survivors = (
        psi
        for psi in eligible_selftwists(group, F.level)
        if all(
            x in character_kernel(group, psi)
            for x, (p, v) in zip(F._classes, F.alpha)
            if coprime(p, F.level) and (bound is None or p.norm <= bound) and not v.is_zero()
        )
    )
    return SelfTwistReport(tuple(survivors))


def galois_conjugate_system(F: HeckeEigensystem) -> HeckeEigensystem:
    """The system at the conjugate level: alpha'(a) = alpha(a^sigma), and the
    character composed with conjugation (the inverse character on classes)."""
    group = F.group
    new_alpha = {p.conjugate(): v for p, v in F.alpha}
    al = {q.conjugate(): s for q, s in F.al_signs} if F.al_signs is not None else None
    return make_eigensystem(
        group,
        F.level.conjugate(),
        group.inv(F.character),
        new_alpha,
        al,
        vfield=F.vfield,
        selftwist_candidates=F.selftwist_candidates,
    )


def _alpha_law_pairs(F: HeckeEigensystem, taus, good: list):
    """Each (tau, psi), tau from taus, with tau(alpha(p)) = psi(p) alpha(p) at
    the good stored primes p, given as (class of p, alpha(p)) pairs."""
    group = F.group
    # every value here lies in F.vfield, where equal values are equal as data;
    # where the tower lacks psi(p), only alpha(p) = 0 is consistent
    for tau in taus:
        moved = [(cls, v, tau.apply(v)) for cls, v in good]
        for psi in character_group(group):
            values = character_values(F.vfield, group, psi)
            if all(
                v.is_zero() if (z := values[cls]) is None else tv == z * v
                for cls, v, tv in moved
            ):
                yield tau, psi


def _chi_law(F: HeckeEigensystem, tau, psi: IdealClass, classes: Iterable) -> bool:
    """tau(chi(x)) = psi^2(x) chi(x) at each class x, with psi^2(x) in the tower."""
    chi = character_values(F.vfield, F.group, F.character)
    squared = character_values(F.vfield, F.group, F.group.power(psi, 2))
    return all((z2 := squared[x]) is not None and tau.apply(chi[x]) == z2 * chi[x]
               for x in classes)


def _principal_twists(F: HeckeEigensystem, good: list) -> set:
    """T: the identity (listed first, it meets both laws with the trivial psi)
    and each other tau of some (tau, psi) of _alpha_law_pairs, at the good
    stored primes given as (class, alpha(p)) pairs, that meets _chi_law at
    every class.  tau then fixes every principal generator chi(x) alpha(b),
    as x^2 [b] = 1, so by Artin's theorem k_f <= F.vfield.dim // |T|."""
    identity, *others = algext.automorphisms(F.vfield)
    return {identity} | {tau for tau, psi in _alpha_law_pairs(F, others, good)
                         if _chi_law(F, tau, psi, F.group.all_classes())}


def inner_twist_pairs(F: HeckeEigensystem) -> list:
    """All (tau, psi) with tau(alpha(p)) = psi(p) alpha(p) on stored primes.

    The compatibility tau(chi(p)) = psi(p)^2 chi(p) is checked for every
    detected pair and a violation is a hard failure.
    """
    good = [(x, v) for x, (p, v) in zip(F._classes, F.alpha) if coprime(p, F.level)]
    pairs = list(_alpha_law_pairs(F, algext.automorphisms(F.vfield), good))
    for tau, psi in pairs:
        if not _chi_law(F, tau, psi, [cls for cls, _ in good]):
            raise EigensystemError("inner-twist pair fails the character compatibility law")
    return pairs


def has_quadratic_inner_twist(F: HeckeEigensystem) -> bool:
    """A nontrivial inner twist by a quadratic character (the joined-orbit
    signature in the tables)."""
    return any(
        psi in order_two_characters(F.group) and not tau.is_identity()
        for tau, psi in inner_twist_pairs(F)
    )


def base_change_candidate(F: HeckeEigensystem) -> bool:
    if F.level != F.level.conjugate():
        raise EigensystemError(
            "base-change screening needs a conjugation-stable level"
        )
    amap = F._alpha
    return all(v == amap[q] for p, v in F.alpha if (q := p.conjugate()) in amap)


@dataclass(frozen=True)
class SupportSubgroup:
    classes: frozenset
    index: int


def support_subgroup(F: HeckeEigensystem) -> SupportSubgroup:
    """The subgroup H of CL generated by CL^2 and the classes of the stored
    primes with a nonzero eigenvalue, with its index.  The characters trivial
    on H are those of order <= 2 (the identity included) whose kernel holds
    those classes, so by duality H is the intersection of their kernels and
    [CL : H] is their number."""
    group = F.group
    support = {x for x, (_, v) in zip(F._classes, F.alpha) if not v.is_zero()}
    kernels = [k for chi in (group.identity(), *order_two_characters(group))
               if support <= (k := character_kernel(group, chi))]
    return SupportSubgroup(frozenset.intersection(*kernels), len(kernels))


# -- Hecke field reporting ----------------------------------------------------


def _span_dimension(values: Iterable[AlgValue], f: ValueField, bound: int | None = None) -> int:
    """Q-dimension of the subfield of f generated by the given tower values.

    values may be any iterable. It is read only until the algebra generated
    so far reaches bound, an upper bound on the answer that the caller knows
    (f.dim when none is given), so the values not yet read cannot change it.
    """
    bound = bound or f.dim
    rows: list[tuple[int, list[int]]] = []  # (pivot, echelon row)

    def reduce_row(v: AlgValue) -> bool:
        # v's numerators are v times a positive constant: the rank is the same
        vec = list(v.nums)
        for piv, row in rows:
            if vec[piv]:
                a, b = row[piv], vec[piv]
                vec = [a * x - b * y for x, y in zip(vec, row)]
        piv = next((i for i, c in enumerate(vec) if c), None)
        if piv is not None:
            g = gcd(*vec)
            rows.append((piv, [x // g for x in vec]))
        return piv is not None

    basis = [algext.one(f)]
    reduce_row(basis[0])
    values = iter(values)
    while len(basis) < bound and (v := next(values, None)) is not None:
        g = lift(v, f)
        if not reduce_row(g):
            continue
        # the span S of basis is the algebra of the earlier generators, so
        # S + gS + g^2 S + ... is the algebra with g: close it under g alone
        todo = basis[1:] + [g]
        basis.append(g)
        while todo and len(basis) < bound:
            prod = g * todo.pop()
            if reduce_row(prod):
                basis.append(prod)
                todo.append(prod)
    return len(basis)


@dataclass(frozen=True)
class HeckeFieldReport:
    principal_degree: int
    full_degree: int

    @property
    def ratio(self) -> int:
        """[full Hecke field : principal subfield], a whole number."""
        return self.full_degree // self.principal_degree


def hecke_field_report(F: HeckeEigensystem) -> HeckeFieldReport:
    """Degrees of the full Hecke field and of its principal subfield.

    The principal subfield is generated by eigenvalues of operators in the
    trivial class-group component: values chi(x) alpha(b) where b runs over
    products of at most three stored primes (with squares allowed) whose
    class lies in CL^2, and x^2 [b] = 1. Both sets of generators are read
    lazily by _span_dimension, each walk in one pass. The principal walk
    reads the single primes, then the products of two and three, and stops at
    f.dim // |T| for the inner-twist automorphisms T (_principal_twists),
    computed before it. The full walk stops once its span fills the value
    field f; a product b past a stop is never formed.
    """
    group = F.group
    f = F.vfield
    chi = character_values(f, group, F.character)
    # each class c of CL^2 -> chi(x) for the first class x with x^2 c = 1
    aux_values: dict[IdealClass, AlgValue | None] = {}
    for x in group.all_classes():
        aux_values.setdefault(group.inv(group.power(x, 2)), chi[x])
    good = [p for p, _ in F.alpha if coprime(p, F.level)]
    classes = [group.ideal_class(p) for p in good]

    def principal_gens():
        for size in (1, 2, 3):
            for combo in combinations_with_replacement(range(len(good)), size):
                cls = reduce(group.mul, map(classes.__getitem__, combo))
                val = aux_values.get(cls)  # None off CL^2, or where f lacks chi(x)
                if val is None:
                    continue
                for i, run in groupby(combo):  # combo is sorted
                    e = len(list(run))
                    val = val * _prime_powers(F, good[i], e)[e]
                yield val

    twists = _principal_twists(F, [(x, F._alpha[p]) for x, p in zip(classes, good)])
    k_f = _span_dimension(principal_gens(), f, f.dim // len(twists))
    full_gens = chain((v for _, v in F.alpha), (chi_value(F, p) for p in good))
    k_F = _span_dimension(full_gens, f)
    if k_F % k_f:
        raise EigensystemError("full Hecke field degree not a multiple of the principal degree")
    return HeckeFieldReport(principal_degree=k_f, full_degree=k_F)
