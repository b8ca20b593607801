"""Recovering a full Hecke eigensystem from principal-operator eigenvalues.

The input is an oracle answering eigenvalue queries for principal operators
T_{a,a} T_b W_q (class of a^2 b q trivial, a and b coprime to the level,
q an exact divisor of the level).  The output is one eigensystem in the
twist orbit that the oracle determines: the character restricted to the
two-torsion classes pins the character up to squares, eigenvalues at good
primes are recovered class by class, and sign choices at primes in
nontrivial genus classes are kept consistent through a doubling table of
reference pairs (a, alpha(a)^-1), one per genus.

Every auxiliary ideal a is the first (label order, coprime to the level) that
fits, read from one class table per level: the step-1 probe of a two-torsion
class c is T_{a,a} with a in c, and the eigenvalue of T_t W_w is that of
T_{a,a} T_t W_w with [a]^2 [t w] trivial, times chi(a^-1); for t*w in a
trivial class, a is the unit ideal, and under the trivial character no
product by chi(a^-1) = 1 is formed; a recovery reads chi(a^-1) once per a
and value tower.  A nonsquare [t w] is read as T_{t b} W_w times
alpha(b)^-1 for the table entry (b, [b], alpha(b)^-1) of its genus, and is
left to step 2d while there is none.

What depends only on the field, the level or the class group is memoised
here, so a run of recoveries pays it once per key, and every key is a group,
an ideal, a class or a norm bound, never an eigensystem:
- ``_principal_operator`` (group, aa, t, w): the class test [aa]^2 [t] [w] = 1
  and the operator it admits; ``make_principal_operator`` still checks the
  level on every call, by one norm test gcd(N(aa) N(t), N(level)) = 1 and
  the two coprimality tests only when that fails;
- ``_class_ideals`` (group, modulus): the class table over the ideals coprime
  to the level, or to level*t when the level's choice meets t;
- ``_character_with_restriction`` (group, restriction): step 1's character,
  the first in ``character_group`` order whose kernel meets CL[2] in the
  classes probed +1;
- ``_prime_classes`` (group, bound): each prime of norm <= bound with its
  class and genus, so step 2 reads them once per group and bound, not once
  per recovery; coprimality to the level is still tested in the loop;
- ``_product`` (i, j): t*a (2c), a*p (2d's table doubling) and level*t, each
  built once through this module's ``ideal_mul``; p^2 (2d) is ``ideal_pow``'s.
  They are memoised here, not on ``ideal_mul``, which stays a plain function
  for the tracer that wraps it by name (``perfbench/spans.py``).

The loop's class arithmetic is the group's ``lru_cache``d law
(``ClassGroup.mul``, ``inv`` and ``power``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, count
from math import gcd, prod
from typing import NamedTuple

from . import algext
from .algext import AlgValue, lift, sqrt_or_adjoin
from .characters import character_group, character_kernel
from .classgroup import ClassGroup, IdealClass
from .eigensystem import (
    EigensystemError,
    HeckeEigensystem,
    character_field,
    character_values,
    chi_value,
    coefficient,
    make_eigensystem,
)
from .quadfield import (
    Ideal,
    coprime,
    exact_prime_power_divisors,
    ideal_mul,
    ideal_pow,
    ideals_of_norm,
    is_exact_divisor,
    label,
    no_sequence,
    primes_of_norm_up_to,
    unit_ideal,
)


class OracleMissingError(KeyError):
    """The oracle has no value for the requested principal operator."""

    def __init__(self, operator, detail=""):
        super().__init__(str(operator))
        self.operator = operator
        self.detail = detail


class RecoveryError(ValueError):
    pass


@no_sequence
class PrincipalOperator(NamedTuple):
    """T_{aa,aa} T_t W_w with trivial total class (use the factory below)."""

    aa: Ideal
    t: Ideal
    w: Ideal | None = None

    def __str__(self):
        parts = []
        if not self.aa.is_unit():
            parts.append(f"T({label(self.aa)},{label(self.aa)})")
        if not self.t.is_unit():
            parts.append(f"T({label(self.t)})")
        if self.w is not None:
            parts.append(f"W({label(self.w)})")
        return "*".join(parts) if parts else "1"


def make_principal_operator(
    group: ClassGroup,
    level: Ideal,
    aa: Ideal | None = None,
    t: Ideal | None = None,
    w: Ideal | None = None,
) -> PrincipalOperator:
    """T_{aa,aa} T_t W_w at the level, after checking on every call that aa
    and t are coprime to the level and w || level; the class test is the
    memoised ``_principal_operator``, and the ``coprime`` tests run only
    when gcd(N(aa) N(t), N(level)) = 1 fails (or the fields differ)."""
    K = group.field
    aa = aa if aa is not None else unit_ideal(K)
    t = t if t is not None else unit_ideal(K)
    norms_prime = aa.field is t.field is level.field and gcd(aa.norm * t.norm, level.norm) == 1
    if not norms_prime and (not coprime(aa, level) or not coprime(t, level)):
        raise RecoveryError(f"operator parts must be coprime to the level {label(level)}")
    if w is not None and not is_exact_divisor(w, level):
        raise RecoveryError(f"{label(w)} is not an exact divisor of the level")
    return _principal_operator(group, aa, t, w)


@lru_cache(maxsize=None)
def _principal_operator(
    group: ClassGroup, aa: Ideal, t: Ideal, w: Ideal | None
) -> PrincipalOperator:
    """The operator once [aa]^2 [t] [w] is trivial, memoised per (group, aa, t,
    w); the test does not depend on the level.  A failing test raises, and
    lru_cache stores no exception, so it raises again on the next call."""
    total = group.mul(group.power(group.ideal_class(aa), 2), group.ideal_class(t))
    if w is not None:
        total = group.mul(total, group.ideal_class(w))
    if not total.is_trivial():
        raise RecoveryError("operator is not principal (total ideal class nontrivial)")
    return PrincipalOperator(aa, t, w)


@lru_cache(maxsize=None)
def _class_ideals(group: ClassGroup, modulus: Ideal) -> tuple[dict, dict]:
    """(first, roots) over the ideals coprime to the modulus, in label order
    (norm, index): first[x] is the first ideal in class x, roots[c] the first
    a with [a]^2 c trivial, for c in CL^2.  A class's first ideal precedes its
    others, so roots[c] is some first[x].  The scan stops when every class has
    its first ideal; each class holds infinitely many primes, so it needs no
    norm bound.  The memo shares its dicts: read only."""
    first, roots = {}, {}
    for i in chain.from_iterable(ideals_of_norm(group.field, n) for n in count(1)):
        if not coprime(i, modulus):
            continue
        x = group.ideal_class(i)
        if x not in first:
            first[x] = i
            roots.setdefault(group.inv(group.power(x, 2)), i)
            if len(first) == group.h:
                return first, roots


@lru_cache(maxsize=None)
def _prime_classes(group: ClassGroup, bound: int) -> tuple:
    """(p, [p], genus of [p]) for each prime p of norm <= bound, in label
    order; one memoised tuple per (group, bound)."""
    return tuple(
        (p, cls, group.genus(cls))
        for p in primes_of_norm_up_to(group.field, bound)
        for cls in (group.ideal_class(p),)
    )


@lru_cache(maxsize=None)
def _product(i: Ideal, j: Ideal) -> Ideal:
    """i*j, memoised per pair; a miss calls this module's ``ideal_mul``."""
    return ideal_mul(i, j)


@lru_cache(maxsize=None)
def _character_with_restriction(group: ClassGroup, restriction: tuple) -> IdealClass | None:
    """The first character of ``character_group`` order that takes the sign
    s at each class c of restriction, a tuple of (c, s) pairs of CL[2], where
    a character is +-1: its kernel holds c exactly when s = 1.  None when no
    character does.  Memoised per (group, restriction)."""
    for chi in character_group(group):
        kernel = character_kernel(group, chi)
        if all((c in kernel) == (s == 1) for c, s in restriction):
            return chi
    return None


def _sign(v: AlgValue, what: str) -> int:
    """v as the integer +-1, else a RecoveryError "<what> <v>, not +-1".  A
    value is canonical (den > 0, lowest terms), so it is +-1 exactly when den
    is 1, the first numerator is +-1 and the others are 0."""
    nums = v.nums
    if v.den != 1 or nums[0] not in (1, -1) or any(nums[1:]):
        raise RecoveryError(f"{what} {algext.render_value(v)}, not +-1")
    return nums[0]


class SyntheticOracle:
    """Principal-operator eigenvalues read off a full eigensystem:
    lambda(T_{a,a} T_b W_q) = chi(a) alpha(b) epsilon(q)."""

    def __init__(self, system: HeckeEigensystem):
        self.system = system

    def query(self, op: PrincipalOperator) -> AlgValue:
        F = self.system
        # chi(aa) is one read of F's memo, and no product is formed by chi's
        # value 1 (the shared ``one``); chi_value's own EigensystemError is
        # not a gap
        chi_a = chi_value(F, op.aa)
        try:
            val = coefficient(F, op.t)
            if op.w is not None:
                val = val.scale(prod(map(F.al_sign, exact_prime_power_divisors(op.w))))
        except EigensystemError as exc:
            raise OracleMissingError(op, str(exc))
        return val if chi_a is algext.one(F.vfield) else chi_a * val


class FixtureOracle:
    """Principal-operator eigenvalues looked up from a fixture table."""

    def __init__(self, mapping: dict[PrincipalOperator, AlgValue]):
        self.mapping = dict(mapping)

    def query(self, op: PrincipalOperator) -> AlgValue:
        if op not in self.mapping:
            raise OracleMissingError(op)
        return self.mapping[op]


def double_sign_table(group: ClassGroup, table: dict, p: Ideal, alpha_p: AlgValue) -> None:
    """Step 2d: add (p, [p], alpha_p) and its product with every entry to the
    table genus -> (a, [a], value at a), whose unit entry ((1), [(1)], 1) is
    implicit; any multiplicative value doubles this way.  p's genus is new,
    so the genera double and each keeps one entry.  An entry keeps its
    ideal's class ([a p] = [a] [p]), so a 2c read reduces no form."""
    cls_p = group.ideal_class(p)
    for a, cls_a, va in list(table.values()):
        common = algext.join_fields(va.field, alpha_p.field)
        cls = group.mul(cls_a, cls_p)
        table[group.genus(cls)] = (_product(a, p), cls, lift(va, common) * lift(alpha_p, common))
    table[group.genus(cls_p)] = (p, cls_p, alpha_p)


@dataclass
class RecoveryResult:
    system: HeckeEigensystem
    alpha_gaps: list  # (Ideal, PrincipalOperator) pairs the oracle could not answer
    al_incomplete: list  # exact divisors whose sign could not be determined


def recover(
    oracle,
    group: ClassGroup,
    level: Ideal,
    bound: int,
    sign_flip: bool = False,
    on_missing: str = "error",
) -> RecoveryResult:
    """Run the full recovery procedure against a principal-operator oracle.

    bound: the norm bound of the primes to recover; one below 2, the least
    norm of a prime, is a RecoveryError.
    on_missing: "error" propagates oracle gaps, "skip" records them and
    leaves the affected eigenvalue out of the result.
    """
    if on_missing not in ("error", "skip"):
        raise RecoveryError(f"bad on_missing={on_missing!r}")
    if bound < 2:
        raise RecoveryError(f"bound {bound} is below 2, the least norm of a prime")
    squares = group.squares()
    first, roots = _class_ideals(group, level)

    # Step 1: the character on the two-torsion classes, then its chosen lift.
    restriction = {}
    for cls in sorted(group.two_torsion(), key=lambda c: c.exps):
        if cls.is_trivial():
            restriction[cls] = 1
            continue
        probe = make_principal_operator(group, level, aa=first[cls])
        try:
            vrou = oracle.query(probe)
        except OracleMissingError:
            if on_missing == "error":
                raise
            raise RecoveryError(f"the oracle has no value for the character probe {probe}")
        restriction[cls] = _sign(vrou, f"T_(a,a) at class {cls.exps} returned")
    chi = _character_with_restriction(group, tuple(restriction.items()))
    if chi is None:
        signs = {c.exps: s for c, s in restriction.items()}
        raise RecoveryError(f"no character has the two-torsion restriction {signs}")
    work = character_field(algext.RATIONAL_FIELD, group, chi)
    trivial = chi.is_trivial()

    def chiv(cls: IdealClass) -> AlgValue:
        v = character_values(work, group, chi)[cls]
        if v is None:
            raise RecoveryError(f"{work.describe()} lacks the values of character {chi.exps}")
        return v

    def absorb(v: AlgValue) -> AlgValue:
        """v in the work tower, which grows by v's roots when it lacks them."""
        nonlocal work
        if v.field is not work:  # towers are interned
            work = algext.join_fields(work, v.field)
            v = lift(v, work)
        return v

    # (a, tower) -> chi(a^-1) in the tower, read once per auxiliary ideal
    # and tower rather than once per prime
    chi_inv: dict[tuple[Ideal, algext.ValueField], AlgValue] = {}

    def principal(cls: IdealClass, t=None, w=None, coprime_to=None) -> AlgValue:
        """The eigenvalue of T_t W_w, with cls = [t w]: query T_{a,a} T_t W_w
        for the first a, coprime to the level (and to coprime_to if given),
        that makes it principal, times chi(a^-1), which is 1 for the unit a
        or the trivial chi."""
        a = roots[cls]
        if coprime_to is not None and not coprime(a, coprime_to):
            # every ideal before a already fails a test that ignores coprime_to
            a = _class_ideals(group, _product(level, coprime_to))[1][cls]
        v = absorb(oracle.query(make_principal_operator(group, level, a, t, w)))
        if trivial or a.is_unit():
            return v
        c = chi_inv.get((a, work))
        if c is None:
            c = chi_inv[a, work] = chiv(group.inv(group.ideal_class(a)))
        return v * c

    # genus -> (a, [a], alpha(a)^-1)
    table: dict[tuple[int, ...], tuple[Ideal, IdealClass, AlgValue]] = {}

    def read(cls: IdealClass, genus: tuple, t=None, w=None) -> AlgValue | None:
        """The eigenvalue of T_t W_w, with cls = [t w] of the given genus:
        read directly for a square class (2a, 2b); else that of T_{t a} W_w
        times alpha(a)^-1 for the table entry (a, [a], alpha(a)^-1) of the
        genus (2c); else None (2d)."""
        if cls in squares:
            return principal(cls, t, w, coprime_to=t)
        hit = table.get(genus)
        if hit is None:
            return None
        a, cls_a, alpha_inv = hit
        ta = a if t is None else _product(t, a)
        return principal(group.mul(cls, cls_a), ta, w) * absorb(alpha_inv)

    # Step 2: eigenvalues at good primes, in increasing norm order.  A prime
    # that read() cannot reach (2d) gets alpha(p)^2 = alpha(p^2) + chi(p) N(p);
    # a nonzero root doubles the sign table.
    alpha: dict[Ideal, AlgValue] = {}
    gaps = []
    for p, cls, genus in _prime_classes(group, bound):
        if not coprime(p, level):
            continue
        try:
            v = read(cls, genus, t=p)
            if v is None:
                v = principal(group.power(cls, 2), t=ideal_pow(p, 2)) + chiv(cls).scale(p.norm)
                if not v.is_zero():
                    root = absorb(sqrt_or_adjoin(v)[0])
                    v = -root if sign_flip else root
                    double_sign_table(group, table, p, v.inv())
            alpha[p] = v
        except OracleMissingError as exc:
            if on_missing == "error":
                raise
            gaps.append((p, exc.operator))

    # Step 3: involution signs, only for the trivial character.
    al_signs = None
    al_incomplete = []
    if trivial:
        al_signs = {}
        for q in exact_prime_power_divisors(level):
            cls = group.ideal_class(q)
            try:
                v = read(cls, group.genus(cls), w=q)
            except OracleMissingError:
                if on_missing == "error":
                    raise
                v = None
            if v is None:
                al_incomplete.append(q)
            else:
                al_signs[q] = _sign(v, f"involution sign at {label(q)} is")
    system = make_eigensystem(group, level, chi, alpha, al_signs, vfield=work)
    return RecoveryResult(system=system, alpha_gaps=gaps, al_incomplete=al_incomplete)
