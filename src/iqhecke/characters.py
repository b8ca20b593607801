"""Characters of the ideal class group, with exact root-of-unity values.

Characters are exponent vectors on the generators of CL and use ClassGroup's
law.  Characters and roots of unity are ordered records (``no_sequence``): a
tuple underneath, built, compared and hashed in C, in the order of their
fields, as the dataclasses they replace were.
"""

from __future__ import annotations

from functools import partial
from math import gcd, lcm
from typing import NamedTuple

from .classgroup import ClassGroup, IdealClass
from .quadfield import Ideal, exact_prime_power_divisors, no_sequence


@partial(no_sequence, ordered=True)
class RootOfUnity(NamedTuple):
    """The value zeta_n^k, stored with k/n in lowest terms (0 <= k < n)."""

    k: int
    n: int

    @staticmethod
    def make(k: int, n: int) -> "RootOfUnity":
        if n <= 0:
            raise ValueError(f"root of unity of order {n}")
        k %= n
        g = gcd(k, n)
        return _new_root((k // g, n // g) if k else (0, 1))

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        n = lcm(self.n, other.n)
        return RootOfUnity.make(self.k * (n // self.n) + other.k * (n // other.n), n)

    def __pow__(self, e: int) -> "RootOfUnity":
        return RootOfUnity.make(self.k * e, self.n)

    def is_one(self) -> bool:
        return self.n == 1

    def as_sign(self) -> int:
        """The value as +-1; only valid for order <= 2."""
        if self.n == 1:
            return 1
        if self.n == 2:
            return -1
        raise ValueError(f"{self} is not real")


_new_root = partial(tuple.__new__, RootOfUnity)  # (k, n) -> RootOfUnity, one C call


@partial(no_sequence, ordered=True)
class ClassCharacter(NamedTuple):
    """Character of CL, given by exponents against the pinned generators.

    The i-th generator (of order d_i) is sent to zeta_{d_i}^{e_i}.
    """

    exps: tuple[int, ...]

    def is_trivial(self) -> bool:
        return not any(self.exps)


def character_group(group: ClassGroup) -> list[ClassCharacter]:
    return sorted(ClassCharacter(c.exps) for c in group.all_classes())


def character_order(group: ClassGroup, chi: ClassCharacter) -> int:
    return group.class_order(chi)


def eval_on_class(group: ClassGroup, chi: ClassCharacter, cls: IdealClass) -> RootOfUnity:
    # the divisors are nested, so the last one is the exponent of CL
    n = group.elementary_divisors[-1] if group.elementary_divisors else 1
    k = 0
    for e, x, d in zip(chi.exps, cls.exps, group.elementary_divisors):
        k += e * x * (n // d)
    return RootOfUnity.make(k, n)


def is_quadratic(group: ClassGroup, chi: ClassCharacter) -> bool:
    return group.class_order(chi) <= 2


def quadratic_characters(group: ClassGroup) -> list[ClassCharacter]:
    """All characters with values in {+-1}, the trivial one included."""
    return [chi for chi in character_group(group) if is_quadratic(group, chi)]


def eligible_selftwists(group: ClassGroup, n: Ideal) -> list[ClassCharacter]:
    """The set C(n): nontrivial quadratic psi with psi(q) = +1 for every exact
    prime-power divisor q of n (q = n included when n is a prime power)."""
    blocks = exact_prime_power_divisors(n)
    return [
        psi
        for psi in quadratic_characters(group)
        if not psi.is_trivial()
        and all(eval_on_class(group, psi, group.ideal_class(q)).as_sign() == 1 for q in blocks)
    ]

