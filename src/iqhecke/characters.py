"""Characters of the ideal class group, with exact root-of-unity values.

The pinned generators identify CL with its dual: the character with exponent
vector e sends the i-th generator (of order d_i) to zeta_{d_i}^{e_i}, so a
character is the ``IdealClass`` with exponents e and uses ClassGroup's law.
The characters of order 2, the genus characters such as chi2 of
Q(sqrt(-17)), are the one list ``order_two_characters``.  Where a character
is 1 is its kernel, ``character_kernel``, one memoised set of classes: the
library tests "chi is 1 on these classes" as a subset or membership test on
it, and reads no value of chi for that.
Roots of unity are records (``no_sequence``): a tuple underneath, built,
compared and hashed in C.
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import gcd, lcm
from typing import NamedTuple

from .classgroup import ClassGroup, IdealClass
from .quadfield import Ideal, exact_prime_power_divisors, no_sequence


@no_sequence
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


def character_group(group: ClassGroup) -> list[IdealClass]:
    """Every character once, in lexicographic exponent order."""
    return group.all_classes()


def character_order(group: ClassGroup, chi: IdealClass) -> int:
    return group.class_order(chi)


def check_reduced(group: ClassGroup, x: IdealClass, what: str = "character",
                  error: type = ValueError) -> None:
    """An error of the given type unless x is a reduced exponent vector of
    group, one of its classes."""
    if x not in group:
        raise error(
            f"{what} {list(x.exps)} is not a reduced exponent vector"
            f" for the elementary divisors {list(group.elementary_divisors)}"
        )


def eval_on_class(group: ClassGroup, chi: IdealClass, cls: IdealClass) -> RootOfUnity:
    """chi(cls); a ValueError (check_reduced) unless both are classes of group."""
    if chi not in group or cls not in group:
        check_reduced(group, chi)
        check_reduced(group, cls, "class")
    # the divisors are nested, so the last one is the exponent of CL
    n = group.elementary_divisors[-1] if group.elementary_divisors else 1
    k = 0
    for e, x, d in zip(chi.exps, cls.exps, group.elementary_divisors):
        k += e * x * (n // d)
    return RootOfUnity.make(k, n)


@lru_cache(maxsize=None)
def character_kernel(group: ClassGroup, chi: IdealClass) -> frozenset[IdealClass]:
    """The classes where chi is 1, a subgroup of index the order of chi; one
    frozenset per (group, character)."""
    return frozenset(x for x in group.all_classes() if eval_on_class(group, chi, x).is_one())


@lru_cache(maxsize=None)
def order_two_characters(group: ClassGroup) -> tuple[IdealClass, ...]:
    """The characters of order exactly 2, with values in {+-1} and not
    trivial, in character_group order; one tuple per group."""
    return tuple(chi for chi in character_group(group) if group.class_order(chi) == 2)


def eligible_selftwists(group: ClassGroup, n: Ideal) -> list[IdealClass]:
    """The set C(n): the psi of order 2 with psi(q) = +1 for every exact
    prime-power divisor q of n (q = n included when n is a prime power)."""
    classes = [group.ideal_class(q) for q in exact_prime_power_divisors(n)]
    return [psi for psi in order_two_characters(group)
            if character_kernel(group, psi).issuperset(classes)]
