"""Characters of the ideal class group, with exact root-of-unity values.

The pinned generators identify CL with its dual: the character with exponent
vector e sends the i-th generator (of order d_i) to zeta_{d_i}^{e_i}, so a
character is the ``IdealClass`` with exponents e and uses ClassGroup's law.
The characters of order 2, the genus characters such as chi2 of
Q(sqrt(-17)), are the one list ``order_two_characters``.
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


def eval_on_class(group: ClassGroup, chi: IdealClass, cls: IdealClass) -> RootOfUnity:
    # the divisors are nested, so the last one is the exponent of CL
    n = group.elementary_divisors[-1] if group.elementary_divisors else 1
    k = 0
    for e, x, d in zip(chi.exps, cls.exps, group.elementary_divisors):
        k += e * x * (n // d)
    return RootOfUnity.make(k, n)


@lru_cache(maxsize=None)
def order_two_characters(group: ClassGroup) -> tuple[IdealClass, ...]:
    """The characters of order exactly 2, with values in {+-1} and not
    trivial, in character_group order; one tuple per group."""
    return tuple(chi for chi in character_group(group) if group.class_order(chi) == 2)


def eligible_selftwists(group: ClassGroup, n: Ideal) -> list[IdealClass]:
    """The set C(n): the psi of order 2 with psi(q) = +1 for every exact
    prime-power divisor q of n (q = n included when n is a prime power)."""
    blocks = exact_prime_power_divisors(n)
    return [
        psi
        for psi in order_two_characters(group)
        if all(eval_on_class(group, psi, group.ideal_class(q)).as_sign() == 1 for q in blocks)
    ]
