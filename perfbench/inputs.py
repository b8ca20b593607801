"""Seeded benchmark inputs, built only from iqhecke's public API.

The generator is the benchmark's own: it does not call
``iqhecke.verify.random_eigensystem``, whose distribution may be widened
later and would then silently change the benchmark's inputs.

Every draw comes from a ``random.Random`` the caller seeds. Fields are
visited round-robin, and each field cycles through every combination of its
base tower and character kind from a seeded starting point. So every run
sees nearly the same mix of operation shapes, and only the levels, the
characters within a kind and the eigenvalues differ from seed to seed. That
keeps the latency distribution of one run close to the next. (Separate
cycles for tower and character would lock their phases together and pair,
say, every Q(sqrt2) system with an order-4 twist in one run and none in
the next.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from iqhecke import algext
from iqhecke.characters import character_group, character_order, eval_on_class
from iqhecke.classgroup import ClassGroup, compute_class_group
from iqhecke.eigensystem import HeckeEigensystem, make_eigensystem, twist
from iqhecke.quadfield import (
    Ideal,
    coprime,
    exact_prime_power_divisors,
    ideals_of_norm,
    make_field,
    primes_of_norm_up_to,
)

# Class-group shapes C1, C2, C3, C4, C2xC2, C4, C2xC4, C2^3.
SWEEP_FIELDS = (1, 5, 23, 17, 21, 14, 65, 105)
# C5, C7, C8, C12: shapes the library does not support yet.
PROBE_FIELDS = (47, 71, 41, 89)

RECOVERY_BOUND = 200
TABLE_NORM = 400
REPORT_NORM = 40
MAX_LEVEL_NORM = 20

# Character kinds for round trips. "restricted" has a nontrivial restriction
# to the two-torsion classes, "trivial" carries involution signs, "any" is a
# uniform draw from the character group.
CHARACTER_KINDS = ("restricted", "trivial", "any", "trivial")
BASE_TOWERS = ((), (2,))


def sweep_groups() -> dict[int, ClassGroup]:
    return {d: compute_class_group(make_field(d)) for d in SWEEP_FIELDS}


class _Cycle:
    """Cycles through options from a seeded starting point."""

    def __init__(self, rng: random.Random, options):
        self.options = tuple(options)
        self.pos = rng.randrange(len(self.options))

    def next(self):
        out = self.options[self.pos % len(self.options)]
        self.pos += 1
        return out


def _random_level(group: ClassGroup, rng: random.Random) -> Ideal:
    K = group.field
    while True:
        choices = ideals_of_norm(K, rng.randint(1, MAX_LEVEL_NORM))
        if choices:
            return rng.choice(choices)


def _random_alpha(group, level, rng, bound, adjoined) -> tuple[dict, algext.ValueField]:
    f = algext.make_value_field(adjoined=adjoined)
    sqrt2 = algext.field_symbols(f).get("sqrt2")

    def value():
        if rng.random() < 0.12:
            return algext.zero(f)
        v = algext.from_rational(f, rng.randint(-4, 4))
        if sqrt2 is not None and rng.random() < 0.7:
            v = v + sqrt2.scale(rng.randint(-3, 3))
        return algext.one(f) if v.is_zero() else v

    K = group.field
    alpha = {p: value() for p in primes_of_norm_up_to(K, bound) if coprime(p, level)}
    return alpha, f


def _signs(level: Ideal, rng: random.Random) -> dict:
    return {q: rng.choice((1, -1)) for q in exact_prime_power_divisors(level)}


def restriction_trivial(F: HeckeEigensystem) -> bool:
    group = F.group
    return all(
        eval_on_class(group, F.character, cls).as_sign() == 1
        for cls in group.two_torsion()
    )


@dataclass
class RoundTripInput:
    system: HeckeEigensystem


@dataclass
class TableInput:
    system: HeckeEigensystem  # twisted by a random character
    report_system: HeckeEigensystem  # the same, truncated to REPORT_NORM
    ideals: tuple[Ideal, ...]  # every ideal of norm <= TABLE_NORM


class RoundTripSource:
    """Fresh eigensystems for ``recover``, one field per call in turn."""

    def __init__(self, groups: dict[int, ClassGroup], rng: random.Random):
        self.rng = rng
        self.groups = list(groups.values())
        self.turn = 0
        self.shapes = {d: _Cycle(rng, product(CHARACTER_KINDS, BASE_TOWERS)) for d in groups}

    def next(self) -> RoundTripInput:
        group = self.groups[self.turn % len(self.groups)]
        self.turn += 1
        d, rng = group.field.d, self.rng
        level = _random_level(group, rng)
        chars = character_group(group)
        restricted = [
            chi
            for chi in chars
            if any(eval_on_class(group, chi, c).as_sign() == -1 for c in group.two_torsion())
        ]
        kind, tower = self.shapes[d].next()
        if kind == "restricted" and not restricted:
            kind = "any"
        signs = None
        if kind == "restricted":
            chi = rng.choice(restricted)
        elif kind == "trivial":
            chi = chars[0]
            signs = _signs(level, rng)
        else:
            chi = rng.choice(chars)
            if chi.is_trivial():
                signs = _signs(level, rng)
        alpha, f = _random_alpha(group, level, rng, RECOVERY_BOUND, tower)
        return RoundTripInput(make_eigensystem(group, level, chi, alpha, signs, vfield=f))


class TableSource:
    """Twisted eigensystems whose coefficient tables are built, one field per
    call in turn. The twist cycles over character orders, then picks a
    character of that order."""

    def __init__(self, groups: dict[int, ClassGroup], rng: random.Random):
        self.rng = rng
        self.groups = list(groups.values())
        self.turn = 0
        self.twists = {}
        for d, g in groups.items():
            by_order: dict[int, list] = {}
            for chi in character_group(g):
                by_order.setdefault(character_order(g, chi), []).append(chi)
            self.twists[d] = by_order
        self.shapes = {
            d: _Cycle(rng, product(sorted(self.twists[d]), BASE_TOWERS)) for d in groups
        }
        self.ideals = {
            d: tuple(i for n in range(1, TABLE_NORM + 1) for i in ideals_of_norm(g.field, n))
            for d, g in groups.items()
        }

    def next(self) -> TableInput:
        group = self.groups[self.turn % len(self.groups)]
        self.turn += 1
        d, rng = group.field.d, self.rng
        level = _random_level(group, rng)
        order, tower = self.shapes[d].next()
        alpha, f = _random_alpha(group, level, rng, TABLE_NORM, tower)
        base = make_eigensystem(
            group, level, character_group(group)[0], alpha, _signs(level, rng), vfield=f
        )
        F = twist(base, rng.choice(self.twists[d][order]))
        short = {p: v for p, v in F.alpha if p.norm <= REPORT_NORM}
        signs = dict(F.al_signs) if F.al_signs is not None else None
        report = make_eigensystem(group, level, F.character, short, signs, vfield=F.vfield)
        return TableInput(F, report, self.ideals[d])


def probe_system(group: ClassGroup, rng: random.Random) -> HeckeEigensystem:
    """A trivial-character system over Q, for the unsupported-shape probe."""
    level = _random_level(group, rng)
    alpha, f = _random_alpha(group, level, rng, RECOVERY_BOUND, ())
    return make_eigensystem(
        group, level, character_group(group)[0], alpha, _signs(level, rng), vfield=f
    )
