"""Old/new dimension bookkeeping and structural validation of newform tables.

The newspace dimension at a level is the full dimension minus the sigma0-
weighted contributions of the newspaces at proper divisors.  On principal
homology the contribution of a newform with self-twist is smaller: only the
divisors on which the self-twist character is +1 count.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from .characters import eval_on_class, order_two_characters
from .classgroup import ClassGroup, IdealClass
from .quadfield import (
    Ideal,
    divisors,
    ideal_div_exact,
    ideal_from_label,
    label,
    label_key,
    sigma0_quotient,
)


class DimensionError(ValueError):
    pass


# The class group whose rules DimensionRow and validate_row encode: h = 4 in
# check (i), the columns chi0 and chi13, and the C4 orbit shapes.
C4 = (4,)


def newspace_dims(full_dims: dict[Ideal, int]) -> dict[Ideal, int]:
    """Solve for new dimensions from full dimensions, in norm order.

    Every divisor of every queried level must be present in full_dims.
    """
    new: dict[Ideal, int] = {}
    for n in sorted(full_dims, key=label_key):
        total = 0
        for m in divisors(n):
            if m == n:
                continue
            if m not in full_dims:
                raise DimensionError(
                    f"missing dimension data at divisor {label(m)} of {label(n)}"
                )
            total += sigma0_quotient(n, m) * new[m]
        new[n] = full_dims[n] - total
    return new


@dataclass(frozen=True)
class NewformRecord:
    """One Galois orbit of homological newforms at a level.

    degree is the dimension of the orbit (the degree of the principal Hecke
    field); side is "plus" or "minus" for the two involution eigenspaces;
    selftwist carries the self-twist character when there is one; shape, when
    pinned by the Hecke-field table, is "split", "joined", or "selftwist".
    """

    level: Ideal
    side: str
    degree: int
    selftwist: IdealClass | None = None
    shape: str | None = None


def oldclass_principal_multiplicity(
    group: ClassGroup, record: NewformRecord, n: Ideal
) -> int:
    """Dimension of the principal projection of the oldclass of the record's
    newform at level n."""
    m = record.level
    if not m.contains_ideal(n):
        raise DimensionError(f"{label(m)} does not divide {label(n)}")
    if record.selftwist is None:
        return sigma0_quotient(n, m)
    psi = record.selftwist
    if psi not in order_two_characters(group):
        raise DimensionError("self-twist character must be quadratic and nontrivial")
    return sum(
        eval_on_class(group, psi, group.ideal_class(d)).as_sign() == 1
        for d in divisors(ideal_div_exact(n, m))
    )


@dataclass(frozen=True)
class DimensionRow:
    level: str
    conj: str | None
    nd: int
    hplus: tuple[int, ...]
    hminus: tuple[int, ...]
    chi0: tuple[int, ...]
    chi13: tuple[int, ...]


def _shape_options(record: NewformRecord) -> dict[str, tuple[int, ...]]:
    """The orbit shapes the record may take in its side's character column:
    d,d | 2d | d on the plus side and 2d,2d | 4d | 2d on the minus side."""
    d = record.degree if record.side == "plus" else 2 * record.degree
    shapes = {"split": (d, d), "joined": (2 * d,), "selftwist": (d,)}
    if record.shape is not None:
        return {record.shape: shapes[record.shape]}
    if record.selftwist is not None:
        return {"selftwist": shapes["selftwist"]}
    return {"split": shapes["split"], "joined": shapes["joined"]}


def _cover(entries: Iterable[int], blocks: list[dict]) -> bool:
    """Can the multiset of entries be partitioned into one shape per block?"""

    def rec(i: int, rest: Counter) -> bool:
        if i == len(blocks):
            return not rest
        return any(
            not need - rest and rec(i + 1, rest - need)
            for need in map(Counter, blocks[i].values())
        )

    return rec(0, Counter(entries))


@dataclass
class RowReport:
    level: str
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_row(
    group: ClassGroup,
    row: DimensionRow,
    records: list[NewformRecord],
) -> RowReport:
    """Structural checks of one newform-table row.

    (i)  nd equals 4 * dim H minus twice the total self-twist degree;
    (ii) the chi0 column decomposes into per-record shapes d,d | 2d | d;
    (iii) the chi1,chi3 column decomposes into shapes 2d,2d | 4d | 2d;
    (iv) the conjugate label really is the Galois conjugate of the level.
    """
    if group.elementary_divisors != C4:
        raise DimensionError(
            f"dimension rows follow the C4 rules, not those of the class group "
            f"with elementary divisors {group.elementary_divisors}"
        )
    violations = []
    level = ideal_from_label(group.field, row.level)
    conj = level.conjugate()
    if row.conj is None and conj != level:
        violations.append(f"level {row.level} is not self-conjugate")
    elif row.conj is not None and label(conj) != row.conj:
        violations.append(f"conjugate of {row.level} is {label(conj)}, row says {row.conj}")
    here = [r for r in records if r.level == level]
    plus = [r for r in here if r.side == "plus"]
    minus = [r for r in here if r.side == "minus"]
    if sorted(r.degree for r in plus) != sorted(row.hplus):
        violations.append("records do not match the H+ column")
    if sorted(r.degree for r in minus) != sorted(row.hminus):
        violations.append("records do not match the H- column")
    deficit = 2 * sum(r.degree for r in here if r.selftwist is not None)
    dim_h = sum(row.hplus) + sum(row.hminus)
    if row.nd != 4 * dim_h - deficit:
        violations.append(
            f"nd = {row.nd} but 4*dimH - deficit = {4 * dim_h - deficit}"
        )
    if not _cover(row.chi0, [_shape_options(r) for r in plus]):
        violations.append("chi0 column does not decompose into H+ orbit shapes")
    if not _cover(row.chi13, [_shape_options(r) for r in minus]):
        violations.append("chi1,chi3 column does not decompose into H- orbit shapes")
    return RowReport(level=row.level, violations=violations)
