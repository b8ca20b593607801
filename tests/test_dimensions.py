import random
from dataclasses import replace
from itertools import chain, product

import pytest

from iqhecke.classgroup import IdealClass, compute_class_group
from iqhecke.dimensions import (
    DimensionError,
    _cover,
    DimensionRow,
    NewformRecord,
    newspace_dims,
    oldclass_principal_multiplicity,
    validate_row,
)
from iqhecke.quadfield import (
    divisors,
    ideal_from_label,
    ideal_mul,
    ideal_pow,
    label,
    make_field,
    principal_ideal,
    sigma0,
    unit_ideal,
)


def test_newspace_formula_prime_power_example(K17):
    # level (4) = p^4 with new dimension 4 at p^2 and 0 elsewhere below
    p = ideal_from_label(K17, "2.1")
    full = {ideal_pow(p, k): 0 for k in range(5)}
    full[ideal_pow(p, 2)] = 4
    full[ideal_pow(p, 3)] = 4 * 2  # sigma0(p) = 2 copies of the p^2 newform
    full[ideal_pow(p, 4)] = 30
    new = newspace_dims(full)
    assert new[ideal_pow(p, 2)] == 4
    assert new[ideal_pow(p, 3)] == 0
    assert new[ideal_pow(p, 4)] == 30 - 3 * 4  # sigma0(p^2) = 3


def test_newspace_formula_trivial_case(K17):
    n = ideal_from_label(K17, "3.1")
    full = {unit_ideal(K17): 0, n: 7}
    assert newspace_dims(full)[n] == 7


def test_newspace_missing_divisor_reported(K17):
    n = principal_ideal(K17, 3, 0)
    with pytest.raises(DimensionError):
        newspace_dims({n: 1})


def test_oldclass_multiplicities(G17, K17):
    chi2 = IdealClass((2,))
    m = ideal_from_label(K17, "2.1")
    # n = m * p with no self-twist: sigma0(p) = 2
    p = ideal_from_label(K17, "3.1")
    n = ideal_mul(m, p)
    plain = NewformRecord(level=m, side="plus", degree=1)
    assert oldclass_principal_multiplicity(G17, plain, n) == 2
    # chi2(p) = -1 at the norm-3 prime: multiplicity drops to 1
    st = NewformRecord(level=m, side="plus", degree=1, selftwist=chi2)
    assert oldclass_principal_multiplicity(G17, st, n) == 1
    # n = m * p^2: divisors (1), p, p^2 and chi2 passes on (1) and p^2
    n2 = ideal_mul(m, ideal_pow(p, 2))
    assert oldclass_principal_multiplicity(G17, st, n2) == 2
    with pytest.raises(DimensionError):
        oldclass_principal_multiplicity(G17, plain, ideal_from_label(K17, "3.1"))


def test_validate_published_rows(bundle):
    records = bundle.newform_records()
    for lab in ("2.1", "16.1", "64.1"):
        row = next(r for r in bundle.dimension_rows if r.level == lab)
        report = validate_row(bundle.group, row, records)
        assert report.ok, report.violations


def test_validate_row_catches_mutations(bundle):
    records = bundle.newform_records()
    row = next(r for r in bundle.dimension_rows if r.level == "16.1")
    bad_nd = DimensionRow("16.1", None, 12, row.hplus, row.hminus, row.chi0, row.chi13)
    rep = validate_row(bundle.group, bad_nd, records)
    assert not rep.ok and any("nd" in v for v in rep.violations)
    bad_cols = DimensionRow(
        "16.1", None, 16, row.hplus, row.hminus, row.chi0, (2, 2, 2, 2, 2, 2, 2)
    )
    rep2 = validate_row(bundle.group, bad_cols, records)
    assert not rep2.ok
    bad_conj = DimensionRow("7.1", "7.1", 4, (1,), (), (1, 1), ())
    rep3 = validate_row(bundle.group, bad_conj, bundle.newform_records())
    assert not rep3.ok and any("conjugate" in v for v in rep3.violations)


def _nothing(record):
    return record


@pytest.mark.parametrize("level, row_change, record_change, violations", [
    ("7.1", {"conj": None}, _nothing, ["level 7.1 is not self-conjugate"]),
    ("2.1", {"hplus": (1, 1)}, _nothing,
     ["records do not match the H+ column", "nd = 4 but 4*dimH - deficit = 8"]),
    ("9.1", {"hminus": ()}, _nothing,
     ["records do not match the H- column", "nd = 4 but 4*dimH - deficit = 0"]),
    ("2.1", {"chi0": (1, 1)}, _nothing, ["chi0 column does not decompose into H+ orbit shapes"]),
    ("2.1", {}, lambda r: replace(r, shape="split"),
     ["chi0 column does not decompose into H+ orbit shapes"]),
    ("9.1", {}, lambda r: replace(r, degree=2),
     ["records do not match the H- column",
      "chi1,chi3 column does not decompose into H- orbit shapes"]),
], ids=["not-self-conjugate", "hplus", "hminus", "chi0", "record-shape", "record-degree"])
def test_validate_row_names_each_broken_rule(bundle, level, row_change, record_change,
                                             violations):
    # one row of the shipped table, or the records at its level, mutated
    row = replace(next(r for r in bundle.dimension_rows if r.level == level), **row_change)
    records = [record_change(r) if label(r.level) == level else r
               for r in bundle.newform_records()]
    assert validate_row(bundle.group, row, records).violations == violations


@pytest.mark.parametrize("psi", [(0,), (1,), (3,)])
def test_oldclass_multiplicity_needs_a_quadratic_nontrivial_selftwist(G17, K17, psi):
    record = NewformRecord(level=unit_ideal(K17), side="plus", degree=1,
                           selftwist=IdealClass(psi))
    with pytest.raises(DimensionError, match="must be quadratic and nontrivial"):
        oldclass_principal_multiplicity(G17, record, ideal_from_label(K17, "3.1"))


@pytest.mark.parametrize("d", [17, 5, 21, 47])  # C4, C2, C2 x C2, C5
def test_validate_row_applies_the_c4_rules_only_to_c4(d):
    g = compute_class_group(make_field(d))
    row = DimensionRow("1.1", None, 4, (1,), (), (1, 1), ())
    records = [NewformRecord(level=unit_ideal(g.field), side="plus", degree=1)]
    if d == 17:
        assert validate_row(g, row, records).ok
    else:
        with pytest.raises(DimensionError, match="C4 rules"):
            validate_row(g, row, records)


def test_sigma0_vs_multiplicity_bound(G17, K17):
    chi2 = IdealClass((2,))
    m = unit_ideal(K17)
    rec = NewformRecord(level=m, side="plus", degree=2, selftwist=chi2)
    for lab in ("12.1", "16.1", "63.1", "98.2"):
        n = ideal_from_label(K17, lab)
        mult = oldclass_principal_multiplicity(G17, rec, n)
        assert mult <= sigma0(n)
        # chi2 is +1 exactly on CL^2: the multiplicity counts those divisors
        passing = [d for d in divisors(n) if G17.ideal_class(d) in G17.squares()]
        assert mult == len(passing) >= 1  # the divisor (1) always passes


def _cover_by_brute_force(entries, blocks):
    """Try every choice of one shape per block."""
    return any(
        sorted(chain.from_iterable(choice)) == sorted(entries)
        for choice in product(*(block.values() for block in blocks))
    )


def test_cover_matches_brute_force():
    rng = random.Random(22)
    outcomes = []
    for _ in range(3000):
        # small sizes, so blocks and shapes repeat; zero blocks included
        blocks = [
            {f"s{j}": tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
             for j in range(rng.randint(1, 3))}
            for _ in range(rng.randint(0, 4))
        ]
        if rng.random() < 0.6:
            # a real cover, then perhaps one entry changed, dropped or added
            entries = [x for block in blocks for x in rng.choice(list(block.values()))]
            edit = rng.randint(0, 3)
            if edit == 1 and entries:
                entries[rng.randrange(len(entries))] = rng.randint(1, 4)
            elif edit == 2 and entries:
                entries.pop(rng.randrange(len(entries)))
            elif edit == 3:
                entries.append(rng.randint(1, 4))
        else:
            entries = [rng.randint(1, 4) for _ in range(rng.randint(0, 8))]
        rng.shuffle(entries)
        expected = _cover_by_brute_force(entries, blocks)
        assert _cover(entries, blocks) == expected, (entries, blocks)
        outcomes.append((len(blocks), expected))
    assert {(0, True), (0, False)} <= set(outcomes)
    assert sum(ok for _, ok in outcomes) > 500 and sum(not ok for _, ok in outcomes) > 500
