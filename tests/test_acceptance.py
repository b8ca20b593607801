"""Acceptance suite: one test per criterion, each printing a PASS line.

Every comparison here is exact (integers, Fractions, and tower values); the
only tolerances are the two stated runtime budgets.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines, or use the
equivalent CLI runner `iqhecke verify`.
"""

import time
from fractions import Fraction

import pytest

from iqhecke.classgroup import IdealClass
from iqhecke.eigensystem import systems_equal, twist
from iqhecke.verify import (
    check_class_groups,
    check_compare_ap,
    check_dimension_table,
    check_genus_character,
    check_mult_relations,
    check_oldform_multiplicities,
    check_recovery_2_1,
    check_round_trip,
    check_structure_detectors,
    separation_eigenvalues,
)


def report(num, detail):
    print(f"ACCEPTANCE {num} PASS: {detail}")


def test_criterion_1_class_groups(bundle):
    t0 = time.perf_counter()
    detail = check_class_groups(bundle)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"class-group checks took {elapsed:.2f}s (budget 1s)"
    report(1, f"{detail} in {elapsed:.3f}s")


def test_criterion_2_genus_character_law(bundle):
    report(2, check_genus_character(bundle))


def test_criterion_3_recovery_regression(bundle):
    detail = check_recovery_2_1(bundle)
    # the four rows are reproduced by twisting exactly, prime by prime
    F0 = bundle.system("2.1", "F0")
    for j, name in enumerate(["F0", "F1", "F2", "F3"]):
        G = twist(F0, IdealClass((j,)))
        expected = bundle.system("2.1", name)
        assert systems_equal(G, expected)
        assert len(G.alpha) == 12
    report(3, detail)


def test_criterion_4_round_trip(bundle):
    t0 = time.perf_counter()
    detail = check_round_trip(bundle)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"round trips took {elapsed:.1f}s (budget 60s)"
    report(4, f"{detail} in {elapsed:.1f}s")


def test_criterion_5_multiplicative_relations(bundle):
    report(5, check_mult_relations(bundle))


def test_criterion_6_dimension_table(bundle):
    detail = check_dimension_table(bundle)
    # the shipped table has 65 rows covering the expected 104 levels
    rows = bundle.dimension_rows
    assert len(rows) == 65
    assert sum(2 if r.conj else 1 for r in rows) == 104
    report(6, detail)


def test_criterion_7_structure_detectors(bundle):
    detail = check_structure_detectors(bundle)
    seps = separation_eigenvalues(bundle)
    assert len(set(seps.values())) == 4
    assert sorted(seps.values()) == [
        Fraction(-5),
        Fraction(-1),
        Fraction(1),
        Fraction(3),
    ]
    report(7, detail)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the level-16.1 fixture eigensystems force the separating eigenvalue "
        "set {-5, -1, 1, 3}; the published set {-5, -2, 2, 3} is not "
        "consistent with the published eigenvalue table it accompanies"
    ),
)
def test_criterion_7_published_separation_set(bundle):
    seps = separation_eigenvalues(bundle)
    assert sorted(seps.values()) == [
        Fraction(-5),
        Fraction(-2),
        Fraction(2),
        Fraction(3),
    ]


def test_criterion_8_modularity_evidence(bundle):
    report(8, check_compare_ap(bundle))


def test_criterion_9_oldform_multiplicities(bundle):
    report(9, check_oldform_multiplicities(bundle))
