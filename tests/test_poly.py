"""Integer polynomials: Hensel lifting, interpolation mod m, and the
irreducibility test against sympy on products, cyclotomic polynomials and
the totally real bases Q(2cos(2pi/e))."""

import math
import random

import pytest

from iqhecke import poly

# Psi_e, the minimal polynomial of 2cos(2pi/e), constant coefficient first
REAL_CYCLOTOMIC = {
    7: [-1, -2, 1, 1],
    11: [1, 3, -3, -4, 1, 1],
    13: [-1, 3, 6, -4, -5, 1, 1],
    19: [1, 5, -10, -20, 15, 21, -7, -8, 1, 1],
}
BASES = list(REAL_CYCLOTOMIC.values()) + [[-1, -1, 1], [1, -3, -1, 1], [1, 0, -10, 0, 1]]


@pytest.mark.parametrize("e, mp", REAL_CYCLOTOMIC.items())
def test_largest_root_of_psi_e_is_2cos(e, mp):
    assert math.isclose(poly.largest_root(mp), 2 * math.cos(2 * math.pi / e), rel_tol=1e-12)


@pytest.mark.parametrize("mp", BASES)
def test_lift_roots_reaches_the_least_power_above_the_bound(mp):
    p, xs = next(poly.split_primes(mp))
    assert len(set(xs)) == len(mp) - 1 and all(poly.evaluate(mp, x) % p == 0 for x in xs)
    for bound in (-5, 0, p * p, 10**40):
        m, roots = poly.lift_roots(mp, p, xs, bound)
        assert m * m > bound and (m == p or (m // p) ** 2 <= bound)
        assert [r % p for r in roots] == xs
        assert all(poly.evaluate(mp, r) % m == 0 for r in roots)


@pytest.mark.parametrize("mp", [[1, -2, 1], [1, -1, -1, 1]], ids=["(x-1)^2", "(x-1)^2(x+1)"])
def test_a_repeated_root_is_an_error_not_an_endless_prime_search(run_fresh, mp):
    # in a subprocess with a timeout, since no prime splits mp into distinct roots
    code = f"from iqhecke import poly; poly.is_irreducible({mp})"
    result = run_fresh(code, timeout=10)
    assert result.returncode == 1
    assert result.stderr.strip().endswith(f"ValueError: polynomial {mp} has a repeated root")
    assert not poly.is_squarefree(mp)


def test_lagrange_basis_is_one_at_its_point_and_zero_at_the_others():
    rng = random.Random(5)
    p = 101
    for k in range(1, 10):
        m = p**rng.randint(1, 4)
        xs = [x + p * rng.randrange(m // p) for x in rng.sample(range(p), k)]
        basis = poly.lagrange_basis(xs, m)
        assert all(len(li) == k for li in basis)
        for i, li in enumerate(basis):
            assert [poly.evaluate(li, x) % m for x in xs] == [int(i == j) for j in range(k)]
        g = poly.from_roots(xs, m)
        assert len(g) == k + 1 and g[-1] == 1 and all(poly.evaluate(g, x) % m == 0 for x in xs)


def _random_products(seed, count):
    """Products of one to three distinct random monic factors of degree 1-3,
    squarefree, as sympy polynomials."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        factors = {
            sympy.Poly([1] + [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))], x)
            for _ in range(rng.randint(1, 3))
        }
        g = math.prod(factors, start=sympy.Poly(1, x))
        if g.degree() >= 2 and g.discriminant() != 0:
            out.append(g)
    return out


def _cyclotomic(e):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly(sympy.cyclotomic_poly(e, sympy.Symbol("x")))


def _as_poly(coeffs):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"))


def _verdicts(polys):
    """is_irreducible of each sympy polynomial, checked against its factor_list."""
    verdicts = []
    for g in polys:
        _, factors = g.factor_list()
        coeffs = [int(c) for c in reversed(g.all_coeffs())]
        verdicts.append(poly.is_irreducible(coeffs))
        assert verdicts[-1] == (len(factors) == 1 and factors[0][1] == 1), coeffs
    return verdicts


def test_is_irreducible_agrees_with_sympy_on_products():
    verdicts = _verdicts(_random_products(seed=3, count=60))
    assert True in verdicts and False in verdicts


def test_is_irreducible_agrees_with_sympy_on_cyclotomic_polynomials():
    # the orders with phi(e) <= 12, where trying every subset of the roots stays fast
    assert all(_verdicts([g for g in map(_cyclotomic, range(3, 31)) if g.degree() <= 12]))


def test_is_irreducible_agrees_with_sympy_on_the_bases():
    assert all(_verdicts([_as_poly(mp) for mp in BASES]))
