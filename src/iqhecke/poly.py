"""Integer polynomials, constant coefficient first like ``ValueField.minpoly``:
roots mod p, Hensel lifting and interpolation mod p^k (Cohen, GTM 138, sec.
3.4-3.5; von zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 5 and 15)."""

from fractions import Fraction
from itertools import combinations, count

from .quadfield import is_rational_prime


def evaluate(coeffs, x):
    """The polynomial at x, by Horner's rule."""
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def split_primes(mp):
    """(p, roots of mp mod p) for each odd prime p, in increasing order, at
    which the monic integer polynomial mp splits into distinct roots; none
    does when mp has a repeated root (see ``is_squarefree``)."""
    for p in count(3, 2):
        if is_rational_prime(p):
            xs = [x for x in range(p) if evaluate(mp, x) % p == 0]
            if len(xs) == len(mp) - 1:
                yield p, xs


def hensel(g: list[int], x: int, m: int) -> int:
    """The root mod m of the integer polynomial g above its simple root x mod
    p, by Newton steps, each of which doubles the p-adic precision."""
    dg = [k * c for k, c in enumerate(g)][1:]
    while evaluate(g, x) % m:
        x = (x - evaluate(g, x) * pow(evaluate(dg, x), -1, m)) % m
    return x


def lift_roots(g, p: int, xs: list[int], bound: int) -> tuple[int, list[int]]:
    """(m, roots): m the least power of p with m^2 > bound, so symmetric residues
    mod m hold every |c| <= sqrt(bound)/2, and the roots xs of g mod p lifted mod m."""
    m = p
    while m * m <= bound:
        m *= p
    return m, [hensel(g, x, m) for x in xs]


def from_roots(roots, m: int) -> list[int]:
    """The product of x - r over the roots, with coefficients mod m."""
    g = [1]
    for r in roots:
        g = [(a - r * b) % m for a, b in zip([0] + g, g + [0])]
    return g


def lagrange_basis(xs: list[int], m: int) -> list[list[int]]:
    """For each x_i, the coefficients mod m of the polynomial of degree below
    len(xs) that is 1 at x_i and 0 at every other x_j; each x_i - x_j must be
    a unit mod m."""
    basis = []
    for i, x in enumerate(xs):
        g = from_roots(xs[:i] + xs[i + 1:], m)
        scale = pow(evaluate(g, x), -1, m)
        basis.append([c * scale % m for c in g])
    return basis


def _remainder(a: list, b: list) -> list:
    """a mod b over Q, without leading zeros; b has a nonzero leading coefficient."""
    a = list(a)
    while len(a) >= len(b):
        q = Fraction(a[-1]) / b[-1]
        a = [x - q * y for x, y in zip(a, [0] * (len(a) - len(b)) + b)][:-1]
    while a and not a[-1]:
        a.pop()
    return a


def is_squarefree(mp) -> bool:
    """Whether the monic polynomial mp has distinct roots: gcd(mp, mp') over
    Q, by Euclid's algorithm, is a constant."""
    a, b = mp, [k * c for k, c in enumerate(mp)][1:]
    while b:
        a, b = b, _remainder(a, b)
    return len(a) == 1


def is_irreducible(mp) -> bool:
    """Whether the monic integer polynomial mp is irreducible over Q; a
    ValueError when it has a repeated root.  A monic factor of degree
    k <= deg/2 has integer coefficients (Gauss) of absolute value at most
    (1 + C)^k, C = 1 + max|c_i| the Cauchy bound on the roots, so it is the
    product of x - x_i over k roots x_i of mp, lifted mod m > 2(1 + C)^k at a
    split prime, in symmetric residues."""
    if not is_squarefree(mp):
        raise ValueError(f"polynomial {list(mp)} has a repeated root")
    deg = len(mp) - 1
    p, xs = next(split_primes(mp))
    m, xs = lift_roots(mp, p, xs, 4 * (2 + max(map(abs, mp[:-1]))) ** (deg // 2 * 2))
    for k in range(1, deg // 2 + 1):
        for roots in combinations(xs, k):
            g = [(c + m // 2) % m - m // 2 for c in from_roots(roots, m)]
            rem = list(mp)  # long division by the monic g
            for i in range(deg - k, -1, -1):
                rem[i:i + k + 1] = [r - rem[i + k] * c for r, c in zip(rem[i:i + k + 1], g)]
            if not any(rem):
                return False
    return True


def largest_root(coeffs) -> float:
    """The largest root of a monic real-rooted polynomial, by Newton's method
    from the Cauchy bound 1 + max|c_i|: right of the largest root the
    polynomial is increasing and convex, so the iterates descend to it."""
    deriv = [k * c for k, c in enumerate(coeffs)][1:]
    x = 1 + max(map(abs, coeffs[:-1]))
    while (nxt := x - evaluate(coeffs, x) / evaluate(deriv, x)) < x:
        x = nxt
    return x
