"""Exact arithmetic in small square-root towers over a totally real base.

A ValueField is k = Q(theta)(sqrt(r_1), ..., sqrt(r_m)) where theta has a
monic integer minimal polynomial of small degree and the r_j are base-field
elements (usually rationals).  Values are stored on the basis
theta^k * prod_{j in S} sqrt(r_j) with exact rational coefficients.

Square roots are found by exact descent through the tower (never by numeric
reconstruction); a high-precision embedding is used only to pick the
canonical sign of a root, which cannot affect correctness.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .quadfield import factor_int


class AlgebraError(ValueError):
    pass


BaseVec = tuple[Fraction, ...]  # coefficients on 1, theta, ..., theta^(deg-1)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class ValueField:
    """Q(theta) extended by square roots of the adjoined base elements."""

    minpoly: tuple[Fraction, ...]  # monic, constant coefficient first
    adjoined: tuple[BaseVec, ...]  # sorted; each of length deg(minpoly)

    @property
    def base_degree(self) -> int:
        return len(self.minpoly) - 1

    @property
    def nroots(self) -> int:
        return len(self.adjoined)

    @property
    def dim(self) -> int:
        return self.base_degree << self.nroots

    def subfield(self) -> "ValueField":
        assert self.adjoined
        return ValueField(self.minpoly, self.adjoined[:-1])

    def describe(self) -> str:
        base = "Q" if self.base_degree == 1 else f"Q(a), deg {self.base_degree}"
        if not self.adjoined:
            return base
        names = ", ".join(_root_name(self, j) for j in range(self.nroots))
        return f"{base}({names})"


def make_value_field(minpoly=(0, 1), adjoined=()) -> ValueField:
    mp = tuple(_frac(c) for c in minpoly)
    if len(mp) < 2 or mp[-1] != 1:
        raise AlgebraError(f"minimal polynomial must be monic, got {minpoly}")
    deg = len(mp) - 1
    adj = []
    for r in adjoined:
        adj.append(_as_base_vec(deg, r))
    return ValueField(mp, tuple(sorted(adj)))


RATIONAL_FIELD = make_value_field()


def _as_base_vec(deg: int, r) -> BaseVec:
    if isinstance(r, (int, Fraction)):
        return tuple([_frac(r)] + [Fraction(0)] * (deg - 1))
    vec = tuple(_frac(c) for c in r)
    assert len(vec) == deg
    return vec


@dataclass(frozen=True)
class AlgValue:
    field: ValueField
    coeffs: tuple[BaseVec, ...]  # indexed by subset mask over adjoined roots

    def is_zero(self) -> bool:
        return all(c == 0 for vec in self.coeffs for c in vec)

    def is_rational(self) -> bool:
        for mask, vec in enumerate(self.coeffs):
            for k, c in enumerate(vec):
                if c != 0 and (mask or k):
                    return False
        return True

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise AlgebraError(f"{self} is not rational")
        return self.coeffs[0][0]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "AlgValue") -> "AlgValue":
        _check_same_field(self, other)
        return AlgValue(
            self.field,
            tuple(
                tuple(a + b for a, b in zip(va, vb))
                for va, vb in zip(self.coeffs, other.coeffs)
            ),
        )

    def __neg__(self) -> "AlgValue":
        return AlgValue(
            self.field, tuple(tuple(-a for a in vec) for vec in self.coeffs)
        )

    def __sub__(self, other: "AlgValue") -> "AlgValue":
        return self + (-other)

    def __mul__(self, other: "AlgValue") -> "AlgValue":
        _check_same_field(self, other)
        f = self.field
        deg = f.base_degree
        zero = tuple(Fraction(0) for _ in range(deg))
        acc = [list(zero) for _ in range(1 << f.nroots)]
        for ma, va in enumerate(self.coeffs):
            if all(c == 0 for c in va):
                continue
            for mb, vb in enumerate(other.coeffs):
                if all(c == 0 for c in vb):
                    continue
                prod = _base_mul(f, va, vb)
                common = ma & mb
                j = 0
                while common:
                    if common & 1:
                        prod = _base_mul(f, prod, f.adjoined[j])
                    common >>= 1
                    j += 1
                tgt = acc[ma ^ mb]
                for k in range(deg):
                    tgt[k] += prod[k]
        return AlgValue(f, tuple(tuple(vec) for vec in acc))

    def scale(self, q) -> "AlgValue":
        q = _frac(q)
        return AlgValue(
            self.field, tuple(tuple(q * a for a in vec) for vec in self.coeffs)
        )

    def inv(self) -> "AlgValue":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        f = self.field
        dim = f.dim
        cols = []
        for idx in range(dim):
            basis = _basis_value(f, idx)
            cols.append(_flatten(self * basis))
        rhs = [Fraction(0)] * dim
        rhs[0] = Fraction(1)
        sol = _solve_linear([[cols[j][i] for j in range(dim)] for i in range(dim)], rhs)
        if sol is None:
            raise ZeroDivisionError("value is a zero divisor; tower is degenerate")
        return _unflatten(f, sol)

    def __truediv__(self, other: "AlgValue") -> "AlgValue":
        return self * other.inv()

    def __repr__(self):
        return f"AlgValue({render_value(self)})"


def _check_same_field(a: AlgValue, b: AlgValue):
    if a.field != b.field:
        raise AlgebraError("values live in different fields; lift them first")


def _base_mul(f: ValueField, u: BaseVec, v: BaseVec) -> BaseVec:
    deg = f.base_degree
    raw = [Fraction(0)] * (2 * deg - 1)
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in enumerate(v):
            if b == 0:
                continue
            raw[i + j] += a * b
    # reduce theta^k for k >= deg using the monic minimal polynomial
    for k in range(2 * deg - 2, deg - 1, -1):
        c = raw[k]
        if c == 0:
            continue
        raw[k] = Fraction(0)
        for j in range(deg):
            raw[k - deg + j] -= c * f.minpoly[j]
    return tuple(raw[:deg])


def _flatten(v: AlgValue) -> list[Fraction]:
    return [c for vec in v.coeffs for c in vec]


def _unflatten(f: ValueField, flat) -> AlgValue:
    deg = f.base_degree
    return AlgValue(
        f,
        tuple(
            tuple(flat[m * deg + k] for k in range(deg)) for m in range(1 << f.nroots)
        ),
    )


def _basis_value(f: ValueField, idx: int) -> AlgValue:
    flat = [Fraction(0)] * f.dim
    flat[idx] = Fraction(1)
    return _unflatten(f, flat)


def _solve_linear(mat, rhs):
    """Gaussian elimination over Q; returns None for singular systems."""
    n = len(mat)
    m = [row[:] + [r] for row, r in zip(mat, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


# -- constructors ------------------------------------------------------------


def from_rational(f: ValueField, q) -> AlgValue:
    v = _basis_value(f, 0)
    return v.scale(q)


def zero(f: ValueField) -> AlgValue:
    return from_rational(f, 0)


def one(f: ValueField) -> AlgValue:
    return from_rational(f, 1)


def theta(f: ValueField) -> AlgValue:
    if f.base_degree < 2:
        raise AlgebraError("base field is Q; there is no generator")
    return _basis_value(f, 1)


def adjoined_root(f: ValueField, j: int) -> AlgValue:
    deg = f.base_degree
    return _basis_value(f, (1 << j) * deg)


def from_base_vec(f: ValueField, vec: BaseVec) -> AlgValue:
    flat = [Fraction(0)] * f.dim
    for k, c in enumerate(vec):
        flat[k] = c
    return _unflatten(f, flat)


# -- field embeddings ---------------------------------------------------------


def join_fields(f1: ValueField, f2: ValueField) -> ValueField:
    if f1.minpoly != f2.minpoly:
        raise AlgebraError("cannot join towers over different base fields")
    merged = tuple(sorted(set(f1.adjoined) | set(f2.adjoined)))
    return ValueField(f1.minpoly, merged)


def lift(v: AlgValue, target: ValueField) -> AlgValue:
    """Re-express v in a larger tower over the same base."""
    src = v.field
    if src == target:
        return v
    if src.minpoly != target.minpoly:
        raise AlgebraError("cannot lift across different base fields")
    positions = []
    for r in src.adjoined:
        if r not in target.adjoined:
            raise AlgebraError("target tower does not contain the source tower")
        positions.append(target.adjoined.index(r))
    deg = src.base_degree
    flat = [Fraction(0)] * target.dim
    for mask, vec in enumerate(v.coeffs):
        new_mask = 0
        mm = mask
        j = 0
        while mm:
            if mm & 1:
                new_mask |= 1 << positions[j]
            mm >>= 1
            j += 1
        for k, c in enumerate(vec):
            flat[new_mask * deg + k] += c
    return _unflatten(target, flat)


def values_equal(a: AlgValue, b: AlgValue) -> bool:
    if a.field == b.field:
        return a.coeffs == b.coeffs
    f = join_fields(a.field, b.field)
    return lift(a, f).coeffs == lift(b, f).coeffs


# -- square roots -------------------------------------------------------------


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def squarefree_part(q: Fraction) -> tuple[Fraction, int]:
    """Write q = s^2 * f with f a squarefree integer; returns (s, f)."""
    assert q != 0
    m = q.numerator * q.denominator
    sign = -1 if m < 0 else 1
    f = sign
    for p, e in factor_int(abs(m)):
        if e % 2:
            f *= p
    s = _rational_sqrt(q / f)
    assert s is not None and s > 0
    return s, f


def _base_sqrt(f: ValueField, vec: BaseVec) -> BaseVec | None:
    """Exact square root of a base-field element, or None.

    Degree 1 and 2 bases are handled by direct algebra.  Higher-degree bases
    go through a numeric embedding with bounded-denominator reconstruction,
    whose candidates are verified exactly by squaring; a missed square can at
    worst cost a redundant formal generator, never a wrong value.
    """
    deg = f.base_degree
    if all(c == 0 for c in vec):
        return tuple(Fraction(0) for _ in range(deg))
    if deg == 1:
        r = _rational_sqrt(vec[0])
        return None if r is None else (r,)
    if all(c == 0 for c in vec[1:]):
        r = _rational_sqrt(vec[0])
        if r is not None:
            return tuple([r] + [Fraction(0)] * (deg - 1))
        if deg > 2:
            return None
    if deg > 2:
        return _base_sqrt_numeric(f, vec)
    # quadratic base: w = x + y*theta with theta^2 = -c1*theta - c0
    c0, c1 = f.minpoly[0], f.minpoly[1]
    v0, v1 = vec
    # y = 0 branch handled above; otherwise x = (v1 + c1*y^2) / (2y) and
    # (c1^2 - 4c0) u^2 + (2 c1 v1 - 4 v0) u + v1^2 = 0 with u = y^2.
    A = c1 * c1 - 4 * c0
    B = 2 * c1 * v1 - 4 * v0
    C = v1 * v1
    for u in _rational_quadratic_roots(A, B, C):
        if u <= 0:
            continue
        y = _rational_sqrt(u)
        if y is None:
            continue
        for yy in (y, -y):
            x = (v1 + c1 * yy * yy) / (2 * yy)
            cand = (x, yy)
            if _base_mul(f, cand, cand) == tuple(vec):
                return cand
    return None


def _base_sqrt_numeric(f: ValueField, vec: BaseVec) -> BaseVec | None:
    """Square root of a base element by embedding, reconstruction (denominator
    bound 10^6), and exact verification.  Tries every sign pattern for the
    conjugate square roots; a reconstruction that does not square back to the
    input exactly is discarded."""
    import itertools

    deg = f.base_degree
    roots = _poly_roots([float(c) for c in f.minpoly])
    matrix = [[r**k for k in range(deg)] for r in roots]
    embeds = [sum(complex(c) * r**k for k, c in enumerate(vec)) for r in roots]
    sqrts = [cmath.sqrt(v) for v in embeds]
    for signs in itertools.product((1, -1), repeat=deg - 1):
        target = [sqrts[0]] + [s * w for s, w in zip(signs, sqrts[1:])]
        sol = _solve_complex(matrix, target)
        if sol is None:
            continue
        if any(abs(z.imag) > 1e-6 for z in sol):
            continue
        cand = tuple(Fraction(z.real).limit_denominator(10**6) for z in sol)
        if _base_mul(f, cand, cand) == tuple(vec):
            return cand
    return None


def _solve_complex(mat, rhs):
    n = len(mat)
    m = [list(map(complex, row)) + [complex(r)] for row, r in zip(mat, rhs)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[piv][col]) < 1e-12:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def _rational_quadratic_roots(A: Fraction, B: Fraction, C: Fraction) -> list[Fraction]:
    if A == 0:
        return [] if B == 0 else [-C / B]
    disc = B * B - 4 * A * C
    r = _rational_sqrt(disc) if disc >= 0 else None
    if r is None:
        return []
    return sorted({(-B + r) / (2 * A), (-B - r) / (2 * A)})


def sqrt_in_tower(v: AlgValue) -> AlgValue | None:
    """A w in the same tower with w^2 = v, by descent; None if no such w."""
    f = v.field
    if v.is_zero():
        return v
    if f.nroots == 0:
        root_vec = _base_sqrt(f, v.coeffs[0])
        return None if root_vec is None else from_base_vec(f, root_vec)
    sub = f.subfield()
    deg = f.base_degree
    half = 1 << (f.nroots - 1)
    v0 = AlgValue(sub, v.coeffs[:half])
    v1 = AlgValue(sub, v.coeffs[half:])
    r = from_base_vec(sub, f.adjoined[-1])

    def merge(a: AlgValue, b: AlgValue) -> AlgValue:
        return AlgValue(f, a.coeffs + b.coeffs)

    if v1.is_zero():
        w0 = sqrt_in_tower(v0)
        if w0 is not None:
            return merge(w0, zero(sub))
        w1 = sqrt_in_tower(v0 / r)
        if w1 is not None:
            return merge(zero(sub), w1)
        return None
    s = sqrt_in_tower(v0 * v0 - v1 * v1 * r)
    if s is None:
        return None
    for ss in (s, -s):
        a2 = (v0 + ss).scale(Fraction(1, 2))
        a = sqrt_in_tower(a2)
        if a is None or a.is_zero():
            continue
        b = v1 / a.scale(2)
        w = merge(a, b)
        if w * w == v:
            return w
    return None


def sqrt_or_adjoin(v: AlgValue) -> tuple[AlgValue, ValueField]:
    """A square root of v, extending the tower by a formal root if needed.

    The returned root carries the canonical sign (positive under the fixed
    embedding, or positive imaginary part when purely imaginary); callers
    that want the other sign negate it themselves.
    """
    f = v.field
    if v.is_zero():
        return v, f
    w = sqrt_in_tower(v)
    if w is not None:
        return canonical_sign(w), f
    if v.is_rational():
        return _adjoin_rational_sqrt(f, v.rational_value())
    iota = _i_index(f)
    if iota is not None:
        u = v * -adjoined_root(f, iota)  # u = v / i
        if _supported_off_bit(u, iota):
            rval = u.scale(Fraction(1, 2))
            rdown = _drop_bit(rval, iota)
            root_r, f2 = sqrt_or_adjoin(rdown)
            f3 = join_fields(f, f2)
            one_plus_i = one(f3) + adjoined_root(f3, _i_index(f3))
            root = lift(root_r, f3) * one_plus_i
            assert values_equal(root * root, lift(v, f3))
            return canonical_sign(root), f3
    if all(c == 0 for mask, vec in enumerate(v.coeffs) if mask for c in vec):
        # plain base element: adjoin it as a formal generator
        newf = ValueField(f.minpoly, tuple(sorted(set(f.adjoined) | {v.coeffs[0]})))
        root = adjoined_root(newf, newf.adjoined.index(v.coeffs[0]))
        return canonical_sign(root), newf
    w = sqrt_in_tower(-v)
    if w is not None:  # v = (i*w)^2 with i not yet in the tower
        i, f2 = _adjoin_rational_sqrt(f, Fraction(-1))
        return canonical_sign(lift(w, f2) * i), f2
    raise AlgebraError(f"cannot adjoin a square root of {render_value(v)}")


def _adjoin_rational_sqrt(f: ValueField, q: Fraction) -> tuple[AlgValue, ValueField]:
    s, sf = squarefree_part(q)
    iota = _i_index(f)
    if sf < 0 and iota is not None and sf != -1:
        target = Fraction(-sf)  # reuse i rather than adjoining sqrt(-|f|)
    else:
        target = Fraction(sf)
    tvec = _as_base_vec(f.base_degree, target)
    newf = ValueField(f.minpoly, tuple(sorted(set(f.adjoined) | {tvec})))
    root = adjoined_root(newf, newf.adjoined.index(tvec)).scale(s)
    if target != sf:
        root = root * adjoined_root(newf, _i_index(newf))
    return canonical_sign(root), newf


def _i_index(f: ValueField) -> int | None:
    mi = _as_base_vec(f.base_degree, -1)
    return f.adjoined.index(mi) if mi in f.adjoined else None


def _supported_off_bit(v: AlgValue, j: int) -> bool:
    return all(
        all(c == 0 for c in vec)
        for mask, vec in enumerate(v.coeffs)
        if mask & (1 << j)
    )


def _drop_bit(v: AlgValue, j: int) -> AlgValue:
    """Rewrite a value not involving root j in the tower without root j."""
    f = v.field
    sub_adj = tuple(r for k, r in enumerate(f.adjoined) if k != j)
    sub = ValueField(f.minpoly, sub_adj)
    deg = f.base_degree
    flat = [Fraction(0)] * sub.dim
    for mask, vec in enumerate(v.coeffs):
        if mask & (1 << j):
            continue
        new_mask = (mask & ((1 << j) - 1)) | ((mask >> (j + 1)) << j)
        for k, c in enumerate(vec):
            flat[new_mask * deg + k] += c
    return _unflatten(sub, flat)


# -- numeric embedding (sign choices and rendering order only) ---------------


def _poly_roots(coeffs) -> list[complex]:
    """Durand-Kerner roots of a monic polynomial given constant-first."""
    n = len(coeffs) - 1
    if n == 1:
        return [complex(-coeffs[0])]
    roots = [complex(0.4, 0.9) ** k for k in range(n)]
    for _ in range(200):
        moved = 0.0
        for i in range(n):
            num = _poly_eval(coeffs, roots[i])
            den = 1.0 + 0j
            for j in range(n):
                if j != i:
                    den *= roots[i] - roots[j]
            step = num / den
            roots[i] -= step
            moved = max(moved, abs(step))
        if moved < 1e-14:
            break
    return roots


def _poly_eval(coeffs, x: complex) -> complex:
    out = 0j
    for c in reversed(coeffs):
        out = out * x + complex(c)
    return out


@lru_cache(maxsize=None)
def _embedding_data(f: ValueField):
    roots = _poly_roots([float(c) for c in f.minpoly])
    reals = sorted((r.real for r in roots if abs(r.imag) < 1e-9), reverse=True)
    th = complex(reals[0]) if reals else max(roots, key=lambda z: z.imag)
    powers = [th**k for k in range(f.base_degree)]

    def embed_base(vec) -> complex:
        return sum(float(c) * p for c, p in zip(vec, powers))

    radicals = [cmath.sqrt(embed_base(r)) for r in f.adjoined]
    return powers, radicals


def embed(v: AlgValue) -> complex:
    powers, radicals = _embedding_data(v.field)
    out = 0j
    for mask, vec in enumerate(v.coeffs):
        term = sum(float(c) * p for c, p in zip(vec, powers))
        j = 0
        mm = mask
        while mm:
            if mm & 1:
                term *= radicals[j]
            mm >>= 1
            j += 1
        out += term
    return out


def canonical_sign(v: AlgValue) -> AlgValue:
    z = embed(v)
    if z.real < -1e-9 or (abs(z.real) <= 1e-9 and z.imag < 0):
        return -v
    return v


# -- automorphisms ------------------------------------------------------------


@dataclass(frozen=True)
class FieldAutomorphism:
    """Sign flips on the adjoined roots, optionally composed with the
    nontrivial base automorphism (quadratic bases only)."""

    field: ValueField
    sign_mask: int
    conjugate_base: bool

    def is_identity(self) -> bool:
        return self.sign_mask == 0 and not self.conjugate_base

    def apply(self, v: AlgValue) -> AlgValue:
        f = self.field
        if v.field != f:
            raise AlgebraError("automorphism applied to a foreign value")
        out = zero(f)
        deg = f.base_degree
        for mask, vec in enumerate(v.coeffs):
            base = from_base_vec(f, vec)
            if self.conjugate_base:
                base = _conjugate_base(f, vec)
            sign = -1 if bin(mask & self.sign_mask).count("1") % 2 else 1
            term = base.scale(sign) * _basis_value(f, mask * deg)
            out = out + term
        return out

    def describe(self) -> str:
        if self.is_identity():
            return "id"
        parts = []
        if self.conjugate_base:
            parts.append("a -> a'")
        for j in range(self.field.nroots):
            if self.sign_mask & (1 << j):
                name = _root_name(self.field, j)
                parts.append(f"{name} -> -{name}")
        return ", ".join(parts)


def _conjugate_base(f: ValueField, vec: BaseVec) -> AlgValue:
    # theta' = -c1 - theta for a monic quadratic x^2 + c1 x + c0
    assert f.base_degree == 2
    c1 = f.minpoly[1]
    x, y = vec
    return from_base_vec(f, (x - c1 * y, -y))


def automorphisms(f: ValueField) -> list[FieldAutomorphism]:
    """All ring automorphisms of the tower visible to this representation:
    sign flips of the adjoined roots, times the base conjugation when the
    base is quadratic and fixes every adjoined element."""
    base_opts = [False]
    if f.base_degree == 2:
        ok = all(
            _conjugate_base(f, r).coeffs[0] == tuple(r) for r in f.adjoined
        )
        if ok:
            base_opts.append(True)
    out = []
    for conj in base_opts:
        for mask in range(1 << f.nroots):
            out.append(FieldAutomorphism(f, mask, conj))
    return out


# -- symbolic values ----------------------------------------------------------


def _root_name(f: ValueField, j: int) -> str:
    vec = f.adjoined[j]
    if all(c == 0 for c in vec[1:]):
        q = vec[0]
        if q == -1:
            return "i"
        if q.denominator == 1:
            return f"sqrt{q.numerator}" if q > 0 else f"sqrtm{-q.numerator}"
    return f"r{j + 1}"


def field_symbols(f: ValueField) -> dict[str, AlgValue]:
    symbols = {}
    if f.base_degree > 1:
        symbols["a"] = theta(f)
    for j in range(f.nroots):
        symbols[_root_name(f, j)] = adjoined_root(f, j)
    return symbols


class _Parser:
    def __init__(self, text: str, field: ValueField, symbols: dict[str, AlgValue]):
        self.toks = _tokenize(text)
        self.pos = 0
        self.field = field
        self.symbols = symbols

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> AlgValue:
        v = self.expr()
        if self.peek() is not None:
            raise AlgebraError(f"trailing input at token {self.peek()!r}")
        return v

    def expr(self) -> AlgValue:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        v = self.term().scale(sign)
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            v = v + rhs if op == "+" else v - rhs
        return v

    def term(self) -> AlgValue:
        v = self.factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.factor()
            v = v * rhs if op == "*" else v / rhs
        return v

    def factor(self) -> AlgValue:
        if self.peek() == "-":
            self.next()
            return -self.factor()
        v = self.atom()
        if self.peek() == "^":
            self.next()
            e = self.next()
            if not isinstance(e, int) or e < 0:
                raise AlgebraError("exponent must be a nonnegative integer")
            out = one(self.field)
            for _ in range(e):
                out = out * v
            return out
        return v

    def atom(self) -> AlgValue:
        tok = self.next()
        if tok == "(":
            v = self.expr()
            if self.next() != ")":
                raise AlgebraError("unbalanced parentheses")
            return v
        if isinstance(tok, int):
            return from_rational(self.field, tok)
        if isinstance(tok, str) and tok in self.symbols:
            return self.symbols[tok]
        raise AlgebraError(f"unknown token {tok!r}")


def _tokenize(text: str):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            toks.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(int(text[i:j]))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(text[i:j])
            i = j
        else:
            raise AlgebraError(f"bad character {ch!r} in value expression")
    return toks


def parse_value(f: ValueField, text: str, symbols: dict[str, AlgValue] | None = None) -> AlgValue:
    syms = dict(field_symbols(f))
    if symbols:
        syms.update(symbols)
    return _Parser(str(text), f, syms).parse()


def render_value(v: AlgValue) -> str:
    f = v.field
    terms = []
    for mask, vec in enumerate(v.coeffs):
        for k, c in enumerate(vec):
            if c == 0:
                continue
            names = []
            if k == 1:
                names.append("a")
            elif k > 1:
                names.append(f"a^{k}")
            for j in range(f.nroots):
                if mask & (1 << j):
                    names.append(_root_name(f, j))
            if not names:
                terms.append((str(c), c < 0))
            elif abs(c) == 1:
                s = "*".join(names)
                terms.append((s if c > 0 else f"-{s}", c < 0))
            else:
                terms.append((f"{c}*" + "*".join(names), c < 0))
    if not terms:
        return "0"
    out = terms[0][0]
    for text, _neg in terms[1:]:
        out += f" - {text[1:]}" if text.startswith("-") else f" + {text}"
    return out
