import random
from operator import attrgetter

import pytest

from iqhecke import quadfield
from iqhecke.quadfield import (
    Ideal,
    QuadFieldError,
    SplittingRecord,
    coprime,
    divisors,
    exact_prime_power_divisors,
    factor_ideal,
    factor_int,
    factor_rational_prime,
    ideal_add,
    ideal_div_exact,
    ideal_from_gens,
    ideal_from_label,
    ideal_mul,
    ideal_pow,
    ideals_of_norm,
    is_exact_divisor,
    is_prime_ideal,
    is_rational_prime,
    label,
    label_key,
    make_field,
    primes_of_norm_up_to,
    principal_ideal,
    sigma0,
    sigma0_quotient,
    unit_ideal,
)


def test_make_field_examples():
    assert make_field(17).disc == -68
    assert make_field(1).disc == -4
    assert make_field(5).disc == -20
    assert make_field(3).disc == -3 and make_field(3).half


def test_make_field_disc_is_bruteforce_discriminant():
    # the ramified primes, found by counting roots of the minimal polynomial
    # of omega mod p, are exactly the primes dividing the discriminant
    for d in (1, 2, 5, 17, 21, 23):
        K = make_field(d)
        ramified = [p for p in range(2, 200)
                    if is_rational_prime(p) and factor_rational_prime(K, p).kind == "ramified"]
        assert ramified == [p for p in range(2, 200) if is_rational_prime(p) and K.disc % p == 0]


def test_make_field_rejects_bad_d():
    for bad in (0, -3, 12, 45):
        with pytest.raises(QuadFieldError):
            make_field(bad)
    for d in range(1, 200):
        squarefree = all(d % (k * k) for k in range(2, d + 1))
        try:
            make_field(d)
            accepted = True
        except QuadFieldError:
            accepted = False
        assert accepted == squarefree, d


def test_ideal_mul_examples(K17):
    p31 = ideal_from_label(K17, "3.1")
    p32 = ideal_from_label(K17, "3.2")
    assert ideal_mul(p31, p32) == principal_ideal(K17, 3, 0)
    assert ideal_mul(p31, unit_ideal(K17)) == p31
    p21 = ideal_from_label(K17, "2.1")
    assert ideal_mul(p21, p21) == principal_ideal(K17, 2, 0)


def test_ideal_mul_random_properties(K17):
    rng = random.Random(2)
    pool = [i for n in range(1, 40) for i in ideals_of_norm(K17, n)]
    for _ in range(40):
        a, b, c = (rng.choice(pool) for _ in range(3))
        ab = ideal_mul(a, b)
        assert ab.norm == a.norm * b.norm
        assert ab == ideal_mul(b, a)
        assert ideal_mul(ab, c) == ideal_mul(a, ideal_mul(b, c))


@pytest.mark.parametrize("d", [1, 2, 5, 17, 21, 23, 65, 105, 89])
def test_ideal_mul_agrees_with_the_ideal_generated_by_the_products(d):
    K = make_field(d)
    t, n = K.trace_omega, K.norm_omega
    rng = random.Random(d)
    pool = [i for norm in range(1, 60) for i in ideals_of_norm(K, norm)]
    for _ in range(100):
        i, j = rng.choice(pool), rng.choice(pool)
        prods = [(x1 * x2 - n * y1 * y2, x1 * y2 + x2 * y1 + t * y1 * y2)
                 for x1, y1 in ((i.a, 0), (i.b, i.c)) for x2, y2 in ((j.a, 0), (j.b, j.c))]
        assert ideal_mul(i, j) == ideal_from_gens(K, prods)


def test_ideal_from_gens_rejects_the_zero_module(K17):
    for gens in ([], [(0, 0)], [(0, 0), (0, 0)]):
        with pytest.raises(QuadFieldError, match="zero module"):
            ideal_from_gens(K17, gens)


def test_prime_splitting_examples(K17):
    rec3 = factor_rational_prime(K17, 3)
    assert rec3.kind == "split"
    # the published generators <3, 4+w> and <3, 2+w>
    assert ideal_from_gens(K17, [(3, 0), (4, 1)]) == rec3.primes[0]
    assert ideal_from_gens(K17, [(3, 0), (2, 1)]) == rec3.primes[1]
    rec5 = factor_rational_prime(K17, 5)
    assert rec5.kind == "inert" and rec5.primes[0].norm == 25
    rec2 = factor_rational_prime(K17, 2)
    assert rec2.kind == "ramified"
    assert rec2.primes[0] == ideal_from_gens(K17, [(2, 0), (1, 1)])


def test_prime_splitting_products(K17):
    for p in range(2, 1000):
        if not is_rational_prime(p):
            continue
        rec = factor_rational_prime(K17, p)
        prod = unit_ideal(K17)
        for q in rec.primes * (2 if rec.kind == "ramified" else 1):
            prod = ideal_mul(prod, q)
        assert prod == principal_ideal(K17, p, 0)
    sieve = [False, False] + [True] * 1998
    for n in range(2, 2000):
        if sieve[n]:
            sieve[n * n :: n] = [False] * len(sieve[n * n :: n])
    assert [is_rational_prime(n) for n in range(2000)] == sieve


def test_factor_rational_prime_rejects_composite(K17):
    with pytest.raises(QuadFieldError):
        factor_rational_prime(K17, 6)


def test_factor_ideal_examples(K17):
    eight = principal_ideal(K17, 8, 0)
    p21 = ideal_from_label(K17, "2.1")
    assert factor_ideal(eight) == ((p21, 6),)
    p31 = ideal_from_label(K17, "3.1")
    assert factor_ideal(p31) == ((p31, 1),)
    n12 = ideal_from_label(K17, "12.1")
    assert factor_ideal(n12) == ((p21, 2), (p31, 1))


FACTOR_FIELDS = (17, 1, 2, 3, 5, 14, 65, 105)  # inert, ramified, content > 1


def power_by_products(p, e):
    """p^e as e products from the unit ideal: the reference for ideal_pow."""
    out = unit_ideal(p.field)
    for _ in range(e):
        out = ideal_mul(out, p)
    return out


def test_factor_ideal_recombines_exhaustively():
    # factor_ideal checks norms and containment, not the product; the
    # product is the reference here
    quadfield.factor_ideal.cache_clear()
    for K in map(make_field, FACTOR_FIELDS):
        for n in range(1, 501):
            for i in ideals_of_norm(K, n):
                product = unit_ideal(K)
                for p, e in factor_ideal(i):
                    product = ideal_mul(product, power_by_products(p, e))
                assert product == i, (K, i)


def test_factor_ideal_recombination_is_checked(K17, monkeypatch):
    # with only the first prime above 3, the factors of (3) recombine to 3.1
    three = ideal_from_label(K17, "9.2")
    real = quadfield.primes_above
    monkeypatch.setattr(quadfield, "primes_above", lambda field, p: real(field, p)[:1])
    quadfield.factor_ideal.cache_clear()
    with pytest.raises(QuadFieldError, match="recombine"):
        factor_ideal(three)


def test_factor_ideal_containment_is_checked(K17, monkeypatch):
    # split 3 read as ramified with one prime: (3) gets 3.1^2, which has the
    # norm of (3) but does not contain it
    three = ideal_from_label(K17, "9.2")
    real = quadfield.factor_rational_prime
    monkeypatch.setattr(quadfield, "factor_rational_prime",
                        lambda field, p: SplittingRecord("ramified", real(field, p).primes[:1]))
    quadfield.factor_ideal.cache_clear()
    with pytest.raises(QuadFieldError, match="recombine"):
        factor_ideal(three)


def test_factor_ideal_recombination_is_checked_under_optimize(run_optimized):
    code = (
        "from iqhecke import quadfield as q; three = q.ideal_from_label(q.make_field(17), '9.2');"
        "real = q.primes_above; q.primes_above = lambda field, p: real(field, p)[:1];"
        "q.factor_ideal.cache_clear(); q.factor_ideal(three)"
    )
    last = run_optimized(code).stderr.strip().splitlines()[-1]
    assert last.startswith("iqhecke.quadfield.QuadFieldError") and "recombine" in last


def test_factor_ideal_is_one_memoised_tuple(K17):
    # callers share the memo's answer, which immutability keeps intact
    n12 = ideal_from_label(K17, "12.1")
    assert factor_ideal(n12) is factor_ideal(n12)
    assert isinstance(factor_ideal(n12), tuple)
    assert all(isinstance(f, tuple) for f in factor_ideal(n12))


def test_divisor_lattice(K17):
    eight = principal_ideal(K17, 8, 0)
    assert sigma0(eight) == 7
    assert sigma0(unit_ideal(K17)) == 1
    for K in (K17, make_field(1), make_field(5)):
        assert exact_prime_power_divisors(unit_ideal(K)) == ()
    n12 = ideal_from_label(K17, "12.1")
    got = {label(q) for q in divisors(n12) if is_exact_divisor(q, n12)}
    assert got == {"1.1", "4.1", "3.1", "12.1"}
    assert len(divisors(n12)) == sigma0(n12) == 6
    for n in (i for norm in range(1, 101) for i in ideals_of_norm(K17, norm)):
        for m in divisors(n):
            assert ideal_mul(ideal_div_exact(n, m), m) == n
    with pytest.raises(QuadFieldError, match="does not divide"):
        ideal_div_exact(ideal_from_label(K17, "3.1"), ideal_from_label(K17, "3.2"))


def test_exact_prime_power_divisors_are_one_memoised_tuple(K17):
    # callers share the memo's answer, which immutability keeps intact
    n12 = ideal_from_label(K17, "12.1")
    first = exact_prime_power_divisors(n12)
    assert isinstance(first, tuple)
    assert [label(q) for q in first] == ["4.1", "3.1"]
    assert exact_prime_power_divisors(n12) is first


def test_divisors_match_the_product_lattice():
    # divisors reads the label enumeration; the lattice of products of prime
    # powers, sorted into label order, is the reference
    for K in map(make_field, FACTOR_FIELDS):
        for n in range(1, 301):
            for i in ideals_of_norm(K, n):
                lattice = [unit_ideal(K)]
                for p, e in factor_ideal(i):
                    lattice = [ideal_mul(d, power_by_products(p, k))
                               for d in lattice for k in range(e + 1)]
                assert divisors(i) == sorted(lattice, key=label_key), (K, i)


def test_exact_divisors_match_the_block_products():
    # the reference: every product of whole prime-power blocks of n
    for K in map(make_field, (17, 65, 105)):
        for n in range(1, 201):
            for i in ideals_of_norm(K, n):
                blocks = [unit_ideal(K)]
                for p, e in factor_ideal(i):
                    pe = power_by_products(p, e)
                    blocks += [ideal_mul(d, pe) for d in blocks]
                got = [q for q in divisors(i) if is_exact_divisor(q, i)]
                assert got == sorted(blocks, key=label_key), (K, i)


def test_galois_conjugate(K17):
    p31 = ideal_from_label(K17, "3.1")
    p32 = ideal_from_label(K17, "3.2")
    assert p31.conjugate() == p32
    five = principal_ideal(K17, 5, 0)
    assert five.conjugate() == five
    assert ideal_from_label(K17, "7.1").conjugate() == ideal_from_label(K17, "7.2")
    rng = random.Random(3)
    pool = [i for n in range(1, 60) for i in ideals_of_norm(K17, n)]
    for _ in range(40):
        a, b = rng.choice(pool), rng.choice(pool)
        assert a.conjugate().conjugate() == a
        assert ideal_mul(a, b).conjugate() == ideal_mul(a.conjugate(), b.conjugate())


def test_labels_match_published_conventions(K17):
    assert label(ideal_from_gens(K17, [(2, 0), (1, 1)])) == "2.1"
    assert label(principal_ideal(K17, 5, 0)) == "25.1"
    assert label(principal_ideal(K17, 3, 0)) == "9.2"
    assert label(principal_ideal(K17, 4, 0)) == "16.1"
    assert label(principal_ideal(K17, 8, 0)) == "64.1"
    assert label(ideal_from_gens(K17, [(3, 0), (4, 1)])) == "3.1"
    assert label(ideal_from_gens(K17, [(3, 0), (2, 1)])) == "3.2"


def test_label_bijection_up_to_500(K17):
    for n in range(1, 501):
        ordered = ideals_of_norm(K17, n)
        labels = [label(i) for i in ordered]
        assert labels == [f"{n}.{k + 1}" for k in range(len(ordered))]
        for lab, ideal in zip(labels, ordered):
            assert ideal_from_label(K17, lab) == ideal


def test_default_hnf_label_order_other_field():
    K = make_field(5)
    for n in range(1, 100):
        ordered = ideals_of_norm(K, n)
        assert list(ordered) == sorted(ordered, key=lambda i: (i.a, i.c, i.b))


def test_ideal_serialization(K17):
    p31 = ideal_from_label(K17, "3.1")
    assert (p31.norm, p31.a, p31.b, p31.c) == (3, 3, 1, 1)
    assert ideal_from_gens(K17, [(3, 0), (4, 1)]) == p31


def test_ideal_pow_and_prime_predicates(K17):
    p21 = ideal_from_label(K17, "2.1")
    assert ideal_pow(p21, 6) == principal_ideal(K17, 8, 0)
    assert is_prime_ideal(p21)
    assert is_prime_ideal(principal_ideal(K17, 5, 0))
    assert not is_prime_ideal(principal_ideal(K17, 3, 0))
    assert coprime(ideal_from_label(K17, "3.1"), ideal_from_label(K17, "3.2"))
    assert not coprime(p21, principal_ideal(K17, 8, 0))


def test_ideal_pow_matches_repeated_products(monkeypatch):
    primes = [(K, p) for K in map(make_field, (5, 17, 105)) for n in range(1, 51)
              for p in ideals_of_norm(K, n) if is_prime_ideal(p)]
    expected = {(p, e): power_by_products(p, e) for _, p in primes for e in range(7)}
    operands = []

    def counted(i, j):
        operands.append((i, j))
        return ideal_mul(i, j)

    monkeypatch.setattr(quadfield, "ideal_mul", counted)
    ideal_pow.cache_clear()  # a memo hit forms no product
    for K, p in primes:
        assert ideal_pow(p, 0) == unit_ideal(K)
        assert ideal_pow(p, 1) is p
        for e in range(7):
            assert ideal_pow(p, e) == expected[p, e], (K, p, e)
    # square-and-multiply starts from the first factor, never from (1)
    assert operands and not any(i.is_unit() or j.is_unit() for i, j in operands)


SWEEP_FIELDS = (1, 5, 23, 17, 21, 14, 65, 105)


def test_primes_of_norm_up_to_is_one_memoised_tuple(K17):
    assert primes_of_norm_up_to(K17, 60) is primes_of_norm_up_to(K17, 60)
    assert isinstance(primes_of_norm_up_to(K17, 60), tuple)


@pytest.mark.parametrize("d", SWEEP_FIELDS)
def test_primes_of_norm_up_to_matches_brute_force(d):
    K = make_field(d)
    primes = [i for n in range(1, 201) for i in ideals_of_norm(K, n) if is_prime_ideal(i)]
    for bound in range(201):
        assert primes_of_norm_up_to(K, bound) == tuple(p for p in primes if p.norm <= bound)


def test_coprime_agrees_with_the_sum_ideal():
    # ramified 2 (d = 1, 2, 5, 14, 17, 21, 65, 105), ramified odd primes, inert
    # primes and prime powers; the sum ideal is the definition of both
    # coprimality (I + J = (1)) and containment (I + J = I)
    for d in (1, 2, 5, 14, 17, 21, 23, 65, 105):
        K = make_field(d)
        ideals = [i for n in range(1, 61) for i in ideals_of_norm(K, n)]
        for i in ideals:
            for j in ideals:
                total = ideal_add(i, j)
                assert coprime(i, j) == total.is_unit(), (d, i, j)
                assert i.contains_ideal(j) == (total == i), (d, i, j)


def test_sigma0_quotient_is_sigma0_of_the_quotient():
    for d in (1, 5, 17, 105):
        K = make_field(d)
        for n in (i for norm in range(1, 101) for i in ideals_of_norm(K, norm)):
            for m in divisors(n):
                assert sigma0_quotient(n, m) == sigma0(ideal_div_exact(n, m)), (d, n, m)
    K17 = make_field(17)
    with pytest.raises(QuadFieldError, match="does not divide"):
        sigma0_quotient(ideal_from_label(K17, "3.1"), ideal_from_label(K17, "3.2"))


def _equal_ideals_by_several_routes(K):
    """(ideal in label order, the same ideal built another way) over K."""
    out = []
    for n in range(1, 41):
        for i in ideals_of_norm(K, n):
            product = unit_ideal(K)
            for p, e in factor_ideal(i):
                product = ideal_mul(product, ideal_pow(p, e))
            out += [(i, ideal_from_gens(K, [(i.a, 0), (i.b, i.c)])),
                    (i, i.conjugate().conjugate()), (i, product)]
    return out


def test_ideal_hash_and_equality_contract():
    K5, K17 = make_field(5), make_field(17)
    for K in (K5, K17, make_field(2)):
        pairs = _equal_ideals_by_several_routes(K)
        assert pairs and all(i == j and hash(i) == hash(j) for i, j in pairs)
        # products in both orders, and a product against its label
        ideals = [i for n in range(1, 21) for i in ideals_of_norm(K, n)]
        for i in ideals:
            for j in ideals:
                ij, ji = ideal_mul(i, j), ideal_mul(j, i)
                assert ij == ji and hash(ij) == hash(ji)
                assert ij in ideals_of_norm(K, ij.norm)
                assert hash(ideal_from_label(K, label(ij))) == hash(ij)
    # the same triple over two fields: neither equal nor of equal hash, so
    # memos shared across fields never compare the two
    one5, one17 = unit_ideal(K5), unit_ideal(K17)
    assert one5 != one17 and len({one5, one17}) == 2
    p2_5, p2_17 = ideal_from_label(K5, "2.1"), ideal_from_label(K17, "2.1")
    assert (p2_5.a, p2_5.b, p2_5.c) == (p2_17.a, p2_17.b, p2_17.c) and p2_5 != p2_17
    assert hash(p2_5) != hash(p2_17)
    # ideals have no order of their own, and they are hashable keys
    ideals = [i for n in range(1, 61) for i in ideals_of_norm(K17, n)]
    shuffled = random.Random(0).sample(ideals, len(ideals))
    triple = attrgetter("a", "b", "c")
    assert sorted(shuffled, key=triple) == sorted(ideals, key=triple)
    with pytest.raises(TypeError):
        one17 < p2_17
    index = {i: k for k, i in enumerate(shuffled)}
    assert all(index[ideal_from_gens(K17, [(i.a, 0), (i.b, i.c)])] == k
               for k, i in enumerate(shuffled))
    assert not hasattr(one17, "__dict__")


def test_ideal_norm_is_stored_and_read_only(K17):
    ideals = [i for n in range(1, 61) for i in ideals_of_norm(K17, n)]
    assert all(i.norm == i.a * i.c for i in ideals)
    i = ideal_from_label(K17, "6.1")
    with pytest.raises(AttributeError):
        i.norm = 7
    assert "norm" not in repr(i)


def test_ideal_hash_and_equality_contract_under_optimize(run_optimized):
    code = (
        "from iqhecke import quadfield as q\n"
        "K = q.make_field(17)\n"
        "p, c = q.ideal_from_label(K, '2.1'), q.ideal_from_label(K, '3.1')\n"
        "routes = (q.ideal_mul(p, c), q.ideal_mul(c, p), q.ideal_from_label(K, '6.1'),\n"
        "          q.ideal_from_gens(K, [(6, 0), (1, 1)]), q.ideal_mul(p, c).conjugate().conjugate())\n"
        "print(len(set(routes)), len({hash(i) for i in routes}),\n"
        "      q.unit_ideal(K) == q.unit_ideal(q.make_field(5)))"
    )
    assert run_optimized(code).stdout.split() == ["1", "1", "False"]


def test_checks_raise_quadfield_error(K17, monkeypatch):
    p21 = ideal_from_label(K17, "2.1")
    K5 = make_field(5)
    for call in (
        lambda: factor_int(0),
        lambda: factor_int(-12),
        lambda: ideal_pow(p21, -1),
        lambda: ideal_add(p21, ideal_from_label(K5, "2.1")),
        lambda: ideal_mul(p21, ideal_from_label(K5, "2.1")),
        lambda: coprime(p21, ideal_from_label(K5, "3.1")),  # norms are coprime
    ):
        with pytest.raises(QuadFieldError):
            call()
    monkeypatch.setattr(quadfield, "_hnf_from_rows", lambda field, rows: unit_ideal(field))
    with pytest.raises(QuadFieldError, match="has norm"):
        ideal_mul(p21, p21)


def test_checks_raise_typed_errors_under_optimize(run_optimized):
    code = (
        "from fractions import Fraction\n"
        "from iqhecke import algext, characters, classgroup, quadfield as q, verify\n"
        "p = q.ideal_from_label(q.make_field(17), '2.1')\n"
        "Q = algext.RATIONAL_FIELD\n"
        "calls = (lambda: q.factor_int(0), lambda: q.ideal_pow(p, -1),\n"
        "         lambda: q.Ideal(p.field, 5, 1, 1),\n"
        "         lambda: algext.squarefree_part(Fraction(0)), lambda: Q.subfield(),\n"
        "         lambda: algext.FieldAutomorphism(Q, 0, True),\n"
        "         lambda: characters.RootOfUnity.make(1, 0),\n"
        "         lambda: verify._chi2(classgroup.compute_class_group(q.make_field(21))))\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__)\n"
    )
    assert run_optimized(code).stdout.split() == [
        "QuadFieldError", "QuadFieldError", "QuadFieldError", "AlgebraError", "AlgebraError",
        "AlgebraError", "ValueError", "CheckFailure",
    ]


def test_hnf_invariants_enforced(K17):
    with pytest.raises(QuadFieldError):
        Ideal(K17, 3, 4, 1)  # b >= a
    with pytest.raises(QuadFieldError):
        Ideal(K17, 4, 1, 2)  # c does not divide b
    with pytest.raises(QuadFieldError, match="omega-closed"):
        Ideal(K17, 5, 1, 1)  # 5 does not divide N(1 + omega) = 18


@pytest.mark.parametrize("lab", ["03.1", "3.01", "+3.1", " 3.1", "3.1 ", "\u0663.1", "1_3.1"])
def test_ideal_from_label_reads_only_the_written_spelling(K17, lab):
    # each is an alias of a label of K17 that int() would accept
    assert label(ideal_from_label(K17, "3.1")) == "3.1"
    with pytest.raises(QuadFieldError, match="bad ideal label"):
        ideal_from_label(K17, lab)
