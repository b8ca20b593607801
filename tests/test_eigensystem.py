import random
from collections import Counter
from itertools import combinations_with_replacement

import pytest

from iqhecke import algext, eigensystem
from iqhecke.algext import lift, parse_value, values_equal
from iqhecke.bundle import eigensystem_from_json, eigensystem_to_json
from iqhecke.characters import (
    RootOfUnity,
    character_group,
    character_kernel,
    character_order,
    eval_on_class,
    order_two_characters,
)
from iqhecke.classgroup import IdealClass, compute_class_group
from iqhecke.eigensystem import (
    EigensystemError,
    HeckeFieldReport,
    _principal_twists,
    _span_dimension,
    base_change_candidate,
    character_field,
    character_values,
    chi_value,
    coefficient,
    euler_factor_coefficients,
    galois_conjugate_system,
    hecke_field_report,
    inner_twist_pairs,
    make_eigensystem,
    prime_power_coefficients,
    root_of_unity_value,
    selftwist_status,
    support_subgroup,
    systems_equal,
    twist,
    twist_orbit,
)
from iqhecke.quadfield import (
    coprime,
    factor_ideal,
    ideal_from_label,
    ideal_mul,
    ideals_of_norm,
    label,
    make_field,
    primes_of_norm_up_to,
    unit_ideal,
)
from iqhecke.verify import random_eigensystem
from reference_search import subgroup_closure


@pytest.fixture(scope="module")
def F0(bundle):
    return bundle.system("2.1", "F0")


def test_coefficient_examples(F0, K17):
    p31 = ideal_from_label(K17, "3.1")
    v = coefficient(F0, ideal_mul(p31, p31))
    assert values_equal(v, algext.from_rational(F0.vfield, 5))
    assert values_equal(coefficient(F0, unit_ideal(K17)), algext.one(F0.vfield))
    p131 = ideal_from_label(K17, "13.1")
    v2 = coefficient(F0, ideal_mul(p31, p131))
    assert values_equal(v2, parse_value(F0.vfield, "-4*sqrt2"))


def test_coefficient_missing_prime_reported(F0, K17):
    with pytest.raises(EigensystemError, match="missing eigenvalue") as err:
        coefficient(F0, ideal_from_label(K17, "53.1"))
    assert "53.1" in str(err.value)


def test_coefficient_reads_stored_primes_directly(F0, K17):
    # a stored prime's coefficient is its stored value, the unit ideal's is
    # one, a product's is the product of the Euler-factor coefficients, and a
    # prime the system does not store is an error
    for p, v in F0.alpha:
        assert coefficient(F0, p) is v
    assert coefficient(F0, unit_ideal(K17)) == algext.one(F0.vfield)
    p31, p131 = ideal_from_label(K17, "3.1"), ideal_from_label(K17, "13.1")
    a = ideal_mul(ideal_mul(p31, p31), p131)
    want = euler_factor_coefficients(F0, p31, 2)[2] * euler_factor_coefficients(F0, p131, 1)[1]
    assert coefficient(F0, a) == want
    # through each reader, with one wording
    unstored = next(q for q in primes_of_norm_up_to(K17, 200) if q not in F0.alpha_map())
    for read in (lambda q: coefficient(F0, q), lambda q: prime_power_coefficients(F0, q, 2),
                 lambda q: euler_factor_coefficients(F0, q, 2)):
        with pytest.raises(EigensystemError, match=f"missing eigenvalue at prime {label(unstored)}"):
            read(unstored)


def test_coefficient_memo_is_not_exposed(K17):
    # a fresh system, so that the memo starts empty and is grown by the calls below
    g = compute_class_group(K17)
    F = _random_system(g, 3, 60)
    p = F.stored_primes()[0]
    p3 = ideal_mul(ideal_mul(p, p), p)
    before = [coefficient(F, p), coefficient(F, p3)]
    values = prime_power_coefficients(F, p, 4)
    values[1], values[3] = algext.zero(F.vfield), algext.zero(F.vfield)
    values.append(algext.one(F.vfield))
    assert _same([coefficient(F, p), coefficient(F, p3)], before)
    assert len(prime_power_coefficients(F, p, 2)) == 3
    # a prime with no stored eigenvalue fails before and after the memo is warm
    unstored = next(q for q in primes_of_norm_up_to(K17, 200) if q not in F.alpha_map())
    for a in (unstored, ideal_mul(p, unstored)):
        with pytest.raises(EigensystemError, match="missing eigenvalue"):
            coefficient(F, a)


def test_recursion_matches_euler_factor_oracle(bundle):
    for level, table in bundle.eigensystem_tables.items():
        for F in table.values():
            for p in F.stored_primes():
                rec = prime_power_coefficients(F, p, 4)
                eul = euler_factor_coefficients(F, p, 4)
                assert all(values_equal(a, b) for a, b in zip(rec, eul))


def _random_system(g, seed, bound):
    """random_eigensystem with eigenvalues added at the primes dividing the
    level, so that every ideal of norm <= bound has a coefficient."""
    F = random_eigensystem(g, random.Random(seed), bound)
    primes = primes_of_norm_up_to(g.field, bound)
    bad = {p: algext.from_rational(F.vfield, p.norm % 5 - 2) for p in primes}
    al = dict(F.al_signs) if F.al_signs is not None else None
    return make_eigensystem(g, F.level, F.character, bad | F.alpha_map(), al, vfield=F.vfield)


def _table(F, bound):
    K = F.group.field
    return [coefficient(F, a) for n in range(1, bound + 1) for a in ideals_of_norm(K, n)]


def _euler_table(F, bound):
    """_table from the brute-force Euler factors, which read no memo."""
    out = []
    for n in range(1, bound + 1):
        for a in ideals_of_norm(F.group.field, n):
            v = algext.one(F.vfield)
            for p, e in factor_ideal(a):
                v = v * euler_factor_coefficients(F, p, e)[e]
            out.append(v)
    return out


def _same(values, others):
    return len(values) == len(others) and all(map(values_equal, values, others))


@pytest.mark.parametrize("d", [1, 5, 23, 17, 21, 14, 65, 105])
def test_memoised_coefficients_match_euler_factors(d):
    # one system per field plus its twists by every character of order 3 or 4
    g = compute_class_group(make_field(d))
    F = _random_system(g, d, 200)
    systems = [F] + [
        twist(F, psi) for psi in character_group(g) if character_order(g, psi) in (3, 4)
    ]
    assert len(systems) > 1 or d in (1, 5, 21, 105)
    for G in systems:
        assert _same(_table(G, 200), _euler_table(G, 200))


def test_memo_does_not_leak_between_systems():
    g = compute_class_group(make_field(65))
    warm, fresh = _random_system(g, 7, 120), _random_system(g, 7, 120)
    blob = eigensystem_to_json(fresh)
    _table(warm, 120)
    assert warm == fresh and hash(warm) == hash(fresh) and repr(warm) == repr(fresh)
    assert eigensystem_to_json(warm) == blob
    derived = [lambda F, psi=psi: twist(F, psi) for psi in character_group(g)]
    for make in derived + [galois_conjugate_system]:
        assert _same(_table(make(warm), 120), _euler_table(make(_random_system(g, 7, 120)), 120))


def test_span_dimension_examples():
    f = algext.make_value_field(adjoined=[-1, 3])
    i, sqrt3 = parse_value(f, "i"), parse_value(f, "sqrt3")
    assert _span_dimension([], f) == 1
    assert _span_dimension([i * sqrt3], f) == 2
    assert _span_dimension([i, sqrt3], f) == 4
    assert _span_dimension([i + sqrt3], f) == 4  # needs 1, x, x^2 and x^3
    assert _span_dimension([sqrt3, parse_value(f, "1 + 2*sqrt3"), i * sqrt3, i], f) == 4


def test_span_dimension_stops_reading_once_the_span_fills_the_field():
    f = algext.make_value_field(adjoined=[-1, 3])

    def values(*texts):
        yield from (parse_value(f, t) for t in texts)
        raise AssertionError("read past a span that fills the field or reaches the bound")

    assert _span_dimension(values("sqrt3", "i"), f) == 4
    assert _span_dimension(values("2", "i + sqrt3"), f) == 4
    assert _span_dimension(values(), algext.RATIONAL_FIELD) == 1
    assert _span_dimension(values("2", "i*sqrt3"), f, 2) == 2


def test_twist_examples(bundle, F0, K17):
    chi1 = IdealClass((1,))
    F1 = twist(F0, chi1)
    p31 = ideal_from_label(K17, "3.1")
    assert values_equal(F1.alpha_map()[p31], parse_value(F1.vfield, "2*sqrt2*i"))
    assert systems_equal(F1, bundle.system("2.1", "F1"))
    assert systems_equal(twist(F0, IdealClass((0,))), F0)
    F2 = twist(twist(F0, chi1), chi1)
    assert systems_equal(F2, twist(F0, IdealClass((2,))))
    p231 = ideal_from_label(K17, "23.1")
    assert values_equal(F0.alpha_map()[p231], parse_value(F0.vfield, "-4*sqrt2"))
    assert values_equal(F2.alpha_map()[p231], parse_value(F2.vfield, "4*sqrt2"))


def test_twist_composition_property(bundle, G17):
    F0 = bundle.system("2.1", "F0")
    for psi in character_group(G17):
        for psi2 in character_group(G17):
            lhs = twist(twist(F0, psi), psi2)
            rhs = twist(F0, G17.mul(psi, psi2))
            assert systems_equal(lhs, rhs)


def test_twist_orbit_sizes(bundle, F0):
    assert len(twist_orbit(F0)) == 4
    assert len(twist_orbit(bundle.system("64.1", "selftwist"))) == 2
    # class number 1: a one-element orbit
    g = compute_class_group(make_field(1))
    alpha = {
        p: algext.from_rational(algext.RATIONAL_FIELD, 1 + p.norm % 5)
        for p in primes_of_norm_up_to(g.field, 60)
    }
    F = make_eigensystem(
        g, unit_ideal(g.field), IdealClass(()), alpha, {}, algext.RATIONAL_FIELD
    )
    assert len(twist_orbit(F)) == 1


def _pairwise_orbit(F):
    """The earlier twist_orbit, kept as the oracle: every twist is built, and
    one equal to an earlier kept twist (systems_equal) is left out."""
    out = []
    for psi in character_group(F.group):
        G = twist(F, psi)
        if not any(systems_equal(G, H) for H in out):
            out.append(G)
    return out


def _twist_through_make_eigensystem(F, psi):
    """The earlier twist, kept as the oracle: each value lifted and multiplied
    by psi(p), then normalised, lifted and sorted again by make_eigensystem."""
    g = F.group
    f = character_field(F.vfield, g, psi)
    values = character_values(f, g, psi)
    alpha = {p: lift(v, f) * values[g.ideal_class(p)] for p, v in F.alpha}
    al = None
    if F.al_signs is not None and character_order(g, psi) <= 2:
        al = {q: s * eval_on_class(g, psi, g.ideal_class(q)).as_sign() for q, s in F.al_signs}
    return make_eigensystem(g, F.level, g.mul(F.character, g.power(psi, 2)), alpha, al, f,
                            F.selftwist_candidates)


@pytest.mark.parametrize("d", [1, 5, 23, 17, 21, 14, 65, 105])
def test_twists_and_orbits_match_the_pairwise_oracles(d):
    g = compute_class_group(make_field(d))
    F = _random_system(g, d, 100)
    systems = [F] + [twist(F, psi) for psi in character_group(g)]
    for G in systems:
        for psi in character_group(g):
            assert twist(G, psi) == _twist_through_make_eigensystem(G, psi)
        # the same members in the same order, towers included (records compare vfield)
        assert twist_orbit(G) == _pairwise_orbit(G)


@pytest.mark.parametrize("d", [1, 5, 23, 17, 21, 14, 65, 105])
def test_twist_is_psi_times_alpha_one_prime_at_a_time(d):
    g = compute_class_group(make_field(d))
    Q = algext.RATIONAL_FIELD
    QS2 = algext.with_radical(Q, 2)
    sqrt2 = parse_value(QS2, "sqrt2")
    primes = primes_of_norm_up_to(g.field, 60)
    values = {
        Q: {p: algext.from_rational(Q, p.norm % 7 - 3) for p in primes},
        QS2: {p: algext.from_rational(QS2, p.norm % 5 - 2) + sqrt2.scale(p.norm % 3 - 1)
              for p in primes},
    }
    orders = {character_order(g, psi) for psi in character_group(g)}
    for f, alpha in values.items():
        F = make_eigensystem(g, unit_ideal(g.field), g.identity(), alpha, None, f)
        negating = set()  # the towers of the twists by a psi that is -1 on some class
        for psi in character_group(g):
            G = twist(F, psi)
            z = character_values(G.vfield, g, psi)
            assert G.stored_primes() == F.stored_primes()
            for p, w in G.alpha:
                assert w == lift(alpha[p], G.vfield) * z[g.ideal_class(p)], (psi, label(p))
            if -algext.one(G.vfield) in z.values():
                negating.add(G.vfield)
        # a character of order 4 puts negatives in a second tower, with i
        assert len(negating) == (2 if 4 in orders else 1 if 2 in orders else 0)


def test_character_field_is_memoised_and_unsupported_orders_raise_every_time():
    g = compute_class_group(make_field(17))
    Q, QI = algext.RATIONAL_FIELD, algext.make_value_field(adjoined=[-1])
    for chi, tower in zip(character_group(g), (Q, QI, Q, QI)):
        assert character_field(Q, g, chi) is tower
        assert character_field(Q, g, chi) is tower
    g89 = compute_class_group(make_field(89))  # CL = C12
    for _ in range(2):
        with pytest.raises(EigensystemError, match="order 12"):
            character_field(Q, g89, IdealClass((1,)))


@pytest.mark.parametrize("d,squares", [(17, 2), (65, 2), (105, 1)])
def test_orbits_with_zero_eigenvalues_match_the_pairwise_oracle(d, squares):
    # alpha(p) = 0 at the primes outside a set S of classes: the twists by
    # psi and psi e coincide when e is quadratic and e = 1 on S
    g = compute_class_group(make_field(d))
    rng = random.Random(d)
    F = _random_system(g, d, 100)
    classes = g.all_classes()
    supports = [{g.identity()}, set(g.squares()), set(classes)]
    supports += [set(rng.sample(classes, rng.randint(1, len(classes)))) for _ in range(4)]
    sizes = []
    for support in supports:
        zero = algext.zero(F.vfield)
        alpha = {p: v if g.ideal_class(p) in support else zero for p, v in F.alpha}
        al = dict(F.al_signs) if F.al_signs is not None else None
        G = make_eigensystem(g, F.level, F.character, alpha, al, vfield=F.vfield)
        orbit = twist_orbit(G)
        assert orbit == _pairwise_orbit(G)
        sizes.append(len(orbit))
    # S = {1} leaves one twist per value of psi^2, S = CL all h of them
    assert sizes[0] == len(g.squares()) == squares and sizes[2] == g.h


def test_twisting_into_an_unsupported_character_order_raises():
    # CL = C12 at d = 89: an order-4 system twisted by an order-3 character
    # would have a character of order 12, whose values are not supported
    g = compute_class_group(make_field(89))
    alpha = {p: algext.from_rational(algext.RATIONAL_FIELD, p.norm % 7 - 3)
             for p in primes_of_norm_up_to(g.field, 60)}
    F = make_eigensystem(g, unit_ideal(g.field), IdealClass((3,)), alpha, None,
                         algext.RATIONAL_FIELD)
    assert character_order(g, F.character) == 4 and character_order(g, IdealClass((4,))) == 3
    with pytest.raises(EigensystemError, match="order 12"):
        twist(F, IdealClass((4,)))
    with pytest.raises(EigensystemError, match="order 12"):
        twist_orbit(F)


def test_character_orbit_is_square_coset(bundle, G17):
    squares = {
        G17.mul(psi, psi) for psi in character_group(G17)
    }
    for level, table in bundle.eigensystem_tables.items():
        for F in table.values():
            orbit_chars = {H.character for H in twist_orbit(F)}
            coset = {G17.mul(F.character, s) for s in squares}
            assert orbit_chars == coset
            assert len(coset) == len(squares)


def test_orbit_size_divides_h_with_selftwist_stabilizer(bundle, G17):
    for level, table in bundle.eigensystem_tables.items():
        for F in table.values():
            orbit = twist_orbit(F)
            assert G17.h % len(orbit) == 0
            if len(orbit) < G17.h:
                assert selftwist_status(F).status == "possible"


def test_selftwist_status(bundle, F0, K17):
    st = selftwist_status(F0)
    assert st.status == "impossible"
    F64 = bundle.system("64.1", "selftwist")
    st64 = selftwist_status(F64)
    assert st64.status == "possible"
    assert st64.candidates == (IdealClass((2,)),)
    # empty eligible set rules self-twist out regardless of the eigenvalues
    F12 = make_eigensystem(
        F0.group,
        ideal_from_label(K17, "12.1"),
        IdealClass((0,)),
        {p: algext.zero(algext.RATIONAL_FIELD)
         for p in primes_of_norm_up_to(K17, 30)
         if p.norm not in (2, 3)},
        {},
        algext.RATIONAL_FIELD,
    )
    assert selftwist_status(F12).status == "impossible"


def test_galois_conjugation(bundle, F0, K17):
    F2 = bundle.system("2.1", "F2")
    assert systems_equal(galois_conjugate_system(F0), F2)
    assert systems_equal(galois_conjugate_system(galois_conjugate_system(F0)), F0)
    F72 = bundle.system("7.2", "a")
    conj = galois_conjugate_system(F72)
    assert conj.level == ideal_from_label(K17, "7.1")
    p31, p32 = ideal_from_label(K17, "3.1"), ideal_from_label(K17, "3.2")
    assert values_equal(conj.alpha_map()[p31], F72.alpha_map()[p32])
    # at 25.1 conjugation acts on the published system as the twist by chi2
    F25 = bundle.system("25.1", "F0")
    assert systems_equal(galois_conjugate_system(F25), twist(F25, IdealClass((2,))))


def test_conjugation_keeps_the_involution_signs_in_label_order(K17, G17):
    # conjugation swaps the norm-3 primes at the level 9.2 = (3): the signs
    # come back in label order, as in the same system built directly
    Q = algext.RATIONAL_FIELD
    level = ideal_from_label(K17, "9.2")
    p31, p32 = ideal_from_label(K17, "3.1"), ideal_from_label(K17, "3.2")
    alpha = {p: algext.from_rational(Q, p.norm % 5 - 2) for p in primes_of_norm_up_to(K17, 30)}
    H = make_eigensystem(G17, level, G17.identity(), alpha, {p31: 1, p32: -1}, Q)
    C = galois_conjugate_system(H)
    direct = make_eigensystem(G17, level, G17.identity(),
                              {p.conjugate(): v for p, v in alpha.items()}, {p31: -1, p32: 1}, Q)
    assert C == direct
    assert C.al_signs == ((p31, -1), (p32, 1))
    assert list(eigensystem_to_json(C)["al"]) == ["3.1", "3.2"]


def test_conjugate_of_twist_property(bundle, G17):
    # (F (x) psi)^sigma = F^sigma (x) psi^(-1) on all stored data
    F0 = bundle.system("2.1", "F0")
    for psi in character_group(G17):
        lhs = galois_conjugate_system(twist(F0, psi))
        rhs = twist(galois_conjugate_system(F0), G17.inv(psi))
        assert systems_equal(lhs, rhs)


def test_inner_twists(bundle, F0, G17):
    chi2 = IdealClass((2,))
    pairs = inner_twist_pairs(F0)
    assert any(
        tau.describe() == "sqrt2 -> -sqrt2" and psi == chi2 for tau, psi in pairs
    )
    # rational system over an odd-class-number field: only the trivial pair
    g = compute_class_group(make_field(23))
    alpha = {
        p: algext.from_rational(algext.RATIONAL_FIELD, (p.norm % 7) - 3)
        for p in primes_of_norm_up_to(g.field, 60)
    }
    F = make_eigensystem(g, unit_ideal(g.field), IdealClass((0,)), alpha, {},
                         algext.RATIONAL_FIELD)
    only = inner_twist_pairs(F)
    assert len(only) == 1
    tau, psi = only[0]
    assert tau.is_identity() and psi.is_trivial()


def test_inner_twist_pair_breaking_the_character_law_raises(G17):
    # rational eigenvalues over Q(i) with a character of order 4: i -> -i
    # meets the eigenvalue law with the trivial psi, but moves chi = i
    QI = algext.make_value_field(adjoined=[-1])
    alpha = {p: algext.from_rational(QI, p.norm % 5 - 2)
             for p in primes_of_norm_up_to(G17.field, 60)}
    F = make_eigensystem(G17, unit_ideal(G17.field), IdealClass((1,)), alpha, None, QI)
    with pytest.raises(EigensystemError, match="character compatibility law"):
        inner_twist_pairs(F)


def test_base_change_candidates(bundle, F0, K17):
    assert base_change_candidate(bundle.system("2.1", "F1"))
    assert base_change_candidate(bundle.system("2.1", "F3"))
    assert not base_change_candidate(F0)
    with pytest.raises(EigensystemError):
        base_change_candidate(bundle.system("7.2", "a"))
    # class number 1 with symmetric values
    g = compute_class_group(make_field(1))
    alpha = {}
    for p in primes_of_norm_up_to(g.field, 60):
        alpha[p] = algext.from_rational(algext.RATIONAL_FIELD, p.norm % 5)
    F = make_eigensystem(g, unit_ideal(g.field), IdealClass(()), alpha, {},
                         algext.RATIONAL_FIELD)
    assert base_change_candidate(F)


def test_support_subgroup(bundle, F0, G17):
    assert support_subgroup(F0).index == 1
    sup = support_subgroup(bundle.system("64.1", "selftwist"))
    assert sup.index == 2
    chi2 = IdealClass((2,))
    from iqhecke.characters import eval_on_class

    kernel = {c for c in G17.all_classes() if eval_on_class(G17, chi2, c).is_one()}
    assert sup.classes == frozenset(kernel)


def _cm_like_system(F, psi):
    """F with its eigenvalues set to 0 at the stored primes outside the
    kernel of psi, as for a system with CM by psi."""
    kernel = character_kernel(F.group, psi)
    zero = algext.zero(F.vfield)
    alpha = {p: v if x in kernel else zero for x, (p, v) in zip(F._classes, F.alpha)}
    al = dict(F.al_signs) if F.al_signs is not None else None
    return make_eigensystem(F.group, F.level, F.character, alpha, al, vfield=F.vfield)


@pytest.mark.parametrize("d", (1, 5, 23, 17, 21, 14, 65, 105))  # the sweep fields
def test_support_subgroup_is_the_closure_of_the_squares_and_the_support(d):
    g = compute_class_group(make_field(d))
    systems = [random_eigensystem(g, random.Random(seed), 40) for seed in range(4)]
    systems += [_cm_like_system(F, psi) for F in systems[:2] for psi in order_two_characters(g)]
    indices = set()
    for F in systems:
        support = [x for x, (_, v) in zip(F._classes, F.alpha) if not v.is_zero()]
        sup = support_subgroup(F)
        assert sup.classes == subgroup_closure(g, [*g.squares(), *support])
        assert sup.index * len(sup.classes) == g.h
        # twists by psi and k agree exactly when psi k^-1 is trivial on the subgroup
        assert len(twist_orbit(F)) * sup.index == g.h
        indices.add(sup.index)
    # zeroing outside a kernel of index 2 leaves a subgroup of index at least 2
    assert max(indices) >= 2 or not order_two_characters(g)


def test_hecke_field_reports(bundle):
    rep = hecke_field_report(bundle.system("2.1", "F0"))
    assert (rep.principal_degree, rep.full_degree, rep.ratio) == (1, 2, 2)
    rep25 = hecke_field_report(bundle.system("25.1", "F0"))
    assert (rep25.principal_degree, rep25.full_degree, rep25.ratio) == (3, 3, 1)
    rep161 = hecke_field_report(bundle.system("16.1", "F1"))
    assert (rep161.principal_degree, rep161.full_degree, rep161.ratio) == (1, 4, 4)


def _eager_span_dimension(values, f):
    """The span of 1 and every independent value, closed under
    multiplication by each of them, reduced over the rationals."""
    rows = []

    def independent(v):
        vec = list(v.coeffs)
        for piv, row in rows:
            vec = [x - vec[piv] * y for x, y in zip(vec, row)]
        piv = next((i for i, c in enumerate(vec) if c), None)
        if piv is not None:
            rows.append((piv, [x / vec[piv] for x in vec]))
        return piv is not None

    independent(algext.one(f))
    gens = [v for v in values if independent(v)]
    todo = list(gens)
    while todo:
        b = todo.pop()
        todo += [prod for prod in (g * b for g in gens) if independent(prod)]
    return len(rows)


def _eager_report(F):
    """hecke_field_report the eager way: a generator from every combo of at
    most three good primes whose class is in CL^2, then the closure."""
    f = F.vfield
    good = [p for p, _ in F.alpha if coprime(p, F.level)]
    k_f = _eager_span_dimension(_eager_principal_gens(F), f)
    k_F = _eager_span_dimension([v for _, v in F.alpha] + [chi_value(F, p) for p in good], f)
    return HeckeFieldReport(k_f, k_F)


def _eager_principal_gens(F):
    """chi(x) alpha(b) for each combo b of at most three good primes, in the
    walk's order, where [b] is in CL^2 and x is the first class with x^2 [b] = 1."""
    group, f = F.group, F.vfield
    chi = character_values(f, group, F.character)
    aux = {}
    for x in group.all_classes():
        aux.setdefault(group.inv(group.power(x, 2)), chi[x])
    good = [p for p, _ in F.alpha if coprime(p, F.level)]
    gens = []
    for size in (1, 2, 3):
        for combo in combinations_with_replacement(good, size):
            seen = Counter(combo)
            cls = group.identity()
            for p, e in seen.items():
                cls = group.mul(cls, group.power(group.ideal_class(p), e))
            val = aux.get(cls)
            if val is None:
                continue
            for p, e in seen.items():
                val = val * prime_power_coefficients(F, p, e)[e]
            gens.append(val)
    return gens


def _good_pairs(F):
    """(class, alpha(p)) at each stored prime p coprime to the level."""
    return [(F.group.ideal_class(p), v) for p, v in F.alpha if coprime(p, F.level)]


def _reference_principal_twists(F):
    """T the direct way: every automorphism, the identity included, that meets
    both laws with some psi, the chi law at every class."""
    group, f = F.group, F.vfield
    chi = character_values(f, group, F.character)
    good = _good_pairs(F)

    def meets(tau, psi):
        values = character_values(f, group, psi)
        squared = character_values(f, group, group.power(psi, 2))
        return all(
            v.is_zero() if values[x] is None else tau.apply(v) == values[x] * v for x, v in good
        ) and all(
            squared[x] is not None and tau.apply(chi[x]) == squared[x] * chi[x]
            for x in group.all_classes()
        )

    return {tau for tau in algext.automorphisms(f)
            if any(meets(tau, psi) for psi in character_group(group))}


def test_hecke_field_report_matches_the_eager_reference(bundle, K17):
    # the automorphisms T that bound the principal degree: 2.1 F0 has the inner
    # twist sqrt2 -> -sqrt2 by chi2; the cubic base of 25.1 shows no automorphism
    F21 = bundle.system("2.1", "F0")
    twists = _principal_twists(F21, _good_pairs(F21))
    assert sorted(tau.describe() for tau in twists) == ["id", "sqrt2 -> -sqrt2"]
    F25 = bundle.system("25.1", "F0")
    assert len(_principal_twists(F25, _good_pairs(F25))) == 1
    systems = [bundle.system("16.1", "F1")]
    # rational eigenvalues under a character of order 4: i -> -i meets the
    # alpha law with the trivial psi, but not the chi law
    g17 = compute_class_group(K17)
    rng = random.Random(5)
    rational = {p: algext.from_rational(algext.RATIONAL_FIELD, rng.randint(-9, 9))
                for p in primes_of_norm_up_to(K17, 40)}
    systems.append(make_eigensystem(g17, unit_ideal(K17), IdealClass((1,)), rational, None,
                                    algext.RATIONAL_FIELD))
    for d in (1, 5, 17, 21, 65, 105):
        g = compute_class_group(make_field(d))
        for seed in range(4):
            F = random_eigensystem(g, random.Random(seed), 40)
            systems.append(F)
            # twists by characters of order 4 have chi(x) outside the principal subfield
            systems += [twist(F, psi) for psi in character_group(g) if character_order(g, psi) == 4]
    shapes = set()
    for F in systems:
        rep = hecke_field_report(F)
        assert rep == _eager_report(F)
        # the walk stops at dim // |T|, which must not be below the principal degree
        twists = _principal_twists(F, _good_pairs(F))
        assert twists == _reference_principal_twists(F)
        assert algext.automorphisms(F.vfield)[0].is_identity()
        assert F.vfield.dim // len(twists) >= rep.principal_degree
        shapes.add((F.vfield.dim, rep.principal_degree < F.vfield.dim))
    # towers of dimension 1, 2 and 4, and principal subfields that fill them or not
    assert {(1, False), (2, False), (4, False), (2, True), (4, True)} <= shapes


def test_principal_walk_reads_the_eager_generators(bundle, monkeypatch):
    # read to the end, the walk yields the eager generators in order, products
    # of three included, whose classes the degrees alone do not pin down
    walks = []

    def read_all(values, f, bound=None):
        walks.append(list(values))
        return 1

    monkeypatch.setattr(eigensystem, "_span_dimension", read_all)
    systems = [bundle.system("2.1", "F0")]
    for d in (17, 21, 65):
        F = random_eigensystem(compute_class_group(make_field(d)), random.Random(d), 30)
        systems += [F, *(twist(F, psi) for psi in character_group(F.group)[1:3])]
    for F in systems:
        walks.clear()
        hecke_field_report(F)
        expected = _eager_principal_gens(F)
        assert len(walks[0]) == len(expected)
        assert all(map(values_equal, walks[0], expected))


def test_principal_twists_apply_nothing_over_the_rationals(monkeypatch):
    g = compute_class_group(make_field(5))
    systems = (random_eigensystem(g, random.Random(seed), 40) for seed in range(20))
    F = next(F for F in systems if F.vfield.dim == 1)

    def apply(tau, v):
        raise AssertionError("an automorphism was applied over Q")

    monkeypatch.setattr(algext.FieldAutomorphism, "apply", apply)
    twists = _principal_twists(F, _good_pairs(F))
    assert len(twists) == 1 and next(iter(twists)).is_identity()


def test_trivial_character_towers_are_totally_real(bundle):
    for level, table in bundle.eigensystem_tables.items():
        for F in table.values():
            if not F.character.is_trivial():
                continue
            for r in F.vfield.adjoined:
                assert all(c == 0 for c in r[1:]) and r[0] > 0
            assert F.vfield._trace_form[0] > 0  # raises unless the base is totally real


def test_al_signs_under_twist(bundle, F0, K17):
    chi2 = IdealClass((2,))
    q = ideal_from_label(K17, "2.1")
    F2 = twist(F0, chi2)
    assert F2.al_sign(q) == -1  # chi2 is +1 on the class of 2.1
    F1 = twist(F0, IdealClass((1,)))
    assert F1.al_signs is None


def test_serialization_round_trip(bundle, G17):
    for level, table in bundle.eigensystem_tables.items():
        for F in table.values():
            blob = eigensystem_to_json(F)
            back = eigensystem_from_json(G17, blob)
            assert systems_equal(back, F)
            assert eigensystem_to_json(back) == blob


def test_make_eigensystem_validation(G17, K17):
    with pytest.raises(EigensystemError):
        make_eigensystem(
            G17,
            ideal_from_label(K17, "2.1"),
            IdealClass((1,)),
            {},
            {ideal_from_label(K17, "2.1"): 1},
            algext.RATIONAL_FIELD,
        )
    with pytest.raises(EigensystemError):
        make_eigensystem(
            G17,
            ideal_from_label(K17, "2.1"),
            IdealClass((0,)),
            {},
            {ideal_from_label(K17, "2.1"): 2},
            algext.RATIONAL_FIELD,
        )


@pytest.mark.parametrize("exps", [(1, 0), (), (4,)])
def test_make_eigensystem_rejects_unreduced_characters(F0, exps):
    # CL is C4 here: a character has one exponent e with 0 <= e < 4
    with pytest.raises(EigensystemError, match="not a reduced exponent vector"):
        make_eigensystem(F0.group, F0.level, IdealClass(exps), F0.alpha_map(), None, F0.vfield)


@pytest.mark.parametrize("exps", [(1, 2), (5,), (-1,)])
def test_twist_rejects_unreduced_characters(F0, exps):
    # psi meets the check of the system's own character: no zip truncation
    # or reduction mod 4 turns it into the twist by (1,) or (3,)
    with pytest.raises(EigensystemError, match="not a reduced exponent vector"):
        twist(F0, IdealClass(exps))


@pytest.mark.parametrize("d", [17, 21, 23, 105])
def test_character_values_agree_with_root_of_unity_values(d):
    g = compute_class_group(make_field(d))
    Q, QI = algext.RATIONAL_FIELD, algext.make_value_field(adjoined=[-1])
    missing = {Q: 0, QI: 0}
    for f in (Q, QI):
        for chi in character_group(g):
            table = character_values(f, g, chi)
            assert table is character_values(f, g, chi)
            assert table == {
                x: root_of_unity_value(f, eval_on_class(g, chi, x)) for x in g.all_classes()
            }
            missing[f] += sum(v is None for v in table.values())
    # Q lacks the values of order 4 (d = 17, CL = C4) and 3 (d = 23, CL = C3);
    # adjoining i supplies the former only
    assert (missing[Q] > 0) == (d in (17, 23))
    assert (missing[QI] > 0) == (d == 23)


@pytest.mark.parametrize("adjoined,count", [([-3], 6), ([-1], 4), ([-1, 3], 8)])
def test_root_of_unity_values_are_multiplicative(adjoined, count):
    f = algext.make_value_field(adjoined=adjoined)
    roots = [RootOfUnity.make(k, n) for n in (1, 2, 3, 4, 6) for k in range(n)]
    values = {z: root_of_unity_value(f, z) for z in roots}
    values = {z: v for z, v in values.items() if v is not None}
    assert len(values) == count
    one = algext.one(f)
    for z, v in values.items():
        power = one
        for _ in range(z.n):
            power = power * v
        assert power == one
        for w, u in values.items():
            if z * w in values:
                assert values[z * w] == v * u
    # Q(i, sqrt3) holds zeta_3 = i*sqrt3 rather than a root sqrt(-3) of its own
    if adjoined == [-1, 3]:
        zeta3 = algext.render_value(values[RootOfUnity.make(1, 3)])
        assert zeta3 == "-1/2 + 1/2*i*sqrt3"
