"""Cubic field arithmetic: orders, prime splitting, ideals, principality.

The fixture corpus is the three fields exercised throughout (x^3-2,
x^3-x-1, and the classical index-2 field x^3-x^2-2x-8) plus the cyclic
cubic x^3-3x-1 and the first complex cubic with nontrivial class group.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyakit import (
    CubicPoly,
    IntegralIdeal,
    ReduciblePolynomialError,
    discriminant,
    element_ideal,
    factor_prime,
    ideal_equal,
    ideal_norm,
    ideal_pow,
    ideal_product,
    is_galois_cubic,
    is_principal,
    maximal_order,
    minkowski_bound,
    parse_cubic,
    pi_ideal,
    splitting_census,
)
from polyakit.cubicfield import (
    SearchBudgetExceededError,
    _contains3,
    _prime_power,
    element_valuation,
    is_p_maximal_dedekind,
    mul_power,
    norm_power,
    power_sums,
    primes_up_to,
)
from polyakit.intlinalg import det3, invert3

FIXTURE_POLYS = ("x^3-2", "x^3-x-1", "x^3-x^2-2x-8", "x^3-3x-1", "x^3+4x-1")


@pytest.fixture(scope="module")
def orders():
    return {s: maximal_order(parse_cubic(s)) for s in FIXTURE_POLYS}


# --- polynomials ------------------------------------------------------------

def test_discriminant_examples():
    assert discriminant(parse_cubic("x^3-2")) == -108
    assert discriminant(parse_cubic("x^3-x-1")) == -23
    assert discriminant(parse_cubic("x^3-3x-1")) == 81


def test_discriminant_general_formula_against_root_products():
    # disc = prod (r_i - r_j)^2; checked numerically on a general cubic
    from polyakit.cubicfield import cubic_roots

    poly = parse_cubic("x^3+2x^2-5x+1")
    rs = cubic_roots(poly)
    prod = ((rs[0] - rs[1]) * (rs[0] - rs[2]) * (rs[1] - rs[2])) ** 2
    assert abs(prod.real - poly.discriminant()) < 1e-6 * max(1, abs(poly.discriminant()))
    assert abs(prod.imag) < 1e-6


def test_is_galois_examples():
    assert not is_galois_cubic(parse_cubic("x^3-2"))
    assert is_galois_cubic(parse_cubic("x^3-3x-1"))
    assert not is_galois_cubic(parse_cubic("x^3-x-1"))


def test_reducible_rejected():
    with pytest.raises(ReduciblePolynomialError):
        CubicPoly(0, 0, -1)  # x^3 - 1
    with pytest.raises(ReduciblePolynomialError):
        CubicPoly(1, 0, 0)  # x^3 + x^2
    with pytest.raises(ReduciblePolynomialError):
        CubicPoly(0, -1, 0)  # x^3 - x


def test_parse_cubic_forms():
    assert parse_cubic("x^3 - 3*x - 1") == CubicPoly(0, -3, -1)
    assert parse_cubic("x^3-x^2-2x-8") == CubicPoly(-1, -2, -8)
    assert parse_cubic("-1,-2,-8") == CubicPoly(-1, -2, -8)
    assert parse_cubic("x^3+4x-1") == CubicPoly(0, 4, -1)
    with pytest.raises(ValueError):
        parse_cubic("x^2-1")
    with pytest.raises(ValueError):
        parse_cubic("2x^3-1")
    with pytest.raises(ValueError):
        parse_cubic("")
    round_trip = parse_cubic(str(CubicPoly(-1, -2, -8)))
    assert round_trip == CubicPoly(-1, -2, -8)


# --- element arithmetic -----------------------------------------------------

coord = st.integers(min_value=-8, max_value=8)
triple = st.tuples(coord, coord, coord)


@given(triple, triple)
@settings(max_examples=120, deadline=None)
def test_power_basis_norm_multiplicative(u, v):
    poly = parse_cubic("x^3-x^2-2x-8")
    uv = mul_power(u, v, poly)
    assert norm_power(uv, poly) == norm_power(u, poly) * norm_power(v, poly)


@given(triple, triple)
@settings(max_examples=120, deadline=None)
def test_omega_norm_matches_power_norm(u, v):
    order = maximal_order(parse_cubic("x^3-x^2-2x-8"))
    bn, den = order.basis_num, order.den

    def power_num(y):  # den * (power-basis coordinates of y)
        return tuple(sum(y[i] * bn[i][k] for i in range(3)) for k in range(3))

    yu = order.omega_mul(u, v)
    pu = power_num(u)
    pv = power_num(v)
    assert tuple(den * c for c in power_num(yu)) == mul_power(pu, pv, order.poly)
    n = order.norm_omega(u)
    assert den**3 * n == norm_power(pu, order.poly)


def test_power_sums_newton():
    poly = parse_cubic("x^3+2x^2-5x+1")
    from polyakit.cubicfield import cubic_roots

    rs = cubic_roots(poly)
    for k, t in enumerate(power_sums(poly, 4)):
        got = sum(r**k for r in rs)
        assert abs(got.real - t) < 1e-6 * max(1.0, abs(t))


# --- maximal orders ---------------------------------------------------------

def test_maximal_order_x3_minus_2(orders):
    O = orders["x^3-2"]
    assert O.index == 1
    assert O.disc_K == -108
    assert O.den == 1
    assert O.basis_num == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_maximal_order_squarefree_disc(orders):
    O = orders["x^3-x-1"]
    assert O.index == 1
    assert O.disc_K == -23


def test_maximal_order_dedekind_field(orders):
    O = orders["x^3-x^2-2x-8"]
    assert O.index == 2
    assert O.disc_K == -503
    assert O.poly.discriminant() == -2012


def test_maximal_order_idempotent(orders):
    from polyakit.cubicfield import _p_enlarge_once

    for s in FIXTURE_POLYS:
        O = orders[s]
        for p, e in [(2, 2), (3, 2)]:
            got = _p_enlarge_once(O, p)
            assert (got.den, got.basis_num) == (O.den, O.basis_num), s


def test_maximal_order_disc_sign_and_index_relation():
    for s in FIXTURE_POLYS + ("x^3+6x^2+9x+3", "x^3-12x-12", "x^3+9x+9"):
        poly = parse_cubic(s)
        O = maximal_order(poly)
        d = poly.discriminant()
        assert d == O.index**2 * O.disc_K
        assert (d < 0) == (O.disc_K < 0)
        assert abs(det3(O.basis_num)) * O.index == O.den**3


def test_maximal_order_matches_sympy_round_two():
    """Independent oracle: sympy's Round Two gives the same disc_K on
    every irreducible x^3 + a1 x + a0 with |a1|, |a0| <= 12."""
    from sympy import Poly, symbols
    from sympy.polys.numberfields.basis import round_two

    x = symbols("x")
    checked = 0
    for a1 in range(-12, 13):
        for a0 in range(-12, 13):
            try:
                poly = CubicPoly(0, a1, a0)
            except ReduciblePolynomialError:
                continue
            O = maximal_order(poly)
            _, disc_K = round_two(Poly(x**3 + a1 * x + a0, x))
            assert O.disc_K == int(disc_K), poly
            assert poly.discriminant() == O.index**2 * O.disc_K, poly
            checked += 1
    assert checked == 522


def test_order_disc_via_trace_form(orders):
    """Independent route: disc_K = det of the trace form on the basis.
    The basis numerators are den times the basis, so the Gram
    determinant on them is den^6 * disc_K."""
    for s in FIXTURE_POLYS:
        O = orders[s]
        t = power_sums(O.poly, 4)
        tpow = [[t[i + j] for j in range(3)] for i in range(3)]
        b = O.basis_num
        bt = [[sum(b[i][k] * tpow[k][l] for k in range(3)) for l in range(3)] for i in range(3)]
        gram = [
            [sum(bt[i][l] * b[j][l] for l in range(3)) for j in range(3)]
            for i in range(3)
        ]
        assert Fraction(det3(gram), O.den**6) == O.disc_K, s


def test_dedekind_criterion_agrees_with_enlargement():
    for s in FIXTURE_POLYS + ("x^3+6x^2+9x+3", "x^3-12x-12", "x^3+9x+9", "x^3-x^2+3x+9"):
        poly = parse_cubic(s)
        O = maximal_order(poly)
        d = poly.discriminant()
        for p in (2, 3, 5, 7):
            if d % (p * p):
                continue
            # Z[theta] is p-maximal iff the enlargement at p gained nothing
            assert is_p_maximal_dedekind(poly, p) == (O.index % p != 0), (s, p)


def test_mult_table_is_integral(orders):
    for s in FIXTURE_POLYS:
        O = orders[s]
        table = O.mult_table
        for i in range(3):
            for j in range(3):
                assert all(isinstance(c, int) for c in table[i][j])
        assert O.to_omega_int((1, 0, 0)) == O.one


# --- prime factorization ----------------------------------------------------

def test_factor_prime_x3_minus_2_examples(orders):
    O = orders["x^3-2"]
    f5 = factor_prime(O, 5)
    assert sorted((q.f, q.e) for q in f5) == [(1, 1), (2, 1)]
    f2 = factor_prime(O, 2)
    assert [(q.f, q.e) for q in f2] == [(1, 3)]
    f31 = factor_prime(O, 31)
    assert [(q.f, q.e) for q in f31] == [(1, 1), (1, 1), (1, 1)]


def test_factor_prime_rejects_composite(orders):
    with pytest.raises(ValueError):
        factor_prime(orders["x^3-2"], 6)


def test_factorization_identity(orders):
    for s in FIXTURE_POLYS:
        O = orders[s]
        for p in primes_up_to(60):
            acc = IntegralIdeal.unit()
            for q in factor_prime(O, p):
                acc = ideal_product(O, acc, ideal_pow(O, q.as_integral(), q.e))
            assert acc == IntegralIdeal.from_scalar(p), (s, p)


def test_ramification_criterion_to_1000(orders):
    for s in FIXTURE_POLYS:
        O = orders[s]
        for p in primes_up_to(1000):
            ramified = any(q.e > 1 for q in factor_prime(O, p))
            assert ramified == (O.disc_K % p == 0), (s, p)


def test_residue_degrees_sum(orders):
    for s in FIXTURE_POLYS:
        O = orders[s]
        for p in primes_up_to(100):
            assert sum(q.e * q.f for q in factor_prime(O, p)) == 3


def test_prime_norms_and_two_generator_form(orders):
    for s in FIXTURE_POLYS:
        O = orders[s]
        for p in primes_up_to(60):
            for q in factor_prime(O, p):
                assert ideal_norm(q.as_integral()) == p**q.f
                assert q.as_integral().contains(tuple(p * c for c in O.one))
                if O.index % p:
                    assert q.generator_poly is not None
                    gt = O.poly_of_theta_omega(list(q.generator_poly))
                    assert q.as_integral().contains(gt)


def test_large_index_orders_factor_consistently():
    """Fields whose equation order has index 9 and 10: the index primes
    go through the quotient-algebra path; the factorization identity and
    the ramification criterion must still hold on the nose."""
    for s, expected_index in (("x^3-8x^2-2x-9", 9), ("x^3-12x^2-5x-4", 10)):
        poly = parse_cubic(s)
        O = maximal_order(poly)
        assert O.index == expected_index
        assert O.disc_K == -283
        for p in primes_up_to(60):
            facs = factor_prime(O, p)
            assert sum(q.e * q.f for q in facs) == 3
            acc = IntegralIdeal.unit()
            for q in facs:
                acc = ideal_product(O, acc, ideal_pow(O, q.as_integral(), q.e))
            assert acc == IntegralIdeal.from_scalar(p), (s, p)
            assert any(q.e > 1 for q in facs) == (O.disc_K % p == 0), (s, p)


def test_index_prime_degree_one_count_matches_hom_oracle():
    """Independent oracle at index primes: the number of degree-1 primes
    over p equals the number of unital GF(p)-algebra homomorphisms
    O -> GF(p), counted by brute force over all linear functionals."""
    for s in ("x^3-x^2-2x-8", "x^3-8x^2-2x-9", "x^3-12x^2-5x-4"):
        O = maximal_order(parse_cubic(s))
        for p in [q for q in (2, 3, 5, 7) if O.index % q == 0]:
            table = O.mult_table
            one = O.one
            homs = 0
            for x0 in range(p):
                for x1 in range(p):
                    for x2 in range(p):
                        phi = (x0, x1, x2)

                        def apply(v):
                            return (v[0] * phi[0] + v[1] * phi[1] + v[2] * phi[2]) % p

                        if apply(one) != 1 % p:
                            continue
                        if all(
                            apply(table[i][j]) == (phi[i] * phi[j]) % p
                            for i in range(3)
                            for j in range(3)
                        ):
                            homs += 1
            deg1 = sum(1 for q in factor_prime(O, p) if q.f == 1)
            assert deg1 == homs, (s, p)


def test_index_prime_splitting_nonmonogenic(orders):
    # 2 is totally split in the index-2 field: that is exactly why no
    # single polynomial generator can work at 2
    O = orders["x^3-x^2-2x-8"]
    f2 = factor_prime(O, 2)
    assert [(q.f, q.e) for q in f2] == [(1, 1), (1, 1), (1, 1)]
    assert len({q.hnf for q in f2}) == 3


def test_hensel_valuation_agrees_with_lattice_walk(orders):
    rng = random.Random(3)
    for s in FIXTURE_POLYS:
        O = orders[s]
        for p in (2, 3, 5, 7, 11, 31):
            for q in factor_prime(O, p):
                for _ in range(25):
                    y = tuple(rng.randint(-9, 9) for _ in range(3))
                    if y == (0, 0, 0):
                        continue
                    v = element_valuation(O, y, q)
                    k = 0
                    while _contains3(_prime_power(O, q, k + 1).hnf, y):
                        k += 1
                    assert v == k, (s, p, y)


# --- ideal arithmetic -------------------------------------------------------

def test_ideal_identity_and_scalar(orders):
    O = orders["x^3-2"]
    I = factor_prime(O, 5)[0].as_integral()
    assert ideal_product(O, I, IntegralIdeal.unit()) == I
    assert ideal_norm(IntegralIdeal.from_scalar(7)) == 343


def test_product_of_split_primes_is_p(orders):
    O = orders["x^3-2"]
    acc = IntegralIdeal.unit()
    for q in factor_prime(O, 31):
        acc = ideal_product(O, acc, q.as_integral())
    assert acc == IntegralIdeal.from_scalar(31)


def test_ideal_norm_multiplicative_random(orders):
    rng = random.Random(11)
    for s in FIXTURE_POLYS:
        O = orders[s]
        primes = [q for p in (2, 3, 5, 7, 11, 13) for q in factor_prime(O, p)]
        for _ in range(30):
            a = rng.choice(primes).as_integral()
            b = rng.choice(primes).as_integral()
            ab = ideal_product(O, a, b)
            assert ideal_norm(ab) == ideal_norm(a) * ideal_norm(b), s


def test_ideal_product_commutative_associative(orders):
    O = orders["x^3+4x-1"]
    ps = [q.as_integral() for q in factor_prime(O, 2)] + [
        q.as_integral() for q in factor_prime(O, 3)
    ]
    a, b, c = ps[0], ps[1], ps[2]
    assert ideal_product(O, a, b) == ideal_product(O, b, a)
    assert ideal_product(O, ideal_product(O, a, b), c) == ideal_product(
        O, a, ideal_product(O, b, c)
    )


def test_ideal_equality_is_matrix_identity(orders):
    O = orders["x^3-2"]
    a = factor_prime(O, 5)[0].as_integral()
    b = factor_prime(O, 5)[1].as_integral()
    assert not ideal_equal(a, b)
    assert ideal_equal(a, IntegralIdeal(a.hnf))


# --- pi ideals ---------------------------------------------------------------

def test_pi_ideal_convention(orders):
    O = orders["x^3-2"]
    assert pi_ideal(O, 6).is_unit_ideal()
    assert pi_ideal(O, 1).is_unit_ideal()
    assert pi_ideal(O, 16).is_unit_ideal()  # no prime of norm 2^4
    assert pi_ideal(O, 7**2).is_unit_ideal()  # 7 is inert: no norm-49 prime


def test_pi_ideal_x3_minus_2(orders):
    O = orders["x^3-2"]
    p5 = pi_ideal(O, 5)
    deg1 = [q for q in factor_prime(O, 5) if q.f == 1][0]
    assert p5 == deg1.as_integral()
    assert pi_ideal(O, 31) == IntegralIdeal.from_scalar(31)


def test_pi_product_identity_small(orders):
    for s in FIXTURE_POLYS:
        O = orders[s]
        for p in primes_up_to(60):
            if O.disc_K % p == 0:
                continue
            acc = IntegralIdeal.unit()
            for f in sorted({q.f for q in factor_prime(O, p)}):
                acc = ideal_product(O, acc, pi_ideal(O, p**f))
            assert acc == IntegralIdeal.from_scalar(p), (s, p)


# --- minkowski bound ----------------------------------------------------------

def test_minkowski_bounds(orders):
    mb = minkowski_bound(orders["x^3-2"])
    assert Fraction(29, 10) < mb < 3
    mb2 = minkowski_bound(orders["x^3-x-1"])
    assert 1 < mb2 < 2
    assert minkowski_bound(orders["x^3-3x-1"]) == 2


def test_minkowski_is_upper_bound():
    # the rational bound must dominate the float evaluation
    import math

    for s in FIXTURE_POLYS:
        O = maximal_order(parse_cubic(s))
        exact = float(minkowski_bound(O))
        true = (2 / 9) * math.sqrt(abs(O.disc_K))
        if O.disc_K < 0:
            true *= 4 / math.pi
        assert exact >= true - 1e-12


# --- principality ------------------------------------------------------------

def test_is_principal_scalar(orders):
    O = orders["x^3-2"]
    gen = is_principal(O, IntegralIdeal.from_scalar(7))
    assert gen == tuple(7 * c for c in O.one)


def test_is_principal_theta(orders):
    O = orders["x^3-2"]
    p2 = factor_prime(O, 2)[0]
    gen = is_principal(O, p2.as_integral())
    assert gen is not None
    assert abs(O.norm_omega(gen)) == 2
    assert element_ideal(O, gen) == p2.as_integral()


def test_is_principal_norm5_prime(orders):
    O = orders["x^3-2"]
    deg1 = [q for q in factor_prime(O, 5) if q.f == 1][0]
    gen = is_principal(O, deg1.as_integral())
    assert gen is not None
    assert abs(O.norm_omega(gen)) == 5
    assert element_ideal(O, gen) == deg1.as_integral()
    # the independent norm-form witness: N(1 + theta - theta^2) = 5
    assert norm_power((1, 1, -1), O.poly) == 5


def test_is_principal_soundness_random(orders):
    rng = random.Random(7)
    for s in ("x^3-2", "x^3-x^2-2x-8"):
        O = orders[s]
        for _ in range(12):
            y = tuple(rng.randint(-3, 3) for _ in range(3))
            if y == (0, 0, 0) or abs(O.norm_omega(y)) > 400:
                continue
            I = element_ideal(O, y)
            gen = is_principal(O, I, radius_factor=2.0)
            assert gen is not None, (s, y)
            assert element_ideal(O, gen) == I
            assert abs(O.norm_omega(gen)) == ideal_norm(I)


def test_is_principal_negative_on_nontrivial_class(orders):
    O = orders["x^3+4x-1"]
    p2 = [q for q in factor_prime(O, 2) if q.f == 1][0]
    assert is_principal(O, p2.as_integral()) is None


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_is_principal_finds_unbalanced_generators():
    # principal ideals of the disc_K = 6237 field whose generators all
    # lie outside the norm-sized search region: the region must be
    # sized from the units instead
    O = maximal_order(parse_cubic("x^3-12x-5"))
    for y in ((-4, -9, 5), (11, 28, -2)):
        assert is_principal(O, element_ideal(O, y)) is not None, y


def _full_box_generator(O, I, radius_factor, max_candidates):
    """Reference search: the same box as is_principal, scanned whole
    (both y and -y), c0 outermost and each c_t running 0, 1, -1, ..."""
    m = I.norm
    n = I.scalar_generator()
    if n is not None:
        return tuple(n * c for c in O.one)
    R = radius_factor * m ** (1.0 / 3.0)
    rows = I.hnf
    E = [
        [sum(rows[t][i] * O.embeddings[j][i] for i in range(3)) for t in range(3)]
        for j in range(3)
    ]
    Einv = invert3(E)
    caps = [max(0, int(sum(abs(Einv[t][j]) for j in range(3)) * R + 1e-9)) for t in range(3)]
    if (2 * caps[0] + 1) * (2 * caps[1] + 1) * (2 * caps[2] + 1) > max_candidates:
        raise SearchBudgetExceededError("over budget")

    def by_abs(cap):
        yield 0
        for v in range(1, cap + 1):
            yield v
            yield -v

    v0, v1, v2 = rows
    for c0 in by_abs(caps[0]):
        for c1 in by_abs(caps[1]):
            for c2 in by_abs(caps[2]):
                y = tuple(c0 * v0[i] + c1 * v1[i] + c2 * v2[i] for i in range(3))
                if any(y) and abs(O.norm_omega(y)) == m:
                    return y
    return None


@pytest.mark.parametrize("s", FIXTURE_POLYS + ("x^3-12x-5",))
def test_is_principal_returns_the_full_box_first_generator(s):
    O = maximal_order(parse_cubic(s))

    def outcome(search, I, radius_factor, max_candidates):
        try:
            return search(O, I, radius_factor, max_candidates)
        except SearchBudgetExceededError:
            return "over budget"

    for p in primes_up_to(50):
        for f in sorted({q.f for q in factor_prime(O, p)}):
            I = pi_ideal(O, p**f)
            for search_args in ((2.0, 400000), (1.3, 8000)):
                want = outcome(_full_box_generator, I, *search_args)
                assert outcome(is_principal, I, *search_args) == want, (p, f, search_args)


def test_is_principal_budget_signal(orders):
    O = orders["x^3-2"]
    deg1 = [q for q in factor_prime(O, 5) if q.f == 1][0]
    with pytest.raises(SearchBudgetExceededError):
        is_principal(O, deg1.as_integral(), radius_factor=20.0, max_candidates=10)


# --- census -------------------------------------------------------------------

def test_census_small_bound(orders):
    O = orders["x^3-2"]
    tallies = splitting_census(O, 10)
    # p = 5 gives 1+2, p = 7: x^3-2 mod 7 has no root -> inert
    labels = {t.label: c for t, (c, _) in tallies.items()}
    assert labels.get("1+2", 0) >= 1
    total = sum(c for c, _ in tallies.values())
    freq_sum = sum(f for _, f in tallies.values())
    assert freq_sum == 1
    assert total == len([p for p in primes_up_to(10) if O.disc_K % p])


def test_census_with_no_unramified_primes_is_empty(orders):
    # 2 ramifies in x^3 - 2, so a census up to 2 has nothing to tally
    assert splitting_census(orders["x^3-2"], 2) == {}


def test_census_galois_has_no_mixed_pattern(orders):
    O = orders["x^3-3x-1"]
    tallies = splitting_census(O, 2000)
    assert all(t.label in ("1+1+1", "3") for t in tallies)


def test_census_agrees_with_factor_prime(orders):
    for s in FIXTURE_POLYS:
        O = orders[s]
        tallies = splitting_census(O, 300)
        recount: dict[str, int] = {}
        for p in primes_up_to(300):
            if O.disc_K % p == 0:
                continue
            parts = sorted(q.f for q in factor_prime(O, p))
            label = "+".join(str(f) for f in parts)
            recount[label] = recount.get(label, 0) + 1
        assert {t.label: c for t, (c, _) in tallies.items()} == recount, s
