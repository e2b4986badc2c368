"""Cubic field arithmetic: orders, prime splitting, ideals, principality.

The fixture corpus is the three fields exercised throughout (x^3-2,
x^3-x-1, and the classical index-2 field x^3-x^2-2x-8) plus the cyclic
cubic x^3-3x-1 and the first complex cubic with nontrivial class group.
"""

import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
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
from polyakit import cubicfield
from polyakit.cubicfield import (
    SearchBudgetExceededError,
    _multiplier_rows,
    element_valuation,
    mul_power,
    norm_line,
    primes_up_to,
    valuation,
    valuation_kernel,
)
from polyakit.intlinalg import det3, invert3, lattice_lines

from fieldref import (
    generic_factor_prime, is_p_maximal_dedekind, norm_power, poly_of_theta_omega, power_sums,
)

FIXTURE_POLYS = ("x^3-2", "x^3-x-1", "x^3-x^2-2x-8", "x^3-3x-1", "x^3+4x-1")


@pytest.fixture(scope="module")
def orders():
    return {s: maximal_order(parse_cubic(s)) for s in FIXTURE_POLYS}


@lru_cache(maxsize=None)
def _order_of(s):
    return maximal_order(parse_cubic(s))


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


def _divisor_loop_root(a2, a1, a0):
    """The integer-root search CubicPoly made before its bounded one: try
    every divisor d of a0 in increasing order, d before -d."""
    if a0 == 0:
        return 0
    for d in range(1, abs(a0) + 1):
        if abs(a0) % d:
            continue
        for r in (d, -d):
            if ((r + a2) * r + a1) * r + a0 == 0:
                return r
    return None


def _named_root(a2, a1, a0):
    try:
        CubicPoly(a2, a1, a0)
    except ReduciblePolynomialError as exc:
        return int(str(exc).rsplit(" ", 1)[1])
    return None


def test_reducibility_matches_divisor_loop_on_box_12():
    box = range(-12, 13)
    for a2 in box:
        for a1 in box:
            for a0 in box:
                assert _named_root(a2, a1, a0) == _divisor_loop_root(a2, a1, a0), (a2, a1, a0)


def test_reducibility_names_least_root_of_split_cubics():
    # (x - r1)(x - r2)(x - r3): repeated roots sit on a critical point of f
    for r1 in range(-9, 10):
        for r2 in range(r1, 10):
            for r3 in range(r2, 10):
                a2, a1, a0 = -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3
                assert _named_root(a2, a1, a0) == _divisor_loop_root(a2, a1, a0)


def test_reducibility_check_bounded_on_huge_constant():
    start = time.perf_counter()
    assert _named_root(0, 1, 10**12 + 39) is None
    assert _named_root(0, 1, 10**40 + 1) is None
    r = 10**15 + 37  # (x - r)(x^2 + x + 1)
    assert _named_root(1 - r, 1 - r, -r) == r
    assert time.perf_counter() - start < 2


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


@given(
    s=st.sampled_from(FIXTURE_POLYS),
    y=st.tuples(*[st.integers(-10**6, 10**6)] * 3),
)
@settings(max_examples=200, deadline=None)
def test_norm_omega_matches_expanded_form(s, y):
    c = _order_of(s)._norm_form_flat
    y0, y1, y2 = y
    monomials = (
        y0**3, y0**2 * y1, y0**2 * y2, y0 * y1**2, y0 * y1 * y2,
        y0 * y2**2, y1**3, y1**2 * y2, y1 * y2**2, y2**3,
    )
    assert _order_of(s).norm_omega(y) == sum(ci * m for ci, m in zip(c, monomials))


@given(
    s=st.sampled_from(FIXTURE_POLYS + ("x^3-12x-5",)),
    p=st.sampled_from(primes_up_to(50)),
    y=st.tuples(*[st.integers(-30, 30)] * 3),
    caps=st.tuples(*[st.integers(0, 3)] * 3),
)
@settings(max_examples=80, deadline=None)
def test_norm_lines_match_norm_omega(s, p, y, caps):
    """On the basis of Pi_{p^f} (every f above p) or of (y) when y != 0,
    each line's cubic gives norm_omega of every point on the line."""
    O = _order_of(s)
    if any(y):
        ideals = [element_ideal(O, y)]
    else:
        ideals = [pi_ideal(O, p**f) for f in sorted({q.f for q in factor_prime(O, p)})]
    for I in ideals:
        form = O.norm_form(I.hnf)
        r0, r1, r2 = I.hnf
        for c0, c1, xs in lattice_lines(caps):
            A, B, C, D = norm_line(form, c0, c1)
            for x in xs:
                point = tuple(c0 * a + c1 * b + x * d for a, b, d in zip(r0, r1, r2))
                assert ((A * x + B) * x + C) * x + D == O.norm_omega(point), (I, c0, c1, x)


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


@pytest.mark.parametrize("poly", ["x^3-2", "x^3-x^2-2x-8", "x^3-12x^2-5x-4"])
def test_maximal_order_builds_each_table_once(monkeypatch, poly):
    # the last enlargement step and the MaximalOrder share one lattice
    import functools

    from polyakit import cubicfield

    built = []
    table = cubicfield.Order.mult_table.func

    def counting(self):
        built.append((self.den, self.basis_num))
        return table(self)

    counted = functools.cached_property(counting)
    counted.__set_name__(cubicfield.Order, "mult_table")
    monkeypatch.setattr(cubicfield.Order, "mult_table", counted)
    O = maximal_order(parse_cubic(poly))
    O.omega_mul(O.one, O.one)
    assert len(built) == len(set(built))
    assert (O.den, O.basis_num) in built


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


def test_factor_prime_matches_sympy_prime_decomp():
    """Independent oracle for (e, f): sympy's prime_decomp, given the
    maximal order from its own round_two, splits every p <= 30 the same
    way on a fixed slice of the |a_i| <= 12 box (every 61st triple).

    Primes dividing the index [O_K : Z[theta]] are skipped and counted:
    there sympy 1.14 raises (AssertionError, ClosureFailure) or does not
    return at all (x^3-8x^2-x-8 and x^3+10x^2-7x+8 at p = 2 ran past
    5 s).  The norm-derived valuations of the relation harvest rest on
    these (e, f).
    """
    from sympy import Poly, symbols
    from sympy.polys.numberfields.basis import round_two
    from sympy.polys.numberfields.primes import prime_decomp

    x = symbols("x")
    checked = skipped = 0
    for a2, a1, a0 in itertools.islice(itertools.product(range(-12, 13), repeat=3), 0, None, 61):
        try:
            O = maximal_order(CubicPoly(a2, a1, a0))
        except ReduciblePolynomialError:
            continue
        T = Poly(x**3 + a2 * x**2 + a1 * x + a0, x)
        ZK, dK = round_two(T)
        assert dK == O.disc_K
        for p in primes_up_to(30):
            ours = sorted((q.e, q.f) for q in factor_prime(O, p))
            assert sum(e * f for e, f in ours) == 3
            if O.index % p == 0:
                skipped += 1
                continue
            theirs = sorted((P.e, P.f) for P in prime_decomp(p, T=T, ZK=ZK, dK=dK))
            assert ours == theirs, (a2, a1, a0, p)
            checked += 1
    assert (checked, skipped) == (2212, 78)


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
    """Every prime above p has norm p^f and holds p; away from the index
    it also holds g(theta) for its factor g of f mod p (the generic
    path's g, paired by position)."""
    for s in FIXTURE_POLYS:
        O = orders[s]
        for p in primes_up_to(60):
            primes = factor_prime(O, p)
            for q in primes:
                assert ideal_norm(q.as_integral()) == p**q.f
                assert q.as_integral().contains(tuple(p * c for c in O.one))
            if O.index % p:
                generic = generic_factor_prime(O, p)
                assert len(generic) == len(primes), (s, p)
                for q, (_, _, _, _, g, _) in zip(primes, generic):
                    assert q.as_integral().contains(poly_of_theta_omega(O, g)), (s, p)


def _prime_tuples(O, p):
    return [(q.p, q.f, q.e, q.hnf, q.label) for q in factor_prime(O, p)]


def _generic_tuples(O, p):
    return [(p, f, e, hnf, label) for p, f, e, hnf, _, label in generic_factor_prime(O, p)]


ABOVE_SCAN_LIMIT = (1409, 1601, 2003, 3001)


def test_factor_prime_matches_the_generic_path():
    """Away from the index, the primes built from roots of f mod p are the
    primes of the generic path (factor f mod p, then the HNF of
    p*O + g(theta)*O) field by field: hnf, label, order."""
    assert min(ABOVE_SCAN_LIMIT) > cubicfield._ROOT_SCAN_LIMIT
    seen, seen_above = set(), set()
    for s in FIXTURE_POLYS + ("x^3-12x-5", "x^3-8x^2-2x-9", "x^3-12x^2-5x-4"):
        O = _order_of(s)
        for p in primes_up_to(200) + list(ABOVE_SCAN_LIMIT):
            if O.index % p:
                assert _prime_tuples(O, p) == _generic_tuples(O, p), (s, p)
                seen.update((min(p, 5), q.f, q.e) for q in factor_prime(O, p))
                if p > 200:
                    seen_above.add(tuple(q.f for q in factor_prime(O, p)))
    # p = 2 and p = 3 off the index, double and triple roots, f = 2 and 3
    assert {(2, 1, 3), (3, 1, 3), (5, 1, 2), (5, 2, 1), (5, 3, 1)} <= seen
    assert {(2, 1, 1), (3, 1, 1), (5, 1, 1)} <= seen
    # every unramified pattern on the modpoly.roots_mod_p side
    assert seen_above == {(1, 1, 1), (1, 2), (3,)}


def _box_field(t):
    try:
        return CubicPoly(*t)
    except ReduciblePolynomialError:
        return None


@given(
    poly=st.tuples(*[st.integers(-16, 16)] * 3).map(_box_field).filter(bool),
    ps=st.lists(st.sampled_from(primes_up_to(200) + list(ABOVE_SCAN_LIMIT)), min_size=1, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_factor_prime_matches_the_generic_path_on_box_16(poly, ps):
    """The same comparison on drawn |a_i| <= 16 fields, with primes on
    both sides of the root-scan crossover."""
    O = maximal_order(poly)
    for p in ps:
        if O.index % p:
            assert _prime_tuples(O, p) == _generic_tuples(O, p), (poly, p)


def test_factor_prime_off_the_index_factors_no_polynomial(monkeypatch):
    """A non-index factor_prime call reaches neither the cubic factoring
    of modpoly nor an HNF reduction: every prime is in closed form."""
    O = maximal_order(parse_cubic("x^3-x^2-2x-8"))  # fresh: empty prime cache

    def forbidden(*args, **kwargs):
        raise AssertionError("reached on a non-index prime")

    monkeypatch.setattr(cubicfield.modpoly, "factor_monic_cubic", forbidden)
    monkeypatch.setattr(cubicfield, "hnf_rows", forbidden)
    ps = [p for p in primes_up_to(200) + list(ABOVE_SCAN_LIMIT) if O.index % p]
    assert len(ps) == 49
    for p in ps:
        assert sum(q.e * q.f for q in factor_prime(O, p)) == 3


def test_large_index_orders_factor_consistently():
    """Fields whose equation order has index 9 and 10: the index primes
    are read off the roots of a p-generator's characteristic polynomial;
    the factorization identity and the ramification criterion must still
    hold on the nose at every p <= 60."""
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


INDEX_9_POLY = "x^3-8x^2-2x-9"
INDEX_10_POLY = "x^3-12x^2-5x-4"


def _constructed_poly(p, c, b):
    """The minimal polynomial of theta = p*beta + c, beta a root of
    x^3 + b2 x^2 + b1 x + b0 with b = (b2, b1, b0): Z[theta] has index
    p^3 in Z[beta], so p divides the index of the field."""
    b2, b1, b0 = b
    # p^3 * g((x - c) / p), expanded in x
    return CubicPoly(
        b2 * p - 3 * c,
        3 * c * c - 2 * b2 * p * c + b1 * p * p,
        -c**3 + b2 * p * c * c - b1 * p * p * c + b0 * p**3,
    )


@lru_cache(maxsize=None)
def _index_pairs():
    """(order, p) for every prime p dividing the index of every field of
    a slice of the |a_i| <= 12 box (every 3rd triple), of the index-9 and
    index-10 fields, and of p*beta + c constructions with index primes
    on both sides of the root-scan crossover."""
    box = itertools.product(range(-12, 13), repeat=3)
    polys = [_box_field(t) for t in itertools.islice(box, 0, None, 3)]
    polys += [parse_cubic(INDEX_9_POLY), parse_cubic(INDEX_10_POLY)]
    polys += [
        _constructed_poly(p, c, b)
        for p in (5, 41, 1009) + ABOVE_SCAN_LIMIT[:2]
        for c, b in ((1, (0, -1, -1)), (-2, (0, 0, -2)), (3, (-1, -2, 1)))
    ]
    pairs = []
    for poly in filter(None, polys):
        O = maximal_order(poly)
        pairs += [(O, p) for p in cubicfield.factor_int(O.index)]
    return pairs


def test_index_primes_multiply_to_p():
    """At every index pair: the primes are distinct, prod P^e = p*O, and
    some e > 1 exactly when p divides disc_K."""
    assert len(_index_pairs()) == 1543
    for O, p in _index_pairs():
        facs = factor_prime(O, p)
        assert len({q.hnf for q in facs}) == len(facs), (O.poly, p)
        acc = IntegralIdeal.unit()
        for q in facs:
            acc = ideal_product(O, acc, ideal_pow(O, q.as_integral(), q.e))
        assert acc == IntegralIdeal.from_scalar(p), (O.poly, p)
        assert any(q.e > 1 for q in facs) == (O.disc_K % p == 0), (O.poly, p)


def test_index_prime_degree_one_count_matches_hom_oracle():
    """Independent oracle at index primes: the number of degree-1 primes
    over p equals the number of unital GF(p)-algebra homomorphisms
    O -> GF(p), counted by brute force over all linear functionals, at
    every index pair with p <= 37."""
    checked = 0
    for O, p in _index_pairs():
        if p > 37:
            continue
        table = O.mult_table
        one = O.one
        homs = 0
        for phi in itertools.product(range(p), repeat=3):

            def apply(v):
                return (v[0] * phi[0] + v[1] * phi[1] + v[2] * phi[2]) % p

            if apply(one) != 1 % p:
                continue
            if all(apply(table[i][j]) == (phi[i] * phi[j]) % p for i in range(3) for j in range(3)):
                homs += 1
        deg1 = sum(1 for q in factor_prime(O, p) if q.f == 1)
        assert deg1 == homs, (O.poly, p)
        checked += 1
    assert checked == 1531


def test_p_generator_missing_exactly_when_2_splits_completely(monkeypatch):
    """factor_prime falls back to the ring maps O -> F_2 exactly when 2
    splits into three degree-1 primes, and then no element of O/2O is a
    p-generator: det(1, alpha, alpha^2) is even for all eight."""
    found, p_generator = {}, cubicfield._p_generator

    def spy(order, p):
        found[order.poly, p] = p_generator(order, p)
        return found[order.poly, p]

    fallbacks = 0
    for O, p in _index_pairs() + [(maximal_order(parse_cubic("x^3-x^2-2x-8")), 2)]:
        O = maximal_order(O.poly)  # fresh: an empty prime cache
        with monkeypatch.context() as m:
            m.setattr(cubicfield, "_p_generator", spy)
            facs = factor_prime(O, p)
        split = p == 2 and [(q.f, q.e) for q in facs] == [(1, 1)] * 3
        assert (found[O.poly, p] is None) == split, (O.poly, p)
        if split:
            fallbacks += 1
            for alpha in itertools.product(range(2), repeat=3):
                powers = (O.one, alpha, O.omega_mul(alpha, alpha))
                assert det3(powers) % 2 == 0, (O.poly, alpha)
    assert fallbacks == 107


def test_index_prime_splitting_nonmonogenic(orders):
    # 2 is totally split in the index-2 field: that is exactly why no
    # single polynomial generator can work at 2
    O = orders["x^3-x^2-2x-8"]
    f2 = factor_prime(O, 2)
    assert [(q.f, q.e) for q in f2] == [(1, 1), (1, 1), (1, 1)]
    assert len({q.hnf for q in f2}) == 3


def _walk_valuation(O, q, y):
    """v_q(y) by testing y against q, q^2, ... (reference)."""
    k, power = 0, q.as_integral()  # power = q^(k+1)
    while power.contains(y):
        k += 1
        power = ideal_product(O, power, q.as_integral())
    return k


VALUATION_POLYS = FIXTURE_POLYS + (INDEX_10_POLY,)


@pytest.mark.parametrize("s", FIXTURE_POLYS + (INDEX_9_POLY, INDEX_10_POLY))
def test_multiplier_tau_contract(s):
    """For every prime P above p <= 50: tau * P lies in p*O, tau does not,
    and v_P(tau) = e - 1 by the walk (so v_P(tau / p) = -1)."""
    O = _order_of(s)
    for p in primes_up_to(50):
        for q in factor_prime(O, p):
            rows = _multiplier_rows(O, p, q.hnf)
            tau = tuple(sum(O.one[i] * rows[i][k] for i in range(3)) for k in range(3))
            for w in q.hnf:
                tau_w = [sum(w[i] * rows[i][k] for i in range(3)) for k in range(3)]
                assert all(c % p == 0 for c in tau_w), (s, q.label)
            assert any(c % p for c in tau), (s, q.label)
            assert _walk_valuation(O, q, tau) == q.e - 1, (s, q.label)


@settings(max_examples=40, deadline=None)
@given(
    s=st.sampled_from(VALUATION_POLYS),
    coords=st.tuples(*[st.integers(-30, 30)] * 3).filter(any),
    scale=st.sampled_from((0, 1, 2, 12, 24)),
)
def test_element_valuation_matches_power_walk(s, coords, scale):
    """Every prime above every p <= 50: split, ramified, f = 2 and f = 3,
    index primes.  Scaling y by p^12 or p^24 makes tau take 12 or 24
    integral steps (or more) before the valuation is read off."""
    O = _order_of(s)
    for p in primes_up_to(50):
        y = tuple(c * p**scale for c in coords)
        for q in factor_prime(O, p):
            assert element_valuation(O, y, q) == _walk_valuation(O, q, y), (s, p, q.label)


@pytest.mark.parametrize("s, p", [("x^3-x^2-2x-8", 2), ("x^3-2", 5)])
def test_valuation_of_zero_raises(s, p):
    """Zero lies in every power of P, so no valuation exists: the index
    primes above 2 and the degree-1 and f = 2 primes above 5 all raise."""
    O = _order_of(s)
    for q in factor_prime(O, p):
        with pytest.raises(ValueError, match="zero element"):
            valuation(valuation_kernel(O, q), (0, 0, 0))


@pytest.mark.parametrize("s", ["x^3-x^2-2x-8", INDEX_10_POLY])
def test_index_prime_multiplier_built_once(monkeypatch, s):
    """tau is built once per prime, by valuation_kernel: factor_prime
    builds none at an index prime, the first kernel call builds it, and
    a second call builds nothing."""
    O = maximal_order(parse_cubic(s))  # fresh: empty prime and kernel caches
    calls = []

    def spy(order, p, hnf):
        calls.append(hnf)
        return _multiplier_rows(order, p, hnf)

    monkeypatch.setattr(cubicfield, "_multiplier_rows", spy)
    index_primes = [p for p in primes_up_to(50) if O.index % p == 0]
    assert index_primes
    for p in index_primes:
        primes = factor_prime(O, p)
        assert calls == [], (s, p)
        kernels = [valuation_kernel(O, q) for q in primes]
        assert calls == [q.hnf for q in primes], (s, p)
        assert [valuation_kernel(O, q) for q in primes] == kernels
        assert len(calls) == len(primes)
        # the kernel is (p, tau rows); the module's import is the unpatched builder
        assert kernels == [(p, _multiplier_rows(O, p, q.hnf)) for q in primes]
        calls.clear()


def test_tau_valuation_agrees_with_lattice_walk(orders):
    """element_valuation against the walk on small random elements, at
    every prime above a few split, ramified and inert p."""
    rng = random.Random(3)
    for s in FIXTURE_POLYS:
        O = orders[s]
        for p in (2, 3, 5, 7, 11, 31):
            for q in factor_prime(O, p):
                for _ in range(25):
                    y = tuple(rng.randint(-9, 9) for _ in range(3))
                    if y == (0, 0, 0):
                        continue
                    assert element_valuation(O, y, q) == _walk_valuation(O, q, y), (s, p, y)


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


def _nongalois_field(t):
    try:
        poly = CubicPoly(*t)
    except ReduciblePolynomialError:
        return None
    return None if poly.is_galois() else poly


@given(
    poly=st.tuples(*[st.integers(-12, 12)] * 3).map(_nongalois_field).filter(bool),
    p=st.sampled_from(primes_up_to(50)),
    y=st.tuples(*[st.integers(-6, 6)] * 3).filter(any),
    search_args=st.sampled_from(((2.0, 100000), (1.3, 8000), (3.0, 100000))),
)
@settings(max_examples=30, deadline=None)
def test_is_principal_matches_the_full_scan_on_drawn_fields(poly, p, y, search_args):
    """On box-12 non-Galois fields, every Pi_{p^f} above p and the
    principal ideal (y), whose generators lie deep in the box: the same
    outcome as the full scan, None and the budget error included."""
    O = maximal_order(poly)
    assume(abs(O.norm_omega(y)) > 1)  # (y) = O is the scalar case

    def outcome(search, I):
        try:
            return search(O, I, *search_args)
        except SearchBudgetExceededError:
            return "over budget"

    ideals = [pi_ideal(O, p**f) for f in sorted({q.f for q in factor_prime(O, p)})]
    for I in ideals + [element_ideal(O, y)]:
        assert outcome(is_principal, I) == outcome(_full_box_generator, I), (poly, I.hnf)


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
