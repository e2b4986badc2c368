"""Cubic field arithmetic: orders, prime splitting, ideals, principality.

The fixture corpus is the three fields exercised throughout (x^3-2,
x^3-x-1, and the classical index-2 field x^3-x^2-2x-8) plus the cyclic
cubic x^3-3x-1 and the first complex cubic with nontrivial class group.
"""

import itertools
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyakit import (
    CubicPoly,
    IntegralIdeal,
    ReduciblePolynomialError,
    element_ideal,
    factor_prime,
    ideal_equal,
    ideal_product,
    is_principal,
    maximal_order,
    minkowski_bound,
    parse_cubic,
    pi_ideal,
    splitting_types,
)
from polyakit import cli, cubicfield
from polyakit.cubicfield import (
    SearchBudgetExceededError,
    _canonical_lattice,
    element_valuation,
    mul_power,
    iter_primes_up_to,
    norm_line,
    primes_up_to,
    valuation,
    valuation_kernel,
)
from polyakit.intlinalg import adj3, det3, invert3, lattice_lines

from fieldref import (
    census_by_root_count, exponent_norm_form, generic_factor_prime, ideal_pow,
    is_p_maximal_dedekind, lattice_contains, multiplier_rows, norm_power, pgcd, pmul, pnorm,
    poly_of_theta_omega, power_mult_table, power_sums, power_valuation_kernel, ring_map_kernels,
    roots_mod_p, scalar_ideal, to_omega_int,
)

FIXTURE_POLYS = ("x^3-2", "x^3-x-1", "x^3-x^2-2x-8", "x^3-3x-1", "x^3+4x-1")


@pytest.fixture(scope="module")
def orders():
    return {s: maximal_order(parse_cubic(s)) for s in FIXTURE_POLYS}


@lru_cache(maxsize=None)
def _order_of(s):
    return maximal_order(parse_cubic(s))


def _box_field(t):
    try:
        return CubicPoly(*t)
    except ReduciblePolynomialError:
        return None


# --- polynomials ------------------------------------------------------------

def test_discriminant_examples():
    assert parse_cubic("x^3-2").discriminant() == -108
    assert parse_cubic("x^3-x-1").discriminant() == -23
    assert parse_cubic("x^3-3x-1").discriminant() == 81


def test_discriminant_general_formula_against_root_products():
    # disc = prod (r_i - r_j)^2; checked numerically on a general cubic
    from polyakit.cubicfield import cubic_roots

    poly = parse_cubic("x^3+2x^2-5x+1")
    rs = cubic_roots(poly)
    prod = ((rs[0] - rs[1]) * (rs[0] - rs[2]) * (rs[1] - rs[2])) ** 2
    assert abs(prod.real - poly.discriminant()) < 1e-6 * max(1, abs(poly.discriminant()))
    assert abs(prod.imag) < 1e-6


def test_is_galois_examples():
    assert not parse_cubic("x^3-2").is_galois()
    assert parse_cubic("x^3-3x-1").is_galois()
    assert not parse_cubic("x^3-x-1").is_galois()


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
    c = _order_of(s).basis_norm_form
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
    the cubic of the lines through each c0, its coefficients evaluated
    at the line's c1, gives norm_omega of every point on the line."""
    O = _order_of(s)
    if any(y):
        ideals = [element_ideal(O, y)]
    else:
        ideals = [pi_ideal(O, p**f) for f in sorted({q.f for q in factor_prime(O, p)})]
    for I in ideals:
        form = O.norm_form(I.hnf)
        r0, r1, r2 = I.hnf
        for c0, c1, xs in lattice_lines(caps):
            polys = norm_line(form, c0)
            assert [len(coeffs) for coeffs in polys] == [1, 2, 3, 4]
            A, B, C, D = (sum(k * c1**j for j, k in enumerate(coeffs)) for coeffs in polys)
            for x in xs:
                point = tuple(c0 * a + c1 * b + x * d for a, b, d in zip(r0, r1, r2))
                assert ((A * x + B) * x + C) * x + D == O.norm_omega(point), (I, c0, c1, x)


def test_norm_form_matches_exponent_dict_reference():
    """norm_form's coefficients equal the exponent-dict reference's on
    the identity rows, the HNF of a few element ideals and of every
    prime above p <= 30, in the fixture fields and in 40 drawn fields
    of the |a_i| <= 12 box."""
    rng = random.Random(34)
    polys = [parse_cubic(s) for s in FIXTURE_POLYS]
    while len(polys) < len(FIXTURE_POLYS) + 40:
        poly = _box_field(tuple(rng.randint(-12, 12) for _ in range(3)))
        if poly is not None:
            polys.append(poly)
    for poly in polys:
        O = maximal_order(poly)
        bases = [((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        for _ in range(3):
            y = tuple(rng.randint(-9, 9) for _ in range(3))
            if any(y):
                bases.append(element_ideal(O, y).hnf)
        bases += [q.hnf for p in primes_up_to(30) for q in factor_prime(O, p)]
        for rows in bases:
            assert O.norm_form(rows) == exponent_norm_form(O, rows), (poly, rows)
        assert O.basis_norm_form == exponent_norm_form(O, bases[0])


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


def _round_two_lattice(poly):
    """((den, basis_num), disc_K) of sympy's Round Two maximal order,
    with the lattice in the canonical form of maximal_order."""
    from sympy import Poly, symbols
    from sympy.polys.numberfields.basis import round_two

    x = symbols("x")
    ZK, dK = round_two(Poly(x**3 + poly.a2 * x**2 + poly.a1 * x + poly.a0, x))
    M = ZK.matrix.to_Matrix()
    columns = [[int(M[i, j]) for i in range(3)] for j in range(M.cols)]
    return _canonical_lattice(int(ZK.denom), columns), int(dK)


@pytest.mark.parametrize("s", FIXTURE_POLYS)
def test_maximal_order_lattice_matches_round_two_on_fixtures(orders, s):
    O = orders[s]
    assert _round_two_lattice(O.poly) == ((O.den, O.basis_num), O.disc_K)


@given(
    st.tuples(*[st.integers(-60, 60)] * 3),
    st.sampled_from((1, 2, 3, 4, 6, 9, 10, 12, 25)),
)
@settings(max_examples=80, deadline=None)
def test_maximal_order_lattice_matches_round_two(coeffs, k):
    """Independent oracle for the whole lattice: sympy's Round Two gives
    the same integral basis and disc_K.  Scaling f to k^3 f(x/k) puts the
    index primes 2, 3 and 5 in."""
    a2, a1, a0 = coeffs
    try:
        poly = CubicPoly(k * a2, k * k * a1, k**3 * a0)
    except ReduciblePolynomialError:
        assume(False)
    O = maximal_order(poly)
    assert _round_two_lattice(poly) == ((O.den, O.basis_num), O.disc_K)


@pytest.mark.parametrize("k", [1000003, 10**9 + 7])
@pytest.mark.parametrize(
    "coeffs, disc_K", [((0, 0, -2), -108), ((1, -2, -1), 49), ((0, -3, -1), 81)]
)
def test_maximal_order_at_a_huge_index_prime(k, coeffs, disc_K):
    """k^3 f(x/k) has index k^3 at a prime k far above the root scan:
    the double roots mod k come from the Hessian, never from scanning F_k."""
    a2, a1, a0 = coeffs
    start = time.perf_counter()
    O = maximal_order(CubicPoly(k * a2, k * k * a1, k**3 * a0))
    assert time.perf_counter() - start < 1.0
    assert (O.index, O.disc_K) == (k**3, disc_K)


def test_maximal_order_moves_the_double_root_at_a_huge_prime():
    """f = x(x - 5)^2 + p^2 with p = 1000003: mod p, f has the simple
    root 0 and the double root 5, and only the double root may move to
    (1:0), although p^2 divides f(0) as well."""
    p = 1000003
    O = maximal_order(CubicPoly(-10, 25, p * p))
    assert O.index == p
    assert _round_two_lattice(O.poly) == ((O.den, O.basis_num), O.disc_K)


def test_maximal_order_refuses_two_large_discriminant_primes():
    """The factoring budget, below the class-group cap: for k = 1000003,
    k^3 f(x/k) with f = x^3 + x + 195 has index k^3 and d_K = -1026679,
    a prime, so disc = -1026679 * k^6 leaves a cofactor that is neither
    a prime nor a prime power and is refused unfactored.  Its Minkowski
    bound is about 290, well under classgroup's cap."""
    k = 1000003
    with pytest.raises(SearchBudgetExceededError, match="not a prime power"):
        maximal_order(CubicPoly(0, k * k, 195 * k**3))
    # one large prime, or a power of one, is accepted
    assert maximal_order(CubicPoly(0, 1, 195)).disc_K == -1026679


def _scanned_double_root(form, p):
    a, b, c, d = form
    for r in range(p):
        if not (((a * r + b) * r + c) * r + d) % p and not ((3 * a * r + 2 * b) * r + c) % p:
            return r
    return None


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_double_root_matches_the_scan_on_every_form(p):
    """The Hessian's double root against trying every residue, on every
    form mod p with a or b a unit (the forms a p-step asks about)."""
    found = 0
    for form in itertools.product(range(p), repeat=4):
        if form[0] or form[1]:
            r = cubicfield._double_root(form, p)
            assert r == _scanned_double_root(form, p), (form, p)
            found += r is not None
    assert found


def test_double_root_matches_the_general_gcd_on_seeded_forms():
    """Up to p = 1000003: the root of gcd(F(x, 1), F'(x, 1)) by fieldref's
    general arithmetic, on random forms and on forms with a planted double
    or triple root, some with p | a; the scan as well where p < 2000."""
    rng = random.Random(28)
    ps = [2, 3, 5, 163, 1009, 1999, 65537, 1000003] + rng.sample(primes_up_to(20000), 12)
    kinds = set()
    for p in ps:
        for _ in range(60):
            kind = rng.randrange(4)
            r, s, lead = rng.randrange(p), rng.randrange(p), rng.randrange(p)
            if kind == 0:
                fx = tuple(rng.randrange(p) for _ in range(4))
            else:  # (x - r)^2 (lead x - lead s), or (x - r)^3 times lead, or p | a
                tail = (-r * lead, lead) if kind == 2 else (-s * lead, lead) if kind == 1 else (-s, 0)
                fx = pmul(pmul((-r, 1), (-r, 1), p), tail if any(c % p for c in tail) else (1,), p)
                fx = tuple(fx) + (0,) * (4 - len(fx))
            a, b, c, d = (x + p * rng.randrange(-3, 4) for x in fx[::-1])
            if not (a % p or b % p):
                continue
            common = pgcd(pnorm((d, c, b, a), p), pnorm((c, 2 * b, 3 * a), p), p)
            expect = (roots_mod_p(common, p) or [None])[0] if len(common) > 1 else None
            got = cubicfield._double_root((a, b, c, d), p)
            assert got == expect, ((a, b, c, d), p)
            if p < 2000:
                assert got == _scanned_double_root((a, b, c, d), p)
            kinds.add((kind, got is None))
    assert {(0, True), (1, False), (2, False), (3, False)} <= kinds


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
        3825123056546413051,  # to the first nine prime bases
        318665857834031151167461,  # to the first twelve: 41 finds it out
        3317044064679887385961981,  # to the first thirteen: the limit, sympy's
        (2**61 - 1) * (2**31 - 1),
        2**61 - 1,
        10**12 + 39,
    ],
)
def test_is_prime_on_strong_pseudoprimes(n):
    assert cubicfield.is_prime(n) == sympy.isprime(n)


def test_is_prime_matches_sympy_above_the_trial_division():
    rng = random.Random(2015)
    ns = [rng.randrange(10**10, 10**24) | 1 for _ in range(3000)]
    ns += [rng.randrange(400000, 10**10) | 1 for _ in range(3000)]
    ns += list(range(499001, 501001, 2))
    ns += [sympy.randprime(10**10, 10**24) for _ in range(200)]
    ns += [sympy.randprime(10**5, 10**12) * sympy.randprime(10**5, 10**12) for _ in range(200)]
    assert sum(map(sympy.isprime, ns)) > 300
    for n in ns:
        assert cubicfield.is_prime(n) == sympy.isprime(n), n


def test_square_primes_reads_prime_powers():
    q, r = 100003, 1000003
    assert cubicfield._square_primes(12 * q) == [2]
    assert cubicfield._square_primes(-5 * r**2) == [r]
    assert cubicfield._square_primes(4 * q**3) == [2, q]
    assert cubicfield._square_primes(q**6) == [q]
    assert cubicfield._square_primes(7 * sympy.nextprime(10**20)) == []
    for n in (q * r, q**2 * r**2, q**3 * r**3):
        with pytest.raises(SearchBudgetExceededError, match="not a prime power"):
            cubicfield._square_primes(n)


def test_primality_below_the_bound_never_imports_sympy():
    """is_prime on a prime above 10^10 and _square_primes on a prime
    power above it run in a fresh process without importing sympy."""
    code = (
        "import sys\n"
        "from polyakit import cubicfield\n"
        "assert cubicfield.is_prime(10**12 + 39) and not cubicfield.is_prime(3825123056546413051)\n"
        "assert cubicfield._square_primes(-23 * 1000003**2) == [1000003]\n"
        "assert 'sympy' not in sys.modules, 'sympy imported'\n"
    )
    src = str(Path(cubicfield.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("poly", ["x^3-2", "x^3-x^2-2x-8", "x^3-12x^2-5x-4"])
def test_maximal_order_builds_each_table_once(monkeypatch, poly):
    # the form p-steps build no order arithmetic: the multiplication
    # table is built once, on first use
    import functools

    built = []
    table = cubicfield.MaximalOrder.mult_table.func

    def counting(self):
        built.append((self.den, self.basis_num))
        return table(self)

    counted = functools.cached_property(counting)
    counted.__set_name__(cubicfield.MaximalOrder, "mult_table")
    monkeypatch.setattr(cubicfield.MaximalOrder, "mult_table", counted)
    O = maximal_order(parse_cubic(poly))
    assert "mult_table" not in vars(O)
    assert built == []
    O.omega_mul(O.one, O.one)
    O.omega_mul(O.one, O.one)
    assert built == [(O.den, O.basis_num)]


def _form_product(form, y, z):
    """y * z on the basis 1, omega = a*xi, theta = a*xi^2 + b*xi of the
    cubic ring of form = (a, b, c, d): omega^2 = -b*omega + a*theta,
    omega*theta = -a*d - c*omega, theta^2 = -b*d - d*omega - c*theta."""
    a, b, c, d = form
    y0, y1, y2 = y
    z0, z1, z2 = z
    ww, wt, tt = y1 * z1, y1 * z2 + y2 * z1, y2 * z2
    return (
        y0 * z0 - a * d * wt - b * d * tt,
        y0 * z1 + y1 * z0 - b * ww - c * wt - d * tt,
        y0 * z2 + y2 * z0 + a * ww - c * tt,
    )


@given(poly=st.tuples(*[st.integers(-16, 16)] * 3).map(_box_field).filter(bool))
@settings(max_examples=120, deadline=None)
def test_maximal_order_is_the_ring_of_its_form(poly):
    """disc(F) = disc_K, `form_basis` is unimodular, it sends 1 to 1, and
    the multiplication table of the cubic ring of F, carried over by
    `form_basis`, is the order's own."""
    O = maximal_order(poly)
    a, b, c, d = O.form
    disc_F = b * b * c * c - 4 * a * c**3 - 4 * b**3 * d - 27 * a * a * d * d + 18 * a * b * c * d
    assert disc_F == O.disc_K
    T = O.form_basis
    assert abs(det3(T)) == 1
    assert tuple(sum(O.one[i] * T[i][k] for i in range(3)) for k in range(3)) == (1, 0, 0)
    back, det = adj3(T), det3(T)
    for i in range(3):
        for j in range(3):
            z = _form_product(O.form, T[i], T[j])
            omega = tuple(det * sum(z[k] * back[k][l] for k in range(3)) for l in range(3))
            assert omega == O.mult_table[i][j]


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


def test_dedekind_criterion_agrees_with_the_form_p_steps():
    for s in FIXTURE_POLYS + ("x^3+6x^2+9x+3", "x^3-12x-12", "x^3+9x+9", "x^3-x^2+3x+9"):
        poly = parse_cubic(s)
        O = maximal_order(poly)
        d = poly.discriminant()
        for p in (2, 3, 5, 7):
            if d % (p * p):
                continue
            # Z[theta] is p-maximal iff the p-steps at p gained nothing
            assert is_p_maximal_dedekind(poly, p) == (O.index % p != 0), (s, p)


def test_mult_table_is_integral(orders):
    for s in FIXTURE_POLYS:
        O = orders[s]
        table = O.mult_table
        for i in range(3):
            for j in range(3):
                assert all(isinstance(c, int) for c in table[i][j])
        assert to_omega_int(O, (1, 0, 0)) == O.one


def test_form_products_match_the_power_basis_on_box_12():
    """The table, 1 and the valuation rows above every p <= 50, read off
    the form, equal fieldref's path through the power basis and the
    adjugates of basis_num and form_basis, on a seeded slice of box 12
    with 20 orders of index > 1."""
    for O in _box_12_census_slice():
        assert O.mult_table == power_mult_table(O), O.poly
        assert O.one == to_omega_int(O, (1, 0, 0)), O.poly
        for p in primes_up_to(50):
            for q in factor_prime(O, p):
                assert valuation_kernel(O, q) == power_valuation_kernel(O, q), (O.poly, q.label)


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


def test_factor_prime_reads_its_cache_before_testing_primality(monkeypatch):
    """A cached p was found prime when it was stored, so a repeated call
    returns the cached primes without is_prime; a composite p is never
    cached and still raises ValueError."""
    O = maximal_order(parse_cubic("x^3-x-1"))  # fresh: empty prime cache
    is_prime, calls = cubicfield.is_prime, []

    def counted(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(cubicfield, "is_prime", counted)
    first = factor_prime(O, 23)
    assert calls == [23]
    assert factor_prime(O, 23) is first
    assert calls == [23]
    with pytest.raises(ValueError, match="not prime"):
        factor_prime(O, 25)
    with pytest.raises(ValueError, match="not prime"):
        factor_prime(O, 25)
    assert calls == [23, 25, 25]


def test_factorization_identity(orders):
    for s in FIXTURE_POLYS:
        O = orders[s]
        for p in primes_up_to(60):
            acc = IntegralIdeal.unit()
            for q in factor_prime(O, p):
                acc = ideal_product(O, acc, ideal_pow(O, q.as_integral(), q.e))
            assert acc == scalar_ideal(p), (s, p)


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
                assert q.as_integral().norm == p**q.f
                assert lattice_contains(q.hnf, tuple(p * c for c in O.one))
            if O.index % p:
                generic = generic_factor_prime(O, p)
                assert len(generic) == len(primes), (s, p)
                for q, (_, _, _, _, g, _) in zip(primes, generic):
                    assert lattice_contains(q.hnf, poly_of_theta_omega(O, g)), (s, p)


def _prime_tuples(O, p):
    return [(q.p, q.f, q.e, q.hnf, q.label) for q in factor_prime(O, p)]


def _generic_tuples(O, p):
    return [(p, f, e, hnf, label) for p, f, e, hnf, _, label in generic_factor_prime(O, p)]


# two primes on each side of the root-scan crossover, then primes far above it
AROUND_SCAN_LIMIT = (151, 157, 163, 167, 1409, 1601, 2003, 3001)
COMPARED_PRIMES = sorted(set(primes_up_to(200)) | set(AROUND_SCAN_LIMIT))


def test_factor_prime_matches_the_generic_path():
    """Away from the index, the primes built from roots of f mod p are the
    primes of the generic path (factor f mod p, then the HNF of
    p*O + g(theta)*O) field by field: hnf, label, order."""
    assert AROUND_SCAN_LIMIT[1] < cubicfield._ROOT_SCAN_LIMIT < AROUND_SCAN_LIMIT[2]
    seen, seen_above = set(), set()
    for s in FIXTURE_POLYS + ("x^3-12x-5", "x^3-8x^2-2x-9", "x^3-12x^2-5x-4"):
        O = _order_of(s)
        for p in COMPARED_PRIMES:
            if O.index % p:
                assert _prime_tuples(O, p) == _generic_tuples(O, p), (s, p)
                seen.update((min(p, 5), q.f, q.e) for q in factor_prime(O, p))
                if p >= cubicfield._ROOT_SCAN_LIMIT:
                    seen_above.add(tuple(q.f for q in factor_prime(O, p)))
    # p = 2 and p = 3 off the index, double and triple roots, f = 2 and 3
    assert {(2, 1, 3), (3, 1, 3), (5, 1, 2), (5, 2, 1), (5, 3, 1)} <= seen
    assert {(2, 1, 1), (3, 1, 1), (5, 1, 1)} <= seen
    # every unramified pattern on the modpoly.roots_mod_p side
    assert seen_above == {(1, 1, 1), (1, 2), (3,)}


@given(
    poly=st.tuples(*[st.integers(-16, 16)] * 3).map(_box_field).filter(bool),
    ps=st.lists(st.sampled_from(COMPARED_PRIMES), min_size=1, max_size=8),
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
    ps = [p for p in COMPARED_PRIMES if O.index % p]
    assert len(ps) == 49
    for p in ps:
        assert sum(q.e * q.f for q in factor_prime(O, p)) == 3


def test_large_index_orders_factor_consistently():
    """Fields whose equation order has index 9 and 10: the index primes
    are read off the roots of the order's form on P^1(F_p), like every
    other prime; the factorization identity and the ramification
    criterion must still hold on the nose at every p <= 60."""
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
            assert acc == scalar_ideal(p), (s, p)
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
        for p in (5, 41, 1009) + AROUND_SCAN_LIMIT[1:3] + AROUND_SCAN_LIMIT[4:6]
        for c, b in ((1, (0, -1, -1)), (-2, (0, 0, -2)), (3, (-1, -2, 1)))
    ]
    pairs = []
    for poly in filter(None, polys):
        O = maximal_order(poly)
        pairs += [(O, p) for p in sorted(sympy.factorint(O.index))]
    return pairs


def test_index_primes_multiply_to_p():
    """At every index pair: the primes are distinct, prod P^e = p*O, and
    some e > 1 exactly when p divides disc_K."""
    assert len(_index_pairs()) == 1549
    for O, p in _index_pairs():
        facs = factor_prime(O, p)
        assert len({q.hnf for q in facs}) == len(facs), (O.poly, p)
        acc = IntegralIdeal.unit()
        for q in facs:
            acc = ideal_product(O, acc, ideal_pow(O, q.as_integral(), q.e))
        assert acc == scalar_ideal(p), (O.poly, p)
        assert any(q.e > 1 for q in facs) == (O.disc_K % p == 0), (O.poly, p)


def test_index_prime_degree_one_count_matches_hom_oracle():
    """Independent oracle at index primes: the degree-1 primes over p,
    and so their number, are the kernels of the unital GF(p)-algebra
    homomorphisms O -> GF(p), found by brute force over all linear
    functionals, at every index pair with p <= 37."""
    checked = 0
    for O, p in _index_pairs():
        if p > 37:
            continue
        deg1 = sorted(q.hnf for q in factor_prime(O, p) if q.f == 1)
        assert deg1 == ring_map_kernels(O, p), (O.poly, p)
        checked += 1
    assert checked == 1531


def test_two_split_completely_matches_the_ring_maps():
    """Where 2 splits into three degree-1 primes, no element of O/2O
    generates it, yet the form of O reads the three primes off its three
    roots on P^1(F_2): they are the kernels of the three ring maps
    O -> F_2 among the eight linear forms."""
    split = 0
    for O, p in _index_pairs() + [(maximal_order(parse_cubic("x^3-x^2-2x-8")), 2)]:
        if p != 2:
            continue
        kernels = ring_map_kernels(O, 2)
        if len(kernels) == 3:
            split += 1
            assert [(q.f, q.e, q.hnf) for q in factor_prime(O, 2)] == [(1, 1, k) for k in kernels]
    assert split == 107


@pytest.mark.parametrize(
    "s, p, parts",
    [
        ("x^3-12x^2-10x-12", 3, [(1, 1), (1, 1), (1, 1)]),  # 1+1+1
        ("x^3-12x^2-12x+5", 2, [(1, 1), (1, 2)]),  # (1:0) lone, quadratic cofactor
        ("x^3-12x^2-12x+10", 3, [(1, 1), (2, 1)]),  # (1:0) simple, finite double root
        ("x^3-12x^2-11x-10", 2, [(1, 1), (2, 1)]),  # (1:0) double
        ("x^3-12x^2-12x-12", 3, [(3, 1)]),  # (1:0) triple
    ],
)
def test_factor_prime_at_the_root_at_infinity(s, p, parts):
    """Primes at the root (1:0) of the form, which exists when p divides
    its leading coefficient: (e, f) match sympy's prime_decomp, the
    degree-1 primes match the ring-map oracle, and prod P^e = p*O."""
    from sympy import Poly, symbols
    from sympy.polys.numberfields.basis import round_two
    from sympy.polys.numberfields.primes import prime_decomp

    O = _order_of(s)
    assert O.form[0] % p == 0
    facs = factor_prime(O, p)
    assert sorted((q.e, q.f) for q in facs) == parts
    x = symbols("x")
    T = Poly(x**3 + O.poly.a2 * x**2 + O.poly.a1 * x + O.poly.a0, x)
    ZK, dK = round_two(T)
    assert sorted((P.e, P.f) for P in prime_decomp(p, T=T, ZK=ZK, dK=dK)) == parts
    assert sorted(q.hnf for q in facs if q.f == 1) == ring_map_kernels(O, p)
    acc = IntegralIdeal.unit()
    for q in facs:
        acc = ideal_product(O, acc, ideal_pow(O, q.as_integral(), q.e))
    assert acc == scalar_ideal(p)


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
    while lattice_contains(power.hnf, y):
        k += 1
        power = ideal_product(O, power, q.as_integral())
    return k


VALUATION_POLYS = FIXTURE_POLYS + (INDEX_10_POLY,)


def _closed_form_tau(O, p, q):
    """The multiplier of q read off the form F = (a, b, c, d) of O mod p,
    on the form basis (1, omega, theta) = (1, a*xi, a*xi^2 + b*xi): for a
    degree-1 prime, the root of F on P^1(F_p) whose ring map O -> F_p
    (xi -> r, or (1:0), omega -> -b, theta -> -c) kills q's HNF rows."""
    a, b, c, d = (x % p for x in O.form)
    roots = [r for r in range(p) if not (((a * r + b) * r + c) * r + d) % p]
    if q.f == 3:
        return (1, 0, 0)
    if q.f == 2:
        if a:
            (r,) = roots
            return (-a * r % p, 1, 0)
        assert not roots
        return (b, 1, 0)
    images = [((1, a * r, a * r * r + b * r), r) for r in roots] + [((1, -b, -c), None)] * (not a)
    (r,) = [
        r
        for image, r in images
        if all(
            sum(w[i] * sum(m * v for m, v in zip(O.form_basis[i], image)) for i in range(3)) % p == 0
            for w in q.hnf
        )
    ]
    if r is None:
        return (0, 1, 0)
    g1 = (b + a * r) % p
    return ((c + r * g1) % p, r, 1)


@pytest.mark.parametrize("s", FIXTURE_POLYS + (INDEX_9_POLY, INDEX_10_POLY))
def test_multiplier_tau_contract(s):
    """For every prime P above p <= 50, index primes 2, 3 and 5
    included: P's tau is the closed form of its root (g0 + r*omega +
    theta at a root (r:1), omega at (1:0), omega - a*r or omega + b for
    f = 2, 1 when inert), the kernel's rows are omega_i * tau, tau * P
    lies in p*O and tau does not, v_P(tau) = e - 1 by the walk (so
    v_P(tau / p) = -1), and the valuations equal those of the tau that
    fieldref finds by linear algebra mod p."""
    O = _order_of(s)
    rng = random.Random(s)
    for p in primes_up_to(50):
        for q in factor_prime(O, p):
            assert q.tau == _closed_form_tau(O, p, q), (s, q.label)
            kernel = valuation_kernel(O, q)
            rows = kernel[1]
            tau = tuple(sum(O.one[i] * rows[i][k] for i in range(3)) for k in range(3))
            assert rows == tuple(O.omega_mul(e, tau) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
            on_form = [sum(t * row[j] for t, row in zip(tau, O.form_basis)) for j in range(3)]
            assert on_form == list(q.tau), (s, q.label)
            for w in q.hnf:
                tau_w = [sum(w[i] * rows[i][k] for i in range(3)) for k in range(3)]
                assert all(c % p == 0 for c in tau_w), (s, q.label)
            assert any(c % p for c in tau), (s, q.label)
            assert _walk_valuation(O, q, tau) == q.e - 1, (s, q.label)
            oracle = (p, multiplier_rows(O, p, q.hnf))
            for _ in range(20):
                y = tuple(rng.randint(-30, 30) * p ** rng.randint(0, 4) for _ in range(3))
                if any(y):
                    assert valuation(kernel, y) == valuation(oracle, y), (s, q.label, y)


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


@pytest.mark.parametrize("s", ["x^3-x^2-2x-8", INDEX_9_POLY, INDEX_10_POLY])
def test_index_prime_multiplier_built_once(monkeypatch, s):
    """tau's rows are built once per prime, by valuation_kernel: at an
    index prime factor_prime only records tau and multiplies nothing,
    the first kernel call builds the three rows omega_i * tau, and a
    second call returns the cached kernel and builds nothing."""
    O = maximal_order(parse_cubic(s))  # fresh: empty prime and kernel caches
    calls = []
    omega_mul = cubicfield.MaximalOrder.omega_mul

    def spy(order, y, z):
        calls.append(z)
        return omega_mul(order, y, z)

    monkeypatch.setattr(cubicfield.MaximalOrder, "omega_mul", spy)
    index_primes = [p for p in primes_up_to(50) if O.index % p == 0]
    assert index_primes
    for p in index_primes:
        primes = factor_prime(O, p)
        assert calls == [] and O._valuation_cache == {}, (s, p)
        kernels = [valuation_kernel(O, q) for q in primes]
        assert len(calls) == 3 * len(primes), (s, p)
        assert all(valuation_kernel(O, q) is k for q, k in zip(primes, kernels))
        assert len(calls) == 3 * len(primes)
        assert [O._valuation_cache[q.hnf] for q in primes] == kernels
        assert all(k[0] == p for k in kernels)
        calls.clear()
        O._valuation_cache.clear()


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
    assert scalar_ideal(7).norm == 343


def test_product_of_split_primes_is_p(orders):
    O = orders["x^3-2"]
    acc = IntegralIdeal.unit()
    for q in factor_prime(O, 31):
        acc = ideal_product(O, acc, q.as_integral())
    assert acc == scalar_ideal(31)


def test_ideal_norm_multiplicative_random(orders):
    rng = random.Random(11)
    for s in FIXTURE_POLYS:
        O = orders[s]
        primes = [q for p in (2, 3, 5, 7, 11, 13) for q in factor_prime(O, p)]
        for _ in range(30):
            a = rng.choice(primes).as_integral()
            b = rng.choice(primes).as_integral()
            ab = ideal_product(O, a, b)
            assert ab.norm == a.norm * b.norm, s


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


def test_pi_ideal_never_factors_q(orders, monkeypatch):
    """A product of two primes above 10^20 is no prime power, and
    pi_ideal says so from its integer roots, without factoring it."""

    def no_factoring(n, *args, **kwargs):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(sympy, "factorint", no_factoring)
    p, r = sympy.nextprime(10**20), sympy.nextprime(10**21)
    O = orders["x^3-2"]
    assert pi_ideal(O, p * r).is_unit_ideal()
    assert pi_ideal(O, 5**2 * 7).is_unit_ideal()


def test_pi_ideal_matches_factoring_q(orders):
    """For every q <= 3000, pi_ideal agrees with the product of the
    primes of norm q found by factoring q."""
    for O in orders.values():
        for q in range(1, 3001):
            fac = sympy.factorint(q)
            want = IntegralIdeal.unit()
            if len(fac) == 1:
                (p, f), = fac.items()
                for prime in factor_prime(O, p):
                    if prime.f == f:
                        want = ideal_product(O, want, prime.as_integral())
            assert pi_ideal(O, q) == want, (O.poly, q)


def test_pi_ideal_x3_minus_2(orders):
    O = orders["x^3-2"]
    p5 = pi_ideal(O, 5)
    deg1 = [q for q in factor_prime(O, 5) if q.f == 1][0]
    assert p5 == deg1.as_integral()
    assert pi_ideal(O, 31) == scalar_ideal(31)


@pytest.mark.parametrize("s", ["x^3-3x-1", "x^3-12x-5", "x^3-x^2-2x-8"])
def test_split_products_are_the_pi_ideals(s):
    """The Ostrowski sweep's (p, f, Pi_{p^f}) on a Galois cubic, on the
    field whose units defeat the principality search, and on a field
    with the index prime 2."""
    O = _order_of(s)
    assert list(cubicfield.split_products(O, 500)) == [
        (p, f, pi_ideal(O, p**f))
        for p in primes_up_to(500)
        for f in sorted({q.f for q in factor_prime(O, p)})
    ]


def test_split_products_yields_before_sieving_to_the_bound():
    O = _order_of("x^3-3x-1")
    start = time.perf_counter()
    assert next(cubicfield.split_products(O, 10**9))[:2] == (2, 3)
    assert time.perf_counter() - start < 0.5


def test_pi_product_identity_small(orders):
    for s in FIXTURE_POLYS:
        O = orders[s]
        for p in primes_up_to(60):
            if O.disc_K % p == 0:
                continue
            acc = IntegralIdeal.unit()
            for f in sorted({q.f for q in factor_prime(O, p)}):
                acc = ideal_product(O, acc, pi_ideal(O, p**f))
            assert acc == scalar_ideal(p), (s, p)


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
    gen = is_principal(O, scalar_ideal(7))
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
            assert abs(O.norm_omega(gen)) == I.norm


def test_is_principal_negative_on_nontrivial_class(orders):
    O = orders["x^3+4x-1"]
    p2 = [q for q in factor_prime(O, 2) if q.f == 1][0]
    assert is_principal(O, p2.as_integral()) is None


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
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
            for search_args in ((2.0, 400000), (1.3, 8000), (0.1, 100)):
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
    search_args=st.sampled_from(
        ((2.0, 100000), (1.3, 8000), (3.0, 100000), (5.0, 400000), (0.1, 100))
    ),
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


def _slot_widths(monkeypatch):
    """The slot width of every packed power vector is_principal builds."""
    widths = []
    real = cubicfield._pack

    def recording(values, width):
        widths.append(width)
        return real(values, width)

    monkeypatch.setattr(cubicfield, "_pack", recording)
    return widths


def test_is_principal_matches_the_full_scan_on_slots_past_8_bytes(monkeypatch):
    """Norm forms whose box bound needs 9-byte slots: a generator found
    (7*(y) in x^3+4x-1) and no generator (P3*(y) in x^3+11x+6, each
    degree-1 P3 above 3), each as the full scan finds it."""
    widths = _slot_widths(monkeypatch)
    O = maximal_order(parse_cubic("x^3+4x-1"))
    I = element_ideal(O, (-56, -7, 49))
    assert is_principal(O, I, 2.0, 400000) == _full_box_generator(O, I, 2.0, 400000) is not None
    assert widths[-1] > 8
    O = maximal_order(parse_cubic("x^3+11x+6"))
    y = element_ideal(O, (5, -5, 2))
    outcomes = []
    for P in (q for q in factor_prime(O, 3) if q.f == 1):
        I = ideal_product(O, P.as_integral(), y)
        got = is_principal(O, I, 2.0, 400000)
        assert got == _full_box_generator(O, I, 2.0, 400000), P.label
        outcomes.append((got, widths[-1]))
    assert any(got is None and width > 8 for got, width in outcomes)


def test_first_slot_skips_a_match_inside_a_slot():
    """A pattern that first occurs across a slot boundary is not a match;
    the first slot-aligned occurrence of either pattern is."""
    hit, other = b"\x01\x02", b"\x07\x07"
    # slots 09 01 | 02 09 | 01 02: the first occurrence starts at byte 1
    assert cubicfield._first_slot(bytes([9, 1, 2, 9, 1, 2]), (hit, other), 2) == 2
    assert cubicfield._first_slot(bytes([9, 1, 2, 9, 9, 9]), (hit, other), 2) is None
    assert cubicfield._first_slot(bytes([9, 1, 2, 9, 9, 9]), (hit,), 2) is None
    assert cubicfield._first_slot(bytes([9, 1, 2, 9, 7, 7, 1, 2]), (hit, other), 2) == 2
    assert cubicfield._first_slot(bytes([7, 7, 1, 2]), (hit, other), 2) == 0
    assert cubicfield._first_slot(bytes([5, 1, 2, 5]), (b"\x02", b"\x07"), 1) == 2


def test_pack_is_linear_in_its_length():
    """Packing 10^5 signed values takes well under a second (one bytes
    join, not a shift-and-add per slot) and puts value i in slot i."""
    values = [(-1) ** i * (i * i * i % 99991) for i in range(10**5)]
    start = time.perf_counter()
    packed = cubicfield._pack(values, 3)
    assert time.perf_counter() - start < 1.0
    ones = cubicfield._pack([1] * len(values), 3)
    data = (packed + (1 << 23) * ones).to_bytes(3 * len(values), "little")
    slots = [int.from_bytes(data[i : i + 3], "little") - (1 << 23) for i in range(0, len(data), 3)]
    assert slots == values


def test_is_principal_budget_signal(orders):
    O = orders["x^3-2"]
    deg1 = [q for q in factor_prime(O, 5) if q.f == 1][0]
    with pytest.raises(SearchBudgetExceededError):
        is_principal(O, deg1.as_integral(), radius_factor=20.0, max_candidates=10)


# --- census -------------------------------------------------------------------

def test_census_small_bound(orders):
    O = orders["x^3-2"]
    types = list(splitting_types(O, 10))
    # p = 5 gives 1+2, p = 7: x^3-2 mod 7 has no root -> inert
    labels = Counter(t.label for _, t in types)
    assert labels.get("1+2", 0) >= 1
    unramified = [p for p in primes_up_to(10) if O.disc_K % p]
    rows = cli._census_rows(O.poly, 10)
    total = sum(row["count"] for row in rows)
    freq_sum = sum(Fraction(row["frequency"]) for row in rows)
    assert freq_sum == 1
    assert total == len(unramified)
    assert [p for p, _ in types] == unramified


def test_census_with_no_unramified_primes_is_empty(orders):
    # 2 ramifies in x^3 - 2, so a census up to 2 has nothing to tally
    assert list(splitting_types(orders["x^3-2"], 2)) == []


def test_census_galois_has_no_mixed_pattern(orders):
    O = orders["x^3-3x-1"]
    types = list(splitting_types(O, 2000))
    assert all(t.label in ("1+1+1", "3") for _, t in types)


def test_census_agrees_with_factor_prime(orders):
    for s in FIXTURE_POLYS:
        O = orders[s]
        got = [(p, t.label) for p, t in splitting_types(O, 300)]
        want = []
        for p in primes_up_to(300):
            if O.disc_K % p == 0:
                continue
            parts = sorted(q.f for q in factor_prime(O, p))
            want.append((p, "+".join(str(f) for f in parts)))
        assert got == want, s


def test_primes_up_to_and_the_lazy_walk_match_sympy():
    from sympy import primerange

    big = primes_up_to(20000)
    assert big == list(primerange(20001))
    for n in (0, 1, 2, 3, 10, 997, 999, 1000, 1001, 2000, 4096, 20000):
        assert primes_up_to(n) == big[: len(list(primerange(n + 1)))], n
        assert list(iter_primes_up_to(n)) == primes_up_to(n), n


def test_lazy_prime_walk_sieves_only_as_far_as_it_is_taken():
    limit_before = primes_up_to.__dict__["_cache"]["limit"]
    walk = iter_primes_up_to(10**12)
    taken = [next(walk) for _ in range(1000)]
    assert taken == primes_up_to(taken[-1])
    assert primes_up_to.__dict__["_cache"]["limit"] <= max(limit_before, 4 * taken[-1])


@lru_cache(maxsize=None)
def _box_12_census_slice():
    """A seeded slice of the irreducible |a_i| <= 12 box: 60 fields, and
    20 more whose equation order has index > 1."""
    rng = random.Random(19)
    triples = list(itertools.product(range(-12, 13), repeat=3))
    rng.shuffle(triples)
    plain, index = [], []
    for poly in filter(None, map(_box_field, triples)):
        O = maximal_order(poly)
        if len(plain) < 60:
            plain.append(O)
        elif O.index > 1 and len(index) < 20:
            index.append(O)
        if len(index) == 20:
            return plain + index


def test_census_matches_the_root_count_on_box_12():
    """Stickelberger and x^p against counting the roots of the form on
    P^1(F_p) with fieldref's general arithmetic, at bound 2000."""
    orders = _box_12_census_slice()
    assert sum(O.index > 1 for O in orders) >= 20
    for O in orders:
        got = Counter(t for _, t in splitting_types(O, 2000))
        assert got == census_by_root_count(O, 2000), O.poly
