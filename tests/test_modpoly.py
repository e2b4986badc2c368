"""Arithmetic modulo one cubic over GF(p), against the general polynomial
arithmetic of fieldref and against brute force."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyakit import modpoly
from polyakit.cubicfield import _ROOT_SCAN_LIMIT, primes_up_to

import fieldref
from fieldref import padd


def poly_eval(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


@given(
    st.sampled_from([2, 3, 5, 7, 11, 13, 101, 1009]),
    st.tuples(st.integers(0, 2000), st.integers(0, 2000), st.integers(0, 2000)),
)
@settings(max_examples=300, deadline=None)
def test_factor_cubic_reconstructs(p, low):
    f = (low[0] % p, low[1] % p, low[2] % p, 1)
    factors = modpoly.factor_monic_cubic(f, p)
    prod = (1,)
    total_deg = 0
    for g, e in factors:
        assert g[-1] == 1, "factors must be monic"
        for _ in range(e):
            prod = fieldref.pmul(prod, g, p)
        total_deg += e * fieldref.pdeg(g)
    assert total_deg == 3
    assert fieldref.pnorm(prod, p) == fieldref.pnorm(f, p)
    # every linear factor corresponds to a root, and conversely
    roots = {x for x in range(min(p, 400)) if poly_eval(f, x, p) == 0}
    if p <= 400:
        lin_roots = {(-g[0]) % p for g, _ in factors if fieldref.pdeg(g) == 1}
        assert lin_roots == roots
    assert factors == fieldref.factor_monic_cubic(f, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_factor_cubic_exhaustive_small_p(p):
    """Against full enumeration of monic cubics for tiny p: every
    reported irreducible factor really is irreducible."""
    for a, b, c in product(range(p), repeat=3):
        f = (c, b, a, 1)
        for g, e in modpoly.factor_monic_cubic(f, p):
            d = fieldref.pdeg(g)
            if d >= 2:
                assert not any(poly_eval(g, x, p) == 0 for x in range(p))
            assert e >= 1


@given(
    st.sampled_from([3, 5, 17, 401, 65537]),
    st.lists(st.integers(0, 10**6), min_size=3, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_roots_mod_p(p, low):
    f = (low[0] % p, low[1] % p, low[2] % p, 1)
    rs = modpoly.roots_mod_p(f, p)
    assert rs == sorted(set(rs))
    for r in rs:
        assert poly_eval(f, r, p) == 0
    assert rs == fieldref.roots_mod_p(f, p)


def test_distinct_root_count_matches_brute_force():
    """The census oracle's root count, and the roots found modulo the
    cubic, against counting the residues."""
    for p in (2, 3, 5, 11):
        for a, b, c in product(range(p), repeat=3):
            f = (c, b, a, 1)
            expect = sum(1 for x in range(p) if poly_eval(f, x, p) == 0)
            assert fieldref.distinct_root_count(f, p) == expect
            assert len(modpoly.roots_mod_p(f, p)) == expect


def test_division_and_gcd():
    p = 13
    a = (1, 2, 3, 1)
    b = (4, 1)
    q, r = fieldref.pdivmod(a, b, p)
    assert fieldref.pnorm(padd(fieldref.pmul(q, b, p), r, p), p) == a
    g = fieldref.pgcd(fieldref.pmul(a, b, p), b, p)
    assert g == fieldref.pmonic(b, p)


# p = 2 and 3, the two primes on each side of the root-scan crossover, and large p
ROOT_PRIMES = sorted(
    {2, 3, 5, 7, 31, 101, 65537, 1000003}
    | set(primes_up_to(_ROOT_SCAN_LIMIT - 1)[-2:])
    | set([p for p in primes_up_to(2 * _ROOT_SCAN_LIMIT) if p >= _ROOT_SCAN_LIMIT][:2])
)


def _planted(p, rng):
    """A cubic F(x, 1), low degree first, not zero mod p: a random one,
    one with a double or a triple root, or one whose leading coefficient
    p divides (a root at infinity), down to degree 0."""
    kind = rng.randrange(6)
    lead = rng.randrange(1, p)
    r, s = rng.randrange(p), rng.randrange(p)
    if kind == 0:
        f = [rng.randrange(p) for _ in range(3)] + [lead]
    elif kind == 1:  # lead (x - r)^2 (x - s)
        f = fieldref.pmul(fieldref.pmul((-r, 1), (-r, 1), p), (-s * lead, lead), p)
    elif kind == 2:  # lead (x - r)^3
        f = fieldref.pmul(fieldref.pmul((-r, 1), (-r, 1), p), (-r * lead, lead), p)
    else:  # degree 5 - kind: p divides the leading coefficient
        f = [rng.randrange(p) for _ in range(5 - kind)] + [lead] + [p * rng.randrange(3)] * (kind - 2)
    return tuple(c + p * rng.randrange(-2, 3) for c in f)


@pytest.mark.parametrize("p", ROOT_PRIMES)
def test_roots_mod_p_match_the_general_path(p):
    """roots_mod_p against fieldref's gcd with x^p - x and its splitting,
    on random cubics, double and triple roots, and forms whose leading
    coefficient p divides (quadratic, linear and constant F(x, 1))."""
    rng = random.Random(p)
    kinds = set()
    for _ in range(120):
        f = _planted(p, rng)
        kinds.add(len(fieldref.pnorm(f, p)))
        assert modpoly.roots_mod_p(f, p) == fieldref.roots_mod_p(f, p), (f, p)
    assert kinds == {1, 2, 3, 4}


@pytest.mark.parametrize("p", ROOT_PRIMES)
def test_x_to_the_p_decides_a_full_split(p):
    """x^p = x modulo a monic cubic exactly when it has three distinct
    roots, and shifted_power agrees with fieldref's ppowmod."""
    rng = random.Random(p)
    for _ in range(120):
        cubic = fieldref.pmonic(fieldref.pnorm(_planted(p, rng), p), p)
        if len(cubic) < 4:
            continue
        w, v, u, _ = cubic
        xp = modpoly.shifted_power(0, p, u, v, w, p)
        assert (xp == (0, 1, 0)) == (fieldref.distinct_root_count(cubic, p) == 3), (cubic, p)
        a, e = rng.randrange(p), rng.randrange(10**6)
        assert fieldref.pnorm(modpoly.shifted_power(a, e, u, v, w, p), p) == fieldref.ppowmod((a, 1), e, cubic, p)


def test_roots_mod_p_refuses_the_zero_polynomial():
    with pytest.raises(ValueError, match="zero polynomial"):
        modpoly.roots_mod_p((7, 0, 14), 7)
