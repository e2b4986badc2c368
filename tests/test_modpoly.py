"""Mod-p polynomial factorization against brute-force reconstruction."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyakit import modpoly

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
            prod = modpoly.pmul(prod, g, p)
        total_deg += e * modpoly.pdeg(g)
    assert total_deg == 3
    assert modpoly.pnorm(prod, p) == modpoly.pnorm(f, p)
    # every linear factor corresponds to a root, and conversely
    roots = {x for x in range(min(p, 400)) if poly_eval(f, x, p) == 0}
    if p <= 400:
        lin_roots = {(-g[0]) % p for g, _ in factors if modpoly.pdeg(g) == 1}
        assert lin_roots == roots


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_factor_cubic_exhaustive_small_p(p):
    """Against full enumeration of monic cubics for tiny p: every
    reported irreducible factor really is irreducible."""
    for a, b, c in product(range(p), repeat=3):
        f = (c, b, a, 1)
        for g, e in modpoly.factor_monic_cubic(f, p):
            d = modpoly.pdeg(g)
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
    assert len(rs) == modpoly.distinct_root_count(f, p)


def test_distinct_root_count_matches_brute_force():
    for p in (2, 3, 5, 11):
        for a, b, c in product(range(p), repeat=3):
            f = (c, b, a, 1)
            expect = sum(1 for x in range(p) if poly_eval(f, x, p) == 0)
            assert modpoly.distinct_root_count(f, p) == expect


def test_division_and_gcd():
    p = 13
    a = (1, 2, 3, 1)
    b = (4, 1)
    q, r = modpoly.pdivmod(a, b, p)
    assert modpoly.pnorm(padd(modpoly.pmul(q, b, p), r, p), p) == a
    g = modpoly.pgcd(modpoly.pmul(a, b, p), b, p)
    assert g == modpoly.pmonic(b, p)
