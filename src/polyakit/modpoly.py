"""Monic polynomial arithmetic over GF(p) for degree <= 3.

Polynomials are coefficient tuples, low degree first, always reduced
mod p with no trailing zeros (the zero polynomial is ()).  Roots are
counted by a gcd with x^p - x and extracted by equal-degree splitting
with a deterministic shift sweep; multiplicities come from division.
The consumers are in cubicfield: `roots_mod_p` finds the roots of the
characteristic polynomial of a p-generator for factor_prime at large p
(small p are scanned there), and `distinct_root_count` gives the
splitting census its patterns.  `factor_monic_cubic` stays as the
reference factorization of tests/fieldref.py and a layer that
bench/tracer.py traces.
"""

from __future__ import annotations


def pnorm(coeffs, p: int) -> tuple[int, ...]:
    c = [a % p for a in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def pdeg(a) -> int:
    return len(a) - 1  # zero polynomial gets -1


def psub(a, b, p):
    n = max(len(a), len(b))
    return pnorm([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)], p)


def pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return pnorm(out, p)


def pdivmod(a, b, p):
    """Quotient and remainder; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    binv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * binv) % p
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - c * bj) % p
    return pnorm(q, p), pnorm(a, p)


def pmod(a, b, p):
    return pdivmod(a, b, p)[1]


def pgcd(a, b, p):
    """Monic gcd."""
    while b:
        a, b = b, pmod(a, b, p)
    if not a:
        return ()
    inv = pow(a[-1], -1, p)
    return pnorm([c * inv for c in a], p)


def ppowmod(base, e: int, mod, p: int):
    """base^e modulo (mod, p) by binary powering."""
    result = (1,)
    base = pmod(base, mod, p)
    while e:
        if e & 1:
            result = pmod(pmul(result, base, p), mod, p)
        base = pmod(pmul(base, base, p), mod, p)
        e >>= 1
    return result


def pmonic(a, p):
    if not a:
        return ()
    inv = pow(a[-1], -1, p)
    return pnorm([c * inv for c in a], p)


def distinct_root_count(f, p: int) -> int:
    """Number of distinct roots of f in GF(p): deg gcd(x^p - x, f)."""
    f = pmonic(pnorm(f, p), p)
    xp = ppowmod((0, 1), p, f, p)
    g = pgcd(psub(xp, (0, 1), p), f, p)
    return pdeg(g)


def _split_roots(g, p: int) -> list[int]:
    """All roots of a monic product of distinct linear factors, deg <= 3."""
    d = pdeg(g)
    if d <= 0:
        return []
    if d == 1:
        return [(-g[0]) % p]
    if p <= 3 or p <= 2 * d:
        return [x for x in range(p) if _peval(g, x, p) == 0]
    # equal-degree splitting: gcd((x+a)^((p-1)/2) - 1, g) over a shift sweep
    for a in range(p):
        h = ppowmod((a, 1), (p - 1) // 2, g, p)
        h = pgcd(psub(h, (1,), p), g, p)
        if 0 < pdeg(h) < d:
            return sorted(_split_roots(h, p) + _split_roots(pdivmod(g, h, p)[0], p))
    raise AssertionError("no separating shift found")  # unreachable for distinct roots


def _peval(f, x: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def roots_mod_p(f, p: int) -> list[int]:
    """Distinct roots of f in GF(p), sorted."""
    f = pmonic(pnorm(f, p), p)
    if not f:
        raise ValueError("zero polynomial")
    xp = ppowmod((0, 1), p, f, p)
    g = pgcd(psub(xp, (0, 1), p), f, p)
    return _split_roots(g, p)


def factor_monic_cubic(f, p: int) -> list[tuple[tuple[int, ...], int]]:
    """Factor a monic cubic over GF(p) into monic irreducibles with
    multiplicities, sorted by (degree, coefficients)."""
    f = pnorm(f, p)
    if pdeg(f) != 3 or f[-1] != 1:
        raise ValueError("expected a monic cubic")
    factors: list[tuple[tuple[int, ...], int]] = []
    rem = f
    for r in roots_mod_p(f, p):
        lin = pnorm((-r, 1), p)
        mult = 0
        while True:
            q, s = pdivmod(rem, lin, p)
            if s:
                break
            rem, mult = q, mult + 1
        factors.append((lin, mult))
    d = pdeg(rem)
    if d == 3:
        factors.append((rem, 1))  # irreducible cubic: no roots at all
    elif d == 2:
        factors.append((rem, 1))  # rootless quadratic is irreducible
    elif d != 0:
        raise AssertionError("leftover linear factor escaped root finding")
    return sorted(factors, key=lambda t: (pdeg(t[0]), t[0]))
