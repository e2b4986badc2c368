"""Arithmetic over GF(p) modulo one monic cubic x^3 + u x^2 + v x + w.

A residue is a triple (r0, r1, r2), low degree first.  `shifted_power`
computes (x + a)^e as a residue with the three coefficients of the cubic
inlined, and serves every question asked of a cubic mod p: x^p, whose
equality with x decides whether the cubic splits into distinct linear
factors (cubicfield.splitting_types), and the distinct roots
(`roots_mod_p`): gcd(x^p - x, F) keeps the distinct linear factors, and
equal-degree splitting with (x + a)^((p-1)/2) over a deterministic shift
sweep separates them.  Reference: Cohen, GTM 138, section 3.4.

`roots_mod_p` is what factor_prime calls at large p (small p are scanned
there), on the order's binary cubic form F dehomogenized to F(x, 1), not
necessarily monic.  `factor_monic_cubic` is built on it by synthetic
division; nothing in the package calls it, and bench/tracer.py traces it
as the cubic factoring layer.
"""

from __future__ import annotations


def shifted_power(a: int, e: int, u: int, v: int, w: int, p: int) -> tuple[int, int, int]:
    """(x + a)^e modulo (x^3 + u x^2 + v x + w, p), as (r0, r1, r2), by
    left-to-right binary powering."""
    r0, r1, r2 = 1, 0, 0
    for bit in bin(e)[2:]:
        # square, then fold x^4 = -u x^3 - v x^2 - w x and x^3 = -u x^2 - v x - w
        c4 = r2 * r2
        c3 = 2 * r1 * r2 - u * c4
        r0, r1, r2 = (
            (r0 * r0 - w * c3) % p,
            (2 * r0 * r1 - w * c4 - v * c3) % p,
            (r1 * r1 + 2 * r0 * r2 - v * c4 - u * c3) % p,
        )
        if bit == "1":  # times x + a
            r0, r1, r2 = (a * r0 - w * r2) % p, (r0 + a * r1 - v * r2) % p, (r1 + a * r2 - u * r2) % p
    return r0, r1, r2


def _gcd(f, g, p: int) -> list[int]:
    """Monic gcd over GF(p) of f != 0 and g, coefficient lists low degree first."""
    f, g = _trim(f, p), _trim(g, p)
    while g:
        inv = pow(g[-1], -1, p)
        while len(f) >= len(g):
            c, shift = f[-1] * inv, len(f) - len(g)
            f = _trim([x - c * g[i - shift] if i >= shift else x for i, x in enumerate(f)], p)
        f, g = g, f
    inv = pow(f[-1], -1, p)
    return [x * inv % p for x in f]


def _trim(f, p: int) -> list[int]:
    f = [x % p for x in f]
    while f and not f[-1]:
        f.pop()
    return f


def roots_mod_p(f, p: int) -> list[int]:
    """Distinct roots in GF(p), sorted, of the polynomial f of degree <= 3
    (coefficients low degree first, not all divisible by p)."""
    f = _trim(f, p)
    if not f:
        raise ValueError("zero polynomial")
    if p == 2:
        return [x for x in (0, 1) if not sum(c * x**i for i, c in enumerate(f)) % 2]
    # x^(3 - deg f) * f made monic: the roots of f, and 0
    inv = pow(f[-1], -1, p)
    w, v, u, _ = [0] * (4 - len(f)) + [c * inv % p for c in f]
    r0, r1, r2 = shifted_power(0, p, u, v, w, p)
    g = _gcd([w, v, u, 1], [r0, r1 - 1, r2], p)  # the distinct linear factors
    roots, a = [], 0
    while len(g) > 2:
        h0, h1, h2 = shifted_power(a, (p - 1) // 2, u, v, w, p)
        s = _gcd(g, [h0 - 1, h1, h2], p)  # the roots r of g with r + a a nonzero square
        a += 1
        if len(s) == 2:
            r = -s[0] % p
        elif len(s) == len(g) - 1:  # the one root left out, by the sum of the roots
            r = (s[-2] - g[-2]) % p
        else:
            continue
        roots.append(r)
        g = _divide(g, r, p)[0]
    if len(g) == 2:
        roots.append(-g[0] % p)
    return sorted(r for r in roots if r or not f[0])


def _divide(g, r: int, p: int) -> tuple[list[int], int]:
    """(g / (x - r), g(r)) for monic g, by synthetic division."""
    q = [1]
    for c in reversed(g[:-1]):
        q.append((c + r * q[-1]) % p)
    return q[-2::-1], q[-1]


def factor_monic_cubic(f, p: int) -> list[tuple[tuple[int, ...], int]]:
    """Factor a monic cubic over GF(p) into monic irreducibles with
    multiplicities, sorted by (degree, coefficients)."""
    rem = _trim(f, p)
    if len(rem) != 4 or rem[-1] != 1:
        raise ValueError("expected a monic cubic")
    factors = []
    for r in roots_mod_p(rem, p):
        mult, (q, rest) = 0, _divide(rem, r, p)
        while not rest:
            rem, mult = q, mult + 1
            q, rest = _divide(rem, r, p)
        factors.append(((-r % p, 1), mult))
    if len(rem) > 1:
        factors.append((tuple(rem), 1))  # no roots left: irreducible
    return sorted(factors, key=lambda t: (len(t[0]), t[0]))
