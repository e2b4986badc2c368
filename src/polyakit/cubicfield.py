"""Exact arithmetic in cubic number fields.

Orders, ideals and primes are integer-only: the maximal order is the
cubic ring of a binary cubic form (Delone-Faddeev), reached from
Z[theta] by form p-steps at the primes whose square divides the
polynomial discriminant, and it carries its form and an integer
multiplication table on its basis; ideals are integer lattices in
Hermite normal form on the integral basis, and the primes above every
p, index primes and 2 included, come in closed form from the roots of
that form on P^1(F_p), each with the multiplier tau that values it.
Rationals appear only where the quantity is one: the Minkowski bound.
The class group built on this layer lives in classgroup.py.

Degree is fixed at three: the checks that need actual ideal arithmetic
are run on cubic fields, where every algorithm here is exhaustive and
fast; higher degrees are covered on the group side only.
"""

from __future__ import annotations

import cmath
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from . import modpoly
from .artin import SplittingType
from .intlinalg import adj3, det3, half_box_lines, hnf_rows, invert3, zigzag

DEFAULT_PRIME_BOUND = 200
# factor_prime tries every residue for a root mod p below this p and
# calls modpoly.roots_mod_p from it on: both take ~23 us a random cubic
# near p = 160; the scan grows linearly to ~240 us at p = 1400, where
# roots_mod_p takes ~30 us (Python 3.11 on a 2-core x86-64 machine).
_ROOT_SCAN_LIMIT = 160
# Miller-Rabin on the first 13 prime bases is a proof of primality below this
_MILLER_RABIN_LIMIT = 3317044064679887385961981
# The integral basis as coordinate rows
UNIT_ROWS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# MaximalOrder.norm_form's monomials, each as the indices t of its c_t
_MONOMIALS = tuple(itertools.combinations_with_replacement(range(3), 3))

# Rational upper bound for 4/pi, used in the Minkowski bound so that the
# factor base can only gain candidate generators, never lose one.
# 4/pi = 1.27323954...; since pi > 3.14159265, 4/pi < 400000000/314159265.
FOUR_OVER_PI_UPPER = Fraction(400000000, 314159265)


class ReduciblePolynomialError(ValueError):
    """The defining polynomial is reducible over the rationals."""


class SearchBudgetExceededError(RuntimeError):
    """A bounded search ran out: an enumeration region over its ceiling,
    a factor base over its cap, a class that no shell within the limit
    expresses over the factor base, or a polynomial discriminant with two
    distinct prime factors above 10^5, which is not factored."""


class ClassGroupInconclusiveError(RuntimeError):
    """Relation harvesting failed the stability contract at max budget."""


def primes_up_to(n: int) -> list[int]:
    """Primes <= n by sieve (cached, grows monotonically)."""
    cache = primes_up_to.__dict__.setdefault("_cache", {"limit": 1, "primes": []})
    if n > cache["limit"]:
        limit = max(n, 2 * cache["limit"], 1000)
        sieve = bytearray([1]) * (limit + 1)
        sieve[0:2] = b"\x00\x00"
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
        cache["primes"] = [i for i, b in enumerate(sieve) if b]
        cache["limit"] = limit
    ps = cache["primes"]
    return ps[: bisect_right(ps, n)]


def iter_primes_up_to(n: int):
    """The primes <= n in increasing order, sieved in doubling windows
    as they are taken: a loop that stops at p sieves about 2p, not n."""
    lo, hi = 1, min(n, 1000)
    while lo < n:
        ps = primes_up_to(hi)
        yield from ps[bisect_right(ps, lo) :]
        lo, hi = hi, min(n, 2 * hi)


def is_prime(n: int) -> bool:
    """Trial division below 5*10^5, then a Miller-Rabin test on the first
    13 prime bases, which no composite below _MILLER_RABIN_LIMIT passes
    (Sorenson and Webster 2015), and sympy's test from that limit on."""
    # on primes, trial division takes ~7 us near 10^5, ~19 us near 5*10^5
    # and ~1.7 ms near 10^9; Miller-Rabin ~17 us, ~18 us and ~47 us
    # (Python 3.11 on a 2-core x86-64 machine)
    if n < 500000:
        return n == 2 or (n > 2 and n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2)))
    if n >= _MILLER_RABIN_LIMIT:
        from sympy import isprime

        return isprime(n)
    if not n % 2:
        return False
    d, s = n - 1, 0
    while not d % 2:
        d, s = d // 2, s + 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _trial_divide(n: int) -> tuple[dict[int, int], int]:
    """({p: e} for the primes p < 10^5 dividing |n| != 0, cofactor m):
    m is 1, a prime, or has no prime factor below 10^5."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    for p in itertools.chain((2,), range(3, 100000, 2)):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    return out, n


def _square_primes(n: int) -> list[int]:
    """The primes whose square divides n != 0, in increasing order.  This
    is a budget: the cofactor left by trial division must be 1, a prime
    or a prime power, which is recognised without factoring; a cofactor
    with two distinct prime factors above 10^5 raises
    SearchBudgetExceededError."""
    out, m = _trial_divide(n)
    if m > 1 and not is_prime(m):
        # m = q^e with every prime factor above 10^5 > 2^16, so 16e < log2(m)
        e = next((e for e in range(m.bit_length() // 16, 1, -1) if _integer_root(m, e) ** e == m), 1)
        base = _integer_root(m, e)
        if e == 1 or not is_prime(base):
            raise SearchBudgetExceededError(f"discriminant cofactor {m} is not a prime power")
        out[base] = e
    return sorted(p for p, e in out.items() if e >= 2)


# ---------------------------------------------------------------------------
# Defining polynomials


@dataclass(frozen=True)
class CubicPoly:
    """Monic integer cubic x^3 + a2 x^2 + a1 x + a0, irreducible over Q."""

    a2: int
    a1: int
    a0: int

    def __post_init__(self):
        # a monic integer cubic is reducible over Q iff it has an integer root
        root = self._least_integer_root()
        if root is not None:
            raise ReduciblePolynomialError(f"{self} has root {root}")
        assert self.discriminant() != 0

    def _least_integer_root(self) -> Optional[int]:
        """The integer root of least |r|, the positive one first, or None.

        Every integer root divides a0, so it lies in [-|a0|, |a0|] (a0 = 0
        gives the root 0).  When D = a2^2 - 3*a1 > 0, f' = 3x^2 + 2*a2*x + a1
        vanishes at c1, c2 = (-a2 - sqrt(D))/3, (-a2 + sqrt(D))/3; k1, k2
        below lie within 4/3 of them, so f is strictly monotone on the runs
        of integers at least 2 away, and those runs are bisected.  The
        integers next to k1, k2 are tested directly: O(log |a0|)
        evaluations in all.
        """
        if self.a0 == 0:
            return 0
        bound = abs(self.a0)
        disc = self.a2 * self.a2 - 3 * self.a1
        if disc <= 0:
            runs, near = [(-bound, bound, 1)], []
        else:
            s = math.isqrt(disc)
            k1, k2 = (-self.a2 - s) // 3, (-self.a2 + s) // 3
            runs = [(-bound, k1 - 2, 1), (k1 + 2, k2 - 2, -1), (k2 + 2, bound, 1)]
            near = [k + d for k in (k1, k2) for d in (-1, 0, 1)]
        roots = {r for r in near if self.eval_at(r) == 0}
        for lo, hi, sign in runs:
            lo, hi = max(lo, -bound), min(hi, bound)
            while lo <= hi:
                mid = (lo + hi) // 2
                v = sign * self.eval_at(mid)
                if v == 0:
                    roots.add(mid)
                    break
                if v < 0:
                    lo = mid + 1
                else:
                    hi = mid - 1
        return min(roots, key=lambda r: (abs(r), r < 0), default=None)

    def eval_at(self, x: int) -> int:
        return ((x + self.a2) * x + self.a1) * x + self.a0

    def discriminant(self) -> int:
        a, b, c = self.a2, self.a1, self.a0
        return 18 * a * b * c - 4 * a**3 * c + a * a * b * b - 4 * b**3 - 27 * c * c

    def is_galois(self) -> bool:
        """A cubic generates its splitting field iff the discriminant is
        a perfect square."""
        d = self.discriminant()
        if d < 0:
            return False
        r = math.isqrt(d)
        return r * r == d

    def __str__(self) -> str:
        parts = ["x^3"]
        for coeff, power in ((self.a2, "x^2"), (self.a1, "x"), (self.a0, "")):
            if coeff == 0:
                continue
            sign = " + " if coeff > 0 else " - "
            mag = abs(coeff)
            if power and mag == 1:
                parts.append(f"{sign}{power}")
            elif power:
                parts.append(f"{sign}{mag}{power}")
            else:
                parts.append(f"{sign}{mag}")
        return "".join(parts)


def parse_cubic(text: str) -> CubicPoly:
    """Parse ``x^3 + a*x^2 + b*x + c`` (stars optional) or the bare
    coefficient triple ``a,b,c``."""
    import re as _re

    s = text.strip()
    if _re.fullmatch(r"[-+]?\d+\s*,\s*[-+]?\d+\s*,\s*[-+]?\d+", s):
        a2, a1, a0 = (int(t) for t in s.split(","))
        return CubicPoly(a2, a1, a0)
    compact = s.replace(" ", "").replace("*", "")
    if not compact:
        raise ValueError("empty polynomial")
    coeffs = {3: 0, 2: 0, 1: 0, 0: 0}
    pos = 0
    term_re = _re.compile(r"([+-]?)(\d*)(x(?:\^(\d+))?)?")
    while pos < len(compact):
        m = term_re.match(compact, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse polynomial: {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        digits, xpart, exp = m.group(2), m.group(3), m.group(4)
        coeff = int(digits) if digits else 1
        if xpart is None:
            if not digits:
                raise ValueError(f"cannot parse polynomial: {text!r}")
            power = 0
        else:
            power = int(exp) if exp else 1
        if power not in coeffs:
            raise ValueError(f"degree {power} term out of range in {text!r}")
        coeffs[power] += sign * coeff
        pos = m.end()
    if coeffs[3] != 1:
        raise ValueError(f"not a monic cubic: {text!r}")
    return CubicPoly(coeffs[2], coeffs[1], coeffs[0])


# ---------------------------------------------------------------------------
# Power-basis arithmetic (coordinates w.r.t. 1, theta, theta^2)


def _reduction_rows(poly: CubicPoly):
    """Coordinates of theta^3 and theta^4 in the power basis."""
    t3 = (-poly.a0, -poly.a1, -poly.a2)
    t4 = (
        -poly.a2 * t3[0],
        -poly.a2 * t3[1] - poly.a0,
        -poly.a2 * t3[2] - poly.a1,
    )
    return t3, t4


def mul_power(u, v, poly: CubicPoly):
    """Product of two field elements in power-basis coordinates."""
    t3, t4 = _reduction_rows(poly)
    c0 = u[0] * v[0]
    c1 = u[0] * v[1] + u[1] * v[0]
    c2 = u[0] * v[2] + u[1] * v[1] + u[2] * v[0]
    c3 = u[1] * v[2] + u[2] * v[1]
    c4 = u[2] * v[2]
    return (
        c0 + c3 * t3[0] + c4 * t4[0],
        c1 + c3 * t3[1] + c4 * t4[1],
        c2 + c3 * t3[2] + c4 * t4[2],
    )


# ---------------------------------------------------------------------------
# Orders


@dataclass(frozen=True)
class MaximalOrder:
    """The ring of integers of a cubic field, in integers only;
    disc(poly) = index^2 * disc_K.

    The integral basis is `basis_num / den` (rows, power-basis
    coordinates, Hermite normal form).  The order is the cubic ring of
    the binary cubic form `form` = (a, b, c, d): with xi a root of
    F(x, 1), row i of `form_basis` gives omega_i on the basis 1, a*xi,
    a*xi^2 + b*xi of R(F), and every product is taken in R(F).  Derived
    structures (the inverse of `form_basis`, multiplication table, norm
    form, prime caches, numeric embeddings) are lazily attached and
    treated as immutable once built; concurrent idempotent writes to
    the caches are harmless.
    """

    poly: CubicPoly
    den: int
    basis_num: tuple[tuple[int, int, int], ...]
    disc_K: int
    index: int
    form: tuple[int, int, int, int]
    form_basis: tuple[tuple[int, int, int], ...]

    @cached_property
    def _from_form(self) -> tuple[tuple[int, int, int], ...]:
        """form_basis^-1, which is det * adjugate as the determinant is
        +-1: row k is the integral-basis coordinates of the k-th element
        of the form basis 1, a*xi, a*xi^2 + b*xi."""
        fb = self.form_basis
        sign = det3(fb)
        return tuple(tuple(sign * x for x in row) for row in adj3(fb))

    @cached_property
    def one(self) -> tuple[int, int, int]:
        """Integral-basis coordinates of 1."""
        return self._from_form[0]

    @cached_property
    def mult_table(self) -> tuple:
        """table[i][j] = integral-basis coordinates of omega_i * omega_j.

        Rows i and j of `form_basis` are multiplied in R(F) on its basis
        1, w = a*xi, t = a*xi^2 + b*xi, where F(xi, 1) = 0 gives
        w^2 = -b*w + a*t, w*t = -a*d - c*w and t^2 = -b*d - d*w - c*t,
        and the product goes back to the integral basis by `_from_form`."""
        a, b, c, d = self.form
        ad, bd = a * d, b * d
        back, fb = tuple(zip(*self._from_form)), self.form_basis
        rows = []
        for y0, y1, y2 in fb:
            row = []
            for z0, z1, z2 in fb:
                ww, wt, tt = y1 * z1, y1 * z2 + y2 * z1, y2 * z2
                p0 = y0 * z0 - ad * wt - bd * tt
                p1 = y0 * z1 + y1 * z0 - b * ww - c * wt - d * tt
                p2 = y0 * z2 + y2 * z0 + a * ww - c * tt
                row.append(tuple(p0 * e + p1 * f + p2 * g for e, f, g in back))
            rows.append(tuple(row))
        return tuple(rows)

    def omega_mul(self, y, z) -> tuple[int, int, int]:
        table = self.mult_table
        out = [0, 0, 0]
        for i in range(3):
            yi = y[i]
            if not yi:
                continue
            for j in range(3):
                zj = z[j]
                if not zj:
                    continue
                t = table[i][j]
                c = yi * zj
                out[0] += c * t[0]
                out[1] += c * t[1]
                out[2] += c * t[2]
        return tuple(out)

    def norm_form(self, rows) -> tuple[int, ...]:
        """Coefficients of the ternary cubic form
        F(c) = N(c0*rows[0] + c1*rows[1] + c2*rows[2]) in the fixed
        monomial order c0^3, c0^2 c1, c0^2 c2, c0 c1^2, c0 c1 c2,
        c0 c2^2, c1^3, c1^2 c2, c1 c2^2, c2^3 (`rows` in integral-basis
        coordinates): `rows` substituted into basis_norm_form."""
        return _substitute(self.basis_norm_form, rows)

    @cached_property
    def basis_norm_form(self) -> tuple[int, ...]:
        """The norm form on the integral basis itself, in the variables
        y0, y1, y2 (in norm_form's monomial order): the rows of
        `form_basis` substituted into the norm of R(F) on its basis
        1, w = a*xi, t = a*xi^2 + b*xi,

            N(x + y*w + z*t) = x^3 - b x^2 y - 2c x^2 z + ac x y^2
                + (3ad + bc) x y z + (bd + c^2) x z^2 - a^2 d y^3
                - 2abd y^2 z - (acd + b^2 d) y z^2 + (ad^2 - bcd) z^3,

        the determinant of multiplication by x + y*w + z*t under the
        relations of mult_table."""
        a, b, c, d = self.form
        ad, bd = a * d, b * d
        ring = (
            1, -b, -2 * c, a * c, 3 * ad + b * c, bd + c * c,
            -a * ad, -2 * a * bd, -c * ad - b * bd, ad * d - c * bd,
        )
        return _substitute(ring, self.form_basis)

    def norm_omega(self, y) -> int:
        """Field norm of an order element in integral-basis coordinates."""
        # the ten-term cubic form, nested in y0 and then in y1: 17 products
        c = self.basis_norm_form
        y0, y1, y2 = y
        s2 = y2 * y2
        quad = y1 * (c[3] * y1 + c[4] * y2) + c[5] * s2
        tail = ((c[6] * y1 + c[7] * y2) * y1 + c[8] * s2) * y1 + c[9] * s2 * y2
        return ((c[0] * y0 + c[1] * y1 + c[2] * y2) * y0 + quad) * y0 + tail

    @cached_property
    def _prime_cache(self) -> dict:
        return {}

    @cached_property
    def _valuation_cache(self) -> dict:
        return {}

    @cached_property
    def embeddings(self) -> list[list[complex]]:
        """Numeric embeddings of the integral basis: rows indexed by the
        three roots, entries sigma_j(omega_i).  Used only to size search
        boxes; all decisions are made with exact arithmetic."""
        roots = cubic_roots(self.poly)
        return [
            [sum(self.basis_num[i][k] / self.den * root**k for k in range(3)) for i in range(3)]
            for root in roots
        ]


def _substitute(form, rows) -> tuple[int, ...]:
    """Coefficients of G(c0*rows[0] + c1*rows[1] + c2*rows[2]) for the
    ternary cubic form G with coefficients `form`, both in
    MaximalOrder.norm_form's monomial order.

    With g = grad G, whose components are quadratic forms,
    G(s*u + t*v) = s^3 G(u) + s^2 t g(u).v + s t^2 g(v).u + t^3 G(v)
    and G(u) = g(u).u / 3 (Euler), so every coefficient but one is a
    dot product of g at a row with a row; the coefficient of c0 c1 c2 is
    (g(r0 + r1) - g(r0) - g(r1)).r2, the polarization of g at r0, r1."""
    k0, k1, k2, k3, k4, k5, k6, k7, k8, k9 = form
    # g's components on y0^2, y0 y1, y0 y2, y1^2, y1 y2, y2^2: each
    # coefficient times the exponent of the variable differentiated
    k0, k6, k9 = 3 * k0, 3 * k6, 3 * k9
    l1, l2, l3, l5, l7, l8 = 2 * k1, 2 * k2, 2 * k3, 2 * k5, 2 * k7, 2 * k8
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = r0, r1, r2 = rows
    grads = []
    for y0, y1, y2 in (r0, r1, r2, (a0 + b0, a1 + b1, a2 + b2)):
        q0, q1, q2, q3, q4, q5 = y0 * y0, y0 * y1, y0 * y2, y1 * y1, y1 * y2, y2 * y2
        grads.append((
            k0 * q0 + l1 * q1 + l2 * q2 + k3 * q3 + k4 * q4 + k5 * q5,
            k1 * q0 + l3 * q1 + k4 * q2 + k6 * q3 + l7 * q4 + k8 * q5,
            k2 * q0 + k4 * q1 + l5 * q2 + k7 * q3 + l8 * q4 + k9 * q5,
        ))
    (u0, u1, u2), (v0, v1, v2), (w0, w1, w2), (s0, s1, s2) = grads
    m02 = u0 * c0 + u1 * c1 + u2 * c2
    m12 = v0 * c0 + v1 * c1 + v2 * c2
    return (
        (u0 * a0 + u1 * a1 + u2 * a2) // 3,
        u0 * b0 + u1 * b1 + u2 * b2,
        m02,
        v0 * a0 + v1 * a1 + v2 * a2,
        s0 * c0 + s1 * c1 + s2 * c2 - m02 - m12,
        w0 * a0 + w1 * a1 + w2 * a2,
        (v0 * b0 + v1 * b1 + v2 * b2) // 3,
        m12,
        w0 * b0 + w1 * b1 + w2 * b2,
        (w0 * c0 + w1 * c1 + w2 * c2) // 3,
    )


def norm_line(form, c0: int) -> tuple[tuple[int, ...], ...]:
    """(A, B, C, D) with F(c0, c1, x) = ((A*x + B)*x + C)*x + D for the
    norm form F with coefficients `form` (in MaximalOrder.norm_form's
    order) on the lines of c2 through c0: each a polynomial in c1, as
    its coefficients lowest first, of degree 0, 1, 2 and 3."""
    k0, k1, k2, k3, k4, k5, k6, k7, k8, k9 = form
    return (k9,), (k5 * c0, k8), (k2 * c0 * c0, k4 * c0, k7), (k0 * c0**3, k1 * c0 * c0, k3 * c0, k6)


def cubic_roots(poly: CubicPoly) -> list[complex]:
    """The three complex roots, Newton-polished; float precision is fine
    for the box-sizing purposes these serve."""
    a2, a1, a0 = poly.a2, poly.a1, poly.a0
    p = a1 - a2 * a2 / 3.0
    q = 2.0 * a2**3 / 27.0 - a2 * a1 / 3.0 + a0
    shift = -a2 / 3.0
    roots = []
    if abs(p) < 1e-14 and abs(q) < 1e-14:
        roots = [0j, 0j, 0j]
    else:
        disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
        u3 = -q / 2.0 + cmath.sqrt(complex(disc))
        if abs(u3) < 1e-14:
            u3 = -q / 2.0 - cmath.sqrt(complex(disc))
        u = u3 ** (1.0 / 3.0)
        omega = cmath.exp(2j * cmath.pi / 3)
        for k in range(3):
            uk = u * omega**k
            roots.append(uk - p / (3.0 * uk))
    out = []
    for r in roots:
        x = r + shift
        for _ in range(4):  # Newton polish on the original cubic
            fx = ((x + a2) * x + a1) * x + a0
            dfx = (3 * x + 2 * a2) * x + a1
            if abs(dfx) > 1e-12:
                x = x - fx / dfx
        out.append(x)
    return out


def _canonical_lattice(den: int, rows) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """Canonical (denominator, HNF numerator) form of a rational lattice."""
    mat = hnf_rows(rows, 3)
    assert len(mat) == 3, "order lattice must have full rank"
    g = den
    for row in mat:
        for a in row:
            g = math.gcd(g, a)
    if g > 1:
        den //= g
        mat = tuple(tuple(a // g for a in row) for row in mat)
    return den, mat


def _double_root(form, p: int) -> Optional[int]:
    """The r of the root (r:1) of multiplicity >= 2 mod p of the binary
    cubic form (a, b, c, d), one of a, b a unit mod p, or None.  Such a
    root is the double root of the Hessian (b^2 - 3ac, bc - 9ad,
    c^2 - 3bd), r = -(bc - 9ad) / (2(b^2 - 3ac)), when b^2 - 3ac is a
    unit; otherwise the Hessian vanishes and F = a(x - r)^3 has
    r = -b/(3a), or r = -d/a at p = 3, where F = a(x^3 - r).  At p = 2
    both residues are tried.  A candidate stands only if F(r) and F'(r)
    vanish mod p."""
    a, b, c, d = form
    h = (b * b - 3 * a * c) % p
    if p == 2:
        candidates = (0, 1)
    elif h:
        candidates = (-(b * c - 9 * a * d) * pow(2 * h, -1, p) % p,)
    else:
        candidates = (-(d if p == 3 else b * pow(3, -1, p)) * pow(a, -1, p) % p,)
    for r in candidates:
        if not (((a * r + b) * r + c) * r + d) % p and not ((3 * a * r + 2 * b) * r + c) % p:
            return r
    return None


def _p_step(form, mobius, p: int):
    """(form, mobius) of an overring of R(form) of index p^2 or p, or None
    when R(form) is maximal at p (Bhargava, Shankar and Tsimerman 2013,
    Lemma 13).  mobius = (m0, m1, n0, n1) gives the root xi of F(x, 1)
    as (m0*theta + m1) / (n0*theta + n1).

    If p divides F, F/p is the form of an overring of index p^2.  Else a
    root (r:1) of F mod p of multiplicity >= 2 moves to (1:0) by
    F(x, y) -> F(rx - y, x), the same ring with the root 1/(r - xi).
    A double root at (1:0) means p | a, b; then R(F) is maximal at p
    unless p^2 | a, and (a/p^2, b/p, c, p*d) with root p*xi is the form
    of an overring of index p."""
    a, b, c, d = form
    if not (a % p or b % p or c % p or d % p):
        return (a // p, b // p, c // p, d // p), mobius
    m0, m1, n0, n1 = mobius
    if a % p or b % p:
        r = _double_root(form, p)
        if r is None:
            return None
        at_r, slope = ((a * r + b) * r + c) * r + d, (3 * a * r + 2 * b) * r + c
        a, b, c, d = at_r, -slope, 3 * a * r + b, -a
        m0, m1, n0, n1 = n0, n1, r * n0 - m0, r * n1 - m1
    if a % (p * p):
        return None
    return (a // (p * p), b // p, c, p * d), (p * m0, p * m1, n0, n1)


def maximal_order(poly: CubicPoly) -> MaximalOrder:
    """Ring of integers, by form p-steps.

    The cubic ring R(F) of the binary cubic form F = (a, b, c, d) has the
    basis 1, a*xi, a*xi^2 + b*xi, with xi a root of F(x, 1)
    (Delone-Faddeev); Z[theta] is R(1, a2, a1, a0) with xi = theta.  At
    each prime whose square divides disc(poly), `_p_step` moves to the
    form of an overring until R(F) is maximal there; when no step fires
    the order is Z[theta].  Otherwise the Moebius image xi of theta is
    built at the end, as (m0*theta + m1) * adj(beta) / N(beta) for
    beta = n0*theta + n1.  Finding the primes is a budget
    (`_square_primes`)."""
    disc_poly = poly.discriminant()
    form, mobius = (1, poly.a2, poly.a1, poly.a0), (1, 0, 0, 1)
    for p in _square_primes(disc_poly):
        while (step := _p_step(form, mobius, p)) is not None:
            form, mobius = step
    if mobius == (1, 0, 0, 1):
        return MaximalOrder(
            poly=poly, den=1, basis_num=UNIT_ROWS, disc_K=disc_poly, index=1,
            form=form, form_basis=((1, 0, 0), (0, 1, 0), (0, -poly.a2, 1)),
        )
    m0, m1, n0, n1 = mobius
    times_beta = [mul_power((n1, n0, 0), e, poly) for e in UNIT_ROWS]
    norm = det3(times_beta)
    xi = mul_power((m1, m0, 0), adj3(times_beta)[0], poly)  # xi * norm
    a, b = form[0], form[1]
    rows = (
        (norm * norm, 0, 0),
        tuple(a * norm * x for x in xi),
        tuple(a * s + b * norm * x for s, x in zip(mul_power(xi, xi, poly), xi)),
    )
    den, basis_num = _canonical_lattice(norm * norm, rows)
    index = den**3 // abs(det3(basis_num))
    assert disc_poly % (index * index) == 0
    disc_K = disc_poly // (index * index)
    # omega_i = basis_num[i] / den and the form basis is rows / norm^2, so
    # form_basis = norm^2 * basis_num * adj(rows) / (den * det(rows)), exactly
    adj, scale = adj3(rows), den * det3(rows)
    form_basis = tuple(
        tuple(norm * norm * sum(x * y for x, y in zip(row, col)) // scale for col in zip(*adj))
        for row in basis_num
    )
    return MaximalOrder(
        poly=poly, den=den, basis_num=basis_num, disc_K=disc_K, index=index,
        form=form, form_basis=form_basis,
    )


# ---------------------------------------------------------------------------
# Ideals


@dataclass(frozen=True)
class IntegralIdeal:
    """Nonzero integral ideal as the HNF of its lattice in the integral
    basis.  HNF is canonical: ideals are equal iff their matrices are."""

    hnf: tuple[tuple[int, int, int], ...]

    @staticmethod
    def from_rows(rows) -> "IntegralIdeal":
        mat = hnf_rows(rows, 3)
        if len(mat) != 3:
            raise ValueError("ideal lattice must have full rank")
        return IntegralIdeal(mat)

    @staticmethod
    def unit() -> "IntegralIdeal":
        return IntegralIdeal(UNIT_ROWS)

    @property
    def norm(self) -> int:
        return self.hnf[0][0] * self.hnf[1][1] * self.hnf[2][2]

    def is_unit_ideal(self) -> bool:
        return self.hnf == UNIT_ROWS

    def scalar_generator(self) -> Optional[int]:
        """n if this ideal is n*O (diagonal HNF with equal entries)."""
        h = self.hnf
        n = h[0][0]
        if h == ((n, 0, 0), (0, n, 0), (0, 0, n)):
            return n
        return None


@dataclass(frozen=True)
class PrimeIdeal:
    """A maximal ideal above p with residue degree f and ramification
    index e, as the HNF of its lattice in the integral basis.  `tau` is
    its multiplier: an element of p*P^-1 outside p*O, on the form basis
    1, a*xi, a*xi^2 + b*xi of the order (see factor_prime)."""

    p: int
    f: int
    e: int
    hnf: tuple[tuple[int, int, int], ...]
    label: str
    tau: tuple[int, int, int]

    @property
    def norm(self) -> int:
        return self.p**self.f

    def as_integral(self) -> IntegralIdeal:
        return IntegralIdeal(self.hnf)


def element_ideal(order: MaximalOrder, y) -> IntegralIdeal:
    """The principal ideal generated by an order element (omega coords)."""
    return IntegralIdeal.from_rows([order.omega_mul(y, e) for e in UNIT_ROWS])


def ideal_product(order: MaximalOrder, I: IntegralIdeal, J: IntegralIdeal) -> IntegralIdeal:
    rows = []
    for a in I.hnf:
        for b in J.hnf:
            rows.append(list(order.omega_mul(a, b)))
    return IntegralIdeal.from_rows(rows)


def ideal_equal(I: IntegralIdeal, J: IntegralIdeal) -> bool:
    return I.hnf == J.hnf


def valuation_kernel(order: MaximalOrder, prime: PrimeIdeal) -> tuple:
    """The data `valuation` needs to compute v_P((y)) for one prime P of
    the order: the immutable tuple (p, rows omega_i * tau) for the
    multiplier `prime.tau` from factor_prime.  tau is in p*P^-1 but not
    in p*O (Cohen, GTM 138, 4.8.3), so v_P(tau / p) = -1 and tau / p is
    integral at every other prime: v_P(y) is the number of times
    y -> y * tau / p stays integral (`valuation`), for any such tau.
    The rows are built on first use and cached on the order, and hold
    no reference to it, so an order and its cache are freed as soon as
    the last reference to it goes.
    """
    cache = order._valuation_cache
    kernel = cache.get(prime.hnf)
    if kernel is None:
        # tau on the integral basis is prime.tau * form_basis^-1
        back = order._from_form
        tau = [sum(t * row[k] for t, row in zip(prime.tau, back)) for k in range(3)]
        kernel = cache[prime.hnf] = (prime.p, tuple(order.omega_mul(e, tau) for e in UNIT_ROWS))
    return kernel


def valuation(kernel: tuple, y) -> int:
    """v_P((y)) for a nonzero order element y, from P's valuation_kernel;
    a zero y, which every power of P holds, raises ValueError."""
    p, ((a0, a1, a2), (b0, b1, b2), (c0, c1, c2)) = kernel
    y0, y1, y2 = y
    if not (y0 or y1 or y2):
        raise ValueError("zero element")
    v = 0
    while True:
        z0 = y0 * a0 + y1 * b0 + y2 * c0
        if z0 % p:
            return v
        z1 = y0 * a1 + y1 * b1 + y2 * c1
        if z1 % p:
            return v
        z2 = y0 * a2 + y1 * b2 + y2 * c2
        if z2 % p:
            return v
        y0, y1, y2 = z0 // p, z1 // p, z2 // p
        v += 1


def element_valuation(order: MaximalOrder, y, prime: PrimeIdeal) -> int:
    """v_P of the principal ideal (y): the largest k with y in P^k
    (see valuation_kernel)."""
    return valuation(valuation_kernel(order, prime), y)


# --- prime factorization ----------------------------------------------------


def _kernel_of_form(p: int, l) -> tuple:
    """HNF of {y : y . l = 0 mod p} for l nonzero mod p (index p)."""
    l0, l1, l2 = l
    if l2:
        inv = pow(l2, -1, p)
        return ((1, 0, -l0 * inv % p), (0, 1, -l1 * inv % p), (0, 0, p))
    if l1:
        return ((1, -l0 * pow(l1, -1, p) % p, 0), (0, p, 0), (0, 0, 1))
    return ((p, 0, 0), (0, 1, 0), (0, 0, 1))


def _span_mod_p(p: int, v) -> tuple:
    """HNF of p*Z^3 + Z*v for v nonzero mod p (index p^2)."""
    v0, v1, v2 = v
    if v0:
        inv = pow(v0, -1, p)
        return ((1, v1 * inv % p, v2 * inv % p), (0, p, 0), (0, 0, p))
    if v1:
        return ((p, 0, 0), (0, 1, v2 * pow(v1, -1, p) % p), (0, 0, p))
    return ((p, 0, 0), (0, p, 0), (0, 0, 1))


def factor_prime(order: MaximalOrder, p: int) -> list[PrimeIdeal]:
    """Primes above p with ramification exponents: p*O = prod p_i^{e_i}.

    O is the cubic ring of its form F = (a, b, c, d), so O/pO is the ring
    of F mod p (Delone-Faddeev, for every p), and every prime is read
    off a root of F mod p on P^1(F_p); no polynomial is factored.  With
    omega_i = m0 + m1*a*xi + m2*(a*xi^2 + b*xi) (row i of `form_basis`),
    a root (r:1) gives the degree-1 prime ker(O -> F_p, xi -> r): the
    kernel mod p of the form l_i = m0 + m1*a*r + m2*(a*r^2 + b*r), with e
    the multiplicity of r.  When p | a, (1:0) is a root of multiplicity
    3 - deg F(x, 1) mod p, and its prime is the kernel of
    l_i = m0 - b*m1 - c*m2.  A single simple root leaves an irreducible
    quadratic, made monic as g = x^2 + g1 x + g0; reducing xi^2 to
    -g0 - g1 xi turns O -> F_p[x]/(g) into two forms u, w, and the
    degree-2 prime is p*Z^3 + Z*(u x w).  No root means p is inert.  The
    primes come sorted by (f, HNF), so the last one has the largest
    residue degree.  Results are cached on the order.

    Each prime P also records its multiplier tau, in p*P^-1 but not in
    p*O, on the form basis (1, omega, theta) = (1, a*xi, a*xi^2 + b*xi):
    g0 + r*omega + theta at a root (r:1), as (xi - r)*tau = -F(r, 1) is
    in p*Z; omega at (1:0), as omega*(omega + b) = a*theta and
    omega*(theta + c) = -a*d are in p*O when p | a; for the degree-2
    prime beside a lone root, omega - a*r, or omega + b at (1:0), in the
    degree-1 prime, which is p*P^-1; 1 when p is inert.
    """
    cache = order._prime_cache
    got = cache.get(p)
    if got is not None:
        return got  # p was found prime when it was stored
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")

    a, b, c, d = (x % p for x in order.form)
    # omega_i on the basis 1, xi, xi^2
    rows = [(m0, a * m1 + b * m2, a * m2) for m0, m1, m2 in order.form_basis]
    if p < _ROOT_SCAN_LIMIT:
        roots = [x for x in range(p) if not (((a * x + b) * x + c) * x + d) % p]
    else:
        roots = modpoly.roots_mod_p((d, c, b, a), p)
    entries = []
    for r in roots:
        # F(x, 1) = (x - r)(a x^2 + g1 x + g0) mod p, by synthetic division
        g1 = (b + a * r) % p
        g0 = (c + r * g1) % p
        e = 1
        if not ((a * r + g1) * r + g0) % p:
            e = 3 if not (2 * a * r + g1) % p else 2
        lin = [(b0 + (b1 + b2 * r) * r) % p for b0, b1, b2 in rows]
        entries.append((1, _kernel_of_form(p, lin), e, (g0, r, 1)))
    if not a:  # the root (1:0)
        lin = [(m0 - b * m1 - c * m2) % p for m0, m1, m2 in order.form_basis]
        entries.append((1, _kernel_of_form(p, lin), 1 if b else 2 if c else 3, (0, 1, 0)))
        g1, g0 = c, d  # F(x, 1) = b x^2 + c x + d
    if not entries:
        entries.append((3, ((p, 0, 0), (0, p, 0), (0, 0, p)), 1, (1, 0, 0)))
    elif len(entries) == 1 and entries[0][2] == 1:  # the quadratic is irreducible
        inv = pow(a or b, -1, p)
        g1, g0 = g1 * inv % p, g0 * inv % p
        u = [(b0 - b2 * g0) % p for b0, b1, b2 in rows]
        w = [(b1 - b2 * g1) % p for b0, b1, b2 in rows]
        v = (
            (u[1] * w[2] - u[2] * w[1]) % p,
            (u[2] * w[0] - u[0] * w[2]) % p,
            (u[0] * w[1] - u[1] * w[0]) % p,
        )
        entries.append((2, _span_mod_p(p, v), 1, (-a * r % p, 1, 0) if a else (b, 1, 0)))

    entries.sort()  # by (f, hnf): distinct primes have distinct HNFs
    primes = []
    letters = "abcdefgh"
    for k, (f, mat, e, tau) in enumerate(entries):
        assert det3(mat) == p**f
        label = f"{p}{letters[k]}" if len(entries) > 1 else str(p)
        primes.append(PrimeIdeal(p=p, f=f, e=e, hnf=mat, label=label, tau=tau))
    # the fundamental identity sum e_i f_i = 3
    assert sum(q.e * q.f for q in primes) == 3
    cache[p] = primes
    return primes


def pi_ideal(order: MaximalOrder, q: int) -> IntegralIdeal:
    """Product of all maximal ideals of norm exactly q; the unit ideal
    when q is not p, p^2 or p^3 for a prime p, or no prime has that norm
    (the empty product convention).  q is never factored: p is its
    exact integer square or cube root, or q itself."""
    if q < 1:
        raise ValueError("q must be positive")
    for f in (1, 2, 3):
        p = _integer_root(q, f)
        if p**f == q and is_prime(p):
            return _degree_product(order, factor_prime(order, p), f)
    return IntegralIdeal.unit()


def _integer_root(n: int, k: int) -> int:
    """The integer k-th root floor(n^(1/k)) of n >= 1, by Newton's
    iteration from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _degree_product(order: MaximalOrder, primes, f: int) -> IntegralIdeal:
    """Product of the primes of residual degree f among `primes` (all the
    primes above one p), or the unit ideal when there is none.  When
    every prime above p has degree f and e = 1 the product is p*O itself,
    taken without a product (inert and completely split p); otherwise
    the first such prime starts the product, so one prime costs no
    product and two cost one."""
    if all(prime.f == f and prime.e == 1 for prime in primes):
        p = primes[0].p
        return IntegralIdeal(((p, 0, 0), (0, p, 0), (0, 0, p)))
    acc = None
    for prime in primes:
        if prime.f == f:
            ideal = prime.as_integral()
            acc = ideal if acc is None else ideal_product(order, acc, ideal)
    return IntegralIdeal.unit() if acc is None else acc


def split_products(order: MaximalOrder, prime_bound: int):
    """(p, f, Pi_{p^f}) for every prime p <= prime_bound and every
    residual degree f above p, in increasing (p, f), for --witnesses.
    The primes are sieved as they are taken, so the first result costs
    no sieve up to prime_bound."""
    for p in iter_primes_up_to(prime_bound):
        primes = factor_prime(order, p)
        for f in sorted({q.f for q in primes}):
            yield p, f, _degree_product(order, primes, f)


def minkowski_bound(order: MaximalOrder) -> Fraction:
    """Exact rational upper estimate of the Minkowski bound
    (4/pi)^{r2} * (3!/3^3) * sqrt|disc_K|, using a certified rational
    over-approximation of both 4/pi and the square root."""
    d = abs(order.disc_K)
    scale = 10**6
    s = math.isqrt(d * scale * scale)
    if s * s < d * scale * scale:
        s += 1
    bound = Fraction(2, 9) * Fraction(s, scale)
    if order.disc_K < 0:
        bound *= FOUR_OVER_PI_UPPER
    return bound


# The default cap on the lattice points is_principal may examine.
DEFAULT_MAX_ENUM = 400000


def is_principal(
    order: MaximalOrder,
    I: IntegralIdeal,
    radius_factor: float = 2.0,
    max_candidates: int = DEFAULT_MAX_ENUM,
) -> Optional[tuple[int, int, int]]:
    """Search I for a generator: an element of norm +-norm(I).

    The search region is a box of HNF coordinates that holds every
    element of I whose numeric embeddings are all at most
    R = radius_factor * norm(I)^(1/3) in absolute value (up to float
    rounding of the embeddings).  Returns the first generator found, in
    integral-basis coordinates, or None when no element of the region
    generates I.  None is not a proof that I is non-principal: the
    generators of a principal ideal differ by units, and when the units
    are large every generator can have an embedding above R (the field
    of x^3-12x-5 has such ideals).  Raises SearchBudgetExceededError when
    the region itself is larger than max_candidates, counting every
    point of the box; a budget failure is never reported as None.  The
    search visits one element of each pair +-y (y generates I exactly
    when -y does), in the order of the full box scan, so it returns the
    generator that scan would find first.

    The set-up is the box's caps, from the numeric embeddings, and the
    norm form F of I's HNF basis: the HNF substituted into the cached
    basis_norm_form (MaximalOrder.norm_form), with no product and no
    determinant.  The box is walked by lines (intlinalg.half_box_lines):
    with c0 and c1 fixed, F is a cubic g in c2 (norm_line).  A line's
    values are read off one integer, whose slot i of `width` bytes holds
    g(x_i) + 2^(W-1), W = 8*width, for the c2 values x_i in zigzag order
    (Kronecker substitution): the sum
    A*P3 + B*P2 + C*P1 + (D + 2^(W-1))*P0 over the coefficients of g
    and the packed powers P_e of the x_i, built once per call.  W
    exceeds the bit length of a bound on |F| over the box and of
    norm(I), so no slot carries into the next and the patterns
    2^(W-1) +- norm(I) fit a slot; the first slot-aligned match of
    either in the line's bytes is its first point of norm +-norm(I).  A
    non-primitive point k*y' (y' in I, k > 1) has |N| >= 8*norm(I), so
    it never matches and needs no filter; nor does (0, 0, -x), which the
    line c0 = c1 = 0 holds just after its negative (0, 0, x).  Only the
    hit is built as an element, and checked against norm_omega and the
    ideal it generates.
    """
    m = I.norm
    n = I.scalar_generator()
    if n is not None:
        return tuple(n * c for c in order.one)

    R = radius_factor * m ** (1.0 / 3.0)
    emb = order.embeddings
    rows = I.hnf
    # E[j][t] = sigma_j(v_t) for the HNF basis vectors v_t
    E = [
        [sum(rows[t][i] * emb[j][i] for i in range(3)) for t in range(3)]
        for j in range(3)
    ]
    Einv = invert3(E)
    caps = []
    for t in range(3):
        c = sum(abs(Einv[t][j]) for j in range(3)) * R
        caps.append(max(0, int(c + 1e-9)))
    volume = 1
    for c in caps:
        volume *= 2 * c + 1
    if volume > max_candidates:
        raise SearchBudgetExceededError(
            f"enumeration region of {volume} points exceeds ceiling {max_candidates}"
        )

    form = order.norm_form(rows)
    # |F(c)| <= bound on the box; F(0, 0, 1) = N(v_2) != 0, so the bound
    # also holds every |x|^3 with |x| <= caps[2]
    bound = sum(abs(k) * caps[a] * caps[b] * caps[c] for k, (a, b, c) in zip(form, _MONOMIALS))
    width = (max(bound, m).bit_length() + 8) // 8  # 2^(8*width-1) > bound, m
    xs = list(zigzag(caps[2]))
    p0, p1, p2, p3 = (_pack([x**e for x in xs], width) for e in range(4))
    offset = 1 << (8 * width - 1)
    size = width * len(xs)
    hit = ((offset + m).to_bytes(width, "little"), (offset - m).to_bytes(width, "little"))
    for c0, c1s in half_box_lines(caps):
        # the packed line A*p3 + B*p2 + C*p1 + (D + offset)*p0, a cubic in c1
        A, B, C, D = norm_line(form, c0)
        q0 = A[0] * p3 + B[0] * p2 + C[0] * p1 + (D[0] + offset) * p0
        q1 = B[1] * p2 + C[1] * p1 + D[1] * p0
        q2 = C[2] * p1 + D[2] * p0
        q3 = D[3] * p0
        for c1 in c1s:
            line = (((q3 * c1 + q2) * c1 + q1) * c1 + q0).to_bytes(size, "little")
            # find, not `in`: bytes.__contains__ first tries its operand as an int
            if line.find(hit[0]) < 0 and line.find(hit[1]) < 0:
                continue
            i = _first_slot(line, hit, width)
            if i is not None:
                x = xs[i]
                y = tuple(c0 * a + c1 * b + x * d for a, b, d in zip(*rows))
                assert abs(order.norm_omega(y)) == m
                assert element_ideal(order, y) == I
                return y
    return None


def _pack(values, width: int) -> int:
    """sum_i values[i] * 2^(8*width*i), each |values[i]| < 2^(8*width-1):
    the values offset into one slot of `width` bytes each, joined as
    bytes (linear in the number of values), less the offsets."""
    offset = 1 << (8 * width - 1)
    slots = b"".join((v + offset).to_bytes(width, "little") for v in values)
    ones = (b"\1" + bytes(width - 1)) * len(values)
    return int.from_bytes(slots, "little") - offset * int.from_bytes(ones, "little")


def _first_slot(data: bytes, patterns, width: int) -> Optional[int]:
    """The least i with data[i*width:(i+1)*width] one of `patterns`, or
    None: a match that starts inside a slot is no match."""
    for at in range(0, len(data), width):
        if data[at : at + width] in patterns:
            return at // width
    return None


# ---------------------------------------------------------------------------
# Splitting types


def splitting_types(order: MaximalOrder, prime_bound: int):
    """(p, splitting type) for every unramified p <= prime_bound, in
    increasing p, from one primes_up_to list: every caller walks to the
    bound, past which iter_primes_up_to's doubling windows would sieve.

    No root is extracted.  The form F = (a, b, c, d) of the order has
    discriminant disc_K, so at an odd unramified p Stickelberger's
    theorem gives the type 1+2 exactly when (disc_K/p) = -1.
    Otherwise F splits or is irreducible mod p: it splits when p | a,
    the root (1:0) being fixed by Frobenius, and else exactly when
    x^p = x modulo F(x, 1)/a.  At p = 2 the roots on P^1(F_2) are
    counted.
    """
    a, b, c, d = order.form
    split, mixed, inert = map(SplittingType.from_cycle_lengths, ([1, 1, 1], [1, 2], [3]))
    for p in primes_up_to(prime_bound):
        disc = order.disc_K % p
        if not disc:
            continue  # ramified
        if p == 2:
            roots = (d % 2 == 0) + ((a + b + c + d) % 2 == 0) + (a % 2 == 0)
            yield p, {0: inert, 1: mixed, 3: split}[roots]
        elif pow(disc, (p - 1) // 2, p) == p - 1:
            yield p, mixed
        elif not a % p:
            yield p, split
        else:
            inv = pow(a, -1, p)
            xp = modpoly.shifted_power(0, p, b * inv % p, c * inv % p, d * inv % p, p)
            yield p, split if xp == (0, 1, 0) else inert
