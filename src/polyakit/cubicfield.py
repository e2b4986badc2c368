"""Exact arithmetic in cubic number fields.

Orders, ideals and primes are integer-only: a maximal order is built by
repeated radical/multiplier enlargement at primes whose square divides
the polynomial discriminant, every order carries an integer
multiplication table on its basis, ideals are integer lattices in
Hermite normal form on the integral basis, and primes come from
splitting the polynomial mod p or, at index primes, from the radical of
O/pO.  Rationals appear only where the quantity is one: the Minkowski
bound and splitting frequencies.  The class group built on this layer
lives in classgroup.py.

Degree is fixed at three: the checks that need actual ideal arithmetic
are run on cubic fields, where every algorithm here is exhaustive and
fast; higher degrees are covered on the group side only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from . import modpoly
from .artin import SplittingType
from .intlinalg import (
    det3, hnf_rows, invert3, kernel_mod_p, lattice_contains, lattice_points, rref_mod_p,
)

DEFAULT_PRIME_BOUND = 200

# Rational upper bound for 4/pi, used in the Minkowski bound so that the
# factor base can only gain candidate generators, never lose one.
# 4/pi = 1.27323954...; since pi > 3.14159265, 4/pi < 400000000/314159265.
FOUR_OVER_PI_UPPER = Fraction(400000000, 314159265)


class ReduciblePolynomialError(ValueError):
    """The defining polynomial is reducible over the rationals."""


class SearchBudgetExceededError(RuntimeError):
    """A lattice enumeration region exceeded its configured ceiling."""


class ClassGroupInconclusiveError(RuntimeError):
    """Relation harvesting failed the stability contract at max budget."""


class ExpressionBudgetExceededError(RuntimeError):
    """Could not express an ideal class over the factor base in budget."""


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
    # binary search not worth it at these sizes
    return [p for p in ps if p <= n]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
        if i > 100000:  # huge input: defer to sympy
            from sympy import isprime

            return isprime(n)
    return True


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of |n| (n != 0) as {prime: exponent}."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 7
    while p * p <= n and p < 100000:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2
    if n > 1:
        if is_prime(n):
            out[n] = out.get(n, 0) + 1
        else:
            from sympy import factorint

            for q, e in factorint(n).items():
                out[int(q)] = out.get(int(q), 0) + int(e)
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# Defining polynomials


@dataclass(frozen=True)
class CubicPoly:
    """Monic integer cubic x^3 + a2 x^2 + a1 x + a0, irreducible over Q."""

    a2: int
    a1: int
    a0: int

    def __post_init__(self):
        # a monic integer cubic is reducible over Q iff it has an integer
        # root, necessarily dividing the constant term
        if self.a0 == 0:
            raise ReduciblePolynomialError(f"{self} has root 0")
        for d in range(1, abs(self.a0) + 1):
            if abs(self.a0) % d:
                continue
            for r in (d, -d):
                if self.eval_at(r) == 0:
                    raise ReduciblePolynomialError(f"{self} has root {r}")
        assert self.discriminant() != 0

    def eval_at(self, x: int) -> int:
        return ((x + self.a2) * x + self.a1) * x + self.a0

    def coefficients(self) -> tuple[int, int, int, int]:
        """Low-to-high coefficient tuple (a0, a1, a2, 1)."""
        return (self.a0, self.a1, self.a2, 1)

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


def discriminant(poly: CubicPoly) -> int:
    return poly.discriminant()


def is_galois_cubic(poly: CubicPoly) -> bool:
    return poly.is_galois()


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


def norm_power(u, poly: CubicPoly):
    """Field norm of an element given in power-basis coordinates."""
    row1 = mul_power(u, (0, 1, 0), poly)
    row2 = mul_power(row1, (0, 1, 0), poly)
    return det3([list(u), list(row1), list(row2)])


def power_sums(poly: CubicPoly, upto: int = 4) -> list[int]:
    """Traces of theta^k for k = 0..upto via Newton's identities."""
    a2, a1, a0 = poly.a2, poly.a1, poly.a0
    p = [3, -a2, a2 * a2 - 2 * a1]
    while len(p) <= upto:
        k = len(p)
        p.append(-(a2 * p[k - 1] + a1 * p[k - 2] + a0 * p[k - 3]))
    return p[: upto + 1]


# ---------------------------------------------------------------------------
# Orders


@dataclass(frozen=True)
class Order:
    """An order of a cubic field, in integers only.

    The basis is `basis_num / den` (rows, power-basis coordinates,
    Hermite normal form) and must span a ring.  Derived structures
    (coordinate transform, multiplication table) are lazily attached and
    treated as immutable once built; concurrent idempotent writes to the
    caches are harmless.
    """

    poly: CubicPoly
    den: int
    basis_num: tuple[tuple[int, int, int], ...]

    @cached_property
    def _omega_transform(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(den * adjugate(basis_num), det(basis_num)): integer data for
        the power-to-integral coordinate change."""
        m = self.basis_num
        a, b, c = m[0]
        d, e, f = m[1]
        g, h, i = m[2]
        adj = (
            (e * i - f * h, c * h - b * i, b * f - c * e),
            (f * g - d * i, a * i - c * g, c * d - a * f),
            (d * h - e * g, b * g - a * h, a * e - b * d),
        )
        det = det3(m)
        scaled = tuple(tuple(self.den * x for x in row) for row in adj)
        return scaled, det

    def _to_omega(self, power_num, scale: int) -> tuple[int, int, int]:
        """Integral-basis coordinates of the element whose power-basis
        coordinates are power_num / scale (integers over an integer)."""
        adj, det = self._omega_transform
        det *= scale
        out = []
        for i in range(3):
            w = power_num[0] * adj[0][i] + power_num[1] * adj[1][i] + power_num[2] * adj[2][i]
            q, r = divmod(w, det)
            if r:
                raise ValueError(f"element {power_num}/{scale} is not in the order")
            out.append(q)
        return tuple(out)

    def to_omega_int(self, power_vec) -> tuple[int, int, int]:
        """Integral-basis coordinates of an element given by integer
        power-basis coordinates."""
        return self._to_omega(power_vec, 1)

    @cached_property
    def one(self) -> tuple[int, int, int]:
        """Integral-basis coordinates of 1."""
        return self.to_omega_int((1, 0, 0))

    @cached_property
    def mult_table(self) -> tuple:
        """table[i][j] = integral-basis coordinates of omega_i * omega_j.

        With omega_i = basis_num[i] / den, the product of the numerators
        is den^2 times the power-basis coordinates of omega_i * omega_j."""
        bn = self.basis_num
        scale = self.den * self.den
        rows = []
        for i in range(3):
            row = []
            for j in range(3):
                prod = mul_power(bn[i], bn[j], self.poly)
                row.append(self._to_omega(prod, scale))
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


@dataclass(frozen=True)
class MaximalOrder(Order):
    """The ring of integers of a cubic field; disc(poly) = index^2 * disc_K.

    On top of the order arithmetic it carries the norm form, the prime
    caches and the numeric embeddings of the integral basis.
    """

    disc_K: int
    index: int

    @cached_property
    def _norm_form_flat(self) -> tuple[int, ...]:
        """Norm-form coefficients in the fixed monomial order
        y0^3, y0^2 y1, y0^2 y2, y0 y1^2, y0 y1 y2, y0 y2^2,
        y1^3, y1^2 y2, y1 y2^2, y2^3.

        The norm is the determinant of multiplication-by-y, whose row j
        is sum_i y_i * table[i][j].  The determinant is linear in each
        row, so the coefficient of y_a y_b y_c collects
        det(table[a][0], table[b][1], table[c][2]) over the orderings of
        a, b, c."""
        table = self.mult_table
        monomials = (
            (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
            (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
        )
        coeffs = dict.fromkeys(monomials, 0)
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    e = [0, 0, 0]
                    e[a] += 1
                    e[b] += 1
                    e[c] += 1
                    coeffs[tuple(e)] += det3((table[a][0], table[b][1], table[c][2]))
        return tuple(coeffs[m] for m in monomials)

    def norm_omega(self, y) -> int:
        """Field norm of an order element in integral-basis coordinates."""
        c = self._norm_form_flat
        y0, y1, y2 = y
        s0 = y0 * y0
        s1 = y1 * y1
        s2 = y2 * y2
        return (
            c[0] * s0 * y0
            + c[1] * s0 * y1
            + c[2] * s0 * y2
            + c[3] * y0 * s1
            + c[4] * y0 * y1 * y2
            + c[5] * y0 * s2
            + c[6] * s1 * y1
            + c[7] * s1 * y2
            + c[8] * y1 * s2
            + c[9] * s2 * y2
        )

    def poly_of_theta_omega(self, coeffs) -> tuple[int, int, int]:
        """Integral-basis coordinates of g(theta) for integer g (low first)."""
        acc = (0, 0, 0)
        power = (1, 0, 0)
        theta = (0, 1, 0)
        for c in coeffs:
            if c:
                acc = tuple(a + c * b for a, b in zip(acc, power))
            power = mul_power(power, theta, self.poly)
        return self.to_omega_int(acc)

    @cached_property
    def _prime_cache(self) -> dict:
        return {}

    @cached_property
    def _power_cache(self) -> dict:
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


def _radical_kernel(order: Order, p: int):
    """Basis of the nilradical of the order mod p, via the kernel of the
    iterated Frobenius x -> x^q with q = p^k >= 3."""
    q = p if p >= 3 else 4
    cols = []
    for i in range(3):
        e = [0, 0, 0]
        e[i] = 1
        # e^q via binary powering in the mod-p algebra
        acc = tuple(a % p for a in order.one)
        base = tuple(e)
        k = q
        while k:
            if k & 1:
                acc = tuple(a % p for a in order.omega_mul(acc, base))
            base = tuple(a % p for a in order.omega_mul(base, base))
            k >>= 1
        cols.append(acc)
    # matrix rows indexed by output component, columns by input basis vector
    rows = [[cols[i][j] for i in range(3)] for j in range(3)]
    return kernel_mod_p(rows, 3, p)


def _solve_in_triangular(basisrows, vec):
    """Express `vec` over upper-triangular lattice basis rows; the
    coordinates must come out integral."""
    v = list(vec)
    coords = [0] * len(basisrows)
    for k in range(len(basisrows)):
        piv = basisrows[k][k]
        q, r = divmod(v[k], piv)
        if r:
            raise ValueError("vector not in lattice")
        coords[k] = q
        if q:
            v = [a - q * b for a, b in zip(v, basisrows[k])]
    if any(v):
        raise ValueError("vector not in lattice")
    return coords


def _p_enlarge_once(order: Order, p: int) -> Order:
    """One radical/multiplier-ring enlargement step at p.  Returns the
    possibly larger order, its lattice in canonical form."""
    rad = _radical_kernel(order, p)
    ip_rows = [[p * int(i == j) for j in range(3)] for i in range(3)]
    ip_rows += [list(v) for v in rad]
    W = hnf_rows(ip_rows, 3)
    assert len(W) == 3
    # multiplier ring: y with y * I_p <= p * I_p, i.e. the kernel of
    # y -> (coords of y*w_j in the W basis) mod p
    eq_rows = []  # 9 equations (j, component) in 3 unknowns
    per_basis = []
    for i in range(3):
        e = (int(i == 0), int(i == 1), int(i == 2))
        cols = []
        for wrow in W:
            prod = order.omega_mul(e, wrow)
            cols.append(_solve_in_triangular(W, prod))
        per_basis.append(cols)
    for j in range(3):
        for k in range(3):
            eq_rows.append([per_basis[i][j][k] % p for i in range(3)])
    ker = kernel_mod_p(eq_rows, 3, p)
    u_rows = [[p * int(i == j) for j in range(3)] for i in range(3)]
    u_rows += [list(v) for v in ker]
    U = hnf_rows(u_rows, 3)
    # new order basis in power coords: (U / p) * (basis_num / den)
    basis_num = order.basis_num
    prod_rows = []
    for urow in U:
        prod_rows.append(
            [
                sum(urow[i] * basis_num[i][k] for i in range(3))
                for k in range(3)
            ]
        )
    den, basis = _canonical_lattice(order.den * p, prod_rows)
    return Order(order.poly, den, basis)


def maximal_order(poly: CubicPoly) -> MaximalOrder:
    """Ring of integers, by enlarging Z[theta] at every prime whose
    square divides the polynomial discriminant until stable."""
    disc_poly = poly.discriminant()
    order = Order(poly, 1, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    for p, e in factor_int(disc_poly).items():
        if e < 2:
            continue
        while True:
            larger = _p_enlarge_once(order, p)
            if larger == order:
                break
            order = larger
    den, basis_num = order.den, order.basis_num
    detnum = det3(basis_num)
    index = den**3 // abs(detnum)
    assert disc_poly % (index * index) == 0
    disc_K = disc_poly // (index * index)
    return MaximalOrder(poly=poly, den=den, basis_num=basis_num, disc_K=disc_K, index=index)


def is_p_maximal_dedekind(poly: CubicPoly, p: int) -> bool:
    """Dedekind's criterion at p for the equation order Z[theta]; an
    independent cross-check of the enlargement loop."""
    f = [c % p for c in poly.coefficients()]
    factors = modpoly.factor_monic_cubic(f, p)
    gstar = (1,)
    hstar = (1,)
    for g, e in factors:
        gstar = modpoly.pmul(gstar, g, p)
        for _ in range(e - 1):
            hstar = modpoly.pmul(hstar, g, p)
    # integer lift product minus f, divided by p
    def lift(a):
        return [int(c) for c in a]

    gl, hl = lift(gstar), lift(hstar)
    prod = [0] * (len(gl) + len(hl) - 1)
    for i, a in enumerate(gl):
        for j, b in enumerate(hl):
            prod[i + j] += a * b
    fc = list(poly.coefficients())
    big = [a - b for a, b in zip(prod + [0] * (4 - len(prod)), fc)]
    assert all(c % p == 0 for c in big)
    F = tuple((c // p) % p for c in big)
    d = modpoly.pgcd(modpoly.pgcd(F, gstar, p), hstar, p)
    return modpoly.pdeg(d) <= 0


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
        return IntegralIdeal(((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    @staticmethod
    def from_scalar(n: int) -> "IntegralIdeal":
        n = abs(n)
        if n == 0:
            raise ValueError("zero ideal")
        return IntegralIdeal(((n, 0, 0), (0, n, 0), (0, 0, n)))

    @property
    def norm(self) -> int:
        return self.hnf[0][0] * self.hnf[1][1] * self.hnf[2][2]

    def is_unit_ideal(self) -> bool:
        return self.hnf == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def contains(self, y) -> bool:
        return lattice_contains(self.hnf, y)

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
    index e, as the HNF of its lattice in the integral basis.

    generator_poly is the integer polynomial g (low degree first) with
    the ideal equal to p*O + g(theta)*O when p does not divide the
    index; it is None at the finitely many index primes, where the ideal
    comes from the radical of O/pO instead."""

    p: int
    f: int
    e: int
    hnf: tuple[tuple[int, int, int], ...]
    generator_poly: Optional[tuple[int, ...]]
    label: str

    @property
    def norm(self) -> int:
        return self.p**self.f

    def as_integral(self) -> IntegralIdeal:
        return IntegralIdeal(self.hnf)


def element_ideal(order: MaximalOrder, y) -> IntegralIdeal:
    """The principal ideal generated by an order element (omega coords)."""
    rows = []
    for j in range(3):
        e = (int(j == 0), int(j == 1), int(j == 2))
        rows.append(list(order.omega_mul(y, e)))
    return IntegralIdeal.from_rows(rows)


def ideal_product(order: MaximalOrder, I: IntegralIdeal, J: IntegralIdeal) -> IntegralIdeal:
    rows = []
    for a in I.hnf:
        for b in J.hnf:
            rows.append(list(order.omega_mul(a, b)))
    return IntegralIdeal.from_rows(rows)


def ideal_pow(order: MaximalOrder, I: IntegralIdeal, k: int) -> IntegralIdeal:
    if k < 0:
        raise ValueError("negative ideal power")
    result = IntegralIdeal.unit()
    for _ in range(k):
        result = ideal_product(order, result, I)
    return result


def ideal_norm(I: IntegralIdeal) -> int:
    return I.norm


def ideal_equal(I: IntegralIdeal, J: IntegralIdeal) -> bool:
    return I.hnf == J.hnf


def _prime_power(order: MaximalOrder, prime: PrimeIdeal, k: int) -> IntegralIdeal:
    cache = order._power_cache
    key = (prime.hnf, k)
    got = cache.get(key)
    if got is None:
        if k == 0:
            got = IntegralIdeal.unit()
        else:
            got = ideal_product(order, _prime_power(order, prime, k - 1), prime.as_integral())
        cache[key] = got
    return got


def _contains3(hnf, y) -> bool:
    """Membership in a full-rank upper-triangular 3x3 HNF lattice,
    allocation-free (the hot path of valuation computations)."""
    r0, r1, r2 = hnf
    d0 = r0[0]
    q0, rem = divmod(y[0], d0)
    if rem:
        return False
    t1 = y[1] - q0 * r0[1]
    q1, rem = divmod(t1, r1[1])
    if rem:
        return False
    t2 = y[2] - q0 * r0[2] - q1 * r1[2]
    return t2 % r2[2] == 0


def _hensel_data(order: MaximalOrder, prime: PrimeIdeal):
    """Lifted-root valuation data for an unramified degree-1 prime away
    from the index: (root mod p^K, p^K, K).  None when not applicable."""
    cache = order.__dict__.setdefault("_hensel_cache", {})
    got = cache.get(prime.hnf, False)
    if got is not False:
        return got
    data = None
    if (
        prime.f == 1
        and prime.e == 1
        and order.index % prime.p
        and prime.generator_poly is not None
        and len(prime.generator_poly) == 2
    ):
        p = prime.p
        K = 24 if p < 16 else 12
        pK = p**K
        r = (-prime.generator_poly[0]) % p
        coeffs = order.poly.coefficients()
        modulus = p
        while modulus < pK:
            modulus = min(modulus * modulus, pK)
            fr = (((r + coeffs[2]) * r + coeffs[1]) * r + coeffs[0]) % modulus
            dfr = ((3 * r + 2 * coeffs[2]) * r + coeffs[1]) % modulus
            r = (r - fr * pow(dfr, -1, modulus)) % modulus
        assert (((r + coeffs[2]) * r + coeffs[1]) * r + coeffs[0]) % pK == 0
        bn = order.basis_num  # y . basis_num = den * (power coords), den prime to p
        data = (r % p, r, (r * r) % pK, pK, bn)
    cache[prime.hnf] = data
    return data


def element_valuation(order: MaximalOrder, y, prime: PrimeIdeal) -> int:
    """v_p of the principal ideal (y): the largest k with y in p^k."""
    if all(a == 0 for a in y):
        raise ValueError("zero element")
    hensel = _hensel_data(order, prime)
    if hensel is not None:
        r0, r, r2, pK, bn = hensel
        p = prime.p
        # numerators of the power-basis coordinates; den is a p-unit
        n0 = y[0] * bn[0][0] + y[1] * bn[1][0] + y[2] * bn[2][0]
        n1 = y[0] * bn[0][1] + y[1] * bn[1][1] + y[2] * bn[2][1]
        n2 = y[0] * bn[0][2] + y[1] * bn[1][2] + y[2] * bn[2][2]
        if (n0 + n1 * r0 + n2 * r0 * r0) % p:
            return 0
        t = (n0 + n1 * r + n2 * r2) % pK
        if t:
            v = 0
            while t % p == 0:
                t //= p
                v += 1
            return v
        # valuation at least K: fall through to the exact lattice walk
    k = 0
    while _contains3(_prime_power(order, prime, k + 1).hnf, y):
        k += 1
    return k


# --- prime factorization ----------------------------------------------------


def _prime_from_subspace(order: MaximalOrder, p: int, subspace_rows):
    rows = [[p * int(i == j) for j in range(3)] for i in range(3)]
    rows += [list(v) for v in subspace_rows]
    mat = hnf_rows(rows, 3)
    assert len(mat) == 3
    return mat


def _exact_prime_log(n: int, p: int) -> int:
    f = 0
    while n > 1:
        assert n % p == 0
        n //= p
        f += 1
    return f


def _etale_maximal_ideals(p: int, dim: int, mul, one):
    """Maximal ideals of a commutative semisimple algebra over GF(p) of
    dimension <= 3, as lists of coordinate-vector generators (spanning
    the ideal as a subspace).  mul is a bilinear product on coordinate
    tuples of length dim, one is the unit."""
    if dim == 1:
        return [[]]

    def min_poly(u):
        # smallest monic dependency among 1, u, u^2, ...
        powers = [tuple(one)]
        cur = tuple(one)
        for _ in range(dim):
            cur = mul(cur, u)
            powers.append(cur)
        for d in range(1, dim + 1):
            rows = [list(powers[k]) for k in range(d)]
            rows.append(list(powers[d]))
            # solve c_0 .. c_{d-1}: sum c_k powers[k] = powers[d]
            aug = [[powers[k][i] for k in range(d)] + [powers[d][i]] for i in range(dim)]
            red, pivots = rref_mod_p(aug, d + 1, p)
            if d in pivots:
                continue  # inconsistent: no degree-d dependency
            sol = [0] * d
            for rowi, pc in enumerate(pivots):
                sol[pc] = red[rowi][d]
            return tuple((-c) % p for c in sol) + (1,)
        raise AssertionError("no minimal polynomial found")

    basis = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    candidates = list(basis)
    candidates += [
        tuple((a + b) % p for a, b in zip(basis[i], basis[j]))
        for i in range(dim)
        for j in range(i + 1, dim)
    ]
    for u in candidates:
        mu = min_poly(u)
        if modpoly.pdeg(mu) < 1:
            continue
        if modpoly.pdeg(mu) == 1 and dim > 1:
            continue  # scalar element, no information
        factors = modpoly.factor_monic_small(mu, p)
        if len(factors) < 2:
            continue
        assert all(e == 1 for _, e in factors), "semisimple algebra had nilpotents"
        ideals = []
        for q, _ in factors:
            # the maximal ideals containing q(u): pass to the quotient
            # algebra A / (q(u)) and recurse
            qu = _eval_poly_alg(q, u, mul, one, p)
            gen_rows = [mul(qu, b) for b in basis]
            red, pivots = rref_mod_p([list(r) for r in gen_rows], dim, p)
            ideal_rows = [tuple(r) for r in red]
            sub_ideals = _quotient_maximal_ideals(p, dim, mul, one, ideal_rows, pivots)
            ideals.extend(sub_ideals)
        return ideals
    # no candidate splits: the algebra is a field
    return [[]]


def _eval_poly_alg(q, u, mul, one, p):
    acc = tuple(0 for _ in one)
    power = tuple(a % p for a in one)
    for c in q:
        if c:
            acc = tuple((a + c * b) % p for a, b in zip(acc, power))
        power = mul(power, u)
    return acc


def _quotient_maximal_ideals(p, dim, mul, one, ideal_rows, pivots):
    """Maximal ideals of A containing the given ideal, via the quotient
    algebra on the complement coordinates."""
    comp = [j for j in range(dim) if j not in pivots]
    qdim = len(comp)

    def reduce_vec(v):
        v = [a % p for a in v]
        for row, pc in zip(ideal_rows, pivots):
            c = v[pc]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, row)]
        return v

    def project(v):
        r = reduce_vec(v)
        return tuple(r[j] for j in comp)

    def lift(w):
        v = [0] * dim
        for val, j in zip(w, comp):
            v[j] = val % p
        return tuple(v)

    def qmul(a, b):
        return project(mul(lift(a), lift(b)))

    qone = project(one)
    subs = _etale_maximal_ideals(p, qdim, qmul, qone)
    out = []
    for sub in subs:
        rows = [tuple(r) for r in ideal_rows] + [lift(w) for w in sub]
        out.append(rows)
    return out


def factor_prime(order: MaximalOrder, p: int) -> list[PrimeIdeal]:
    """Primes above p with ramification exponents: p*O = prod p_i^{e_i}.

    Away from the index this is splitting the polynomial mod p; at index
    primes the maximal ideals of O/pO are computed from its radical and
    the product identity pins down the exponents.  Results are cached on
    the order.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    cache = order._prime_cache
    got = cache.get(p)
    if got is not None:
        return got

    entries = []  # (f, hnf, gen_poly or None)
    if order.index % p:
        fbar = [c % p for c in order.poly.coefficients()]
        for g, e in modpoly.factor_monic_cubic(fbar, p):
            f = modpoly.pdeg(g)
            gtheta = order.poly_of_theta_omega([int(c) for c in g])
            rows = [[p * int(i == j) for j in range(3)] for i in range(3)]
            for j in range(3):
                ej = (int(j == 0), int(j == 1), int(j == 2))
                rows.append(list(order.omega_mul(gtheta, ej)))
            mat = hnf_rows(rows, 3)
            entries.append((f, mat, tuple(int(c) for c in g), e))
    else:
        one = order.one

        def mul(u, v):
            return tuple(a % p for a in order.omega_mul(u, v))

        rad = _radical_kernel(order, p)
        red, pivots = rref_mod_p([list(v) for v in rad], 3, p)
        for ideal_rows_sub in _quotient_maximal_ideals(
            p, 3, mul, tuple(a % p for a in one), [tuple(r) for r in red], pivots
        ):
            mat = _prime_from_subspace(order, p, ideal_rows_sub)
            f = _exact_prime_log(det3(mat), p)
            entries.append((f, mat, None, None))
        # ramification exponents from the product identity
        entries = _assign_exponents(order, p, entries)

    entries.sort(key=lambda t: (t[0], t[1]))
    primes = []
    letters = "abcdefgh"
    for k, (f, mat, gpoly, e) in enumerate(entries):
        assert det3(mat) == p**f
        label = f"{p}{letters[k]}" if len(entries) > 1 else str(p)
        primes.append(
            PrimeIdeal(
                p=p,
                f=f,
                e=int(e),
                hnf=mat,
                generator_poly=gpoly,
                label=label,
            )
        )
    # the fundamental identity sum e_i f_i = 3
    assert sum(q.e * q.f for q in primes) == 3
    cache[p] = primes
    return primes


def _assign_exponents(order: MaximalOrder, p: int, entries):
    """Find the exponent vector with prod p_i^{e_i} = p*O (unique)."""
    target = IntegralIdeal.from_scalar(p)
    fs = [f for f, _, _, _ in entries]
    ideals = [IntegralIdeal(mat) for _, mat, _, _ in entries]

    def products(idx, remaining):
        if idx == len(fs):
            return [[]] if remaining == 0 else []
        out = []
        emax = remaining // fs[idx]
        for e in range(1, emax + 1):
            for rest in products(idx + 1, remaining - e * fs[idx]):
                out.append([e] + rest)
        return out

    matches = []
    for evec in products(0, 3):
        acc = IntegralIdeal.unit()
        for ideal, e in zip(ideals, evec):
            for _ in range(e):
                acc = ideal_product(order, acc, ideal)
        if acc == target:
            matches.append(evec)
    assert len(matches) == 1, f"exponent assignment not unique at p={p}"
    evec = matches[0]
    return [
        (f, mat, gpoly, e)
        for (f, mat, gpoly, _), e in zip(entries, evec)
    ]


def pi_ideal(order: MaximalOrder, q: int) -> IntegralIdeal:
    """Product of all maximal ideals of norm exactly q; the unit ideal
    when q is not a prime power <= cube of a prime or no prime has that
    norm (the empty product convention)."""
    if q < 1:
        raise ValueError("q must be positive")
    if q == 1:
        return IntegralIdeal.unit()
    fac = factor_int(q)
    if len(fac) != 1:
        return IntegralIdeal.unit()
    (p, f), = fac.items()
    if f > 3:
        return IntegralIdeal.unit()
    acc = IntegralIdeal.unit()
    for prime in factor_prime(order, p):
        if prime.f == f:
            acc = ideal_product(order, acc, prime.as_integral())
    return acc


def splitting_type_of(order: MaximalOrder, p: int) -> SplittingType:
    return SplittingType.from_ef_parts(
        (prime.f, prime.e) for prime in factor_prime(order, p)
    )


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


def is_principal(
    order: MaximalOrder,
    I: IntegralIdeal,
    radius_factor: float = 2.0,
    max_candidates: int = 400000,
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
    the region itself is larger than max_candidates; a budget failure is
    never reported as None.  The search visits one element of each pair
    +-y (y generates I exactly when -y does), in the order of the full
    box scan, so it returns the generator that scan would find first.
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

    for y in lattice_points(rows, caps):
        if abs(order.norm_omega(y)) == m:
            assert element_ideal(order, y) == I
            return y
    return None


# ---------------------------------------------------------------------------
# Splitting statistics


def splitting_census(
    order: MaximalOrder, prime_bound: int
) -> dict[SplittingType, tuple[int, Fraction]]:
    """Tally of splitting patterns over all unramified p <= prime_bound,
    as {pattern: (count, frequency)}; frequencies sum to 1.

    Away from the index the pattern only needs the number of distinct
    roots of the polynomial mod p (no root extraction), which keeps a
    bound of 10^4 fast; index primes go through full factorization.
    """
    if prime_bound < 2:
        raise ValueError("prime_bound must be >= 2")
    fcoeffs = order.poly.coefficients()
    counts: dict[SplittingType, int] = {}
    total = 0
    split = SplittingType.from_cycle_lengths([1, 1, 1])
    mixed = SplittingType.from_cycle_lengths([1, 2])
    inert = SplittingType.from_cycle_lengths([3])
    by_roots = {0: inert, 1: mixed, 3: split}
    for p in primes_up_to(prime_bound):
        if order.disc_K % p == 0:
            continue  # ramified
        if order.index % p == 0:
            t = splitting_type_of(order, p)
        else:
            r = modpoly.distinct_root_count(fcoeffs, p)
            assert r != 2, "unramified cubic cannot have exactly 2 distinct roots"
            t = by_roots[r]
        counts[t] = counts.get(t, 0) + 1
        total += 1
    return {
        t: (c, Fraction(c, total)) for t, c in sorted(counts.items())
    }

