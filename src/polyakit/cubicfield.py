"""Exact arithmetic in cubic number fields.

Orders, ideals and primes are integer-only: a maximal order is built by
repeated radical/multiplier enlargement at primes whose square divides
the polynomial discriminant, every order carries an integer
multiplication table on its basis, ideals are integer lattices in
Hermite normal form on the integral basis, and primes come in closed
form from the roots mod p of the characteristic polynomial of a
p-generator: theta away from the index, a small basis combination at
index primes.  Rationals appear only where the quantity is one: the
Minkowski bound and splitting frequencies.  The class group built on
this layer lives in classgroup.py.

Degree is fixed at three: the checks that need actual ideal arithmetic
are run on cubic fields, where every algorithm here is exhaustive and
fast; higher degrees are covered on the group side only.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from . import modpoly
from .artin import SplittingType
from .intlinalg import (
    adj3, det3, hnf_rows, invert3, kernel_mod_p, lattice_contains, lattice_coordinates,
    lattice_lines,
)

DEFAULT_PRIME_BOUND = 200
# factor_prime tries every residue for a root of f mod p below this p and
# calls modpoly.roots_mod_p from it on: both take ~0.23 ms a cubic near
# p = 1400 (Python 3.11 on a 2-core x86-64 machine).
_ROOT_SCAN_LIMIT = 1400
_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# exponents of c0, c1, c2 in the monomial order of MaximalOrder.norm_form
_MONOMIALS = (
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
)

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
        scaled = tuple(tuple(self.den * x for x in row) for row in adj3(m))
        return scaled, det3(m)

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

    def norm_form(self, rows) -> tuple[int, ...]:
        """Coefficients of the ternary cubic form
        F(c) = N(c0*rows[0] + c1*rows[1] + c2*rows[2]) in the fixed
        monomial order c0^3, c0^2 c1, c0^2 c2, c0 c1^2, c0 c1 c2,
        c0 c2^2, c1^3, c1^2 c2, c1 c2^2, c2^3 (`rows` in integral-basis
        coordinates).

        The norm is the determinant of multiplication-by-y, whose row j
        is sum_t c_t * M_t[j] with M_t[j] the coordinates of
        rows[t] * omega_j.  The determinant is linear in each row, so
        the coefficient of c_a c_b c_c collects
        det(M_a[0], M_b[1], M_c[2]) over the orderings of a, b, c."""
        mats = [[self.omega_mul(r, e) for e in _UNITS] for r in rows]
        coeffs = dict.fromkeys(_MONOMIALS, 0)
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    e = [0, 0, 0]
                    e[a] += 1
                    e[b] += 1
                    e[c] += 1
                    coeffs[tuple(e)] += det3((mats[a][0], mats[b][1], mats[c][2]))
        return tuple(coeffs[m] for m in _MONOMIALS)

    @cached_property
    def _norm_form_flat(self) -> tuple[int, ...]:
        """The norm form on the integral basis itself, in the variables
        y0, y1, y2 (see norm_form)."""
        return self.norm_form(_UNITS)

    def norm_omega(self, y) -> int:
        """Field norm of an order element in integral-basis coordinates."""
        # the ten-term cubic form, nested in y0 and then in y1: 17 products
        c = self._norm_form_flat
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


def norm_line(form, c0: int, c1: int) -> tuple[int, int, int, int]:
    """(A, B, C, D) with F(c0, c1, x) = ((A*x + B)*x + C)*x + D for the
    norm form F whose coefficients `form` are in MaximalOrder.norm_form's
    monomial order: the norm along the line of c2 through (c0, c1).  A
    does not depend on the line; B is linear, C quadratic and D cubic in
    (c0, c1)."""
    k0, k1, k2, k3, k4, k5, k6, k7, k8, k9 = form
    s1 = c1 * c1
    return (
        k9,
        k5 * c0 + k8 * c1,
        (k2 * c0 + k4 * c1) * c0 + k7 * s1,
        ((k0 * c0 + k1 * c1) * c0 + k3 * s1) * c0 + k6 * s1 * c1,
    )


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


def _p_enlarge_once(order: Order, p: int) -> Order:
    """One radical/multiplier-ring enlargement step at p.  Returns the
    possibly larger order, its lattice in canonical form."""
    rad = _radical_kernel(order, p)
    ip_rows = [[p * int(i == j) for j in range(3)] for i in range(3)]
    ip_rows += [list(v) for v in rad]
    W = hnf_rows(ip_rows, 3)
    assert len(W) == 3
    # multiplier ring: y with y * I_p <= p * I_p, i.e. the kernel of
    # y -> (coords of y*w_j in the W basis) mod p, 9 equations (j,
    # component) in 3 unknowns; I_p is an ideal, so every y*w_j lies in W
    per_basis = [[lattice_coordinates(W, order.omega_mul(e, w)) for w in W] for e in _UNITS]
    eq_rows = [[per_basis[i][j][k] for i in range(3)] for j in range(3) for k in range(3)]
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
    maximal = MaximalOrder(poly=poly, den=den, basis_num=basis_num, disc_K=disc_K, index=index)
    # The last enlargement step built these on the same lattice.
    for name in ("_omega_transform", "one", "mult_table"):
        if name in vars(order):
            vars(maximal)[name] = vars(order)[name]
    return maximal


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
    index e, as the HNF of its lattice in the integral basis."""

    p: int
    f: int
    e: int
    hnf: tuple[tuple[int, int, int], ...]
    label: str

    @property
    def norm(self) -> int:
        return self.p**self.f

    def as_integral(self) -> IntegralIdeal:
        return IntegralIdeal(self.hnf)


def element_ideal(order: MaximalOrder, y) -> IntegralIdeal:
    """The principal ideal generated by an order element (omega coords)."""
    return IntegralIdeal.from_rows([order.omega_mul(y, e) for e in _UNITS])


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


def _multiplier_rows(order: MaximalOrder, p: int, hnf) -> tuple:
    """The rows omega_i * tau of a fixed tau with tau * P in p*O and tau
    not in p*O, for the prime P of HNF `hnf` above p (Cohen, GTM 138,
    4.8.3).  tau is a nonzero vector of the kernel mod p of y -> y * w
    over the HNF rows w of P (a row in p*O adds no equation, so it is
    skipped).  Then v_P(tau / p) = -1 and tau / p is integral at every
    other prime, so v_P(y) is the number of times y -> y * tau / p
    stays integral (`valuation`)."""
    prods = [[order.omega_mul(e, w) for e in _UNITS] for w in hnf if any(c % p for c in w)]
    eqs = [[prod[i][k] for i in range(3)] for prod in prods for k in range(3)]
    tau = kernel_mod_p(eqs, 3, p)[0]
    return tuple(order.omega_mul(e, tau) for e in _UNITS)


def valuation_kernel(order: MaximalOrder, prime: PrimeIdeal) -> tuple:
    """The data `valuation` needs to compute v_P((y)) for one prime P of
    the order: the immutable tuple (p, rows of P's multiplier tau), see
    `_multiplier_rows`.  It is built once and cached on the order, and
    it holds no reference to the order, so an order and its cache are
    freed as soon as the last reference to it goes.
    """
    cache = order._valuation_cache
    kernel = cache.get(prime.hnf)
    if kernel is None:
        kernel = cache[prime.hnf] = (prime.p, _multiplier_rows(order, prime.p, prime.hnf))
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


def _p_generator(order: MaximalOrder, p: int):
    """(forms, chi) of a p-generator alpha of O, an element with p not
    dividing [O : Z[alpha]] = |det(1, alpha, alpha^2)| (rows in
    integral-basis coordinates), or None when O has none.

    alpha is the first vector of [0, min(p, 4))^3, in lexicographic
    order, whose determinant is nonzero mod p.  The vectors that fail
    are those of the proper subalgebras of O/pO, at most three planes.
    For p <= 3 the box is all of O/pO, and three planes through the
    line F_p * 1 cover it only at p = 2, when O/2O = F_2^3.  For p >= 5 a
    plane holds at most 16 of the box's 64 points, since one coordinate
    of its points is fixed by the other two.  So only p = 2 split into
    three degree-1 primes has no p-generator.

    forms = adj(1, alpha, alpha^2): row i is omega_i on the basis
    1, alpha, alpha^2 mod p, times the p-unit det.  chi = (c0, c1, c2)
    mod p with x^3 + c2 x^2 + c1 x + c0 the characteristic polynomial of
    alpha, read off the coordinates of alpha^3 on that basis.
    """
    one = order.one
    for alpha in itertools.product(range(min(p, 4)), repeat=3):
        square = order.omega_mul(alpha, alpha)
        powers = (one, alpha, square)
        det = det3(powers) % p
        if det:
            forms = adj3(powers)
            cube = order.omega_mul(alpha, square)
            scale = -pow(det, -1, p)
            chi = tuple(
                scale * sum(c * row[k] for c, row in zip(cube, forms)) % p for k in range(3)
            )
            return forms, chi
    return None


def _root_primes(p: int, forms, chi) -> list:
    """(f, HNF, e) of every prime above p, from the roots mod p of the
    characteristic polynomial x^3 + c2 x^2 + c1 x + c0, chi = (c0, c1, c2),
    of a p-generator whose basis forms are `forms` (see factor_prime)."""
    a0, a1, a2 = (c % p for c in chi)
    if p < _ROOT_SCAN_LIMIT:
        roots = [x for x in range(p) if not (((x + a2) * x + a1) * x + a0) % p]
    else:
        roots = modpoly.roots_mod_p((a0, a1, a2, 1), p)
    entries = []
    for r in roots:
        # chi = (x - r)(x^2 + g1 x + g0) mod p, by synthetic division
        g1 = (a2 + r) % p
        g0 = (a1 + r * g1) % p
        e = 1
        if not (r * r + g1 * r + g0) % p:
            e = 3 if not (2 * r + g1) % p else 2
        form = [(b0 + (b1 + b2 * r) * r) % p for b0, b1, b2 in forms]
        entries.append((1, _kernel_of_form(p, form), e))
    if not roots:
        entries.append((3, ((p, 0, 0), (0, p, 0), (0, 0, p)), 1))
    elif len(roots) == 1 and e == 1:  # the cofactor g is irreducible
        u = [(b0 - b2 * g0) % p for b0, b1, b2 in forms]
        w = [(b1 - b2 * g1) % p for b0, b1, b2 in forms]
        v = (
            (u[1] * w[2] - u[2] * w[1]) % p,
            (u[2] * w[0] - u[0] * w[2]) % p,
            (u[0] * w[1] - u[1] * w[0]) % p,
        )
        entries.append((2, _span_mod_p(p, v), 1))
    return entries


def factor_prime(order: MaximalOrder, p: int) -> list[PrimeIdeal]:
    """Primes above p with ramification exponents: p*O = prod p_i^{e_i}.

    Every prime is read off a root mod p of the characteristic
    polynomial chi of a p-generator alpha, an element with p not dividing
    [O : Z[alpha]], so that O/pO is F_p[x]/(chi mod p) (Dedekind-Kummer;
    Cohen, GTM 138, 4.8.2 and 6.2), and no polynomial is factored.  Away
    from the index alpha is theta, chi is f, and omega_i is
    (b_i0 + b_i1 theta + b_i2 theta^2) / den with b the basis numerators
    and den a p-unit; at an index prime `_p_generator` gives alpha and
    the b_ik, up to one p-unit.  A root r gives the degree-1 prime
    ker(O -> F_p, alpha -> r): the kernel mod p of the form
    l_i = b_i0 + b_i1 r + b_i2 r^2, with e the multiplicity of r.  A
    single simple root leaves an irreducible cofactor g = x^2 + g1 x + g0;
    reducing alpha^2 to -g0 - g1 alpha turns O -> F_p[x]/(g) into two
    forms u, w, and the degree-2 prime is p*Z^3 + Z*(u x w).  No root
    means p is inert.

    Only 2 can lack a p-generator, exactly when it splits into three
    degree-1 primes: 2 is the only common index divisor a cubic field can
    have (Hensel).  Those three primes are the kernels of the ring maps
    O -> F_2, found among the eight linear forms.  The primes come sorted
    by (f, HNF), so the last one has the largest residue degree.  Results
    are cached on the order.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    cache = order._prime_cache
    got = cache.get(p)
    if got is not None:
        return got

    if order.index % p:
        generator = order.basis_num, order.poly.coefficients()[:3]
    else:
        generator = _p_generator(order, p)
    if generator is not None:
        entries = _root_primes(p, *generator)
    else:
        table, one = order.mult_table, order.one

        def image(l, y):
            return (l[0] * y[0] + l[1] * y[1] + l[2] * y[2]) % 2

        entries = [
            (1, _kernel_of_form(2, l), 1)
            for l in itertools.product(range(2), repeat=3)
            if image(l, one) == 1
            and all(image(l, table[i][j]) == l[i] * l[j] for i in range(3) for j in range(3))
        ]
        assert p == 2 and len(entries) == 3, "only 2 split into three primes lacks a p-generator"

    entries.sort()  # by (f, hnf): distinct primes have distinct HNFs
    primes = []
    letters = "abcdefgh"
    for k, (f, mat, e) in enumerate(entries):
        assert det3(mat) == p**f
        label = f"{p}{letters[k]}" if len(entries) > 1 else str(p)
        primes.append(PrimeIdeal(p=p, f=f, e=e, hnf=mat, label=label))
    # the fundamental identity sum e_i f_i = 3
    assert sum(q.e * q.f for q in primes) == 3
    cache[p] = primes
    return primes


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


def split_products(order: MaximalOrder, prime_bound: int):
    """(p, f, Pi_{p^f}) for every prime p <= prime_bound and every
    residual degree f above p, in increasing (p, f): the ideals that the
    Ostrowski sweep asks a generator of."""
    for p in primes_up_to(prime_bound):
        for f in sorted({q.f for q in factor_prime(order, p)}):
            yield p, f, pi_ideal(order, p**f)


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

    The box is scanned by lines (intlinalg.lattice_lines): with the
    first two HNF coordinates fixed, the norm form of I's basis is a
    cubic in the third (norm_line), evaluated over the whole line at
    once, and a line without a value +-norm(I) is rejected as a whole.
    Only the hit is built as an element, and checked against norm_omega
    and the ideal it generates.
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
    r0, r1, r2 = rows
    for c0, c1, xs in lattice_lines(caps):
        A, B, C, D = norm_line(form, c0, c1)
        vals = [((A * x + B) * x + C) * x + D for x in xs]
        if m in vals or -m in vals:
            x = next(x for x, v in zip(xs, vals) if v == m or v == -m)
            y = tuple(c0 * a + c1 * b + x * d for a, b, d in zip(r0, r1, r2))
            assert abs(order.norm_omega(y)) == m
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

