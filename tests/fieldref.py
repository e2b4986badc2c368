"""Reference arithmetic that only the tests use: independent routes to
quantities that polyakit computes another way.

- `pnorm` to `factor_monic_cubic`: general polynomial arithmetic over
  GF(p) for degree <= 3, coefficient tuples low degree first: distinct
  roots through gcd(x^p - x, f) and equal-degree splitting, and the
  factorization of a monic cubic; `padd`, the sum of two polynomials.
- `census_by_root_count`: the splitting census from the number of
  distinct roots of the order's form on P^1(F_p), found by that
  general arithmetic.
- `norm_power` and `power_sums`: norms and traces in the power basis.
- `is_p_maximal_dedekind`: Dedekind's criterion for Z[theta] at p.
- `to_omega_int`, `power_mult_table` and `power_valuation_kernel`: the
  order's coordinate change, multiplication table and valuation rows
  through the power basis and the adjugate of `basis_num`, not through
  the order's form.
- `poly_of_theta_omega`: g(theta) in integral-basis coordinates.
- `lattice_points`: the points of `lattice_lines`, one at a time.
- `lattice_contains`: membership in the lattice of HNF rows.
- `exponent_norm_form`: MaximalOrder.norm_form's coefficients, summed
  into a dict keyed by the exponents of c0, c1, c2.
- `norm_form_by_determinants`: the same coefficients, each summed over
  the distinct orderings of its monomial's indices.
- `generic_factor_prime`: the primes above p, away from the index, by
  factoring f mod p and taking the HNF of p*O + g(theta)*O.
- `ideal_pow`: I^k by repeated `ideal_product`.
- `ring_map_kernels`: the degree-1 primes above p, as the kernels of
  the ring maps O -> F_p found among all p^3 linear forms.
- `rref_mod_p`, `kernel_mod_p` and `multiplier_rows`: a prime's
  multiplier tau found by linear algebra over GF(p), not read off the
  form, and the valuation rows built from it.
- `polya_walk`: one Polya variant's subgroup from its own walk over the
  primes, as (subgroup, used, processed_bound, full_at).
- `pi_by_products`: Pi_{p^f} multiplied out of the primes above p,
  one `ideal_product` per further prime.
- `ostrowski_by_ideals`: the Ostrowski records of a Galois order from
  the ideals themselves: each Pi_{p^f} built by `pi_by_products` and
  its generator read off the HNF, not off the splitting law.
"""

import itertools

from polyakit import classgroup
from polyakit.artin import SplittingType
from polyakit.cubicfield import (
    IntegralIdeal,
    factor_prime,
    ideal_product,
    iter_primes_up_to,
    mul_power,
    primes_up_to,
)
from polyakit.intlinalg import adj3, det3, hnf_rows, lattice_coordinates, lattice_lines

_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


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


def _root_part(f, p: int):
    """gcd(x^p - x, f) for f made monic mod p: the product of the
    distinct linear factors of f over GF(p)."""
    f = pmonic(pnorm(f, p), p)
    if not f:
        raise ValueError("zero polynomial")
    xp = ppowmod((0, 1), p, f, p)
    return pgcd(psub(xp, (0, 1), p), f, p)


def distinct_root_count(f, p: int) -> int:
    """Number of distinct roots of f in GF(p)."""
    return pdeg(_root_part(f, p))


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
    return _split_roots(_root_part(f, p), p)


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


def padd(a, b, p):
    """a + b over GF(p), in pnorm's coefficient-tuple form."""
    n = max(len(a), len(b))
    return pnorm(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)], p
    )


def norm_power(u, poly):
    """Field norm of an element given in power-basis coordinates."""
    row1 = mul_power(u, (0, 1, 0), poly)
    row2 = mul_power(row1, (0, 1, 0), poly)
    return det3([list(u), list(row1), list(row2)])


def power_sums(poly, upto=4):
    """Traces of theta^k for k = 0..upto via Newton's identities."""
    a2, a1, a0 = poly.a2, poly.a1, poly.a0
    p = [3, -a2, a2 * a2 - 2 * a1]
    while len(p) <= upto:
        k = len(p)
        p.append(-(a2 * p[k - 1] + a1 * p[k - 2] + a0 * p[k - 3]))
    return p[: upto + 1]


def is_p_maximal_dedekind(poly, p):
    """Dedekind's criterion at p for the equation order Z[theta]; an
    independent cross-check of the form p-steps of maximal_order."""
    coeffs = (poly.a0, poly.a1, poly.a2, 1)
    f = [c % p for c in coeffs]
    gstar = (1,)
    hstar = (1,)
    for g, e in factor_monic_cubic(f, p):
        gstar = pmul(gstar, g, p)
        for _ in range(e - 1):
            hstar = pmul(hstar, g, p)
    # (integer lift of gstar * hstar - f) / p, mod p
    prod = [0] * (len(gstar) + len(hstar) - 1)
    for i, a in enumerate(gstar):
        for j, b in enumerate(hstar):
            prod[i + j] += a * b
    big = [a - b for a, b in zip(prod + [0] * (4 - len(prod)), coeffs)]
    assert all(c % p == 0 for c in big)
    F = tuple((c // p) % p for c in big)
    d = pgcd(pgcd(F, gstar, p), hstar, p)
    return pdeg(d) <= 0


def to_omega_int(order, power_num, scale=1):
    """Integral-basis coordinates of the element whose power-basis
    coordinates are power_num / scale (integers over an integer), by
    den * adjugate(basis_num) / det(basis_num)."""
    m = order.basis_num
    adj, det = adj3(m), det3(m) * scale
    out = []
    for i in range(3):
        w = order.den * sum(power_num[k] * adj[k][i] for k in range(3))
        q, r = divmod(w, det)
        if r:
            raise ValueError(f"element {power_num}/{scale} is not in the order")
        out.append(q)
    return tuple(out)


def power_mult_table(order):
    """table[i][j] = integral-basis coordinates of omega_i * omega_j, from
    the product of the numerators in the power basis, which is den^2
    times that of omega_i * omega_j."""
    bn, scale = order.basis_num, order.den * order.den
    return tuple(
        tuple(to_omega_int(order, mul_power(bn[i], bn[j], order.poly), scale) for j in range(3))
        for i in range(3)
    )


def _table_mul(table, y, z):
    return tuple(
        sum(y[i] * z[j] * table[i][j][k] for i in range(3) for j in range(3)) for k in range(3)
    )


def power_valuation_kernel(order, prime):
    """(p, rows omega_i * tau) as cubicfield.valuation_kernel gives them,
    with tau moved to the integral basis by an adjugate of form_basis
    and multiplied by `power_mult_table`."""
    fb = order.form_basis
    sign, adj = det3(fb), adj3(fb)
    tau = [sign * sum(t * row[k] for t, row in zip(prime.tau, adj)) for k in range(3)]
    table = power_mult_table(order)
    return (prime.p, tuple(_table_mul(table, e, tau) for e in _UNITS))


def poly_of_theta_omega(order, coeffs):
    """Integral-basis coordinates of g(theta) for integer g (low first)."""
    acc = (0, 0, 0)
    power = (1, 0, 0)
    for c in coeffs:
        if c:
            acc = tuple(a + c * b for a, b in zip(acc, power))
        power = mul_power(power, (0, 1, 0), order.poly)
    return to_omega_int(order, acc)


def lattice_points(rows, caps, skip=-1):
    """Nonzero points y = c0*rows[0] + c1*rows[1] + c2*rows[2] over the
    coefficients c of `lattice_lines(caps, skip)`, in its order."""
    (a0, a1, a2), (b0, b1, b2), (d0, d1, d2) = rows
    for c0, c1, xs in lattice_lines(caps, skip):
        e0, e1, e2 = c0 * a0 + c1 * b0, c0 * a1 + c1 * b1, c0 * a2 + c1 * b2
        for c2 in xs:
            yield e0 + c2 * d0, e1 + c2 * d1, e2 + c2 * d2


def lattice_contains(hnf, vec) -> bool:
    """Whether `vec` lies in the lattice spanned by the HNF rows."""
    return lattice_coordinates(hnf, vec) is not None


# exponents of c0, c1, c2 in the monomial order of MaximalOrder.norm_form
_EXPONENTS = (
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
)


def exponent_norm_form(order, rows):
    """The coefficients of N(c0*rows[0] + c1*rows[1] + c2*rows[2]) in
    the order of _EXPONENTS: det(M_a[0], M_b[1], M_c[2]), with M_t[j]
    the coordinates of rows[t] * omega_j, summed over all 27 (a, b, c)
    into the exponent vector of c_a c_b c_c."""
    mats = [[order.omega_mul(r, e) for e in _UNITS] for r in rows]
    coeffs = dict.fromkeys(_EXPONENTS, 0)
    for a, b, c in itertools.product(range(3), repeat=3):
        e = [0, 0, 0]
        e[a] += 1
        e[b] += 1
        e[c] += 1
        coeffs[tuple(e)] += det3((mats[a][0], mats[b][1], mats[c][2]))
    return tuple(coeffs[e] for e in _EXPONENTS)


def norm_form_by_determinants(order, rows):
    """MaximalOrder.norm_form(rows) as the determinant of
    multiplication-by-y, whose row j is sum_t c_t * M_t[j] with M_t[j]
    the coordinates of rows[t] * omega_j: the determinant is linear in
    each row, so the coefficient of c_a c_b c_c collects
    det(M_a[0], M_b[1], M_c[2]) over the distinct orderings of a, b, c."""
    mats = [[order.omega_mul(r, e) for e in _UNITS] for r in rows]
    return tuple(
        sum(
            det3((mats[a][0], mats[b][1], mats[c][2]))
            for a, b, c in set(itertools.permutations(t))
        )
        for t in itertools.combinations_with_replacement(range(3), 3)
    )


def generic_factor_prime(order, p):
    """(p, f, e, hnf, g, label) of each prime above p, for p not dividing
    the index: every monic irreducible factor g of f mod p (low degree
    first), with multiplicity e, gives the prime of HNF
    hnf_rows(p*O, g(theta)*O), and the primes are sorted and labelled as
    factor_prime does."""
    assert order.index % p
    fbar = [c % p for c in (order.poly.a0, order.poly.a1, order.poly.a2, 1)]
    table = power_mult_table(order)
    entries = []
    for g, e in factor_monic_cubic(fbar, p):
        gtheta = poly_of_theta_omega(order, g)
        rows = [[p * int(i == j) for j in range(3)] for i in range(3)]
        rows += [_table_mul(table, gtheta, u) for u in _UNITS]
        entries.append((pdeg(g), hnf_rows(rows, 3), tuple(g), e))
    entries.sort(key=lambda t: (t[0], t[1]))
    return [
        (p, f, e, mat, g, f"{p}{'abc'[k]}" if len(entries) > 1 else str(p))
        for k, (f, mat, g, e) in enumerate(entries)
    ]


def scalar_ideal(n: int) -> IntegralIdeal:
    """n*O for n > 0: its HNF is n times the identity."""
    return IntegralIdeal(((n, 0, 0), (0, n, 0), (0, 0, n)))


def ideal_pow(order, I, k):
    """I^k for k >= 0, as k products."""
    result = IntegralIdeal.unit()
    for _ in range(k):
        result = ideal_product(order, result, I)
    return result


def ring_map_kernels(order, p):
    """Sorted HNFs of the kernels of the unital ring maps O -> F_p, the
    degree-1 primes above p: every linear form l on the integral basis
    with l(1) = 1 and l(omega_i * omega_j) = l_i * l_j mod p, its kernel
    spanned by p*Z^3 and the box vectors l sends to 0."""
    table, one = order.mult_table, order.one

    def image(l, y):
        return (l[0] * y[0] + l[1] * y[1] + l[2] * y[2]) % p

    box = list(itertools.product(range(p), repeat=3))
    kernels = []
    for l in box:
        if image(l, one) == 1 % p and all(
            image(l, table[i][j]) == l[i] * l[j] % p for i in range(3) for j in range(3)
        ):
            rows = [[p * int(i == j) for j in range(3)] for i in range(3)]
            rows += [list(y) for y in box if image(l, y) == 0]
            kernels.append(hnf_rows(rows, 3))
    return sorted(kernels)


def rref_mod_p(rows, ncols, p):
    """Reduced row echelon form over GF(p); returns (rows, pivot columns)."""
    A = [[a % p for a in r] for r in rows]
    pivots = []
    r = 0
    for j in range(ncols):
        piv = next((i for i in range(r, len(A)) if A[i][j] % p), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][j], -1, p)
        A[r] = [(a * inv) % p for a in A[r]]
        for i in range(len(A)):
            if i != r and A[i][j]:
                c = A[i][j]
                A[i] = [(a - c * b) % p for a, b in zip(A[i], A[r])]
        pivots.append(j)
        r += 1
    return [tuple(row) for row in A[:r]], pivots


def kernel_mod_p(rows, ncols, p):
    """Basis of the right kernel of a matrix over GF(p), as tuples of
    ints in [0, p): one vector per free column j of `rref_mod_p`'s form R,
    in increasing j, with 1 at j, 0 at the other free columns and
    -R[r][j] at the pivot column of each row r."""
    red, pivots = rref_mod_p(rows, ncols, p)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [0] * ncols
        v[j] = 1
        for row, pj in zip(red, pivots):
            v[pj] = -row[j] % p
        basis.append(tuple(v))
    return basis


def multiplier_rows(order, p, hnf):
    """The rows omega_i * tau of a tau with tau * P in p*O and tau not in
    p*O, for the prime P of HNF `hnf` above p (Cohen, GTM 138, 4.8.3):
    the first vector of the kernel mod p of y -> y * w over the HNF rows
    w of P (a row in p*O adds no equation, so it is skipped)."""
    prods = [[order.omega_mul(e, w) for e in _UNITS] for w in hnf if any(c % p for c in w)]
    eqs = [[prod[i][k] for i in range(3)] for prod in prods for k in range(3)]
    tau = kernel_mod_p(eqs, 3, p)[0]
    return tuple(order.omega_mul(e, tau) for e in _UNITS)


def polya_walk(order, cl, prime_bound, variant):
    """The subgroup of Cl generated by the classes of Pi_{p^f} for
    p <= prime_bound, each variant walking the primes on its own: "all"
    takes every prime, "nr" only p not dividing disc_K, "nr1" only those
    and only f = 1.  The walk stops once the subgroup is all of Cl;
    full_at is that prime (0 when Cl is trivial), processed_bound is
    full_at or else prime_bound."""
    amb = cl.snf
    gens, used = [], []
    sub = amb.subgroup(gens)
    full_at = 0 if sub.is_full() else None
    for p in iter_primes_up_to(prime_bound) if full_at is None else ():
        if variant != "all" and order.disc_K % p == 0:
            continue
        classes = classgroup.pi_class_map(order, cl, p)
        grew = False
        for f in sorted(classes):
            if variant == "nr1" and f != 1:
                continue
            if any(classes[f]):
                used.append((p, f, classes[f]))
                gens.append(classes[f])
                grew = True
        if grew:
            sub = amb.subgroup(gens)
            if sub.is_full():
                full_at = p
                break
    return sub, used, full_at if full_at is not None else prime_bound, full_at


def census_by_root_count(order, prime_bound):
    """{pattern: count} over the unramified p <= prime_bound, the pattern
    read off the number of distinct roots of the order's form F on
    P^1(F_p): those of F(x, 1) by `distinct_root_count`, plus (1:0) when
    p divides its leading coefficient."""
    a, fx = order.form[0], order.form[::-1]
    by_roots = {0: (3,), 1: (1, 2), 3: (1, 1, 1)}
    counts = {}
    for p in primes_up_to(prime_bound):
        if order.disc_K % p:
            t = SplittingType.from_cycle_lengths(by_roots[distinct_root_count(fx, p) + (a % p == 0)])
            counts[t] = counts.get(t, 0) + 1
    return counts


def pi_by_products(order, p, f):
    """The product of the primes above p of residue degree f, or the
    unit ideal when there is none: the first such prime starts the
    product and each further one costs an ideal_product."""
    acc = None
    for prime in factor_prime(order, p):
        if prime.f == f:
            ideal = prime.as_integral()
            acc = ideal if acc is None else ideal_product(order, acc, ideal)
    return IntegralIdeal.unit() if acc is None else acc


def ostrowski_by_ideals(order, prime_bound):
    """classgroup.ostrowski_check's records, each unramified Pi_{p^f}
    multiplied out of the primes above p (pi_by_products) and its
    generator read off the HNF (IntegralIdeal.scalar_generator)."""
    out = []
    for p in primes_up_to(prime_bound):
        if order.disc_K % p == 0:
            continue
        for f in sorted({q.f for q in factor_prime(order, p)}):
            ideal = pi_by_products(order, p, f)
            n = ideal.scalar_generator()
            out.append(
                {
                    "p": p,
                    "f": f,
                    "norm": ideal.norm,
                    "principal": n is not None,
                    "generator": [n * c for c in order.one] if n is not None else None,
                }
            )
    return out
