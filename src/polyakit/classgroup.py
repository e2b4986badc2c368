"""Class groups of cubic orders and the subgroups generated by the
products of same-norm maximal ideals.

The class group is presented on the factor base of primes below the
Minkowski bound.  Relations are harvested deterministically from three
sources: factorizations of rational primes, principality certificates
found by bounded search, and factorizations of the principal ideals of
the elements in a coordinate box.  The harvested lattice always yields
a group surjecting onto the true class group, so the result can only
err on the large side; the stability contract (doubling the harvest
budget must not change the invariant factors) is the guard, and when
the relations span Z^k the trivial answer is exact with no heuristic at
all.

Each `class_group` call grows one relation lattice, an
intlinalg.HermiteBasis: every new relation goes in as soon as it is
found, the box grows one shell at a time as the radius doubles, so each
box point is factored once per field, and the scan stops the moment the
lattice is Z^k.  Only the primitive points of the box are scanned
(intlinalg.lattice_lines): a multiple g*y of a point adds only rows
the lattice already holds.  Once the lattice has full rank, a relation
it already holds, a repeated row or the common case in a field with
nontrivial Cl, costs only the basis's test in the quotient Z^k/L (a few
dot products over the columns whose pivot is not 1), not an insertion.
More than MAX_FACTOR_BASE_PRIMES rational primes below the Minkowski
bound raise SearchBudgetExceededError before any prime is factored.
A presentation (AbelianGroupSNF.presented) only runs the SNF of the
lattice's HNF, and only when that HNF has changed since the last one.
The box is scanned by lines (`_smooth_points`): the norm is a cubic in
c2 along each line, its coefficients polynomials in c1 made once per
c0 (cubicfield.norm_line), so no point is built as an element before
its norm is known.  A point whose norm has a gcd of 1 with the product
of the factor-base primes' rational primes before the norm is used up
is rejected without trial division.  For the rest, every prime above p
but the last of cubicfield.factor_prime is valued with one cached
kernel (cubicfield.valuation_kernel: the rows of the multiplier tau
that factor_prime read off the ring's form, with tau*P in p*O), and
the valuation of the last one follows from the norm, with no kernel.

Po(K), Po(K)_nr and Po(K)_nr1 come from one walk over the primes
(`polya_group`): the classes of the Pi_{p^f} above each prime are found
once and given to every variant that still takes that prime, so no
class is searched for twice and nothing is cached between walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log, prod
from typing import Iterator, Optional

from .abelian import AbelianGroupSNF, Subgroup
from .cubicfield import (
    DEFAULT_PRIME_BOUND,
    UNIT_ROWS,
    ClassGroupInconclusiveError,
    MaximalOrder,
    PrimeIdeal,
    SearchBudgetExceededError,
    factor_prime,
    is_principal,
    iter_primes_up_to,
    minkowski_bound,
    norm_line,
    primes_up_to,
    splitting_types,
    valuation,
    valuation_kernel,
)
from .intlinalg import HermiteBasis, lattice_lines

DEFAULT_HARVEST_RADIUS = 4
MAX_HARVEST_RADIUS = 48
PROBE_RADIUS_FACTOR = 1.3
PROBE_MAX_CANDIDATES = 8000
EXPRESSION_MAX_SHELL = 16
# The most rational primes below the Minkowski bound that class_group
# takes on: each is factored and its primes become lattice columns.
# Every field with |a_i| <= 24 has fewer than 80; fields near 200 take
# about a second, and near 500 about ten on a 2-core x86-64 box.
MAX_FACTOR_BASE_PRIMES = 300


@dataclass
class ClassGroupData:
    """Cl(K) in invariant-factor form plus the factor-base witnesses.

    `classes` maps each factor-base prime label to its class
    coordinates, and `snf.project` gives the class of an exponent
    vector over the factor base.  `certified_trivial` marks the exact
    path where the relations span Z^k (then no stability heuristic was
    involved).
    """

    snf: AbelianGroupSNF
    classes: dict[str, tuple[int, ...]]
    fb: tuple[PrimeIdeal, ...]
    mb: Fraction
    budget: int
    certified_trivial: bool


def _columns(order: MaximalOrder, index_of, ps):
    """Smoothness data for the prime columns `index_of` (prime HNF ->
    column) over the rational primes `ps` below them: the product of
    `ps`, and for each p a triple (p, direct, rest).

    `rest` is the (f, column or None) of the last prime of
    factor_prime(order, p), the one of largest (f, HNF), and `direct`
    holds the (f, column or None, valuation kernel) of the others.
    `rest` gets no kernel, so no tau rows are built that nothing uses:
    factor_prime only records each tau, and valuation_kernel builds its
    rows on first use."""
    over = []
    for p in sorted(ps):
        *primes, last = factor_prime(order, p)
        direct = [(q.f, index_of.get(q.hnf), valuation_kernel(order, q)) for q in primes]
        over.append((p, direct, (last.f, index_of.get(last.hnf))))
    return prod(ps), over


def _smooth_row(y, norm: int, ncols: int, over) -> Optional[list[int]]:
    """Exponent row of the principal ideal (y), of norm `norm` (> 0), over
    `ncols` prime columns, or None when (y) is not smooth over them.
    `over` comes from `_columns`.

    The exponent v_p of each p in the norm equals the sum of f*v over
    the primes above p (the fundamental identity).  Each v is computed
    from its kernel, except that of the prime `rest`: it is
    (v_p - the others' sum) / f, and a remainder that is negative or
    not a multiple of f raises AssertionError.
    """
    rem = norm
    expo = []
    for p, direct, rest in over:
        if rem % p == 0:
            vp = 0
            while rem % p == 0:
                rem //= p
                vp += 1
            expo.append((p, vp, direct, rest))
    if rem != 1:
        return None
    row = [0] * ncols
    for p, vp, direct, rest in expo:
        seen = 0
        for f, idx, kernel in direct:
            v = valuation(kernel, y)
            if v:
                if idx is None:
                    return None  # a prime outside the columns divides (y)
                row[idx] = v
                seen += v * f
        f, idx = rest
        v, r = divmod(vp - seen, f)
        if v < 0 or r:
            raise AssertionError(
                f"valuations at {p} of {tuple(y)} break the norm: v_p(N) = {vp}, "
                f"sum of the others' f*v = {seen}, remaining f = {f}"
            )
        if v:
            if idx is None:
                return None
            row[idx] = v
    return row


def _smooth_points(order: MaximalOrder, rows, form, caps, skip: int, ncols: int, screen: int, over):
    """The `_smooth_row` of each point y = c0*rows[0] + c1*rows[1] +
    c2*rows[2] of the box `lattice_lines(caps, skip)` whose principal
    ideal is smooth over the columns, in the box's order.  `form` is the
    norm form of `rows` (MaximalOrder.norm_form); `screen` and `over`
    come from `_columns`.

    Each norm comes from its line's cubic: norm_line's polynomials in c1,
    made when c0 changes, evaluated on the line.  Most norms are not
    smooth, so repeated gcds with `screen` first strip a norm of its
    smooth part and reject it, without trial division, when a gcd of 1
    comes before the remainder reaches 1.  Only the norms that pass are
    built into an element, and a smooth one is checked against norm_omega.
    """
    (a0, a1, a2), (b0, b1, b2), (d0, d1, d2) = rows
    last = None
    for c0, c1, xs in lattice_lines(caps, skip):
        if c0 != last:
            (A,), (B0, B1), (C0, C1, C2), (D0, D1, D2, D3) = norm_line(form, c0)
            last = c0
        B = B0 + B1 * c1
        C = C0 + (C1 + C2 * c1) * c1
        D = D0 + (D1 + (D2 + D3 * c1) * c1) * c1
        e0, e1, e2 = c0 * a0 + c1 * b0, c0 * a1 + c1 * b1, c0 * a2 + c1 * b2
        for x in xs:
            norm = abs(((A * x + B) * x + C) * x + D)
            rem, g = norm, gcd(norm, screen)
            while rem != 1:
                if g == 1:
                    break
                rem //= g
                g = gcd(rem, g)
            else:
                y = (e0 + x * d0, e1 + x * d1, e2 + x * d2)
                row = _smooth_row(y, norm, ncols, over)
                if row is not None:
                    assert abs(order.norm_omega(y)) == norm
                    yield row


def _factor_base(order: MaximalOrder) -> tuple[tuple[PrimeIdeal, ...], Fraction, list]:
    """The primes of norm at most the Minkowski bound in (p, f, HNF)
    order, the bound, and the exponent rows of p*O = prod p_i^{e_i} over
    them for each p whose primes all lie in the base, in increasing p.
    More than MAX_FACTOR_BASE_PRIMES rational primes below the bound
    raise SearchBudgetExceededError before any prime is factored."""
    mb = minkowski_bound(order)
    mb_floor = mb.numerator // mb.denominator
    # pi(x) > x / ln x for x >= 17 (Rosser-Schoenfeld), so a bound that
    # far over the cap needs no sieve up to it
    over = mb_floor >= 17 and mb_floor / log(mb_floor) > MAX_FACTOR_BASE_PRIMES
    ps = [] if over else primes_up_to(mb_floor)
    if over or len(ps) > MAX_FACTOR_BASE_PRIMES:
        raise SearchBudgetExceededError(
            f"more than {MAX_FACTOR_BASE_PRIMES} rational primes lie below "
            f"the Minkowski bound {float(mb):.6g}"
        )
    fb, split = [], []  # split: (first column, exponents) of each p wholly in fb
    for p in ps:
        facs = factor_prime(order, p)  # sorted by (f, HNF)
        if all(q.norm <= mb for q in facs):
            split.append((len(fb), [q.e for q in facs]))
        fb.extend(q for q in facs if q.norm <= mb)
    rows = [[0] * i + es + [0] * (len(fb) - i - len(es)) for i, es in split]
    return tuple(fb), mb, rows


def _probe_certificates(order: MaximalOrder, fb, indices) -> dict[int, tuple]:
    """Bounded principality search for selected factor-base primes;
    misses and budget overruns simply yield no certificate."""
    out = {}
    for i in indices:
        try:
            gen = is_principal(
                order,
                fb[i].as_integral(),
                radius_factor=PROBE_RADIUS_FACTOR,
                max_candidates=PROBE_MAX_CANDIDATES,
            )
        except SearchBudgetExceededError:
            gen = None
        if gen is not None:
            out[i] = gen
    return out


class _Harvest:
    """The relation lattice of one `class_group` call.

    Three sources: factorizations p*O = prod p_i^{e_i} with every factor
    in the base (the rows of `_factor_base`), principality certificates
    (unit rows), and the principal ideals of the primitive elements of
    the coordinate box of radius R that factor over the base.  A
    multiple y = g*y' adds nothing: if (y) is smooth, every prime over
    each p | g is in the base, so row(y) = row(y') + sum row(p*O) over
    the primes p | g, and y' is a point of this shell or an earlier one.
    Each row goes into one HermiteBasis as soon as it is found, so the
    lattice only grows; a row the lattice already holds, a repeated one
    included, costs only the basis's test in the quotient once the rank
    is full.  Asking for a larger radius scans only the points beyond
    the radius scanned so far, so each point is factored once per field,
    and the scan stops once the lattice is Z^k: Cl is then proved
    trivial, and no further relation can change that.
    """

    def __init__(self, order: MaximalOrder, fb, mb: Fraction, rows):
        self.order, self.fb, self.mb = order, fb, mb
        self.k = len(fb)
        self.lattice = HermiteBasis(self.k)
        self.lattice.extend(rows)
        index_of = {prime.hnf: i for i, prime in enumerate(fb)}
        self.screen, self.over = _columns(order, index_of, {prime.p for prime in fb})
        self.radius = 0
        self._last = None  # (HNF, presentation) of the last `present`

    def certify(self, probes) -> None:
        """Add the unit row of each certified factor-base prime index."""
        for i in probes:
            self.lattice.add([int(j == i) for j in range(self.k)])

    def present(self, radius: int) -> Optional[ClassGroupData]:
        """Scan the box up to `radius`, which must not be below a radius
        asked for before, and present the lattice (see `_present`)."""
        assert radius >= self.radius, "the box only grows"
        order, k, screen, over, lattice = self.order, self.k, self.screen, self.over, self.lattice
        if lattice.det != 1:
            box = (radius,) * 3
            form = order.basis_norm_form
            for row in _smooth_points(order, UNIT_ROWS, form, box, self.radius, k, screen, over):
                lattice.add(row)
                if lattice.det == 1:
                    break
        self.radius = radius
        hnf = lattice.rows()
        if self._last is None or self._last[0] != hnf:
            self._last = (hnf, _present(self.fb, self.mb, hnf))
        return self._last[1]


def _present(fb, mb: Fraction, hnf) -> Optional[ClassGroupData]:
    """Z^k modulo the relation lattice whose HNF rows are `hnf`, through
    AbelianGroupSNF.presented, with each factor-base prime's class in
    `classes` and budget 0; None when the lattice has rank < k."""
    k = len(fb)
    if len(hnf) < k:
        return None
    snf = AbelianGroupSNF.presented(hnf, k)
    classes = {
        prime.label: snf.project([int(j == i) for j in range(k)]) for i, prime in enumerate(fb)
    }
    return ClassGroupData(snf, classes, fb, mb, 0, certified_trivial=snf.is_trivial())


def class_group(
    order: MaximalOrder,
    budget: Optional[int] = None,
    verify_stability: bool = True,
) -> ClassGroupData:
    """Class group on the factor base of primes below the Minkowski bound.

    The harvested relation lattice presents a group that surjects onto
    the true class group, so a trivial answer is exact
    (`certified_trivial`).  A nontrivial answer is re-derived at twice
    the budget (element-box radius) and, as a backstop, every prime
    whose class came out nontrivial gets a bounded principality probe;
    any disagreement escalates the budget, and running out of budget
    raises ClassGroupInconclusiveError.  The result's `budget` is the
    radius r of the round that returned it, though only a trivial answer
    or one with `verify_stability` off can come from the round's first
    pass, at r: every other answer is presented at 2r, by its doubled
    pass.  A budget below 1 raises ValueError.

    Every pass presents the one lattice of the call, so the pass after
    a doubling starts where the last one ended, and a presentation is
    recomputed only when new relations changed the lattice.
    """
    if budget is not None and budget < 1:
        raise ValueError("budget must be >= 1")
    fb, mb, rows = _factor_base(order)
    if not fb:
        return _present(fb, mb, ())

    harvest = _Harvest(order, fb, mb, rows)
    radius = budget if budget is not None else DEFAULT_HARVEST_RADIUS
    max_radius = max(MAX_HARVEST_RADIUS, radius)
    while radius <= max_radius:
        first = harvest.present(radius)
        if first is not None and (first.certified_trivial or not verify_stability):
            first.budget = radius
            return first
        if not verify_stability:
            raise ClassGroupInconclusiveError(f"relations of deficient rank at budget {radius}")
        second = harvest.present(2 * radius)
        if second is not None and second.certified_trivial:
            second.budget = radius
            return second
        if first is not None and second is not None:
            if first.snf.invariant_factors == second.snf.invariant_factors:
                # backstop: certificate search on the primes presented as
                # nontrivial; a hit means the harvest missed a relation
                suspicious = [
                    i
                    for i, prime in enumerate(fb)
                    if any(second.classes[prime.label])
                ]
                extra = _probe_certificates(order, fb, suspicious)
                if not extra:
                    second.budget = radius
                    return second
                harvest.certify(extra)
        radius *= 2
    raise ClassGroupInconclusiveError(
        f"class group not stable within max harvest radius {max_radius}"
    )


# ---------------------------------------------------------------------------
# Expressing arbitrary prime classes over the factor base


def prime_class_vector(
    order: MaximalOrder, data: ClassGroupData, prime: PrimeIdeal
) -> tuple[int, ...]:
    """Class coordinates of a prime ideal.

    Factor-base primes read their class off the presentation; any other
    prime is expressed by finding an element of it whose principal ideal
    is the prime times a factor-base-smooth cofactor: the first such
    element of the shells of the prime's HNF coordinates.  The shells
    hold only primitive coordinates (`lattice_lines`), and that finds
    the same element: if y = g*y' is such an element, y' lies in the
    prime, (y') divides (y), and v_P(y') = 1, so y' is one too, in a
    shell at most half as far out.
    """
    if not data.snf.invariant_factors:
        return ()
    known = data.classes.get(prime.label)
    if known is not None:
        return known

    # the target prime is the extra column k; every y below lies in it
    k = len(data.fb)
    index_of = {q.hnf: i for i, q in enumerate(data.fb)}
    index_of[prime.hnf] = k
    screen, over = _columns(order, index_of, {q.p for q in data.fb} | {prime.p})
    form = order.norm_form(prime.hnf)
    for shell in range(1, EXPRESSION_MAX_SHELL + 1):
        box = (shell,) * 3
        for row in _smooth_points(order, prime.hnf, form, box, shell - 1, k + 1, screen, over):
            if row[k] != 1:
                continue
            # (y) = prime * prod fb^row  =>  [prime] = -sum row
            return data.snf.neg(data.snf.project(row[:k]))
    raise SearchBudgetExceededError(
        f"could not express the class of the norm-{prime.norm} prime over {prime.p} "
        f"within shell {EXPRESSION_MAX_SHELL}"
    )


def pi_class_map(
    order: MaximalOrder, data: ClassGroupData, p: int
) -> dict[int, tuple[int, ...]]:
    """Class coordinates of Pi_{p^f} for every residual degree f present
    above p, using the product identity p*O = prod Pi_{p^{f_i}} to avoid
    searches where it pins the answer down."""
    primes = factor_prime(order, p)
    fs = sorted(q.f for q in primes)
    by_f: dict[int, list[PrimeIdeal]] = {}
    for q in primes:
        by_f.setdefault(q.f, []).append(q)
    if not data.snf.invariant_factors:
        return {f: () for f in by_f}
    unramified = all(q.e == 1 for q in primes)
    if unramified and fs in ([1, 1, 1], [3]):
        # Pi equals p*O itself: principal
        return {f: data.snf.identity() for f in by_f}
    if unramified and fs == [1, 2]:
        v1 = prime_class_vector(order, data, by_f[1][0])
        return {1: v1, 2: data.snf.neg(v1)}
    out = {}
    for f, qs in by_f.items():
        acc = data.snf.identity()
        for q in qs:
            acc = data.snf.add(acc, prime_class_vector(order, data, q))
        out[f] = acc
    return out


@dataclass
class PolyaResult:
    """Subgroup of the class group generated by one variant's split
    products, with the contributing (p, f) witnesses."""

    subgroup: Subgroup
    used: list[tuple[int, int, tuple[int, ...]]]
    processed_bound: int
    full_at: Optional[int]


def polya_group(
    order: MaximalOrder,
    cl: ClassGroupData,
    prime_bound: int = DEFAULT_PRIME_BOUND,
) -> dict[str, PolyaResult]:
    """Po(K), Po(K)_nr and Po(K)_nr1: the subgroups of Cl(K) generated
    by the classes of Pi_{p^f} for p <= prime_bound, keyed by variant:

    - "all": every prime, ramified included;
    - "nr": only p not dividing disc_K;
    - "nr1": additionally only f = 1.

    One walk over the primes asks pi_class_map once for each prime that
    a variant still takes, and gives the classes to every such variant.
    A variant stops taking primes once its subgroup reaches the whole
    class group (more generators cannot change it); its `full_at`
    records the prime at which that happened (0 when the class group is
    trivial).  At every prime nr1's generators are among nr's, and nr's
    among all's, so the walk ends when nr1 fills, or at the bound.
    Primes are sieved only as far as they are taken
    (iter_primes_up_to), and none is taken when Cl is trivial.
    """
    if prime_bound < 2:
        raise ValueError("prime_bound must be >= 2")
    amb = cl.snf
    trivial = amb.subgroup([])
    results = {v: PolyaResult(trivial, [], prime_bound, None) for v in ("all", "nr", "nr1")}
    if trivial.is_full():
        for res in results.values():
            res.processed_bound = res.full_at = 0
        return results
    taking = list(results)  # the variants still taking primes
    for p in iter_primes_up_to(prime_bound):
        ramified = order.disc_K % p == 0
        askers = [v for v in taking if v == "all" or not ramified]
        if not askers:
            continue
        classes = pi_class_map(order, cl, p)
        for v in askers:
            res = results[v]
            new = [
                (p, f, c) for f, c in sorted(classes.items()) if any(c) and (v != "nr1" or f == 1)
            ]
            if new:
                res.used += new
                res.subgroup = amb.subgroup([coords for _, _, coords in res.used])
                if res.subgroup.is_full():
                    res.processed_bound = res.full_at = p
                    taking.remove(v)
        if not taking:
            break
    return results


# ---------------------------------------------------------------------------
# Reports: the JSON dicts field-analyze prints, all values plain data


def _report_head(order: MaximalOrder, kind: str, prime_bound: int) -> dict:
    """The keys both reports open with, in their printed order."""
    poly = order.poly
    return {
        "kind": kind,
        "poly": str(poly),
        "coefficients": [poly.a2, poly.a1, poly.a0],
        "disc_poly": poly.discriminant(),
        "disc_K": order.disc_K,
        "index": order.index,
        "galois": poly.is_galois(),
        "prime_bound": prime_bound,
    }


def _variant_payload(result: PolyaResult) -> dict:
    return {
        "order": result.subgroup.order,
        "invariant_factors": list(result.subgroup.structure()),
        "used": [[p, f, list(coords)] for p, f, coords in result.used],
        "processed_bound": result.processed_bound,
        "full_at": result.full_at,
    }


def verify_main_theorem(
    order: MaximalOrder,
    prime_bound: int = DEFAULT_PRIME_BOUND,
    budget: Optional[int] = None,
) -> dict:
    """Compute Cl(K) and the three split-product subgroups and compare,
    as the report field-analyze prints.

    When an equality fails at the configured bound the status says
    "undetermined at bound B": generators are guaranteed to exist among
    all primes, not among primes up to any particular bound, so a miss
    is never a counterexample.  `principal_witnesses` is left empty for
    the caller to fill.  Requires a non-Galois defining polynomial (the
    Galois case is covered by the direct principality sweep instead).
    """
    if order.poly.is_galois():
        raise ValueError("verify_main_theorem applies to non-Galois cubics")
    cl = class_group(order, budget=budget)
    po = polya_group(order, cl, prime_bound)
    eq = {
        "cl_eq_po": po["all"].subgroup.is_full(),
        "po_eq_po_nr": po["all"].subgroup == po["nr"].subgroup,
        "po_nr_eq_po_nr1": po["nr"].subgroup == po["nr1"].subgroup,
    }
    eq["all_equal"] = all(eq.values())
    status = "verified" if eq["all_equal"] else f"undetermined at bound {prime_bound}"
    gens = {}
    for prime in cl.fb:
        gens[prime.label] = {
            "p": prime.p,
            "f": prime.f,
            "e": prime.e,
            "norm": prime.norm,
            "class": list(cl.classes[prime.label]),
        }
    return _report_head(order, "polya", prime_bound) | {
        "minkowski_bound": str(cl.mb),
        "class_invariants": list(cl.snf.invariant_factors),
        "class_generators": gens,
        "variants": {v: _variant_payload(res) for v, res in po.items()},
        "equalities": eq,
        "status": status,
        "harvest_budget": cl.budget,
        "certified_trivial": cl.certified_trivial,
        "principal_witnesses": [],
    }


def ostrowski_check(order: MaximalOrder, prime_bound: int) -> Iterator[dict]:
    """The generator of every unramified split-product ideal Pi_{p^f}
    with p <= prime_bound of a Galois order, one record per (p, f) in
    increasing p, yielded as the primes are walked; ValueError on a
    non-Galois order, raised at the call.

    This is the direct check that bypasses class-group machinery.  In a
    Galois cubic an unramified p splits completely (f = 1) or stays
    inert (f = 3), so Pi_{p^f} is p*O, of norm p^3, generated by p:
    each record is read off splitting_types, and no ideal is built.
    """
    if not order.poly.is_galois():
        raise ValueError("ostrowski_check applies to Galois cubics")
    return (
        {
            "p": p,
            "f": {"1+1+1": 1, "3": 3}[t.label],
            "norm": p**3,
            "principal": True,
            "generator": [p * c for c in order.one],
        }
        for p, t in splitting_types(order, prime_bound)
    )


def ostrowski_report(order: MaximalOrder, prime_bound: int = DEFAULT_PRIME_BOUND) -> dict:
    """The direct principality sweep of a Galois cubic (ostrowski_check),
    as the report field-analyze prints: every unramified split product
    should be principal, independent of any class-group computation.

    `witnesses` is the record iterator itself, so a caller can write the
    records as they are walked; `checked`, the number of unramified
    p <= prime_bound, is counted off the sieve first, and
    `all_principal` holds because every split product is p*O."""
    records = ostrowski_check(order, prime_bound)
    return _report_head(order, "ostrowski", prime_bound) | {
        "checked": sum(1 for p in primes_up_to(prime_bound) if order.disc_K % p),
        "all_principal": True,
        "witnesses": records,
    }
