"""Class groups, split-product subgroups, and the equality checks.

The nontrivial witness field x^3 + 4x - 1 (field discriminant -283) is
validated two independent ways: by the relation-harvest presentation
and by a brute-force ideal-class count that only relies on Minkowski's
bound, ideal arithmetic, and exhaustive generator search.
"""

import itertools
import json
import random
from functools import lru_cache
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyakit import (
    AbelianGroupSNF,
    CubicPoly,
    IntegralIdeal,
    ReduciblePolynomialError,
    class_group,
    element_ideal,
    factor_prime,
    ideal_equal,
    ideal_product,
    is_principal,
    maximal_order,
    minkowski_bound,
    ostrowski_check,
    ostrowski_report,
    parse_cubic,
    pi_class_map,
    pi_ideal,
    polya_group,
    prime_class_vector,
    verify_main_theorem,
)
from polyakit import classgroup, cubicfield
from polyakit.cubicfield import (
    SearchBudgetExceededError,
    element_valuation,
    iter_primes_up_to,
    primes_up_to,
)
from polyakit.intlinalg import hnf_rows

from fieldref import (
    lattice_contains,
    lattice_points,
    ostrowski_by_ideals,
    polya_walk,
    scalar_ideal,
)

FIXTURE_POLYS = ("x^3-2", "x^3-x-1", "x^3-x^2-2x-8", "x^3-3x-1", "x^3+4x-1")


@pytest.fixture(scope="module")
def orders():
    return {s: maximal_order(parse_cubic(s)) for s in FIXTURE_POLYS}


@lru_cache(maxsize=None)
def _order_of(s):
    return maximal_order(parse_cubic(s))


@pytest.mark.parametrize("s", ["x^3+4x-1", "x^3-1000003"])
def test_factor_base_cap_counts_primes_below_the_bound(s, monkeypatch):
    """class_group takes exactly MAX_FACTOR_BASE_PRIMES rational primes
    below the Minkowski bound and raises on one more, before factoring."""
    order = _order_of(s)
    mb = minkowski_bound(order)
    count = len(primes_up_to(mb.numerator // mb.denominator))
    monkeypatch.setattr(classgroup, "MAX_FACTOR_BASE_PRIMES", count - 1)
    monkeypatch.setattr(classgroup, "factor_prime", None)  # never reached
    with pytest.raises(SearchBudgetExceededError, match="Minkowski"):
        class_group(order)
    if count <= 1000:
        monkeypatch.undo()
        monkeypatch.setattr(classgroup, "MAX_FACTOR_BASE_PRIMES", count)
        assert class_group(order).snf.invariant_factors == (2,)


def test_trivial_class_groups(orders):
    for s in ("x^3-2", "x^3-x-1", "x^3-x^2-2x-8"):
        cl = class_group(orders[s])
        assert cl.snf.invariant_factors == (), s
        assert cl.snf.order == 1
        assert cl.certified_trivial, s


def test_empty_factor_base_is_exact(orders):
    cl = class_group(orders["x^3-x-1"])
    assert cl.fb == ()
    assert cl.snf.order == 1


def _reference_factor_base(order):
    """Reference: the primes of norm at most the Minkowski bound sorted
    by (p, f, HNF), the bound, and the rows of p*O = prod p_i^{e_i} over
    them, each from its own walk of the primes below the bound."""
    mb = minkowski_bound(order)
    ps = primes_up_to(mb.numerator // mb.denominator)
    fb = [q for p in ps for q in factor_prime(order, p) if q.norm <= mb]
    fb.sort(key=lambda q: (q.p, q.f, q.hnf))
    index_of = {q.hnf: i for i, q in enumerate(fb)}
    rows = []
    for p in ps:
        facs = factor_prime(order, p)
        if all(q.norm <= mb for q in facs):
            row = [0] * len(fb)
            for q in facs:
                row[index_of[q.hnf]] = q.e
            rows.append(row)
    return tuple(fb), mb, rows


def test_factor_base_walks_the_primes_once():
    """_factor_base's one walk gives the factor base and rows of the
    reference's two walks, on every 50th triple of the |a_i| <= 12 box
    and the fixture fields; in the index-2 field x^3-x^2-2x-8 the only
    row is that of its three primes above 2 (5 has one of degree 2)."""
    polys = [parse_cubic(s) for s in FIXTURE_POLYS]
    for t in itertools.islice(itertools.product(range(-12, 13), repeat=3), 0, None, 50):
        try:
            polys.append(CubicPoly(*t))
        except ReduciblePolynomialError:
            continue
    for poly in polys:
        order = maximal_order(poly)
        assert classgroup._factor_base(order) == _reference_factor_base(order), poly
    fb, _, rows = classgroup._factor_base(_order_of("x^3-x^2-2x-8"))
    assert [q.label for q in fb] == ["2a", "2b", "2c", "5a"] and rows == [[1, 1, 1, 0]]


def test_witness_field_class_group(orders):
    cl = class_group(orders["x^3+4x-1"])
    assert cl.snf.invariant_factors == (2,)
    assert not cl.certified_trivial
    # the degree-1 prime over 2 is the nontrivial class
    assert cl.classes["2a"] == (1,)


def _complement_ideal(order, J):
    """N(J) * J^{-1} as an integral ideal, by brute force over residues
    (oracle helper: independent of the harvest machinery)."""
    N = J.norm
    rows = []
    from itertools import product

    for x in product(range(N), repeat=3):
        ok = True
        for bj in J.hnf:
            prod_vec = order.omega_mul(x, bj)
            if any(c % N for c in prod_vec):
                ok = False
                break
        if ok:
            rows.append(list(x))
    rows += [[N * int(i == j) for j in range(3)] for i in range(3)]
    Jc = IntegralIdeal.from_rows(rows)
    assert ideal_product(order, J, Jc) == scalar_ideal(N)
    return Jc


def test_witness_class_number_by_exhaustive_equivalence(orders):
    """Independent oracle for h(-283) = 2: every ideal class contains an
    integral ideal of norm <= the Minkowski bound (< 5); count the
    equivalence classes among all such ideals directly."""
    order = orders["x^3+4x-1"]
    mb = minkowski_bound(order)
    assert 4 < mb < 5
    small = [IntegralIdeal.unit()]
    for p in (2, 3):
        for q in factor_prime(order, p):
            if q.norm <= 4:
                small.append(q.as_integral())
    p2 = [q for q in factor_prime(order, 2) if q.f == 1][0].as_integral()
    small.append(ideal_product(order, p2, p2))  # norm 4
    assert sorted(I.norm for I in small) == [1, 2, 3, 4, 4]

    def equivalent(I, J):
        Jc = _complement_ideal(order, J)
        prod = ideal_product(order, I, Jc)
        return is_principal(order, prod, radius_factor=3.0) is not None

    classes: list[IntegralIdeal] = []
    for I in small:
        if not any(equivalent(I, rep) for rep in classes):
            classes.append(I)
    assert len(classes) == 2
    # the class group is Z/2: the square of the nontrivial class is trivial
    assert equivalent(ideal_product(order, p2, p2), IntegralIdeal.unit())
    assert not equivalent(p2, IntegralIdeal.unit())


def test_budget_is_the_round_radius_below_the_doubled_pass(orders, monkeypatch):
    """A nontrivial answer comes from the doubled pass at 2r, and its
    budget is r: 4 at the default."""
    radii = []
    present = classgroup._Harvest.present

    def recording(self, radius):
        radii.append(radius)
        return present(self, radius)

    monkeypatch.setattr(classgroup._Harvest, "present", recording)
    cl = class_group(orders["x^3+4x-1"])
    assert cl.snf.invariant_factors == (2,)
    assert cl.budget == 4 and radii == [4, 8]


def test_stability_under_budget_doubling(orders):
    for s, expected in (
        ("x^3-2", ()),
        ("x^3-x-1", ()),
        ("x^3-x^2-2x-8", ()),
        ("x^3-3x-1", ()),
        ("x^3+4x-1", (2,)),
    ):
        a = class_group(orders[s], budget=4, verify_stability=False)
        b = class_group(orders[s], budget=8, verify_stability=False)
        assert a.snf.invariant_factors == b.snf.invariant_factors == expected, s


def test_prime_class_vector_consistency(orders):
    order = orders["x^3+4x-1"]
    cl = class_group(order)
    # classes respect the product relations p*O = prod q^e
    for p in primes_up_to(40):
        total = cl.snf.identity()
        for q in factor_prime(order, p):
            v = prime_class_vector(order, cl, q)
            total = cl.snf.add(total, cl.snf.reduce(x * q.e for x in v))
        assert total == cl.snf.identity(), p


def test_pi_class_map_product_identity(orders):
    order = orders["x^3+4x-1"]
    cl = class_group(order)
    for p in primes_up_to(60):
        if order.disc_K % p == 0:
            continue
        classes = pi_class_map(order, cl, p)
        total = cl.snf.identity()
        for f, coords in classes.items():
            total = cl.snf.add(total, coords)
        assert total == cl.snf.identity(), p


def test_polya_group_variants_witness(orders):
    order = orders["x^3+4x-1"]
    cl = class_group(order)
    walk = polya_group(order, cl, 200)
    assert list(walk) == ["all", "nr", "nr1"]
    po, po_nr, po_nr1 = walk.values()
    assert po.subgroup.is_full()
    assert po_nr.subgroup.is_full()
    assert po_nr1.subgroup.is_full()
    assert po_nr1.full_at == 2
    # nesting
    for inner, outer in ((po_nr1, po_nr), (po_nr, po)):
        assert all(lattice_contains(outer.subgroup.basis, row) for row in inner.subgroup.basis)


def test_polya_group_trivial_class_group(orders):
    order = orders["x^3-2"]
    cl = class_group(order)
    for res in polya_group(order, cl, 50).values():
        assert res.subgroup.is_full()
        assert res.full_at == 0
        assert res.used == []


def test_polya_group_validates_arguments(orders):
    order = orders["x^3-2"]
    cl = class_group(order)
    with pytest.raises(ValueError):
        polya_group(order, cl, 1)


def test_verify_main_theorem_h1(orders):
    for s in ("x^3-2", "x^3-x-1"):
        rep = verify_main_theorem(orders[s], prime_bound=50)
        assert rep["class_invariants"] == []
        assert rep["equalities"] == {
            "cl_eq_po": True,
            "po_eq_po_nr": True,
            "po_nr_eq_po_nr1": True,
            "all_equal": True,
        }
        assert rep["status"] == "verified"


def test_verify_main_theorem_witness(orders):
    rep = verify_main_theorem(orders["x^3+4x-1"], prime_bound=200)
    assert rep["class_invariants"] == [2]
    assert rep["equalities"]["all_equal"]
    assert rep["variants"]["nr1"]["full_at"] == 2
    assert rep["variants"]["nr1"]["invariant_factors"] == [2]


def test_verify_main_theorem_rejects_galois(orders):
    with pytest.raises(ValueError):
        verify_main_theorem(orders["x^3-3x-1"])


# the keys both field-analyze reports open with, in order
REPORT_HEAD = (
    "kind", "poly", "coefficients", "disc_poly", "disc_K", "index", "galois", "prime_bound",
)


def test_report_round_trip(orders):
    """The report is plain JSON data (no tuple), its keys in the printed
    order, opening with the keys the Ostrowski report shares."""
    rep = verify_main_theorem(orders["x^3+4x-1"], prime_bound=200)
    assert json.loads(json.dumps(rep)) == rep
    assert list(rep) == [
        *REPORT_HEAD, "minkowski_bound", "class_invariants", "class_generators",
        "variants", "equalities", "status", "harvest_budget", "certified_trivial",
        "principal_witnesses",
    ]
    assert rep["principal_witnesses"] == []


def test_ostrowski_galois(orders):
    recs = ostrowski_check(orders["x^3-3x-1"], 100)
    assert recs, "no unramified primes checked"
    assert all(r["principal"] for r in recs)
    # every unramified split product of a cyclic cubic is p*O itself
    for r in recs:
        assert r["norm"] in (r["p"] ** 3,)
        assert r["generator"] is not None


def test_ostrowski_generators_generate_their_ideals(orders):
    order = orders["x^3-3x-1"]
    recs = ostrowski_check(order, 200)
    assert recs
    for r in recs:
        pi = pi_ideal(order, r["p"] ** r["f"])
        assert ideal_equal(element_ideal(order, r["generator"]), pi)


def test_ostrowski_check_rejects_non_galois(orders):
    with pytest.raises(ValueError, match="Galois"):
        ostrowski_check(orders["x^3-2"], 50)


# cyclic cubics with disc_K 81, 49, 169, 3969, 961 and 8281, the last two
# of index 2
CYCLIC_FIXTURES = (
    "x^3-3x-1", "x^3+x^2-2x-1", "x^3-x^2-4x-1", "x^3-21x-35", "x^3+x^2-10x-8",
    "x^3-x^2-30x+64",
)


def _cyclic_box_4():
    for t in itertools.product(range(-4, 5), repeat=3):
        try:
            poly = CubicPoly(*t)
        except ReduciblePolynomialError:
            continue
        if poly.is_galois():
            yield poly


def test_ostrowski_check_matches_the_ideal_sweep():
    """The records read off the splitting law are those of the sweep
    that builds every Pi_{p^f} and reads its generator off the HNF, for
    every p <= 3000, on the cyclic fixtures and every cyclic field of
    box 4."""
    polys = [parse_cubic(s) for s in CYCLIC_FIXTURES] + list(_cyclic_box_4())
    assert len(polys) == 6 + 18
    for poly in polys:
        order = maximal_order(poly)
        got = json.dumps(ostrowski_check(order, 3000))
        assert got == json.dumps(ostrowski_by_ideals(order, 3000)), poly


def test_ostrowski_check_factors_no_prime(monkeypatch):
    orders = [maximal_order(parse_cubic(s)) for s in CYCLIC_FIXTURES]
    want = [ostrowski_by_ideals(order, 500) for order in orders]

    def no_factoring(*args, **kwargs):
        raise AssertionError("a prime was factored")

    monkeypatch.setattr(cubicfield, "factor_prime", no_factoring)
    monkeypatch.setattr(classgroup, "factor_prime", no_factoring)
    fresh = [maximal_order(parse_cubic(s)) for s in CYCLIC_FIXTURES]
    assert [ostrowski_check(order, 500) for order in fresh] == want


def test_polya_group_takes_no_prime_when_cl_is_trivial(orders, monkeypatch):
    def no_primes(n):
        raise AssertionError("a prime was taken")

    monkeypatch.setattr(classgroup, "iter_primes_up_to", no_primes)
    order = orders["x^3-2"]
    cl = class_group(order)
    for res in polya_group(order, cl, 10**9).values():
        assert res.full_at == 0 and res.processed_bound == 0 and res.used == []


def test_polya_group_stops_taking_primes_once_full(orders, monkeypatch):
    taken = []

    def recording(n):
        for p in iter_primes_up_to(n):
            taken.append(p)
            yield p

    monkeypatch.setattr(classgroup, "iter_primes_up_to", recording)
    order = orders["x^3+4x-1"]
    res = polya_group(order, class_group(order), 10**9)["nr1"]
    assert res.full_at is not None and taken[-1] == res.full_at


def _recording_pi_class_map(monkeypatch):
    """Patch classgroup.pi_class_map to record each prime it is asked."""
    asked = []
    real = classgroup.pi_class_map

    def recording(order, cl, p):
        asked.append(p)
        return real(order, cl, p)

    monkeypatch.setattr(classgroup, "pi_class_map", recording)
    return asked


@pytest.mark.parametrize("s", ["x^3+4x-1", "x^3+8x-6", "-12,-10,-1"])
def test_polya_group_asks_each_prime_once(s, monkeypatch):
    """verify_main_theorem walks the primes once: each prime reaches
    pi_class_map at most once, and exactly the primes some variant still
    takes do: every p up to all's full_at, and the unramified p up to
    nr1's.  In x^3+8x-6, all fills at 2 and nr at 17."""
    order = _order_of(s)
    asked = _recording_pi_class_map(monkeypatch)
    rep = verify_main_theorem(order, prime_bound=200)
    assert len(asked) == len(set(asked)), asked
    full = {v: payload["full_at"] for v, payload in rep["variants"].items()}
    assert asked == [
        p
        for p in primes_up_to(full["nr1"])
        if p <= full["all"] or order.disc_K % p
    ]
    if s == "x^3+8x-6":
        assert (full["all"], full["nr"]) == (2, 17)


def test_polya_group_variants_fill_at_three_primes(monkeypatch):
    """A scripted class map over Cl = (Z/2)^2 with 2 and 3 ramified:
    all fills at 3 from the ramified primes, nr at 5 from a degree-2
    class, nr1 at 11; the zero class at 7 is no generator, and 13 is
    never asked."""
    script = {
        2: {1: (1, 0)},
        3: {1: (0, 1)},
        5: {1: (1, 0), 2: (0, 1)},
        7: {1: (0, 0), 2: (1, 1)},
        11: {1: (1, 1)},
    }
    asked = []

    def scripted(order, cl, p):
        asked.append(p)
        return script[p]

    monkeypatch.setattr(classgroup, "pi_class_map", scripted)
    order = SimpleNamespace(disc_K=-6)
    cl = SimpleNamespace(snf=AbelianGroupSNF((2, 2)))
    walk = polya_group(order, cl, 200)
    assert asked == [2, 3, 5, 7, 11]
    want = {
        "all": ([(2, 1, (1, 0)), (3, 1, (0, 1))], 3),
        "nr": ([(5, 1, (1, 0)), (5, 2, (0, 1))], 5),
        "nr1": ([(5, 1, (1, 0)), (11, 1, (1, 1))], 11),
    }
    for v, (used, full_at) in want.items():
        res = walk[v]
        assert res.subgroup.is_full(), v
        assert (res.used, res.full_at, res.processed_bound) == (used, full_at, full_at), v
    assert walk["all"].full_at <= walk["nr"].full_at <= walk["nr1"].full_at


def test_polya_group_matches_the_per_variant_walks():
    """The one walk gives each variant the subgroup, witnesses and
    bounds of that variant's own walk (fieldref.polya_walk), on a
    seeded slice of non-Galois fields with |a_i| <= 24 and nontrivial
    class group."""
    rng = random.Random(2701)
    checked = 0
    while checked < 12:
        try:
            poly = CubicPoly(*(rng.randint(-24, 24) for _ in range(3)))
        except ReduciblePolynomialError:
            continue
        if poly.is_galois():
            continue
        order = maximal_order(poly)
        cl = class_group(order)
        if not cl.snf.invariant_factors:
            continue
        checked += 1
        for bound in (7, 200):
            walk = polya_group(order, cl, bound)
            for v, res in walk.items():
                want = polya_walk(order, cl, bound, v)
                assert (res.subgroup, res.used, res.processed_bound, res.full_at) == want, (
                    poly, bound, v
                )


def test_ostrowski_report_round_trip(orders):
    rep = ostrowski_report(orders["x^3-3x-1"], 60)
    assert rep["galois"] and rep["all_principal"]
    assert json.loads(json.dumps(rep)) == rep
    assert list(rep) == [*REPORT_HEAD, "checked", "all_principal", "witnesses"]


def test_totally_real_nontrivial_field():
    """A positive-discriminant field with h = 2: exercises the r2 = 0
    Minkowski branch end to end."""
    order = maximal_order(parse_cubic("-12,-10,-1"))
    assert order.disc_K == 9301 and order.index == 1
    cl = class_group(order)
    assert cl.snf.invariant_factors == (2,)
    rep = verify_main_theorem(order, prime_bound=200)
    assert rep["equalities"]["all_equal"]
    assert rep["variants"]["nr1"]["full_at"] == 2


def test_polya_group_galois_cubic_unramified_variants_trivial(orders):
    # Ostrowski's observation at subgroup level: for a Galois cubic the
    # unramified split products generate nothing
    order = orders["x^3-3x-1"]
    cl = class_group(order)
    walk = polya_group(order, cl, 60)
    for variant in ("nr", "nr1"):
        assert walk[variant].subgroup.order == 1


def test_class_group_budget_above_escalation_cap_still_runs(orders):
    cl = class_group(orders["x^3-2"], budget=64, verify_stability=False)
    assert cl.snf.invariant_factors == ()


@pytest.mark.parametrize("budget", [0, -1])
def test_class_group_rejects_budget_below_1(orders, budget):
    """A radius below 1 would double forever (0) or shrink the box (-1)."""
    with pytest.raises(ValueError):
        class_group(orders["x^3+4x-1"], budget=budget)


def test_nontrivial_pi_classes_are_consistent_with_ideals(orders):
    """Cross-check a nontrivial class claim directly: the split-product
    ideal over 2 is not principal, while (2) itself is."""
    order = orders["x^3+4x-1"]
    pi2 = pi_ideal(order, 2)
    assert pi2.norm == 2
    assert is_principal(order, pi2, radius_factor=2.5) is None
    assert is_principal(order, scalar_ideal(2)) is not None


# --- the shell-by-shell harvest against the full-box loop ---------------------


def _reference_row(order, y, index_of, ps):
    """Reference for _smooth_row: plain trial division of the norm by the
    rational primes `ps`, then element_valuation at every prime above."""
    rem = abs(order.norm_omega(y))
    expo = {}
    for p in sorted(ps):
        while rem % p == 0:
            rem //= p
            expo[p] = expo.get(p, 0) + 1
    if rem != 1:
        return None
    row = [0] * len(index_of)
    for p, vp in expo.items():
        seen = 0
        for q in factor_prime(order, p):
            v = element_valuation(order, y, q)
            if v:
                if q.hnf not in index_of:
                    return None
                row[index_of[q.hnf]] = v
                seen += v * q.f
        if seen != vp:
            return None
    return row


def _full_box_harvest(order, fb, mb, radius, probes):
    """Reference: every relation at box radius `radius`, rescanning the
    whole box."""
    k = len(fb)
    index_of = {prime.hnf: i for i, prime in enumerate(fb)}
    rows = {tuple(row) for row in _reference_factor_base(order)[2]}
    for i in probes:
        rows.add(tuple(int(j == i) for j in range(k)))
    ps = {prime.p for prime in fb}
    for y in itertools.product(range(-radius, radius + 1), repeat=3):
        if y > tuple(-a for a in y):  # one of each pair +-y, and not 0
            row = _reference_row(order, y, index_of, ps)
            if row is not None and any(row):
                rows.add(tuple(row))
    return [list(r) for r in sorted(rows)]


def _full_box_class_group(order, budget, reusable):
    """Reference: the loop that harvests and presents both radii afresh
    on every pass, through hnf_rows.  Appends to `reusable` the radius of
    each pass and whether its first presentation repeats the previous
    pass's second: every pass after the first, unless the previous one
    added a certificate."""
    fb, mb, _ = classgroup._factor_base(order)
    if not fb:
        return classgroup._present(fb, mb, ())

    def present(rows, radius):
        data = classgroup._present(fb, mb, hnf_rows(rows, len(fb)))
        if data is not None:
            data.budget = radius
        return data

    radius = budget if budget is not None else classgroup.DEFAULT_HARVEST_RADIUS
    max_radius = max(classgroup.MAX_HARVEST_RADIUS, radius)
    probes = {}
    extra = None
    while radius <= max_radius:
        reusable.append((radius, bool(reusable) and not extra))
        extra = None
        first = present(_full_box_harvest(order, fb, mb, radius, probes), radius)
        if first is not None and first.snf.is_trivial():
            first.certified_trivial = True
            return first
        second = present(_full_box_harvest(order, fb, mb, 2 * radius, probes), radius)
        if second is not None and second.snf.is_trivial():
            second.certified_trivial = True
            return second
        if first is not None and second is not None:
            if first.snf.invariant_factors == second.snf.invariant_factors:
                suspicious = [
                    i
                    for i, prime in enumerate(fb)
                    if any(second.classes[prime.label])
                ]
                extra = classgroup._probe_certificates(order, fb, suspicious)
                if not extra:
                    return second
                probes.update(extra)
        radius *= 2
    raise AssertionError("the reference loop ran out of budget")


def _one_genuine_certificate(real, calls):
    """A stand-in for _probe_certificates (`real`) whose first call
    certifies the first factor-base prime that really is principal,
    suspicious or not, and whose later calls certify nothing; `calls`
    collects the calls."""

    def fake(order, fb, indices):
        calls.append(list(indices))
        if len(calls) > 1:
            return {}
        hits = real(order, fb, range(len(fb)))
        return dict([min(hits.items())])

    return fake


ESCALATING = ("x^3-21x^2+19x+16", "x^3+24x^2-13x+13")  # both harvest radius 16


@pytest.mark.parametrize(
    "s, budget, genuine_probe",
    [(s, None, False) for s in FIXTURE_POLYS + ESCALATING]
    + [("x^3+24x^2-13x+13", 2, True)],
)
def test_shell_harvest_matches_full_box_loop(monkeypatch, s, budget, genuine_probe):
    order = maximal_order(parse_cubic(s))
    present, probe = classgroup._present, classgroup._probe_certificates
    presented = []

    def counting_present(*args):
        presented.append(args)
        return present(*args)

    lines, scanned = classgroup.lattice_lines, []

    def recording_lines(caps, skip=-1):
        # the harvest scans the identity basis, so c is the point itself
        for c0, c1, xs in lines(caps, skip):
            scanned.extend((caps, (c0, c1, x)) for x in xs)
            yield c0, c1, xs

    monkeypatch.setattr(classgroup, "_present", counting_present)
    reference_calls, calls = [], []
    if genuine_probe:
        monkeypatch.setattr(
            classgroup, "_probe_certificates", _one_genuine_certificate(probe, reference_calls)
        )
    reusable = []
    expected = _full_box_class_group(order, budget, reusable)
    reference_presented, presented[:] = presented[:], []
    monkeypatch.setattr(classgroup, "lattice_lines", recording_lines)
    if genuine_probe:
        monkeypatch.setattr(
            classgroup, "_probe_certificates", _one_genuine_certificate(probe, calls)
        )
    got = class_group(order, budget=budget)

    assert got.snf.invariant_factors == expected.snf.invariant_factors
    assert got.classes == expected.classes
    assert got.budget == expected.budget
    assert got.certified_trivial == expected.certified_trivial
    assert calls == reference_calls
    # no point is factored twice, and only primitive ones are; a
    # nontrivial answer scanned every primitive +-pair of the largest
    # box, a trivial one stopped once the relations spanned Z^k
    points_seen = [y for _, y in scanned]
    assert len(set(points_seen)) == len(points_seen)
    assert all(gcd(*y) == 1 for y in points_seen)
    R = max((caps[0] for caps, _ in scanned), default=0)
    primitive_pairs = sum(gcd(*c) == 1 for c in itertools.product(range(-R, R + 1), repeat=3)) // 2
    if got.snf.invariant_factors:
        assert len(points_seen) == primitive_pairs
    elif s == "x^3-2":
        assert 0 < len(points_seen) < primitive_pairs
    # the one lattice runs no more SNFs than the reference less the
    # presentations a pass repeats from the one before
    assert len(presented) <= len(reference_presented) - sum(r for _, r in reusable)
    if s in ESCALATING:
        assert any(reuse for _, reuse in reusable)
    if genuine_probe:
        # a stable pass gained a certificate, so the next pass presented
        # the lattice with the new unit row
        assert len(calls) == 2 and reusable[-1][1] is False


def _walked_row(order, y, index_of, ps, powers):
    """Reference for _smooth_row with no valuation kernel and no norm shortcut:
    trial division of the norm by `ps`, then v_P at every prime P above
    by walking P, P^2, ... (`powers` caches the HNFs per prime)."""
    rem = abs(order.norm_omega(y))
    expo = {}
    for p in sorted(ps):
        while rem % p == 0:
            rem //= p
            expo[p] = expo.get(p, 0) + 1
    if rem != 1:
        return None
    row = [0] * len(index_of)
    for p in expo:
        for q in factor_prime(order, p):
            walk = powers.setdefault(q.hnf, [q.as_integral()])
            v = 0
            while True:
                if v == len(walk):
                    walk.append(ideal_product(order, walk[-1], walk[0]))
                if not lattice_contains(walk[v].hnf, y):
                    break
                v += 1
            if v:
                if q.hnf not in index_of:
                    return None
                row[index_of[q.hnf]] = v
    return row


def test_norm_derived_valuations_match_the_walk():
    """On a fixed slice of box-12 fields, where the last prime above each
    factor-base p is valued from the norm (split, inert, f = 2, ramified
    or above an index prime), the line scan of the radius-4 box yields
    the walked rows that are not None, in the box's order."""
    fields = 0
    for a2, a1, a0 in itertools.islice(itertools.product(range(-12, 13), repeat=3), 0, None, 151):
        try:
            order = maximal_order(CubicPoly(a2, a1, a0))
        except ReduciblePolynomialError:
            continue
        fb, _, _ = classgroup._factor_base(order)
        index_of = {prime.hnf: i for i, prime in enumerate(fb)}
        ps = {prime.p for prime in fb}
        screen, over = classgroup._columns(order, index_of, ps)
        if not over:
            continue
        fields += 1
        powers = {}
        walked = (
            _walked_row(order, y, index_of, ps, powers)
            for y in lattice_points(cubicfield.UNIT_ROWS, (4, 4, 4))
        )
        form = order.norm_form(cubicfield.UNIT_ROWS)
        got = classgroup._smooth_points(
            order, cubicfield.UNIT_ROWS, form, (4, 4, 4), -1, len(fb), screen, over
        )
        assert list(got) == [row for row in walked if row is not None], (a2, a1, a0)
    assert fields == 88


def test_columns_build_kernels_only_for_directly_valued_primes():
    """Every p has exactly one prime valued from the norm, the last of
    factor_prime, and no kernel is built for it, at an index prime
    too; every other prime above p gets its immutable (p, tau rows)
    kernel."""
    direct_count = index_rests = 0
    for s in FIXTURE_POLYS:
        order = maximal_order(parse_cubic(s))  # fresh: an empty kernel cache
        fb, _, _ = classgroup._factor_base(order)
        index_of = {prime.hnf: i for i, prime in enumerate(fb)}
        _, over = classgroup._columns(order, index_of, {prime.p for prime in fb} | {2, 3, 5, 7})
        cache = order._valuation_cache
        assert [p for p, _, _ in over] == sorted({prime.p for prime in fb} | {2, 3, 5, 7})
        for p, direct, rest in over:
            *primes, last = factor_prime(order, p)
            assert rest == (last.f, index_of.get(last.hnf))
            assert last.hnf not in cache, (s, p)
            index_rests += order.index % p == 0
            assert [(f, idx) for f, idx, _ in direct] == [
                (q.f, index_of.get(q.hnf)) for q in primes
            ]
            for (_, _, kernel), q in zip(direct, primes):
                hash(kernel)  # immutable all the way down
                assert kernel is cache[q.hnf] and kernel[0] == p
            direct_count += len(direct)
    # x^3-x^2-2x-8 splits its index prime 2 into three primes
    assert index_rests == 1 and direct_count >= 2


def test_norm_derived_valuation_rejects_a_broken_identity():
    """A remainder the norm-derived prime cannot take raises instead of
    reading as 'not smooth'."""
    order = _order_of("x^3-2")
    fb, _, _ = classgroup._factor_base(order)
    index_of = {prime.hnf: i for i, prime in enumerate(fb)}
    _, over = classgroup._columns(order, index_of, {prime.p for prime in fb})
    p, direct, (f, idx) = over[0]
    assert (direct, f) == ([], 1)  # p is totally ramified in Q(2^(1/3))
    broken = [(q, w, (2, r[1])) for q, w, r in over]
    y = tuple(p * c for c in order.one)  # N(p) = p^3, and 2 does not divide 3
    assert classgroup._smooth_row(y, p**3, len(fb), over) is not None
    with pytest.raises(AssertionError, match="break the norm"):
        classgroup._smooth_row(y, p**3, len(fb), broken)


@settings(max_examples=60, deadline=None)
@given(
    s=st.sampled_from(("x^3+4x-1", "x^3-12x^2-5x-4", "x^3-21x^2+19x+16", "x^3-2")),
    coords=st.tuples(*[st.integers(-12, 12)] * 3).filter(any),
    extra_column=st.booleans(),
)
def test_smooth_row_matches_trial_division(s, coords, extra_column):
    order = _order_of(s)
    fb, _, _ = classgroup._factor_base(order)
    index_of = {prime.hnf: i for i, prime in enumerate(fb)}
    ps = {prime.p for prime in fb}
    y = coords
    if extra_column:
        # prime_class_vector's layout: a prime outside the base is column
        # k, and y lies in it
        target = next(
            q for p in primes_up_to(60) for q in factor_prime(order, p) if q.hnf not in index_of
        )
        index_of[target.hnf] = len(fb)
        ps.add(target.p)
        y = tuple(sum(c * r[j] for c, r in zip(coords, target.hnf)) for j in range(3))
    _, over = classgroup._columns(order, index_of, ps)
    got = classgroup._smooth_row(y, abs(order.norm_omega(y)), len(index_of), over)
    assert got == _reference_row(order, y, index_of, ps)


def _every_point_class_vector(order, data, prime):
    """Reference for prime_class_vector: the first point of each shell
    of the prime's HNF coordinates, every point taken (both signs and
    the multiples g*c too, in the full box's nested order), whose ideal
    is the prime times a factor-base-smooth cofactor, by trial division
    and element_valuation."""
    known = data.classes.get(prime.label)
    if known is not None:
        return known
    k = len(data.fb)
    index_of = {q.hnf: i for i, q in enumerate(data.fb)}
    index_of[prime.hnf] = k
    ps = {q.p for q in data.fb} | {prime.p}
    for shell in range(1, classgroup.EXPRESSION_MAX_SHELL + 1):
        signed = [0] + [s * v for v in range(1, shell + 1) for s in (1, -1)]
        for c in itertools.product(signed, repeat=3):
            if max(map(abs, c)) < shell:
                continue
            y = tuple(sum(c[t] * prime.hnf[t][i] for t in range(3)) for i in range(3))
            row = _reference_row(order, y, index_of, ps)
            if row is not None and row[k] == 1:
                return data.snf.neg(data.snf.project(row[:k]))
    raise AssertionError(f"no shell expresses {prime.label}")


def test_prime_class_vector_matches_the_every_point_scan():
    """On drawn box-12 fields with h > 1, every prime above p <= 100: the
    primitive shells give the class coordinates of the scan that takes
    every point, non-primitive ones included."""
    rng = random.Random(7)
    fields = 0
    while fields < 10:
        try:
            order = maximal_order(CubicPoly(*(rng.randint(-12, 12) for _ in range(3))))
        except ReduciblePolynomialError:
            continue
        if order.poly.is_galois():
            continue
        cl = class_group(order)
        if not cl.snf.invariant_factors:
            continue
        fields += 1
        for p in primes_up_to(100):
            for q in factor_prime(order, p):
                want = _every_point_class_vector(order, cl, q)
                assert prime_class_vector(order, cl, q) == want, (order.poly, q.label)


def test_harvest_adds_each_box_row_once(monkeypatch):
    """Over the shells of a field with h > 1, whose smooth rows repeat,
    the rows reaching HermiteBasis.add are those of the box's smooth
    points, each point's once, repeats included (the lattice's quotient
    test drops a row it holds), and the lattice is that of every smooth
    row."""
    added = []

    class Recording(classgroup.HermiteBasis):
        __slots__ = ()

        def add(self, row):
            added.append(tuple(row))
            super().add(row)

    monkeypatch.setattr(classgroup, "HermiteBasis", Recording)
    order = _order_of("x^3-21x^2+19x+16")
    fb, mb, rows = classgroup._factor_base(order)
    harvest = classgroup._Harvest(order, fb, mb, rows)
    for radius in (4, 8):
        harvest.present(radius)
    assert harvest.present(16).snf.invariant_factors
    screen, over = harvest.screen, harvest.over
    form = order.norm_form(cubicfield.UNIT_ROWS)
    box = (16,) * 3
    smooth = list(
        classgroup._smooth_points(order, cubicfield.UNIT_ROWS, form, box, -1, len(fb), screen, over)
    )
    assert len({tuple(r) for r in smooth}) < len(smooth)
    assert sorted(added) == sorted(map(tuple, smooth))
    assert harvest.lattice.rows() == hnf_rows(rows + smooth, len(fb))
