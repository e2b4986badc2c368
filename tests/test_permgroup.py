"""Permutation engine: worked examples plus structural invariants.

Brute-force oracles (naive closure, all-pairs commutators, direct
conjugate intersection) are kept deliberately independent of the
production code paths they validate.
"""

import gc
import hashlib
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import AlternatingGroup, CyclicGroup, DihedralGroup, SymmetricGroup
from sympy.combinatorics import Permutation as SympyPerm
from sympy.combinatorics import PermutationGroup as SympyPermGroup
from sympy.combinatorics.galois import S5TransitiveSubgroups

import groupcorpus
import groupref
from polyakit import (
    GroupTooLargeError,
    PermGroup,
    abelianization,
    check_condition_2B,
    compose,
    compute_T,
    coset_action,
    cycle_structure,
    cycles,
    derived_subgroup,
    family_group,
    from_cycles,
    group_closure,
    identity,
    inverse,
    is_2transitive,
    is_frobenius,
    parse_group_file,
    parse_perm,
    perm,
    point_stabilizer,
)
from polyakit import permgroup
from polyakit.permgroup import generated_subgroup

from groupcorpus import (
    action_image,
    compute_T_conjugacy,
    coset_index,
    cycle_string,
    generated_by_T,
    least_cycles,
    least_representatives,
    least_row,
    normal_core,
    power,
    project,
    subgroup_from_elements,
)


def naive_closure(gens, degree):
    """Oracle: repeated all-pairs multiplication until fixpoint."""
    els = {tuple(range(degree))}
    els.update(tuple(g) for g in gens)
    while True:
        new = set()
        for a in els:
            for b in els:
                c = tuple(b[a[i]] for i in range(degree))
                if c not in els:
                    new.add(c)
        if not new:
            return els
        els |= new


# --- permutations as image tuples ------------------------------------------

perm_strategy = st.permutations(list(range(5))).map(perm)


@given(perm_strategy, perm_strategy, perm_strategy)
@settings(max_examples=100, deadline=None)
def test_composition_associative(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c)) == compose(a, b, c)
    assert compose(a, b) == tuple(b[a[i]] for i in range(5))  # a, then b


@given(perm_strategy)
@settings(max_examples=60, deadline=None)
def test_inverse_cancels(p):
    assert compose(p, inverse(p)) == identity(5)
    assert compose(inverse(p), p) == identity(5)
    assert power(p, -1) == inverse(p)
    assert power(p, 3) == compose(p, p, p)
    assert power(p, 0) == identity(5)


def test_perm_rejects_non_bijection():
    with pytest.raises(ValueError):
        perm((0, 0, 2))
    with pytest.raises(ValueError):
        perm(())


@given(st.lists(st.permutations(list(range(4))), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_perm_is_its_image_tuple(images):
    perms = [perm(t) for t in images]
    for p, t in zip(perms, images):
        assert type(p) is tuple
        assert p == tuple(t) and hash(p) == hash(tuple(t))
    assert sorted(perms) == sorted(perms, key=tuple)
    assert {tuple(t) for t in images} == set(perms)


def test_every_returned_element_is_a_perm():
    """A product left unwrapped would put a plain tuple in `elements`."""
    s5 = family_group("S5")
    h = point_stabilizer(s5, 4)
    groups = [
        group_closure(5, [parse_perm("(1 2 3)", 5), parse_perm("(1 2)(4 5)", 5)]),
        generated_subgroup(5, [parse_perm("(1 2)", 5), parse_perm("(1 2 3 4)", 5)]),
        subgroup_from_elements(4, family_group("A4").elements),
        h,
        derived_subgroup(h),
        normal_core(family_group("A4"), groupcorpus.klein_four()),
    ]
    for g in groups:
        for x in g.elements:
            assert type(x) is tuple and compose(x, inverse(x)) == g.identity
        assert all(type(x) is tuple for x in g.generators)
    assert all(type(s) is tuple for s in coset_action(s5, derived_subgroup(h)).orbit)
    assert all(type(t) is tuple for t in compute_T(s5, h))
    assert all(type(t) is tuple for t in check_condition_2B(s5, h).T)


def test_group_closure_checks_every_generator():
    """No type vouches for a tuple, so the closure checks each one."""
    with pytest.raises(ValueError, match="not a permutation"):
        group_closure(3, [(0, 0, 2)])
    with pytest.raises(ValueError, match="generator degree 4 != 3"):
        group_closure(3, [(1, 0, 2, 3)])
    g = group_closure(3, [[1, 2, 0]])
    assert g.order == 3 and g.generators == ((1, 2, 0),)


def test_no_public_permutation_class():
    """`perm` is the one checking constructor: no `Perm` class remains
    whose call could build an unchecked tuple."""
    import polyakit

    assert not hasattr(polyakit, "Perm") and not hasattr(permgroup, "Perm")


def test_cycle_string_round_trip():
    p = parse_perm("(1 2)(3 4)", 5)
    assert p == (1, 0, 3, 2, 4)
    assert cycle_string(p) == "(1 2)(3 4)"
    assert cycles(p) == [(0, 1), (2, 3)]
    assert cycles(p, include_fixed=True) == [(0, 1), (2, 3), (4,)]
    assert parse_perm(cycle_string(p), 5) == p
    assert parse_perm("()", 3) == identity(3)
    with pytest.raises(ValueError):
        parse_perm("(1 6)", 5)
    with pytest.raises(ValueError):
        parse_perm("nonsense", 5)


# --- closure ----------------------------------------------------------------

def test_closure_s4_from_transposition_and_cycle():
    g = group_closure(4, [parse_perm("(1 2)", 4), parse_perm("(1 2 3 4)", 4)])
    assert g.order == 24


def test_closure_a5_against_naive_oracle():
    gens = [parse_perm("(1 2 3)", 5), parse_perm("(1 2 3 4 5)", 5)]
    g = group_closure(5, gens)
    assert g.order == 60
    assert g.elements == naive_closure(gens, 5)


def test_closure_empty_generators():
    g = group_closure(3, [])
    assert g.order == 1


def test_closure_rejects_degree_zero():
    with pytest.raises(ValueError):
        group_closure(0, [])


def test_closure_ceiling():
    with pytest.raises(GroupTooLargeError):
        group_closure(8, family_group("S8").generators, ceiling=1000)


def test_closure_refuses_s10_before_listing_it():
    """The chain knows |S10| = 3628800 before any element exists."""
    gens = [parse_perm("(1 2)", 10), parse_perm("(1 2 3 4 5 6 7 8 9 10)", 10)]
    start = time.perf_counter()
    with pytest.raises(GroupTooLargeError, match="closure exceeds ceiling 1000000"):
        group_closure(10, gens)
    assert time.perf_counter() - start < 1.0


def test_listing_is_bounded_by_order_times_degree(monkeypatch):
    """`elements` refuses a group of more than MAX_LISTED_ENTRIES tuple
    entries (|G| * degree = 96 for S4) before listing any, and lists one
    at the bound."""
    monkeypatch.setattr(permgroup, "MAX_LISTED_ENTRIES", 95)
    g = family_group("S4")
    with pytest.raises(GroupTooLargeError, match="listing 24 elements of degree 4"):
        g.elements
    assert g._elements is None
    monkeypatch.setattr(permgroup, "MAX_LISTED_ENTRIES", 96)
    assert len(g.elements) == 24


def _moving(degree: int):
    """A permutation of `degree` points that moves only a drawn subset,
    so small subgroups are drawn as well as S_n and A_n."""
    def build(pts_img):
        pts, img = pts_img
        images = list(range(degree))
        for a, b in zip(pts, img):
            images[a] = b
        return perm(images)

    subsets = st.lists(st.integers(0, degree - 1), unique=True)
    return subsets.flatmap(lambda pts: st.permutations(pts).map(lambda img: (pts, img))).map(build)


generator_sets = st.integers(1, 7).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(_moving(d), max_size=4))
)


@given(generator_sets)
@settings(max_examples=60, deadline=None)
def test_chain_closure_matches_the_breadth_first_oracle(case):
    degree, gens = case
    els = groupcorpus.bfs_closure(degree, gens)[1]
    g = group_closure(degree, gens)
    assert g.elements == els and g.order == len(els)
    assert g.generators == tuple(gens)
    sub = generated_subgroup(degree, gens)
    assert sub.elements == els
    assert sub.generators == tuple(groupcorpus.bfs_closure(degree, sorted(set(gens)))[0])
    wrapped = subgroup_from_elements(degree, g.elements)
    assert wrapped.generators == tuple(groupcorpus.bfs_closure(degree, sorted(els))[0])
    for p in range(degree):
        h = point_stabilizer(g, p)
        assert h.elements == {x for x in els if x[p] == p}
        for q in range(degree):
            assert point_stabilizer(h, q).elements == {x for x in h.elements if x[q] == q}


def _chain_cases():
    """(G, subgroups of G and other groups of its degree) for the corpus
    and for 300 seeded random generator sets of degree 1..7."""
    rng = random.Random(21)
    cases = [(g, [h]) for _, g, h in groupcorpus.corpus_with_degree8()]
    last: dict[int, PermGroup] = {}
    for _ in range(300):
        d = rng.randint(1, 7)
        g = group_closure(d, [groupcorpus.random_moving(rng, d) for _ in range(rng.randint(0, 3))])
        x = rng.choice(sorted(g.elements))
        others = [point_stabilizer(g, rng.randrange(d)), generated_subgroup(d, [x])]
        if d in last:
            others.append(last[d])
        last[d] = g
        cases.append((g, others))
    return cases


def test_the_chain_answers_like_the_element_set():
    """order, `in` and `is_subgroup_of` read off the stabilizer chain
    agree with the listed elements: on members, on random non-members
    and non-permutations of the same degree, and on subgroup pairs
    taken both ways."""
    rng = random.Random(2121)
    for g, others in _chain_cases():
        d = g.degree
        for group in (g, *others):
            assert group._levels is not None
            assert group.order == len(group.elements)
        members = _sample(g)
        draws = [groupcorpus.random_moving(rng, d) for _ in range(20)]
        x = members[-1]
        strangers = [x + (d,), x[:-1], tuple(range(1, d + 1)), (0,) * d]
        for x in (*members, *draws, *strangers):
            assert (x in g) == (x in g.elements), (g, x)
        for h in others:
            for a, b in ((h, g), (g, h)):
                assert a.is_subgroup_of(b) == (a.elements <= b.elements), (a, b)


def test_lagrange_on_families():
    for tok in ("S4", "A5", "D6", "C7", "F20"):
        g = family_group(tok)
        assert math.factorial(g.degree) % g.order == 0


# --- coset actions ----------------------------------------------------------

def test_coset_action_s4_stabilizer():
    g = family_group("S4")
    h = point_stabilizer(g, 3)
    act = coset_action(g, h)
    assert act.num_cosets == 4
    assert act.home == 3 and act.row(identity(4))[act.orbit.index(act.home)] == 3


def test_coset_action_a4_klein():
    a4 = family_group("A4")
    v4 = groupcorpus.klein_four()
    act = coset_action(a4, v4)
    assert act.num_cosets == 3


def test_coset_action_h_equals_g():
    g = family_group("S3")
    act = coset_action(g, g)
    assert act.num_cosets == 1
    for x in g.elements:
        assert act.row(x)[0] == 0


def test_coset_action_rejects_non_subgroup():
    with pytest.raises(ValueError):
        coset_action(family_group("A4"), point_stabilizer(family_group("S4"), 3))


def test_coset_action_axioms_on_corpus():
    for name, g, h in groupcorpus.corpus():
        if g.order > 60:
            continue
        act = coset_action(g, h)
        assert act.num_cosets == g.order // h.order, name
        ident = g.identity
        els = sorted(g.elements)
        for i in range(act.num_cosets):
            assert act.row(ident)[i] == i
        for x in els[:6]:
            for y in els[:6]:
                for i in range(act.num_cosets):
                    assert act.row(compose(x, y))[i] == act.row(y)[act.row(x)[i]], name
        # transitivity of the coset action
        reach = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                for x in g.generators:
                    j = act.row(x)[i]
                    if j not in reach:
                        reach.add(j)
                        nxt.append(j)
            frontier = nxt
        assert len(reach) == act.num_cosets, name


@given(generator_sets, st.data())
@settings(max_examples=80, deadline=None)
def test_coset_key_labels_each_coset_once(case, data):
    """For random G of degree <= 7 and H a point stabilizer or the
    group of up to two random elements: the key of g lies in H*g, the
    key of (h then g) is that of g for each generator h of H, and the
    keys over G number exactly [G : H]."""
    degree, gens = case
    g = group_closure(degree, gens)
    els = sorted(g.elements)
    if data.draw(st.booleans()):
        h = point_stabilizer(g, data.draw(st.integers(0, degree - 1)))
    else:
        h = generated_subgroup(degree, data.draw(st.lists(st.sampled_from(els), max_size=2)))
    keys = set()
    for x in els:
        key = permgroup._coset_key(h._levels, x)
        assert compose(key, inverse(x)) in h
        for s in h.generators:
            assert permgroup._coset_key(h._levels, compose(s, x)) == key
        keys.add(key)
    assert len(keys) == g.order // h.order


@given(generator_sets, st.data())
@settings(max_examples=80, deadline=None)
def test_row_indexes_the_sorted_labels(case, data):
    """For random G of degree <= 7 and H a point stabilizer or the group
    of up to two random elements, on sampled elements of G and of H:
    row(x)[i] is the index of the label x moves orbit[i] to, row(x)
    fixes the index of `home` exactly when x lies in H, and
    cycle_structure(x) has the cycle lengths of the row in
    least-representative order."""
    degree, gens = case
    g = group_closure(degree, gens)
    els = sorted(g.elements)
    if data.draw(st.booleans()):
        h = point_stabilizer(g, data.draw(st.integers(0, degree - 1)))
    else:
        h = generated_subgroup(degree, data.draw(st.lists(st.sampled_from(els), max_size=2)))
    act = coset_action(g, h)
    home = act.orbit.index(act.home)
    hels = sorted(h.elements)
    for x in els[:: max(1, len(els) // 24)] + hels[:: max(1, len(hels) // 8)]:
        row = act.row(x)
        assert row == tuple(act.orbit.index(act._move(q, x)) for q in act.orbit)
        assert (row[home] == home) == (x in h.elements)
        lengths = [f for f, _ in least_cycles(act, x)]
        assert sorted(cycle_structure(x, act)) == sorted(lengths)


def test_cycle_structure_identity():
    g = family_group("S3")
    h = point_stabilizer(g, 2)
    act = coset_action(g, h)
    assert cycle_structure(g.identity, act) == [1, 1, 1]


def test_cycle_structure_transposition_and_3cycle():
    g = family_group("S3")
    h = point_stabilizer(g, 2)
    act = coset_action(g, h)
    assert sorted(cycle_structure(parse_perm("(1 2)", 3), act)) == [1, 2]
    assert cycle_structure(parse_perm("(1 2 3)", 3), act) == [3]


def test_cycle_structure_lengths_sum():
    for name, g, h in groupcorpus.corpus():
        if g.order > 120:
            continue
        act = coset_action(g, h)
        for x in sorted(g.elements)[:10]:
            cs = cycle_structure(x, act)
            assert sum(cs) == act.num_cosets, name
            rows = [act.row(power(x, k)) for k in range(act.num_cosets + 1)]
            least = {}  # each coset index: the least index of its cycle
            for i in range(act.num_cosets):
                for row in rows:
                    least.setdefault(row[i], i)
            starts = sorted(set(least.values()))
            assert len(starts) == len(cs), name
            for f, i in zip(cs, starts):
                cycle = {rows[k][i] for k in range(f)}
                assert len(cycle) == f and min(cycle) == i, name
                assert rows[f][i] == i, name


# --- T ----------------------------------------------------------------------

def test_T_s3():
    g = family_group("S3")
    h = point_stabilizer(g, 2)
    assert compute_T(g, h) == {parse_perm("(1 2)", 3)}


def test_T_s4():
    g = family_group("S4")
    h = point_stabilizer(g, 3)
    assert compute_T(g, h) == {parse_perm("(1 2 3)", 4), parse_perm("(1 3 2)", 4)}


def test_T_a5():
    g = family_group("A5")
    h = point_stabilizer(g, 4)
    T = compute_T(g, h)
    expected = {
        parse_perm("(1 2)(3 4)", 5),
        parse_perm("(1 3)(2 4)", 5),
        parse_perm("(1 4)(2 3)", 5),
    }
    assert T == expected


def test_T_rejects_full_subgroup():
    g = family_group("S3")
    with pytest.raises(ValueError):
        compute_T(g, g)


def _bench_family_pairs():
    """The 25 family groups of the groups benchmark (S, A, D and C at
    degrees 3..8, and F20), each conjugated by a seeded point map as the
    benchmark does, with H the stabilizer of the last point."""
    rng = random.Random(37)
    tokens = [f"{f}{n}" for f in "SADC" for n in range(3, 9)] + ["F20"]
    pairs = []
    for token in tokens:
        g = family_group(token)
        sigma = list(range(g.degree))
        rng.shuffle(sigma)
        gens = [compose(inverse(sigma), x, sigma) for x in g.generators]
        g = group_closure(g.degree, gens)
        pairs.append((token, g, point_stabilizer(g, g.degree - 1)))
    return pairs


def _assert_T_three_ways(name, g, h):
    act = coset_action(g, h)
    T = compute_T(g, h, act)
    assert T == groupcorpus.T_by_listing(act), name
    assert T == compute_T_conjugacy(g, h, act), name


def test_T_characterizations_agree_full_corpus():
    """The walk of H's chain, listing H and counting fixed cosets, and
    the conjugacy test give one T on the benchmark's family groups and
    on the degree-8 corpus."""
    for name, g, h in _bench_family_pairs() + groupcorpus.corpus_with_degree8():
        _assert_T_three_ways(name, g, h)


@given(generator_sets, st.data())
@settings(max_examples=80, deadline=None)
def test_T_characterizations_agree_on_drawn_pairs(case, data):
    """The same on random G of degree <= 7, with H a point stabilizer or
    the group of up to two random elements of G."""
    degree, gens = case
    g = group_closure(degree, gens)
    if data.draw(st.booleans()):
        h = point_stabilizer(g, data.draw(st.integers(0, degree - 1)))
    else:
        els = sorted(g.elements)
        h = generated_subgroup(degree, data.draw(st.lists(st.sampled_from(els), max_size=2)))
    if h.order < g.order:
        _assert_T_three_ways("drawn", g, h)


def test_T_lists_no_element_of_H(monkeypatch):
    """compute_T walks H's chain and never lists H: on S8 with H = S7,
    and on S8 with H = S4 x S4 (70 cosets, no point stabilized)."""
    s8 = family_group("S8")
    s4s4 = generated_subgroup(
        8, [from_cycles(8, [[0, 1]]), from_cycles(8, [[0, 1, 2, 3]]),
            from_cycles(8, [[4, 5]]), from_cycles(8, [[4, 5, 6, 7]])],
    )

    def refuse(*args):
        raise AssertionError("a group was listed")

    monkeypatch.setattr(permgroup, "_enumerate", refuse)
    T = compute_T(s8, point_stabilizer(s8, 7))
    T_general = compute_T(s8, s4s4)
    monkeypatch.undo()
    assert len(T) == groupref.derangements(7) == 1854
    assert (s4s4.order, T_general) == (576, frozenset())
    assert T_general == groupcorpus.T_by_listing(coset_action(s8, s4s4))


def test_T_oracle_direct_conjugate_scan():
    """Third route for small pairs: scan every s in G \\ H literally."""
    for name, g, h in groupcorpus.corpus():
        if g.order > 60:
            continue
        T = compute_T(g, h)
        expected = set()
        for x in h.elements:
            if all(
                compose(s, x, inverse(s)) not in h.elements
                for s in g.elements
                if s not in h.elements
            ):
                expected.add(x)
        assert T == expected, name


# --- derived subgroup and normal core ---------------------------------------

def test_derived_subgroup_abelian_trivial():
    for g in (family_group("C6"), groupcorpus.klein_four()):
        assert derived_subgroup(g).order == 1


def test_derived_subgroup_s3():
    d = derived_subgroup(family_group("S3"))
    assert d == family_group("A3")


def test_derived_subgroup_a4_is_klein():
    d = derived_subgroup(family_group("A4"))
    assert d == groupcorpus.klein_four()


def _coset_labels(group, normal):
    """Label every element of `group` with the first element listed of
    its coset modulo the normal subgroup `normal`: the oracle for the
    classes of `Abelianization.label`."""
    labels = {}
    for x in group.elements:
        if x not in labels:
            labels.update(dict.fromkeys((compose(x, d) for d in normal.elements), x))
    return labels


def test_abelianization_is_built_once_per_group(monkeypatch):
    """check_condition_2B and the abelianization of the same H share one
    H/H' object: one H' and one labelling of H by H'-cosets."""
    calls = []
    real = permgroup.derived_subgroup
    monkeypatch.setattr(permgroup, "derived_subgroup", lambda g: calls.append(g) or real(g))
    G = family_group("S5")
    H = point_stabilizer(G, 4)
    report = check_condition_2B(G, H)
    ab = abelianization(H)
    assert calls == [H]
    assert abelianization(H) is ab
    assert ab.hprime == real(H) and ab.hprime.order == 12
    assert report.holds and ab.group.invariant_factors == (2,)
    for name, g, h in groupcorpus.corpus():
        ab = abelianization(h)
        classes = {}
        for x in h.elements:
            classes.setdefault(ab.label(x), set()).add(x)
        oracle = {}
        for x, first in _coset_labels(h, ab.hprime).items():
            oracle.setdefault(first, set()).add(x)
        assert tuple(sorted(classes)) == ab.labels, name
        assert sorted(map(sorted, classes.values())) == sorted(map(sorted, oracle.values())), name


def test_abelianization_lists_no_element_of_hprime():
    """The generation test and the presentation of H/H' read H'-cosets
    through the chains of H and H': on S8 and its point stabilizer,
    H' = A7 is never listed."""
    G = family_group("S8")
    H = point_stabilizer(G, 7)
    assert check_condition_2B(G, H).holds
    ab = abelianization(H)
    assert ab.group.invariant_factors == (2,)
    assert ab.hprime._elements is None


def test_project_rejects_what_is_not_in_H_on_both_label_paths():
    """An element of G outside H and a tuple of the wrong length raise,
    whether the H'-cosets are labelled by points (S3 on 5 points, whose
    H' = <(1 2 3)> is the stabilizer of the point 4) or by `_coset_key`
    (S7 inside S8)."""
    s3 = group_closure(5, [from_cycles(5, [[0, 1, 2]]), from_cycles(5, [[0, 1], [3, 4]])])
    s7 = point_stabilizer(family_group("S8"), 7)
    for h, outside, by_point in (
        (s3, from_cycles(5, [[0, 1]]), True),
        (s7, from_cycles(8, [[6, 7]]), False),
    ):
        ab = abelianization(h)
        assert isinstance(ab.labels[0], int) == by_point
        assert project(ab, h.identity) == ab.group.identity()
        for p in (outside, h.identity[:-1], h.identity + (h.degree,)):
            with pytest.raises(ValueError, match="not in the subgroup"):
                project(ab, p)


def test_group_equality_reads_the_chain():
    """Two groups are equal iff their element sets are, and comparing or
    hashing them lists neither."""
    pairs = groupcorpus.corpus_with_degree8()
    groups = [x for _, g, h in pairs for x in (g, h)]
    fresh = [PermGroup(x.degree, x.generators, x._levels) for x in groups]
    equal = [[a == b for b in fresh] for a in fresh]
    for a, row in zip(fresh, equal):
        for b, same in zip(fresh, row):
            assert not same or hash(a) == hash(b)
    assert all(x._elements is None for x in fresh)
    for a, row in zip(groups, equal):
        for b, same in zip(groups, row):
            assert same == (a.degree == b.degree and a.elements == b.elements)
    assert any(same for i, row in enumerate(equal) for j, same in enumerate(row) if i != j)


def test_abelianization_leaves_no_reference_cycle():
    """Nothing in H/H' refers back to H, so a group, its report and its
    abelianization are freed by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        G = family_group("S6")
        H = point_stabilizer(G, 5)
        report = check_condition_2B(G, H)
        quotient = abelianization(H).group
        del G, H, report, quotient
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_generation_test_leaves_the_presentation_unbuilt():
    """C2 wr C12 on 24 points: the stabilizer of a point is C2^11, so
    H/H' has 2^11 classes.  The generation test reads only the coset
    labels; the invariant-factor presentation waits for its first use."""
    swap = from_cycles(24, [[0, 1]])
    shift = from_cycles(24, [list(range(0, 24, 2)), list(range(1, 24, 2))])
    G = group_closure(24, [swap, shift])
    H = point_stabilizer(G, 23)
    check_condition_2B(G, H)
    ab = abelianization(H)
    assert "group" not in vars(ab)
    assert ab.group.invariant_factors == (2,) * 11


def test_condition_agrees_with_the_decision_in_the_presented_quotient():
    """<T, H'> = H iff the classes of T fill H/H': decided here on the
    presented group, as polya_group decides Po(K) = Cl(K)."""
    for name, g, h in groupcorpus.corpus_with_degree8():
        rep = check_condition_2B(g, h)
        ab = abelianization(h)
        classes = {project(ab, t) for t in rep.T}
        assert rep.holds == (bool(rep.T) and ab.group.subgroup(classes).is_full()), name


def _polyakit_report(g, h) -> dict:
    return {
        "order_H": h.order,
        "size_T": len(compute_T(g, h)),
        "condition_2B": check_condition_2B(g, h).holds,
        "invariant_factors": abelianization(h).group.invariant_factors,
    }


def test_families_match_the_sympy_reference():
    """group-check's |H|, |T| and criterion, and H/H', on S, A, D, C for
    n = 3..8 and F20, against sympy's own constructions of the families
    (labelled its own way: each is transitive, so every point stabilizer
    gives the same answers)."""
    families = {
        "S": SymmetricGroup, "A": AlternatingGroup, "D": DihedralGroup, "C": CyclicGroup,
    }
    cases = [(f"{x}{n}", build(n)) for x, build in families.items() for n in range(3, 9)]
    cases.append(("F20", S5TransitiveSubgroups.M20.get_perm_group()))
    for name, ref_group in cases:
        g = family_group(name)
        h = point_stabilizer(g, g.degree - 1)
        ref = groupref.stabilizer_report(ref_group, ref_group.degree - 1)
        assert _polyakit_report(g, h) == ref, name


def test_corpus_stabilizer_pairs_match_the_sympy_reference():
    for name, g, h in groupcorpus.corpus_with_degree8():
        if "/stab" in name:
            ref_group = SympyPermGroup([SympyPerm(list(x)) for x in g.generators])
            ref = groupref.stabilizer_report(ref_group, g.degree - 1)
            assert _polyakit_report(g, h) == ref, name


def test_sympy_invariant_factors_from_primary_invariants():
    assert groupref.invariant_factors([]) == ()
    assert groupref.invariant_factors([2, 4, 3]) == (2, 12)
    assert groupref.invariant_factors([3, 2, 2, 9, 5]) == (6, 90)


def test_derived_subgroup_matches_allpairs_oracle():
    for name, g, h in groupcorpus.corpus():
        if h.order > 60:
            continue
        got = derived_subgroup(h)
        comms = {
            compose(a, b, inverse(a), inverse(b)) for a in h.elements for b in h.elements
        }
        oracle = generated_subgroup(h.degree, comms)
        assert got == oracle, name


def _fresh(group):
    """The same group as a new object, its element set not listed."""
    return PermGroup(group.degree, group.generators, group._levels)


def test_derived_subgroup_closes_once_and_keeps_the_rounds_generators(monkeypatch):
    """One generated_subgroup call per derived subgroup, and the same
    generators, in the same order, as closing again on every round."""
    calls = []
    real = permgroup.generated_subgroup

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(permgroup, "generated_subgroup", counting)
    for name, g, h in _digest_pairs():
        for x in (g, h):
            calls.clear()
            got = derived_subgroup(x)
            assert len(calls) == 1, name
            oracle = groupcorpus.derived_by_rounds(x)
            assert got.generators == oracle.generators, name
            assert got == oracle, name


def test_is_frobenius_reads_orbits_and_lists_no_element_of_H():
    """is_frobenius equals the scan of H's elements, and leaves H unlisted."""
    found = set()
    for name, g, h in _digest_pairs():
        act = coset_action(g, _fresh(h))
        got = is_frobenius(g, act)
        assert act.subgroup._elements is None, name
        assert got == groupcorpus.frobenius_by_elements(g, act), name
        found.add(got)
    assert found == {True, False}


def test_cycle_structure_lists_no_element_of_G():
    """On S8 and S9 with a point stabilizer, and on S8 with a two-point
    stabilizer (no point is stabilized: coset keys), cycle_structure
    leaves G unlisted."""
    s8 = family_group("S8")
    s6 = point_stabilizer(point_stabilizer(s8, 7), 6)
    cases = [(s8, point_stabilizer(s8, 7)), (s8, s6)]
    s9 = family_group("S9")
    cases.append((s9, point_stabilizer(s9, 8)))
    for g, h in cases:
        g = _fresh(g)
        act = coset_action(g, h)
        assert (act.point is None) == (h is s6)
        x = compose(*g.generators)
        cycle_structure(x, act)
        assert g._elements is None


def test_derived_quotient_is_abelian():
    for name, g, h in groupcorpus.corpus():
        if h.order > 120:
            continue
        d = derived_subgroup(h)
        # quotient abelian <=> every commutator lies in the subgroup
        for a in h.generators:
            for b in h.generators:
                assert compose(a, b, inverse(a), inverse(b)) in d.elements, name


def test_normal_core_of_normal_subgroup():
    a4 = family_group("A4")
    v4 = groupcorpus.klein_four()
    assert normal_core(a4, v4) == v4


def test_normal_core_s4_stabilizer_trivial():
    g = family_group("S4")
    core = normal_core(g, point_stabilizer(g, 3))
    assert core.order == 1


def test_normal_core_intersection_oracle():
    for name, g, h in groupcorpus.corpus():
        if g.order > 120:
            continue
        core = normal_core(g, h)
        expected = set(h.elements)
        for s in g.elements:
            sinv = inverse(s)
            expected &= {compose(s, x, sinv) for x in h.elements}
        assert core.elements == expected, name
        # normal in G, contained in H
        assert core.elements <= h.elements
        for s in g.generators:
            for x in core.elements:
                assert compose(s, x, inverse(s)) in core.elements


def test_normal_core_is_action_kernel():
    for name, g, h in groupcorpus.corpus():
        if g.order > 120:
            continue
        act = coset_action(g, h)
        _, hom = action_image(act)
        kernel = {x for x in g.elements if hom[x] == identity(act.num_cosets)}
        assert kernel == set(normal_core(g, h).elements), name


# --- the generation criterion -----------------------------------------------

def test_condition_2b_table_rows():
    s5 = family_group("S5")
    assert check_condition_2B(s5, point_stabilizer(s5, 4)).holds
    s4 = family_group("S4")
    rep = check_condition_2B(s4, point_stabilizer(s4, 3))
    assert not rep.holds
    # <T, H'> is the copy of A3 on {0,1,2} inside S4
    generated = generated_by_T(point_stabilizer(s4, 3), rep.T)
    assert generated.order == 3
    assert generated.elements == {
        identity(4), parse_perm("(1 2 3)", 4), parse_perm("(1 3 2)", 4)
    }
    a5 = family_group("A5")
    rep5 = check_condition_2B(a5, point_stabilizer(a5, 4))
    assert not rep5.holds
    assert generated_by_T(point_stabilizer(a5, 4), rep5.T).order == 4  # the Klein four-group
    a4 = family_group("A4")
    assert check_condition_2B(a4, point_stabilizer(a4, 3)).holds


def test_condition_report_invariant():
    for name, g, h in groupcorpus.corpus():
        if g.order > 120:
            continue
        rep = check_condition_2B(g, h)
        generated = generated_by_T(h, rep.T)
        assert rep.holds == (bool(rep.T) and generated == h), name
        assert generated.is_subgroup_of(h), name


# --- orbit-read coset actions and the H/H' decision against references -------

class _EnumeratedCosets:
    """Reference coset action, built by enumeration: walk G in sorted
    order, open a coset at each element not yet placed (its least
    element), and map every element of that coset to its index."""

    def __init__(self, g, h):
        self.representatives = []
        self.coset_of = {}
        for s in sorted(g.elements):
            if s in self.coset_of:
                continue
            self.representatives.append(s)
            for x in h.elements:
                self.coset_of[compose(x, s)] = len(self.representatives) - 1

    def row(self, x):
        return tuple(self.coset_of[compose(s, x)] for s in self.representatives)


def _closure_reference(g, h):
    """Reference <T, H'>: close T and the generators of H' as permutations."""
    return generated_subgroup(g.degree, [*derived_subgroup(h).generators, *compute_T(g, h)])


def _relabelled_stabilizer_pairs():
    """Each stabilizer pair of the corpus up to degree 7, conjugated by a
    seeded point map, with H the stabilizer of a seeded point."""
    rng = random.Random(6)
    pairs = []
    for name, g, _ in groupcorpus.corpus_with_degree8():
        if not name.endswith("/stab") or g.degree > 7:
            continue
        sigma = list(range(g.degree))
        rng.shuffle(sigma)
        sigma = perm(sigma)
        gens = [compose(inverse(sigma), x, sigma) for x in g.generators]
        g2 = group_closure(g.degree, gens)
        pairs.append((name + "^sigma", g2, point_stabilizer(g2, rng.randrange(g.degree))))
    return pairs


def _sample(g):
    els = sorted(g.elements)
    return els if g.order <= 5040 else els[::37]


def test_coset_action_matches_enumeration_reference():
    fixing_not_full = (
        "S4/<(1 2)>",
        family_group("S4"),
        generated_subgroup(4, [from_cycles(4, [[0, 1]])]),
    )
    pairs = groupcorpus.corpus_with_degree8() + _relabelled_stabilizer_pairs()
    for name, g, h in pairs + [fixing_not_full]:
        act = coset_action(g, h)
        ref = _EnumeratedCosets(g, h)
        stabilizer_pair = "/stab" in name
        assert (act.point is not None) == stabilizer_pair, name
        for x in _sample(g):
            assert coset_index(act, x) == ref.coset_of[x], name
            assert least_row(act, x) == ref.row(x), name


def _digest_pairs():
    return groupcorpus.corpus_with_degree8() + groupcorpus.random_pairs(2424, 600)


def _group_side_digest(pairs):
    """A SHA-256 over every group-side answer on the pairs: the
    check_condition_2B report (holds, T), the elements and generators of
    <T, H'>, compute_T_conjugacy, the normal core, is_frobenius,
    is_2transitive, the least element of each coset, and, with the
    cosets in that order, coset_index, row and the cycles, and
    fixed_count, on sampled elements of G.  Also returns how many pairs
    have a general H (no point stabilized) and how many a nontrivial
    core."""
    digest = hashlib.sha256()
    general = cores = 0
    for name, g, h in pairs:
        act = coset_action(g, h)
        rep = check_condition_2B(g, h, act)
        core = normal_core(g, h)
        general += act.point is None
        cores += core.order > 1
        els = sorted(g.elements)
        sample = els[:: max(1, len(els) // 7)]
        generated = generated_by_T(h, rep.T)
        answers = (
            name, rep.holds, sorted(rep.T), sorted(generated.elements),
            generated.generators, sorted(compute_T_conjugacy(g, h, act)),
            sorted(core.elements), is_frobenius(g, act), is_2transitive(g, act),
            least_representatives(act),
            [(coset_index(act, x), least_row(act, x), least_cycles(act, x),
              groupcorpus.fixed_count(act, x)) for x in sample],
        )
        digest.update(repr(answers).encode())
    return digest.hexdigest(), general, cores


def test_group_side_answers_keep_their_digest():
    """The digest of every group-side answer on the degree-8 corpus and
    600 seeded random pairs, as the enumerated-coset implementation
    gave it; 178 of the pairs have a general H and 135 a nontrivial
    core."""
    assert _group_side_digest(_digest_pairs()) == (
        "a4565ee237de4ad6e1234a2446cd725741629b65415c7bf2ead437f129a9900b", 178, 135,
    )


def test_coset_action_rejects_non_members_on_both_paths():
    a4 = family_group("A4")
    odd = from_cycles(4, [[0, 1]])
    for h in (point_stabilizer(a4, 3), groupcorpus.klein_four()):
        act = coset_action(a4, h)
        with pytest.raises(KeyError):
            act.row(odd)
        with pytest.raises(KeyError):
            coset_index(act, odd)


def test_condition_2b_matches_closure_reference():
    pairs = groupcorpus.corpus_with_degree8() + _relabelled_stabilizer_pairs()
    for name, g, h in pairs:
        rep = check_condition_2B(g, h)
        generated = generated_by_T(h, rep.T)
        ref = _closure_reference(g, h)
        assert generated.elements == ref.elements, name
        assert rep.holds == (bool(rep.T) and ref.elements == h.elements), name
        regenerated = generated_subgroup(g.degree, generated.generators)
        assert regenerated.elements == generated.elements, name


# --- frobenius / 2-transitivity ---------------------------------------------

def _natural_action(g):
    return coset_action(g, point_stabilizer(g, g.degree - 1))


def test_is_frobenius_examples():
    s3 = family_group("S3")
    assert is_frobenius(s3, _natural_action(s3))
    a4 = family_group("A4")
    assert is_frobenius(a4, _natural_action(a4))
    d4 = family_group("D4")
    assert not is_frobenius(d4, _natural_action(d4))
    c4 = family_group("C4")
    assert not is_frobenius(c4, _natural_action(c4))
    f20 = family_group("F20")
    assert is_frobenius(f20, _natural_action(f20))


def test_frobenius_oracle_fixed_point_counts():
    """Directly re-count fixed points on the natural action."""
    for tok in ("S3", "A4", "D4", "C4", "C6", "D5", "F20"):
        g = family_group(tok)
        act = _natural_action(g)
        counts = [
            sum(1 for i in range(act.num_cosets) if act.row(x)[i] == i)
            for x in g.elements
            if x != g.identity
        ]
        expected = all(c <= 1 for c in counts) and any(c == 1 for c in counts)
        assert is_frobenius(g, act) == expected, tok


def test_is_2transitive_examples():
    for n in range(2, 7):
        g = family_group(f"S{n}")
        h = point_stabilizer(g, n - 1)
        assert is_2transitive(g, coset_action(g, h))
    a4 = family_group("A4")
    assert is_2transitive(a4, _natural_action(a4))
    c4 = family_group("C4")
    assert not is_2transitive(c4, _natural_action(c4))


def test_2transitive_pair_orbit_oracle():
    for tok in ("S4", "A4", "C5", "D5", "F20"):
        g = family_group(tok)
        act = _natural_action(g)
        n = act.num_cosets
        orbit = set()
        for x in g.elements:
            row = act.row(x)
            orbit.add((row[0], row[1]))
        assert is_2transitive(g, act) == (len(orbit) == n * (n - 1)), tok


# --- lemma-level invariants (smaller-scale versions; the acceptance
# suite runs them exhaustively) ----------------------------------------------

def test_t_t0_lemma_small():
    """T is the preimage of T_rho, where rho is the action of G on G/H
    and rho(H) the stabilizer of coset 0 in rho(G): so |T| = |T_rho| times
    the order of the core (the kernel of rho), and the criterion holds
    for (G, H) iff it holds for (rho(G), rho(G)_0).  On the small corpus
    pairs and on seeded random pairs of degree <= 7."""
    pairs = [p for p in groupcorpus.corpus() if p[1].order <= 60]
    pairs += [p for p in groupcorpus.random_pairs(1616, 200) if p[1].order <= 720]
    for name, g, h in pairs:
        act = coset_action(g, h)
        image, hom = action_image(act)
        h0 = generated_subgroup(image.degree, {hom[x] for x in h.elements})
        if h0.order == image.order:
            continue  # degenerate: core equals H (T is then everything trivially)
        T = compute_T(g, h, act)
        act0 = coset_action(image, h0)
        T0 = compute_T(image, h0, act0)
        for x in h.elements:
            assert (x in T) == (hom[x] in T0), (name, x)
        assert len(T) == len(T0) * normal_core(g, h).order, name
        holds = check_condition_2B(g, h, act).holds
        assert holds == check_condition_2B(image, h0, act0).holds, name


def test_core_absorption_small():
    for name, g, h in groupcorpus.corpus():
        if g.order > 60:
            continue
        T = compute_T(g, h)
        if not T:
            continue
        core = normal_core(g, h)
        span = generated_subgroup(g.degree, T)
        assert core.elements <= span.elements, name


def test_2transitivity_implies_T_nonempty():
    for name, g, h in groupcorpus.corpus():
        act = coset_action(g, h)
        if act.num_cosets < 3:
            continue
        if is_2transitive(g, act):
            assert compute_T(g, h, act), name


def test_frobenius_T_shape():
    for tok in ("S3", "A4", "F20"):
        g = family_group(tok)
        h = point_stabilizer(g, g.degree - 1)
        act = coset_action(g, h)
        assert is_frobenius(g, act)
        T = compute_T(g, h, act)
        assert T == {x for x in h.elements if x != h.identity}, tok
        assert check_condition_2B(g, h, act).holds, tok


def test_frobenius_T_shape_across_corpus():
    for name, g, h in groupcorpus.corpus():
        act = coset_action(g, h)
        if not is_frobenius(g, act):
            continue
        T = compute_T(g, h, act)
        assert T == {x for x in h.elements if x != h.identity}, name
        if h.order >= 2:
            assert check_condition_2B(g, h, act).holds, name


# --- families and parsing ---------------------------------------------------

def test_family_orders():
    assert family_group("S6").order == 720
    assert family_group("A6").order == 360
    assert family_group("D7").order == 14
    assert family_group("C9").order == 9
    assert family_group("F20").order == 20


@pytest.mark.parametrize("tok", ["S4", "A5", "D6", "C7", "F20"])
def test_family_group_closure_stops_at_the_ceiling(tok):
    """A family token's closure is bounded like a group file's."""
    order = family_group(tok).order
    assert family_group(tok, ceiling=order) == family_group(tok)
    with pytest.raises(GroupTooLargeError):
        family_group(tok, ceiling=order - 1)


def test_family_token_errors():
    with pytest.raises(ValueError):
        family_group("X5")
    with pytest.raises(ValueError):
        family_group("F21")


def test_parse_group_file():
    text = "degree=4\n(1 2 3 4)\n(2 4)\n"
    g = parse_group_file(text)
    assert g.order == 8
    assert g == family_group("D4")
    with pytest.raises(ValueError):
        parse_group_file("(1 2)\n")
    with pytest.raises(ValueError):
        parse_group_file("degree=x\n")


def test_family_group_degree_cap():
    """A family token's degree is capped like a group file's, before any
    permutation is built."""
    cap = permgroup.MAX_GROUP_DEGREE
    assert family_group(f"C{cap}").order == cap
    for tok in (f"C{cap + 1}", "C300000", "S1000000000"):
        start = time.perf_counter()
        with pytest.raises(GroupTooLargeError, match="degree cap"):
            family_group(tok, ceiling=10**9)
        assert time.perf_counter() - start < 1.0
    with pytest.raises(GroupTooLargeError, match="exceeds closure ceiling 4"):
        family_group("C5", ceiling=4)


def test_family_tokens_match_raw_tokens_and_check_a_range_top():
    """A token is matched as given, so one with surrounding spaces names
    no family; a range's largest degree is checked before any token is
    listed, as family_group checks n."""
    for tok in ("S5", "A3", "D12", "C1000", "F20"):
        assert permgroup.family_tokens(tok) == [tok]
    for tok in (" S5", "S5 ", " F20", "F20 ", "F21", "X5", "S", "5", "c5.grp"):
        assert permgroup.family_tokens(tok) == []
    assert permgroup.family_tokens("D", range(3, 6)) == ["D3", "D4", "D5"]
    cap = permgroup.MAX_GROUP_DEGREE
    with pytest.raises(GroupTooLargeError, match="degree cap"):
        permgroup.family_tokens("C", range(3, cap + 2), ceiling=10**9)
    with pytest.raises(GroupTooLargeError, match="exceeds closure ceiling 4"):
        permgroup.family_tokens("C", range(3, 6), ceiling=4)


def test_parse_group_file_degree_cap():
    cap = permgroup.MAX_GROUP_DEGREE
    assert cap * 1000 <= permgroup.DEFAULT_CLOSURE_CEILING
    assert parse_group_file(f"degree={cap}\n").degree == cap
    with pytest.raises(GroupTooLargeError, match="degree cap"):
        parse_group_file(f"degree={cap + 1}\n", ceiling=10**9)


@given(st.integers(1, 12).flatmap(lambda d: st.tuples(groupcorpus.perm_lines(d), st.just(d))))
@settings(max_examples=200, deadline=None)
def test_parse_perm_fuzz_gives_a_perm_or_value_error(case):
    text, degree = case
    try:
        p = parse_perm(text, degree)
    except ValueError:
        return
    assert type(p) is tuple and len(p) == degree


@given(groupcorpus.group_files)
@settings(max_examples=200, deadline=None)
def test_parse_group_file_fuzz_gives_a_group_or_a_documented_error(text):
    try:
        g = parse_group_file(text, ceiling=groupcorpus.FUZZ_CEILING)
    except (ValueError, GroupTooLargeError):
        return
    assert isinstance(g, PermGroup) and g.order <= groupcorpus.FUZZ_CEILING


def test_c7_c3_fixture():
    g = groupcorpus.c7_c3()
    assert g.order == 21
    assert len(g.orbit(0)) == g.degree
