"""Abelianized conjugate products and splitting statistics."""

import random
from fractions import Fraction

import pytest

import groupcorpus
from polyakit import (
    SplittingType,
    abelianization,
    chebotarev_densities,
    compose,
    coset_action,
    cycle_structure,
    family_group,
    inverse,
    parse_perm,
    point_stabilizer,
    splitting_from_frobenius,
)

from groupcorpus import least_representatives, pi_class, project, total_class


def test_splitting_type_labels():
    t = SplittingType.from_cycle_lengths([2, 1])
    assert t.label == "1+2" == str(t)
    assert t.parts == ((1, 1), (2, 1))
    ram = SplittingType(((1, 3),))
    assert ram.label == "1^3"


def test_abelianization_orders():
    s3h = point_stabilizer(family_group("S3"), 2)
    assert abelianization(s3h).group.order == 2
    a4 = family_group("A4")
    assert abelianization(a4).group.order == 3
    a5 = family_group("A5")
    ab5 = abelianization(a5)
    assert ab5.group.order == 1
    assert ab5.group.is_trivial()


def test_abelianization_is_homomorphism_with_kernel_hprime():
    from polyakit import derived_subgroup

    for name, g, h in groupcorpus.corpus():
        if h.order > 60:
            continue
        ab = abelianization(h)
        hp = derived_subgroup(h)
        assert ab.group.order == h.order // hp.order, name
        els = sorted(h.elements)
        for a in els[:8]:
            for b in els[:8]:
                lhs = project(ab, compose(a, b))
                rhs = ab.group.add(project(ab, a), project(ab, b))
                assert lhs == rhs, name
        for x in els:
            is_identity_class = project(ab, x) == ab.group.identity()
            assert is_identity_class == (x in hp.elements), name


def test_splitting_from_frobenius_s3():
    g = family_group("S3")
    h = point_stabilizer(g, 2)
    act = coset_action(g, h)
    assert splitting_from_frobenius(g.identity, act).label == "1+1+1"
    assert splitting_from_frobenius(parse_perm("(1 2)", 3), act).label == "1+2"
    assert splitting_from_frobenius(parse_perm("(1 2 3)", 3), act).label == "3"


def test_splitting_degree_bookkeeping_and_conjugation_invariance():
    for name, g, h in groupcorpus.corpus():
        if g.order > 120:
            continue
        act = coset_action(g, h)
        els = sorted(g.elements)
        for x in els[:12]:
            t = splitting_from_frobenius(x, act)
            assert sum(e * f for f, e in t.parts) == act.num_cosets, name
        rng = random.Random(5)
        for _ in range(10):
            x = rng.choice(els)
            s = rng.choice(els)
            t1 = splitting_from_frobenius(x, act)
            t2 = splitting_from_frobenius(compose(s, x, inverse(s)), act)
            assert t1 == t2, name


def test_pi_class_worked_examples():
    g = family_group("S3")
    h = point_stabilizer(g, 2)
    act = coset_action(g, h)
    ab = abelianization(h)
    tr = parse_perm("(1 2)", 3)
    # no cycle of length f: identity class
    assert pi_class(tr, 3, act, ab) == ab.group.identity()
    # the fixed coset contributes the transposition itself mod H'
    assert pi_class(tr, 1, act, ab) == project(ab, tr)
    assert pi_class(tr, 1, act, ab) == (1,)
    # identity element: product of conjugates of the identity
    assert pi_class(g.identity, 1, act, ab) == ab.group.identity()
    # single 3-cycle: s g^3 s^-1 = 1
    rot = parse_perm("(1 2 3)", 3)
    assert total_class(rot, act, ab) == ab.group.identity()


def test_total_class_is_sum_of_pi_classes():
    for name, g, h in groupcorpus.corpus():
        if g.order > 60 or h.order == 1:
            continue
        act = coset_action(g, h)
        ab = abelianization(h)
        for x in sorted(g.elements)[:15]:
            fs = set(cycle_structure(x, act))
            acc = ab.group.identity()
            for f in fs:
                acc = ab.group.add(acc, pi_class(x, f, act, ab))
            assert total_class(x, act, ab) == acc, name


def test_pi_class_representative_independence_seeded():
    rng = random.Random(20240809)
    pairs = [
        (name, g, h)
        for name, g, h in groupcorpus.corpus()
        if g.degree <= 7 and h.order > 1
    ]
    prepared = []
    for name, g, h in pairs:
        act = coset_action(g, h)
        ab = abelianization(h)
        prepared.append((name, g, h, act, ab, sorted(g.elements), sorted(h.elements)))
    for _ in range(400):
        name, g, h, act, ab, gels, hels = prepared[rng.randrange(len(prepared))]
        x = gels[rng.randrange(len(gels))]
        reps = [
            compose(hels[rng.randrange(len(hels))], s) for s in least_representatives(act)
        ]
        fs = set(cycle_structure(x, act))
        f = rng.choice(sorted(fs))
        assert pi_class(x, f, act, ab) == pi_class(x, f, act, ab, reps=reps), name
        assert total_class(x, act, ab) == total_class(x, act, ab, reps=reps), name


def test_pi_class_rejects_wrong_coset_reps():
    g = family_group("S3")
    h = point_stabilizer(g, 2)
    act = coset_action(g, h)
    ab = abelianization(h)
    bad = list(least_representatives(act))
    bad[0], bad[1] = bad[1], bad[0]
    with pytest.raises(ValueError):
        pi_class(parse_perm("(1 2)", 3), 1, act, ab, reps=bad)


def _reps_pairs():
    """A point-stabilizer pair (orbit-case coset action) and A4/V4 (an
    enumerated coset action)."""
    pairs = {name: (g, h) for name, g, h in groupcorpus.corpus()}
    return [("S4/stab", *pairs["S4/stab"]), ("A4/V4", *pairs["A4/V4"])]


@pytest.mark.parametrize("name,g,h", _reps_pairs())
def test_caller_representatives_are_checked(name, g, h):
    act = coset_action(g, h)
    ab = abelianization(h)
    reps = list(least_representatives(act))
    x = sorted(g.elements)[-1]
    hx = next(y for y in sorted(h.elements) if y != h.identity)
    # a representative of the right coset, not the stored one, is accepted
    other = [compose(hx, reps[0]), *reps[1:]]
    assert pi_class(x, 1, act, ab, reps=other) == pi_class(x, 1, act, ab)
    for wrong_length in (reps[:-1], reps + reps[:1]):
        with pytest.raises(ValueError, match="one representative per coset"):
            pi_class(x, 1, act, ab, reps=wrong_length)
        with pytest.raises(ValueError, match="one representative per coset"):
            total_class(x, act, ab, reps=wrong_length)
    swapped = [reps[1], reps[0], *reps[2:]]
    with pytest.raises(ValueError, match="wrong coset"):
        pi_class(x, 1, act, ab, reps=swapped)
    with pytest.raises(ValueError, match="wrong coset"):
        total_class(x, act, ab, reps=swapped)


def test_classes_are_coordinate_tuples_of_the_quotient():
    for name, g, h in groupcorpus.corpus():
        if g.order > 60:
            continue
        act = coset_action(g, h)
        ab = abelianization(h)
        rank = ab.group.rank
        for x in sorted(g.elements)[:10]:
            fs = sorted(set(cycle_structure(x, act)))
            classes = [pi_class(x, f, act, ab) for f in fs] + [total_class(x, act, ab)]
            for c in classes:
                assert type(c) is tuple and len(c) == rank, name
                assert ab.group.reduce(c) == c, name
            if x in h.elements:
                c = project(ab, x)
                assert type(c) is tuple and len(c) == rank, name
                assert ab.group.add(c, ab.group.neg(c)) == ab.group.identity(), name


def test_element_outside_the_group_is_rejected():
    g = family_group("A4")
    act = coset_action(g, groupcorpus.klein_four())
    ab = abelianization(groupcorpus.klein_four())
    odd = parse_perm("(1 2)", 4)
    for call in (
        lambda: splitting_from_frobenius(odd, act),
        lambda: pi_class(odd, 1, act, ab),
        lambda: total_class(odd, act, ab),
    ):
        with pytest.raises(ValueError, match="not in the acting group"):
            call()
    with pytest.raises(ValueError, match="not in the subgroup"):
        project(ab, parse_perm("(1 2 3)", 4))


def test_T_detection():
    from polyakit import compute_T

    for name, g, h in groupcorpus.corpus():
        if g.order > 60 or h.order == 1:
            continue
        act = coset_action(g, h)
        ab = abelianization(h)
        for x in compute_T(g, h, act):
            assert pi_class(x, 1, act, ab) == project(ab, x), name


def test_chebotarev_densities_s3():
    g = family_group("S3")
    act = coset_action(g, point_stabilizer(g, 2))
    dens = {t.label: d for t, d in chebotarev_densities(g, act).items()}
    assert dens == {
        "1+1+1": Fraction(1, 6),
        "1+2": Fraction(1, 2),
        "3": Fraction(1, 3),
    }


def test_chebotarev_densities_c3():
    g = family_group("C3")
    act = coset_action(g, point_stabilizer(g, 2))
    dens = {t.label: d for t, d in chebotarev_densities(g, act).items()}
    assert dens == {"1+1+1": Fraction(1, 3), "3": Fraction(2, 3)}


def test_chebotarev_densities_trivial_group():
    g = family_group("C1")
    act = coset_action(g, g)
    dens = chebotarev_densities(g, act)
    assert list(dens.values()) == [Fraction(1)]
    assert list(dens.keys())[0].label == "1"


def test_densities_sum_to_one():
    for name, g, h in groupcorpus.corpus():
        if g.order > 120:
            continue
        act = coset_action(g, h)
        dens = chebotarev_densities(g, act)
        assert sum(dens.values()) == 1, name

