"""Invariant-factor groups and their subgroup lattices, against brute
force enumeration on small ambients."""

import os
import subprocess
import sys
from itertools import product
from math import prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import polyakit
from polyakit.abelian import AbelianGroupSNF, Subgroup
from polyakit.intlinalg import hnf_rows

from fieldref import lattice_contains


def brute_force_span(group, vectors):
    """All elements generated by the vectors, by closure under addition."""
    elems = {group.identity()}
    frontier = [group.identity()]
    while frontier:
        nxt = []
        for e in frontier:
            for v in vectors:
                w = group.add(e, v)
                if w not in elems:
                    elems.add(w)
                    nxt.append(w)
        frontier = nxt
    return elems


def test_validation():
    with pytest.raises(ValueError):
        AbelianGroupSNF((1,))
    with pytest.raises(ValueError):
        AbelianGroupSNF((4, 6))  # 4 does not divide 6
    g = AbelianGroupSNF((2, 4))
    assert g.order == 8
    assert g.rank == 2


def test_element_arithmetic():
    g = AbelianGroupSNF((3, 6))
    assert g.reduce((4, 7)) == (1, 1)
    assert g.add((2, 5), (2, 2)) == (1, 1)
    assert g.neg((1, 2)) == (2, 4)
    assert g.identity() == (0, 0)


def test_trivial_group():
    g = AbelianGroupSNF(())
    assert g.order == 1 and g.is_trivial()
    s = g.subgroup([])
    assert s.is_full() and s.order == 1
    assert s.structure() == ()


ambients = st.sampled_from([(2,), (3,), (4,), (2, 2), (2, 4), (3, 3), (2, 6)])


@given(ambients, st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=3))
@settings(max_examples=120, deadline=None)
def test_subgroup_order_matches_brute_force(factors, raw_vectors):
    g = AbelianGroupSNF(factors)
    vectors = [g.reduce(v[: g.rank] + (0,) * g.rank) for v in raw_vectors]
    sub = g.subgroup(vectors)
    elems = brute_force_span(g, vectors)
    assert sub.order == len(elems)
    for e in elems:
        assert lattice_contains(sub.basis, e)
    # invariant factors multiply to the order
    prod = 1
    for d in sub.structure():
        prod *= d
    assert prod == sub.order


def test_subgroup_canonical_equality():
    g = AbelianGroupSNF((2, 4))
    a = g.subgroup([(1, 0), (0, 2)])
    b = g.subgroup([(1, 2), (1, 0)])
    assert a == b

    def inside(sub, sup):
        return all(lattice_contains(sup.basis, row) for row in sub.basis)

    assert inside(a, b) and inside(b, a)
    c = g.subgroup([(0, 2)])
    assert inside(c, a)
    assert not inside(a, c)


def test_subgroup_structure_examples():
    g = AbelianGroupSNF((2, 4))
    assert g.subgroup([(1, 0), (0, 1)]).structure() == (2, 4)
    assert g.subgroup([(0, 2)]).structure() == (2,)
    assert g.subgroup([(1, 1)]).structure() == (4,)
    assert g.subgroup([]).structure() == ()


@st.composite
def relation_lattices(draw, full_rank=True):
    """(k, rows): k <= 5 and relation rows with small entries spanning a
    lattice of rank k (of rank < k when not `full_rank`), with extra
    rows that are integer combinations of the others, in any order."""
    k = draw(st.integers(1, 5))
    vectors = st.lists(st.integers(-4, 4), min_size=k, max_size=k)
    base = draw(st.lists(vectors, min_size=k, max_size=k) if full_rank else
                st.lists(vectors, max_size=k - 1))
    if full_rank:
        assume(len(hnf_rows(base, k)) == k)
    extra = []
    for coeffs in draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(base),
                                         max_size=len(base)), max_size=3)):
        extra.append([sum(c * r[j] for c, r in zip(coeffs, base)) for j in range(k)])
    return k, draw(st.permutations(base + extra))


vectors5 = st.lists(st.integers(-20, 20), min_size=5, max_size=5)


@given(relation_lattices(), vectors5, vectors5)
@settings(max_examples=150, deadline=None)
def test_presented_quotient(lattice, a, b):
    k, rows = lattice
    a, b = a[:k], b[:k]
    g = AbelianGroupSNF.presented(rows, k)
    h = hnf_rows(rows, k)
    assert g.order == prod(h[i][i] for i in range(k))
    for row in rows:
        assert g.project(row) == g.identity()
    assert g.project([x + y for x, y in zip(a, b)]) == g.add(g.project(a), g.project(b))
    units = [g.project([int(i == j) for j in range(k)]) for i in range(k)]
    assert g.subgroup(units).is_full()
    # the kernel of the projection is exactly the relation lattice
    assert (g.project(a) == g.identity()) == lattice_contains(h, a)


@given(relation_lattices(full_rank=False))
@settings(max_examples=60, deadline=None)
def test_presented_rejects_rank_deficient(lattice):
    k, rows = lattice
    with pytest.raises(ValueError):
        AbelianGroupSNF.presented(rows, k)


# Ten rows of rank 5 in Z^6 (two equal rows, one zero row), on which the
# Smith form's entries pass 10^4000 within five pivots.
DEFICIENT_10x6 = [
    [3, 0, 0, 0, -7, 0], [-10, -16, 0, -26, 0, 0], [-26, -27, 0, -13, 0, 0],
    [-27, -4, 0, 3, -6, 0], [0] * 6, [0, 0, 0, 0, 0, -30], [11, 0, 0, 0, -14, 0],
    [16, 0, 0, 24, 24, -27], [0, 0, 0, -14, 0, -3], [0, 0, 0, -14, 0, -3],
]


def test_presented_refuses_deficient_rank_before_the_smith_form():
    """The rank is read off the rows' Hermite form, so the matrix that
    runs the Smith form past 10^4000 raises ValueError in well under a
    second.  It runs in a child process, so a regression fails at the
    timeout instead of hanging the suite."""
    code = (
        "import time\n"
        "from polyakit.abelian import AbelianGroupSNF\n"
        "start = time.perf_counter()\n"
        "try:\n"
        f"    AbelianGroupSNF.presented({DEFICIENT_10x6!r}, 6)\n"
        "except ValueError:\n"
        "    print(time.perf_counter() - start)\n"
    )
    src = str(Path(polyakit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 1.0


def test_presented_equality_ignores_projection():
    g = AbelianGroupSNF.presented([[2, 0], [0, 3]], 2)
    assert g == AbelianGroupSNF((6,))
    assert g.subgroup([g.project((1, 1))]).is_full()
