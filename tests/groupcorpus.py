"""The (G, H) test corpus shared across the group-side tests.

Each entry is (name, G, H) with H a proper subgroup of G.  The corpus
mixes the point-stabilizer pairs of the named families with assorted
non-stabilizer subgroups, so the lemma-level invariants get exercised
on cores, quotients, and abelianizations of different shapes.
`action_image` gives the image of a coset action, and `fixed_count`
the number of cosets an element fixes, which only the tests need.
`bfs_closure` is the breadth-first closure the stabilizer chains
replaced, and `derived_by_rounds`, `frobenius_by_elements` and
`T_by_listing` are the derived subgroup, the Frobenius test and T that
reading them off chains, orbits and a walk of H's chain replaced, each
kept as their oracle.

The group-side code that no subcommand runs lives here too, as the
oracles of the acceptance criteria: `compute_T_conjugacy`, the
conjugacy characterization of T; `normal_core` and
`subgroup_from_elements`; `project`, the class of an element of H in
H/H'; and `pi_class` and `total_class`, the classes in H/H' of products
of conjugates over the cycles of an element on the cosets.  They number
the cosets by their least elements, found by listing G
(`least_representatives`), and read the coset action in that order:
`least_row` is `row`, `coset_index` the index of a coset and
`least_cycles` the cycles of an element with the least element of the
coset each starts at.  `generated_by_T` closes <T, H'> as a group,
which the generation test decides without building.  `power` and
`cycle_string` complete the permutation operations.
"""

from __future__ import annotations

import random
from functools import lru_cache
from pathlib import Path

from hypothesis import strategies as st

from polyakit import (
    PermGroup,
    cycles,
    family_group,
    group_closure,
    parse_group_file,
    point_stabilizer,
)
from polyakit.permgroup import (
    Abelianization,
    CosetAction,
    compose,
    derived_subgroup,
    from_cycles,
    generated_subgroup,
    identity,
    inverse,
)

FIXTURES = Path(__file__).parent / "fixtures"


def power(p: tuple[int, ...], k: int) -> tuple[int, ...]:
    if k < 0:
        p, k = inverse(p), -k
    result = identity(len(p))
    while k:
        if k & 1:
            result = compose(result, p)
        p = compose(p, p)
        k >>= 1
    return result


def cycle_string(p: tuple[int, ...]) -> str:
    """1-indexed cycle notation, '()' for the identity."""
    cycs = cycles(p)
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(i + 1) for i in c) + ")" for c in cycs)


def subgroup_from_elements(degree: int, elements) -> PermGroup:
    """Wrap a set already closed under the group operations, finding a
    small generating set greedily (lexicographic element order)."""
    els = frozenset(elements)
    group = generated_subgroup(degree, els, len(els))
    assert group.elements == els, "element set was not closed"
    return group


def normal_core(group: PermGroup, subgroup: PermGroup) -> PermGroup:
    """Largest normal subgroup of G inside H, i.e. the intersection of
    all conjugates of H.  An element of H belongs iff every conjugate
    s*h*s^-1 stays in H, and that test only depends on the coset H*s."""
    if not subgroup.is_subgroup_of(group):
        raise ValueError("H is not a subgroup of G")
    reps = least_representatives(CosetAction(group, subgroup))
    core = []
    for h in subgroup.elements:
        if all(compose(s, h, inverse(s)) in subgroup.elements for s in reps):
            core.append(h)
    return subgroup_from_elements(group.degree, core)


def compute_T_conjugacy(
    group: PermGroup, subgroup: PermGroup, action: CosetAction
) -> frozenset[tuple[int, ...]]:
    """T, the elements of H whose only fixed coset is H, via: h is
    excluded iff s*h*s^-1 lies in H for some s outside H.  Whether
    s*h*s^-1 is in H depends only on the coset H*s, so only the
    non-identity coset representatives need checking."""
    out = []
    for h in subgroup.elements:
        excluded = False
        for s in least_representatives(action)[1:]:
            if compose(s, h, inverse(s)) in subgroup.elements:
                excluded = True
                break
        if not excluded:
            out.append(h)
    return frozenset(out)


@lru_cache(maxsize=64)
def least_representatives(action: CosetAction) -> tuple[tuple[int, ...], ...]:
    """The least element of each coset H*s, in increasing order: G is
    listed in order, and each element that no coset opened so far holds
    opens one.  The first is the identity, of the coset H itself."""
    placed, reps = set(), []
    hels = action.subgroup.elements
    for s in sorted(action.group.elements):
        if s not in placed:
            reps.append(s)
            placed.update(compose(h, s) for h in hels)
    return tuple(reps)


@lru_cache(maxsize=64)
def _least_index(action: CosetAction) -> tuple[int, ...]:
    """For each coset index of `action`, the position of the coset's
    least element in `least_representatives`: H*s is the coset whose
    label `home` moves to under s."""
    index = {q: j for j, q in enumerate(action.orbit)}
    where = [0] * action.num_cosets
    for i, s in enumerate(least_representatives(action)):
        where[index[action._move(action.home, s)]] = i
    return tuple(where)


def least_row(action: CosetAction, g: tuple[int, ...]) -> tuple[int, ...]:
    """`action.row(g)` with coset i the one whose least element is
    `least_representatives(action)[i]`.  An element outside G raises
    KeyError, as `row` does."""
    where = _least_index(action)
    out = [0] * len(where)
    for j, k in enumerate(action.row(g)):
        out[where[j]] = where[k]
    return tuple(out)


def coset_index(action: CosetAction, g: tuple[int, ...]) -> int:
    """Index of the coset H*g in least-representative order: the image of
    coset 0, H itself, under g.  An element outside G raises KeyError."""
    return least_row(action, g)[0]


def least_cycles(action: CosetAction, g: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """The cycles of g, an element of G, on the cosets as (length,
    representative) pairs: each listed at its least index in
    least-representative order, with the least element of that coset."""
    if g not in action.group:
        raise ValueError("element not in the acting group")
    reps = least_representatives(action)
    return [(len(c), reps[c[0]]) for c in cycles(least_row(action, g), include_fixed=True)]


def generated_by_T(subgroup: PermGroup, T) -> PermGroup:
    """<T, H'> for H = `subgroup`: H itself when that is what they
    generate, and otherwise the closure of the generators of H' and the
    least element of T in each H'-coset T meets, in increasing order.
    Two elements share an H'-coset when one times the inverse of the
    other lies in H'."""
    hprime = derived_subgroup(subgroup)
    least: list[tuple[int, ...]] = []
    for t in sorted(T):
        if all(compose(t, inverse(k)) not in hprime for k in least):
            least.append(t)
    closure = group_closure(subgroup.degree, hprime.generators + tuple(least))
    return subgroup if closure.order == subgroup.order else closure


@lru_cache(maxsize=64)
def _coset_words(ab: Abelianization) -> dict:
    """For each H'-coset label, an element of the coset and the exponent
    vector, over the generators `ab.group` is presented on, of a word
    in them that lands there, found breadth first from H'."""
    gens = ab._gens
    ident = ab.hprime.identity
    home = ab.label(ident)
    words = {home: (ident, (0,) * len(gens))}
    queue = [home]
    for q in queue:  # runs on over the labels appended
        x, vx = words[q]
        for i, g in enumerate(gens):
            y = compose(x, g)
            r = ab.label(y)
            if r not in words:
                words[r] = (y, tuple(v + (j == i) for j, v in enumerate(vx)))
                queue.append(r)
    return words


def project(ab: Abelianization, p: tuple[int, ...]) -> tuple[int, ...]:
    """Class of p in H/H', a coordinate tuple of `ab.group`.  p lies in
    H iff it has H's degree and p = h'x for the element x recorded for
    its H'-coset and some h' in H'; any other p raises ValueError."""
    ident = ab.hprime.identity
    word = _coset_words(ab).get(ab.label(p)) if len(p) == len(ident) else None
    if word is None or compose(p, inverse(word[0])) not in ab.hprime:
        raise ValueError("element not in the subgroup being abelianized")
    return ab.group.project(word[1])


def _cycles_with_reps(g, action: CosetAction, reps):
    """`least_cycles(action, g)`, each least element replaced by the
    caller's representative of the same coset when `reps` is given (one
    per coset, in least-representative order)."""
    cycs = least_cycles(action, g)
    if reps is None:
        return cycs
    if len(reps) != action.num_cosets:
        raise ValueError("need one representative per coset")
    for i, s in enumerate(reps):
        if coset_index(action, s) != i:
            raise ValueError(f"representative {i} lies in the wrong coset")
    return [(length, reps[coset_index(action, s)]) for length, s in cycs]


def pi_class(g, f: int, action: CosetAction, ab: Abelianization, reps=None) -> tuple[int, ...]:
    """Class in H/H' of the product of s_i g^f s_i^{-1} over the cycles
    of g with length exactly f, as a coordinate tuple of `ab.group`.

    An empty product (no cycle of length f) gives the identity class,
    matching the convention that a product over no maximal ideals is the
    whole ring.  Optionally uses caller-supplied coset representatives;
    the result provably does not depend on that choice.
    """
    cycs = _cycles_with_reps(g, action, reps)
    gf = power(g, f)
    acc = ab.group.identity()
    for length, s in cycs:
        if length == f:
            acc = ab.group.add(acc, project(ab, compose(s, gf, inverse(s))))
    return acc


def total_class(g, action: CosetAction, ab: Abelianization, reps=None) -> tuple[int, ...]:
    """Class of the product of s_i g^{f_i} s_i^{-1} over all cycles (the
    transfer of g into H/H'), as a coordinate tuple of `ab.group`."""
    acc = ab.group.identity()
    for length, s in _cycles_with_reps(g, action, reps):
        acc = ab.group.add(acc, project(ab, compose(s, power(g, length), inverse(s))))
    return acc


def c7_c3() -> PermGroup:
    return parse_group_file((FIXTURES / "c7_c3.grp").read_text())


def klein_four() -> PermGroup:
    return group_closure(
        4,
        [from_cycles(4, [[0, 1], [2, 3]]), from_cycles(4, [[0, 2], [1, 3]])],
    )


def _subgroup_of(group: PermGroup, *cycle_sets) -> PermGroup:
    gens = [from_cycles(group.degree, cycles) for cycles in cycle_sets]
    sub = generated_subgroup(group.degree, gens)
    assert sub.is_subgroup_of(group)
    return sub


def action_image(action: CosetAction) -> tuple[PermGroup, dict[tuple, tuple]]:
    """The permutation group induced on coset indices, with the map
    g -> induced permutation, `action.row(g)`.  Its kernel is the normal
    core of H."""
    hom = {g: action.row(g) for g in action.group.elements}
    image = subgroup_from_elements(action.num_cosets, set(hom.values()))
    return image, hom


def fixed_count(action: CosetAction, g: tuple[int, ...]) -> int:
    """How many cosets g, an element of G, fixes: how many labels of
    the action it moves to themselves."""
    move = action._move
    return sum(move(q, g) == q for q in action.orbit)


def T_by_listing(action: CosetAction) -> frozenset[tuple[int, ...]]:
    """The elements of H that fix one coset, H itself, found by listing
    H and counting the cosets each element fixes."""
    return frozenset(h for h in action.subgroup.elements if fixed_count(action, h) == 1)


def bfs_closure(degree: int, perms) -> tuple[list[tuple[int, ...]], set[tuple[int, ...]]]:
    """The generators kept, each of `perms` not in the closure of those
    before it, and that closure as a set of image tuples.  Each kept
    generator's products with the elements so far, and those of the
    elements they add with every kept generator, are formed breadth
    first until nothing new appears."""
    gens: list[tuple[int, ...]] = []
    els = {tuple(range(degree))}
    for x in perms:
        if tuple(x) in els:
            continue
        gens.append(tuple(x))
        frontier, steps = list(els), gens[-1:]
        while frontier:
            new = []
            for b in frontier:
                for a in steps:
                    c = tuple(b[i] for i in a)  # a, then b
                    if c not in els:
                        els.add(c)
                        new.append(c)
            frontier, steps = new, gens
    return gens, els


def derived_by_rounds(group: PermGroup) -> PermGroup:
    """The normal closure of the commutators of the generators, closed
    again from its generators and the new conjugates on every round."""
    gens = group.generators
    comms = {compose(a, b, inverse(a), inverse(b)) for a in gens for b in gens}
    comms.discard(identity(group.degree))
    sub = generated_subgroup(group.degree, comms)
    while True:
        extra = []
        for g in gens:
            ginv = inverse(g)
            for x in sub.generators:
                y = compose(ginv, x, g)
                if y not in sub:
                    extra.append(y)
        if not extra:
            return sub
        # the kept generators, then each new conjugate, in sorted order,
        # that the ones before it do not generate
        kept = list(sub.generators)
        for y in sorted(set(extra)):
            if y not in sub:
                kept.append(y)
                sub = group_closure(group.degree, kept)


def frobenius_by_elements(group: PermGroup, action: CosetAction) -> bool:
    """Whether H is not trivial and each of its elements but 1 fixes no
    coset but H, scanning the element set of H."""
    subgroup = action.subgroup
    if subgroup.order == 1:
        return False
    ident = group.identity
    return all(fixed_count(action, h) == 1 for h in subgroup.elements if h != ident)


@lru_cache(maxsize=1)
def corpus() -> list[tuple[str, PermGroup, PermGroup]]:
    pairs: list[tuple[str, PermGroup, PermGroup]] = []

    def stab_pair(name, g):
        pairs.append((name, g, point_stabilizer(g, g.degree - 1)))

    for n in range(3, 7):
        stab_pair(f"S{n}/stab", family_group(f"S{n}"))
    for n in range(3, 7):
        stab_pair(f"A{n}/stab", family_group(f"A{n}"))
    for n in range(3, 9):
        stab_pair(f"C{n}/stab", family_group(f"C{n}"))
        stab_pair(f"D{n}/stab", family_group(f"D{n}"))
    stab_pair("F20/stab", family_group("F20"))
    stab_pair("C7:C3/stab", c7_c3())

    s4 = family_group("S4")
    a4 = family_group("A4")
    s5 = family_group("S5")
    a5 = family_group("A5")
    pairs.append(("S4/A4", s4, a4))
    pairs.append(("S4/D4", s4, family_group("D4")))
    pairs.append(("S4/C4", s4, _subgroup_of(s4, [[0, 1, 2, 3]])))
    pairs.append(("S4/V4", s4, klein_four()))
    pairs.append(("A4/V4", a4, klein_four()))
    pairs.append(("S3/A3", family_group("S3"), family_group("A3")))
    pairs.append(("A5/C5", a5, _subgroup_of(a5, [[0, 1, 2, 3, 4]])))
    pairs.append(("A5/D5", a5, _subgroup_of(a5, [[0, 1, 2, 3, 4]], [[1, 4], [2, 3]])))
    pairs.append(("S5/F20", s5, _subgroup_of(s5, [[0, 1, 2, 3, 4]], [[1, 2, 4, 3]])))
    c6, d6 = family_group("C6"), family_group("D6")
    pairs.append(("C6/C3", c6, _subgroup_of(c6, [[0, 2, 4], [1, 3, 5]])))
    pairs.append(("C6/C2", c6, _subgroup_of(c6, [[0, 3], [1, 4], [2, 5]])))
    pairs.append(("D6/C6", d6, _subgroup_of(d6, [[0, 1, 2, 3, 4, 5]])))
    return pairs


def random_moving(rng: random.Random, degree: int) -> tuple[int, ...]:
    """A random permutation of `degree` points moving a random subset."""
    images = list(range(degree))
    pts = rng.sample(range(degree), rng.randint(0, degree))
    for a, b in zip(pts, rng.sample(pts, len(pts))):
        images[a] = b
    return tuple(images)


def random_pairs(seed: int, count: int) -> list[tuple[str, PermGroup, PermGroup]]:
    """`count` seeded pairs (G, H), H a proper subgroup of G, of degree
    2..7: G is generated by one to three random permutations, and H is
    the stabilizer of a random point, the group of one or two random
    elements of G, or the derived subgroup of G.  Intransitive G and
    cyclic or derived H give general (non-stabilizer) H and nontrivial
    cores."""
    rng = random.Random(seed)
    pairs: list[tuple[str, PermGroup, PermGroup]] = []
    while len(pairs) < count:
        d = rng.randint(2, 7)
        g = group_closure(d, [random_moving(rng, d) for _ in range(rng.randint(1, 3))])
        kind = rng.randrange(3)
        if kind == 0:
            h = point_stabilizer(g, rng.randrange(d))
        elif kind == 1:
            els = sorted(g.elements)
            h = generated_subgroup(d, [rng.choice(els) for _ in range(rng.randint(1, 2))])
        else:
            h = derived_subgroup(g)
        if h.order < g.order:
            pairs.append((f"random{seed}/{len(pairs)}", g, h))
    return pairs


@lru_cache(maxsize=1)
def corpus_with_degree8() -> list[tuple[str, PermGroup, PermGroup]]:
    """The corpus extended by the degree-7 and degree-8 stabilizer pairs
    (heavier; used where an invariant is stated up to S8)."""
    pairs = list(corpus())
    for n in (7, 8):
        g = family_group(f"S{n}")
        pairs.append((f"S{n}/stab", g, point_stabilizer(g, n - 1)))
        a = family_group(f"A{n}")
        pairs.append((f"A{n}/stab", a, point_stabilizer(a, n - 1)))
    return pairs


# ---------------------------------------------------------------------------
# Fuzzed group-file text

# The closure ceiling for fuzzed groups: a random generator set of degree
# 12 can generate A12 or S12, which the default ceiling would list to a
# million elements before giving up.
FUZZ_CEILING = 2000


def _cycle_text(cycles) -> str:
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)


def perm_lines(degree: int):
    """A line of cycle-notation text for `degree`: one cycle of valid
    points, cycles that may repeat points or leave 1..degree, or arbitrary
    text over the notation's alphabet."""
    cycle = st.lists(st.integers(1, degree), unique=True, min_size=1, max_size=6)
    wild = st.lists(st.lists(st.integers(0, degree + 1), max_size=5), max_size=3)
    return st.one_of(
        cycle.map(lambda c: _cycle_text([c])),
        cycle.map(lambda c: _cycle_text([c])),
        wild.map(_cycle_text),
        st.text("0123456789(), ", max_size=16),
    )


def _group_file(head: str, degree: int):
    line = st.one_of(perm_lines(degree), st.just("# comment"), st.just(""))
    return st.lists(line, max_size=4).map(lambda body: "\n".join([head, *body]))


# A group file: a well-formed degree line with degree <= 12, or a
# malformed one.  The malformed alphabet has no digits, so no draw asks
# for a huge degree.
group_files = st.one_of(
    st.integers(-1, 12).flatmap(lambda d: _group_file(f"degree={d}", max(d, 1))),
    st.integers(1, 12).flatmap(lambda d: _group_file(f"degree={d}", d)),
    st.text("degree= ,()#", max_size=10).flatmap(lambda head: _group_file(head, 5)),
)
