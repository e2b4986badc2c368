"""Exact permutation groups at small degree.

Every group carries a base and strong generating set (BSGS): a
stabilizer chain G = G^(0) >= G^(1) >= ... >= 1, where G^(i+1) fixes
the base point b_i of G^(i), each level holding its strong generators
and a transversal of the orbit of b_i (Sims 1970; Seress, *Permutation
Group Algorithms*, 2003, ch. 4).  Schreier-Sims builds the chain one
kept generator at a time, so the group's order is known before any
element exists: a group past the closure ceiling is refused without
being listed, membership and the subgroup test are sifts, and the first
base point is the largest point the group moves, whose stabilizer is
level 1 of the chain with no further closure.  A group is its chain:
its element set is listed only when a caller reads it, once, as
products of one transversal element per level; group equality is read
off the chains too.  `group-check` lists only T, by one walk of H's
chain under the cap that listing H would meet, and never G, H or H'.

On top of the chains the module provides right-coset actions, derived
subgroups, the subset T of a subgroup whose elements fix only the
distinguished coset, and the combined generation test built from T and
the derived subgroup, together with Frobenius and 2-transitivity
predicates: what the `group-check` subcommand runs.  The oracles the
tests check these against, such as the conjugacy characterization of T
and normal cores, live in the tests (tests/groupcorpus.py).

A permutation of {0, ..., n-1} is the plain tuple of its images, and
nothing else (Seress 2003 stores them the same way).  `perm` checks
one built from outside; `compose`, `inverse`, `cycles`, `from_cycles`
and `identity` are the operations on them.  A right coset of H is its
label, which G moves: the point s(p) when H is the full stabilizer of a
point p, and otherwise the element of H*s that H's chain picks
(`_coset_key`); coset i is the i-th label in sorted order, so the coset
action is one implementation over labels that never enumerates cosets.
The quotient H/H' is one object per subgroup, `abelianization(H)`,
whose H'-cosets are the labels of the same action of H on them; the
generation test is decided on those labels instead of closing <T, H'>
as a set of permutations, and H/H' is presented in invariant-factor
form (`abelian.AbelianGroupSNF`) on first use.

Composition convention: ``compose(a, b)`` means "apply a, then b", so
that a right coset ``H*s`` moved by ``g`` lands on ``H*compose(s, g)``.
Permutations are 0-indexed internally; cycle-notation text I/O is
1-indexed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, partial
from operator import itemgetter
from typing import Callable, Iterable, Optional

from .abelian import AbelianGroupSNF

DEFAULT_CLOSURE_CEILING = 10**6
# The largest degree parse_group_file accepts: every element is a
# degree-length tuple, so a closure ceiling of 10^6 alone would still let
# one degree line build million-entry tuples.
MAX_GROUP_DEGREE = 1000
# The most tuple entries (order times degree, 8 bytes each) listing a
# group's elements may build; a group past it raises GroupTooLargeError
# before any element is listed.  It is ten times the CLI's largest
# --max-closure, and |H| * degree = |G| for the point stabilizer H of a
# transitive G, so the H of every transitive group the CLI admits lists.
MAX_LISTED_ENTRIES = 4 * 10**7

# A permutation: the tuple of its images (an annotation only).
_Perm = tuple[int, ...]


class GroupTooLargeError(RuntimeError):
    """Raised when a closure would exceed the configured element ceiling."""


def _then(first: _Perm) -> Callable[[_Perm], _Perm]:
    """The map sending the image tuple of b to that of "first, then b".

    An itemgetter composes raw image tuples several times faster than a
    Python-level loop, so every hot loop below builds one per fixed factor
    (calling itemgetter itself where the degree is known to be at least 2).
    """
    if len(first) == 1:
        return lambda b: (b[first[0]],)
    return itemgetter(*first)


def perm(images: Iterable[int]) -> _Perm:
    """The permutation with these images, checked to be one of 0..n-1."""
    p = tuple(images)
    n = len(p)
    if n == 0:
        raise ValueError("degree must be positive")
    if sorted(p) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {p}")
    return p


def identity(degree: int) -> _Perm:
    if degree < 1:
        raise ValueError("degree must be positive")
    return tuple(range(degree))


def from_cycles(degree: int, cycles: Iterable[Iterable[int]]) -> _Perm:
    """Build a permutation from disjoint 0-indexed cycles."""
    if degree < 1:
        raise ValueError("degree must be positive")
    images = list(range(degree))
    seen = set()
    for cycle in cycles:
        cycle = list(cycle)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if not 0 <= a < degree:
                raise ValueError(f"point {a} out of range for degree {degree}")
            if a in seen:
                raise ValueError(f"point {a} repeated across cycles")
            seen.add(a)
            images[a] = b
    # distinct in-range points, each cycle sent onto itself: a permutation
    return tuple(images)


def compose(first: _Perm, *rest: _Perm) -> _Perm:
    """The product that applies `first`, then each of `rest` in turn."""
    for p in rest:
        first = _then(first)(p)
    return first


def inverse(p: _Perm) -> _Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def cycles(p: _Perm, include_fixed: bool = False) -> list[tuple[int, ...]]:
    """Disjoint cycles, each starting at its least point, sorted by it."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cur, cyc = start, []
        while not seen[cur]:
            seen[cur] = True
            cyc.append(cur)
            cur = p[cur]
        if len(cyc) > 1 or include_fixed:
            out.append(tuple(cyc))
    return out


_CYCLE_TEXT = re.compile(r"(?:\(\s*\d+(?:[ ,]+\d+)*\s*\))+")


def parse_perm(text: str, degree: int) -> _Perm:
    """Parse 1-indexed cycle notation like ``(1 2)(3 4)``; '()' is identity."""
    text = text.strip()
    if text in ("()", "", "1", "id"):
        return identity(degree)
    if not _CYCLE_TEXT.fullmatch(text):
        raise ValueError(f"bad cycle notation: {text!r}")
    cycles = []
    # the notation admits no text between cycles, so ")(" splits them
    for body in text[1:-1].split(")("):
        pts = [int(tok) - 1 for tok in body.replace(",", " ").split()]
        for p in pts:
            if not 0 <= p < degree:
                raise ValueError(f"point {p + 1} out of range for degree {degree}")
        if len(pts) > 1:
            cycles.append(pts)
    return from_cycles(degree, cycles)


class PermGroup:
    """A finite permutation group: its stabilizer chain.

    Every group keeps its chain (`_levels`), which gives its order,
    membership by sifting and its subgroup test; the element set is
    listed, as `_enumerate` orders it, the first time `elements` is read;
    a group of more than MAX_LISTED_ENTRIES entries (order times degree)
    raises GroupTooLargeError there instead.
    """

    __slots__ = ("degree", "generators", "order", "_elements", "_levels", "_ab")

    def __init__(self, degree: int, generators: tuple[_Perm, ...], levels: list["_Level"]):
        self.degree = degree
        self.generators = generators
        self._levels = levels
        self.order = math.prod(len(lv.orbit) for lv in levels)
        self._elements: Optional[frozenset[_Perm]] = None
        self._ab: Optional[Abelianization] = None  # see abelianization

    @property
    def elements(self) -> frozenset[_Perm]:
        if self._elements is None:
            _check_listable(self)
            self._elements = frozenset(_enumerate(self.degree, self._levels))
        return self._elements

    @property
    def identity(self) -> _Perm:
        return identity(self.degree)

    def __contains__(self, p: _Perm) -> bool:
        """Whether p has the group's degree and sifts to the identity."""
        ident = self.identity
        try:
            return len(p) == len(ident) and _sift(self._levels, p, 0)[0] == ident
        except ValueError:  # p misses a base point: not a permutation
            return False

    def __eq__(self, other) -> bool:
        """Same degree and order, and each generator of one sifts into the
        other: a subgroup of the same order is the whole group."""
        return (
            isinstance(other, PermGroup)
            and self.order == other.order
            and self.is_subgroup_of(other)
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.order))

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        """Whether each generator lies in `other` (sifted through its chain)."""
        return self.degree == other.degree and all(map(other.__contains__, self.generators))

    def orbit(self, point: int) -> set[int]:
        """Orbit of a point under the natural action."""
        return set(_orbit(point, self.generators, _move_point))

    def __repr__(self) -> str:
        return f"<PermGroup degree={self.degree} order={self.order}>"


def _check_listable(group: PermGroup) -> None:
    """Refuse, before any element is built, a group whose listing
    would pass MAX_LISTED_ENTRIES tuple entries (order times degree)."""
    if group.order * group.degree > MAX_LISTED_ENTRIES:
        raise GroupTooLargeError(
            f"listing {group.order} elements of degree {group.degree} exceeds "
            f"{MAX_LISTED_ENTRIES} tuple entries"
        )


def _move_point(q: int, g: _Perm) -> int:
    """The image of the point q under g."""
    return g[q]


def _orbit(start, gens: Iterable[_Perm], move: Callable) -> list:
    """The orbit of `start` under the group of `gens`, which sends x to
    move(x, g), in discovery order."""
    orbit, seen = [start], {start}
    for x in orbit:  # runs on over the labels appended
        for g in gens:
            y = move(x, g)
            if y not in seen:
                seen.add(y)
                orbit.append(y)
    return orbit


class _Level:
    """One level of a stabilizer chain: a base point b, the strong
    generators `gens` (those fixing every earlier base point), and the
    orbit of b under them in discovery order.  For each orbit point x,
    u[x] sends b to x and v[x] = u[x]^-1 sends x back to b; other
    entries are None.  `u_then[x]` composes u[x] with what follows it
    (see `_then`), and `steps` holds (s, s then ., s^-1 then .) for
    each strong generator s."""

    __slots__ = ("base", "gens", "steps", "orbit", "u", "v", "u_then")

    def __init__(self, ident: _Perm, base: int):
        degree = len(ident)
        self.base = base
        self.gens: list[_Perm] = []
        self.steps: list[tuple[_Perm, Callable, Callable]] = []
        self.orbit = [base]
        self.u: list[Optional[_Perm]] = [None] * degree
        self.v: list[Optional[_Perm]] = [None] * degree
        self.u_then: list[Optional[Callable]] = [None] * degree
        self.u[base] = self.v[base] = ident
        self.u_then[base] = _then(ident)


def _sift(levels: list[_Level], g: _Perm, i: int) -> tuple[_Perm, int]:
    """Strip g, which fixes the base points before level i, through the
    levels from i on: at each, g becomes u[y] then g for y = g^-1(b),
    which fixes b.  Returns the residue and the level where it left the
    chain (len(levels) when it passed every level); g lies in the
    chain's group iff it passes with the identity as residue."""
    for j in range(i, len(levels)):
        level = levels[j]
        y = g.index(level.base)
        step = level.u_then[y]
        if step is None:
            return g, j
        if y != level.base:
            g = step(g)
    return g, len(levels)


def _add_generator(levels: list[_Level], i: int, g: _Perm) -> None:
    """Make g a strong generator of level i and restore the chain below.

    The orbit of level i grows by g, and every Schreier generator
    u[x] then s then v[s(x)] not yet tested (x a new orbit point, or s
    is g) is sifted from level i + 1; a residue r that is not the
    identity becomes a strong generator of every level it reached,
    deepest first, under a new last level when it passed them all.  A
    pair that puts s(x) in the orbit is a tree edge, whose Schreier
    generator is the identity, so it is not formed.  (g moves a point,
    so the degree is at least 2 and itemgetter is `_then`.)"""
    level = levels[i]
    level.gens.append(g)
    steps = level.steps
    steps.append((g, itemgetter(*g), itemgetter(*inverse(g))))
    new_steps = steps[-1:]
    orbit, u, v, u_then = level.orbit, level.u, level.v, level.u_then
    ident = u[level.base]
    old = len(orbit)
    for j, x in enumerate(orbit):  # runs on over the points appended
        x_then = u_then[x]
        for s, s_then, s_back in steps if j >= old else new_steps:
            y = s[x]
            if u[y] is None:
                t = x_then(s)
                u[y], v[y], u_then[y] = t, s_back(v[x]), itemgetter(*t)
                orbit.append(y)
                continue
            schreier = x_then(s_then(v[y]))
            if schreier == ident:
                continue
            r, m = _sift(levels, schreier, i + 1)
            if r == ident:
                continue
            if m == len(levels):
                levels.append(_Level(ident, _last_moved((r,), len(r))))
            for k in range(m, i, -1):
                _add_generator(levels, k, r)


def _last_moved(perms: Iterable[_Perm], degree: int) -> int:
    """The largest point one of `perms` moves, or the last point."""
    for p in range(degree - 1, 0, -1):
        for g in perms:
            if g[p] != p:
                return p
    return degree - 1


def _close(
    degree: int, perms: Iterable[_Perm], ceiling: int, base: tuple[int, ...] = ()
) -> tuple[list[_Perm], list[_Level]]:
    """The generators kept, each of `perms` not in the group of those
    before it (tested by sifting), and the stabilizer chain of their
    group.  Its base starts with the points of `base`, by default with
    the largest point any of `perms` moves; a level of `base` may have a
    trivial orbit.  An order past `ceiling` raises GroupTooLargeError
    before any element is listed."""
    perms = list(perms)
    ident = tuple(range(degree))
    levels = [_Level(ident, b) for b in base or (_last_moved(perms, degree),)]
    gens: list[_Perm] = []
    for x in perms:
        if _sift(levels, x, 0)[0] != ident:
            gens.append(x)
            _add_generator(levels, 0, x)
            if math.prod(len(level.orbit) for level in levels) > ceiling:
                raise GroupTooLargeError(f"group too large: closure exceeds ceiling {ceiling}")
    return gens, levels


def _enumerate(degree: int, levels: list[_Level]) -> list[_Perm]:
    """The elements of the chain's group, each listed once: level i's
    group is every v[x] then h, for x in the orbit and h in level
    i + 1's group (the identity v[b] is skipped)."""
    els = [tuple(range(degree))]
    for level in reversed(levels):
        stab = els
        els = list(stab)
        for x in level.orbit[1:]:  # a second orbit point: degree >= 2
            els.extend(map(itemgetter(*level.v[x]), stab))
    return els


def _generated(
    degree: int,
    perms: Iterable[_Perm],
    ceiling: int,
    generators: Optional[tuple[_Perm, ...]] = None,
) -> PermGroup:
    """The group of `perms`, with the generators kept unless
    `generators` names them."""
    gens, levels = _close(degree, perms, ceiling)
    if generators is None:
        generators = tuple(gens)
    return PermGroup(degree, generators, levels)


def group_closure(
    degree: int, generators: Iterable[_Perm], ceiling: int = DEFAULT_CLOSURE_CEILING
) -> PermGroup:
    """Smallest group containing the generators, as its stabilizer
    chain.  Rejects degree < 1 and groups of order past `ceiling`."""
    if degree < 1:
        raise ValueError("degree must be a positive integer")
    gens = tuple(map(perm, generators))
    for g in gens:
        if len(g) != degree:
            raise ValueError(f"generator degree {len(g)} != {degree}")
    return _generated(degree, gens, ceiling, generators=gens)


def generated_subgroup(
    degree: int,
    elements: Iterable[_Perm],
    ceiling: int = DEFAULT_CLOSURE_CEILING,
) -> PermGroup:
    """Subgroup generated by `elements`, adding them in sorted order and
    keeping as generators only those not already in the group of the
    ones before, so large redundant generator sets stay cheap."""
    return _generated(degree, sorted(set(elements)), ceiling)


def point_stabilizer(group: PermGroup, point: int) -> PermGroup:
    """Stabilizer of a point in the natural action.

    It is read off level 1 of a chain whose first base point is `point`:
    the group's own chain when that starts there (as it does at the
    largest point the group moves), else one built for the purpose."""
    degree = group.degree
    if not 0 <= point < degree:
        raise ValueError("point out of range")
    if all(g[point] == point for g in group.generators):
        return group
    levels = group._levels
    if not levels or levels[0].base != point:
        levels = _close(degree, group.generators, group.order, base=(point,))[1]
    gens = tuple(levels[1].gens) if len(levels) > 1 else ()
    return PermGroup(degree, gens, levels[1:])


def _stabilized_point(group: PermGroup, subgroup: PermGroup) -> tuple[Optional[int], set[int]]:
    """The least point p whose full stabilizer in `group` is `subgroup`,
    with its orbit, or (None, set()).  Every generator of H fixing p puts
    H inside the stabilizer of p, and |orbit(p)|*|H| = |G| makes the two
    equal."""
    for p in range(group.degree):
        if all(h[p] == p for h in subgroup.generators):
            orbit = group.orbit(p)
            if len(orbit) * subgroup.order == group.order:
                return p, orbit
    return None, set()


def _coset_key(levels: list[_Level], g: _Perm) -> _Perm:
    """The label of the right coset H*g, H the group of the chain
    `levels`: the element of H*g whose images of H's base points, in base
    order, are least.  At each level, u[x] then g sends the base point to
    g(x), so the least image over the orbit is reached there, and the
    levels below fix that base point.  Two elements of H*g with the same
    base images differ by an element of H fixing every base point, the
    identity; so two elements get the same key iff they share a coset."""
    for level in levels:
        g = level.u_then[min(level.orbit, key=g.__getitem__)](g)
    return g


class CosetAction:
    """The action of G on the right cosets of H by right multiplication.

    A coset is its label, which G moves.  When H is the full stabilizer
    of a point p, `point` is p and the label of H*s is the point s(p),
    which g moves to g(s(p)).  For any other H, `point` is None and the
    label of H*s is `_coset_key(H, s)`, which g moves to the key of
    (s then g).  `home` is the label of H itself, and the labels are
    found by walking G's generators from it.  Coset i is `orbit[i]`, the
    labels sorted, and nothing here lists G: row(g) sends each coset
    index to that of its image under g, so the index of H*g is the entry
    of row(g) at the index of `home`, and `is_frobenius` and
    `is_2transitive` read the labels alone.
    """

    __slots__ = ("group", "subgroup", "point", "home", "orbit", "_label", "_move", "_index")

    def __init__(self, group: PermGroup, subgroup: PermGroup):
        self.group = group
        self.subgroup = subgroup
        self.point, points = _stabilized_point(group, subgroup)
        if self.point is None:
            label = partial(_coset_key, subgroup._levels)

            def move(s: _Perm, g: _Perm) -> _Perm:
                return label(compose(s, g))  # the label of H*(s then g)

            self.home = label(group.identity)
            self.orbit = tuple(sorted(_orbit(self.home, group.generators, move)))
        else:
            label, move = itemgetter(self.point), _move_point
            self.home = self.point
            self.orbit = tuple(sorted(points))
        self._label, self._move = label, move
        self._index = {q: i for i, q in enumerate(self.orbit)}

    @property
    def num_cosets(self) -> int:
        return len(self.orbit)

    def row(self, g: _Perm) -> _Perm:
        """Images of every coset index under right multiplication by g."""
        if g not in self.group:
            raise KeyError(g)
        index, move = self._index, self._move
        return tuple([index[move(q, g)] for q in self.orbit])


def coset_action(group: PermGroup, subgroup: PermGroup) -> CosetAction:
    """Right-coset action of `group` on the cosets of `subgroup`.

    Rejects subgroups that are not contained in the group.
    """
    if not subgroup.is_subgroup_of(group):
        raise ValueError("H is not a subgroup of G")
    return CosetAction(group, subgroup)


def cycle_structure(g: _Perm, action: CosetAction) -> list[int]:
    """The lengths of the cycles of g on the coset space, each cycle
    listed at its least coset index; they sum to the number of cosets."""
    if g not in action.group:
        raise ValueError("element not in the acting group")
    return [len(c) for c in cycles(action.row(g), include_fixed=True)]


def _check_proper_subgroup(group: PermGroup, subgroup: PermGroup) -> None:
    if not subgroup.is_subgroup_of(group):
        raise ValueError("H is not a subgroup of G")
    if subgroup.order == group.order:
        raise ValueError("H = G is rejected: the fixed-coset condition is vacuous")


def _fixing_no_label(
    ident: _Perm, chain: list[tuple[int, list[tuple[int, Callable]]]], labels: Iterable[int]
) -> list[_Perm]:
    """The elements of a chain's group that fix no point of `labels`.

    `chain` holds, per level, its base point b and (x, u[x] then .) for
    each other orbit point x.  An element is the product u_(k-1)[x_(k-1)]
    then ... then u_0[x_0], so the walk carries the prefixes
    P_(i+1) = u_i[x_i] then P_i down the levels, level by level.  The
    levels below i fix b_i, so the element sends b_i to P_i(x_i): when
    b_i is a label, the branches with P_i(x_i) = b_i are cut at level i,
    and only the labels that are no base point are tested at the end."""
    left = set(labels)
    tails = [ident]
    for base, steps in chain:
        if base in left:
            left.discard(base)
            nxt = [p for p in tails if p[base] != base]
            for x, step in steps:
                nxt += [step(p) for p in tails if p[x] != base]
        else:
            nxt = list(tails)
            for x, step in steps:
                nxt += map(step, tails)
        tails = nxt
    for q in left:
        tails = [g for g in tails if g[q] != q]
    return tails


def compute_T(
    group: PermGroup, subgroup: PermGroup, action: Optional[CosetAction] = None
) -> frozenset[_Perm]:
    """Elements of H whose only fixed coset is H itself.

    Only T is listed, by one walk down H's stabilizer chain
    (`_fixing_no_label`), refused before it starts where listing H
    would pass the cap (`_check_listable`).  When H is the full
    stabilizer of a point p, h fixes the coset labelled q iff h(q) = q,
    so the walk cuts every branch that fixes a base point of H that is
    a label other than p.  For any other H, each u[x] of H's chain acts,
    beside the points, on the coset indices shifted past them, by its
    `row`: T is what fixes no index but that of `home`, the coset H.
    """
    _check_proper_subgroup(group, subgroup)
    _check_listable(subgroup)
    if action is None:
        action = coset_action(group, subgroup)
    levels = subgroup._levels
    if action.point is not None:
        chain = [(lv.base, [(x, lv.u_then[x]) for x in lv.orbit[1:]]) for lv in levels]
        labels = [q for q in action.orbit if q != action.point]
        return frozenset(_fixing_no_label(subgroup.identity, chain, labels))
    degree, row = group.degree, action.row
    chain = [
        (lv.base, [(x, itemgetter(*lv.u[x], *[degree + i for i in row(lv.u[x])]))
                   for x in lv.orbit[1:]])
        for lv in levels
    ]
    ident = tuple(range(degree + action.num_cosets))
    home = degree + action._index[action.home]
    others = [q for q in ident[degree:] if q != home]
    return frozenset([g[:degree] for g in _fixing_no_label(ident, chain, others)])


def derived_subgroup(group: PermGroup) -> PermGroup:
    """Commutator subgroup, as the normal closure in `group` of the
    commutators of its generators, on one chain: the commutators are
    closed once, and each round adds, in sorted order, the conjugates of
    the generators the last round kept that do not sift into the chain."""
    gens, ident = group.generators, group.identity
    comms = {compose(a, b, inverse(a), inverse(b)) for a in gens for b in gens}
    comms.discard(ident)
    sub = generated_subgroup(group.degree, comms)
    levels, kept = sub._levels, list(sub.generators)
    new = kept
    while new:
        conjugates = sorted({compose(inverse(g), x, g) for g in gens for x in new})
        new = []
        for y in conjugates:
            if _sift(levels, y, 0)[0] != ident:
                new.append(y)
                _add_generator(levels, 0, y)
        kept += new
    return PermGroup(group.degree, tuple(kept), levels)


@dataclass(frozen=True)
class ConditionReport:
    """The generation test for (G, H): T, and whether T is nonempty and
    H = <T, H'>."""

    T: frozenset[_Perm]
    holds: bool


class Abelianization:
    """The quotient H/H' of a permutation group H.

    `hprime` is H'.  Its cosets are labels that H moves, as in
    `CosetAction(H, H')`, found without listing H or H': `label` sends an
    element of H to the label of its coset, and `labels` holds the
    [H:H'] labels, sorted.  `group` is H/H' in invariant-factor form,
    presented on the distinct generators of H other than 1 and built on
    first use (the generation test reads only the labels).  Nothing here
    refers back to H, so H and its abelianization are freed without a
    cycle collection.
    """

    def __init__(self, subgroup: PermGroup):
        self.hprime = hprime = derived_subgroup(subgroup)
        action = CosetAction(subgroup, hprime)
        self.label, self.labels, self._move = action._label, action.orbit, action._move
        self._home = action.home  # the label of H' itself
        ident = subgroup.identity
        self._gens = tuple(dict.fromkeys(g for g in subgroup.generators if g != ident))

    @cached_property
    def group(self) -> AbelianGroupSNF:
        move, gens = self._move, self._gens
        k = len(gens)
        # Breadth-first walk of the quotient, recording one exponent
        # vector per coset label; every revisit yields a relation among
        # the generator images, and those relations span the full
        # relation lattice.
        vec: dict = {self._home: (0,) * k}
        relations: list[tuple[int, ...]] = []
        frontier = [self._home]
        while frontier:
            nxt = []
            for x in frontier:
                vx = vec[x]
                for i, g in enumerate(gens):
                    y = move(x, g)  # the label of (x's coset) then g
                    w = tuple(v + (1 if j == i else 0) for j, v in enumerate(vx))
                    if y in vec:
                        rel = tuple(a - b for a, b in zip(w, vec[y]))
                        if any(rel):
                            relations.append(rel)
                    else:
                        vec[y] = w
                        nxt.append(y)
            frontier = nxt
        assert len(vec) == len(self.labels)
        group = AbelianGroupSNF.presented(relations, k)
        assert group.order == len(self.labels)
        return group


def abelianization(subgroup: PermGroup) -> Abelianization:
    """H/H' for H = `subgroup`, built once per group object."""
    if subgroup._ab is None:
        subgroup._ab = Abelianization(subgroup)
    return subgroup._ab


def check_condition_2B(
    group: PermGroup, subgroup: PermGroup, action: Optional[CosetAction] = None
) -> ConditionReport:
    """Evaluate the generation criterion for the pair (G, H).

    Computes T and the derived subgroup H', then decides <T, H'> = H in
    H/H' without closing <T, H'> as permutations: H' is normal in H and
    lies in <T, H'>, so the two are equal iff T's cosets generate H/H'.
    The H'-cosets are the labels of `abelianization(H)`.  Scanning T
    unsorted, one element is kept of each coset outside those the kept
    ones reach from H', which are recomputed then, and the scan stops
    once they fill H/H'; neither <T, H'> nor H' is listed.
    """
    if action is None:
        action = coset_action(group, subgroup)
    T = compute_T(group, subgroup, action)
    ab = abelianization(subgroup)
    label, move, home, index = ab.label, ab._move, ab._home, len(ab.labels)
    kept: list[_Perm] = []
    reached = {home}
    for t in T:
        if len(reached) == index:
            break
        if label(t) not in reached:
            kept.append(t)
            reached = set(_orbit(home, kept, move))
    return ConditionReport(T=T, holds=bool(T) and len(reached) == index)


def is_frobenius(group: PermGroup, action: CosetAction) -> bool:
    """Whether the action is a Frobenius action: no non-identity element
    fixes two points, and some non-identity element fixes one.

    Only H matters: g fixing cosets H*s and H*t conjugates to s*g*s^-1
    in H, fixing H and H*t*s^-1, and every h of H fixes H.  So the
    action is Frobenius iff H is not trivial and no h != 1 of H fixes a
    coset but H, that is iff each orbit of H on the labels of the other
    cosets has |H| labels (orbit-stabilizer).  H is not listed."""
    subgroup = action.subgroup
    if subgroup.order == 1:
        return False
    gens, move = subgroup.generators, action._move
    seen = {action.home}
    for q in action.orbit:
        if q not in seen:
            orbit = _orbit(q, gens, move)
            if len(orbit) != subgroup.order:
                return False
            seen.update(orbit)
    return True


def is_2transitive(group: PermGroup, action: CosetAction) -> bool:
    """Transitivity on ordered pairs of distinct cosets.

    G is transitive on the cosets, so it is 2-transitive iff H, the
    stabilizer of its own coset, is transitive on the labels of the
    others."""
    n = action.num_cosets
    if n < 2:
        raise ValueError("2-transitivity needs at least 2 cosets")
    q = action.orbit[0] if action.orbit[0] != action.home else action.orbit[1]
    return len(_orbit(q, action.subgroup.generators, action._move)) == n - 1


# ---------------------------------------------------------------------------
# Named families and the group-file text format


def _symmetric(n: int) -> tuple[int, list[_Perm]]:
    if n < 1:
        raise ValueError("n must be >= 1")
    gens = [from_cycles(n, [[0, 1]])] if n > 1 else []
    if n > 2:
        gens.append(from_cycles(n, [list(range(n))]))
    return n, gens


def _alternating(n: int) -> tuple[int, list[_Perm]]:
    if n < 3:
        return max(n, 1), []
    gens = [from_cycles(n, [[0, 1, 2]])]
    if n > 3:
        cycle = list(range(n)) if n % 2 == 1 else list(range(1, n))
        gens.append(from_cycles(n, [cycle]))
    return n, gens


def _cyclic(n: int) -> tuple[int, list[_Perm]]:
    if n < 1:
        raise ValueError("n must be >= 1")
    return n, [from_cycles(n, [list(range(n))])]


def _dihedral(n: int) -> tuple[int, list[_Perm]]:
    """Symmetries of the regular n-gon on n points (order 2n), n >= 3."""
    if n < 3:
        raise ValueError("dihedral group needs n >= 3")
    rot = from_cycles(n, [list(range(n))])
    refl = perm((n - i) % n for i in range(n))
    return n, [rot, refl]


def _frobenius_20() -> tuple[int, list[_Perm]]:
    """The transitive group of order 20 on 5 points: a 5-cycle together
    with x -> 2x mod 5, a 4-cycle normalizing it."""
    five = perm((i + 1) % 5 for i in range(5))
    four = perm((2 * i) % 5 for i in range(5))
    return 5, [five, four]


# Each family's degree and generators, by the letter of its token.
_FAMILIES = {"S": _symmetric, "A": _alternating, "D": _dihedral, "C": _cyclic}
_FAMILY_RE = re.compile(r"^([SADC])(\d+)$")


def _check_degree(degree: int, ceiling: int) -> None:
    """Refuse a degree above MAX_GROUP_DEGREE or above `ceiling`: every
    element is a degree-length tuple, so the degree is bounded like the
    order, and far below the default ceiling."""
    if degree > MAX_GROUP_DEGREE:
        raise GroupTooLargeError(f"degree {degree} exceeds the degree cap {MAX_GROUP_DEGREE}")
    if degree > ceiling:
        raise GroupTooLargeError(f"degree {degree} exceeds closure ceiling {ceiling}")


def family_tokens(
    family: str, degrees: Optional[range] = None, ceiling: int = DEFAULT_CLOSURE_CEILING
) -> list[str]:
    """The family_group tokens a selector names, before any group is
    built: [family] or [] as the token `family`, matched as given, names
    a family or not; with `degrees`, the tokens of the letter `family`
    at each degree, once the largest has passed family_group's check."""
    if degrees is None:
        return [family] if family == "F20" or _FAMILY_RE.match(family) else []
    if degrees:
        _check_degree(degrees[-1], ceiling)
    return [f"{family}{n}" for n in degrees]


def family_group(token: str, ceiling: int = DEFAULT_CLOSURE_CEILING) -> PermGroup:
    """Resolve a symbolic family token: S<n>, A<n>, D<n>, C<n>, or F20.
    An n above MAX_GROUP_DEGREE or above `ceiling`, or a group of order
    past `ceiling`, raises GroupTooLargeError; n is checked before any
    permutation is built."""
    token = token.strip()
    m = _FAMILY_RE.match(token)
    if token == "F20":
        degree, gens = _frobenius_20()
    elif m:
        _check_degree(int(m.group(2)), ceiling)
        degree, gens = _FAMILIES[m.group(1)](int(m.group(2)))
    else:
        raise ValueError(f"unknown group family token: {token!r}")
    return group_closure(degree, gens, ceiling=ceiling)


def parse_group_file(text: str, ceiling: int = DEFAULT_CLOSURE_CEILING) -> PermGroup:
    """Parse the group-presentation text format: a ``degree=<n>`` line
    followed by one generator per line in 1-indexed cycle notation.

    A degree above MAX_GROUP_DEGREE or above `ceiling` raises
    GroupTooLargeError before any generator is parsed (`_check_degree`)."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].replace(" ", "").startswith("degree="):
        raise ValueError("group file must start with a 'degree=<n>' line")
    try:
        degree = int(lines[0].split("=", 1)[1])
    except ValueError as exc:
        raise ValueError("bad degree line") from exc
    _check_degree(degree, ceiling)
    gens = [parse_perm(ln, degree) for ln in lines[1:]]
    return group_closure(degree, gens, ceiling=ceiling)
