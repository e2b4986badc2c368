"""Exact permutation groups at small degree.

Groups are stored as fully enumerated element sets (every group handled
here has order at most |S8| = 40320, so a base-and-strong-generators
structure would be overkill).  The module provides right-coset actions,
derived subgroups, normal cores, the subset T of a subgroup whose
elements fix only the distinguished coset, and the combined generation
test built from T and the derived subgroup, together with Frobenius and
2-transitivity predicates.

A `Perm` is a tuple subclass whose value is its image tuple, so loops
over a whole group compose, hash and compare `Perm`s at tuple cost.
When H is the full stabilizer of a point p, the coset action is read
off the orbit of p instead of enumerating cosets, and the generation
test is decided in H/H' instead of closing <T, H'> as a set of
permutations.

Composition convention: ``a * b`` means "apply a, then b", so that a
right coset ``H*s`` moved by ``g`` lands on ``H*(s*g)``.  Permutations
are 0-indexed internally; cycle-notation text I/O is 1-indexed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Callable, Iterable, Optional

DEFAULT_CLOSURE_CEILING = 10**6
# The largest degree parse_group_file accepts: every element is a
# degree-length tuple, so a closure ceiling of 10^6 alone would still let
# one degree line build million-entry tuples.
MAX_GROUP_DEGREE = 1000


class GroupTooLargeError(RuntimeError):
    """Raised when a closure would exceed the configured element ceiling."""


def _then(first: tuple[int, ...]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The map sending the image tuple of b to that of "first, then b".

    An itemgetter composes raw image tuples several times faster than a
    Python-level loop, so every hot loop below builds one per fixed factor.
    """
    if len(first) == 1:
        return lambda b: (b[first[0]],)
    return itemgetter(*first)


class Perm(tuple):
    """A permutation of {0, ..., degree-1}: the tuple of its images.

    It equals, hashes and sorts like that tuple.  Construction checks
    the images; products and inverses are wrapped unchecked by `_perm`.
    """

    __slots__ = ()

    def __new__(cls, images: Iterable[int]) -> "Perm":
        self = tuple.__new__(cls, images)
        n = len(self)
        if n == 0:
            raise ValueError("degree must be positive")
        if sorted(self) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {tuple(self)}")
        return self

    @property
    def degree(self) -> int:
        return len(self)

    @staticmethod
    def identity(degree: int) -> "Perm":
        return Perm(range(degree))

    @staticmethod
    def from_cycles(degree: int, cycles: Iterable[Iterable[int]]) -> "Perm":
        """Build a permutation from disjoint 0-indexed cycles."""
        images = list(range(degree))
        seen = set()
        for cycle in cycles:
            cycle = list(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if a in seen:
                    raise ValueError(f"point {a} repeated across cycles")
                seen.add(a)
                images[a] = b
        return Perm(images)

    def __mul__(self, other: "Perm") -> "Perm":
        # apply self first, then other
        return _perm(_then(self)(other))

    def __pow__(self, k: int) -> "Perm":
        n = self.degree
        if k < 0:
            return self.inverse() ** (-k)
        result = Perm.identity(n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "Perm":
        inv = [0] * len(self)
        for i, j in enumerate(self):
            inv[j] = i
        return _perm(inv)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self))

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its least point, sorted by it."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cur, cyc = start, []
            while not seen[cur]:
                seen[cur] = True
                cyc.append(cur)
                cur = self[cur]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        """1-indexed cycle notation, '()' for the identity."""
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(i + 1) for i in c) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Perm{tuple.__repr__(self)}"


# A product or inverse of permutations is a permutation: wrap it unchecked.
_perm: Callable[[Iterable[int]], Perm] = partial(tuple.__new__, Perm)


def parse_perm(text: str, degree: int) -> Perm:
    """Parse 1-indexed cycle notation like ``(1 2)(3 4)``; '()' is identity."""
    text = text.strip()
    if text in ("()", "", "1", "id"):
        return Perm.identity(degree)
    if not re.fullmatch(r"(\(\s*\d+(?:[ ,]+\d+)*\s*\))+", text):
        raise ValueError(f"bad cycle notation: {text!r}")
    cycles = []
    for body in re.findall(r"\(([^()]*)\)", text):
        pts = [int(tok) - 1 for tok in re.split(r"[ ,]+", body.strip()) if tok]
        for p in pts:
            if not 0 <= p < degree:
                raise ValueError(f"point {p + 1} out of range for degree {degree}")
        if len(pts) > 1:
            cycles.append(pts)
    return Perm.from_cycles(degree, cycles)


class PermGroup:
    """A finite permutation group with its full element set enumerated."""

    __slots__ = ("degree", "generators", "elements", "_sorted", "_derived")

    def __init__(self, degree: int, generators: tuple[Perm, ...], elements: frozenset[Perm]):
        self.degree = degree
        self.generators = generators
        self.elements = elements
        self._sorted: Optional[tuple[Perm, ...]] = None
        self._derived: Optional[tuple] = None  # see derived_quotient

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def sorted_elements(self) -> tuple[Perm, ...]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self.elements))
        return self._sorted

    def __contains__(self, p: Perm) -> bool:
        return p in self.elements

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PermGroup)
            and self.degree == other.degree
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.elements))

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and self.elements <= other.elements

    def orbit(self, point: int) -> set[int]:
        """Orbit of a point under the natural action."""
        orbit = {point}
        frontier = [point]
        while frontier:
            nxt = []
            for x in frontier:
                for g in self.generators:
                    y = g[x]
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
            frontier = nxt
        return orbit

    def is_transitive(self) -> bool:
        """Transitivity of the natural action on {0, ..., degree-1}."""
        return len(self.orbit(0)) == self.degree

    def __repr__(self) -> str:
        return f"<PermGroup degree={self.degree} order={self.order}>"


def _extend(els: set[Perm], gens: list[Perm], ceiling: int) -> None:
    """Close the group `els`, generated by every generator in `gens` but
    the last, under the last one too (in place).

    Only the products of `els` with the new generator, and those of the
    elements they add with every generator, are formed.
    """
    frontier = list(els)
    all_steps = [_then(a) for a in gens]
    steps = all_steps[-1:]
    while frontier:
        new = []
        for b in frontier:
            for a_then in steps:
                c = a_then(b)  # a then b; order irrelevant for the set
                if c not in els:
                    c = _perm(c)
                    els.add(c)
                    if len(els) > ceiling:
                        raise GroupTooLargeError(
                            f"group too large: closure exceeds ceiling {ceiling}"
                        )
                    new.append(c)
        frontier = new
        steps = all_steps


def _close(degree: int, perms: Iterable[Perm], ceiling: int) -> tuple[list[Perm], set[Perm]]:
    """The generators kept, each of `perms` not in the closure of those
    before it, and their closure under composition."""
    gens: list[Perm] = []
    els = {Perm.identity(degree)}
    for x in perms:
        if x not in els:
            gens.append(x)
            _extend(els, gens, ceiling)
    return gens, els


def group_closure(
    degree: int, generators: Iterable[Perm], ceiling: int = DEFAULT_CLOSURE_CEILING
) -> PermGroup:
    """Smallest group containing the generators, as an explicit element set.

    A finite closed subset of a symmetric group containing the identity
    is automatically closed under inversion, so plain composition
    closure suffices.  Rejects degree < 1 and closures past `ceiling`.
    """
    if degree < 1:
        raise ValueError("degree must be a positive integer")
    gens = tuple(generators)
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    return PermGroup(degree, gens, frozenset(_close(degree, gens, ceiling)[1]))


def subgroup_from_elements(degree: int, elements: Iterable[Perm]) -> PermGroup:
    """Wrap a set already closed under the group operations, finding a
    small generating set greedily (lexicographic element order)."""
    els = frozenset(elements)
    group = generated_subgroup(degree, els, ceiling=len(els))
    assert group.order == len(els), "element set was not closed"
    return group


def generated_subgroup(
    degree: int,
    elements: Iterable[Perm],
    seed_generators: Iterable[Perm] = (),
    ceiling: int = DEFAULT_CLOSURE_CEILING,
) -> PermGroup:
    """Subgroup generated by `elements` (and `seed_generators`), adding
    generators incrementally so large redundant generator sets stay cheap."""
    gens, els = _close(degree, [*seed_generators, *sorted(set(elements))], ceiling)
    return PermGroup(degree, tuple(gens), frozenset(els))


def point_stabilizer(group: PermGroup, point: int) -> PermGroup:
    """Stabilizer of a point in the natural action."""
    if not 0 <= point < group.degree:
        raise ValueError("point out of range")
    return subgroup_from_elements(
        group.degree, (g for g in group.elements if g[point] == point)
    )


def _stabilized_point(group: PermGroup, subgroup: PermGroup) -> Optional[int]:
    """The least point p whose full stabilizer in `group` is `subgroup`,
    or None.  Every generator of H fixing p puts H inside the stabilizer
    of p, and |orbit(p)|*|H| = |G| makes the two equal."""
    for p in range(group.degree):
        if all(h[p] == p for h in subgroup.generators) and (
            len(group.orbit(p)) * subgroup.order == group.order
        ):
            return p
    return None


class CosetAction:
    """The action of G on the right cosets of H by right multiplication.

    Cosets are indexed 0..[G:H]-1 in lexicographic order of their least
    element; each stored representative is that least element, so the
    representative of coset 0 (= H itself) is the identity.

    When H is the full stabilizer of a point p, `point` is p and the
    coset H*s is the point s(p): one pass over G keeps the least element
    sending p to each orbit point, and row(g) sends the index of each
    orbit point q to that of g(q).  Nothing sorts or hashes all of G.
    For any other H, `point` is None and the cosets are enumerated; their
    action rows are built lazily and cached.
    """

    __slots__ = (
        "group", "subgroup", "representatives", "point", "_points", "_index",
        "_coset_of", "_rep_then", "_rows",
    )

    def __init__(self, group: PermGroup, subgroup: PermGroup):
        self.group = group
        self.subgroup = subgroup
        self.point = _stabilized_point(group, subgroup)
        if self.point is None:
            self._enumerate_cosets()
        else:
            self._read_orbit(self.point)

    def _read_orbit(self, p: int) -> None:
        least: dict[int, Perm] = {}
        for g in self.group.elements:
            best = least.get(g[p])
            if best is None or g < best:
                least[g[p]] = g
        self.representatives = tuple(sorted(least.values()))
        self._points = tuple(s[p] for s in self.representatives)
        self._index = [-1] * self.group.degree
        for i, q in enumerate(self._points):
            self._index[q] = i

    def _enumerate_cosets(self) -> None:
        reps: list[Perm] = []
        coset_of: dict[tuple[int, ...], int] = {}
        h_then = [_then(h) for h in self.subgroup.elements]
        for s in self.group.sorted_elements():
            if s in coset_of:
                continue
            idx = len(reps)
            reps.append(s)
            for f in h_then:
                coset_of[f(s)] = idx  # h then s
        self.representatives = tuple(reps)
        self._coset_of = coset_of
        self._rep_then = [_then(s) for s in reps]
        self._rows: dict[Perm, tuple[int, ...]] = {}

    @property
    def num_cosets(self) -> int:
        return len(self.representatives)

    def coset_index(self, g: Perm) -> int:
        """Index of the coset H*g."""
        if self.point is None:
            return self._coset_of[g]
        if g not in self.group.elements:
            raise KeyError(g)
        return self._index[g[self.point]]

    def row(self, g: Perm) -> tuple[int, ...]:
        """Images of every coset index under right multiplication by g."""
        if self.point is not None:
            if g not in self.group.elements:
                raise KeyError(g)
            index = self._index
            return tuple([index[g[q]] for q in self._points])
        cached = self._rows.get(g)
        if cached is None:
            coset_of = self._coset_of
            cached = tuple([coset_of[f(g)] for f in self._rep_then])  # s then g
            self._rows[g] = cached
        return cached

    def act(self, index: int, g: Perm) -> int:
        """act(i, g) = index of H * (s_i * g)."""
        return self.row(g)[index]

    def perm_on_cosets(self, g: Perm) -> Perm:
        """The permutation of coset indices induced by g."""
        return _perm(self.row(g))


def coset_action(group: PermGroup, subgroup: PermGroup) -> CosetAction:
    """Right-coset action of `group` on the cosets of `subgroup`.

    Rejects subgroups that are not contained in the group.
    """
    if not subgroup.is_subgroup_of(group):
        raise ValueError("H is not a subgroup of G")
    return CosetAction(group, subgroup)


def cycle_structure(g: Perm, action: CosetAction) -> list[tuple[int, Perm]]:
    """Cycles of g on the coset space as (length, representative) pairs.

    Cycles are listed by their least coset index; the representative is
    the stored representative of that least coset, making the output
    reproducible.  Lengths sum to the number of cosets.
    """
    if g not in action.group:
        raise ValueError("element not in the acting group")
    reps = action.representatives
    return [(len(c), reps[c[0]]) for c in action.perm_on_cosets(g).cycles(include_fixed=True)]


def _check_proper_subgroup(group: PermGroup, subgroup: PermGroup) -> None:
    if not subgroup.is_subgroup_of(group):
        raise ValueError("H is not a subgroup of G")
    if subgroup.order == group.order:
        raise ValueError("H = G is rejected: the fixed-coset condition is vacuous")


def compute_T(
    group: PermGroup, subgroup: PermGroup, action: Optional[CosetAction] = None
) -> frozenset[Perm]:
    """Elements of H whose only fixed coset is H itself.

    Computed by counting fixed points of each h in the coset action.
    `compute_T_conjugacy` is the independent characterization; the two
    must agree (a tested invariant).
    """
    _check_proper_subgroup(group, subgroup)
    if action is None:
        action = coset_action(group, subgroup)
    out = []
    for h in subgroup.elements:
        row = action.row(h)
        if sum(1 for i, j in enumerate(row) if i == j) == 1:
            # h in H always fixes coset 0 = H, so the unique fixed point is H
            out.append(h)
    return frozenset(out)


def compute_T_conjugacy(
    group: PermGroup, subgroup: PermGroup, action: Optional[CosetAction] = None
) -> frozenset[Perm]:
    """Same subset, via: h is excluded iff s*h*s^-1 lies in H for some s
    outside H.  Whether s*h*s^-1 is in H depends only on the coset H*s,
    so only the non-identity coset representatives need checking.
    """
    _check_proper_subgroup(group, subgroup)
    if action is None:
        action = coset_action(group, subgroup)
    out = []
    for h in subgroup.elements:
        excluded = False
        for s in action.representatives[1:]:
            if s * h * s.inverse() in subgroup.elements:
                excluded = True
                break
        if not excluded:
            out.append(h)
    return frozenset(out)


def derived_subgroup(group: PermGroup) -> PermGroup:
    """Commutator subgroup, as the normal closure in `group` of the
    commutators of its generators."""
    gens = group.generators
    comms = {
        a * b * a.inverse() * b.inverse() for a in gens for b in gens
    }
    comms.discard(Perm.identity(group.degree))
    sub = generated_subgroup(group.degree, comms)
    # normal closure: conjugate by generators until stable
    while True:
        extra = []
        for g in gens:
            ginv = g.inverse()
            for x in sub.generators:
                y = ginv * x * g
                if y not in sub.elements:
                    extra.append(y)
        if not extra:
            return sub
        sub = generated_subgroup(group.degree, extra, seed_generators=sub.generators)


def normal_core(group: PermGroup, subgroup: PermGroup) -> PermGroup:
    """Largest normal subgroup of G inside H, i.e. the intersection of
    all conjugates of H.  An element of H belongs iff every conjugate
    s*h*s^-1 stays in H, and that test only depends on the coset H*s."""
    if not subgroup.is_subgroup_of(group):
        raise ValueError("H is not a subgroup of G")
    action = CosetAction(group, subgroup)
    reps = action.representatives
    core = []
    for h in subgroup.elements:
        if all(s * h * s.inverse() in subgroup.elements for s in reps):
            core.append(h)
    return subgroup_from_elements(group.degree, core)


@dataclass(frozen=True)
class ConditionReport:
    """Witnesses for the generation test T != {} and H = <T, H'>.

    `holds` is precisely the conjunction of T_nonempty and
    `generated` coinciding with H.
    """

    T: frozenset[Perm]
    T_nonempty: bool
    generated: PermGroup
    holds: bool


def quotient_labels(
    group: PermGroup, normal: PermGroup
) -> tuple[dict[tuple[int, ...], int], list[Perm]]:
    """Label every element of `group` with its coset modulo `normal`, a
    normal subgroup, in one pass of |group| products.

    Returns the map from image tuples to labels, which takes `Perm`s
    directly, and one representative per label; label 0 is `normal`
    itself.  As `normal` is normal, the label of a product depends only
    on its factors' labels.
    """
    labels: dict[tuple[int, ...], int] = {}
    reps: list[Perm] = []
    for x in (group.identity, *group.elements):
        if x in labels:
            continue
        x_then = _then(x)
        for d in normal.elements:
            labels[x_then(d)] = len(reps)
        reps.append(x)
    return labels, reps


def derived_quotient(
    group: PermGroup,
) -> tuple[PermGroup, dict[tuple[int, ...], int], list[Perm]]:
    """(H', labels, reps) for H = `group`: its derived subgroup and
    quotient_labels(H, H'), computed once per group object."""
    if group._derived is None:
        hprime = derived_subgroup(group)
        group._derived = (hprime, *quotient_labels(group, hprime))
    return group._derived


def check_condition_2B(
    group: PermGroup, subgroup: PermGroup, action: Optional[CosetAction] = None
) -> ConditionReport:
    """Evaluate the generation criterion for the pair (G, H).

    Computes T and the derived subgroup H', then decides <T, H'> = H in
    H/H' without closing <T, H'> as permutations: H' is normal in H and
    lies in <T, H'>, so the two are equal iff T's cosets generate H/H'.
    Every element of H is labelled with its H'-coset, and the labels of
    T are closed under multiplication until they fill H/H'.
    `generated` is then H itself, or else the union of the H'-cosets
    reached, generated by the generators of H' and the least element of
    T in each coset T meets; either way its element set is <T, H'>.
    holds() iff T is nonempty and <T, H'> is all of H.
    """
    if action is None:
        action = coset_action(group, subgroup)
    T = compute_T(group, subgroup, action)
    hprime, labels, reps = derived_quotient(subgroup)
    least: dict[int, Perm] = {}  # the least element of T in each H'-coset it meets
    for t in sorted(T):
        least.setdefault(labels[t], t)
    steps = list(least.values())
    reached = {0}
    frontier = [0]
    while frontier and len(reached) < len(reps):
        new = []
        for a in frontier:
            a_then = _then(reps[a])
            for b in steps:
                c = labels[a_then(b)]
                if c not in reached:
                    reached.add(c)
                    new.append(c)
        frontier = new
    fills = len(reached) == len(reps)
    if fills:
        generated = subgroup
    else:
        generated = PermGroup(
            group.degree,
            hprime.generators + tuple(least.values()),
            frozenset(h for h in subgroup.elements if labels[h] in reached),
        )
    holds = bool(T) and fills
    return ConditionReport(T=T, T_nonempty=bool(T), generated=generated, holds=holds)


def is_frobenius(group: PermGroup, action: CosetAction) -> bool:
    """Whether the action is a Frobenius action: no non-identity element
    fixes two points, and some non-identity element fixes one."""
    some_fixes_one = False
    ident = group.identity
    for g in group.elements:
        if g == ident:
            continue
        row = action.row(g)
        fixed = sum(1 for i, j in enumerate(row) if i == j)
        if fixed > 1:
            return False
        if fixed == 1:
            some_fixes_one = True
    return some_fixes_one


def is_2transitive(group: PermGroup, action: CosetAction) -> bool:
    """Transitivity on ordered pairs of distinct cosets."""
    n = action.num_cosets
    if n < 2:
        raise ValueError("2-transitivity needs at least 2 cosets")
    gen_rows = [action.row(g) for g in group.generators]
    start = (0, 1)
    orbit = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for pair in frontier:
            for row in gen_rows:
                img = (row[pair[0]], row[pair[1]])
                if img not in orbit:
                    orbit.add(img)
                    nxt.append(img)
        frontier = nxt
    return len(orbit) == n * (n - 1)


# ---------------------------------------------------------------------------
# Named families and the group-file text format


def _symmetric(n: int) -> tuple[int, list[Perm]]:
    if n < 1:
        raise ValueError("n must be >= 1")
    gens = [Perm.from_cycles(n, [[0, 1]])] if n > 1 else []
    if n > 2:
        gens.append(Perm.from_cycles(n, [list(range(n))]))
    return n, gens


def _alternating(n: int) -> tuple[int, list[Perm]]:
    if n < 3:
        return max(n, 1), []
    gens = [Perm.from_cycles(n, [[0, 1, 2]])]
    if n > 3:
        cycle = list(range(n)) if n % 2 == 1 else list(range(1, n))
        gens.append(Perm.from_cycles(n, [cycle]))
    return n, gens


def _cyclic(n: int) -> tuple[int, list[Perm]]:
    if n < 1:
        raise ValueError("n must be >= 1")
    return n, [Perm.from_cycles(n, [list(range(n))])]


def _dihedral(n: int) -> tuple[int, list[Perm]]:
    if n < 3:
        raise ValueError("dihedral group needs n >= 3")
    rot = Perm.from_cycles(n, [list(range(n))])
    refl = Perm(tuple((n - i) % n for i in range(n)))
    return n, [rot, refl]


def _frobenius_20() -> tuple[int, list[Perm]]:
    five = Perm(tuple((i + 1) % 5 for i in range(5)))
    four = Perm(tuple((2 * i) % 5 for i in range(5)))
    return 5, [five, four]


# Each family's degree and generators, by the letter of its token.
_FAMILIES = {"S": _symmetric, "A": _alternating, "D": _dihedral, "C": _cyclic}
_FAMILY_RE = re.compile(r"^([SADC])(\d+)$")


def symmetric_group(n: int) -> PermGroup:
    return group_closure(*_symmetric(n))


def alternating_group(n: int) -> PermGroup:
    return group_closure(*_alternating(n))


def cyclic_group(n: int) -> PermGroup:
    return group_closure(*_cyclic(n))


def dihedral_group(n: int) -> PermGroup:
    """Symmetries of the regular n-gon on n points (order 2n), n >= 3."""
    return group_closure(*_dihedral(n))


def frobenius_20() -> PermGroup:
    """The transitive group of order 20 on 5 points: a 5-cycle together
    with x -> 2x mod 5, a 4-cycle normalizing it."""
    return group_closure(*_frobenius_20())


def family_group(token: str, ceiling: int = DEFAULT_CLOSURE_CEILING) -> PermGroup:
    """Resolve a symbolic family token: S<n>, A<n>, D<n>, C<n>, or F20.
    A closure past `ceiling` elements raises GroupTooLargeError."""
    token = token.strip()
    m = _FAMILY_RE.match(token)
    if token == "F20":
        degree, gens = _frobenius_20()
    elif m:
        degree, gens = _FAMILIES[m.group(1)](int(m.group(2)))
    else:
        raise ValueError(f"unknown group family token: {token!r}")
    return group_closure(degree, gens, ceiling=ceiling)


def parse_group_file(text: str, ceiling: int = DEFAULT_CLOSURE_CEILING) -> PermGroup:
    """Parse the group-presentation text format: a ``degree=<n>`` line
    followed by one generator per line in 1-indexed cycle notation.

    A degree above MAX_GROUP_DEGREE or above `ceiling` raises
    GroupTooLargeError before any generator is parsed: every element the
    closure builds is a degree-length tuple, so the degree is bounded
    like the order, and far below the default ceiling."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].replace(" ", "").startswith("degree="):
        raise ValueError("group file must start with a 'degree=<n>' line")
    try:
        degree = int(lines[0].split("=", 1)[1])
    except ValueError as exc:
        raise ValueError("bad degree line") from exc
    if degree > MAX_GROUP_DEGREE:
        raise GroupTooLargeError(f"degree {degree} exceeds the degree cap {MAX_GROUP_DEGREE}")
    if degree > ceiling:
        raise GroupTooLargeError(f"degree {degree} exceeds closure ceiling {ceiling}")
    gens = [parse_perm(ln, degree) for ln in lines[1:]]
    return group_closure(degree, gens, ceiling=ceiling)
