"""Splitting behaviour read off a group element acting on cosets, and
the induced products of conjugates taken modulo the derived subgroup.

For a pair H <= G with coset space Omega, the cycle type of g on Omega
is the splitting pattern of an unramified prime whose associated
automorphism is g.  For each cycle length f the product of the
conjugates s_i g^f s_i^{-1} over cycles of that length lands in H; its
class in H/H' is well defined independently of the chosen
representatives, and those classes are what the arithmetic side
compares against.  Classes are computed in H/H' (the computable
refinement of the quotient the theory actually uses; equalities proved
here imply the coarser ones), through the one H/H' object of each
subgroup, `permgroup.abelianization`, which this module re-exports; an
element's class is read off the coset-action label of its H'-coset,
and no element of H' is listed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .permgroup import (  # abelianization is re-exported, not called here
    Abelianization, CosetAction, PermGroup, abelianization, compose, cycle_structure,
    inverse, power,
)


@dataclass(frozen=True, order=True)
class SplittingType:
    """A decomposition pattern: (residual degree f, ramification e) parts,
    sorted ascending.  At group level e is always 1."""

    parts: tuple[tuple[int, int], ...]

    @staticmethod
    def from_cycle_lengths(lengths) -> "SplittingType":
        return SplittingType(tuple(sorted((int(f), 1) for f in lengths)))

    @property
    def label(self) -> str:
        """Text form like ``1+2`` (ramified parts carry a caret: ``1^3``)."""
        return "+".join(
            str(f) if e == 1 else f"{f}^{e}" for f, e in self.parts
        )

    def __str__(self) -> str:
        return self.label


def _cycles_with_reps(
    g: tuple[int, ...], action: CosetAction, reps: Optional[Sequence[tuple[int, ...]]]
) -> list[tuple[int, tuple[int, ...]]]:
    """`cycle_structure(g, action)`, each stored representative replaced
    by the caller's representative of the same coset when `reps` is
    given (one per coset, in coset-index order)."""
    cycles = cycle_structure(g, action)
    if reps is None:
        return cycles
    if len(reps) != action.num_cosets:
        raise ValueError("need one representative per coset")
    for i, s in enumerate(reps):
        if action.coset_index(s) != i:
            raise ValueError(f"representative {i} lies in the wrong coset")
    return [(length, reps[action.coset_index(s)]) for length, s in cycles]


def splitting_from_frobenius(g: tuple[int, ...], action: CosetAction) -> SplittingType:
    """Splitting pattern encoded by g: its cycle lengths on the cosets,
    each part unramified."""
    return SplittingType.from_cycle_lengths(f for f, _ in cycle_structure(g, action))


def pi_class(
    g: tuple[int, ...],
    f: int,
    action: CosetAction,
    ab: Abelianization,
    reps: Optional[Sequence[tuple[int, ...]]] = None,
) -> tuple[int, ...]:
    """Class in H/H' of the product of s_i g^f s_i^{-1} over the cycles
    of g with length exactly f, as a coordinate tuple of `ab.group`.

    An empty product (no cycle of length f) gives the identity class,
    matching the convention that a product over no maximal ideals is the
    whole ring.  Optionally uses caller-supplied coset representatives;
    the result provably does not depend on that choice.
    """
    cycles = _cycles_with_reps(g, action, reps)
    gf = power(g, f)
    acc = ab.group.identity()
    for length, s in cycles:
        if length == f:
            acc = ab.group.add(acc, ab.project(compose(s, gf, inverse(s))))
    return acc


def total_class(
    g: tuple[int, ...],
    action: CosetAction,
    ab: Abelianization,
    reps: Optional[Sequence[tuple[int, ...]]] = None,
) -> tuple[int, ...]:
    """Class of the product of s_i g^{f_i} s_i^{-1} over all cycles (the
    transfer of g into H/H'), as a coordinate tuple of `ab.group`."""
    acc = ab.group.identity()
    for length, s in _cycles_with_reps(g, action, reps):
        acc = ab.group.add(acc, ab.project(compose(s, power(g, length), inverse(s))))
    return acc


def chebotarev_densities(
    group: PermGroup, action: CosetAction
) -> dict[SplittingType, Fraction]:
    """Density of each splitting pattern: the proportion of group
    elements whose coset action has that cycle type."""
    counts: Counter[SplittingType] = Counter()
    for g in group.elements:
        counts[splitting_from_frobenius(g, action)] += 1
    order = group.order
    return {t: Fraction(c, order) for t, c in sorted(counts.items())}

