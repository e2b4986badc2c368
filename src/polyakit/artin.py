"""Splitting behaviour read off a group element acting on cosets.

For a pair H <= G with coset space Omega, the cycle type of g on Omega
is the splitting pattern of an unramified prime whose associated
automorphism is g: `splitting_from_frobenius` reads it off, and
`chebotarev_densities` gives each pattern's share of G.  The one H/H'
object of each subgroup, `permgroup.abelianization`, is re-exported
here.  The classes in H/H' of the products of conjugates
s_i g^f s_i^{-1} over the cycles of g, which no subcommand computes,
are test oracles (tests/groupcorpus.py).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

# abelianization is re-exported, not called here
from .permgroup import CosetAction, PermGroup, abelianization, cycle_structure


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


def splitting_from_frobenius(g: tuple[int, ...], action: CosetAction) -> SplittingType:
    """Splitting pattern encoded by g: its cycle lengths on the cosets,
    each part unramified."""
    return SplittingType.from_cycle_lengths(cycle_structure(g, action))


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

