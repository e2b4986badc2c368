"""Finite abelian groups in invariant-factor form, with subgroup lattices.

An `AbelianGroupSNF` is Z/d1 x ... x Z/dr with d1 | d2 | ... | dr, all
di > 1.  Elements are integer coordinate tuples reduced modulo the
invariant factors.  Subgroups are represented canonically by the HNF of
the lattice their generators span together with the relation lattice
diag(d1, ..., dr), which makes subgroup equality a matrix comparison.

`AbelianGroupSNF.presented` builds the group Z^k/L from generators of a
full-rank relation lattice L, through the Smith normal form (Cohen,
GTM 138, 2.4.3), and keeps the columns of the SNF column transform at
the invariant factors, so that `project` sends a vector of Z^k to its
class.  The class group over a factor base and H/H' over the generators
of a permutation group are both built this way, and the elements of
both are plain coordinate tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from .intlinalg import HermiteBasis, hnf_rows, lattice_coordinates, smith_normal_form


@dataclass(frozen=True)
class AbelianGroupSNF:
    """Invariant-factor presentation of a finite abelian group.

    A group built by `presented` also keeps its projection from Z^k,
    which group equality ignores: two groups are equal when their
    invariant factors are.
    """

    invariant_factors: tuple[int, ...]
    # one column of the SNF column transform per invariant factor
    _projection: tuple[tuple[int, ...], ...] = field(default=(), repr=False, compare=False)

    @classmethod
    def presented(cls, relations, k: int) -> "AbelianGroupSNF":
        """Z^k modulo the lattice spanned by the rows `relations`, which
        must have rank k (a finite quotient); ValueError otherwise, raised
        from the rows' Hermite form (`det` 0) before any Smith form."""
        relations = list(relations)
        lattice = HermiteBasis(k)
        lattice.extend(relations)
        if not lattice.det:
            raise ValueError("relations of deficient rank: the quotient is not finite")
        diag, V = smith_normal_form(relations, k)
        kept = [j for j, d in enumerate(diag) if d > 1]
        return cls(
            tuple(diag[j] for j in kept),
            _projection=tuple(tuple(row[j] for row in V) for j in kept),
        )

    def project(self, vec) -> tuple[int, ...]:
        """Class of the vector `vec` of Z^k in a group built by `presented`."""
        return self.reduce(sum(map(mul, vec, col)) for col in self._projection)

    def __post_init__(self):
        for d in self.invariant_factors:
            if d <= 1:
                raise ValueError("invariant factors must be > 1")
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")

    @property
    def order(self) -> int:
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def identity(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def reduce(self, vec) -> tuple[int, ...]:
        return tuple(int(v) % d for v, d in zip(vec, self.invariant_factors))

    def add(self, a, b) -> tuple[int, ...]:
        return self.reduce(x + y for x, y in zip(a, b))

    def neg(self, a) -> tuple[int, ...]:
        return self.reduce(-x for x in a)

    def subgroup(self, vectors) -> "Subgroup":
        return Subgroup.spanned_by(self, vectors)


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of an AbelianGroupSNF as a canonical coordinate lattice.

    `basis` is the HNF of the lattice in Z^rank spanned by the generator
    vectors together with diag(invariant factors); it always has full
    rank, and two subgroups are equal iff their bases are identical.
    """

    ambient: AbelianGroupSNF
    basis: tuple[tuple[int, ...], ...]

    @staticmethod
    def spanned_by(ambient: AbelianGroupSNF, vectors) -> "Subgroup":
        r = ambient.rank
        rows = [list(ambient.reduce(v)) for v in vectors]
        rows += [[ambient.invariant_factors[i] * int(i == j) for j in range(r)] for i in range(r)]
        return Subgroup(ambient, hnf_rows(rows, r))

    @property
    def order(self) -> int:
        det = 1
        for i, row in enumerate(self.basis):
            det *= row[i]
        return self.ambient.order // det

    def is_full(self) -> bool:
        return self.order == self.ambient.order

    def structure(self) -> tuple[int, ...]:
        """Invariant factors of the subgroup itself.

        The subgroup is L / D where L is the basis lattice and D the
        relation lattice diag(d); expressing a basis of D over the basis
        of L and taking SNF gives the quotient structure.
        """
        r = self.ambient.rank
        if r == 0:
            return ()
        coords = [
            lattice_coordinates(self.basis, [d * int(i == j) for j in range(r)])
            for i, d in enumerate(self.ambient.invariant_factors)
        ]
        assert None not in coords, "relation lattice not inside subgroup lattice"
        diag, _ = smith_normal_form(coords, r)
        return tuple(d for d in diag if d > 1)
