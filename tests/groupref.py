"""An independent reference for the group side, written with
sympy.combinatorics alone: nothing here calls polyakit.

`stabilizer_report(G, p)` computes, for the pair (G, H) with H = G_p
the stabilizer of the point p, what `group-check` reports for it and
the quotient H/H':

- `order_H`: the order of H;
- `size_T`: how many elements of H fix no coset of H in G but H itself;
- `condition_2B`: whether T is nonempty and <T, H'> = H;
- `invariant_factors`: H/H' in invariant-factor form, d_1 | d_2 | ...,
  each d_i > 1.

The right cosets of G_p are the points of the orbit of p, the coset
H*s being the point p^s, so an element of H fixes only the coset H iff
it fixes no other point of that orbit.  A negative criterion has tried
every element of T.
"""

from sympy import factorint
from sympy.combinatorics import Permutation, PermutationGroup


def invariant_factors(primary: list[int]) -> tuple[int, ...]:
    """The invariant factors, ascending, of the abelian group whose
    primary invariants (prime powers, as `abelian_invariants` returns
    them) are `primary`: the largest factor takes the largest power of
    each prime, the next the next largest, and so on."""
    by_prime: dict[int, list[int]] = {}
    for q in sorted(primary, reverse=True):
        (prime,) = factorint(q)
        by_prime.setdefault(prime, []).append(q)
    factors = []
    for k in range(max(map(len, by_prime.values()), default=0)):
        d = 1
        for powers in by_prime.values():
            if k < len(powers):
                d *= powers[k]
        factors.append(d)
    return tuple(reversed(factors))


def _generates(H: PermutationGroup, hprime: PermutationGroup, T: list[Permutation]) -> bool:
    """Whether T and H' together generate H, adding each element of T
    that the group so far misses."""
    K = hprime
    for t in T:
        if K.order() == H.order():
            break
        if not K.contains(t):
            K = PermutationGroup(list(K.generators) + [t])
    return K.order() == H.order()


def stabilizer_report(G: PermutationGroup, p: int) -> dict:
    """The report of the pair (G, G_p); see the module docstring."""
    H = G.stabilizer(p)
    others = [q for q in G.orbit(p) if q != p]
    T = [h for h in H.generate() if all(h(q) != q for q in others)]
    hprime = H.derived_subgroup()
    return {
        "order_H": H.order(),
        "size_T": len(T),
        "condition_2B": bool(T) and _generates(H, hprime, T),
        "invariant_factors": invariant_factors(H.abelian_invariants()),
    }
