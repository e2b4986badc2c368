"""An independent reference for the group side, written with
sympy.combinatorics and closed forms alone: nothing here calls polyakit.

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

`family_row(token)` gives the six columns `group-check` prints for a
family token at any degree, counted rather than listed: T is the set of
elements of H = G_(n-1) that fix no other point (Zantema 1982; Stanley,
*Enumerative Combinatorics* I, ch. 2, for derangements).
"""

from math import factorial

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


def derangements(m: int) -> int:
    """D(m), the permutations of m points that fix none: D(0) = 1 and
    D(m) = m D(m-1) + (-1)^m."""
    d = 1
    for k in range(1, m + 1):
        d = k * d + (-1) ** k
    return d


def even_derangements(m: int) -> int:
    """The even permutations of m points that fix none: they outnumber
    the odd ones by (-1)^(m-1) (m-1), the determinant of J - I."""
    return (derangements(m) + (-1) ** (m - 1) * (m - 1)) // 2


def family_row(token: str) -> dict:
    """order_G, order_H, size_T, condition_2B, frobenius and
    two_transitive for the token S<n>, A<n>, D<n> or C<n>, n >= 3, with H
    the stabilizer of a point.

    - S_n: T holds the derangements of the other n-1 points and H' is
      A_(n-1), so the criterion asks for an odd one, which exists unless
      n = 4 (T is the two 3-cycles).
    - A_n: T holds the even derangements.  The criterion fails at n = 3
      (T is empty) and n = 5 (T is V4 minus 1, inside H' = V4).
    - D_n: H is one reflection, which fixes a second vertex iff n is even.
    - C_n: H is trivial."""
    family, n = token[0], int(token[1:])
    if family == "S":
        columns = (factorial(n), factorial(n - 1), derangements(n - 1), n != 4, n == 3, True)
    elif family == "A":
        columns = (
            factorial(n) // 2, factorial(n - 1) // 2, even_derangements(n - 1),
            n not in (3, 5), n == 4, n >= 4,
        )
    elif family == "D":
        columns = (2 * n, 2, n % 2, n % 2 == 1, n % 2 == 1, n == 3)
    else:
        columns = (n, 1, 0, False, False, False)
    names = ("order_G", "order_H", "size_T", "condition_2B", "frobenius", "two_transitive")
    return dict(zip(names, columns))
