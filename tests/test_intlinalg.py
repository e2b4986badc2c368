"""HNF/SNF against first-principles oracles on small random matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyakit.intlinalg import (
    det3,
    hnf_rows,
    invert3,
    kernel_mod_p,
    lattice_contains,
    rref_mod_p,
    smith_normal_form,
)

small_int = st.integers(min_value=-30, max_value=30)


def matrices(rows, cols):
    return st.lists(
        st.lists(small_int, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


def row_span_mod(rows, vec, bound=4):
    """Brute-force membership of vec in the row lattice, coefficients in
    [-bound, bound] (oracle; only valid when membership has a small witness)."""
    from itertools import product

    n = len(vec)
    for coeffs in product(range(-bound, bound + 1), repeat=len(rows)):
        got = [0] * n
        for c, row in zip(coeffs, rows):
            for i in range(n):
                got[i] += c * row[i]
        if got == list(vec):
            return True
    return False


@given(matrices(4, 3))
@settings(max_examples=200, deadline=None)
def test_hnf_preserves_lattice(rows):
    h = hnf_rows(rows, 3)
    # every original row lies in the HNF lattice
    for row in rows:
        assert lattice_contains(h, row)
    # every HNF row is a small combination of the original rows is hard
    # to check generically; instead: HNF of (rows + hnf rows) is unchanged
    again = hnf_rows(list(rows) + [list(r) for r in h], 3)
    assert again == h


@given(matrices(4, 3))
@settings(max_examples=200, deadline=None)
def test_hnf_canonical_shape(rows):
    h = hnf_rows(rows, 3)
    pivot_cols = []
    for r in h:
        nz = [j for j, a in enumerate(r) if a]
        assert nz, "zero row survived"
        j = nz[0]
        assert r[j] > 0
        pivot_cols.append(j)
    assert pivot_cols == sorted(pivot_cols)
    for i, j in enumerate(pivot_cols):
        for k in range(i):
            assert 0 <= h[k][j] < h[i][j]


@given(matrices(3, 3))
@settings(max_examples=150, deadline=None)
def test_hnf_determinant_invariant(rows):
    d = abs(det3(rows))
    h = hnf_rows(rows, 3)
    if d == 0:
        assert len(h) < 3
    else:
        assert len(h) == 3
        assert h[0][0] * h[1][1] * h[2][2] == d


@given(matrices(4, 4))
@settings(max_examples=200, deadline=None)
def test_snf_transforms_reconstruct(rows):
    diag, U, V = smith_normal_form(rows, 4)
    m, n = 4, 4
    # U * A * V must equal diag(diag)
    UA = [[sum(U[i][k] * rows[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
    UAV = [[sum(UA[i][k] * V[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
    for i in range(m):
        for j in range(n):
            expected = diag[i] if i == j and i < len(diag) else 0
            assert UAV[i][j] == expected
    # divisibility chain among nonzero entries, zeros trail
    nz = [d for d in diag if d]
    assert diag[: len(nz)] == nz
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0


def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det(minor)
    return total


@given(matrices(4, 4))
@settings(max_examples=150, deadline=None)
def test_snf_preserves_determinant_up_to_sign(rows):
    diag, _, _ = smith_normal_form(rows, 4)
    prod = 1
    for d in diag:
        prod *= d
    assert prod == abs(_det(rows))


@given(matrices(3, 3), st.sampled_from([2, 3, 5, 7, 11]))
@settings(max_examples=150, deadline=None)
def test_kernel_mod_p(rows, p):
    ker = kernel_mod_p(rows, 3, p)
    for v in ker:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) % p == 0
    # dimension check against brute force over GF(p)^3
    from itertools import product

    count = 0
    for v in product(range(p), repeat=3):
        if all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in rows):
            count += 1
    assert count == p ** len(ker)


def test_invert3_exact():
    m = [[Fraction(a) for a in row] for row in ([2, 1, 0], [0, 3, 1], [1, 0, 4])]
    inv = invert3(m)
    assert all(isinstance(x, Fraction) for row in inv for x in row)
    for i in range(3):
        for j in range(3):
            s = sum(m[i][k] * inv[k][j] for k in range(3))
            assert s == (1 if i == j else 0)


def test_invert3_rejects_singular():
    with pytest.raises(ZeroDivisionError):
        invert3([[1, 2, 3], [2, 4, 6], [0, 0, 1]])


def test_rref_mod_p_idempotent():
    rows = [[2, 4, 6], [1, 3, 5], [0, 2, 4]]
    red, pivots = rref_mod_p(rows, 3, 7)
    again, pivots2 = rref_mod_p([list(r) for r in red], 3, 7)
    assert [tuple(r) for r in again] == [tuple(r) for r in red]
    assert pivots == pivots2
