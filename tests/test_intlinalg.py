"""HNF/SNF against first-principles oracles on small random matrices."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyakit.intlinalg import (
    HermiteBasis,
    _ext_gcd,
    adj3,
    det3,
    hnf_rows,
    invert3,
    kernel_mod_p,
    lattice_contains,
    lattice_coordinates,
    lattice_lines,
    rref_mod_p,
    smith_normal_form,
)

from fieldref import lattice_points

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


@given(matrices(2, 4), st.lists(small_int, min_size=4, max_size=4), st.integers(-3, 3))
@settings(max_examples=200, deadline=None)
def test_lattice_coordinates_solve_or_reject(rows, vec, k):
    """On a rank <= 2 lattice in Z^4, coordinates come back exactly for
    the members and None otherwise; membership is decided by whether
    adding vec changes the HNF."""
    h = hnf_rows(rows, 4)
    for v in (vec, [k * a + b for a, b in zip(rows[0], rows[1])]):
        coords = lattice_coordinates(h, v)
        member = hnf_rows(list(h) + [v], 4) == h
        assert (coords is not None) == member == lattice_contains(h, v)
        if member:
            assert [sum(c * row[j] for c, row in zip(coords, h)) for j in range(4)] == list(v)


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


def _hnf_rows_reference(rows, ncols):
    """Column-by-column HNF over the whole matrix, as hnf_rows computed it
    before it worked modulo the determinant."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    r = 0
    for j in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][j] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            b = mat[i][j]
            if b == 0:
                continue
            a = mat[r][j]
            g, x, y = _ext_gcd(a, b)
            u, v = a // g, b // g
            row_r, row_i = mat[r], mat[i]
            mat[r] = [x * p + y * q for p, q in zip(row_r, row_i)]
            mat[i] = [u * q - v * p for p, q in zip(row_r, row_i)]
        if mat[r][j] < 0:
            mat[r] = [-a for a in mat[r]]
        for i in range(r):
            q = mat[i][j] // mat[r][j]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r])


def _check_hnf(rows, ncols):
    h = hnf_rows(rows, ncols)
    ref = _hnf_rows_reference(rows, ncols)
    pivots = []
    for row in h:
        assert len(row) == ncols
        j = next(j for j, a in enumerate(row) if a)
        assert row[j] > 0
        pivots.append(j)
    assert pivots == sorted(set(pivots))
    for i, j in enumerate(pivots):
        assert all(0 <= h[r][j] < h[i][j] for r in range(i))
    # the same lattice both ways; the reference spans L(rows) by
    # unimodular row steps
    assert all(lattice_contains(h, row) for row in rows)
    assert all(lattice_contains(ref, row) for row in h)
    assert h == ref
    return h


@st.composite
def hnf_inputs(draw):
    """Up to 10 rows of up to 6 columns, zero-heavy, with zero and
    duplicate rows, and a zero or a dependent column for deficient rank."""
    k = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), small_int)
    rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k), max_size=10))
    shape = draw(st.sampled_from(["any", "zero column", "dependent column"]))
    a, b = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
    if shape == "zero column":
        rows = [r[:a] + [0] + r[a + 1:] for r in rows]
    elif shape == "dependent column" and a != b:
        for r in rows:
            r[b] = 2 * r[a]
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * k)
    return rows, k


@given(hnf_inputs())
@example(([], 3))
@example(([[0], [0]], 1))
@example(([[6], [-4], [0], [9]], 1))
@settings(max_examples=300, deadline=None)
def test_hnf_rows_matches_reference(case):
    rows, k = case
    h = _check_hnf(rows, k)
    if not any(any(r) for r in rows):
        assert h == ()


@st.composite
def relation_matrices(draw):
    """Relation-shaped input: a diagonal block that gives full rank at
    once, with one pivot above 1, a row that shrinks that pivot, then a
    few hundred sparse rows with small entries, as the harvest makes."""
    k = draw(st.integers(16, 22))
    pivots = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
    j0 = draw(st.integers(0, k - 1))
    pivots[j0] = draw(st.integers(2, 6))
    rows = [[d * (i == j) for j in range(k)] for i, d in enumerate(pivots)]
    rows.append([int(j == j0) for j in range(k)])
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(rng.randint(200, 400)):
        row = [0] * k
        for j in rng.sample(range(k), rng.randint(1, 4)):
            row[j] = rng.choice((-3, -2, -1, 1, 2, 3))
        rows.append(row)
    return rows, k


@given(relation_matrices())
@settings(max_examples=15, deadline=None)
def test_hnf_rows_tall_relation_matrices(case):
    rows, k = case
    h = _check_hnf(rows, k)
    assert len(h) == k


@st.composite
def growing_lattices(draw):
    """Rows for an interleaved add/rows() run, with a snapshot flag per
    row: hnf_inputs, or up to 12 rows of up to 4 columns with entries in
    [-2, 2], which often span Z^k part way through."""
    if draw(st.booleans()):
        rows, k = draw(hnf_inputs())
    else:
        k = draw(st.integers(1, 4))
        rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k), max_size=12))
    snaps = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    return rows, k, snaps


@given(growing_lattices())
@example(([[2, 1], [0, 3], [1, 1], [5, 7]], 2, [True] * 4))
@settings(max_examples=300, deadline=None)
def test_hermite_basis_snapshots_match_reference(case):
    rows, k, snaps = case
    basis = HermiteBasis(k)
    identity = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    for n, (row, snap) in enumerate(zip(rows, snaps), 1):
        basis.add(row)
        if snap:
            h = basis.rows()
            assert h == _hnf_rows_reference(rows[:n], k)
            assert basis.det == (prod(r[i] for i, r in enumerate(h)) if len(h) == k else 0)
            assert (basis.det == 1) == (h == identity)
    assert basis.rows() == hnf_rows(rows, k) == _hnf_rows_reference(rows, k)


@st.composite
def quotient_runs(draw):
    """Batches of rows for a HermiteBasis whose lattice has full rank and
    a nontrivial quotient from its first batch on: a triangular basis
    with m = 2 or 3 pivots above 1 and det at most 60, then tall runs of
    sparse combinations of it, all inside the lattice.  Some batches
    hold a random sparse row, which may lie outside it, at a random
    place, and some a unit row e_t at a column whose pivot is above 1,
    which turns that pivot into 1.  Each batch has a flag for a rows()
    call after it."""
    rng = draw(st.randoms(use_true_random=False))
    k = rng.randint(4, 12)
    tops = rng.sample(range(k), rng.randint(2, 3))
    ds = [rng.randint(2, 7) for _ in tops]
    while prod(ds) > 60:
        ds[rng.randrange(len(ds))] = 2
    pivots = [1] * k
    for t, d in zip(tops, ds):
        pivots[t] = d
    base = []
    for j in range(k):
        row = [0] * k
        row[j] = pivots[j]
        for t in range(j + 1, k):
            if rng.random() < 0.3:
                row[t] = rng.randint(-3, 3)
        base.append(row)
    batches = [(base, rng.random() < 0.5)]
    for _ in range(rng.randint(2, 8)):
        batch = []
        for _ in range(rng.randint(1, 40)):
            row = [0] * k
            for b in rng.sample(base, rng.randint(1, 3)):
                c = rng.choice((-3, -2, -1, 1, 2, 3))
                row = [x + c * y for x, y in zip(row, b)]
            batch.append(row)
        extra = []
        if rng.random() < 0.5:
            extra.append([0] * k)
            for j in rng.sample(range(k), rng.randint(1, 3)):
                extra[-1][j] = rng.randint(-3, 3)
        if rng.random() < 0.3:
            extra.append([int(j == rng.choice(tops)) for j in range(k)])
        for row in extra:
            batch.insert(rng.randint(1, len(batch)), row)
        batches.append((batch, rng.random() < 0.5))
    return k, batches


@given(quotient_runs())
@example((3, [([[2, 1, 0], [0, 3, 1], [0, 0, 1]], True), ([[2, 4, 1], [0, 1, 0], [4, 2, 0]], True)]))
@settings(max_examples=80, deadline=None)
def test_hermite_basis_quotient_test_matches_reference(case):
    """Full-rank lattices with pivots above 1: rows the lattice holds go
    through its test in the quotient, the others are inserted and drop
    the map, which the next inserted row that lies in the lattice builds
    again, and rows() and det match the reference."""
    k, batches = case
    basis, seen = HermiteBasis(k), []
    for batch, snap in batches:
        basis.extend(batch)
        seen += batch
        # a kept map is one of the current lattice, not of an earlier one
        if basis._quotient is not None:
            assert prod(b[i] for i, b in enumerate(basis._quotient[1])) == basis.det
        if snap:
            h = basis.rows()
            assert h == _hnf_rows_reference(seen, k)
            assert basis.det == prod(r[i] for i, r in enumerate(h))
    h = basis.rows()
    assert h == _hnf_rows_reference(seen, k)
    assert len(h) == k and basis.det == prod(r[i] for i, r in enumerate(h))


@given(matrices(4, 4))
@settings(max_examples=200, deadline=None)
def test_snf_transforms_reconstruct(rows):
    diag, V = smith_normal_form(rows, 4)
    m, n = 4, 4
    # V is unimodular and A * V has the row lattice of diag(diag), which
    # is exactly U * A * V = diag(diag) for some unimodular U
    assert abs(_det(V)) == 1
    AV = [[sum(rows[i][k] * V[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
    D = [[diag[i] if i == j else 0 for j in range(n)] for i in range(len(diag))]
    assert hnf_rows(AV, n) == hnf_rows(D, n)
    assert len(diag) == min(m, n) and all(d >= 0 for d in diag)
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
    diag, _ = smith_normal_form(rows, 4)
    prod = 1
    for d in diag:
        prod *= d
    assert prod == abs(_det(rows))


@given(matrices(3, 3), st.sampled_from([2, 3, 5, 7, 11]))
@settings(max_examples=150, deadline=None)
def test_kernel_mod_p(rows, p):
    ker = kernel_mod_p(rows, 3, p)
    for v in ker:
        assert all(0 <= a < p for a in v)
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) % p == 0
    # dimension check against brute force over GF(p)^3; a column j is
    # free when some kernel vector has its last nonzero entry at j
    from itertools import product

    count = 0
    free = set()
    for v in product(range(p), repeat=3):
        if all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in rows):
            count += 1
            if any(v):
                free.add(max(j for j in range(3) if v[j]))
    assert count == p ** len(ker)
    # the canonical basis: one vector per free column, in increasing
    # order, 1 at its own free column and 0 at the other free columns
    free = sorted(free)
    assert len(free) == len(ker)
    for v, j in zip(ker, free):
        assert [v[i] for i in free] == [int(i == j) for i in free]


@given(matrices(3, 3))
def test_adj3_is_the_adjugate(m):
    """m * adj3(m) = adj3(m) * m = det3(m) * I, singular m included."""
    adj, d = adj3(m), det3(m)
    for i in range(3):
        for j in range(3):
            assert sum(m[i][k] * adj[k][j] for k in range(3)) == d * (i == j)
            assert sum(adj[i][k] * m[k][j] for k in range(3)) == d * (i == j)


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


# --- lattice enumeration --------------------------------------------------------

def _full_box(rows, caps):
    """(c, y) over the whole box, in nested order: c0 outermost, each c_t
    running 0, 1, -1, 2, -2, ..."""
    signed = [[0] + [s * v for v in range(1, cap + 1) for s in (1, -1)] for cap in caps]
    for c0 in signed[0]:
        for c1 in signed[1]:
            for c2 in signed[2]:
                c = (c0, c1, c2)
                yield c, tuple(sum(c[t] * rows[t][i] for t in range(3)) for i in range(3))


LATTICE_ROWS = ((1, 0, 0), (3, 2, 0), (-1, 5, 7))


@pytest.mark.parametrize("caps", [(2, 1, 3), (0, 2, 1), (1, 0, 2), (2, 2, 0), (1, 1, 1)])
@pytest.mark.parametrize("skip", [-1, 0, 1, 2])
def test_lattice_points_contract(caps, skip):
    got = list(lattice_points(LATTICE_ROWS, caps, skip))
    box = list(_full_box(LATTICE_ROWS, caps))
    assert (0, 0, 0) not in got
    assert len(set(got)) == len(got)
    # one point of each nonzero +-pair, exactly those with max |c_t| > skip
    wanted = {y for c, y in box if any(c) and max(map(abs, c)) > skip}
    for y in wanted:
        assert (y in got) + (tuple(-a for a in y) in got) == 1, y
    assert set(got) <= wanted
    if skip < 0:
        k0, k1, k2 = caps
        assert len(got) == ((2 * k0 + 1) * (2 * k1 + 1) * (2 * k2 + 1) - 1) // 2
    # the kept member has its first nonzero coefficient positive, and the
    # points come in the full box's order
    kept = [
        y
        for c, y in box
        if any(c) and max(map(abs, c)) > skip and next(a for a in c if a) > 0
    ]
    assert got == kept


@pytest.mark.parametrize("caps", [(2, 1, 3), (0, 2, 1), (1, 0, 2), (2, 2, 0), (1, 1, 1)])
@pytest.mark.parametrize("skip", [-1, 0, 1, 2])
def test_lattice_lines_flatten_to_lattice_points(caps, skip):
    """The lines, flattened, are the kept coefficients of the full box in
    its order, and mapped through the rows they are lattice_points."""
    flat = [(c0, c1, c2) for c0, c1, xs in lattice_lines(caps, skip) for c2 in xs]
    kept = [
        c
        for c, _ in _full_box(LATTICE_ROWS, caps)
        if any(c) and max(map(abs, c)) > skip and next(a for a in c if a) > 0
    ]
    assert flat == kept
    points = [tuple(sum(c[t] * LATTICE_ROWS[t][i] for t in range(3)) for i in range(3)) for c in flat]
    assert points == list(lattice_points(LATTICE_ROWS, caps, skip))
    assert all(xs for _, _, xs in lattice_lines(caps, skip))  # no empty line
