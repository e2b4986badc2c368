"""Exact integer and mod-p linear algebra: HNF, SNF, kernels.

Everything here works on plain Python ints (arbitrary precision) and
small matrices given as sequences of rows.  No external dependencies;
the matrices in this package are at most a few dozen rows by a handful
of columns.
"""

from __future__ import annotations


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hnf_rows(rows, ncols: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Row-style Hermite normal form of the lattice spanned by `rows`.

    Returns the nonzero rows of the canonical form: row-echelon with
    positive pivots, entries above each pivot reduced into [0, pivot).
    For a full-rank square input this is the upper-triangular HNF.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    if ncols is None:
        ncols = len(mat[0])
    r = 0
    for j in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][j] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            b = mat[i][j]
            if b == 0:
                continue
            a = mat[r][j]
            # single Bezout combination replaces the euclidean loop
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


def hnf_pivots(hnf: tuple[tuple[int, ...], ...]) -> list[int]:
    """Pivot column of each row of an HNF matrix."""
    cols = []
    for row in hnf:
        for j, a in enumerate(row):
            if a != 0:
                cols.append(j)
                break
    return cols


def lattice_contains(hnf: tuple[tuple[int, ...], ...], vec) -> bool:
    """Whether `vec` lies in the lattice spanned by the HNF rows."""
    v = list(vec)
    pivots = hnf_pivots(hnf)
    for row, j in zip(hnf, pivots):
        if v[j] % row[j] != 0:
            return False
        q = v[j] // row[j]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return all(a == 0 for a in v)


def det3(m) -> int:
    """Determinant of a 3x3 matrix (rows of ints, Fractions or complex)."""
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def invert3(m) -> list[list]:
    """Inverse of a 3x3 matrix via the adjugate, dividing as x / det:
    exact for Fraction entries, float or complex arithmetic otherwise."""
    det = det3(m)
    if det == 0:
        raise ZeroDivisionError("singular matrix")
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    adj = [
        [e * i - f * h, c * h - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * h - e * g, b * g - a * h, a * e - b * d],
    ]
    return [[x / det for x in row] for row in adj]


def smith_normal_form(rows, ncols: int):
    """Smith normal form of an integer matrix.

    Returns (diag, U, V) where U @ A @ V = D, U and V unimodular, and
    diag is the list of the min(m, n) diagonal entries of D satisfying
    the divisibility chain d0 | d1 | ... (trailing entries may be 0 if
    the matrix has deficient rank).

    Rows may be empty, in which case diag is all zeros.
    """
    m = len(rows)
    n = ncols
    A = [list(r) for r in rows]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row i -= q * row j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col i -= q * col j
        for row in A:
            row[i] -= q * row[j]
        for row in V:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < m and t < n:
        # find smallest nonzero entry in the remaining submatrix
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                a = abs(A[i][j])
                if a and (best is None or a < best):
                    best = a
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_op(i, t, q)
                    if A[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_op(j, t, q)
                    if A[t][j]:
                        swap_cols(t, j)
                        dirty = True
        # enforce divisibility of every remaining entry by the pivot
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % A[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # add offending row to pivot row
            continue
        t += 1

    diag = []
    for k in range(min(m, n)):
        d = A[k][k] if k < len(A) else 0
        if d < 0:
            d = -d
            A[k] = [-x for x in A[k]]
            U[k] = [-x for x in U[k]]
        diag.append(d)
    return diag, U, V


def kernel_mod_p(rows, ncols: int, p: int) -> list[tuple[int, ...]]:
    """Basis of the right kernel of a matrix over GF(p).

    `rows` are the matrix rows; solves A x = 0 for column vectors x,
    returned as tuples of ints in [0, p).
    """
    A = [[a % p for a in r] for r in rows]
    m = len(A)
    pivots = {}
    r = 0
    for j in range(ncols):
        piv = None
        for i in range(r, m):
            if A[i][j] % p:
                piv = i
                break
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][j], -1, p)
        A[r] = [(a * inv) % p for a in A[r]]
        for i in range(m):
            if i != r and A[i][j]:
                c = A[i][j]
                A[i] = [(a - c * b) % p for a, b in zip(A[i], A[r])]
        pivots[j] = r
        r += 1
    basis = []
    free = [j for j in range(ncols) if j not in pivots]
    for j in free:
        v = [0] * ncols
        v[j] = 1
        for pj, pr in pivots.items():
            v[pj] = (-A[pr][j]) % p
        basis.append(tuple(v))
    return basis


def rref_mod_p(rows, ncols: int, p: int):
    """Reduced row echelon form over GF(p); returns (rows, pivot columns)."""
    A = [[a % p for a in r] for r in rows]
    pivots = []
    r = 0
    for j in range(ncols):
        piv = None
        for i in range(r, len(A)):
            if A[i][j] % p:
                piv = i
                break
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][j], -1, p)
        A[r] = [(a * inv) % p for a in A[r]]
        for i in range(len(A)):
            if i != r and A[i][j]:
                c = A[i][j]
                A[i] = [(a - c * b) % p for a, b in zip(A[i], A[r])]
        pivots.append(j)
        r += 1
    return [tuple(row) for row in A[:r]], pivots
