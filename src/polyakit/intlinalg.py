"""Exact integer and mod-p linear algebra: HNF, SNF, kernels, and the
enumeration of a rank-3 coefficient box line by line (`lattice_lines`:
the first two coefficients fixed, the third running over the line), so
that a caller can evaluate a function of the point, such as a norm form,
along a whole line at once.

Everything here works on plain Python ints (arbitrary precision) and
dense matrices given as sequences of rows.  No external dependencies.
Most matrices in this package are a few rows by three columns (ideal and
order lattices) or by the rank of a small abelian group; the class-group
relation lattices are the large ones, thousands of sparse rows by up to
about 70 columns.  `HermiteBasis` grows one such lattice a row at a time,
modulo its determinant once the rank is full, so a caller can read the
determinant (and stop adding rows) at any point; `hnf_rows` is the
one-shot form of it.  Once the rank is full most incoming relations
already lie in the lattice L, and the basis tests each one in the
quotient Z^ncols/L first: its image on the few columns whose pivot is
not 1, reduced through their triangular block (`_quotient_map`), is 0
exactly for the rows of L, which are then dropped without an insertion.
"""

from __future__ import annotations

from operator import mul


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


def _reduce_above(basis, hi: int, lo: int, det: int) -> None:
    """Reduce the rows basis[hi], ..., basis[lo], bottom up, at every pivot
    column to their right into [0, pivot), using the rows below them; with
    det > 0 every entry a row operation touches is also taken mod det."""
    ncols = len(basis)
    for i in range(hi, lo - 1, -1):
        row = basis[i]
        if row is None:
            continue
        for t in range(i + 1, ncols):
            a = row[t]
            if a:
                b = basis[t]
                if b is not None:
                    q = a // b[t]
                    if q:
                        if det:
                            row[t:] = [(x - q * y) % det for x, y in zip(row[t:], b[t:])]
                        else:
                            row[t:] = [x - q * y for x, y in zip(row[t:], b[t:])]


def _quotient_map(basis, det: int):
    """(cols, block) for a full-rank upper-triangular basis of a lattice
    L with determinant det, whose m pivots above 1 sit at the columns
    t_0 < ... < t_{m-1}: the map from Z^ncols onto Z^m that takes each
    vector to one congruent to it mod L and zero at every pivot-1 column.

    Coordinate i of the image of e_j is cols[i][j].  The image of e_t_i
    is e_t_i itself.  For a pivot 1 at j, e_j = b_j - sum_{s>j} b_j[s]*e_s
    is congruent to minus that sum, so the images are built bottom up;
    every entry is taken mod det, since det*Z^ncols lies in L.  `block`
    holds the images of the basis rows b_t_i: upper triangular with
    those pivots on the diagonal, and a basis of the vectors of L that
    vanish at every pivot-1 column.  So a vector lies in L exactly when
    its image reduces to 0 through the block (`_in_lattice`).  The basis
    rows need not be reduced above the pivots.
    """
    ncols = len(basis)
    tops = [j for j, b in enumerate(basis) if b[j] != 1]
    cols = [[0] * ncols for _ in tops]
    block = []
    for j in range(ncols - 1, -1, -1):
        b = basis[j]
        tail = b[j + 1:]
        image = [sum(map(mul, tail, c[j + 1:])) % det for c in cols]
        if b[j] == 1:
            for c, x in zip(cols, image):
                c[j] = -x % det
        else:
            i = tops.index(j)
            cols[i][j] = 1
            image[i] = b[j]
            block.append(image)
    block.reverse()
    return cols, block


def _in_lattice(quotient, row) -> bool:
    """Whether `row` lies in the lattice of the `_quotient_map` `quotient`:
    its image, reduced down the block, is 0."""
    cols, block = quotient
    image = [sum(map(mul, row, c)) for c in cols]
    for i, b in enumerate(block):
        q, r = divmod(image[i], b[i])
        if r:
            return False
        if q:
            image[i + 1:] = [x - q * y for x, y in zip(image[i + 1:], b[i + 1:])]
    return True


class HermiteBasis:
    """A lattice in Z^ncols grown one row at a time, kept in Hermite form.

    `add(row)` inserts one row and `extend(rows)` several; `rows()`
    returns the canonical HNF of the rows added so far: row-echelon with
    positive pivots, entries above each pivot reduced into [0, pivot).
    More rows may be added after a `rows()` call.  `det` is 0 until
    every column has a pivot, and then the determinant of the lattice,
    so `det == 1` exactly when the lattice is all of Z^ncols.

    Method: HNF modulo the determinant (Cohen, GTM 138, Alg. 2.4.8;
    Domich-Kannan-Trotter 1987), inserting one row at a time into an
    upper-triangular basis keyed by pivot column.  Where the row's
    leading column already has a pivot a, it subtracts a multiple of
    that basis row when a divides its entry, and otherwise takes one
    Bezout step, which shrinks the pivot to the gcd.  Once every column
    has a pivot, det is their product, so det*Z^ncols lies inside the
    lattice: from then on incoming rows and every row operation right of
    a pivot are taken mod det, and det shrinks with the pivots.  That
    bounds entry growth on tall relation matrices.  Also from then on,
    each incoming row is first tested in the quotient by L (the split
    into an easy part, the pivot-1 columns, and a hard one, Cohen
    §6.5.2; Hafner-McCurley 1989): `_quotient_map` sends e_j to a vector
    congruent to it mod L on the m columns whose pivot is above 1, and
    a row lies in L exactly when its image reduces to 0 through the
    m x m block of those pivot rows.  Such a row is dropped, at a cost
    of m dot products; any other row is inserted as above and drops the
    map.  The map is built when an inserted row turns out to lie in L
    already (det did not change), so a lattice whose rows mostly shrink
    det, such as a 3-column ideal lattice, rarely pays for one.  Each
    row outside L divides det by at least 2, so a lattice builds the
    map at most about log2(det) + 1 times.

    Invariant: the basis rows span the lattice of the rows added so far;
    once det > 0 that lattice contains det*Z^ncols, so reducing mod det
    leaves it unchanged.  A basis row is reduced above the later pivots
    before it is subtracted from another row, so it adds no entries in
    columns whose pivot is 1.  The HNF of a lattice is unique, so
    `rows()` does not depend on the order of the rows added.
    """

    __slots__ = ("ncols", "det", "_basis", "_free", "_dirty", "_quotient")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.det = int(ncols == 0)
        self._basis: list[list[int] | None] = [None] * ncols
        self._free = ncols  # columns without a pivot
        self._dirty = -1  # basis rows 0.._dirty may need _reduce_above
        self._quotient = None  # _quotient_map of the basis, or None

    def add(self, row) -> None:
        """Insert one row of `ncols` integers."""
        self.extend((row,))

    def extend(self, rows) -> None:
        """Insert rows of `ncols` integers, one at a time."""
        basis, det, dirty, free = self._basis, self.det, self._dirty, self._free
        ncols, quotient = self.ncols, self._quotient
        for row in rows:
            if quotient is not None:
                if _in_lattice(quotient, row):
                    continue
                quotient = None
            before = det
            v = [a % det for a in row] if det else list(row)
            for j in range(ncols):
                c = v[j]
                if not c:
                    continue
                b = basis[j]
                if b is None:
                    if c < 0:
                        v = [-a for a in v]
                    basis[j] = v
                    dirty = j if j > dirty else dirty
                    free -= 1
                    if not free:
                        det = 1
                        for i, r in enumerate(basis):
                            det *= r[i]
                    break
                a = b[j]
                if c % a:
                    g, x, y = _ext_gcd(a, c)
                    u, w = a // g, c // g
                    b = [x * p + y * q for p, q in zip(basis[j], v)]
                    if det:
                        det = det // a * g
                        b[j + 1:] = [t % det for t in b[j + 1:]]
                        v = [(u * q - w * p) % det for p, q in zip(basis[j], v)]
                    else:
                        v = [u * q - w * p for p, q in zip(basis[j], v)]
                    basis[j] = b
                    dirty = j if j > dirty else dirty
                else:
                    if j <= dirty:
                        _reduce_above(basis, dirty, j, det)
                        dirty = j - 1
                    q = c // a
                    if det:
                        v[j:] = [(p - q * r) % det for p, r in zip(v[j:], b[j:])]
                    else:
                        v[j:] = [p - q * r for p, r in zip(v[j:], b[j:])]
            if before and det == before:
                # the row lay in the lattice already, as the next ones
                # likely will: test those in the quotient
                quotient = _quotient_map(basis, det)
        self.det, self._dirty, self._free, self._quotient = det, dirty, free, quotient

    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The nonzero rows of the canonical HNF of the rows added so far."""
        _reduce_above(self._basis, self._dirty, 0, self.det)
        self._dirty = -1
        return tuple(tuple(row) for row in self._basis if row is not None)


def hnf_rows(rows, ncols: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Row-style Hermite normal form of the lattice spanned by `rows`:
    the nonzero rows of the canonical form (see HermiteBasis).  For a
    full-rank square input this is the upper-triangular HNF.  The rows
    have `ncols` entries each (default: the length of the first)."""
    rows = list(rows)
    if not rows:
        return ()
    basis = HermiteBasis(len(rows[0]) if ncols is None else ncols)
    basis.extend(rows)
    return basis.rows()


def hnf_pivots(hnf: tuple[tuple[int, ...], ...]) -> list[int]:
    """Pivot column of each row of an HNF matrix."""
    cols = []
    for row in hnf:
        for j, a in enumerate(row):
            if a != 0:
                cols.append(j)
                break
    return cols


def lattice_coordinates(hnf: tuple[tuple[int, ...], ...], vec) -> list[int] | None:
    """The integer coordinates c with vec = sum c_i * hnf[i], solved row
    by row down the pivots of the HNF rows, or None when `vec` is not in
    their lattice."""
    v = list(vec)
    coords = []
    for row, j in zip(hnf, hnf_pivots(hnf)):
        q, r = divmod(v[j], row[j])
        if r:
            return None
        coords.append(q)
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return None if any(v) else coords


def lattice_contains(hnf: tuple[tuple[int, ...], ...], vec) -> bool:
    """Whether `vec` lies in the lattice spanned by the HNF rows."""
    return lattice_coordinates(hnf, vec) is not None


def det3(m) -> int:
    """Determinant of a 3x3 matrix (rows of ints, Fractions or complex)."""
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def adj3(m) -> tuple[tuple, ...]:
    """Adjugate of a 3x3 matrix: m * adj3(m) = adj3(m) * m = det3(m) * I."""
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


def invert3(m) -> list[list]:
    """Inverse of a 3x3 matrix via the adjugate, dividing as x / det:
    exact for Fraction entries, float or complex arithmetic otherwise."""
    det = det3(m)
    if det == 0:
        raise ZeroDivisionError("singular matrix")
    return [[x / det for x in row] for row in adj3(m)]


def _zigzag(cap: int, lo: int = 0, nonneg: bool = False):
    """lo, -lo, lo+1, -(lo+1), ..., cap, -cap, with 0 once and no
    negatives when `nonneg`."""
    for v in range(lo, cap + 1):
        yield v
        if v and not nonneg:
            yield -v


def lattice_lines(caps, skip: int = -1):
    """The box |c_t| <= caps[t] with max |c_t| > skip, one of each pair
    +-c (the one whose first nonzero c_t is positive), as lines: triples
    (c0, c1, xs) with xs the tuple of c2 values on the line (c0, c1),
    which may be shared with other lines.  Lines with no c2 value left
    are left out.

    c0 is the outermost loop and each c_t runs 0, 1, -1, 2, -2, ..., so
    flattening the lines gives the full box's nested order with the
    other half of each pair left out.  A caller that fixes c0 and c1 can
    treat a function of c as one of c2 alone along each line.
    """
    floor = max(skip, 0)
    # c2 alone must lift max |c_t| above skip, and above 0
    every = tuple(_zigzag(caps[2]))
    outside = tuple(_zigzag(caps[2], floor + 1))
    first = tuple(_zigzag(caps[2], floor + 1, nonneg=True))
    for c0 in _zigzag(caps[0], nonneg=True):
        for c1 in _zigzag(caps[1], nonneg=c0 == 0):
            if max(c0, abs(c1)) > floor:
                xs = every
            else:
                xs = outside if c0 or c1 else first
            if xs:
                yield c0, c1, xs


def smith_normal_form(rows, ncols: int):
    """Smith normal form of an integer matrix A (Cohen, GTM 138, 2.4.3).

    Returns (diag, V) with V unimodular and A @ V = U^-1 @ D for some
    unimodular U that is not built: the row lattice of A @ V is that of
    D, so the columns of V present Z^ncols / rowspace(A).  diag is the
    list of the min(m, n) diagonal entries of D, all >= 0, satisfying
    the divisibility chain d0 | d1 | ... (trailing entries are 0 if the
    matrix has deficient rank).

    Rows may be empty, in which case diag is empty too.
    """
    m = len(rows)
    n = ncols
    A = [list(r) for r in rows]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row i -= q * row j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]

    def col_op(i, j, q):  # col i -= q * col j
        for row in A:
            row[i] -= q * row[j]
        for row in V:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < m and t < n:
        # find the first smallest nonzero entry in the remaining
        # submatrix; no later entry beats an entry of absolute value 1
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                a = abs(A[i][j])
                if a and (best is None or a < best):
                    best = a
                    piv = (i, j)
                    if a == 1:
                        break
            if best == 1:
                break
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

    return [abs(A[k][k]) for k in range(min(m, n))], V


def kernel_mod_p(rows, ncols: int, p: int) -> list[tuple[int, ...]]:
    """Basis of the right kernel of a matrix over GF(p).

    `rows` are the matrix rows; solves A x = 0 for column vectors x,
    returned as tuples of ints in [0, p).  The basis is the canonical one
    read off `rref_mod_p`: one vector per free column j, in increasing j,
    with 1 at j, 0 at the other free columns and -R[r][j] at the pivot
    column of each row r of the reduced form R.
    """
    red, pivots = rref_mod_p(rows, ncols, p)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [0] * ncols
        v[j] = 1
        for row, pj in zip(red, pivots):
            v[pj] = -row[j] % p
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
