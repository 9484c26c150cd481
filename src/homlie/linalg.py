"""Exact linear algebra over Q(L): matrices, echelon forms, subspaces.

Matrices are dense, row-major, immutable; every entry is a
:class:`homlie.scalar.Scalar`.  Columns act as vectors: ``A @ B`` means
the usual composition, and the column ``j`` of a map's matrix is the
image of the ``j``-th basis vector.

Reduction uses plain Gaussian elimination over the field with the first
nonzero entry in column order as pivot; a row update skips the zeros of
the pivot row.  The reduced echelon form is unique, so echelon forms — and
therefore :class:`Subspace` bases — are canonical and reproducible.  Vectorisation
is column-stacking: ``vec(X)[j*rows + i] = X[i, j]``, which turns
``Q @ X - X @ P = 0`` into ``(I (x) Q - P^T (x) I) vec(X) = 0``.
"""

from __future__ import annotations

from .scalar import ONE, Scalar, ZERO, sc
from .scalar import HomLieError


class ShapeMismatch(HomLieError):
    pass


class Singular(HomLieError):
    pass


def _coerce_row(row):
    return tuple(sc(x) for x in row)


class Matrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(sc(x) for x in entries)
        if len(entries) != rows * cols:
            raise ShapeMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [_coerce_row(r) for r in rows]
        if not rows:
            return cls(0, 0, ())
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ShapeMismatch("ragged rows")
        return cls(len(rows), n, tuple(x for r in rows for x in r))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (ZERO,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag) -> "Matrix":
        diag = _coerce_row(diag)
        n = len(diag)
        return cls(n, n, tuple(diag[i] if i == j else ZERO for i in range(n) for j in range(n)))

    @classmethod
    def from_columns(cls, cols) -> "Matrix":
        return cls.from_rows(cols).transpose()

    # -- access ----------------------------------------------------------------

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        from .scalar import render_scalar

        body = "; ".join(
            ", ".join(render_scalar(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"Matrix[{body}]"

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic --------------------------------------------------------------

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            self.rows,
            self.cols,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            self.rows,
            self.cols,
            tuple(a - b for a, b in zip(self.entries, other.entries)),
        )

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c) -> "Matrix":
        c = sc(c)
        return Matrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        n, m, k = self.rows, other.cols, self.cols
        out = [ZERO] * (n * m)
        for i in range(n):
            arow = self.entries[i * k : (i + 1) * k]
            for t in range(k):
                a = arow[t]
                if a.is_zero():
                    continue
                brow = other.entries[t * m : (t + 1) * m]
                base = i * m
                for j in range(m):
                    b = brow[j]
                    if not b.is_zero():
                        out[base + j] = out[base + j] + a * b
        return Matrix(n, m, tuple(out))

    def apply(self, v) -> tuple:
        """Apply to a coordinate vector (length = cols); returns a tuple."""
        v = _coerce_row(v)
        if len(v) != self.cols:
            raise ShapeMismatch(f"vector length {len(v)} vs {self.cols} columns")
        out = [ZERO] * self.rows
        for j, x in enumerate(v):
            if x.is_zero():
                continue
            for i in range(self.rows):
                e = self.entries[i * self.cols + j]
                if not e.is_zero():
                    out[i] = out[i] + e * x
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            tuple(
                self.entries[i * self.cols + j]
                for j in range(self.cols)
                for i in range(self.rows)
            ),
        )

    def trace(self) -> Scalar:
        if not self.is_square():
            raise ShapeMismatch("trace of a non-square matrix")
        t = ZERO
        for i in range(self.rows):
            t = t + self.entries[i * self.cols + i]
        return t

    def power(self, k: int) -> "Matrix":
        if not self.is_square():
            raise ShapeMismatch("power of a non-square matrix")
        if k < 0:
            return inverse(self).power(-k)
        out, base = Matrix.identity(self.rows), self
        while k:
            if k & 1:
                out = out @ base
            k >>= 1
            if k:
                base = base @ base
        return out


# ---------------------------------------------------------------------------
# echelon forms
# ---------------------------------------------------------------------------

def _clear_column(rows, r, col, targets):
    """In place, zero column ``col`` of the target rows other than ``r`` with
    the pivot row ``rows[r]`` (1 at ``col``), at its nonzero columns only."""
    nonzero = [(j, x) for j, x in enumerate(rows[r]) if not x.is_zero()]
    for i in targets:
        row = rows[i]
        f = row[col]
        if i != r and not f.is_zero():
            f = -f
            for j, x in nonzero:
                row[j] = row[j] + f * x


def _rref_rows(rows):
    """In-place reduced row echelon form on a list of row lists.

    Returns (rank, pivot column list).  Pivot choice: first row with a
    nonzero entry in the current column, columns scanned left to right.
    """
    if not rows:
        return 0, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if not rows[i][col].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [x * inv for x in rows[r]]
        _clear_column(rows, r, col, range(len(rows)))
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return r, pivots


def rref(A: Matrix):
    """Reduced row echelon form of A; returns (R, rank, pivot columns)."""
    rows = A.to_rows()
    rank, pivots = _rref_rows(rows)
    return Matrix.from_rows(rows), rank, pivots


def rref_nullspace(A: Matrix):
    """Rank and (right) nullspace of A, the latter as a Subspace.

    The nullspace basis follows the standard free-column construction and
    is then put into reduced echelon form by the Subspace constructor.
    """
    rows = A.to_rows()
    rank, pivots = _rref_rows(rows)
    free = [j for j in range(A.cols) if j not in pivots]
    basis = []
    for j in free:
        v = [ZERO] * A.cols
        v[j] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][j]
        basis.append(v)
    return rank, Subspace(A.cols, basis)


def det(A: Matrix) -> Scalar:
    if not A.is_square():
        raise ShapeMismatch("determinant of a non-square matrix")
    rows = A.to_rows()
    n = A.rows
    d = ONE
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if not rows[i][col].is_zero():
                pivot = i
                break
        if pivot is None:
            return ZERO
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            d = -d
        p = rows[col][col]
        d = d * p
        inv = p.inverse()
        rows[col] = [x * inv for x in rows[col]]
        _clear_column(rows, col, col, range(col + 1, n))
    return d


def inverse(A: Matrix) -> Matrix:
    if not A.is_square():
        raise ShapeMismatch("inverse of a non-square matrix")
    n = A.rows
    aug = [list(A.row(i)) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    _, pivots = _rref_rows(aug)
    # the augmented identity always brings the row rank up to n, so
    # invertibility means every pivot landed in the left block
    if pivots[:n] != list(range(n)):
        raise Singular("matrix is not invertible")
    return Matrix.from_rows([row[n:] for row in aug])


def kronecker(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product in lexicographic basis order: (A(x)B)(u(x)v) = Au (x) Bv."""
    rows = A.rows * B.rows
    cols = A.cols * B.cols
    out = [ZERO] * (rows * cols)
    for i in range(A.rows):
        for j in range(A.cols):
            a = A[i, j]
            if a.is_zero():
                continue
            for p in range(B.rows):
                for q in range(B.cols):
                    b = B[p, q]
                    if not b.is_zero():
                        out[(i * B.rows + p) * cols + (j * B.cols + q)] = a * b
    return Matrix(rows, cols, tuple(out))


def vec(X: Matrix) -> tuple:
    """Column-stacking vectorisation: vec(X)[j*rows + i] = X[i, j]."""
    return tuple(X[i, j] for j in range(X.cols) for i in range(X.rows))


def unvec(v, rows: int, cols: int) -> Matrix:
    v = _coerce_row(v)
    if len(v) != rows * cols:
        raise ShapeMismatch(f"vector of length {len(v)} is not {rows}x{cols}")
    return Matrix(rows, cols, tuple(v[j * rows + i] for i in range(rows) for j in range(cols)))


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A subspace of Q(L)^n held as a reduced-echelon row basis.

    Equality of subspaces is equality of the canonical bases, so no
    membership loops are ever needed to compare them.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, vectors=()):
        rows = [list(_coerce_row(v)) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise ShapeMismatch(
                    f"vector of length {len(r)} in ambient dimension {ambient_dim}"
                )
        rank, _ = _rref_rows(rows)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(tuple(r) for r in rows[:rank]))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim).to_rows())

    @classmethod
    def column_space(cls, A: Matrix) -> "Subspace":
        return cls(A.rows, [A.column(j) for j in range(A.cols)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        from .scalar import render_scalar

        vecs = "; ".join(
            ", ".join(render_scalar(x) for x in v) for v in self.basis
        )
        return f"Subspace({self.dim} of {self.ambient_dim}: [{vecs}])"

    def contains_vector(self, v) -> bool:
        v = list(_coerce_row(v))
        if len(v) != self.ambient_dim:
            raise ShapeMismatch("vector/ambient dimension mismatch")
        for row in self.basis:
            pivot = next(j for j, x in enumerate(row) if not x.is_zero())
            if not v[pivot].is_zero():
                f = v[pivot]
                v = [a - f * b for a, b in zip(v, row)]
        return all(x.is_zero() for x in v)

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(v) for v in other.basis)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ShapeMismatch("subspace sum across different ambient spaces")
        return Subspace(self.ambient_dim, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the nullspace of the stacked relation system."""
        if self.ambient_dim != other.ambient_dim:
            raise ShapeMismatch("intersection across different ambient spaces")
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.ambient_dim)
        a, b = self.dim, other.dim
        # columns: coefficients (u, w) with u*A = w*B; rows: ambient coords
        rows = []
        for j in range(self.ambient_dim):
            rows.append(
                [self.basis[i][j] for i in range(a)]
                + [-other.basis[i][j] for i in range(b)]
            )
        _, null = rref_nullspace(Matrix.from_rows(rows))
        vecs = []
        for coeffs in null.basis:
            v = [ZERO] * self.ambient_dim
            for i in range(a):
                c = coeffs[i]
                if not c.is_zero():
                    for j in range(self.ambient_dim):
                        v[j] = v[j] + c * self.basis[i][j]
            vecs.append(v)
        return Subspace(self.ambient_dim, vecs)

    def orthogonal_complement(self, gram: Matrix) -> "Subspace":
        """All x with v^T G x = 0 for every v in this subspace."""
        if gram.rows != self.ambient_dim or gram.cols != self.ambient_dim:
            raise ShapeMismatch("gram matrix does not match ambient dimension")
        if self.is_zero():
            return Subspace.full(self.ambient_dim)
        B = Matrix.from_rows(self.basis)
        _, null = rref_nullspace(B @ gram)
        return null

    def image_under(self, A: Matrix) -> "Subspace":
        if A.cols != self.ambient_dim:
            raise ShapeMismatch("map does not act on this ambient space")
        return Subspace(A.rows, [A.apply(v) for v in self.basis])

    def closure(self, images) -> "Subspace":
        """Smallest subspace containing this one that holds ``images(v)``
        (a list of vectors) for each of its members v."""
        current = self
        while True:
            vecs = list(current.basis)
            for v in current.basis:
                vecs.extend(images(v))
            grown = Subspace(self.ambient_dim, vecs)
            if grown.dim == current.dim:
                return grown
            current = grown


def vzero(n: int) -> tuple:
    return (ZERO,) * n


def vadd(u, v) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def vscale(c, v) -> tuple:
    c = sc(c)
    return tuple(c * a for a in v)


def vdot(u, v) -> Scalar:
    acc = ZERO
    for a, b in zip(u, v):
        if not (a.is_zero() or b.is_zero()):
            acc = acc + a * b
    return acc


def is_vzero(v) -> bool:
    return all(a.is_zero() for a in v)


def solve_commutant(pairs) -> Subspace:
    """All X with Q_i @ X = X @ P_i for every pair (P_i, Q_i).

    Solved by column-stacking vectorisation: each pair contributes the
    block ``I (x) Q_i - P_i^T (x) I`` and the blocks are stacked.  Row
    ``a*m + p`` of a block, ``Q[p, q]`` at ``a*m + q`` less ``P[b, a]`` at
    ``b*m + p``, is written from those nonzeros without forming the Kronecker
    products.  The result lives in the vectorised space of m x m matrices;
    use :func:`unvec` to reshape basis elements.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("solve_commutant needs at least one pair")
    m = pairs[0][0].rows
    for P, Q in pairs:
        if not (P.is_square() and Q.is_square() and P.rows == m and Q.rows == m):
            raise ShapeMismatch("all pairs must be square of one common size")
    entries = []
    for P, Q in pairs:
        for a in range(m):
            column = P.column(a)
            for p in range(m):
                row = [ZERO] * (m * m)
                row[a * m : (a + 1) * m] = Q.row(p)
                for b, y in enumerate(column):
                    if not y.is_zero():
                        row[b * m + p] = row[b * m + p] - y
                entries.extend(row)
    _, null = rref_nullspace(Matrix(len(pairs) * m * m, m * m, entries))
    return null
