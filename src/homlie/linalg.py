"""Exact linear algebra over Q(L): matrices, echelon forms, subspaces.

Matrices are dense, row-major, immutable; every entry is a
:class:`homlie.scalar.Scalar`.  Columns act as vectors: ``A @ B`` means
the usual composition, and the column ``j`` of a map's matrix is the
image of the ``j``-th basis vector.

Reduction runs on sparse rows ``{col: Scalar}``: each row is reduced
against the pivot rows found so far and, if anything is left, inserted
normalised at its first nonzero column and cleared from the other pivot
rows, so only nonzeros are ever touched.  The reduced echelon form is
unique, so echelon forms — and therefore :class:`Subspace` bases — are
canonical and reproducible whatever the order of elimination.  A subspace
closure is a worklist over the same pivot rows.  Vectorisation
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
    def _of(cls, rows: int, cols: int, entries: tuple) -> "Matrix":
        """A matrix from a tuple of rows * cols Scalars, taken as they are."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "rows", rows)
        object.__setattr__(obj, "cols", cols)
        object.__setattr__(obj, "entries", entries)
        return obj

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [_coerce_row(r) for r in rows]
        if not rows:
            return cls._of(0, 0, ())
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ShapeMismatch("ragged rows")
        return cls._of(len(rows), n, tuple(x for r in rows for x in r))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls._of(rows, cols, (ZERO,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag) -> "Matrix":
        diag = _coerce_row(diag)
        n = len(diag)
        entries = tuple(diag[i] if i == j else ZERO for i in range(n) for j in range(n))
        return cls._of(n, n, entries)

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
        return Matrix._of(
            self.rows,
            self.cols,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._of(
            self.rows,
            self.cols,
            tuple(a - b for a, b in zip(self.entries, other.entries)),
        )

    def __neg__(self) -> "Matrix":
        return Matrix._of(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c) -> "Matrix":
        c = sc(c)
        return Matrix._of(self.rows, self.cols, tuple(c * a for a in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        n, m, k = self.rows, other.cols, self.cols
        brows = [tuple(_nonzeros(other.entries[t * m : (t + 1) * m]).items()) for t in range(k)]
        out = [ZERO] * (n * m)
        for i in range(n):
            base = i * m
            for t, a in enumerate(self.entries[i * k : (i + 1) * k]):
                if not a.is_zero():
                    for j, b in brows[t]:
                        out[base + j] = out[base + j] + a * b
        return Matrix._of(n, m, tuple(out))

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
        return Matrix._of(
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

# The sparse echelon kernel.  An echelon is a dict from pivot column to
# that pivot row, {col: Scalar} without the pivot's own entry (an implied
# 1); every pivot row is zero at the other pivot columns.

def _nonzeros(row) -> dict:
    return {j: x for j, x in enumerate(row) if not x.is_zero()}


def _dense(n: int, p: int, row: dict) -> list:
    v = [ZERO] * n
    v[p] = ONE
    for j, x in row.items():
        v[j] = x
    return v


def _subtract(v: dict, f: Scalar, row: dict):
    """v -= f * row, in place, dropping the entries that cancel."""
    for j, x in row.items():
        y = v.get(j, ZERO) - f * x
        if y.is_zero():
            del v[j]
        else:
            v[j] = y


def _reduce(v: dict, echelon: dict) -> dict:
    """Reduce the sparse row v in place against the echelon; returns v."""
    for p in [p for p in v if p in echelon]:
        _subtract(v, v.pop(p), echelon[p])
    return v


def _insert(v: dict, echelon: dict):
    """Reduce v and, unless it vanishes, add it to the echelon normalised at
    its first nonzero column, cleared from the other rows.  Returns that
    new pivot column, or None."""
    if not _reduce(v, echelon):
        return None
    q = min(v)
    inv = v.pop(q).inverse()
    if inv != ONE:
        v = {j: x * inv for j, x in v.items()}
    for row in echelon.values():
        if q in row:
            _subtract(row, row.pop(q), v)
    echelon[q] = v
    return q


def _rref_rows(rows):
    """In-place reduced row echelon form on a list of row lists: the pivot
    rows in column order, then the zero rows.  Returns (rank, pivot column
    list)."""
    echelon = {}
    for row in rows:
        _insert(_nonzeros(row), echelon)
    pivots = sorted(echelon)
    n, rank = (len(rows[0]) if rows else 0), len(pivots)
    rows[:] = [_dense(n, p, echelon[p]) for p in pivots] + [[ZERO] * n for _ in rows[rank:]]
    return rank, pivots


def rref_nullspace(A: Matrix):
    """Rank and (right) nullspace of A, the latter as a Subspace.

    The nullspace basis follows the standard free-column construction and
    is then put into reduced echelon form by the Subspace constructor.
    """
    return _nullspace(A.to_rows(), A.cols)


def _nullspace(rows, ncols: int):
    """:func:`rref_nullspace` of the system given as row lists, which are
    reduced in place."""
    rank, pivots = _rref_rows(rows)
    basis = []
    for j in sorted(set(range(ncols)) - set(pivots)):
        v = [ZERO] * ncols
        v[j] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][j]
        basis.append(v)
    return rank, Subspace(ncols, basis)


def det(A: Matrix) -> Scalar:
    """The product of the pivots met as the rows go into an echelon, signed
    by the permutation that sorts their pivot columns."""
    if not A.is_square():
        raise ShapeMismatch("determinant of a non-square matrix")
    echelon, order, d = {}, [], ONE
    for i in range(A.rows):
        v = _reduce(_nonzeros(A.row(i)), echelon)
        if not v:
            return ZERO
        order.append(min(v))
        d = d * v[order[-1]]
        _insert(v, echelon)
    swaps = sum(a > b for k, a in enumerate(order) for b in order[k + 1 :])
    return -d if swaps % 2 else d


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
    return Matrix._of(rows, cols, tuple(out))


def vec(X: Matrix) -> tuple:
    """Column-stacking vectorisation: vec(X)[j*rows + i] = X[i, j]."""
    return tuple(X[i, j] for j in range(X.cols) for i in range(X.rows))


def unvec(v, rows: int, cols: int) -> Matrix:
    v = _coerce_row(v)
    if len(v) != rows * cols:
        raise ShapeMismatch(f"vector of length {len(v)} is not {rows}x{cols}")
    return Matrix._of(rows, cols, tuple(v[j * rows + i] for i in range(rows) for j in range(cols)))


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A subspace of Q(L)^n held as a reduced-echelon row basis.

    Equality of subspaces is equality of the canonical bases, so no
    membership loops are ever needed to compare them.
    """

    __slots__ = ("ambient_dim", "basis", "_echelon")

    def __init__(self, ambient_dim: int, vectors=()):
        rows = [list(_coerce_row(v)) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise ShapeMismatch(
                    f"vector of length {len(r)} in ambient dimension {ambient_dim}"
                )
        rank, pivots = _rref_rows(rows)
        basis = tuple(tuple(r) for r in rows[:rank])
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_echelon", {
            p: {j: x for j, x in _nonzeros(r).items() if j != p}
            for p, r in zip(pivots, basis)
        })

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
        v = _coerce_row(v)
        if len(v) != self.ambient_dim:
            raise ShapeMismatch("vector/ambient dimension mismatch")
        return not _reduce(_nonzeros(v), self._echelon)

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
        (a list of vectors) for each of its members v.

        ``images`` must be linear in v: then the images of a spanning set
        span the images of every member.  So the closure is a worklist:
        each image is reduced once against the pivot rows, and only a new
        direction, the image left after reduction, is imaged in turn.
        """
        n = self.ambient_dim
        echelon = {p: dict(row) for p, row in self._echelon.items()}
        todo = list(self.basis)
        while todo:
            for w in images(todo.pop()):
                q = _insert(_nonzeros(w), echelon)
                if q is not None:
                    todo.append(_dense(n, q, echelon[q]))
        return Subspace(n, [_dense(n, p, echelon[p]) for p in sorted(echelon)])


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
    rows = []
    for P, Q in pairs:
        for a in range(m):
            column = P.column(a)
            for p in range(m):
                row = [ZERO] * (m * m)
                row[a * m : (a + 1) * m] = Q.row(p)
                for b, y in enumerate(column):
                    if not y.is_zero():
                        row[b * m + p] = row[b * m + p] - y
                rows.append(row)
    return _nullspace(rows, m * m)[1]
