"""Matrices and subspaces over Q(L).

Rank expectations are cross-checked against a cofactor-expansion minor
oracle, and the commutant solver against direct substitution — both
implemented here, independent of the library's elimination code.  The
sparse elimination is also compared with the dense one it replaced, kept
here as a reference, and with the explicitly stacked Kronecker system.
"""

import itertools
import random
from fractions import Fraction

import pytest

from homlie.linalg import (
    Matrix,
    ShapeMismatch,
    Singular,
    Subspace,
    _rref_rows,
    det,
    inverse,
    kronecker,
    rref_nullspace,
    solve_commutant,
    unvec,
    vec,
)
from homlie.scalar import L, ONE, ZERO, sc


def rand_frac(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 2))


def rand_matrix(rng, n, m=None):
    m = n if m is None else m
    return Matrix(n, m, tuple(sc(rand_frac(rng)) for _ in range(n * m)))


# --- independent oracles ------------------------------------------------------

def oracle_det(rows):
    """Cofactor expansion along the first row; rows is a list of Scalar lists."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = ZERO
    sign = ONE
    for j in range(n):
        a = rows[0][j]
        if not a.is_zero():
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total = total + sign * a * oracle_det(minor)
        sign = -sign
    return total


def oracle_rank_by_minors(A):
    rows = A.to_rows()
    for k in range(min(A.rows, A.cols), 0, -1):
        for rsel in itertools.combinations(range(A.rows), k):
            for csel in itertools.combinations(range(A.cols), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                if not oracle_det(sub).is_zero():
                    return k
    return 0


# --- matrix operators -----------------------------------------------------------

def test_mat_arith_trivial():
    I2 = Matrix.identity(2)
    assert I2 @ I2 == I2
    d = Matrix.diagonal([L, ONE / L])
    dinv = Matrix.diagonal([ONE / L, L])
    assert d @ dinv == I2
    e12 = Matrix.from_rows([[0, 1], [0, 0]])
    e21 = Matrix.from_rows([[0, 0], [1, 0]])
    got = e12 @ e21 - e21 @ e12
    assert got == Matrix.diagonal([1, -1])
    assert I2.scale(L) == Matrix.diagonal([L, L])
    with pytest.raises(ShapeMismatch):
        Matrix.zero(2, 3) + I2


# --- rref / nullspace --------------------------------------------------------------

def test_rref_nullspace_examples():
    rank, null = rref_nullspace(Matrix.zero(3, 3))
    assert rank == 0 and null == Subspace.full(3)

    rank, null = rref_nullspace(Matrix.identity(3))
    assert rank == 3 and null.is_zero()

    A = Matrix.from_rows([[ONE, L], [L, L * L]])
    rank, null = rref_nullspace(A)
    assert rank == 1
    assert null == Subspace(2, [(-L, ONE)])  # hand elimination: row2 = L * row1


def test_rank_matches_minor_oracle():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            A = rand_matrix(rng, n, rng.randint(1, 4))
            rank, null = rref_nullspace(A)
            assert rank == oracle_rank_by_minors(A)
            assert rank + null.dim == A.cols
            for v in null.basis:
                assert all(x.is_zero() for x in A.apply(v))


def test_rank_with_symbolic_entries():
    A = Matrix.from_rows([[ONE, L, ZERO], [L, L * L, ZERO], [ZERO, ZERO, L - ONE]])
    rank, _ = rref_nullspace(A)
    assert rank == oracle_rank_by_minors(A) == 2


# --- inverse ----------------------------------------------------------------------

def test_inverse_examples():
    assert inverse(Matrix.diagonal([L, ONE / L])) == Matrix.diagonal([ONE / L, L])
    assert inverse(Matrix.identity(4)) == Matrix.identity(4)
    assert inverse(Matrix.from_rows([[1, 1], [0, 1]])) == Matrix.from_rows(
        [[1, -1], [0, 1]]
    )
    with pytest.raises(Singular):
        inverse(Matrix.from_rows([[ONE, L], [L, L * L]]))


def test_inverse_round_trip_random():
    rng = random.Random(11)
    n_found = 0
    while n_found < 8:
        n = rng.randint(1, 4)
        A = rand_matrix(rng, n)
        if det(A).is_zero():
            continue
        n_found += 1
        B = inverse(A)
        assert A @ B == Matrix.identity(n)
        assert B @ A == Matrix.identity(n)


def test_det_matches_oracle():
    rng = random.Random(13)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            A = rand_matrix(rng, n)
            assert det(A) == oracle_det(A.to_rows())
    # symbolic case
    A = Matrix.from_rows([[L, ONE], [ONE, L]])
    assert det(A) == L * L - ONE


# --- kronecker ----------------------------------------------------------------------

def test_kronecker_examples():
    assert kronecker(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)
    a, b, c, d = sc(2), sc(3), L, ONE / L
    assert kronecker(Matrix.diagonal([a, b]), Matrix.diagonal([c, d])) == (
        Matrix.diagonal([a * c, a * d, b * c, b * d])
    )


def test_kronecker_mixed_product():
    rng = random.Random(17)
    for _ in range(6):
        A, B, C, D = (rand_matrix(rng, 2) for _ in range(4))
        assert kronecker(A, B) @ kronecker(C, D) == kronecker(A @ C, B @ D)


def test_vec_identity():
    rng = random.Random(19)
    A = rand_matrix(rng, 2, 3)
    X = rand_matrix(rng, 3, 2)
    B = rand_matrix(rng, 2, 2)
    lhs = vec(A @ X @ B)
    rhs = (kronecker(B.transpose(), A)).apply(vec(X))
    assert lhs == tuple(rhs)
    assert unvec(vec(X), 3, 2) == X


# --- solve_commutant ----------------------------------------------------------------

def test_commutant_with_identity_is_everything():
    I2 = Matrix.identity(2)
    sol = solve_commutant([(I2, I2)])
    assert sol.dim == 4 and sol.ambient_dim == 4


def test_commutant_zero_pair_forces_zero():
    sol = solve_commutant([(Matrix.zero(2, 2), Matrix.identity(2))])
    assert sol.is_zero()


def test_commutant_sl2_diagonal_twist():
    # standard 2-dimensional action paired with its image under the
    # diagonal twist e -> L e, f -> (1/L) f, h -> h
    rho_e = Matrix.from_rows([[0, 1], [0, 0]])
    rho_f = Matrix.from_rows([[0, 0], [1, 0]])
    rho_h = Matrix.diagonal([1, -1])
    pairs = [
        (rho_e, rho_e.scale(L)),
        (rho_f, rho_f.scale(ONE / L)),
        (rho_h, rho_h),
    ]
    sol = solve_commutant(pairs)
    assert sol.dim == 1
    assert sol == Subspace(4, [vec(Matrix.diagonal([ONE, ONE / L]))])
    # substitution: every basis element solves every pair exactly
    for b in sol.basis:
        X = unvec(b, 2, 2)
        for P, Q in pairs:
            assert (Q @ X) == (X @ P)


def test_commutant_substitution_random():
    rng = random.Random(23)
    for _ in range(5):
        pairs = [(rand_matrix(rng, 2), rand_matrix(rng, 2)) for _ in range(2)]
        sol = solve_commutant(pairs)
        for b in sol.basis:
            X = unvec(b, 2, 2)
            for P, Q in pairs:
                assert Q @ X == X @ P


# --- subspaces -------------------------------------------------------------------------

def test_subspace_canonical_equality():
    s1 = Subspace(3, [(1, 1, 0), (0, 1, 1)])
    s2 = Subspace(3, [(1, 2, 1), (1, 0, -1)])
    assert s1 == s2
    assert s1.contains_vector((2, 3, 1))
    assert not s1.contains_vector((0, 0, 1))


def test_subspace_sum_and_intersection():
    a = Subspace(3, [(1, 0, 0), (0, 1, 0)])
    b = Subspace(3, [(0, 1, 0), (0, 0, 1)])
    assert a.add(b) == Subspace.full(3)
    assert a.intersect(b) == Subspace(3, [(0, 1, 0)])
    assert a.intersect(Subspace.zero(3)).is_zero()


def test_subspace_intersection_random_consistency():
    rng = random.Random(29)
    for _ in range(6):
        a = Subspace(4, [[rand_frac(rng) for _ in range(4)] for _ in range(2)])
        b = Subspace(4, [[rand_frac(rng) for _ in range(4)] for _ in range(2)])
        cap = a.intersect(b)
        for v in cap.basis:
            assert a.contains_vector(v) and b.contains_vector(v)
        assert a.add(b).dim == a.dim + b.dim - cap.dim


def test_orthogonal_complement():
    gram = Matrix.from_rows([[0, 4, 0], [4, 0, 0], [0, 0, 8]])
    first = Subspace(3, [(1, 0, 0)])
    comp = first.orthogonal_complement(gram)
    # pairing with the first coordinate reads off the second coordinate
    assert comp == Subspace(3, [(1, 0, 0), (0, 0, 1)])
    assert first.orthogonal_complement(Matrix.identity(3)) == Subspace(
        3, [(0, 1, 0), (0, 0, 1)]
    )


def test_image_under():
    s = Subspace(2, [(1, 0)])
    rot = Matrix.from_rows([[0, -1], [1, 0]])
    assert s.image_under(rot) == Subspace(2, [(0, 1)])


# --- sparse elimination against dense references --------------------------------------

def symbolic_entry(rng):
    """c*L^k or (L+a)/(L-b), with small rationals c, a, b and |k| <= 3."""
    if rng.random() < 0.5:
        return sc(rng.choice((1, -1, 2, Fraction(-1, 2), 3))) * L ** rng.randint(-3, 3)
    return (L + rng.randint(-2, 2)) / (L - rng.randint(-2, 2))


def sparse_matrix(rng, n, m=None, symbolic=1):
    """Mostly zero (about two nonzeros a row once m > 5), the rest small
    rationals, and ``symbolic`` cells overwritten by symbolic entries;
    more of those makes exact elimination grow fast."""
    m = n if m is None else m
    zero_share = max(0.6, 1 - 2 / m)
    cells = [ZERO if rng.random() < zero_share else sc(rand_frac(rng)) for _ in range(n * m)]
    for _ in range(symbolic):
        cells[rng.randrange(n * m)] = symbolic_entry(rng)
    return Matrix(n, m, tuple(cells))


def with_dependent_rows(rng, A):
    """A with one row replaced by a combination of two others, so that
    rank deficiency is exercised too."""
    rows = A.to_rows()
    if len(rows) >= 3:
        c = symbolic_entry(rng)
        rows[-1] = [a + c * b for a, b in zip(rows[0], rows[1])]
    return Matrix.from_rows(rows)


def dense_rref_rows(rows):
    """The dense elimination loop: every row update walks every column."""
    if not rows:
        return 0, []
    pivots = []
    r = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if not rows[i][col].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return r, pivots


def test_rref_rows_matches_dense_reference():
    rng = random.Random(31)
    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        A = with_dependent_rows(rng, sparse_matrix(rng, n, m, symbolic=3))
        sparse, dense = A.to_rows(), A.to_rows()
        assert _rref_rows(sparse) == dense_rref_rows(dense)
        assert sparse == dense
    assert _rref_rows([]) == dense_rref_rows([]) == (0, [])


def test_det_and_inverse_on_sparse_symbolic_matrices():
    rng = random.Random(37)
    invertible = 0
    for _ in range(30):
        n = rng.randint(1, 4)
        A = sparse_matrix(rng, n, symbolic=3)
        if rng.random() < 0.3:
            A = with_dependent_rows(rng, A)
        d = det(A)
        assert d == oracle_det(A.to_rows())
        if d.is_zero():
            with pytest.raises(Singular):
                inverse(A)
            continue
        invertible += 1
        B = inverse(A)
        assert A @ B == Matrix.identity(n) == B @ A
    assert invertible >= 10


def test_power_is_repeated_product():
    rng = random.Random(41)
    A = sparse_matrix(rng, 3)
    while det(A).is_zero():
        A = sparse_matrix(rng, 3)
    product = Matrix.identity(3)
    for k in range(9):
        assert A.power(k) == product
        assert A.power(-k) == inverse(product)
        product = product @ A


def dense_commutant(pairs):
    m = pairs[0][0].rows
    eye = Matrix.identity(m)
    rows = []
    for P, Q in pairs:
        rows.extend((kronecker(eye, Q) - kronecker(P.transpose(), eye)).to_rows())
    return rref_nullspace(Matrix.from_rows(rows))[1]


def test_commutant_matches_dense_kronecker_system():
    rng = random.Random(43)
    nontrivial = 0
    for m in range(1, 6):
        for _ in range(4):
            # a rescaled permutation S; Q = S P S^-1 makes S a solution
            perm = rng.sample(range(m), m)
            S = Matrix(m, m, tuple(
                sc(rng.choice((1, -2, Fraction(1, 3)))) if perm[i] == j else ZERO
                for i in range(m) for j in range(m)
            ))
            conjugate = rng.random() < 0.6
            pairs = []
            for _ in range(rng.randint(1, 3)):
                P = sparse_matrix(rng, m)
                Q = S @ P @ inverse(S) if conjugate else sparse_matrix(rng, m)
                pairs.append((P, Q))
            sol = solve_commutant(pairs)
            assert sol == dense_commutant(pairs)
            nontrivial += not sol.is_zero()
    assert nontrivial >= 5


# --- worklist closure and sparse membership against references ------------------

def fixpoint_closure(S, images):
    """The closure as a fixpoint loop: every round images the whole basis
    and reduces it again, until the dimension stops growing."""
    current = S
    while True:
        vecs = list(current.basis)
        for v in current.basis:
            vecs.extend(images(v))
        grown = Subspace(S.ambient_dim, vecs)
        if grown.dim == current.dim:
            return grown
        current = grown


def with_invariant_block(A, k):
    """A with the block below row k and left of column k cleared, so that
    the span of the first k basis vectors is invariant."""
    rows = A.to_rows()
    return Matrix.from_rows(
        [[ZERO if i >= k > j else x for j, x in enumerate(row)] for i, row in enumerate(rows)]
    )


def test_closure_matches_the_fixpoint_loop():
    rng = random.Random(47)
    proper = 0
    for _ in range(30):
        n, k = rng.randint(1, 6), rng.randint(0, 6)
        maps = [
            with_invariant_block(sparse_matrix(rng, n, symbolic=2), k)
            for _ in range(rng.randint(1, 2))
        ]
        seeds = [sparse_matrix(rng, 1, n, symbolic=1).row(0) for _ in range(rng.randint(0, 2))]
        if seeds and rng.random() < 0.5:  # a seed inside the invariant block
            seeds[0] = seeds[0][:k] + (ZERO,) * max(0, n - k)
        S = Subspace(n, seeds)

        def images(v):
            return [M.apply(v) for M in maps]

        closed = S.closure(images)
        assert closed == fixpoint_closure(S, images)
        assert all(closed.contains_vector(w) for v in closed.basis for w in images(v))
        proper += 0 < closed.dim < n
    assert proper >= 5


def test_contains_vector_matches_the_rank_test():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(1, 5)
        S = Subspace(n, with_dependent_rows(rng, sparse_matrix(rng, 3, n, symbolic=2)).to_rows())
        inside = [ZERO] * n
        for row in S.basis:
            c = symbolic_entry(rng)
            inside = [a + c * b for a, b in zip(inside, row)]
        for v in (inside, sparse_matrix(rng, 1, n, symbolic=1).row(0)):
            assert S.contains_vector(v) == (S.add(Subspace(n, [v])).dim == S.dim)
        assert S.contains_vector(inside)
