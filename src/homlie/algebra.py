"""Lie and Hom-Lie algebra structures over Q(L).

A Hom-Lie algebra here is a triple: a space with a skew bracket and a
linear twist map, subject to the twisted Jacobi identity (the sum of
``[twist(x), [y, z]]`` over cyclic permutations of ``(x, y, z)``
vanishes).  The twist is *multiplicative* when it is a morphism of the
bracket, *regular* when it is additionally invertible.

Structure constants are stored dense: ``c[i][j]`` is the coordinate
vector of the bracket of basis elements ``i`` and ``j``.  Each algebra
also builds, once, the sparse table ``table[i][j]`` of the pairs
``(k, c[i][j][k])`` with a nonzero constant; brackets, adjoint matrices,
ideal closures and the axiom sweeps contract it.  Plain Lie
algebras validate skew-symmetry and the Jacobi identity on
construction, raising :class:`Refuted` with the report; Hom-Lie data
deliberately does not self-validate, since :func:`verify_hom_lie`
exists to report exactly which axiom fails and where.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from math import isqrt

from .linalg import (
    Matrix,
    ShapeMismatch,
    Singular,
    Subspace,
    det,
    inverse,
    is_vzero,
    rref_nullspace,
    solve_commutant,
    unvec,
    vadd,
    vdot,
    vscale,
    vzero,
)
from .report import Refuted, VerificationReport, first_nonzero, render
from .scalar import Scalar, ZERO, sc


def _coerce_constants(dim, c):
    if len(c) != dim or any(len(row) != dim for row in c):
        raise ShapeMismatch("structure constant array does not match dim")
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            v = tuple(sc(x) for x in c[i][j])
            if len(v) != dim:
                raise ShapeMismatch(
                    f"bracket constant [{i}][{j}] has length {len(v)}, expected {dim}"
                )
            row.append(v)
        rows.append(tuple(row))
    return tuple(rows)


class _SparseTable:
    @cached_property
    def table(self) -> tuple:
        """The sparse constants, built once; equality and repr ignore them."""
        return _table(self.structure_constants)


@dataclass(frozen=True)
class LieAlgebraData(_SparseTable):
    """A Lie algebra by structure constants; validated on construction."""

    dim: int
    basis_names: tuple
    c: tuple

    def __post_init__(self):
        object.__setattr__(self, "basis_names", tuple(self.basis_names))
        if len(self.basis_names) != self.dim:
            raise ShapeMismatch("basis_names length does not match dim")
        object.__setattr__(self, "c", _coerce_constants(self.dim, self.c))
        report = _lie_report(self.c, self.table, self.basis_names)
        if not report.ok:
            raise Refuted(report)

    @property
    def structure_constants(self):
        return self.c

    def bracket_basis(self, i: int, j: int):
        return self.c[i][j]


@dataclass(frozen=True)
class HomLieAlgebraData(_SparseTable):
    """Bracket constants paired with a twist map.  Not self-validating:
    run :func:`verify_hom_lie` to find out what the pair satisfies."""

    dim: int
    basis_names: tuple
    c_alpha: tuple
    alpha: Matrix
    multiplicative: bool | None = None

    def __post_init__(self):
        object.__setattr__(self, "basis_names", tuple(self.basis_names))
        if len(self.basis_names) != self.dim:
            raise ShapeMismatch("basis_names length does not match dim")
        object.__setattr__(self, "c_alpha", _coerce_constants(self.dim, self.c_alpha))
        if self.alpha.rows != self.dim or self.alpha.cols != self.dim:
            raise ShapeMismatch("twist matrix does not match dim")

    @property
    def structure_constants(self):
        return self.c_alpha

    def bracket_basis(self, i: int, j: int):
        return self.c_alpha[i][j]


def skew_constants(names, brackets):
    """Dense structure constants from sparse bracket data, skew-completed.

    ``brackets`` maps a pair of basis names (or indices) to the value of
    their bracket, given as a dict ``{name_or_index: coefficient}`` or a
    full coordinate sequence.  The reversed pair is filled in with the
    opposite sign; unspecified pairs are zero.  No axiom is checked
    beyond ruling out a nonzero self-bracket.
    """
    names = tuple(names)
    dim = len(names)
    index = {n: i for i, n in enumerate(names)}

    def to_index(x):
        return x if isinstance(x, int) else index[x]

    def to_vector(val):
        if isinstance(val, dict):
            v = [ZERO] * dim
            for key, coeff in val.items():
                v[to_index(key)] = sc(coeff)
            return tuple(v)
        return tuple(sc(x) for x in val)

    c = [[vzero(dim)] * dim for _ in range(dim)]
    for (a, b), val in brackets.items():
        i, j = to_index(a), to_index(b)
        v = to_vector(val)
        if i == j and not is_vzero(v):
            raise Refuted(_failed_report("bracket_skew", {"pair": [names[i]] * 2}))
        c[i][j] = v
        c[j][i] = tuple(-x for x in v)
    return tuple(tuple(row) for row in c)


def lie_algebra(names, brackets) -> LieAlgebraData:
    """Build a Lie algebra from sparse bracket data (see
    :func:`skew_constants`); the axioms are validated on construction."""
    names = tuple(names)
    return LieAlgebraData(len(names), names, skew_constants(names, brackets))


def _failed_report(name, witness=None):
    rep = VerificationReport()
    rep.add(name, False, witness)
    return rep


def bracket_apply(A, x, y):
    """Bracket of two coordinate vectors: the sparse table contracted."""
    x = tuple(sc(v) for v in x)
    y = tuple(sc(v) for v in y)
    if len(x) != A.dim or len(y) != A.dim:
        raise ShapeMismatch("vectors do not match the algebra dimension")
    y = _sparse(y)
    out = [ZERO] * A.dim
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        row = A.table[i]
        for j, yj in y:
            f = xi * yj
            for k, coeff in row[j]:
                out[k] = out[k] + f * coeff
    return tuple(out)


def _ad_columns(A, x):
    """The brackets [x, e_j] for every j, as lists, in one pass over the
    nonzeros of x."""
    cols = [[ZERO] * A.dim for _ in range(A.dim)]
    for i, xi in enumerate(x):
        if not xi.is_zero():
            for col, entries in zip(cols, A.table[i]):
                for k, coeff in entries:
                    col[k] = col[k] + xi * coeff
    return cols


def _basis_vector(dim, i):
    v = [ZERO] * dim
    v[i] = sc(1)
    return tuple(v)


def _sparse(v):
    return tuple((k, x) for k, x in enumerate(v) if not x.is_zero())


def _table(c):
    return tuple(tuple(_sparse(v) for v in row) for row in c)


def _skew_cases(c, names):
    dim = len(c)
    for i in range(dim):
        for j in range(i, dim):
            yield {"pair": [names[i], names[j]]}, [x + y for x, y in zip(c[i][j], c[j][i])]


def _jacobi_cases(table, ad, names):
    """Cyclic sums of [alpha(a), [b, t]] over index triples i < j < k.

    ``table`` holds the sparse structure constants and ``ad`` the sparse
    vectors [alpha(e_a), e_m] (``table`` itself for the identity twist),
    so only nonzero constants are contracted.  The sum is trilinear and,
    once skew-symmetry holds, vanishes whenever two arguments coincide,
    so distinct unordered triples decide the identity.
    """
    dim = len(table)
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                acc = [ZERO] * dim
                for a, b, t in ((i, j, k), (j, k, i), (k, i, j)):
                    outer = ad[a]
                    for m, y in table[b][t]:
                        for l, x in outer[m]:
                            acc[l] = acc[l] + y * x
                yield {"triple": [names[i], names[j], names[k]]}, acc


def _morphism_cases(L1, L2, phi: Matrix):
    names = L1.basis_names
    cols = [phi.column(i) for i in range(L1.dim)]
    for i in range(L1.dim):
        for j in range(i + 1, L1.dim):
            lhs = phi.apply(L1.bracket_basis(i, j))
            rhs = bracket_apply(L2, cols[i], cols[j])
            yield {"pair": [names[i], names[j]]}, [x - y for x, y in zip(lhs, rhs)]


def verify_lie_structure(dim, c, names=None) -> VerificationReport:
    """Skew-symmetry and Jacobi for raw structure constants: the sweeps of
    :func:`verify_hom_lie` with the identity twist.  The ``jacobi``
    residual is the cyclic sum of [[a, b], t], which is minus the twisted
    sum of [a, [b, t]] whenever skew-symmetry holds."""
    names = tuple(names) if names else tuple(str(i) for i in range(dim))
    return _lie_report(c, _table(c), names)


def _lie_report(c, table, names) -> VerificationReport:
    report = VerificationReport()
    report.sweep("bracket_skew", _skew_cases(c, names))
    hit = first_nonzero(_jacobi_cases(table, table, names))
    if hit is not None:  # report the sum of [[a, b], t]
        hit = hit[0], [-x for x in hit[1]]
    report.add_found("jacobi", hit)
    return report


def verify_hom_lie(H: HomLieAlgebraData, check_multiplicative: bool = True) -> VerificationReport:
    """Skew-symmetry, twisted Jacobi, and (optionally) multiplicativity,
    which is the bracket sweep of :func:`verify_lie_morphism` of the twist."""
    names = H.basis_names
    report = VerificationReport()
    report.sweep("bracket_skew", _skew_cases(H.c_alpha, names))
    # ad[a][m]: the sparse vector [alpha(e_a), e_m]
    ad = [[_sparse(v) for v in _ad_columns(H, H.alpha.column(a))] for a in range(H.dim)]
    report.sweep("twisted_jacobi", _jacobi_cases(H.table, ad, names))
    if check_multiplicative:
        report.sweep("twist_is_bracket_morphism", _morphism_cases(H, H, H.alpha))
    return report


def verify_lie_morphism(L1, L2, phi: Matrix, weak: bool = False) -> VerificationReport:
    """Bracket compatibility of phi on all basis pairs; unless ``weak``,
    also compatibility with the twists (identity for plain Lie data)."""
    if phi.cols != L1.dim or phi.rows != L2.dim:
        raise ShapeMismatch("morphism matrix shape does not match the algebras")
    report = VerificationReport()
    report.sweep("bracket_compatibility", _morphism_cases(L1, L2, phi))

    if not weak:
        a1 = getattr(L1, "alpha", None)
        a2 = getattr(L2, "alpha", None)
        if a1 is None:
            a1 = Matrix.identity(L1.dim)
        if a2 is None:
            a2 = Matrix.identity(L2.dim)
        witness = {"matrix": "phi . twist1 - twist2 . phi"}
        report.sweep("twist_compatibility", [(witness, phi @ a1 - a2 @ phi)])
    return report


def yau_twist(Lalg: LieAlgebraData, alpha: Matrix) -> HomLieAlgebraData:
    """Compose the bracket with a verified self-morphism.

    The output bracket sends (x, y) to alpha([x, y]); the result always
    satisfies the twisted Jacobi identity and is multiplicative.
    """
    morphism = verify_lie_morphism(Lalg, Lalg, alpha)
    if not morphism.ok:
        first = morphism.first_failure()
        raise Refuted.row(
            "twist_is_bracket_morphism",
            f"twist map is not a bracket morphism ({first.name})",
            **first.witness,
        )
    c_alpha = tuple(
        tuple(alpha.apply(Lalg.c[i][j]) for j in range(Lalg.dim))
        for i in range(Lalg.dim)
    )
    return HomLieAlgebraData(
        Lalg.dim, Lalg.basis_names, c_alpha, alpha, multiplicative=True
    )


def induced_lie_algebra(H: HomLieAlgebraData) -> LieAlgebraData:
    """Undo a regular multiplicative twist: bracket = alpha^{-1} of the
    twisted bracket.  Refuted when the twist is not invertible."""
    try:
        ainv = inverse(H.alpha)
    except Singular:
        raise Refuted.row("invertibility", "twist is not invertible; no induced bracket") from None
    c = tuple(
        tuple(ainv.apply(H.c_alpha[i][j]) for j in range(H.dim)) for i in range(H.dim)
    )
    return LieAlgebraData(H.dim, H.basis_names, c)


@dataclass(frozen=True)
class KillingForm:
    gram: Matrix

    def pairing(self, x, y) -> Scalar:
        return vdot(self.gram.apply(tuple(sc(v) for v in y)), tuple(sc(v) for v in x))


def ad_matrix(A, x) -> Matrix:
    """Matrix of bracket-with-x acting on coordinate vectors."""
    x = tuple(sc(v) for v in x)
    if len(x) != A.dim:
        raise ShapeMismatch("vector does not match the algebra dimension")
    cols = _ad_columns(A, x)
    return Matrix._of(A.dim, A.dim, tuple(y for col in cols for y in col)).transpose()


def killing_form(Lalg: LieAlgebraData) -> KillingForm:
    """Gram matrix of trace(ad x_i . ad x_j), summed over the nonzeros of
    ad x_i; symmetry and invariance are re-checked before returning.

    Invariance on all basis triples is checked as "K . ad_j is skew for
    every j": for a symmetric K and a skew bracket, K([x_i, x_j], x_k) is
    -(K . ad_j)[k, i] and K(x_i, [x_j, x_k]) is (K . ad_j)[i, k].
    """
    dim = Lalg.dim
    ads = [ad_matrix(Lalg, _basis_vector(dim, i)) for i in range(dim)]
    entries = []
    for ad_i in ads:
        nonzero = [(k, l, ad_i[k, l]) for k in range(dim) for l in range(dim)
                   if not ad_i[k, l].is_zero()]
        for ad_j in ads:
            entries.append(sum((x * ad_j[l, k] for k, l, x in nonzero), ZERO))
    gram = Matrix(dim, dim, tuple(entries))
    if gram != gram.transpose():
        raise Refuted(_failed_report("killing_symmetry"))
    for ad_j in ads:
        M = gram @ ad_j
        if not (M + M.transpose()).is_zero():
            raise Refuted(_failed_report("killing_invariance"))
    return KillingForm(gram)


def is_semisimple(Lalg: LieAlgebraData) -> bool:
    """Nondegenerate trace form characterises semisimplicity in char 0."""
    return not det(killing_form(Lalg).gram).is_zero()


@dataclass(frozen=True)
class IdealWitness:
    subspace: Subspace
    closed_under_bracket: bool
    closed_under_alpha: bool


def ideal_closure(A, seed: Subspace) -> IdealWitness:
    """Smallest subspace containing the seed that is closed under
    bracketing with the whole algebra and under the twist (if any).

    Accepts Lie or Hom-Lie data; for plain Lie data the twist condition
    is vacuous.  The returned flags are recomputed from scratch on the
    final subspace rather than trusted from the fixpoint loop.
    """
    if seed.ambient_dim != A.dim:
        raise ShapeMismatch("seed does not live in the algebra")
    alpha = getattr(A, "alpha", None)

    def images(v):
        brackets = _ad_columns(A, v)
        return brackets if alpha is None else brackets + [alpha.apply(v)]

    current = seed.closure(images)
    closed_bracket = all(
        current.contains_vector(w) for v in current.basis for w in _ad_columns(A, v)
    )
    closed_alpha = True
    if alpha is not None:
        closed_alpha = all(current.contains_vector(alpha.apply(v)) for v in current.basis)
    return IdealWitness(current, closed_bracket, closed_alpha)


@dataclass(frozen=True)
class CyclicSum:
    """A direct sum of copies of one algebra with a copy-cycling twist.

    Unpacks as the pair (algebra, alpha); also keeps the ingredients so
    downstream constructions can reuse them.
    """

    algebra: LieAlgebraData
    alpha: Matrix
    g1: LieAlgebraData
    sigma: Matrix
    n: int

    def __iter__(self):
        return iter((self.algebra, self.alpha))

    def copy_subspace(self, k: int) -> Subspace:
        d = self.g1.dim
        vecs = [_basis_vector(self.algebra.dim, k * d + m) for m in range(d)]
        return Subspace(self.algebra.dim, vecs)


def cyclic_sum_construction(g1: LieAlgebraData, sigma: Matrix, n: int) -> CyclicSum:
    """n copies of g1 with componentwise bracket; the twist shifts copy k
    onto copy k+1 and closes the cycle through the automorphism sigma,
    so the n-th power of the twist restricted to copy 0 is sigma."""
    if n < 1:
        raise ValueError("n must be at least 1")
    morphism = verify_lie_morphism(g1, g1, sigma)
    if not morphism.ok or det(sigma).is_zero():
        raise Refuted.row("sigma_automorphism", "sigma is not an automorphism of the summand")
    d = g1.dim
    dim = n * d
    names = tuple(f"{name}{k}" for k in range(n) for name in g1.basis_names)
    brackets = {
        (k * d + a, k * d + b): {k * d + m: x for m, x in enumerate(g1.c[a][b])}
        for k in range(n)
        for a in range(d)
        for b in range(a + 1, d)
    }
    algebra = lie_algebra(names, brackets)

    entries = [[ZERO] * dim for _ in range(dim)]
    for k in range(n - 1):
        for m in range(d):
            entries[(k + 1) * d + m][k * d + m] = sc(1)
    for m in range(d):
        for mp in range(d):
            entries[mp][(n - 1) * d + m] = sigma[mp, m]
    alpha = Matrix.from_rows(entries)
    return CyclicSum(algebra, alpha, g1, sigma, n)


# ---------------------------------------------------------------------------
# splitting a semisimple algebra into its simple ideals
# ---------------------------------------------------------------------------

def _random_vector(rng: random.Random, dim: int, sparse: bool):
    v = [ZERO] * dim
    idxs = range(dim) if not sparse else rng.sample(range(dim), k=min(2, dim))
    for i in idxs:
        v[i] = sc(rng.randint(-3, 3))
    if is_vzero(v):
        v[rng.randrange(dim)] = sc(1)
    return tuple(v)


def _restrict_to_ideal(Lalg: LieAlgebraData, S: Subspace):
    """The bracket of L restricted to an ideal, in the ideal's echelon basis.

    Returns (subalgebra, embedding rows).  Coordinates come for free:
    the basis is reduced-echelon, so a member's coordinates are its
    entries at the pivot columns.
    """
    basis = S.basis
    pivots = [next(j for j, x in enumerate(row) if not x.is_zero()) for row in basis]

    def coords(v):
        return tuple(v[p] for p in pivots)

    r = S.dim
    names = tuple(f"u{i}" for i in range(r))
    c = tuple(
        tuple(coords(bracket_apply(Lalg, basis[i], basis[j])) for j in range(r))
        for i in range(r)
    )
    return LieAlgebraData(r, names, c), basis


def _lift(sub: Subspace, embedding) -> Subspace:
    ambient = len(embedding[0]) if embedding else 0
    vecs = []
    for row in sub.basis:
        v = [ZERO] * ambient
        for coeff, emb in zip(row, embedding):
            if not coeff.is_zero():
                v = [a + coeff * b for a, b in zip(v, emb)]
        vecs.append(v)
    return Subspace(ambient, vecs)


def _proper_ideal(Lalg: LieAlgebraData, rng: random.Random, trials: int) -> Subspace | None:
    """Some nonzero proper ideal, or None if none was found.

    First pass: closures of basis vectors and of sparse random vectors,
    refined by pairwise intersection.  Fallback: split along a
    non-scalar element of the adjoint commutant, whose eigenspaces are
    ideals.
    """
    dim = Lalg.dim
    seeds = [_basis_vector(dim, i) for i in range(dim)]
    seeds += [_random_vector(rng, dim, sparse=True) for _ in range(trials)]
    proper = []
    for v in seeds:
        w = ideal_closure(Lalg, Subspace(dim, [v]))
        if 0 < w.subspace.dim < dim and w.subspace not in proper:
            proper.append(w.subspace)

    changed = True
    while changed:
        changed = False
        for a in range(len(proper)):
            for b in range(a + 1, len(proper)):
                cap = proper[a].intersect(proper[b])
                if not cap.is_zero() and cap not in proper:
                    proper.append(cap)
                    changed = True
    if proper:
        return min(proper, key=lambda s: (s.dim, render(s)))

    # Fallback: matrices commuting with the whole adjoint action.  Any
    # eigenspace of such a matrix is an ideal; a non-scalar element with a
    # rational eigenvalue therefore splits the algebra.
    ads = [ad_matrix(Lalg, _basis_vector(dim, i)) for i in range(dim)]
    com = solve_commutant([(m, m) for m in ads])
    eye = Matrix.identity(dim)
    for row in com.basis:
        T = unvec(row, dim, dim)
        for value in rational_eigenvalues(T):
            shifted = T - eye.scale(value)
            _, eig = rref_nullspace(shifted)
            if 0 < eig.dim < dim:
                return eig
    return None


def _divisors(m: int):
    """Ascending divisors of m >= 0: those up to sqrt(m), then their cofactors."""
    small = [d for d in range(1, isqrt(m) + 1) if m % d == 0]
    return small + [m // d for d in reversed(small) if d * d != m]


def rational_eigenvalues(T: Matrix):
    """Exact rational eigenvalues of a matrix with constant entries.

    Characteristic polynomial by the Faddeev-LeVerrier recursion, then
    the rational root theorem on the denominator-cleared polynomial.
    Entries mentioning the indeterminate yield no candidates.
    """
    if any(not x.is_rational() for x in T.entries):
        return []
    from fractions import Fraction
    from math import lcm

    n = T.rows
    cs = []
    Mprev = Matrix.identity(n)
    for k in range(1, n + 1):
        acc = T @ Mprev
        ck = -(acc.trace() / sc(k))
        cs.append(ck)
        Mprev = acc + Matrix.identity(n).scale(ck)
    poly = [Fraction(1)] + [c.as_rational() for c in cs]  # descending powers
    D = lcm(*(c.denominator for c in poly))
    ints = [int(c * D) for c in poly]
    roots = set()
    while ints and ints[-1] == 0:  # factor out powers of t
        ints.pop()
        roots.add(Fraction(0))
    if len(ints) >= 2:
        for p in _divisors(abs(ints[-1])):
            for q in _divisors(abs(ints[0])):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    acc = Fraction(0)
                    for c in ints:
                        acc = acc * cand + c
                    if acc == 0:
                        roots.add(cand)
    return sorted(roots)


def decompose_simple_ideals(Lalg: LieAlgebraData, trials: int = 8, rng_seed: int = 0):
    """Split a semisimple algebra into pairwise orthogonal simple ideals.

    The ideal property, orthogonality under the trace form, and the
    direct-sum property are verified exactly; *minimality* of each piece
    is probed by random closures (``trials`` draws per piece, seeded by
    ``rng_seed``), so simplicity of the pieces is a probe-based verdict.
    """
    K = killing_form(Lalg)
    if det(K.gram).is_zero():
        raise Refuted.row("semisimple", "degenerate trace form")
    rng = random.Random(rng_seed)

    def split(sub_l: LieAlgebraData):
        ideal = _proper_ideal(sub_l, rng, trials)
        if ideal is None:
            return [Subspace.full(sub_l.dim)]
        sub_k = killing_form(sub_l)
        comp = ideal.orthogonal_complement(sub_k.gram)
        pieces = []
        for part in (ideal, comp):
            restricted, embedding = _restrict_to_ideal(sub_l, part)
            for piece in split(restricted):
                pieces.append(_lift(piece, embedding))
        return pieces

    pieces = split(Lalg)

    # minimality probes: a random member of a simple piece regenerates it
    refined = True
    guard = 0
    while refined and guard < 5:
        refined = False
        guard += 1
        for idx, piece in enumerate(pieces):
            for _ in range(trials):
                coeffs = [sc(rng.randint(-3, 3)) for _ in range(piece.dim)]
                v = vzero(Lalg.dim)
                for coeff, b in zip(coeffs, piece.basis):
                    v = vadd(v, vscale(coeff, b))
                if is_vzero(v):
                    continue
                w = ideal_closure(Lalg, Subspace(Lalg.dim, [v])).subspace
                if 0 < w.dim < piece.dim:
                    comp_in_piece = piece.intersect(
                        w.orthogonal_complement(K.gram)
                    )
                    pieces[idx] = w
                    pieces.append(comp_in_piece)
                    refined = True
                    break
            if refined:
                break

    # exact verification of everything non-probabilistic
    total = Subspace.zero(Lalg.dim)
    dims = 0
    for piece in pieces:
        w = ideal_closure(Lalg, piece)
        if w.subspace != piece or not w.closed_under_bracket:
            raise Refuted.row("semisimple", "internal error: piece is not an ideal")
        total = total.add(piece)
        dims += piece.dim
    if dims != Lalg.dim or not total.is_full():
        raise Refuted.row("semisimple", "ideals do not fill the algebra")
    for a in range(len(pieces)):
        for b in range(a + 1, len(pieces)):
            for u in pieces[a].basis:
                gu = K.gram.apply(u)
                for v in pieces[b].basis:
                    if not vdot(gu, v).is_zero():
                        raise Refuted.row("semisimple", "pieces are not orthogonal")
    return sorted(pieces, key=render)
