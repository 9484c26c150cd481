"""Root-space and weight-space decompositions, and the weak/strong split.

A commuting subalgebra is always *supplied*, never discovered: the
caller hands over a subspace whose pairwise brackets vanish, and the
ambient algebra (or module) is cut into simultaneous eigenspaces of the
adjoint (or module) action of that subspace's basis.

Eigenvalue candidates can be supplied explicitly.  When they are not,
they are found by an exact specialization heuristic: evaluate the
action matrices at the rational points 1, 2, 3, read off the rational
eigenvalues of each specialization (characteristic polynomial plus
rational root search), and lift every specialized eigenvalue to a
c*L^k candidate that is consistent across all usable points.  Lifted
candidates are only kept if the symbolic eigen-equation has a nonzero
nullspace, so over-generation is harmless.  If the resulting spaces do
not fill the ambient space, the decomposition fails loudly (``Refuted``,
row ``decomposition_complete``) rather than truncating.

The weak/strong classification asks one containment question per
weight space: does the module's compatibility map carry it into some
(single) weight space?
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import ad_matrix, bracket_apply, rational_eigenvalues
from .linalg import Matrix, ShapeMismatch, Subspace, is_vzero, rref_nullspace
from .rep import _apply_rho
from .report import Refuted, render
from .scalar import L, PoleAtPoint, ZERO, render_scalar, sc, scalar_eval


@dataclass(frozen=True)
class CartanData:
    algebra: object
    h_basis: Subspace


@dataclass(frozen=True)
class RootDecomposition:
    cartan: CartanData
    roots: tuple  # of (functional: tuple of Scalar, space: Subspace)
    zero_part: Subspace

    def as_json(self):
        return render({
            "zero_part": self.zero_part,
            "roots": [{"functional": f, "space": space} for f, space in self.roots],
        })


@dataclass(frozen=True)
class WeightDecomposition:
    module: object
    weights: tuple  # of (functional: tuple of Scalar, space: Subspace)

    def as_json(self):
        return render({
            "weights": [{"functional": f, "space": space} for f, space in self.weights]
        })


def _check_commuting(algebra, h_basis: Subspace):
    if h_basis.ambient_dim != algebra.dim:
        raise ShapeMismatch("h-subspace does not live in the algebra")
    basis = h_basis.basis
    for i, u in enumerate(basis):
        for w in basis[i:]:
            if not is_vzero(bracket_apply(algebra, u, w)):
                raise Refuted.row("cartan_commutes", "supplied h-subspace is not abelian")


def _specialized(M: Matrix, a: Fraction) -> Matrix:
    return Matrix.from_rows(
        [[sc(scalar_eval(M[i, j], a)) for j in range(M.cols)] for i in range(M.rows)]
    )


def _lift_candidates(M: Matrix):
    """c*L^k candidates consistent with every usable specialization."""
    per_point = {}
    for a in (Fraction(1), Fraction(2), Fraction(3)):
        try:
            Ma = _specialized(M, a)
        except PoleAtPoint:
            continue
        per_point[a] = set(rational_eigenvalues(Ma))
    if not per_point:
        raise Refuted.row(
            "decomposition_complete",
            "action matrix has poles at every specialization point",
        )
    found = {}
    for a, values in per_point.items():
        for v in values:
            for k in range(-8, 9):
                c = v / a**k
                if all(c * b**k in other for b, other in per_point.items()):
                    s = sc(c) * L**k
                    found.setdefault(render_scalar(s), s)
    return [found[key] for key in sorted(found)]


def _normalize_candidates(candidates, arity):
    out, seen = [], set()
    for cand in candidates:
        functional = (
            tuple(sc(x) for x in cand)
            if isinstance(cand, (list, tuple))
            else (sc(cand),)
        )
        if len(functional) != arity:
            raise ShapeMismatch("functional length does not match the h-basis")
        key = tuple(render_scalar(x) for x in functional)
        if key not in seen:
            seen.add(key)
            out.append(functional)
    return out


def _candidate_functionals(mats, candidates):
    if candidates is not None:
        return _normalize_candidates(candidates, len(mats))
    per_generator = [_lift_candidates(M) for M in mats]
    return [tuple(f) for f in itertools.product(*per_generator)]


def _joint_eigenspace(mats, functional) -> Subspace:
    rows = []
    for M, s in zip(mats, functional):
        shifted = M - Matrix.identity(M.rows).scale(s)
        rows.extend(shifted.to_rows())
    return rref_nullspace(Matrix.from_rows(rows))[1]


def _collect(mats, functionals, dim):
    """Nonzero joint eigenspaces, in candidate order, plus a direct-sum
    and eigen-equation audit of everything returned."""
    pieces = []
    for functional in functionals:
        space = _joint_eigenspace(mats, functional)
        if not space.is_zero():
            pieces.append((functional, space))
    stacked = []
    for functional, space in pieces:
        for v in space.basis:
            stacked.append(v)
            for M, s in zip(mats, functional):
                if M.apply(v) != tuple(s * x for x in v):
                    raise Refuted.row(  # pragma: no cover
                        "decomposition_complete", "eigen-equation audit failed"
                    )
    if Subspace(dim, stacked).dim != sum(space.dim for _, space in pieces):
        raise Refuted.row("decomposition_complete", "candidate spaces overlap")
    return pieces


def root_decomposition(C: CartanData, candidates=None) -> RootDecomposition:
    """Cut the algebra into the zero part and joint ad-eigenspaces for
    nonzero functionals; Refuted if the dimensions don't sum."""
    algebra = C.algebra
    _check_commuting(algebra, C.h_basis)
    mats = [ad_matrix(algebra, h) for h in C.h_basis.basis]
    functionals = _candidate_functionals(mats, candidates)
    nonzero = [f for f in functionals if not all(x.is_zero() for x in f)]
    zero_part = _joint_eigenspace(mats, [ZERO] * len(mats))
    roots = _collect(mats, nonzero, algebra.dim)
    total = zero_part.dim + sum(space.dim for _, space in roots)
    if total != algebra.dim:
        raise Refuted.row(
            "decomposition_complete",
            f"root spaces cover dimension {total} of {algebra.dim}; "
            "supply more candidates"
        )
    all_vecs = list(zero_part.basis)
    for _, space in roots:
        all_vecs.extend(space.basis)
    if Subspace(algebra.dim, all_vecs).dim != algebra.dim:  # pragma: no cover
        raise Refuted.row("decomposition_complete", "zero part overlaps a root space")
    return RootDecomposition(C, tuple(roots), zero_part)


def weight_decomposition(R, C: CartanData, candidates=None) -> WeightDecomposition:
    """Same cut for a module: joint eigenspaces of the action of the
    h-basis (the zero functional is an ordinary weight here)."""
    algebra = C.algebra
    _check_commuting(algebra, C.h_basis)
    if algebra.dim != R.algebra.dim:
        raise ShapeMismatch("cartan data belongs to a different algebra")
    rho = getattr(R, "rho", None)
    if rho is None:
        rho = R.rho_beta
    mats = [_apply_rho(rho, h) for h in C.h_basis.basis]
    functionals = _candidate_functionals(mats, candidates)
    weights = _collect(mats, functionals, R.dim_V)
    total = sum(space.dim for _, space in weights)
    if total != R.dim_V:
        raise Refuted.row(
            "decomposition_complete",
            f"weight spaces cover dimension {total} of {R.dim_V}; "
            "supply more candidates"
        )
    return WeightDecomposition(R, tuple(weights))


def classify_weight_module(R, W: WeightDecomposition) -> str:
    """"Strong" iff the compatibility map sends every weight space into
    a single weight space; otherwise "Weak"."""
    for _, space in W.weights:
        image = space.image_under(R.beta)
        if image.is_zero():
            continue
        if not any(target.contains(image) for _, target in W.weights):
            return "Weak"
    return "Strong"


def highest_weight_vector_check(R, positive_part: Subspace, v, cartan=None) -> bool:
    """True iff the (nonzero) vector is annihilated by the action of
    every basis element of the positive part — and, when a commuting
    subspace is supplied, is a joint eigenvector of its action."""
    rho = getattr(R, "rho", None)
    if rho is None:
        rho = R.rho_beta
    algebra = R.algebra
    if positive_part.ambient_dim != algebra.dim:
        raise ShapeMismatch("positive part does not live in the algebra")
    basis = positive_part.basis
    for i, u in enumerate(basis):
        for w in basis[i:]:
            if not positive_part.contains_vector(bracket_apply(algebra, u, w)):
                raise Refuted.row(
                    "positive_part_closed", "positive part is not closed under the bracket"
                )
    v = tuple(sc(x) for x in v)
    if is_vzero(v):
        return False
    for x in basis:
        if not is_vzero(_apply_rho(rho, x).apply(v)):
            return False
    if cartan is not None:
        line = Subspace(len(v), [v])
        for h in cartan.h_basis.basis:
            if not line.contains_vector(_apply_rho(rho, h).apply(v)):
                return False
    return True
