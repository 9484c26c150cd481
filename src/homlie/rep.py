"""Modules over Hom-Lie algebras.

A module here is a space V, one action matrix per algebra basis
element, and a compatibility map beta on V.  The two defining
conditions are

    action(twist(x)) . beta = beta . action(x)
    action([x, y]) . beta   = action(twist(x)) action(y)
                              - action(twist(y)) action(x)

with [x, y] the algebra's own (twisted) bracket.  Verified modules with
invertible beta correspond exactly to classical Lie-algebra modules of
the untwisted algebra: divide by beta one way, multiply and re-twist
the other.  Both directions live here, together with the linear solver
for compatibility maps and the tensor construction over cyclic sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .algebra import (
    CyclicSum,
    HomLieAlgebraData,
    LieAlgebraData,
    induced_lie_algebra,
    yau_twist,
)
from .linalg import (
    Matrix,
    ShapeMismatch,
    Singular,
    Subspace,
    det,
    inverse,
    kronecker,
    rref_nullspace,
    solve_commutant,
    unvec,
)
from .report import Refuted, VerificationReport, first_nonzero
from .scalar import ZERO, sc


def _apply_rho(rho, vector) -> Matrix:
    """Linear extension of per-basis action matrices to a coordinate vector."""
    dim_V = rho[0].rows
    out = [ZERO] * (dim_V * dim_V)
    for coeff, mat in zip(vector, rho):
        coeff = sc(coeff)
        if not coeff.is_zero():
            for k, x in enumerate(mat.entries):
                if not x.is_zero():
                    out[k] = out[k] + coeff * x
    return Matrix._of(dim_V, dim_V, tuple(out))


def _actions(rho, algebra, dim_V) -> tuple:
    """The action matrices as a tuple, once their number and shape check out."""
    rho = tuple(rho)
    if len(rho) != algebra.dim:
        raise ShapeMismatch("one action matrix per algebra basis element")
    if any(m.rows != dim_V or m.cols != dim_V for m in rho):
        raise ShapeMismatch("action matrices must be square of size dim_V")
    return rho


def _not_intertwined(rho, twist: Matrix, beta: Matrix, names):
    """The first basis element x that breaks
    beta . action(x) = action(twist x) . beta, or None."""
    for i, name in enumerate(names):
        if beta @ rho[i] != _apply_rho(rho, twist.column(i)) @ beta:
            return name
    return None


@dataclass(frozen=True)
class LieRep:
    """A classical module: action([x,y]) = commutator of actions.

    The axiom is checked on construction, so holding a LieRep is holding
    a proof."""

    algebra: LieAlgebraData
    dim_V: int
    rho: tuple

    def __post_init__(self):
        rho = _actions(self.rho, self.algebra, self.dim_V)
        object.__setattr__(self, "rho", rho)
        names = self.algebra.basis_names
        for i in range(self.algebra.dim):
            for j in range(i + 1, self.algebra.dim):
                lhs = _apply_rho(rho, self.algebra.c[i][j])
                rhs = rho[i] @ rho[j] - rho[j] @ rho[i]
                if lhs != rhs:
                    raise Refuted.row(
                        "bracket_action",
                        "action does not respect the bracket",
                        pair=[names[i], names[j]],
                    )


@dataclass(frozen=True)
class HomRep:
    """Raw module data over a Hom-Lie algebra; verify_hom_rep judges it."""

    algebra: HomLieAlgebraData
    dim_V: int
    rho_beta: tuple
    beta: Matrix

    def __post_init__(self):
        object.__setattr__(self, "rho_beta", _actions(self.rho_beta, self.algebra, self.dim_V))
        if self.beta.rows != self.dim_V or self.beta.cols != self.dim_V:
            raise ShapeMismatch("beta must be square of size dim_V")


def verify_hom_rep(R: HomRep) -> VerificationReport:
    """Both module conditions on every basis element/pair, plus the
    twist-power identities (exponents up to 3) when beta is invertible.

    The module conditions are the power identities at their lowest
    exponents, so each is swept once and reported under both names.
    ``act[n][i]``, the action of twist^n e_i, is formed once per power n:
    by linearity it is ``act[n - 1]`` applied to twist e_i, and ``act[n]``
    applied to any x is the action of twist^n x."""
    H = R.algebra
    names = H.basis_names
    dim = H.dim
    rho = R.rho_beta
    bpow = [Matrix.identity(R.dim_V), R.beta]
    twist_cols = [H.alpha.column(i) for i in range(dim)]
    act = [rho, tuple(_apply_rho(rho, col) for col in twist_cols)]

    def twist_cases(n):
        for i in range(dim):
            yield {"element": names[i]}, act[n][i] @ bpow[n] - bpow[n] @ rho[i]

    def bracket_cases(n):
        a, b = act[n], act[n + 1]
        for i in range(dim):
            for j in range(i + 1, dim):
                lhs = _apply_rho(a, H.c_alpha[i][j]) @ R.beta
                yield {"pair": [names[i], names[j]]}, lhs - (b[i] @ a[j] - b[j] @ a[i])

    report = VerificationReport()
    twist = first_nonzero(twist_cases(1))
    report.add_found("twist_compatibility", twist)
    bracket = first_nonzero(bracket_cases(0))
    report.add_found("bracket_compatibility", bracket)

    if det(R.beta).is_zero():
        return report

    for _ in range(2):
        bpow.append(R.beta @ bpow[-1])
        act.append(tuple(_apply_rho(act[-1], col) for col in twist_cols))

    report.add_found("twist_power_1", twist, n=1)
    for n in (2, 3):
        report.sweep(f"twist_power_{n}", twist_cases(n), n=n)
    report.add_found("bracket_power_0", bracket, n=0)
    for n in (1, 2):
        report.sweep(f"bracket_power_{n}", bracket_cases(n), n=n)
    return report


def conjugacy_relation(S: Matrix, beta: Matrix, delta: Matrix) -> VerificationReport:
    """Single-check report for the relation S . beta = delta . S."""
    report = VerificationReport()
    report.sweep("conjugacy_relation", [({"relation": "S.beta - delta.S"}, S @ beta - delta @ S)])
    return report


def lie_rep_from_hom(R: HomRep) -> LieRep:
    """Divide the action by beta: a classical module of the untwisted
    algebra.  Requires invertible beta and an invertible multiplicative
    twist on the algebra side."""
    try:
        binv = inverse(R.beta)
    except Singular:
        raise Refuted.row("invertibility", "beta is not invertible; no classical module") from None
    base = induced_lie_algebra(R.algebra)
    rho = tuple(binv @ m for m in R.rho_beta)
    return LieRep(base, R.dim_V, rho)  # constructor re-checks the Lie axiom


def hom_rep_from_lie(R: LieRep, alpha: Matrix, beta: Matrix) -> HomRep:
    """Twist a classical module: new action = beta . old action, over the
    twisted algebra.  beta must intertwine the action with alpha."""
    bad = _not_intertwined(R.rho, alpha, beta, R.algebra.basis_names)
    if bad is not None:
        raise Refuted.row(
            "twist_compatibility",
            "beta does not intertwine the action with the twist",
            element=bad,
        )
    H = yau_twist(R.algebra, alpha)
    rho_beta = tuple(beta @ m for m in R.rho)
    return HomRep(H, R.dim_V, rho_beta, beta)


def solve_intertwiner(R: LieRep, alpha: Matrix) -> Subspace:
    """All matrices B with B . action(x) = action(alpha x) . B, as a
    subspace of stacked matrix columns."""
    pairs = []
    for i in range(R.algebra.dim):
        pairs.append((R.rho[i], _apply_rho(R.rho, alpha.column(i))))
    return solve_commutant(pairs)


def pick_invertible(space: Subspace, dim_V: int) -> Matrix:
    """An invertible matrix out of a matrix subspace: first basis element
    with nonzero determinant, then deterministic integer combinations."""
    mats = [unvec(row, dim_V, dim_V) for row in space.basis]
    for m in mats:
        if not det(m).is_zero():
            return m
    for w in range(1, 5):
        cand = Matrix.zero(dim_V, dim_V)
        for j, m in enumerate(mats):
            cand = cand + m.scale(sc(w**j))
        if not cand.is_zero() and not det(cand).is_zero():
            return cand
    raise Refuted.row(
        "invertible_intertwiner", "no invertible element found in the solution space"
    )


def _block_diagonal(mats) -> Matrix:
    total = sum(m.rows for m in mats)
    rows = [[ZERO] * total for _ in range(total)]
    off = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                rows[off + i][off + j] = m[i, j]
        off += m.rows
    return Matrix.from_rows(rows)


def tensor_hom_rep(reps, betas, construction: CyclicSum) -> HomRep:
    """Tensor modules of the summand into one module of the twisted sum.

    Stage k contributes the conjugated action beta_k^k . rho_k . beta_k^{-k}
    in tensor slot k; the compatibility map is the tensor product of the
    stage maps.  The result is a module of the sum twisted by the
    componentwise extension of sigma (each stage condition transports one
    application of sigma across one power of beta_k).
    """
    reps = tuple(reps)
    betas = tuple(betas)
    n = construction.n
    g1 = construction.g1
    sigma = construction.sigma
    if len(reps) != n or len(betas) != n:
        raise ShapeMismatch("need one module and one stage map per copy")
    for k, (rep, beta_k) in enumerate(zip(reps, betas)):
        if rep.algebra.c != g1.c:
            raise ShapeMismatch(f"module {k} is not over the summand algebra")
        if beta_k.rows != rep.dim_V or beta_k.cols != rep.dim_V:
            raise ShapeMismatch(f"stage map {k} does not match its module")
        if det(beta_k).is_zero():
            raise Refuted.row("invertibility", f"stage map {k} is not invertible")
        bad = _not_intertwined(rep.rho, sigma, beta_k, g1.basis_names)
        if bad is not None:
            raise Refuted.row(
                "twist_compatibility",
                "stage map does not intertwine its module with sigma",
                stage=k,
                element=bad,
            )

    dims = [rep.dim_V for rep in reps]
    slot_actions = []  # slot_actions[k][i]: stage-k action of basis element i
    for k, (rep, beta_k) in enumerate(zip(reps, betas)):
        bk = beta_k.power(k)
        bk_inv = inverse(bk)
        slot_actions.append([bk @ rep.rho[i] @ bk_inv for i in range(g1.dim)])

    def embed(k: int, M: Matrix) -> Matrix:
        return reduce(kronecker, [M if j == k else Matrix.identity(dims[j]) for j in range(n)])

    sum_algebra = construction.algebra
    rho = [embed(k, slot_actions[k][i]) for k in range(n) for i in range(g1.dim)]
    beta = reduce(kronecker, betas)
    sigma_diag = _block_diagonal([sigma] * n)
    base = LieRep(sum_algebra, beta.rows, tuple(rho))  # checks the summed action
    return hom_rep_from_lie(base, sigma_diag, beta)


@dataclass(frozen=True)
class SubmoduleWitness:
    subspace: Subspace
    stable_under_rho: bool
    stable_under_beta: bool


def _stability_flags(R: HomRep, S: Subspace):
    stable_rho = all(
        S.contains_vector(m.apply(v)) for m in R.rho_beta for v in S.basis
    )
    stable_beta = all(S.contains_vector(R.beta.apply(v)) for v in S.basis)
    return stable_rho, stable_beta


def submodule_closure(R: HomRep, seed: Subspace) -> SubmoduleWitness:
    """Smallest subspace containing the seed stable under every action
    matrix and under beta; flags recomputed on the result."""
    if seed.ambient_dim != R.dim_V:
        raise ShapeMismatch("seed does not live in the module")
    current = seed.closure(lambda v: [m.apply(v) for m in R.rho_beta + (R.beta,)])
    stable_rho, stable_beta = _stability_flags(R, current)
    return SubmoduleWitness(current, stable_rho, stable_beta)


def kernel_image_submodules(R: HomRep):
    """Kernel and image of beta, each wrapped with recomputed stability
    flags (both are submodules when the algebra twist is regular)."""
    _, kernel = rref_nullspace(R.beta)
    image = Subspace.column_space(R.beta)
    return tuple(SubmoduleWitness(S, *_stability_flags(R, S)) for S in (kernel, image))


def probe_irreducible(R: HomRep, trials: int = 6, rng_seed: int = 0) -> bool:
    """Probe-based irreducibility verdict: every basis-vector closure and
    every random-vector closure is the whole module."""
    import random

    rng = random.Random(rng_seed)
    dim = R.dim_V
    seeds = [tuple(sc(1) if j == i else ZERO for j in range(dim)) for i in range(dim)]
    for _ in range(trials):
        v = [sc(rng.randint(-3, 3)) for _ in range(dim)]
        if all(x.is_zero() for x in v):
            v[rng.randrange(dim)] = sc(1)
        seeds.append(tuple(v))
    return all(submodule_closure(R, Subspace(dim, [v])).subspace.is_full() for v in seeds)
