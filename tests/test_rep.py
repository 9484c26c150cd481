"""Module-layer tests: axioms, the classical correspondence, intertwiners,
tensor products over cyclic sums, and submodule machinery."""

import random

import pytest

from homlie.algebra import (
    HomLieAlgebraData,
    cyclic_sum_construction,
    lie_algebra,
    yau_twist,
)
from homlie.linalg import Matrix, ShapeMismatch, Subspace, det, kronecker, vec
from homlie.rep import (
    HomRep,
    LieRep,
    conjugacy_relation,
    hom_rep_from_lie,
    kernel_image_submodules,
    lie_rep_from_hom,
    pick_invertible,
    probe_irreducible,
    solve_intertwiner,
    submodule_closure,
    tensor_hom_rep,
    verify_hom_rep,
)
from homlie.report import Refuted, VerificationReport, first_nonzero
from homlie.scalar import L, ONE, ZERO, sc


def sl2():
    return lie_algebra(
        ("e", "f", "h"),
        {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}},
    )


def diag_twist():
    return Matrix.diagonal([L, ONE / L, ONE])


def std_matrices(n):
    """Highest-weight row convention: e lowers the index, f raises it."""
    d = n + 1
    e = [[ZERO] * d for _ in range(d)]
    f = [[ZERO] * d for _ in range(d)]
    h = [[ZERO] * d for _ in range(d)]
    for i in range(d):
        if i >= 1:
            e[i - 1][i] = sc(n - i + 1)
        if i + 1 < d:
            f[i + 1][i] = sc(i + 1)
        h[i][i] = sc(n - 2 * i)
    return tuple(Matrix.from_rows(m) for m in (e, f, h))


def std_rep(n):
    return LieRep(sl2(), n + 1, std_matrices(n))


def beta_diag(n, b0=ONE):
    return Matrix.diagonal([sc(b0) * L ** (-i) for i in range(n + 1)])


def twisted_module(n, b0=ONE):
    return hom_rep_from_lie(std_rep(n), diag_twist(), beta_diag(n, b0))


def blockdiag(A, B):
    total = A.rows + B.rows
    rows = [[ZERO] * total for _ in range(total)]
    for i in range(A.rows):
        for j in range(A.cols):
            rows[i][j] = A[i, j]
    for i in range(B.rows):
        for j in range(B.cols):
            rows[A.rows + i][A.cols + j] = B[i, j]
    return Matrix.from_rows(rows)


def by_name(report):
    return {c.name: c for c in report.checks}


def e_(dim, i):
    return tuple(ONE if j == i else ZERO for j in range(dim))


# --- construction ------------------------------------------------------------

def test_lie_rep_constructor_validates():
    R = std_rep(1)
    assert R.rho[2] == Matrix.diagonal([sc(1), sc(-1)])
    broken = list(std_matrices(1))
    broken[0] = broken[0] + Matrix.from_rows([[1, 0], [0, 0]])
    with pytest.raises(Refuted, match="^bracket_action "):
        LieRep(sl2(), 2, tuple(broken))


def test_lie_rep_shape_checks():
    with pytest.raises(ShapeMismatch):
        LieRep(sl2(), 2, std_matrices(2))


# --- verify_hom_rep ----------------------------------------------------------

def test_classical_case_all_pass():
    A = sl2()
    H = yau_twist(A, Matrix.identity(3))
    R = HomRep(H, 2, std_matrices(1), Matrix.identity(2))
    report = verify_hom_rep(R)
    assert report.ok, report.summary()
    names = by_name(report)
    assert set(names) == {
        "twist_compatibility",
        "bracket_compatibility",
        "twist_power_1",
        "twist_power_2",
        "twist_power_3",
        "bracket_power_0",
        "bracket_power_1",
        "bracket_power_2",
    }


def test_twisted_standard_module_passes_and_has_frozen_actions():
    R = twisted_module(2)
    assert verify_hom_rep(R).ok
    rho_e, rho_f, rho_h = R.rho_beta
    # e action carries index i to i-1 with coefficient (n-i+1) * L^(1-i) * b0
    assert rho_e[0, 1] == sc(2)
    assert rho_e[1, 2] == ONE / L
    # h action is diagonal with (n-2i) * L^(-i) * b0
    assert rho_h[0, 0] == sc(2)
    assert rho_h[1, 1] == ZERO
    assert rho_h[2, 2] == sc(-2) / (L * L)
    # f action carries i to i+1 with coefficient (i+1) * L^(-1-i) * b0
    assert rho_f[1, 0] == ONE / L
    assert rho_f[2, 1] == sc(2) / (L * L)


def test_perturbed_module_fails_bracket_axiom():
    R = twisted_module(1)
    bump = Matrix.from_rows([[1, 0], [0, 0]])
    perturbed = HomRep(
        R.algebra, R.dim_V, (R.rho_beta[0] + bump,) + R.rho_beta[1:], R.beta
    )
    report = verify_hom_rep(perturbed)
    names = by_name(report)
    assert not names["bracket_compatibility"].ok
    assert names["bracket_compatibility"].witness is not None
    assert names["bracket_compatibility"].residual is not None


# --- the classical correspondence --------------------------------------------

def test_round_trip_hom_to_lie_to_hom():
    for n in (1, 2, 3):
        R = twisted_module(n)
        back = lie_rep_from_hom(R)
        assert back.rho == std_matrices(n), "dividing by beta recovers the classical action"
        again = hom_rep_from_lie(back, R.algebra.alpha, R.beta)
        assert again.rho_beta == R.rho_beta
        assert again.beta == R.beta
        assert again.algebra.c_alpha == R.algebra.c_alpha


def test_identity_beta_round_trip():
    A = sl2()
    H = yau_twist(A, Matrix.identity(3))
    R = HomRep(H, 3, std_matrices(2), Matrix.identity(3))
    back = lie_rep_from_hom(R)
    assert back.rho == R.rho_beta


def test_lie_rep_from_hom_requires_invertible_beta():
    R = twisted_module(1)
    squashed = HomRep(R.algebra, 2, R.rho_beta, Matrix.zero(2, 2))
    with pytest.raises(Refuted, match="^invertibility "):
        lie_rep_from_hom(squashed)


def test_hom_rep_from_lie_rejects_identity_beta_under_twist():
    with pytest.raises(Refuted) as exc:
        hom_rep_from_lie(std_rep(1), diag_twist(), Matrix.identity(2))
    failing = exc.value.report.first_failure()
    assert failing.name == "twist_compatibility"
    assert failing.witness == {
        "message": "beta does not intertwine the action with the twist",
        "element": "e",
    }


# --- intertwiners ------------------------------------------------------------

def test_intertwiner_space_of_standard_reps():
    for n in (1, 2, 3):
        space = solve_intertwiner(std_rep(n), diag_twist())
        d = n + 1
        expected = Subspace(d * d, [vec(beta_diag(n))])
        assert space.dim == 1
        assert space == expected, f"the solution is diag(1, L^-1, ..., L^-{n})"


def test_intertwiner_solutions_actually_intertwine():
    R = std_rep(2)
    alpha = diag_twist()
    space = solve_intertwiner(R, alpha)
    from homlie.linalg import unvec
    from homlie.rep import _apply_rho

    for row in space.basis:
        B = unvec(row, 3, 3)
        for i in range(3):
            assert B @ R.rho[i] == _apply_rho(R.rho, alpha.column(i)) @ B


def test_intertwiner_schur_scalars():
    space = solve_intertwiner(std_rep(2), Matrix.identity(3))
    assert space == Subspace(9, [vec(Matrix.identity(3))])


def test_intertwiner_block_scalars_on_reducible():
    r1 = std_matrices(1)
    r2 = std_matrices(2)
    summed = LieRep(sl2(), 5, tuple(blockdiag(a, b) for a, b in zip(r1, r2)))
    space = solve_intertwiner(summed, Matrix.identity(3))
    p1 = Matrix.diagonal([ONE, ONE, ZERO, ZERO, ZERO])
    p2 = Matrix.diagonal([ZERO, ZERO, ONE, ONE, ONE])
    assert space == Subspace(25, [vec(p1), vec(p2)])

    picked = pick_invertible(space, 5)
    assert not det(picked).is_zero()


def test_pick_invertible_first_basis_element():
    space = solve_intertwiner(std_rep(1), diag_twist())
    B = pick_invertible(space, 2)
    assert B == beta_diag(1)


def test_pick_invertible_failure():
    nilpotent_line = Subspace(4, [vec(Matrix.from_rows([[0, 1], [0, 0]]))])
    with pytest.raises(Refuted, match="^invertible_intertwiner "):
        pick_invertible(nilpotent_line, 2)


# --- tensor construction ------------------------------------------------------

def stage_map(n, sigma):
    return pick_invertible(solve_intertwiner(std_rep(n), sigma), n + 1)


def test_tensor_two_by_two_passes():
    sigma = diag_twist()
    construction = cyclic_sum_construction(sl2(), sigma, 2)
    b = stage_map(1, sigma)
    R = tensor_hom_rep([std_rep(1), std_rep(1)], [b, b], construction)
    assert R.dim_V == 4
    assert R.beta == kronecker(b, b)
    assert verify_hom_rep(R).ok


def test_tensor_two_by_three_passes():
    sigma = diag_twist()
    construction = cyclic_sum_construction(sl2(), sigma, 2)
    b1, b2 = stage_map(1, sigma), stage_map(2, sigma)
    R = tensor_hom_rep([std_rep(1), std_rep(2)], [b1, b2], construction)
    assert R.dim_V == 6
    assert R.beta == kronecker(b1, b2)
    assert verify_hom_rep(R).ok


def test_tensor_with_identity_sigma():
    construction = cyclic_sum_construction(sl2(), Matrix.identity(3), 2)
    R = tensor_hom_rep(
        [std_rep(1), std_rep(1)], [Matrix.identity(2), Matrix.identity(2)], construction
    )
    assert verify_hom_rep(R).ok


def test_tensor_single_factor_is_plain_twist():
    sigma = diag_twist()
    construction = cyclic_sum_construction(sl2(), sigma, 1)
    b = stage_map(2, sigma)
    R = tensor_hom_rep([std_rep(2)], [b], construction)
    direct = hom_rep_from_lie(
        LieRep(construction.algebra, 3, std_matrices(2)), sigma, b
    )
    assert R.rho_beta == direct.rho_beta
    assert R.beta == direct.beta
    assert R.algebra.c_alpha == direct.algebra.c_alpha


def test_tensor_rejects_bad_inputs():
    sigma = diag_twist()
    construction = cyclic_sum_construction(sl2(), sigma, 2)
    good = stage_map(1, sigma)
    with pytest.raises(Refuted, match="^twist_compatibility "):
        tensor_hom_rep([std_rep(1), std_rep(1)], [good, Matrix.identity(2)], construction)
    with pytest.raises(Refuted, match="^invertibility "):
        tensor_hom_rep([std_rep(1), std_rep(1)], [good, Matrix.zero(2, 2)], construction)
    with pytest.raises(ShapeMismatch):
        tensor_hom_rep([std_rep(1)], [good], construction)


# --- submodules ---------------------------------------------------------------

def test_submodule_closure_of_twisted_module_is_irreducible():
    R = twisted_module(2)
    for i in range(3):
        w = submodule_closure(R, Subspace(3, [e_(3, i)]))
        assert w.subspace.is_full()
        assert w.stable_under_rho and w.stable_under_beta
    assert submodule_closure(R, Subspace.zero(3)).subspace.is_zero()
    assert probe_irreducible(R, trials=4, rng_seed=3)


def zero_padded_module(n):
    """A passing module direct-summed with a zero action on one extra line."""
    R = twisted_module(n)
    d = R.dim_V
    rho = tuple(blockdiag(m, Matrix.zero(1, 1)) for m in R.rho_beta)
    beta = blockdiag(R.beta, Matrix.zero(1, 1))
    return HomRep(R.algebra, d + 1, rho, beta)


def test_kernel_image_on_singular_beta_module():
    R = zero_padded_module(1)
    report = verify_hom_rep(R)
    assert report.ok, "the padded module still satisfies both conditions"
    kernel, image = kernel_image_submodules(R)
    assert kernel.subspace == Subspace(3, [(ZERO, ZERO, ONE)])
    assert image.subspace == Subspace(3, [e_(3, 0), e_(3, 1)])
    assert kernel.stable_under_rho and kernel.stable_under_beta
    assert image.stable_under_rho and image.stable_under_beta

    w = submodule_closure(R, kernel.subspace)
    assert w.subspace == kernel.subspace, "the kernel is already a submodule"
    assert 0 < w.subspace.dim < R.dim_V


def test_kernel_image_trivial_cases():
    R = twisted_module(1)
    kernel, image = kernel_image_submodules(R)
    assert kernel.subspace.is_zero() and image.subspace.is_full()

    H = R.algebra
    dead = HomRep(H, 2, (Matrix.zero(2, 2),) * 3, Matrix.zero(2, 2))
    kernel, image = kernel_image_submodules(dead)
    assert kernel.subspace.is_full() and image.subspace.is_zero()


def test_conjugacy_relation_predicate():
    R = twisted_module(1)
    S = Matrix.from_rows([[1, 1], [0, 1]])
    from homlie.linalg import inverse

    delta = S @ R.beta @ inverse(S)
    assert conjugacy_relation(S, R.beta, delta).ok
    assert not conjugacy_relation(S, R.beta, R.beta + Matrix.identity(2)).ok


def test_random_vector_closures_full_on_twisted_modules():
    rng = random.Random(31)
    R = twisted_module(3)
    for _ in range(5):
        v = [sc(rng.randint(-3, 3)) for _ in range(4)]
        if all(x.is_zero() for x in v):
            v[0] = ONE
        w = submodule_closure(R, Subspace(4, [tuple(v)]))
        assert w.subspace.is_full()


# --- failure parity of verify_hom_rep against a per-pair reference --------------

def reference_apply_rho(rho, vector):
    out = Matrix.zero(rho[0].rows, rho[0].rows)
    for coeff, mat in zip(vector, rho):
        if not coeff.is_zero():
            out = out + mat.scale(coeff)
    return out


def reference_verify_hom_rep(R):
    """verify_hom_rep with every action of a twisted element formed anew
    for each element and pair, from the powers of the twist."""
    H, rho = R.algebra, R.rho_beta
    names, dim = H.basis_names, H.dim
    apow = [Matrix.identity(dim), H.alpha]
    bpow = [Matrix.identity(R.dim_V), R.beta]

    def twist_cases(n):
        for i in range(dim):
            lhs = reference_apply_rho(rho, apow[n].column(i)) @ bpow[n]
            yield {"element": names[i]}, lhs - bpow[n] @ rho[i]

    def bracket_cases(n):
        for i in range(dim):
            for j in range(i + 1, dim):
                lhs = reference_apply_rho(rho, apow[n].apply(H.c_alpha[i][j])) @ R.beta
                rhs = (
                    reference_apply_rho(rho, apow[n + 1].column(i))
                    @ reference_apply_rho(rho, apow[n].column(j))
                    - reference_apply_rho(rho, apow[n + 1].column(j))
                    @ reference_apply_rho(rho, apow[n].column(i))
                )
                yield {"pair": [names[i], names[j]]}, lhs - rhs

    report = VerificationReport()
    twist = first_nonzero(twist_cases(1))
    report.add_found("twist_compatibility", twist)
    bracket = first_nonzero(bracket_cases(0))
    report.add_found("bracket_compatibility", bracket)
    if det(R.beta).is_zero():
        return report
    for _ in range(2):
        apow.append(H.alpha @ apow[-1])
        bpow.append(R.beta @ bpow[-1])
    report.add_found("twist_power_1", twist, n=1)
    for n in (2, 3):
        report.sweep(f"twist_power_{n}", twist_cases(n), n=n)
    report.add_found("bracket_power_0", bracket, n=0)
    for n in (1, 2):
        report.sweep(f"bracket_power_{n}", bracket_cases(n), n=n)
    return report


def rows_of(report):
    return [(c.name, c.status, c.witness, c.residual) for c in report.checks]


def bumped(rng, M):
    """M with one entry moved by 1, L, 2 or -1/L."""
    cells = list(M.entries)
    k = rng.randrange(len(cells))
    cells[k] = cells[k] + rng.choice((ONE, L, sc(2), -ONE / L))
    return Matrix(M.rows, M.cols, tuple(cells))


def test_verify_hom_rep_failures_match_the_per_pair_reference():
    rng = random.Random(71)
    failing = {"twist_power_2": 0, "bracket_power_1": 0, "bracket_power_2": 0}
    late = 0  # bracket_power_2 fails although bracket_power_1 holds
    for _ in range(60):
        R = twisted_module(rng.choice((1, 2)))
        H, rho, beta, alpha = R.algebra, list(R.rho_beta), R.beta, R.algebra.alpha
        kind = rng.choice(("rho", "beta", "alpha", "twist_signs"))
        if kind == "rho":
            i = rng.randrange(3)
            rho[i] = bumped(rng, rho[i])
        elif kind == "beta":
            beta = bumped(rng, beta)
        elif kind == "alpha":
            alpha = bumped(rng, alpha)
        else:  # flip or rescale twist eigenvalues: some powers of the twist agree again
            alpha = Matrix.diagonal([alpha[i, i] * rng.choice((ONE, L, -ONE)) for i in range(3)])
        twisted = HomLieAlgebraData(H.dim, H.basis_names, H.c_alpha, alpha)
        perturbed = HomRep(twisted, R.dim_V, tuple(rho), beta)
        report = verify_hom_rep(perturbed)
        assert rows_of(report) == rows_of(reference_verify_hom_rep(perturbed))
        status = by_name(report)
        for name in failing:
            failing[name] += name in status and not status[name].ok
        if "bracket_power_2" in status:
            late += status["bracket_power_1"].ok and not status["bracket_power_2"].ok
    assert min(failing.values()) >= 10 and late >= 1
