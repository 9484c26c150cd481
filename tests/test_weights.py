"""Root/weight decompositions, candidate lifting, weak/strong split."""

import pytest

from homlie.algebra import cyclic_sum_construction, lie_algebra
from homlie.linalg import Matrix, ShapeMismatch, Subspace, inverse
from homlie.rep import (
    hom_rep_from_lie,
    lie_rep_from_hom,
    tensor_hom_rep,
    verify_hom_rep,
)
from homlie.report import Refuted
from homlie.scalar import L, ONE, ZERO, sc
from homlie.sl2 import (
    diagonal_twist_hom_sl2,
    diagonal_twist_matrix,
    sl2_lie_algebra,
    sl2_standard_rep,
    standard_beta,
    twisted_standard_module,
)
from homlie.weights import (
    CartanData,
    RootDecomposition,
    WeightDecomposition,
    classify_weight_module,
    highest_weight_vector_check,
    root_decomposition,
    weight_decomposition,
)


def e_(dim, i):
    return tuple(ONE if j == i else ZERO for j in range(dim))


def span(dim, *vectors):
    return Subspace(dim, list(vectors))


def h_cartan(algebra, *indices):
    dim = algebra.dim
    return CartanData(algebra, span(dim, *(e_(dim, i) for i in indices)))


def rows(entries):
    return Matrix.from_rows([[sc(x) for x in row] for row in entries])


# ---------------------------------------------------------------------------
# root decomposition
# ---------------------------------------------------------------------------

def test_sl2_roots_supplied_candidates():
    C = h_cartan(sl2_lie_algebra(), 2)
    R = root_decomposition(C, candidates=[2, -2])
    assert R.zero_part == span(3, e_(3, 2))
    assert R.roots == (
        ((sc(2),), span(3, e_(3, 0))),
        ((sc(-2),), span(3, e_(3, 1))),
    )


def test_sl2_roots_auto_candidates_and_json():
    R = root_decomposition(h_cartan(sl2_lie_algebra(), 2))
    # auto-generated candidates come out sorted by rendered value
    assert R.as_json() == {
        "zero_part": [["0", "0", "1"]],
        "roots": [
            {"functional": ["-2"], "space": [["0", "1", "0"]]},
            {"functional": ["2"], "space": [["1", "0", "0"]]},
        ],
    }


def test_abelian_algebra_is_all_zero_part():
    A = lie_algebra(("x", "y"), {})
    R = root_decomposition(h_cartan(A, 0, 1))
    assert R.roots == ()
    assert R.zero_part.is_full


def test_missing_candidates_fail_loudly():
    with pytest.raises(Refuted, match="^decomposition_complete "):
        root_decomposition(h_cartan(sl2_lie_algebra(), 2), candidates=[2])


def test_non_commuting_h_basis_rejected():
    with pytest.raises(Refuted, match="^cartan_commutes "):
        root_decomposition(h_cartan(sl2_lie_algebra(), 0, 2))
    with pytest.raises(ShapeMismatch):
        root_decomposition(CartanData(sl2_lie_algebra(), span(2, e_(2, 0))))


def test_twisted_sl2_roots_lift_symbolically():
    # the twisted brackets scale the root functionals by the parameter
    # and its reciprocal; the specialization heuristic must lift both
    H = diagonal_twist_hom_sl2()
    R = root_decomposition(h_cartan(H, 2))
    assert R.zero_part == span(3, e_(3, 2))
    functionals = [f for f, _ in R.roots]
    assert functionals == [(sc(-2) / L,), (sc(2) * L,)]
    spaces = [s for _, s in R.roots]
    assert spaces == [span(3, e_(3, 1)), span(3, e_(3, 0))]


def test_cyclic_sum_roots_transport():
    # copy-k root functionals are the copy-0 ones composed with the
    # inverse twist; check by transporting (functional, space) directly
    CS = cyclic_sum_construction(sl2_lie_algebra(), diagonal_twist_matrix(), 2)
    C = h_cartan(CS.algebra, 2, 5)
    R = root_decomposition(C)
    assert R.zero_part.dim == 2
    assert len(R.roots) == 4
    assert ((sc(2), ZERO), span(6, e_(6, 0))) in R.roots
    assert ((ZERO, sc(2)), span(6, e_(6, 3))) in R.roots
    ainv = inverse(CS.alpha)
    h_indices = (2, 5)
    for functional, space in R.roots:
        transported = []
        for j in h_indices:
            w = ainv.apply(e_(6, j))
            assert all(w[t].is_zero() for t in range(6) if t not in h_indices)
            value = ZERO
            for coord, eigen in zip(h_indices, functional):
                value = value + w[coord] * eigen
            transported.append(value)
        image = space.image_under(CS.alpha)
        assert (tuple(transported), image) in R.roots


# ---------------------------------------------------------------------------
# weight decomposition
# ---------------------------------------------------------------------------

def test_standard_rep_weights():
    R = sl2_standard_rep(2)
    C = h_cartan(R.algebra, 2)
    W = weight_decomposition(R, C, candidates=[2, 0, -2])
    assert W.weights == (
        ((sc(2),), span(3, e_(3, 0))),
        ((ZERO,), span(3, e_(3, 1))),
        ((sc(-2),), span(3, e_(3, 2))),
    )
    auto = weight_decomposition(R, C)
    assert set(W.weights) == set(auto.weights)


def test_trivial_rep_single_zero_weight():
    from homlie.rep import LieRep

    A = sl2_lie_algebra()
    R = LieRep(A, 1, tuple(Matrix.zero(1, 1) for _ in range(3)))
    W = weight_decomposition(R, h_cartan(A, 2))
    assert W.weights == (((ZERO,), span(1, e_(1, 0))),)


def test_weight_candidates_must_cover():
    R = sl2_standard_rep(2)
    with pytest.raises(Refuted, match="^decomposition_complete "):
        weight_decomposition(R, h_cartan(R.algebra, 2), candidates=[2, 0])


def test_irrational_spectrum_is_incomplete_not_truncated():
    A = lie_algebra(("z",), {})
    R_matrix = rows([[0, 2], [1, 0]])  # eigenvalues are square roots of 2
    from homlie.rep import LieRep

    R = LieRep(A, 2, (R_matrix,))
    with pytest.raises(Refuted, match="^decomposition_complete "):
        weight_decomposition(R, h_cartan(A, 0))


def test_tensor_weights_add_per_slot():
    CS = cyclic_sum_construction(sl2_lie_algebra(), diagonal_twist_matrix(), 2)
    T = tensor_hom_rep(
        [sl2_standard_rep(1), sl2_standard_rep(1)],
        [standard_beta(1), standard_beta(1)],
        CS,
    )
    induced = lie_rep_from_hom(T)
    W = weight_decomposition(induced, h_cartan(induced.algebra, 2, 5))
    assert len(W.weights) == 4
    # Kronecker oracle: the pure basis vector v_i (x) v_j sits at index
    # 2i + j and carries the per-slot eigenvalue pair (1-2i, 1-2j)
    for i in (0, 1):
        for j in (0, 1):
            expected = ((sc(1 - 2 * i), sc(1 - 2 * j)), span(4, e_(4, 2 * i + j)))
            assert expected in W.weights


# ---------------------------------------------------------------------------
# weak/strong classification
# ---------------------------------------------------------------------------

def test_twisted_standard_module_is_strong():
    R = twisted_standard_module(2)
    induced = lie_rep_from_hom(R)
    W = weight_decomposition(induced, h_cartan(induced.algebra, 2))
    assert classify_weight_module(R, W) == "Strong"
    reordered = WeightDecomposition(W.module, tuple(reversed(W.weights)))
    assert classify_weight_module(R, reordered) == "Strong"


def test_identity_beta_is_strong():
    R = hom_rep_from_lie(sl2_standard_rep(1), Matrix.identity(3), Matrix.identity(2))
    W = weight_decomposition(
        lie_rep_from_hom(R), h_cartan(R.algebra, 2), candidates=[1, -1]
    )
    assert classify_weight_module(R, W) == "Strong"


def mixing_module():
    """A genuine module whose compatibility map shears two weight lines.

    The twist is the exponential of the nilpotent inner derivation by e
    (exact: the series stops at the square); the compatibility map is
    the matching unipotent shear on the 2-dimensional module.
    """
    alpha = rows([[1, -1, -2], [0, 1, 0], [0, 1, 1]])
    beta = rows([[1, 1], [0, 1]])
    return hom_rep_from_lie(sl2_standard_rep(1), alpha, beta)


def test_mixing_beta_is_weak():
    R = mixing_module()
    assert verify_hom_rep(R).ok
    induced = lie_rep_from_hom(R)
    W = weight_decomposition(induced, h_cartan(induced.algebra, 2))
    assert len(W.weights) == 2
    assert classify_weight_module(R, W) == "Weak"
    reordered = WeightDecomposition(W.module, tuple(reversed(W.weights)))
    assert classify_weight_module(R, reordered) == "Weak"


# ---------------------------------------------------------------------------
# highest weight vectors
# ---------------------------------------------------------------------------

def test_highest_weight_vector_standard():
    R = sl2_standard_rep(3)
    positive = span(3, e_(3, 0))
    C = h_cartan(R.algebra, 2)
    assert highest_weight_vector_check(R, positive, e_(4, 0), cartan=C)
    assert not highest_weight_vector_check(R, positive, e_(4, 1), cartan=C)
    assert not highest_weight_vector_check(R, positive, (ZERO,) * 4)


def test_highest_weight_needs_eigenvector_when_cartan_given():
    from homlie.rep import LieRep

    A = sl2_lie_algebra()
    blocks = []
    for M in sl2_standard_rep(1).rho:
        padded = [[M[i, j] for j in range(2)] + [ZERO] for i in range(2)]
        padded.append([ZERO, ZERO, ZERO])
        blocks.append(Matrix.from_rows(padded))
    R = LieRep(A, 3, tuple(blocks))
    v = (ONE, ZERO, ONE)  # annihilated by e, but mixes two weights
    positive = span(3, e_(3, 0))
    assert highest_weight_vector_check(R, positive, v)
    assert not highest_weight_vector_check(R, positive, v, cartan=h_cartan(A, 2))


def test_highest_weight_beta_image_in_twisted_module():
    R = twisted_standard_module(2)
    positive = span(3, e_(3, 0))
    C = h_cartan(R.algebra, 2)
    image = R.beta.apply(e_(3, 0))
    assert highest_weight_vector_check(R, positive, image, cartan=C)


def test_positive_part_must_be_a_subalgebra():
    R = sl2_standard_rep(1)
    with pytest.raises(Refuted, match="^positive_part_closed "):
        highest_weight_vector_check(R, span(3, e_(3, 0), e_(3, 1)), e_(2, 0))
