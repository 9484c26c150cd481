"""Algebra-layer tests: axioms, twisting, trace form, ideals, sums."""

import itertools
import random
from fractions import Fraction

import pytest

from homlie.algebra import (
    CyclicSum,
    HomLieAlgebraData,
    LieAlgebraData,
    _divisors,
    _sparse,
    ad_matrix,
    bracket_apply,
    cyclic_sum_construction,
    decompose_simple_ideals,
    ideal_closure,
    induced_lie_algebra,
    is_semisimple,
    killing_form,
    lie_algebra,
    skew_constants,
    verify_hom_lie,
    verify_lie_morphism,
    yau_twist,
)
from homlie.linalg import Matrix, Subspace, det
from homlie.rep import HomRep, submodule_closure
from homlie.report import Refuted
from homlie.scalar import L, ONE, ZERO, sc


def sl2():
    return lie_algebra(
        ("e", "f", "h"),
        {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}},
    )


def diag_twist():
    return Matrix.diagonal([L, ONE / L, ONE])


def abelian(n):
    names = tuple(f"z{i}" for i in range(n))
    return lie_algebra(names, {})


def by_name(report):
    return {c.name: c for c in report.checks}


def e_(dim, i):
    v = [ZERO] * dim
    v[i] = ONE
    return tuple(v)


# --- construction and axioms -------------------------------------------------

def test_sl2_constructs_with_skew_completion():
    A = sl2()
    assert A.dim == 3
    assert A.c[2][0] == (sc(2), ZERO, ZERO), "[h,e] = 2e"
    assert A.c[0][2] == (sc(-2), ZERO, ZERO), "skew completion gives [e,h] = -2e"
    assert A.c[0][1] == (ZERO, ZERO, ONE), "[e,f] = h"


def test_bad_jacobi_rejected():
    # flipping the sign of [h,f] breaks Jacobi on (e,f,h):
    # [[e,f],h] + [[f,h],e] + [[h,e],f] = 0 + 2h + 2h = 4h
    with pytest.raises(Refuted) as exc:
        lie_algebra(
            ("e", "f", "h"),
            {("h", "e"): {"e": 2}, ("h", "f"): {"f": 2}, ("e", "f"): {"h": 1}},
        )
    failing = exc.value.report.first_failure()
    assert failing.name == "jacobi"
    assert failing.witness == {"triple": ["e", "f", "h"]}


def test_nonzero_self_bracket_rejected():
    with pytest.raises(Refuted, match="^bracket_skew "):
        lie_algebra(("x", "y"), {("x", "x"): {"y": 1}})


def test_bracket_apply_frozen_values():
    A = sl2()
    e, f, h = e_(3, 0), e_(3, 1), e_(3, 2)
    assert bracket_apply(A, h, e) == (sc(2), ZERO, ZERO)
    assert bracket_apply(A, e, f) == (ZERO, ZERO, ONE)

    rng = random.Random(11)
    for _ in range(6):
        x = tuple(sc(rng.randint(-4, 4)) for _ in range(3))
        assert all(v.is_zero() for v in bracket_apply(A, x, x))

    H = yau_twist(A, diag_twist())
    assert bracket_apply(H, h, e) == (sc(2) * L, ZERO, ZERO), "[h,e] twists to 2*L*e"

    from homlie.linalg import ShapeMismatch

    with pytest.raises(ShapeMismatch):
        bracket_apply(A, (ONE, ZERO), (ZERO, ONE, ZERO))


def test_bracket_apply_bilinear():
    A = sl2()
    rng = random.Random(5)
    for _ in range(4):
        x = tuple(sc(rng.randint(-3, 3)) for _ in range(3))
        y = tuple(sc(rng.randint(-3, 3)) for _ in range(3))
        z = tuple(sc(rng.randint(-3, 3)) for _ in range(3))
        lhs = bracket_apply(A, tuple(a + b for a, b in zip(x, y)), z)
        rhs = tuple(
            a + b
            for a, b in zip(bracket_apply(A, x, z), bracket_apply(A, y, z))
        )
        assert lhs == rhs


# --- verify_hom_lie ----------------------------------------------------------

def test_yau_twist_of_sl2_passes_everything():
    H = yau_twist(sl2(), diag_twist())
    report = verify_hom_lie(H)
    assert report.ok, report.summary()
    names = by_name(report)
    assert set(names) == {"bracket_skew", "twisted_jacobi", "twist_is_bracket_morphism"}


def test_abelian_with_arbitrary_twist_passes():
    A = abelian(3)
    alpha = Matrix.from_rows([[1, 2, 3], [0, 1, 7], [5, 0, 2]])
    H = HomLieAlgebraData(3, A.basis_names, A.c, alpha)
    assert verify_hom_lie(H).ok


def brute_force_twisted_jacobi(H):
    """Independent sweep over every ordered basis triple, no shortcuts."""
    dim = H.dim
    acols = [H.alpha.column(i) for i in range(dim)]
    basis = [e_(dim, i) for i in range(dim)]
    worst = None
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                total = [ZERO] * dim
                for (a, b, t) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = bracket_apply(H, basis[b], basis[t])
                    term = bracket_apply(H, acols[a], inner)
                    total = [p + q for p, q in zip(total, term)]
                if any(not v.is_zero() for v in total):
                    worst = ((i, j, k), tuple(total))
    return worst


def test_swap_twist_fails_only_multiplicativity():
    # e<->f with h fixed: the twisted Jacobi identity survives (the cyclic
    # sum is alternating once skew holds, and it vanishes on (e,f,h)), but
    # the map is not a bracket morphism.
    A = sl2()
    swap = Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    H = HomLieAlgebraData(3, A.basis_names, A.c, swap)
    assert brute_force_twisted_jacobi(H) is None, "all 27 ordered triples vanish"
    report = verify_hom_lie(H)
    names = by_name(report)
    assert names["bracket_skew"].ok
    assert names["twisted_jacobi"].ok
    assert not names["twist_is_bracket_morphism"].ok
    assert names["twist_is_bracket_morphism"].witness == {"pair": ["e", "f"]}


def test_three_cycle_twist_fails_twisted_jacobi():
    # alpha: e -> h, f -> e, h -> f.  On (e,f,h) the cyclic sum is
    # [h,[f,h]] + [e,[h,e]] + [f,[e,f]] = -4f + 0 + 2f = -2f.
    A = sl2()
    cyc = Matrix.from_columns([e_(3, 2), e_(3, 0), e_(3, 1)])
    H = HomLieAlgebraData(3, A.basis_names, A.c, cyc)
    worst = brute_force_twisted_jacobi(H)
    assert worst is not None
    report = verify_hom_lie(H, check_multiplicative=False)
    names = by_name(report)
    assert names["bracket_skew"].ok
    assert not names["twisted_jacobi"].ok
    assert names["twisted_jacobi"].witness == {"triple": ["e", "f", "h"]}
    assert names["twisted_jacobi"].residual == ["0", "-2", "0"]


# --- yau_twist / induced_lie_algebra ----------------------------------------

def test_yau_twist_frozen_constants():
    H = yau_twist(sl2(), diag_twist())
    two_lam = sc(2) * L
    assert H.c_alpha[2][0] == (two_lam, ZERO, ZERO), "[h,e] -> 2*L*e"
    assert H.c_alpha[2][1] == (ZERO, sc(-2) / L, ZERO), "[h,f] -> -2/L*f"
    assert H.c_alpha[0][1] == (ZERO, ZERO, ONE), "[e,f] -> h"
    assert H.multiplicative is True


def test_yau_twist_identity_is_inclusion():
    A = sl2()
    H = yau_twist(A, Matrix.identity(3))
    assert H.c_alpha == A.c


def test_yau_twist_abelian_any_map():
    A = abelian(2)
    H = yau_twist(A, Matrix.from_rows([[3, 1], [0, 0]]))
    assert all(
        all(v.is_zero() for v in H.c_alpha[i][j]) for i in range(2) for j in range(2)
    )


def test_yau_twist_rejects_non_morphism():
    swap = Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(Refuted, match="^twist_is_bracket_morphism "):
        yau_twist(sl2(), swap)


def test_morphism_examples():
    A = sl2()
    assert verify_lie_morphism(A, A, Matrix.identity(3)).ok
    assert verify_lie_morphism(A, A, diag_twist()).ok

    swap = Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    report = verify_lie_morphism(A, A, swap)
    assert not report.ok
    assert report.first_failure().name == "bracket_compatibility"
    # the (h,e) pair's defect, recomputed directly: phi([h,e]) = 2f while
    # [phi(h), phi(e)] = [h,f] = -2f
    phi_he = swap.apply(bracket_apply(A, e_(3, 2), e_(3, 0)))
    direct = bracket_apply(A, swap.column(2), swap.column(0))
    assert phi_he == (ZERO, sc(2), ZERO)
    assert direct == (ZERO, sc(-2), ZERO)


def test_weak_morphism_skips_twist_compatibility():
    A = sl2()
    H = yau_twist(A, diag_twist())
    # identity intertwines the brackets of H with itself but commutes with
    # alpha trivially; against a *different* twist it fails strongly.
    H2 = HomLieAlgebraData(3, A.basis_names, H.c_alpha, Matrix.identity(3))
    strong = verify_lie_morphism(H, H2, Matrix.identity(3))
    weak = verify_lie_morphism(H, H2, Matrix.identity(3), weak=True)
    assert not strong.ok and strong.first_failure().name == "twist_compatibility"
    assert weak.ok


def test_induced_round_trip_bit_exact():
    A = sl2()
    H = yau_twist(A, diag_twist())
    back = induced_lie_algebra(H)
    assert back.c == A.c
    again = yau_twist(back, H.alpha)
    assert again.c_alpha == H.c_alpha and again.alpha == H.alpha

    ident = yau_twist(A, Matrix.identity(3))
    assert induced_lie_algebra(ident).c == A.c


def test_induced_requires_invertible_twist():
    A = abelian(2)
    H = HomLieAlgebraData(2, A.basis_names, A.c, Matrix.from_rows([[1, 0], [2, 0]]))
    with pytest.raises(Refuted, match="^invertibility "):
        induced_lie_algebra(H)


# --- Killing form ------------------------------------------------------------

def oracle_killing_sl2():
    """Trace-form gram computed with plain integer lists, no Matrix code."""
    ade = [[0, 0, -2], [0, 0, 0], [0, 1, 0]]
    adf = [[0, 0, 0], [0, 0, 2], [-1, 0, 0]]
    adh = [[2, 0, 0], [0, -2, 0], [0, 0, 0]]
    ads = [ade, adf, adh]

    def mul(X, Y):
        return [
            [sum(X[i][k] * Y[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]

    return [
        [sum(mul(ads[i], ads[j])[d][d] for d in range(3)) for j in range(3)]
        for i in range(3)
    ]


def test_killing_sl2_matches_oracle():
    oracle = oracle_killing_sl2()
    assert oracle == [[0, 4, 0], [4, 0, 0], [0, 0, 8]], "oracle self-check"
    gram = killing_form(sl2()).gram
    for i in range(3):
        for j in range(3):
            assert gram[i, j].as_rational() == Fraction(oracle[i][j])
    assert det(gram).as_rational() == Fraction(-128)


def test_killing_invariance_random_and_twist():
    A = sl2()
    K = killing_form(A)
    rng = random.Random(23)
    for _ in range(8):
        x, y, z = (
            tuple(sc(rng.randint(-5, 5)) for _ in range(3)) for _ in range(3)
        )
        assert K.pairing(bracket_apply(A, x, y), z) == K.pairing(
            x, bracket_apply(A, y, z)
        )
    alpha = diag_twist()
    for i in range(3):
        for j in range(3):
            assert K.pairing(alpha.column(i), alpha.column(j)) == K.pairing(
                e_(3, i), e_(3, j)
            ), "automorphisms preserve the trace form"


def test_killing_block_structure_on_direct_sum():
    total = cyclic_sum_construction(sl2(), Matrix.identity(3), 2).algebra
    gram = killing_form(total).gram
    small = killing_form(sl2()).gram
    for i in range(6):
        for j in range(6):
            same_copy = (i < 3) == (j < 3)
            expected = small[i % 3, j % 3] if same_copy else ZERO
            assert gram[i, j] == expected


def gl(n):
    """gl(n) on the matrix units: [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    names = tuple(f"E{i}{j}" for i in range(n) for j in range(n))
    brackets = {}
    for i, j, k, l in itertools.product(range(n), repeat=4):
        if (i, j) < (k, l):
            value = {}
            if j == k:
                value[f"E{i}{l}"] = 1
            if l == i:
                value[f"E{k}{j}"] = -1  # E_kj differs from E_il, as (k, l) != (i, j)
            brackets[(f"E{i}{j}", f"E{k}{l}")] = value
    return lie_algebra(names, brackets)


def broken_sl2():
    """sl(2) with [h,f] = 2f, which breaks Jacobi on (e,f,h), built without
    the check made on construction; its trace form is still symmetric."""
    names = ("e", "f", "h")
    brackets = {("h", "e"): {"e": 2}, ("h", "f"): {"f": 2}, ("e", "f"): {"h": 1}}
    A = object.__new__(LieAlgebraData)
    object.__setattr__(A, "dim", 3)
    object.__setattr__(A, "basis_names", names)
    object.__setattr__(A, "c", skew_constants(names, brackets))
    return A


def invariant_by_triples(A, gram):
    """K([x_i, x_j], x_k) == K(x_i, [x_j, x_k]) on every basis triple."""
    n = A.dim

    def pairing(x, y):
        return sum((x[a] * gram[a, b] * y[b] for a in range(n) for b in range(n)), ZERO)

    return all(
        pairing(A.c[i][j], e_(n, k)) == pairing(e_(n, i), A.c[j][k])
        for i, j, k in itertools.product(range(n), repeat=3)
    )


def test_killing_invariance_check_matches_the_triple_loop():
    total = cyclic_sum_construction(sl2(), Matrix.identity(3), 2).algebra
    for A in (gl(2), gl(3), total):
        assert invariant_by_triples(A, killing_form(A).gram)
    A = broken_sl2()
    ads = [ad_matrix(A, e_(3, i)) for i in range(3)]
    gram = Matrix(3, 3, tuple((x @ y).trace() for x in ads for y in ads))
    assert gram == gram.transpose()
    assert not invariant_by_triples(A, gram)
    with pytest.raises(Refuted) as exc:
        killing_form(A)
    assert exc.value.report.first_failure().name == "killing_invariance"


def test_abelian_killing_zero_and_not_semisimple():
    A = abelian(2)
    assert killing_form(A).gram.is_zero()
    assert not is_semisimple(A)


def test_is_semisimple_examples():
    assert is_semisimple(sl2())
    # sl(2) plus a central line degenerates the form
    padded = lie_algebra(
        ("e", "f", "h", "z"),
        {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}},
    )
    assert not is_semisimple(padded)
    with pytest.raises(Refuted, match="^semisimple "):
        decompose_simple_ideals(padded)


# --- ideal closure -----------------------------------------------------------

def test_ideal_closure_zero_seed():
    H = yau_twist(sl2(), diag_twist())
    w = ideal_closure(H, Subspace.zero(3))
    assert w.subspace.is_zero()
    assert w.closed_under_bracket and w.closed_under_alpha


def test_ideal_closure_regenerates_sl2_from_e():
    H = yau_twist(sl2(), diag_twist())
    w = ideal_closure(H, Subspace(3, [e_(3, 0)]))
    assert w.subspace.is_full()
    assert w.closed_under_bracket and w.closed_under_alpha


def test_ideal_closure_respects_summand():
    sum2 = cyclic_sum_construction(sl2(), Matrix.identity(3), 2)
    H = yau_twist(sum2.algebra, Matrix.identity(6))
    w = ideal_closure(H, Subspace(6, [e_(6, 0)]))
    assert w.subspace == sum2.copy_subspace(0)


def test_ideal_closure_with_copy_mixing_twist_is_everything():
    sum2 = cyclic_sum_construction(sl2(), Matrix.identity(3), 2)
    H = yau_twist(sum2.algebra, sum2.alpha)
    w = ideal_closure(H, Subspace(6, [e_(6, 0)]))
    assert w.subspace.is_full(), "the copy-cycling twist drags copy 0 into copy 1"


# --- cyclic sums -------------------------------------------------------------

def test_cyclic_sum_n1_is_the_input():
    out = cyclic_sum_construction(sl2(), diag_twist(), 1)
    algebra, alpha = out
    assert algebra.basis_names == ("e0", "f0", "h0")
    assert algebra.c == sl2().c
    assert alpha == diag_twist()


def test_cyclic_sum_n2_twist_passes():
    sum2 = cyclic_sum_construction(sl2(), Matrix.identity(3), 2)
    H = yau_twist(sum2.algebra, sum2.alpha)
    assert verify_hom_lie(H).ok
    assert not det(sum2.alpha).is_zero(), "constructed twists stay invertible"

    rng = random.Random(7)
    for _ in range(5):
        v = [ZERO] * 6
        for i in range(6):
            v[i] = sc(rng.randint(-3, 3))
        if all(x.is_zero() for x in v):
            v[0] = ONE
        w = ideal_closure(H, Subspace(6, [tuple(v)]))
        assert w.subspace.is_full()


def test_cyclic_sum_n3_power_structure():
    sigma = diag_twist()
    sum3 = cyclic_sum_construction(sl2(), sigma, 3)
    assert sum3.algebra.dim == 9
    cubed = sum3.alpha.power(3)
    for i in range(3):
        for j in range(3):
            assert cubed[i, j] == sigma[i, j], "alpha^3 restricted to copy 0 is sigma"
    copy0 = sum3.copy_subspace(0)
    for k in range(3):
        image = copy0
        for _ in range(k):
            image = image.image_under(sum3.alpha)
        assert image == sum3.copy_subspace(k), f"alpha^{k} sends copy 0 onto copy {k}"
    H = yau_twist(sum3.algebra, sum3.alpha)
    assert verify_hom_lie(H).ok


def test_cyclic_sum_rejects_non_automorphism():
    swap = Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(Refuted, match="^sigma_automorphism "):
        cyclic_sum_construction(sl2(), swap, 2)
    rank_deficient = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(Refuted, match="^sigma_automorphism "):
        cyclic_sum_construction(sl2(), rank_deficient, 2)


# --- decomposition into simple ideals ----------------------------------------

def test_decompose_simple_algebra_is_single_piece():
    pieces = decompose_simple_ideals(sl2(), trials=6, rng_seed=1)
    assert len(pieces) == 1 and pieces[0].is_full()


def test_decompose_aligned_sum():
    sum2 = cyclic_sum_construction(sl2(), Matrix.identity(3), 2)
    pieces = decompose_simple_ideals(sum2.algebra, trials=6, rng_seed=2)
    assert sorted(p.dim for p in pieces) == [3, 3]
    assert set(pieces) == {sum2.copy_subspace(0), sum2.copy_subspace(1)}


def conjugated_sum():
    """sl(2)+sl(2) written in a basis that mixes the two copies."""
    sum2 = cyclic_sum_construction(sl2(), Matrix.identity(3), 2)
    L6 = sum2.algebra
    rows = [[0] * 6 for _ in range(6)]
    for i in range(3):
        rows[i][i] = 1
        rows[i][i + 3] = 1
        rows[i + 3][i] = 1
        rows[i + 3][i + 3] = 2
    g = Matrix.from_rows(rows)
    from homlie.linalg import inverse

    ginv = inverse(g)
    names = tuple(f"b{i}" for i in range(6))
    c = tuple(
        tuple(
            ginv.apply(bracket_apply(L6, g.column(a), g.column(b))) for b in range(6)
        )
        for a in range(6)
    )
    return LieAlgebraData(6, names, c), g, sum2


def test_decompose_conjugated_sum_recovers_copies():
    Lc, g, sum2 = conjugated_sum()
    pieces = decompose_simple_ideals(Lc, trials=6, rng_seed=3)
    assert sorted(p.dim for p in pieces) == [3, 3]
    images = {p.image_under(g) for p in pieces}
    assert images == {sum2.copy_subspace(0), sum2.copy_subspace(1)}


def test_decompose_is_deterministic():
    sum2 = cyclic_sum_construction(sl2(), Matrix.identity(3), 2)
    first = decompose_simple_ideals(sum2.algebra, trials=5, rng_seed=9)
    second = decompose_simple_ideals(sum2.algebra, trials=5, rng_seed=9)
    assert first == second


# --- rational roots ----------------------------------------------------------

def divisors_from_factorisation(m):
    divs, p = [1], 2
    while m > 1:
        e = 0
        while m % p == 0:
            m, e = m // p, e + 1
        divs = [d * p**k for d in divs for k in range(e + 1)]
        p += 1
    return sorted(divs)


def test_divisors_match_trial_division():
    for m in range(0, 5001):
        assert _divisors(m) == [d for d in range(1, m + 1) if m % d == 0]
    for m in (10**8, 2**20, 997 * 991, 10395**2):
        assert _divisors(m) == divisors_from_factorisation(m)


# --- the sparse bracket table and worklist closures against dense references ---

def heisenberg(scale):
    """The Heisenberg algebra in a rescaled basis: [x, y] = scale * z."""
    return lie_algebra(("x", "y", "z"), {("x", "y"): {"z": scale}})


def table_algebras():
    sum2 = cyclic_sum_construction(sl2(), Matrix.identity(3), 2)
    return [
        gl(3),
        sum2.algebra,
        heisenberg(sc(Fraction(3, 2)) * L ** 2),
        heisenberg((L + ONE) / (L - sc(2))),
        yau_twist(sum2.algebra, sum2.alpha),
    ]


def rand_entry(rng):
    """0, a small rational, c*L^k or (L+a)/(L-b)."""
    r = rng.random()
    if r < 0.5:
        return ZERO
    if r < 0.8:
        return sc(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    if r < 0.9:
        return sc(rng.choice((1, -2, Fraction(1, 3)))) * L ** rng.randint(-2, 2)
    return (L + rng.randint(-2, 2)) / (L - rng.randint(-2, 2))


def rand_vec(rng, dim):
    return tuple(rand_entry(rng) for _ in range(dim))


def dense_bracket(A, x, y):
    """The contraction over every cell of the dense constants."""
    c, n = A.structure_constants, A.dim
    return tuple(
        sum((x[i] * y[j] * c[i][j][k] for i in range(n) for j in range(n)), ZERO)
        for k in range(n)
    )


def test_stored_table_is_the_sparse_constants():
    for A in table_algebras():
        c = A.structure_constants
        n = A.dim
        assert A.table == tuple(tuple(_sparse(c[i][j]) for j in range(n)) for i in range(n))
        assert A.table is A.table  # built once
        assert "table" not in repr(A)
    A = gl(3)
    assert A == LieAlgebraData(A.dim, A.basis_names, A.c) and hash(A) == hash(gl(3))


def test_bracket_apply_and_ad_matrix_match_the_dense_contraction():
    rng = random.Random(59)
    for A in table_algebras():
        n = A.dim
        for _ in range(4):
            x, y = rand_vec(rng, n), rand_vec(rng, n)
            assert bracket_apply(A, x, y) == dense_bracket(A, x, y)
            columns = [dense_bracket(A, x, e_(n, j)) for j in range(n)]
            assert ad_matrix(A, x) == Matrix.from_columns(columns)
        for i in range(n):
            assert ad_matrix(A, e_(n, i)).column(i) == (ZERO,) * n


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


def holds(S, vectors):
    """Membership by rank, independent of Subspace.contains_vector."""
    return all(Subspace(S.ambient_dim, list(S.basis) + [w]).dim == S.dim for w in vectors)


def test_ideal_closure_matches_the_fixpoint_loop():
    rng = random.Random(61)
    A3 = gl(3)
    twisted = [
        HomLieAlgebraData(9, A3.basis_names, A3.c, Matrix.diagonal([L ** k for k in range(9)])),
        yau_twist(heisenberg(sc(2)), Matrix.diagonal([L, ONE, L])),
    ]
    proper = 0
    for A in table_algebras() + twisted:
        n = A.dim
        alpha = getattr(A, "alpha", None)

        def images(v):
            brackets = [dense_bracket(A, v, e_(n, j)) for j in range(n)]
            return brackets + ([alpha.apply(v)] if alpha is not None else [])

        seeds = [[e_(n, rng.randrange(n))], [rand_vec(rng, n)], []]
        if n == 9:  # the identity spans the centre of gl(3)
            seeds.append([tuple(ONE if i % 4 == 0 else ZERO for i in range(9))])
        for vecs in seeds:
            seed = Subspace(n, vecs)
            w = ideal_closure(A, seed)
            assert w.subspace == fixpoint_closure(seed, images)
            brackets = [dense_bracket(A, v, e_(n, j)) for v in w.subspace.basis for j in range(n)]
            assert w.closed_under_bracket == holds(w.subspace, brackets)
            twist_images = [alpha.apply(v) for v in w.subspace.basis] if alpha is not None else []
            assert w.closed_under_alpha == holds(w.subspace, twist_images)
            proper += 0 < w.subspace.dim < n
    assert proper >= 8


def test_submodule_closure_matches_the_fixpoint_loop():
    rng = random.Random(67)
    sum2 = cyclic_sum_construction(sl2(), Matrix.identity(3), 2)
    H = yau_twist(sum2.algebra, Matrix.identity(6))
    adjoint = HomRep(H, 6, tuple(ad_matrix(H, e_(6, i)) for i in range(6)), Matrix.identity(6))
    twisted = yau_twist(sl2(), diag_twist())
    # an upper block-triangular action: the first two coordinates are stable
    blocks = tuple(
        Matrix(4, 4, tuple(
            ZERO if i >= 2 > j else rand_entry(rng) for i in range(4) for j in range(4)
        ))
        for _ in range(3)
    )
    raw = HomRep(twisted, 4, blocks, Matrix.diagonal([L, ONE, L, ONE]))
    proper = 0
    for R in (adjoint, raw):
        n = R.dim_V

        def images(v):
            return [m.apply(v) for m in R.rho_beta + (R.beta,)]

        for vecs in ([e_(n, 0)], [rand_vec(rng, n)], [e_(n, 1), e_(n, n - 1)]):
            seed = Subspace(n, vecs)
            w = submodule_closure(R, seed)
            assert w.subspace == fixpoint_closure(seed, images)
            stable = [m.apply(v) for m in R.rho_beta for v in w.subspace.basis]
            assert w.stable_under_rho == holds(w.subspace, stable)
            beta_images = [R.beta.apply(v) for v in w.subspace.basis]
            assert w.stable_under_beta == holds(w.subspace, beta_images)
            proper += 0 < w.subspace.dim < n
    assert proper >= 3
