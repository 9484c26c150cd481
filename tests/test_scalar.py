"""Field arithmetic in Q(L): normal forms, evaluation, text round trips.

The derived expectations below are produced by a deliberately naive
polynomial oracle (plain coefficient lists, schoolbook Euclid) that is
independent of the library's representation.
"""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from homlie.scalar import (
    DivisionByZero,
    L,
    ONE,
    PoleAtPoint,
    Poly,
    Scalar,
    ZERO,
    parse_scalar,
    render_scalar,
    sc,
    scalar_eval,
)


# --- independent oracle: naive dense polynomials over Fraction lists --------

def o_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def o_mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return o_trim(out)


def o_divmod(p, q):
    p = list(p)
    dq = len(q) - 1
    quot = [Fraction(0)] * max(len(p) - dq, 0)
    while len(p) - 1 >= dq and o_trim(p):
        k = len(p) - 1 - dq
        c = p[-1] / q[-1]
        quot[k] = c
        for i, b in enumerate(q):
            p[k + i] -= c * b
        o_trim(p)
    return o_trim(quot), p


def o_gcd(p, q):
    p, q = list(p), list(q)
    while o_trim(q):
        p, q = q, o_divmod(p, q)[1]
    if p:
        lead = p[-1]
        p = [c / lead for c in p]
    return p


def test_oracle_self_check():
    # (L - 1)(L + 1) = L^2 - 1, and gcd(L^2 - 1, L + 1) = L + 1
    assert o_mul([Fraction(-1), Fraction(1)], [Fraction(1), Fraction(1)]) == [
        Fraction(-1),
        Fraction(0),
        Fraction(1),
    ]
    g = o_gcd([Fraction(-1), Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)])
    assert g == [Fraction(1), Fraction(1)]


# --- frozen arithmetic examples ---------------------------------------------

def test_mul_inverse_pair():
    assert L * (ONE / L) == ONE


def test_mul_difference_of_squares():
    got = (L + ONE) * (L - ONE)
    assert got == L * L - ONE


def test_add_after_cancellation():
    # oracle: gcd(L^2 - 1, L + 1) = L + 1, so (L^2-1)/(L+1) reduces to L - 1
    num = [Fraction(-1), Fraction(0), Fraction(1)]
    den = [Fraction(1), Fraction(1)]
    g = o_gcd(num, den)
    reduced, rem = o_divmod(num, g)
    assert rem == [] and reduced == [Fraction(-1), Fraction(1)]
    a = (L * L - ONE) / (L + ONE)
    assert a == L - ONE  # normal form reached eagerly
    assert a + ONE == L


def test_eval_examples():
    assert scalar_eval(ONE / L, Fraction(2)) == Fraction(1, 2)
    assert scalar_eval(L * L - ONE, Fraction(3)) == 8
    with pytest.raises(PoleAtPoint):
        scalar_eval(ONE / (L - ONE), Fraction(1))


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        ONE / ZERO
    with pytest.raises(DivisionByZero):
        ZERO.inverse()


def test_is_invertible():
    for a in (L - ONE, sc(Fraction(-7, 3))):
        assert not a.is_zero() and a * a.inverse() == ONE
    for a in (ZERO, L - L):
        assert a.is_zero()
        with pytest.raises(DivisionByZero):
            a.inverse()


# --- normal form -------------------------------------------------------------

def test_normal_form_unique():
    a = (L * L - ONE) / (L + ONE)
    b = L - ONE
    assert a == b and hash(a) == hash(b)
    assert (sc(2) * L) / sc(2) == L


def test_denominator_monic():
    s = L / (sc(2) * L + sc(2))
    assert s.den.leading == 1
    assert s == (L * sc(Fraction(1, 2))) / (L + ONE)


def test_zero_canonical():
    z = (L - L) / (L * L + ONE)
    assert z == ZERO and z.is_zero()
    assert z.den == Poly((1,))


def test_power_negative():
    assert L ** -2 == ONE / (L * L)
    assert (L + ONE) ** 0 == ONE
    with pytest.raises(DivisionByZero):
        ZERO ** -1


# --- field axioms (property-based) -------------------------------------------

fracs = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
)


@st.composite
def scalars(draw):
    num = draw(st.lists(fracs, min_size=1, max_size=3))
    den = draw(st.lists(fracs, min_size=1, max_size=3))
    d = Poly(den)
    if d.is_zero():
        d = Poly((1, 1))
    return Scalar(Poly(num), d)


@settings(max_examples=120, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a
    assert a + (-a) == ZERO
    if not a.is_zero():
        assert a * a.inverse() == ONE


@settings(max_examples=100, deadline=None)
@given(scalars(), scalars(), st.integers(min_value=-3, max_value=5))
def test_eval_is_ring_homomorphism(a, b, r):
    at = Fraction(r)
    try:
        ea, eb = a.eval(at), b.eval(at)
    except PoleAtPoint:
        return
    assert (a + b).eval(at) == ea + eb
    assert (a * b).eval(at) == ea * eb
    assert (a - b).eval(at) == ea - eb


@settings(max_examples=80, deadline=None)
@given(scalars())
def test_render_parse_round_trip(a):
    assert parse_scalar(render_scalar(a)) == a


# --- text form ----------------------------------------------------------------

def test_parse_examples():
    assert parse_scalar("L") == L
    assert parse_scalar("1/2") == sc(Fraction(1, 2))
    assert parse_scalar("-3*L^2 + L - 1") == sc(-3) * L ** 2 + L - ONE
    assert parse_scalar("(L^2 - 1)/(L + 1)") == L - ONE
    assert parse_scalar("L^-2") == ONE / (L * L)
    assert parse_scalar("2*3") == sc(6)
    assert parse_scalar("-(L + 1)") == -(L + ONE)


def test_render_examples():
    assert render_scalar(L - ONE) == "L - 1"
    assert render_scalar(ONE / L) == "(1)/(L)"
    assert render_scalar(sc(Fraction(-1, 2)) * L ** 2) == "-1/2*L^2"
    assert render_scalar(ZERO) == "0"
    assert render_scalar((L + ONE) / (L - ONE)) == "(L + 1)/(L - 1)"


def test_parse_rejects_garbage():
    from homlie.scalar import ScalarSyntaxError

    for bad in ["", "L +", "2**3", "(L", "x", "1 2", "^2", "3/0"]:
        with pytest.raises(ScalarSyntaxError):
            parse_scalar(bad)


def test_hash_agrees_with_equality_across_types():
    for value in (0, 1, -7, Fraction(3, 4), Fraction(-1, 3)):
        assert sc(value) == value
        assert hash(sc(value)) == hash(value)
    assert len({sc(1), 1}) == 1
    assert len({sc(Fraction(1, 2)), Fraction(1, 2), L}) == 2
    assert hash(L * L - ONE) == hash((L - ONE) * (L + ONE))


# --- differential oracle: monomials, shifted cores and powers -----------------
#
# Polynomials are stored as L^low * core.  The draws below put large powers
# of L in front of small rational functions, and every result is checked
# against the naive dense oracle above or against plain Fraction arithmetic
# at rational points.

POINTS = (Fraction(-3, 2), Fraction(-1), Fraction(1, 3), Fraction(2), Fraction(5, 7))


@st.composite
def dense_polys(draw):
    """A dense coefficient list with up to 6 leading and 2 trailing zeros."""
    shift = draw(st.integers(min_value=0, max_value=6))
    body = draw(st.lists(fracs, max_size=4))
    tail = draw(st.integers(min_value=0, max_value=2))
    return [Fraction(0)] * shift + body + [Fraction(0)] * tail


@st.composite
def monomials(draw):
    """c * L^k with |k| <= 400, built without raising L to a power."""
    c = draw(fracs.filter(bool))
    k = draw(st.integers(min_value=-400, max_value=400))
    if k >= 0:
        return Scalar(Poly.x_pow(k, c))
    return Scalar(Poly((c,)), Poly.x_pow(-k))


@st.composite
def shifted(draw):
    """A small rational function times c * L^k, from padded coefficient lists."""
    a = draw(scalars())
    c = draw(fracs.filter(bool))
    k = draw(st.integers(min_value=-400, max_value=400))
    num = [Fraction(0)] * max(k, 0) + [c * x for x in a.num.coeffs]
    den = [Fraction(0)] * max(-k, 0) + list(a.den.coeffs)
    return Scalar(Poly(num), Poly(den))


field_elements = st.one_of(monomials(), scalars(), shifted())


def eval_or_none(a, at):
    try:
        return a.eval(at)
    except PoleAtPoint:
        return None


def test_normal_form_is_unique_across_constructions():
    assert Poly((0, 0, 3)) == Poly.x_pow(2, 3)
    assert hash(Poly((0, 0, 3))) == hash(Poly.x_pow(2, 3))
    assert Poly((0, 0, 3)).coeffs == (0, 0, 3)
    assert Poly.x_pow(5, 0) == Poly(()) == Poly((0, 0))
    assert Poly((0, 0, 3)).degree == 2 and Poly((0, 0, 3)).leading == 3
    padded = Scalar(Poly([0] * 300 + [Fraction(2, 3)]))
    assert padded == sc(Fraction(2, 3)) * L**300
    assert hash(padded) == hash(sc(Fraction(2, 3)) * L**300)
    assert Scalar(Poly([0] * 7 + [1, 1]), Poly([0] * 3 + [1, 1])) == L**4


@seed(20121)
@settings(max_examples=150, deadline=None)
@given(dense_polys(), dense_polys())
def test_poly_matches_the_dense_oracle(p, q):
    P, Q = Poly(p), Poly(q)
    p, q = o_trim(list(p)), o_trim(list(q))
    assert P.coeffs == tuple(p) and Poly(P.coeffs) == P
    assert hash(Poly(P.coeffs)) == hash(P)
    assert P.degree == len(p) - 1
    assert (P * Q).coeffs == tuple(o_mul(p, q))
    total = [a + b for a, b in zip(p + [0] * len(q), q + [0] * len(p))]
    assert (P + Q).coeffs == tuple(o_trim(total))
    assert P.gcd(Q).coeffs == tuple(o_gcd(p, q))
    for at in POINTS:
        assert P.eval(at) == sum(c * at**i for i, c in enumerate(p))
    if q:
        quot, rem = divmod(P, Q)
        o_quot, o_rem = o_divmod(p, q)
        assert (quot.coeffs, rem.coeffs) == (tuple(o_quot), tuple(o_rem))


@seed(20122)
@settings(max_examples=150, deadline=None)
@given(field_elements, field_elements, st.integers(min_value=-40, max_value=40))
def test_operations_commute_with_evaluation(a, b, k):
    for at in POINTS:
        ea, eb = eval_or_none(a, at), eval_or_none(b, at)
        if ea is None or eb is None:
            continue
        assert (a + b).eval(at) == ea + eb
        assert (a - b).eval(at) == ea - eb
        assert (a * b).eval(at) == ea * eb
        if eb != 0:
            assert (a / b).eval(at) == ea / eb
        if ea != 0:
            assert a.inverse().eval(at) == 1 / ea
        if ea != 0 or k >= 0:
            assert (a**k).eval(at) == ea**k


@seed(20123)
@settings(max_examples=60, deadline=None)
@given(field_elements, st.integers(min_value=0, max_value=40))
def test_power_is_repeated_multiplication(a, k):
    product = ONE
    for _ in range(k):
        product = product * a
    assert a**k == product and hash(a**k) == hash(product)
    assert (a**k).den.leading == 1
    if a.is_zero():
        if k:
            with pytest.raises(DivisionByZero):
                a ** -k
        return
    assert a**-k == product.inverse()
    assert (a**-k).den.leading == 1


zero_scalars = st.sampled_from((ZERO, Scalar(Poly(())), Scalar(Poly((0, 0)), Poly((1, 1))), L - L))


@seed(20124)
@settings(max_examples=120, deadline=None)
@given(st.one_of(zero_scalars, field_elements), st.one_of(zero_scalars, field_elements))
def test_subtraction_and_negation_with_a_zero_operand(a, b):
    assert a - b == a + (-b)
    assert -(-a) == a and -(-b) == b
    if b.is_zero():
        assert a - b is a
    if a.is_zero():
        assert -a is a and (a - b) == -b
