"""Diagonal twists of sl(2) and the classified module families.

sl(2) has basis (e, f, h) with [h,e] = 2e, [h,f] = -2f, [e,f] = h.  Its
diagonal self-morphisms send e to a nonzero multiple of e (parameter
written L here), f to the reciprocal multiple, and fix h.  Twisting by
such a morphism and transporting the standard classical modules across
the correspondence produces four families of modules, each given by
per-index coefficient tables over a window of basis indices, plus a
diagonal compatibility map i -> L^(-i)*b0.

A windowed module's verification is coefficient-local: every defining
condition relates indices i-1, i, i+1, so each check runs at the window
indices where all referenced coefficients resolve.  Finite families
resolve out-of-range references to exact zeros (the boundary really
annihilates); infinite families skip checks that would peek past the
window.

Two different raising/lowering conventions coexist: the twisted
standard module lowers the index under e, while the classified families
(except the highest-weight one) raise it.  A family therefore satisfies
the module conditions against the diagonal twist with the *reciprocal*
parameter; which twist a family belongs to is recorded on the module
and noted in verification reports.

The general-ansatz solver works with e lowering, f raising (matching
the recurrence convention): action(e) v_i = mu_i v_{i-1}, action(f) v_i
= gamma_i v_{i+1}, action(h) v_i = nu_i v_i, beta v_i = eta_i v_i.  The
five defining equations pin eta_i = L^(-i) eta_0, nu_i = L^(-i)(nu_0 -
2i eta_0) and the products

    gamma_i mu_{i+1} = L^(-2i) gamma_0 mu_1
                       + L^(-2i-1) * i * eta_0 (nu_0 - (i+1) eta_0).

(The lower-order term carries one more reciprocal power of the
parameter than a naive unrolling suggests; the form above is the one
that satisfies equation (1), and the solver re-checks all five
equations on every output.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import HomLieAlgebraData, LieAlgebraData, lie_algebra, yau_twist
from .linalg import Matrix
from .rep import HomRep, LieRep, hom_rep_from_lie
from .report import VerificationReport, first_nonzero
from .scalar import HomLieError, L, ONE, ZERO, Scalar, render_scalar, sc


class InvalidParams(HomLieError):
    pass


FAMILY_KINDS = ("FiniteDim", "LowestWeight", "HighestWeight", "IntermediateSeries")


def sl2_lie_algebra() -> LieAlgebraData:
    return lie_algebra(
        ("e", "f", "h"),
        {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}},
    )


def diagonal_twist_matrix(lam=L) -> Matrix:
    lam = sc(lam)
    if lam.is_zero():
        raise InvalidParams("twist parameter must be nonzero")
    return Matrix.diagonal([lam, lam.inverse(), ONE])


def diagonal_twist_hom_sl2(lam=L) -> HomLieAlgebraData:
    """The twisted algebra: [h,e] = 2*lam*e, [h,f] = -2/lam*f, [e,f] = h."""
    return yau_twist(sl2_lie_algebra(), diagonal_twist_matrix(lam))


def sl2_standard_rep(n: int) -> LieRep:
    """The (n+1)-dimensional classical module: e lowers the index with
    coefficient n-i+1, f raises it with i+1, h is diagonal with n-2i."""
    if n < 0:
        raise InvalidParams("the standard module needs n >= 0")
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
    return LieRep(sl2_lie_algebra(), d, tuple(Matrix.from_rows(m) for m in (e, f, h)))


def standard_beta(n: int, lam=L, b0=ONE) -> Matrix:
    lam, b0 = sc(lam), sc(b0)
    return Matrix.diagonal([b0 * lam ** (-i) for i in range(n + 1)])


def twisted_standard_module(n: int, lam=L, b0=ONE) -> HomRep:
    """The standard module transported across the correspondence: the
    action of e sends v_i to (n-i+1) L^(1-i) b0 v_{i-1}, h is diagonal
    with (n-2i) L^(-i) b0, and beta(v_i) = L^(-i) b0 v_i."""
    lam, b0 = sc(lam), sc(b0)
    if lam.is_zero() or b0.is_zero():
        raise InvalidParams("twist parameter and b0 must be nonzero")
    return hom_rep_from_lie(
        sl2_standard_rep(n), diagonal_twist_matrix(lam), standard_beta(n, lam, b0)
    )


# ---------------------------------------------------------------------------
# the four families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sl2FamilyParams:
    kind: str
    b0: Scalar
    lam: Scalar
    n: int | None = None
    tau: int | None = None
    mu: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "b0", sc(self.b0))
        object.__setattr__(self, "lam", sc(self.lam))


DEFAULT_WINDOWS = {
    "LowestWeight": (0, 16),
    "HighestWeight": (0, 16),
    "IntermediateSeries": (-8, 8),
}


def _validate(params: Sl2FamilyParams):
    if params.kind not in FAMILY_KINDS:
        raise InvalidParams(f"unknown family kind {params.kind!r}")
    if params.lam.is_zero():
        raise InvalidParams("lambda must be nonzero")
    if params.b0.is_zero():
        raise InvalidParams("b0 must be nonzero")
    if params.kind == "FiniteDim":
        if params.n is None or params.n < 0:
            raise InvalidParams("the finite-dimensional family needs n >= 0")
    elif params.kind == "LowestWeight":
        if params.tau is None or params.tau < 0:
            raise InvalidParams("the lowest-weight family needs an integer tau >= 0")
    elif params.kind == "HighestWeight":
        if params.tau is None or params.tau >= 0:
            raise InvalidParams("the highest-weight family needs an integer tau < 0")
    else:  # IntermediateSeries
        if params.tau is None or params.mu is None:
            raise InvalidParams("the intermediate-series family needs integers tau, mu")
        if params.tau * params.tau == params.mu + 1:
            raise InvalidParams(
                "the intermediate-series family excludes tau^2 = mu + 1"
            )


def _index_bounds(params: Sl2FamilyParams):
    """Inclusive index set of the full (unwindowed) family."""
    if params.kind == "FiniteDim":
        return 0, params.n
    if params.kind in ("LowestWeight", "HighestWeight"):
        return 0, None
    return None, None


def _closed_forms(params: Sl2FamilyParams):
    """Per-index coefficient functions (e, f, h, beta) for the family.

    e and f carry the index in opposite directions; which one raises is
    a property of the family (f raises only in the highest-weight one).
    """
    lam, b0 = params.lam, params.b0

    def eta(i):
        return lam ** (-i) * b0

    if params.kind == "FiniteDim":
        n = params.n

        def nu(i):
            return sc(2 * i - n) * lam ** (-i) * b0

        def eps(i):  # raises
            return lam ** (-i - 1) * b0 if i < n else ZERO

        def phi(i):  # lowers
            return sc(i * (n + 1 - i)) * lam ** (-i + 1) * b0

        return {"e": eps, "f": phi, "h": nu, "beta": eta}

    if params.kind == "LowestWeight":
        tau = params.tau

        def nu(i):
            return sc(tau + 2 * i) * lam ** (-i) * b0

        def eps(i):  # raises
            return lam ** (-i - 1) * b0

        def phi(i):  # lowers
            return sc(-i * (tau + i - 1)) * lam ** (-i + 1) * b0

        return {"e": eps, "f": phi, "h": nu, "beta": eta}

    if params.kind == "HighestWeight":
        tau = params.tau

        def nu(i):
            return sc(tau - 2 * i) * lam ** (-i) * b0

        def phi(i):  # raises
            return lam ** (-i - 1) * b0

        def eps(i):  # lowers
            return sc(i * (tau - i + 1)) * lam ** (-i + 1) * b0

        return {"e": eps, "f": phi, "h": nu, "beta": eta}

    tau, mu = params.tau, params.mu

    def nu(i):
        return sc(tau + 2 * i) * lam ** (-i) * b0

    def eps(i):  # raises; quadratic branch below zero
        if i >= 0:
            return lam ** (-i - 1) * b0
        return sc(mu - (tau + 2 * i + 1) ** 2 + 1) / sc(4) * lam ** (-i - 1) * b0

    def phi(i):  # lowers; quadratic branch above zero
        if i <= 0:
            return lam ** (-i + 1) * b0
        return sc(mu - (tau + 2 * i - 1) ** 2 + 1) / sc(4) * lam ** (-i + 1) * b0

    return {"e": eps, "f": phi, "h": nu, "beta": eta}


@dataclass(frozen=True)
class WindowedModule:
    params: Sl2FamilyParams
    window: tuple
    actions: dict = field(compare=False)
    beta_diag: dict = field(compare=False)

    @property
    def e_shift(self) -> int:
        return -1 if self.params.kind == "HighestWeight" else 1

    @property
    def f_shift(self) -> int:
        return -self.e_shift

    @property
    def twist_lambda(self) -> Scalar:
        """Diagonal-twist parameter of the algebra this module belongs to.

        Families whose e-action raises the index intertwine with the
        reciprocal-parameter twist; the highest-weight family (f raises)
        takes the parameter itself.
        """
        lam = self.params.lam
        return lam if self.params.kind == "HighestWeight" else lam.inverse()

    def hom_algebra(self) -> HomLieAlgebraData:
        return diagonal_twist_hom_sl2(self.twist_lambda)

    def coefficient(self, gen: str, i: int):
        """Table value inside the window; exact zero beyond the family's
        index set; closed form on off-window finite-family indices; None
        where the (infinite) family continues past the window."""
        lo, hi = self.window
        table = self.beta_diag if gen == "beta" else self.actions[gen]
        low, high = _index_bounds(self.params)
        if low is not None and i < low:
            return ZERO
        if high is not None and i > high:
            return ZERO
        if lo <= i <= hi:
            return table[i]
        if self.params.kind == "FiniteDim":
            return _closed_forms(self.params)[gen](i)
        return None


def build_family(params: Sl2FamilyParams, window=None) -> WindowedModule:
    """Materialize a family's coefficient tables over a window."""
    _validate(params)
    if window is None:
        window = (0, params.n) if params.kind == "FiniteDim" else DEFAULT_WINDOWS[params.kind]
    lo, hi = int(window[0]), int(window[1])
    if lo > hi:
        raise InvalidParams("window must be a nonempty interval")
    low, high = _index_bounds(params)
    if (low is not None and lo < low) or (high is not None and hi > high):
        raise InvalidParams("window must lie within the family's index set")
    forms = _closed_forms(params)
    actions = {gen: {i: forms[gen](i) for i in range(lo, hi + 1)} for gen in "efh"}
    beta_diag = {i: forms["beta"](i) for i in range(lo, hi + 1)}
    return WindowedModule(params, (lo, hi), actions, beta_diag)


def verify_family_window(M: WindowedModule) -> VerificationReport:
    """Both module conditions, coefficient-wise, at every window index
    where all referenced coefficients resolve.

    Each check is a sum of products of coefficients.  A product whose
    leading (action) factor resolves to an exact zero contributes
    nothing even if its partner index lies outside the window — that is
    precisely the boundary-annihilation rule for finite families.
    """
    lo, hi = M.window
    se, sf = M.e_shift, M.f_shift
    lp = M.twist_lambda
    lp_inv = lp.inverse()
    report = VerificationReport()
    report.add(
        "twist_convention",
        True,
        witness={"kind": M.params.kind, "algebra_twist": render_scalar(lp)},
    )

    def term(factors):
        """Product of resolved coefficients; 0 short-circuits, None skips."""
        acc = ONE
        for f in factors:
            value = f if isinstance(f, Scalar) else M.coefficient(*f)
            if value is None:
                return None
            if value.is_zero():
                return ZERO
            acc = acc * value
        return acc

    neg, neg_lp = sc(-1), -lp
    two_lp, neg_two_lp_inv = sc(2) * lp, sc(-2) * lp_inv
    checks = {  # name -> the terms of its residual at index i
        "twist_e": lambda i: [[lp, ("e", i), ("beta", i)], [neg, ("e", i), ("beta", i + se)]],
        "twist_f": lambda i: [[lp_inv, ("f", i), ("beta", i)], [neg, ("f", i), ("beta", i + sf)]],
        "twist_h": lambda i: [[("h", i), ("beta", i)], [neg, ("beta", i), ("h", i)]],
        "bracket_he": lambda i: [
            [two_lp, ("e", i), ("beta", i)],
            [neg, ("e", i), ("h", i + se)],
            [lp, ("e", i), ("h", i)],
        ],
        "bracket_hf": lambda i: [
            [neg_two_lp_inv, ("f", i), ("beta", i)],
            [neg, ("f", i), ("h", i + sf)],
            [lp_inv, ("f", i), ("h", i)],
        ],
        "bracket_ef": lambda i: [
            [("h", i), ("beta", i)],
            [neg_lp, ("f", i), ("e", i + sf)],
            [lp_inv, ("e", i), ("f", i + se)],
        ],
    }

    def cases(terms_at, checked):
        """Residuals at the indices where every term resolves."""
        for i in range(lo, hi + 1):
            values = [term(t) for t in terms_at(i)]
            if all(v is not None for v in values):
                checked.append(i)
                yield {"index": i}, sum(values, ZERO)

    for name, terms_at in checks.items():
        checked = []
        hit = first_nonzero(cases(terms_at, checked))
        if hit is None:
            report.add(name, True, witness={"indices_checked": len(checked)})
        else:
            report.add_found(name, hit)
    return report


def finite_family_hom_rep(M: WindowedModule) -> HomRep:
    """The finite-dimensional family as a concrete module of the
    reciprocal-parameter twisted algebra."""
    if M.params.kind != "FiniteDim":
        raise InvalidParams("only the finite-dimensional family is a finite module")
    n = M.params.n
    if M.window != (0, n):
        raise InvalidParams("the module needs the full window [0, n]")
    d = n + 1
    e = [[ZERO] * d for _ in range(d)]
    f = [[ZERO] * d for _ in range(d)]
    h = [[ZERO] * d for _ in range(d)]
    beta = [[ZERO] * d for _ in range(d)]
    for i in range(d):
        if i + 1 < d:
            e[i + 1][i] = M.actions["e"][i]
        if i >= 1:
            f[i - 1][i] = M.actions["f"][i]
        h[i][i] = M.actions["h"][i]
        beta[i][i] = M.beta_diag[i]
    H = M.hom_algebra()
    return HomRep(
        H, d, tuple(Matrix.from_rows(m) for m in (e, f, h)), Matrix.from_rows(beta)
    )


# ---------------------------------------------------------------------------
# the general parameter recurrence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralAnsatz:
    eta0: Scalar
    nu0: Scalar
    mu1: Scalar
    gamma0: Scalar
    lam: Scalar
    window: tuple
    eta: dict = field(compare=False)
    nu: dict = field(compare=False)
    products: dict = field(compare=False)
    gamma: dict = field(compare=False)
    mu: dict = field(compare=False)
    report: VerificationReport = field(compare=False)


def solve_general_parameters(eta0, nu0, mu1, gamma0, window, lam=L) -> GeneralAnsatz:
    """Solve the five defining equations for diagonal beta/h data.

    Returns the forced sequences eta_i, nu_i, the forced products
    gamma_i*mu_{i+1}, and a materialized split of each product (gamma
    carried constant at gamma_0; mu_{i+1} = product/gamma_0, or left
    free when gamma_0 = 0).  The report re-checks all five equations —
    equations (2)-(5) factor through an action coefficient, so their
    scalar cofactors must vanish identically; equation (1) is checked
    on the products directly.
    """
    eta0, nu0, mu1, gamma0, lam = sc(eta0), sc(nu0), sc(mu1), sc(gamma0), sc(lam)
    if eta0.is_zero():
        raise InvalidParams("eta_0 must be nonzero")
    if lam.is_zero():
        raise InvalidParams("lambda must be nonzero")
    lo, hi = int(window[0]), int(window[1])
    if lo > hi:
        raise InvalidParams("window must be a nonempty interval")

    eta = {i: lam ** (-i) * eta0 for i in range(lo, hi + 1)}
    nu = {i: lam ** (-i) * (nu0 - sc(2 * i) * eta0) for i in range(lo, hi + 1)}
    products = {
        i: lam ** (-2 * i) * gamma0 * mu1
        + lam ** (-2 * i - 1) * sc(i) * eta0 * (nu0 - sc(i + 1) * eta0)
        for i in range(lo, hi)
    }

    gamma = {i: gamma0 for i in range(lo, hi)}
    split_witness = None
    if gamma0.is_zero():
        mu = {i + 1: None for i in range(lo, hi)}
        bad = next((i for i in range(lo, hi) if not products[i].is_zero()), None)
        if bad is not None:
            split_witness = {"index": bad, "product": render_scalar(products[bad])}
    else:
        mu = {i + 1: products[i] / gamma0 for i in range(lo, hi)}

    report = VerificationReport()
    half = sc(1) / sc(2)

    def sweep(name, lo_i, hi_i, residual):
        report.sweep(name, (({"index": i}, residual(i)) for i in range(lo_i, hi_i + 1)))

    sweep(
        "equation_1", lo + 1, hi - 1,
        lambda i: nu[i] * eta[i] - lam * products[i] + lam.inverse() * products[i - 1],
    )
    sweep(
        "equation_2", lo + 1, hi,
        lambda i: eta[i] - half / lam * nu[i - 1] + half * nu[i],
    )
    sweep(
        "equation_3", lo, hi - 1,
        lambda i: eta[i] + half * lam * nu[i + 1] - half * nu[i],
    )
    sweep("equation_4", lo + 1, hi, lambda i: eta[i - 1] - lam * eta[i])
    sweep("equation_5", lo, hi - 1, lambda i: eta[i + 1] - lam.inverse() * eta[i])
    report.add("split_materialization", split_witness is None, split_witness)

    return GeneralAnsatz(
        eta0, nu0, mu1, gamma0, lam, (lo, hi), eta, nu, products, gamma, mu, report
    )
