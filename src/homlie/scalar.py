"""Exact arithmetic in the rational function field Q(L).

Every quantity the library computes with lives in the field of rational
functions in one formal variable ``L`` over the rationals.  A value is a
quotient ``num/den`` of two polynomials held in normal form, so equality
of values is plain structural equality of their representations.

Representation invariants:

* ``Poly``: a polynomial is ``L^low * content * core``.  ``core`` is a
  tuple of Python ints ascending by degree whose first and last entries
  are nonzero, whose entries have no common factor (it is primitive), and
  whose last entry is positive; ``content`` is one nonzero ``Fraction``.
  The zero polynomial is ``low = 0, content = 0, core = ()`` and has
  degree -1.  So ``c * L^k`` is the core ``(1,)`` with content ``c``:
  products add the lows, multiply the contents and convolve the int
  cores, with no coefficient gcd, since by Gauss's lemma a product of
  primitive cores is primitive; sums put both contents over one
  denominator and take the content back out with ``math.gcd``.  The
  monic ``gcd(L^a p, L^b q) = L^min(a, b) gcd(p, q)`` runs the heuristic
  gcd (GCDHEU, Char, Geddes and Gonnet 1989) on the int cores: the gcd of
  two values at an integer point ``xi`` is interpolated back to a
  candidate, and exact division of both cores certifies it as the
  greatest common divisor, since ``xi >= 2 min(|p|, |q|) + 2`` in the
  max norm.  After a few failed points a primitive remainder sequence over
  Z gives the gcd instead.  Exact division divides the int cores over Z.
  ``Poly.coeffs``, the full ascending tuple of ``Fraction`` coefficients
  with the ``low`` zeros in front, is built on each access for callers that
  index coefficients by degree.
* ``Scalar``: ``num`` and ``den`` are ``Poly``; ``den`` is monic and
  nonzero; ``gcd(num, den) == 1``; the zero scalar is ``0/1``.

Normalisation happens on construction, never lazily, so two scalars are
equal exactly when their numerators and denominators are, and hashing
is safe.  Floating point never appears anywhere.

The canonical text form (used by the definition-file grammar and the
JSON reports) writes polynomials with descending powers of ``L``, e.g.
``(L^2 - 1)/(L + 1)``; ``parse_scalar``/``render_scalar`` round-trip.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "DivisionByZero",
    "PoleAtPoint",
    "Poly",
    "RenderLimit",
    "Scalar",
    "ZERO",
    "ONE",
    "L",
    "sc",
    "scalar_eval",
    "parse_scalar",
    "render_scalar",
]

class HomLieError(Exception):
    """Base class for the library's typed errors."""


class DivisionByZero(HomLieError):
    """Division by the zero scalar (or a zero denominator polynomial)."""


class PoleAtPoint(HomLieError):
    """Evaluation of a scalar at a rational point where its denominator vanishes."""


class RenderLimit(HomLieError):
    """A coefficient longer than the interpreter allows an integer's text to be."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to a rational coefficient")


# ---------------------------------------------------------------------------
# integer coefficient lists, ascending by degree
# ---------------------------------------------------------------------------

def _convolve(a, b) -> list:
    """The product of two int coefficient sequences."""
    if len(a) < len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for j, cb in enumerate(b):
        if cb:
            for i, ca in enumerate(a, j):
                out[i] += ca * cb
    return out


def _div_ints(a, b):
    """a / b over Z for int sequences without end zeros, or None when b does
    not divide a; long division from the top stops at the first inexact
    step."""
    top, lead, db = len(a) - len(b), b[-1], len(b) - 1
    if top < 0 or a[0] % b[0] or a[-1] % lead:
        return None
    rem = list(a)
    quot = [0] * (top + 1)
    for k in range(top, -1, -1):
        q, r = divmod(rem[k + db], lead)
        if r:
            return None
        if q:
            quot[k] = q
            for i in range(db):
                rem[k + i] -= q * b[i]
    return None if any(rem[:db]) else quot


def _pseudo_divmod(a, b):
    """(q, r) with lead(b)^e * a == q * b + r over Z and len(r) < len(b),
    for e = len(a) - len(b) + 1 >= 1; r keeps its length, zeros and all."""
    top, lead, db = len(a) - len(b), b[-1], len(b) - 1
    rem = [c * lead ** (top + 1) for c in a]
    quot = [0] * (top + 1)
    for k in range(top, -1, -1):
        q = rem[k + db] // lead  # exact: rem still carries lead^(k + 1)
        if q:
            quot[k] = q
            for i in range(db):
                rem[k + i] -= q * b[i]
    return quot, rem[:db]


def _heuristic_gcd(a, b):
    """gcd of two primitive int cores of degree >= 1 by GCDHEU, or None.

    The gcd of a(xi) and b(xi) is read back as a polynomial in xi from its
    balanced base-xi digits.  With xi >= 2 min(|a|, |b|) + 2 (max norm), the
    primitive part of that candidate is the gcd exactly when it divides both
    a and b, so the division checks make the answer exact.  Each failed xi
    is followed by a larger one; after six the caller falls back."""
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(6):
        va = vb = 0
        for c in reversed(a):
            va = va * xi + c
        for c in reversed(b):
            vb = vb * xi + c
        h, half, digits = gcd(va, vb), xi // 2, []
        while h:
            h, c = divmod(h, xi)
            if c > half:
                c -= xi
                h += 1
            digits.append(c)
        if len(digits) == 1:
            return (1,)
        g = Poly._from_ints(0, digits)
        if not g.low and _div_ints(a, g.core) is not None and _div_ints(b, g.core) is not None:
            return g.core
        xi = xi * 73794 // 27011 + 1
    return None


def _prs_gcd(a, b) -> tuple:
    """gcd of two primitive int cores by the primitive remainder sequence;
    L divides neither core, so each remainder drops its power of L too."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a, b = b, Poly._from_ints(0, _pseudo_divmod(a, b)[1]).core
    return b or a


_F0, _F1 = Fraction(0), Fraction(1)


class Poly:
    """Univariate polynomial over Q, stored as ``L^low * content * core``."""

    __slots__ = ("low", "content", "core")

    def __init__(self, coeffs=()):
        fs = [_frac(c) for c in coeffs]
        den = lcm(*(c.denominator for c in fs))
        p = Poly._from_ints(0, [c.numerator * (den // c.denominator) for c in fs], 1, den)
        object.__setattr__(self, "low", p.low)
        object.__setattr__(self, "content", p.content)
        object.__setattr__(self, "core", p.core)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, low: int, content: Fraction, core: tuple) -> "Poly":
        """L^low * content * core, for a primitive core as in the invariants."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "low", low)
        object.__setattr__(obj, "content", content)
        object.__setattr__(obj, "core", core)
        return obj

    @classmethod
    def _from_ints(cls, low: int, cs: list, num: int = 1, den: int = 1) -> "Poly":
        """L^low * (num/den) * cs, for ints cs that may have end zeros."""
        j = len(cs)
        while j and not cs[j - 1]:
            j -= 1
        i = 0
        while i < j and not cs[i]:
            i += 1
        if i == j:
            return _P_ZERO
        cs = cs[i:j]
        g = gcd(*cs)
        if cs[-1] < 0:
            g = -g
        core = tuple(cs) if g == 1 else tuple(c // g for c in cs)
        return cls._make(low + i, Fraction(num * g, den), core)

    @classmethod
    def x_pow(cls, k: int, c=1) -> "Poly":
        """The monomial c * L^k, k >= 0."""
        if k < 0:
            raise ValueError("x_pow exponent must be nonnegative")
        c = _frac(c)
        return cls._make(k, c, (1,)) if c else _P_ZERO

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """All coefficients, ascending from L^0, built on each access."""
        content = self.content
        return (_F0,) * self.low + tuple(content * c for c in self.core)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return self.low + len(self.core) - 1 if self.core else -1

    def is_zero(self) -> bool:
        return not self.core

    @property
    def leading(self) -> Fraction:
        if not self.core:
            raise ValueError("zero polynomial has no leading coefficient")
        lead = self.core[-1]
        return self.content if lead == 1 else self.content * lead

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.low == other.low
            and self.core == other.core
            and self.content == other.content
        )

    def __hash__(self):
        return hash((self.low, self.content, self.core))

    def __add__(self, other: "Poly") -> "Poly":
        if not other.core:
            return self
        if not self.core:
            return other
        a, b = (self, other) if self.low <= other.low else (other, self)
        # over one denominator d, a + b = (sa * a.core + sb * b.core) * h / d
        na, da = a.content.numerator, a.content.denominator
        nb, db = b.content.numerator, b.content.denominator
        g = gcd(da, db)
        d, sa, sb = da // g * db, na * (db // g), nb * (da // g)
        h = gcd(sa, sb)
        sa, sb = sa // h, sb // h
        out = [sa * x for x in a.core] if sa != 1 else list(a.core)
        shift = b.low - a.low
        out.extend([0] * (shift + len(b.core) - len(out)))
        for i, y in enumerate(b.core, shift):
            out[i] += sb * y
        return Poly._from_ints(a.low, out, h, d)

    def __neg__(self) -> "Poly":
        return Poly._make(self.low, -self.content, self.core) if self.core else self

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.core, other.core
        if not a or not b:
            return _P_ZERO
        if len(a) == 1:
            core = b
        elif len(b) == 1:
            core = a
        else:
            core = tuple(_convolve(a, b))
        return Poly._make(self.low + other.low, self.content * other.content, core)

    def _pow(self, k: int) -> "Poly":
        """self ** k for k >= 0, by square-and-multiply."""
        out, base = _P_ONE, self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def scale(self, c) -> "Poly":
        c = _frac(c)
        return Poly._make(self.low, self.content * c, self.core) if c and self.core else _P_ZERO

    def __divmod__(self, other: "Poly"):
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        if self.degree < other.degree:
            return _P_ZERO, self
        # lead^e * a = q * b + r on the full int lists, lead = other.core[-1]
        a = [0] * self.low + list(self.core)
        b = [0] * other.low + list(other.core)
        q, r = _pseudo_divmod(a, b)
        scale = self.content / other.core[-1] ** (len(a) - len(b) + 1)
        return (
            Poly._from_ints(0, q).scale(scale / other.content),
            Poly._from_ints(0, r).scale(scale),
        )

    def _div_exact(self, other: "Poly") -> "Poly":
        """self / other, for a divisor other of the nonzero self: the lows
        subtract, the contents divide, and the primitive cores divide over Z
        (by Gauss's lemma the quotient core is primitive too)."""
        core = self.core
        if len(other.core) > 1:
            core = tuple(_div_ints(core, other.core))
        return Poly._make(self.low - other.low, self.content / other.content, core)

    def monic(self) -> "Poly":
        if self.is_zero() or self.leading == 1:
            return self
        return Poly._make(self.low, Fraction(1, self.core[-1]), self.core)

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor: L^min(a, b) gcd(p, q) for L^a p and
        L^b q, as L divides neither core.  So a constant core gives
        L^min(a, b), and the cores' gcd is GCDHEU's, or the primitive
        remainder sequence's when the heuristic gives up."""
        if self.is_zero():
            return other.monic()
        if other.is_zero():
            return self.monic()
        low = min(self.low, other.low)
        a, b = self.core, other.core
        if len(a) == 1 or len(b) == 1:
            return Poly._make(low, _F1, (1,))
        if a == b:
            g = a
        else:
            g = _heuristic_gcd(a, b)
            if g is None:
                g = _prs_gcd(a, b)
        return Poly._make(low, Fraction(1, g[-1]), g)

    def eval(self, at: Fraction) -> Fraction:
        # sum c_i p^i q^(m - i) over the core's degrees i <= m, for at = p/q
        p, q = at.numerator, at.denominator
        acc, qk = 0, 1
        for c in reversed(self.core):
            acc = acc * p + c * qk
            qk *= q
        return self.content * Fraction(acc, qk // q if self.core else 1) * at**self.low

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


_P_ZERO = Poly._make(0, _F0, ())
_P_ONE = Poly._make(0, _F1, (1,))


class Scalar:
    """An element of Q(L) in normal form (see module docstring)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = _P_ONE):
        if not isinstance(num, Poly) or not isinstance(den, Poly):
            raise TypeError("Scalar takes Poly numerator and denominator")
        if den.is_zero():
            raise DivisionByZero("scalar with zero denominator")
        if num.is_zero():
            num, den = _P_ZERO, _P_ONE
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num._div_exact(g), den._div_exact(g)
            lead = den.leading
            if lead != 1:
                inv = 1 / lead
                num, den = num.scale(inv), den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num.core

    def is_rational(self) -> bool:
        return self.num.degree <= 0 and self.den == _P_ONE

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not a rational constant")
        return self.num.content

    # -- arithmetic ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = sc(other)
        return (
            isinstance(other, Scalar)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        # a rational constant hashes as its Fraction, since it equals it
        if self.den == _P_ONE and self.num.degree <= 0:
            return hash(self.as_rational())
        return hash((self.num, self.den))

    def __add__(self, other: "Scalar") -> "Scalar":
        other = sc(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return Scalar(self.num + other.num, self.den)
        return Scalar(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return self if self.is_zero() else self._raw(-self.num, self.den)

    def __sub__(self, other: "Scalar") -> "Scalar":
        other = sc(other)
        return self if other.is_zero() else self + (-other)

    def __rsub__(self, other):
        return sc(other) + (-self)

    def __mul__(self, other: "Scalar") -> "Scalar":
        other = sc(other)
        if self.is_zero() or other.is_zero():
            return ZERO
        # cross-cancel so the final normalisation gcd is trivial
        g1 = self.num.gcd(other.den)
        g2 = other.num.gcd(self.den)
        n1 = self.num._div_exact(g1) if g1.degree > 0 else self.num
        d2 = other.den._div_exact(g1) if g1.degree > 0 else other.den
        n2 = other.num._div_exact(g2) if g2.degree > 0 else other.num
        d1 = self.den._div_exact(g2) if g2.degree > 0 else self.den
        num, den = n1 * n2, d1 * d2
        lead = den.leading
        if lead != 1:
            inv = 1 / lead
            num, den = num.scale(inv), den.scale(inv)
        return self._raw(num, den)

    __rmul__ = __mul__

    def __truediv__(self, other: "Scalar") -> "Scalar":
        other = sc(other)
        if other.is_zero():
            raise DivisionByZero("division by the zero scalar")
        return self * other.inverse()

    def __rtruediv__(self, other):
        return sc(other) / self

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZero("the zero scalar has no inverse")
        num, den = self.den, self.num
        lead = den.leading
        if lead != 1:
            inv = 1 / lead
            num, den = num.scale(inv), den.scale(inv)
        return self._raw(num, den)

    def __pow__(self, k: int) -> "Scalar":
        if not isinstance(k, int):
            raise TypeError("scalar exponents must be integers")
        if k == 0:
            return ONE
        base = self if k > 0 else self.inverse()
        # base is reduced with a monic denominator, and so is its power
        return self._raw(base.num._pow(abs(k)), base.den._pow(abs(k)))

    @classmethod
    def _raw(cls, num: Poly, den: Poly) -> "Scalar":
        """Bypass normalisation for results already known to be reduced."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "num", num)
        object.__setattr__(obj, "den", den)
        return obj

    # -- evaluation ----------------------------------------------------------

    def eval(self, at) -> Fraction:
        at = _frac(at)
        d = self.den.eval(at)
        if d == 0:
            raise PoleAtPoint(f"denominator vanishes at L = {at}")
        return self.num.eval(at) / d

    def __repr__(self):
        return f"Scalar({render_scalar(self)!r})"

    def __str__(self):
        return render_scalar(self)


ZERO = Scalar(_P_ZERO)
ONE = Scalar(_P_ONE)
L = Scalar(Poly((0, 1)))


def sc(x) -> Scalar:
    """Coerce an int, Fraction, or canonical-text string to a Scalar."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(Poly((x,)))
    if isinstance(x, str):
        return parse_scalar(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")


def scalar_eval(a: Scalar, at) -> Fraction:
    """Evaluate at a rational point; raises PoleAtPoint on a pole."""
    return sc(a).eval(at)


# ---------------------------------------------------------------------------
# canonical text form
# ---------------------------------------------------------------------------

def _render_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i in range(len(p.core) - 1, -1, -1):
        if not p.core[i]:
            continue
        c, k = p.content * p.core[i], p.low + i
        if k == 0:
            body = str(abs(c))
        else:
            lpart = "L" if k == 1 else f"L^{k}"
            body = lpart if abs(c) == 1 else f"{abs(c)}*{lpart}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def render_scalar(s: Scalar) -> str:
    """Canonical text: descending powers of L, `(num)/(den)` when den != 1.

    Raises RenderLimit rather than lift the interpreter's limit on the
    digits of an integer's text, which would let a small input buy
    unbounded work."""
    try:
        if s.den == _P_ONE:
            return _render_poly(s.num)
        return f"({_render_poly(s.num)})/({_render_poly(s.den)})"
    except ValueError:
        raise RenderLimit(
            f"a coefficient has more than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's limit for the text of an integer"
        ) from None


class ScalarSyntaxError(HomLieError):
    def __init__(self, message: str, pos):
        super().__init__(message)
        self.pos = pos  # (line, col), 1-based


# Deepest nesting of parentheses and unary signs an expression may have.
# The expression parser recurses once per level, so this bound keeps the
# Python stack safe whatever the input.
MAX_NESTING = 100

# Highest degree, the larger of numerator's and denominator's, that a power
# may have when its base is not c*L^k.  A power of c*L^k only moves the
# shift of L, but (L + 1)^k is a dense core of k + 1 coefficients with
# k-bit entries, and every later product and gcd pays for its size.
MAX_POWER_DEGREE = 200

_GRAMMAR_PUNCT = "{}[],;=:"
_DIGITS = "0123456789"
_MAX_DIGITS = 4300  # the interpreter's default limit for int() of a string


def tokenize(text: str, grammar: bool = False):
    """Tokens of scalar text, or with ``grammar`` of a definition file.

    Each token is a ``(kind, value, (line, col))`` triple, 1-based, with
    kind in {"int", "L", "op", "lparen", "rparen", "ident", "end"}; the
    definition grammar adds "arrow" (``->``, ``=>``) and "punct"
    (``{}[],;=:``), ``#`` comments, and reads ``L`` only as a whole word,
    since there ``L``-prefixed words are identifiers.  Any other
    character raises ScalarSyntaxError at its position.
    """
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if grammar and ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        pos = (line, col)
        j = i + 1
        if ch in _DIGITS:
            while j < n and text[j] in _DIGITS:
                j += 1
            if j - i > _MAX_DIGITS:
                raise ScalarSyntaxError(f"integer longer than {_MAX_DIGITS} digits", pos)
            toks.append(("int", int(text[i:j]), pos))
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if ch == "L" and (j == i + 1 or not grammar):
                j = i + 1
                toks.append(("L", "L", pos))
            else:
                toks.append(("ident", text[i:j], pos))
        elif grammar and text[i:i + 2] in ("->", "=>"):
            j = i + 2
            toks.append(("arrow", text[i:j], pos))
        elif ch in "+-*/^":
            toks.append(("op", ch, pos))
        elif ch == "(":
            toks.append(("lparen", ch, pos))
        elif ch == ")":
            toks.append(("rparen", ch, pos))
        elif grammar and ch in _GRAMMAR_PUNCT:
            toks.append(("punct", ch, pos))
        else:
            raise ScalarSyntaxError(f"unexpected character {ch!r}", pos)
        col += j - i
        i = j
    toks.append(("end", None, (line, col)))
    return toks


def parse_scalar_tokens(toks, i: int, stop_before_ident: bool = False):
    """Parse a scalar expression from a token list; returns (Scalar, next index).

    With ``stop_before_ident`` the multiplicative chain stops in front of a
    ``*`` whose right operand is an identifier, which is how the definition
    grammar splits the coefficient off a term like ``2*e``.
    """

    def expect(kind, j):
        if toks[j][0] != kind:
            raise ScalarSyntaxError(
                f"expected {kind}, found {toks[j][1]!r}", toks[j][2]
            )

    def deeper(j, depth):
        """One level below ``depth``, for the opening token j."""
        if depth == MAX_NESTING:
            raise ScalarSyntaxError(
                f"expression nested deeper than {MAX_NESTING} levels", toks[j][2]
            )
        return depth + 1

    def parse_sum(j, depth):
        val, j = parse_product(j, depth)
        while toks[j][0] == "op" and toks[j][1] in "+-":
            op = toks[j][1]
            rhs, j = parse_product(j + 1, depth)
            val = val + rhs if op == "+" else val - rhs
        return val, j

    def parse_product(j, depth):
        val, j = parse_unary(j, depth)
        while toks[j][0] == "op" and toks[j][1] in "*/":
            if (
                stop_before_ident
                and toks[j][1] == "*"
                and toks[j + 1][0] == "ident"
            ):
                break
            op = toks[j][1]
            rhs, j = parse_unary(j + 1, depth)
            if op == "/" and rhs.is_zero():
                raise ScalarSyntaxError("division by zero", toks[j - 1][2])
            val = val * rhs if op == "*" else val / rhs
        return val, j

    def parse_unary(j, depth):
        if toks[j][0] == "op" and toks[j][1] in "+-":
            val, k = parse_unary(j + 1, deeper(j, depth))
            return (-val if toks[j][1] == "-" else val), k
        return parse_power(j, depth)

    def parse_power(j, depth):
        base, j = parse_atom(j, depth)
        if toks[j][0] == "op" and toks[j][1] == "^":
            j += 1
            sign = 1
            if toks[j][0] == "op" and toks[j][1] == "-":
                sign = -1
                j += 1
            expect("int", j)
            exp = sign * toks[j][1]
            j += 1
            if exp < 0 and base.is_zero():
                raise ScalarSyntaxError("zero to a negative power", toks[j - 1][2])
            if len(base.num.core) > 1 or len(base.den.core) > 1:
                degree = max(base.num.degree, base.den.degree) * abs(exp)
                if degree > MAX_POWER_DEGREE:
                    raise ScalarSyntaxError(
                        f"power of degree {degree}, above the limit of {MAX_POWER_DEGREE}",
                        toks[j - 1][2],
                    )
            return base ** exp, j
        return base, j

    def parse_atom(j, depth):
        kind, value, pos = toks[j]
        if kind == "int":
            return sc(value), j + 1
        if kind == "L":
            return L, j + 1
        if kind == "lparen":
            val, j = parse_sum(j + 1, deeper(j, depth))
            expect("rparen", j)
            return val, j + 1
        raise ScalarSyntaxError(
            f"expected a number, 'L', or '(', found {value!r}", pos
        )

    return parse_sum(i, 0)


def parse_scalar(text: str) -> Scalar:
    """Parse the canonical text form (integers, fractions, L, ^, + - * /, parens)."""
    toks = tokenize(text)
    val, i = parse_scalar_tokens(toks, 0)
    if toks[i][0] != "end":
        raise ScalarSyntaxError(f"trailing input {toks[i][1]!r}", toks[i][2])
    return val
