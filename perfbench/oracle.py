"""Known answers without homlie: Lie algebras over plain ``Fraction``.

The benchmark fixes every command's expected exit code when it generates
the command.  The algebras it writes are built here by construction
(direct sums of standard pieces, a rational change of basis, automorphisms
transported along it) and every construction is re-checked by brute force:
skew symmetry, the Jacobi identity and the morphism equations are summed
out over all basis pairs and triples in exact rational arithmetic.  The
broken variants of the cli-corpus workload are accepted only when this
check finds them broken.

An algebra is ``(names, c)`` where ``c[i][j]`` is the coordinate list of
``[x_i, x_j]``.  A linear map is a square list of rows acting on column
coordinate vectors, so column ``i`` holds the image of ``x_i``.
"""

from __future__ import annotations

import re
from fractions import Fraction


def zeros(n):
    return [Fraction(0)] * n


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(A, B):
    return [
        [sum((A[i][k] * B[k][j] for k in range(len(B))), Fraction(0))
         for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def apply(M, v):
    return [sum((M[i][k] * v[k] for k in range(len(v))), Fraction(0))
            for i in range(len(M))]


def inverse(M):
    """Gauss-Jordan inverse; raises ValueError when M is singular."""
    n = len(M)
    rows = [list(M[i]) + identity(n)[i] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    out = [zeros(n) for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


class Algebra:
    """Bracket by structure constants over the rationals."""

    def __init__(self, names, c):
        self.names = list(names)
        self.c = c

    @property
    def dim(self):
        return len(self.names)

    @classmethod
    def from_brackets(cls, names, brackets):
        """brackets: {(a, b): {name: coefficient}} for pairs a before b."""
        n = len(names)
        index = {x: i for i, x in enumerate(names)}
        c = [[zeros(n) for _ in range(n)] for _ in range(n)]
        for (a, b), terms in brackets.items():
            i, j = index[a], index[b]
            for name, coef in terms.items():
                c[i][j][index[name]] += Fraction(coef)
                c[j][i][index[name]] -= Fraction(coef)
        return cls(names, c)

    def bracket(self, u, v):
        n = self.dim
        out = zeros(n)
        for i in range(n):
            if u[i] == 0:
                continue
            for j in range(n):
                if v[j] == 0:
                    continue
                w = u[i] * v[j]
                for k, x in enumerate(self.c[i][j]):
                    if x:
                        out[k] += w * x
        return out

    def basis(self, i):
        v = zeros(self.dim)
        v[i] = Fraction(1)
        return v


def direct_sum(parts):
    """Componentwise bracket on the concatenated bases."""
    names = [x for p in parts for x in p.names]
    n = len(names)
    c = [[zeros(n) for _ in range(n)] for _ in range(n)]
    at = 0
    for p in parts:
        for i in range(p.dim):
            for j in range(p.dim):
                c[at + i][at + j][at:at + p.dim] = p.c[i][j]
        at += p.dim
    return Algebra(names, c)


def change_basis(A, P, names):
    """The same algebra in the basis whose i-th vector is column i of P."""
    Pinv = inverse(P)
    cols = [[P[k][i] for k in range(A.dim)] for i in range(A.dim)]
    c = [[apply(Pinv, A.bracket(cols[i], cols[j])) for j in range(A.dim)]
         for i in range(A.dim)]
    return Algebra(names, c)


def conjugate(M, P):
    """A linear map written in the basis given by the columns of P."""
    return matmul(inverse(P), matmul(M, P))


def yau_twisted(A, alpha):
    """The bracket alpha([x, y]); Hom-Lie with alpha when alpha is an
    automorphism of A."""
    c = [[apply(alpha, A.c[i][j]) for j in range(A.dim)] for i in range(A.dim)]
    return Algebra(A.names, c)


def first_skew_failure(A):
    for i in range(A.dim):
        for j in range(i, A.dim):
            if any(x + y for x, y in zip(A.c[i][j], A.c[j][i])):
                return (i, j)
    return None


def first_jacobi_failure(A, alpha=None):
    """First triple i < j < k where the (alpha-twisted) Jacobi sum is
    nonzero; with alpha the outer argument is alpha(x)."""
    outer = (lambda i: A.basis(i)) if alpha is None else (
        lambda i: [alpha[r][i] for r in range(A.dim)])
    for i in range(A.dim):
        for j in range(i + 1, A.dim):
            for k in range(j + 1, A.dim):
                total = zeros(A.dim)
                for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
                    term = A.bracket(outer(a), A.c[b][d])
                    total = [x + y for x, y in zip(total, term)]
                if any(total):
                    return (i, j, k)
    return None


def is_lie(A):
    return first_skew_failure(A) is None and first_jacobi_failure(A) is None


def is_morphism(A, alpha):
    """alpha[x, y] == [alpha x, alpha y] on every basis pair."""
    cols = [[alpha[r][i] for r in range(A.dim)] for i in range(A.dim)]
    return all(
        apply(alpha, A.c[i][j]) == A.bracket(cols[i], cols[j])
        for i in range(A.dim) for j in range(A.dim)
    )


def is_automorphism(A, alpha):
    try:
        inverse(alpha)
    except ValueError:
        return False
    return is_morphism(A, alpha)


def is_hom_lie(A, alpha):
    return (
        first_skew_failure(A) is None
        and first_jacobi_failure(A, alpha) is None
        and is_morphism(A, alpha)
    )


# ---------------------------------------------------------------------------
# reading the rational subset of the .hla format (for the self-test)
# ---------------------------------------------------------------------------

_BASIS = re.compile(r"basis\s+([^;]*);")
_BRACKET = re.compile(r"\[\s*(\w+)\s*,\s*(\w+)\s*\]\s*=\s*([^;]*);")
_TERM = re.compile(r"([+-]?)\s*(?:([0-9]+(?:/[0-9]+)?)\s*\*\s*)?([A-Za-z_]\w*)")


def read_algebras(text):
    """Every algebra of a document whose coefficients are rational
    numbers, as {name: Algebra}.  Comments are dropped first."""
    text = re.sub(r"#[^\n]*", "", text)
    out = {}
    for match in re.finditer(r"algebra\s+(\w+)\s*\{([^}]*)\}", text):
        body = match.group(2)
        names = [x.strip() for x in _BASIS.search(body).group(1).split(",")]
        brackets = {}
        for a, b, expr in _BRACKET.findall(body):
            terms = {}
            for sign, coef, name in _TERM.findall(expr):
                value = Fraction(coef or 1) * (-1 if sign == "-" else 1)
                terms[name] = terms.get(name, 0) + value
            brackets[(a, b)] = terms
        out[match.group(1)] = Algebra.from_brackets(names, brackets)
    return out


# ---------------------------------------------------------------------------
# writing .hla text
# ---------------------------------------------------------------------------

def render_number(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def render_combination(v, names) -> str:
    """sum of coefficient*name, written the way the format reads it:
    every term after the first joined by ' + ' or ' - '."""
    out = ""
    for x, name in zip(v, names):
        if x == 0:
            continue
        if not out:
            out = name if x == 1 else f"{render_number(x)}*{name}"
        else:
            term = name if abs(x) == 1 else f"{render_number(abs(x))}*{name}"
            out += (" + " if x > 0 else " - ") + term
    return out or "0"


def render_algebra(label, A) -> str:
    lines = [f"algebra {label} {{", f"  basis {', '.join(A.names)};"]
    for i in range(A.dim):
        for j in range(i + 1, A.dim):
            if any(A.c[i][j]):
                lines.append(
                    f"  [{A.names[i]},{A.names[j]}] = "
                    f"{render_combination(A.c[i][j], A.names)};"
                )
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_morphism(label, algebra_label, A, alpha) -> str:
    lines = [f"morphism {label} on {algebra_label} {{"]
    for i, name in enumerate(A.names):
        image = [alpha[r][i] for r in range(A.dim)]
        lines.append(f"  {name} -> {render_combination(image, A.names)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def self_test(sl2_text: str, bad_jacobi_text: str) -> list:
    """Problems found when the oracle reads the two reference documents;
    an empty list means sl2 passes and the broken table fails."""
    problems = []
    for label, text, want in (("sl2", sl2_text, True),
                              ("bad_jacobi", bad_jacobi_text, False)):
        algebras = read_algebras(text)
        if len(algebras) != 1:
            problems.append(f"{label}: expected one algebra, read {len(algebras)}")
            continue
        (A,) = algebras.values()
        if is_lie(A) != want:
            problems.append(f"{label}: oracle says lie={not want}, expected {want}")
    return problems
