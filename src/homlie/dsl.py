"""Parser and renderer for the `.hla` definition-file format.

A document is a sequence of items: algebras (basis plus bracket table),
morphisms (basis-element images over an algebra), representations
(generator matrices, optional `beta` matrix), and family invocations
(parameter lists for the classified sl(2) families).  The grammar:

    document   := item*
    item       := algebra | morphism | rep | family
    algebra    := "algebra" IDENT "{" "basis" IDENT ("," IDENT)* ";" bracketdef* "}"
    bracketdef := "[" IDENT "," IDENT "]" "=" linexpr ";"
    morphism   := "morphism" IDENT "on" IDENT "{" (IDENT "->" linexpr ";")+ "}"
    rep        := "rep" IDENT "of" IDENT "dim" INT "{" (IDENT "=>" matrix ";")+
                  ("beta" "=>" matrix ";")? "}"
    family     := "family" KIND "(" param ("," param)* ")" ";"
                  KIND ∈ {finite, lowest, highest, intermediate}
    param      := IDENT "=" (scalar | window)      window := INT ":" INT
    linexpr    := term (("+"|"-") term)*
    term       := scalar ("*" IDENT)? | IDENT
    matrix     := "[" row (";" row)* "]"           row := scalar ("," scalar)*

`#` starts a comment running to the end of the line.  Scalars are the
rational-function texts of the scalar layer, with `L` the indeterminate
(so `L` is never an identifier).  Window bounds may be negative.

Parsing is fail-fast: the first grammar violation raises ParseError
with the 1-based position of the offending token.  Semantic problems —
unknown identifiers, duplicate names or bracket pairs, images missing a
basis element, matrices of the wrong shape, a constant term where a
basis combination is required — raise ResolutionError naming the
identifier instead.  Bracket pairs are stored skew-normalized (first
basis element before second); writing `[f,e]` is the same as writing
the negated `[e,f]`, and writing both counts as a duplicate.

render() produces canonical text whose reparse is structurally equal to
the original document (source positions aside).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import lie_algebra, skew_constants
from .linalg import Matrix
from .scalar import (
    HomLieError,
    ONE,
    Scalar,
    ScalarSyntaxError,
    parse_scalar_tokens,
    render_scalar,
    sc,
    tokenize,
)

RESERVED = frozenset(
    {"algebra", "basis", "morphism", "rep", "family", "of", "dim", "on", "beta"}
)
FAMILY_KIND_WORDS = ("finite", "lowest", "highest", "intermediate")
FAMILY_KIND_NAMES = {
    "finite": "FiniteDim",
    "lowest": "LowestWeight",
    "highest": "HighestWeight",
    "intermediate": "IntermediateSeries",
}
FAMILY_PARAM_ORDER = ("n", "tau", "mu", "lambda", "b0", "window")


class ParseError(HomLieError):
    def __init__(self, line, column, expected, found, reason=None):
        self.line = line
        self.column = column
        self.expected = tuple(sorted(expected))
        self.found = found
        wanted = " or ".join(self.expected)
        message = f"line {line}, column {column}: expected {wanted}, found {found!r}"
        super().__init__(f"{message}: {reason}" if reason else message)


class ResolutionError(HomLieError):
    def __init__(self, message, identifier, pos=None):
        self.identifier = identifier
        self.pos = pos
        where = f" (line {pos[0]}, column {pos[1]})" if pos else ""
        super().__init__(f"{message}: {identifier!r}{where}")


@dataclass(frozen=True)
class AlgebraDef:
    name: str
    basis: tuple
    brackets: dict  # (left, right) with left before right in basis order -> {name: Scalar}
    span: tuple = field(default=(1, 1), compare=False)


@dataclass(frozen=True)
class MorphismDef:
    name: str
    algebra: str
    images: dict  # basis name -> {name: Scalar}
    span: tuple = field(default=(1, 1), compare=False)


@dataclass(frozen=True)
class RepDef:
    name: str
    algebra: str
    dim: int
    matrices: dict  # basis name -> Matrix
    beta: Matrix | None
    span: tuple = field(default=(1, 1), compare=False)


@dataclass(frozen=True)
class FamilyDef:
    kind: str  # grammar keyword: finite | lowest | highest | intermediate
    params: dict  # name -> Scalar, except "window" -> (lo, hi)
    span: tuple = field(default=(1, 1), compare=False)

    @property
    def kind_name(self) -> str:
        return FAMILY_KIND_NAMES[self.kind]


@dataclass(frozen=True)
class Document:
    items: tuple

    def _by_kind(self, cls):
        return {item.name: item for item in self.items if isinstance(item, cls)}

    def algebra(self, name) -> AlgebraDef:
        return self._lookup(AlgebraDef, name, "algebra")

    def morphism(self, name) -> MorphismDef:
        return self._lookup(MorphismDef, name, "morphism")

    def rep(self, name) -> RepDef:
        return self._lookup(RepDef, name, "rep")

    def _lookup(self, cls, name, what):
        table = self._by_kind(cls)
        if name not in table:
            raise ResolutionError(f"no {what} with this name", name)
        return table[name]

    def morphisms_on(self, algebra_name):
        return [
            item
            for item in self.items
            if isinstance(item, MorphismDef) and item.algebra == algebra_name
        ]

    @property
    def families(self):
        return [item for item in self.items if isinstance(item, FamilyDef)]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0
        self.algebras = {}
        self.morphisms = {}
        self.reps = {}

    @property
    def tok(self):
        return self.toks[self.i]

    def fail(self, *expected):
        kind, value, pos = self.tok
        found = "end of input" if kind == "end" else str(value)
        raise ParseError(pos[0], pos[1], expected, found)

    def at(self, kind, value=None):
        tok = self.tok
        return tok[0] == kind and (value is None or tok[1] == value)

    def eat(self, kind, value, expected):
        if not self.at(kind, value):
            self.fail(expected)
        self.i += 1

    def eat_keyword(self, word):
        self.eat("ident", word, f"'{word}'")

    def eat_punct(self, ch):
        self.eat("punct", ch, f"'{ch}'")

    def eat_name(self):
        if not self.at("ident") or self.tok[1] in RESERVED:
            self.fail("an identifier")
        name = self.tok[1]
        self.i += 1
        return name

    def eat_int(self):
        sign = 1
        if self.at("op", "-"):
            sign = -1
            self.i += 1
        if not self.at("int"):
            self.fail("an integer")
        value = self.tok[1]
        self.i += 1
        return sign * value

    def eat_scalar(self, stop_before_ident=False) -> Scalar:
        try:
            value, self.i = parse_scalar_tokens(self.toks, self.i, stop_before_ident)
        except ScalarSyntaxError as err:
            found = "end of input"
            for kind, text, pos in self.toks:
                if pos == err.pos:
                    found = "end of input" if kind == "end" else str(text)
                    break
            raise ParseError(*err.pos, ("a scalar expression",), found, str(err))
        return value

    # -- grammar productions ------------------------------------------------

    def document(self) -> Document:
        items = []
        while not self.at("end"):
            if self.at("ident", "algebra"):
                items.append(self.algebra())
            elif self.at("ident", "morphism"):
                items.append(self.morphism())
            elif self.at("ident", "rep"):
                items.append(self.rep())
            elif self.at("ident", "family"):
                items.append(self.family())
            else:
                self.fail("'algebra'", "'morphism'", "'rep'", "'family'")
        return Document(tuple(items))

    def _register(self, table, name, what, pos):
        if name in table:
            raise ResolutionError(f"duplicate {what} name", name, pos)

    def algebra(self) -> AlgebraDef:
        span = self.tok[2]
        self.eat_keyword("algebra")
        name_pos = self.tok[2]
        name = self.eat_name()
        self._register(self.algebras, name, "algebra", name_pos)
        self.eat_punct("{")
        self.eat_keyword("basis")
        basis = [self.eat_name()]
        while self.at("punct", ","):
            self.i += 1
            basis.append(self.eat_name())
        self.eat_punct(";")
        seen = set()
        for b in basis:
            if b in seen:
                raise ResolutionError("duplicate basis name", b, span)
            seen.add(b)
        order = {b: k for k, b in enumerate(basis)}
        brackets = {}
        while self.at("punct", "["):
            pair_pos = self.tok[2]
            self.i += 1
            left = self._basis_ref(order, name)
            self.eat_punct(",")
            right = self._basis_ref(order, name)
            self.eat_punct("]")
            self.eat("punct", "=", "'='")
            coeffs = self.linexpr(order)
            self.eat_punct(";")
            if left == right:
                if coeffs:
                    raise ResolutionError(
                        "self-bracket must be zero", f"[{left},{left}]", pair_pos
                    )
                continue
            if order[left] > order[right]:
                left, right = right, left
                coeffs = {k: -v for k, v in coeffs.items()}
            if (left, right) in brackets:
                raise ResolutionError(
                    "bracket pair defined twice", f"[{left},{right}]", pair_pos
                )
            brackets[(left, right)] = coeffs
        self.eat_punct("}")
        item = AlgebraDef(name, tuple(basis), brackets, span)
        self.algebras[name] = item
        return item

    def _basis_ref(self, order, algebra_name):
        pos = self.tok[2]
        name = self.eat_name()
        if name not in order:
            raise ResolutionError(
                f"not a basis element of algebra {algebra_name!r}", name, pos
            )
        return name

    def _algebra_ref(self) -> AlgebraDef:
        pos = self.tok[2]
        name = self.eat_name()
        if name not in self.algebras:
            raise ResolutionError("reference to an unknown algebra", name, pos)
        return self.algebras[name]

    def linexpr(self, order) -> dict:
        """Coefficient map of a basis combination; zero terms dropped."""
        coeffs = {}
        sign = ONE
        while True:
            kind, value, pos = self.tok
            if kind == "ident" and value not in RESERVED:
                if value not in order:
                    raise ResolutionError("not a basis element", value, pos)
                name, coefficient = value, ONE
                self.i += 1
            else:
                coefficient = self.eat_scalar(stop_before_ident=True)
                if (
                    self.at("op", "*")
                    and self.toks[self.i + 1][0] == "ident"
                ):
                    ident_pos = self.toks[self.i + 1][2]
                    word = self.toks[self.i + 1][1]
                    if word in RESERVED:
                        raise ParseError(
                            ident_pos[0], ident_pos[1], ("an identifier",), word
                        )
                    if word not in order:
                        raise ResolutionError("not a basis element", word, ident_pos)
                    name = word
                    self.i += 2
                else:
                    if not coefficient.is_zero():
                        raise ResolutionError(
                            "constant term has no basis element",
                            render_scalar(coefficient),
                            pos,
                        )
                    name = None
            if name is not None:
                total = coeffs.get(name, sc(0)) + sign * coefficient
                if total.is_zero():
                    coeffs.pop(name, None)
                else:
                    coeffs[name] = total
            if self.at("op", "+"):
                sign = ONE
                self.i += 1
            elif self.at("op", "-"):
                sign = -ONE
                self.i += 1
            else:
                return coeffs

    def morphism(self) -> MorphismDef:
        span = self.tok[2]
        self.eat_keyword("morphism")
        name_pos = self.tok[2]
        name = self.eat_name()
        self._register(self.morphisms, name, "morphism", name_pos)
        self.eat_keyword("on")
        target = self._algebra_ref()
        order = {b: k for k, b in enumerate(target.basis)}
        self.eat_punct("{")
        images = {}
        while not self.at("punct", "}"):
            pos = self.tok[2]
            source = self._basis_ref(order, target.name)
            if source in images:
                raise ResolutionError("image defined twice", source, pos)
            self.eat("arrow", "->", "'->'")
            images[source] = self.linexpr(order)
            self.eat_punct(";")
        if not images:
            self.fail("an identifier")
        self.eat_punct("}")
        for b in target.basis:
            if b not in images:
                raise ResolutionError("no image for basis element", b, span)
        item = MorphismDef(name, target.name, images, span)
        self.morphisms[name] = item
        return item

    def rep(self) -> RepDef:
        span = self.tok[2]
        self.eat_keyword("rep")
        name_pos = self.tok[2]
        name = self.eat_name()
        self._register(self.reps, name, "rep", name_pos)
        self.eat_keyword("of")
        target = self._algebra_ref()
        order = {b: k for k, b in enumerate(target.basis)}
        self.eat_keyword("dim")
        if not self.at("int"):
            self.fail("an integer")
        dim = self.tok[1]
        self.i += 1
        self.eat_punct("{")
        matrices = {}
        beta = None
        while not self.at("punct", "}"):
            pos = self.tok[2]
            if self.at("ident", "beta"):
                self.i += 1
                self.eat("arrow", "=>", "'=>'")
                beta = self.matrix(dim, "beta", pos)
                self.eat_punct(";")
                break  # the grammar puts beta last
            source = self._basis_ref(order, target.name)
            if source in matrices:
                raise ResolutionError("matrix defined twice", source, pos)
            self.eat("arrow", "=>", "'=>'")
            matrices[source] = self.matrix(dim, source, pos)
            self.eat_punct(";")
        if not matrices:
            self.fail("an identifier")
        self.eat_punct("}")
        for b in target.basis:
            if b not in matrices:
                raise ResolutionError("no matrix for basis element", b, span)
        item = RepDef(name, target.name, dim, matrices, beta, span)
        self.reps[name] = item
        return item

    def matrix(self, dim, owner, pos) -> Matrix:
        self.eat_punct("[")
        rows = [self.matrix_row()]
        while self.at("punct", ";"):
            self.i += 1
            rows.append(self.matrix_row())
        self.eat_punct("]")
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise ResolutionError(
                f"matrix must be {dim}x{dim}, got "
                f"{len(rows)}x{max(len(r) for r in rows)}",
                owner,
                pos,
            )
        return Matrix.from_rows(rows)

    def matrix_row(self):
        row = [self.eat_scalar()]
        while self.at("punct", ","):
            self.i += 1
            row.append(self.eat_scalar())
        return row

    def family(self) -> FamilyDef:
        span = self.tok[2]
        self.eat_keyword("family")
        if not self.at("ident") or self.tok[1] not in FAMILY_KIND_WORDS:
            self.fail(*(f"'{k}'" for k in FAMILY_KIND_WORDS))
        kind = self.tok[1]
        self.i += 1
        self.eat("lparen", "(", "'('")
        params = {}
        while True:
            pos = self.tok[2]
            if not self.at("ident"):
                self.fail("a parameter name")
            key = self.tok[1]
            if key not in FAMILY_PARAM_ORDER:
                raise ResolutionError("unknown family parameter", key, pos)
            if key in params:
                raise ResolutionError("family parameter given twice", key, pos)
            self.i += 1
            self.eat("punct", "=", "'='")
            if key == "window":
                lo = self.eat_int()
                self.eat_punct(":")
                hi = self.eat_int()
                params[key] = (lo, hi)
            else:
                params[key] = self.eat_scalar()
            if self.at("punct", ","):
                self.i += 1
                continue
            break
        self.eat("rparen", ")", "')'")
        self.eat_punct(";")
        return FamilyDef(kind, params, span)


def parse(source: str) -> Document:
    try:
        toks = tokenize(source, grammar=True)
    except ScalarSyntaxError as err:
        line, col = err.pos
        bad = source.split("\n")[line - 1][col - 1]
        raise ParseError(line, col, ("a token",), bad) from None
    return _Parser(toks).document()


# ---------------------------------------------------------------------------
# document -> library objects
# ---------------------------------------------------------------------------

def to_lie_algebra(adef: AlgebraDef):
    """Structure constants with skew completion; validates the axioms."""
    return lie_algebra(adef.basis, adef.brackets)


def bracket_constants(adef: AlgebraDef):
    """Skew-completed structure constants without axiom validation.

    Twisted bracket tables are generally not Lie brackets, so tools that
    pair a table with a twist map need the raw constants; use
    to_lie_algebra() when the classical axioms are actually required.
    """
    return skew_constants(adef.basis, adef.brackets)


def morphism_matrix(adef: AlgebraDef, mdef: MorphismDef) -> Matrix:
    if mdef.algebra != adef.name:
        raise ResolutionError("morphism belongs to a different algebra", mdef.name)
    columns = [tuple(mdef.images[b].get(x, sc(0)) for x in adef.basis) for b in adef.basis]
    return Matrix.from_columns(columns)


def rep_matrices(adef: AlgebraDef, rdef: RepDef):
    if rdef.algebra != adef.name:
        raise ResolutionError("rep belongs to a different algebra", rdef.name)
    return tuple(rdef.matrices[b] for b in adef.basis)


# ---------------------------------------------------------------------------
# renderer
# ---------------------------------------------------------------------------

def _top_level_sum(text: str) -> bool:
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > 0:
            return True
    return False


def _render_linexpr(coeffs: dict, basis) -> str:
    parts = []
    for name in basis:
        if name not in coeffs:
            continue
        c = coeffs[name]
        if c == ONE:
            term = name
        else:
            text = render_scalar(c)
            if _top_level_sum(text):
                text = f"({text})"
            term = f"{text}*{name}"
        parts.append(term)
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += f" - {term[1:]}"
        else:
            out += f" + {term}"
    return out


def _render_matrix(M: Matrix) -> str:
    rows = [
        ", ".join(render_scalar(M[i, j]) for j in range(M.cols))
        for i in range(M.rows)
    ]
    return "[" + "; ".join(rows) + "]"


def render(doc: Document) -> str:
    chunks = []
    algebras = {a.name: a for a in doc.items if isinstance(a, AlgebraDef)}
    for item in doc.items:
        if isinstance(item, AlgebraDef):
            lines = [f"algebra {item.name} {{", f"  basis {', '.join(item.basis)};"]
            order = {b: k for k, b in enumerate(item.basis)}
            for left, right in sorted(item.brackets, key=lambda p: (order[p[0]], order[p[1]])):
                expr = _render_linexpr(item.brackets[(left, right)], item.basis)
                lines.append(f"  [{left},{right}] = {expr};")
            lines.append("}")
            chunks.append("\n".join(lines))
        elif isinstance(item, MorphismDef):
            basis = algebras[item.algebra].basis
            lines = [f"morphism {item.name} on {item.algebra} {{"]
            for b in basis:
                lines.append(f"  {b} -> {_render_linexpr(item.images[b], basis)};")
            lines.append("}")
            chunks.append("\n".join(lines))
        elif isinstance(item, RepDef):
            basis = algebras[item.algebra].basis
            lines = [f"rep {item.name} of {item.algebra} dim {item.dim} {{"]
            for b in basis:
                lines.append(f"  {b} => {_render_matrix(item.matrices[b])};")
            if item.beta is not None:
                lines.append(f"  beta => {_render_matrix(item.beta)};")
            lines.append("}")
            chunks.append("\n".join(lines))
        else:
            parts = []
            for key in FAMILY_PARAM_ORDER:
                if key not in item.params:
                    continue
                value = item.params[key]
                if key == "window":
                    parts.append(f"window={value[0]}:{value[1]}")
                else:
                    parts.append(f"{key}={render_scalar(value)}")
            chunks.append(f"family {item.kind}({', '.join(parts)});")
    return "\n\n".join(chunks) + "\n"
