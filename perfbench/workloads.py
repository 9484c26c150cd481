"""Seeded workloads: each is a fixed list of slots, each slot a few variants.

A slot fixes what a command does and how big it is (family kind and
window length, module dimension, algebra size, ...).  Its variants differ
in the values that do not change the size: parameters, rescalings, basis
orders.  Variant ``v`` of slot ``s`` is built from its own fixed seed, so
the pool of all variants is the same on every machine, and
``manifest.json`` holds the stdout sha256 of every pool command.  A run's
``--seed`` picks one variant per slot and the order the slots run in, so
the same seed gives byte-identical inputs, and every run, whatever its
seed, runs the same mix of sizes.

Every command carries the exit code it must return, fixed here: by
construction for the valid inputs, by the table of documented intents for
the snapshot of the test corpus, and by the brute-force check of
``oracle`` for the broken variants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle
from oracle import Algebra, render_number

VARIANTS = 4
CORPUS_DIR = "perfbench/corpus"


@dataclass(frozen=True)
class Command:
    key: str                # slot and variant, e.g. "fw07v2"
    argv: tuple             # arguments after `homlie`
    expect: int             # the exit code known without running homlie
    files: dict = field(default_factory=dict)  # relative path -> text

    @property
    def text(self) -> str:
        return " ".join(self.argv)


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

_COEFFS = [Fraction(c) for c in ("1", "-1", "2", "-2", "1/2", "3", "-1/3", "3/2")]
_SMALL = [Fraction(c) for c in ("1", "-1", "2", "-2", "1/2", "3", "-1/3")]


def monomial(rng, degree: int) -> str:
    """c * L^(+-degree) with a small rational c."""
    k = degree * rng.choice((1, -1))
    c = rng.choice(_COEFFS)
    power = "L" if k == 1 else f"L^{k}"
    return power if c == 1 else f"{render_number(c)}*{power}"


def rational_function(rng) -> str:
    """A non-monomial quotient such as (L+a)/(L-b)."""
    a, b = rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
    form = rng.randrange(3)
    if form == 0:
        return f"(L+{a})/(L-{b})"
    if form == 1:  # b + 1 keeps (L+1)/(L+1) = 1 out
        return f"({a}*L+1)/(L+{b + 1})"
    return f"(L-{a})/({b}*L+1)"


def constant(rng) -> str:
    return render_number(rng.choice(_SMALL))


def _matrix_text(M) -> str:
    return "[" + "; ".join(", ".join(render_number(x) for x in row) for row in M) + "]"


# ---------------------------------------------------------------------------
# family-windows: the sl2 family tables and the parameter solver
# ---------------------------------------------------------------------------

def _family(kind, size, scalar):
    """sl2 family of one kind over a window of `size` indices, verified.
    `scalar(rng)` draws lambda and b0."""

    def make(rng):
        lam, b0 = scalar(rng), scalar(rng) if rng.random() < 0.5 else constant(rng)
        argv = ["sl2", "family", kind, "--lambda", lam, "--b0", b0]
        if kind == "finite":
            argv += ["--n", str(size)]
        elif kind == "lowest":
            argv += ["--tau", str(rng.randrange(0, 6)), "--window", f"0:{size}"]
        elif kind == "highest":
            argv += ["--tau", str(-rng.randrange(1, 6)), "--window", f"0:{size}"]
        else:
            tau = rng.randrange(-3, 4)
            mu = rng.choice([m for m in range(-4, 9) if tau * tau != m + 1])
            half = size // 2
            argv += ["--tau", str(tau), "--mu", str(mu),
                     "--window", f"-{half}:{size - half}"]
        return argv + ["--verify"], 0, None

    return make


def _solve(size, scalar):
    """The diagonal-data recurrence over 0:size; eta0 and gamma0 are
    nonzero, so every equation and the split hold by construction."""

    def make(rng):
        argv = ["sl2", "solve",
                "--eta0", scalar(rng),
                "--nu0", scalar(rng) if rng.random() < 0.5 else constant(rng),
                "--mu1", constant(rng),
                "--gamma0", scalar(rng) if rng.random() < 0.5 else constant(rng),
                "--window", f"0:{size}"]
        return argv, 0, None

    return make


def _mono(rng):
    return monomial(rng, 1)


def _mono2(rng):
    return monomial(rng, 2)


def family_windows_slots():
    # Windows long enough that scalar work, not interpreter start, sets
    # most command times, so the median command moves with scalar speed.
    kinds = ("finite", "lowest", "highest", "intermediate")
    slots = []
    for size in (24, 40, 56, 72):
        slots += [_family(kind, size, _mono) for kind in kinds]
    # More commands near the 75th percentile, so that verdict_tail_s sits
    # inside a cluster of similar commands rather than at a gap between two.
    slots += [_family(kind, 72, _mono) for kind in kinds[:3]]
    slots.append(_family("lowest", 16, rational_function))
    slots += [_family(kind, 24, _mono2) for kind in kinds]
    slots.append(_family("lowest", 200, _mono))
    for size in (8, 12, 16):
        slots += [_family(kind, size, rational_function) for kind in kinds]
    for size in (25, 50, 75, 100):
        slots.append(_solve(size, _mono))
    for size in (12, 20, 28):
        slots.append(_solve(size, rational_function))
    return slots


# ---------------------------------------------------------------------------
# module-solves: intertwiners, weights, tensors, decompositions, Killing forms
# ---------------------------------------------------------------------------

_SL2_HEADER = """algebra sl2 {
  basis e, f, h;
  [h, e] = 2*e;
  [h, f] = -2*f;
  [e, f] = h;
}
"""


def _diagonal_twist(rng) -> str:
    lam = monomial(rng, 1)
    return f"morphism alpha on sl2 {{ e -> ({lam})*e; f -> (1/({lam}))*f; h -> h; }}\n"


def _standard_module(rng, name, n) -> str:
    """The (n+1)-dimensional sl2 module in a seeded rescaled and
    permuted basis; still a module, by conjugation."""
    d = n + 1
    e, f, h = ([oracle.zeros(d) for _ in range(d)] for _ in range(3))
    for i in range(d):
        if i >= 1:
            e[i - 1][i] = Fraction(n - i + 1)
        if i + 1 < d:
            f[i + 1][i] = Fraction(i + 1)
        h[i][i] = Fraction(n - 2 * i)
    perm = list(range(d))
    rng.shuffle(perm)
    S = [oracle.zeros(d) for _ in range(d)]
    for j, i in enumerate(perm):
        S[i][j] = rng.choice(_SMALL)
    e, f, h = (oracle.conjugate(M, S) for M in (e, f, h))
    ef, fe = oracle.matmul(e, f), oracle.matmul(f, e)
    if [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(ef, fe)] != h:
        raise AssertionError("a change of basis keeps [e, f] = h")
    return (f"rep {name} of sl2 dim {d} {{\n"
            f"  e => {_matrix_text(e)};\n  f => {_matrix_text(f)};\n"
            f"  h => {_matrix_text(h)};\n}}\n")


def _intertwiner(dim):
    def make(rng):
        text = _SL2_HEADER + _diagonal_twist(rng) + _standard_module(rng, "v", dim - 1)
        return ["rep", "intertwiner", "{file}", "--rep", "v", "--morphism", "alpha"], 0, text
    return make


def _weights(dim):
    def make(rng):
        text = _SL2_HEADER + _standard_module(rng, "v", dim - 1)
        return ["weights", "{file}", "--rep", "v", "--cartan", "h"], 0, text
    return make


def _tensor(stage_dims):
    def make(rng):
        text = _SL2_HEADER + _diagonal_twist(rng)
        for d in sorted(set(stage_dims)):
            text += _standard_module(rng, f"v{d}", d - 1)
        reps = ",".join(f"v{d}" for d in stage_dims)
        return ["rep", "tensor", "{file}", "--reps", reps,
                "--n", str(len(stage_dims))], 0, text
    return make


def _sl2_sum_text(rng, copies) -> str:
    """Direct sum of sl2 copies, each in a rescaled basis e'=a e, f'=b f,
    h'=c h, with the whole basis listed in a seeded order."""
    names, lines = [], []
    for k in range(1, copies + 1):
        a, b, c = (rng.choice(_SMALL) for _ in range(3))
        e, f, h = f"e{k}", f"f{k}", f"h{k}"
        names += [e, f, h]
        lines += [f"[{h},{e}] = {render_number(2 * c)}*{e};",
                  f"[{h},{f}] = {render_number(-2 * c)}*{f};",
                  f"[{e},{f}] = {render_number(a * b / c)}*{h};"]
    rng.shuffle(names)
    return ("algebra g {\n  basis " + ", ".join(names) + ";\n  "
            + "\n  ".join(lines) + "\n}\n")


def _decompose(copies):
    def make(rng):
        return ["decompose", "{file}", "--lie", "g"], 0, _sl2_sum_text(rng, copies)
    return make


def _gl_text(rng, n) -> str:
    """gl(n) in the basis s_ij E_ij: [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    idx = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    s = {ij: rng.choice(_SMALL) for ij in idx}
    name = {ij: f"E{ij[0]}{ij[1]}" for ij in idx}
    lines = []
    for p, (i, j) in enumerate(idx):
        for (k, l) in idx[p + 1:]:
            terms = {}
            if j == k:
                terms[(i, l)] = terms.get((i, l), 0) + s[(i, j)] * s[(k, l)] / s[(i, l)]
            if l == i:
                terms[(k, j)] = terms.get((k, j), 0) - s[(i, j)] * s[(k, l)] / s[(k, j)]
            v = [terms.get(ij, Fraction(0)) for ij in idx]
            if any(v):
                expr = oracle.render_combination(v, [name[ij] for ij in idx])
                lines.append(f"[{name[(i, j)]},{name[(k, l)]}] = {expr};")
    order = [name[ij] for ij in idx]
    rng.shuffle(order)
    return ("algebra gl {\n  basis " + ", ".join(order) + ";\n  "
            + "\n  ".join(lines) + "\n}\n")


def _killing(n):
    def make(rng):
        return ["killing", "{file}", "--lie", "gl"], 0, _gl_text(rng, n)
    return make


def module_solves_slots():
    # Sizes where elimination, not interpreter start, sets most command times.
    slots = [_intertwiner(d) for d in range(6, 16)]
    slots += [_intertwiner(d) for d in range(8, 14)]
    slots += [_intertwiner(d) for d in range(10, 13)]
    slots += [_weights(d) for d in range(8, 12)]
    slots += [_tensor(s) for s in ((2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 3, 2),
                                   (3, 3, 2), (3, 3, 3))]
    slots += [_decompose(k) for k in (3, 4, 5, 6, 3, 4)]
    slots += [_killing(n) for n in (3, 4, 5, 4)]
    return slots


# ---------------------------------------------------------------------------
# cli-corpus: many small documents, one command each
# ---------------------------------------------------------------------------

# The test corpus, snapshotted under perfbench/corpus, with the exit code
# each file's documented intent fixes (0 pass, 1 a check fails, 2 the
# question is malformed).
CORPUS_COMMANDS = [
    (["check", "abelian2.hla"], 0),
    (["check", "bad_jacobi.hla"], 1),       # sign flip breaks Jacobi
    (["check", "bad_reference.hla"], 2),    # morphism on an undeclared algebra
    (["check", "bad_syntax.hla"], 2),       # missing semicolon
    (["check", "families.hla"], 0),         # no algebra, so no check fails
    (["check", "frac.hla"], 0),
    (["check", "gl2.hla"], 0),
    (["check", "heisenberg.hla"], 0),
    (["check", "mixed.hla"], 0),
    (["check", "rep_beta.hla"], 1),         # twisted table, not classical
    (["check", "sl2.hla"], 0),
    (["check", "sl2_sum.hla"], 0),
    (["check", "sl2_twisted.hla"], 1),      # twisted table, not classical
    (["check", "solvable2.hla"], 0),
    (["check", "sl2_twisted.hla", "--hom", "sl2t"], 0),
    (["check", "rep_beta.hla", "--hom", "sl2t"], 0),
    (["check", "abelian2.hla", "--hom", "flat"], 0),
    (["check", "frac.hla", "--hom", "warp"], 0),
    (["check", "solvable2.hla", "--hom", "aff1"], 0),
    (["twist", "sl2.hla", "--morphism", "alpha", "--induced"], 0),
    (["twist", "sl2_sum.hla", "--morphism", "swap", "--induced"], 0),
    (["twist", "abelian2.hla", "--morphism", "shear", "--induced"], 0),
    (["twist", "solvable2.hla", "--morphism", "squeeze", "--induced"], 0),
    (["twist", "frac.hla", "--morphism", "gauge", "--induced"], 0),
] + [
    (["cyclic", f"{doc}.hla", "--lie", lie, "--sigma", sigma, "--n", str(n)], 0)
    for doc, lie, sigma in (("sl2", "sl2", "alpha"), ("sl2_sum", "sl2sum", "swap"),
                            ("abelian2", "flat", "shear"), ("solvable2", "aff1", "squeeze"))
    for n in (2, 3)
]


def _sl2_piece():
    return Algebra.from_brackets(
        ["e", "f", "h"],
        {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}})


def _sl2_auto(rng):
    a = rng.choice(_SMALL)
    M = [[a, 0, 0], [0, 1 / a, 0], [0, 0, Fraction(1)]]
    if rng.random() < 0.5:  # Weyl flip e <-> f, h -> -h
        M = oracle.matmul(M, [[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    return [[Fraction(x) for x in row] for row in M]


def _heis_piece():
    return Algebra.from_brackets(["x", "y", "z"], {("x", "y"): {"z": 1}})


def _heis_auto(rng):
    p = q = s = t = 0
    while p * t - q * s == 0:
        p, q, s, t = (rng.randint(-2, 2) for _ in range(4))
    r, u = rng.randint(-2, 2), rng.randint(-2, 2)
    return [[Fraction(x) for x in row]
            for row in ([p, s, 0], [q, t, 0], [r, u, p * t - q * s])]


def _solv_piece():
    return Algebra.from_brackets(["a", "b"], {("a", "b"): {"b": 1}})


def _solv_auto(rng):
    t, s = rng.randint(-2, 2), rng.choice(_SMALL)
    return [[Fraction(1), Fraction(0)], [Fraction(t), s]]


def _abelian_piece(m):
    return Algebra.from_brackets([f"a{i}" for i in range(m)], {})


def _abelian_auto(rng, m):
    while True:
        M = [[Fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(m)]
        try:
            oracle.inverse(M)
            return M
        except ValueError:
            continue


def _piece(rng, kind):
    if kind == "sl2":
        return _sl2_piece(), _sl2_auto(rng)
    if kind == "heis":
        return _heis_piece(), _heis_auto(rng)
    if kind == "solv2":
        return _solv_piece(), _solv_auto(rng)
    m = int(kind[2:])  # "ab<m>"
    return _abelian_piece(m), _abelian_auto(rng, m)


_SUMS = {
    2: (("ab2",), ("solv2",)),
    3: (("sl2",), ("heis",), ("solv2", "ab1"), ("ab3",)),
    4: (("sl2", "ab1"), ("heis", "ab1"), ("solv2", "solv2"), ("solv2", "ab2")),
    5: (("sl2", "solv2"), ("heis", "solv2"), ("sl2", "ab2"), ("heis", "ab2")),
    6: (("sl2", "sl2"), ("sl2", "heis"), ("heis", "heis"), ("sl2", "ab1", "solv2")),
}


def _random_basis_change(rng, n):
    """Columns of a product of a few shears, a rescaling and a permutation."""
    P = oracle.identity(n)
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.choice((1, -1, 2, -2)))
        for r in range(n):
            P[r][i] += c * P[r][j]
    for i in range(n):
        s = rng.choice(_SMALL)
        for r in range(n):
            P[r][i] *= s
    perm = list(range(n))
    rng.shuffle(perm)
    return [[P[r][perm[i]] for i in range(n)] for r in range(n)]


def _small_algebra(rng, dim):
    """A seeded direct sum of standard pieces in a rational basis, with an
    automorphism written in that basis."""
    kinds = rng.choice(_SUMS[dim])
    parts = [_piece(rng, kind) for kind in kinds]
    A = oracle.direct_sum([p for p, _ in parts])
    alpha = oracle.block_diagonal([a for _, a in parts])
    P = _random_basis_change(rng, dim)
    prefix = rng.choice(("u", "w", "p", "q", "x", "y"))
    B = oracle.change_basis(A, P, [f"{prefix}{i + 1}" for i in range(dim)])
    beta = oracle.conjugate(alpha, P)
    if not (oracle.is_lie(B) and oracle.is_automorphism(B, beta)):
        raise AssertionError("construction is not a Lie algebra with an automorphism")
    return B, beta


def _doc(B, alpha, twisted=False):
    body = oracle.yau_twisted(B, alpha) if twisted else B
    return oracle.render_algebra("g", body) + oracle.render_morphism("m", "g", B, alpha)


def _cc_check(dim):
    def make(rng):
        B, alpha = _small_algebra(rng, dim)
        return ["check", "{file}"], 0, _doc(B, alpha)
    return make


def _cc_hom(dim):
    def make(rng):
        B, alpha = _small_algebra(rng, dim)
        if not oracle.is_hom_lie(oracle.yau_twisted(B, alpha), alpha):
            raise AssertionError("Yau twist of an automorphism is Hom-Lie")
        return ["check", "{file}", "--hom", "g"], 0, _doc(B, alpha, twisted=True)
    return make


def _cc_twist(dim):
    def make(rng):
        B, alpha = _small_algebra(rng, dim)
        return ["twist", "{file}", "--morphism", "m", "--induced"], 0, _doc(B, alpha)
    return make


def _cc_cyclic(dim, n):
    def make(rng):
        B, alpha = _small_algebra(rng, dim)
        return (["cyclic", "{file}", "--lie", "g", "--sigma", "m", "--n", str(n)],
                0, _doc(B, alpha))
    return make


def _cc_broken_jacobi(dim):
    """One structure constant moved; kept only when the brute-force check
    finds the Jacobi identity broken, so `check` must exit 1."""
    def make(rng):
        while True:
            B, alpha = _small_algebra(rng, dim)
            i, j = sorted(rng.sample(range(dim), 2))
            k = rng.randrange(dim)
            delta = rng.choice((Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2)))
            B.c[i][j][k] += delta
            B.c[j][i][k] -= delta
            if oracle.first_jacobi_failure(B) is not None:
                return ["check", "{file}"], 1, _doc(B, alpha)
    return make


def _cc_syntax_error(dim):
    """A dropped semicolon: the document no longer parses (exit 2)."""
    def make(rng):
        B, alpha = _small_algebra(rng, dim)
        lines = _doc(B, alpha).split("\n")
        ends = [i for i, line in enumerate(lines) if line.endswith(";")]
        i = rng.choice(ends)
        lines[i] = lines[i][:-1]
        return ["check", "{file}"], 2, "\n".join(lines)
    return make


def _cc_unknown_name(dim):
    """A bracket or image naming an undeclared basis element (exit 2)."""
    def make(rng):
        B, alpha = _small_algebra(rng, dim)
        lines = _doc(B, alpha).split("\n")
        # bracket lines and morphism images; each right side names an element
        targets = [i for i, line in enumerate(lines) if "] = " in line or " -> " in line]
        i = rng.choice(targets)
        sep = " = " if "] = " in lines[i] else " -> "
        lhs, _, rhs = lines[i].rpartition(sep)
        name = next(n for n in B.names if n in rhs)
        lines[i] = lhs + sep + rhs.replace(name, "zz9", 1)
        return ["check", "{file}"], 2, "\n".join(lines)
    return make


def _corpus(argv, code):
    def make(rng):
        return [argv[0], f"{CORPUS_DIR}/{argv[1]}", *argv[2:]], code, None
    return make


def cli_corpus_slots():
    slots = [_corpus(argv, code) for argv, code in CORPUS_COMMANDS]
    for dim in (3, 4, 5, 6):
        slots += [_cc_check(dim)] * 5
        slots += [_cc_hom(dim)] * 5
        slots += [_cc_twist(dim)] * 5
    for dim in (2, 3):
        for n in (2, 3):
            slots += [_cc_cyclic(dim, n)] * 5
    for dim in (3, 4, 5, 6):
        slots += [_cc_broken_jacobi(dim)] * 5
    for dim in (3, 4, 5):
        slots += [_cc_syntax_error(dim)] * 3
        slots += [_cc_unknown_name(dim)] * 3
    return slots


SLOTS = {
    "family-windows": family_windows_slots,
    "module-solves": module_solves_slots,
    "cli-corpus": cli_corpus_slots,
}
_TAGS = {"family-windows": "fw", "module-solves": "ms", "cli-corpus": "cc"}


def build(workload: str, slot: int, variant: int, make) -> Command:
    """Variant `variant` of one slot, from a seed fixed by its position."""
    rng = random.Random(f"{workload}/{slot}/{variant}")
    argv, expect, text = make(rng)
    key = f"{_TAGS[workload]}{slot:03d}v{variant}"
    files = {}
    if text is not None:
        path = f".perfbench/{workload}/{key}.hla"
        files[path] = text
        argv = [path if a == "{file}" else a for a in argv]
    return Command(key, tuple(argv), expect, files)


def pool(workload: str):
    """Every command any seed can draw, in slot-major order."""
    makes = SLOTS[workload]()
    return [build(workload, s, v, make)
            for s, make in enumerate(makes) for v in range(VARIANTS)]


def select(workload: str, seed: int):
    """One variant per slot, drawn from the seed, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    makes = SLOTS[workload]()
    commands = [build(workload, s, rng.randrange(VARIANTS), make)
                for s, make in enumerate(makes)]
    rng.shuffle(commands)
    return commands


def write_inputs(root: Path, commands) -> None:
    for command in commands:
        for rel, text in command.files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
