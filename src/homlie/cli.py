"""Command-line front end: definition files in, JSON verification reports out.

Every invocation prints one JSON report to standard output and a one-line
human summary to standard error.  The report shape is fixed:

    {
      "tool_version": ...,
      "command": ...,
      "inputs":  {file path, content digest, seed when given},
      "checks":  [{"name", "status": pass|fail|probe-pass, witness?, residual?}],
      "outputs": command-specific data
    }

Output is deterministic for fixed inputs and seed: keys are sorted, check
order is fixed per command, and every scalar is rendered canonically.
Exit status 0 means every check passed, 1 means at least one check failed,
and 2 means the invocation itself was bad (usage, unreadable or unparsable
input, out-of-domain parameters); for status 2 a structured error object
is written to standard error instead of a report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .algebra import (
    HomLieAlgebraData,
    cyclic_sum_construction,
    decompose_simple_ideals,
    induced_lie_algebra,
    killing_form,
    verify_hom_lie,
    verify_lie_structure,
    yau_twist,
)
from .dsl import (
    AlgebraDef,
    FAMILY_KIND_NAMES,
    ParseError,
    ResolutionError,
    _render_linexpr,
    bracket_constants,
    morphism_matrix,
    parse as parse_document,
    rep_matrices,
    to_lie_algebra,
)
from .linalg import Matrix, ShapeMismatch, Subspace, det, unvec
from .rep import (
    HomRep,
    LieRep,
    pick_invertible,
    solve_intertwiner,
    tensor_hom_rep,
    verify_hom_rep,
)
from .report import Refuted, VerificationReport, render
from .scalar import RenderLimit, Scalar, ScalarSyntaxError, parse_scalar, sc
from .sl2 import (
    InvalidParams,
    Sl2FamilyParams,
    build_family,
    solve_general_parameters,
    verify_family_window,
)
from .weights import CartanData, classify_weight_module, weight_decomposition


class UsageError(Exception):
    pass


# Invocation problems: the command never got to a well-posed question.
_USAGE_ERRORS = (
    UsageError,
    ParseError,
    ResolutionError,
    ScalarSyntaxError,
    RenderLimit,
    InvalidParams,
    ShapeMismatch,
    OSError,
    UnicodeDecodeError,
)


def _check_row(check):
    row = {"name": check.name, "status": check.status}
    if check.witness is not None:
        row["witness"] = check.witness
    if check.residual is not None:
        row["residual"] = check.residual
    return row


def _rendered_brackets(algebra):
    """Nonzero brackets of basis pairs i < j as canonical text."""
    names = algebra.basis_names
    c = algebra.structure_constants
    out = {}
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            coeffs = {names[k]: v for k, v in enumerate(c[i][j]) if not v.is_zero()}
            if coeffs:
                out[f"[{names[i]},{names[j]}]"] = _render_linexpr(coeffs, names)
    return out


def _unique_morphism(doc, adef) -> Matrix:
    candidates = doc.morphisms_on(adef.name)
    if len(candidates) != 1:
        raise ResolutionError(
            f"need exactly one morphism on this algebra, found {len(candidates)}",
            adef.name,
        )
    return morphism_matrix(adef, candidates[0])


def _parse_window(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"window must be LO:HI, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"window bounds must be integers, got {text!r}") from None


def _scalar_flag(text: str, flag: str) -> Scalar:
    try:
        return parse_scalar(text)
    except ScalarSyntaxError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _hom_algebra_from(doc, adef) -> HomLieAlgebraData:
    alpha = _unique_morphism(doc, adef)
    return HomLieAlgebraData(
        len(adef.basis), adef.basis, bracket_constants(adef), alpha
    )


# ---------------------------------------------------------------------------
# command handlers: (args, Document|None) -> (VerificationReport, outputs);
# outputs may hold scalars, matrices and subspaces, rendered once by main
# ---------------------------------------------------------------------------

def _cmd_check(args, doc):
    targets = []
    if args.lie:
        targets.append(("lie", doc.algebra(args.lie)))
    if args.hom:
        targets.append(("hom", doc.algebra(args.hom)))
    if not targets:
        targets = [
            ("lie", item) for item in doc.items if isinstance(item, AlgebraDef)
        ]
    report = VerificationReport()
    checked = []
    for mode, adef in targets:
        prefix = f"{mode}.{adef.name}." if len(targets) > 1 else ""
        c = bracket_constants(adef)
        if mode == "lie":
            sub = verify_lie_structure(len(adef.basis), c, adef.basis)
        else:
            sub = verify_hom_lie(_hom_algebra_from(doc, adef))
        report.merge(sub, prefix)
        checked.append(
            {"algebra": adef.name, "mode": mode, "dim": len(adef.basis),
             "basis": list(adef.basis)}
        )
    return report, {"checked": checked}


def _cmd_twist(args, doc):
    mdef = doc.morphism(args.morphism)
    adef = doc.algebra(mdef.algebra)
    A = to_lie_algebra(adef)
    alpha = morphism_matrix(adef, mdef)
    H = yau_twist(A, alpha)
    report = VerificationReport()
    report.add("twist_is_morphism", True, witness={"morphism": mdef.name})
    report.merge(verify_hom_lie(H))
    outputs = {
        "algebra": adef.name,
        "twist": alpha,
        "twisted_brackets": _rendered_brackets(H),
    }
    if args.induced:
        B = induced_lie_algebra(H)
        report.add(
            "induced_round_trip", B.c == A.c, witness={"algebra": adef.name}
        )
        outputs["induced_brackets"] = _rendered_brackets(B)
    return report, outputs


def _cmd_killing(args, doc):
    A = to_lie_algebra(doc.algebra(args.lie))
    K = killing_form(A)
    report = VerificationReport()
    report.add("killing_symmetric", True)
    report.add("killing_invariant", True)
    d = det(K.gram)
    outputs = {
        "algebra": args.lie,
        "basis": list(A.basis_names),
        "gram": K.gram,
        "det": d,
        "nondegenerate": not d.is_zero(),
    }
    return report, outputs


def _cmd_decompose(args, doc):
    A = to_lie_algebra(doc.algebra(args.lie))
    seed = args.seed if args.seed is not None else 0
    pieces = decompose_simple_ideals(A, trials=args.trials, rng_seed=seed)
    report = VerificationReport()
    report.add("semisimple", True)
    report.add("ideal_decomposition", True, witness={"pieces": len(pieces)})
    report.add(
        "pieces_simple", True, witness={"trials": args.trials}, probe=True
    )
    outputs = {
        "algebra": args.lie,
        "seed": seed,
        "ideals": [{"dim": p.dim, "basis": p} for p in pieces],
    }
    return report, outputs


def _cmd_cyclic(args, doc):
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    adef = doc.algebra(args.lie)
    A = to_lie_algebra(adef)
    sdef = doc.morphism(args.sigma)
    if sdef.algebra != adef.name:
        raise ResolutionError(
            "morphism is not on the requested algebra", sdef.name
        )
    sigma = morphism_matrix(adef, sdef)
    construction = cyclic_sum_construction(A, sigma, args.n)
    H = yau_twist(construction.algebra, construction.alpha)
    report = VerificationReport()
    report.add("sigma_automorphism", True, witness={"morphism": sdef.name})
    report.merge(verify_hom_lie(H))
    outputs = {
        "dim": construction.algebra.dim,
        "basis": list(construction.algebra.basis_names),
        "alpha": construction.alpha,
        "twisted_brackets": _rendered_brackets(H),
    }
    return report, outputs


def _module_from(doc, rdef, adef):
    """The classical module, or the Hom-module when the rep has a beta row."""
    rho = rep_matrices(adef, rdef)
    if rdef.beta is None:
        return LieRep(to_lie_algebra(adef), rdef.dim, rho)  # may raise Refuted
    return HomRep(_hom_algebra_from(doc, adef), rdef.dim, rho, rdef.beta)


def _cmd_rep_verify(args, doc):
    rdef = doc.rep(args.rep)
    adef = doc.algebra(rdef.algebra)
    R = _module_from(doc, rdef, adef)
    report = VerificationReport()
    if rdef.beta is None:
        report.add("bracket_action", True, witness={"rep": rdef.name})
    else:
        report.merge(verify_hom_rep(R))
    outputs = {"rep": rdef.name, "algebra": adef.name, "dim_V": rdef.dim,
               "kind": "classical" if rdef.beta is None else "hom"}
    return report, outputs


def _cmd_rep_intertwiner(args, doc):
    rdef = doc.rep(args.rep)
    adef = doc.algebra(rdef.algebra)
    mdef = doc.morphism(args.morphism)
    if mdef.algebra != adef.name:
        raise ResolutionError(
            "morphism is not on the module's algebra", mdef.name
        )
    A = to_lie_algebra(adef)
    R = LieRep(A, rdef.dim, rep_matrices(adef, rdef))
    space = solve_intertwiner(R, morphism_matrix(adef, mdef))
    report = VerificationReport()
    report.add("intertwiner_space", True, witness={"dimension": space.dim})
    outputs = {
        "rep": rdef.name,
        "morphism": mdef.name,
        "dimension": space.dim,
        "basis_matrices": [unvec(row, rdef.dim, rdef.dim) for row in space.basis],
    }
    try:
        chosen = pick_invertible(space, rdef.dim)
    except Refuted as exc:
        report.merge(exc.report)
    else:
        report.add("invertible_intertwiner", True)
        outputs["invertible"] = chosen
    return report, outputs


def _cmd_rep_tensor(args, doc):
    names = [part for part in args.reps.split(",") if part]
    if len(names) != args.n:
        raise UsageError(
            f"--reps lists {len(names)} modules but --n is {args.n}"
        )
    rdefs = [doc.rep(name) for name in names]
    algebra_names = {rdef.algebra for rdef in rdefs}
    if len(algebra_names) != 1:
        raise UsageError("tensor stages must share one algebra")
    adef = doc.algebra(rdefs[0].algebra)
    for rdef in rdefs:
        if rdef.beta is not None:
            raise UsageError(
                f"stage {rdef.name!r} must be a classical module (no beta row)"
            )
    A = to_lie_algebra(adef)
    candidates = doc.morphisms_on(adef.name)
    if len(candidates) > 1:
        raise ResolutionError(
            f"need at most one morphism on this algebra, found {len(candidates)}",
            adef.name,
        )
    sigma = (
        morphism_matrix(adef, candidates[0])
        if candidates
        else Matrix.identity(A.dim)
    )
    construction = cyclic_sum_construction(A, sigma, args.n)
    reps = [LieRep(A, rdef.dim, rep_matrices(adef, rdef)) for rdef in rdefs]
    betas = [
        pick_invertible(solve_intertwiner(rep, sigma), rep.dim_V)
        for rep in reps
    ]
    R = tensor_hom_rep(reps, betas, construction)
    report = VerificationReport()
    report.add(
        "stage_maps",
        True,
        witness={"stage_dims": [rep.dim_V for rep in reps]},
    )
    report.merge(verify_hom_rep(R))
    outputs = {
        "reps": names,
        "algebra_dim": construction.algebra.dim,
        "dim_V": R.dim_V,
        "stage_maps": betas,
        "beta": R.beta,
    }
    return report, outputs


def _cmd_sl2_family(args, doc):
    kind_name = FAMILY_KIND_NAMES[args.kind]
    params = Sl2FamilyParams(
        kind_name,
        _scalar_flag(args.b0, "--b0"),
        _scalar_flag(args.lam, "--lambda"),
        n=args.n,
        tau=args.tau,
        mu=args.mu,
    )
    window = _parse_window(args.window) if args.window else None
    M = build_family(params, window)
    lo, hi = M.window
    report = VerificationReport()
    report.add(
        "family_constructed",
        True,
        witness={"kind": kind_name, "window": [lo, hi]},
    )
    if args.verify:
        report.merge(verify_family_window(M))
    table = [
        {
            "index": i,
            "e": M.actions["e"][i],
            "f": M.actions["f"][i],
            "h": M.actions["h"][i],
            "beta": M.beta_diag[i],
        }
        for i in range(lo, hi + 1)
    ]
    outputs = {
        "kind": kind_name,
        "window": [lo, hi],
        "algebra_twist": M.twist_lambda,
        "table": table,
    }
    return report, outputs


def _sequence(values: dict):
    return [{"index": i, "value": values[i]} for i in sorted(values)]


def _cmd_sl2_solve(args, doc):
    window = _parse_window(args.window)
    ansatz = solve_general_parameters(
        _scalar_flag(args.eta0, "--eta0"),
        _scalar_flag(args.nu0, "--nu0"),
        _scalar_flag(args.mu1, "--mu1"),
        _scalar_flag(args.gamma0, "--gamma0"),
        window,
    )
    report = VerificationReport()
    report.merge(ansatz.report)
    outputs = {
        "window": [ansatz.window[0], ansatz.window[1]],
        "lambda": ansatz.lam,
        "eta": _sequence(ansatz.eta),
        "nu": _sequence(ansatz.nu),
        "products": _sequence(ansatz.products),
        "gamma": _sequence(ansatz.gamma),
        "mu": _sequence(ansatz.mu),
    }
    return report, outputs


def _cmd_weights(args, doc):
    rdef = doc.rep(args.rep)
    adef = doc.algebra(rdef.algebra)
    R = _module_from(doc, rdef, adef)
    algebra = R.algebra
    index = {name: k for k, name in enumerate(adef.basis)}
    vectors = []
    for name in args.cartan.split(","):
        if name not in index:
            raise ResolutionError("not a basis element", name)
        vectors.append(
            tuple(sc(1 if k == index[name] else 0) for k in range(len(adef.basis)))
        )
    cartan = CartanData(algebra, Subspace(len(adef.basis), vectors))
    candidates = None
    if args.candidates is not None:
        candidates = [
            tuple(_scalar_flag(part, "--candidates") for part in item.split(","))
            for item in args.candidates.split(";")
            if item
        ]
    W = weight_decomposition(R, cartan, candidates)
    report = VerificationReport()
    report.add("cartan_commutes", True, witness={"elements": args.cartan.split(",")})
    report.add(
        "weight_space_decomposition",
        True,
        witness={
            "spaces": len(W.weights),
            "total_dim": sum(space.dim for _, space in W.weights),
        },
    )
    outputs = W.as_json()
    outputs["rep"] = rdef.name
    if rdef.beta is not None:
        outputs["classification"] = classify_weight_module(R, W)
    return report, outputs


# ---------------------------------------------------------------------------
# argument parsing and the report envelope
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit JSON (the default and only machine output)")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized probes")

    parser = _Parser(prog="homlie",
                     description="exact verification of twisted bracket structures")
    parser.add_argument("--version", action="version",
                        version=f"homlie {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="verify bracket axioms of algebras in a file")
    p.add_argument("file")
    p.add_argument("--hom", default=None,
                   help="algebra to verify with its (unique) twist morphism")
    p.add_argument("--lie", default=None,
                   help="algebra to verify against the classical axioms")
    p.set_defaults(handler=_cmd_check, command_name="check")

    p = sub.add_parser("twist", parents=[common],
                       help="compose an algebra's bracket with a self-morphism")
    p.add_argument("file")
    p.add_argument("--morphism", required=True)
    p.add_argument("--induced", action="store_true",
                   help="also undo the twist and check the round trip")
    p.set_defaults(handler=_cmd_twist, command_name="twist")

    p = sub.add_parser("killing", parents=[common],
                       help="trace form of a Lie algebra")
    p.add_argument("file")
    p.add_argument("--lie", required=True)
    p.set_defaults(handler=_cmd_killing, command_name="killing")

    p = sub.add_parser("decompose", parents=[common],
                       help="split a semisimple algebra into simple ideals")
    p.add_argument("file")
    p.add_argument("--lie", required=True)
    p.add_argument("--trials", type=int, default=8)
    p.set_defaults(handler=_cmd_decompose, command_name="decompose")

    p = sub.add_parser("cyclic", parents=[common],
                       help="cyclic sum of copies twisted by an automorphism")
    p.add_argument("file")
    p.add_argument("--lie", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_cyclic, command_name="cyclic")

    rep = sub.add_parser("rep", help="module operations")
    rep_sub = rep.add_subparsers(dest="rep_command", required=True)

    p = rep_sub.add_parser("verify", parents=[common],
                           help="verify the module conditions")
    p.add_argument("file")
    p.add_argument("--rep", required=True)
    p.set_defaults(handler=_cmd_rep_verify, command_name="rep verify")

    p = rep_sub.add_parser("intertwiner", parents=[common],
                           help="solve for compatibility maps of a module")
    p.add_argument("file")
    p.add_argument("--rep", required=True)
    p.add_argument("--morphism", required=True)
    p.set_defaults(handler=_cmd_rep_intertwiner, command_name="rep intertwiner")

    p = rep_sub.add_parser("tensor", parents=[common],
                           help="tensor modules over a cyclic sum")
    p.add_argument("file")
    p.add_argument("--reps", required=True,
                   help="comma-separated module names, one per copy")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_rep_tensor, command_name="rep tensor")

    sl2 = sub.add_parser("sl2", help="classified module families")
    sl2_sub = sl2.add_subparsers(dest="sl2_command", required=True)

    p = sl2_sub.add_parser("family", parents=[common],
                           help="build (and verify) a classified family window")
    p.add_argument("kind", choices=sorted(FAMILY_KIND_NAMES))
    p.add_argument("--lambda", dest="lam", required=True,
                   help="twist parameter (exact scalar text)")
    p.add_argument("--b0", required=True,
                   help="compatibility normalization (exact scalar text)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--tau", type=int, default=None)
    p.add_argument("--mu", type=int, default=None)
    p.add_argument("--window", default=None, help="LO:HI")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(handler=_cmd_sl2_family, command_name="sl2 family")

    p = sl2_sub.add_parser("solve", parents=[common],
                           help="solve the diagonal-data recurrence")
    p.add_argument("--eta0", required=True)
    p.add_argument("--nu0", required=True)
    p.add_argument("--mu1", required=True)
    p.add_argument("--gamma0", required=True)
    p.add_argument("--window", required=True, help="LO:HI")
    p.set_defaults(handler=_cmd_sl2_solve, command_name="sl2 solve")

    p = sub.add_parser("weights", parents=[common],
                       help="weight-space decomposition of a module")
    p.add_argument("file")
    p.add_argument("--rep", required=True)
    p.add_argument("--cartan", required=True,
                   help="comma-separated commuting basis elements")
    p.add_argument("--candidates", default=None,
                   help="semicolon-separated weight values (comma-joined per element)")
    p.set_defaults(handler=_cmd_weights, command_name="weights")

    return parser


def _print_error(exc) -> None:
    info = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ParseError):
        info["line"] = exc.line
        info["column"] = exc.column
        info["expected"] = list(exc.expected)
        info["found"] = exc.found
    elif isinstance(exc, ResolutionError):
        info["identifier"] = exc.identifier
        if exc.pos:
            info["line"], info["column"] = exc.pos
    elif isinstance(exc, ScalarSyntaxError) and getattr(exc, "pos", None):
        info["line"], info["column"] = exc.pos
    print(json.dumps({"error": info}, indent=2, sort_keys=True), file=sys.stderr)


# Flags whose values are scalar/window text and may begin with a minus
# sign, which option parsing would otherwise read as another flag.
_VALUE_FLAGS = frozenset(
    {"--lambda", "--b0", "--eta0", "--nu0", "--mu1", "--gamma0",
     "--window", "--candidates"}
)


def _normalize_argv(argv):
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if (
            token in _VALUE_FLAGS
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
        ):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
            continue
        out.append(token)
        i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_normalize_argv(argv))
    except UsageError as exc:
        _print_error(exc)
        return 2

    inputs = {}
    try:
        doc = None
        file = getattr(args, "file", None)
        if file is not None:
            data = Path(file).read_bytes()
            inputs["file"] = file
            inputs["sha256"] = hashlib.sha256(data).hexdigest()
            doc = parse_document(data.decode("utf-8"))
        if getattr(args, "seed", None) is not None:
            inputs["seed"] = args.seed
        try:
            report, outputs = args.handler(args, doc)
        except Refuted as exc:
            report, outputs = exc.report, {}
        payload = render({
            "tool_version": __version__,
            "command": args.command_name,
            "inputs": inputs,
            "checks": [_check_row(c) for c in report.checks],
            "outputs": outputs,
        })
    except _USAGE_ERRORS as exc:
        _print_error(exc)
        return 2

    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"{args.command_name}: {report.summary()}", file=sys.stderr)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
