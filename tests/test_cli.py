"""Command-line behavior: exit codes, report shape, deterministic JSON."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from homlie.cli import main
from homlie.scalar import MAX_NESTING

CORPUS = Path(__file__).parent / "corpus"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out)


def run_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out == ""
    return code, json.loads(err)["error"]


def checks_of(payload):
    return [(c["name"], c["status"]) for c in payload["checks"]]


# -- check -------------------------------------------------------------------

def test_check_classical_algebra(capsys):
    code, payload = run_report(capsys, "check", CORPUS / "sl2.hla")
    assert code == 0
    assert payload["command"] == "check"
    assert payload["tool_version"] == "0.1.0"
    assert len(payload["inputs"]["sha256"]) == 64
    assert checks_of(payload) == [("bracket_skew", "pass"), ("jacobi", "pass")]
    assert payload["outputs"]["checked"] == [
        {"algebra": "sl2", "mode": "lie", "dim": 3, "basis": ["e", "f", "h"]}
    ]


def test_check_twisted_algebra_with_its_morphism(capsys):
    code, payload = run_report(
        capsys, "check", CORPUS / "sl2_twisted.hla", "--hom", "sl2t"
    )
    assert code == 0
    assert checks_of(payload) == [
        ("bracket_skew", "pass"),
        ("twisted_jacobi", "pass"),
        ("twist_is_bracket_morphism", "pass"),
    ]


def test_twisted_table_is_not_classical(capsys):
    code, payload = run_report(
        capsys, "check", CORPUS / "sl2_twisted.hla", "--lie", "sl2t"
    )
    assert code == 1
    assert ("jacobi", "fail") in checks_of(payload)


def test_check_reports_jacobi_witness(capsys):
    code, payload = run_report(capsys, "check", CORPUS / "bad_jacobi.hla")
    assert code == 1
    bad = [c for c in payload["checks"] if c["status"] == "fail"]
    assert len(bad) == 1
    assert bad[0]["name"] == "jacobi"
    assert bad[0]["witness"] == {"triple": ["e", "f", "h"]}
    assert bad[0]["residual"] == ["0", "0", "4"]


def test_check_sweep_prefixes_multiple_algebras(capsys):
    code, payload = run_report(capsys, "check", CORPUS / "mixed.hla")
    assert code == 0
    assert [name for name, _ in checks_of(payload)] == [
        "lie.a2.bracket_skew",
        "lie.a2.jacobi",
        "lie.b3.bracket_skew",
        "lie.b3.jacobi",
    ]


# -- exit code 2: the invocation itself is bad --------------------------------

def test_syntax_error_is_structured(capsys):
    code, error = run_error(capsys, "check", CORPUS / "bad_syntax.hla")
    assert code == 2
    assert error["type"] == "ParseError"
    assert (error["line"], error["column"]) == (4, 3)
    assert error["found"] == "["


def test_unknown_reference_is_structured(capsys):
    code, error = run_error(capsys, "check", CORPUS / "bad_reference.hla")
    assert code == 2
    assert error["type"] == "ResolutionError"
    assert error["identifier"] == "nowhere"


def test_missing_file(capsys):
    code, error = run_error(capsys, "check", "nosuch.hla")
    assert code == 2
    assert error["type"] == "FileNotFoundError"


def test_ambiguous_twist_resolution(capsys):
    code, error = run_error(capsys, "check", CORPUS / "mixed.hla", "--hom", "a2")
    assert code == 2
    assert error["identifier"] == "a2"
    assert "found 2" in error["message"]


def test_no_arguments_is_usage(capsys):
    code, error = run_error(capsys)
    assert code == 2
    assert error["type"] == "UsageError"


def test_bad_scalar_flag(capsys):
    code, error = run_error(
        capsys, "sl2", "family", "finite", "--lambda", "2//3", "--b0", "1", "--n", "2"
    )
    assert code == 2
    assert "--lambda" in error["message"]


def test_version(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--version"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.strip() == "homlie 0.1.0"


# -- twist --------------------------------------------------------------------

def test_twist_and_induced_round_trip(capsys):
    code, payload = run_report(
        capsys, "twist", CORPUS / "sl2.hla", "--morphism", "alpha", "--induced"
    )
    assert code == 0
    names = [name for name, _ in checks_of(payload)]
    assert names == [
        "twist_is_morphism",
        "bracket_skew",
        "twisted_jacobi",
        "twist_is_bracket_morphism",
        "induced_round_trip",
    ]
    out = payload["outputs"]
    assert out["twisted_brackets"] == {
        "[e,f]": "h",
        "[e,h]": "-2*L*e",
        "[f,h]": "(2)/(L)*f",
    }
    assert out["induced_brackets"] == {
        "[e,f]": "h",
        "[e,h]": "-2*e",
        "[f,h]": "2*f",
    }
    assert out["twist"] == [["L", "0", "0"], ["0", "(1)/(L)", "0"], ["0", "0", "1"]]


def test_twist_of_abelian_algebra(capsys):
    code, payload = run_report(
        capsys, "twist", CORPUS / "abelian2.hla", "--morphism", "shear"
    )
    assert code == 0
    assert payload["outputs"]["twisted_brackets"] == {}


# -- killing ------------------------------------------------------------------

def test_killing_form_of_simple_algebra(capsys):
    code, payload = run_report(capsys, "killing", CORPUS / "sl2.hla", "--lie", "sl2")
    assert code == 0
    out = payload["outputs"]
    assert out["gram"] == [["0", "4", "0"], ["4", "0", "0"], ["0", "0", "8"]]
    assert out["det"] == "-128"
    assert out["nondegenerate"] is True


def test_killing_form_degenerate_on_center(capsys):
    code, payload = run_report(capsys, "killing", CORPUS / "gl2.hla", "--lie", "gl2")
    assert code == 0
    assert payload["outputs"]["nondegenerate"] is False
    assert payload["outputs"]["det"] == "0"


# -- decompose ----------------------------------------------------------------

def test_decompose_two_commuting_copies(capsys):
    code, payload = run_report(
        capsys, "decompose", CORPUS / "sl2_sum.hla", "--lie", "sl2sum"
    )
    assert code == 0
    assert checks_of(payload) == [
        ("semisimple", "pass"),
        ("ideal_decomposition", "pass"),
        ("pieces_simple", "probe-pass"),
    ]
    ideals = payload["outputs"]["ideals"]
    assert [piece["dim"] for piece in ideals] == [3, 3]


def test_decompose_rejects_nilpotent(capsys):
    code, payload = run_report(
        capsys, "decompose", CORPUS / "heisenberg.hla", "--lie", "heis"
    )
    assert code == 1
    assert checks_of(payload) == [("semisimple", "fail")]


def test_decompose_rejects_center(capsys):
    code, payload = run_report(capsys, "decompose", CORPUS / "gl2.hla", "--lie", "gl2")
    assert code == 1


# -- cyclic -------------------------------------------------------------------

def test_cyclic_sum_of_three_copies(capsys):
    code, payload = run_report(
        capsys, "cyclic", CORPUS / "sl2.hla",
        "--lie", "sl2", "--sigma", "alpha", "--n", "3",
    )
    assert code == 0
    assert [s for _, s in checks_of(payload)] == ["pass"] * 4
    out = payload["outputs"]
    assert out["dim"] == 9
    assert out["basis"] == ["e0", "f0", "h0", "e1", "f1", "h1", "e2", "f2", "h2"]
    # the twist shifts each copy's bracket value into the next copy and
    # closes the cycle through sigma on the last one
    assert out["twisted_brackets"]["[e0,f0]"] == "h1"
    assert out["twisted_brackets"]["[e2,f2]"] == "h0"
    assert out["twisted_brackets"]["[e2,h2]"] == "-2*L*e0"


def test_cyclic_rejects_non_automorphism(capsys, tmp_path):
    source = CORPUS.joinpath("sl2.hla").read_text()
    source += "\nmorphism bad on sl2 { e -> f; f -> e; h -> h; }\n"
    path = tmp_path / "swap.hla"
    path.write_text(source)
    code, payload = run_report(
        capsys, "cyclic", path, "--lie", "sl2", "--sigma", "bad", "--n", "2"
    )
    assert code == 1
    assert checks_of(payload) == [("sigma_automorphism", "fail")]


# -- rep ----------------------------------------------------------------------

def test_rep_verify_classical(capsys):
    code, payload = run_report(
        capsys, "rep", "verify", CORPUS / "sl2.hla", "--rep", "std1"
    )
    assert code == 0
    assert checks_of(payload) == [("bracket_action", "pass")]
    assert payload["outputs"]["kind"] == "classical"


def test_rep_verify_hom_module(capsys):
    code, payload = run_report(
        capsys, "rep", "verify", CORPUS / "rep_beta.hla", "--rep", "tw1"
    )
    assert code == 0
    assert payload["outputs"]["kind"] == "hom"
    assert checks_of(payload) == [
        ("twist_compatibility", "pass"),
        ("bracket_compatibility", "pass"),
        ("twist_power_1", "pass"),
        ("twist_power_2", "pass"),
        ("twist_power_3", "pass"),
        ("bracket_power_0", "pass"),
        ("bracket_power_1", "pass"),
        ("bracket_power_2", "pass"),
    ]


def test_rep_verify_broken_action(capsys, tmp_path):
    source = CORPUS.joinpath("sl2.hla").read_text()
    source += (
        "\nrep broken of sl2 dim 2 {"
        " e => [0, 1; 0, 0]; f => [0, 0; 1, 0]; h => [1, 0; 0, 1]; }\n"
    )
    path = tmp_path / "broken.hla"
    path.write_text(source)
    code, payload = run_report(capsys, "rep", "verify", path, "--rep", "broken")
    assert code == 1
    assert checks_of(payload) == [("bracket_action", "fail")]
    assert payload["checks"][0]["witness"]["pair"] == ["e", "f"]


def test_rep_intertwiner_line(capsys):
    code, payload = run_report(
        capsys, "rep", "intertwiner", CORPUS / "sl2.hla",
        "--rep", "std1", "--morphism", "alpha",
    )
    assert code == 0
    out = payload["outputs"]
    assert out["dimension"] == 1
    assert out["basis_matrices"] == [[["1", "0"], ["0", "(1)/(L)"]]]
    assert out["invertible"] == [["1", "0"], ["0", "(1)/(L)"]]
    assert checks_of(payload) == [
        ("intertwiner_space", "pass"),
        ("invertible_intertwiner", "pass"),
    ]


def test_rep_tensor_two_stages(capsys):
    code, payload = run_report(
        capsys, "rep", "tensor", CORPUS / "sl2.hla", "--reps", "std1,std1", "--n", "2"
    )
    assert code == 0
    out = payload["outputs"]
    assert out["algebra_dim"] == 6
    assert out["dim_V"] == 4
    statuses = {s for _, s in checks_of(payload)}
    assert statuses == {"pass"}
    assert len(payload["checks"]) == 9


def test_rep_tensor_count_mismatch(capsys):
    code, error = run_error(
        capsys, "rep", "tensor", CORPUS / "sl2.hla", "--reps", "std1", "--n", "2"
    )
    assert code == 2
    assert error["type"] == "UsageError"


# -- sl2 family / solve --------------------------------------------------------

def test_family_finite_table_and_verification(capsys):
    code, payload = run_report(
        capsys, "sl2", "family", "finite",
        "--lambda", "3", "--b0", "2", "--n", "4", "--verify",
    )
    assert code == 0
    assert checks_of(payload) == [
        ("family_constructed", "pass"),
        ("twist_convention", "pass"),
        ("twist_e", "pass"),
        ("twist_f", "pass"),
        ("twist_h", "pass"),
        ("bracket_he", "pass"),
        ("bracket_hf", "pass"),
        ("bracket_ef", "pass"),
    ]
    out = payload["outputs"]
    assert out["algebra_twist"] == "1/3"
    assert out["window"] == [0, 4]
    assert out["table"][0] == {"index": 0, "e": "2/3", "f": "0", "h": "-8", "beta": "2"}
    assert out["table"][1] == {
        "index": 1, "e": "2/9", "f": "8", "h": "-4/3", "beta": "2/3",
    }


def test_family_negative_window_and_fractions(capsys):
    code, payload = run_report(
        capsys, "sl2", "family", "intermediate",
        "--lambda", "2", "--b0", "1", "--tau", "1", "--mu", "8",
        "--window", "-4:4", "--verify",
    )
    assert code == 0
    assert payload["outputs"]["table"][0]["index"] == -4

    code, payload = run_report(
        capsys, "sl2", "family", "highest",
        "--lambda", "5", "--b0", "-1/3", "--tau", "-3",
        "--window", "0:5", "--verify",
    )
    assert code == 0
    assert payload["outputs"]["algebra_twist"] == "5"


def test_family_rejects_excluded_parameters(capsys):
    code, error = run_error(
        capsys, "sl2", "family", "intermediate",
        "--lambda", "2", "--b0", "1", "--tau", "3", "--mu", "8",
    )
    assert code == 2
    assert error["type"] == "InvalidParams"

    code, error = run_error(
        capsys, "sl2", "family", "finite", "--lambda", "2", "--b0", "1"
    )
    assert code == 2


def test_solve_forced_sequences(capsys):
    code, payload = run_report(
        capsys, "sl2", "solve",
        "--eta0", "1", "--nu0", "2", "--mu1", "1", "--gamma0", "1",
        "--window", "0:3",
    )
    assert code == 0
    assert checks_of(payload) == [
        ("equation_1", "pass"),
        ("equation_2", "pass"),
        ("equation_3", "pass"),
        ("equation_4", "pass"),
        ("equation_5", "pass"),
        ("split_materialization", "pass"),
    ]
    out = payload["outputs"]
    assert [row["value"] for row in out["eta"]] == [
        "1", "(1)/(L)", "(1)/(L^2)", "(1)/(L^3)",
    ]
    assert [row["value"] for row in out["nu"]] == [
        "2", "0", "(-2)/(L^2)", "(-4)/(L^3)",
    ]
    assert [row["value"] for row in out["products"]] == [
        "1", "(1)/(L^2)", "(L - 2)/(L^5)",
    ]
    assert [row["value"] for row in out["mu"]] == [
        "1", "(1)/(L^2)", "(L - 2)/(L^5)",
    ]


def test_solve_rejects_zero_eta0(capsys):
    code, error = run_error(
        capsys, "sl2", "solve",
        "--eta0", "0", "--nu0", "1", "--mu1", "1", "--gamma0", "1",
        "--window", "0:2",
    )
    assert code == 2
    assert error["type"] == "InvalidParams"


# -- weights -------------------------------------------------------------------

def test_weights_classical_module(capsys):
    code, payload = run_report(
        capsys, "weights", CORPUS / "sl2.hla", "--rep", "std1", "--cartan", "h"
    )
    assert code == 0
    out = payload["outputs"]
    assert out["weights"] == [
        {"functional": ["-1"], "space": [["0", "1"]]},
        {"functional": ["1"], "space": [["1", "0"]]},
    ]
    assert "classification" not in out


def test_weights_hom_module_classified(capsys):
    code, payload = run_report(
        capsys, "weights", CORPUS / "rep_beta.hla", "--rep", "tw1", "--cartan", "h"
    )
    assert code == 0
    out = payload["outputs"]
    assert out["classification"] == "Strong"
    assert {"functional": ["(-1)/(L)"], "space": [["0", "1"]]} in out["weights"]


def test_weights_explicit_candidates(capsys):
    code, payload = run_report(
        capsys, "weights", CORPUS / "sl2.hla",
        "--rep", "std1", "--cartan", "h", "--candidates", "1;-1",
    )
    assert code == 0
    assert len(payload["outputs"]["weights"]) == 2


def test_weights_incomplete_spectrum(capsys):
    code, payload = run_report(
        capsys, "weights", CORPUS / "sl2.hla", "--rep", "std1", "--cartan", "e"
    )
    assert code == 1
    assert checks_of(payload) == [("decomposition_complete", "fail")]


def standard_sl2_module(d):
    """The d-dimensional sl2 module: h = diag(n, n - 2, ..., -n) for n = d - 1."""
    n = d - 1

    def matrix(entry):
        return "[" + "; ".join(
            ", ".join(str(entry(i, j)) for j in range(d)) for i in range(d)
        ) + "]"

    e = matrix(lambda i, j: n - j + 1 if j == i + 1 else 0)
    f = matrix(lambda i, j: j + 1 if i == j + 1 else 0)
    h = matrix(lambda i, j: n - 2 * i if i == j else 0)
    return (
        "algebra sl2 { basis e, f, h; [h,e] = 2*e; [h,f] = -2*f; [e,f] = h; }\n"
        f"rep v of sl2 dim {d} {{ e => {e}; f => {f}; h => {h}; }}\n"
    )


@pytest.mark.parametrize("d", [12, 15])
def test_weights_of_large_standard_modules_stay_cheap(capsys, tmp_path, d):
    # the characteristic polynomial of h has constant term 10395^2 at d = 12
    path = tmp_path / f"std{d}.hla"
    path.write_text(standard_sl2_module(d))
    started = time.monotonic()
    code, payload = run_report(capsys, "weights", path, "--rep", "v", "--cartan", "h")
    assert time.monotonic() - started < 10.0
    assert code == 0
    assert {c["status"] for c in payload["checks"]} == {"pass"}
    assert len(payload["outputs"]["weights"]) == d


# -- determinism ----------------------------------------------------------------

def test_output_is_byte_stable(capsys):
    first = run(capsys, "decompose", CORPUS / "sl2_sum.hla", "--lie", "sl2sum",
                "--seed", "5")
    second = run(capsys, "decompose", CORPUS / "sl2_sum.hla", "--lie", "sl2sum",
                 "--seed", "5")
    assert first == second
    assert json.loads(first[1])["inputs"]["seed"] == 5


def test_summary_goes_to_stderr(capsys):
    code, out, err = run(capsys, "check", CORPUS / "sl2.hla")
    assert err.strip() == "check: 2 checks: all pass"
    json.loads(out)  # stdout is pure JSON


def test_console_script_round_trips():
    argv = [sys.executable, "-m", "homlie.cli", "check", str(CORPUS / "sl2.hla")]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["command"] == "check"


# -- bounded nesting --------------------------------------------------------------

def run_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "homlie.cli", *map(str, argv)], capture_output=True, text=True
    )


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("-", "")])
def test_deep_nesting_in_a_file_is_a_parse_error(tmp_path, opener, closer):
    prefix = "algebra a { basis x, y; [x,y] = "
    path = tmp_path / "deep.hla"
    path.write_text(prefix + opener * 3000 + "1" + closer * 3000 + "*y; }\n")
    done = run_subprocess("check", path)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    error = json.loads(done.stderr)["error"]
    assert error["type"] == "ParseError"
    from homlie.scalar import MAX_NESTING

    assert (error["line"], error["column"]) == (1, len(prefix) + MAX_NESTING + 1)


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("-", "")])
def test_deep_nesting_in_a_flag_is_a_usage_error(opener, closer):
    deep = opener * 3000 + "2" + closer * 3000
    done = run_subprocess("sl2", "family", "finite", "--lambda", deep, "--b0", "1", "--n", "2")
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    error = json.loads(done.stderr)["error"]
    assert error["type"] == "UsageError"
    assert "nested deeper than" in error["message"]


def test_nesting_up_to_the_limit_parses(capsys):
    from homlie.scalar import MAX_NESTING

    depth = MAX_NESTING
    lam = "(" * depth + "2" + ")" * depth
    code, payload = run_report(
        capsys, "sl2", "family", "finite", "--lambda", lam, "--b0", "1", "--n", "2"
    )
    assert code == 0
    assert payload["outputs"]["algebra_twist"] == "1/2"


@pytest.mark.parametrize(
    "power, degree",
    [("(L+1)^1000", 1000), ("((L+1)^150)^2", 300), ("((L+1)/(L-2))^-300", 300)],
    ids=["dense-power", "nested-power", "negative-power-of-a-quotient"],
)
def test_high_powers_of_non_monomials_exit_2(capsys, tmp_path, power, degree):
    from homlie.scalar import MAX_POWER_DEGREE

    reason = f"power of degree {degree}, above the limit of {MAX_POWER_DEGREE}"
    path = tmp_path / "power.hla"
    path.write_text(f"algebra a {{ basis x, y; [x,y] = {power}*y; }}\n")
    flag = ("sl2", "family", "finite", "--lambda", power, "--b0", "1", "--n", "2", "--verify")
    started = time.monotonic()
    code, error = run_error(capsys, *flag)
    assert (code, error["type"], error["message"]) == (2, "UsageError", f"--lambda: {reason}")
    code, error = run_error(capsys, "check", path)
    assert (code, error["type"]) == (2, "ParseError")
    assert error["message"].endswith(f": {reason}")
    assert time.monotonic() - started < 1.0
    for argv in (flag, ("check", path)):
        done = run_subprocess(*argv)
        assert done.returncode == 2 and done.stdout == ""
        assert "Traceback" not in done.stderr


def test_powers_up_to_the_degree_limit_parse(capsys):
    from homlie.scalar import MAX_POWER_DEGREE

    code, payload = run_report(
        capsys, "sl2", "family", "finite", "--lambda", f"((L+1)/(L-2))^{MAX_POWER_DEGREE}",
        "--b0", "1", "--n", "2",
    )
    assert code == 0
    twist = payload["outputs"]["algebra_twist"]  # 1/lambda = ((L-2)/(L+1))^200
    assert twist.startswith(f"(L^{MAX_POWER_DEGREE} - ")
    assert f")/(L^{MAX_POWER_DEGREE} + " in twist and twist.endswith(" + 1)")


@pytest.mark.parametrize("digits", ["1" * 5000, "²"], ids=["too-long", "superscript"])
def test_unreadable_integers_exit_2(capsys, tmp_path, digits):
    code, error = run_error(
        capsys, "sl2", "family", "finite", "--lambda", digits, "--b0", "1", "--n", "2"
    )
    assert code == 2
    assert error["type"] == "UsageError"
    path = tmp_path / "digits.hla"
    path.write_text(f"algebra a {{ basis x, y; [x,y] = {digits}*y; }}\n")
    code, error = run_error(capsys, "check", path)
    assert code == 2
    assert (error["type"], error["line"], error["column"]) == ("ParseError", 1, 33)


@pytest.mark.parametrize(
    "scalar, column, reason",
    [
        (
            "(" * 150 + "1" + ")" * 150,
            33 + MAX_NESTING,
            f"expression nested deeper than {MAX_NESTING} levels",
        ),
        ("1/0", 35, "division by zero"),
        ("0^-1", 36, "zero to a negative power"),
    ],
    ids=["nesting", "division-by-zero", "zero-to-negative-power"],
)
def test_scalar_error_in_a_file_keeps_its_reason(capsys, tmp_path, scalar, column, reason):
    path = tmp_path / "bad_scalar.hla"
    path.write_text(f"algebra a {{ basis x, y; [x,y] = {scalar}*y; }}\n")
    code, error = run_error(capsys, "check", path)
    assert code == 2
    assert (error["type"], error["line"], error["column"]) == ("ParseError", 1, column)
    assert error["expected"] == ["a scalar expression"]
    assert error["message"].endswith(f": {reason}")


# -- large powers of L, rational-function parameters -----------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["sl2", "family", "lowest", "--lambda", "L^20000", "--b0", "2", "--tau", "3",
         "--window", "0:24", "--verify"],
        ["sl2", "solve", "--eta0", "L", "--nu0", "2", "--mu1", "3", "--gamma0", "L",
         "--window", "0:200"],
        ["sl2", "family", "lowest", "--tau", "1", "--lambda", "(L+1)/(L-2)", "--b0", "1",
         "--window", "0:40", "--verify"],
    ],
    ids=["family-lambda-L^20000", "solve-window-200", "family-lambda-rational-window-40"],
)
def test_large_powers_of_L_stay_cheap(capsys, argv):
    started = time.monotonic()
    code, payload = run_report(capsys, *argv)
    assert time.monotonic() - started < 5.0
    assert code == 0
    assert {c["status"] for c in payload["checks"]} == {"pass"}


# -- values too long to render -------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["sl2", "family", "lowest", "--tau", "0", "--lambda", "1000", "--b0", "1",
         "--window", "0:1600"],
        ["sl2", "family", "finite", "--lambda", "2^20000", "--b0", "1", "--n", "2",
         "--verify"],
    ],
    ids=["table-entry-1000^1600", "algebra-twist-2^20000"],
)
def test_a_value_past_the_render_limit_is_an_input_error(argv):
    done = run_subprocess(*argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    error = json.loads(done.stderr)["error"]
    assert error["type"] == "RenderLimit"
    assert f"more than {sys.get_int_max_str_digits()} digits" in error["message"]
