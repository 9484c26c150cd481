"""Definition-file parsing, resolution errors, and the render round trip."""

from pathlib import Path

import pytest

from homlie.dsl import (
    AlgebraDef,
    Document,
    FamilyDef,
    MorphismDef,
    ParseError,
    RepDef,
    ResolutionError,
    bracket_constants,
    morphism_matrix,
    parse,
    render,
    rep_matrices,
    to_lie_algebra,
)
from homlie.linalg import Matrix
from homlie.report import Refuted
from homlie.scalar import L, ONE, ZERO, sc
from homlie.sl2 import diagonal_twist_matrix, sl2_lie_algebra

CORPUS = Path(__file__).parent / "corpus"

SL2_TEXT = "algebra sl2 { basis e, f, h; [h,e] = 2*e; [h,f] = -2*f; [e,f] = h; }"


def corpus_files(valid=True):
    files = sorted(CORPUS.glob("*.hla"))
    if valid:
        return [f for f in files if not f.name.startswith("bad_")]
    return files


def parse_algebra(text, name):
    return parse(text).algebra(name)


# -- grammar examples -------------------------------------------------------

def test_three_generator_example_matches_library_constants():
    adef = parse_algebra(SL2_TEXT, "sl2")
    assert adef.basis == ("e", "f", "h")
    assert to_lie_algebra(adef) == sl2_lie_algebra()


def test_one_element_algebra_is_abelian():
    adef = parse_algebra("algebra a { basis x; }", "a")
    assert adef.basis == ("x",)
    assert adef.brackets == {}
    A = to_lie_algebra(adef)
    assert A.dim == 1
    assert A.bracket_basis(0, 0) == (ZERO,)


def test_diagonal_morphism_example_matches_twist_matrix():
    doc = parse(
        SL2_TEXT + " morphism alpha on sl2 { e -> L*e; f -> (1/L)*f; h -> h; }"
    )
    M = morphism_matrix(doc.algebra("sl2"), doc.morphism("alpha"))
    assert M == diagonal_twist_matrix()


def test_whitespace_and_comments_are_insignificant():
    spread = """
    # the same three generators, spread out
    algebra sl2 {
      basis e, f, h;   # generator names
      [h,e] = 2*e;
      [h,f] = -2*f;
      [e,f] = h;
    }
    """
    assert parse(spread) == parse(SL2_TEXT)


# -- bracket table normalization --------------------------------------------

def test_skew_completion_fills_the_unwritten_half():
    A = to_lie_algebra(parse_algebra("algebra g { basis x, y, z; [x,y] = z; }", "g"))
    assert A.bracket_basis(1, 0) == (ZERO, ZERO, -ONE)
    assert A.bracket_basis(0, 1) == (ZERO, ZERO, ONE)


def test_reversed_pair_is_stored_negated():
    forward = parse_algebra("algebra g { basis x, y, z; [x,y] = z; }", "g")
    backward = parse_algebra("algebra g { basis x, y, z; [y,x] = -1*z; }", "g")
    assert forward == backward
    assert forward.brackets == {("x", "y"): {"z": ONE}}


def test_writing_both_orientations_is_a_duplicate():
    with pytest.raises(ResolutionError) as err:
        parse("algebra g { basis x, y, z; [x,y] = z; [y,x] = -1*z; }")
    assert err.value.identifier == "[x,y]"
    assert "twice" in str(err.value)


def test_zero_self_bracket_is_tolerated_nonzero_rejected():
    adef = parse_algebra("algebra g { basis x, y; [x,x] = 0; }", "g")
    assert adef.brackets == {}
    with pytest.raises(ResolutionError) as err:
        parse("algebra g { basis x, y; [x,x] = y; }")
    assert err.value.identifier == "[x,x]"


def test_explicit_zero_bracket_round_trips():
    adef = parse_algebra("algebra g { basis x, y; [x,y] = 0; }", "g")
    assert adef.brackets == {("x", "y"): {}}
    assert parse(render(parse(render(Document((adef,)))))) is not None


def test_unvalidated_constants_builder_completes_skew():
    adef = parse_algebra(
        "algebra t { basis e, f, h; [h,e] = 2*L*e; [h,f] = (-2/L)*f; [e,f] = h; }",
        "t",
    )
    c = bracket_constants(adef)
    two_lam = sc(2) * L
    assert c[2][0] == (two_lam, ZERO, ZERO)
    assert c[0][2] == (-two_lam, ZERO, ZERO)
    assert c[1][2] == (ZERO, sc(2) / L, ZERO)
    assert c[0][0] == (ZERO, ZERO, ZERO)


# -- linear expressions ------------------------------------------------------

def test_repeated_terms_accumulate():
    adef = parse_algebra("algebra g { basis x, y; [x,y] = y + y; }", "g")
    assert adef.brackets[("x", "y")] == {"y": sc(2)}


def test_cancelling_terms_drop_out():
    adef = parse_algebra("algebra g { basis x, y; [x,y] = y - y; }", "g")
    assert adef.brackets[("x", "y")] == {}


def test_scalar_coefficient_forms():
    adef = parse_algebra(
        "algebra g { basis x, y;"
        " [x,y] = 2*L*y + (L + 1)*x - 1/2*y + L^2*x; }",
        "g",
    )
    assert adef.brackets[("x", "y")] == {
        "x": L + ONE + L ** 2,
        "y": sc(2) * L - ONE / sc(2),
    }


def test_constant_term_is_rejected():
    with pytest.raises(ResolutionError) as err:
        parse("algebra g { basis x, y; [x,y] = 3; }")
    assert "constant term" in str(err.value)
    with pytest.raises(ResolutionError):
        parse("algebra g { basis x, y; [x,y] = y + 1; }")


def test_unknown_basis_element_in_expression():
    with pytest.raises(ResolutionError) as err:
        parse("algebra g { basis x, y; [x,y] = 2*q; }")
    assert err.value.identifier == "q"
    with pytest.raises(ResolutionError) as err:
        parse("algebra g { basis x, y; [x,q] = y; }")
    assert err.value.identifier == "q"


# -- parse errors ------------------------------------------------------------

def test_missing_semicolon_position():
    source = (CORPUS / "bad_syntax.hla").read_text()
    with pytest.raises(ParseError) as err:
        parse(source)
    assert (err.value.line, err.value.column) == (4, 3)
    assert err.value.expected == ("';'",)
    assert err.value.found == "["


def test_unknown_character():
    with pytest.raises(ParseError) as err:
        parse("algebra a { basis x; } @")
    assert (err.value.line, err.value.column) == (1, 24)
    assert err.value.found == "@"


def test_reserved_word_cannot_name_an_item():
    with pytest.raises(ParseError):
        parse("algebra rep { basis x; }")
    with pytest.raises(ParseError):
        parse("algebra a { basis beta; }")


def test_lambda_letter_is_not_an_identifier():
    with pytest.raises(ParseError) as err:
        parse("algebra a { basis L; }")
    assert err.value.found == "L"


def test_reserved_word_inside_expression():
    with pytest.raises(ParseError) as err:
        parse("algebra a { basis x, y; [x,y] = 2*beta; }")
    assert err.value.found == "beta"


def test_wrong_arrow_kind():
    with pytest.raises(ParseError) as err:
        parse("algebra a { basis x; } morphism m on a { x => x; }")
    assert err.value.expected == ("'->'",)


def test_unclosed_item_reports_end_of_input():
    with pytest.raises(ParseError) as err:
        parse("algebra a { basis x;")
    assert err.value.found == "end of input"


def test_top_level_garbage():
    with pytest.raises(ParseError) as err:
        parse("lattice a { }")
    assert "'algebra'" in err.value.expected


# -- resolution errors -------------------------------------------------------

def test_duplicate_names_per_kind():
    with pytest.raises(ResolutionError) as err:
        parse("algebra a { basis x; } algebra a { basis y; }")
    assert err.value.identifier == "a"
    with pytest.raises(ResolutionError):
        parse(
            "algebra a { basis x; }"
            " morphism m on a { x -> x; } morphism m on a { x -> x; }"
        )


def test_same_name_across_kinds_is_allowed():
    doc = parse("algebra a { basis x; } morphism a on a { x -> x; }")
    assert doc.algebra("a").basis == ("x",)
    assert doc.morphism("a").algebra == "a"


def test_duplicate_basis_name():
    with pytest.raises(ResolutionError) as err:
        parse("algebra a { basis x, x; }")
    assert err.value.identifier == "x"


def test_unknown_algebra_reference():
    source = (CORPUS / "bad_reference.hla").read_text()
    with pytest.raises(ResolutionError) as err:
        parse(source)
    assert err.value.identifier == "nowhere"


def test_morphism_must_cover_every_basis_element():
    with pytest.raises(ResolutionError) as err:
        parse("algebra a { basis x, y; } morphism m on a { x -> x; }")
    assert err.value.identifier == "y"
    assert "no image" in str(err.value)


def test_image_defined_twice():
    with pytest.raises(ResolutionError) as err:
        parse("algebra a { basis x; } morphism m on a { x -> x; x -> x; }")
    assert err.value.identifier == "x"


def test_rep_matrix_shape_is_checked():
    with pytest.raises(ResolutionError) as err:
        parse("algebra a { basis x; } rep r of a dim 2 { x => [1, 0]; }")
    assert "2x2" in str(err.value)


def test_rep_must_cover_every_basis_element():
    with pytest.raises(ResolutionError) as err:
        parse(
            "algebra a { basis x, y; }"
            " rep r of a dim 1 { x => [1]; beta => [1]; }"
        )
    assert err.value.identifier == "y"


def test_beta_row_must_come_last():
    with pytest.raises(ParseError) as err:
        parse(
            "algebra a { basis x, y; }"
            " rep r of a dim 1 { x => [1]; beta => [1]; y => [1]; }"
        )
    assert err.value.expected == ("'}'",)


def test_document_lookup_failures():
    doc = parse("algebra a { basis x; }")
    with pytest.raises(ResolutionError):
        doc.algebra("b")
    with pytest.raises(ResolutionError):
        doc.morphism("m")
    with pytest.raises(ResolutionError):
        doc.rep("r")


def test_converters_check_ownership():
    doc = parse(
        "algebra a { basis x; } algebra b { basis y; }"
        " morphism m on a { x -> x; }"
    )
    with pytest.raises(ResolutionError):
        morphism_matrix(doc.algebra("b"), doc.morphism("m"))


# -- representations ---------------------------------------------------------

def test_rep_block_with_beta():
    doc = parse((CORPUS / "rep_beta.hla").read_text())
    rdef = doc.rep("tw1")
    assert rdef.dim == 2
    assert rdef.algebra == "sl2t"
    rho_e, rho_f, rho_h = rep_matrices(doc.algebra("sl2t"), rdef)
    assert rho_e == Matrix.from_rows([[0, 1], [0, 0]])
    assert rho_f == Matrix.from_rows([[ZERO, ZERO], [ONE / L, ZERO]])
    assert rho_h == Matrix.from_rows([[ONE, ZERO], [ZERO, -(ONE / L)]])
    assert rdef.beta == Matrix.diagonal([ONE, ONE / L])


def test_rep_block_without_beta():
    doc = parse((CORPUS / "sl2.hla").read_text())
    assert doc.rep("std1").beta is None


# -- families ----------------------------------------------------------------

def test_family_invocations():
    doc = parse((CORPUS / "families.hla").read_text())
    fams = doc.families
    assert [f.kind for f in fams] == ["finite", "lowest", "highest", "intermediate"]
    assert [f.kind_name for f in fams] == [
        "FiniteDim",
        "LowestWeight",
        "HighestWeight",
        "IntermediateSeries",
    ]
    finite, lowest, highest, intermediate = fams
    assert finite.params == {"n": sc(4), "lambda": sc(3), "b0": sc(2)}
    assert lowest.params["window"] == (0, 6)
    assert highest.params["tau"] == sc(-3)
    assert highest.params["b0"] == ONE / sc(3)
    assert intermediate.params["window"] == (-4, 4)


def test_family_parameter_validation():
    with pytest.raises(ResolutionError) as err:
        parse("family finite(q=1);")
    assert err.value.identifier == "q"
    with pytest.raises(ResolutionError) as err:
        parse("family finite(n=2, n=3);")
    assert "twice" in str(err.value)
    with pytest.raises(ParseError):
        parse("family diagonal(n=1);")


# -- documents as a whole -----------------------------------------------------

def test_morphisms_on_filters_by_algebra():
    doc = parse((CORPUS / "mixed.hla").read_text())
    assert [m.name for m in doc.morphisms_on("a2")] == ["one", "flip"]
    assert doc.morphisms_on("b3") == []


def test_corpus_is_large_enough():
    assert len(corpus_files(valid=True)) >= 10


def test_bad_jacobi_parses_but_fails_validation():
    doc = parse((CORPUS / "bad_jacobi.hla").read_text())
    with pytest.raises(Refuted, match="^jacobi "):
        to_lie_algebra(doc.algebra("notlie"))


# -- render round trip --------------------------------------------------------

@pytest.mark.parametrize("path", corpus_files(valid=True), ids=lambda p: p.stem)
def test_round_trip_on_corpus(path):
    first = parse(path.read_text())
    text = render(first)
    second = parse(text)
    assert second == first
    assert render(second) == text


def test_round_trip_synthetic_document():
    source = """
    algebra g {
      basis x, y, z;
      [x,y] = (L^2 - 1/3)*z - 2*x;
      [y,z] = x + y;
    }
    morphism m on g {
      x -> -1*y + 1/2*z;
      y -> L*x;
      z -> z;
    }
    rep r of g dim 2 {
      x => [0, 1; 0, 0];
      y => [0, 0; -1/L, 0];
      z => [1, 0; 0, -1];
      beta => [1, 1/2; 0, 1];
    }
    family intermediate(tau=1, mu=8, lambda=2, b0=-1/2, window=-3:3);
    """
    first = parse(source)
    text = render(first)
    assert parse(text) == first
    assert render(parse(text)) == text
