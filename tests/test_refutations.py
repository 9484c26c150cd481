"""Failure paths pinned byte for byte: one command per refutation row.

A construction that the mathematics refutes (an action that breaks the
bracket, a twist that is not a morphism, a degenerate trace form, a
weight decomposition that does not fill the module, ...) stops with the
report of the failed check, and the CLI prints that report with exit 1.
The benchmark pool almost never takes these paths, so each is pinned
here: the documents are written inline to ``tmp_path`` and every exit
code and stdout sha256 is compared with a recorded value.
"""

import hashlib

import pytest

from homlie.cli import main

SL2 = """algebra sl2 {
  basis e, f, h;
  [h,e] = 2*e;
  [h,f] = -2*f;
  [e,f] = h;
}
"""

STD = """
rep std of sl2 dim 2 {
  e => [0, 1; 0, 0];
  f => [0, 0; 1, 0];
  h => [1, 0; 0, -1];
}
"""

FLAT = """algebra flat {
  basis x, y;
}
"""

DOCS = {
    "bad_action.hla": SL2 + """
rep bad of sl2 dim 2 {
  e => [1, 1; 0, 0];
  f => [0, 0; 1, 0];
  h => [1, 0; 0, -1];
}
""",
    "swap.hla": SL2 + """
morphism swap on sl2 {
  e -> f;
  f -> e;
  h -> h;
}
""" + STD,
    "zero.hla": SL2 + """
morphism zero on sl2 {
  e -> 0*e;
  f -> 0*f;
  h -> 0*h;
}
""" + STD,
    "gl2.hla": """algebra gl2 {
  basis e, f, h, z;
  [h,e] = 2*e;
  [h,f] = -2*f;
  [e,f] = h;
}
""",
    "aff1.hla": """algebra aff1 {
  basis a, b;
  [a,b] = b;
}
""",
    "bad_jacobi.hla": """algebra notlie {
  basis e, f, h;
  [h,e] = 2*e;
  [h,f] = 2*f;
  [e,f] = h;
}
""",
    "flat_zero.hla": FLAT + """
morphism zero on flat {
  x -> 0*x;
  y -> 0*y;
}
""",
    "jordan.hla": FLAT + """
morphism swap on flat {
  x -> y;
  y -> x;
}

rep jb of flat dim 2 {
  x => [0, 1; 0, 0];
  y => [0, 0; 0, 0];
}
""",
    "weights.hla": FLAT + """
rep unipotent of flat dim 2 {
  x => [1, 1; 0, 1];
  y => [0, 0; 0, 0];
}

rep irrational of flat dim 2 {
  x => [0, 2; 1, 0];
  y => [0, 0; 0, 0];
}

rep poles of flat dim 2 {
  x => [1/((L-1)*(L-2)*(L-3)), 0; 0, 0];
  y => [0, 0; 0, 0];
}
""",
}

# (argv, exit code, sha256 of stdout), grouped by the row that fails
PINS = [
    # bracket_action
    ("rep verify bad_action.hla --rep bad", 1,
     "e7948d08573344104463ccf00d3b2a3e0a75043ed0deb77d55070000a1bcb602"),
    ("weights bad_action.hla --rep bad --cartan h", 1,
     "f1f7e329ef1ab194f954e02cc36bdba3c021f868856d9207aaa621e525be3637"),
    ("rep tensor bad_action.hla --reps bad,bad --n 2", 1,
     "3ce3d022fbc7c973c5575eafa4fa801ae3685041be4947e74132b7e0ebe19a64"),
    # twist_is_bracket_morphism
    ("twist swap.hla --morphism swap", 1,
     "b9665871de1f2bcee545b78ceb647382c18f307e13b9ff4594d39a8a3707b8ac"),
    ("twist swap.hla --morphism swap --induced", 1,
     "b9665871de1f2bcee545b78ceb647382c18f307e13b9ff4594d39a8a3707b8ac"),
    # sigma_automorphism
    ("cyclic swap.hla --lie sl2 --sigma swap --n 2", 1,
     "19633e4019e64b5b88711d66cd30020e87e999fbb47e9fe29fdd2b1ced019954"),
    ("cyclic zero.hla --lie sl2 --sigma zero --n 2", 1,
     "db87a8512938217134a67d7bedb5c0080abf24ef4423a8d298f38a43aa85a5fc"),
    ("rep tensor zero.hla --reps std,std --n 2", 1,
     "f0def3322ad4575fc2f504ad1cfc4f349e810fdd04824991741d773de80b6b69"),
    ("rep tensor swap.hla --reps std,std --n 2", 1,
     "2c8608c3028e2dadfb3888e44e4f13ae2fab081d24c5d1a79f7a6db7f81e23ba"),
    # semisimple
    ("decompose gl2.hla --lie gl2", 1,
     "9ce39ff2f9b6bf2f64cf36e7f46126c1fcb3a5e7d540862fc391844eae048b5d"),
    ("decompose aff1.hla --lie aff1", 1,
     "6251ad8dde865e22896cd6ef9f508b49c7ade0de7e54778168cd9859f2fce580"),
    # jacobi, from the Lie algebra's own report
    ("killing bad_jacobi.hla --lie notlie", 1,
     "f059f4fc4e109eb572de2c89af32c976bfa165efc949103ffa87ca10860500a5"),
    ("decompose bad_jacobi.hla --lie notlie", 1,
     "fdbe86f620a88d28bed84597d19b82948085bdb4c8bd635dca435e4559950ad4"),
    # invertibility
    ("twist flat_zero.hla --morphism zero --induced", 1,
     "26ec9ba02cd4615b121549673247d33cd50fc3686788a2522787d594f6697f94"),
    # decomposition_complete
    ("weights weights.hla --rep unipotent --cartan x", 1,
     "ba643528c0093ab8fd9d1c8a49e0f08f584777b627af0ec5595f30bd85613b6a"),
    ("weights weights.hla --rep irrational --cartan x", 1,
     "d5383c201ad1e9f16d9eec492de140fde5fe66e189dd5015c5bc7906c083f24b"),
    ("weights weights.hla --rep poles --cartan x", 1,
     "9096b1222ac92dcad1710fc9bcee217cf49569469c2555de9a54f98609cea31d"),
    # cartan_commutes
    ("weights swap.hla --rep std --cartan e,f", 1,
     "2804848a5656e7d646dbebcefcdedebe706429824f72991e167cf5fd3eeebbc8"),
    # invertible_intertwiner
    ("rep intertwiner jordan.hla --rep jb --morphism swap", 1,
     "13f9f08256fbb517dde22638c22cf966cd2999ca030aa587eb530f2979d6f44d"),
    ("rep tensor jordan.hla --reps jb,jb --n 2", 1,
     "13d55f40008ed24c4b172fc477c72f21c91c8c32dd013eebbfb66a36d99148a1"),
]


@pytest.fixture
def documents(tmp_path, monkeypatch):
    for name, text in DOCS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("command, code, digest", PINS, ids=[p[0] for p in PINS])
def test_refuted_construction_prints_the_failed_check(documents, capsys, command, code, digest):
    assert main(command.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
