"""Golden replay: benchmark pool commands, in-process, against the manifest.

``perfbench/manifest.json`` holds the exit code each pool command must
return (fixed when the command is generated) and the sha256 of its
report.  Running commands through ``cli.main`` and comparing both pins
every byte of those reports: the 504 distinct cli-corpus commands,
variant 0 of each of the 44 family-windows slots, whose sl2 tables and
solver runs carry large powers of ``L``, and variant 0 of each of the 40
module-solves slots, whose intertwiner, weight, tensor, decomposition
and Killing reports rest on exact elimination, plus every variant of the
module-solves ``rep tensor`` and ``decompose`` slots, which run the worklist
closures and the per-power module actions, and every variant of the
family-windows slots with rational-function parameters such as
``(L+1)/(L-2)``, whose normal forms rest on the heuristic gcd.  The generated inputs and a
copy of the corpus snapshot are written under ``tmp_path``; the checkout
is only read.
"""

import hashlib
import json
import shutil
import sys
from pathlib import Path

import pytest

from homlie.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.fixture(scope="module")
def manifest():
    return json.loads((PERFBENCH / "manifest.json").read_text())["workloads"]


def replay(workloads, commands, expected, tmp_path, monkeypatch, capsys):
    """The commands whose exit code or stdout sha256 differ from the manifest."""
    workloads.write_inputs(tmp_path, commands.values())
    shutil.copytree(PERFBENCH / "corpus", tmp_path / workloads.CORPUS_DIR)
    monkeypatch.chdir(tmp_path)

    wrong = []
    for text, command in commands.items():
        code = main(list(command.argv))
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        if code != command.expect or digest != expected[text]:
            wrong.append(f"{command.key}: exit {code} (expected {command.expect}) {text}")
    return wrong


def test_cli_corpus_reports_match_the_manifest(
    workloads, manifest, tmp_path, monkeypatch, capsys
):
    expected = manifest["cli-corpus"]
    commands = {c.text: c for c in workloads.pool("cli-corpus")}
    assert len(commands) == len(expected) == 504
    assert replay(workloads, commands, expected, tmp_path, monkeypatch, capsys) == []


def test_family_windows_reports_match_the_manifest(
    workloads, manifest, tmp_path, monkeypatch, capsys
):
    expected = manifest["family-windows"]
    pool = workloads.pool("family-windows")
    commands = {c.text: c for c in pool if c.key.endswith("v0")}
    assert len(pool) == len(expected) == 176 and len(commands) == 44
    assert replay(workloads, commands, expected, tmp_path, monkeypatch, capsys) == []


def test_module_solves_reports_match_the_manifest(
    workloads, manifest, tmp_path, monkeypatch, capsys
):
    expected = manifest["module-solves"]
    pool = workloads.pool("module-solves")
    commands = {c.text: c for c in pool if c.key.endswith("v0")}
    assert len(pool) == len(expected) == 160 and len(commands) == 40
    assert replay(workloads, commands, expected, tmp_path, monkeypatch, capsys) == []


def test_module_solves_tensor_and_decompose_variants_match_the_manifest(
    workloads, manifest, tmp_path, monkeypatch, capsys
):
    expected = manifest["module-solves"]
    commands = {
        c.text: c for c in workloads.pool("module-solves")
        if c.argv[0] == "decompose" or c.argv[:2] == ("rep", "tensor")
    }
    assert len(commands) == 52 and {c.key[-2:] for c in commands.values()} == {
        "v0", "v1", "v2", "v3"
    }
    assert replay(workloads, commands, expected, tmp_path, monkeypatch, capsys) == []


def test_family_windows_rational_function_variants_match_the_manifest(
    workloads, manifest, tmp_path, monkeypatch, capsys
):
    expected = manifest["family-windows"]
    commands = {
        c.text: c for c in workloads.pool("family-windows")
        if any("(" in arg for arg in c.argv)
    }
    slots = {int(c.key[2:-2]) for c in commands.values()}
    assert len(commands) == 64 and slots == {19, *range(25, 37), 41, 42, 43}
    assert replay(workloads, commands, expected, tmp_path, monkeypatch, capsys) == []
