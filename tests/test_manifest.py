"""Golden replay: the whole benchmark pool, in-process, against the manifest.

``perfbench/manifest.json`` holds the exit code each pool command must
return (fixed when the command is generated) and the sha256 of its
report.  Running commands through ``cli.main`` and comparing both pins
every byte of those reports, and every report is rendered through one
function, so each workload's pool is replayed in full: the 504 distinct
cli-corpus commands, the 176 family-windows commands, whose sl2 tables
and solver runs carry large powers of ``L`` and rational-function
parameters such as ``(L+1)/(L-2)``, and the 160 module-solves commands,
whose intertwiner, weight, tensor, decomposition and Killing reports rest
on exact elimination.  Two narrower replays name the slices that most
often break on their own: the module-solves ``rep tensor`` and
``decompose`` variants, which run the worklist closures and the per-power
module actions, and the family-windows variants with rational-function
parameters, whose normal forms rest on the heuristic gcd.  The generated inputs and a copy of the corpus
snapshot are written under ``tmp_path``; the checkout is only read.
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


def replay_pool(workload, workloads, manifest, tmp_path, monkeypatch, capsys):
    """Every distinct command of the workload's pool, replayed; the count
    of commands and the mismatches."""
    expected = manifest[workload]
    commands = {c.text: c for c in workloads.pool(workload)}
    assert len(commands) == len(expected)
    return len(commands), replay(workloads, commands, expected, tmp_path, monkeypatch, capsys)


def test_cli_corpus_reports_match_the_manifest(
    workloads, manifest, tmp_path, monkeypatch, capsys
):
    args = workloads, manifest, tmp_path, monkeypatch, capsys
    assert replay_pool("cli-corpus", *args) == (504, [])


def test_family_windows_reports_match_the_manifest(
    workloads, manifest, tmp_path, monkeypatch, capsys
):
    args = workloads, manifest, tmp_path, monkeypatch, capsys
    assert replay_pool("family-windows", *args) == (176, [])


def test_module_solves_reports_match_the_manifest(
    workloads, manifest, tmp_path, monkeypatch, capsys
):
    args = workloads, manifest, tmp_path, monkeypatch, capsys
    assert replay_pool("module-solves", *args) == (160, [])


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
