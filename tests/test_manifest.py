"""Golden replay: every command of the benchmark's cli-corpus pool, in-process.

``perfbench/manifest.json`` holds the exit code each pool command must
return (fixed when the command is generated) and the sha256 of its
report.  Running the 504 distinct cli-corpus commands through
``cli.main`` and comparing both pins every byte of those reports.  The
generated inputs and a copy of the corpus snapshot are written under
``tmp_path``; the checkout is only read.
"""

import hashlib
import json
import shutil
import sys
from pathlib import Path

import pytest

from homlie.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOAD = "cli-corpus"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


def test_cli_corpus_reports_match_the_manifest(workloads, tmp_path, monkeypatch, capsys):
    manifest = json.loads((PERFBENCH / "manifest.json").read_text())["workloads"][WORKLOAD]
    commands = {c.text: c for c in workloads.pool(WORKLOAD)}
    assert len(commands) == len(manifest) == 504

    workloads.write_inputs(tmp_path, commands.values())
    shutil.copytree(PERFBENCH / "corpus", tmp_path / workloads.CORPUS_DIR)
    monkeypatch.chdir(tmp_path)

    wrong = []
    for text, command in commands.items():
        code = main(list(command.argv))
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        if code != command.expect or digest != manifest[text]:
            wrong.append(f"{command.key}: exit {code} (expected {command.expect}) {text}")
    assert wrong == []
