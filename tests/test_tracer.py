"""The tracer behind ``perfbench/run.py --trace 1``, run as a subprocess.

``perfbench/tracer.py`` wraps every layer boundary of homlie and hooks the
private elimination entry ``linalg._rref_rows`` by name, reading the row
lists it is given.  One ``decompose`` and one ``rep intertwiner`` command
of the module-solves pool run under it here: the report must still match
the manifest byte for byte, and the summary must still count the
elimination calls and their cells.  Inputs go under ``tmp_path``.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.mark.parametrize("kind", [("decompose",), ("rep", "intertwiner")])
def test_traced_command_keeps_its_report_and_counts_elimination(workloads, tmp_path, kind):
    command = next(c for c in workloads.pool("module-solves") if c.argv[: len(kind)] == kind)
    workloads.write_inputs(tmp_path, [command])
    expected = json.loads((PERFBENCH / "manifest.json").read_text())["workloads"]["module-solves"]
    summary, spans = tmp_path / "summary.json", tmp_path / "spans.jsonl"
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracer.py"), str(summary), str(spans), "0", "--",
         *command.argv],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, timeout=300,
    )
    assert done.returncode == command.expect, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == expected[command.text]
    traced = json.loads(summary.read_text())
    assert traced["counts"].get("linalg._rref_rows", 0) > 0
    assert traced["extra"]["rref_cells"] > 0
