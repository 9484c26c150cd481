"""Record the stdout sha256 of every command any seed can draw.

    python3 perfbench/record_manifest.py [WORKLOAD ...]

Runs each distinct pool command once against the checkout's homlie and
writes ``manifest.json``.  A command whose exit code differs from the
answer fixed at generation is reported and nothing is written, so the
manifest only ever holds verdicts that agree with the known answers.
Re-record only when a change to the reports is the point of a change.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import run
import workloads


def main(names) -> int:
    checkout = run.Checkout(run.ROOT)
    path = run.HERE / "manifest.json"
    manifest = json.loads(path.read_text()) if path.is_file() else {"workloads": {}}
    wrong = []
    for name in names or sorted(workloads.SLOTS):
        commands = {c.text: c for c in workloads.pool(name)}
        workloads.write_inputs(run.ROOT, commands.values())
        hashes, started = {}, time.perf_counter()
        for text, command in commands.items():
            code, out, _, wall, _ = checkout.run(checkout.homlie(command.argv), 600)
            if code != command.expect:
                wrong.append(f"{name} {command.key}: exit {code}, expected {command.expect}")
            hashes[text] = hashlib.sha256(out).hexdigest()
            print(f"{wall:8.3f}s {command.key} exit {code} {text}", flush=True)
        manifest["workloads"][name] = dict(sorted(hashes.items()))
        print(f"{name}: {len(hashes)} commands in {time.perf_counter() - started:.1f}s")
    if wrong:
        print("\n".join(wrong), file=sys.stderr)
        return 1
    manifest["recorded_with"] = run.metadata(run.ROOT)
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
