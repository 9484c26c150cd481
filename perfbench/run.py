"""The homlie benchmark: seeded CLI workloads, checked verdicts, metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere; it works in the checkout that holds this directory and
builds nothing (homlie is pure Python under ``src/``).  Inputs, results
and spans go under ``.perfbench/`` in the checkout.

Untraced (``--trace 0``): the seed picks the workload's commands (see
``workloads.py``).  One client runs them as a closed loop, one ``homlie``
subprocess at a time, the way users and CI call the tool.  Whole passes
over the command list repeat until ``--seconds`` would be exceeded (at
least one pass).  Every verdict is checked: the exit code against the
answer fixed at generation, and the stdout sha256 against
``manifest.json``.  The end-to-end metrics:

* ``setup_s``: median wall time of cold starts of ``homlie --version``
  (interpreter start, ``import homlie.cli``, argument parser), 10 per
  pass, spread over the pass between commands.
* ``verdicts_per_s``: commands completed per second of their summed wall
  time.
* ``verdict_p50_s``: median over commands of each command's median wall
  time, from launch to exit.
* ``verdict_tail_s``: over the same per-command times, the highest of
  p99.9/p99/p95/p90/p75/p50 with at least ten commands beyond it; the
  results name the percentile and the command count.
* ``cpu_s``: user plus sys CPU seconds of the CLI children for one pass
  over the command list (median over passes).
* ``peak_rss_mb``: the largest max-RSS of any CLI child.

Traced (``--trace 1``): one untraced pass, then one pass with every
command run under ``tracer.py``; stdout hashes and exit codes of the two
must agree.  Prints the per-layer metrics (``LAYER_METRICS``) and the
tracing overhead.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Exit status 0 whenever the benchmark ran, also when verdicts
were wrong (``correct`` is then false); 2 when the checkout cannot run it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
DEADLINE_S = 150.0        # stop starting commands after this, to end within 180 s
SETUP_STARTS = 10         # cold starts per pass, for setup_s
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# per-layer metric -> (unit, better); the order is the report order
LAYER_METRICS = {
    "scalar.self_s": ("s", "lower"),
    "scalar.mul_calls": ("count", "lower"),
    "scalar.pow_calls": ("count", "lower"),
    "scalar.gcd_calls": ("count", "lower"),
    "scalar.gcd_nontrivial_ratio": ("ratio", "higher"),
    "scalar.max_poly_len": ("count", "lower"),
    "linalg.self_s": ("s", "lower"),
    "linalg.rref_calls": ("count", "lower"),
    "linalg.rref_cells": ("count", "lower"),
    "linalg.rref_max_cells": ("count", "lower"),
    "linalg.rref_zero_share": ("ratio", "lower"),
    "linalg.commutant_s": ("s", "lower"),
    "linalg.matmul_calls": ("count", "lower"),
    "algebra.self_s": ("s", "lower"),
    "algebra.verify_s": ("s", "lower"),
    "algebra.decompose_s": ("s", "lower"),
    "algebra.killing_s": ("s", "lower"),
    "algebra.closure_calls": ("count", "lower"),
    "algebra.proper_ideal_ratio": ("ratio", "higher"),
    "rep.self_s": ("s", "lower"),
    "rep.verify_s": ("s", "lower"),
    "rep.intertwiner_s": ("s", "lower"),
    "sl2.self_s": ("s", "lower"),
    "sl2.build_family_s": ("s", "lower"),
    "sl2.verify_window_s": ("s", "lower"),
    "sl2.solve_s": ("s", "lower"),
    "sl2.indices_checked": ("count", "higher"),
    "weights.self_s": ("s", "lower"),
    "weights.decomposition_s": ("s", "lower"),
    "dsl.self_s": ("s", "lower"),
    "dsl.parse_s": ("s", "lower"),
    "dsl.bytes_parsed": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "cli.exit0": ("count", "higher"),
    "cli.exit1": ("count", "lower"),
    "cli.exit2": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


class Checkout:
    """The tree being measured: how to start homlie in it."""

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def usable(self) -> bool:
        return (self.root / "src" / "homlie" / "cli.py").is_file()

    def homlie(self, args):
        return [sys.executable, "-m", "homlie.cli", *args]

    def traced(self, args, summary: Path, spans: Path, cmd_id: int):
        return [sys.executable, str(HERE / "tracer.py"), str(summary), str(spans),
                str(cmd_id), "--", *args]

    def run(self, argv, timeout: float):
        """Run one child to exit; (exit code, stdout, stderr, wall s,
        cpu s).  The child is killed after `timeout` seconds.  Children
        run one at a time, so the growth of RUSAGE_CHILDREN is this one's."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=self.root, env=self.env,
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            try:
                out, err = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return proc.returncode, out, err, wall, cpu


def peak_child_rss_mb() -> float:
    """Largest max-RSS of any child waited for so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def verdict_problem(command, code, out, err, want_sha):
    """Why a finished command's verdict is wrong, or None."""
    if code != command.expect:
        return f"exit {code}, expected {command.expect}"
    if want_sha is None:
        return "command has no manifest entry"
    if hashlib.sha256(out).hexdigest() != want_sha:
        return "stdout differs from the manifest"
    if b"Traceback" in err:
        return "traceback on stderr"
    if code == 2:
        try:
            json.loads(err)["error"]
        except (ValueError, KeyError, TypeError):
            return "exit 2 without a JSON error on stderr"
    return None


def tail_percentile(n: int) -> float:
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def nearest_rank(sorted_values, p: float):
    k = max(1, -(-len(sorted_values) * p // 100))  # ceil(n p / 100)
    return sorted_values[int(k) - 1]


def metadata(root: Path) -> dict:
    rev = "unknown"  # a checkout without .git has no revision to report
    if (root / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {"python": platform.python_version(), "platform": platform.platform(),
            "git_revision": rev, "src_lines": src_lines}


class Bench:
    def __init__(self, checkout: Checkout, workload: str, seed: int):
        self.checkout = checkout
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.commands = workloads.select(workload, seed)
        manifest = json.loads((HERE / "manifest.json").read_text())
        self.expected_sha = manifest["workloads"].get(workload, {})
        self.scratch = WORK / "run"
        self.scratch.mkdir(parents=True, exist_ok=True)
        workloads.write_inputs(checkout.root, self.commands)
        self.problems = []      # (command key, reason)
        self.attempted = 0
        self.failed = 0         # command runs with a wrong verdict

    def fail(self, command, reason: str):
        self.attempted += 1
        self.failed += 1
        self.problems.append((command.key, reason))

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def cold_start(self) -> float:
        """Wall time of one `homlie --version` from a fresh interpreter."""
        code, _, _, wall, _ = self.checkout.run(self.checkout.homlie(["--version"]), 60)
        if code != 0:
            self.problems.append(("setup", f"homlie --version exited {code}"))
        return wall

    def run_pass(self, traced: bool = False, setup=None):
        """One pass over the command list; records per command, or None
        for commands the deadline left unstarted.  With a `setup` list,
        cold starts are interleaved with the commands and timed into it,
        so that set-up time is sampled across the whole run."""
        records = []
        every = -(-len(self.commands) // SETUP_STARTS)
        for i, command in enumerate(self.commands):
            if setup is not None and i % every == 0:
                setup.append(self.cold_start())
            left = self.remaining()
            if left <= 0:
                self.fail(command, "not started before the deadline")
                records.append(None)
                continue
            if traced:
                summary = self.scratch / f"trace-{i:03d}.json"
                spans = self.scratch / f"spans-{i:03d}.jsonl"
                argv = self.checkout.traced(command.argv, summary, spans, i)
            else:
                argv = self.checkout.homlie(command.argv)
            code, out, errtext, wall, cpu = self.checkout.run(argv, left)
            problem = verdict_problem(command, code, out, errtext,
                                      self.expected_sha.get(command.text))
            if problem:
                self.fail(command, problem)
            else:
                self.attempted += 1
            records.append({"code": code, "sha": hashlib.sha256(out).hexdigest(),
                            "bytes": len(out), "stdout": out, "wall": wall,
                            "cpu": cpu})
        return records

    # -- untraced ----------------------------------------------------------

    def measure(self, seconds: float):
        self.cold_start()  # fill the bytecode cache first
        setup, passes, elapsed = [], [], 0.0
        while True:
            t0 = time.perf_counter()
            passes.append(self.run_pass(setup=setup))
            last = time.perf_counter() - t0
            elapsed += last
            if elapsed + last > seconds or self.remaining() < last:
                break
        per_command = []
        for i in range(len(self.commands)):
            walls = [p[i]["wall"] for p in passes if p[i] is not None]
            if walls:
                per_command.append(statistics.median(walls))
        per_command.sort()
        done = [r for p in passes for r in p if r is not None]
        cpu = statistics.median(sum(r["cpu"] for r in p if r) for p in passes)
        tail_p = tail_percentile(len(per_command))
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "verdicts_per_s": (len(done) / sum(r["wall"] for r in done), "1/s"),
            "verdict_p50_s": (statistics.median(per_command), "s"),
            "verdict_tail_s": (nearest_rank(per_command, tail_p), "s"),
            "cpu_s": (cpu, "s"),
            "peak_rss_mb": (peak_child_rss_mb(), "MB"),
        }
        details = {"passes": len(passes), "commands": len(self.commands),
                   "tail_percentile": tail_p, "tail_samples": len(per_command),
                   "setup_samples": setup, "elapsed_s": elapsed}
        return metrics, details, passes

    # -- traced ------------------------------------------------------------

    def trace(self):
        t0 = time.perf_counter()
        plain = self.run_pass()
        untraced_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        traced = self.run_pass(traced=True)
        traced_wall = time.perf_counter() - t0
        # Both passes were held to the manifest already; this names the cause.
        for command, a, b in zip(self.commands, plain, traced):
            if a and b and (a["sha"], a["code"]) != (b["sha"], b["code"]):
                self.problems.append((command.key, "traced stdout or exit differs"))
        summaries = []
        spans_out = WORK / "trace" / f"{self.workload}.spans.jsonl"
        spans_out.parent.mkdir(parents=True, exist_ok=True)
        with open(spans_out, "w", encoding="utf-8") as out:
            for i, record in enumerate(traced):
                summary = self.scratch / f"trace-{i:03d}.json"
                spans = self.scratch / f"spans-{i:03d}.jsonl"
                if record is None or not summary.is_file():
                    continue
                summaries.append(json.loads(summary.read_text()))
                out.write(spans.read_text())
                summary.unlink()
                spans.unlink()
        metrics = layer_metrics(summaries, [r for r in plain if r])
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics = {name: (value, LAYER_METRICS[name][0]) for name, value in metrics.items()}
        details = {"commands": len(self.commands), "spans_file": str(spans_out.relative_to(ROOT))}
        return metrics, details, [plain, traced]


def _indices_checked(stdout: bytes) -> int:
    try:
        checks = json.loads(stdout).get("checks", [])
    except ValueError:
        return 0
    return sum(c.get("witness", {}).get("indices_checked", 0)
               for c in checks if isinstance(c.get("witness"), dict))


def layer_metrics(summaries, plain_records) -> dict:
    """Sum the per-command tracer summaries into the per-layer metrics."""
    self_ns, phase_ns, counts, extra = {}, {}, {}, {}
    spans = 0
    for s in summaries:
        for table, into in ((s["self_ns"], self_ns), (s["phase_ns"], phase_ns),
                            (s["counts"], counts)):
            for k, v in table.items():
                into[k] = into.get(k, 0) + v
        for k, v in s["extra"].items():
            extra[k] = max(extra.get(k, 0), v) if k.startswith(("max_", "rref_max")) \
                else extra.get(k, 0) + v
        spans += s["spans"]

    def c(*names):
        return sum(counts.get(n, 0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {f"{layer}.self_s": self_ns.get(layer, 0) / 1e9
           for layer in ("scalar", "linalg", "algebra", "rep", "sl2", "weights", "dsl", "cli")}
    out.update({phase: ns / 1e9 for phase, ns in phase_ns.items()})
    gcds = c("scalar.Poly.gcd")
    cells = extra.get("rref_cells", 0)
    closures = c("algebra.ideal_closure")
    out.update({
        "scalar.mul_calls": c("scalar.Scalar.__mul__", "scalar.Scalar.__rmul__"),
        "scalar.pow_calls": c("scalar.Scalar.__pow__"),
        "scalar.gcd_calls": gcds,
        "scalar.gcd_nontrivial_ratio": ratio(extra.get("gcd_nontrivial", 0), gcds),
        "scalar.max_poly_len": extra.get("max_poly_len", 0),
        "linalg.rref_calls": c("linalg._rref_rows"),
        "linalg.rref_cells": cells,
        "linalg.rref_max_cells": extra.get("rref_max_cells", 0),
        "linalg.rref_zero_share": ratio(extra.get("rref_zeros", 0), cells),
        "linalg.matmul_calls": c("linalg.Matrix.__matmul__"),
        "algebra.closure_calls": closures,
        "algebra.proper_ideal_ratio": ratio(extra.get("closures_proper", 0), closures),
        "sl2.indices_checked": sum(_indices_checked(r["stdout"]) for r in plain_records),
        "dsl.bytes_parsed": extra.get("bytes_parsed", 0),
        "cli.report_bytes": sum(r["bytes"] for r in plain_records),
        "cli.exit0": sum(1 for r in plain_records if r["code"] == 0),
        "cli.exit1": sum(1 for r in plain_records if r["code"] == 1),
        "cli.exit2": sum(1 for r in plain_records if r["code"] == 2),
        "trace.spans": spans,
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SLOTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Checkout(ROOT)
    if not checkout.usable():
        print(f"no homlie sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    corpus = HERE / "corpus"
    problems = oracle.self_test((corpus / "sl2.hla").read_text(),
                                (corpus / "bad_jacobi.hla").read_text())
    bench = Bench(checkout, args.workload, args.seed)
    bench.problems += [("oracle", p) for p in problems]
    if args.trace:
        metrics, details, passes = bench.trace()
    else:
        metrics, details, passes = bench.measure(args.seconds)

    failed = bench.failed
    result_meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        **details, **metadata(ROOT),
        "failed_ratio": failed / max(bench.attempted, 1),
        "problems": bench.problems[:50],
        "commands": [
            {"key": c.key, "argv": list(c.argv), "expect": c.expect,
             "runs": [{k: r[k] for k in ("code", "sha", "wall", "cpu")}
                      for r in (p[i] for p in passes) if r]}
            for i, c in enumerate(bench.commands)
        ],
    }
    results = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    payload = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    results.write_text(json.dumps({"metrics": payload, **result_meta}, indent=1))

    for key, reason in bench.problems[:20]:
        print(f"FAILED {key}: {reason}")
    print(f"{args.workload} seed {args.seed}: {bench.attempted} commands attempted, "
          f"{failed} failed (failed_ratio {result_meta['failed_ratio']:.4f}); "
          + ", ".join(f"{k}={v}" for k, v in details.items()
                      if k in ("passes", "tail_percentile", "tail_samples")))
    print(f"results: {results.relative_to(ROOT)}")
    print(json.dumps({"correct": not bench.problems, "attempted": bench.attempted,
                      "failed": failed, "metrics": payload}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
