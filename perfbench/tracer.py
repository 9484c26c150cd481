"""Run one homlie command with spans and counters at every layer boundary.

    python3 perfbench/tracer.py SUMMARY.json SPANS.jsonl CMD_ID -- ARGS...

runs ``homlie ARGS...`` in this process, with the report on stdout byte
for byte as the plain command prints it, and the same exit code.  Before
the command starts, every function and method that one homlie module
offers another (public names, plus private names another module imports)
is replaced by a wrapper that belongs to the module's layer.

* A call whose caller is in another layer is a boundary: it gets a span
  (name, start, end, parent, command id) and is timed, and the layer's
  self time is its duration minus the boundary calls made inside it.
  Spans into ``scalar`` are too many to keep one by one; they are summed
  per parent span and name instead.
* A call from the same layer is only counted.
* A few entry points are also timed inclusively, as named phases
  (``sl2.solve_s``, ``linalg.commutant_s``, ...).

Standard-library time (``fractions``, ``json``) is not wrapped, so it
counts toward the layer that called it.  Spans stay in memory and are
written when the command ends, together with the counters.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter_ns

LAYERS = ("scalar", "linalg", "algebra", "rep", "sl2", "weights", "dsl", "cli")

# The methods wrapped on the hot value classes; other classes get all their
# public methods.  Cheap queries such as Scalar.is_zero or
# Matrix.__getitem__ are left alone on purpose.
_METHODS = {
    "Scalar": {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse", "eval"},
    "Poly": {"gcd"},
    "Matrix": {"__matmul__", "__add__", "__sub__", "__neg__", "apply", "transpose",
               "trace", "power", "scale"},
    "Subspace": {"__init__", "contains_vector", "contains", "add", "intersect",
                 "orthogonal_complement", "image_under"},
    "LieRep": {"__post_init__"},
}
_PRIVATE = {"linalg._rref_rows"}  # elimination itself, for its counters

# inclusive phases: name -> wrapped functions it covers
PHASES = {
    "algebra.verify_s": ("algebra.verify_lie_structure", "algebra.verify_hom_lie",
                         "algebra.verify_lie_morphism"),
    "algebra.decompose_s": ("algebra.decompose_simple_ideals",),
    "algebra.killing_s": ("algebra.killing_form",),
    "linalg.commutant_s": ("linalg.solve_commutant",),
    "rep.verify_s": ("rep.LieRep.__post_init__", "rep.verify_hom_rep"),
    "rep.intertwiner_s": ("rep.solve_intertwiner",),
    "sl2.build_family_s": ("sl2.build_family",),
    "sl2.verify_window_s": ("sl2.verify_family_window",),
    "sl2.solve_s": ("sl2.solve_general_parameters",),
    "weights.decomposition_s": ("weights.weight_decomposition",),
    "dsl.parse_s": ("dsl.parse",),
}


class Tracer:
    def __init__(self, cmd_id: int):
        self.cmd_id = cmd_id
        self.names = []                 # wrapped target names, by index
        self.counts = []                # calls per target
        self.self_ns = {layer: 0 for layer in LAYERS}
        self.phase_ns = {phase: 0 for phase in PHASES}
        self.phase_depth = {phase: 0 for phase in PHASES}
        self.stack = [[None, 0, -1]]    # [layer, child ns, span index]
        self.spans = []                 # [name index, start, end, parent span]
        self.scalar_sums = {}           # (parent span, name index) -> [calls, ns]
        self.extra = {
            "gcd_nontrivial": 0, "max_poly_len": 0,
            "rref_cells": 0, "rref_max_cells": 0, "rref_zeros": 0,
            "closures_proper": 0, "bytes_parsed": 0,
        }

    # -- hooks on results, run on every call of their target -------------

    def _returned_scalar(self, args, result):
        n = max(len(result.num.coeffs), len(result.den.coeffs))
        if n > self.extra["max_poly_len"]:
            self.extra["max_poly_len"] = n

    def _gcd(self, args, result):
        if len(result.coeffs) > 1:
            self.extra["gcd_nontrivial"] += 1

    def _rref_entry(self, args):
        rows = args[0]
        cells = len(rows) * len(rows[0]) if rows else 0
        self.extra["rref_cells"] += cells
        self.extra["rref_max_cells"] = max(self.extra["rref_max_cells"], cells)
        self.extra["rref_zeros"] += sum(1 for row in rows for x in row if x.is_zero())

    def _closure(self, args, result):
        if 0 < result.subspace.dim < args[0].dim:
            self.extra["closures_proper"] += 1

    def _parse_entry(self, args):
        self.extra["bytes_parsed"] += len(args[0].encode("utf-8"))

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, layer: str, name: str):
        index = len(self.names)
        self.names.append(name)
        self.counts.append(0)
        counts, stack, spans = self.counts, self.stack, self.spans
        self_ns, scalar_sums = self.self_ns, self.scalar_sums
        phases = [p for p, targets in PHASES.items() if name in targets]
        phase_ns, phase_depth = self.phase_ns, self.phase_depth
        on_entry = {"linalg._rref_rows": self._rref_entry,
                    "dsl.parse": self._parse_entry}.get(name)
        on_exit = {"scalar.Poly.gcd": self._gcd,
                   "algebra.ideal_closure": self._closure}.get(name)
        if layer == "scalar" and name.startswith("scalar.Scalar.") and name != "scalar.Scalar.eval":
            on_exit = self._returned_scalar
        keep_span = layer != "scalar"

        def wrapper(*args, **kwargs):
            counts[index] += 1
            if on_entry is not None:
                on_entry(args)
            parent = stack[-1]
            if parent[0] == layer and not phases:
                result = fn(*args, **kwargs)
                if on_exit is not None:
                    on_exit(args, result)
                return result
            span = len(spans) if keep_span else parent[2]
            if keep_span:
                spans.append([index, 0, 0, parent[2]])
            frame = [layer, 0, span]
            stack.append(frame)
            for p in phases:
                phase_depth[p] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                self_ns[layer] += duration - frame[1]
                parent[1] += duration
                for p in phases:
                    phase_depth[p] -= 1
                    if phase_depth[p] == 0:
                        phase_ns[p] += duration
                if keep_span:
                    spans[span][1], spans[span][2] = start, end
                else:
                    total = scalar_sums.setdefault((parent[2], index), [0, 0])
                    total[0] += 1
                    total[1] += duration
            if on_exit is not None:
                on_exit(args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every boundary target and rebind every homlie reference."""
        modules = {layer: importlib.import_module(f"homlie.{layer}") for layer in LAYERS}
        imported = {
            id(value)
            for layer, module in modules.items()
            for value in vars(module).values()
            if getattr(value, "__module__", None) not in (None, module.__name__)
        }
        replaced = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    if not attr.startswith("_") or id(value) in imported or name in _PRIVATE:
                        replaced[id(value)] = self.wrap(value, layer, name)
                elif (inspect.isclass(value) and value.__module__ == module.__name__
                      and not attr.startswith("_")):
                    chosen = _METHODS.get(attr)
                    for meth, fn in list(vars(value).items()):
                        wanted = meth in chosen if chosen else not meth.startswith("_")
                        if wanted and inspect.isfunction(fn):
                            setattr(value, meth,
                                    self.wrap(fn, layer, f"{layer}.{attr}.{meth}"))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])
        return modules["cli"]

    def summary(self):
        return {
            "cmd": self.cmd_id,
            "self_ns": self.self_ns,
            "phase_ns": self.phase_ns,
            "counts": {n: c for n, c in zip(self.names, self.counts) if c},
            "extra": self.extra,
            "spans": len(self.spans),
        }

    def write_spans(self, out):
        names = self.names
        for index, start, end, parent in self.spans:
            out.write(json.dumps([names[index], start, end, parent, self.cmd_id]) + "\n")
        for (parent, index), (calls, ns) in self.scalar_sums.items():
            out.write(json.dumps({"sum": names[index], "parent": parent,
                                  "calls": calls, "ns": ns, "cmd": self.cmd_id}) + "\n")


def main(argv) -> int:
    summary_path, spans_path, cmd_id, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SUMMARY.json SPANS.jsonl CMD_ID -- ARGS...")
    tracer = Tracer(int(cmd_id))
    cli = tracer.install()
    try:
        code = cli.main(args)
    finally:
        sys.stdout.flush()
        with open(summary_path, "w", encoding="utf-8") as out:
            json.dump(tracer.summary(), out)
        with open(spans_path, "w", encoding="utf-8") as out:
            tracer.write_spans(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
