"""Spans around the package's layers, recorded from outside the package.

`Tracer.install` replaces each hooked function by a wrapper in the
namespace of every `cubicham` module that binds it, so a call from one
module into another is caught too (`cubicham.cli` imports
`enumerate_hamilton_cycles` from `cubicham.hamilton`, for example). A span
is kept in memory as [name, start, end, parent span, operation id, size],
where size is the number of cycles an enumeration returned or of
certificates a classification built. The layers are the package's modules.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (span name, module, attribute); "Class.method" wraps a method.
HOOKS = (
    ("cli", "cubicham.cli", "main"),
    ("multigraph.from_json", "cubicham.multigraph", "from_json"),
    ("multigraph.min_edge_cut", "cubicham.multigraph", "min_edge_cut"),
    ("hamilton.enumerate", "cubicham.hamilton", "enumerate_hamilton_cycles"),
    ("hamilton.parity", "cubicham.hamilton", "edge_parity_report"),
    ("hamilton.lollipop", "cubicham.hamilton", "second_cycle_lollipop"),
    ("incidence.build", "cubicham.incidence", "incidence_multigraph"),
    ("incidence.audit", "cubicham.incidence", "check_pair_sum_even"),
    ("incidence.audit", "cubicham.incidence", "check_uniform_parity"),
    ("chains.parse", "cubicham.chains", "chain_from_json"),
    ("chains.transfer_layer", "cubicham.chains", "transfer_layer"),
    ("chains.layer_build", "cubicham.chains", "_compute_layer"),
    ("chains.classify", "cubicham.chains", "count_limit_hamilton_cycles"),
    ("chains.survival", "cubicham.chains", "_Direction.survival"),
    ("chains.end_degree", "cubicham.chains", "end_degree"),
    ("chains.materialize", "cubicham.chains", "materialize"),
    ("chains.consistency", "cubicham.chains", "truncation_consistency"),
    ("sampling", "cubicham.sampling", "random_cubic_graph"),
    ("sampling", "cubicham.sampling", "random_odd_degree_graph"),
    ("constructions", "cubicham.constructions", "chain_G"),
    ("constructions", "cubicham.constructions", "chain_H"),
    ("constructions", "cubicham.constructions", "chain_Hprime"),
    ("constructions", "cubicham.constructions", "chain_ladder"),
    ("constructions", "cubicham.constructions", "chain_double_ladder"),
)

SIZE = {
    "hamilton.enumerate": len,
    "chains.classify": lambda result: len(result.certificates),
}

# Per-layer metrics. Unless noted, a value is a total over the timed phase
# divided by the commands it completed; sampling and constructions are
# totals over one set-up.
PER_LAYER = (
    ("cli.self_s", "s/op", "lower"),
    ("multigraph.from_json.self_s", "s/op", "lower"),
    ("multigraph.min_edge_cut.calls", "count/op", "lower"),
    ("multigraph.min_edge_cut.self_s", "s/op", "lower"),
    ("hamilton.enumerate.calls", "count/op", "lower"),
    ("hamilton.enumerate.self_s", "s/op", "lower"),
    ("hamilton.enumerate.cycles", "count/op", "lower"),
    ("hamilton.enumerate.cycles_per_s", "1/s", "higher"),
    ("hamilton.parity.self_s", "s/op", "lower"),
    ("hamilton.lollipop.calls", "count/op", "lower"),
    ("hamilton.lollipop.self_s", "s/op", "lower"),
    ("incidence.build.self_s", "s/op", "lower"),
    ("incidence.audit.self_s", "s/op", "lower"),
    ("chains.parse.self_s", "s/op", "lower"),
    ("chains.transfer_layer.calls", "count/op", "lower"),
    ("chains.layer_builds", "count/op", "lower"),
    ("chains.layer_hit_ratio", "ratio", "higher"),
    ("chains.layer_build.self_s", "s/op", "lower"),
    ("chains.classify.self_s", "s/op", "lower"),
    ("chains.survival.self_s", "s/op", "lower"),
    ("chains.end_degree.self_s", "s/op", "lower"),
    ("chains.certificates", "count/op", "lower"),
    ("chains.materialize.calls", "count/op", "lower"),
    ("chains.materialize.self_s", "s/op", "lower"),
    ("chains.consistency.self_s", "s/op", "lower"),
    ("chains.consistency.brute_s", "s/op", "lower"),
    ("sampling.self_s", "s", "lower"),
    ("constructions.self_s", "s", "lower"),
    ("trace.phase_s", "s", "lower"),
    ("trace.spans", "count/op", "lower"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None  # command index; None in set-up, -1 filling the pool
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "cubicham" or k.startswith("cubicham.")]
        for name, module, attr in HOOKS:
            owner = sys.modules.get(module)
            cls, _, func = attr.rpartition(".")
            if cls:
                owner = getattr(owner, cls, None)
            original = getattr(owner, func, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            for target in [owner] if cls else modules:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._undo.append((target, key, original))
                        setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        spans, stack, size, clock = self.spans, self.stack, SIZE.get(name), time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if size:
                    span[5] = size(result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "op", "size")
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}))

    def metrics(self, ops_done: int, phase_s: float, factors: list, setup_factor: float) -> dict:
        """Per-layer metrics; `factors[op]` scales the times of command `op`
        to reference speed, `setup_factor` those of the set-up."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, size in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict = {}  # name -> [calls, self seconds, size], timed phase
        setup: dict = {}
        brute = 0.0
        n_spans = 0
        for i, (name, start, end, parent, op, size) in enumerate(self.spans):
            if op == -1:  # filling the pool after the timed set-up
                continue
            scale = setup_factor if op is None else factors[op]
            acc = (setup if op is None else total).setdefault(name, [0, 0.0, 0])
            acc[0] += 1
            acc[1] += (end - start - child[i]) * scale
            acc[2] += size
            if op is not None:
                n_spans += 1
                if name == "hamilton.enumerate" and parent >= 0 and self.spans[parent][0] == "chains.consistency":
                    brute += (end - start) * scale
        per = max(ops_done, 1)

        def calls(name):
            return total.get(name, [0, 0.0, 0])[0] / per

        def self_s(name):
            return total.get(name, [0, 0.0, 0])[1] / per

        enum = total.get("hamilton.enumerate", [0, 0.0, 0])
        layer_calls = total.get("chains.transfer_layer", [0])[0]
        builds = total.get("chains.layer_build", [0])[0]
        return {
            "cli.self_s": self_s("cli"),
            "multigraph.from_json.self_s": self_s("multigraph.from_json"),
            "multigraph.min_edge_cut.calls": calls("multigraph.min_edge_cut"),
            "multigraph.min_edge_cut.self_s": self_s("multigraph.min_edge_cut"),
            "hamilton.enumerate.calls": calls("hamilton.enumerate"),
            "hamilton.enumerate.self_s": self_s("hamilton.enumerate"),
            "hamilton.enumerate.cycles": enum[2] / per,
            "hamilton.enumerate.cycles_per_s": enum[2] / enum[1] if enum[1] else 0.0,
            "hamilton.parity.self_s": self_s("hamilton.parity"),
            "hamilton.lollipop.calls": calls("hamilton.lollipop"),
            "hamilton.lollipop.self_s": self_s("hamilton.lollipop"),
            "incidence.build.self_s": self_s("incidence.build"),
            "incidence.audit.self_s": self_s("incidence.audit"),
            "chains.parse.self_s": self_s("chains.parse"),
            "chains.transfer_layer.calls": calls("chains.transfer_layer"),
            "chains.layer_builds": calls("chains.layer_build"),
            "chains.layer_hit_ratio": 1 - builds / layer_calls if layer_calls else 0.0,
            "chains.layer_build.self_s": self_s("chains.layer_build"),
            "chains.classify.self_s": self_s("chains.classify"),
            "chains.survival.self_s": self_s("chains.survival"),
            "chains.end_degree.self_s": self_s("chains.end_degree"),
            "chains.certificates": total.get("chains.classify", [0, 0.0, 0])[2] / per,
            "chains.materialize.calls": calls("chains.materialize"),
            "chains.materialize.self_s": self_s("chains.materialize"),
            "chains.consistency.self_s": self_s("chains.consistency"),
            "chains.consistency.brute_s": brute / per,
            "sampling.self_s": setup.get("sampling", [0, 0.0])[1],
            "constructions.self_s": setup.get("constructions", [0, 0.0])[1],
            "trace.phase_s": phase_s,
            "trace.spans": n_spans / per,
        }
