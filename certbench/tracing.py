"""Spans around the calls into each qgrs layer, recorded from outside.

qgrs binds many names with ``from ... import``, so a function is wrapped in
every namespace that calls it, not only where it is defined: for instance
``constructions.all_nonzero_in_span`` and ``solver.all_nonzero_in_span`` are
two bindings of one function, and each gets a wrapper.  Scalar
``FieldSpec.*_code`` methods are not wrapped; they are too hot.

A span is (name, start, end, parent span index, op id).  Spans stay in
memory and are written out once, when the run ends.  A span name's first
dotted part is its layer.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

# (owner, attribute, span name): owner is "module" or "module:Class"
SITES = [
    ("qgrs.field", "field_for_q", "field.field_for_q"),
    ("qgrs.constructions", "field_for_q", "field.field_for_q"),
    ("qgrs.cli", "make_field", "field.make_field"),
    ("qgrs.constructions", "construct", "constructions.construct"),
    ("qgrs.constructions", "to_quantum", "constructions.to_quantum"),
    ("qgrs.constructions", "solve_projective_unique", "solver.projective_unique"),
    ("qgrs.constructions", "solve_all_nonzero", "solver.all_nonzero"),
    ("qgrs.constructions", "descend_to_base", "solver.descend"),
    ("qgrs.constructions", "all_nonzero_in_span", "solver.span_search"),
    ("qgrs.solver", "all_nonzero_in_span", "solver.span_search"),
    ("qgrs.matrix:FMatrix", "rref", "matrix.rref"),
    ("qgrs.verifier", "generator_matrix", "grs.generator_matrix"),
    ("qgrs.verifier", "hermitian_gram", "grs.gram"),
    ("qgrs.verifier", "dual_containment_check", "grs.interp"),
    ("qgrs.bulk", "batch_minors_nonsingular", "bulk.batch_minors"),
    ("qgrs.bulk", "combinations_array", "bulk.combinations"),
    ("qgrs.bulk", "newton_coefficients", "bulk.newton"),
    ("qgrs.bulk", "power_codes", "bulk.power_codes"),
    ("qgrs.verifier", "certify", "verifier.certify"),
    ("qgrs.verifier", "check_mds_minors", "verifier.minors"),
    ("qgrs.verifier", "check_min_distance_exhaustive", "verifier.exhaustive"),
    ("qgrs.verifier", "structural_minor_certificate", "verifier.structural"),
    ("qgrs.cli", "decode_document", "cli.decode"),
    ("qgrs.cli", "encode_document", "cli.encode"),
]

LAYERS = ("field", "constructions", "solver", "matrix", "grs", "bulk",
          "verifier", "cli")


def _construct_counts(spec) -> dict[str, int]:
    prov = spec.provenance or {}
    if prov.get("family") != 5:
        return {}
    return {"f5_ops": 1, "f5_kernel_ops": int(prov.get("path") == "kernel")}


# counters taken from public return values, keyed by span name
COUNTS: dict[str, Callable[[Any], dict[str, int]]] = {
    "constructions.construct": _construct_counts,
    "verifier.minors": lambda rep: {"minors_checked": rep.checked},
    "verifier.exhaustive": lambda rep: {"words_checked": rep.checked},
    "verifier.structural": lambda rep: {"structural_samples": rep.checked},
}

# per-layer metric -> (span name, what to take); "s" is inclusive seconds
# per op, "calls" is calls per op
SPAN_METRICS = {
    "constructions.construct_s": ("constructions.construct", "s"),
    "constructions.construct_calls": ("constructions.construct", "calls"),
    "solver.projective_unique_s": ("solver.projective_unique", "s"),
    "solver.all_nonzero_s": ("solver.all_nonzero", "s"),
    "solver.descend_s": ("solver.descend", "s"),
    "solver.span_search_s": ("solver.span_search", "s"),
    "solver.span_search_calls": ("solver.span_search", "calls"),
    "matrix.rref_s": ("matrix.rref", "s"),
    "matrix.rref_calls": ("matrix.rref", "calls"),
    "grs.generator_matrix_s": ("grs.generator_matrix", "s"),
    "grs.gram_s": ("grs.gram", "s"),
    "grs.interp_s": ("grs.interp", "s"),
    "bulk.batch_minors_s": ("bulk.batch_minors", "s"),
    "bulk.minor_batches": ("bulk.batch_minors", "calls"),
    "bulk.combinations_s": ("bulk.combinations", "s"),
    "bulk.newton_s": ("bulk.newton", "s"),
    "bulk.power_codes_s": ("bulk.power_codes", "s"),
    "verifier.certify_s": ("verifier.certify", "s"),
    "verifier.minors_s": ("verifier.minors", "s"),
    "verifier.exhaustive_s": ("verifier.exhaustive", "s"),
    "verifier.structural_s": ("verifier.structural", "s"),
    "cli.decode_s": ("cli.decode", "s"),
    "cli.encode_s": ("cli.encode", "s"),
}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans while installed; restores every binding on uninstall."""

    OP = "op"

    def __init__(self) -> None:
        # a slot is None only while its span is open
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self.op_id = -1

    def _open(self) -> int:
        self.spans.append(None)
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, name: str, t0: float) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, t0, t1, parent, self.op_id)

    def wrap(self, name: str, fn: Callable) -> Callable:
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, t0)
            if count is not None:
                self.counts.update(count(result))
            return result

        return traced

    def run_op(self, op_id: int, fn: Callable[[], Any]) -> Any:
        """Run one operation under a root span named ``op``."""
        self.op_id = op_id
        idx = self._open()
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self._close(idx, self.OP, t0)

    def install(self) -> None:
        for owner, attr, name in SITES:
            obj = _resolve(owner)
            orig = getattr(obj, attr)
            self._saved.append((obj, attr, orig))
            setattr(obj, attr, self.wrap(name, orig))

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, orig = self._saved.pop()
            setattr(obj, attr, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-op layer metrics: inclusive span times and calls, counters,
        each layer's self time, and the share of op time no span covers."""
        child_time = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        total: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        self_time: dict[str, float] = defaultdict(float)
        for (name, t0, t1, _, _), child in zip(self.spans, child_time):
            calls[name] += 1
            total[name] += t1 - t0
            self_time[name.split(".")[0]] += t1 - t0 - child
        n_ops = calls[self.OP] or 1
        out: dict[str, float] = {}
        for metric, (name, kind) in SPAN_METRICS.items():
            out[metric] = (total[name] if kind == "s" else calls[name]) / n_ops
        c = self.counts
        out["constructions.f5_kernel_ratio"] = (
            c["f5_kernel_ops"] / c["f5_ops"] if c["f5_ops"] else 0.0)
        out["verifier.minors_checked"] = c["minors_checked"] / n_ops
        out["verifier.minors_per_s"] = _rate(c["minors_checked"],
                                             total["verifier.minors"])
        out["verifier.words_checked"] = c["words_checked"] / n_ops
        out["verifier.words_per_s"] = _rate(c["words_checked"],
                                            total["verifier.exhaustive"])
        out["verifier.structural_samples"] = c["structural_samples"] / n_ops
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer] / n_ops
        op_time = total[self.OP]
        out["trace.uncovered_share"] = (self_time[self.OP] / op_time
                                        if op_time else 0.0)
        return out

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], *s[1:]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "names": names, "spans": rows}, fh)


def _rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
