"""Outside-in layer trace: spans around public elemdiff functions, recorded
from the benchmark's own code.

`instrument` replaces each traced function, in every loaded `elemdiff`
module that holds it, by a wrapper that opens a span and adds counters read
from the call's arguments and result.  Hot inner functions (`monomial_term`,
`relabel`) are not wrapped; their work is counted from results instead.
Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional


@dataclass
class Span:
    name: str
    op: int                  # operation id: spans of one CLI call share it
    start: float
    end: float
    parent: Optional[int]    # index of the enclosing span, None at the top


class Tracer:
    """Span and counter record of one traced pass.  Single-threaded: the
    traced functions are all called from the thread that runs `cli.main`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.op, self.clock(), float("nan"), parent)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def to_json(self) -> list:
        return [asdict(s) for s in self.spans]


def self_times(spans) -> dict:
    """Per span name: summed duration minus that of its direct children.
    Spans come from one thread's span stack, so children nest inside their
    parent and never overlap each other."""
    out = defaultdict(float)
    for s in spans:
        duration = s.end - s.start
        out[s.name] += duration
        if s.parent is not None:
            out[spans[s.parent].name] -= duration
    return dict(out)


# ---------------------------------------------------------------------------
# counters read from arguments and results

def _count_elimination(c, args, result):
    matrix = args["matrix"]
    c["relations.eliminate_mod.rows"] += len(matrix)
    c["relations.eliminate_mod.cols"] += len(matrix[0]) if matrix else 0
    c["relations.eliminate_mod.rank"] += result.rank
    c["relations.eliminate_mod.null_rows"] += len(result.null_rows)


def _count_minor(c, args, result):
    c["relations.minor_is_nonsingular_mod.size"] += len(args["row_positions"])


def _count_sweep(c, args, result):
    c["relations.certify_relation.tuples_checked"] += result.tuples_checked
    c["relations.certify_relation.tuples_skipped"] += result.tuples_skipped_off_layer
    c["relations.certify_relation.term_evals"] += result.tuples_checked * len(args["terms"])
    c["relations.certify_relation.holds"] += bool(result.holds)


def _count_reconstruction(c, args, result):
    c["relations.rational_reconstruct.failed"] += result is None


def _count_build(c, args, result):
    c["relations.build_matrix.entries"] += len(result.data) * result.ncols


def _count_certificate(c, args, result):
    c["relations.dimension_certificate.columns"] += result.columns
    # a relation whose lift failed is recorded with no coefficients
    c["relations.lift.attempted"] += len(result.relations)
    c["relations.lift.ok"] += sum(1 for r in result.relations if r.coeffs)


def _count_orbits(c, args, result):
    c["labelling.enumerate_labelled.orbits"] += len(result)


def _count_trees(c, args, result):
    c["trees.enumerate_trees.trees"] += len(result)


def _no_counts(c, args, result):
    pass


# "module.function" -> counter hook; every traced function also gets a span
TRACED = {
    "relations.eliminate_mod": _count_elimination,
    "relations.minor_is_nonsingular_mod": _count_minor,
    "relations.certify_relation": _count_sweep,
    "relations.rational_reconstruct": _count_reconstruction,
    "relations.build_matrix": _count_build,
    "relations.dimension_certificate": _count_certificate,
    "relations.block_basis": _no_counts,
    "relations.exact_rank": _no_counts,
    "jets.random_jet_tuple": _no_counts,
    "labelling.enumerate_labelled": _count_orbits,
    "labelling.canonicalize_labelled": _no_counts,
    "trees.enumerate_trees": _count_trees,
    "groups.subgroup_classes": _no_counts,
    "groups.constraint_scan": _no_counts,
    "groups.character_table": _no_counts,
    # the CLI's own orbit canonicaliser behind `trees canon`
    "cli._orbit_representatives": _no_counts,
}


def _wrap(tracer: Tracer, name: str, fn, hook):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        hook(tracer.counters, signature.bind(*args, **kwargs).arguments, result)
        return result
    return traced


def instrument(tracer: Tracer):
    """Wrap every TRACED function wherever a loaded elemdiff module refers to
    it; returns a function that puts the originals back.  A traced function
    the package no longer has raises, so TRACED is updated on purpose."""
    loaded = [m for key, m in list(sys.modules.items())
              if m is not None and (key == "elemdiff" or key.startswith("elemdiff."))]
    replaced = []
    for qualified, hook in TRACED.items():
        module_name, attr = qualified.rsplit(".", 1)
        original = getattr(sys.modules[f"elemdiff.{module_name}"], attr)
        wrapper = _wrap(tracer, qualified, original, hook)
        for module in loaded:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    replaced.append((module, key, original))

    def restore():
        for module, key, original in replaced:
            setattr(module, key, original)
    return restore


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

SELF_TIMES = (*TRACED, "cli.main")
CALLS = ("relations.certify_relation", "relations.rational_reconstruct",
         "labelling.canonicalize_labelled")
COUNTS = (
    "relations.eliminate_mod.rows", "relations.eliminate_mod.cols",
    "relations.eliminate_mod.rank", "relations.eliminate_mod.null_rows",
    "relations.minor_is_nonsingular_mod.size",
    "relations.certify_relation.tuples_checked",
    "relations.certify_relation.tuples_skipped",
    "relations.certify_relation.term_evals",
    "relations.rational_reconstruct.failed",
    "relations.build_matrix.entries",
    "relations.dimension_certificate.columns",
    "labelling.enumerate_labelled.orbits", "trees.enumerate_trees.trees",
)


def _ratio(num, den) -> float:
    """num/den, and 0 when nothing was attempted."""
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer name -> (value, unit) for one traced pass."""
    spans = tracer.spans
    selfs = self_times(spans)
    c = tracer.counters
    calls = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
    out = {}
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = (selfs.get(name, 0.0), "s")
    for name in CALLS:
        out[f"{name}.calls"] = (calls[name], "count")
    for name in COUNTS:
        out[name] = (int(c[name]), "count")
    batches = sum(1 for s in spans if s.name == "relations.build_matrix"
                  and s.parent is not None
                  and spans[s.parent].name == "relations.dimension_certificate")
    out["relations.dimension_certificate.batches"] = (batches, "count")
    sweeps = calls["relations.certify_relation"]
    sweep_s = sum(s.end - s.start for s in spans if s.name == "relations.certify_relation")
    out["relations.certify_relation.tuples_per_s"] = (
        _ratio(c["relations.certify_relation.tuples_checked"], sweep_s), "1/s")
    out["relations.certify_relation.holds_ratio"] = (
        _ratio(c["relations.certify_relation.holds"], sweeps), "ratio")
    out["relations.lift.ok_ratio"] = (
        _ratio(c["relations.lift.ok"], c["relations.lift.attempted"]), "ratio")
    out["cli.artifact_bytes"] = (int(c["cli.artifact_bytes"]), "bytes")
    return out
