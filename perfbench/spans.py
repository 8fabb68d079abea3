"""Outside-in span tracing for the keyvariety benchmark.

The tracer wraps public functions of the keyvariety modules from outside the
package: each wrapped name is replaced in every keyvariety module that holds
it (a name imported with ``from .x import f`` is a separate binding per
module), and the two ``CompiledSystem`` kernels are replaced on the class.
Spans (name, start, end, parent, thread id, counters) are kept in memory and
written as JSON when the workload ends. Scan worker threads record their spans
with their own thread id; a span opened in a worker with no open span of its
own takes the main thread's innermost open span as parent.

Run a workload traced:

    python3 perfbench/spans.py SPANS.json cli run --threads 2 --config C --out R
    python3 perfbench/spans.py SPANS.json fibers-p3 --seed 1 --out R

``summarize`` turns a spans file into the per-layer metrics.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict


def _points_block_counters(result, n, p, start, stop):
    return {"rows": stop - start, "bytes": (stop - start) * (n + 1) * 8}


def _kernel_counters(result, system, pts, p):
    return {"rows": int(pts.shape[0]),
            "rowgens": int(pts.shape[0]) * len(system.compiled)}


def _rank_batch_counters(result, mats, p):
    return {"matrices": int(mats.shape[0])}


# (module, attribute, counters) for every span-recording wrapper. A counters
# function gets the result followed by the call's arguments; "scan" and
# "fiber" name the Tracer methods that also need the tracer's state.
SPAN_TARGETS = (
    ("projspace", "scan_system", "scan"),
    ("projspace", "points_block", _points_block_counters),
    ("projspace", "CompiledSystem.vanishing_mask", _kernel_counters),
    ("projspace", "CompiledSystem.eval_block", _kernel_counters),
    ("algebra", "matrix_rank_mod_p_batch", _rank_batch_counters),
    ("invariants", "two_path_count_check", None),
    ("invariants", "estimate_dimension", None),
    ("invariants", "singular_scan", None),
    ("incidence", "fiber_over", "fiber"),
    ("incidence", "base_points", None),
    ("incidence", "fiber_birationality_check", None),
    ("sections", "section_report", None),
    ("sections", "random_section", None),
    ("catalog", "build_case", None),
    ("catalog", "pinned_coordinate_change", None),
    ("numerology", "run_ledger", None),
)

# Scalar F_p eliminations run millions of times inside fiber probes; they are
# counted, not spanned, so that the trace does not swamp the probes.
COUNT_TARGETS = (
    ("algebra", "matrix_rank_mod_p"),
    ("algebra", "nullspace_mod_p"),
)

class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list = []
        self._main = threading.get_ident()
        self._scanned_keys: set = set()

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span_wrapper(self, name, fn, counters):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            attrs = counters(result, *args, **kwargs) if counters else None
            self.spans.append(
                [sid, name, t0, t1, parent, threading.get_ident(), attrs])
            return result
        return wrapper

    def count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _fiber_counters(self, base_points):
        def counters(result, case, t, p, confirmed_surface_count=None):
            return {"base_points": len(base_points(case, p))}
        return counters

    def _scan_counters(self, result, plan, polys, threads=None,
                       sample_cap=None, collect=False):
        """A rescan is a scan of a (generators, prime) pair already scanned
        earlier in the same launch."""
        summary = result[0] if collect else result
        key = (tuple(str(f) for f in polys), int(plan.prime))
        attrs = {"points": int(plan.total), "matched": int(summary.matched),
                 "rescan": key in self._scanned_keys,
                 "collected": int(result[1].shape[0]) if collect else 0}
        self._scanned_keys.add(key)
        return attrs

    def install(self) -> None:
        """Patch every target; raise AttributeError if one is gone."""
        import keyvariety
        import keyvariety.cli  # noqa: F401  (imported so its names get patched)
        modules = [m for n, m in sys.modules.items()
                   if n == "keyvariety" or n.startswith("keyvariety.")]
        base_points = keyvariety.incidence.base_points
        for modname, attr, counters in SPAN_TARGETS:
            if counters == "fiber":
                counters = self._fiber_counters(base_points)
            elif counters == "scan":
                counters = self._scan_counters
            self._patch(keyvariety, modules, modname, attr,
                        lambda fn, a=attr.rpartition(".")[2], c=counters:
                        self.span_wrapper(a, fn, c))
        for modname, attr in COUNT_TARGETS:
            self._patch(keyvariety, modules, modname, attr,
                        lambda fn, a=attr: self.count_wrapper(a, fn))

    def _patch(self, package, modules, modname, attr, make) -> None:
        module = getattr(package, modname)
        if "." in attr:
            clsname, meth = attr.split(".")
            cls = getattr(module, clsname)
            setattr(cls, meth, make(getattr(cls, meth)))
            return
        orig = getattr(module, attr)
        wrapper = make(orig)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


# ---------------------------------------------------------------------------
# aggregation


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def _self_time(spans, by_id, parent_name, child_names) -> float:
    """Duration of each parent_name span minus the union of its descendant
    child_names spans, clipped to the parent interval."""
    parents = {s[0]: s for s in spans if s[1] == parent_name}
    children = defaultdict(list)
    for s in spans:
        if s[1] not in child_names:
            continue
        anc = s[4]
        while anc is not None and anc not in parents:
            anc = by_id[anc][4] if anc in by_id else None
        if anc is not None:
            children[anc].append(s)
    total = 0.0
    for sid, (_, _, t0, t1, *_rest) in parents.items():
        inner = [(max(c[2], t0), min(c[3], t1)) for c in children[sid]]
        total += (t1 - t0) - covered([iv for iv in inner if iv[1] > iv[0]])
    return total


def summarize(doc: dict) -> dict:
    """Per-layer metrics of one traced launch."""
    spans = doc["spans"]
    counts = doc["counts"]
    by_id = {s[0]: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum((s[3] - s[2] for s in by_name[name]), 0.0)

    def cover(name):
        return covered((s[2], s[3]) for s in by_name[name])

    def attr_sum(name, key):
        return sum(s[6].get(key, 0) for s in by_name[name])

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    scanned = attr_sum("scan_system", "points")
    matched = attr_sum("scan_system", "matched")
    rescanned = sum(s[6]["points"] for s in by_name["scan_system"]
                    if s[6]["rescan"])
    scan_s = cover("scan_system")
    fiber_s = busy("fiber_over")
    matrices = attr_sum("matrix_rank_mod_p_batch", "matrices")
    rank_s = busy("matrix_rank_mod_p_batch")
    return {
        "projspace.scan_calls": calls("scan_system"),
        "projspace.points_scanned": scanned,
        "projspace.points_matched": matched,
        "projspace.match_ratio": ratio(matched, scanned),
        "projspace.scan_s": scan_s,
        "projspace.scan_mpts_per_s": ratio(scanned, scan_s, 1e-6),
        "projspace.rescanned_points": rescanned,
        "projspace.rescan_ratio": ratio(rescanned, scanned),
        "projspace.points_block_busy_s": busy("points_block"),
        "projspace.points_block_covered_s": cover("points_block"),
        "projspace.points_block_bytes": attr_sum("points_block", "bytes"),
        "projspace.vanishing_mask_busy_s": busy("vanishing_mask"),
        "projspace.vanishing_mask_covered_s": cover("vanishing_mask"),
        "projspace.vanishing_mask_rowgens": attr_sum("vanishing_mask", "rowgens"),
        "projspace.eval_block_busy_s": busy("eval_block"),
        "projspace.eval_block_values": attr_sum("eval_block", "rowgens"),
        "projspace.collected_rows": attr_sum("scan_system", "collected"),
        "algebra.rank_batch_calls": calls("matrix_rank_mod_p_batch"),
        "algebra.matrices_ranked": matrices,
        "algebra.rank_batch_s": rank_s,
        "algebra.rank_ns_per_matrix": ratio(rank_s, matrices, 1e9),
        "algebra.rank_scalar_calls": (counts.get("matrix_rank_mod_p", 0)
                                      + counts.get("nullspace_mod_p", 0)),
        "invariants.two_path_count_s": cover("two_path_count_check"),
        "invariants.estimate_dimension_s": cover("estimate_dimension"),
        "invariants.singular_scan_s": cover("singular_scan"),
        "invariants.singular_scan_self_s": _self_time(
            spans, by_id, "singular_scan",
            {"scan_system", "eval_block", "matrix_rank_mod_p_batch"}),
        "incidence.fiber_over_calls": calls("fiber_over"),
        "incidence.fiber_over_s": fiber_s,
        "incidence.us_per_probe": ratio(fiber_s, calls("fiber_over"), 1e6),
        "incidence.base_points_examined": attr_sum("fiber_over", "base_points"),
        "incidence.base_points_s": cover("base_points"),
        "incidence.birationality_s": cover("fiber_birationality_check"),
        "sections.section_report_s": cover("section_report"),
        "sections.random_section_s": cover("random_section"),
        "catalog.build_case_s": cover("build_case"),
        "catalog.coordinate_change_s": cover("pinned_coordinate_change"),
        "numerology.ledger_s": cover("run_ledger"),
    }


# ---------------------------------------------------------------------------
# traced launch


def main(argv: list) -> int:
    if len(argv) < 2 or argv[1] not in ("cli", "fibers-p3"):
        print("usage: spans.py SPANS.json {cli|fibers-p3} ARGS...", file=sys.stderr)
        return 2
    out, target, args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        if target == "cli":
            from keyvariety.cli import main as run_target
        else:
            from fibers_p3 import main as run_target
        code = run_target(args)
    finally:
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
