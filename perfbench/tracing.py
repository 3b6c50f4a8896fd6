"""Span tracing installed from outside the package.

The tracer replaces each traced public function at every module attribute
of the package that holds it (for example `copula_rank.mc.ple_estimate`
and `copula_rank.estimators.ple_estimate`), because the modules import
these names directly.  Spans (name, start, end, parent, unit) are kept in
memory; `write` dumps them at the end of a run.  Counting-only wrappers on
`cho_factor`/`cholesky` and `scipy.optimize.minimize` give the work
counters.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

TRACED = {
    "sampler": ("sample_copula", "apply_margins"),
    "estimators": ("rank_transform", "normal_scores_matrix", "ple_estimate",
                   "pilot_moment", "one_step"),
    "models": ("build_model", "eval_geometry", "validate_assumption1"),
    "geometry": ("score_generators", "efficient_score_matrices",
                 "efficient_info", "ple_influence", "efficiency_bundle",
                 "efficiency_criterion", "adaptivity_check",
                 "regularity_check"),
    "numcore": ("norm_quantile", "gram"),
    "mc": ("run_experiment",),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
ESTIMATE_RESULTS = ("estimators.ple_estimate", "estimators.pilot_moment",
                    "estimators.one_step")


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "copula_rank"
                                  or name.startswith("copula_rank."))]


class Tracer:
    """Wraps the traced functions in place; `uninstall` restores them."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.iterations = 0
        self.clamped = 0
        self.unit = 0
        self._stack = []
        self._patched = []

    def install(self):
        import scipy.linalg
        import scipy.optimize

        targets = {}
        for mod, fns in TRACED.items():
            module = sys.modules[f"copula_rank.{mod}"]
            for fn in fns:
                targets[id(getattr(module, fn))] = self._span(
                    f"{mod}.{fn}", getattr(module, fn))
        for source in (scipy.linalg.cho_factor, scipy.linalg.cholesky):
            targets[id(source)] = self._counter("linalg.factorizations", source)
        minimize = scipy.optimize.minimize
        targets[id(minimize)] = self._counter("fallbacks", minimize)
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is None:
                    continue
                if attr == "minimize" and module.__name__ != "copula_rank.estimators":
                    continue
                self._patched.append((module, attr, value))
                setattr(module, attr, wrapper)
        return self

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _counter(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        records_result = name in ESTIMATE_RESULTS

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                    self.unit]
            spans.append(span)
            stack.append(idx)
            counts[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if records_result:
                self.clamped += bool(result.clamped)
                if name == "estimators.ple_estimate":
                    self.iterations += result.iterations
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        """Total self time per span name: duration minus the time covered
        by direct children (children of one span never overlap here, since
        the package runs the traced calls on one thread)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[idx]
        return totals

    def work_counters(self):
        """Exact counts that must repeat across runs on one seed."""
        out = {name: self.counts[name] for name in SPAN_NAMES}
        out["ple_iterations"] = self.iterations
        out["fallbacks"] = self.counts["fallbacks"]
        out["clamped"] = self.clamped
        out["linalg.factorizations"] = self.counts["linalg.factorizations"]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "unit"],
                       "spans": self.spans}, f)
