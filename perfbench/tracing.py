"""Spans around the calls into each wbslab layer, for the traced run.

Each public function is wrapped under the name its caller looks up it
by (``wbslab.embed.verify_pair_family`` is patched separately from
``wbslab.metric.verify_pair_family``), so calls between layers are seen
without touching the library.  A span's self time is its duration minus
that of its child spans; a layer's self time is the sum over its spans.
Functions marked as counters are only counted: their time stays in the
enclosing span, which belongs to the same layer.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("schreier", "weaknull", "metric", "holder", "embed", "experiments", "cli")
# Spans whose descendants are counted separately, for per-request ratios.
ANCESTORS = ("weaknull.certify", "embed.report")


def _n_points(arg) -> int:
    return len(arg) if hasattr(arg, "labels") else int(np.shape(arg)[0])


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.sums: defaultdict = defaultdict(float)
        self.nested: Counter = Counter()
        self.samples: defaultdict = defaultdict(list)
        self.open: Counter = Counter()
        self._stack: list[list[float]] = []
        self._undo: list = []

    # ---- spans --------------------------------------------------------------

    def enter(self, name: str) -> None:
        self.calls[name] += 1
        for anc in ANCESTORS:
            if self.open[anc]:
                self.nested[(name, anc)] += 1
        self.open[name] += 1
        self._stack.append([time.perf_counter(), 0.0])

    def leave(self, name: str) -> float:
        start, child = self._stack.pop()
        elapsed = time.perf_counter() - start
        self.open[name] -= 1
        self.self_s[name] += elapsed - child
        if self._stack:
            self._stack[-1][1] += elapsed
        return elapsed

    def span(self, name: str, fn, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.leave(name)
            if on_return is not None:
                on_return(self, args, result, elapsed)
            return result

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---- patching -------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        from wbslab import embed, experiments, holder, metric, schreier, weaknull

        import workloads

        def patch(owners, attr, name, on_return=None):
            for owner in owners:
                self._set(owner, attr, self.span(name, getattr(owner, attr), on_return))

        def method(cls, attr, name, on_return=None):
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self.span(name, raw.__func__, on_return)))
            else:
                self._set(cls, attr, self.span(name, raw, on_return))

        def add(key, amount):
            def on_return(tr, args, result, elapsed):
                tr.sums[key] += amount(args, result)

            return on_return

        # schreier
        method(schreier.CanonicalEnumeration, "rank_of", "schreier.rank",
               add("schreier.rank_bits", lambda a, r: r.bit_length()))
        method(schreier.CanonicalEnumeration, "unrank", "schreier.unrank",
               add("schreier.unrank_bits", lambda a, r: int(a[1]).bit_length()))
        self._set(schreier, "count_max_at_most",
                  self.counter("schreier.count", schreier.count_max_at_most))
        # weaknull
        patch((weaknull, experiments), "certify_not_cesaro_null", "weaknull.certify",
              add("weaknull.prefix_terms", lambda a, r: r.prefix_len))
        self._set(weaknull.SequenceOracle, "entry",
                  self.counter("weaknull.entry", weaknull.SequenceOracle.entry))
        # metric
        def validated(tr, args, report, elapsed):
            tr.sums["metric.triples"] += _n_points(args[0]) ** 3
            tr.sums["metric.violations"] += len(report.violations)

        patch((metric,), "validate_metric", "metric.validate", validated)
        method(metric.FiniteMetricSpace, "from_points", "metric.build")
        method(metric.FiniteMetricSpace, "from_graph", "metric.build")
        patch((metric, experiments), "find_pair_family", "metric.find",
              add("metric.candidates", lambda a, r: _n_points(a[0]) * (_n_points(a[0]) - 1)))
        patch((metric, embed), "verify_pair_family", "metric.verify",
              add("metric.violations", lambda a, r: len(r.violations)))
        # holder
        patch((holder, experiments), "holder_seminorm", "holder.seminorm",
              add("holder.pairs", lambda a, r: len(a[0].space) * (len(a[0].space) - 1) // 2))
        patch((holder, embed), "holder_norm", "holder.norm")
        patch((holder, embed, experiments), "pair_bump", "holder.bump")
        patch((holder, embed), "tent_bump", "holder.tent")
        # embed
        patch((embed,), "distortion_report", "embed.report")
        patch((embed, experiments), "verify_sandwich", "embed.sandwich")
        patch((embed,), "build_support_map", "embed.support_map")
        patch((embed,), "embed_holder", "embed.holder")
        patch((embed,), "embed_cb", "embed.cb")
        patch((embed,), "embed_linf", "embed.linf")
        # experiments: one span per suite run
        def suite_done(tr, args, result, elapsed):
            name, config = args
            tr.samples[f"experiments.{name}"].append(elapsed)
            if config.out_dir is not None:
                tr.sums["experiments.report_bytes"] += (config.out_dir / f"{name}.json").stat().st_size
                tr.sums["experiments.reports"] += 1

        patch((experiments,), "run_experiment", "experiments.run", suite_done)
        # cli: the benchmark's own subprocess calls, one span each
        patch((workloads,), "run_cli", "cli.call",
              lambda tr, args, result, elapsed: tr.samples["cli.call"].append(elapsed))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ---- per-layer metrics --------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for name, s in self.self_s.items():
            out[name.split(".")[0]] += s
        return out

    def metrics(self, loop_s: float, untraced_s: float, extra: dict) -> dict:
        """Per-layer metrics of the traced rounds.

        Calls and self times are totals over the traced rounds; counts
        named *_computed follow from input sizes; experiments.*_ms and
        cli.call_ms are medians per call; `extra` carries what the run
        measured outside the spans (count-cache hits, CLI start-up).
        """
        c, ms, nested, sums = self.calls, lambda k: self.self_s[k] * 1e3, self.nested, self.sums

        def ratio(a, b):
            return a / b if b else 0.0

        certify = c["weaknull.certify"]
        vectors = nested[("embed.sandwich", "embed.report")]
        rank_like = c["schreier.rank"] + c["schreier.unrank"]
        values = {
            "schreier.rank_calls": (c["schreier.rank"], "count"),
            "schreier.rank_self_ms": (ms("schreier.rank"), "ms"),
            "schreier.unrank_calls": (c["schreier.unrank"], "count"),
            "schreier.unrank_self_ms": (ms("schreier.unrank"), "ms"),
            "schreier.count_calls": (c["schreier.count"], "count"),
            "schreier.count_cache_hit_ratio": (extra["count_cache_hit_ratio"], "ratio"),
            "schreier.rank_bits_mean": (
                ratio(sums["schreier.rank_bits"] + sums["schreier.unrank_bits"], rank_like), "bits"),
            "weaknull.certify_calls": (certify, "count"),
            "weaknull.certify_self_ms": (ms("weaknull.certify"), "ms"),
            "weaknull.entry_calls": (c["weaknull.entry"], "count"),
            "weaknull.unranks_per_certify": (
                ratio(nested[("schreier.unrank", "weaknull.certify")], certify), "ratio"),
            "weaknull.prefix_terms": (ratio(sums["weaknull.prefix_terms"], certify), "terms"),
            "metric.validate_calls": (c["metric.validate"], "count"),
            "metric.validate_self_ms": (ms("metric.validate"), "ms"),
            "metric.triples_computed": (sums["metric.triples"], "count"),
            "metric.find_calls": (c["metric.find"], "count"),
            "metric.find_self_ms": (ms("metric.find"), "ms"),
            "metric.candidates_computed": (sums["metric.candidates"], "count"),
            "metric.verify_calls": (c["metric.verify"], "count"),
            "metric.verify_self_ms": (ms("metric.verify"), "ms"),
            "metric.violations_reported": (sums["metric.violations"], "count"),
            "holder.seminorm_calls": (c["holder.seminorm"], "count"),
            "holder.seminorm_self_ms": (ms("holder.seminorm"), "ms"),
            "holder.pairs_scanned_computed": (sums["holder.pairs"], "count"),
            "holder.bump_calls": (c["holder.bump"], "count"),
            "holder.bump_self_ms": (ms("holder.bump"), "ms"),
            "embed.report_calls": (c["embed.report"], "count"),
            "embed.report_self_ms": (ms("embed.report"), "ms"),
            "embed.sandwich_calls": (c["embed.sandwich"], "count"),
            "embed.sandwich_self_ms": (ms("embed.sandwich"), "ms"),
            "embed.support_map_calls": (c["embed.support_map"], "count"),
            "embed.verify_per_vector": (ratio(nested[("metric.verify", "embed.report")], vectors), "ratio"),
            "embed.bumps_per_vector": (ratio(nested[("holder.bump", "embed.report")], vectors), "ratio"),
        }

        def median_ms(key):
            return statistics.median(self.samples[key]) * 1e3 if self.samples[key] else 0.0

        for suite in ("cesaro", "sandwich", "isometry"):
            values[f"experiments.{suite}_ms"] = (median_ms(f"experiments.{suite}-suite"), "ms")
        values["experiments.report_bytes"] = (
            ratio(sums["experiments.report_bytes"], sums["experiments.reports"]), "bytes")
        values["cli.call_ms"] = (median_ms("cli.call"), "ms")
        for key, unit in (("import_ms", "ms"), ("interp_ms", "ms"), ("error_exit2_ratio", "ratio")):
            values[f"cli.{key}"] = (extra.get(key, 0.0), unit)
        layers = self.layer_self_s()
        for layer, s in layers.items():
            values[f"{layer}.self_ms"] = (s * 1e3, "ms")
        values["trace.loop_ms"] = (loop_s * 1e3, "ms")
        values["trace.layer_share"] = (
            ratio(sum(s for layer, s in layers.items() if layer != "bench"), loop_s), "ratio")
        values["trace.overhead_ratio"] = (ratio(loop_s, untraced_s), "ratio")
        return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}
