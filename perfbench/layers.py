"""Per-layer tracing of namelink for the benchmark's traced run.

While installed, every public callable listed in ``WRAPS`` is replaced, in
every namelink module that binds it, by a wrapper that records a span.
Generator functions get one span per pull, so a store write's self time
excludes the parser pulls that feed it.  A callable that no longer exists is
skipped and reported, and its metrics then read zero.

``LAYER_METRICS`` turns the spans of the traced cycles into the per-layer
metrics.  Times and counts are per cycle (a cycle is one pass of a
workload's loop); ratios, rates and percentiles pool all traced cycles.
Each metric names the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from measure import Tracer, median, reportable_percentile

# (module, callable, span name); forward_batch spans are split by mode below
WRAPS = (
    ("dblp_xml", "parse_dblp_stream", "dblp_xml.parse"),
    ("store", "write_corpus_store", "store.write"),
    ("store", "read_corpus_store", "store.read"),
    ("store", "load_corpus", "store.load"),
    ("names", "build_author_registry", "names.registry"),
    ("predict", "route_name", "names.route"),
    ("blocking", "build_block", "blocking.build_block"),
    ("blocking", "block_stats", "blocking.block_stats"),
    ("blocking", "corpus_stats", "blocking.corpus_stats"),
    ("encoders", "HashingNameEncoder.__call__", "encoders.name"),
    ("encoders", "HashingTextEncoder.__call__", "encoders.text"),
    ("training", "split_per_author", "training.split"),
    ("training", "SampleBank.__init__", "training.sample_bank"),
    ("training", "SampleBank.assign_coauthors", "training.reassign"),
    ("training", "_evaluate_bank", "training.val_forward"),
    ("training", "train_block_model", "training.loop"),
    ("model", "forward_batch", "model.forward"),
    ("model", "loss_and_gradients_batch", "model.backward"),
    ("model", "adam_step", "model.adam"),
    ("model", "save_checkpoint", "model.checkpoint_save"),
    ("model", "load_checkpoint", "model.checkpoint_load"),
    ("predict", "predict_author", "predict.predict"),
    ("predict", "forward_batched", "predict.forward"),
    ("metrics", "evaluate_block", "metrics.evaluate"),
)
GENERATORS = {"dblp_xml.parse", "store.read"}
# Adam must at least read params, gradient and both moments and write back
# params and moments: seven float64 passes over the parameter vector
ADAM_PASSES = 7


class LayerTrace:
    """Spans plus the counters the wrappers add, over the traced cycles."""

    def __init__(self):
        self.tracer = Tracer()
        self.counters: dict[str, float] = defaultdict(float)
        self.pair_counts: list[int] = []
        self.cycles = 0
        self.missing: list[str] = []
        self._distinct: dict[str, set] = {"encoders.name": set(), "encoders.text": set()}
        self._patches: list[tuple[object, str, object]] = []
        self._active = False

    # -- spans the benchmark opens itself ----------------------------------

    @contextmanager
    def span(self, name: str):
        if not self._active:
            yield
            return
        idx = self.tracer.begin(self.tracer.name_id(name))
        try:
            yield
        finally:
            self.tracer.finish(idx)

    def new_request(self) -> None:
        """Spans opened from now on belong to the next request."""
        self.tracer.run_id += 1

    # -- installing the wrappers --------------------------------------------

    @contextmanager
    def cycle(self):
        """Trace one workload cycle."""
        self._install()
        self._active = True
        try:
            yield
        finally:
            self._active = False
            self._uninstall()
            for name, seen in self._distinct.items():
                self.counters[name + ".distinct"] += len(seen)
                seen.clear()
            self.cycles += 1

    def _install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "namelink" or n.startswith("namelink.")]
        self.missing = []
        for module_name, attr, span in WRAPS:
            module = sys.modules.get(f"namelink.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, span)
            if owner_name:
                self._patches.append((owner, method, original))
                setattr(owner, method, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def _uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, fn: Callable, span: str) -> Callable:
        tracer = self.tracer
        begin, finish = tracer.begin, tracer.finish
        after = _AFTER.get(span)
        counters = self.counters
        trace = self

        if span == "model.forward":
            train_id, infer_id = tracer.name_id("model.forward_train"), tracer.name_id("model.forward_infer")

            def traced_forward(*args, **kwargs):
                mode = kwargs.get("mode", args[3] if len(args) > 3 else "infer")
                idx = begin(train_id if mode == "train" else infer_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    finish(idx)

            return traced_forward

        name_id = tracer.name_id(span)
        if span in GENERATORS:
            items = span + ".items"

            def pulls(it):
                while True:
                    idx = begin(name_id)
                    try:
                        item = next(it)
                    except StopIteration:
                        finish(idx)
                        return
                    except BaseException:
                        finish(idx)
                        raise
                    finish(idx)
                    counters[items] += 1
                    yield item

            def traced_gen(*args, **kwargs):
                if after is not None:
                    after(trace, args, kwargs, None)
                return pulls(fn(*args, **kwargs))

            return traced_gen

        def traced(*args, **kwargs):
            idx = begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if after is not None:
                after(trace, args, kwargs, result)
            return result

        return traced

    # -- metrics ---------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict[str, float]:
        view = _View(self)
        out = {}
        for m in LAYER_METRICS:
            value = float(m.compute(view))
            out[m.name] = value / self.cycles if m.per_cycle and self.cycles else value
        out[OVERHEAD.name] = overhead_s
        return out


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _after_parse(trace, args, kwargs, _):
    stream = _arg(args, kwargs, 0, "stream")
    trace.counters["dblp_xml.bytes"] += os.fstat(stream.fileno()).st_size


def _after_write(trace, args, kwargs, _):
    trace.counters["store.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _after_registry(trace, args, kwargs, registry):
    trace.counters["names.authors"] += registry.author_count
    trace.counters["names.registries"] += 1


def _after_route(trace, args, kwargs, route):
    trace.counters["names.route_" + route.kind.value.lower()] += 1


def _after_block(trace, args, kwargs, block):
    trace.counters["blocking.entries"] += len(block.entries)


def _after_name(trace, args, kwargs, _):
    trace._distinct["encoders.name"].add(args[1])


def _after_text(trace, args, kwargs, _):
    trace._distinct["encoders.text"].add(args[1])


def _after_backward(trace, args, kwargs, _):
    params, x1 = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "x1")
    macs = sum(n_in * n_out for n_in, n_out in params.config.layer_shapes())
    # forward is 2 flop per multiply-add; backward forms weight and input gradients
    trace.counters["model.flops"] += 6 * len(x1) * macs


def _after_adam(trace, args, kwargs, _):
    params = _arg(args, kwargs, 0, "params")
    trace.counters["model.adam_bytes"] += ADAM_PASSES * params.flat.itemsize * params.n_params


def _after_predict(trace, args, kwargs, prediction):
    trace.pair_counts.append(prediction.pair_count)


def _after_evaluate(trace, args, kwargs, report):
    trace.counters["metrics.instances"] += report.instance_count


_AFTER = {
    "dblp_xml.parse": _after_parse,
    "store.write": _after_write,
    "names.registry": _after_registry,
    "names.route": _after_route,
    "blocking.build_block": _after_block,
    "encoders.name": _after_name,
    "encoders.text": _after_text,
    "model.backward": _after_backward,
    "model.adam": _after_adam,
    "predict.predict": _after_predict,
    "metrics.evaluate": _after_evaluate,
}


class _View:
    """Span aggregates the metric definitions read."""

    def __init__(self, trace: LayerTrace):
        self.trace = trace
        self.t = trace.tracer
        self.c = trace.counters
        self._self = self.t.self_times()
        self._by_name: dict[str, list[int]] = defaultdict(list)
        for i in range(len(self.t)):
            self._by_name[self.t.names[self.t.name_of[i]]].append(i)

    def total(self, *names: str) -> float:
        return self.t.covered_total(names)

    def self_time(self, *names: str) -> float:
        return sum(self._self[i] for n in names for i in self._by_name.get(n, ()))

    def self_prefix(self, prefix: str) -> float:
        return sum(self.self_time(n) for n in self._by_name if n.startswith(prefix))

    def count(self, name: str) -> int:
        return len(self._by_name.get(name, ()))

    def durations(self, name: str) -> list[float]:
        return [self.t.end[i] - self.t.start[i] for i in self._by_name.get(name, ())]

    def rate(self, numerator: float, seconds: float) -> float:
        return numerator / seconds if seconds > 0 else 0.0

    def step_ms_p50(self) -> float:
        # a training step is one loss_and_gradients_batch call and the adam_step after it
        steps = [1e3 * (b + a) for b, a in zip(self.durations("model.backward"), self.durations("model.adam"))]
        return median(steps) if steps else 0.0

    def pairs_percentile(self, q: float) -> float:
        return reportable_percentile(self.trace.pair_counts, q) or 0.0

    def distinct_ratio(self, name: str) -> float:
        calls = self.count(name)
        return self.c[name + ".distinct"] / calls if calls else 0.0


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric, and workload, this layer should move
    per_cycle: bool
    compute: Callable[[_View], float] | None


def _m(name, unit, better, moves, compute, per_cycle=True):
    return LayerMetric(name, unit, better, moves, per_cycle, compute)


_E2E_TRAIN = "throughput (train_samples_per_s) and latency_p50_ms (train command) on train-block"
_E2E_EVAL = "evaluate_ms on train-block (printed, not gated)"
# the corpus commands are timed on train-block (A-7 scale) and corpus-pass
# (10k records); neither gates them
_E2E_INGEST = "ingest_records_per_s on train-block and corpus-pass (printed, not gated)"
_E2E_BLOCK = "block_cmd_s and name_query_s on train-block and corpus-pass (printed, not gated)"
_E2E_RESOLVE = "throughput and latency_p50_ms (resolve_p50_ms, resolve_p99_ms) on resolve"

LAYER_METRICS = (
    _m("cli.ingest_s", "s", "lower", _E2E_INGEST, lambda v: v.total("cli.ingest")),
    _m("cli.stats_s", "s", "lower", _E2E_BLOCK, lambda v: v.total("cli.stats")),
    _m("cli.predict_s", "s", "lower", "name_query_s on train-block and corpus-pass (printed, not gated)", lambda v: v.total("cli.predict")),
    _m("cli.train_s", "s", "lower", _E2E_TRAIN, lambda v: v.total("cli.train")),
    _m("cli.evaluate_s", "s", "lower", _E2E_EVAL, lambda v: v.total("cli.evaluate")),
    _m("cli.self_s", "s", "lower", "command time no traced layer accounts for, on every CLI workload", lambda v: v.self_prefix("cli.")),
    _m("dblp_xml.parse_s", "s", "lower", _E2E_INGEST, lambda v: v.self_time("dblp_xml.parse")),
    _m("dblp_xml.records", "count", "higher", _E2E_INGEST, lambda v: v.c["dblp_xml.parse.items"]),
    _m("dblp_xml.bytes_per_s", "B/s", "higher", _E2E_INGEST,
       lambda v: v.rate(v.c["dblp_xml.bytes"], v.self_time("dblp_xml.parse")), per_cycle=False),
    _m("store.write_s", "s", "lower", _E2E_INGEST, lambda v: v.self_time("store.write")),
    _m("store.load_s", "s", "lower", _E2E_BLOCK, lambda v: v.total("store.load", "store.read")),
    _m("store.load_records_per_s", "1/s", "higher", _E2E_BLOCK,
       lambda v: v.rate(v.c["store.read.items"], v.total("store.load", "store.read")), per_cycle=False),
    _m("store.bytes", "B", "lower", _E2E_INGEST, lambda v: v.c["store.bytes"]),
    _m("names.registry_s", "s", "lower", _E2E_BLOCK, lambda v: v.total("names.registry")),
    _m("names.authors", "count", "higher", _E2E_BLOCK,
       lambda v: v.c["names.authors"] / v.c["names.registries"] if v.c["names.registries"] else 0.0, per_cycle=False),
    _m("names.route_calls", "count", "lower", _E2E_RESOLVE, lambda v: v.count("names.route")),
    _m("names.route_s", "s", "lower", _E2E_RESOLVE, lambda v: v.total("names.route")),
    _m("names.route_new", "count", "higher", _E2E_RESOLVE, lambda v: v.c["names.route_new"]),
    _m("names.route_unique", "count", "higher", _E2E_RESOLVE, lambda v: v.c["names.route_unique"]),
    _m("names.route_ambiguous", "count", "higher", _E2E_RESOLVE, lambda v: v.c["names.route_ambiguous"]),
    _m("blocking.build_block_s", "s", "lower", _E2E_BLOCK, lambda v: v.total("blocking.build_block")),
    _m("blocking.entries", "count", "higher", _E2E_BLOCK, lambda v: v.c["blocking.entries"]),
    _m("blocking.block_stats_s", "s", "lower", _E2E_BLOCK, lambda v: v.total("blocking.block_stats")),
    _m("blocking.corpus_stats_s", "s", "lower", "stats_corpus_s on train-block and corpus-pass (printed, not gated)", lambda v: v.self_time("blocking.corpus_stats")),
    _m("encoders.name_calls", "count", "lower", _E2E_RESOLVE, lambda v: v.count("encoders.name")),
    _m("encoders.text_calls", "count", "lower", _E2E_RESOLVE, lambda v: v.count("encoders.text")),
    _m("encoders.name_s", "s", "lower", _E2E_RESOLVE, lambda v: v.total("encoders.name")),
    _m("encoders.text_s", "s", "lower", _E2E_RESOLVE, lambda v: v.total("encoders.text")),
    _m("encoders.name_distinct_ratio", "ratio", "lower", _E2E_RESOLVE, lambda v: v.distinct_ratio("encoders.name"), per_cycle=False),
    _m("encoders.text_distinct_ratio", "ratio", "lower", _E2E_RESOLVE, lambda v: v.distinct_ratio("encoders.text"), per_cycle=False),
    _m("training.split_s", "s", "lower", _E2E_TRAIN, lambda v: v.total("training.split")),
    _m("training.sample_bank_s", "s", "lower", _E2E_TRAIN, lambda v: v.total("training.sample_bank")),
    _m("training.reassign_s", "s", "lower", _E2E_TRAIN, lambda v: v.total("training.reassign")),
    _m("training.epochs", "count", "lower", _E2E_TRAIN, lambda v: v.count("training.val_forward")),
    _m("training.steps", "count", "lower", _E2E_TRAIN, lambda v: v.count("model.backward")),
    _m("training.val_forward_s", "s", "lower", _E2E_TRAIN, lambda v: v.total("training.val_forward")),
    _m("training.loop_self_s", "s", "lower", _E2E_TRAIN, lambda v: v.self_time("training.loop")),
    _m("model.forward_train_s", "s", "lower", _E2E_TRAIN, lambda v: v.self_time("model.forward_train")),
    _m("model.backward_s", "s", "lower", _E2E_TRAIN, lambda v: v.self_time("model.backward")),
    _m("model.adam_s", "s", "lower", _E2E_TRAIN, lambda v: v.self_time("model.adam")),
    _m("model.step_ms_p50", "ms", "lower", _E2E_TRAIN, lambda v: v.step_ms_p50(), per_cycle=False),
    _m("model.forward_infer_s", "s", "lower", _E2E_RESOLVE, lambda v: v.self_time("model.forward_infer")),
    _m("model.checkpoint_save_s", "s", "lower", _E2E_TRAIN, lambda v: v.total("model.checkpoint_save")),
    _m("model.checkpoint_load_s", "s", "lower", _E2E_EVAL, lambda v: v.total("model.checkpoint_load")),
    _m("model.flops_per_step", "flop", "lower", _E2E_TRAIN,
       lambda v: v.c["model.flops"] / v.count("model.backward") if v.count("model.backward") else 0.0, per_cycle=False),
    _m("model.adam_bytes_per_step", "B", "lower", _E2E_TRAIN,
       lambda v: v.c["model.adam_bytes"] / v.count("model.adam") if v.count("model.adam") else 0.0, per_cycle=False),
    _m("predict.calls", "count", "lower", _E2E_RESOLVE, lambda v: v.count("predict.predict")),
    _m("predict.pairs", "count", "lower", _E2E_RESOLVE, lambda v: sum(v.trace.pair_counts)),
    _m("predict.pairs_per_call_p50", "count", "lower", _E2E_RESOLVE, lambda v: v.pairs_percentile(50), per_cycle=False),
    _m("predict.pairs_per_call_p90", "count", "lower", _E2E_RESOLVE, lambda v: v.pairs_percentile(90), per_cycle=False),
    _m("predict.s", "s", "lower", _E2E_RESOLVE, lambda v: v.total("predict.predict")),
    _m("predict.forward_s", "s", "lower", _E2E_RESOLVE, lambda v: v.total("predict.forward")),
    _m("predict.featurize_s", "s", "lower", _E2E_RESOLVE, lambda v: v.self_time("predict.predict")),
    _m("metrics.evaluate_s", "s", "lower", _E2E_EVAL, lambda v: v.total("metrics.evaluate")),
    _m("metrics.instances", "count", "higher", _E2E_EVAL, lambda v: v.c["metrics.instances"]),
    _m("trace.spans", "count", "lower", "tracing cost only; moves no end-to-end metric", lambda v: len(v.t)),
)
# measured by the runner: median traced cycle wall minus median untraced cycle wall
OVERHEAD = LayerMetric("trace.overhead_s", "s", "lower", "tracing cost only; moves no end-to-end metric", False, None)
ALL_LAYER_METRICS = LAYER_METRICS + (OVERHEAD,)
