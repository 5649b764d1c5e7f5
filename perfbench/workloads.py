"""The benchmark workloads: train-block, corpus-pass and resolve.

Each is single-process with one client in a closed loop: a cycle runs its
operations one after another and each starts when the previous one ends.
Block-scoped work goes through ``namelink.cli.main`` in-process, with every
file it writes under the run's temp dir.  The serving loop of ``resolve``
calls ``route_name`` and ``predict_author`` directly because the CLI has no
batch resolve command.  namelink callables are always looked up on their
module at call time, so the traced run sees them wrapped.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stdout
from dataclasses import dataclass
from math import comb
from time import perf_counter

import namelink.blocking
import namelink.cli
import namelink.encoders
import namelink.model
import namelink.names
import namelink.predict
import namelink.records
import namelink.store
import namelink.training

import gen
from measure import median, reportable_percentile

MIAF1_FLOOR = 0.90  # the A-7 acceptance bound
ACCURACY_FLOOR = 0.90
PAIR_BINS = ((1, 9), (10, 49), (50, 99), (100, 199), (200, None))


class SetupError(Exception):
    pass


@dataclass
class Op:
    """One timed operation and the outcome of its output check."""

    kind: str
    seconds: float
    ok: bool
    items: int = 0
    value: float = 0.0
    cycle: int = 0
    traced: bool = False


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SetupError(message)


def _p50(ops: list[Op], kind: str, scale: float = 1.0) -> float:
    """Median wall time of one kind of operation."""
    values = [op.seconds * scale for op in ops if op.kind == kind]
    return median(values) if values else 0.0


def _rate(ops: list[Op], kind: str) -> float:
    """Median items per second of one kind of operation."""
    values = [op.items / op.seconds for op in ops if op.kind == kind and op.seconds > 0]
    return median(values) if values else 0.0


def _count(ops: list[Op], kind: str) -> int:
    return sum(1 for op in ops if op.kind == kind)


def shape(records: list[list[str]], authors: int, kinds: list[str], pairs: list[int], large: int, **extra) -> dict:
    """The input properties an optimisation depends on, as measured: per
    record its printed authors, per mention its route kind, per prediction
    its pair count, and how many records had a prediction of 50+ pairs."""
    sizes = [len(r) for r in records]
    hist = {}
    for lo, hi in PAIR_BINS:
        label = f"{lo}-{hi}" if hi else f"{lo}+"
        hist[label] = sum(1 for p in pairs if p >= lo and (hi is None or p <= hi))
    return {
        "records": len(records),
        "distinct_authors": authors,
        "authors_per_record_mean": sum(sizes) / len(sizes),
        "authors_per_record_max": max(sizes),
        "ambiguous_mention_share": kinds.count("AMBIGUOUS") / len(kinds),
        "pairs_per_prediction_hist": hist,
        "records_ge50_pairs_share": large / len(records),
        **extra,
    }


class Workload:
    name = ""
    SETUP_REPEATS = 3  # set-up runs this often per run; its median is setup_s

    def __init__(self, seed: int, tmp: str, trace):
        self.seed = seed
        self.tmp = tmp
        self.trace = trace
        self.manifest = os.path.join(tmp, "runs.ndjson")

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def cli(self, *argv: str) -> tuple[float, dict | None]:
        """Run one CLI command; returns its wall time and the result it
        logged to the manifest (None when it failed)."""
        out = io.StringIO()
        self.trace.new_request()
        with redirect_stdout(out), self.trace.span("cli." + argv[0].replace("-", "_")):
            started = perf_counter()
            try:
                code = namelink.cli.main([*argv, "--manifest", self.manifest])
            except SystemExit as exc:
                code = exc.code
            seconds = perf_counter() - started
        if code != 0 or not os.path.exists(self.manifest):
            return seconds, None
        with open(self.manifest, encoding="utf-8") as fh:
            entry = json.loads(fh.readlines()[-1])
        os.remove(self.manifest)
        return seconds, entry["result"]

    def inputs(self) -> None:
        """Generate the workload's inputs once, before set-up; not timed."""

    def setup(self) -> None:
        """The program work that readies a cycle; timed as setup_s."""
        raise NotImplementedError

    def prepare(self, index: int) -> None:
        """Build the inputs of cycle ``index``; not timed."""

    def cycle(self, index: int) -> list[Op]:
        raise NotImplementedError

    def final_checks(self) -> list[Op]:
        """Checks over the whole run, each counted as one operation."""
        return []

    def shape(self) -> dict:
        raise NotImplementedError

    def e2e(self, ops: list[Op]) -> dict[str, float]:
        """The workload's reading of the generic throughput and latency."""
        raise NotImplementedError

    def named(self, ops: list[Op]) -> list[tuple[str, float | None, str, int]]:
        """(name, value, unit, samples) of the workload's own metrics."""
        raise NotImplementedError


class TrainBlock(Workload):
    """The A-7 block through the CLI pipeline: ingest it from DBLP XML, check
    the store with ``stats``, query a name, train for a fixed number of
    epochs, then score."""

    name = "train-block"
    SETUP_REPEATS = 15  # one set-up takes only tens of milliseconds
    EPOCHS = 2
    BLOCK = "Y Chen"
    AUTHORS, CLIQUE, RECORDS_PER_AUTHOR = 20, 5, 40
    # gen-synth gives each target author a private clique of co-authors, so
    # (records, authors, names, variates): every co-author is a full name and
    # an atomic variate of their own; the targets share one variate
    TRUTH = (AUTHORS * RECORDS_PER_AUTHOR, AUTHORS * (1 + CLIQUE), AUTHORS * (1 + CLIQUE), AUTHORS * CLIQUE + 1)
    UNIQUE_NAME = "Acoa Leea"  # the first co-author of the first target

    def setup(self) -> None:
        self.generated = self.path("a7.nd")
        _, result = self.cli(
            "gen-synth", "--out", self.generated, "--block", self.BLOCK, "--authors", str(self.AUTHORS),
            "--clique", str(self.CLIQUE), "--records-per-author", str(self.RECORDS_PER_AUTHOR), "--vocab", "30",
            "--seed", str(self.seed),
        )
        _require(result is not None and result["records"] == self.TRUTH[0], f"gen-synth gave {result}")

    def prepare(self, index: int) -> None:
        if index == 0:
            # the generated corpus, written back as the DBLP XML that ingest reads
            self.xml, self.corpus = self.path("a7.xml"), self.path("a7-ingested.nd")
            gen.write_dblp_xml(self.xml, [
                gen.Rec(r.record_key, r.kind, r.title, r.source, r.year, [m.display_name for m in r.authors])
                for r in namelink.store.load_corpus(self.generated)
            ])

    def cycle(self, index: int) -> list[Op]:
        records = self.TRUTH[0]
        seconds, r = self.cli("ingest", "--xml", self.xml, "--out", self.corpus)
        ok = r is not None and (r["records"], r["skipped"]) == (records, 0)
        ops = [Op("ingest", seconds, ok, records)]
        seconds, r = self.cli("stats", "--corpus", self.corpus)
        ok = r is not None and (r["records"], r["authors"], r["names"], r["variates"]) == self.TRUTH
        ops.append(Op("stats_corpus", seconds, ok, records))
        seconds, r = self.cli("stats", "--corpus", self.corpus, "--block", self.BLOCK)
        ops.append(Op("stats_block", seconds, r is not None and (r["uta"], r["rcd"]) == (self.AUTHORS, records), records))
        seconds, r = self.cli("predict", "--corpus", self.corpus, "--name", self.UNIQUE_NAME)
        ok = r is not None and (r["route"], r.get("author")) == ("UNIQUE", self.UNIQUE_NAME)
        ops.append(Op("predict_name", seconds, ok, records))

        epochs, seed = str(self.EPOCHS), str(self.seed)
        checkpoint = self.path("a7.npz")
        seconds, result = self.cli(
            "train", "--corpus", self.corpus, "--block", self.BLOCK, "--out", checkpoint,
            "--max-epochs", epochs, "--patience", epochs, "--seed", seed,
        )
        block = result["blocks"][0] if result else None
        ok = block is not None and block["epochs_run"] == self.EPOCHS
        ops.append(Op("train", seconds, ok, block["train_samples"] * block["epochs_run"] if ok else 0))
        seconds, result = self.cli(
            "evaluate", "--corpus", self.corpus, "--block", self.BLOCK, "--checkpoint", checkpoint,
            "--mode", "ALL", "--seed", seed,
        )
        miaf1 = result["MiAF1"] if result else 0.0
        ops.append(Op("evaluate", seconds, miaf1 >= MIAF1_FLOOR, result["instances"] if result else 0, miaf1))
        return ops

    def shape(self) -> dict:
        corpus = namelink.store.load_corpus(self.corpus)
        registry = namelink.names.build_author_registry(corpus)
        kinds = [namelink.predict.route_name(registry, m.display_name).kind.value for r in corpus for m in r.authors]
        block = namelink.blocking.build_block(corpus, registry, self.BLOCK)
        # evaluate predicts TEST entries of this block over omega+1 pool names
        pairs = [comb(e.record.n_authors + 1, 2) for e in block.entries]
        large = sum(1 for e in block.entries if comb(e.record.n_authors + 1, 2) >= 50)
        return shape([[m.display_name for m in r.authors] for r in corpus], registry.author_count, kinds, pairs, large)

    def e2e(self, ops):
        return {"throughput": _rate(ops, "train"), "latency_p50_ms": _p50(ops, "train", 1e3)}

    def named(self, ops):
        miaf1 = [op.value for op in ops if op.kind == "evaluate"]
        trains, evals = _count(ops, "train"), _count(ops, "evaluate")
        return [
            ("train_samples_per_s", _rate(ops, "train"), "1/s", trains),
            ("train_cmd_s", _p50(ops, "train"), "s", trains),
            ("evaluate_ms", _p50(ops, "evaluate", 1e3), "ms", evals),
            ("train_miaf1", min(miaf1) if miaf1 else None, "ratio", evals),
            ("ingest_records_per_s", _rate(ops, "ingest"), "1/s", _count(ops, "ingest")),
            ("stats_corpus_s", _p50(ops, "stats_corpus"), "s", _count(ops, "stats_corpus")),
            ("block_cmd_s", _p50(ops, "stats_block"), "s", _count(ops, "stats_block")),
            ("name_query_s", _p50(ops, "predict_name"), "s", _count(ops, "predict_name")),
        ]


class CorpusPass(Workload):
    """Ingest a DBLP-shaped document, then the block commands that reload it.

    Not gated by BENCHMARK.json: on a shared host its run-to-run spread
    exceeds the bound.
    """

    name = "corpus-pass"
    RECORDS = 10000
    HOMEPAGE_EVERY = 50
    SETUP_REPEATS = 6

    def inputs(self) -> None:
        self.records, self.truth = gen.corpus_pass_input(self.seed, self.RECORDS)
        self.xml = self.path("dblp.xml")
        self.store = self.path("corpus.nd")
        self.xml_bytes = gen.write_dblp_xml(self.xml, self.records, self.HOMEPAGE_EVERY)

    def setup(self) -> None:
        # the process's first ingest puts the corpus in the store
        _, result = self.cli("ingest", "--xml", self.xml, "--out", self.store)
        _require(result is not None and result["records"] == self.truth.records, f"ingest gave {result}")

    def cycle(self, index: int) -> list[Op]:
        t = self.truth
        seconds, r = self.cli("ingest", "--xml", self.xml, "--out", self.store)
        ok = r is not None and (r["records"], r["skipped"], r["skipped_other_kinds"], r["empty_source"]) == (
            t.records, 0, t.records // self.HOMEPAGE_EVERY, 0)
        ops = [Op("ingest", seconds, ok, t.records)]

        seconds, r = self.cli("stats", "--corpus", self.store)
        ok = r is not None and (r["records"], r["authors"], r["names"], r["variates"]) == (
            t.records, t.authors, t.names, t.variates)
        ops.append(Op("stats_corpus", seconds, ok, t.records))

        seconds, r = self.cli("stats", "--corpus", self.store, "--block", t.block)
        ok = r is not None and (r["uta"], r["rcd"]) == (t.block_uta, t.block_rcd)
        ops.append(Op("stats_block", seconds, ok, t.records))

        seconds, r = self.cli("predict", "--corpus", self.store, "--name", t.unique_name)
        ok = r is not None and (r["route"], r.get("author")) == ("UNIQUE", t.unique_author)
        ops.append(Op("predict_name", seconds, ok, t.records))
        return ops

    def shape(self) -> dict:
        t = self.truth

        def base(printed: str) -> str:
            return printed[:-5] if printed[-4:].isdigit() else printed

        authors_per_base: dict[str, int] = {}
        for printed in {a for r in self.records for a in r.authors}:
            authors_per_base[base(printed)] = authors_per_base.get(base(printed), 0) + 1
        # a printed full name routes AMBIGUOUS when homonyms share it
        kinds = ["AMBIGUOUS" if authors_per_base[base(a)] > 1 else "UNIQUE" for r in self.records for a in r.authors]
        return shape(
            [r.authors for r in self.records], t.authors, kinds, [], 0,
            names=t.names, variates=t.variates, block=t.block, block_uta=t.block_uta, block_rcd=t.block_rcd,
            papers_per_author_max=t.papers_per_author_max, xml_bytes=self.xml_bytes,
        )

    def e2e(self, ops):
        return {"throughput": _rate(ops, "ingest"), "latency_p50_ms": _p50(ops, "stats_block", 1e3)}

    def named(self, ops):
        return [
            ("ingest_records_per_s", _rate(ops, "ingest"), "1/s", _count(ops, "ingest")),
            ("stats_corpus_s", _p50(ops, "stats_corpus"), "s", _count(ops, "stats_corpus")),
            ("block_cmd_s", _p50(ops, "stats_block"), "s", _count(ops, "stats_block")),
            ("name_query_s", _p50(ops, "predict_name"), "s", _count(ops, "predict_name")),
        ]


class Resolve(Workload):
    """Route and predict batches of incoming records against trained blocks."""

    name = "resolve"
    EPOCHS = 3

    def inputs(self) -> None:
        self.world = gen.resolve_world(self.seed)
        records = gen.resolve_corpus(self.world)
        self.corpus_size = len(records)
        self.xml = self.path("resolve.xml")
        gen.write_dblp_xml(self.xml, records)
        self.ambiguous = self.correct = 0
        self.pairs: dict[int, int] = {}  # pairs per prediction -> predictions

    def setup(self) -> None:
        store = self.path("resolve.nd")
        _, result = self.cli("ingest", "--xml", self.xml, "--out", store)
        _require(result is not None and result["records"] == self.corpus_size, f"ingest gave {result}")
        epochs = str(self.EPOCHS)
        argv = ["train", "--corpus", store, "--out", self.path("models") + os.sep,
                "--max-epochs", epochs, "--patience", epochs, "--seed", str(self.seed)]
        for display, *_ in self.world.blocks:
            argv += ["--block", display]
        _, result = self.cli(*argv)
        _require(result is not None and len(result["blocks"]) == len(self.world.blocks), f"train gave {result}")
        # the serving process loads the registry and every checkpoint once
        corpus = namelink.store.load_corpus(store)
        self.registry = namelink.names.build_author_registry(corpus)
        self.models = {}
        for block in result["blocks"]:
            bundle = namelink.model.load_checkpoint(block["checkpoint"])
            self.models[block["variate"].casefold()] = (bundle.params, {a: i for i, a in enumerate(bundle.class_index)})

    def prepare(self, index: int) -> None:
        self.stream = gen.resolve_stream(self.world, index)
        mention = namelink.records.AuthorMention.from_raw
        self.batch = [
            namelink.records.BibRecord(s.rec.key, s.rec.kind, s.rec.title, s.rec.source, s.rec.year,
                                       tuple(mention(a) for a in s.rec.authors))
            for s in self.stream
        ]

    def cycle(self, index: int) -> list[Op]:
        predict = namelink.predict
        ambiguous_kind = predict.RouteKind.AMBIGUOUS
        mode = namelink.training.MODE_ANV
        # one batch is served with fresh encoders, as one resolve invocation would
        encoders = namelink.encoders.default_encoders()
        ops = []
        for truth, record in zip(self.stream, self.batch):
            self.trace.new_request()
            outcomes = []
            with self.trace.span("bench.record"):
                started = perf_counter()
                for m in record.authors:
                    route = predict.route_name(self.registry, m.display_name)
                    chosen = None
                    if route.kind is ambiguous_kind and route.variate_key in self.models:
                        params, class_index = self.models[route.variate_key]
                        chosen = predict.predict_author(params, class_index, record, m.display_name, mode, encoders)
                    outcomes.append((route, chosen))
                seconds = perf_counter() - started
            ok = True
            for want, (route, chosen) in zip(truth.mentions, outcomes):
                ok = ok and route.kind.value == want.kind
                if want.kind == "AMBIGUOUS":
                    ok = ok and route.variate_key == want.block and chosen is not None
                    if chosen is not None:
                        self.ambiguous += 1
                        self.correct += chosen.chosen.render() == want.author
                        self.pairs[chosen.pair_count] = self.pairs.get(chosen.pair_count, 0) + 1
            ops.append(Op("record", seconds, ok, 1))
        return ops

    @property
    def accuracy(self) -> float:
        return self.correct / self.ambiguous if self.ambiguous else 0.0

    def final_checks(self):
        return [Op("accuracy", 0.0, self.accuracy >= ACCURACY_FLOOR)]

    def shape(self) -> dict:
        # every batch has the same make-up, so the last one stands for all;
        # the pairs histogram counts every prediction the run made
        stream = self.stream
        mentions = [m for s in stream for m in s.mentions]
        authors = {m.author if m.kind == "AMBIGUOUS" else m.printed for m in mentions}
        large = sum(1 for s in stream if any(
            m.kind == "AMBIGUOUS" and comb(len(s.mentions) + 1, 2) >= 50 for m in s.mentions))
        pairs = [p for p, n in self.pairs.items() for _ in range(n)]
        return shape([s.rec.authors for s in stream], len(authors), [m.kind for m in mentions], pairs, large,
                     blocks=len(self.models))

    @staticmethod
    def _records_per_s(ops: list[Op]) -> float:
        """Median over batches of records resolved per second of resolving."""
        batches: dict[int, list[float]] = {}
        for op in ops:
            if op.kind == "record":
                batches.setdefault(op.cycle, []).append(op.seconds)
        return median([len(s) / sum(s) for s in batches.values()])

    def e2e(self, ops):
        seconds = [op.seconds for op in ops if op.kind == "record"]
        return {"throughput": self._records_per_s(ops), "latency_p50_ms": 1e3 * median(seconds)}

    def named(self, ops):
        seconds = [op.seconds * 1e3 for op in ops if op.kind == "record"]
        p99 = reportable_percentile(seconds, 99)
        return [
            ("resolve_records_per_s", self._records_per_s(ops), "1/s", len({op.cycle for op in ops if op.kind == "record"})),
            ("resolve_p50_ms", median(seconds), "ms", len(seconds)),
            ("resolve_p99_ms", p99, "ms", len(seconds)),
            ("resolve_accuracy", self.accuracy, "ratio", self.ambiguous),
        ]


WORKLOADS = {w.name: w for w in (TrainBlock, CorpusPass, Resolve)}
