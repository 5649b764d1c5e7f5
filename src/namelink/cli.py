"""Command-line entry point: ingest, inspect, train, predict, evaluate.

Commands cover the whole pipeline: ``ingest`` converts a DBLP-format XML
dump into the line-delimited corpus store, ``stats`` reports corpus or block
counters, ``split``/``train``/``evaluate`` run one block's experiment, and
``predict`` routes a single name (loading a model only when the name is
ambiguous).  ``gen-synth`` emits a synthetic separable corpus for smoke
runs.

Configuration comes from flags, optionally backed by a flat key=value file
(flags win).  Every dispatched run appends one JSON line to a manifest.
Exit codes: 0 success, 1 operational failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import json
import os
import re
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .blocking import (
    Block,
    BlockingError,
    block_stats,
    build_block,
    corpus_stats,
    render_block_stats,
    render_corpus_stats,
)
from .dblp_xml import DblpParseError, ParseCounters, parse_dblp_stream
from .encoders import (
    NAME_DIM,
    TEXT_DIM,
    EmbeddingTableError,
    Encoders,
    TableEncoder,
    default_encoders,
    load_embedding_table,
)
from .metrics import EVAL_ALL, EVAL_ANV, EvaluationError, evaluate_block, render_report
from .model import CheckpointBundle, CheckpointError, load_checkpoint, save_checkpoint
from .names import build_author_registry
from .predict import AGGREGATIONS, PredictionError, RouteKind, predict_author, render_prediction, route_name
from .records import DBLP_KINDS, DEFAULT_KINDS
from .store import CorpusStoreError, atomic_path, load_corpus, read_corpus_store, write_corpus_store
from .synth import SynthConfig, SynthError, gen_synth
from .training import (
    MODE_ANV,
    MODE_FULL,
    Split,
    SplitAssignment,
    TrainingError,
    TrainRunConfig,
    derive_block_seeds,
    history_lines,
    split_per_author,
    train_block_model,
)

_OPERATIONAL_ERRORS = (
    BlockingError,
    CheckpointError,
    CorpusStoreError,
    DblpParseError,
    EmbeddingTableError,
    EvaluationError,
    FloatingPointError,
    PredictionError,
    SynthError,
    TrainingError,
    ValueError,
    OSError,
)


def _build_encoders(name_table: str | None, text_table: str | None) -> Encoders:
    """The default encoders, each behind the embedding table given for it."""
    name, text = default_encoders()
    if name_table:
        name = load_embedding_table(name_table, NAME_DIM, name)
    if text_table:
        text = load_embedding_table(text_table, TEXT_DIM, text)
    return Encoders(name=name, text=text)


def _encoder_fingerprint(encoders: Encoders) -> dict:
    """Per input: hashing or table, its dim, and for a table the sha256 of
    the bytes it was loaded from."""

    def one(encoder) -> dict:
        if isinstance(encoder, TableEncoder):
            return {"kind": "table", "dim": encoder.dim, "sha256": encoder.sha256}
        return {"kind": "hashing", "dim": encoder.dim}

    return {"name": one(encoders.name), "text": one(encoders.text)}


def _check_encoders(bundle: CheckpointBundle, checkpoint: str, encoders: Encoders) -> None:
    """Refuse encoders other than the checkpoint was trained with."""
    trained = bundle.extra["encoders"]
    given = _encoder_fingerprint(encoders)
    if trained != given:
        raise CheckpointError(
            f"checkpoint {checkpoint} was trained with encoders {json.dumps(trained, sort_keys=True)} "
            f"but the flags build {json.dumps(given, sort_keys=True)}"
        )


def _encoder_counts(encoders: Encoders) -> dict:
    """For the manifest: the fallback lookups of each embedding table in use
    (training looks up each distinct name and each distinct title or source
    of a block once), and the hit rate of the hashing name encoder's cache (a
    table's fallback sees only the table's misses), null when it was not
    called, as in ``train``, whose sample banks encode uncached.  The text
    encoder keeps no cache and so reports no rate."""
    counts = {}
    for kind, encoder in (("name", encoders.name), ("text", encoders.text)):
        if isinstance(encoder, TableEncoder):
            counts[f"{kind}_table_misses"] = encoder.miss_count
    name = encoders.name.fallback if isinstance(encoders.name, TableEncoder) else encoders.name
    counts["name_cache_hit_rate"] = name.hits / name.calls if name.calls else None
    return counts


def _blas_threads() -> int | None:
    """Threads the OpenBLAS that numpy loaded will use, asked of the library
    itself through ctypes; None when numpy ships no OpenBLAS or it answers
    to none of the known names."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _run_identity(params_dtype: np.dtype) -> dict:
    """What a bit-identical rerun needs besides the inputs and the seed: the
    model dtype, the numpy version, the BLAS it was built against and the
    BLAS thread count (null when it cannot be read).  numpy builds without a
    build-config record report the BLAS as "unknown"."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "dtype": str(params_dtype),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
    }


def _load_blocks(corpus_path: str, variate_keys: list[str]) -> list[Block]:
    """Read the corpus and build its registry once, then every block asked
    for; an unknown key fails here, before any block's work starts."""
    corpus = load_corpus(corpus_path)
    registry = build_author_registry(corpus)
    return [build_block(corpus, registry, key) for key in variate_keys]


def _slug(variate_key: str) -> str:
    return re.sub(r"\W+", "_", variate_key.casefold()).strip("_")


# the TrainRunConfig fields ``train`` takes as flags; each flag's default and type are the field's
_TRAIN_FLAGS = ("max_epochs", "patience", "reassign_interval", "batch_size", "learning_rate")


def _train_config(args) -> TrainRunConfig:
    return TrainRunConfig(**{name: getattr(args, name) for name in _TRAIN_FLAGS})


def _block_split(block: Block, master_seed: int) -> tuple[SplitAssignment, int, int]:
    """The split of ``block`` under ``master_seed``, with the block's split
    and training seeds: the one recipe ``split``, ``train`` and
    ``evaluate`` share, so evaluation tests on the records training held out."""
    split_seed, train_seed = derive_block_seeds(master_seed, block.variate_key)
    return split_per_author(block, split_seed), split_seed, train_seed


def _train_block(
    block: Block,
    master_seed: int,
    checkpoint_path: str,
    config: TrainRunConfig,
    encoders: Encoders,
    fingerprint: dict,
) -> dict:
    """Train one block, write its checkpoint and history, and return its
    manifest summary."""
    split, _, train_seed = _block_split(block, master_seed)
    started = time.perf_counter()
    result = train_block_model(block, split, encoders, config=dataclasses.replace(config, seed=train_seed))
    train_s = time.perf_counter() - started
    extra = {
        "variate": block.display_variate,
        "master_seed": master_seed,
        "best_epoch": result.best_epoch,
        "best_val_accuracy": max(h.val_accuracy for h in result.history),
        "epochs_run": len(result.history),
        "stopped_early": result.stopped_early,
        "val_on_train": result.val_on_train,
        "encoders": fingerprint,
        **_run_identity(result.best_params.flat.dtype),
    }
    checkpoint_path = save_checkpoint(checkpoint_path, result.best_params, list(block.authors), extra)
    with atomic_path(checkpoint_path + ".history.ndjson") as tmp:
        tmp.write_text("\n".join(history_lines(result.history)) + "\n", encoding="utf-8")
    train_samples = int(result.class_counts.sum())
    return {
        "variate": block.display_variate,
        "classes": block.n_classes,
        "entries": len(block.entries),
        "train_samples": train_samples,
        "input_columns": result.input_columns,
        **{k: extra[k] for k in ("best_epoch", "best_val_accuracy", "epochs_run")},
        "epochs_after_best": extra["epochs_run"] - extra["best_epoch"],
        "stop_reason": "patience" if result.stopped_early else "max_epochs",
        "train_s": train_s,
        "train_samples_per_s": train_samples * len(result.history) / train_s,
        "epoch_s_p50": statistics.median(result.epoch_seconds),
        "epoch_s_max": max(result.epoch_seconds),
        **{k: extra[k] for k in ("dtype", "numpy", "blas", "blas_threads")},
        "checkpoint": checkpoint_path,
    }


def _cmd_ingest(args) -> dict:
    counters = ParseCounters()
    kinds = DEFAULT_KINDS
    if args.kinds is not None:
        kinds = frozenset(k.strip() for k in args.kinds.split(",") if k.strip())
        unknown = ", ".join(sorted(kinds - DBLP_KINDS))
        if unknown or not kinds:
            what = f"{unknown}, which DBLP does not have" if unknown else "no record kind"
            raise ValueError(f"--kinds {args.kinds!r} names {what}; the kinds are {', '.join(sorted(DBLP_KINDS))}")
    with open(args.xml, "rb") as stream:
        summary = write_corpus_store(
            parse_dblp_stream(stream, kinds_filter=kinds, counters=counters), args.out
        )
    print(f"records\t{summary.records}")
    print(f"author mentions\t{summary.author_mentions}")
    print(f"skipped (no title/authors/key)\t{counters.skipped}")
    print(f"skipped other kinds\t{counters.skipped_other_kinds}")
    print(f"records with empty source\t{counters.empty_source}")
    print(f"dropped author mentions\t{counters.dropped_author_mentions}")
    return {
        "records": summary.records,
        "author_mentions": summary.author_mentions,
        "skipped": counters.skipped,
        "skipped_other_kinds": counters.skipped_other_kinds,
        "empty_source": counters.empty_source,
        "dropped_author_mentions": counters.dropped_author_mentions,
        "out": args.out,
    }


def _cmd_stats(args) -> dict:
    if args.block is None:
        stats = corpus_stats(read_corpus_store(args.corpus))
        text = render_corpus_stats(stats)
        out = {"records": stats.records, "authors": stats.authors, "names": stats.names, "variates": stats.variates}
    else:
        (block,) = _load_blocks(args.corpus, [args.block])
        stats = block_stats(block)
        text = render_block_stats(block, stats)
        out = {"block": block.display_variate, **stats.__dict__}
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        out["out"] = args.out
    return out


def _cmd_split(args) -> dict:
    (block,) = _load_blocks(args.corpus, [args.block])
    split, split_seed, _ = _block_split(block, args.seed)
    counts = split.counts()
    lines = []
    for author in sorted(split.by_author, key=lambda a: a.render()):
        for key in sorted(split.by_author[author]):
            lines.append(f"{author.render()}\t{key}\t{split.by_author[author][key].value}")
    text = "\n".join(lines)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    summary = {s.value: counts[s] for s in Split}
    print(f"TRAIN/VAL/TEST records\t{counts[Split.TRAIN]}/{counts[Split.VAL]}/{counts[Split.TEST]}", file=sys.stderr)
    return {"block": block.display_variate, "split_seed": split_seed, **summary, "out": args.out}


def _cmd_train(args) -> dict:
    keys = args.block
    blocks = _load_blocks(args.corpus, keys)
    if len(keys) == 1 and not str(args.out).endswith("/") and not Path(args.out).is_dir():
        checkpoint_paths = [str(args.out)]
    else:
        out_dir = Path(args.out)
        checkpoint_paths = [str(out_dir / f"{_slug(key)}.npz") for key in keys]
        if len(set(checkpoint_paths)) < len(keys):
            raise ValueError(f"--block values {keys} do not map to distinct checkpoint files in {out_dir}")
        out_dir.mkdir(parents=True, exist_ok=True)
    encoders = _build_encoders(args.name_table, args.text_table)
    fingerprint = _encoder_fingerprint(encoders)
    config = _train_config(args)
    summaries = [
        _train_block(block, args.seed, ckpt, config, encoders, fingerprint)
        for block, ckpt in zip(blocks, checkpoint_paths)
    ]
    for s in summaries:
        print(
            f"{s['variate']}\tclasses {s['classes']}\tepochs {s['epochs_run']}\t"
            f"best epoch {s['best_epoch']}\tval acc {s['best_val_accuracy']:.4f}\t{s['checkpoint']}"
        )
    return {"blocks": summaries, **_encoder_counts(encoders)}


def _cmd_predict(args) -> dict:
    corpus = load_corpus(args.corpus)
    registry = build_author_registry(corpus)
    route = route_name(registry, args.name)
    if route.kind is RouteKind.NEW:
        print(f"NEW\t{args.name}\tno matching author")
        return {"route": "NEW", "name": args.name}
    if route.kind is RouteKind.UNIQUE:
        print(f"UNIQUE\t{args.name}\t{route.author.render()}")
        return {"route": "UNIQUE", "name": args.name, "author": route.author.render()}

    print(
        f"AMBIGUOUS\t{args.name}\t{len(route.candidates)} candidates"
        f"\tblock {registry.display_variate(route.variate_key)}"
    )
    if not args.checkpoint:
        raise PredictionError(
            f"name {args.name!r} is ambiguous; a trained checkpoint is required (--checkpoint)"
        )
    if not args.record_key:
        raise PredictionError("an ambiguous name needs the record to disambiguate (--record-key)")
    # stores are written without duplicate keys, so the first match is the only one
    record = next((r for r in corpus if r.record_key == args.record_key), None)
    if record is None:
        raise PredictionError(f"record key {args.record_key!r} not in corpus")
    if not route.candidates & {m.author_id for m in record.authors}:
        raise PredictionError(f"record {args.record_key!r} lists none of the candidates for {args.name!r}")
    bundle = load_checkpoint(args.checkpoint)
    unknown = route.candidates - set(bundle.class_index)
    if unknown:
        raise PredictionError(
            f"checkpoint {args.checkpoint} does not cover candidate(s) "
            f"{', '.join(sorted(a.render() for a in unknown))}; is it another block's model?"
        )
    encoders = _build_encoders(args.name_table, args.text_table)
    _check_encoders(bundle, args.checkpoint, encoders)
    class_index = {a: i for i, a in enumerate(bundle.class_index)}
    variate_mode = MODE_ANV if args.mode == EVAL_ANV else MODE_FULL
    prediction = predict_author(
        bundle.params, class_index, record, args.name, variate_mode, encoders, aggregation=args.agg
    )
    print(render_prediction(prediction))
    return {
        "route": "AMBIGUOUS",
        "name": args.name,
        "record": args.record_key,
        "chosen": prediction.chosen.render(),
        "pairs": prediction.pair_count,
        **_encoder_counts(encoders),
    }


def _cmd_evaluate(args) -> dict:
    (block,) = _load_blocks(args.corpus, [args.block])
    bundle = load_checkpoint(args.checkpoint)
    if len(bundle.class_index) != block.n_classes:
        raise EvaluationError(
            f"checkpoint {args.checkpoint} has {len(bundle.class_index)} classes but block "
            f"{block.display_variate!r} of this corpus has {block.n_classes}"
        )
    if bundle.class_index != list(block.authors):
        raise EvaluationError(
            f"the classes of checkpoint {args.checkpoint}, or their order, do not match block "
            f"{block.display_variate!r} of this corpus"
        )
    if bundle.extra["master_seed"] != args.seed:
        # another seed gives another split, whose TEST records training saw
        raise EvaluationError(
            f"checkpoint was trained with --seed {bundle.extra['master_seed']} but evaluate got --seed {args.seed}"
        )
    encoders = _build_encoders(args.name_table, args.text_table)
    _check_encoders(bundle, args.checkpoint, encoders)
    split, _, _ = _block_split(block, args.seed)
    report = evaluate_block(bundle.params, block, split, args.mode, encoders, aggregation=args.agg)
    text = render_report(report)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return {
        "block": block.display_variate,
        "mode": report.mode,
        "instances": report.instance_count,
        "MiAF1": report.miaf1,
        "MaAF1": report.maaf1,
        **_encoder_counts(encoders),
        "out": args.out,
    }


def _cmd_gen_synth(args) -> dict:
    config = SynthConfig(
        n_authors=args.authors,
        variate_key=args.block,
        clique_size=args.clique,
        records_per_author=args.records_per_author,
        vocab_size=args.vocab,
        seed=args.seed,
        share_full_name=args.share_full_name,
        coauthors_per_record=args.coauthors_per_record,
    )
    corpus = gen_synth(config)
    summary = write_corpus_store(corpus.records, args.out)
    truth_path = args.truth or f"{args.out}.truth.tsv"
    Path(truth_path).write_text(corpus.truth_text(), encoding="utf-8")
    print(f"records\t{summary.records}")
    print(f"authors\t{len(corpus.authors)}")
    print(f"corpus\t{args.out}")
    print(f"truth\t{truth_path}")
    return {
        "records": summary.records,
        "authors": len(corpus.authors),
        "out": args.out,
        "truth": truth_path,
    }


_COMMANDS = {
    "ingest": _cmd_ingest,
    "stats": _cmd_stats,
    "split": _cmd_split,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "gen-synth": _cmd_gen_synth,
}

_REQUIRED = {
    "ingest": ("xml", "out"),
    "stats": ("corpus",),
    "split": ("corpus", "block"),
    "train": ("corpus", "block", "out"),
    "predict": ("corpus", "name"),
    "evaluate": ("corpus", "block", "checkpoint"),
    "gen-synth": ("out",),
}


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(prog="namelink", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True)
    subs: dict[str, argparse.ArgumentParser] = {}

    def sub(name: str, help_text: str) -> argparse.ArgumentParser:
        p = subparsers.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=0, help="master seed for this run")
        p.add_argument("--config", default=None, help="flat key=value config file; flags win")
        p.add_argument("--manifest", default="runs.ndjson", help="append-only run manifest path")
        subs[name] = p
        return p

    # required-ness is checked after the config file is merged in, so any of
    # these may come from the file instead of the command line
    p = sub("ingest", "parse a DBLP-format XML dump into a corpus store")
    p.add_argument("--xml", default=None, help="input XML path")
    p.add_argument("--out", default=None, help="output corpus store path")
    default_kinds = ",".join(sorted(DEFAULT_KINDS))
    p.add_argument("--kinds", default=None, help=f"comma-separated record kinds (default {default_kinds})")

    p = sub("stats", "corpus-level or per-block statistics")
    p.add_argument("--corpus", default=None)
    p.add_argument("--block", default=None, help="name variate; omit for corpus-level stats")
    p.add_argument("--out", default=None, help="also write the table here")

    p = sub("split", "per-author train/val/test assignment for one block")
    p.add_argument("--corpus", default=None)
    p.add_argument("--block", default=None)
    p.add_argument("--out", default=None, help="write the assignment table here (default stdout)")

    p = sub("train", "train the classifier of one or more blocks")
    p.add_argument("--corpus", default=None)
    p.add_argument("--block", action="append", default=None, help="repeatable")
    p.add_argument("--out", default=None, help="checkpoint path (single block) or directory")
    for name in _TRAIN_FLAGS:
        default = getattr(TrainRunConfig, name)
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)
    p.add_argument("--name-table", default=None, help="precomputed name-embedding table")
    p.add_argument("--text-table", default=None, help="precomputed text-embedding table")

    p = sub("predict", "route a name; predict the author when ambiguous")
    p.add_argument("--corpus", default=None)
    p.add_argument("--name", default=None, help="the author name to resolve")
    p.add_argument("--record-key", default=None, help="record whose authorship is in question")
    p.add_argument("--checkpoint", default=None, help="trained block checkpoint")
    p.add_argument("--mode", choices=(EVAL_ALL, EVAL_ANV), default=EVAL_ALL)
    p.add_argument("--agg", choices=AGGREGATIONS, default="sum")
    p.add_argument("--name-table", default=None)
    p.add_argument("--text-table", default=None)

    p = sub("evaluate", "score a trained block on its test split")
    p.add_argument("--corpus", default=None)
    p.add_argument("--block", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--mode", choices=(EVAL_ALL, EVAL_ANV), default=EVAL_ALL)
    p.add_argument("--agg", choices=AGGREGATIONS, default="sum")
    p.add_argument("--out", default=None, help="also write the report here")
    p.add_argument("--name-table", default=None)
    p.add_argument("--text-table", default=None)

    # flag defaults are SynthConfig's; n_authors has none, so --authors sets its own
    p = sub("gen-synth", "generate a synthetic separable corpus")
    p.add_argument("--out", default=None, help="output corpus store path")
    p.add_argument("--truth", default=None, help="ground-truth file (default <out>.truth.tsv)")
    p.add_argument("--block", default=SynthConfig.variate_key, help="shared atomic name variate")
    p.add_argument("--authors", type=int, default=20)
    p.add_argument("--clique", type=int, default=SynthConfig.clique_size)
    p.add_argument("--records-per-author", type=int, default=SynthConfig.records_per_author)
    p.add_argument("--vocab", type=int, default=SynthConfig.vocab_size)
    p.add_argument("--coauthors-per-record", type=int, default=SynthConfig.coauthors_per_record)
    p.add_argument("--share-full-name", action="store_true", default=SynthConfig.share_full_name)

    return parser, subs


def _parse_config_file(path: str) -> dict[str, tuple[int, str]]:
    """Config key (``-`` read as ``_``) -> (line number, raw value)."""
    entries: dict[str, tuple[int, str]] = {}
    for line_no, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}:{line_no}: not UTF-8: {exc}") from exc
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key = key.strip().replace("-", "_")
        if key in entries:
            raise ValueError(f"{path}:{line_no}: config key {key!r} is already set on line {entries[key][0]}")
        entries[key] = (line_no, value.strip())
    return entries


def _flags_given(subparser: argparse.ArgumentParser, sub_argv: list[str]) -> set[str]:
    """Dests of the flags that appear in ``sub_argv``: a reparse with every
    default suppressed leaves only those in the namespace."""
    defaults = [(action, action.default) for action in subparser._actions]
    for action, _ in defaults:
        action.default = argparse.SUPPRESS
    try:
        return set(vars(subparser.parse_args(sub_argv)))
    finally:
        for action, default in defaults:
            action.default = default


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True, "0": False, "false": False, "no": False, "off": False}


def _config_value(action: argparse.Action, raw: str):
    """``raw`` as the flag of ``action`` would take it, or ValueError."""
    if isinstance(action.const, bool) or isinstance(action.default, bool):
        if raw.lower() not in _BOOLEANS:
            raise ValueError(f"expected one of {', '.join(_BOOLEANS)}")
        return _BOOLEANS[raw.lower()]
    value = raw if action.type is None else action.type(raw)
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"choose from {', '.join(action.choices)}")
    return [value] if isinstance(action, argparse._AppendAction) else value


def _apply_config_file(
    args: argparse.Namespace, subparser: argparse.ArgumentParser, sub_argv: list[str]
) -> None:
    """Fill flag values from the config file for every flag that does not
    appear on the command line."""
    if not args.config:
        return
    entries = _parse_config_file(args.config)
    known = {action.dest: action for action in subparser._actions if action.dest != "help"}
    given = _flags_given(subparser, sub_argv)
    if "manifest" in entries and "manifest" not in given:
        # set first, so an error in any other key is logged to this manifest
        args.manifest = entries["manifest"][1]
    for key, (line_no, raw) in entries.items():
        action = known.get(key)
        if action is None:
            raise ValueError(f"{args.config}:{line_no}: config key {key!r} is not a flag of this command")
        if action.dest in given:
            continue
        try:
            value = _config_value(action, raw)
        except ValueError as exc:
            raise ValueError(f"{args.config}:{line_no}: config key {key!r} has bad value {raw!r}: {exc}") from exc
        setattr(args, action.dest, value)


def _write_manifest(args: argparse.Namespace, status: str, payload: dict, duration: float) -> None:
    snapshot = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "manifest") and not k.startswith("_")
    }
    entry = {
        "command": args.command,
        "status": status,
        "config": snapshot,
        "result": payload,
        "duration_s": round(duration, 3),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    with open(args.manifest, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, ensure_ascii=False, default=str) + "\n")


class _DevnullOnceClosed:
    """Stands in for stdout while a command runs.  Once the reader has closed
    the pipe (``namelink split | head -1``), the rest of the output goes to
    devnull, so the command finishes, is logged with its result, and the
    interpreter's last flush at exit has nothing to fail on."""

    def __init__(self, stream):
        self._stream = stream

    def _to_devnull(self) -> None:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, self._stream.fileno())
        os.close(devnull)

    def write(self, text: str) -> int:
        try:
            return self._stream.write(text)
        except BrokenPipeError:
            self._to_devnull()
            return len(text)

    def flush(self) -> None:
        try:
            self._stream.flush()
        except BrokenPipeError:
            self._to_devnull()

    def __getattr__(self, name):
        return getattr(self._stream, name)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subs = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    stdout, sys.stdout = sys.stdout, _DevnullOnceClosed(sys.stdout)
    try:
        # a config-file error is logged like any other: with the flags as set so far
        _apply_config_file(args, subs[args.command], argv[argv.index(args.command) + 1 :])
        missing = [name for name in _REQUIRED[args.command] if getattr(args, name) in (None, [])]
        if missing:
            subs[args.command].error(
                "missing required argument(s): " + ", ".join(f"--{m.replace('_', '-')}" for m in missing)
            )
        payload = _COMMANDS[args.command](args)
        sys.stdout.flush()
        _write_manifest(args, "ok", payload, time.perf_counter() - started)
    except _OPERATIONAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        try:
            _write_manifest(args, "error", {"error": str(exc)}, time.perf_counter() - started)
        except OSError:
            pass
        return 1
    finally:
        sys.stdout = stdout
    return 0


if __name__ == "__main__":
    sys.exit(main())
