"""Acceptance battery for the disambiguation pipeline.

Each test covers one release criterion and prints a single PASS/FAIL line
through the capture-proof channel, so the verdict list survives pytest's
stdout swallowing.  The checks rely on independent oracles written here
rather than on the library's own code paths wherever the two can disagree:
finite differences for gradients, pair enumeration for prediction scores,
Counter arithmetic for metrics, and closed-form constants for the rest.
"""

import dataclasses
import itertools
import json
import math
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import conftest

from namelink.blocking import BlockEntry, block_stats, build_block
from namelink.dblp_xml import ParseCounters, parse_dblp_stream
from namelink.encoders import default_encoders
from namelink.metrics import EVAL_ALL, EVAL_ANV, evaluate_block, micro_macro_report
from namelink.model import (
    ModelConfig,
    ModelParams,
    forward_batch,
    init_model,
    loss_and_gradients_batch,
)
from namelink.names import AuthorRegistry, build_author_registry, normalize_name
from namelink.predict import predict_author
from namelink.records import AuthorMention, BibRecord
from namelink.store import read_corpus_store, write_corpus_store
from namelink.synth import SynthConfig, gen_synth
from namelink.training import (
    MODE_ANV,
    MODE_FULL,
    SampleBank,
    TrainingMonitor,
    TrainRunConfig,
    derive_block_seeds,
    split_per_author,
    train_block_model,
)

DATA = Path(__file__).parent / "data"


def report(cid: str, status: str, detail: str = "") -> None:
    line = f"{cid} {status}" + (f"  ({detail})" if detail else "")
    print(line, flush=True)
    conftest.VERDICTS.append(line)


def random_name(rng) -> str:
    first = "".join(chr(ord("a") + int(c)) for c in rng.integers(26, size=int(rng.integers(2, 7))))
    last = "".join(chr(ord("a") + int(c)) for c in rng.integers(26, size=int(rng.integers(2, 8))))
    return f"{first.capitalize()} {last.capitalize()}"


def make_record(rng, key: str, omega: int) -> BibRecord:
    names = []
    while len(names) < omega:
        candidate = random_name(rng)
        if candidate not in names:
            names.append(candidate)
    title = " ".join(random_name(rng).split()[0].lower() for _ in range(4))
    return BibRecord(
        record_key=key,
        kind="article",
        title=title,
        source="Venue",
        year=2015,
        authors=tuple(AuthorMention.from_raw(n) for n in names),
    )


def reference_loss(config, flat, x1, x2, labels, weights):
    """The mean weighted cross-entropy of the two-branch net, written again
    here in extended precision: an oracle independent of the model code,
    whose roundoff sits far below the finite-difference bound even where a
    gradient entry is near zero.  ``flat`` is packed in ``layer_shapes``
    order."""
    layers, offset = [], 0
    for n_in, n_out in config.layer_shapes():
        w = flat[offset : offset + n_in * n_out].reshape(n_in, n_out)
        offset += n_in * n_out
        layers.append((w, flat[offset : offset + n_out]))
        offset += n_out

    def stack(x, stack_layers):
        for w, b in stack_layers:
            x = np.maximum(x @ w + b, 0)
        return x

    n1, n2 = len(config.branch1_hidden), len(config.branch2_hidden)
    merge = np.concatenate(
        [stack(x1.astype(flat.dtype), layers[:n1]), stack(x2.astype(flat.dtype), layers[n1 : n1 + n2])], axis=1
    )
    w_out, b_out = layers[-1]
    logits = stack(merge, layers[n1 + n2 : -1]) @ w_out + b_out
    logits -= logits.max(axis=1, keepdims=True)
    log_p = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return -(log_p[np.arange(labels.size), labels] * weights).sum() / labels.size


def test_a1_gradient_finite_differences():
    """Analytic gradients match central finite differences on random nets.
    The differences are taken of :func:`reference_loss` in long double: a
    float64 loss of magnitude ~1 carries ~1e-11 of roundoff into a central
    difference at h = 1e-5, which is already 1e-4 of a 1e-7 gradient entry."""
    assert np.finfo(np.longdouble).eps < np.finfo(np.float64).eps, "the oracle needs a long double wider than float64"
    started = time.perf_counter()
    try:
        rng = np.random.default_rng(101)
        h = 1e-5
        worst = 0.0
        n_configs = 24
        for trial in range(n_configs):
            depth = lambda: tuple(int(rng.integers(1, 7)) for _ in range(int(rng.integers(1, 3))))
            config = ModelConfig(
                n_classes=int(rng.integers(2, 6)),
                input1_dim=int(rng.integers(2, 9)),
                input2_dim=int(rng.integers(2, 9)),
                branch1_hidden=depth(),
                branch2_hidden=depth(),
                merged_hidden=depth(),
                dropout_rate=0.0,
                seed=trial,
            )
            assert config.n_params <= 5000
            params = init_model(config)
            # zero biases put dead units exactly on the relu kink, where a
            # central difference straddles the nondifferentiability; jitter
            # every parameter so preactivations stay clear of zero
            params.flat += rng.normal(0.0, 0.2, size=config.n_params)
            batch = int(rng.integers(1, 5))
            x1 = rng.normal(size=(batch, config.input1_dim))
            x2 = rng.normal(size=(batch, config.input2_dim))
            labels = rng.integers(config.n_classes, size=batch)
            weights = rng.uniform(0.5, 2.0, size=batch)

            _, grad = loss_and_gradients_batch(params, x1, x2, labels, weights)

            if config.n_params <= 400:
                coords = np.arange(config.n_params)
            else:
                coords = rng.choice(config.n_params, size=400, replace=False)
            flat = params.flat.astype(np.longdouble)
            for k in coords:
                up, down = flat.copy(), flat.copy()
                up[k] += h
                down[k] -= h
                lu = reference_loss(config, up, x1, x2, labels, weights)
                ld = reference_loss(config, down, x1, x2, labels, weights)
                fd = float((lu - ld) / (2 * np.longdouble(h)))
                scale = max(abs(grad[k]), abs(fd))
                if scale < 1e-8:
                    continue
                worst = max(worst, abs(grad[k] - fd) / scale)
        elapsed = time.perf_counter() - started
        assert worst < 1e-4, f"max relative error {worst:.3e}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
    except BaseException:
        report("A-1", "FAIL")
        raise
    report("A-1", "PASS", f"{n_configs} configs, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_a2_uniform_softmax_and_loss():
    """A zero-weight model is exactly uniform and scores ln(L)."""
    try:
        rng = np.random.default_rng(102)
        for n_classes in (2, 3, 7):
            config = ModelConfig(
                n_classes=n_classes, input1_dim=6, input2_dim=5,
                branch1_hidden=(4,), branch2_hidden=(4,), merged_hidden=(4,), dropout_rate=0.0,
            )
            params = ModelParams(config, np.zeros(config.n_params))
            batch = 9
            x1 = rng.normal(size=(batch, 6))
            x2 = rng.normal(size=(batch, 5))
            probs, _ = forward_batch(params, x1, x2)
            assert np.abs(probs - 1.0 / n_classes).max() <= 1e-12
            labels = rng.integers(n_classes, size=batch)
            loss, _ = loss_and_gradients_batch(
                params, x1, x2, labels, np.ones(batch)
            )
            assert abs(loss - math.log(n_classes)) <= 1e-9
    except BaseException:
        report("A-2", "FAIL")
        raise
    report("A-2", "PASS", "1/L probs at 1e-12, ln(L) loss at 1e-9")


def test_a3_pairwise_prediction_oracle():
    """predict_author agrees with plain pair enumeration on 200 records."""
    try:
        rng = np.random.default_rng(103)
        classes = [make_record(rng, "c", 3).authors[i].author_id for i in range(3)]
        class_index = {a: i for i, a in enumerate(classes)}
        config = ModelConfig(
            n_classes=3, branch1_hidden=(10,), branch2_hidden=(10,), merged_hidden=(10,), dropout_rate=0.0
        )
        enc = default_encoders()
        for trial in range(200):
            params = init_model(dataclasses.replace(config, seed=trial % 17))
            omega = int(rng.integers(1, 6))
            record = make_record(rng, f"r{trial}", omega)
            target = random_name(rng)
            mode = MODE_FULL if trial % 2 == 0 else MODE_ANV
            agg = "sum" if trial % 3 else "max"
            prediction = predict_author(params, class_index, record, target, mode, enc, agg)
            assert prediction.pair_count == (omega + 1) * omega // 2

            forms = [normalize_name(m.display_name) for m in record.authors]
            forms.append(normalize_name(target))
            if mode == MODE_FULL:
                pool, first = [f.render() for f in forms], forms[-1].first_name
            else:
                pool, first = [f.anv for f in forms], forms[-1].anv_first
            per_pair = []
            for p, j in itertools.combinations(range(len(pool)), 2):
                x1 = np.concatenate([enc.name(first), 0.5 * (enc.name(pool[p]) + enc.name(pool[j]))])
                x2 = 0.5 * (enc.text(record.title) + enc.text(record.source))
                per_pair.append(forward_batch(params, x1[None, :], x2[None, :])[0][0])
            stacked = np.stack(per_pair)
            scores = stacked.sum(axis=0) if agg == "sum" else stacked.max(axis=0)
            assert prediction.chosen == classes[int(np.argmax(scores))]
            np.testing.assert_allclose(prediction.scores, scores, atol=1e-10)
    except BaseException:
        report("A-3", "FAIL")
        raise
    report("A-3", "PASS", "200 records, pair counts and argmax vs enumeration")


def test_a4_sample_generation_law():
    """Every record yields 2*omega rows, full and abbreviated in turn, unmixed,
    each twin pair sharing its j."""
    try:
        rng = np.random.default_rng(104)
        enc = default_encoders()
        dim = enc.name.dim
        for trial in range(100):
            omega = int(rng.integers(1, 7))
            record = make_record(rng, f"s{trial}", omega)
            position = int(rng.integers(omega))
            class_index = {m.author_id: i for i, m in enumerate(record.authors)}
            bank = SampleBank([BlockEntry(record, position)], class_index, enc)
            bank.assign_coauthors(rng, slice(0, bank.n_samples))
            x1, _ = conftest.widen(bank, *bank.rows(np.arange(bank.n_samples)))
            assert x1.shape[0] == 2 * omega

            forms = [normalize_name(m.display_name) for m in record.authors]
            target = forms[position]
            # the bank's float32 rows are the float64 oracle rounded once
            f32 = lambda x: np.asarray(x).astype(np.float32)
            np.testing.assert_array_equal(x1[0::2, :dim], f32(np.tile(enc.name(target.first_name), (omega, 1))))
            np.testing.assert_array_equal(x1[1::2, :dim], f32(np.tile(enc.name(target.anv_first), (omega, 1))))

            # p's name per row in each mode; a solo record pairs the empty name
            fulls = [f.render() for f in forms] if omega > 1 else [""]
            anvs = [f.anv for f in forms] if omega > 1 else [""]
            for k in range(len(fulls)):
                js = []
                for row, names in ((x1[2 * k], fulls), (x1[2 * k + 1], anvs)):
                    pair = row[dim:]
                    pool = names + [""]
                    assert any(
                        np.array_equal(pair, f32(0.5 * (enc.name(a) + enc.name(b))))
                        for a in pool for b in pool
                    ), "pair half mixes modes"
                    js.append({
                        j for j, n in enumerate(names)
                        if np.array_equal(pair, f32(0.5 * (enc.name(names[k]) + enc.name(n))))
                    })
                assert js[0] & js[1], "twins draw different j"
    except BaseException:
        report("A-4", "FAIL")
        raise
    report("A-4", "PASS", "100 records, 2*omega rows alternating full/abbreviated, modes pure, twins share j")


def test_a5_splitter_partition():
    """Disjoint, exhaustive, train-guaranteed, 14/3/3 at twenty records."""
    try:
        corpus = [
            BibRecord(
                record_key=f"t{k}", kind="article", title=f"w{k}", source="V", year=2001,
                authors=(AuthorMention.from_raw("Tao Yan"), AuthorMention.from_raw(f"Co Person{k}")),
            )
            for k in range(20)
        ]
        registry = build_author_registry(corpus)
        block = build_block(corpus, registry, "T Yan")
        split = split_per_author(block, seed=11)
        (assignment,) = split.by_author.values()
        keys = {e.record.record_key for e in block.entries}
        assert set(assignment) == keys  # exhaustive, and disjoint by dict shape
        tallies = Counter(s.value for s in assignment.values())
        assert (tallies["TRAIN"], tallies["VAL"], tallies["TEST"]) == (14, 3, 3)

        # every author keeps at least one training record, any block size
        for n in range(1, 26):
            small = build_block(corpus[:n], registry, "T Yan")
            parts = split_per_author(small, seed=n)
            for author, table in parts.by_author.items():
                assert sum(1 for s in table.values() if s.value == "TRAIN") >= 1

        again = split_per_author(block, seed=11)
        assert again.by_author == split.by_author
    except BaseException:
        report("A-5", "FAIL")
        raise
    report("A-5", "PASS", "partition, >=1 TRAIN, 20 -> 14/3/3, seed-stable")


def test_a6_metrics_oracle():
    """Known-answer case plus micro identities on random vectors."""
    try:
        report_aab = micro_macro_report([0, 0, 1], [0, 1, 1], n_classes=2)
        assert abs(report_aab.miaf1 - 2.0 / 3.0) <= 1e-9
        assert abs(report_aab.maaf1 - 2.0 / 3.0) <= 1e-9

        # independent recomputation from the definitions
        pairs = Counter(zip([0, 0, 1], [0, 1, 1]))
        f1s = []
        for c in (0, 1):
            tp = pairs[(c, c)]
            fp = sum(v for (t, p), v in pairs.items() if p == c and t != c)
            fn = sum(v for (t, p), v in pairs.items() if t == c and p != c)
            precision = tp / (tp + fp)
            recall = tp / (tp + fn)
            f1s.append(2 * precision * recall / (precision + recall))
        assert abs(report_aab.maaf1 - sum(f1s) / 2) <= 1e-9
        micro_tp = sum(v for (t, p), v in pairs.items() if t == p)
        assert abs(report_aab.miaf1 - micro_tp / 3) <= 1e-9

        rng = np.random.default_rng(106)
        for _ in range(100):
            n_classes = int(rng.integers(2, 7))
            n = int(rng.integers(1, 50))
            truths = rng.integers(n_classes, size=n)
            preds = rng.integers(n_classes, size=n)
            out = micro_macro_report(truths, preds, n_classes)
            assert abs(out.miap - out.miar) <= 1e-12
            assert abs(out.miap - out.miaf1) <= 1e-12
    except BaseException:
        report("A-6", "FAIL")
        raise
    report("A-6", "PASS", "AAB/ABB -> 2/3 both averages; micro identities x100")


def run_synth_block(synth_config: SynthConfig, master_seed: int = 0):
    corpus = gen_synth(synth_config)
    registry = build_author_registry(corpus.records)
    block = build_block(corpus.records, registry, synth_config.variate_key)
    split_seed, train_seed = derive_block_seeds(master_seed, block.variate_key)
    split = split_per_author(block, split_seed)
    enc = default_encoders()
    result = train_block_model(block, split, enc, TrainRunConfig(seed=train_seed))
    scores = {
        mode: evaluate_block(result.best_params, block, split, mode, enc).miaf1
        for mode in (EVAL_ALL, EVAL_ANV)
    }
    return scores, result


def test_a7_end_to_end_separable_corpus():
    """Training on a constructed separable block reaches high accuracy."""
    started = time.perf_counter()
    try:
        main_scores, _ = run_synth_block(
            SynthConfig(n_authors=20, variate_key="Y Chen", clique_size=5,
                        records_per_author=40, vocab_size=30, seed=7)
        )
        assert main_scores[EVAL_ALL] >= 0.90, f"ALL {main_scores[EVAL_ALL]:.3f}"
        assert main_scores[EVAL_ANV] >= 0.90, f"ANV {main_scores[EVAL_ANV]:.3f}"

        stress_scores, _ = run_synth_block(
            SynthConfig(n_authors=2, variate_key="Y Chen", clique_size=5,
                        records_per_author=40, vocab_size=30, seed=7, share_full_name=True)
        )
        assert stress_scores[EVAL_ALL] >= 0.80, f"stress ALL {stress_scores[EVAL_ALL]:.3f}"
        assert stress_scores[EVAL_ANV] >= 0.80, f"stress ANV {stress_scores[EVAL_ANV]:.3f}"
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"took {elapsed:.0f}s"
    except BaseException:
        report("A-7", "FAIL")
        raise
    report(
        "A-7",
        "PASS",
        f"MiAF1 ALL {main_scores[EVAL_ALL]:.3f} ANV {main_scores[EVAL_ANV]:.3f}, "
        f"stress {stress_scores[EVAL_ALL]:.3f}/{stress_scores[EVAL_ANV]:.3f}, {elapsed:.0f}s",
    )


def separable_block_small():
    corpus = []
    for k in range(8):
        corpus.append(
            BibRecord(
                record_key=f"x{k}", kind="article", title=f"storage systems {k}", source="FAST",
                year=2005, authors=(
                    AuthorMention.from_raw("Ping Xu"),
                    AuthorMention.from_raw("Jin Tan"),
                    AuthorMention.from_raw("Bo Luo"),
                ),
            )
        )
        corpus.append(
            BibRecord(
                record_key=f"y{k}", kind="article", title=f"protein folding {k}", source="Bioinf.",
                year=2005, authors=(
                    AuthorMention.from_raw("Pang Xu"),
                    AuthorMention.from_raw("Mei Qiu"),
                    AuthorMention.from_raw("Hua Shi"),
                ),
            )
        )
    registry = build_author_registry(corpus)
    return build_block(corpus, registry, "P Xu")


def test_a8_early_stop_and_checkpoint():
    """Halting lands exactly patience epochs past the last improvement, and
    the returned parameters are the best epoch's snapshot bit for bit."""
    try:
        # monitor-level exactness on a crafted schedule
        patience = 50
        monitor = TrainingMonitor(patience)
        last_improvement = 7
        epoch = 0
        losses = {e: 1.0 - 0.05 * e for e in range(1, last_improvement + 1)}
        while not monitor.should_stop:
            epoch += 1
            loss = losses.get(epoch, losses[last_improvement])
            monitor.observe(epoch, loss, val_accuracy=0.5)
        assert epoch == last_improvement + patience

        # live run: deterministic replay up to the best epoch reproduces the
        # checkpointed parameters exactly
        block = separable_block_small()
        split = split_per_author(block, seed=4)
        model_config = ModelConfig(
            n_classes=2, branch1_hidden=(16,), branch2_hidden=(16,), merged_hidden=(16, 8)
        )
        config = TrainRunConfig(max_epochs=200, patience=6, learning_rate=3e-2, batch_size=16, seed=9)
        enc = default_encoders()
        result = train_block_model(block, split, enc, config, model_config)
        assert result.stopped_early, "no early stop within budget"

        best_loss = math.inf
        last_improve = 0
        for stats in result.history:
            if stats.val_loss < best_loss:
                best_loss = stats.val_loss
                last_improve = stats.epoch
        assert result.history[-1].epoch == last_improve + config.patience

        truncated = TrainRunConfig(**{**config.__dict__, "max_epochs": result.best_epoch})
        replay = train_block_model(block, split, enc, truncated, model_config)
        # the best epoch beat every earlier one, so it is the replay's last and best
        assert replay.best_epoch == result.best_epoch == len(replay.history)
        assert np.array_equal(result.best_params.flat, replay.best_params.flat)
    except BaseException:
        report("A-8", "FAIL")
        raise
    report("A-8", "PASS", f"halt at last improvement + patience; best epoch {result.best_epoch} bit-exact")


def test_a9_parser_fixture_and_store():
    """The bundled corpus parses to its expectation; the store is stable."""
    try:
        counters = ParseCounters()
        with open(DATA / "dblp_fixture.xml", "rb") as fh:
            records = list(parse_dblp_stream(fh, counters=counters))
        expected = json.loads((DATA / "dblp_fixture.expected.json").read_text("utf-8"))

        want = expected["counters"]
        assert counters.records == want["records"] == len(records)
        assert counters.skipped_missing_title == want["skipped_missing_title"]
        assert counters.skipped_missing_authors == want["skipped_missing_authors"]
        assert counters.skipped_missing_key == want["skipped_missing_key"]
        assert counters.skipped_other_kinds == want["skipped_other_kinds"]
        assert counters.empty_source == want["empty_source"]
        for got, exp in zip(records, expected["records"]):
            assert got.record_key == exp["key"]
            assert got.kind == exp["kind"]
            assert got.title == exp["title"]
            assert got.source == exp["source"]
            assert got.year == exp["year"]
            for mention, author in zip(got.authors, exp["authors"]):
                assert mention.display_name == author["display"]
                assert mention.author_id.base_name == author["base"]
                assert mention.author_id.homonym_index == author["index"]

        suffixed = [
            m.author_id
            for r in records
            for m in r.authors
            if m.display_name == "Bing Li 0001"
        ]
        assert suffixed and all(a == ("Bing Li", 1) for a in suffixed)

        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            first = Path(tmp) / "a.ndjson"
            second = Path(tmp) / "b.ndjson"
            write_corpus_store(records, first)
            reloaded = list(read_corpus_store(first))
            assert reloaded == records
            write_corpus_store(reloaded, second)
            assert first.read_bytes() == second.read_bytes()
    except BaseException:
        report("A-9", "FAIL")
        raise
    report("A-9", "PASS", "50-record fixture exact; store byte-stable")


FULL_XML = os.environ.get("NAMELINK_DBLP_XML")


def test_a10_full_scale_runbook():
    """Out-of-CI check against a complete bibliography dump (July 2020)."""
    if not FULL_XML:
        report("A-10", "SKIP", "set NAMELINK_DBLP_XML to a full dblp.xml dump")
        pytest.skip("set NAMELINK_DBLP_XML to a full dblp.xml dump")
    try:
        counters = ParseCounters()
        registry = AuthorRegistry()
        n_records = 0
        wang_records = 0
        wang_authors = set()
        with open(FULL_XML, "rb") as fh:
            for record in parse_dblp_stream(fh, counters=counters):
                n_records += 1
                registry.add_record(record)
        entry = registry.by_variate.get("y wang")
        assert entry is not None
        uta = len(entry.authors)

        with open(FULL_XML, "rb") as fh:
            for record in parse_dblp_stream(fh):
                if any(m.author_id in entry.authors for m in record.authors):
                    wang_records += 1

        assert abs(n_records - 5_258_623) <= 0.01 * 5_258_623, f"records {n_records}"
        assert abs(uta - 2601) <= 0.01 * 2601, f"UTA {uta}"
        assert abs(wang_records - 37_409) <= 0.01 * 37_409, f"RCD {wang_records}"
    except BaseException:
        report("A-10", "FAIL")
        raise
    report("A-10", "PASS", f"records {n_records}, Y Wang UTA {uta} RCD {wang_records}")
