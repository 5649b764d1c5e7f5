from collections import Counter

import numpy as np
import pytest

from namelink.blocking import build_block
from namelink.encoders import default_encoders
from namelink.metrics import (
    EVAL_ALL,
    EVAL_ANV,
    EvaluationError,
    evaluate_block,
    micro_macro_report,
    render_report,
)
from namelink.model import ModelConfig, ModelParams, init_model
from namelink.names import build_author_registry
from namelink.records import AuthorMention, BibRecord
from namelink.training import Split, split_per_author


def counter_oracle(truths, preds, n_classes):
    """Per-class P/R/F1 recomputed with Counter arithmetic."""
    pairs = Counter(zip(truths, preds))
    out = []
    for c in range(n_classes):
        tp = pairs[(c, c)]
        fp = sum(v for (t, p), v in pairs.items() if p == c and t != c)
        fn = sum(v for (t, p), v in pairs.items() if t == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out.append((precision, recall, f1, tp + fn))
    return out


class TestMicroMacro:
    def test_worked_example(self):
        # truths AAB, preds ABB: one A hit, one B hit, one confusion
        report = micro_macro_report([0, 0, 1], [0, 1, 1], n_classes=2)
        assert report.miap == pytest.approx(2 / 3, abs=1e-9)
        assert report.miar == pytest.approx(2 / 3, abs=1e-9)
        assert report.miaf1 == pytest.approx(2 / 3, abs=1e-9)
        assert report.maap == pytest.approx(0.75, abs=1e-9)
        assert report.maar == pytest.approx(0.75, abs=1e-9)
        assert report.maaf1 == pytest.approx(2 / 3, abs=1e-9)

    def test_perfect_predictions(self):
        report = micro_macro_report([0, 1, 2, 1], [0, 1, 2, 1], n_classes=3)
        for value in (report.miap, report.miar, report.miaf1, report.maap, report.maar, report.maaf1):
            assert value == 1.0

    def test_single_class(self):
        report = micro_macro_report([0, 0, 0], [0, 0, 0], n_classes=1)
        assert report.miaf1 == 1.0
        assert report.maaf1 == 1.0
        assert report.instance_count == 3

    def test_unsupported_class_left_out_of_macro(self):
        # class 2 never occurs in truth; its zero precision must not drag
        # the macro average down
        report = micro_macro_report([0, 1], [2, 1], n_classes=3)
        assert report.maap == pytest.approx(0.5)
        assert report.maar == pytest.approx(0.5)

    def test_micro_values_coincide_for_single_label_predictions(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n_classes = int(rng.integers(2, 6))
            n = int(rng.integers(1, 40))
            truths = rng.integers(n_classes, size=n)
            preds = rng.integers(n_classes, size=n)
            report = micro_macro_report(truths, preds, n_classes)
            accuracy = float((truths == preds).mean())
            assert report.miap == pytest.approx(accuracy, abs=1e-12)
            assert report.miar == pytest.approx(accuracy, abs=1e-12)
            assert report.miaf1 == pytest.approx(accuracy, abs=1e-12)

    def test_per_class_values_match_counter_oracle(self):
        rng = np.random.default_rng(1)
        truths = rng.integers(4, size=60)
        preds = rng.integers(4, size=60)
        report = micro_macro_report(truths, preds, 4)
        supported = [row for row in counter_oracle(truths.tolist(), preds.tolist(), 4) if row[3]]
        assert report.maap == pytest.approx(sum(row[0] for row in supported) / len(supported), abs=1e-12)
        assert report.maar == pytest.approx(sum(row[1] for row in supported) / len(supported), abs=1e-12)
        assert report.maaf1 == pytest.approx(sum(row[2] for row in supported) / len(supported), abs=1e-12)

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(2)
        truths = rng.integers(5, size=50)
        preds = rng.integers(5, size=50)
        perm = rng.permutation(5)
        base = micro_macro_report(truths, preds, 5)
        mapped = micro_macro_report(perm[truths], perm[preds], 5)
        for field in ("miap", "maap", "miar", "maar", "miaf1", "maaf1"):
            assert getattr(base, field) == pytest.approx(getattr(mapped, field), abs=1e-12)

    def test_empty_input(self):
        report = micro_macro_report([], [], n_classes=2)
        assert report.instance_count == 0
        assert report.miaf1 == 0.0
        assert report.maaf1 == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(EvaluationError):
            micro_macro_report([0, 1], [0], n_classes=2)

    def test_out_of_range_rejected(self):
        with pytest.raises(EvaluationError):
            micro_macro_report([0, 2], [0, 0], n_classes=2)
        with pytest.raises(EvaluationError):
            micro_macro_report([0, 0], [-1, 0], n_classes=2)


def rec(key, *names, title="words"):
    return BibRecord(
        record_key=key,
        kind="article",
        title=title,
        source="J.",
        year=2012,
        authors=tuple(AuthorMention.from_raw(n) for n in names),
    )


def block_with_tests():
    corpus = []
    for k in range(7):
        corpus.append(rec(f"x{k}", "Wei Deng", "Jun Cai", title=f"databases {k}"))
        corpus.append(rec(f"y{k}", "Wen Deng", "Li Mao", title=f"networks {k}"))
    registry = build_author_registry(corpus)
    block = build_block(corpus, registry, "W Deng")
    return block, split_per_author(block, seed=3)


SMALL = ModelConfig(
    n_classes=2, branch1_hidden=(8,), branch2_hidden=(8,), merged_hidden=(8,), dropout_rate=0.0
)


class TestEvaluateBlock:
    def test_all_mode_doubles_instances(self):
        block, split = block_with_tests()
        n_test = len(split.entries(block, Split.TEST))
        assert n_test > 0
        params = init_model(SMALL)
        enc = default_encoders()
        all_report = evaluate_block(params, block, split, EVAL_ALL, enc)
        anv_report = evaluate_block(params, block, split, EVAL_ANV, enc)
        assert anv_report.instance_count == n_test
        assert all_report.instance_count == 2 * n_test

    def test_uniform_model_predicts_first_class(self):
        block, split = block_with_tests()
        params = ModelParams(SMALL, np.zeros(SMALL.n_params))
        report = evaluate_block(params, block, split, EVAL_ANV, default_encoders())
        test_entries = split.entries(block, Split.TEST)
        share = sum(
            1 for e in test_entries if block.class_index[e.target.author_id] == 0
        ) / len(test_entries)
        assert report.miaf1 == pytest.approx(share, abs=1e-12)

    def test_deterministic(self):
        block, split = block_with_tests()
        params = init_model(SMALL)
        enc = default_encoders()
        a = evaluate_block(params, block, split, EVAL_ALL, enc)
        b = evaluate_block(params, block, split, EVAL_ALL, enc)
        assert a == b

    def test_unknown_mode_rejected(self):
        block, split = block_with_tests()
        with pytest.raises(EvaluationError):
            evaluate_block(init_model(SMALL), block, split, "FULL", default_encoders())

    def test_no_test_records_rejected(self):
        corpus = [rec("a1", "Lone Author", "Co One"), rec("a2", "Lone Author", "Co Two")]
        registry = build_author_registry(corpus)
        block = build_block(corpus, registry, "L Author")
        split = split_per_author(block, seed=1)  # 2 records -> 1 TRAIN, 1 TEST
        corpus1 = [rec("a1", "Lone Author", "Co One")]
        block1 = build_block(corpus1, registry, "L Author")
        split1 = split_per_author(block1, seed=1)
        with pytest.raises(EvaluationError):
            evaluate_block(init_model(SMALL), block1, split1, EVAL_ANV, default_encoders())


class TestRendering:
    def test_row_labels_and_precision(self):
        report = micro_macro_report([0, 0, 1], [0, 1, 1], n_classes=2)
        text = render_report(report)
        assert "MiAP (All)\t0.667" in text
        assert "MaAF1 (All)\t0.667" in text
        assert "instances\t3" in text

    def test_anv_mode_label(self):
        report = micro_macro_report([0], [0], n_classes=1, mode=EVAL_ANV)
        assert "MiAF1 (ANV)\t1.000" in render_report(report)
