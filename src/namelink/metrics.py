"""Micro/macro precision, recall and F1 over block test sets.

Every metric comes from one confusion matrix: per-class precision and
recall from its diagonal and margins.  Since every test instance receives
exactly one prediction, micro precision and recall both equal plain
accuracy, and micro F1 is the F1 of that pair.  Macro metrics average
per-class values over the classes that actually occur in the test set;
classes with zero test support are left out rather than dragged in as zeros.

Evaluation runs in two modes: ANV predicts each test record once with every
name abbreviated; ALL predicts each record twice (full names, then
abbreviated) and pools both outcomes into a single report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocking import Block
from .encoders import Encoders
from .model import ModelParams
from .predict import predict_author
from .training import MODE_ANV, MODE_FULL, Split, SplitAssignment

EVAL_ALL = "ALL"
EVAL_ANV = "ANV"


class EvaluationError(Exception):
    pass


@dataclass(frozen=True)
class EvalReport:
    mode: str
    instance_count: int
    miap: float
    maap: float
    miar: float
    maar: float
    miaf1: float
    maaf1: float


def _ratio(a, b) -> np.ndarray:
    """Elementwise float64 ``a / b``, with 0 wherever ``b`` is 0."""
    return np.divide(a, b, out=np.zeros(np.shape(a)), where=b > 0)


def _f1(precision, recall) -> np.ndarray:
    return _ratio(2 * precision * recall, precision + recall)


def micro_macro_report(truths, preds, n_classes: int, mode: str = EVAL_ALL) -> EvalReport:
    """Build the report from parallel truth/prediction class lists."""
    truths = np.asarray(truths, dtype=np.int64)
    preds = np.asarray(preds, dtype=np.int64)
    if truths.shape != preds.shape or truths.ndim != 1:
        raise EvaluationError(f"truths and preds must be equal-length 1-D, got {truths.shape} vs {preds.shape}")
    if truths.size and (
        truths.min() < 0 or truths.max() >= n_classes or preds.min() < 0 or preds.max() >= n_classes
    ):
        raise EvaluationError("class out of range")

    # confusion[t, p]: how many instances of class t were predicted as p
    confusion = np.bincount(truths * n_classes + preds, minlength=n_classes**2).reshape(n_classes, n_classes)
    tp = np.diag(confusion)
    support = confusion.sum(axis=1)
    precision = _ratio(tp, confusion.sum(axis=0))
    recall = _ratio(tp, support)
    f1 = _f1(precision, recall)

    # macro values: means over the classes that occur in the test set (0 when none do)
    supported = support > 0
    maap, maar, maaf1 = (float(_ratio(v[supported].sum(), supported.sum())) for v in (precision, recall, f1))

    accuracy = float(_ratio(tp.sum(), truths.size))
    return EvalReport(
        mode=mode,
        instance_count=int(truths.size),
        miap=accuracy,
        maap=maap,
        miar=accuracy,
        maar=maar,
        miaf1=float(_f1(accuracy, accuracy)),  # 2a*a/(a+a) can round off a in its last bit
        maaf1=maaf1,
    )


def evaluate_block(
    params: ModelParams,
    block: Block,
    split: SplitAssignment,
    mode: str,
    encoders: Encoders,
    aggregation: str = "sum",
) -> EvalReport:
    """Predict every TEST entry of the block and score the outcome."""
    if mode not in (EVAL_ALL, EVAL_ANV):
        raise EvaluationError(f"unknown evaluation mode {mode!r}")
    test_entries = split.entries(block, Split.TEST)
    if not test_entries:
        raise EvaluationError(f"block {block.display_variate!r} has no TEST records")

    variate_modes = (MODE_FULL, MODE_ANV) if mode == EVAL_ALL else (MODE_ANV,)
    truths: list[int] = []
    preds: list[int] = []
    for entry in test_entries:
        truth = block.class_index[entry.target.author_id]
        for variate_mode in variate_modes:
            prediction = predict_author(
                params,
                block.class_index,
                entry.record,
                entry.target.display_name,
                variate_mode,
                encoders,
                aggregation=aggregation,
            )
            truths.append(truth)
            preds.append(block.class_index[prediction.chosen])
    return micro_macro_report(truths, preds, block.n_classes, mode=mode)


def render_report(report: EvalReport) -> str:
    rows = [
        ("MiAP", report.miap),
        ("MaAP", report.maap),
        ("MiAR", report.miar),
        ("MaAR", report.maar),
        ("MiAF1", report.miaf1),
        ("MaAF1", report.maaf1),
    ]
    label = "All" if report.mode == EVAL_ALL else report.mode
    lines = [f"{name} ({label})\t{value:.3f}" for name, value in rows]
    lines.append(f"instances\t{report.instance_count}")
    return "\n".join(lines)
