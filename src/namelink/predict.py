"""Routing incoming names and predicting authors of ambiguous ones.

A name is first resolved against the registry.  Zero matching authors means
a new author, exactly one means a direct assignment, and more than one hands
the record to the block model of the name's atomic variate.  The model votes
once per unordered pair of pool names (the record's authors plus the target
name once more) and the per-pair probability vectors are aggregated, by sum
unless configured otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .encoders import Encoders, name_input, text_input
from .model import ModelParams, forward_batch
from .names import AuthorRegistry, atomic_variate, name_forms, normalize_name, resolve_name
from .records import AuthorId, BibRecord
from .training import MODE_ANV, MODE_FULL

AGGREGATIONS = ("sum", "max")

# pairs per forward pass; bounds the feature matrices of very long author lists
PAIR_CHUNK = 4096


class PredictionError(Exception):
    pass


class RouteKind(Enum):
    NEW = "NEW"
    UNIQUE = "UNIQUE"
    AMBIGUOUS = "AMBIGUOUS"


@dataclass(frozen=True)
class Route:
    """Routing outcome for one name: the kind plus its supporting data."""

    kind: RouteKind
    author: AuthorId | None = None
    variate_key: str | None = None
    candidate_count: int = 0
    candidates: frozenset[AuthorId] = frozenset()


def route_name(registry: AuthorRegistry, raw_name: str) -> Route:
    """NEW when no registry author matches, UNIQUE with the matched author
    when exactly one does, AMBIGUOUS with the block key otherwise."""
    result = resolve_name(registry, raw_name)
    if result.count == 0:
        return Route(RouteKind.NEW)
    if result.count == 1:
        (author,) = result.candidates
        return Route(RouteKind.UNIQUE, author=author, candidate_count=1, candidates=result.candidates)
    key = atomic_variate(normalize_name(raw_name)).key()
    return Route(
        RouteKind.AMBIGUOUS,
        variate_key=key,
        candidate_count=result.count,
        candidates=result.candidates,
    )


@dataclass
class Prediction:
    target_name: str
    pool: tuple[str, ...]
    pair_count: int
    scores: np.ndarray
    ranked: tuple[AuthorId, ...]
    chosen: AuthorId
    aggregation: str
    variate_mode: str


def predict_author(
    params: ModelParams,
    class_index: dict[AuthorId, int],
    record: BibRecord,
    target_name: str,
    variate_mode: str,
    encoders: Encoders,
    aggregation: str = "sum",
) -> Prediction:
    """Choose among the block's authors for one record and target name.

    The pool holds the record's author names plus the target name once
    more, so a record with omega authors yields C(omega+1, 2) pairs; each
    pair is scored in infer mode and the per-class vectors are summed (or
    max-pooled).  Ties in the final argmax fall to the lowest class index.
    """
    if variate_mode not in (MODE_FULL, MODE_ANV):
        raise PredictionError(f"unknown variate mode {variate_mode!r}")
    if aggregation not in AGGREGATIONS:
        raise PredictionError(f"unknown aggregation {aggregation!r}")
    if len(class_index) != params.config.n_classes:
        raise PredictionError(
            f"class index has {len(class_index)} authors, model expects {params.config.n_classes}"
        )

    target_forms = name_forms(normalize_name(target_name))
    pool_forms = [name_forms(normalize_name(m.display_name)) for m in record.authors]
    pool_forms.append(target_forms)
    if variate_mode == MODE_FULL:
        pool = tuple(f.full for f in pool_forms)
        first = target_forms.full_first
    else:
        pool = tuple(f.anv for f in pool_forms)
        first = target_forms.anv_first

    first_vec = np.asarray(encoders.name(first))
    pool_vecs = np.stack([np.asarray(encoders.name(s)) for s in pool])
    text_row = text_input(encoders.text, [record.title], [record.source])
    p_idx, j_idx = np.triu_indices(len(pool), k=1)
    pair_count = p_idx.size
    chunks = []
    for start in range(0, pair_count, PAIR_CHUNK):
        p, j = p_idx[start : start + PAIR_CHUNK], j_idx[start : start + PAIR_CHUNK]
        x1 = name_input(first_vec, pool_vecs, p, j)
        chunks.append(forward_batch(params, x1, np.repeat(text_row, p.size, axis=0))[0])
    probs = np.concatenate(chunks)
    if aggregation == "sum":
        scores = probs.sum(axis=0)
    else:
        scores = probs.max(axis=0)

    authors = sorted(class_index, key=class_index.__getitem__)
    order = np.argsort(-scores, kind="stable")
    chosen = authors[int(np.argmax(scores))]
    return Prediction(
        target_name=target_name,
        pool=pool,
        pair_count=int(pair_count),
        scores=scores,
        ranked=tuple(authors[int(i)] for i in order),
        chosen=chosen,
        aggregation=aggregation,
        variate_mode=variate_mode,
    )


def render_prediction(prediction: Prediction, top_k: int = 5) -> str:
    """Structured text: target, pool, pair count, then top scores."""
    lines = [
        f"target\t{prediction.target_name}",
        f"mode\t{prediction.variate_mode}",
        f"pool\t{'; '.join(prediction.pool)}",
        f"pairs\t{prediction.pair_count}",
        f"aggregation\t{prediction.aggregation}",
    ]
    ordered_scores = np.sort(prediction.scores)[::-1]
    for rank, (author, score) in enumerate(zip(prediction.ranked[:top_k], ordered_scores), start=1):
        lines.append(f"rank {rank}\t{author.render()}\t{score:.6f}")
    lines.append(f"chosen\t{prediction.chosen.render()}")
    return "\n".join(lines)
