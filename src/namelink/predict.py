"""Routing incoming names and predicting authors of ambiguous ones.

A name is first looked up in the registry.  Zero matching authors means a
new author, exactly one means a direct assignment, and more than one hands
the record to the block model of the name's atomic variate.  The model votes
once per unordered pair of pool names (the record's authors plus the target
name once more) and the per-pair probability vectors are aggregated, by sum
unless configured otherwise.

The pairs of one record share most of their input: the target's first name,
the title/source row, and each pool name's half of the co-author mean.
:func:`forward_batched` therefore computes the first layer that the name
input feeds as a sum of per-name products, and branch two once per record;
only the layers after that first one run once per pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .encoders import Encoders, text_rows
from .model import ModelParams, run_stack, softmax, split_layers
from .names import AuthorRegistry, normalize_name
from .records import AuthorId, BibRecord
from .training import MODE_ANV, MODE_FULL

AGGREGATIONS = ("sum", "max")

# pairs per pass through the per-pair layers; bounds the activations of very
# long author lists
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
    candidates: frozenset[AuthorId] = frozenset()


def route_name(registry: AuthorRegistry, raw_name: str) -> Route:
    """NEW when no registry author matches the name's full or atomic variate
    key, UNIQUE with the matched author when exactly one does, AMBIGUOUS with
    the block key otherwise.  The block key is the name's own key when that
    is an atomic variate of the registry, else its ``anv``'s: "SS Li", the
    variate of "ßen Li", names that block though its own ``anv`` is "S Li".
    A name that normalizes to nothing is NEW."""
    try:
        name = normalize_name(raw_name)
    except ValueError:
        return Route(RouteKind.NEW)
    key = name.key()
    entry = registry.by_variate.get(key)
    if entry is None:
        return Route(RouteKind.NEW)
    candidates = frozenset(entry.authors)
    if len(candidates) == 1:
        (author,) = candidates
        return Route(RouteKind.UNIQUE, author=author, candidates=candidates)
    variate_key = key if registry.is_atomic(key) else name.anv.casefold()
    return Route(RouteKind.AMBIGUOUS, variate_key=variate_key, candidates=candidates)


@dataclass
class Prediction:
    """A record's score per class index and its chosen author, the lowest-index
    argmax; no ranking, as :func:`render_prediction` ranks what it prints."""

    target_name: str
    pool: tuple[str, ...]
    pair_count: int
    scores: np.ndarray
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
    max-pooled).  The chosen author is the lowest-index argmax, whatever
    order ``class_index`` lists the classes in; no class is ranked here.
    """
    if variate_mode not in (MODE_FULL, MODE_ANV):
        raise PredictionError(f"unknown variate mode {variate_mode!r}")
    if aggregation not in AGGREGATIONS:
        raise PredictionError(f"unknown aggregation {aggregation!r}")
    if len(class_index) != params.config.n_classes:
        raise PredictionError(
            f"class index has {len(class_index)} authors, model expects {params.config.n_classes}"
        )

    target = normalize_name(target_name)
    names = [normalize_name(m.display_name) for m in record.authors]
    names.append(target)
    if variate_mode == MODE_FULL:
        pool = tuple(n.render() for n in names)
        first = target.first_name
    else:
        pool = tuple(n.anv for n in names)
        first = target.anv_first

    first_vec = np.asarray(encoders.name(first))
    pool_vecs = np.stack([np.asarray(encoders.name(s)) for s in pool])
    text_row = next(text_rows(encoders.text, [record.title], [record.source]))
    probs = forward_batched(params, first_vec, pool_vecs, text_row)
    pair_count = probs.shape[0]
    if aggregation == "sum":
        scores = probs.sum(axis=0)
    else:
        scores = probs.max(axis=0)

    best = int(np.argmax(scores))
    return Prediction(
        target_name=target_name,
        pool=pool,
        pair_count=int(pair_count),
        scores=scores,
        chosen=next(author for author, i in class_index.items() if i == best),
        aggregation=aggregation,
        variate_mode=variate_mode,
    )


def forward_batched(
    params: ModelParams, first_vec: np.ndarray, pool_vecs: np.ndarray, text_row: np.ndarray
) -> np.ndarray:
    """Class probabilities of every unordered pair of pool names, one row per
    pair (p, j) in :func:`pair_indices` order.

    Up to float rounding this is ``forward_batch`` on the rows
    ``name_input(first_vec, pool_vecs, p, j)`` with ``text_row`` repeated,
    but nothing is computed per pair that does not depend on the pair.
    Branch one's first layer is linear in input one, so its pre-activation
    for a pair is ``c + P[p] + P[j]``, where ``c`` holds the first-name term
    and bias and ``P = 0.5 * pool_vecs @ W_pair`` has one row per pool name.
    Branch two and its term in the first merged layer, which takes the
    concatenation, are computed once from the single ``text_row``.  The
    layers after these run ``PAIR_CHUNK`` pairs at a time.  Inputs are cast
    to the parameters' dtype, and the probabilities come back in it.
    """
    cfg = params.config
    dtype = params.flat.dtype
    first_vec = np.asarray(first_vec, dtype=dtype)
    pool_vecs = np.asarray(pool_vecs, dtype=dtype)
    text_row = np.atleast_2d(np.asarray(text_row, dtype=dtype))
    dim = first_vec.shape[-1]
    if (
        first_vec.shape != (dim,)
        or pool_vecs.ndim != 2
        or pool_vecs.shape[1] != dim
        or 2 * dim != cfg.input1_dim
        or text_row.shape != (1, cfg.input2_dim)
    ):
        raise ValueError(
            f"first/pool/text shapes {first_vec.shape}/{pool_vecs.shape}/{text_row.shape} "
            f"do not match config dims {cfg.input1_dim}/{cfg.input2_dim}"
        )
    (w1s, b1s), (w2s, b2s), (wms, bms), (w_out, b_out) = split_layers(cfg, params.weights, params.biases)
    split = cfg.branch_widths[0]
    text_out = run_stack(text_row, w2s, b2s)[-1]
    cat_bias = text_out @ wms[0][split:] + bms[0]
    c = first_vec @ w1s[0][:dim] + b1s[0]
    halves = 0.5 * (pool_vecs @ w1s[0][dim:])

    p_idx, j_idx = pair_indices(len(pool_vecs))
    probs = np.empty((p_idx.size, cfg.n_classes), dtype)
    for start in range(0, p_idx.size, PAIR_CHUNK):
        stop = start + PAIR_CHUNK
        z = halves[p_idx[start:stop]]
        z += halves[j_idx[start:stop]]
        z += c
        np.maximum(z, 0.0, out=z)
        z = run_stack(z, w1s[1:], b1s[1:])[-1] @ wms[0][:split]
        z += cat_bias
        # z is now the pre-activation of the first merged layer
        np.maximum(z, 0.0, out=z)
        z = run_stack(z, wms[1:], bms[1:])[-1] @ w_out + b_out
        probs[start:stop] = softmax(z)
    return probs


def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every pair p < j of ``n`` items, row-major: the
    arrays ``np.triu_indices(n, k=1)`` returns, in its order and dtype, at a
    fraction of its cost for the pool sizes records have."""
    order = np.arange(n)
    return np.nonzero(order[:, None] < order)


def render_prediction(prediction: Prediction, classes: list[AuthorId]) -> str:
    """Target, pool, pair count, then the top five of ``classes`` (the authors
    in class-index order) by a stable sort of the negated scores, so ties
    print lowest index first; fewer than five classes all print."""
    lines = [
        f"target\t{prediction.target_name}",
        f"mode\t{prediction.variate_mode}",
        f"pool\t{'; '.join(prediction.pool)}",
        f"pairs\t{prediction.pair_count}",
        f"aggregation\t{prediction.aggregation}",
    ]
    for rank, i in enumerate(np.argsort(-prediction.scores, kind="stable")[:5], start=1):
        lines.append(f"rank {rank}\t{classes[i].render()}\t{prediction.scores[i]:.6f}")
    lines.append(f"chosen\t{prediction.chosen.render()}")
    return "\n".join(lines)
