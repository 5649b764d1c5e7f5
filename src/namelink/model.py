"""Two-branch feedforward classifier with hand-rolled backprop and Adam.

One model instance discriminates the authors of a single block.  Input one
(name features) and input two (title/source features) pass through separate
ReLU stacks, are concatenated, run through merged ReLU layers with inverted
dropout on the last hidden layer, and end in a softmax over the block's
author classes.  The loss is class-weighted cross-entropy.

All parameters live in one flat float32 or float64 vector; weight matrices
and bias vectors are reshaped views into it.  That makes the Adam update a
handful of vectorized passes, lets checkpoints snapshot a single array
bit-exactly, and reduces the finite-difference gradient check to perturbing
flat entries.  The vector's dtype is the model's precision: the forward pass,
the gradient, the dropout mask and the Adam moments all take it, and inputs
are cast to it.  ``init_model`` draws float64; training casts the initial
vector to float32, which halves the memory traffic of every step and needs
no loss scaling.  The sample bank hands training float32 rows already, so
that cast copies nothing; their pair half is summed in float64 and rounded
once, which gives the bits a cast of the float64 row would.

The training step allocates little: each layer's ReLU runs in place on its
pre-activation, so the forward pass keeps one array per layer, and backprop
takes the ReLU mask from that activation.  Each branch's last layer writes
straight into its half of the merge input, so joining the branches copies
nothing, and an inference pass keeps only the running activation after the
merge.  Backprop writes each layer's weight and bias gradient straight into
its view of one flat gradient vector and skips the gradient with respect to
the network's inputs, which nothing reads.  The Adam update then runs in
place on the parameters and moments, one cache-sized slice at a time, with
that gradient vector as its only scratch.

``forward_batch`` is the forward pass of training and of plain batches.  Its
layer helpers (``split_layers``, ``run_stack``, ``softmax``) are shared with
``predict.forward_batched``, which scores a record's name pairs with the
first layer factored per name and branch two run once, so the layers after
that first one are the same code in both passes.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .encoders import NAME_DIM, TEXT_DIM
from .records import AuthorId
from .store import atomic_path

LOG_FLOOR = 1e-12
# the precisions a model's parameter vector may have
FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
# Adam updates this many parameters at a time, so the slices of the four
# vectors it touches (parameters, gradient, both moments) stay in a core's L2
# cache between its ufunc passes: 4 x 256 KiB in float32, twice that in float64
ADAM_CHUNK = 65536
# Adam's moment decay rates and the term that keeps its denominator off zero
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class ModelConfig:
    n_classes: int
    input1_dim: int = 2 * NAME_DIM
    input2_dim: int = TEXT_DIM
    branch1_hidden: tuple[int, ...] = (256,)
    branch2_hidden: tuple[int, ...] = (256,)
    merged_hidden: tuple[int, ...] = (256, 128)
    dropout_rate: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 1:
            raise ValueError("n_classes must be >= 1")
        if self.input1_dim < 1 or self.input2_dim < 1:
            raise ValueError("input dims must be >= 1")
        for name in ("branch1_hidden", "branch2_hidden", "merged_hidden"):
            widths = tuple(getattr(self, name))
            object.__setattr__(self, name, widths)
            if not widths or min(widths) < 1:
                raise ValueError(f"{name} {widths} must hold at least one layer, each of width >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")

    @property
    def branch_widths(self) -> tuple[int, int]:
        """The output width of branch one and of branch two, the two halves
        of the merge input."""
        return self.branch1_hidden[-1], self.branch2_hidden[-1]

    def layer_shapes(self) -> list[tuple[int, int]]:
        """(n_in, n_out) per layer: branch one, branch two, merged, output."""
        shapes: list[tuple[int, int]] = []
        for d, hidden in ((self.input1_dim, self.branch1_hidden), (self.input2_dim, self.branch2_hidden)):
            for width in hidden:
                shapes.append((d, width))
                d = width
        d = sum(self.branch_widths)
        for width in self.merged_hidden:
            shapes.append((d, width))
            d = width
        shapes.append((d, self.n_classes))
        return shapes

    @property
    def n_params(self) -> int:
        return sum(i * o + o for i, o in self.layer_shapes())


def _layer_views(flat: np.ndarray, config: ModelConfig) -> tuple[list[np.ndarray], list[np.ndarray]]:
    weights: list[np.ndarray] = []
    biases: list[np.ndarray] = []
    offset = 0
    for n_in, n_out in config.layer_shapes():
        weights.append(flat[offset : offset + n_in * n_out].reshape(n_in, n_out))
        offset += n_in * n_out
        biases.append(flat[offset : offset + n_out])
        offset += n_out
    assert offset == flat.size
    return weights, biases


class ModelParams:
    """All parameters of one block model, as a flat vector plus views."""

    def __init__(self, config: ModelConfig, flat: np.ndarray):
        if flat.shape != (config.n_params,) or flat.dtype not in FLOAT_DTYPES:
            raise ValueError(f"flat parameter vector must be float32 or float64 of length {config.n_params}")
        self.config = config
        self.flat = flat
        self.weights, self.biases = _layer_views(flat, config)

    @property
    def n_params(self) -> int:
        return self.flat.size

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.flat.copy())


def init_model(config: ModelConfig) -> ModelParams:
    """Fan-in scaled normal weights (variance 2/n_in, matching ReLU), zero
    biases; fully determined by ``config.seed``."""
    rng = np.random.default_rng(config.seed)
    flat = np.zeros(config.n_params)
    params = ModelParams(config, flat)
    for w in params.weights:
        n_in = w.shape[0]
        w[...] = rng.normal(0.0, np.sqrt(2.0 / n_in), size=w.shape)
    return params


def _input_layers(config: ModelConfig) -> tuple[int, int]:
    """The indices of branch one's and branch two's first layers, whose
    weight rows are the columns of input one and of input two."""
    return 0, len(config.branch1_hidden)


def split_input_rows(
    params: ModelParams, rows: tuple[np.ndarray, np.ndarray]
) -> tuple[ModelParams, list[np.ndarray]]:
    """The model that reads only the input columns ``rows`` (sorted indices
    into input one and into input two), and the rows of the two first
    layers' weights that it leaves out.  Its parameters are ``params``'s
    with those rows deleted, in the same layout."""
    config = replace(params.config, input1_dim=len(rows[0]), input2_dim=len(rows[1]))
    small = ModelParams(config, np.empty(config.n_params, params.flat.dtype))
    first = dict(zip(_input_layers(config), rows))
    left_out = []
    for i, (w, w_small) in enumerate(zip(params.weights, small.weights)):
        if i in first:
            w_small[...] = w[first[i]]
            left_out.append(np.delete(w, first[i], axis=0))
        else:
            w_small[...] = w
    for b, b_small in zip(params.biases, small.biases):
        b_small[...] = b
    return small, left_out


def join_input_rows(
    small: ModelParams, rows: tuple[np.ndarray, np.ndarray], left_out: list[np.ndarray], config: ModelConfig
) -> ModelParams:
    """The model of ``config`` that ``split_input_rows`` split into
    ``small`` and ``left_out`` over ``rows``, as a new parameter vector."""
    params = ModelParams(config, np.empty(config.n_params, small.flat.dtype))
    first = dict(zip(_input_layers(config), zip(rows, left_out)))
    for i, (w, w_small) in enumerate(zip(params.weights, small.weights)):
        if i in first:
            kept, rest = first[i]
            left = np.ones(len(w), bool)
            left[kept] = False
            w[kept] = w_small
            w[left] = rest
        else:
            w[...] = w_small
    for b, b_small in zip(params.biases, small.biases):
        b[...] = b_small
    return params


def split_layers(config: ModelConfig, w: list[np.ndarray], b: list[np.ndarray]):
    """The (weights, biases) of branch one, branch two and the merged stack,
    then the output layer's weight and bias, from per-layer lists in
    ``layer_shapes`` order: a model's parameters or its gradient."""
    n1, n2, nm = len(config.branch1_hidden), len(config.branch2_hidden), len(config.merged_hidden)
    return (
        (w[:n1], b[:n1]),
        (w[n1 : n1 + n2], b[n1 : n1 + n2]),
        (w[n1 + n2 : n1 + n2 + nm], b[n1 + n2 : n1 + n2 + nm]),
        (w[-1], b[-1]),
    )


def relu_layer(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``relu(x @ w + b)``, written into ``out`` when given.  The ReLU runs
    in place on the pre-activation, so no pre-activation is kept; backprop
    reads a layer's ReLU mask from its activation instead, since
    ``relu(z) > 0`` is ``z > 0``, NaN included."""
    z = np.matmul(x, w, out=out)
    z += b
    return np.maximum(z, 0.0, out=z)


def run_stack(x: np.ndarray, ws, bs, out: np.ndarray | None = None) -> list[np.ndarray]:
    """Run ``x`` through a stack of ReLU layers: the activations, input
    first.  With ``out``, the last layer's activation is written into it,
    and is then ``out`` itself."""
    acts = [x]
    for i, (w, b) in enumerate(zip(ws, bs)):
        acts.append(relu_layer(acts[-1], w, b, out if i == len(ws) - 1 else None))
    return acts


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax into a new array; ``logits`` is left as it is."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=1, keepdims=True)
    return shifted


def forward_batch(
    params: ModelParams,
    x1: np.ndarray,
    x2: np.ndarray,
    mode: str = "infer",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict | None]:
    """Run a batch through the network.

    ``x1`` is (B, input1_dim), ``x2`` is (B, input2_dim), both cast to the
    parameters' dtype, which copies neither when it is theirs already (the
    sample bank's float32 rows, whose pair half is summed in float64 and
    rounded once); returns (B, n_classes) class probabilities in that dtype.
    ``mode`` "train" applies inverted dropout (needs ``rng``, from which it
    draws float64 uniforms whatever the dtype) and returns the cache
    backprop needs: the inputs and every layer's activation, but no
    pre-activation; each branch's last activation is its half of the merge
    input, the merged stack's first array.  "infer" is deterministic,
    returns no cache and frees each activation once the next layer has read
    it.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    cfg = params.config
    dtype = params.flat.dtype
    x1 = np.atleast_2d(np.asarray(x1, dtype=dtype))
    x2 = np.atleast_2d(np.asarray(x2, dtype=dtype))
    if x1.shape[1] != cfg.input1_dim or x2.shape[1] != cfg.input2_dim or x1.shape[0] != x2.shape[0]:
        raise ValueError(
            f"input shapes {x1.shape}/{x2.shape} do not match config dims "
            f"{cfg.input1_dim}/{cfg.input2_dim}"
        )
    train = mode == "train"
    use_dropout = train and cfg.dropout_rate > 0.0
    if use_dropout and rng is None:
        raise ValueError("train-mode forward with dropout needs an rng")

    (w1s, b1s), (w2s, b2s), (wms, bms), (w_out, b_out) = split_layers(cfg, params.weights, params.biases)

    # each branch writes its result into its half of the merge input
    split = cfg.branch_widths[0]
    merge = np.empty((x1.shape[0], sum(cfg.branch_widths)), dtype)
    b1_acts = run_stack(x1, w1s, b1s, out=merge[:, :split])
    b2_acts = run_stack(x2, w2s, b2s, out=merge[:, split:])

    if train:
        m_acts = run_stack(merge, wms, bms)
        last_hidden = m_acts[-1]
    else:
        # only the running activation stays referenced, so each array is freed once read
        last_hidden = merge
        del merge, b1_acts, b2_acts
        for w, b in zip(wms, bms):
            last_hidden = relu_layer(last_hidden, w, b)
    mask_last = None
    if use_dropout:
        mask_last = (rng.random(last_hidden.shape) >= cfg.dropout_rate).astype(dtype)
        mask_last /= 1.0 - cfg.dropout_rate
        last_hidden = last_hidden * mask_last

    logits = last_hidden @ w_out
    logits += b_out
    probs = softmax(logits)

    if not train:
        return probs, None
    cache = {
        "x1": x1,
        "x2": x2,
        "b1_acts": b1_acts,
        "b2_acts": b2_acts,
        "m_acts": m_acts,
        "last_hidden": last_hidden,
        "mask_last": mask_last,
        "probs": probs,
    }
    return probs, cache


def loss_and_gradients_batch(
    params: ModelParams,
    x1: np.ndarray,
    x2: np.ndarray,
    labels: np.ndarray,
    sample_weights: np.ndarray,
    rng: np.random.Generator | None = None,
) -> tuple[float, np.ndarray]:
    """Mean weighted cross-entropy over the batch and its gradient, flat.

    Runs the train-mode forward pass, so the gradient is consistent with the
    dropout masks drawn from ``rng``; a config with ``dropout_rate`` 0 needs
    no rng and gives deterministic gradients.  The gradient shares the
    parameter layout, so ``_layer_views`` applies to it unchanged.  The log
    is floored at 1e-12 to guard the loss value against underflow; gradients
    use the exact softmax/cross-entropy form.
    """
    cfg = params.config
    _, cache = forward_batch(params, x1, x2, mode="train", rng=rng)
    labels = np.asarray(labels)
    sample_weights = np.asarray(sample_weights, dtype=params.flat.dtype)
    batch = labels.shape[0]
    rows = np.arange(batch)

    p_true = cache["probs"][rows, labels]
    losses = -np.log(np.maximum(p_true, LOG_FLOOR))
    loss = float((losses * sample_weights).sum() / batch) + 0.0

    d_logits = cache["probs"].copy()
    d_logits[rows, labels] -= 1.0
    d_logits *= (sample_weights / batch)[:, None]

    grad_flat = np.empty(cfg.n_params, dtype=params.flat.dtype)  # every slot is written below
    (gw1, gb1), (gw2, gb2), (gwm, gbm), (gw_out, gb_out) = split_layers(cfg, *_layer_views(grad_flat, cfg))
    (w1s, _), (w2s, _), (wms, _), (w_out, _) = split_layers(cfg, params.weights, params.biases)

    np.matmul(cache["last_hidden"].T, d_logits, out=gw_out)
    np.sum(d_logits, axis=0, out=gb_out)
    dh = d_logits @ w_out.T
    if cache["mask_last"] is not None:
        dh *= cache["mask_last"]

    def back_stack(dh, ws, acts, gws, gbs, input_grad):
        """Backprop through one ReLU stack, writing its gradients into
        ``gws``/``gbs``; with ``input_grad`` it returns the gradient with
        respect to the stack's input, without it the result is not used."""
        for i in range(len(ws) - 1, -1, -1):
            dz = dh * (acts[i + 1] > 0.0)
            np.matmul(acts[i].T, dz, out=gws[i])
            np.sum(dz, axis=0, out=gbs[i])
            if i > 0 or input_grad:
                dh = dz @ ws[i].T
        return dh

    d_merge = back_stack(dh, wms, cache["m_acts"], gwm, gbm, input_grad=True)
    split = cfg.branch_widths[0]
    d1, d2 = d_merge[:, :split], d_merge[:, split:]
    # nothing reads the gradient with respect to x1 or x2
    back_stack(d1, w1s, cache["b1_acts"], gw1, gb1, input_grad=False)
    back_stack(d2, w2s, cache["b2_acts"], gw2, gb2, input_grad=False)

    return loss, grad_flat


@dataclass
class AdamState:
    """First/second moment accumulators plus the step counter; the betas and
    eps are the module's ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.

    The moments are held without their (1-b1) and (1-b2) factors: ``m`` is
    the textbook first moment divided by (1-b1), ``v`` the second divided by
    (1-b2).  ``adam_step`` folds those factors and the bias corrections into
    one step size and eps."""

    t: int
    lr: float
    m: np.ndarray
    v: np.ndarray


def init_adam_state(params: ModelParams, lr: float) -> AdamState:
    n, dtype = params.n_params, params.flat.dtype
    return AdamState(t=0, lr=lr, m=np.zeros(n, dtype), v=np.zeros(n, dtype))


def adam_step(params: ModelParams, grad_flat: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update, in place on ``params.flat``.

    ``grad_flat`` is overwritten: it is the only scratch and on return holds
    the step subtracted from the parameters, so it must have the parameters'
    shape and dtype and must not share memory with ``params.flat``,
    ``state.m`` or ``state.v``; ``state.m`` and ``state.v`` must have that
    dtype too (``ValueError``).

    The update is Kingma & Ba's (arXiv:1412.6980, section 2) with the bias
    corrections folded into the step size and eps, over moments kept
    without their (1-b) factors: ``m = b1*m + g``, ``v = b2*v + g*g`` and
    ``theta -= a_t * m / (sqrt(v) + eps_t)``, where ``k_t = sqrt((1-b2) /
    (1-b2**t))``, ``a_t = lr * (1-b1) / (1-b1**t) / k_t`` and ``eps_t =
    eps / k_t``.  It runs as ten in-place passes over ``ADAM_CHUNK``
    parameters at a time and allocates nothing beyond the finiteness check;
    every operation is element by element, so the results do not depend on
    the chunk size and are bit-identical to that form over whole vectors.

    Fails fast on non-finite gradients rather than poisoning the moments:
    nothing is mutated then.
    """
    dtype = params.flat.dtype
    if grad_flat.shape != params.flat.shape or grad_flat.dtype != dtype:
        raise ValueError("gradient shape or dtype does not match parameters")
    if state.m.dtype != dtype or state.v.dtype != dtype:
        raise ValueError(f"Adam moments are {state.m.dtype}/{state.v.dtype}, the parameters {dtype}")
    for name, other in (("params.flat", params.flat), ("state.m", state.m), ("state.v", state.v)):
        if np.may_share_memory(grad_flat, other):
            raise ValueError(f"gradient may share memory with {name}; adam_step overwrites it")
    if not np.isfinite(grad_flat).all():
        raise FloatingPointError("non-finite gradient")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    # Python floats, so a float32 update stays in float32
    k = math.sqrt((1.0 - b2) / (1.0 - b2**state.t))
    step_size = state.lr * (1.0 - b1) / (1.0 - b1**state.t) / k
    eps = ADAM_EPS / k
    for lo in range(0, grad_flat.size, ADAM_CHUNK):
        chunk = slice(lo, lo + ADAM_CHUNK)
        g, m, v = grad_flat[chunk], state.m[chunk], state.v[chunk]
        m *= b1
        m += g
        g *= g
        v *= b2
        v += g
        np.sqrt(v, out=g)
        g += eps
        np.divide(m, g, out=g)
        g *= step_size
        params.flat[chunk] -= g


def class_weights(counts: Sequence[int]) -> np.ndarray:
    """Per-class loss weights N / (L * n_l), inversely proportional to the
    class's sample count; the weighted counts then average to N / L."""
    counts = np.asarray(counts)
    if counts.size == 0:
        raise ValueError("no classes")
    if (counts < 1).any():
        bad = int(np.argmin(counts))
        raise ValueError(f"class {bad} has no training samples")
    total = counts.sum()
    return total / (counts.size * counts.astype(np.float64))


# --- checkpointing -------------------------------------------------------

CHECKPOINT_FORMAT = "blockmodel/1"


class CheckpointError(Exception):
    pass


def _check_run_fields(path, extra) -> None:
    """Every checkpoint's ``extra`` carries the master seed that drew its
    block's split and the fingerprint of the encoders that built its inputs,
    so a run with another seed or other encoders can be refused."""
    if not isinstance(extra, dict):
        bad = "extra"
    elif type(extra.get("master_seed")) is not int:
        bad = "extra.master_seed"
    elif not isinstance(extra.get("encoders"), dict):
        bad = "extra.encoders"
    else:
        return
    raise CheckpointError(
        f"checkpoint {path}: {bad} is missing or of the wrong type; a checkpoint must record its "
        "master seed and encoders, and files written before checkpoints did must be retrained"
    )


def _check_finite(path, flat: np.ndarray) -> None:
    """Refuse params that hold NaN or infinity, on save as on load."""
    non_finite = flat.size - int(np.isfinite(flat).sum())
    if non_finite:
        raise CheckpointError(f"checkpoint {path}: {non_finite} of {flat.size} params are not finite")


def save_checkpoint(
    path: str | Path,
    params: ModelParams,
    class_index: Sequence[AuthorId],
    extra: dict,
) -> str:
    """Persist a model for prediction: its parameters, topology and classes;
    returns the path written.

    The container is an npz archive of two members, a JSON ``meta`` blob and
    the raw ``params`` vector in its own dtype (float32 or float64), so
    reloads are bit-exact.  Like np.savez, it appends .npz to a ``path``
    without it, so ``m.ckpt`` is written as ``m.ckpt.npz``; the file is
    replaced only once fully written.  Parameters that are NaN or infinite
    are refused, and nothing is written.
    """
    if len(class_index) != params.config.n_classes:
        raise CheckpointError(
            f"class index length {len(class_index)} != n_classes {params.config.n_classes}"
        )
    _check_run_fields(path, extra)
    _check_finite(path, params.flat)
    meta = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(params.config),
        "classes": [[a.base_name, a.homonym_index] for a in class_index],
        "extra": extra,
    }
    meta_bytes = np.frombuffer(json.dumps(meta, ensure_ascii=False).encode("utf-8"), dtype=np.uint8)
    path = str(path)
    path = path if path.endswith(".npz") else path + ".npz"
    with atomic_path(path) as tmp:
        np.savez(tmp, meta=meta_bytes, params=params.flat)
    return path


@dataclass
class CheckpointBundle:
    params: ModelParams
    class_index: list[AuthorId]
    extra: dict


def load_checkpoint(path: str | Path) -> CheckpointBundle:
    """Reload a checkpoint's model in the dtype it was saved in; a file
    without the ``extra`` fields ``save_checkpoint`` requires, or with a
    parameter that is NaN or infinite, is refused."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
            flat = archive["params"]
    # np.load raises EOFError on an empty file
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"checkpoint {path}: not a {CHECKPOINT_FORMAT} file")
    _check_run_fields(path, meta.get("extra"))
    try:
        stored = dict(meta["config"])
        classes = [AuthorId(base, idx) for base, idx in meta["classes"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad metadata in checkpoint {path}: missing or malformed {exc}") from exc
    missing = [f.name for f in fields(ModelConfig) if f.name not in stored]
    if missing:
        raise CheckpointError(f"bad model config in checkpoint {path}: missing {', '.join(missing)}")
    try:
        config = ModelConfig(**stored)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"bad model config in checkpoint {path}: {exc}") from exc
    if flat.dtype not in FLOAT_DTYPES:
        raise CheckpointError(f"checkpoint {path}: params are {flat.dtype}; they must be float32 or float64")
    if flat.shape != (config.n_params,):
        raise CheckpointError(
            f"checkpoint {path}: params has shape {flat.shape}, the model needs ({config.n_params},)"
        )
    _check_finite(path, flat)
    return CheckpointBundle(params=ModelParams(config, flat), class_index=classes, extra=meta["extra"])
