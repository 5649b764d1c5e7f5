"""Per-author splits, the training samples and the block training loop.

A :class:`SampleBank` turns each block entry (record, target position) into
2*omega rows of model input: for every co-author position p a full-name row
and its abbreviated twin, never mixing the two forms inside a row.  The
second co-author j of each twin pair is drawn uniformly at random and
redrawn every ``reassign_interval`` epochs, so the model cannot latch onto
one fixed pairing.

Training runs mini-batch Adam on the weighted cross-entropy in float32,
stops when the validation loss has not improved for ``patience`` consecutive
epochs, and returns the parameters of the best validation-accuracy epoch,
not the last.  The bank keeps no rows: each batch's inputs are assembled
as the loop reaches it, already in the parameters' dtype, so the model
reads them without a copy.  A block has one bank: its train entries' rows,
then its validation entries' rows, which are scored after every epoch
``EVAL_BATCH`` (256) rows at a time, so scoring holds one slice's inputs
and activations however many validation rows the block has.
Input one comes from the rows of the bank's float64 name matrix, the one
copy of each distinct name's vector (the bank asks the name encoder's
uncached ``encode``, not its serving cache), into one reused buffer; input
two is unpacked from each entry's float32 text row, which the bank holds as
its set values only.  Every float32 value is its float64 value rounded
once: the pair half of input one and each text row are summed and halved
in float64 and rounded as they are stored.

The hashed inputs are 2 x 200 name and 768 text columns wide, and a small
block's records leave many of them +0.0 in every row.  The bank keeps only
the columns its rows set, and the block's model trains on those alone: a
first-layer weight row fed by another column would get an exactly zero
gradient at every step and keep its initial value, so forward, backward
and Adam skip those rows.  The result is full size again, those rows at
their initial weights.  The first layers' products then leave out only
exact zero terms, but in another summation order, so a block's params
differ from the full model's in the last bits; a block whose rows set
every column trains the full model itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .blocking import Block, BlockEntry
from .encoders import Encoders, name_input, text_rows
from .model import (
    LOG_FLOOR,
    ModelConfig,
    ModelParams,
    adam_step,
    class_weights,
    forward_batch,
    init_adam_state,
    init_model,
    join_input_rows,
    loss_and_gradients_batch,
    split_input_rows,
)
from .names import normalize_name
from .records import AuthorId

MODE_FULL = "FULL"
MODE_ANV = "ANV"
# the scratch a column drop holds at once: it works a few rows at a time
_CHUNK_BYTES = 1 << 16


class TrainingError(Exception):
    pass


class Split(Enum):
    TRAIN = "TRAIN"
    VAL = "VAL"
    TEST = "TEST"


@dataclass
class SplitAssignment:
    """record_key -> split, kept per target author.

    The same record may sit in different splits for two different target
    authors; the split is a property of the (author, record) pair.
    """

    by_author: dict[AuthorId, dict[str, Split]]

    def split_of(self, author: AuthorId, record_key: str) -> Split:
        return self.by_author[author][record_key]

    def entries(self, block: Block, split: Split) -> list[BlockEntry]:
        return [
            e
            for e in block.entries
            if self.split_of(e.target.author_id, e.record.record_key) is split
        ]

    def counts(self) -> dict[Split, int]:
        out = {s: 0 for s in Split}
        for assignment in self.by_author.values():
            for split in assignment.values():
                out[split] += 1
        return out


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def derive_block_seeds(master_seed: int, variate_key: str) -> tuple[int, int]:
    """Stable (split_seed, train_seed) pair for one block under one master
    seed, so splitting and evaluation commands reconstruct exactly the
    partition training used without sharing state."""
    material = f"{master_seed}\x1f{variate_key.casefold()}".encode("utf-8")
    digest = hashlib.blake2b(material, digest_size=8).digest()
    seq = np.random.SeedSequence(int.from_bytes(digest, "little"))
    split_seq, train_seq = seq.spawn(2)
    return (
        int(split_seq.generate_state(1, np.uint32)[0]),
        int(train_seq.generate_state(1, np.uint32)[0]),
    )


def split_per_author(block: Block, seed: int) -> SplitAssignment:
    """Shuffle each author's records and cut 70/15/15 with train priority.

    TRAIN takes max(1, round(0.7n)); VAL takes round(0.15n) capped by what
    is left, but at least one record when two or more remain; TEST takes the
    rest.  Rounding is half-up.  Authors are processed in class order with
    one seeded generator, so the whole assignment is reproducible.
    """
    per_author: dict[AuthorId, list[str]] = {a: [] for a in block.authors}
    seen: set[tuple[AuthorId, str]] = set()
    for entry in block.entries:
        author = entry.target.author_id
        pair = (author, entry.record.record_key)
        if pair not in seen:
            seen.add(pair)
            per_author[author].append(entry.record.record_key)

    rng = np.random.default_rng(seed)
    by_author: dict[AuthorId, dict[str, Split]] = {}
    for author in block.authors:
        keys = per_author[author]
        n = len(keys)
        shuffled = [keys[i] for i in rng.permutation(n)]
        n_train = min(n, max(1, _round_half_up(0.7 * n)))
        remaining = n - n_train
        n_val = min(remaining, _round_half_up(0.15 * n))
        if n_val == 0 and remaining >= 2:
            n_val = 1
        assignment: dict[str, Split] = {}
        for i, key in enumerate(shuffled):
            if i < n_train:
                assignment[key] = Split.TRAIN
            elif i < n_train + n_val:
                assignment[key] = Split.VAL
            else:
                assignment[key] = Split.TEST
        by_author[author] = assignment
    return SplitAssignment(by_author)


class PackedRows:
    """float32 rows held as their set values: per row one bit per column,
    set where the value's bit pattern is not that of +0.0 (so -0.0 is kept),
    and the values of the set bits in column order, each row's after the
    one before in one flat array.  A row without a zero costs 1/32 more than
    its dense form; a hashed text row, with about ten of its 768 values set,
    under a twentieth of it.

    The rows are compacted one at a time as ``rows`` yields them, so no
    dense matrix of them is ever built; :meth:`take` rebuilds the dense
    rows of a batch, bit for bit.  ``set_columns`` marks the columns that
    any row sets, and :meth:`keep_columns` drops the others."""

    def __init__(self, rows: Iterable[np.ndarray], n_rows: int, dim: int):
        self.dim = dim
        self._bits = np.empty((n_rows, (dim + 7) // 8), np.uint8)
        # row i's values are _values[_start[i]:_start[i + 1]]
        self._start = np.zeros(n_rows + 1, np.int64)
        values = np.empty(16 * n_rows, np.float32)
        row32 = np.empty(dim, np.float32)
        self.set_columns = np.zeros(dim, bool)
        used = 0
        for i, row in enumerate(rows):
            row32[:] = row
            is_set = row32.view(np.uint32) != 0
            self.set_columns |= is_set
            self._bits[i] = np.packbits(is_set)
            kept = row32[is_set]
            if used + kept.size > values.size:
                # in place where the allocator can, and nothing else views it
                values.resize(max(2 * values.size, used + kept.size), refcheck=False)
            values[used : used + kept.size] = kept
            used += kept.size
            self._start[i + 1] = used
        values.resize(used, refcheck=False)
        self._values = values

    def keep_columns(self, columns: np.ndarray) -> None:
        """Keep only the columns ``columns`` (sorted indices, every set
        column among them): the values stay as they are, and the bits are
        packed again a few rows at a time.  With every column kept nothing
        is copied."""
        if len(columns) == self.dim:
            return
        bits = np.empty((len(self._bits), (len(columns) + 7) // 8), np.uint8)
        step = max(1, _CHUNK_BYTES // self.dim)
        for lo in range(0, len(bits), step):
            dense = np.unpackbits(self._bits[lo : lo + step], axis=1, count=self.dim).view(bool)
            bits[lo : lo + step] = np.packbits(dense[:, columns], axis=1)
        self._bits, self.dim, self.set_columns = bits, len(columns), self.set_columns[columns]

    def take(self, idx: np.ndarray) -> np.ndarray:
        """The dense float32 rows ``idx`` (an index array; rows may repeat)."""
        # the output first: scratch allocated after it and freed before it
        # leaves no gap under it in the heap
        out = np.zeros((len(idx), self.dim), np.float32)
        start = self._start[idx]
        count = self._start[idx + 1] - start
        # each value's place in _values: its row's start plus its rank in the row
        end = np.cumsum(count)
        at = np.arange(end[-1] if end.size else 0) + np.repeat(start - (end - count), count)
        out[np.unpackbits(self._bits[idx], axis=1, count=self.dim).view(bool)] = self._values[at]
        return out


def _kept_columns(is_set: np.ndarray) -> np.ndarray:
    """The columns an input keeps: those that some row sets, or column 0
    when none is, as a model input is at least one column wide; a column
    that no row sets is harmless."""
    columns = np.flatnonzero(is_set)
    return columns if columns.size else np.arange(1)


def _take_columns_in_place(matrix: np.ndarray, columns: np.ndarray) -> None:
    """Keep only the columns ``columns`` (sorted indices) of ``matrix``, in
    place: a few rows at a time are written over the front of its buffer,
    never past a row still to be read, and the buffer is then shrunk, so no
    second matrix is built.  ``matrix`` must own its data, and no view of
    it may be used afterwards."""
    n, kept = len(matrix), len(columns)
    flat = matrix.reshape(-1)
    step = max(1, _CHUNK_BYTES // matrix[:1].nbytes)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        flat[lo * kept : hi * kept] = matrix[lo:hi, columns].ravel()
    del flat
    matrix.resize((n, kept), refcheck=False)


class SampleBank:
    """Every training input of a list of block entries, held as what its
    rows are built from: row ids into one float64 matrix that holds each
    distinct name string's encoding once, as the uncached
    ``encoders.name.encode`` returns it, and each entry's float32 text row
    (summed and halved in float64, then rounded once) as
    :class:`PackedRows`.  :meth:`rows` assembles the float32 model inputs of
    a batch of rows on demand, so a bank costs about 32 bytes per row plus
    the set values of one text row per entry, and the names it uses.  A
    block trains on one bank over its train and then its validation
    entries: each part is a range of rows, which ``entry_start`` bounds.

    A bank keeps only the input columns its rows set, ``name_columns`` of
    the name encoder's and ``text_columns`` of the text encoder's, at least
    one of each; in every other column each row holds +0.0.  Its rows are
    ``2 * name_dim`` and ``text_dim`` wide: each half of x1 holds the kept
    name columns, which first names and co-authors share.  The name matrix
    drops the other columns in place, a few rows at a time, and the text
    rows' bits are packed again, so each name costs 8 bytes and each entry
    one bit per kept column.  A bank whose rows set every column copies
    nothing.

    The sample rule: an entry (record, target position) whose record has
    omega authors gives 2*omega rows.  For each author position p, the target
    included, there is a full-name row and then its abbreviated twin.  A row
    is the target's first name ++ the mean of the names at p and j, all in
    the row's form, with the record's title/source text and the target's
    class as label.  j is drawn uniformly over the omega positions (it may
    equal p or the target), is shared by the twin, and is redrawn by
    ``assign_coauthors`` (before the first draw the j slot is empty).  A
    solo record has no co-authors and gives one pair of rows with both
    co-author slots empty; the empty name encodes as the zero vector.
    """

    def __init__(self, entries: Sequence[BlockEntry], class_index: dict[AuthorId, int], encoders: Encoders):
        # each distinct name string's row, in order of first use; the j slot
        # starts empty: the encoding of "", row 0
        string_ids: dict[str, int] = {"": 0}

        def intern(s: str) -> int:
            return string_ids.setdefault(s, len(string_ids))

        # per entry: its twin pairs, the target's two first-name forms, its class
        entry_pairs: list[int] = []
        entry_firsts: list[tuple[int, int]] = []
        entry_labels: list[int] = []
        p_ids: list[int] = []
        for entry in entries:
            names = [normalize_name(m.display_name) for m in entry.record.authors]
            target = names[entry.position]
            coauthors = [(n.render(), n.anv) for n in names] if len(names) > 1 else [("", "")]
            for full, anv in coauthors:
                p_ids += [intern(full), intern(anv)]
            entry_pairs.append(len(coauthors))
            entry_firsts.append((intern(target.first_name), intern(target.anv_first)))
            entry_labels.append(class_index[entry.target.author_id])

        pairs = np.array(entry_pairs, dtype=np.int64)
        rows_per_entry = 2 * pairs
        # entry e's rows are entry_start[e]:entry_start[e + 1]
        self.entry_start = np.concatenate([[0], np.cumsum(rows_per_entry)])
        self._row_entry = np.repeat(np.arange(len(entries), dtype=np.int32), rows_per_entry)
        pair_entry = self._row_entry[0::2]
        # rows alternate full and abbreviated forms, so a pair's two first names are its entry's
        self._first_ids = np.array(entry_firsts, dtype=np.int32).reshape(-1, 2)[pair_entry].ravel()
        self._p_ids = np.array(p_ids, dtype=np.int32)
        self._j_ids = np.zeros(self._p_ids.size, dtype=np.int32)
        # per twin pair: its entry's first row and omega, to draw j from
        self._pair_start = self.entry_start[pair_entry]
        self._pair_omega = pairs[pair_entry]
        self.labels = np.array(entry_labels, dtype=np.int64)[self._row_entry]
        records = [e.record for e in entries]
        titles, sources = [r.title for r in records], [r.source for r in records]
        self._text_rows = PackedRows(text_rows(encoders.text, titles, sources), len(records), encoders.text.dim)
        # row i: the name with row id i, the one copy of its vector
        self._names = np.empty((len(string_ids), encoders.name.dim))
        # the OR of the names' bit patterns: a column is set where it is not
        # +0.0, as in PackedRows
        name_bits = np.zeros(encoders.name.dim, np.uint64)
        for i, s in enumerate(string_ids):
            self._names[i] = encoders.name.encode(s)
            name_bits |= self._names[i].view(np.uint64)
        self._drop_unset_columns(name_bits != 0)

    def _drop_unset_columns(self, names_set: np.ndarray) -> None:
        """Keep the name columns ``names_set`` marks and the text columns
        that some text row sets, at least one of each; in the others every
        row holds +0.0.  One set of name columns serves both halves of x1,
        as first names and co-authors share the name space.  An input whose
        columns are all kept is not copied."""
        self.name_columns = _kept_columns(names_set)
        self.text_columns = _kept_columns(self._text_rows.set_columns)
        if self.name_dim < len(names_set):
            _take_columns_in_place(self._names, self.name_columns)
        self._text_rows.keep_columns(self.text_columns)

    @property
    def n_samples(self) -> int:
        return self.labels.size

    @property
    def name_dim(self) -> int:
        """The width of each half of x1: the name columns kept."""
        return self.name_columns.size

    @property
    def text_dim(self) -> int:
        """The width of x2: the text columns kept."""
        return self.text_columns.size

    def assign_coauthors(self, rng: np.random.Generator, rows: slice) -> None:
        """Redraw the j of every twin pair in ``rows``, a slice start:stop
        of whole entries' rows: one ``rng.integers(omega)`` per pair in row
        order (omega = 1 consumes nothing), so the stream is that of a
        scalar draw per position p, entry by entry.  Other rows keep theirs."""
        pairs = slice(rows.start // 2, rows.stop // 2)
        j_row = self._pair_start[pairs] + 2 * rng.integers(self._pair_omega[pairs])
        j_ids = self._j_ids[rows]
        j_ids[0::2] = self._p_ids[j_row]
        j_ids[1::2] = self._p_ids[j_row + 1]

    def rows(self, idx: np.ndarray | slice, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The float32 inputs (x1, x2) of the rows ``idx`` (an index array
        or a slice), in that order.  x1 is written into ``out`` when given,
        a float32 (len(idx), 2 * name_dim) buffer that a caller assembling
        many batches reuses.  x1's pair half is summed and halved in float64
        and rounded once as it is copied in, so each row holds the bits of
        the float64 row cast; x2 is the entries' text rows, unpacked."""
        p, j = self._p_ids[idx], self._j_ids[idx]
        if out is None:
            out = np.empty((len(p), 2 * self.name_dim), np.float32)
        # the float64 first names are freed as name_input returns, before x2 is built
        x1 = name_input(self._names[self._first_ids[idx]], self._names, p, j, out=out)
        return x1, self._text_rows.take(self._row_entry[idx])


@dataclass(frozen=True)
class TrainRunConfig:
    max_epochs: int = 1000
    patience: int = 50
    reassign_interval: int = 10
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.max_epochs < 1 or self.patience < 1 or self.reassign_interval < 1 or self.batch_size < 1:
            raise ValueError("max_epochs, patience, reassign_interval and batch_size must be >= 1")
        # NaN compares false with everything, so this form refuses it too
        if not (0 < self.learning_rate < math.inf):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")


class TrainingMonitor:
    """Early stopping on validation loss, checkpoint choice on accuracy.

    The two signals are deliberately independent: training halts once the
    loss has gone ``patience`` consecutive epochs without a strict
    improvement, while the kept parameters are those of the epoch with the
    highest accuracy seen so far.
    """

    def __init__(self, patience: int):
        self.patience = patience
        self.best_loss = math.inf
        self.best_accuracy = -math.inf
        self.best_epoch = 0
        self.since_improvement = 0

    def observe(self, epoch: int, val_loss: float, val_accuracy: float) -> bool:
        """Record one epoch; True when this epoch should be checkpointed."""
        if val_loss < self.best_loss:
            self.best_loss = val_loss
            self.since_improvement = 0
        else:
            self.since_improvement += 1
        improved = val_accuracy > self.best_accuracy
        if improved:
            self.best_accuracy = val_accuracy
            self.best_epoch = epoch
        return improved

    @property
    def should_stop(self) -> bool:
        return self.since_improvement >= self.patience


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_accuracy: float
    checkpointed: bool


@dataclass
class TrainResult:
    best_params: ModelParams
    best_epoch: int
    history: list[EpochStats]
    stopped_early: bool
    val_on_train: bool
    class_counts: np.ndarray
    # wall time of each epoch, kept out of ``history`` so histories stay
    # byte-stable across reruns
    epoch_seconds: list[float]
    # the name and text columns the block's rows set, which the model trained on
    input_columns: dict[str, int]


def history_lines(history: Iterable[EpochStats]) -> list[str]:
    """One JSON object per epoch, its keys ``EpochStats``'s fields in order."""
    return [json.dumps(asdict(h)) for h in history]


# rows per forward pass when a bank is scored; fixed, not the training batch
# size, so the validation loss does not depend on --batch-size
EVAL_BATCH = 256


def _evaluate_bank(params: ModelParams, bank: SampleBank, rows: slice) -> tuple[float, float]:
    """Unweighted mean cross-entropy and argmax accuracy over the rows
    ``rows`` (a slice start:stop) of a frozen bank.

    The rows are scored ``EVAL_BATCH`` at a time through one reused x1
    buffer, so the peak is one slice's float32 inputs and activations,
    whatever the range's length.  A pass of a different number of rows may
    round a row's probabilities differently in the last bits, so the slice
    size is part of what the validation loss is."""
    total_loss = 0.0
    total_correct = 0
    n = rows.stop - rows.start
    x1_buffer = np.empty((min(n, EVAL_BATCH), 2 * bank.name_dim), np.float32)
    for start in range(rows.start, rows.stop, EVAL_BATCH):
        stop = min(start + EVAL_BATCH, rows.stop)
        x1, x2 = bank.rows(slice(start, stop), out=x1_buffer[: stop - start])
        probs, _ = forward_batch(params, x1, x2, mode="infer")
        labels = bank.labels[start:stop]
        p_true = probs[np.arange(stop - start), labels]
        total_loss += float(-np.log(np.maximum(p_true, LOG_FLOOR)).sum())
        total_correct += int((probs.argmax(axis=1) == labels).sum())
        # freed before the next slice's rows are built, so no two slices'
        # text rows or probabilities are alive together
        del x2, probs
    return total_loss / n, total_correct / n


def train_block_model(
    block: Block,
    split: SplitAssignment,
    encoders: Encoders,
    config: TrainRunConfig | None = None,
    model_config: ModelConfig | None = None,
) -> TrainResult:
    """Train one block's classifier to convergence and return its best parameters.

    All randomness (weight init, j draws, batch shuffles, dropout) derives
    from ``config.seed`` through split substreams, so a rerun with the same
    inputs reproduces the trajectory exactly.  A supplied ``model_config``
    gives only its layer widths and dropout rate; the block, the encoders
    and ``config.seed`` set the rest.  Blocks
    without validation records fall back to scoring the training bank for
    the stopping signal, flagged in the result.

    The full-size initial weights are drawn as the config gives them; the
    loop trains the model over the bank's columns, split from them, and
    keeps only the first-layer rows it leaves out, which the returned
    parameters hold unchanged.
    """
    config = config or TrainRunConfig()
    train_entries = split.entries(block, Split.TRAIN)
    val_entries = split.entries(block, Split.VAL)
    if not train_entries:
        raise TrainingError(f"block {block.display_variate!r} has no TRAIN records")

    seed_root = np.random.SeedSequence(config.seed)
    init_seq, assign_seq, val_seq, shuffle_seq, dropout_seq = seed_root.spawn(5)
    assign_rng = np.random.default_rng(assign_seq)
    shuffle_rng = np.random.default_rng(shuffle_seq)
    dropout_rng = np.random.default_rng(dropout_seq)

    # the train entries' rows come first; with no VAL record the train rows are scored
    bank = SampleBank(train_entries + val_entries, block.class_index, encoders)
    train_rows = slice(0, int(bank.entry_start[len(train_entries)]))
    counts = np.bincount(bank.labels[train_rows], minlength=block.n_classes)
    if (counts == 0).any():
        missing = [block.authors[i].render() for i in np.flatnonzero(counts == 0)]
        raise TrainingError(f"classes without TRAIN samples: {', '.join(missing)}")
    weights = class_weights(counts)

    val_on_train = not val_entries
    if val_on_train:
        val_rows = train_rows
    else:
        val_rows = slice(train_rows.stop, bank.n_samples)
        bank.assign_coauthors(np.random.default_rng(val_seq), val_rows)

    init_seed = int(init_seq.generate_state(1, dtype=np.uint32)[0])
    name_dim = encoders.name.dim
    model_config = replace(
        model_config or ModelConfig(n_classes=block.n_classes),
        n_classes=block.n_classes,
        input1_dim=2 * name_dim,
        input2_dim=encoders.text.dim,
        seed=init_seed,
    )

    # models train in float32; the initial weights are still drawn in float64
    params = ModelParams(model_config, init_model(model_config).flat.astype(np.float32))
    # the model trains on the bank's columns: a first-layer row that an
    # unset column feeds has a zero gradient at every step, so it keeps its
    # initial weights, and only those rows are kept for the result
    compacted = bank.name_dim < name_dim or bank.text_dim < encoders.text.dim
    if compacted:
        rows = (np.concatenate([bank.name_columns, name_dim + bank.name_columns]), bank.text_columns)
        params, left_out = split_input_rows(params, rows)
    adam = init_adam_state(params, lr=config.learning_rate)
    monitor = TrainingMonitor(config.patience)
    history: list[EpochStats] = []
    # one buffer, overwritten on each checkpointed epoch: an old and a new
    # copy are never alive together
    best_params = params.copy()
    stopped_early = False
    epoch_seconds: list[float] = []
    n = train_rows.stop
    x1_buffer = np.empty((min(n, config.batch_size), 2 * bank.name_dim), np.float32)

    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        if (epoch - 1) % config.reassign_interval == 0:
            bank.assign_coauthors(assign_rng, train_rows)
        perm = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            x1, x2 = bank.rows(idx, out=x1_buffer[: idx.size])
            labels = bank.labels[idx]
            loss, grad = loss_and_gradients_batch(params, x1, x2, labels, weights[labels], rng=dropout_rng)
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite training loss at epoch {epoch}")
            adam_step(params, grad, adam)
            # freed now, not when the next step's gradient replaces it: the
            # two would otherwise be alive together, one parameter vector more
            del grad
            epoch_loss += loss * idx.size
        val_loss, val_accuracy = _evaluate_bank(params, bank, val_rows)
        checkpointed = monitor.observe(epoch, val_loss, val_accuracy)
        if checkpointed:
            np.copyto(best_params.flat, params.flat)
        history.append(EpochStats(epoch, epoch_loss / n, val_loss, val_accuracy, checkpointed))
        epoch_seconds.append(time.perf_counter() - started)
        if monitor.should_stop:
            stopped_early = True
            break

    if compacted:
        # the loop's model and moments go before the full-size vector is built
        del params, adam
        best_params = join_input_rows(best_params, rows, left_out, model_config)
    return TrainResult(
        best_params=best_params,
        best_epoch=monitor.best_epoch,
        history=history,
        stopped_early=stopped_early,
        val_on_train=val_on_train,
        class_counts=counts,
        epoch_seconds=epoch_seconds,
        input_columns={"name": bank.name_dim, "text": bank.text_dim},
    )
