"""Deterministic text encoders and model-input assembly.

Two self-contained encoders stand in for pretrained embedding models so the
pipeline runs with no model-weight downloads:

* a character n-gram hashing encoder for author names (200 dims), which puts
  similarly spelled names close together, and
* a token hashing encoder for titles/sources (768 dims).

Both hash with BLAKE2b so the vectors are identical across runs, platforms
and processes.  Real pretrained vectors can be injected through
:class:`TableEncoder`, a key->vector table with built-in fallback on misses.

The classifier's two inputs are built from these encoders by
:func:`name_input` and :func:`text_rows`, the one feature recipe: input one
is the target's first-name vector concatenated with the mean of two
co-author name vectors (400 dims); input two is the mean of the title and
source vectors (768 dims), one row per record.  Training calls both;
prediction calls :func:`text_rows`, and ``predict.forward_batched`` factors
input one into its first layer, checked in tests against :func:`name_input`.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

NAME_DIM = 200
TEXT_DIM = 768
# distinct names a name encoder keeps encoded, and distinct grams or tokens
# an encoder keeps hashed; later ones are recomputed on every call
CACHE_SIZE = 1 << 17

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def _signed_bucket(data: str, n_buckets: int) -> tuple[int, float]:
    """Fixed (bucket, sign) for a string: low hash bits pick the bucket, a
    high bit picks the sign."""
    digest = hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest()
    value = int.from_bytes(digest, "little")
    bucket = value % n_buckets
    sign = 1.0 if (value >> 63) & 1 else -1.0
    return bucket, sign


def _bucket_sums(memo: dict[str, tuple[int, float]], strings: Sequence[str], n_buckets: int) -> np.ndarray:
    """The float64 vector holding in each bucket the sum of the signs of the
    strings, one per occurrence, hashed to it.  Every partial sum is a small
    integer and so exact, which makes the vector the same in any order.

    ``memo`` keeps the (bucket, sign) of the first ``CACHE_SIZE`` distinct
    strings it is asked for; the others are hashed again on every call.
    """
    if not strings:
        return np.zeros(n_buckets)
    hits = []
    for data in strings:
        hit = memo.get(data)
        if hit is None:
            hit = _signed_bucket(data, n_buckets)
            if len(memo) < CACHE_SIZE:
                memo[data] = hit
        hits.append(hit)
    buckets, signs = zip(*hits)
    return np.bincount(buckets, weights=signs, minlength=n_buckets)


def _finalize(vec: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    vec.flags.writeable = False
    return vec


class HashingNameEncoder:
    """Character n-gram (n=1..3) hashing into 200 signed buckets.

    Words are wrapped in boundary markers before n-gram extraction and the
    input is lowercased, so "J Lee" and "j lee" encode identically.  Output
    has unit L2 norm; the empty string maps to the zero vector.

    Calling the encoder is the serving form: it memoizes its first
    ``CACHE_SIZE`` distinct names, counting the ``calls`` and the ``hits``
    served from the cache.  :meth:`encode` is the uncached form a sample
    bank uses, as the bank keeps each name's vector itself.  Names share
    n-grams, so both forms keep the (bucket, sign) of the first
    ``CACHE_SIZE`` distinct ones.  Both memos belong to the instance.
    """

    dim = NAME_DIM

    def __init__(self):
        self._cache: dict[str, np.ndarray] = {}
        self._buckets: dict[str, tuple[int, float]] = {}
        self.calls = 0
        self.hits = 0

    def __call__(self, text: str) -> np.ndarray:
        self.calls += 1
        cached = self._cache.get(text)
        if cached is not None:
            self.hits += 1
            return cached
        vec = self.encode(text)
        if len(self._cache) < CACHE_SIZE:
            self._cache[text] = vec
        return vec

    def encode(self, text: str) -> np.ndarray:
        marked = [f"^{word}$" for word in text.lower().split()]
        grams = [w[i : i + n] for w in marked for n in (1, 2, 3) for i in range(len(w) - n + 1)]
        return _finalize(_bucket_sums(self._buckets, grams, self.dim))


class HashingTextEncoder:
    """Token hashing into 768 signed buckets with mean pooling.

    Lowercases, splits on non-alphanumerics, maps each token occurrence to
    one signed bucket, averages over tokens and L2-normalizes.  Blank text
    maps to the zero vector.  Pooling makes the vector order-insensitive.

    It keeps no vectors: titles are nearly all distinct, so a cache would
    hold a second, float64 copy of every text row a sample bank stores.
    :func:`text_rows` encodes each distinct string once per call instead.
    Tokens do recur across titles, so the encoder keeps the (bucket, sign)
    of its first ``CACHE_SIZE`` distinct tokens, per instance.
    """

    dim = TEXT_DIM

    def __init__(self):
        self._buckets: dict[str, tuple[int, float]] = {}

    def __call__(self, text: str) -> np.ndarray:
        tokens = _TOKEN_RE.findall(text.lower())
        vec = _bucket_sums(self._buckets, tokens, self.dim)
        if tokens:
            vec /= len(tokens)
        return _finalize(vec)


class EmbeddingTableError(Exception):
    pass


class TableEncoder:
    """Exact-key lookup into a precomputed embedding table, falling back to
    the encoder ``fallback`` on misses (counted in ``miss_count``); the
    uncached :meth:`encode` falls back to ``fallback.encode``.
    ``sha256`` is the digest of the file the table was loaded from."""

    def __init__(
        self,
        table: dict[str, np.ndarray],
        fallback: Callable[[str], np.ndarray],
        dim: int,
        sha256: str,
    ):
        self.dim = dim
        self.sha256 = sha256
        self._table = table
        self.fallback = fallback
        self.miss_count = 0

    def __call__(self, text: str) -> np.ndarray:
        return self._lookup(text, self.fallback)

    def encode(self, text: str) -> np.ndarray:
        return self._lookup(text, self.fallback.encode)

    def _lookup(self, text: str, fallback: Callable[[str], np.ndarray]) -> np.ndarray:
        vec = self._table.get(text)
        if vec is None:
            self.miss_count += 1
            return fallback(text)
        return vec


def load_embedding_table(
    path: str | Path, expected_dim: int, fallback: Callable[[str], np.ndarray]
) -> TableEncoder:
    """Load a "key<TAB>v1 v2 ... vd" UTF-8 table; every line must carry
    exactly ``expected_dim`` values and keys must be non-empty and unique.

    The file is read once, in binary: the encoder's ``sha256`` is the digest
    of the very bytes parsed.  Lines end at LF, CRLF or CR as in text mode,
    blank lines are skipped, and every format error names the file and line.
    """
    path = Path(path)
    table: dict[str, np.ndarray] = {}
    digest = hashlib.sha256()
    line_no = 0
    with open(path, "rb") as fh:
        for chunk in fh:
            digest.update(chunk)
            for raw in chunk.splitlines():
                line_no += 1
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise EmbeddingTableError(f"{path}:{line_no}: not UTF-8: {exc}") from exc
                if not line:
                    continue
                key, sep, values = line.partition("\t")
                if not sep:
                    raise EmbeddingTableError(f"{path}:{line_no}: missing tab separator")
                if not key:
                    raise EmbeddingTableError(f"{path}:{line_no}: empty key")
                if key in table:
                    raise EmbeddingTableError(f"{path}:{line_no}: duplicate key {key!r}")
                parts = values.split()
                if len(parts) != expected_dim:
                    raise EmbeddingTableError(
                        f"{path}:{line_no}: expected {expected_dim} values, found {len(parts)}"
                    )
                try:
                    vec = np.array([float(p) for p in parts])
                except ValueError as exc:
                    raise EmbeddingTableError(f"{path}:{line_no}: bad value: {exc}") from exc
                if not np.isfinite(vec).all():
                    raise EmbeddingTableError(f"{path}:{line_no}: non-finite value")
                vec.flags.writeable = False
                table[key] = vec
    return TableEncoder(table, fallback, expected_dim, digest.hexdigest())


class Encoders(NamedTuple):
    """The name and text encoders a pipeline stage works with."""

    name: Callable[[str], np.ndarray]
    text: Callable[[str], np.ndarray]


def default_encoders() -> Encoders:
    return Encoders(name=HashingNameEncoder(), text=HashingTextEncoder())


def name_input(
    first: np.ndarray, vectors: np.ndarray, p: np.ndarray, j: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Input one for a batch of samples: name(first name) ++ (name(p) + name(j)) / 2.

    ``vectors`` holds encoded names one per row, ``p`` and ``j`` index its
    rows with one entry per sample, and ``first`` is either one first-name
    vector shared by every sample or one row per sample.  A missing
    co-author slot points at the encoding of the empty string, a zero row.
    The rows are written into ``out`` when given, so a caller that builds
    many batches can reuse one buffer.  The pair half is summed and halved
    in a contiguous array and copied in once: arithmetic on the strided
    half of ``out`` costs about three times as much.
    """
    dim = vectors.shape[1]
    if out is None:
        out = np.empty((len(p), 2 * dim))
    out[:, :dim] = first
    pair = vectors[p]
    pair += vectors[j]
    pair *= 0.5
    out[:, dim:] = pair
    return out


def text_rows(
    text_encoder: Callable[[str], np.ndarray], titles: Sequence[str], sources: Sequence[str]
) -> Iterator[np.ndarray]:
    """Input two's float64 rows one record at a time: (text(title) +
    text(source)) / 2; ``text_encoder`` has a ``dim`` like every encoder here.

    An empty source contributes the zero vector and so halves the title
    signal rather than renormalizing.  Every row is written into one buffer,
    which the next row overwrites, so a caller keeps what it needs of a row
    before it asks for the next.  Each distinct string is encoded once per
    call, and its vector is kept only until the last row that reads it, so a
    call holds the vectors of the strings that recur, such as venues, and not
    one per title.
    """
    last_row = {text: i for i, pair in enumerate(zip(titles, sources)) for text in pair}
    vectors: dict[str, np.ndarray] = {}
    row = np.empty(text_encoder.dim)
    for i, (title, source) in enumerate(zip(titles, sources)):
        for text in (title, source):
            if text not in vectors:
                vectors[text] = text_encoder(text)
        np.add(vectors[title], vectors[source], out=row)
        row *= 0.5
        yield row
        for text in (title, source):
            if last_row[text] == i:
                vectors.pop(text, None)
