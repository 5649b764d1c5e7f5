"""Line-delimited corpus store.

Format "ndcorpus/1": a one-line version header followed by one JSON object
per record, UTF-8, fixed field order, compact separators.  The bytes are a
pure function of the record sequence, so stores can be diffed and re-written
byte-identically.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .records import AuthorMention, BibRecord

STORE_VERSION = "ndcorpus/1"


class CorpusStoreError(Exception):
    """Store-level failure; carries the offending path and line number."""

    def __init__(self, message: str, path: str | Path, line_no: int | None = None):
        at = f"{path}" if line_no is None else f"{path}:{line_no}"
        super().__init__(f"{message} ({at})")
        self.path = str(path)
        self.line_no = line_no


@dataclass(frozen=True)
class StoreSummary:
    records: int
    author_mentions: int


def record_to_json(record: BibRecord) -> str:
    payload = {
        "key": record.record_key,
        "kind": record.kind,
        "title": record.title,
        "source": record.source,
        "year": record.year,
        "authors": [m.display_name for m in record.authors],
    }
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":"))


def record_from_json(payload: dict) -> BibRecord:
    """The record of one store line.  A field of the wrong JSON type raises
    ValueError naming it: the key, kind, title and source are strings, the
    year an integer (not true/false), the authors a list of strings."""
    for name in ("key", "kind", "title", "source"):
        if not isinstance(payload[name], str):
            raise ValueError(f"field {name!r} must be a string, not {type(payload[name]).__name__}")
    if type(payload["year"]) is not int:
        raise ValueError(f"field 'year' must be an integer, not {type(payload['year']).__name__}")
    authors = payload["authors"]
    if not isinstance(authors, list) or not all(isinstance(a, str) for a in authors):
        raise ValueError("field 'authors' must be a list of strings")
    return BibRecord(
        record_key=payload["key"],
        kind=payload["kind"],
        title=payload["title"],
        source=payload["source"],
        year=payload["year"],
        authors=tuple(AuthorMention.from_raw(a) for a in payload["authors"]),
    )


@contextmanager
def atomic_path(path: str | Path) -> Iterator[Path]:
    """A temporary path beside ``path`` to write to: it replaces ``path``
    when the block exits cleanly and is removed when it raises, so a failed
    write leaves the old file as it was.

    The temporary name ends in ``path``'s own suffix, so a writer that
    appends one to any other name (np.savez adds .npz) writes to it as given.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp{path.suffix}")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_corpus_store(records: Iterable[BibRecord], path: str | Path) -> StoreSummary:
    """Write records to ``path``; returns (record count, author-mention count).

    Fails on the first duplicate record key, naming it.  ``path`` is replaced
    only once every record is written; on any failure it keeps its old bytes.
    """
    path = Path(path)
    seen: set[str] = set()
    n_records = 0
    n_mentions = 0
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(STORE_VERSION + "\n")
        for record in records:
            if record.record_key in seen:
                raise CorpusStoreError(f"duplicate record key {record.record_key!r}", path)
            seen.add(record.record_key)
            fh.write(record_to_json(record) + "\n")
            n_records += 1
            n_mentions += record.n_authors
    return StoreSummary(records=n_records, author_mentions=n_mentions)


def read_corpus_store(path: str | Path) -> Iterator[BibRecord]:
    """Yield the records of a store file in their written order.

    Fails on a record key seen on an earlier line, naming it and the line:
    ``write_corpus_store`` never writes one, and readers look records up by
    key.
    """
    path = Path(path)
    seen: set[str] = set()
    with open(path, "rb") as fh:
        header = fh.readline()
        shown = header.decode("utf-8", "replace").rstrip("\n")
        if shown != STORE_VERSION:
            raise CorpusStoreError(
                f"bad store header {shown.rstrip() or '<empty>'!r}, expected {STORE_VERSION!r}", path, 1
            )
        if not header.endswith(b"\n"):
            raise CorpusStoreError("truncated header line", path, 1)
        for line_no, line in enumerate(fh, start=2):
            if not line.endswith(b"\n"):
                raise CorpusStoreError("truncated final line", path, line_no)
            try:
                payload = json.loads(line.decode("utf-8"))
                record = record_from_json(payload)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise CorpusStoreError(f"corrupt record line: {exc}", path, line_no) from exc
            if record.record_key in seen:
                raise CorpusStoreError(f"duplicate record key {record.record_key!r}", path, line_no)
            seen.add(record.record_key)
            yield record


def load_corpus(path: str | Path) -> list[BibRecord]:
    return list(read_corpus_store(path))
