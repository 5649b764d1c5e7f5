"""Per-variate blocks: the record sub-collections one classifier is trained on.

A block gathers every (record, author position) pair whose author carries a
given name variate, typically an atomic one like "Y Chen".  The authors
found this way become the model's classes, indexed in first-appearance
order so that repeated builds over the same corpus agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .names import AuthorRegistry, normalize_name
from .records import AuthorId, AuthorMention, BibRecord


class BlockingError(Exception):
    pass


@dataclass(frozen=True)
class BlockEntry:
    """One target occurrence: a record plus the author position it concerns."""

    record: BibRecord
    position: int

    @property
    def target(self) -> AuthorMention:
        return self.record.authors[self.position]


@dataclass
class Block:
    variate_key: str
    display_variate: str
    entries: tuple[BlockEntry, ...]
    authors: tuple[AuthorId, ...]
    class_index: dict[AuthorId, int]

    @property
    def n_classes(self) -> int:
        return len(self.authors)


def build_block(corpus: Iterable[BibRecord], registry: AuthorRegistry, variate_key: str) -> Block:
    """Collect all entries for one variate, in corpus order.

    ``variate_key`` may be a rendered variate in any casing; unknown keys
    raise BlockingError since an empty block has no classes to model.
    """
    folded = variate_key.casefold()
    entry = registry.by_variate.get(folded)
    if entry is None:
        try:
            folded = normalize_name(variate_key).key()
        except ValueError:
            pass
        entry = registry.by_variate.get(folded)
    if entry is None:
        raise BlockingError(f"name variate {variate_key!r} matches no author")
    members = entry.authors

    entries: list[BlockEntry] = []
    authors: list[AuthorId] = []
    class_index: dict[AuthorId, int] = {}
    for record in corpus:
        for position, mention in enumerate(record.authors):
            if mention.author_id not in members:
                continue
            entries.append(BlockEntry(record, position))
            if mention.author_id not in class_index:
                class_index[mention.author_id] = len(authors)
                authors.append(mention.author_id)
    return Block(
        variate_key=folded,
        display_variate=entry.display,
        entries=tuple(entries),
        authors=tuple(authors),
        class_index=class_index,
    )


@dataclass(frozen=True)
class BlockStats:
    """Descriptive counters of one block.

    uta: distinct target authors; rcd: distinct records; uca: distinct
    co-author full names seen from any entry's non-target positions; uan:
    distinct full names among the target authors; r2a/r3a: records in which
    the largest group of authors sharing an atomic variate has size exactly
    two / three.
    """

    uta: int
    rcd: int
    uca: int
    uan: int
    r2a: int
    r3a: int


def block_stats(block: Block) -> BlockStats:
    records: dict[str, BibRecord] = {}
    coauthor_names: set[str] = set()
    for entry in block.entries:
        records[entry.record.record_key] = entry.record
        for position, mention in enumerate(entry.record.authors):
            if position != entry.position:
                coauthor_names.add(normalize_name(mention.author_id.base_name).key())
    target_names = {normalize_name(a.base_name).key() for a in block.authors}

    r2a = r3a = 0
    for record in records.values():
        groups: dict[str, int] = {}
        for mention in record.authors:
            key = normalize_name(mention.author_id.base_name).anv.casefold()
            groups[key] = groups.get(key, 0) + 1
        largest = max(groups.values(), default=0)
        if largest == 2:
            r2a += 1
        elif largest == 3:
            r3a += 1
    return BlockStats(
        uta=block.n_classes,
        rcd=len(records),
        uca=len(coauthor_names),
        uan=len(target_names),
        r2a=r2a,
        r3a=r3a,
    )


@dataclass(frozen=True)
class CorpusStats:
    records: int
    authors: int
    names: int
    variates: int


def corpus_stats(corpus: Iterable[BibRecord]) -> CorpusStats:
    """One streaming pass: record count plus registry counters."""
    registry = AuthorRegistry()
    n = 0
    for record in corpus:
        n += 1
        registry.add_record(record)
    return CorpusStats(
        records=n,
        authors=registry.author_count,
        names=registry.name_count,
        variates=registry.variate_count,
    )


def render_corpus_stats(stats: CorpusStats) -> str:
    rows = [
        ("# of records", stats.records),
        ("# of unique authors", stats.authors),
        ("# of unique author names", stats.names),
        ("# of unique atomic name variates", stats.variates),
    ]
    return "\n".join(f"{label}\t{value}" for label, value in rows)


def render_block_stats(block: Block, stats: BlockStats) -> str:
    rows = [
        ("# ANV", block.display_variate),
        ("# UTA", stats.uta),
        ("# RCD", stats.rcd),
        ("# UCA", stats.uca),
        ("# UAN", stats.uan),
        ("# R2A", stats.r2a),
        ("# R3A", stats.r3a),
    ]
    return "\n".join(f"{label}\t{value}" for label, value in rows)
