"""Streaming parser for the DBLP XML dump.

The dump is a single multi-gigabyte document whose top-level children are
publication elements (article, inproceedings, www, ...).  Parsing is done
with a pull parser fed in fixed-size chunks; each completed top-level element
is converted to a :class:`BibRecord` (or skipped) and immediately dropped
from the tree, so peak memory is bounded by one element, not the document.

DBLP declares accented-character entities in an external DTD ("dblp.dtd")
that a non-validating parser never reads.  Because the document references
that DTD, expat reports those entities to the tree builder instead of
failing, and the builder resolves them through an entity table; we preload
the full HTML named-entity set, a superset of what the DTD defines.
"""

from __future__ import annotations

import html.entities
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator

from .names import normalize_name
from .records import DEFAULT_KINDS, AuthorMention, BibRecord

_CHUNK_SIZE = 64 * 1024


class DblpParseError(Exception):
    """Malformed XML; carries the approximate byte offset of the failure."""

    def __init__(self, message: str, byte_offset: int, position: tuple[int, int] | None = None):
        detail = f"{message} (near byte {byte_offset}"
        if position is not None:
            detail += f", line {position[0]} column {position[1]}"
        detail += ")"
        super().__init__(detail)
        self.byte_offset = byte_offset
        self.position = position


@dataclass
class ParseCounters:
    """Tally of what the parser saw and why records were skipped.

    ``dropped_author_mentions`` counts ``<author>`` elements left out of
    their record because the name is empty or normalizes to nothing ("-",
    "."); a record left with no author counts in ``skipped_missing_authors``.
    """

    records: int = 0
    skipped_missing_title: int = 0
    skipped_missing_authors: int = 0
    skipped_missing_key: int = 0
    skipped_other_kinds: int = 0
    empty_source: int = 0
    dropped_author_mentions: int = 0

    @property
    def skipped(self) -> int:
        return self.skipped_missing_title + self.skipped_missing_authors + self.skipped_missing_key


def _element_text(elem: ET.Element) -> str:
    # titles may contain inline markup (<i>, <sub>, ...): join all text
    return "".join(elem.itertext()).strip()


def _record_from_element(elem: ET.Element, counters: ParseCounters) -> BibRecord | None:
    key = elem.get("key", "").strip()
    if not key:
        counters.skipped_missing_key += 1
        return None
    title = ""
    source = ""
    year = 0
    authors: list[AuthorMention] = []
    for child in elem:
        tag = child.tag
        if tag == "author":
            text = _element_text(child)
            try:
                normalize_name(text)
            except ValueError:
                # names nobody: the registry and every block would reject it
                counters.dropped_author_mentions += 1
            else:
                authors.append(AuthorMention.from_raw(text))
        elif tag == "title":
            title = _element_text(child)
        elif tag in ("journal", "booktitle"):
            if not source:
                source = _element_text(child)
        elif tag == "year":
            text = _element_text(child)
            if text.isdigit():
                year = int(text)
        # every other child element (pages, ee, crossref, ...) is ignored
    if not title:
        counters.skipped_missing_title += 1
        return None
    if not authors:
        counters.skipped_missing_authors += 1
        return None
    if not source:
        counters.empty_source += 1
    counters.records += 1
    return BibRecord(
        record_key=key,
        kind=elem.tag,
        title=title,
        source=source,
        year=year,
        authors=tuple(authors),
    )


def parse_dblp_stream(
    stream: BinaryIO,
    kinds_filter: Iterable[str] = DEFAULT_KINDS,
    counters: ParseCounters | None = None,
) -> Iterator[BibRecord]:
    """Yield one :class:`BibRecord` per matching publication element, in
    document order.

    ``kinds_filter`` selects which top-level element names become records;
    everything else (www, phdthesis, ...) is skipped silently.  Pass a
    ``counters`` object to observe skip/flag tallies.
    """
    kinds = frozenset(kinds_filter)
    if counters is None:
        counters = ParseCounters()

    pull = ET.XMLPullParser(events=("start", "end"))
    # Entity table lives on the underlying tree-builder parser; there is no
    # public hook for it, but the attribute is stable across CPython versions.
    pull._parser.entity.update(html.entities.entitydefs)  # type: ignore[attr-defined]

    bytes_fed = 0
    depth = 0
    root: ET.Element | None = None

    def events() -> Iterator[tuple[str, ET.Element]]:
        # feed() and read_events() raise for bad markup, close() for a cut document
        nonlocal bytes_fed
        try:
            while True:
                chunk = stream.read(_CHUNK_SIZE)
                if not chunk:
                    break
                pull.feed(chunk)
                bytes_fed += len(chunk)
                yield from pull.read_events()
            pull.close()
            yield from pull.read_events()
        except ET.ParseError as exc:
            raise DblpParseError(str(exc), bytes_fed, exc.position) from exc

    for event, elem in events():
        if event == "start":
            depth += 1
            if root is None:
                root = elem
            continue
        depth -= 1
        if depth != 1:
            continue
        # a top-level publication element just completed
        if elem.tag in kinds:
            record = _record_from_element(elem, counters)
            if record is not None:
                yield record
        else:
            counters.skipped_other_kinds += 1
        # drop the finished element so memory stays bounded
        assert root is not None
        root.clear()
