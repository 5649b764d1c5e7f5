"""Bibliographic record types and author-identity parsing.

DBLP differentiates homonymous authors with a four-digit suffix on the
printed name ("Bing Li 0001").  ``AuthorId`` carries that decomposition;
``homonym_index`` 0 means the name carries no suffix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

_SUFFIX_RE = re.compile(r"^(?P<base>.*\S) (?P<digits>\d{4})$")


class AuthorId(NamedTuple):
    base_name: str
    homonym_index: int

    def render(self) -> str:
        """Printed form: base name, plus the four-digit suffix when present."""
        if self.homonym_index == 0:
            return self.base_name
        if self.homonym_index > 9999:
            raise ValueError(f"homonym index {self.homonym_index} exceeds the four-digit suffix format")
        return f"{self.base_name} {self.homonym_index:04d}"


def parse_author_id(raw: str) -> AuthorId:
    """Split a printed author string into (base name, homonym index).

    Only a trailing space plus exactly four digits counts as a suffix.  A
    "0000" group is left in the name: no real record uses it and treating it
    as a suffix would break render/parse round-tripping.  Most names end in
    a letter, and those are returned without running the suffix pattern.
    """
    raw = raw.strip()
    # str.isdecimal is the regex's \d: Unicode category Nd
    if not raw[-1:].isdecimal():
        return AuthorId(raw, 0)
    m = _SUFFIX_RE.match(raw)
    if m and int(m.group("digits")) > 0:
        return AuthorId(m.group("base"), int(m.group("digits")))
    return AuthorId(raw, 0)


@dataclass(frozen=True)
class AuthorMention:
    """One author slot of a record: the printed string and its identity."""

    display_name: str
    author_id: AuthorId

    @classmethod
    def from_raw(cls, raw: str) -> "AuthorMention":
        raw = raw.strip()
        if not raw:
            raise ValueError("author mention is empty")
        return cls(display_name=raw, author_id=parse_author_id(raw))


@dataclass(frozen=True)
class BibRecord:
    """One publication: title, source and the ordered author mentions.

    ``source`` is the journal for articles and the booktitle for proceedings
    papers; it may be empty (kept, flagged by ingest counters).  ``year`` is 0
    when the record carries none.
    """

    record_key: str
    kind: str
    title: str
    source: str
    year: int
    authors: tuple[AuthorMention, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not self.record_key:
            raise ValueError("record_key is empty")
        if not self.title.strip():
            raise ValueError(f"record {self.record_key!r} has an empty title")
        if len(self.authors) < 1:
            raise ValueError(f"record {self.record_key!r} has no authors")

    @property
    def n_authors(self) -> int:
        return len(self.authors)


# the top-level publication elements of dblp.dtd
DBLP_KINDS = frozenset(
    "article inproceedings proceedings book incollection phdthesis mastersthesis www person data".split()
)
DEFAULT_KINDS = frozenset({"article", "inproceedings"})
