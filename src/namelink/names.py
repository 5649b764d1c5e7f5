"""Name normalization, variate derivation and the author registry.

``NormalizedName`` is the one derived-name type.  Its tokens render the
full name, and its ``anv`` property is the atomic name variate (first-name
initial plus last name): the one place that rule is written, read both to
block authors and to write the abbreviated inputs of training and
prediction.  Every author is reachable under both variates, and the
registry indexes both, so ``predict.route_name`` can tell how many known
authors a name string corresponds to: 0 means a new author, 1 a direct
assignment, and more than 1 means a block model decides.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from typing import Iterable

from .records import AuthorId, BibRecord, parse_author_id


@dataclass(frozen=True)
class NormalizedName:
    """Ordered name tokens: no periods, no internal whitespace, never empty."""

    tokens: tuple[str, ...]

    def render(self) -> str:
        return " ".join(self.tokens)

    def key(self) -> str:
        """Case-folded render, used wherever names are compared or indexed."""
        return self.render().casefold()

    @property
    def first_name(self) -> str:
        """All tokens but the last, space-joined; empty for single-token names."""
        return " ".join(self.tokens[:-1])

    @property
    def anv_first(self) -> str:
        """The first token's first character, uppercased: ``anv``'s first name."""
        return self.tokens[0][0].upper()

    @property
    def anv(self) -> str:
        """The atomic name variate: ``anv_first``, a space, the last token.

        Single-token names use that token for both roles, so "Madonna" maps
        to "M Madonna"; this keeps the variate total for degenerate inputs.
        """
        return f"{self.anv_first} {self.tokens[-1]}"


def normalize_name(raw: str) -> NormalizedName:
    """Canonicalize a printed name: NFC, suffix digits dropped, periods
    removed, hyphens split, whitespace collapsed.

    Raises ValueError when nothing survives normalization.
    """
    stripped = raw.strip()
    if not stripped:
        raise ValueError("name is empty")
    text = unicodedata.normalize("NFC", stripped)
    text = parse_author_id(text).base_name  # strip "… 0001" display suffixes
    tokens = tuple(text.replace(".", "").replace("-", " ").split())
    if not tokens:
        raise ValueError(f"name {raw!r} is empty after normalization")
    return NormalizedName(tokens)


@dataclass
class VariateEntry:
    display: str
    authors: set[AuthorId] = field(default_factory=set)


class AuthorRegistry:
    """Index from rendered name variates (case-folded) to author identities.

    Counters: L distinct authors, M distinct full names, K distinct atomic
    variates.  Built single-writer over one corpus pass, then immutable.
    """

    def __init__(self):
        self.by_variate: dict[str, VariateEntry] = {}
        self.authors: set[AuthorId] = set()
        self._full_keys: set[str] = set()
        self._atomic_keys: set[str] = set()

    @property
    def author_count(self) -> int:
        return len(self.authors)

    @property
    def name_count(self) -> int:
        return len(self._full_keys)

    @property
    def variate_count(self) -> int:
        return len(self._atomic_keys)

    def add_author(self, author: AuthorId) -> None:
        if author in self.authors:
            return
        name = normalize_name(author.base_name)
        self.authors.add(author)
        anv = name.anv
        self._full_keys.add(name.key())
        self._atomic_keys.add(anv.casefold())
        for display in (name.render(), anv):
            entry = self.by_variate.setdefault(display.casefold(), VariateEntry(display))
            entry.authors.add(author)

    def add_record(self, record: BibRecord) -> None:
        for mention in record.authors:
            self.add_author(mention.author_id)

    def is_atomic(self, key: str) -> bool:
        """Whether the case-folded ``key`` is some author's atomic variate."""
        return key in self._atomic_keys

    def display_variate(self, key: str) -> str:
        return self.by_variate[key.casefold()].display


def build_author_registry(corpus: Iterable[BibRecord]) -> AuthorRegistry:
    registry = AuthorRegistry()
    for record in corpus:
        registry.add_record(record)
    return registry

