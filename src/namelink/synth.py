"""Synthetic ambiguous-name corpora with known ground truth.

The generator builds n authors who all share one atomic name variate (say
"Y Chen") while differing in their full first names, gives each a private
co-author clique and a private title vocabulary, and emits a fixed number of
records per author.  Because the cliques and vocabularies are disjoint, the
resulting block is separable by construction: a classifier that reads
co-author names or title words can recover the author.

With ``share_full_name`` the authors instead share the complete name and are
told apart by suffix indices alone, which removes the first-name signal and
leaves only co-authors and titles; this is the harder homonym setting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .names import normalize_name
from .records import AuthorId, AuthorMention, BibRecord


class SynthError(Exception):
    pass


def _alpha(i: int) -> str:
    """Spreadsheet-style letters: 0 -> a, 25 -> z, 26 -> aa."""
    out = []
    i += 1
    while i:
        i, rem = divmod(i - 1, 26)
        out.append(chr(ord("a") + rem))
    return "".join(reversed(out))


@dataclass(frozen=True)
class SynthConfig:
    n_authors: int
    variate_key: str = "Y Chen"
    clique_size: int = 5
    records_per_author: int = 40
    vocab_size: int = 30
    seed: int = 0
    share_full_name: bool = False
    coauthors_per_record: int = 2

    def __post_init__(self):
        if self.n_authors < 2:
            raise SynthError("n_authors must be >= 2")
        if not 1 <= self.clique_size <= 26:
            raise SynthError("clique_size must be in [1, 26]")
        if self.records_per_author < 1 or self.vocab_size < 1:
            raise SynthError("records_per_author and vocab_size must be >= 1")
        if not 0 <= self.coauthors_per_record <= self.clique_size:
            raise SynthError("coauthors_per_record must be in [0, clique_size]")


@dataclass(frozen=True)
class SynthCorpus:
    records: tuple[BibRecord, ...]
    authors: tuple[AuthorId, ...]
    truth_lines: tuple[str, ...]

    def truth_text(self) -> str:
        return "\n".join(self.truth_lines) + "\n"


def gen_synth(config: SynthConfig) -> SynthCorpus:
    """Generate the corpus; identical configs give identical output."""
    name = normalize_name(config.variate_key)
    initial = name.anv_first
    last = name.tokens[-1]

    authors: list[AuthorId] = []
    for i in range(config.n_authors):
        if config.share_full_name:
            authors.append(AuthorId(f"{initial}ong {last}", i + 1))
        else:
            authors.append(AuthorId(f"{initial}{_alpha(i)} {last}", 0))

    cliques = [
        [f"{chr(ord('A') + k)}co{_alpha(i)} Lee{_alpha(i)}" for k in range(config.clique_size)]
        for i in range(config.n_authors)
    ]
    vocabs = [
        [f"w{_alpha(i)}{t}" for t in range(config.vocab_size)] for i in range(config.n_authors)
    ]

    rng = np.random.default_rng(config.seed)
    records: list[BibRecord] = []
    truth_lines: list[str] = []
    for i, author in enumerate(authors):
        clique = cliques[i]
        vocab = vocabs[i]
        venue = f"Journal of {_alpha(i).capitalize()} Studies"
        for r in range(config.records_per_author):
            # rotate a window through the clique so every member appears
            co_names = [
                clique[(r + offset) % config.clique_size]
                for offset in range(config.coauthors_per_record)
            ]
            names = [author.render()] + co_names
            ids = [author] + [AuthorId(c, 0) for c in co_names]
            perm = rng.permutation(len(names))
            mentions = tuple(
                AuthorMention(display_name=names[p], author_id=ids[p]) for p in perm
            )
            target_position = int(np.flatnonzero(perm == 0)[0])
            n_words = int(4 + rng.integers(3))
            title_words = [vocab[int(w)] for w in rng.integers(0, config.vocab_size, size=n_words)]
            key = f"synth/{_alpha(i)}/{r:04d}"
            records.append(
                BibRecord(
                    record_key=key,
                    kind="article",
                    title=" ".join(title_words),
                    source=venue,
                    year=2001 + (r % 20),
                    authors=mentions,
                )
            )
            truth_lines.append(f"{key}\t{target_position}\t{author.render()}")
    return SynthCorpus(records=tuple(records), authors=tuple(authors), truth_lines=tuple(truth_lines))
