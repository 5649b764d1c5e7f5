"""Seeded benchmark inputs with their known truth.

Everything here is derived from the seed alone and written without help from
namelink, so the checks compare the program's output with an independent
derivation.  Names are built from syllables: first names have at least two
letters and no spaces, hyphens or periods, so a name's full key and its
atomic-variate key never coincide and both are easy to derive here.
"""

from __future__ import annotations

import html.entities
from dataclasses import dataclass, field

import numpy as np

_SYLLABLES = (
    "ba ce di fo ga hu ji ka le mi no pa qui ra se ti vu wa xi yo ze "
    "bra cle dro fri glo tha shi chu ran len mon sor tel vin wen zar"
).split()
# accented spellings appear in names and titles as entities or raw UTF-8
_ACCENTS = ("ü", "é", "ç", "ø", "á", "ö", "è", "ñ", "å", "í")
_ENTITY = {ch: f"&{html.entities.codepoint2name[ord(ch)]};" for ch in _ACCENTS}
_WORDS = (
    "scalable efficient adaptive robust learning query index stream graph "
    "network model data distributed parallel secure private optimal online "
    "approximate temporal spatial semantic neural join cache storage"
).split()


def alpha(i: int) -> str:
    """Spreadsheet-style letters: 0 -> a, 25 -> z, 26 -> aa."""
    out = []
    i += 1
    while i:
        i, rem = divmod(i - 1, 26)
        out.append(chr(ord("a") + rem))
    return "".join(reversed(out))


def _name_pool(rng: np.random.Generator, size: int, syllables: int, accent_share: float) -> list[str]:
    """``size`` distinct capitalised tokens; some carry one accented letter."""
    pool: list[str] = []
    seen: set[str] = set()
    while len(pool) < size:
        token = "".join(_SYLLABLES[int(k)] for k in rng.integers(len(_SYLLABLES), size=syllables))
        if rng.random() < accent_share:
            pos = int(rng.integers(1, len(token)))
            token = token[:pos] + _ACCENTS[int(rng.integers(len(_ACCENTS)))] + token[pos + 1 :]
        token = token.capitalize()
        if token.casefold() not in seen:
            seen.add(token.casefold())
            pool.append(token)
    return pool


def _xml_text(text: str, entities: bool) -> str:
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    if entities:
        for ch, ent in _ENTITY.items():
            text = text.replace(ch, ent)
    return text


@dataclass(frozen=True)
class Author:
    first: str
    last: str
    homonym: int = 0

    def render(self) -> str:
        base = f"{self.first} {self.last}"
        return base if self.homonym == 0 else f"{base} {self.homonym:04d}"

    def full_key(self) -> str:
        return f"{self.first} {self.last}".casefold()

    def atomic_key(self) -> str:
        return f"{self.first[0].upper()} {self.last}".casefold()

    def atomic_display(self) -> str:
        return f"{self.first[0].upper()} {self.last}"


@dataclass
class Rec:
    key: str
    kind: str
    title: str
    source: str
    year: int
    authors: list[str]  # printed author strings
    title_markup: str | None = None  # XML body of the title when it has inline markup


def write_dblp_xml(path: str, records: list[Rec], skipped_every: int = 0) -> int:
    """Write a DBLP-shaped document; returns its size in bytes.

    Every other record spells accented letters as entities, the rest as raw
    UTF-8.  With ``skipped_every`` a homepage element (a kind ingest skips)
    follows every that-many records.
    """
    parts = ['<?xml version="1.0" encoding="UTF-8"?>\n<!DOCTYPE dblp SYSTEM "dblp.dtd">\n<dblp>\n']
    for i, r in enumerate(records):
        ent = i % 2 == 0
        field_name = "journal" if r.kind == "article" else "booktitle"
        title = r.title_markup if r.title_markup is not None else _xml_text(r.title, ent)
        lines = [f'<{r.kind} key="{r.key}" mdate="2020-07-01">']
        lines += [f"<author>{_xml_text(a, ent)}</author>" for a in r.authors]
        lines.append(f"<title>{title}</title>")
        lines.append(f"<pages>{1 + i % 90}-{12 + i % 90}</pages>")
        lines.append(f"<year>{r.year}</year>")
        lines.append(f"<{field_name}>{_xml_text(r.source, ent)}</{field_name}>")
        lines.append(f"<ee>https://doi.org/10.0000/{r.key}</ee>")
        lines.append(f"</{r.kind}>\n")
        parts.append("".join(lines))
        if skipped_every and i % skipped_every == skipped_every - 1:
            parts.append(f'<www key="homepages/x/{i}"><author>{_xml_text(r.authors[0], ent)}</author><title>Home Page</title></www>\n')
    parts.append("</dblp>\n")
    data = "".join(parts).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def _title(rng: np.random.Generator, serial: int, accent: bool) -> tuple[str, str | None]:
    """A unique title; one in four carries inline markup."""
    words = [_WORDS[int(k)] for k in rng.integers(len(_WORDS), size=int(rng.integers(3, 7)))]
    if accent:
        words[-1] = words[-1][:-1] + "ä"
    words.append(f"q{alpha(serial)}")
    plain = " ".join(words).capitalize()
    if serial % 4:
        return plain, None
    head, tail = plain.split(" ", 1)
    markup = f"{_xml_text(head, False)} <i>k</i>-{_xml_text(tail, True)} in O(n<sup>2</sup>)"
    return f"{head} k-{tail} in O(n2)", markup


# --- corpus-pass -----------------------------------------------------------


HOMONYM_EVERY = 20


@dataclass
class CorpusTruth:
    records: int
    authors: int
    names: int
    variates: int
    block: str  # display form of the ambiguous variate queried
    block_uta: int
    block_rcd: int
    unique_name: str
    unique_author: str
    papers_per_author_max: int


def corpus_pass_input(seed: int, n_records: int) -> tuple[list[Rec], CorpusTruth]:
    """A DBLP-like corpus: ~0.45 distinct authors per record, Zipf-tailed
    papers per author, ~3.2 authors per record with a tail to 20, and a
    bounded last-name pool so atomic variates collide."""
    rng = np.random.default_rng([seed, 1])
    firsts = _name_pool(rng, 400, 2, 0.08)
    lasts = _name_pool(rng, 300, 2, 0.05)

    n_authors = int(0.45 * n_records)
    pairs: dict[tuple[str, str], None] = {}
    while len(pairs) < n_authors:
        pairs[(firsts[int(rng.integers(len(firsts)))], lasts[int(rng.integers(len(lasts)))])] = None
    # every HOMONYM_EVERY-th author shares the full name of the author ranked
    # just above, so homonym mentions keep the same share on every seed
    authors: list[Author] = []
    for a, pair in enumerate(pairs):
        if a % HOMONYM_EVERY == HOMONYM_EVERY - 1:
            authors.append(Author(authors[-1].first, authors[-1].last, 1))
        else:
            authors.append(Author(*pair))

    sizes = 1 + rng.poisson(1.9, size=n_records)
    tail = rng.random(n_records) < 0.03
    sizes[tail] = rng.integers(8, 21, size=int(tail.sum()))
    # every author appears at least once; the remaining slots follow a Zipf law
    weights = 1.0 / (np.arange(n_authors) + 50.0) ** 1.1
    extra = rng.multinomial(int(sizes.sum()) - n_authors, weights / weights.sum())
    slots = np.repeat(np.arange(n_authors), 1 + extra)
    rng.shuffle(slots)

    records: list[Rec] = []
    mentions_of: dict[int, set[int]] = {}
    offset = 0
    for i, size in enumerate(sizes):
        members: list[int] = []
        for a in slots[offset : offset + int(size)]:
            if int(a) not in members:  # a prolific author drawn twice keeps one slot
                members.append(int(a))
        offset += int(size)
        for a in members:
            mentions_of.setdefault(a, set()).add(i)
        kind = "article" if rng.random() < 0.6 else "inproceedings"
        venue = f"Journal of {lasts[i % len(lasts)]} Studies" if kind == "article" else f"Proc. {lasts[(7 * i) % len(lasts)]} Conference"
        title, markup = _title(rng, i, accent=i % 9 == 0)
        records.append(
            Rec(
                key=f"{'journals' if kind == 'article' else 'conf'}/x{i % 97}/{authors[members[0]].last}{i}",
                kind=kind,
                title=title,
                source=venue,
                year=1990 + i % 35,
                authors=[authors[a].render() for a in members],
                title_markup=markup,
            )
        )

    by_variate: dict[str, list[int]] = {}
    for a, author in enumerate(authors):
        by_variate.setdefault(author.atomic_key(), []).append(a)
    block_key = min(by_variate, key=lambda k: (-len(by_variate[k]), k))
    members = by_variate[block_key]
    name_count: dict[str, int] = {}
    for author in authors:
        name_count[author.full_key()] = name_count.get(author.full_key(), 0) + 1
    unique = max(
        (a for a, author in enumerate(authors) if name_count[author.full_key()] == 1),
        key=lambda a: (len(mentions_of[a]), -a),
    )
    truth = CorpusTruth(
        records=n_records,
        authors=n_authors,
        names=len(name_count),
        variates=len(by_variate),
        block=authors[members[0]].atomic_display(),
        block_uta=len(members),
        block_rcd=len(set().union(*(mentions_of[a] for a in members))),
        unique_name=f"{authors[unique].first} {authors[unique].last}",
        unique_author=authors[unique].render(),
        papers_per_author_max=max(len(v) for v in mentions_of.values()),
    )
    return records, truth


# --- resolve ---------------------------------------------------------------

# (initial, last name, authors, authors per record, incoming records per author
# and batch): pools of C(w+1, 2) pairs, 6, 21, 55 and 153, so both small and
# large prediction pools are served.  With the filler and NEW records of a
# batch, the median record falls inside the 21-pair block, not at an edge.
RESOLVE_BLOCKS = (("Y", "Chen", 8, 3, 4), ("J", "Wang", 8, 6, 6), ("L", "Zhang", 6, 10, 5), ("M", "Garcia", 6, 17, 5))
CORPUS_RECORDS_PER_AUTHOR = 10
FILLER_AUTHORS = 150
FILLER_RECORDS_PER_AUTHOR = 2


@dataclass
class Mention:
    printed: str
    kind: str  # expected route: NEW, UNIQUE or AMBIGUOUS
    author: str | None = None  # true author (rendered) of an AMBIGUOUS mention
    block: str | None = None  # atomic-variate key of an AMBIGUOUS mention


@dataclass
class StreamRecord:
    rec: Rec
    mentions: list[Mention]


@dataclass
class ResolveWorld:
    """The resolve workload's fixed population: block authors with private
    co-author cliques and vocabularies, plus filler authors whose names are
    unique."""

    seed: int
    # (display, authors, omega, incoming records per author and batch)
    blocks: list[tuple[str, list[Author], int, int]] = field(default_factory=list)
    cliques: dict[Author, list[str]] = field(default_factory=dict)
    vocab: dict[Author, list[str]] = field(default_factory=dict)
    fillers: list[str] = field(default_factory=list)


def resolve_world(seed: int) -> ResolveWorld:
    rng = np.random.default_rng([seed, 2])
    world = ResolveWorld(seed)
    tag = 0
    for initial, last, n_authors, omega, per_batch in RESOLVE_BLOCKS:
        stems = _name_pool(rng, n_authors, 2, 0.0)
        members = [Author(initial + s.lower(), last) for s in stems]
        for author in members:
            t = alpha(tag)
            tag += 1
            # distinct initials keep every clique member's atomic variate unique too
            world.cliques[author] = [f"{chr(ord('A') + k)}co{t} Lee{t}" for k in range(omega + 1)]
            world.vocab[author] = [f"w{t}x{k}" for k in range(30)]
        world.blocks.append((f"{initial} {last}", members, omega, per_batch))
    world.fillers = [f"{s} Filler{alpha(i)}" for i, s in enumerate(_name_pool(rng, FILLER_AUTHORS, 2, 0.1))]
    return world


def _block_record(world, rng, author: Author, omega: int, key: str, printed_target: str, start: int) -> Rec:
    clique = world.cliques[author]
    co = [clique[(start + k) % len(clique)] for k in range(omega - 1)]
    names = [printed_target] + co
    order = rng.permutation(len(names))
    vocab = world.vocab[author]
    title = " ".join(vocab[int(k)] for k in rng.integers(len(vocab), size=int(rng.integers(4, 7))))
    return Rec(
        key=key,
        kind="article",
        title=f"{title} {key.rsplit('/', 1)[-1]}",
        source=f"Journal of {author.first} Studies",
        year=2000 + int(rng.integers(20)),
        authors=[names[int(k)] for k in order],
    )


def resolve_corpus(world: ResolveWorld) -> list[Rec]:
    """Training corpus: every block author under their full name, plus
    filler records."""
    rng = np.random.default_rng([world.seed, 3])
    records = []
    for b, (_, members, omega, _) in enumerate(world.blocks):
        for a, author in enumerate(members):
            for r in range(CORPUS_RECORDS_PER_AUTHOR):
                # consecutive windows put every clique member into the corpus
                records.append(_block_record(world, rng, author, omega, f"journals/b{b}/a{a}r{r}", author.render(), r))
    for f, name in enumerate(world.fillers):
        for r in range(FILLER_RECORDS_PER_AUTHOR):
            others = [world.fillers[int(k)] for k in rng.choice(len(world.fillers), size=2, replace=False) if int(k) != f]
            records.append(
                Rec(f"conf/f/f{f}r{r}", "inproceedings", f"Filler study {f} {r}", "Filler Conference", 2010, [name] + others[:1])
            )
    return records


def resolve_stream(world: ResolveWorld, batch: int, n_filler: int = 30, n_new: int = 20) -> list[StreamRecord]:
    """One batch of incoming records with fresh titles.

    Block authors appear abbreviated to their atomic variate ("M. Garcia"),
    which is AMBIGUOUS; their clique co-authors and filler authors are
    UNIQUE; NEW records carry a name the corpus has never seen.
    """
    rng = np.random.default_rng([world.seed, 4, batch])
    out: list[StreamRecord] = []
    for b, (display, members, omega, per_author) in enumerate(world.blocks):
        initial, last = display.split(" ")
        printed = f"{initial}. {last}"
        for a, author in enumerate(members):
            for r in range(per_author):
                start = int(rng.integers(len(world.cliques[author])))
                rec = _block_record(world, rng, author, omega, f"in/{batch}/b{b}a{a}r{r}", printed, start)
                mentions = [
                    Mention(n, "AMBIGUOUS", author.render(), display.casefold()) if n == printed else Mention(n, "UNIQUE")
                    for n in rec.authors
                ]
                out.append(StreamRecord(rec, mentions))
    for i in range(n_filler):
        names = [world.fillers[int(k)] for k in rng.choice(len(world.fillers), size=int(rng.integers(1, 4)), replace=False)]
        rec = Rec(f"in/{batch}/f{i}", "article", f"Incoming filler {batch} {i}", "Filler Letters", 2021, names)
        out.append(StreamRecord(rec, [Mention(n, "UNIQUE") for n in names]))
    for i in range(n_new):
        names = [f"Newcomer{alpha(i)} Novak{alpha(batch)}", world.fillers[int(rng.integers(len(world.fillers)))]]
        rec = Rec(f"in/{batch}/n{i}", "article", f"Incoming newcomer {batch} {i}", "New Letters", 2021, names)
        out.append(StreamRecord(rec, [Mention(names[0], "NEW"), Mention(names[1], "UNIQUE")]))
    order = rng.permutation(len(out))
    return [out[int(k)] for k in order]
