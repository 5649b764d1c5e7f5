import re
import unicodedata

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import widen
from namelink.blocking import build_block
from namelink.encoders import Encoders, HashingTextEncoder
from namelink.names import AuthorRegistry, build_author_registry, normalize_name
from namelink.predict import RouteKind, route_name
from namelink.records import AuthorId, AuthorMention, BibRecord, parse_author_id
from namelink.training import SampleBank


def record(key: str, *names: str) -> BibRecord:
    return BibRecord(key, "article", "T", "J", 2000, tuple(AuthorMention.from_raw(n) for n in names))


class TestNormalizeName:
    def test_plain(self):
        assert normalize_name("Lei Wang").tokens == ("Lei", "Wang")

    def test_periods_removed(self):
        assert normalize_name("A. B. Smith").tokens == ("A", "B", "Smith")

    def test_hyphens_split(self):
        assert normalize_name("Jian-Min Chen").tokens == ("Jian", "Min", "Chen")

    def test_whitespace_collapsed(self):
        assert normalize_name("  Lei   Wang ").tokens == ("Lei", "Wang")

    def test_homonym_suffix_dropped(self):
        assert normalize_name("Bing Li 0001").tokens == ("Bing", "Li")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_name("   ")
        with pytest.raises(ValueError):
            normalize_name("...")

    def test_case_preserved_in_tokens(self):
        assert normalize_name("lei WANG").tokens == ("lei", "WANG")

    @given(st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll")), min_size=1, max_size=8))
    def test_idempotent(self, word):
        once = normalize_name(word)
        again = normalize_name(once.render())
        assert once == again

    def test_first_and_last_parts(self):
        n = normalize_name("Ana Maria Silva")
        assert n.first_name == "Ana Maria"
        assert n.tokens[-1] == "Silva"

    def test_single_token_first_name_empty(self):
        assert normalize_name("Madonna").first_name == ""


def regex_normalize(raw: str) -> tuple[str, ...]:
    """normalize_name's tokens, split by the whitespace pattern."""
    if not raw or not raw.strip():
        raise ValueError("name is empty")
    text = unicodedata.normalize("NFC", raw.strip())
    text = parse_author_id(text).base_name
    text = text.replace(".", "").replace("-", " ")
    tokens = tuple(t for t in re.split(r"\s+", text) if t)
    if not tokens:
        raise ValueError(f"name {raw!r} is empty after normalization")
    return tokens


class TestNormalizeNameProperty:
    @given(st.text())
    @example("A\x1cB")
    @example("Ann\u00a0Lee\u2003Jr")
    @example(" - . 0001")
    @example("Li-Bing 0001\u3000")
    def test_matches_regex_reference(self, raw):
        try:
            want = regex_normalize(raw)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                normalize_name(raw)
            assert str(err.value) == str(exc)
        else:
            assert normalize_name(raw).tokens == want


# letters of every case; "ß" uppercases to the two letters "SS"
NAME_TOKENS = st.text(alphabet=st.characters(categories=("Lu", "Ll", "Lt", "Lo")), min_size=1, max_size=4)


class OneHotNames:
    """A name encoder that gives each string its own unit vector and "" the
    zero vector, so equal rows mean equal strings."""

    dim = 16

    def __init__(self):
        self.index: dict[str, int] = {}

    def __call__(self, s: str) -> np.ndarray:
        vector = np.zeros(self.dim)
        if s:
            vector[self.index.setdefault(s, len(self.index))] = 1.0
        return vector

    encode = __call__


class TestAtomicVariate:
    def test_initial_plus_last(self):
        assert normalize_name("Lei Wang").anv == "L Wang"

    def test_lowercase_initial_uppercased(self):
        assert normalize_name("lei wang").anv == "L wang"
        # an initial may uppercase to more than one character
        assert normalize_name("ßen li").anv == "SS li"

    def test_middle_names_dropped(self):
        assert normalize_name("Ana Maria Silva").anv == "A Silva"

    def test_single_token(self):
        assert normalize_name("Madonna").anv == "M Madonna"

    def test_variate_set_of_full_name(self):
        reg = build_author_registry([record("k", "Lei Wang")])
        assert {e.display for e in reg.by_variate.values()} == {"Lei Wang", "L Wang"}

    def test_variate_set_collapses_when_already_atomic(self):
        reg = build_author_registry([record("k", "L Wang")])
        assert {e.display for e in reg.by_variate.values()} == {"L Wang"}

    def test_full_and_abbreviated_forms(self):
        name = normalize_name("Lei Wang")
        assert (name.render(), name.anv, name.first_name, name.anv_first) == ("Lei Wang", "L Wang", "Lei", "L")

    @given(first=NAME_TOKENS, last=NAME_TOKENS, coauthor=NAME_TOKENS)
    @example(first="ßen", last="Li", coauthor="Wu")
    @settings(deadline=None)
    def test_routing_registry_and_bank_share_the_variate(self, first, last, coauthor):
        """Routing's block key, the registry's atomic display and the bank's
        abbreviated rows are all read off the one ``NormalizedName``."""
        raw = f"{first} {last}"
        name = normalize_name(raw)
        # two homonyms share the full name, so routing it is ambiguous
        corpus = [record("k1", f"{raw} 0001", coauthor), record("k2", f"{raw} 0002")]
        registry = build_author_registry(corpus)
        route = route_name(registry, raw)
        assert route.kind is RouteKind.AMBIGUOUS
        assert route.variate_key == registry.display_variate(name.anv).casefold() == name.anv.casefold()

        block = build_block(corpus, registry, route.variate_key)
        encoder = OneHotNames()
        bank = SampleBank(block.entries, block.class_index, Encoders(encoder, HashingTextEncoder()))
        # before the first co-author draw the j slot is "", the zero vector
        dim = encoder.dim
        x1, _ = widen(bank, *bank.rows(np.arange(bank.n_samples)), name_dim=dim)
        for e, entry in enumerate(block.entries):
            names = [normalize_name(m.display_name) for m in entry.record.authors]
            anvs = [n.anv for n in names] if len(names) > 1 else [""]
            abbreviated = x1[bank.entry_start[e] + 1 : bank.entry_start[e + 1] : 2]
            assert len(abbreviated) == len(anvs)
            for row, anv in zip(abbreviated, anvs):
                np.testing.assert_array_equal(row[:dim], encoder(names[entry.position].anv_first))
                np.testing.assert_array_equal(row[dim:], 0.5 * encoder(anv))


class TestRegistry:
    def build(self) -> AuthorRegistry:
        corpus = [
            record("k1", "Lei Wang", "Bing Li 0001"),
            record("k2", "Li Wang", "Bing Li 0002"),
            record("k3", "Madonna"),
        ]
        return build_author_registry(corpus)

    def test_counts(self):
        reg = self.build()
        # 5 authors; "Bing Li" is one full name shared by two of them
        assert reg.author_count == 5
        assert reg.name_count == 4
        # atomic variates: L Wang (x2 authors), B Li, M Madonna
        assert reg.variate_count == 3

    def test_resolve_full_name_unique(self):
        reg = self.build()
        route = route_name(reg, "Lei Wang")
        assert route.kind is RouteKind.UNIQUE
        assert route.candidates == frozenset({AuthorId("Lei Wang", 0)})

    def test_resolve_atomic_ambiguous(self):
        reg = self.build()
        assert len(route_name(reg, "L Wang").candidates) == 2

    def test_resolve_shared_full_name(self):
        reg = self.build()
        route = route_name(reg, "Bing Li")
        assert route.kind is RouteKind.AMBIGUOUS
        assert route.candidates == frozenset({AuthorId("Bing Li", 1), AuthorId("Bing Li", 2)})

    def test_resolve_unknown(self):
        reg = self.build()
        assert route_name(reg, "Nadia Arbach").kind is RouteKind.NEW
        assert route_name(reg, "???").kind is RouteKind.NEW

    def test_resolution_is_case_insensitive(self):
        reg = self.build()
        assert route_name(reg, "lei wang").candidates == frozenset({AuthorId("Lei Wang", 0)})

    def test_display_variate_keeps_first_seen_casing(self):
        reg = self.build()
        assert reg.display_variate("l wang") == "L Wang"

    def test_atomic_keys(self):
        reg = self.build()
        assert {normalize_name(a.base_name).anv.casefold() for a in reg.authors} == {
            "l wang",
            "b li",
            "m madonna",
        }
        assert reg.variate_count == 3

    def test_registry_idempotent_under_repeat(self):
        corpus = [record("k1", "Lei Wang"), record("k2", "Lei Wang")]
        reg = build_author_registry(corpus)
        assert reg.author_count == 1
