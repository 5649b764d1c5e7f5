import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from namelink.records import AuthorId, AuthorMention, BibRecord, parse_author_id


def mention(name: str) -> AuthorMention:
    return AuthorMention.from_raw(name)


class TestParseAuthorId:
    def test_plain_name_has_no_suffix(self):
        assert parse_author_id("Lei Wang") == AuthorId("Lei Wang", 0)

    def test_four_digit_suffix_is_split(self):
        assert parse_author_id("Bing Li 0001") == AuthorId("Bing Li", 1)
        assert parse_author_id("Bing Li 0002") == AuthorId("Bing Li", 2)

    def test_large_suffix(self):
        assert parse_author_id("Wei Chen 9999") == AuthorId("Wei Chen", 9999)

    def test_zero_suffix_stays_in_name(self):
        # "0000" is not a homonym index; splitting it would break round-trips
        assert parse_author_id("Some Band 0000") == AuthorId("Some Band 0000", 0)

    def test_non_four_digit_groups_stay_in_name(self):
        assert parse_author_id("Area 51") == AuthorId("Area 51", 0)
        assert parse_author_id("Club 10000") == AuthorId("Club 10000", 0)

    def test_whitespace_stripped(self):
        assert parse_author_id("  Lei Wang  ") == AuthorId("Lei Wang", 0)

    def test_render_round_trip_with_suffix(self):
        a = AuthorId("Bing Li", 7)
        assert a.render() == "Bing Li 0007"
        assert parse_author_id(a.render()) == a

    def test_render_rejects_overflowing_index(self):
        with pytest.raises(ValueError):
            AuthorId("X Y", 10000).render()

    @given(
        st.text(
            alphabet=st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp")),
            min_size=1,
        ).map(lambda s: s.strip()).filter(bool),
        st.integers(min_value=0, max_value=9999),
    )
    def test_round_trip_is_identity(self, base, index):
        a = AuthorId(base, index)
        assert parse_author_id(a.render()) == a


def regex_parse(raw: str) -> AuthorId:
    """parse_author_id with the suffix pattern run on every string."""
    raw = raw.strip()
    m = re.match(r"^(?P<base>.*\S) (?P<digits>\d{4})$", raw)
    if m and int(m.group("digits")) > 0:
        return AuthorId(m.group("base"), int(m.group("digits")))
    return AuthorId(raw, 0)


SUFFIXED = st.builds(
    lambda base, sep, digits, tail: base + sep + digits + tail,
    st.text(max_size=12),
    st.sampled_from(["", " ", "  ", "\t"]),
    st.one_of(
        st.sampled_from(["0001", "0000", "9999", "12345", "٠٠٠١", "²²²²", "0²01", "１２３４"]),
        st.text(alphabet=st.characters(whitelist_categories=("Nd", "No")), max_size=6),
    ),
    st.sampled_from(["", " ", "\n", " \t"]),
)


class TestParseAuthorIdFastPath:
    @given(st.one_of(st.text(), SUFFIXED))
    @example("Bing Li ٠٠٠١")
    @example("Bing Li ²")
    @example("Bing Li 0000")
    @example("Club 10000")
    @example("Bing Li 0001 \n")
    @example("")
    def test_matches_regex_reference(self, raw):
        assert parse_author_id(raw) == regex_parse(raw)


class TestBibRecord:
    def test_valid_record(self):
        r = BibRecord("k1", "article", "T", "J", 2000, (mention("A B"),))
        assert r.n_authors == 1

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            BibRecord("", "article", "T", "J", 2000, (mention("A B"),))

    def test_blank_title_rejected(self):
        with pytest.raises(ValueError):
            BibRecord("k", "article", "  ", "J", 2000, (mention("A B"),))

    def test_authorless_record_rejected(self):
        with pytest.raises(ValueError):
            BibRecord("k", "article", "T", "J", 2000, ())

    def test_empty_mention_rejected(self):
        with pytest.raises(ValueError):
            AuthorMention.from_raw("   ")
