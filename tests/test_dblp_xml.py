import io

import pytest

from namelink.dblp_xml import DblpParseError, ParseCounters, parse_dblp_stream

DOCTYPE = '<?xml version="1.0"?>\n<!DOCTYPE dblp SYSTEM "dblp.dtd">\n'


def parse(xml: str, **kwargs):
    return list(parse_dblp_stream(io.BytesIO(xml.encode("utf-8")), **kwargs))


def wrap(*elements: str) -> str:
    return DOCTYPE + "<dblp>" + "".join(elements) + "</dblp>"


ARTICLE = (
    '<article key="journals/x/A1"><author>Lei Wang</author><author>Yu Chen</author>'
    "<title>Stream Joins</title><journal>VLDB J.</journal><year>2004</year></article>"
)


class TestBasicParsing:
    def test_single_article(self):
        (r,) = parse(wrap(ARTICLE))
        assert r.record_key == "journals/x/A1"
        assert r.kind == "article"
        assert r.title == "Stream Joins"
        assert r.source == "VLDB J."
        assert r.year == 2004
        assert [m.display_name for m in r.authors] == ["Lei Wang", "Yu Chen"]

    def test_inproceedings_uses_booktitle(self):
        xml = wrap(
            '<inproceedings key="conf/y/B2"><author>A B</author>'
            "<title>T</title><booktitle>KDD</booktitle></inproceedings>"
        )
        (r,) = parse(xml)
        assert r.kind == "inproceedings"
        assert r.source == "KDD"
        assert r.year == 0

    def test_document_order_preserved(self):
        xml = wrap(
            '<article key="k/1"><author>A B</author><title>T1</title></article>',
            '<article key="k/2"><author>A B</author><title>T2</title></article>',
        )
        assert [r.record_key for r in parse(xml)] == ["k/1", "k/2"]

    def test_unknown_child_elements_ignored(self):
        xml = wrap(
            '<article key="k/1"><author>A B</author><title>T</title>'
            "<pages>1-10</pages><ee>http://x</ee><crossref>c</crossref></article>"
        )
        (r,) = parse(xml)
        assert r.title == "T"

    def test_inline_markup_in_title_flattened(self):
        xml = wrap('<article key="k/1"><author>A B</author><title>On <i>k</i>-mers</title></article>')
        (r,) = parse(xml)
        assert r.title == "On k-mers"

    def test_named_entities_resolved(self):
        xml = wrap(
            '<article key="k/1"><author>J&uuml;rgen M&uuml;ller</author>'
            "<title>Sch&auml;tzung &amp; Analyse</title></article>"
        )
        (r,) = parse(xml)
        assert r.authors[0].display_name == "Jürgen Müller"
        assert r.title == "Schätzung & Analyse"

    def test_latin1_declared_encoding(self):
        xml = (
            '<?xml version="1.0" encoding="ISO-8859-1"?>\n<!DOCTYPE dblp SYSTEM "dblp.dtd">\n'
            '<dblp><article key="k/1"><author>René Dupont</author><title>Étude</title></article></dblp>'
        )
        records = list(parse_dblp_stream(io.BytesIO(xml.encode("latin-1"))))
        assert records[0].authors[0].display_name == "René Dupont"
        assert records[0].title == "Étude"

    def test_homonym_suffix_parsed(self):
        xml = wrap('<article key="k/1"><author>Bing Li 0001</author><title>T</title></article>')
        (r,) = parse(xml)
        assert r.authors[0].author_id.base_name == "Bing Li"
        assert r.authors[0].author_id.homonym_index == 1


class TestFilteringAndCounters:
    def test_non_publication_kinds_skipped(self):
        counters = ParseCounters()
        xml = wrap(
            '<www key="homepages/1"><title>Home</title></www>',
            ARTICLE,
            '<phdthesis key="phd/1"><author>X Y</author><title>T</title></phdthesis>',
        )
        records = parse(xml, counters=counters)
        assert len(records) == 1
        assert counters.skipped_other_kinds == 2

    def test_kinds_filter_widens(self):
        xml = wrap('<phdthesis key="phd/1"><author>X Y</author><title>T</title></phdthesis>')
        records = parse(xml, kinds_filter={"phdthesis"})
        assert records[0].kind == "phdthesis"

    def test_missing_title_author_key_counted(self):
        counters = ParseCounters()
        xml = wrap(
            '<article key="k/1"><author>A B</author></article>',
            '<article key="k/2"><title>T</title></article>',
            "<article><author>A B</author><title>T</title></article>",
        )
        assert parse(xml, counters=counters) == []
        assert counters.skipped_missing_title == 1
        assert counters.skipped_missing_authors == 1
        assert counters.skipped_missing_key == 1
        assert counters.skipped == 3

    def test_author_normalizing_to_nothing_dropped(self):
        counters = ParseCounters()
        xml = wrap(
            '<article key="k/1"><author>-</author><author>A B</author><author>. -</author>'
            "<author></author><title>T</title></article>",
            '<article key="k/2"><author>.</author><author>- 0001</author><title>T</title></article>',
        )
        (record,) = parse(xml, counters=counters)
        assert [m.display_name for m in record.authors] == ["A B"]
        assert counters.dropped_author_mentions == 5
        assert counters.skipped_missing_authors == 1
        assert counters.records == 1

    def test_empty_source_flagged_not_skipped(self):
        counters = ParseCounters()
        xml = wrap('<article key="k/1"><author>A B</author><title>T</title></article>')
        records = parse(xml, counters=counters)
        assert len(records) == 1
        assert counters.empty_source == 1

    def test_first_source_wins_on_duplicates(self):
        xml = wrap(
            '<article key="k/1"><author>A B</author><title>T</title>'
            "<journal>First</journal><journal>Second</journal></article>"
        )
        assert parse(xml)[0].source == "First"


class TestErrors:
    def test_malformed_xml_raises_with_offset(self):
        xml = DOCTYPE + "<dblp><article key='k/1'><author>A"
        with pytest.raises(DblpParseError) as err:
            parse(xml)
        assert err.value.byte_offset >= 0

    def test_mismatched_tag(self):
        xml = DOCTYPE + "<dblp><article key='k/1'><title>T</journal></article></dblp>"
        with pytest.raises(DblpParseError):
            parse(xml)


BAD_ARTICLE = "<article key='k/bad'><title>T</journal></article>"


def two_chunk_document(bad_at=None):
    """About 105 KB of articles, so the parser reads it as one full 64 KiB
    chunk and a shorter second one; ``bad_at`` swaps one article for a
    mismatched tag."""
    articles = [ARTICLE] * 640
    if bad_at is not None:
        articles[bad_at] = BAD_ARTICLE
    xml = wrap(*articles)
    assert 65536 < len(xml.encode("utf-8")) < 2 * 65536
    return xml


class TestErrorOffsets:
    """An error reports the bytes fed when it surfaced: all chunks up to and
    including the one that holds it."""

    def offset(self, xml):
        with pytest.raises(DblpParseError) as err:
            parse(xml)
        return err.value.byte_offset

    def test_error_in_first_chunk(self):
        assert self.offset(two_chunk_document(bad_at=1)) == 65536

    def test_error_in_last_chunk(self):
        xml = two_chunk_document(bad_at=-2)
        assert self.offset(xml) == len(xml.encode("utf-8"))

    def test_truncated_document_fails_at_close(self):
        xml = two_chunk_document().removesuffix("</dblp>")
        assert self.offset(xml) == len(xml.encode("utf-8"))


@pytest.fixture(scope="module")
def parsed():
    import json
    from pathlib import Path

    data = Path(__file__).parent / "data"
    counters = ParseCounters()
    with open(data / "dblp_fixture.xml", "rb") as fh:
        records = list(parse_dblp_stream(fh, counters=counters))
    expected = json.loads((data / "dblp_fixture.expected.json").read_text("utf-8"))
    return records, counters, expected


class TestFixture:
    """Parse the bundled 50-record corpus and compare field by field."""

    def test_counters_match(self, parsed):
        records, counters, expected = parsed
        want = expected["counters"]
        assert len(records) == want["records"]
        assert counters.records == want["records"]
        assert counters.skipped_missing_title == want["skipped_missing_title"]
        assert counters.skipped_missing_authors == want["skipped_missing_authors"]
        assert counters.skipped_missing_key == want["skipped_missing_key"]
        assert counters.skipped_other_kinds == want["skipped_other_kinds"]
        assert counters.empty_source == want["empty_source"]

    def test_records_match(self, parsed):
        records, _, expected = parsed
        assert len(records) == len(expected["records"])
        for got, want in zip(records, expected["records"]):
            assert got.record_key == want["key"]
            assert got.kind == want["kind"]
            assert got.title == want["title"]
            assert got.source == want["source"]
            assert got.year == want["year"]
            assert len(got.authors) == len(want["authors"])
            for mention, author in zip(got.authors, want["authors"]):
                assert mention.display_name == author["display"]
                assert mention.author_id.base_name == author["base"]
                assert mention.author_id.homonym_index == author["index"]
