import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from namelink.records import AuthorMention, BibRecord
from namelink.store import (
    STORE_VERSION,
    CorpusStoreError,
    load_corpus,
    read_corpus_store,
    write_corpus_store,
)


def make_records():
    return [
        BibRecord(
            record_key="journals/x/A1",
            kind="article",
            title="Stream Joins über Fenster",
            source="VLDB J.",
            year=2004,
            authors=(
                AuthorMention.from_raw("Lei Wang"),
                AuthorMention.from_raw("Bing Li 0001"),
            ),
        ),
        BibRecord(
            record_key="conf/y/B2",
            kind="inproceedings",
            title="T",
            source="",
            year=0,
            authors=(AuthorMention.from_raw("Solo Author"),),
        ),
    ]


class TestRoundTrip:
    def test_round_trip_equality(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        records = make_records()
        summary = write_corpus_store(records, path)
        assert summary.records == 2
        assert summary.author_mentions == 3
        assert list(read_corpus_store(path)) == records

    def test_rewrite_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        records = make_records()
        write_corpus_store(records, a)
        write_corpus_store(list(read_corpus_store(a)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_line_carries_version(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        write_corpus_store(make_records(), path)
        first = path.read_text("utf-8").splitlines()[0]
        assert first == STORE_VERSION

    def test_duplicate_key_rejected_on_write(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        records = make_records()
        with pytest.raises(CorpusStoreError) as err:
            write_corpus_store(records + [records[0]], path)
        assert "journals/x/A1" in str(err.value)

    def test_homonym_suffix_survives(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        write_corpus_store(make_records(), path)
        (_, rec2) = (None, None)
        rec1, rec2 = read_corpus_store(path)
        mention = rec1.authors[1]
        assert mention.author_id.base_name == "Bing Li"
        assert mention.author_id.homonym_index == 1
        assert rec2.year == 0

    def test_load_corpus_returns_list(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        write_corpus_store(make_records(), path)
        corpus = load_corpus(path)
        assert isinstance(corpus, list)
        assert len(corpus) == 2

    def test_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        summary = write_corpus_store([], path)
        assert summary.records == 0
        assert list(read_corpus_store(path)) == []


class TestErrors:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"record_key": "k"}\n', "utf-8")
        with pytest.raises(CorpusStoreError) as err:
            list(read_corpus_store(path))
        assert err.value.line_no == 1

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text("ndcorpus/99\n", "utf-8")
        with pytest.raises(CorpusStoreError):
            list(read_corpus_store(path))

    def test_corrupt_json_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        good = tmp_path / "good.ndjson"
        write_corpus_store(make_records(), good)
        lines = good.read_text("utf-8").splitlines()
        lines[2] = lines[2][:-5]
        path.write_text("\n".join(lines) + "\n", "utf-8")
        with pytest.raises(CorpusStoreError) as err:
            list(read_corpus_store(path))
        assert err.value.line_no == 3

    def test_truncated_final_line(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        good = tmp_path / "good.ndjson"
        write_corpus_store(make_records(), good)
        path.write_bytes(good.read_bytes()[:-1])
        with pytest.raises(CorpusStoreError) as err:
            list(read_corpus_store(path))
        assert err.value.line_no == 3

    def test_duplicate_key_rejected_on_read(self, tmp_path):
        # a store written by something other than write_corpus_store
        path = tmp_path / "dup.ndjson"
        good = tmp_path / "good.ndjson"
        write_corpus_store(make_records(), good)
        lines = good.read_text("utf-8").splitlines()
        path.write_text("\n".join(lines + [lines[1]]) + "\n", "utf-8")
        with pytest.raises(CorpusStoreError) as err:
            load_corpus(path)
        assert err.value.line_no == 4
        assert "journals/x/A1" in str(err.value)

    def test_missing_field_in_record_line(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        body = json.dumps({"key": "k", "kind": "article"})
        path.write_text(STORE_VERSION + "\n" + body + "\n", "utf-8")
        with pytest.raises(CorpusStoreError) as err:
            list(read_corpus_store(path))
        assert err.value.line_no == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("key", 7),
            ("kind", None),
            ("title", 5),
            ("source", ["VLDB"]),
            ("year", "x"),
            ("year", 2004.0),
            ("year", True),
            ("authors", "Li"),
            ("authors", ["Lei Wang", 3]),
            ("authors", {"Lei Wang": 1}),
        ],
    )
    def test_field_of_the_wrong_type(self, tmp_path, field, value):
        path = tmp_path / "bad.ndjson"
        payload = {"key": "k", "kind": "article", "title": "T", "source": "", "year": 2004, "authors": ["Lei Wang"]}
        payload[field] = value
        path.write_text(STORE_VERSION + "\n" + json.dumps(payload) + "\n", "utf-8")
        with pytest.raises(CorpusStoreError) as err:
            list(read_corpus_store(path))
        assert err.value.line_no == 2
        assert f"{path}:2" in str(err.value) and repr(field) in str(err.value)

    def test_error_carries_path(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text("not json\n", "utf-8")
        with pytest.raises(CorpusStoreError) as err:
            list(read_corpus_store(path))
        assert str(path) in str(err.value)

    def test_header_without_newline(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text(STORE_VERSION, "utf-8")
        with pytest.raises(CorpusStoreError) as err:
            list(read_corpus_store(path))
        assert err.value.line_no == 1

    def test_invalid_utf8_reports_line_number(self, tmp_path):
        good = tmp_path / "good.ndjson"
        write_corpus_store(make_records(), good)
        lines = good.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b'"T"', b'"\xff"')
        path = tmp_path / "bad.ndjson"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CorpusStoreError) as err:
            list(read_corpus_store(path))
        assert err.value.line_no == 3
        assert str(path) in str(err.value)

    def test_cut_inside_a_multibyte_character(self, tmp_path):
        good = tmp_path / "good.ndjson"
        write_corpus_store(make_records(), good)
        data = good.read_bytes()
        cut = data.index("ü".encode("utf-8")) + 1
        path = tmp_path / "bad.ndjson"
        path.write_bytes(data[:cut])
        with pytest.raises(CorpusStoreError) as err:
            list(read_corpus_store(path))
        assert err.value.line_no == 2


TEXT = st.text(st.characters(codec="utf-8"), max_size=10)
NAME = TEXT.map(str.strip).filter(bool)
RECORDS = st.lists(
    st.builds(
        BibRecord,
        record_key=NAME,
        kind=TEXT,
        title=NAME,
        source=TEXT,
        year=st.integers(0, 2100),
        authors=st.lists(NAME.map(AuthorMention.from_raw), min_size=1, max_size=3).map(tuple),
    ),
    max_size=4,
    unique_by=lambda r: r.record_key,
)


class TestStoreProperties:
    @given(RECORDS)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_and_rewrite_bytes(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a.nd", Path(tmp) / "b.nd"
            write_corpus_store(records, a)
            assert load_corpus(a) == records
            write_corpus_store(load_corpus(a), b)
            assert a.read_bytes() == b.read_bytes()

    @given(RECORDS)
    @settings(max_examples=20, deadline=None)
    def test_every_prefix_is_refused_or_loads_the_records_before_it(self, records):
        """A cut that does not end a line is refused; a cut at a line end
        after the header loads exactly the records written before it."""
        with tempfile.TemporaryDirectory() as tmp:
            full, cut = Path(tmp) / "full.nd", Path(tmp) / "cut.nd"
            write_corpus_store(records, full)
            data = full.read_bytes()
            for length in range(len(data)):
                prefix = data[:length]
                cut.write_bytes(prefix)
                if prefix.endswith(b"\n"):
                    assert load_corpus(cut) == records[: prefix.count(b"\n") - 1]
                else:
                    with pytest.raises(CorpusStoreError):
                        load_corpus(cut)
