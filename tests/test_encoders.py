import hashlib
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from namelink import encoders
from namelink.encoders import (
    NAME_DIM,
    TEXT_DIM,
    EmbeddingTableError,
    HashingNameEncoder,
    HashingTextEncoder,
    TableEncoder,
    _signed_bucket,
    default_encoders,
    load_embedding_table,
    name_input,
    text_rows,
)


def cosine(a, b):
    return float(np.dot(a, b))


def text_matrix(text_encoder, titles, sources):
    """The rows of ``text_rows`` as one matrix: each is copied before the
    next overwrites it."""
    return np.stack([row.copy() for row in text_rows(text_encoder, titles, sources)])


class TestHashingNameEncoder:
    def test_shape_and_unit_norm(self):
        enc = HashingNameEncoder()
        vec = enc("Wei Wang")
        assert vec.shape == (NAME_DIM,)
        assert np.isclose(np.linalg.norm(vec), 1.0)

    def test_empty_string_is_zero_vector(self):
        enc = HashingNameEncoder()
        assert np.all(enc("") == 0.0)

    def test_deterministic_across_instances(self):
        a, b = HashingNameEncoder(), HashingNameEncoder()
        np.testing.assert_array_equal(a("Jun Li"), b("Jun Li"))

    def test_case_insensitive(self):
        enc = HashingNameEncoder()
        np.testing.assert_array_equal(enc("J Lee"), enc("j lee"))

    def test_similar_spellings_closer_than_dissimilar(self):
        # shared n-grams make one-letter edits land near the original,
        # far-apart spellings share almost nothing
        enc = HashingNameEncoder()
        near = cosine(enc("Wang"), enc("Wanh"))
        far = cosine(enc("Wang"), enc("Smith"))
        assert near > far
        assert near > 0.5

    def test_cache_returns_same_object(self):
        enc = HashingNameEncoder()
        assert enc("X Y") is enc("X Y")

    def test_output_read_only(self):
        enc = HashingNameEncoder()
        vec = enc("A B")
        with pytest.raises(ValueError):
            vec[0] = 9.0


class TestHashingTextEncoder:
    def test_shape_and_unit_norm(self):
        enc = HashingTextEncoder()
        vec = enc("stream processing with windows")
        assert vec.shape == (TEXT_DIM,)
        assert np.isclose(np.linalg.norm(vec), 1.0)

    def test_empty_and_punctuation_only_are_zero(self):
        enc = HashingTextEncoder()
        assert np.all(enc("") == 0.0)
        assert np.all(enc("... !!") == 0.0)

    def test_token_order_invariant(self):
        enc = HashingTextEncoder()
        np.testing.assert_allclose(enc("alpha beta gamma"), enc("gamma alpha beta"), atol=1e-12)

    def test_shared_tokens_raise_similarity(self):
        enc = HashingTextEncoder()
        overlap = cosine(enc("graph neural networks"), enc("neural networks survey"))
        disjoint = cosine(enc("graph neural networks"), enc("database query optimization"))
        assert overlap > disjoint


def _unit(vec):
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


def reference_name_vector(text):
    """The n-gram recipe as a plain loop, every gram hashed afresh."""
    vec = np.zeros(NAME_DIM)
    counts = {}
    for word in text.lower().split():
        marked = f"^{word}$"
        for n in (1, 2, 3):
            for i in range(len(marked) - n + 1):
                gram = marked[i : i + n]
                counts[gram] = counts.get(gram, 0) + 1
    for gram, count in counts.items():
        bucket, sign = _signed_bucket(gram, NAME_DIM)
        vec[bucket] += sign * count
    return _unit(vec)


def reference_text_vector(text):
    """The token recipe as a plain loop, every token hashed afresh."""
    vec = np.zeros(TEXT_DIM)
    tokens = re.findall(r"[^\W_]+", text.lower())
    for token in tokens:
        bucket, sign = _signed_bucket(token, TEXT_DIM)
        vec[bucket] += sign
    if tokens:
        vec /= len(tokens)
    return _unit(vec)


class TestHashMemo:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(max_size=30), min_size=1, max_size=6))
    def test_fresh_warm_and_reference_vectors_equal(self, texts):
        warm_name, warm_text = HashingNameEncoder(), HashingTextEncoder()
        for text in texts:
            warm_name(text)
            warm_text(text)
        for text in texts:
            want_name, want_text = reference_name_vector(text), reference_text_vector(text)
            # encode skips the warm encoder's vector cache, so every gram comes from its memo
            for got in (HashingNameEncoder()(text), warm_name.encode(text)):
                assert got.tobytes() == want_name.tobytes()
            for got in (HashingTextEncoder()(text), warm_text(text)):
                assert got.tobytes() == want_text.tobytes()

    def test_memo_never_exceeds_cache_size(self, monkeypatch):
        text = " ".join(f"w{i}x" for i in range(50))
        want_name, want_text = HashingNameEncoder()(text), HashingTextEncoder()(text)
        monkeypatch.setattr(encoders, "CACHE_SIZE", 8)
        name, text_enc = HashingNameEncoder(), HashingTextEncoder()
        for _ in range(2):
            assert name.encode(text).tobytes() == want_name.tobytes()
            assert text_enc(text).tobytes() == want_text.tobytes()
        assert len(name._buckets) == len(text_enc._buckets) == 8

    def test_instances_share_no_memo(self):
        for cls in (HashingNameEncoder, HashingTextEncoder):
            a, b = cls(), cls()
            a("Jun Li")
            assert a._buckets and not b._buckets
        first, second = default_encoders(), default_encoders()
        assert first.name._buckets is not second.name._buckets
        assert first.text._buckets is not second.text._buckets


class TestTableEncoder:
    def test_hit_and_miss(self):
        fallback = HashingNameEncoder()
        stored = np.ones(NAME_DIM) / np.sqrt(NAME_DIM)
        enc = TableEncoder({"Wei Wang": stored}, fallback, NAME_DIM, sha256="0" * 64)
        np.testing.assert_array_equal(enc("Wei Wang"), stored)
        assert enc.miss_count == 0
        np.testing.assert_array_equal(enc("Unknown Person"), fallback("Unknown Person"))
        assert enc.miss_count == 1

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "table.tsv"
        vec = np.arange(4, dtype=float)
        path.write_text("foo\t0 1 2 3\nbar\t4 5 6 7\n", "utf-8")
        enc = load_embedding_table(path, 4, HashingNameEncoder())
        np.testing.assert_array_equal(enc("foo"), vec)
        assert enc.dim == 4

    def test_load_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("foo\t1 2\n\nbar\t3 4\n", "utf-8")
        enc = load_embedding_table(path, 2, HashingNameEncoder())
        np.testing.assert_array_equal(enc("bar"), [3.0, 4.0])

    @pytest.mark.parametrize(
        "content, fragment",
        [
            ("foo 1 2\n", "missing tab"),
            ("foo\t1 2\nfoo\t3 4\n", "duplicate key"),
            ("foo\t1 2 3\n", "expected 2 values"),
            ("foo\t1 x\n", "bad value"),
            ("foo\t1 nan\n", "non-finite"),
            # the key "" would give the empty co-author slot a vector other than zeros
            ("foo\t1 2\n\t3 4\n", ":2: empty key"),
        ],
    )
    def test_load_errors_name_the_line(self, tmp_path, content, fragment):
        path = tmp_path / "table.tsv"
        path.write_text(content, "utf-8")
        with pytest.raises(EmbeddingTableError) as err:
            load_embedding_table(path, 2, HashingNameEncoder())
        message = str(err.value)
        assert fragment in message
        assert str(path) in message

    def test_crlf_and_lone_cr_end_lines(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_bytes(b"foo\t1 2\r\n\r\nbar\t3 4\rbaz\t5 6")
        enc = load_embedding_table(path, 2, HashingNameEncoder())
        for key, vec in (("foo", [1.0, 2.0]), ("bar", [3.0, 4.0]), ("baz", [5.0, 6.0])):
            np.testing.assert_array_equal(enc(key), vec)
        assert enc.miss_count == 0

    def test_sha256_is_the_file_digest(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_bytes(b"foo\t1 2\r\n\nbar\t3 4\n")
        enc = load_embedding_table(path, 2, HashingNameEncoder())
        assert enc.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_line_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_bytes(b"ab\xff\t1 2")
        with pytest.raises(EmbeddingTableError) as err:
            load_embedding_table(path, 2, HashingNameEncoder())
        assert f"{path}:1:" in str(err.value)
        assert "UTF-8" in str(err.value)

    def test_duplicate_error_reports_second_occurrence(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("a\t1 2\nb\t3 4\na\t5 6\n", "utf-8")
        with pytest.raises(EmbeddingTableError) as err:
            load_embedding_table(path, 2, HashingNameEncoder())
        assert ":3:" in str(err.value)


class TestAssembleFeatures:
    NAMES = ["", "J Lee", "M Chen"]

    def vectors(self, enc):
        return np.stack([enc.name(n) for n in self.NAMES])

    def test_shapes(self):
        enc = default_encoders()
        x1 = name_input(enc.name("Wei"), self.vectors(enc), np.array([1, 2, 0]), np.array([2, 0, 0]))
        x2 = text_matrix(enc.text, ["title words", "other"], ["venue", ""])
        assert x1.shape == (3, 2 * NAME_DIM)
        assert x2.shape == (2, TEXT_DIM)

    def test_coauthor_order_symmetric(self):
        enc = default_encoders()
        vectors = self.vectors(enc)
        a = name_input(enc.name("Wei"), vectors, np.array([1]), np.array([2]))
        b = name_input(enc.name("Wei"), vectors, np.array([2]), np.array([1]))
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_first_half_is_target_first_name(self):
        enc = default_encoders()
        x1 = name_input(enc.name("Wei"), self.vectors(enc), np.array([1, 2]), np.array([2, 1]))
        np.testing.assert_array_equal(x1[:, :NAME_DIM], np.stack([enc.name("Wei")] * 2))

    def test_per_sample_first_names(self):
        enc = default_encoders()
        first = np.stack([enc.name("Wei"), enc.name("W")])
        x1 = name_input(first, self.vectors(enc), np.array([1, 1]), np.array([2, 2]))
        np.testing.assert_array_equal(x1[:, :NAME_DIM], first)
        np.testing.assert_array_equal(x1[0, NAME_DIM:], x1[1, NAME_DIM:])

    def test_empty_coauthors_leave_pair_half_zero(self):
        enc = default_encoders()
        x1 = name_input(enc.name("Wei"), self.vectors(enc), np.array([0]), np.array([0]))
        assert np.all(x1[:, NAME_DIM:] == 0.0)

    def test_single_coauthor_half_weight(self):
        enc = default_encoders()
        x1 = name_input(enc.name("Wei"), self.vectors(enc), np.array([1]), np.array([0]))
        np.testing.assert_allclose(x1[0, NAME_DIM:], 0.5 * enc.name("J Lee"), atol=1e-15)

    def test_empty_source_halves_title_signal(self):
        enc = default_encoders()
        row = next(text_rows(enc.text, ["some title"], [""]))
        np.testing.assert_allclose(row, 0.5 * enc.text("some title"), atol=1e-15)

    def test_each_distinct_string_encoded_once_per_call(self):
        enc = HashingTextEncoder()
        seen, alive, refs = [], [], {}

        def counting(text):
            seen.append(text)
            alive.append(sorted(t for t, ref in refs.items() if ref() is not None))
            vec = enc(text)
            refs[text] = weakref.ref(vec)
            return vec

        counting.dim = TEXT_DIM
        titles, sources = ["alpha beta", "gamma", "alpha beta"], ["VLDB", "VLDB", ""]
        x2 = text_matrix(counting, titles, sources)
        assert seen == ["alpha beta", "VLDB", "gamma", ""]
        # a vector is dropped after the last row that reads it
        assert alive[-1] == ["alpha beta"]
        np.testing.assert_array_equal(x2[2], 0.5 * (enc("alpha beta") + enc("")))
        # nothing is kept between calls
        text_matrix(counting, titles, sources)
        assert len(seen) == 8

    def test_text_rows_follow_records(self):
        enc = default_encoders()
        x2 = text_matrix(enc.text, ["alpha beta", "gamma"], ["VLDB", "KDD"])
        np.testing.assert_array_equal(x2[1], 0.5 * (enc.text("gamma") + enc.text("KDD")))


class TestProperties:
    @given(st.text(max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_name_vectors_finite_with_unit_or_zero_norm(self, text):
        vec = HashingNameEncoder()(text)
        assert np.isfinite(vec).all()
        norm = np.linalg.norm(vec)
        assert np.isclose(norm, 1.0) or norm == 0.0

    @given(st.text(max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_text_vectors_finite_with_unit_or_zero_norm(self, text):
        vec = HashingTextEncoder()(text)
        assert np.isfinite(vec).all()
        norm = np.linalg.norm(vec)
        assert np.isclose(norm, 1.0) or norm == 0.0

    @given(st.text(max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_name_encoding_repeatable(self, text):
        np.testing.assert_array_equal(HashingNameEncoder()(text), HashingNameEncoder()(text))
