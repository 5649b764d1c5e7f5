import collections
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import namelink.training
from conftest import widen
from namelink.blocking import BlockEntry, build_block
from namelink.encoders import NAME_DIM, TEXT_DIM, HashingTextEncoder, TableEncoder, default_encoders, name_input
from namelink.model import ModelConfig, ModelParams, forward_batch, init_model
from namelink.names import build_author_registry, normalize_name
from namelink.predict import predict_author
from namelink.records import AuthorId, AuthorMention, BibRecord
from namelink.training import (
    EVAL_BATCH,
    MODE_FULL,
    EpochStats,
    PackedRows,
    SampleBank,
    Split,
    SplitAssignment,
    TrainRunConfig,
    TrainingError,
    TrainingMonitor,
    derive_block_seeds,
    history_lines,
    split_per_author,
    train_block_model,
    _evaluate_bank,
)


def rec(key, *names, title="some words", source="J."):
    return BibRecord(
        record_key=key,
        kind="article",
        title=title,
        source=source,
        year=2010,
        authors=tuple(AuthorMention.from_raw(n) for n in names),
    )


def single_author_block(n_records, name="Zhi Qian"):
    corpus = [rec(f"r{k:03d}", name, f"Co Worker{k}") for k in range(n_records)]
    registry = build_author_registry(corpus)
    return build_block(corpus, registry, normalize_name(name).key())


def expected_cut(n):
    """Independent restatement of the 70/15/15 rule used as oracle."""
    import math

    rhu = lambda x: math.floor(x + 0.5)
    n_train = min(n, max(1, rhu(0.7 * n)))
    rem = n - n_train
    n_val = min(rem, rhu(0.15 * n))
    if n_val == 0 and rem >= 2:
        n_val = 1
    return n_train, n_val, rem - n_val


class TestSplitPerAuthor:
    @pytest.mark.parametrize(
        "n, cut",
        [
            (1, (1, 0, 0)),
            (2, (1, 0, 1)),
            (3, (2, 0, 1)),
            (4, (3, 1, 0)),
            (6, (4, 1, 1)),
            (10, (7, 2, 1)),
            (20, (14, 3, 3)),
        ],
    )
    def test_frozen_counts(self, n, cut):
        block = single_author_block(n)
        split = split_per_author(block, seed=1)
        counts = split.counts()
        assert (counts[Split.TRAIN], counts[Split.VAL], counts[Split.TEST]) == cut

    def test_partition_covers_every_record_once(self):
        block = single_author_block(13)
        split = split_per_author(block, seed=2)
        (assignment,) = split.by_author.values()
        assert len(assignment) == 13
        assert sorted(assignment) == sorted({e.record.record_key for e in block.entries})

    def test_deterministic_under_seed(self):
        block = single_author_block(17)
        assert split_per_author(block, 3).by_author == split_per_author(block, 3).by_author

    def test_seed_changes_assignment(self):
        block = single_author_block(17)
        a = split_per_author(block, 3).by_author
        b = split_per_author(block, 4).by_author
        assert a != b

    def test_authors_split_independently(self):
        corpus = [rec(f"a{k}", "Wei Liang") for k in range(10)]
        corpus += [rec(f"b{k}", "Wen Liang") for k in range(4)]
        registry = build_author_registry(corpus)
        block = build_block(corpus, registry, "W Liang")
        split = split_per_author(block, 5)
        for author, assignment in split.by_author.items():
            n = len(assignment)
            got = [sum(1 for s in assignment.values() if s is want) for want in Split]
            assert tuple(got) == expected_cut(n)

    def test_entries_filter_matches_assignment(self):
        block = single_author_block(10)
        split = split_per_author(block, 6)
        train = split.entries(block, Split.TRAIN)
        assert len(train) == 7
        for entry in train:
            assert split.split_of(entry.target.author_id, entry.record.record_key) is Split.TRAIN

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_general_law(self, n, seed):
        block = single_author_block(n)
        counts = split_per_author(block, seed).counts()
        n_train, n_val, n_test = expected_cut(n)
        assert counts[Split.TRAIN] == n_train
        assert counts[Split.VAL] == n_val
        assert counts[Split.TEST] == n_test
        assert counts[Split.TRAIN] >= 1
        assert sum(counts.values()) == n


FOUR = rec("p1", "Alan Turing", "Grace Hopper", "Kurt Goedel", "Ada Lovelace")


def class_index_for(record):
    return {m.author_id: i for i, m in enumerate(record.authors)}


FULLS = ["Alan Turing", "Grace Hopper", "Kurt Goedel", "Ada Lovelace"]
ANVS = ["A Turing", "G Hopper", "K Goedel", "A Lovelace"]


def one_entry_bank(record, position, enc, seed=None):
    """The bank of a single entry, its j drawn from ``seed`` when given."""
    bank = SampleBank([BlockEntry(record, position)], class_index_for(record), enc)
    if seed is not None:
        bank.assign_coauthors(np.random.default_rng(seed), slice(0, bank.n_samples))
    return bank


def all_rows(bank):
    """(x1, x2) of every row of ``bank``, in row order, at the encoders' widths."""
    return widen(bank, *bank.rows(np.arange(bank.n_samples)))


def f32(x):
    """A float64 oracle rounded once, as the bank stores its rows."""
    return np.asarray(x).astype(np.float32)


def drawn_j(enc, row, p_name, names):
    """The positions j whose name completes a row's pair half with p's name."""
    pair = row[enc.name.dim :]
    return {
        j for j, n in enumerate(names)
        if np.array_equal(pair, f32(0.5 * (enc.name(p_name) + enc.name(n))))
    }


class TestGenerateSamples:
    """The sample rule, read back from one-entry banks."""

    def test_two_omega_samples_split_between_modes(self):
        enc = default_encoders()
        bank = one_entry_bank(FOUR, 0, enc, seed=1)
        assert bank.n_samples == 8
        x1, _ = all_rows(bank)
        np.testing.assert_array_equal(x1[0::2, :200], f32(np.tile(enc.name("Alan"), (4, 1))))
        np.testing.assert_array_equal(x1[1::2, :200], f32(np.tile(enc.name("A"), (4, 1))))

    def test_full_rows_walk_every_position(self):
        # before the first draw j is the empty name, so the pair half is name(p) / 2
        enc = default_encoders()
        x1, _ = all_rows(one_entry_bank(FOUR, 0, enc))
        for k in range(4):
            np.testing.assert_array_equal(x1[2 * k, 200:], f32(0.5 * enc.name(FULLS[k])))
            np.testing.assert_array_equal(x1[2 * k + 1, 200:], f32(0.5 * enc.name(ANVS[k])))

    def test_modes_never_mix_within_a_sample(self):
        enc = default_encoders()
        x1, _ = all_rows(one_entry_bank(FOUR, 1, enc, seed=2))
        np.testing.assert_array_equal(x1[0::2, :200], f32(np.tile(enc.name("Grace"), (4, 1))))
        np.testing.assert_array_equal(x1[1::2, :200], f32(np.tile(enc.name("G"), (4, 1))))
        for k in range(4):
            assert drawn_j(enc, x1[2 * k], FULLS[k], FULLS)
            assert drawn_j(enc, x1[2 * k + 1], ANVS[k], ANVS)

    def test_twins_share_j(self):
        enc = default_encoders()
        x1, _ = all_rows(one_entry_bank(FOUR, 0, enc, seed=3))
        for k in range(4):
            full_j = drawn_j(enc, x1[2 * k], FULLS[k], FULLS)
            anv_j = drawn_j(enc, x1[2 * k + 1], ANVS[k], ANVS)
            assert len(full_j) == 1 and full_j == anv_j

    def test_label_and_record_key(self):
        # every row carries the target's class and its own record's text
        enc = default_encoders()
        bank = one_entry_bank(FOUR, 2, enc, seed=4)
        assert bank.labels.tolist() == [2] * 8
        text = 0.5 * (enc.text(FOUR.title) + enc.text(FOUR.source))
        np.testing.assert_array_equal(all_rows(bank)[1], f32(np.tile(text, (8, 1))))

    def test_solo_record_uses_empty_sentinels(self):
        enc = default_encoders()
        solo = rec("s1", "Alan Turing")
        bank = one_entry_bank(solo, 0, enc, seed=5)
        assert bank.n_samples == 2
        x1, _ = all_rows(bank)
        np.testing.assert_array_equal(x1[0, :200], f32(enc.name("Alan")))
        np.testing.assert_array_equal(x1[1, :200], f32(enc.name("A")))
        np.testing.assert_array_equal(x1[:, 200:], np.zeros((2, 200), np.float32))

    def test_seeded_determinism(self):
        enc = default_encoders()
        a = one_entry_bank(FOUR, 0, enc, seed=6)
        b = one_entry_bank(FOUR, 0, enc, seed=6)
        np.testing.assert_array_equal(all_rows(a)[0], all_rows(b)[0])

    def test_j_draw_depends_on_rng(self):
        enc = default_encoders()
        draws = {all_rows(one_entry_bank(FOUR, 0, enc, seed=seed))[0].tobytes() for seed in range(8)}
        assert len(draws) > 1


class TestSampleBank:
    def make_block(self):
        corpus = [
            rec("r1", "Wei Fang", "Co One", "Co Two", title="alpha beta", source="VLDB"),
            rec("r2", "Wei Fang", "Co Three", title="gamma delta", source="KDD"),
            rec("r3", "Wen Fang", "Co One", title="epsilon", source="VLDB"),
            rec("r4", "Wen Fang", title="zeta", source=""),
        ]
        registry = build_author_registry(corpus)
        return build_block(corpus, registry, "W Fang")

    def test_sample_count(self):
        block = self.make_block()
        bank = SampleBank(block.entries, block.class_index, default_encoders())
        # 2*omega per record: 6 + 4 + 4 + 2
        assert bank.n_samples == 16
        x1, x2 = all_rows(bank)
        assert x1.shape == (16, 400)
        assert x2.shape == (16, 768)
        assert bank.labels.tolist() == [0] * 6 + [0] * 4 + [1] * 4 + [1] * 2

    def test_rows_match_assemble_features(self):
        """The vectorized bank must agree with a per-sample scalar assembly."""
        block = self.make_block()
        enc = default_encoders()
        bank = SampleBank(block.entries, block.class_index, enc)
        bank.assign_coauthors(np.random.default_rng(7), slice(0, bank.n_samples))
        bank_x1, bank_x2 = all_rows(bank)

        # oracle: one j per position p, entry by entry; a solo record pairs "" with ""
        replay = np.random.default_rng(7)
        i = 0
        for entry in block.entries:
            record = entry.record
            forms = [normalize_name(m.display_name) for m in record.authors]
            target = forms[entry.position]
            omega = len(forms)
            x2 = 0.5 * (enc.text(record.title) + enc.text(record.source))
            for p in range(omega):
                j = int(replay.integers(omega)) if omega > 1 else None
                modes = ((target.first_name, [f.render() for f in forms]), (target.anv_first, [f.anv for f in forms]))
                for first, names in modes:
                    pair = (names[p], names[j]) if j is not None else ("", "")
                    x1 = np.concatenate([enc.name(first), 0.5 * (enc.name(pair[0]) + enc.name(pair[1]))])
                    np.testing.assert_array_equal(bank_x1[i], f32(x1))
                    np.testing.assert_array_equal(bank_x2[i], f32(x2))
                    assert bank.labels[i] == block.class_index[entry.target.author_id]
                    i += 1
        assert i == bank.n_samples

    def test_reassignment_keeps_static_half(self):
        block = self.make_block()
        bank = SampleBank(block.entries, block.class_index, default_encoders())
        x1, x2 = all_rows(bank)
        bank.assign_coauthors(np.random.default_rng(8), slice(0, bank.n_samples))
        first = all_rows(bank)[0]
        bank.assign_coauthors(np.random.default_rng(9), slice(0, bank.n_samples))
        redrawn_x1, redrawn_x2 = all_rows(bank)
        np.testing.assert_array_equal(redrawn_x1[:, :200], x1[:, :200])
        np.testing.assert_array_equal(redrawn_x2, x2)
        assert not np.array_equal(redrawn_x1[:, 200:], first[:, 200:])

    def test_reassignment_reproducible(self):
        block = self.make_block()
        bank = SampleBank(block.entries, block.class_index, default_encoders())
        bank.assign_coauthors(np.random.default_rng(10), slice(0, bank.n_samples))
        snap = all_rows(bank)[0]
        bank.assign_coauthors(np.random.default_rng(11), slice(0, bank.n_samples))
        bank.assign_coauthors(np.random.default_rng(10), slice(0, bank.n_samples))
        np.testing.assert_array_equal(all_rows(bank)[0], snap)

    def test_reassigning_a_row_range_leaves_the_other_rows(self):
        block = self.make_block()
        enc = default_encoders()
        bank = SampleBank(block.entries, block.class_index, enc)
        # the first two entries as the train rows, the other two as the validation rows
        train, val = slice(0, int(bank.entry_start[2])), slice(int(bank.entry_start[2]), bank.n_samples)
        bank.assign_coauthors(np.random.default_rng(3), val)
        val_j = bank._j_ids[val].copy()
        # the validation rows draw as a bank of their entries alone does
        alone = SampleBank(block.entries[2:], block.class_index, enc)
        alone.assign_coauthors(np.random.default_rng(3), slice(0, alone.n_samples))
        np.testing.assert_array_equal(widen(bank, *bank.rows(val))[0], all_rows(alone)[0])
        rng = np.random.default_rng(4)
        drawn = set()
        for _ in range(4):
            bank.assign_coauthors(rng, train)
            np.testing.assert_array_equal(bank._j_ids[val], val_j)
            drawn.add(bank._j_ids[train].tobytes())
        assert len(drawn) > 1

    def test_rows_of_a_shuffled_batch_match_the_full_rows(self):
        block = self.make_block()
        bank = SampleBank(block.entries, block.class_index, default_encoders())
        rng = np.random.default_rng(12)
        for draw in range(2):
            bank.assign_coauthors(rng, slice(0, bank.n_samples))
            full_x1, full_x2 = all_rows(bank)
            idx = rng.permutation(bank.n_samples)[:11]
            x1, x2 = widen(bank, *bank.rows(idx))
            np.testing.assert_array_equal(x1, full_x1[idx])
            np.testing.assert_array_equal(x2, full_x2[idx])
            out = np.full((idx.size, 2 * bank.name_dim), np.nan, np.float32)
            got, x2 = bank.rows(idx, out=out)
            assert got is out
            np.testing.assert_array_equal(widen(bank, out, x2)[0], full_x1[idx])

    def test_rows_are_the_float64_rows_rounded_once(self):
        """x1 is ``name_input`` over the rows' name ids and x2 the gather of
        (text(title) + text(source)) / 2, both in float64, then cast once."""
        block = self.make_block()
        enc = default_encoders()
        bank = SampleBank(block.entries, block.class_index, enc)
        bank.assign_coauthors(np.random.default_rng(13), slice(0, bank.n_samples))
        records = [e.record for e in block.entries]
        text64 = np.stack([0.5 * (enc.text(r.title) + enc.text(r.source)) for r in records])
        for idx in (np.random.default_rng(14).permutation(bank.n_samples)[:11], slice(3, 14)):
            vectors = bank._names
            first = vectors[bank._first_ids[idx]]
            x1_64 = name_input(first, vectors, bank._p_ids[idx], bank._j_ids[idx])
            x1, x2 = bank.rows(idx)
            assert x1.dtype == x2.dtype == np.float32
            np.testing.assert_array_equal(x1, x1_64.astype(np.float32))
            np.testing.assert_array_equal(widen(bank, x1, x2)[1], text64[bank._row_entry[idx]].astype(np.float32))

    def test_keeps_the_columns_its_rows_set(self):
        block = self.make_block()
        enc = default_encoders()
        bank = SampleBank(block.entries, block.class_index, enc)
        names = np.array([enc.name(s) for s in TestSampleBankMemory.names_of(block)])
        records = [e.record for e in block.entries]
        text = dense_text_rows(enc.text, [r.title for r in records], [r.source for r in records])
        np.testing.assert_array_equal(bank.name_columns, np.flatnonzero((names != 0).any(axis=0)))
        np.testing.assert_array_equal(bank.text_columns, np.flatnonzero((text != 0).any(axis=0)))
        assert 0 < bank.name_dim < NAME_DIM and 0 < bank.text_dim < TEXT_DIM
        assert bank._names.shape == (len(names), bank.name_dim)
        x1, x2 = bank.rows(np.arange(bank.n_samples))
        assert x1.shape[1] == 2 * bank.name_dim and x2.shape[1] == bank.text_dim

    def test_a_bank_that_sets_every_column_keeps_its_arrays(self, monkeypatch):
        held = []
        real_drop = SampleBank._drop_unset_columns

        def spy(self, names_set):
            held.append((self._names, self._text_rows._bits, self._text_rows._values))
            real_drop(self, names_set)

        monkeypatch.setattr(SampleBank, "_drop_unset_columns", spy)
        block = self.make_block()
        rng = np.random.default_rng(25)
        # table vectors without a zero, so each name and text row sets every column
        names = TestSampleBankMemory.names_of(block) - {""}
        name_table = {s: rng.normal(size=NAME_DIM) for s in sorted(names)}
        texts = sorted({t for e in block.entries for t in (e.record.title, e.record.source)} - {""})
        enc = default_encoders()
        enc = enc._replace(
            name=TableEncoder(name_table, enc.name, NAME_DIM, "0" * 64),
            text=table_text_encoder({t: rng.normal(size=TEXT_DIM) for t in texts}),
        )
        bank = SampleBank(block.entries, block.class_index, enc)
        assert (bank.name_dim, bank.text_dim) == (NAME_DIM, TEXT_DIM)
        ((names_before, bits_before, values_before),) = held
        assert np.shares_memory(bank._names, names_before)
        assert np.shares_memory(bank._text_rows._bits, bits_before)
        assert np.shares_memory(bank._text_rows._values, values_before)

    def test_forward_batch_reads_bank_rows_without_a_copy(self):
        block = self.make_block()
        bank = SampleBank(block.entries, block.class_index, default_encoders())
        bank.assign_coauthors(np.random.default_rng(15), slice(0, bank.n_samples))
        cfg = ModelConfig(n_classes=block.n_classes, input1_dim=2 * bank.name_dim, input2_dim=bank.text_dim)
        params = ModelParams(cfg, init_model(cfg).flat.astype(np.float32))
        idx = np.arange(5)
        x1, x2 = bank.rows(idx, out=np.empty((idx.size, 2 * bank.name_dim), np.float32))
        _, cache = forward_batch(params, x1, x2, mode="train", rng=np.random.default_rng(16))
        assert cache["x1"] is x1 and cache["x2"] is x2


def text_bank(titles, sources, text_encoder):
    """A bank with one solo-record entry per (title, source), the text
    encoder ``text_encoder``, and as oracle the float32 rows of input two,
    each ``(text(title) + text(source)) / 2``."""
    records = [rec(f"t{k}", "Wei Fang", title=t, source=s) for k, (t, s) in enumerate(zip(titles, sources))]
    class_index = {records[0].authors[0].author_id: 0}
    enc = default_encoders()._replace(text=text_encoder)
    bank = SampleBank([BlockEntry(r, 0) for r in records], class_index, enc)
    return bank, dense_text_rows(text_encoder, titles, sources)


def dense_text_rows(text_encoder, titles, sources):
    """Input two as a float32 matrix, each row summed and halved in float64."""
    rows = [0.5 * (text_encoder(title) + text_encoder(source)) for title, source in zip(titles, sources)]
    return np.array(rows, dtype=np.float32)


def assert_same_bits(x, expected):
    """Equal bit for bit, so -0.0 is told from +0.0."""
    assert x.dtype == expected.dtype == np.float32 and x.shape == expected.shape
    np.testing.assert_array_equal(x.view(np.uint32), expected.view(np.uint32))


def table_text_encoder(table):
    return TableEncoder(table, HashingTextEncoder(), 768, "0" * 64)


class TestPackedTextRows:
    """A bank keeps each text row as its set values; the x2 it rebuilds is
    the dense float32 row of input two, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="abc xyz-Q9", min_size=1, max_size=40).filter(str.strip),
                st.sampled_from(["", "VLDB", "Proc. KDD", "abc"]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_hashed_titles(self, pairs):
        titles, sources = [t for t, _ in pairs], [s for _, s in pairs]
        bank, text32 = text_bank(titles, sources, HashingTextEncoder())
        idx = np.random.default_rng(len(pairs)).permutation(bank.n_samples)
        assert_same_bits(widen(bank, *bank.rows(idx))[1], text32[bank._row_entry[idx]])
        assert_same_bits(widen(bank, *bank.rows(slice(0, bank.n_samples)))[1], text32[bank._row_entry])

    def test_table_vectors_without_a_zero(self):
        rng = np.random.default_rng(21)
        titles, sources = ["first title", "second title", "first title"], ["VLDB", "KDD", "KDD"]
        encoder = table_text_encoder({k: rng.normal(size=768) for k in {*titles, *sources}})
        bank, text32 = text_bank(titles, sources, encoder)
        assert encoder.miss_count == 0
        assert np.count_nonzero(text32.view(np.uint32)) == text32.size
        assert_same_bits(bank.rows(np.arange(bank.n_samples))[1], text32[bank._row_entry])

    def test_table_holding_negative_zeros(self):
        vec = np.random.default_rng(22).normal(size=768)
        vec[1::7] = 0.0
        vec[::3] = -0.0
        # the title and the source both hold -0.0 where vec does, so their mean does too
        encoder = table_text_encoder({"title": vec, "venue": vec.copy(), "other": -vec})
        bank, text32 = text_bank(["title", "title", "other"], ["venue", "", "venue"], encoder)
        assert np.signbit(text32[0, ::3]).all() and (text32[0, ::3] == 0).all()
        assert_same_bits(all_rows(bank)[1], text32[bank._row_entry])

    def test_rows_without_a_zero_cost_at_most_a_32nd_more(self):
        rng = np.random.default_rng(23)
        titles = [f"title {k}" for k in range(40)]
        encoder = table_text_encoder({k: rng.normal(size=768) for k in [*titles, "J."]})
        bank, text32 = text_bank(titles, ["J."] * len(titles), encoder)
        packed = bank._text_rows
        assert packed._values.size == text32.size
        assert packed._bits.nbytes + packed._values.nbytes <= text32.nbytes * 33 / 32

    def test_packed_rows_edge_cases(self):
        rows = np.zeros((5, 13), np.float32)
        rows[1] = np.arange(1, 14)  # no zero; 13 columns pack into 2 bytes
        rows[2, [0, 12]] = -0.0
        rows[3, 5] = np.float32(1e-45)  # the smallest subnormal
        packed = PackedRows(iter(rows), len(rows), 13)
        assert packed._values.size == 13 + 2 + 1
        for idx in ([4, 1, 1, 0, 2, 3], [], [2]):
            idx = np.array(idx, dtype=np.intp)
            assert_same_bits(packed.take(idx), rows[idx])


class TestSampleBankMemory:
    """A bank holds what its rows are built from, not the rows: per entry
    the set values of its text row, per distinct name one vector, per row a
    few indices."""

    # fixed overhead of a bank build besides its arrays: Python objects of
    # the entries, the name strings and the dicts that intern them
    SLACK = 256 * 1024

    def make_block(self, n_records=60):
        """Two authors, ``n_records`` records, omega 6 to 8 from a pool of 12
        co-authors: many rows per entry and few distinct names."""
        rng = np.random.default_rng(5)
        pool = [f"Co Author{k}" for k in range(12)]
        corpus = [
            rec(
                f"r{k:03d}",
                "Wei Fang" if k % 2 else "Wen Fang",
                *rng.choice(pool, size=int(rng.integers(5, 8)), replace=False),
                title=f"title {k} words",
                source=f"venue{k % 7}",
            )
            for k in range(n_records)
        ]
        return build_block(corpus, build_author_registry(corpus), "W Fang")

    @staticmethod
    def names_of(block):
        """Every name string a bank over the block's entries encodes, "" included."""
        names = {""}
        for entry in block.entries:
            forms = [normalize_name(m.display_name) for m in entry.record.authors]
            names |= {f.render() for f in forms} | {f.anv for f in forms}
            names |= {forms[entry.position].first_name, forms[entry.position].anv_first}
        return names

    @staticmethod
    def distinct_names(block):
        return len(TestSampleBankMemory.names_of(block))

    @staticmethod
    def many_names_block(n_records=250):
        """Two authors whose records each list two co-authors nobody else
        has, no two of them sharing an abbreviated form either, their names
        made of a few syllables: over 1,000 distinct names built from a few
        hundred n-grams, few rows per name and one title for every record."""
        syllables = ("ka", "lo", "mi", "nu", "pe", "ri", "so", "tu")
        lasts = [a + b for a in syllables for b in reversed(syllables)]
        # one first name per initial
        firsts = [initial + "an" for initial in "bcdfghjklmnprstv"]
        coauthors = iter(f"{first.title()} {last.title()}" for last in lasts for first in firsts)
        corpus = [
            rec(f"r{k:04d}", "Wei Fang" if k % 2 else "Wen Fang", next(coauthors), next(coauthors), title="one title")
            for k in range(n_records)
        ]
        return build_block(corpus, build_author_registry(corpus), "W Fang")

    def test_no_array_holds_a_float_row_per_sample(self):
        block = self.make_block()
        bank = SampleBank(block.entries, block.class_index, default_encoders())
        assert bank.n_samples >= 12 * len(block.entries)
        for name, value in vars(bank).items():
            if isinstance(value, np.ndarray) and value.ndim == 2 and len(value) == bank.n_samples:
                assert not (np.issubdtype(value.dtype, np.floating) and value.shape[1] > 1), name

    def test_text_encoder_holds_no_vectors_after_a_build(self):
        block = self.make_block()
        enc = default_encoders()
        SampleBank(block.entries, block.class_index, enc)

        def holds_vectors(encoder):
            # an array, or a dict or list holding one; the hash memo holds (bucket, sign) pairs
            for value in vars(encoder).values():
                items = value.values() if isinstance(value, dict) else value if isinstance(value, list) else [value]
                if any(isinstance(item, np.ndarray) and item.size for item in items):
                    return True
            return False

        assert not holds_vectors(enc.text)
        enc.name("Wei Fang")
        assert holds_vectors(enc.name)  # the name cache, which the check must see

    @pytest.mark.parametrize("with_table", [False, True])
    def test_bank_names_are_the_serving_vectors_encoded_uncached(self, with_table):
        block = self.make_block()
        names = self.names_of(block)
        enc = default_encoders()
        hashing = enc.name
        if with_table:
            rng = np.random.default_rng(24)
            # a table holding every other name, so the bank both hits and misses it
            table = {s: rng.normal(size=hashing.dim) for s in sorted(names)[::2]}
            enc = enc._replace(name=TableEncoder(table, hashing, hashing.dim, "0" * 64))
        bank = SampleBank(block.entries, block.class_index, enc)
        if with_table:
            # each missing name looked up once, and none kept in the fallback's cache
            assert enc.name.miss_count == len(names) - len(table)
        assert hashing.calls == 0 and not hashing._cache
        assert len(bank._names) == len(names)
        # the bank keeps the columns some name sets
        vectors = np.array([enc.name(s) for s in names])
        np.testing.assert_array_equal(np.flatnonzero((vectors != 0).any(axis=0)), bank.name_columns)
        assert {row.tobytes() for row in bank._names} == {v[bank.name_columns].tobytes() for v in vectors}

    def test_traced_peak_is_per_entry_and_per_name(self):
        """A block's bank over its train and validation entries, built as
        training builds it: its text costs the set values of each entry's
        text row, and each name it uses is stored once."""
        self.assert_traced_build_within_bound(self.make_block(n_records=400))

    def test_a_cold_build_holds_one_float64_copy_of_many_names(self):
        """With more than a thousand distinct names, a second copy of their
        vectors, such as the name encoder's cache, would not fit the bound."""
        block = self.many_names_block()
        assert self.distinct_names(block) >= 1000
        self.assert_traced_build_within_bound(block)

    def assert_traced_build_within_bound(self, block):
        """A bank over the block's entries, built as training builds it with
        fresh encoders and read once, peaks below the set values of its text
        rows, one float64 vector per distinct name, 64 bytes per row and
        ``SLACK``."""
        enc = default_encoders()
        train_entries, val_entries = block.entries[0::2], block.entries[1::2]
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            bank = SampleBank(train_entries + val_entries, block.class_index, enc)
            bank.rows(np.arange(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        records = [e.record for e in block.entries]
        text32 = dense_text_rows(enc.text, [r.title for r in records], [r.source for r in records])
        # per entry its set values, one bit per column and where its values
        # start; per name its vector, encoded at the encoder's width before
        # the bank drops the columns no name sets
        text_bytes = 4 * np.count_nonzero(text32.view(np.uint32)) + len(records) * (enc.text.dim // 8 + 8)
        bound = text_bytes + self.distinct_names(block) * enc.name.dim * 8 + bank.n_samples * 64 + self.SLACK
        assert peak - before < bound

    def test_train_and_validation_banks_index_one_name_matrix(self, monkeypatch):
        banks = []
        real_init = namelink.training.SampleBank.__init__

        def keep(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            banks.append(self)

        monkeypatch.setattr(namelink.training.SampleBank, "__init__", keep)
        block = separable_block()
        split = split_per_author(block, seed=1)
        result = train_block_model(block, split, default_encoders(), TrainRunConfig(max_epochs=1), SMALL_MODEL)
        assert not result.val_on_train
        # one bank: the train entries, then the validation entries
        (bank,) = banks
        assert len(bank.entry_start) == 1 + len(split.entries(block, Split.TRAIN)) + len(split.entries(block, Split.VAL))
        # each author's records share their co-authors, so the bank uses
        # every name of the block, and each sits in the matrix once
        assert len(bank._names) == TestSampleBankMemory.distinct_names(block)
        assert len(np.unique(bank._names, axis=0)) == len(bank._names)

    def test_training_encodes_each_name_of_the_block_once(self):
        asked = collections.Counter()
        hashing = default_encoders().name

        class CountingEncoder:
            dim = hashing.dim

            def __call__(self, text):
                asked[text] += 1
                return hashing(text)

            def encode(self, text):
                asked[text] += 1
                return hashing.encode(text)

        block = separable_block()
        enc = default_encoders()._replace(name=CountingEncoder())
        result = train_block_model(block, split_per_author(block, seed=1), enc, TrainRunConfig(max_epochs=1), SMALL_MODEL)
        assert not result.val_on_train
        assert len(asked) == TestSampleBankMemory.distinct_names(block)
        assert set(asked.values()) == {1}


class TestEvaluateBankMemory:
    """Scoring a bank holds one slice of float32 rows and at most one
    float32 activation per layer, nothing in float64, no pre-activation and
    no branch output apart from the merge input it is written into."""

    # allocations besides the arrays counted: index arrays, Python objects
    SLACK = 256 * 1024
    # the rows a slice holds, as documented; written out so that a change of
    # EVAL_BATCH fails the growth test instead of moving its bound along
    SLICE = 256

    @staticmethod
    def scored_bank():
        block = TestSampleBankMemory().make_block(n_records=100)
        bank = SampleBank(block.entries, block.class_index, default_encoders())
        bank.assign_coauthors(np.random.default_rng(17), slice(0, bank.n_samples))
        cfg = ModelConfig(n_classes=block.n_classes, input1_dim=2 * bank.name_dim, input2_dim=bank.text_dim)
        params = ModelParams(cfg, init_model(cfg).flat.astype(np.float32))
        _evaluate_bank(params, bank, slice(0, bank.n_samples))  # the first call's one-off allocations are not the bound's
        return bank, params

    @staticmethod
    def traced_peak(params, bank, rows):
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            _evaluate_bank(params, bank, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - before

    def test_traced_peak_is_float32_rows_and_one_activation_per_layer(self):
        bank, params = self.scored_bank()
        cfg = params.config
        assert bank.n_samples >= 4 * EVAL_BATCH
        peak = self.traced_peak(params, bank, slice(0, bank.n_samples))
        row_bytes = 4 * EVAL_BATCH * (cfg.input1_dim + cfg.input2_dim)
        # the merge input, which holds both branch outputs, every merged
        # layer's output and the logits, and the probabilities
        merge = cfg.branch1_hidden[-1] + cfg.branch2_hidden[-1]
        merged_widths = sum(n_out for _, n_out in cfg.layer_shapes()[-len(cfg.merged_hidden) - 1 :])
        activation_bytes = 4 * EVAL_BATCH * (merge + merged_widths + cfg.n_classes)
        assert peak < row_bytes + activation_bytes + self.SLACK

    def test_traced_peak_does_not_grow_past_one_slice(self):
        bank, params = self.scored_bank()
        assert bank.n_samples >= 4 * self.SLICE
        one = self.traced_peak(params, bank, slice(0, self.SLICE))
        four = self.traced_peak(params, bank, slice(0, 4 * self.SLICE))
        # a 256-row slice's float32 inputs alone are about 1.2 MB
        assert four <= one + 64 * 1024

    def test_accuracy_equals_argmax_oracle_over_the_same_slices(self):
        bank, params = self.scored_bank()
        # a range of several slices that neither starts at row 0 nor ends on a slice boundary
        rows = slice(37, bank.n_samples - 11)
        assert rows.stop - rows.start > 2 * EVAL_BATCH and (rows.stop - rows.start) % EVAL_BATCH
        correct = 0
        for start in range(rows.start, rows.stop, EVAL_BATCH):
            stop = min(start + EVAL_BATCH, rows.stop)
            x1, x2 = bank.rows(slice(start, stop))
            probs, _ = forward_batch(params, x1, x2)
            correct += int((probs.argmax(axis=1) == bank.labels[start:stop]).sum())
        _, accuracy = _evaluate_bank(params, bank, rows)
        assert accuracy == correct / (rows.stop - rows.start)


class TestMonitor:
    def test_checkpoint_follows_accuracy_not_loss(self):
        monitor = TrainingMonitor(patience=3)
        assert monitor.observe(1, 1.00, 0.50) is True
        assert monitor.observe(2, 0.90, 0.40) is False  # better loss, worse acc
        assert monitor.observe(3, 0.95, 0.60) is True  # worse loss, better acc
        assert monitor.best_epoch == 3

    def test_ties_do_not_checkpoint(self):
        monitor = TrainingMonitor(patience=5)
        monitor.observe(1, 1.0, 0.7)
        assert monitor.observe(2, 0.9, 0.7) is False

    def test_stops_after_patience_flat_epochs(self):
        monitor = TrainingMonitor(patience=3)
        monitor.observe(1, 1.0, 0.5)
        assert not monitor.should_stop
        monitor.observe(2, 1.0, 0.5)
        monitor.observe(3, 1.0, 0.5)
        assert not monitor.should_stop
        monitor.observe(4, 1.0, 0.5)
        assert monitor.should_stop

    def test_loss_improvement_resets_counter(self):
        monitor = TrainingMonitor(patience=2)
        monitor.observe(1, 1.0, 0.5)
        monitor.observe(2, 1.0, 0.5)
        monitor.observe(3, 0.8, 0.5)  # strict improvement at the brink
        assert not monitor.should_stop
        monitor.observe(4, 0.8, 0.5)
        monitor.observe(5, 0.8, 0.5)
        assert monitor.should_stop


class TestHistoryLines:
    def test_one_json_object_per_epoch_keyed_in_field_order(self):
        history = [EpochStats(1, 0.5, 0.25, 0.75, True), EpochStats(2, 0.125, 1e-10, 1.0, False)]
        assert history_lines(history) == [
            '{"epoch": 1, "train_loss": 0.5, "val_loss": 0.25, "val_accuracy": 0.75, "checkpointed": true}',
            '{"epoch": 2, "train_loss": 0.125, "val_loss": 1e-10, "val_accuracy": 1.0, "checkpointed": false}',
        ]


class TestSeeds:
    def test_repeatable(self):
        assert derive_block_seeds(7, "Y Chen") == derive_block_seeds(7, "Y Chen")

    def test_case_insensitive_key(self):
        assert derive_block_seeds(7, "Y Chen") == derive_block_seeds(7, "y chen")

    def test_varies_with_key_and_master(self):
        base = derive_block_seeds(7, "Y Chen")
        assert derive_block_seeds(7, "Y Wang") != base
        assert derive_block_seeds(8, "Y Chen") != base

    def test_split_and_train_streams_differ(self):
        split_seed, train_seed = derive_block_seeds(7, "Y Chen")
        assert split_seed != train_seed


def separable_block(records_per_author=6):
    corpus = []
    for k in range(records_per_author):
        corpus.append(
            rec(f"x{k}", "Ping Xu", "Jin Tan", "Bo Luo", title=f"storage systems {k}", source="FAST")
        )
        corpus.append(
            rec(f"y{k}", "Pang Xu", "Mei Qiu", "Hua Shi", title=f"protein folding {k}", source="Bioinf.")
        )
    registry = build_author_registry(corpus)
    return build_block(corpus, registry, "P Xu")


SMALL_MODEL = ModelConfig(
    n_classes=2, branch1_hidden=(16,), branch2_hidden=(16,), merged_hidden=(16, 8)
)
FAST = TrainRunConfig(max_epochs=25, patience=10, batch_size=16, seed=5)


class TestTrainBlockModel:
    def test_validation_rows_drawn_once_from_their_stream(self, monkeypatch):
        calls = []
        real_assign = SampleBank.assign_coauthors

        def spy(self, rng, rows):
            state = rng.bit_generator.state
            real_assign(self, rng, rows)
            calls.append((rows, state, self._j_ids.copy()))

        monkeypatch.setattr(namelink.training.SampleBank, "assign_coauthors", spy)
        block = separable_block()
        config = TrainRunConfig(max_epochs=5, patience=10, reassign_interval=2, seed=3)
        result = train_block_model(block, split_per_author(block, seed=1), default_encoders(), config, SMALL_MODEL)
        assert len(result.history) == 5 and not result.val_on_train
        (val, val_state, after_val), *reassigns = calls
        # the validation stream is the third of the run seed's five
        val_seq = np.random.SeedSequence(config.seed).spawn(5)[2]
        assert val_state == np.random.default_rng(val_seq).bit_generator.state
        assert val.stop == len(after_val)
        # epochs 1, 3 and 5 redraw the train rows and no other
        assert len(reassigns) == 3
        for rows, _, j_ids in reassigns:
            assert (rows.start, rows.stop) == (0, val.start)
            np.testing.assert_array_equal(j_ids[val], after_val[val])
        assert len({j_ids[: val.start].tobytes() for *_, j_ids in reassigns}) > 1

    def test_best_params_hold_the_best_epoch_after_training_goes_on(self):
        block = separable_block()
        split = split_per_author(block, seed=1)
        config = TrainRunConfig(max_epochs=12, patience=50, batch_size=16, learning_rate=3e-2, seed=5)
        result = train_block_model(block, split, default_encoders(), config, SMALL_MODEL)
        assert result.best_epoch < len(result.history)
        assert result.best_params.flat is not result.final_params.flat
        assert not np.shares_memory(result.best_params.flat, result.final_params.flat)
        replay = train_block_model(
            block, split, default_encoders(), dataclasses.replace(config, max_epochs=result.best_epoch), SMALL_MODEL
        )
        assert np.array_equal(result.best_params.flat, replay.final_params.flat)
        assert not np.array_equal(result.best_params.flat, result.final_params.flat)

    def test_learns_separable_block_and_reproduces(self):
        block = separable_block()
        split = split_per_author(block, seed=1)
        result = train_block_model(block, split, default_encoders(), FAST, SMALL_MODEL)
        assert result.history
        assert result.history[-1].epoch <= FAST.max_epochs
        assert not result.val_on_train
        assert result.best_epoch >= 1
        assert max(e.val_accuracy for e in result.history) >= 0.9

        again = train_block_model(block, split, default_encoders(), FAST, SMALL_MODEL)
        assert np.array_equal(result.best_params.flat, again.best_params.flat)
        assert [e.val_loss for e in result.history] == [e.val_loss for e in again.history]

    def test_seed_changes_trajectory(self):
        block = separable_block(3)
        split = split_per_author(block, seed=1)
        short = TrainRunConfig(max_epochs=3, patience=10, batch_size=16, seed=5)
        other = TrainRunConfig(max_epochs=3, patience=10, batch_size=16, seed=6)
        a = train_block_model(block, split, default_encoders(), short, SMALL_MODEL)
        b = train_block_model(block, split, default_encoders(), other, SMALL_MODEL)
        assert not np.array_equal(a.final_params.flat, b.final_params.flat)

    def test_model_seed_comes_from_run_seed(self):
        block = separable_block(3)
        split = split_per_author(block, seed=1)
        short = TrainRunConfig(max_epochs=1, patience=10, batch_size=16, seed=5)
        seeded = dataclasses.replace(SMALL_MODEL, seed=12345)
        a = train_block_model(block, split, default_encoders(), short, SMALL_MODEL)
        b = train_block_model(block, split, default_encoders(), short, seeded)
        assert np.array_equal(a.final_params.flat, b.final_params.flat)

    def test_val_on_train_fallback(self):
        corpus = [rec("a1", "Lu Han", "Co One"), rec("b1", "Li Han", "Co Two")]
        registry = build_author_registry(corpus)
        block = build_block(corpus, registry, "L Han")
        split = split_per_author(block, seed=2)
        assert split.counts()[Split.VAL] == 0
        result = train_block_model(
            block, split, default_encoders(), TrainRunConfig(max_epochs=2, seed=1), SMALL_MODEL
        )
        assert result.val_on_train

    def test_no_train_records_rejected(self):
        block = separable_block(2)
        all_val = SplitAssignment(
            {
                author: {key: Split.VAL for key in assignment}
                for author, assignment in split_per_author(block, 1).by_author.items()
            }
        )
        with pytest.raises(TrainingError, match="no TRAIN"):
            train_block_model(block, all_val, default_encoders(), FAST, SMALL_MODEL)

    def test_class_without_train_samples_named(self):
        block = separable_block(2)
        base = split_per_author(block, 1).by_author
        starved = SplitAssignment(
            {
                author: {
                    key: (Split.VAL if author.base_name == "Pang Xu" else value)
                    for key, value in assignment.items()
                }
                for author, assignment in base.items()
            }
        )
        with pytest.raises(TrainingError, match="Pang Xu"):
            train_block_model(block, starved, default_encoders(), FAST, SMALL_MODEL)

    def test_input_dims_come_from_the_encoders(self):
        """A supplied config's input sizes give way to the encoders': it
        trains the model its layer widths give at those sizes."""
        block = separable_block(2)
        split = split_per_author(block, 1)
        run = TrainRunConfig(max_epochs=1, seed=0)
        other = dataclasses.replace(SMALL_MODEL, input1_dim=10, input2_dim=3)
        got = train_block_model(block, split, default_encoders(), run, other).best_params
        want = train_block_model(block, split, default_encoders(), run, SMALL_MODEL).best_params
        assert (got.config.input1_dim, got.config.input2_dim) == (2 * NAME_DIM, TEXT_DIM)
        assert got.config == want.config
        assert got.flat.tobytes() == want.flat.tobytes()

    def test_class_counts_reported(self):
        block = separable_block(3)
        split = split_per_author(block, 1)
        result = train_block_model(
            block, split, default_encoders(), TrainRunConfig(max_epochs=1, seed=0), SMALL_MODEL
        )
        # 2 TRAIN records per author, 3 authors each -> 2*2*3 samples per class
        assert result.class_counts.tolist() == [12, 12]


class TestInputColumns:
    """A block model trains on the input columns its bank's rows set; the
    first-layer rows of the other columns keep their initial weights."""

    CONFIG = TrainRunConfig(max_epochs=12, patience=50, batch_size=16, learning_rate=3e-2, seed=5)

    @staticmethod
    def train_watched(monkeypatch, block, config):
        """Train ``block``, keeping its bank and a copy of the model each
        validation pass scores: the last is the loop's final model."""
        seen = {}
        real_init, real_evaluate = SampleBank.__init__, namelink.training._evaluate_bank

        def keep_bank(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            seen["bank"] = self

        def keep_params(params, bank, rows):
            seen["params"] = params.copy()
            return real_evaluate(params, bank, rows)

        monkeypatch.setattr(SampleBank, "__init__", keep_bank)
        monkeypatch.setattr(namelink.training, "_evaluate_bank", keep_params)
        result = train_block_model(block, split_per_author(block, seed=1), default_encoders(), config, SMALL_MODEL)
        return result, seen["bank"], seen["params"]

    def test_never_set_rows_keep_their_initial_weights(self, monkeypatch):
        result, bank, _ = self.train_watched(monkeypatch, separable_block(), self.CONFIG)
        # best and final are different epochs' parameters
        assert result.best_epoch < len(result.history)
        config = result.best_params.config
        assert (config.input1_dim, config.input2_dim) == (2 * NAME_DIM, TEXT_DIM)
        initial = ModelParams(config, init_model(config).flat.astype(np.float32))
        kept1 = np.concatenate([bank.name_columns, NAME_DIM + bank.name_columns])
        unset1 = np.setdiff1d(np.arange(2 * NAME_DIM), kept1)
        unset2 = np.setdiff1d(np.arange(TEXT_DIM), bank.text_columns)
        assert unset1.size and unset2.size
        assert result.input_columns == {"name": bank.name_dim, "text": bank.text_dim}
        branch2 = len(config.branch1_hidden)
        for params in (result.best_params, result.final_params):
            assert params.weights[0][unset1].tobytes() == initial.weights[0][unset1].tobytes()
            assert params.weights[branch2][unset2].tobytes() == initial.weights[branch2][unset2].tobytes()
            # rows of both halves of input one and of input two trained
            for w, rows in ((0, bank.name_columns), (0, NAME_DIM + bank.name_columns), (branch2, bank.text_columns)):
                assert (params.weights[w][rows] != initial.weights[w][rows]).any()

    def test_full_size_model_scores_full_rows_as_the_trained_model_its_rows(self, monkeypatch):
        """The final full-size model on the bank's rows at the encoders'
        widths agrees with the model the loop trained on the bank's rows;
        it only adds exact zeros, in another float32 order.  A row put back
        at the wrong place, such as the pair half's without its offset,
        fails this."""
        result, bank, trained = self.train_watched(monkeypatch, separable_block(), self.CONFIG)
        assert (trained.config.input1_dim, trained.config.input2_dim) == (2 * bank.name_dim, bank.text_dim)
        x1, x2 = bank.rows(np.arange(bank.n_samples))
        full, _ = forward_batch(result.final_params, *widen(bank, x1, x2))
        kept, _ = forward_batch(trained, x1, x2)
        assert full.dtype == kept.dtype == np.float32
        np.testing.assert_allclose(full, kept, rtol=1e-5, atol=1e-6)

    def test_block_whose_records_set_no_text_column_trains_and_predicts(self):
        """Titles without a word token and empty venues give an all-zero
        input two: the bank keeps one text column, which no row sets."""
        corpus = []
        for k in range(6):
            corpus.append(rec(f"x{k}", "Ping Xu", "Jin Tan", title="-- ??", source=""))
            corpus.append(rec(f"y{k}", "Pang Xu", "Mei Qiu", title="!!!", source=""))
        block = build_block(corpus, build_author_registry(corpus), "P Xu")
        enc = default_encoders()
        config = TrainRunConfig(max_epochs=3, batch_size=16, seed=5)
        result = train_block_model(block, split_per_author(block, seed=1), enc, config, SMALL_MODEL)
        assert result.input_columns["text"] == 1
        assert result.best_params.config.input2_dim == TEXT_DIM
        prediction = predict_author(result.best_params, block.class_index, corpus[0], "Ping Xu", MODE_FULL, enc)
        assert prediction.chosen in block.class_index
        assert np.isfinite(prediction.scores).all()


class TestTrainRunConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_epochs": 0},
            {"patience": 0},
            {"reassign_interval": 0},
            {"batch_size": 0},
            {"learning_rate": 0.0},
            # `rate <= 0` is false for both, so neither is caught by a sign test
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainRunConfig(**kwargs)
