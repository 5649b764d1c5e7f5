import pytest

from namelink.blocking import (
    BlockingError,
    block_stats,
    build_block,
    corpus_stats,
    render_block_stats,
    render_corpus_stats,
)
from namelink.names import build_author_registry, normalize_name
from namelink.records import AuthorMention, BibRecord


def rec(key, *names):
    return BibRecord(
        record_key=key,
        kind="article",
        title=f"title {key}",
        source="J.",
        year=2010,
        authors=tuple(AuthorMention.from_raw(n) for n in names),
    )


# Hand-counted corpus: three "Y Chen" authors, a homonym pair on "Bing Li",
# two bystanders.
CORPUS = [
    rec("r1", "Yan Chen", "Ming Zhao", "Lei Wang"),
    rec("r2", "Yu Chen", "Yan Chen", "Bing Li 0001"),
    rec("r3", "Y Chen", "Ming Zhao"),
    rec("r4", "Bing Li 0001", "Bing Li 0002", "Lei Wang"),
    rec("r5", "Yan Chen", "Yu Chen", "Y Chen"),
    rec("r6", "Ming Zhao", "Lei Wang"),
]


@pytest.fixture(scope="module")
def registry():
    return build_author_registry(CORPUS)


def atomic_keys(registry):
    """Case-folded atomic variate of every registered author: the block keys."""
    return {normalize_name(a.base_name).anv.casefold() for a in registry.authors}


class TestBuildBlock:
    def test_membership_and_positions(self, registry):
        block = build_block(CORPUS, registry, "Y Chen")
        got = [(e.record.record_key, e.position) for e in block.entries]
        assert got == [
            ("r1", 0),
            ("r2", 0),
            ("r2", 1),
            ("r3", 0),
            ("r5", 0),
            ("r5", 1),
            ("r5", 2),
        ]

    def test_entry_target_accessor(self, registry):
        block = build_block(CORPUS, registry, "Y Chen")
        assert block.entries[2].target.display_name == "Yan Chen"

    def test_class_order_is_first_appearance(self, registry):
        block = build_block(CORPUS, registry, "Y Chen")
        assert [a.base_name for a in block.authors] == ["Yan Chen", "Yu Chen", "Y Chen"]
        assert block.class_index[block.authors[1]] == 1
        assert block.n_classes == 3

    def test_rebuild_is_deterministic(self, registry):
        a = build_block(CORPUS, registry, "Y Chen")
        b = build_block(CORPUS, registry, "Y Chen")
        assert a.authors == b.authors
        assert a.entries == b.entries

    def test_lookup_case_insensitive(self, registry):
        assert build_block(CORPUS, registry, "y chen").n_classes == 3
        assert build_block(CORPUS, registry, "Y CHEN").n_classes == 3

    def test_display_variate_keeps_original_casing(self, registry):
        assert build_block(CORPUS, registry, "y chen").display_variate == "Y Chen"

    def test_full_name_variate_selects_one_author(self, registry):
        block = build_block(CORPUS, registry, "Yan Chen")
        assert [a.base_name for a in block.authors] == ["Yan Chen"]
        assert len(block.entries) == 3

    def test_homonym_pair_are_distinct_classes(self, registry):
        block = build_block(CORPUS, registry, "B Li")
        assert [(a.base_name, a.homonym_index) for a in block.authors] == [
            ("Bing Li", 1),
            ("Bing Li", 2),
        ]
        got = [(e.record.record_key, e.position) for e in block.entries]
        assert got == [("r2", 2), ("r4", 0), ("r4", 1)]

    def test_unknown_variate_raises(self, registry):
        with pytest.raises(BlockingError):
            build_block(CORPUS, registry, "Q Nobody")

    def test_atomic_blocks_partition_all_mentions(self, registry):
        all_mentions = {
            (r.record_key, pos) for r in CORPUS for pos in range(r.n_authors)
        }
        seen: list[tuple[str, int]] = []
        for key in atomic_keys(registry):
            block = build_block(CORPUS, registry, key)
            seen.extend((e.record.record_key, e.position) for e in block.entries)
        assert len(seen) == len(all_mentions)
        assert set(seen) == all_mentions


class TestBlockStats:
    def test_hand_counts_y_chen(self, registry):
        stats = block_stats(build_block(CORPUS, registry, "Y Chen"))
        assert stats.uta == 3
        assert stats.rcd == 4
        # co-authors seen from the 7 entries: Ming Zhao, Lei Wang, Bing Li,
        # plus each Chen seen from another Chen's position
        assert stats.uca == 6
        assert stats.uan == 3
        assert stats.r2a == 1  # r2 carries two Y-Chen authors
        assert stats.r3a == 1  # r5 carries three

    def test_hand_counts_b_li(self, registry):
        stats = block_stats(build_block(CORPUS, registry, "B Li"))
        assert stats.uta == 2
        assert stats.rcd == 2
        assert stats.uca == 4  # Yu Chen, Yan Chen, Lei Wang, Bing Li
        assert stats.uan == 1  # the homonym pair shares one name
        assert stats.r2a == 2  # r2 (two Chens) and r4 (two Bing Lis)
        assert stats.r3a == 0

    def test_uan_never_exceeds_uta(self, registry):
        for key in atomic_keys(registry):
            stats = block_stats(build_block(CORPUS, registry, key))
            assert stats.uan <= stats.uta

    def test_singleton_block(self, registry):
        stats = block_stats(build_block(CORPUS, registry, "M Zhao"))
        assert stats.uta == 1
        assert stats.rcd == 3
        assert stats.uca == 3  # Yan Chen, Lei Wang, Y Chen


class TestCorpusStats:
    def test_hand_counts(self):
        stats = corpus_stats(CORPUS)
        assert stats.records == 6
        assert stats.authors == 7
        assert stats.names == 6
        assert stats.variates == 4

    def test_accepts_generator(self):
        assert corpus_stats(iter(CORPUS)).records == 6


class TestRendering:
    def test_corpus_rows(self):
        text = render_corpus_stats(corpus_stats(CORPUS))
        assert "# of records\t6" in text
        assert "# of unique authors\t7" in text
        assert "# of unique author names\t6" in text
        assert "# of unique atomic name variates\t4" in text

    def test_block_rows(self, registry):
        block = build_block(CORPUS, registry, "Y Chen")
        text = render_block_stats(block, block_stats(block))
        assert "# ANV\tY Chen" in text
        assert "# UTA\t3" in text
        assert "# RCD\t4" in text
        assert "# R3A\t1" in text
