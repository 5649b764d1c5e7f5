import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from namelink import predict
from namelink.encoders import default_encoders, name_input
from namelink.model import (
    ModelConfig,
    ModelParams,
    forward_batch,
    init_model,
    load_checkpoint,
    save_checkpoint,
    softmax,
)
from namelink.names import build_author_registry, normalize_name
from namelink.predict import (
    AGGREGATIONS,
    PredictionError,
    Route,
    RouteKind,
    forward_batched,
    predict_author,
    render_prediction,
    route_name,
)
from namelink.records import AuthorId, AuthorMention, BibRecord
from namelink.training import MODE_ANV, MODE_FULL


def rec(key, *names, title="words", source="J."):
    return BibRecord(
        record_key=key,
        kind="article",
        title=title,
        source=source,
        year=2012,
        authors=tuple(AuthorMention.from_raw(n) for n in names),
    )


ROUTING_CORPUS = [
    rec("r1", "Yan Chen", "Solo Person"),
    rec("r2", "Yu Chen", "Bing Li 0001"),
    rec("r3", "Bing Li 0002", "Other Author"),
]


@pytest.fixture(scope="module")
def registry():
    return build_author_registry(ROUTING_CORPUS)


class TestRouting:
    def test_unknown_name_is_new(self, registry):
        route = route_name(registry, "Completely Unknown")
        assert route.kind is RouteKind.NEW
        assert route.author is None
        assert route.candidates == frozenset()

    def test_single_candidate_is_unique(self, registry):
        route = route_name(registry, "Solo Person")
        assert route.kind is RouteKind.UNIQUE
        assert route.author == AuthorId("Solo Person", 0)

    def test_abbreviated_form_of_unique_author(self, registry):
        route = route_name(registry, "S Person")
        assert route.kind is RouteKind.UNIQUE
        assert route.author == AuthorId("Solo Person", 0)

    def test_shared_variate_is_ambiguous(self, registry):
        route = route_name(registry, "Y Chen")
        assert route.kind is RouteKind.AMBIGUOUS
        assert route.variate_key == "y chen"
        assert len(route.candidates) == 2
        assert {a.base_name for a in route.candidates} == {"Yan Chen", "Yu Chen"}

    def test_homonym_full_name_is_ambiguous(self, registry):
        route = route_name(registry, "Bing Li")
        assert route.kind is RouteKind.AMBIGUOUS
        assert route.variate_key == "b li"
        assert len(route.candidates) == 2
        assert {a.homonym_index for a in route.candidates} == {1, 2}

    def test_case_folded_lookup(self, registry):
        assert route_name(registry, "yan chen").kind is RouteKind.UNIQUE
        assert route_name(registry, "y CHEN").kind is RouteKind.AMBIGUOUS

    def test_atomic_variate_that_is_not_its_own_anv_names_its_block(self):
        # "ß" uppercases to "SS", so the registry's variate of both authors is
        # "SS Li", while the anv of the name "SS Li" is "S Li"
        registry = build_author_registry([rec("s1", "ßen Li"), rec("s2", "ßa Li")])
        route = route_name(registry, "SS Li")
        assert route.kind is RouteKind.AMBIGUOUS
        assert route.variate_key == "ss li"
        assert registry.display_variate(route.variate_key) == "SS Li"
        assert {a.base_name for a in route.candidates} == {"ßen Li", "ßa Li"}

    def test_default_route_is_empty(self):
        route = Route(RouteKind.NEW)
        assert route.candidates == frozenset()
        assert route.variate_key is None


# full names shared by several authors, "0001"-style homonym suffixes, case
# and period variants, and atomic-variate forms of the same names
PRINTED_NAMES = st.builds(
    "{}{}{}".format,
    st.sampled_from(["Yan ", "yan ", "Yu ", "Y ", "Y. ", "Ya-Ni "]),
    st.sampled_from(["Chen", "CHEN", "Li"]),
    st.sampled_from(["", " 0001", " 0002"]),
)


class TestRoutingProperty:
    @staticmethod
    def oracle(authors, query):
        """The authors whose full or atomic variate key equals the query's
        key, found by comparing against every author."""
        try:
            key = normalize_name(query).key()
        except ValueError:
            return frozenset()
        matched = set()
        for author in authors:
            name = normalize_name(author.base_name)
            if key in (name.key(), name.anv.casefold()):
                matched.add(author)
        return frozenset(matched)

    @given(
        st.lists(st.lists(PRINTED_NAMES, min_size=1, max_size=3), min_size=1, max_size=6),
        st.lists(PRINTED_NAMES | st.sampled_from(["Nobody Known", "...", "Y Wang"]), min_size=1, max_size=6),
    )
    def test_matches_brute_force_oracle(self, author_lists, queries):
        corpus = [rec(f"k{i}", *names) for i, names in enumerate(author_lists)]
        registry = build_author_registry(corpus)
        authors = {m.author_id for r in corpus for m in r.authors}
        for query in queries:
            want = self.oracle(authors, query)
            route = route_name(registry, query)
            assert route.candidates == want
            if not want:
                assert (route.kind, route.author, route.variate_key) == (RouteKind.NEW, None, None)
            elif len(want) == 1:
                assert (route.kind, route.author, route.variate_key) == (RouteKind.UNIQUE, *want, None)
            else:
                assert route.kind is RouteKind.AMBIGUOUS and route.author is None
                assert route.variate_key == normalize_name(query).anv.casefold()


CLASSES = [AuthorId("Wei Fan", 0), AuthorId("Wen Fan", 0), AuthorId("W Fan", 0)]
CLASS_INDEX = {a: i for i, a in enumerate(CLASSES)}
SMALL = ModelConfig(
    n_classes=3, branch1_hidden=(12,), branch2_hidden=(12,), merged_hidden=(12,), dropout_rate=0.0
)


def brute_force(params, record, target_name, variate_mode, encoders, aggregation):
    """Re-derive the scores pair by pair, building each pair's input inline."""
    forms = [normalize_name(m.display_name) for m in record.authors]
    forms.append(normalize_name(target_name))
    if variate_mode == MODE_FULL:
        pool = [f.render() for f in forms]
        first = forms[-1].first_name
    else:
        pool = [f.anv for f in forms]
        first = forms[-1].anv_first
    per_pair = []
    for p, j in itertools.combinations(range(len(pool)), 2):
        x1 = np.concatenate([encoders.name(first), 0.5 * (encoders.name(pool[p]) + encoders.name(pool[j]))])
        x2 = 0.5 * (encoders.text(record.title) + encoders.text(record.source))
        probs, _ = forward_batch(params, x1[None, :], x2[None, :])
        per_pair.append(probs[0])
    stacked = np.stack(per_pair)
    return stacked.sum(axis=0) if aggregation == "sum" else stacked.max(axis=0)


class TestPredictAuthor:
    def test_pool_and_pair_count(self):
        params = init_model(SMALL)
        record = rec("k", "Wei Fan", "Jia Luo", "Ming Xie")
        pred = predict_author(params, CLASS_INDEX, record, "W Fan", MODE_FULL, default_encoders())
        assert pred.pool == ("Wei Fan", "Jia Luo", "Ming Xie", "W Fan")
        assert pred.pair_count == 6  # C(4, 2)

    @pytest.mark.parametrize("omega", [1, 2, 3, 4, 5])
    def test_pair_count_law(self, omega):
        params = init_model(SMALL)
        names = ["Wei Fan"] + [f"Co Author{k}" for k in range(omega - 1)]
        pred = predict_author(
            params, CLASS_INDEX, rec("k", *names), "W Fan", MODE_ANV, default_encoders()
        )
        n = omega + 1
        assert len(pred.pool) == n
        assert pred.pair_count == n * (n - 1) // 2

    def test_duplicate_pool_names_kept(self):
        params = init_model(SMALL)
        pred = predict_author(
            params, CLASS_INDEX, rec("k", "Wei Fan"), "Wei Fan", MODE_FULL, default_encoders()
        )
        assert pred.pool == ("Wei Fan", "Wei Fan")
        assert pred.pair_count == 1

    def test_anv_mode_abbreviates_pool(self):
        params = init_model(SMALL)
        record = rec("k", "Wei Fan", "Jia Luo")
        pred = predict_author(params, CLASS_INDEX, record, "Wen Fan", MODE_ANV, default_encoders())
        assert pred.pool == ("W Fan", "J Luo", "W Fan")

    @pytest.mark.parametrize("aggregation", ["sum", "max"])
    @pytest.mark.parametrize("mode", [MODE_FULL, MODE_ANV])
    def test_matches_brute_force(self, aggregation, mode):
        enc = default_encoders()
        rng = np.random.default_rng(31)
        for trial in range(12):
            params = init_model(dataclasses.replace(SMALL, seed=trial))
            omega = int(rng.integers(1, 6))
            names = [f"Aa Bb{rng.integers(100)}" for _ in range(omega)]
            record = rec(f"t{trial}", *names, title=f"paper {trial}", source="X")
            pred = predict_author(params, CLASS_INDEX, record, "Wei Fan", mode, enc, aggregation)
            want = brute_force(params, record, "Wei Fan", mode, enc, aggregation)
            np.testing.assert_allclose(pred.scores, want, atol=1e-10)
            assert pred.chosen == CLASSES[int(np.argmax(want))]

    @pytest.mark.parametrize("aggregation", ["sum", "max"])
    def test_pool_beyond_one_chunk_matches_brute_force(self, aggregation, monkeypatch):
        """omega = 95 gives C(96, 2) = 4560 pairs, more than one chunk takes."""
        calls = []

        def counting_softmax(logits):
            calls.append(logits.shape[0])
            return softmax(logits)

        # each chunk of pairs ends in one softmax over its rows
        monkeypatch.setattr(predict, "softmax", counting_softmax)
        enc = default_encoders()
        params = init_model(SMALL)
        names = ["Wei Fan"] + [f"Co Author{k}" for k in range(94)]
        record = rec("big", *names, title="a long author list", source="X")
        pred = predict_author(params, CLASS_INDEX, record, "W Fan", MODE_FULL, enc, aggregation)
        assert pred.pair_count == 4560
        assert calls == [predict.PAIR_CHUNK, 4560 - predict.PAIR_CHUNK]
        want = brute_force(params, record, "W Fan", MODE_FULL, enc, aggregation)
        np.testing.assert_allclose(pred.scores, want, atol=1e-10)
        assert pred.chosen == CLASSES[int(np.argmax(want))]

    def test_author_order_invariance(self):
        """Same unordered pair set regardless of how the record lists names."""
        enc = default_encoders()
        params = init_model(SMALL)
        names = ["Wei Fan", "Jia Luo", "Ming Xie", "Hong Su"]
        base = predict_author(params, CLASS_INDEX, rec("k", *names), "W Fan", MODE_FULL, enc)
        flipped = predict_author(
            params, CLASS_INDEX, rec("k", *reversed(names)), "W Fan", MODE_FULL, enc
        )
        np.testing.assert_allclose(base.scores, flipped.scores, atol=1e-10)
        assert base.chosen == flipped.chosen

    def test_sum_dominates_max(self):
        params = init_model(SMALL)
        pred_sum = predict_author(
            params, CLASS_INDEX, rec("k", "Wei Fan", "Jia Luo", "Ming Xie"), "W Fan", MODE_FULL,
            default_encoders(), "sum",
        )
        pred_max = predict_author(
            params, CLASS_INDEX, rec("k", "Wei Fan", "Jia Luo", "Ming Xie"), "W Fan", MODE_FULL,
            default_encoders(), "max",
        )
        assert np.all(pred_sum.scores >= pred_max.scores - 1e-12)

    def test_uniform_scores_fall_to_lowest_index(self):
        params = ModelParams(SMALL, np.zeros(SMALL.n_params))
        pred = predict_author(
            params, CLASS_INDEX, rec("k", "Wei Fan", "Jia Luo"), "W Fan", MODE_FULL, default_encoders()
        )
        np.testing.assert_allclose(pred.scores, pred.scores[0])
        assert pred.chosen == CLASSES[0]
        assert pred.ranked[0] == CLASSES[0]

    def test_ranking_sorted_by_score(self):
        params = init_model(SMALL)
        pred = predict_author(
            params, CLASS_INDEX, rec("k", "Wei Fan", "Jia Luo"), "W Fan", MODE_FULL, default_encoders()
        )
        by_index = {a: pred.scores[CLASS_INDEX[a]] for a in CLASSES}
        got = [by_index[a] for a in pred.ranked]
        assert got == sorted(got, reverse=True)
        assert pred.chosen == pred.ranked[0]

    def test_float64_checkpoint_scores_unchanged(self, tmp_path):
        """A float64 checkpoint still predicts in float64, with the scores the
        float64-only predictor gave for this model and record."""
        params = init_model(dataclasses.replace(SMALL, seed=31))
        rng = np.random.default_rng(31)
        for b in params.biases:
            b[...] = rng.normal(0.0, 0.3, size=b.shape)
        save_checkpoint(tmp_path / "m.npz", params, CLASSES, {"master_seed": 31, "encoders": {}})
        bundle = load_checkpoint(tmp_path / "m.npz")
        assert bundle.params.flat.dtype == np.float64
        record = rec("k", "Wei Fan", "Jia Luo", "Ming Xie", title="Sparse codes for name pairs", source="J. Names")
        expected = {
            (MODE_FULL, "sum"): [1.130889371938535, 1.2980248680645694, 3.5710857599968957],
            (MODE_ANV, "max"): [0.19920364508631513, 0.2307309442693033, 0.5950524372279605],
        }
        for (mode, aggregation), scores in expected.items():
            pred = predict_author(
                bundle.params, CLASS_INDEX, record, "W Fan", mode, default_encoders(), aggregation=aggregation
            )
            assert pred.scores.dtype == np.float64
            np.testing.assert_allclose(pred.scores, scores, rtol=1e-12, atol=0)

    def test_validation_errors(self):
        params = init_model(SMALL)
        record = rec("k", "Wei Fan")
        enc = default_encoders()
        with pytest.raises(PredictionError):
            predict_author(params, CLASS_INDEX, record, "W Fan", "BOTH", enc)
        with pytest.raises(PredictionError):
            predict_author(params, CLASS_INDEX, record, "W Fan", MODE_FULL, enc, "mean")
        with pytest.raises(PredictionError):
            predict_author(params, dict(list(CLASS_INDEX.items())[:2]), record, "W Fan", MODE_FULL, enc)


TOPOLOGIES = {
    "default": {},
    "two-layer": {"branch1_hidden": (24, 16), "branch2_hidden": (20, 12), "merged_hidden": (18, 10)},
}


def pool_text_row():
    """Input two of one record, as a one-row matrix."""
    enc = default_encoders()
    return np.atleast_2d(0.5 * (enc.text("pairs of names") + enc.text("Journal")))


class TestForwardBatched:
    """The factored pool pass equals the plain forward pass on materialised
    pair rows."""

    @pytest.mark.parametrize("n_names", [2, 3, 17, 96])
    @pytest.mark.parametrize("topology", list(TOPOLOGIES))
    def test_matches_forward_batch_on_materialised_rows(self, topology, n_names):
        config = ModelConfig(n_classes=4, dropout_rate=0.0, seed=n_names, **TOPOLOGIES[topology])
        params = init_model(config)
        rng = np.random.default_rng(n_names)
        for b in params.biases:
            b[...] = rng.normal(0.0, 0.3, size=b.shape)
        dim = config.input1_dim // 2
        first = rng.normal(size=dim)
        pool = rng.normal(size=(n_names, dim))
        text = pool_text_row()

        got = forward_batched(params, first, pool, text)

        p, j = np.triu_indices(n_names, k=1)
        want, _ = forward_batch(params, name_input(first, pool, p, j), np.repeat(text, p.size, axis=0))
        assert got.shape == (n_names * (n_names - 1) // 2, config.n_classes)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("topology", list(TOPOLOGIES))
    def test_float32_matches_float32_forward_batch(self, topology):
        config = ModelConfig(n_classes=4, dropout_rate=0.0, seed=5, **TOPOLOGIES[topology])
        params = ModelParams(config, init_model(config).flat.astype(np.float32))
        rng = np.random.default_rng(5)
        for b in params.biases:
            b[...] = rng.normal(0.0, 0.3, size=b.shape)
        dim = config.input1_dim // 2
        first = rng.normal(size=dim)
        pool = rng.normal(size=(17, dim))
        text = pool_text_row()

        got = forward_batched(params, first, pool, text)

        p, j = np.triu_indices(17, k=1)
        want, _ = forward_batch(params, name_input(first, pool, p, j), np.repeat(text, p.size, axis=0))
        assert got.dtype == want.dtype == np.float32
        # float32 rounding of two summation orders, on probabilities in [0, 1]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)

    def test_input_dims_checked(self):
        params = init_model(SMALL)
        text = np.zeros((1, SMALL.input2_dim))
        with pytest.raises(ValueError):
            forward_batched(params, np.zeros(200), np.zeros((3, 199)), text)
        with pytest.raises(ValueError):
            forward_batched(params, np.zeros(200), np.zeros((3, 200)), np.zeros((2, SMALL.input2_dim)))


class TestPairIndices:
    def test_equals_triu_indices(self):
        for n in range(161):
            got, want = predict.pair_indices(n), np.triu_indices(n, k=1)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("n_names", [2, 17, 96])
    def test_scores_byte_equal_to_triu_indices_path(self, n_names, monkeypatch):
        params = init_model(dataclasses.replace(SMALL, seed=n_names))
        rng = np.random.default_rng(n_names)
        for b in params.biases:
            b[...] = rng.normal(0.0, 0.3, size=b.shape)
        names = ["Wei Fan"] + [f"Co Author{k}" for k in range(n_names - 2)]
        record = rec("k", *names, title="pair order", source="X")
        enc = default_encoders()
        for aggregation in AGGREGATIONS:
            got = predict_author(params, CLASS_INDEX, record, "W Fan", MODE_FULL, enc, aggregation)
            with monkeypatch.context() as m:
                m.setattr(predict, "pair_indices", lambda n: np.triu_indices(n, k=1))
                want = predict_author(params, CLASS_INDEX, record, "W Fan", MODE_FULL, enc, aggregation)
            assert got.pair_count == n_names * (n_names - 1) // 2
            assert got.scores.dtype == want.scores.dtype
            assert got.scores.tobytes() == want.scores.tobytes()


class TestRendering:
    def test_render_lines(self):
        params = init_model(SMALL)
        pred = predict_author(
            params, CLASS_INDEX, rec("k", "Wei Fan", "Jia Luo"), "W Fan", MODE_FULL, default_encoders()
        )
        text = render_prediction(pred)
        assert "target\tW Fan" in text
        assert "pairs\t3" in text
        assert "rank 3\t" in text
        assert "rank 4\t" not in text
        assert text.endswith(f"chosen\t{pred.chosen.render()}")
