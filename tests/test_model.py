import dataclasses
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from namelink.model import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_CHUNK,
    ADAM_EPS,
    AdamState,
    CheckpointError,
    ModelConfig,
    ModelParams,
    adam_step,
    class_weights,
    forward_batch,
    init_adam_state,
    init_model,
    join_input_rows,
    load_checkpoint,
    loss_and_gradients_batch,
    save_checkpoint,
    split_input_rows,
)
from namelink.encoders import default_encoders
from namelink.records import AuthorId

TINY = ModelConfig(
    n_classes=3,
    input1_dim=6,
    input2_dim=4,
    branch1_hidden=(5,),
    branch2_hidden=(4,),
    merged_hidden=(5, 3),
    dropout_rate=0.0,
)
# what save_checkpoint requires in a checkpoint's extra
RUN_FIELDS = {"master_seed": 0, "encoders": {}}


def random_inputs(config, batch, seed=0):
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=(batch, config.input1_dim))
    x2 = rng.normal(size=(batch, config.input2_dim))
    return x1, x2


class TestConfig:
    def test_default_input_dims_are_the_default_encoders(self):
        cfg, enc = ModelConfig(n_classes=2), default_encoders()
        assert (cfg.input1_dim, cfg.input2_dim) == (2 * enc.name.dim, enc.text.dim)

    def test_param_count_matches_shape_arithmetic(self):
        # recount by hand: each layer holds n_in*n_out weights and n_out biases
        cfg = ModelConfig(n_classes=7, input1_dim=400, input2_dim=768)
        expected = (
            (400 * 256 + 256)
            + (768 * 256 + 256)
            + (512 * 256 + 256)
            + (256 * 128 + 128)
            + (128 * 7 + 7)
        )
        assert cfg.n_params == expected
        assert init_model(cfg).flat.size == expected

    def test_round_trip_dict(self):
        """The checkpoint codec: ``asdict`` through JSON and back through
        the constructor, which turns the stored lists into tuples."""
        cfg = ModelConfig(n_classes=5, branch1_hidden=(10, 20), dropout_rate=0.25, seed=9)
        assert ModelConfig(**json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_classes": 0},
            {"n_classes": 2, "input1_dim": 0},
            {"n_classes": 2, "branch1_hidden": (0,)},
            {"n_classes": 2, "dropout_rate": 1.0},
            {"n_classes": 2, "dropout_rate": -0.1},
            # every stack holds at least one layer
            {"n_classes": 2, "branch1_hidden": ()},
            {"n_classes": 2, "branch2_hidden": ()},
            {"n_classes": 2, "merged_hidden": ()},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)


class TestInit:
    def test_seed_reproducible(self):
        a = init_model(ModelConfig(n_classes=3, seed=5))
        b = init_model(ModelConfig(n_classes=3, seed=5))
        np.testing.assert_array_equal(a.flat, b.flat)
        c = init_model(ModelConfig(n_classes=3, seed=6))
        assert not np.array_equal(a.flat, c.flat)

    def test_biases_start_zero(self):
        params = init_model(TINY)
        for b in params.biases:
            assert np.all(b == 0.0)

    def test_weight_scale_tracks_fan_in(self):
        cfg = ModelConfig(n_classes=4, input1_dim=400, input2_dim=768, seed=3)
        params = init_model(cfg)
        for w in params.weights:
            std = w.std()
            want = math.sqrt(2.0 / w.shape[0])
            assert 0.7 * want < std < 1.3 * want

    def test_views_alias_flat_buffer(self):
        params = init_model(TINY)
        params.weights[0][0, 0] = 123.0
        assert 123.0 in params.flat

    def test_copy_is_independent(self):
        params = init_model(TINY)
        clone = params.copy()
        clone.flat[:] = 0.0
        assert params.flat.any()


class TestForward:
    def test_hand_computed_network(self):
        """Every weight set by hand; the expectation is pure-Python math."""
        cfg = ModelConfig(
            n_classes=2,
            input1_dim=2,
            input2_dim=2,
            branch1_hidden=(2,),
            branch2_hidden=(2,),
            merged_hidden=(2,),
            dropout_rate=0.0,
        )
        params = ModelParams(cfg, np.zeros(cfg.n_params))
        params.weights[0][...] = [[1.0, -1.0], [0.5, 2.0]]
        params.biases[0][...] = [0.1, -0.2]
        params.weights[1][...] = [[2.0, 0.0], [-1.0, 1.0]]
        params.biases[1][...] = [0.0, 0.5]
        params.weights[2][...] = [[0.5, -0.5], [0.25, 0.5], [-1.0, 0.1], [1.0, 1.0]]
        params.biases[2][...] = [0.0, 0.1]
        params.weights[3][...] = [[1.0, 2.0], [3.0, -1.0]]
        params.biases[3][...] = [0.05, -0.05]

        # branch one: relu([2.1, 2.8]); branch two: relu([2.0, -0.5])
        # merged: relu([-0.25, 0.65]) = [0, 0.65]
        # logits: [0.65*3 + 0.05, 0.65*(-1) - 0.05] = [2.0, -0.7]
        e0, e1 = math.exp(2.0), math.exp(-0.7)
        expect = [e0 / (e0 + e1), e1 / (e0 + e1)]

        probs, cache = forward_batch(params, np.array([[1.0, 2.0]]), np.array([[0.5, -1.0]]))
        assert cache is None
        np.testing.assert_allclose(probs[0], expect, rtol=1e-12)

    def test_zero_params_give_uniform_probs(self):
        params = ModelParams(TINY, np.zeros(TINY.n_params))
        x1, x2 = random_inputs(TINY, 8)
        probs, _ = forward_batch(params, x1, x2)
        np.testing.assert_allclose(probs, 1.0 / TINY.n_classes, atol=1e-12)

    def test_rows_sum_to_one(self):
        params = init_model(TINY)
        x1, x2 = random_inputs(TINY, 16, seed=2)
        probs, _ = forward_batch(params, x1, x2)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert (probs > 0.0).all()

    def test_output_bias_shift_invariance(self):
        params = init_model(TINY)
        x1, x2 = random_inputs(TINY, 5, seed=3)
        base, _ = forward_batch(params, x1, x2)
        shifted = params.copy()
        shifted.biases[-1][...] += 7.5
        moved, _ = forward_batch(shifted, x1, x2)
        np.testing.assert_allclose(base, moved, atol=1e-9)

    def test_single_matches_batch_row(self):
        params = init_model(TINY)
        x1, x2 = random_inputs(TINY, 4, seed=4)
        batch, _ = forward_batch(params, x1, x2)
        one, _ = forward_batch(params, x1[2:3], x2[2:3])
        np.testing.assert_array_equal(one[0], batch[2])

    def test_train_mode_without_dropout_matches_infer(self):
        params = init_model(TINY)
        x1, x2 = random_inputs(TINY, 6, seed=5)
        infer, _ = forward_batch(params, x1, x2, mode="infer")
        train, cache = forward_batch(params, x1, x2, mode="train", rng=None)
        np.testing.assert_array_equal(infer, train)
        assert cache is not None and cache["mask_last"] is None

    def test_train_cache_holds_no_pre_activations(self):
        """Each ReLU runs in place on its pre-activation: the cache keeps one
        array per layer, and backprop masks with the activations."""
        params = init_model(TINY)
        x1, x2 = random_inputs(TINY, 6, seed=5)
        _, cache = forward_batch(params, x1, x2, mode="train", rng=None)
        assert not [key for key in cache if key.endswith("_zs")]
        for key in ("b1_acts", "b2_acts", "m_acts"):
            assert all((act >= 0.0).all() for act in cache[key][1:])


class TestLossAndGradients:
    def test_zero_params_loss_is_log_n_classes(self):
        params = ModelParams(TINY, np.zeros(TINY.n_params))
        x1, x2 = random_inputs(TINY, 10)
        labels = np.arange(10) % TINY.n_classes
        weights = np.ones(10)
        loss, _ = loss_and_gradients_batch(params, x1, x2, labels, weights)
        assert loss == pytest.approx(math.log(TINY.n_classes), abs=1e-9)

    def test_sample_weights_scale_loss_linearly(self):
        params = init_model(TINY)
        x1, x2 = random_inputs(TINY, 7, seed=6)
        labels = np.arange(7) % TINY.n_classes
        base, gbase = loss_and_gradients_batch(params, x1, x2, labels, np.ones(7))
        doubled, gdoubled = loss_and_gradients_batch(params, x1, x2, labels, 2.0 * np.ones(7))
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)
        np.testing.assert_allclose(gdoubled, 2.0 * gbase, rtol=1e-12)

    def test_batch_mean_of_singles(self):
        params = init_model(TINY)
        x1, x2 = random_inputs(TINY, 3, seed=7)
        labels = np.array([0, 2, 1])
        weights = np.array([1.0, 0.5, 2.0])
        batch_loss, batch_grad = loss_and_gradients_batch(params, x1, x2, labels, weights)
        singles = [
            loss_and_gradients_batch(params, x1[i : i + 1], x2[i : i + 1], labels[i : i + 1], weights[i : i + 1])
            for i in range(3)
        ]
        assert batch_loss == pytest.approx(sum(s[0] for s in singles) / 3.0, rel=1e-12)
        np.testing.assert_allclose(batch_grad, sum(s[1] for s in singles) / 3.0, atol=1e-12)

    def test_finite_difference_gradient(self):
        params = init_model(TINY)
        x1, x2 = random_inputs(TINY, 4, seed=8)
        labels = np.array([0, 1, 2, 0])
        weights = np.array([1.0, 1.5, 0.5, 1.0])

        def loss_at(flat):
            probe = ModelParams(TINY, flat.copy())
            value, _ = loss_and_gradients_batch(probe, x1, x2, labels, weights)
            return value

        _, grad = loss_and_gradients_batch(params, x1, x2, labels, weights)
        h = 1e-6
        rng = np.random.default_rng(9)
        for k in rng.choice(params.n_params, size=60, replace=False):
            up, down = params.flat.copy(), params.flat.copy()
            up[k] += h
            down[k] -= h
            fd = (loss_at(up) - loss_at(down)) / (2.0 * h)
            assert grad[k] == pytest.approx(fd, rel=5e-5, abs=1e-9)

    @staticmethod
    def check_every_coordinate(cfg):
        params = init_model(cfg)
        # nonzero biases: a row whose hidden units are all off would put z
        # exactly on the ReLU kink, where the central difference is wrong
        params.flat += np.random.default_rng(13).normal(scale=0.1, size=params.n_params)
        x1, x2 = random_inputs(cfg, 5, seed=12)
        labels = np.array([0, 1, 2, 0, 1])
        weights = np.array([1.0, 1.5, 0.5, 1.0, 2.0])
        _, grad = loss_and_gradients_batch(params, x1, x2, labels, weights)
        h = 1e-6
        for k in range(params.n_params):
            up, down = params.flat.copy(), params.flat.copy()
            up[k] += h
            down[k] -= h
            fd = (
                loss_and_gradients_batch(ModelParams(cfg, up), x1, x2, labels, weights)[0]
                - loss_and_gradients_batch(ModelParams(cfg, down), x1, x2, labels, weights)[0]
            ) / (2.0 * h)
            assert grad[k] == pytest.approx(fd, rel=5e-5, abs=1e-9)

    def test_finite_difference_gradient_two_layer_branches(self):
        """Every coordinate, on a topology where each branch has a hidden
        layer between its input layer and the merge."""
        self.check_every_coordinate(
            ModelConfig(
                n_classes=3, input1_dim=4, input2_dim=3, branch1_hidden=(5, 4), branch2_hidden=(4, 3),
                merged_hidden=(4,), dropout_rate=0.0,
            )
        )

    def test_float32_matches_float64_on_same_parameters(self):
        """The float32 loss and gradient track float64 on parameters and
        inputs that both dtypes hold exactly, with the same dropout masks."""
        cfg = ModelConfig(
            n_classes=5, input1_dim=40, input2_dim=30, branch1_hidden=(24,), branch2_hidden=(20,),
            merged_hidden=(16, 8), dropout_rate=0.5, seed=3,
        )
        rng = np.random.default_rng(3)
        flat32 = (init_model(cfg).flat + rng.normal(scale=0.05, size=cfg.n_params)).astype(np.float32)
        x1, x2 = (x.astype(np.float32).astype(np.float64) for x in random_inputs(cfg, 16, seed=3))
        labels = rng.integers(cfg.n_classes, size=16)
        weights = rng.uniform(0.5, 2.0, size=16)
        l32, g32 = loss_and_gradients_batch(
            ModelParams(cfg, flat32), x1, x2, labels, weights, rng=np.random.default_rng(1)
        )
        l64, g64 = loss_and_gradients_batch(
            ModelParams(cfg, flat32.astype(np.float64)), x1, x2, labels, weights, rng=np.random.default_rng(1)
        )
        assert g32.dtype == np.float32
        tol = 100 * np.finfo(np.float32).eps
        assert l32 == pytest.approx(l64, rel=tol)
        np.testing.assert_allclose(g32, g64, rtol=0, atol=tol * np.abs(g64).max())

    def test_train_mode_gradient_repeatable_under_seed(self):
        cfg = dataclasses.replace(TINY, dropout_rate=0.5)
        params = init_model(cfg)
        x1, x2 = random_inputs(cfg, 6, seed=10)
        labels = np.zeros(6, dtype=int)
        weights = np.ones(6)
        l1, g1 = loss_and_gradients_batch(
            params, x1, x2, labels, weights, rng=np.random.default_rng(42)
        )
        l2, g2 = loss_and_gradients_batch(
            params, x1, x2, labels, weights, rng=np.random.default_rng(42)
        )
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)


class TestDropout:
    def test_inverted_masks_take_zero_or_scaled_values(self):
        cfg = dataclasses.replace(TINY, dropout_rate=0.5)
        params = init_model(cfg)
        x1, x2 = random_inputs(cfg, 3, seed=11)
        _, cache = forward_batch(params, x1, x2, mode="train", rng=np.random.default_rng(0))
        mask = cache["mask_last"]
        assert set(np.unique(mask)) <= {0.0, 2.0}

    def test_infer_mode_ignores_dropout(self):
        cfg = dataclasses.replace(TINY, dropout_rate=0.9)
        params = init_model(cfg)
        x1, x2 = random_inputs(cfg, 5, seed=12)
        a, _ = forward_batch(params, x1, x2, mode="infer")
        b, _ = forward_batch(params, x1, x2, mode="infer")
        np.testing.assert_array_equal(a, b)

    def test_expected_value_matches_no_dropout(self):
        """Monte Carlo: mean of masked last-hidden activations over many
        draws approaches the unmasked value (inverted scaling)."""
        cfg = dataclasses.replace(TINY, dropout_rate=0.5)
        params = init_model(cfg)
        rng = np.random.default_rng(13)
        x1 = rng.normal(size=(1, cfg.input1_dim))
        x2 = rng.normal(size=(1, cfg.input2_dim))

        plain = ModelParams(TINY, params.flat)
        _, ref_cache = forward_batch(plain, x1, x2, mode="train", rng=None)
        ref = ref_cache["last_hidden"][0]

        n = 4000
        tiled1, tiled2 = np.repeat(x1, n, axis=0), np.repeat(x2, n, axis=0)
        _, cache = forward_batch(params, tiled1, tiled2, mode="train", rng=np.random.default_rng(14))
        sample = cache["last_hidden"]
        mean = sample.mean(axis=0)
        # per-unit std of h*mask is |h| for rate 0.5; allow 4 sigma of the mean
        sigma = np.abs(ref) / math.sqrt(n)
        assert np.all(np.abs(mean - ref) <= 4.0 * sigma + 1e-12)


# more parameters than one Adam chunk, ending in a partial chunk
class TestInputRows:
    """A model over some of its input columns: the first layers of both
    branches keep those weight rows, every other parameter whole."""

    # two layers in branch one, so branch two's first layer is layer 2
    CONFIG = ModelConfig(
        n_classes=3, input1_dim=10, input2_dim=7, branch1_hidden=(5, 4), branch2_hidden=(6,), merged_hidden=(4,), seed=2
    )
    ROWS = (np.array([0, 3, 4, 9]), np.array([2, 6]))

    def test_split_keeps_the_rows_and_join_restores_every_bit(self):
        params = init_model(self.CONFIG)
        small, left_out = split_input_rows(params, self.ROWS)
        assert small.config == dataclasses.replace(self.CONFIG, input1_dim=4, input2_dim=2)
        np.testing.assert_array_equal(small.weights[0], params.weights[0][self.ROWS[0]])
        np.testing.assert_array_equal(small.weights[2], params.weights[2][self.ROWS[1]])
        for i in (1, 3, 4):
            np.testing.assert_array_equal(small.weights[i], params.weights[i])
        for b_small, b in zip(small.biases, params.biases):
            np.testing.assert_array_equal(b_small, b)
        assert [rows.shape for rows in left_out] == [(6, 5), (5, 6)]
        joined = join_input_rows(small, self.ROWS, left_out, self.CONFIG)
        assert joined.flat.tobytes() == params.flat.tobytes()
        assert not np.shares_memory(joined.flat, params.flat)

    def test_small_model_on_its_columns_scores_as_the_full_model(self):
        """On inputs that are +0.0 outside the kept columns, the full model
        only adds exact zeros, in another order."""
        params = init_model(self.CONFIG)
        small, _ = split_input_rows(params, self.ROWS)
        rng = np.random.default_rng(3)
        x1, x2 = np.zeros((8, 10)), np.zeros((8, 7))
        x1[:, self.ROWS[0]] = rng.normal(size=(8, 4))
        x2[:, self.ROWS[1]] = rng.normal(size=(8, 2))
        full, _ = forward_batch(params, x1, x2)
        kept, _ = forward_batch(small, x1[:, self.ROWS[0]], x2[:, self.ROWS[1]])
        np.testing.assert_allclose(kept, full, rtol=1e-12, atol=0)


ADAM_CONFIG = ModelConfig(
    n_classes=7, input1_dim=300, input2_dim=250, branch1_hidden=(100,), branch2_hidden=(90,),
    merged_hidden=(80, 40),
)


def many_magnitudes(rng, n):
    """Normal gradients scaled by 10**u, u uniform in [-9, 3]."""
    return rng.normal(size=n) * 10.0 ** rng.uniform(-9, 3, size=n)


def whole_vector_adam(theta, m, v, grad, t, lr):
    """``adam_step``'s arithmetic over whole vectors with temporaries: the
    moments without their (1-b) factors, the bias corrections folded into
    the step size and eps.  Returns the new (theta, m, v)."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    k = math.sqrt((1.0 - b2) / (1.0 - b2**t))
    m = b1 * m + grad
    v = b2 * v + grad * grad
    theta = theta - m / (np.sqrt(v) + ADAM_EPS / k) * (lr * (1.0 - b1) / (1.0 - b1**t) / k)
    return theta, m, v


class TestAdam:
    def test_zero_gradient_is_noop(self):
        params = init_model(TINY)
        before = params.flat.copy()
        state = init_adam_state(params, lr=1e-3)
        # the update is in place, so nothing is returned
        assert adam_step(params, np.zeros(params.n_params), state) is None
        np.testing.assert_array_equal(params.flat, before)
        assert state.t == 1

    def test_first_step_is_lr_times_sign(self):
        params = init_model(TINY)
        before = params.flat.copy()
        state = init_adam_state(params, lr=1e-3)
        rng = np.random.default_rng(16)
        grad = rng.normal(size=params.n_params)
        grad[np.abs(grad) < 0.1] = 0.1  # keep |g| well above eps
        adam_step(params, grad.copy(), state)
        np.testing.assert_allclose(params.flat - before, -1e-3 * np.sign(grad), rtol=1e-5)

    def test_three_steps_match_recurrence_oracle(self):
        """Drive one coordinate with a quadratic loss f = theta^2 / 2 and
        replay the textbook update rule in pure Python."""
        cfg = ModelConfig(
            n_classes=1, input1_dim=1, input2_dim=1, branch1_hidden=(1,), branch2_hidden=(1,), merged_hidden=(1,)
        )
        params = init_model(dataclasses.replace(cfg, seed=17))
        state = init_adam_state(params, lr=0.1)

        theta = [float(v) for v in params.flat]
        m = [0.0] * len(theta)
        v = [0.0] * len(theta)
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.1
        for t in range(1, 4):
            grad = np.array(theta)
            adam_step(params, grad.copy(), state)
            for k in range(len(theta)):
                g = theta[k]
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g * g
                m_hat = m[k] / (1 - b1**t)
                v_hat = v[k] / (1 - b2**t)
                theta[k] -= lr * m_hat / (math.sqrt(v_hat) + eps)
            np.testing.assert_allclose(params.flat, theta, rtol=1e-12)
            theta = [float(vv) for vv in params.flat]

    def test_updates_happen_in_place(self):
        params = init_model(TINY)
        buf = params.flat
        state = init_adam_state(params, lr=1e-3)
        adam_step(params, np.ones(params.n_params), state)
        assert params.flat is buf

    def test_matches_allocating_update_bit_for_bit(self):
        """The in-place, chunked update against the same arithmetic written
        over whole vectors with temporaries, on gradients spanning many
        magnitudes and a parameter count that ends in a partial chunk."""
        assert ADAM_CONFIG.n_params > ADAM_CHUNK and ADAM_CONFIG.n_params % ADAM_CHUNK
        params = init_model(ADAM_CONFIG)
        state = init_adam_state(params, lr=3e-3)
        theta, m, v = params.flat.copy(), state.m.copy(), state.v.copy()
        rng = np.random.default_rng(23)
        for t in range(1, 8):
            grad = many_magnitudes(rng, ADAM_CONFIG.n_params)
            adam_step(params, grad.copy(), state)
            theta, m, v = whole_vector_adam(theta, m, v, grad, t, state.lr)
            assert state.t == t
            np.testing.assert_array_equal(params.flat, theta)
            np.testing.assert_array_equal(state.m, m)
            np.testing.assert_array_equal(state.v, v)

    @pytest.mark.parametrize("alias", ["params", "m", "v"])
    def test_gradient_sharing_memory_with_state_rejected(self, alias):
        params = init_model(TINY)
        state = init_adam_state(params, lr=1e-3)
        adam_step(params, np.ones(params.n_params), state)
        before = params.flat.copy(), state.m.copy(), state.v.copy()
        grad = {"params": params.flat, "m": state.m, "v": state.v}[alias]
        with pytest.raises(ValueError, match="share memory"):
            adam_step(params, grad, state)
        np.testing.assert_array_equal(params.flat, before[0])
        np.testing.assert_array_equal(state.m, before[1])
        np.testing.assert_array_equal(state.v, before[2])
        assert state.t == 1

    def test_non_finite_gradient_rejected(self):
        """Rejected before anything is mutated: params, moments and t keep
        their values."""
        params = init_model(TINY)
        state = init_adam_state(params, lr=1e-3)
        rng = np.random.default_rng(24)
        for _ in range(2):
            adam_step(params, rng.normal(size=params.n_params), state)
        before = params.flat.copy(), state.m.copy(), state.v.copy()
        for bad in (np.nan, np.inf, -np.inf):
            grad = rng.normal(size=params.n_params)
            grad[-1] = bad
            with pytest.raises(FloatingPointError):
                adam_step(params, grad, state)
            np.testing.assert_array_equal(params.flat, before[0])
            np.testing.assert_array_equal(state.m, before[1])
            np.testing.assert_array_equal(state.v, before[2])
            assert state.t == 2

    def test_moments_of_another_dtype_rejected(self):
        params = init_model(TINY)
        state = init_adam_state(ModelParams(TINY, params.flat.astype(np.float32)), lr=1e-3)
        before = params.flat.copy()
        with pytest.raises(ValueError, match="moments"):
            adam_step(params, np.ones(params.n_params), state)
        np.testing.assert_array_equal(params.flat, before)
        assert state.t == 0 and not state.m.any() and not state.v.any()

    def test_float32_update_stays_float32_and_matches_whole_vector_form(self):
        """The float32 update against the same arithmetic over whole float32
        vectors: no operation widens to float64, so the bits agree."""
        params = ModelParams(ADAM_CONFIG, init_model(ADAM_CONFIG).flat.astype(np.float32))
        state = init_adam_state(params, lr=3e-3)
        theta, m, v = params.flat.copy(), state.m.copy(), state.v.copy()
        rng = np.random.default_rng(24)
        for t in range(1, 8):
            grad = many_magnitudes(rng, ADAM_CONFIG.n_params).astype(np.float32)
            adam_step(params, grad.copy(), state)
            theta, m, v = whole_vector_adam(theta, m, v, grad, t, state.lr)
            assert theta.dtype == np.float32
            for ours, ref in ((params.flat, theta), (state.m, m), (state.v, v)):
                assert ours.dtype == np.float32
                np.testing.assert_array_equal(ours, ref)

    def test_float32_step_matches_float64_textbook_step(self):
        """Each float32 step against the textbook update in float64 from the
        same state, on parameters of magnitude 0.5 to 1.  The float32 result
        may differ by one float32 ulp of the new parameter: half an ulp for
        the rounding of ``theta - step``, while the float32 roundings that
        compute the step cost a few ulps of a step of the order of lr,
        far less than the other half of an ulp of theta."""
        rng = np.random.default_rng(25)
        n = ADAM_CONFIG.n_params
        params = ModelParams(ADAM_CONFIG, (rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.0, n)).astype(np.float32))
        state = init_adam_state(params, lr=3e-3)
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for t in range(1, 8):
            grad = many_magnitudes(rng, n).astype(np.float32)
            theta = params.flat.astype(np.float64)
            # the textbook moments, which carry the (1-b) factors state.m and state.v leave out
            m = b1 * (1.0 - b1) * state.m.astype(np.float64) + (1.0 - b1) * grad.astype(np.float64)
            v = b2 * (1.0 - b2) * state.v.astype(np.float64) + (1.0 - b2) * grad.astype(np.float64) ** 2
            theta -= state.lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + ADAM_EPS)
            adam_step(params, grad, state)
            assert np.all(np.abs(params.flat - theta) <= np.spacing(np.abs(theta).astype(np.float32)))

    def test_allocates_only_the_finiteness_mask(self):
        """A step's traced peak is the one-byte-per-parameter mask of the
        finiteness check plus a little: the gradient is the only scratch."""
        params = ModelParams(ADAM_CONFIG, init_model(ADAM_CONFIG).flat.astype(np.float32))
        state = init_adam_state(params, lr=1e-3)
        grad = np.ones(ADAM_CONFIG.n_params, np.float32)
        adam_step(params, grad.copy(), state)
        tracemalloc.start()
        try:
            adam_step(params, grad, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ADAM_CONFIG.n_params + 4096

    def test_descends_fixed_quadratic(self):
        params = init_model(TINY)
        state = init_adam_state(params, lr=0.05)
        for _ in range(200):
            adam_step(params, params.flat.copy(), state)
        assert np.abs(params.flat).max() < 0.1


class TestClassWeights:
    def test_balanced_counts_give_unit_weights(self):
        np.testing.assert_allclose(class_weights([10, 10]), [1.0, 1.0])

    def test_imbalanced_counts(self):
        np.testing.assert_allclose(class_weights([30, 10]), [2.0 / 3.0, 2.0])

    def test_single_class(self):
        np.testing.assert_allclose(class_weights([5]), [1.0])

    def test_weighted_counts_average_to_mean_count(self):
        counts = [7, 3, 15, 1]
        w = class_weights(counts)
        assert float((w * counts).mean()) == pytest.approx(sum(counts) / len(counts))

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            class_weights([4, 0, 2])


class TestCheckpoint:
    def make_params(self, seed=20):
        """A TINY model whose weights and biases are all nonzero."""
        config = dataclasses.replace(TINY, seed=seed)
        return ModelParams(config, np.random.default_rng(seed).normal(size=config.n_params))

    def classes(self):
        return [AuthorId("Wei Wang", 0), AuthorId("Wei Wang", 1), AuthorId("W Wang", 0)]

    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "model.npz"
        params = self.make_params()
        save_checkpoint(path, params, self.classes(), {**RUN_FIELDS, "note": "x"})
        bundle = load_checkpoint(path)
        assert np.array_equal(bundle.params.flat, params.flat)
        assert bundle.params.config == params.config
        assert bundle.class_index == self.classes()
        assert bundle.extra == {**RUN_FIELDS, "note": "x"}

    def test_reload_preserves_inference(self, tmp_path):
        path = tmp_path / "model.npz"
        params = self.make_params(seed=21)
        save_checkpoint(path, params, self.classes(), RUN_FIELDS)
        bundle = load_checkpoint(path)
        x1, x2 = random_inputs(params.config, 11, seed=22)
        a, _ = forward_batch(params, x1, x2)
        b, _ = forward_batch(bundle.params, x1, x2)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name, written", [("m", "m.npz"), ("m.npz", "m.npz"), ("m.ckpt", "m.ckpt.npz")])
    def test_returns_the_path_written(self, tmp_path, name, written):
        path = save_checkpoint(tmp_path / name, self.make_params(), self.classes(), RUN_FIELDS)
        assert path == str(tmp_path / written)
        assert [p.name for p in tmp_path.iterdir()] == [written]

    def test_class_count_mismatch(self, tmp_path):
        path = tmp_path / "model.npz"
        with pytest.raises(CheckpointError):
            save_checkpoint(path, self.make_params(), self.classes()[:2], RUN_FIELDS)
        assert not path.exists()

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a zip archive")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.npz")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_params_refused(self, tmp_path, dtype):
        params = self.make_params()
        flat = params.flat.astype(dtype)
        path = tmp_path / "model.npz"
        save_checkpoint(path, ModelParams(params.config, flat), self.classes(), RUN_FIELDS)
        # save_checkpoint refuses such params, so they are written into the file directly
        with np.load(path) as archive:
            meta = archive["meta"]
        flat[[0, 5, -1]] = [np.nan, np.inf, -np.inf]
        np.savez(path, meta=meta, params=flat)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"checkpoint {path}: 3 of {flat.size} params are not finite"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_params_refused_on_save(self, tmp_path, dtype):
        """Refused with load_checkpoint's message, and the file already at
        the path keeps its bytes."""
        params = self.make_params()
        path = tmp_path / "model.npz"
        save_checkpoint(path, params, self.classes(), RUN_FIELDS)
        before = path.read_bytes()
        flat = params.flat.astype(dtype)
        flat[[0, 5, -1]] = [np.nan, np.inf, -np.inf]
        with pytest.raises(CheckpointError) as err:
            save_checkpoint(path, ModelParams(params.config, flat), self.classes(), RUN_FIELDS)
        assert str(err.value) == f"checkpoint {path}: 3 of {flat.size} params are not finite"
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]

    def test_every_truncation_rejected(self, tmp_path):
        """A checkpoint cut anywhere, down to an empty file, is refused as a
        checkpoint error rather than whatever numpy raises."""
        path = tmp_path / "model.npz"
        save_checkpoint(path, self.make_params(), self.classes(), RUN_FIELDS)
        data = path.read_bytes()
        cut = tmp_path / "cut.npz"
        for length in range(len(data)):
            cut.write_bytes(data[:length])
            with pytest.raises(CheckpointError):
                load_checkpoint(cut)

    def saved_with_config(self, tmp_path, **changes):
        """A checkpoint whose stored model config is edited after saving."""
        path = tmp_path / "model.npz"
        params = self.make_params()
        save_checkpoint(path, params, self.classes(), RUN_FIELDS)
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta["config"].update(changes)
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez(path, **arrays)
        return path, params

    def test_legacy_branch_dropout_on_rejected(self, tmp_path):
        """The branch dropout flag that older files stored is refused like
        any field the config does not have."""
        path, _ = self.saved_with_config(tmp_path, dropout_branches=True)
        with pytest.raises(CheckpointError, match="dropout_branches"):
            load_checkpoint(path)

    def test_empty_stack_refused(self, tmp_path):
        """A stored config with a stack of no layers is refused like any
        config the constructor refuses."""
        path, _ = self.saved_with_config(tmp_path, merged_hidden=[])
        with pytest.raises(CheckpointError, match=r"bad model config.*merged_hidden \(\) must hold at least one layer"):
            load_checkpoint(path)

    def test_unknown_config_key_rejected(self, tmp_path):
        path, _ = self.saved_with_config(tmp_path, no_such_field=1)
        with pytest.raises(CheckpointError, match="no_such_field"):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra", [{}, {"master_seed": 0}, {"encoders": {}}, {"master_seed": True, "encoders": {}}])
    def test_run_fields_required_to_save(self, tmp_path, extra):
        path = tmp_path / "model.npz"
        with pytest.raises(CheckpointError, match=r"extra\.(master_seed|encoders) is missing"):
            save_checkpoint(path, self.make_params(), self.classes(), extra)
        assert not path.exists()

    @pytest.mark.parametrize("name", ["n_classes", "merged_hidden", "seed"])
    def test_missing_config_field_rejected(self, tmp_path, name):
        """A stored config without a field is refused, also one that the
        config class has a default for."""
        path, arrays = self.saved_arrays(tmp_path)
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        del meta["config"][name]
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match=f"missing {name}"):
            load_checkpoint(path)

    def saved_arrays(self, tmp_path):
        """A saved checkpoint's path and its stored arrays, to rewrite."""
        path = tmp_path / "model.npz"
        save_checkpoint(path, self.make_params(), self.classes(), RUN_FIELDS)
        with np.load(path) as archive:
            return path, {key: archive[key] for key in archive.files}

    def test_float16_arrays_rejected(self, tmp_path):
        path, stored = self.saved_arrays(tmp_path)
        np.savez(path, **{key: a.astype(np.float16) if key != "meta" else a for key, a in stored.items()})
        with pytest.raises(CheckpointError, match="float32 or float64"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["params"])
    def test_mixed_dtypes_rejected(self, tmp_path, key):
        """A params vector in neither model precision is refused, an
        integer one included."""
        path, stored = self.saved_arrays(tmp_path)
        np.savez(path, **{**stored, key: stored[key].astype(np.int64)})
        with pytest.raises(CheckpointError, match="float32 or float64"):
            load_checkpoint(path)

    def test_params_shorter_than_topology_rejected(self, tmp_path):
        path, stored = self.saved_arrays(tmp_path)
        np.savez(path, **{**stored, "params": stored["params"][:-5]})
        with pytest.raises(CheckpointError, match="params has shape"):
            load_checkpoint(path)

    def test_saved_members_are_meta_and_params(self, tmp_path):
        path, stored = self.saved_arrays(tmp_path)
        assert set(stored) == {"meta", "params"}
        assert set(json.loads(bytes(stored["meta"]).decode("utf-8"))) == {"format", "config", "classes", "extra"}

    def test_stored_config_bytes(self, tmp_path):
        """The config is stored as its fields in declaration order, layer
        widths as JSON lists, so checkpoint metadata stays byte-stable."""
        path, stored = self.saved_arrays(tmp_path)
        assert (
            '"config": {"n_classes": 3, "input1_dim": 6, "input2_dim": 4, "branch1_hidden": [5], '
            '"branch2_hidden": [4], "merged_hidden": [5, 3], "dropout_rate": 0.0, "seed": 20}'
        ) in bytes(stored["meta"]).decode("utf-8")


TOPOLOGY = st.fixed_dictionaries(
    {
        "n_classes": st.integers(1, 5),
        "input1_dim": st.integers(1, 6),
        "input2_dim": st.integers(1, 6),
        "branch1_hidden": st.lists(st.integers(1, 5), min_size=1, max_size=2).map(tuple),
        "branch2_hidden": st.lists(st.integers(1, 5), min_size=1, max_size=2).map(tuple),
        "merged_hidden": st.lists(st.integers(1, 5), min_size=1, max_size=2).map(tuple),
        "seed": st.integers(0, 2**16),
    }
)


class TestCheckpointProperties:
    @given(TOPOLOGY, st.sampled_from([np.float32, np.float64]), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_keeps_bytes_dtype_and_class_order(self, topology, dtype, seed):
        config = ModelConfig(**topology)
        rng = np.random.default_rng(seed)
        params = ModelParams(config, rng.normal(size=config.n_params).astype(dtype))
        classes = [AuthorId(f"Author {k}", int(h)) for k, h in enumerate(rng.integers(0, 3, size=config.n_classes))]
        classes = [classes[i] for i in rng.permutation(config.n_classes)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.npz"
            save_checkpoint(path, params, classes, RUN_FIELDS)
            bundle = load_checkpoint(path)
        assert bundle.params.flat.dtype == np.dtype(dtype)
        assert bundle.params.flat.tobytes() == params.flat.tobytes()
        assert bundle.params.config == config
        assert bundle.class_index == classes


class TestProperties:
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=8))
    @settings(max_examples=25, deadline=None)
    def test_probs_always_a_distribution(self, seed, batch):
        params = init_model(dataclasses.replace(TINY, seed=seed % 1000))
        x1, x2 = random_inputs(TINY, batch, seed=seed)
        probs, _ = forward_batch(params, 10.0 * x1, 10.0 * x2)
        assert np.isfinite(probs).all()
        assert (probs >= 0.0).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    @given(st.floats(min_value=-50.0, max_value=50.0))
    @settings(max_examples=25, deadline=None)
    def test_logit_shift_invariance(self, shift):
        params = init_model(TINY)
        x1, x2 = random_inputs(TINY, 3, seed=23)
        base, _ = forward_batch(params, x1, x2)
        moved = params.copy()
        moved.biases[-1][...] += shift
        out, _ = forward_batch(moved, x1, x2)
        np.testing.assert_allclose(base, out, atol=1e-8)
