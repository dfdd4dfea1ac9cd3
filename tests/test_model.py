import json

import numpy as np
import pytest

from treatalloc.data import GeneratorConfig, generate_synthetic
from treatalloc.exceptions import ConfigError, NumericError, ValidationError
from treatalloc.gradients import GradientPair
from treatalloc.losses import prediction_loss
from treatalloc.model import (ModelConfig, backward, forward, forward_cached,
                              init_params, load_checkpoint, optimizer_step,
                              save_checkpoint, warm_start)

from conftest import make_dataset


def tiny_config(**kw):
    defaults = dict(layer_widths=(5,), num_treatments=2, input_dim=3, seed=0)
    defaults.update(kw)
    return ModelConfig(**defaults)


def flat_loss(params, x, upstream):
    from treatalloc.gradients import gradient_inner_loss

    return gradient_inner_loss(forward(params, x), upstream)


class TestForward:
    def test_zero_parameters_give_zero_outputs(self, rng):
        params = init_params(tiny_config())
        for w in params.weights:
            w[:] = 0.0
        pred = forward(params, rng.standard_normal((4, 3)))
        assert not pred.revenue.any() and not pred.cost.any()

    def test_linear_head_is_hand_checkable_affine_map(self):
        config = ModelConfig(layer_widths=(), num_treatments=1, input_dim=1, seed=0)
        params = init_params(config)
        params.weights[0][:] = np.array([[2.0, -1.0]])
        params.biases[0][:] = np.array([0.5, 0.25])
        pred = forward(params, np.array([[3.0]]))
        assert pred.revenue[0, 0] == 2.0 * 3.0 + 0.5
        assert pred.cost[0, 0] == -1.0 * 3.0 + 0.25

    def test_batch_row_equals_single_row(self, rng):
        # equality up to BLAS reduction-order jitter in the last ulp
        params = init_params(tiny_config())
        x = rng.standard_normal((6, 3))
        batch = forward(params, x)
        one = forward(params, x[2:3])
        np.testing.assert_allclose(batch.revenue[2:3], one.revenue, rtol=1e-12)
        np.testing.assert_allclose(batch.cost[2:3], one.cost, rtol=1e-12)

    def test_output_split_is_revenue_then_cost(self, rng):
        params = init_params(tiny_config(num_treatments=3))
        x = rng.standard_normal((2, 3))
        out, _ = forward_cached(params, x)
        pred = forward(params, x)
        np.testing.assert_array_equal(out[:, :3], pred.revenue)
        np.testing.assert_array_equal(out[:, 3:], pred.cost)

    def test_non_finite_activation_names_layer(self):
        params = init_params(tiny_config())
        params.weights[0][0, 0] = np.inf
        with pytest.raises(NumericError, match="layer 0"):
            forward(params, np.ones((1, 3)))

    def test_outputs_are_read_only(self, rng):
        pred = forward(init_params(tiny_config()), rng.standard_normal((4, 3)))
        for arr in (pred.revenue, pred.cost):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        assert pred.revenue.base is pred.cost.base is not None  # views, not copies

    def test_feature_width_checked(self):
        params = init_params(tiny_config())
        with pytest.raises(ValidationError):
            forward(params, np.ones((2, 7)))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self, rng):
        params = init_params(tiny_config())
        x = rng.standard_normal((4, 3))
        grads = backward(params, x, GradientPair(np.zeros((4, 2)), np.zeros((4, 2))))
        assert all(not g.any() for g in grads.d_weights)
        assert all(not g.any() for g in grads.d_biases)

    def test_linearity_in_upstream(self, rng):
        params = init_params(tiny_config())
        x = rng.standard_normal((4, 3))
        up = GradientPair(rng.standard_normal((4, 2)), rng.standard_normal((4, 2)))
        doubled = GradientPair(2 * up.d_revenue, 2 * up.d_cost)
        g1 = backward(params, x, up)
        g2 = backward(params, x, doubled)
        for a, b in zip(g1.d_weights, g2.d_weights):
            np.testing.assert_allclose(2 * a, b, rtol=1e-12)

    def test_upstream_layout_does_not_change_bits(self, rng):
        # the decision kernels return (n, M) gradients as transposed views of
        # (M, n) arrays; the sums over rows must not follow their memory order
        params = init_params(tiny_config(layer_widths=(4,), num_treatments=3))
        x = rng.standard_normal((300, 3))
        rev, cost = rng.standard_normal((3, 300)), rng.standard_normal((3, 300))
        views = backward(params, x, GradientPair(rev.T, cost.T))
        copies = backward(params, x, GradientPair(rev.T.copy(), cost.T.copy()))
        for got, want in zip(views.d_weights + views.d_biases,
                             copies.d_weights + copies.d_biases):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_all_parameter_grads_match_central_differences(self, rng, activation):
        config = tiny_config(layer_widths=(6, 4), activation=activation, seed=3)
        params = init_params(config)
        x = rng.standard_normal((8, 3)) + 0.1  # keep relu kinks off the grid
        up = GradientPair(rng.standard_normal((8, 2)), rng.standard_normal((8, 2)))
        grads = backward(params, x, up)
        h = 1e-5
        for layer in range(len(params.weights)):
            for arr, garr in ((params.weights[layer], grads.d_weights[layer]),
                              (params.biases[layer], grads.d_biases[layer])):
                flat = arr.reshape(-1)
                gflat = garr.reshape(-1)
                for k in range(flat.size):
                    keep = flat[k]
                    flat[k] = keep + h
                    hi = flat_loss(params, x, up)
                    flat[k] = keep - h
                    lo = flat_loss(params, x, up)
                    flat[k] = keep
                    fd = (hi - lo) / (2 * h)
                    assert gflat[k] == pytest.approx(fd, rel=1e-4, abs=1e-7)


class TestOptimizer:
    def test_zero_gradient_keeps_parameters_advances_step(self):
        params = init_params(tiny_config())
        before = [w.copy() for w in params.weights]
        grads = backward(params, np.ones((1, 3)),
                         GradientPair(np.zeros((1, 2)), np.zeros((1, 2))))
        assert optimizer_step(params, grads, lr=0.1)
        assert params.step == 1
        for w, b in zip(params.weights, before):
            np.testing.assert_array_equal(w, b)

    def test_constant_gradient_moves_against_sign(self):
        params = init_params(tiny_config(layer_widths=()))
        w0 = params.weights[0].copy()
        grads_template = None
        for _ in range(50):
            g = backward(params, np.ones((1, 3)),
                         GradientPair(np.ones((1, 2)), np.ones((1, 2))))
            grads_template = g
            optimizer_step(params, g, lr=0.01)
        moved = params.weights[0] - w0
        assert (np.sign(moved) == -np.sign(grads_template.d_weights[0])).all()

    def test_non_finite_gradient_skips_update(self):
        params = init_params(tiny_config())
        g = backward(params, np.ones((1, 3)),
                     GradientPair(np.ones((1, 2)), np.ones((1, 2))))
        g.d_weights[0][0, 0] = np.nan
        before = [w.copy() for w in params.weights]
        assert not optimizer_step(params, g, lr=0.1)
        assert params.step == 0
        for w, b in zip(params.weights, before):
            np.testing.assert_array_equal(w, b)

    def test_quadratic_bowl_converges(self, rng):
        # realizable affine target: the squared loss bowl bottoms out at zero
        config = tiny_config(layer_widths=(), num_treatments=1, input_dim=2, seed=1)
        params = init_params(config)
        x = rng.standard_normal((16, 2))
        target = x @ rng.standard_normal((2, 2)) + rng.standard_normal(2)
        loss = np.inf
        for _ in range(2000):
            out, _ = forward_cached(params, x)
            diff = out - target
            loss = float(np.sum(diff * diff))
            if loss < 1e-4:
                break
            up = GradientPair(2 * diff[:, :1], 2 * diff[:, 1:])
            optimizer_step(params, backward(params, x, up), lr=1e-2)
        assert loss < 1e-4

    def test_bad_lr_rejected(self):
        params = init_params(tiny_config())
        g = backward(params, np.ones((1, 3)),
                     GradientPair(np.zeros((1, 2)), np.zeros((1, 2))))
        with pytest.raises(ConfigError):
            optimizer_step(params, g, lr=0.0)


class TestWarmStart:
    def test_zero_epochs_is_identity(self, rng):
        data, _ = generate_synthetic(GeneratorConfig(n=50, m=2, d=3), seed=0)
        params = init_params(tiny_config())
        before = [w.copy() for w in params.weights]
        warm_start(params, data, epochs=0)
        for w, b in zip(params.weights, before):
            np.testing.assert_array_equal(w, b)

    def test_squared_error_fits_noiseless_linear_data(self):
        data, _ = generate_synthetic(
            GeneratorConfig(n=2000, m=3, d=4, noise=0.0, family="linear"), seed=2)
        config = ModelConfig(layer_widths=(32, 16), num_treatments=3,
                             input_dim=4, seed=0)
        params = init_params(config)
        warm_start(params, data, epochs=400, lr=3e-3, batch_size=256)
        from treatalloc.model import forward as fwd

        assert prediction_loss(data, fwd(params, data.features)) < 1e-3

    def test_cross_entropy_requires_binary_outcomes(self):
        data = make_dataset(treatment=[0, 1], revenue=[1.5, 0.0], cost=[0.0, 1.0],
                            num_treatments=2, propensities=[0.5, 0.5])
        params = init_params(tiny_config())
        with pytest.raises(ConfigError):
            warm_start(params, data, epochs=1, objective="cross-entropy")

    def test_cross_entropy_runs_on_binary_outcomes(self):
        data = make_dataset(treatment=[0, 1, 0, 1], revenue=[1.0, 0.0, 1.0, 1.0],
                            cost=[0.0, 1.0, 1.0, 0.0], num_treatments=2,
                            propensities=[0.5, 0.5],
                            features=np.array([[0.1], [0.4], [-1.0], [2.0]]))
        params = init_params(tiny_config(input_dim=1))
        warm_start(params, data, epochs=3, objective="cross-entropy")
        assert params.step > 0


class TestDeterminismAndHeads:
    def test_fixed_seed_reproduces_trajectories(self):
        data, _ = generate_synthetic(GeneratorConfig(n=200, m=2, d=3, noise=0.2), seed=1)
        runs = []
        for _ in range(2):
            params = init_params(tiny_config(seed=9))
            warm_start(params, data, epochs=5, lr=1e-3, batch_size=64,
                       shuffle_seed=7)
            runs.append([w.copy() for w in params.weights])
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a, b)

    def test_revenue_only_update_of_last_layer_keeps_cost_outputs(self, rng):
        # freeze shared layers: update only the output layer with upstream
        # touching the revenue head; cost outputs must not move at all
        params = init_params(tiny_config(layer_widths=(4,)))
        x = rng.standard_normal((5, 3))
        before = forward(params, x)
        up = GradientPair(rng.standard_normal((5, 2)), np.zeros((5, 2)))
        grads = backward(params, x, up)
        last = len(params.weights) - 1
        params.weights[last] -= 0.05 * grads.d_weights[last]
        params.biases[last] -= 0.05 * grads.d_biases[last]
        after = forward(params, x)
        np.testing.assert_array_equal(before.cost, after.cost)
        assert not np.array_equal(before.revenue, after.revenue)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path, rng):
        params = init_params(tiny_config(layer_widths=(7, 3), seed=4))
        warm = rng.standard_normal
        for w in params.weights:
            w += 0.01 * warm(w.shape)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, extra={"note": "test"})
        loaded, extra = load_checkpoint(path)
        assert extra == {"note": "test"}
        assert loaded.config == params.config
        for a, b in zip(params.weights, loaded.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(params.biases, loaded.biases):
            np.testing.assert_array_equal(a, b)
        assert (tmp_path / "model.ckpt.manifest").exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ValidationError, match="magic"):
            load_checkpoint(path)

    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_params(tiny_config(seed=2)), extra={"k": 1})
        return path

    def test_header_cut_short_rejected(self, saved):
        saved.write_bytes(saved.read_bytes()[:40])
        with pytest.raises(ValidationError, match="header"):
            load_checkpoint(saved)

    def test_body_cut_short_rejected(self, saved):
        saved.write_bytes(saved.read_bytes()[:-8])
        with pytest.raises(ValidationError, match="implies"):
            load_checkpoint(saved)

    def test_trailing_bytes_rejected(self, saved):
        saved.write_bytes(saved.read_bytes() + b"\x00")
        with pytest.raises(ValidationError, match="implies"):
            load_checkpoint(saved)

    @pytest.mark.parametrize("shape", [[-4, -4], [2, 8]])
    def test_layer_shape_must_match_config(self, tmp_path, shape):
        # as many weights as the (4, 4) first layer of a d = 4 model, so the
        # length check passes: [-4, -4] failed in reshape, [2, 8] loaded and
        # failed in forward
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_params(tiny_config(layer_widths=(4,), input_dim=4)))
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[8:12], "little")
        header = json.loads(raw[12:12 + hlen])
        header["layers"][0]["w"] = shape
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + hlen:])
        with pytest.raises(ValidationError, match="layer shapes"):
            load_checkpoint(path)

    def test_deterministic_bytes(self, tmp_path):
        params = init_params(tiny_config(seed=2))
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, params, extra={"k": 1})
        save_checkpoint(b, params, extra={"k": 1})
        assert a.read_bytes() == b.read_bytes()


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(layer_widths=(0,), num_treatments=2, input_dim=3)
    with pytest.raises(ConfigError):
        ModelConfig(layer_widths=(4,), num_treatments=2, input_dim=3,
                    activation="swish")
    config = ModelConfig(layer_widths=(8, 4), num_treatments=3, input_dim=5)
    assert config.output_dim == 6
    assert config.dims() == [(5, 8), (8, 4), (4, 6)]
