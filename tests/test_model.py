import json

import numpy as np
import pytest

from treatalloc import model
from treatalloc.data import GeneratorConfig, generate_synthetic
from treatalloc.exceptions import ConfigError, NumericError, ValidationError
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
    from oracles import gradient_inner_loss

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
        out, _ = forward_cached(params, x)  # (2m, n): revenue rows, then cost rows
        pred = forward(params, x)
        np.testing.assert_array_equal(out[:3], pred.revenue.T)
        np.testing.assert_array_equal(out[3:], pred.cost.T)

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
        grads = backward(params, x, (np.zeros((4, 2)), np.zeros((4, 2))))
        assert all(not g.any() for g in grads.d_weights)
        assert all(not g.any() for g in grads.d_biases)

    @pytest.mark.parametrize("upstream", [
        (np.zeros((2, 2)), np.zeros((3, 2))),
        (np.full((2, 2), np.inf), np.zeros((2, 2))),
        (np.zeros((2, 2)), np.full((2, 2), np.nan)),
        (np.zeros((3, 2)), np.zeros((3, 2))),
        (np.zeros((2, 3)), np.zeros((2, 3))),
        (np.zeros((2, 2)),) * 3,
    ], ids=["mismatched", "inf", "nan", "rows", "heads", "three"])
    def test_upstream_validation(self, upstream):
        # backward is where a gradient from outside the model enters it
        with pytest.raises(ValidationError):
            backward(init_params(tiny_config()), np.ones((2, 3)), upstream)

    def test_linearity_in_upstream(self, rng):
        params = init_params(tiny_config())
        x = rng.standard_normal((4, 3))
        up = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
        doubled = 2 * up[0], 2 * up[1]
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
        views = backward(params, x, (rev.T, cost.T))
        copies = backward(params, x, (rev.T.copy(), cost.T.copy()))
        for got, want in zip(views.d_weights + views.d_biases,
                             copies.d_weights + copies.d_biases):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_all_parameter_grads_match_central_differences(self, rng, activation):
        config = tiny_config(layer_widths=(6, 4), activation=activation, seed=3)
        params = init_params(config)
        x = rng.standard_normal((8, 3)) + 0.1  # keep relu kinks off the grid
        up = rng.standard_normal((8, 2)), rng.standard_normal((8, 2))
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


def row_major_reference(params, x, upstream):
    """Forward outputs (n, 2M) and backward gradients of ``<upstream, outputs>``,
    written row-major: each layer's activations are (n, width)."""
    relu = params.config.activation == "relu"
    hs, h = [], x
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        hs.append(h)
        z = h @ w + b
        h = z if k == len(params.weights) - 1 else (np.maximum(z, 0.0) if relu else np.tanh(z))
    delta = np.concatenate(upstream, axis=1)
    d_weights, d_biases = [], []
    for k in range(len(params.weights) - 1, -1, -1):
        d_weights.insert(0, hs[k].T @ delta)
        d_biases.insert(0, delta.sum(axis=0))
        if k > 0:
            delta = (delta @ params.weights[k].T) * ((hs[k] > 0) if relu else 1.0 - hs[k] ** 2)
    return h, d_weights, d_biases


def assert_close_relative(got, want, rel=1e-12):
    """Equal within ``rel`` of the reference's largest magnitude."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


class TestLayoutContract:
    """Every layer runs feature-major, (width, n); the results are the
    row-major network's up to rounding."""

    @pytest.mark.parametrize("rows", [1, 7, 4096, 4100])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("hidden", [(), (16,), (16, 8), (64, 32, 32)],
                             ids=["linear", "16", "16-8", "64-32-32"])
    def test_matches_a_row_major_reference(self, rng, hidden, activation, rows):
        params = init_params(ModelConfig(hidden, num_treatments=5, input_dim=10,
                                         activation=activation, seed=7))
        params.flat += 0.1 * rng.standard_normal(params.flat.size)  # biases off zero
        x = rng.standard_normal((rows, 10))
        up = rng.standard_normal((rows, 5)), rng.standard_normal((rows, 5))
        out, d_weights, d_biases = row_major_reference(params, x, up)
        pred = forward(params, x)
        assert_close_relative(pred.revenue, out[:, :5])
        assert_close_relative(pred.cost, out[:, 5:])
        grads = backward(params, x, up)
        for got, want in zip(grads.d_weights + grads.d_biases, d_weights + d_biases):
            assert_close_relative(got, want)

    def test_predictions_are_the_forward_output(self, rng, monkeypatch):
        outputs = []

        def kept(params, features):
            outputs.append(forward_cached(params, features)[0])
            return outputs[-1], None

        params = init_params(tiny_config(num_treatments=3))
        monkeypatch.setattr(model, "forward_cached", kept)
        pred = model.forward(params, rng.standard_normal((9, 3)))
        assert outputs[0].shape == (6, 9) and outputs[0].flags.c_contiguous
        assert np.shares_memory(pred.revenue, outputs[0])
        assert np.shares_memory(pred.cost, outputs[0])


class TestOptimizer:
    def test_zero_gradient_keeps_parameters_advances_step(self):
        params = init_params(tiny_config())
        before = [w.copy() for w in params.weights]
        grads = backward(params, np.ones((1, 3)), (np.zeros((1, 2)), np.zeros((1, 2))))
        assert optimizer_step(params, grads, lr=0.1)
        assert params.step == 1
        for w, b in zip(params.weights, before):
            np.testing.assert_array_equal(w, b)

    def test_constant_gradient_moves_against_sign(self):
        params = init_params(tiny_config(layer_widths=()))
        w0 = params.weights[0].copy()
        grads_template = None
        for _ in range(50):
            g = backward(params, np.ones((1, 3)), (np.ones((1, 2)), np.ones((1, 2))))
            grads_template = g
            optimizer_step(params, g, lr=0.01)
        moved = params.weights[0] - w0
        assert (np.sign(moved) == -np.sign(grads_template.d_weights[0])).all()

    def test_non_finite_gradient_skips_update(self):
        params = init_params(tiny_config())
        g = backward(params, np.ones((1, 3)), (np.ones((1, 2)), np.ones((1, 2))))
        g.d_weights[0][0, 0] = np.nan
        before = [w.copy() for w in params.weights]
        assert not optimizer_step(params, g, lr=0.1)
        assert params.step == 0
        for w, b in zip(params.weights, before):
            np.testing.assert_array_equal(w, b)

    def test_gradient_whose_square_overflows_skips_update(self):
        # 1e160 is finite but its square is not: the second moment would turn
        # inf, and the parameter's update m / inf = 0 from then on
        params = init_params(tiny_config())
        g = backward(params, np.ones((1, 3)), (np.ones((1, 2)), np.ones((1, 2))))
        assert optimizer_step(params, g, lr=0.1)
        before = [a.copy() for a in (params.flat, *params.moments)]
        g.flat[0] = 1e160
        assert not optimizer_step(params, g, lr=0.1)
        assert params.step == 1
        for got, want in zip((params.flat, *params.moments), before):
            assert got.tobytes() == want.tobytes()

    def test_matches_a_per_layer_reference_bit_for_bit(self, rng):
        # Adam written per layer, as in Kingma & Ba (2015), on a 3-layer tanh
        # model: the whole-vector update must give the same bits
        params = init_params(tiny_config(layer_widths=(6, 4), activation="tanh", seed=5))
        ref = [p.copy() for p in params.weights + params.biases]
        moments = [(np.zeros_like(p), np.zeros_like(p)) for p in ref]
        x = rng.standard_normal((9, 3))
        for t in range(1, 6):
            up = rng.standard_normal((9, 2)), rng.standard_normal((9, 2))
            grads = backward(params, x, up)
            assert optimizer_step(params, grads, lr=0.05)
            c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            for p, (m, v), g in zip(ref, moments, grads.d_weights + grads.d_biases):
                m *= 0.9
                m += (1 - 0.9) * g
                v *= 0.999
                v += (1 - 0.999) * g * g
                p -= 0.05 * (m / c1) / (np.sqrt(v / c2) + 1e-8)
            for got, want in zip(params.weights + params.biases, ref):
                assert got.tobytes() == want.tobytes()

    def test_bias_made_non_finite_raises(self):
        params = init_params(tiny_config())
        params.biases[-1][0] = np.finfo(np.float64).max
        grads = backward(params, np.ones((1, 3)), (np.zeros((1, 2)), np.zeros((1, 2))))
        grads.d_biases[-1][0] = -1.0  # Adam's first step moves it by lr: past the largest float
        with pytest.raises(NumericError, match="after update"), np.errstate(over="ignore"):
            optimizer_step(params, grads, lr=1e300)

    def test_quadratic_bowl_converges(self, rng):
        # realizable affine target: the squared loss bowl bottoms out at zero
        config = tiny_config(layer_widths=(), num_treatments=1, input_dim=2, seed=1)
        params = init_params(config)
        x = rng.standard_normal((16, 2))
        target = (x @ rng.standard_normal((2, 2)) + rng.standard_normal(2)).T  # (2m, n)
        loss = np.inf
        for _ in range(2000):
            out, _ = forward_cached(params, x)
            diff = out - target
            loss = float(np.sum(diff * diff))
            if loss < 1e-4:
                break
            up = 2 * diff[:1].T, 2 * diff[1:].T
            optimizer_step(params, backward(params, x, up), lr=1e-2)
        assert loss < 1e-4

    def test_bad_lr_rejected(self):
        params = init_params(tiny_config())
        g = backward(params, np.ones((1, 3)), (np.zeros((1, 2)), np.zeros((1, 2))))
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

    def test_cross_entropy_step_matches_manual_step(self):
        # one full-batch step: the gradient of the weighted cross-entropy of
        # the observed logits, w * (sigmoid(z) - y), through backward
        data, _ = generate_synthetic(GeneratorConfig(n=300, m=3, d=4, noise=0.2), seed=4)
        data = make_dataset(treatment=data.treatment, revenue=data.revenue > 1.0,
                            cost=data.cost > np.median(data.cost), num_treatments=3,
                            features=data.features)
        config = tiny_config(num_treatments=3, input_dim=4, seed=3)
        params, manual = init_params(config), init_params(config)
        warm_start(params, data, epochs=1, objective="cross-entropy", lr=1e-2)
        pred = forward(manual, data.features)
        rows, t = np.arange(data.n), data.treatment
        w = 1.0 / (data.n * 3 * data.sample_propensity())
        up = []
        for z, y in ((pred.revenue, data.revenue), (pred.cost, data.cost)):
            grad = np.zeros((data.n, 3))
            grad[rows, t] = w * (1.0 / (1.0 + np.exp(-z[rows, t])) - y)
            up.append(grad)
        optimizer_step(manual, backward(manual, data.features, up), 1e-2)
        for a, b in zip(params.weights + params.biases, manual.weights + manual.biases):
            np.testing.assert_array_equal(a, b)


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
        up = rng.standard_normal((5, 2)), np.zeros((5, 2))
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

    def test_body_is_the_flat_vector(self, tmp_path, rng):
        params = init_params(tiny_config(layer_widths=(7, 3), seed=4))
        params.flat += 0.01 * rng.standard_normal(params.flat.size)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        raw, body = path.read_bytes(), params.flat.astype("<f8").tobytes()
        assert body == b"".join(a.astype("<f8").tobytes() for pair in
                                zip(params.weights, params.biases) for a in pair)
        assert raw[12 + int.from_bytes(raw[8:12], "little"):] == body

    def test_save_load_save_is_byte_identical(self, tmp_path, rng):
        params = init_params(tiny_config(layer_widths=(4, 2), activation="tanh", seed=6))
        params.flat += rng.standard_normal(params.flat.size)
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(first, params, extra={"k": [1, 2]})
        loaded, extra = load_checkpoint(first)
        save_checkpoint(second, loaded, extra=extra)
        assert first.read_bytes() == second.read_bytes()
        assert (tmp_path / "a.ckpt.manifest").read_bytes() == \
            (tmp_path / "b.ckpt.manifest").read_bytes()
        assert loaded.flat.flags.writeable and loaded.flat.dtype == np.float64

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

    @pytest.mark.parametrize("key, value", [("num_treatments", 2.0),
                                            ("layer_widths", [float("inf")])])
    def test_config_counts_must_be_integers(self, tmp_path, key, value):
        # 2.0 treatments loaded and failed in forward's slicing with TypeError;
        # an infinite width raised OverflowError while the header was read
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_params(tiny_config()))
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[8:12], "little")
        header = json.loads(raw[12:12 + hlen])
        header["config"][key] = value
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + hlen:])
        with pytest.raises(ValidationError, match="unreadable checkpoint header"):
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
