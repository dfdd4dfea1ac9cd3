import numpy as np
import pytest

from treatalloc.exceptions import ValidationError
from treatalloc.gradients import (GradientPair, dual_flip_gradient,
                                  flip_fd_gradient, gradient_inner_loss,
                                  ips_dual_loss, softmax_flip_gradient,
                                  _softmax_flip_scores)
from treatalloc.losses import LambdaGrid, row_softmax
from treatalloc.solver import PredictionMatrix, decide_dual

from conftest import central_differences, make_dataset, random_instance


class TestIpsDualLoss:
    def test_no_matches_gives_zero(self):
        data = make_dataset(treatment=[1, 1], revenue=[5.0, 7.0], cost=[1.0, 1.0],
                            num_treatments=2, propensities=[0.0, 1.0])
        # scores favor treatment 0 for every row
        pred = PredictionMatrix([[5.0, 0.0], [5.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]])
        assert ips_dual_loss(data, pred, 0.5) == 0.0

    def test_hand_example(self):
        data = make_dataset(treatment=[0, 1], revenue=[1.0, 2.0], cost=[0.0, 1.0],
                            num_treatments=2, propensities=[0.5, 0.5])
        # choices [0, 1] at lam=1: rbar = (1/2)(2*1 + 2*2) = 3, cbar = 1
        pred = PredictionMatrix([[5.0, 0.0], [0.0, 5.0]], [[0.0, 0.0], [0.0, 0.0]])
        assert ips_dual_loss(data, pred, 1.0) == pytest.approx(-2.0)

    def test_all_matched_lambda_zero_scales_mean_revenue(self, rng):
        m = 3
        n = 12
        t = rng.integers(0, m, n)
        t[:m] = np.arange(m)
        data = make_dataset(treatment=t, revenue=rng.uniform(0, 4, n),
                            cost=rng.uniform(0, 1, n), num_treatments=m,
                            propensities=np.full(m, 1 / m))
        revenue = np.zeros((n, m))
        revenue[np.arange(n), t] = 1.0  # argmax equals observed treatment
        pred = PredictionMatrix(revenue, np.zeros((n, m)))
        expected = -float(np.sum(data.revenue * m)) / n  # scripted direct formula
        assert ips_dual_loss(data, pred, 0.0) == pytest.approx(expected)


class TestDualFlipGradient:
    def test_zero_reward_sample_gets_zero_rows(self):
        data = make_dataset(treatment=[0], revenue=[2.0], cost=[2.0],
                            num_treatments=2, propensities=[1.0, 0.0])
        pred = PredictionMatrix([[3.0, 1.0]], [[0.0, 0.0]])
        g = dual_flip_gradient(data, pred, LambdaGrid((1.0,)))  # reward 2-2=0
        assert not g.d_revenue.any() and not g.d_cost.any()

    def test_hand_trace_single_matching_sample(self):
        # scores [2, 1], observed treatment 0, reward 2 at lam=1; leaving the
        # matched set raises the loss by 2; flip steps are -1 (own column)
        # and +1 (other column), so the revenue gradients are -2 and +2
        data = make_dataset(treatment=[0], revenue=[3.0], cost=[1.0],
                            num_treatments=2, propensities=[1.0, 0.0])
        pred = PredictionMatrix([[2.0, 1.0]], [[0.0, 0.0]])
        g = dual_flip_gradient(data, pred, LambdaGrid((1.0,)))
        assert g.d_revenue[0].tolist() == [-2.0, 2.0]
        assert g.d_cost[0].tolist() == [2.0, -2.0]

    def test_matches_flip_fd_oracle(self, rng):
        grid = LambdaGrid((0.3, 1.1, 2.0))
        for _ in range(20):
            data, pred = random_instance(rng, min_gap=1e-4)
            fast = dual_flip_gradient(data, pred, grid)
            ref = flip_fd_gradient(data, pred, grid)
            np.testing.assert_allclose(fast.d_revenue, ref.d_revenue, atol=1e-9)
            np.testing.assert_allclose(fast.d_cost, ref.d_cost, atol=1e-9)

    def test_centered_matches_flip_fd_oracle(self, rng):
        grid = LambdaGrid((0.3, 1.1, 2.0))
        for _ in range(20):
            data, pred = random_instance(rng, min_gap=1e-4)
            fast = dual_flip_gradient(data, pred, grid, centered=True)
            ref = flip_fd_gradient(data, pred, grid, centered=True)
            np.testing.assert_allclose(fast.d_revenue, ref.d_revenue, atol=1e-9)
            np.testing.assert_allclose(fast.d_cost, ref.d_cost, atol=1e-9)
            plain = dual_flip_gradient(data, pred, grid)
            assert not np.allclose(fast.d_revenue, plain.d_revenue)

    def test_positive_perturbation_of_matched_choice_never_raises_loss(self, rng):
        grid = LambdaGrid((0.7,))
        data, pred = random_instance(rng, n=15, m=3, min_gap=1e-4)
        base = ips_dual_loss(data, pred, 0.7)
        choice = decide_dual(pred, 0.7).choice
        matched = np.where((choice == data.treatment)
                           & (data.revenue - 0.7 * data.cost > 0))[0]
        for i in matched[:5]:
            for h in (1e-3, 0.1, 10.0):
                bumped = pred.revenue.copy()
                bumped[i, data.treatment[i]] += h
                after = ips_dual_loss(data, PredictionMatrix(bumped, pred.cost), 0.7)
                assert after <= base + 1e-12

    def test_locality_other_rows_unchanged(self, rng):
        grid = LambdaGrid((0.4, 1.5))
        data, pred = random_instance(rng, n=12, m=3, min_gap=1e-4)
        g1 = dual_flip_gradient(data, pred, grid)
        bumped = pred.revenue.copy()
        bumped[3] = bumped[3] + 0.37  # move one row's predictions
        g2 = dual_flip_gradient(data, PredictionMatrix(bumped, pred.cost), grid)
        mask = np.ones(12, dtype=bool)
        mask[3] = False
        np.testing.assert_array_equal(g1.d_revenue[mask], g2.d_revenue[mask])
        np.testing.assert_array_equal(g1.d_cost[mask], g2.d_cost[mask])

    def test_grid_additivity_exact(self, rng):
        data, pred = random_instance(rng, n=10, m=3)
        joint = dual_flip_gradient(data, pred, LambdaGrid((0.3, 1.2)))
        a = dual_flip_gradient(data, pred, LambdaGrid((0.3,)))
        b = dual_flip_gradient(data, pred, LambdaGrid((1.2,)))
        np.testing.assert_array_equal(joint.d_revenue, a.d_revenue + b.d_revenue)
        np.testing.assert_array_equal(joint.d_cost, a.d_cost + b.d_cost)

    def test_lambda_zero_skips_cost_gradients(self, rng):
        data, pred = random_instance(rng, n=8, m=3)
        diag = {}
        g = dual_flip_gradient(data, pred, LambdaGrid((0.0,)), diagnostics=diag)
        assert not g.d_cost.any()
        assert diag["skipped_cost_lambdas"] == [0.0]

    def test_step_floor_bounds_gradient_magnitude(self):
        # near-tied scores: gap 1e-9 is floored to 1e-6
        data = make_dataset(treatment=[0], revenue=[3.0], cost=[1.0],
                            num_treatments=2, propensities=[1.0, 0.0])
        pred = PredictionMatrix([[1.0 + 1e-9, 1.0]], [[0.0, 0.0]])
        g = dual_flip_gradient(data, pred, LambdaGrid((1.0,)))
        assert abs(g.d_revenue[0, 0]) == pytest.approx(2.0 / 1e-6)


class TestGradientInnerLoss:
    def test_zero_gradient_gives_zero(self, rng):
        _, pred = random_instance(rng, n=5, m=3)
        g = GradientPair(np.zeros((5, 3)), np.zeros((5, 3)))
        assert gradient_inner_loss(pred, g) == 0.0

    def test_all_ones_gradient_sums_predictions(self, rng):
        _, pred = random_instance(rng, n=5, m=3)
        g = GradientPair(np.ones((5, 3)), np.ones((5, 3)))
        assert gradient_inner_loss(pred, g) == pytest.approx(
            pred.revenue.sum() + pred.cost.sum()
        )

    def test_backward_routes_gradients_to_heads(self, rng):
        # finite differences of the inner loss through a tiny model recover
        # the constant gradient matrices at the output heads
        from treatalloc.model import ModelConfig, backward, forward, init_params

        config = ModelConfig(layer_widths=(4,), num_treatments=2, input_dim=3, seed=0)
        params = init_params(config)
        x = rng.standard_normal((6, 3))
        g = GradientPair(rng.standard_normal((6, 2)), rng.standard_normal((6, 2)))
        grads = backward(params, x, g)
        h = 1e-6
        w = params.weights[0]
        for idx in [(0, 0), (2, 1), (1, 3)]:
            keep = w[idx]
            w[idx] = keep + h
            up = gradient_inner_loss(forward(params, x), g)
            w[idx] = keep - h
            down = gradient_inner_loss(forward(params, x), g)
            w[idx] = keep
            assert grads.d_weights[0][idx] == pytest.approx(
                (up - down) / (2 * h), rel=1e-4, abs=1e-8
            )


class TestSoftmaxFlip:
    def test_uniform_row_gradient_nonzero_for_matched_reward(self):
        data = make_dataset(treatment=[0], revenue=[3.0], cost=[1.0],
                            num_treatments=2, propensities=[1.0, 0.0])
        pred = PredictionMatrix([[1.0, 1.0]], [[0.5, 0.5]])
        a = row_softmax(pred.revenue - 1.0 * pred.cost)
        g = _softmax_flip_scores(data, a, 1.0, step_floor=1e-6, step_cap=0.5)
        assert g[0, 0] != 0.0 and g[0, 1] != 0.0

    def test_step_cap_truncates_dominated_column(self):
        # winner weight ~1, dominated weight < 1e-12: flip step ~1 > cap 0.5,
        # so the dominated column's gradient is the loss jump over the cap
        data = make_dataset(treatment=[0], revenue=[3.0], cost=[1.0],
                            num_treatments=2, propensities=[1.0, 0.0])
        pred = PredictionMatrix([[30.0, 0.0]], [[0.0, 0.0]])
        a = row_softmax(pred.revenue - 1.0 * pred.cost)
        assert a[0, 1] < 1e-12
        g = _softmax_flip_scores(data, a, 1.0, step_floor=1e-6, step_cap=0.5)
        assert g[0, 1] == pytest.approx(2.0 / 0.5)   # leaving jump over capped step
        assert g[0, 0] == pytest.approx(-2.0 / 0.5)

    def test_argmax_of_smoothed_scores_matches_hard_choice(self, rng):
        data, pred = random_instance(rng, n=20, m=4, min_gap=1e-4)
        for lam in (0.2, 1.3):
            hard = decide_dual(pred, lam).choice
            soft = np.argmax(row_softmax(pred.revenue - lam * pred.cost), axis=1)
            assert np.array_equal(hard, soft)

    def test_loss_and_gradient_shapes(self, rng):
        data, pred = random_instance(rng, n=9, m=3)
        grid = LambdaGrid((0.5, 1.4))
        loss, g = softmax_flip_gradient(data, pred, grid)
        assert np.isfinite(loss)
        assert g.d_revenue.shape == (9, 3)

    def test_softmax_chain_rule_against_finite_differences(self, rng):
        # the score-space gradients are fixed; the analytic softmax Jacobian
        # must match numeric differentiation of sum(g * softmax(scores))
        data, pred = random_instance(rng, n=5, m=3, min_gap=1e-3)
        grid = LambdaGrid((0.8,))
        lam = 0.8
        a = row_softmax(pred.revenue - lam * pred.cost)
        g_fixed = _softmax_flip_scores(data, a, lam, 1e-6, 0.5)
        _, grad = softmax_flip_gradient(data, pred, grid)
        for _, i, j, fd in central_differences(
                pred, ("revenue",), 1e-7,
                lambda p: float(np.sum(g_fixed * row_softmax(p.revenue - lam * p.cost)))):
            assert grad.d_revenue[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def test_gradient_pair_validation():
    with pytest.raises(ValidationError):
        GradientPair(np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(ValidationError):
        GradientPair(np.full((2, 2), np.inf), np.zeros((2, 2)))
