import numpy as np
import pytest

from treatalloc.data import CounterfactualMatrix, GeneratorConfig, RctDataset, \
    generate_synthetic
from treatalloc.exceptions import ConfigError, ValidationError
from treatalloc.losses import (BudgetGrid, LambdaGrid, _softmax, full_mse,
                               max_entropy_loss, observed_rewards, oracle_dual_losses,
                               policy_learning_loss, prediction_loss,
                               prediction_loss_grad, row_softmax,
                               tempered_policy_loss, tempered_policy_loss_grad)
from treatalloc.solver import PredictionMatrix

from conftest import (central_differences, dyadic_instance, make_dataset, random_instance,
                      tie_heavy_instance)

BUILDERS = {
    "random": lambda rng, n, m: random_instance(rng, n=n, m=m)[1],
    "dyadic": dyadic_instance,
    "tie-heavy": tie_heavy_instance,
}


def reference_softmax(scores):
    """The row-major formula that the treatment-major kernel replaced."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def reference_policy_loss_grad(data, pred, grid, tau, centered):
    """The row-major loop that the treatment-major kernel replaced."""
    rows = np.arange(data.n)
    weight = 1.0 / (data.n * data.sample_propensity())
    d_rev = np.zeros_like(pred.revenue)
    d_cost = np.zeros_like(pred.cost)
    total = 0.0
    for lam in grid:
        w = reference_softmax((pred.revenue - lam * pred.cost) / tau)
        w_obs = w[rows, data.treatment]
        reward, baseline = observed_rewards(data, lam, centered)
        beta = weight * reward
        total += -float(np.sum(beta * w_obs)) - baseline
        ds = (beta * w_obs)[:, None] * w
        ds[rows, data.treatment] -= beta * w_obs
        d_rev += ds / tau
        d_cost += ds * (-lam / tau)
    return total, d_rev, d_cost


class TestTreatmentMajorKernels:
    """The softmax kernels reduce over axis 0 of (m, n) copies. Up to m = 7
    numpy adds the m terms of either layout left to right, so the results
    are the row-major formula's bits; from m = 8 its pairwise summation
    groups them differently, which moves a value by a few ulps."""

    def scores(self, rng, builder, n, m):
        pred = BUILDERS[builder](rng, n, m)
        for lam, tau in ((0.0, 1.0), (0.7, 0.1), (2.0, 3.0)):
            yield (pred.revenue - lam * pred.cost) / tau

    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize("m", range(2, 8))
    def test_softmax_bitwise_equals_row_major_formula(self, rng, builder, m):
        for n in (1, 7, 300):
            for scores in self.scores(rng, builder, n, m):
                expected = reference_softmax(scores)
                assert np.array_equal(_softmax(np.ascontiguousarray(scores.T)).T, expected)
                got = row_softmax(scores)
                assert np.array_equal(got, expected) and got.flags.c_contiguous

    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize("m", [8, 9, 12, 33])
    def test_softmax_close_to_row_major_formula_from_eight_treatments(self, rng, builder, m):
        for scores in self.scores(rng, builder, 300, m):
            np.testing.assert_allclose(row_softmax(scores), reference_softmax(scores),
                                       rtol=2 * m * np.finfo(float).eps, atol=0)

    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize("m", range(2, 8))
    def test_policy_loss_grad_bitwise_equals_row_major_loop(self, rng, builder, m):
        grid = LambdaGrid((0.0, 0.5, 1.0, 2.0))
        for n in (1, 40):
            data, _ = random_instance(rng, n=n, m=m)
            pred = BUILDERS[builder](rng, data.n, m)
            for tau, centered in ((1.0, False), (0.1, True)):
                got = tempered_policy_loss_grad(data, pred, grid, tau, centered)
                expected = reference_policy_loss_grad(data, pred, grid, tau, centered)
                assert repr(got[0]) == repr(expected[0])
                assert np.array_equal(got[1], expected[1])
                assert np.array_equal(got[2], expected[2])


def resampled_dataset(truth, rng):
    """Fresh uniform assignment over fixed individuals (re-randomization)."""
    n, m = truth.revenue.shape
    t = rng.integers(0, m, n)
    rows = np.arange(n)
    return RctDataset(
        ids=np.arange(n), features=np.zeros((n, 1)), treatment=t,
        revenue=truth.revenue[rows, t], cost=truth.cost[rows, t],
        num_treatments=m,
    )


class TestGrids:
    def test_lambda_grid_validation(self):
        with pytest.raises(ValidationError):
            LambdaGrid(())
        with pytest.raises(ValidationError):
            LambdaGrid((-0.1, 0.5))
        with pytest.raises(ValidationError):
            LambdaGrid((0.5, 0.5))
        assert list(LambdaGrid((0.0, 0.5, 1.0))) == [0.0, 0.5, 1.0]

    def test_budget_grid_allows_duplicates_but_not_descending(self):
        assert len(BudgetGrid((1.0, 1.0, 2.0))) == 3
        with pytest.raises(ValidationError):
            BudgetGrid((2.0, 1.0))

    def test_budget_grid_rejects_nan_keeps_infinity(self):
        with pytest.raises(ValidationError, match="budgets must be >= 0"):
            BudgetGrid((0.1, float("nan")))
        with pytest.raises(ValidationError):
            BudgetGrid((float("nan"),))
        assert list(BudgetGrid((0.1, float("inf")))) == [0.1, float("inf")]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_lambda_grid_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            LambdaGrid((0.1, bad))


class TestPredictionLoss:
    def test_perfect_observed_entries_give_zero(self, rng):
        data, _ = random_instance(rng, n=12, m=3)
        rows = np.arange(data.n)
        revenue = rng.uniform(0, 5, (12, 3))
        cost = rng.uniform(0, 2, (12, 3))
        revenue[rows, data.treatment] = data.revenue
        cost[rows, data.treatment] = data.cost
        assert prediction_loss(data, PredictionMatrix(revenue, cost)) == 0.0

    def test_hand_example_two_samples(self):
        # both observed at treatment 0; residuals (1,0) and (0,1) on (r,c):
        # (1/M) * sum_i (1/N_0) * [...] = (1/2) * [(1/2)*1 + (1/2)*1] = 0.5
        data = make_dataset(treatment=[0, 0], revenue=[1.0, 2.0], cost=[3.0, 4.0],
                            num_treatments=2, propensities=[1.0, 0.0])
        pred = PredictionMatrix([[2.0, 9.0], [2.0, 9.0]], [[3.0, 9.0], [3.0, 9.0]])
        assert prediction_loss(data, pred) == pytest.approx(0.5)

    def test_unbiased_for_full_mse_under_rerandomization(self, rng):
        config = GeneratorConfig(n=200, m=3, d=3, noise=0.4)
        _, truth = generate_synthetic(config, seed=5)
        pred = PredictionMatrix(rng.uniform(0, 3, (200, 3)),
                                rng.uniform(0, 1.5, (200, 3)))
        target = full_mse(truth, pred)
        draws = np.mean([
            prediction_loss(resampled_dataset(truth, rng), pred)
            for _ in range(3000)
        ])
        assert draws == pytest.approx(target, rel=0.03)

    def test_gradient_matches_finite_differences(self, rng):
        data, pred = random_instance(rng, n=6, m=3)
        loss, d_rev, d_cost = prediction_loss_grad(data, pred)
        assert repr(loss) == repr(prediction_loss(data, pred))
        grads = {"revenue": d_rev, "cost": d_cost}
        for field, i, j, fd in central_differences(
                pred, grads, 1e-6, lambda p: prediction_loss(data, p)):
            assert grads[field][i, j] == pytest.approx(fd, abs=1e-5)


class TestFullMse:
    def test_identity_is_zero(self, rng):
        _, truth = generate_synthetic(GeneratorConfig(n=30, m=3, d=2), seed=0)
        assert full_mse(truth, PredictionMatrix(truth.revenue, truth.cost)) == 0.0

    def test_constant_offset_revenue(self, rng):
        _, truth = generate_synthetic(GeneratorConfig(n=30, m=3, d=2), seed=0)
        pred = PredictionMatrix(truth.revenue + 1.0, truth.cost)
        assert full_mse(truth, pred) == pytest.approx(1.0)

    def test_matches_scalar_double_loop(self, rng):
        _, truth = generate_synthetic(GeneratorConfig(n=14, m=4, d=2), seed=1)
        pred = PredictionMatrix(rng.uniform(0, 3, (14, 4)), rng.uniform(0, 2, (14, 4)))
        total = 0.0
        for i in range(14):
            for j in range(4):
                total += (truth.revenue[i, j] - pred.revenue[i, j]) ** 2
                total += (truth.cost[i, j] - pred.cost[i, j]) ** 2
        assert full_mse(truth, pred) == pytest.approx(total / (14 * 4), abs=1e-12)


class TestPolicyLoss:
    def test_single_sample_uniform_softmax(self):
        data = make_dataset(treatment=[0], revenue=[2.0], cost=[1.0],
                            num_treatments=2, propensities=[1.0, 0.0])
        pred = PredictionMatrix([[1.0, 1.0]], [[0.5, 0.5]])
        grid = LambdaGrid((0.5, 1.5))
        expected = -(2.0 - 0.5 * 1.0) * 0.5 + -(2.0 - 1.5 * 1.0) * 0.5
        assert policy_learning_loss(data, pred, grid) == pytest.approx(expected)

    def test_row_shift_invariance(self, rng):
        data, pred = random_instance(rng, n=9, m=3)
        grid = LambdaGrid((0.2, 1.0))
        base = policy_learning_loss(data, pred, grid)
        shifted = PredictionMatrix(pred.revenue + rng.uniform(-5, 5, (9, 1)),
                                   pred.cost)
        assert policy_learning_loss(data, shifted, grid) == pytest.approx(base, abs=1e-12)

    def test_score_preserving_translation_single_lambda(self, rng):
        data, pred = random_instance(rng, n=9, m=3)
        lam = 0.7
        delta = rng.uniform(-2, 2, (9, 1))
        shifted = PredictionMatrix(pred.revenue + lam * delta, pred.cost + delta)
        grid = LambdaGrid((lam,))
        assert policy_learning_loss(data, shifted, grid) == pytest.approx(
            policy_learning_loss(data, pred, grid), abs=1e-12
        )

    def test_grid_additivity_exact(self, rng):
        data, pred = random_instance(rng, n=11, m=4)
        joint = policy_learning_loss(data, pred, LambdaGrid((0.3, 1.2)))
        parts = policy_learning_loss(data, pred, LambdaGrid((0.3,))) + \
            policy_learning_loss(data, pred, LambdaGrid((1.2,)))
        assert joint == parts

    def test_unbiased_for_softmax_oracle_loss(self, rng):
        config = GeneratorConfig(n=200, m=3, d=3, noise=0.4)
        _, truth = generate_synthetic(config, seed=9)
        pred = PredictionMatrix(rng.uniform(0, 3, (200, 3)),
                                rng.uniform(0, 1.5, (200, 3)))
        grid = LambdaGrid((0.4, 1.1))
        _, soft, _ = oracle_dual_losses(truth, pred, grid, tau=1.0)
        draws = np.mean([
            policy_learning_loss(resampled_dataset(truth, rng), pred, grid)
            for _ in range(3000)
        ])
        assert draws == pytest.approx(soft, rel=0.03)


class TestTemperedLoss:
    def test_tau_one_bitwise_equal_to_policy_loss(self, rng):
        for _ in range(10):
            data, pred = random_instance(rng)
            grid = LambdaGrid((0.1, 0.8, 2.0))
            assert max_entropy_loss(data, pred, grid, tau=1.0) == \
                policy_learning_loss(data, pred, grid)

    def test_large_tau_approaches_uniform_policy(self, rng):
        data, pred = random_instance(rng, n=15, m=3)
        grid = LambdaGrid((0.5, 1.5))
        w = 1.0 / (data.n * data.sample_propensity())
        expected = sum(
            -float(np.sum(w * (data.revenue - lam * data.cost))) / 3
            for lam in grid
        )
        got = tempered_policy_loss(data, pred, grid, tau=1e6)
        assert got == pytest.approx(expected, rel=1e-6)

    def test_small_tau_sharpens_softmax(self):
        w = row_softmax(np.array([[0.1, 0.0]]) / 0.01)
        assert w[0, 0] > 0.999

    def test_tau_must_be_positive(self, rng):
        data, pred = random_instance(rng, n=4, m=2)
        with pytest.raises(ConfigError):
            tempered_policy_loss(data, pred, LambdaGrid((0.5,)), tau=0.0)

    def test_gradient_matches_finite_differences(self, rng):
        data, pred = random_instance(rng, n=5, m=3)
        grid = LambdaGrid((0.3, 1.1))
        tau = 0.7
        value, d_rev, d_cost = tempered_policy_loss_grad(data, pred, grid, tau)
        assert value == pytest.approx(tempered_policy_loss(data, pred, grid, tau))
        grads = {"revenue": d_rev, "cost": d_cost}
        for field, i, j, fd in central_differences(
                pred, grads, 1e-6, lambda p: tempered_policy_loss(data, p, grid, tau)):
            assert grads[field][i, j] == pytest.approx(fd, abs=1e-5)


class TestCenteredPolicyLoss:
    def test_baseline_added_back_to_value(self, rng):
        data, pred = random_instance(rng, n=12, m=3)
        grid = LambdaGrid((0.4, 1.3))
        expected = 0.0
        rows = np.arange(12)
        weight = 1.0 / (data.n * data.sample_propensity())
        for lam in grid:
            w = row_softmax(pred.revenue - lam * pred.cost)[rows, data.treatment]
            reward = data.revenue - lam * data.cost
            base = reward.mean()
            expected += -float(np.sum(weight * (reward - base) * w)) - base
        got = tempered_policy_loss(data, pred, grid, tau=1.0, centered=True)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        data, pred = random_instance(rng, n=5, m=3)
        grid = LambdaGrid((0.3, 1.1))
        tau = 0.7
        value, d_rev, d_cost = tempered_policy_loss_grad(data, pred, grid, tau,
                                                         centered=True)
        assert value == pytest.approx(
            tempered_policy_loss(data, pred, grid, tau, centered=True))
        _, plain_rev, _ = tempered_policy_loss_grad(data, pred, grid, tau)
        assert not np.allclose(d_rev, plain_rev)
        grads = {"revenue": d_rev, "cost": d_cost}
        for field, i, j, fd in central_differences(
                pred, grads, 1e-6,
                lambda p: tempered_policy_loss(data, p, grid, tau, centered=True)):
            assert grads[field][i, j] == pytest.approx(fd, abs=1e-5)

    def test_unbiased_for_softmax_oracle_loss(self):
        # the acceptance check's instance and 1% bound for the plain loss
        rng = np.random.default_rng(20240104)
        _, truth = generate_synthetic(
            GeneratorConfig(n=1000, m=3, d=4, noise=0.4), seed=41)
        pred = PredictionMatrix(rng.uniform(0, 3, (1000, 3)),
                                rng.uniform(0, 1.5, (1000, 3)))
        grid = LambdaGrid((0.4, 1.1))
        _, soft, _ = oracle_dual_losses(truth, pred, grid, tau=1.0)
        draws = np.mean([
            tempered_policy_loss(resampled_dataset(truth, rng), pred, grid,
                                 tau=1.0, centered=True)
            for _ in range(2000)
        ])
        assert abs(draws - soft) / abs(soft) < 0.01


class TestOracleDualLosses:
    def test_order_preserving_rescale_matches_truth_argmax(self, rng):
        _, truth = generate_synthetic(GeneratorConfig(n=25, m=3, d=2, noise=0.2), seed=2)
        pred = PredictionMatrix(2.0 * truth.revenue, 2.0 * truth.cost)
        grid = LambdaGrid((0.4, 1.3))
        hard, _, _ = oracle_dual_losses(truth, pred, grid, tau=1.0)
        expected = 0.0
        for lam in grid:
            reward = truth.revenue - lam * truth.cost
            expected += -float(reward[np.arange(25), np.argmax(reward, axis=1)].sum()) / 25
        assert hard == pytest.approx(expected, abs=1e-12)

    def test_small_tau_limit_equals_hard_loss(self, rng):
        data, pred = random_instance(rng, n=20, m=4, min_gap=1e-3)
        _, truth_like = random_instance(rng, n=20, m=4)
        truth = CounterfactualMatrix(truth_like.revenue, truth_like.cost)
        grid = LambdaGrid((0.3, 1.1, 2.0))
        hard, _, tempered = oracle_dual_losses(truth, pred, grid, tau=1e-4)
        assert tempered == pytest.approx(hard, abs=1e-6)

    def test_uniform_scores_average_rewards(self, rng):
        _, truth = generate_synthetic(GeneratorConfig(n=30, m=3, d=2), seed=4)
        pred = PredictionMatrix(np.zeros((30, 3)), np.zeros((30, 3)))
        grid = LambdaGrid((0.6,))
        _, soft, _ = oracle_dual_losses(truth, pred, grid, tau=1.0)
        reward = truth.revenue - 0.6 * truth.cost
        assert soft == pytest.approx(-float(reward.mean(axis=1).sum()) / 30)


def test_row_softmax_is_stable_for_huge_logits():
    w = row_softmax(np.array([[1e6, 0.0], [-1e6, 0.0]]))
    assert np.isfinite(w).all()
    assert w[0, 0] == pytest.approx(1.0)
    assert w[1, 1] == pytest.approx(1.0)
