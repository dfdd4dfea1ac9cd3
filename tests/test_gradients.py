import numpy as np
import pytest

from treatalloc.exceptions import ValidationError
from treatalloc.gradients import (GradientPair, dual_flip_gradient,
                                  flip_fd_gradient, gradient_inner_loss,
                                  ips_dual_loss, softmax_flip_gradient,
                                  _flip_gaps, _softmax_flip_scores)
from treatalloc.losses import LambdaGrid, observed_rewards, row_softmax
from treatalloc.solver import PredictionMatrix, decide_dual

from conftest import (BUILDERS, central_differences, instances, make_dataset,
                      planted_ties, random_instance)


def reference_flip_gaps(a, t):
    """The (gap, sign) kernel as first written: int8 sign from a broadcast."""
    rows = np.arange(a.shape[0])
    jstar = np.argmax(a, axis=1)
    amax = a[rows, jstar]
    gap = a.copy()
    gap[rows, jstar] = -np.inf
    second = np.argmax(gap, axis=1)
    np.subtract(amax[:, None], a, out=gap)
    gap[rows, jstar] = amax - a[rows, second]
    match = jstar == t
    sign = np.broadcast_to(match[:, None], a.shape).astype(np.int8)
    sign[rows, t] = -1
    runner_up = np.flatnonzero(~match & (second == t))
    sign[runner_up, jstar[runner_up]] = 1
    return gap, sign


def reference_flip_gradients(data, pred, grid, step_floor, step_cap, centered):
    """Both flip heads in the row-major out-of-place form they replaced."""
    n_p = data.n * data.sample_propensity()
    grads = {name: [np.zeros_like(pred.revenue), np.zeros_like(pred.cost)]
             for name in ("plain", "softmax")}
    for lam in grid:
        scores = pred.revenue - lam * pred.cost
        reward = observed_rewards(data, lam, centered)[0]
        xt = (reward * (1.0 / n_p))[:, None]
        gap, sign = reference_flip_gaps(scores, data.treatment)
        grads["plain"][0] += xt / np.maximum(gap, step_floor) * sign
        if lam > 0:
            grads["plain"][1] -= xt / np.maximum(gap / lam, step_floor) * sign
        a = row_softmax(scores)
        gap, sign = reference_flip_gaps(a, data.treatment)
        g = (reward / n_p)[:, None] / np.clip(gap, step_floor, step_cap) * sign
        ds = a * (g - np.sum(g * a, axis=1, keepdims=True))
        grads["softmax"][0] += ds
        grads["softmax"][1] += -lam * ds
    return grads


class TestIpsDualLoss:
    def test_no_matches_gives_zero(self):
        data = make_dataset(treatment=[1, 1], revenue=[5.0, 7.0], cost=[1.0, 1.0],
                            num_treatments=2, propensities=[0.0, 1.0])
        # scores favor treatment 0 for every row
        pred = PredictionMatrix([[5.0, 0.0], [5.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]])
        assert ips_dual_loss(data, pred, 0.5) == 0.0

    @pytest.mark.parametrize("lam", [-0.1, float("nan"), float("inf")])
    def test_multiplier_outside_finite_nonnegative_rejected(self, lam):
        data = make_dataset(treatment=[0, 1], revenue=[1.0, 2.0], cost=[0.0, 1.0],
                            num_treatments=2)
        pred = PredictionMatrix([[5.0, 0.0], [0.0, 5.0]], [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError):
            ips_dual_loss(data, pred, lam)

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
        _, g = dual_flip_gradient(data, pred, LambdaGrid((1.0,)))  # reward 2-2=0
        assert not g.d_revenue.any() and not g.d_cost.any()

    def test_hand_trace_single_matching_sample(self):
        # scores [2, 1], observed treatment 0, reward 2 at lam=1; leaving the
        # matched set raises the loss by 2; flip steps are -1 (own column)
        # and +1 (other column), so the revenue gradients are -2 and +2
        data = make_dataset(treatment=[0], revenue=[3.0], cost=[1.0],
                            num_treatments=2, propensities=[1.0, 0.0])
        pred = PredictionMatrix([[2.0, 1.0]], [[0.0, 0.0]])
        _, g = dual_flip_gradient(data, pred, LambdaGrid((1.0,)))
        assert g.d_revenue[0].tolist() == [-2.0, 2.0]
        assert g.d_cost[0].tolist() == [2.0, -2.0]

    def test_matches_flip_fd_oracle(self, rng):
        grid = LambdaGrid((0.3, 1.1, 2.0))
        for _ in range(20):
            data, pred = random_instance(rng, min_gap=1e-4)
            _, fast = dual_flip_gradient(data, pred, grid)
            ref = flip_fd_gradient(data, pred, grid)
            np.testing.assert_allclose(fast.d_revenue, ref.d_revenue, atol=1e-9)
            np.testing.assert_allclose(fast.d_cost, ref.d_cost, atol=1e-9)

    def test_centered_matches_flip_fd_oracle(self, rng):
        grid = LambdaGrid((0.3, 1.1, 2.0))
        for _ in range(20):
            data, pred = random_instance(rng, min_gap=1e-4)
            _, fast = dual_flip_gradient(data, pred, grid, centered=True)
            ref = flip_fd_gradient(data, pred, grid, centered=True)
            np.testing.assert_allclose(fast.d_revenue, ref.d_revenue, atol=1e-9)
            np.testing.assert_allclose(fast.d_cost, ref.d_cost, atol=1e-9)
            _, plain = dual_flip_gradient(data, pred, grid)
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
        _, g1 = dual_flip_gradient(data, pred, grid)
        bumped = pred.revenue.copy()
        bumped[3] = bumped[3] + 0.37  # move one row's predictions
        _, g2 = dual_flip_gradient(data, PredictionMatrix(bumped, pred.cost), grid)
        mask = np.ones(12, dtype=bool)
        mask[3] = False
        np.testing.assert_array_equal(g1.d_revenue[mask], g2.d_revenue[mask])
        np.testing.assert_array_equal(g1.d_cost[mask], g2.d_cost[mask])

    def test_grid_additivity_exact(self, rng):
        data, pred = random_instance(rng, n=10, m=3)
        _, joint = dual_flip_gradient(data, pred, LambdaGrid((0.3, 1.2)))
        _, a = dual_flip_gradient(data, pred, LambdaGrid((0.3,)))
        _, b = dual_flip_gradient(data, pred, LambdaGrid((1.2,)))
        np.testing.assert_array_equal(joint.d_revenue, a.d_revenue + b.d_revenue)
        np.testing.assert_array_equal(joint.d_cost, a.d_cost + b.d_cost)

    def test_lambda_zero_skips_cost_gradients(self, rng):
        data, pred = random_instance(rng, n=8, m=3)
        _, g = dual_flip_gradient(data, pred, LambdaGrid((0.0,)))
        assert not g.d_cost.any()

    def test_step_floor_bounds_gradient_magnitude(self):
        # near-tied scores: gap 1e-9 is floored to 1e-6
        data = make_dataset(treatment=[0], revenue=[3.0], cost=[1.0],
                            num_treatments=2, propensities=[1.0, 0.0])
        pred = PredictionMatrix([[1.0 + 1e-9, 1.0]], [[0.0, 0.0]])
        _, g = dual_flip_gradient(data, pred, LambdaGrid((1.0,)))
        assert abs(g.d_revenue[0, 0]) == pytest.approx(2.0 / 1e-6)


class TestKernelLoss:
    """Both flip kernels return the plain matched loss of the allocation they
    decide, summed over the grid: ``ips_dual_loss`` per multiplier, bitwise."""

    GRID = LambdaGrid((0.0, 0.5, 1.0, 2.0))  # halves tie the tie-heavy scores

    @pytest.mark.parametrize("centered", [False, True], ids=["plain", "centred"])
    def test_equals_summed_ips_dual_loss(self, rng, centered):
        for pred in instances(rng, 90):  # random, dyadic and tie-heavy
            n, m = pred.revenue.shape
            data = make_dataset(treatment=rng.integers(0, m, n),
                                revenue=rng.uniform(0, 5, n),
                                cost=rng.integers(0, 4, n) / 2.0, num_treatments=m)
            expected = repr(sum(ips_dual_loss(data, pred, lam) for lam in self.GRID))
            for kernel in (dual_flip_gradient, softmax_flip_gradient):
                assert repr(kernel(data, pred, self.GRID, centered=centered)[0]) == expected

    def test_softmax_kernel_decides_on_raw_scores(self):
        # softmax rounds the distinct scores 0 and 1e-17 to one probability;
        # the raw argmax picks column 1, the observed treatment, so the row
        # is matched: -(2 * 3 - 1.0 * 2 * 1)
        data = make_dataset(treatment=[1], revenue=[3.0], cost=[1.0],
                            num_treatments=2, propensities=[0.5, 0.5])
        pred = PredictionMatrix([[0.0, 1e-17]], [[0.0, 0.0]])
        a = row_softmax(pred.revenue - 1.0 * pred.cost)
        assert a[0, 0] == a[0, 1]
        loss, _ = softmax_flip_gradient(data, pred, LambdaGrid((1.0,)))
        assert loss == ips_dual_loss(data, pred, 1.0) == -4.0


class TestInPlaceHeads:
    """The flip heads work in place on their gap arrays; the bits stay those
    of the out-of-place formulas."""

    GRID = LambdaGrid((0.0, 0.5, 1.0, 2.0))

    @pytest.mark.parametrize("centered", [False, True], ids=["plain", "centred"])
    def test_bitwise_equal_to_out_of_place_formulas(self, rng, centered):
        for pred in instances(rng, 90):  # random, dyadic and tie-heavy
            n, m = pred.revenue.shape
            data = make_dataset(treatment=rng.integers(0, m, n),
                                revenue=rng.uniform(0, 5, n),
                                cost=rng.integers(0, 4, n) / 2.0, num_treatments=m)
            expected = reference_flip_gradients(data, pred, self.GRID, 0.05, 0.5, centered)
            plain = dual_flip_gradient(data, pred, self.GRID, 0.05, centered)[1]
            soft = softmax_flip_gradient(data, pred, self.GRID, 0.05, 0.5, centered)[1]
            for got, name in ((plain, "plain"), (soft, "softmax")):
                assert np.array_equal(got.d_revenue, expected[name][0])
                assert np.array_equal(got.d_cost, expected[name][1])


class TestTreatmentMajorFlip:
    """The flip kernels run on (m, n) copies with a comparison-only argmax;
    the row-major references above give the same bits. The softmax head's
    per-row sum adds m terms, left to right on either layout up to m = 7;
    from m = 8 numpy's pairwise row sum groups them differently."""

    GRID = LambdaGrid((0.0, 0.5, 1.0, 2.0))

    def cases(self, rng, builder, m):
        for n in (1, 7, 300):
            t = rng.integers(0, m, n)
            pred, t = planted_ties(BUILDERS[builder](rng, n, m), t)
            data = make_dataset(treatment=t, revenue=rng.uniform(0, 5, n),
                                cost=rng.integers(0, 4, n) / 2.0, num_treatments=m)
            yield data, pred

    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize("m", range(2, 10))
    def test_flip_gaps_equal_row_major_reference(self, rng, builder, m):
        for data, pred in self.cases(rng, builder, m):
            for lam in self.GRID:
                scores = pred.revenue - lam * pred.cost
                for a in (scores, row_softmax(scores)):
                    gap, sign, winner = _flip_gaps(a.T.copy(), data.treatment)
                    want_gap, want_sign = reference_flip_gaps(a, data.treatment)
                    assert np.array_equal(gap.T, want_gap)
                    assert np.array_equal(sign.T, want_sign) and sign.dtype == np.int8
                    assert np.array_equal(winner, np.argmax(a, axis=1))

    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize("m", range(2, 10))
    def test_kernels_equal_row_major_reference(self, rng, builder, m):
        eps = np.finfo(float).eps
        for data, pred in self.cases(rng, builder, m):
            loss = sum(ips_dual_loss(data, pred, lam) for lam in self.GRID)
            for centered in (False, True):
                want = reference_flip_gradients(data, pred, self.GRID, 0.05, 0.5, centered)
                got_loss, plain = dual_flip_gradient(data, pred, self.GRID, 0.05, centered)
                assert got_loss == loss
                assert np.array_equal(plain.d_revenue, want["plain"][0])
                assert np.array_equal(plain.d_cost, want["plain"][1])
                if m <= 7:
                    got_loss, soft = softmax_flip_gradient(data, pred, self.GRID, 0.05, 0.5,
                                                           centered)
                    assert got_loss == loss
                    assert np.array_equal(soft.d_revenue, want["softmax"][0])
                    assert np.array_equal(soft.d_cost, want["softmax"][1])
                    continue
                for lam in self.GRID:  # one multiplier at a time: no sums over the grid
                    grid = LambdaGrid((lam,))
                    want = reference_flip_gradients(data, pred, grid, 0.05, 0.5, centered)
                    soft = softmax_flip_gradient(data, pred, grid, 0.05, 0.5, centered)[1]
                    # |g_j - <g, a>| moves by the sum's rounding, at most about
                    # m eps sum_k |g_k a_k|, and by an ulp of each result
                    a = row_softmax(pred.revenue - lam * pred.cost)
                    gap, sign = reference_flip_gaps(a, data.treatment)
                    reward = observed_rewards(data, lam, centered)[0]
                    g = (reward / (data.n * data.sample_propensity()))[:, None] \
                        / np.clip(gap, 0.05, 0.5) * sign
                    scale = 2 * m * eps * a * (np.abs(g * a).sum(axis=1, keepdims=True)
                                               + np.abs(g))
                    assert np.all(np.abs(soft.d_revenue - want["softmax"][0]) <= scale)
                    assert np.all(np.abs(soft.d_cost - want["softmax"][1]) <= lam * scale)


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


def softmax_flip_scores(data, a, lam, step_floor, step_cap):
    """``_softmax_flip_scores`` of row-major softmax scores ``a`` at ``lam``."""
    xt = observed_rewards(data, lam)[0] / (data.n * data.sample_propensity())
    return _softmax_flip_scores(a.T, data.treatment, xt, step_floor, step_cap).T


class TestSoftmaxFlip:
    def test_uniform_row_gradient_nonzero_for_matched_reward(self):
        data = make_dataset(treatment=[0], revenue=[3.0], cost=[1.0],
                            num_treatments=2, propensities=[1.0, 0.0])
        pred = PredictionMatrix([[1.0, 1.0]], [[0.5, 0.5]])
        a = row_softmax(pred.revenue - 1.0 * pred.cost)
        g = softmax_flip_scores(data, a, 1.0, step_floor=1e-6, step_cap=0.5)
        assert g[0, 0] != 0.0 and g[0, 1] != 0.0

    def test_step_cap_truncates_dominated_column(self):
        # winner weight ~1, dominated weight < 1e-12: flip step ~1 > cap 0.5,
        # so the dominated column's gradient is the loss jump over the cap
        data = make_dataset(treatment=[0], revenue=[3.0], cost=[1.0],
                            num_treatments=2, propensities=[1.0, 0.0])
        pred = PredictionMatrix([[30.0, 0.0]], [[0.0, 0.0]])
        a = row_softmax(pred.revenue - 1.0 * pred.cost)
        assert a[0, 1] < 1e-12
        g = softmax_flip_scores(data, a, 1.0, step_floor=1e-6, step_cap=0.5)
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
        g_fixed = softmax_flip_scores(data, a, lam, 1e-6, 0.5)
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
