import numpy as np
import pytest

from treatalloc.data import GeneratorConfig, RctDataset, generate_synthetic
from treatalloc.evaluation import (CostCurve, CurvePoint, allocate_at_budget,
                                   aucc, bootstrap_policy_se, cost_curve,
                                   default_budget_grid, evaluate_at_budget,
                                   evaluate_policy)
from treatalloc.exceptions import InfeasibleError, ValidationError
from treatalloc.losses import BudgetGrid
from treatalloc.solver import (PredictionMatrix, _Sweep, decide_dual,
                               lambda_upper_bound, solve_budget)

from conftest import instances, interval_points, make_dataset, replay


class TestEvaluatePolicy:
    def test_two_sample_hand_value(self):
        data = make_dataset(treatment=[0, 1], revenue=[1.0, 3.0], cost=[0.5, 0.5],
                            num_treatments=2, propensities=[0.5, 0.5])
        est = evaluate_policy(data, data.treatment)
        assert est.per_capita_revenue == pytest.approx(4.0)  # (1/2)(2*1 + 2*3)
        assert est.matched_fraction == 1.0

    def test_never_matching_policy_gives_zeros(self):
        data = make_dataset(treatment=[0, 0], revenue=[1.0, 3.0], cost=[0.5, 0.5],
                            num_treatments=2, propensities=[1.0, 0.0])
        est = evaluate_policy(data, np.array([1, 1]))
        assert (est.per_capita_revenue, est.per_capita_cost,
                est.matched_fraction) == (0.0, 0.0, 0.0)

    def test_unbiased_over_rerandomization(self, rng):
        config = GeneratorConfig(n=400, m=3, d=3, noise=0.3)
        _, truth = generate_synthetic(config, seed=6)
        n, m = truth.revenue.shape
        policy = rng.integers(0, m, n)  # fixed policy, prediction-independent
        target = float(truth.revenue[np.arange(n), policy].mean())
        rows = np.arange(n)
        estimates = []
        for _ in range(3000):
            t = rng.integers(0, m, n)
            data = RctDataset(
                ids=np.arange(n), features=np.zeros((n, 1)), treatment=t,
                revenue=truth.revenue[rows, t], cost=truth.cost[rows, t],
                num_treatments=m,
            )
            estimates.append(evaluate_policy(data, policy).per_capita_revenue)
        assert np.mean(estimates) == pytest.approx(target, rel=0.03)

    def test_matched_fraction_near_uniform_share(self, rng):
        config = GeneratorConfig(n=3000, m=4, d=2)
        data, _ = generate_synthetic(config, seed=3)
        policy = rng.integers(0, 4, data.n)
        frac = evaluate_policy(data, policy).matched_fraction
        sigma = np.sqrt(0.25 * 0.75 / data.n)
        assert abs(frac - 0.25) <= 3 * sigma

    def test_rejects_out_of_range_choice(self):
        data = make_dataset(treatment=[0], revenue=[1.0], cost=[0.0],
                            num_treatments=2, propensities=[1.0, 0.0])
        with pytest.raises(ValidationError):
            evaluate_policy(data, np.array([5]))


class TestEvaluateAtBudget:
    def test_slack_budget_returns_unconstrained_estimate(self, rng):
        data, truth = generate_synthetic(GeneratorConfig(n=500, m=3, d=3), seed=2)
        pred = PredictionMatrix(truth.revenue, truth.cost)
        slack = evaluate_at_budget(data, pred, per_capita_budget=100.0)
        direct = evaluate_policy(data, decide_dual(pred, 0.0).choice)
        assert slack == direct

    def test_composes_with_direct_policy_evaluation(self):
        pred = PredictionMatrix([[0.0, 1.0], [0.0, 1.0]],
                                [[0.0, 1.0], [0.0, 2.0]])
        data = make_dataset(treatment=[1, 0], revenue=[1.0, 0.2], cost=[1.0, 0.0],
                            num_treatments=2, propensities=[0.5, 0.5])
        # estimated costs: [1,1] -> 1.0, [1,0] -> 1.0, [0,0] -> 0.0 per capita
        full = evaluate_at_budget(data, pred, per_capita_budget=1.0)
        assert full == evaluate_policy(data, decide_dual(pred, 0.0).choice)
        tight = evaluate_at_budget(data, pred, per_capita_budget=0.99)
        assert tight == evaluate_policy(data, np.array([0, 0]))

    def test_zero_budget_with_free_control(self):
        data, truth = generate_synthetic(GeneratorConfig(n=300, m=3, d=2), seed=9)
        pred = PredictionMatrix(truth.revenue, truth.cost)
        est = evaluate_at_budget(data, pred, per_capita_budget=0.0)
        assert est.per_capita_cost == 0.0

    def test_infeasible_budget_raises(self):
        # cheapest option still costs 1 and every sample matches it
        data = make_dataset(treatment=[0, 0], revenue=[1.0, 1.0], cost=[1.0, 1.0],
                            num_treatments=2, propensities=[1.0, 0.0])
        pred = PredictionMatrix([[1.0, 0.0], [1.0, 0.0]], [[1.0, 2.0], [1.0, 2.0]])
        with pytest.raises(InfeasibleError):
            evaluate_at_budget(data, pred, per_capita_budget=0.1)


class TestCostCurve:
    def test_costs_monotone_and_single_point(self, rng):
        data, truth = generate_synthetic(
            GeneratorConfig(n=2000, m=4, d=3, noise=0.2), seed=4)
        pred = PredictionMatrix(truth.revenue, truth.cost)
        curve = cost_curve(data, pred, BudgetGrid((0.2, 0.4)))
        costs = [p.per_capita_cost for p in curve.points]
        assert costs[0] <= costs[1] + 1e-9
        single = cost_curve(data, pred, BudgetGrid((0.3,)))
        assert len(single.points) == 1

    def test_oracle_dominates_random_predictions(self, rng):
        data, truth = generate_synthetic(
            GeneratorConfig(n=4000, m=4, d=3, noise=0.2), seed=7)
        oracle_pred = PredictionMatrix(truth.revenue, truth.cost)
        random_pred = PredictionMatrix(rng.uniform(0, 3, truth.revenue.shape),
                                       rng.uniform(0.05, 1, truth.cost.shape))
        rows = np.arange(data.n)
        for b in (0.35, 0.5, 0.7):
            # score both allocations with the counterfactual matrix
            a_or = solve_budget(oracle_pred, b * data.n).allocation.choice
            a_rn = solve_budget(random_pred, b * data.n).allocation.choice
            rev_or = truth.revenue[rows, a_or].mean()
            rev_rn = truth.revenue[rows, a_rn].mean()
            assert rev_or >= rev_rn

    def test_revenue_nondecreasing_within_noise(self, rng):
        data, truth = generate_synthetic(
            GeneratorConfig(n=6000, m=4, d=3, noise=0.2), seed=12)
        pred = PredictionMatrix(truth.revenue, truth.cost)
        budgets = BudgetGrid((0.15, 0.3, 0.45, 0.6))
        points = []
        from treatalloc.evaluation import allocate_at_budget

        for b in budgets:
            _, choice, est = allocate_at_budget(data, pred, b)
            se = bootstrap_policy_se(data, choice, n_boot=150, seed=3)
            points.append((est.per_capita_revenue, se))
        for (r1, s1), (r2, s2) in zip(points, points[1:]):
            assert r2 >= r1 - 2.0 * (s1 + s2)

    def test_default_budget_grid_spans_floor_to_unconstrained(self, rng):
        data, truth = generate_synthetic(GeneratorConfig(n=800, m=3, d=3), seed=1)
        pred = PredictionMatrix(truth.revenue, truth.cost)
        grid = default_budget_grid(data, pred, count=5)
        assert len(grid) == 5
        top = evaluate_policy(data, decide_dual(pred, 0.0).choice).per_capita_cost
        assert grid.values[-1] == pytest.approx(top)

    def test_curve_points_sorted_by_cost(self):
        pts = (CurvePoint(2.0, 0.5, 1.0, 0.3), CurvePoint(1.0, 0.2, 0.8, 0.3))
        curve = CostCurve(pts)
        assert curve.points[0].per_capita_cost == 0.2


class TestAucc:
    def binary_instance(self, n, seed):
        config = GeneratorConfig(n=n, m=2, d=6, noise=0.2, family="saturating")
        return generate_synthetic(config, seed=seed)

    def test_random_ranking_near_half(self, rng):
        data, _ = self.binary_instance(20000, seed=5)
        pred = PredictionMatrix(rng.uniform(0, 1, (data.n, 2)),
                                rng.uniform(0.1, 1, (data.n, 2)))
        assert abs(aucc(data, pred) - 0.5) <= 0.02

    def test_truth_ranking_beats_random(self, rng):
        data, truth = self.binary_instance(20000, seed=5)
        oracle = aucc(data, PredictionMatrix(truth.revenue, truth.cost))
        pred = PredictionMatrix(rng.uniform(0, 1, (data.n, 2)),
                                rng.uniform(0.1, 1, (data.n, 2)))
        random_score = aucc(data, pred)
        assert oracle >= random_score + 0.05

    def test_identical_individuals_give_exactly_half(self):
        # identical outcome profiles with revenue == cost per treatment: every
        # sweep increment moves x and y equally, so the curve is the diagonal
        n = 40
        t = np.tile([0, 1], n // 2)
        outcome = np.where(t == 1, 2.0, 1.0)
        data = make_dataset(treatment=t, revenue=outcome, cost=outcome,
                            num_treatments=2, propensities=[0.5, 0.5])
        profile = np.tile([1.0, 2.0], (n, 1))
        pred = PredictionMatrix(profile, profile)
        assert aucc(data, pred) == pytest.approx(0.5, abs=1e-12)

    def test_invariant_to_order_preserving_transforms(self, rng):
        data, truth = self.binary_instance(2000, seed=8)
        pred = PredictionMatrix(truth.revenue, truth.cost)
        base = aucc(data, pred)
        # doubling incremental revenue doubles every ROI: order unchanged
        stretched = truth.revenue.copy()
        stretched[:, 1] = truth.revenue[:, 0] + 2 * (truth.revenue[:, 1]
                                                     - truth.revenue[:, 0])
        assert aucc(data, PredictionMatrix(stretched, truth.cost)) == base

    def test_requires_binary_treatments(self, rng):
        data, truth = generate_synthetic(GeneratorConfig(n=50, m=3, d=2), seed=0)
        with pytest.raises(ValidationError):
            aucc(data, PredictionMatrix(truth.revenue, truth.cost))

    def test_degenerate_rankings_controlled(self):
        # negative incremental cost with positive incremental revenue first,
        # dominated rows last
        data = make_dataset(treatment=[0, 1, 0, 1], revenue=[1, 2, 1, 2],
                            cost=[0.1, 1, 0.2, 2], num_treatments=2,
                            propensities=[0.5, 0.5])
        pred = PredictionMatrix(
            np.array([[1.0, 2.0], [1.0, 0.5], [1.0, 1.5], [1.0, 1.1]]),
            np.array([[0.5, 0.3], [0.5, 0.8], [0.5, 0.9], [0.5, 0.7]]),
        )
        from treatalloc.evaluation import _roi_order
        order = _roi_order(pred).tolist()
        assert order[0] == 0   # dc<0, dr>0: first
        assert order[-1] == 1  # dc>0 ... row1 has dr<0 => lowest finite ratio


def test_bootstrap_se_positive_and_shrinks(rng):
    data, _ = generate_synthetic(GeneratorConfig(n=500, m=2, d=2, noise=0.3), seed=2)
    big, _ = generate_synthetic(GeneratorConfig(n=8000, m=2, d=2, noise=0.3), seed=2)
    se_small = bootstrap_policy_se(data, data.treatment, n_boot=100, seed=1)
    se_big = bootstrap_policy_se(big, big.treatment, n_boot=100, seed=1)
    assert se_small > 0
    assert se_big < se_small


@pytest.mark.parametrize("choice, n_boot", [
    ([0, 1], 50),
    ([7, 0, 1, 2], 50),
    ([-1, 0, 1, 2], 50),
    ([0, 1, 2, 0], 1),  # one replicate has no spread
], ids=["wrong-length", "above-range", "negative", "one-replicate"])
def test_bootstrap_se_rejects_bad_policy_and_replicate_count(choice, n_boot):
    data = make_dataset(treatment=[0, 1, 2, 0], revenue=[1.0, 2.0, 3.0, 4.0],
                        cost=[0.0] * 4, num_treatments=3)
    with pytest.raises(ValidationError):
        bootstrap_policy_se(data, np.array(choice), n_boot=n_boot)


def test_bootstrap_se_rejects_empty_data():
    # evaluate_policy gives zeros on it; a standard error of no samples has
    # no value, and the mean of an empty resample only warns
    data = make_dataset(treatment=[], revenue=[], cost=[], num_treatments=2,
                        propensities=[0.5, 0.5])
    with pytest.raises(ValidationError, match="at least one sample"):
        bootstrap_policy_se(data, np.zeros(0, dtype=np.int64))


class TestExactBudgetSearch:
    def nonmonotone(self):
        # rows leave treatment 1 at lam = 0.5, 1 and 3; the estimated cost
        # over the four intervals is 4/3, 2/3, 6/5 and 8/15
        pred = PredictionMatrix([[0.0, 0.5], [0.0, 1.0], [0.0, 3.0]],
                                [[0.0, 1.0]] * 3)
        data = make_dataset(treatment=[1, 0, 1], revenue=[1.0] * 3,
                            cost=[1.0, 0.8, 1.0], num_treatments=2,
                            propensities=[0.5, 0.5])
        return data, pred

    def test_smallest_multiplier_that_fits(self):
        data, pred = self.nonmonotone()
        lam, choice, est = allocate_at_budget(data, pred, 0.7)
        assert 0.5 < lam < 1.0
        assert choice.tolist() == [0, 1, 1]
        assert est == evaluate_policy(data, choice)
        assert est.per_capita_cost == pytest.approx(2.0 / 3.0)

    def test_matches_scan_over_intervals(self, rng):
        for pred in instances(rng, 45):
            n, m = pred.revenue.shape
            data = make_dataset(treatment=rng.integers(0, m, n),
                                revenue=rng.uniform(0, 3, n),
                                cost=rng.integers(0, 3, n) / 2.0,
                                num_treatments=m)
            choices = [decide_dual(pred, lam).choice for lam in interval_points(pred)]
            scan = [evaluate_policy(data, choice) for choice in choices]
            costs = sorted({e.per_capita_cost for e in scan})
            for budget in costs + [float(rng.uniform(costs[0], costs[-1]))]:
                first = next(i for i, e in enumerate(scan) if e.per_capita_cost <= budget)
                lam, choice, est = allocate_at_budget(data, pred, budget)
                assert est == scan[first]
                assert est.per_capita_cost <= budget
                assert (choice == decide_dual(pred, lam).choice).all()

    def test_sweep_estimate_matches_direct_evaluation(self, rng):
        for pred in instances(rng, 45):
            n, m = pred.revenue.shape
            data = make_dataset(treatment=rng.integers(0, m, n),
                                revenue=rng.uniform(0, 3, n),
                                cost=rng.uniform(0, 2, n), num_treatments=m)
            sweep = _Sweep(pred)
            treated = data.treatment[sweep.rows]
            prop = data.sample_propensity()[sweep.rows]
            delta = data.cost[sweep.rows] / prop / n * (
                (sweep.new == treated).astype(float) - (sweep.old == treated))
            start = evaluate_policy(data, decide_dual(pred, 0.0).choice)
            totals = start.per_capita_cost + np.cumsum(delta)[sweep.ends - 1]
            for g in range(len(sweep.ends)):
                lam = 0.5 * (sweep.breaks[g] + sweep.breaks[g + 1])
                direct = evaluate_policy(data, decide_dual(pred, lam).choice)
                assert (replay(sweep, pred, g + 1)
                        == decide_dual(pred, lam).choice).all()
                assert totals[g] == pytest.approx(direct.per_capita_cost,
                                                  rel=1e-12, abs=1e-12)

    def test_curve_equals_separate_allocations(self, rng):
        data, truth = generate_synthetic(
            GeneratorConfig(n=3000, m=4, d=3, noise=0.2), seed=8)
        pred = PredictionMatrix(truth.revenue + 0.3 * rng.standard_normal(
            truth.revenue.shape), truth.cost)
        budgets = BudgetGrid((0.1, 0.2, 0.3, 10.0))
        curve = cost_curve(data, pred, budgets)
        for point in curve.points:
            est = evaluate_at_budget(data, pred, point.budget)
            assert (point.per_capita_cost, point.per_capita_revenue,
                    point.matched_fraction) == (est.per_capita_cost,
                                                est.per_capita_revenue,
                                                est.matched_fraction)

    def test_nan_budget_rejected(self):
        data, pred = self.nonmonotone()
        with pytest.raises(ValidationError):
            allocate_at_budget(data, pred, float("nan"))
        with pytest.raises(ValidationError):
            evaluate_at_budget(data, pred, float("nan"))
        with pytest.raises(ValidationError):
            cost_curve(data, pred, BudgetGrid((float("nan"),)))

    def test_infinite_budget_is_unconstrained(self):
        data, pred = self.nonmonotone()
        lam, choice, _ = allocate_at_budget(data, pred, float("inf"))
        assert lam == 0.0 and choice.tolist() == [1, 1, 1]


class TestOneSweepPerMatrix:
    @pytest.fixture
    def builds(self, monkeypatch):
        counted = []
        init = _Sweep.__init__

        def counting_init(self, *args):
            counted.append(1)
            init(self, *args)

        monkeypatch.setattr(_Sweep, "__init__", counting_init)
        return counted

    @staticmethod
    def noisy(seed):
        data, truth = generate_synthetic(
            GeneratorConfig(n=2000, m=4, d=3, noise=0.2), seed=seed)
        noise = np.random.default_rng(seed).standard_normal(truth.revenue.shape)
        return data, PredictionMatrix(truth.revenue + 0.3 * noise, truth.cost)

    def test_default_grid_then_curve_builds_one_sweep(self, builds):
        data, pred = self.noisy(3)
        budgets = default_budget_grid(data, pred)
        curve = cost_curve(data, pred, budgets)
        assert len(curve.points) == len(budgets) > 1
        assert len(builds) == 1

    def test_every_search_on_one_matrix_shares_its_sweep(self, builds):
        data, pred = self.noisy(8)
        top = decide_dual(pred, 0.0).total_cost
        for share in (0.3, 0.5, 0.7):
            assert solve_budget(pred, share * top).lam > 0.0
        assert lambda_upper_bound(pred) > 0.0
        cost_curve(data, pred, default_budget_grid(data, pred))
        for budget in (0.1, 0.2, 0.3):
            assert allocate_at_budget(data, pred, budget)[0] > 0.0
        assert len(builds) == 1
