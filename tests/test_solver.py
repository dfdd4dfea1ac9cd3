import numpy as np
import pytest

from treatalloc.exceptions import InfeasibleError, SizeError, ValidationError
from treatalloc.solver import (PredictionMatrix, _Sweep, brute_force_oracle,
                               decide_dual, dual_value, lambda_upper_bound,
                               solve_budget)

from conftest import instances, interval_points, replay, tie_heavy_instance


def pm(revenue, cost):
    return PredictionMatrix(np.asarray(revenue, float), np.asarray(cost, float))


class TestDecideDual:
    def test_lambda_zero_is_revenue_argmax(self):
        alloc = decide_dual(pm([[1.0, 2.0]], [[0.0, 1.0]]), 0.0)
        assert alloc.choice.tolist() == [1]
        assert alloc.objective == 2.0
        assert alloc.total_cost == 1.0

    def test_lambda_two_flips_choice(self):
        # scores [1 - 0, 2 - 2] = [1, 0]
        alloc = decide_dual(pm([[1.0, 2.0]], [[0.0, 1.0]]), 2.0)
        assert alloc.choice.tolist() == [0]

    def test_tie_breaks_to_lowest_index(self):
        for lam in (0.0, 0.7, 3.0):
            alloc = decide_dual(pm([[1.0, 1.0]], [[0.5, 0.5]]), lam)
            assert alloc.choice.tolist() == [0]

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValidationError):
            decide_dual(pm([[1.0, 2.0]], [[0.0, 1.0]]), -0.1)

    def test_decomposition_over_concatenation(self, rng):
        r1, c1 = rng.uniform(0, 5, (6, 3)), rng.uniform(0, 2, (6, 3))
        r2, c2 = rng.uniform(0, 5, (4, 3)), rng.uniform(0, 2, (4, 3))
        lam = 0.8
        joint = decide_dual(pm(np.vstack([r1, r2]), np.vstack([c1, c2])), lam)
        a1 = decide_dual(pm(r1, c1), lam)
        a2 = decide_dual(pm(r2, c2), lam)
        assert joint.choice.tolist() == a1.choice.tolist() + a2.choice.tolist()

    def test_cost_nonincreasing_in_lambda(self, rng):
        pred = pm(rng.uniform(0, 5, (40, 4)), rng.uniform(0, 2, (40, 4)))
        lams = np.sort(rng.uniform(0, 3, 20))
        costs = [decide_dual(pred, lam).total_cost for lam in lams]
        assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))


class TestSolveBudget:
    def test_two_individual_example(self):
        # individual 0 flips to control past lam=1, individual 1 past lam=0.5;
        # with ties broken to the lower index the cost-1 allocation already
        # holds at lam=0.5, so any returned lam in [0.5, 1] is the analytic
        # feasible region for budget 1
        pred = pm([[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 2.0]])
        sol = solve_budget(pred, budget=1.0)
        assert 0.5 <= sol.lam <= 1.0
        assert sol.allocation.choice.tolist() == [1, 0]
        assert sol.allocation.total_cost == 1.0

    def test_slack_budget_returns_lambda_zero(self, rng):
        pred = pm(rng.uniform(0, 5, (10, 3)), rng.uniform(0, 2, (10, 3)))
        budget = float(pred.cost.max(axis=1).sum()) + 1.0
        sol = solve_budget(pred, budget)
        assert sol.lam == 0.0
        assert sol.allocation.choice.tolist() == \
            np.argmax(pred.revenue, axis=1).tolist()

    def test_zero_budget_with_free_control(self):
        pred = pm([[1.0, 2.0], [0.5, 3.0]], [[0.0, 1.0], [0.0, 2.0]])
        sol = solve_budget(pred, budget=0.0)
        assert sol.allocation.choice.tolist() == [0, 0]
        assert sol.allocation.total_cost == 0.0

    def test_infeasible_reports_floor(self):
        pred = pm([[1.0, 2.0]], [[1.0, 2.0]])  # cheapest option costs 1
        with pytest.raises(InfeasibleError) as exc:
            solve_budget(pred, budget=0.5)
        assert exc.value.floor_cost == 1.0

    def test_never_overspends(self, rng):
        for _ in range(20):
            pred = pm(rng.uniform(0, 5, (12, 3)), rng.uniform(0, 2, (12, 3)))
            lo = float(pred.cost.min(axis=1).sum())
            hi = float(pred.cost.max(axis=1).sum())
            budget = float(rng.uniform(lo, hi))
            sol = solve_budget(pred, budget)
            assert sol.allocation.total_cost <= budget

    def test_lambda_monotone_in_budget(self, rng):
        pred = pm(rng.uniform(0, 5, (30, 4)), rng.uniform(0, 2, (30, 4)))
        lo = float(pred.cost.min(axis=1).sum())
        hi = float(pred.cost.max(axis=1).sum())
        budgets = np.linspace(lo + 0.05 * (hi - lo), hi, 12)
        lams = [solve_budget(pred, b).lam for b in budgets]
        assert all(a >= b for a, b in zip(lams, lams[1:]))

    def test_trace_collection(self):
        pred = pm([[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 2.0]])
        sol = solve_budget(pred, budget=1.0)
        assert sol.trace is not None and len(sol.trace) >= 2
        assert sol.trace[0][0] == 0.0


class TestReadOnly:
    def test_arrays_refuse_writes(self):
        revenue, cost = np.array([[0.0, 1.0]]), np.array([[0.0, 1.0]])
        pred = PredictionMatrix(revenue, cost)
        for arr in (pred.revenue, pred.cost, revenue, cost):
            with pytest.raises(ValueError):
                arr[0, 1] = 5.0
        assert pred.revenue.tolist() == pred.cost.tolist() == [[0.0, 1.0]]

    def test_writes_through_a_view_base_miss_the_matrix(self):
        base = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 0.0, 2.0]])
        pred = PredictionMatrix(base[:, :2], base[:, 2:])
        assert lambda_upper_bound(pred) == 3.0
        base[0, 3] = 100.0
        assert pred.cost.tolist() == [[0.0, 1.0], [0.0, 2.0]]
        assert lambda_upper_bound(pred) == 3.0
        assert lambda_upper_bound(PredictionMatrix(base[:, :2], base[:, 2:])) == 2.0


class TestDualValue:
    def test_lambda_zero_is_max_revenue_sum(self, rng):
        pred = pm(rng.uniform(0, 5, (7, 3)), rng.uniform(0, 2, (7, 3)))
        assert dual_value(pred, 0.0, 123.0) == pytest.approx(
            pred.revenue.max(axis=1).sum()
        )

    def test_single_individual_hand_value(self):
        # 0.5 * 10 + max(1 - 0, 2 - 0.5) = 6.5
        assert dual_value(pm([[1.0, 2.0]], [[0.0, 1.0]]), 0.5, 10.0) == 6.5

    def test_weak_duality_against_oracle(self, rng):
        for _ in range(25):
            n, m = int(rng.integers(1, 7)), int(rng.integers(2, 4))
            pred = pm(rng.uniform(0, 5, (n, m)), rng.uniform(0, 2, (n, m)))
            lo = float(pred.cost.min(axis=1).sum())
            hi = float(pred.cost.max(axis=1).sum())
            budget = float(rng.uniform(lo, hi + 0.5))
            oracle = brute_force_oracle(pred, budget)
            for lam in (0.0, 0.5, 1.7):
                assert dual_value(pred, lam, budget) >= oracle.objective - 1e-9


class TestBruteForce:
    def test_single_individual_budget_one(self):
        alloc = brute_force_oracle(pm([[1.0, 3.0]], [[0.0, 2.0]]), budget=1.0)
        assert alloc.choice.tolist() == [0]
        assert alloc.objective == 1.0

    def test_single_individual_budget_two(self):
        alloc = brute_force_oracle(pm([[1.0, 3.0]], [[0.0, 2.0]]), budget=2.0)
        assert alloc.choice.tolist() == [1]
        assert alloc.objective == 3.0

    def test_empty_instance(self):
        alloc = brute_force_oracle(pm(np.zeros((0, 2)), np.zeros((0, 2))), 1.0)
        assert alloc.n == 0 and alloc.objective == 0.0

    def test_size_cap(self):
        with pytest.raises(SizeError):
            brute_force_oracle(pm(np.ones((16, 2)), np.ones((16, 2))), 1.0)

    def test_no_feasible_assignment(self):
        with pytest.raises(InfeasibleError):
            brute_force_oracle(pm([[1.0, 2.0]], [[1.0, 2.0]]), budget=0.5)

    def test_matches_exhaustive_recount(self, rng):
        # independent re-derivation: loop over itertools.product
        import itertools

        for _ in range(10):
            n, m = int(rng.integers(1, 5)), int(rng.integers(2, 4))
            pred = pm(rng.uniform(0, 5, (n, m)), rng.uniform(0, 2, (n, m)))
            budget = float(rng.uniform(0, pred.cost.max(axis=1).sum() + 0.1))
            best = -1.0
            feasible = False
            for combo in itertools.product(range(m), repeat=n):
                cost = sum(pred.cost[i, j] for i, j in enumerate(combo))
                if cost <= budget:
                    feasible = True
                    best = max(best, sum(pred.revenue[i, j] for i, j in enumerate(combo)))
            if not feasible:
                with pytest.raises(InfeasibleError):
                    brute_force_oracle(pred, budget)
                continue
            alloc = brute_force_oracle(pred, budget)
            assert alloc.objective == pytest.approx(best, abs=1e-12)


def dyadic_instance(rng, n, m):
    """Values on a fine dyadic grid: all small sums are exact in float64."""
    revenue = rng.integers(0, 2 ** 23, (n, m)) / 2 ** 20
    cost = rng.integers(0, 2 ** 22, (n, m)) / 2 ** 20
    return pm(revenue, cost)


class TestDualitySandwich:
    def test_sandwich_on_random_small_instances(self, rng):
        # F(dual choice) <= F(optimum) <= dual bound <= F(dual choice) + max r
        for _ in range(40):
            n, m = int(rng.integers(1, 8)), int(rng.integers(2, 5))
            pred = dyadic_instance(rng, n, m)
            floor_alloc = decide_dual(pred, lambda_upper_bound(pred))
            lo = floor_alloc.total_cost
            hi = float(pred.cost.max(axis=1).sum())
            budget = float(rng.uniform(lo, max(hi, lo) + 0.25))
            sol = solve_budget(pred, budget)
            star = brute_force_oracle(pred, budget)
            assert sol.allocation.objective <= star.objective
            assert star.objective <= sol.dual_value
            assert sol.dual_value <= sol.allocation.objective + pred.revenue.max()


class TestBudgetValues:
    def test_nan_budget_rejected(self):
        pred = pm([[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 2.0]])
        with pytest.raises(ValidationError):
            solve_budget(pred, float("nan"))

    def test_infinite_budget_is_unconstrained(self):
        pred = pm([[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 2.0]])
        sol = solve_budget(pred, float("inf"))
        assert sol.lam == 0.0
        assert sol.allocation.choice.tolist() == [1, 1]


class TestUpperBound:
    def test_switch_past_max_revenue_cost_ratio(self):
        # max r/c is 5000, but the row only drops to the cheaper treatment
        # above lam = 10 / 0.001 = 10000
        pred = pm([[0.0, 10.0]], [[0.001, 0.002]])
        assert lambda_upper_bound(pred) > 10000.0
        sol = solve_budget(pred, 0.0015)
        assert sol.allocation.choice.tolist() == [0]
        assert sol.allocation.total_cost == 0.001

    def test_bound_gives_minimum_cost_allocation(self, rng):
        for pred in instances(rng, 60):
            alloc = decide_dual(pred, lambda_upper_bound(pred))
            rows = np.arange(pred.n)
            cheapest = pred.cost.min(axis=1)
            assert alloc.total_cost == float(cheapest.sum())
            # among equally cheap treatments the highest revenue, then the
            # lowest index
            best_rev = np.where(pred.cost == cheapest[:, None], pred.revenue,
                                -np.inf).max(axis=1)
            want = np.argmax((pred.cost == cheapest[:, None])
                             & (pred.revenue == best_rev[:, None]), axis=1)
            assert alloc.choice.tolist() == want.tolist()
            assert (pred.cost[rows, alloc.choice] == cheapest).all()


class TestSweep:
    def test_replayed_choices_match_decide_dual(self, rng):
        for pred in instances(rng, 60):
            sweep = _Sweep(pred)
            breaks = sweep.breaks
            start = decide_dual(pred, 0.0)
            delta = (pred.cost[sweep.rows, sweep.new]
                     - pred.cost[sweep.rows, sweep.old])
            assert np.array_equal(sweep.cost_delta, delta)
            totals = start.total_cost + np.cumsum(delta)[sweep.ends - 1]
            # before the first breakpoint, then inside every later interval
            points = [(0, 0.5 * breaks[0])] if breaks[0] > 0 else []
            points += [(g + 1, 0.5 * (breaks[g] + breaks[g + 1]))
                       for g in range(len(sweep.ends))]
            for groups, lam in points:
                alloc = decide_dual(pred, lam)
                assert replay(sweep, pred, groups).tolist() == alloc.choice.tolist()
                value = totals[groups - 1] if groups else start.total_cost
                assert value == pytest.approx(alloc.total_cost, rel=1e-12, abs=1e-12)
            assert (np.diff(breaks) > 0).all()

    def test_cached_indices_use_the_smallest_int_types(self, rng):
        sweep = _Sweep(tie_heavy_instance(rng, 300, 4))
        assert sweep.rows.size > 0
        assert sweep.rows.dtype == np.uint16
        assert sweep.old.dtype == sweep.new.dtype == np.uint8

    def test_solve_matches_scan_over_intervals(self, rng):
        for pred in instances(rng, 45):
            scan = [decide_dual(pred, lam) for lam in interval_points(pred)]
            costs = sorted({a.total_cost for a in scan})
            budgets = costs + [float(rng.uniform(costs[0], costs[-1]))]
            for budget in (b for b in budgets if b >= 0):
                want = next(a for a in scan if a.total_cost <= budget)
                sol = solve_budget(pred, budget)
                assert sol.allocation.choice.tolist() == want.choice.tolist()
                assert (sol.allocation.choice
                        == decide_dual(pred, sol.lam).choice).all()

    def test_trace_starts_at_zero_then_direct_probes(self, rng):
        pred = dyadic_instance(rng, 40, 4)
        budget = 0.5 * float(pred.cost.max(axis=1).sum())
        sol = solve_budget(pred, budget)
        assert sol.trace[0] == (0.0, decide_dual(pred, 0.0).total_cost)
        assert sol.trace[-1] == (sol.lam, sol.allocation.total_cost)
        assert len(sol.trace) <= 3
