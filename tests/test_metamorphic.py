"""Exact relations of the allocator under transformations of its input.

Dyadic instances (``conftest.dyadic_instance``) with dyadic observed costs
and propensities, and a power-of-two row count, keep every sum of costs
exact, so each relation holds bit for bit. Each one is checked on cold
matrices (the first call builds the sweep and the ``lam = 0`` decision) and
on warm ones (both already cached).
"""

import numpy as np
import pytest

from treatalloc.evaluation import allocate_at_budget
from treatalloc.solver import PredictionMatrix, decide_dual, lambda_upper_bound, solve_budget

from conftest import dyadic_instance, exact, make_dataset, tie_heavy_instance

N = 16
SHARES = (0.0, 0.2, 0.45, 0.7, 0.95, 1.0)  # budgets between the floor and the top


def case(rng, m, builder=dyadic_instance):
    pred = builder(rng, N, m)
    treatment = rng.integers(0, m, N)
    treatment[:m] = np.arange(m)
    data = make_dataset(treatment=treatment, revenue=rng.integers(0, 2 ** 10, N) / 2 ** 6,
                        cost=rng.integers(0, 2 ** 10, N) / 2 ** 8, num_treatments=m,
                        propensities=[1 / m] * m)
    return pred, data


def budgets(pred):
    floor = decide_dual(pred, lambda_upper_bound(pred)).total_cost
    top = decide_dual(pred, 0.0).total_cost
    return [max(floor + s * (top - floor), 0.0) for s in SHARES]


def per_capita_budgets(data, pred):
    costs = [float(np.sum(data.cost[decide_dual(pred, lam).choice == data.treatment]))
             / (N / data.num_treatments) for lam in (0.0, lambda_upper_bound(pred))]
    return [min(costs) + s * abs(costs[0] - costs[1]) for s in SHARES]


def matrices(state, *preds):
    """Fresh copies of ``preds``; warm ones have their caches filled."""
    out = [PredictionMatrix(p.revenue.copy(), p.cost.copy()) for p in preds]
    if state == "warm":
        for p in out:
            lambda_upper_bound(p)
    return out


@pytest.mark.parametrize("state", ["cold", "warm"])
@pytest.mark.parametrize("k", [-3, 5])
@pytest.mark.parametrize("m", [2, 4])
class TestCostScaling:
    """Costs and budget times ``s = 2**k``: the multiplier divides by ``s``,
    the choice stays."""

    def test_solve_budget(self, rng, state, k, m):
        s = 2.0 ** k
        for _ in range(4):
            pred, _ = case(rng, m)
            base, scaled = matrices(state, pred, PredictionMatrix(pred.revenue, pred.cost * s))
            for budget in budgets(pred):
                a, b = solve_budget(base, budget), solve_budget(scaled, budget * s)
                assert np.array_equal(a.allocation.choice, b.allocation.choice)
                assert b.allocation.objective == a.allocation.objective
                assert b.allocation.total_cost == a.allocation.total_cost * s
                assert b.lam == a.lam / s and b.dual_value == a.dual_value
                assert [(lam * s, c) for lam, c in b.trace] == [
                    (lam, c * s) for lam, c in a.trace]

    def test_allocate_at_budget(self, rng, state, k, m):
        s = 2.0 ** k
        for _ in range(4):
            pred, data = case(rng, m)
            base, scaled = matrices(state, pred, PredictionMatrix(pred.revenue, pred.cost * s))
            data_s = make_dataset(data.treatment, data.revenue, data.cost * s, m,
                                  propensities=data.propensities)
            for budget in per_capita_budgets(data, pred):
                lam, choice, est = allocate_at_budget(data, base, budget)
                lam_s, choice_s, est_s = allocate_at_budget(data_s, scaled, budget * s)
                assert np.array_equal(choice, choice_s)
                assert (est_s.per_capita_revenue, est_s.per_capita_cost,
                        est_s.matched_fraction) == (est.per_capita_revenue,
                                                    est.per_capita_cost * s,
                                                    est.matched_fraction)
                assert lam_s == lam / s


@pytest.mark.parametrize("state", ["cold", "warm"])
@pytest.mark.parametrize("builder", [dyadic_instance, tie_heavy_instance],
                         ids=["dyadic", "tie-heavy"])
class TestRowPermutation:
    """Rows in another order: the choice permutes with them, the multiplier
    stays. Each row is decided on its own, so this holds under ties too."""

    def test_solve_budget(self, rng, state, builder):
        for m in (2, 3, 4):
            pred, _ = case(rng, m, builder)
            perm = rng.permutation(N)
            base, moved = matrices(state, pred,
                                   PredictionMatrix(pred.revenue[perm], pred.cost[perm]))
            for budget in budgets(pred):
                a, b = solve_budget(base, budget), solve_budget(moved, budget)
                assert b.lam == a.lam
                assert np.array_equal(b.allocation.choice, a.allocation.choice[perm])
                assert (b.allocation.objective, b.allocation.total_cost) == (
                    a.allocation.objective, a.allocation.total_cost)

    def test_decide_dual(self, rng, state, builder):
        for m in (2, 3, 5):
            pred, _ = case(rng, m, builder)
            perm = rng.permutation(N)
            base, moved = matrices(state, pred,
                                   PredictionMatrix(pred.revenue[perm], pred.cost[perm]))
            for lam in (0.0, *base._sweep.breaks):
                a, b = decide_dual(base, float(lam)), decide_dual(moved, float(lam))
                assert np.array_equal(b.choice, a.choice[perm])
                assert (b.objective, b.total_cost) == (a.objective, a.total_cost)

    def test_allocate_at_budget(self, rng, state, builder):
        for m in (2, 4):
            pred, data = case(rng, m, builder)
            perm = rng.permutation(N)
            base, moved = matrices(state, pred,
                                   PredictionMatrix(pred.revenue[perm], pred.cost[perm]))
            data_p = make_dataset(data.treatment[perm], data.revenue[perm],
                                  data.cost[perm], m, propensities=data.propensities)
            for budget in per_capita_budgets(data, pred):
                lam, choice, est = allocate_at_budget(data, base, budget)
                lam_p, choice_p, est_p = allocate_at_budget(data_p, moved, budget)
                assert lam_p == lam
                assert np.array_equal(choice_p, choice[perm])
                assert est_p.per_capita_cost == est.per_capita_cost


def input_layouts(pred):
    """``pred``'s arrays as C-ordered, Fortran-ordered, strided (the two heads
    of one (n, 2m) array, as a model writes them) and read-only inputs."""
    m = pred.num_treatments
    heads = np.concatenate([pred.revenue, pred.cost], axis=1)
    frozen = pred.revenue.copy(), pred.cost.copy()
    for arr in frozen:
        arr.flags.writeable = False
    return {"C": (pred.revenue.copy(), pred.cost.copy()),
            "F": (np.asfortranarray(pred.revenue), np.asfortranarray(pred.cost)),
            "strided": (heads[:, :m], heads[:, m:]),
            "read-only": frozen}


@pytest.mark.parametrize("m", [2, 3, 5])
def test_input_layout_leaves_the_bits(rng, m):
    """However its inputs are laid out, a matrix decides and sweeps alike."""
    for _ in range(3):
        pred, _ = case(rng, m)
        results = []
        for revenue, cost in input_layouts(pred).values():
            built = PredictionMatrix(revenue, cost)
            sweep = built._sweep
            lams = (0.0, *sweep.breaks, *(0.5 * (sweep.breaks[1:] + sweep.breaks[:-1])))
            results.append((
                exact([decide_dual(built, float(lam)) for lam in lams]),
                exact([getattr(sweep, name) for name in
                       ("rows", "old", "new", "ends", "breaks", "cost_delta", "start_cost")])))
        assert all(result == results[0] for result in results[1:])
