"""Exact relations of the allocator, the estimators and the gradient kernels
under transformations of their input.

Dyadic instances (``conftest.dyadic_instance``) with dyadic observed costs
and propensities, and a power-of-two row count, keep every sum of costs
exact, so each relation holds bit for bit. Each allocator relation is
checked on cold matrices (the first call builds the sweep and the ``lam =
0`` decision) and on warm ones (both already cached). The one relation that
holds only within a rounding bound says so where it is checked.
"""

import numpy as np
import pytest

from treatalloc.evaluation import allocate_at_budget, evaluate_policy
from treatalloc.gradients import dual_flip_gradient, softmax_flip_gradient
from treatalloc.losses import LambdaGrid, prediction_loss_grad, tempered_policy_loss_grad
from treatalloc.solver import PredictionMatrix, decide_dual, lambda_upper_bound, solve_budget

from oracles import flip_fd_gradient, observed_rewards
from conftest import (BUILDERS, dyadic_instance, exact, interval_points, make_dataset,
                      tie_heavy_instance)

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


@pytest.mark.parametrize("state", ["cold", "warm"])
class TestTreatmentRelabelling:
    """Columns of revenue and cost in another order, and the observed
    treatments and propensities relabelled with them: every choice maps
    through the relabelling, and the multiplier, the objective, the cost and
    the estimates stay, bit for bit. The instances are tie-free (continuous
    random predictions, multipliers inside the intervals between switch
    points). Under a tie the lowest index wins, and a relabelling moves the
    lowest index: that is the deliberate exception, pinned by
    ``test_tied_row_keeps_the_lowest_index``."""

    def relabelled(self, rng, state, m):
        pred, data = case(rng, m, BUILDERS["random"])
        pi = rng.permutation(m)  # new column k is old column pi[k]
        new = np.argsort(pi)  # old label j is new label new[j]
        base, moved = matrices(state, pred,
                               PredictionMatrix(pred.revenue[:, pi], pred.cost[:, pi]))
        data_r = make_dataset(new[data.treatment], data.revenue, data.cost, m,
                              propensities=data.propensities[pi])
        return base, moved, data, data_r, new

    def test_decide_dual(self, rng, state):
        for m in (2, 3, 5):
            base, moved, _, _, new = self.relabelled(rng, state, m)
            for lam in interval_points(base):
                a, b = decide_dual(base, float(lam)), decide_dual(moved, float(lam))
                assert np.array_equal(b.choice, new[a.choice])
                assert (b.objective, b.total_cost) == (a.objective, a.total_cost)

    def test_solve_budget(self, rng, state):
        for m in (2, 3, 4):
            base, moved, _, _, new = self.relabelled(rng, state, m)
            for budget in budgets(base):
                a, b = solve_budget(base, budget), solve_budget(moved, budget)
                assert b.lam == a.lam and b.dual_value == a.dual_value
                assert np.array_equal(b.allocation.choice, new[a.allocation.choice])
                assert (b.allocation.objective, b.allocation.total_cost) == (
                    a.allocation.objective, a.allocation.total_cost)

    def test_allocate_at_budget(self, rng, state):
        for m in (2, 4):
            base, moved, data, data_r, new = self.relabelled(rng, state, m)
            for budget in per_capita_budgets(data, base):
                lam, choice, est = allocate_at_budget(data, base, budget)
                lam_r, choice_r, est_r = allocate_at_budget(data_r, moved, budget)
                assert lam_r == lam
                assert np.array_equal(choice_r, new[choice])
                assert exact(est_r) == exact(est)

    def test_tied_row_keeps_the_lowest_index(self, rng, state):
        # both columns score alike at every multiplier: column 0 wins either way
        pred = PredictionMatrix(np.ones((1, 2)), np.ones((1, 2)))
        base, swapped = matrices(state, pred, PredictionMatrix(pred.revenue[:, ::-1],
                                                               pred.cost[:, ::-1]))
        for lam in (0.0, 1.0):
            assert decide_dual(base, lam).choice.tolist() == [0]
            assert decide_dual(swapped, lam).choice.tolist() == [0]  # not the relabelled 1


def dataset_with_counts(rng, counts):
    """Dyadic outcomes and empirical propensities, treatment ``j`` on
    ``counts[j]`` rows in random order."""
    treatment = rng.permutation(np.repeat(np.arange(len(counts)), counts))
    return make_dataset(treatment, rng.integers(0, 2 ** 10, treatment.size) / 2 ** 6,
                        rng.integers(0, 2 ** 10, treatment.size) / 2 ** 8, len(counts))


@pytest.mark.parametrize("counts", [(8, 8), (8, 4, 4), (2, 4, 8, 2),
                                    (3, 13), (5, 5, 6), (1, 3, 5, 7)],
                         ids=lambda c: "-".join(map(str, c)))
def test_estimates_permute_with_the_rows(rng, counts):
    """Rows and the choice in another order: the matched fraction is a count
    over the rows and stays. The per-capita revenue and cost add their
    weighted rows in another order. When every treatment count is a power of
    two (of N = 16 rows) each weight ``1 / (N p_j)`` is dyadic, every sum is
    exact and they stay bit for bit; otherwise each is within the bound of
    two recursive sums, ``2 N eps`` times the sum of the terms' magnitudes."""
    dyadic = all(c & (c - 1) == 0 for c in counts)
    m = len(counts)
    for _ in range(8):
        data = dataset_with_counts(rng, counts)
        perm = rng.permutation(N)
        moved = make_dataset(data.treatment[perm], data.revenue[perm], data.cost[perm], m)
        pred = dyadic_instance(rng, N, m)
        for choice in (rng.integers(0, m, N), decide_dual(pred, 0.5).choice, data.treatment):
            est, est_p = evaluate_policy(data, choice), evaluate_policy(moved, choice[perm])
            assert est_p.matched_fraction == est.matched_fraction
            w = np.where(choice == data.treatment, 1.0 / data.sample_propensity(), 0.0) / N
            for field, x in (("per_capita_revenue", data.revenue), ("per_capita_cost", data.cost)):
                got, want = getattr(est_p, field), getattr(est, field)
                if dyadic:
                    assert exact(got) == exact(want)
                else:
                    assert abs(got - want) <= 2 * N * np.finfo(float).eps * float(np.sum(w * x))


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


def coarse_dyadic_instance(rng, n, m):
    """Multiples of 1/16 below 16: squares of their errors are exact too."""
    return PredictionMatrix(rng.integers(0, 2 ** 8, (n, m)) / 2 ** 4,
                            rng.integers(0, 2 ** 6, (n, m)) / 2 ** 4)


GRID = LambdaGrid((0.0, 0.5, 1.0, 2.0))
KERNELS = {  # name -> (data, pred, centered) -> (loss, d_revenue, d_cost)
    "prediction": lambda data, pred, centered: prediction_loss_grad(data, pred),
    "policy": lambda data, pred, centered: tempered_policy_loss_grad(
        data, pred, GRID, 1.0, centered),
    "entropy": lambda data, pred, centered: tempered_policy_loss_grad(
        data, pred, GRID, 0.25, centered),
    "perturb": lambda data, pred, centered: dual_flip_gradient(data, pred, GRID, 0.05, centered),
    "perturb-softmax": lambda data, pred, centered: softmax_flip_gradient(
        data, pred, GRID, 0.05, 0.5, centered),
    "flip-fd": lambda data, pred, centered: (
        None, *flip_fd_gradient(data, pred, GRID, 0.05, centered=centered)),
}
KERNEL_CASES = [(name, centered) for name in KERNELS
                for centered in ((False,) if name == "prediction" else (False, True))]


@pytest.mark.parametrize("builder", [coarse_dyadic_instance, tie_heavy_instance],
                         ids=["dyadic", "tie-heavy"])
@pytest.mark.parametrize("name, centered", KERNEL_CASES,
                         ids=[f"{n}-{'centred' if c else 'plain'}" for n, c in KERNEL_CASES])
def test_gradient_rows_permute_with_the_data(rng, name, centered, builder):
    """Rows in another order: each gradient row moves with its row, bit for
    bit, and the loss stays. The softmax policy's loss (``policy``,
    ``entropy``) sums softmax weights, which are not dyadic, over the rows, so
    the order of that sum moves its last bits: it stays within the bound of
    two recursive sums of the weighted rewards, whose weights are at most 1."""
    kernel = KERNELS[name]
    for m in (2, 4):  # 1 / (N p) is exact
        pred, data = case(rng, m, builder)
        perm = rng.permutation(N)
        moved = make_dataset(data.treatment[perm], data.revenue[perm], data.cost[perm], m,
                             propensities=data.propensities)
        loss, *grads = kernel(data, pred, centered)
        loss_p, *grads_p = kernel(moved, PredictionMatrix(pred.revenue[perm], pred.cost[perm]),
                                  centered)
        assert exact([g[perm] for g in grads]) == exact(grads_p)
        if name in ("policy", "entropy"):
            terms = 0.0  # what the loss adds up: |weight * reward| per row, and each baseline
            for lam in GRID:
                reward, baseline = observed_rewards(data, lam, centered)
                terms += float(np.abs(reward).sum()) * m / N + abs(baseline)
            assert abs(loss_p - loss) <= 2 * (N + len(GRID)) * np.finfo(float).eps * terms
        else:
            assert exact(loss_p) == exact(loss)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_revenue_constant_leaves_the_centred_gradients(rng, m):
    """8.0 added to every observed revenue: each row's centred reward stays,
    bit for bit, and with it every centred gradient, while the plain flip
    jumps, and so the plain flip gradients, move. The centred policy loss adds
    the baseline back, so it moves by -8 per multiplier, within the rounding
    of the sums it is made of (bounded as in the row-permutation test)."""
    for _ in range(25):
        pred, data = case(rng, m)
        moved = make_dataset(data.treatment, data.revenue + 8.0, data.cost, m,
                             propensities=data.propensities)
        for name in ("policy", "entropy", "perturb", "perturb-softmax"):
            loss, *grads = KERNELS[name](data, pred, True)
            loss_s, *grads_s = KERNELS[name](moved, pred, True)
            assert exact(grads_s) == exact(grads)
            if name in ("policy", "entropy"):
                terms = 0.0
                for lam in GRID:
                    reward, baseline = observed_rewards(moved, lam, True)
                    terms += float(np.abs(reward).sum()) * m / N + abs(baseline)
                assert abs(loss_s - (loss - 8.0 * len(GRID))) <= \
                    2 * (N + len(GRID)) * np.finfo(float).eps * terms
            else:
                assert exact(KERNELS[name](moved, pred, False)[1:]) != \
                    exact(KERNELS[name](data, pred, False)[1:])


@pytest.mark.parametrize("state", ["cold", "warm"])
@pytest.mark.parametrize("builder", [dyadic_instance, tie_heavy_instance],
                         ids=["dyadic", "tie-heavy"])
class TestRevenueShift:
    """A dyadic constant added to all m revenues of each row: every score of
    the row moves by it, so the choices and the multiplier stay and the
    objective moves by the shifts of the rows."""

    def shifted(self, rng, state, pred):
        shift = rng.integers(-2 ** 10, 2 ** 10, N) / 2 ** 6
        base, moved = matrices(state, pred,
                               PredictionMatrix(pred.revenue + shift[:, None], pred.cost))
        return base, moved, float(shift.sum())

    def test_decide_dual(self, rng, state, builder):
        for m in (2, 3, 5):
            pred, _ = case(rng, m, builder)
            base, moved, total = self.shifted(rng, state, pred)
            for lam in (0.0, 0.25, 1.0, 4.0, lambda_upper_bound(base)):
                a, b = decide_dual(base, lam), decide_dual(moved, lam)
                assert np.array_equal(b.choice, a.choice)
                assert (b.objective, b.total_cost) == (a.objective + total, a.total_cost)

    def test_solve_budget(self, rng, state, builder):
        for m in (2, 3, 4):
            pred, _ = case(rng, m, builder)
            base, moved, total = self.shifted(rng, state, pred)
            for budget in budgets(pred):
                a, b = solve_budget(base, budget), solve_budget(moved, budget)
                assert b.lam == a.lam and b.trace == a.trace
                assert np.array_equal(b.allocation.choice, a.allocation.choice)
                assert (b.allocation.objective, b.allocation.total_cost) == (
                    a.allocation.objective + total, a.allocation.total_cost)

    def test_allocate_at_budget(self, rng, state, builder):
        # the estimate reads the observed outcomes, which the shift leaves alone
        for m in (2, 4):
            pred, data = case(rng, m, builder)
            base, moved, _ = self.shifted(rng, state, pred)
            for budget in per_capita_budgets(data, pred):
                lam, choice, est = allocate_at_budget(data, base, budget)
                lam_s, choice_s, est_s = allocate_at_budget(data, moved, budget)
                assert lam_s == lam
                assert np.array_equal(choice_s, choice)
                assert exact(est_s) == exact(est)


@pytest.mark.parametrize("state", ["cold", "warm"])
@pytest.mark.parametrize("builder", [dyadic_instance, tie_heavy_instance],
                         ids=["dyadic", "tie-heavy"])
def test_replicated_rows_at_twice_the_budget_keep_the_multiplier(rng, state, builder):
    """The matrix tiled twice, at twice the total budget: every switch point
    and every exact total doubles with its rows, so the search finds the
    same multiplier and each copy the same choice."""
    for m in (2, 3, 4):
        pred, _ = case(rng, m, builder)
        base, twice = matrices(state, pred, PredictionMatrix(np.tile(pred.revenue, (2, 1)),
                                                             np.tile(pred.cost, (2, 1))))
        for budget in budgets(pred):
            a, b = solve_budget(base, budget), solve_budget(twice, 2 * budget)
            assert b.lam == a.lam
            assert np.array_equal(b.allocation.choice, np.tile(a.allocation.choice, 2))
            assert (b.allocation.objective, b.allocation.total_cost) == (
                2 * a.allocation.objective, 2 * a.allocation.total_cost)


@pytest.mark.parametrize("layout", [np.tile, np.repeat], ids=["tile", "repeat"])
@pytest.mark.parametrize("m", [2, 4])
def test_replicated_rows_keep_the_estimates(rng, m, layout):
    """Every row twice, under new ids, with any policy that treats both
    copies alike: the inverse-propensity estimates stay, bit for bit."""
    for _ in range(8):
        pred, data = case(rng, m)
        twice = make_dataset(*(layout(a, 2) for a in (data.treatment, data.revenue, data.cost)),
                             m, propensities=data.propensities)
        for choice in (rng.integers(0, m, N), decide_dual(pred, 0.5).choice, data.treatment):
            assert exact(evaluate_policy(twice, layout(choice, 2))) == \
                exact(evaluate_policy(data, choice))
