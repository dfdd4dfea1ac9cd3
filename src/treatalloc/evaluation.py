"""Counterfactual policy evaluation on randomized data.

A deterministic policy (one treatment per individual) is scored by matching:
samples whose observed treatment agrees with the policy contribute their
observed outcomes, reweighted by inverse assignment propensity. Under
randomized assignment this estimates the policy's true per-capita revenue
and cost without ever observing counterfactual outcomes.

Budgeted evaluation picks the smallest dual multiplier whose estimated
per-capita cost fits the per-capita budget, read off the allocation
solver's sweep over switch points with estimated instead of predicted cost.
The sweep is cached on the prediction matrix, so every budget evaluated
against one matrix shares it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RctDataset
from .exceptions import ValidationError
from .losses import BudgetGrid, _check_cover
from .solver import PredictionMatrix, decide_dual, lambda_upper_bound


@dataclass(frozen=True)
class OutcomeEstimate:
    """Inverse-propensity estimate of a policy's per-capita outcomes."""

    per_capita_revenue: float
    per_capita_cost: float
    matched_fraction: float


@dataclass(frozen=True)
class CurvePoint:
    budget: float
    per_capita_cost: float
    per_capita_revenue: float
    matched_fraction: float


@dataclass(frozen=True)
class CostCurve:
    """Cost/revenue pairs swept over budgets, sorted by per-capita cost."""

    points: tuple[CurvePoint, ...]

    def __post_init__(self):
        pts = tuple(sorted(self.points, key=lambda p: p.per_capita_cost))
        object.__setattr__(self, "points", pts)


def _checked_choice(data: RctDataset, choice) -> np.ndarray:
    choice = np.asarray(choice, dtype=np.int64)
    if choice.shape != (data.n,):
        raise ValidationError("policy must choose one treatment per sample")
    if choice.size and (choice.min() < 0 or choice.max() >= data.num_treatments):
        raise ValidationError("policy choices outside the treatment range")
    return choice


def evaluate_policy(data: RctDataset, choice: np.ndarray) -> OutcomeEstimate:
    """Match-and-reweight estimate of a deterministic policy's outcomes."""
    match = _checked_choice(data, choice) == data.treatment
    w = np.where(match, 1.0 / data.sample_propensity(), 0.0) / max(data.n, 1)
    return OutcomeEstimate(
        per_capita_revenue=float(np.sum(w * data.revenue)),
        per_capita_cost=float(np.sum(w * data.cost)),
        matched_fraction=float(match.mean()) if data.n else 0.0,
    )


def _allocator(data: RctDataset, pred: PredictionMatrix):
    """Budget -> (multiplier, choice, estimate); every budget the ``lam = 0``
    policy does not fit is a lookup on the matrix's sweep, with the
    estimated-cost change of each event computed once, on first use."""
    _check_cover(data, pred)
    choice0 = decide_dual(pred, 0.0).choice
    est0 = evaluate_policy(data, choice0)
    delta = None

    def allocate(budget: float) -> tuple[float, np.ndarray, OutcomeEstimate]:
        nonlocal delta
        if not budget >= 0:
            raise ValidationError(f"budget must be >= 0, got {budget!r}")
        if est0.per_capita_cost <= budget:
            return 0.0, choice0, est0
        sweep = pred._sweep
        if delta is None:
            rows, prop = sweep.rows, data.sample_propensity()
            weighted = (data.cost / prop / data.n)[rows]
            delta = (weighted * (sweep.new == data.treatment[rows])
                     - weighted * (sweep.old == data.treatment[rows]))

        def probe(lam):
            choice = decide_dual(pred, lam).choice
            est = evaluate_policy(data, choice)
            return est.per_capita_cost, (choice, est)

        lam, (choice, est) = sweep.search(est0.per_capita_cost, delta, budget, probe)
        return lam, choice, est

    return allocate


def allocate_at_budget(data: RctDataset, pred: PredictionMatrix,
                       per_capita_budget: float
                       ) -> tuple[float, np.ndarray, OutcomeEstimate]:
    """Smallest multiplier whose *estimated* per-capita cost fits the
    budget (the estimate may rise again at larger ones), with its choice
    and ``evaluate_policy`` estimate. Exact; the matrix's sweep is shared
    by every budget and dataset evaluated against it."""
    return _allocator(data, pred)(per_capita_budget)


def evaluate_at_budget(data: RctDataset, pred: PredictionMatrix,
                       per_capita_budget: float) -> OutcomeEstimate:
    """Estimated outcomes of the dual policy tuned to a per-capita budget."""
    return allocate_at_budget(data, pred, per_capita_budget)[2]


def default_budget_grid(data: RctDataset, pred: PredictionMatrix,
                        count: int = 12) -> BudgetGrid:
    """Evenly spaced per-capita budgets between the cost floor and the
    unconstrained cost."""
    floor = evaluate_policy(data, decide_dual(pred, lambda_upper_bound(pred)).choice)
    top = evaluate_policy(data, decide_dual(pred, 0.0).choice)
    lo, hi = floor.per_capita_cost, top.per_capita_cost
    if hi <= lo:
        return BudgetGrid((max(lo, 0.0),))
    return BudgetGrid(tuple(np.linspace(lo, hi, count)))


def cost_curve(data: RctDataset, pred: PredictionMatrix,
               budgets: BudgetGrid) -> CostCurve:
    """One outcome estimate per budget, all read off the matrix's sweep."""
    allocate = _allocator(data, pred)
    points = []
    for b in budgets:
        est = allocate(b)[2]
        points.append(CurvePoint(float(b), est.per_capita_cost,
                                 est.per_capita_revenue, est.matched_fraction))
    return CostCurve(tuple(points))


def _roi_order(pred: PredictionMatrix) -> np.ndarray:
    """Ranking by predicted incremental revenue / incremental cost.

    Nonpositive incremental cost with positive incremental revenue ranks
    first (infinite return); nonpositive incremental revenue and cost ranks
    last. Ties resolve by row index.
    """
    dr = pred.revenue[:, 1] - pred.revenue[:, 0]
    dc = pred.cost[:, 1] - pred.cost[:, 0]
    n = dr.shape[0]
    ratio = np.where(dc > 0, dr / np.where(dc > 0, dc, 1.0), 0.0)
    # class 0 first, then finite ratios descending, then class 2
    klass = np.where(dc > 0, 1, np.where(dr > 0, 0, 2))
    order = np.lexsort((np.arange(n), -ratio, klass))
    return order


def aucc(data: RctDataset, pred: PredictionMatrix) -> float:
    """Normalized area under the incremental cost/revenue curve (binary).

    Individuals are ranked by predicted incremental return; prefixes of the
    ranking receive treatment 1, the rest treatment 0. For each prefix the
    matched estimator yields incremental per-capita revenue and cost against
    the all-control policy. The polyline through these points (linear
    interpolation) is integrated and divided by the rectangle spanned by its
    endpoints, giving ~0.5 for uninformative rankings.
    """
    if data.num_treatments != 2:
        raise ValidationError("this metric applies to binary treatments only")
    _check_cover(data, pred)
    order = _roi_order(pred)
    t, prop, n = data.treatment[order], data.sample_propensity()[order], data.n

    def incremental(outcome: np.ndarray) -> np.ndarray:
        """Matched per-capita outcome with prefix k treated, less prefix 0's:
        the treated part accumulates, the control part sheds."""
        treated = np.where(t == 1, outcome[order] / prop, 0.0) / n
        control = np.where(t == 0, outcome[order] / prop, 0.0) / n
        curve = np.concatenate(([0.0], np.cumsum(treated))) + (
            float(control.sum()) - np.concatenate(([0.0], np.cumsum(control))))
        return curve - curve[0]

    d_rev, d_cost = incremental(data.revenue), incremental(data.cost)

    total_r, total_c = d_rev[-1], d_cost[-1]
    if abs(total_r) < 1e-12 or abs(total_c) < 1e-12:
        raise ValidationError(
            "degenerate curve: total incremental revenue or cost is zero"
        )
    area = float(np.trapezoid(d_rev, d_cost))
    return area / (total_r * total_c)


def bootstrap_policy_se(data: RctDataset, choice: np.ndarray,
                        n_boot: int = 200, seed: int = 0) -> float:
    """Bootstrap standard error of the policy's per-capita revenue estimate.

    Samples are resampled with replacement; propensities stay fixed at the
    population values (they describe the assignment mechanism).
    """
    if n_boot < 2:
        raise ValidationError(f"n_boot must be >= 2, got {n_boot}")
    if data.n == 0:
        raise ValidationError("bootstrap needs at least one sample")
    match = _checked_choice(data, choice) == data.treatment
    contrib = np.where(match, data.revenue / data.sample_propensity(), 0.0)
    rng = np.random.default_rng(seed)
    reps = [contrib[rng.integers(0, data.n, size=data.n)].mean() for _ in range(n_boot)]
    return float(np.std(reps, ddof=1))
