"""Perturbation-based gradients of the matched-outcome dual decision loss.

The dual decision loss scores an allocation on randomized data: samples
whose observed treatment equals the allocation's choice contribute their
inverse-propensity-weighted reward ``r - lam * c``. The loss is piecewise
constant in the predictions, so gradients come from perturbation analysis.

Two estimators live here:

- ``flip_fd_gradient``: forward differences where each entry is perturbed
  by the smallest signed step that flips that row's argmax, re-evaluating
  the loss from scratch. Quadratic cost; the reference oracle for the fast
  estimators, and deliberately shares no code with them.
- ``dual_flip_gradient``: the fast estimator. Because rows decide
  independently, the loss change of any single-entry perturbation is known
  in closed form: the sample either leaves or joins the matched set. The
  gradient is that jump divided by the signed flip step, floored to bound
  magnitudes near ties. Linear cost; scales to millions of rows.

``softmax_flip_gradient`` runs the same analysis on row-softmax scores with
clipped steps and chains the result back through the softmax. Both fast
estimators share one kernel (``_flip_gaps``: top-2 search plus the
leave/join bookkeeping), which returns the gaps a score must move; each
caller turns gaps into steps its own way (Vlastelica et al. 2020 describe
this jump-over-step structure).

Perturbing the chosen column of a matched row can only remove its
contribution; perturbing the argmax column of a mismatched row joins the
sample only when its observed treatment is the runner-up, otherwise a third
column takes over and the loss is unchanged (zero gradient). At ``lam = 0``
cost perturbations cannot move any score, so cost gradients are zero there
and the skip is reported through ``diagnostics``.

``dual_flip_gradient``, ``softmax_flip_gradient`` and ``flip_fd_gradient``
take ``centered``: the loss jump of a row is then its reward less the mean
reward of the rows in the call. Under randomized assignment the baseline's
share of the leaving and joining jumps cancels in expectation, but on
base-dominated rewards it is most of each jump; taking it out cuts the
estimator's variance by more than an order of magnitude. The trainer always
uses this centred form (see ``losses``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .data import RctDataset
from .exceptions import SizeError, ValidationError
from .losses import LambdaGrid, _check_cover, observed_rewards, row_softmax
from .solver import PredictionMatrix, decide_dual


@dataclass(eq=False)
class GradientPair:
    """Loss gradients with respect to predicted revenue and cost."""

    d_revenue: np.ndarray  # (n, m)
    d_cost: np.ndarray     # (n, m)

    def __post_init__(self):
        self.d_revenue = np.asarray(self.d_revenue, dtype=np.float64)
        self.d_cost = np.asarray(self.d_cost, dtype=np.float64)
        if self.d_revenue.ndim != 2 or self.d_revenue.shape != self.d_cost.shape:
            raise ValidationError("gradient matrices must share shape (n, m)")
        if not (np.isfinite(self.d_revenue).all() and np.isfinite(self.d_cost).all()):
            raise ValidationError("gradient matrices must be finite")


def _check_pair(data: RctDataset, pred: PredictionMatrix) -> None:
    _check_cover(data, pred)
    if data.num_treatments < 2:
        raise ValidationError("gradient analysis needs at least 2 treatments")


def ips_dual_loss(data: RctDataset, pred: PredictionMatrix, lam: float) -> float:
    """Negative matched per-capita dual reward ``-(rbar - lam * cbar)``.

    ``rbar`` is the inverse-propensity mean of observed revenue over samples
    whose observed treatment equals the allocation choice at ``lam``; ``cbar``
    likewise for cost. Empty matched set gives 0.
    """
    _check_cover(data, pred)
    choice = decide_dual(pred, lam).choice
    match = choice == data.treatment
    w = match / (data.n * data.sample_propensity())
    rbar = float(np.sum(w * data.revenue))
    cbar = float(np.sum(w * data.cost))
    return -(rbar - lam * cbar)


def _loss_arrays(data: RctDataset, revenue: np.ndarray, cost: np.ndarray,
                 lam: float, centered: bool = False) -> float:
    choice = np.argmax(revenue - lam * cost, axis=1)
    match = choice == data.treatment
    w = match / (data.n * data.sample_propensity())
    if centered:
        reward, baseline = observed_rewards(data, lam, centered=True)
        return -float(np.sum(w * reward)) - baseline
    return -(float(np.sum(w * data.revenue)) - lam * float(np.sum(w * data.cost)))


def _nominal_step(a: np.ndarray, i: int, j: int, jstar: int,
                  amax: float, second: float) -> float:
    """Signed score-space step that flips row i's argmax via column j.

    Signed zeros carry the structural direction (down for the winner, up
    for everyone else) so flooring keeps the right sign at exact ties.
    """
    if j == jstar:
        return -(amax - second)    # lower the winner to the runner-up
    return amax - a[i, j]          # raise column j to the winner


def flip_fd_gradient(data: RctDataset, pred: PredictionMatrix, grid: LambdaGrid,
                     step_floor: float = 1e-6, max_cells: int = 4096,
                     overshoot: float = 1e-6, centered: bool = False) -> GradientPair:
    """Forward differences at per-entry argmax-flipping steps (oracle).

    Each entry is perturbed by its signed flip step (floored at
    ``step_floor``, slightly overshot so the flip is realized under exact
    ties), the single-multiplier loss is re-evaluated from scratch, and the
    quotient uses the nominal floored step. Gradients accumulate over the
    grid. Cost entries are skipped at ``lam = 0``. ``centered`` differences
    the loss whose matched rewards have their row mean taken out.
    """
    _check_pair(data, pred)
    n, m = pred.revenue.shape
    if n * m > max_cells:
        raise SizeError(f"{n * m} cells exceed fd cap {max_cells}")
    d_rev = np.zeros((n, m))
    d_cost = np.zeros((n, m))
    rows = np.arange(n)
    for lam in grid:
        a = pred.revenue - lam * pred.cost
        jstar = np.argmax(a, axis=1)
        masked = a.copy()
        masked[rows, jstar] = -np.inf
        second = a[rows, np.argmax(masked, axis=1)]
        base = _loss_arrays(data, pred.revenue, pred.cost, lam, centered)
        for i in range(n):
            for j in range(m):
                raw = _nominal_step(a, i, j, int(jstar[i]),
                                    float(a[i, jstar[i]]), float(second[i]))
                h_rev = float(np.copysign(max(abs(raw), step_floor), raw))
                rev = pred.revenue.copy()
                rev[i, j] += h_rev * (1.0 + overshoot)
                d_rev[i, j] += (_loss_arrays(data, rev, pred.cost, lam, centered)
                                - base) / h_rev
                if lam > 0:
                    step = -raw / lam  # cost moves the score the opposite way
                    h_cost = float(np.copysign(max(abs(step), step_floor), step))
                    cost = pred.cost.copy()
                    cost[i, j] += h_cost * (1.0 + overshoot)
                    d_cost[i, j] += (_loss_arrays(data, pred.revenue, cost, lam, centered)
                                     - base) / h_cost
    return GradientPair(d_rev, d_cost)


class _Flips(NamedTuple):
    """Where a single score change moves a row across the matched set.

    ``leave`` rows have their observed treatment ``own`` as the argmax;
    ``leave_gap[k, j]`` is the rise that makes column j the winner, and at
    the own column the drop that hands the win to the runner-up. The other
    rows, ``join``, enter the set when the observed column ``join_col``
    rises by ``join_gap``; where it is the runner-up (``runner_up``, a mask
    over ``join``) they also enter when the winner drops by the same gap.
    """

    leave: np.ndarray
    own: np.ndarray
    leave_gap: np.ndarray
    join: np.ndarray
    join_col: np.ndarray
    join_gap: np.ndarray
    runner_up: np.ndarray
    winner: np.ndarray  # argmax column of the runner-up rows


def _flip_gaps(a: np.ndarray, t: np.ndarray) -> _Flips:
    """Top-2 search of scores ``a`` (n, m) against observed treatments ``t``."""
    rows = np.arange(a.shape[0])
    jstar = np.argmax(a, axis=1)
    amax = a[rows, jstar]
    masked = a.copy()
    masked[rows, jstar] = -np.inf
    second_idx = np.argmax(masked, axis=1)
    match = jstar == t

    leave = np.where(match)[0]
    own = t[leave]
    leave_gap = amax[leave, None] - a[leave]
    leave_gap[np.arange(leave.size), own] = amax[leave] - a[leave, second_idx[leave]]
    join = np.where(~match)[0]
    join_col = t[join]
    runner_up = second_idx[join] == join_col
    return _Flips(leave, own, leave_gap, join, join_col,
                  amax[join] - a[join, join_col], runner_up, jstar[join[runner_up]])


def _add_flip_grad(out: np.ndarray, f: _Flips, jump: np.ndarray,
                   step: Callable[[np.ndarray], np.ndarray]) -> None:
    """Add loss jump over signed flip step for every flipping entry.

    ``jump`` is each row's loss change on leaving the matched set (joining
    is ``-jump``) and ``step`` turns gaps into step sizes; drops divide by
    the negated step. No entry is listed twice, so the fancy-indexed
    updates below lose nothing.
    """
    g = jump[f.leave, None] / step(f.leave_gap)
    k = np.arange(f.leave.size)
    g[k, f.own] = -g[k, f.own]
    out[f.leave] += g
    h = step(f.join_gap)
    out[f.join, f.join_col] -= jump[f.join] / h
    sub = f.join[f.runner_up]
    out[sub, f.winner] += jump[sub] / h[f.runner_up]


def dual_flip_gradient(data: RctDataset, pred: PredictionMatrix, grid: LambdaGrid,
                       step_floor: float = 1e-6,
                       diagnostics: dict | None = None,
                       centered: bool = False) -> GradientPair:
    """Fast closed-form flip gradients of the summed dual decision loss.

    Per multiplier and sample, the loss jump of leaving/joining the matched
    set is divided by the signed flip step of each entry; steps are floored
    at ``step_floor`` so near-ties cannot blow up the quotient. A cost
    entry moves its score ``lam`` times as fast and the other way, so its
    step is the gap over ``lam``, floored in cost space. Matches
    ``flip_fd_gradient`` (with the same ``centered``) entrywise on tie-free
    instances.
    """
    _check_pair(data, pred)
    if step_floor <= 0:
        raise ValidationError("step_floor must be > 0")
    inv_np = 1.0 / (data.n * data.sample_propensity())
    d_rev = np.zeros_like(pred.revenue)
    d_cost = np.zeros_like(pred.cost)
    skipped: list[float] = []
    for lam in grid:
        flips = _flip_gaps(pred.revenue - lam * pred.cost, data.treatment)
        xt = observed_rewards(data, lam, centered)[0] * inv_np
        _add_flip_grad(d_rev, flips, xt, lambda gap: np.maximum(gap, step_floor))
        if lam > 0:
            _add_flip_grad(d_cost, flips, -xt,
                           lambda gap: np.maximum(gap / lam, step_floor))
        else:
            skipped.append(lam)
    if diagnostics is not None:
        diagnostics["skipped_cost_lambdas"] = skipped
    return GradientPair(d_rev, d_cost)


def gradient_inner_loss(pred: PredictionMatrix, grad: GradientPair) -> float:
    """Inner product of fixed gradient matrices with the predictions.

    Differentiating this scalar with respect to the predictions returns the
    gradient matrices unchanged, which is how the estimator's gradients are
    routed into a model's backward pass.
    """
    if grad.d_revenue.shape != pred.revenue.shape:
        raise ValidationError("gradient and prediction shapes differ")
    return float(np.sum(grad.d_revenue * pred.revenue)
                 + np.sum(grad.d_cost * pred.cost))


def _softmax_flip_scores(data: RctDataset, a: np.ndarray, lam: float,
                         step_floor: float, step_cap: float,
                         centered: bool = False) -> np.ndarray:
    """Flip gradients treating the softmax scores themselves as the inputs."""
    xt = observed_rewards(data, lam, centered)[0] / (data.n * data.sample_propensity())
    g = np.zeros(a.shape)
    _add_flip_grad(g, _flip_gaps(a, data.treatment), xt,
                   lambda gap: np.minimum(np.maximum(gap, step_floor), step_cap))
    return g


def softmax_flip_gradient(data: RctDataset, pred: PredictionMatrix,
                          grid: LambdaGrid, step_floor: float = 1e-6,
                          step_cap: float = 0.5, centered: bool = False
                          ) -> tuple[float, GradientPair]:
    """Smoothed estimator: perturb row-softmax scores, chain back to inputs.

    Per multiplier the scores are ``a = softmax(revenue - lam * cost)`` and
    the flip analysis runs on ``a`` alone, with steps clipped into
    ``[step_floor, step_cap]``. Returns the surrogate loss (inner product of
    the fixed score gradients with the scores) and its gradient with respect
    to the prediction matrices via the softmax Jacobian. ``centered`` takes
    the row-mean reward out of the loss jumps.
    """
    _check_pair(data, pred)
    if not 0 < step_floor <= step_cap:
        raise ValidationError("need 0 < step_floor <= step_cap")
    d_rev = np.zeros_like(pred.revenue)
    d_cost = np.zeros_like(pred.cost)
    loss = 0.0
    for lam in grid:
        scores = pred.revenue - lam * pred.cost
        a = row_softmax(scores)
        g = _softmax_flip_scores(data, a, lam, step_floor, step_cap, centered)
        loss += float(np.sum(g * a))
        ds = a * (g - np.sum(g * a, axis=1, keepdims=True))
        d_rev += ds
        d_cost += -lam * ds
    return loss, GradientPair(d_rev, d_cost)

