"""Perturbation-based gradients of the matched-outcome dual decision loss.

The dual decision loss scores an allocation on randomized data: samples
whose observed treatment equals the allocation's choice contribute their
inverse-propensity-weighted reward ``r - lam * c``. The loss is piecewise
constant in the predictions, so gradients come from perturbation analysis.

Two estimators live here:

- ``flip_fd_gradient``: forward differences where each entry is perturbed
  by the smallest signed step that flips that row's argmax, re-evaluating
  the loss from scratch. Quadratic cost; the reference oracle for the fast
  estimators, sharing with them only the matched loss of an allocation.
- ``dual_flip_gradient``: the fast estimator. Because rows decide
  independently, the loss change of any single-entry perturbation is known
  in closed form: the sample either leaves or joins the matched set. The
  gradient is that jump divided by the signed flip step, floored to bound
  magnitudes near ties. Linear cost; scales to millions of rows.

``softmax_flip_gradient`` runs the same analysis on row-softmax scores with
clipped steps and chains the result back through the softmax. Both fast
estimators return ``(loss, GradientPair)``, the loss being ``ips_dual_loss``
summed over the grid, read off the allocation each pass has decided.

They share one kernel, ``_flip_gaps``, which maps a score matrix to two
arrays of its shape. ``gap`` is how far each score must move to flip its
row's argmax: a losing entry rises to the winner, the winner drops to the
runner-up. ``sign`` is what that flip does to the loss, relative to ``jump /
gap``, where ``jump`` is the row's loss rise on leaving the matched set:

- a matched row leaves along every entry: +1 for a rise, -1 for the drop of
  its own (winning) column;
- a mismatched row joins by raising its observed column (-1), or by dropping
  the winner when the observed column is the runner-up (+1);
- 0 elsewhere: a third column takes over and the loss is unchanged.

Each head is then one line, ``jump / step(gap) * sign``, where the caller
turns gaps into steps its own way: floored for revenue, over ``lam`` and
floored for cost, clipped for softmax scores (Vlastelica et al. 2020 describe
this jump-over-step structure). At ``lam = 0`` cost perturbations cannot
move any score, so cost gradients are zero there.

Layout: the fast estimators work treatment-major, as the softmax kernels in
``losses`` and the solver's probes do: they read the prediction matrix's
(m, n) copy, made once per matrix (see ``solver``), so every score matrix
holds one individual per column. Each multiplier's scores go into one
buffer per call, in which ``_flip_gaps`` computes the gaps. It finds each
winner with comparisons only (about 60 us at 8,192 x 5 for the maximum, one
comparison and ``solver._first``, against about 250 us for ``argmax``) and
reaches single cells through flat indices. The gradients accumulate in
(m, n) and are returned as ``.T`` views; the inverse-propensity weights are
computed once per call. Training calls the private cores
(``_dual_flip_gradient``, ``_softmax_flip_gradient``) once per row block,
with the whole batch's ``n``, propensities and centred baselines (see
``losses``); the public estimators run their dataset as one block.
``flip_fd_gradient`` and ``ips_dual_loss`` stay row-major: the oracle and
the loss are the references the fast kernels are checked against.

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

import numpy as np

from .data import RctDataset
from .exceptions import SizeError, ValidationError
from .losses import LambdaGrid, _Block, _check_cover, _softmax, _whole, observed_rewards
from .solver import PredictionMatrix, _check_multiplier, _first

_OVERSHOOT = 1e-6  # flip_fd_gradient's relative extra step, realizing flips at exact ties


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
    _check_multiplier(lam)
    choice = np.argmax(pred.revenue - lam * pred.cost, axis=1)
    return _loss_arrays(data, choice, lam, 1.0 / (data.n * data.sample_propensity()))


def _loss_arrays(data: RctDataset, choice: np.ndarray, lam: float,
                 inv_np: np.ndarray, centered: bool = False) -> float:
    w = np.where(choice == data.treatment, inv_np, 0.0)
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
                     centered: bool = False) -> GradientPair:
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
    inv_np = 1.0 / (data.n * data.sample_propensity())
    for lam in grid:
        def loss(revenue, cost):
            return _loss_arrays(data, np.argmax(revenue - lam * cost, axis=1), lam,
                                inv_np, centered)
        a = pred.revenue - lam * pred.cost
        jstar = np.argmax(a, axis=1)
        masked = a.copy()
        masked[rows, jstar] = -np.inf
        second = a[rows, np.argmax(masked, axis=1)]
        base = loss(pred.revenue, pred.cost)
        for i in range(n):
            for j in range(m):
                raw = _nominal_step(a, i, j, int(jstar[i]),
                                    float(a[i, jstar[i]]), float(second[i]))
                h_rev = float(np.copysign(max(abs(raw), step_floor), raw))
                rev = pred.revenue.copy()
                rev[i, j] += h_rev * (1.0 + _OVERSHOOT)
                d_rev[i, j] += (loss(rev, pred.cost) - base) / h_rev
                if lam > 0:
                    step = -raw / lam  # cost moves the score the opposite way
                    h_cost = float(np.copysign(max(abs(step), step_floor), step))
                    cost = pred.cost.copy()
                    cost[i, j] += h_cost * (1.0 + _OVERSHOOT)
                    d_cost[i, j] += (loss(pred.revenue, cost) - base) / h_cost
    return GradientPair(d_rev, d_cost)


def _flip_gaps(a: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(gap, sign)`` of C-contiguous scores ``a`` (m, n) against observed
    treatments ``t`` (module docstring), then each column's winner, ties to
    the lower index. ``gap`` is computed in ``a``. Cells are reached through
    flat indices ``j * n + i``."""
    n = a.shape[1]
    cols = np.arange(n)
    jstar = _first(a == a.max(axis=0))
    win = np.multiply(jstar, n, dtype=np.intp) + cols
    cells = a.ravel()
    amax = cells.take(win)
    cells[win] = -np.inf  # the scores without each column's winner
    runner = a.max(axis=0)
    second = _first(a == runner)
    gap = np.subtract(amax, a, out=a)
    cells[win] = amax - runner
    match = jstar == t
    sign = np.repeat(match.view(np.int8)[None], a.shape[0], axis=0)
    sign.ravel()[t * n + cols] = -1
    runner_up = np.flatnonzero(~match & (second == t))
    sign.ravel()[win[runner_up]] = 1
    return gap, sign, jstar


def _flip_head(xt: np.ndarray, step: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """``xt / step * sign`` for bounded flip steps, computed in ``step``."""
    np.divide(xt, step, out=step)
    return np.multiply(step, sign, out=step)


def dual_flip_gradient(data: RctDataset, pred: PredictionMatrix, grid: LambdaGrid,
                       step_floor: float = 1e-6,
                       centered: bool = False) -> tuple[float, GradientPair]:
    """Summed plain dual decision loss and its fast closed-form flip gradients.

    Per multiplier and sample, the loss jump of leaving/joining the matched
    set is divided by the signed flip step of each entry; steps are floored
    at ``step_floor`` so near-ties cannot blow up the quotient. A cost
    entry moves its score ``lam`` times as fast and the other way, so its
    step is the gap over ``lam``, floored in cost space. Matches
    ``flip_fd_gradient`` (with the same ``centered``) entrywise on tie-free
    instances. The loss is the plain one, whatever ``centered`` is.
    """
    _check_pair(data, pred)
    if step_floor <= 0:
        raise ValidationError("step_floor must be > 0")
    return _dual_flip_gradient(_whole(data), pred, grid, step_floor, centered)


def _dual_flip_gradient(block: _Block, pred: PredictionMatrix, grid: LambdaGrid,
                        step_floor: float, centered: bool) -> tuple[float, GradientPair]:
    inv_np = 1.0 / (block.n * block.propensity)
    revenue, cost = pred._treatment_major
    d_rev = np.zeros_like(revenue)
    d_cost = np.zeros_like(cost)
    scores = np.empty_like(revenue)  # each multiplier's scores, then gaps
    loss = 0.0
    for lam in grid:
        np.subtract(revenue, np.multiply(lam, cost, out=scores), out=scores)
        gap, sign, choice = _flip_gaps(scores, block.treatment)
        loss += _loss_arrays(block, choice, lam, inv_np)
        xt = block.reward(lam, centered)[0] * inv_np
        if lam > 0:  # first, as the revenue head works in gap
            step = gap / lam
            d_cost -= _flip_head(xt, np.maximum(step, step_floor, out=step), sign)
        d_rev += _flip_head(xt, np.maximum(gap, step_floor, out=gap), sign)
    return loss, GradientPair(d_rev.T, d_cost.T)


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


def _softmax_flip_scores(a: np.ndarray, t: np.ndarray, xt: np.ndarray,
                         step_floor: float, step_cap: float) -> np.ndarray:
    """Flip gradients (m, n) treating the softmax scores ``a`` (m, n)
    themselves as the inputs, for observed treatments ``t`` and weighted
    loss jumps ``xt``."""
    gap, sign, _ = _flip_gaps(a.copy(), t)
    return _flip_head(xt, np.clip(gap, step_floor, step_cap, out=gap), sign)


def softmax_flip_gradient(data: RctDataset, pred: PredictionMatrix,
                          grid: LambdaGrid, step_floor: float = 1e-6,
                          step_cap: float = 0.5, centered: bool = False
                          ) -> tuple[float, GradientPair]:
    """Smoothed estimator: perturb row-softmax scores, chain back to inputs.

    Per multiplier the scores are ``a = softmax(revenue - lam * cost)`` and
    the flip analysis runs on ``a`` alone, with steps clipped into
    ``[step_floor, step_cap]``; the softmax Jacobian takes the gradient back
    to the prediction matrices. The loss is that of ``dual_flip_gradient``,
    decided on the raw scores, as softmax can round two distinct scores to
    one probability. ``centered`` takes the row-mean reward out of the jumps.
    """
    _check_pair(data, pred)
    if not 0 < step_floor <= step_cap:
        raise ValidationError("need 0 < step_floor <= step_cap")
    return _softmax_flip_gradient(_whole(data), pred, grid, step_floor, step_cap, centered)


def _softmax_flip_gradient(block: _Block, pred: PredictionMatrix, grid: LambdaGrid,
                           step_floor: float, step_cap: float, centered: bool
                           ) -> tuple[float, GradientPair]:
    n_p = block.n * block.propensity
    inv_np = 1.0 / n_p
    revenue, cost = pred._treatment_major
    d_rev = np.zeros_like(revenue)
    d_cost = np.zeros_like(cost)
    scores = np.empty_like(revenue)
    loss = 0.0
    for lam in grid:
        np.subtract(revenue, np.multiply(lam, cost, out=scores), out=scores)
        top = scores.max(axis=0)
        loss += _loss_arrays(block, _first(scores == top), lam, inv_np)
        a = _softmax(scores, top)
        xt = block.reward(lam, centered)[0] / n_p  # `* inv_np` rounds otherwise
        ds = _softmax_flip_scores(a, block.treatment, xt, step_floor, step_cap)
        ds -= np.sum(ds * a, axis=0)  # g - <g, a> per column, in place
        ds *= a
        d_rev += ds
        ds *= -lam
        d_cost += ds
    return loss, GradientPair(d_rev.T, d_cost.T)

