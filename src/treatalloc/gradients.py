"""Perturbation-based gradients of the matched-outcome dual decision loss.

The dual decision loss scores an allocation on randomized data: samples
whose observed treatment equals the allocation's choice contribute their
inverse-propensity-weighted reward ``r - lam * c``. The loss is piecewise
constant in the predictions, so gradients come from perturbation analysis.

``dual_flip_gradient`` is the fast estimator. Because rows decide
independently, the loss change of any single-entry perturbation is known in
closed form: the sample either leaves or joins the matched set. The
gradient is that jump divided by the signed flip step, floored to bound
magnitudes near ties. Linear cost; scales to millions of rows.

``softmax_flip_gradient`` runs the same analysis on row-softmax scores with
clipped steps and chains the result back through the softmax. Both fast
estimators return ``(loss, d_revenue, d_cost)``, the contract of every loss
kernel in ``losses``: the loss is ``ips_dual_loss`` summed over the grid,
read off the allocation each pass has decided, and the gradients are (n, m).

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

Layout: the fast estimators work treatment-major, on the (m, n) arrays that
a prediction matrix stores (see ``losses``), one individual per column.
Their private cores (``_dual_flip_gradient``, ``_softmax_flip_gradient``,
run per row block as in ``losses``) give the grid loop
``losses._per_multiplier`` their per-multiplier heads. ``_flip_gaps``
computes the gaps in its score buffer, or the softmax scores' in a copy in
its spare buffer, where ``dual_flip_gradient``'s cost steps go; it finds
each winner with comparisons only (about 60 us at 8,192 x 5 for the maximum,
one comparison and ``solver._first``, against about 250 us for ``argmax``)
and reaches single cells through flat indices. ``ips_dual_loss`` stays
row-major: it is the loss whose sum over the grid the fast kernels return.

``dual_flip_gradient`` and ``softmax_flip_gradient`` take ``centered``: the loss jump of a row is then its reward less the mean
reward of the rows in the call. Under randomized assignment the baseline's
share of the leaving and joining jumps cancels in expectation, but on
base-dominated rewards it is most of each jump; taking it out cuts the
estimator's variance by more than an order of magnitude. The trainer always
uses this centred form (see ``losses``).
"""

from __future__ import annotations

import numpy as np

from .data import RctDataset
from .exceptions import ValidationError
from .losses import LambdaGrid, _Block, _check_cover, _per_multiplier, _softmax, _whole
from .solver import PredictionMatrix, _check_multiplier, _first


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
                 inv_np: np.ndarray) -> float:
    w = np.where(choice == data.treatment, inv_np, 0.0)
    return -(float(np.sum(w * data.revenue)) - lam * float(np.sum(w * data.cost)))


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
                       centered: bool = False) -> tuple[float, np.ndarray, np.ndarray]:
    """Summed plain dual decision loss and its fast closed-form flip gradients.

    Per multiplier and sample, the loss jump of leaving/joining the matched
    set is divided by the signed flip step of each entry; steps are floored
    at ``step_floor`` so near-ties cannot blow up the quotient. A cost
    entry moves its score ``lam`` times as fast and the other way, so its
    step is the gap over ``lam``, floored in cost space. Matches forward
    differences at each entry's flip step (with the same ``centered``)
    entrywise on tie-free instances. The loss is the plain one, whatever ``centered`` is.
    """
    _check_pair(data, pred)
    if step_floor <= 0:
        raise ValidationError("step_floor must be > 0")
    return _dual_flip_gradient(_whole(data), pred, grid, step_floor, centered)


def _dual_flip_gradient(block: _Block, pred: PredictionMatrix, grid: LambdaGrid,
                        step_floor: float, centered: bool
                        ) -> tuple[float, np.ndarray, np.ndarray]:
    inv_np = 1.0 / (block.n * block.propensity)
    def head(lam, scores, spare, d_rev, d_cost):
        gap, sign, choice = _flip_gaps(scores, block.treatment)
        xt = block.reward(lam, centered)[0] * inv_np
        if lam > 0:  # first, as the revenue head works in gap
            with np.errstate(over="ignore"):  # a step past the float range is inf: gradient 0
                step = np.divide(gap, lam, out=spare)
            d_cost -= _flip_head(xt, np.maximum(step, step_floor, out=step), sign)
        d_rev += _flip_head(xt, np.maximum(gap, step_floor, out=gap), sign)
        return _loss_arrays(block, choice, lam, inv_np)
    return _per_multiplier(pred, grid, head)


def softmax_flip_gradient(data: RctDataset, pred: PredictionMatrix,
                          grid: LambdaGrid, step_floor: float = 1e-6,
                          step_cap: float = 0.5, centered: bool = False
                          ) -> tuple[float, np.ndarray, np.ndarray]:
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
                           ) -> tuple[float, np.ndarray, np.ndarray]:
    n_p = block.n * block.propensity
    inv_np = 1.0 / n_p
    def head(lam, scores, spare, d_rev, d_cost):
        top = scores.max(axis=0)
        loss = _loss_arrays(block, _first(scores == top), lam, inv_np)
        a = _softmax(scores, top)
        spare[...] = a  # the flip analysis of the softmax scores, in their copy
        gap, sign, _ = _flip_gaps(spare, block.treatment)
        xt = block.reward(lam, centered)[0] / n_p  # `* inv_np` rounds otherwise
        ds = _flip_head(xt, np.clip(gap, step_floor, step_cap, out=gap), sign)
        ds -= np.sum(ds * a, axis=0)  # g - <g, a> per column, in place
        ds *= a
        d_rev += ds
        ds *= -lam
        d_cost += ds
        return loss
    return _per_multiplier(pred, grid, head)
