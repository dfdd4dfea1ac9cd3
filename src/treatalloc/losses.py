"""Decision-aware training losses and their full-information counterparts.

Observed data reveal one treatment per individual, so squared error over the
full outcome matrix cannot be computed directly. The losses here reweight
the observed column by inverse assignment propensity, which makes them
unbiased for their full-information counterparts under randomized
assignment. The two smooth decision surrogates score a row-softmax policy
over ``revenue - lam * cost`` for every multiplier in a grid.

All surrogate values are reported per individual (divided by N) so that
magnitudes are comparable across dataset sizes; the gradient direction is
unchanged by this uniform rescaling.

Centred form. Most of an observed reward ``r - lam * c`` is usually a base
level that is the same under every treatment, and it cancels out of the
inverse-propensity gradient only in expectation. With ``centered=True`` the
policy surrogate and the flip estimators in ``gradients`` subtract a
treatment-independent baseline, the mean reward over the rows in the call,
before weighting (a control variate; Dudik, Langford & Li 2011). The
expected gradient is unchanged while its variance drops by more than an
order of magnitude on base-dominated data, so training always uses the
centred form. The policy loss adds the baseline back, which keeps its value
unbiased for the full-information softmax loss up to an O(1/N) term. The
public functions default to the plain estimate.

Layout: numpy reduces a short last axis row by row, about 30x slower at
4,096 x 5 than along contiguous memory, so the softmax kernels, and the
flip kernels in ``gradients``, reduce over axis 0 of the prediction
matrix's (m, n) copy, made once per matrix and shared with the solver (see
``solver``), and return their gradients as ``.T`` views. Single cells, such
as each row's observed treatment, are read and written through flat indices
into the raveled array. Up to m = 7 both layouts give the same bits.

Training runs each kernel per row block (``_Block``, ``model.BLOCK_ROWS``
rows), on the predictions of that block: the (m, n) copy and every
temporary then hold one block, which stays in cache. Each public kernel is
the one-block case of a private core (``_prediction_loss_grad`` and so on)
that takes the constants of the whole batch with the block: ``n``, each
row's propensity and the centred baselines. Per-row values are then those
of the whole batch; a loss value is the block's share, added up by the
caller in block order, so only sums over more than one block change bits.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .data import CounterfactualMatrix, RctDataset
from .exceptions import ConfigError, ValidationError
from .solver import PredictionMatrix


@dataclass(frozen=True)
class LambdaGrid:
    """Strictly increasing, nonnegative multiplier values."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValidationError("multiplier grid must be nonempty")
        if not np.isfinite(vals).all():
            raise ValidationError("multipliers must be finite")
        if any(v < 0 for v in vals):
            raise ValidationError("multipliers must be >= 0")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValidationError("multipliers must be strictly increasing")
        object.__setattr__(self, "values", vals)

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class BudgetGrid:
    """Nondecreasing, nonnegative budget values."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValidationError("budget grid must be nonempty")
        if not all(v >= 0 for v in vals):  # NaN fails too
            raise ValidationError(f"budgets must be >= 0, got {vals}")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ValidationError("budgets must be sorted ascending")
        object.__setattr__(self, "values", vals)

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


def _check_cover(data: RctDataset, pred) -> None:
    if pred.revenue.shape != (data.n, data.num_treatments):
        raise ValidationError(
            f"prediction shape {pred.revenue.shape} does not cover dataset "
            f"({data.n}, {data.num_treatments})"
        )


def observed_rewards(data: RctDataset, lam: float, centered: bool = False
                     ) -> tuple[np.ndarray, float]:
    """Observed dual reward ``r - lam * c`` per row, less the baseline.

    Returns ``(reward - baseline, baseline)``. With ``centered`` the baseline
    is the mean reward over the rows; otherwise it is 0 and the rewards are
    returned unchanged.
    """
    return _whole(data).reward(lam, centered)


class _Block:
    """A slice of a batch's rows, as views, with what belongs to the whole
    batch: its row count ``n``, each row's treatment propensity (sliced from
    one array per batch) and each multiplier's centred baseline (computed
    over the batch when first asked for, and shared by its blocks). The
    kernels' private cores run on one block; the public kernels on their
    dataset as a single block (``_whole``)."""

    def __init__(self, batch: RctDataset, rows: slice, propensity: np.ndarray,
                 baselines: dict[float, float]):
        self.n, self.num_treatments, self.first = batch.n, batch.num_treatments, rows.start == 0
        self.features, self.treatment, self.revenue, self.cost = (
            batch.features[rows], batch.treatment[rows], batch.revenue[rows], batch.cost[rows])
        self.propensity = propensity[rows]
        self._batch, self._baselines = batch, baselines

    def reward(self, lam: float, centered: bool) -> tuple[np.ndarray, float]:
        """``observed_rewards`` of these rows, centred on the batch's mean
        reward, and the block's share of that baseline in a loss value: all
        of it in the first block, none in the others."""
        reward = self.revenue - lam * self.cost
        if not centered:
            return reward, 0.0
        if lam not in self._baselines:  # a single block holds the batch's rewards
            batch = reward if reward.size == self.n else \
                self._batch.revenue - lam * self._batch.cost
            self._baselines[lam] = float(batch.mean()) if self.n else 0.0
        baseline = self._baselines[lam]
        return reward - baseline, baseline if self.first else 0.0


def _blocks(batch: RctDataset, size: int) -> Iterator[_Block]:
    """``batch`` in consecutive blocks of ``size`` rows; a batch of at most
    ``size`` rows is one block."""
    propensity, baselines = batch.sample_propensity(), {}
    return (_Block(batch, slice(lo, lo + size), propensity, baselines)
            for lo in range(0, max(batch.n, 1), size))


def _whole(data: RctDataset) -> _Block:
    """``data`` as a single block."""
    return _Block(data, slice(0, None), data.sample_propensity(), {})


def _softmax(scores: np.ndarray, top: np.ndarray | None = None) -> np.ndarray:
    """Softmax over axis 0 of (m, n) scores, whose column maxima ``top`` are
    taken here unless given; large logits do not overflow."""
    e = scores - (scores.max(axis=0) if top is None else top)
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=0), out=e)


def row_softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (n, m) scores, computed treatment-major."""
    return _softmax(np.ascontiguousarray(scores.T)).T.copy()


def prediction_loss(data: RctDataset, pred: PredictionMatrix) -> float:
    """Propensity-weighted squared error on the observed treatment column.

    Equals ``(1/M) sum_i (1/N_{t_i}) [(r_i - rhat_i)^2 + (c_i - chat_i)^2]``
    when propensities are empirical; explicit propensities are honored via
    the weight ``1 / (N * p_{t_i})``.
    """
    return prediction_loss_grad(data, pred)[0]


def prediction_loss_grad(data: RctDataset, pred: PredictionMatrix
                         ) -> tuple[float, np.ndarray, np.ndarray]:
    """`prediction_loss` and its gradient with respect to the prediction
    matrices, from one gather of the observed column."""
    _check_cover(data, pred)
    return _prediction_loss_grad(_whole(data), pred)


def _prediction_loss_grad(block: _Block, pred: PredictionMatrix
                          ) -> tuple[float, np.ndarray, np.ndarray]:
    rows = np.arange(pred.n)
    w = 1.0 / (block.n * block.num_treatments * block.propensity)
    # a model's heads are strided views, which ``ravel`` would copy: read
    # them by (row, column), write the new C-order gradients by flat index
    dr = pred.revenue[rows, block.treatment] - block.revenue
    dc = pred.cost[rows, block.treatment] - block.cost
    obs = rows * block.num_treatments + block.treatment
    d_rev = np.zeros(pred.revenue.shape)
    d_cost = np.zeros(pred.cost.shape)
    d_rev.ravel()[obs] = 2.0 * w * dr
    d_cost.ravel()[obs] = 2.0 * w * dc
    return float(np.sum(w * (dr * dr + dc * dc))), d_rev, d_cost


def full_mse(truth: CounterfactualMatrix, pred: PredictionMatrix) -> float:
    """Mean squared error over the whole outcome matrix (synthetic only)."""
    if truth.revenue.shape != pred.revenue.shape:
        raise ValidationError("truth and prediction shapes differ")
    dr = truth.revenue - pred.revenue
    dc = truth.cost - pred.cost
    return float(np.mean(dr * dr + dc * dc))


def tempered_policy_loss(data: RctDataset, pred: PredictionMatrix,
                         grid: LambdaGrid, tau: float, centered: bool = False
                         ) -> float:
    """Entropy-regularized policy surrogate, summed over the multiplier grid.

    Per multiplier: the negative propensity-weighted observed reward
    ``r - lam * c`` under the temperature-``tau`` softmax policy over
    predicted scores, divided by N. ``centered`` weights the reward less its
    row mean and adds that mean back (see the module docstring).
    """
    return tempered_policy_loss_grad(data, pred, grid, tau, centered)[0]


def policy_learning_loss(data: RctDataset, pred: PredictionMatrix,
                         grid: LambdaGrid) -> float:
    """Softmax policy surrogate; the temperature-1 case of the tempered loss."""
    return tempered_policy_loss(data, pred, grid, tau=1.0)


def max_entropy_loss(data: RctDataset, pred: PredictionMatrix,
                     grid: LambdaGrid, tau: float) -> float:
    """Alias following the entropy-regularizer derivation of the surrogate."""
    return tempered_policy_loss(data, pred, grid, tau)


def tempered_policy_loss_grad(data: RctDataset, pred: PredictionMatrix,
                              grid: LambdaGrid, tau: float, centered: bool = False
                              ) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss plus its exact gradient with respect to the prediction matrices.

    The per-row loss is ``-beta_i * w[i, t_i]`` with softmax weights w, so
    ``d/ds_ij = -beta_i * w[i, t_i] * (1[j = t_i] - w_ij)`` and the chain
    rule maps scores back through ``s = (revenue - lam * cost) / tau``.
    With ``centered``, ``beta`` uses the reward less its row mean; the
    baseline depends on the data only, so it adds to the value, not to the
    gradient.
    """
    if tau <= 0:
        raise ConfigError("temperature must be > 0")
    _check_cover(data, pred)
    return _tempered_policy_loss_grad(_whole(data), pred, grid, tau, centered)


def _tempered_policy_loss_grad(block: _Block, pred: PredictionMatrix, grid: LambdaGrid,
                               tau: float, centered: bool
                               ) -> tuple[float, np.ndarray, np.ndarray]:
    obs = block.treatment * pred.n + np.arange(pred.n)  # flat (m, n) index of the observed cells
    weight = 1.0 / (block.n * block.propensity)
    revenue, cost = pred._treatment_major
    d_rev = np.zeros_like(revenue)
    d_cost = np.zeros_like(cost)
    total = 0.0
    for lam in grid:
        ds = _softmax((revenue - lam * cost) / tau)  # the weights w, then d/ds in place
        reward, baseline = block.reward(lam, centered)
        beta_w = weight * reward * ds.ravel().take(obs)  # beta_i * w[i, t_i]
        total += -float(np.sum(beta_w)) - baseline
        ds *= beta_w
        ds.ravel()[obs] -= beta_w
        d_rev += ds / tau
        ds *= -lam / tau
        d_cost += ds
    return total, d_rev.T, d_cost.T


def oracle_dual_losses(truth: CounterfactualMatrix, pred: PredictionMatrix,
                       grid: LambdaGrid, tau: float) -> tuple[float, float, float]:
    """Full-information decision losses (synthetic verification references).

    Returns, per-individual and summed over the grid:
    - hard: negative true reward of the per-row argmax of predicted scores;
    - soft: negative true reward under the softmax policy of those scores;
    - tempered: the same with scores divided by ``tau``.
    """
    if tau <= 0:
        raise ConfigError("temperature must be > 0")
    if truth.revenue.shape != pred.revenue.shape:
        raise ValidationError("truth and prediction shapes differ")
    n = truth.n
    rows = np.arange(n)
    hard = soft = tempered = 0.0
    for lam in grid:
        scores = pred.revenue - lam * pred.cost
        reward = truth.revenue - lam * truth.cost
        choice = np.argmax(scores, axis=1)
        hard += -float(reward[rows, choice].sum()) / n
        soft += -float(np.sum(reward * row_softmax(scores))) / n
        tempered += -float(np.sum(reward * row_softmax(scores / tau))) / n
    return hard, soft, tempered
