"""The references the package is checked against, on synthetic ground truth.

In deployment the counterfactual makes the full-information decision loss
impossible to compute and the optimal allocation impossible to obtain; on
synthetic data both exist. This module holds them: the brute-force optimum
(``brute_force_oracle``), the full-information losses (``full_mse``,
``oracle_dual_losses``), the finite-difference flip oracle
(``flip_fd_gradient``) and the helpers the tests build their expectations
from (``row_softmax``, ``observed_rewards``, ``gradient_inner_loss``).

It uses only public names of ``treatalloc``, so a defect in a private kernel
cannot show in a reference too. The arithmetic it shares with the kernels
(the softmax, the matched loss of an allocation, the centred rewards, the
flat-index sums of an allocation) is written out here in the kernels'
operation order, so a reference and a kernel on the same input agree bit
for bit wherever the tests compare bits.
"""

import numpy as np

from treatalloc.data import RctDataset
from treatalloc.exceptions import (ConfigError, InfeasibleError, TreatallocError,
                                   ValidationError)
from treatalloc.losses import LambdaGrid
from treatalloc.solver import Allocation, PredictionMatrix

_MAX_ASSIGNMENTS = 2_000_000  # brute_force_oracle's enumeration cap
_OVERSHOOT = 1e-6  # flip_fd_gradient's relative extra step, realizing flips at exact ties


class SizeError(TreatallocError):
    """Instance exceeds the cap of an enumeration-based reference routine."""


def observed_rewards(data: RctDataset, lam: float, centered: bool = False
                     ) -> tuple[np.ndarray, float]:
    """Observed dual reward ``r - lam * c`` per row, less the baseline.

    Returns ``(reward - baseline, baseline)``. With ``centered`` the baseline
    is the mean reward over the rows; otherwise it is 0 and the rewards are
    returned unchanged.
    """
    reward = data.revenue - lam * data.cost
    if not centered:
        return reward, 0.0
    baseline = float(reward.mean()) if data.n else 0.0
    return reward - baseline, baseline


def row_softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (n, m) scores, computed treatment-major in a copy."""
    e = scores.T.copy()
    np.subtract(e, e.max(axis=0), out=e)
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=0), out=e).T.copy()


def full_mse(truth: PredictionMatrix, pred: PredictionMatrix) -> float:
    """Mean squared error over the whole outcome matrix (synthetic only)."""
    if truth.revenue.shape != pred.revenue.shape:
        raise ValidationError("truth and prediction shapes differ")
    dr = truth.revenue - pred.revenue
    dc = truth.cost - pred.cost
    return float(np.mean(dr * dr + dc * dc))


def oracle_dual_losses(truth: PredictionMatrix, pred: PredictionMatrix,
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


def gradient_inner_loss(pred: PredictionMatrix, upstream: tuple[np.ndarray, np.ndarray]) -> float:
    """Inner product of fixed gradients ``(d_revenue, d_cost)`` with the predictions.

    Differentiating this scalar with respect to the predictions returns the
    gradient matrices unchanged, which is how the estimator's gradients are
    routed into a model's backward pass.
    """
    d_rev, d_cost = upstream
    if d_rev.shape != pred.revenue.shape:
        raise ValidationError("gradient and prediction shapes differ")
    return float(np.sum(d_rev * pred.revenue) + np.sum(d_cost * pred.cost))


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
                     centered: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences at per-entry argmax-flipping steps (oracle): ``(d_revenue, d_cost)``.

    Each entry is perturbed by its signed flip step (floored at
    ``step_floor``, slightly overshot so the flip is realized under exact
    ties), the single-multiplier loss is re-evaluated from scratch, and the
    quotient uses the nominal floored step. Gradients accumulate over the
    grid. Cost entries are skipped at ``lam = 0``. ``centered`` differences
    the loss whose matched rewards have their row mean taken out.
    """
    if pred.revenue.shape != (data.n, data.num_treatments):
        raise ValidationError(
            f"prediction shape {pred.revenue.shape} does not cover dataset "
            f"({data.n}, {data.num_treatments})"
        )
    if data.num_treatments < 2:
        raise ValidationError("gradient analysis needs at least 2 treatments")
    n, m = pred.revenue.shape
    if n * m > max_cells:
        raise SizeError(f"{n * m} cells exceed fd cap {max_cells}")
    d_rev = np.zeros((n, m))
    d_cost = np.zeros((n, m))
    rows = np.arange(n)
    inv_np = 1.0 / (data.n * data.sample_propensity())
    for lam in grid:
        def loss(revenue, cost):
            choice = np.argmax(revenue - lam * cost, axis=1)
            w = np.where(choice == data.treatment, inv_np, 0.0)
            if centered:
                reward, baseline = observed_rewards(data, lam, centered=True)
                return -float(np.sum(w * reward)) - baseline
            return -(float(np.sum(w * data.revenue)) - lam * float(np.sum(w * data.cost)))
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
    return d_rev, d_cost


def _allocation_from_choice(pred: PredictionMatrix, choice: np.ndarray) -> Allocation:
    revenue, cost = pred.revenue.T, pred.cost.T
    cells = np.multiply(choice, pred.n, dtype=np.intp) + np.arange(pred.n)
    return Allocation(
        choice=choice.astype(np.int64),
        objective=float(revenue.ravel().take(cells).sum()),
        total_cost=float(cost.ravel().take(cells).sum()),
    )


def brute_force_oracle(truth: PredictionMatrix, budget: float) -> Allocation:
    """Exact optimum by enumerating all M^N assignments (tiny instances only).

    Assignments costing more than the budget are skipped; the feasible
    assignment with maximum revenue wins. The winning choice is scored
    through the same reduction as the dual allocations so objective values
    of identical choices agree bitwise.
    """
    revenue, cost = truth.revenue, truth.cost
    n, m = revenue.shape
    if n == 0:
        return Allocation(choice=np.zeros(0, dtype=np.int64), objective=0.0,
                          total_cost=0.0)
    if n > 15:
        raise SizeError(f"brute force capped at n <= 15, got {n}")
    total = m ** n
    if total > _MAX_ASSIGNMENTS:
        raise SizeError(f"{total} assignments exceed cap {_MAX_ASSIGNMENTS}")

    # Level-by-level partial sums: after row i the arrays hold the cost and
    # revenue of every assignment of rows 0..i.
    costs = cost[0].copy()
    revs = revenue[0].copy()
    for i in range(1, n):
        costs = (costs[:, None] + cost[i][None, :]).ravel()
        revs = (revs[:, None] + revenue[i][None, :]).ravel()

    feasible = costs <= budget
    if not feasible.any():
        raise InfeasibleError(
            f"no assignment fits budget {budget}; cheapest costs {costs.min()}",
            floor_cost=float(costs.min()),
        )
    masked = np.where(feasible, revs, -np.inf)
    best = int(np.argmax(masked))

    choice = np.zeros(n, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        choice[i] = best % m
        best //= m
    return _allocation_from_choice(truth, choice)
