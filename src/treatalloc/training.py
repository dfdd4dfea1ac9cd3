"""Training loop: composite loss, decision backends, logging.

Each epoch combines the prediction loss (weight ``alpha``) with one decision
backend:

- ``two-stage``: no decision term; the pure prediction baseline.
- ``policy``: softmax policy surrogate over the multiplier grid.
- ``entropy``: the temperature-``tau`` generalization of ``policy``.
- ``perturb``: matched-outcome dual loss with flip-point gradients routed
  into the output heads as constants.
- ``perturb-softmax``: same but perturbing row-softmax scores, smoothed
  through the softmax Jacobian.

The softmax backends support mini-batches with batch-local normalization;
the perturbation backends need full-dataset passes or large batches because
the matched-set statistics degrade on small ones.

Epochs run on the model's shared loop (``model._fit_epoch``), the same one
the warm start uses: ``train`` supplies the composite loss and its gradient
per batch, from one call per loss term that returns its value with its
gradient (so each multiplier is decided once), checks the loss is finite,
and keeps the log.

Every decision backend trains on the centred estimates (``centered=True``
in ``losses`` and ``gradients``): the mean observed reward of the batch is
taken out of each row's reward before inverse-propensity weighting. On data
where a large base revenue is shared by all treatments the plain estimates
are too noisy to learn from, and the decision term then pulls the heads
away from good allocations; the centred ones have the same expectation at a
small fraction of the variance.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import RctDataset
from .evaluation import _allocator
from .exceptions import ConfigError, InfeasibleError, NumericError, ValidationError
from .gradients import dual_flip_gradient, softmax_flip_gradient
from .losses import LambdaGrid, prediction_loss_grad, tempered_policy_loss_grad
from .model import WARM_START_OBJECTIVES, ModelConfig, ModelParams, _fit_epoch, forward, \
    init_params, optimizer_step, warm_start

BACKENDS = ("two-stage", "policy", "entropy", "perturb", "perturb-softmax")


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training run needs; all randomness flows from ``seed``."""

    epochs: int
    lambda_grid: LambdaGrid
    backend: str = "two-stage"
    alpha: float = 1.0
    tau: float = 1.0
    warm_start_epochs: int = 0
    warm_start_objective: str = "squared-error"
    lr: float = 1e-3
    batch_size: int | None = None
    seed: int = 0
    hidden_widths: tuple[int, ...] = (64, 32, 32)
    activation: str = "relu"
    eval_every: int = 10
    eval_budgets: tuple[float, ...] = ()
    step_floor: float = 1e-6
    step_cap: float = 0.5

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ConfigError(f"backend must be one of {BACKENDS}")
        for name in ("alpha", "tau", "lr", "step_floor", "step_cap"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.alpha < 0:
            raise ConfigError("alpha must be >= 0")
        if self.tau <= 0:
            raise ConfigError("tau must be > 0")
        if not 0 < self.step_floor <= self.step_cap:
            raise ConfigError("need 0 < step_floor <= step_cap")
        if self.epochs < 0 or self.warm_start_epochs < 0:
            raise ConfigError("epoch counts must be >= 0")
        if self.warm_start_objective not in WARM_START_OBJECTIVES:
            raise ConfigError(f"unknown warm-start objective {self.warm_start_objective!r}; "
                              f"choose from {WARM_START_OBJECTIVES}")
        if not all(b >= 0 for b in self.eval_budgets):  # NaN fails too
            raise ConfigError(f"eval_budgets must be >= 0, got {self.eval_budgets}")
        if self.warm_start_epochs > self.epochs:
            raise ConfigError("warm_start_epochs must not exceed epochs")
        if self.lr <= 0:
            raise ConfigError("learning rate must be > 0")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1 when set")
        if self.backend in ("perturb", "perturb-softmax") and self.batch_size \
                and self.batch_size < 2048:
            raise ConfigError(
                "perturbation backends need full-dataset passes or large "
                "batches (>= 2048): matched-set statistics degrade on small ones"
            )

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self),
                "lambda_grid": list(self.lambda_grid.values),
                "hidden_widths": list(self.hidden_widths),
                "eval_budgets": list(self.eval_budgets)}


@dataclass(frozen=True)
class EpochRecord:
    """One line of the training log."""

    epoch: int
    prediction: float
    decision: float
    total: float
    wall_seconds: float
    snapshot: tuple[float, ...] | None = None  # per-budget revenue on eval data


def _decision_loss_and_grad(data: RctDataset, pred, config: TrainConfig
                            ) -> tuple[float, np.ndarray, np.ndarray]:
    """Backend dispatch: decision loss value plus gradients wrt predictions."""
    grid = config.lambda_grid
    if config.backend == "two-stage":
        return 0.0, np.zeros_like(pred.revenue), np.zeros_like(pred.cost)
    if config.backend in ("policy", "entropy"):
        tau = 1.0 if config.backend == "policy" else config.tau
        return tempered_policy_loss_grad(data, pred, grid, tau=tau, centered=True)
    if config.backend == "perturb":
        value, grad = dual_flip_gradient(data, pred, grid, step_floor=config.step_floor,
                                         centered=True)
    else:
        # perturb-softmax: gradients come from the smoothed score
        # perturbation; the recorded loss is the same matched dual loss
        value, grad = softmax_flip_gradient(data, pred, grid, step_floor=config.step_floor,
                                            step_cap=config.step_cap, centered=True)
    return value, grad.d_revenue, grad.d_cost


def train(data: RctDataset, config: TrainConfig,
          eval_data: RctDataset | None = None
          ) -> tuple[ModelParams, list[EpochRecord]]:
    """Run warm start plus decision-aware epochs; returns params and the log.

    When ``eval_data`` and ``eval_budgets`` are given, every ``eval_every``-th
    record carries estimated per-capita revenue at those budgets on the
    held-out data (training data is never used for snapshots).
    """
    if data.n == 0:
        raise ValidationError("training data is empty")
    model_config = ModelConfig(
        layer_widths=config.hidden_widths,
        num_treatments=data.num_treatments,
        input_dim=data.num_features,
        activation=config.activation,
        seed=config.seed,
    )
    params = init_params(model_config)
    rng = np.random.default_rng(config.seed)

    if config.warm_start_epochs:
        warm_start(params, data, config.warm_start_epochs,
                   objective=config.warm_start_objective, lr=config.lr,
                   batch_size=config.batch_size,
                   shuffle_seed=config.seed)

    def batch_grad(batch: RctDataset, pred):
        p_loss, pg_rev, pg_cost = prediction_loss_grad(batch, pred)
        d_loss, dg_rev, dg_cost = _decision_loss_and_grad(batch, pred, config)
        if not np.isfinite(config.alpha * p_loss + d_loss):
            raise NumericError(
                f"non-finite loss at epoch {epoch}: "
                f"prediction={p_loss} decision={d_loss}"
            )
        return ((config.alpha * pg_rev + dg_rev, config.alpha * pg_cost + dg_cost),
                (p_loss, d_loss))

    records: list[EpochRecord] = []
    for epoch in range(config.epochs - config.warm_start_epochs):
        start = time.perf_counter()
        p_epoch, d_epoch = _fit_epoch(params, data, batch_grad, config.lr, rng,
                                      config.batch_size, optimizer_step)

        snapshot = None
        if (eval_data is not None and config.eval_budgets
                and (epoch + 1) % config.eval_every == 0):
            allocate = _allocator(eval_data, forward(params, eval_data.features))
            values = []
            for b in config.eval_budgets:
                try:
                    values.append(allocate(b)[2].per_capita_revenue)
                except InfeasibleError:
                    values.append(float("nan"))  # budget below the model's floor
            snapshot = tuple(values)
        records.append(EpochRecord(
            epoch=epoch,
            prediction=p_epoch,
            decision=d_epoch,
            total=config.alpha * p_epoch + d_epoch,
            wall_seconds=time.perf_counter() - start,
            snapshot=snapshot,
        ))
    return params, records


def format_epoch_record(rec: EpochRecord) -> str:
    parts = [
        f"epoch={rec.epoch}",
        f"pred={rec.prediction!r}",
        f"dec={rec.decision!r}",
        f"total={rec.total!r}",
        f"wall={rec.wall_seconds:.3f}",
    ]
    if rec.snapshot is not None:
        parts.append("eval=" + ",".join(repr(v) for v in rec.snapshot))
    return " ".join(parts)


def write_training_log(path: str | Path, records: list[EpochRecord]) -> None:
    lines = [format_epoch_record(r) for r in records]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
