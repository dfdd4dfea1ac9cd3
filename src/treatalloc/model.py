"""Multi-head response model: a small MLP built on plain numpy.

The network maps d features to 2M outputs: M revenue heads followed by M
cost heads. Forward and backward passes are explicit so the trainer can
route externally estimated gradient matrices (which autodiff cannot
produce for piecewise-constant losses) straight into the output layer.
Updates use adaptive moments with bias correction.

One private epoch loop (``_fit_epoch``) serves every kind of training: the
prediction-only warm start here and the decision-aware epochs of
``training.train``. It orders and batches the rows, runs forward, backward
and the optimizer step, and averages the batch losses; callers supply only
the gradient of their loss with respect to the predictions. A batch runs in
consecutive blocks of ``BLOCK_ROWS`` rows (views; a smaller batch is one
block), so a full-batch step holds the data plus one block's temporaries.
Each block runs forward once (backward reads the layer inputs, the features
then each hidden activation, that ``forward_cached`` kept), its loss
gradients and backward; what belongs to the whole batch is computed over it
(``losses._blocks``). Gradients and losses add up in block order, and the
batch takes one optimizer step.

Checkpoint layout (versioned flat binary): 8-byte magic ``TACKPT01``, a
4-byte little-endian header length, a JSON header echoing the model config,
layer shapes and any extra metadata, then the raw little-endian float64
parameter arrays in order W0, b0, W1, b1, ... A plain-text manifest with
the same information is written next to the binary.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .data import RctDataset, _freeze, _sigmoid, _unchecked
from .exceptions import ConfigError, NumericError, ValidationError
from .gradients import GradientPair
from .losses import _Block, _blocks, _prediction_loss_grad
from .solver import PredictionMatrix

_MAGIC = b"TACKPT01"
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # moment decay rates; denominator guard
BLOCK_ROWS = 8192  # rows per block of a training step; 4,096 to 16,384 timed alike

ACTIVATIONS = ("relu", "tanh")
WARM_START_OBJECTIVES = ("squared-error", "cross-entropy")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture: hidden widths, treatment count, input width, seed."""

    layer_widths: tuple[int, ...]
    num_treatments: int
    input_dim: int
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if any(w < 1 for w in self.layer_widths):
            raise ConfigError("hidden widths must be >= 1")
        if self.num_treatments < 1 or self.input_dim < 1:
            raise ConfigError("num_treatments and input_dim must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}")

    @property
    def output_dim(self) -> int:
        return 2 * self.num_treatments

    def dims(self) -> list[tuple[int, int]]:
        sizes = [self.input_dim, *self.layer_widths, self.output_dim]
        return list(zip(sizes[:-1], sizes[1:]))


@dataclass(eq=False)
class ModelParams:
    """Weights, biases, and optimizer state (first/second moments, step)."""

    config: ModelConfig
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    step: int = 0
    m_w: list[np.ndarray] = field(default_factory=list)
    v_w: list[np.ndarray] = field(default_factory=list)
    m_b: list[np.ndarray] = field(default_factory=list)
    v_b: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if not self.m_w:
            self.m_w = [np.zeros_like(w) for w in self.weights]
            self.v_w = [np.zeros_like(w) for w in self.weights]
            self.m_b = [np.zeros_like(b) for b in self.biases]
            self.v_b = [np.zeros_like(b) for b in self.biases]

    def num_parameters(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)


@dataclass(eq=False)
class ParamGrads:
    d_weights: list[np.ndarray]
    d_biases: list[np.ndarray]

    def is_finite(self) -> bool:
        return all(np.isfinite(g).all() for g in self.d_weights) and \
            all(np.isfinite(g).all() for g in self.d_biases)


def init_params(config: ModelConfig) -> ModelParams:
    """Scaled uniform fan-in initialization, seed-controlled."""
    rng = np.random.default_rng(config.seed)
    weights, biases = [], []
    for fan_in, fan_out in config.dims():
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(config=config, weights=weights, biases=biases)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activate_grad(h: np.ndarray, kind: str) -> np.ndarray:
    """Derivative of the activation, from its output ``h``."""
    if kind == "relu":
        return (h > 0).astype(np.float64)
    return 1.0 - h * h


def forward_cached(params: ModelParams, features: np.ndarray
                   ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Outputs plus each layer's input (the features, then each activation)."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.config.input_dim:
        raise ValidationError(
            f"features must be (n, {params.config.input_dim}), got {x.shape}"
        )
    kind = params.config.activation
    inputs: list[np.ndarray] = []
    h = x
    last = len(params.weights) - 1
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        z = h @ w + b
        if not np.isfinite(z).all():
            raise NumericError(f"non-finite activations in layer {k}")
        h = z if k == last else _activate(z, kind)
    return h, inputs


def _predictions(params: ModelParams, out: np.ndarray) -> PredictionMatrix:
    out = _freeze(out)  # its views need no copy, and forward_cached checked it finite
    m = params.config.num_treatments
    return _unchecked(PredictionMatrix, revenue=out[:, :m], cost=out[:, m:])


def forward(params: ModelParams, features: np.ndarray) -> PredictionMatrix:
    """Predicted revenue and cost matrices for a feature batch."""
    return _predictions(params, forward_cached(params, features)[0])


def _backprop(params: ModelParams, inputs: list[np.ndarray],
              upstream: tuple[np.ndarray, np.ndarray]) -> ParamGrads:
    """Reverse pass over the layer inputs that ``forward_cached`` kept."""
    kind = params.config.activation
    d_weights = [np.empty(0)] * len(params.weights)
    d_biases = [np.empty(0)] * len(params.biases)
    # C order whatever the layout of ``upstream`` (the flip and policy kernels
    # return transposed views): the sums below add in memory order
    delta = np.ascontiguousarray(np.concatenate(upstream, axis=1))
    for k in range(len(params.weights) - 1, -1, -1):
        d_weights[k] = inputs[k].T @ delta
        d_biases[k] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ params.weights[k].T) * _activate_grad(inputs[k], kind)
    return ParamGrads(d_weights, d_biases)


def backward(params: ModelParams, features: np.ndarray,
             upstream: GradientPair) -> ParamGrads:
    """Exact reverse-mode gradients of ``<upstream, outputs>``.

    ``upstream`` holds d(loss)/d(revenue) and d(loss)/d(cost), each (n, M);
    they are concatenated into the 2M-wide output gradient.
    """
    x = np.asarray(features, dtype=np.float64)
    if upstream.d_revenue.shape != (x.shape[0], params.config.num_treatments):
        raise ValidationError("upstream shapes must be (n, M) for each head")
    return _backprop(params, forward_cached(params, x)[1], (upstream.d_revenue, upstream.d_cost))


def optimizer_step(params: ModelParams, grads: ParamGrads, lr: float) -> bool:
    """One adaptive-moment update with bias correction, in place.

    Returns False (and leaves parameters untouched, advancing nothing) when
    the gradients contain non-finite entries.
    """
    if lr <= 0:
        raise ConfigError("learning rate must be > 0")
    if not grads.is_finite():
        return False
    params.step += 1
    t = params.step
    c1 = 1.0 - _BETA1 ** t
    c2 = 1.0 - _BETA2 ** t
    for p, m, v, g in zip(params.weights + params.biases, params.m_w + params.m_b,
                          params.v_w + params.v_b, grads.d_weights + grads.d_biases):
        m *= _BETA1
        m += (1 - _BETA1) * g
        v *= _BETA2
        v += (1 - _BETA2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + _EPS)
    for w in params.weights:
        if not np.isfinite(w).all():
            raise NumericError("non-finite parameters after update")
    return True


BatchGrad = Callable[[_Block, PredictionMatrix],
                     tuple[tuple[np.ndarray, np.ndarray], tuple[float, ...]]]


def _fit_epoch(params: ModelParams, data: RctDataset, batch_grad: BatchGrad,
               lr: float, rng: np.random.Generator, batch_size: int | None,
               step: Callable[[ModelParams, ParamGrads, float], bool]
               ) -> tuple[float, ...]:
    """One pass over ``data``, updating ``params`` in place once per batch.

    Full batch (``batch_size`` unset) is ``data`` itself in index order and
    draws nothing from ``rng``; otherwise ``rng`` permutes the rows and
    consecutive slices of the permutation form the batches, each run in
    blocks (module docstring). ``batch_grad(block, pred)`` returns the
    (revenue, cost) gradients of a block's predictions, unchecked (``step``
    skips non-finite ones), and its share of the batch's losses. ``step``
    applies the update; each caller passes the ``optimizer_step`` bound in
    its own module, so a wrapper installed there (instrumentation, a patched
    update) stays in force. Returns the losses as computed on a full batch,
    and their batch-size-weighted means over mini-batches.
    """
    if batch_size:
        order = rng.permutation(data.n)
        batches = (data.take(order[lo:lo + batch_size])
                   for lo in range(0, data.n, batch_size))
    else:
        batches = (data,)
    sums: list[float] = []
    for batch in batches:
        grads = None
        for block in _blocks(batch, BLOCK_ROWS):
            out, inputs = forward_cached(params, block.features)
            upstream, part = batch_grad(block, _predictions(params, out))
            add = _backprop(params, inputs, upstream)
            if grads is None:
                grads, losses = add, part
                continue
            for total, g in zip(grads.d_weights + grads.d_biases, add.d_weights + add.d_biases):
                total += g
            losses = tuple(a + b for a, b in zip(losses, part))
        step(params, grads, lr)
        if not batch_size:
            return losses
        sums = [s + batch.n * v for s, v in zip(sums or [0.0] * len(losses), losses)]
    return tuple(s / data.n for s in sums)


def warm_start(params: ModelParams, data: RctDataset, epochs: int,
               objective: str = "squared-error", lr: float = 1e-3,
               batch_size: int | None = None, shuffle_seed: int = 0) -> ModelParams:
    """Train on the prediction objective alone before decision-aware epochs.

    ``squared-error`` descends the propensity-weighted observed-column
    squared error. ``cross-entropy`` treats both heads as logits of binary
    outcomes through a logistic transform; observed revenue and cost must
    then be 0/1 labels.
    """
    if epochs < 0:
        raise ConfigError("epochs must be >= 0")
    if objective not in WARM_START_OBJECTIVES:
        raise ConfigError(f"unknown warm-start objective {objective!r}")
    if objective == "cross-entropy":
        binary = np.isin(data.revenue, (0.0, 1.0)).all() and \
            np.isin(data.cost, (0.0, 1.0)).all()
        if not binary:
            raise ConfigError("cross-entropy warm start needs 0/1 outcomes")

    def batch_grad(block: _Block, pred: PredictionMatrix):
        if objective == "squared-error":
            return _prediction_loss_grad(block, pred)[1:], ()
        rows = np.arange(pred.n)
        w = 1.0 / (block.n * block.num_treatments * block.propensity)
        d_rev = np.zeros_like(pred.revenue)
        d_cost = np.zeros_like(pred.cost)
        d_rev[rows, block.treatment] = w * (
            _sigmoid(pred.revenue[rows, block.treatment]) - block.revenue
        )
        d_cost[rows, block.treatment] = w * (
            _sigmoid(pred.cost[rows, block.treatment]) - block.cost
        )
        return (d_rev, d_cost), ()

    rng = np.random.default_rng(shuffle_seed)
    for _ in range(epochs):
        _fit_epoch(params, data, batch_grad, lr, rng, batch_size, optimizer_step)
    return params


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(path: str | Path, params: ModelParams,
                    extra: dict | None = None) -> None:
    """Atomic write (temp file + rename) of params plus a text manifest."""
    path = Path(path)
    header = {
        "version": 1,
        "config": dataclasses.asdict(params.config),
        "layers": [
            {"w": list(w.shape), "b": list(b.shape)}
            for w, b in zip(params.weights, params.biases)
        ],
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for w, b in zip(params.weights, params.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
    os.replace(tmp, path)

    manifest = [f"format: {_MAGIC.decode()}", "version: 1"]
    manifest.append(f"config: {json.dumps(header['config'], sort_keys=True)}")
    for k, layer in enumerate(header["layers"]):
        manifest.append(f"layer {k}: W{tuple(layer['w'])} b{tuple(layer['b'])}")
    if extra:
        manifest.append(f"extra: {json.dumps(extra, sort_keys=True)}")
    path.with_name(path.name + ".manifest").write_text(
        "\n".join(manifest) + "\n", encoding="utf-8"
    )


def load_checkpoint(path: str | Path) -> tuple[ModelParams, dict]:
    """Read a checkpoint; returns params (fresh optimizer state) and extras.

    Its layer shapes must be those of its config, and the file exactly as
    long as its header implies: a wrong shape, a file cut short or trailing
    bytes raise ``ValidationError``.
    """
    raw = Path(path).read_bytes()
    if raw[:8] != _MAGIC:
        raise ValidationError(f"{path}: not a checkpoint (bad magic)")
    hlen = int.from_bytes(raw[8:12], "little")
    if len(raw) < 12 + hlen:
        raise ValidationError(f"{path}: checkpoint header cut short")
    try:
        header = json.loads(raw[12:12 + hlen].decode("utf-8"))
        cfg = ModelConfig(**header["config"])
        shapes = [(tuple(layer["w"]), tuple(layer["b"])) for layer in header["layers"]]
        sizes = [(int(np.prod(w)), int(np.prod(b))) for w, b in shapes]
        extra = header["extra"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: unreadable checkpoint header: {exc}") from None
    dims = [((fan_in, fan_out), (fan_out,)) for fan_in, fan_out in cfg.dims()]
    if shapes != dims:
        raise ValidationError(f"{path}: layer shapes {shapes} do not match the config's {dims}")
    expected = 12 + hlen + 8 * sum(wn + bn for wn, bn in sizes)
    if len(raw) != expected:
        raise ValidationError(
            f"{path}: {len(raw)} bytes, but its header implies {expected}"
        )
    offset = 12 + hlen
    weights, biases = [], []
    for (w_shape, b_shape), (wn, bn) in zip(shapes, sizes):
        weights.append(np.frombuffer(raw, dtype="<f8", count=wn, offset=offset)
                       .reshape(w_shape).copy())
        offset += 8 * wn
        biases.append(np.frombuffer(raw, dtype="<f8", count=bn, offset=offset)
                      .reshape(b_shape).copy())
        offset += 8 * bn
    return ModelParams(config=cfg, weights=weights, biases=biases), extra
