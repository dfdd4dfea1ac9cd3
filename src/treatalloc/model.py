"""Multi-head response model: a small MLP built on plain numpy.

The network maps d features to 2M outputs: M revenue heads followed by M
cost heads. Forward and backward passes are explicit so the trainer can
route externally estimated gradient matrices (which autodiff cannot
produce for piecewise-constant losses) straight into the output layer.
Updates use adaptive moments with bias correction.

Layout: every layer's activations are feature-major, (width, n), as a
prediction matrix stores its data (``solver``): a layer is ``W.T @ h`` plus
its bias along contiguous rows, the (2M, n) output is the matrix's storage as
it stands, and backward stacks the kernels' (M, n) gradients into one
C-ordered (2M, n) delta, so each bias gradient sums contiguous memory.

One private epoch loop (``_fit_epoch``) serves every kind of training: the
prediction-only warm start here and the decision-aware epochs of
``training.train``. It orders and batches the rows, runs forward, backward
and the optimizer step, and averages the batch losses; callers supply only
the gradient of their loss with respect to the predictions (the warm start
through the prediction core). A batch runs in consecutive blocks of
``BLOCK_ROWS`` rows (``solver``'s, the package's one block size; views; a
smaller batch is one block), so a full-batch step holds the data plus one
block's temporaries. Each block runs forward
once (backward reads the layer inputs that ``forward_cached`` kept), its
loss gradients and backward; what belongs to the whole batch is computed
over it (``losses._blocks``). Gradients and losses add up in block order,
and the batch takes one optimizer step.

State and checkpoint layout: all parameters live in one float64 vector
``flat``, in the order W0, b0, W1, b1, ... (each W row-major, fan-in by
fan-out). ``weights`` and ``biases`` are views of it, and the gradients and
both moments share its layout, so the update, its checks and the block sums
run on whole vectors. A checkpoint (versioned flat binary) holds the 8-byte
magic ``TACKPT01``, a 4-byte little-endian header length, a JSON header
echoing the model config, layer shapes and any extra metadata, then the
body: ``flat`` as little-endian float64. A plain-text ``<path>.manifest`` with
the same information goes beside it; both are written in place (``cli`` stages them).
"""

from __future__ import annotations

import dataclasses
import json
import operator
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .data import RctDataset, _sigmoid, _unchecked
from .exceptions import ConfigError, NumericError, ValidationError
from .losses import _Block, _blocks, _prediction_loss_grad
from .solver import BLOCK_ROWS, PredictionMatrix

_MAGIC = b"TACKPT01"
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # moment decay rates; denominator guard

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
        for name in ("num_treatments", "input_dim"):  # integers: a float is a TypeError
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        object.__setattr__(self, "layer_widths", tuple(map(operator.index, self.layer_widths)))
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


def _size(config: ModelConfig) -> int:
    """Length of ``flat``: every layer's weights and bias."""
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in config.dims())


def _layers(flat: np.ndarray, config: ModelConfig
            ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each layer's weight matrix and bias as views of ``flat`` (State layout)."""
    weights, biases, at = [], [], 0
    for fan_in, fan_out in config.dims():
        weights.append(flat[at:at + fan_in * fan_out].reshape(fan_in, fan_out))
        biases.append(flat[at + fan_in * fan_out:at + (fan_in + 1) * fan_out])
        at += (fan_in + 1) * fan_out
    return weights, biases


@dataclass(eq=False)
class ModelParams:
    """Parameters as one vector ``flat`` with per-layer views, and the
    optimizer state: both moments, one row each of ``moments``, and ``step``."""

    config: ModelConfig
    flat: np.ndarray  # (_size(config),) float64, in checkpoint order
    step: int = 0
    moments: np.ndarray = field(init=False, repr=False)
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.moments = np.zeros((2, self.flat.size))
        self.weights, self.biases = _layers(self.flat, self.config)

    def num_parameters(self) -> int:
        return self.flat.size


@dataclass(eq=False)
class ParamGrads:
    """Gradients in the layout of ``ModelParams.flat``, with the same views."""

    flat: np.ndarray
    d_weights: list[np.ndarray]
    d_biases: list[np.ndarray]


def init_params(config: ModelConfig) -> ModelParams:
    """Scaled uniform fan-in initialization, seed-controlled; zero biases."""
    rng = np.random.default_rng(config.seed)
    params = ModelParams(config, np.zeros(_size(config)))
    for w in params.weights:
        bound = 1.0 / np.sqrt(w.shape[0])
        w[:] = rng.uniform(-bound, bound, size=w.shape)
    return params


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    return np.tanh(z, out=z)


def forward_cached(params: ModelParams, features: np.ndarray
                   ) -> tuple[np.ndarray, list[np.ndarray]]:
    """(2M, n) outputs plus each layer's (width, n) input: ``features.T``, then each activation."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.config.input_dim:
        raise ValidationError(f"features must be (n, {params.config.input_dim}), got {x.shape}")
    kind, inputs, h = params.config.activation, [], x.T
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        z = w.T @ h
        z += b[:, None]
        if not np.isfinite(z).all():
            raise NumericError(f"non-finite activations in layer {k}")
        h = z if k == len(params.weights) - 1 else _activate(z, kind)
    return h, inputs


def _predictions(params: ModelParams, out: np.ndarray) -> PredictionMatrix:
    # ``out``: (2m, n), C-contiguous, checked finite; the matrix's storage (solver's Layout)
    out.flags.writeable, m = False, params.config.num_treatments
    return _unchecked(PredictionMatrix, revenue=out[:m].T, cost=out[m:].T)


def forward(params: ModelParams, features: np.ndarray) -> PredictionMatrix:
    """Predicted revenue and cost matrices for a feature batch."""
    return _predictions(params, forward_cached(params, features)[0])


def _backprop(params: ModelParams, inputs: list[np.ndarray],
              upstream: tuple[np.ndarray, np.ndarray]) -> ParamGrads:
    """Reverse pass over the layer inputs that ``forward_cached`` kept."""
    kind = params.config.activation
    flat = np.empty(params.flat.size)
    grads = ParamGrads(flat, *_layers(flat, params.config))
    # C order whatever ``upstream``'s layout: the row sums, and so their bits, do not follow it
    delta = np.ascontiguousarray(np.concatenate([u.T for u in upstream]))
    for k in range(len(params.weights) - 1, -1, -1):
        np.matmul(delta, inputs[k].T, out=grads.d_weights[k].T)
        delta.sum(axis=1, out=grads.d_biases[k])
        if k > 0:
            delta = params.weights[k] @ delta  # then times the activation's derivative
            delta *= inputs[k] > 0 if kind == "relu" else 1.0 - inputs[k] * inputs[k]
    return grads


def backward(params: ModelParams, features: np.ndarray,
             upstream: tuple[np.ndarray, np.ndarray]) -> ParamGrads:
    """Exact reverse-mode gradients of ``<upstream, outputs>``.

    ``upstream`` is ``(d_revenue, d_cost)`` as the loss kernels return them,
    each (n, M) and finite; they are stacked into the (2M, n) output gradient.
    """
    x = np.asarray(features, dtype=np.float64)
    upstream = tuple(np.asarray(u, dtype=np.float64) for u in upstream)
    shape = (x.shape[0], params.config.num_treatments)
    if len(upstream) != 2 or any(u.shape != shape or not np.isfinite(u).all() for u in upstream):
        raise ValidationError(f"upstream must be two finite {shape} arrays, one per head")
    return _backprop(params, forward_cached(params, x)[1], upstream)


def optimizer_step(params: ModelParams, grads: ParamGrads, lr: float) -> bool:
    """One adaptive-moment update with bias correction, in place.

    Returns False, touching nothing, when a gradient entry or its square is
    not finite: an infinite second moment would freeze its parameter.
    """
    if lr <= 0:
        raise ConfigError("learning rate must be > 0")
    with np.errstate(over="ignore"):  # a square that overflows is inf, and refused
        if not np.isfinite(grads.flat * grads.flat).all():
            return False
    params.step += 1
    c1, c2 = 1.0 - _BETA1 ** params.step, 1.0 - _BETA2 ** params.step
    (m, v), g = params.moments, grads.flat
    m *= _BETA1
    m += (1 - _BETA1) * g
    v *= _BETA2
    v += (1 - _BETA2) * g * g
    params.flat -= lr * (m / c1) / (np.sqrt(v / c2) + _EPS)
    if not np.isfinite(params.flat).all():
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
            grads.flat += add.flat
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

    link = _sigmoid if objective == "cross-entropy" else None

    def batch_grad(block: _Block, pred: PredictionMatrix):
        return _prediction_loss_grad(block, pred, link)[1:], ()

    rng = np.random.default_rng(shuffle_seed)
    for _ in range(epochs):
        _fit_epoch(params, data, batch_grad, lr, rng, batch_size, optimizer_step)
    return params


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(path: str | Path, params: ModelParams,
                    extra: dict | None = None) -> None:
    """Write params to ``path``, and a text manifest to ``<path>.manifest``, in place."""
    path = Path(path)
    header = {
        "version": 1,
        "config": dataclasses.asdict(params.config),
        "layers": [{"w": [fan_in, fan_out], "b": [fan_out]}
                   for fan_in, fan_out in params.config.dims()],
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with path.open("wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(params.flat.astype("<f8", copy=False))

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
        extra = header["extra"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: unreadable checkpoint header: {exc}") from None
    dims = [((fan_in, fan_out), (fan_out,)) for fan_in, fan_out in cfg.dims()]
    if shapes != dims:
        raise ValidationError(f"{path}: layer shapes {shapes} do not match the config's {dims}")
    expected = 12 + hlen + 8 * _size(cfg)
    if len(raw) != expected:
        raise ValidationError(f"{path}: {len(raw)} bytes, but its header implies {expected}")
    flat = np.frombuffer(raw, dtype="<f8", offset=12 + hlen).astype(np.float64)
    return ModelParams(cfg, flat), extra
