"""Output checks computed apart from treatalloc.

Every function here reads files with the standard library or recomputes a
quantity with plain numpy; none calls into the program. Each check returns
a list of problems, empty when the output passes.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

CHECKPOINT_MAGIC = b"TACKPT01"


# -- files --------------------------------------------------------------------

def read_dataset_csv(path: Path) -> dict[str, np.ndarray]:
    """Dataset CSV (id, f0.., treatment, revenue, cost, propensity) by column."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    d = sum(1 for h in header if h.startswith("f"))
    want = ["id"] + [f"f{k}" for k in range(d)] + [
        "treatment", "revenue", "cost", "propensity"]
    if header != want:
        raise ValueError(f"{path.name}: header {header}")
    return {
        "ids": np.array([int(r[0]) for r in body], dtype=np.int64),
        "features": np.array([[float(v) for v in r[1:1 + d]] for r in body]
                             ).reshape(len(body), d),
        "treatment": np.array([int(r[1 + d]) for r in body], dtype=np.int64),
        "revenue": np.array([float(r[2 + d]) for r in body]),
        "cost": np.array([float(r[3 + d]) for r in body]),
        "propensity": np.array([float(r[4 + d]) for r in body]),
    }


def read_matrix_csv(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outcome-matrix CSV (id, r0.., c0..): ids, revenue (n, m), cost (n, m)."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    m = (len(header) - 1) // 2
    if header != ["id"] + [f"r{j}" for j in range(m)] + [f"c{j}" for j in range(m)]:
        raise ValueError(f"{path.name}: header {header}")
    values = np.array([[float(v) for v in r[1:]] for r in body]).reshape(len(body), 2 * m)
    ids = np.array([int(r[0]) for r in body], dtype=np.int64)
    return ids, values[:, :m], values[:, m:]


def read_allocation_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["id", "choice"]:
        raise ValueError(f"{path.name}: header {rows[0]}")
    return (np.array([int(r[0]) for r in rows[1:]], dtype=np.int64),
            np.array([int(r[1]) for r in rows[1:]], dtype=np.int64))


def read_curve_csv(path: Path) -> list[dict[str, float]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def read_checkpoint(path: Path) -> tuple[dict, list[tuple[np.ndarray, np.ndarray]]]:
    """Header and (W, b) layers of a checkpoint, following its documented
    layout: magic ``TACKPT01``, little-endian u32 header length, JSON header,
    then little-endian float64 arrays W0, b0, W1, b1, ..."""
    raw = path.read_bytes()
    if raw[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path.name}: bad magic {raw[:8]!r}")
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen])
    offset = 12 + hlen
    layers = []
    for shapes in header["layers"]:
        arrays = []
        for shape in (shapes["w"], shapes["b"]):
            size = int(np.prod(shape))
            arrays.append(np.frombuffer(raw, dtype="<f8", count=size,
                                        offset=offset).reshape(shape))
            offset += 8 * size
        layers.append((arrays[0], arrays[1]))
    if offset != len(raw):
        raise ValueError(f"{path.name}: {len(raw) - offset} trailing bytes")
    return header, layers


def predict(header: dict, layers, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Revenue and cost predictions of a checkpoint, with plain numpy."""
    h = features
    for k, (w, b) in enumerate(layers):
        z = h @ w + b
        last = k == len(layers) - 1
        if last:
            h = z
        elif header["config"]["activation"] == "relu":
            h = np.maximum(z, 0.0)
        else:
            h = np.tanh(z)
    m = header["config"]["num_treatments"]
    return h[:, :m], h[:, m:]


# -- data ---------------------------------------------------------------------

def check_dataset_matches(read: dict[str, np.ndarray], data) -> list[str]:
    """A re-read dataset CSV equals an in-memory dataset bit-exactly."""
    problems = []
    expected = {
        "ids": data.ids, "features": data.features, "treatment": data.treatment,
        "revenue": data.revenue, "cost": data.cost,
        "propensity": data.propensities[data.treatment],
    }
    for key, want in expected.items():
        got = read[key]
        if got.shape != want.shape or not np.array_equal(got, want):
            problems.append(f"data.csv column {key} differs from the generated data")
    return problems


def check_matrix_matches(ids: np.ndarray, revenue: np.ndarray, cost: np.ndarray,
                         data, truth) -> list[str]:
    """A re-read outcome matrix equals the generated one row by row, by id."""
    if not np.array_equal(ids, data.ids):
        return ["truth.csv ids differ from data.csv ids"]
    if not (np.array_equal(revenue, truth.revenue) and np.array_equal(cost, truth.cost)):
        return ["truth.csv values differ from the generated counterfactual matrix"]
    return []


# -- allocations ----------------------------------------------------------------

def check_choice_vector(ids: np.ndarray, choice: np.ndarray, n: int, m: int) -> list[str]:
    """Exactly one choice in [0, m) for each of the ids 0..n-1."""
    problems = []
    if ids.shape != (n,) or not np.array_equal(np.sort(ids), np.arange(n)):
        problems.append("allocation does not hold each id exactly once")
    if choice.shape != (n,) or choice.min() < 0 or choice.max() >= m:
        problems.append("allocation holds a choice outside the treatment range")
    return problems


def allocation_cost(cost: np.ndarray, choice: np.ndarray) -> float:
    return float(cost[np.arange(choice.shape[0]), choice].sum())


def check_fits(spent: float, budget: float, what: str, slack: float = 0.0) -> list[str]:
    if not spent <= budget + slack + 1e-12 * abs(budget):
        return [f"{what}: spend {spent!r} exceeds budget {budget!r}"]
    return []


def true_revenue(truth_revenue: np.ndarray, choice: np.ndarray) -> float:
    """Mean true revenue per row of an allocation."""
    return float(truth_revenue[np.arange(choice.shape[0]), choice].mean())


def dual_upper_bound(revenue: np.ndarray, cost: np.ndarray, spend: float) -> float:
    """Lagrangian bound on the total revenue of any allocation spending at
    most ``spend``: the least of ``lam * spend + sum_i max_j (r - lam c)``
    over a grid of multipliers (every multiplier gives a valid bound)."""
    best = math.inf
    for lam in np.linspace(0.0, 4.0, 81):
        best = min(best, lam * spend + float((revenue - lam * cost).max(axis=1).sum()))
    return best


def check_below_dual_bound(truth_revenue: np.ndarray, truth_cost: np.ndarray,
                           choice: np.ndarray) -> list[str]:
    """An allocation's true revenue is at most the dual bound of the truth
    matrix at the allocation's true spend."""
    n = choice.shape[0]
    value = true_revenue(truth_revenue, choice)
    bound = dual_upper_bound(truth_revenue, truth_cost,
                             allocation_cost(truth_cost, choice)) / n
    if not value <= bound + 1e-12 * abs(bound):
        return [f"true revenue {value!r} above the dual bound {bound!r}"]
    return []


def ips_estimate(treatment: np.ndarray, revenue: np.ndarray, cost: np.ndarray,
                 choice: np.ndarray, m: int) -> tuple[float, float]:
    """Matched inverse-propensity per-capita revenue and cost, propensities
    taken as the observed treatment shares."""
    n = treatment.shape[0]
    share = np.bincount(treatment, minlength=m) / n
    matched = choice == treatment
    weight = 1.0 / (n * share[treatment[matched]])
    return (math.fsum(weight * revenue[matched]), math.fsum(weight * cost[matched]))


def check_estimate(estimate, treatment, revenue, cost, choice, m: int,
                   budget: float) -> list[str]:
    """The program's estimate equals an independent IPS sum (relative 1e-12)
    and fits the per-capita budget within the bisection slack of 1e-6."""
    problems = []
    rev, spent = ips_estimate(treatment, revenue, cost, choice, m)
    for name, got, want in (("revenue", estimate.per_capita_revenue, rev),
                            ("cost", estimate.per_capita_cost, spent)):
        if not abs(got - want) <= 1e-12 * max(abs(want), 1e-300):
            problems.append(f"estimated {name} {got!r} differs from IPS sum {want!r}")
    problems += check_fits(estimate.per_capita_cost, budget, "estimate", slack=1e-6)
    return problems


def check_matched_fraction(fraction: float, n: int, m: int) -> list[str]:
    """Assignment is uniform and independent of the policy's inputs, so the
    matched fraction is Binomial(n, 1/m)/n; allow five standard errors."""
    p = 1.0 / m
    se = math.sqrt(p * (1.0 - p) / n)
    if abs(fraction - p) > 5.0 * se:
        return [f"matched fraction {fraction!r} is more than 5 SE from {p!r}"]
    return []


def check_dual_solution(revenue: np.ndarray, cost: np.ndarray, budget: float,
                        lam: float, choice: np.ndarray, objective: float) -> list[str]:
    """argmax rule at lam, budget fit and the duality sandwich
    ``objective <= dual <= objective + max revenue``."""
    problems = []
    own = np.argmax(revenue - lam * cost, axis=1)
    if not np.array_equal(own, choice):
        problems.append(f"choice differs from argmax(r - lam c) in "
                        f"{int((own != choice).sum())} rows")
    problems += check_fits(allocation_cost(cost, choice), budget, "allocation")
    dual = lam * budget + float((revenue - lam * cost).max(axis=1).sum())
    tol = 1e-9 * max(abs(dual), 1.0)
    if not objective - tol <= dual <= objective + float(revenue.max()) + tol:
        problems.append(f"dual value {dual!r} outside [{objective!r}, "
                        f"{objective!r} + max revenue]")
    return problems


def check_training_log(records, expected_steps: int, steps: int) -> list[str]:
    problems = []
    for r in records:
        if not all(math.isfinite(v) for v in (r.prediction, r.decision, r.total)):
            problems.append(f"non-finite loss logged at epoch {r.epoch}")
            break
    if steps != expected_steps:
        problems.append(f"params.step is {steps}, the schedule implies {expected_steps}")
    return problems


def expected_steps(n: int, epochs: int, batch_size: int | None) -> int:
    """Optimizer steps of ``epochs`` passes over ``n`` rows."""
    return epochs * (math.ceil(n / batch_size) if batch_size else 1)
