"""Shared builders for hand-sized datasets and random instances."""

import dataclasses
from functools import cached_property

import numpy as np
import pytest

from treatalloc.data import RctDataset
from treatalloc.solver import PredictionMatrix


def make_dataset(treatment, revenue, cost, num_treatments, propensities=None,
                 features=None):
    """Direct dataset construction for hand-built test instances."""
    t = np.asarray(treatment, dtype=np.int64)
    n = t.shape[0]
    if features is None:
        features = np.zeros((n, 1))
    return RctDataset(
        ids=np.arange(n, dtype=np.int64),
        features=np.asarray(features, dtype=np.float64),
        treatment=t,
        revenue=np.asarray(revenue, dtype=np.float64),
        cost=np.asarray(cost, dtype=np.float64),
        num_treatments=num_treatments,
        propensities=None if propensities is None else np.asarray(propensities),
    )


def same_dataset(a: RctDataset, b: RctDataset) -> bool:
    """Field-by-field equality of two datasets."""
    return a.num_treatments == b.num_treatments and all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("ids", "features", "treatment", "revenue", "cost", "propensities"))


def random_instance(rng, n=None, m=None, min_gap=0.0):
    """Random dataset + prediction pair with every treatment present.

    ``min_gap`` regenerates predictions until every row's top two dual
    scores are separated at the grid multipliers used by gradient tests.
    """
    m = m if m is not None else int(rng.integers(2, 6))
    n = n if n is not None else int(rng.integers(m, 30))
    n = max(n, m)
    t = rng.integers(0, m, n)
    t[:m] = np.arange(m)
    data = make_dataset(
        treatment=t,
        revenue=rng.uniform(0.0, 5.0, n),
        cost=rng.uniform(0.0, 2.0, n),
        num_treatments=m,
    )
    while True:
        pred = PredictionMatrix(rng.uniform(0.0, 5.0, (n, m)),
                                rng.uniform(0.1, 2.0, (n, m)))
        if min_gap == 0.0:
            return data, pred
        ok = True
        for lam in (0.3, 1.1, 2.0):
            a = np.sort(pred.revenue - lam * pred.cost, axis=1)
            if np.min(a[:, -1] - a[:, -2]) < min_gap:
                ok = False
                break
        if ok:
            return data, pred


def tie_heavy_instance(rng, n, m):
    """Few distinct values, duplicate rows, zero and negative costs: many
    rows switch at the same multiplier and many lines coincide."""
    revenue = rng.integers(0, 4, (n, m)) / 2.0
    cost = rng.integers(-1, 3, (n, m)) / 2.0
    revenue[n // 2:] = revenue[:n - n // 2]
    cost[n // 2:] = cost[:n - n // 2]
    return PredictionMatrix(revenue, cost)


def dyadic_instance(rng, n, m):
    """Multiples of 2**-20 small enough that their sums are exact in float64."""
    return PredictionMatrix(rng.integers(0, 2 ** 23, (n, m)) / 2 ** 20,
                            rng.integers(0, 2 ** 22, (n, m)) / 2 ** 20)


BUILDERS = {  # (rng, n, m) -> PredictionMatrix
    "random": lambda rng, n, m: PredictionMatrix(rng.uniform(0, 5, (n, m)),
                                                 rng.uniform(0, 2, (n, m))),
    "dyadic": dyadic_instance,
    "tie-heavy": tie_heavy_instance,
}


def planted_ties(pred, t):
    """``pred`` and treatments ``t`` with rows planted where ties decide:
    all scores equal (row 0); first place shared by columns 0 and m - 1,
    observed m - 1 (row 1); second place shared by columns 1 and 2, observed
    2 (row 2); and runner-ups 1 and 2 one ulp apart under a clear winner,
    observed 2, whose gaps to the winner round to one value (row 3)."""
    r, c, t = pred.revenue.copy(), pred.cost.copy(), t.copy()
    n, m = r.shape
    if n < 4 or m < 3:
        return pred, t
    r[:4], c[:4] = 0.0, 0.0
    r[0], c[0] = 1.0, 0.5
    r[1, [0, -1]] = 3.0
    r[2, 0], r[2, [1, 2]] = 10.0, 5.0
    r[3, 0], r[3, 1], r[3, 2] = 7.0, 2.0, np.nextafter(2.0, np.inf)
    t[1:4] = m - 1, 2, 2
    return PredictionMatrix(r, c), t


def instances(rng, count):
    """Random, dyadic and tie-heavy instances of varying size."""
    for i in range(count):
        n, m = int(rng.integers(1, 9)), int(rng.integers(2, 5))
        kind = i % 3
        if kind == 0:
            yield PredictionMatrix(rng.uniform(0, 5, (n, m)),
                                   rng.uniform(0, 2, (n, m)))
        elif kind == 1:
            yield dyadic_instance(rng, n, m)
        else:
            yield tie_heavy_instance(rng, n, m)


def interval_points(pred):
    """Zero, then one multiplier inside every interval between consecutive
    candidate switch points (every pairwise line crossing), ascending.
    Derived without the sweep."""
    r, c = pred.revenue, pred.cost
    cross = [0.0]
    for k in range(pred.num_treatments):
        for j in range(k):
            dc = c[:, j] - c[:, k]
            ok = dc != 0
            cross.extend(((r[ok, j] - r[ok, k]) / dc[ok]).tolist())
    cross = np.unique([x for x in cross if x >= 0])
    mids = 0.5 * (cross[1:] + cross[:-1])
    return np.concatenate(([0.0], mids, [2.0 * cross[-1] + 1.0]))


def central_differences(pred, fields, h, loss):
    """``(field, i, j, (loss(up) - loss(down)) / (2 h))`` for every entry of
    each named array, ``up`` and ``down`` being copies of the read-only
    ``pred`` with that entry moved by ``+h`` and ``-h``."""
    for field in fields:
        for i, j in np.ndindex(pred.revenue.shape):
            values = []
            for step in (h, -h):
                arrays = {"revenue": pred.revenue.copy(), "cost": pred.cost.copy()}
                arrays[field][i, j] += step
                values.append(loss(PredictionMatrix(**arrays)))
            yield field, i, j, (values[0] - values[1]) / (2 * h)


def replay(sweep, pred, groups):
    """Choice vector after the first ``groups`` groups of sweep events."""
    choice = np.argmax(pred.revenue, axis=1)
    stop = sweep.ends[groups - 1] if groups else 0
    for row, old, new in zip(sweep.rows[:stop], sweep.old[:stop], sweep.new[:stop]):
        assert choice[row] == old
        choice[row] = new
    return choice


def exact(value):
    """``value`` with each float as its hex string, each array as its dtype,
    shape and bytes and each dataclass as its fields, so that ``==`` on two
    results compares their bits."""
    if dataclasses.is_dataclass(value):
        value = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(exact(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return value.hex() if isinstance(value, float) else value


def count_calls(monkeypatch, fn, *targets, raising=True):
    """Install at every dotted ``targets`` path a wrapper of ``fn`` that
    records the positional arguments of each call; return that list. A
    cached property is wrapped as one, so each object still fills it once."""
    calls = []
    getter = fn.func if isinstance(fn, cached_property) else fn

    def counting(*args):
        calls.append(args)
        return getter(*args)

    wrapper = counting
    if isinstance(fn, cached_property):
        wrapper = cached_property(counting)
        wrapper.__set_name__(None, fn.attrname)
    for target in targets:
        monkeypatch.setattr(target, wrapper, raising=raising)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
