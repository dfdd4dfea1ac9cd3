"""Budget allocation over multiple treatments via Lagrangian duality.

The primal problem picks exactly one treatment per individual to maximize
total revenue subject to a global cost budget. Relaxing the budget with a
multiplier decomposes the problem per individual: each row independently
takes ``argmax_j (revenue_ij - lam * cost_ij)``. As ``lam`` grows each row
walks the upper envelope of these lines towards cheaper treatments; one
sorted pass over all rows' switch points makes the allocation cost an exact
step function of ``lam``, so the multiplier for a budget is a lookup (the
greedy LP solution of the multiple-choice knapsack). Switch points depend on
the predictions only: a (read-only) prediction matrix builds its sweep once,
and makes its ``lam = 0`` decision, where every search starts, once.
A brute-force enumerator serves as the exact oracle on small instances.

Layout: numpy reduces a short last axis one row at a time, so a prediction
matrix keeps one treatment-major copy of its data, (m, n) C-contiguous
arrays made once per matrix on first use and read-only like the matrix.
Every probe, dual bound and sweep, and the training kernels in ``losses``
and ``gradients``, read that copy, so a per-individual maximum is a reduce
over contiguous rows. numpy's ``argmax`` has no such reduce, so each winner
is found with comparisons only (``_first``: the lowest index equal to the
maximum, the tie rule of ``argmax``; finite multipliers and predictions
give no NaN score), and single cells are reached through flat indices
``j * n + i`` into the raveled copy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data import _freeze
from .exceptions import InfeasibleError, SizeError, ValidationError

_MAX_ASSIGNMENTS = 2_000_000  # brute_force_oracle's enumeration cap


@dataclass(eq=False)
class PredictionMatrix:
    """Predicted revenue and cost for every individual x treatment, read-only.

    It takes over the arrays handed to it, as ``RctDataset`` does: writing to
    them through another reference is unsupported (the cached sweep goes stale)."""

    revenue: np.ndarray  # (n, m)
    cost: np.ndarray     # (n, m)

    def __post_init__(self):
        self.revenue = _freeze(np.asarray(self.revenue, dtype=np.float64))
        self.cost = _freeze(np.asarray(self.cost, dtype=np.float64))
        if self.revenue.ndim != 2 or self.revenue.shape != self.cost.shape:
            raise ValidationError("revenue and cost must share shape (n, m)")
        if self.revenue.shape[1] < 1:
            raise ValidationError("prediction matrices need at least one treatment")
        if not (np.isfinite(self.revenue).all() and np.isfinite(self.cost).all()):
            raise ValidationError("prediction matrices must be finite")

    @cached_property
    def _treatment_major(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (m, n) C-contiguous copies of revenue and cost (Layout)."""
        return tuple(_freeze(np.ascontiguousarray(x.T)) for x in (self.revenue, self.cost))

    @cached_property
    def _unconstrained(self) -> Allocation:
        """``decide_dual(self, 0.0)``, made once; its choice is read-only and
        in the smallest unsigned int type, as it lives as long as the matrix."""
        alloc = decide_dual(self, 0.0)
        small = alloc.choice.astype(np.min_scalar_type(self.num_treatments - 1))
        return replace(alloc, choice=_freeze(small))

    @cached_property
    def _sweep(self) -> _Sweep:
        return _Sweep(self)

    @property
    def n(self) -> int:
        return self.revenue.shape[0]

    @property
    def num_treatments(self) -> int:
        return self.revenue.shape[1]


@dataclass(frozen=True)
class Allocation:
    """One chosen treatment per individual plus achieved objective and cost."""

    choice: np.ndarray   # (n,) int64
    objective: float     # sum of revenue at the chosen treatments
    total_cost: float

    @property
    def n(self) -> int:
        return self.choice.shape[0]


@dataclass(frozen=True)
class DualSolution:
    """Multiplier, its allocation, and the dual bound at that multiplier."""

    lam: float
    allocation: Allocation
    dual_value: float
    trace: tuple[tuple[float, float], ...] = ()  # (lam, cost) per direct probe

    def __post_init__(self):
        _check_multiplier(self.lam)


def _check_multiplier(lam: float) -> None:
    if not 0 <= lam < np.inf:  # NaN fails too
        raise ValidationError(f"multiplier must be finite and >= 0, got {lam!r}")


def _first(hit: np.ndarray) -> np.ndarray:
    """Index of the first True down each column of (m, n) ``hit``, every
    column holding one: ``m - 1`` boolean passes count the rows before it."""
    seen = hit[0].copy()
    first = np.zeros(hit.shape[1], np.min_scalar_type(hit.shape[0] - 1))
    for row in hit[1:]:
        first += ~seen
        seen |= row
    return first


def _scores(pred: PredictionMatrix, lam: float) -> np.ndarray:
    """(m, n) scores ``revenue - lam * cost`` in one fresh array."""
    _check_multiplier(lam)
    revenue, cost = pred._treatment_major
    scores = np.multiply(lam, cost)
    return np.subtract(revenue, scores, out=scores)


def _allocation_from_choice(pred: PredictionMatrix, choice: np.ndarray) -> Allocation:
    revenue, cost = pred._treatment_major
    cells = np.multiply(choice, pred.n, dtype=np.intp) + np.arange(pred.n)
    return Allocation(
        choice=choice.astype(np.int64),
        objective=float(revenue.ravel().take(cells).sum()),
        total_cost=float(cost.ravel().take(cells).sum()),
    )


def decide_dual(pred: PredictionMatrix, lam: float) -> Allocation:
    """Per-row argmax of ``revenue - lam * cost``; ties go to the lowest index."""
    scores = _scores(pred, lam)
    return _allocation_from_choice(pred, _first(scores == scores.max(axis=0)))


def dual_value(pred: PredictionMatrix, lam: float, budget: float) -> float:
    """Dual bound ``lam * budget + sum_i max_j (revenue_ij - lam * cost_ij)``;
    the budget term is 0 at ``lam = 0``, an infinite budget included."""
    if np.isnan(budget):
        raise ValidationError(f"budget must not be NaN, got {budget!r}")
    term = lam * budget if lam > 0 or np.isfinite(budget) else 0.0  # 0 * inf is NaN
    return float(term + _scores(pred, lam).max(axis=0).sum())


def lambda_upper_bound(pred: PredictionMatrix) -> float:
    """A multiplier past every row's last switch point (twice the last one,
    or 1 when none is positive): ``decide_dual`` there gives the
    minimum-cost allocation."""
    return float(pred._sweep.breaks[-1])


class _Sweep:
    """Every row's walk along the upper envelope of ``revenue - lam * cost``.

    From ``lam = 0``, each event moves a row to the cheaper line overtaking
    its current one (at most ``m - 1`` passes). Events are sorted and grouped
    by multiplier; group ``g``'s allocation holds on ``(breaks[g],
    breaks[g + 1])``, the last interval ending at the upper bound.
    ``cost_delta[e]`` is the predicted-cost change of event ``e``, from
    ``start_cost``, the predicted cost at ``lam = 0``."""

    def __init__(self, pred: PredictionMatrix):
        revenue, cost = r, c = pred._treatment_major
        cur = pred._unconstrained.choice.copy()
        self.start_cost = pred._unconstrained.total_cost
        at = np.zeros(pred.n)  # multiplier of each row's latest move
        active = np.arange(pred.n)
        events = [(np.zeros(0), active[:0], active[:0], active[:0])]
        for _ in range(pred.num_treatments - 1):
            j, here = cur[active], np.arange(active.size)
            gap = c[j, here] - c
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                t = r[j, here] - r
                t /= gap  # where line k overtakes line j
            np.maximum(t, at[active], out=t)
            t[gap <= 0] = np.inf  # only cheaper lines overtake
            best = t.min(axis=0)
            # equal crossings: argmax keeps the cheaper line, then the lower index
            k = np.argmin(np.where(t == best, c, np.inf), axis=0)
            moved = best < np.inf
            active = active[moved]
            events.append((best[moved], active, cur[active], k[moved]))
            cur[active] = k[moved]
            at[active] = best[moved]
            r, c = revenue.take(active, axis=1), cost.take(active, axis=1)
        lam, rows, old, new = map(np.concatenate, zip(*events))
        order = np.argsort(lam)
        lam = lam[order]
        # the cached indices live as long as the matrix: smallest int types
        self.rows = rows[order].astype(np.min_scalar_type(pred.n))
        self.old, self.new = (j[order].astype(np.min_scalar_type(pred.num_treatments))
                              for j in (old, new))
        self.n = pred.n
        self.ends = np.flatnonzero(np.diff(lam, append=np.inf)) + 1  # per group
        # twice the last switch point scales with the cost unit; 1 if none is positive
        top = lam.max(initial=0.0)
        self.breaks = np.append(lam[self.ends - 1], 2.0 * top if top > 0 else 1.0)
        self.cost_delta = cost[self.new, self.rows] - cost[self.old, self.rows]

    @cached_property
    def cost_search(self):
        """``searcher`` of the predicted cost, built on first use."""
        return self.searcher(self.start_cost, self.cost_delta)

    def searcher(self, start: float, delta: np.ndarray):
        """``search(budget, probe) -> (lam, result)``: the smallest multiplier
        whose direct ``probe(lam) -> (value, result)`` fits the budget, for a
        row-additive value that is ``start`` at ``lam = 0`` and changes by
        ``delta[e]`` at event ``e``. Prefix sums and direct sums differ by
        rounding only, so each group that fits within that error is probed
        just above its breakpoint, unless its value repeats; the upper bound
        comes last. The prefix sums, their slack and the groups whose value
        changes depend on ``delta`` only: they are computed here, once."""
        totals = start + np.cumsum(delta)[self.ends - 1]
        slack = (delta.size + self.n + 2) * 2.0 ** -52 * (
            abs(start) + float(np.abs(delta).sum()))
        changes = np.flatnonzero(totals != np.concatenate(([start], totals[:-1])))
        totals = totals[changes]
        breaks = self.breaks

        def search(budget: float, probe):
            groups = changes[totals <= budget + slack]
            inside = (float(max(lo + (hi - lo) / 1024.0, np.nextafter(lo, np.inf)))
                      for lo, hi in zip(breaks[groups], breaks[groups + 1]))
            for lam in itertools.chain(inside, [float(breaks[-1])]):
                value, result = probe(lam)
                if value <= budget:
                    return lam, result
            raise InfeasibleError(f"budget {budget} below the floor {value}",
                                  floor_cost=value)

        return search


def solve_budget(pred: PredictionMatrix, budget: float) -> DualSolution:
    """Exact multiplier and allocation for a total budget: ``decide_dual``
    just above the breakpoint where the cost first fits; never overspends.

    A budget below the ``lam = 0`` cost is a lookup on the matrix's sweep.
    The trace holds (lam, cost) of the matrix's ``lam = 0`` decision, made
    once per matrix, and of each direct probe after it. Raises
    InfeasibleError with the floor cost when no allocation fits.
    """
    if not budget >= 0:
        raise ValidationError(f"budget must be >= 0, got {budget!r}")
    top = pred._unconstrained
    trace = [(0.0, top.total_cost)]

    def probe(lam):
        alloc = decide_dual(pred, lam)
        trace.append((lam, alloc.total_cost))
        return alloc.total_cost, alloc

    if top.total_cost <= budget:  # a fresh choice: the cached one is shared
        lam, alloc = 0.0, replace(top, choice=top.choice.astype(np.int64))
    else:
        lam, alloc = pred._sweep.cost_search(budget, probe)
    return DualSolution(lam, alloc, dual_value(pred, lam, budget), tuple(trace))


def brute_force_oracle(truth, budget: float) -> Allocation:
    """Exact optimum by enumerating all M^N assignments (tiny instances only).

    ``truth`` is anything with (n, m) ``revenue`` and ``cost`` arrays.
    Assignments costing more than the budget are skipped; the feasible
    assignment with maximum revenue wins. The winning choice is re-scored
    through the same reduction as the dual allocations so objective values
    of identical choices agree bitwise.
    """
    revenue = np.asarray(truth.revenue, dtype=np.float64)
    cost = np.asarray(truth.cost, dtype=np.float64)
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
    return _allocation_from_choice(PredictionMatrix(revenue, cost), choice)
