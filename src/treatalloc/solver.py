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

Layout: numpy reduces a short last axis one row at a time, so a prediction
matrix stores its data treatment-major: each of revenue and cost is one
read-only (m, n) C-contiguous array, copied from the input when the matrix
is built (as ``data.RctDataset`` copies the arrays handed to it), and the
(n, m) fields are its ``.T`` views. Every probe, dual bound and sweep,
and the training kernels in ``losses`` and ``gradients``, read those (m, n)
arrays, so a per-individual maximum is a reduce over contiguous rows.
numpy's ``argmax`` has no such reduce, so each winner is found with
comparisons only (``_first``: the lowest index equal to the maximum, the tie
rule of ``argmax``; finite multipliers and predictions give no NaN score),
and single cells are reached through flat indices ``j * n + i`` into a
raveled (m, n) array.

Each probe and each sweep pass runs on ``BLOCK_ROWS``-column blocks (the
package's one block size; ``model`` trains on blocks of that many rows), so
its temporaries are a few (m, BLOCK_ROWS) buffers, reused from block to
block, not (m, n) arrays. A probe writes each row's choice and chosen
revenue and cost into (n,) arrays and sums each array once at the end; then
each row's best score, its chosen revenue less ``lam`` times its chosen
cost, overwrites the cost array for the dual bound's sum. The sweep
concatenates its blocks' events pass by pass. So every sum and every field
has the bits of a pass over all rows at once, and a search reads its dual
bound off the probe that found its multiplier.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .exceptions import InfeasibleError, ValidationError

# columns per probe or sweep block, rows per training block (Layout); in
# training, 4,096 to 16,384 timed alike
BLOCK_ROWS = 8192


@dataclass(eq=False)
class PredictionMatrix:
    """Revenue and cost for every individual x treatment, read-only: a
    model's predictions or, as ``data.CounterfactualMatrix``, the synthetic
    ground truth.

    It copies the arrays handed to it (Layout), as ``data.RctDataset``
    does, so later writes to them do not reach it or its cached sweep."""

    revenue: np.ndarray  # (n, m), a view of a (m, n) C-contiguous array
    cost: np.ndarray     # (n, m)

    def __post_init__(self):
        self.revenue, self.cost = (np.array(np.asarray(x).T, dtype=np.float64, order="C")
                                   for x in (self.revenue, self.cost))
        self.revenue.flags.writeable = self.cost.flags.writeable = False
        self.revenue, self.cost = self.revenue.T, self.cost.T
        if self.revenue.ndim != 2 or self.revenue.shape != self.cost.shape:
            raise ValidationError("revenue and cost must share shape (n, m)")
        if self.revenue.shape[1] < 1:
            raise ValidationError("outcome matrices need at least one treatment")
        if not (np.isfinite(self.revenue).all() and np.isfinite(self.cost).all()):
            raise ValidationError("outcome matrices must be finite")

    @cached_property
    def _unconstrained(self) -> Allocation:
        """``decide_dual(self, 0.0)``, made once; its choice is read-only and
        in the smallest unsigned int type, as it lives as long as the matrix."""
        alloc = decide_dual(self, 0.0)
        small = alloc.choice.astype(np.min_scalar_type(self.num_treatments - 1))
        small.flags.writeable = False
        return replace(alloc, choice=small)

    @cached_property
    def _sweep(self) -> _Sweep:
        return _Sweep(self)

    @property
    def n(self) -> int:
        return self.revenue.shape[0]

    @property
    def num_treatments(self) -> int:
        return self.revenue.shape[1]

    def take(self, indices: np.ndarray) -> PredictionMatrix:
        """The rows at ``indices``, in their order, as a new matrix."""
        return PredictionMatrix(self.revenue[indices], self.cost[indices])


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


def _decide(pred: PredictionMatrix, lam: float) -> tuple[Allocation, float]:
    """``decide_dual`` and ``sum_i max_j (revenue_ij - lam * cost_ij)`` in one
    pass of ``BLOCK_ROWS``-column blocks over one reused score buffer (Layout).
    A row's best score is recomputed from its chosen cells: the score its
    choice won with, so the column maximum's number (a zero's sign aside)."""
    _check_multiplier(lam)
    revenue, cost = pred.revenue.T, pred.cost.T
    m, n = revenue.shape
    width = min(n, BLOCK_ROWS)
    scores, hit = np.empty((m, width)), np.empty((m, width), bool)
    tops, cells, cols = np.empty(width), np.empty(width, np.intp), np.arange(width)
    choice, gained, spent = np.empty(n, np.int64), np.empty(n), np.empty(n)
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        s, h, flat = scores[:, :hi - lo], hit[:, :hi - lo], cells[:hi - lo]
        np.multiply(lam, cost[:, lo:hi], out=s)
        np.subtract(revenue[:, lo:hi], s, out=s)
        np.equal(s, s.max(axis=0, out=tops[:hi - lo]), out=h)
        won = _first(h)
        choice[lo:hi] = won
        np.multiply(won, n, out=flat, dtype=np.intp)
        flat += cols[:hi - lo]
        flat += lo
        revenue.ravel().take(flat, out=gained[lo:hi], mode="clip")  # "clip" skips a copy
        cost.ravel().take(flat, out=spent[lo:hi], mode="clip")
    objective, total_cost = float(gained.sum()), float(spent.sum())
    best = np.subtract(gained, np.multiply(lam, spent, out=spent), out=spent)
    return Allocation(choice, objective, total_cost), float(best.sum())


def decide_dual(pred: PredictionMatrix, lam: float) -> Allocation:
    """Per-row argmax of ``revenue - lam * cost``; ties go to the lowest index."""
    return _decide(pred, lam)[0]


def dual_value(pred: PredictionMatrix, lam: float, budget: float) -> float:
    """Dual bound ``lam * budget + sum_i max_j (revenue_ij - lam * cost_ij)``;
    the budget term is 0 at ``lam = 0``, an infinite budget included."""
    if np.isnan(budget):
        raise ValidationError(f"budget must not be NaN, got {budget!r}")
    term = lam * budget if lam > 0 or np.isfinite(budget) else 0.0  # 0 * inf is NaN
    return float(term + _decide(pred, lam)[1])


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
        revenue, cost = pred.revenue.T, pred.cost.T
        rows_type, index_type = (np.min_scalar_type(k) for k in (pred.n, pred.num_treatments))
        self.start_cost = pred._unconstrained.total_cost
        empty = (np.zeros(0), np.zeros(0, rows_type), *2 * [np.zeros(0, index_type)])
        # per pass, one (lam, rows, old, new) per block; concatenated pass-major,
        # they are in the order of a pass over all rows at once
        passes = [[] for _ in range(pred.num_treatments - 1)]
        for lo in range(0, pred.n, BLOCK_ROWS):
            cols = slice(lo, lo + BLOCK_ROWS)
            r, c = block_r, block_c = revenue[:, cols], cost[:, cols]
            cur = pred._unconstrained.choice[cols].copy()
            at = np.zeros(r.shape[1])  # multiplier of each row's latest move
            active = np.arange(r.shape[1])
            for events in passes:
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
                events.append((best[moved], (active + lo).astype(rows_type),
                               cur[active].astype(index_type), k[moved].astype(index_type)))
                cur[active] = k[moved]
                at[active] = best[moved]
                if not active.size:
                    break
                r, c = block_r.take(active, axis=1), block_c.take(active, axis=1)
        lam, rows, old, new = map(np.concatenate, zip(empty, *itertools.chain(*passes)))
        del passes  # the blocks' events go before the sort's copies come
        order = np.argsort(lam)
        lam = lam[order]
        # the cached indices live as long as the matrix: smallest int types
        self.rows, self.old, self.new = rows[order], old[order], new[order]
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
        alloc, best_sum = _decide(pred, lam)
        trace.append((lam, alloc.total_cost))
        return alloc.total_cost, (alloc, best_sum)

    if top.total_cost <= budget:  # a fresh choice: the cached one is shared
        lam, alloc = 0.0, replace(top, choice=top.choice.astype(np.int64))
        bound = float(0.0 + top.objective)  # at lam = 0 a row's best score is its revenue
    else:  # lam > 0 and a finite budget: the bound of the probe that found lam
        lam, (alloc, best_sum) = pred._sweep.cost_search(budget, probe)
        bound = float(lam * budget + best_sum)
    return DualSolution(lam, alloc, bound, tuple(trace))
