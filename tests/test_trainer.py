import math

import numpy as np
import pytest

from treatalloc.data import GeneratorConfig, RctDataset, generate_synthetic, split
from treatalloc.evaluation import (_allocator, allocate_at_budget, aucc, cost_curve,
                                   default_budget_grid)
from treatalloc.exceptions import ConfigError, NumericError
from treatalloc.gradients import GradientPair, dual_flip_gradient, ips_dual_loss
from treatalloc.losses import (BudgetGrid, LambdaGrid, prediction_loss_grad,
                               tempered_policy_loss_grad)
from treatalloc.model import (ModelConfig, backward, forward, forward_cached, init_params,
                              optimizer_step)
from treatalloc.solver import PredictionMatrix
from treatalloc.training import (BACKENDS, EpochRecord, TrainConfig,
                                 _decision_loss_and_grad, format_epoch_record, train,
                                 write_training_log)

GRID = LambdaGrid((0.2, 0.8))


def small_config(**kw):
    defaults = dict(epochs=8, lambda_grid=GRID, backend="two-stage", lr=3e-3,
                    seed=0, hidden_widths=(8,))
    defaults.update(kw)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def tiny_data():
    data, _ = generate_synthetic(GeneratorConfig(n=400, m=3, d=4, noise=0.2), seed=1)
    return data


@pytest.fixture(scope="module")
def wide_data():
    """Enough rows for three mini-batches of the perturbation backends."""
    data, _ = generate_synthetic(GeneratorConfig(n=5000, m=3, d=4, noise=0.2), seed=2)
    return data


class TestTrainConfig:
    def test_backend_validation(self):
        with pytest.raises(ConfigError):
            small_config(backend="magic")
        for backend in BACKENDS:
            assert small_config(backend=backend).backend == backend

    def test_warm_start_bounded_by_epochs(self):
        with pytest.raises(ConfigError):
            small_config(epochs=5, warm_start_epochs=6)

    def test_perturb_backend_rejects_small_batches(self):
        with pytest.raises(ConfigError):
            small_config(backend="perturb", batch_size=64)
        assert small_config(backend="perturb", batch_size=4096).batch_size == 4096

    @pytest.mark.parametrize("field, value", [
        ("lr", float("nan")),
        ("alpha", float("nan")),
        ("tau", float("nan")),
        ("step_floor", 0.0),
        ("step_floor", -1.0),
        ("step_floor", float("nan")),
        ("step_cap", float("nan")),
        ("step_cap", 1e-7),  # below the default step_floor
        ("eval_every", 0),
        ("eval_every", -3),
    ])
    def test_rejects_non_finite_and_out_of_range(self, field, value):
        with pytest.raises(ConfigError):
            small_config(**{field: value})

    @pytest.mark.parametrize("budgets", [(float("nan"),), (0.1, -0.2)])
    def test_rejects_nan_or_negative_eval_budgets(self, budgets):
        # evaluate_at_budget rejects these too, but only at the first snapshot
        with pytest.raises(ConfigError, match="eval_budgets"):
            small_config(eval_budgets=budgets)

    def test_rejects_unknown_warm_start_objective_without_warm_start(self):
        with pytest.raises(ConfigError, match="bogus"):
            small_config(warm_start_epochs=0, warm_start_objective="bogus")

    def test_round_trips_through_dict(self):
        config = small_config(backend="entropy", tau=0.7, eval_budgets=(0.1, 0.2))
        echo = config.to_dict()
        assert echo["backend"] == "entropy"
        assert echo["lambda_grid"] == [0.2, 0.8]

    def test_reference_recipes_validate(self):
        # binary-outcome recipe: 40 epochs with a 20-epoch cross-entropy warm
        # start and a temperature-3 surrogate
        binary = TrainConfig(epochs=40, warm_start_epochs=20,
                             warm_start_objective="cross-entropy",
                             lambda_grid=GRID, backend="entropy", tau=3.0)
        assert binary.warm_start_epochs == 20
        # multi-treatment recipe: 500 epochs with a near-hard temperature
        multi = TrainConfig(epochs=500, lambda_grid=GRID, backend="entropy",
                            tau=0.01, hidden_widths=(64, 32, 32))
        assert multi.tau == 0.01 and multi.hidden_widths == (64, 32, 32)


class TestTrainLoop:
    def test_two_stage_fits_noiseless_linear_data(self):
        data, _ = generate_synthetic(
            GeneratorConfig(n=2000, m=3, d=4, noise=0.0, family="linear"), seed=2)
        config = TrainConfig(epochs=400, lambda_grid=GRID, backend="two-stage",
                             lr=3e-3, batch_size=256, seed=0,
                             hidden_widths=(32, 16))
        _, records = train(data, config)
        assert records[-1].prediction < 1e-3

    def test_loss_accounting_exact(self, tiny_data, wide_data):
        for backend in BACKENDS:
            perturb = backend.startswith("perturb")
            config = small_config(backend=backend, alpha=1.7,
                                  batch_size=2048 if perturb else 128)
            _, records = train(wide_data if perturb else tiny_data, config)
            for rec in records:
                assert rec.total == config.alpha * rec.prediction + rec.decision

    @pytest.mark.parametrize("batch_size", [None, 96, 400, 1000])
    @pytest.mark.parametrize("warm", [0, 3])
    def test_one_optimizer_step_per_batch(self, tiny_data, batch_size, warm):
        config = small_config(backend="policy", epochs=5, warm_start_epochs=warm,
                              batch_size=batch_size)
        params, records = train(tiny_data, config)
        per_epoch = math.ceil(tiny_data.n / batch_size) if batch_size else 1
        assert params.step == config.epochs * per_epoch
        assert len(records) == config.epochs - warm

    def test_two_stage_decision_term_is_zero(self, tiny_data):
        _, records = train(tiny_data, small_config())
        assert all(rec.decision == 0.0 for rec in records)

    def test_seed_determinism(self, tiny_data):
        config = small_config(backend="policy", epochs=5, batch_size=64, seed=3)
        _, r1 = train(tiny_data, config)
        _, r2 = train(tiny_data, config)
        assert [(a.prediction, a.decision, a.total) for a in r1] == \
            [(b.prediction, b.decision, b.total) for b in r2]

    @pytest.mark.parametrize("hidden_widths", [(8,), (6, 5)], ids=["8", "6-5"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_perturb_gradient_routing_matches_manual_step(self, tiny_data, activation,
                                                          hidden_widths):
        # one full-batch epoch of the flip-gradient backend must equal the
        # hand-assembled update: prediction grad + centred estimator output
        # routed through backward, then one optimizer step
        config = small_config(backend="perturb", epochs=1, alpha=0.5, seed=5,
                              hidden_widths=hidden_widths, activation=activation)
        params_trained, _ = train(tiny_data, config)

        model_config = ModelConfig(layer_widths=config.hidden_widths,
                                   num_treatments=tiny_data.num_treatments,
                                   input_dim=tiny_data.num_features,
                                   activation=activation, seed=config.seed)
        params = init_params(model_config)
        pred = forward(params, tiny_data.features)
        _, pg_rev, pg_cost = prediction_loss_grad(tiny_data, pred)
        _, est = dual_flip_gradient(tiny_data, pred, config.lambda_grid,
                                    step_floor=config.step_floor, centered=True)
        upstream = GradientPair(config.alpha * pg_rev + est.d_revenue,
                                config.alpha * pg_cost + est.d_cost)
        grads = backward(params, tiny_data.features, upstream)
        optimizer_step(params, grads, config.lr)
        for a, b in zip(params.weights + params.biases,
                        params_trained.weights + params_trained.biases):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("backend, batch_size",
                             [(b, None) for b in BACKENDS] + [("policy", 128)])
    def test_one_forward_pass_per_step(self, tiny_data, monkeypatch, backend, batch_size):
        passes = []

        def counting(params, features):
            passes.append(1)
            return forward_cached(params, features)

        monkeypatch.setattr("treatalloc.model.forward_cached", counting)
        config = small_config(backend=backend, epochs=4, warm_start_epochs=2,
                              batch_size=batch_size)
        params, _ = train(tiny_data, config)
        steps = config.epochs * math.ceil(tiny_data.n / (batch_size or tiny_data.n))
        assert len(passes) == params.step == steps

    @pytest.mark.parametrize("batch_size", [None, 2048])
    @pytest.mark.parametrize("backend", ["perturb", "perturb-softmax"])
    def test_flip_backends_decide_once_per_multiplier(self, wide_data, monkeypatch,
                                                      backend, batch_size):
        # the flip kernel returns the matched loss, so nothing decides again
        calls = []

        def counting(*args):
            calls.append(1)
            return ips_dual_loss(*args)

        for target in ("treatalloc.training.ips_dual_loss",
                       "treatalloc.gradients.ips_dual_loss"):
            monkeypatch.setattr(target, counting, raising=False)
        config = small_config(backend=backend, epochs=2, batch_size=batch_size)
        params, records = train(wide_data, config)
        assert params.step == 2 * math.ceil(wide_data.n / (batch_size or wide_data.n))
        assert np.isfinite([r.decision for r in records]).all()
        assert calls == []

    @pytest.mark.parametrize("batch_size", [None, 64], ids=["full", "mini"])
    def test_non_finite_loss_raises_numeric_error(self, batch_size):
        # finite data and predictions, but the squared error overflows
        data, _ = generate_synthetic(GeneratorConfig(n=200, m=3, d=4), seed=5)
        huge = RctDataset(ids=data.ids, features=data.features, treatment=data.treatment,
                          revenue=data.revenue * 1e200, cost=data.cost,
                          num_treatments=data.num_treatments)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match="non-finite loss at epoch 0"):
            train(huge, small_config(epochs=2, backend="entropy", batch_size=batch_size))

    def test_all_backends_run_and_record(self, tiny_data):
        for backend in BACKENDS:
            config = small_config(backend=backend, epochs=3)
            params, records = train(tiny_data, config)
            assert len(records) == 3
            assert np.isfinite([r.total for r in records]).all()

    def test_eval_snapshots_on_held_out_data(self, monkeypatch):
        builds = []

        def counting(*args):
            builds.append(1)
            return _allocator(*args)

        for target in ("treatalloc.training._allocator",
                       "treatalloc.evaluation._allocator"):
            monkeypatch.setattr(target, counting, raising=False)
        data, _ = generate_synthetic(GeneratorConfig(n=1200, m=3, d=4), seed=4)
        tr, te = split(data, 0.7, seed=0)
        config = small_config(epochs=4, eval_every=2, eval_budgets=(0.1, 0.3))
        _, records = train(tr, config, eval_data=te)
        assert records[0].snapshot is None
        assert records[1].snapshot is not None and len(records[1].snapshot) == 2
        assert records[3].snapshot is not None
        assert len(builds) == 2  # one allocator per snapshot, read at every budget


class TestCenteredDecisionGradient:
    """The trainer's decision gradients against the plain IPS estimates.

    Over re-randomized assignments of one outcome matrix whose base revenue
    dominates the treatment effects, the centred gradient must keep the
    plain estimate's expectation (the full-information gradient) at a
    fraction of its variance.
    """

    N, M, DRAWS = 1000, 3, 400
    GRID = LambdaGrid((0.3, 1.1))

    @pytest.fixture(scope="class")
    def instance(self):
        _, truth = generate_synthetic(
            GeneratorConfig(n=self.N, m=self.M, d=4, noise=0.25, family="hetero"),
            seed=3)
        rng = np.random.default_rng(7)
        pred = PredictionMatrix(
            truth.revenue + 0.2 * rng.standard_normal((self.N, self.M)),
            truth.cost + 0.1 * rng.standard_normal((self.N, self.M)))
        return truth, pred

    def assigned(self, truth, t, propensities=None):
        rows = np.arange(self.N)
        return RctDataset(ids=rows, features=np.zeros((self.N, 1)), treatment=t,
                          revenue=truth.revenue[rows, t], cost=truth.cost[rows, t],
                          num_treatments=self.M, propensities=propensities)

    def plain(self, backend, data, pred):
        if backend == "policy":
            _, d_rev, d_cost = tempered_policy_loss_grad(data, pred, self.GRID, 1.0)
            return np.concatenate([d_rev, d_cost])
        _, g = dual_flip_gradient(data, pred, self.GRID, step_floor=0.05)
        return np.concatenate([g.d_revenue, g.d_cost])

    @pytest.mark.parametrize("backend", ["policy", "perturb"])
    def test_lower_variance_same_mean(self, instance, backend):
        truth, pred = instance
        rng = np.random.default_rng(11)
        config = small_config(backend=backend, lambda_grid=self.GRID, step_floor=0.05)
        # with known propensities 1/M each row's plain estimate depends on its
        # own treatment only, so averaging the M all-j assignments gives its
        # exact expectation: the full-information gradient
        full = np.mean([
            self.plain(backend, self.assigned(truth, np.full(self.N, j),
                                              np.full(self.M, 1 / self.M)), pred)
            for j in range(self.M)], axis=0)
        centred, plain = [], []
        for _ in range(self.DRAWS):
            data = self.assigned(truth, rng.integers(0, self.M, self.N))
            _, d_rev, d_cost = _decision_loss_and_grad(data, pred, config)
            centred.append(np.concatenate([d_rev, d_cost]))
            plain.append(self.plain(backend, data, pred))
        centred, plain = np.array(centred), np.array(plain)
        var_c = centred.var(axis=0, ddof=1).sum()
        var_p = plain.var(axis=0, ddof=1).sum()
        assert var_p >= 10.0 * var_c
        # squared error of an unbiased mean is about trace(cov) / draws
        err2 = float(np.sum((centred.mean(axis=0) - full) ** 2))
        assert err2 <= 2.0 * var_c / self.DRAWS


class TestSmallLambdaServesHighBudget:
    def test_small_lambda_grid_wins_at_high_budget(self):
        # directional: averaged over seeds, training at a small multiplier
        # serves slack budgets at least as well as training at a large one.
        # The margin is a few hundredths, inside the matched estimator's error
        # on 1800 rows, so the allocations are scored against ground truth.
        small_better = []
        for seed in range(5):
            data, truth = generate_synthetic(
                GeneratorConfig(n=6000, m=4, d=6, noise=0.2, family="saturating"),
                seed=seed)
            tr, te = split(data, 0.7, seed=seed)
            te_truth = truth.take(te.ids)
            rows = np.arange(te.n)
            revenue = {}
            for tag, lam in (("small", 0.1), ("large", 1.0)):
                config = TrainConfig(
                    epochs=120, lambda_grid=LambdaGrid((lam,)), backend="policy",
                    alpha=1.0, warm_start_epochs=30, lr=5e-3, batch_size=1024,
                    seed=seed, hidden_widths=(16,))
                params, _ = train(tr, config)
                pred = forward(params, te.features)
                top_budget = 0.9 * float(
                    np.mean(te.cost[te.treatment == te.num_treatments - 1])
                )
                _, choice, _ = allocate_at_budget(te, pred, top_budget)
                revenue[tag] = float(te_truth.revenue[rows, choice].mean())
            small_better.append(revenue["small"] - revenue["large"])
        assert np.mean(small_better) >= 0.0


class TestEvaluateCheckpoint:
    """A model is evaluated as ``treatalloc evaluate`` does it: ``forward``,
    then ``cost_curve``, and ``aucc`` when M = 2."""

    def test_zero_model_collapses_to_control_point(self):
        data, _ = generate_synthetic(GeneratorConfig(n=800, m=3, d=4), seed=6)
        config = ModelConfig(layer_widths=(4,), num_treatments=3, input_dim=4, seed=0)
        params = init_params(config)
        for w in params.weights:
            w[:] = 0.0
        curve = cost_curve(data, forward(params, data.features), BudgetGrid((0.1, 0.3, 0.5)))
        # all scores tie -> treatment 0 everywhere -> free control point
        costs = {p.per_capita_cost for p in curve.points}
        revs = {p.per_capita_revenue for p in curve.points}
        assert costs == {0.0}
        assert len(revs) == 1

    def test_binary_data_reports_ranking_metric(self):
        data, _ = generate_synthetic(GeneratorConfig(n=1500, m=2, d=4), seed=8)
        config = ModelConfig(layer_widths=(6,), num_treatments=2, input_dim=4, seed=1)
        params = init_params(config)
        pred = forward(params, data.features)
        curve = cost_curve(data, pred, default_budget_grid(data, pred, count=3))
        assert len(curve.points) >= 1
        assert 0.0 < aucc(data, pred) < 1.0


def test_training_log_round_trip(tmp_path, tiny_data):
    _, records = train(tiny_data, small_config(epochs=3))
    path = tmp_path / "train.log"
    write_training_log(path, records)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("epoch=0 pred=")
    assert "wall=" in lines[0]


def test_format_epoch_record_includes_snapshot():
    rec = EpochRecord(epoch=2, prediction=0.5, decision=-1.0, total=-0.5,
                      wall_seconds=0.01, snapshot=(1.25,))
    line = format_epoch_record(rec)
    assert "eval=1.25" in line


def test_every_package_export_resolves():
    import treatalloc

    assert [name for name in treatalloc.__all__ if not hasattr(treatalloc, name)] == []
