"""Tests of the benchmark itself: each output check rejects a broken output,
and tracing does not change what the program computes.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

import treatalloc.data as data  # noqa: E402
import treatalloc.losses as losses  # noqa: E402
import treatalloc.solver as solver  # noqa: E402
import treatalloc.training as training  # noqa: E402


@pytest.fixture(scope="module")
def trial():
    config = data.GeneratorConfig(n=300, m=5, d=3, noise=0.25, family="hetero")
    return data.generate_synthetic(config, seed=3)


def test_over_budget_choice_is_rejected(trial):
    _, truth = trial
    pred = solver.PredictionMatrix(truth.revenue, truth.cost)
    budget = 0.3 * pred.n
    sol = solver.solve_budget(pred, budget)
    good = sol.allocation
    assert checks.check_dual_solution(pred.revenue, pred.cost, budget, sol.lam,
                                      good.choice, good.objective) == []
    over = np.argmax(pred.cost, axis=1)  # the dearest treatment everywhere
    assert checks.allocation_cost(pred.cost, over) > budget
    problems = checks.check_dual_solution(pred.revenue, pred.cost, budget, sol.lam,
                                          over, good.objective)
    assert any("exceeds budget" in p for p in problems)


def test_truth_rows_misaligned_by_one_id_are_rejected(trial, tmp_path):
    full, truth = trial
    path = tmp_path / "truth.csv"
    data.write_counterfactual_csv(path, full.ids, truth)
    assert checks.check_matrix_matches(*checks.read_matrix_csv(path), full, truth) == []

    data.write_counterfactual_csv(path, full.ids + 1, truth)  # ids shifted by one
    assert checks.check_matrix_matches(*checks.read_matrix_csv(path), full, truth)

    shifted = data.CounterfactualMatrix(np.roll(truth.revenue, 1, axis=0),
                                        np.roll(truth.cost, 1, axis=0))
    data.write_counterfactual_csv(path, full.ids, shifted)  # values one row off
    assert checks.check_matrix_matches(*checks.read_matrix_csv(path), full, truth)


def test_csv_value_changed_in_last_digit_is_rejected(trial, tmp_path):
    full, _ = trial
    path = tmp_path / "data.csv"
    data.write_csv(path, full)
    assert checks.check_dataset_matches(checks.read_dataset_csv(path), full) == []

    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[7].split(",")
    value = fields[1]  # a feature, written with repr()
    fields[1] = value[:-1] + ("1" if value[-1] != "1" else "2")
    assert float(fields[1]) != float(value)
    lines[7] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    problems = checks.check_dataset_matches(checks.read_dataset_csv(path), full)
    assert problems == ["data.csv column features differs from the generated data"]


def test_dropped_optimizer_step_is_rejected(trial, monkeypatch):
    full, _ = trial
    config = training.TrainConfig(epochs=3, lambda_grid=losses.LambdaGrid((0.3,)),
                                  backend="two-stage", lr=1e-2, batch_size=128,
                                  hidden_widths=())
    expected = checks.expected_steps(full.n, config.epochs, config.batch_size)
    params, log = training.train(full, config)
    assert checks.check_training_log(log, expected, params.step) == []

    step = training.optimizer_step
    calls = []

    def dropping_step(params, grads, lr, *args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            return False  # the update is dropped, as for non-finite gradients
        return step(params, grads, lr, *args, **kwargs)

    monkeypatch.setattr(training, "optimizer_step", dropping_step)
    params, log = training.train(full, config)
    assert checks.check_training_log(log, expected, params.step) == [
        f"params.step is {expected - 1}, the schedule implies {expected}"]


SMALL = (
    workloads.CliPipeline(n=1_500, epochs=2, warm_start=1, batch_size=512),
    workloads.TrainDfl(n=3_000, epochs=150, warm_start=30),
    workloads.Scale(n=4_000, solve_lambdas=(0.6, 1.2), curve_budgets=(0.2,)),
)


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_round_matches_untraced_round(workload, tmp_path):
    results = []
    for traced in (False, True):
        tracer = tracing.Tracer(workload.name) if traced else None
        workdir = tmp_path / f"traced{int(traced)}"
        workdir.mkdir()
        if tracer:
            tracer.install()
        try:
            ctx = workload.setup(5, workdir)
            rnd = workloads.Round(tracer)
            workload.round(ctx, rnd, 0)
        finally:
            if tracer:
                tracer.uninstall()
        assert rnd.problems == [] and rnd.errors == [] and rnd.failed == 0
        results.append(rnd)
    plain, traced = results
    assert plain.revenues and traced.revenues == plain.revenues  # bit-identical
    summary = tracer.summary(0, 1, 1)
    assert summary["trace.coverage"] >= 0.9
    assert summary["model.optimizer_steps_skipped"] == 0
    # the wrappers are gone again
    assert training.train.__module__ == "treatalloc.training"
    assert not hasattr(training.forward, "__wrapped__")


def test_benchmark_json_names_match_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "train-dfl",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
