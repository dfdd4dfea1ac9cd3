"""The benchmark's workloads: set-up from a seed, then identical rounds.

Every round reports the same end-to-end timings (``train_s``, ``decide_s``
and their superset ``total_s``), the true revenue of each allocation it made,
and the operations it attempted and the ones that failed. An operation is a
CLI verb, a backend's training, a budget's allocation or a curve point; it
fails on a non-zero exit, a ``TreatallocError`` or a failed check.

The program is called through module attributes (``training.train``, not a
name imported once), so a traced run sees every call through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
from tracer import BENCH_PREFIX, CLI_VERBS, Tracer

import treatalloc.cli as cli
import treatalloc.data as data
import treatalloc.evaluation as evaluation
import treatalloc.losses as losses
import treatalloc.model as model
import treatalloc.solver as solver
import treatalloc.training as training
from treatalloc.exceptions import TreatallocError

M = 5  # treatments, in every workload
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"

# the end-to-end timing each CLI verb counts towards (all count in total_s)
VERB_METRIC = {"generate": None, "train": "train_s", "solve": "decide_s",
               "evaluate": "decide_s"}


class Operation:
    def __init__(self):
        self.errors: list[str] = []    # the program refused (exit code, raise)
        self.problems: list[str] = []  # an output failed its check

    def fail(self, message: str) -> None:
        self.errors.append(message)

    def check(self, problems: list[str]) -> None:
        self.problems += problems


class Round:
    """Timings, true revenues and the operation ledger of one round."""

    def __init__(self, trace: Tracer | None):
        self.trace = trace
        # seconds per timed call, keyed by (metric, call label, occurrence);
        # rounds make the same calls in the same order, so keys line up
        self.times: dict[tuple[str | None, str, int], float] = {}
        self.revenues: list[float] = []
        self.child_peak_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []

    def add_time(self, metric: str | None, label: str, seconds: float) -> None:
        """Record one timed call; ``metric`` None counts towards total_s only."""
        occurrence = sum(1 for key in self.times if key[:2] == (metric, label))
        self.times[(metric, label, occurrence)] = seconds

    @contextlib.contextmanager
    def timed(self, metric: str | None, label: str):
        """Time a program call; traced runs also record it as a benchmark
        span, the root of the layer spans below it."""
        start = time.perf_counter()
        scope = self.trace.span(BENCH_PREFIX + label) if self.trace else contextlib.nullcontext()
        try:
            with scope:
                yield
        finally:
            self.add_time(metric, label, time.perf_counter() - start)

    @contextlib.contextmanager
    def operation(self, name: str):
        op = Operation()
        self.attempted += 1
        try:
            yield op
        except TreatallocError as exc:
            op.fail(f"{type(exc).__name__}: {exc}")
        except (OSError, ValueError) as exc:  # unreadable or malformed output
            op.check([f"{type(exc).__name__}: {exc}"])
        if op.errors or op.problems:
            self.failed += 1
        self.errors += [f"{name}: {e}" for e in op.errors]
        self.problems += [f"{name}: {p}" for p in op.problems]

    def mark_rss(self, phase: str) -> None:
        if self.trace:
            self.trace.mark_rss(phase)


def _hetero(n: int, d: int) -> data.GeneratorConfig:
    return data.GeneratorConfig(n=n, m=M, d=d, noise=0.25, family="hetero")


# -- cli-pipeline -------------------------------------------------------------

@dataclass
class CliPipeline:
    """generate -> train -> solve -> evaluate as four CLI processes."""

    name: str = "cli-pipeline"
    n: int = 30_000
    epochs: int = 12
    warm_start: int = 3
    hidden: str = "16,8"
    batch_size: int = 4096
    budget_per_row: float = 0.15
    curve_budgets: tuple[float, ...] = (0.1, 0.15, 0.2)

    def setup(self, seed: int, workdir: Path) -> SimpleNamespace:
        config = _hetero(self.n, 8)
        ref, truth = data.generate_synthetic(config, seed)
        gen_cfg = workdir / "gen.cfg"
        gen_cfg.write_text(
            f"n={config.n}\nm={config.m}\nd={config.d}\nnoise={config.noise}\n"
            f"family={config.family}\nseed={seed}\n", encoding="utf-8")
        train_cfg = workdir / "train.cfg"
        train_cfg.write_text("\n".join([
            f"train.epochs={self.epochs}",
            f"train.warm_start_epochs={self.warm_start}",
            "train.lambda_grid=0.03,0.3,0.7,1.4",
            "train.backend=entropy",
            "train.tau=0.1",
            "train.lr=1e-2",
            f"train.batch_size={self.batch_size}",
            f"train.hidden={self.hidden}",
            f"train.seed={seed}",
        ]) + "\n", encoding="utf-8")
        return SimpleNamespace(workdir=workdir, ref=ref, truth=truth,
                               gen_cfg=gen_cfg, train_cfg=train_cfg)

    def _argv(self, ctx, verb: str, out: Path) -> list[str]:
        common = [verb]
        if verb == "generate":
            return common + ["--config", str(ctx.gen_cfg), "--out", str(out / "data.csv"),
                             "--truth", str(out / "truth.csv")]
        src = ["--data", str(out / "data.csv"), "--checkpoint", str(out / "model.ckpt")]
        if verb == "train":
            return common + ["--data", str(out / "data.csv"), "--config", str(ctx.train_cfg),
                             "--checkpoint", str(out / "model.ckpt"),
                             "--log", str(out / "train.log")]
        if verb == "solve":
            return common + src + ["--budget", repr(self.budget_per_row * self.n),
                                   "--out", str(out / "alloc.csv")]
        budgets = ",".join(repr(b) for b in self.curve_budgets)
        return common + src + ["--out", str(out / "curve.csv"), f"eval.budgets={budgets}"]

    def round(self, ctx, rnd: Round, index: int) -> None:
        out = ctx.workdir / f"round{index}"
        out.mkdir()
        inproc = ctx.workdir / f"round{index}-inprocess"
        state = SimpleNamespace()
        startup = []
        for verb in CLI_VERBS:
            argv = self._argv(ctx, verb, out)
            with rnd.operation(f"cli {verb}") as op:
                wall, code, child_mb, err = _run_cli(argv, out)
                rnd.add_time(VERB_METRIC[verb], f"cli_{verb}", wall)
                rnd.child_peak_mb = max(rnd.child_peak_mb, child_mb)
                if rnd.trace:
                    rnd.trace.count(f"cli.process.{verb}_s", wall)
                    rnd.trace.gauge_max(f"rss.cli_{verb}_mb", child_mb)
                if code != 0:
                    op.fail(f"exit {code}: {err}")
                else:
                    getattr(self, f"_check_{verb}")(ctx, out, state, op, rnd)
            if rnd.trace:
                inproc.mkdir(exist_ok=True)
                with rnd.operation(f"in-process {verb}") as op:
                    start = time.perf_counter()
                    with rnd.trace.span(f"{BENCH_PREFIX}cli_{verb}"), _quiet():
                        code = cli.run(self._argv(ctx, verb, inproc))
                    startup.append(wall - (time.perf_counter() - start))
                    if code != 0:
                        op.fail(f"in-process exit {code}")
                    else:
                        op.check(_same_files(out, inproc, _OUTPUTS[verb]))
        if startup:
            rnd.trace.count("cli.startup_s", sum(startup) / len(startup))
        points = {p["budget"]: p for p in getattr(state, "points", [])}
        for budget in self.curve_budgets:
            with rnd.operation(f"curve point {budget}") as op:
                point = points.get(budget)
                if point is None:
                    op.fail("no curve point for this budget")
                    continue
                op.check(checks.check_fits(point["per_capita_cost"], budget, "curve point",
                                           slack=1e-6))
                op.check(checks.check_matched_fraction(point["matched_fraction"], self.n, M))

    def _check_generate(self, ctx, out: Path, state, op: Operation, rnd: Round) -> None:
        state.data = checks.read_dataset_csv(out / "data.csv")
        op.check(checks.check_dataset_matches(state.data, ctx.ref))
        ids, rev, cost = checks.read_matrix_csv(out / "truth.csv")
        problems = checks.check_matrix_matches(ids, rev, cost, ctx.ref, ctx.truth)
        op.check(problems)
        if not problems:  # the ids are then 0..n-1: row k holds id k
            state.truth_rev = rev

    def _check_train(self, ctx, out: Path, state, op: Operation, rnd: Round) -> None:
        state.header, state.layers = checks.read_checkpoint(out / "model.ckpt")
        echo = state.header["extra"]["train_config"]
        if (echo["backend"], echo["tau"], echo["epochs"]) != ("entropy", 0.1, self.epochs):
            op.check([f"checkpoint echoes config {echo}"])
        for line in (out / "train.log").read_text(encoding="utf-8").splitlines():
            fields = dict(f.split("=", 1) for f in line.split())
            if not all(math.isfinite(float(fields[k])) for k in ("pred", "dec", "total")):
                op.check([f"non-finite loss logged: {line}"])

    def _check_solve(self, ctx, out: Path, state, op: Operation, rnd: Round) -> None:
        if not all(hasattr(state, k) for k in ("data", "truth_rev", "layers")):
            op.check(["no readable data.csv, truth.csv and checkpoint to check against"])
            return
        ids, choice = checks.read_allocation_csv(out / "alloc.csv")
        problems = checks.check_choice_vector(ids, choice, self.n, M)
        op.check(problems)
        if problems:
            return
        by_id = np.empty_like(choice)
        by_id[ids] = choice
        _, pred_cost = checks.predict(state.header, state.layers, state.data["features"])
        op.check(checks.check_fits(
            checks.allocation_cost(pred_cost, by_id[state.data["ids"]]),
            self.budget_per_row * self.n, "predicted cost"))
        rnd.revenues.append(checks.true_revenue(state.truth_rev, by_id))

    def _check_evaluate(self, ctx, out: Path, state, op: Operation, rnd: Round) -> None:
        state.points = checks.read_curve_csv(out / "curve.csv")


_OUTPUTS = {"generate": ("data.csv", "truth.csv"), "train": ("model.ckpt",),
            "solve": ("alloc.csv",), "evaluate": ("curve.csv",)}


def _run_cli(argv: list[str], cwd: Path) -> tuple[float, int, float, str]:
    """Run one CLI verb as its own process: wall seconds, exit code, the
    child's own peak resident set in MB (0 where unknown) and the tail of
    its stderr."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    err_path, rss_path = cwd / "stderr.txt", cwd / "rss.txt"
    with err_path.open("wb") as err:
        start = time.perf_counter()
        code = subprocess.call([sys.executable, str(CLI_CHILD), str(rss_path), *argv],
                               cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        wall = time.perf_counter() - start
    tail = err_path.read_text(encoding="utf-8", errors="replace")[-300:]
    kib = rss_path.read_text(encoding="utf-8") if rss_path.exists() else ""
    return wall, code, int(kib) / 1024.0 if kib else 0.0, tail


@contextlib.contextmanager
def _quiet():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


def _same_files(a: Path, b: Path, names) -> list[str]:
    return [f"in-process {name} differs from the CLI process's"
            for name in names if (a / name).read_bytes() != (b / name).read_bytes()]


# -- train-dfl ------------------------------------------------------------------

TRAIN_DFL_BACKENDS = (
    ("two-stage", dict(batch_size=4096)),
    ("entropy", dict(tau=0.1, batch_size=4096)),
    ("perturb", dict(batch_size=8192, step_floor=0.05)),
)


@dataclass
class TrainDfl:
    """One seed of the decision-focused training recipe, scored in truth."""

    name: str = "train-dfl"
    n: int = 50_000
    epochs: int = 30
    warm_start: int = 8
    lambda_grid: tuple[float, ...] = (0.03, 0.3, 0.7, 1.4)
    budgets: tuple[float, ...] = tuple(float(b) for b in np.linspace(0.08, 0.16, 6))

    def setup(self, seed: int, workdir: Path) -> SimpleNamespace:
        full, truth = data.generate_synthetic(_hetero(self.n, 8), seed)
        train_set, test_set = data.split(full, 0.7, seed)
        configs = {
            backend: training.TrainConfig(
                epochs=self.epochs, lambda_grid=losses.LambdaGrid(self.lambda_grid),
                backend=backend, warm_start_epochs=0 if backend == "two-stage" else self.warm_start,
                lr=1e-2, seed=seed, hidden_widths=(), **kw)
            for backend, kw in TRAIN_DFL_BACKENDS
        }
        # synthetic ids are row numbers of the counterfactual matrix
        return SimpleNamespace(train=train_set, test=test_set, configs=configs,
                               truth_rev=truth.revenue[test_set.ids],
                               truth_cost=truth.cost[test_set.ids])

    def round(self, ctx, rnd: Round, index: int) -> None:
        te = ctx.test
        for backend, config in ctx.configs.items():
            params = None
            with rnd.operation(f"train {backend}") as op:
                with rnd.timed("train_s", f"train_{backend}"):
                    params, log = training.train(ctx.train, config)
                op.check(checks.check_training_log(
                    log, checks.expected_steps(ctx.train.n, config.epochs, config.batch_size),
                    params.step))
                if backend == "two-stage" and not log[-1].prediction < log[0].prediction:
                    op.check(["two-stage prediction loss did not fall"])
            rnd.mark_rss("train")
            pred = model.forward(params, te.features) if params is not None else None
            for budget in self.budgets:
                with rnd.operation(f"allocate {backend} at {budget:.3f}") as op:
                    if pred is None:
                        op.fail("no trained model")
                        continue
                    with rnd.timed("decide_s", "allocate_at_budget"):
                        _, choice, est = evaluation.allocate_at_budget(te, pred, budget)
                    op.check(checks.check_estimate(est, te.treatment, te.revenue, te.cost,
                                                   choice, M, budget))
                    op.check(checks.check_below_dual_bound(ctx.truth_rev, ctx.truth_cost, choice))
                    rnd.revenues.append(checks.true_revenue(ctx.truth_rev, choice))
            rnd.mark_rss("score")


# -- scale-1m -----------------------------------------------------------------

@dataclass
class Scale:
    """Multiplier searches and full-batch decision steps on a large trial."""

    name: str = "scale-1m"
    n: int = 200_000
    prediction_noise: float = 0.3
    # solve budgets are the predicted spend of the dual allocation at these
    # multipliers; curve budgets are plain per-capita values
    solve_lambdas: tuple[float, ...] = (0.6, 0.8, 1.0, 1.2, 1.4, 1.6)
    curve_budgets: tuple[float, ...] = (0.15, 0.25)
    lambda_grid: tuple[float, ...] = (0.3, 0.8, 1.4)
    backends: tuple[str, ...] = ("policy", "perturb", "perturb-softmax")

    def setup(self, seed: int, workdir: Path) -> SimpleNamespace:
        full, truth = data.generate_synthetic(_hetero(self.n, 10), seed)
        rng = np.random.default_rng([seed, 1])
        revenue = truth.revenue + self.prediction_noise * rng.standard_normal(truth.revenue.shape)
        pred = solver.PredictionMatrix(revenue, truth.cost)
        rows = np.arange(self.n)
        budgets = sorted(
            float(pred.cost[rows, np.argmax(pred.revenue - lam * pred.cost, axis=1)].sum())
            for lam in self.solve_lambdas)
        configs = [training.TrainConfig(
            epochs=1, lambda_grid=losses.LambdaGrid(self.lambda_grid), backend=backend,
            lr=1e-3, seed=seed, hidden_widths=(16,)) for backend in self.backends]
        return SimpleNamespace(data=full, truth=truth, pred=pred, budgets=budgets,
                               configs=configs)

    def round(self, ctx, rnd: Round, index: int) -> None:
        pred = ctx.pred
        last_lam = math.inf
        for budget in ctx.budgets:
            with rnd.operation(f"solve {budget:.1f}") as op:
                with rnd.timed("decide_s", "solve_budget"):
                    sol = solver.solve_budget(pred, budget)
                choice = sol.allocation.choice
                op.check(checks.check_dual_solution(pred.revenue, pred.cost, budget, sol.lam,
                                                    choice, sol.allocation.objective))
                if sol.lam > last_lam:
                    op.check([f"multiplier rose from {last_lam!r} to {sol.lam!r}"])
                last_lam = sol.lam
                rnd.revenues.append(checks.true_revenue(ctx.truth.revenue, choice))
        rnd.mark_rss("solve")

        curve, error = None, "cost_curve raised"
        try:
            with rnd.timed("decide_s", "cost_curve"):
                curve = evaluation.cost_curve(ctx.data, pred,
                                              losses.BudgetGrid(self.curve_budgets))
        except TreatallocError as exc:
            error = f"{type(exc).__name__}: {exc}"
        for budget in self.curve_budgets:
            with rnd.operation(f"curve point {budget}") as op:
                if curve is None:
                    op.fail(error)
                    continue
                point = next(p for p in curve.points if p.budget == budget)
                op.check(checks.check_fits(point.per_capita_cost, budget, "curve point",
                                           slack=1e-6))
                op.check(checks.check_matched_fraction(point.matched_fraction, self.n, M))
        rnd.mark_rss("cost_curve")

        for config in ctx.configs:
            with rnd.operation(f"decision step {config.backend}") as op:
                with rnd.timed("train_s", f"decision_step_{config.backend}"):
                    params, log = training.train(ctx.data, config)
                op.check(checks.check_training_log(log, 1, params.step))
                if not all(np.isfinite(w).all() for w in params.weights):
                    op.check(["non-finite weights after the step"])
        rnd.mark_rss("decision_step")


WORKLOADS = {w.name: w for w in (CliPipeline, TrainDfl, Scale)}
