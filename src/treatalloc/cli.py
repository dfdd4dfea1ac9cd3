"""Command-line front end.

Verbs: ``generate`` (synthetic dataset plus outcome matrix), ``train``
(checkpoint plus log), ``solve`` (allocation CSV for one budget),
``evaluate`` (cost-curve CSV, plus the binary ranking metric), ``report``
(comparison table over several evaluations).

Configuration files are flat ``key=value`` text with section prefixes
(``train.alpha=1.0``, ``eval.budgets=1,2,3``; generator keys carry no
prefix); trailing ``key=value`` arguments override file entries. Each verb
rejects unknown keys of its own section and ignores other sections. Exit
codes: 0 success, 1 usage error, 2 validation/config error, 3 numeric or
infeasibility error. Outputs never overwrite existing files unless
``--force`` is given.

Heavy imports happen inside ``run`` so ``--threads`` can cap the worker
pool before numpy initializes its thread pools.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treatalloc",
        description="budget-constrained treatment allocation toolkit",
    )
    parser.add_argument("--threads", type=int, default=None,
                        help="cap worker threads for numeric kernels")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset + outcome matrix")
    p.add_argument("--config", required=True, help="generator key=value file")
    p.add_argument("--out", required=True, help="dataset CSV path")
    p.add_argument("--truth", required=True, help="outcome-matrix CSV path")
    p.add_argument("--force", action="store_true")
    p.add_argument("overrides", nargs="*", metavar="key=value")

    p = sub.add_parser("train", help="train a model, write checkpoint + log")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True, help="train.* key=value file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--log", default=None)
    p.add_argument("--eval-data", default=None,
                   help="held-out CSV for periodic evaluation snapshots")
    p.add_argument("--dump-gradients", default=None, metavar="PATH",
                   help="debug: write the final decision-gradient matrices as CSV")
    p.add_argument("--force", action="store_true")
    p.add_argument("overrides", nargs="*", metavar="key=value")

    p = sub.add_parser("solve", help="allocate one budget, write choice CSV")
    p.add_argument("--data", required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--checkpoint")
    src.add_argument("--predictions", help="outcome-matrix CSV used as predictions")
    p.add_argument("--budget", type=float, required=True, help="total budget")
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None, help="multiplier trace log")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("evaluate", help="write a cost-curve CSV (and ranking metric)")
    p.add_argument("--data", required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--checkpoint")
    src.add_argument("--predictions")
    p.add_argument("--config", default=None, help="eval.* key=value file")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("overrides", nargs="*", metavar="key=value")

    p = sub.add_parser("report", help="collate evaluations into one table")
    p.add_argument("--out", required=True)
    p.add_argument("curves", nargs="+", metavar="label=curve.csv")
    p.add_argument("--force", action="store_true")
    return parser


def _check_clobber(path: str, force: bool) -> None:
    from .exceptions import ValidationError

    if not force and Path(path).exists():
        raise ValidationError(f"{path} exists; pass --force to overwrite")


def _train_config(values: dict[str, str]):
    from .data import config_section
    from .exceptions import ConfigError
    from .losses import LambdaGrid
    from .training import TrainConfig

    def floats(text: str) -> tuple[float, ...]:
        return tuple(float(v) for v in text.split(","))

    # train.<key> -> parser, in parse order; absent keys take TrainConfig's
    # defaults, and ``hidden`` sets ``hidden_widths``
    parsers = {
        "lambda_grid": lambda v: LambdaGrid(floats(v)), "epochs": int, "backend": str,
        "alpha": float, "tau": float, "warm_start_epochs": int,
        "warm_start_objective": str, "lr": float,
        "batch_size": lambda v: int(v) if v else None, "seed": int,
        "hidden": lambda v: tuple(int(w) for w in v.split(",")), "activation": str,
        "eval_every": int, "eval_budgets": lambda v: floats(v) if v else (),
        "step_floor": float, "step_cap": float,
    }
    own = config_section(values, "train", parsers)
    for key in ("epochs", "lambda_grid"):
        if key not in own:
            raise ConfigError(f"train.{key} is required")
    try:
        return TrainConfig(**{"hidden_widths" if k == "hidden" else k: parse(own[k])
                              for k, parse in parsers.items() if k in own})
    except ValueError as exc:
        raise ConfigError(f"bad train config value: {exc}") from None


def _load_predictions(path: str, data):
    import numpy as np

    from .data import load_counterfactual_csv
    from .exceptions import ValidationError
    from .solver import PredictionMatrix

    ids, matrix = load_counterfactual_csv(path)
    if not np.array_equal(ids, data.ids):
        raise ValidationError(f"{path}: ids do not match the dataset")
    return PredictionMatrix(matrix.revenue, matrix.cost)


def _predictions_for(args, data):
    from .exceptions import ValidationError
    from .model import forward, load_checkpoint

    if args.checkpoint:
        params, _ = load_checkpoint(args.checkpoint)
        source, pred = args.checkpoint, forward(params, data.features)
    else:
        source, pred = args.predictions, _load_predictions(args.predictions, data)
    if pred.num_treatments != data.num_treatments:
        raise ValidationError(
            f"{source}: {pred.num_treatments} treatments vs dataset {data.num_treatments}")
    return pred


def _cmd_generate(args) -> None:
    from .data import (generate_synthetic, generator_config, read_config,
                       write_counterfactual_csv, write_csv)

    _check_clobber(args.out, args.force)
    _check_clobber(args.truth, args.force)
    config, seed = generator_config(read_config(args.config, args.overrides))
    data, truth = generate_synthetic(config, seed)
    write_csv(args.out, data)
    write_counterfactual_csv(args.truth, data.ids, truth)
    print(f"wrote {data.n} samples, {data.num_treatments} treatments -> "
          f"{args.out}, {args.truth}")


def _cmd_train(args) -> None:
    from .data import load_csv, read_config
    from .model import save_checkpoint
    from .training import train, write_training_log

    _check_clobber(args.checkpoint, args.force)
    if args.log:
        _check_clobber(args.log, args.force)
    if args.dump_gradients:
        _check_clobber(args.dump_gradients, args.force)
    config = _train_config(read_config(args.config, args.overrides))
    data = load_csv(args.data)
    eval_data = load_csv(args.eval_data) if args.eval_data else None
    params, records = train(data, config, eval_data=eval_data)
    save_checkpoint(args.checkpoint, params, extra={"train_config": config.to_dict()})
    if args.log:
        write_training_log(args.log, records)
    if args.dump_gradients:
        import numpy as np

        from .data import _write_table
        from .gradients import GradientPair
        from .losses import _whole
        from .model import forward
        from .training import _decision_loss_and_grad

        pred = forward(params, data.features)
        grad = GradientPair(*_decision_loss_and_grad(_whole(data), pred, config)[1:])
        n, m = grad.d_revenue.shape
        _write_table(args.dump_gradients, ["id", "treatment", "d_revenue", "d_cost"],
                     [np.repeat(data.ids, m), np.tile(np.arange(m), n),
                      grad.d_revenue.ravel(), grad.d_cost.ravel()])
    last = records[-1] if records else None
    if last is not None:
        print(f"trained {config.epochs} epochs; final total loss {last.total:.6g}")
    else:
        print("trained 0 epochs")


def _cmd_solve(args) -> None:
    from .data import _write_table, load_csv
    from .solver import solve_budget

    _check_clobber(args.out, args.force)
    if args.log:
        _check_clobber(args.log, args.force)
    data = load_csv(args.data)
    pred = _predictions_for(args, data)
    solution = solve_budget(pred, args.budget)
    _write_table(args.out, ["id", "choice"], [data.ids, solution.allocation.choice])
    if args.log:
        lines = [f"lam={lam!r} cost={cost!r}" for lam, cost in solution.trace]
        Path(args.log).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"lam={solution.lam:.6g} objective={solution.allocation.objective:.6g} "
          f"cost={solution.allocation.total_cost:.6g}")


def _cmd_evaluate(args) -> None:
    import numpy as np

    from .data import CURVE_COLUMNS, _write_table, config_section, load_csv, read_config
    from .evaluation import aucc, cost_curve, default_budget_grid
    from .exceptions import ValidationError
    from .losses import BudgetGrid

    _check_clobber(args.out, args.force)
    values = config_section(read_config(args.config, args.overrides), "eval", ("budgets",))
    data = load_csv(args.data)
    pred = _predictions_for(args, data)
    raw_budgets = values.get("budgets")
    if raw_budgets:
        try:
            budgets = BudgetGrid(tuple(float(b) for b in raw_budgets.split(",")))
        except ValueError as exc:
            raise ValidationError(f"bad eval.budgets: {exc}") from None
    else:
        budgets = default_budget_grid(data, pred)
    curve = cost_curve(data, pred, budgets)
    metric = aucc(data, pred) if data.num_treatments == 2 else None  # may raise: before writing
    _write_table(args.out, CURVE_COLUMNS,
                 [np.array([getattr(p, name) for p in curve.points]) for name in CURVE_COLUMNS])
    if metric is not None:
        print(f"aucc={metric:.6f}")
    print(f"wrote {len(curve.points)} curve points -> {args.out}")


def _cmd_report(args) -> None:
    from .data import CURVE_COLUMNS, _read_table
    from .exceptions import ValidationError

    _check_clobber(args.out, args.force)
    columns: list[float] | None = None
    rows: list[tuple[str, list[float]]] = []
    for item in args.curves:
        if "=" not in item:
            raise ValidationError(f"expected label=path, got {item!r}")
        label, _, path = item.partition("=")
        _, (budgets, _, revenues, _) = _read_table(
            path, lambda header: header == CURVE_COLUMNS, ", ".join(CURVE_COLUMNS))
        budgets, revenues = budgets.tolist(), revenues.tolist()
        if columns is None:
            columns = budgets
        elif budgets != columns:
            raise ValidationError(f"{path}: budget grid differs from first curve")
        rows.append((label, revenues))

    width = max(len(label) for label, _ in rows)
    width = max(width, len("model"))
    header = "model".ljust(width) + "".join(f"  {b:>10.4g}" for b in columns)
    lines = [header, "-" * len(header)]
    for label, revenues in rows:
        lines.append(label.ljust(width) + "".join(f"  {r:>10.4f}" for r in revenues))
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote comparison of {len(rows)} models -> {args.out}")


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be >= 1", file=sys.stderr)
            return 1
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    from .exceptions import (ConfigError, InfeasibleError, NumericError,
                             ParseError, SizeError, ValidationError)

    handlers = {
        "generate": _cmd_generate,
        "train": _cmd_train,
        "solve": _cmd_solve,
        "evaluate": _cmd_evaluate,
        "report": _cmd_report,
    }
    try:
        handlers[args.verb](args)
    except (ParseError, ValidationError, ConfigError, SizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a missing file, a directory in place of one, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
