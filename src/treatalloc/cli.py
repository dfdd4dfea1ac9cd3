"""Command-line front end.

Verbs: ``generate`` (synthetic dataset plus outcome matrix), ``train``
(checkpoint plus log), ``solve`` (allocation CSV for one budget),
``evaluate`` (cost-curve CSV, plus the binary ranking metric), ``report``
(comparison table over several evaluations).

Configuration files are flat ``key=value`` text with section prefixes
(``train.alpha=1.0``, ``eval.budgets=1,2,3``; generator keys carry no
prefix); trailing ``key=value`` arguments override file entries. Each verb
reads its own section, through ``data.generator_config``,
``training.train_config`` or ``evaluate``'s ``eval.*`` table, before any
data, and ignores other sections. Exit codes: 0 success, 1 usage error, 2
validation/config error or not enough memory, 3 numeric or infeasibility error.
A verb writes all its outputs or none; only ``--force`` lets it replace a file.

Heavy imports happen inside the verbs so ``--threads`` can cap the worker
pool before numpy starts its thread pools; ``exceptions`` is stdlib-only.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys
import tempfile
from pathlib import Path

from .exceptions import ConfigError, InfeasibleError, NumericError, ParseError, ValidationError


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


@contextlib.contextmanager
def _outputs(force: bool, *paths: str | None):
    """Yield each output path (None: not asked for) staged beside the file it
    resolves to; once the body returns, rename each onto that file, and on an
    exception commit none. An output that exists but is no regular file (a FIFO,
    a device) is yielded as given and written directly. Before any work, a
    directory, a symlink loop or a missing or unwritable directory exits 1; an
    existing file without ``--force``, or two paths to one file, exit 2."""
    asked = [path for path in paths if path is not None]
    targets = [os.path.realpath(path) for path in asked]  # a symlink loop raises no error
    staged: dict[str, str] = {}  # output path -> where the verb writes it
    folders: dict[str, str] = {}  # target directory -> its staging directory
    with contextlib.ExitStack() as stack:
        for i, (path, target) in enumerate(zip(asked, targets)):
            if Path(path).is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            if not force and Path(path).exists():
                raise ValidationError(f"{path} exists; pass --force to overwrite")
            if target in targets[:i]:
                raise ValidationError(f"{asked[targets.index(target)]} and {path} name one file")
            if Path(path).exists() and not Path(path).is_file():
                staged[path] = path  # a rename would replace the FIFO or device node
                continue
            if os.path.islink(target):  # still a link once resolved: a loop
                raise OSError(errno.ELOOP, os.strerror(errno.ELOOP), path)
            folder = os.path.dirname(target)
            if folder not in folders:
                try:
                    folders[folder] = stack.enter_context(tempfile.TemporaryDirectory(dir=folder))
                except OSError as exc:  # name the output, not the staging directory
                    exc.filename = path
                    raise
            staged[path] = os.path.join(folders[folder], os.path.basename(target))
        yield [staged.get(path) for path in paths]
        for path, target in zip(asked, targets):
            if staged[path] != path:
                os.replace(staged[path], target)


def _predictions_for(args, data):
    import numpy as np

    from .data import load_counterfactual_csv
    from .model import forward, load_checkpoint

    if args.checkpoint:
        params, _ = load_checkpoint(args.checkpoint)
        source, pred = args.checkpoint, forward(params, data.features)
    else:
        source, (ids, pred) = args.predictions, load_counterfactual_csv(args.predictions)
        if not np.array_equal(ids, data.ids):
            raise ValidationError(f"{source}: ids do not match the dataset")
    if pred.num_treatments != data.num_treatments:
        raise ValidationError(
            f"{source}: {pred.num_treatments} treatments vs dataset {data.num_treatments}")
    return pred


def _cmd_generate(args) -> None:
    from .data import (generate_synthetic, generator_config, read_config,
                       write_counterfactual_csv, write_csv)

    with _outputs(args.force, args.out, args.truth) as (out, truth_out):
        config, seed = generator_config(read_config(args.config, args.overrides))
        data, truth = generate_synthetic(config, seed)
        write_csv(out, data)
        write_counterfactual_csv(truth_out, data.ids, truth)
    print(f"wrote {data.n} samples, {data.num_treatments} treatments -> "
          f"{args.out}, {args.truth}")


def _cmd_train(args) -> None:
    from .data import load_csv, read_config
    from .model import save_checkpoint
    from .training import train, train_config, write_training_log

    manifest = os.path.realpath(args.checkpoint) + ".manifest"
    with _outputs(args.force, args.checkpoint, manifest, args.log,
                  args.dump_gradients) as (checkpoint, staged_manifest, log, dump):
        if staged_manifest != checkpoint + ".manifest":  # where save_checkpoint puts it
            raise ValidationError(f"cannot write {args.checkpoint} and {manifest} side by side"
                                  " (a symlinked manifest, or a FIFO or device)")
        config = train_config(read_config(args.config, args.overrides))
        data = load_csv(args.data)
        eval_data = None if args.eval_data is None else load_csv(args.eval_data)
        params, records = train(data, config, eval_data=eval_data)
        save_checkpoint(checkpoint, params, extra={"train_config": config.to_dict()})
        if log is not None:
            write_training_log(log, records)
        if dump is not None:
            import numpy as np

            from .data import _write_table
            from .losses import _whole
            from .model import forward
            from .training import _decision_term

            n, m, term = data.n, data.num_treatments, _decision_term(config)
            d_rev = d_cost = np.zeros((n, m))  # two-stage has no decision term
            if term is not None:
                _, d_rev, d_cost = term(_whole(data), forward(params, data.features))
            _write_table(dump, ["id", "treatment", "d_revenue", "d_cost"],
                         [np.repeat(data.ids, m), np.tile(np.arange(m), n),
                          d_rev.ravel(), d_cost.ravel()])
    print(f"trained {config.epochs} epochs"
          + (f"; final total loss {records[-1].total:.6g}" if records else ""))


def _cmd_solve(args) -> None:
    from .data import _write_table, load_csv
    from .solver import solve_budget

    with _outputs(args.force, args.out, args.log) as (out, log):
        data = load_csv(args.data)
        pred = _predictions_for(args, data)
        solution = solve_budget(pred, args.budget)
        _write_table(out, ["id", "choice"], [data.ids, solution.allocation.choice])
        if log is not None:
            lines = [f"lam={lam!r} cost={cost!r}" for lam, cost in solution.trace]
            Path(log).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"lam={solution.lam:.6g} objective={solution.allocation.objective:.6g} "
          f"cost={solution.allocation.total_cost:.6g}")


def _cmd_evaluate(args) -> None:
    import numpy as np

    from .data import (CURVE_COLUMNS, _floats, _write_table, config_section, load_csv,
                       read_config)
    from .evaluation import aucc, cost_curve, default_budget_grid
    from .losses import BudgetGrid

    with _outputs(args.force, args.out) as (out,):
        budgets = config_section(read_config(args.config, args.overrides), "eval",
                                 {"budgets": lambda v: BudgetGrid(_floats(v)) if v else None}
                                 ).get("budgets")  # empty or absent: the default grid
        data = load_csv(args.data)
        pred = _predictions_for(args, data)
        if budgets is None:
            budgets = default_budget_grid(data, pred)
        curve = cost_curve(data, pred, budgets)
        metric = aucc(data, pred) if data.num_treatments == 2 else None
        _write_table(out, CURVE_COLUMNS,
                     [np.array([getattr(p, name) for p in curve.points]) for name in CURVE_COLUMNS])
    if metric is not None:
        print(f"aucc={metric:.6f}")
    print(f"wrote {len(curve.points)} curve points -> {args.out}")


def _cmd_report(args) -> None:
    from .data import CURVE_COLUMNS, _read_table

    with _outputs(args.force, args.out) as (out,):
        columns: list[float] | None = None
        rows: list[tuple[str, list[float]]] = []
        for item in args.curves:
            if "=" not in item:
                raise ValidationError(f"expected label=path, got {item!r}")
            label, _, path = item.partition("=")
            _, (budgets, _, revenues, _) = _read_table(
                path, lambda header: header == CURVE_COLUMNS, ", ".join(CURVE_COLUMNS),
                finite=True)
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
        Path(out).write_text("\n".join(lines) + "\n", encoding="utf-8")
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

    handlers = {
        "generate": _cmd_generate,
        "train": _cmd_train,
        "solve": _cmd_solve,
        "evaluate": _cmd_evaluate,
        "report": _cmd_report,
    }
    try:
        handlers[args.verb](args)
    except (ParseError, ValidationError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a size key too large for this machine
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing file, a directory in place of one, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
