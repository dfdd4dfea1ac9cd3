"""Spans and counts recorded around the public functions of treatalloc.

A traced run installs one wrapper per layer function. Each wrapper replaces
the function wherever a caller looks it up: the attribute of its own module
(used by the CLI, which imports inside functions) and every global of a
``treatalloc`` module that is bound to the same function object (for
example ``treatalloc.training.forward`` or ``treatalloc.evaluation.
decide_dual``). Nothing under ``src/`` is edited; ``uninstall`` puts the
original functions back.

Spans are kept in memory as ``[name, start, end, parent]`` lists and are
written out as JSON lines when the run ends. Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# (module, attribute) of every wrapped layer function; the span name is
# "<module>.<function>" ("data.take" for the method RctDataset.take).
TARGETS = (
    ("data", "generate_synthetic"),
    ("data", "split"),
    ("data", "load_csv"),
    ("data", "write_csv"),
    ("data", "write_counterfactual_csv"),
    ("data", "RctDataset.take"),
    ("model", "forward"),
    ("model", "backward"),
    ("model", "optimizer_step"),
    ("model", "warm_start"),
    ("model", "save_checkpoint"),
    ("model", "load_checkpoint"),
    ("losses", "prediction_loss"),
    ("losses", "prediction_loss_grad"),
    ("losses", "tempered_policy_loss_grad"),
    ("gradients", "dual_flip_gradient"),
    ("gradients", "ips_dual_loss"),
    ("gradients", "softmax_flip_gradient"),
    ("solver", "solve_budget"),
    ("solver", "decide_dual"),
    ("evaluation", "cost_curve"),
    ("evaluation", "allocate_at_budget"),
    ("evaluation", "evaluate_policy"),
    ("training", "train"),
    ("cli", "run"),
)

CLI_VERBS = ("generate", "train", "solve", "evaluate")
BACKENDS = ("two-stage", "policy", "entropy", "perturb", "perturb-softmax")
BENCH_PREFIX = "bench."


def _span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.split('.')[-1]}"


def _timed_layers() -> list[str]:
    names = []
    for module, attr in TARGETS:
        if (module, attr) == ("cli", "run"):
            names += [f"cli.run.{verb}" for verb in CLI_VERBS]
        else:
            names.append(_span_name(module, attr))
    return names


def _per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric a traced run reports."""
    out = []
    for layer in _timed_layers():
        out += [(f"{layer}_s", "s"), (f"{layer}_self_s", "s")]
        if layer in CALL_COUNTED:
            out.append((f"{layer}_calls", "count"))
    out += [
        ("data.csv_bytes", "bytes"),
        ("model.optimizer_steps_skipped", "count"),
        ("solver.decide_dual.solve_budget_calls", "count"),
        ("solver.decide_dual.allocate_at_budget_calls", "count"),
        ("solver.decide_dual.ips_dual_loss_calls", "count"),
        ("solver.probes_per_solve", "probes/call"),
        ("evaluation.probes_per_budget", "probes/call"),
        ("training.epoch_s", "s"),
        ("training.epochs", "count"),
        ("cli.startup_s", "s"),
    ]
    out += [(f"cli.process.{verb}_s", "s") for verb in CLI_VERBS]
    out += [(f"training.backend.{b}_s", "s") for b in BACKENDS]
    out += [(f"rss.{phase}_mb", "MB") for phase in RSS_PHASES]
    out += [
        ("trace.coverage", "fraction"),
        ("trace.timed_s", "s"),
        ("trace.total_s", "s"),
        ("trace.rounds", "count"),
    ]
    return out


CALL_COUNTED = {
    "data.take", "model.forward", "model.backward", "model.optimizer_step",
    "losses.tempered_policy_loss_grad", "gradients.ips_dual_loss",
    "solver.solve_budget", "solver.decide_dual", "evaluation.allocate_at_budget",
    "evaluation.evaluate_policy",
}

# Phases whose resident-set high-water mark a traced run reports. The
# in-process phases give the benchmark process's peak at the end of the
# phase; the cli_* phases give the peak of that verb's own process.
RSS_PHASES = ("setup", "train", "score", "solve", "cost_curve", "decision_step",
              "cli_generate", "cli_train", "cli_solve", "cli_evaluate")

PER_LAYER = _per_layer_names()


def self_rss_mb() -> float:
    """High-water resident set of this process so far, in MB (Linux KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []   # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.epoch_walls: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def gauge_max(self, name: str, value: float) -> None:
        self.gauges[name] = max(self.gauges.get(name, 0.0), value)

    def mark_rss(self, phase: str) -> None:
        self.gauge_max(f"rss.{phase}_mb", self_rss_mb())

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, module: str, attr: str, fn):
        tracer = self
        name = _span_name(module, attr)

        if name == "cli.run":
            def wrapper(argv, *args, **kwargs):
                verb = next((a for a in argv if a in CLI_VERBS), "other")
                with tracer.span(f"cli.run.{verb}"):
                    return fn(argv, *args, **kwargs)
        elif name in ("data.write_csv", "data.write_counterfactual_csv"):
            def wrapper(path, *args, **kwargs):
                with tracer.span(name):
                    result = fn(path, *args, **kwargs)
                tracer.count("data.csv_bytes", Path(path).stat().st_size)
                return result
        elif name == "model.optimizer_step":
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    applied = fn(*args, **kwargs)
                if not applied:
                    tracer.count("model.optimizer_steps_skipped")
                return applied
        elif name == "training.train":
            def wrapper(data, config, *args, **kwargs):
                start = time.perf_counter()
                with tracer.span(name):
                    params, records = fn(data, config, *args, **kwargs)
                tracer.count(f"training.backend.{config.backend}_s",
                             time.perf_counter() - start)
                tracer.count("training.epochs", config.epochs)
                tracer.epoch_walls += [r.wall_seconds for r in records]
                return params, records
        else:
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", attr)
        return wrapper

    def install(self) -> None:
        """Replace every target wherever treatalloc looks it up."""
        mods = {m: importlib.import_module(f"treatalloc.{m}")
                for m in {module for module, _ in TARGETS}}
        for module, attr in TARGETS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mods[module], cls_name)
                orig = owner.__dict__[meth]
                self._set(owner, meth, self._wrap(module, attr, orig))
                continue
            orig = getattr(mods[module], attr)
            wrapper = self._wrap(module, attr, orig)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "treatalloc" and not mod_name.startswith("treatalloc."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        previous = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
        self._restore.append((owner, key, previous))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, workload."""
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent,
                                     "workload": self.workload}) + "\n")

    def summary(self, setup_spans: int, setups: int, rounds: int) -> dict[str, float]:
        """Per-layer figures for one set-up plus one round.

        The first ``setup_spans`` spans belong to the ``setups`` set-ups, the
        rest to the rounds; totals are divided by those counts. Gauges are
        maxima.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        # [set-up, rounds] sums per key, combined per set-up and per round
        sums: dict[str, list[float]] = {}

        def add(key: str, phase: int, value: float) -> None:
            sums.setdefault(key, [0.0, 0.0])[phase] += value

        for i, (name, start, end, parent) in enumerate(self.spans):
            phase = 0 if i < setup_spans else 1
            dur = end - start
            if name.startswith(BENCH_PREFIX):
                add("timed", phase, dur)
                add("covered", phase, child_time[i])
                continue
            add(f"{name}_s", phase, dur)
            add(f"{name}_self_s", phase, dur - child_time[i])
            add(f"{name}_calls", phase, 1)
            if name == "solver.decide_dual" and parent >= 0:
                caller = self.spans[parent][0].split(".")[-1]
                add(f"solver.decide_dual.{caller}_calls", phase, 1)
        per = {key: first / setups + rest / rounds for key, (first, rest) in sums.items()}

        out = dict(per)  # names outside PER_LAYER are dropped below
        out.update((key, value / rounds) for key, value in self.counts.items())
        for name, search in (("solver.probes_per_solve", "solver.solve_budget"),
                             ("evaluation.probes_per_budget", "evaluation.allocate_at_budget")):
            searches = per.get(f"{search}_calls", 0.0)
            probes = per.get(f"solver.decide_dual.{search.split('.')[1]}_calls", 0.0)
            out[name] = probes / searches if searches else 0.0
        out["training.epoch_s"] = (statistics.median(self.epoch_walls)
                                   if self.epoch_walls else 0.0)
        out.update(self.gauges)
        timed = per.get("timed", 0.0)
        out["trace.coverage"] = per.get("covered", 0.0) / timed if timed else 0.0
        out["trace.timed_s"] = timed
        out["trace.rounds"] = rounds
        return {name: out.get(name, 0.0) for name, _ in PER_LAYER}
