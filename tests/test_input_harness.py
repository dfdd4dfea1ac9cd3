"""Malformed-input harness for the command line, one input kind at a time.

The ``key=value`` kind: every key of the three config sections (the
unprefixed generator keys, ``train.*`` and ``eval.*``) is set, one at a
time, to each probe value on top of a small valid config. Whatever the
value, no exception escapes ``cli.run``, the exit code is 0 or 2, and a
nonzero exit prints an error and leaves no new output file. Every probe
value is rejected or small for the size and epoch keys (``n``, ``m``,
``d``, ``epochs``, ``hidden``, ``batch_size``), so no case allocates much
or runs long. The data come from the fixed seed in ``GEN``.

The checkpoint kind: a small checkpoint, cut at sampled byte offsets, with
bytes flipped in its header and its body, with edited header fields or with
bytes appended, is given to ``solve --checkpoint``. No exception escapes
``cli.run``, the exit code is 0, 2 or 3 (a NaN body exits 3 from
``forward``), a nonzero exit writes nothing, and an exit 0 writes an
allocation that reads back. The mutations come from the fixed seed in
``CHECKPOINT_SEED``.

The outcome-CSV kind: the harness's outcome matrix, cut at sampled byte
offsets, with flipped bytes, a dropped or doubled line or column, a probe
value in a field (``OUTCOME_FIELDS``) or an edited header, is given to
``solve --predictions`` and ``evaluate --predictions``. No exception escapes
``cli.run``; a file the reader refuses, or whose ids or treatment count
differ from the dataset's, exits 2 and writes nothing; any other file exits
0 (``solve``, whose budget fits every allocation) or 0 or 3 (``evaluate``)
and an exit 0 writes an output that reads back. The mutations come from the
fixed seed in ``OUTCOME_SEED``.

The curve-CSV kind: an ``evaluate`` output, mutated as the outcome CSV is
(with header edits of its own, ``CURVE_HEADERS``) or with its rows in
another order, is given to ``report``, alone and after the intact curve. No
exception escapes ``cli.run``; a file the reader refuses, or a second grid
that differs from the first in length or order, exits 2 and writes nothing;
any other input exits 0 with a table that reads back. The mutations come
from the fixed seed in ``CURVE_SEED``.

The dataset-CSV kind: the harness's dataset, mutated as the outcome CSV is
(with header edits of its own, ``DATASET_HEADERS``, and each probe value of
``OUTCOME_FIELDS`` in every column), or with a ``propensity`` column that
disagrees within a treatment, does not sum to 1, is 0 for a present
treatment or is another valid assignment, is given to ``solve --data`` and
``evaluate --data`` with ``--predictions``, and in a few cases to ``train
--data`` and ``--eval-data`` (one epoch). No exception escapes ``cli.run``;
a file ``load_csv`` refuses, or whose ids or treatment count differ from the
outcome matrix's (or, for ``train``, the other dataset's), exits 2 and
writes nothing; any other file exits 0 (``solve``) or 0 or 3 (``evaluate``)
and an exit 0 writes outputs that read back. A finite revenue near the top
of the float range is a dataset ``load_csv`` accepts, but its squared error
overflows: ``train`` exits 3 with one line naming the non-finite loss and
its epoch, and numpy's overflow warning does not reach stderr. The
mutations come from the fixed seed in ``DATASET_SEED``.

The path kind: every output option of every verb (``OUTPUTS``) is given a
missing parent, a directory, ``""``, an existing file, a symlink to a file, a
dangling symlink or a symlink loop, and, where the verb has a second output,
that output names the same file spelt with ``./``, as a symlink or as a hard
link (``PATH_KINDS``), each with and without ``--force``. No exception escapes
``cli.run``, the exit code is the README's, a nonzero exit leaves every entry
of the directory as it was (an old file keeps its bytes under ``--force``),
and an exit 0 writes outputs that read back, through a symlink that stays one,
and leaves no staging directory.
"""

import csv
import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from treatalloc.cli import run
from treatalloc.data import (CURVE_COLUMNS, GeneratorConfig, _read_table, load_counterfactual_csv,
                            load_csv)
from treatalloc.exceptions import ParseError, ValidationError
from treatalloc.model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from treatalloc.losses import LambdaGrid
from treatalloc.training import TrainConfig, train_config

# "\u0661" is a non-ASCII digit one, which int() and float() accept
PROBES = ("", "nan", "inf", "-inf", "1e400", "-1", "-0", "x", "\u0661", "1,2", " ", "0")

GEN = "n=40\nm=3\nd=2\nnoise=0.2\nseed=3\nfamily=saturating\n"
TRAIN = ("train.epochs=2\ntrain.warm_start_epochs=1\ntrain.lambda_grid=0.5,1.0\n"
         "train.backend=entropy\ntrain.tau=0.5\ntrain.hidden=2\ntrain.batch_size=16\n"
         "train.eval_every=1\ntrain.eval_budgets=0.1\n")

GENERATOR_KEYS = [f.name for f in dataclasses.fields(GeneratorConfig)] + ["seed"]
TRAIN_KEYS = ["hidden" if f.name == "hidden_widths" else f.name
              for f in dataclasses.fields(TrainConfig)]
CASES = ([("generate", key) for key in GENERATOR_KEYS]
         + [("train", f"train.{key}") for key in TRAIN_KEYS]
         + [("evaluate", "eval.budgets")])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("inputs")
    (folder / "gen.cfg").write_text(GEN, encoding="utf-8")
    (folder / "train.cfg").write_text(TRAIN, encoding="utf-8")
    assert run(["generate", "--config", str(folder / "gen.cfg"),
                "--out", str(folder / "d.csv"), "--truth", str(folder / "t.csv")]) == 0
    return folder


def _argv(verb, inputs, out):
    """The verb's arguments and the output files it writes on success."""
    if verb == "generate":
        outputs = [out / "d.csv", out / "t.csv"]
        return ["generate", "--config", str(inputs / "gen.cfg"),
                "--out", str(outputs[0]), "--truth", str(outputs[1])], outputs
    if verb == "train":
        outputs = [out / "m.ckpt", out / "m.ckpt.manifest", out / "train.log"]
        return ["train", "--data", str(inputs / "d.csv"), "--eval-data", str(inputs / "d.csv"),
                "--config", str(inputs / "train.cfg"), "--checkpoint", str(outputs[0]),
                "--log", str(outputs[2])], outputs
    outputs = [out / "curve.csv"]
    return ["evaluate", "--data", str(inputs / "d.csv"), "--predictions", str(inputs / "t.csv"),
            "--out", str(outputs[0])], outputs


@pytest.mark.parametrize("value", PROBES, ids=repr)
@pytest.mark.parametrize("verb, key", CASES, ids=[key for _, key in CASES])
def test_config_value_exits_cleanly(inputs, tmp_path, capsys, verb, key, value):
    argv, outputs = _argv(verb, inputs, tmp_path)
    code = run(argv + ["--force", f"{key}={value}"])
    err = capsys.readouterr().err
    assert code in (0, 2)
    if code:
        assert err.startswith("error: ")
        assert not any(tmp_path.iterdir())
    else:
        assert all(path.is_file() for path in outputs)


# a value other than the default for each TrainConfig field: (key text, field value)
FIELD_SAMPLES = {
    "epochs": ("7", 7), "lambda_grid": ("0.25,2", LambdaGrid((0.25, 2.0))),
    "backend": ("policy", "policy"), "alpha": ("0.5", 0.5), "tau": ("0.25", 0.25),
    "warm_start_epochs": ("3", 3), "warm_start_objective": ("cross-entropy", "cross-entropy"),
    "lr": ("0.5", 0.5), "batch_size": ("64", 64), "seed": ("9", 9),
    "hidden_widths": ("5,4", (5, 4)), "activation": ("tanh", "tanh"),
    "eval_every": ("3", 3), "eval_budgets": ("0.5,1", (0.5, 1.0)),
    "step_floor": ("0.01", 0.01), "step_cap": ("0.75", 0.75),
}


def test_every_train_config_field_has_a_key():
    # a field without a train.* key is silently left at its default
    assert set(FIELD_SAMPLES) == {f.name for f in dataclasses.fields(TrainConfig)}
    base = {"train.epochs": "8", "train.lambda_grid": "0.5"}
    default = train_config(base)
    for name, (text, value) in FIELD_SAMPLES.items():
        key = "train.hidden" if name == "hidden_widths" else f"train.{name}"
        config = train_config({**base, key: text})
        assert getattr(config, name) == value != getattr(default, name), name


def test_bad_eval_budgets_exit_before_the_data_is_read(tmp_path, capsys):
    code = run(["evaluate", "--data", str(tmp_path / "missing.csv"),
                "--predictions", str(tmp_path / "missing.csv"),
                "--out", str(tmp_path / "curve.csv"), "eval.budgets=0.1,x"])
    assert code == 2
    assert "eval.budgets" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


CHECKPOINT_SEED = 19
# (header field, value): a [w, b] pair of shapes under "layers" replaces the
# first layer's shapes, any other value there the whole list of layers
HEADER_EDITS = (
    [("layers", v) for v in ([[-4, -4], [3]], [[3, 4], [4]], [[2, 8], [8]], [[2, 4], [3]],
                              "x", None, [])]
    + [("layer_widths", v) for v in ([], [5], [0], [-1], [4, 4], "x", None, [4.0], [1e300],
                                     [float("inf")], [float("nan")])]
    + [("num_treatments", v) for v in (0, -1, 2, 4, 3.0, 3.5, "3", None, True, 1e300,
                                       float("inf"))]
    + [("activation", v) for v in ("tanh", "relu", "sigmoid", "", None, 3)]
)


@pytest.fixture(scope="module")
def checkpoint(inputs):
    """A relu model for the harness data (d = 2, m = 3): its bytes and header length."""
    params = init_params(ModelConfig(layer_widths=(4,), num_treatments=3, input_dim=2, seed=1))
    params.flat += np.random.default_rng(CHECKPOINT_SEED).standard_normal(params.flat.size)
    save_checkpoint(inputs / "base.ckpt", params)
    raw = (inputs / "base.ckpt").read_bytes()
    return raw, int.from_bytes(raw[8:12], "little")


def _with_header(raw, hlen, key, value):
    header = json.loads(raw[12:12 + hlen])
    if key == "layers" and isinstance(value, list) and value and isinstance(value[0], list):
        header["layers"][0] = {"w": value[0], "b": value[1]}
    elif key == "layers":
        header["layers"] = value
    else:
        header["config"][key] = value
    blob = json.dumps(header).encode("utf-8")
    return raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + hlen:]


def _mutants(raw, hlen):
    """(name, bytes) of every mutation, drawn from ``CHECKPOINT_SEED``."""
    rng = np.random.default_rng(CHECKPOINT_SEED)
    for k in sorted({0, 8, 11, 12, 12 + hlen, len(raw) - 8, len(raw) - 1,
                     *rng.integers(1, len(raw), 12).tolist()}):
        yield f"cut at {k}", raw[:k]
    for part, (lo, hi) in (("header", (8, 12 + hlen)), ("body", (12 + hlen, len(raw)))):
        for k, mask in zip(rng.integers(lo, hi, 12), rng.integers(1, 256, 12)):
            flipped = bytearray(raw)
            flipped[k] ^= mask
            yield f"{part} byte {k} ^ {mask}", bytes(flipped)
    for key, value in HEADER_EDITS:
        yield f"{key}={value!r}", _with_header(raw, hlen, key, value)
    yield "NaN body", raw[:12 + hlen] + np.full((len(raw) - 12 - hlen) // 8, np.nan).tobytes()
    for tail in (b"\x00", bytes(8), b"trailing text\n"):
        yield f"{len(tail)} bytes appended", raw + tail


def test_mutated_checkpoint_exits_cleanly(inputs, checkpoint, tmp_path, capsys):
    raw, hlen = checkpoint
    n = len((inputs / "d.csv").read_text(encoding="utf-8").splitlines()) - 1
    codes = set()
    for name, blob in _mutants(raw, hlen):
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "out" / "alloc.csv"
        ckpt.write_bytes(blob)
        out.parent.mkdir(exist_ok=True)
        code = run(["solve", "--data", str(inputs / "d.csv"), "--checkpoint", str(ckpt),
                    "--budget", "1e9", "--out", str(out)])
        err = capsys.readouterr().err
        codes.add(code)
        assert code in (0, 2, 3), name
        if code:
            assert err.startswith("error: "), name
            assert not any(out.parent.iterdir()), name
        else:
            with open(out, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["id", "choice"] and len(rows) == n + 1, name
            assert all(0 <= int(choice) < 3 for _, choice in rows[1:]), name
            out.unlink()
    assert codes == {0, 2, 3}


OUTCOME_SEED = 23
# "\u0661" is a non-ASCII digit one; b"\xff" is no UTF-8 text
OUTCOME_FIELDS = (b"nan", b"inf", b"-inf", b"1e400", b"-0", b"9223372036854775808",
                  b"1" + b"0" * 30, "\u0661".encode(), b"1\xff", b"")
OUTCOME_HEADERS = (b"", b"ID,r0,r1,r2,c0,c1,c2", b" id , r0 ,r1,r2,c0,c1,c2",
                   b"id,r0,r1,r2,c0,c1", b"id,r0,r1,r2,c0,c1,c2,c3", b"id,r1,r0,r2,c0,c1,c2",
                   b"id,c0,c1,c2,r0,r1,r2", b"id,r0,c0", b"id;r0;r1;r2;c0;c1;c2",
                   b"id,r0,r1,r2,c0,c1,c2,")


def _csv_mutants(raw, seed, fields, headers):
    """(name, bytes) of every mutation of the CSV table ``raw``, drawn from
    ``seed``: cuts, flipped bytes, dropped or doubled lines and columns, each
    of ``fields`` in a field and each of ``headers`` in place of the header."""
    rng = np.random.default_rng(seed)
    lines = raw.split(b"\r\n")[:-1]  # the header and the rows, without line ends
    cells = [line.split(b",") for line in lines]

    def joined(rows):
        return b"".join(row + b"\r\n" for row in rows)

    for k in sorted({0, 1, len(lines[0]), len(lines[0]) + 2, len(raw) - 2, len(raw) - 1,
                     *rng.integers(1, len(raw), 10).tolist()}):
        yield f"cut at {k}", raw[:k]
    for k, mask in zip(rng.integers(0, len(raw), 16), rng.integers(1, 256, 16)):
        flipped = bytearray(raw)
        flipped[k] ^= mask
        yield f"byte {k} ^ {mask}", bytes(flipped)
    for i in (0, 1, len(lines) - 1, int(rng.integers(2, len(lines) - 1))):
        yield f"line {i} dropped", joined(lines[:i] + lines[i + 1:])
        yield f"line {i} doubled", joined(lines[:i + 1] + lines[i:])
    for j in (0, 1, len(cells[0]) - 1):
        yield f"column {j} dropped", joined(b",".join(row[:j] + row[j + 1:]) for row in cells)
        yield f"column {j} doubled", joined(b",".join(row[:j + 1] + row[j:]) for row in cells)
    for value in fields:
        for j in (0, int(rng.integers(1, len(cells[0])))):  # the first column, then another
            i = int(rng.integers(1, len(lines)))
            edited = [list(row) for row in cells]
            edited[i][j] = value
            yield f"line {i} field {j} = {value!r}", joined(b",".join(row) for row in edited)
    for header in headers:
        yield f"header {header!r}", joined([header] + lines[1:])


def _reader_accepts(path, ids, m):
    """Whether ``path`` reads as an outcome matrix for these ids and ``m``."""
    try:
        read, matrix = load_counterfactual_csv(path)
    except (ParseError, ValidationError):
        return False
    return np.array_equal(read, ids) and matrix.num_treatments == m


def test_mutated_outcome_csv_exits_cleanly(inputs, tmp_path, capsys):
    raw = (inputs / "t.csv").read_bytes()
    ids, _ = load_counterfactual_csv(inputs / "t.csv")
    codes = {"solve": set(), "evaluate": set()}
    for name, blob in _csv_mutants(raw, OUTCOME_SEED, OUTCOME_FIELDS, OUTCOME_HEADERS):
        (tmp_path / "t.csv").write_bytes(blob)
        accepted = _reader_accepts(tmp_path / "t.csv", ids, 3)
        out = tmp_path / "out"
        out.mkdir(exist_ok=True)
        for verb, extra, allowed in (("solve", ["--budget", "1e9"], {0}),
                                     ("evaluate", [], {0, 3})):
            target = out / f"{verb}.csv"
            code = run([verb, "--data", str(inputs / "d.csv"),
                        "--predictions", str(tmp_path / "t.csv"), "--out", str(target), *extra])
            err = capsys.readouterr().err
            codes[verb].add(code)
            assert code in (allowed if accepted else {2}), (verb, name)
            if code:
                assert err.startswith("error: "), (verb, name)
                assert not any(out.iterdir()), (verb, name)
                continue
            with open(target, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            if verb == "solve":
                assert rows[0] == ["id", "choice"], name
                assert [int(i) for i, _ in rows[1:]] == ids.tolist(), name
                assert all(0 <= int(choice) < 3 for _, choice in rows[1:]), name
            else:
                assert rows[0] == CURVE_COLUMNS and len(rows) > 1, name
                assert all(len(row) == 4 for row in rows[1:]), name
                np.array(rows[1:], dtype=float)  # every cell a number
            target.unlink()
    assert codes["solve"] == {0, 2}


CURVE_SEED = 29
CURVE_HEADERS = (b"", b"BUDGET,per_capita_cost,per_capita_revenue,matched_fraction",
                 b" budget , per_capita_cost ,per_capita_revenue,matched_fraction",
                 b"budget,per_capita_cost,per_capita_revenue",
                 b"budget,per_capita_cost,per_capita_revenue,matched_fraction,extra",
                 b"per_capita_cost,budget,per_capita_revenue,matched_fraction",
                 b"budget;per_capita_cost;per_capita_revenue;matched_fraction",
                 b"budget,per_capita_cost,per_capita_revenue,matched_fraction,")


def _curve_mutants(raw):
    """The table mutations of the curve CSV ``raw``, then grids in another
    order: the rows reversed, and the first two rows swapped."""
    yield from _csv_mutants(raw, CURVE_SEED, OUTCOME_FIELDS, CURVE_HEADERS)
    header, *rows = raw.split(b"\r\n")[:-1]
    for name, order in (("rows reversed", rows[::-1]), ("rows 1 and 2 swapped",
                                                        [rows[1], rows[0], *rows[2:]])):
        yield name, b"".join(line + b"\r\n" for line in [header, *order])


def _curve_budgets(path):
    """The budget column of ``path`` as ``report`` reads it, or None if it refuses the file."""
    try:
        return _read_table(path, lambda header: header == CURVE_COLUMNS, "",
                           finite=True)[1][0].tolist()
    except ParseError:
        return None


def test_mutated_curve_csv_exits_cleanly(curve, tmp_path, capsys):
    """The curve-CSV kind: ``report`` on a mutated ``evaluate`` output, alone
    and as the second curve after the intact one. A file the reader refuses,
    or a second curve whose budget grid is not the first's, exits 2 and
    writes nothing; any other input exits 0 with a table of one line per
    curve and one number per budget. A ``nan`` or ``inf`` (``1e400``) field
    is one the reader refuses, as ``evaluate`` never writes one."""
    grid = _curve_budgets(curve)
    codes = set()
    for name, blob in _curve_mutants(curve.read_bytes()):
        (tmp_path / "c.csv").write_bytes(blob)
        budgets = _curve_budgets(tmp_path / "c.csv")
        out = tmp_path / "out"
        out.mkdir(exist_ok=True)
        for curves in ([f"m={tmp_path / 'c.csv'}"], [f"a={curve}", f"m={tmp_path / 'c.csv'}"]):
            code = run(["report", "--out", str(out / "table.txt"), *curves])
            err = capsys.readouterr().err
            codes.add(code)
            fits = budgets is not None and (len(curves) == 1 or budgets == grid)
            assert code == (0 if fits else 2), (name, curves, err)
            if code:
                assert err.startswith("error: "), name
                assert not any(out.iterdir()), name
                continue
            lines = (out / "table.txt").read_text(encoding="utf-8").splitlines()
            assert lines[0].split() == ["model", *(f"{b:.4g}" for b in budgets)], name
            assert [line.split()[0] for line in lines[2:]] == [c[0] for c in curves], name
            for line in lines[2:]:
                assert len([float(v) for v in line.split()[1:]]) == len(budgets), name
            (out / "table.txt").unlink()
    assert codes == {0, 2}


DATASET_SEED = 31
DATASET_HEADERS = (b"", b"ID,f0,f1,treatment,revenue,cost,propensity",
                   b" id , f0 ,f1,treatment,revenue,cost,propensity",
                   b"id,f0,f1,treatment,revenue,cost", b"id,f0,f1,treatment,revenue,cost,weight",
                   b"id,f1,f0,treatment,revenue,cost,propensity",
                   b"id,f0,f1,revenue,treatment,cost,propensity",
                   b"id,f0,f1,f2,treatment,revenue,cost", b"id;f0;f1;treatment;revenue;cost;propensity",
                   b"id,f0,f1,treatment,revenue,cost,propensity,")


def _dataset_mutants(raw):
    """The table mutations of the dataset CSV ``raw``, each probe value in
    every column, and propensity columns that disagree within a treatment,
    do not sum to 1, give a present treatment 0 or swap two treatments'."""
    yield from _csv_mutants(raw, DATASET_SEED, (), DATASET_HEADERS)
    rng = np.random.default_rng(DATASET_SEED)
    header, *rows = [line.split(b",") for line in raw.split(b"\r\n")[:-1]]

    def joined(table):
        return b"".join(b",".join(row) + b"\r\n" for row in [header, *table])

    for value in OUTCOME_FIELDS:
        for j, name in enumerate(header):
            i = int(rng.integers(0, len(rows)))
            edited = [list(row) for row in rows]
            edited[i][j] = value
            yield f"row {i} {name.decode()} = {value!r}", joined(edited)
    share = {row[3]: row[6] for row in rows}  # treatment -> its propensity text
    for name, given in (("disagreeing", {}), ("not summing to 1", {b"0": b"0.5"}),
                        ("0 for treatment 1", {b"1": b"0", b"0": b"0.6"}),
                        ("swapped for 0 and 1", {b"0": share[b"1"], b"1": share[b"0"]})):
        edited = [[*row[:6], given.get(row[3], row[6])] for row in rows]
        if not given:
            edited[int(rng.integers(0, len(rows)))][6] = b"0.5"
        yield f"propensity {name}", joined(edited)


def _dataset_accepts(path, ids, m):
    """Whether ``path`` reads as a dataset with these ids and ``m`` treatments."""
    try:
        data = load_csv(path)
    except (ParseError, ValidationError):
        return False
    return np.array_equal(data.ids, ids) and data.num_treatments == m


def test_mutated_dataset_csv_exits_cleanly(inputs, tmp_path, capsys):
    ids, _ = load_counterfactual_csv(inputs / "t.csv")
    codes = {"solve": set(), "evaluate": set()}
    for name, blob in _dataset_mutants((inputs / "d.csv").read_bytes()):
        (tmp_path / "d.csv").write_bytes(blob)
        accepted = _dataset_accepts(tmp_path / "d.csv", ids, 3)
        out = tmp_path / "out"
        out.mkdir(exist_ok=True)
        for verb, extra, allowed in (("solve", ["--budget", "1e9"], {0}),
                                     ("evaluate", [], {0, 3})):
            target = out / f"{verb}.csv"
            code = run([verb, "--data", str(tmp_path / "d.csv"),
                        "--predictions", str(inputs / "t.csv"), "--out", str(target), *extra])
            err = capsys.readouterr().err
            codes[verb].add(code)
            assert code in (allowed if accepted else {2}), (verb, name, err)
            if code:
                assert err.startswith("error: "), (verb, name)
                assert not any(out.iterdir()), (verb, name)
                continue
            with open(target, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            if verb == "solve":
                assert rows[0] == ["id", "choice"], name
                assert [int(i) for i, _ in rows[1:]] == ids.tolist(), name
                assert all(0 <= int(choice) < 3 for _, choice in rows[1:]), name
            else:
                assert rows[0] == CURVE_COLUMNS and len(rows) > 1, name
                np.array(rows[1:], dtype=float)  # every cell a number
            target.unlink()
    assert codes["solve"] == {0, 2} and codes["evaluate"] == {0, 2}


def _train_cases(raw):
    """(name, --data bytes, --eval-data bytes, exit code): one mutation of
    each class ``train`` reads differently from ``solve``."""
    header, *rows = raw.split(b"\r\n")[:-1]
    cells = [row.split(b",") for row in rows]

    def table(first, body):
        return b"".join(line + b"\r\n" for line in [first, *body])

    def with_field(i, j, value):
        edited = [list(row) for row in cells]
        edited[i][j] = value
        return table(header, [b",".join(row) for row in edited])

    no_propensity = table(header.rsplit(b",", 1)[0], [row.rsplit(b",", 1)[0] for row in rows])
    two_treatments = table(header.rsplit(b",", 1)[0], [row.rsplit(b",", 1)[0]
                                                       for row, c in zip(rows, cells)
                                                       if c[3] != b"2"])
    return [("intact", raw, raw, 0),
            ("no propensity column", no_propensity, no_propensity, 0),
            ("non-ASCII digit in f0", with_field(4, 1, "\u0661".encode()), raw, 0),
            ("-0 cost", with_field(4, 5, b"-0"), raw, 0),
            ("column dropped in the eval data", raw,
             table(header, [b",".join(c[:2] + c[3:]) for c in cells]), 2),
            ("eval data with two treatments", raw, two_treatments, 2),
            ("disagreeing propensity", with_field(4, 6, b"0.5"), raw, 2),
            ("nan revenue", with_field(4, 4, b"nan"), raw, 2),
            ("revenue 1e300", with_field(4, 4, b"1e300"), raw, 3)]


def test_mutated_dataset_csv_trains_or_exits_cleanly(inputs, tmp_path, capsys):
    for name, data, eval_data, expected in _train_cases((inputs / "d.csv").read_bytes()):
        (tmp_path / "d.csv").write_bytes(data)
        (tmp_path / "e.csv").write_bytes(eval_data)
        out = tmp_path / "out"
        out.mkdir(exist_ok=True)
        argv = ["train", "--data", str(tmp_path / "d.csv"), "--eval-data", str(tmp_path / "e.csv"),
                "--config", str(inputs / "train.cfg"), "--checkpoint", str(out / "m.ckpt"),
                "--log", str(out / "train.log"), "train.epochs=1", "train.warm_start_epochs=0"]
        code = run(argv)
        err = capsys.readouterr().err
        assert code == expected, (name, err)
        if code == 3:  # the squares overflow: one line names the epoch, no numpy warning
            assert err.startswith("error: non-finite loss at epoch 0") and \
                err.count("\n") == 1, (name, err)
        if code:
            assert err.startswith("error: "), name
            assert not any(out.iterdir()), name
            continue
        load_checkpoint(out / "m.ckpt")
        assert _lines_start("epoch=0 ")(out / "train.log"), name
        for path in out.iterdir():
            path.unlink()


def _lines_start(prefix):
    return lambda path: all(line.startswith(prefix)
                            for line in Path(path).read_text(encoding="utf-8").splitlines())


def _csv_header(header):
    def read(path):
        with open(path, newline="", encoding="utf-8") as fh:
            assert next(csv.reader(fh)) == header
    return read


# the path kind: verb -> {output option: (default name, a reader that raises
# or fails an assertion unless the output reads back)}
OUTPUTS = {
    "generate": {"--out": ("d.csv", load_csv),
                 "--truth": ("t.csv", load_counterfactual_csv)},
    "train": {"--checkpoint": ("m.ckpt", load_checkpoint),
              "--log": ("train.log", _lines_start("epoch=")),
              "--dump-gradients": ("grad.csv",
                                   _csv_header(["id", "treatment", "d_revenue", "d_cost"]))},
    "solve": {"--out": ("alloc.csv", _csv_header(["id", "choice"])),
              "--log": ("lam.log", _lines_start("lam="))},
    "evaluate": {"--out": ("curve.csv", _csv_header(CURVE_COLUMNS))},
    "report": {"--out": ("table.txt", _lines_start(""))},
}
OPTIONS = [(verb, option) for verb, options in OUTPUTS.items() for option in options]
# kind -> exit code (without --force, with --force); the last three pair the
# option with another output of its verb
PATH_KINDS = {"missing parent": (1, 1), "directory": (1, 1), "empty": (1, 1),
              "existing file": (2, 0), "symlink to a file": (2, 0),
              "dangling symlink": (0, 0), "symlink loop": (1, 1),
              "same file spelt ./": (2, 2), "same file as a symlink": (2, 2),
              "same file as a hard link": (2, 0)}


def _listing(folder):
    """Every entry under ``folder``: a link's target, a file's bytes, or a directory."""
    return {str(path.relative_to(folder)): os.readlink(path) if path.is_symlink()
            else path.read_bytes() if path.is_file() else "dir"
            for path in sorted(folder.rglob("*"))}


def _place(kind, work, name):
    """Make ``kind`` under ``work``; returns the option's path and the other output's."""
    target = work / name
    if kind == "missing parent":
        return str(work / "nodir" / name), None
    if kind == "directory":
        target.mkdir()
    if kind == "empty":
        return "", None
    if kind in ("existing file", "same file as a hard link"):
        target.write_bytes(b"old\n")
    if kind == "symlink to a file":
        (work / "old.bin").write_bytes(b"old\n")
        target.symlink_to("old.bin")
    if kind == "dangling symlink":
        target.symlink_to("gone.bin")
    if kind == "symlink loop":
        target.symlink_to("loop")
        (work / "loop").symlink_to(name)
    if kind == "same file spelt ./":
        return str(target), os.path.join(str(work), ".", name)
    if kind == "same file as a symlink":
        (work / "alias").symlink_to(name)
        return str(target), str(work / "alias")
    if kind == "same file as a hard link":
        os.link(target, work / "alias")
        return str(target), str(work / "alias")
    return str(target), None


@pytest.fixture(scope="module")
def curve(inputs):
    assert run(["evaluate", "--data", str(inputs / "d.csv"), "--predictions",
                str(inputs / "t.csv"), "--out", str(inputs / "curve.csv")]) == 0
    return inputs / "curve.csv"


@pytest.mark.parametrize("verb, option", OPTIONS, ids=[f"{v} {o}" for v, o in OPTIONS])
def test_output_path_exits_cleanly(inputs, curve, tmp_path, capsys, verb, option):
    outputs = OUTPUTS[verb]
    others = [o for o in outputs if o != option]
    base = {"generate": ["--config", str(inputs / "gen.cfg")],
            "train": ["--data", str(inputs / "d.csv"), "--config", str(inputs / "train.cfg")],
            "solve": ["--data", str(inputs / "d.csv"), "--predictions", str(inputs / "t.csv"),
                      "--budget", "1e9"],
            "evaluate": ["--data", str(inputs / "d.csv"), "--predictions", str(inputs / "t.csv")],
            "report": [f"a={curve}"]}[verb]
    for k, (kind, codes) in enumerate(PATH_KINDS.items()):
        if kind.startswith("same file") and not others:
            continue  # the verb has one output
        for force, expected in zip((False, True), codes):
            case = f"{kind}, {'with' if force else 'without'} --force"
            work = tmp_path / f"{k}{'f' * force}"
            work.mkdir()
            path, second = _place(kind, work, outputs[option][0])
            paths = {option: path, **{other: str(work / outputs[other][0]) for other in others}}
            if second is not None:
                paths[others[0]] = second
            before = _listing(work)
            code = run([verb, *base, *(arg for pair in paths.items() for arg in pair)]
                       + ["--force"] * force)
            err = capsys.readouterr().err
            assert code == expected, (case, err)
            if code:
                assert err.startswith("error: "), case
                assert _listing(work) == before, case
                continue
            for name, given in paths.items():
                outputs[name][1](given)
            written = {Path(given).name for given in paths.values()} | {"gone.bin"}
            if verb == "train":  # beside the file the checkpoint was written to
                manifest = Path(os.path.realpath(paths["--checkpoint"]) + ".manifest")
                written.add(manifest.name)
                assert manifest.is_file(), case
            if kind in ("symlink to a file", "dangling symlink"):
                assert Path(path).is_symlink(), case  # written through, the link kept
            assert {p.name for p in work.iterdir()} <= set(before) | written, case  # no staging
