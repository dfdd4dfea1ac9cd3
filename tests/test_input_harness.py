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
"""

import csv
import dataclasses
import json

import numpy as np
import pytest

from treatalloc.cli import run
from treatalloc.data import GeneratorConfig
from treatalloc.model import ModelConfig, init_params, save_checkpoint
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
