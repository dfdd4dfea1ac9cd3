"""Malformed-input harness for the command line, one input kind at a time.

The ``key=value`` kind: every key of the three config sections (the
unprefixed generator keys, ``train.*`` and ``eval.*``) is set, one at a
time, to each probe value on top of a small valid config. Whatever the
value, no exception escapes ``cli.run``, the exit code is 0 or 2, and a
nonzero exit prints an error and leaves no new output file. Every probe
value is rejected or small for the size and epoch keys (``n``, ``m``,
``d``, ``epochs``, ``hidden``, ``batch_size``), so no case allocates much
or runs long. The data come from the fixed seed in ``GEN``.
"""

import dataclasses

import pytest

from treatalloc.cli import run
from treatalloc.data import GeneratorConfig
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
