import csv
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from treatalloc.cli import run


def write(path, text):
    path.write_text(text, encoding="utf-8")


@pytest.fixture
def workdir(tmp_path):
    write(tmp_path / "gen.cfg",
          "n=2000\nm=3\nd=4\nnoise=0.2\nseed=11\nfamily=saturating\n")
    write(tmp_path / "train.cfg",
          "train.epochs=20\ntrain.warm_start_epochs=5\n"
          "train.lambda_grid=0.1,0.5,1.0\ntrain.backend=two-stage\n"
          "train.lr=3e-3\ntrain.hidden=8\ntrain.batch_size=256\ntrain.seed=0\n")
    return tmp_path


def p(path):
    return str(path)


class TestGenerate:
    def test_writes_dataset_and_matrix(self, workdir):
        code = run(["generate", "--config", p(workdir / "gen.cfg"),
                    "--out", p(workdir / "d.csv"), "--truth", p(workdir / "t.csv")])
        assert code == 0
        header = (workdir / "d.csv").read_text().splitlines()[0]
        assert header == "id,f0,f1,f2,f3,treatment,revenue,cost,propensity"

    def test_refuses_to_clobber(self, workdir, capsys):
        args = ["generate", "--config", p(workdir / "gen.cfg"),
                "--out", p(workdir / "d.csv"), "--truth", p(workdir / "t.csv")]
        assert run(args) == 0
        assert run(args) == 2
        assert "exists" in capsys.readouterr().err
        assert run(args + ["--force"]) == 0

    def test_idempotent_outputs(self, workdir):
        args = ["generate", "--config", p(workdir / "gen.cfg"),
                "--out", p(workdir / "d.csv"), "--truth", p(workdir / "t.csv")]
        assert run(args) == 0
        first = (workdir / "d.csv").read_bytes()
        truth_first = (workdir / "t.csv").read_bytes()
        assert run(args + ["--force"]) == 0
        assert (workdir / "d.csv").read_bytes() == first
        assert (workdir / "t.csv").read_bytes() == truth_first

    def test_overrides_win(self, workdir):
        code = run(["generate", "--config", p(workdir / "gen.cfg"),
                    "--out", p(workdir / "d2.csv"), "--truth", p(workdir / "t2.csv"),
                    "n=50", "m=2"])
        assert code == 0
        rows = (workdir / "d2.csv").read_text().splitlines()
        assert len(rows) == 51  # header + 50

    def test_bad_config_exit_code(self, workdir):
        write(workdir / "bad.cfg", "n=0\nm=3\nd=4\n")
        code = run(["generate", "--config", p(workdir / "bad.cfg"),
                    "--out", p(workdir / "x.csv"), "--truth", p(workdir / "y.csv")])
        assert code == 2

    def test_misspelt_key_in_file_exit_code(self, workdir, capsys):
        write(workdir / "typo.cfg", "n=50\nm=3\nd=4\nnosie=5\n")
        code = run(["generate", "--config", p(workdir / "typo.cfg"),
                    "--out", p(workdir / "x.csv"), "--truth", p(workdir / "y.csv")])
        assert code == 2
        assert "nosie" in capsys.readouterr().err
        assert not (workdir / "x.csv").exists()

    def test_non_integer_override_exit_code(self, workdir, capsys):
        code = run(["generate", "--config", p(workdir / "gen.cfg"),
                    "--out", p(workdir / "x.csv"), "--truth", p(workdir / "y.csv"),
                    "n=abc"])
        assert code == 2
        assert "abc" in capsys.readouterr().err

    def test_missing_file_exit_code(self, workdir):
        code = run(["generate", "--config", p(workdir / "nope.cfg"),
                    "--out", p(workdir / "x.csv"), "--truth", p(workdir / "y.csv")])
        assert code == 1


class TestPipeline:
    def test_end_to_end_smoke(self, workdir):
        # generate -> train -> solve -> evaluate -> report on 10k samples
        start = time.time()
        assert run(["generate", "--config", p(workdir / "gen.cfg"),
                    "--out", p(workdir / "d.csv"), "--truth", p(workdir / "t.csv"),
                    "n=10000"]) == 0
        assert run(["train", "--data", p(workdir / "d.csv"),
                    "--config", p(workdir / "train.cfg"),
                    "--checkpoint", p(workdir / "m.ckpt"),
                    "--log", p(workdir / "train.log")]) == 0
        assert run(["solve", "--data", p(workdir / "d.csv"),
                    "--checkpoint", p(workdir / "m.ckpt"),
                    "--budget", "200", "--out", p(workdir / "alloc.csv"),
                    "--log", p(workdir / "solve.log")]) == 0
        assert run(["evaluate", "--data", p(workdir / "d.csv"),
                    "--checkpoint", p(workdir / "m.ckpt"),
                    "--out", p(workdir / "curve.csv"),
                    "eval.budgets=0.05,0.1,0.2"]) == 0
        assert run(["evaluate", "--data", p(workdir / "d.csv"),
                    "--predictions", p(workdir / "t.csv"),
                    "--out", p(workdir / "curve_oracle.csv"),
                    "eval.budgets=0.05,0.1,0.2"]) == 0
        assert run(["report", "--out", p(workdir / "table.txt"),
                    "model=" + p(workdir / "curve.csv"),
                    "oracle=" + p(workdir / "curve_oracle.csv")]) == 0
        assert time.time() - start < 60

        with (workdir / "alloc.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10_000
        assert set(rows[0]) == {"id", "choice"}

        with (workdir / "curve.csv").open() as fh:
            points = list(csv.DictReader(fh))
        assert [float(r["budget"]) for r in points] == [0.05, 0.1, 0.2]
        costs = [float(r["per_capita_cost"]) for r in points]
        assert all(c <= b + 1e-9 for c, b in zip(costs, [0.05, 0.1, 0.2]))

        table = (workdir / "table.txt").read_text().splitlines()
        assert table[0].split() == ["model", "0.05", "0.1", "0.2"]
        assert table[2].startswith("model")
        assert table[3].startswith("oracle")

    def test_solve_zero_budget_all_control(self, workdir):
        assert run(["generate", "--config", p(workdir / "gen.cfg"),
                    "--out", p(workdir / "d.csv"), "--truth", p(workdir / "t.csv")]) == 0
        assert run(["solve", "--data", p(workdir / "d.csv"),
                    "--predictions", p(workdir / "t.csv"),
                    "--budget", "0", "--out", p(workdir / "zero.csv")]) == 0
        with (workdir / "zero.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["choice"] == "0" for r in rows)

    def test_solve_deterministic_outputs(self, workdir):
        assert run(["generate", "--config", p(workdir / "gen.cfg"),
                    "--out", p(workdir / "d.csv"), "--truth", p(workdir / "t.csv")]) == 0
        args = ["solve", "--data", p(workdir / "d.csv"),
                "--predictions", p(workdir / "t.csv"),
                "--budget", "150", "--out", p(workdir / "a.csv")]
        assert run(args) == 0
        first = (workdir / "a.csv").read_bytes()
        assert run(args + ["--force"]) == 0
        assert (workdir / "a.csv").read_bytes() == first

    def test_train_gradient_dump_flag(self, workdir):
        assert run(["generate", "--config", p(workdir / "gen.cfg"),
                    "--out", p(workdir / "d.csv"), "--truth", p(workdir / "t.csv"),
                    "n=200"]) == 0
        write(workdir / "tiny.cfg",
              "train.epochs=3\ntrain.lambda_grid=0.2,0.8\n"
              "train.backend=policy\ntrain.hidden=4\ntrain.lr=1e-2\n")
        assert run(["train", "--data", p(workdir / "d.csv"),
                    "--config", p(workdir / "tiny.cfg"),
                    "--checkpoint", p(workdir / "g.ckpt"),
                    "--dump-gradients", p(workdir / "grads.csv")]) == 0
        with (workdir / "grads.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 200 * 3
        assert set(rows[0]) == {"id", "treatment", "d_revenue", "d_cost"}

    def test_perturb_gradient_dump_matches_kernel(self, workdir):
        # the flip kernels return transposed views; the dump and the backward
        # pass read them as the (n, M) matrices they stand for
        import numpy as np

        from treatalloc.data import load_csv, read_config
        from treatalloc.gradients import GradientPair
        from treatalloc.losses import _whole
        from treatalloc.model import backward, forward, load_checkpoint
        from treatalloc.training import _decision_term, train_config

        assert run(["generate", "--config", p(workdir / "gen.cfg"),
                    "--out", p(workdir / "d.csv"), "--truth", p(workdir / "t.csv"),
                    "n=300"]) == 0
        write(workdir / "perturb.cfg",
              "train.epochs=3\ntrain.lambda_grid=0.2,0.8\ntrain.backend=perturb\n"
              "train.hidden=4\ntrain.lr=1e-2\ntrain.step_floor=0.05\n")
        assert run(["train", "--data", p(workdir / "d.csv"),
                    "--config", p(workdir / "perturb.cfg"),
                    "--checkpoint", p(workdir / "g.ckpt"),
                    "--dump-gradients", p(workdir / "grads.csv")]) == 0
        data = load_csv(workdir / "d.csv")
        params, _ = load_checkpoint(workdir / "g.ckpt")
        config = train_config(read_config(workdir / "perturb.cfg", []))
        _, d_rev, d_cost = _decision_term(config)(_whole(data), forward(params, data.features))
        with (workdir / "grads.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        m = data.num_treatments
        assert [int(r["id"]) for r in rows] == np.repeat(data.ids, m).tolist()
        assert [int(r["treatment"]) for r in rows] == np.tile(np.arange(m), data.n).tolist()
        assert [float(r["d_revenue"]) for r in rows] == d_rev.ravel().tolist()
        assert [float(r["d_cost"]) for r in rows] == d_cost.ravel().tolist()
        assert np.any(d_rev) and np.any(d_cost)
        views = backward(params, data.features, GradientPair(d_rev, d_cost))
        copies = backward(params, data.features, GradientPair(
            np.ascontiguousarray(d_rev), np.ascontiguousarray(d_cost)))
        for got, want in zip(views.d_weights + views.d_biases,
                             copies.d_weights + copies.d_biases):
            assert np.array_equal(got, want)

    def test_train_checkpoint_deterministic(self, workdir):
        assert run(["generate", "--config", p(workdir / "gen.cfg"),
                    "--out", p(workdir / "d.csv"), "--truth", p(workdir / "t.csv")]) == 0
        args = ["train", "--data", p(workdir / "d.csv"),
                "--config", p(workdir / "train.cfg"),
                "--checkpoint", p(workdir / "m.ckpt")]
        assert run(args) == 0
        first = (workdir / "m.ckpt").read_bytes()
        assert run(args + ["--force"]) == 0
        assert (workdir / "m.ckpt").read_bytes() == first

    def test_infeasible_budget_exit_code(self, workdir, capsys):
        assert run(["generate", "--config", p(workdir / "gen.cfg"),
                    "--out", p(workdir / "d.csv"), "--truth", p(workdir / "t.csv")]) == 0
        # raise every cost by 1 so nothing is free, then ask for budget 0
        with (workdir / "t.csv").open() as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            for k in range(4, 7):
                row[k] = repr(float(row[k]) + 1.0)
        with (workdir / "exp.csv").open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        code = run(["solve", "--data", p(workdir / "d.csv"),
                    "--predictions", p(workdir / "exp.csv"),
                    "--budget", "0", "--out", p(workdir / "x.csv")])
        assert code == 3
        assert "floor" in capsys.readouterr().err

    def test_report_golden_layout(self, workdir):
        write(workdir / "c1.csv",
              "budget,per_capita_cost,per_capita_revenue,matched_fraction\n"
              "0.1,0.09,1.5,0.33\n0.2,0.19,1.75,0.34\n")
        write(workdir / "c2.csv",
              "budget,per_capita_cost,per_capita_revenue,matched_fraction\n"
              "0.1,0.1,1.6,0.31\n0.2,0.2,1.9,0.35\n")
        assert run(["report", "--out", p(workdir / "table.txt"),
                    "base=" + p(workdir / "c1.csv"),
                    "tuned=" + p(workdir / "c2.csv")]) == 0
        golden = (
            "model         0.1         0.2\n"
            "-----------------------------\n"
            "base       1.5000      1.7500\n"
            "tuned      1.6000      1.9000\n"
        )
        assert (workdir / "table.txt").read_text() == golden

    def test_report_rejects_mismatched_grids(self, workdir):
        write(workdir / "c1.csv",
              "budget,per_capita_cost,per_capita_revenue,matched_fraction\n"
              "0.1,0.09,1.5,0.33\n")
        write(workdir / "c2.csv",
              "budget,per_capita_cost,per_capita_revenue,matched_fraction\n"
              "0.3,0.2,1.9,0.35\n")
        assert run(["report", "--out", p(workdir / "table.txt"),
                    "a=" + p(workdir / "c1.csv"), "b=" + p(workdir / "c2.csv")]) == 2

    @pytest.mark.parametrize("text, line", [
        ("budget,per_capita_cost,per_capita_revenue,matched_fraction\n"
         "0.1,0.09,1.5,0.33\n0.2,0.19,oops,0.34\n", 3),
        ("budget,per_capita_cost,matched_fraction\n0.1,0.09,0.33\n", 1),
        ("0.1,0.09,1.5,0.33\n0.2,0.19,1.75,0.34\n", 1),
        ("per_capita_cost,budget,per_capita_revenue,matched_fraction\n"
         "0.09,0.1,1.5,0.33\n", 1),
    ], ids=["non-numeric-value", "column-missing", "no-header", "columns-reordered"])
    def test_report_rejects_malformed_curve(self, workdir, capsys, text, line):
        write(workdir / "c.csv", text)
        assert run(["report", "--out", p(workdir / "table.txt"),
                    "a=" + p(workdir / "c.csv")]) == 2
        assert f"error: {workdir / 'c.csv'}: line {line}: " in capsys.readouterr().err
        assert not (workdir / "table.txt").exists()

    def test_report_names_the_malformed_curve(self, workdir, capsys):
        header = "budget,per_capita_cost,per_capita_revenue,matched_fraction\n"
        write(workdir / "c1.csv", header + "0.1,0.09,1.5,0.33\n0.2,0.19,1.75,0.34\n")
        write(workdir / "c2.csv", header + "0.1,0.1,1.6,0.31\n0.2,0.2,oops,0.35\n")
        assert run(["report", "--out", p(workdir / "table.txt"),
                    "a=" + p(workdir / "c1.csv"), "b=" + p(workdir / "c2.csv")]) == 2
        err = capsys.readouterr().err
        assert f"error: {workdir / 'c2.csv'}: line 3: " in err
        assert "c1.csv" not in err
        assert not (workdir / "table.txt").exists()


class TestSolveAndTrainInputs:
    @pytest.fixture
    def generated(self, workdir):
        assert run(["generate", "--config", p(workdir / "gen.cfg"),
                    "--out", p(workdir / "d.csv"), "--truth", p(workdir / "t.csv"),
                    "n=300"]) == 0
        return workdir

    def solve(self, workdir, budget, *extra):
        return run(["solve", "--data", p(workdir / "d.csv"),
                    "--predictions", p(workdir / "t.csv"), "--budget", budget,
                    "--out", p(workdir / "alloc.csv"), *extra])

    def test_nan_budget_exit_code(self, generated, capsys):
        assert self.solve(generated, "nan") == 2
        assert "budget" in capsys.readouterr().err
        assert not (generated / "alloc.csv").exists()

    def test_solve_log_starts_at_zero(self, generated):
        assert self.solve(generated, "20", "--log", p(generated / "solve.log")) == 0
        lines = (generated / "solve.log").read_text().splitlines()
        assert lines[0].startswith("lam=0.0 cost=")
        assert 2 <= len(lines) <= 3

    def train(self, workdir, *overrides):
        return run(["train", "--data", p(workdir / "d.csv"),
                    "--config", p(workdir / "train.cfg"),
                    "--checkpoint", p(workdir / "m.ckpt"), "train.epochs=6",
                    *overrides])

    def test_negative_treatment_exit_code(self, generated, capsys):
        lines = (generated / "d.csv").read_text().splitlines(keepends=True)
        row = lines[5].split(",")
        row[-4] = "-1"  # id, features, treatment, revenue, cost, propensity
        lines[5] = ",".join(row)
        write(generated / "d.csv", "".join(lines))
        assert self.train(generated) == 2
        assert f"row id {row[0]}: treatment -1" in capsys.readouterr().err
        assert not (generated / "m.ckpt").exists()

    def test_train_step_keys_reach_config(self, generated):
        from treatalloc.model import load_checkpoint

        assert self.train(generated, "train.step_floor=0.05",
                          "train.step_cap=0.25") == 0
        _, extra = load_checkpoint(generated / "m.ckpt")
        assert extra["train_config"]["step_floor"] == 0.05
        assert extra["train_config"]["step_cap"] == 0.25

    def test_empty_hidden_trains_linear_heads(self, generated):
        from treatalloc.model import load_checkpoint

        assert self.train(generated, "train.hidden=") == 0
        params, extra = load_checkpoint(generated / "m.ckpt")
        assert params.config.layer_widths == ()
        assert extra["train_config"]["hidden_widths"] == []

    def test_all_warm_start_run_reports_its_epochs(self, generated, capsys):
        code = run(["train", "--data", p(generated / "d.csv"),
                    "--config", p(generated / "train.cfg"),
                    "--checkpoint", p(generated / "m.ckpt"), "--log", p(generated / "train.log"),
                    "train.epochs=3", "train.warm_start_epochs=3"])
        assert code == 0
        assert capsys.readouterr().out == "trained 3 epochs\n"
        assert (generated / "train.log").read_bytes() == b""

    def test_unknown_train_key_exit_code(self, generated, capsys):
        assert self.train(generated, "train.step_floor=0.05",
                          "train.no_such_key=1") == 2
        assert "no_such_key" in capsys.readouterr().err
        assert not (generated / "m.ckpt").exists()

    def test_nan_eval_budget_exit_code_before_training(self, generated, capsys,
                                                       monkeypatch):
        import treatalloc.training

        epochs = []
        fit_epoch = treatalloc.training._fit_epoch
        monkeypatch.setattr(treatalloc.training, "_fit_epoch",
                            lambda *a, **kw: epochs.append(1) or fit_epoch(*a, **kw))
        code = run(["train", "--data", p(generated / "d.csv"),
                    "--eval-data", p(generated / "d.csv"),
                    "--config", p(generated / "train.cfg"),
                    "--checkpoint", p(generated / "m.ckpt"),
                    "train.epochs=12", "train.eval_every=10", "train.eval_budgets=nan"])
        assert code == 2
        assert "eval_budgets" in capsys.readouterr().err
        assert epochs == []
        assert not (generated / "m.ckpt").exists()

    @pytest.mark.parametrize("shape", ["m=4", "d=5"], ids=["treatments", "features"])
    def test_mismatched_eval_data_exit_code(self, generated, capsys, shape):
        assert run(["generate", "--config", p(generated / "gen.cfg"),
                    "--out", p(generated / "e.csv"), "--truth", p(generated / "et.csv"),
                    "n=300", shape]) == 0
        code = run(["train", "--data", p(generated / "d.csv"),
                    "--eval-data", p(generated / "e.csv"),
                    "--config", p(generated / "train.cfg"),
                    "--checkpoint", p(generated / "m.ckpt"), "train.epochs=6"])
        assert code == 2
        assert "eval data has" in capsys.readouterr().err
        assert not (generated / "m.ckpt").exists()

    def test_eval_every_below_one_exit_code(self, generated, capsys):
        assert self.train(generated, "train.eval_every=0") == 2
        assert "eval_every" in capsys.readouterr().err
        assert not (generated / "m.ckpt").exists()

    def test_unknown_warm_start_objective_exit_code(self, generated, capsys):
        assert self.train(generated, "train.warm_start_epochs=0",
                          "train.warm_start_objective=bogus") == 2
        assert "bogus" in capsys.readouterr().err
        assert not (generated / "m.ckpt").exists()

    def test_unknown_eval_key_exit_code(self, generated, capsys):
        code = run(["evaluate", "--data", p(generated / "d.csv"),
                    "--predictions", p(generated / "t.csv"),
                    "--out", p(generated / "curve.csv"), "eval.budget=0.1"])
        assert code == 2
        assert "eval.budget" in capsys.readouterr().err
        assert not (generated / "curve.csv").exists()

    def test_degenerate_aucc_exit_code_writes_no_curve(self, workdir, capsys):
        import dataclasses

        import numpy as np

        from treatalloc.data import load_csv, write_csv

        assert run(["generate", "--config", p(workdir / "gen.cfg"),
                    "--out", p(workdir / "d.csv"), "--truth", p(workdir / "t.csv"),
                    "n=20", "m=2"]) == 0
        data = load_csv(workdir / "d.csv")
        write_csv(workdir / "free.csv", dataclasses.replace(data, cost=np.zeros(data.n)))
        code = run(["evaluate", "--data", p(workdir / "free.csv"),
                    "--predictions", p(workdir / "t.csv"),
                    "--out", p(workdir / "curve.csv"), "eval.budgets=0.1"])
        assert code == 2
        assert "degenerate curve" in capsys.readouterr().err
        assert not (workdir / "curve.csv").exists()

    @pytest.fixture
    def two_treatments(self, generated):
        """A 2-treatment checkpoint and outcome matrix for the 3-treatment data."""
        from treatalloc.model import ModelConfig, init_params, save_checkpoint

        save_checkpoint(generated / "two.ckpt", init_params(
            ModelConfig(layer_widths=(4,), num_treatments=2, input_dim=4, seed=0)))
        assert run(["generate", "--config", p(generated / "gen.cfg"),
                    "--out", p(generated / "d2.csv"), "--truth", p(generated / "two.csv"),
                    "n=300", "m=2"]) == 0
        return generated

    @pytest.mark.parametrize("source, name", [("--checkpoint", "two.ckpt"),
                                              ("--predictions", "two.csv")],
                             ids=["checkpoint", "predictions"])
    @pytest.mark.parametrize("verb, extra", [("solve", ["--budget", "1000"]),
                                             ("evaluate", [])], ids=["solve", "evaluate"])
    def test_treatment_mismatch_exit_code(self, two_treatments, capsys, verb, extra,
                                          source, name):
        path = two_treatments / name
        code = run([verb, "--data", p(two_treatments / "d.csv"), source, p(path),
                    "--out", p(two_treatments / "out.csv"), *extra])
        assert code == 2
        assert f"{path}: 2 treatments vs dataset 3" in capsys.readouterr().err
        assert not (two_treatments / "out.csv").exists()

    @pytest.mark.parametrize("verb", ["solve", "train", "report"])
    def test_directory_in_place_of_a_file_exit_code(self, generated, capsys, verb):
        folder = generated / "folder"
        folder.mkdir()
        assert run(["evaluate", "--data", p(generated / "d.csv"),
                    "--predictions", p(generated / "t.csv"),
                    "--out", p(generated / "curve.csv"), "eval.budgets=0.1"]) == 0
        argv = {
            "solve": ["solve", "--data", p(generated / "d.csv"), "--checkpoint", p(folder),
                      "--budget", "20", "--out", p(generated / "alloc.csv")],
            "train": ["train", "--data", p(folder), "--config", p(generated / "train.cfg"),
                      "--checkpoint", p(generated / "m.ckpt")],
            "report": ["report", "--out", p(folder), "--force",
                       "a=" + p(generated / "curve.csv")],
        }[verb]
        assert run(argv) == 1
        assert str(folder) in capsys.readouterr().err
        assert not (generated / "alloc.csv").exists() and not (generated / "m.ckpt").exists()

    @pytest.mark.parametrize("force", [True, False], ids=["force", "no-force"])
    @pytest.mark.parametrize("verb", ["generate", "train", "manifest", "solve"])
    def test_directory_output_exits_before_writing(self, generated, capsys, verb, force):
        # the directory is the verb's last output: it was found only on
        # writing there, after the verb had written its other outputs
        folder = generated / ("m.ckpt.manifest" if verb == "manifest" else "folder")
        folder.mkdir()
        before = sorted(generated.iterdir())
        argv = {
            "generate": ["generate", "--config", p(generated / "gen.cfg"),
                         "--out", p(generated / "new.csv"), "--truth", p(folder)],
            "train": ["train", "--data", p(generated / "d.csv"),
                      "--config", p(generated / "train.cfg"),
                      "--checkpoint", p(generated / "m.ckpt"), "--log", p(folder)],
            "manifest": ["train", "--data", p(generated / "d.csv"),
                         "--config", p(generated / "train.cfg"),
                         "--checkpoint", p(generated / "m.ckpt")],
            "solve": ["solve", "--data", p(generated / "d.csv"),
                      "--predictions", p(generated / "t.csv"), "--budget", "20",
                      "--out", p(generated / "alloc.csv"), "--log", p(folder)],
        }[verb]
        assert run(argv + ["--force"] * force) == 1
        assert f"Is a directory: '{folder}'" in capsys.readouterr().err
        assert sorted(generated.iterdir()) == before and not any(folder.iterdir())

    def test_dataset_not_utf8_exit_code(self, generated, capsys):
        lines = (generated / "d.csv").read_bytes().split(b"\r\n")
        lines[2] = lines[2].replace(b"0", b"\xff", 1)
        (generated / "d.csv").write_bytes(b"\r\n".join(lines))
        assert self.train(generated) == 2
        assert f"{generated / 'd.csv'}: line 3: not UTF-8" in capsys.readouterr().err
        assert not (generated / "m.ckpt").exists()

    def test_config_not_utf8_exit_code(self, workdir, capsys):
        (workdir / "bad.cfg").write_bytes(b"n=50\nm=3\nd=4\nfamily=\xff\n")
        code = run(["generate", "--config", p(workdir / "bad.cfg"),
                    "--out", p(workdir / "x.csv"), "--truth", p(workdir / "y.csv")])
        assert code == 2
        assert f"{workdir / 'bad.cfg'}: not UTF-8" in capsys.readouterr().err
        assert not (workdir / "x.csv").exists()

    @pytest.mark.parametrize("verb", ["generate", "train"])
    def test_negative_seed_exit_code(self, generated, capsys, verb):
        if verb == "train":
            code = self.train(generated, "train.seed=-1")
        else:
            code = run(["generate", "--config", p(generated / "gen.cfg"),
                        "--out", p(generated / "x.csv"), "--truth", p(generated / "y.csv"),
                        "seed=-3"])
        assert code == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (generated / "m.ckpt").exists() and not (generated / "x.csv").exists()

    def test_truncated_checkpoint_exit_code(self, generated, capsys):
        assert self.train(generated) == 0
        ckpt = generated / "m.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:30])
        code = run(["solve", "--data", p(generated / "d.csv"), "--checkpoint", p(ckpt),
                    "--budget", "20", "--out", p(generated / "alloc.csv")])
        assert code == 2
        assert "header" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["generate", "train"])
def test_out_of_memory_exits_two(workdir, monkeypatch, capsys, verb):
    # a huge size key (n=1000000000000, train.hidden=4000000000) fails to
    # allocate; simulated here, so nothing large is allocated
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.6 TiB")

    gen = ["generate", "--config", p(workdir / "gen.cfg"), "--out", p(workdir / "d.csv"),
           "--truth", p(workdir / "t.csv"), "n=50"]
    if verb == "generate":
        monkeypatch.setattr("treatalloc.data.generate_synthetic", exhausted)
        argv, outputs = gen, ["d.csv", "t.csv"]
    else:
        assert run(gen) == 0
        monkeypatch.setattr("treatalloc.training.init_params", exhausted)
        argv = ["train", "--data", p(workdir / "d.csv"), "--config", p(workdir / "train.cfg"),
                "--checkpoint", p(workdir / "m.ckpt"), "--log", p(workdir / "train.log")]
        outputs = ["m.ckpt", "m.ckpt.manifest", "m.ckpt.tmp", "train.log"]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: not enough memory: Unable to allocate 14.6 TiB\n"
    assert not any((workdir / name).exists() for name in outputs)


def test_imports_leave_numpy_unloaded():
    # ``--threads`` sets the thread variables before the verbs import numpy
    import treatalloc

    code = ("import sys, treatalloc, treatalloc.cli; "
            "assert 'numpy' not in sys.modules, sorted(sys.modules)")
    src = str(Path(treatalloc.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_usage_errors_exit_one():
    assert run(["solve", "--data", "x.csv"]) == 1  # missing required args
    assert run([]) == 1
