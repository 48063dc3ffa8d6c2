"""CLI contract tests: exit codes, output files, determinism, round-trips."""

import csv
import json
import os

import numpy as np
import pytest

from osscl import cli, config
from osscl.segregate import auroc_from_scores

TINY = {
    "name": "tiny",
    "datasets": {
        "main": {"kind": "synthetic", "classes": 4, "dim": 8,
                 "train_per_class": 40, "test_per_class": 20, "seed": 7},
        "peripheral": [{"kind": "synthetic", "classes": 4, "dim": 8,
                        "train_per_class": 80, "test_per_class": 0,
                        "seed": 70}],
    },
    "scenario": {"n_tasks": 2, "classes_per_task": 2,
                 "labeled_fraction": 0.1, "n_related": 60, "n_unrelated": 60},
    "augmenter": {"sigma": 0.5, "dropout": 0.1},
    "method": {"epochs_first": 4, "epochs_later": 2, "epochs_learner": 3,
               "classifier_epochs": 20, "batch_size": 32, "memory_size": 12},
    "seeds": [1, 2, 3],
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "exp.json"
    cfg_path.write_text(json.dumps(TINY))
    out = root / "run"
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    return {"root": root, "config": cfg_path, "out": out}


def _read(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


class TestRun:
    def test_emits_one_report_per_seed_plus_aggregate(self, workspace):
        out = workspace["out"]
        seed_dirs = sorted(p for p in os.listdir(out)
                           if p.startswith("seed_"))
        assert seed_dirs == ["seed_1", "seed_2", "seed_3"]
        for d in seed_dirs:
            assert (out / d / "metrics.json").is_file()
            assert (out / d / "per_task.csv").is_file()
            assert (out / d / "timings.json").is_file()
        assert (out / "aggregate.json").is_file()
        assert (out / "config.json").is_file()
        assert (out / "version.json").is_file()

    def test_metrics_fields(self, workspace):
        m = _read(workspace["out"] / "seed_1" / "metrics.json")
        assert m["method"] == "ursl"
        assert m["seed"] == 1
        assert len(m["per_task_accuracy"]) == m["n_tasks"] == 2
        assert "wall_clock" not in m

    def test_refuses_nonempty_dir_without_force(self, workspace, capsys):
        rc = cli.main(["run", "--config", str(workspace["config"]),
                       "--out", str(workspace["out"])])
        assert rc == 2
        assert "--force" in capsys.readouterr().err

    def test_force_overwrites(self, workspace, tmp_path):
        out = tmp_path / "force"
        out.mkdir()
        (out / "junk.txt").write_text("old")
        rc = cli.main(["run", "--config", str(workspace["config"]),
                       "--out", str(out), "--seeds", "1"])
        assert rc == 2
        rc = cli.main(["run", "--config", str(workspace["config"]),
                       "--out", str(out), "--seeds", "1", "--force"])
        assert rc == 0

    def test_rerun_is_bitwise_identical(self, workspace, tmp_path):
        out = tmp_path / "rerun"
        rc = cli.main(["run", "--config", str(workspace["config"]),
                       "--out", str(out), "--seeds", "1"])
        assert rc == 0
        a = (workspace["out"] / "seed_1" / "metrics.json").read_bytes()
        b = (out / "seed_1" / "metrics.json").read_bytes()
        assert a == b

    def test_parallel_seeds_match_serial(self, workspace, tmp_path):
        out = tmp_path / "par"
        rc = cli.main(["run", "--config", str(workspace["config"]),
                       "--out", str(out), "--seeds", "1,2", "--threads", "2"])
        assert rc == 0
        for seed in (1, 2):
            a = (workspace["out"] / f"seed_{seed}" / "metrics.json").read_bytes()
            b = (out / f"seed_{seed}" / "metrics.json").read_bytes()
            assert a == b

    def test_config_echo_closure(self, workspace):
        echo = _read(workspace["out"] / "config.json")
        assert config.from_dict(echo).resolved() == echo
        assert echo["seeds"] == [1, 2, 3]
        assert echo["output_dir"] == str(workspace["out"])

    def test_echo_reproduces_the_run(self, workspace, tmp_path):
        out = tmp_path / "fromecho"
        rc = cli.main(["run", "--config",
                       str(workspace["out"] / "config.json"),
                       "--out", str(out)])
        assert rc == 0
        for seed in (1, 2, 3):
            a = (workspace["out"] / f"seed_{seed}" / "metrics.json").read_bytes()
            b = (out / f"seed_{seed}" / "metrics.json").read_bytes()
            assert a == b

    def test_per_task_csv_roundtrips_exactly(self, workspace):
        m = _read(workspace["out"] / "seed_2" / "metrics.json")
        with open(workspace["out"] / "seed_2" / "per_task.csv",
                  encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == m["n_tasks"]
        for i, row in enumerate(rows):
            assert int(row["task"]) == i + 1
            assert float(row["accuracy"]) == m["per_task_accuracy"][i]
            seg = next(t for t in m["task_metrics"] if t["task"] == i + 1)
            assert float(row["auroc"]) == seg["auroc"]
            assert int(row["n_t_hat"]) == seg["n_t_hat"]

    def test_aggregate_recomputable_from_seed_reports(self, workspace):
        agg = _read(workspace["out"] / "aggregate.json")
        finals = [
            _read(workspace["out"] / f"seed_{s}" / "metrics.json")
            ["final_accuracy"] for s in (1, 2, 3)]
        assert agg["final_accuracy"]["mean"] == float(np.mean(finals))
        assert agg["final_accuracy"]["std"] == float(np.std(finals))
        assert agg["seeds"] == [1, 2, 3]

    def test_version_stamp(self, workspace):
        import osscl
        stamp = _read(workspace["out"] / "version.json")
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert stamp == {
            "package": "osscl", "version": osscl.__version__,
            "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "thread_vars": {v: os.environ.get(v) for v in cli.THREAD_VARS}}
        assert "OPENBLAS_NUM_THREADS" in stamp["thread_vars"]


class TestErrors:
    def test_unknown_key_exit_2_with_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**TINY, "mystery": 1}))
        rc = cli.main(["run", "--config", str(bad), "--out",
                       str(tmp_path / "o")])
        assert rc == 2
        assert "config.mystery" in capsys.readouterr().err

    def test_missing_required_key_names_path(self, tmp_path, capsys):
        spec = {k: v for k, v in TINY.items() if k != "scenario"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        rc = cli.main(["run", "--config", str(bad), "--out",
                       str(tmp_path / "o")])
        assert rc == 2
        assert "config.scenario" in capsys.readouterr().err

    def test_wrong_type_names_full_path(self, tmp_path, capsys):
        spec = json.loads(json.dumps(TINY))
        spec["method"]["weights"] = {"tau": "hot"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        rc = cli.main(["run", "--config", str(bad), "--out",
                       str(tmp_path / "o")])
        assert rc == 2
        assert "config.method.weights.tau" in capsys.readouterr().err

    def test_unreadable_config_exit_2(self, tmp_path, capsys):
        rc = cli.main(["run", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_config_validated_before_any_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**TINY, "mystery": 1}))
        out = tmp_path / "never"
        rc = cli.main(["run", "--config", str(bad), "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_bad_seeds_override_exit_2(self, workspace, tmp_path, capsys):
        rc = cli.main(["run", "--config", str(workspace["config"]),
                       "--out", str(tmp_path / "o"), "--seeds", "1,x"])
        assert rc == 2
        assert "--seeds" in capsys.readouterr().err

    def test_no_output_dir_exit_2(self, workspace, capsys):
        rc = cli.main(["run", "--config", str(workspace["config"])])
        assert rc == 2
        assert "--out" in capsys.readouterr().err

    def test_unknown_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2


class TestGradcheck:
    def test_lists_all_five_losses_and_passes(self, capsys):
        rc = cli.main(["gradcheck"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("ntxent", "supcon", "distill_time",
                     "distill_reference", "combined"):
            assert f"{name}: max rel err" in out
        assert "gradcheck PASS" in out


@pytest.fixture(scope="module")
def seg_out(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("seg") / "out"
    rc = cli.main(["segregate-eval", "--config", str(workspace["config"]),
                   "--out", str(out), "--seeds", "1"])
    assert rc == 0
    return out


class TestSegregateEval:
    def test_metrics_csv_has_one_row_per_task(self, seg_out):
        with open(seg_out / "seed_1" / "segregation.csv",
                  encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == TINY["scenario"]["n_tasks"]
        assert [int(r["task"]) for r in rows] == [1, 2]

    def test_auroc_recomputable_from_dumped_scores(self, seg_out):
        with open(seg_out / "seed_1" / "segregation.csv",
                  encoding="utf-8", newline="") as f:
            metric_rows = {int(r["task"]): r for r in csv.DictReader(f)}
        with open(seg_out / "seed_1" / "scores.csv",
                  encoding="utf-8", newline="") as f:
            samples = list(csv.DictReader(f))
        for t, row in metric_rows.items():
            batch = [s for s in samples if int(s["task"]) == t]
            assert len(batch) == int(row["n_unlabeled"])
            scores = np.array([float(s["score"]) for s in batch])
            related = np.array([s["related"] == "True" for s in batch])
            assert auroc_from_scores(scores, related) == float(row["auroc"])

    def test_rejects_method_without_segregation(self, tmp_path, capsys):
        spec = json.loads(json.dumps(TINY))
        spec["method"]["method"] = "co2l"
        cfg_path = tmp_path / "co2l.json"
        cfg_path.write_text(json.dumps(spec))
        out = tmp_path / "never"
        rc = cli.main(["segregate-eval", "--config", str(cfg_path),
                       "--out", str(out)])
        assert rc == 2
        assert "config.method.method" in capsys.readouterr().err
        assert not out.exists()


class TestReport:
    def test_table_text_and_csv(self, workspace, tmp_path, capsys):
        csv_path = tmp_path / "report.csv"
        rc = cli.main(["report", str(workspace["out"]),
                       "--out", str(csv_path)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "ursl/v4" in text and "tiny" in text
        with open(csv_path, encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["method", "tiny"]
        assert rows[1][0] == "ursl/v4"
        agg = _read(workspace["out"] / "aggregate.json")
        want = (f"{agg['final_accuracy']['mean']:.4f} +/- "
                f"{agg['final_accuracy']['std']:.4f}")
        assert rows[1][1] == want

    def test_rejects_non_results_dir(self, tmp_path, capsys):
        rc = cli.main(["report", str(tmp_path)])
        assert rc == 2
        assert "aggregate.json" in capsys.readouterr().err
