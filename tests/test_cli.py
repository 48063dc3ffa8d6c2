"""CLI contract tests: exit codes, output files, determinism, round-trips."""

import csv
import dataclasses
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from osscl import cli, config, gradcheck, losses, trainer
from osscl import numcore as nc
from osscl import scenario as sc
from osscl.segregate import auroc_from_scores
from test_trainer import (_PINNED_BLAS, _PINNED_KERNEL, _PINNED_NUMPY,
                          _blas_configuration)

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

    def test_failed_forced_rerun_leaves_no_aggregate(self, workspace,
                                                     tmp_path, monkeypatch):
        """A forced rerun that raises at seed 2 leaves the new config.json
        and seed_1 but not the old run's aggregate.json, so report does not
        read the directory as complete."""
        out = tmp_path / "forced"
        rc = cli.main(["run", "--config", str(workspace["config"]),
                       "--out", str(out), "--seeds", "1"])
        assert rc == 0 and (out / "aggregate.json").is_file()
        run_continual = trainer.run_continual

        def fails_at_seed_2(cfg, stream, dataset, augmenter, seed, **kwargs):
            if seed == 2:
                raise RuntimeError("seed 2 failed")
            return run_continual(cfg, stream, dataset, augmenter, seed,
                                 **kwargs)

        monkeypatch.setattr(trainer, "run_continual", fails_at_seed_2)
        rc = cli.main(["run", "--config", str(workspace["config"]),
                       "--out", str(out), "--seeds", "1,2", "--force"])
        assert rc == 1
        assert (out / "seed_1" / "metrics.json").is_file()
        assert _read(out / "config.json")["seeds"] == [1, 2]
        assert not (out / "aggregate.json").exists()
        assert cli.main(["report", str(out)]) == 2

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
        environ, affinity = dict(os.environ), os.sched_getaffinity(0)
        rc = cli.main(["run", "--config", str(workspace["config"]),
                       "--out", str(out), "--seeds", "1,2", "--threads", "2"])
        assert rc == 0
        # only the workers were pinned to their CPU shares
        assert dict(os.environ) == environ
        assert os.sched_getaffinity(0) == affinity
        for seed in (1, 2):
            a = (workspace["out"] / f"seed_{seed}" / "metrics.json").read_bytes()
            b = (out / f"seed_{seed}" / "metrics.json").read_bytes()
            assert a == b

    def test_file_dataset_runs_like_the_synthetic_one(self, workspace,
                                                      tmp_path):
        """The `file` kind through a config: the tiny main exported with
        save_dataset gives the metrics.json bytes of the synthetic run."""
        spec = TINY["datasets"]["main"]
        export = tmp_path / "main.npz"
        sc.save_dataset(sc.synth_dataset(
            spec["classes"], spec["dim"], spec["train_per_class"],
            spec["test_per_class"], spec["seed"]), export)
        from_file = json.loads(json.dumps(TINY))
        from_file["datasets"]["main"] = {"kind": "file", "path": str(export)}
        cfg_path = tmp_path / "file.json"
        cfg_path.write_text(json.dumps(from_file))
        out = tmp_path / "file"
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                       "--seeds", "1"])
        assert rc == 0
        a = (workspace["out"] / "seed_1" / "metrics.json").read_bytes()
        b = (out / "seed_1" / "metrics.json").read_bytes()
        assert a == b

    @pytest.mark.parametrize("cpus,workers", [
        ([0], 1), ([0, 1], 2), ([0, 1, 2, 3], 2), ([0, 1, 2, 3, 4], 3),
        ([3, 5, 7, 8, 9, 10, 11, 12], 8), ([0], 3), ([0, 1], 3),
        ([2, 4, 6], 7)])
    def test_workers_get_cpu_shares(self, cpus, workers):
        """Disjoint shares that cover the CPUs while there are at least as
        many CPUs as workers, else one CPU each."""
        shares = cli._cpu_shares(cpus, workers)
        assert len(shares) == workers
        if workers <= len(cpus):
            assert sorted(c for share in shares for c in share) == cpus
            assert all(shares)
        else:
            assert all(len(share) == 1 for share in shares)
            assert {c for share in shares for c in share} == set(cpus)

    @pytest.mark.parametrize("width", [1, 2])
    def test_a_pool_worker_runs_on_its_share(self, width):
        """A worker started by _pin_worker runs on the share it takes, with
        an OpenBLAS pool no larger than the share, and reads a spare core
        only when the share has two CPUs or more."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < width:
            pytest.skip(f"needs {width} CPUs")
        ctx = multiprocessing.get_context("spawn")
        shares = ctx.SimpleQueue()
        shares.put(cpus[-width:])
        try:
            with ProcessPoolExecutor(max_workers=1, mp_context=ctx,
                                     initializer=cli._pin_worker,
                                     initargs=(shares,)) as pool:
                affinity = pool.submit(os.sched_getaffinity, 0).result()
                spare = pool.submit(trainer._spare_core).result()
                blas = pool.submit(trainer.blas_threads).result()
        finally:
            shares.close()
        assert affinity == set(cpus[-width:])
        assert spare is (width > 1)
        if trainer.blas_threads() is not None:
            assert 1 <= blas <= width

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
            "blas": {"name": blas["name"], "version": blas["version"],
                     "kernel": trainer.blas_kernel(),
                     "threads_per_run":
                         None if trainer._openblas() is None else 1},
            "thread_vars": {v: os.environ.get(v) for v in cli.THREAD_VARS}}
        assert "OPENBLAS_NUM_THREADS" in stamp["thread_vars"]

    def test_version_stamp_records_the_kernel_that_runs(self):
        """Not the build target that np.show_config names: OpenBLAS runs the
        kernel OPENBLAS_CORETYPE forces, and the stamp follows it."""
        if trainer.blas_kernel() is None or platform.machine() != "x86_64":
            pytest.skip("needs numpy's bundled OpenBLAS on x86-64")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", "from osscl import cli; "
             "print(cli._version_stamp()['blas']['kernel'])"],
            env={**os.environ, "OPENBLAS_CORETYPE": "Sandybridge",
                 "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "Sandybridge"

    @pytest.mark.parametrize("library", [None, object()],
                             ids=["no_openblas", "no_corename"])
    def test_version_stamp_kernel_is_null_when_unknown(self, monkeypatch,
                                                       library):
        """Without numpy's bundled OpenBLAS a run keeps the pool's thread
        count, so threads_per_run is null too."""
        monkeypatch.setattr(trainer, "_openblas", lambda: library)
        blas = cli._version_stamp()["blas"]
        assert blas["kernel"] is None
        assert blas["threads_per_run"] == (None if library is None else 1)


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

    @pytest.mark.parametrize("seeds,message", [
        ("1,x", "expected comma-separated integers"),
        ("-1", "expected a non-empty list of seeds >= 0"),
        ("1,1", "seeds must be unique"),
    ], ids=["not_an_integer", "negative", "repeated"])
    def test_bad_seeds_override_exit_2(self, workspace, tmp_path, capsys,
                                       seeds, message):
        out = tmp_path / "o"
        rc = cli.main(["run", "--config", str(workspace["config"]),
                       "--out", str(out), f"--seeds={seeds}"])
        assert rc == 2
        assert f"config error: --seeds: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_bad_threads_exit_2_before_any_output(self, workspace, tmp_path,
                                                  capsys, threads):
        out = tmp_path / "o"
        rc = cli.main(["run", "--config", str(workspace["config"]),
                       "--out", str(out), "--threads", threads])
        assert rc == 2
        assert (f"config error: --threads: expected an integer >= 1, "
                f"got {threads}") in capsys.readouterr().err
        assert not out.exists()

    def test_no_output_dir_exit_2(self, workspace, capsys):
        rc = cli.main(["run", "--config", str(workspace["config"])])
        assert rc == 2
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [{"crop_scale": [-1, 1]},
                                     {"crop_scale": [0.9, 0.1]},
                                     {"flip_p": 2},
                                     {"jitter_strengths": [0.4, 0.4, -0.4, 0.1]}])
    def test_bad_augmenter_exit_2_before_any_output(self, tmp_path, capsys,
                                                    bad):
        spec = json.loads(json.dumps(TINY))
        spec["augmenter"].update(mode="image", **bad)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(spec))
        out = tmp_path / "never"
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        assert "config.augmenter" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_image_row_width_exit_2_before_training(self, tmp_path, capsys,
                                                    threads):
        spec = json.loads(json.dumps(TINY))
        spec["augmenter"] = {"mode": "image"}
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(spec))
        out = tmp_path / "o"
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                       "--threads", threads])
        assert rc == 2
        assert ("config.datasets.main: rows of 8 values are not 3 x hw x hw "
                "images") in capsys.readouterr().err
        assert not out.exists()

    def test_image_hw_is_an_unknown_key_exit_2(self, tmp_path, capsys):
        """The rows give the image side; a config that still states it
        fails at load."""
        spec = json.loads(json.dumps(TINY))
        spec["augmenter"] = {"mode": "image", "image_hw": 32}
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(spec))
        out = tmp_path / "never"
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        assert ("config error: config.augmenter.image_hw: unknown key"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("where,spec,key", [
        ("main", {"kind": "file", "path": "missing.npz"}, "path"),
        ("peripheral", {"kind": "cifar", "train_path": "nope.bin"},
         "train_path"),
        ("main", {"kind": "cifar", "train_path": "MAIN",
                  "test_path": "nope_test.bin"}, "test_path"),
    ], ids=["file_main", "cifar_peripheral", "cifar_main_test"])
    def test_missing_dataset_path_exit_2_before_any_output(
            self, tmp_path, capsys, where, spec, key):
        """Checked before the output directory is made: no config.json or
        version.json is left behind."""
        main = tmp_path / "main.bin"
        sc.write_cifar_binary(main, np.zeros(2, dtype=np.uint8),
                              np.zeros((2, 3072), dtype=np.uint8))
        spec = {k: str(main) if v == "MAIN" else
                str(tmp_path / v) if k.endswith("path") else v
                for k, v in spec.items()}
        cfg = json.loads(json.dumps(TINY))
        if where == "main":
            cfg["datasets"]["main"] = spec
        else:
            cfg["datasets"]["peripheral"] = [spec]
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "never"
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        prefix = "main" if where == "main" else "peripheral[0]"
        err = capsys.readouterr().err
        assert f"config.datasets.{prefix}.{key}: no such file" in err
        assert not out.exists()

    @pytest.mark.parametrize("where,payload,message", [
        ("main", b"not an archive", "not a dataset export"),
        ("peripheral", b"\x00" * 10, "not a multiple of 3073"),
        ("peripheral", b"\x0c" + b"\x00" * 3072, "label 12 out of range"),
    ], ids=["not_an_export", "cifar_size", "cifar_label"])
    def test_unreadable_dataset_exit_2_before_training(
            self, tmp_path, capsys, where, payload, message):
        path = tmp_path / "data.bin"
        path.write_bytes(payload)
        cfg = json.loads(json.dumps(TINY))
        if where == "main":
            cfg["datasets"]["main"] = {"kind": "file", "path": str(path)}
        else:
            cfg["datasets"]["peripheral"] = [{"kind": "cifar",
                                              "train_path": str(path)}]
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        prefix = "main" if where == "main" else "peripheral[0]"
        assert f"config.datasets.{prefix}: " in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("split", ["train_x", "test_x"])
    def test_non_finite_features_exit_2_before_training(self, tmp_path,
                                                        capsys, split):
        spec = TINY["datasets"]["main"]
        data = sc.synth_dataset(spec["classes"], spec["dim"],
                                spec["train_per_class"],
                                spec["test_per_class"], spec["seed"])
        arrays = {k: getattr(data, k).copy() for k in
                  ("train_x", "train_y", "train_ids", "test_x", "test_y",
                   "test_ids")}
        arrays[split][4, 2] = np.nan
        export = tmp_path / "main.npz"
        np.savez(export, name=np.array(data.name), **arrays)
        cfg = json.loads(json.dumps(TINY))
        cfg["datasets"]["main"] = {"kind": "file", "path": str(export)}
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"config.datasets.main: {split} has non-finite features" in err
        assert not out.exists()

    @pytest.mark.parametrize("memory_size", [0, 1])
    def test_memory_below_the_earlier_classes_exit_2_before_any_output(
            self, tmp_path, capsys, memory_size):
        """Two tasks of two classes: memory must hold the first task's two
        classes, or the final classifier misses one."""
        cfg = json.loads(json.dumps(TINY))
        cfg["method"]["memory_size"] = memory_size
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "never"
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        assert "config.method.memory_size: must be >= 2" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["synthetic", "file"])
    def test_memory_quota_at_zero_for_one_seed_exits_2_before_any_output(
            self, tmp_path, capsys, kind):
        """Three slots over four classes: at seed 1 the class at quota 0 is
        in the last task, at seed 2 in the first, which the final classifier
        would miss. Every seed's class order is checked before any write;
        a file main is loaded for its class count."""
        cfg = json.loads(json.dumps(TINY))
        cfg["method"]["memory_size"] = 3
        if kind == "file":
            spec = cfg["datasets"]["main"]
            export = tmp_path / "main.npz"
            sc.save_dataset(sc.synth_dataset(
                spec["classes"], spec["dim"], spec["train_per_class"],
                spec["test_per_class"], spec["seed"]), export)
            cfg["datasets"]["main"] = {"kind": "file", "path": str(export)}
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "never"
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                       "--seeds", "1,2"])
        assert rc == 2
        assert ("config.method.memory_size: seed 2: memory_size 3 keeps no "
                "exemplar of classes [3]") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "segregate-eval"])
    def test_too_few_classes_exit_2_before_any_output(self, tmp_path, capsys,
                                                      command):
        """Three tasks of two classes over a main dataset of four."""
        cfg = json.loads(json.dumps(TINY))
        cfg["scenario"]["n_tasks"] = 3
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "never"
        rc = cli.main([command, "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        assert ("config.scenario: need 6 classes, main dataset has 4"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("key,message", [
        ("n_related", "related pool at t=1: requested 5000 of 144 available"),
        ("n_unrelated",
         "peripheral synth4x8s70 at t=1: requested 5000 of 320 available"),
    ], ids=["related", "unrelated"])
    def test_pool_larger_than_the_data_exit_2_before_any_output(
            self, tmp_path, capsys, key, message):
        """Each seed's stream is built over the built datasets before any
        write, so a pool the data cannot fill is a config error."""
        cfg = json.loads(json.dumps(TINY))
        cfg["scenario"][key] = 5000
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "never"
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        assert f"config.scenario: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method,scenario,message", [
        ("ursl", {"n_related": 0, "n_unrelated": 0},
         "step 1: the unlabeled pool is empty, and ursl trains on it"),
        ("co2l_j", {"n_related": 0, "n_unrelated": 0},
         "step 1: the unlabeled pool is empty, and co2l_j trains on it"),
        ("ursl", {"classes_per_task": 1, "labeled_fraction": 0.05,
                  "n_related": 10},
         "step 1: 1 labeled row, and segregation needs at least two"),
    ], ids=["ursl_empty_pool", "co2l_j_empty_pool", "ursl_one_labeled_row"])
    def test_untrainable_stream_exit_2_before_any_output(
            self, tmp_path, capsys, method, scenario, message):
        """A pool the method trains on that is empty, or one labeled row at
        step 1 to segregate by (20 rows per class at 5%), is a config error
        naming the seed and the step, for segregate-eval too."""
        cfg = json.loads(json.dumps(TINY))
        cfg["datasets"]["main"]["train_per_class"] = 20
        cfg["method"]["method"] = method
        cfg["scenario"].update(scenario)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "never"
        commands = ["run"] + (["segregate-eval"] if method == "ursl" else [])
        for command in commands:
            rc = cli.main([command, "--config", str(cfg_path), "--out",
                           str(out), "--seeds", "2,1"])
            assert rc == 2, command
            assert (f"config error: config.scenario: seed 2: {message}"
                    in capsys.readouterr().err), command
            assert not out.exists(), command

    @pytest.mark.parametrize("force", [[], ["--force"]],
                             ids=["plain", "force"])
    @pytest.mark.parametrize("command", ["run", "segregate-eval"])
    def test_out_naming_a_file_exit_2(self, workspace, tmp_path, capsys,
                                      command, force):
        afile = tmp_path / "afile"
        afile.write_text("kept")
        rc = cli.main([command, "--config", str(workspace["config"]),
                       "--out", str(afile), *force])
        assert rc == 2
        assert (f"config error: cannot make output directory {afile} "
                f"(File exists)") in capsys.readouterr().err
        assert afile.read_text() == "kept"
        assert os.listdir(tmp_path) == ["afile"]

    def test_unknown_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2


class TestAtomicWrites:
    @staticmethod
    def _failing_dump(obj, f, **kwargs):
        f.write('{"partial": ')
        raise RuntimeError("disk full")

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.json, "dump", self._failing_dump)
        with pytest.raises(RuntimeError):
            cli.write_json(str(tmp_path / "metrics.json"), {"a": 1})
        assert os.listdir(tmp_path) == []

    def test_failed_rewrite_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "metrics.json")
        cli.write_json(path, {"a": 1})
        before = (tmp_path / "metrics.json").read_bytes()
        monkeypatch.setattr(cli.json, "dump", self._failing_dump)
        with pytest.raises(RuntimeError):
            cli.write_json(path, {"a": 2})
        assert os.listdir(tmp_path) == ["metrics.json"]
        assert (tmp_path / "metrics.json").read_bytes() == before

    def test_csv_bytes_and_no_temp_file_left(self, tmp_path):
        path = str(tmp_path / "t.csv")
        cli.write_csv(path, ("a", "b"), [{"a": 0.1, "b": None}])
        assert (tmp_path / "t.csv").read_bytes() == b"a,b\r\n0.1,\r\n"
        assert os.listdir(tmp_path) == ["t.csv"]


# `osscl gradcheck` stdout on the build test_trainer pins the digests on
_GRADCHECK_STDOUT = """\
ntxent: max rel err 2.367e-07 (tol 0.0001) PASS
supcon: max rel err 3.702e-08 (tol 0.0001) PASS
distill_time: max rel err 2.172e-08 (tol 0.0001) PASS
distill_reference: max rel err 2.111e-07 (tol 0.0001) PASS
combined: max rel err 8.187e-08 (tol 0.0001) PASS
mlp_embed: max rel err 9.090e-08 (tol 0.0001) PASS
gradcheck PASS
"""


class TestGradcheck:
    def test_lists_all_five_losses_and_passes(self, capsys):
        rc = cli.main(["gradcheck"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("ntxent", "supcon", "distill_time",
                     "distill_reference", "combined", "mlp_embed"):
            assert f"{name}: max rel err" in out
        assert "gradcheck PASS" in out
        build = (np.__version__, _blas_configuration(), trainer.blas_kernel())
        if build != (_PINNED_NUMPY, _PINNED_BLAS, _PINNED_KERNEL):
            pytest.skip(f"stdout pinned on the digests' build, not on numpy "
                        f"{build[0]} with {build[1]!r} running the "
                        f"{build[2]} kernel")
        assert out == _GRADCHECK_STDOUT

    def test_network_line_checks_the_trainers_step(self, monkeypatch):
        """The mlp_embed line differences the explicit step the trainers
        take, so a wrong dL/dz from losses.ntxent_grad fails it."""
        ntxent_grad = losses.ntxent_grad

        def doubled(z, tau):
            loss, dz = ntxent_grad(z, tau)
            return loss, 2 * dz

        monkeypatch.setattr(losses, "ntxent_grad", doubled)
        assert gradcheck.run_suite(1)["mlp_embed"] >= gradcheck.DEFAULT_TOL

    @pytest.mark.parametrize("owner,kernel,double,lines", [
        (losses, "ntxent_grad", lambda out: (out[0], 2 * out[1]),
         {"ntxent", "mlp_embed"}),
        (gradcheck, "softmax_xent_grad",
         lambda out: (out[0], tuple(2 * half for half in out[1])),
         {"supcon", "distill_time", "distill_reference"}),
        (losses, "learner_objective",
         lambda out: dataclasses.replace(out, grads={
             name: 2 * g for name, g in out.grads.items()}),
         {"combined"}),
    ], ids=["ntxent_grad", "softmax_xent_grad", "learner_objective"])
    def test_each_loss_line_checks_the_kernel_it_names(
            self, monkeypatch, owner, kernel, double, lines):
        """A kernel that returns a doubled dL/dz fails exactly the lines
        that difference it, and no other."""
        original = getattr(owner, kernel)
        monkeypatch.setattr(owner, kernel,
                            lambda *args, **kwargs: double(original(*args, **kwargs)))
        results = gradcheck.run_suite(1)
        assert {name for name, err in results.items()
                if err >= gradcheck.DEFAULT_TOL} == lines

    def test_the_suite_records_nothing_on_a_tape(self, monkeypatch):
        def refuse(tape):
            raise AssertionError("gradcheck entered a tape")

        monkeypatch.setattr(nc.Tape, "__enter__", refuse)
        assert gradcheck.suite_passes(gradcheck.run_suite(1))


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

    @pytest.mark.parametrize("case", ["cifar_peripheral_size",
                                      "image_row_width"])
    def test_dataset_error_exit_2_before_any_output(self, tmp_path, capsys,
                                                    case):
        """Every dataset is built before the output directory is made, a
        synthetic main's too, whose spec already states its class count."""
        cfg = json.loads(json.dumps(TINY))
        if case == "cifar_peripheral_size":
            path = tmp_path / "peripheral.bin"
            path.write_bytes(b"\x00" * 3000)
            cfg["datasets"]["peripheral"] = [{"kind": "cifar",
                                              "train_path": str(path)}]
            expected = "config.datasets.peripheral[0]: "
        else:
            cfg["augmenter"] = {"mode": "image"}
            expected = "config.datasets.main: rows of 8 values are not "
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "never"
        rc = cli.main(["segregate-eval", "--config", str(cfg_path),
                       "--out", str(out)])
        assert rc == 2
        assert expected in capsys.readouterr().err
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

    @pytest.mark.parametrize("name,damaged,named", [
        ("aggregate.json", b'{"method": "ursl", "seg_vari', "invalid JSON"),
        ("aggregate.json", b'{"method": "ursl"}', "'seg_variant'"),
        ("config.json", b"[]", "expected an object"),
        ("config.json", b'{"name": "\xff"}', "invalid JSON"),
        ("aggregate.json", b'{"method": "co2l", "final_accuracy": '
                           b'{"mean": "x", "std": 0}}',
         "key 'mean' must be a number, not str"),
        ("aggregate.json", b'{"method": "co2l", "final_accuracy": 0.5}',
         "key 'final_accuracy' must be an object, not float"),
        ("aggregate.json", b'{"method": ["co2l"], "final_accuracy": '
                           b'{"mean": 0.5, "std": 0.1}}',
         "key 'method' must be a string, not list"),
        ("config.json", b'{"name": 5}', "key 'name' must be a string, not int")],
        ids=["truncated", "missing_key", "not_an_object", "not_utf8",
             "mean_not_a_number", "accuracy_not_an_object",
             "method_not_a_string", "name_not_a_string"])
    def test_damaged_results_dir_exit_2_naming_file_and_key(
            self, tmp_path, capsys, name, damaged, named):
        files = {"aggregate.json": {"method": "ursl", "seg_variant": "v4",
                                    "final_accuracy": {"mean": 0.5,
                                                       "std": 0.1}},
                 "config.json": {"name": "tiny"}}
        for file, content in files.items():
            (tmp_path / file).write_text(json.dumps(content))
        assert cli.main(["report", str(tmp_path)]) == 0
        capsys.readouterr()
        (tmp_path / name).write_bytes(damaged)
        assert cli.main(["report", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(tmp_path / name) in captured.err
        assert named in captured.err

    @pytest.mark.parametrize("target,reason", [
        ("adir", "Is a directory"),
        ("nodir/report.csv", "No such file or directory")],
        ids=["directory", "missing_directory"])
    def test_unwritable_out_exit_2_naming_it_before_any_output(
            self, workspace, tmp_path, capsys, target, reason):
        (tmp_path / "adir").mkdir()
        out = tmp_path / target
        rc = cli.main(["report", str(workspace["out"]), "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: cannot write {out} ({reason})\n"
        assert os.listdir(tmp_path) == ["adir"]
        assert os.listdir(tmp_path / "adir") == []

    def test_two_dirs_in_one_cell_exit_2_before_any_output(
            self, workspace, tmp_path, capsys):
        """Two results of one method row and one experiment column (here a
        copy of one run) are an error naming both, not a table where the
        last one wins."""
        twin = tmp_path / "twin"
        shutil.copytree(workspace["out"], twin)
        csv_path = tmp_path / "report.csv"
        rc = cli.main(["report", str(workspace["out"]), str(twin),
                       "--out", str(csv_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(workspace["out"]) in captured.err
        assert str(twin) in captured.err
        assert not csv_path.exists()


class TestStartup:
    def test_cli_imports_no_scipy_and_no_process_pool(self):
        """The benchmark worker's import set, in a fresh interpreter, loads
        neither scipy (about 1.2 s per process) nor concurrent.futures:
        only `run --threads N` needs its process pool, and only a run that
        feeds its batches ahead its thread pool."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        script = ("import sys; sys.path.insert(0, sys.argv[1]); "
                  "import osscl.cli, osscl.trainer; "
                  "print('\\n'.join(sorted(sys.modules)))")
        done = subprocess.run([sys.executable, "-c", script, src],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        loaded = done.stdout.split()
        assert "osscl.trainer" in loaded
        assert [m for m in loaded if m == "scipy"
                or m.startswith("scipy.")] == []
        assert "concurrent.futures.process" not in loaded
        assert "concurrent.futures" not in loaded


class TestOutDir:
    def test_out_dir_check_closes_its_scandir_iterator(self, tmp_path):
        (tmp_path / "junk.txt").write_text("old")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(config.ConfigError, match="--force"):
                cli._prepare_out_dir(str(tmp_path), force=False)
            cli._prepare_out_dir(str(tmp_path), force=True)
            gc.collect()
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == []
