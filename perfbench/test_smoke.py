"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload runs and prints every declared metric with its
unit, that tracing leaves the metrics digest byte-identical, that a failing
seed run is counted rather than raised, and that the benchmark refuses to run
without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, build_config, seed_record  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    table = {line.split()[0]: line.split()[-1] for line in lines[:-1]
             if line.startswith("  ")}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert table[m["name"]] == m["unit"]
    if not trace:
        assert table["final_accuracy"] == table["failed_frac"] == "fraction"


def test_tracing_changes_no_metrics_byte(tmp_path):
    from osscl import config, losses, numcore, scenario, trainer

    path, (seed,) = build_config("desk_vector", 5, str(tmp_path), tiny=True)
    exp = config.load_experiment(path)
    main, peripherals = exp.build_datasets()

    def digest():
        stream = scenario.build_stream(exp.scenario_config(seed), main,
                                       peripherals)
        report = trainer.run_continual(exp.method, stream, main,
                                       exp.augmenter, seed, arch=exp.arch)
        return seed_record(report.metrics_dict())["digest"]

    plain = digest()
    tracer = Tracer().install()
    try:
        traced = digest()
    finally:
        tracer.restore()
    assert traced == plain
    summary = tracer.summary()
    assert summary["spans"]["trainer.run_continual"][0] == 1
    assert summary["counters"]["tape_entries"] > 0
    assert losses.pairwise_cosine is numcore.pairwise_cosine
    assert numcore.Adam.step.__name__ == "step"
    assert not hasattr(numcore.Adam.step, "__wrapped__")


def test_failing_or_mismatched_seed_runs_are_counted():
    good = {"digest": "a", "finite": True, "final_accuracy": 0.5,
            "final_auroc": 0.5}
    rounds = [
        run.Round(wall_s=1.0, peak_rss_mb=1.0, expected=[1, 2],
                  seeds={1: good, 2: good}),
        run.Round(wall_s=1.0, peak_rss_mb=1.0, expected=[1, 2],
                  seeds={1: dict(good, digest="b")}, error="seed 2: missing"),
        run.Round(wall_s=1.0, peak_rss_mb=1.0, expected=[1, 2],
                  seeds={1: good, 2: dict(good, finite=False)}),
    ]
    attempted, failed, problems = run.check(rounds)
    assert (attempted, failed) == (6, 3)
    assert any("digest" in p for p in problems)


def test_crashing_worker_becomes_a_failed_round():
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench"))
    try:
        bench = run.Bench("desk_vector", os.path.join(workdir, "absent.json"),
                          [1], workdir, deadline=time.monotonic() + 60)
        rnd = bench.round()
    finally:
        shutil.rmtree(workdir)
    assert rnd.error.startswith("exit 1")
    assert run.check([rnd])[1] == 1


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "desk_vector", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
