"""Command-line interface.

Subcommands:
  run             train an experiment config across its seeds, write results
  gradcheck       verify analytic loss gradients against finite differences
  segregate-eval  the same per-step walk as run up to pool segregation (ursl
                  only): dump per-task split metrics and per-sample scores
  report          summarize one or more results directories into a table

Exit codes: 0 success, 1 runtime failure, 2 invalid config or usage.
The OSSCL_LOG environment variable sets the logging level (DEBUG, INFO, ...).

All JSON is written with sorted keys so reruns are byte-identical; CSV
numeric fields use shortest-round-trip formatting so parsing them back
recovers the exact float values. Every file is written to a temp file in
its directory and renamed into place, so none is ever seen half-written,
and `run` writes aggregate.json only after every seed's files (a --force
rerun deletes the old one first).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import __version__, gradcheck
from . import scenario as sc
from . import trainer
from .config import (ConfigError, _read_json, check_seeds, from_dict,
                     load_experiment)

log = logging.getLogger("osscl.cli")

_SEG_FIELDS = ("n_unlabeled", "n_u_hat", "n_t_hat", "tau_id", "tau_pl",
               "score_mean", "score_spread", "auroc", "precision",
               "pseudo_accuracy")
# recorded in version.json as launched. No run is steered by them: each
# computes at one BLAS thread, and its CPU affinity decides whether it walks
# and feeds ahead (trainer._spare_core)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_THREAD_LIMIT")


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------


def _fmt(value):
    """CSV cell: floats via repr (lossless round-trip), rest as str."""
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else str(value)


def _write_atomic(path, write, newline=None):
    """Call write(f) on a temp file beside path, then rename it over path:
    a crash or error leaves either the old file or none, never a part."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as f:
            write(f)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_json(path, obj):
    def write(f):
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")
    _write_atomic(path, write)


def write_csv(path, fieldnames, rows):
    def write(f):
        writer = csv.writer(f)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(name)) for name in fieldnames])
    _write_atomic(path, write, newline="")


def _per_task_rows(metrics):
    seg_by_task = {m["task"]: m for m in metrics["task_metrics"]}
    rows = []
    for i, acc in enumerate(metrics["per_task_accuracy"]):
        row = {
            "task": i + 1,
            "classes": " ".join(str(c) for c in metrics["task_classes"][i]),
            "accuracy": float(acc),
        }
        seg = seg_by_task.get(i + 1, {})
        for name in _SEG_FIELDS:
            row[name] = seg.get(name)
        rows.append(row)
    return rows


def _aggregate(metric_dicts, seeds):
    finals = np.array([m["final_accuracy"] for m in metric_dicts])
    per_task = np.array([m["per_task_accuracy"] for m in metric_dicts])
    return {
        "method": metric_dicts[0]["method"],
        "seg_variant": metric_dicts[0]["seg_variant"],
        "seeds": list(seeds),
        "final_accuracy": {"mean": float(finals.mean()),
                           "std": float(finals.std())},
        "per_task_accuracy": {
            "mean": [float(v) for v in per_task.mean(axis=0)],
            "std": [float(v) for v in per_task.std(axis=0)],
        },
    }


# ---------------------------------------------------------------------------
# Output directory handling
# ---------------------------------------------------------------------------


def _prepare_out_dir(out, force):
    """Make out, which must be empty unless force. A forced rerun first
    deletes the old aggregate.json, so a rerun that fails does not leave a
    directory that reads as complete."""
    if os.path.isdir(out) and not force:
        with os.scandir(out) as entries:
            if any(entries):
                raise ConfigError(f"output directory {out} is not empty "
                                  "(use --force to overwrite)")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:  # a file at out or above it, say
        raise ConfigError(f"cannot make output directory {out} "
                          f"({exc.strerror})") from None
    if force:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out, "aggregate.json"))


def _resolve_run(args, segregates=False):
    """Load config, apply --seeds/--out overrides, build every dataset,
    prepare the directory.

    Returns the experiment with the effective seeds and output_dir folded
    in, whose echo, written to config.json, reproduces this invocation
    exactly when fed back to `run`, and its (main, peripherals). A dataset
    file that does not exist or that Experiment.build_datasets rejects, a
    scenario whose stream the datasets cannot fill at some seed, with
    segregates a method that does not segregate its pool, and without it a
    memory_size that leaves a class the final classifier needs with no
    exemplar at some seed are rejected before anything is written.
    """
    exp = load_experiment(args.config)
    if segregates and not exp.method.uses_segregation:
        raise ConfigError(f"config.method.method: segregate-eval needs a method "
                          f"that segregates its pool (ursl), got "
                          f"{exp.method.method!r}")
    seeds = exp.seeds
    if args.seeds is not None:
        try:
            seeds = [int(s) for s in args.seeds.split(",")]
        except ValueError:
            raise ConfigError(f"--seeds: expected comma-separated integers, "
                              f"got {args.seeds!r}")
        seeds = check_seeds(seeds, "--seeds")
    out = args.out or exp.output_dir
    if not out:
        raise ConfigError("no output directory: pass --out or set output_dir")
    for where, spec in exp.dataset_specs():
        for key in ("path", "train_path", "test_path"):
            file = getattr(spec, key, "")
            if file and not os.path.isfile(file):
                raise ConfigError(f"config.datasets.{where}.{key}: no such "
                                  f"file {file!r}")
    datasets = exp.build_datasets()
    _check_task_classes(exp, seeds, datasets, quotas=not segregates)
    exp = dataclasses.replace(exp, seeds=seeds, output_dir=out)
    _prepare_out_dir(out, args.force)
    write_json(os.path.join(out, "config.json"), exp.resolved())
    write_json(os.path.join(out, "version.json"), _version_stamp())
    return exp, datasets


def _check_task_classes(exp, seeds, datasets, quotas):
    """Each seed's stream over the built (main, peripherals), one at a time,
    failing as a ConfigError when the datasets hold too few classes or too
    few rows for its pools, where trainer.check_trainable rejects it and,
    with quotas, where trainer.check_memory_quotas rejects its class
    order."""
    for seed in seeds:
        try:
            stream = sc.build_stream(exp.scenario_config(seed), *datasets)
        except (ValueError, sc.PoolExhaustedError) as exc:
            raise ConfigError(f"config.scenario: {exc}") from None
        try:
            trainer.check_trainable(exp.method, stream)
        except ValueError as exc:
            raise ConfigError(f"config.scenario: seed {seed}: {exc}") from None
        if not quotas:
            continue
        try:
            trainer.check_memory_quotas(exp.method, stream.task_classes)
        except ValueError as exc:
            raise ConfigError(f"config.method.memory_size: seed {seed}: "
                              f"{exc}") from None


def _version_stamp():
    """The package version, the numpy and BLAS builds, the kernel the BLAS
    runs (None when unknown; trainer.blas_kernel), the BLAS thread count each
    run computes at (1, trainer._one_blas_thread, or None without numpy's
    bundled OpenBLAS thread control) and the BLAS/OpenMP thread variables as
    launched (None when unset): what a float result of this run can depend
    on besides its config."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy has no mode="dicts"
        blas = {}
    return {"package": "osscl", "version": __version__,
            "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "kernel": trainer.blas_kernel(),
                     "threads_per_run":
                         None if trainer._openblas() is None else 1},
            "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS}}


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _run_seed_job(resolved, seed, seed_dir):
    """One seed of one experiment; safe to run in a separate process."""
    exp = from_dict(resolved)
    main, peripherals = exp.build_datasets()
    stream = sc.build_stream(exp.scenario_config(seed), main, peripherals)
    report = trainer.run_continual(exp.method, stream, main, exp.augmenter,
                                   seed, arch=exp.arch)
    metrics = report.metrics_dict()
    os.makedirs(seed_dir, exist_ok=True)
    write_json(os.path.join(seed_dir, "metrics.json"), metrics)
    write_json(os.path.join(seed_dir, "timings.json"), report.wall_clock)
    write_csv(os.path.join(seed_dir, "per_task.csv"),
              ("task", "classes", "accuracy") + _SEG_FIELDS,
              _per_task_rows(metrics))
    return metrics


def _cpu_shares(cpus, workers):
    """Each worker's share of `cpus`: every workers-th CPU from the i-th.
    With at least as many CPUs as workers the shares are disjoint and cover
    `cpus`; with more workers than CPUs each share is one CPU."""
    return [cpus[i % len(cpus)::workers] for i in range(workers)]


def _pin_worker(shares):
    """Initializer of a pool worker: run on the next share that `shares`
    (a SimpleQueue) holds, where the OS can pin, with numpy's OpenBLAS pool
    at most as large as the share, and configure logging. The worker
    imported numpy, which sized that pool from the parent's affinity,
    before this runs."""
    if hasattr(os, "sched_setaffinity"):
        share = shares.get()
        os.sched_setaffinity(0, share)
        threads = trainer.blas_threads()
        if threads is not None and threads > len(share):
            trainer._openblas().scipy_openblas_set_num_threads64_(len(share))
    _configure_logging()


def _run_pool(job, jobs, workers):
    """job(*args) for each tuple `args` of jobs in `workers` spawned
    processes; the results in job order. `job` must pickle by name.

    Each worker runs on its own share of this process's CPUs (_cpu_shares),
    so a worker with one CPU walks in-process (trainer._spare_core) and no
    worker forks a walk onto a CPU another worker uses.
    """
    # imported here: loading them costs every serial start about 30 ms
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    ctx = multiprocessing.get_context("spawn")
    with contextlib.closing(ctx.SimpleQueue()) as shares, ProcessPoolExecutor(
            max_workers=workers, mp_context=ctx, initializer=_pin_worker,
            initargs=(shares,)) as pool:
        if hasattr(os, "sched_getaffinity"):
            for share in _cpu_shares(sorted(os.sched_getaffinity(0)), workers):
                shares.put(share)
        futures = [pool.submit(job, *args) for args in jobs]
        return [f.result() for f in futures]


def cmd_run(args):
    if args.threads < 1:
        raise ConfigError(f"--threads: expected an integer >= 1, "
                          f"got {args.threads}")
    # each seed job builds its own datasets: keep no copy here meanwhile
    exp = _resolve_run(args)[0]
    resolved, seeds, out = exp.resolved(), exp.seeds, exp.output_dir
    jobs = [(resolved, seed, os.path.join(out, f"seed_{seed}"))
            for seed in seeds]
    # _run_seed_job is looked up here, so that a stand-in set on this
    # module (the benchmark's tracer) runs in its place
    if args.threads > 1 and len(jobs) > 1:
        results = _run_pool(_run_seed_job, jobs, min(args.threads, len(jobs)))
    else:
        results = [_run_seed_job(*job) for job in jobs]
    for seed, metrics in zip(seeds, results):
        log.info("seed %d final accuracy %.4f", seed,
                 metrics["final_accuracy"])
        print(f"seed {seed}: final_accuracy {metrics['final_accuracy']:.4f}")
    agg = _aggregate(results, seeds)
    write_json(os.path.join(out, "aggregate.json"), agg)
    fa = agg["final_accuracy"]
    print(f"{agg['method']}: {fa['mean']:.4f} +/- {fa['std']:.4f} "
          f"({len(seeds)} seeds) -> {out}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def cmd_gradcheck(args):
    del args
    results = gradcheck.run_suite()
    ok = gradcheck.suite_passes(results)
    for name in gradcheck.LOSS_NAMES:
        err = results[name]
        status = "PASS" if err < gradcheck.DEFAULT_TOL else "FAIL"
        print(f"{name}: max rel err {err:.3e} (tol {gradcheck.DEFAULT_TOL:g})"
              f" {status}")
    print("gradcheck", "PASS" if ok else "FAIL")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# segregate-eval
# ---------------------------------------------------------------------------

_SCORE_FIELDS = ("task", "index", "score", "nearest_class", "related",
                 "true_class", "in_u_hat", "in_t_hat", "pseudo_label")


def cmd_segregate_eval(args):
    exp, (main, peripherals) = _resolve_run(args, segregates=True)
    for seed in exp.seeds:
        stream = sc.build_stream(exp.scenario_config(seed), main, peripherals)
        rows, samples = trainer.run_segregation_eval(
            exp.method, stream, exp.augmenter, seed, arch=exp.arch)
        seed_dir = os.path.join(exp.output_dir, f"seed_{seed}")
        os.makedirs(seed_dir, exist_ok=True)
        write_csv(os.path.join(seed_dir, "segregation.csv"),
                  ("task",) + _SEG_FIELDS, rows)
        write_csv(os.path.join(seed_dir, "scores.csv"), _SCORE_FIELDS,
                  samples)
        for row in rows:
            print(f"seed {seed} task {row['task']}: "
                  f"auroc {row['auroc']:.4f} precision {row['precision']:.4f}"
                  f" pl_acc {row['pseudo_accuracy']:.4f}")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _load_result_dir(path):
    """(method row, experiment column, final-accuracy cell text) of one
    results directory; a missing file, or a missing key or one of the wrong
    type, is a ConfigError naming it."""
    agg_path = os.path.join(path, "aggregate.json")
    cfg_path = os.path.join(path, "config.json")
    if not os.path.isfile(agg_path) or not os.path.isfile(cfg_path):
        raise ConfigError(f"{path}: not a results directory "
                          "(missing aggregate.json or config.json)")
    agg, cfg = _read_json(agg_path), _read_json(cfg_path)
    for file, data in ((agg_path, agg), (cfg_path, cfg)):
        if not isinstance(data, dict):
            raise ConfigError(f"{file}: expected an object")

    def read(file, data, key, kind, what):
        if key not in data:
            raise ConfigError(f"{file}: missing key {key!r}")
        value = data[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ConfigError(f"{file}: key {key!r} must be {what}, "
                              f"not {type(value).__name__}")
        return value

    row = read(agg_path, agg, "method", str, "a string")
    if row == "ursl":
        row = f"ursl/{read(agg_path, agg, 'seg_variant', str, 'a string')}"
    fa = read(agg_path, agg, "final_accuracy", dict, "an object")
    mean, std = (read(agg_path, fa, key, (int, float), "a number")
                 for key in ("mean", "std"))
    col = (read(cfg_path, cfg, "name", str, "a string") if "name" in cfg
           else "experiment")
    return row, col, f"{mean:.4f} +/- {std:.4f}"


def cmd_report(args):
    cells = {}  # (row, col) -> (path, text), in the order of args.results
    for path in args.results:
        row, col, text = _load_result_dir(path)
        if (row, col) in cells:
            raise ConfigError(f"{cells[row, col][0]} and {path} both fill the "
                              f"cell of method {row!r}, experiment {col!r}")
        cells[row, col] = path, text
    rows = list(dict.fromkeys(row for row, _ in cells))
    cols = list(dict.fromkeys(col for _, col in cells))
    table = [["method"] + cols]
    for row in rows:
        table.append([row] + [cells.get((row, col), ("", ""))[1]
                              for col in cols])
    widths = [max(len(line[i]) for line in table)
              for i in range(len(table[0]))]
    for line in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
    if args.out:
        _write_atomic(args.out, lambda f: csv.writer(f).writerows(table),
                      newline="")
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="osscl",
        description="Open-set semi-supervised continual learning runner.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="train an experiment across seeds")
    run_p.add_argument("--config", required=True, help="experiment JSON file")
    run_p.add_argument("--out", help="output directory (overrides config)")
    run_p.add_argument("--force", action="store_true",
                       help="allow writing into a non-empty directory")
    run_p.add_argument("--seeds", help="comma-separated seed override")
    run_p.add_argument("--threads", type=int, default=1,
                       help="run seeds in up to N parallel processes, "
                            "each on its own share of the CPUs; a worker "
                            "with one CPU walks in-process (every run "
                            "computes at one BLAS thread)")
    run_p.set_defaults(func=cmd_run)

    grad_p = sub.add_parser("gradcheck",
                            help="finite-difference check of all losses")
    grad_p.set_defaults(func=cmd_gradcheck)

    seg_p = sub.add_parser("segregate-eval",
                           help="run's walk up to segregation, dump scores "
                                "(ursl only)")
    seg_p.add_argument("--config", required=True)
    seg_p.add_argument("--out", help="output directory (overrides config)")
    seg_p.add_argument("--force", action="store_true")
    seg_p.add_argument("--seeds", help="comma-separated seed override")
    seg_p.set_defaults(func=cmd_segregate_eval)

    rep_p = sub.add_parser("report",
                           help="tabulate one or more results directories")
    rep_p.add_argument("results", nargs="+",
                       help="directories written by `osscl run`")
    rep_p.add_argument("--out", help="also write the table as CSV here")
    rep_p.set_defaults(func=cmd_report)
    return parser


def _configure_logging():
    """Log at the level OSSCL_LOG names (WARNING by default)."""
    level = getattr(logging, os.environ.get("OSSCL_LOG", "WARNING").upper(),
                    logging.WARNING)
    logging.basicConfig(level=level,
                        format="%(asctime)s %(name)s %(levelname)s "
                               "%(message)s")


def main(argv=None):
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.exception("run failed")
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
