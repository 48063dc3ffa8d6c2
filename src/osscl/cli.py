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
recovers the exact float values.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__, gradcheck
from . import scenario as sc
from . import trainer
from .config import ConfigError, from_dict, load_experiment

log = logging.getLogger("osscl.cli")

_SEG_FIELDS = ("n_unlabeled", "n_u_hat", "n_t_hat", "tau_id", "tau_pl",
               "score_mean", "score_spread", "auroc", "precision",
               "pseudo_accuracy")
# recorded in version.json as launched
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


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def write_csv(path, fieldnames, rows):
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(name)) for name in fieldnames])


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
    if os.path.isdir(out) and any(os.scandir(out)) and not force:
        raise ConfigError(
            f"output directory {out} is not empty (use --force to overwrite)")
    os.makedirs(out, exist_ok=True)


def _resolve_run(args, segregates=False):
    """Load config, apply --seeds/--out overrides, prepare the directory.

    Returns (experiment, resolved echo dict, seeds, out dir). The echo has
    the effective seeds and output_dir folded in, so feeding it back to
    `run` reproduces this invocation exactly. With segregates, a method
    that does not segregate its pool is rejected before anything is written.
    """
    exp = load_experiment(args.config)
    if segregates and not exp.method.uses_segregation:
        raise ConfigError(f"config.method.method: segregate-eval needs a method "
                          f"that segregates its pool (ursl), got "
                          f"{exp.method.method!r}")
    seeds = exp.seeds
    if args.seeds:
        try:
            seeds = tuple(int(s) for s in args.seeds.split(","))
        except ValueError:
            raise ConfigError(f"--seeds: expected comma-separated integers, "
                              f"got {args.seeds!r}")
    out = args.out or exp.output_dir
    if not out:
        raise ConfigError("no output directory: pass --out or set output_dir")
    resolved = exp.resolved()
    resolved["seeds"] = list(seeds)
    resolved["output_dir"] = out
    exp = from_dict(resolved)
    _prepare_out_dir(out, args.force)
    write_json(os.path.join(out, "config.json"), resolved)
    write_json(os.path.join(out, "version.json"), _version_stamp())
    return exp, resolved, seeds, out


def _version_stamp():
    """The package version, the numpy and BLAS builds, and the BLAS/OpenMP
    thread variables as launched (None when unset): what a float result of
    this run can depend on besides its config."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy has no mode="dicts"
        blas = {}
    return {"package": "osscl", "version": __version__,
            "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
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


def cmd_run(args):
    exp, resolved, seeds, out = _resolve_run(args)
    del exp
    jobs = [(seed, os.path.join(out, f"seed_{seed}")) for seed in seeds]
    if args.threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(args.threads,
                                                 len(jobs))) as pool:
            futures = [pool.submit(_run_seed_job, resolved, seed, seed_dir)
                       for seed, seed_dir in jobs]
            results = [f.result() for f in futures]
    else:
        results = [_run_seed_job(resolved, seed, seed_dir)
                   for seed, seed_dir in jobs]
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
    exp, resolved, seeds, out = _resolve_run(args, segregates=True)
    del resolved
    main, peripherals = exp.build_datasets()
    for seed in seeds:
        stream = sc.build_stream(exp.scenario_config(seed), main, peripherals)
        rows, samples = trainer.run_segregation_eval(
            exp.method, stream, exp.augmenter, seed, arch=exp.arch)
        seed_dir = os.path.join(out, f"seed_{seed}")
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
    agg_path = os.path.join(path, "aggregate.json")
    cfg_path = os.path.join(path, "config.json")
    if not os.path.isfile(agg_path) or not os.path.isfile(cfg_path):
        raise ConfigError(f"{path}: not a results directory "
                          "(missing aggregate.json or config.json)")
    with open(agg_path, "r", encoding="utf-8") as f:
        agg = json.load(f)
    with open(cfg_path, "r", encoding="utf-8") as f:
        cfg = json.load(f)
    row = agg["method"]
    if agg["method"] == "ursl":
        row = f"ursl/{agg['seg_variant']}"
    return row, cfg.get("name", "experiment"), agg["final_accuracy"]


def cmd_report(args):
    cells = {}
    rows, cols = [], []
    for path in args.results:
        row, col, fa = _load_result_dir(path)
        if row not in rows:
            rows.append(row)
        if col not in cols:
            cols.append(col)
        cells[(row, col)] = f"{fa['mean']:.4f} +/- {fa['std']:.4f}"
    table = [["method"] + cols]
    for row in rows:
        table.append([row] + [cells.get((row, col), "") for col in cols])
    widths = [max(len(line[i]) for line in table)
              for i in range(len(table[0]))]
    for line in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as f:
            csv.writer(f).writerows(table)
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
                       help="run seeds in up to N parallel processes")
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


def main(argv=None):
    level = getattr(logging, os.environ.get("OSSCL_LOG", "WARNING").upper(),
                    logging.WARNING)
    logging.basicConfig(level=level,
                        format="%(asctime)s %(name)s %(levelname)s "
                               "%(message)s")
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
