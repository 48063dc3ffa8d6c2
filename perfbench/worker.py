"""One measured process of the benchmark; run.py launches it.

    worker.py --config C --seed S --result R [--trace] [--setup-only]
        Set up like a user would (imports, load_experiment, datasets, stream
        build), then run_continual once in this process. Writes the
        monotonic time set-up finished, the time the run finished, the seed's
        metrics digest and, with --trace, the tracer summary to R.

    worker.py --cli-result R -- <osscl cli arguments>
        `osscl run` with every seed job traced in its own worker process;
        this process traces only load_experiment and writes that to R.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f)


def run_in_process(args):
    from osscl import cli, config, scenario, trainer  # noqa: F401  (cli: the CLI's import set)
    from workloads import seed_record

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    try:
        exp = config.load_experiment(args.config)
        main, peripherals = exp.build_datasets()
        stream = scenario.build_stream(exp.scenario_config(args.seed), main,
                                       peripherals)
        out = {"ready": time.monotonic()}
        if not args.setup_only:
            report = trainer.run_continual(exp.method, stream, main,
                                           exp.augmenter, args.seed,
                                           arch=exp.arch)
            out["done"] = time.monotonic()
            out["seeds"] = {str(args.seed): seed_record(report.metrics_dict())}
            out["timings"] = [report.wall_clock]
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        out["trace"] = tracer.summary()
    _write(args.result, out)
    return 0


def run_cli_traced(result, cli_args):
    from osscl import cli
    from tracer import Tracer, route_seed_jobs_through_tracer

    tracer = Tracer()
    tracer.wrap(cli, "load_experiment", "config.load_experiment")
    route_seed_jobs_through_tracer(tracer)
    try:
        code = cli.main(cli_args)
    finally:
        tracer.restore()
    _write(result, {"trace": tracer.summary()})
    return code


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--cli-result":
        return run_cli_traced(argv[1], argv[3:])
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    return run_in_process(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
