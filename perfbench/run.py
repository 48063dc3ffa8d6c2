"""osscl benchmark: one command per workload, end-to-end or traced.

    python3 perfbench/run.py --workload {desk_vector,image_cifar,sweep_cli}
        --seed N --seconds S --trace {0,1}

Run from the repository root. BENCHMARK.json declares the workloads the
benchmark keeps (sweep_cli is runnable but undeclared, see workloads.py) and
the metric names, units and bounds; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. The full
result, with the machine fingerprint and every round, goes to
.perfbench/results/.

Every measured process is a fresh interpreter launched with the BLAS/OpenMP
thread variables removed from its environment, as in a user's default shell.
They are never pinned: sweep_cli must keep showing what `--threads N` does
when each worker also runs a multi-threaded BLAS.

--trace 0 measures the end-to-end metrics with tracing off:
  * a few set-up probes (imports, load_experiment, datasets, build_stream,
    then exit) and then the workload's planned rounds (workloads.ROUNDS),
    fewer if they would not fit in --seconds; at least one round;
  * wall_s, peak_rss_mb: median over rounds; setup_s: median over every
    set-up measured (probes and in-process rounds);
  * final_auroc, and final_accuracy (printed, not declared): mean over the
    seeds the rounds ran.
--trace 1 runs one untraced and one traced round of the same seed(s) and
reports the per-layer metrics; tracing_overhead_s is their wall_s difference,
so it carries the run-to-run noise of one round (a second or two on
desk_vector) and can read negative.

A seed run counts as failed when its process exits non-zero, it leaves no
metrics, a metric is non-finite or out of range, or its metrics digest
differs from an earlier run of the same seed in this invocation (so a traced
round must reproduce the untraced one byte for byte). Failures are counted in
`failed` (failed_frac = failed / attempted), never raised.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from workloads import ROUNDS, WORKLOADS, build_config, seed_record  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_THREAD_LIMIT")
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0
PHASES = ("reference", "segregation", "learner", "memory", "classifier",
          "evaluate")
# printed with the end-to-end metrics but not declared in BENCHMARK.json:
# final_accuracy spreads 20-70% across seeds at these run lengths, beyond any
# allowed bound, and failed_frac is 0 on a healthy tree (it is the JSON's
# failed / attempted)
REPORTED_ONLY = {"final_accuracy": "fraction", "failed_frac": "fraction"}


# ---------------------------------------------------------------------------
# Machine fingerprint
# ---------------------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def fingerprint():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "thread_vars_as_launched": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_vars_in_workloads": "all unset",
        "git_commit": _git_commit(),
    }


def child_env(workdir):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env["TMPDIR"] = workdir
    return env


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def _tree_rss_mb(pid):
    """Resident MB of pid and all its descendants, read from /proc."""
    total_kb, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/status", encoding="utf-8") as f:
                for line in f:
                    if line.startswith("VmRSS:"):
                        total_kb += int(line.split()[1])
                        break
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children", encoding="utf-8") as f:
                    todo.extend(int(c) for c in f.read().split())
        except (OSError, ValueError):
            continue
    return total_kb / 1024.0


def _signal_group(pgid, sig):
    try:
        os.killpg(pgid, sig)
        return True
    except ProcessLookupError:
        return False


@dataclass
class Child:
    returncode: int
    start: float
    end: float
    peak_rss_mb: float
    stderr: str


def run_child(cmd, workdir, timeout, sample_tree=False):
    """Run cmd in its own session; wait for it and everything it started.

    peak_rss_mb is the kernel's peak RSS of the largest single process, or,
    with sample_tree, the larger of that and the sampled (every 50 ms) sum
    over the whole process tree. Temporary files stay inside workdir.
    """
    with tempfile.TemporaryFile(dir=workdir) as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(workdir),
                                stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        peak = [0.0]
        done = threading.Event()

        def sample():
            while not done.wait(0.05):
                peak[0] = max(peak[0], _tree_rss_mb(proc.pid))

        sampler = threading.Thread(target=sample, daemon=True)
        if sample_tree:
            sampler.start()
        killer = threading.Timer(timeout, _signal_group,
                                 (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            end = time.monotonic()
            killer.cancel()
            done.set()
            if sample_tree:
                sampler.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        # a crashed parent can leave pool workers behind: stop and outlive them
        if _signal_group(proc.pid, signal.SIGKILL):
            give_up = time.monotonic() + 10.0
            while _signal_group(proc.pid, 0) and time.monotonic() < give_up:
                time.sleep(0.05)
        err.seek(0)
        tail = err.read()[-4000:].decode(errors="replace")
    return Child(proc.returncode, start, end,
                 max(usage.ru_maxrss / 1024.0, peak[0]), tail)


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


@dataclass
class Round:
    """One measured process (or CLI invocation) and what it produced."""

    wall_s: float
    peak_rss_mb: float
    setup_s: float | None = None
    expected: list = field(default_factory=list)
    seeds: dict = field(default_factory=dict)
    timings: list = field(default_factory=list)
    trace: dict | None = None
    error: str = ""


def _read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


class Bench:
    """Launches the rounds of one workload on one generated config."""

    def __init__(self, workload, config_path, seeds, workdir, deadline):
        self.workload = workload
        self.config_path = config_path
        self.seeds = seeds
        self.workdir = workdir
        self.deadline = deadline
        # in-process workloads run one seed job at a time
        self.workers = (min(len(os.sched_getaffinity(0)), len(seeds))
                        if workload == "sweep_cli" else 1)
        self._count = 0

    def _path(self, stem):
        self._count += 1
        return os.path.join(self.workdir, f"{stem}{self._count}")

    def _timeout(self):
        return max(1.0, self.deadline - time.monotonic())

    def _worker(self, seed, traced=False, setup_only=False):
        result = self._path("result") + ".json"
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--config", self.config_path, "--seed", str(seed),
               "--result", result]
        cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
        child = run_child(cmd, self.workdir, self._timeout())
        expected = [] if setup_only else [seed]
        if child.returncode != 0 or not os.path.isfile(result):
            return Round(wall_s=child.end - child.start,
                         peak_rss_mb=child.peak_rss_mb, expected=expected,
                         error=f"exit {child.returncode}: {child.stderr.strip()}")
        data = _read_json(result)
        return Round(wall_s=data.get("done", data["ready"]) - data["ready"],
                     peak_rss_mb=child.peak_rss_mb, expected=expected,
                     setup_s=data["ready"] - child.start,
                     seeds={int(s): r for s, r in data.get("seeds", {}).items()},
                     timings=data.get("timings", []), trace=data.get("trace"))

    def setup_probe(self):
        return self._worker(self.seeds[0], setup_only=True)

    def round(self, index=0, traced=False):
        """Round `index`: an in-process workload runs seed index mod the seed
        count, so its rounds cover every seed; sweep_cli runs all seeds."""
        if self.workload != "sweep_cli":
            return self._worker(self.seeds[index % len(self.seeds)], traced)
        out = self._path("out")
        args = ["run", "--config", self.config_path, "--out", out,
                "--threads", str(self.workers)]
        trace_path = self._path("cli_trace") + ".json"
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "worker.py"),
                   "--cli-result", trace_path, "--"] + args
        else:
            cmd = [sys.executable, "-m", "osscl.cli"] + args
        child = run_child(cmd, self.workdir, self._timeout(), sample_tree=True)
        rnd = Round(wall_s=child.end - child.start,
                    peak_rss_mb=child.peak_rss_mb, expected=list(self.seeds))
        if child.returncode != 0:
            rnd.error = f"exit {child.returncode}: {child.stderr.strip()}"
        traces = []
        for seed in self.seeds:
            seed_dir = os.path.join(out, f"seed_{seed}")
            try:
                rnd.seeds[seed] = seed_record(
                    _read_json(os.path.join(seed_dir, "metrics.json")))
                rnd.timings.append(
                    _read_json(os.path.join(seed_dir, "timings.json")))
                if traced:
                    traces.append(_read_json(os.path.join(seed_dir, "bench_trace.json")))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                rnd.seeds.pop(seed, None)
                rnd.error = rnd.error or f"seed {seed}: {exc!r}"
        if traced and os.path.isfile(trace_path):
            from tracer import merge

            rnd.trace = merge([_read_json(trace_path)["trace"]] + traces)
        return rnd


def measure(bench, seconds, traced):
    """(rounds, setup probes). Traced: one plain and one traced round."""
    if traced:
        return [bench.round(), bench.round(traced=True)], []
    start = time.monotonic()
    probes = [bench.setup_probe() for _ in range(SETUP_PROBES)]
    rounds, durations = [], []
    # A fixed plan, cut short only when the next round would overrun
    # --seconds: a round count that followed the machine's speed would
    # select fast runs for more rounds and bias the median.
    while len(rounds) < ROUNDS[bench.workload]:
        t0 = time.monotonic()
        rounds.append(bench.round(len(rounds)))
        now = time.monotonic()
        durations.append(now - t0)
        if (now - start + statistics.median(durations) > seconds
                or now + max(durations) > bench.deadline):
            break
    return rounds, probes


def check(rounds):
    """(attempted, failed, problems) over every seed run of every round."""
    attempted, failed, problems, reference = 0, 0, [], {}
    for i, rnd in enumerate(rounds):
        for seed in rnd.expected:
            attempted += 1
            rec = rnd.seeds.get(seed)
            if rec is None:
                why = rnd.error or "no metrics"
            elif not rec["finite"]:
                why = "non-finite metrics"
            elif not (0.0 <= rec["final_accuracy"] <= 1.0
                      and 0.0 <= rec["final_auroc"] <= 1.0):
                why = "accuracy or auroc outside [0, 1]"
            elif reference.setdefault(seed, rec["digest"]) != rec["digest"]:
                why = "metrics digest differs from an earlier run of this seed"
            else:
                continue
            failed += 1
            problems.append(f"round {i} seed {seed}: {why}")
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _seed_mean(rounds, key):
    """Mean over the seeds run of each seed's first finite value (0.0 if
    none)."""
    first = {}
    for rnd in rounds:
        for seed, rec in rnd.seeds.items():
            if rec["finite"]:
                first.setdefault(seed, rec[key])
    return statistics.fmean(first.values()) if first else 0.0


def end_to_end(rounds, probes):
    good = [r for r in rounds if not r.error] or rounds
    setups = [r.setup_s for r in probes + rounds if r.setup_s is not None]
    return {
        "wall_s": statistics.median(r.wall_s for r in good),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in good),
        "final_accuracy": _seed_mean(rounds, "final_accuracy"),
        "final_auroc": _seed_mean(rounds, "final_auroc"),
    }


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer(names, plain, traced, workers):
    """Per-layer metrics named in BENCHMARK.json from a plain/traced pair.

    Span-derived names follow `<span>.calls`, `<span>.s` (inclusive seconds),
    `numcore.<op>.fwd_s` / `.bwd_s` and `numcore.backprop.self_s`. Phase and
    seed-job numbers come from the plain round's RunReport timings. The
    step_ms percentiles are taken over trainer.steps samples.
    """
    trace = traced.trace or {"spans": {}, "counters": {}, "step_s": []}
    spans, counters, steps = trace["spans"], trace["counters"], trace["step_s"]

    def span(name, i):
        return spans.get(name, [0, 0.0, 0.0])[i]

    jobs = [t["total"] for t in plain.timings]
    bwd_run = sum(v[0] for k, v in spans.items() if k.endswith(".bwd"))
    special = {
        "numcore.tape_entries": counters.get("tape_entries", 0),
        "numcore.backward_useful_frac":
            bwd_run / counters["tape_entries"] if counters.get("tape_entries") else 0.0,
        "numcore.matmul_gflop": counters.get("matmul_flop", 0) / 1e9,
        "numcore.softmax_melem": counters.get("softmax_elem", 0) / 1e6,
        "scenario.views_augmented": counters.get("views_augmented", 0),
        "segregate.samples_scored": counters.get("samples_scored", 0),
        "trainer.steps": len(steps),
        "trainer.step_ms.p50": 1e3 * _percentile(steps, 0.50),
        "trainer.step_ms.p99": 1e3 * _percentile(steps, 0.99),
        "trainer.self_s": sum(v[2] for k, v in spans.items()
                              if k.startswith("trainer.")),
        "cli.seed_job.p50_s": statistics.median(jobs) if jobs else 0.0,
        "cli.seed_job.max_s": max(jobs, default=0.0),
        "cli.parallel_efficiency":
            sum(jobs) / (plain.wall_s * workers) if plain.wall_s > 0 else 0.0,
        "tracing_overhead_s": traced.wall_s - plain.wall_s,
    }
    for phase in PHASES:
        special[f"trainer.phase.{phase}_s"] = sum(t.get(phase, 0.0)
                                                  for t in plain.timings)
    out = {}
    for name in names:
        base, _, kind = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif kind == "calls":
            out[name] = span(base, 0)
        elif kind in ("s", "fwd_s"):
            out[name] = span(base, 1)
        elif kind == "bwd_s":
            out[name] = span(base + ".bwd", 1)
        elif kind == "self_s":
            out[name] = span(base, 2)
        else:
            raise KeyError(f"no rule derives per-layer metric {name!r}")
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one osscl benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; the numbers mean nothing")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 31:
        parser.error("--seed must be in [0, 2**31)")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "osscl", "__init__.py")):
        print(f"perfbench: no osscl sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + RUN_LIMIT_S
    machine = fingerprint()
    bench_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(os.path.join(bench_dir, "results"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=bench_dir)
    try:
        config_path, seeds = build_config(args.workload, args.seed, workdir,
                                          tiny=args.tiny)
        bench = Bench(args.workload, config_path, seeds, workdir, deadline)
        rounds, probes = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, problems = check(rounds)
    if args.trace:
        values = per_layer([m["name"] for m in declared], rounds[0], rounds[1],
                           bench.workers)
    else:
        values = end_to_end(rounds, probes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
              "fingerprint": machine, "seeds": seeds, "problems": problems,
              "rounds": [vars(r) for r in rounds],
              "setup_probes": [r.setup_s for r in probes],
              "metrics": metrics}
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            f"{'-tiny' * args.tiny}.json")
    with open(os.path.join(bench_dir, "results", name), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("fingerprint " + json.dumps(machine, sort_keys=True))
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{len(probes)} set-up probes, seeds {seeds}")
    units = dict(REPORTED_ONLY, **{m["name"]: m["unit"] for m in declared})
    values["failed_frac"] = failed / attempted
    for name, value in values.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
