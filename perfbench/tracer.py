"""Outside-in tracer: times calls into osscl's public functions from outside.

Nothing under src/ knows about it. `Tracer.install()` replaces the bindings
that callers actually look up (``losses.pairwise_cosine``, ``nets.affine``,
``trainer.backprop``, ``numcore.Adam.step``, ``scenario.Augmenter.pair_views``
and so on) with wrappers that record one span per call, and wraps every
backward closure handed to ``numcore._record`` so that per-op backward time
is a span too. `Tracer.restore()` puts the originals back.

Spans live in memory as parallel lists (name id, parent index, start, end).
A span's self time is its duration minus the durations of its direct
children. `Tracer.summary()` folds the spans into per-name totals plus the
exact work counters below, in a JSON-ready dict; `merge` adds summaries from
several processes.

Counters, all computed from operand shapes, never timed:
  tape_entries      entries appended to an active tape
  matmul_flop       2*m*n*k for every product in affine / pairwise_cosine,
                    forward and the backward closures that actually ran
  softmax_elem      logits entries through row_log_softmax forward
  views_augmented   rows produced by Augmenter.apply_batch
  samples_scored    rows scored by segregate.score
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np

from osscl import cli, config, losses, nets, numcore, scenario, segregate, trainer

NUMCORE_OPS = ("affine", "relu", "l2_normalize_rows", "pairwise_cosine",
               "row_log_softmax", "mask_fill", "mul", "add", "scale",
               "gather2d", "total_sum")

_OP_HOSTS = (numcore, nets, losses, trainer)

_FUNCTIONS = (
    (losses, ("ntxent_loss", "asym_supcon_loss", "distillation_loss",
              "similarity_distribution", "combined_loss")),
    (scenario, ("epoch_batches", "sample_batch", "build_stream",
                "load_cifar_binary")),
    (segregate, ("build_prototypes", "score", "compute_thresholds",
                 "segregate_scores", "ood_metrics")),
    (trainer, ("run_continual", "train_reference", "train_learner_task",
               "fit_classifier", "evaluate")),
    (config, ("load_experiment",)),
)

_METHODS = (
    (numcore.Adam, "step", "numcore.Adam.step"),
    (nets.EncoderProjector, "embed", "nets.EncoderProjector.embed"),
    (nets.EncoderProjector, "encoder_features", "nets.encoder_features"),
    (nets.ParamSnapshot, "embed", "nets.ParamSnapshot.embed"),
    (scenario.Augmenter, "pair_views", "scenario.pair_views"),
    (scenario.Augmenter, "apply_batch", "scenario.apply_batch"),
    (scenario.MemoryBuffer, "update", "scenario.MemoryBuffer.update"),
)

_TRAINING_LOOPS = ("trainer.train_reference", "trainer.train_learner_task")


def _forward_flop(op, args):
    if op == "affine":
        x, w = args[0], args[1]
        return 2 * x.shape[0] * x.shape[1] * w.shape[1]
    if op == "pairwise_cosine":
        a, b = args[0], args[1]
        return 2 * a.shape[0] * b.shape[0] * a.shape[1]
    return 0


def _backward_flop(op, parents):
    # affine: g @ w.T and x.T @ g; pairwise_cosine: g @ b and g.T @ a
    if op in ("affine", "pairwise_cosine"):
        return 2 * _forward_flop(op, parents)
    return 0


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self._ids = {}
        self.names = []
        self.span_name = []
        self.span_parent = []
        self.span_start = []
        self.span_end = []
        self._stack = []
        self.counters = dict.fromkeys(
            ("tape_entries", "matmul_flop", "softmax_elem",
             "views_augmented", "samples_scored"), 0)
        self._patches = []

    # spans -----------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(self, fn, name, count=None):
        """fn wrapped so each call records one span; count(args), if given,
        updates the counters before the call."""
        return functools.wraps(fn)(self._spanned(fn, self._name_id(name), count))

    def _spanned(self, fn, nid, count):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if count is not None:
                count(args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    # patching --------------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr, name, count=None):
        """Replace owner.attr (a module function or a class's method) with
        its timed version until restore()."""
        self._patch(owner, attr, self.timed(owner.__dict__[attr], name, count))

    def install(self):
        """Wrap every traced binding; idempotence is not supported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        counters = self.counters

        for op in NUMCORE_OPS:
            original = getattr(numcore, op)
            if op in ("affine", "pairwise_cosine"):
                def count(args, op=op):
                    counters["matmul_flop"] += _forward_flop(op, args)
            elif op == "row_log_softmax":
                def count(args):
                    counters["softmax_elem"] += args[0].data.size
            else:
                count = None
            wrapped = self.timed(original, f"numcore.{op}", count)
            for host in _OP_HOSTS:
                if host.__dict__.get(op) is original:
                    self._patch(host, op, wrapped)

        backprop = self.timed(numcore.backprop, "numcore.backprop")
        for host in (numcore, trainer):
            self._patch(host, "backprop", backprop)

        record = numcore._record

        def traced_record(out, parents, backward):
            if numcore._ACTIVE_TAPES and out.requires_grad:
                counters["tape_entries"] += 1
                op = backward.__qualname__.split(".", 1)[0]

                def count(args, flop=_backward_flop(op, parents)):
                    counters["matmul_flop"] += flop

                backward = self._spanned(
                    backward, self._name_id(f"numcore.{op}.bwd"), count)
            record(out, parents, backward)

        self._patch(numcore, "_record", traced_record)

        def count_views(args):
            counters["views_augmented"] += len(args[1])

        def count_scored(args):
            counters["samples_scored"] += len(args[1])

        for owner, attr, name in _METHODS:
            count = count_views if name == "scenario.apply_batch" else None
            self.wrap(owner, attr, name, count)
        for module, attrs in _FUNCTIONS:
            prefix = module.__name__.rsplit(".", 1)[-1]
            for attr in attrs:
                count = count_scored if (module, attr) == (segregate, "score") else None
                self.wrap(module, attr, f"{prefix}.{attr}", count)
        # the CLI calls load_experiment through its own binding
        self._patch(cli, "load_experiment", config.load_experiment)
        return self

    def restore(self):
        """Put every patched binding back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # summary ---------------------------------------------------------------

    def summary(self):
        """Per-name [calls, total_s, self_s], counters, and the duration of
        every optimizer step inside the two training loops."""
        n = len(self.span_start)
        name = np.asarray(self.span_name, dtype=np.int64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        start = np.asarray(self.span_start, dtype=np.float64)
        end = np.asarray(self.span_end, dtype=np.float64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        spans = {nm: [int(calls[i]), float(total[i]), float(self_s[i])]
                 for i, nm in enumerate(self.names)}

        # a step runs from the end of the previous optimizer step (or the
        # loop's start) to the end of its own Adam.step
        step_s = []
        step_id = self._ids.get("numcore.Adam.step")
        loop_ids = [self._ids[nm] for nm in _TRAINING_LOOPS if nm in self._ids]
        if step_id is not None and loop_ids:
            in_loop = np.isin(name, loop_ids)
            is_step = (name == step_id) & has_parent
            is_step[is_step] = in_loop[parent[is_step]]
            last_end = {}
            for i in np.nonzero(is_step)[0]:
                p = int(parent[i])
                step_s.append(float(end[i] - last_end.get(p, start[p])))
                last_end[p] = end[i]
        return {"spans": spans, "counters": dict(self.counters),
                "step_s": step_s}


def merge(summaries):
    """Sum span totals and counters; concatenate step durations."""
    out = {"spans": {}, "counters": {}, "step_s": []}
    for s in summaries:
        for nm, vals in s["spans"].items():
            acc = out["spans"].setdefault(nm, [0, 0.0, 0.0])
            for i, v in enumerate(vals):
                acc[i] += v
        for key, v in s["counters"].items():
            out["counters"][key] = out["counters"].get(key, 0) + v
        out["step_s"].extend(s["step_s"])
    return out


TRACE_FILE = "bench_trace.json"
_ORIGINAL_SEED_JOB = {}


def traced_seed_job(resolved, seed, seed_dir):
    """Stand-in for cli._run_seed_job that traces the job in its own worker
    process and leaves the summary next to the seed's results."""
    job = _ORIGINAL_SEED_JOB.get("fn", cli._run_seed_job)
    tracer = Tracer().install()
    try:
        metrics = job(resolved, seed, seed_dir)
    finally:
        tracer.restore()
    with open(os.path.join(seed_dir, TRACE_FILE), "w", encoding="utf-8") as f:
        json.dump(tracer.summary(), f)
    return metrics


def route_seed_jobs_through_tracer(tracer):
    """Make `osscl run` send each seed job through traced_seed_job until
    tracer.restore()."""
    _ORIGINAL_SEED_JOB["fn"] = cli._run_seed_job
    tracer._patch(cli, "_run_seed_job", traced_seed_job)
