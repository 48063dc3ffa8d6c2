"""Continual-learning orchestration: the dual-network method and its baselines.

One run walks the task stream once. Per step the unsupervised reference
trains on the raw unlabeled pool, prototypes segregate that pool, and the
supervised learner trains on the labeled-plus-segregated data with the
combined objective (supervised contrastive, past-self distillation,
reference distillation). After the last step a linear classifier is fitted
on the final labeled data and evaluated class-incrementally.

Each piece of run state has one owner. The private walk (_TaskWalk) owns
the reference side (the reference, the memory buffer, the reference,
prototype and memory RNGs, and its records); per step it trains the
reference, segregates the pool and, after its caller's work, updates
memory. run_continual owns the learner side (the learner, its training RNG
and the classifier's RNGs) and trains the learner on each walk step.
run_segregation_eval adds only per-sample score rows, so the split it
reports is the split the run feeds its learner.

Both run at one OpenBLAS thread from entry to exit (_one_blas_thread): on
some kernels (Haswell, Zen) gemm bytes move with the thread count, and at
these sizes a second thread buys no wall time.

The walk never reads learner state, so run_continual can run it ahead of
the learner (_walk_feed): a child process started by os.fork iterates the
walk and writes into a pipe one pickle record per step (its labeled union,
segregation pass and reference parameters), then one of the rest of what
the walk owns (_WALK_HANDBACK, its phase clock too), so it trains the
reference for step t+1 while this process trains the learner for step t; a
write blocks while the pipe is full, which keeps it about one step ahead.
It does so when the reference trains after step 1
(_TaskWalk.trains_reference), os.fork exists, this process runs no other
thread and its CPU affinity holds more than one CPU (_spare_core): a spare
core. The child inherits the one BLAS thread, and leaves only through
os._exit; on the way out, by error or not, this process sends it SIGTERM
and reaps it. Otherwise the walk runs in-process, so `taskset -c 0`, a
single-core machine and a `run --threads N` worker pinned to one CPU stay
serial; the BLAS/OpenMP thread variables play no part. It is a process and
not a thread because a walk step trains the reference, whose forward and
backward are small numpy ops that hold the GIL.

Each trainer's optimizer step is two parts (_optimize): prepare(idx) makes
the batch's inputs (the batch draws, the augmented views and the frozen
teachers' embeddings of them), which read no trained parameter, and
train(inputs) takes the explicit step, with no tape: the net's embeddings
and their caches (EncoderProjector.forward), the loss and dL/dz per
embedding (L.ntxent_grad, L.learner_objective), the MLP backward of each
into one flat gradient (numcore.mlp_backward), then Adam. In image mode
with a spare core (_feeds_ahead) a one-worker ThreadPoolExecutor, its
thread named "osscl-feed", runs the prepare side ahead (_fed_ahead), in
the walk's process and in the learner's alike. A window of _FEED_DEPTH + 1
submitted batches bounds how far ahead it runs; leaving the loop cancels
what has not started and joins the thread, so it is no daemon thread and
never outlives its trainer. Image preparation is mostly array work that
releases the GIL (np.take, the views' colour maps as one batched matmul,
the teachers' BLAS products), so it overlaps the training. Its GIL-bound
part, the parameter draws, is ten whole-batch Generator calls per view and
the composition of the colour maps (scenario.Augmenter), so little of it
contends with the training thread. The time a trainer waits for its
feeder is the phase `reference_feed_wait` or `learner_feed_wait` of
timings.json. The feeder shares nothing with the training but the queue of
prepared batches, and only it draws the trainer's Generator while the
trainer runs. The teachers it embeds with are frozen for the whole
_optimize call: the past learner is a read-only snapshot, and the
reference changes only after _optimize returns and its feeder is joined
(by _mirror's np.copyto when the walk runs ahead, by the walk's own
training when it runs in-process). Once the views' colour maps made image
preparation cheap, moving the teachers there shortened the learner phase
(image_cifar: 0.74 -> 0.62 s median per seed run, with the maps). Their
similarity targets (L.similarity_distribution) stay with the training: a
prototype that moved them to the feeder too made the learner wait longer
for it (0.07 -> 0.12 s of learner_feed_wait on one image seed). Vector
mode stays inline: its steps are about a millisecond of small GIL-holding
numpy calls, and feeding them ahead made the desk_vector benchmark slower
(2 of 6 pairs won, median 4.98 -> 5.20 s on a 2-core VM).

Determinism: every stochastic role draws from its own seeded Generator, so
disabling a component (a loss term, the confident set) leaves the remaining
streams untouched. Two runs with the same config and seed are bitwise equal,
however they are launched: whatever the BLAS thread count, whether the walk
ran ahead or not and whether batches were fed ahead or not (the feeder
draws each trainer's Generator in the inline order, and only it draws it
while the trainer runs).
"""

from __future__ import annotations

import collections
import contextlib
import functools
import logging
import math
import os
import pickle
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from . import losses as L
from . import scenario as sc
from . import segregate as sg
from .nets import EncoderProjector, LinearClassifier
from .numcore import (Adam, NonFiniteError, Tape, backprop, gather2d,
                      mlp_backward, row_log_softmax, scale, total_sum)

log = logging.getLogger(__name__)

METHODS = ("ursl", "co2l", "co2l_j", "co2l_p")
SEG_VARIANTS = ("v1", "v2", "v3", "v4")

_ROLE_REF_INIT = 1
_ROLE_LEARNER_INIT = 2
_ROLE_CLS_INIT = 3
_ROLE_REF_TRAIN = 4
_ROLE_LEARNER_TRAIN = 5
_ROLE_PROTO = 6
_ROLE_MEMORY = 7
_ROLE_CLS_TRAIN = 8


def role_rng(seed, role):
    """Independent stream per stochastic role; disabling one component never
    shifts another's draws."""
    return np.random.default_rng([int(seed), int(role)])


@dataclass(frozen=True)
class NetArch:
    """Encoder/projector widths shared by reference and learner.

    Every width is checked here (at least one hidden layer, each width >= 1),
    so a config's `arch` section and a direct construction fail alike.
    """

    hidden: tuple = (64, 64)
    proj_hidden: int = 32
    embed_dim: int = 16

    def __post_init__(self):
        if not self.hidden or min(self.hidden) < 1:
            raise ValueError(f"hidden must be a non-empty list of widths "
                             f">= 1, got {list(self.hidden)}")
        for name in ("proj_hidden", "embed_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class MethodConfig:
    """Everything that defines a method run apart from the scenario.

    method picks the training recipe; the use_* flags carve loss terms out of
    the full objective; seg_variant remaps which pools feed the supervised
    batch (with its distillation of the past learner) and the reference
    distillation batch:
        v1 = (T+M;   T+M+U)     v2 = (T+M;   T+M+U_hat)
        v3 = (T+M+T_hat; T+M+U) v4 = (T+M+T_hat; T+M+U_hat)
    pretrain_reference trains the reference once on all pools up front and
    freezes it. use_kd, when not given (None), resolves to whether the
    method has a live reference to distill from (ursl); only ursl may set
    it true. Epoch defaults are desk scale; full-scale values are
    epochs_first=400, epochs_later=100, epochs_learner=200, batch 512.

    A config's `method` section holds these fields with these defaults;
    every range and cross-field rule is checked in __post_init__.
    """

    method: str = "ursl"
    seg_variant: str = "v4"
    use_sup: bool = True
    use_td: bool = True
    use_kd: bool | None = None
    pretrain_reference: bool = False
    pseudo_anchor: bool = False
    pseudo_positive: bool = True
    weights: L.LossWeights = field(default_factory=L.LossWeights)
    eta_id: float = -4.0
    eta_pl: float = -2.0
    spread_mode: str = "variance"
    n_aug: int = 2
    memory_size: int = 48
    memory_policy: str = "random"
    epochs_first: int = 100
    epochs_later: int = 25
    epochs_learner: int = 50
    batch_size: int = 128
    lr: float = 0.01
    min_lr: float = 1e-4
    classifier_epochs: int = 100
    classifier_lr: float = 1e-3
    classifier_batch: int = 128

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.seg_variant not in SEG_VARIANTS:
            raise ValueError(f"seg_variant must be one of {SEG_VARIANTS}")
        if self.spread_mode not in sg.SPREAD_MODES:
            raise ValueError(f"spread_mode must be one of {sg.SPREAD_MODES}")
        if self.memory_policy not in sc.MEMORY_POLICIES:
            raise ValueError(f"memory_policy must be one of {sc.MEMORY_POLICIES}")
        if self.use_kd is None:
            object.__setattr__(self, "use_kd", self.method == "ursl")
        if self.method != "ursl":
            # only the full method has a live reference to distill from
            if self.use_kd:
                raise ValueError("use_kd applies to ursl only")
            if self.pretrain_reference:
                raise ValueError("pretrain_reference applies to ursl only")
            if self.memory_policy != "random":
                raise ValueError(
                    "confidence-ranked memory needs the reference; use random")
        if not (self.use_sup or self.use_td or self.use_kd
                or self.method == "co2l_j"):
            raise ValueError("at least one loss term must be enabled")
        for name in ("epochs_first", "epochs_later", "epochs_learner",
                     "classifier_epochs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.batch_size < 1 or self.classifier_batch < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.n_aug < 1:
            raise ValueError("n_aug must be >= 1")
        if self.memory_size < 0:
            raise ValueError("memory_size must be >= 0")
        if not 0 <= self.min_lr <= self.lr:  # NaN fails too
            raise ValueError("min_lr must be in [0, lr]")
        for name in ("lr", "classifier_lr"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name} must be > 0")
        for name in ("eta_id", "eta_pl", "lr", "classifier_lr"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def uses_reference(self):
        return self.method in ("ursl", "co2l_p")

    @property
    def uses_segregation(self):
        return self.method == "ursl"


@dataclass
class RunState:
    """A run's final state, gathered once after the last step: the walk's
    reference (or None), memory and `rngs` (ref, proto, memory), and
    run_continual's learner."""

    reference: EncoderProjector | None
    learner: EncoderProjector | None
    memory: sc.MemoryBuffer
    rngs: dict


@dataclass
class RunReport:
    """Everything one run reports.

    metrics_dict() holds only deterministic values (the rerun contract);
    wall_clock and the final networks and memory (RunState) stay separate.
    wall_clock holds seconds per phase (see _PhaseClock) from the walk's
    clock and run_continual's, with `total` and `walk_wait`, the time the
    learner side spent blocked on the walk. When batches are fed ahead
    (_feeds_ahead), `reference_feed_wait` (walk clock) and
    `learner_feed_wait` (run_continual's) hold the part of `reference` and
    of `learner` that the trainer spent blocked on its feeder thread. Both
    need a spare core: a CPU affinity of more than one CPU. When the walk
    runs ahead (see the module docstring) its phases (reference,
    segregation, memory) overlap `learner`, so the phases can sum to more
    than `total`.
    """

    method: str
    seg_variant: str
    seed: int
    n_tasks: int
    task_class_sets: list
    per_task_accuracy: list
    final_accuracy: float
    task_metrics: list
    loss_curves: dict
    memory_counts: list
    wall_clock: dict
    state: RunState | None = field(default=None, repr=False, compare=False)

    def metrics_dict(self):
        return {
            "method": self.method,
            "seg_variant": self.seg_variant,
            "seed": self.seed,
            "n_tasks": self.n_tasks,
            "task_classes": [list(c) for c in self.task_class_sets],
            "per_task_accuracy": [float(a) for a in self.per_task_accuracy],
            "final_accuracy": float(self.final_accuracy),
            "task_metrics": self.task_metrics,
            "loss_curves": self.loss_curves,
            "memory_counts": self.memory_counts,
        }


class _PhaseClock:
    """Accumulates wall-clock seconds per named phase.

    The walk and run_continual keep one each. A walk that runs ahead hands
    its clock back with the rest of its state; its phases overlap the
    learner's, so the phases of one run can sum to more than its wall time.
    """

    def __init__(self):
        self.totals = {}

    def add(self, name, seconds):
        self.totals[name] = self.totals.get(name, 0.0) + seconds

    @contextlib.contextmanager
    def timed(self, name):
        """Add the seconds spent in the with-block to phase `name`."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Phase trainers
# ---------------------------------------------------------------------------


def _require_finite(where, what, array):
    if not np.isfinite(array).all():
        raise NonFiniteError(f"{where}: non-finite {what}")


@contextlib.contextmanager
def _named(at):
    """Raise a NonFiniteError from the with-block again with `at` in front."""
    try:
        yield
    except NonFiniteError as exc:
        raise NonFiniteError(f"{at}: {exc}") from exc


def _feed(n, epochs, cfg, rng, prepare, where):
    """(epoch, label, prepare(idx)) per batch of sc.epoch_batches(n) for
    `epochs` epochs, drawing each epoch's order and then each batch's inputs
    from rng. A NonFiniteError from prepare is named by the label."""
    for epoch in range(epochs):
        for batch, idx in enumerate(sc.epoch_batches(n, cfg.batch_size, rng)):
            at = f"{where}, epoch {epoch}, batch {batch}"
            with _named(at):
                prepared = prepare(idx)
            yield epoch, at, prepared


# the feeder runs up to _FEED_DEPTH + 1 batches ahead of the one in training
_FEED_DEPTH = 2
_FEED_END = object()


def _feeds_ahead(augmenter):
    """Whether a run's trainers prepare batches on a feeder thread
    (_fed_ahead): image-mode augmentation and a spare core; see the module
    docstring."""
    return augmenter.mode == "image" and _spare_core()


def _spare_core():
    """Whether this process may run on more than one CPU, per its affinity.
    An OS without sched_getaffinity counts as one CPU, so a run there never
    oversubscribes."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


@contextlib.contextmanager
def _fed_ahead(items):
    """An iterator over `items` that a one-worker thread pool, its thread
    named "osscl-feed", runs ahead of: _FEED_DEPTH + 1 calls of next(items)
    stay submitted, and their results are yielded in order.

    An exception `items` raises is raised from the iterator, with its type
    and message, in its place in the order. On the way out, by error or
    not, the calls not yet started are cancelled and the thread is joined
    once the call it runs, if any, returns.
    """
    # imported here, so that a run which never feeds ahead does not load it
    from concurrent.futures import ThreadPoolExecutor

    def named():
        threading.current_thread().name = "osscl-feed"

    def fetched():
        window = collections.deque(fetch() for _ in range(_FEED_DEPTH + 1))
        while (item := window.popleft().result()) is not _FEED_END:
            window.append(fetch())
            yield item

    pool = ThreadPoolExecutor(1, initializer=named)
    fetch = functools.partial(pool.submit, next, items, _FEED_END)
    try:
        yield fetched()
    finally:
        pool.shutdown(cancel_futures=True)


def _cosine_lr(cfg, epoch, epochs):
    """Cosine decay from cfg.lr at epoch 0 to cfg.min_lr at epochs - 1."""
    if epochs == 1:
        return cfg.lr
    span, frac = cfg.lr - cfg.min_lr, epoch / (epochs - 1)
    return cfg.min_lr + 0.5 * span * (1.0 + math.cos(math.pi * frac))


def _optimize(net, n, epochs, cfg, rng, prepare, train, where, feed_ahead,
              clock=None, wait_phase=None):
    """The epoch loop both trainers share; returns per-epoch mean losses.

    A fresh Adam over net.params per call, its learning rate set each epoch
    by _cosine_lr over `epochs` (each task step re-anneals). Each epoch
    walks sc.epoch_batches(n); per batch prepare(idx) makes the inputs
    (drawn from rng, reading no trained parameter) and train(inputs)
    returns (loss, the flat gradient of net.params), and one Adam step
    follows once both are finite.
    The batches come from _feed, inline or, with feed_ahead, from a feeder
    thread (_fed_ahead); rng is drawn in the same order either way; with a
    feeder and a clock, the time spent waiting for its batches is added to
    `wait_phase` of clock. A NonFiniteError, here, from prepare or from
    train, names `where`, the epoch and the batch. epochs=0 leaves the net
    untouched.
    """
    if epochs == 0:
        return []
    opt = Adam(net.params, lr=cfg.lr)
    losses = [[] for _ in range(epochs)]
    feed = _feed(n, epochs, cfg, rng, prepare, where)
    fed = _fed_ahead(feed) if feed_ahead else contextlib.nullcontext(feed)
    with fed as batches:
        if feed_ahead and clock is not None:
            batches = _waited(batches, clock, wait_phase)
        for epoch, at, prepared in batches:
            opt.lr = _cosine_lr(cfg, epoch, epochs)
            with _named(at):
                loss, grad = train(prepared)
            _require_finite(at, "loss", loss)
            _require_finite(at, "gradient", grad)
            opt.step(grad)
            losses[epoch].append(float(loss))
    return [float(np.mean(epoch_losses)) for epoch_losses in losses]


def train_reference(net, pool_x, epochs, cfg, augmenter, rng,
                    where="reference", clock=None):
    """Contrastive training of the reference on the raw unlabeled pool.

    Returns per-epoch mean losses (see _optimize; a NonFiniteError starts
    with `where`); epochs=0 leaves the net untouched. When _feeds_ahead the
    views are augmented on a feeder thread, and the time spent waiting for
    them is added to the `reference_feed_wait` phase of `clock`, if given.
    """
    if len(pool_x) == 0:
        raise ValueError("reference training needs a non-empty unlabeled pool")

    def prepare(idx):
        return augmenter.pair_views(pool_x[idx], rng)

    def train(views):
        z, cache = net.forward(views)
        loss, dz = L.ntxent_grad(z, cfg.weights.tau)
        return loss, mlp_backward(cache, dz)

    return _optimize(net, len(pool_x), epochs, cfg, rng, prepare, train, where,
                     _feeds_ahead(augmenter), clock, "reference_feed_wait")


def train_learner_task(learner, sup_x, sup_y, sup_pseudo, task_classes, t, cfg,
                       augmenter, rng, td_teacher=None, kd_teacher=None,
                       kd_pool=None, unsup_pool=None, clock=None):
    """One task's learner training under the combined objective.

    Args:
        sup_x, sup_y, sup_pseudo: the supervised union (labeled + memory +
            confident pseudo-labeled set under v3/v4), per-source.
        task_classes: current-task class ids (the anchor set of the
            supervised loss).
        td_teacher: frozen snapshot of the learner from the previous step,
            or None when t == 1 or distillation of the past is disabled.
        kd_teacher / kd_pool: the reference teacher and the pool its batches
            come from, or None when reference distillation is disabled.
        unsup_pool: raw pool for the joint unsupervised term, or None.

    Per optimizer step: supervised batch (also the past-distillation batch),
    then an independently drawn reference-distillation batch, then an
    independently drawn unsupervised batch; disabled terms draw nothing.
    Both teachers embed their views as constants; the learner embeds its
    own, L.learner_objective returns dL/dz for each, and their MLP
    backwards add into one flat gradient in backprop's order, the last
    embedding first. Before the weights apply, each term of the objective
    is reduced to a mean over the views that anchor it
    (L.learner_objective): the supervised term over its active anchors
    (current-task, non-pseudo views with a positive), each distillation
    term over the views of its batch. The joint unsupervised term is the
    NT-Xent mean over its 2N views, added last. Returns per-epoch mean
    losses.

    When _feeds_ahead the batches, their views and the teachers'
    embeddings of them are prepared on a feeder thread while this one
    trains; the time spent waiting for them is added to the
    `learner_feed_wait` phase of `clock`, if given. Both teachers must stay
    unchanged until this returns.
    """
    if len(sup_x) == 0:
        raise ValueError("empty supervised union")
    if (kd_teacher is None) != (kd_pool is None):
        raise ValueError("kd_teacher and kd_pool must be supplied together")
    if kd_pool is not None and len(kd_pool) == 0:
        raise ValueError("empty reference-distillation pool")
    current = frozenset(int(c) for c in task_classes)

    def prepare(idx):
        views = augmenter.pair_views(sup_x[idx], rng)
        # the teachers stay frozen for the whole call, so their embeddings
        # are inputs like the views
        td_z = td_teacher.embed(views) if td_teacher is not None else None
        kviews = kd_z = uviews = None
        if kd_teacher is not None:
            kidx = sc.sample_batch(len(kd_pool), cfg.batch_size, rng)
            kviews = augmenter.pair_views(kd_pool[kidx], rng)
            kd_z = kd_teacher.embed(kviews)
        if unsup_pool is not None:
            uidx = sc.sample_batch(len(unsup_pool), cfg.batch_size, rng)
            uviews = augmenter.pair_views(unsup_pool[uidx], rng)
        return idx, views, kviews, uviews, td_z, kd_z

    def train(prepared):
        idx, views, kviews, uviews, td_z, kd_z = prepared
        # the learner's (rows, cache) per embedding, in the tape's order
        embedded = {name: learner.forward(x) for name, x in (
            ("z", views), ("kd_student", kviews), ("unsup_student", uviews))
            if x is not None}
        rows = {name: y for name, (y, _) in embedded.items()}
        out = L.learner_objective(
            rows.pop("z"), t, cfg.weights, sup_y[idx], current,
            pseudo_flags=sup_pseudo[idx], pseudo_anchor=cfg.pseudo_anchor,
            pseudo_positive=cfg.pseudo_positive, use_sup=cfg.use_sup,
            td_teacher=td_z, kd_teacher=kd_z, **rows)
        # backprop's order: the last embedding's parameter gradient first
        grad = None
        for name, (_, cache) in reversed(embedded.items()):
            if name in out.grads:
                part = mlp_backward(cache, out.grads[name])
                grad = part if grad is None else np.add(grad, part, out=grad)
        return out.total, grad

    return _optimize(learner, len(sup_x), cfg.epochs_learner, cfg, rng,
                     prepare, train, f"learner, t={t}",
                     _feeds_ahead(augmenter), clock, "learner_feed_wait")


def fit_classifier(learner, xs, ys, observed_classes, cfg, rng_init, rng_train):
    """Linear head on frozen encoder features, class-weighted sampling.

    Mini-batches are drawn with replacement with per-sample probability
    inversely proportional to class frequency. Each batch's loss is recorded
    on a tape, and Adam steps the head's flat parameter array with the
    weight and bias gradients backprop returns, laid out as the array is.
    Raises if any observed class is missing from the training data; steps
    are checked as in _optimize.
    """
    observed = sorted(int(c) for c in observed_classes)
    present = set(int(c) for c in np.unique(ys))
    missing = [c for c in observed if c not in present]
    if missing:
        raise ValueError(f"classes missing from classifier data: {missing}")
    class_index = {c: i for i, c in enumerate(observed)}
    targets = np.array([class_index[int(c)] for c in ys], dtype=np.int64)
    features = learner.encoder_features(xs)

    counts = np.bincount(targets, minlength=len(observed))
    weights = 1.0 / counts[targets]
    probs = weights / weights.sum()

    head = LinearClassifier(features.shape[1], len(observed), rng_init,
                            dtype=features.dtype)
    opt = Adam(head.params, lr=cfg.classifier_lr)
    n = len(targets)
    for epoch in range(cfg.classifier_epochs):
        order = rng_train.choice(n, size=n, replace=True, p=probs)
        for batch, start in enumerate(range(0, n, cfg.classifier_batch)):
            rows = order[start:start + cfg.classifier_batch]
            with Tape() as tape:
                logp = row_log_softmax(head.classify(features[rows]))
                picked = gather2d(logp, np.arange(len(rows)), targets[rows])
                loss = scale(total_sum(picked), -1.0 / len(rows))
                grads = backprop(tape, loss)
            grad = np.concatenate([grads[head.weight].ravel(), grads[head.bias]])
            at = f"classifier, epoch {epoch}, batch {batch}"
            _require_finite(at, "loss", loss.data)
            _require_finite(at, "gradient", grad)
            opt.step(grad)
    return head, np.asarray(observed, dtype=np.int64)


def evaluate(head, learner, class_ids, test_x, test_y, task_class_sets):
    """Class-incremental top-1 accuracy, overall and per task.

    Only test samples of observed classes are scored; no task identity is
    given at test time (a single head over all observed classes). Raises
    ValueError when a task has no test sample to score.
    """
    test_x = np.asarray(test_x)
    test_y = np.asarray(test_y)
    keep = np.isin(test_y, class_ids)
    test_x, test_y = test_x[keep], test_y[keep]
    masks = [np.isin(test_y, list(classes)) for classes in task_class_sets]
    for classes, mask in zip(task_class_sets, masks):
        if not mask.any():
            raise ValueError(f"no test samples for task classes {list(classes)}")
    logits = head.classify(learner.encoder_features(test_x)).data
    _require_finite("evaluation", "logits", logits)
    correct = class_ids[logits.argmax(axis=1)] == test_y
    return float(correct.mean()), [float(correct[m].mean()) for m in masks]


# ---------------------------------------------------------------------------
# Full run
# ---------------------------------------------------------------------------


def _labeled_union(step, memory):
    """Current labeled set plus memory exemplars: (xs, ys, n_current)."""
    mem_x, mem_y = memory.items()
    if len(mem_y):
        xs = np.concatenate([step.labeled_x, mem_x])
        ys = np.concatenate([step.labeled_y, mem_y])
    else:
        xs, ys = step.labeled_x, step.labeled_y
    return xs, ys, len(step.labeled_y)


def _segregation_pass(walk, step, labeled, observed):
    """Prototypes, thresholds, pool split, and quality metrics for one step."""
    cfg, reference = walk.cfg, walk.reference
    lab_x, lab_y, _ = labeled
    where = f"segregation, t={step.index}"
    protos = sg.build_prototypes(reference, lab_x, lab_y, observed,
                                 walk.augmenter, walk.rngs["proto"],
                                 n_aug=cfg.n_aug)
    labeled_scores, _ = sg.score(protos, lab_x, reference=reference)
    _require_finite(where, "labeled scores", labeled_scores)
    stats = sg.compute_thresholds(labeled_scores, cfg.eta_id, cfg.eta_pl,
                                  spread_mode=cfg.spread_mode)
    pool_scores, nearest = sg.score(protos, step.unlabeled_x,
                                    reference=reference)
    _require_finite(where, "pool scores", pool_scores)
    out = sg.segregate_scores(pool_scores, nearest, stats)
    quality = sg.ood_metrics(out, pool_scores, step.provenance)
    return {
        "output": out,
        "stats": stats,
        "pool_scores": pool_scores,
        "nearest": nearest,
        "labeled_scores": labeled_scores,
        "quality": quality,
    }


def _metrics_row(t, step, seg):
    out, stats, q = seg["output"], seg["stats"], seg["quality"]
    return {
        "task": t,
        "n_unlabeled": int(len(step.unlabeled_x)),
        "n_u_hat": int(out.u_hat_indices.size),
        "n_t_hat": int(out.t_hat_indices.size),
        "tau_id": float(stats.tau_id),
        "tau_pl": float(stats.tau_pl),
        "score_mean": float(stats.mean),
        "score_spread": float(stats.spread),
        "auroc": float(q.auroc),
        "precision": float(q.precision),
        "pseudo_accuracy": float(q.pseudo_accuracy),
    }


def _encoder_projector(stream, arch, seed, role):
    """A new encoder-projector over the stream's rows, drawn from `role`."""
    return EncoderProjector(stream.steps[0].labeled_x.shape[1], arch.hidden,
                            arch.proj_hidden, arch.embed_dim,
                            rng=role_rng(seed, role))


class _TaskWalk:
    """The one walk over a stream behind run_continual and run_segregation_eval.

    Owns the reference side and nothing of the learner: `reference` (None
    for a method without one), `memory`, `rngs` (ref, proto, memory), the
    `clock` it times its own phases on and its records (reference_curves,
    task_metrics, memory_counts). It pretrains the reference when
    cfg.pretrain_reference, trains it when trains_reference(t) (feeding
    its batches ahead when _feeds_ahead) and segregates each step's pool
    when the method does. Iterating yields one
    (step, labeled union, segregation pass or None) per step; once the
    caller hands control back, memory takes in the step's labeled set.
    """

    def __init__(self, cfg, stream, augmenter, seed, arch):
        if not stream.steps:
            raise ValueError("stream is empty")
        self.cfg, self.stream, self.augmenter = cfg, stream, augmenter
        self.clock = _PhaseClock()
        self.reference = (_encoder_projector(stream, arch, seed, _ROLE_REF_INIT)
                          if cfg.uses_reference else None)
        self.memory = sc.MemoryBuffer(cfg.memory_size, cfg.memory_policy)
        self.rngs = {
            "ref": role_rng(seed, _ROLE_REF_TRAIN),
            "proto": role_rng(seed, _ROLE_PROTO),
            "memory": role_rng(seed, _ROLE_MEMORY),
        }
        self.reference_curves = {}
        self.task_metrics = []
        self.memory_counts = []

    def trains_reference(self, t):
        """Whether step t trains the reference: every step of ursl without
        pretrain_reference, step 1 of co2l_p."""
        cfg = self.cfg
        return ((cfg.method == "ursl" and not cfg.pretrain_reference)
                or (cfg.method == "co2l_p" and t == 1))

    def __iter__(self):
        cfg, clock = self.cfg, self.clock
        if cfg.pretrain_reference:
            pooled = np.concatenate([s.unlabeled_x for s in self.stream.steps])
            with clock.timed("reference"):
                train_reference(self.reference, pooled, cfg.epochs_first, cfg,
                                self.augmenter, self.rngs["ref"],
                                "pretraining", clock)
        observed = []
        for step in self.stream.steps:
            t = step.index
            observed.extend(step.task_classes)
            if self.trains_reference(t):
                epochs = cfg.epochs_first if t == 1 else cfg.epochs_later
                with clock.timed("reference"):
                    self.reference_curves[f"t{t}"] = train_reference(
                        self.reference, step.unlabeled_x, epochs, cfg,
                        self.augmenter, self.rngs["ref"], f"reference, t={t}",
                        clock)

            labeled = _labeled_union(step, self.memory)
            seg = None
            if cfg.uses_segregation:
                with clock.timed("segregation"):
                    seg = _segregation_pass(self, step, labeled, observed)
                row = _metrics_row(t, step, seg)
                self.task_metrics.append(row)
                log.debug("t=%d |U_hat|=%d |T_hat|=%d auroc=%.3f", t,
                          row["n_u_hat"], row["n_t_hat"], row["auroc"])

            yield step, labeled, seg

            with clock.timed("memory"):
                # a ranked policy implies ursl (MethodConfig), so seg is set
                conf = (None if cfg.memory_policy == "random"
                        else seg["labeled_scores"][:labeled[2]])
                self.memory.update(step.labeled_x, step.labeled_y,
                                   self.rngs["memory"], confidence=conf)
            self.memory_counts.append(
                {str(k): int(v) for k, v in self.memory.class_counts().items()})


# ---------------------------------------------------------------------------
# What a run sets in its process: BLAS threads
# ---------------------------------------------------------------------------


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS as a ctypes library with its thread-count
    functions typed, or None when numpy.libs holds none that has them."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        put.argtypes, put.restype = [ctypes.c_int], None
        return lib
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the with-block at one thread of numpy's bundled OpenBLAS, and
    restore the count found on entry on the way out, by error or not.
    Without that library's thread control, set nothing."""
    threads = blas_threads()
    if threads is None:
        log.debug("no OpenBLAS thread control: the run keeps the pool's count")
        yield
        return
    lib = _openblas()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(threads)


def blas_threads():
    """The thread count of numpy's bundled OpenBLAS, or None without its
    thread control."""
    lib = _openblas()
    return None if lib is None else lib.scipy_openblas_get_num_threads64_()


def blas_kernel():
    """The kernel numpy's bundled OpenBLAS runs (as "SkylakeX"), or None
    without that library or its corename function. Float bytes follow this
    kernel; np.show_config's build string names only the build target."""
    import ctypes

    corename = getattr(_openblas(), "scipy_openblas_get_corename64_", None)
    if corename is None:
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


# ---------------------------------------------------------------------------
# The walk ahead of the learner
# ---------------------------------------------------------------------------

# what the walk owns apart from the reference, which its process sends per
# step; sent by name once the walk ends
_WALK_HANDBACK = ("memory", "rngs", "reference_curves", "task_metrics",
                  "memory_counts", "clock")


def _walks_ahead(walk):
    """Whether run_continual runs `walk` in a process of its own, started by
    os.fork: the reference trains after step 1, os.fork exists, this
    process runs one thread and has a spare core (module docstring)."""
    if not any(walk.trains_reference(s.index) for s in walk.stream.steps[1:]):
        return False
    return (threading.active_count() == 1 and hasattr(os, "fork")
            and _spare_core())


def _walk_child(walk, outbox):
    """Pickle each item of the walk to outbox, then what it owns at the end,
    one record each. An exception is sent, for the learner side to raise."""
    def send(item):
        # flushed before it returns, so the next step may train these
        # parameters in place
        pickle.dump(item, outbox, pickle.HIGHEST_PROTOCOL)
        outbox.flush()

    try:
        for _, labeled, seg in walk:
            send((labeled, seg, walk.reference.params))
        send({name: getattr(walk, name) for name in _WALK_HANDBACK})
    except Exception as exc:  # noqa: BLE001 - raised again by the learner side
        if hasattr(exc, "add_note"):  # Python 3.11+
            exc.add_note(
                f"raised in the walk process:\n{traceback.format_exc()}")
        send(exc)


def _flush_std_streams():
    """Flush sys.stdout and sys.stderr, where they can be."""
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(AttributeError, ValueError):
            stream.flush()


def _walk_process(walk, fd):
    """Body of the forked walk process: _walk_child into the pipe's write
    end `fd`. It leaves only through os._exit, never into the caller's
    stack: with 0 once all is sent, with n for a SystemExit(n) of an int n,
    and with 1, its traceback on stderr, for anything else that escapes (an
    exception pickle cannot send, say)."""
    code = 1
    try:
        with os.fdopen(fd, "wb") as outbox:
            _walk_child(walk, outbox)
        code = 0
    except BaseException as exc:  # noqa: BLE001 - reported by the exit code
        if isinstance(exc, SystemExit) and isinstance(exc.code, int):
            code = exc.code
        else:
            traceback.print_exc()
    finally:
        _flush_std_streams()
        os._exit(code)


class _Child:
    """A forked process, reaped once."""

    def __init__(self, pid):
        self.pid, self.exitcode = pid, None

    def join(self):
        """Wait for the process to exit; its exit code, or -signal."""
        if self.exitcode is None:
            status = os.waitpid(self.pid, 0)[1]
            self.exitcode = os.waitstatus_to_exitcode(status)
        return self.exitcode

    def stop(self):
        """SIGTERM the process unless it has been reaped, then reap it."""
        if self.exitcode is None:
            os.kill(self.pid, signal.SIGTERM)  # it may have exited: a zombie
            self.join()


def _receive(inbox, child, what):
    """The walk process's next record. An exception it sent is raised here;
    if it exits without sending, RuntimeError names its exit code."""
    try:
        item = pickle.load(inbox)
    except EOFError:  # the child held the pipe's only write end
        raise RuntimeError(f"the walk process exited with code "
                           f"{child.join()} before sending {what}") from None
    if isinstance(item, BaseException):
        raise item
    return item


def _mirror(walk, inbox, child):
    """Yield the items the walk's process sends, and leave `walk` (the
    reference and _WALK_HANDBACK) as iterating it here would."""
    for step in walk.stream.steps:
        labeled, seg, reference = _receive(inbox, child, f"step {step.index}")
        np.copyto(walk.reference.params, reference)
        yield step, labeled, seg
    vars(walk).update(_receive(inbox, child, "its final state"))
    child.join()


def _waited(items, clock, phase):
    """items, adding the time each took to arrive to `phase` of clock."""
    while True:
        with clock.timed(phase):
            item = next(items, None)
        if item is None:
            return
        yield item


@contextlib.contextmanager
def _walk_feed(walk):
    """An iterator over walk's (step, labeled union, segregation pass) items
    that leaves `walk` as iterating it in-process does.

    When _walks_ahead, os.fork starts the walk's process (_walk_process),
    which pickles one record per item into a pipe, and this one mirrors it
    (_mirror). On the way out, by error or not, the child is sent SIGTERM
    and reaped, then the pipe closed.
    """
    if not _walks_ahead(walk):
        yield iter(walk)
        return
    inbox_fd, outbox_fd = os.pipe()
    _flush_std_streams()  # or the child would write this process's buffers
    pid = os.fork()
    if pid == 0:
        os.close(inbox_fd)
        _walk_process(walk, outbox_fd)
    # the child's copy is then the only write end: its exit is EOF
    os.close(outbox_fd)
    child = _Child(pid)
    with os.fdopen(inbox_fd, "rb") as inbox:
        try:
            yield _mirror(walk, inbox, child)
        finally:
            child.stop()


def check_memory_quotas(cfg, task_classes):
    """Raise ValueError when cfg.memory_size keeps no exemplar of a class
    the final classifier needs, for a stream with these per-task classes.

    The classifier fits on the last task's labeled set and the memory, so
    every class of an earlier task needs a quota above 0 once the memory
    holds every class.
    """
    last = set(task_classes[-1])
    quotas = sc.MemoryBuffer(cfg.memory_size).quotas(
        [c for task in task_classes for c in task])
    if lost := [c for c, q in quotas.items() if q == 0 and c not in last]:
        raise ValueError(f"memory_size {cfg.memory_size} keeps no exemplar of "
                         f"classes {lost}, which the classifier needs")


def run_continual(cfg, stream, dataset, augmenter, seed, arch=NetArch()):
    """Walk the stream once under one method config; returns a RunReport.

    The test split of `dataset` provides the class-incremental evaluation
    set. Stochastic phases draw from role-separated streams derived from
    `seed`. The walk (_TaskWalk) owns the reference side; this function owns
    the learner side: the learner and its RNGs. On top of each walk step it
    adds the co2l_p initialization, the supervised and distillation batches,
    and learner training; the classifier and evaluation follow the last
    step.
    """
    with _one_blas_thread():
        clock = _PhaseClock()
        start_total = time.perf_counter()
        walk = _TaskWalk(cfg, stream, augmenter, seed, arch)
        check_memory_quotas(cfg, stream.task_classes)
        learner = _encoder_projector(stream, arch, seed, _ROLE_LEARNER_INIT)
        rng = role_rng(seed, _ROLE_LEARNER_TRAIN)
        learner_curves = {}

        with _walk_feed(walk) as items:
            steps = _waited(items, clock, "walk_wait")
            for step, (lab_x, lab_y, _), seg in steps:
                t = step.index
                if cfg.method == "co2l_p" and t == 1:
                    learner.copy_params_from(walk.reference)

                sup_x, sup_y = lab_x, lab_y
                kd_teacher = kd_pool = None
                if seg is not None:
                    out = seg["output"]
                    t_hat = out.t_hat_indices
                    if cfg.seg_variant in ("v3", "v4") and t_hat.size:
                        sup_x = np.concatenate([sup_x, step.unlabeled_x[t_hat]])
                        sup_y = np.concatenate([sup_y, out.t_hat_labels])
                    if cfg.use_kd:
                        if cfg.seg_variant in ("v1", "v3"):
                            pool_part = step.unlabeled_x
                        else:
                            pool_part = step.unlabeled_x[out.u_hat_indices]
                        kd_pool = np.concatenate([lab_x, pool_part])
                        kd_teacher = walk.reference
                # the confident pseudo-labeled set follows the labeled union
                sup_pseudo = np.arange(len(sup_y)) >= len(lab_y)

                # the learner as the previous step left it; at t > 1 nothing
                # has touched it yet in this step
                snapshot = learner.snapshot() if cfg.use_td and t > 1 else None
                unsup_pool = (step.unlabeled_x if cfg.method == "co2l_j"
                              else None)

                with clock.timed("learner"):
                    learner_curves[f"t{t}"] = train_learner_task(
                        learner, sup_x, sup_y, sup_pseudo, step.task_classes,
                        t, cfg, augmenter, rng,
                        td_teacher=snapshot, kd_teacher=kd_teacher,
                        kd_pool=kd_pool, unsup_pool=unsup_pool, clock=clock)

        final_x, final_y, _ = _labeled_union(stream.steps[-1], walk.memory)
        with clock.timed("classifier"):
            head, class_ids = fit_classifier(
                learner, final_x, final_y, stream.all_classes, cfg,
                role_rng(seed, _ROLE_CLS_INIT), role_rng(seed, _ROLE_CLS_TRAIN))
        with clock.timed("evaluate"):
            final_acc, per_task = evaluate(head, learner, class_ids,
                                           dataset.test_x, dataset.test_y,
                                           stream.task_classes)
        clock.add("total", time.perf_counter() - start_total)

    return RunReport(
        method=cfg.method,
        seg_variant=cfg.seg_variant,
        seed=int(seed),
        n_tasks=len(stream.steps),
        task_class_sets=[list(c) for c in stream.task_classes],
        per_task_accuracy=per_task,
        final_accuracy=final_acc,
        task_metrics=walk.task_metrics,
        loss_curves={"reference": walk.reference_curves,
                     "learner": learner_curves},
        memory_counts=walk.memory_counts,
        wall_clock={**walk.clock.totals, **clock.totals},
        state=RunState(walk.reference, learner, walk.memory, walk.rngs),
    )


def run_segregation_eval(cfg, stream, augmenter, seed, arch=NetArch()):
    """The run's own walk (_TaskWalk) up to segregation; trains no learner.

    Returns (per-task metric rows, per-sample score rows) for offline
    analysis of the pool split quality. The metric rows equal
    run_continual(cfg, ...).task_metrics for the same stream and seed.
    Raises ValueError for a method that does not segregate its pool.
    """
    if not cfg.uses_segregation:
        raise ValueError(f"method {cfg.method!r} does not segregate its pool")
    with _one_blas_thread():
        walk = _TaskWalk(cfg, stream, augmenter, seed, arch)
        samples = []
        for step, _, seg in walk:
            related, true_classes = step.provenance.reveal()
            out = seg["output"]
            n = len(step.unlabeled_x)
            in_u = np.isin(np.arange(n), out.u_hat_indices)
            in_t = np.isin(np.arange(n), out.t_hat_indices)
            pseudo = np.full(n, -1, dtype=np.int64)
            pseudo[out.t_hat_indices] = out.t_hat_labels
            for i in range(n):
                samples.append({
                    "task": step.index,
                    "index": i,
                    "score": float(seg["pool_scores"][i]),
                    "nearest_class": int(seg["nearest"][i]),
                    "related": bool(related[i]),
                    "true_class": int(true_classes[i]),
                    "in_u_hat": bool(in_u[i]),
                    "in_t_hat": bool(in_t[i]),
                    "pseudo_label": int(pseudo[i]),
                })
        return walk.task_metrics, samples
