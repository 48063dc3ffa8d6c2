"""Trainer tests: config validation, phase trainers, invariants, full runs.

The heavyweight end-to-end trend checks live in test_acceptance.py; here the
runs use a deliberately tiny scenario (2 tasks, 8-dim blobs, single-digit
epochs) so the whole file stays fast while still exercising every branch of
the orchestration: method reduction, variant equivalence, snapshot and
gradient isolation, determinism, and the classifier/eval protocol.
"""

import contextlib
import dataclasses
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from osscl import losses as L
from osscl import numcore as nc
from osscl import scenario as sc
from osscl import trainer as tr
from osscl.cli import THREAD_VARS
from osscl.nets import EncoderProjector
from osscl.numcore import NonFiniteError
from conftest import child_pids
from test_nets import param_digest


DIM = 8


def build_tiny_world(aug, dim=DIM):
    main = sc.synth_dataset(4, dim, 40, 20, seed=7)
    peri = sc.synth_dataset(4, dim, 80, 0, seed=70)
    stream = sc.build_stream(
        sc.ScenarioConfig(n_tasks=2, classes_per_task=2, labeled_fraction=0.1,
                          n_related=60, n_unrelated=60, seed=3),
        main, [peri])
    return main, stream, aug


@pytest.fixture(scope="module")
def tiny_world():
    return build_tiny_world(sc.Augmenter(mode="vector", sigma=0.5,
                                         dropout=0.1))


def tiny_cfg(**overrides):
    base = dict(epochs_first=4, epochs_later=2, epochs_learner=3,
                classifier_epochs=20, batch_size=32, memory_size=12)
    base.update(overrides)
    return tr.MethodConfig(**base)


def blas_thread_control():
    """(get, set) for the thread count of numpy's bundled OpenBLAS, or None
    without it."""
    lib = tr._openblas()
    if lib is None:
        return None
    return (lib.scipy_openblas_get_num_threads64_,
            lib.scipy_openblas_set_num_threads64_)


def probe_ntxent(net, views, tau=0.1):
    return float(L.ntxent_grad(net.embed(views), tau)[0])


# ---------------------------------------------------------------------------
# MethodConfig
# ---------------------------------------------------------------------------


class TestMethodConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            tr.MethodConfig(method="ewc")

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            tr.MethodConfig(seg_variant="v5")

    def test_rejects_unknown_spread_mode(self):
        with pytest.raises(ValueError):
            tr.MethodConfig(spread_mode="range")

    def test_rejects_unknown_memory_policy(self):
        with pytest.raises(ValueError):
            tr.MethodConfig(memory_policy="fifo")

    def test_non_ursl_forces_kd_off(self):
        """Not given, use_kd is on for ursl only; given true, only ursl
        takes it."""
        assert tr.MethodConfig().use_kd is True
        assert tr.MethodConfig(method="co2l").use_kd is False
        assert tr.MethodConfig(method="co2l_j", use_kd=False).use_kd is False
        for method in ("co2l", "co2l_j", "co2l_p"):
            with pytest.raises(ValueError,
                               match="^use_kd applies to ursl only$"):
                tr.MethodConfig(method=method, use_kd=True)

    def test_pretrained_reference_is_ursl_only(self):
        with pytest.raises(ValueError):
            tr.MethodConfig(method="co2l", pretrain_reference=True)

    def test_ranked_memory_needs_reference(self):
        with pytest.raises(ValueError):
            tr.MethodConfig(method="co2l", memory_policy="high_confidence")
        tr.MethodConfig(method="ursl", memory_policy="high_confidence")

    def test_all_losses_off_rejected(self):
        with pytest.raises(ValueError):
            tr.MethodConfig(method="ursl", use_sup=False, use_td=False,
                            use_kd=False)

    def test_co2l_j_survives_on_unsupervised_term_alone(self):
        cfg = tr.MethodConfig(method="co2l_j", use_sup=False, use_td=False)
        assert cfg.use_kd is False

    def test_negative_epochs_rejected(self):
        with pytest.raises(ValueError):
            tr.MethodConfig(epochs_learner=-1)

    def test_bad_batch_and_aug_counts_rejected(self):
        with pytest.raises(ValueError):
            tr.MethodConfig(batch_size=0)
        with pytest.raises(ValueError):
            tr.MethodConfig(n_aug=0)
        with pytest.raises(ValueError):
            tr.MethodConfig(memory_size=-1)

    def test_reference_and_segregation_flags(self):
        assert tr.MethodConfig(method="ursl").uses_reference
        assert tr.MethodConfig(method="co2l_p").uses_reference
        assert not tr.MethodConfig(method="co2l").uses_reference
        assert not tr.MethodConfig(method="co2l_j").uses_reference
        assert tr.MethodConfig(method="ursl").uses_segregation
        assert not tr.MethodConfig(method="co2l_p").uses_segregation


# ---------------------------------------------------------------------------
# Role streams
# ---------------------------------------------------------------------------


def test_role_streams_reproducible_and_distinct():
    a = tr.role_rng(9, 1).random(4)
    b = tr.role_rng(9, 1).random(4)
    c = tr.role_rng(9, 2).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# Phase trainers
# ---------------------------------------------------------------------------


def test_reference_training_reduces_contrastive_loss(tiny_world):
    main, _, aug = tiny_world
    net = EncoderProjector(DIM, (32, 32), 16, 8, rng=np.random.default_rng(0))
    pool = main.train_x[:120]
    rng = np.random.default_rng(1)
    probe = aug.pair_views(pool[:32], np.random.default_rng(5))
    before = probe_ntxent(net, probe)
    curve = tr.train_reference(net, pool, 8, tiny_cfg(), aug, rng)
    assert len(curve) == 8
    assert probe_ntxent(net, probe) < before
    assert curve[-1] < curve[0]


def test_reference_zero_epochs_is_noop(tiny_world):
    main, _, aug = tiny_world
    net = EncoderProjector(DIM, (32, 32), 16, 8, rng=np.random.default_rng(0))
    digest = param_digest(net)
    curve = tr.train_reference(net, main.train_x[:50], 0, tiny_cfg(), aug,
                               np.random.default_rng(1))
    assert curve == []
    assert param_digest(net) == digest


def test_reference_empty_pool_raises(tiny_world):
    _, _, aug = tiny_world
    net = EncoderProjector(DIM, (32, 32), 16, 8, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        tr.train_reference(net, np.empty((0, DIM)), 2, tiny_cfg(), aug,
                           np.random.default_rng(1))


def test_learner_task_argument_errors(tiny_world):
    main, _, aug = tiny_world
    net = EncoderProjector(DIM, (32, 32), 16, 8, rng=np.random.default_rng(0))
    xs = main.train_x[:16]
    ys = main.train_y[:16]
    flags = np.zeros(16, dtype=bool)
    with pytest.raises(ValueError):
        tr.train_learner_task(net, np.empty((0, DIM)), np.empty(0), np.empty(0),
                              (0, 1), 1, tiny_cfg(), aug,
                              np.random.default_rng(2))
    with pytest.raises(ValueError):
        tr.train_learner_task(net, xs, ys, flags, (0, 1), 1, tiny_cfg(), aug,
                              np.random.default_rng(2), kd_teacher=net)
    with pytest.raises(ValueError):
        tr.train_learner_task(net, xs, ys, flags, (0, 1), 1, tiny_cfg(), aug,
                              np.random.default_rng(2), kd_teacher=net,
                              kd_pool=np.empty((0, DIM)))


def test_learner_loss_decreases(tiny_world):
    main, _, aug = tiny_world
    net = EncoderProjector(DIM, (32, 32), 16, 8, rng=np.random.default_rng(0))
    sel = np.isin(main.train_y, [0, 1])
    xs, ys = main.train_x[sel], main.train_y[sel]
    flags = np.zeros(len(ys), dtype=bool)
    curve = tr.train_learner_task(net, xs, ys, flags, (0, 1), 1,
                                  tiny_cfg(epochs_learner=20), aug,
                                  np.random.default_rng(3))
    assert len(curve) == 20
    assert curve[-1] < curve[0]


def test_snapshot_is_frozen_during_learner_training(tiny_world):
    main, _, aug = tiny_world
    net = EncoderProjector(DIM, (32, 32), 16, 8, rng=np.random.default_rng(0))
    snap = net.snapshot()
    probe = main.train_x[:20]
    frozen_before = snap.embed(probe)
    live_before = net.embed(probe)
    sel = np.isin(main.train_y, [0, 1])
    flags = np.zeros(sel.sum(), dtype=bool)
    tr.train_learner_task(net, main.train_x[sel], main.train_y[sel], flags,
                          (0, 1), 2, tiny_cfg(), aug,
                          np.random.default_rng(3), td_teacher=snap)
    assert np.array_equal(snap.embed(probe), frozen_before)
    assert not np.array_equal(net.embed(probe), live_before)


def test_reference_and_learner_gradients_are_isolated(tiny_world):
    main, _, aug = tiny_world
    learner = EncoderProjector(DIM, (32, 32), 16, 8,
                               rng=np.random.default_rng(0))
    reference = EncoderProjector(DIM, (32, 32), 16, 8,
                                 rng=np.random.default_rng(1))
    ref_digest = param_digest(reference)
    sel = np.isin(main.train_y, [0, 1])
    flags = np.zeros(sel.sum(), dtype=bool)
    tr.train_learner_task(learner, main.train_x[sel], main.train_y[sel], flags,
                          (0, 1), 1, tiny_cfg(), aug,
                          np.random.default_rng(3), kd_teacher=reference,
                          kd_pool=main.train_x[:60])
    assert param_digest(reference) == ref_digest

    learner_digest = param_digest(learner)
    tr.train_reference(reference, main.train_x[:60], 2, tiny_cfg(), aug,
                       np.random.default_rng(4))
    assert param_digest(learner) == learner_digest
    assert param_digest(reference) != ref_digest


def watch_tape_entries(monkeypatch, inside=lambda: True):
    """Patch numcore._record to note, per entry it appends to a tape,
    whether inside() held; returns that list."""
    record, seen = nc._record, []

    def watched(out, parents, backward):
        if nc._ACTIVE_TAPES and out.requires_grad:
            seen.append(inside())
        record(out, parents, backward)

    monkeypatch.setattr(nc, "_record", watched)
    return seen


def test_a_learner_step_records_nothing_and_steps_only_the_learner(
        tiny_world, monkeypatch):
    """The learner trains on explicit gradients, with no tape: whether the
    batches are prepared inline or on a feeder thread, no op appends a tape
    entry, and each Adam step takes the learner's parameters alone, so no
    teacher forward pass can reach its gradient."""
    main, _, aug = tiny_world
    appended = watch_tape_entries(monkeypatch)
    step, stepped = nc.Adam.step, []

    def watched_step(opt, grad):
        stepped.append(opt.param)
        return step(opt, grad)

    monkeypatch.setattr(nc.Adam, "step", watched_step)
    learner = EncoderProjector(DIM, (32, 32), 16, 8,
                               rng=np.random.default_rng(0))
    reference = EncoderProjector(DIM, (32, 32), 16, 8,
                                 rng=np.random.default_rng(1))
    sel = np.isin(main.train_y, [0, 1])
    flags = np.zeros(sel.sum(), dtype=bool)
    for ahead in (False, True):
        monkeypatch.setattr(tr, "_feeds_ahead", lambda augmenter: ahead)
        tr.train_learner_task(learner, main.train_x[sel], main.train_y[sel],
                              flags, (0, 1), 2, tiny_cfg(epochs_learner=1),
                              aug, np.random.default_rng(3),
                              td_teacher=learner.snapshot(),
                              kd_teacher=reference, kd_pool=main.train_x[:60])
    assert appended == []
    assert stepped and all(param is learner.params for param in stepped)


@pytest.mark.parametrize("method", ["ursl", "co2l_j", "co2l_p"])
def test_only_the_classifier_records_on_a_tape(tiny_world, monkeypatch,
                                               method):
    """Every tape entry of a run is appended inside fit_classifier: the
    reference (which trains in this process here) and the learner, with
    co2l_j's unsupervised term, take explicit steps."""
    main, stream, aug = tiny_world
    fit, depth = tr.fit_classifier, []

    def fit_classifier(*args, **kwargs):
        depth.append(1)
        try:
            return fit(*args, **kwargs)
        finally:
            depth.pop()

    monkeypatch.setattr(tr, "fit_classifier", fit_classifier)
    monkeypatch.setattr(tr, "_walks_ahead", lambda walk: False)
    appended = watch_tape_entries(monkeypatch, lambda: bool(depth))
    tr.run_continual(tiny_cfg(method=method), stream, main, aug, seed=5)
    assert appended and all(appended)


# ---------------------------------------------------------------------------
# Classifier and evaluation
# ---------------------------------------------------------------------------


def test_classifier_probe_on_separable_features():
    data = sc.synth_dataset(4, DIM, 30, 10, seed=21, mean_radius=6.0,
                            noise_sigma=0.3)
    learner = EncoderProjector(DIM, (32, 32), 16, 8,
                               rng=np.random.default_rng(2))
    cfg = tiny_cfg(classifier_epochs=50, classifier_batch=32)
    head, class_ids = tr.fit_classifier(
        learner, data.train_x, data.train_y, [0, 1, 2, 3], cfg,
        np.random.default_rng(0), np.random.default_rng(1))
    acc, _ = tr.evaluate(head, learner, class_ids, data.train_x, data.train_y,
                         [(0, 1), (2, 3)])
    assert acc > 0.9


def test_classifier_missing_class_raises(tiny_world):
    main, _, _ = tiny_world
    learner = EncoderProjector(DIM, (32, 32), 16, 8,
                               rng=np.random.default_rng(2))
    sel = np.isin(main.train_y, [0, 1])
    with pytest.raises(ValueError):
        tr.fit_classifier(learner, main.train_x[sel], main.train_y[sel],
                          [0, 1, 2], tiny_cfg(), np.random.default_rng(0),
                          np.random.default_rng(1))


def test_evaluate_matches_confusion_matrix_trace():
    data = sc.synth_dataset(4, DIM, 30, 15, seed=22)
    learner = EncoderProjector(DIM, (32, 32), 16, 8,
                               rng=np.random.default_rng(2))
    head, class_ids = tr.fit_classifier(
        learner, data.train_x, data.train_y, [0, 1, 2, 3],
        tiny_cfg(classifier_epochs=10), np.random.default_rng(0),
        np.random.default_rng(1))
    final, per_task = tr.evaluate(head, learner, class_ids, data.test_x,
                                  data.test_y, [(0, 1), (2, 3)])

    logits = head.classify(learner.encoder_features(data.test_x)).data
    pred = class_ids[logits.argmax(axis=1)]
    confusion = np.zeros((4, 4), dtype=np.int64)
    for true, hat in zip(data.test_y, pred):
        confusion[int(true), int(hat)] += 1
    assert final == pytest.approx(np.trace(confusion) / confusion.sum())
    block01 = confusion[:2]
    block23 = confusion[2:]
    assert per_task[0] == pytest.approx(
        (block01[0, 0] + block01[1, 1]) / block01.sum())
    assert per_task[1] == pytest.approx(
        (block23[0, 2] + block23[1, 3]) / block23.sum())


def test_evaluate_ignores_unobserved_classes():
    data = sc.synth_dataset(4, DIM, 30, 15, seed=23)
    learner = EncoderProjector(DIM, (32, 32), 16, 8,
                               rng=np.random.default_rng(2))
    sel = np.isin(data.train_y, [0, 1])
    head, class_ids = tr.fit_classifier(
        learner, data.train_x[sel], data.train_y[sel], [0, 1],
        tiny_cfg(classifier_epochs=10), np.random.default_rng(0),
        np.random.default_rng(1))
    final, per_task = tr.evaluate(head, learner, class_ids, data.test_x,
                                  data.test_y, [(0, 1)])
    keep = np.isin(data.test_y, [0, 1])
    logits = head.classify(learner.encoder_features(data.test_x[keep])).data
    pred = class_ids[logits.argmax(axis=1)]
    assert final == pytest.approx(float((pred == data.test_y[keep]).mean()))
    assert len(per_task) == 1


def test_evaluate_raises_for_a_task_without_test_rows():
    """A task none of whose classes has a test row has no accuracy: it is an
    error, not 0.0."""
    data = sc.synth_dataset(4, DIM, 30, 15, seed=23)
    learner = EncoderProjector(DIM, (32, 32), 16, 8,
                               rng=np.random.default_rng(2))
    head, class_ids = tr.fit_classifier(
        learner, data.train_x, data.train_y, [0, 1, 2, 3],
        tiny_cfg(classifier_epochs=2), np.random.default_rng(0),
        np.random.default_rng(1))
    keep = np.isin(data.test_y, [1, 2])
    with pytest.raises(ValueError,
                       match=r"^no test samples for task classes \[0, 3\]$"):
        tr.evaluate(head, learner, class_ids, data.test_x[keep],
                    data.test_y[keep], [(1, 2), (0, 3)])


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def test_rerun_is_bitwise_identical(tiny_world):
    main, stream, aug = tiny_world
    cfg = tiny_cfg()
    a = tr.run_continual(cfg, stream, main, aug, seed=5)
    b = tr.run_continual(cfg, stream, main, aug, seed=5)
    assert json.dumps(a.metrics_dict(), sort_keys=True) == \
        json.dumps(b.metrics_dict(), sort_keys=True)
    assert param_digest(a.state.learner) == param_digest(b.state.learner)


# Runs the tiny world under ursl v4, v1, rainbow memory and co2l_p, and its
# image-mode twin (8x8 RGB rows) under ursl v4 and v1, seed 5. Prints per run
# the metrics digest and a digest of report.state (both nets' parameters, the
# memory arrays and the walk's three RNG states), then the BLAS thread count
# on entry, how many processes the runs forked and how many trainings in
# this process fed their batches ahead on a thread.
_DIGEST_SCRIPT = """
import hashlib, json, os, sys
sys.path[:0] = sys.argv[1:3]
import test_trainer as T
from osscl import scenario as sc, trainer as tr
forks, fork = [], os.fork
def counted_fork():
    forks.append(1)
    return fork()
os.fork = counted_fork
feeds, fed_ahead = [], tr._fed_ahead
def counted_feed(items):
    feeds.append(1)
    return fed_ahead(items)
tr._fed_ahead = counted_feed
blas = T.blas_thread_control()
threads = blas[0]() if blas else None
vector = T.build_tiny_world(sc.Augmenter(mode="vector", sigma=0.5,
                                         dropout=0.1))
image = T.build_tiny_world(sc.Augmenter(mode="image", image_hw=8),
                           dim=3 * 8 * 8)
for (main, stream, aug), overrides in (
        (vector, {}), (vector, {"seg_variant": "v1"}),
        (vector, {"memory_policy": "rainbow"}), (vector, {"method": "co2l_p"}),
        (image, {}), (image, {"seg_variant": "v1"})):
    rep = tr.run_continual(T.tiny_cfg(**overrides), stream, main, aug, seed=5)
    text = json.dumps(rep.metrics_dict(), sort_keys=True)
    print(hashlib.sha256(text.encode()).hexdigest(), T.state_digest(rep.state))
print(f"threads={threads}", f"forks={len(forks)}", f"feeds={len(feeds)}")
"""


def state_digest(state):
    """sha256 over a RunState: both nets' parameters, the memory arrays and
    the bit-generator states of the walk's RNGs."""
    h = hashlib.sha256()
    for net in (state.reference, state.learner):
        if net is not None:
            h.update(net.params.tobytes())
    for array in state.memory.items():
        h.update(array.tobytes())
    for role in ("ref", "proto", "memory"):
        h.update(repr(state.rngs[role].bit_generator.state).encode())
    return h.hexdigest()


def stdout_at_blas_thread_counts(script, kernel=None,
                                 launches=(("1", None), ("2", None))):
    """The words script prints in fresh processes, one at a time, with the
    source and test directories as arguments: per launch (threads, cpus),
    every BLAS/OpenMP thread variable at `threads` and, unless cpus is None,
    the CPU affinity `cpus`, set in the child only, before it starts Python.
    By default at 1 and then at 2 threads on this process's CPUs. A kernel
    name ("Haswell") is set as OPENBLAS_CORETYPE in every launch."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sc.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    words = []
    for threads, cpus in launches:
        env = dict(os.environ)
        env.update({var: threads for var in THREAD_VARS})
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        done = subprocess.run(
            [sys.executable, "-c", script, src, tests], env=env,
            capture_output=True, text=True, timeout=300,
            preexec_fn=None if cpus is None
            else lambda: os.sched_setaffinity(0, cpus))
        assert done.returncode == 0, done.stderr
        words.append(done.stdout.split())
    return words


def test_rerun_is_bitwise_identical_across_blas_thread_counts():
    """The same runs launched with every thread variable at 1 on two CPUs
    and at 2 on one CPU give byte-identical metrics and final state. The
    CPUs alone decide how they run: on two, each of the five ursl runs walks
    ahead in a forked process, and the two image runs feed their learner's
    batches (and their walk's) ahead on a thread; on one, every walk runs
    in-process and every batch is prepared inline. A one-CPU host runs the
    second launch only."""
    cpus = sorted(os.sched_getaffinity(0))
    launches = [("1", cpus[:2])] if len(cpus) > 1 else []
    *ahead, serial = stdout_at_blas_thread_counts(
        _DIGEST_SCRIPT, launches=launches + [("2", cpus[:1])])
    assert len(serial) == 2 * 6 + 3
    assert serial[-2:] == ["forks=0", "feeds=0"]
    for words in ahead:
        assert words[:-3] == serial[:-3]
        assert words[-2:] == ["forks=5", "feeds=4"]


@contextlib.contextmanager
def on_one_cpu():
    """Run the with-block on one of this process's CPUs; its affinity is
    restored on the way out."""
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, affinity)


def skip_unless_walks_ahead():
    if not hasattr(os, "fork") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the walk runs ahead only with os.fork and two or more "
                    "CPUs")


@pytest.fixture
def walk_ahead(monkeypatch):
    """A spare core, so ursl runs walk ahead; yields the list os.fork
    appends to, and checks on the way out that the run left no process,
    running or unreaped."""
    import multiprocessing

    skip_unless_walks_ahead()
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    yield forks
    assert multiprocessing.active_children() == []
    assert child_pids() == set()


def test_child_pids_reads_again_when_a_thread_file_vanishes(monkeypatch):
    """A thread that exits between the listing of the children files and
    their reading makes child_pids list them again, not raise."""
    listing, listed = glob.glob, []

    def with_a_vanished_thread(pattern):
        listed.append(pattern)
        gone = ["/proc/self/task/0/children"] if len(listed) == 1 else []
        return gone + listing(pattern)

    monkeypatch.setattr(glob, "glob", with_a_vanished_thread)
    assert child_pids() == set()
    assert len(listed) == 2


def test_walk_error_is_raised_with_its_type_and_message(tiny_world, walk_ahead,
                                                        monkeypatch):
    main, stream, aug = tiny_world
    train_reference, calls = tr.train_reference, []

    def fails_at_t2(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise NonFiniteError("ntxent went non-finite at t=2")
        return train_reference(*args, **kwargs)

    monkeypatch.setattr(tr, "train_reference", fails_at_t2)
    with pytest.raises(NonFiniteError) as caught:
        tr.run_continual(tiny_cfg(), stream, main, aug, seed=5)
    assert type(caught.value) is NonFiniteError
    assert str(caught.value) == "ntxent went non-finite at t=2"
    assert walk_ahead == [1]
    assert calls == []  # the reference trained in the walk's process
    if sys.version_info >= (3, 11):
        assert "raised in the walk process" in caught.value.__notes__[0]


def test_walk_process_death_is_a_runtime_error(tiny_world, walk_ahead,
                                               monkeypatch):
    main, stream, aug = tiny_world
    train_reference, calls = tr.train_reference, []

    def dies_at_t2(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            os._exit(3)
        return train_reference(*args, **kwargs)

    monkeypatch.setattr(tr, "train_reference", dies_at_t2)
    with pytest.raises(RuntimeError, match="exited with code 3 before"):
        tr.run_continual(tiny_cfg(), stream, main, aug, seed=5)
    assert walk_ahead == [1]


class Unpicklable(Exception):
    """An exception pickle cannot send: it holds a lock."""

    def __init__(self):
        super().__init__("holds a lock")
        self.lock = threading.Lock()


@pytest.mark.parametrize("exc,code,printed", [
    (Unpicklable(), 1, "cannot pickle '_thread.lock' object"),
    (SystemExit(5), 5, None),
], ids=["unpicklable", "system_exit"])
def test_walk_process_exit_code_is_kept(tiny_world, walk_ahead, monkeypatch,
                                        capfd, exc, code, printed):
    """The walk's process exits 1, its traceback on stderr, when pickle
    cannot send the error it meets, and n on a SystemExit(n)."""
    main, stream, aug = tiny_world
    train_reference, calls = tr.train_reference, []

    def raises_at_t2(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise exc
        return train_reference(*args, **kwargs)

    monkeypatch.setattr(tr, "train_reference", raises_at_t2)
    with pytest.raises(RuntimeError) as caught:
        tr.run_continual(tiny_cfg(), stream, main, aug, seed=5)
    assert str(caught.value) == (f"the walk process exited with code {code} "
                                 f"before sending step 2")
    assert walk_ahead == [1]
    err = capfd.readouterr().err
    if printed is None:
        assert "Traceback" not in err
    else:
        assert "Traceback (most recent call last)" in err and printed in err


# Runs the tiny world's vector ursl in a fresh interpreter, where it walks
# ahead; prints how many processes it forked and whether any module loaded
# multiprocessing.
_NO_MULTIPROCESSING_SCRIPT = """
import os, sys
sys.path[:0] = sys.argv[1:3]
import test_trainer as T
from osscl import scenario as sc, trainer as tr
forks, fork = [], os.fork
def counted_fork():
    forks.append(1)
    return fork()
os.fork = counted_fork
main, stream, aug = T.build_tiny_world(sc.Augmenter(mode="vector", sigma=0.5,
                                                    dropout=0.1))
tr.run_continual(T.tiny_cfg(), stream, main, aug, seed=5)
print(f"forks={len(forks)}", f"multiprocessing={'multiprocessing' in sys.modules}")
"""


def test_a_run_that_walks_ahead_imports_no_multiprocessing():
    skip_unless_walks_ahead()
    cpus = sorted(os.sched_getaffinity(0))[:2]
    [words] = stdout_at_blas_thread_counts(_NO_MULTIPROCESSING_SCRIPT,
                                           launches=(("1", cpus),))
    assert words == ["forks=1", "multiprocessing=False"]


def test_learner_error_stops_the_walk_process(tiny_world, walk_ahead,
                                              monkeypatch):
    """The learner fails at t=1 while the walk's process sleeps in t=2's
    reference training: the run raises at once, having stopped it."""
    main, stream, aug = tiny_world
    train_reference, calls = tr.train_reference, []

    def sleeps_at_t2(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            time.sleep(60)
        return train_reference(*args, **kwargs)

    def fails(*args, **kwargs):
        raise ValueError("learner failed")

    monkeypatch.setattr(tr, "train_reference", sleeps_at_t2)
    monkeypatch.setattr(tr, "train_learner_task", fails)
    start = time.monotonic()
    with pytest.raises(ValueError, match="learner failed"):
        tr.run_continual(tiny_cfg(), stream, main, aug, seed=5)
    assert time.monotonic() - start < 30
    assert walk_ahead == [1]


def test_walk_process_runs_no_other_thread(tiny_world, walk_ahead,
                                           monkeypatch, tmp_path):
    """At t=2's reference training, after it sent step 1, the walk's process
    runs one thread: it sends on its own, with no feeder thread."""
    main, stream, aug = tiny_world
    train_reference, calls = tr.train_reference, []
    seen = tmp_path / "threads"

    def counts_threads_at_t2(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            seen.write_text(str(threading.active_count()))
        return train_reference(*args, **kwargs)

    monkeypatch.setattr(tr, "train_reference", counts_threads_at_t2)
    tr.run_continual(tiny_cfg(), stream, main, aug, seed=5)
    assert walk_ahead == [1]
    assert calls == []  # the reference trained in the walk's process
    assert seen.read_text() == "1"


# One NT-Xent step at desk scale, where the tiny world's 64 x 64 Grams are
# 16x smaller than the products BLAS splits across threads: 256 float32 views
# through a 16-64-64-32-16 net, the explicit step the reference takes
# (forward, ntxent_grad, mlp_backward) at the BLAS thread count a run
# computes at; prints the loss bytes and a digest of the flat parameter
# gradient.
_DESK_STEP_SCRIPT = """
import hashlib, sys
sys.path[:0] = sys.argv[1:3]
import numpy as np
from osscl import losses, nets, numcore as nc, trainer as tr
rng = np.random.default_rng(0)
net = nets.EncoderProjector(16, rng=rng)
x = rng.standard_normal((256, 16)).astype(np.float32)
with tr._one_blas_thread():
    z, cache = net.forward(x)
    loss, dz = losses.ntxent_grad(z, 0.1)
    grad = nc.mlp_backward(cache, dz)
print(loss.tobytes().hex(), hashlib.sha256(grad.tobytes()).hexdigest())
"""

# A short co2l run at desk scale (the frozen acceptance world: 8 x 16-d
# blobs, 4 tasks x 2 classes, batch 128), whose learner and classifier run in
# this process on every launch path; prints its metrics digest.
_DESK_CO2L_SCRIPT = """
import hashlib, json, sys
sys.path[:0] = sys.argv[1:3]
from osscl import scenario as sc, trainer as tr
main = sc.synth_dataset(8, 16, 500, 100, seed=11)
stream = sc.build_stream(
    sc.ScenarioConfig(n_tasks=4, classes_per_task=2, labeled_fraction=0.05,
                      n_related=900, n_unrelated=900, seed=1),
    main, [sc.synth_dataset(8, 16, 1000, 0, seed=900)])
cfg = tr.MethodConfig(method="co2l", epochs_first=2, epochs_later=1,
                      epochs_learner=2, classifier_epochs=5)
rep = tr.run_continual(cfg, stream, main,
                       sc.Augmenter(mode="vector", sigma=1.75, dropout=0.05),
                       seed=1)
text = json.dumps(rep.metrics_dict(), sort_keys=True)
print(hashlib.sha256(text.encode()).hexdigest())
"""


def kernels_to_run():
    """None (the kernel the BLAS picks for this machine), then, where
    OPENBLAS_CORETYPE can force one (numpy's bundled OpenBLAS on x86-64),
    Haswell: the kernel of AVX2-only Intel and of AMD hosts, whose gemm bytes
    move with the thread count at desk sizes."""
    if tr.blas_kernel() is None or platform.machine() != "x86_64":
        return [None]
    return [None, "Haswell"]


def test_desk_scale_step_is_bitwise_identical_across_blas_thread_counts():
    for kernel in kernels_to_run():
        words = stdout_at_blas_thread_counts(_DESK_STEP_SCRIPT, kernel)
        assert len(words[0]) == 2
        assert words[0] == words[1], kernel


def test_desk_scale_run_is_bitwise_identical_across_blas_thread_counts():
    """A serial run launched with one and with two BLAS threads computes at
    one, so its metrics bytes are the same, on each kernel."""
    for kernel in kernels_to_run():
        words = stdout_at_blas_thread_counts(_DESK_CO2L_SCRIPT, kernel)
        assert len(words[0]) == 1
        assert words[0] == words[1], kernel


@pytest.mark.skipif(blas_thread_control() is None,
                    reason="needs numpy's bundled OpenBLAS thread control")
def test_runs_compute_at_one_blas_thread_and_restore_the_count(
        tiny_world, monkeypatch):
    """run_continual (here a serial co2l run, up to its classifier) and
    run_segregation_eval compute at one BLAS thread; the count found on
    entry is back afterwards, also when the run raised."""
    main, stream, aug = tiny_world
    get, put = blas_thread_control()
    seen, segregation_pass_ = [], tr._segregation_pass

    def fails(*args, **kwargs):
        seen.append(get())
        raise ValueError("classifier failed")

    def segregation_pass(*args):
        seen.append(get())
        return segregation_pass_(*args)

    monkeypatch.setattr(tr, "fit_classifier", fails)
    monkeypatch.setattr(tr, "_segregation_pass", segregation_pass)
    before = get()
    put(2)
    try:
        with pytest.raises(ValueError, match="classifier failed"):
            tr.run_continual(tiny_cfg(method="co2l"), stream, main, aug,
                             seed=5)
        assert get() == 2
        tr.run_segregation_eval(tiny_cfg(), stream, aug, seed=5)
        assert get() == 2
    finally:
        put(before)
    assert seen == [1, 1, 1]


# The bitwise rerun contract as literals: sha256[:16] of the sorted-key
# metrics JSON of run_continual(tiny_cfg(**overrides), ..., seed=5) on the tiny
# world (vector) and its image-mode twin. Float bytes depend on the numpy and
# BLAS build and on the kernel the BLAS runs (the build string names only its
# build target), so the pins hold only where all three match.
_PINNED_NUMPY = "2.4.6"
_PINNED_BLAS = ("OpenBLAS 0.3.31.188.0 USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
                "Haswell MAX_THREADS=64")
_PINNED_KERNEL = "SkylakeX"
_PINNED_DIGESTS = [
    ("vector", {}, "33871226241a3e12"),
    ("vector", {"method": "co2l"}, "5381dbc73994197f"),
    ("vector", {"method": "co2l_j"}, "1b9c0f19a0388f16"),
    ("vector", {"method": "co2l_p"}, "c785011811e5dcbf"),
    ("vector", {"seg_variant": "v1"}, "9947cb4fdfc38b4f"),
    ("vector", {"seg_variant": "v2"}, "e1d98c3b9ddd8c04"),
    ("vector", {"seg_variant": "v3"}, "235b0e65b1faed4d"),
    ("vector", {"use_td": False}, "698b89714c686ba7"),
    ("vector", {"use_kd": False}, "6faf86086e7f6df6"),
    ("vector", {"use_sup": False}, "4f03b37d3be39b29"),
    ("vector", {"pretrain_reference": True}, "5f4472a70960499b"),
    ("vector", {"memory_policy": "rainbow"}, "3827dbfcb2d99993"),
    ("vector", {"memory_policy": "high_confidence"}, "c71f882a2a14ee0c"),
    ("image", {}, "9cf1e74702e19c14"),
    ("image", {"method": "co2l_j"}, "4898102d98d400ed"),
]
# sha256[:16] of state_digest(report.state) of the image runs, by method:
# their metrics are one-batch float32 epoch losses and accuracies, which can
# round to the same values while the training under them moves
_PINNED_STATE_DIGESTS = {"ursl": "710664ce9c28a721",
                         "co2l_j": "8d65487bf2201f6a"}


def _blas_configuration():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        return None
    return " ".join(str(blas.get("openblas configuration")).split())


@pytest.fixture(scope="module")
def image_world():
    return build_tiny_world(sc.Augmenter(mode="image", image_hw=8),
                            dim=3 * 8 * 8)


@pytest.mark.parametrize(
    "mode,overrides,digest", _PINNED_DIGESTS,
    ids=[f"{m}-" + ("-".join(f"{k}={v}" for k, v in o.items()) or "ursl")
         for m, o, _ in _PINNED_DIGESTS])
def test_metrics_digest_is_pinned(tiny_world, image_world, mode, overrides,
                                  digest):
    build = (np.__version__, _blas_configuration(), tr.blas_kernel())
    if build != (_PINNED_NUMPY, _PINNED_BLAS, _PINNED_KERNEL):
        pytest.skip(f"digests pinned on numpy {_PINNED_NUMPY} with "
                    f"{_PINNED_BLAS!r} running the {_PINNED_KERNEL} kernel; "
                    f"this is numpy {build[0]} with {build[1]!r} running the "
                    f"{build[2]} kernel")
    main, stream, aug = tiny_world if mode == "vector" else image_world
    rep = tr.run_continual(tiny_cfg(**overrides), stream, main, aug, seed=5)
    text = json.dumps(rep.metrics_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    if mode == "image":
        assert state_digest(rep.state)[:16] == \
            _PINNED_STATE_DIGESTS[overrides.get("method", "ursl")]


def test_seed_changes_the_run(tiny_world):
    main, stream, aug = tiny_world
    cfg = tiny_cfg()
    a = tr.run_continual(cfg, stream, main, aug, seed=5)
    b = tr.run_continual(cfg, stream, main, aug, seed=6)
    assert param_digest(a.state.learner) != param_digest(b.state.learner)


def test_ursl_with_extras_disabled_reduces_to_co2l(tiny_world):
    """Turning off the reference-coupled parts of the full method must leave
    exactly the baseline's optimization: identical per-step loss curves."""
    main, stream, aug = tiny_world
    reduced = tiny_cfg(method="ursl", seg_variant="v1", use_kd=False)
    baseline = tiny_cfg(method="co2l")
    a = tr.run_continual(reduced, stream, main, aug, seed=4)
    b = tr.run_continual(baseline, stream, main, aug, seed=4)
    for key in a.loss_curves["learner"]:
        ca = np.asarray(a.loss_curves["learner"][key])
        cb = np.asarray(b.loss_curves["learner"][key])
        assert np.allclose(ca, cb, atol=1e-6)
        assert np.array_equal(ca, cb)
    assert a.final_accuracy == b.final_accuracy

    reduced_sup = tiny_cfg(method="ursl", seg_variant="v1", use_td=False,
                           use_kd=False)
    baseline_sup = tiny_cfg(method="co2l", use_td=False)
    a = tr.run_continual(reduced_sup, stream, main, aug, seed=4)
    b = tr.run_continual(baseline_sup, stream, main, aug, seed=4)
    for key in a.loss_curves["learner"]:
        assert np.array_equal(a.loss_curves["learner"][key],
                              b.loss_curves["learner"][key])


def test_v4_with_extreme_thresholds_reproduces_v1(tiny_world):
    """Thresholds passing the whole pool into the confident-unlabeled set and
    nothing into the pseudo-labeled set make v4 and v1 route identical data,
    so everything the training produces must match exactly."""
    main, stream, aug = tiny_world
    v1 = tiny_cfg(method="ursl", seg_variant="v1")
    v4x = tiny_cfg(method="ursl", seg_variant="v4", eta_id=-1e9, eta_pl=1e9)
    a = tr.run_continual(v1, stream, main, aug, seed=8)
    b = tr.run_continual(v4x, stream, main, aug, seed=8)
    for row in b.task_metrics:
        assert row["n_u_hat"] == row["n_unlabeled"]
        assert row["n_t_hat"] == 0
    assert a.final_accuracy == b.final_accuracy
    assert a.per_task_accuracy == b.per_task_accuracy
    assert a.loss_curves == b.loss_curves
    assert a.memory_counts == b.memory_counts
    assert param_digest(a.state.learner) == param_digest(b.state.learner)


def test_co2l_never_builds_a_reference(tiny_world):
    main, stream, aug = tiny_world
    for method in ("co2l", "co2l_j"):
        rep = tr.run_continual(tiny_cfg(method=method), stream, main, aug,
                               seed=2)
        assert rep.state.reference is None
        assert rep.loss_curves["reference"] == {}
        assert rep.task_metrics == []
        with pytest.raises(ValueError):
            tr.run_segregation_eval(tiny_cfg(method=method), stream, aug,
                                    seed=2)


def test_co2l_p_initializes_learner_from_reference(tiny_world):
    main, stream, aug = tiny_world
    rep = tr.run_continual(tiny_cfg(method="co2l_p", epochs_learner=0),
                           stream, main, aug, seed=2)
    state = rep.state
    assert list(rep.loss_curves["reference"]) == ["t1"]
    for ours, theirs in zip(state.learner.param_arrays(),
                            state.reference.param_arrays()):
        assert np.array_equal(ours, theirs)


def test_pretrained_reference_trains_once_up_front(tiny_world):
    main, stream, aug = tiny_world
    rep = tr.run_continual(tiny_cfg(method="ursl", pretrain_reference=True),
                           stream, main, aug, seed=2)
    assert rep.loss_curves["reference"] == {}
    assert len(rep.task_metrics) == len(stream.steps)


def test_single_task_stream_runs_every_method(tiny_world):
    main, _, aug = tiny_world
    stream1 = sc.build_stream(
        sc.ScenarioConfig(n_tasks=1, classes_per_task=2, labeled_fraction=0.1,
                          n_related=60, n_unrelated=60, seed=3),
        main, [sc.synth_dataset(4, DIM, 80, 0, seed=70)])
    for method in tr.METHODS:
        rep = tr.run_continual(tiny_cfg(method=method), stream1, main, aug,
                               seed=1)
        assert rep.n_tasks == 1
        assert len(rep.loss_curves["learner"]["t1"]) == 3


def test_co2l_j_trains_on_the_unsupervised_term_alone(tiny_world):
    """MethodConfig accepts co2l_j with every other term off; the joint
    term is then the whole learner objective."""
    main, stream, aug = tiny_world
    rep = tr.run_continual(tiny_cfg(method="co2l_j", use_sup=False,
                                    use_td=False), stream, main, aug, seed=5)
    curves = rep.loss_curves["learner"]
    assert sorted(curves) == ["t1", "t2"]
    assert all(len(c) == 3 and np.isfinite(c).all() for c in curves.values())


def test_memory_stays_within_capacity(tiny_world):
    main, stream, aug = tiny_world
    rep = tr.run_continual(tiny_cfg(), stream, main, aug, seed=5)
    for counts in rep.memory_counts:
        assert sum(counts.values()) <= 12


@pytest.mark.parametrize("memory_size,counts", [
    (0, [0, 0]), (1, [1, 0]), (3, [2, 1]),
], ids=["empty_memory", "below_class_count", "uneven"])
def test_memory_counts_list_every_stored_class(tiny_world, memory_size,
                                               counts):
    """metrics.json's memory_counts name every stored class in class order,
    also one whose quota is 0. One step, so the final probe still sees both
    classes in the step's own labeled set."""
    main, _, aug = tiny_world
    stream1 = sc.build_stream(
        sc.ScenarioConfig(n_tasks=1, classes_per_task=2, labeled_fraction=0.1,
                          n_related=60, n_unrelated=60, seed=3),
        main, [sc.synth_dataset(4, DIM, 80, 0, seed=70)])
    rep = tr.run_continual(tiny_cfg(memory_size=memory_size), stream1, main,
                           aug, seed=5)
    classes = sorted(stream1.steps[0].task_classes)
    assert rep.metrics_dict()["memory_counts"] == [
        {str(c): n for c, n in zip(classes, counts)}]


def test_memory_missing_an_earlier_class_fails_before_training(
        tiny_world, monkeypatch):
    """Three slots over four classes: the class at quota 0 is in the first
    task, so the final classifier would miss it; the run raises before the
    reference trains."""
    main, stream, aug = tiny_world
    calls = []
    monkeypatch.setattr(tr, "train_reference",
                        lambda *args, **kwargs: calls.append(1))
    with pytest.raises(ValueError, match=r"memory_size 3 keeps no exemplar "
                                         r"of classes \[3\]"):
        tr.run_continual(tiny_cfg(memory_size=3), stream, main, aug, seed=5)
    assert calls == []


def test_empty_stream_rejected(tiny_world):
    main, _, aug = tiny_world
    empty = sc.Stream(steps=())
    with pytest.raises(ValueError):
        tr.run_continual(tiny_cfg(), empty, main, aug, seed=1)
    with pytest.raises(ValueError):
        tr.run_segregation_eval(tiny_cfg(), empty, aug, seed=1)


def test_metrics_dict_is_json_serializable(tiny_world):
    main, stream, aug = tiny_world
    rep = tr.run_continual(tiny_cfg(), stream, main, aug, seed=5)
    payload = json.dumps(rep.metrics_dict(), sort_keys=True)
    assert "wall_clock" not in payload
    assert rep.wall_clock["total"] > 0
    # the phase names the benchmark reads from timings.json
    assert set(rep.wall_clock) == {"reference", "segregation", "learner",
                                   "memory", "classifier", "evaluate", "total",
                                   "walk_wait"}


def test_segregation_eval_rows_and_samples(tiny_world):
    main, stream, aug = tiny_world
    rows, samples = tr.run_segregation_eval(tiny_cfg(), stream, aug, seed=5)
    assert [r["task"] for r in rows] == [1, 2]
    pool_sizes = [len(s.unlabeled_x) for s in stream.steps]
    assert len(samples) == sum(pool_sizes)
    for row in samples:
        if row["in_t_hat"]:
            assert row["in_u_hat"]
            assert row["pseudo_label"] >= 0
        else:
            assert row["pseudo_label"] == -1
    for r in rows:
        assert 0.0 <= r["auroc"] <= 1.0
        assert r["n_t_hat"] <= r["n_u_hat"] <= r["n_unlabeled"]


@pytest.mark.parametrize("overrides", [{}, {"pretrain_reference": True}],
                         ids=["ursl_v4", "pretrained_reference"])
def test_segregation_eval_rows_match_the_run(tiny_world, overrides):
    """segregate-eval reports the split the run feeds its learner."""
    main, stream, aug = tiny_world
    cfg = tiny_cfg(**overrides)
    rows, _ = tr.run_segregation_eval(cfg, stream, aug, seed=5)
    report = tr.run_continual(cfg, stream, main, aug, seed=5)
    assert rows == report.task_metrics


@pytest.mark.parametrize("overrides,steps", [
    ({"pretrain_reference": True}, 2),
    ({"method": "co2l_p"}, 2),
    ({"method": "co2l"}, 2),
    ({}, 1),
], ids=["pretrain_reference", "co2l_p", "co2l", "one_step_ursl"])
def test_walk_runs_in_process_unless_the_reference_trains_after_step_1(
        tiny_world, walk_ahead, overrides, steps):
    main, stream, aug = tiny_world
    stream = dataclasses.replace(stream, steps=stream.steps[:steps])
    tr.run_continual(tiny_cfg(**overrides), stream, main, aug, seed=5)
    assert walk_ahead == []


def test_walk_ahead_reports_the_phases_and_state_of_the_in_process_run(
        tiny_world, walk_ahead):
    main, stream, aug = tiny_world
    ahead = tr.run_continual(tiny_cfg(), stream, main, aug, seed=5)
    assert walk_ahead == [1]
    with on_one_cpu():
        serial = tr.run_continual(tiny_cfg(), stream, main, aug, seed=5)
    assert walk_ahead == [1]
    assert sorted(ahead.wall_clock) == sorted(serial.wall_clock)
    # the walk's three roles; the learner's RNGs stay with run_continual
    assert sorted(ahead.state.rngs) == ["memory", "proto", "ref"]
    assert state_digest(ahead.state) == state_digest(serial.state)


# ---------------------------------------------------------------------------
# Non-finite values: checked once per optimizer step, named where they arise
# ---------------------------------------------------------------------------


@pytest.fixture
def optimizers(monkeypatch):
    """Every Adam the trainer builds, in order. Each fails a test on a step
    whose gradients are not finite, and keeps in `last` a copy of its
    parameters as its last step left them."""
    made = []

    class Recording(tr.Adam):
        def __init__(self, param, lr):
            super().__init__(param, lr)
            self.last = param.copy()
            made.append(self)

        def step(self, g):
            assert np.isfinite(g).all()
            super().step(g)
            self.last = self.param.copy()

    monkeypatch.setattr(tr, "Adam", Recording)
    return made


def left_as_its_last_step_left_it(opt):
    return opt.param.tobytes() == opt.last.tobytes()


@pytest.fixture
def epochs(monkeypatch):
    """The batches of every epoch the two network trainers draw, in order."""
    drawn = []
    epoch_batches = sc.epoch_batches

    def recorded(*args):
        drawn.append(epoch_batches(*args))
        return drawn[-1]

    monkeypatch.setattr(sc, "epoch_batches", recorded)
    return drawn


@pytest.fixture
def in_process(monkeypatch):
    monkeypatch.setattr(tr, "_walks_ahead", lambda walk: False)


def with_nan(stream, t, field, row, cols=0):
    """stream with a NaN in one row of step t's labeled_x or unlabeled_x, in
    its first column or in `cols`."""
    step = stream.steps[t - 1]
    x = getattr(step, field).copy()
    x[row, cols] = np.nan
    steps = list(stream.steps)
    steps[t - 1] = dataclasses.replace(step, **{field: x})
    return dataclasses.replace(stream, steps=tuple(steps))


def batch_holding(batches, row):
    return next(b for b, idx in enumerate(batches) if row in idx)


@pytest.mark.parametrize("overrides,network", [
    ({}, "reference, t=2"), ({"pretrain_reference": True}, "pretraining")])
def test_nan_pool_row_names_the_reference_step(tiny_world, in_process,
                                               optimizers, epochs, overrides,
                                               network):
    """A NaN in step 2's pool fails the first reference step that draws it,
    before Adam applies it. Pretraining pools every step, step 1 first."""
    main, stream, aug = tiny_world
    row = 5 + (len(stream.steps[0].unlabeled_x) if overrides else 0)
    with pytest.raises(NonFiniteError) as caught:
        tr.run_continual(tiny_cfg(**overrides),
                         with_nan(stream, 2, "unlabeled_x", 5), main, aug,
                         seed=5)
    batch = batch_holding(epochs[-1], row)
    assert str(caught.value) == (f"{network}, epoch 0, batch {batch}: "
                                 f"non-finite loss")
    assert len(optimizers) == (3 if network.startswith("reference") else 1)
    assert left_as_its_last_step_left_it(optimizers[-1])


def test_walk_ahead_raises_the_in_process_message(tiny_world, walk_ahead,
                                                  monkeypatch):
    main, stream, aug = tiny_world
    poisoned = with_nan(stream, 2, "unlabeled_x", 5)
    with pytest.raises(NonFiniteError) as ahead:
        tr.run_continual(tiny_cfg(), poisoned, main, aug, seed=5)
    assert walk_ahead == [1]
    monkeypatch.setattr(tr, "_walks_ahead", lambda walk: False)
    with pytest.raises(NonFiniteError) as serial:
        tr.run_continual(tiny_cfg(), poisoned, main, aug, seed=5)
    assert walk_ahead == [1]
    assert str(serial.value).startswith("reference, t=2, epoch 0, batch ")
    assert str(ahead.value) == str(serial.value)


class PoisonedTeacher:
    """A distillation teacher whose embeddings are NaN from its `at`-th
    call on."""

    def __init__(self, teacher, at):
        self.teacher, self.at, self.calls = teacher, at, 0

    def embed(self, x):
        self.calls += 1
        z = self.teacher.embed(x)
        return np.full_like(z, np.nan) if self.calls >= self.at else z


@pytest.mark.parametrize("role,method,t", [
    ("td_teacher", "co2l", 2), ("kd_teacher", "ursl", 1),
    ("kd_teacher", "ursl", 2)])
def test_poisoned_teacher_names_its_term_and_step(tiny_world, in_process,
                                                  optimizers, epochs,
                                                  monkeypatch, role, method,
                                                  t):
    """The teacher turns NaN at the learner's sixth step of task t: the
    error names the learner, t, that step's epoch and batch, and the term."""
    main, stream, aug = tiny_world
    train_learner_task, first_epoch = tr.train_learner_task, []

    def poisoned(*args, **kwargs):
        if args[5] == t:
            kwargs[role] = PoisonedTeacher(kwargs[role], at=6)
            first_epoch.append(len(epochs))
        return train_learner_task(*args, **kwargs)

    monkeypatch.setattr(tr, "train_learner_task", poisoned)
    with pytest.raises(NonFiniteError) as caught:
        tr.run_continual(tiny_cfg(method=method, batch_size=8), stream, main,
                         aug, seed=5)
    ran = epochs[first_epoch[0]:]
    epoch, batch = len(ran) - 1, 5 - sum(len(e) for e in ran[:-1])
    assert 0 <= batch < len(ran[-1]) and (epoch, batch) != (0, 0)
    term = role[:2]
    assert str(caught.value) == (f"learner, t={t}, epoch {epoch}, batch "
                                 f"{batch}: non-finite {term} term")
    assert left_as_its_last_step_left_it(optimizers[-1])


def test_nan_pool_row_names_the_unsupervised_term(tiny_world, optimizers):
    """co2l_j's joint term is the only one that embeds the pool; a third of
    step 2's pool rows are NaN, so its first batch draws one."""
    main, stream, aug = tiny_world
    x = stream.steps[1].unlabeled_x.copy()
    x[::3, 0] = np.nan
    steps = (stream.steps[0], dataclasses.replace(stream.steps[1],
                                                  unlabeled_x=x))
    with pytest.raises(NonFiniteError) as caught:
        tr.run_continual(tiny_cfg(method="co2l_j"),
                         dataclasses.replace(stream, steps=steps), main, aug,
                         seed=5)
    assert str(caught.value) == ("learner, t=2, epoch 0, batch 0: "
                                 "non-finite unsup term")
    assert left_as_its_last_step_left_it(optimizers[-1])


def test_nan_labeled_row_names_the_supervised_term(tiny_world, optimizers,
                                                   epochs):
    """co2l has no reference, so the learner is the first to embed it."""
    main, stream, aug = tiny_world
    with pytest.raises(NonFiniteError) as caught:
        tr.run_continual(tiny_cfg(method="co2l", batch_size=4),
                         with_nan(stream, 1, "labeled_x", 5), main, aug,
                         seed=5)
    batch = batch_holding(epochs[-1], 5)
    assert len(epochs) == 1
    assert str(caught.value) == (f"learner, t=1, epoch 0, batch {batch}: "
                                 f"non-finite sup term")
    assert left_as_its_last_step_left_it(optimizers[-1])


@pytest.mark.parametrize("t,field,overrides,scores", [
    (1, "labeled_x", {}, "labeled"),
    (2, "unlabeled_x", {"epochs_later": 0}, "pool")])
def test_nan_row_names_the_segregation_step(tiny_world, in_process, t, field,
                                            overrides, scores):
    """A NaN score would fail every threshold comparison in silence. The
    pool row of step 2 reaches segregation when the reference does not
    train on it."""
    main, stream, aug = tiny_world
    with pytest.raises(NonFiniteError) as caught:
        tr.run_continual(tiny_cfg(**overrides), with_nan(stream, t, field, 3),
                         main, aug, seed=5)
    assert str(caught.value) == (f"segregation, t={t}: non-finite {scores} "
                                 f"scores")


class DrawnOrders:
    """A Generator whose choice() draws are kept in `orders`."""

    def __init__(self, rng):
        self.rng, self.orders = rng, []

    def choice(self, *args, **kwargs):
        self.orders.append(self.rng.choice(*args, **kwargs))
        return self.orders[-1]


def test_nan_feature_names_the_classifier_step(optimizers):
    data = sc.synth_dataset(4, DIM, 30, 10, seed=21)
    xs = data.train_x.copy()
    xs[7, 0] = np.nan
    learner = EncoderProjector(DIM, (32, 32), 16, 8,
                               rng=np.random.default_rng(2))
    cfg = tiny_cfg(classifier_epochs=20, classifier_batch=16)
    drawn = DrawnOrders(np.random.default_rng(1))
    with pytest.raises(NonFiniteError) as caught:
        tr.fit_classifier(learner, xs, data.train_y, [0, 1, 2, 3], cfg,
                          np.random.default_rng(0), drawn)
    *before, order = drawn.orders
    assert all(7 not in o for o in before)
    batch = int(np.flatnonzero(order == 7)[0]) // cfg.classifier_batch
    assert str(caught.value) == (f"classifier, epoch {len(before)}, batch "
                                 f"{batch}: non-finite loss")
    assert len(optimizers) == 1
    assert left_as_its_last_step_left_it(optimizers[0])


def test_nan_test_row_fails_evaluation():
    data = sc.synth_dataset(4, DIM, 30, 10, seed=21)
    learner = EncoderProjector(DIM, (32, 32), 16, 8,
                               rng=np.random.default_rng(2))
    head, class_ids = tr.fit_classifier(
        learner, data.train_x, data.train_y, [0, 1, 2, 3],
        tiny_cfg(classifier_epochs=2), np.random.default_rng(0),
        np.random.default_rng(1))
    test_x = data.test_x.copy()
    test_x[3, 0] = np.nan
    with pytest.raises(NonFiniteError, match="^evaluation: non-finite logits$"):
        tr.evaluate(head, learner, class_ids, test_x, data.test_y,
                    [(0, 1), (2, 3)])


# ---------------------------------------------------------------------------
# Image batches prepared ahead on a feeder thread
# ---------------------------------------------------------------------------


def feeder_threads():
    return [t for t in threading.enumerate() if t.name == "osscl-feed"]


@pytest.fixture
def feeds(monkeypatch):
    """The list each training in this process that feeds its batches ahead
    appends to; checks on the way out that no feeder thread is left."""
    made, fed_ahead = [], tr._fed_ahead

    def counted(items):
        made.append(1)
        return fed_ahead(items)

    monkeypatch.setattr(tr, "_fed_ahead", counted)
    yield made
    assert feeder_threads() == []


class PrepareFailed(Exception):
    pass


class PrepareInterrupted(BaseException):
    """Not an Exception, as KeyboardInterrupt and SystemExit are not."""


def test_fed_ahead_keeps_the_order_and_stops_when_left():
    """Under a short GIL switch interval: every item in order, then the
    error in its place, an Exception or not; leaving early (the feeder's
    window full, or not) stops and joins the thread."""
    def failing_after(n, error=PrepareFailed):
        yield from range(n)
        raise error(f"item {n} failed")

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tr._fed_ahead(iter(range(2000))) as items:
            assert list(items) == list(range(2000))
        got = []
        with pytest.raises(PrepareFailed, match="^item 3 failed$"):
            with tr._fed_ahead(failing_after(3)) as items:
                got.extend(items)
        assert got == [0, 1, 2]
        got = []
        interrupted = failing_after(4, PrepareInterrupted)
        with pytest.raises(PrepareInterrupted,
                           match="^item 4 failed$") as caught:
            with tr._fed_ahead(interrupted) as items:
                got.extend(items)
        assert type(caught.value) is PrepareInterrupted
        assert got == [0, 1, 2, 3]
        assert feeder_threads() == []
        for left_after in (0, 1, 5):
            with tr._fed_ahead(iter(range(100))) as items:
                assert [x for _, x in zip(range(left_after), items)] == \
                    list(range(left_after))
            assert feeder_threads() == []
    finally:
        sys.setswitchinterval(switch)
    assert feeder_threads() == []


def test_only_image_runs_with_a_spare_core_feed_ahead(monkeypatch):
    """A spare core is a CPU affinity of two or more CPUs; an OS that cannot
    tell the affinity counts one CPU."""
    image = sc.Augmenter(mode="image")
    assert tr._feeds_ahead(image) is (len(os.sched_getaffinity(0)) > 1)
    assert not tr._feeds_ahead(sc.Augmenter(mode="vector"))
    with on_one_cpu():
        assert not tr._feeds_ahead(image)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert not tr._feeds_ahead(image)


@pytest.mark.parametrize("overrides,trainings", [
    ({}, 4), ({"method": "co2l_j"}, 2), ({"method": "co2l_p"}, 3),
    ({"pretrain_reference": True}, 3)],
    ids=["ursl", "co2l_j", "co2l_p", "pretrain_reference"])
def test_feeding_ahead_moves_no_byte(image_world, in_process, feeds,
                                     monkeypatch, overrides, trainings):
    """Every reference and learner training of the run, fed inline and then
    ahead: the same metrics, loss curves and final state."""
    main, stream, aug = image_world
    runs = []
    for ahead in (False, True):
        monkeypatch.setattr(tr, "_feeds_ahead", lambda augmenter: ahead)
        rep = tr.run_continual(tiny_cfg(**overrides), stream, main, aug,
                               seed=5)
        runs.append((json.dumps(rep.metrics_dict(), sort_keys=True),
                     rep.loss_curves, state_digest(rep.state)))
    assert len(feeds) == trainings
    assert runs[0] == runs[1]


def test_the_teachers_embed_on_the_feeder(image_world, in_process, feeds,
                                          monkeypatch):
    """Fed ahead, both frozen teachers embed their views on the feeder
    thread; inline, on this one. The two runs are byte for byte equal."""
    main, stream, aug = image_world
    train_learner_task = tr.train_learner_task

    class Recorded:
        def __init__(self, teacher, role):
            self.teacher, self.role = teacher, role

        def embed(self, x):
            calls.append((self.role, threading.current_thread().name))
            return self.teacher.embed(x)

    def recorded(*args, td_teacher=None, kd_teacher=None, **kwargs):
        teachers = {role: None if teacher is None else Recorded(teacher, role)
                    for role, teacher in (("td_teacher", td_teacher),
                                          ("kd_teacher", kd_teacher))}
        return train_learner_task(*args, **teachers, **kwargs)

    monkeypatch.setattr(tr, "train_learner_task", recorded)
    runs, names = [], []
    for ahead in (False, True):
        monkeypatch.setattr(tr, "_feeds_ahead", lambda augmenter: ahead)
        calls = []
        rep = tr.run_continual(tiny_cfg(), stream, main, aug, seed=5)
        runs.append((json.dumps(rep.metrics_dict(), sort_keys=True),
                     state_digest(rep.state)))
        names.append(calls)
    inline, fed = names
    assert [role for role, _ in inline] == [role for role, _ in fed]
    assert {role for role, _ in fed} == {"td_teacher", "kd_teacher"}
    assert {name for _, name in inline} == {threading.current_thread().name}
    assert {name for _, name in fed} == {"osscl-feed"}
    assert len(feeds) == 4
    assert runs[0] == runs[1]


def test_feeder_waits_are_phases_of_their_trainers(image_world, in_process,
                                                   feeds, monkeypatch):
    """Fed ahead, the time each side waited for its feeder is a phase of
    its own clock and part of that trainer's phase; inline there is none."""
    main, stream, aug = image_world
    phases = []
    for ahead in (False, True):
        monkeypatch.setattr(tr, "_feeds_ahead", lambda augmenter: ahead)
        rep = tr.run_continual(tiny_cfg(), stream, main, aug, seed=5)
        phases.append(rep.wall_clock)
    inline, fed = phases
    waits = {"reference_feed_wait", "learner_feed_wait"}
    assert set(fed) == set(inline) | waits
    assert 0 <= fed["reference_feed_wait"] <= fed["reference"]
    assert 0 <= fed["learner_feed_wait"] <= fed["learner"]


def assert_next_ursl_run_walks_ahead(tiny_world, walk_ahead, feeds):
    """A vector ursl run after the failed one forks its walk, as the process
    runs one thread again, and prepares its learner's batches inline."""
    main, stream, aug = tiny_world
    assert threading.active_count() == 1
    fed = len(feeds)
    tr.run_continual(tiny_cfg(), stream, main, aug, seed=5)
    assert walk_ahead == [1]
    assert len(feeds) == fed


def test_nan_image_names_the_reference_step_fed_ahead(
        image_world, tiny_world, walk_ahead, feeds, optimizers, epochs,
        monkeypatch):
    """With a spare core an image run feeds ahead. A NaN row in step 2's
    pool fails the reference step that draws it, before Adam applies it."""
    main, stream, aug = image_world
    cfg, walks_ahead = tiny_cfg(), tr._walks_ahead
    monkeypatch.setattr(tr, "_walks_ahead", lambda walk: False)
    with pytest.raises(NonFiniteError) as caught:
        tr.run_continual(cfg, with_nan(stream, 2, "unlabeled_x", 5,
                                       cols=slice(None)),
                         main, aug, seed=5)
    assert feeder_threads() == []
    # epoch 0 of step 2's reference follows step 1's reference and learner;
    # the feeder may have drawn the next epoch's order already
    first = epochs[cfg.epochs_first + cfg.epochs_learner]
    assert str(caught.value) == (f"reference, t=2, epoch 0, batch "
                                 f"{batch_holding(first, 5)}: non-finite loss")
    assert len(optimizers) == len(feeds) == 3
    assert left_as_its_last_step_left_it(optimizers[-1])
    monkeypatch.setattr(tr, "_walks_ahead", walks_ahead)
    assert_next_ursl_run_walks_ahead(tiny_world, walk_ahead, feeds)


def test_feeder_error_is_raised_with_its_type_and_message(
        image_world, tiny_world, walk_ahead, feeds, optimizers, monkeypatch):
    """pair_views fails on the feeder's third call, step 1's reference
    batch 2: the run raises that error after the two steps before it."""
    main, stream, aug = image_world
    pair_views, walks_ahead = sc.Augmenter.pair_views, tr._walks_ahead
    calls = []

    def fails_third_on_the_feeder(self, xs, rng):
        if threading.current_thread().name == "osscl-feed":
            calls.append(1)
            if len(calls) == 3:
                raise PrepareFailed("augmentation failed on call 3")
        return pair_views(self, xs, rng)

    monkeypatch.setattr(sc.Augmenter, "pair_views", fails_third_on_the_feeder)
    monkeypatch.setattr(tr, "_walks_ahead", lambda walk: False)
    with pytest.raises(PrepareFailed) as caught:
        tr.run_continual(tiny_cfg(), stream, main, aug, seed=5)
    assert type(caught.value) is PrepareFailed
    assert str(caught.value) == "augmentation failed on call 3"
    assert feeder_threads() == []
    assert [opt.t for opt in optimizers] == [2]
    assert len(feeds) == 1
    monkeypatch.setattr(tr, "_walks_ahead", walks_ahead)
    assert_next_ursl_run_walks_ahead(tiny_world, walk_ahead, feeds)
