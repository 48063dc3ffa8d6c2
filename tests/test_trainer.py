"""Trainer tests: config validation, phase trainers, invariants, full runs.

The heavyweight end-to-end trend checks live in test_acceptance.py; here the
runs use a deliberately tiny scenario (2 tasks, 8-dim blobs, single-digit
epochs) so the whole file stays fast while still exercising every branch of
the orchestration: method reduction, variant equivalence, snapshot and
gradient isolation, determinism, and the classifier/eval protocol.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from osscl import losses as L
from osscl import scenario as sc
from osscl import trainer as tr
from osscl.cli import THREAD_VARS
from osscl.nets import EncoderProjector
from osscl.numcore import NonFiniteError, Tape
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


def probe_ntxent(net, views, tau=0.1):
    with Tape():
        return float(L.ntxent_loss(net.embed(views), tau).data)


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
        assert tr.MethodConfig(method="co2l").use_kd is False
        assert tr.MethodConfig(method="co2l_j", use_kd=True).use_kd is False

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
    frozen_before = snap.embed(probe).data.copy()
    live_before = net.embed(probe).data.copy()
    sel = np.isin(main.train_y, [0, 1])
    flags = np.zeros(sel.sum(), dtype=bool)
    tr.train_learner_task(net, main.train_x[sel], main.train_y[sel], flags,
                          (0, 1), 2, tiny_cfg(), aug,
                          np.random.default_rng(3), td_teacher=snap)
    assert np.array_equal(snap.embed(probe).data, frozen_before)
    assert not np.array_equal(net.embed(probe).data, live_before)


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


def test_teachers_stay_off_the_learner_tape(tiny_world, monkeypatch):
    """No teacher forward pass is recorded on the learner's tape: nothing
    there may descend from a reference parameter."""
    main, _, aug = tiny_world
    tapes = []

    class KeptTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(tr, "Tape", KeptTape)
    learner = EncoderProjector(DIM, (32, 32), 16, 8,
                               rng=np.random.default_rng(0))
    reference = EncoderProjector(DIM, (32, 32), 16, 8,
                                 rng=np.random.default_rng(1))
    sel = np.isin(main.train_y, [0, 1])
    flags = np.zeros(sel.sum(), dtype=bool)
    tr.train_learner_task(learner, main.train_x[sel], main.train_y[sel], flags,
                          (0, 1), 2, tiny_cfg(epochs_learner=1), aug,
                          np.random.default_rng(3),
                          td_teacher=learner.snapshot(), kd_teacher=reference,
                          kd_pool=main.train_x[:60])
    assert tapes and all(len(tape) for tape in tapes)
    for tape in tapes:
        from_reference = {id(reference.params)}
        tainted = []
        for out, parents, _ in tape._entries:
            if any(id(p) in from_reference for p in parents):
                from_reference.add(id(out))
                tainted.append(out)
        assert tainted == []


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

    logits = head.classify(learner.encoder_features(data.test_x).data).data
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
    logits = head.classify(
        learner.encoder_features(data.test_x[keep]).data).data
    pred = class_ids[logits.argmax(axis=1)]
    assert final == pytest.approx(float((pred == data.test_y[keep]).mean()))
    assert len(per_task) == 1


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
# image-mode twin (8x8 RGB rows) under ursl, seed 5. Prints per run the
# metrics digest and a digest of report.state (both nets' parameters, the
# memory arrays and the walk's three RNG states), then the BLAS thread count
# on entry and how many processes the runs forked.
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
blas = tr._blas_threads()
threads = blas[0]() if blas else None
vector = T.build_tiny_world(sc.Augmenter(mode="vector", sigma=0.5,
                                         dropout=0.1))
image = T.build_tiny_world(sc.Augmenter(mode="image", image_hw=8),
                           dim=3 * 8 * 8)
for (main, stream, aug), overrides in (
        (vector, {}), (vector, {"seg_variant": "v1"}),
        (vector, {"memory_policy": "rainbow"}), (vector, {"method": "co2l_p"}),
        (image, {})):
    rep = tr.run_continual(T.tiny_cfg(**overrides), stream, main, aug, seed=5)
    text = json.dumps(rep.metrics_dict(), sort_keys=True)
    print(hashlib.sha256(text.encode()).hexdigest(), T.state_digest(rep.state))
print(f"threads={threads}", f"forks={len(forks)}")
"""


def state_digest(state):
    """sha256 over a RunState: both nets' parameters, the memory arrays and
    the bit-generator states of the walk's RNGs."""
    h = hashlib.sha256()
    for net in (state.reference, state.learner):
        if net is not None:
            h.update(net.params.data.tobytes())
    for array in state.memory.items():
        h.update(array.tobytes())
    for role in ("ref", "proto", "memory"):
        h.update(repr(state.rngs[role].bit_generator.state).encode())
    return h.hexdigest()


def stdout_at_blas_thread_counts(script):
    """The words script prints, run in a fresh process whose BLAS/OpenMP
    thread variables are all 1, then in one where they are all 2 (one
    process at a time), with the source and test directories as arguments."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sc.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    words = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env.update({var: threads for var in THREAD_VARS})
        done = subprocess.run(
            [sys.executable, "-c", script, src, tests], env=env,
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        words.append(done.stdout.split())
    return words


def test_rerun_is_bitwise_identical_across_blas_thread_counts():
    """The same run at one and at two BLAS threads gives byte-identical
    metrics and final state. At one thread every walk runs in-process; at
    two, each of the four ursl runs walks ahead in a forked process."""
    serial, ahead = stdout_at_blas_thread_counts(_DIGEST_SCRIPT)
    assert len(serial) == 2 * 5 + 2
    assert serial[:-2] == ahead[:-2]
    assert serial[-1] == "forks=0"
    if tr._blas_threads() is not None and len(os.sched_getaffinity(0)) > 1:
        assert ahead[-2:] == ["threads=2", "forks=4"]


@pytest.fixture
def walk_ahead(monkeypatch):
    """Two BLAS threads, so ursl runs walk ahead; yields the list os.fork
    appends to, and checks on the way out that the run left no process and
    the thread count it found."""
    import multiprocessing

    blas = tr._blas_threads()
    if blas is None or "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the walk runs ahead only with fork and numpy's bundled "
                    "OpenBLAS")
    get, put = blas
    before = get()
    put(2)
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    try:
        yield forks
        assert multiprocessing.active_children() == []
        assert get() == 2
    finally:
        put(before)


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


# One NT-Xent step at desk scale, where the tiny world's 64 x 64 Grams are
# 16x smaller than the products BLAS splits across threads: 256 float32 views
# through a 16-64-64-32-16 net (mlp_embed), the loss and its backward; prints
# the loss bytes and a digest of the flat parameter gradient.
_DESK_STEP_SCRIPT = """
import hashlib, sys
sys.path[:0] = sys.argv[1:3]
import numpy as np
from osscl import losses, nets, numcore as nc
rng = np.random.default_rng(0)
net = nets.EncoderProjector(16, rng=rng)
x = nc.Tensor(rng.standard_normal((256, 16)).astype(np.float32))
with nc.Tape() as tape:
    loss = losses.ntxent_loss(net.embed(x), 0.1)
    grads = nc.backprop(tape, loss)
print(loss.data.tobytes().hex(),
      hashlib.sha256(grads[net.params].tobytes()).hexdigest())
"""


def test_desk_scale_step_is_bitwise_identical_across_blas_thread_counts():
    words = stdout_at_blas_thread_counts(_DESK_STEP_SCRIPT)
    assert len(words[0]) == 2
    assert words[0] == words[1]


# The bitwise rerun contract as literals: sha256[:16] of the sorted-key
# metrics JSON of run_continual(tiny_cfg(**overrides), ..., seed=5) on the tiny
# world (vector) and its image-mode twin. Float bytes depend on the numpy and
# BLAS build, so the pins hold only on the build they were taken on.
_PINNED_NUMPY = "2.4.6"
_PINNED_BLAS = ("OpenBLAS 0.3.31.188.0 USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
                "Haswell MAX_THREADS=64")
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
    ("image", {}, "1403dcb9ef113d3f"),
    ("image", {"method": "co2l_j"}, "404a25547534e86f"),
]


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
    build = (np.__version__, _blas_configuration())
    if build != (_PINNED_NUMPY, _PINNED_BLAS):
        pytest.skip(f"digests pinned on numpy {_PINNED_NUMPY} with "
                    f"{_PINNED_BLAS!r}; this is numpy {build[0]} with "
                    f"{build[1]!r}")
    main, stream, aug = tiny_world if mode == "vector" else image_world
    rep = tr.run_continual(tiny_cfg(**overrides), stream, main, aug, seed=5)
    text = json.dumps(rep.metrics_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


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


def test_memory_stays_within_capacity(tiny_world):
    main, stream, aug = tiny_world
    rep = tr.run_continual(tiny_cfg(), stream, main, aug, seed=5)
    for counts in rep.memory_counts:
        assert sum(counts.values()) <= 12


def test_empty_stream_rejected(tiny_world):
    main, stream, aug = tiny_world
    empty = sc.Stream(steps=(), config=stream.config)
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
    put = tr._blas_threads()[1]
    put(1)
    try:
        serial = tr.run_continual(tiny_cfg(), stream, main, aug, seed=5)
    finally:
        put(2)
    assert walk_ahead == [1]
    assert sorted(ahead.wall_clock) == sorted(serial.wall_clock)
    # the walk's three roles; the learner's RNGs stay with run_continual
    assert sorted(ahead.state.rngs) == ["memory", "proto", "ref"]
    assert state_digest(ahead.state) == state_digest(serial.state)
