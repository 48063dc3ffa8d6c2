"""The benchmark's tracer (perfbench/tracer.py) patches osscl functions and
methods by name. Tier-1 collects only tests/, so this guard makes a renamed
or deleted traced name fail here rather than in every traced benchmark round,
and a tiny traced run must keep the untraced run's metrics bytes.
"""

import importlib
import os
import sys

import numpy as np

from osscl import losses
from osscl import numcore as nc
from osscl import scenario as sc
from osscl import trainer as tr

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench")


def _perfbench(module):
    """A module of perfbench/, imported by name."""
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module(module)
    finally:
        sys.path.remove(PERFBENCH)


def _tracer():
    """A new perfbench Tracer, not yet installed."""
    return _perfbench("tracer").Tracer()


def test_tracer_installs_and_restores_every_binding():
    tracer = _tracer().install()
    patched = list(tracer._patches)
    try:
        assert patched
        assert all(owner.__dict__[attr] is not original
                   for owner, attr, original in patched)
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is original
               for owner, attr, original in patched)
    # the tracer binds losses' alias of pairwise_cosine and Adam.step by name
    assert losses.pairwise_cosine is nc.pairwise_cosine
    assert nc.Adam.step.__name__ == "step"
    assert not hasattr(nc.Adam.step, "__wrapped__")


RECORDING_OPS = ("affine", "relu", "l2_normalize_rows", "pairwise_cosine",
                 "row_log_softmax", "softmax_xent", "mask_fill", "add", "mul",
                 "scale", "gather2d", "total_sum")


def test_tracer_names_a_backward_span_after_every_recording_op():
    """The tracer names each backward span from its closure's qualname, so
    a backward defined outside its op would lose its numcore.<op>.bwd."""
    rng = np.random.default_rng(0)
    x = nc.Tensor(rng.standard_normal((4, 3)), dtype=np.float64)
    w = nc.Tensor(rng.standard_normal((3, 2)), requires_grad=True,
                  dtype=np.float64)
    b = nc.Tensor(np.zeros(2), requires_grad=True, dtype=np.float64)
    cols = np.array([1, 2, 3, 0])
    tracer = _tracer().install()
    try:
        with nc.Tape() as tape:
            a = nc.affine(x, w, b)
            e = nc.l2_normalize_rows(a)
            u = nc.l2_normalize_rows(nc.add(nc.relu(a), e))
            s = nc.scale(nc.pairwise_cosine(u, e), 2.0)
            logp = nc.row_log_softmax(
                nc.mask_fill(s, ~np.eye(4, dtype=bool)))
            picked = nc.gather2d(logp, np.arange(4), cols)
            loss = nc.add(nc.total_sum(nc.mul(picked, picked)),
                          nc.softmax_xent(e, 0.5, cols, 1.0))
            grads = nc.backprop(tape, loss)
    finally:
        tracer.restore()
    assert set(grads) == {w, b}
    spans = {name for name in tracer.summary()["spans"]
             if name.endswith(".bwd")}
    assert spans == {f"numcore.{op}.bwd" for op in RECORDING_OPS}


def test_a_traced_run_keeps_the_untraced_metrics_digest():
    """Tracing a tiny run_continual changes no byte of its metrics; the
    classifier head is the one part of the run still on a tape."""
    seed_record = _perfbench("workloads").seed_record
    main = sc.synth_dataset(4, 8, 40, 20, seed=7)
    stream = sc.build_stream(
        sc.ScenarioConfig(n_tasks=2, classes_per_task=2, labeled_fraction=0.1,
                          n_related=60, n_unrelated=60, seed=3),
        main, [sc.synth_dataset(4, 8, 80, 0, seed=70)])
    cfg = tr.MethodConfig(epochs_first=2, epochs_later=1, epochs_learner=2,
                          classifier_epochs=3, batch_size=32, memory_size=12)
    aug = sc.Augmenter(mode="vector", sigma=0.5, dropout=0.1)

    def digest():
        report = tr.run_continual(cfg, stream, main, aug, seed=5)
        return seed_record(report.metrics_dict())["digest"]

    plain = digest()
    tracer = _tracer().install()
    try:
        traced = digest()
    finally:
        tracer.restore()
    assert traced == plain
    summary = tracer.summary()
    assert summary["spans"]["trainer.run_continual"][0] == 1
    assert summary["spans"]["trainer.fit_classifier"][0] == 1
    assert summary["counters"]["tape_entries"] > 0
