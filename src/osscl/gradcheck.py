"""Finite-difference verification of every loss gradient and of the network.

Each line checks a kernel that training runs, in double precision, on a
batch of randomized configurations (shapes, labels, temperatures, flag
combinations). The loss lines take raw (pre-normalization) embeddings
through numcore.unit_rows, so they cover its backward (unit_rows_grad) as
well, and compare the resulting gradient with central differences of the
loss: ntxent differences losses.ntxent_grad; supcon and the two distill
lines numcore.softmax_xent_grad at the supervised and distillation targets;
combined losses.learner_objective at t=2 with time and reference
distillation. The last line, mlp_embed, differences the whole step the
trainers take: a float64 EncoderProjector's forward, losses.ntxent_grad's
loss and dL/dz, and numcore.mlp_backward's flat parameter gradient. The
suite is the backing for the `gradcheck` CLI command and the acceptance
gate.
"""

from __future__ import annotations

import numpy as np

from . import losses as L
from .nets import EncoderProjector
from .numcore import (check_gradients, mlp_backward, softmax_xent_grad,
                      unit_rows, unit_rows_grad)

LOSS_NAMES = ("ntxent", "supcon", "distill_time", "distill_reference",
              "combined", "mlp_embed")
DEFAULT_TOL = 1e-4
_SEED = 2024


def _raw_embeddings(rng, n_sources, dim):
    """Unnormalized float64 view embeddings [2 * n_sources, dim]."""
    return rng.normal(0.0, 1.0, size=(2 * n_sources, dim))


def _raw_check(grad_fn, *raws):
    """check_gradients of a loss of the unit rows of each of the raw arrays.

    grad_fn(*units) returns the loss and then its gradient with respect to
    each of its arguments; the gradient of each raw array is unit_rows_grad
    of its unit rows' gradient."""
    units = [unit_rows(x) for x in raws]
    grads = grad_fn(*(y for y, _ in units))[1:]
    return check_gradients(
        lambda: grad_fn(*(unit_rows(x)[0] for x in raws))[0], raws,
        [unit_rows_grad(g, y, norms) for g, (y, norms) in zip(grads, units)])


def _xent_check(x, tau, target):
    """_raw_check of one contrastive term of x's unit rows: softmax_xent_grad
    of target at factor -1 and loss gradient 1."""
    def grad_fn(z):
        loss, (a, b) = softmax_xent_grad(z, tau, target, -1.0, np.ones(()))
        return loss, a + b

    return _raw_check(grad_fn, x)


def _ntxent_case(rng):
    n = int(rng.integers(2, 7))
    dim = int(rng.integers(3, 9))
    tau = float(rng.uniform(0.05, 0.5))
    return _raw_check(lambda z: L.ntxent_grad(z, tau),
                      _raw_embeddings(rng, n, dim))


def _supcon_case(rng):
    n = int(rng.integers(2, 7))
    dim = int(rng.integers(3, 9))
    tau = float(rng.uniform(0.05, 0.5))
    n_classes = int(rng.integers(2, 5))
    labels = rng.integers(0, n_classes, size=n)
    current = frozenset(int(c) for c in
                        rng.choice(n_classes, size=max(1, n_classes // 2),
                                   replace=False))
    pseudo = rng.random(n) < 0.3
    x = _raw_embeddings(rng, n, dim)
    target = L._supcon_target(2 * n, x.dtype, labels, current, tau, pseudo)
    return _xent_check(x, tau, target)


def _distill_case(rng):
    n = int(rng.integers(2, 6))
    dim = int(rng.integers(3, 9))
    tau_t = float(rng.uniform(0.02, 0.1))
    tau_s = float(rng.uniform(0.1, 0.5))
    teacher = unit_rows(_raw_embeddings(rng, n, dim))[0]
    x = _raw_embeddings(rng, n, dim)
    return _xent_check(x, tau_s, L._distill_target(teacher, 2 * n, tau_t))


def _combined_case(rng):
    n = int(rng.integers(2, 5))
    dim = int(rng.integers(3, 8))
    weights = L.LossWeights(
        tau=float(rng.uniform(0.05, 0.5)),
        tau_teacher=float(rng.uniform(0.02, 0.1)),
        tau_student=float(rng.uniform(0.1, 0.5)),
        td_weight=float(rng.uniform(0.05, 0.5)),
        kd_weight=float(rng.uniform(0.05, 0.5)))
    n_classes = 3
    labels = rng.integers(0, n_classes, size=n)
    current = frozenset(int(c) for c in labels[:max(1, n // 2)])
    td_teacher = unit_rows(_raw_embeddings(rng, n, dim))[0]
    kd_teacher = unit_rows(_raw_embeddings(rng, n, dim))[0]
    x_sup = _raw_embeddings(rng, n, dim)
    x_kd = _raw_embeddings(rng, n, dim)

    def grad_fn(z, zk):
        out = L.learner_objective(z, 2, weights, labels, current,
                                  td_teacher=td_teacher, kd_teacher=kd_teacher,
                                  kd_student=zk)
        return out.total, out.grads["z"], out.grads["kd_student"]

    return _raw_check(grad_fn, x_sup, x_kd)


def _mlp_embed_case(rng):
    n = int(rng.integers(2, 5))
    input_dim = int(rng.integers(3, 7))
    hidden = tuple(int(h) for h in rng.integers(6, 11, size=rng.integers(1, 3)))
    net = EncoderProjector(input_dim, hidden, int(rng.integers(4, 9)),
                           int(rng.integers(3, 7)), rng=rng, dtype=np.float64)
    # positive biases keep units alive (init leaves them at zero), so that
    # every layer passes gradient and no embedding row is all zero
    for b in net.param_arrays()[1::2]:
        b[...] = rng.uniform(0.1, 0.5, size=b.shape)
    x = rng.normal(0.0, 1.0, size=(2 * n, input_dim))
    tau = float(rng.uniform(0.1, 0.5))
    z, cache = net.forward(x)
    grad = mlp_backward(cache, L.ntxent_grad(z, tau)[1])
    return check_gradients(lambda: L.ntxent_grad(net.embed(x), tau)[0],
                           [net.params], [grad])


_CASES = {
    "ntxent": _ntxent_case,
    "supcon": _supcon_case,
    "distill_time": _distill_case,
    "distill_reference": _distill_case,
    "combined": _combined_case,
    "mlp_embed": _mlp_embed_case,
}


def run_suite(n_configs=20):
    """Gradcheck every loss, and the network, on n_configs random setups each.

    Returns {loss_name: worst relative error}. A suite passes when every
    entry is strictly below DEFAULT_TOL.
    """
    if n_configs < 1:
        raise ValueError("n_configs must be >= 1")
    results = {}
    for name in LOSS_NAMES:
        worst = 0.0
        for i in range(n_configs):
            rng = np.random.default_rng([_SEED, LOSS_NAMES.index(name), i])
            worst = max(worst, _CASES[name](rng))
        results[name] = worst
    return results


def suite_passes(results):
    return all(err < DEFAULT_TOL for err in results.values())
