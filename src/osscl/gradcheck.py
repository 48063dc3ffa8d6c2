"""Finite-difference verification of every loss gradient and of the network.

Each named loss gets a batch of randomized configurations (shapes, labels,
temperatures, flag combinations). For each configuration the tape gradient
of the loss with respect to the raw (pre-normalization) embeddings is
compared against central differences in double precision. The last check,
named mlp_embed, differences the step the trainers take without a tape:
a float64 EncoderProjector's forward, losses.ntxent_grad's loss and dL/dz,
and numcore.mlp_backward's flat parameter gradient. The suite is the
backing for the `gradcheck` CLI command and the acceptance gate.
"""

from __future__ import annotations

import numpy as np

from . import losses as L
from .nets import EncoderProjector
from .numcore import (Tape, Tensor, backprop, check_gradients,
                      l2_normalize_rows, mlp_backward)

LOSS_NAMES = ("ntxent", "supcon", "distill_time", "distill_reference",
              "combined", "mlp_embed")
DEFAULT_TOL = 1e-4
_SEED = 2024


def _raw_embeddings(rng, n_sources, dim):
    """Unnormalized float64 view embeddings; the closure normalizes them so
    the check covers the normalization backward as well."""
    return Tensor(rng.normal(0.0, 1.0, size=(2 * n_sources, dim)),
                  requires_grad=True)


def _unit_rows(rng, n_rows, dim):
    z = rng.normal(0.0, 1.0, size=(n_rows, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _tape_check(fn, params):
    """check_gradients of the loss fn records, at backprop's gradients; a
    param the loss does not reach has a zero gradient."""
    with Tape() as tape:
        grads = backprop(tape, fn())
    return check_gradients(lambda: fn().data, [p.data for p in params],
                           [grads.get(p, np.zeros_like(p.data)) for p in params])


def _ntxent_case(rng):
    n = int(rng.integers(2, 7))
    dim = int(rng.integers(3, 9))
    tau = float(rng.uniform(0.05, 0.5))
    x = _raw_embeddings(rng, n, dim)
    return _tape_check(lambda: L.ntxent_loss(l2_normalize_rows(x), tau), [x])


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
    pseudo_anchor = bool(rng.integers(0, 2))
    pseudo_positive = bool(rng.integers(0, 2))
    x = _raw_embeddings(rng, n, dim)

    def fn():
        return L.asym_supcon_loss(
            l2_normalize_rows(x), labels, current, tau, pseudo_flags=pseudo,
            pseudo_anchor=pseudo_anchor, pseudo_positive=pseudo_positive)

    return _tape_check(fn, [x])


def _distill_case(rng):
    n = int(rng.integers(2, 6))
    dim = int(rng.integers(3, 9))
    tau_t = float(rng.uniform(0.02, 0.1))
    tau_s = float(rng.uniform(0.1, 0.5))
    teacher = _unit_rows(rng, 2 * n, dim)
    x = _raw_embeddings(rng, n, dim)
    return _tape_check(lambda: L.distillation_loss(
        teacher, l2_normalize_rows(x), tau_t, tau_s), [x])


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
    td_teacher = _unit_rows(rng, 2 * n, dim)
    kd_teacher = _unit_rows(rng, 2 * n, dim)
    x_sup = _raw_embeddings(rng, n, dim)
    x_kd = _raw_embeddings(rng, n, dim)

    def fn():
        z = l2_normalize_rows(x_sup)
        l_sup = L.asym_supcon_loss(z, labels, current, weights.tau)
        l_td = L.distillation_loss(td_teacher, z, weights.tau_teacher,
                                   weights.tau_student)
        zk = l2_normalize_rows(x_kd)
        l_kd = L.distillation_loss(kd_teacher, zk, weights.tau_teacher,
                                   weights.tau_student)
        return L.combined_loss(l_sup, l_td, l_kd, weights, t=2)

    return _tape_check(fn, [x_sup, x_kd])


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
                           [net.params.data], [grad])


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
