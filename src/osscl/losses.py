"""Contrastive and distillation losses over batches of paired views.

Conventions shared by every loss here:
  * A batch of N sources becomes 2N views, interleaved so views 2k and 2k+1
    come from source k. Adjacent pairing is assumed throughout.
  * Losses consume unit-norm embeddings (rows on the sphere); similarity is
    the dot product, i.e. cosine.
  * Every contrastive loss is -sum(W * log softmax_offdiag(Z Z^T / tau)) and
    differs only in its constant target W, so each one builds W and makes one
    call to numcore.softmax_xent, the one fused tape op. Self-similarity
    never takes part in a softmax.
  * A teacher's embeddings are a plain array (EncoderProjector.embed and
    ParamSnapshot.embed return one), a constant of the loss.
  * Z Z^T, here and inside softmax_xent, is numcore._gram's product.

ntxent_loss, asym_supcon_loss, distillation_loss and combined_loss record on
a numcore Tape; no run calls them, and the tests compare the explicit step
against them. The trainers take the explicit step: ntxent_grad and
learner_objective take plain arrays and return the loss with dL/dz per
embedding. They build the same targets and call numcore.softmax_xent_grad,
which runs each term's backward before it returns, at the loss gradient
backprop would hand it, and they add the halves of dL/dz in backprop's
order, so every loss and gradient is bitwise the tape composition's.
`osscl gradcheck` differences these explicit functions, not the tape losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numcore import (NonFiniteError, _gram, _subtract_row_max, add, scale,
                      softmax_xent, softmax_xent_grad)
# pairwise_cosine stays a name of this module: the benchmark's tracer patches
# and checks the bindings it finds here
from .numcore import pairwise_cosine  # noqa: F401


class MissingLabelsError(ValueError):
    """A supervised loss was called without labels."""


@dataclass(frozen=True)
class LossWeights:
    """Temperatures and mixing weights of the combined objective.

    tau is the contrastive temperature, tau_teacher and tau_student the
    sharper/softer temperatures of the similarity distributions used for
    distillation, td_weight scales past-self distillation and kd_weight
    scales reference distillation. Both weights act on per-anchor means (see
    learner_objective), so they mean the same at any batch size and any mix
    of memory and pseudo-labeled views. A config's `method.weights` section
    holds these fields with these defaults; their ranges are checked here.
    """

    tau: float = 0.1
    tau_teacher: float = 0.01
    tau_student: float = 0.2
    td_weight: float = 0.2
    kd_weight: float = 0.2

    def __post_init__(self):
        # NaN fails every comparison
        for name in ("tau", "tau_teacher", "tau_student"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("td_weight", "kd_weight"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")


def expand_per_view(values):
    """Repeat per-source annotations onto views: [a, b] -> [a, a, b, b]."""
    return np.repeat(np.asarray(values), 2, axis=0)


def ntxent_loss(embeddings, tau):
    """Normalized temperature-scaled cross entropy over 2N interleaved views.

    For each view the positive is its pair partner; the denominator runs over
    every other view. Mean over all 2N anchor terms. A single source (2 views)
    yields exactly 0 since the softmax has one candidate.

    Args:
        embeddings: Tensor [2N, d], unit rows, on the tape.
        tau: temperature > 0.
    """
    return softmax_xent(embeddings, *_ntxent_args(embeddings.shape[0], tau))


def _ntxent_args(v, tau):
    """softmax_xent's (tau, target, factor) for NT-Xent over v views."""
    if v < 2 or v % 2 != 0:
        raise ValueError(f"need an even number >= 2 of views, got {v}")
    if tau <= 0:
        raise ValueError("tau must be positive")
    return tau, np.arange(v) ^ 1, -1.0 / v


def ntxent_grad(z, tau):
    """ntxent_loss of an array z [2N, d] as the explicit step takes it:
    (loss, dL/dz) at loss gradient 1, bitwise ntxent_loss and backprop."""
    loss, (a, b) = softmax_xent_grad(z, *_ntxent_args(z.shape[0], tau),
                                     np.ones((), dtype=z.dtype))
    return loss, a + b


def supcon_anchors(labels, current_classes, pseudo_flags=None):
    """Which views anchor asym_supcon_loss, and each anchor's positive set.

    Returns (active [2N] bool, positives [2N, 2N] bool). A view is active
    when its label is in current_classes, it is not pseudo-labeled, and it
    has at least one positive: another view with the same label,
    pseudo-labeled views included.
    """
    view_labels = expand_per_view(labels)
    v = len(view_labels)
    if pseudo_flags is None:
        view_pseudo = np.zeros(v, dtype=bool)
    else:
        view_pseudo = expand_per_view(np.asarray(pseudo_flags, dtype=bool))
    current = np.asarray(list(current_classes), dtype=view_labels.dtype)
    anchors = (view_labels[:, None] == current).any(axis=1) & ~view_pseudo
    positives = view_labels[:, None] == view_labels[None, :]
    np.fill_diagonal(positives, False)
    return anchors & positives.any(axis=1), positives


def asym_supcon_loss(embeddings, labels, current_classes, tau,
                     pseudo_flags=None):
    """Supervised contrastive loss with anchors restricted to current-task views.

    Views whose label is in current_classes act as anchors; every same-label
    view (current or past) is a positive. The per-anchor term averages the
    log-probabilities of its positive set, and the total is normalized by the
    view count 2N regardless of how many views anchor (learner_objective
    rescales it to a mean over the active anchors). Pseudo-labeled views are
    positives but never anchor.

    Args:
        embeddings: Tensor [2N, d], unit rows, on the tape.
        labels: per-source integer labels, length N.
        current_classes: iterable of class ids of the current task.
        tau: temperature > 0.
        pseudo_flags: optional per-source bools, True = pseudo-labeled.

    Returns a 0-d Tensor; exactly 0 when no view anchors or no anchor has a
    positive.
    """
    target = _supcon_target(embeddings.shape[0], embeddings.dtype, labels,
                            current_classes, tau, pseudo_flags)
    return softmax_xent(embeddings, tau, target, -1.0)


def _supcon_target(v, dtype, labels, current_classes, tau, pseudo_flags,
                   anchors=None):
    """asym_supcon_loss's target W [v, v] in dtype, after its checks;
    anchors are supcon_anchors of these arguments when the caller has them."""
    if labels is None:
        raise MissingLabelsError("asym_supcon_loss requires labels")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if 2 * len(labels) != v:
        raise ValueError(f"labels length {len(labels)} != n_sources {v // 2}")
    if anchors is None:
        anchors = supcon_anchors(labels, current_classes, pseudo_flags)
    active, positives = anchors
    # each active row's share (1 / count) / v, in float64 and then one
    # rounding to dtype, on its positives: 1 * share is share, 0 * share +0
    share = np.zeros(v, dtype=dtype)
    share[active] = 1.0 / positives.sum(axis=1)[active] / v
    return positives * share[:, None]


def similarity_distribution(embeddings, tau):
    """Softmax over pairwise cosines at temperature tau, diagonal excluded.

    Returns [2N, 2N] probabilities with an exact zero diagonal; each row
    sums to 1. Pure numpy, no tape involvement; both distillation teachers
    go through this path. The logits are numcore._gram(z) / tau, and the
    softmax is computed in place in that one array.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    z = np.asarray(embeddings)
    if z.ndim != 2 or z.shape[0] < 2:
        raise ValueError("need at least two views")
    sim = _gram(z)
    sim /= tau
    np.fill_diagonal(sim, -np.inf)
    _subtract_row_max(sim)
    np.exp(sim, out=sim)
    sim /= sim.sum(axis=1, keepdims=True)
    return sim


def distillation_loss(teacher_embeddings, student_embeddings, tau_teacher, tau_student):
    """Cross entropy from a frozen teacher's similarity rows to the student's.

    L = sum_i sum_{j != i} -p_teacher[i, j] * log p_student[i, j], summed (not
    averaged) over the 2N anchor views; learner_objective divides it by 2N.
    The teacher side is a constant; only the student embeddings receive
    gradient.

    Args:
        teacher_embeddings: array [2N, d] of unit rows, a constant.
        student_embeddings: Tensor [2N, d], unit rows, on the tape.
        tau_teacher: teacher temperature (sharper, e.g. 0.01).
        tau_student: student temperature (softer, e.g. 0.2).
    """
    target = _distill_target(teacher_embeddings, student_embeddings.shape[0],
                             tau_teacher)
    return softmax_xent(student_embeddings, tau_student, target, -1.0)


def _distill_target(teacher, v, tau_teacher):
    """distillation_loss's target: the teacher's similarity_distribution."""
    if teacher.shape[0] != v:
        raise ValueError(f"teacher has {teacher.shape[0]} views, student has {v}")
    return similarity_distribution(teacher, tau_teacher)


def combined_loss(l_sup, l_td, l_kd, weights, t, l_unsup=None):
    """L_sup + td_weight * L_TD + kd_weight * L_KD + L_unsup with absent
    terms dropped.

    The weights scale whatever they are given; in the learner objective each
    term is already a per-anchor mean (learner_objective). The first term
    that is not finite raises NonFiniteError naming it (sup, td, kd or
    unsup).

    Args:
        l_sup, l_td, l_kd: 0-d Tensors or None for disabled terms.
        l_unsup: co2l_j's joint unsupervised term, added unweighted, or None.
        weights: LossWeights.
        t: 1-based time step; a TD term at t == 1 is rejected since there is
            no past learner to distill from.
    """
    _check_step(t, l_td is not None)
    total = None
    for name, term, weight in (("sup", l_sup, None),
                               ("td", l_td, weights.td_weight),
                               ("kd", l_kd, weights.kd_weight),
                               ("unsup", l_unsup, None)):
        if term is None:
            continue
        _require_finite_term(name, term.data)
        term = term if weight is None else scale(term, weight)
        total = term if total is None else add(total, term)
    if total is None:
        raise ValueError("combined_loss needs at least one term")
    return total


def _check_step(t, distills_time):
    if t < 1:
        raise ValueError("t is 1-based")
    if distills_time and t == 1:
        raise ValueError("time distillation needs a past learner, none exists at t=1")


def _require_finite_term(name, value):
    if not np.isfinite(value):
        raise NonFiniteError(f"non-finite {name} term")


@dataclass(frozen=True)
class Objective:
    """learner_objective's result.

    total: the 0-d loss.
    terms: {name: (term, weighted)} for each term present, in the order sup,
        td, kd, unsup: the per-anchor mean, and what it adds to total.
    grads: {argument: dL/d(embedding)} for each of z, kd_student and
        unsup_student that some term reads.
    """

    total: np.ndarray
    terms: dict
    grads: dict


def learner_objective(z, t, weights, labels, current_classes, pseudo_flags=None,
                      use_sup=True, td_teacher=None, kd_teacher=None,
                      kd_student=None, unsup_student=None):
    """The learner's combined loss with every term a mean over its anchors,
    and its gradient per embedding, without a tape; returns an Objective.

    Each term is reduced to a per-anchor mean before td_weight and
    kd_weight apply:
      * supervised: asym_supcon_loss (normalized by 2N) times 2N / A, where A
        counts the active anchors of supcon_anchors (current-task, non-pseudo
        views with a positive); exactly 0 when A = 0;
      * time distillation: distillation_loss (summed over the 2N views of the
        supervised batch) divided by 2N;
      * reference distillation: distillation_loss over its own batch divided
        by that batch's view count;
      * co2l_j's joint unsupervised term: ntxent_loss of its own batch (a
        mean over its views already), added last and unweighted.
    So td_weight and kd_weight set the weight of one anchor's distillation
    against one anchor's supervision, whatever the batch size or the share of
    memory and pseudo-labeled views in it.

    Everything is bitwise the tape composition: the unsupervised term, then
    asym_supcon_loss, distillation_loss and the per-anchor scale of each,
    combined_loss, and backprop from the total. Each term's softmax_xent
    runs its backward at once (numcore.softmax_xent_grad), at the product of
    the scale factors above it as backprop would hand it, and the halves of
    dL/dz go into z last term first, as backprop adds them. The checks are
    combined_loss's and the three losses'.

    Args:
        z: array [2N, d], the learner's unit embeddings of the supervised
            batch.
        t: 1-based time step; time distillation at t == 1 is rejected.
        weights: LossWeights.
        labels, current_classes, pseudo_flags: as for asym_supcon_loss.
        use_sup: include the supervised term.
        td_teacher: the past learner's embeddings of the same views, or None.
        kd_teacher, kd_student: the reference's and the learner's embeddings
            of the reference-distillation batch, or None.
        unsup_student: the learner's embeddings of co2l_j's unsupervised
            batch, or None.
    """
    _check_step(t, td_teacher is not None)
    one = np.ones((), dtype=z.dtype)
    terms, halves = {}, {}

    def term(name, student, args, per_anchor=None, weight=None):
        # backprop hands this term's softmax_xent the product of the scale
        # factors above it, the weight first
        if weight is not None and not math.isfinite(weight):
            raise NonFiniteError("scale factor must be finite")
        g = one if weight is None else one * float(weight)
        if per_anchor is not None:
            g = g * float(per_anchor)
        loss, parts = softmax_xent_grad(student, *args, g)
        if per_anchor is not None:
            loss = loss * loss.dtype.type(per_anchor)
        terms[name] = (loss, loss if weight is None
                       else loss * loss.dtype.type(weight))
        halves[name] = parts

    if unsup_student is not None:
        term("unsup", unsup_student,
             _ntxent_args(unsup_student.shape[0], weights.tau))
    v = z.shape[0]
    if use_sup:
        anchors = supcon_anchors(labels, current_classes, pseudo_flags)
        n_active = int(anchors[0].sum())
        target = _supcon_target(v, z.dtype, labels, current_classes,
                                weights.tau, pseudo_flags, anchors)
        term("sup", z, (weights.tau, target, -1.0),
             v / n_active if n_active else None)
    if td_teacher is not None:
        target = _distill_target(td_teacher, v, weights.tau_teacher)
        term("td", z, (weights.tau_student, target, -1.0), 1.0 / v,
             weights.td_weight)
    if kd_teacher is not None:
        vk = kd_student.shape[0]
        target = _distill_target(kd_teacher, vk, weights.tau_teacher)
        term("kd", kd_student, (weights.tau_student, target, -1.0), 1.0 / vk,
             weights.kd_weight)

    total = None
    order = [name for name in ("sup", "td", "kd", "unsup") if name in terms]
    for name in order:
        _require_finite_term(name, terms[name][0])
        weighted = terms[name][1]
        total = weighted if total is None else total + weighted
    if total is None:
        raise ValueError("learner_objective needs at least one term")

    # per embedding, backprop adds the halves of the last-recorded term first
    grads = {}
    for arg, names in (("z", ("td", "sup")), ("kd_student", ("kd",)),
                       ("unsup_student", ("unsup",))):
        parts = [p for name in names if name in halves for p in halves[name]]
        if parts:
            grads[arg] = parts[0] + parts[1]
            for p in parts[2:]:
                grads[arg] += p
    return Objective(np.asarray(total), {name: terms[name] for name in order},
                     grads)
