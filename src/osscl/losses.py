"""Contrastive and distillation losses over batches of paired views.

Conventions shared by every loss here:
  * A batch of N sources becomes 2N views, interleaved so views 2k and 2k+1
    come from source k. Adjacent pairing is assumed throughout.
  * Losses consume unit-norm embeddings (rows on the sphere); similarity is
    the dot product, i.e. cosine.
  * Every contrastive loss is -sum(W * log softmax_offdiag(Z Z^T / tau)) and
    differs only in its constant target W, so each one builds W and makes one
    call to the fused op numcore.softmax_xent. Self-similarity never takes
    part in a softmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import Tensor, add, scale, softmax_xent
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
    of memory and pseudo-labeled views.
    """

    tau: float = 0.1
    tau_teacher: float = 0.01
    tau_student: float = 0.2
    td_weight: float = 0.2
    kd_weight: float = 0.2

    def __post_init__(self):
        for name in ("tau", "tau_teacher", "tau_student"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("td_weight", "kd_weight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def _as_constant(emb):
    """Teacher embeddings enter losses as plain data, never as graph nodes."""
    if isinstance(emb, Tensor):
        return emb.data
    return np.asarray(emb)


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
    v = embeddings.shape[0]
    if v < 2 or v % 2 != 0:
        raise ValueError(f"need an even number >= 2 of views, got {v}")
    if tau <= 0:
        raise ValueError("tau must be positive")
    return softmax_xent(embeddings, tau, np.arange(v) ^ 1, -1.0 / v)


def supcon_anchors(labels, current_classes, pseudo_flags=None,
                   pseudo_anchor=False, pseudo_positive=True):
    """Which views anchor asym_supcon_loss, and each anchor's positive set.

    Returns (active [2N] bool, positives [2N, 2N] bool). A view is active
    when its label is in current_classes, it is not pseudo-labeled (unless
    pseudo_anchor), and it has at least one positive: another view with the
    same label, pseudo-labeled views included only if pseudo_positive.
    """
    view_labels = expand_per_view(labels)
    v = len(view_labels)
    if pseudo_flags is None:
        view_pseudo = np.zeros(v, dtype=bool)
    else:
        view_pseudo = expand_per_view(np.asarray(pseudo_flags, dtype=bool))
    current = np.asarray(sorted(current_classes), dtype=view_labels.dtype)
    anchors = np.isin(view_labels, current)
    if not pseudo_anchor:
        anchors &= ~view_pseudo
    positives = (view_labels[:, None] == view_labels[None, :]) & ~np.eye(v, dtype=bool)
    if not pseudo_positive:
        positives &= ~view_pseudo[None, :]
    return anchors & positives.any(axis=1), positives


def asym_supcon_loss(embeddings, labels, current_classes, tau,
                     pseudo_flags=None, pseudo_anchor=False, pseudo_positive=True):
    """Supervised contrastive loss with anchors restricted to current-task views.

    Views whose label is in current_classes act as anchors; every same-label
    view (current or past) is a positive. The per-anchor term averages the
    log-probabilities of its positive set, and the total is normalized by the
    view count 2N regardless of how many views anchor (learner_objective
    rescales it to a mean over the active anchors). Pseudo-labeled views are
    positive-eligible by default but never anchor unless pseudo_anchor.

    Args:
        embeddings: Tensor [2N, d], unit rows, on the tape.
        labels: per-source integer labels, length N.
        current_classes: iterable of class ids of the current task.
        tau: temperature > 0.
        pseudo_flags: optional per-source bools, True = pseudo-labeled.
        pseudo_anchor: let pseudo-labeled views anchor.
        pseudo_positive: let pseudo-labeled views serve as positives.

    Returns a 0-d Tensor; exactly 0 when no view anchors or no anchor has a
    positive.
    """
    if labels is None:
        raise MissingLabelsError("asym_supcon_loss requires labels")
    if tau <= 0:
        raise ValueError("tau must be positive")
    v = embeddings.shape[0]
    if 2 * len(labels) != v:
        raise ValueError(f"labels length {len(labels)} != n_sources {v // 2}")
    active, positives = supcon_anchors(labels, current_classes, pseudo_flags,
                                       pseudo_anchor, pseudo_positive)
    weights = np.zeros((v, v))
    if active.any():
        weights[active] = (positives[active]
                           / positives[active].sum(axis=1, keepdims=True))
    weights /= v
    return softmax_xent(embeddings, tau, weights, -1.0)


@dataclass(frozen=True)
class SimilarityDistribution:
    """Per-view softmax over the other views' similarities, self excluded.

    probs is [2N, 2N] with an exact zero diagonal; each row sums to 1.
    """

    probs: np.ndarray

    def row(self, i):
        """Probability vector of view i over the other 2N-1 views."""
        n = self.probs.shape[0]
        return self.probs[i][np.arange(n) != i]


def similarity_distribution(embeddings, tau):
    """Softmax over pairwise cosines at temperature tau, diagonal excluded.

    Pure numpy, no tape involvement; both distillation teachers go through
    this path.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    z = _as_constant(embeddings)
    if z.ndim != 2 or z.shape[0] < 2:
        raise ValueError("need at least two views")
    sim = (z @ z.T) / tau
    np.fill_diagonal(sim, -np.inf)
    sim -= sim.max(axis=1, keepdims=True)
    ex = np.exp(sim)
    probs = ex / ex.sum(axis=1, keepdims=True)
    return SimilarityDistribution(probs=probs)


def distillation_loss(teacher_embeddings, student_embeddings, tau_teacher, tau_student):
    """Cross entropy from a frozen teacher's similarity rows to the student's.

    L = sum_i sum_{j != i} -p_teacher[i, j] * log p_student[i, j], summed (not
    averaged) over the 2N anchor views; learner_objective divides it by 2N.
    The teacher side is a constant; only the student embeddings receive
    gradient.

    Args:
        teacher_embeddings: [2N, d] unit rows, array or off-tape Tensor.
        student_embeddings: Tensor [2N, d], unit rows, on the tape.
        tau_teacher: teacher temperature (sharper, e.g. 0.01).
        tau_student: student temperature (softer, e.g. 0.2).
    """
    teacher = _as_constant(teacher_embeddings)
    v = student_embeddings.shape[0]
    if teacher.shape[0] != v:
        raise ValueError(f"teacher has {teacher.shape[0]} views, student has {v}")
    target = similarity_distribution(teacher, tau_teacher).probs
    return softmax_xent(student_embeddings, tau_student, target, -1.0)


def combined_loss(l_sup, l_td, l_kd, weights, t):
    """L_sup + td_weight * L_TD + kd_weight * L_KD with absent terms dropped.

    The weights scale whatever they are given; in the learner objective each
    term is already a per-anchor mean (learner_objective).

    Args:
        l_sup, l_td, l_kd: 0-d Tensors or None for disabled terms.
        weights: LossWeights.
        t: 1-based time step; a TD term at t == 1 is rejected since there is
            no past learner to distill from.
    """
    if t < 1:
        raise ValueError("t is 1-based")
    if l_td is not None and t == 1:
        raise ValueError("time distillation needs a past learner, none exists at t=1")
    terms = []
    if l_sup is not None:
        terms.append(l_sup)
    if l_td is not None:
        terms.append(scale(l_td, weights.td_weight))
    if l_kd is not None:
        terms.append(scale(l_kd, weights.kd_weight))
    if not terms:
        raise ValueError("combined_loss needs at least one term")
    out = terms[0]
    for term in terms[1:]:
        out = add(out, term)
    return out


def learner_objective(z, t, weights, labels, current_classes, pseudo_flags=None,
                      pseudo_anchor=False, pseudo_positive=True, use_sup=True,
                      td_teacher=None, kd_teacher=None, kd_student=None):
    """The learner's combined loss with every term a mean over its anchors.

    Each term is reduced to a per-anchor mean before combined_loss weights it:
      * supervised: asym_supcon_loss (normalized by 2N) times 2N / A, where A
        counts the active anchors of supcon_anchors (current-task, non-pseudo
        views with a positive); exactly 0 when A = 0;
      * time distillation: distillation_loss (summed over the 2N views of the
        supervised batch) divided by 2N;
      * reference distillation: distillation_loss over its own batch divided
        by that batch's view count.
    So td_weight and kd_weight set the weight of one anchor's distillation
    against one anchor's supervision, whatever the batch size or the share of
    memory and pseudo-labeled views in it.

    Args:
        z: Tensor [2N, d], the learner's unit embeddings of the supervised
            batch, on the tape.
        t: 1-based time step.
        weights: LossWeights.
        labels, current_classes, pseudo_flags, pseudo_anchor, pseudo_positive:
            as for asym_supcon_loss.
        use_sup: include the supervised term.
        td_teacher: the past learner's embeddings of the same views, or None.
        kd_teacher, kd_student: the reference's and the learner's embeddings
            of the reference-distillation batch, or None.
    """
    v = z.shape[0]
    l_sup = l_td = l_kd = None
    if use_sup:
        l_sup = asym_supcon_loss(z, labels, current_classes, weights.tau,
                                 pseudo_flags=pseudo_flags,
                                 pseudo_anchor=pseudo_anchor,
                                 pseudo_positive=pseudo_positive)
        n_active = int(supcon_anchors(labels, current_classes, pseudo_flags,
                                      pseudo_anchor, pseudo_positive)[0].sum())
        if n_active:
            l_sup = scale(l_sup, v / n_active)
    if td_teacher is not None:
        l_td = scale(distillation_loss(td_teacher, z, weights.tau_teacher,
                                       weights.tau_student), 1.0 / v)
    if kd_teacher is not None:
        l_kd = scale(distillation_loss(kd_teacher, kd_student,
                                       weights.tau_teacher, weights.tau_student),
                     1.0 / kd_student.shape[0])
    return combined_loss(l_sup, l_td, l_kd, weights, t)
