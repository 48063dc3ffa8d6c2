"""Prototype scoring of unlabeled pools and the in/out-of-distribution split.

The reference network embeds labeled samples class by class; per-class mean
embeddings (over a few augmentations) are re-normalized into prototypes. An
unlabeled sample's score is its best cosine against any prototype, and two
thresholds derived from the labeled score statistics split the pool into the
related subset and the confident pseudo-labeled subset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

SPREAD_MODES = ("variance", "stddev")


class EmptyClassError(ValueError):
    """A prototype was requested for a class with no labeled samples."""


class DegenerateCentroidError(ValueError):
    """A class centroid has near-zero norm and cannot be normalized."""


@dataclass(frozen=True)
class PrototypeSet:
    """Unit-norm class prototypes, one row per observed class id."""

    prototypes: np.ndarray
    class_ids: np.ndarray

    def __post_init__(self):
        if self.prototypes.shape[0] != self.class_ids.shape[0]:
            raise ValueError("one prototype per class id required")
        norms = np.linalg.norm(self.prototypes, axis=1)
        if norms.size and np.abs(norms - 1.0).max() > 1e-4:
            raise ValueError("prototypes must be unit rows")


@dataclass(frozen=True)
class ScoreStats:
    """Labeled-score statistics and the thresholds derived from them."""

    mean: float
    spread: float
    spread_mode: str
    eta_id: float
    eta_pl: float
    tau_id: float
    tau_pl: float


@dataclass(frozen=True)
class SegregationOutput:
    """Indices into the unlabeled pool: the related set and its confident core.

    t_hat_indices is always a subset of u_hat_indices; t_hat_labels holds the
    pseudo-label (nearest prototype's class id) per confident index.
    """

    u_hat_indices: np.ndarray
    t_hat_indices: np.ndarray
    t_hat_labels: np.ndarray

    def __post_init__(self):
        if self.t_hat_indices.shape != self.t_hat_labels.shape:
            raise ValueError("one pseudo-label per confident index required")
        if not np.isin(self.t_hat_indices, self.u_hat_indices).all():
            raise ValueError("confident set must be a subset of the related set")


@dataclass(frozen=True)
class OodMetrics:
    """Separation quality of one segregation pass against ground truth."""

    auroc: float
    precision: float
    pseudo_accuracy: float

    def __post_init__(self):
        for name in ("auroc", "precision", "pseudo_accuracy"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


def _embed_data(reference, xs):
    return reference.embed(np.asarray(xs)).data


def build_prototypes(reference, xs, ys, observed_classes, augmenter, rng, n_aug=2):
    """Average augmented reference embeddings per class into unit prototypes.

    Args:
        reference: net or snapshot exposing embed().
        xs, ys: labeled samples (current task plus memory).
        observed_classes: class ids seen so far; each must occur in ys.
        augmenter: Augmenter applied n_aug times per class before embedding.
        rng: Generator consumed by the augmenter, class-by-class in sorted
            class order so the pass is deterministic.
        n_aug: augmented passes per sample.

    Returns a PrototypeSet with one row per observed class, sorted by id.
    """
    if n_aug < 1:
        raise ValueError("n_aug must be >= 1")
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    class_ids = np.asarray(sorted(set(int(c) for c in observed_classes)))
    if class_ids.size == 0:
        raise ValueError("observed_classes is empty")
    rows = []
    for c in class_ids:
        members = xs[ys == c]
        if members.shape[0] == 0:
            raise EmptyClassError(f"no labeled samples for class {c}")
        acc = sum(_embed_data(reference, augmenter.apply_batch(members, rng))
                  .sum(axis=0, dtype=np.float64) for _ in range(n_aug))
        centroid = acc / (n_aug * members.shape[0])
        norm = np.linalg.norm(centroid)
        if norm < 1e-12:
            raise DegenerateCentroidError(f"class {c} centroid norm {norm:g}")
        rows.append(centroid / norm)
    return PrototypeSet(prototypes=np.asarray(rows), class_ids=class_ids)


def score(prototypes, xs, reference=None):
    """Best-prototype cosine per sample, plus the nearest class id.

    Args:
        prototypes: PrototypeSet.
        xs: either raw samples (then reference must embed them) or unit
            embeddings [n, d]. Scoring never augments: one clean pass.

    Returns:
        (scores [n], nearest_class_ids [n])
    """
    z = _embed_data(reference, xs) if reference is not None else np.asarray(xs)
    sims = z @ prototypes.prototypes.T
    best = sims.argmax(axis=1)
    return sims[np.arange(len(z)), best], prototypes.class_ids[best]


def compute_thresholds(labeled_scores, eta_id, eta_pl, spread_mode="variance"):
    """Thresholds tau = mean + eta * spread from labeled score statistics.

    spread_mode selects the spread term: the population variance (default) or
    the population standard deviation.
    """
    s = np.asarray(labeled_scores, dtype=np.float64)
    if s.size < 2:
        raise ValueError("need at least two labeled scores")
    if spread_mode not in SPREAD_MODES:
        raise ValueError(f"spread_mode must be one of {SPREAD_MODES}")
    mean = float(s.mean())
    var = float(s.var())
    spread = var if spread_mode == "variance" else float(np.sqrt(var))
    return ScoreStats(
        mean=mean,
        spread=spread,
        spread_mode=spread_mode,
        eta_id=float(eta_id),
        eta_pl=float(eta_pl),
        tau_id=mean + float(eta_id) * spread,
        tau_pl=mean + float(eta_pl) * spread,
    )


def segregate_scores(scores_u, nearest_classes, stats):
    """Split by strict threshold comparison: score > tau_id joins the related
    set, and within it score > tau_pl joins the confident pseudo-labeled set.
    """
    scores_u = np.asarray(scores_u)
    u_mask = scores_u > stats.tau_id
    t_mask = u_mask & (scores_u > stats.tau_pl)
    u_idx = np.nonzero(u_mask)[0]
    t_idx = np.nonzero(t_mask)[0]
    return SegregationOutput(
        u_hat_indices=u_idx,
        t_hat_indices=t_idx,
        t_hat_labels=np.asarray(nearest_classes)[t_idx],
    )


def auroc_from_scores(scores_u, positive_mask):
    """Mann-Whitney AUROC with average-rank tie handling.

    Returns 0.5 when either group is empty (no ranking question to ask).
    """
    positive_mask = np.asarray(positive_mask, dtype=bool)
    n_pos = int(positive_mask.sum())
    n_neg = int(positive_mask.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        return 0.5
    ranks = rankdata(np.asarray(scores_u), method="average")
    r_pos = ranks[positive_mask].sum()
    return float((r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def ood_metrics(output, scores_u, provenance):
    """Score one segregation pass against the sealed ground truth.

    Args:
        output: SegregationOutput over the pool.
        scores_u: the scores the split was made from, pool order.
        provenance: object with reveal() -> (related bool mask, true class
            ids with -1 for unrelated samples). Only this function and final
            reporting may call reveal.

    Returns OodMetrics with:
        auroc: rank separation of related vs unrelated scores.
        precision: related fraction of the recovered set, 1.0 if empty.
        pseudo_accuracy: fraction of confident pseudo-labels that match the
            true class, 1.0 if empty.
    """
    related, true_classes = provenance.reveal()
    related = np.asarray(related, dtype=bool)
    true_classes = np.asarray(true_classes)
    auroc = auroc_from_scores(scores_u, related)
    if output.u_hat_indices.size:
        precision = float(related[output.u_hat_indices].mean())
    else:
        precision = 1.0
    if output.t_hat_indices.size:
        hits = related[output.t_hat_indices] & (
            true_classes[output.t_hat_indices] == output.t_hat_labels)
        pseudo_accuracy = float(hits.mean())
    else:
        pseudo_accuracy = 1.0
    return OodMetrics(auroc=auroc, precision=precision, pseudo_accuracy=pseudo_accuracy)
