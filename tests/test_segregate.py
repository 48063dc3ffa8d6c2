"""Tests for prototype construction, scoring, thresholds, and the OOD split.

The segregation pipeline is checked against an independent brute-force
implementation (explicit python loops) over randomized pools.
"""

import numpy as np
import pytest

from osscl import nets, scenario, segregate


class IdentityEmbedder:
    """Test double: embeds by row-normalizing the input, no learned weights."""

    def embed(self, xs):
        from osscl import numcore as nc
        return nc.l2_normalize_rows(nc.Tensor(np.asarray(xs, dtype=np.float64)))


def null_augmenter():
    return scenario.Augmenter(mode="vector", sigma=0.0, dropout=0.0)


def make_reference(seed=0, dim=6):
    return nets.EncoderProjector(dim, hidden=(16,), proj_hidden=8, embed_dim=4,
                                 rng=np.random.default_rng(seed))


def blobs(rng, n_classes, per_class, dim, radius=4.0):
    means = rng.standard_normal((n_classes, dim))
    means *= radius / np.linalg.norm(means, axis=1, keepdims=True)
    xs = np.concatenate([means[c] + rng.standard_normal((per_class, dim))
                         for c in range(n_classes)])
    ys = np.repeat(np.arange(n_classes), per_class)
    return xs, ys


# ---------------------------------------------------------------------------
# Prototypes
# ---------------------------------------------------------------------------


def test_prototypes_unit_rows_and_sorted_ids():
    rng = np.random.default_rng(0)
    xs, ys = blobs(rng, 4, 10, 6)
    ref = make_reference()
    embedded = []

    class CountingReference:
        def embed(self, x):
            embedded.append(len(x))
            return ref.embed(x)

    protos = segregate.build_prototypes(CountingReference(), xs, ys,
                                        {2, 0, 1, 3}, null_augmenter(), rng,
                                        n_aug=2)
    # one forward pass per augmented copy of each class, nothing else
    assert embedded == [10] * 8
    np.testing.assert_array_equal(protos.class_ids, [0, 1, 2, 3])
    np.testing.assert_allclose(np.linalg.norm(protos.prototypes, axis=1), 1.0,
                               atol=1e-9)


def test_prototypes_match_brute_force_without_augmentation():
    # sigma=0 makes every augmented pass identical, so the prototype is just
    # the normalized mean embedding, which we recompute by hand
    rng = np.random.default_rng(1)
    xs, ys = blobs(rng, 3, 8, 6)
    ref = make_reference(1)
    protos = segregate.build_prototypes(ref, xs, ys, {0, 1, 2},
                                        null_augmenter(), rng, n_aug=3)
    for k, c in enumerate(protos.class_ids):
        z = ref.embed(xs[ys == c]).data.astype(np.float64)
        centroid = z.mean(axis=0)
        expected = centroid / np.linalg.norm(centroid)
        np.testing.assert_allclose(protos.prototypes[k], expected, atol=1e-6)


def test_prototypes_empty_class_raises():
    rng = np.random.default_rng(2)
    xs, ys = blobs(rng, 2, 5, 6)
    with pytest.raises(segregate.EmptyClassError):
        segregate.build_prototypes(make_reference(), xs, ys, {0, 1, 7},
                                   null_augmenter(), rng)


def test_prototypes_augmentation_consumes_rng_deterministically():
    rng_a = np.random.default_rng(3)
    rng_b = np.random.default_rng(3)
    xs, ys = blobs(np.random.default_rng(4), 3, 6, 6)
    aug = scenario.Augmenter(mode="vector", sigma=0.3, dropout=0.1)
    ref = make_reference(5)
    a = segregate.build_prototypes(ref, xs, ys, {0, 1, 2}, aug, rng_a)
    b = segregate.build_prototypes(ref, xs, ys, {0, 1, 2}, aug, rng_b)
    np.testing.assert_array_equal(a.prototypes, b.prototypes)


# ---------------------------------------------------------------------------
# Scoring and thresholds
# ---------------------------------------------------------------------------


def test_score_is_max_cosine():
    protos = segregate.PrototypeSet(
        prototypes=np.array([[1.0, 0.0], [0.0, 1.0]]),
        class_ids=np.array([3, 7]))
    z = np.array([[0.8, 0.6], [0.0, 1.0]])
    scores, nearest = segregate.score(protos, z)
    np.testing.assert_allclose(scores, [0.8, 1.0])
    np.testing.assert_array_equal(nearest, [3, 7])


def test_thresholds_against_hand_computation():
    stats = segregate.compute_thresholds([0.5, 0.7], eta_id=-4.0, eta_pl=-2.0)
    # mean 0.6, population variance 0.01
    assert stats.mean == pytest.approx(0.6)
    assert stats.spread == pytest.approx(0.01)
    assert stats.tau_id == pytest.approx(0.6 - 0.04)
    assert stats.tau_pl == pytest.approx(0.6 - 0.02)


def test_thresholds_stddev_mode():
    stats = segregate.compute_thresholds([0.5, 0.7], eta_id=-4.0, eta_pl=-2.0,
                                         spread_mode="stddev")
    assert stats.spread == pytest.approx(0.1)
    assert stats.tau_id == pytest.approx(0.6 - 0.4)


def test_thresholds_validation():
    with pytest.raises(ValueError):
        segregate.compute_thresholds([0.5], -4, -2)
    with pytest.raises(ValueError):
        segregate.compute_thresholds([0.5, 0.6], -4, -2, spread_mode="mad")


def test_strict_threshold_comparison():
    stats = segregate.ScoreStats(mean=0.5, spread=0.0, spread_mode="variance",
                                 eta_id=-4, eta_pl=-2, tau_id=0.5, tau_pl=0.5)
    out = segregate.segregate_scores(np.array([0.5, 0.5000001]), np.array([0, 0]),
                                     stats)
    # exactly-at-threshold scores stay out
    np.testing.assert_array_equal(out.u_hat_indices, [1])


def test_confident_set_subset_of_related_set_enforced():
    # even with inverted thresholds the confident set stays inside the
    # related set
    stats = segregate.ScoreStats(mean=0.5, spread=0.1, spread_mode="variance",
                                 eta_id=1, eta_pl=-1, tau_id=0.6, tau_pl=0.4)
    scores = np.array([0.45, 0.55, 0.65])
    out = segregate.segregate_scores(scores, np.zeros(3, dtype=int), stats)
    assert set(out.t_hat_indices) <= set(out.u_hat_indices)


# ---------------------------------------------------------------------------
# Brute-force oracle over randomized pools
# ---------------------------------------------------------------------------


def brute_force_split(prototypes, class_ids, pool_z, labeled_z, eta_id, eta_pl):
    """Loop-based re-derivation of the whole pipeline from embeddings."""
    def best(z):
        sims = [float(np.dot(p, z)) for p in prototypes]
        k = int(np.argmax(sims))
        return sims[k], class_ids[k]

    labeled_scores = [best(z)[0] for z in labeled_z]
    mean = sum(labeled_scores) / len(labeled_scores)
    var = sum((s - mean) ** 2 for s in labeled_scores) / len(labeled_scores)
    tau_id = mean + eta_id * var
    tau_pl = mean + eta_pl * var
    u_hat, t_hat, t_lab = [], [], []
    for i, z in enumerate(pool_z):
        s, c = best(z)
        if s > tau_id:
            u_hat.append(i)
            if s > tau_pl:
                t_hat.append(i)
                t_lab.append(c)
    return tau_id, tau_pl, u_hat, t_hat, t_lab


@pytest.mark.parametrize("seed", range(10))
def test_segregation_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n_classes = int(rng.integers(2, 5))
    pool_n = int(rng.integers(200, 501))
    dim = 6
    ref = IdentityEmbedder()

    xs, ys = blobs(rng, n_classes, 12, dim)
    protos = segregate.build_prototypes(ref, xs, ys, set(range(n_classes)),
                                        null_augmenter(), rng, n_aug=2)
    labeled_z = ref.embed(xs).data
    labeled_scores, _ = segregate.score(protos, labeled_z)
    eta_id, eta_pl = -4.0, -2.0
    stats = segregate.compute_thresholds(labeled_scores, eta_id, eta_pl)

    pool = rng.standard_normal((pool_n, dim)) * 2.0
    pool_z = ref.embed(pool).data
    out = segregate.segregate_scores(
        *segregate.score(protos, pool, reference=ref), stats)
    scores_u, _ = segregate.score(protos, pool_z)

    tau_id, tau_pl, u_hat, t_hat, t_lab = brute_force_split(
        protos.prototypes, protos.class_ids, pool_z, labeled_z, eta_id, eta_pl)
    assert stats.tau_id == pytest.approx(tau_id, abs=1e-12)
    assert stats.tau_pl == pytest.approx(tau_pl, abs=1e-12)
    np.testing.assert_array_equal(out.u_hat_indices, u_hat)
    np.testing.assert_array_equal(out.t_hat_indices, t_hat)
    np.testing.assert_array_equal(out.t_hat_labels, t_lab)
    assert set(out.t_hat_indices) <= set(out.u_hat_indices)


# ---------------------------------------------------------------------------
# OOD metrics
# ---------------------------------------------------------------------------


def test_auroc_perfect_separation():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    related = np.array([True, True, False, False])
    assert segregate.auroc_from_scores(scores, related) == 1.0


def test_auroc_reversed_separation():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    related = np.array([True, True, False, False])
    assert segregate.auroc_from_scores(scores, related) == 0.0


def test_auroc_ties_average_rank():
    scores = np.array([0.5, 0.5, 0.5, 0.5])
    related = np.array([True, True, False, False])
    assert segregate.auroc_from_scores(scores, related) == 0.5


def test_auroc_degenerate_groups():
    assert segregate.auroc_from_scores(np.array([0.1, 0.2]),
                                       np.array([True, True])) == 0.5


def test_auroc_matches_pair_counting():
    rng = np.random.default_rng(11)
    scores = rng.random(60)
    scores[rng.integers(0, 60, 10)] = 0.5  # force ties
    related = rng.random(60) < 0.4
    wins = ties = 0
    pos = scores[related]
    neg = scores[~related]
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1
            elif sp == sn:
                ties += 1
    expected = (wins + 0.5 * ties) / (len(pos) * len(neg))
    assert segregate.auroc_from_scores(scores, related) == pytest.approx(expected)


def test_ood_metrics_precision_and_pseudo_accuracy():
    out = segregate.SegregationOutput(
        u_hat_indices=np.array([0, 1, 2]),
        t_hat_indices=np.array([0, 1]),
        t_hat_labels=np.array([5, 5]))
    prov = scenario.SealedProvenance(
        related=[True, False, True, False],
        true_classes=[5, -1, 6, -1])
    m = segregate.ood_metrics(out, np.array([0.9, 0.8, 0.7, 0.1]), prov)
    assert m.precision == pytest.approx(2 / 3)
    assert m.pseudo_accuracy == pytest.approx(1 / 2)


def test_ood_metrics_empty_sets_default_to_one():
    out = segregate.SegregationOutput(
        u_hat_indices=np.zeros(0, dtype=int),
        t_hat_indices=np.zeros(0, dtype=int),
        t_hat_labels=np.zeros(0, dtype=int))
    prov = scenario.SealedProvenance(related=[True, False], true_classes=[3, -1])
    m = segregate.ood_metrics(out, np.array([0.2, 0.1]), prov)
    assert m.precision == 1.0
    assert m.pseudo_accuracy == 1.0


def test_segregation_output_rejects_non_subset():
    with pytest.raises(ValueError):
        segregate.SegregationOutput(
            u_hat_indices=np.array([0, 1]),
            t_hat_indices=np.array([2]),
            t_hat_labels=np.array([0]))
