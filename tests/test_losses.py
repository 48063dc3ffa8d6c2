"""Tests for the contrastive and distillation losses.

The closed-form oracle values used here were derived by hand and frozen:
  * two orthogonal pairs under NT-Xent at tau=1: log(1 + 2/e)
  * one current-labeled pair plus one past-labeled pair under the asymmetric
    supervised loss at tau=1: 0.5 * log(1 + 2/e)
  * four identical views under distillation: 4 * log(3) at any temperatures
  * the learner objective reduces both to per-anchor means: log(1 + 2/e)
    for the supervised pair, td_weight * log(2N - 1) for 2N identical views
"""

import math

import numpy as np
import pytest

from osscl import losses, numcore as nc

LOG_1P_2E = math.log(1.0 + 2.0 / math.e)  # 0.5514447139320511


def unit(rows):
    arr = np.asarray(rows, dtype=np.float64)
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


def tensor_views(rows, requires_grad=False):
    return nc.Tensor(unit(rows), requires_grad=requires_grad, dtype=np.float64)


def embed_via_net(params, views):
    """A tiny one-layer embedder so losses can be gradient-checked end to end."""
    w, b = params
    x = nc.Tensor(views, dtype=np.float64)
    return nc.l2_normalize_rows(nc.affine(x, w, b))


def make_embedder(rng, in_dim=5, out_dim=4):
    w = nc.Tensor(rng.standard_normal((in_dim, out_dim)), requires_grad=True,
                  dtype=np.float64)
    b = nc.Tensor(rng.standard_normal(out_dim) * 0.1, requires_grad=True,
                  dtype=np.float64)
    return [w, b]


# ---------------------------------------------------------------------------
# NT-Xent
# ---------------------------------------------------------------------------


def test_ntxent_single_pair_is_zero():
    z = tensor_views([[1.0, 0.0], [0.0, 1.0]])
    loss = losses.ntxent_loss(z, tau=0.1)
    assert float(loss.data) == pytest.approx(0.0, abs=1e-12)


def test_ntxent_two_orthogonal_pairs_oracle():
    z = tensor_views([[1, 0], [1, 0], [0, 1], [0, 1]])
    loss = losses.ntxent_loss(z, tau=1.0)
    assert float(loss.data) == pytest.approx(LOG_1P_2E, rel=1e-9)


def test_ntxent_positive_for_generic_batches():
    rng = np.random.default_rng(0)
    z = tensor_views(rng.standard_normal((8, 4)))
    assert float(losses.ntxent_loss(z, tau=0.1).data) > 0.0


def test_ntxent_rejects_odd_views():
    z = tensor_views(np.random.default_rng(1).standard_normal((3, 4)))
    with pytest.raises(ValueError):
        losses.ntxent_loss(z, tau=0.1)


def test_ntxent_rejects_bad_tau():
    z = tensor_views([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        losses.ntxent_loss(z, tau=0.0)


@pytest.mark.parametrize("seed", range(3))
def test_ntxent_gradient_check(seed):
    rng = np.random.default_rng(seed)
    params = make_embedder(rng)
    views = rng.standard_normal((6, 5))

    def loss_fn():
        return losses.ntxent_loss(embed_via_net(params, views), tau=0.2)

    assert nc.check_gradients(loss_fn, params) < 1e-6


# ---------------------------------------------------------------------------
# Asymmetric supervised contrastive
# ---------------------------------------------------------------------------


def test_asym_supcon_oracle_value():
    # source 0 labeled with a current class, source 1 with a past class
    z = tensor_views([[1, 0], [1, 0], [0, 1], [0, 1]])
    loss = losses.asym_supcon_loss(z, labels=[0, 1], current_classes={0}, tau=1.0)
    assert float(loss.data) == pytest.approx(0.5 * LOG_1P_2E, rel=1e-9)


def test_asym_supcon_no_current_labels_is_zero():
    z = tensor_views([[1, 0], [1, 0], [0, 1], [0, 1]])
    loss = losses.asym_supcon_loss(z, labels=[3, 4], current_classes={0, 1}, tau=1.0)
    assert float(loss.data) == 0.0


def test_asym_supcon_requires_labels():
    z = tensor_views([[1, 0], [0, 1]])
    with pytest.raises(losses.MissingLabelsError):
        losses.asym_supcon_loss(z, labels=None, current_classes={0}, tau=1.0)


def test_asym_supcon_past_views_are_positives_not_anchors():
    # two sources share a label; one is current-anchored, the other past-only
    rng = np.random.default_rng(3)
    z = tensor_views(rng.standard_normal((8, 4)))
    labels = [0, 0, 1, 2]
    with_past = losses.asym_supcon_loss(z, labels, current_classes={0}, tau=0.5)
    # anchors are the four views of sources 0 and 1; sources 2, 3 only widen
    # the denominator and positive sets, so the value must differ from a
    # batch where source 1 is relabeled away
    relabeled = losses.asym_supcon_loss(z, [0, 5, 1, 2], current_classes={0}, tau=0.5)
    assert float(with_past.data) != pytest.approx(float(relabeled.data))


def test_asym_supcon_pseudo_views_never_anchor_by_default():
    rng = np.random.default_rng(4)
    views = rng.standard_normal((8, 4))
    z = tensor_views(views)
    labels = [0, 0, 1, 1]
    pseudo = [False, True, False, True]
    base = losses.asym_supcon_loss(z, labels, {0, 1}, tau=0.5, pseudo_flags=pseudo)
    # anchoring pseudo views changes the objective
    anchored = losses.asym_supcon_loss(z, labels, {0, 1}, tau=0.5,
                                       pseudo_flags=pseudo, pseudo_anchor=True)
    assert float(base.data) != pytest.approx(float(anchored.data))
    # with pseudo positives disabled too, pseudo views only pad the denominator
    stripped = losses.asym_supcon_loss(z, labels, {0, 1}, tau=0.5,
                                       pseudo_flags=pseudo, pseudo_positive=False)
    assert float(stripped.data) != pytest.approx(float(base.data))


def test_asym_supcon_all_pseudo_is_zero():
    z = tensor_views([[1, 0], [1, 0], [0, 1], [0, 1]])
    loss = losses.asym_supcon_loss(z, [0, 0], {0}, tau=1.0,
                                   pseudo_flags=[True, True])
    assert float(loss.data) == 0.0


@pytest.mark.parametrize("seed", range(3))
def test_asym_supcon_gradient_check(seed):
    rng = np.random.default_rng(seed)
    params = make_embedder(rng)
    views = rng.standard_normal((8, 5))
    labels = np.array([0, 1, 0, 2])
    pseudo = np.array([False, False, True, False])

    def loss_fn():
        z = embed_via_net(params, views)
        return losses.asym_supcon_loss(z, labels, {0, 1}, tau=0.3,
                                       pseudo_flags=pseudo)

    assert nc.check_gradients(loss_fn, params) < 1e-6


# ---------------------------------------------------------------------------
# Similarity distribution and distillation
# ---------------------------------------------------------------------------


def test_similarity_distribution_two_views():
    z = unit([[1, 0], [0, 1]])
    dist = losses.similarity_distribution(z, tau=1.0)
    np.testing.assert_allclose(dist.probs, [[0, 1], [1, 0]])


def test_similarity_distribution_known_row():
    # view 0 similar to view 1 (cos 1) and orthogonal to view 2 (cos 0), tau=1
    z = unit([[1, 0], [1, 0], [0, 1]])
    dist = losses.similarity_distribution(z, tau=1.0)
    e = math.e
    np.testing.assert_allclose(dist.row(0), [e / (e + 1), 1 / (e + 1)], rtol=1e-12)


def test_similarity_distribution_rows_sum_to_one():
    rng = np.random.default_rng(5)
    z = unit(rng.standard_normal((6, 3)))
    dist = losses.similarity_distribution(z, tau=0.2)
    np.testing.assert_allclose(dist.probs.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(np.diag(dist.probs), np.zeros(6))


def test_similarity_distribution_sharpens_with_low_tau():
    rng = np.random.default_rng(6)
    z = unit(rng.standard_normal((6, 3)))
    sharp = losses.similarity_distribution(z, tau=0.01).probs
    soft = losses.similarity_distribution(z, tau=1.0).probs
    assert sharp.max() > soft.max()


def test_distillation_identical_views_oracle():
    z = unit([[1, 0]] * 4)
    student = nc.Tensor(z, dtype=np.float64)
    loss = losses.distillation_loss(z, student, tau_teacher=0.01, tau_student=0.2)
    assert float(loss.data) == pytest.approx(4.0 * math.log(3.0), rel=1e-9)


def test_distillation_gradient_vanishes_at_teacher():
    # when the student equals the teacher and temperatures match, the student
    # distribution already equals the target, so the gradient is zero
    rng = np.random.default_rng(7)
    params = make_embedder(rng)
    views = rng.standard_normal((6, 5))
    teacher = embed_via_net(params, views).data

    def loss_fn():
        z = embed_via_net(params, views)
        return losses.distillation_loss(teacher, z, tau_teacher=0.2, tau_student=0.2)

    _, grads = nc.analytic_gradients(loss_fn, params)
    for g in grads:
        np.testing.assert_allclose(g, 0.0, atol=1e-10)


def test_distillation_view_count_mismatch():
    teacher = unit(np.random.default_rng(8).standard_normal((4, 3)))
    student = tensor_views(np.random.default_rng(9).standard_normal((6, 3)))
    with pytest.raises(ValueError):
        losses.distillation_loss(teacher, student, 0.01, 0.2)


def test_distillation_teacher_receives_no_gradient():
    rng = np.random.default_rng(10)
    params = make_embedder(rng)
    views = rng.standard_normal((4, 5))
    teacher_params = make_embedder(np.random.default_rng(11))

    def loss_fn():
        teacher = embed_via_net(teacher_params, views)
        z = embed_via_net(params, views)
        return losses.distillation_loss(teacher, z, 0.01, 0.2)

    with nc.Tape() as tape:
        loss = loss_fn()
        grads = nc.backprop(tape, loss)
    assert params[0] in grads
    # the teacher entered as a constant, so its params either got no entry or
    # a hard zero
    for tp in teacher_params:
        if tp in grads:
            np.testing.assert_array_equal(grads[tp], 0.0)


@pytest.mark.parametrize("seed", range(3))
def test_distillation_gradient_check(seed):
    rng = np.random.default_rng(seed)
    params = make_embedder(rng)
    views = rng.standard_normal((6, 5))
    teacher = unit(rng.standard_normal((6, 4)))

    def loss_fn():
        z = embed_via_net(params, views)
        return losses.distillation_loss(teacher, z, tau_teacher=0.05, tau_student=0.2)

    assert nc.check_gradients(loss_fn, params) < 1e-6


# ---------------------------------------------------------------------------
# The fused similarity op against the chain of generic ops it replaces
# ---------------------------------------------------------------------------


def chain_loss(z, tau, target, factor):
    """factor * sum W * log softmax_offdiag(z z^T / tau) from the generic ops."""
    v = z.shape[0]
    offdiag = ~np.eye(v, dtype=bool)
    sim = nc.scale(nc.pairwise_cosine(z, z), 1.0 / tau)
    logp = nc.row_log_softmax(sim, offdiag)
    if target.ndim == 1:
        picked = nc.gather2d(logp, np.arange(v), target)
    else:
        picked = nc.mul(nc.mask_fill(logp, offdiag, 0.0),
                        nc.Tensor(target.astype(logp.dtype)))
    return nc.scale(nc.total_sum(picked), factor)


def supcon_weights(labels, current, pseudo):
    active, positives = losses.supcon_anchors(labels, current, pseudo)
    v = 2 * len(labels)
    weights = np.zeros((v, v))
    if active.any():
        weights[active] = (positives[active]
                           / positives[active].sum(axis=1, keepdims=True))
    return weights / v


def loss_and_grad(fn, z):
    # an upstream factor other than 1, as learner_objective puts above a loss
    with nc.Tape() as tape:
        loss = fn(z)
        grads = nc.backprop(tape, nc.scale(loss, 0.37))
    return loss.data.tobytes(), grads[z].tobytes()


CASES = ("ntxent", "supcon", "supcon_no_anchor", "distill")


def fused_and_chain(case, v, rng):
    """(the loss as losses builds it, the same loss from the chain)."""
    labels = rng.integers(0, 3, size=v // 2)
    pseudo = rng.random(v // 2) < 0.3
    current = {7} if case == "supcon_no_anchor" else {0, 1}
    teacher = unit(rng.standard_normal((v, 16)))
    if case == "ntxent":
        return (lambda z: losses.ntxent_loss(z, 0.3),
                lambda z: chain_loss(z, 0.3, np.arange(v) ^ 1, -1.0 / v))
    if case == "distill":
        target = losses.similarity_distribution(teacher, 0.01).probs
        return (lambda z: losses.distillation_loss(teacher, z, 0.01, 0.15),
                lambda z: chain_loss(z, 0.15, target, -1.0))
    weights = supcon_weights(labels, current, pseudo)
    return (lambda z: losses.asym_supcon_loss(z, labels, current, 0.07,
                                              pseudo_flags=pseudo),
            lambda z: chain_loss(z, 0.07, weights, -1.0))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("v", [2, 6, 256])
@pytest.mark.parametrize("case", CASES)
def test_fused_op_is_bitwise_the_chain(case, v, dtype):
    rng = np.random.default_rng(v)
    fused, chain = fused_and_chain(case, v, rng)
    z = nc.Tensor(unit(rng.standard_normal((v, 16))).astype(dtype),
                  requires_grad=True)
    assert loss_and_grad(fused, z) == loss_and_grad(chain, z)
    with nc.Tape() as tape:
        loss = fused(z)
    assert len(tape) == 1
    if case == "supcon_no_anchor":
        assert float(loss.data) == 0.0


def test_fused_op_names_itself_on_a_nan_row():
    z = unit(np.random.default_rng(0).standard_normal((6, 4)))
    z[3] = np.nan
    with pytest.raises(nc.NonFiniteError, match="softmax_xent"):
        losses.ntxent_loss(nc.Tensor(z), 0.5)


def test_fused_op_rejects_non_unit_rows():
    z = unit(np.random.default_rng(0).standard_normal((6, 4)))
    z[2] *= 1.01
    with pytest.raises(nc.ShapeError):
        nc.softmax_xent(nc.Tensor(z), 0.5, np.zeros((6, 6)), -1.0)


def test_fused_op_ignores_the_target_diagonal():
    z = tensor_views(np.random.default_rng(0).standard_normal((4, 3)),
                     requires_grad=True)
    weights = np.random.default_rng(1).random((4, 4))
    zero_diagonal = weights * ~np.eye(4, dtype=bool)
    assert (loss_and_grad(lambda t: nc.softmax_xent(t, 0.3, weights, -1.0), z)
            == loss_and_grad(lambda t: nc.softmax_xent(t, 0.3, zero_diagonal,
                                                       -1.0), z))


def test_fused_op_rejects_a_diagonal_index():
    z = tensor_views(np.random.default_rng(0).standard_normal((4, 3)))
    with pytest.raises(nc.ShapeError):
        nc.softmax_xent(z, 0.5, np.array([1, 0, 2, 2]), -1.0)


def test_fused_op_single_pair_has_zero_loss_and_gradient():
    z = tensor_views([[1.0, 0.0], [0.6, 0.8]], requires_grad=True)
    with nc.Tape() as tape:
        loss = losses.ntxent_loss(z, 0.1)
        grads = nc.backprop(tape, loss)
    assert float(loss.data) == 0.0
    np.testing.assert_array_equal(grads[z], 0.0)


# ---------------------------------------------------------------------------
# Combined objective
# ---------------------------------------------------------------------------


def scalar(x):
    return nc.Tensor(np.asarray(x, dtype=np.float64))


def test_combined_loss_weights_terms():
    w = losses.LossWeights(td_weight=0.2, kd_weight=0.3)
    out = losses.combined_loss(scalar(1.0), scalar(2.0), scalar(4.0), w, t=2)
    assert float(out.data) == pytest.approx(1.0 + 0.2 * 2.0 + 0.3 * 4.0)


def test_combined_loss_drops_absent_terms():
    w = losses.LossWeights()
    out = losses.combined_loss(scalar(1.5), None, None, w, t=1)
    assert float(out.data) == pytest.approx(1.5)
    out = losses.combined_loss(None, None, scalar(2.0), w, t=1)
    assert float(out.data) == pytest.approx(0.2 * 2.0)


def test_combined_loss_rejects_td_at_first_step():
    w = losses.LossWeights()
    with pytest.raises(ValueError):
        losses.combined_loss(scalar(1.0), scalar(1.0), None, w, t=1)


def test_combined_loss_rejects_empty():
    with pytest.raises(ValueError):
        losses.combined_loss(None, None, None, losses.LossWeights(), t=1)


@pytest.mark.parametrize("n_views", [4, 8])
def test_learner_objective_time_distillation_is_per_anchor_mean(n_views):
    # identical views: teacher and student spread evenly over the 2N-1 others,
    # so each anchor contributes log(2N-1); summing would give 2N times that
    z = unit([[1, 0]] * n_views)
    w = losses.LossWeights(td_weight=0.2)
    out = losses.learner_objective(
        nc.Tensor(z, dtype=np.float64), 2, w, labels=None,
        current_classes=frozenset(), use_sup=False, td_teacher=z)
    assert float(out.data) == pytest.approx(0.2 * math.log(n_views - 1),
                                            rel=1e-9)


def test_learner_objective_supervision_is_per_anchor_mean():
    # two of the four views anchor; the loss function itself divides by 4
    z = tensor_views([[1, 0], [1, 0], [0, 1], [0, 1]])
    out = losses.learner_objective(z, 1, losses.LossWeights(tau=1.0),
                                   labels=[0, 1], current_classes={0})
    assert float(out.data) == pytest.approx(LOG_1P_2E, rel=1e-9)
    raw = losses.asym_supcon_loss(z, [0, 1], {0}, tau=1.0)
    assert float(raw.data) == pytest.approx(0.5 * LOG_1P_2E, rel=1e-9)


def test_learner_objective_ignores_non_anchors_in_supervised_mean():
    # a past pair and a pseudo-labeled pair raise 2N to 6, yet only the two
    # current views anchor, so the objective is 6/2 times the function's value
    z = tensor_views([[1, 0], [1, 0], [0, 1], [0, 1], [0, 1], [0, 1]])
    out = losses.learner_objective(z, 1, losses.LossWeights(tau=1.0),
                                   labels=[0, 1, 0], current_classes={0},
                                   pseudo_flags=[False, False, True])
    active, _ = losses.supcon_anchors([0, 1, 0], {0}, [False, False, True])
    raw = losses.asym_supcon_loss(z, [0, 1, 0], {0}, tau=1.0,
                                  pseudo_flags=[False, False, True])
    assert active.tolist() == [True, True, False, False, False, False]
    assert float(out.data) == pytest.approx(3.0 * float(raw.data), rel=1e-12)


def test_learner_objective_without_anchors_is_zero():
    z = tensor_views([[1, 0], [1, 0], [0, 1], [0, 1]])
    out = losses.learner_objective(z, 1, losses.LossWeights(), labels=[3, 4],
                                   current_classes={0, 1})
    assert float(out.data) == 0.0


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        losses.LossWeights(tau=0.0)
    with pytest.raises(ValueError):
        losses.LossWeights(td_weight=-0.1)
