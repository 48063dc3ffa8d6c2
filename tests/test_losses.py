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
from test_numcore import tape_check

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

    assert tape_check(loss_fn, params) < 1e-6


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
    # the pseudo views' rows do not anchor, yet every view is a positive of
    # its same-label views
    active, positives = losses.supcon_anchors(labels, {0, 1}, pseudo)
    np.testing.assert_array_equal(active, np.repeat(np.logical_not(pseudo), 2))
    assert positives[0, 2:4].all() and positives[4, 6:8].all()
    # so the flags change the objective
    unflagged = losses.asym_supcon_loss(z, labels, {0, 1}, tau=0.5)
    assert float(base.data) != pytest.approx(float(unflagged.data))


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

    assert tape_check(loss_fn, params) < 1e-6


# ---------------------------------------------------------------------------
# Similarity distribution and distillation
# ---------------------------------------------------------------------------


def test_similarity_distribution_two_views():
    z = unit([[1, 0], [0, 1]])
    probs = losses.similarity_distribution(z, tau=1.0)
    np.testing.assert_allclose(probs, [[0, 1], [1, 0]])


def test_similarity_distribution_known_row():
    # view 0 similar to view 1 (cos 1) and orthogonal to view 2 (cos 0), tau=1
    z = unit([[1, 0], [1, 0], [0, 1]])
    probs = losses.similarity_distribution(z, tau=1.0)
    e = math.e
    np.testing.assert_allclose(probs[0, 1:], [e / (e + 1), 1 / (e + 1)], rtol=1e-12)


def test_similarity_distribution_rows_sum_to_one():
    rng = np.random.default_rng(5)
    z = unit(rng.standard_normal((6, 3)))
    probs = losses.similarity_distribution(z, tau=0.2)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(np.diag(probs), np.zeros(6))


def test_similarity_distribution_sharpens_with_low_tau():
    rng = np.random.default_rng(6)
    z = unit(rng.standard_normal((6, 3)))
    sharp = losses.similarity_distribution(z, tau=0.01)
    soft = losses.similarity_distribution(z, tau=1.0)
    assert sharp.max() > soft.max()


def oracle_similarity_distribution(z, tau):
    """similarity_distribution as four allocating steps over the same Gram:
    the arithmetic its one in-place array must reproduce bit for bit."""
    sim = nc._gram(z) / tau
    np.fill_diagonal(sim, -np.inf)
    sim -= sim.max(axis=1, keepdims=True)
    ex = np.exp(sim)
    return ex / ex.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("tau", [0.01, 0.2, 1.0])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("v", [2, 6, 256])
def test_similarity_distribution_is_bitwise_the_allocating_formula(v, dtype,
                                                                  tau):
    z = unit(np.random.default_rng(v).standard_normal((v, 16))).astype(dtype)
    probs = losses.similarity_distribution(z, tau)
    want = oracle_similarity_distribution(z, tau)
    assert probs.dtype == want.dtype and probs.tobytes() == want.tobytes()


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

    with nc.Tape() as tape:
        grads = nc.backprop(tape, loss_fn())
    for p in params:
        np.testing.assert_allclose(grads[p], 0.0, atol=1e-10)


def test_distillation_view_count_mismatch():
    teacher = unit(np.random.default_rng(8).standard_normal((4, 3)))
    student = tensor_views(np.random.default_rng(9).standard_normal((6, 3)))
    with pytest.raises(ValueError):
        losses.distillation_loss(teacher, student, 0.01, 0.2)


@pytest.mark.parametrize("seed", range(3))
def test_distillation_gradient_check(seed):
    rng = np.random.default_rng(seed)
    params = make_embedder(rng)
    views = rng.standard_normal((6, 5))
    teacher = unit(rng.standard_normal((6, 4)))

    def loss_fn():
        z = embed_via_net(params, views)
        return losses.distillation_loss(teacher, z, tau_teacher=0.05, tau_student=0.2)

    assert tape_check(loss_fn, params) < 1e-6


# ---------------------------------------------------------------------------
# The fused similarity op against the chain of generic ops it replaces
# ---------------------------------------------------------------------------


def chain_loss(z, tau, target, factor):
    """factor * sum W * log softmax_offdiag(z z^T / tau) from the generic ops."""
    v = z.shape[0]
    offdiag = ~np.eye(v, dtype=bool)
    sim = nc.scale(nc.pairwise_cosine(z, z), 1.0 / tau)
    logp = nc.row_log_softmax(nc.mask_fill(sim, offdiag, -np.inf))
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
        target = losses.similarity_distribution(teacher, 0.01)
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


def dense_target(rng, v, dtype, diagonal):
    """Row-stochastic off-diagonal weights in dtype, then `diagonal` on the
    diagonal."""
    w = rng.random((v, v))
    np.fill_diagonal(w, 0.0)
    w = (w / w.sum(axis=1, keepdims=True)).astype(dtype)
    np.fill_diagonal(w, diagonal)
    return w


def backward_cells(backward):
    """The free variables of a softmax_xent_forward backward."""
    return dict(zip(backward.__code__.co_freevars,
                    (c.cell_contents for c in backward.__closure__)))


@pytest.mark.parametrize("z_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("v", [6, 256])
@pytest.mark.parametrize("kind", ["read_only_zero_diagonal",
                                  "nonzero_diagonal", "float64", "index"])
def test_fused_op_target_forms_are_bitwise_the_chain(kind, v, z_dtype):
    """A dense target of z's dtype with a zero diagonal is read in place and
    never written; one with a nonzero diagonal or another dtype is copied.
    Every form stays bitwise the chain of generic ops."""
    rng = np.random.default_rng(v)
    z = nc.Tensor(unit(rng.standard_normal((v, 16))).astype(z_dtype),
                  requires_grad=True)
    if kind == "index":
        target = (np.arange(v) + rng.integers(1, v, size=v)) % v
    else:
        target = dense_target(
            rng, v, np.float64 if kind == "float64" else z_dtype,
            0.25 if kind == "nonzero_diagonal" else 0.0)
        target.flags.writeable = kind != "read_only_zero_diagonal"
    before = target.tobytes()

    def fused(t):
        return nc.softmax_xent(t, 0.15, target, -1.0)

    assert (loss_and_grad(fused, z)
            == loss_and_grad(lambda t: chain_loss(t, 0.15, target, -1.0), z))
    assert target.tobytes() == before
    w = backward_cells(
        nc.softmax_xent_forward(z.data, 0.15, target, -1.0)[1])["w"]
    if kind == "index":
        assert w is None
    else:
        copied = (kind == "nonzero_diagonal"
                  or kind == "float64" and z_dtype == np.float32)
        assert (w is not target) == copied
        assert w.dtype == z_dtype and not w.diagonal().any()


def oracle_supcon_weights(labels, current, pseudo, dtype):
    """asym_supcon_loss's target as a float64 matrix over every row, cast
    once to the embedding dtype, with the anchors found by np.isin."""
    view_labels = np.repeat(labels, 2)
    view_pseudo = np.repeat(pseudo, 2)
    v = len(view_labels)
    positives = ((view_labels[:, None] == view_labels[None, :])
                 & ~np.eye(v, dtype=bool))
    active = (np.isin(view_labels, sorted(current)) & ~view_pseudo
              & positives.any(axis=1))
    weights = np.zeros((v, v))
    if active.any():
        weights[active] = (positives[active]
                           / positives[active].sum(axis=1, keepdims=True))
    weights /= v
    return weights.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("v", [2, 6, 100, 256])
def test_supcon_target_is_the_float64_formula_cast_once(v, dtype,
                                                        monkeypatch):
    rng = np.random.default_rng(v)
    seen = []
    monkeypatch.setattr(losses, "softmax_xent",
                        lambda z, tau, target, factor: seen.append(target))
    z = nc.Tensor(unit(rng.standard_normal((v, 4))).astype(dtype))
    # class counts vary the positive-set sizes k, and so how 1 / k / v rounds
    for current, n_classes in (({0, 1}, 3), ({2}, 7), (set(range(20)), 20),
                               ({7}, 3), (set(), 3)):
        labels = rng.integers(0, n_classes, size=v // 2)
        pseudo = rng.random(v // 2) < 0.3
        losses.asym_supcon_loss(z, labels, current, 0.1, pseudo_flags=pseudo)
        want = oracle_supcon_weights(labels, current, pseudo, dtype)
        assert seen[-1].dtype == want.dtype
        assert seen[-1].tobytes() == want.tobytes()


@pytest.mark.parametrize("bad,named", [
    (("sup",), "sup"), (("td",), "td"), (("kd",), "kd"), (("td", "kd"), "td"),
    (("sup", "kd"), "sup"), (("unsup",), "unsup"), (("kd", "unsup"), "kd")])
def test_combined_loss_names_the_first_non_finite_term(bad, named):
    terms = {name: nc.Tensor(np.float32(np.nan if name in bad else 1.0))
             for name in ("sup", "td", "kd", "unsup")}
    with pytest.raises(nc.NonFiniteError, match=f"^non-finite {named} term$"):
        losses.combined_loss(terms["sup"], terms["td"], terms["kd"],
                             losses.LossWeights(), t=2, l_unsup=terms["unsup"])


def test_combined_loss_adds_the_unsupervised_term_last_and_unweighted():
    terms = [nc.Tensor(np.float32(v), requires_grad=True)
             for v in (0.5, 2.0, 3.0, 7.0)]
    weights = losses.LossWeights(td_weight=0.25, kd_weight=0.5)
    with nc.Tape() as tape:
        total = losses.combined_loss(*terms[:3], weights, t=2,
                                     l_unsup=terms[3])
        grads = nc.backprop(tape, total)
    assert float(total.data) == 0.5 + 0.25 * 2.0 + 0.5 * 3.0 + 7.0
    assert [float(grads[t]) for t in terms] == [1.0, 0.25, 0.5, 1.0]
    only = losses.combined_loss(None, None, None, weights, t=1,
                                l_unsup=terms[3])
    assert only is terms[3]


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
    out = losses.learner_objective(z, 2, w, labels=None,
                                   current_classes=frozenset(), use_sup=False,
                                   td_teacher=z)
    assert float(out.total) == pytest.approx(0.2 * math.log(n_views - 1),
                                             rel=1e-9)
    term, weighted = out.terms["td"]
    assert float(term) == pytest.approx(math.log(n_views - 1), rel=1e-9)
    assert weighted == out.total


def test_learner_objective_supervision_is_per_anchor_mean():
    # two of the four views anchor; the loss function itself divides by 4
    z = unit([[1, 0], [1, 0], [0, 1], [0, 1]])
    out = losses.learner_objective(z, 1, losses.LossWeights(tau=1.0),
                                   labels=[0, 1], current_classes={0})
    assert float(out.total) == pytest.approx(LOG_1P_2E, rel=1e-9)
    raw = losses.asym_supcon_loss(nc.Tensor(z), [0, 1], {0}, tau=1.0)
    assert float(raw.data) == pytest.approx(0.5 * LOG_1P_2E, rel=1e-9)


def test_learner_objective_ignores_non_anchors_in_supervised_mean():
    # a past pair and a pseudo-labeled pair raise 2N to 6, yet only the two
    # current views anchor, so the objective is 6/2 times the function's value
    z = unit([[1, 0], [1, 0], [0, 1], [0, 1], [0, 1], [0, 1]])
    out = losses.learner_objective(z, 1, losses.LossWeights(tau=1.0),
                                   labels=[0, 1, 0], current_classes={0},
                                   pseudo_flags=[False, False, True])
    active, _ = losses.supcon_anchors([0, 1, 0], {0}, [False, False, True])
    raw = losses.asym_supcon_loss(nc.Tensor(z), [0, 1, 0], {0}, tau=1.0,
                                  pseudo_flags=[False, False, True])
    assert active.tolist() == [True, True, False, False, False, False]
    assert float(out.total) == pytest.approx(3.0 * float(raw.data), rel=1e-12)


def test_learner_objective_without_anchors_is_zero():
    z = unit([[1, 0], [1, 0], [0, 1], [0, 1]])
    out = losses.learner_objective(z, 1, losses.LossWeights(), labels=[3, 4],
                                   current_classes={0, 1})
    assert float(out.total) == 0.0
    assert not out.grads["z"].any()


def test_learner_objective_finds_the_anchors_once(monkeypatch):
    calls = []
    original = losses.supcon_anchors

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(losses, "supcon_anchors", counted)
    z = unit([[1, 0], [1, 0], [0, 1], [0, 1], [0, 1], [0, 1]])
    out = losses.learner_objective(z, 1, losses.LossWeights(tau=1.0),
                                   labels=[0, 1, 0], current_classes={0},
                                   pseudo_flags=[False, False, True])
    assert len(calls) == 1
    monkeypatch.undo()
    raw = losses.asym_supcon_loss(nc.Tensor(z), [0, 1, 0], {0}, tau=1.0,
                                  pseudo_flags=[False, False, True])
    assert out.total.tobytes() == nc.scale(raw, 6 / 2).data.tobytes()


def tape_objective(z, t, weights, labels, current_classes, pseudo_flags=None,
                   use_sup=True, td_teacher=None, kd_teacher=None,
                   kd_student=None, unsup_student=None):
    """learner_objective composed of the tape ops, on Tensors: the unsupervised
    term, asym_supcon_loss, distillation_loss and their per-anchor scales,
    then combined_loss. Returns (total, {name: (term, weighted)})."""
    v = z.shape[0]
    l_unsup = (None if unsup_student is None
               else losses.ntxent_loss(unsup_student, weights.tau))
    l_sup = l_td = l_kd = None
    if use_sup:
        active, _ = losses.supcon_anchors(labels, current_classes, pseudo_flags)
        l_sup = losses.asym_supcon_loss(
            z, labels, current_classes, weights.tau, pseudo_flags=pseudo_flags)
        if active.any():
            l_sup = nc.scale(l_sup, v / int(active.sum()))
    if td_teacher is not None:
        l_td = nc.scale(losses.distillation_loss(
            td_teacher, z, weights.tau_teacher, weights.tau_student), 1.0 / v)
    if kd_teacher is not None:
        l_kd = nc.scale(losses.distillation_loss(
            kd_teacher, kd_student, weights.tau_teacher, weights.tau_student),
            1.0 / kd_student.shape[0])
    total = losses.combined_loss(l_sup, l_td, l_kd, weights, t,
                                 l_unsup=l_unsup)
    terms = {}
    for name, term, weight in (("sup", l_sup, None),
                               ("td", l_td, weights.td_weight),
                               ("kd", l_kd, weights.kd_weight),
                               ("unsup", l_unsup, None)):
        if term is not None:
            terms[name] = (term.data, term.data if weight is None
                           else nc.scale(term, weight).data)
    return total, terms


# (t, use_sup, td, kd, unsup, labels): labels 3 and 4 are past classes, so
# "no_anchor" has no active anchor
OBJECTIVE_CASES = {
    "t1": (1, True, False, True, False, [0, 1, 0, 2, 1, 3, 4, 0]),
    "t2": (2, True, True, True, False, [0, 1, 0, 2, 1, 3, 4, 0]),
    "no_anchor": (2, True, True, True, False, [3, 3, 4, 4, 3, 4, 4, 3]),
    "wo_sup": (2, False, True, True, False, [0, 1, 0, 2, 1, 3, 4, 0]),
    "wo_sup_t1": (1, False, False, True, False, [0, 1, 0, 2, 1, 3, 4, 0]),
    "wo_td": (2, True, False, True, False, [0, 1, 0, 2, 1, 3, 4, 0]),
    "wo_kd": (2, True, True, False, False, [0, 1, 0, 2, 1, 3, 4, 0]),
    "co2l_j": (2, True, True, False, True, [0, 1, 0, 2, 1, 3, 4, 0]),
    "co2l_j_t1": (1, True, False, False, True, [0, 1, 0, 2, 1, 3, 4, 0]),
    "unsup_only": (1, False, False, False, True, [0, 1, 0, 2, 1, 3, 4, 0]),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", OBJECTIVE_CASES)
def test_learner_objective_is_bitwise_the_tape_composition(case, dtype):
    """The total, each term before and after weighting, and dL/dz per
    embedding are the bytes of the tape ops and backprop."""
    t, use_sup, td, kd, unsup, labels = OBJECTIVE_CASES[case]
    rng = np.random.default_rng(len(case))
    rows = {name: unit(rng.standard_normal((v, 6))).astype(dtype)
            for name, v in (("z", 16), ("td_teacher", 16), ("kd_teacher", 12),
                            ("kd_student", 12), ("unsup_student", 20))}
    weights = losses.LossWeights(tau=0.15, tau_teacher=0.02, tau_student=0.2,
                                 td_weight=0.3, kd_weight=0.45)
    kwargs = dict(pseudo_flags=[i % 5 == 4 for i in range(8)],
                  use_sup=use_sup,
                  td_teacher=rows["td_teacher"] if td else None,
                  kd_teacher=rows["kd_teacher"] if kd else None)
    students = {"z": rows["z"]}
    if kd:
        students["kd_student"] = rows["kd_student"]
    if unsup:
        students["unsup_student"] = rows["unsup_student"]
    leaves = {name: nc.Tensor(y, requires_grad=True)
              for name, y in students.items()}

    with nc.Tape() as tape:
        total, terms = tape_objective(
            leaves["z"], t, weights, labels, {0, 1, 2},
            **{k: v for k, v in leaves.items() if k != "z"}, **kwargs)
        grads = nc.backprop(tape, total)
    z = students.pop("z")
    out = losses.learner_objective(z, t, weights, labels, {0, 1, 2},
                                   **students, **kwargs)

    assert out.total.dtype == dtype
    assert out.total.tobytes() == total.data.tobytes()
    assert list(out.terms) == list(terms)
    for name, (term, weighted) in terms.items():
        assert [np.asarray(a).tobytes() for a in out.terms[name]] == [
            np.asarray(term).tobytes(), np.asarray(weighted).tobytes()]
    assert set(out.grads) == {name for name, leaf in leaves.items()
                              if leaf in grads}
    for name, grad in out.grads.items():
        assert grad.dtype == dtype
        assert grad.tobytes() == grads[leaves[name]].tobytes()


@pytest.mark.parametrize("labels", [[0, 1, 0, 2], [3, 3, 4, 4]],
                         ids=["anchors", "no_anchors"])
@pytest.mark.parametrize("seed", range(3))
def test_learner_objective_gradient_check(seed, labels):
    """The objective the learner trains on: one z shared by supervision and
    time distillation, a separate zk for reference distillation, and every
    per-anchor rescale, checked end to end through its tape composition,
    whose total and dL/dz learner_objective's are, bit for bit (labels 3
    and 4 are past classes, so the second case has no active anchor)."""
    rng = np.random.default_rng(seed)
    params = make_embedder(rng)
    views = rng.standard_normal((8, 5))
    kd_views = rng.standard_normal((6, 5))
    td_teacher = unit(rng.standard_normal((8, 4)))
    kd_teacher = unit(rng.standard_normal((6, 4)))
    weights = losses.LossWeights(tau=0.3, tau_teacher=0.05, tau_student=0.2,
                                 td_weight=0.4, kd_weight=0.3)
    kwargs = dict(pseudo_flags=[False, False, True, seed == 2],
                  td_teacher=td_teacher, kd_teacher=kd_teacher)

    def loss_fn():
        return tape_objective(embed_via_net(params, views), 2, weights, labels,
                              {0, 1}, kd_student=embed_via_net(params, kd_views),
                              **kwargs)[0]

    assert tape_check(loss_fn, params) < 1e-6
    z = embed_via_net(params, views).data
    zk = embed_via_net(params, kd_views).data
    z_leaf, zk_leaf = (nc.Tensor(a, requires_grad=True) for a in (z, zk))
    with nc.Tape() as tape:
        total = tape_objective(z_leaf, 2, weights, labels, {0, 1},
                               kd_student=zk_leaf, **kwargs)[0]
        grads = nc.backprop(tape, total)
    out = losses.learner_objective(z, 2, weights, labels, {0, 1},
                                   kd_student=zk, **kwargs)
    assert out.total.tobytes() == total.data.tobytes()
    assert out.grads["z"].tobytes() == grads[z_leaf].tobytes()
    assert out.grads["kd_student"].tobytes() == grads[zk_leaf].tobytes()


@pytest.mark.parametrize("nan_in,use_sup,named", [
    ("z", True, "sup"), ("z", False, "td"), ("td_teacher", True, "td"),
    ("kd_teacher", True, "kd"), ("kd_student", True, "kd")])
def test_a_nan_row_ends_in_an_error_naming_its_term(nan_in, use_sup, named):
    """The row max skips a NaN (np.fmax), yet a NaN learner or teacher row
    still makes its term NaN, and learner_objective names the first such
    term, as combined_loss does."""
    rng = np.random.default_rng(4)
    rows = {name: unit(rng.standard_normal((v, 4))).astype(np.float32)
            for name, v in (("z", 8), ("td_teacher", 8), ("kd_teacher", 6),
                            ("kd_student", 6))}
    rows[nan_in][2] = np.nan
    with pytest.raises(nc.NonFiniteError, match=f"^non-finite {named} term$"):
        losses.learner_objective(
            rows["z"], 2, losses.LossWeights(), [0, 1, 0, 2],
            {0, 1}, use_sup=use_sup, td_teacher=rows["td_teacher"],
            kd_teacher=rows["kd_teacher"], kd_student=rows["kd_student"])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ntxent_grad_is_bitwise_the_tape(dtype):
    z = unit(np.random.default_rng(3).standard_normal((12, 5))).astype(dtype)
    leaf = nc.Tensor(z, requires_grad=True)
    with nc.Tape() as tape:
        loss = losses.ntxent_loss(leaf, 0.1)
        grads = nc.backprop(tape, loss)
    got, dz = losses.ntxent_grad(z, 0.1)
    assert got.tobytes() == loss.data.tobytes()
    assert dz.tobytes() == grads[leaf].tobytes()


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        losses.LossWeights(tau=0.0)
    with pytest.raises(ValueError):
        losses.LossWeights(td_weight=-0.1)
