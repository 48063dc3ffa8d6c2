"""Tests for the encoder-projector, snapshots, and classifier head."""

import hashlib

import numpy as np
import pytest

from osscl import nets, numcore as nc


def param_digest(net):
    """sha256 over the concatenated parameter bytes of a net or snapshot,
    for immutability checks."""
    h = hashlib.sha256()
    for a in net.param_arrays():
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def make_net(seed=0, dtype=np.float32):
    return nets.EncoderProjector(8, hidden=(16, 16), proj_hidden=8, embed_dim=4,
                                 rng=np.random.default_rng(seed), dtype=dtype)


def output_grad(z, seed):
    """A fixed random array of z's shape and dtype, for the gradient a loss
    hands an embedding z."""
    return np.random.default_rng(seed).standard_normal(z.shape).astype(z.dtype)


def flat_grad(net, x, seed):
    """The flat parameter gradient of net's embedding of x at output_grad."""
    z, cache = net.forward(x)
    return nc.mlp_backward(cache, output_grad(z, seed))


def test_embed_rows_are_unit():
    net = make_net()
    x = np.random.default_rng(1).standard_normal((10, 8)).astype(np.float32)
    z = net.embed(x)
    assert isinstance(z, np.ndarray) and z.shape == (10, 4)
    np.testing.assert_allclose((z ** 2).sum(axis=1), 1.0, atol=1e-5)


def test_init_is_seed_deterministic():
    a, b = make_net(5), make_net(5)
    np.testing.assert_array_equal(a.params, b.params)
    c = make_net(6)
    assert (a.params != c.params).any()


def test_zero_width_rejected():
    base = dict(input_dim=8, hidden=(16,), proj_hidden=8, embed_dim=4)
    for bad in (dict(hidden=(16, 0)), dict(hidden=()), dict(input_dim=0),
                dict(proj_hidden=0), dict(embed_dim=0)):
        with pytest.raises(ValueError, match="widths must be positive"):
            nets.EncoderProjector(**{**base, **bad},
                                  rng=np.random.default_rng(0))


def test_rng_is_required_and_keyword_only():
    with pytest.raises(TypeError):
        nets.EncoderProjector(8)
    with pytest.raises(TypeError):
        nets.EncoderProjector(8, (16,), 8, 4, np.random.default_rng(0))


def test_gradients_reach_every_parameter():
    net = make_net(dtype=np.float64)
    x = np.random.default_rng(2).standard_normal((6, 8))
    z, cache = net.forward(x)
    grad = nc.mlp_backward(cache, output_grad(z, 0))
    # one flat gradient covers every weight and bias
    assert grad.shape == net.params.shape
    assert all(view.any() for view in flat_grad_views(grad, net))


def test_snapshot_matches_net_then_freezes():
    net = make_net()
    x = np.random.default_rng(3).standard_normal((5, 8)).astype(np.float32)
    snap = net.snapshot()
    np.testing.assert_array_equal(snap.embed(x), net.embed(x))
    digest_before = param_digest(snap)

    # train the live net a little; the snapshot must not move
    nc.Adam(net.params, lr=0.05).step(flat_grad(net, x, 0))
    assert param_digest(snap) == digest_before
    assert any((a != b).any() for a, b in zip(net.param_arrays(), snap.param_arrays()))


def test_snapshot_arrays_not_writable():
    snap = make_net().snapshot()
    with pytest.raises(ValueError):
        snap.param_arrays()[0][0, 0] = 1.0


def test_snapshot_forward_takes_no_gradient():
    net = make_net(dtype=np.float64)
    snap = net.snapshot()
    x = np.random.default_rng(4).standard_normal((4, 8))
    with nc.Tape() as tape:
        z = snap.embed(x)
        assert isinstance(z, np.ndarray)
        assert len(tape) == 0


def test_copy_params_from_net_and_snapshot():
    a, b = make_net(1), make_net(2)
    b.copy_params_from(a)
    np.testing.assert_array_equal(a.params, b.params)
    c = make_net(3)
    c.copy_params_from(a.snapshot())
    np.testing.assert_array_equal(a.params, c.params)


def test_copy_params_shape_mismatch():
    a = make_net(1)
    other = nets.EncoderProjector(8, hidden=(16, 8), proj_hidden=8, embed_dim=4,
                                  rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        a.copy_params_from(other)


def test_classifier_shapes_and_gradients():
    rng = np.random.default_rng(0)
    head = nets.LinearClassifier(16, 5, rng, dtype=np.float64)
    feats = rng.standard_normal((7, 16))
    with nc.Tape() as tape:
        logits = head.classify(feats)
        assert logits.shape == (7, 5)
        loss = nc.total_sum(nc.mul(logits, logits))
        grads = nc.backprop(tape, loss)
    assert head.weight in grads and head.bias in grads


def test_classifier_weight_and_bias_are_views_of_one_flat_buffer():
    head = nets.LinearClassifier(16, 5, np.random.default_rng(3))
    ((w, b),) = nc.mlp_views(head.params, (16, 5))
    assert head.params.shape == (16 * 5 + 5,)
    assert head.weight.data.base is head.params
    assert head.bias.data.base is head.params
    assert head.weight.data.tobytes() == w.tobytes()
    assert head.bias.data.tobytes() == b.tobytes() == bytes(5 * 4)
    # the init draws are kaiming_uniform's, rounded once to the dtype
    drawn = nets.kaiming_uniform(np.random.default_rng(3), 16, 5)
    assert w.tobytes() == drawn.astype(np.float32).tobytes()


# ---------------------------------------------------------------------------
# The flat parameter buffer and the MLP kernels
# ---------------------------------------------------------------------------


def chain_embed(x, params, unit=True):
    """The generic-op chain the MLP kernels stand for, over separate
    parameter tensors: affine -> relu -> ... -> affine -> l2_normalize_rows
    (every affine followed by relu when not unit)."""
    h = nc.Tensor(x)
    last = len(params) // 2 - 1
    for k in range(last + 1):
        h = nc.affine(h, params[2 * k], params[2 * k + 1])
        if k < last or not unit:
            h = nc.relu(h)
    return nc.l2_normalize_rows(h) if unit else h


def leaf_copies(net):
    return [nc.Tensor(a.copy(), requires_grad=True) for a in net.param_arrays()]


def weighted_sum(z, seed):
    """A scalar loss whose gradient with respect to z is output_grad(z, seed)."""
    return nc.total_sum(nc.mul(z, nc.Tensor(output_grad(z, seed))))


def flat_grad_views(grad, net):
    return [a for layer in nc.mlp_views(grad, net.dims) for a in layer]


@pytest.mark.parametrize("batch", [1, 2, 256])
@pytest.mark.parametrize("width", [8, 3072])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_embed_is_bitwise_the_chain(dtype, width, batch):
    """mlp_forward and mlp_backward, which every forward of the nets runs,
    compute the chain's output and parameter gradients bit for bit."""
    net = nets.EncoderProjector(width, hidden=(64, 64), proj_hidden=32,
                                embed_dim=16, rng=np.random.default_rng(batch),
                                dtype=dtype)
    x = np.random.default_rng(width).standard_normal((batch, width)).astype(dtype)
    encoder = net.dims[:len(net.hidden) + 1]
    for unit, dims, forward in ((True, net.dims, net.embed),
                                (False, encoder, net.encoder_features)):
        params = leaf_copies(net)
        if not unit:
            params = params[:2 * len(net.hidden)]
        with nc.Tape() as tape:
            z = chain_embed(x, params, unit)
            grads = nc.backprop(tape, weighted_sum(z, 5))
        zf, cache = nc.mlp_forward(x, net.params, dims, unit)
        assert zf.dtype == z.data.dtype
        assert zf.tobytes() == z.data.tobytes()
        assert forward(x).tobytes() == zf.tobytes()
        views = flat_grad_views(nc.mlp_backward(cache, output_grad(zf, 5)),
                                net)
        for view, p in zip(views, params):
            assert view.tobytes() == grads[p].tobytes()
        # the head takes no gradient from the encoder features
        assert not any(v.any() for v in views[len(params):])


def test_two_embeddings_sum_flat_gradients_in_tape_order():
    """Flat gradients of three embeddings, added the later one first as the
    trainers add them, are the chain's gradients as backprop sums them."""
    net = make_net(3)
    rng = np.random.default_rng(4)
    x1, x2, x3 = (rng.standard_normal((6, 8)).astype(np.float32)
                  for _ in range(3))
    params = leaf_copies(net)
    with nc.Tape() as tape:
        loss = nc.add(nc.add(weighted_sum(chain_embed(x1, params), 1),
                             weighted_sum(chain_embed(x2, params), 2)),
                      weighted_sum(chain_embed(x3, params), 3))
        grads = nc.backprop(tape, loss)
    alone = [flat_grad(net, x, seed) for x, seed in ((x1, 1), (x2, 2), (x3, 3))]
    flat = (alone[2] + alone[1]) + alone[0]
    for view, p in zip(flat_grad_views(flat, net), params):
        assert view.tobytes() == grads[p].tobytes()


def test_fused_embed_checks_shapes_and_norms():
    net = make_net()
    with pytest.raises(nc.ShapeError, match="mlp_forward"):
        net.embed(np.ones((3, 7), dtype=np.float32))
    with pytest.raises(nc.ShapeError, match="mlp_forward"):
        nc.mlp_forward(np.ones((3, 8)), np.ones(10), net.dims)
    dead = make_net()
    dead.params[...] = 0
    with pytest.raises(nc.DegenerateNormError):
        dead.embed(np.ones((2, 8), dtype=np.float32))


def test_weights_are_views_of_the_flat_buffer():
    net = make_net(2)
    arrays = net.param_arrays()
    assert [a.shape for a in arrays] == [(8, 16), (16,), (16, 16), (16,),
                                         (16, 8), (8,), (8, 4), (4,)]
    assert all(np.shares_memory(a, net.params) for a in arrays)
    assert sum(a.size for a in arrays) == net.params.size
    assert (np.concatenate([a.ravel() for a in arrays]).tobytes()
            == net.params.tobytes())
    # the optimizer writes in place, so views taken before a step see it
    grad = flat_grad(net, np.ones((2, 8)), 0)
    before = arrays[0].copy()
    nc.Adam(net.params, lr=0.05).step(grad)
    assert (arrays[0] != before).any()
    assert arrays[0].tobytes() == net.param_arrays()[0].tobytes()


def test_snapshot_params_are_one_frozen_copy():
    net = make_net(4)
    snap = net.snapshot()
    assert isinstance(snap.params, np.ndarray)
    assert not snap.params.flags.writeable
    assert not np.shares_memory(snap.params, net.params)
    assert snap.params.tobytes() == net.params.tobytes()
