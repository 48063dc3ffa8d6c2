"""Tests for the encoder-projector, snapshots, classifier head, and checkpoints."""

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


def test_embed_rows_are_unit():
    net = make_net()
    x = np.random.default_rng(1).standard_normal((10, 8)).astype(np.float32)
    z = net.embed(x)
    assert z.shape == (10, 4)
    np.testing.assert_allclose((z.data ** 2).sum(axis=1), 1.0, atol=1e-5)


def test_feature_dim_is_last_hidden_width():
    net = make_net()
    assert net.feature_dim == 16
    x = np.zeros((3, 8), dtype=np.float32)
    assert net.encoder_features(x).shape == (3, 16)


def test_init_is_seed_deterministic():
    a, b = make_net(5), make_net(5)
    for pa, pb in zip(a.params, b.params):
        np.testing.assert_array_equal(pa.data, pb.data)
    c = make_net(6)
    assert any((pa.data != pc.data).any() for pa, pc in zip(a.params, c.params))


def test_zero_width_rejected():
    with pytest.raises(ValueError):
        nets.EncoderProjector(8, hidden=(16, 0), rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        nets.EncoderProjector(0, rng=np.random.default_rng(0))


def test_gradients_reach_every_parameter():
    net = make_net(dtype=np.float64)
    x = np.random.default_rng(2).standard_normal((6, 8))
    with nc.Tape() as tape:
        z = net.embed(x)
        loss = nc.total_sum(nc.mul(z, z))
        grads = nc.backprop(tape, loss)
    for p in net.params:
        assert p in grads, "every parameter should receive gradient"


def test_snapshot_matches_net_then_freezes():
    net = make_net()
    x = np.random.default_rng(3).standard_normal((5, 8)).astype(np.float32)
    snap = net.snapshot()
    np.testing.assert_array_equal(snap.embed(x).data, net.embed(x).data)
    digest_before = param_digest(snap)

    # train the live net a little; the snapshot must not move
    opt = nc.Adam(net.params, lr=0.05)
    with nc.Tape() as tape:
        loss = nc.total_sum(net.embed(x))
        grads = nc.backprop(tape, loss)
    opt.step(grads)
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
        assert not z.requires_grad
        assert len(tape) == 0


def test_copy_params_from_net_and_snapshot():
    a, b = make_net(1), make_net(2)
    b.copy_params_from(a)
    for pa, pb in zip(a.params, b.params):
        np.testing.assert_array_equal(pa.data, pb.data)
    c = make_net(3)
    c.copy_params_from(a.snapshot())
    for pa, pc in zip(a.params, c.params):
        np.testing.assert_array_equal(pa.data, pc.data)


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


def test_checkpoint_roundtrip_exact(tmp_path):
    net = make_net(9)
    path = tmp_path / "net.bin"
    nets.save_net(net, path)
    back = nets.load_net(path)
    assert back.arch_tuple() == net.arch_tuple()
    for pa, pb in zip(net.param_arrays(), back.param_arrays()):
        np.testing.assert_array_equal(pa, pb)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(ValueError):
        nets.load_net(path)


def test_checkpoint_rejects_truncation(tmp_path):
    net = make_net()
    path = tmp_path / "net.bin"
    nets.save_net(net, path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError):
        nets.load_net(path)
