"""Tests for the autodiff core: op gradients, tape semantics, optimizer, schedule."""

import ast
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osscl import losses, numcore as nc
from osscl.trainer import MethodConfig, _cosine_lr


def tape_check(fn, params):
    """check_gradients of the loss fn records on a tape, at backprop's
    gradients of the leaf Tensors params: the oracle of the tape ops and
    losses. A param the loss does not reach has a zero gradient."""
    with nc.Tape() as tape:
        grads = nc.backprop(tape, fn())
    return nc.check_gradients(
        lambda: fn().data, [p.data for p in params],
        [grads.get(p, np.zeros_like(p.data)) for p in params])


def make_params(rng, *shapes):
    return [nc.Tensor(rng.standard_normal(s), requires_grad=True, dtype=np.float64)
            for s in shapes]


def test_tensor_casts_ints_to_float32():
    t = nc.Tensor([1, 2, 3])
    assert t.dtype == np.float32


def test_tensor_preserves_float64():
    t = nc.Tensor(np.zeros(3, dtype=np.float64))
    assert t.dtype == np.float64


def test_sum_gradient_is_ones():
    p = nc.Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
    with nc.Tape() as tape:
        loss = nc.total_sum(p)
        grads = nc.backprop(tape, loss)
    np.testing.assert_array_equal(grads[p], np.ones((2, 3)))


def test_backprop_accumulates_over_reuse():
    p = nc.Tensor(np.array([2.0, 3.0]), requires_grad=True, dtype=np.float64)
    with nc.Tape() as tape:
        y = nc.mul(p, p)
        loss = nc.total_sum(y)
        grads = nc.backprop(tape, loss)
    np.testing.assert_allclose(grads[p], 2.0 * p.data)


def test_backprop_twice_raises():
    p = nc.Tensor(np.ones(2), requires_grad=True, dtype=np.float64)
    with nc.Tape() as tape:
        loss = nc.total_sum(p)
        nc.backprop(tape, loss)
        with pytest.raises(nc.TapeConsumedError):
            nc.backprop(tape, loss)


def test_backprop_rejects_nonscalar_loss():
    p = nc.Tensor(np.ones(2), requires_grad=True, dtype=np.float64)
    with nc.Tape() as tape:
        y = nc.relu(p)
        with pytest.raises(nc.ShapeError):
            nc.backprop(tape, y)


def test_backprop_rejects_off_tape_loss():
    p = nc.Tensor(np.ones(2), requires_grad=True, dtype=np.float64)
    loss = nc.total_sum(p)  # no tape active
    with nc.Tape() as tape:
        nc.total_sum(p)
        with pytest.raises(ValueError):
            nc.backprop(tape, loss)


def test_ops_do_not_mutate_inputs():
    rng = np.random.default_rng(0)
    x = nc.Tensor(rng.standard_normal((4, 3)), requires_grad=True, dtype=np.float64)
    before = x.data.copy()
    with nc.Tape() as tape:
        y = nc.l2_normalize_rows(x)
        loss = nc.total_sum(nc.relu(y))
        nc.backprop(tape, loss)
    np.testing.assert_array_equal(x.data, before)


def test_no_tape_means_no_recording():
    p = nc.Tensor(np.ones(2), requires_grad=True, dtype=np.float64)
    y = nc.relu(p)
    assert y.requires_grad
    with nc.Tape() as tape:
        pass
    assert len(tape) == 0


@pytest.mark.parametrize("seed", range(4))
def test_affine_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x, w, b = make_params(rng, (3, 4), (4, 5), (5,))

    def loss_fn():
        return nc.total_sum(nc.mul(nc.affine(x, w, b), nc.affine(x, w, b)))

    assert tape_check(loss_fn, [x, w, b]) < 1e-6


def test_affine_shape_error():
    x = nc.Tensor(np.ones((2, 3)))
    w = nc.Tensor(np.ones((4, 5)))
    b = nc.Tensor(np.ones(5))
    with pytest.raises(nc.ShapeError):
        nc.affine(x, w, b)


def test_check_gradients_measures_a_wrong_backward():
    # the loss sum(k * x) checked at the gradient 2k: each element's error is
    # |2k - k| / max(1e-3, 2k, k) = 0.5; at k = 1e-4 the 1e-3 floor sets the
    # denominator: 1e-4 / 1e-3 = 0.1. A param the loss does not read, at a
    # zero gradient, adds no error.
    x = np.array([0.3, -1.2, 2.0])
    unused = np.ones(2)

    def loss(k):
        return lambda: k * x.sum()

    assert nc.check_gradients(loss(1.0), [x, unused],
                              [np.full(3, 2.0), np.zeros(2)]) == pytest.approx(0.5)
    assert nc.check_gradients(loss(1e-4), [x],
                              [np.full(3, 2e-4)]) == pytest.approx(0.1)
    assert x.tolist() == [0.3, -1.2, 2.0]


@pytest.mark.parametrize("seed", range(4))
def test_relu_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    # keep entries away from the kink at 0
    data = rng.standard_normal((5, 4))
    data[np.abs(data) < 0.1] += 0.2
    x = nc.Tensor(data, requires_grad=True, dtype=np.float64)

    def loss_fn():
        return nc.total_sum(nc.relu(x))

    assert tape_check(loss_fn, [x]) < 1e-6


def test_relu_subgradient_at_zero_is_zero():
    x = nc.Tensor(np.zeros((1, 2)), requires_grad=True, dtype=np.float64)
    with nc.Tape() as tape:
        loss = nc.total_sum(nc.relu(x))
        grads = nc.backprop(tape, loss)
    np.testing.assert_array_equal(grads[x], np.zeros((1, 2)))


@pytest.mark.parametrize("seed", range(4))
def test_l2_normalize_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = nc.Tensor(rng.standard_normal((4, 6)) + 0.5, requires_grad=True,
                  dtype=np.float64)
    direction = rng.standard_normal((4, 6))

    def loss_fn():
        return nc.total_sum(nc.mul(nc.l2_normalize_rows(x), nc.Tensor(direction)))

    assert tape_check(loss_fn, [x]) < 1e-6


def test_l2_normalize_unit_rows():
    rng = np.random.default_rng(1)
    x = nc.Tensor(rng.standard_normal((8, 5)))
    y = nc.l2_normalize_rows(x)
    np.testing.assert_allclose((y.data ** 2).sum(axis=1), 1.0, atol=1e-6)


def test_l2_normalize_degenerate_row():
    x = nc.Tensor(np.zeros((2, 3)))
    with pytest.raises(nc.DegenerateNormError):
        nc.l2_normalize_rows(x)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_l2_normalize_idempotent(rows, seed):
    rng = np.random.default_rng(seed)
    x = nc.Tensor(rng.standard_normal((rows, 4)) + 0.1, dtype=np.float64)
    once = nc.l2_normalize_rows(x)
    twice = nc.l2_normalize_rows(once)
    np.testing.assert_allclose(twice.data, once.data, atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_pairwise_cosine_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    a = nc.Tensor(rng.standard_normal((3, 5)), requires_grad=True, dtype=np.float64)
    b = nc.Tensor(rng.standard_normal((4, 5)), requires_grad=True, dtype=np.float64)
    direction = rng.standard_normal((3, 4))

    def loss_fn():
        sim = nc.pairwise_cosine(nc.l2_normalize_rows(a), nc.l2_normalize_rows(b))
        return nc.total_sum(nc.mul(sim, nc.Tensor(direction)))

    assert tape_check(loss_fn, [a, b]) < 1e-6


def test_pairwise_cosine_same_tensor_accumulates():
    rng = np.random.default_rng(2)
    a = nc.Tensor(rng.standard_normal((3, 4)), requires_grad=True, dtype=np.float64)

    def loss_fn():
        z = nc.l2_normalize_rows(a)
        return nc.total_sum(nc.pairwise_cosine(z, z))

    assert tape_check(loss_fn, [a]) < 1e-6


def test_pairwise_cosine_rejects_non_unit_rows():
    a = nc.Tensor(2.0 * np.ones((2, 3)))
    with pytest.raises(nc.ShapeError):
        nc.pairwise_cosine(a, a)


def test_pairwise_cosine_range():
    rng = np.random.default_rng(3)
    a = nc.l2_normalize_rows(nc.Tensor(rng.standard_normal((6, 4))))
    sim = nc.pairwise_cosine(a, a)
    assert sim.data.max() <= 1.0 + 1e-6
    assert sim.data.min() >= -1.0 - 1e-6


# ---------------------------------------------------------------------------
# Gram products and the lean softmax_xent backward
# ---------------------------------------------------------------------------


def unit_rows(rng, v, d, dtype):
    z = rng.standard_normal((v, d))
    return (z / np.linalg.norm(z, axis=1, keepdims=True)).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("v", [2, 6, 17, 100, 256])
@pytest.mark.parametrize("d", [3, 16, 32])
def test_every_gram_is_the_gemm_helper(d, v, dtype, monkeypatch):
    """The fused op's similarity, similarity_distribution's logits and
    pairwise_cosine(z, z) are _gram's product, so a fused op and its chain
    agree on BLAS builds where x @ x.T (syrk) and gemm round differently."""
    z = unit_rows(np.random.default_rng(v * d), v, d, dtype)
    real_gram = nc._gram
    gram = real_gram(z).tobytes()
    calls = []

    def spy(x):
        out = real_gram(x)
        calls.append((x, out.tobytes()))
        return out

    monkeypatch.setattr(nc, "_gram", spy)
    monkeypatch.setattr(losses, "_gram", spy)
    t = nc.Tensor(z)
    assert nc.pairwise_cosine(t, t).data.tobytes() == gram
    losses.similarity_distribution(z, 0.5)
    nc.softmax_xent(t, 0.5, (np.arange(v) + 1) % v, -1.0)
    assert len(calls) == 3
    for x, out in calls:
        assert x is z and out == gram


def gram_products(source):
    """Each product of an expression with its own transpose in source, as
    `a @ a.T`, `np.dot(a, a.T)` or `np.matmul(a, a.T)`, optionally with
    .copy() on the transpose."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            a, b = node.left, node.right
        elif (isinstance(node, ast.Call) and len(node.args) == 2
              and ast.unparse(node.func) in ("np.dot", "np.matmul")):
            a, b = node.args
        else:
            continue
        if (isinstance(b, ast.Call) and not b.args
                and ast.unparse(b.func).endswith(".copy")):
            b = b.func.value
        if (isinstance(b, ast.Attribute) and b.attr == "T"
                and ast.dump(b.value) == ast.dump(a)):
            yield ast.unparse(node)


def test_no_gram_bypasses_the_helper():
    """x @ x.T goes to syrk, which may round unlike _gram's gemm; the only
    Gram product in the package is the one inside _gram."""
    src = os.path.dirname(os.path.abspath(nc.__file__))
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                found += [(name, expr) for expr in gram_products(f.read())]
    assert found == [("numcore.py", "x @ x.T.copy()")]
    assert list(gram_products("s = z @ z.T\nt = np.dot(a.b, a.b.T)")) == [
        "z @ z.T", "np.dot(a.b, a.b.T)"]


def oracle_softmax_xent(z, tau, target, factor, upstream):
    """softmax_xent with its allocating backward (a zero matrix, gather2d's
    scatter, a row sum) over the same Gram, under an upstream factor: the
    arithmetic the lean backward must reproduce bit for bit. Returns the
    loss and the z-gradient bytes."""
    v = len(z)
    rows = np.arange(v)
    inv_tau = float(1.0 / tau)
    logp = nc._gram(z)
    logp *= z.dtype.type(inv_tau)
    np.fill_diagonal(logp, -np.inf)
    logp -= logp.max(axis=1, keepdims=True)
    ex = np.exp(logp)
    denom = ex.sum(axis=1, keepdims=True)
    logp -= np.log(denom)
    np.fill_diagonal(logp, 0.0)
    if target.ndim == 1:
        total = logp[rows, target].sum()
    else:
        w = np.array(target, dtype=z.dtype)
        np.fill_diagonal(w, 0.0)
        total = (logp * w).sum()
    loss = np.asarray(total * z.dtype.type(factor))
    g = np.ones((), dtype=z.dtype) * upstream * factor
    if target.ndim == 1:
        dlogp = np.zeros_like(logp)
        dlogp[rows, target] += g
    else:
        dlogp = g * w
    ds = ex / denom
    ds *= dlogp.sum(axis=1, keepdims=True)
    np.subtract(dlogp, ds, out=ds)
    ds *= inv_tau
    return loss.tobytes(), (ds @ z + ds.T @ z).tobytes()


def xent_targets(rng, v):
    """(target, factor) pairs: NT-Xent's pairs, a random off-diagonal index
    per row, and a dense target with some all-zero rows."""
    shifted = (np.arange(v) + rng.integers(1, v, size=v)) % v
    dense = rng.random((v, v)) * (rng.random((v, 1)) < 0.7)
    return [(np.arange(v) ^ 1, -1.0 / v), (shifted, 0.5), (dense / v, -1.0)]


@pytest.mark.parametrize("upstream", [0.37, -1.0, 0.0])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("v", [2, 6, 256])
def test_softmax_xent_is_bitwise_its_allocating_backward(v, dtype, upstream):
    rng = np.random.default_rng(v)
    z = unit_rows(rng, v, 16, dtype)
    for target, factor in xent_targets(rng, v):
        t = nc.Tensor(z, requires_grad=True)
        with nc.Tape() as tape:
            loss = nc.softmax_xent(t, 0.2, target, factor)
            grads = nc.backprop(tape, nc.scale(loss, upstream))
        assert ((loss.data.tobytes(), grads[t].tobytes())
                == oracle_softmax_xent(z, 0.2, target, factor, upstream))


@pytest.mark.parametrize("seed", range(3))
def test_row_log_softmax_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = nc.Tensor(rng.standard_normal((4, 5)), requires_grad=True, dtype=np.float64)
    mask = np.ones((4, 5), dtype=bool)
    mask[:, 0] = False
    direction = rng.standard_normal((4, 5)) * mask

    def loss_fn():
        logp = nc.row_log_softmax(nc.mask_fill(x, mask, -np.inf))
        logp = nc.mask_fill(logp, mask, 0.0)
        return nc.total_sum(nc.mul(logp, nc.Tensor(direction)))

    assert tape_check(loss_fn, [x]) < 1e-6


def test_row_log_softmax_rows_sum_to_one():
    rng = np.random.default_rng(5)
    x = nc.Tensor(rng.standard_normal((3, 6)))
    mask = np.ones((3, 6), dtype=bool)
    mask[:, 2] = False
    logp = nc.row_log_softmax(nc.mask_fill(x, mask, -np.inf))
    sums = np.where(mask, np.exp(logp.data), 0.0).sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-6)
    assert np.all(np.isneginf(logp.data[~mask]))


def test_row_log_softmax_extreme_logits_stable():
    x = nc.Tensor(np.array([[1000.0, 999.0, -1000.0]]), dtype=np.float64)
    logp = nc.row_log_softmax(x)
    assert np.all(np.isfinite(logp.data))


def test_mask_fill_blocks_gradient():
    x = nc.Tensor(np.array([[1.0, 2.0]]), requires_grad=True, dtype=np.float64)
    keep = np.array([[True, False]])
    with nc.Tape() as tape:
        y = nc.mask_fill(x, keep, 7.0)
        loss = nc.total_sum(y)
        grads = nc.backprop(tape, loss)
    np.testing.assert_array_equal(y.data, [[1.0, 7.0]])
    np.testing.assert_array_equal(grads[x], [[1.0, 0.0]])


def test_gather2d_forward_and_backward():
    x = nc.Tensor(np.arange(12, dtype=np.float64).reshape(3, 4), requires_grad=True)
    rows = [0, 1, 1]
    cols = [2, 3, 3]
    with nc.Tape() as tape:
        picked = nc.gather2d(x, rows, cols)
        loss = nc.total_sum(picked)
        grads = nc.backprop(tape, loss)
    np.testing.assert_array_equal(picked.data, [2.0, 7.0, 7.0])
    expected = np.zeros((3, 4))
    expected[0, 2] = 1.0
    expected[1, 3] = 2.0  # duplicate index accumulates
    np.testing.assert_array_equal(grads[x], expected)


def test_ops_pass_non_finite_values_on():
    """Ops check their inputs, not their outputs; the trainer checks each
    optimizer step's loss and gradients."""
    x = nc.Tensor(np.array([[1e308]]), dtype=np.float64)
    with np.errstate(over="ignore"):
        assert np.isinf(nc.mul(x, x).data).all()
    z = np.random.default_rng(0).standard_normal((6, 4))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    z[3] = np.nan
    loss = nc.softmax_xent(nc.Tensor(z), 0.5, np.arange(6) ^ 1, -1.0 / 6)
    assert np.isnan(loss.data)


def test_adam_first_step_matches_hand_computation():
    # one param, value 1.0, grad 0.5, lr 0.1: first step is lr * g/|g| scale
    p = np.array([1.0])
    opt = nc.Adam(p, lr=0.1)
    opt.step(np.array([0.5]))
    # m_hat = 0.5, v_hat = 0.25, update = 0.1 * 0.5 / (0.5 + 1e-8)
    expected = 1.0 - 0.1 * 0.5 / (math.sqrt(0.25) + 1e-8)
    np.testing.assert_allclose(p, [expected], rtol=1e-12)


def test_adam_zero_gradient_keeps_param():
    p = np.array([3.0])
    opt = nc.Adam(p, lr=0.1)
    opt.step(np.zeros(1))
    np.testing.assert_array_equal(p, [3.0])


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(7)
        p = rng.standard_normal(4)
        opt = nc.Adam(p, lr=0.05)
        for k in range(10):
            opt.step(np.sin(p + k))
        return p

    np.testing.assert_array_equal(run(), run())


def adam_oracle_step(params, ms, vs, grads, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The per-parameter Adam loop that allocates its temporaries: the
    arithmetic the in-place update must reproduce bit for bit."""
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for i, p in enumerate(params):
        g = grads[i]
        ms[i] = ms[i] * b1
        ms[i] += (1.0 - b1) * g
        vs[i] = vs[i] * b2
        vs[i] += (1.0 - b2) * (g * g)
        m_hat = ms[i] / bc1
        v_hat = vs[i] / bc2
        params[i] = p - lr * m_hat / (np.sqrt(v_hat) + eps)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_in_place_is_bitwise_the_allocating_loop(dtype):
    """One flat array stepped in place is bitwise the allocating loop run on
    each parameter it holds apart, and views taken before a step see it."""
    rng = np.random.default_rng(11)
    flat = rng.standard_normal(224).astype(dtype)
    parts = (slice(0, 203), slice(203, 224))
    views = [flat[part] for part in parts]
    opt = nc.Adam(flat, lr=0.03)
    ref_p = [v.copy() for v in views]
    ref_m = [np.zeros_like(v) for v in views]
    ref_v = [np.zeros_like(v) for v in views]
    for step in range(1, 6):
        g = (rng.standard_normal(224) * 10.0 ** (step - 3)).astype(dtype)
        g[:5] = 0.0
        opt.step(g)
        adam_oracle_step(ref_p, ref_m, ref_v, [g[part] for part in parts],
                         step, lr=0.03)
        for i, part in enumerate(parts):
            assert views[i].tobytes() == ref_p[i].tobytes()
            assert opt._m[part].tobytes() == ref_m[i].tobytes()
            assert opt._v[part].tobytes() == ref_v[i].tobytes()


def test_adam_rejects_a_gradient_of_the_wrong_shape():
    p = np.zeros(3)
    with pytest.raises(nc.ShapeError):
        nc.Adam(p).step(np.zeros(4))
    assert p.tolist() == [0.0, 0.0, 0.0]


# the learning-rate schedule is trainer._cosine_lr; it is tested here with
# the optimizer it drives
_SCHEDULE = MethodConfig(lr=0.01, min_lr=1e-4)


def test_cosine_schedule_endpoints():
    assert _cosine_lr(_SCHEDULE, 0, 100) == pytest.approx(0.01)
    assert _cosine_lr(_SCHEDULE, 99, 100) == pytest.approx(1e-4)


def test_cosine_schedule_three_epochs_midpoint():
    # midpoint of the cosine: min + 0.5 * span
    midpoint = 1e-4 + 0.5 * (0.01 - 1e-4)
    assert _cosine_lr(_SCHEDULE, 1, 3) == pytest.approx(midpoint)


def test_cosine_schedule_single_epoch():
    assert _cosine_lr(_SCHEDULE, 0, 1) == 0.01


@given(st.integers(min_value=2, max_value=50))
@settings(max_examples=25, deadline=None)
def test_cosine_schedule_monotone_nonincreasing(total):
    values = [_cosine_lr(_SCHEDULE, e, total) for e in range(total)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
