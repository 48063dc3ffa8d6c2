"""Plain-array kernels, the optimizer, and a minimal reverse-mode autodiff.

Design constraints, in order of priority: correctness of gradients, bitwise
determinism for a fixed graph, and debuggability. A Tensor wraps a float32 or
float64 ndarray; ops executed inside a `with Tape()` block append entries to
the tape in forward order, and `backprop` walks them once in reverse. There is
no graph object beyond the tape, no broadcasting beyond what each op states,
and no in-place mutation of op inputs. In a run only the classifier head
records on a tape; the tape ops and the losses built on them are otherwise
the tests' reference implementations of the kernels.

Every op ends in one record step, _recorded: it builds the output Tensor,
which requires gradient if a parent it records does, and if so appends it
to the active tape (if any) with those parents and the backward closure the
op defines.

Ops check their inputs (shapes, unit rows, scalar arguments) and not their
outputs: a NaN or inf an op computes flows on into the loss and the
gradients, which the trainer checks once per optimizer step, so the error
names the network, task, epoch, batch and loss term rather than an op.

Two ops are thin tape adapters over plain-array kernels, which hold all of
their arithmetic. l2_normalize_rows is unit_rows, whose backward is
unit_rows_grad. softmax_xent, the off-diagonal softmax cross-entropy that
every contrastive loss is made of, has the arithmetic of its chain of
generic ops in one forward pass and one tape entry, and a closed-form
backward: softmax_xent_forward returns the loss and its backward, and
softmax_xent_grad runs that backward at a given loss gradient before it
returns. The networks run on plain arrays only: mlp_forward runs a whole MLP
off one flat parameter buffer and returns the output and its cache, and
mlp_backward turns the cache and the output gradient into one flat
parameter gradient, each bitwise the chain affine -> relu -> ... ->
l2_normalize_rows. The trainers' explicit steps take no tape: mlp_forward,
the loss and dL/dz, mlp_backward, then Adam, which steps one flat array in
place.

Every Gram product z z^T in the package (softmax_xent, pairwise_cosine of a
tensor with itself, the teachers' similarity_distribution) goes through
_gram, so the fused op and the chain it stands for multiply alike on any
BLAS build.
"""

from __future__ import annotations

import math

import numpy as np

EPS_NORM = 1e-12


class ShapeError(ValueError):
    """Operand shapes or dtypes do not match the op contract."""


class NonFiniteError(ArithmeticError):
    """A NaN or inf where a finite value is required: a scalar argument of
    scale or softmax_xent here, a loss term, loss, gradient, score or logit
    in the trainer (whose message says which and where)."""


class TapeConsumedError(RuntimeError):
    """backprop was called twice on the same tape."""


class DegenerateNormError(ValueError):
    """unit_rows (so l2_normalize_rows and mlp_forward) received a row with
    norm below EPS_NORM."""


_FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """A dense float array plus a requires_grad flag.

    Leaf tensors (parameters, inputs) are built directly; op outputs are built
    by _recorded, whose requires_grad is the OR of the parents it records.
    Gradients are never stored on the tensor; backprop returns them in a dict.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


_ACTIVE_TAPES: list["Tape"] = []


class Tape:
    """Forward-order op record. Entries: (out, parents, backward).

    backward maps the output gradient to one gradient per parent (None for
    parents that need none). A tape supports exactly one backprop call.
    """

    def __init__(self):
        self._entries = []
        self._consumed = False

    def __enter__(self):
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _ACTIVE_TAPES.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self._entries)


def _record(out, parents, backward):
    if _ACTIVE_TAPES and out.requires_grad:
        _ACTIVE_TAPES[-1]._entries.append((out, parents, backward))


def _recorded(data, parents, backward):
    """An op's output: a Tensor of data that requires gradient if one of
    parents does, handed with parents and backward to _record (looked up
    here at each call, so a patched _record sees every entry)."""
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    _record(out, parents, backward)
    return out


def backprop(tape, loss):
    """Reverse-walk the tape from a scalar loss and return leaf gradients.

    Args:
        tape: the Tape the loss was recorded on.
        loss: 0-d Tensor produced by an op on `tape`.

    Returns:
        dict mapping each requires_grad leaf Tensor that received gradient to
        an ndarray of the same shape. Gradients from multiple uses accumulate
        additively; the walk is deterministic for a fixed graph.
    """
    if loss.data.ndim != 0:
        raise ShapeError(f"loss must be scalar, got shape {loss.data.shape}")
    if tape._consumed:
        raise TapeConsumedError("tape already backpropagated")
    tape._consumed = True

    out_ids = {id(out) for out, _, _ in tape._entries}
    if id(loss) not in out_ids:
        raise ValueError("loss is not an output recorded on this tape")

    grads = {id(loss): np.ones((), dtype=loss.data.dtype)}
    leaves = {}
    for out, parents, backward in reversed(tape._entries):
        g = grads.get(id(out))
        if g is None:
            continue
        parent_grads = backward(g)
        for parent, pg in zip(parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            pid = id(parent)
            if pid in grads:
                grads[pid] = grads[pid] + pg
            else:
                grads[pid] = pg
            if pid not in out_ids:
                leaves[pid] = parent
    return {t: grads[pid] for pid, t in leaves.items()}


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


def affine(x, w, b):
    """x @ w + b for x [B, I], w [I, O], b [O]."""
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise ShapeError("affine expects x [B,I], w [I,O], b [O]")
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ShapeError(
            f"affine shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}")

    def backward(g):
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    return _recorded(x.data @ w.data + b.data, (x, w, b), backward)


def relu(x):
    """Elementwise max(x, 0); subgradient at 0 is 0."""

    def backward(g):
        return (g * (x.data > 0),)

    return _recorded(np.maximum(x.data, 0), (x,), backward)


def unit_rows(h):
    """Each row of a 2-d array h scaled to unit L2 norm: (y, norms), with
    norms [B, 1]. Raises DegenerateNormError if a row norm falls below
    EPS_NORM."""
    norms = np.sqrt((h * h).sum(axis=1, keepdims=True))
    if norms.min() < EPS_NORM:
        raise DegenerateNormError(f"row norm {norms.min():g} below {EPS_NORM:g}")
    return h / norms, norms


def unit_rows_grad(g, y, norms):
    """The gradient of unit_rows' input at the gradient g of its output y:
    d(h/|h|) = (g - y * <g, y>) / |h| per row."""
    inner = (g * y).sum(axis=1, keepdims=True)
    return (g - y * inner) / norms


def l2_normalize_rows(x):
    """unit_rows of a Tensor x [B, D], recorded as one tape entry whose
    backward is unit_rows_grad."""
    if x.ndim != 2:
        raise ShapeError("l2_normalize_rows expects a 2-d input")
    y, norms = unit_rows(x.data)

    def backward(g):
        return (unit_rows_grad(g, y, norms),)

    return _recorded(y, (x,), backward)


def mlp_size(dims):
    """Parameter count of an MLP with layer widths dims = (d0, d1, ..., dL)."""
    return sum((fan_in + 1) * fan_out
               for fan_in, fan_out in zip(dims[:-1], dims[1:]))


def mlp_views(flat, dims):
    """Per-layer (w [I, O], b [O]) views into a flat parameter buffer.

    For layer widths dims = (d0, d1, ..., dL) the buffer holds, from its
    start and back to back, each layer's weight [d_k, d_k+1] (row-major) and
    then its bias [d_k+1]; values past mlp_size(dims) belong to no layer.
    """
    views = []
    k = 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = flat[k:k + fan_in * fan_out].reshape(fan_in, fan_out)
        k += fan_in * fan_out
        views.append((w, flat[k:k + fan_out]))
        k += fan_out
    return views


def mlp_forward(x, flat, dims, unit=True):
    """An MLP over one flat parameter buffer, on plain arrays: (y, cache).

    Layer k computes h @ w_k + b_k with the views of mlp_views(flat, dims).
    With unit=True every layer but the last is followed by relu and the
    output rows are scaled to unit L2 norm (an embedding); with unit=False
    every layer is followed by relu (encoder features). The forward is the
    arithmetic of the chain affine -> relu -> ... -> affine ->
    l2_normalize_rows, with its degenerate-norm check. cache is what
    mlp_backward needs, and it reads flat again: flat must not change
    before then.

    Args:
        x: array [B, dims[0]].
        flat: 1-d array of at least mlp_size(dims) values.
        dims: layer widths (d0, ..., dL), L >= 1.
        unit: end in a linear layer and row normalization.

    Raises ShapeError on shape errors and DegenerateNormError. A NaN or inf
    in the input or the parameters is not checked here; it reaches the
    output.
    """
    if (len(dims) < 2 or x.ndim != 2 or x.shape[1] != dims[0]
            or flat.ndim != 1 or flat.size < mlp_size(dims)):
        raise ShapeError(f"mlp_forward shape mismatch: x {x.shape}, params "
                         f"{flat.shape}, dims {tuple(dims)}")
    layers = mlp_views(flat, dims)
    last = len(layers) - 1
    # inputs[k] feeds layer k; after layer 0 it is a relu output, whose
    # positive entries are where the chain's relu passed gradient
    inputs = []
    h = x
    for k, (w, b) in enumerate(layers):
        inputs.append(h)
        h = h @ w
        h += b
        if k < last or not unit:
            np.maximum(h, 0, out=h)
    norms = None
    if unit:
        h, norms = unit_rows(h)
    return h, (flat, dims, layers, inputs, norms, h)


def mlp_backward(cache, g):
    """The flat parameter gradient of mlp_forward's output at gradient g.

    It computes the chain's products and writes each layer's weight and
    bias gradient into its view of one flat gradient, zero past the layers
    used, so every parameter gradient is bitwise the chain's. The first
    layer's input gradient is never computed.
    """
    flat, dims, layers, inputs, norms, y = cache
    grad = np.empty_like(flat)
    grad[mlp_size(dims):] = 0
    if norms is not None:
        g = unit_rows_grad(g, y, norms)
    else:
        g = g * (y > 0)
    for k, (gw, gb) in reversed(list(enumerate(mlp_views(grad, dims)))):
        np.matmul(inputs[k].T, g, out=gw)
        np.sum(g, axis=0, out=gb)
        if k:
            g = g @ layers[k][0].T
            g *= inputs[k] > 0
    return grad


def _gram(x):
    """x @ x.T for a 2-d array, as a general matrix product.

    numpy hands x @ x.T to BLAS syrk, which at the losses' size (256 x 16
    float32, one OpenBLAS 0.3.31 thread on a 2-core Xeon VM) took 179 us
    against 45-53 us for this gemm form. The two can differ in the last
    bit (there: float32 with d >= 32 at V <= 100, float64 at most sizes),
    so no other Gram may be formed.
    """
    return x @ x.T.copy()


def _subtract_row_max(logits):
    """Shift each row of 2-d logits by its max, in place, for a softmax.

    np.fmax.reduce takes the max: at 256 x 256 float32 on a 2-core Xeon VM
    it took 30-44 us against 51-55 us for ndarray.max, which propagates
    NaN. The two agree on every row without a NaN. Where fmax skips a NaN,
    a row whose off-diagonal is all NaN gets its -inf diagonal as the max,
    and -inf - -inf is one more NaN, without a warning, in a row that is
    NaN anyway.
    """
    rowmax = np.fmax.reduce(logits, axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        logits -= rowmax


def pairwise_cosine(a, b):
    """a @ b.T for unit-row inputs a [M, D], b [N, D].

    The inputs must already be row-normalized; the norms are verified to
    1e-4. Passing the same tensor for a and b is supported: the product is
    then _gram's, and the two gradient contributions accumulate.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"pairwise_cosine shape mismatch: {a.shape} vs {b.shape}")
    for name, t in (("a", a), ("b", b)):
        norms = np.sqrt((t.data * t.data).sum(axis=1))
        if norms.size and np.abs(norms - 1.0).max() > 1e-4:
            raise ShapeError(f"pairwise_cosine input {name} has non-unit rows")

    def backward(g):
        return g @ b.data, g.T @ a.data

    return _recorded(_gram(a.data) if a is b else a.data @ b.data.T, (a, b),
                     backward)


def row_log_softmax(logits):
    """Row-wise log-softmax of a Tensor [B, N]. A -inf logit, which
    mask_fill(-inf) leaves, drops out of its row's softmax and comes back
    -inf; each row needs one finite logit."""
    data = logits.data
    if data.ndim != 2:
        raise ShapeError("row_log_softmax expects a 2-d input")
    shifted = data - data.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    denom = ex.sum(axis=1, keepdims=True)
    out_data = shifted - np.log(denom)
    softmax = ex / denom

    def backward(g):
        return (g - softmax * g.sum(axis=1, keepdims=True),)

    return _recorded(out_data, (logits,), backward)


def softmax_xent_forward(z, tau, target, factor):
    """factor * sum_ij W_ij log p_ij, p_i = softmax_{k != i}(z_i . z_k / tau),
    on plain arrays: (loss, backward).

    The fused form of pairwise_cosine(z, z) -> scale(1/tau) ->
    mask_fill(-inf) on the diagonal -> row_log_softmax ->
    (gather2d | mask_fill(0), mul) -> total_sum -> scale(factor): the same
    float arithmetic in the same order, so the loss and the gradient are
    bitwise those of that chain. backward(g), called at most once, maps the
    loss's gradient g to dS = (W - rowsum(W) * p) * factor / tau times g,
    and returns dL/dz as its two halves (dS @ z, dS.T @ z), which
    pairwise_cosine(z, z) would hand its two parents. Until then the V x V
    buffers stay alive.

    Args:
        z: array [V, d], V >= 2, unit rows (verified to 1e-4).
        tau: temperature > 0.
        target: constant W, either an integer index vector [V] naming one
            off-diagonal column per row (W is its one-hot and the V picked
            log-probabilities are summed, as gather2d + total_sum do), or a
            dense float [V, V] matrix whose diagonal is ignored. A dense
            target of z's dtype with a zero diagonal is read in place, never
            copied or written, so it must not change before backward; any
            other is copied to z's dtype with its diagonal zeroed.
        factor: finite python scalar applied to the sum.

    Raises ShapeError on shape or index errors and non-unit rows, ValueError
    on tau <= 0, and NonFiniteError on a factor that is not finite. A NaN
    row passes the unit-row check and makes the loss NaN.
    """
    if z.ndim != 2 or z.shape[0] < 2:
        raise ShapeError(f"softmax_xent expects z [V>=2, d], got {z.shape}")
    if not tau > 0:
        raise ValueError("softmax_xent tau must be positive")
    factor = float(factor)
    if not math.isfinite(factor):
        raise NonFiniteError("softmax_xent factor must be finite")
    v = z.shape[0]
    rows = np.arange(v)
    target = np.asarray(target)
    if target.ndim == 1:
        if (target.shape != (v,) or target.dtype.kind not in "iu"
                or (target == rows).any() or target.min() < 0
                or target.max() >= v):
            raise ShapeError("softmax_xent index target must name one "
                             "off-diagonal column per row")
        w = None
    elif target.shape == (v, v):
        w = target
        if w.dtype != z.dtype or w.diagonal().any():
            w = w.astype(z.dtype)
            np.fill_diagonal(w, 0.0)
    else:
        raise ShapeError(f"softmax_xent target shape {target.shape} is neither "
                         f"({v},) nor ({v}, {v})")
    norms = np.sqrt((z * z).sum(axis=1))
    if np.abs(norms - 1.0).max() > 1e-4:
        raise ShapeError("softmax_xent input has non-unit rows")

    # a python float, so it rounds to the data dtype as scale's factor does
    inv_tau = float(1.0 / tau)
    logp = _gram(z)
    logp *= z.dtype.type(inv_tau)
    diagonal = logp.reshape(-1)[::v + 1]
    diagonal[...] = -np.inf
    _subtract_row_max(logp)
    ex = np.exp(logp)
    denom = ex.sum(axis=1, keepdims=True)
    if w is None:
        # only the V picked entries of logp - log(denom), which gather2d
        # would take
        total = (logp[rows, target] - np.log(denom)[:, 0]).sum()
        spent = None
    else:
        logp -= np.log(denom)
        # the diagonal is -inf here; the chain's mask_fill puts 0 there
        diagonal[...] = 0.0
        logp *= w
        total = logp.sum()
        # the backward writes g * w over it
        spent = logp
    loss = np.asarray(total * z.dtype.type(factor))

    def backward(g):
        # the chain's off-diagonal masks are no-ops here: the diagonals of
        # dlogp and of the softmax are already signed zeros
        g = g * factor
        # this runs once, so ex can become the softmax in place
        ds = ex
        ds /= denom
        if w is None:
            # dlogp would be gather2d's scatter: 0 + g at (i, target[i]) (a
            # -0 g gives +0) and 0 elsewhere, so each row of it sums to 0 + g
            # and dlogp - ds is 0 - ds but for the V picked entries
            picked = ds.dtype.type(0 + g)
            ds *= picked
            picked = picked - ds[rows, target]
            np.subtract(0, ds, out=ds)
            ds[rows, target] = picked
        else:
            dlogp = np.multiply(g, w, out=spent)
            ds *= dlogp.sum(axis=1, keepdims=True)
            np.subtract(dlogp, ds, out=ds)
        ds *= inv_tau
        return ds @ z, ds.T @ z

    return loss, backward


def softmax_xent_grad(z, tau, target, factor, g):
    """softmax_xent_forward's loss and its backward at the loss gradient g:
    (loss, (dS @ z, dS.T @ z)). The V x V buffers are freed on return.
    dL/dz is the sum of the two halves; a caller that adds other terms'
    halves into the same embedding adds them in backprop's order."""
    loss, backward = softmax_xent_forward(z, tau, target, factor)
    return loss, backward(g)


def softmax_xent(z, tau, target, factor):
    """softmax_xent_forward of a Tensor z [V, d], recorded as one tape entry
    whose backward hands the two halves of dL/dz to the parent pair (z, z),
    as pairwise_cosine does. Arguments and errors are softmax_xent_forward's.
    """
    loss, halves = softmax_xent_forward(z.data, tau, target, factor)

    # a closure of this op, whose qualname names the op's backward
    def backward(g):
        return halves(g)

    return _recorded(loss, (z, z), backward)


def mask_fill(x, keep_mask, fill=0.0):
    """Keep x where keep_mask is True, substitute `fill` elsewhere.

    mask_fill(-inf) -> row_log_softmax takes a softmax over the kept
    positions only; mask_fill(0) after it clears their -inf before a
    multiply. No gradient flows to filled positions.
    """
    kept = np.asarray(keep_mask, dtype=bool)
    if kept.shape != x.data.shape:
        raise ShapeError(f"mask shape {kept.shape} != input shape {x.data.shape}")

    def backward(g):
        return (g * kept,)

    return _recorded(np.where(kept, x.data, x.data.dtype.type(fill)), (x,),
                     backward)


def _binary_shapes(a, b, name):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{name} shape mismatch: {a.data.shape} vs {b.data.shape}")


def add(a, b):
    """Elementwise a + b, same shapes."""
    _binary_shapes(a, b, "add")

    def backward(g):
        return g, g

    return _recorded(a.data + b.data, (a, b), backward)


def mul(a, b):
    """Elementwise a * b, same shapes."""
    _binary_shapes(a, b, "mul")

    def backward(g):
        return g * b.data, g * a.data

    return _recorded(a.data * b.data, (a, b), backward)


def scale(x, s):
    """x * s for a python scalar s."""
    s = float(s)
    if not math.isfinite(s):
        raise NonFiniteError("scale factor must be finite")

    def backward(g):
        return (g * s,)

    return _recorded(x.data * x.data.dtype.type(s), (x,), backward)


def gather2d(x, rows, cols):
    """x[rows[k], cols[k]] for index vectors rows, cols; returns a 1-d tensor."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape or rows.ndim != 1:
        raise ShapeError("gather2d expects matching 1-d index vectors")

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (rows, cols), g)
        return (gx,)

    return _recorded(x.data[rows, cols], (x,), backward)


def total_sum(x):
    """Sum of all elements, returned as a 0-d tensor."""

    def backward(g):
        return (np.ones_like(x.data) * g,)

    return _recorded(np.asarray(x.data.sum(), dtype=x.data.dtype), (x,),
                     backward)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Adam with bias correction over one flat parameter array.

    param is updated in place (views into it stay live) through two scratch
    arrays of its shape, with the elementwise arithmetic of
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    p = p - lr (m / bc1) / (sqrt(v / bc2) + eps).
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, param, lr=0.01):
        self.param = param
        self.lr = float(lr)
        self.t = 0
        self._m = np.zeros_like(param)
        self._v = np.zeros_like(param)
        self._scratch = np.empty_like(param), np.empty_like(param)

    def step(self, g):
        """Apply one update from the gradient g of param."""
        if g.shape != self.param.shape:
            raise ShapeError(
                f"gradient shape {g.shape} != parameter shape {self.param.shape}")
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        m, v, (s1, s2) = self._m, self._v, self._scratch
        m *= b1
        np.multiply(1.0 - b1, g, out=s1)
        m += s1
        v *= b2
        np.multiply(g, g, out=s1)
        s1 *= 1.0 - b2
        v += s1
        np.divide(m, bc1, out=s1)
        s1 *= self.lr
        np.divide(v, bc2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += self.EPS
        s1 /= s2
        self.param -= s1


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def check_gradients(loss_fn, params, grads):
    """Max relative error of analytic gradients against central differences.

    Args:
        loss_fn: zero-argument callable returning the scalar loss (a 0-d
            array or a float) at the current values of params.
        params: the arrays loss_fn reads; each is stepped in place and
            restored.
        grads: the caller's analytic gradient of the loss with respect to
            each of params, in their order.

    Each element of each param is stepped by +-1e-5, and the error is
    max |a - n| / max(1e-3, |a|, |n|) over all elements. Params should be
    float64 for the differences to resolve below the comparison tolerance.
    """
    step, floor = 1e-5, 1e-3
    worst = 0.0
    for p, analytic in zip(params, grads, strict=True):
        numeric = np.zeros_like(p)
        flat, nflat = p.reshape(-1), numeric.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            hi = float(loss_fn())
            flat[k] = orig - step
            lo = float(loss_fn())
            flat[k] = orig
            nflat[k] = (hi - lo) / (2.0 * step)
        err = np.abs(analytic - numeric) / np.maximum(
            floor, np.maximum(np.abs(analytic), np.abs(numeric)))
        if err.size:
            worst = max(worst, float(err.max()))
    return worst
