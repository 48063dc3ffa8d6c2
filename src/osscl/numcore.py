"""Minimal reverse-mode autodiff on numpy arrays, plus the optimizer and LR schedule.

Design constraints, in order of priority: correctness of gradients, bitwise
determinism for a fixed graph, and debuggability. A Tensor wraps a float32 or
float64 ndarray; ops executed inside a `with Tape()` block append entries to
the tape in forward order, and `backprop` walks them once in reverse. There is
no graph object beyond the tape, no broadcasting beyond what each op states,
and no in-place mutation of op inputs.

Besides generic ops, one fused op, softmax_xent, computes the off-diagonal
softmax cross-entropy that every contrastive loss is made of, in one forward
pass and one tape entry with a closed-form backward, with the arithmetic of
the generic chain it stands for.
"""

from __future__ import annotations

import math

import numpy as np

EPS_NORM = 1e-12


class ShapeError(ValueError):
    """Operand shapes or dtypes do not match the op contract."""


class NonFiniteError(ArithmeticError):
    """An op produced NaN or inf outside the masked log-softmax sentinel."""


class TapeConsumedError(RuntimeError):
    """backprop was called twice on the same tape."""


class AllMaskedRowError(ValueError):
    """row_log_softmax received a row with every position masked out."""


class DegenerateNormError(ValueError):
    """l2_normalize_rows received a row with norm below EPS_NORM."""


_FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """A dense float array plus a requires_grad flag.

    Leaf tensors (parameters, inputs) are built directly; op outputs are built
    by the ops below, which set requires_grad to the OR of their parents'.
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


def _check_finite(arr, op_name):
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{op_name} produced non-finite values")


def _requires(*tensors):
    return any(t.requires_grad for t in tensors)


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
    out_data = x.data @ w.data + b.data
    _check_finite(out_data, "affine")
    out = Tensor(out_data, requires_grad=_requires(x, w, b))

    def backward(g):
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    _record(out, (x, w, b), backward)
    return out


def relu(x):
    """Elementwise max(x, 0); subgradient at 0 is 0."""
    out = Tensor(np.maximum(x.data, 0), requires_grad=x.requires_grad)

    def backward(g):
        return (g * (x.data > 0),)

    _record(out, (x,), backward)
    return out


def l2_normalize_rows(x):
    """Scale each row of x [B, D] to unit L2 norm.

    Raises DegenerateNormError if any row norm falls below EPS_NORM.
    """
    if x.ndim != 2:
        raise ShapeError("l2_normalize_rows expects a 2-d input")
    norms = np.sqrt((x.data * x.data).sum(axis=1, keepdims=True))
    if norms.min() < EPS_NORM:
        raise DegenerateNormError(f"row norm {norms.min():g} below {EPS_NORM:g}")
    y = x.data / norms
    _check_finite(y, "l2_normalize_rows")
    out = Tensor(y, requires_grad=x.requires_grad)

    def backward(g):
        # d(x/|x|) = (g - y * <g, y>) / |x| per row
        inner = (g * y).sum(axis=1, keepdims=True)
        return ((g - y * inner) / norms,)

    _record(out, (x,), backward)
    return out


def pairwise_cosine(a, b):
    """a @ b.T for unit-row inputs a [M, D], b [N, D].

    The inputs must already be row-normalized; the norms are verified to
    1e-4. Passing the same tensor for a and b is supported and the two
    gradient contributions accumulate.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"pairwise_cosine shape mismatch: {a.shape} vs {b.shape}")
    for name, t in (("a", a), ("b", b)):
        norms = np.sqrt((t.data * t.data).sum(axis=1))
        if norms.size and np.abs(norms - 1.0).max() > 1e-4:
            raise ShapeError(f"pairwise_cosine input {name} has non-unit rows")
    out_data = a.data @ b.data.T
    _check_finite(out_data, "pairwise_cosine")
    out = Tensor(out_data, requires_grad=_requires(a, b))

    def backward(g):
        return g @ b.data, g.T @ a.data

    _record(out, (a, b), backward)
    return out


def row_log_softmax(logits, mask=None):
    """Row-wise log-softmax over the positions where mask is True.

    Args:
        logits: Tensor [B, N].
        mask: optional bool ndarray [B, N]; True marks positions that take
            part in the softmax. Masked positions come back as -inf in the
            output, the only place a non-finite value is allowed; downstream
            consumers must mask_fill before multiplying.

    Raises AllMaskedRowError when a row has no True position.
    """
    data = logits.data
    if data.ndim != 2:
        raise ShapeError("row_log_softmax expects a 2-d input")
    if mask is None:
        kept = np.ones(data.shape, dtype=bool)
    else:
        kept = np.asarray(mask, dtype=bool)
        if kept.shape != data.shape:
            raise ShapeError(f"mask shape {kept.shape} != logits shape {data.shape}")
    if not kept.any(axis=1).all():
        raise AllMaskedRowError("a row has every position masked")

    shifted = np.where(kept, data, -np.inf)
    rowmax = shifted.max(axis=1, keepdims=True)
    shifted = shifted - rowmax
    ex = np.exp(shifted)
    denom = ex.sum(axis=1, keepdims=True)
    out_data = shifted - np.log(denom)
    if not np.all(np.isfinite(out_data[kept])):
        raise NonFiniteError("row_log_softmax produced non-finite kept values")
    softmax = ex / denom
    out = Tensor(out_data, requires_grad=logits.requires_grad)

    def backward(g):
        g = g * kept
        return ((g - softmax * g.sum(axis=1, keepdims=True)) * kept,)

    _record(out, (logits,), backward)
    return out


def softmax_xent(z, tau, target, factor):
    """factor * sum_ij W_ij log p_ij, p_i = softmax_{k != i}(z_i . z_k / tau).

    The fused form of pairwise_cosine(z, z) -> scale(1/tau) ->
    row_log_softmax over the off-diagonal -> (gather2d | mask_fill, mul) ->
    total_sum -> scale(factor): the same float arithmetic in the same order,
    so the loss and the gradient are bitwise those of that chain, recorded as
    one tape entry. The backward is dS = (W - rowsum(W) * p) * factor / tau
    times the output gradient, returned as (dS @ z, dS.T @ z) to the parent
    pair (z, z) as pairwise_cosine does.

    Args:
        z: Tensor [V, d], V >= 2, unit rows (verified to 1e-4).
        tau: temperature > 0.
        target: constant W, either an integer index vector [V] naming one
            off-diagonal column per row (W is its one-hot and the V picked
            log-probabilities are summed, as gather2d + total_sum do), or a
            dense float [V, V] matrix whose diagonal is ignored.
        factor: finite python scalar applied to the sum.

    Raises ShapeError on shape or index errors and non-unit rows, ValueError
    on tau <= 0, and NonFiniteError when the similarity, a kept
    log-probability or the loss is not finite.
    """
    if z.ndim != 2 or z.shape[0] < 2:
        raise ShapeError(f"softmax_xent expects z [V>=2, d], got {z.shape}")
    if not tau > 0:
        raise ValueError("softmax_xent tau must be positive")
    factor = float(factor)
    if not math.isfinite(factor):
        raise NonFiniteError("softmax_xent factor must be finite")
    data = z.data
    v = data.shape[0]
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
        w = np.array(target, dtype=data.dtype)
        np.fill_diagonal(w, 0.0)
    else:
        raise ShapeError(f"softmax_xent target shape {target.shape} is neither "
                         f"({v},) nor ({v}, {v})")
    norms = np.sqrt((data * data).sum(axis=1))
    if np.abs(norms - 1.0).max() > 1e-4:
        raise ShapeError("softmax_xent input has non-unit rows")

    # a python float, so it rounds to the data dtype as scale's factor does
    inv_tau = float(1.0 / tau)
    logp = data @ data.T
    logp *= data.dtype.type(inv_tau)
    _check_finite(logp, "softmax_xent similarity")
    np.fill_diagonal(logp, -np.inf)
    logp -= logp.max(axis=1, keepdims=True)
    ex = np.exp(logp)
    denom = ex.sum(axis=1, keepdims=True)
    logp -= np.log(denom)
    # the diagonal is -inf here; the chain's mask_fill puts 0 there
    np.fill_diagonal(logp, 0.0)
    _check_finite(logp, "softmax_xent log-probabilities")
    total = logp[rows, target].sum() if w is None else (logp * w).sum()
    out_data = np.asarray(total * data.dtype.type(factor))
    _check_finite(out_data, "softmax_xent loss")
    out = Tensor(out_data, requires_grad=z.requires_grad)

    def backward(g):
        g = g * factor
        if w is None:
            dlogp = np.zeros_like(logp)
            # 0 + g as gather2d's np.add.at computes it (a -0 g gives +0)
            dlogp[rows, target] += g
        else:
            dlogp = g * w
        # the chain's off-diagonal masks are no-ops here: the diagonals of
        # dlogp and of the softmax are already signed zeros
        ds = ex / denom
        ds *= dlogp.sum(axis=1, keepdims=True)
        np.subtract(dlogp, ds, out=ds)
        ds *= inv_tau
        return ds @ data, ds.T @ data

    _record(out, (z, z), backward)
    return out


def mask_fill(x, keep_mask, fill=0.0):
    """Keep x where keep_mask is True, substitute `fill` elsewhere.

    The standard idiom for neutralizing the -inf sentinel of row_log_softmax
    before a multiply. No gradient flows to filled positions.
    """
    kept = np.asarray(keep_mask, dtype=bool)
    if kept.shape != x.data.shape:
        raise ShapeError(f"mask shape {kept.shape} != input shape {x.data.shape}")
    out_data = np.where(kept, x.data, x.data.dtype.type(fill))
    _check_finite(out_data, "mask_fill")
    out = Tensor(out_data, requires_grad=x.requires_grad)

    def backward(g):
        return (g * kept,)

    _record(out, (x,), backward)
    return out


def _binary_shapes(a, b, name):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{name} shape mismatch: {a.data.shape} vs {b.data.shape}")


def add(a, b):
    """Elementwise a + b, same shapes."""
    _binary_shapes(a, b, "add")
    out_data = a.data + b.data
    _check_finite(out_data, "add")
    out = Tensor(out_data, requires_grad=_requires(a, b))

    def backward(g):
        return g, g

    _record(out, (a, b), backward)
    return out


def mul(a, b):
    """Elementwise a * b, same shapes."""
    _binary_shapes(a, b, "mul")
    out_data = a.data * b.data
    _check_finite(out_data, "mul")
    out = Tensor(out_data, requires_grad=_requires(a, b))

    def backward(g):
        return g * b.data, g * a.data

    _record(out, (a, b), backward)
    return out


def scale(x, s):
    """x * s for a python scalar s."""
    s = float(s)
    if not math.isfinite(s):
        raise NonFiniteError("scale factor must be finite")
    out_data = x.data * x.data.dtype.type(s)
    _check_finite(out_data, "scale")
    out = Tensor(out_data, requires_grad=x.requires_grad)

    def backward(g):
        return (g * s,)

    _record(out, (x,), backward)
    return out


def gather2d(x, rows, cols):
    """x[rows[k], cols[k]] for index vectors rows, cols; returns a 1-d tensor."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape or rows.ndim != 1:
        raise ShapeError("gather2d expects matching 1-d index vectors")
    out_data = x.data[rows, cols]
    _check_finite(out_data, "gather2d")
    out = Tensor(out_data, requires_grad=x.requires_grad)

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (rows, cols), g)
        return (gx,)

    _record(out, (x,), backward)
    return out


def total_sum(x):
    """Sum of all elements, returned as a 0-d tensor."""
    out_data = np.asarray(x.data.sum(), dtype=x.data.dtype)
    _check_finite(out_data, "total_sum")
    out = Tensor(out_data, requires_grad=x.requires_grad)

    def backward(g):
        return (np.ones_like(x.data) * g,)

    _record(out, (x,), backward)
    return out


# ---------------------------------------------------------------------------
# Optimizer and schedule
# ---------------------------------------------------------------------------


class Adam:
    """Adam with bias correction over a fixed parameter list.

    Update order follows the parameter list, so steps are deterministic.
    Parameters missing from the gradient dict are treated as zero-gradient
    (their moments still decay, the step counter is shared).
    """

    def __init__(self, params, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads):
        """Apply one update from a dict {Tensor: ndarray} as backprop returns."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for i, p in enumerate(self.params):
            g = grads.get(p)
            if g is None:
                g = np.zeros_like(p.data)
            elif g.shape != p.data.shape:
                raise ShapeError(
                    f"gradient shape {g.shape} != parameter shape {p.data.shape}")
            m = self._m[i]
            v = self._v[i]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class CosineSchedule:
    """Cosine decay from init_lr to min_lr over total_epochs epoch indices."""

    def __init__(self, init_lr, min_lr, total_epochs):
        if total_epochs < 1:
            raise ValueError("total_epochs must be >= 1")
        if min_lr > init_lr:
            raise ValueError("min_lr must not exceed init_lr")
        self.init_lr = float(init_lr)
        self.min_lr = float(min_lr)
        self.total_epochs = int(total_epochs)

    def at(self, epoch):
        if not 0 <= epoch < self.total_epochs:
            raise ValueError(f"epoch {epoch} outside [0, {self.total_epochs})")
        if self.total_epochs == 1:
            return self.init_lr
        span = self.init_lr - self.min_lr
        frac = epoch / (self.total_epochs - 1)
        return self.min_lr + 0.5 * span * (1.0 + math.cos(math.pi * frac))


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def analytic_gradients(loss_fn, params):
    """Run loss_fn under a fresh tape and return (loss value, grads per param).

    Params absent from the graph get zero gradients.
    """
    with Tape() as tape:
        loss = loss_fn()
        grads = backprop(tape, loss)
    return float(loss.data), [grads.get(p, np.zeros_like(p.data)) for p in params]

def numeric_gradients(loss_fn, params, step=1e-5):
    """Central finite differences of loss_fn w.r.t. each param, elementwise.

    Params should be float64 for the differences to resolve below the
    comparison tolerance.
    """
    out = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            hi = float(loss_fn().data)
            flat[k] = orig - step
            lo = float(loss_fn().data)
            flat[k] = orig
            gflat[k] = (hi - lo) / (2.0 * step)
        out.append(g)
    return out


def max_relative_error(analytic, numeric, floor=1e-3):
    """max |a - n| / max(floor, |a|, |n|) over all params elementwise."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(n)))
        err = np.abs(a - n) / denom
        if err.size:
            worst = max(worst, float(err.max()))
    return worst


def check_gradients(loss_fn, params, step=1e-5, floor=1e-3):
    """Compare tape gradients to central differences; return max relative error."""
    _, analytic = analytic_gradients(loss_fn, params)
    numeric = numeric_gradients(loss_fn, params, step=step)
    return max_relative_error(analytic, numeric, floor=floor)
