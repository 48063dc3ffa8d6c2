"""Encoder-projector networks, parameter snapshots, and the linear classifier.

Both networks in the method (the unsupervised reference and the supervised
learner) share this architecture: an MLP encoder whose last hidden layer is
the feature space the linear classifier reads, followed by a two-layer
projection head whose output is L2-normalized onto the unit sphere.
"""

from __future__ import annotations

import copy

import numpy as np

from .numcore import Tensor, affine, mlp_forward, mlp_size, mlp_views


def kaiming_uniform(rng, fan_in, fan_out):
    """Weight init U(-b, b) with b = sqrt(6 / fan_in)."""
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class EncoderProjector:
    """MLP encoder plus projection head with unit-norm embeddings.

    All weights and biases live in one contiguous ndarray, `params`, in
    construction order (w, b of each encoder layer, then of the two head
    layers; see numcore.mlp_views), which the optimizer updates in place.
    Every forward is one numcore.mlp_forward call on plain arrays: embed and
    encoder_features return its output, and forward also its cache, which
    numcore.mlp_backward turns into the one flat gradient.

    Args:
        input_dim: flat input dimensionality.
        hidden: encoder layer widths; the last entry is the feature dim.
        proj_hidden: projection head hidden width.
        embed_dim: embedding dimensionality (output of the head).
        rng: numpy Generator used for weight init (keyword-only).
        dtype: parameter dtype, float32 for training, float64 for checking.
    """

    def __init__(self, input_dim, hidden=(64, 64), proj_hidden=32, embed_dim=16,
                 *, rng, dtype=np.float32):
        hidden = tuple(int(h) for h in hidden)
        if not hidden or min(input_dim, proj_hidden, embed_dim, *hidden) < 1:
            raise ValueError("all layer widths must be positive")
        self.hidden = hidden
        self.dtype = np.dtype(dtype)

        self.dims = (int(input_dim), *hidden, int(proj_hidden), int(embed_dim))
        flat = np.empty(mlp_size(self.dims), dtype=self.dtype)
        for w, b in mlp_views(flat, self.dims):
            w[...] = kaiming_uniform(rng, *w.shape).astype(self.dtype)
            b[...] = 0
        self.params = flat

    def encoder_features(self, x):
        """Forward through the encoder only; relu after every layer."""
        return mlp_forward(np.asarray(x, dtype=self.dtype), self.params,
                           self.dims[:len(self.hidden) + 1], unit=False)[0]

    def embed(self, x):
        """Forward through encoder and head; rows come back unit-normalized."""
        return self.forward(x)[0]

    def forward(self, x):
        """embed's rows and the cache numcore.mlp_backward takes."""
        return mlp_forward(np.asarray(x, dtype=self.dtype), self.params,
                           self.dims)

    def snapshot(self):
        """Frozen copy of the current parameters; see ParamSnapshot."""
        return ParamSnapshot(self)

    def copy_params_from(self, other):
        """Overwrite parameters with a bitwise copy of another net or snapshot."""
        ours = [a.shape for a in self.param_arrays()]
        theirs = [a.shape for a in other.param_arrays()]
        if ours != theirs:
            raise ValueError(f"parameter shape mismatch: {ours} vs {theirs}")
        np.copyto(self.params, other.params)

    def param_arrays(self):
        """Views of each weight and bias in construction order."""
        return [a for layer in mlp_views(self.params, self.dims)
                for a in layer]


class ParamSnapshot:
    """Read-only copy of an EncoderProjector's parameters at one instant.

    Used as the frozen teacher for distillation: forward passes share the
    live net's code path (so snapshot.embed equals net.embed bitwise at the
    moment of capture) but `params` is a copy that is not writable.
    """

    def __init__(self, net):
        frozen = net.params.copy()
        frozen.flags.writeable = False
        self._net = copy.copy(net)
        self._net.params = frozen

    @property
    def params(self):
        return self._net.params

    def embed(self, x):
        return self._net.embed(x)

    def param_arrays(self):
        return self._net.param_arrays()


class LinearClassifier:
    """Linear head over encoder features, one logit per observed class.

    Its weight [feature_dim, n_classes] and then its bias live in one flat
    ndarray, `params`, laid out by numcore.mlp_views(params, (feature_dim,
    n_classes)), which the optimizer updates in place; `weight` and `bias`
    are the leaf Tensors of classify's tape entry, views into it.
    """

    def __init__(self, feature_dim, n_classes, rng, dtype=np.float32):
        if feature_dim < 1 or n_classes < 1:
            raise ValueError("feature_dim and n_classes must be positive")
        dims = (feature_dim, n_classes)
        self.params = np.empty(mlp_size(dims), dtype=dtype)
        ((w, b),) = mlp_views(self.params, dims)
        w[...] = kaiming_uniform(rng, *dims).astype(dtype)
        b[...] = 0
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(b, requires_grad=True)

    def classify(self, features):
        """Logits [B, n_classes], a Tensor, from an array of features
        [B, feature_dim]."""
        return affine(Tensor(features, dtype=self.weight.dtype), self.weight,
                      self.bias)

