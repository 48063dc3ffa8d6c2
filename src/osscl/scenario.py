"""Datasets, augmentation, continual stream construction, and exemplar memory.

A scenario is a sequence of T task steps over a main dataset: each step t
exposes a small labeled set T_t for K fresh classes and an unlabeled pool U_t
mixing related samples (main-dataset classes) with unrelated ones drawn from
peripheral datasets. Which pool samples are related is sealed provenance:
training code never reads it, only the final metrics do.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass

import numpy as np

VARIANTS = ("standard", "after", "before", "only_related", "only_unrelated", "non_iid")
SYNTH_SEED_BOUND = 1 << 43  # synth_dataset's seed << 20 stays within int64

# the arrays of a save_dataset export and their dtypes
_DATASET_ARRAYS = dict(train_x=np.float32, train_y=np.int64, train_ids=np.int64,
                       test_x=np.float32, test_y=np.int64, test_ids=np.int64)


class PoolExhaustedError(RuntimeError):
    """A step asked for more samples than its source pool holds."""


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Flat-feature train/test splits with stable per-sample ids.

    Class ids are contiguous 0..C-1 in the train split; ids are unique within
    the dataset and, for synthetic data, globally disjoint across dataset
    seeds (ids embed the seed). Every feature is a finite floating-point
    value; image augmentation works in the features' dtype.
    """

    name: str
    train_x: np.ndarray
    train_y: np.ndarray
    train_ids: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    test_ids: np.ndarray

    def __post_init__(self):
        if self.train_x.ndim != 2:
            raise ValueError("train_x must be [n, d]")
        if self.test_x.ndim != 2 or self.test_x.shape[1] != self.dim:
            raise ValueError(f"test_x has shape {self.test_x.shape}, not "
                             f"[n, {self.dim}] like train_x")
        for split in ("train", "test"):
            n = len(getattr(self, f"{split}_x"))
            if not (len(getattr(self, f"{split}_y"))
                    == len(getattr(self, f"{split}_ids")) == n):
                raise ValueError(f"{split} arrays must align")
        if len(np.unique(self.train_ids)) != len(self.train_ids):
            raise ValueError("train ids must be unique")
        if self.test_x.size and np.intersect1d(self.train_ids, self.test_ids).size:
            raise ValueError("train and test ids must be disjoint")
        classes = np.unique(self.train_y)
        if classes.size and not np.array_equal(classes, np.arange(classes.size)):
            raise ValueError("train classes must be contiguous from 0")
        for split in ("train_x", "test_x"):
            features = getattr(self, split)
            if features.dtype.kind != "f":
                raise ValueError(f"{split} has {features.dtype} features, "
                                 f"not floating point")
            if not np.isfinite(features).all():
                raise ValueError(f"{split} has non-finite features")

    @property
    def n_classes(self):
        return int(self.train_y.max()) + 1 if self.train_y.size else 0

    @property
    def dim(self):
        return self.train_x.shape[1]


def synth_dataset(n_classes, dim, train_per_class, test_per_class, seed,
                  mean_radius=4.0, noise_sigma=1.0, name=None):
    """Gaussian blobs: class means on a radius-`mean_radius` shell, isotropic
    unit-ish noise around them.

    With noise_sigma=0 every sample equals its class mean exactly. Sample ids
    are (seed << 20) + running index to keep differently seeded datasets
    id-disjoint; they are int64, so seed must be below SYNTH_SEED_BOUND.
    """
    if n_classes < 1 or dim < 1 or train_per_class < 1 or test_per_class < 0:
        raise ValueError("n_classes, dim, train_per_class must be positive")
    if not 0 <= seed < SYNTH_SEED_BOUND:
        raise ValueError(f"seed must be >= 0 and < {SYNTH_SEED_BOUND}")
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((n_classes, dim))
    means *= mean_radius / np.linalg.norm(means, axis=1, keepdims=True)
    # one draw, class-major: the numbers a draw per class would give, in
    # order; scaled and shifted in place, so it is the one float64 copy
    total = train_per_class + test_per_class
    samples = rng.standard_normal((n_classes, total, dim))
    samples *= noise_sigma
    samples += means[:, None]
    samples = samples.astype(np.float32).reshape(-1, dim)
    labels = np.repeat(np.arange(n_classes), total)
    ids = (seed << 20) + np.arange(len(labels))
    train = np.tile(np.arange(total) < train_per_class, n_classes)
    return Dataset(
        name=name or f"synth{n_classes}x{dim}s{seed}",
        train_x=samples[train], train_y=labels[train], train_ids=ids[train],
        test_x=samples[~train], test_y=labels[~train], test_ids=ids[~train])


def load_cifar_binary(train_path, test_path=None, name="cifar"):
    """Read CIFAR-style binary batches: records of 1 label byte + 3072 pixel
    bytes (channel-major 32x32 RGB).

    Pixels are scaled to [0, 1] and standardized per channel with train-split
    statistics. Labels above 9 are rejected. Ids are file order; test ids are
    offset past the train ids.
    """
    def read(path):
        raw = np.fromfile(path, dtype=np.uint8)
        if raw.size == 0 or raw.size % 3073 != 0:
            raise ValueError(f"{path}: size {raw.size} is not a multiple of 3073")
        rec = raw.reshape(-1, 3073)
        labels = rec[:, 0].astype(np.int64)
        if labels.max() > 9:
            raise ValueError(f"{path}: label {labels.max()} out of range")
        pixels = rec[:, 1:].astype(np.float32)
        pixels /= 255.0
        return pixels, labels

    train_px, train_y = read(train_path)
    per_channel = train_px.reshape(-1, 3, 1024)
    mean = per_channel.mean(axis=(0, 2))
    std = per_channel.std(axis=(0, 2))
    std[std == 0] = 1.0

    def standardize(px):
        shaped = px.reshape(-1, 3, 1024) - mean[None, :, None]
        shaped /= std[None, :, None]
        return shaped.reshape(-1, 3072)

    n_train = len(train_y)
    if test_path is not None:
        test_px, test_y = read(test_path)
        test_x = standardize(test_px)
        test_ids = n_train + np.arange(len(test_y), dtype=np.int64)
    else:
        test_x = np.zeros((0, 3072), dtype=np.float32)
        test_y = np.zeros(0, dtype=np.int64)
        test_ids = np.zeros(0, dtype=np.int64)
    return Dataset(
        name=name,
        train_x=standardize(train_px),
        train_y=train_y,
        train_ids=np.arange(n_train, dtype=np.int64),
        test_x=test_x,
        test_y=test_y,
        test_ids=test_ids,
    )


def write_cifar_binary(path, labels, pixels):
    """Write records in the same 3073-byte layout load_cifar_binary reads."""
    labels = np.asarray(labels, dtype=np.uint8)
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.shape != (len(labels), 3072):
        raise ValueError("pixels must be [n, 3072] uint8")
    rec = np.concatenate([labels[:, None], pixels], axis=1)
    rec.tofile(path)


def save_dataset(dataset, path):
    """Export a Dataset to `path` as an .npz archive (no suffix is added):
    features float32, labels and ids int64. load_dataset gives the arrays
    back bit for bit, but the zip container stamps times, so the bytes of
    two exports of one dataset may differ."""
    arrays = {key: np.asarray(getattr(dataset, key), dtype=dtype)
              for key, dtype in _DATASET_ARRAYS.items()}
    with open(path, "wb") as f:
        np.savez(f, name=np.array(dataset.name), **arrays)


def load_dataset(path):
    """Read a save_dataset export; a file that is not one raises ValueError
    naming the path."""
    try:  # np.load would leave a path it opened open on a corrupt zip
        with open(path, "rb") as f, np.load(f, allow_pickle=False) as data:
            name = str(data["name"])
            arrays = {key: data[key] for key in _DATASET_ARRAYS}
    except (ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: not a dataset export ({exc})") from exc
    return Dataset(name=name, **arrays)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Augmenter:
    """Stochastic view generator.

    vector mode adds isotropic Gaussian noise then zeroes coordinates
    independently; with sigma=0 and dropout=0 it is the identity. image mode
    treats rows as channel-major 3 x hw x hw images, hw given by their width
    (image_side), and applies random resized crop, horizontal flip, and
    colour jitter and grayscale as one affine map of each image's RGB
    (_draw_images).

    Reproducibility contract of image mode: each view of a batch of n
    images draws, as whole-batch Generator calls in this order,
    uniform(*crop_scale, size=n) for the crop area, from which side =
    clip(rint(hw * sqrt(area)), 1, hw); integers(0, hw - side + 1) for the
    top and then the left edge; random(n) < flip_p, then random(n) <
    jitter_p; uniform(1 +/- brightness), uniform(1 +/- contrast), uniform(1
    +/- saturation) and uniform(-hue, hue), each of size n and read only by
    jittered images; and last random(n) < gray_p. pair_views draws all first
    views, then all second views. Views and the generator state after a call
    are fixed by that sequence, for any bit generator; the array work runs
    on the whole batch afterwards, in the rows' dtype (float32 for every
    dataset the loaders make), and consumes no draws.

    Every field is range-checked in __post_init__; a config's `augmenter`
    section holds these fields with these defaults.
    """

    mode: str = "vector"
    sigma: float = 0.5
    dropout: float = 0.1
    crop_scale: tuple = (0.2, 1.0)
    flip_p: float = 0.5
    jitter_p: float = 0.8
    jitter_strengths: tuple = (0.4, 0.4, 0.4, 0.1)
    gray_p: float = 0.2

    def __post_init__(self):
        if self.mode not in ("vector", "image"):
            raise ValueError(f"unknown augmenter mode {self.mode!r}")
        if not 0 <= self.sigma < math.inf or not 0 <= self.dropout <= 1:
            raise ValueError("sigma must be in [0, inf) and dropout in [0, 1]")
        low, high = self.crop_scale
        if not 0 <= low <= high < math.inf:
            raise ValueError(f"crop_scale must be finite (low, high) with "
                             f"0 <= low <= high, got {self.crop_scale}")
        for name in ("flip_p", "jitter_p", "gray_p"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in [0, 1]")
        # ColorJitter's ranges: a factor uniform(1 +/- s) stays >= 0, and
        # the hue turns by at most half a turn either way
        if len(self.jitter_strengths) != 4 or not (all(
                0 <= s <= 1 for s in self.jitter_strengths)
                and self.jitter_strengths[3] <= 0.5):
            raise ValueError("jitter_strengths must be four values in "
                             "[0, 1] (brightness, contrast, saturation, hue), "
                             "the hue <= 0.5")

    def apply_batch(self, xs, rng):
        """One augmented view per row of xs; consumes rng deterministically."""
        xs = np.asarray(xs)
        if self.mode == "vector":
            out = rng.standard_normal(xs.shape)
            out *= self.sigma
            out += xs
            out[rng.random(xs.shape) < self.dropout] = 0.0
            return out.astype(xs.dtype, copy=False)
        return self._apply_images(xs, rng)

    def pair_views(self, xs, rng):
        """Two independent views per row, interleaved: rows 2k, 2k+1 come
        from xs[k]. The draws are those of two apply_batch calls (all first
        views, then all second views); image mode makes both in one pass."""
        if self.mode == "image":
            return self._apply_images(np.asarray(xs), rng, views=2)
        a = self.apply_batch(xs, rng)
        b = self.apply_batch(xs, rng)
        out = np.empty((2 * len(xs), xs.shape[1]), dtype=a.dtype)
        out[0::2] = a
        out[1::2] = b
        return out

    # image helpers -----------------------------------------------------

    def _apply_images(self, xs, rng, views=1):
        """`views` views of each image, interleaved: row views*k + v is view
        v of xs[k]. Every image's parameters and colour map are drawn first
        (all of view 0, then all of view 1, ..., each in the class docstring
        order). Then each chunk of output rows is cropped, resized and
        flipped by one gather into a scratch buffer, and each image x of it,
        of mean m, is written as M x + o m by one batched matmul and one add,
        in the rows' dtype; an image neither jittered nor grayed keeps its
        gathered bytes."""
        n, hw = len(xs), image_side(xs.shape[1])
        drawn = [self._draw_images(n, hw, rng) for _ in range(views)]
        # interleaved like the output rows
        ints = np.stack([d[0] for d in drawn], axis=1).reshape(-1, 6)
        maps = np.stack([d[1] for d in drawn], axis=1).reshape(-1, 3, 4)
        maps = maps.astype(xs.dtype)
        side, top, left, flip = ints[:, :4].T
        plain = ~ints[:, 4:].any(axis=1)
        # random resized crop (square, nearest neighbour) and flip as a
        # gather: output pixel (r, c) reads crop pixel (r*side//hw, c*side//hw);
        # `rows` are rows of channel 0 in xs seen as [3 n hw, hw]
        steps = (np.arange(hw) * side[:, None]) // hw
        source = np.arange(n).repeat(views)
        rows = (source * 3 * hw)[:, None] + top[:, None] + steps
        cols = left[:, None] + steps
        cols = np.where(flip[:, None], cols[:, ::-1], cols)
        planes = np.arange(3)[:, None, None] * (hw * hw)
        imgs = np.empty((views * n, 3, hw * hw), dtype=xs.dtype)
        gathered = np.empty_like(imgs[:_CHUNK_ROWS])
        for k in range(0, views * n, _CHUNK_ROWS):
            chunk = slice(k, k + _CHUNK_ROWS)
            out = imgs[chunk]
            got = gathered[:len(out)]
            # every offset is in range; mode "clip" lets np.take write into
            # `got` itself, where "raise" would gather into a buffer first
            np.take(xs, rows[chunk, None, :, None] * hw + planes
                    + cols[chunk, None, None, :], mode="clip",
                    out=got.reshape(-1, 3, hw, hw))
            mean = got.sum(axis=(1, 2)) / (3 * hw * hw)
            np.matmul(maps[chunk, :, :3], got, out=out)
            out += (maps[chunk, :, 3] * mean[:, None])[:, :, None]
            out[plain[chunk]] = got[plain[chunk]]
        return imgs.reshape(views * n, 3 * hw * hw)

    def _draw_images(self, n, hw, rng):
        """Per-image parameters of a batch of n hw x hw images, drawn in the
        contract order.

        Returns [n, 6] ints (side, top, left, flip, jittered, grayed) and
        each image's colour jitter and grayscale as one affine map of its
        RGB, float64 [n, 3, 4]: [M | o] takes an image x of mean m to
        M x + o m. A jittered image's map is the product of its steps,
        YIQ2RGB R RGB2YIQ (s I + (1-s) 1 w^T) [c b I | (1-c) b 1]:
        brightness b, contrast c about the mean (b m after brightness),
        saturation s about the luma (w the Rec. 601 weights) and the hue as
        a rotation R of the chroma plane in YIQ space. Any other map is
        [I | 0], and a grayed image's is then 1 w^T times it. The products
        are stacked np.matmul calls, left to right.
        """
        sb, sc, ss, sh = self.jitter_strengths
        area_scale = rng.uniform(*self.crop_scale, size=n)
        side = np.clip(np.rint(hw * np.sqrt(area_scale)), 1, hw).astype(
            np.int64)
        top = rng.integers(0, hw - side + 1)
        left = rng.integers(0, hw - side + 1)
        flip = rng.random(n) < self.flip_p
        jittered = rng.random(n) < self.jitter_p
        bright, contrast, sat = [rng.uniform(1 - s, 1 + s, size=n)
                                 for s in (sb, sc, ss)]
        theta = 2.0 * math.pi * rng.uniform(-sh, sh, size=n)
        grayed = rng.random(n) < self.gray_p
        hue = np.zeros((n, 3, 3))
        hue[:, 0, 0] = 1.0
        hue[:, 1, 1] = hue[:, 2, 2] = np.cos(theta)
        hue[:, 2, 1] = np.sin(theta)
        hue[:, 1, 2] = -hue[:, 2, 1]
        saturate = (sat[:, None, None] * np.eye(3)
                    + (1.0 - sat)[:, None, None] * _GRAY)
        scale = np.eye(3, 4) * (contrast * bright)[:, None, None]
        scale[:, :, 3] = ((1.0 - contrast) * bright)[:, None]
        maps = _YIQ2RGB @ hue @ _RGB2YIQ @ saturate @ scale
        maps[~jittered] = np.eye(3, 4)
        maps[grayed] = _GRAY @ maps[grayed]
        return (np.stack([side, top, left, flip, jittered, grayed], axis=1),
                maps)


def image_side(width):
    """hw for image rows of width 3 x hw x hw, hw >= 1; any other width
    raises ValueError naming it."""
    hw = math.isqrt(width // 3)
    if hw < 1 or 3 * hw * hw != width:
        raise ValueError(f"rows of {width} values are not 3 x hw x hw images")
    return hw


# output rows per gather-and-map chunk: 32 float32 32x32 images are 384 KiB,
# in the scratch buffer and again in the output, and the gather index (int64)
# is 768 KiB. On a 2-core Xeon VM at one BLAS thread, pair_views on 64 such
# images took a median 1.59 ms at 32, 1.52 ms at 16 and 2.87 ms at 64 (40
# alternating rounds), and 32 beat 16 in 64 of 100; the size moves no byte
_CHUNK_ROWS = 32

_RGB2YIQ = np.array([[0.299, 0.587, 0.114],
                     [0.596, -0.274, -0.322],
                     [0.211, -0.523, 0.312]])
_YIQ2RGB = np.linalg.inv(_RGB2YIQ)
# 1 w^T: every channel becomes the luma
_GRAY = np.repeat(_RGB2YIQ[:1], 3, axis=0)


# ---------------------------------------------------------------------------
# Stream construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioConfig:
    """Shape of the continual stream.

    labeled_fraction is the per-class fraction of train samples that keep
    their label; n_related / n_unrelated size each step's unlabeled pool
    (unrelated counts apply per peripheral dataset). variant selects the pool
    composition rule; non_iid_fraction is the class-subset fraction used by
    the non_iid variant. A config's `scenario` section holds every field
    but seed, which each run supplies; __post_init__ checks the ranges.
    """

    n_tasks: int
    classes_per_task: int
    labeled_fraction: float
    n_related: int
    n_unrelated: int
    seed: int
    variant: str = "standard"
    non_iid_fraction: float = 0.5

    def __post_init__(self):
        if self.n_tasks < 1 or self.classes_per_task < 1:
            raise ValueError("n_tasks and classes_per_task must be positive")
        if not 0 < self.labeled_fraction <= 1:
            raise ValueError("labeled_fraction must be in (0, 1]")
        if self.n_related < 0 or self.n_unrelated < 0:
            raise ValueError("pool sizes must be non-negative")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if not math.isfinite(self.non_iid_fraction):
            raise ValueError("non_iid_fraction must be finite")
        if self.variant == "non_iid" and not 0 < self.non_iid_fraction <= 1:
            raise ValueError("non_iid_fraction must be in (0, 1]")


class SealedProvenance:
    """Ground truth of one unlabeled pool, hidden behind reveal().

    Training code receives the pool without labels; reveal() is reserved for
    ood_metrics and final reporting.
    """

    def __init__(self, related, true_classes):
        self._related = np.asarray(related, dtype=bool).copy()
        self._true_classes = np.asarray(true_classes, dtype=np.int64).copy()
        self._related.flags.writeable = False
        self._true_classes.flags.writeable = False

    def __len__(self):
        return len(self._related)

    def reveal(self):
        return self._related, self._true_classes


@dataclass(frozen=True)
class StreamStep:
    """One continual step: labeled T_t, unlabeled U_t, sealed provenance."""

    index: int
    task_classes: tuple
    labeled_x: np.ndarray
    labeled_y: np.ndarray
    labeled_ids: np.ndarray
    unlabeled_x: np.ndarray
    unlabeled_ids: np.ndarray
    provenance: SealedProvenance

    def __post_init__(self):
        if len(self.unlabeled_x) != len(self.provenance):
            raise ValueError("provenance must cover the unlabeled pool")


@dataclass(frozen=True)
class Stream:
    """The full T-step scenario."""

    steps: tuple

    @property
    def task_classes(self):
        return [s.task_classes for s in self.steps]

    @property
    def all_classes(self):
        return sorted(c for s in self.steps for c in s.task_classes)


def _related_class_window(task_classes, t, variant, rng, non_iid_fraction):
    """Class ids eligible for the related part of U_t under each variant."""
    every = [c for task in task_classes for c in task]
    if variant in ("standard", "only_related", "only_unrelated"):
        return every
    if variant == "after":
        return [c for task in task_classes[t - 1:] for c in task]
    if variant == "before":
        return [c for task in task_classes[:t] for c in task]
    if variant == "non_iid":
        k = max(1, math.ceil(non_iid_fraction * len(every)))
        picked = rng.choice(len(every), size=k, replace=False)
        return [every[i] for i in sorted(picked)]
    raise ValueError(f"unknown variant {variant!r}")


def _draw(rng, indices, count, what):
    if count > len(indices):
        raise PoolExhaustedError(
            f"{what}: requested {count} of {len(indices)} available")
    picked = rng.choice(len(indices), size=count, replace=False)
    return indices[np.sort(picked)]


def _task_classes(config, n_classes, rng):
    total_classes = config.n_tasks * config.classes_per_task
    if total_classes > n_classes:
        raise ValueError(
            f"need {total_classes} classes, main dataset has {n_classes}")
    perm = rng.permutation(n_classes)[:total_classes]
    k = config.classes_per_task
    return [tuple(int(c) for c in perm[i * k:(i + 1) * k])
            for i in range(config.n_tasks)]


def build_stream(config, main, peripherals=()):
    """Assemble the T-step scenario from a main dataset and peripherals.

    Task classes are a seeded permutation of the main classes chunked into T
    tasks of K. Labeled sets take floor(P * class size) samples per class,
    drawn once up front; the remainder forms the related reservoir. Each
    step's pool draws without replacement within the step (exhaustion raises)
    but reservoirs reset across steps, so a sample may recur in later pools.
    """
    rng = np.random.default_rng([config.seed, 0x5ce])
    task_classes = _task_classes(config, main.n_classes, rng)

    labeled_idx = {}
    reservoir_idx = {}
    for c in sorted(c for task in task_classes for c in task):
        members = np.nonzero(main.train_y == c)[0]
        n_lab = max(1, int(math.floor(config.labeled_fraction * len(members))))
        picked = _draw(rng, members, n_lab, f"labeled class {c}")
        labeled_idx[int(c)] = picked
        reservoir_idx[int(c)] = np.setdiff1d(members, picked)

    steps = []
    for t in range(1, config.n_tasks + 1):
        classes = task_classes[t - 1]
        lab = np.concatenate([labeled_idx[c] for c in classes])

        window = _related_class_window(task_classes, t, config.variant, rng,
                                       config.non_iid_fraction)
        related_pool = (np.concatenate([reservoir_idx[c] for c in window])
                        if window else np.zeros(0, dtype=np.int64))
        n_rel = 0 if config.variant == "only_unrelated" else config.n_related
        rel = _draw(rng, related_pool, n_rel, f"related pool at t={t}")

        unrel_parts = []
        n_unrel = (0 if config.variant in ("after", "before", "only_related",
                                           "non_iid")
                   else config.n_unrelated)
        for p in peripherals:
            idx = _draw(rng, np.arange(len(p.train_y)), n_unrel,
                        f"peripheral {p.name} at t={t}")
            unrel_parts.append((p, idx))

        pool_x = [main.train_x[rel]]
        pool_ids = [main.train_ids[rel]]
        related_flags = [np.ones(len(rel), dtype=bool)]
        true_classes = [main.train_y[rel]]
        for p, idx in unrel_parts:
            pool_x.append(p.train_x[idx])
            pool_ids.append(p.train_ids[idx])
            related_flags.append(np.zeros(len(idx), dtype=bool))
            true_classes.append(np.full(len(idx), -1, dtype=np.int64))

        ux = np.concatenate(pool_x)
        uids = np.concatenate(pool_ids)
        rel_flags = np.concatenate(related_flags)
        true_cls = np.concatenate(true_classes)
        order = rng.permutation(len(ux))
        steps.append(StreamStep(
            index=t,
            task_classes=classes,
            labeled_x=main.train_x[lab].copy(),
            labeled_y=main.train_y[lab].copy(),
            labeled_ids=main.train_ids[lab].copy(),
            unlabeled_x=ux[order],
            unlabeled_ids=uids[order],
            provenance=SealedProvenance(rel_flags[order], true_cls[order]),
        ))
    return Stream(steps=tuple(steps))


# ---------------------------------------------------------------------------
# Exemplar memory
# ---------------------------------------------------------------------------


class MemoryBuffer:
    """Class-balanced exemplar store with a fixed capacity.

    Quotas are floor(capacity / n_classes) per stored class with the
    remainder spread one-per-class over the lowest class ids. Each class
    keeps a uniform random subset of its stored and new rows.

    The store is two class-sorted arrays (rows, labels) and the sorted list
    of every class ever stored, whose quota may have fallen to 0.
    """

    def __init__(self, capacity):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = int(capacity)
        self._x = np.zeros((0, 0), dtype=np.float32)
        self._y = np.zeros(0, dtype=np.int64)
        self._classes = []

    def __len__(self):
        return len(self._y)

    def class_counts(self):
        return {c: int(np.count_nonzero(self._y == c)) for c in self._classes}

    def items(self):
        """All stored exemplars as (xs, ys), class-sorted, as read-only views."""
        xs, ys = self._x.view(), self._y.view()
        xs.flags.writeable = ys.flags.writeable = False
        return xs, ys

    def quotas(self, classes):
        """Per-class capacities for a given class set; remainder goes to the
        lowest ids."""
        classes = sorted(classes)
        base, rem = divmod(self.capacity, max(1, len(classes)))
        return {c: base + (1 if i < rem else 0) for i, c in enumerate(classes)}

    def update(self, xs, ys, rng):
        """Fold a new labeled set in and rebalance to the enlarged class set.

        Args:
            xs, ys: the new task's labeled samples.
            rng: Generator; each class with a quota draws its subset from it
                (selection order is deterministic given the stream).
        """
        xs = np.asarray(xs)
        ys = np.asarray(ys, dtype=np.int64)
        # a class selects from its stored rows, then its new ones; before the
        # first rows are stored, _x has no width to concatenate with
        if len(self._y):
            xs, ys = np.concatenate((self._x, xs)), np.concatenate((self._y, ys))
        self._classes = sorted(set(self._classes) | set(ys.tolist()))
        quotas = self.quotas(self._classes)
        keep = [np.zeros(0, dtype=np.int64)]  # concatenate needs one array
        for c in self._classes:
            rows = np.flatnonzero(ys == c)
            quota = min(quotas[c], len(rows))
            if quota:
                picked = rng.choice(len(rows), size=quota, replace=False)
                keep.append(rows[np.sort(picked)])
        keep = np.concatenate(keep)
        self._x, self._y = xs[keep], ys[keep]


def epoch_batches(n, batch_size, rng):
    """Seeded permutation of range(n) chunked into batches; the tail batch may
    be short."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    perm = rng.permutation(n)
    return [perm[i:i + batch_size] for i in range(0, n, batch_size)]


def sample_batch(n, batch_size, rng):
    """One without-replacement batch of min(batch_size, n) indices."""
    size = min(batch_size, n)
    picked = rng.choice(n, size=size, replace=False)
    return picked
