"""Tests for datasets, augmentation, stream invariants, and exemplar memory."""

import dataclasses
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osscl import scenario


def small_main(seed=0):
    return scenario.synth_dataset(8, 16, 50, 10, seed=seed)


def small_peripheral(seed=100):
    return scenario.synth_dataset(8, 16, 50, 0, seed=seed)


def config(**kw):
    base = dict(n_tasks=4, classes_per_task=2, labeled_fraction=0.1,
                n_related=30, n_unrelated=30, seed=7)
    base.update(kw)
    return scenario.ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


def test_synth_shapes_and_classes():
    ds = small_main()
    assert ds.train_x.shape == (400, 16)
    assert ds.test_x.shape == (80, 16)
    assert ds.n_classes == 8
    assert ds.dim == 16


def test_synth_deterministic_per_seed():
    a, b = small_main(3), small_main(3)
    np.testing.assert_array_equal(a.train_x, b.train_x)
    c = small_main(4)
    assert (a.train_x != c.train_x).any()


def test_synth_zero_noise_collapses_to_means():
    ds = scenario.synth_dataset(3, 5, 4, 0, seed=1, noise_sigma=0.0)
    for c in range(3):
        rows = ds.train_x[ds.train_y == c]
        assert np.allclose(rows, rows[0])


def test_synth_ids_disjoint_across_seeds():
    a, b = small_main(1), small_main(2)
    assert np.intersect1d(a.train_ids, b.train_ids).size == 0


def test_synth_mean_radius():
    ds = scenario.synth_dataset(4, 8, 200, 0, seed=5, mean_radius=4.0,
                                noise_sigma=0.0)
    for c in range(4):
        mean = ds.train_x[ds.train_y == c][0]
        assert np.linalg.norm(mean) == pytest.approx(4.0, rel=1e-5)


def test_dataset_validation():
    with pytest.raises(ValueError):
        scenario.Dataset(name="bad",
                         train_x=np.zeros((2, 3), dtype=np.float32),
                         train_y=np.array([0, 2]),  # gap in class ids
                         train_ids=np.array([0, 1]),
                         test_x=np.zeros((0, 3), dtype=np.float32),
                         test_y=np.zeros(0, dtype=np.int64),
                         test_ids=np.zeros(0, dtype=np.int64))


@pytest.mark.parametrize("split,cut,message", [
    ("test_x", np.s_[:, :2], r"^test_x has shape \(80, 2\), not \[n, 16\]"),
    ("test_x", np.s_[0], r"^test_x has shape \(16,\), not \[n, 16\]"),
    ("test_y", np.s_[:-1], "^test arrays must align$"),
    ("test_ids", np.s_[1:], "^test arrays must align$"),
    ("train_y", np.s_[:-1], "^train arrays must align$"),
], ids=["narrow_rows", "flat_rows", "short_labels", "short_ids",
        "short_train_labels"])
def test_dataset_rejects_a_split_that_does_not_fit(split, cut, message):
    arrays = dataclasses.asdict(small_main())
    arrays[split] = arrays[split][cut]
    with pytest.raises(ValueError, match=message):
        scenario.Dataset(**arrays)


@pytest.mark.parametrize("split", ["train_x", "test_x"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_dataset_rejects_non_finite_features(split, value):
    arrays = dataclasses.asdict(small_main())
    arrays[split] = arrays[split].copy()
    arrays[split][3, 1] = value
    with pytest.raises(ValueError, match=f"^{split} has non-finite features$"):
        scenario.Dataset(**arrays)


@pytest.mark.parametrize("split", ["train_x", "test_x"])
def test_dataset_rejects_integer_features(split):
    arrays = dataclasses.asdict(small_main())
    arrays[split] = arrays[split].astype(np.uint8)
    with pytest.raises(ValueError,
                       match=f"^{split} has uint8 features, not floating"):
        scenario.Dataset(**arrays)


def test_dataset_binary_roundtrip(tmp_path):
    ds = small_main(9)
    path = tmp_path / "ds.bin"
    scenario.save_dataset(ds, path)
    back = scenario.load_dataset(path)
    assert back.name == ds.name
    np.testing.assert_array_equal(back.train_x, ds.train_x)
    np.testing.assert_array_equal(back.train_y, ds.train_y)
    np.testing.assert_array_equal(back.train_ids, ds.train_ids)
    np.testing.assert_array_equal(back.test_x, ds.test_x)


@pytest.mark.parametrize("test_per_class", [10, 0])
def test_dataset_export_roundtrips_every_array_and_dtype(tmp_path,
                                                         test_per_class):
    ds = scenario.synth_dataset(5, 7, 12, test_per_class, seed=4,
                                name="blobs")
    path = tmp_path / "blobs.export"
    scenario.save_dataset(ds, path)
    assert [p.name for p in tmp_path.iterdir()] == ["blobs.export"]
    back = scenario.load_dataset(path)
    assert back.name == "blobs"
    for key in ("train_x", "train_y", "train_ids", "test_x", "test_y",
                "test_ids"):
        got, want = getattr(back, key), getattr(ds, key)
        assert got.dtype == want.dtype, key
        assert got.shape == want.shape, key
        assert got.tobytes() == want.tobytes(), key


def _old_layout_export(path, ds):
    """The retired OSSCLDS1 layout: magic, name, four uint32 sizes, then the
    six arrays' raw bytes."""
    name = ds.name.encode()
    with open(path, "wb") as f:
        f.write(b"OSSCLDS1" + struct.pack("<I", len(name)) + name)
        f.write(struct.pack("<IIII", ds.dim, len(ds.train_y), len(ds.test_y),
                            ds.n_classes))
        for arr in (ds.train_x, ds.train_y, ds.train_ids, ds.test_x,
                    ds.test_y, ds.test_ids):
            f.write(arr.tobytes())


def _write_bytes(path, data):
    with open(path, "wb") as f:
        f.write(data)


def _write_npy(path, array):
    with open(path, "wb") as f:  # np.save would append .npy to the path
        np.save(f, array)


@pytest.mark.parametrize("make", [
    lambda path, ds: _old_layout_export(path, ds),
    lambda path, ds: _write_bytes(path, b""),
    lambda path, ds: _write_npy(path, ds.train_x),
    lambda path, ds: (scenario.save_dataset(ds, path),
                      _write_bytes(path, path.read_bytes()[:200])),
    lambda path, ds: np.savez(path, train_x=ds.train_x),
], ids=["osscl_ds1", "empty", "npy", "truncated_npz", "missing_arrays"])
def test_a_file_that_is_not_an_export_raises_naming_the_path(tmp_path, make):
    path = tmp_path / "not_an_export.npz"
    make(path, small_main(9))
    with pytest.raises(ValueError, match="not_an_export.npz"):
        scenario.load_dataset(path)


def test_synth_draws_the_numbers_of_one_draw_per_class():
    """The class-major single draw gives the numbers, and the float32 rows,
    of a draw of (train + test, dim) per class in class order."""
    for noise_sigma in (1.0, 0.0):
        ds = scenario.synth_dataset(3, 4, 5, 2, seed=12, mean_radius=3.0,
                                    noise_sigma=noise_sigma)
        rng = np.random.default_rng(12)
        means = rng.standard_normal((3, 4))
        means *= 3.0 / np.linalg.norm(means, axis=1, keepdims=True)
        for c in range(3):
            rows = (means[c] + noise_sigma
                    * rng.standard_normal((7, 4))).astype(np.float32)
            assert ds.train_x[ds.train_y == c].tobytes() == rows[:5].tobytes()
            assert ds.test_x[ds.test_y == c].tobytes() == rows[5:].tobytes()
            np.testing.assert_array_equal(ds.train_ids[ds.train_y == c],
                                          (12 << 20) + 7 * c + np.arange(5))
            np.testing.assert_array_equal(ds.test_ids[ds.test_y == c],
                                          (12 << 20) + 7 * c + 5 + np.arange(2))


def test_cifar_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 10, size=24).astype(np.uint8)
    pixels = rng.integers(0, 256, size=(24, 3072)).astype(np.uint8)
    train = tmp_path / "train.bin"
    test = tmp_path / "test.bin"
    scenario.write_cifar_binary(train, labels, pixels)
    scenario.write_cifar_binary(test, labels[:8], pixels[:8])
    # force full class coverage so the contiguity check passes
    labels[:10] = np.arange(10)
    scenario.write_cifar_binary(train, labels, pixels)
    ds = scenario.load_cifar_binary(train, test)
    assert ds.train_x.shape == (24, 3072)
    assert ds.test_x.shape == (8, 3072)
    # per-channel standardization over the train split
    shaped = ds.train_x.reshape(-1, 3, 1024)
    np.testing.assert_allclose(shaped.mean(axis=(0, 2)), 0.0, atol=1e-5)
    np.testing.assert_allclose(shaped.std(axis=(0, 2)), 1.0, atol=1e-4)


def _oracle_cifar_features(path, mean=None, std=None):
    """The loader's scaling and standardization as first written, with a
    full-size temporary per step; returns (features, mean, std)."""
    rec = np.fromfile(path, dtype=np.uint8).reshape(-1, 3073)
    pixels = rec[:, 1:].astype(np.float32) / 255.0
    if mean is None:
        per_channel = pixels.reshape(-1, 3, 1024)
        mean = per_channel.mean(axis=(0, 2))
        std = per_channel.std(axis=(0, 2))
        std[std == 0] = 1.0
    shaped = pixels.reshape(-1, 3, 1024)
    shaped = (shaped - mean[None, :, None]) / std[None, :, None]
    return shaped.reshape(-1, 3072).astype(np.float32), mean, std


@pytest.mark.parametrize("n_train,flat_channel", [(24, None), (37, 2)])
def test_cifar_binary_features_match_copying_formula(tmp_path, n_train,
                                                     flat_channel):
    rng = np.random.default_rng(n_train)
    labels = np.arange(n_train) % 10
    pixels = rng.integers(0, 256, size=(n_train, 3072)).astype(np.uint8)
    if flat_channel is not None:
        # a constant channel has std 0, which the loader replaces by 1
        pixels[:, flat_channel * 1024:(flat_channel + 1) * 1024] = 17
    train = tmp_path / "train.bin"
    test = tmp_path / "test.bin"
    scenario.write_cifar_binary(train, labels, pixels)
    scenario.write_cifar_binary(test, labels[:9], pixels[::-1][:9])
    ds = scenario.load_cifar_binary(train, test)
    want_train, mean, std = _oracle_cifar_features(train)
    want_test, _, _ = _oracle_cifar_features(test, mean, std)
    for got, want in ((ds.train_x, want_train), (ds.test_x, want_test)):
        assert got.dtype == np.float32
        assert got.flags.c_contiguous
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_cifar_binary_rejects_bad_sizes(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 100)
    with pytest.raises(ValueError):
        scenario.load_cifar_binary(path)


def test_cifar_binary_rejects_bad_label(tmp_path):
    path = tmp_path / "bad.bin"
    rec = np.zeros((10, 3073), dtype=np.uint8)
    rec[:, 0] = np.arange(10)
    rec[3, 0] = 77
    rec.tofile(path)
    with pytest.raises(ValueError):
        scenario.load_cifar_binary(path)


# ---------------------------------------------------------------------------
# Augmenter
# ---------------------------------------------------------------------------


def test_vector_augment_identity_when_disabled():
    aug = scenario.Augmenter(mode="vector", sigma=0.0, dropout=0.0)
    x = np.random.default_rng(0).standard_normal((5, 8)).astype(np.float32)
    np.testing.assert_array_equal(aug.apply_batch(x, np.random.default_rng(1)), x)


def test_vector_augment_deterministic_per_rng():
    aug = scenario.Augmenter(mode="vector", sigma=0.5, dropout=0.2)
    x = np.random.default_rng(0).standard_normal((5, 8))
    a = aug.apply_batch(x, np.random.default_rng(9))
    b = aug.apply_batch(x, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_vector_augment_is_bitwise_the_where_formula(dtype):
    """The in-place noise and mask give the bytes, dtype and generator
    state of xs + sigma * noise, then np.where(drop, 0.0, .) cast back."""
    aug = scenario.Augmenter(mode="vector", sigma=1.75, dropout=0.3)
    x = np.random.default_rng(0).standard_normal((64, 16)).astype(dtype)
    x.flags.writeable = False
    got_rng, want_rng = np.random.default_rng(4), np.random.default_rng(4)
    got = aug.apply_batch(x, got_rng)
    want = x + aug.sigma * want_rng.standard_normal(x.shape)
    want = np.where(want_rng.random(x.shape) < aug.dropout, 0.0, want)
    want = want.astype(dtype, copy=False)
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_vector_dropout_zeroes_coordinates():
    aug = scenario.Augmenter(mode="vector", sigma=0.0, dropout=0.5)
    x = np.ones((20, 20))
    out = aug.apply_batch(x, np.random.default_rng(3))
    frac = (out == 0.0).mean()
    assert 0.3 < frac < 0.7


def test_pair_views_interleaved():
    aug = scenario.Augmenter(mode="vector", sigma=0.0, dropout=0.0)
    x = np.arange(6, dtype=np.float64).reshape(3, 2)
    views = aug.pair_views(x, np.random.default_rng(0))
    assert views.shape == (6, 2)
    np.testing.assert_array_equal(views[0::2], x)
    np.testing.assert_array_equal(views[1::2], x)


def test_image_augment_shape_and_determinism():
    aug = scenario.Augmenter(mode="image", image_hw=8)
    x = np.random.default_rng(1).random((4, 3 * 64)).astype(np.float32)
    a = aug.apply_batch(x, np.random.default_rng(2))
    b = aug.apply_batch(x, np.random.default_rng(2))
    assert a.shape == x.shape
    np.testing.assert_array_equal(a, b)
    assert (a != x).any()


def test_image_grayscale_equalizes_channels():
    aug = scenario.Augmenter(mode="image", image_hw=4, crop_scale=(1.0, 1.0),
                             flip_p=0.0, jitter_p=0.0, gray_p=1.0)
    x = np.random.default_rng(5).random((2, 48))
    out = aug.apply_batch(x, np.random.default_rng(6)).reshape(2, 3, 4, 4)
    np.testing.assert_allclose(out[:, 0], out[:, 1], atol=1e-12)
    np.testing.assert_allclose(out[:, 1], out[:, 2], atol=1e-12)


def test_augmenter_validation():
    with pytest.raises(ValueError):
        scenario.Augmenter(mode="audio")
    with pytest.raises(ValueError):
        scenario.Augmenter(sigma=-1.0)


@pytest.mark.parametrize("bad", [
    {"crop_scale": (-1.0, 1.0)}, {"crop_scale": (0.9, 0.1)},
    {"crop_scale": (0.2, float("inf"))}, {"crop_scale": (float("nan"), 1.0)},
    {"flip_p": 2.0}, {"flip_p": -0.1}, {"jitter_p": 1.5}, {"gray_p": -1.0},
    {"gray_p": float("nan")}, {"jitter_strengths": (0.4, -0.1, 0.4, 0.1)},
    {"jitter_strengths": (0.4, 0.4, 0.4)}])
def test_augmenter_rejects_bad_image_settings(bad):
    with pytest.raises(ValueError):
        scenario.Augmenter(mode="image", **bad)


def test_augmenter_accepts_edge_image_settings():
    scenario.Augmenter(mode="image", crop_scale=(0.0, 0.0), flip_p=0.0,
                       jitter_p=1.0, gray_p=1.0,
                       jitter_strengths=(0.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("strengths", [
    (1.0001, 0.4, 0.4, 0.1), (0.4, 1.5, 0.4, 0.1), (0.4, 0.4, 2.0, 0.1),
    (0.4, 0.4, 0.4, 0.5001), (0.4, 0.4, 0.4, 1.0),
    (0.4, 0.4, float("inf"), 0.1), (0.4, 0.4, 0.4, float("nan"))])
def test_augmenter_rejects_jitter_strengths_outside_colorjitter(strengths):
    """Above 1, uniform(1 +/- s) draws negative factors; above 0.5, the hue
    turns past half a turn."""
    with pytest.raises(ValueError, match="jitter_strengths"):
        scenario.Augmenter(mode="image", jitter_strengths=strengths)


@pytest.mark.parametrize("strengths", [
    (1.0, 1.0, 1.0, 0.5), (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.5),
    (0.4, 0.4, 0.4, 0.1)])
def test_augmenter_accepts_jitter_strengths_at_colorjitter_bounds(strengths):
    aug = scenario.Augmenter(mode="image", image_hw=4,
                             jitter_strengths=strengths)
    x = np.random.default_rng(0).standard_normal((9, 48)).astype(np.float32)
    assert np.isfinite(aug.pair_views(x, np.random.default_rng(1))).all()


# The per-image path the batched one replaced, kept as its oracle: it draws
# each parameter of the batch by one scalar Generator call per image, in the
# Augmenter's contract order, then crops, resizes and flips one image at a
# time and composes and applies its colour map [M | o] on its own. The
# batched path must give the same bytes and leave the generator in the same
# state. It works in the rows' dtype, as the batched path does, and its crop
# is C-ordered, so each image's mean is summed in the batch's order.

_GRAY = np.array([[0.299, 0.587, 0.114]] * 3)


def _oracle_images(aug, xs, rng, colour=None):
    """The views of xs; `colour(img, factors, gray)` recolours one cropped
    image, by default with its composed map (_oracle_affine)."""
    hw = aug.image_hw
    imgs = xs.reshape(len(xs), 3, hw, hw)
    out = np.empty_like(imgs)
    for i, params in enumerate(_oracle_draws(aug, len(imgs), rng)):
        out[i] = _oracle_one(aug, imgs[i], *params, colour or _oracle_affine)
    return out.reshape(len(xs), 3 * hw * hw)


def _oracle_draws(aug, n, rng):
    """Per image: (side, top, left, flip, jitter factors or None, gray)."""
    hw = aug.image_hw
    sides = [max(1, min(hw, round(hw * math.sqrt(rng.uniform(
        *aug.crop_scale))))) for _ in range(n)]
    tops = [rng.integers(0, hw - side + 1) for side in sides]
    lefts = [rng.integers(0, hw - side + 1) for side in sides]
    flips = [rng.random() < aug.flip_p for _ in range(n)]
    jittered = [rng.random() < aug.jitter_p for _ in range(n)]
    sb, sc, ss, sh = aug.jitter_strengths
    factors = [[rng.uniform(lo, hi) for _ in range(n)] for lo, hi in (
        (1 - sb, 1 + sb), (1 - sc, 1 + sc), (1 - ss, 1 + ss), (-sh, sh))]
    grays = [rng.random() < aug.gray_p for _ in range(n)]
    jitters = [image if j else None for j, image in zip(jittered,
                                                       zip(*factors))]
    return list(zip(sides, tops, lefts, flips, jitters, grays))


def _oracle_one(aug, img, side, top, left, flip, factors, gray, colour):
    hw = aug.image_hw
    crop = img[:, top:top + side, left:left + side]
    idx = np.clip((np.arange(hw) * side) // hw, 0, side - 1)
    img = crop[:, idx][:, :, idx]
    if flip:
        img = img[:, :, ::-1]
    img = np.ascontiguousarray(img)
    if factors is None and not gray:
        return img
    return colour(img, factors, gray)


def _oracle_affine(img, factors, gray):
    """M x + o mean(x), with [M | o] composed in float64 and rounded to the
    image dtype."""
    affine = np.eye(3, 4)
    if factors is not None:
        bright, contrast, sat, hue = factors
        theta = 2.0 * math.pi * hue
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        rotate = np.array([[1.0, 0.0, 0.0], [0.0, cos_t, -sin_t],
                           [0.0, sin_t, cos_t]])
        saturate = sat * np.eye(3) + (1.0 - sat) * _GRAY
        scale = np.eye(3, 4) * (contrast * bright)
        scale[:, 3] = (1.0 - contrast) * bright
        affine = (scenario._YIQ2RGB @ rotate @ scenario._RGB2YIQ @ saturate
                  @ scale)
    if gray:
        affine = _GRAY @ affine
    affine = affine.astype(img.dtype)
    flat = img.reshape(3, -1)
    out = affine[:, :3] @ flat + (affine[:, 3] * img.mean())[:, None]
    return out.reshape(img.shape)


def _sequential_colour(img, factors, gray):
    """Colour jitter and grayscale as successive passes in the image dtype:
    brightness, contrast about the mean, saturation about the luma, the hue
    as a rotation in YIQ, then the luma in every channel. The composed map
    must agree with it up to rounding."""
    if factors is not None:
        # each python-float factor rounds to the image dtype where it is used
        bright, contrast, sat, hue = factors
        img = img * bright
        mean = img.mean()
        img = mean + (img - mean) * contrast
        luma = 0.299 * img[0] + 0.587 * img[1] + 0.114 * img[2]
        img = luma[None] + (img - luma[None]) * sat
        theta = 2.0 * math.pi * hue
        yiq = np.tensordot(scenario._RGB2YIQ.astype(img.dtype), img, axes=1)
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        i_rot = yiq[1] * cos_t - yiq[2] * sin_t
        q_rot = yiq[1] * sin_t + yiq[2] * cos_t
        yiq = np.stack([yiq[0], i_rot, q_rot])
        img = np.tensordot(scenario._YIQ2RGB.astype(img.dtype), yiq, axes=1)
    if gray:
        luma = 0.299 * img[0] + 0.587 * img[1] + 0.114 * img[2]
        img = np.stack([luma, luma, luma])
    return img


def _image_settings():
    """(flip_p, jitter_p, gray_p) all-or-nothing combinations, plus the
    defaults, which mix jittered and plain images inside one chunk."""
    flags = [dict(flip_p=f, jitter_p=j, gray_p=g)
             for f in (0.0, 1.0) for j in (0.0, 1.0) for g in (0.0, 1.0)]
    return flags + [{}]


@pytest.mark.parametrize("hw", [4, 8, 32])
@pytest.mark.parametrize("batch", [0, 1, 17, 129])
@pytest.mark.parametrize("crop_scale", [(1.0, 1.0), (0.01, 0.05),
                                        (0.2, 1.0)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_image_views_match_the_per_image_oracle(hw, batch, crop_scale, dtype):
    # each dtype is augmented in its own arithmetic
    x = np.random.default_rng(hw * 1000 + batch).standard_normal(
        (batch, 3 * hw * hw)).astype(dtype)
    for probs in _image_settings():
        for strengths in ((0.0, 0.0, 0.0, 0.0), (0.4, 0.4, 0.4, 0.1)):
            aug = scenario.Augmenter(mode="image", image_hw=hw,
                                     crop_scale=crop_scale,
                                     jitter_strengths=strengths, **probs)
            got_rng = np.random.default_rng(batch + 17)
            want_rng = np.random.default_rng(batch + 17)
            got = aug.apply_batch(x, got_rng)
            want = _oracle_images(aug, x, want_rng)
            case = f"{probs} strengths {strengths}"
            assert got.dtype == want.dtype == dtype, case
            assert got.tobytes() == want.tobytes(), case
            assert got_rng.bit_generator.state == \
                want_rng.bit_generator.state, case
            # pair_views from where apply_batch left both generators
            assert_views_match_the_oracle("pair_views", aug, x, got_rng,
                                          want_rng, case)


@pytest.mark.parametrize("hw", [4, 8, 32])
@pytest.mark.parametrize("dtype,atol", [(np.float32, 4e-6),
                                        (np.float64, 1e-12)])
def test_image_views_agree_with_the_sequential_colour_passes(hw, dtype, atol):
    """The composed map is the jitter passes' arithmetic up to rounding."""
    x = np.random.default_rng(hw).standard_normal((65, 3 * hw * hw)).astype(
        dtype)
    for probs in _image_settings():
        for strengths in ((0.0, 0.0, 0.0, 0.0), (0.4, 0.4, 0.4, 0.1)):
            aug = scenario.Augmenter(mode="image", image_hw=hw,
                                     jitter_strengths=strengths, **probs)
            got = aug.pair_views(x, np.random.default_rng(hw + 1))
            rng = np.random.default_rng(hw + 1)
            first, second = (_oracle_images(aug, x, rng, _sequential_colour)
                             for _ in range(2))
            np.testing.assert_allclose(got[0::2], first, rtol=0, atol=atol,
                                       err_msg=f"{probs} {strengths}")
            np.testing.assert_allclose(got[1::2], second, rtol=0, atol=atol,
                                       err_msg=f"{probs} {strengths}")


def assert_views_match_the_oracle(views, aug, x, got_rng, want_rng, case=""):
    """`views` ("apply_batch" or "pair_views", all first views then all
    second views, interleaved) equal the oracle's in bytes and in the
    generator state they leave."""
    got = getattr(aug, views)(x, got_rng)
    want = _oracle_images(aug, x, want_rng)
    if views == "pair_views":
        first, want = want, np.empty((2 * len(x), x.shape[1]), dtype=x.dtype)
        want[0::2] = first
        want[1::2] = _oracle_images(aug, x, want_rng)
    assert got.dtype == want.dtype == x.dtype, case
    assert got.tobytes() == want.tobytes(), case
    assert _state(got_rng) == _state(want_rng), case


def _state(rng):
    """The bit generator's state, comparable with == (MT19937's holds an
    array)."""
    return json.dumps(rng.bit_generator.state, sort_keys=True,
                      default=np.ndarray.tolist)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_plain_images_keep_their_gathered_bytes(dtype):
    """An image neither jittered nor grayed is its crop, -0.0 included,
    which an identity map would turn into +0.0."""
    x = np.random.default_rng(4).standard_normal((33, 3 * 8 * 8)).astype(
        dtype)
    x[:, ::3] = -0.0
    aug = scenario.Augmenter(mode="image", image_hw=8, jitter_p=0.5,
                             gray_p=0.5)
    assert_views_match_the_oracle("pair_views", aug, x,
                                  np.random.default_rng(1),
                                  np.random.default_rng(1))


@pytest.mark.parametrize("views", ["apply_batch", "pair_views"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_image_views_entered_with_a_kept_half_match_the_oracle(views, dtype):
    """integers() before the views leaves PCG64 holding a 32-bit half,
    which the first crop edge must take."""
    x = np.random.default_rng(3).standard_normal((33, 3 * 8 * 8)).astype(
        dtype)
    aug = scenario.Augmenter(mode="image", image_hw=8)
    got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
    for rng in (got_rng, want_rng):
        rng.integers(0, 5)
        assert rng.bit_generator.state["has_uint32"] == 1
    assert_views_match_the_oracle(views, aug, x, got_rng, want_rng)


@pytest.mark.parametrize("bit_generator", [np.random.MT19937,
                                           np.random.PCG64DXSM])
def test_image_views_take_any_bit_generator(bit_generator):
    """The views are Generator calls, so any bit generator gives the
    oracle's bytes and state, and the same views again from the same seed."""
    aug = scenario.Augmenter(mode="image", image_hw=8)
    x = np.random.default_rng(2).standard_normal((17, 3 * 8 * 8)).astype(
        np.float32)
    for views in ("apply_batch", "pair_views"):
        got_rng, want_rng = (np.random.Generator(bit_generator(0))
                             for _ in range(2))
        assert_views_match_the_oracle(views, aug, x, got_rng, want_rng)
        first, again = (getattr(aug, views)(
            x, np.random.Generator(bit_generator(0))) for _ in range(2))
        assert first.tobytes() == again.tobytes()


def test_image_mode_rejects_rows_of_the_wrong_width():
    aug = scenario.Augmenter(mode="image", image_hw=8)
    with pytest.raises(ValueError):
        aug.apply_batch(np.zeros((2, 100), dtype=np.float32),
                        np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Stream invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_stream_core_invariants(seed):
    main = small_main(seed)
    peri = small_peripheral(seed + 100)
    cfg = config(seed=seed)
    stream = scenario.build_stream(cfg, main, [peri])

    assert len(stream.steps) == 4
    seen = set()
    for step in stream.steps:
        # task classes are disjoint across steps
        assert not (set(step.task_classes) & seen)
        seen |= set(step.task_classes)
        # labeled samples carry only current-task classes
        assert set(np.unique(step.labeled_y)) == set(step.task_classes)
        # labeled fraction: floor(P * 50) = 5 per class
        assert len(step.labeled_y) == 2 * 5
        # pool sizes as configured
        assert len(step.unlabeled_x) == cfg.n_related + cfg.n_unrelated
        # labeled ids never appear in the same step's pool
        assert np.intersect1d(step.labeled_ids, step.unlabeled_ids).size == 0
        # provenance matches the id split: related ids are main ids
        related, true_cls = step.provenance.reveal()
        assert related.sum() == cfg.n_related
        assert np.isin(step.unlabeled_ids[related], main.train_ids).all()
        assert not np.isin(step.unlabeled_ids[~related], main.train_ids).any()
        assert (true_cls[~related] == -1).all()
        assert (true_cls[related] >= 0).all()
        # no duplicates inside one pool (within-step no replacement)
        assert len(np.unique(step.unlabeled_ids)) == len(step.unlabeled_ids)


def test_stream_deterministic_per_seed():
    main, peri = small_main(0), small_peripheral(50)
    a = scenario.build_stream(config(seed=3), main, [peri])
    b = scenario.build_stream(config(seed=3), main, [peri])
    for sa, sb in zip(a.steps, b.steps):
        np.testing.assert_array_equal(sa.unlabeled_ids, sb.unlabeled_ids)
        np.testing.assert_array_equal(sa.labeled_ids, sb.labeled_ids)
    c = scenario.build_stream(config(seed=4), main, [peri])
    assert any((sa.unlabeled_ids != sc.unlabeled_ids).any()
               for sa, sc in zip(a.steps, c.steps))


def test_stream_labeled_sets_fixed_across_variants():
    # the labeled split is drawn before variant-specific pool logic
    main, peri = small_main(0), small_peripheral(50)
    base = scenario.build_stream(config(seed=3), main, [peri])
    for variant in ("after", "before", "only_related", "only_unrelated"):
        other = scenario.build_stream(config(seed=3, variant=variant), main, [peri])
        for sa, sb in zip(base.steps, other.steps):
            np.testing.assert_array_equal(sa.labeled_ids, sb.labeled_ids)
            assert sa.task_classes == sb.task_classes


def test_variant_after_restricts_related_to_current_and_future():
    main = small_main(1)
    stream = scenario.build_stream(config(seed=2, variant="after"), main, [])
    classes_by_task = stream.task_classes
    for t, step in enumerate(stream.steps, start=1):
        related, true_cls = step.provenance.reveal()
        assert related.all()  # variant drops unrelated samples
        allowed = {c for task in classes_by_task[t - 1:] for c in task}
        assert set(true_cls) <= allowed


def test_variant_before_restricts_related_to_seen():
    main = small_main(1)
    stream = scenario.build_stream(config(seed=2, variant="before"), main, [])
    classes_by_task = stream.task_classes
    for t, step in enumerate(stream.steps, start=1):
        related, true_cls = step.provenance.reveal()
        assert related.all()
        allowed = {c for task in classes_by_task[:t] for c in task}
        assert set(true_cls) <= allowed


def test_variant_only_related_and_only_unrelated():
    main, peri = small_main(1), small_peripheral(60)
    only_rel = scenario.build_stream(config(seed=2, variant="only_related"),
                                     main, [peri])
    for step in only_rel.steps:
        related, _ = step.provenance.reveal()
        assert related.all()
        assert len(step.unlabeled_x) == 30
    only_unrel = scenario.build_stream(config(seed=2, variant="only_unrelated"),
                                       main, [peri])
    for step in only_unrel.steps:
        related, _ = step.provenance.reveal()
        assert not related.any()
        assert len(step.unlabeled_x) == 30


def test_variant_non_iid_uses_class_subset():
    main = small_main(1)
    cfg = config(seed=2, variant="non_iid", non_iid_fraction=0.25, n_related=20)
    stream = scenario.build_stream(cfg, main, [])
    for step in stream.steps:
        _, true_cls = step.provenance.reveal()
        # ceil(0.25 * 8) = 2 classes per step
        assert len(set(true_cls)) <= 2


def test_pool_exhaustion_raises():
    main = small_main(0)
    cfg = config(seed=1, n_related=10_000)
    with pytest.raises(scenario.PoolExhaustedError):
        scenario.build_stream(cfg, main, [])


def test_too_many_tasks_raises():
    main = small_main(0)
    with pytest.raises(ValueError, match="^need 10 classes, main dataset "
                                         "has 8$"):
        scenario.build_stream(config(n_tasks=5, classes_per_task=2), main, [])


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        config(labeled_fraction=0.0)
    with pytest.raises(ValueError):
        config(variant="sideways")
    with pytest.raises(ValueError):
        config(variant="non_iid", non_iid_fraction=0.0)


# ---------------------------------------------------------------------------
# Memory buffer
# ---------------------------------------------------------------------------


def test_memory_quota_balance():
    buf = scenario.MemoryBuffer(50)
    assert buf.quotas(range(8)) == {0: 7, 1: 7, 2: 6, 3: 6, 4: 6, 5: 6, 6: 6, 7: 6}


@given(st.integers(min_value=0, max_value=100), st.integers(min_value=1, max_value=12))
@settings(max_examples=40, deadline=None)
def test_memory_quota_properties(capacity, n_classes):
    buf = scenario.MemoryBuffer(capacity)
    q = buf.quotas(range(n_classes))
    assert sum(q.values()) == capacity
    assert max(q.values()) - min(q.values()) <= 1
    # remainder goes to the lowest class ids
    assert sorted(q.values(), reverse=True) == [q[c] for c in sorted(q)]


def test_memory_update_rebalances_old_classes():
    rng = np.random.default_rng(0)
    buf = scenario.MemoryBuffer(12)
    xs0 = rng.standard_normal((20, 4))
    buf.update(xs0, np.repeat([0, 1], 10), rng)
    assert buf.class_counts() == {0: 6, 1: 6}
    xs1 = rng.standard_normal((20, 4))
    buf.update(xs1, np.repeat([2, 3], 10), rng)
    assert buf.class_counts() == {0: 3, 1: 3, 2: 3, 3: 3}
    assert len(buf) == 12


def test_memory_never_exceeds_capacity():
    rng = np.random.default_rng(1)
    buf = scenario.MemoryBuffer(10)
    for task in range(5):
        xs = rng.standard_normal((8, 3))
        ys = np.repeat([2 * task, 2 * task + 1], 4)
        buf.update(xs, ys, rng)
        assert len(buf) <= 10


def test_memory_random_policy_deterministic():
    def run():
        rng = np.random.default_rng(5)
        buf = scenario.MemoryBuffer(6)
        xs = np.random.default_rng(0).standard_normal((12, 3))
        buf.update(xs, np.repeat([0, 1], 6), rng)
        return buf.items()

    xa, ya = run()
    xb, yb = run()
    np.testing.assert_array_equal(xa, xb)
    np.testing.assert_array_equal(ya, yb)


def test_memory_confidence_policies():
    rng = np.random.default_rng(2)
    xs = np.arange(10, dtype=np.float64)[:, None]
    ys = np.zeros(10, dtype=np.int64)
    conf = np.arange(10, dtype=np.float64)  # confidence equals the sample value

    low = scenario.MemoryBuffer(3, policy="low_confidence")
    low.update(xs, ys, rng, confidence=conf)
    np.testing.assert_array_equal(np.sort(low.items()[0].ravel()), [0, 1, 2])

    high = scenario.MemoryBuffer(3, policy="high_confidence")
    high.update(xs, ys, rng, confidence=conf)
    np.testing.assert_array_equal(np.sort(high.items()[0].ravel()), [7, 8, 9])

    rainbow = scenario.MemoryBuffer(3, policy="rainbow")
    rainbow.update(xs, ys, rng, confidence=conf)
    # even sweep across the sorted range: ends plus middle
    np.testing.assert_array_equal(np.sort(rainbow.items()[0].ravel()), [0, 4, 9])


def test_memory_confidence_required():
    buf = scenario.MemoryBuffer(4, policy="low_confidence")
    with pytest.raises(ValueError):
        buf.update(np.zeros((2, 2)), np.zeros(2, dtype=int),
                   np.random.default_rng(0))


def test_memory_preserves_stored_confidence_across_updates():
    rng = np.random.default_rng(3)
    buf = scenario.MemoryBuffer(2, policy="high_confidence")
    buf.update(np.array([[1.0], [2.0]]), np.array([0, 0]), rng,
               confidence=np.array([0.9, 0.1]))
    buf.update(np.array([[3.0]]), np.array([0]), rng,
               confidence=np.array([0.5]))
    xs, _ = buf.items()
    np.testing.assert_array_equal(np.sort(xs.ravel()), [1.0, 3.0])


@pytest.mark.parametrize("capacity,tasks,counts", [
    (0, [[0, 1]], {0: 0, 1: 0}),
    (0, [[0, 1], [2, 3]], {0: 0, 1: 0, 2: 0, 3: 0}),
    (3, [[0, 1, 2, 3]], {0: 1, 1: 1, 2: 1, 3: 0}),
    (3, [[0, 1], [2, 3]], {0: 1, 1: 1, 2: 1, 3: 0}),
], ids=["cap0", "cap0_two_tasks", "cap3_four_classes", "cap3_two_tasks"])
@pytest.mark.parametrize("policy", scenario.MEMORY_POLICIES)
def test_class_counts_list_every_class_whose_quota_fell_to_zero(
        capacity, tasks, counts, policy):
    """class_counts() is metrics.json's memory_counts: a class with a quota
    of 0 still appears, with count 0."""
    rng = np.random.default_rng(6)
    buf = scenario.MemoryBuffer(capacity, policy=policy)
    for classes in tasks:
        ys = np.repeat(classes, 3)
        buf.update(rng.standard_normal((len(ys), 2)), ys, rng,
                   confidence=rng.random(len(ys)))
    assert buf.class_counts() == counts
    assert len(buf) == sum(counts.values())
    xs, ys = buf.items()
    assert xs.shape == (len(buf), 2)
    np.testing.assert_array_equal(ys, np.repeat(list(counts), list(counts.values())))


@pytest.mark.parametrize("policy", scenario.MEMORY_POLICIES)
def test_memory_update_with_no_rows(policy):
    rng = np.random.default_rng(8)
    buf = scenario.MemoryBuffer(4, policy=policy)
    none_x, none_y, none_c = np.zeros((0, 3)), np.zeros(0, dtype=np.int64), \
        np.zeros(0)
    buf.update(none_x, none_y, rng, confidence=none_c)
    assert len(buf) == 0 and buf.class_counts() == {}
    buf.update(rng.standard_normal((6, 3)), np.repeat([0, 1], 3), rng,
               confidence=rng.random(6))
    before = [a.copy() for a in buf.items()]
    buf.update(none_x, none_y, rng, confidence=none_c)
    assert buf.class_counts() == {0: 2, 1: 2}
    for got, want in zip(buf.items(), before):
        np.testing.assert_array_equal(got, want)


def test_memory_items_are_read_only_and_class_sorted():
    rng = np.random.default_rng(9)
    buf = scenario.MemoryBuffer(6)
    buf.update(rng.standard_normal((8, 2)).astype(np.float32),
               np.array([3, 1, 3, 1, 0, 0, 3, 1]), rng)
    xs, ys = buf.items()
    np.testing.assert_array_equal(ys, [0, 0, 1, 1, 3, 3])
    assert xs.dtype == np.float32 and ys.dtype == np.int64
    for array in (xs, ys):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


# ---------------------------------------------------------------------------
# Batch iteration
# ---------------------------------------------------------------------------


def test_epoch_batches_partition():
    batches = scenario.epoch_batches(10, 3, np.random.default_rng(0))
    assert [len(b) for b in batches] == [3, 3, 3, 1]
    flat = np.sort(np.concatenate(batches))
    np.testing.assert_array_equal(flat, np.arange(10))


def test_sample_batch_without_replacement():
    batch = scenario.sample_batch(20, 8, np.random.default_rng(1))
    assert len(batch) == 8
    assert len(np.unique(batch)) == 8
    small = scenario.sample_batch(5, 8, np.random.default_rng(2))
    assert len(small) == 5
