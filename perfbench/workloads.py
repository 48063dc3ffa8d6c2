"""Workload inputs: one experiment config per workload, built from its seed.

Every workload is an ordinary osscl experiment file, so the program sees only
generated inputs. Why each workload exists is recorded in BENCHMARK.json.

  desk_vector  the frozen acceptance config (8x16-d blobs, 4 tasks x 2
               classes, 5% labeled, 900+900 pool, batch 128, epochs
               100/25/50), one run seed = the workload seed.
  image_cifar  ursl/v4 in image mode on CIFAR-format files generated from
               the workload seed: one colour and stripe pattern per class,
               checkerboards as the unrelated pool; three run seeds.
  sweep_cli    `osscl run --threads <nproc>` over four seeds of a short ursl
               vector run, BLAS threads left at their default. Not declared in
               BENCHMARK.json: on a 2-core box its wall time spreads 16-25%
               (IQR/median over ten seeds) because every worker's BLAS threads
               compete for the same cores, beyond the largest bound allowed.
               Run it by hand to see that oversubscription; at the parent
               commit, workload seed 0: serial 3.8 s, --threads 2 4.9 s
               (4.8-11.5 s), --threads 2 with OPENBLAS_NUM_THREADS=1 2.7 s.

`tiny=True` shrinks every size to what a smoke test can afford; the shapes of
the configs stay the same.
"""

from __future__ import annotations

import colorsys
import hashlib
import json
import math
import os

import numpy as np

WORKLOADS = ("desk_vector", "image_cifar", "sweep_cli")
# measured rounds per --trace 0 run, sized to fill under a minute on a 2-core
# box: two desk runs of one seed, two image runs of each of its three seeds,
# five sweeps
ROUNDS = {"desk_vector": 2, "image_cifar": 6, "sweep_cli": 5}
_HW = 32


def _derived_seeds(seed, count):
    """`count` run seeds owned by one workload seed, disjoint across seeds."""
    return [4 * seed + k for k in range(1, count + 1)]


def _vector_config(name, seeds, tiny, short):
    if tiny:
        train, test, pool = 40, 10, 40
        method = {"epochs_first": 2, "epochs_later": 1, "epochs_learner": 2,
                  "batch_size": 32, "classifier_epochs": 5}
    elif short:
        train, test, pool = 500, 100, 300
        method = {"epochs_first": 4, "epochs_later": 1, "epochs_learner": 2}
    else:
        train, test, pool = 500, 100, 900
        method = {}
    return {
        "name": name,
        "datasets": {
            "main": {"kind": "synthetic", "classes": 8, "dim": 16,
                     "train_per_class": train, "test_per_class": test,
                     "seed": 11},
            "peripheral": [{"kind": "synthetic", "classes": 8, "dim": 16,
                            "train_per_class": 2 * train,
                            "test_per_class": 0, "seed": 900}],
        },
        "scenario": {"n_tasks": 4, "classes_per_task": 2,
                     "labeled_fraction": 0.05, "n_related": pool,
                     "n_unrelated": pool},
        "augmenter": {"sigma": 1.75, "dropout": 0.05},
        "method": dict(method, method="ursl", seg_variant="v4"),
        "seeds": list(seeds),
    }


def _palette(n):
    return np.array([colorsys.hsv_to_rgb(c / n, 0.9, 0.9) for c in range(n)])


def _to_bytes(img, rng):
    img = img + rng.normal(0.0, 0.08, img.shape)
    return np.round(np.clip(img, 0.0, 1.0) * 255).astype(np.uint8).reshape(len(img), -1)


def _stripes(rng, labels):
    """Class c: hue c / 10 and 2 + c % 5 stripes, horizontal for c < 5 and
    vertical above; the stripe phase varies per image."""
    y, x = np.mgrid[0:_HW, 0:_HW] / _HW
    coord = np.where((labels >= 5)[:, None, None], x, y)
    freq = (2 + labels % 5)[:, None, None]
    phase = rng.uniform(0.0, 2 * math.pi, len(labels))[:, None, None]
    wave = 0.5 + 0.5 * np.sin(2 * math.pi * freq * coord + phase)
    img = _palette(10)[labels][:, :, None, None] * (0.4 + 0.6 * wave[:, None])
    return _to_bytes(img, rng)


def _checkerboards(rng, n):
    """Unrelated images: two random colours in squares of 2..8 pixels."""
    y, x = np.mgrid[0:_HW, 0:_HW]
    cell = rng.integers(2, 9, n)[:, None, None]
    board = ((x // cell + y // cell) % 2).astype(bool)
    c1 = rng.uniform(0.0, 1.0, (n, 3))[:, :, None, None]
    c2 = rng.uniform(0.0, 1.0, (n, 3))[:, :, None, None]
    return _to_bytes(np.where(board[:, None], c1, c2), rng)


def write_cifar_inputs(seed, workdir, train_per_class, test_per_class,
                       peripheral_per_class):
    """Main train/test and peripheral files, all drawn from one generator."""
    from osscl.scenario import write_cifar_binary

    rng = np.random.default_rng([seed, 0xC1FA])
    paths = {}
    for split, per_class in (("train", train_per_class), ("test", test_per_class)):
        labels = np.repeat(np.arange(10), per_class)
        paths[split] = os.path.join(workdir, f"stripes_{split}.bin")
        write_cifar_binary(paths[split], labels, _stripes(rng, labels))
    labels = np.repeat(np.arange(10), peripheral_per_class)
    paths["peripheral"] = os.path.join(workdir, "checkers_train.bin")
    write_cifar_binary(paths["peripheral"], labels,
                       _checkerboards(rng, len(labels)))
    return paths


def _image_config(seed, workdir, tiny):
    if tiny:
        train, test, pool = 12, 4, 8
        method = {"epochs_first": 1, "epochs_later": 1, "epochs_learner": 1,
                  "batch_size": 16, "classifier_epochs": 2}
    else:
        train, test, pool = 200, 50, 200
        method = {"epochs_first": 5, "epochs_later": 2, "epochs_learner": 5,
                  "batch_size": 64}
    paths = write_cifar_inputs(seed, workdir, train, test, pool)
    return {
        "name": "image_cifar",
        "datasets": {
            "main": {"kind": "cifar", "train_path": paths["train"],
                     "test_path": paths["test"], "name": "stripes"},
            "peripheral": [{"kind": "cifar", "train_path": paths["peripheral"],
                            "name": "checkers"}],
        },
        "scenario": {"n_tasks": 4, "classes_per_task": 2,
                     "labeled_fraction": 0.1, "n_related": pool,
                     "n_unrelated": pool},
        "augmenter": {"mode": "image"},
        "method": dict(method, method="ursl", seg_variant="v4"),
        "seeds": _derived_seeds(seed, 2 if tiny else 3),
    }


def build_config(workload, seed, workdir, tiny=False):
    """Write the workload's experiment file into workdir; return its path
    and the run seeds it holds."""
    if workload == "desk_vector":
        cfg = _vector_config(workload, [seed], tiny, short=False)
    elif workload == "image_cifar":
        cfg = _image_config(seed, workdir, tiny)
    elif workload == "sweep_cli":
        cfg = _vector_config(workload, _derived_seeds(seed, 2 if tiny else 4),
                             tiny, short=True)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    path = os.path.join(workdir, f"{workload}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
    return path, cfg["seeds"]


def seed_record(metrics):
    """Digest and headline numbers of one seed's metrics.json content.

    The digest is over the exact bytes `osscl run` writes for metrics.json,
    so in-process and CLI runs of one seed are comparable.
    """
    text = json.dumps(metrics, indent=2, sort_keys=True) + "\n"
    return {
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "finite": _all_finite(metrics),
        "final_accuracy": metrics["final_accuracy"],
        "final_auroc": metrics["task_metrics"][-1]["auroc"],
    }


def _all_finite(obj):
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    return True
