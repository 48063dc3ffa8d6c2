"""Config tests: every section is read from the dataclass it builds, the
echo is pinned, and every error names its key path."""

import json
import os
import re
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from osscl import cli, config
from osscl import scenario as sc
from osscl.losses import LossWeights
from osscl.trainer import MethodConfig, NetArch
from test_cli import TINY

SECTIONS = {"augmenter": sc.Augmenter, "arch": NetArch,
            "method": MethodConfig, "method.weights": LossWeights,
            "scenario": sc.ScenarioConfig, **config.DATASET_KINDS}

# the main dataset spec each dataset kind's section is read from
MAINS = {"synthetic": TINY["datasets"]["main"],
         "cifar": {"kind": "cifar", "train_path": "train.bin",
                   "test_path": "test.bin"},
         "file": {"kind": "file", "path": "main.npz"}}

# one valid value per key that differs from the one TINY gives; each is
# set alone
NON_DEFAULT = {
    "augmenter": {"mode": "image", "sigma": 0.25, "dropout": 0.3,
                  "crop_scale": [0.5, 0.75], "flip_p": 0.25, "jitter_p": 0.5,
                  "jitter_strengths": [0.1, 0.2, 0.3, 0.05], "gray_p": 0.1},
    "arch": {"hidden": [7, 5, 3], "proj_hidden": 9, "embed_dim": 6},
    "method": {"method": "co2l", "seg_variant": "v2", "use_sup": False,
               "use_td": False, "use_kd": False, "pretrain_reference": True,
               "pseudo_anchor": True, "pseudo_positive": False,
               "eta_id": -3.0, "eta_pl": -1.5, "spread_mode": "stddev",
               "n_aug": 3, "memory_size": 20, "memory_policy": "rainbow",
               "epochs_first": 7, "epochs_later": 6, "epochs_learner": 5,
               "batch_size": 16, "lr": 0.05, "min_lr": 0.001,
               "classifier_epochs": 9, "classifier_lr": 0.01,
               "classifier_batch": 64},
    "method.weights": {"tau": 0.5, "tau_teacher": 0.02, "tau_student": 0.3,
                       "td_weight": 0.7, "kd_weight": 0.9},
    "scenario": {"n_tasks": 1, "classes_per_task": 1, "labeled_fraction": 0.5,
                 "n_related": 30, "n_unrelated": 0, "variant": "non_iid",
                 "non_iid_fraction": 0.25},
    "synthetic": {"classes": 5, "dim": 6, "train_per_class": 30,
                  "test_per_class": 5, "seed": 8, "mean_radius": 2.5,
                  "noise_sigma": 0.5, "name": "blobs"},
    "cifar": {"train_path": "other.bin", "test_path": "other_test.bin",
              "name": "c10"},
    "file": {"path": "other.npz"},
}

TINY_RESOLVED = {
    "name": "tiny",
    "datasets": {
        "main": {"kind": "synthetic", "classes": 4, "dim": 8,
                 "train_per_class": 40, "test_per_class": 20, "seed": 7,
                 "mean_radius": 4.0, "noise_sigma": 1.0, "name": ""},
        "peripheral": [{"kind": "synthetic", "classes": 4, "dim": 8,
                        "train_per_class": 80, "test_per_class": 0,
                        "seed": 70, "mean_radius": 4.0, "noise_sigma": 1.0,
                        "name": ""}],
    },
    "scenario": {"n_tasks": 2, "classes_per_task": 2,
                 "labeled_fraction": 0.1, "n_related": 60, "n_unrelated": 60,
                 "variant": "standard", "non_iid_fraction": 0.5},
    "augmenter": {"mode": "vector", "sigma": 0.5, "dropout": 0.1,
                  "crop_scale": [0.2, 1.0], "flip_p": 0.5, "jitter_p": 0.8,
                  "jitter_strengths": [0.4, 0.4, 0.4, 0.1], "gray_p": 0.2},
    "arch": {"hidden": [64, 64], "proj_hidden": 32, "embed_dim": 16},
    "method": {"method": "ursl", "seg_variant": "v4", "use_sup": True,
               "use_td": True, "use_kd": True, "pretrain_reference": False,
               "pseudo_anchor": False, "pseudo_positive": True,
               "weights": {"tau": 0.1, "tau_teacher": 0.01,
                           "tau_student": 0.2, "td_weight": 0.2,
                           "kd_weight": 0.2},
               "eta_id": -4.0, "eta_pl": -2.0, "spread_mode": "variance",
               "n_aug": 2, "memory_size": 12, "memory_policy": "random",
               "epochs_first": 4, "epochs_later": 2, "epochs_learner": 3,
               "batch_size": 32, "lr": 0.01, "min_lr": 0.0001,
               "classifier_epochs": 20, "classifier_lr": 0.001,
               "classifier_batch": 128},
    "seeds": [1, 2, 3],
    "output_dir": "",
}


def tiny_at(section):
    """A copy of TINY and its node for section (dotted for nested); a
    dataset kind's node is the main dataset, MAINS[section]."""
    spec = json.loads(json.dumps(TINY))
    if section in MAINS:
        spec["datasets"]["main"] = node = dict(MAINS[section])
        return spec, node
    node = spec
    for part in section.split("."):
        node = node.setdefault(part, {})
    return spec, node


def tiny_with(section, key, value):
    """TINY with section .key set to value."""
    spec, node = tiny_at(section)
    node[key] = value
    return spec


def section_of(exp, section):
    if section in MAINS:
        return exp.main_dataset
    obj = exp
    for part in section.split("."):
        obj = getattr(obj, part)
    return obj


def echo_section(echo, section):
    if section in MAINS:
        return echo["datasets"]["main"]
    for part in section.split("."):
        echo = echo[part]
    return echo


def test_non_default_table_names_every_field():
    for section, cls in SECTIONS.items():
        names = {f.name for f in fields(cls)}
        if section == "method":
            names.remove("weights")  # its own section, method.weights
        if section == "scenario":
            names.remove("seed")  # each run's, not a key
        assert set(NON_DEFAULT[section]) == names, section


@pytest.mark.parametrize("section,key,value", [
    (section, key, value) for section, values in NON_DEFAULT.items()
    for key, value in values.items()])
def test_every_field_is_read_and_echoed(section, key, value):
    expected = tuple(value) if isinstance(value, list) else value
    base = section_of(config.from_dict(tiny_at(section)[0]), section)
    assert getattr(base, key) != expected
    exp = config.from_dict(tiny_with(section, key, value))
    built = getattr(section_of(exp, section), key)
    assert built == expected and type(built) is type(expected)
    echo = exp.resolved()
    assert echo_section(echo, section)[key] == value
    assert config.from_dict(echo) == exp
    assert config.from_dict(echo).resolved() == echo


def test_int_is_accepted_for_a_float():
    exp = config.from_dict(tiny_with("method", "lr", 1))
    assert exp.method.lr == 1.0 and isinstance(exp.method.lr, float)
    assert json.dumps(exp.resolved()["method"]["lr"]) == "1.0"


def test_tiny_resolved_is_pinned():
    echo = config.from_dict(json.loads(json.dumps(TINY))).resolved()
    assert json.dumps(echo, sort_keys=True) == \
        json.dumps(TINY_RESOLVED, sort_keys=True)


@pytest.mark.parametrize("section,key,value,message", [
    ("method.weights", "tau", "hot",
     "config.method.weights.tau: expected a number"),
    ("method", "use_sup", 1, "config.method.use_sup: expected true or false"),
    ("method", "n_aug", 2.0, "config.method.n_aug: expected an integer"),
    ("method", "n_aug", True, "config.method.n_aug: expected an integer"),
    ("method", "lr", False, "config.method.lr: expected a number"),
    ("method", "method", 3, "config.method.method: expected a string"),
    ("arch", "hidden", 64, "config.arch.hidden: expected a list"),
    ("arch", "hidden", [64, 1.5],
     r"config.arch.hidden\[1\]: expected an integer"),
    ("augmenter", "crop_scale", [0.2],
     "config.augmenter.crop_scale: expected exactly 2 values"),
    ("augmenter", "crop_scale", [0.2, "x"],
     r"config.augmenter.crop_scale\[1\]: expected a number"),
    ("method.weights", "mystery", 1,
     "config.method.weights.mystery: unknown key"),
    ("method", "weights", [], "config.method.weights: expected an object"),
    ("method.weights", "tau", -1,
     "config.method.weights: tau must be positive"),
    ("method", "n_aug", 0, "config.method: n_aug must be >= 1"),
    ("method", "memory_size", 1, "config.method.memory_size: must be >= 2"),
    ("scenario", "n_tasks", 2.0, "config.scenario.n_tasks: expected an "
     "integer"),
    ("scenario", "seed", 3, "config.scenario.seed: unknown key"),
    ("scenario", "n_related", -1,
     "config.scenario: pool sizes must be non-negative"),
    ("synthetic", "classes", 0, "config.datasets.main: classes must be >= 1"),
    ("synthetic", "seed", -1, "config.datasets.main: seed must be >= 0"),
    ("synthetic", "mystery", 1, "config.datasets.main.mystery: unknown key"),
    ("cifar", "train_path", 3,
     "config.datasets.main.train_path: expected a string"),
    ("file", "kind", "npz",
     "config.datasets.main.kind: expected one of synthetic, cifar, file"),
    ("file", "kind", 1, "config.datasets.main.kind: expected a string"),
])
def test_errors_name_the_key_path(section, key, value, message):
    with pytest.raises(config.ConfigError, match=f"^{message}"):
        config.from_dict(tiny_with(section, key, value))


@pytest.mark.parametrize("cls,kwargs,section,message", [
    (NetArch, {"hidden": ()}, "arch", "hidden must be a non-empty list"),
    (NetArch, {"hidden": (8, 0)}, "arch", "hidden must be a non-empty list"),
    (NetArch, {"proj_hidden": 0}, "arch", "proj_hidden must be >= 1"),
    (NetArch, {"embed_dim": 0}, "arch", "embed_dim must be >= 1"),
])
def test_range_checks_live_in_the_dataclass(tmp_path, capsys, cls, kwargs,
                                             section, message):
    with pytest.raises(ValueError, match=message):
        cls(**kwargs)
    spec = json.loads(json.dumps(TINY))
    spec.setdefault(section, {}).update(
        {k: list(v) if isinstance(v, tuple) else v for k, v in kwargs.items()})
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(spec))
    out = tmp_path / "never"
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert f"config.{section}: {message}" in capsys.readouterr().err
    assert not out.exists()


def _image_spec(main_dim, peripheral_dim):
    spec = json.loads(json.dumps(TINY))
    spec["datasets"]["main"]["dim"] = main_dim
    spec["datasets"]["peripheral"][0]["dim"] = peripheral_dim
    spec["augmenter"] = {"mode": "image"}
    return spec


@pytest.mark.parametrize("main_dim,peripheral_dim,where", [
    (8, 12, "datasets.main has 8"),
    (12, 8, r"datasets.peripheral\[0\] has 8"),
])
def test_image_row_width_is_checked_with_the_datasets(main_dim,
                                                      peripheral_dim, where):
    """Rows of 12 values are 3 x 2 x 2 images; rows of 8 are no image."""
    exp = config.from_dict(_image_spec(main_dim, peripheral_dim))
    key, width = where.split(" has ")
    with pytest.raises(config.ConfigError, match=rf"^config.{key}: rows of "
                       rf"{width} values are not 3 x hw x hw images$"):
        exp.build_datasets()


def test_image_rows_of_the_right_width_build():
    for hw in (1, 2, 3):
        exp = config.from_dict(_image_spec(3 * hw * hw, 3 * hw * hw))
        main, peripherals = exp.build_datasets()
        assert main.dim == peripherals[0].dim == 3 * hw * hw
    assert config.from_dict(TINY).build_datasets()[0].dim == 8  # vector mode


def test_image_hw_is_an_unknown_key():
    """The rows give the image side; a config that still states it fails
    at load."""
    with pytest.raises(config.ConfigError,
                       match=r"^config.augmenter.image_hw: unknown key$"):
        config.from_dict(tiny_with("augmenter", "image_hw", 32))


@pytest.mark.parametrize("section,key,text,where", [
    ("method.weights", "tau", "NaN", "method.weights.tau"),
    ("method.weights", "td_weight", "Infinity", "method.weights.td_weight"),
    ("method", "eta_id", "-Infinity", "method.eta_id"),
    ("augmenter", "sigma", "NaN", "augmenter.sigma"),
    ("augmenter", "crop_scale", "[0.2, Infinity]", "augmenter.crop_scale[1]"),
    ("scenario", "non_iid_fraction", "NaN", "scenario.non_iid_fraction"),
    ("method", "lr", "1" + "0" * 400, "method.lr"),
], ids=["nan", "infinity", "minus_infinity", "nan_augmenter", "list_item",
        "nan_scenario", "int_past_float_range"])
def test_non_finite_numbers_are_rejected(tmp_path, capsys, section, key, text,
                                         where):
    """json.load reads NaN, Infinity and -Infinity, and ints past float
    range; the config rejects each before anything is written."""
    spec = json.dumps(tiny_with(section, key, "VALUE"))
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(spec.replace('"VALUE"', text))
    message = f"config.{where}: expected a finite number"
    with pytest.raises(config.ConfigError) as caught:
        config.load_experiment(str(cfg_path))
    assert str(caught.value) == message
    out = tmp_path / "never"
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# each config dataclass with the fields it needs to build
_SECTIONS = (
    (config.SyntheticData, dict(classes=2, dim=2, train_per_class=1,
                                test_per_class=0, seed=0)),
    (sc.ScenarioConfig, dict(n_tasks=1, classes_per_task=1,
                             labeled_fraction=0.5, n_related=0,
                             n_unrelated=0, seed=0)),
    (sc.Augmenter, {}),
    (MethodConfig, {}),
    (LossWeights, {}),
)
_FLOAT_FIELDS = [(cls, given, f.name) for cls, given in _SECTIONS
                 for f in fields(cls) if f.type == "float"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "minus_inf"])
@pytest.mark.parametrize(
    "cls,given,key", _FLOAT_FIELDS,
    ids=[f"{cls.__name__}.{key}" for cls, _, key in _FLOAT_FIELDS])
def test_direct_construction_rejects_non_finite_floats(cls, given, key, value):
    """The config reader rejects NaN and the infinities before a section is
    built; a dataclass built directly rejects them in every float field."""
    cls(**given)
    with pytest.raises(ValueError, match=key):
        cls(**{**given, key: value})


@pytest.mark.parametrize("kwargs", [
    {"min_lr": 0.5}, {"lr": -1.0}, {"min_lr": -1e-4},
    {"min_lr": float("nan")}, {"lr": float("nan")},
], ids=["above_lr", "negative_lr", "negative", "nan", "nan_lr"])
def test_min_lr_must_lie_between_zero_and_lr(kwargs):
    with pytest.raises(ValueError, match=r"^min_lr must be in \[0, lr\]$"):
        MethodConfig(**kwargs)


@pytest.mark.parametrize("key,value", [("min_lr", 0.5), ("lr", -1.0)])
def test_min_lr_outside_zero_to_lr_exits_2_before_any_output(tmp_path, capsys,
                                                              key, value):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(tiny_with("method", key, value)))
    out = tmp_path / "never"
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert "config.method: min_lr must be in [0, lr]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kwargs,message", [
    ({"lr": 0.0, "min_lr": 0.0}, "lr must be > 0"),
    ({"classifier_lr": 0.0}, "classifier_lr must be > 0"),
    ({"classifier_lr": -1e-3}, "classifier_lr must be > 0"),
    ({"classifier_lr": float("nan")}, "classifier_lr must be > 0"),
], ids=["zero_lr", "zero_classifier_lr", "negative_classifier_lr",
        "nan_classifier_lr"])
def test_learning_rates_must_be_positive(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        MethodConfig(**kwargs)


@pytest.mark.parametrize("overrides,message", [
    ({"lr": 0, "min_lr": 0}, "config.method: lr must be > 0"),
    ({"classifier_lr": -1e-3}, "config.method: classifier_lr must be > 0"),
], ids=["zero_lr", "negative_classifier_lr"])
def test_non_positive_learning_rate_exits_2_before_any_output(
        tmp_path, capsys, overrides, message):
    spec = json.loads(json.dumps(TINY))
    spec["method"].update(overrides)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(spec))
    out = tmp_path / "never"
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_kd_without_a_live_reference_exits_2_before_any_output(tmp_path,
                                                               capsys):
    """Only ursl distills from a live reference; an explicit use_kd true
    elsewhere is an error, not silently dropped."""
    spec = json.loads(json.dumps(TINY))
    spec["method"].update(method="co2l_j", use_kd=True)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(spec))
    out = tmp_path / "never"
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert ("config.method: use_kd applies to ursl only"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("main,message", [
    ({**TINY["datasets"]["main"], "test_per_class": 0},
     "config.datasets.main.test_per_class: must be >= 1 for the main dataset"),
    ({"kind": "cifar", "train_path": "train.bin", "name": "c"},
     "config.datasets.main.test_path: missing required key for the main "
     "dataset"),
], ids=["synthetic", "cifar"])
def test_main_dataset_without_a_test_split_exits_2_before_any_output(
        tmp_path, capsys, main, message):
    """A run evaluates on the main dataset's test split; peripherals need
    none."""
    spec = json.loads(json.dumps(TINY))
    spec["datasets"]["main"] = main
    with pytest.raises(config.ConfigError) as caught:
        config.from_dict(spec)
    assert str(caught.value) == message
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(spec))
    out = tmp_path / "never"
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_memory_may_hold_just_the_classes_before_the_last_task():
    exp = config.from_dict(tiny_with("method", "memory_size", 2))
    assert exp.method.memory_size == 2


def test_peripherals_need_no_test_split():
    spec = json.loads(json.dumps(TINY))
    spec["datasets"]["peripheral"].append(
        {"kind": "cifar", "train_path": "peripheral.bin"})
    exp = config.from_dict(spec)
    assert exp.peripheral_datasets[0].test_per_class == 0
    assert exp.peripheral_datasets[1].test_path == ""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_file_main_without_test_rows_exits_2_before_training(tmp_path, capsys,
                                                             threads):
    export = tmp_path / "main.npz"
    sc.save_dataset(sc.synth_dataset(4, 8, 40, 0, seed=7), export)
    spec = json.loads(json.dumps(TINY))
    spec["datasets"]["main"] = {"kind": "file", "path": str(export)}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(spec))
    out = tmp_path / "o"
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                   "--threads", threads])
    assert rc == 2
    assert ("config.datasets.main: synth4x8s7 has no test samples"
            in capsys.readouterr().err)
    assert not list(out.glob("seed_*"))
    assert not (out / "aggregate.json").exists()


def test_file_main_with_a_class_without_test_rows_exits_2_before_any_output(
        tmp_path, capsys):
    """Task 2's classes (0 and 3) have no test rows: its accuracy would be
    no measurement at all, so the run stops before it writes anything."""
    data = sc.synth_dataset(4, 8, 40, 20, seed=7)
    keep = np.isin(data.test_y, [1, 2])
    export = tmp_path / "main.npz"
    sc.save_dataset(replace(
        data, test_x=data.test_x[keep], test_y=data.test_y[keep],
        test_ids=data.test_ids[keep]), export)
    spec = json.loads(json.dumps(TINY))
    spec["datasets"]["main"] = {"kind": "file", "path": str(export)}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(spec))
    out = tmp_path / "o"
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                   "--seeds", "1"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: config.datasets.main: synth4x8s7 has no test samples "
        "of classes [0, 3]\n")
    assert not out.exists()


@pytest.mark.parametrize("section,key", [
    ("scenario", "labeled_fraction"), ("synthetic", "dim"),
    ("synthetic", "kind"), ("cifar", "train_path"), ("file", "path")])
def test_a_field_without_a_default_is_a_required_key(section, key):
    spec, node = tiny_at(section)
    del node[key]
    path = "datasets.main" if section in MAINS else section
    with pytest.raises(config.ConfigError,
                       match=rf"^config\.{path}\.{key}: missing required key$"):
        config.from_dict(spec)


def test_scenario_seed_is_each_runs():
    exp = config.from_dict(json.loads(json.dumps(TINY)))
    assert exp.scenario.seed == 0
    assert exp.scenario_config(5) == sc.ScenarioConfig(
        n_tasks=2, classes_per_task=2, labeled_fraction=0.1, n_related=60,
        n_unrelated=60, seed=5)


@pytest.mark.parametrize("workload", ["desk_vector", "image_cifar"])
def test_workload_configs_load_echo_and_reload(tmp_path, workload):
    """The tiny configs of the benchmark's declared workloads
    (perfbench/workloads.py) are valid, and their echo reloads to an equal
    experiment whose datasets build."""
    perfbench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench")
    sys.path.insert(0, perfbench)
    try:
        from workloads import build_config
    finally:
        sys.path.remove(perfbench)
    path, seeds = build_config(workload, 0, str(tmp_path), tiny=True)
    exp = config.load_experiment(path)
    assert list(exp.seeds) == seeds
    echo = json.loads(json.dumps(exp.resolved()))
    assert config.from_dict(echo) == exp
    assert config.from_dict(echo).resolved() == echo
    main, peripherals = exp.build_datasets()
    assert len(peripherals) == 1 and main.dim == peripherals[0].dim


def test_peripheral_rows_must_match_the_mains_in_vector_mode(tmp_path, capsys):
    """A peripheral's rows join the main's in every unlabeled pool."""
    spec = json.loads(json.dumps(TINY))
    spec["datasets"]["peripheral"][0]["dim"] = 12
    message = ("config.datasets.peripheral[0]: synth4x12s70 has rows of 12 "
               "values, datasets.main has 8")
    with pytest.raises(config.ConfigError) as caught:
        config.from_dict(spec).build_datasets()
    assert str(caught.value) == message
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(spec))
    out = tmp_path / "never"
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("split,shape,message", [
    ("test_x", (80, 5), r"test_x has shape \(80, 5\), not \[n, 8\]"),
    ("test_y", (77,), "test arrays must align"),
], ids=["narrow_rows", "short_labels"])
def test_file_main_with_a_misshapen_test_split_exits_2_before_any_output(
        tmp_path, capsys, split, shape, message):
    data = sc.synth_dataset(4, 8, 40, 20, seed=7)
    arrays = {k: getattr(data, k) for k in
              ("train_x", "train_y", "train_ids", "test_x", "test_y",
               "test_ids")}
    arrays[split] = arrays[split].ravel()[:int(np.prod(shape))].reshape(shape)
    export = tmp_path / "main.npz"
    np.savez(export, name=np.array(data.name), **arrays)
    spec = json.loads(json.dumps(TINY))
    spec["datasets"]["main"] = {"kind": "file", "path": str(export)}
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(spec))
    out = tmp_path / "never"
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: config.datasets.main: " in err
    assert re.search(message, err)
    assert not out.exists()
