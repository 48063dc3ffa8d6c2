"""Config tests: the augmenter, arch and method sections are read from the
dataclasses they build, their echo is pinned, and every error names its key
path."""

import json
from dataclasses import fields

import pytest

from osscl import cli, config
from osscl import scenario as sc
from osscl.losses import LossWeights
from osscl.trainer import MethodConfig, NetArch
from test_cli import TINY

SECTIONS = {"augmenter": sc.Augmenter, "arch": NetArch,
            "method": MethodConfig, "method.weights": LossWeights}

# one valid non-default value per field; each is set alone
NON_DEFAULT = {
    "augmenter": {"mode": "image", "sigma": 0.25, "dropout": 0.3,
                  "crop_scale": [0.5, 0.75], "flip_p": 0.25, "jitter_p": 0.5,
                  "jitter_strengths": [0.1, 0.2, 0.3, 0.05], "gray_p": 0.1,
                  "image_hw": 8},
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
                  "jitter_strengths": [0.4, 0.4, 0.4, 0.1], "gray_p": 0.2,
                  "image_hw": 32},
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


def tiny_with(section, key, value):
    """TINY with section (dotted for nested) .key set to value."""
    spec = json.loads(json.dumps(TINY))
    node = spec
    for part in section.split("."):
        node = node.setdefault(part, {})
    node[key] = value
    return spec


def section_of(exp, section):
    obj = exp
    for part in section.split("."):
        obj = getattr(obj, part)
    return obj


def echo_section(echo, section):
    for part in section.split("."):
        echo = echo[part]
    return echo


def test_non_default_table_names_every_field():
    for section, cls in SECTIONS.items():
        names = {f.name for f in fields(cls)}
        if section == "method":
            names.remove("weights")  # its own section, method.weights
        assert set(NON_DEFAULT[section]) == names, section


@pytest.mark.parametrize("section,key,value", [
    (section, key, value) for section, values in NON_DEFAULT.items()
    for key, value in values.items()])
def test_every_field_is_read_and_echoed(section, key, value):
    expected = tuple(value) if isinstance(value, list) else value
    assert getattr(SECTIONS[section](), key) != expected
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
])
def test_errors_name_the_key_path(section, key, value, message):
    with pytest.raises(config.ConfigError, match=f"^{message}"):
        config.from_dict(tiny_with(section, key, value))


@pytest.mark.parametrize("cls,kwargs,section,message", [
    (NetArch, {"hidden": ()}, "arch", "hidden must be a non-empty list"),
    (NetArch, {"hidden": (8, 0)}, "arch", "hidden must be a non-empty list"),
    (NetArch, {"proj_hidden": 0}, "arch", "proj_hidden must be >= 1"),
    (NetArch, {"embed_dim": 0}, "arch", "embed_dim must be >= 1"),
    (sc.Augmenter, {"image_hw": 0}, "augmenter", "image_hw must be >= 1"),
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


def _image_spec(main_dim, peripheral_dim, hw=2):
    spec = json.loads(json.dumps(TINY))
    spec["datasets"]["main"]["dim"] = main_dim
    spec["datasets"]["peripheral"][0]["dim"] = peripheral_dim
    spec["augmenter"] = {"mode": "image", "image_hw": hw}
    return spec


@pytest.mark.parametrize("main_dim,peripheral_dim,where", [
    (8, 12, "datasets.main has 8"),
    (12, 8, r"datasets.peripheral\[0\] has 8"),
])
def test_image_row_width_is_checked_with_the_datasets(main_dim,
                                                      peripheral_dim, where):
    exp = config.from_dict(_image_spec(main_dim, peripheral_dim))
    with pytest.raises(config.ConfigError,
                       match=rf"^config.augmenter.image_hw: .*= 12 .*{where}"):
        exp.build_datasets()


def test_image_rows_of_the_right_width_build():
    main, peripherals = config.from_dict(_image_spec(12, 12)).build_datasets()
    assert main.dim == peripherals[0].dim == 12
    vector = config.from_dict(tiny_with("augmenter", "image_hw", 2))
    assert vector.build_datasets()[0].dim == 8


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
