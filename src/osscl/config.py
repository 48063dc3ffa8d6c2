"""Experiment configuration: JSON schema, validation, and the resolved echo.

A config file describes datasets, the stream shape, augmentation, network
widths, the method, and the seed list. Validation happens before any
compute; every error names the offending key path and unknown keys are
rejected. `Experiment.resolved()` returns the fully-defaulted dictionary,
which is written next to results and loads back to an identical experiment
(the echo closure property).

Where each check lives:
  * augmenter, arch and method (with method.weights) are read from the
    dataclasses they build: scenario.Augmenter, trainer.NetArch,
    trainer.MethodConfig and losses.LossWeights. Every key is a field and
    defaults to the field's default. This module checks each value's type
    against that default; ranges and cross-field rules live in the
    dataclass's __post_init__, so direct construction gets them too, and
    their errors are reported under the section path.
  * datasets and scenario keep hand-written readers here for kind dispatch,
    required keys and minimums; scenario.ScenarioConfig checks the rest.
  * The image row width, 3 x image_hw x image_hw, is checked by
    Experiment.build_datasets, where the data is first known.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass

from . import scenario as sc
from .trainer import MethodConfig, NetArch


class ConfigError(ValueError):
    """Invalid experiment configuration; message starts with the key path."""


def _fail(path, message):
    raise ConfigError(f"{path}: {message}")


def _check_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            _fail(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            _fail(f"{path}.{key}", "missing required key")


def _get(obj, path, key, default, minimum=None):
    """obj[key] read as the type of default; default when the key is absent,
    unless default is a type, which makes the key required."""
    if key not in obj:
        if isinstance(default, type):
            _fail(f"{path}.{key}", "missing required key")
        return default
    example = default() if isinstance(default, type) else default
    value = _read_value(example, obj[key], f"{path}.{key}")
    if minimum is not None and value < minimum:
        _fail(f"{path}.{key}", f"must be >= {minimum}")
    return value


def _read_value(default, value, path):
    """value checked against the type of default and converted like it.

    bool is tested before int, and an int is accepted for a float; a float
    must be finite. A tuple reads a list whose items have the type of the
    default's first item; a tuple of floats also keeps the default's length.
    A dataclass reads a nested section.
    """
    if is_dataclass(default):
        return _read_section(type(default), value, path)
    if isinstance(default, bool):
        if not isinstance(value, bool):
            _fail(path, "expected true or false")
        return value
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(path, "expected an integer")
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(path, "expected a number")
        # json.load reads NaN and Infinity; an int may be past float range
        if not abs(value) <= sys.float_info.max:
            _fail(path, "expected a finite number")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            _fail(path, "expected a string")
        return value
    if not isinstance(default, tuple):
        raise TypeError(f"{path}: no reader for {type(default).__name__}")
    if not isinstance(value, list):
        _fail(path, "expected a list")
    if isinstance(default[0], float) and len(value) != len(default):
        _fail(path, f"expected exactly {len(default)} values")
    return tuple(_read_value(default[0], v, f"{path}[{i}]")
                 for i, v in enumerate(value))


def _read_section(cls, obj, path):
    """Build the dataclass cls from a JSON object whose keys are its fields.

    Every key is optional and defaults to the field's default; an unknown
    key is rejected. Range checks live in cls.__post_init__ and are reported
    under path.
    """
    _check_keys(obj, path, required=(), optional=[f.name for f in fields(cls)])
    defaults = cls()
    kwargs = {key: _read_value(getattr(defaults, key), value, f"{path}.{key}")
              for key, value in obj.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        _fail(path, str(exc))


def _echo(section):
    """A dataclass section as JSON data: its fields, tuples as lists."""
    return asdict(section, dict_factory=lambda items: {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in items})


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------


def _parse_dataset(obj, path):
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    kind = _get(obj, path, "kind", str)
    if kind == "synthetic":
        _check_keys(obj, path,
                    required=("kind", "classes", "dim", "train_per_class",
                              "test_per_class", "seed"),
                    optional=("mean_radius", "noise_sigma", "name"))
        return {
            "kind": "synthetic",
            "classes": _get(obj, path, "classes", int, minimum=1),
            "dim": _get(obj, path, "dim", int, minimum=1),
            "train_per_class": _get(obj, path, "train_per_class", int, minimum=1),
            "test_per_class": _get(obj, path, "test_per_class", int, minimum=0),
            "seed": _get(obj, path, "seed", int, minimum=0),
            "mean_radius": _get(obj, path, "mean_radius", 4.0),
            "noise_sigma": _get(obj, path, "noise_sigma", 1.0),
            "name": _get(obj, path, "name", ""),
        }
    if kind == "cifar":
        _check_keys(obj, path, required=("kind", "train_path"),
                    optional=("test_path", "name"))
        return {
            "kind": "cifar",
            "train_path": _get(obj, path, "train_path", str),
            "test_path": _get(obj, path, "test_path", ""),
            "name": _get(obj, path, "name", "cifar"),
        }
    if kind == "file":
        _check_keys(obj, path, required=("kind", "path"))
        return {"kind": "file", "path": _get(obj, path, "path", str)}
    _fail(f"{path}.kind", "expected one of synthetic, cifar, file")


def _parse_scenario(obj, path):
    _check_keys(obj, path,
                required=("n_tasks", "classes_per_task", "labeled_fraction",
                          "n_related", "n_unrelated"),
                optional=("variant", "non_iid_fraction"))
    kwargs = {
        "n_tasks": _get(obj, path, "n_tasks", int, minimum=1),
        "classes_per_task": _get(obj, path, "classes_per_task", int, minimum=1),
        "labeled_fraction": _get(obj, path, "labeled_fraction", float),
        "n_related": _get(obj, path, "n_related", int, minimum=0),
        "n_unrelated": _get(obj, path, "n_unrelated", int, minimum=0),
        "variant": _get(obj, path, "variant", "standard"),
        "non_iid_fraction": _get(obj, path, "non_iid_fraction", 0.5),
    }
    try:
        sc.ScenarioConfig(seed=0, **kwargs)
    except ValueError as exc:
        _fail(path, str(exc))
    return kwargs


def _parse_seeds(obj, path):
    seeds = obj.get("seeds")
    if (not isinstance(seeds, list) or not seeds or not all(
            isinstance(s, int) and not isinstance(s, bool) and s >= 0
            for s in seeds)):
        _fail(f"{path}.seeds", "expected a non-empty list of seeds >= 0")
    if len(set(seeds)) != len(seeds):
        _fail(f"{path}.seeds", "seeds must be unique")
    return tuple(seeds)


# ---------------------------------------------------------------------------
# Experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """A validated experiment: everything a `run` invocation needs."""

    name: str
    main_dataset: dict
    peripheral_datasets: tuple
    scenario_kwargs: dict
    augmenter: sc.Augmenter
    arch: NetArch
    method: MethodConfig
    seeds: tuple
    output_dir: str

    def resolved(self):
        """Fully-defaulted JSON-ready dictionary; loads back identically."""
        return {
            "name": self.name,
            "datasets": {
                "main": dict(self.main_dataset),
                "peripheral": [dict(p) for p in self.peripheral_datasets],
            },
            "scenario": dict(self.scenario_kwargs),
            "augmenter": _echo(self.augmenter),
            "arch": _echo(self.arch),
            "method": _echo(self.method),
            "seeds": list(self.seeds),
            "output_dir": self.output_dir,
        }

    def build_datasets(self):
        """Materialize (main, peripherals) from their specs.

        In image mode every row must hold a 3 x image_hw x image_hw image;
        the width is known only here, so a mismatch is a ConfigError before
        any training.
        """
        main = _build_dataset(self.main_dataset)
        peripherals = [_build_dataset(p) for p in self.peripheral_datasets]
        hw = self.augmenter.image_hw
        named = [("main", main)] + [(f"peripheral[{i}]", p)
                                    for i, p in enumerate(peripherals)]
        for where, data in named:
            if self.augmenter.mode == "image" and data.dim != 3 * hw * hw:
                _fail("config.augmenter.image_hw",
                      f"image mode needs rows of 3*{hw}*{hw} = {3 * hw * hw} "
                      f"values, datasets.{where} has {data.dim}")
        return main, peripherals

    def scenario_config(self, seed):
        return sc.ScenarioConfig(seed=int(seed), **self.scenario_kwargs)


def _build_dataset(spec):
    if spec["kind"] == "synthetic":
        return sc.synth_dataset(
            spec["classes"], spec["dim"], spec["train_per_class"],
            spec["test_per_class"], spec["seed"],
            mean_radius=spec["mean_radius"],
            noise_sigma=spec["noise_sigma"],
            name=spec["name"] or None)
    if spec["kind"] == "cifar":
        return sc.load_cifar_binary(spec["train_path"],
                                    spec["test_path"] or None,
                                    name=spec["name"])
    return sc.load_dataset(spec["path"])


def from_dict(data, path="config"):
    """Validate a parsed JSON object into an Experiment."""
    _check_keys(data, path, required=("datasets", "scenario", "seeds"),
                optional=("name", "augmenter", "arch", "method",
                          "output_dir"))
    ds = data["datasets"]
    _check_keys(ds, f"{path}.datasets", required=("main",),
                optional=("peripheral",))
    peripheral = ds.get("peripheral", [])
    if not isinstance(peripheral, list):
        _fail(f"{path}.datasets.peripheral", "expected a list")
    return Experiment(
        name=_get(data, path, "name", "experiment"),
        main_dataset=_parse_dataset(ds["main"], f"{path}.datasets.main"),
        peripheral_datasets=tuple(
            _parse_dataset(p, f"{path}.datasets.peripheral[{i}]")
            for i, p in enumerate(peripheral)),
        scenario_kwargs=_parse_scenario(data["scenario"], f"{path}.scenario"),
        augmenter=_read_section(sc.Augmenter, data.get("augmenter", {}),
                                f"{path}.augmenter"),
        arch=_read_section(NetArch, data.get("arch", {}), f"{path}.arch"),
        method=_read_section(MethodConfig, data.get("method", {}),
                             f"{path}.method"),
        seeds=_parse_seeds(data, path),
        output_dir=_get(data, path, "output_dir", ""),
    )


def load_experiment(path):
    """Read and validate a JSON experiment file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return from_dict(data)
