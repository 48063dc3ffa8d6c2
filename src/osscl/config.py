"""Experiment configuration: JSON schema, validation, and the resolved echo.

A config file describes datasets, the stream shape, augmentation, network
widths, the method, and the seed list. Validation happens before any
compute; every error names the offending key path and unknown keys are
rejected. `Experiment.resolved()` returns the fully-defaulted dictionary,
which is written next to results and loads back to an identical experiment
(the echo closure property).

Every section is read by _read_section from the dataclass it builds: each
dataset (SyntheticData, CifarData or FileData, picked by its `kind`),
scenario (scenario.ScenarioConfig, whose seed each run supplies),
augmenter (scenario.Augmenter), arch (trainer.NetArch), method
(trainer.MethodConfig) and method.weights (losses.LossWeights). Every key
is a field; a field with a default is optional, one without is required.
This module checks each value's type; ranges and cross-field rules live in
the dataclass's __post_init__, so direct construction gets them too, and
their errors are reported under the section path. Two rules that no one
section knows stay here: the main dataset needs a test split (peripherals
need none), and method.memory_size must cover the classes seen before the
last task. What needs the data (that the files exist and load, that every
row is as wide as the main's and, in image mode, 3 x hw x hw for some
hw >= 1, which gives the image side, and that each seed's stream can be
drawn and trained on) is checked by Experiment.build_datasets and the CLI
before anything is written.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace

import numpy as np

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


# the annotations a field without a usable default is read as
_ANNOTATED = {"bool": False, "int": 0, "float": 0.0, "str": ""}


def _example(field):
    """What the key of field is read like: its default, or a value of its
    annotated type when it has none or defaults to None ("not given")."""
    if field.default_factory is not MISSING:
        return field.default_factory()
    if field.default in (MISSING, None):
        return _ANNOTATED[field.type.split(" |")[0]]
    return field.default


def _read_section(cls, obj, path, **given):
    """Build the dataclass cls from a JSON object whose keys are its fields.

    A field with a default is an optional key, one without is required;
    the fields in `given` are supplied by the caller and are not keys. An
    unknown key is rejected. Range checks live in cls.__post_init__ and are
    reported under path.
    """
    keys = {f.name: f for f in fields(cls) if f.name not in given}
    _check_keys(obj, path, optional=keys, required=[
        k for k, f in keys.items() if f.default is f.default_factory is MISSING])
    kwargs = {key: _read_value(_example(keys[key]), value, f"{path}.{key}")
              for key, value in obj.items()}
    try:
        return cls(**given, **kwargs)
    except ValueError as exc:
        _fail(path, str(exc))


def _echo(section):
    """A dataclass section as JSON data: its fields, tuples as lists."""
    return asdict(section, dict_factory=lambda items: {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in items})


# ---------------------------------------------------------------------------
# Datasets: one dataclass per `kind`, each with the minimums of its keys
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticData:
    """Gaussian blobs made from a seed (scenario.synth_dataset)."""

    kind = "synthetic"
    classes: int
    dim: int
    train_per_class: int
    test_per_class: int
    seed: int
    mean_radius: float = 4.0
    noise_sigma: float = 1.0
    name: str = ""

    def __post_init__(self):
        for key, least in (("classes", 1), ("dim", 1), ("train_per_class", 1),
                           ("test_per_class", 0), ("seed", 0)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be >= {least}")
        if not np.isfinite([self.mean_radius, self.noise_sigma]).all():
            raise ValueError("mean_radius and noise_sigma must be finite")

    def build(self):
        return sc.synth_dataset(
            self.classes, self.dim, self.train_per_class, self.test_per_class,
            self.seed, mean_radius=self.mean_radius,
            noise_sigma=self.noise_sigma, name=self.name or None)


@dataclass(frozen=True)
class CifarData:
    """CIFAR binary batches (scenario.load_cifar_binary); without a
    test_path there is no test split."""

    kind = "cifar"
    train_path: str
    test_path: str = ""
    name: str = "cifar"

    def build(self):
        return sc.load_cifar_binary(self.train_path, self.test_path or None,
                                    name=self.name)


@dataclass(frozen=True)
class FileData:
    """A scenario.save_dataset export (scenario.load_dataset)."""

    kind = "file"
    path: str

    def build(self):
        return sc.load_dataset(self.path)


DATASET_KINDS = {cls.kind: cls for cls in (SyntheticData, CifarData, FileData)}


def _read_dataset(obj, path):
    """The dataset spec of obj's `kind`, read from its other keys."""
    _check_keys(obj, path, required=("kind",), optional=obj)
    kind = _read_value("", obj["kind"], f"{path}.kind")
    if kind not in DATASET_KINDS:
        _fail(f"{path}.kind", f"expected one of {', '.join(DATASET_KINDS)}")
    return _read_section(DATASET_KINDS[kind],
                         {k: v for k, v in obj.items() if k != "kind"}, path)


def check_seeds(seeds, where):
    """seeds as a tuple when it is a non-empty list of unique ints >= 0;
    otherwise a ConfigError under `where` (a key path or a CLI flag)."""
    if (not isinstance(seeds, list) or not seeds or not all(
            isinstance(s, int) and not isinstance(s, bool) and s >= 0
            for s in seeds)):
        _fail(where, "expected a non-empty list of seeds >= 0")
    if len(set(seeds)) != len(seeds):
        _fail(where, "seeds must be unique")
    return tuple(seeds)


# ---------------------------------------------------------------------------
# Experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """A validated experiment: everything a `run` invocation needs.

    scenario holds seed 0; scenario_config(seed) gives each run's."""

    name: str
    main_dataset: SyntheticData | CifarData | FileData
    peripheral_datasets: tuple
    scenario: sc.ScenarioConfig
    augmenter: sc.Augmenter
    arch: NetArch
    method: MethodConfig
    seeds: tuple
    output_dir: str

    def resolved(self):
        """Fully-defaulted JSON-ready dictionary; loads back identically."""
        datasets = [{"kind": spec.kind, **_echo(spec)}
                    for _, spec in self.dataset_specs()]
        scenario = _echo(self.scenario)
        del scenario["seed"]
        return {
            "name": self.name,
            "datasets": {"main": datasets[0], "peripheral": datasets[1:]},
            "scenario": scenario,
            "augmenter": _echo(self.augmenter),
            "arch": _echo(self.arch),
            "method": _echo(self.method),
            "seeds": list(self.seeds),
            "output_dir": self.output_dir,
        }

    def dataset_specs(self):
        """(where, spec) per dataset: "main", then "peripheral[i]"."""
        return [("main", self.main_dataset)] + [
            (f"peripheral[{i}]", p)
            for i, p in enumerate(self.peripheral_datasets)]

    def build_datasets(self):
        """Materialize (main, peripherals) from their specs.

        A file that is not an export or a malformed CIFAR batch, a main
        dataset with a class that has no test rows (a file export may have
        none at all, and evaluation scores every task), a peripheral whose
        rows are not as wide as the main's and, in image mode, rows that are
        not 3 x hw x hw images (scenario.image_side) are known only here, so
        each is a ConfigError before any training.
        """
        built = []
        for where, spec in self.dataset_specs():
            try:
                data = spec.build()
                if self.augmenter.mode == "image":
                    sc.image_side(data.dim)
            except ValueError as exc:
                _fail(f"config.datasets.{where}", str(exc))
            if where == "main" and (missing := np.setdiff1d(
                    data.train_y, data.test_y).tolist()):
                _fail("config.datasets.main",
                      f"{data.name} has no test samples of classes {missing}")
            if built and data.dim != built[0].dim:
                _fail(f"config.datasets.{where}",
                      f"{data.name} has rows of {data.dim} values, "
                      f"datasets.main has {built[0].dim}")
            built.append(data)
        return built[0], built[1:]

    def scenario_config(self, seed):
        return replace(self.scenario, seed=int(seed))


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
    main = _read_dataset(ds["main"], f"{path}.datasets.main")
    # a run evaluates on the main dataset's test split
    if main.kind == "synthetic" and main.test_per_class < 1:
        _fail(f"{path}.datasets.main.test_per_class",
              "must be >= 1 for the main dataset")
    if main.kind == "cifar" and not main.test_path:
        _fail(f"{path}.datasets.main.test_path",
              "missing required key for the main dataset")
    exp = Experiment(
        name=_read_value("", data.get("name", "experiment"), f"{path}.name"),
        main_dataset=main,
        peripheral_datasets=tuple(
            _read_dataset(p, f"{path}.datasets.peripheral[{i}]")
            for i, p in enumerate(peripheral)),
        scenario=_read_section(sc.ScenarioConfig, data["scenario"],
                               f"{path}.scenario", seed=0),
        augmenter=_read_section(sc.Augmenter, data.get("augmenter", {}),
                                f"{path}.augmenter"),
        arch=_read_section(NetArch, data.get("arch", {}), f"{path}.arch"),
        method=_read_section(MethodConfig, data.get("method", {}),
                             f"{path}.method"),
        seeds=check_seeds(data.get("seeds"), f"{path}.seeds"),
        output_dir=_read_value("", data.get("output_dir", ""),
                               f"{path}.output_dir"),
    )
    # the final classifier fits on the last task's labeled set and memory,
    # so memory needs a slot for every class seen before the last task
    earlier = (exp.scenario.n_tasks - 1) * exp.scenario.classes_per_task
    if exp.method.memory_size < earlier:
        _fail(f"{path}.method.memory_size",
              f"must be >= {earlier}, the classes seen before the last task")
    return exp


def _read_json(path):
    """The JSON value in the file at path; a file that cannot be read or
    parsed is a ConfigError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def load_experiment(path):
    """Read and validate a JSON experiment file."""
    return from_dict(_read_json(path))
