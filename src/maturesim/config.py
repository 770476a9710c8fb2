"""Run configuration: JSON schema, defaults, and unit normalization.

Internal units are mm, N, MPa, ug and day throughout the package.  Config
files may state stress-like constants in kPa and the critical collagen
energy in J/ug; parsing converts them here, exactly once, so the numeric
core never sees a unit tag.  A normalized copy of the effective config is
written next to every run's outputs.

`DEFAULTS` is the schema: it names every key, and the type of each default
is the type a given value must have.  `_SCHEMA` adds, per section, the
class it builds, its unit key and the keys stated in that unit.
"""

import json
import math
from dataclasses import dataclass
from functools import reduce
from operator import getitem

import numpy as np

from ._files import atomic_open
from .errors import ConfigError
from .growth import GrowthParams
from .materials import CollagenParams, MaterialParams, MatrixParams, TextileParams

STRESS_SCALE = {"MPa": 1.0, "kPa": 1e-3}
# Internal energy density is MPa mm^3/ug = mJ/ug; J/ug is 1000x larger.
ENERGY_SCALE = {"mJ/ug": 1.0, "J/ug": 1e3}

DEFAULTS = {
    "material": {
        "matrix": {"lam": 10.0, "mu": 0.05, "unit": "MPa"},
        "collagen": {"k1": 0.825, "k2": 4.0, "kappa": 0.0,
                     "axis": [1.0, 0.0, 0.0], "rho_f": 38.71, "unit": "MPa"},
        "textile": {"k1_1": 38.51, "k2_1": 1.48, "beta1": 3, "beta2": 2,
                    "k1_2": 214.39, "k2_2": 0.0001, "gamma1": 4, "gamma2": 2,
                    "k_coup1": 183.72, "delta1": 2,
                    "k_coup2": 58.71, "delta2": 3,
                    "k_coup_ani": 571.83, "xi": 12,
                    "n1": [1.0, 0.0, 0.0], "n2": [0.0, 1.0, 0.0],
                    "unit": "kPa"},
        "growth": {"a1": 5e-4, "a2": 5e-7,
                   "psi_crit": 2e-5, "psi_crit_unit": "mJ/ug",
                   "rho_th": 10.0, "c_cell": 15e3,
                   "tau": 14.21, "h": 1.65},
    },
    "simulation": {"t_end": 28.0, "dt0": 0.002, "dt_max": 0.25,
                   "dt_ratio": 1.25},
    "strip": {"length": 20.0, "width": 6.0, "thickness": 0.3,
              "nx": 20, "ny": 6, "nz": 2,
              "pressure": 0.002, "follower": True, "pressure_unit": "MPa"},
}


@dataclass(frozen=True)
class SimulationConfig:
    """Time marching controls, in days."""

    t_end: float
    dt0: float
    dt_max: float
    dt_ratio: float


@dataclass(frozen=True)
class StripConfig:
    """Clamped pressurized strip: geometry (mm), mesh density, load (MPa)."""

    length: float
    width: float
    thickness: float
    nx: int
    ny: int
    nz: int
    pressure: float
    follower: bool


@dataclass(frozen=True)
class RunConfig:
    material: MaterialParams
    simulation: SimulationConfig
    strip: StripConfig


# section -> (class it builds, unit key, unit table, keys stated in that
# unit); every other key of the section is unit-free
_SCHEMA = {
    "material.matrix": (MatrixParams, "unit", STRESS_SCALE, ("lam", "mu")),
    "material.collagen": (CollagenParams, "unit", STRESS_SCALE, ("k1",)),
    "material.textile": (TextileParams, "unit", STRESS_SCALE,
                         ("k1_1", "k2_1", "k1_2", "k2_2",
                          "k_coup1", "k_coup2", "k_coup_ani")),
    "material.growth": (GrowthParams, "psi_crit_unit", ENERGY_SCALE,
                        ("psi_crit",)),
    "simulation": (SimulationConfig, None, None, ()),
    "strip": (StripConfig, "pressure_unit", STRESS_SCALE, ("pressure",)),
}
# config key -> dataclass field, where the names differ
_RENAME = {"axis": "a"}


def _merge(section, overrides, path):
    """Overlay `overrides` on defaults `section`, rejecting unknown keys."""
    if not isinstance(overrides, dict):
        raise ConfigError("expected an object", path)
    merged = {}
    for key, default in section.items():
        here = _join(path, key)
        if key not in overrides:
            merged[key] = default
        elif isinstance(default, dict):
            merged[key] = _merge(default, overrides[key], here)
        else:
            merged[key] = _coerce(default, overrides[key], here)
    for key in overrides:
        if key not in section:
            raise ConfigError("unknown key", _join(path, key))
    return merged


def _coerce(default, value, path):
    """Check `value` against the type of its default: str is a unit, bool a
    flag, list a finite 3-vector, int an integer and float a number."""
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError("unit must be a string", path)
        return value
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError("expected true or false", path)
        return value
    if isinstance(default, list):
        vec = np.asarray(value, dtype=float)
        if vec.shape != (3,) or not np.all(np.isfinite(vec)):
            raise ConfigError("expected a finite 3-vector", path)
        return [float(v) for v in vec]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("expected a number", path)
    if not math.isfinite(value):
        raise ConfigError("expected a finite number", path)
    if isinstance(default, int):
        if float(value) != int(value):
            raise ConfigError("expected an integer", path)
        return int(value)
    return float(value)


def _scale(unit, table, path):
    if unit not in table:
        known = ", ".join(sorted(table))
        raise ConfigError(f"unknown unit '{unit}' (expected one of {known})",
                          path)
    return table[unit]


def _slot(tree, dotted):
    """The dict holding section `dotted` inside `tree` (created on demand)
    and the section's own name."""
    *parents, name = dotted.split(".")
    for p in parents:
        tree = tree.setdefault(p, {})
    return tree, name


def parse_config(data, path=""):
    """Validate a config mapping and build internal-unit parameter objects."""
    full = _merge(DEFAULTS, data, path)
    # a march to t_end <= 0 ends after the ramp; it grows its step from dt0
    # by dt_ratio up to dt_max, and a step that is not positive, or that
    # shrinks, may never reach t_end
    sim = full["simulation"]
    for key, ok, need in (("t_end", sim["t_end"] > 0.0, "positive"),
                          ("dt0", sim["dt0"] > 0.0, "positive"),
                          ("dt_max", sim["dt_max"] > 0.0, "positive"),
                          ("dt_ratio", sim["dt_ratio"] >= 1.0, "at least 1")):
        if not ok:
            raise ConfigError(f"must be {need}", _join(path, f"simulation.{key}"))
    built = {}
    for dotted, (cls, unit_key, table, scaled) in _SCHEMA.items():
        values = dict(reduce(getitem, dotted.split("."), full))
        if unit_key:
            s = _scale(values.pop(unit_key), table,
                       _join(path, f"{dotted}.{unit_key}"))
            for key in scaled:
                values[key] = values[key] * s
        node, name = _slot(built, dotted)
        node[name] = cls(**{_RENAME.get(k, k): v for k, v in values.items()})
    return RunConfig(material=MaterialParams(**built.pop("material")), **built)


def _join(prefix, dotted):
    return f"{prefix}.{dotted}" if prefix else dotted


def config_to_dict(cfg):
    """Serialize a RunConfig in internal units (round-trips via parse)."""
    out = {}
    for dotted, (_, unit_key, table, _) in _SCHEMA.items():
        names = dotted.split(".")
        obj = reduce(getattr, names, cfg)
        section = {}
        for key, default in reduce(getitem, names, DEFAULTS).items():
            if key == unit_key:
                section[key] = next(u for u, f in table.items() if f == 1.0)
                continue
            value = getattr(obj, _RENAME.get(key, key))
            section[key] = [float(x) for x in value] \
                if isinstance(default, list) else value
        node, name = _slot(out, dotted)
        node[name] = section
    return out


def read_json(path, what):
    """Load a JSON file; `what` names its role in the error message."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc.strerror}", path)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}", path)


def load_config(path):
    """Read a JSON config file; an empty object yields all defaults."""
    return parse_config(read_json(path, "config"))


def save_config(cfg, path):
    with atomic_open(path) as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
