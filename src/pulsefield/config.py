"""Experiment configuration: line-oriented key = value files with sections.

The format is plain INI (configparser) with '#' comments.  Every key is
validated against the schema below; unknown sections or keys, missing
required keys, unparsable values and model or initial keys the chosen
kind does not read (``KIND_KEYS``) are rejected with the offending
``section.key``.  A parsed configuration can be re-emitted with every
default materialized (``resolved()``), which each run writes next to its
artifacts so it can reproduce itself.  The command-line flags and each
sweep row set the same keys through ``from_values``.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .models import lif_model, tabulated_model, homoclinic_model, load_field_table


class ConfigError(Exception):
    """Invalid configuration; ``path`` holds the offending section.key."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


def _parse_bool(s):
    v = s.strip().lower()
    if v in ("true", "yes", "on", "1"):
        return True
    if v in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float_list(s):
    s = s.strip()
    return [] if not s else [float(p) for p in s.split(",")]


# schema: section -> key -> (parser, default); required keys use REQUIRED
REQUIRED = object()

SCHEMA = {
    "model": {
        "model": (str.strip, "lif"),
        "S": (float, 2.1),
        "gamma": (float, 2.0),
        "x_lo": (float, 0.0),
        "x_hi": (float, 1.0),
        "C": (float, 1.0),
        "lambda_u": (float, 1.0),
        "omega": (float, 2.0 * math.pi),
        "table": (str.strip, ""),
    },
    "coupling": {
        "K": (float, REQUIRED),
    },
    "solver": {
        "scheme": (str.strip, "upwind"),
        "n_theta": (int, 2048),
        "cfl": (float, 0.5),
        "t_max": (float, 10.0),
        "align_dt": (_parse_bool, False),
    },
    "initial": {
        "kind": (str.strip, "perturbed"),
        "kappa": (float, 2.0),
        "mu": (float, math.pi),
        "epsilon": (float, 0.2),
    },
    "output": {
        "dir": (str.strip, "out"),
        "log_stride": (int, 20),
        "snapshot_times": (_parse_float_list, []),
        "dump_density": (_parse_bool, True),
        "dump_quantiles": (_parse_bool, False),
        "dump_stationary_density": (_parse_bool, False),
    },
    "run": {
        "expect_blowup": (_parse_bool, False),
        "certify": (_parse_bool, True),
    },
    "finite": {
        "enabled": (_parse_bool, False),
        "N": (int, 100),
        "seed": (int, 0),
        "n_firings": (int, 1000),
    },
}

# the keys each kind of a section (named by its first key) reads, the [model]
# keys in build_model's argument order; a config that sets another is refused
KIND_KEYS = {"model": {"lif": ("S", "gamma", "x_lo", "x_hi"), "tabulated": ("table",),
                       "homoclinic": ("C", "lambda_u", "omega")},
             "initial": {"uniform": (), "vonmises": ("kappa", "mu"),
                         "perturbed": ("epsilon",)}}
# every bare key is unique across sections: {"K": "coupling.K", ...}
KEY_PATHS = {key: f"{section}.{key}" for section, keys in SCHEMA.items() for key in keys}


def key_path(name: str) -> str:
    """The "section.key" of the SCHEMA key ``name``, written so or bare."""
    section, _, key = KEY_PATHS.get(name, name).partition(".")
    if key not in SCHEMA.get(section, {}):
        raise ConfigError(name, "unknown key")
    return f"{section}.{key}"


def parse_value(path: str, raw: str):
    """The value the text ``raw`` gives the key ``path``, read by the key's
    SCHEMA parser as a config line is."""
    section, key = path.split(".")
    try:
        return SCHEMA[section][key][0](raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, f"bad value {raw!r}: {exc}")


@dataclass
class ExperimentConfig:
    """Fully validated experiment description with all defaults applied."""

    values: dict
    source: str = "<memory>"
    # the keys the file or flags gave, {"section.key": value}
    given: dict = dc_field(default_factory=dict)

    @classmethod
    def parse(cls, path) -> "ExperimentConfig":
        cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
        cp.optionxform = str    # keys are case-sensitive (S, K, C, ...)
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(str(path), f"cannot read config: {exc}")
        try:
            cp.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise ConfigError(str(path), f"parse error: {exc}")
        given = {}
        for section in cp.sections():
            if section not in SCHEMA:
                raise ConfigError(section, "unknown section")
            for key, raw in cp[section].items():
                name = key_path(f"{section}.{key}")
                given[name] = parse_value(name, raw)
        return cls.from_values(given, source=str(path))

    @classmethod
    def from_values(cls, given: dict, source="<memory>") -> "ExperimentConfig":
        """The config of ``given`` ({"section.key": parsed value}), every other
        key at its SCHEMA default, validated."""
        values: dict = {}
        for section, keys in SCHEMA.items():
            values[section] = {}
            for key, (_, default) in keys.items():
                path = f"{section}.{key}"
                if path not in given and default is REQUIRED:
                    raise ConfigError(path, "required key missing")
                values[section][key] = given.get(path, default)
        cfg = cls(values, source, dict(given))
        cfg._validate()
        return cfg

    def _validate(self):
        v = self.values
        for section, kinds in KIND_KEYS.items():
            selector = next(iter(SCHEMA[section]))
            kind = v[section][selector]
            if kind not in kinds:
                raise ConfigError(f"{section}.{selector}", f"must be one of {tuple(kinds)}")
            for path in self.given:
                given_section, _, key = path.partition(".")
                if given_section == section and key not in (selector, *kinds[kind]):
                    raise ConfigError(path, f"the {kind} {section} reads only "
                                      f"{', '.join(kinds[kind]) or 'its ' + selector}")
        if v["model"]["model"] == "tabulated" and not v["model"]["table"]:
            raise ConfigError("model.table", "tabulated model needs a CSV path")
        if v["solver"]["scheme"] != "upwind":
            raise ConfigError("solver.scheme", f"{v['solver']['scheme']!r} is not a scheme; "
                              "use upwind (with align_dt = true for the aligned K = 0 "
                              "rotation the removed semilagrangian scheme gave)")
        n_theta = v["solver"]["n_theta"]
        if n_theta < 8:
            raise ConfigError("solver.n_theta", f"grid too small: need >= 8, got {n_theta}")
        if not 0.0 < v["solver"]["cfl"] <= 1.0:
            raise ConfigError("solver.cfl", "need 0 < cfl <= 1")
        t_max, log_stride = v["solver"]["t_max"], v["output"]["log_stride"]
        if not 0.0 < t_max < math.inf:
            raise ConfigError("solver.t_max", f"need a finite t_max > 0, got {t_max!r}")
        if log_stride < 1:
            raise ConfigError("output.log_stride", f"need log_stride >= 1, got {log_stride}")
        # a run snapshots at the first step ending at or past each time: a
        # NaN or infinite time is never met (a NaN, sorted first, hid every
        # later time), and a negative one names no time of the run
        for ts in v["output"]["snapshot_times"]:
            if not 0.0 <= ts < math.inf:
                raise ConfigError("output.snapshot_times",
                                  f"need finite times >= 0, got {ts!r}")
        for path in ("coupling.K", "initial.kappa", "initial.mu", "initial.epsilon"):
            section, key = path.split(".")
            if not math.isfinite(v[section][key]):
                raise ConfigError(path, f"must be finite, got {v[section][key]!r}")
        N, n_firings, seed = v["finite"]["N"], v["finite"]["n_firings"], v["finite"]["seed"]
        # a finite run needs two oscillators (V_N compares phase pairs) and
        # one firing (V_N starts from the first snapshot)
        if N < 2:
            raise ConfigError("finite.N", f"need N >= 2, got {N}")
        if n_firings < 1:
            raise ConfigError("finite.n_firings", f"need n_firings >= 1, got {n_firings}")
        # numpy's generators take no negative seed
        if seed < 0:
            raise ConfigError("finite.seed", f"need seed >= 0, got {seed}")

    def __getitem__(self, section):
        return self.values[section]

    def resolved(self) -> dict:
        out = {s: dict(kv) for s, kv in self.values.items()}
        out["_source"] = self.source
        return out

    def build_model(self):
        m = self.values["model"]
        args = [m[key] for key in KIND_KEYS["model"][m["model"]]]
        if m["model"] == "lif":
            return lif_model(*args)
        if m["model"] == "homoclinic":
            return homoclinic_model(*args)
        return tabulated_model(*load_field_table(*args))
