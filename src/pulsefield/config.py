"""Experiment configuration: line-oriented key = value files with sections.

The format is plain INI (configparser) with '#' comments.  Every key is
validated against the schema below; unknown sections or keys, missing
required keys and unparsable values are all rejected with the offending
``section.key`` path.  A parsed configuration can be re-emitted with every
default materialized (``resolved()``), which each run writes next to its
artifacts so it can reproduce itself.
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


def check_finite_size(N: int, n_firings: int) -> None:
    """A finite run needs two oscillators (V_N compares phase pairs) and
    one firing (V_N starts from the first snapshot)."""
    if N < 2:
        raise ConfigError("finite.N", f"need N >= 2, got {N}")
    if n_firings < 1:
        raise ConfigError("finite.n_firings", f"need n_firings >= 1, got {n_firings}")


def check_n_theta(n_theta: int) -> None:
    if n_theta < 8:
        raise ConfigError("solver.n_theta", f"grid too small: need >= 8, got {n_theta}")


def check_coupling(K: float) -> None:
    if not math.isfinite(K):
        raise ConfigError("coupling.K", f"must be finite, got {K!r}")


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
        "certify_tol_abs": (float, 1e-4),
        "certify_tol_rel": (float, 0.1),
        "certify_min_fraction": (float, 0.99),
    },
    "finite": {
        "enabled": (_parse_bool, False),
        "N": (int, 100),
        "seed": (int, 0),
        "n_firings": (int, 1000),
    },
}

MODEL_KINDS = ("lif", "tabulated", "homoclinic")
IC_KINDS = ("uniform", "vonmises", "perturbed")


@dataclass
class ExperimentConfig:
    """Fully validated experiment description with all defaults applied."""

    values: dict
    source: str = "<memory>"

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
        return cls.from_parser(cp, source=str(path))

    @classmethod
    def from_parser(cls, cp, source="<memory>") -> "ExperimentConfig":
        values: dict = {}
        for section in cp.sections():
            if section not in SCHEMA:
                raise ConfigError(section, "unknown section")
            for key in cp[section]:
                if key not in SCHEMA[section]:
                    raise ConfigError(f"{section}.{key}", "unknown key")
        for section, keys in SCHEMA.items():
            values[section] = {}
            for key, (parser, default) in keys.items():
                if cp.has_option(section, key):
                    raw = cp.get(section, key)
                    try:
                        values[section][key] = parser(raw)
                    except (ValueError, TypeError) as exc:
                        raise ConfigError(f"{section}.{key}", f"bad value {raw!r}: {exc}")
                elif default is REQUIRED:
                    raise ConfigError(f"{section}.{key}", "required key missing")
                else:
                    values[section][key] = default
        cfg = cls(values, source)
        cfg._validate()
        return cfg

    def _validate(self):
        v = self.values
        if v["model"]["model"] not in MODEL_KINDS:
            raise ConfigError("model.model", f"must be one of {MODEL_KINDS}")
        if v["model"]["model"] == "tabulated" and not v["model"]["table"]:
            raise ConfigError("model.table", "tabulated model needs a CSV path")
        if v["solver"]["scheme"] != "upwind":
            raise ConfigError("solver.scheme", f"{v['solver']['scheme']!r} is not a scheme; "
                              "use upwind (with align_dt = true for the aligned K = 0 "
                              "rotation the removed semilagrangian scheme gave)")
        if v["initial"]["kind"] not in IC_KINDS:
            raise ConfigError("initial.kind", f"must be one of {IC_KINDS}")
        check_n_theta(v["solver"]["n_theta"])
        if not 0.0 < v["solver"]["cfl"] <= 1.0:
            raise ConfigError("solver.cfl", "need 0 < cfl <= 1")
        if v["solver"]["t_max"] <= 0.0:
            raise ConfigError("solver.t_max", "need t_max > 0")
        check_coupling(v["coupling"]["K"])
        check_finite_size(v["finite"]["N"], v["finite"]["n_firings"])

    def __getitem__(self, section):
        return self.values[section]

    def resolved(self) -> dict:
        out = {s: dict(kv) for s, kv in self.values.items()}
        out["_source"] = self.source
        return out

    def build_model(self):
        m = self.values["model"]
        kind = m["model"]
        if kind == "lif":
            return lif_model(m["S"], m["gamma"], m["x_lo"], m["x_hi"])
        if kind == "homoclinic":
            return homoclinic_model(m["C"], m["lambda_u"], m["omega"])
        xs, fs = load_field_table(m["table"])
        return tabulated_model(xs, fs)
