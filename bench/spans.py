"""Span tracing at pulsefield's module boundaries, for the traced run only.

For the traced passes, the public functions one pulsefield module imports
from another are rebound to wrappers that record a span (name, start, end,
parent span, pass id) and a few counts taken from the result.  Spans stay
in memory and are written out when the run ends; per-layer metrics are
computed from them afterwards.  A boundary that no longer exists (moved or
renamed) is skipped, and every metric that depends on it is reported as
unmeasured (None) instead of failing the run.  In the threaded sweep a
span's duration includes the time its thread waited for the interpreter
lock, so per-layer times there add up to more than the pass.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import math
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

MODEL_BUILDERS = ("lif_model", "tabulated_model", "homoclinic_model")

# span name -> the (module, attribute) bindings that route calls into that layer
BOUNDARIES = {
    "cli": [("pulsefield.cli", "main")],
    "models.build": [(m, f) for m in ("pulsefield.config", "pulsefield.cli")
                     for f in MODEL_BUILDERS],
    "stationary.solve": [("pulsefield.cli", "solve_stationary_flux"),
                         ("pulsefield.finite", "solve_stationary_flux")],
    "stationary.bounds": [("pulsefield.cli", "coupling_bounds")],
    "continuum.integrate": [("pulsefield.cli", "integrate")],
    "quantile.transform": [("pulsefield.continuum", "quantile_transform")],
    "quantile.v": [("pulsefield.continuum", "lyapunov_tv_with_qmin")],
    "certify": [("pulsefield.cli", "certify_theorem_bounds"),
                ("pulsefield.cli", "fit_decay_rate")],
    "finite.simulate": [("pulsefield.cli", "finite_simulate")],
    "finite.vn": [("pulsefield.cli", "discrete_lyapunov")],
}

# Whole-array reads plus writes in one step of the upwind kernel: velocity
# for dt (3 ops, max), velocity again (3), min, max, flux (v*rho), copy,
# difference, scale, in-place update.  A model, not a measurement.
ARRAY_PASSES_PER_STEP = 28


def _integrate_counts(traj):
    return {"steps": traj.dense_t.size - 1, "n_theta": traj.final.theta.size - 1,
            "mass_drift": float(np.max(np.abs(traj.mass - traj.mass[0])))}


def _simulate_counts(run):
    return {"firings": run.n_events, "absorbed": sum(ev.absorbed for ev in run.events)}


def _v_counts(result):
    return {"nan": not math.isfinite(result[0])}


def _certify_counts(report):
    return {"intervals": report.n_checked}


COUNTERS = {"integrate": _integrate_counts, "finite_simulate": _simulate_counts,
            "lyapunov_tv_with_qmin": _v_counts,
            "certify_theorem_bounds": _certify_counts}


class Tracer:
    """Records spans while installed; `missing` lists boundaries not found."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.spans: list = []
        self.missing: dict = {}
        self.pass_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._saved: list = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name, attr, fn):
        counter = COUNTERS.get(attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # spans opened on a sweep worker thread hang off the open CLI span
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            stack.append(sid)
            if name == "cli":
                self._root = sid
            span = {"id": sid, "name": name, "fn": attr, "parent": parent,
                    "pass": self.pass_id, "error": None}
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if name == "cli":
                    self._root = None
                self.spans.append(span)
            if counter is not None:
                try:
                    span.update(counter(result))
                except (AttributeError, TypeError, IndexError, ValueError):
                    span["uncounted"] = True
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        for name, targets in self.boundaries.items():
            for modname, attr in targets:
                try:
                    mod = importlib.import_module(modname)
                    fn = getattr(mod, attr)
                except (ImportError, AttributeError):
                    if f"{modname}.{attr}" not in self.missing.get(name, []):
                        self.missing.setdefault(name, []).append(f"{modname}.{attr}")
                    continue
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, attr, fn))
        try:
            yield self
        finally:
            for mod, attr, fn in reversed(self._saved):
                setattr(mod, attr, fn)
            self._saved.clear()


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _div(a, b):
    return a / b if b else 0.0


def pass_metrics(spans, missing) -> dict:
    """Per-layer values for the spans of one pass.

    A layer the workload does not reach reports zero; a metric whose
    boundary is missing, or whose count could not be read from a result,
    is None.
    """
    selfs = self_times(spans)
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def total(name, self_time=False):
        return sum(selfs[s["id"]] if self_time else s["end"] - s["start"]
                   for s in by[name])

    def count(name, key):
        vals = [s.get(key) for s in by[name] if key in s or "uncounted" in s]
        return None if None in vals else sum(vals)

    integ = by["continuum.integrate"]
    steps = count("continuum.integrate", "steps")
    v_attempts = len(by["quantile.transform"])
    v_time = total("quantile.transform") + total("quantile.v")
    v_failed = sum(1 for s in by["quantile.transform"] if s["error"]) + \
        sum(1 for s in by["quantile.v"] if s["error"] or s.get("nan"))
    integrate_s = total("continuum.integrate", self_time=True)
    firings = count("finite.simulate", "firings")
    bytes_per_step = None
    if steps is not None and None not in [s.get("n_theta") for s in integ]:
        moved = sum(8 * (s["n_theta"] + 1) * ARRAY_PASSES_PER_STEP * s["steps"]
                    for s in integ)
        bytes_per_step = _div(moved, steps)
    drifts = [s.get("mass_drift") for s in integ]
    values = {
        "models.build_s": (total("models.build"), ["models.build"]),
        "stationary.solve_s": (total("stationary.solve"), ["stationary.solve"]),
        "stationary.bounds_s": (total("stationary.bounds"), ["stationary.bounds"]),
        "stationary.calls": (len(by["stationary.solve"]) + len(by["stationary.bounds"]),
                             ["stationary.solve", "stationary.bounds"]),
        "continuum.integrate_s": (integrate_s, ["continuum.integrate", "quantile.transform",
                                                "quantile.v"]),
        "continuum.steps": (steps, ["continuum.integrate"]),
        "continuum.us_per_step": (None if steps is None else 1e6 * _div(integrate_s, steps),
                                  ["continuum.integrate", "quantile.transform",
                                   "quantile.v"]),
        "continuum.bytes_per_step_computed": (bytes_per_step, ["continuum.integrate"]),
        "continuum.mass_drift": (None if None in drifts else max(drifts, default=0.0),
                                 ["continuum.integrate"]),
        "quantile.v_evals": (v_attempts, ["quantile.transform"]),
        "quantile.us_per_v": (1e6 * _div(v_time, v_attempts),
                              ["quantile.transform", "quantile.v"]),
        "quantile.share": (_div(v_time, total("continuum.integrate")),
                           ["quantile.transform", "quantile.v", "continuum.integrate"]),
        "quantile.v_failures": (_div(v_failed, v_attempts),
                                ["quantile.transform", "quantile.v"]),
        "certify.certify_s": (total("certify"), ["certify"]),
        "certify.intervals_checked": (count("certify", "intervals"), ["certify"]),
        "finite.simulate_s": (total("finite.simulate"), ["finite.simulate"]),
        "finite.firings": (firings, ["finite.simulate"]),
        "finite.us_per_firing": (None if firings is None
                                 else 1e6 * _div(total("finite.simulate"), firings),
                                 ["finite.simulate"]),
        "finite.absorbed": (count("finite.simulate", "absorbed"), ["finite.simulate"]),
        "finite.vn_s": (total("finite.vn"), ["finite.vn"]),
        "cli.self_s": (total("cli", self_time=True), list(BOUNDARIES)),
    }
    return {k: (None if any(n in missing for n in needs) else v)
            for k, (v, needs) in values.items()}


def median_metrics(spans, missing, n_passes: int) -> dict:
    """Median over traced passes of each per-pass layer value."""
    per_pass = [pass_metrics([s for s in spans if s["pass"] == p], missing)
                for p in range(n_passes)]
    out = {}
    for key in per_pass[0]:
        vals = [m[key] for m in per_pass]
        out[key] = None if None in vals else statistics.median(vals)
    return out
