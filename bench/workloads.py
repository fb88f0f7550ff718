"""Benchmark workloads: seeded inputs, timed passes and output checks.

Every workload drives the public CLI entry point ``pulsefield.cli.main`` in
process.  An operation is one CLI invocation or one sweep row; it fails on a
wrong exit code, a raised exception or a failed output check, and a failed
operation is counted, never fatal, so a run still reports every metric.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from unittest import mock

import numpy as np

import pulsefield.cli as cli

J0_REF = 0.5314497        # converged fig1 J0 at t = 12 (upwind n -> infinity)
J0_BAND = 0.02            # fig1 J0 must land within J0_REF +/- J0_BAND
MASS_DRIFT_MAX = 1e-12
K_FIXED = -0.1            # coupling wherever K is not swept
SCENARIOS = ("fig1", "fig2", "homoclinic", "neutral_k0")
SWEEP_K_RANGE = (-0.4, -0.02)
SWEEP_N_DRAWN = 8
SWEEP_N_THETA = 256
TABLE_POINTS = 1201
TAB_N, TAB_FIRINGS = 100, 200
LIF_N, LIF_FIRINGS = 1000, 1000


@dataclass
class Outcome:
    """Result of one operation: its label and every check it failed."""

    label: str
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class PassResult:
    seconds: float
    outcomes: list
    bytes_written: int
    j0: float | None = None
    call_seconds: list = field(default_factory=list)


def run_cli(argv) -> tuple:
    """Invoke the CLI in process; returns (exit code or None, error text)."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main([str(a) for a in argv]), ""
        except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
            return None, f"raised {type(exc).__name__}: {exc}"


def _load_json(path: Path, failures: list):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        failures.append(f"unreadable {path.name}: {exc}")
        return None


def _exit_failures(rc, err, expected=0) -> list:
    if rc is None:
        return [err]
    return [] if rc == expected else [f"exit code {rc}, expected {expected}"]


def scenario_failures(summary: dict, cfg: dict) -> list:
    """Checks shared by every continuum run (a `run` or one sweep row)."""
    fails = []
    blow = summary.get("blowup")
    if cfg["run"]["expect_blowup"] and not blow:
        fails.append("expected blow-up not reported")
    if not blow:
        # one step of the aligned scheme bounds the shortfall of any run
        step = 2.0 * math.pi / (cfg["solver"]["n_theta"] * summary["omega"])
        t_final = summary.get("t_final")
        if t_final is None or cfg["solver"]["t_max"] - t_final > step:
            fails.append(f"t_final {t_final} short of t_max {cfg['solver']['t_max']} "
                         "without a blow-up")
    drift = summary.get("mass_drift")
    if drift is None or drift > MASS_DRIFT_MAX:
        fails.append(f"mass drift {drift} above {MASS_DRIFT_MAX}")
    cert = summary.get("certification")
    exists = (summary.get("stationary") or {}).get("exists")
    if cfg["run"]["certify"] and exists and cert is None:
        fails.append("certification requested but not run")
    if cert is not None and not cert.get("intervals_checked", 0) > 0:
        fails.append("certification checked no interval")
    return fails


def check_run(label: str, rc, err, out: Path) -> tuple:
    """Outcome of one `pulsefield run`, plus its terminal J0 when present."""
    fails = _exit_failures(rc, err)
    summary = _load_json(out / "summary.json", fails)
    cfg = _load_json(out / "resolved_config.json", fails)
    j0 = None
    if summary is not None and cfg is not None:
        fails += scenario_failures(summary, cfg)
        j0 = summary.get("J0_final")
    if label == "fig1" and (j0 is None or abs(j0 - J0_REF) > J0_BAND):
        fails.append(f"fig1 J0 {j0} outside {J0_REF} +/- {J0_BAND}")
    return Outcome(label, fails), j0


def check_finite(label: str, rc, err, out: Path, n_firings: int) -> Outcome:
    fails = _exit_failures(rc, err)
    info = _load_json(out / "summary.json", fails)
    if info is not None:
        if info.get("n_events") != n_firings:
            fails.append(f"n_events {info.get('n_events')} != {n_firings}")
        if info.get("V_N_nonincreasing_fraction") != 1.0:
            fails.append("V_N_nonincreasing_fraction "
                         f"{info.get('V_N_nonincreasing_fraction')} != 1.0")
    return Outcome(label, fails)


def check_sweep(rc, err, out: Path, values: list) -> tuple:
    """One outcome for the invocation and one per requested row.

    Each row must be `ok` in sweep.csv and some row directory's own
    summary.json must carry exactly the K it asked for, so two rows that
    write into one directory show up as a failed row.  A row's own exit
    code is not checked: at n_theta 256 rows with K below about -0.12 end
    in a certification violation (exit 3), a property of the coarse grid.
    """
    head = Outcome("sweep", _exit_failures(rc, err))
    status = {}
    try:
        with open(out / "sweep.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                status[float(row["value"])] = row["status"]
    except (OSError, ValueError, KeyError) as exc:
        head.failures.append(f"unreadable sweep.csv: {exc}")
    by_k = {}
    for summ in sorted(out.glob("*/summary.json")):
        fails: list = []
        summary = _load_json(summ, fails)
        cfg = _load_json(summ.parent / "resolved_config.json", fails)
        if summary is not None and cfg is not None:
            by_k[summary.get("K")] = (summary, cfg)
    outcomes, j0 = [head], None
    for k in values:
        row = Outcome(f"sweep[K={k!r}]")
        if status.get(k) != "ok":
            row.failures.append(f"row status {status.get(k)!r}")
        if k not in by_k:
            row.failures.append("no row summary.json carries this K")
        else:
            summary, cfg = by_k[k]
            row.failures += scenario_failures(summary, cfg)
            if k == K_FIXED:
                j0 = summary.get("J0_final")
        outcomes.append(row)
    return outcomes, j0


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


# -- workloads ----------------------------------------------------------------------


class Workload:
    """Inputs are made once by `prepare`; `run_pass` times the CLI calls only."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.inputs: dict = {}

    def prepare(self) -> dict:
        return self.inputs

    def invocations(self, out: Path) -> list:
        """(label, argv, output directory) for each CLI call of one pass."""
        raise NotImplementedError

    def check(self, results: list) -> tuple:
        """Outcomes and terminal fig1-like J0 from [(label, rc, err, out)]."""
        raise NotImplementedError

    def run_pass(self, out: Path, between=None) -> PassResult:
        """Time the pass's CLI calls; `between` runs untimed before each call."""
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        calls = self.invocations(out)
        gc.collect()
        results, call_seconds = [], []
        for label, argv, odir in calls:
            if between is not None:
                between()
            t0 = time.perf_counter()
            rc, err = run_cli(argv)
            call_seconds.append(time.perf_counter() - t0)
            results.append((label, rc, err, odir))
        outcomes, j0 = self.check(results)
        return PassResult(sum(call_seconds), outcomes, dir_bytes(out), j0, call_seconds)


class Scenarios(Workload):
    name = "scenarios"

    def prepare(self):
        self.inputs = {"configs": [f"{s}.cfg (bundled)" for s in SCENARIOS]}
        return self.inputs

    def invocations(self, out):
        return [(s, ["run", f"{s}.cfg", "--out", out / s], out / s) for s in SCENARIOS]

    def check(self, results):
        outcomes, j0 = [], None
        for label, rc, err, odir in results:
            outcome, j = check_run(label, rc, err, odir)
            outcomes.append(outcome)
            if label == "fig1":
                j0 = j
        return outcomes, j0


FIG1_LIKE = """\
# fig1 at a coarse grid; K is swept
[model]
model = lif
S = 2.1
gamma = 2.0

[coupling]
K = {K!r}

[solver]
scheme = upwind
n_theta = {n_theta}
cfl = 0.5
t_max = 12.0

[initial]
kind = perturbed
epsilon = 0.2

[output]
log_stride = 20

[run]
expect_blowup = false
certify = true
"""


class SweepK(Workload):
    """The sweep's thread pool is sized to the cores this process may use.

    The CLI's default pool is min(4, rows) threads.  On a two-core host four
    threads contending for the GIL made identical passes range over +/-30 %
    and runs of the same code disagree by more than the wall_s bound; at one
    thread per core the pool still runs in parallel and still costs more
    than one worker does, which `cli.sweep_speedup` reports.
    """

    name = "sweep_K"
    threads = len(os.sched_getaffinity(0))

    def run_pass(self, out, between=None, threads=None):
        env = {"PULSEFIELD_THREADS": str(threads or self.threads)}
        with mock.patch.dict(os.environ, env):
            return super().run_pass(out, between)

    def prepare(self):
        # one draw in each of 8 equal slices of the range, so every seed sweeps
        # couplings of the same spread and the work per pass barely moves
        rng = np.random.default_rng(self.seed)
        lo, hi = SWEEP_K_RANGE
        width = (hi - lo) / SWEEP_N_DRAWN
        drawn = [float(lo + (i + u) * width)
                 for i, u in enumerate(rng.uniform(0.0, 1.0, SWEEP_N_DRAWN))]
        self.values = drawn + [K_FIXED]
        self.config = self.workdir / "inputs" / "sweep.cfg"
        self.config.parent.mkdir(parents=True, exist_ok=True)
        self.config.write_text(FIG1_LIKE.format(K=K_FIXED, n_theta=SWEEP_N_THETA))
        self.inputs = {"K_values": self.values, "config": str(self.config),
                       "n_theta": SWEEP_N_THETA, "PULSEFIELD_THREADS": self.threads}
        return self.inputs

    def invocations(self, out):
        values = ",".join(repr(k) for k in self.values)
        return [("sweep", ["sweep", "--config", self.config, "--param", "K",
                           f"--values={values}", "--out", out / "sweep"], out / "sweep")]

    def check(self, results):
        (_, rc, err, odir), = results
        return check_sweep(rc, err, odir, self.values)


def write_field_table(path: Path, rng) -> None:
    """1201 samples of F = 2.1 - 2x on [0, 1] at seed-jittered interior knots.

    The samples lie exactly on the LIF field, so the tabulated model is the
    LIF oscillator whatever the jitter.
    """
    h = 1.0 / (TABLE_POINTS - 1)
    xs = np.arange(TABLE_POINTS) * h
    xs[1:-1] += rng.uniform(-0.25, 0.25, TABLE_POINTS - 2) * h
    with open(path, "w", newline="") as fh:
        fh.write("x,F\n")
        for x in xs:
            fh.write(f"{float(x)!r},{float(2.1 - 2.0 * x)!r}\n")


class FiniteTab(Workload):
    name = "finite_tab"
    kind, N, firings = "tabulated", TAB_N, TAB_FIRINGS

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        self.finite_seed = int(rng.integers(0, 2**31 - 1))
        self.inputs = {"N": self.N, "n_firings": self.firings,
                       "finite_seed": self.finite_seed, "K": K_FIXED}
        self.model_args = ["--model", self.kind]
        if self.kind == "tabulated":
            table = self.workdir / "inputs" / "field.csv"
            table.parent.mkdir(parents=True, exist_ok=True)
            write_field_table(table, rng)
            self.model_args += ["--table", table]
            self.inputs["table"] = str(table)
        return self.inputs

    def invocations(self, out):
        return [(self.name, ["finite", *self.model_args, "--N", self.N, "--K", K_FIXED,
                             "--seed", self.finite_seed, "--nfirings", self.firings,
                             "--out", out / self.name], out / self.name)]

    def check(self, results):
        return [check_finite(label, rc, err, odir, self.firings)
                for label, rc, err, odir in results], None


class FiniteLif(FiniteTab):
    name = "finite_lif"
    kind, N, firings = "lif", LIF_N, LIF_FIRINGS


WORKLOADS = {w.name: w for w in (Scenarios, SweepK, FiniteTab, FiniteLif)}


def fig1_anchor(out: Path) -> tuple:
    """Bundled fig1 run, for workloads whose own output has no fig1 J0."""
    shutil.rmtree(out, ignore_errors=True)
    rc, err = run_cli(["run", "fig1.cfg", "--out", out])
    return check_run("fig1", rc, err, out)


def sequential_sweep_pass(workload: SweepK, out: Path) -> PassResult:
    """One sweep pass with a single worker thread."""
    return workload.run_pass(out, threads=1)
