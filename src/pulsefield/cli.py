"""Command-line surface: stationary solves, PDE runs, certification, sweeps.

Subcommands
    stationary  solve for the asynchronous state; print (--out: write) the
                stationary.json record a run writes
    simulate    integrate the transport equation, emit trajectory artifacts
    certify     replay a trajectory CSV against the Lyapunov bounds
    finite      event-driven finite-N run
    run         full scenario from a config file
    sweep       repeat a scenario over the values of one config key

The model, coupling, solver, initial, output and finite flags of
stationary, simulate, certify and finite set the config keys of their names
(``FLAG_NAMES`` holds the six other spellings).  A flag left out takes its
key's default, a model or initial flag the chosen kind does not read is a
config error, and ``--help`` prints each flag's ``[section] key``.

Exit codes: 0 success, 2 the blow-up expectation was not met (a blow-up
the config did not expect, or an expected one that did not happen),
3 certification violation, 4 configuration error (a bad config, flag,
model parameter or field table, a command line argparse rejects, an output
path that cannot be made, a finite run whose coupling ignites an
avalanche: K >= x_hi - x_lo re-fires an oscillator within one event, a
size whose arrays cannot be allocated: ``--ntheta 1000000000000000``, a
coupling whose stationary flux double precision cannot resolve to J_TOL
(``UnresolvedFluxError``; ``finite`` needs no J* and records its splay
reference as unavailable), ``align_dt = true`` with K > 0, whose aligned
step exceeds the CFL limit, or ``[finite] enabled = true`` for the
homoclinic model, which has no vector field; these last two exit before
any directory is made).
A sweep's --param is any config key, as section.key or bare; each --values
item is read by that key's parser, as a config line is, and each row's
config is the sweep's with that key set (``ExperimentConfig.from_values``).
A sweep whose model (for a swept [model] key, any row's) cannot be built,
or whose values the config rejects, exits 4 before its first row.  The
rows run in forked worker processes, one per CPU this process may run on
(``taskset -c 0 pulsefield sweep ...`` runs them one after another, in
process); every artifact has the same bytes either way, except the wall
times in each row's summary.json.  The sweep exits 0: sweep.csv records
each row's exit code (empty for a row that raised, or whose worker
process died) and its certification violations (empty for a row that ran
no certification), and each row that did not exit 0 prints one line on
stderr, in row order, once every earlier row has finished.

A finite run formats snapshots.csv, and takes V_N, in batches of about
``finite.BATCH_FLOATS`` phases.  A run of two batches or more hands them
to forked sink processes (``finite.BatchSinks``), one per
``finite.SINK_FLOATS`` phases in the whole run (N * n_firings) and at most
one per CPU, and writes their text and folds their V_N in firing order
while its event loop goes on; on one CPU (``taskset -c 0``) and inside a
sweep worker the same batch function runs in process.  The bytes are the
same either way.

A run's V on logged rows, past the first ring of them, is evaluated in
one forked helper process (``continuum.integrate``) under the same rule
(``fork_cpus``): not on one CPU (``taskset -c 0`` gives the in-process
form, with the same bytes) and not inside a sweep worker.  summary.json's
``v_helper_rows`` says how many rows it evaluated.  Traced ``quantile.*``
spans then count only the rows evaluated in process.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .config import (REQUIRED, SCHEMA, ConfigError, ExperimentConfig, key_path,
                     parse_value)
from .continuum import (AdmissibilityVerdict, BlowupError, TrajectoryLog,
                        check_admissibility, fork_cpus, initial_density, integrate,
                        write_csv)
from .certify import certify_theorem_bounds, fit_decay_rate
from .finite import (AvalancheError, BatchSinks, simulate as finite_simulate,
                     splay_reference)
from .models import ModelError
# unused here: bench/spans.py times models.build by rebinding them in this module too
from .models import homoclinic_model, lif_model, tabulated_model  # noqa: F401
from .quantile import discrete_lyapunov, quantile_transform
from .stationary import (NoStationaryStateError, UnresolvedFluxError, coupling_bounds,
                         solve_stationary_flux)

EXIT_OK = 0
EXIT_BLOWUP_EXPECTATION = 2
EXIT_CERTIFICATION = 3
EXIT_CONFIG = 4

def _json_text(obj) -> str:
    """The one JSON text of every record: written, and printed."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_json(path, obj):
    Path(path).write_text(_json_text(obj))


def _density_csv(path, theta, rho, value_name="rho"):
    write_csv(path, ("theta", value_name), (theta, rho))


def _quantile_csv(path, theta, rho):
    # per-knot rows; q is the segment value to the right of the knot (the
    # last knot repeats the final segment)
    prof = quantile_transform(theta, rho)
    q = np.append(prof.q_seg, prof.q_seg[-1])
    write_csv(path, ("phi", "Q", "q"), (prof.phi, prof.Q, q))


# -- flags: each sets the SCHEMA key of its name ----------------------------------

# the flags not spelled --key with "_" written "-"
FLAG_NAMES = {"solver.n_theta": "--ntheta", "solver.t_max": "--tmax", "initial.kind": "--ic",
              "output.dir": "--out", "output.snapshot_times": "--snapshots",
              "finite.n_firings": "--nfirings"}
MODEL_KEYS = tuple(f"model.{key}" for key in SCHEMA["model"])


def _schema_flags() -> dict:
    """{"section.key": (flag, add_argument keywords)} for every SCHEMA key.
    The key's own parser reads the flag's value; a boolean key's flag sets
    it true.  A flag not given stays out of the namespace, so its key takes
    the SCHEMA default (``_config``)."""
    flags = {}
    for section, keys in SCHEMA.items():
        for key, (parser, default) in keys.items():
            path = f"{section}.{key}"
            kw = {"dest": path, "default": argparse.SUPPRESS, "help": f"[{section}] {key}",
                  "required": default is REQUIRED}
            if isinstance(default, bool):
                kw.update(action="store_const", const=True)
            else:
                kw["type"] = parser
            flags[path] = FLAG_NAMES.get(path, "--" + key.replace("_", "-")), kw
    return flags


SCHEMA_FLAGS = _schema_flags()


def _add_schema_args(p, *paths, required=()):
    """The SCHEMA_FLAGS of ``paths``; those of REQUIRED keys and of the keys
    in ``required`` must be given."""
    for path in paths:
        flag, kw = SCHEMA_FLAGS[path]
        p.add_argument(flag, **(dict(kw, required=True) if path in required else kw))


def _config(args) -> ExperimentConfig:
    """The config that a command line's SCHEMA flags describe."""
    return ExperimentConfig.from_values(
        {dest: value for dest, value in vars(args).items() if "." in dest}, source="<cli>")


def _make_dir(path, name) -> Path:
    """The output directory ``path``, created if missing.  One that cannot
    be created is a config error on the flag or key ``name``."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(name, f"cannot create the directory: {exc}")
    return path


def _resolve_config_path(name) -> Path:
    """Accept a filesystem path or the name of a bundled config."""
    p = Path(name)
    if p.exists():
        return p
    from importlib import resources
    candidate = resources.files("pulsefield").joinpath("configs", p.name)
    if candidate.is_file():
        return Path(str(candidate))
    raise ConfigError(str(name), "config file not found")


# -- scenario orchestration -------------------------------------------------------

PHASES = ("stationary", "integrate", "certify", "finite", "write")


@contextmanager
def _timed(timings: dict, phase: str):
    """Add the block's wall time to ``timings[phase]``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[phase] += time.perf_counter() - t0


def _versions() -> dict:
    """summary.json's ``versions``: pulsefield, numpy and Python, and scipy
    when something already imported it (null otherwise; never imported
    here, since no command needs it)."""
    scipy = sys.modules.get("scipy")
    return {"pulsefield": __version__, "numpy": np.__version__,
            "python": sys.version.split()[0],
            "scipy": getattr(scipy, "__version__", None)}


def _certify(traj: TrajectoryLog, model, K: float) -> tuple:
    """certification.json's record of a trajectory (the dV/dt bound checks
    and the decay fit), and whether the trajectory passes."""
    report = certify_theorem_bounds(traj, model, K)
    cert = report.to_json()
    cert["decay_fit"] = fit_decay_rate(traj, model, K).to_json()
    return cert, report.verdict()


def _stationary(model, K: float, n_theta: int) -> tuple:
    """(the stationary state or None, stationary.json's record of it):
    ``exists`` and ``r``; with a state ``J_star``, ``rho_star_mass`` and
    ``J_interval_hi`` (null when unbounded), without one the existence
    ``limit_value``; for a model with a field its ``coupling_bounds``."""
    reference = None
    try:
        reference = solve_stationary_flux(model, K, n_theta=n_theta)
        record = {"exists": True, "J_star": reference.J_star, "r": reference.r,
                  "rho_star_mass": reference.rho_star.mass,
                  "J_interval_hi": None if math.isinf(reference.J_interval[1])
                  else reference.J_interval[1]}
    except NoStationaryStateError as exc:
        record = {"exists": False, "r": exc.result.r,
                  "limit_value": exc.result.to_json()["limit_value"]}
    if model.F is not None:
        record["coupling_bounds"] = coupling_bounds(model).to_json()
    return reference, record


def run_scenario(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Stationary solve, continuum integration, certification, optional
    finite-N run; writes all artifacts under the output directory and
    returns summary.json's record, its ``exit_code`` included.

    summary.json's ``timings_s`` holds the seconds spent in each of ``PHASES``: the
    stationary solve, ``integrate`` (V included), certification, the finite
    run and the artifact writes before summary.json's own, and ``versions``
    the package, numpy, Python and scipy versions (``_versions``).
    ``snapshot_times_unmet`` lists the requested snapshot times the run
    never reached (past ``t_max``, or after a blow-up)."""
    out = _make_dir(out_dir if out_dir is not None else cfg["output"]["dir"], "output.dir")
    timings = dict.fromkeys(PHASES, 0.0)
    with _timed(timings, "write"):
        _write_json(out / "resolved_config.json", cfg.resolved())

    model = cfg.build_model()
    K = cfg["coupling"]["K"]
    sol = cfg["solver"]
    snapshot_times = sorted(cfg["output"]["snapshot_times"])
    summary: dict = {"K": K, "omega": model.omega,
                     "monotonicity": model.monotonicity.value,
                     "curvature": model.curvature.value, "timings_s": timings,
                     "versions": _versions()}

    # stationary state (reference for V); absence is recorded, not fatal
    with _timed(timings, "stationary"):
        reference, stat_info = _stationary(model, K, sol["n_theta"])
    with _timed(timings, "write"):
        if reference is not None and cfg["output"]["dump_stationary_density"]:
            _density_csv(out / "rho_star.csv", reference.rho_star.theta,
                         reference.rho_star.rho, value_name="rho_star")
        _write_json(out / "stationary.json", stat_info)
    summary["stationary"] = stat_info

    try:
        initial = initial_density(cfg["initial"]["kind"], sol["n_theta"], model, K,
                                  kappa=cfg["initial"]["kappa"], mu=cfg["initial"]["mu"],
                                  epsilon=cfg["initial"]["epsilon"], reference=reference)
    except ValueError as exc:
        # e.g. a perturbed profile without a stationary reference to perturb
        raise ConfigError("initial.kind", str(exc))
    except BlowupError as exc:
        summary["blowup"] = exc.event.to_json()
        summary["snapshot_times_unmet"] = snapshot_times
        summary["admissibility"] = {"verdict": AdmissibilityVerdict.NUMERICAL_BLOWUP.value,
                                    "blowup": summary["blowup"]}
        if cfg["finite"]["enabled"]:
            summary["finite"] = "skipped: continuum blew up at t = 0"
        summary["exit_code"] = (EXIT_OK if cfg["run"]["expect_blowup"]
                                else EXIT_BLOWUP_EXPECTATION)
        _write_json(out / "summary.json", summary)
        return summary

    summary["initial"] = {"boundary_jump": initial.boundary_jump}

    dt = None
    if sol["align_dt"]:
        dt = initial.dtheta / model.omega
    with _timed(timings, "integrate"):
        traj = integrate(model, K, initial, t_max=sol["t_max"], cfl=sol["cfl"], dt=dt,
                         log_stride=cfg["output"]["log_stride"], reference=reference,
                         snapshot_times=snapshot_times)
    with _timed(timings, "write"):
        traj.to_csv(out / "trajectory.csv")
        # one state per file label; the final state wins a shared label
        states = {f"{ts:.6g}": (traj.initial.theta, arr) for ts, arr in traj.snapshots}
        states[f"{traj.final.t:.6g}"] = (traj.final.theta, traj.final.rho)
        for label, (theta, rho) in states.items():
            if cfg["output"]["dump_density"]:
                _density_csv(out / f"density_t{label}.csv", theta, rho)
            if cfg["output"]["dump_quantiles"]:
                _quantile_csv(out / f"quantiles_t{label}.csv", theta, rho)
    summary.update(traj.summary())
    # each requested time gives at most one snapshot, in sorted order: the
    # times past the last one were never reached (t_max, or a blow-up)
    summary["snapshot_times_unmet"] = snapshot_times[len(traj.snapshots):]
    adm = check_admissibility(initial, model, K, blowup=traj.blowup,
                              first_crossing_time=traj.first_crossing_time)
    summary["admissibility"] = {"verdict": adm.verdict.value, **adm.detail}

    exit_code = EXIT_OK
    if (traj.blowup is not None) != cfg["run"]["expect_blowup"]:
        exit_code = EXIT_BLOWUP_EXPECTATION
    if traj.blowup is None and cfg["run"]["expect_blowup"]:
        summary["expected_blowup_missing"] = True

    if cfg["run"]["certify"] and reference is not None:
        with _timed(timings, "certify"):
            cert, passed = _certify(traj, model, K)
        with _timed(timings, "write"):
            _write_json(out / "certification.json", cert)
        summary["certification"] = cert
        summary["decay_rate"] = cert["decay_fit"]["rate"]
        if not passed:
            exit_code = max(exit_code, EXIT_CERTIFICATION)

    if cfg["finite"]["enabled"]:
        fdir = _make_dir(out / "finite", "output.dir")
        with _timed(timings, "finite"):
            summary["finite"] = _run_finite(model, K, cfg["finite"]["N"],
                                            cfg["finite"]["seed"],
                                            cfg["finite"]["n_firings"], fdir)

    summary["exit_code"] = exit_code
    _write_json(out / "summary.json", summary)
    return summary


# -- worker pool (the sweep) ------------------------------------------------------

class _Done:
    """The result of a task that ran when it was submitted."""

    def __init__(self, value):
        self._value = value

    def result(self):
        return self._value


class _InProcess:
    """Executor stand-in that runs each task in process when submitted."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, /, *args, **kwargs):
        return _Done(fn(*args, **kwargs))


def _pool(n_tasks: int) -> tuple:
    """Executor for a sweep's ``n_tasks`` rows, and the number of worker
    processes it forks: one per CPU ``fork_cpus`` allows, at most one per
    row.  With one worker, in a worker process (a pool is never nested),
    or where processes cannot be forked, it forks none: each row runs in
    process when submitted, and concurrent.futures is not imported."""
    workers = min(n_tasks, len(fork_cpus()))
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        fork = multiprocessing.get_context("fork")
        return ProcessPoolExecutor(workers, mp_context=fork), workers
    return _InProcess(), 0


# -- finite runs -------------------------------------------------------------------

def _snapshot_text(times, snaps) -> bytes:
    """snapshots.csv lines of a batch of firings: each firing's time, then
    its phases, every value as ``repr`` writes it (the bytes csv.writer
    gives, about twice as fast)."""
    return "".join([",".join([repr(t), *map(repr, row.tolist())]) + "\r\n"
                    for t, row in zip(times, snaps)]).encode()


def _batch_text(block, ref) -> bytes:
    """snapshots.csv text of a batch of ``finite.BatchSinks`` ring rows
    (time, N phases, result), each row's V_N against the splay reference
    ``ref``, when there is one, written into its result first."""
    snaps = block[:, 1:-1]
    if ref is not None:
        block[:, -1] = [discrete_lyapunov(snap, ref) for snap in snaps]
    return _snapshot_text(block[:, 0].tolist(), snaps)


def _run_finite(model, K, N, seed, n_firings, out: Path) -> dict:
    """Finite-N run streamed to firings.csv, snapshots.csv and a V_N fold.

    Each firing's rows are written to firings.csv as it happens, and its
    snapshot goes to a batch of ``finite.BatchSinks``, which runs
    ``_batch_text`` on it (its V_N against the splay reference, and its
    snapshots.csv lines): in forked sinks, made before the CSV files are
    opened, or in process.  The batches' text is written, and their V_N
    folded, in firing order, so the bytes are the same either way.  The
    snapshots take O(N) memory however many firings the run takes; the run
    keeps its events.  A run that raises leaves neither CSV behind, and
    every sink is reaped.  A run with no splay reference (no
    stationary state, or a J* double precision cannot resolve) records why
    in ``splay_reference``.  Returns summary.json's record without its
    ``versions``, which a run's summary.json records once.
    """
    unavailable = None
    try:
        ref = splay_reference(N, model, K)
    except NoStationaryStateError:
        ref, unavailable = None, "unavailable (no stationary state)"
    except UnresolvedFluxError:
        # the simulation needs no J*: only V_N goes without its reference
        ref, unavailable = None, "unavailable (unresolved stationary flux)"
    # V_N's first and last value, and how many steps v - v_prev were <= 1e-12
    vn = {"first": None, "last": None, "steps": 0, "down": 0}
    paths = (out / "firings.csv", out / "snapshots.csv")
    sinks = BatchSinks(N, n_firings, lambda block: _batch_text(block, ref))
    try:
        with open(paths[0], "w", newline="") as ff, open(paths[1], "wb") as fs:
            ff.write("t,id,absorbed\r\n")

            def write(batches):
                for text, values in batches:
                    fs.write(text)
                    for v in values if ref is not None else ():
                        if vn["last"] is None:
                            vn["first"] = v
                        else:
                            vn["steps"] += 1
                            vn["down"] += v - vn["last"] <= 1e-12
                        vn["last"] = v

            def on_firing(t, snap, ev):
                t = float(t)
                ts = repr(t)
                ff.write("".join(f"{ts},{i},{ev.absorbed}\r\n" for i in ev.fired))
                write(sinks.add(t, snap))

            run = finite_simulate(model, K, N, n_firings=n_firings, seed=seed,
                                  on_firing=on_firing)
            write(sinks.drain())
    except BaseException:
        for path in paths:
            path.unlink(missing_ok=True)
        raise
    finally:
        sinks.close()
    info: dict = {"N": N, "seed": seed, "n_events": run.n_events,
                  "full_sync_event": run.full_sync_event(),
                  "mean_firing_rate": run.mean_firing_rate() if run.n_events > 4 else None}
    if ref is None:
        info["splay_reference"] = unavailable
    else:
        info["V_N_first"] = vn["first"]
        info["V_N_last"] = vn["last"]
        info["V_N_nonincreasing_fraction"] = (vn["down"] / vn["steps"]
                                              if vn["steps"] else None)
    _write_json(out / "summary.json", {**info, "versions": _versions()})
    return info


# -- subcommands -----------------------------------------------------------------


def _cmd_stationary(args) -> int:
    cfg = _config(args)
    reference, record = _stationary(cfg.build_model(), cfg["coupling"]["K"],
                                    cfg["solver"]["n_theta"])
    if reference is not None and args.rho_csv:
        try:
            _density_csv(args.rho_csv, reference.rho_star.theta, reference.rho_star.rho,
                         value_name="rho_star")
        except OSError as exc:   # e.g. a missing directory
            raise ConfigError("--rho-csv", str(exc))
    if args.out:
        _write_json(_make_dir(args.out, "--out") / "stationary.json", record)
    print(_json_text(record), end="")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    return run_scenario(_config(args))["exit_code"]


def _cmd_certify(args) -> int:
    cfg = _config(args)
    model = cfg.build_model()
    try:
        traj = TrajectoryLog.from_csv(args.trajectory)
    except (OSError, ValueError) as exc:   # unreadable, bad header or row
        raise ConfigError("--trajectory", str(exc))
    payload, passed = _certify(traj, model, cfg["coupling"]["K"])
    out = _make_dir(args.out or Path(args.trajectory).parent, "--out")
    _write_json(out / "certification.json", payload)
    print(_json_text(payload), end="")
    return EXIT_OK if passed else EXIT_CERTIFICATION


def _cmd_finite(args) -> int:
    cfg = _config(args)
    model = cfg.build_model()
    out = _make_dir(args.out, "--out")
    fin = cfg["finite"]
    _run_finite(model, cfg["coupling"]["K"], fin["N"], fin["seed"], fin["n_firings"], out)
    print((out / "summary.json").read_text(), end="")
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.parse(_resolve_config_path(args.config))
    return run_scenario(cfg, out_dir=args.out)["exit_code"]


SWEEP_FIELDS = ("param", "value", "status", "exists", "J_star", "J0_final",
                "decay_rate", "t_fin", "exit_code", "cert_violations")


def _blank_row(param, value, status) -> dict:
    return {**dict.fromkeys(SWEEP_FIELDS), "param": param, "value": value,
            "status": status}


def _sweep_row(row_cfg: ExperimentConfig, param, value, out_root: Path) -> dict:
    row_dir = out_root / f"{param}={value!r}"
    row = _blank_row(param, value, "ok")
    try:
        summary = run_scenario(row_cfg, out_dir=row_dir)
    except Exception as exc:   # noqa: BLE001 - row failures are data
        row["status"] = f"failed: {exc}"
        # a row that raised keeps the stationary record it wrote, if any
        try:
            summary = {"stationary": json.loads((row_dir / "stationary.json").read_text())}
        except OSError:
            return row
    blow = summary.get("blowup")
    row.update(exists=summary["stationary"].get("exists"),
               J_star=summary["stationary"].get("J_star"), J0_final=summary.get("J0_final"),
               decay_rate=summary.get("decay_rate"), t_fin=blow["t_fin"] if blow else None,
               exit_code=summary.get("exit_code"),
               cert_violations=(summary.get("certification") or {}).get("violations"))
    return row


def _cmd_sweep(args) -> int:
    from concurrent.futures.process import BrokenProcessPool

    cfg = ExperimentConfig.parse(_resolve_config_path(args.config))
    path = key_path(args.param)
    values = [parse_value(path, v) for v in args.values.split(",")] if args.values else []
    if len({repr(v) for v in values}) != len(values):
        raise ConfigError("sweep.values", "a repeated value would share a row directory")
    # every row's config, and its model (a key outside [model] leaves every
    # row the sweep's one model), is checked before the first row runs (a
    # bad model or table exits 4 here)
    row_cfgs = [ExperimentConfig.from_values({**cfg.given, path: v}, cfg.source)
                for v in values]
    for row_cfg in row_cfgs if path.startswith("model.") else [cfg]:
        row_cfg.build_model()
    out_root = _make_dir(args.out or Path(cfg["output"]["dir"]) / "sweep",
                         "--out" if args.out else "output.dir")
    rows = []
    pool, _ = _pool(len(values))
    with pool:
        futures = [pool.submit(_sweep_row, c, args.param, v, out_root)
                   for c, v in zip(row_cfgs, values)]
        for future, v in zip(futures, values):
            try:
                row = future.result()
            except BrokenProcessPool:
                # a worker died (killed, or out of memory): every row that
                # had not finished by then is lost with the pool
                row = _blank_row(args.param, v, "failed: worker process died")
            if row["exit_code"] != EXIT_OK:
                outcome = (row["status"] if row["exit_code"] is None
                           else f"exit code {row['exit_code']}")
                print(f"sweep row {args.param}={v!r}: {outcome}", file=sys.stderr)
            rows.append(row)

    with open(out_root / "sweep.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([SWEEP_FIELDS, *(
            [repr(float(x)) if isinstance(x, float) else "" if x is None else x
             for x in map(r.get, SWEEP_FIELDS)] for r in rows)])
    print((out_root / "sweep.csv").read_text(), end="")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are config errors (exit 4):
    argparse's own exit 2 is this program's blow-up expectation code.
    Subcommand parsers are made with the same class."""

    def error(self, message):
        raise ConfigError(self.prog, message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="pulsefield", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stationary", help="solve for the asynchronous state")
    _add_schema_args(p, *MODEL_KEYS, "coupling.K", "solver.n_theta")
    p.add_argument("--out", default="")
    p.add_argument("--rho-csv", default="", help="dump rho_star as theta,rho CSV")
    p.set_defaults(func=_cmd_stationary)

    p = sub.add_parser("simulate", help="integrate the transport equation")
    _add_schema_args(p, *MODEL_KEYS, "coupling.K", "solver.n_theta", "solver.cfl",
                     "initial.kind", "initial.kappa", "initial.mu", "initial.epsilon",
                     "solver.t_max", "output.log_stride", "solver.align_dt",
                     "run.expect_blowup", "output.snapshot_times", "output.dir",
                     required=("output.dir",))
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("certify", help="check a trajectory against the V bounds")
    _add_schema_args(p, *MODEL_KEYS)
    p.add_argument("--trajectory", required=True)
    _add_schema_args(p, "coupling.K")
    p.add_argument("--out", default="")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("finite", help="event-driven finite population run")
    _add_schema_args(p, *MODEL_KEYS, "finite.N", "coupling.K", "finite.seed",
                     "finite.n_firings", required=("finite.N",))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_finite)

    p = sub.add_parser("run", help="run a full scenario from a config file")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="override the output directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="repeat a scenario over one parameter")
    p.add_argument("--config", required=True)
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--values" in argv[:-1]:
        # argparse reads a spaced list that starts with '-' ("-0.1,-0.2") as
        # an option; the joined form is unambiguous
        i = argv.index("--values")
        argv[i:i + 2] = [f"--values={argv[i + 1]}"]
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AvalancheError as exc:
        print(f"avalanche: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnresolvedFluxError as exc:
        print(f"unresolved stationary flux: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
