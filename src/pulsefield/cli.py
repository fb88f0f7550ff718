"""Command-line surface: stationary solves, PDE runs, certification, sweeps.

Subcommands
    stationary  solve for the asynchronous state, print/emit JSON
    simulate    integrate the transport equation, emit trajectory artifacts
    certify     replay a trajectory CSV against the Lyapunov bounds
    finite      event-driven finite-N run
    run         full scenario from a config file
    sweep       repeat a scenario over one scalar parameter

Exit codes: 0 success, 2 the blow-up expectation was not met (a blow-up
the config did not expect, or an expected one that did not happen),
3 certification violation, 4 configuration error (a bad config, flag,
model parameter or field table, a command line argparse rejects, or a
finite run whose coupling ignites an avalanche: K >= x_hi - x_lo re-fires
an oscillator within one event).  A sweep whose model
cannot be built, or whose values the config rejects, exits 4 before its
first row.  Otherwise its rows run in forked worker processes, one per CPU
this process may run on (``taskset -c 0 pulsefield sweep ...`` runs them
one after another, in process); every artifact has the same bytes either
way, except the wall times in each row's summary.json.  The sweep exits 0:
sweep.csv records each row's exit code (empty for a row that raised, or
whose worker process died) and its certification violations (empty for a
row that ran no certification), and each row that did not exit 0 prints
one line on stderr, in row order, once every earlier row has finished.

A finite run formats snapshots.csv in batches of firings.  From
POOL_MIN_FLOATS phases in the whole run (N * n_firings >= 2**18) the
batches are formatted in forked worker processes, one per CPU, and written
in firing order; below that, on one CPU (``taskset -c 0``) and inside a
sweep worker, in process.  The bytes are the same either way.

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
from collections import deque
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import (ConfigError, ExperimentConfig, MODEL_KINDS, check_coupling,
                     check_finite_size, check_n_theta, check_seed)
from .continuum import (AdmissibilityVerdict, BlowupError, TrajectoryLog,
                        check_admissibility, fork_cpus, initial_density, integrate)
from .certify import certify_theorem_bounds, fit_decay_rate
from .finite import AvalancheError, simulate as finite_simulate, splay_reference
from .models import (ModelError, homoclinic_model, lif_model, load_field_table,
                     tabulated_model)
from .quantile import discrete_lyapunov, quantile_transform
from .stationary import (NoStationaryStateError, coupling_bounds,
                         existence_condition, solve_stationary_flux)

EXIT_OK = 0
EXIT_BLOWUP_EXPECTATION = 2
EXIT_CERTIFICATION = 3
EXIT_CONFIG = 4

# A finite run of at least POOL_MIN_FLOATS phases (N * n_firings, about 0.1 s
# of float repr, enough to pay for the forks) formats snapshots.csv in forked
# workers, in batches of about SNAPSHOT_BATCH_FLOATS phases (64 KiB of data):
# half that size cost 21 % more time per run.  In process a batch only
# coalesces writes, and one of LOCAL_BATCH_FLOATS phases keeps its text (about
# 75 kB) from raising the peak RSS, as 2**13 did by 0.8 MB at N = 100.
POOL_MIN_FLOATS = 2**18
SNAPSHOT_BATCH_FLOATS = 2**13
LOCAL_BATCH_FLOATS = 2**12


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_lines(path, header: str, rows: list):
    """A CSV file of a header and rows already joined by commas.  Floats as
    ``repr`` writes them and plain names need no quoting, so with \\r\\n
    line ends these are the bytes csv.writer gives."""
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([header, *rows, ""]))


def _density_csv(path, theta, rho, value_name="rho"):
    _write_lines(path, f"theta,{value_name}",
                 [f"{t!r},{r!r}" for t, r in zip(theta.tolist(), rho.tolist())])


def _quantile_csv(path, theta, rho):
    # per-knot rows; q is the segment value to the right of the knot (the
    # last knot repeats the final segment)
    prof = quantile_transform(theta, rho)
    q = np.append(prof.q_seg, prof.q_seg[-1])
    _write_lines(path, "phi,Q,q",
                 [f"{p!r},{Q!r},{qq!r}"
                  for p, Q, qq in zip(prof.phi.tolist(), prof.Q.tolist(), q.tolist())])


# -- model flags shared by several subcommands -----------------------------------


def _add_model_args(p):
    p.add_argument("--model", choices=MODEL_KINDS, default="lif")
    p.add_argument("--S", type=float, default=2.1)
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--x-lo", type=float, default=0.0)
    p.add_argument("--x-hi", type=float, default=1.0)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--lambda-u", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=2.0 * math.pi)
    p.add_argument("--table", default="", help="CSV of x,F samples (tabulated model)")


def _build_model(args):
    if args.model == "lif":
        return lif_model(args.S, args.gamma, args.x_lo, args.x_hi)
    if args.model == "homoclinic":
        return homoclinic_model(args.C, args.lambda_u, args.omega)
    if not args.table:
        raise ConfigError("model.table", "tabulated model needs --table")
    xs, fs = load_field_table(args.table)
    return tabulated_model(xs, fs)


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


def _certify(traj: TrajectoryLog, model, K: float) -> tuple:
    """certification.json's record of a trajectory (the dV/dt bound checks
    and the decay fit), and whether the trajectory passes."""
    report = certify_theorem_bounds(traj, model, K)
    cert = report.to_json()
    cert["decay_fit"] = fit_decay_rate(traj, model, K).to_json()
    return cert, report.verdict()


def run_scenario(cfg: ExperimentConfig, out_dir=None, bounds=None) -> int:
    """Stationary solve, continuum integration, certification, optional
    finite-N run; writes all artifacts under the output directory.

    ``bounds`` is the model's ``coupling_bounds`` when the caller has them
    already (a sweep computes them once for all its rows).  summary.json's
    ``timings_s`` holds the seconds spent in each of ``PHASES``: the
    stationary solve, ``integrate`` (V included), certification, the finite
    run and the artifact writes before summary.json's own."""
    out = Path(out_dir if out_dir is not None else cfg["output"]["dir"])
    out.mkdir(parents=True, exist_ok=True)
    timings = dict.fromkeys(PHASES, 0.0)
    with _timed(timings, "write"):
        _write_json(out / "resolved_config.json", cfg.resolved())

    model = cfg.build_model()
    K = cfg["coupling"]["K"]
    sol = cfg["solver"]
    summary: dict = {"K": K, "omega": model.omega,
                     "monotonicity": model.monotonicity.value,
                     "curvature": model.curvature.value, "timings_s": timings}

    # stationary state (reference for V); absence is recorded, not fatal
    reference = None
    with _timed(timings, "stationary"):
        try:
            reference = solve_stationary_flux(model, K, n_theta=sol["n_theta"])
            stat_info = {"exists": True, "J_star": reference.J_star, "r": reference.r,
                         "rho_star_mass": reference.rho_star.mass,
                         "J_interval_hi": None if math.isinf(reference.J_interval[1])
                         else reference.J_interval[1]}
        except NoStationaryStateError as exc:
            stat_info = {"exists": False, "r": exc.result.r,
                         "limit_value": exc.result.to_json()["limit_value"]}
        if model.F is not None:
            if bounds is None:
                bounds = coupling_bounds(model)
            stat_info["coupling_bounds"] = bounds.to_json()
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
        summary["admissibility"] = {"verdict": AdmissibilityVerdict.NUMERICAL_BLOWUP.value,
                                    "blowup": summary["blowup"]}
        if cfg["finite"]["enabled"]:
            summary["finite"] = "skipped: continuum blew up at t = 0"
        summary["exit_code"] = (EXIT_OK if cfg["run"]["expect_blowup"]
                                else EXIT_BLOWUP_EXPECTATION)
        _write_json(out / "summary.json", summary)
        return summary["exit_code"]

    dt = None
    if sol["align_dt"]:
        dt = initial.dtheta / model.omega
    with _timed(timings, "integrate"):
        traj = integrate(model, K, initial, t_max=sol["t_max"], cfl=sol["cfl"], dt=dt,
                         log_stride=cfg["output"]["log_stride"], reference=reference,
                         snapshot_times=cfg["output"]["snapshot_times"])
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
    adm = check_admissibility(initial, model, K, blowup=traj.blowup,
                              first_crossing_time=traj.first_crossing_time)
    summary["admissibility"] = {"verdict": adm.verdict.value, **adm.detail}

    exit_code = EXIT_OK
    if (traj.blowup is not None) != cfg["run"]["expect_blowup"]:
        exit_code = EXIT_BLOWUP_EXPECTATION
    if traj.blowup is None and cfg["run"]["expect_blowup"]:
        summary["expected_blowup_missing"] = True

    if cfg["run"]["certify"] and reference is not None and np.isfinite(traj.V).any():
        with _timed(timings, "certify"):
            cert, passed = _certify(traj, model, K)
        with _timed(timings, "write"):
            _write_json(out / "certification.json", cert)
        summary["certification"] = cert
        summary["decay_rate"] = cert["decay_fit"]["rate"]
        if not passed:
            exit_code = max(exit_code, EXIT_CERTIFICATION)

    if cfg["finite"]["enabled"]:
        fdir = out / "finite"
        fdir.mkdir(exist_ok=True)
        with _timed(timings, "finite"):
            summary["finite"] = _run_finite(model, K, cfg["finite"]["N"],
                                            cfg["finite"]["seed"],
                                            cfg["finite"]["n_firings"], fdir)

    summary["exit_code"] = exit_code
    _write_json(out / "summary.json", summary)
    return exit_code


# -- worker pool ----------------------------------------------------------------

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
    """Executor for ``n_tasks`` independent tasks, and the number of worker
    processes it forks: one per CPU ``fork_cpus`` allows, at most one per
    task.  With one worker, in a worker process (a pool is never nested),
    or where processes cannot be forked, it forks none: each task runs in
    process when submitted, and concurrent.futures is not imported."""
    workers = min(n_tasks, len(fork_cpus()))
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        fork = multiprocessing.get_context("fork")
        return ProcessPoolExecutor(workers, mp_context=fork), workers
    return _InProcess(), 0


def _snapshot_text(times, snaps) -> bytes:
    """snapshots.csv lines of a batch of firings: each firing's time, then
    its phases, every value as ``repr`` writes it (the bytes csv.writer
    with _fmt gives, about twice as fast)."""
    return "".join([",".join([repr(t), *map(repr, row.tolist())]) + "\r\n"
                    for t, row in zip(times, snaps)]).encode()


def _run_finite(model, K, N, seed, n_firings, out: Path) -> dict:
    """Finite-N run streamed to firings.csv, snapshots.csv and a V_N fold.

    Each firing's rows are written, and its V_N against the splay reference
    folded in, as it happens; its snapshot joins a batch, which
    ``_snapshot_text`` formats.  From POOL_MIN_FLOATS phases in the whole
    run the batches (of about SNAPSHOT_BATCH_FLOATS phases) are formatted
    in forked worker processes (``_pool``), at most one pending per worker,
    and written in firing order; otherwise (batches of about
    LOCAL_BATCH_FLOATS phases) in process.  The snapshots take O(N) memory
    however many firings the run takes; the run keeps its events.  A run
    that raises leaves neither CSV behind.
    """
    try:
        ref = splay_reference(N, model, K)
    except NoStationaryStateError:
        ref = None
    # V_N's first and last value, and how many steps v - v_prev were <= 1e-12
    vn = {"first": None, "last": None, "steps": 0, "down": 0}
    rows = max(1, SNAPSHOT_BATCH_FLOATS // N)
    pool, workers = _pool(-(-n_firings // rows) if N * n_firings >= POOL_MIN_FLOATS else 1)
    if not workers:
        rows = max(1, LOCAL_BATCH_FLOATS // N)
    paths = (out / "firings.csv", out / "snapshots.csv")
    try:
        with pool, open(paths[0], "w", newline="") as ff, open(paths[1], "wb") as fs:
            ff.write("t,id,absorbed\r\n")
            pending = deque()
            times, snaps = [], np.empty((rows, N))

            def submit():
                nonlocal times, snaps
                pending.append(pool.submit(_snapshot_text, times, snaps[:len(times)]))
                # a fresh batch: a forked pool pickles the arguments after
                # submit returns
                times, snaps = [], np.empty((rows, N))
                while len(pending) > workers:
                    fs.write(pending.popleft().result())

            def on_firing(t, snap, ev):
                ts = repr(float(t))
                ff.write("".join(f"{ts},{i},{ev.absorbed}\r\n" for i in ev.fired))
                snaps[len(times)] = snap
                times.append(float(t))
                if len(times) == rows:
                    submit()
                if ref is None:
                    return
                v = discrete_lyapunov(snap, ref)
                if vn["last"] is None:
                    vn["first"] = v
                else:
                    vn["steps"] += 1
                    vn["down"] += v - vn["last"] <= 1e-12
                vn["last"] = v

            run = finite_simulate(model, K, N, n_firings=n_firings, seed=seed,
                                  on_firing=on_firing)
            if times:
                submit()
            while pending:
                fs.write(pending.popleft().result())
    except BaseException:
        for path in paths:
            path.unlink(missing_ok=True)
        raise
    info: dict = {"N": N, "seed": seed, "n_events": run.n_events,
                  "full_sync_event": run.full_sync_event()}
    if ref is None:
        info["splay_reference"] = "unavailable (no stationary state)"
    else:
        info["V_N_first"] = vn["first"]
        info["V_N_last"] = vn["last"]
        info["V_N_nonincreasing_fraction"] = (vn["down"] / vn["steps"]
                                              if vn["steps"] else None)
        info["mean_firing_rate"] = run.mean_firing_rate() if run.n_events > 4 else None
    _write_json(out / "summary.json", info)
    return info


# -- subcommands -----------------------------------------------------------------


def _cmd_stationary(args) -> int:
    check_coupling(args.K)
    check_n_theta(args.ntheta)
    model = _build_model(args)
    res = existence_condition(model, args.K)
    payload = {"exists": res.exists, "r": res.r, "J_star": None, "rho_star_mass": None,
               "K_lower": None, "K_upper": None}
    if model.F is not None:
        b = coupling_bounds(model)
        payload["K_lower"] = None if b.lower_unbounded else b.lower
        payload["K_upper"] = b.upper
    if res.exists:
        stat = solve_stationary_flux(model, args.K, n_theta=args.ntheta)
        payload["J_star"] = stat.J_star
        payload["rho_star_mass"] = stat.rho_star.mass
        if args.rho_csv:
            _density_csv(args.rho_csv, stat.rho_star.theta, stat.rho_star.rho,
                         value_name="rho_star")
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "stationary.json").write_text(text + "\n")
    print(text)
    return EXIT_OK


def _args_to_config(args) -> ExperimentConfig:
    import configparser
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp["model"] = {"model": args.model, "S": str(args.S), "gamma": str(args.gamma),
                   "x_lo": str(args.x_lo), "x_hi": str(args.x_hi), "C": str(args.C),
                   "lambda_u": str(args.lambda_u), "omega": str(args.omega)}
    if args.table:
        cp["model"]["table"] = args.table
    cp["coupling"] = {"K": str(args.K)}
    cp["solver"] = {"n_theta": str(args.ntheta), "cfl": str(args.cfl),
                    "t_max": str(args.tmax), "align_dt": str(args.align_dt).lower()}
    cp["initial"] = {"kind": args.ic, "kappa": str(args.kappa), "mu": str(args.mu),
                     "epsilon": str(args.epsilon)}
    cp["output"] = {"dir": args.out, "log_stride": str(args.log_stride),
                    "snapshot_times": args.snapshots}
    cp["run"] = {"expect_blowup": str(args.expect_blowup).lower()}
    return ExperimentConfig.from_parser(cp, source="<cli>")


def _cmd_simulate(args) -> int:
    return run_scenario(_args_to_config(args))


def _cmd_certify(args) -> int:
    check_coupling(args.K)
    model = _build_model(args)
    try:
        traj = TrajectoryLog.from_csv(args.trajectory)
    except (OSError, ValueError) as exc:   # unreadable, bad header or row
        raise ConfigError("--trajectory", str(exc))
    payload, passed = _certify(traj, model, args.K)
    out = Path(args.out) if args.out else Path(args.trajectory).parent
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "certification.json", payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK if passed else EXIT_CERTIFICATION


def _cmd_finite(args) -> int:
    check_coupling(args.K)
    check_finite_size(args.N, args.nfirings)
    check_seed(args.seed)
    model = _build_model(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    info = _run_finite(model, args.K, args.N, args.seed, args.nfirings, out)
    print(json.dumps(info, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.parse(_resolve_config_path(args.config))
    return run_scenario(cfg, out_dir=args.out)


def _row_config(cfg: ExperimentConfig, param, value) -> ExperimentConfig:
    """The sweep's config with ``param`` set to ``value``, validated."""
    import copy
    row_cfg = ExperimentConfig(copy.deepcopy(cfg.values), cfg.source)
    if param == "K":
        row_cfg.values["coupling"]["K"] = float(value)
    elif param == "n_theta":
        if not float(value).is_integer():
            raise ConfigError("solver.n_theta", f"not an integer: {value!r}")
        row_cfg.values["solver"]["n_theta"] = int(value)
    elif param == "epsilon":
        row_cfg.values["initial"]["epsilon"] = float(value)
    else:
        raise ConfigError(f"sweep.{param}", "sweepable parameters: K, n_theta, epsilon")
    row_cfg._validate()
    return row_cfg


SWEEP_FIELDS = ("param", "value", "status", "exists", "J_star", "J0_final",
                "decay_rate", "t_fin", "exit_code", "cert_violations")


def _blank_row(param, value, status) -> dict:
    return {**dict.fromkeys(SWEEP_FIELDS), "param": param, "value": value,
            "status": status}


def _sweep_row(row_cfg: ExperimentConfig, param, value, out_root: Path, bounds) -> dict:
    row_dir = out_root / f"{param}={value!r}"
    row = _blank_row(param, value, "ok")
    try:
        code = run_scenario(row_cfg, out_dir=row_dir, bounds=bounds)
        summary = json.loads((row_dir / "summary.json").read_text())
        row["exists"] = summary.get("stationary", {}).get("exists")
        row["J_star"] = summary.get("stationary", {}).get("J_star")
        row["J0_final"] = summary.get("J0_final")
        row["decay_rate"] = summary.get("decay_rate")
        blow = summary.get("blowup")
        row["t_fin"] = blow["t_fin"] if blow else None
        row["exit_code"] = code
        row["cert_violations"] = (summary.get("certification") or {}).get("violations")
    except Exception as exc:   # noqa: BLE001 - row failures are data
        row["status"] = f"failed: {exc}"
        try:
            stat = json.loads((row_dir / "stationary.json").read_text())
            row["exists"] = stat.get("exists")
            row["J_star"] = stat.get("J_star")
        except OSError:
            pass
    return row


def _cmd_sweep(args) -> int:
    from concurrent.futures.process import BrokenProcessPool

    cfg = ExperimentConfig.parse(_resolve_config_path(args.config))
    try:
        values = [float(v) for v in args.values.split(",")] if args.values else []
    except ValueError as exc:
        raise ConfigError("sweep.values", str(exc))
    if len({repr(v) for v in values}) != len(values):
        raise ConfigError("sweep.values", "a repeated value would share a row directory")
    # every row's config is checked before the first row runs
    row_cfgs = [_row_config(cfg, args.param, v) for v in values]
    # no sweepable parameter changes the model: build it (a bad model or
    # table exits 4 here) and take its coupling window once for every row
    model = cfg.build_model()
    bounds = coupling_bounds(model) if model.F is not None else None
    out_root = Path(args.out or (Path(cfg["output"]["dir"]) / "sweep"))
    out_root.mkdir(parents=True, exist_ok=True)
    rows = []
    pool, _ = _pool(len(values))
    with pool:
        futures = [pool.submit(_sweep_row, c, args.param, v, out_root, bounds)
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

    _write_csv(out_root / "sweep.csv", SWEEP_FIELDS,
               ([_fmt(x) if isinstance(x, float) else "" if x is None else x
                 for x in map(r.get, SWEEP_FIELDS)] for r in rows))
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
    _add_model_args(p)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--ntheta", type=int, default=2048)
    p.add_argument("--out", default="")
    p.add_argument("--rho-csv", default="", help="dump rho_star as theta,rho CSV")
    p.set_defaults(func=_cmd_stationary)

    p = sub.add_parser("simulate", help="integrate the transport equation")
    _add_model_args(p)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--ntheta", type=int, default=2048)
    p.add_argument("--cfl", type=float, default=0.5)
    p.add_argument("--ic", choices=("uniform", "vonmises", "perturbed"),
                   default="perturbed")
    p.add_argument("--kappa", type=float, default=2.0)
    p.add_argument("--mu", type=float, default=math.pi)
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--tmax", type=float, default=10.0)
    p.add_argument("--log-stride", type=int, default=20)
    p.add_argument("--align-dt", action="store_true", dest="align_dt")
    p.add_argument("--expect-blowup", action="store_true", dest="expect_blowup")
    p.add_argument("--snapshots", default="", help="comma list of snapshot times")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("certify", help="check a trajectory against the V bounds")
    _add_model_args(p)
    p.add_argument("--trajectory", required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--out", default="")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("finite", help="event-driven finite population run")
    _add_model_args(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nfirings", type=int, default=1000)
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


if __name__ == "__main__":
    sys.exit(main())
