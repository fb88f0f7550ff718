#!/usr/bin/env python3
"""pulsefield benchmark: four CLI workloads timed end to end, traced per module.

Run from the repository root:

    python3 bench/run.py --workload scenarios --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table

Workloads (inputs derived from --seed; see workloads.py):
    scenarios   `pulsefield run` on fig1, fig2, homoclinic, neutral_k0
    sweep_K     `pulsefield sweep --param K` at n_theta 256
    finite_tab  `pulsefield finite --model tabulated`, N=100, 200 firings
    finite_lif  `pulsefield finite --model lif`, N=1000, 1000 firings

One process runs the workload's passes back to back through
``pulsefield.cli.main`` until --seconds have been measured (at least three
passes).  pulsefield is imported before the first pass, and a slower first
pass barely moves the median, so there is no separate warm-up pass.

Times are scaled to a nominal host speed.  On a shared two-vCPU VM the
speed of a core flips between two levels about 1.6x apart, seconds at a
time, as neighbours come and go, so raw medians of whole runs minutes apart
differed by up to 1.75x.  Before every CLI call (untimed) the benchmark
times `reference_kernel`, a fixed numpy-and-interpreter loop that uses no
pulsefield code and that slows with the host as the program does.  A
scaled time is REFERENCE_S * mean(times) / mean(reference times of the
same run).  Means, not medians: with two speed levels the median of a
handful of passes jumps between them, while the mean moves smoothly with
the share of time spent at each.  A change to pulsefield moves the scaled
time as much as the raw one.  Raw pass times, their median and tail, and
every reference time stay in result.json.

With --trace 0 the last stdout line gives the end-to-end metrics: scaled
mean pass wall time, scaled mean set-up time (fresh interpreters importing
pulsefield and generating the inputs), peak RSS, the share of operations
that passed every output check, and the fig1 J0 error.
With --trace 1 untraced and traced passes alternate and the last line gives
the per-layer metrics computed from spans, plus the tracing overhead.
Everything else (environment, inputs, every pass time, failed checks)
goes to bench/out/<workload>-seed<seed>-trace<t>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
MIN_PASSES = 3            # untraced passes per run
MIN_TRACED_PASSES = 2     # with --trace 1: traced and untraced passes each
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

STEP_GRIDS = (512, 2048, 8192)
REFERENCE_S = 0.17        # reference_kernel time on an idle core of a 2-vCPU VM


def reference_kernel() -> float:
    """Seconds for a fixed loop of small-array numpy and interpreter work.

    It mixes what pulsefield's hot paths do (numpy calls on 2049-point
    arrays, float extraction, a pure-Python inner loop) and takes about
    0.17 s on an idle core of a 2-vCPU VM, 0.27 s on a contended one.
    """
    import numpy as np
    a = np.linspace(0.0, 1.0, 2049)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(12000):
        a = a + 0.25 * (np.roll(a, 1) - a)
        acc += float(a[7])
        for j in range(10):
            acc += j * 0.5
    return time.perf_counter() - t0


def load_spec() -> dict:
    """BENCHMARK.json: workload names and reasons, metric names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workload_names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", default="", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _use_checkout_sources():
    """Import pulsefield from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import pulsefield
    if Path(pulsefield.__file__).resolve().parent != (SRC / "pulsefield").resolve():
        raise SystemExit(f"pulsefield imported from {pulsefield.__file__}, not {SRC}")
    return pulsefield


def setup_probe(args) -> int:
    """Child process: time importing pulsefield and generating the inputs.

    Prints the set-up time, then a reference kernel time taken after it.
    """
    t0 = time.perf_counter()
    _use_checkout_sources()
    import workloads
    workloads.WORKLOADS[args.workload](args.seed, Path(args.setup_probe)).prepare()
    seconds = time.perf_counter() - t0
    print(json.dumps([seconds, reference_kernel()]))
    return 0


def _setup_seconds(args, workdir: Path) -> tuple:
    """Set-up times of fresh interpreters, and the reference times they took."""
    times, reference = [], []
    for i in range(SETUP_SAMPLES):
        cmd = [sys.executable, __file__, "--workload", args.workload, "--seed",
               str(args.seed), "--setup-probe", str(workdir / f"setup{i}")]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
        seconds, *ref = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(seconds)
        reference += ref
    return times, reference


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10).stdout.strip()
        return int(out) if out.isdigit() else None
    except (OSError, subprocess.SubprocessError):
        return None


def environment(pulsefield, threads_env) -> dict:
    import numpy
    import scipy
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "pulsefield": pulsefield.__version__,
        "git_commit": commit,
        "PULSEFIELD_THREADS": threads_env if threads_env is not None else "unset",
        "cache_bytes": {"L1d": _getconf("LEVEL1_DCACHE_SIZE"),
                        "L2": _getconf("LEVEL2_CACHE_SIZE"),
                        "L3": _getconf("LEVEL3_CACHE_SIZE")},
        "computed_array_bytes": {f"rho_n{n}": 8 * (n + 1)
                                 for n in (256, 1024, 2048, 8192)},
    }


def tail(samples) -> dict:
    """Highest percentile with at least ten samples beyond it (informational)."""
    n = len(samples)
    info = {"samples": n, "percentile": None, "value": None}
    if n >= 11:
        p = int(100 * (1 - 10 / n))
        info["percentile"] = p
        info["value"] = sorted(samples)[max(0, -(-p * n // 100) - 1)]
    return info


def step_microbench() -> dict:
    """µs per step of `integrate` without a reference over a fixed horizon."""
    out = {f"continuum.step_us_n{n}": None for n in STEP_GRIDS}
    try:
        from pulsefield.continuum import initial_density, integrate
        from pulsefield.models import lif_model
        model = lif_model(2.1, 2.0)
        for n in STEP_GRIDS:
            init = initial_density("vonmises", n, model, -0.1)
            per_step, spent = [], 0.0
            while len(per_step) < 3 or spent < 0.1:
                t0 = time.perf_counter()
                traj = integrate(model, -0.1, init, t_max=0.05, log_stride=10**9)
                dt = time.perf_counter() - t0
                spent += dt
                per_step.append(1e6 * dt / (traj.dense_t.size - 1))
            out[f"continuum.step_us_n{n}"] = statistics.median(per_step)
    except (ImportError, AttributeError, TypeError) as exc:
        print(f"step microbenchmark unmeasured: {exc!r}", file=sys.stderr)
    return out


def measure(args, spec) -> dict:
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    threads_env = os.environ.pop("PULSEFIELD_THREADS", None)
    setup, setup_reference = _setup_seconds(args, workdir)

    pulsefield = _use_checkout_sources()
    import workloads as wl
    from spans import Tracer, median_metrics

    work = wl.WORKLOADS[args.workload](args.seed, workdir)
    inputs = work.prepare()
    pass_dir = workdir / "pass"
    tracer = Tracer() if args.trace else None

    outcomes, untraced, traced, reference = [], [], [], []

    def sample_reference():
        reference.append(reference_kernel())

    t_start = time.perf_counter()
    while True:
        if tracer is not None and len(traced) < len(untraced):
            tracer.pass_id = len(traced)
            with tracer.installed():
                res = work.run_pass(pass_dir, sample_reference)
            traced.append(res)
        else:
            res = work.run_pass(pass_dir, sample_reference)
            untraced.append(res)
        outcomes += res.outcomes
        done = [r.seconds for r in untraced + traced]
        enough = (len(untraced) >= MIN_PASSES if tracer is None
                  else min(len(untraced), len(traced)) >= MIN_TRACED_PASSES)
        if enough and time.perf_counter() - t_start + statistics.median(done) > args.seconds:
            break
    sample_reference()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    j0s = [r.j0 for r in untraced + traced if r.j0 is not None]
    if tracer is None and not j0s:
        anchor, j0 = wl.fig1_anchor(workdir / "anchor")
        outcomes.append(anchor)
        j0s = [j0] if j0 is not None else []
    wall = [r.seconds for r in untraced]
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": inputs,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "environment": environment(pulsefield, threads_env),
        "setup_samples_s": setup, "setup_reference_s": setup_reference,
        "pass_s": wall, "pass_tail": tail(wall), "reference_s": reference,
        "call_s": [r.call_seconds for r in untraced],
        "raw_wall_s": statistics.median(wall), "raw_setup_s": statistics.median(setup),
        "failed_checks": {o.label: o.failures for o in outcomes if not o.ok},
    }
    if tracer is None:
        metrics = {
            "wall_s": REFERENCE_S * statistics.mean(wall) / statistics.mean(reference),
            "setup_s": REFERENCE_S * statistics.mean(setup) / statistics.mean(setup_reference),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": sum(o.ok for o in outcomes) / len(outcomes),
            "j0_err": abs(statistics.median(j0s) - wl.J0_REF) if j0s else None,
        }
        kind = "end_to_end"
    else:
        metrics = median_metrics(tracer.spans, tracer.missing, len(traced))
        metrics["cli.bytes_written"] = statistics.median(
            r.bytes_written for r in untraced + traced)
        traced_wall = statistics.median(r.seconds for r in traced)
        metrics["trace.overhead_frac"] = traced_wall / statistics.median(wall) - 1.0
        metrics["cli.sweep_speedup"] = 0.0
        if args.workload == "sweep_K":
            seq = wl.sequential_sweep_pass(work, pass_dir)
            outcomes += seq.outcomes
            result["sequential_sweep_s"] = seq.seconds
            metrics["cli.sweep_speedup"] = seq.seconds / statistics.median(wall)
        metrics.update(step_microbench())
        kind = "per_layer"
        result["traced_pass_s"] = [r.seconds for r in traced]
        result["unmeasured_boundaries"] = tracer.missing
        (workdir / "spans.json").write_text(json.dumps(tracer.spans))
    shutil.rmtree(pass_dir, ignore_errors=True)
    result["attempted"] = len(outcomes)
    result["failed"] = sum(not o.ok for o in outcomes)
    result["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                         for m in spec[kind]}
    (workdir / "result.json").write_text(json.dumps(result, indent=2, default=str) + "\n")
    return result


def report(result) -> None:
    """Human-readable lines, then the one-line JSON result last."""
    att, failed = result["attempted"], result["failed"]
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{len(result['pass_s'])} untraced passes {result['pass_s']}")
    print(f"  raw medians: pass {result['raw_wall_s']:.6g} s, set-up {result['raw_setup_s']:.6g} s; "
          f"reference kernel mean {statistics.mean(result['reference_s']):.6g} s "
          f"(nominal {REFERENCE_S} s)")
    for name, m in result["metrics"].items():
        value = "unmeasured" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:36s} {value:>14s} {m['unit']}")
    print(f"  {'fail_frac':36s} {failed / att:>14.6g} ratio ({failed} of {att} operations)")
    tl = result["pass_tail"]
    print(f"  pass tail: p{tl['percentile']} = {tl['value']} s over {tl['samples']} passes"
          if tl["percentile"] is not None else
          f"  pass tail: no percentile has ten of the {tl['samples']} passes beyond it")
    for label, fails in result["failed_checks"].items():
        print(f"  FAILED {label}: {'; '.join(fails)}")
    print("inputs: " + json.dumps(result["inputs"], default=str))
    print("environment: " + json.dumps(result["environment"]))
    print(json.dumps({"correct": failed == 0, "attempted": att, "failed": failed,
                      "metrics": result["metrics"]}))


def run_all(args, names) -> int:
    """Each workload in its own process (peak RSS is per process), one table."""
    rows = {}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    keys = list(next(iter(rows.values()))["metrics"]) + ["fail_frac"]
    print(f"{'metric':36s} {'unit':>6s} " + " ".join(f"{w:>12s}" for w in names))
    for key in keys:
        unit, cells = "ratio", []
        for w in names:
            r = rows[w]
            if key == "fail_frac":
                cells.append(f"{r['failed'] / r['attempted']:12.6g}")
                continue
            m = r["metrics"][key]
            unit = m["unit"]
            cells.append(f"{'unmeasured':>12s}" if m["value"] is None
                         else f"{m['value']:12.6g}")
        print(f"{key:36s} {unit:>6s} " + " ".join(cells))
    print(json.dumps(rows))
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    args = _parse_args(argv, names)
    if not (SRC / "pulsefield" / "__init__.py").is_file():
        print(f"no pulsefield sources under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args, names)
    report(measure(args, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
