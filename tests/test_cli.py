import argparse
import csv
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import pulsefield
import pulsefield.cli as cli
import pulsefield.finite as finite
from pulsefield import lif_model
from pulsefield.cli import main
from pulsefield.config import ConfigError, ExperimentConfig

NEUTRAL_CFG = """
[model]
model = lif
S = 2.1
gamma = 2.0

[coupling]
K = 0.0

[solver]
scheme = upwind
n_theta = 256
cfl = 1.0
t_max = 1.5222612188617115
align_dt = true

[initial]
kind = vonmises
kappa = 2.0

[output]
dir = {out}
log_stride = 8

[run]
certify = false
"""

BLOWUP_CFG = """
[model]
model = lif
S = 2.1
gamma = 2.0

[coupling]
K = 0.1

[solver]
n_theta = 256
t_max = 50.0

[initial]
kind = vonmises
kappa = 1.0

[output]
dir = {out}

[run]
expect_blowup = {expect}
"""


def write_cfg(tmp_path, text, name="exp.cfg", **kw):
    p = tmp_path / name
    p.write_text(text.format(**kw))
    return p


def test_config_rejects_unknown_key(tmp_path):
    p = write_cfg(tmp_path, "[solver]\nn_tehta = 12\n[coupling]\nK = 0.1\n")
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.parse(p)
    assert "solver.n_tehta" in str(err.value)


def test_config_rejects_unknown_section(tmp_path):
    p = write_cfg(tmp_path, "[solvers]\nn_theta = 12\n")
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.parse(p)
    assert "solvers" in str(err.value)


def test_config_requires_coupling(tmp_path):
    p = write_cfg(tmp_path, "[model]\nmodel = lif\n")
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.parse(p)
    assert "coupling.K" in str(err.value)


def test_config_bad_value_path(tmp_path):
    p = write_cfg(tmp_path, "[coupling]\nK = fast\n")
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.parse(p)
    assert "coupling.K" in str(err.value)


def test_config_materializes_defaults(tmp_path):
    p = write_cfg(tmp_path, "[coupling]\nK = -0.1\n")
    cfg = ExperimentConfig.parse(p)
    r = cfg.resolved()
    assert r["solver"]["n_theta"] == 2048
    assert r["solver"]["scheme"] == "upwind"
    assert r["model"]["model"] == "lif"
    assert r["coupling"]["K"] == -0.1


def test_cli_exit_code_config_error(tmp_path, capsys):
    p = write_cfg(tmp_path, "[coupling]\nK = fast\n")
    assert main(["run", str(p)]) == 4
    assert "coupling.K" in capsys.readouterr().err


def test_cli_missing_config_is_config_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 4


def test_run_neutral_scenario(tmp_path, capsys):
    p = write_cfg(tmp_path, NEUTRAL_CFG, out=tmp_path / "out")
    assert main(["run", str(p)]) == 0
    out = tmp_path / "out"
    resolved = json.loads((out / "resolved_config.json").read_text())
    # the certificate's slack and pass fraction are fixed, not config keys
    assert sorted(resolved["run"]) == ["certify", "expect_blowup"]
    assert (out / "trajectory.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["blowup"] is None
    assert summary["exit_code"] == 0
    assert summary["stop_reason"] == "t_max"
    assert summary["n_steps"] == 256
    assert summary["v_eval_failures"] == 0


def test_semilagrangian_scheme_is_config_error(tmp_path, capsys):
    cfg = NEUTRAL_CFG.replace("scheme = upwind", "scheme = semilagrangian")
    p = write_cfg(tmp_path, cfg, out=tmp_path / "out")
    assert main(["run", str(p)]) == 4
    err = capsys.readouterr().err
    assert "solver.scheme" in err
    assert "upwind" in err and "align_dt = true" in err


def test_run_determinism_byte_identical(tmp_path):
    p = write_cfg(tmp_path, NEUTRAL_CFG, out=tmp_path / "a")
    assert main(["run", str(p)]) == 0
    q = write_cfg(tmp_path, NEUTRAL_CFG, name="exp2.cfg", out=tmp_path / "b")
    assert main(["run", str(q)]) == 0
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a == b


def test_unexpected_blowup_exit_code(tmp_path):
    p = write_cfg(tmp_path, BLOWUP_CFG, out=tmp_path / "out", expect="false")
    assert main(["run", str(p)]) == 2
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["blowup"]["kind"] == "flux"


def test_expected_blowup_exit_zero(tmp_path):
    p = write_cfg(tmp_path, BLOWUP_CFG, out=tmp_path / "out", expect="true")
    assert main(["run", str(p)]) == 0


def test_missing_expected_blowup_exit_code(tmp_path):
    # inhibitory coupling settles instead of blowing up: the expectation fails
    cfg = BLOWUP_CFG.replace("K = 0.1", "K = -0.1").replace("t_max = 50.0", "t_max = 2.0")
    p = write_cfg(tmp_path, cfg, out=tmp_path / "out", expect="true")
    assert main(["run", str(p)]) == 2
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["blowup"] is None
    assert summary["expected_blowup_missing"] is True
    assert summary["exit_code"] == 2
    # the bundled excitatory run does blow up, as its config expects
    assert main(["run", "fig2.cfg", "--out", str(tmp_path / "fig2")]) == 0
    summary = json.loads((tmp_path / "fig2" / "summary.json").read_text())
    assert summary["blowup"] is not None
    assert "expected_blowup_missing" not in summary


def test_bundled_configs_resolve_by_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = Path(__file__).resolve().parents[1]
    # resolution falls back to the packaged copies when no local file exists
    from pulsefield.cli import _resolve_config_path
    p = _resolve_config_path("neutral_k0.cfg")
    assert p.name == "neutral_k0.cfg"
    assert p.exists()


def test_stationary_subcommand_json(capsys):
    assert main(["stationary", "--model", "lif", "--S", "2.1", "--gamma", "2.0",
                 "--K", "-0.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exists"] is True
    assert abs(payload["J_star"] - 0.53) < 0.02
    assert payload["coupling_bounds"]["K_upper"] == 1.0
    assert payload["coupling_bounds"]["K_lower"] is None
    assert payload["r"] > 0.0


def test_stationary_interior_minimum_table(tmp_path, capsys):
    # a field whose minimum lies between the grid points of coupling_bounds
    xs = np.linspace(0.0, 1.0, 50)
    table = tmp_path / "field.csv"
    table.write_text("x,F\n" + "".join(f"{x!r},{1.0 + 0.3 * math.sin(6.0 * x)!r}\n"
                                        for x in xs.tolist()))
    assert main(["stationary", "--model", "tabulated", "--table", str(table),
                 "--K", "-0.1"]) == 0
    bounds = json.loads(capsys.readouterr().out)["coupling_bounds"]
    assert bounds["K_lower"] is None and bounds["K_upper"] == 1.0


def test_stationary_density_csv(tmp_path, capsys):
    out = tmp_path / "rho_star.csv"
    assert main(["stationary", "--model", "lif", "--S", "2.1", "--gamma", "2.0",
                 "--K", "-0.1", "--rho-csv", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,rho_star"
    assert len(lines) == 2050


def test_sweep_grid_refinement_cauchy(tmp_path):
    # terminal flux is Cauchy in the grid: successive refinements within 1e-3
    cfg = """
[model]
model = lif
S = 2.1
gamma = 2.0

[coupling]
K = -0.1

[solver]
t_max = 12.0

[initial]
kind = perturbed
epsilon = 0.2

[output]
dir = {out}

[run]
certify = false
"""
    p = write_cfg(tmp_path, cfg, out=tmp_path / "base")
    assert main(["sweep", "--config", str(p), "--param", "n_theta",
                 "--values", "512,1024,2048,4096",
                 "--out", str(tmp_path / "sw")]) == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    j_final = [float(ln.split(",")[5]) for ln in lines[1:]]
    assert all(ln.split(",")[2] == "ok" for ln in lines[1:])
    diffs = [abs(a - b) for a, b in zip(j_final, j_final[1:])]
    assert all(d < 1e-3 for d in diffs)


def test_simulate_and_certify_subcommands(tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--model", "lif", "--S", "2.1", "--gamma", "2.0",
                 "--K", "-0.1", "--ntheta", "256", "--tmax", "4.0",
                 "--ic", "perturbed", "--epsilon", "0.2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    run_cert = json.loads((out / "certification.json").read_text())
    assert main(["certify", "--trajectory", str(out / "trajectory.csv"),
                 "--model", "lif", "--S", "2.1", "--gamma", "2.0",
                 "--K", "-0.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hypothesis_met"] is True
    assert payload["fraction_ok"] >= 0.99
    # replaying the run's own log gives the run's certificate; only the flux
    # window differs, which the CSV path re-traces over SUBSTEPS per interval
    assert json.loads((out / "certification.json").read_text()) == payload
    retraced = ("J_window", "bracket", "in_bracket")
    for cert in (payload, run_cert):
        for key in retraced:
            cert["decay_fit"].pop(key)
    assert payload == run_cert


def test_certify_flags_violations(tmp_path, capsys):
    # hand-built trajectory with V growing under a contracting model
    p = tmp_path / "trajectory.csv"
    rows = ["t,J0,mass,rho_min,rho_max,V,q_min,event"]
    v = 1.0
    for i in range(12):
        rows.append(f"{0.5 * i},0.5,1.0,0.2,0.4,{v},{2 * math.pi},")
        v *= 2.0
    p.write_text("\n".join(rows) + "\n")
    code = main(["certify", "--trajectory", str(p), "--model", "lif",
                 "--S", "2.1", "--gamma", "2.0", "--K", "-0.1"])
    assert code == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] > 0


def test_finite_subcommand(tmp_path, capsys):
    out = tmp_path / "fin"
    assert main(["finite", "--N", "20", "--model", "lif", "--S", "2.1",
                 "--gamma", "2.0", "--K", "-0.1", "--seed", "3",
                 "--nfirings", "200", "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_events"] == 200
    assert (out / "firings.csv").exists()
    assert (out / "snapshots.csv").exists()


def test_run_dumps_quantile_profiles(tmp_path):
    cfg = """
[model]
model = lif
S = 2.1
gamma = 2.0

[coupling]
K = -0.1

[solver]
n_theta = 256
t_max = 1.0

[initial]
kind = vonmises
kappa = 1.0

[output]
dir = {out}
snapshot_times = 0.5
dump_quantiles = true

[run]
certify = false
"""
    p = write_cfg(tmp_path, cfg, out=tmp_path / "out")
    assert main(["run", str(p)]) == 0
    files = sorted((tmp_path / "out").glob("quantiles_t*.csv"))
    assert len(files) == 2
    lines = files[0].read_text().splitlines()
    assert lines[0] == "phi,Q,q"
    phi, q_col = [], []
    for ln in lines[1:]:
        a, b, c = ln.split(",")
        phi.append(float(a))
        q_col.append(float(c))
    import numpy as np
    # q is a quantile density: its integral over the index recovers 2*pi
    total = float(np.sum(np.asarray(q_col[:-1]) * np.diff(phi)))
    assert abs(total - 2.0 * math.pi) < 1e-8


def test_run_scenario_with_finite_block(tmp_path):
    cfg = """
[model]
model = lif
S = 2.1
gamma = 2.0

[coupling]
K = -0.1

[solver]
n_theta = 256
t_max = 2.0

[initial]
kind = perturbed
epsilon = 0.1

[output]
dir = {out}

[finite]
enabled = true
N = 25
seed = 1
n_firings = 150
"""
    p = write_cfg(tmp_path, cfg, out=tmp_path / "out")
    assert main(["run", str(p)]) == 0
    fdir = tmp_path / "out" / "finite"
    assert (fdir / "firings.csv").exists()
    info = json.loads((fdir / "summary.json").read_text())
    assert info["n_events"] == 150
    assert info["V_N_nonincreasing_fraction"] > 0.5


def test_summary_records_phase_timings(tmp_path):
    # seconds per phase go to summary.json only: each phase that ran took
    # some time, and together they fit inside the call
    cfg = TINY_CFG.replace("t_max = 0.1", "t_max = 1.0").replace(
        "certify = false", "certify = true") + "\n[finite]\nenabled = true\nN = 10\n"
    p = write_cfg(tmp_path, cfg, out=tmp_path / "out")
    t0 = time.perf_counter()
    assert main(["run", str(p)]) == 0
    wall = time.perf_counter() - t0
    timings = json.loads((tmp_path / "out" / "summary.json").read_text())["timings_s"]
    assert sorted(timings) == sorted(cli.PHASES)
    assert all(v > 0.0 for v in timings.values())
    assert sum(timings.values()) <= wall
    for f in (tmp_path / "out").rglob("*.csv"):
        assert "tim" not in f.read_text().splitlines()[0]


def test_summaries_record_versions(tmp_path, capsys, monkeypatch):
    # a run's, a sweep row's and a finite run's summary.json name the
    # package, numpy and Python; stationary.json, compared byte for byte
    # with the stationary command's, names none.  scipy is imported first, so
    # its version is recorded
    import scipy
    p = write_cfg(tmp_path, TINY_CFG + "\n[finite]\nenabled = true\nN = 10\n",
                  out=tmp_path / "out")
    assert main(["run", str(p)]) == 0
    assert main(["sweep", "--config", str(p), "--param", "K", "--values=-0.1",
                 "--out", str(tmp_path / "sw")]) == 0
    capsys.readouterr()
    paths = [tmp_path / "out" / "summary.json", tmp_path / "out" / "finite" / "summary.json",
             *(tmp_path / "sw").rglob("summary.json")]
    assert len(paths) == 4
    want = {"pulsefield": pulsefield.__version__, "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3], "scipy": scipy.__version__}
    for f in paths:
        assert json.loads(f.read_text())["versions"] == want
    assert "versions" not in json.loads((tmp_path / "out" / "stationary.json").read_text())
    # scipy is recorded only when already imported, and never imported for it
    monkeypatch.delitem(sys.modules, "scipy")
    assert cli._versions()["scipy"] is None
    assert "scipy" not in sys.modules


def test_blowup_at_start_reports_skipped_finite_run(tmp_path):
    # the continuum profile blows up at t = 0, so run_scenario stops before
    # the finite section and every snapshot time; summary.json says so
    # instead of leaving them out
    cfg = BLOWUP_CFG.replace("K = 0.1", "K = 1.5").replace(
        "dir = {out}", "dir = {out}\nsnapshot_times = 0.5, 0")
    cfg += "\n[finite]\nenabled = true\nN = 10\n"
    p = write_cfg(tmp_path, cfg, out=tmp_path / "out", expect="false")
    assert main(["run", str(p)]) == 2
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["blowup"]["t_fin"] == 0.0
    assert summary["admissibility"] == {"verdict": "inadmissible_numerically",
                                        "blowup": summary["blowup"]}
    assert summary["finite"] == "skipped: continuum blew up at t = 0"
    assert summary["snapshot_times_unmet"] == [0.0, 0.5]
    assert summary["timings_s"]["integrate"] == summary["timings_s"]["finite"] == 0.0
    assert not (tmp_path / "out" / "finite").exists()


@pytest.mark.parametrize("name,verdict", [
    ("fig1.cfg", "admissible_boundary_sign"),
    ("homoclinic.cfg", "admissible_below_bound"),
    ("neutral_k0.cfg", "admissible_boundary_sign"),
    ("fig2.cfg", "admissible_numerically"),
])
def test_bundled_scenario_admissibility(tmp_path, monkeypatch, name, verdict):
    # read from the run itself: fig2's characteristic from theta = 0 crosses
    # before its flux blows up; every bundled snapshot time is met
    monkeypatch.chdir(tmp_path)
    assert main(["run", name, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["snapshot_times_unmet"] == []
    adm = summary["admissibility"]
    assert adm["verdict"] == verdict
    # rho(0)/rho(0+): the density jump each bundled start carries at theta = 0+
    jump = {"fig1.cfg": 0.9124, "fig2.cfg": 1.2222, "homoclinic.cfg": 0.9728,
            "neutral_k0.cfg": 1.0}[name]
    assert summary["initial"]["boundary_jump"] == pytest.approx(jump, abs=5e-5)
    if name == "homoclinic.cfg":
        assert adm["margin"] == pytest.approx(1.12, abs=0.005)
    if name == "fig2.cfg":
        assert adm["first_crossing_time"] == summary["first_crossing_time"]
        assert adm["first_crossing_time"] == pytest.approx(1.3386, abs=1e-4)
        assert summary["blowup"]["t_fin"] == pytest.approx(1.6753, abs=1e-4)


def test_blowup_time_agrees_across_artifacts(tmp_path, monkeypatch):
    # one blow-up time: the trajectory.csv row, summary.json's t_final and
    # blowup.t_fin, and the event certify --trajectory rebuilds from the row
    from pulsefield.continuum import TrajectoryLog
    monkeypatch.chdir(tmp_path)
    assert main(["run", "fig2.cfg", "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    back = TrajectoryLog.from_csv(tmp_path / "out" / "trajectory.csv").blowup
    assert back.kind == summary["blowup"]["kind"] == "flux"
    assert back.t_fin == summary["blowup"]["t_fin"] == summary["t_final"]


def test_run_ending_before_first_crossing_is_undecided(tmp_path):
    cfg = BLOWUP_CFG.replace("t_max = 50.0", "t_max = 0.2")
    p = write_cfg(tmp_path, cfg, out=tmp_path / "out", expect="false")
    assert main(["run", str(p)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["blowup"] is None and summary["first_crossing_time"] is None
    assert summary["admissibility"] == {"verdict": "undecided_run_ended_first"}


@pytest.mark.parametrize("case", ["flag", "config", "blowup"])
def test_unmet_snapshot_times_are_recorded(tmp_path, monkeypatch, capsys, case):
    # a time past t_max, or after a blow-up, is never reached: summary.json
    # lists it, sorted, and no density file is written for it
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    if case == "flag":
        argv = ["simulate", "--K", "-0.1", "--tmax", "1", "--ntheta", "256",
                "--snapshots=5,0.5", "--out", str(out)]
        met, unmet = [0.5, 1.0], [5.0]
    elif case == "config":
        cfg = TINY_CFG.replace("dump_density = false", "snapshot_times = 1, 0.05, 0.5")
        argv = ["run", str(write_cfg(tmp_path, cfg, out=out))]
        met, unmet = [0.05, 0.1], [0.5, 1.0]
    else:
        cfg = BLOWUP_CFG.replace("dir = {out}", "dir = {out}\nsnapshot_times = 40, 0.5")
        argv = ["run", str(write_cfg(tmp_path, cfg, out=out, expect="true"))]
        met, unmet = [0.5, 1.6466], [40.0]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text())
    assert summary["snapshot_times_unmet"] == unmet
    assert (summary["stop_reason"] == "blowup") == (case == "blowup")
    # the met times' snapshots (at the first step past each) and the final state
    written = sorted(float(f.name[len("density_t"):-len(".csv")])
                     for f in out.glob("density_t*.csv"))
    assert written == pytest.approx(met, abs=0.02)


def test_sweep_empty_values(tmp_path, capsys):
    p = write_cfg(tmp_path, NEUTRAL_CFG, out=tmp_path / "out")
    assert main(["sweep", "--config", str(p), "--param", "K", "--values", "",
                 "--out", str(tmp_path / "sw")]) == 0
    text = (tmp_path / "sw" / "sweep.csv").read_text()
    assert text.splitlines()[0].startswith("param,value")
    assert len(text.splitlines()) == 1


def test_sweep_existence_flags(tmp_path):
    cfg = """
[model]
model = lif
S = 2.1
gamma = 2.0

[coupling]
K = -0.1

[solver]
n_theta = 128
t_max = 0.5

[initial]
kind = vonmises
kappa = 0.5

[output]
dir = {out}

[run]
certify = false
expect_blowup = true
"""
    p = write_cfg(tmp_path, cfg, out=tmp_path / "base")
    assert main(["sweep", "--config", str(p), "--param", "K",
                 "--values", "0.9,0.99,1.01,1.1",
                 "--out", str(tmp_path / "sw")]) == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    flags = [ln.split(",")[3] for ln in lines[1:]]
    assert flags == ["True", "True", "False", "False"]


def test_finite_csv_artifacts_exact(tmp_path, capsys, simulate_kept):
    # every value parses back to the run's float; the bytes are those of
    # csv.writer with repr-formatted floats
    out = tmp_path / "fin"
    assert main(["finite", "--N", "16", "--model", "lif", "--S", "2.1",
                 "--gamma", "2.0", "--K", "-0.1", "--seed", "5",
                 "--nfirings", "40", "--out", str(out)]) == 0
    capsys.readouterr()
    run, times, snaps = simulate_kept(lif_model(2.1, 2.0), -0.1, 16, n_firings=40,
                                      seed=5)
    rows = (out / "snapshots.csv").read_text().splitlines()
    assert len(rows) == len(snaps)
    for line, ts, snap in zip(rows, times, snaps):
        vals = [float(v) for v in line.split(",")]
        assert vals[0] == ts
        assert vals[1:] == snap.tolist()

    want = _expected_csv_artifacts(run, times, snaps)
    assert {f: (out / f).read_bytes() for f in want} == want


def _expected_csv_artifacts(run, times, snaps) -> dict:
    """A finite run's CSVs as csv.writer writes them with repr-formatted
    floats."""
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow(["t", "id", "absorbed"])
    for ev in run.events:
        for i in ev.fired:
            w.writerow([repr(float(ev.t)), i, ev.absorbed])
    files = {"firings.csv": ref.getvalue().encode()}
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    for ts, snap in zip(times, snaps):
        w.writerow([repr(float(ts))] + [repr(float(v)) for v in snap])
    files["snapshots.csv"] = ref.getvalue().encode()
    return files


def test_certify_nothing_checked_fails(tmp_path, capsys):
    # a trajectory without a reference has V all NaN: no interval is checked
    p = tmp_path / "trajectory.csv"
    rows = ["t,J0,mass,rho_min,rho_max,V,q_min,event"]
    for i in range(12):
        rows.append(f"{0.5 * i},0.5,1.0,0.2,0.4,nan,{2 * math.pi},")
    p.write_text("\n".join(rows) + "\n")
    code = main(["certify", "--trajectory", str(p), "--model", "lif",
                 "--S", "2.1", "--gamma", "2.0", "--K", "-0.1"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["intervals_checked"] == 0
    assert code == 3


def test_run_with_every_v_undefined_certifies_nothing_and_fails(tmp_path):
    # a start so sharp that every logged row has a zero plateau: V is undefined
    # on all of them, yet the run certifies (checking nothing, which fails)
    # and the subnormal tail's q = inf comes with no overflow warning
    out = tmp_path / "s1"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--K", "-0.1", "--ic", "vonmises", "--kappa", "2000",
                     "--tmax", "0.3", "--ntheta", "256", "--out", str(out)])
    assert code == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["v_eval_failures"] == 7
    assert summary["V_first"] is None and summary["V_final"] is None
    cert = json.loads((out / "certification.json").read_text())
    assert cert["intervals_checked"] == 0
    # a certificate that checked nothing does not read like a pass
    assert cert["fraction_ok"] is None and cert["lemma_ok"] is None
    assert cert["unchecked_reason"] == "V is undefined on every interval"
    assert summary["certification"] == cert
    assert summary["exit_code"] == 3


TINY_CFG = """
[model]
model = lif
S = 2.1
gamma = 2.0

[coupling]
K = -0.1

[solver]
n_theta = 64
t_max = 0.1

[initial]
kind = vonmises
kappa = 1.0

[output]
dir = {out}
dump_density = false

[run]
certify = false
"""


def test_sweep_close_values_get_own_dirs(tmp_path, capsys):
    # K values equal under %g must not share a row directory
    p = write_cfg(tmp_path, TINY_CFG, out=tmp_path / "base")
    assert main(["sweep", "--config", str(p), "--param", "K",
                 "--values=-0.1000001,-0.1000002",
                 "--out", str(tmp_path / "sw")]) == 0
    capsys.readouterr()
    summaries = sorted((tmp_path / "sw").glob("*/summary.json"))
    ks = sorted(json.loads(s.read_text())["K"] for s in summaries)
    assert ks == [-0.1000002, -0.1000001]


@pytest.mark.parametrize("flag", [["--values", "-0.1,-0.2"], ["--values=-0.1,-0.2"]])
def test_sweep_negative_values(tmp_path, capsys, flag):
    # a spaced list starting with '-' is a value, not an option
    p = write_cfg(tmp_path, TINY_CFG, out=tmp_path / "base")
    assert main(["sweep", "--config", str(p), "--param", "K", *flag,
                 "--out", str(tmp_path / "sw")]) == 0
    capsys.readouterr()
    rows = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()[1:]
    assert [r.split(",")[:3] for r in rows] == [["K", "-0.1", "ok"], ["K", "-0.2", "ok"]]


@pytest.mark.parametrize("param,values", [
    ("K", "-0.1,-0.1"), ("K", "-0.1,fast"),
    # every row is applied and validated before the first one runs: a grid
    # the solver rejects, or a non-integer one, is a config error
    ("n_theta", "4,64"), ("n_theta", "64,64.7"), ("n_theta", "64,nan"),
    # the grid parameter has one name: ntheta is not a second one
    ("ntheta", "64,128"),
    # --param is a SCHEMA key, as section.key or bare; each value is read by
    # the key's own parser, as in a config file (n_theta = 512.0 is refused)
    ("bogus", "1,2"), ("solver.bogus", "1,2"), ("n_theta", "256,512.0"),
    # TINY_CFG starts from vonmises, which does not read epsilon
    ("epsilon", "0.1,0.5")],
    ids=["-0.1,-0.1", "-0.1,fast", "n_theta=4,64", "n_theta=64,64.7", "n_theta=64,nan",
         "ntheta=64,128", "bogus=1,2", "solver.bogus=1,2", "n_theta=256,512.0",
         "epsilon_vonmises=0.1,0.5"])
def test_sweep_bad_values_config_error(tmp_path, capsys, param, values):
    p = write_cfg(tmp_path, TINY_CFG, out=tmp_path / "base")
    assert main(["sweep", "--config", str(p), "--param", param,
                 f"--values={values}", "--out", str(tmp_path / "sw")]) == 4
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("argv", [
    ["finite", "--N", "20", "--K", "-0.1", "--out", "{out}", "--bogus"],
    ["simulate", "--K", "-0.1", "--out", "{out}", "--log-stride", "x"],
    # argparse reads "-inf" as a flag, so --tmax has no value
    ["simulate", "--K", "-0.1", "--out", "{out}", "--tmax", "-inf"],
    # the certificate's slack and pass fraction are fixed, and upwind is the
    # only scheme: none of these is a flag
    ["certify", "--K", "-0.1", "--trajectory", "{out}/trajectory.csv", "--tol-abs", "1"],
    ["certify", "--K", "-0.1", "--trajectory", "{out}/trajectory.csv",
     "--min-fraction", "0.5"],
    ["simulate", "--K", "-0.1", "--out", "{out}", "--scheme", "upwind"]],
    ids=["finite_bogus_flag", "simulate_log_stride_x", "simulate_tmax_-inf",
         "certify_tol_abs", "certify_min_fraction", "simulate_scheme"])
def test_usage_error_exits_config(tmp_path, capsys, argv):
    # argparse's own exit code, 2, is the blow-up expectation's
    out = tmp_path / "out"
    assert main([a.format(out=out) for a in argv]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: pulsefield")
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


def test_usage_error_and_help_process_exit_codes(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(pulsefield.__file__).parents[1]))
    cmd = [sys.executable, "-m", "pulsefield"]
    bad = subprocess.run([*cmd, "finite", "--N", "20", "--K", "-0.1",
                          "--out", str(tmp_path / "out"), "--bogus"],
                         env=env, capture_output=True, text=True)
    assert bad.returncode == 4
    assert bad.stderr.splitlines() == [
        "config error: pulsefield: unrecognized arguments: --bogus"]
    helped = subprocess.run([*cmd, "simulate", "--help"], env=env, capture_output=True,
                            text=True)
    assert helped.returncode == 0 and "--log-stride" in helped.stdout
    assert helped.stderr == ""


MODEL_FLAGS = ["--model", "--S", "--gamma", "--x-lo", "--x-hi", "--C", "--lambda-u",
               "--omega", "--table"]
COMMAND_FLAGS = {
    "stationary": ["-h", "--help", *MODEL_FLAGS, "--K", "--ntheta", "--out", "--rho-csv"],
    "simulate": ["-h", "--help", *MODEL_FLAGS, "--K", "--ntheta", "--cfl", "--ic", "--kappa",
                 "--mu", "--epsilon", "--tmax", "--log-stride", "--align-dt",
                 "--expect-blowup", "--snapshots", "--out"],
    "certify": ["-h", "--help", *MODEL_FLAGS, "--trajectory", "--K", "--out"],
    "finite": ["-h", "--help", *MODEL_FLAGS, "--N", "--K", "--seed", "--nfirings", "--out"],
}


def test_command_flags_are_schema_keys(tmp_path, capsys):
    # the flags are generated from SCHEMA but keep every existing spelling,
    # and a flag left out takes its key's SCHEMA default
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for name, flags in COMMAND_FLAGS.items():
        assert [f for a in sub.choices[name]._actions for f in a.option_strings] == flags
    out = str(tmp_path / "sim")
    assert main(["simulate", "--K", "-0.1", "--out", out]) == 0
    capsys.readouterr()
    want = ExperimentConfig.from_values({"coupling.K": -0.1, "output.dir": out},
                                        source="<cli>").resolved()
    assert (tmp_path / "sim" / "resolved_config.json").read_text() == \
        json.dumps(want, indent=2, sort_keys=True) + "\n"


def test_simulate_flags_match_run_config(tmp_path, capsys, monkeypatch):
    # simulate with every flag that a lif model reads, and run on a config
    # of the same values, write the same artifacts, each into ./out of its
    # own working directory
    sim, run = tmp_path / "sim", tmp_path / "run"
    sim.mkdir()
    run.mkdir()
    argv = ["simulate", "--model", "lif", "--S", "2.3", "--gamma", "1.9", "--x-lo", "0.1",
            "--x-hi", "1.2", "--K", "-0.15", "--ntheta", "128", "--cfl", "0.7",
            "--ic", "vonmises", "--kappa", "1.5", "--mu", "3.0",
            "--tmax", "1.0", "--log-stride", "5", "--align-dt", "--expect-blowup",
            "--snapshots", "0.25,0.5", "--out", "out"]
    cfg = write_cfg(tmp_path, """
[model]
model = lif
S = 2.3
gamma = 1.9
x_lo = 0.1
x_hi = 1.2
[coupling]
K = -0.15
[solver]
n_theta = 128
cfl = 0.7
t_max = 1.0
align_dt = true
[initial]
kind = vonmises
kappa = 1.5
mu = 3.0
[output]
dir = out
log_stride = 5
snapshot_times = 0.25, 0.5
[run]
expect_blowup = true
""")
    codes = []
    for cwd, command in ((sim, argv), (run, ["run", str(cfg)])):
        monkeypatch.chdir(cwd)
        codes.append(main(command))
    assert codes[0] == codes[1]
    capsys.readouterr()
    sim, run = sim / "out", run / "out"
    names = sorted(f.name for f in sim.iterdir())
    assert names == sorted(f.name for f in run.iterdir())
    compared = [n for n in names if n.endswith(".csv")] + ["stationary.json",
                                                           "certification.json"]
    # two snapshots and the final state
    assert "trajectory.csv" in compared
    assert len([n for n in names if n.startswith("density_t")]) == 3
    for name in compared:
        assert (sim / name).read_bytes() == (run / name).read_bytes(), name
    resolved = [json.loads((d / "resolved_config.json").read_text()) for d in (sim, run)]
    assert [r.pop("_source") for r in resolved] == ["<cli>", str(cfg)]
    assert resolved[0] == resolved[1]


@pytest.mark.parametrize("case", ["lif_field_nonpositive", "table_missing"])
def test_sweep_bad_model_exits_config(tmp_path, capsys, case):
    # the model is built once, before any row: a bad one is a config error,
    # not a sweep of failed rows
    text = {"lif_field_nonpositive": TINY_CFG.replace("S = 2.1", "S = 1.5"),
            "table_missing": TINY_CFG.replace(
                "model = lif", f"model = tabulated\ntable = {tmp_path / 'nope.csv'}"),
            }[case]
    p = write_cfg(tmp_path, text, out=tmp_path / "base")
    assert main(["sweep", "--config", str(p), "--param", "K", "--values=-0.1,-0.2",
                 "--out", str(tmp_path / "sw")]) == 4
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("command", ["simulate", "run", "sweep"])
def test_aligned_step_with_excitatory_coupling_is_config_error(tmp_path, capsys, command):
    # the aligned step dtheta/omega exceeds the CFL limit once K*Z*J0 > 0,
    # which ended the run in a CFLError traceback after its stationary
    # record: exit 4 with one line, before any directory is made (a K sweep
    # before its first row)
    out = tmp_path / "out"
    aligned = TINY_CFG.replace("t_max = 0.1", "t_max = 0.1\nalign_dt = true")
    argv = {"simulate": ["simulate", "--K", "0.1", "--ntheta", "64", "--tmax", "0.5",
                         "--align-dt", "--out", str(out)],
            "run": ["run", str(write_cfg(tmp_path, aligned.replace("K = -0.1", "K = 0.1"),
                                         out=out))],
            "sweep": ["sweep", "--config", str(write_cfg(tmp_path, aligned, "sweep.cfg",
                                                           out=tmp_path / "b")),
                      "--param", "K", "--values=-0.1,0.1", "--out", str(out)]}[command]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "config error: solver.align_dt" in err
    assert not out.exists() and not (tmp_path / "b").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_homoclinic_finite_run_is_config_error(tmp_path, capsys, command):
    # the homoclinic model has no vector field for a finite run, which the
    # run found only after writing the whole continuum: exit 4 with one
    # line, before any artifact (a sweep before its first row)
    out = tmp_path / "out"
    text = TINY_CFG.replace("model = lif\nS = 2.1\ngamma = 2.0", "model = homoclinic") \
        + "\n[finite]\nenabled = true\n"
    argv = {"run": ["run", str(write_cfg(tmp_path, text, out=out))],
            "sweep": ["sweep", "--config", str(write_cfg(tmp_path, text, "sweep.cfg",
                                                           out=tmp_path / "b")),
                      "--param", "K", "--values=-0.1,-0.2", "--out", str(out)]}[command]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "config error: finite.enabled" in err
    assert not out.exists() and not (tmp_path / "b").exists()


def test_sweep_rows_record_coupling_bounds(tmp_path, capsys):
    # K leaves the model alone, so every row records the model's one
    # coupling window
    p = write_cfg(tmp_path, TINY_CFG, out=tmp_path / "base")
    assert main(["sweep", "--config", str(p), "--param", "K",
                 "--values=-0.05,-0.1,-0.2", "--out", str(tmp_path / "sw")]) == 0
    capsys.readouterr()
    want = cli.coupling_bounds(lif_model(2.1, 2.0)).to_json()
    rows = sorted((tmp_path / "sw").glob("K=*/stationary.json"))
    assert len(rows) == 3
    for r in rows:
        assert json.loads(r.read_text())["coupling_bounds"] == want


def test_sweep_any_schema_key(tmp_path, capsys):
    # --param takes any SCHEMA key (every bare key names one section.key);
    # each row's config is the base config with that key set
    from pulsefield.config import KEY_PATHS, SCHEMA
    assert len(KEY_PATHS) == sum(map(len, SCHEMA.values()))
    p = write_cfg(tmp_path, TINY_CFG + "\n[finite]\nenabled = true\nn_firings = 20\n",
                  out=tmp_path / "base")
    sweeps = {"solver.cfl": ("0.5", "1.0"), "finite.N": ("10", "20"), "S": ("2.1", "2.6")}
    for param, values in sweeps.items():
        out = tmp_path / param
        assert main(["sweep", "--config", str(p), "--param", param,
                     f"--values={','.join(values)}", "--out", str(out)]) == 0
        assert [ln.split(",")[:3] for ln in (out / "sweep.csv").read_text().splitlines()[1:]] \
            == [[param, v, "ok"] for v in values]
        assert sorted(d.name for d in out.iterdir() if d.is_dir()) == \
            [f"{param}={v}" for v in values]
    capsys.readouterr()
    rows = [tmp_path / "solver.cfl" / f"solver.cfl={v}" for v in ("0.5", "1.0")]
    assert [json.loads((r / "resolved_config.json").read_text())["solver"]["cfl"]
            for r in rows] == [0.5, 1.0]
    assert (rows[0] / "trajectory.csv").read_bytes() != (rows[1] / "trajectory.csv").read_bytes()
    for n in (10, 20):
        finite = tmp_path / "finite.N" / f"finite.N={n}" / "finite" / "summary.json"
        assert json.loads(finite.read_text())["N"] == n
    # a swept model key gives each row its own model's coupling window
    for S in (2.1, 2.6):
        stat = json.loads((tmp_path / "S" / f"S={S!r}" / "stationary.json").read_text())
        assert stat["coupling_bounds"] == cli.coupling_bounds(lif_model(S, 2.0)).to_json()


GOLDEN_FIG1 = Path(__file__).parent / "data" / "fig1_n256_t2.csv"
GOLDEN_FIG1_CFL1 = Path(__file__).parent / "data" / "fig1_n256_t2_cfl1.csv"
# the Courant number and log stride GOLDEN_FIG1 was written with; the bundled
# fig1.cfg steps at Courant number 1 and logs every 10 steps
AT_CFL_HALF = (("cfl = 1.0", "cfl = 0.5"), ("log_stride = 10", "log_stride = 20"))


def _fig1_small_cfg(tmp_path, rewrites=AT_CFL_HALF):
    # bundled fig1 at n_theta 256 and t_max 2; the golden file is this run's
    # trajectory.csv: `pulsefield run <this cfg>` reproduces it
    from pulsefield.cli import _resolve_config_path
    text = _resolve_config_path("fig1.cfg").read_text()
    for old, new in (("n_theta = 2048", "n_theta = 256"), ("t_max = 12.0", "t_max = 2.0"),
                     ("dir = out/fig1", f"dir = {tmp_path / 'out'}"), *rewrites):
        assert old in text
        text = text.replace(old, new)
    p = tmp_path / "fig1_small.cfg"
    p.write_text(text)
    return p


def _assert_matches_golden(path, golden):
    # a relative tolerance rather than bytes, since SIMD exp/log may differ
    # by an ulp between CPUs
    with open(golden, newline="") as fh:
        want = list(csv.reader(fh))
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == want[0] and got[0][-1] == "event"
    assert len(got) == len(want) > 30
    for g, w in zip(got[1:], want[1:]):
        assert g[-1] == w[-1]
        for gv, wv in zip(g[:-1], w[:-1]):
            gv, wv = float(gv), float(wv)
            assert gv == wv or abs(gv - wv) <= 1e-12 * abs(wv), (g, w)


def test_fig1_trajectory_matches_golden(tmp_path):
    # pins the stepping kernel and V to the committed trajectory, at the
    # settings it was recorded with (Courant number 0.5, every 20th step)
    assert main(["run", str(_fig1_small_cfg(tmp_path))]) == 0
    _assert_matches_golden(tmp_path / "out" / "trajectory.csv", GOLDEN_FIG1)


def test_certified_run_calls_no_lapack(tmp_path, monkeypatch):
    # the decay fit is a closed-form line: a certified run needs no
    # least-squares solver
    def refuse(*args, **kw):
        raise AssertionError("LAPACK least squares called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(np, "polyfit", refuse)
    assert main(["run", str(_fig1_small_cfg(tmp_path, rewrites=()))]) == 0
    cert = json.loads((tmp_path / "out" / "certification.json").read_text())
    assert cert["intervals_checked"] > 0 and cert["decay_fit"]["in_bracket"]


@pytest.mark.parametrize("name", ["fig1.cfg", "fig2.cfg", "homoclinic.cfg"])
def test_bundled_decay_fit_matches_least_squares(tmp_path, monkeypatch, name):
    # the closed-form slope against numpy's least-squares fit of the same
    # logged floats: within 1e-15 relative, and on the same side of the
    # bracket; fig2 grows, and its rate lies in the mirror bracket
    from pulsefield.certify import V_FLOOR
    from pulsefield.continuum import TrajectoryLog
    monkeypatch.chdir(tmp_path)
    assert main(["run", name, "--out", str(tmp_path / "out")]) == 0
    fit = json.loads((tmp_path / "out" / "certification.json").read_text())["decay_fit"]
    traj = TrajectoryLog.from_csv(tmp_path / "out" / "trajectory.csv")
    t, V = traj.t, traj.V
    lo, hi = fit["window"]
    mask = (t >= lo) & (t <= hi) & np.isfinite(V) & (V > V_FLOOR)
    assert mask.sum() == fit["n_points"] > 100
    oracle = -np.polyfit(t[mask], np.log(V[mask]), 1)[0]
    assert abs(fit["rate"] - oracle) <= 1e-15 * abs(oracle)
    assert fit["in_bracket"] == (fit["bracket"][0] <= oracle <= fit["bracket"][1])
    assert fit["in_bracket"]


def test_fig1_cfl1_trajectory_matches_golden(tmp_path):
    # the bundled path as shipped: Courant number 1, every 10th step logged;
    # fig1 has no blow-up, so the file pins the kernel and V alone
    assert main(["run", str(_fig1_small_cfg(tmp_path, rewrites=()))]) == 0
    _assert_matches_golden(tmp_path / "out" / "trajectory.csv", GOLDEN_FIG1_CFL1)


@pytest.mark.parametrize("case", ["table_nonpositive", "table_missing", "lif_field_nonpositive",
                                  "N=1", "N=0", "nfirings=0", "K=nan", "seed=-1",
                                  "out_under_file"])
def test_finite_bad_input_exits_config(tmp_path, capsys, case):
    table = tmp_path / "field.csv"
    table.write_text("x,F\n0.0,1.0\n0.5,-0.1\n1.0,1.0\n")
    # a directory cannot be created below a regular file
    blocker = tmp_path / "file"
    blocker.write_text("")
    extra = {
        "table_nonpositive": ["--model", "tabulated", "--table", str(table)],
        "table_missing": ["--model", "tabulated", "--table", str(tmp_path / "nope.csv")],
        "lif_field_nonpositive": ["--model", "lif", "--S", "1.0"],
        "N=1": ["--N", "1"],
        "N=0": ["--N", "0"],
        "nfirings=0": ["--nfirings", "0"],
        "K=nan": ["--K", "nan"],
        "seed=-1": ["--seed", "-1"],
        "out_under_file": ["--out", str(blocker / "fin")],
    }[case]
    # later flags override the defaults given first
    assert main(["finite", "--N", "20", "--K", "-0.1", "--nfirings", "10",
                 "--out", str(tmp_path / "fin"), *extra]) == 4
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    if case == "out_under_file":
        assert err.startswith("config error: --out:")


@pytest.mark.parametrize("case", ["simulate:output.log_stride=0", "simulate:solver.t_max=inf",
                                  "simulate:solver.t_max=nan", "run:output.log_stride=0",
                                  "run:finite.seed=-1", "run:solver.t_max=inf",
                                  "run:run.certify_tol_abs=1",
                                  "simulate:output.dir=under_file",
                                  "run:output.dir=under_file",
                                  "simulate:model.omega=6", "simulate:model.table=lif",
                                  "simulate:model.S=homoclinic", "run:model.C=1.5",
                                  "run:model.S=tabulated",
                                  "simulate:initial.epsilon=nan",
                                  "simulate:initial.kappa=nan", "simulate:initial.mu=inf",
                                  "run:initial.kappa=inf",
                                  "simulate:initial.epsilon=vonmises",
                                  "run:initial.kappa=perturbed",
                                  "simulate:output.snapshot_times=nan",
                                  "simulate:output.snapshot_times=inf",
                                  "simulate:output.snapshot_times=-1",
                                  "run:output.snapshot_times=nan",
                                  "run:output.snapshot_times=-1"])
def test_simulate_run_bad_input_exits_config(tmp_path, capsys, case):
    # a zero stride or a negative seed used to raise, an infinite or NaN
    # t_max ran toward max_steps, and an output directory below a regular
    # file raised NotADirectoryError; a model key the model kind does not
    # read ran without it, and a NaN epsilon or kappa blamed initial.kind;
    # an initial key the initial kind does not read ran without it too; a
    # NaN snapshot time hid every later one, an infinite one never came and
    # a negative one gave a first-step snapshot
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str((blocker if case.endswith("under_file") else tmp_path) / "out")
    simulate = ["simulate", "--K", "-0.1", "--ntheta", "64", "--tmax", "0.1", "--out", out]
    run_cfg = {
        "run:output.log_stride=0": TINY_CFG.replace("dump_density = false",
                                                    "dump_density = false\nlog_stride = 0"),
        "run:finite.seed=-1": TINY_CFG + "\n[finite]\nenabled = true\nseed = -1\n",
        "run:solver.t_max=inf": TINY_CFG.replace("t_max = 0.1", "t_max = inf"),
        # the certificate's slack is fixed: an unknown key like any other
        "run:run.certify_tol_abs=1": TINY_CFG + "certify_tol_abs = 1\n",
        "run:output.dir=under_file": TINY_CFG,
        "run:model.C=1.5": TINY_CFG.replace("gamma = 2.0", "gamma = 2.0\nC = 1.5"),
        "run:model.S=tabulated": TINY_CFG.replace("model = lif",
                                                  "model = tabulated\ntable = f.csv"),
        "run:initial.kappa=inf": TINY_CFG.replace("kappa = 1.0", "kappa = inf"),
        "run:initial.kappa=perturbed": TINY_CFG.replace("vonmises", "perturbed"),
        "run:output.snapshot_times=nan": TINY_CFG.replace(
            "dump_density = false", "dump_density = false\nsnapshot_times = 0.05, nan"),
        "run:output.snapshot_times=-1": TINY_CFG.replace(
            "dump_density = false", "dump_density = false\nsnapshot_times = -1"),
    }
    vonmises = [*simulate, "--ic", "vonmises"]
    argv = {
        "simulate:output.log_stride=0": [*simulate, "--log-stride", "0"],
        "simulate:solver.t_max=inf": [*simulate, "--tmax", "inf"],
        "simulate:solver.t_max=nan": [*simulate, "--tmax", "nan"],
        "simulate:output.dir=under_file": simulate,
        "simulate:model.omega=6": [*simulate, "--omega", "6.0"],
        "simulate:model.table=lif": [*simulate, "--table", "f.csv"],
        "simulate:model.S=homoclinic": [*simulate, "--model", "homoclinic", "--S", "2.1"],
        "simulate:initial.epsilon=nan": [*simulate, "--epsilon", "nan"],
        "simulate:initial.kappa=nan": [*vonmises, "--kappa", "nan"],
        "simulate:initial.mu=inf": [*vonmises, "--mu", "inf"],
        "simulate:initial.epsilon=vonmises": [*vonmises, "--epsilon", "0.3"],
        "simulate:output.snapshot_times=nan": [*simulate, "--snapshots=nan,0.05"],
        "simulate:output.snapshot_times=inf": [*simulate, "--snapshots=inf"],
        "simulate:output.snapshot_times=-1": [*simulate, "--snapshots=-1"],
    }.get(case) or ["run", str(write_cfg(tmp_path, run_cfg[case], out=out))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no numpy warning before the refusal
        assert main(argv) == 4
    err = capsys.readouterr().err
    key = case.split(":")[1].split("=")[0]
    assert err.startswith(f"config error: {key}:")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("key,value", [("N", "1"), ("n_firings", "0")])
def test_config_finite_size_validated(tmp_path, key, value):
    p = write_cfg(tmp_path, f"[coupling]\nK = -0.1\n[finite]\n{key} = {value}\n")
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.parse(p)
    assert f"finite.{key}" in str(err.value)


@pytest.mark.parametrize("case", ["stationary_ntheta=-5", "stationary_ntheta=0",
                                  "stationary_K=nan",
                                  "certify_missing", "certify_columns",
                                  "certify_short_row", "certify_no_rows",
                                  "stationary_out_under_file", "stationary_rho_csv_no_dir",
                                  "certify_out_under_file"])
def test_stationary_certify_bad_input_exits_config(tmp_path, capsys, case):
    header = "t,J0,mass,rho_min,rho_max,V,q_min,event\n"
    traj = tmp_path / "trajectory.csv"
    traj.write_text({"certify_columns": "t,J0,V\n0.0,0.5,1.0\n",
                     "certify_short_row": header + "0.0,0.5\n",
                     "certify_no_rows": header,
                     "certify_out_under_file": header + "0.0,1.0,1.0,0.1,0.2,0.5,0.1,\n"
                                               "0.1,1.0,1.0,0.1,0.2,0.4,0.1,\n",
                     }.get(case, ""))
    blocker = tmp_path / "file"
    blocker.write_text("")
    stationary = ["stationary", "--K", "-0.1", "--ntheta", "64"]
    argv = {
        "stationary_ntheta=-5": ["stationary", "--K", "-0.1", "--ntheta", "-5"],
        "stationary_ntheta=0": ["stationary", "--K", "-0.1", "--ntheta", "0"],
        "stationary_K=nan": ["stationary", "--K", "nan"],
        "certify_missing": ["certify", "--K", "-0.1",
                            "--trajectory", str(tmp_path / "nope.csv")],
        "stationary_out_under_file": [*stationary, "--out", str(blocker / "out")],
        "stationary_rho_csv_no_dir": [*stationary, "--rho-csv",
                                      str(tmp_path / "nope" / "rho.csv")],
        "certify_out_under_file": ["certify", "--K", "-0.1", "--trajectory", str(traj),
                                   "--out", str(blocker / "out")],
    }.get(case, ["certify", "--K", "-0.1", "--trajectory", str(traj)])
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""
    flag = {"stationary_out_under_file": "--out", "stationary_rho_csv_no_dir": "--rho-csv",
            "certify_out_under_file": "--out"}.get(case)
    if flag:
        assert captured.err.startswith(f"config error: {flag}:")


@pytest.mark.parametrize("case", ["lif_S=nan", "lif_S=inf", "lif_gamma=nan",
                                  "homoclinic_omega=nan", "homoclinic_C=inf",
                                  "homoclinic_overflow", "table_x=nan"])
def test_nonfinite_model_input_exits_config(tmp_path, capsys, case):
    # a NaN fails every `<= 0` check, so each parameter is tested for
    # finiteness: no NaN in the JSON, no interpolator or overflow traceback
    table = tmp_path / "field.csv"
    table.write_text("x,F\n0.0,2.1\nnan,1.5\n1.0,0.1\n")
    extra = {
        "lif_S=nan": ["--S", "nan"],
        "lif_S=inf": ["--S", "inf"],
        "lif_gamma=nan": ["--gamma", "nan"],
        "homoclinic_omega=nan": ["--model", "homoclinic", "--omega", "nan"],
        "homoclinic_C=inf": ["--model", "homoclinic", "--C", "inf"],
        "homoclinic_overflow": ["--model", "homoclinic", "--lambda-u", "1000", "--omega", "1"],
        "table_x=nan": ["--model", "tabulated", "--table", str(table)],
    }[case]
    assert main(["stationary", "--K", "-0.1", *extra]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("model error:")
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""


def test_table_encoding_at_the_command_line(tmp_path, capsys):
    # a table that is not UTF-8 text is exit 4 with one stderr line and no
    # traceback; a byte-order mark before the header reads as the plain file
    plain = tmp_path / "field.csv"
    plain.write_text("x,F\n" + "".join(f"{x!r},{2.1 - 2.0 * x!r}\n"
                                       for x in np.linspace(0.0, 1.0, 41).tolist()))
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    (tmp_path / "binary.csv").write_bytes(bytes(range(256)) * 4)
    table = lambda name: ["stationary", "--model", "tabulated", "--K", "-0.1",
                          "--table", str(tmp_path / f"{name}.csv")]
    assert main(table("binary")) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("model error:") and "not UTF-8" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""
    for name in ("field", "bom"):
        assert main([*table(name), "--out", str(tmp_path / name)]) == 0
    assert ((tmp_path / "bom" / "stationary.json").read_bytes()
            == (tmp_path / "field" / "stationary.json").read_bytes())


def test_sweep_records_row_exit_codes(tmp_path, capsys):
    # every row expects a blow-up: the excitatory one has it (exit 0), the
    # inhibitory one settles (exit 2); the sweep itself still exits 0
    p = write_cfg(tmp_path, BLOWUP_CFG + "certify = false\n", out=tmp_path / "base",
                  expect="true")
    assert main(["sweep", "--config", str(p), "--param", "K", "--values=0.1,-0.1",
                 "--out", str(tmp_path / "sw")]) == 0
    err = capsys.readouterr().err.strip().splitlines()
    with open(tmp_path / "sw" / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0])[-3:] == ["t_fin", "exit_code", "cert_violations"]
    assert [(r["value"], r["status"], r["exit_code"], r["cert_violations"])
            for r in rows] == [("0.1", "ok", "0", ""), ("-0.1", "ok", "2", "")]
    assert err == ["sweep row K=-0.1: exit code 2"]


def test_sweep_records_certification_violations(tmp_path, capsys):
    # at n_theta 256 the K = -0.4 row fails certification (exit 3); sweep.csv
    # shows how many intervals it violated, the passing row shows 0
    cfg = TINY_CFG.replace("n_theta = 64", "n_theta = 256").replace(
        "t_max = 0.1", "t_max = 6.0").replace("certify = false", "certify = true")
    p = write_cfg(tmp_path, cfg, out=tmp_path / "base")
    assert main(["sweep", "--config", str(p), "--param", "K", "--values=-0.1,-0.4",
                 "--out", str(tmp_path / "sw")]) == 0
    capsys.readouterr()
    with open(tmp_path / "sw" / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        cert = json.loads((tmp_path / "sw" / f"K={float(r['value'])!r}"
                           / "certification.json").read_text())
        assert r["cert_violations"] == str(cert["violations"])
    assert [(r["exit_code"], r["cert_violations"] != "0") for r in rows] == [
        ("0", False), ("3", True)]


# sweep rows run in forked worker processes, one per usable CPU; patching
# os.sched_getaffinity sets the worker count whatever the host has
POOL_CFG = TINY_CFG.replace("n_theta = 64", "n_theta = 128").replace(
    "t_max = 0.1", "t_max = 2.0").replace("certify = false", "certify = true").replace(
    "dump_density = false", "dump_density = true")
POOL_VALUES = "--values=-0.05,-0.1,-0.2,-0.4,0.1"


def _sweep_files(root: Path) -> dict:
    """Every file under root, by relative path; a row's summary.json without
    its wall times, which differ from run to run (a finite run's own
    summary.json has none)."""
    files = {}
    for f in sorted(root.rglob("*")):
        if f.is_file():
            data = f.read_bytes()
            if f.name == "summary.json" and f.parent.name != "finite":
                summary = json.loads(data)
                assert summary.pop("timings_s").keys() == set(cli.PHASES)
                data = (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode()
            files[str(f.relative_to(root))] = data
    return files


def _pool_sweep(tmp_path, monkeypatch, cpus, name, values=POOL_VALUES, cfg=POOL_CFG):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    p = write_cfg(tmp_path, cfg, name="sweep.cfg", out=tmp_path / "base")
    assert main(["sweep", "--config", str(p), "--param", "K", values,
                 "--out", str(tmp_path / name)]) == 0
    assert multiprocessing.active_children() == []
    return tmp_path / name


def test_sweep_pool_matches_one_worker_byte_for_byte(tmp_path, capsys, monkeypatch):
    serial = _sweep_files(_pool_sweep(tmp_path, monkeypatch, 1, "serial"))
    serial_err = capsys.readouterr().err
    pooled = _sweep_files(_pool_sweep(tmp_path, monkeypatch, 2, "pooled"))
    assert capsys.readouterr().err == serial_err
    assert len(serial) == 5 * 6 + 1   # five rows of six files, and sweep.csv
    assert pooled.keys() == serial.keys()
    assert [k for k in serial if pooled[k] != serial[k]] == []


def test_sweep_row_raising_in_worker_is_recorded(tmp_path, capsys, monkeypatch):
    good = _sweep_files(_pool_sweep(tmp_path, monkeypatch, 2, "good"))
    capsys.readouterr()
    real = cli.integrate

    def integrate(model, K, *args, **kwargs):
        if K == -0.2:
            raise RuntimeError("boom")
        return real(model, K, *args, **kwargs)

    monkeypatch.setattr(cli, "integrate", integrate)
    bad = _pool_sweep(tmp_path, monkeypatch, 2, "bad")
    assert capsys.readouterr().err.splitlines() == [
        "sweep row K=-0.2: failed: boom", "sweep row K=0.1: exit code 3"]
    with open(bad / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["value"], r["status"]) for r in rows] == [
        ("-0.05", "ok"), ("-0.1", "ok"), ("-0.2", "failed: boom"), ("-0.4", "ok"),
        ("0.1", "ok")]
    assert rows[2]["exists"] == "True" and rows[2]["exit_code"] == ""
    # every other row keeps its bytes, in its directory and in sweep.csv
    bad = _sweep_files(bad)
    for key, data in good.items():
        if key == "sweep.csv":
            assert [ln for ln in data.splitlines() if b",-0.2," not in ln] == [
                ln for ln in bad[key].splitlines() if b",-0.2," not in ln]
        elif not key.startswith("K=-0.2"):
            assert bad[key] == data, key


_SWEEP_ROW = cli._sweep_row


def _row_or_die(row_cfg, param, value, out_root):
    # a worker process killed mid-row, as by the OOM killer
    if value == -0.2:
        os._exit(1)
    return _SWEEP_ROW(row_cfg, param, value, out_root)


def test_sweep_dead_worker_fails_unfinished_rows(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_sweep_row", _row_or_die)
    out = _pool_sweep(tmp_path, monkeypatch, 2, "sw")
    err = capsys.readouterr().err
    assert "Traceback" not in err
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["value"] for r in rows] == ["-0.05", "-0.1", "-0.2", "-0.4", "0.1"]
    died = "failed: worker process died"
    assert rows[2]["status"] == died
    assert all(r["status"] in ("ok", died) for r in rows)
    assert all(r["exit_code"] == "" for r in rows if r["status"] == died)
    # one stderr line per row that did not exit 0, in row order
    assert err.splitlines() == [
        f"sweep row K={float(r['value'])!r}: "
        + (r["status"] if r["status"] == died else f"exit code {r['exit_code']}")
        for r in rows if r["exit_code"] != "0"]


# a finite run of two batches or more formats snapshots.csv, and takes V_N,
# in forked sinks, one per finite.SINK_FLOATS phases (N * n_firings) and at
# most one per usable CPU; on one CPU and inside a sweep worker, in process
FINITE_POOL_ARGV = ["finite", "--model", "lif", "--N", "1000", "--K", "-0.1",
                    "--seed", "5", "--nfirings", "300"]
_TEST_PID = os.getpid()
_SNAPSHOT_TEXT = cli._snapshot_text
_FORK_SERVER = finite._fork_server


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _finite_run(tmp_path, monkeypatch, cpus, name, argv=FINITE_POOL_ARGV):
    """The finite run ``argv`` on ``cpus`` CPUs: how many sinks it forks,
    and the run's three files."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks = []

    def fork_server(*args):
        forks.append(args)
        return _FORK_SERVER(*args)

    monkeypatch.setattr(finite, "_fork_server", fork_server)
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    _no_child_left()
    return len(forks), {f: (out / f).read_bytes()
                        for f in ("firings.csv", "snapshots.csv", "summary.json")}


def test_finite_pool_matches_one_cpu_byte_for_byte(tmp_path, capsys, monkeypatch,
                                                   simulate_kept):
    assert 1000 * 300 > finite.SINK_FLOATS
    serial_sinks, serial = _finite_run(tmp_path, monkeypatch, 1, "serial")
    serial_out = capsys.readouterr().out
    pooled_sinks, pooled = _finite_run(tmp_path, monkeypatch, 2, "pooled")
    assert capsys.readouterr().out == serial_out
    assert (serial_sinks, pooled_sinks) == (0, 2)
    assert pooled == serial
    run, times, snaps = simulate_kept(lif_model(2.1, 2.0), -0.1, 1000, n_firings=300,
                                      seed=5)
    want = _expected_csv_artifacts(run, times, snaps)
    assert {f: pooled[f] for f in want} == want


def test_finite_tabulated_sink_matches_one_cpu(tmp_path, capsys, monkeypatch,
                                                simulate_kept):
    # the generic-field event path through one sink (2 * 10**4 phases)
    xs = np.linspace(0.0, 1.0, 41)
    table = tmp_path / "field41.csv"
    table.write_text("x,F\n" + "".join(f"{x!r},{2.1 - 2.0 * x!r}\n" for x in xs.tolist()))
    argv = ["finite", "--model", "tabulated", "--table", str(table), "--N", "100",
            "--K", "-0.1", "--nfirings", "200"]
    serial_sinks, serial = _finite_run(tmp_path, monkeypatch, 1, "serial", argv)
    forked_sinks, forked = _finite_run(tmp_path, monkeypatch, 2, "forked", argv)
    capsys.readouterr()
    assert (serial_sinks, forked_sinks) == (0, 1)
    assert forked == serial
    model = ExperimentConfig.from_values({"model.model": "tabulated", "model.table": str(table),
                                          "coupling.K": -0.1}).build_model()
    run, times, snaps = simulate_kept(model, -0.1, 100, n_firings=200, seed=0)
    want = _expected_csv_artifacts(run, times, snaps)
    assert {f: forked[f] for f in want} == want


def _sinks_forked(N, n_firings) -> int:
    sinks = finite.BatchSinks(N, n_firings, None)
    sinks.close()
    return len(sinks.sinks)


def test_finite_sink_count(monkeypatch):
    # none for a run of one batch, one for 2 * 10**4 phases, and for 10**6
    # phases one per SINK_FLOATS of them, at most one per usable CPU; none
    # in a sweep's worker process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert 100 * 20 <= finite.BATCH_FLOATS
    assert [_sinks_forked(*run) for run in ((100, 20), (100, 200), (1000, 1000))] == [0, 1, 2]
    pool, workers = cli._pool(2)
    with pool:
        in_worker = pool.submit(_sinks_forked, 1000, 1000).result()
    assert (workers, in_worker) == (2, 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert _sinks_forked(1000, 1000) == -(-10**6 // finite.SINK_FLOATS) == 4
    _no_child_left()


def test_finite_sinks_leave_no_resource_warning(tmp_path):
    # two sinks forked, fed and reaped under -X dev with ResourceWarning as
    # an error: nothing on stderr
    code = ("import contextlib, io, os\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from pulsefield.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({[*FINITE_POOL_ARGV, '--out', str(tmp_path / 'fin')]!r})\n"
            "print(code)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(pulsefield.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                           "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


# the batches a sink formats (each sink counts in its own copy) and those
# the parent formats itself
_SINK_BATCHES: list = []
_PARENT_BATCHES: list = []


def _text_or_die(times, snaps):
    # a sink killed in its third batch, as by the OOM killer
    if os.getpid() == _TEST_PID:
        _PARENT_BATCHES.append(len(times))
    else:
        _SINK_BATCHES.append(len(times))
        if len(_SINK_BATCHES) == 3:
            os._exit(1)
    return _SNAPSHOT_TEXT(times, snaps)


def test_finite_dead_sink_keeps_the_run_whole(tmp_path, capsys, monkeypatch):
    # the parent formats every batch its dead sinks did not finish, from
    # their ring rows: the run exits 0 with the one-CPU bytes
    _, serial = _finite_run(tmp_path, monkeypatch, 1, "serial")
    monkeypatch.setattr(cli, "_snapshot_text", _text_or_die)
    _PARENT_BATCHES.clear()
    sinks, killed = _finite_run(tmp_path, monkeypatch, 2, "killed")
    capsys.readouterr()
    assert (sinks, killed) == (2, serial)
    # each sink sent its first two batches (of two firings) before it died
    assert _PARENT_BATCHES == [2] * (150 - 2 * 2)


def _lyapunov_bug(phases, phases_ref):
    raise ValueError("a bug in V_N")


def test_finite_sink_bug_raises_in_parent(tmp_path, capsys, monkeypatch):
    # a sink that raises stops; the parent redoes its batch and raises
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(cli, "discrete_lyapunov", _lyapunov_bug)
    out = tmp_path / "fin"
    with pytest.raises(ValueError, match="a bug in V_N"):
        main([*FINITE_POOL_ARGV, "--out", str(out)])
    _no_child_left()
    assert sorted(p.name for p in out.iterdir()) == []
    assert capsys.readouterr().out == ""


def test_small_finite_run_imports_no_pool(tmp_path):
    # the modules a pool needs (about 1 MB) are not imported
    code = ("import contextlib, io, sys\n"
            "from pulsefield.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['finite', '--N', '100', '--K', '-0.1', '--nfirings', '200',\n"
            f"                 '--out', {str(tmp_path / 'fin')!r}])\n"
            "print(code, sorted(m for m in ('multiprocessing', 'concurrent.futures')\n"
            "                   if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(pulsefield.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "0 []"


def _text_beside_row(times, snaps):
    # a sweep row formats its snapshots in its own process, a worker of the
    # sweep's pool or this one: never in a pool nested in a sweep worker
    if _TEST_PID not in (os.getpid(), os.getppid()):
        raise RuntimeError("snapshots formatted in a nested pool")
    return _SNAPSHOT_TEXT(times, snaps)


def test_sweep_row_formats_large_finite_run_in_process(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_snapshot_text", _text_beside_row)
    cfg = POOL_CFG + "\n[finite]\nenabled = true\nN = 1000\nseed = 5\nn_firings = 300\n"
    values = "--values=-0.05,-0.1"
    serial = _sweep_files(_pool_sweep(tmp_path, monkeypatch, 1, "serial", values, cfg))
    pooled = _sweep_files(_pool_sweep(tmp_path, monkeypatch, 2, "pooled", values, cfg))
    capsys.readouterr()
    assert [k for k in serial if k.endswith("snapshots.csv")] == [
        "K=-0.05/finite/snapshots.csv", "K=-0.1/finite/snapshots.csv"]
    assert pooled.keys() == serial.keys()
    assert [k for k in serial if pooled[k] != serial[k]] == []
    with open(tmp_path / "pooled" / "sweep.csv", newline="") as fh:
        assert [r["status"] for r in csv.DictReader(fh)] == ["ok", "ok"]


# a run that logs over two rings of the V helper's rows (RING_FLOATS // 512 at
# n_theta 512) evaluates V on a forked helper when two CPUs are usable
HELPER_CFG = TINY_CFG.replace("n_theta = 64", "n_theta = 512").replace(
    "t_max = 0.1", "t_max = 12.0").replace("certify = false", "certify = true").replace(
    "dump_density = false", "dump_density = true")


def _helper_run_files(tmp_path, monkeypatch, cpus, name) -> tuple:
    """The run's files, summary.json without its wall times and helper rows,
    and those helper rows."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    p = write_cfg(tmp_path, HELPER_CFG, name="helper.cfg", out=tmp_path / "base")
    out = tmp_path / name
    assert main(["run", str(p), "--out", str(out)]) == 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    summary = json.loads(files["summary.json"])
    assert summary.pop("timings_s").keys() == set(cli.PHASES)
    helper_rows = summary.pop("v_helper_rows")
    files["summary.json"] = json.dumps(summary, indent=2, sort_keys=True).encode()
    return files, helper_rows


def test_run_with_v_helper_matches_one_cpu_byte_for_byte(tmp_path, monkeypatch):
    serial, serial_rows = _helper_run_files(tmp_path, monkeypatch, 1, "serial")
    helped, helped_rows = _helper_run_files(tmp_path, monkeypatch, 2, "helped")
    assert (serial_rows, helped_rows > 0) == (0, True)
    assert {"trajectory.csv", "certification.json", "stationary.json"} <= serial.keys()
    assert helped.keys() == serial.keys()
    assert [k for k in serial if helped[k] != serial[k]] == []


def _v_helper_rows_in_worker():
    from pulsefield import initial_density, integrate, solve_stationary_flux
    model = lif_model(2.1, 2.0)
    stat = solve_stationary_flux(model, -0.1)
    ic = initial_density("perturbed", 512, model, -0.1, epsilon=0.2, reference=stat)
    traj = integrate(model, -0.1, ic, t_max=12.0, reference=stat)
    return traj.t.size, traj.v_helper_rows


def test_no_v_helper_in_pool_worker(monkeypatch):
    # a worker process never forks a helper of its own; the same run in this
    # process does
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pool, workers = cli._pool(2)
    with pool:
        futures = [pool.submit(_v_helper_rows_in_worker) for _ in range(2)]
        in_workers = [f.result() for f in futures]
    assert multiprocessing.active_children() == []
    rows, here = _v_helper_rows_in_worker()
    assert workers == 2 and rows > 2 * 128 and here > 0
    assert in_workers == [(rows, 0), (rows, 0)]


def test_stationary_json_records_rho_star_mass(tmp_path, capsys):
    # the discrete mass the kernel conserves, h * sum(rho_star[1:]): near 1
    # for fig1, far from it near velocity stall
    assert main(["stationary", "--K", "-0.1"]) == 0
    fig1 = json.loads(capsys.readouterr().out)["rho_star_mass"]
    assert fig1 == pytest.approx(1.0002, abs=5e-5)
    assert main(["stationary", "--S", "1.74", "--gamma", "1.67", "--K", "-0.84",
                 "--ntheta", "2048"]) == 0
    assert json.loads(capsys.readouterr().out)["rho_star_mass"] == pytest.approx(
        1657.6, abs=0.05)
    assert main(["stationary", "--K", "-5"]) == 0
    assert "rho_star_mass" not in json.loads(capsys.readouterr().out)
    cfg = TINY_CFG.replace("n_theta = 64", "n_theta = 2048")
    assert main(["run", str(write_cfg(tmp_path, cfg, out=tmp_path / "run"))]) == 0
    stat = json.loads((tmp_path / "run" / "stationary.json").read_text())
    assert stat["rho_star_mass"] == fig1


@pytest.mark.parametrize("case", ["exists", "none", "homoclinic"])
def test_stationary_command_writes_run_record(tmp_path, capsys, case):
    # one record: the stationary command prints, and with --out writes, the
    # stationary.json a run on the same model, K and n_theta writes; no state
    # at K = -5, and a homoclinic model has no coupling bounds
    model, K = {"exists": ("lif", "-0.1"), "none": ("lif", "-5.0"),
                "homoclinic": ("homoclinic", "0.05")}[case]
    cfg = TINY_CFG.replace("K = -0.1", f"K = {K}")
    if model == "homoclinic":
        cfg = cfg.replace("model = lif\nS = 2.1\ngamma = 2.0", "model = homoclinic")
    main(["run", str(write_cfg(tmp_path, cfg, out=tmp_path / "run"))])
    capsys.readouterr()
    assert main(["stationary", "--model", model, "--K", K, "--ntheta", "64",
                 "--out", str(tmp_path / "stat")]) == 0
    printed = capsys.readouterr().out
    written = (tmp_path / "stat" / "stationary.json").read_text()
    assert written == printed == (tmp_path / "run" / "stationary.json").read_text()
    record = json.loads(written)
    assert record["exists"] is (case != "none")
    assert ("coupling_bounds" in record) is (model == "lif")
    assert ("limit_value" in record) is (case == "none")


def test_stationary_command_evaluates_existence_once(capsys, monkeypatch):
    # the existence limit is evaluated by the solve alone
    import pulsefield.stationary as stationary
    calls = []
    existence = stationary._existence
    monkeypatch.setattr(stationary, "_existence",
                        lambda *a: calls.append(a) or existence(*a))
    assert main(["stationary", "--K", "-0.1", "--ntheta", "64"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


# threshold gap 0.5: the continuum runs (and blows up), then the finite run
# meets an avalanche
AVALANCHE_CFG = TINY_CFG.replace("gamma = 2.0", "gamma = 2.0\nx_hi = 0.5").replace(
    "K = -0.1", "K = 0.8") + """
[finite]
enabled = true
N = 10
seed = 1
n_firings = 50
"""


@pytest.mark.parametrize("command", ["finite", "run"])
def test_avalanche_exits_config_error(tmp_path, capsys, command):
    # K >= x_hi - x_lo re-fires an oscillator within one event: one stderr
    # line, exit 4, no summary.json and no half-written finite CSVs
    if command == "finite":
        fdir = tmp_path / "fin"
        argv = ["finite", "--model", "lif", "--N", "10", "--K", "1.5", "--seed", "1",
                "--nfirings", "50", "--out", str(fdir)]
    else:
        fdir = tmp_path / "out" / "finite"
        argv = ["run", str(write_cfg(tmp_path, AVALANCHE_CFG, out=tmp_path / "out"))]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("avalanche: oscillator re-fired within one event")
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""
    assert sorted(p.name for p in fdir.iterdir()) == []
    assert not (fdir.parent / "summary.json").exists()


def test_unresolved_stationary_flux_exits_config_error(capsys):
    # a J* 7.7e-12 (relative) below the edge omega/r, where one ulp of J
    # moves W by about 5e-7: exit 4 and one stderr line, no traceback
    assert main(["stationary", "--model", "homoclinic", "--C", "1.0613480047238488",
                 "--lambda-u", "1.6494697726521217", "--omega", "3.510679464494422",
                 "--K=-0.8497346102544328"]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("unresolved stationary flux: ")
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("K,reason", [(-1.4, "unavailable (unresolved stationary flux)"),
                                      (-5.0, "unavailable (no stationary state)")],
                         ids=["unresolved", "no-stationary-state"])
def test_finite_runs_without_splay_reference(tmp_path, capsys, K, reason):
    # the simulation needs no J*: a finite run whose splay reference cannot
    # be solved for runs, exits 0 and records why it has no V_N
    out = tmp_path / "fin"
    assert main(["finite", "--N", "10", f"--K={K}", "--nfirings", "50",
                 "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["splay_reference"], summary["n_events"]) == (reason, 50)
    assert "V_N_first" not in summary
    assert sorted(p.name for p in out.iterdir()) == [
        "firings.csv", "snapshots.csv", "summary.json"]


def test_run_with_finite_and_unresolved_flux_exits_config_error(tmp_path, capsys):
    # a run's own stationary solve still needs J*: exit 4 before the finite run
    cfg = TINY_CFG.replace("K = -0.1", "K = -1.4") + (
        "\n[finite]\nenabled = true\nN = 10\nn_firings = 50\n")
    assert main(["run", str(write_cfg(tmp_path, cfg, out=tmp_path / "out"))]) == 4
    assert capsys.readouterr().err.startswith("unresolved stationary flux: ")
    assert not (tmp_path / "out" / "finite").exists()


def test_unallocatable_finite_ring_exits_config_error(tmp_path, capsys):
    # no splay reference at K = -5, so the snapshot ring of 10**12 phases (7.3
    # TiB) is the run's first allocation: one line, and neither CSV
    out = tmp_path / "fin"
    assert main(["finite", "--N", str(10**12), "--K", "-5", "--nfirings", "2",
                 "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("out of memory: ")
    assert len(captured.err.strip().splitlines()) == 1
    assert sorted(p.name for p in out.iterdir()) == []


def test_unallocatable_grid_exits_config_error(capsys):
    # 10**15 grid nodes are 7.1 PiB of float64, more than any address space:
    # the first allocation fails at once, and the run says so in one line
    assert main(["stationary", "--K", "-0.1", "--ntheta", str(10**15)]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("out of memory: ")
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


SCIPY_PROBE = r"""
import json, sys
from importlib import resources
from pathlib import Path

out, mode = Path(sys.argv[1]), sys.argv[2]
if mode == "blocked":
    class NoScipy:
        # an interpreter without scipy: every import of it fails
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                raise ImportError(f"No module named {name!r}")
            return None

    sys.meta_path.insert(0, NoScipy())

from pulsefield.cli import main

small = {"n_theta = 2048": "n_theta = 256", "t_max = 12.0": "t_max = 1.0",
         "t_max = 8.0": "t_max = 1.0"}
for name in ("fig1", "homoclinic"):
    text = resources.files("pulsefield").joinpath("configs", name + ".cfg").read_text()
    for a, b in small.items():
        text = text.replace(a, b)
    (out / (name + ".cfg")).write_text(text)
codes = [
    main(["run", str(out / "fig1.cfg"), "--out", str(out / "fig1")]),
    main(["run", str(out / "homoclinic.cfg"), "--out", str(out / "homoclinic")]),
    main(["sweep", "--config", str(out / "fig1.cfg"), "--param", "K",
          "--values=-0.05,-0.1", "--out", str(out / "sweep")]),
    main(["finite", "--model", "lif", "--N", "8", "--K", "-0.1", "--nfirings", "20",
          "--out", str(out / "finite")]),
    main(["stationary", "--K", "-0.1", "--ntheta", "256"]),
]
if mode != "lif":
    table = str(out / "field.csv")
    codes.append(main(["finite", "--model", "tabulated", "--table", table,
                       "--N", "8", "--K", "-0.1", "--nfirings", "20",
                       "--out", str(out / "finite_tab")]))
    codes.append(main(["stationary", "--model", "tabulated", "--table", table,
                       "--K", "-0.1", "--ntheta", "256"]))
(out / "probe.json").write_text(json.dumps(
    {"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _scipy_probe(tmp_path, mode):
    (tmp_path / "field.csv").write_text(
        "x,F\n" + "".join(f"{x!r},{2.1 - 2.0 * x!r}\n" for x in np.linspace(0.0, 1.0, 41).tolist()))
    env = dict(os.environ, PYTHONPATH=str(Path(pulsefield.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path), mode], env=env,
                   check=True, capture_output=True, timeout=300)
    return json.loads((tmp_path / "probe.json").read_text())


def test_cli_paths_never_import_scipy(tmp_path):
    # scipy costs about 0.3 s of every start-up; no runtime path needs it
    probe = _scipy_probe(tmp_path, "lif")
    assert probe["codes"] == [0, 0, 0, 0, 0]
    assert probe["scipy"] == []


def test_tabulated_paths_never_import_scipy(tmp_path):
    # tabulated models build their PCHIP and Hermite tables in numpy
    probe = _scipy_probe(tmp_path, "tabulated")
    assert probe["codes"] == [0, 0, 0, 0, 0, 0, 0]
    assert probe["scipy"] == []


def test_tabulated_paths_run_without_scipy(tmp_path):
    # the same commands where importing scipy raises ImportError
    probe = _scipy_probe(tmp_path, "blocked")
    assert probe["codes"] == [0, 0, 0, 0, 0, 0, 0]
    assert probe["scipy"] == []


# floats whose repr is more than plain digits
ODD_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-05, 1e16, 0.1, 2.5,
              -1.7976931348623157e308]


def _csv_writer_bytes(path, header, rows) -> bytes:
    """A float table as csv.writer writes it, every float through repr(float(x))."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(float(x)) if not isinstance(x, str) else x for x in row]
                    for row in rows)
    return path.read_bytes()


def test_float_tables_keep_csv_writer_bytes(tmp_path, monkeypatch):
    # trajectory.csv, density and quantile files, written ROW_BLOCK rows per
    # write, have the bytes csv.writer gives across three block ends and a
    # short last block: odd floats, NaN V and event names included
    from dataclasses import replace
    from types import SimpleNamespace
    from pulsefield import initial_density, integrate
    from pulsefield.continuum import ROW_BLOCK
    n = 3 * ROW_BLOCK + 7
    a = np.resize(ODD_FLOATS, n) * np.random.default_rng(4).uniform(0.5, 1.0, n)
    b = a[::-1].copy()
    events = np.resize(["", "flux_blowup", "density_blowup"], n).tolist()
    model = lif_model(2.1, 2.0)
    traj = integrate(model, -0.1, initial_density("uniform", 16, model, -0.1), t_max=0.01)
    traj = replace(traj, t=a, J0=b, mass=np.roll(a, 1), rho_min=np.roll(a, 2),
                   rho_max=np.roll(b, 3), V=np.roll(a, 4), q_min=np.roll(b, 5), event=events)
    assert np.isnan(traj.V).sum() >= 3
    traj.to_csv(tmp_path / "trajectory.csv")
    want = _csv_writer_bytes(tmp_path / "want.csv", traj.COLUMNS,
                             zip(traj.t, traj.J0, traj.mass, traj.rho_min, traj.rho_max,
                                 traj.V, traj.q_min, events))
    assert (tmp_path / "trajectory.csv").read_bytes() == want

    cli._density_csv(tmp_path / "density.csv", a, b, value_name="rho_star")
    want = _csv_writer_bytes(tmp_path / "want.csv", ["theta", "rho_star"], zip(a, b))
    assert (tmp_path / "density.csv").read_bytes() == want

    prof = SimpleNamespace(phi=a, Q=b, q_seg=np.roll(a, 3)[:n - 1])
    monkeypatch.setattr(cli, "quantile_transform", lambda theta, rho: prof)
    cli._quantile_csv(tmp_path / "quantiles.csv", a, b)
    q = np.append(prof.q_seg, prof.q_seg[-1])
    want = _csv_writer_bytes(tmp_path / "want.csv", ["phi", "Q", "q"], zip(a, b, q))
    assert (tmp_path / "quantiles.csv").read_bytes() == want


def test_density_csv_memory_is_one_block(tmp_path):
    # n_theta 2**16: the rows go out ROW_BLOCK at a time, so the writer's
    # traced peak is one block's floats and text (about 0.1 MB) however many
    # nodes there are, where one joined string took about 172 bytes a node
    import tracemalloc
    rng = np.random.default_rng(6)
    theta, rho = np.linspace(0.0, 2.0 * math.pi, 2**16 + 1), rng.uniform(0.0, 1.0, 2**16 + 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cli._density_csv(tmp_path / "density.csv", theta, rho)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2**18, peak
    assert (tmp_path / "density.csv").read_bytes().count(b"\r\n") == theta.size + 1


def _bench_spans():
    """bench/spans.py, executed from its source (no bytecode is written)."""
    import types
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spans = types.ModuleType("bench_spans")
    exec(compile(path.read_text(), str(path), "exec"), spans.__dict__)
    return spans


def test_bench_span_boundaries_exist():
    # the benchmark times each layer by rebinding these names; a missing one
    # reads "unmeasured" in every per-layer metric that needs it (and in
    # cli.self_s), which only a traced benchmark run would show
    import importlib
    spans = _bench_spans()
    missing = [f"{mod}.{attr}" for targets in spans.BOUNDARIES.values()
               for mod, attr in targets if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []


def test_bench_span_counters_read_results(tmp_path):
    # the counts the spans take from integrate's, finite_simulate's,
    # certify_theorem_bounds' and V's results (dense_t, final.theta, mass,
    # n_events, events[i].absorbed, n_checked) are still there
    spans = _bench_spans()
    cfg = TINY_CFG.replace("t_max = 0.1", "t_max = 1.0").replace(
        "dump_density = false", "log_stride = 2").replace("certify = false", "certify = true")
    cfg += "\n[finite]\nenabled = true\nN = 10\nn_firings = 20\n"
    p = write_cfg(tmp_path, cfg, out=tmp_path / "out")
    tracer = spans.Tracer()
    with tracer.installed():
        assert main(["run", str(p)]) == 0
    assert tracer.missing == {}
    assert not [s["fn"] for s in tracer.spans if s.get("uncounted") or s["error"]]
    counted = {s["fn"]: s for s in tracer.spans if s["fn"] in spans.COUNTERS}
    assert sorted(counted) == sorted(spans.COUNTERS)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    integ = counted["integrate"]
    assert (integ["steps"], integ["n_theta"]) == (summary["n_steps"], 64)
    assert 0.0 <= integ["mass_drift"] < 1e-12
    fin = counted["finite_simulate"]
    assert fin["firings"] == summary["finite"]["n_events"] == 20
    assert type(fin["absorbed"]) is int and fin["absorbed"] >= 0
    assert counted["certify_theorem_bounds"]["intervals"] == \
        summary["certification"]["intervals_checked"] > 0
    assert counted["lyapunov_tv_with_qmin"]["nan"] is False
