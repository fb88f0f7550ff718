"""Tests of the benchmark harness itself: run with `python3 -m pytest bench`."""

from __future__ import annotations

import json
from importlib import resources

import pytest

import run

run._use_checkout_sources()

import pulsefield.cli  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def test_wrong_blowup_expectation_is_a_failed_operation(tmp_path):
    text = resources.files("pulsefield").joinpath("configs", "fig2.cfg").read_text()
    assert "expect_blowup = true" in text
    cfg = tmp_path / "fig2_no_blowup.cfg"
    cfg.write_text(text.replace("expect_blowup = true", "expect_blowup = false"))

    rc, err = wl.run_cli(["run", cfg, "--out", tmp_path / "wrong"])
    outcome, _ = wl.check_run("fig2", rc, err, tmp_path / "wrong")
    assert not outcome.ok
    assert any("exit code 2" in f for f in outcome.failures)

    rc, err = wl.run_cli(["run", "fig2.cfg", "--out", tmp_path / "bundled"])
    outcome, _ = wl.check_run("fig2", rc, err, tmp_path / "bundled")
    assert outcome.ok, outcome.failures


def test_missing_boundary_reports_layer_unmeasured(tmp_path):
    boundaries = dict(spans.BOUNDARIES)
    boundaries["finite.simulate"] = [("pulsefield.cli", "simulate_renamed")]
    boundaries["finite.vn"] = [("pulsefield.moved_away", "discrete_lyapunov")]
    tracer = spans.Tracer(boundaries)
    with tracer.installed():
        rc, err = wl.run_cli(["finite", "--model", "lif", "--N", 20, "--K", -0.1,
                              "--nfirings", 10, "--out", tmp_path])
    assert rc == 0, err
    assert not hasattr(pulsefield.cli.main, "__wrapped__")
    assert set(tracer.missing) == {"finite.simulate", "finite.vn"}

    metrics = spans.pass_metrics(tracer.spans, tracer.missing)
    for key in ("finite.simulate_s", "finite.firings", "finite.us_per_firing",
                "finite.absorbed", "finite.vn_s", "cli.self_s"):
        assert metrics[key] is None, key
    assert metrics["stationary.solve_s"] > 0.0
    assert metrics["continuum.steps"] == 0


def test_traced_finite_run_counts_firings(tmp_path):
    tracer = spans.Tracer()
    with tracer.installed():
        rc, err = wl.run_cli(["finite", "--model", "lif", "--N", 20, "--K", -0.1,
                              "--nfirings", 10, "--out", tmp_path])
    assert rc == 0, err
    metrics = spans.pass_metrics(tracer.spans, tracer.missing)
    assert tracer.missing == {}
    assert metrics["finite.firings"] == 10
    assert metrics["finite.simulate_s"] > 0.0
    assert metrics["cli.self_s"] > 0.0


def test_self_time_subtracts_union_of_overlapping_children():
    spans_ = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 6.0},   # overlaps 2 (threads)
        {"id": 4, "parent": 3, "start": 3.5, "end": 5.0},
    ]
    selfs = spans.self_times(spans_)
    assert selfs[1] == pytest.approx(5.0)
    assert selfs[3] == pytest.approx(1.5)


def test_colliding_sweep_rows_fail(tmp_path):
    ks = [-0.1000001, -0.1000002]
    (tmp_path / "sweep.csv").write_text(
        "param,value,status\n" + "".join(f"K,{k!r},ok\n" for k in ks))
    row = tmp_path / "K=-0.1"           # both rows wrote here; the last one won
    row.mkdir()
    (row / "summary.json").write_text(json.dumps({
        "K": ks[1], "omega": 6.283185307179586, "t_final": 12.0, "mass_drift": 0.0,
        "blowup": None, "stationary": {"exists": False}}))
    (row / "resolved_config.json").write_text(json.dumps({
        "run": {"expect_blowup": False, "certify": True},
        "solver": {"n_theta": 256, "t_max": 12.0}}))
    outcomes, _ = wl.check_sweep(0, "", tmp_path, ks)
    assert [o.ok for o in outcomes] == [True, False, True]
    assert "carries this K" in outcomes[1].failures[0]


@pytest.mark.parametrize("cls", [wl.SweepK, wl.FiniteTab, wl.FiniteLif])
def test_inputs_follow_the_seed(tmp_path, cls):
    a = cls(7, tmp_path / "a").prepare()
    b = cls(7, tmp_path / "b").prepare()
    c = cls(8, tmp_path / "c").prepare()
    strip = lambda d: {k: v for k, v in d.items() if k not in ("config", "table")}
    assert strip(a) == strip(b) != strip(c)
    for key in ("config", "table"):
        if key in a:
            assert open(a[key]).read() == open(b[key]).read()
    if "table" in a:
        assert open(a["table"]).read() != open(c["table"]).read()
