"""The benchmark's traced runs (``perfbench/spans.py``) wrap package and
scipy attributes by name, so deleting or renaming one breaks every
``--trace 1`` run; these tests hold the package to that contract."""

import importlib
from pathlib import Path

import numpy as np
import scipy.optimize
import scipy.sparse.linalg

from wentzellflow import discretization as disc
from wentzellflow import flow_driver as fd
from wentzellflow import flux_models as fm
from wentzellflow import step_solver as ss

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_traced_run_finds_every_attribute_it_wraps(monkeypatch):
    spans = _spans(monkeypatch)
    before = (ss.spsolve, ss.lsq_linear, disc.time_average, fd.solve_step)
    with spans.traced(spans.Tracer("t")) as tracer:
        assert tracer.active
    assert not tracer.active
    assert (ss.spsolve, ss.lsq_linear, disc.time_average, fd.solve_step) == before


def test_scipy_names_resolve_when_looked_up():
    # ``spsolve`` and ``lsq_linear`` are imported on first lookup, so that
    # importing the package loads neither scipy submodule
    assert ss.lsq_linear is scipy.optimize.lsq_linear
    assert ss.spsolve is scipy.sparse.linalg.spsolve
    assert not hasattr(ss, "no_such_name")


def test_traced_flow_records_its_spans(monkeypatch):
    spans = _spans(monkeypatch)
    g = disc.interval_grid(8)
    model = fm.quadratic(1)
    prob = fd.ProblemData(g, np.cos(np.pi * g.nodes[:, 0]), T=0.02, model=model)
    with spans.traced(spans.Tracer("t"), model) as tracer:
        fd.run_flow(prob, 2)
    names = set(tracer.summary())
    assert {"flow_driver.run_flow", "step_solver.solve_step",
            "discretization.stencil"} <= names


def test_traced_fractured_flow_runs_the_loop_under_the_wrappers(monkeypatch):
    # the benchmark's fractured-1d flow for three steps: its steps end in
    # the multiplier loop while every wrapper of a ``--trace 1`` run is in
    # place
    spans = _spans(monkeypatch)
    g = disc.interval_grid(32)
    model = fm.fractured_medium(4, alpha=1.0, thresholds=0.5)
    prob = fd.ProblemData(g, 0.5 * np.cos(2 * np.pi * g.nodes[:, 0]),
                          T=3 / 200, model=model)
    cfg = ss.StepConfig(tol=1e-10, lam_min=1e-11, lam_decay=0.1)
    with spans.traced(spans.Tracer("t"), model) as tracer:
        traj = fd.run_flow(prob, 3, cfg)
    assert any(s.get("rescue") == "loop" for log in traj.step_logs for s in log)
    summary = tracer.summary()
    assert summary["step_solver.solve_step"]["calls"] == 3
    assert summary["flux_models.envelope_pack"]["calls"] > 0
