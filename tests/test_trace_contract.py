"""The benchmark's traced runs (``perfbench/spans.py``) wrap package and
scipy attributes by name, so deleting or renaming one breaks every
``--trace 1`` run; these tests hold the package to that contract."""

import importlib
from pathlib import Path

import numpy as np

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
