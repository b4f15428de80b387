"""Spans recorded at the package's module boundaries, from outside it.

The traced run replaces public functions, model methods and the scipy
calls of ``step_solver`` by thin wrappers for the duration of one flow.
Each call records a span: name, start, end, parent span and run id, plus
an optional work count (cells, nonzeros).  Spans stay in memory and are
written as JSON lines when the run ends.

Layers are the package modules plus ``linalg`` for the scipy calls that
``step_solver`` makes.  A span's self time is its duration minus the
durations of its child spans; as the spans nest on one thread, the self
times of all spans sum to the duration of the root span.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

from wentzellflow import cli
from wentzellflow import discretization as disc
from wentzellflow import expressions as ex
from wentzellflow import flow_driver as fd
from wentzellflow import step_solver as ss

# Model methods grouped into the span names the benchmark reports.
MODEL_SPANS = {
    "envelope_pack": "flux_models.envelope_pack",
    "resolvent": "flux_models.resolvent",
    "fenchel_gap": "flux_models.fenchel_gap",
    "potential": "flux_models.pointwise",
    "select": "flux_models.pointwise",
    "curvature": "flux_models.pointwise",
    "yosida": "flux_models.pointwise",
    "moreau": "flux_models.pointwise",
    "selection_bounds": "flux_models.pointwise",
}

# Position of the per-cell argument of each counted model method.
CELL_ARG = {"envelope_pack": 3, "resolvent": 3, "fenchel_gap": 2}

LAYERS = ("cli", "flow_driver", "step_solver", "flux_models",
          "discretization", "expressions", "linalg")


class Tracer:
    """In-memory span recorder.  Spans are lists
    ``[name, start, end, parent_index, work]`` with ``parent_index`` -1 for
    the root."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.active = False
        self._stack = [-1]

    def wrap(self, name, fn, work=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            # Wrapped models and sources outlive the traced flow; the
            # correctness gate calls them afterwards without recording.
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1],
                   0 if work is None else work(args)]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def wrap_model(self, model):
        """Shadow the model's boundary methods with traced instance
        attributes; returns the model."""
        for meth, name in MODEL_SPANS.items():
            if hasattr(model, meth):
                pos = CELL_ARG.get(meth)
                work = None if pos is None else (
                    lambda args, pos=pos: np.shape(args[pos])[0])
                setattr(model, meth,
                        self.wrap(name, getattr(model, meth), work))
        return model

    # -- reductions ---------------------------------------------------------
    def self_times(self):
        dur = np.array([s[2] - s[1] for s in self.spans])
        child = np.zeros(len(self.spans))
        parents = np.array([s[3] for s in self.spans], dtype=int)
        inner = parents >= 0
        np.add.at(child, parents[inner], dur[inner])
        return dur, dur - child

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds, work."""
        dur, own = self.self_times()
        out = {}
        for (name, _, _, _, work), d, o in zip(self.spans, dur, own):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "work": 0})
            row["calls"] += 1
            row["s"] += float(d)
            row["self_s"] += float(o)
            row["work"] += int(work)
        return out

    def write_jsonl(self, path):
        if not self.spans:
            return
        origin = self.spans[0][1]
        with open(path, "w") as fh:
            for i, (name, start, end, parent, work) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start - origin,
                       "end": end - origin,
                       "parent": None if parent < 0 else parent,
                       "run": self.run_id}
                if work:
                    row["work"] = work
                fh.write(json.dumps(row) + "\n")


def _nnz(args):
    return int(args[0].nnz)


@contextmanager
def traced(tracer, model=None):
    """Install the boundary wrappers; ``model`` is the flow's model, or None
    when the model is built inside ``cli.run``."""
    wraps = [
        (cli, "run", "cli.run", None),
        (fd, "run_flow", "flow_driver.run_flow", None),
        (fd, "stability_report", "flow_driver.diagnostics", None),
        (fd, "energy_trace", "flow_driver.diagnostics", None),
        (fd, "export_trajectory", "flow_driver.export", None),
        (fd, "solve_step", "step_solver.solve_step", None),
        (ss, "spsolve", "linalg.spsolve", _nnz),
        (ss, "lsq_linear", "linalg.lsq_linear", None),
        (disc, "gradient", "discretization.stencil", None),
        (disc, "grad_adjoint", "discretization.stencil", None),
        (disc, "time_average", "discretization.time_average", None),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in wraps]
    real_make_source = ex.make_source
    real_make_model = cli.make_model

    def make_source(*args, **kwargs):
        fn = real_make_source(*args, **kwargs)
        return None if fn is None else tracer.wrap("expressions.source", fn)

    def make_model(*args, **kwargs):
        return tracer.wrap_model(real_make_model(*args, **kwargs))

    try:
        for mod, attr, name, work in wraps:
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), work))
        ex.make_source = make_source
        cli.make_model = make_model
        if model is not None:
            tracer.wrap_model(model)
        tracer.active = True
        yield tracer
    finally:
        tracer.active = False
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
        ex.make_source = real_make_source
        cli.make_model = real_make_model
