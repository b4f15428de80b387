"""The four benchmark workloads and their seeded inputs.

Each workload is one problem handed to a public entry point of the package:
``run_flow`` for the three flows, ``cli.run`` for the CLI path.  The seed
adds a small low-mode perturbation to the initial field; the default seed
reproduces the unperturbed initial field exactly, so the stored references
and the bypass predictions are pinned at that seed.

A case object splits one flow into the parts the benchmark times or checks
separately: ``prepare`` (untimed), ``run`` (the timed entry call), and the
accessors the correctness gate reads afterwards.
"""

from __future__ import annotations

import csv
import json
import os
import shutil

import numpy as np

from wentzellflow import cli
from wentzellflow import discretization as disc
from wentzellflow import flow_driver as fd
from wentzellflow import flux_models as fm
from wentzellflow.step_solver import StepConfig

DEFAULT_SEED = 0
SMOKE_STEPS = 2
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# Relative size of the seeded perturbation.  The fractured flow's rescue
# path is sensitive to its initial field: at 1e-3 the rescue count ranges
# over 12-16 across seeds, so seeds would change the work measured.  At
# this size it stays within one of the default seed's 15.
PERTURBATION = 1e-6

# Perturbation modes: cos(k pi x) in 1D, cos(k pi x) cos(l pi y) in 2D.
MODES_1D = ((1,), (2,), (3,))
MODES_2D = ((1, 0), (0, 1), (1, 1))


def perturbation_coefficients(seed, amplitude):
    """Mode coefficients for ``seed``; all zero at the default seed."""
    if seed == DEFAULT_SEED:
        return np.zeros(3)
    rng = np.random.default_rng(seed)
    return PERTURBATION * amplitude * rng.standard_normal(3)


def perturbation(nodes, coeffs):
    modes = MODES_1D if nodes.shape[1] == 1 else MODES_2D
    out = np.zeros(nodes.shape[0])
    for c, mode in zip(coeffs, modes):
        term = np.full(nodes.shape[0], c)
        for k, x in zip(mode, nodes.T):
            term = term * np.cos(k * np.pi * x)
        out += term
    return out


class FlowCase:
    """A ``run_flow`` workload: an autonomous flow with no sources."""

    def __init__(self, grid, model, y0_base, h, steps, cfg, seed, amplitude):
        self.grid = grid
        self.step_cfg = cfg
        self.steps = steps
        self.y0_base = y0_base
        coeffs = perturbation_coefficients(seed, amplitude)
        y0 = y0_base + perturbation(grid.nodes, coeffs)
        self.problem = fd.ProblemData(grid, y0, T=steps * h, model=model)

    @property
    def model(self):
        return self.problem.model

    def prepare(self):
        pass

    def run(self):
        # Looked up on the module at call time, so the benchmark's boundary
        # wrappers see the call.
        return fd.run_flow(self.problem, self.steps, self.step_cfg)

    def trajectory(self, result):
        return result

    def initial_field(self):
        return self.problem.y0

    def final_field(self, result):
        return result.fields[-1]

    def output_checks(self, result):
        rep = fd.energy_trace(result)
        return {"energy_monotone": rep.monotone_pass,
                "energy_dissipation": rep.dissipation_pass}

    def output_bytes(self):
        return {"export": 0, "metrics": 0}

    def cleanup(self):
        pass


class CliCase:
    """The ``cli.run`` workload: sources, diagnostics and export."""

    T = 2.0
    STEPS = 500

    def __init__(self, seed, steps):
        self.steps = steps
        self.out_dir = os.path.join(OUT_DIR, f"cli-{os.getpid()}")
        coeffs = perturbation_coefficients(seed, 1.0)
        y0 = "sin(pi*x)" + "".join(
            f" + ({float(c)!r})*cos({k}*pi*x)"
            for c, (k,) in zip(coeffs, MODES_1D) if c)
        self.cfg = cli.config_from_dict({
            "preset": "plaplacian-1d",
            "sources": {"y0": y0, "f": "sin(pi*x)*exp(-t)", "g": "cos(t)"},
            # smoke runs keep the step size h = T / STEPS
            "T": self.T * steps / self.STEPS, "n": steps,
            "step": {"tol": 1e-10},
            "save_every": 1,
            "out_dir": self.out_dir,
        })
        self.step_cfg = StepConfig(**self.cfg.step)
        self.grid = disc.build_grid(self.cfg.grid)
        self.y0_base = np.sin(np.pi * self.grid.nodes[:, 0])
        self._y0 = self.y0_base + perturbation(self.grid.nodes, coeffs)
        self._traj = None

    def prepare(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self._traj = None

    def run(self):
        # cli.run keeps its trajectory to itself; this one extra call hands
        # it to the correctness gate.
        real = fd.run_flow

        def keep(*args, **kwargs):
            self._traj = real(*args, **kwargs)
            return self._traj

        fd.run_flow = keep
        try:
            return cli.run(self.cfg)
        finally:
            fd.run_flow = real

    def trajectory(self, result):
        return self._traj

    def initial_field(self):
        return self._y0

    def final_field(self, result):
        path = os.path.join(self.out_dir, "fields",
                            f"field_{self.steps:06d}.csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        return np.array([float(r["value"]) for r in rows])

    def output_checks(self, result):
        with open(os.path.join(self.out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        checks = {"exit_code_0": result == 0 and manifest["exit_code"] == 0,
                  "manifest_pass": bool(manifest["pass"])}
        checks.update({f"manifest.{k}": bool(v)
                       for k, v in manifest["checks"].items()})
        return checks

    def output_bytes(self):
        fields = os.path.join(self.out_dir, "fields")
        return {"export": sum(os.path.getsize(os.path.join(fields, f))
                              for f in os.listdir(fields)),
                "metrics": os.path.getsize(
                    os.path.join(self.out_dir, "metrics.jsonl"))}

    def cleanup(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)


def fractured_1d(seed, steps):
    grid = disc.interval_grid(32)
    model = fm.fractured_medium(4, alpha=1.0, thresholds=0.5)
    y0 = 0.5 * np.cos(2 * np.pi * grid.nodes[:, 0])
    cfg = StepConfig(tol=1e-10, lam_min=1e-11, lam_decay=0.1)
    return FlowCase(grid, model, y0, 1.0 / 200, steps, cfg, seed, 0.5)


def plaplacian_2d(seed, steps):
    grid = disc.rectangle_grid(64, 64)
    model = fm.anisotropic_p_laplacian(4, dimension=2)
    x, y = grid.nodes.T
    y0 = np.cos(np.pi * x) * np.cos(np.pi * y)
    return FlowCase(grid, model, y0, 0.0025, steps, StepConfig(tol=1e-10),
                    seed, 1.0)


def tv_2d(seed, steps):
    grid = disc.rectangle_grid(16, 16)
    model = fm.total_variation(1.0, dimension=2)
    x, y = grid.nodes.T
    y0 = ((x > 0.5) & (y > 0.3)).astype(float)
    return FlowCase(grid, model, y0, 0.01, steps, StepConfig(), seed, 1.0)


# name -> (factory(seed, steps), steps per flow)
WORKLOADS = {
    "fractured-1d": (fractured_1d, 40),
    "plaplacian-2d": (plaplacian_2d, 100),
    "tv-2d": (tv_2d, 40),
    "cli-sources-1d": (CliCase, CliCase.STEPS),
}


def build(name, seed, smoke=False):
    """Build the case of workload ``name`` at ``seed``."""
    factory, steps = WORKLOADS[name]
    return factory(seed, SMOKE_STEPS if smoke else steps)
