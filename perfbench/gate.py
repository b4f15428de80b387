"""Correctness gate: re-checks a finished flow with public functions only.

Per step, the weak-form residual is rebuilt from ``u``, ``eta``,
``gradient`` and ``grad_adjoint`` and must be at most the step ``tol``; the
Fenchel total from ``fenchel_gap`` must be at most ``certificate_tol``; and
no cell gap may fall below ``GAP_FLOOR``.  Per flow, the final field must
lie near the reference stored with the benchmark at the default seed:
the implicit step map is nonexpansive in the domain-plus-boundary L2 norm,
so at any seed the distance to the reference final field is at most the
distance between the initial fields, plus ``REFERENCE_TOL``.
"""

from __future__ import annotations

import json
import os

import numpy as np

from wentzellflow import discretization as disc

GAP_FLOOR = -1e-10
# Absolute slack on the final-field comparison: covers the per-step solver
# tolerances accumulated over a flow and BLAS rounding differences.
REFERENCE_TOL = 1e-7

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


def failed_steps(traj, cfg):
    """1-based indices of the steps that fail the residual or certificate
    checks."""
    problem = traj.problem
    grid, model, h = problem.grid, problem.model, traj.h
    mass = grid.node_weights + grid.boundary_mass_full
    bad = []
    for i in range(1, traj.n_steps + 1):
        prev, u, eta = traj.fields[i - 1], traj.fields[i], traj.etas[i - 1]
        w1 = prev.copy()
        w2 = prev[grid.boundary_nodes].copy()
        if problem.f is not None:
            w1 = w1 + h * disc.time_average(problem.f, i, h, grid, "domain")
        if problem.g is not None:
            w2 = w2 + h * disc.time_average(problem.g, i, h, grid, "boundary")
        rhs = grid.node_weights * w1
        rhs[grid.boundary_nodes] += grid.boundary_weights * w2
        res_vec = mass * u + h * disc.grad_adjoint(grid, eta) - rhs
        residual = float(np.max(np.abs(res_vec) / mass))
        gaps = model.fenchel_gap(i * h, grid.cell_centers,
                                 disc.gradient(grid, u), eta)
        total = float(grid.cell_volumes @ gaps)
        if (not residual <= cfg.tol or not total <= cfg.certificate_tol
                or not float(gaps.min()) >= GAP_FLOOR):
            bad.append(i)
    return bad


def product_norm(grid, u):
    return float(np.hypot(disc.norm_domain(grid, u),
                          disc.norm_boundary(grid, disc.trace(grid, u))))


def reference_path(workload):
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload, steps):
    """Reference final field for ``steps`` steps, or None if none is
    stored for that step count."""
    with open(reference_path(workload)) as fh:
        ref = json.load(fh)
    final = ref["final"].get(str(steps))
    return None if final is None else np.array(final)


def reference_check(workload, case, final):
    """(passed, distance, allowed) for the flow's final field."""
    ref = load_reference(workload, case.steps)
    if ref is None:
        return False, float("inf"), 0.0
    allowed = (product_norm(case.grid, case.initial_field() - case.y0_base)
               + REFERENCE_TOL)
    dist = product_norm(case.grid, final - ref)
    return dist <= allowed, dist, allowed
