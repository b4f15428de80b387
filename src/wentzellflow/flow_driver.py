"""Time marching, stability diagnostics, and long-time studies.

The flow driver iterates the implicit step with the per-step data

    w1 = y_i + h * fbar_{i+1},   w2 = trace(y_i) + h * gbar_{i+1},

where fbar/gbar are the averages of the sources over the step interval.
The resulting piecewise-constant-in-time interpolant is the
h-approximating solution whose stability quantities, contraction
behavior, energy decay and long-time limits are checked by the
diagnostics here.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import discretization as disc
from .step_solver import (StepConfig, StepNonConverged, _LaggedFactor,
                          _minimize_newton, _rhs, _StageProblem, _takes_guess,
                          solve_step, solve_step_obstacle)

__all__ = [
    "ProblemData",
    "Trajectory",
    "DiagnosticsRecord",
    "EnergyReport",
    "ContractionReport",
    "ConvergenceTable",
    "AsymptoticsReport",
    "IncompatibleData",
    "Inapplicable",
    "run_flow",
    "stability_report",
    "convergence_study",
    "contraction_check",
    "energy_trace",
    "steady_state",
    "steady_state_residual",
    "asymptotics_check",
    "total_mass",
    "export_trajectory",
]


class IncompatibleData(ValueError):
    """Steady-state data violates the compatibility condition."""


class Inapplicable(ValueError):
    """Diagnostic requested outside its domain of validity."""


@dataclass
class ProblemData:
    """Initial-boundary value problem on a grid.

    ``f`` and ``g`` are source callables ``(t, points) -> values`` on the
    domain and boundary; ``None`` means identically zero.
    """

    grid: disc.Grid
    y0: np.ndarray
    f: object = None
    g: object = None
    T: float = 1.0
    model: object = None

    def __post_init__(self):
        self.y0 = self.grid.check_field(self.y0, "y0")
        if not self.T > 0:
            raise ValueError("horizon T must be positive")
        if self.model is None:
            raise ValueError("a flux model is required")
        if self.model.dimension != self.grid.dimension:
            raise ValueError("model dimension does not match the grid")

    @property
    def autonomous(self):
        return (self.f is None and self.g is None
                and not self.model.time_dependent)


@dataclass
class Trajectory:
    """Implicit-Euler iterates plus the recovered flux sections.

    ``source_sq`` holds each step's h int ||f||^2 and h int ||g||^2 (zero
    for an absent source), from the samples that made the step data.
    """

    problem: ProblemData
    h: float
    times: np.ndarray
    fields: np.ndarray          # (n+1, n_nodes)
    etas: np.ndarray            # (n, n_cells, N)
    step_residuals: np.ndarray
    step_certificates: np.ndarray
    source_sq: np.ndarray       # (n, 2)
    step_logs: list = field(default_factory=list)

    @property
    def grid(self):
        return self.problem.grid

    @cached_property
    def energies(self):
        """Energy (potential at t = 0) of every field, computed once; the
        reports share this array, so it is read-only."""
        out = np.array([_energy(self.grid, self.problem.model, u)
                        for u in self.fields])
        out.flags.writeable = False
        return out

    @property
    def n_steps(self):
        return self.fields.shape[0] - 1

    def interpolant(self, t):
        """Piecewise-constant h-interpolant: value y_i on ((i-1)h, ih]."""
        i = int(np.ceil(t / self.h - 1e-12))
        return self.fields[min(max(i, 0), self.n_steps)]


@dataclass
class DiagnosticsRecord:
    """Per-run stability quantities of the finite difference scheme."""

    max_norm_domain: float
    max_norm_boundary: float
    grad_p_sum: float
    diff_quot_domain: float
    diff_quot_boundary: float
    potential_sum: float
    gronwall_bound: float
    gronwall_pass: bool
    norms_domain: np.ndarray
    norms_boundary: np.ndarray
    energies: np.ndarray | None = None

    def quantities(self):
        return {
            "max_norm_domain": self.max_norm_domain,
            "max_norm_boundary": self.max_norm_boundary,
            "grad_p_sum": self.grad_p_sum,
            "diff_quot_domain": self.diff_quot_domain,
            "diff_quot_boundary": self.diff_quot_boundary,
            "potential_sum": self.potential_sum,
        }

    def to_dict(self):
        out = dict(self.quantities())
        out["gronwall_bound"] = self.gronwall_bound
        out["gronwall_pass"] = bool(self.gronwall_pass)
        out["norms_domain"] = [float(v) for v in self.norms_domain]
        out["norms_boundary"] = [float(v) for v in self.norms_boundary]
        if self.energies is not None:
            out["energies"] = [float(v) for v in self.energies]
        return out


@dataclass
class EnergyReport:
    energies: np.ndarray
    monotone_pass: bool
    max_increase: float
    dissipation_pass: bool
    max_dissipation_violation: float


@dataclass
class ContractionReport:
    distances: np.ndarray      # squared product-norm distances per time
    data_terms: np.ndarray     # squared data distances per time
    c_empirical: float
    pure_initial: bool
    nonexpansive_pass: bool


@dataclass
class ConvergenceTable:
    ns: list
    hs: list
    r: float
    distances: list
    orders: list

    def rows(self):
        out = []
        for k, d in enumerate(self.distances):
            out.append({"n_coarse": self.ns[k], "n_fine": self.ns[k + 1],
                        "distance": d,
                        "order": self.orders[k - 1] if k >= 1 else None})
        return out


@dataclass
class AsymptoticsReport:
    distances: np.ndarray
    y_infinity: np.ndarray
    final_distance: float
    eventually_decreasing: bool
    passed: bool


# ---------------------------------------------------------------------------
# marching


def run_flow(problem, n, cfg=None, obstacle=False):
    """March the time-discretized system for n steps of size h = T/n.

    Each step starts from the previous field y_i.  On the direct banded
    solve a smooth law's flow without the obstacle also hands a step a
    ``guess`` to start Newton from (``solve_step``), built only there:
    2 y_1 - y_0 at step 2, later the extrapolant through the last k + 1
    fields of the order k <= 4 that predicted y_i best (``_predict``), no
    guess at k = 0.  A stage that does not converge from the guess reruns
    from y_i, and its entry records the order (``"order"`` next to
    ``"start": "extrapolated"``).  Each step also gets the previous
    step's dual point (``StepSolution.dual``): none on the first step, nor
    after a step that did not end on the dual route.  A total-variation
    step starts its dual solve from it, a step of a law with a flux jump
    (``kink_scale`` > 0) its multiplier loop (``solve_step``), and every
    other step ignores it.  A smooth law's steps share one lagged Newton
    factor.  Both live only in this call, so two flows of one problem
    repeat the same solves bit for bit.
    """
    if n < 1:
        raise ValueError("need at least one step")
    cfg = cfg or StepConfig()
    grid = problem.grid
    h = problem.T / n
    y = problem.y0.copy()
    if obstacle and y.min() < -1e-12:
        raise Inapplicable("the obstacle flow needs nonnegative initial data")
    fields = np.empty((n + 1, grid.n_nodes))
    etas = np.empty((n, grid.n_cells, grid.dimension))
    residuals = np.empty(n)
    certs = np.empty(n)
    source_sq = np.empty((n, 2))
    logs = []
    fields[0] = y
    # one lagged Newton factor and one carried dual per flow, never on the
    # grid, so every flow of a problem repeats the same solves
    lagged = _LaggedFactor()
    dual = None
    guess, order = None, 0
    extrapolate = not obstacle and _takes_guess(grid, problem.model)
    for i in range(1, n + 1):
        fbar, gbar, source_sq[i - 1] = _step_sources(problem, i, h)
        w1 = y.copy() if fbar is None else y + h * fbar
        w2 = y[grid.boundary_nodes]
        if gbar is not None:
            w2 = w2 + h * gbar
        if extrapolate:
            guess, order = _predict(fields[:i])
        try:
            if obstacle:
                sol = solve_step_obstacle(grid, problem.model, i * h, h, w1,
                                          w2, cfg, u0=y)
            else:
                sol = solve_step(grid, problem.model, i * h, h, w1, w2, cfg,
                                 u0=y, lagged=lagged, dual=dual, guess=guess)
        except StepNonConverged as exc:
            _mark_order(exc.log, order)
            err = StepNonConverged(f"step {i} (t = {i * h:g}) failed: {exc}",
                                   residual=exc.residual, log=exc.log)
            err.step_index = i
            raise err from exc
        _mark_order(sol.iterations, order)
        y, dual = sol.u, sol.dual
        fields[i] = y
        etas[i - 1] = sol.eta
        residuals[i - 1] = sol.residual
        certs[i - 1] = sol.fenchel_total
        logs.append(sol.iterations)
    return Trajectory(problem, h, np.arange(n + 1) * h, fields, etas,
                      residuals, certs, source_sq, logs)


def _predictor_rows(top):
    """The rows that take the last top + 2 fields, oldest first, to the
    backward differences nabla^1..nabla^{top+1} of the newest, then to the
    extrapolants of orders 1..top, y + sum_{j=1..k} nabla^j y."""
    nabla = np.array([[(-1) ** l * math.comb(j, l) for l in range(top + 2)]
                      for j in range(top + 2)], dtype=float)
    rows = np.vstack([nabla[1:], np.cumsum(nabla, axis=0)[1:-1]])
    return np.ascontiguousarray(rows[:, ::-1])


_PREDICTOR_ROWS = {top: _predictor_rows(top) for top in range(1, 5)}


def _predict(past):
    """The start Newton is handed for the step after the fields ``past``
    (rows y_0, ..., y_m), and its order k: y_m + sum_{j=1..k} nabla^j y_m,
    the degree-k polynomial through the last k + 1 fields taken one step
    on, the predictor of variable-order BDF codes (Brenan, Campbell and
    Petzold, 1996).  After two fields the order is 1, the
    linear 2 y_1 - y_0.  Later, k in {0, ..., min(4, m - 1)} is the order
    whose polynomial through the k + 1 fields before y_m predicted y_m
    best; that error is ||nabla^{k+1} y_m||_inf.  Differences that grow,
    as on a field that oscillates from step to step, choose k = 0, and
    the guess is None: the step starts from y_m itself.
    """
    m = len(past) - 1
    if m < 1:
        return None, 0
    if m == 1:
        return 2.0 * past[1] - past[0], 1
    top = min(4, m - 1)
    rows = np.dot(_PREDICTOR_ROWS[top], past[m - top - 1:])
    k = int(np.maximum.reduce(np.abs(rows[:top + 1]), axis=1).argmin())
    return (None, 0) if k == 0 else (rows[top + k], k)


def _mark_order(log, order):
    """Record the predictor's order on a step's entries for a stage run
    from the guess that missed (marked "start")."""
    for entry in log:
        if "start" in entry:
            entry["order"] = order


def _step_sources(problem, i, h):
    """Step i's source averages fbar, gbar (None for an absent source) and
    [h int ||f||^2, h int ||g||^2] over the step, all from one 5-point
    sampling of each source."""
    grid = problem.grid
    fbar = gbar = None
    sq = np.zeros(2)
    if problem.f is not None:
        fbar, fsq = disc.time_moments(problem.f, i, h, grid, "domain")
        sq[0] = h * float(grid.node_weights @ fsq)
    if problem.g is not None:
        gbar, gsq = disc.time_moments(problem.g, i, h, grid, "boundary")
        sq[1] = h * float(grid.boundary_weights @ gsq)
    return fbar, gbar, sq


# ---------------------------------------------------------------------------
# diagnostics


def stability_report(traj):
    """Stability quantities of the scheme and the discrete Gronwall bound.

    The bound is 2 e^T (||y0||^2 + ||trace y0||^2 + C0) with
    C0 = h int_0^T (||f||^2 + ||g||^2) + ||y0||^2 + ||trace y0||^2
    + 2 T |c10| |Omega|; PASS means every iterate satisfies it.
    """
    problem = traj.problem
    grid = problem.grid
    model = problem.model
    n = traj.n_steps
    h = traj.h
    growth = model.growth
    p = growth.p if growth.regime == "strong" else 1.0
    c10 = growth.c10 if growth.regime == "strong" else 0.0

    norms_d = np.array([disc.norm_domain(grid, traj.fields[i])
                        for i in range(n + 1)])
    norms_b = np.array([disc.norm_boundary(grid, disc.trace(grid, traj.fields[i]))
                        for i in range(n + 1)])
    grad_sum = 0.0
    pot_sum = 0.0
    dq_d = 0.0
    dq_b = 0.0
    for i in range(1, n + 1):
        gy = disc.gradient(grid, traj.fields[i])
        grad_sum += h * disc.grad_norm_p(grid, gy, p) ** p
        jv = model.potential(i * h, grid.cell_centers, gy)
        pot_sum += h * float(grid.cell_volumes @ jv)
        dy = (traj.fields[i] - traj.fields[i - 1]) / h
        dq_d += h * disc.norm_domain(grid, dy) ** 2
        dq_b += h * disc.norm_boundary(grid, disc.trace(grid, dy)) ** 2
    fa, ga = traj.source_sq.T
    c0 = (h * float(fa.sum() + ga.sum()) + norms_d[0] ** 2 + norms_b[0] ** 2
          + 2.0 * problem.T * abs(c10) * grid.domain_measure)
    bound = 2.0 * np.exp(problem.T) * (norms_d[0] ** 2 + norms_b[0] ** 2 + c0)
    lhs = norms_d ** 2 + norms_b ** 2
    ok = bool(np.all(lhs <= bound * (1.0 + 1e-12) + 1e-14))
    return DiagnosticsRecord(
        max_norm_domain=float(norms_d.max()),
        max_norm_boundary=float(norms_b.max()),
        grad_p_sum=float(grad_sum),
        diff_quot_domain=float(dq_d),
        diff_quot_boundary=float(dq_b),
        potential_sum=float(pot_sum),
        gronwall_bound=float(bound),
        gronwall_pass=ok,
        norms_domain=norms_d,
        norms_boundary=norms_b,
        energies=traj.energies if problem.autonomous else None,
    )


def _lr_exponent(model):
    g = model.growth
    if g.regime == "strong":
        return 2.0 if g.p >= 2.0 else g.p
    return 1.0


def flow_distance(traj_a, traj_b, r=None):
    """Discrete L^r(Q) distance of two h-interpolants on a shared grid."""
    grid = traj_a.grid
    if r is None:
        r = _lr_exponent(traj_a.problem.model)
    T = traj_a.problem.T
    edges = np.unique(np.concatenate([traj_a.times, traj_b.times]))
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        tm = 0.5 * (a + b)
        ya = traj_a.interpolant(tm)
        yb = traj_b.interpolant(tm)
        total += (b - a) * float(grid.node_weights @ np.abs(ya - yb) ** r)
    return total ** (1.0 / r)


def convergence_study(problem, n_list, cfg=None):
    """Self-convergence of the h-interpolants across a refinement list."""
    ns = sorted(int(n) for n in n_list)
    trajs = [run_flow(problem, n, cfg) for n in ns]
    r = _lr_exponent(problem.model)
    distances = [flow_distance(trajs[k], trajs[k + 1], r)
                 for k in range(len(trajs) - 1)]
    orders = []
    for k in range(1, len(distances)):
        if distances[k] > 0 and distances[k - 1] > 0:
            orders.append(float(np.log2(distances[k - 1] / distances[k])))
        else:
            orders.append(float("inf"))
    return ConvergenceTable(ns=ns, hs=[problem.T / n for n in ns], r=r,
                            distances=distances, orders=orders)


def _source_difference(a, b):
    """The source (t, pts) -> a - b of two sources, None read as 0."""

    def diff(t, pts):
        va = a(t, pts) if a is not None else 0.0
        vb = b(t, pts) if b is not None else 0.0
        return np.asarray(va, dtype=float) - np.asarray(vb, dtype=float)

    return diff


def contraction_check(problem, perturbed, n, cfg=None):
    """Continuous dependence on the data along two flows.

    Verifies the squared product-norm distance against the accumulated
    data distance; with identical sources the step map is nonexpansive and
    the empirical constant must not exceed one.
    """
    if perturbed.grid is not problem.grid:
        raise ValueError("both problems must share one grid")
    grid = problem.grid
    ta = run_flow(problem, n, cfg)
    tb = run_flow(perturbed, n, cfg)
    h = ta.h
    df = np.zeros(n)
    dg = np.zeros(n)
    pure = problem.f is perturbed.f and problem.g is perturbed.g
    if not pure:
        delta = ProblemData(grid, np.zeros(grid.n_nodes),
                            _source_difference(problem.f, perturbed.f),
                            _source_difference(problem.g, perturbed.g),
                            problem.T, problem.model)
        df, dg = np.array([_step_sources(delta, i, h)[2]
                           for i in range(1, n + 1)]).T
    dists = np.array([disc.norm_domain(grid, du) ** 2
                      + disc.norm_boundary(grid, disc.trace(grid, du)) ** 2
                      for du in ta.fields - tb.fields])
    # the data term starts at the initial distance
    data = np.array([dists[0] + float(df[:m].sum() + dg[:m].sum())
                     for m in range(n + 1)])
    ratios = [dists[m] / data[m] for m in range(1, n + 1) if data[m] > 1e-300]
    c_emp = max(ratios) if ratios else 0.0
    return ContractionReport(distances=dists, data_terms=data,
                             c_empirical=float(c_emp), pure_initial=pure,
                             nonexpansive_pass=bool(not pure or c_emp <= 1.0 + 1e-8))


def _energy(grid, model, u):
    gy = disc.gradient(grid, u)
    jv = model.potential(0.0, grid.cell_centers, gy)
    return float(grid.cell_volumes @ jv)


def energy_trace(traj, tol=1e-10, dissipation_tol=1e-8):
    """Energy values along an autonomous source-free flow.

    The implicit step is a proximal step of the energy, so the sequence
    must be nonincreasing and satisfy the per-step dissipation inequality
    energy(y_{i+1}) + (1/h) (||dy||^2 + ||trace dy||^2) <= energy(y_i).
    """
    problem = traj.problem
    if not problem.autonomous:
        raise Inapplicable("energy decay applies to autonomous, source-free "
                           "flows only")
    grid = problem.grid
    n = traj.n_steps
    h = traj.h
    energies = traj.energies
    increases = np.diff(energies)
    max_inc = float(increases.max(initial=0.0))
    viol = 0.0
    for i in range(n):
        dy = traj.fields[i + 1] - traj.fields[i]
        dd = (disc.norm_domain(grid, dy) ** 2
              + disc.norm_boundary(grid, disc.trace(grid, dy)) ** 2)
        viol = max(viol, energies[i + 1] + dd / h - energies[i])
    return EnergyReport(energies=energies,
                        monotone_pass=bool(max_inc <= tol),
                        max_increase=max_inc,
                        dissipation_pass=bool(viol <= dissipation_tol),
                        max_dissipation_violation=float(viol))


def total_mass(grid, u):
    """Combined domain-plus-boundary integral, conserved by source-free flows."""
    return (disc.integrate_domain(grid, u)
            + disc.integrate_boundary(grid, disc.trace(grid, u)))


def _gauge_residual(grid, eta, rhs):
    """Max-norm of the mass-scaled equilibrium residual K^T W eta - rhs,
    modulo the constant gauge direction."""
    g = disc.grad_adjoint(grid, eta) - rhs
    m = grid.mass
    return float(np.max(np.abs(g - g.sum() / m.sum() * m) / m))


def steady_state_residual(grid, model, u, f_field, g_vals):
    """Mass-scaled stationarity residual of the equilibrium system, modulo
    the constant gauge direction."""
    eta = model.select(0.0, grid.cell_centers,
                       disc.gradient(grid, grid.check_field(u)))
    return _gauge_residual(grid, eta, _rhs(grid, f_field, g_vals))


# Size H of the implicit steps whose fixed point is the steady state: a
# step shrinks the distance to it by about 1 / (1 + H c), c the smallest
# nonzero curvature, so a large H takes few steps.  The Newton systems
# M + H K^T C K grow ill-conditioned with H: at 1e9 Newton stalls on the
# lam_min envelope of total variation (curvature 1 / lam_min).
_STEADY_STEP = 1e5
# Steps in a row without a new lowest residual after which a stage stops:
# from its envelope's minimizer a step only stirs the rounding.
_STEADY_PATIENCE = 3


def steady_state(grid, model, f_field, g_vals, tol=1e-9, max_iter=200):
    """Equilibrium state: minimizer of the energy minus the source pairing
    over the zero-total-mean gauge.

    Requires the compatibility condition int_Omega f + int_Gamma g = 0 (the
    energy is invariant under constants); raises IncompatibleData else.
    The equilibrium is the fixed point of the flow's implicit step map, so
    it is reached by steps of the fixed size ``_STEADY_STEP`` from u = 0
    (the proximal-point iteration), each by the step solver's damped
    Newton, until the gauge-projected residual meets ``tol``; nonsmooth
    laws step on each envelope of the default lam schedule in turn.  A
    stage stops early at its residual floor (``_STEADY_PATIENCE``), and a
    last stage left above ``tol`` raises StepNonConverged with its lam,
    steps and lowest residual.  The data are first shifted by a constant
    to balance exactly, so every step keeps the zero total mass of the
    start and no constraint is needed.  ``max_iter`` bounds the steps of a
    stage and the Newton iterations of a step.
    """
    f_field = grid.check_field(np.asarray(f_field, dtype=float), "f")
    g_vals = grid.check_boundary_values(np.asarray(g_vals, dtype=float), "g")
    compat = (disc.integrate_domain(grid, f_field)
              + disc.integrate_boundary(grid, g_vals))
    scale = 1.0 + disc.norm_domain(grid, f_field) + disc.norm_boundary(grid, g_vals)
    if abs(compat) > 1e-8 * scale:
        raise IncompatibleData(
            f"equilibrium data must balance: int f + int g = {compat:.3e}")
    measure = grid.domain_measure + grid.boundary_measure
    f_field = f_field - compat / measure
    g_vals = g_vals - compat / measure
    rhs = _rhs(grid, f_field, g_vals)
    h = _STEADY_STEP

    def residual(u, lam):
        gu = disc.gradient(grid, u)
        eta = (model.select(0.0, grid.cell_centers, gu) if lam is None
               else model.yosida(0.0, grid.cell_centers, lam, gu))
        return _gauge_residual(grid, eta, rhs)

    lams = [None] if model.is_smooth else StepConfig().lam_schedule()
    u = np.zeros(grid.n_nodes)
    for lam in lams:
        stage_tol = tol if lam == lams[-1] else max(tol, 1e-8)
        res = best = residual(u, lam)
        steps = stale = 0
        while res > stage_tol and steps < max_iter and stale < _STEADY_PATIENCE:
            prob = _StageProblem(grid, model, 0.0, h, u + h * f_field,
                                 u[grid.boundary_nodes] + h * g_vals, lam)
            u, _ = _minimize_newton(prob, u, 0.1 * h * stage_tol, max_iter)
            steps += 1
            res = residual(u, lam)
            stale = 0 if res < best else stale + 1
            best = min(best, res)
    if not res <= tol:  # NaN-safe: an overflowed iterate raises too
        raise StepNonConverged(
            f"steady state residual {res:.3e} exceeds {tol:.1e}: the lam={lam} "
            f"stage reached {best:.3e} at best in {steps} steps", residual=res)
    # fix the gauge exactly
    return u - total_mass(grid, u) / measure


def asymptotics_check(problem, t_long, n_long, cfg=None, tol=1e-6):
    """Long-time convergence toward the equilibrium with matching mass.

    The sources must be constant in time.  PASS means the distance history
    is eventually nonincreasing and ends below the tolerance.
    """
    grid = problem.grid
    f_field = (np.zeros(grid.n_nodes) if problem.f is None
               else np.asarray(problem.f(0.0, grid.nodes), dtype=float)
               * np.ones(grid.n_nodes))
    g_vals = (np.zeros(grid.boundary_nodes.size) if problem.g is None
              else np.asarray(problem.g(0.0, grid.boundary_coords), dtype=float)
              * np.ones(grid.boundary_nodes.size))
    y_inf = steady_state(grid, problem.model, f_field, g_vals)
    shift = total_mass(grid, problem.y0) / (grid.domain_measure
                                            + grid.boundary_measure)
    y_inf = y_inf + shift
    long_problem = ProblemData(grid, problem.y0, problem.f, problem.g,
                               t_long, problem.model)
    traj = run_flow(long_problem, n_long, cfg)
    dists = np.array([disc.norm_domain(grid, traj.fields[i] - y_inf)
                      for i in range(traj.n_steps + 1)])
    slack = 1e-12 + 1e-9 * dists.max(initial=0.0)
    tail = 1
    while tail < dists.size and dists[-tail - 1] >= dists[-tail] - slack:
        tail += 1
    eventually = tail >= max(3, dists.size // 10)
    final = float(dists[-1])
    return AsymptoticsReport(distances=dists, y_infinity=y_inf,
                             final_distance=final,
                             eventually_decreasing=bool(eventually),
                             passed=bool(eventually and final <= tol))


# ---------------------------------------------------------------------------
# export


def export_trajectory(traj, outdir, save_every=1):
    """Write one CSV per saved slice plus a manifest of times and energies.

    Every ``save_every``-th slice is saved, and the last one always.
    """
    os.makedirs(outdir, exist_ok=True)
    grid = traj.grid
    n = traj.n_steps
    # the "i,x0[,x1]," start of each grid row, formatted once per export
    prefixes = [f"{i}," + "".join(f"{c:.17g}," for c in x)
                for i, x in enumerate(grid.nodes.tolist())]
    header = ",".join(["node"] + [f"x{a}" for a in range(grid.dimension)]
                      + ["value"]) + "\r\n"
    saved = []
    for i in sorted({*range(0, n + 1, save_every), n}):
        name = f"field_{i:06d}.csv"
        _write_field_csv(os.path.join(outdir, name), header, prefixes,
                         traj.fields[i])
        saved.append({"step": i, "t": float(traj.times[i]), "file": name})
    manifest = {
        "times": [float(t) for t in traj.times],
        "step_residuals": [float(v) for v in traj.step_residuals],
        "step_certificates": [float(v) for v in traj.step_certificates],
        "saved_fields": saved,
    }
    if traj.problem.autonomous:
        manifest["energies"] = [float(v) for v in traj.energies]
    path = os.path.join(outdir, "trajectory.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return path


def _write_field_csv(path, header, prefixes, u):
    """One slice as CSV, byte for byte as ``csv.writer`` writes it (CRLF
    line ends, no quoting), values to 17 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "".join(f"{pre}{v:.17g}\r\n"
                                  for pre, v in zip(prefixes, u.tolist())))
