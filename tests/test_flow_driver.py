import csv
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wentzellflow import discretization as disc
from wentzellflow import flow_driver as fd
from wentzellflow import flux_models as fm
from wentzellflow import oracles as orc
from wentzellflow import step_solver as ss

TIGHT = ss.StepConfig(tol=1e-12)


def mean_zero(grid, u):
    return u - fd.total_mass(grid, u) / (grid.domain_measure
                                         + grid.boundary_measure)


def quad_mms():
    """Manufactured solution y = exp(-t) cos(pi x) for the identity flux."""
    def y_ex(t, x):
        return np.exp(-t) * np.cos(np.pi * x)

    def f(t, pts):
        return (np.pi ** 2 - 1.0) * np.exp(-t) * np.cos(np.pi * pts[:, 0])

    def g(t, pts):
        return -np.exp(-t) * np.cos(np.pi * pts[:, 0])

    return y_ex, f, g


def plap4_mms():
    """Manufactured solution y = exp(-t) sin(pi x) for the cubic flux."""
    def f(t, pts):
        x = pts[:, 0]
        return (-np.exp(-t) * np.sin(np.pi * x)
                + 3.0 * np.pi ** 4 * np.exp(-3.0 * t)
                * np.cos(np.pi * x) ** 2 * np.sin(np.pi * x))

    def g(t, pts):
        return np.full(pts.shape[0], -np.pi ** 3 * np.exp(-3.0 * t))

    return f, g


# ---------------------------------------------------------------------------
# run_flow


@pytest.mark.parametrize("model", [fm.quadratic(1),
                                   fm.anisotropic_p_laplacian(4.0),
                                   fm.fractured_medium(4.0, thresholds=0.5),
                                   fm.total_variation(1.0)],
                         ids=lambda m: m.kind)
def test_constant_flow_stays_constant(model):
    g = disc.interval_grid(8)
    prob = fd.ProblemData(g, np.full(9, 0.4), None, None, 0.5, model)
    traj = fd.run_flow(prob, 5)
    assert np.max(np.abs(traj.fields - 0.4)) < 1e-12


def test_quadratic_flow_matches_dense_oracle_stepwise():
    g = disc.interval_grid(8)
    rng = np.random.default_rng(0)
    prob = fd.ProblemData(g, rng.standard_normal(9), None, None, 0.5,
                          fm.quadratic(1))
    traj = fd.run_flow(prob, 10, TIGHT)
    y = prob.y0.copy()
    for i in range(10):
        y = orc.dense_linear_step(g, 0.05, y, y[g.boundary_nodes])
        assert np.max(np.abs(y - traj.fields[i + 1])) < 1e-8


def test_flow_weak_form_residuals_and_mass():
    g = disc.interval_grid(16)
    rng = np.random.default_rng(1)
    prob = fd.ProblemData(g, rng.standard_normal(17), None, None, 0.3,
                          fm.anisotropic_p_laplacian(4.0))
    traj = fd.run_flow(prob, 6, TIGHT)
    assert np.max(traj.step_residuals) <= 1e-12
    assert np.max(traj.step_certificates) <= 1e-6
    masses = [fd.total_mass(g, traj.fields[i]) for i in range(7)]
    assert max(abs(m - masses[0]) for m in masses) < 1e-10


def test_flow_mms_convergence_to_exact():
    y_ex, f, g_src = quad_mms()
    errs = []
    for n_x, n_t in ((8, 10), (16, 20), (32, 40)):
        g = disc.interval_grid(n_x)
        y0 = y_ex(0.0, g.nodes[:, 0])
        prob = fd.ProblemData(g, y0, f, g_src, 0.5, fm.quadratic(1))
        traj = fd.run_flow(prob, n_t, TIGHT)
        errs.append(disc.norm_domain(g, traj.fields[-1]
                                     - y_ex(0.5, g.nodes[:, 0])))
    assert errs[1] < 0.6 * errs[0]
    assert errs[2] < 0.6 * errs[1]


def test_flow_propagates_nonconvergence_with_step_index():
    g = disc.interval_grid(8)
    rng = np.random.default_rng(2)
    prob = fd.ProblemData(g, rng.standard_normal(9), None, None, 0.5,
                          fm.anisotropic_p_laplacian(4.0))
    with pytest.raises(ss.StepNonConverged, match="step 1") as excinfo:
        fd.run_flow(prob, 5, ss.StepConfig(tol=1e-15, max_iter=1))
    assert excinfo.value.step_index == 1


# ---------------------------------------------------------------------------
# stability


def test_stability_constant_trajectory():
    g = disc.interval_grid(8)
    prob = fd.ProblemData(g, np.full(9, 1.0), None, None, 0.5, fm.quadratic(1))
    rep = fd.stability_report(fd.run_flow(prob, 5))
    assert rep.diff_quot_domain == pytest.approx(0.0, abs=1e-20)
    assert rep.diff_quot_boundary == pytest.approx(0.0, abs=1e-20)
    assert rep.grad_p_sum == pytest.approx(0.0, abs=1e-20)
    assert rep.potential_sum == pytest.approx(0.0, abs=1e-20)
    assert rep.gronwall_pass


def test_stability_quantities_bounded_under_halving():
    y_ex, f, g_src = quad_mms()
    g = disc.interval_grid(16)
    y0 = y_ex(0.0, g.nodes[:, 0])
    prob = fd.ProblemData(g, y0, f, g_src, 0.5, fm.quadratic(1))
    reps = [fd.stability_report(fd.run_flow(prob, n, TIGHT))
            for n in (10, 20, 40)]
    for key, coarse in reps[0].quantities().items():
        values = [getattr(r, key) for r in reps]
        assert max(values) <= 2.0 * coarse + 1e-10, key
    assert all(r.gronwall_pass for r in reps)


def test_stability_adversarial_source_still_bounded():
    g = disc.interval_grid(8)

    def f(t, pts):
        return 100.0 * np.sin(20.0 * t) * np.ones(pts.shape[0])

    prob = fd.ProblemData(g, np.zeros(9), f, None, 0.5, fm.quadratic(1))
    rep = fd.stability_report(fd.run_flow(prob, 20, TIGHT))
    assert rep.gronwall_pass
    assert rep.max_norm_domain > 0.1  # the source really kicked


def test_gronwall_bound_reuses_the_flow_source_samples():
    f, g_src = plap4_mms()
    g = disc.interval_grid(16)
    prob = fd.ProblemData(g, np.sin(np.pi * g.nodes[:, 0]), f, g_src, 0.5,
                          fm.anisotropic_p_laplacian(4.0))
    n = 20
    traj = fd.run_flow(prob, n, TIGHT)
    rep = fd.stability_report(traj)
    # the bound as computed from a second sampling of f^2 and g^2 per step
    h = traj.h
    fa, ga = np.zeros(n), np.zeros(n)
    for i in range(1, n + 1):
        fa[i - 1] = h * float(g.node_weights @ disc.time_average(
            lambda t, p: np.asarray(f(t, p), dtype=float) ** 2, i, h, g))
        ga[i - 1] = h * float(g.boundary_weights @ disc.time_average(
            lambda t, p: np.asarray(g_src(t, p), dtype=float) ** 2, i, h, g,
            "boundary"))
    assert np.array_equal(traj.source_sq, np.column_stack([fa, ga]))
    nd, nb = rep.norms_domain[0], rep.norms_boundary[0]
    c10 = prob.model.growth.c10
    c0 = (h * float(fa.sum() + ga.sum()) + nd ** 2 + nb ** 2
          + 2.0 * prob.T * abs(c10) * g.domain_measure)
    assert rep.gronwall_bound == 2.0 * np.exp(prob.T) * (nd ** 2 + nb ** 2 + c0)
    assert rep.gronwall_pass


def test_energies_are_computed_once_and_shared(tmp_path, monkeypatch):
    g = disc.interval_grid(8)
    prob = fd.ProblemData(g, np.cos(np.pi * g.nodes[:, 0]), None, None, 0.2,
                          fm.anisotropic_p_laplacian(4.0))
    traj = fd.run_flow(prob, 6)
    fresh = [fd._energy(g, prob.model, u) for u in traj.fields]
    calls = []
    real = fd._energy
    monkeypatch.setattr(fd, "_energy",
                        lambda *a: calls.append(1) or real(*a))
    rep = fd.stability_report(traj)
    er = fd.energy_trace(traj)
    path = fd.export_trajectory(traj, tmp_path)
    manifest = json.loads(open(path).read())
    assert len(calls) == traj.n_steps + 1
    assert rep.energies.tolist() == fresh
    assert er.energies.tolist() == fresh
    assert manifest["energies"] == fresh
    assert rep.energies is er.energies and not er.energies.flags.writeable


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------
# convergence study


def test_convergence_constant_solution_zero_distance():
    g = disc.interval_grid(8)
    prob = fd.ProblemData(g, np.full(9, 2.0), None, None, 0.5, fm.quadratic(1))
    tab = fd.convergence_study(prob, [4, 8, 16])
    assert all(d == 0.0 for d in tab.distances)


def test_convergence_order_quadratic():
    y_ex, f, g_src = quad_mms()
    g = disc.interval_grid(16)
    prob = fd.ProblemData(g, y_ex(0.0, g.nodes[:, 0]), f, g_src, 0.5,
                          fm.quadratic(1))
    tab = fd.convergence_study(prob, [10, 20, 40, 80], TIGHT)
    assert tab.r == 2.0
    assert min(tab.orders) >= 0.8


def test_convergence_tv_distances_decrease():
    g = disc.interval_grid(16)
    y0 = np.where(g.nodes[:, 0] > 0.5, 1.0, 0.0)
    prob = fd.ProblemData(g, y0, None, None, 0.2, fm.total_variation(1.0))
    tab = fd.convergence_study(prob, [5, 10, 20, 40],
                               ss.StepConfig())
    assert tab.r == 1.0
    assert all(b < a for a, b in zip(tab.distances[:-1], tab.distances[1:]))


# ---------------------------------------------------------------------------
# contraction


def test_contraction_identical_data_zero():
    g = disc.interval_grid(8)
    rng = np.random.default_rng(3)
    y0 = rng.standard_normal(9)
    prob = fd.ProblemData(g, y0, None, None, 0.5, fm.quadratic(1))
    prob2 = fd.ProblemData(g, y0.copy(), None, None, 0.5, fm.quadratic(1))
    rep = fd.contraction_check(prob, prob2, 5, TIGHT)
    assert np.max(rep.distances) < 1e-20


def test_contraction_initial_perturbation_nonexpansive():
    g = disc.interval_grid(8)
    rng = np.random.default_rng(4)
    y0 = rng.standard_normal(9)
    prob = fd.ProblemData(g, y0, None, None, 0.5, fm.quadratic(1))
    prob2 = fd.ProblemData(g, y0 + 0.3 * rng.standard_normal(9), None, None,
                           0.5, fm.quadratic(1))
    rep = fd.contraction_check(prob, prob2, 8, TIGHT)
    assert rep.pure_initial
    assert rep.c_empirical <= 1.0 + 1e-8
    assert rep.nonexpansive_pass


def test_contraction_source_perturbation_finite():
    g = disc.interval_grid(8)
    rng = np.random.default_rng(5)
    y0 = rng.standard_normal(9)

    def f2(t, pts):
        return np.sin(2 * np.pi * pts[:, 0]) * np.cos(t)

    prob = fd.ProblemData(g, y0, None, None, 0.5, fm.quadratic(1))
    prob2 = fd.ProblemData(g, y0.copy(), f2, None, 0.5, fm.quadratic(1))
    rep = fd.contraction_check(prob, prob2, 8, TIGHT)
    assert not rep.pure_initial
    assert np.isfinite(rep.c_empirical)
    assert rep.c_empirical > 0


def test_semigroup_nonexpansive_every_time():
    # the map (y0, trace y0) -> (y_m, trace y_m) never expands the product norm
    g = disc.interval_grid(8)
    rng = np.random.default_rng(6)
    y0 = rng.standard_normal(9)
    for model in (fm.anisotropic_p_laplacian(4.0), fm.total_variation(1.0)):
        prob = fd.ProblemData(g, y0, None, None, 0.3, model)
        prob2 = fd.ProblemData(g, y0 + 0.2 * rng.standard_normal(9), None,
                               None, 0.3, model)
        cfg = ss.StepConfig(tol=1e-10, lam_min=1e-10)
        rep = fd.contraction_check(prob, prob2, 6, cfg)
        assert np.all(rep.distances[1:] <= rep.distances[0] * (1 + 1e-8))


# ---------------------------------------------------------------------------
# energy


def test_energy_constant_zero():
    g = disc.interval_grid(8)
    prob = fd.ProblemData(g, np.full(9, 1.0), None, None, 0.5, fm.quadratic(1))
    rep = fd.energy_trace(fd.run_flow(prob, 5))
    assert np.allclose(rep.energies, 0.0)
    assert rep.monotone_pass and rep.dissipation_pass


def test_energy_strictly_decreasing_quadratic():
    g = disc.interval_grid(16)
    y0 = np.cos(2 * np.pi * g.nodes[:, 0])
    prob = fd.ProblemData(g, y0, None, None, 0.5, fm.quadratic(1))
    traj = fd.run_flow(prob, 20, TIGHT)
    rep = fd.energy_trace(traj)
    assert rep.monotone_pass and rep.dissipation_pass
    assert np.all(np.diff(rep.energies) < 0)  # strictly decreasing here
    # cross-check the energies against the dense-solve oracle trajectory
    y = y0.copy()
    for i in range(20):
        y = orc.dense_linear_step(g, 0.025, y, y[g.boundary_nodes])
    gy = disc.gradient(g, y)
    assert rep.energies[-1] == pytest.approx(
        0.5 * float(g.cell_volumes @ (gy * gy).sum(axis=1)), rel=1e-6)


def test_energy_tv_flow_nonincreasing_vs_oracle():
    g = disc.interval_grid(16)
    y0 = np.where(g.nodes[:, 0] > 0.5, 1.0, 0.0)
    prob = fd.ProblemData(g, y0, None, None, 0.2, fm.total_variation(1.0))
    traj = fd.run_flow(prob, 10, ss.StepConfig())
    rep = fd.energy_trace(traj)
    assert rep.monotone_pass and rep.dissipation_pass
    # oracle replay with the exact DP prox
    m = g.node_weights + g.boundary_mass_full
    y = y0.copy()
    for i in range(10):
        y = orc.tv_prox_1d(y, 1.0 * 0.02, m)
        assert np.max(np.abs(y - traj.fields[i + 1])) < 1e-7


def test_energy_inapplicable():
    g = disc.interval_grid(8)
    prob = fd.ProblemData(g, np.zeros(9), lambda t, pts: np.ones(pts.shape[0]),
                          None, 0.5, fm.quadratic(1))
    with pytest.raises(fd.Inapplicable):
        fd.energy_trace(fd.run_flow(prob, 3))


def test_energy_dissipation_inequality_all_models():
    g = disc.interval_grid(16)
    y0 = 0.5 * np.cos(2 * np.pi * g.nodes[:, 0])
    cases = [
        (fm.quadratic(1), TIGHT),
        (fm.anisotropic_p_laplacian(4.0), TIGHT),
        (fm.fractured_medium(4.0, thresholds=0.5),
         ss.StepConfig(tol=1e-10, lam_min=1e-11)),
        (fm.log_growth(1.0), TIGHT),
        (fm.total_variation(1.0), ss.StepConfig()),
    ]
    for model, cfg in cases:
        prob = fd.ProblemData(g, y0, None, None, 0.2, model)
        rep = fd.energy_trace(fd.run_flow(prob, 10, cfg))
        assert rep.monotone_pass, model.kind
        assert rep.dissipation_pass, model.kind


# ---------------------------------------------------------------------------
# steady states and asymptotics


def test_steady_state_trivial_gauge():
    g = disc.interval_grid(8)
    u = fd.steady_state(g, fm.quadratic(1), np.zeros(9), np.zeros(2))
    assert np.max(np.abs(u)) == 0.0


def test_steady_state_incompatible():
    g = disc.interval_grid(8)
    with pytest.raises(fd.IncompatibleData):
        fd.steady_state(g, fm.quadratic(1), np.ones(9), np.zeros(2))


def test_steady_state_quadratic_matches_dense_oracle():
    g = disc.interval_grid(12)
    xs = g.nodes[:, 0]
    f_field = np.pi ** 2 * np.cos(np.pi * xs)
    g_vals = np.zeros(2)
    u = fd.steady_state(g, fm.quadratic(1), f_field, g_vals, tol=1e-11)
    # dense bordered oracle built from the same quadrature
    gm = g.grad_ops[0].toarray()
    k = gm.T @ np.diag(g.cell_volumes) @ gm
    m = g.node_weights + g.boundary_mass_full
    rhs = g.node_weights * f_field
    rhs[g.boundary_nodes] += g.boundary_weights * g_vals
    n = g.n_nodes
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, :n] = k
    kkt[:n, n] = m
    kkt[n, :n] = m
    ref = np.linalg.solve(kkt, np.concatenate([rhs, [0.0]]))[:n]
    assert np.max(np.abs(u - ref)) < 1e-9
    assert fd.steady_state_residual(g, fm.quadratic(1), u, f_field, g_vals) < 1e-11


@pytest.mark.parametrize("n, amp", [(32, 3.0), (64, 10.0)])
def test_steady_state_quadratic_meets_tol_near_rounding(n, amp):
    # near the solution the energy differences fall below rounding, where
    # a line search on the energy alone cannot accept a step
    g = disc.interval_grid(n)
    f_field = amp * np.cos(np.pi * g.nodes[:, 0])
    u = fd.steady_state(g, fm.quadratic(1), f_field, np.zeros(2))
    assert fd.steady_state_residual(g, fm.quadratic(1), u, f_field,
                                    np.zeros(2)) <= 1e-9


def steady_case(name):
    """(grid, model, f) with balanced data; the boundary source is zero."""
    if name == "p4-16x16":
        g = disc.rectangle_grid(16, 16)
        x, y = g.nodes.T
        return (g, fm.anisotropic_p_laplacian(4.0, dimension=2),
                np.cos(np.pi * x) * np.cos(np.pi * y))
    g = disc.interval_grid(32)
    f_field = np.cos(np.pi * g.nodes[:, 0])
    model = {"p4-1d": fm.anisotropic_p_laplacian(4.0),
             "log-growth": fm.log_growth(1.0),
             "fractured": fm.fractured_medium(4.0, thresholds=0.5),
             "tv": fm.total_variation(1.0)}[name]
    # the total-variation equilibrium exists for data whose primitive
    # stays inside the unit ball: 0.5 / pi < 1
    return g, model, (0.5 if name == "tv" else 1.0) * f_field


@pytest.mark.parametrize("name", ["p4-1d", "p4-16x16", "log-growth",
                                  "fractured", "tv"])
def test_steady_state_nonlinear_is_a_fixed_point_of_the_step(name):
    g, model, f_field = steady_case(name)
    g_vals = np.zeros(g.boundary_nodes.size)
    tol = 1e-9
    u = fd.steady_state(g, model, f_field, g_vals, tol=tol)
    assert abs(fd.total_mass(g, u)) <= 1e-12
    if model.is_smooth:
        assert fd.steady_state_residual(g, model, u, f_field, g_vals) <= tol
    # an implicit step of the flow with these sources leaves it in place, up
    # to the lam_min = 1e-6 envelope that nonsmooth equilibria solve
    h = 0.1
    cfg = ss.StepConfig(tol=1e-10, lam_min=1e-10, certificate_tol=1e-8)
    sol = ss.solve_step(g, model, 0.0, h, u + h * f_field,
                        u[g.boundary_nodes] + h * g_vals, cfg, u0=u)
    assert np.max(np.abs(sol.u - u)) <= 1e-6
    if model.kind == "tv":
        assert np.ptp(u) <= 1e-6


def test_steady_state_stops_at_a_residual_floor(monkeypatch):
    # on a 16x16 fractured law the lam_min envelope's gauge residual stalls
    # near 3e-9 > tol; the last stage gives up once steps stop lowering it
    # instead of running all max_iter = 200 steps
    g = disc.rectangle_grid(16, 16)
    x, y = g.nodes.T
    model = fm.fractured_medium(4.0, thresholds=0.5, dimension=2)
    calls = []
    real = fd._minimize_newton

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fd, "_minimize_newton", counted)
    with pytest.raises(ss.StepNonConverged) as err:
        fd.steady_state(g, model, np.cos(np.pi * x) * np.cos(np.pi * y),
                        np.zeros(g.boundary_nodes.size))
    lam_min = ss.StepConfig().lam_min
    stages = len(ss.StepConfig().lam_schedule())
    assert f"lam={lam_min}" in str(err.value) and "at best" in str(err.value)
    # about two steps per stage and a few on the last one (it used to run
    # all 200 there, 220 calls in all)
    assert len(calls) <= 3 * stages + 5
    assert err.value.residual > 1e-9


def test_lagged_factor_is_held_per_flow_not_on_the_grid():
    g = disc.rectangle_grid(34, 34)
    x, y = g.nodes.T
    y0 = np.cos(np.pi * x) * np.cos(np.pi * y)
    model = fm.anisotropic_p_laplacian(4, dimension=2)
    cfg = ss.StepConfig(tol=1e-10)
    problem = fd.ProblemData(g, y0, T=0.0125, model=model)

    def bare_step():
        return ss.solve_step(g, model, 0.0025, 0.0025, y0,
                             y0[g.boundary_nodes], cfg, u0=y0)

    before = bare_step()
    grid_state = dict(vars(g))
    plan_state = dict(vars(g.gram_plan))
    first = fd.run_flow(problem, 5, cfg)
    second = fd.run_flow(problem, 5, cfg)
    after = bare_step()
    assert "factorizations" in first.step_logs[0][0]
    assert np.array_equal(first.fields, second.fields)
    assert np.array_equal(first.etas, second.etas)
    assert first.step_logs == second.step_logs
    assert np.array_equal(before.u, after.u)
    assert np.array_equal(before.eta, after.eta)
    assert before.iterations == after.iterations
    # nothing was cached on the grid or its assembly plan by the flows
    assert vars(g).keys() == grid_state.keys()
    assert all(vars(g)[k] is v for k, v in grid_state.items())
    assert vars(g.gram_plan).keys() == plan_state.keys()
    assert all(vars(g.gram_plan)[k] is v for k, v in plan_state.items())


def _plain_flow(problem, n, cfg, obstacle=False, linear=False):
    """The steps of ``run_flow``, each started from the previous field
    alone, or with ``linear`` from step 2 on handed the guess
    2 y_i - y_{i-1}, with one lagged factor per flow: (final field, step
    logs)."""
    grid, model = problem.grid, problem.model
    h = problem.T / n
    y = problem.y0.copy()
    prev = None
    lagged = ss._LaggedFactor()
    logs = []
    for i in range(1, n + 1):
        fbar, gbar, _ = fd._step_sources(problem, i, h)
        w1 = y.copy() if fbar is None else y + h * fbar
        w2 = y[grid.boundary_nodes]
        if gbar is not None:
            w2 = w2 + h * gbar
        if obstacle:
            sol = ss.solve_step_obstacle(grid, model, i * h, h, w1, w2, cfg,
                                         u0=y)
        else:
            guess = 2.0 * y - prev if linear and prev is not None else None
            sol = ss.solve_step(grid, model, i * h, h, w1, w2, cfg, u0=y,
                                lagged=lagged, guess=guess)
        prev, y = y, sol.u
        logs.append(sol.iterations)
    return y, logs


def _newton_iters(logs):
    return sum(stage["iters"] for log in logs for stage in log)


def _starts(logs):
    return [stage["start"] for log in logs for stage in log
            if "start" in stage]


def test_extrapolated_start_saves_newton_iterations():
    # a smooth 1D flow with sources: each step from 2 y_i - y_{i-1} takes
    # fewer Newton iterations than from y_i, and lands on the same fields
    g = disc.interval_grid(64)
    x = g.nodes[:, 0]
    problem = fd.ProblemData(
        g, np.sin(np.pi * x),
        f=lambda t, pts: np.sin(np.pi * pts[:, 0]) * np.exp(-t),
        g=lambda t, pts: np.full(pts.shape[0], np.cos(t)),
        T=0.5, model=fm.anisotropic_p_laplacian(4.0))
    cfg = ss.StepConfig(tol=1e-10)
    traj = fd.run_flow(problem, 100, cfg)
    final, logs = _plain_flow(problem, 100, cfg)
    assert _newton_iters(traj.step_logs) <= 0.85 * _newton_iters(logs)
    assert np.max(np.abs(traj.fields[-1] - final)) <= 1e-9
    assert traj.step_residuals.max() <= cfg.tol


def test_variable_order_start_saves_newton_iterations():
    # on the flow of test_extrapolated_start_saves_newton_iterations the
    # variable-order start takes fewer Newton iterations than the linear
    # start 2 y_i - y_{i-1} handed to every step from step 2 on
    g = disc.interval_grid(64)
    problem = fd.ProblemData(
        g, np.sin(np.pi * g.nodes[:, 0]),
        f=lambda t, pts: np.sin(np.pi * pts[:, 0]) * np.exp(-t),
        g=lambda t, pts: np.full(pts.shape[0], np.cos(t)),
        T=0.5, model=fm.anisotropic_p_laplacian(4.0))
    cfg = ss.StepConfig(tol=1e-10)
    traj = fd.run_flow(problem, 100, cfg)
    final, logs = _plain_flow(problem, 100, cfg, linear=True)
    assert _newton_iters(traj.step_logs) <= 0.95 * _newton_iters(logs)
    assert np.max(np.abs(traj.fields[-1] - final)) <= 1e-9
    assert traj.step_residuals.max() <= cfg.tol


@pytest.mark.parametrize("degree", range(5))
def test_predictor_is_exact_on_polynomials_in_time(degree):
    # fields c(t) * profile with c of degree <= 4 are predicted to rounding
    # once enough of them are stored to show it
    rng = np.random.default_rng(degree)
    profile = rng.standard_normal(33)
    coeffs = rng.standard_normal(degree + 1)
    fields = np.array([np.polyval(coeffs, 0.01 * i) * profile
                       for i in range(10)])
    for m in range(degree + 2, 10):
        guess, order = fd._predict(fields[:m])
        start = fields[m - 1] if guess is None else guess
        assert np.max(np.abs(start - fields[m])) <= 1e-13
        assert order >= degree


def test_predictor_takes_no_guess_on_growing_differences():
    # alternating fields: every backward difference doubles the last, so
    # order 0 predicts best and the step starts from the last field
    fields = np.array([(-1.0) ** i * np.ones(9) for i in range(8)])
    for m in range(3, 9):
        assert fd._predict(fields[:m]) == (None, 0)


def test_predictor_starts_linear_on_step_two():
    y0, y1 = np.random.default_rng(1).standard_normal((2, 9))
    guess, order = fd._predict(np.array([y0, y1]))
    assert order == 1 and np.array_equal(guess, 2.0 * y1 - y0)
    assert fd._predict(y0[None]) == (None, 0)


def test_lagged_and_obstacle_flows_take_no_guess():
    # a lagged-factor flow and an obstacle flow start every step from y_i:
    # no step logs a guess, and each repeats the plain loop's solves
    g = disc.rectangle_grid(34, 34)
    x, y = g.nodes.T
    cfg = ss.StepConfig(tol=1e-10)
    wide = fd.ProblemData(g, np.cos(np.pi * x) * np.cos(np.pi * y),
                          T=0.0125,
                          model=fm.anisotropic_p_laplacian(4, dimension=2))
    g1 = disc.interval_grid(16)
    # a sink keeps the contact set of every step nonempty
    contact = fd.ProblemData(
        g1, np.maximum(np.sin(2 * np.pi * g1.nodes[:, 0]), 0.0),
        f=lambda t, pts: np.full(pts.shape[0], -2.0), T=0.1,
        model=fm.anisotropic_p_laplacian(4.0))
    for problem, obstacle in ((wide, False), (contact, True)):
        traj = fd.run_flow(problem, 5, cfg, obstacle=obstacle)
        final, logs = _plain_flow(problem, 5, cfg, obstacle=obstacle)
        assert _starts(traj.step_logs) == []
        assert traj.step_logs == logs
        assert np.array_equal(traj.fields[-1], final)
        if obstacle:
            assert all(np.count_nonzero(u == 0.0) for u in traj.fields)
        else:
            assert "factorizations" in traj.step_logs[0][0]


def test_flow_reruns_a_step_whose_guess_stalls():
    # n = 500, p = 4, h = 1/6: from 2 y1 - y0 step 2's damped Newton stalls
    # at a residual of order 1e2; the stage reruns from y1 and converges
    g = disc.interval_grid(500)
    problem = fd.ProblemData(g, np.cos(np.pi * g.nodes[:, 0]), T=0.5,
                             model=fm.anisotropic_p_laplacian(4.0))
    cfg = ss.StepConfig(tol=1e-10)
    traj = fd.run_flow(problem, 3, cfg)
    miss, stage = traj.step_logs[1]
    assert (miss["start"], miss["exit"]) == ("extrapolated", "stall")
    assert miss["residual"] > 1.0
    assert stage["exit"] == "converged" and "start" not in stage
    assert _starts(traj.step_logs) == ["extrapolated"]
    assert traj.step_residuals.max() <= cfg.tol


def test_only_a_missed_guess_records_its_order():
    # step 2's linear guess (order 1) stalls on the n = 500 flow of
    # test_flow_reruns_a_step_whose_guess_stalls; no other entry is marked
    g = disc.interval_grid(500)
    problem = fd.ProblemData(g, np.cos(np.pi * g.nodes[:, 0]), T=0.5,
                             model=fm.anisotropic_p_laplacian(4.0))
    traj = fd.run_flow(problem, 3, ss.StepConfig(tol=1e-10))
    marked = [(i, stage["start"], stage["order"])
              for i, log in enumerate(traj.step_logs, start=1)
              for stage in log if "order" in stage]
    assert marked == [(2, "extrapolated", 1)]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(n=st.integers(4, 16), law=st.sampled_from(["quadratic", "p4", "log"]),
       steps=st.integers(2, 6), log_h=st.floats(-3.0, -1.0),
       seed=st.integers(0, 2 ** 16))
def test_extrapolated_flow_matches_the_plain_start(n, law, steps, log_h, seed):
    # on random 1D data the flow started from the extrapolated fields lands
    # where the flow started from the previous fields does
    g = disc.interval_grid(n)
    model = {"quadratic": fm.quadratic(1),
             "p4": fm.anisotropic_p_laplacian(4.0),
             "log": fm.log_growth(1.0)}[law]
    y0 = np.random.default_rng(seed).standard_normal(n + 1)
    problem = fd.ProblemData(g, y0, T=steps * 10.0 ** log_h, model=model)
    cfg = ss.StepConfig(tol=1e-10)
    traj = fd.run_flow(problem, steps, cfg)
    final, _ = _plain_flow(problem, steps, cfg)
    assert np.max(np.abs(traj.fields[-1] - final)) <= 1e-9


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(n=st.integers(4, 16), law=st.sampled_from(["quadratic", "p4", "log"]),
       steps=st.integers(8, 12), log_h=st.floats(-3.0, -1.0),
       seed=st.integers(0, 2 ** 16))
def test_variable_order_flow_matches_the_plain_start(n, law, steps, log_h,
                                                     seed):
    # a flow long enough for orders 3 and 4 completes whenever the flow
    # started from the previous fields does, and lands where it does
    g = disc.interval_grid(n)
    model = {"quadratic": fm.quadratic(1),
             "p4": fm.anisotropic_p_laplacian(4.0),
             "log": fm.log_growth(1.0)}[law]
    y0 = np.random.default_rng(seed).standard_normal(n + 1)
    problem = fd.ProblemData(g, y0, T=steps * 10.0 ** log_h, model=model)
    cfg = ss.StepConfig(tol=1e-10)
    try:
        final, _ = _plain_flow(problem, steps, cfg)
    except ss.StepNonConverged:
        # a cold log-growth step on rough data can fail from any start
        # (ROADMAP item 6); no guess is involved
        return
    traj = fd.run_flow(problem, steps, cfg)
    assert np.max(np.abs(traj.fields[-1] - final)) <= 1e-9


def test_asymptotics_already_at_equilibrium():
    g = disc.interval_grid(8)
    prob = fd.ProblemData(g, np.zeros(9), None, None, 0.5, fm.quadratic(1))
    rep = fd.asymptotics_check(prob, 5.0, 50, TIGHT)
    assert rep.final_distance < 1e-12
    assert rep.passed


def test_asymptotics_quadratic_decay():
    g = disc.interval_grid(16)
    y0 = mean_zero(g, np.cos(2 * np.pi * g.nodes[:, 0]))
    prob = fd.ProblemData(g, y0, None, None, 1.0, fm.quadratic(1))
    rep = fd.asymptotics_check(prob, 30.0, 300, TIGHT, tol=1e-6)
    assert rep.passed
    assert rep.final_distance < 1e-6
    # roughly exponential decay early on
    assert rep.distances[50] < rep.distances[0] * 0.1


def test_asymptotics_tv_reaches_weighted_mean_in_finite_time():
    g = disc.interval_grid(16)
    y0 = np.where(g.nodes[:, 0] > 0.5, 1.0, 0.0)
    mean = fd.total_mass(g, y0) / (g.domain_measure + g.boundary_measure)
    prob = fd.ProblemData(g, y0, None, None, 4.0, fm.total_variation(1.0))
    traj = fd.run_flow(prob, 40, ss.StepConfig())
    final = traj.fields[-1]
    assert np.max(np.abs(final - mean)) < 1e-9
    # reached a constant strictly before the horizon and stays there
    hits = [i for i in range(traj.n_steps + 1)
            if np.max(np.abs(traj.fields[i] - mean)) < 1e-9]
    assert hits[0] < traj.n_steps


def test_obstacle_flow_rejects_infeasible_start():
    g = disc.interval_grid(8)
    prob = fd.ProblemData(g, np.full(9, -1.0), None, None, 0.5, fm.quadratic(1))
    with pytest.raises(fd.Inapplicable):
        fd.run_flow(prob, 3, obstacle=True)


def test_export_always_writes_the_last_slice(tmp_path):
    g = disc.interval_grid(4)
    prob = fd.ProblemData(g, np.full(5, 1.0), None, None, 0.25, fm.quadratic(1))
    traj = fd.run_flow(prob, 5)
    path = fd.export_trajectory(traj, tmp_path, save_every=2)
    man = json.loads(open(path).read())
    assert [s["step"] for s in man["saved_fields"]] == [0, 2, 4, 5]
    assert sorted(os.listdir(tmp_path)) == [
        "field_000000.csv", "field_000002.csv", "field_000004.csv",
        "field_000005.csv", "trajectory.json"]


def test_field_csv_bytes_match_csv_writer(tmp_path):
    g = disc.rectangle_grid(3, 2)
    x, y = g.nodes.T
    y0 = np.cos(np.pi * x) * np.sin(np.pi * y) - 1e-300
    y0[0] = -0.0
    prob = fd.ProblemData(g, y0, None, None, 0.3, fm.quadratic(2))
    traj = fd.run_flow(prob, 3)
    path = fd.export_trajectory(traj, tmp_path, save_every=2)
    saved = json.loads(open(path).read())["saved_fields"]
    assert [s["step"] for s in saved] == [0, 2, 3]
    for entry in saved:
        buf = io.StringIO(newline="")
        w = csv.writer(buf)
        w.writerow(["node", "x0", "x1", "value"])
        u = traj.fields[entry["step"]]
        for i in range(g.n_nodes):
            w.writerow([i] + [f"{c:.17g}" for c in g.nodes[i]]
                       + [f"{u[i]:.17g}"])
        assert (tmp_path / entry["file"]).read_bytes() == buf.getvalue().encode()
    first_row = (tmp_path / "field_000000.csv").read_bytes().split(b"\r\n")[1]
    assert first_row == b"0,0,0,-0"


def test_trajectory_export(tmp_path):
    g = disc.interval_grid(4)
    prob = fd.ProblemData(g, np.full(5, 1.0), None, None, 0.2, fm.quadratic(1))
    traj = fd.run_flow(prob, 4)
    path = fd.export_trajectory(traj, tmp_path / "out", save_every=2)
    import json
    man = json.loads(open(path).read())
    assert len(man["saved_fields"]) == 3
    first = open(tmp_path / "out" / man["saved_fields"][0]["file"]).read()
    assert first.splitlines()[0] == "node,x0,value"
