import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from wentzellflow import discretization as disc
from wentzellflow import flow_driver as fd
from wentzellflow import flux_models as fm
from wentzellflow import oracles as orc
from wentzellflow import step_solver as ss


def solver_catalog():
    return [
        (fm.quadratic(1), ss.StepConfig(tol=1e-11)),
        (fm.anisotropic_p_laplacian(4.0), ss.StepConfig(tol=1e-11)),
        (fm.anisotropic_p_laplacian(1.5), ss.StepConfig(tol=1e-9, lam_min=1e-9)),
        (fm.fractured_medium(4.0, alpha=1.0, thresholds=0.3),
         ss.StepConfig(tol=1e-9, lam_min=1e-9)),
        (fm.log_growth(1.0), ss.StepConfig(tol=1e-11)),
        (fm.total_variation(1.0), ss.StepConfig(tol=1e-9)),
    ]


# ---------------------------------------------------------------------------
# objective values


def test_step_objective_zero():
    g = disc.interval_grid(4)
    val = ss.step_objective(g, fm.quadratic(1), 0.0, 0.1,
                            np.zeros(5), np.zeros(2), np.zeros(5))
    assert val == 0.0


def test_step_objective_constant_formula():
    g = disc.interval_grid(2)
    c = 0.8
    val = ss.step_objective(g, fm.quadratic(1), 0.0, 0.1,
                            np.full(3, c), np.full(2, c), np.full(3, c))
    expected = -(c * c / 2.0) * (g.domain_measure + g.boundary_measure)
    assert val == pytest.approx(expected)


def _route_smooth_1d():
    g = disc.interval_grid(32)
    w1 = 0.5 * np.cos(2 * np.pi * g.nodes[:, 0])
    sol = ss.solve_step(g, fm.anisotropic_p_laplacian(4.0), 0.01, 0.01, w1,
                        w1[g.boundary_nodes], ss.StepConfig(tol=1e-10))
    return g, fm.anisotropic_p_laplacian(4.0), 0.01, 0.01, w1, sol


def _route_lagged_2d():
    g = disc.rectangle_grid(34, 34)
    assert g.gram_plan.kd >= 4 * ss._CG_CAP
    x, y = g.nodes.T
    y0 = np.cos(np.pi * x) * np.cos(np.pi * y)
    model = fm.anisotropic_p_laplacian(4, dimension=2)
    h, cfg = 0.0025, ss.StepConfig(tol=1e-10)
    held = ss._LaggedFactor()
    first = ss.solve_step(g, model, h, h, y0, y0[g.boundary_nodes], cfg,
                          u0=y0, lagged=held)
    sol = ss.solve_step(g, model, 2 * h, h, first.u,
                        first.u[g.boundary_nodes], cfg, u0=first.u,
                        lagged=held)
    assert sol.iterations[-1]["cg_iters"] > 0
    return g, model, 2 * h, h, first.u, sol


def _route_rescue():
    # a Custom law (kink_scale 0) whose last stages stall at lam_min 1e-9
    # ends in the multiplier loop
    g, model, t, h, w1 = _sine_data(fm.custom_model(lambda s: np.cosh(s) - 1.0,
                                                    beta=np.sinh))
    sol = _sine_step(model)
    assert sol.iterations[-1]["rescue"] == "loop"
    return g, model, t, h, w1, sol


def _route_fractured_2d():
    g = disc.rectangle_grid(16, 16)
    x, y = g.nodes.T
    w1 = 0.5 * np.cos(2 * np.pi * x) * np.cos(np.pi * y)
    model = fm.fractured_medium(4.0, thresholds=0.5, dimension=2)
    sol = ss.solve_step(g, model, 0.01, 0.01, w1, w1[g.boundary_nodes])
    return g, model, 0.01, 0.01, w1, sol


def _route_loop():
    route = _route_fractured_2d()
    assert route[-1].iterations[-1]["rescue"] == "loop"
    return route


def _route_tv():
    g, prev = _tv_profile()
    sol = ss.tv_step(g, 1.0, 0.01, prev)
    assert "rounds" in sol.iterations[-1]
    return g, fm.total_variation(1.0, 2), 0.0, 0.01, prev, sol


def _route_obstacle():
    g = disc.interval_grid(16)
    w1 = np.sin(2 * np.pi * g.nodes[:, 0])
    model = fm.anisotropic_p_laplacian(4.0)
    sol = ss.solve_step_obstacle(g, model, 0.1, 0.1, w1, w1[g.boundary_nodes],
                                 ss.StepConfig(tol=1e-10))
    assert 0 < np.count_nonzero(sol.u == 0.0) < g.n_nodes
    return g, model, 0.1, 0.1, w1, sol


def _guessed_step(n, y0, h):
    """Step 2 of a p = 4 flow on ``interval_grid(n)`` from y0(x), handed the
    extrapolated field 2 y1 - y0 as its guess."""
    g = disc.interval_grid(n)
    model = fm.anisotropic_p_laplacian(4.0)
    cfg = ss.StepConfig(tol=1e-10)
    y0 = y0(g.nodes[:, 0])
    y1 = ss.solve_step(g, model, h, h, y0, y0[g.boundary_nodes], cfg,
                       u0=y0).u
    sol = ss.solve_step(g, model, 2 * h, h, y1, y1[g.boundary_nodes], cfg,
                        u0=y1, guess=2.0 * y1 - y0)
    return g, model, 2 * h, h, y1, sol


def _route_extrapolated_1d():
    route = _guessed_step(32, lambda x: 0.5 * np.cos(2 * np.pi * x), 0.01)
    (stage,) = route[-1].iterations
    assert stage["exit"] == "converged" and "start" not in stage
    return route


def _route_guess_miss():
    # the stall rule ends the damped Newton from the guess far from the
    # minimizer; the stage reruns from the previous field
    route = _guessed_step(500, lambda x: np.cos(np.pi * x), 1.0 / 6)
    miss, stage = route[-1].iterations
    assert (miss["start"], miss["exit"]) == ("extrapolated", "stall")
    assert stage["exit"] == "converged" and "start" not in stage
    return route


ROUTES = [_route_smooth_1d, _route_lagged_2d, _route_extrapolated_1d,
          _route_guess_miss, _route_rescue, _route_loop, _route_tv,
          _route_obstacle]
ROUTE_IDS = ["smooth-1d", "lagged-2d", "extrapolated-1d", "guess-miss",
             "rescue", "loop", "tv", "obstacle"]


@pytest.mark.parametrize("route", ROUTES, ids=ROUTE_IDS)
def test_reported_objective_is_the_objective_of_the_returned_field(route):
    # the step reports the objective its last stage logged at its field
    g, model, t, h, w1, sol = route()
    assert sol.objective == ss.step_objective(g, model, t, h, w1,
                                              w1[g.boundary_nodes], sol.u)


@pytest.mark.parametrize("route", ROUTES, ids=ROUTE_IDS)
def test_reported_residual_and_certificate_are_those_of_the_returned_pair(
        route):
    # recomputed from (u, eta) alone, the residual and the certificate are
    # the very floats the step reports, also where they are read off the
    # last Newton evaluation
    g, model, t, h, w1, sol = route()
    rhs = ss._rhs(g, w1, w1[g.boundary_nodes])
    if sol.complementarity is None:
        assert sol.residual == ss._weak_residual(g, h, sol.u, sol.eta, rhs)
    else:
        r = ss._weak_form(g, h, sol.u, sol.eta, rhs) / g.mass
        assert sol.residual == float(np.max(np.abs(np.minimum(sol.u, r))))
    gaps = model.fenchel_gap(t, g.cell_centers, disc.gradient(g, sol.u),
                             sol.eta)
    assert np.array_equal(sol.fenchel_cells, gaps)
    assert sol.fenchel_total == float(g.cell_volumes @ gaps)


@pytest.mark.parametrize("model", [fm.quadratic(1),
                                   fm.anisotropic_p_laplacian(4.0)],
                         ids=lambda m: m.kind)
def test_step_objective_coercivity_floor(model):
    # phi(u) >= 1/4||u||^2 + h c1 ||grad u||_p^p + 1/4||trace u||^2
    #           + h c10 - 4||w1||^2 - 4||w2||^2
    g = disc.interval_grid(8)
    rng = np.random.default_rng(0)
    gr = model.growth
    h = 0.05
    for _ in range(50):
        u = rng.standard_normal(9) * 3
        w1 = rng.standard_normal(9)
        w2 = rng.standard_normal(2)
        phi = ss.step_objective(g, model, 0.0, h, w1, w2, u)
        gu = disc.gradient(g, u)
        floor = (0.25 * disc.norm_domain(g, u) ** 2
                 + h * gr.c1 * disc.grad_norm_p(g, gu, gr.p) ** gr.p
                 + 0.25 * disc.norm_boundary(g, disc.trace(g, u)) ** 2
                 + h * gr.c10
                 - 4.0 * disc.norm_domain(g, w1) ** 2
                 - 4.0 * disc.norm_boundary(g, w2) ** 2)
        assert phi >= floor - 1e-12


def test_regularized_objective_zero_and_quadratic_form():
    g = disc.interval_grid(4)
    model = fm.quadratic(1)
    assert ss.regularized_objective(g, model, 0.0, 0.1, 0.5,
                                    np.zeros(5), np.zeros(2), np.zeros(5)) == 0.0
    # quadratic law: envelope shrinks the gradient term by 1/(1+lam)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(5)
    w1 = rng.standard_normal(5)
    w2 = rng.standard_normal(2)
    h, lam = 0.1, 0.3
    gu = disc.gradient(g, u)
    gnorm2 = float(g.cell_volumes @ (gu * gu).sum(axis=1))
    base = ss.step_objective(g, model, 0.0, h, w1, w2, u)
    expected = base - h * 0.5 * gnorm2 + h * 0.5 * gnorm2 / (1 + lam)
    got = ss.regularized_objective(g, model, 0.0, h, lam, w1, w2, u)
    assert got == pytest.approx(expected, rel=1e-12)


def test_regularized_objective_recovers_phi():
    g = disc.interval_grid(8)
    model = fm.total_variation(1.0)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(9)
    w1 = rng.standard_normal(9)
    w2 = rng.standard_normal(2)
    phi = ss.step_objective(g, model, 0.0, 0.1, w1, w2, u)
    prev = -np.inf
    for lam in (1e-1, 1e-2, 1e-3):
        val = ss.regularized_objective(g, model, 0.0, 0.1, lam, w1, w2, u)
        assert prev <= val <= phi + 1e-12
        prev = val
    assert phi - prev < 0.02 * (1 + abs(phi))


@pytest.mark.parametrize("model,cfg", solver_catalog(), ids=lambda mc: getattr(mc, "kind", ""))
def test_regularized_gradient_matches_fd(model, cfg):
    g = disc.interval_grid(6)
    rng = np.random.default_rng(3)
    h, lam = 0.05, 0.02
    for _ in range(10):
        u = rng.standard_normal(7)
        w1 = rng.standard_normal(7)
        w2 = rng.standard_normal(2)
        grad = ss.regularized_objective_grad(g, model, 0.0, h, lam, w1, w2, u)
        fd = orc.fd_gradient(
            lambda v: ss.regularized_objective(g, model, 0.0, h, lam, w1, w2, v),
            u, step=1e-6)
        scale = np.max(np.abs(grad)) + 1e-12
        assert np.max(np.abs(fd - grad)) / scale < 1e-5


# ---------------------------------------------------------------------------
# solve_step


@pytest.mark.parametrize("model,cfg", solver_catalog(), ids=lambda mc: getattr(mc, "kind", ""))
def test_constants_are_fixed_points(model, cfg):
    g = disc.interval_grid(8)
    c = 0.6
    sol = ss.solve_step(g, model, 0.0, 0.1, np.full(9, c), np.full(2, c), cfg)
    assert np.max(np.abs(sol.u - c)) < 1e-11
    assert np.max(np.abs(sol.eta)) < 1e-11


def test_quadratic_matches_dense_oracle():
    rng = np.random.default_rng(4)
    g = disc.interval_grid(4)
    w1 = rng.standard_normal(5)
    w2 = rng.standard_normal(2)
    sol = ss.solve_step(g, fm.quadratic(1), 0.0, 0.07, w1, w2,
                        ss.StepConfig(tol=1e-12))
    ref = orc.dense_linear_step(g, 0.07, w1, w2)
    assert np.max(np.abs(sol.u - ref)) < 1e-10


def test_tv_two_plateau_movement():
    # plateau values move together by the weight over the plateau mass
    g = disc.interval_grid(8)
    prev = np.where(g.nodes[:, 0] > 0.5, 1.0, 0.0)
    rho, h = 1.0, 0.01
    sol = ss.tv_step(g, rho, h, prev)
    m = g.node_weights + g.boundary_mass_full
    ref = orc.tv_prox_1d(prev, rho * h, m)
    assert np.max(np.abs(sol.u - ref)) < 1e-9
    # hand plateau algebra: each side has fidelity mass 1/2 of total + bdry
    mass_lo = float(m[g.nodes[:, 0] <= 0.5].sum())
    mass_hi = float(m[g.nodes[:, 0] > 0.5].sum())
    assert sol.u[0] == pytest.approx(rho * h / mass_lo, abs=1e-8)
    assert sol.u[-1] == pytest.approx(1.0 - rho * h / mass_hi, abs=1e-8)


def test_tv_step_large_weight_weighted_mean():
    g = disc.interval_grid(8)
    rng = np.random.default_rng(5)
    prev = rng.standard_normal(9)
    sol = ss.tv_step(g, 1.0, 50.0, prev, ss.StepConfig(certificate_tol=1e-4))
    m = g.node_weights + g.boundary_mass_full
    mean = float(m @ prev / m.sum())
    assert np.max(np.abs(sol.u - mean)) < 1e-7


def test_tv_step_constant_fixed_point_and_decrease():
    g = disc.interval_grid(8)
    prev = np.full(9, 1.3)
    sol = ss.tv_step(g, 1.0, 0.1, prev)
    assert np.allclose(sol.u, 1.3)
    rng = np.random.default_rng(6)
    prev = rng.standard_normal(9)
    sol = ss.tv_step(g, 1.0, 0.05, prev)

    def tv(v):
        return float(np.abs(np.diff(v)).sum())

    assert tv(sol.u) <= tv(prev) + 1e-12
    obj_prev = ss.step_objective(g, fm.total_variation(1.0), 0.0, 0.05,
                                 prev, prev[g.boundary_nodes], prev)
    assert sol.objective <= obj_prev + 1e-12


@pytest.mark.parametrize("model,cfg", solver_catalog(), ids=lambda mc: getattr(mc, "kind", ""))
def test_solve_step_unique_across_starts(model, cfg):
    g = disc.interval_grid(8)
    rng = np.random.default_rng(7)
    w1 = rng.standard_normal(9)
    w2 = rng.standard_normal(2)
    s1 = ss.solve_step(g, model, 0.0, 0.05, w1, w2, cfg)
    s2 = ss.solve_step(g, model, 0.0, 0.05, w1, w2, cfg,
                       u0=rng.standard_normal(9) * 3)
    assert np.max(np.abs(s1.u - s2.u)) <= 10 * max(cfg.tol, 1e-10) * 10


@pytest.mark.parametrize("model,cfg", solver_catalog(), ids=lambda mc: getattr(mc, "kind", ""))
def test_weak_form_residual_and_certificate(model, cfg):
    g = disc.interval_grid(8)
    rng = np.random.default_rng(8)
    w1 = rng.standard_normal(9)
    w2 = rng.standard_normal(2)
    sol = ss.solve_step(g, model, 0.0, 0.05, w1, w2, cfg)
    # weak form against every nodal test field
    m = g.node_weights + g.boundary_mass_full
    rhs = g.node_weights * w1
    rhs[g.boundary_nodes] += g.boundary_weights * w2
    res = m * sol.u + 0.05 * disc.grad_adjoint(g, sol.eta) - rhs
    assert np.max(np.abs(res) / m) <= cfg.tol * 1.01
    assert sol.residual <= cfg.tol
    assert sol.fenchel_cells.min() >= -1e-10
    assert sol.fenchel_total <= cfg.certificate_tol


def test_step_map_contraction():
    g = disc.interval_grid(8)
    rng = np.random.default_rng(9)
    for model, cfg in solver_catalog():
        w1a = rng.standard_normal(9)
        w2a = rng.standard_normal(2)
        w1b = w1a + 0.5 * rng.standard_normal(9)
        w2b = w2a + 0.5 * rng.standard_normal(2)
        sa = ss.solve_step(g, model, 0.0, 0.05, w1a, w2a, cfg)
        sb = ss.solve_step(g, model, 0.0, 0.05, w1b, w2b, cfg)
        du = sa.u - sb.u
        lhs = (disc.norm_domain(g, du) ** 2
               + disc.norm_boundary(g, disc.trace(g, du)) ** 2)
        rhs = (disc.norm_domain(g, w1a - w1b) ** 2
               + disc.norm_boundary(g, w2a - w2b) ** 2)
        assert lhs <= rhs + 1e-8


def test_lambda_continuation_monotone_objective():
    g = disc.interval_grid(8)
    rng = np.random.default_rng(10)
    w1 = rng.standard_normal(9)
    w2 = rng.standard_normal(2)
    model = fm.fractured_medium(4.0, alpha=1.0, thresholds=0.3)
    sol = ss.solve_step(g, model, 0.0, 0.05, w1, w2,
                        ss.StepConfig(tol=1e-9, lam_min=1e-9))
    objs = [entry["objective"] for entry in sol.iterations]
    for a, b in zip(objs[:-1], objs[1:]):
        assert b <= a + 1e-7 * (1.0 + abs(a))


def test_solve_step_2d_quadratic():
    g = disc.rectangle_grid(4, 3)
    rng = np.random.default_rng(11)
    w1 = rng.standard_normal(g.n_nodes)
    w2 = rng.standard_normal(g.boundary_nodes.size)
    sol = ss.solve_step(g, fm.quadratic(2), 0.0, 0.05, w1, w2,
                        ss.StepConfig(tol=1e-12))
    ref = orc.dense_linear_step(g, 0.05, w1, w2)
    assert np.max(np.abs(sol.u - ref)) < 1e-10


def test_solve_step_2d_nonsmooth_kinds():
    g = disc.rectangle_grid(4, 4)
    rng = np.random.default_rng(12)
    w1 = rng.standard_normal(g.n_nodes) * 0.5
    w2 = rng.standard_normal(g.boundary_nodes.size) * 0.5
    sol = ss.solve_step(g, fm.fractured_medium(4.0, thresholds=0.4, dimension=2),
                        0.0, 0.05, w1, w2, ss.StepConfig(tol=1e-8, lam_min=1e-8))
    assert sol.residual <= 1e-8
    sol_tv = ss.solve_step(g, fm.total_variation(1.0, 2), 0.0, 0.05, w1, w2,
                           ss.StepConfig(tol=1e-8, certificate_tol=1e-5))
    assert sol_tv.residual <= 1e-8


# ---------------------------------------------------------------------------
# errors


def test_bad_config_rejected():
    with pytest.raises(ValueError, match="BADCONFIG"):
        ss.StepConfig(lam0=1e-8, lam_min=1e-6)
    with pytest.raises(ValueError, match="BADCONFIG"):
        ss.StepConfig(lam_decay=1.5)
    with pytest.raises(ValueError, match="BADCONFIG"):
        ss.StepConfig(tol=-1.0)
    with pytest.raises(ValueError, match="BADCONFIG"):
        ss.StepConfig(max_iter=0)
    with pytest.raises(ValueError, match="BADCONFIG"):
        ss.StepConfig(pd_max_iter=-1)


def test_nonconverged_reports_residual_and_log():
    g = disc.interval_grid(8)
    rng = np.random.default_rng(14)
    w1 = rng.standard_normal(9)
    w2 = rng.standard_normal(2)
    model = fm.anisotropic_p_laplacian(4.0)
    with pytest.raises(ss.StepNonConverged) as err:
        ss.solve_step(g, model, 0.0, 0.05, w1, w2,
                      ss.StepConfig(tol=1e-14, max_iter=1))
    assert err.value.residual is not None
    assert err.value.log


def test_newton_stage_logs_its_exit():
    g = disc.interval_grid(8)
    rng = np.random.default_rng(14)
    w1 = rng.standard_normal(9)
    w2 = rng.standard_normal(2)
    model = fm.anisotropic_p_laplacian(4.0)
    sol = ss.solve_step(g, model, 0.0, 0.05, w1, w2, ss.StepConfig(tol=1e-11))
    assert [s["exit"] for s in sol.iterations] == ["converged"]
    with pytest.raises(ss.StepNonConverged) as err:
        ss.solve_step(g, model, 0.0, 0.05, w1, w2,
                      ss.StepConfig(tol=1e-14, max_iter=1))
    assert err.value.log[-1]["exit"] == "max_iter"
    assert err.value.log[-1]["iters"] == 1


def test_rejects_bad_inputs():
    g = disc.interval_grid(4)
    with pytest.raises(ValueError):
        ss.solve_step(g, fm.quadratic(1), 0.0, -0.1, np.zeros(5), np.zeros(2))
    with pytest.raises(ValueError):
        ss.solve_step(g, fm.quadratic(1), 0.0, 0.1, np.zeros(4), np.zeros(2))


# ---------------------------------------------------------------------------
# line search


def _halving(prob, u, d, slope, nonneg=False):
    """Armijo backtracking by plain halving from alpha = 1, for comparison."""
    f0 = prob.value(u)
    alpha = 1.0
    un = u
    while alpha > 1e-14:
        un = u + alpha * d
        if nonneg:
            un = np.maximum(un, 0.0)
        if prob.value(un) <= f0 + 1e-4 * alpha * slope:
            break
        alpha *= 0.5
    return un


def _trials(search, prob, u, d, slope, nonneg=False):
    """(result, the points passed to ``prob.value``) of one line search."""
    points = []
    real = prob.value

    def value(v):
        points.append(v.copy())
        return real(v)

    prob.value = value
    try:
        return search(prob, u, d, slope, nonneg), points
    finally:
        del prob.value


def _alpha(point, u, d):
    """The step length of the trial point u + alpha d, read off d's largest
    entry."""
    i = int(np.argmax(np.abs(d)))
    return float((point[i] - u[i]) / d[i])


def _meets_armijo(prob, u, point, d, slope):
    # the step length is read back from the point, to its rounding
    alpha = _alpha(point, u, d) * (1.0 - 1e-6)
    return prob.value(point) <= prob.value(u) + 1e-4 * alpha * slope


def _newton_direction(prob, u):
    g = prob.grad(u)
    d = ss._newton_solve(prob.grid.gram_plan, prob.hess(u), -g)
    return d, float(g @ d)


def _quadratic_stage():
    g = disc.interval_grid(16)
    w1 = 1.0 + 0.5 * np.cos(2 * np.pi * g.nodes[:, 0])
    prob = ss._StageProblem(g, fm.quadratic(1), 0.0, 0.05, w1,
                            w1[g.boundary_nodes], None)
    return prob, w1.copy()


def test_line_search_lands_on_a_quadratic_restriction_in_two_trials():
    # along 8 times the Newton direction the objective is the quadratic with
    # its minimum at alpha = 1/8, which the interpolation hits
    prob, u = _quadratic_stage()
    d, slope = _newton_direction(prob, u)
    d, slope = 8.0 * d, 8.0 * slope
    (un, rejected, floored), points = _trials(ss._armijo, prob, u, d, slope)
    assert len(points) - 1 <= 2 and (rejected, floored) == (1, False)
    assert _alpha(un, u, d) == pytest.approx(0.125, rel=1e-9)
    assert _meets_armijo(prob, u, un, d, slope)


def _kink_crossing_search():
    """The first line search of the lam = 1e-6 stage of a 1D fractured step
    whose continuation runs every stage of the default schedule, as (stage
    problem, u, d, slope).  The stages are run here one by one, since
    ``solve_step`` hands such a step to the multiplier loop at its first
    backtracking stage."""
    g = disc.interval_grid(16)
    w1 = 0.3 * np.cos(2 * np.pi * g.nodes[:, 0])
    w2 = w1[g.boundary_nodes]
    model = fm.fractured_medium(4, thresholds=0.5)
    cfg = ss.StepConfig()
    *lams, lam_min = cfg.lam_schedule()
    u = ss._start(g, w1, w2)
    for lam in lams:
        prob = ss._StageProblem(g, model, 0.0, 0.05, w1, w2, lam)
        u, _ = ss._minimize_newton(prob, u, ss._inter_tol(cfg), cfg.max_iter)
    prob = ss._StageProblem(g, model, 0.0, 0.05, w1, w2, lam_min)
    searches = []
    real = ss._armijo

    def spy(prob, u, d, slope, nonneg=False):
        if not searches:
            searches.append((prob, u.copy(), d.copy(), slope))
        return real(prob, u, d, slope, nonneg)

    with mock.patch.object(ss, "_armijo", spy):
        ss._minimize_newton(prob, u, cfg.tol, cfg.max_iter)
    assert lam_min == 1e-6
    return searches[0]


def test_line_search_interpolates_across_a_kink_window():
    prob, u, d, slope = _kink_crossing_search()
    # the full step carries a cell's gradient across the threshold 0.5,
    # out of the window in which the stage's Newton model holds
    grid = prob.grid
    before = np.abs(disc.gradient(grid, u)[:, 0]) - 0.5
    after = np.abs(disc.gradient(grid, u + d)[:, 0]) - 0.5
    assert np.any(before * after < 0)
    (un, rejected, floored), points = _trials(ss._armijo, prob, u, d, slope)
    _, halved = _trials(_halving, prob, u, d, slope)
    alphas = np.array([_alpha(p, u, d) for p in points[1:]])
    assert np.array_equal(points[1], u + d)
    assert not floored and rejected == len(alphas) - 1
    ratios = alphas[1:] / alphas[:-1]
    assert np.all((ratios >= 0.1 - 1e-6) & (ratios <= 0.5 + 1e-6))
    assert _meets_armijo(prob, u, un, d, slope)
    assert len(halved) >= 10 and len(points) < len(halved)


@pytest.mark.parametrize("case", ["quadratic", "kink"])
def test_line_search_halves_on_the_bound(case):
    # the projected path is no smooth restriction: on the bound the trials
    # are max(u + 2^-k d, 0), k = 0, 1, 2, ..., exactly
    if case == "quadratic":
        prob, u = _quadratic_stage()
        d, slope = _newton_direction(prob, u)
        d, slope = 64.0 * d, 64.0 * slope
    else:
        prob, u, d, slope = _kink_crossing_search()
    (un, rejected, floored), points = _trials(ss._armijo, prob, u, d, slope,
                                              nonneg=True)
    assert len(points) >= 4 and rejected == len(points) - 2 + floored
    assert np.array_equal(points[0], u)
    for k, point in enumerate(points[1:]):
        assert np.array_equal(point, np.maximum(u + 0.5 ** k * d, 0.0))
    assert np.array_equal(un, points[-1])
    assert np.array_equal(un, _halving(prob, u, d, slope, nonneg=True))


def test_stage_log_counts_backtracks_and_floored_line_searches():
    prob, u, d, slope = _kink_crossing_search()
    # one Newton iteration from the kink point: its full step is rejected
    _, rejected, _ = ss._armijo(prob, u, d, slope)
    _, stage = ss._minimize_newton(prob, u, 1e-30, 1)
    assert (stage["iters"], stage["exit"]) == (1, "max_iter")
    assert stage["backtracks"] == rejected > 0 and "ls_floor" not in stage
    # an objective that rejects every trial drives the search to its floor
    real = prob.value
    calls = []

    def value(v):
        calls.append(v)
        return real(v) + (0.0 if len(calls) == 1 else 1.0)

    prob.value = value
    _, stage = ss._minimize_newton(prob, u, 1e-30, 1)
    assert stage["ls_floor"] == 1 and stage["backtracks"] > rejected
    # a stage whose full steps are all taken has neither key
    g = prob.grid
    sol = ss.solve_step(g, fm.quadratic(1), 0.0, 0.05, u, u[g.boundary_nodes],
                        ss.StepConfig(tol=1e-11))
    assert not {"backtracks", "ls_floor"} & set(sol.iterations[0])


LINE_SEARCH_LAWS = {
    "quadratic": fm.quadratic(1),
    "p4": fm.anisotropic_p_laplacian(4.0),
    "loggrowth": fm.log_growth(1.0),
    "fractured": fm.fractured_medium(4.0, thresholds=0.5),
}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(law=st.sampled_from(sorted(LINE_SEARCH_LAWS)), n=st.integers(2, 16),
       seed=st.integers(0, 2**16), log_lam=st.floats(-8.0, -2.0),
       log_h=st.floats(-3.0, -1.0), k=st.integers(0, 12))
def test_line_search_properties(law, n, seed, log_lam, log_h, k):
    g = disc.interval_grid(n)
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal(g.n_nodes)
    lam = 10.0 ** log_lam if law == "fractured" else None
    prob = ss._StageProblem(g, LINE_SEARCH_LAWS[law], 0.0, 10.0 ** log_h, w1,
                            w1[g.boundary_nodes], lam)
    for nonneg in (False, True):
        u = rng.standard_normal(g.n_nodes)
        if nonneg:
            u = np.abs(u)
        d, slope = _newton_direction(prob, u)
        if not slope < 0:
            continue
        d, slope = 2.0 ** k * d, 2.0 ** k * slope
        (un, rejected, floored), points = _trials(ss._armijo, prob, u, d,
                                                  slope, nonneg)
        ref, halved = _trials(_halving, prob, u, d, slope, nonneg)
        if nonneg:
            assert np.array_equal(un, ref) and len(points) == len(halved)
            continue
        assert rejected == len(points) - 2 + floored
        assert floored or _meets_armijo(prob, u, un, d, slope)
        assert len(points) <= len(halved) + 1


# ---------------------------------------------------------------------------
# the step map: S(a) = solve_step from the data w1 = a, w2 = trace a

STEP_MAP_LAWS = {
    "quadratic": fm.quadratic(1),
    "p4": fm.anisotropic_p_laplacian(4.0),
    "fractured": fm.fractured_medium(4.0, thresholds=0.5),
}


def _step_map(g, model, h, a):
    return ss.solve_step(g, model, 0.0, h, a, a[g.boundary_nodes]).u


def _product_norm(g, v):
    return math.hypot(disc.norm_domain(g, v),
                      disc.norm_boundary(g, disc.trace(g, v)))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(law=st.sampled_from(sorted(STEP_MAP_LAWS)), n=st.integers(4, 16),
       seed=st.integers(0, 2**16), log_h=st.floats(-3.0, -1.0))
def test_step_map_is_nonexpansive(law, n, seed, log_h):
    # the step is the resolvent of a monotone operator in the product norm
    # of L2(Omega) x L2(Gamma); 1 + 1e-8 is contraction_check's bound
    g = disc.interval_grid(n)
    model, h = STEP_MAP_LAWS[law], 10.0 ** log_h
    a, b = np.random.default_rng(seed).standard_normal((2, g.n_nodes))
    d = _step_map(g, model, h, a) - _step_map(g, model, h, b)
    assert _product_norm(g, d) <= (1.0 + 1e-8) * _product_norm(g, a - b)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(law=st.sampled_from(sorted(STEP_MAP_LAWS)), n=st.integers(4, 16),
       seed=st.integers(0, 2**16), log_h=st.floats(-3.0, -1.0))
def test_step_map_does_not_raise_the_energy(law, n, seed, log_h):
    # the step minimizes ||u - a||^2 / 2 + h E(u) in the product norm, so
    # E(S(a)) <= E(a)
    g = disc.interval_grid(n)
    model, h = STEP_MAP_LAWS[law], 10.0 ** log_h
    a = np.random.default_rng(seed).standard_normal(g.n_nodes)
    u = _step_map(g, model, h, a)
    assert fd._energy(g, model, u) <= fd._energy(g, model, a) + 1e-10


# ---------------------------------------------------------------------------
# obstacle variant


def test_obstacle_inactive_matches_unconstrained():
    g = disc.interval_grid(8)
    c = 0.5
    sol = ss.solve_step_obstacle(g, fm.quadratic(1), 0.0, 0.1,
                                 np.full(9, c), np.full(2, c),
                                 ss.StepConfig(tol=1e-10))
    assert np.max(np.abs(sol.u - c)) < 1e-10


def test_obstacle_fully_active():
    # negative data pushes the unconstrained solution below zero everywhere
    g = disc.interval_grid(8)
    sol = ss.solve_step_obstacle(g, fm.quadratic(1), 0.0, 0.1,
                                 -np.ones(9), -np.ones(2),
                                 ss.StepConfig(tol=1e-10))
    assert np.max(np.abs(sol.u)) == 0.0
    assert sol.complementarity <= 1e-10


def test_obstacle_failure_names_the_complementarity_measure():
    g = disc.interval_grid(8)
    rng = np.random.default_rng(15)
    w1 = rng.standard_normal(9)
    w2 = rng.standard_normal(2)
    model = fm.anisotropic_p_laplacian(4.0)
    cfg = ss.StepConfig(tol=1e-14, max_iter=1)
    with pytest.raises(ss.StepNonConverged,
                       match="^complementarity measure .* exceeds tol") as err:
        ss.solve_step_obstacle(g, model, 0.0, 0.1, w1, w2, cfg)
    assert "stationarity" not in str(err.value)
    assert err.value.residual == err.value.log[-1]["residual"] > cfg.tol
    # the unconstrained step keeps its stationarity residual
    with pytest.raises(ss.StepNonConverged, match="^stationarity residual"):
        ss.solve_step(g, model, 0.0, 0.1, w1, w2, cfg)


def test_obstacle_mixed_sign_vs_projected_gradient():
    g = disc.interval_grid(8)
    rng = np.random.default_rng(15)
    w1 = rng.standard_normal(9)
    w2 = rng.standard_normal(2)
    h = 0.1
    sol = ss.solve_step_obstacle(g, fm.quadratic(1), 0.0, h, w1, w2,
                                 ss.StepConfig(tol=1e-10))

    def grad(u):
        return ss.step_objective_grad(g, fm.quadratic(1), 0.0, h, w1, w2, u)

    m = g.node_weights + g.boundary_mass_full
    lip = float(m.max()) + h * 4.0 / (1.0 / 8.0)
    ref = orc.projected_gradient_descent(grad, np.maximum(w1, 0.0),
                                         1.0 / lip, 200000)
    assert np.max(np.abs(sol.u - ref)) < 1e-6
    assert sol.u.min() >= 0.0
    assert sol.complementarity <= 1e-10


def test_tv_obstacle_step_matches_oracle():
    # on nonnegative data the TV prox stays inside [0, 1], so the constraint
    # is inactive and the continuation must reach the exact prox
    g = disc.interval_grid(16)
    prev = np.where(g.nodes[:, 0] > 0.5, 1.0, 0.0)
    cfg = ss.StepConfig(tol=1e-6, lam_min=1e-8, certificate_tol=1e-4)
    sol = ss.solve_step_obstacle(g, fm.total_variation(1.0), 0.0, 0.02, prev,
                                 prev[g.boundary_nodes], cfg)
    ref = orc.tv_prox_1d(prev, 0.02, g.node_weights + g.boundary_mass_full)
    assert np.max(np.abs(sol.u - ref)) < 1e-6
    assert sol.complementarity <= cfg.tol


def test_tv_obstacle_step_2d_mixed_sign_keeps_eta_in_the_ball():
    # the envelope flux the step returns must stay inside the admissible ball
    g = disc.rectangle_grid(4, 4)
    rng = np.random.default_rng(20)
    w1 = 0.4 * rng.standard_normal(g.n_nodes)
    w2 = 0.4 * rng.standard_normal(g.boundary_nodes.size)
    cfg = ss.StepConfig(tol=1e-6, lam_min=1e-8, certificate_tol=1e-4)
    sol = ss.solve_step_obstacle(g, fm.total_variation(1.0, 2), 0.0, 0.05,
                                 w1, w2, cfg)
    assert np.isfinite(sol.fenchel_total)
    assert np.max(np.sqrt((sol.eta ** 2).sum(axis=1))) <= 1.0 + 1e-9
    assert sol.complementarity <= cfg.tol
    assert 0 < np.count_nonzero(sol.u == 0.0) < g.n_nodes


def test_fractured_obstacle_step_mixed_sign_is_optimal():
    g = disc.rectangle_grid(4, 4)
    rng = np.random.default_rng(21)
    w1 = rng.standard_normal(g.n_nodes)
    w2 = rng.standard_normal(g.boundary_nodes.size)
    model = fm.fractured_medium(4.0, thresholds=0.4, dimension=2)
    h = 0.1
    sol = ss.solve_step_obstacle(g, model, 0.0, h, w1, w2,
                                 ss.StepConfig(tol=1e-8, lam_min=1e-8))
    assert sol.u.min() >= 0.0
    assert 0 < np.count_nonzero(sol.u == 0.0) < g.n_nodes
    assert sol.complementarity <= 1e-8
    assert np.min(sol.fenchel_cells) >= -1e-10
    # no feasible perturbation lowers the step functional
    f0 = ss.step_objective(g, model, 0.0, h, w1, w2, sol.u)
    dirs = np.random.default_rng(3).standard_normal((50, g.n_nodes))
    for eps in (1e-2, 1e-4, 1e-6):
        for v in dirs:
            trial = np.maximum(sol.u + eps * v, 0.0)
            assert ss.step_objective(g, model, 0.0, h, w1, w2, trial) >= f0 - 1e-10


@pytest.mark.parametrize("law", ["p4", "loggrowth"])
@pytest.mark.parametrize("start", ["abs", "positive_part"])
def test_smooth_2d_obstacle_flow_with_contact_converges(law, start):
    # the field touches 0 along the zero lines of cos(pi x) cos(pi y); a
    # projected Newton with a strict active set and no full step stopped
    # here at complementarity 1e-8 or 3e-10 (max_iter)
    g = disc.rectangle_grid(34, 4)
    x, y = g.nodes.T
    c = np.cos(np.pi * x) * np.cos(np.pi * y)
    y0 = np.abs(c) if start == "abs" else np.maximum(c, 0.0)
    model = (fm.anisotropic_p_laplacian(4.0, dimension=2) if law == "p4"
             else fm.log_growth(dimension=2))
    cfg = ss.StepConfig(tol=1e-10)
    traj = fd.run_flow(fd.ProblemData(g, y0, T=0.05, model=model), 5, cfg,
                       obstacle=True)
    assert traj.fields.min() >= 0.0
    assert np.max(traj.step_residuals) <= cfg.tol
    assert all(log[-1]["exit"] == "converged" for log in traj.step_logs)


@pytest.mark.parametrize("start, n_steps", [
    pytest.param(lambda x, y: np.abs(0.5 * np.cos(2 * np.pi * x) * np.cos(np.pi * y)),
                 1, id="half-abs"),
    pytest.param(lambda x, y: np.maximum(np.cos(2 * np.pi * x) * np.cos(np.pi * y), 0.0),
                 4, id="positive-part"),
    pytest.param(lambda x, y: np.abs(np.cos(np.pi * x) * np.cos(np.pi * y)),
                 3, id="abs"),
])
def test_fractured_2d_obstacle_flow_converges_on_every_stage(start, n_steps):
    # the obstacle step has no rescue: it runs the whole lam schedule and is
    # judged on the last stage, so each stage's envelope problem must converge
    g = disc.rectangle_grid(16, 16)
    model = fm.fractured_medium(4.0, thresholds=0.5, dimension=2)
    cfg = ss.StepConfig()
    traj = fd.run_flow(fd.ProblemData(g, start(*g.nodes.T), T=0.01 * n_steps,
                                      model=model), n_steps, cfg, obstacle=True)
    assert traj.fields.min() >= 0.0
    assert np.max(traj.step_residuals) <= cfg.tol
    assert np.max(traj.step_certificates) <= cfg.certificate_tol
    for log in traj.step_logs:
        assert [s["lam"] for s in log] == cfg.lam_schedule()
        assert all(s["exit"] == "converged" for s in log)


OBSTACLE_LAWS = {
    "quadratic": fm.quadratic,
    "p4": lambda dim: fm.anisotropic_p_laplacian(4.0, dimension=dim),
    "loggrowth": lambda dim: fm.log_growth(dimension=dim),
}


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(law=st.sampled_from(sorted(OBSTACLE_LAWS)),
       shape=st.one_of(st.tuples(st.integers(2, 16)),
                       st.tuples(st.integers(2, 8), st.integers(2, 8))),
       seed=st.integers(0, 2**16), shift=st.floats(-1.0, 3.0),
       log_h=st.floats(-2.5, -0.5))
def test_smooth_obstacle_step_is_feasible_complementary_and_optimal(
        law, shape, seed, shift, log_h):
    g = (disc.interval_grid(*shape) if len(shape) == 1
         else disc.rectangle_grid(*shape))
    model = OBSTACLE_LAWS[law](g.dimension)
    rng = np.random.default_rng(seed)
    w1 = shift + rng.standard_normal(g.n_nodes)
    w2 = shift + rng.standard_normal(g.boundary_nodes.size)
    h = 10.0 ** log_h
    cfg = ss.StepConfig(tol=1e-10)
    sol = ss.solve_step_obstacle(g, model, 0.0, h, w1, w2, cfg)
    assert sol.u.min() >= 0.0
    assert sol.complementarity <= cfg.tol
    # no feasible perturbation lowers the step functional
    f0 = ss.step_objective(g, model, 0.0, h, w1, w2, sol.u)
    dirs = rng.standard_normal((20, g.n_nodes))
    for eps in (1e-2, 1e-4, 1e-6):
        for v in dirs:
            trial = np.maximum(sol.u + eps * v, 0.0)
            assert ss.step_objective(g, model, 0.0, h, w1, w2, trial) >= f0 - 1e-10
    # where the unconstrained step is feasible already, it is the answer
    free = ss.solve_step(g, model, 0.0, h, w1, w2, cfg)
    if free.u.min() >= 0.0:
        assert np.max(np.abs(sol.u - free.u)) <= 1e-9


# ---------------------------------------------------------------------------
# fixed-pattern Hessian assembly


def sum_of_products_hessian(grid, curv, h):
    """M + sum_ab G_a^T diag(h vol C_ab) G_b, summed matrix by matrix from
    ``grid.grad_ops``."""
    vol = grid.cell_volumes
    ops = grid.grad_ops
    n_ax = len(ops)
    if curv[0] == "diag":
        coef = np.clip(curv[1], 0.0, 1e14)[:, :, None] * np.eye(n_ax)
    else:
        _, cpar, cperp, rhat = curv
        cpar = np.clip(cpar, 0.0, 1e14)
        cperp = np.clip(cperp, 0.0, 1e14)
        coef = ((cpar - cperp)[:, None, None] * rhat[:, :, None] * rhat[:, None, :]
                + cperp[:, None, None] * np.eye(n_ax))
    mat = sps.diags(grid.node_weights + grid.boundary_mass_full)
    for a in range(n_ax):
        for b in range(n_ax):
            mat = mat + h * (ops[a].T @ sps.diags(vol * coef[:, a, b]) @ ops[b])
    return mat.toarray()


def band_to_lower(ab):
    """The lower triangle of the matrix whose lower band storage is ``ab``;
    asserts that the slots past the matrix's last column are empty."""
    n = ab.shape[1]
    lower = np.zeros((n, n))
    for r in range(ab.shape[0]):
        j = np.arange(n - r)
        lower[j + r, j] = ab[r, :n - r]
        assert not ab[r, n - r:].any()
    return lower


@pytest.mark.parametrize("grid", [disc.interval_grid(7), disc.rectangle_grid(4, 3)],
                         ids=["1d", "2d"])
@pytest.mark.parametrize("kind", ["diag", "radial"])
def test_curv_matrix_matches_sum_of_products(grid, kind):
    rng = np.random.default_rng(3)
    n_ax = grid.dimension
    if kind == "diag":
        # negative and huge entries exercise the clipping
        cc = rng.uniform(-0.5, 3.0, (grid.n_cells, n_ax))
        cc[0, 0] = 1e20
        curv = ("diag", cc)
    else:
        rhat = rng.standard_normal((grid.n_cells, n_ax))
        rhat /= np.linalg.norm(rhat, axis=1)[:, None]
        rhat[-1] = 0.0  # a cell with zero gradient
        curv = ("radial", rng.uniform(-0.5, 3.0, grid.n_cells),
                rng.uniform(0.0, 2.0, grid.n_cells), rhat)
    blocks = ss._curv_blocks(grid, curv, 0.3)
    got = grid.gram_plan.assemble(blocks, grid.mass)
    ref = sum_of_products_hessian(grid, curv, 0.3)
    assert got.shape == (grid.gram_plan.kd + 1, grid.n_nodes)
    assert got.flags.f_contiguous
    assert np.allclose(band_to_lower(got), np.tril(ref), rtol=1e-13, atol=1e-15)
    # the matrix-free product of the same blocks is the same matrix
    v = rng.standard_normal(grid.n_nodes)
    assert np.allclose(ss._hess_product(grid, blocks)(v), ref @ v,
                       rtol=1e-13, atol=1e-15 * np.abs(ref).sum(axis=1).max())


# ---------------------------------------------------------------------------
# banded Newton solve


def random_hessian(grid, kind, seed=4):
    """An SPD Newton matrix on the grid's fixed pattern from random
    nonnegative diagonal or radial curvature: its lower band storage and
    the CSC matrix of its sum-of-products reference."""
    rng = np.random.default_rng(seed)
    n_ax = grid.dimension
    if kind == "diag":
        curv = ("diag", rng.uniform(0.0, 3.0, (grid.n_cells, n_ax)))
    else:
        rhat = rng.standard_normal((grid.n_cells, n_ax))
        rhat /= np.linalg.norm(rhat, axis=1)[:, None]
        curv = ("radial", rng.uniform(0.0, 3.0, grid.n_cells),
                rng.uniform(0.0, 2.0, grid.n_cells), rhat)
    ref = sum_of_products_hessian(grid, curv, 0.3)
    blocks = ss._curv_blocks(grid, curv, 0.3)
    return grid.gram_plan.assemble(blocks, grid.mass), sps.csc_matrix(ref)


@pytest.mark.parametrize("grid, kd", [
    (disc.interval_grid(7), 1), (disc.rectangle_grid(4, 3), 6),
    (disc.rectangle_grid(9, 3), 11), (disc.rectangle_grid(3, 9), 5)],
    ids=["1d", "4x3", "9x3", "3x9"])
def test_band_slots_reproduce_the_csc_matrix(grid, kd):
    ab, mat = random_hessian(grid, "radial")
    plan = grid.gram_plan
    dense = mat.toarray()
    rows, cols = np.nonzero(dense)
    assert plan.kd == kd == int(np.max(np.abs(rows - cols)))
    lower = band_to_lower(ab)
    # the plan's slots are exactly the lower pattern, and nothing else is set
    assert np.array_equal(np.nonzero(lower), np.nonzero(np.tril(dense)))
    assert plan.slot.size == np.count_nonzero(np.tril(dense))
    assert np.array_equal(ab.ravel(order="F")[plan.slot], lower[plan.row, plan.col])
    assert np.allclose(lower, np.tril(dense), rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("grid", [disc.interval_grid(32), disc.rectangle_grid(16, 16)],
                         ids=["1d", "2d"])
@pytest.mark.parametrize("kind", ["diag", "radial"])
def test_band_solve_matches_spsolve(grid, kind):
    ab, mat = random_hessian(grid, kind)
    rhs = np.random.default_rng(5).standard_normal(grid.n_nodes)
    ref = spsolve(mat, rhs)
    got = ss._newton_solve(grid.gram_plan, ab, rhs)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("grid", [disc.interval_grid(32), disc.rectangle_grid(16, 16)],
                         ids=["1d", "2d"])
def test_masked_solve_matches_principal_submatrix(grid):
    rng = np.random.default_rng(6)
    ab, mat = random_hessian(grid, "radial", False)
    rhs = rng.standard_normal(grid.n_nodes)
    fixed = rng.random(grid.n_nodes) < 0.4
    free = np.flatnonzero(~fixed)
    ref = spsolve(mat[free][:, free].tocsc(), rhs[free])
    got = ss._newton_solve(grid.gram_plan, ab, rhs, fixed=fixed)
    assert np.all(got[fixed] == 0.0)
    assert np.linalg.norm(got[free] - ref) <= 1e-12 * np.linalg.norm(ref)


@settings(max_examples=30, deadline=None)
@given(shape=st.one_of(st.tuples(st.integers(2, 40)),
                       st.tuples(st.integers(2, 12), st.integers(2, 12))),
       kind=st.sampled_from(["diag", "radial"]), masked=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_band_solve_matches_a_dense_solve(shape, kind, masked, seed):
    # 1D grids have kd = 1, rectangles kd = nx + 2
    grid = (disc.interval_grid(*shape) if len(shape) == 1
            else disc.rectangle_grid(*shape))
    rng = np.random.default_rng(seed)
    ab, _ = random_hessian(grid, kind, seed)
    lower = band_to_lower(ab)
    dense = lower + np.tril(lower, -1).T
    rhs = rng.standard_normal(grid.n_nodes)
    fixed = None
    free = np.arange(grid.n_nodes)
    if masked:
        fixed = rng.random(grid.n_nodes) < 0.4
        fixed[rng.integers(grid.n_nodes)] = False
        free = np.flatnonzero(~fixed)
    ref = np.linalg.solve(dense[np.ix_(free, free)], rhs[free])
    got = ss._newton_solve(grid.gram_plan, ab.copy(order="F"), rhs, fixed=fixed)
    if masked:
        assert np.all(got[fixed] == 0.0)
    assert np.linalg.norm(got[free] - ref) <= 1e-12 * np.linalg.norm(ref)
    ab[0, rng.integers(grid.n_nodes)] = -1.0  # a negative pivot
    with pytest.raises(np.linalg.LinAlgError):
        ss._newton_solve(grid.gram_plan, ab, rhs)


def test_failed_factorization_falls_back_and_is_logged(monkeypatch):
    g = disc.interval_grid(8)
    ab, _ = random_hessian(g, "diag", False)
    ab[0, 3] = -1.0  # a negative pivot
    with pytest.raises(np.linalg.LinAlgError):
        ss._newton_solve(g.gram_plan, ab, np.ones(g.n_nodes))

    real_hess = ss._StageProblem.hess
    broken = []

    def hess_with_negative_pivot(self, u):
        ab = real_hess(self, u)
        if not broken:  # negative definite: every free pivot is negative
            broken.append(True)
            ab *= -1.0
        return ab

    rng = np.random.default_rng(14)
    w1 = rng.standard_normal(9)
    w2 = rng.standard_normal(2)
    model = fm.anisotropic_p_laplacian(4.0)
    cfg = ss.StepConfig(tol=1e-11)
    clean = ss.solve_step(g, model, 0.0, 0.05, w1, w2, cfg)
    assert ["fallbacks" in s for s in clean.iterations] == [False]
    monkeypatch.setattr(ss._StageProblem, "hess", hess_with_negative_pivot)
    sol = ss.solve_step(g, model, 0.0, 0.05, w1, w2, cfg)
    assert [(s["exit"], s["fallbacks"]) for s in sol.iterations] == [("converged", 1)]
    assert np.max(np.abs(sol.u - clean.u)) < 1e-9
    broken.clear()
    sol = ss.solve_step_obstacle(g, fm.quadratic(1), 0.0, 0.1, w1, w2,
                                 ss.StepConfig(tol=1e-10))
    assert sol.iterations[0]["fallbacks"] == 1
    assert sol.complementarity <= 1e-10


# ---------------------------------------------------------------------------
# lagged Newton factor


def smooth_2d_case(nx, ny):
    g = disc.rectangle_grid(nx, ny)
    x, y = g.nodes.T
    return g, np.cos(np.pi * x) * np.cos(np.pi * y)


def direct_newton_flow(grid, model, y0, h, n, tol):
    """Field after n implicit steps, each by undamped Newton on the step's
    ``_StageProblem`` with every system solved directly by
    ``_newton_solve``."""
    y = y0.copy()
    for i in range(1, n + 1):
        prob = ss._StageProblem(grid, model, i * h, h, y,
                                y[grid.boundary_nodes], None)
        u = y.copy()
        for _ in range(50):
            g = prob.grad(u)
            if np.max(np.abs(g) / grid.mass) <= tol:
                break
            u = u + ss._newton_solve(grid.gram_plan, prob.hess(u), -g)
        else:
            raise AssertionError(f"reference Newton missed step {i}")
        y = u
    return y


@pytest.mark.parametrize("model", [fm.anisotropic_p_laplacian(4, dimension=2),
                                   fm.log_growth(dimension=2)],
                         ids=["p4", "log"])
def test_lagged_factor_flow_matches_direct_newton(model):
    g, y0 = smooth_2d_case(34, 34)
    assert g.gram_plan.kd >= 4 * ss._CG_CAP
    h, n = 0.0025, 20
    cfg = ss.StepConfig(tol=1e-10)
    traj = fd.run_flow(fd.ProblemData(g, y0, T=n * h, model=model), n, cfg)
    assert np.all(traj.step_residuals <= cfg.tol)
    assert np.all(traj.step_certificates <= cfg.certificate_tol)
    stages = [s for log in traj.step_logs for s in log]
    assert len(stages) == n and all(s["exit"] == "converged" for s in stages)
    # the factor is reused: far fewer factorizations than Newton systems
    assert sum(s["factorizations"] for s in stages) < n
    assert sum(s["cg_iters"] for s in stages) > 0
    ref = direct_newton_flow(g, model, y0, h, n, 1e-12)
    diff = traj.fields[-1] - ref
    dist = math.hypot(disc.norm_domain(g, diff),
                      disc.norm_boundary(g, disc.trace(g, diff)))
    assert dist <= 1e-9


@pytest.mark.parametrize("model", [fm.anisotropic_p_laplacian(4, dimension=2),
                                   fm.log_growth(dimension=2)],
                         ids=["p4", "log"])
def test_lagged_factor_is_replaced_after_a_jump_in_h(model):
    g, y0 = smooth_2d_case(34, 34)
    cfg = ss.StepConfig(tol=1e-10)
    held = ss._LaggedFactor()
    first = ss.solve_step(g, model, 0.0025, 0.0025, y0, y0[g.boundary_nodes],
                          cfg, u0=y0, lagged=held)
    assert held.factor is not None
    # a step 100x longer: the held factor misses CG's cap and is refactored
    sol = ss.solve_step(g, model, 0.25, 0.25, first.u,
                        first.u[g.boundary_nodes], cfg, u0=first.u,
                        lagged=held)
    (stage,) = sol.iterations
    assert stage["factorizations"] >= 1 and stage["cg_iters"] >= ss._CG_CAP
    assert first.iterations[0]["factorizations"] + stage["factorizations"] > 1
    assert sol.residual <= cfg.tol and sol.fenchel_total <= cfg.certificate_tol
    fresh = ss.solve_step(g, model, 0.25, 0.25, first.u,
                          first.u[g.boundary_nodes], cfg, u0=first.u)
    assert np.max(np.abs(sol.u - fresh.u)) <= 1e-9


def test_lagged_factor_failed_factorization_falls_back(monkeypatch):
    g, y0 = smooth_2d_case(34, 4)
    model = fm.anisotropic_p_laplacian(4, dimension=2)
    cfg = ss.StepConfig(tol=1e-10)
    clean = ss.solve_step(g, model, 0.01, 0.01, y0, y0[g.boundary_nodes], cfg)
    real = ss.dpbtrf
    calls = []

    def failing_once(ab, **kwargs):
        calls.append(1)
        c, info = real(ab, **kwargs)
        return c, (1 if len(calls) == 1 else info)

    monkeypatch.setattr(ss, "dpbtrf", failing_once)
    sol = ss.solve_step(g, model, 0.01, 0.01, y0, y0[g.boundary_nodes], cfg)
    (stage,) = sol.iterations
    assert stage["fallbacks"] == 1 and stage["factorizations"] == len(calls) >= 2
    assert stage["exit"] == "converged"
    assert np.max(np.abs(sol.u - clean.u)) <= 1e-9


def _no_lagged_keys(log):
    return not any("factorizations" in s or "cg_iters" in s for s in log)


def test_direct_solve_is_kept_off_the_lagged_path():
    p4 = fm.anisotropic_p_laplacian(4, dimension=2)
    cfg = ss.StepConfig(tol=1e-10)
    # a wide band takes the lagged path on the smooth law's one stage ...
    narrow, y0 = smooth_2d_case(34, 4)
    assert narrow.gram_plan.kd >= 4 * ss._CG_CAP
    sol = ss.solve_step(narrow, p4, 0.01, 0.01, y0, y0[narrow.boundary_nodes], cfg)
    assert "factorizations" in sol.iterations[0]
    # ... but not the obstacle step of a smooth law on the same grid
    traj = fd.run_flow(fd.ProblemData(narrow, np.maximum(y0, 0.0), T=0.02,
                                      model=fm.quadratic(2)), 2, cfg, obstacle=True)
    assert all(_no_lagged_keys(log) for log in traj.step_logs)
    # nor 1D steps, nor a 16x16 band (kd = 18 < 4 * cap)
    g1 = disc.interval_grid(32)
    u1 = np.cos(np.pi * g1.nodes[:, 0])
    sol = ss.solve_step(g1, fm.anisotropic_p_laplacian(4), 0.01, 0.01, u1,
                        u1[g1.boundary_nodes], cfg)
    assert _no_lagged_keys(sol.iterations)
    g16, y16 = smooth_2d_case(16, 16)
    assert g16.gram_plan.kd < 4 * ss._CG_CAP
    traj = fd.run_flow(fd.ProblemData(g16, y16, T=0.02, model=p4), 2, cfg)
    assert all(_no_lagged_keys(log) for log in traj.step_logs)
    # nor the continuation stages of a nonsmooth law on the wide band
    x, y = narrow.nodes.T
    u0 = 0.5 * np.cos(2 * np.pi * x) * np.cos(np.pi * y)
    sol = ss.solve_step(narrow, fm.fractured_medium(4, thresholds=0.5, dimension=2),
                        0.001, 0.001, u0, u0[narrow.boundary_nodes], ss.StepConfig())
    assert len(sol.iterations) > 1 and _no_lagged_keys(sol.iterations)
    # nor the multiplier rounds of a total-variation step
    prev = ((x > 0.5) & (y > 0.3)).astype(float)
    sol = ss.tv_step(narrow, 1.0, 0.01, prev)
    assert any("rounds" in s for s in sol.iterations)
    assert _no_lagged_keys(sol.iterations)


# ---------------------------------------------------------------------------
# dual solver


@pytest.mark.parametrize("n_ax", [1, 2])
def test_ball_projection(n_ax):
    rng = np.random.default_rng(21)
    g = disc.interval_grid(12) if n_ax == 1 else disc.rectangle_grid(4, 3)
    wc = 0.7 * 0.05 * g.cell_volumes
    x = rng.standard_normal((g.n_cells, n_ax)) * wc[:, None]
    x[:4] *= 1e-3 / np.linalg.norm(x[:4], axis=1)[:, None]   # well inside
    x[4:8] *= 5.0 / np.linalg.norm(x[4:8], axis=1)[:, None]  # outside
    x[8] = 0.0
    x[9] = 0.0
    x[9, 0] = -wc[9]                                         # on the sphere
    before = x.copy()
    out = ss._ball_projection(wc)(x)
    assert np.array_equal(x, before)
    mag = np.linalg.norm(x, axis=1)
    out_mag = np.linalg.norm(out, axis=1)
    assert np.all(out_mag <= wc * (1.0 + 1e-15))
    inside = mag <= wc
    assert inside[:4].all() and inside[8:10].all() and not inside[4:8].any()
    assert np.array_equal(out[inside], x[inside])
    # points outside are scaled radially onto the sphere
    outside = ~inside
    scale = (wc[outside] / mag[outside])[:, None]
    assert np.allclose(out[outside], scale * x[outside], rtol=1e-14, atol=0.0)
    assert np.allclose(out_mag[outside], wc[outside], rtol=1e-14, atol=0.0)


def test_tv_step_16x16_meets_tolerances_with_feasible_dual():
    g = disc.rectangle_grid(16, 16)
    x, y = g.nodes.T
    w1 = 0.5 * np.cos(2 * np.pi * x) * np.cos(np.pi * y)
    w2 = w1[g.boundary_nodes]
    cfg = ss.StepConfig(tol=1e-8)
    h, rho = 0.01, 1.0
    sol = ss.solve_step(g, fm.total_variation(rho, 2), 0.0, h, w1, w2, cfg)
    assert sol.residual <= cfg.tol
    assert 0.0 <= sol.fenchel_total <= cfg.certificate_tol
    mags = np.linalg.norm(sol.dual, axis=1)
    assert np.all(mags <= rho * h * g.cell_volumes * (1.0 + 1e-14))
    assert np.allclose(sol.eta, sol.dual / (h * g.cell_volumes)[:, None])


# ---------------------------------------------------------------------------
# total variation: FISTA, the multiplier finish and its fallback


_real_multiplier_finish = ss._multiplier_finish


def _skip_finish(*args, **kwargs):
    """``_multiplier_finish`` held to no round, so it gains nothing and FISTA
    resumes from its handover point: a FISTA-only solve."""
    return _real_multiplier_finish(*args, **{**kwargs, "max_rounds": 0})


def _tv_gap(grid, rho, h, sol):
    """The weighted gap sum_c (w_c |grad u|_c - grad u . p_c) of a TV step."""
    q = disc.gradient(grid, sol.u)
    wc = rho * h * grid.cell_volumes
    return float((wc * np.linalg.norm(q, axis=1)
                  - (q * sol.dual).sum(axis=1)).sum())


def _check_tv_dual(grid, rho, h, sol):
    mags = np.linalg.norm(sol.dual, axis=1)
    assert np.all(mags <= rho * h * grid.cell_volumes * (1.0 + 1e-14))
    assert np.array_equal(sol.eta, sol.dual / (h * grid.cell_volumes)[:, None])


@pytest.mark.parametrize("n", [16, 32])
def test_tv_finish_in_2d_matches_a_tight_fista_solve(n):
    g = disc.rectangle_grid(n, n)
    x, y = g.nodes.T
    prev = (((x - 0.5) ** 2 + (y - 0.5) ** 2) < 0.1).astype(float)
    rho, h = 1.0, 0.01
    cfg = ss.StepConfig()
    sol = ss.tv_step(g, rho, h, prev, cfg)
    assert [("rounds" in s, "fallback" in s) for s in sol.iterations] == [
        (False, False), (True, False)]
    assert sol.iterations[0]["exit"] == "handover"
    assert _tv_gap(g, rho, h, sol) <= h * ss._gap_target(cfg)
    _check_tv_dual(g, rho, h, sol)
    with mock.patch.object(ss, "_multiplier_finish", _skip_finish):
        ref = ss.tv_step(g, rho, h, prev, ss.StepConfig(certificate_tol=1e-11))
    assert np.max(np.abs(sol.u - ref.u)) <= 1e-8


def test_tv_finish_at_a_tight_certificate_on_the_benchmark_profile():
    # at the default certificate FISTA alone lands 9e-8 from this reference,
    # so the 1e-8 agreement is asked of both routes at tight certificates
    g = disc.rectangle_grid(16, 16)
    x, y = g.nodes.T
    prev = ((x > 0.5) & (y > 0.3)).astype(float)
    rho, h = 1.0, 0.01
    cfg = ss.StepConfig(certificate_tol=1e-10)
    sol = ss.tv_step(g, rho, h, prev, cfg)
    assert any("rounds" in s for s in sol.iterations)
    assert _tv_gap(g, rho, h, sol) <= h * ss._gap_target(cfg)
    _check_tv_dual(g, rho, h, sol)
    with mock.patch.object(ss, "_multiplier_finish", _skip_finish):
        ref = ss.tv_step(g, rho, h, prev, ss.StepConfig(certificate_tol=1e-11))
    assert np.max(np.abs(sol.u - ref.u)) <= 1e-8


def test_tv_finish_falls_back_to_fista_when_newton_gains_nothing(monkeypatch):
    g = disc.rectangle_grid(16, 16)
    x, y = g.nodes.T
    prev = ((x > 0.5) & (y > 0.3)).astype(float)
    rho, h = 1.0, 0.01
    clean = ss.tv_step(g, rho, h, prev)

    def stalled(prob, u0, tol, max_iter):
        return u0.copy(), {"iters": 0, "residual": 1.0, "exit": "stall"}

    monkeypatch.setattr(ss, "_minimize_newton", stalled)
    sol = ss.tv_step(g, rho, h, prev)
    fista, finish, resumed = sol.iterations
    assert fista["exit"] == "handover" and "pd_gap" in fista
    assert finish["fallback"] is True and finish["exit"] == "stall"
    assert "pd_gap" not in finish
    assert resumed["exit"] == "converged" and "pd_gap" in resumed
    assert fista["iters"] + resumed["iters"] <= ss.StepConfig().pd_max_iter
    assert sol.fenchel_total <= ss.StepConfig().certificate_tol
    _check_tv_dual(g, rho, h, sol)
    assert np.max(np.abs(sol.u - clean.u)) <= 1e-6
    assert not any("fallback" in s for s in clean.iterations)


def test_tv_step_out_of_dual_iterations_reports_max_iter():
    g = disc.rectangle_grid(16, 16)
    x, y = g.nodes.T
    prev = ((x > 0.5) & (y > 0.3)).astype(float)
    with pytest.raises(ss.StepNonConverged) as err:
        ss.tv_step(g, 1.0, 0.01, prev, ss.StepConfig(pd_max_iter=5))
    assert [(s["iters"], s["exit"]) for s in err.value.log] == [(5, "max_iter")]


def _hand_over_after_five_iterations(real):
    """``_dual_solve`` whose TV call hands over after five iterations, so
    the multiplier finish starts from a loose point."""

    def dual_solve(grid, w1, w2, prox, gap_of, gap_target, max_iter, p0=None,
                   handover=0.0, handover_cap=math.inf):
        if not handover:
            return real(grid, w1, w2, prox, gap_of, gap_target, max_iter, p0)
        u, p, gap, it, exit_ = real(grid, w1, w2, prox, gap_of, gap_target,
                                    5, p0)
        return u, p, gap, it, "handover" if exit_ == "max_iter" else exit_

    return dual_solve


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 24), seed=st.integers(0, 2**16),
       log_rho=st.floats(-1.0, 0.5), log_h=st.floats(-2.5, -0.5))
def test_tv_route_matches_the_exact_1d_prox(n, seed, log_rho, log_h):
    g = disc.interval_grid(n)
    prev = np.random.default_rng(seed).standard_normal(g.n_nodes)
    rho, h = 10.0 ** log_rho, 10.0 ** log_h
    ref = orc.tv_prox_1d(prev, rho * h, g.node_weights + g.boundary_mass_full)
    cfg = ss.StepConfig(certificate_tol=1e-4)
    sol = ss.tv_step(g, rho, h, prev, cfg)
    with mock.patch.object(ss, "_dual_solve",
                           _hand_over_after_five_iterations(ss._dual_solve)):
        early = ss.tv_step(g, rho, h, prev, cfg)
    for s in (sol, early):
        assert np.max(np.abs(s.u - ref)) <= 1e-6
        assert s.fenchel_cells.min() >= -1e-10


# ---------------------------------------------------------------------------
# total variation: warm steps along a flow


def _tv_profile():
    """The 16 x 16 step profile of the tv-2d benchmark workload."""
    g = disc.rectangle_grid(16, 16)
    x, y = g.nodes.T
    return g, ((x > 0.5) & (y > 0.3)).astype(float)


def test_tv_cold_route_keeps_its_log():
    g, prev = _tv_profile()
    sol = ss.tv_step(g, 1.0, 0.01, prev)
    fista, finish = sol.iterations
    assert (fista["iters"], fista["exit"]) == (400, "handover")
    assert "pd_gap" in fista and "rounds" not in fista
    assert "rounds" in finish and "pd_gap" not in finish
    # a flow's first step has no dual to start from: the same step
    traj = fd.run_flow(fd.ProblemData(g, prev, T=0.02,
                                      model=fm.total_variation(1.0, 2)), 2)
    assert traj.step_logs[0] == sol.iterations
    assert np.array_equal(traj.fields[1], sol.u)
    assert np.array_equal(traj.etas[0], sol.eta)


def test_tv_loop_entry_reports_its_line_search_work(monkeypatch):
    g, prev = _tv_profile()
    real = ss._armijo
    work = [0, 0]

    def spy(prob, *args):
        point, rejected, floored = real(prob, *args)
        if prob.shift is not None:  # a multiplier round's inner solve
            work[0] += rejected
            work[1] += floored
        return point, rejected, floored

    monkeypatch.setattr(ss, "_armijo", spy)
    traj = fd.run_flow(fd.ProblemData(g, prev, T=0.05,
                                      model=fm.total_variation(1.0, 2)), 5)
    loops = [s for log in traj.step_logs for s in log if "rounds" in s]
    assert len(loops) == 5 and work[0] > 0
    assert sum(s.get("backtracks", 0) for s in loops) == work[0]
    assert sum(s.get("ls_floor", 0) for s in loops) == work[1]


def test_tv_flow_carries_no_state_between_flows():
    g, prev = _tv_profile()
    prob = fd.ProblemData(g, prev, T=0.05, model=fm.total_variation(1.0, 2))
    a, b = fd.run_flow(prob, 5), fd.run_flow(prob, 5)
    assert np.array_equal(a.fields, b.fields)
    assert np.array_equal(a.etas, b.etas)
    assert np.array_equal(a.step_certificates, b.step_certificates)
    assert a.step_logs == b.step_logs
    # the steps after the first start from the carried dual
    assert all(log[0]["iters"] < a.step_logs[0][0]["iters"]
               for log in a.step_logs[1:])


def _warm_data():
    """Step 2 of the tv-2d profile: its data and the dual of step 1."""
    g, prev = _tv_profile()
    first = ss.tv_step(g, 1.0, 0.01, prev)
    return g, first.u, first.u[g.boundary_nodes], first.dual


def test_tv_warm_step_projects_a_carried_dual_outside_the_balls():
    g, w1, w2, dual = _warm_data()
    rho, h = 1.0, 0.01
    wc = rho * h * g.cell_volumes
    carried = 3.0 * dual
    assert np.any(np.linalg.norm(carried, axis=1) > wc * (1.0 + 1e-3))
    with mock.patch.object(ss, "_dual_solve", wraps=ss._dual_solve) as spy:
        sol = ss.solve_step(g, fm.total_variation(rho, 2), 0.0, h, w1, w2,
                            dual=carried)
    p0 = spy.call_args_list[0].args[7]
    assert np.all(np.linalg.norm(p0, axis=1) <= wc * (1.0 + 1e-15))
    assert np.array_equal(carried, 3.0 * dual)
    assert sol.residual <= ss.StepConfig().tol
    assert 0.0 <= sol.fenchel_total <= ss.StepConfig().certificate_tol
    _check_tv_dual(g, rho, h, sol)


def test_tv_warm_step_out_of_dual_iterations_reports_max_iter():
    g, w1, w2, dual = _warm_data()
    with pytest.raises(ss.StepNonConverged) as err:
        ss.solve_step(g, fm.total_variation(1.0, 2), 0.0, 0.01, w1, w2,
                      ss.StepConfig(pd_max_iter=5), dual=dual)
    assert [(s["iters"], s["exit"]) for s in err.value.log] == [(5, "max_iter")]


def test_tv_warm_handover_is_never_looser_than_a_cold_one():
    # on rough data the dual moves far from one step to the next, so a warm
    # start's first gap is not small; handed over at a tenth of it, step 5
    # left the multiplier loop a start it could not finish in its rounds,
    # and FISTA fell back for 1700 more iterations
    g = disc.rectangle_grid(10, 12)
    y0 = np.random.default_rng(2284).standard_normal(g.n_nodes)
    model = fm.total_variation(2.65, 2)
    traj = fd.run_flow(fd.ProblemData(g, y0, T=5 * 0.0133, model=model), 5)
    handovers = 0
    for i, log in enumerate(traj.step_logs[1:], start=1):
        assert not any("fallback" in s for s in log)
        if log[0]["exit"] == "handover":
            handovers += 1
            # the gap at p = 0 is h times the TV energy of the data
            cold_scale = traj.h * fd._energy(g, model, traj.fields[i])
            assert log[0]["pd_gap"] <= 1e-5 * cold_scale
    assert handovers


def _m_norm(grid, v):
    return math.sqrt(float(v @ (grid.mass * v)))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(shape=st.one_of(st.tuples(st.integers(2, 24)),
                       st.tuples(st.integers(2, 12), st.integers(2, 12))),
       seed=st.integers(0, 2**16), log_rho=st.floats(-1.0, 0.5),
       log_h=st.floats(-2.5, -0.5), steps=st.integers(5, 10))
def test_warm_tv_flow_properties(shape, seed, log_rho, log_h, steps):
    g = disc.interval_grid(*shape) if len(shape) == 1 else disc.rectangle_grid(*shape)
    y0 = np.random.default_rng(seed).standard_normal(g.n_nodes)
    rho, h = 10.0 ** log_rho, 10.0 ** log_h
    model = fm.total_variation(rho, g.dimension)
    cfg = ss.StepConfig()
    traj = fd.run_flow(fd.ProblemData(g, y0, T=steps * h, model=model), steps,
                       cfg)
    assert fd.energy_trace(traj).max_increase <= 1e-10
    for i in range(steps):
        u = traj.fields[i + 1]
        gaps = model.fenchel_gap(0.0, g.cell_centers, disc.gradient(g, u),
                                 traj.etas[i])
        assert gaps.min() >= -1e-10
        assert traj.step_certificates[i] <= cfg.certificate_tol
        # phi is 1-strongly convex in the M-norm and h * certificate bounds
        # phi(u) - min phi, so both steps lie within sqrt(2 h cert) of the
        # minimizer; a certificate is known only to its rounding, of order
        # eps times the TV energy it is taken against
        cold = ss.tv_step(g, rho, traj.h, traj.fields[i], cfg)
        floor = 1e-14 * (1.0 + fd._energy(g, model, u))
        bound = sum(math.sqrt(2.0 * traj.h * max(cert, floor))
                    for cert in (traj.step_certificates[i], cold.fenchel_total))
        assert _m_norm(g, u - cold.u) <= bound


# ---------------------------------------------------------------------------
# warm dual route of a nonsmooth flow

# the fractured-1d benchmark profile: one of its first steps ends in the dual
# rescue, and the steps after it run warm
FRACTURED_CFG = ss.StepConfig(tol=1e-10, lam_min=1e-11, lam_decay=0.1)
FRACTURED_H = 1.0 / 200


def _fractured_problem(steps):
    g = disc.interval_grid(32)
    y0 = 0.5 * np.cos(2 * np.pi * g.nodes[:, 0])
    model = fm.fractured_medium(4, alpha=1.0, thresholds=0.5)
    return fd.ProblemData(g, y0, T=steps * FRACTURED_H, model=model)


def _fractured_step(prob, i, prev, cfg=FRACTURED_CFG, dual=None):
    """Step i of the profile from the field ``prev``, as ``run_flow`` takes it."""
    g = prob.grid
    return ss.solve_step(g, prob.model, i * FRACTURED_H, FRACTURED_H, prev,
                         prev[g.boundary_nodes], cfg, u0=prev, dual=dual)


def test_nonsmooth_flow_carries_no_state_between_flows():
    prob = _fractured_problem(8)
    a, b = (fd.run_flow(prob, 8, FRACTURED_CFG) for _ in range(2))
    assert np.array_equal(a.fields, b.fields)
    assert np.array_equal(a.etas, b.etas)
    assert np.array_equal(a.step_certificates, b.step_certificates)
    assert a.step_logs == b.step_logs


def test_only_a_step_on_the_dual_route_returns_its_dual():
    prob = _fractured_problem(8)
    traj = fd.run_flow(prob, 8, FRACTURED_CFG)
    vol = prob.grid.cell_volumes
    routes = []
    for i in range(1, 9):
        sol = _fractured_step(prob, i, traj.fields[i - 1])
        routes.append("rescue" in sol.iterations[-1])
        assert (sol.dual is not None) == routes[-1]
        if routes[-1]:
            assert np.allclose(sol.dual, FRACTURED_H * vol[:, None] * sol.eta,
                               rtol=1e-14, atol=0.0)
    assert any(routes) and not all(routes)


def test_step_after_a_rescue_starts_warm():
    traj = fd.run_flow(_fractured_problem(8), 8, FRACTURED_CFG)
    kinds = [[s.get("rescue") for s in log] for log in traj.step_logs]
    # the first step on the dual route comes at step 4 at the latest, after
    # cold steps, and the multiplier loop finishes its stalled continuation
    k = next(i for i, kind in enumerate(kinds) if kind[-1] is not None)
    assert k <= 3 and kinds[k][-1] == "loop"
    assert kinds[:k] == [[None] * len(kind) for kind in kinds[:k]]
    # each warm step ends in the loop, so the next one starts warm too
    assert kinds[k + 1:] == [["loop"]] * (7 - k)
    for log in traj.step_logs[k:]:
        assert "fallback" not in log[-1]
        assert log[-1]["certificate"] <= 1e-4 * ss._gap_target(FRACTURED_CFG)


def test_warm_miss_falls_back_to_the_cold_route(monkeypatch):
    # step 19 of the profile is the first after step 1 whose cold
    # continuation runs every stage cleanly, so the 0-round patch below
    # hits its warm loop only
    prob = _fractured_problem(19)
    traj = fd.run_flow(prob, 19, FRACTURED_CFG)
    dual = _fractured_step(prob, 18, traj.fields[17]).dual
    # a loop with no rounds misses, and the step goes cold
    real = ss._multiplier_finish
    monkeypatch.setattr(ss, "_multiplier_finish",
                        lambda *a, **k: real(*a, **{**k, "max_rounds": 0}))
    warm = _fractured_step(prob, 19, traj.fields[18], dual=dual)
    cold = _fractured_step(prob, 19, traj.fields[18])
    loop, *rest = warm.iterations
    assert (loop["rescue"], loop["rounds"], loop["fallback"]) == ("loop", 0, True)
    assert loop["certificate"] > 1e-3 * ss._gap_target(FRACTURED_CFG)
    assert rest == cold.iterations
    assert not any("rescue" in s for s in rest)
    assert np.array_equal(warm.u, cold.u) and np.array_equal(warm.eta, cold.eta)
    assert warm.dual is None


def test_cold_loop_miss_returns_its_best_point_to_finish(monkeypatch):
    # the cold 16 x 16 step whose continuation stalls (``_route_loop``), its
    # loop held to one round: the step returns the loop's best point, and
    # ``_finish`` rejects its certificate; the miss is marked all the same
    real_loop, real_finish = ss._multiplier_finish, ss._finish
    loops, finishes = [], []

    def one_round(*a, **k):
        loops.append(real_loop(*a, **{**k, "max_rounds": 1}))
        return loops[-1]

    def finish(*a, **k):
        finishes.append((a, k))
        return real_finish(*a, **k)

    monkeypatch.setattr(ss, "_multiplier_finish", one_round)
    monkeypatch.setattr(ss, "_finish", finish)
    with pytest.raises(ss.StepNonConverged, match="Fenchel certificate"):
        _route_fractured_2d()
    (u, p, _, loop), = loops
    (args, kwargs), = finishes
    *stages, logged = args[-1]
    # the continuation handed over because its last stage stalled or
    # backtracked
    assert stages[-1]["exit"] == "stall" or "backtracks" in stages[-1]
    assert logged is loop and (loop["rescue"], loop["rounds"]) == ("loop", 1)
    assert loop["fallback"] is True
    assert loop["certificate"] > ss.StepConfig().certificate_tol
    assert np.array_equal(args[6], u) and np.array_equal(kwargs["dual"], p)


def _cosine_step(model, solve=ss.solve_step, shift=0.0):
    """A cold 1D step from 0.3 cos 2 pi x + shift (the kink crossing data)."""
    g = disc.interval_grid(16)
    w1 = 0.3 * np.cos(2 * np.pi * g.nodes[:, 0]) + shift
    return solve(g, model, 0.0, 0.05, w1, w1[g.boundary_nodes])


def _hands_over(stage):
    return "backtracks" in stage or stage["exit"] == "stall"


@pytest.mark.parametrize("model", [
    pytest.param(fm.fractured_medium(4, thresholds=0.5), id="fractured"),
    pytest.param(fm.anisotropic_p_laplacian(1.5, kappa=0.2), id="kappa"),
])
def test_jump_law_continuation_hands_over_at_its_first_backtracking_stage(model):
    sol = _cosine_step(model)
    *stages, loop = sol.iterations
    assert [s["lam"] for s in stages] == ss.StepConfig().lam_schedule()[:len(stages)]
    assert [_hands_over(s) for s in stages] == [False] * (len(stages) - 1) + [True]
    assert loop["rescue"] == "loop" and "fallback" not in loop
    assert sol.dual is not None


@pytest.mark.parametrize("model", [
    pytest.param(fm.anisotropic_p_laplacian(1.5), id="plaplacian-1.5"),
    pytest.param(fm.fractured_medium(4.0, thresholds=0.0), id="fractured-no-jump"),
])
def test_jumpless_continuation_runs_every_stage(model, monkeypatch):
    # every stage is made to log a backtrack: a law without a flux jump
    # still runs the whole schedule and returns the lam_min envelope's flux
    real = ss._minimize_newton

    def backtracking(*a, **k):
        u, stage = real(*a, **k)
        return u, {**stage, "backtracks": stage.get("backtracks", 0) + 1}

    monkeypatch.setattr(ss, "_minimize_newton", backtracking)
    sol = _cosine_step(model)
    g, cfg = disc.interval_grid(16), ss.StepConfig()
    assert [s["lam"] for s in sol.iterations] == cfg.lam_schedule()
    assert all(_hands_over(s) for s in sol.iterations)
    assert not any("rescue" in s for s in sol.iterations)
    assert np.array_equal(sol.eta, model.yosida(0.0, g.cell_centers, cfg.lam_min,
                                                disc.gradient(g, sol.u)))
    assert sol.dual is None


def test_callable_kappa_step_ends_on_its_continuation():
    # kink_scale 0 keeps every stage; the step returns the lam_min envelope's
    # flux, whose weak-form residual is the last stage's, with no dual route
    model = fm.anisotropic_p_laplacian(1.5, kappa=lambda t, x: 0.2 + 0.1 * x[:, 0])
    g, cfg = disc.interval_grid(16), ss.StepConfig()
    w1 = 0.5 * np.random.default_rng(0).standard_normal(17)
    sol = ss.solve_step(g, model, 0.0, 0.1, w1, w1[g.boundary_nodes], cfg)
    assert [s["lam"] for s in sol.iterations] == cfg.lam_schedule()
    assert not any("rescue" in s for s in sol.iterations)
    assert sol.dual is None
    assert sol.residual <= cfg.tol
    assert sol.fenchel_total <= cfg.certificate_tol


def test_callable_kappa_flow_takes_no_dual_route():
    model = fm.anisotropic_p_laplacian(1.5, kappa=lambda t, x: 0.2 + 0.1 * x[:, 0])
    g = disc.interval_grid(16)
    y0 = 0.5 * np.cos(2 * np.pi * g.nodes[:, 0])
    traj = fd.run_flow(fd.ProblemData(g, y0, T=0.03, model=model), 3)
    assert not any("rescue" in s for log in traj.step_logs for s in log)


def test_fractured_obstacle_step_runs_every_stage():
    sol = _cosine_step(fm.fractured_medium(4, thresholds=0.5),
                       ss.solve_step_obstacle, shift=-0.1)
    assert [s["lam"] for s in sol.iterations] == ss.StepConfig().lam_schedule()
    assert any(_hands_over(s) for s in sol.iterations)


def test_warm_step_already_at_its_target_runs_no_round():
    # constant data and a zero dual: the start's gap is 0, and a round would
    # start from lam = 0
    g = disc.interval_grid(12)
    c = np.full(g.n_nodes, 0.3)
    for p in (1.5, 4.0):
        model = fm.fractured_medium(p, thresholds=0.5)
        sol = ss.solve_step(g, model, 0.0, 0.01, c, c[g.boundary_nodes],
                            dual=np.zeros((g.n_cells, 1)))
        (entry,) = sol.iterations
        assert (entry["rescue"], entry["rounds"], entry["iters"]) == ("loop", 0, 0)
        assert entry["certificate"] <= 1e-4 * ss._gap_target(ss.StepConfig())
        assert np.allclose(sol.u, 0.3, rtol=0.0, atol=1e-15)
        assert sol.dual is not None


def test_kink_scale_is_the_flux_jump_height():
    assert fm.total_variation(2.5, 2).kink_scale == 2.5
    model = fm.fractured_medium(3.0, alpha=2.0, thresholds=[0.5, 0.25],
                                dimension=2)
    assert model.kink_scale == 0.25
    laws = model._laws(0.0, np.zeros((1, 2)))
    assert max(float(law.hi_e - law.lo_e) for law in laws) == model.kink_scale
    # a constant kappa > 0 puts a jump [delta - kappa, delta + kappa] at 0
    model = fm.anisotropic_p_laplacian(1.5, kappa=[0.2, 0.1], delta=0.05,
                                       dimension=2)
    assert model.kink_scale == 0.4
    laws = model._laws(0.0, np.zeros((1, 2)))
    assert max(np.subtract(*law.subgrad0()[::-1]) for law in laws) == 0.4
    for smooth_or_custom in (fm.quadratic(1), fm.anisotropic_p_laplacian(1.5),
                             fm.anisotropic_p_laplacian(4.0, kappa=0.0),
                             fm.anisotropic_p_laplacian(
                                 1.5, kappa=lambda t, xs: np.full(len(xs), 0.2)),
                             fm.log_growth(1.0),
                             fm.custom_model(lambda s: np.cosh(s) - 1.0)):
        assert smooth_or_custom.kink_scale == 0.0


def _sine_data(model):
    g = disc.interval_grid(12)
    return g, model, 0.0, 0.01, np.sin(2 * np.pi * g.nodes[:, 0])


def _sine_step(model, dual=None):
    g, model, t, h, w1 = _sine_data(model)
    return ss.solve_step(g, model, t, h, w1, w1[g.boundary_nodes],
                         ss.StepConfig(tol=1e-9, lam_min=1e-9), dual=dual)


@pytest.mark.parametrize("model", [
    pytest.param(fm.quadratic(1), id="quadratic"),
    pytest.param(fm.anisotropic_p_laplacian(4.0), id="plaplacian"),
    pytest.param(fm.log_growth(1.0), id="loggrowth"),
    pytest.param(fm.fractured_medium(4.0, thresholds=0.0), id="fractured-no-jump"),
    pytest.param(fm.anisotropic_p_laplacian(1.5), id="plaplacian-1.5"),
    pytest.param(fm.custom_model(lambda s: np.cosh(s) - 1.0, beta=np.sinh),
                 id="custom"),
])
def test_smooth_step_ignores_a_carried_dual(model):
    # only a law with a flux jump (kink_scale > 0) starts warm; every other
    # step takes its cold route, whatever dual it is handed
    assert model.kink_scale == 0.0
    a = _sine_step(model, dual=np.full((12, 1), 0.01))
    b = _sine_step(model)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.eta, b.eta)
    assert a.iterations == b.iterations
    if model.is_smooth:
        assert a.dual is None


def test_custom_flow_stays_cold():
    # a Custom law's numeric conjugate can underestimate j*, so its gap is no
    # sound stop for a warm start: its kink_scale is 0, so a step handed a
    # dual ignores it (test_smooth_step_ignores_a_carried_dual), while a
    # step the multiplier loop finished still returns its dual
    model = fm.custom_model(lambda s: np.cosh(s) - 1.0, beta=np.sinh)
    assert model.kink_scale == 0.0
    cold = _sine_step(model)
    assert cold.iterations[-1]["rescue"] == "loop" and cold.dual is not None


def test_custom_cosh_flow_runs_clean_continuations():
    # the bisection prox resolves every stage of the cosh law, so no step
    # of the flow needs a finish
    model = fm.custom_model(lambda s: np.cosh(s) - 1.0, beta=np.sinh)
    g = disc.interval_grid(32)
    y0 = 0.5 * np.cos(2 * np.pi * g.nodes[:, 0])
    traj = fd.run_flow(fd.ProblemData(g, y0, T=0.025, model=model), 5)
    lams = ss.StepConfig().lam_schedule()
    for log in traj.step_logs:
        assert [s["lam"] for s in log] == lams
        assert all(s["exit"] == "converged" for s in log)
        assert not any("rescue" in s for s in log)


@pytest.mark.parametrize("n", [8, 16])
def test_jumpless_step_whose_envelope_flux_misses_the_certificate(n):
    # every stage converges, but the lam_min envelope's flux has a
    # certificate above 1e-6 (2.1e-6 and 1.2e-6), so the loop finishes it
    g = disc.interval_grid(n)
    w1 = np.random.default_rng(3).standard_normal(n + 1)
    model, cfg = fm.fractured_medium(4.0, thresholds=0.0), ss.StepConfig()
    sol = ss.solve_step(g, model, 0.0, 0.001, w1, w1[g.boundary_nodes])
    *stages, loop = sol.iterations
    assert [s["lam"] for s in stages] == cfg.lam_schedule()
    assert all(s["exit"] == "converged" for s in stages)
    assert (loop["rescue"], loop["rounds"]) == ("loop", 1)
    assert sol.fenchel_total <= 1e-3 * ss._gap_target(cfg)
    assert sol.dual is not None


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(n=st.integers(4, 24), seed=st.integers(0, 2**16),
       law=st.sampled_from(["fractured-0", "p-1.5", "p-1.2", "custom-kink"]),
       amp=st.floats(0.5, 2.0), log_h=st.floats(-4.0, -2.5))
def test_jumpless_rough_step_meets_its_certificate(n, seed, law, amp, log_h):
    model = {"fractured-0": lambda: fm.fractured_medium(4.0, thresholds=0.0),
             "p-1.5": lambda: fm.anisotropic_p_laplacian(1.5),
             "p-1.2": lambda: fm.anisotropic_p_laplacian(1.2),
             "custom-kink": lambda: fm.custom_model(
                 lambda s: np.abs(s) ** 3 / 3.0 + 0.2 * np.abs(s))}[law]()
    assert model.kink_scale == 0.0 and not model.is_smooth
    g = disc.interval_grid(n)
    w1 = amp * np.random.default_rng(seed).standard_normal(n + 1)
    cfg = ss.StepConfig()
    sol = ss.solve_step(g, model, 0.0, 10.0 ** log_h, w1, w1[g.boundary_nodes],
                        cfg)
    assert sol.fenchel_total <= cfg.certificate_tol
    assert sol.fenchel_cells.min() >= -1e-10


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(n=st.integers(4, 20), seed=st.integers(0, 2**16),
       p=st.sampled_from([1.5, 4.0]), threshold=st.floats(0.2, 1.0),
       amp=st.floats(0.2, 1.0), log_h=st.floats(-3.0, -1.5),
       steps=st.integers(3, 8))
def test_warm_fractured_flow_agrees_with_cold_steps(n, seed, p, threshold, amp,
                                                    log_h, steps):
    _check_warm_flow_agrees_with_cold_steps(
        fm.fractured_medium(p, thresholds=threshold), n, seed, amp, log_h, steps)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(n=st.integers(4, 20), seed=st.integers(0, 2**16),
       p=st.sampled_from([1.5, 2.0]), kappa=st.floats(0.1, 0.5),
       amp=st.floats(0.2, 1.0), log_h=st.floats(-3.0, -1.5),
       steps=st.integers(3, 8))
def test_warm_kappa_flow_agrees_with_cold_steps(n, seed, p, kappa, amp, log_h,
                                                steps):
    # a p-Laplacian with kappa > 0 has a flux jump of 2 kappa at 0
    _check_warm_flow_agrees_with_cold_steps(
        fm.anisotropic_p_laplacian(p, kappa=kappa), n, seed, amp, log_h, steps)


def _check_warm_flow_agrees_with_cold_steps(model, n, seed, amp, log_h, steps):
    """Each step of a flow, warm where it was handed a dual, lies as close
    to the same step taken cold as their residuals and certificates allow."""
    g = disc.interval_grid(n)
    x = g.nodes[:, 0]
    noise = np.random.default_rng(seed).standard_normal(g.n_nodes)
    y0 = amp * (np.cos(2 * np.pi * x) + 0.1 * noise)
    cfg = ss.StepConfig(tol=1e-9, lam_min=1e-9)
    h = 10.0 ** log_h
    traj = fd.run_flow(fd.ProblemData(g, y0, T=steps * h, model=model), steps,
                       cfg)
    # phi is 1-strongly convex in the M-norm; a step's field lies within
    # 2 |M^{-1} r|_M + sqrt(2 h cert) of the minimizer, r its weak-form
    # residual, and a certificate is known only to its rounding
    mass = math.sqrt(float(g.mass.sum()))

    def radius(sol):
        floor = 1e-14 * (1.0 + fd._energy(g, model, sol.u))
        return (2.0 * mass * sol.residual
                + math.sqrt(2.0 * h * max(sol.fenchel_total, floor)))

    for i in range(steps):
        u = traj.fields[i + 1]
        gaps = model.fenchel_gap(0.0, g.cell_centers, disc.gradient(g, u),
                                 traj.etas[i])
        assert gaps.min() >= -1e-10
        warm = ss.StepSolution(u, traj.etas[i], 0.0, traj.step_residuals[i],
                               gaps, traj.step_certificates[i])
        cold = ss.solve_step(g, model, (i + 1) * h, h, traj.fields[i],
                             traj.fields[i][g.boundary_nodes], cfg,
                             u0=traj.fields[i])
        assert _m_norm(g, u - cold.u) <= radius(warm) + radius(cold)
