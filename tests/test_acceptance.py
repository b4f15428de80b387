"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is recalibrated at runtime.
"""

import time

import numpy as np
import pytest

from wentzellflow import discretization as disc
from wentzellflow import flow_driver as fd
from wentzellflow import flux_models as fm
from wentzellflow import oracles as orc
from wentzellflow import step_solver as ss

TIGHT = ss.StepConfig(tol=1e-12)


def _report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {num}: {name} {detail}"


def quad_mms():
    def y_ex(t, x):
        return np.exp(-t) * np.cos(np.pi * x)

    def f(t, pts):
        return (np.pi ** 2 - 1.0) * np.exp(-t) * np.cos(np.pi * pts[:, 0])

    def g(t, pts):
        return -np.exp(-t) * np.cos(np.pi * pts[:, 0])

    return y_ex, f, g


def plap4_mms():
    def f(t, pts):
        x = pts[:, 0]
        return (-np.exp(-t) * np.sin(np.pi * x)
                + 3.0 * np.pi ** 4 * np.exp(-3.0 * t)
                * np.cos(np.pi * x) ** 2 * np.sin(np.pi * x))

    def g(t, pts):
        return np.full(pts.shape[0], -np.pi ** 3 * np.exp(-3.0 * t))

    return f, g


def catalog_models():
    return [
        (fm.quadratic(1), TIGHT),
        (fm.anisotropic_p_laplacian(4.0), TIGHT),
        (fm.fractured_medium(4.0, thresholds=0.5),
         ss.StepConfig(tol=1e-10, lam_min=1e-11, lam_decay=0.1)),
        (fm.log_growth(1.0), TIGHT),
        (fm.total_variation(1.0), ss.StepConfig()),
    ]


def test_criterion_1_quadratic_step_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (4, 16, 64):
        g = disc.interval_grid(n)
        w1 = rng.standard_normal(g.n_nodes)
        w2 = rng.standard_normal(2)
        sol = ss.solve_step(g, fm.quadratic(1), 0.0, 0.02, w1, w2, TIGHT)
        ref = orc.dense_linear_step(g, 0.02, w1, w2)
        worst = max(worst, float(np.max(np.abs(sol.u - ref))))
    g = disc.rectangle_grid(8, 8)
    w1 = rng.standard_normal(g.n_nodes)
    w2 = rng.standard_normal(g.boundary_nodes.size)
    sol = ss.solve_step(g, fm.quadratic(2), 0.0, 0.02, w1, w2, TIGHT)
    ref = orc.dense_linear_step(g, 0.02, w1, w2)
    worst = max(worst, float(np.max(np.abs(sol.u - ref))))
    elapsed = time.monotonic() - t0
    _report(1, "quadratic step matches dense oracle to 1e-8",
            worst <= 1e-8 and elapsed < 5.0,
            f"max err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_stability_quantities():
    t0 = time.monotonic()
    y_ex, fq, gq = quad_mms()
    fp, gp = plap4_mms()
    ok = True
    details = []
    cases = [
        ("quadratic", fm.quadratic(1), fq, gq,
         lambda xs: y_ex(0.0, xs)),
        ("plaplacian", fm.anisotropic_p_laplacian(4.0), fp, gp,
         lambda xs: np.sin(np.pi * xs)),
    ]
    for name, model, f, g_src, y0_fn in cases:
        g = disc.interval_grid(16)
        prob = fd.ProblemData(g, y0_fn(g.nodes[:, 0]), f, g_src, 0.5, model)
        reps = [fd.stability_report(fd.run_flow(prob, n, TIGHT))
                for n in (10, 20, 40, 80)]
        for key, coarse in reps[0].quantities().items():
            values = [getattr(r, key) for r in reps]
            if max(values) > 2.0 * coarse + 1e-10:
                ok = False
                details.append(f"{name}:{key}")
        if not all(r.gronwall_pass for r in reps):
            ok = False
            details.append(f"{name}:gronwall")
    elapsed = time.monotonic() - t0
    _report(2, "stability quantities h-uniform and Gronwall bound holds",
            ok and elapsed < 60.0,
            f"{elapsed:.1f}s" + ("; " + ",".join(details) if details else ""))


def test_criterion_3_self_convergence():
    y_ex, f, g_src = quad_mms()
    g = disc.interval_grid(16)
    prob = fd.ProblemData(g, y_ex(0.0, g.nodes[:, 0]), f, g_src, 0.5,
                          fm.quadratic(1))
    tab = fd.convergence_study(prob, [10, 20, 40, 80], TIGHT)
    quad_ok = tab.r == 2.0 and min(tab.orders) >= 0.8

    y0_step = np.where(g.nodes[:, 0] > 0.5, 1.0, 0.0)
    prob_tv = fd.ProblemData(g, y0_step, None, None, 0.2,
                             fm.total_variation(1.0))
    tab_tv = fd.convergence_study(prob_tv, [5, 10, 20, 40],
                                  ss.StepConfig())
    tv_ok = all(b < a for a, b in zip(tab_tv.distances[:-1],
                                      tab_tv.distances[1:]))

    prob_fr = fd.ProblemData(g, 0.8 * np.cos(np.pi * g.nodes[:, 0]), None,
                             None, 0.2, fm.fractured_medium(4.0, thresholds=0.5))
    tab_fr = fd.convergence_study(prob_fr, [5, 10, 20, 40],
                                  ss.StepConfig(tol=1e-9, lam_min=1e-9))
    fr_ok = all(b < a for a, b in zip(tab_fr.distances[:-1],
                                      tab_fr.distances[1:]))
    _report(3, "self-convergence: quadratic order >= 0.8; TV and fractured "
               "differences strictly decreasing",
            quad_ok and tv_ok and fr_ok,
            f"orders {['%.2f' % o for o in tab.orders]}")


def test_criterion_4_contraction():
    g = disc.interval_grid(32)
    rng = np.random.default_rng(104)
    y0 = np.cos(2 * np.pi * g.nodes[:, 0])
    dy = 0.3 * rng.standard_normal(g.n_nodes)
    worst = 0.0
    cases = [
        (fm.quadratic(1), TIGHT),
        (fm.anisotropic_p_laplacian(4.0), TIGHT),
        (fm.total_variation(1.0), ss.StepConfig()),
    ]
    for model, cfg in cases:
        prob = fd.ProblemData(g, y0, None, None, 0.5, model)
        pert = fd.ProblemData(g, y0 + dy, None, None, 0.5, model)
        rep = fd.contraction_check(prob, pert, 20, cfg)
        worst = max(worst, rep.c_empirical)
    _report(4, "pure initial perturbations contract (C <= 1 + 1e-8)",
            worst <= 1.0 + 1e-8, f"worst C {worst:.12f}")


def test_criterion_5_moreau_yosida_suite():
    rng = np.random.default_rng(105)
    ok = True
    detail = []
    for model, _ in catalog_models():
        n = model.dimension
        x0 = [0.0] * n
        for _ in range(100):
            r = rng.uniform(-4, 4, n)
            rb = rng.uniform(-4, 4, n)
            lam = 10 ** rng.uniform(-3, 0)
            j = fm.potential(model, 0.0, x0, r)
            prev = -np.inf
            for lam_k in (1.0, 0.1, 0.01, 0.001):  # three decades
                jl = fm.moreau(model, 0.0, x0, lam_k, r)
                if jl > j + 1e-12 or jl < prev - 1e-12:
                    ok = False
                    detail.append(f"{model.kind}:envelope")
                prev = jl
            if j - prev > max(0.05, 0.1 * j):
                ok = False
                detail.append(f"{model.kind}:limit")
            y = fm.yosida_flux(model, 0.0, x0, lam, r)
            fdg = np.empty(n)
            for a in range(n):
                e = np.zeros(n)
                e[a] = 1e-6
                fdg[a] = (fm.moreau(model, 0.0, x0, lam, r + e)
                          - fm.moreau(model, 0.0, x0, lam, r - e)) / 2e-6
            if np.max(np.abs(fdg - y)) >= 1e-5:
                ok = False
                detail.append(f"{model.kind}:gradient")
            z = fm.resolvent(model, 0.0, x0, lam, r)
            zb = fm.resolvent(model, 0.0, x0, lam, rb)
            if np.linalg.norm(z - zb) > np.linalg.norm(r - rb) + 1e-10:
                ok = False
                detail.append(f"{model.kind}:nonexpansive")
    _report(5, "envelope/regularized-flux suite on 100 samples per model",
            ok, ",".join(sorted(set(detail))))


def test_criterion_6_fenchel_certificates():
    rng = np.random.default_rng(106)
    g = disc.interval_grid(16)
    ok = True
    # every accepted step solution carries a valid certificate
    for model, cfg in catalog_models():
        if model.dimension != 1:
            continue
        w1 = rng.standard_normal(g.n_nodes)
        w2 = rng.standard_normal(2)
        sol = ss.solve_step(g, model, 0.0, 0.05, w1, w2, cfg)
        if sol.fenchel_cells.min() < -1e-10:
            ok = False
        if sol.fenchel_total > cfg.certificate_tol:
            ok = False
    # randomized Fenchel pairs: inequality, equality at the selection
    worst_eq = 0.0
    for model, _ in catalog_models():
        n = model.dimension
        for _ in range(50):
            r = rng.uniform(-3, 3, n)
            eta = fm.flux_select(model, 0.0, [0.0] * n, r)
            worst_eq = max(worst_eq, abs(fm.fenchel_gap(model, 0.0, [0.0] * n,
                                                        r, eta)))
            w = eta + rng.uniform(-0.3, 0.3, n)
            try:
                gap = fm.fenchel_gap(model, 0.0, [0.0] * n, r, w)
            except fm.UnboundedConjugate:
                continue
            if gap < -1e-10:
                ok = False
    _report(6, "Fenchel certificates valid; equality at selections to 1e-8",
            ok and worst_eq <= 1e-8, f"worst equality gap {worst_eq:.2e}")


def test_criterion_7_energy_decay():
    g = disc.interval_grid(32)
    y0 = 0.5 * np.cos(2 * np.pi * g.nodes[:, 0])
    ok = True
    detail = []
    for model, cfg in catalog_models():
        prob = fd.ProblemData(g, y0, None, None, 1.0, model)
        traj = fd.run_flow(prob, 200, cfg)
        rep = fd.energy_trace(traj, tol=1e-10, dissipation_tol=1e-8)
        if rep.max_increase > 1e-10:
            ok = False
            detail.append(f"{model.kind}:inc={rep.max_increase:.1e}")
        if not rep.dissipation_pass:
            ok = False
            detail.append(f"{model.kind}:diss={rep.max_dissipation_violation:.1e}")
    _report(7, "energy nonincreasing (1e-10) and per-step dissipation holds, "
               "200 steps, all catalog models", ok, ",".join(detail))


def test_criterion_8_asymptotics():
    g = disc.interval_grid(32)
    y0 = np.cos(2 * np.pi * g.nodes[:, 0])
    y0 = y0 - fd.total_mass(g, y0) / (g.domain_measure + g.boundary_measure)
    prob = fd.ProblemData(g, y0, None, None, 1.0, fm.quadratic(1))
    rep = fd.asymptotics_check(prob, 30.0, 300, TIGHT, tol=1e-6)
    quad_ok = rep.passed and rep.final_distance <= 1e-6

    y0_step = np.where(g.nodes[:, 0] > 0.5, 1.0, 0.0)
    mean = fd.total_mass(g, y0_step) / (g.domain_measure + g.boundary_measure)
    m = g.node_weights + g.boundary_mass_full
    oracle_mean = orc.tv_prox_1d(y0_step, 1e7, m)[0]
    prob_tv = fd.ProblemData(g, y0_step, None, None, 4.0,
                             fm.total_variation(1.0))
    traj = fd.run_flow(prob_tv, 40, ss.StepConfig())
    errs = [float(np.max(np.abs(traj.fields[i] - mean)))
            for i in range(traj.n_steps + 1)]
    hit = next((i for i, e in enumerate(errs) if e < 1e-9), None)
    tv_ok = (hit is not None and hit < traj.n_steps
             and abs(mean - oracle_mean) < 1e-9
             and all(e < 1e-9 for e in errs[hit:]))
    _report(8, "decay to equilibrium (quadratic) and finite-time weighted "
               "mean (TV)", quad_ok and tv_ok,
            f"final {rep.final_distance:.1e}; TV hits mean at step {hit}")


def test_criterion_9_obstacle():
    g = disc.interval_grid(8)
    rng = np.random.default_rng(109)
    cfg = ss.StepConfig(tol=1e-8)
    ok = True
    worst_gap = 0.0
    for _ in range(5):
        w1 = rng.standard_normal(g.n_nodes)
        w2 = rng.standard_normal(2)
        h = 0.1
        sol = ss.solve_step_obstacle(g, fm.quadratic(1), 0.0, h, w1, w2, cfg)
        if sol.u.min() < -1e-12 or sol.complementarity > 1e-6:
            ok = False

        def grad(u):
            return ss.step_objective_grad(g, fm.quadratic(1), 0.0, h, w1, w2, u)

        m = g.node_weights + g.boundary_mass_full
        lip = float(m.max()) + h * 4.0 * 8.0
        ref = orc.projected_gradient_descent(grad, np.maximum(w1, 0.0),
                                             1.0 / lip, 30000)
        worst_gap = max(worst_gap, float(np.max(np.abs(sol.u - ref))))
    _report(9, "obstacle: feasible, complementary, matches projected-gradient "
               "oracle to 1e-6", ok and worst_gap <= 1e-6,
            f"worst oracle gap {worst_gap:.2e}")


def test_criterion_10_tv_steps_match_exact_prox():
    rng = np.random.default_rng(110)
    worst = 0.0
    for k in range(20):
        n = int(rng.integers(8, 40))
        g = disc.interval_grid(n)
        kind = k % 3
        if kind == 0:
            prev = rng.standard_normal(g.n_nodes)
        elif kind == 1:
            prev = np.where(g.nodes[:, 0] > rng.uniform(0.2, 0.8), 1.0, 0.0)
        else:
            prev = np.cumsum(rng.standard_normal(g.n_nodes)) * 0.2
        rho = float(10 ** rng.uniform(-1, 0.5))
        h = float(10 ** rng.uniform(-2.5, -0.5))
        sol = ss.tv_step(g, rho, h, prev,
                         ss.StepConfig(certificate_tol=1e-4))
        m = g.node_weights + g.boundary_mass_full
        ref = orc.tv_prox_1d(prev, rho * h, m)
        worst = max(worst, float(np.max(np.abs(sol.u - ref))))
    _report(10, "TV steps match the exact weighted prox oracle on 20 random "
                "signals", worst <= 1e-6, f"worst err {worst:.2e}")
