"""User data is checked where it enters the package; the solver's inner
loop runs on its own arrays unchecked.  The batch model methods agree with
the checked point functions bit for bit, every public entry rejects
non-finite input, a step whose iterate overflows raises instead of
returning, and the inner loop neither re-checks fields nor builds sparse
matrices."""

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from wentzellflow import discretization as disc
from wentzellflow import flow_driver as fd
from wentzellflow import flux_models as fm
from wentzellflow import step_solver as ss

SMALL = settings(max_examples=25, deadline=None, derandomize=True,
                 database=None)

# every catalog id, plus a law with a callable coefficient, which reads xs
LAWS = {
    "quadratic": lambda d: fm.quadratic(d),
    "power-p4": lambda d: fm.anisotropic_p_laplacian(4.0, dimension=d),
    "power-p1.5": lambda d: fm.anisotropic_p_laplacian(1.5, dimension=d),
    "power-callable-kappa": lambda d: fm.anisotropic_p_laplacian(
        1.5, kappa=lambda t, xs: 0.2 + 0.1 * xs[:, 0], dimension=d),
    "fractured": lambda d: fm.fractured_medium(4.0, thresholds=0.5, dimension=d),
    "loggrowth": lambda d: fm.log_growth(1.0, dimension=d),
    "tv": lambda d: fm.total_variation(1.0, dimension=d),
    "custom": lambda d: fm.custom_model(
        lambda s: np.abs(s) ** 3 / 3.0 + 0.2 * np.abs(s), dimension=d),
}


def _same(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("law", sorted(LAWS))
@SMALL
@given(rows=st.lists(st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2),
                     min_size=1, max_size=6),
       exp=st.floats(-9.0, 0.0), seed=st.integers(0, 2 ** 16))
def test_batch_methods_equal_the_point_functions(law, dim, rows, exp, seed):
    model = LAWS[law](dim)
    rs = np.array(rows)[:, :dim]
    xs = np.random.default_rng(seed).uniform(0.0, 1.0, rs.shape)
    lam, t = 10.0 ** exp, 0.0
    # a flux of the law itself, so that the conjugate is finite
    ws = model.yosida(t, xs, lam, rs)
    batch = {
        "potential": model.potential(t, xs, rs),
        "select": model.select(t, xs, rs),
        "resolvent": model.resolvent(t, xs, lam, rs),
        "yosida": ws,
        "moreau": model.moreau(t, xs, lam, rs),
        "conjugate": model.conjugate(t, xs, ws),
        "fenchel_gap": model.fenchel_gap(t, xs, rs, ws),
    }
    for i, (x, r, w) in enumerate(zip(xs, rs, ws)):
        point = {
            "potential": fm.potential(model, t, x, r),
            "select": fm.flux_select(model, t, x, r),
            "resolvent": fm.resolvent(model, t, x, lam, r),
            "yosida": fm.yosida_flux(model, t, x, lam, r),
            "moreau": fm.moreau(model, t, x, lam, r),
            "conjugate": fm.conjugate(model, t, x, w),
            "fenchel_gap": fm.fenchel_gap(model, t, x, r, w),
        }
        for name, value in point.items():
            assert _same(value, batch[name][i]), (name, i)


POINT_CALLS = {
    "potential": lambda m, x, r: fm.potential(m, 0.0, x, r),
    "flux_select": lambda m, x, r: fm.flux_select(m, 0.0, x, r),
    "conjugate": lambda m, x, r: fm.conjugate(m, 0.0, x, r),
    "resolvent": lambda m, x, r: fm.resolvent(m, 0.0, x, 0.5, r),
    "yosida_flux": lambda m, x, r: fm.yosida_flux(m, 0.0, x, 0.5, r),
    "moreau": lambda m, x, r: fm.moreau(m, 0.0, x, 0.5, r),
    "fenchel_gap_r": lambda m, x, r: fm.fenchel_gap(m, 0.0, x, r, [0.1, 0.1]),
    "fenchel_gap_w": lambda m, x, r: fm.fenchel_gap(m, 0.0, x, [0.1, 0.1], r),
}


@pytest.mark.parametrize("call", sorted(POINT_CALLS))
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_point_functions_reject_nonfinite_arguments(call, bad):
    model = fm.anisotropic_p_laplacian(4.0, dimension=2)
    fn = POINT_CALLS[call]
    assert np.isfinite(fn(model, [0.5, 0.5], [0.3, -0.2])).all()
    with pytest.raises(ValueError):
        fn(model, [0.5, 0.5], [0.3, bad])
    with pytest.raises(ValueError):
        fn(model, [bad, 0.5], [0.3, -0.2])
    # a point of the wrong dimension
    with pytest.raises(ValueError):
        fn(model, [0.5, 0.5], [0.3])


@pytest.mark.parametrize("fn", [fm.resolvent, fm.yosida_flux, fm.moreau])
@pytest.mark.parametrize("lam", [0.0, -1.0, np.nan])
def test_lam_maps_reject_a_nonpositive_lam(fn, lam):
    with pytest.raises(ValueError):
        fn(fm.quadratic(1), 0.0, [0.0], lam, [1.0])


OBJECTIVES = {
    "step_objective": lambda g, m, lam, h, w1, w2, u:
        ss.step_objective(g, m, 0.0, h, w1, w2, u),
    "step_objective_grad": lambda g, m, lam, h, w1, w2, u:
        ss.step_objective_grad(g, m, 0.0, h, w1, w2, u),
    "regularized_objective": lambda g, m, lam, h, w1, w2, u:
        ss.regularized_objective(g, m, 0.0, h, lam, w1, w2, u),
    "regularized_objective_grad": lambda g, m, lam, h, w1, w2, u:
        ss.regularized_objective_grad(g, m, 0.0, h, lam, w1, w2, u),
}


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_objective_entries_check_their_data(name):
    call = OBJECTIVES[name]
    g = disc.interval_grid(4)
    model = fm.anisotropic_p_laplacian(4.0)
    w1, w2, u = np.ones(5), np.ones(2), np.linspace(0.0, 1.0, 5)
    nan5 = np.array([1.0, np.nan, 1.0, 1.0, 1.0])
    assert np.isfinite(call(g, model, 0.1, 0.1, w1, w2, u)).all()
    bad = [
        dict(h=0.0), dict(h=-0.1),
        dict(w1=nan5), dict(w1=np.ones(4)), dict(w2=np.array([1.0, np.inf])),
        dict(u=nan5), dict(u=np.ones(6)),
    ]
    if name.startswith("regularized"):
        bad += [dict(lam=0.0), dict(lam=-1.0), dict(lam=np.nan)]
    for change in bad:
        args = dict(lam=0.1, h=0.1, w1=w1, w2=w2, u=u)
        args.update(change)
        with pytest.raises(ValueError):
            call(g, model, **args)


def test_solve_step_rejects_a_nonfinite_dual():
    g = disc.interval_grid(8)
    w1 = np.cos(np.pi * g.nodes[:, 0])
    dual = np.full((8, 1), 0.01)
    dual[3] = np.nan
    with pytest.raises(ValueError):
        ss.solve_step(g, fm.fractured_medium(4.0), 0.01, 0.01, w1,
                      w1[g.boundary_nodes], dual=dual)


def _overflow_data(p=4.0):
    # |grad u| ~ 1e80 on the start makes j = |r|^4 / 4 overflow to inf; at
    # p = 1.5 rounding makes the multiplier loop's start gap negative
    g = disc.interval_grid(32)
    return g, fm.anisotropic_p_laplacian(p), 1e80 * np.cos(np.pi * g.nodes[:, 0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_step_whose_iterate_overflows_raises():
    g, model, w1 = _overflow_data()
    with pytest.raises(ss.StepNonConverged) as info:
        ss.solve_step(g, model, 0.01, 0.01, w1, w1[g.boundary_nodes])
    assert not info.value.residual <= 1.0
    assert info.value.log[-1]["exit"] == "nonfinite"
    g, model, w1 = _overflow_data(1.5)
    with pytest.raises(ss.StepNonConverged, match="negative Fenchel gap"):
        ss.solve_step(g, model, 0.01, 0.01, w1, w1[g.boundary_nodes])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_flow_reports_the_step_that_overflowed():
    for p in (4.0, 1.5):
        g, model, y0 = _overflow_data(p)
        prob = fd.ProblemData(g, y0, T=0.02, model=model)
        with pytest.raises(ss.StepNonConverged) as info:
            fd.run_flow(prob, 2)
        assert info.value.step_index == 1
        assert "step 1" in str(info.value)


def test_a_smooth_step_checks_only_its_entry_arguments(monkeypatch):
    g = disc.interval_grid(32)
    w1 = 0.5 * np.cos(2 * np.pi * g.nodes[:, 0])
    checked = []
    real = disc.Grid.check_field

    def counting(self, u, name="field"):
        checked.append(name)
        return real(self, u, name)

    monkeypatch.setattr(disc.Grid, "check_field", counting)
    sol = ss.solve_step(g, fm.anisotropic_p_laplacian(4.0), 0.01, 0.01, w1,
                        w1[g.boundary_nodes], ss.StepConfig(tol=1e-12),
                        u0=w1, guess=w1)
    assert sum(s["iters"] for s in sol.iterations) >= 3
    assert sorted(checked) == ["field", "guess", "w1"]
    # a cold fractured step logs the objective of every continuation stage,
    # a TV step that of its FISTA run and of the multiplier loop; neither
    # checks more than its entry
    checked.clear()
    sol = ss.solve_step(g, fm.fractured_medium(4.0, 1.0, 0.5), 0.005, 0.005,
                        w1, w1[g.boundary_nodes],
                        ss.StepConfig(tol=1e-10, lam_min=1e-11, lam_decay=0.1),
                        u0=w1)
    assert len(sol.iterations) >= 3
    assert sorted(checked) == ["field", "w1"]
    checked.clear()
    g2 = disc.rectangle_grid(16, 16)
    x, y = g2.nodes.T
    sol = ss.tv_step(g2, 1.0, 0.01, ((x > 0.5) & (y > 0.3)).astype(float))
    assert "pd_gap" in sol.iterations[0] and "rounds" in sol.iterations[-1]
    assert checked == ["prev"]


def _no_sparse_matrices(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a sparse matrix was built")

    for name in ("bsr_matrix", "csr_matrix", "csc_matrix", "coo_matrix"):
        monkeypatch.setattr(sps, name, refuse)


@pytest.mark.parametrize("grid", [disc.interval_grid(9), disc.rectangle_grid(5, 4)],
                         ids=["1d", "2d"])
@pytest.mark.parametrize("kind", ["diag", "radial"])
def test_hess_product_builds_no_sparse_matrix(grid, kind, monkeypatch):
    rng = np.random.default_rng(5)
    n_ax = grid.dimension
    if kind == "diag":
        curv = ("diag", rng.uniform(0.0, 3.0, (grid.n_cells, n_ax)))
    else:
        rhat = rng.standard_normal((grid.n_cells, n_ax))
        rhat /= np.linalg.norm(rhat, axis=1)[:, None]
        curv = ("radial", rng.uniform(0.0, 3.0, grid.n_cells),
                rng.uniform(0.0, 2.0, grid.n_cells), rhat)
    blocks = ss._curv_blocks(grid, curv, 0.3)
    grid.grad_stack_t  # the grid's cached operators are built once, up front
    v = rng.standard_normal(grid.n_nodes)
    # the reference: the blocks as one block-diagonal matrix
    d = sps.block_diag(list(blocks), format="csr")
    ref = grid.mass * v + grid.grad_stack_t @ (d @ (grid.grad_stack @ v))
    _no_sparse_matrices(monkeypatch)
    got = ss._hess_product(grid, blocks)(v)
    assert np.allclose(got, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())


def test_lagged_steps_build_no_sparse_matrix(monkeypatch):
    g = disc.rectangle_grid(32, 32)
    assert g.gram_plan.kd >= 4 * ss._CG_CAP
    g.grad_stack_t
    x, y = g.nodes.T
    u = np.cos(np.pi * x) * np.cos(np.pi * y)
    model = fm.anisotropic_p_laplacian(4, dimension=2)
    held = ss._LaggedFactor()
    _no_sparse_matrices(monkeypatch)
    for i in (1, 2):
        sol = ss.solve_step(g, model, i * 0.0025, 0.0025, u, u[g.boundary_nodes],
                            ss.StepConfig(tol=1e-10), u0=u, lagged=held)
        u = sol.u
    assert sol.iterations[-1]["cg_iters"] > 0


def test_steady_state_residual_rejects_a_nonfinite_field():
    g = disc.interval_grid(8)
    u = np.cos(np.pi * g.nodes[:, 0])
    f, gv = np.zeros(g.n_nodes), np.zeros(2)
    assert np.isfinite(fd.steady_state_residual(g, fm.quadratic(1), u, f, gv))
    bad = u.copy()
    bad[4] = np.nan
    with pytest.raises(ValueError):
        fd.steady_state_residual(g, fm.quadratic(1), bad, f, gv)
    for f_bad, g_bad in ((np.where(g.nodes[:, 0] > 0.5, np.nan, 0.0), gv),
                         (f, np.array([0.0, np.nan]))):
        with pytest.raises(ValueError):
            fd.steady_state_residual(g, fm.quadratic(1), u, f_bad, g_bad)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_steady_state_whose_iterate_overflows_raises():
    # balanced data (int f = 0, g = 0) so large that Newton's iterates
    # overflow: the equilibrium search raises instead of returning them
    g = disc.interval_grid(16)
    f = 1e80 * np.cos(np.pi * g.nodes[:, 0])
    with pytest.raises(ss.StepNonConverged):
        fd.steady_state(g, fm.anisotropic_p_laplacian(4.0), f, np.zeros(2))
