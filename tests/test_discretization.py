import math

import numpy as np
import pytest

from wentzellflow import discretization as disc


def test_interval_grid_basic():
    g = disc.interval_grid(2, 1.0)
    assert g.n_nodes == 3
    assert np.allclose(g.cell_volumes, 0.5)
    assert np.allclose(g.boundary_weights, [1.0, 1.0])
    assert g.domain_measure == pytest.approx(1.0)
    assert g.boundary_measure == pytest.approx(2.0)


def test_rectangle_grid_basic():
    g = disc.rectangle_grid(2, 2, 1.0, 1.0)
    assert g.n_nodes == 9
    assert g.domain_measure == pytest.approx(1.0)
    assert g.boundary_measure == pytest.approx(4.0)
    assert np.all(g.node_weights > 0)
    assert np.all(g.boundary_weights > 0)
    assert set(g.boundary_nodes) <= set(range(g.n_nodes))


@pytest.mark.parametrize("spec", [
    {"kind": "interval", "n": 5, "length": 2.0},
    {"kind": "rectangle", "nx": 3, "ny": 4, "lx": 2.0, "ly": 0.5},
])
def test_build_grid_measures(spec):
    g = disc.build_grid(spec)
    if spec["kind"] == "interval":
        assert g.domain_measure == pytest.approx(spec["length"])
        assert g.boundary_measure == pytest.approx(2.0)
    else:
        assert g.domain_measure == pytest.approx(spec["lx"] * spec["ly"])
        assert g.boundary_measure == pytest.approx(2 * (spec["lx"] + spec["ly"]))
    assert g.cell_volumes.sum() == pytest.approx(g.domain_measure)


def test_build_grid_rejects_degenerate():
    with pytest.raises(ValueError):
        disc.interval_grid(1)
    with pytest.raises(ValueError):
        disc.interval_grid(4, 0.0)
    with pytest.raises(ValueError):
        disc.rectangle_grid(2, 2, 1.0, -1.0)
    with pytest.raises(ValueError):
        disc.build_grid({"kind": "triangle"})


def test_gradient_constant_is_zero():
    for g in (disc.interval_grid(7), disc.rectangle_grid(3, 5)):
        q = disc.gradient(g, np.full(g.n_nodes, 3.25))
        assert np.max(np.abs(q)) == 0.0


def test_gradient_exact_on_linear_1d():
    g = disc.interval_grid(4)
    q = disc.gradient(g, g.nodes[:, 0])
    assert np.allclose(q[:, 0], 1.0)


def test_gradient_exact_on_affine_2d():
    g = disc.rectangle_grid(2, 2)
    u = 2.0 * g.nodes[:, 0] - g.nodes[:, 1]
    q = disc.gradient(g, u)
    assert np.allclose(q[:, 0], 2.0)
    assert np.allclose(q[:, 1], -1.0)


def test_trace_constant_and_linear():
    g = disc.interval_grid(8)
    assert np.allclose(disc.trace(g, np.full(9, 4.0)), 4.0)
    assert np.allclose(disc.trace(g, g.nodes[:, 0]), [0.0, 1.0])
    g2 = disc.rectangle_grid(3, 3)
    u = 1.0 + 2.0 * g2.nodes[:, 0] - 0.5 * g2.nodes[:, 1]
    bc = g2.boundary_coords
    assert np.allclose(disc.trace(g2, u), 1.0 + 2.0 * bc[:, 0] - 0.5 * bc[:, 1])


def test_integrals():
    g = disc.interval_grid(50)
    assert disc.integrate_domain(g, np.ones(g.n_nodes)) == pytest.approx(1.0)
    assert disc.integrate_boundary(g, np.ones(2)) == pytest.approx(2.0)
    # trapezoid is exact on linears, O(h^2) on x^2
    assert disc.integrate_domain(g, g.nodes[:, 0]) == pytest.approx(0.5)
    err = abs(disc.integrate_domain(g, g.nodes[:, 0] ** 2) - 1.0 / 3.0)
    assert err < 1.0 / 50 ** 2
    g2 = disc.rectangle_grid(2, 2)
    assert disc.integrate_domain(g2, np.ones(g2.n_nodes)) == pytest.approx(1.0)


def test_integrate_cellwise():
    g = disc.interval_grid(4)
    assert disc.integrate_domain(g, np.ones(g.n_cells)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        disc.integrate_domain(g, np.ones(7))


def test_adjoint_pairing_is_exact():
    # <q, grad u>_W must equal the transpose pairing to machine precision
    rng = np.random.default_rng(0)
    for g in (disc.interval_grid(9), disc.rectangle_grid(4, 3)):
        u = rng.standard_normal(g.n_nodes)
        q = rng.standard_normal((g.n_cells, g.dimension))
        lhs = float((g.cell_volumes[:, None] * q * disc.gradient(g, u)).sum())
        rhs = float(disc.grad_adjoint(g, q) @ u)
        assert lhs == pytest.approx(rhs, abs=1e-14, rel=1e-14)


def test_gradient_refinement_consistency():
    errs = []
    for n in (8, 16, 32, 64):
        g = disc.interval_grid(n)
        u = np.sin(2 * np.pi * g.nodes[:, 0])
        exact = 2 * np.pi * np.cos(2 * np.pi * g.cell_centers[:, 0])
        errs.append(np.max(np.abs(disc.gradient(g, u)[:, 0] - exact)))
    for k in range(len(errs) - 1):
        assert errs[k + 1] < 0.75 * errs[k]
    # O(h) overall
    assert errs[-1] < errs[0] * (8 / 64) * 2


def test_time_average_constant():
    g = disc.interval_grid(4)
    out = disc.time_average(lambda t, pts: np.full(pts.shape[0], 2.5), 3, 0.1, g)
    assert np.allclose(out, 2.5)


def test_time_average_linear():
    g = disc.interval_grid(4)
    out = disc.time_average(lambda t, pts: np.full(pts.shape[0], t), 1, 0.1, g)
    assert np.allclose(out, 0.05, atol=1e-15)


def test_time_average_full_period_sine():
    g = disc.interval_grid(4)
    out = disc.time_average(lambda t, pts: np.full(pts.shape[0], np.sin(t)),
                            1, 2 * np.pi, g)
    assert np.max(np.abs(out)) < 1e-3


@pytest.mark.parametrize("where", ["domain", "boundary"])
@pytest.mark.parametrize("fn", [
    lambda t, pts: np.sin(3.0 * t + pts[:, 0]) * np.exp(pts[:, 1] - t),
    lambda t, pts: math.cos(7.0 * t) - 0.3,
    lambda t, pts: np.float64(t) ** 3,
], ids=["array", "python-scalar", "numpy-scalar"])
def test_time_moments_match_time_average_of_f_and_f_squared(fn, where):
    g = disc.rectangle_grid(5, 3)

    def fsq(t, pts):
        return np.asarray(fn(t, pts), dtype=float) ** 2

    for i, h in ((1, 0.1), (4, 0.37), (250, 1e-3)):
        mean, mean_sq = disc.time_moments(fn, i, h, g, where)
        assert np.array_equal(mean, disc.time_average(fn, i, h, g, where))
        assert np.array_equal(mean_sq, disc.time_average(fsq, i, h, g, where))


def test_time_average_validates():
    g = disc.interval_grid(4)
    with pytest.raises(ValueError):
        disc.time_average(lambda t, pts: 0.0, 0, 0.1, g)
    with pytest.raises(ValueError):
        disc.time_average(lambda t, pts: 0.0, 1, 0.0, g)


def test_field_validation():
    g = disc.interval_grid(4)
    with pytest.raises(ValueError):
        g.check_field(np.ones(3))
    bad = np.ones(5)
    bad[2] = np.nan
    with pytest.raises(ValueError):
        g.check_field(bad)


def _dense_stack_and_mass(g):
    """Dense K (rows interleaved by cell) from ``grad_ops`` and the lumped
    mass, assembled independently of the cached grid operators."""
    n_ax = len(g.grad_ops)
    k = np.zeros((g.n_cells * n_ax, g.n_nodes))
    for a, op in enumerate(g.grad_ops):
        k[a::n_ax] = op.toarray()
    m = g.node_weights.copy()
    m[g.boundary_nodes] += g.boundary_weights
    return k, m


@pytest.mark.parametrize("g", [disc.interval_grid(9), disc.rectangle_grid(5, 4)],
                         ids=["1d", "2d"])
def test_mass_is_cached_read_only_lumped_mass(g):
    _, m = _dense_stack_and_mass(g)
    assert np.array_equal(g.mass, g.node_weights + g.boundary_mass_full)
    assert np.array_equal(g.mass, m)
    assert g.mass is g.mass
    with pytest.raises(ValueError):
        g.mass[0] = 1.0


@pytest.mark.parametrize("g", [disc.interval_grid(9), disc.rectangle_grid(5, 4)],
                         ids=["1d", "2d"])
def test_dual_plan_operator_and_step(g):
    k, m = _dense_stack_and_mass(g)
    gram = k @ np.diag(1.0 / m) @ k.T
    plan = g.dual_plan
    assert plan.op.format == "csr"
    assert np.allclose(plan.op.toarray(), np.eye(k.shape[0]) - plan.tau * gram,
                       rtol=1e-13, atol=1e-14)
    # the power iterate's norm is a lower bound on the top eigenvalue, and
    # the 5% margin keeps the step below its inverse
    top = np.linalg.eigvalsh(gram)[-1]
    assert 1.0 / 1.05 - 1e-12 <= plan.tau * top < 1.0
