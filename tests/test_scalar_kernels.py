"""Exact scalar kernels: closed-form and safeguarded-Newton resolvents,
exact conjugates and the root solver's cap."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wentzellflow import discretization as disc
from wentzellflow import flux_models as fm
from wentzellflow import oracles as orc
from wentzellflow import step_solver as ss

ORIGIN = [0.0]

# deterministic, database-free and small, so the suite's wall time stays put
SMALL = settings(max_examples=25, deadline=None, derandomize=True,
                 database=None)

# closed forms (p = 2, 4) and the safeguarded Newton (other p, lower-order
# terms, log-growth), fractured laws with and without a jump
KERNEL_LAWS = {
    "power-p2": lambda: fm.anisotropic_p_laplacian(2.0, alpha=0.7),
    "power-p3": lambda: fm.anisotropic_p_laplacian(3.0, alpha=1.3),
    "power-p4": lambda: fm.anisotropic_p_laplacian(4.0),
    "power-p1.5": lambda: fm.anisotropic_p_laplacian(1.5),
    "power-p2.5": lambda: fm.anisotropic_p_laplacian(2.5, alpha=0.5),
    "power-lower-order": lambda: fm.anisotropic_p_laplacian(
        2.0, alpha=1.0, kappa=0.5, delta=0.2),
    "power-p3-linear": lambda: fm.anisotropic_p_laplacian(3.0, delta=0.4),
    "power-p1.5-log": lambda: fm.anisotropic_p_laplacian(1.5, kappa=0.5),
    "fractured-p2": lambda: fm.fractured_medium(2.0, alpha=0.5, thresholds=0.5),
    "fractured-p3": lambda: fm.fractured_medium(3.0, alpha=1.0, thresholds=0.3),
    "fractured-p4": lambda: fm.fractured_medium(4.0, alpha=1.0, thresholds=0.5),
    "fractured-p4-th0": lambda: fm.fractured_medium(4.0, alpha=0.5, thresholds=0.0),
    "fractured-p2.5": lambda: fm.fractured_medium(2.5, alpha=1.0, thresholds=0.4),
    "loggrowth": lambda: fm.log_growth(1.0),
}


def scalar_potential(model):
    """j(s) of a 1D model as a vectorized scalar function for the oracles."""
    def j(s):
        s = np.asarray(s, dtype=float)
        return model.potential(0.0, np.zeros((s.size, 1)),
                               s.reshape(-1, 1)).reshape(s.shape)
    return j


@pytest.mark.parametrize("law", sorted(KERNEL_LAWS))
@SMALL
@given(lam=st.floats(1e-6, 10.0), r=st.floats(-4.0, 4.0),
       rb=st.floats(-4.0, 4.0))
def test_resolvent_matches_oracle_and_is_firmly_nonexpansive(law, lam, r, rb):
    model = KERNEL_LAWS[law]()
    z = fm.resolvent(model, 0.0, ORIGIN, lam, [r])[0]
    zb = fm.resolvent(model, 0.0, ORIGIN, lam, [rb])[0]
    # the golden-section oracle resolves the minimizer to about 1e-8
    ref = orc.prox_1d(scalar_potential(model), lam, r)
    assert z == pytest.approx(ref, abs=1e-6)
    assert (z - zb) * (r - rb) >= (z - zb) ** 2 - 1e-12 * (1.0 + r * r + rb * rb)


@pytest.mark.parametrize("law", sorted(KERNEL_LAWS))
@SMALL
@given(w=st.floats(-4.0, 4.0))
def test_exact_conjugate_matches_grid_and_never_below(law, w):
    model = KERNEL_LAWS[law]()
    got = fm.conjugate(model, 0.0, ORIGIN, [w])
    ref = orc.conjugate_grid(scalar_potential(model), w)
    # the grid sup is itself a lower bound of j*
    assert got >= ref - 1e-12
    assert got == pytest.approx(ref, rel=1e-9, abs=1e-10)


def test_fractured_conjugate_is_piecewise_power():
    model = fm.fractured_medium(4.0, alpha=1.0, thresholds=0.5)
    lo, hi = 0.5 ** 3, 2.0 * 0.5 ** 3
    w = np.array([-2.0, 0.5 * lo, lo, 0.5 * (lo + hi), hi, 3.0])
    got = model.conjugate(0.0, np.zeros((w.size, 1)), w[:, None])
    q = 4.0 / 3.0
    expect = np.where(w < lo, np.abs(w) ** q / q,
                      np.where(w > hi, 2.0 ** (1 - q) * np.abs(w) ** q / q
                               + 0.5 ** 4 / 4, w * 0.5 - 0.5 ** 4 / 4))
    assert np.allclose(got, expect, rtol=1e-14, atol=1e-15)


def test_p4_resolvent_keeps_relative_accuracy_for_tiny_lam():
    # z + lam z^3 = s with lam far below rounding of s: z = s - lam s^3
    model = fm.anisotropic_p_laplacian(4.0)
    s = np.array([1e-3, 0.5, -2.0])
    for lam in (1e-11, 1e-16):
        z = model.resolvent(0.0, np.zeros((3, 1)), lam, s[:, None])[:, 0]
        assert np.allclose(z, s - lam * s ** 3, rtol=1e-15, atol=0.0)


def test_root_solver_raises_at_its_cap():
    s = np.array([3.0, 1e3])

    def f(z):
        return z + 1e8 * z ** 5 - s

    def fprime(z):
        return 1.0 + 5e8 * z ** 4

    with pytest.raises(fm.RootNotConverged) as err:
        fm._solve_monotone(f, fprime, np.zeros(2), s, iters=2)
    assert err.value.residual > 0.0
    z = fm._solve_monotone(f, fprime, np.zeros(2), s)
    assert np.all(np.abs(f(z)) <= 1e-12 * s)


@pytest.mark.parametrize("lam", [1e-3, 0.3, 7.0])
def test_lower_order_roots_just_past_the_kink(lam):
    # p < 2 with a log term: f is concave with infinite slope at 0, and just
    # past the kink edge the root is about (e / (lam alpha))^2, far below
    # any bracket that starts at 0
    model = fm.anisotropic_p_laplacian(1.5, kappa=0.5)
    hi0 = 0.5
    s = np.nextafter(lam * hi0, np.inf)
    z = model.resolvent(0.0, np.zeros((1, 1)), lam, np.array([[s]]))[0, 0]
    root = ((s - lam * hi0) / lam) ** 2
    assert z == pytest.approx(root, rel=1e-12)
    w = np.nextafter(hi0, np.inf)
    got = model.conjugate(0.0, np.zeros((1, 1)), np.array([[w]]))[0]
    # j*(w) = w a - j(a) at a = (w - hi0)^2 to leading order
    a = (w - hi0) ** 2
    expect = w * a - (a ** 1.5 / 1.5 + 0.5 * np.log1p(a))
    assert got == pytest.approx(expect, rel=1e-9, abs=1e-300)
    assert got >= 0.0


def test_root_solver_takes_a_tiny_step_past_a_rounded_bracket_end():
    # a computed lower end one ulp above the root: bisecting toward the far
    # end would need ~100 halvings, the Newton step lands on the root
    lo = np.array([np.nextafter(1.0, 2.0)])
    z = fm._solve_monotone(lambda z: z - 1.0, lambda z: np.ones_like(z),
                           lo, np.array([1e30]), z0=lo)
    assert z[0] == 1.0


# ---------------------------------------------------------------------------
# one-pass envelope kernels

# every catalog law, with the place k of a kink or jump of its flux along
# an axis (the origin where there is none) and the flux edge e there: the
# envelope bends within lam e of k
NEAR_KINK = {
    "quadratic": (fm.quadratic, 0.0, 1.0),
    "power-p4": (lambda d: fm.anisotropic_p_laplacian(4.0, dimension=d), 0.0, 1.0),
    "power-p1.5-log": (lambda d: fm.anisotropic_p_laplacian(
        1.5, kappa=0.5, dimension=d), 0.0, 0.5),
    "power-lower-order": (lambda d: fm.anisotropic_p_laplacian(
        2.0, kappa=0.5, delta=0.2, dimension=d), 0.0, 0.7),
    "fractured-p4": (lambda d: fm.fractured_medium(
        4.0, thresholds=0.5, dimension=d), 0.5, 2.0 * 0.5 ** 3),
    "fractured-p2.5": (lambda d: fm.fractured_medium(
        2.5, thresholds=0.4, dimension=d), 0.4, 2.0 * 0.4 ** 1.5),
    "loggrowth": (lambda d: fm.log_growth(1.0, dimension=d), 0.0, 1.0),
    "tv": (lambda d: fm.total_variation(1.0, dimension=d), 0.0, 1.0),
    "custom": (lambda d: fm.custom_model(
        lambda s: np.abs(s) ** 3 / 3.0 + 0.2 * np.abs(s), dimension=d), 0.0, 0.2),
}


def near_kink(law, lam, theta):
    """Arguments k + lam e theta_i per axis, the second axis taking the
    thetas in reverse order."""
    _, kink, edge = NEAR_KINK[law]
    theta = np.asarray(theta)
    return kink + lam * edge * np.column_stack([theta, theta[::-1]])


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("law", sorted(NEAR_KINK))
@SMALL
@given(exp=st.floats(-11.0, 0.0),
       theta=st.lists(st.floats(-2.0, 3.0), min_size=9, max_size=9),
       seed=st.integers(0, 2 ** 16))
def test_value_only_trial_is_the_full_evaluations_value(law, dim, exp, theta, seed):
    model = NEAR_KINK[law][0](dim)
    lam = 10.0 ** exp
    rs = near_kink(law, lam, theta)[:, :dim]
    xs = np.zeros((9, dim))
    assert np.array_equal(model.moreau(0.0, xs, lam, rs),
                          model.envelope_pack(0.0, xs, lam, rs)[0])
    # a stage problem whose 9 cells carry gradients near the kink: a trial
    # value at an unseen point against the value after the full evaluation
    rng = np.random.default_rng(seed)
    if dim == 1:
        g = disc.interval_grid(9)
        u = np.concatenate([[0.0], np.cumsum(rs[:, 0] / 9.0)])
    else:
        g = disc.rectangle_grid(3, 3)
        x, y = g.nodes.T
        u = (rs[0, 0] * x + rs[0, 1] * y
             + lam * NEAR_KINK[law][2] * rng.uniform(-0.2, 0.2, g.n_nodes))
    w1 = rng.standard_normal(g.n_nodes)
    w2 = rng.standard_normal(g.boundary_nodes.size)
    for stage_lam in ([lam, None] if model.is_smooth else [lam]):
        trial = ss._StageProblem(g, model, 0.0, 0.3, w1, w2, stage_lam)
        full = ss._StageProblem(g, model, 0.0, 0.3, w1, w2, stage_lam)
        full.grad(u)
        assert (np.float64(trial.value(u)).tobytes()
                == np.float64(full.value(u)).tobytes())


# custom: its curvature is a second difference over a fixed step, which
# blurs the kink at 0 (its bisection prox on a difference-quotient j' does
# solve the resolvent inclusion)
EXACT_KERNELS = sorted(set(NEAR_KINK) - {"custom"})


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("law", sorted(NEAR_KINK))
@SMALL
@given(exp=st.floats(-11.0, 0.0), theta=st.floats(-2.0, 3.0),
       far=st.floats(-3.0, 3.0))
def test_envelope_kernel_solves_the_resolvent_inclusion(law, dim, exp, theta, far):
    # z + lam eta = s with eta in the subdifferential of j at z, z the
    # resolvent of s, checked by the subgradient inequality around z
    model = NEAR_KINK[law][0](dim)
    lam = 10.0 ** exp
    rs = np.vstack([near_kink(law, lam, [theta, -theta])[:, :dim],
                    np.full((1, dim), far)])
    xs = np.zeros((rs.shape[0], dim))
    z = model.resolvent(0.0, xs, lam, rs)
    _, eta, _ = model.envelope_pack(0.0, xs, lam, rs)
    assert np.all(np.abs(z + lam * eta - rs) <= 1e-10 * (1.0 + np.abs(rs)))
    jz = model.potential(0.0, xs, z)
    rng = np.random.default_rng(0)
    for step in (1e-3, 0.1, 1.0):
        for _ in range(4):
            w = z + step * (1.0 + np.abs(z)) * rng.uniform(-1.0, 1.0, z.shape)
            gap = (model.potential(0.0, xs, w) - jz
                   - (eta * (w - z)).sum(axis=1))
            assert np.all(gap >= -1e-9 * (1.0 + np.abs(jz)))


@pytest.mark.parametrize("law", sorted(NEAR_KINK))
@SMALL
@given(exp=st.floats(-11.0, 0.0), theta=st.floats(-2.0, 3.0),
       far=st.floats(-3.0, 3.0))
def test_envelope_value_matches_brute_force_minimization(law, exp, theta, far):
    model = NEAR_KINK[law][0](1)
    lam = 10.0 ** exp
    j = scalar_potential(model)
    for s in (near_kink(law, lam, [theta])[0, 0], far):
        got = fm.moreau(model, 0.0, ORIGIN, lam, [s])
        z = orc.prox_1d(j, lam, s)
        ref = (s - z) ** 2 / (2.0 * lam) + float(j(z))
        assert got <= ref + 1e-12 * (1.0 + abs(ref))
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("law", EXACT_KERNELS)
def test_envelope_curvature_is_the_slope_of_the_flux(law):
    # 1/lam inside a kink or jump window, c / (1 + lam c) off it; checked by
    # one-sided differences of the flux, where both sides agree (a point on
    # a window's edge has two slopes)
    model = NEAR_KINK[law][0](1)
    _, kink, edge = NEAR_KINK[law]
    checked = 0
    for lam in (1.0, 1e-3, 1e-6):
        theta = np.array([-2.0, -1.0, -0.5, 0.25, 0.5, 0.75, 1.5, 2.0, 3.0])
        s = np.concatenate([kink + lam * edge * theta, [-3.0, -1.0, 1.7]])
        d = np.concatenate([np.full(theta.size, 1e-4 * lam * edge), [1e-6] * 3])
        xs = np.zeros((s.size, 1))

        def flux(v):
            return model.envelope_pack(0.0, xs, lam, v[:, None])[1][:, 0]

        curv = model.envelope_pack(0.0, xs, lam, s[:, None])[2][1]
        curv = curv[:, 0] if curv.ndim == 2 else curv
        left = (flux(s) - flux(s - d)) / d
        right = (flux(s + d) - flux(s)) / d
        one_slope = np.abs(left - right) <= 1e-2 * (np.abs(left) + np.abs(right)) + 1e-4
        assert np.allclose(curv[one_slope], 0.5 * (left + right)[one_slope],
                           rtol=1e-3, atol=1e-4)
        checked += int(one_slope.sum())
    assert checked >= 30
