"""Exact scalar kernels: closed-form and safeguarded-Newton resolvents,
exact conjugates and the root solver's cap."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wentzellflow import flux_models as fm
from wentzellflow import oracles as orc

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
