import numpy as np
import pytest

from wentzellflow import flux_models as fm
from wentzellflow import oracles as orc

ORIGIN = [0.0]


def catalog():
    return [
        fm.quadratic(1),
        fm.anisotropic_p_laplacian(4.0),
        fm.anisotropic_p_laplacian(1.5),
        fm.fractured_medium(4.0, alpha=1.0, thresholds=0.5),
        fm.log_growth(1.0),
        fm.total_variation(1.0),
    ]


# ---------------------------------------------------------------------------
# potential


def test_potential_quadratic():
    assert fm.potential(fm.quadratic(1), 0.0, ORIGIN, [3.0]) == pytest.approx(4.5)


def test_potential_plaplacian_pinned_normalization():
    # catalog normalization j_i = alpha |r|^p / p, so dj matches the
    # axis-wise power flux alpha |r|^{p-2} r exactly
    model = fm.anisotropic_p_laplacian(4.0)
    val = fm.potential(model, 0.0, ORIGIN, [2.0])
    assert val == pytest.approx(2.0 ** 4 / 4.0)
    # cross-check against the strong growth bounds with computed constants
    g = model.growth
    assert g.c1 * 2.0 ** g.p + g.c10 <= val <= g.c2 * 2.0 ** g.p + g.c20


@pytest.mark.parametrize("model", catalog(), ids=lambda m: m.kind)
def test_potential_normalization(model):
    assert fm.potential(model, 0.0, [0.0] * model.dimension,
                        [0.0] * model.dimension) == 0.0
    rng = np.random.default_rng(0)
    for _ in range(50):
        r = rng.uniform(-4, 4, model.dimension)
        assert fm.potential(model, 0.0, [0.0] * model.dimension, r) >= 0.0


def test_potential_rejects_nonfinite():
    with pytest.raises(ValueError):
        fm.potential(fm.quadratic(1), 0.0, ORIGIN, [np.inf])


def test_loggrowth_rejects_nonpositive_coefficient():
    with pytest.raises(ValueError):
        fm.log_growth(-1.0)
    model = fm.log_growth(lambda t, xs: np.full(xs.shape[0], -2.0))
    with pytest.raises(ValueError):
        fm.potential(model, 0.0, ORIGIN, [1.0])


# ---------------------------------------------------------------------------
# selection


def test_select_quadratic():
    assert fm.flux_select(fm.quadratic(1), 0.0, ORIGIN, [3.0]) == pytest.approx([3.0])


def test_select_tv_minimal_and_sign():
    tv = fm.total_variation(1.0)
    assert fm.flux_select(tv, 0.0, ORIGIN, [0.0]) == pytest.approx([0.0])
    eta = fm.flux_select(tv, 0.0, ORIGIN, [0.5])
    assert eta == pytest.approx([1.0])
    # verify via the subgradient inequality over sampled s
    for s in np.linspace(-3, 3, 61):
        lhs = fm.potential(tv, 0.0, ORIGIN, [s])
        rhs = fm.potential(tv, 0.0, ORIGIN, [0.5]) + eta[0] * (s - 0.5)
        assert lhs >= rhs - 1e-12


def test_select_fractured_minimal_norm_at_jump():
    model = fm.fractured_medium(4.0, alpha=1.0, thresholds=0.5)
    eta = fm.flux_select(model, 0.0, ORIGIN, [0.5])
    assert eta == pytest.approx([1.0 * 0.5 ** 3])  # lower edge of the jump


@pytest.mark.parametrize("model", catalog(), ids=lambda m: m.kind)
def test_subgradient_inequality(model):
    rng = np.random.default_rng(3)
    n = model.dimension
    for _ in range(80):
        r = rng.uniform(-4, 4, n)
        rb = rng.uniform(-4, 4, n)
        eta = fm.flux_select(model, 0.0, [0.0] * n, r)
        lhs = fm.potential(model, 0.0, [0.0] * n, rb)
        rhs = fm.potential(model, 0.0, [0.0] * n, r) + float(eta @ (rb - r))
        assert lhs >= rhs - 1e-10


@pytest.mark.parametrize("model", catalog(), ids=lambda m: m.kind)
def test_selection_monotone(model):
    rng = np.random.default_rng(4)
    n = model.dimension
    for _ in range(80):
        r = rng.uniform(-4, 4, n)
        rb = rng.uniform(-4, 4, n)
        d = (fm.flux_select(model, 0.0, [0.0] * n, r)
             - fm.flux_select(model, 0.0, [0.0] * n, rb))
        assert float(d @ (r - rb)) >= -1e-12


# ---------------------------------------------------------------------------
# conjugate


def test_conjugate_quadratic_vs_grid():
    got = fm.conjugate(fm.quadratic(1), 0.0, ORIGIN, [3.0])
    ref = orc.conjugate_grid(lambda s: 0.5 * s ** 2, 3.0)
    assert got == pytest.approx(4.5)
    assert got == pytest.approx(ref, abs=1e-8)


@pytest.mark.parametrize("model", catalog(), ids=lambda m: m.kind)
def test_conjugate_zero_slope(model):
    assert fm.conjugate(model, 0.0, [0.0] * model.dimension,
                        [0.0] * model.dimension) == pytest.approx(0.0, abs=1e-12)


def test_conjugate_tv_unbounded():
    assert fm.conjugate(fm.total_variation(1.0), 0.0, ORIGIN, [2.0]) == np.inf


def test_conjugate_fractured_vs_grid():
    model = fm.fractured_medium(4.0, alpha=1.0, thresholds=0.5)

    def j(s):
        base = np.abs(s) ** 4 / 4.0
        return base + np.where(s > 0.5, np.abs(s) ** 4 / 4.0 - 0.5 ** 4 / 4.0, 0.0)

    for w in (0.05, 0.111, 0.6, 3.0, -2.0):
        got = fm.conjugate(model, 0.0, ORIGIN, [w])
        assert got == pytest.approx(orc.conjugate_grid(j, w), abs=1e-8)


def test_conjugate_loggrowth_vs_grid():
    model = fm.log_growth(1.0)

    def j(s):
        return np.abs(s) * np.log1p(np.abs(s))

    for w in (0.3, 1.0, 2.5):
        got = fm.conjugate(model, 0.0, ORIGIN, [w])
        assert got == pytest.approx(orc.conjugate_grid(j, w), abs=1e-8)


# ---------------------------------------------------------------------------
# resolvent / regularized flux / envelope


def test_resolvent_quadratic():
    assert fm.resolvent(fm.quadratic(1), 0.0, ORIGIN, 1.0, [2.0]) == pytest.approx([1.0])


@pytest.mark.parametrize("dimension", [1, 2])
def test_quadratic_law_closed_forms_in_batch(dimension):
    # the quadratic law is the unit p = 2 power law; every method is its
    # closed form, the envelope flux up to the 1e-13 kink tolerance at 0
    model = fm.quadratic(dimension)
    rng = np.random.default_rng(dimension)
    xs = rng.random((500, dimension))
    rs = rng.standard_normal((500, dimension)) * 10.0 ** rng.uniform(-3, 3, (500, 1))
    rs[:3] = 0.0
    rs[3, 0] = 1e-15
    sq = 0.5 * (rs * rs).sum(axis=1)
    exact = {"rtol": 1e-15, "atol": 0.0}
    np.testing.assert_allclose(model.potential(0.0, xs, rs), sq, **exact)
    np.testing.assert_array_equal(model.select(0.0, xs, rs), rs)
    kind, curv = model.curvature(0.0, xs, rs)
    assert kind == "diag"
    np.testing.assert_array_equal(curv, np.ones_like(rs))
    np.testing.assert_allclose(model.conjugate(0.0, xs, rs), sq, **exact)
    for lam in (1e-6, 0.3, 2.0):
        z = rs / (1.0 + lam)
        np.testing.assert_array_equal(model.resolvent(0.0, xs, lam, rs), z)
        value, flux, (kind, curv) = model.envelope_pack(0.0, xs, lam, rs)
        assert np.all(np.abs(flux - z) <= 1e-13 * (1.0 + np.abs(rs)))
        np.testing.assert_allclose(value, sq / (1.0 + lam), rtol=1e-14, atol=1e-25)
        assert kind == "diag"
        np.testing.assert_allclose(curv, np.full_like(rs, 1.0 / (1.0 + lam)),
                                   **exact)
    assert model.growth == fm.Growth("strong", p=2.0, c1=0.5, c2=0.5, c3=1.0)
    assert model.is_smooth and model.kink_scale == 0.0
    assert model.kind == "quadratic"


def test_resolvent_tv_soft_threshold():
    got = fm.resolvent(fm.total_variation(1.0), 0.0, ORIGIN, 0.5, [2.0])
    assert got == pytest.approx([1.5])
    ref = orc.prox_1d(np.abs, 0.5, 2.0)
    assert got[0] == pytest.approx(ref, abs=1e-7)


@pytest.mark.parametrize("model", catalog(), ids=lambda m: m.kind)
def test_resolvent_zero_fixed_point(model):
    n = model.dimension
    out = fm.resolvent(model, 0.0, [0.0] * n, 0.7, [0.0] * n)
    assert np.allclose(out, 0.0)


@pytest.mark.parametrize("model", catalog(), ids=lambda m: m.kind)
def test_resolvent_nonexpansive(model):
    rng = np.random.default_rng(5)
    n = model.dimension
    for _ in range(100):
        lam = 10 ** rng.uniform(-5, 1)
        r = rng.uniform(-5, 5, n)
        rb = rng.uniform(-5, 5, n)
        z = fm.resolvent(model, 0.0, [0.0] * n, lam, r)
        zb = fm.resolvent(model, 0.0, [0.0] * n, lam, rb)
        assert np.linalg.norm(z - zb) <= np.linalg.norm(r - rb) + 1e-10


def test_yosida_values():
    tv = fm.total_variation(1.0)
    assert fm.yosida_flux(fm.quadratic(1), 0.0, ORIGIN, 1.0, [2.0]) == pytest.approx([1.0])
    assert fm.yosida_flux(tv, 0.0, ORIGIN, 0.5, [0.2]) == pytest.approx([0.4])
    assert fm.yosida_flux(tv, 0.0, ORIGIN, 0.5, [2.0]) == pytest.approx([1.0])


@pytest.mark.parametrize("model", catalog(), ids=lambda m: m.kind)
def test_yosida_lipschitz(model):
    rng = np.random.default_rng(6)
    n = model.dimension
    for _ in range(60):
        lam = 10 ** rng.uniform(-3, 0)
        r = rng.uniform(-4, 4, n)
        rb = rng.uniform(-4, 4, n)
        y = fm.yosida_flux(model, 0.0, [0.0] * n, lam, r)
        yb = fm.yosida_flux(model, 0.0, [0.0] * n, lam, rb)
        assert np.linalg.norm(y - yb) <= np.linalg.norm(r - rb) / lam + 1e-10


def test_moreau_values():
    tv = fm.total_variation(1.0)
    assert fm.moreau(tv, 0.0, ORIGIN, 0.5, [2.0]) == pytest.approx(1.75)
    assert fm.moreau(tv, 0.0, ORIGIN, 0.5, [0.2]) == pytest.approx(0.04)
    assert fm.moreau(tv, 0.0, ORIGIN, 0.5, [0.0]) == 0.0
    # brute-force envelope oracle
    for r in (2.0, 0.2, -1.3):
        ref = min((r - s) ** 2 / 1.0 + abs(s) for s in np.linspace(-4, 4, 400001))
        assert fm.moreau(tv, 0.0, ORIGIN, 0.5, [r]) == pytest.approx(ref, abs=1e-8)


@pytest.mark.parametrize("model", catalog(), ids=lambda m: m.kind)
def test_moreau_below_and_monotone_in_lam(model):
    rng = np.random.default_rng(7)
    n = model.dimension
    for _ in range(100):
        r = rng.uniform(-4, 4, n)
        j = fm.potential(model, 0.0, [0.0] * n, r)
        prev = -np.inf
        for lam in (1.0, 1e-1, 1e-2, 1e-3):
            jl = fm.moreau(model, 0.0, [0.0] * n, lam, r)
            assert jl <= j + 1e-12
            assert jl >= prev - 1e-12  # decreasing lam raises the envelope
            prev = jl
        assert j - prev <= max(0.05, 0.1 * j)  # j_lam -> j


@pytest.mark.parametrize("model", catalog(), ids=lambda m: m.kind)
def test_moreau_gradient_is_yosida(model):
    rng = np.random.default_rng(8)
    n = model.dimension
    for _ in range(100):
        lam = 10 ** rng.uniform(-3, 0)
        r = rng.uniform(-3, 3, n)
        y = fm.yosida_flux(model, 0.0, [0.0] * n, lam, r)
        fd = np.empty(n)
        for a in range(n):
            e = np.zeros(n)
            e[a] = 1e-6
            fd[a] = (fm.moreau(model, 0.0, [0.0] * n, lam, r + e)
                     - fm.moreau(model, 0.0, [0.0] * n, lam, r - e)) / 2e-6
        assert np.max(np.abs(fd - y)) < 1e-5


# ---------------------------------------------------------------------------
# Fenchel machinery


def test_fenchel_gap_values():
    q = fm.quadratic(1)
    assert fm.fenchel_gap(q, 0.0, ORIGIN, [3.0], [3.0]) == pytest.approx(0.0, abs=1e-12)
    assert fm.fenchel_gap(q, 0.0, ORIGIN, [3.0], [1.0]) == pytest.approx(2.0)
    tv = fm.total_variation(1.0)
    assert fm.fenchel_gap(tv, 0.0, ORIGIN, [2.0], [1.0]) == pytest.approx(0.0, abs=1e-12)


def test_fenchel_gap_unbounded_propagates():
    tv = fm.total_variation(1.0)
    with pytest.raises(fm.UnboundedConjugate):
        fm.fenchel_gap(tv, 0.0, ORIGIN, [1.0], [2.0])


@pytest.mark.parametrize("model", catalog(), ids=lambda m: m.kind)
def test_fenchel_inequality_and_equality_case(model):
    rng = np.random.default_rng(9)
    n = model.dimension
    for _ in range(100):
        r = rng.uniform(-3, 3, n)
        eta = fm.flux_select(model, 0.0, [0.0] * n, r)
        # equality exactly at a selection
        assert abs(fm.fenchel_gap(model, 0.0, [0.0] * n, r, eta)) < 1e-8
        # inequality for generic slopes (stay in the conjugate domain)
        w = 0.9 * eta + 0.1 * rng.uniform(-0.5, 0.5, n)
        try:
            gap = fm.fenchel_gap(model, 0.0, [0.0] * n, r, w)
        except fm.UnboundedConjugate:
            continue
        assert gap >= -1e-9


# ---------------------------------------------------------------------------
# growth and hypotheses


def test_growth_check_quadratic_passes():
    rep = fm.growth_check(fm.quadratic(1))
    assert rep.passed and rep.reason == "strong"


def test_growth_check_plaplacian_passes():
    rep = fm.growth_check(fm.anisotropic_p_laplacian(4.0, alpha=2.0))
    assert rep.passed
    rep2 = fm.growth_check(fm.fractured_medium(4.0, alpha=1.0, thresholds=0.5))
    assert rep2.passed
    rep2d = fm.growth_check(fm.anisotropic_p_laplacian(4.0, dimension=2))
    assert rep2d.passed
    rep_sub = fm.growth_check(fm.anisotropic_p_laplacian(1.5, dimension=2))
    assert rep_sub.passed


def test_growth_check_loggrowth_flagged_weak():
    rep = fm.growth_check(fm.log_growth(1.0))
    assert not rep.passed
    assert rep.reason == "weakly-coercive-only"
    rep_tv = fm.growth_check(fm.total_variation(1.0))
    assert not rep_tv.passed


def test_selection_growth_bound():
    model = fm.anisotropic_p_laplacian(4.0)
    g = model.growth
    rng = np.random.default_rng(10)
    for _ in range(100):
        r = rng.uniform(-5, 5, 1)
        xi = fm.flux_select(model, 0.0, ORIGIN, r)
        assert np.abs(xi[0]) <= g.c3 * np.abs(r[0]) ** (g.p - 1) + g.c30 + 1e-12


def test_h4_symmetry_loggrowth():
    model = fm.log_growth(1.0)
    g = model.growth
    rng = np.random.default_rng(11)
    for _ in range(100):
        r = rng.uniform(-6, 6, 1)
        jp = fm.potential(model, 0.0, ORIGIN, r)
        jm = fm.potential(model, 0.0, ORIGIN, -r)
        assert jp <= g.gamma1 * jm + g.gamma2 + 1e-12


def test_h5_time_regularity():
    model = fm.anisotropic_p_laplacian(
        2.0, alpha=lambda t, xs: np.full(xs.shape[0], 1.0 + 0.5 * t),
        alpha_bounds=(1.0, 1.5), time_lipschitz=0.5, time_dependent=True)
    rng = np.random.default_rng(12)
    L = model.time_lipschitz
    for _ in range(100):
        t, s = rng.uniform(0.0, 1.0, 2)
        r = rng.uniform(-4, 4, 1)
        jt = fm.potential(model, t, ORIGIN, r)
        js = fm.potential(model, s, ORIGIN, r)
        assert jt <= js + L * abs(t - s) * jt + 1e-10


def test_convexity_rejection():
    # a log term overwhelming the power curvature is rejected up front
    with pytest.raises(ValueError):
        fm.anisotropic_p_laplacian(4.0, alpha=0.001, kappa=5.0)


@pytest.mark.parametrize("p, kw", [(4.0, {"kappa": 0.5}),
                                   (2.0, {"alpha": 1.0, "kappa": 1.5}),
                                   (1.5, {"kappa": 1.6}),
                                   (2.0, {"kappa": -0.1})])
def test_convexity_rejects_a_log_term_past_the_power_curvature(p, kw):
    # constant coefficients take the exact test: with p = 4 and kappa = 0.5,
    # j(0.1) exceeds the mean of j(0) and j(0.2) by 1.9e-3, which the
    # sampled chords miss; a negative kappa puts a concave kink at 0
    with pytest.raises(ValueError, match="not convex"):
        fm.anisotropic_p_laplacian(p, **kw)


@pytest.mark.parametrize("p, kw", [(2.0, {"alpha": 1.0, "kappa": 0.5, "delta": 0.2}),
                                   (2.0, {"alpha": 1.0, "kappa": 1.0}),
                                   (1.5, {"kappa": 0.5}),
                                   (4.0, {"kappa": 0.0})])
def test_convexity_accepts_the_catalog_log_laws(p, kw):
    model = fm.anisotropic_p_laplacian(p, **kw)
    s = np.linspace(-4.0, 4.0, 2001)[:, None]
    j = model.potential(0.0, np.zeros((1, 1)), s)
    assert np.all(j[1:-1] <= 0.5 * (j[:-2] + j[2:]) + 1e-13)


def test_convexity_of_callable_coefficients_is_sampled():
    # a callable kappa has no exact test; the chords still catch a gross one
    with pytest.raises(ValueError):
        fm.anisotropic_p_laplacian(
            4.0, alpha=0.001, kappa=lambda t, xs: np.full(xs.shape[0], 5.0))


def test_plaplacian_lower_order_terms_normalized():
    model = fm.anisotropic_p_laplacian(2.0, alpha=1.0, kappa=0.5, delta=0.2)
    assert fm.potential(model, 0.0, ORIGIN, [0.0]) == 0.0
    assert fm.flux_select(model, 0.0, ORIGIN, [0.0]) == pytest.approx([0.0])
    rng = np.random.default_rng(13)
    for _ in range(50):
        r = rng.uniform(-4, 4, 1)
        assert fm.potential(model, 0.0, ORIGIN, r) >= 0.0


def test_fractured_rejects_negative_threshold():
    with pytest.raises(ValueError):
        fm.fractured_medium(4.0, thresholds=-0.5)


def test_custom_model_roundtrip():
    model = fm.custom_model(lambda s: np.cosh(s) - 1.0,
                            beta=lambda s: np.sinh(s))
    assert fm.potential(model, 0.0, ORIGIN, [1.0]) == pytest.approx(np.cosh(1) - 1)
    z = fm.resolvent(model, 0.0, ORIGIN, 0.5, [2.0])
    # optimality: z + lam sinh(z) = r
    assert z[0] + 0.5 * np.sinh(z[0]) == pytest.approx(2.0, abs=1e-6)
    with pytest.raises(ValueError):
        fm.custom_model(lambda s: np.cosh(s))  # j(0) != 0


@pytest.mark.parametrize("lam", [1e-6, 1e-3, 1.0])
def test_custom_flux_without_beta_is_accurate_at_small_arguments(lam):
    # cosh s - 1 loses its low digits to cancellation near 0, so a
    # difference quotient of it over a step much below 1e-7 is rounding
    # alone; the envelope flux still matches sinh at the exact resolvent
    model = fm.custom_model(lambda s: np.cosh(s) - 1.0)
    exact = fm.custom_model(lambda s: np.cosh(s) - 1.0, beta=np.sinh)
    rs = np.array([-2e-5, 3e-8, 1e-7, 1e-6, 1e-5, 1e-3, 0.1, 2.0])[:, None]
    xs = np.zeros_like(rs)
    z = exact.resolvent(0.0, xs, lam, rs)
    assert np.allclose(z + lam * np.sinh(z), rs, rtol=1e-14, atol=1e-20)
    _, eta, _ = model.envelope_pack(0.0, xs, lam, rs)
    assert np.allclose(eta, np.sinh(z), rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("build, message", [
    (lambda: fm.anisotropic_p_laplacian(1.0), "exponent p must exceed 1"),
    (lambda: fm.fractured_medium(0.5), "exponent p must exceed 1"),
    (lambda: fm.anisotropic_p_laplacian(2.0, alpha=0.0), "alpha must be positive"),
    (lambda: fm.fractured_medium(4.0, alpha=-1.0), "alpha must be positive"),
    (lambda: fm.anisotropic_p_laplacian(2.0, alpha=lambda t, xs: 1.0 + xs[:, 0]),
     "alpha_bounds required"),
    (lambda: fm.quadratic(3), "dimension must be 1 or 2"),
    (lambda: fm.total_variation(0.0), "rho must be positive"),
], ids=["p-power", "p-fractured", "alpha-power", "alpha-fractured",
        "alpha-callable", "dimension", "rho"])
def test_constructors_reject_invalid_parameters(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_make_model_catalog_ids():
    for mid in ("quadratic", "plaplacian", "fractured", "loggrowth", "tv"):
        params = {"p": 4.0} if mid in ("plaplacian", "fractured") else {}
        model = fm.make_model(mid, dimension=1, **params)
        assert model.kind == mid
    with pytest.raises(ValueError):
        fm.make_model("nope")

