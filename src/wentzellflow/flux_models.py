"""Catalog of convex flux laws with their variational toolbox.

Each model represents a pair (j, beta) with beta the subdifferential of a
convex potential j(t, x, r), normalized so that j(t, x, 0) = 0 and j >= 0.
Beyond pointwise evaluation the catalog provides, per model: a measurable
selection of beta (minimal-norm at jumps), the convex conjugate j*, the
resolvent (1 + lam*beta)^{-1}, the associated single-valued Lipschitz flux
(Yosida regularization), and the smoothed envelope potential (Moreau
regularization), plus the growth metadata used by the stability
diagnostics.

All catalog entries are either separable across axes (quadratic,
anisotropic p-power, fractured medium, custom) or radial (log-growth,
total variation), so every proximal computation reduces to a scalar
resolvent z + lam*beta(z) = s.  Power laws, fractured ones included,
solve it in closed form for p = 2 and 4 (the p = 4 cubic through its
hyperbolic form plus one Newton polish); other p, lower-order terms and
log-growth use a safeguarded Newton iteration that raises
RootNotConverged instead of returning an unconverged root, and
user-supplied custom laws bisect on it.  Conjugates are exact for every
catalog law (closed form, or w s* - j(s*) at the root s* of j'(s) = w),
so Fenchel certificates never rest on an underestimated j*; only custom
laws fall back to a numeric grid sup, which can be low.
Evaluations are pure functions; models are immutable after construction
and safe to share between threads.

The point functions (``potential``, ``conjugate``, ``resolvent``, ...)
take one point (``x`` and ``r`` of N entries each) and check it; the model
methods take batches, ``(m, N)`` float arrays they trust (see
``FluxModel``), which is what the step solvers use per cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FluxModel",
    "Growth",
    "GrowthReport",
    "SampleSpec",
    "UnboundedConjugate",
    "RootNotConverged",
    "quadratic",
    "anisotropic_p_laplacian",
    "fractured_medium",
    "log_growth",
    "total_variation",
    "custom_model",
    "make_model",
    "potential",
    "flux_select",
    "conjugate",
    "resolvent",
    "yosida_flux",
    "moreau",
    "fenchel_gap",
    "growth_check",
]

_KINK_TOL = 1e-13


class UnboundedConjugate(ValueError):
    """Raised when an operation requires a finite conjugate and j*(w) = +inf."""


class RootNotConverged(RuntimeError):
    """Raised when the scalar root solver hits its iteration cap; carries the
    worst residual of the entries still moving."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class Growth:
    """Coercivity regime and growth constants of a flux law.

    ``regime`` is "strong" (two-sided p-power bounds hold), "weak"
    (superlinear j and j* only), or "singular" (linear growth, total
    variation).  The constants c1, c2, c10, c20 give the two-sided bound
    c1 |r|^p + c10 <= j <= c2 |r|^p + c20; c3, c30 bound any selection by
    |xi| <= c3 |r|^{p-1} + c30; gamma1, gamma2 are the symmetry-at-infinity
    constants j(r) <= gamma1 j(-r) + gamma2.
    """

    regime: str
    p: float | None = None
    c1: float | None = None
    c2: float | None = None
    c10: float = 0.0
    c20: float = 0.0
    c3: float | None = None
    c30: float = 0.0
    gamma1: float = 1.0
    gamma2: float = 0.0


@dataclass(frozen=True)
class SampleSpec:
    """Random sample plan for growth / invariant checks."""

    n: int = 200
    radius: float = 5.0
    seed: int = 0
    times: tuple = (0.0,)
    box: float = 1.0  # spatial sample points drawn from [0, box]^N

    def draw(self, dimension):
        rng = np.random.default_rng(self.seed)
        rs = rng.uniform(-self.radius, self.radius, size=(self.n, dimension))
        xs = rng.uniform(0.0, self.box, size=(self.n, dimension))
        return xs, rs


@dataclass(frozen=True)
class GrowthReport:
    """Worst-case violations of the two-sided and selection growth bounds."""

    passed: bool
    reason: str
    worst_lower: float = 0.0
    worst_upper: float = 0.0
    worst_selection: float = 0.0


# ---------------------------------------------------------------------------
# scalar machinery


def _as_coeff(c):
    """Normalize a coefficient: callable of (t, points), or a float."""
    if callable(c):
        def fn(t, xs, _c=c):
            v = np.asarray(_c(t, xs), dtype=float)
            if v.ndim == 0:
                v = np.full(xs.shape[0], float(v))
            return v
        return fn, None
    val = float(c)
    def const(t, xs, _v=val):
        return _v
    return const, val


def _axis_coeffs(c, dimension):
    """A coefficient given once or per axis (a list or tuple) as the axes'
    callables and constants (``_as_coeff``); a None coefficient stays None,
    with constant 0."""
    cs = c if isinstance(c, (list, tuple)) else [c] * dimension
    pairs = [(None, 0.0) if v is None else _as_coeff(v) for v in cs]
    return [fn for fn, _ in pairs], [val for _, val in pairs]


def _alpha_range(consts, alpha_bounds):
    """(a_lo, a_hi): ``alpha_bounds``, else the range of the axes' constant
    alphas; callable alphas need bounds, and a_lo must be positive."""
    if alpha_bounds is not None:
        a_lo, a_hi = alpha_bounds
    elif all(c is not None for c in consts):
        a_lo, a_hi = min(consts), max(consts)
    else:
        raise ValueError("alpha_bounds required for callable coefficients")
    if not a_lo > 0:
        raise ValueError("alpha must be positive")
    return a_lo, a_hi


def _pow(a, e):
    """a ** e for a >= 0, +inf without a warning where a = 0 and e < 0."""
    if e >= 0:
        return a ** e
    return np.power(a, e, out=np.full_like(a, np.inf), where=a > 0)


def _envelope_curvature(c, lam, ok):
    """c / (1 + lam c) where ``ok``, else 1 / lam (j'' infinite)."""
    return np.divide(c, 1.0 + lam * c, out=np.full_like(c, 1.0 / lam), where=ok)


_ROOT_RTOL = 1e-14
_TINY = np.finfo(float).tiny


def _solve_monotone(f, fprime, lo, hi, z0=None, iters=100):
    """Elementwise root of an increasing function, by safeguarded Newton.

    ``[lo, hi]`` must bracket every root, with f continuous inside it.  A
    Newton step that leaves the current bracket, or meets a zero or
    non-finite slope, becomes a bisection step.  An entry stops on its own
    as soon as its Newton step is below 1e-14 of the new iterate (or below
    the smallest normal float), f vanishes, or its bracket has collapsed (a
    root on a bracket end, as in a degenerate [0, 0] bracket); it is then
    frozen.  A step that small is taken even when it leaves the bracket,
    since a computed bracket end can miss a root lying on it by rounding.
    Entries start at ``z0`` (clipped into the bracket; the midpoint by
    default).

    Raises RootNotConverged, with the worst residual, when an entry is
    still moving after ``iters`` iterations.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    z = 0.5 * (lo + hi) if z0 is None else np.clip(z0, lo, hi)
    moving = np.ones(z.shape, dtype=bool)
    for _ in range(iters):
        fz = f(z)
        lo = np.where(fz < 0, z, lo)
        hi = np.where(fz > 0, z, hi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dz = fprime(z)
            znew = z - fz / np.where(np.isfinite(dz) & (dz > 0), dz, np.nan)
        small = np.abs(znew - z) <= _ROOT_RTOL * np.abs(znew) + _TINY
        bad = ~np.isfinite(znew) | (((znew < lo) | (znew > hi)) & ~small)
        znew = np.where(bad, 0.5 * (lo + hi), znew)
        stop = ((fz == 0) | (small & ~bad)
                | (hi - lo <= _ROOT_RTOL * np.maximum(np.abs(lo), np.abs(hi))))
        z = np.where(moving & (fz != 0), znew, z)
        moving &= ~stop
        if not moving.any():
            return z
    worst = float(np.max(np.abs(f(z))[moving]))
    raise RootNotConverged(
        f"scalar root solve: {int(moving.sum())} entries unconverged after "
        f"{iters} iterations, worst residual {worst:.3e}", residual=worst)


def _power_resolvent(c, p, s):
    """Root z of z + c |z|^{p-1} sgn(z) = s for c > 0, elementwise.

    Closed forms for p = 2 and 4; the p = 4 root uses the hyperbolic form
    of the depressed cubic, which keeps full relative accuracy as c -> 0
    where Cardano's formula cancels, followed by one Newton polish.
    """
    if p == 2.0:
        return s / (1.0 + c)
    if p == 4.0:
        k = np.sqrt(3.0 * c)
        z = 2.0 / k * np.sinh(np.arcsinh(1.5 * k * s) / 3.0)
        return z - (z + c * z ** 3 - s) / (1.0 + 3.0 * c * z * z)
    # solve for |s|: both terms of z + c z^{p-1} = |s| lie in [0, |s|] and
    # one is at least |s| / 2, which brackets z within a fixed factor; f is
    # convex for p > 2 and concave for p < 2, so Newton started from the
    # matching end converges monotonically
    a = np.abs(s)
    q = 1.0 / (p - 1.0)
    with np.errstate(over="ignore"):
        lo = np.minimum(0.5 * a, (0.5 * a / c) ** q)
        hi = np.minimum(a, (a / c) ** q)
    z = _solve_monotone(lambda z: z + c * z ** (p - 1.0) - a,
                        lambda z: 1.0 + c * (p - 1.0) * z ** (p - 2.0),
                        lo, hi, z0=hi if p > 2.0 else lo)
    return np.sign(s) * z


_GOLDEN_RATIO = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_vec(obj, lo, hi, iters=90):
    """Vectorized golden-section minimizer on bracket arrays."""
    g = _GOLDEN_RATIO
    a = np.asarray(lo, dtype=float).copy()
    b = np.asarray(hi, dtype=float).copy()
    c = b - g * (b - a)
    d = a + g * (b - a)
    fc, fd = obj(c), obj(d)
    for _ in range(iters):
        left = fc < fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c = b - g * (b - a)
        d = a + g * (b - a)
        fc, fd = obj(c), obj(d)
    return 0.5 * (a + b)


def _conj_numeric(value_fn, w, radius0=1.0, cap=1e8):
    """Scalar conjugate sup_s (w s - j(s)) by adaptive grid sup, for
    user-supplied laws only (a grid sup can underestimate j*).

    The radius doubles until the per-element maximizer leaves the bracket
    boundary, then a golden-section pass refines the argmax; elements whose
    maximizer stays glued to the boundary at the radius cap are unbounded
    and get +inf.
    """
    w = np.asarray(w, dtype=float)
    m = w.shape[0]
    npts = 513
    radius = radius0
    best_x = np.zeros(m)
    undecided = np.ones(m, dtype=bool)
    while np.any(undecided) and radius <= cap:
        grid = np.linspace(-radius, radius, npts)
        # grid varies along axis 0 so per-cell coefficient arrays broadcast
        sgrid = np.broadcast_to(grid[:, None], (npts, m))
        vals = w[None, :] * sgrid - value_fn(sgrid)
        k = np.argmax(vals, axis=0)
        x = grid[k]
        interior = np.abs(x) < radius * 0.98
        best_x = np.where(undecided & interior, x, best_x)
        undecided = undecided & ~interior
        radius *= 2.0
    unbounded = undecided
    span = radius / (npts - 1) * 2.0

    def neg(s):
        return -(w * s - value_fn(s))

    xs = _golden_vec(neg, best_x - span, best_x + span)
    out = w * xs - value_fn(xs)
    out = np.maximum(out, 0.0)  # j(0) = 0 forces j* >= 0
    out[unbounded] = np.inf
    return out


# ---------------------------------------------------------------------------
# per-axis scalar laws (constant coefficients as floats, others per cell);
# ``envelope(lam, s, curvature)`` gives j(z), the regularized flux and, if
# asked, the envelope curvature c / (1 + lam c), c = j''(z), from one prox z


class _PowerAxis:
    """j(s) = alpha |s|^p / p + kappa log(1+|s|) + (delta - xi0) s, normalized.

    The linear/log lower-order terms are the ones the strongly coercive
    family admits; the zero-slope selection xi0 is subtracted so that
    0 stays in the subdifferential at 0 and j(0) = 0.
    """

    def __init__(self, alpha, p, kappa=None, delta_eff=None):
        self.alpha = alpha
        self.p = float(p)
        self.kappa = kappa          # None means identically zero
        self.delta_eff = delta_eff  # delta - xi0, None means zero

    @property
    def pure(self):
        return self.kappa is None and self.delta_eff is None

    def value(self, s):
        # |s|^p is s * s at p = 2
        v = self.alpha * (s * s if self.p == 2.0 else np.abs(s) ** self.p) / self.p
        if self.kappa is not None:
            v = v + self.kappa * np.log1p(np.abs(s))
        if self.delta_eff is not None:
            v = v + self.delta_eff * s
        return v

    def _slope(self, s):
        """j' off the kink, continued one-sidedly through it."""
        # |s|^{p-1} sgn(s) is s itself at p = 2
        d = self.alpha * (s if self.p == 2.0
                          else np.abs(s) ** (self.p - 1.0) * np.sign(s))
        if self.kappa is not None:
            d = d + self.kappa * np.sign(s) / (1.0 + np.abs(s))
        if self.delta_eff is not None:
            d = d + self.delta_eff
        return d

    def deriv(self, s):
        d = self._slope(s)
        if not self.pure:
            d = np.where(s == 0.0, 0.0, d)  # minimal-norm at the kink
        return d

    def subgrad0(self):
        """Subdifferential interval at s = 0."""
        k = self.kappa if self.kappa is not None else 0.0
        d = self.delta_eff if self.delta_eff is not None else 0.0
        return d - k, d + k

    def deriv2(self, s):
        a = np.abs(s)
        c = self.alpha * (self.p - 1.0) * _pow(a, self.p - 2.0)
        if self.kappa is not None:
            c = c - self.kappa / (1.0 + a) ** 2
        return c

    def prox(self, lam, s):
        if self.pure:
            return _power_resolvent(lam * self.alpha, self.p, s)
        # past the kink interval the root has the sign of s
        lo0, hi0 = self.subgrad0()
        excess = np.maximum(np.maximum(s - lam * hi0, lam * lo0 - s), 0.0)
        return np.sign(s) * self._excess_root(1.0, lam, excess)

    def _excess_root(self, b, lam, e):
        """Root a >= 0 of b a + lam (alpha a^{p-1} - kappa a / (1+a)) = e,
        the modulus of the resolvent (b = 1) or of the conjugate's maximizer
        (b = 0, lam = 1) when its argument lies e past the kink interval.

        The log term lowers the left side by at most lam kappa, so the roots
        without it at e and at e + lam kappa bracket a.  Newton starts from
        the lower one, which has the scale of a even where a is subnormal;
        a bracket from 0 would reach such a root only by bisection.
        """
        c, p = lam * self.alpha, self.p
        k = 0.0 if self.kappa is None else lam * self.kappa
        if b:
            lo, hi = _power_resolvent(c, p, e), _power_resolvent(c, p, e + k)
        else:
            lo, hi = (e / c) ** (1.0 / (p - 1.0)), ((e + k) / c) ** (1.0 / (p - 1.0))
        return _solve_monotone(
            lambda a: b * a + c * a ** (p - 1.0) - k * a / (1.0 + a) - e,
            lambda a: b + c * (p - 1.0) * a ** (p - 2.0) - k / (1.0 + a) ** 2,
            lo, hi, z0=lo)

    def envelope(self, lam, s, curvature=True):
        # at a kink (|z| within 1e-13 of 0; a pure law has none) the flux is
        # s / lam clipped to the kink interval and the curvature infinite
        z = self.prox(lam, s)
        y = self._slope(z)
        ok = True
        if not self.pure:
            kink = np.abs(z) <= _KINK_TOL * (1.0 + np.abs(s))
            if kink.any():
                y = np.where(kink, np.clip(s / lam, *self.subgrad0()), y)
            ok = ~kink
        if not curvature:
            return self.value(z), y, None
        c = self.deriv2(z)
        return self.value(z), y, _envelope_curvature(c, lam, np.isfinite(c) & ok)

    def conj(self, w):
        if self.pure:
            q = self.p / (self.p - 1.0)
            return (self.alpha ** (1.0 - q)
                    * (w * w if q == 2.0 else np.abs(w) ** q) / q)
        # j*(w) = w s - j(s) at the root s of j'(s) = w, which is 0 for w in
        # the subdifferential at 0 and has the sign of the side w lies on
        lo0, hi0 = self.subgrad0()
        excess = np.maximum(np.maximum(w - hi0, lo0 - w), 0.0)
        s = np.sign(w) * self._excess_root(0.0, 1.0, excess)
        return w * s - self.value(s)


class _FracturedAxis:
    """Power law whose modulus jumps by one above a gradient threshold.

    j(s) = alpha Psi(s) + (Psi(s) - Psi(th)) for s > th, with
    Psi(s) = |s|^p / p and threshold th >= 0; the selection jumps across
    the jump interval [lo_e, hi_e] = [alpha th^{p-1}, (alpha+1) th^{p-1}]
    at s = th and the minimal-norm convention picks the lower edge.
    """

    def __init__(self, alpha, p, th):
        self.alpha = alpha
        self.p = float(p)
        self.th = th
        b = th ** (self.p - 1.0)
        self.lo_e, self.hi_e = alpha * b, (alpha + 1.0) * b
        self.psi_th = np.abs(th) ** self.p / self.p

    def value(self, s):
        psi = np.abs(s) ** self.p / self.p
        return self.alpha * psi + np.where(s > self.th, psi - self.psi_th, 0.0)

    def deriv(self, s):
        base = np.abs(s) ** (self.p - 1.0) * np.sign(s)
        return (self.alpha + (s > self.th)) * base

    def deriv2(self, s):
        return (self.alpha + (s > self.th)) * (self.p - 1.0) * _pow(np.abs(s), self.p - 2.0)

    def prox(self, lam, s):
        lo_e, hi_e = self.lo_e, self.hi_e
        at_jump = (self.th > 0) & (s >= self.th + lam * lo_e) & (s <= self.th + lam * hi_e)
        # off the jump, s picks the branch and its modulus
        upper = s > self.th + lam * hi_e
        z = _power_resolvent(lam * (self.alpha + upper), self.p, s)
        return np.where(at_jump, self.th, z)

    def envelope(self, lam, s, curvature=True):
        # on the jump (z within 1e-13 of th) the flux is (s - z) / lam
        # clipped to the jump interval and the curvature is infinite
        z = self.prox(lam, s)
        jump = (self.th > 0) & (np.abs(z - self.th) <= _KINK_TOL * (1.0 + self.th))
        y = self.deriv(z)
        if jump.any():
            y = np.where(jump, np.clip((s - z) / lam, self.lo_e, self.hi_e), y)
        if not curvature:
            return self.value(z), y, None
        c = self.deriv2(z)
        return self.value(z), y, _envelope_curvature(c, lam, np.isfinite(c) & ~jump)

    def conj(self, w):
        # piecewise power: the maximizer is below, at or above th as w lies
        # below, inside or above the jump interval
        q = self.p / (self.p - 1.0)
        aw = np.abs(w) ** q / q
        below = self.alpha ** (1.0 - q) * aw
        above = (self.alpha + 1.0) ** (1.0 - q) * aw + self.psi_th
        at = w * self.th - self.alpha * self.psi_th
        return np.where(w < self.lo_e, below, np.where(w > self.hi_e, above, at))


class _CustomAxis:
    """User-supplied scalar potential j, with j' from ``dfun`` or a central
    difference.  The prox z of lam j at s is the root of the increasing
    z + lam j'(z) - s, which lies between 0 and s since j is least at 0;
    64 bisection steps halve that bracket to rounding."""

    def __init__(self, jfun, dfun):
        self.jfun = jfun
        self.dfun = dfun

    def value(self, s):
        return np.asarray(self.jfun(s), dtype=float)

    def deriv(self, s):
        if self.dfun is not None:
            return np.asarray(self.dfun(s), dtype=float)
        # a step below |s| keeps a kink at 0 sharp, one of 1e-7 off 0 keeps
        # the rounding of a j computed with cancellation (cosh s - 1) small
        eps = np.minimum(1e-7, 0.5 * np.abs(s)) + 1e-300
        return (self.value(s + eps) - self.value(s - eps)) / (2.0 * eps)

    def deriv2(self, s):
        eps = 1e-5
        return (self.value(s + eps) - 2.0 * self.value(s) + self.value(s - eps)) / eps ** 2

    def prox(self, lam, s):
        lo, hi = np.minimum(0.0, s), np.maximum(0.0, s)
        for _ in range(64):
            z = 0.5 * (lo + hi)
            above = z + lam * self.deriv(z) > s
            lo, hi = np.where(above, lo, z), np.where(above, z, hi)
        return 0.5 * (lo + hi)

    def envelope(self, lam, s, curvature=True):
        z = self.prox(lam, s)
        c = np.maximum(self.deriv2(z), 0.0) if curvature else None
        return self.value(z), (s - z) / lam, c / (1.0 + lam * c) if curvature else None

    def conj(self, w):
        return _conj_numeric(self.value, w)


class _AbsRadial:
    """Radial profile rho*m of the total-variation flux."""

    def __init__(self, rho):
        self.rho = self.dphi0 = rho

    def phi(self, m):
        return self.rho * m

    def dphi(self, m):
        return np.full_like(m, self.rho)

    def d2phi(self, m):
        return np.zeros_like(m)

    def prox_radius(self, lam, m):
        return np.maximum(m - lam * self.rho, 0.0)

    def conj_scalar(self, w):
        out = np.zeros_like(w)
        out[w > self.rho * (1.0 + 1e-12)] = np.inf
        return out


class _LogRadial:
    """Radial profile a * m * log(1+m); gradient a(log(1+m) + m/(1+m))."""

    dphi0 = 0.0

    def __init__(self, a):
        self.a = a

    def phi(self, m):
        return self.a * m * np.log1p(m)

    def dphi(self, m):
        return self.a * (np.log1p(m) + m / (1.0 + m))

    def d2phi(self, m):
        return self.a * (1.0 / (1.0 + m) + 1.0 / (1.0 + m) ** 2)

    def prox_radius(self, lam, m):
        # concave in z, so Newton from 0 climbs to the root without overshoot
        return _solve_monotone(
            lambda z: z + lam * self.dphi(z) - m,
            lambda z: 1.0 + lam * self.d2phi(z),
            np.zeros_like(m), m, z0=0.0)

    def conj_scalar(self, w):
        # j*(w) = w s - phi(s) at dphi(s) = w; a log1p(s) <= dphi(s) <=
        # a (log1p(s) + 1) brackets s within a factor e.  Past w = 700 a
        # the maximizer passes exp(699) and j* is reported as +inf.
        wc = np.clip(w, 0.0, 700.0 * self.a)
        lo = np.expm1(np.maximum(wc / self.a - 1.0, 0.0))
        s = _solve_monotone(lambda s: self.dphi(s) - wc, self.d2phi,
                            lo, np.expm1(wc / self.a), z0=lo)
        return np.where(w > wc, np.inf, wc * s - self.phi(s))


# ---------------------------------------------------------------------------
# model classes


class FluxModel:
    """Base class of the catalog laws.

    The batch methods (``potential``, ``select``, ``resolvent``,
    ``conjugate``, ``curvature`` and ``_envelope`` of the separable and
    radial subclasses, and those here built on them) take ``xs`` and the
    per-cell argument as ``(m, N)`` float arrays (``xs`` may be one row for
    all cells) and trust them: no shape, dtype or finiteness check, as the
    step solvers call them on arrays they built.  The point functions
    (``_point``) and the step solvers' public entries check user data.
    """

    kind = "abstract"
    # Height of the law's flux jump, the width scale of a step's multiplier
    # loop (``step_solver._multiplier_finish``; 1 where it is 0).  A step
    # of a law with a positive scale ends its continuation early for the
    # loop and starts warm from the previous step's dual point, its loop
    # stopped by the exact Fenchel gap; 0 keeps every step cold.  A law
    # whose conjugate can be underestimated (``Custom``'s grid sup) keeps 0,
    # since its gap is no sound stop for a warm start; its cold loop still
    # stops on that gap.  TV's and the fractured law's conjugates are closed
    # forms; a p-Laplacian with kappa > 0 takes w s - j(s) at the root s of
    # j'(s) = w, solved to 1e-14 relative (``_excess_root``), and as s
    # maximizes w s - j(s), a root error e lowers j* only by j''(s) e^2 / 2,
    # below the gap's rounding.
    kink_scale = 0.0

    def __init__(self, dimension, growth, time_lipschitz=0.0,
                 time_dependent=False, smooth=False):
        if dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        self.dimension = dimension
        self.growth = growth
        self.time_lipschitz = float(time_lipschitz)
        self.time_dependent = bool(time_dependent)
        self.is_smooth = bool(smooth)

    # -- batch interface implemented by the two structural subclasses ------
    def _envelope(self, t, xs, lam, rs, curvature):
        """(envelope value, regularized flux, envelope curvature or None)."""
        raise NotImplementedError

    def envelope_pack(self, t, xs, lam, rs):
        """Envelope value, regularized flux and curvature in one prox pass."""
        return self._envelope(t, xs, lam, rs, True)

    def yosida(self, t, xs, lam, rs):
        return self._envelope(t, xs, lam, rs, False)[1]

    def moreau(self, t, xs, lam, rs):
        """Envelope value alone; bit for bit ``envelope_pack``'s first part."""
        return self._envelope(t, xs, lam, rs, False)[0]

    def curvature(self, t, xs, rs):
        """Per-cell generalized Hessian data of the potential for Newton
        assembly (``envelope_pack`` gives the envelope's)."""
        raise NotImplementedError

    def fenchel_gap(self, t, xs, rs, ws, jv=None):
        """Per-cell j(rs) + j*(ws) - ws . rs, with j(rs) = ``jv`` if given."""
        jstar = self.conjugate(t, xs, ws)
        if np.any(np.isinf(jstar)):
            raise UnboundedConjugate("conjugate is +inf at the given slope")
        if jv is None:
            jv = self.potential(t, xs, rs)
        return jv + jstar - (ws * rs).sum(axis=1)


class _SeparableModel(FluxModel):
    """Potential summing independent scalar laws per axis; a law whose
    coefficients are all constants builds them once (``_fixed_laws``)."""

    _fixed_laws = None

    def _laws(self, t, xs):
        return self._fixed_laws or self._make_laws(t, xs)

    def _make_laws(self, t, xs):
        raise NotImplementedError

    def _per_axis(self, laws, fn, rs):
        """fn(law, rs[:, a]) for each axis a, as the columns of one array."""
        out = np.empty_like(rs)
        for a, law in enumerate(laws):
            out[:, a] = fn(law, rs[:, a])
        return out

    def _envelope(self, t, xs, lam, rs, curvature):
        jl, eta, curv = 0.0, np.empty_like(rs), np.empty_like(rs)
        for a, law in enumerate(self._laws(t, xs)):
            jz, y, c = law.envelope(lam, rs[:, a], curvature)
            jl = jl + jz + 0.5 * lam * y * y
            eta[:, a] = y
            if curvature:
                curv[:, a] = c
        return jl, eta, ("diag", curv) if curvature else None

    def potential(self, t, xs, rs):
        laws = self._laws(t, xs)
        return sum(law.value(rs[:, a]) for a, law in enumerate(laws))

    def select(self, t, xs, rs):
        return self._per_axis(self._laws(t, xs), lambda law, s: law.deriv(s), rs)

    def resolvent(self, t, xs, lam, rs):
        return self._per_axis(self._laws(t, xs),
                              lambda law, s: law.prox(lam, s), rs)

    def conjugate(self, t, xs, ws):
        laws = self._laws(t, xs)
        return sum(law.conj(ws[:, a]) for a, law in enumerate(laws))

    def curvature(self, t, xs, rs):
        return ("diag", self._per_axis(self._laws(t, xs),
                                       lambda law, s: law.deriv2(s), rs))


class _RadialModel(FluxModel):
    """Potential phi(|r|) with convex increasing profile phi, phi(0) = 0."""

    def _law(self, t, xs):
        raise NotImplementedError

    def _envelope(self, t, xs, lam, rs, curvature):
        law = self._law(t, xs)
        m = self._mag(rs)
        s = law.prox_radius(lam, m)
        ymag = np.where(s > 0, law.dphi(np.maximum(s, 0.0)), m / lam)
        jl = law.phi(s) + 0.5 * lam * ymag * ymag
        unit = self._unit(rs, m)
        eta = unit * ymag[:, None]
        if not curvature:
            return jl, eta, None
        d2 = law.d2phi(np.maximum(s, 0.0))
        cpar_s = d2 / (1.0 + lam * d2)
        if law.dphi0 > 0:
            inside = np.full_like(m, 1.0 / lam)
        else:
            c0 = law.d2phi(np.zeros_like(m))
            inside = c0 / (1.0 + lam * c0)
        cpar = np.where(s > 0, cpar_s, inside)
        cperp = np.where(m > 0, ymag / np.maximum(m, 1e-300), cpar)
        return jl, eta, ("radial", cpar, cperp, unit)

    @staticmethod
    def _mag(rs):
        return np.sqrt((rs * rs).sum(axis=1))

    @staticmethod
    def _unit(rs, m):
        safe = np.where(m > 0, m, 1.0)
        return rs / safe[:, None]

    def potential(self, t, xs, rs):
        return self._law(t, xs).phi(self._mag(rs))

    def select(self, t, xs, rs):
        law = self._law(t, xs)
        m = self._mag(rs)
        mag = np.where(m > 0, law.dphi(m), 0.0)
        return self._unit(rs, m) * mag[:, None]

    def resolvent(self, t, xs, lam, rs):
        m = self._mag(rs)
        return self._unit(rs, m) * self._law(t, xs).prox_radius(lam, m)[:, None]

    def conjugate(self, t, xs, ws):
        return self._law(t, xs).conj_scalar(self._mag(ws))

    def curvature(self, t, xs, rs):
        law = self._law(t, xs)
        m = self._mag(rs)
        c0 = law.d2phi(np.zeros_like(m))
        cpar = np.where(m > 0, law.d2phi(m), c0)
        cperp = np.where(m > 0, law.dphi(np.maximum(m, 1e-300)) / np.maximum(m, 1e-300), c0)
        return ("radial", cpar, cperp, self._unit(rs, m))


class AnisotropicPLaplacian(_SeparableModel):
    """Axis-wise power law alpha_i(t,x) |r_i|^p / p with optional lower-order
    log and linear terms; the linear part is renormalized so the potential
    stays nonnegative with value 0 at the origin."""

    kind = "plaplacian"

    def __init__(self, p, alpha=1.0, kappa=None, delta=None, dimension=1,
                 alpha_bounds=None, time_lipschitz=0.0, time_dependent=False,
                 validate=True):
        if not p > 1:
            raise ValueError("exponent p must exceed 1")
        self.p = float(p)
        self._alpha, self._alpha_const = _axis_coeffs(alpha, dimension)
        self._kappa, self._kappa_const = _axis_coeffs(kappa, dimension)
        self._delta, self._delta_const = _axis_coeffs(delta, dimension)
        a_lo, a_hi = _alpha_range(self._alpha_const, alpha_bounds)
        growth = _power_growth(self.p, a_lo, a_hi, dimension,
                               self._kappa_const, self._delta_const)
        smooth = (self.p >= 2.0 and all(k is None for k in self._kappa))
        super().__init__(dimension, growth, time_lipschitz=time_lipschitz,
                         time_dependent=time_dependent, smooth=smooth)
        if None not in self._alpha_const + self._kappa_const + self._delta_const:
            self._fixed_laws = self._make_laws(0.0, None)
        if validate:
            _check_convexity(self)
        if all(k is not None for k in self._kappa_const):
            # subgrad0 is [delta - kappa, delta + kappa]: a jump of 2 kappa;
            # a callable kappa's height is not known up front, so it keeps 0
            self.kink_scale = 2.0 * max(self._kappa_const)

    def _make_laws(self, t, xs):
        laws = []
        for a in range(self.dimension):
            al = self._alpha[a](t, xs)
            ka = None if self._kappa[a] is None else self._kappa[a](t, xs)
            if self._delta[a] is None:
                de = None
            else:
                de = self._delta[a](t, xs)
                k = ka if ka is not None else np.zeros_like(de)
                xi0 = np.where(np.abs(de) <= k, 0.0, de - np.sign(de) * k)
                de = de - xi0
                if not np.any(de):
                    de = None
            laws.append(_PowerAxis(al, self.p, ka, de))
        return laws


class Quadratic(AnisotropicPLaplacian):
    """j = |r|^2 / 2, the identity flux law: the p = 2 power law with unit
    coefficient, whose resolvent ``_power_resolvent`` takes in closed form."""

    kind = "quadratic"

    def __init__(self, dimension=1):
        super().__init__(2.0, dimension=dimension)


class FracturedMedium(_SeparableModel):
    """Axis-wise power law whose conductivity jumps above a gradient
    threshold (Heaviside term filled to a maximal monotone graph)."""

    kind = "fractured"

    def __init__(self, p, alpha=1.0, thresholds=0.5, dimension=1,
                 alpha_bounds=None, time_lipschitz=0.0, time_dependent=False):
        if not p > 1:
            raise ValueError("exponent p must exceed 1")
        self.p = float(p)
        self._alpha, consts = _axis_coeffs(alpha, dimension)
        ths = thresholds if isinstance(thresholds, (list, tuple)) else [thresholds] * dimension
        self.thresholds = [float(t_) for t_ in ths]
        if any(t_ < 0 for t_ in self.thresholds):
            # a jump at negative gradient would break monotonicity of beta
            raise ValueError("fractured-medium thresholds must be >= 0")
        a_lo, a_hi = _alpha_range(consts, alpha_bounds)
        growth = _power_growth(self.p, a_lo, a_hi + 1.0, dimension)
        super().__init__(dimension, growth, time_lipschitz=time_lipschitz,
                         time_dependent=time_dependent, smooth=False)
        # the jump interval [alpha th^(p-1), (alpha + 1) th^(p-1)] is th^(p-1) high
        self.kink_scale = max(th ** (self.p - 1.0) for th in self.thresholds)
        if None not in consts:
            self._fixed_laws = self._make_laws(0.0, None)

    def _make_laws(self, t, xs):
        return [_FracturedAxis(self._alpha[a](t, xs), self.p, self.thresholds[a])
                for a in range(self.dimension)]


class LogGrowth(_RadialModel):
    """Weakly coercive law with potential a(t,x) |r| log(1+|r|), whose
    gradient is a log(1+|r|) sgn r + a r / (1+|r|)."""

    kind = "loggrowth"

    def __init__(self, a=1.0, dimension=1, time_lipschitz=0.0,
                 time_dependent=False):
        self._a, self._a_const = _as_coeff(a)
        if self._a_const is not None and self._a_const <= 0:
            raise ValueError("log-growth coefficient a must be positive")
        growth = Growth("weak", gamma1=1.0, gamma2=0.0)
        super().__init__(dimension, growth, time_lipschitz=time_lipschitz,
                         time_dependent=time_dependent, smooth=True)

    def _law(self, t, xs):
        a = self._a(t, xs)
        if np.any(a <= 0):
            raise ValueError("log-growth coefficient a must be positive")
        return _LogRadial(a)


class TotalVariation(_RadialModel):
    """Singular law j = rho |r|; the flux is the rho-ball section of sgn."""

    kind = "tv"

    def __init__(self, rho=1.0, dimension=1):
        self.rho = float(rho)
        if not self.rho > 0:
            raise ValueError("TV weight rho must be positive")
        self.kink_scale = self.rho
        growth = Growth("singular", gamma1=1.0, gamma2=0.0)
        super().__init__(dimension, growth, smooth=False)

    def _law(self, t, xs):
        return _AbsRadial(self.rho)


class Custom(_SeparableModel):
    """User-supplied axis-wise potential (vectorized scalar callable)."""

    kind = "custom"

    def __init__(self, j, beta=None, dimension=1, growth=None, validate=True):
        growth = growth or Growth("weak")
        super().__init__(dimension, growth, smooth=False)
        self._fixed_laws = [_CustomAxis(j, beta)] * dimension
        if validate:
            v0 = float(np.asarray(j(np.zeros(1)))[0])
            if abs(v0) > 1e-10:
                raise ValueError("custom potential must satisfy j(0) = 0")
            _check_convexity(self)


def _power_growth(p, a_lo, a_hi, dimension, kappa_consts=None, delta_consts=None):
    """Two-sided growth constants for axis-wise power potentials."""
    n = dimension
    if p >= 2.0:
        lower_factor = n ** (1.0 - p / 2.0)
        upper_factor = 1.0
        c3 = a_hi
    else:
        lower_factor = 1.0
        upper_factor = n ** (1.0 - p / 2.0)
        c3 = a_hi * n ** ((2.0 - p) / 2.0)
    c1 = a_lo / p * lower_factor
    c2 = a_hi / p * upper_factor
    c10 = c20 = c30 = 0.0
    k_hi = max((abs(k) for k in (kappa_consts or []) if k is not None), default=0.0)
    d_hi = max((abs(d) for d in (delta_consts or []) if d is not None), default=0.0)
    if k_hi > 0 or d_hi > 0:
        bump = (k_hi + d_hi) * np.sqrt(n)
        c2 += bump
        c20 += bump
        c3 += k_hi + d_hi
        c30 += k_hi + d_hi
        if d_hi > 0:
            # sup_s d_hi sqrt(n) s - (c1 / 2) |s|^p, a power-law conjugate
            c10 = -float(_PowerAxis(p * c1 / 2.0, p).conj(d_hi * np.sqrt(n)))
            c1 = c1 / 2.0
    return Growth("strong", p=p, c1=c1, c2=c2, c10=c10, c20=c20, c3=c3, c30=c30)


def _power_axis_convex(alpha, p, kappa):
    """Whether alpha |s|^p / p + kappa log(1 + |s|) + delta s is convex.

    It is iff kappa >= 0 (the kink at 0) and j''(s) = alpha (p - 1) s^(p-2)
    - kappa / (1 + s)^2 >= 0 for s > 0, that is alpha (p - 1) s^(p-2)
    (1 + s)^2 >= kappa, whose left side is least at s* = (2 - p) / p for
    p <= 2 and tends to 0 at s = 0 for p > 2.
    """
    if kappa <= 0.0 or p > 2.0:
        return kappa == 0.0
    s = (2.0 - p) / p
    return alpha * (p - 1.0) * s ** (p - 2.0) * (1.0 + s) ** 2 >= kappa


def _check_convexity(model, n=60, radius=6.0, tol=1e-8):
    """Reject parameter combinations that break convexity of the potential:
    exactly, axis by axis, for a power law with constant alpha and kappa,
    otherwise on random chords."""
    if isinstance(model, AnisotropicPLaplacian):
        consts = list(zip(model._alpha_const, model._kappa_const))
        if all(a is not None and k is not None for a, k in consts):
            if not all(_power_axis_convex(a, model.p, k) for a, k in consts):
                raise ValueError("potential is not convex for these parameters")
            return
    rng = np.random.default_rng(7)
    x0 = np.zeros((1, model.dimension))
    for _ in range(4):
        r1 = rng.uniform(-radius, radius, size=(n, model.dimension))
        r2 = rng.uniform(-radius, radius, size=(n, model.dimension))
        th = rng.uniform(0.0, 1.0, size=n)[:, None]
        mid = th * r1 + (1.0 - th) * r2
        lhs = model.potential(0.0, x0, mid)
        rhs = (th[:, 0] * model.potential(0.0, x0, r1)
               + (1.0 - th[:, 0]) * model.potential(0.0, x0, r2))
        if np.any(lhs > rhs + tol * (1.0 + np.abs(rhs))):
            raise ValueError("potential is not convex for these parameters")


# ---------------------------------------------------------------------------
# catalog factory and point-wise operations


_CATALOG = {
    "quadratic": Quadratic,
    "plaplacian": AnisotropicPLaplacian,
    "fractured": FracturedMedium,
    "loggrowth": LogGrowth,
    "tv": TotalVariation,
    "custom": Custom,
}


def quadratic(dimension=1):
    return Quadratic(dimension)


def anisotropic_p_laplacian(p, alpha=1.0, kappa=None, delta=None, dimension=1, **kw):
    return AnisotropicPLaplacian(p, alpha, kappa, delta, dimension, **kw)


def fractured_medium(p, alpha=1.0, thresholds=0.5, dimension=1, **kw):
    return FracturedMedium(p, alpha, thresholds, dimension, **kw)


def log_growth(a=1.0, dimension=1, **kw):
    return LogGrowth(a, dimension, **kw)


def total_variation(rho=1.0, dimension=1):
    return TotalVariation(rho, dimension)


def custom_model(j, beta=None, dimension=1, **kw):
    return Custom(j, beta, dimension, **kw)


def make_model(model_id, dimension=1, **params):
    """Build a catalog model from its string identifier."""
    try:
        cls = _CATALOG[model_id]
    except KeyError:
        raise ValueError(f"unknown model id {model_id!r}; "
                         f"known: {sorted(_CATALOG)}") from None
    return cls(dimension=dimension, **params)


def _point(model, *args, lam=None):
    """One point's arguments (x, r, ...) as (1, N) float rows; ValueError
    unless each has N finite entries and lam, where given, is positive."""
    if not (lam is None or lam > 0):
        raise ValueError("lam must be positive")
    rows = [np.asarray(a, dtype=float).reshape(1, -1) for a in args]
    if any(a.shape[1] != model.dimension for a in rows):
        raise ValueError(f"expected {model.dimension}-vectors")
    if not all(np.isfinite(a).all() for a in rows):
        raise ValueError("non-finite flux argument")
    return rows


def potential(model, t, x, r):
    """Potential j(t, x, r) at a single point."""
    x, r = _point(model, x, r)
    return float(model.potential(t, x, r)[0])


def flux_select(model, t, x, r):
    """One measurable selection of the flux (minimal norm at jumps)."""
    x, r = _point(model, x, r)
    return model.select(t, x, r)[0]


def conjugate(model, t, x, omega):
    """Convex conjugate j*(t, x, omega); +inf when the sup is unbounded."""
    x, w = _point(model, x, omega)
    return float(model.conjugate(t, x, w)[0])


def resolvent(model, t, x, lam, r):
    """Unique z with z + lam * beta(z) containing r."""
    x, r = _point(model, x, r, lam=lam)
    return model.resolvent(t, x, lam, r)[0]


def yosida_flux(model, t, x, lam, r):
    """Single-valued Lipschitz flux (r - resolvent(lam, r)) / lam."""
    x, r = _point(model, x, r, lam=lam)
    return model.yosida(t, x, lam, r)[0]


def moreau(model, t, x, lam, r):
    """Envelope potential inf_s |r-s|^2/(2 lam) + j(s)."""
    x, r = _point(model, x, r, lam=lam)
    return float(model.moreau(t, x, lam, r)[0])


def fenchel_gap(model, t, x, r, omega):
    """j(r) + j*(omega) - omega . r, nonnegative, zero iff omega in beta(r)."""
    x, r, w = _point(model, x, r, omega)
    return float(model.fenchel_gap(t, x, r, w)[0])


def growth_check(model, samples=None):
    """Check the two-sided power bounds and the selection growth bound.

    Only meaningful for strongly coercive laws; weakly coercive or singular
    entries are reported as failing with the regime as the reason.
    """
    samples = samples or SampleSpec()
    g = model.growth
    if g.regime != "strong":
        reason = ("weakly-coercive-only" if g.regime == "weak" else g.regime)
        return GrowthReport(False, reason)
    xs, rs = samples.draw(model.dimension)
    worst_lower = worst_upper = worst_sel = 0.0
    for t in samples.times:
        j = model.potential(t, xs, rs)
        mags = np.sqrt((rs * rs).sum(axis=1))
        lower = g.c1 * mags ** g.p + g.c10 - j
        upper = j - (g.c2 * mags ** g.p + g.c20)
        xi = model.select(t, xs, rs)
        xin = np.sqrt((xi * xi).sum(axis=1))
        sel = xin - (g.c3 * mags ** (g.p - 1.0) + g.c30)
        worst_lower = max(worst_lower, float(lower.max()))
        worst_upper = max(worst_upper, float(upper.max()))
        worst_sel = max(worst_sel, float(sel.max()))
    tol = 1e-8
    ok = worst_lower <= tol and worst_upper <= tol and worst_sel <= tol
    return GrowthReport(ok, "strong", worst_lower, worst_upper, worst_sel)
