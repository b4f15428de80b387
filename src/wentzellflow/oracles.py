"""Independent brute-force references used by the test suite.

These share the grid quadrature with the production modules but none of
the solver code: dense linear algebra for the quadratic implicit step,
golden-section search for 1D proximal maps, an exact dynamic-programming
solver for weighted 1D total-variation proximal problems, grid-search
conjugates, and central finite differences.  They favor transparency over
speed and may be O(n^2) or worse.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dense_linear_step",
    "prox_1d",
    "tv_prox_1d",
    "fd_gradient",
    "conjugate_grid",
    "projected_gradient_descent",
    "affine_map",
]

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def dense_linear_step(grid, h, w1, w2):
    """Implicit step for the identity flux law by a dense direct solve.

    Assembles (M_domain + M_boundary + h G^T W G) u = M_domain w1
    + M_boundary w2 from the grid quadrature and solves it densely.
    """
    if grid.n_nodes > 200:
        raise ValueError("dense oracle limited to small grids (<= 200 nodes)")
    w1 = grid.check_field(np.asarray(w1, dtype=float), "w1")
    w2 = grid.check_boundary_values(np.asarray(w2, dtype=float), "w2")
    n = grid.n_nodes
    a = np.diag(grid.node_weights).astype(float)
    a[grid.boundary_nodes, grid.boundary_nodes] += grid.boundary_weights
    for g in grid.grad_ops:
        gd = g.toarray()
        a += h * gd.T @ (grid.cell_volumes[:, None] * gd)
    # SPD for any h > 0; Cholesky doubles as the singularity assertion.
    np.linalg.cholesky(a)
    rhs = grid.node_weights * w1
    rhs[grid.boundary_nodes] += grid.boundary_weights * w2
    return np.linalg.solve(a, rhs)


def prox_1d(j, lam, r, tol=1e-12, pad=1.0):
    """Golden-section minimizer of |r - s|^2 / (2 lam) + j(s).

    ``j`` is a scalar convex function with j(0) = 0 and 0 in its
    subdifferential at 0, so the minimizer lies between 0 and r; the
    bracket is padded for safety.
    """
    lo = min(0.0, r) - pad
    hi = max(0.0, r) + pad

    def obj(s):
        return (r - s) ** 2 / (2.0 * lam) + j(s)

    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = obj(c), obj(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = obj(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = obj(d)
    return 0.5 * (a + b)


def tv_prox_1d(signal, jump_weight, fidelity_weights=None):
    """Exact weighted 1D total-variation proximal map.

    Minimizes sum_i m_i (u_i - a_i)^2 / 2 + w sum_i |u_{i+1} - u_i| by
    dynamic programming on the piecewise-linear derivative of the value
    function (forward clipping pass, backward clamping pass).  With unit
    fidelity weights this reduces to the classic taut-string solution;
    general weights cover the boundary-fidelity terms of the Wentzell TV
    step, where the endpoint nodes carry extra mass.
    """
    a = np.asarray(signal, dtype=float)
    n = a.size
    if fidelity_weights is None:
        m = np.ones(n)
    else:
        m = np.asarray(fidelity_weights, dtype=float)
    if m.shape != a.shape or np.any(m <= 0):
        raise ValueError("fidelity weights must be positive and match the signal")
    w = float(jump_weight)
    if w < 0:
        raise ValueError("jump weight must be >= 0")
    if n == 1:
        return a.copy()
    if w == 0.0:
        return a.copy()

    # Derivative of the running value function, piecewise linear and
    # strictly increasing: knot positions xs, values ys, end slopes m_i.
    xs = [a[0]]
    ys = [0.0]
    lslope = m[0]
    rslope = m[0]
    los = np.empty(n - 1)
    his = np.empty(n - 1)
    for i in range(n - 1):
        # Clip the derivative to [-w, w]: find where it crosses -w and +w.
        lo = _plf_solve(xs, ys, lslope, rslope, -w)
        hi = _plf_solve(xs, ys, lslope, rslope, w)
        los[i], his[i] = lo, hi
        ks = [k for k in range(len(xs)) if lo < xs[k] < hi]
        xs = [lo] + [xs[k] for k in ks] + [hi]
        ys = [-w] + [ys[k] for k in ks] + [w]
        # Add the next fidelity term: derivative gains m_{i+1} (z - a_{i+1}).
        mi = m[i + 1]
        ys = [y + mi * (x - a[i + 1]) for x, y in zip(xs, ys)]
        lslope = mi
        rslope = mi

    u = np.empty(n)
    u[-1] = _plf_solve(xs, ys, lslope, rslope, 0.0)
    for i in range(n - 2, -1, -1):
        u[i] = min(max(u[i + 1], los[i]), his[i])
    return u


def _plf_solve(xs, ys, lslope, rslope, target):
    """Solve f(z) = target for a piecewise-linear increasing function."""
    if ys[0] >= target:
        return xs[0] - (ys[0] - target) / lslope
    if ys[-1] <= target:
        return xs[-1] + (target - ys[-1]) / rslope
    k = int(np.searchsorted(np.asarray(ys), target, side="left"))
    y0, y1 = ys[k - 1], ys[k]
    x0, x1 = xs[k - 1], xs[k]
    if y1 == y0:
        return x0
    return x0 + (target - y0) * (x1 - x0) / (y1 - y0)


def fd_gradient(fn, x, step=1e-6):
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e.flat[k] = step
        g.flat[k] = (fn(x + e) - fn(x - e)) / (2.0 * step)
    return g


def conjugate_grid(j, omega, radius0=1.0, radius_cap=1e8, tol=1e-11):
    """Brute-force scalar convex conjugate sup_s (omega s - j(s)).

    Doubles the search radius until the maximizer is interior, then
    refines by golden section; returns inf when the maximizer stays glued
    to the boundary up to the radius cap.
    """
    radius = radius0
    best_x = 0.0
    while True:
        grid = np.linspace(-radius, radius, 4097)
        vals = omega * grid - np.asarray(j(grid), dtype=float)
        k = int(np.argmax(vals))
        best_x = grid[k]
        if abs(best_x) < radius * 0.99:
            break
        if radius >= radius_cap:
            return float("inf")
        radius *= 2.0
    span = grid[1] - grid[0]
    a, b = best_x - span, best_x + span

    def neg(s):
        return -(omega * s - float(j(s)))

    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = neg(c), neg(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = neg(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = neg(d)
    s = 0.5 * (a + b)
    return float(omega * s - float(j(s)))


def projected_gradient_descent(grad, x0, step, iters, lower=0.0):
    """Long-run projected gradient iteration onto {x >= lower}."""
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(iters):
        x = np.maximum(x - step * grad(x), lower)
    return x


def affine_map(grad, n):
    """(A, b) with grad(u) = A u - b, for an affine ``grad`` on R^n (the
    step objective's gradient under a quadratic law), probed once at 0 and
    at the unit vectors."""
    b = -np.asarray(grad(np.zeros(n)), dtype=float)
    return np.column_stack([grad(e) + b for e in np.eye(n)]), b
