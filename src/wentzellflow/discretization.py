"""Spatial discretization: uniform grids on intervals and rectangles.

Fields are plain float arrays with one value per grid node.  Gradient
fields carry one N-vector per cell, stored as an ``(n_cells, N)`` array.
The discrete gradient is cell-centered (constant per cell in 1D, bilinear
sampled at cell centers in 2D), so it is exact on affine fields.  In 1D
its kernel is the constants alone.  In 2D it also holds the checkerboard
(-1)^(i+j) of node (i, j), whose bilinear gradient vanishes at every cell
centre (the hourglass mode of one-point quadrature on bilinear elements):
the discrete energy is blind to it, and a source-free 2D flow conserves
its moment sum(mass * checkerboard * u) besides the total mass.  Domain
quadrature is nodal trapezoidal, boundary quadrature trapezoidal on the
boundary nodes; in 1D the two boundary points carry unit weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sps

__all__ = [
    "Grid",
    "build_grid",
    "interval_grid",
    "rectangle_grid",
    "gradient",
    "trace",
    "integrate_domain",
    "integrate_boundary",
    "time_average",
    "time_moments",
    "norm_domain",
    "norm_boundary",
    "grad_norm_p",
]

# Nodes and weights of 5-point Gauss-Legendre on [-1, 1], used for the
# per-step time averages of source terms.
_GL5_NODES = np.array([
    -0.9061798459386640, -0.5384693101056831, 0.0,
    0.5384693101056831, 0.9061798459386640,
])
_GL5_WEIGHTS = np.array([
    0.2369268850561891, 0.4786286704993665, 0.5688888888888889,
    0.4786286704993665, 0.2369268850561891,
])


@dataclass(frozen=True)
class Grid:
    """Uniform grid on an interval or an axis-aligned rectangle.

    Attributes
    ----------
    dimension : 1 or 2.
    nodes : (n_nodes, dimension) node coordinates.
    node_weights : (n_nodes,) domain quadrature weights, summing to |Omega|.
    boundary_nodes : (n_boundary,) indices into ``nodes``.
    boundary_weights : (n_boundary,) surface quadrature weights, summing
        to |Gamma| (unit weights on the two endpoints in 1D).
    cell_volumes : (n_cells,) cell volumes, summing to |Omega|.
    cell_centers : (n_cells, dimension) cell midpoints.
    grad_ops : one sparse (n_cells, n_nodes) matrix per axis; stacking the
        products gives the discrete gradient.

    The lumped mass ``mass``, the stacked operator ``grad_stack`` (rows
    interleaved by cell, so ``grad_stack @ u`` reshapes to the (n_cells, N)
    gradient), its transpose ``grad_stack_t``, the Gram assembly plan
    ``gram_plan`` and the dual solver's step size and iteration operator
    ``dual_plan`` are built once, on first use, so grid construction stays
    cheap.
    """

    dimension: int
    nodes: np.ndarray
    node_weights: np.ndarray
    boundary_nodes: np.ndarray
    boundary_weights: np.ndarray
    cell_volumes: np.ndarray
    cell_centers: np.ndarray
    grad_ops: tuple

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_cells(self):
        return self.cell_volumes.shape[0]

    @property
    def domain_measure(self):
        return float(self.node_weights.sum())

    @property
    def boundary_measure(self):
        return float(self.boundary_weights.sum())

    @property
    def boundary_mass_full(self):
        """Boundary weights scattered to a full-length nodal vector."""
        m = np.zeros(self.n_nodes)
        m[self.boundary_nodes] = self.boundary_weights
        return m

    @property
    def boundary_coords(self):
        return self.nodes[self.boundary_nodes]

    @cached_property
    def mass(self):
        """Lumped mass ``node_weights + boundary_mass_full``, read-only."""
        m = self.node_weights + self.boundary_mass_full
        m.flags.writeable = False
        return m

    @cached_property
    def grad_stack(self):
        """CSR (n_cells * N, n_nodes) operator; row c * N + a is row c of
        ``grad_ops[a]``."""
        n_ax = len(self.grad_ops)
        order = np.arange(n_ax * self.n_cells).reshape(n_ax, -1).T.ravel()
        return sps.vstack(self.grad_ops, format="csr")[order]

    @cached_property
    def grad_stack_t(self):
        """Transpose of ``grad_stack``, a CSC view sharing its arrays.

        Cached because making the view costs about 15 us per call, five
        times the matvec itself on a 33-node grid."""
        return self.grad_stack.T

    @cached_property
    def gram_plan(self):
        """Assembly plan of diag + sum_c K_c^T D_c K_c (K_c the rows of
        ``grad_stack`` for cell c) in lower band storage of bandwidth
        ``kd``, 1 on intervals and nx + 2 on rectangles, whose nodes run x
        fastest (see ``_GramPlan``)."""
        return _GramPlan(self.grad_stack, self.n_cells, len(self.grad_ops))

    @cached_property
    def dual_plan(self):
        """Step size and CSR iteration operator of the dual solver on this
        grid (see ``_DualPlan``)."""
        return _DualPlan(self.grad_stack, self.grad_stack_t, self.mass)

    def check_field(self, u, name="field"):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n_nodes,):
            raise ValueError(f"{name} has shape {u.shape}, expected ({self.n_nodes},)")
        if not np.isfinite(u).all():
            raise ValueError(f"{name} contains non-finite entries")
        return u

    def check_boundary_values(self, z, name="boundary values"):
        z = np.asarray(z, dtype=float)
        nb = self.boundary_nodes.shape[0]
        if z.shape != (nb,):
            raise ValueError(f"{name} has shape {z.shape}, expected ({nb},)")
        if not np.isfinite(z).all():
            raise ValueError(f"{name} contains non-finite entries")
        return z


class _GramPlan:
    """Assembly of diag(m) + sum_c K_c^T D_c K_c straight into LAPACK lower
    band storage.

    The N rows of a cell touch the same k nodes (its stencil), so the
    cell's operator values are a (N, k) view ``local`` of the stacked
    operator's data.  The matrix is symmetric with bandwidth ``kd`` = max
    |i - j| over the stencils; its lower band storage is the (kd + 1, n)
    array ``ab[i - j, j] = a[i, j]``, j <= i <= j + kd, whose Fortran order
    puts (i, j) at the flat index i - j + (kd + 1) j.  ``scatter`` holds
    that index for each lower (cell, i, j) entry of the local k x k blocks
    (one slot past the band for the upper ones), and ``slot``, ``row`` and
    ``col`` each entry of the lower pattern, diagonal included.  A banded
    Cholesky factor costs O(n kd^2) work and O(n kd) memory.
    """

    def __init__(self, k_op, n_cells, n_ax):
        n = k_op.shape[1]
        counts = np.diff(k_op.indptr)
        k = int(counts[0])
        if np.any(counts != k):
            raise ValueError("every row of the gradient must touch k nodes")
        cols = k_op.indices.reshape(n_cells, n_ax, k)
        if np.any(cols != cols[:, :1]):
            raise ValueError("the rows of a cell must share one stencil")
        self.local = k_op.data.reshape(n_cells, n_ax, k)
        stencil = cols[:, 0].astype(np.int64)
        # entry (c, i, j) sits at row stencil[c, i], column stencil[c, j]
        rows = np.repeat(stencil, k, axis=1).ravel()
        cols = np.tile(stencil, (1, k)).ravel()
        self.kd = kd = int(np.max(rows - cols))
        self.size = (kd + 1) * n
        self.scatter = np.where(rows >= cols, rows - cols + (kd + 1) * cols,
                                self.size).astype(np.int32)
        diag = np.arange(n) * (kd + 1)
        self.slot = np.unique(np.concatenate([self.scatter[rows >= cols], diag]))
        self.col = self.slot // (kd + 1)
        self.row = self.col + self.slot % (kd + 1)

    def assemble(self, d, diag):
        """diag(diag) + sum_c K_c^T d_c K_c for per-cell (N, N) blocks d, as
        the Fortran-ordered lower band storage ``ab``."""
        blocks = np.matmul(self.local.transpose(0, 2, 1), np.matmul(d, self.local))
        band = np.bincount(self.scatter, weights=blocks.ravel(),
                           minlength=self.size + 1)
        ab = band[:self.size].reshape(self.kd + 1, -1, order="F")
        ab[0] += diag
        return ab


class _DualPlan:
    """Fixed part of the dual gradient step for  min_u 1/2 ||u||_M^2 - rhs.u
    + V(K u),  K the stacked gradient and M the lumped mass.

    From a dual point y the gradient step is

        y + tau K M^{-1} (rhs - K^T y) = B y + tau K M^{-1} rhs,
        B = I - tau K M^{-1} K^T,

    so one iteration costs one matvec with the CSR matrix ``op`` = B.  The
    step ``tau`` = 1 / (1.05 L), with L the norm reached by a seeded 60-step
    power iteration on K M^{-1} K^T.  That norm is a lower bound on the
    largest eigenvalue, and the 5% margin covers what the 60 steps leave
    unconverged, so tau stays below its inverse.
    """

    def __init__(self, k_op, k_op_t, mass):
        rng = np.random.default_rng(12345)
        z = rng.standard_normal(k_op.shape[0])
        lip = 1.0
        for _ in range(60):
            z = k_op @ ((k_op_t @ z) / mass)
            nz = np.sqrt((z * z).sum())
            if nz == 0:
                break
            lip = nz
            z /= nz
        self.tau = 1.0 / (1.05 * lip)
        gram = k_op @ sps.diags(1.0 / mass) @ k_op_t
        self.op = sps.identity(k_op.shape[0], format="csr") - self.tau * gram


def interval_grid(n, length=1.0):
    """Uniform grid with ``n`` cells on [0, length]."""
    if n < 2:
        raise ValueError("interval grid needs n >= 2 cells")
    if not length > 0:
        raise ValueError("degenerate extent: length must be > 0")
    dx = length / n
    xs = np.linspace(0.0, length, n + 1)
    nodes = xs[:, None]
    node_weights = np.full(n + 1, dx)
    node_weights[[0, -1]] = dx / 2.0
    boundary_nodes = np.array([0, n])
    boundary_weights = np.array([1.0, 1.0])
    cell_volumes = np.full(n, dx)
    cell_centers = 0.5 * (xs[:-1] + xs[1:])[:, None]
    rows = np.repeat(np.arange(n), 2)
    cols = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1).ravel()
    vals = np.tile([-1.0 / dx, 1.0 / dx], n)
    g = sps.csr_matrix((vals, (rows, cols)), shape=(n, n + 1))
    return Grid(1, nodes, node_weights, boundary_nodes, boundary_weights,
                cell_volumes, cell_centers, (g,))


def rectangle_grid(nx, ny, lx=1.0, ly=1.0):
    """Uniform nx-by-ny cell grid on [0, lx] x [0, ly]."""
    if nx < 2 or ny < 2:
        raise ValueError("rectangle grid needs nx, ny >= 2 cells")
    if not (lx > 0 and ly > 0):
        raise ValueError("degenerate extents: lx, ly must be > 0")
    dx, dy = lx / nx, ly / ny
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    # Node index (i, j) -> j * (nx + 1) + i, x varying fastest.
    xx, yy = np.meshgrid(xs, ys)
    nodes = np.column_stack([xx.ravel(), yy.ravel()])
    wx = np.full(nx + 1, dx)
    wx[[0, -1]] = dx / 2.0
    wy = np.full(ny + 1, dy)
    wy[[0, -1]] = dy / 2.0
    node_weights = (wy[:, None] * wx[None, :]).ravel()

    ii, jj = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1))
    on_boundary = (ii == 0) | (ii == nx) | (jj == 0) | (jj == ny)
    boundary_nodes = np.flatnonzero(on_boundary.ravel())
    bw = np.zeros(nodes.shape[0])
    for j in (0, ny):
        bw[j * (nx + 1) + np.arange(nx + 1)] += wx
    for i in (0, nx):
        bw[np.arange(ny + 1) * (nx + 1) + i] += wy
    boundary_weights = bw[boundary_nodes]

    n_cells = nx * ny
    cell_volumes = np.full(n_cells, dx * dy)
    cxs = 0.5 * (xs[:-1] + xs[1:])
    cys = 0.5 * (ys[:-1] + ys[1:])
    cxx, cyy = np.meshgrid(cxs, cys)
    cell_centers = np.column_stack([cxx.ravel(), cyy.ravel()])

    # Bilinear-element gradient sampled at the cell center.
    ci, cj = np.meshgrid(np.arange(nx), np.arange(ny))
    ci, cj = ci.ravel(), cj.ravel()
    n00 = cj * (nx + 1) + ci
    n10 = n00 + 1
    n01 = n00 + (nx + 1)
    n11 = n01 + 1
    rows = np.repeat(np.arange(n_cells), 4)
    cols_x = np.column_stack([n00, n10, n01, n11]).ravel()
    vals_x = np.tile([-1, 1, -1, 1], n_cells) / (2.0 * dx)
    gx = sps.csr_matrix((vals_x, (rows, cols_x)), shape=(n_cells, nodes.shape[0]))
    vals_y = np.tile([-1, -1, 1, 1], n_cells) / (2.0 * dy)
    gy = sps.csr_matrix((vals_y, (rows, cols_x)), shape=(n_cells, nodes.shape[0]))
    return Grid(2, nodes, node_weights, boundary_nodes, boundary_weights,
                cell_volumes, cell_centers, (gx, gy))


GRID_KINDS = {"interval": interval_grid, "rectangle": rectangle_grid}


def build_grid(spec):
    """Build a grid from a spec dict, e.g. ``{"kind": "interval", "n": 8}``:
    the constructor of its kind called with the other keys."""
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind not in GRID_KINDS:
        raise ValueError(f"unknown grid kind: {kind!r}")
    return GRID_KINDS[kind](**spec)


def gradient(grid, u):
    """Cell-wise discrete gradient of a nodal field, shape (n_cells, N);
    ``u`` is not checked (user fields are, by ``Grid.check_field``)."""
    return (grid.grad_stack @ u).reshape(grid.n_cells, -1)


def grad_adjoint(grid, q):
    """Adjoint pairing: nodal vector v with v . u == <q, grad u>_W for all u.

    ``q`` is (n_cells, N); the weights are the cell volumes, so this is the
    exact transpose of the weighted gradient used in the step objective.
    """
    q = np.asarray(q, dtype=float)
    return grid.grad_stack_t @ (grid.cell_volumes[:, None] * q).ravel()


def trace(grid, u):
    """Restriction of a nodal field to the boundary nodes."""
    u = grid.check_field(u)
    return u[grid.boundary_nodes]


def integrate_domain(grid, values):
    """Quadrature of nodal or cell-wise values over the domain."""
    values = np.asarray(values, dtype=float)
    if values.shape == (grid.n_nodes,):
        return float(grid.node_weights @ values)
    if values.shape == (grid.n_cells,):
        return float(grid.cell_volumes @ values)
    raise ValueError(f"values of shape {values.shape} match neither nodes "
                     f"({grid.n_nodes}) nor cells ({grid.n_cells})")


def integrate_boundary(grid, values):
    """Quadrature of boundary-node values over the boundary."""
    values = grid.check_boundary_values(values)
    return float(grid.boundary_weights @ values)


def norm_domain(grid, u, r=2):
    """Discrete L^r(Omega) norm of a nodal field."""
    u = np.asarray(u, dtype=float)
    return float((grid.node_weights @ np.abs(u) ** r) ** (1.0 / r))


def norm_boundary(grid, z, r=2):
    """Discrete L^r(Gamma) norm of boundary values."""
    z = np.asarray(z, dtype=float)
    return float((grid.boundary_weights @ np.abs(z) ** r) ** (1.0 / r))


def grad_norm_p(grid, q, p):
    """Discrete L^p norm of a cell-wise gradient field (Euclidean per cell)."""
    q = np.asarray(q, dtype=float)
    mags = np.sqrt((q * q).sum(axis=1))
    return float((grid.cell_volumes @ mags ** p) ** (1.0 / p))


def _sample(fn, t, pts):
    out = fn(t, pts)
    out = np.asarray(out, dtype=float)
    if out.shape == pts.shape[:1]:
        return out
    if out.ndim == 0:
        return np.full(pts.shape[0], float(out))
    raise ValueError(f"source returned shape {out.shape} for {pts.shape[0]} points")


def time_moments(fn, i, h, grid, where="domain", steps=None):
    """Averages of f(t, x) and of f(t, x)^2 over the i-th step interval
    [(i-1)h, ih], both from one set of samples; with ``steps`` = k, those
    of the steps i, ..., i + k - 1 as (k, n) arrays, a single step being a
    block of one.

    Uses fixed 5-point Gauss-Legendre quadrature in t and samples at the
    grid nodes (``where="domain"``) or boundary nodes (``where="boundary"``).
    ``fn`` takes a scalar time and the (n, N) sample points.  A source with
    ``at_times(ts, points)`` (``expressions.make_source``) is sampled at the
    block's 5k times in one call; any other source is called once per
    time.  The sums build up in one order on both paths, so a step's
    moments are bit for bit the same whatever block it is in.
    """
    if i < 1:
        raise ValueError("step index must be >= 1")
    if not h > 0:
        raise ValueError("step size must be > 0")
    k = 1 if steps is None else steps
    pts = grid.nodes if where == "domain" else grid.boundary_coords
    n = pts.shape[0]
    ts = ((i - 1 + np.arange(k)) * h + h / 2.0)[:, None] + h / 2.0 * _GL5_NODES
    if hasattr(fn, "at_times"):
        vals = fn.at_times(ts.ravel(), pts).reshape(ts.shape + (n,))
    else:
        vals = np.array([[_sample(fn, t, pts) for t in row] for row in ts])
    acc = np.zeros((k, n))
    acc_sq = np.zeros((k, n))
    for j, w in enumerate(_GL5_WEIGHTS):
        v = vals[:, j]
        acc += w * v
        acc_sq += w * (v * v)
    if steps is None:
        return acc[0] / 2.0, acc_sq[0] / 2.0
    return acc / 2.0, acc_sq / 2.0


def time_average(fn, i, h, grid, where="domain"):
    """Average of f(t, x) over the i-th step interval (``time_moments``)."""
    return time_moments(fn, i, h, grid, where)[0]
