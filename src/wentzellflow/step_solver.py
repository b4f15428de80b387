"""One implicit time step as a convex minimization.

The step objective is

    phi(u) = 1/2 int_Omega u^2 + h int_Omega j(t, x, grad u)
             + 1/2 int_Gamma u^2 - b(u),
    b(psi) = int_Omega w1 psi + int_Gamma w2 psi,

discretized with the grid quadrature.  Its Hessian is SPD on the grid's
fixed pattern of bandwidth kd (1 on intervals, nx + 2 on rectangles), so
one damped Newton (``_minimize_newton``, each system one banded Cholesky
solve by LAPACK's pbtrf and pbtrs) minimizes every smooth problem of the
package.  The route a step takes follows its flux law; each is described
where it is implemented:

- a smooth law: one Newton stage (``_continuation``), on wide bands with a
  factor held over the flow (``_LaggedFactor``);
- another law: a continuation in the envelope parameter lam
  (``_continuation``), which returns the lam_min envelope's flux; a
  stalled continuation, or one whose last stage misses ``tol`` or whose
  flux misses ``certificate_tol``, goes to the dual route
  (``_dual_finish``), the multiplier loop (``_multiplier_finish``);
- a law with a flux jump: the same stages as a warm-up, ended at the first
  that backtracks or stalls, then the multiplier loop;
- a step of a law with a flux jump handed the previous step's dual point
  (``StepSolution.dual``, which ``run_flow`` carries) runs the multiplier
  loop from it at once, and the cold route after a loop that misses
  (``solve_step``);
- total variation: the accelerated dual solver (``_dual_solve``), then
  the multiplier loop (``_solve_tv``);
- the obstacle step u >= 0: the same stages by a semismooth Newton
  (``solve_step_obstacle``).

Every route ends in ``_finish``, which certifies the returned pair by its
weak-form residual and per-cell Fenchel gaps j(grad u) + j*(eta) -
eta . grad u.

User data is checked at the public entries only; the inner loop trusts its
own arrays (``FluxModel``), and a step whose iterate overflows raises
StepNonConverged from ``_finish``, never returning a non-finite field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from . import discretization as disc
from . import flux_models as fm

__all__ = [
    "StepConfig",
    "StepSolution",
    "StepNonConverged",
    "step_objective",
    "step_objective_grad",
    "regularized_objective",
    "regularized_objective_grad",
    "solve_step",
    "solve_step_obstacle",
    "tv_step",
]


def __getattr__(name):
    """``perfbench/spans.py`` wraps ``spsolve`` and ``lsq_linear``, which no
    route calls; each is imported at its first lookup (PEP 562), so that
    importing the package loads neither ``scipy.sparse.linalg`` nor
    ``scipy.optimize``."""
    if name == "spsolve":
        from scipy.sparse.linalg import spsolve
        return spsolve
    if name == "lsq_linear":
        from scipy.optimize import lsq_linear
        return lsq_linear
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class StepNonConverged(RuntimeError):
    """Step solver failed to meet its tolerances."""

    def __init__(self, message, residual=None, log=None):
        super().__init__(message)
        self.residual = residual
        self.log = log or []


@dataclass
class StepConfig:
    """Solver and continuation parameters for one implicit step.

    ``tol`` bounds the returned field's weak-form residual (on an obstacle
    step its complementarity measure) and ``certificate_tol`` its Fenchel
    certificate.  The dual route's cold target is a certificate of
    ``1e-3 * certificate_tol`` (never below 1e-14; ``_gap_target``), at
    which each of its solvers stops or from which it sets its own stop.
    ``max_iter`` bounds the Newton iterations of a stage or of a multiplier
    round's inner solve (CG iterations on a lagged factor do not count);
    ``pd_max_iter`` bounds a TV step's accelerated dual iterations, before
    the multiplier loop and after a fallback together; no other step runs
    them.  Both limits must be positive.
    ``lam0``, ``lam_decay`` and ``lam_min`` set a nonsmooth law's envelope
    continuation.  A step that ends on it returns the minimizer of the
    lam_min envelope problem with that envelope's flux, a subgradient at
    grad u - lam_min eta, whose Fenchel certificate scales with
    ``lam_min``, so tightening ``certificate_tol`` requires tightening
    ``lam_min`` along with it; a step finished on the dual route (as most
    steps of a law with a flux jump are) returns a dual-feasible field
    instead.
    """

    tol: float = 1e-8
    lam0: float = 1.0
    lam_decay: float = 0.25
    lam_min: float = 1e-6
    max_iter: int = 80
    certificate_tol: float = 1e-6
    pd_max_iter: int = 400000

    def __post_init__(self):
        if not (self.lam0 > self.lam_min > 0):
            raise ValueError("BADCONFIG: need lam0 > lam_min > 0")
        if not (0 < self.lam_decay < 1):
            raise ValueError("BADCONFIG: lam_decay must be in (0, 1)")
        if not (self.tol > 0 and self.certificate_tol > 0):
            raise ValueError("BADCONFIG: tolerances must be positive")
        if not (self.max_iter > 0 and self.pd_max_iter > 0):
            raise ValueError("BADCONFIG: iteration limits must be positive")

    def lam_schedule(self):
        lams = []
        lam = self.lam0
        while lam > self.lam_min * (1.0 + 1e-12):
            lams.append(lam)
            lam *= self.lam_decay
        lams.append(self.lam_min)
        return lams


@dataclass
class StepSolution:
    """Result of one implicit step.

    ``residual`` is the max-norm of the mass-scaled weak-form residual of
    the returned pair (u, eta) (for the obstacle variant it is the
    complementarity measure instead);
    ``fenchel_total`` is sum_cells vol * (j(grad u) + j*(eta) - eta.grad u),
    the optimizer certificate that eta is (close to) a section of the
    subdifferential at grad u.  ``dual`` is the dual point p = h vol eta,
    an (n_cells, N) array, of a step that ended on the dual route (a
    total-variation step or a multiplier loop), else None; a flow hands it
    to its next step, which starts from it if its law is TV or has a flux
    jump.
    """

    u: np.ndarray
    eta: np.ndarray
    objective: float
    residual: float
    fenchel_cells: np.ndarray
    fenchel_total: float
    iterations: list = field(default_factory=list)
    complementarity: float | None = None
    dual: np.ndarray | None = None


# ---------------------------------------------------------------------------
# objective pieces


def _rhs(grid, w1, w2):
    rhs = grid.node_weights * w1
    rhs[grid.boundary_nodes] += grid.boundary_weights * w2
    return rhs


def _quad_part(mass, rhs, u):
    return 0.5 * float(u @ (mass * u)) - float(rhs @ u)


def _weak_form(grid, h, u, eta, rhs):
    """Weak-form residual vector M u + h K^T W eta - rhs of (u, eta)."""
    return grid.mass * u + h * disc.grad_adjoint(grid, eta) - rhs


def _weak_residual(grid, h, u, eta, rhs):
    """Max-norm of the mass-scaled weak-form residual of (u, eta)."""
    return _scaled_max(grid, _weak_form(grid, h, u, eta, rhs))


def _scaled_max(grid, weak):
    """Max-norm of a weak-form vector scaled by the lumped mass."""
    return float((np.abs(weak) / grid.mass).max())


def _check_data(grid, h, w1, w2):
    """The step data (w1, w2) as checked float arrays; h must be positive."""
    if not h > 0:
        raise ValueError("step size h must be positive")
    return (grid.check_field(np.asarray(w1, dtype=float), "w1"),
            grid.check_boundary_values(np.asarray(w2, dtype=float), "w2"))


def _entry_problem(grid, model, t, h, lam, w1, w2):
    """A public objective entry's stage problem, its data checked by
    ``_check_data`` and lam, where given, positive."""
    if not (lam is None or lam > 0):
        raise ValueError("lam must be positive")
    return _StageProblem(grid, model, t, h, *_check_data(grid, h, w1, w2), lam)


def step_objective(grid, model, t, h, w1, w2, u):
    """Value of the implicit-step functional phi(u)."""
    prob = _entry_problem(grid, model, t, h, None, w1, w2)
    return prob.value(grid.check_field(u))


def step_objective_grad(grid, model, t, h, w1, w2, u):
    """Selection-based gradient of phi (the true gradient on smooth laws)."""
    prob = _entry_problem(grid, model, t, h, None, w1, w2)
    return prob.grad(grid.check_field(u))


def regularized_objective(grid, model, t, h, lam, w1, w2, u):
    """phi with j replaced by its lam-envelope."""
    prob = _entry_problem(grid, model, t, h, lam, w1, w2)
    return prob.value(grid.check_field(u))


def regularized_objective_grad(grid, model, t, h, lam, w1, w2, u):
    """Gradient of ``regularized_objective``."""
    prob = _entry_problem(grid, model, t, h, lam, w1, w2)
    return prob.grad(grid.check_field(u))


def _curv_blocks(grid, curv, h):
    """Per-cell (N, N) blocks d_c = h vol_c C_c of the generalized Hessian
    M + sum_c K_c^T d_c K_c; C_c is the cell's clipped diagonal or radial
    curvature.  ``gram_plan.assemble`` turns them into the band,
    ``_hess_product`` into the matrix-free product."""
    vol = grid.cell_volumes
    n_ax = len(grid.grad_ops)
    ax = np.arange(n_ax)
    if curv[0] == "diag":
        d = np.zeros((grid.n_cells, n_ax, n_ax))
        d[:, ax, ax] = np.clip(curv[1], 0.0, 1e14)
    else:
        _, cpar, cperp, rhat = curv
        cpar = np.clip(cpar, 0.0, 1e14)
        cperp = np.clip(cperp, 0.0, 1e14)
        d = (cpar - cperp)[:, None, None] * rhat[:, :, None] * rhat[:, None, :]
        d[:, ax, ax] += cperp[:, None]
    d *= (h * vol)[:, None, None]
    return d


def _hess_product(grid, blocks):
    """v -> M v + K^T (d K v), the product with the matrix whose band
    ``grid.gram_plan.assemble(blocks, grid.mass)`` stores, without it.

    d K v is taken cell by cell, d_c times (K v)_c, by the diagonal and,
    where a block has one, the off-diagonal of the symmetric (N, N) block:
    the sums a block matvec forms, so the product is the same float."""
    k_op, kt_op, m = grid.grad_stack, grid.grad_stack_t, grid.mass
    n_cells, n_ax = blocks.shape[:2]
    diag = blocks[:, range(n_ax), range(n_ax)]
    off = blocks[:, 0, 1:] if n_ax == 2 and blocks[:, 0, 1].any() else None

    def apply(v):
        kv = (k_op @ v).reshape(n_cells, n_ax)
        dkv = diag * kv
        if off is not None:
            dkv += off * kv[:, ::-1]
        return m * v + kt_op @ dkv.ravel()

    return apply


class _StageProblem:
    """Objective/gradient/Hessian of one continuation stage, phi with j
    replaced by its lam-envelope (phi itself for lam=None), sharing the
    envelope evaluation at a given u.  The lumped mass M makes every stage
    strongly convex.

    This is the one evaluator of the step functional (``step_objective``)
    and its envelope forms (``regularized_objective``).  A value alone (a
    line-search trial) costs grad u and the envelope value (the potential
    on the smooth problem), the same float the full evaluation gives; the
    flux, weak form and curvature follow when the gradient or Hessian is
    asked for.  The last two points are kept, so a rejected full Newton
    step and its line search's start are not evaluated twice, and a
    Newton stage's caller reads grad u, the flux and the weak form at the
    field it returns off its last evaluation (``evaluate``).  A
    multiplier ``shift`` (an (n_cells, N) array) moves the envelope's
    argument to grad u + shift, the inner problem of a multiplier round.
    """

    def __init__(self, grid, model, t, h, w1, w2, lam, shift=None):
        self.grid = grid
        self.model = model
        self.t, self.h = t, h
        self.lam = lam
        self.shift = shift
        self.mass = grid.mass
        self.rhs = _rhs(grid, w1, w2)
        self._states = {}

    def _state(self, u):
        key = u.tobytes()
        state = self._states.get(key)
        if state is None:
            if len(self._states) > 1:
                del self._states[next(iter(self._states))]
            gu = disc.gradient(self.grid, u)
            state = self._states[key] = {
                "gu": gu, "arg": gu if self.shift is None else gu + self.shift}
        return state

    def evaluate(self, u):
        """The state at u: its gradient "gu", the flux "eta" (the selection,
        or the envelope's flux at grad u + shift) and the weak form "g" of
        (u, eta), the gradient of this problem."""
        state = self._state(u)
        if "g" not in state:
            grid, model, gu = self.grid, self.model, state["gu"]
            if self.lam is None:
                eta = model.select(self.t, grid.cell_centers, gu)
            else:
                state["jv"], eta, state["curv"] = model.envelope_pack(
                    self.t, grid.cell_centers, self.lam, state["arg"])
            state["eta"] = eta
            state["g"] = _weak_form(grid, self.h, u, eta, self.rhs)
        return state

    def value(self, u):
        state = self._state(u)
        if "val" not in state:
            grid, gu = self.grid, state["gu"]
            jv = state.get("jv")
            if jv is None:
                jv = state["jv"] = (
                    self.model.potential(self.t, grid.cell_centers, gu)
                    if self.lam is None else
                    self.model.moreau(self.t, grid.cell_centers, self.lam,
                                      state["arg"]))
            state["val"] = (_quad_part(self.mass, self.rhs, u)
                            + self.h * float(grid.cell_volumes @ jv))
        return state["val"]

    def grad(self, u):
        return self.evaluate(u)["g"]

    def hess_blocks(self, u):
        """Per-cell blocks of the generalized Hessian (``_curv_blocks``)."""
        state = self.evaluate(u)
        curv = state.get("curv")
        if curv is None:
            curv = self.model.curvature(self.t, self.grid.cell_centers,
                                        state["gu"])
        return _curv_blocks(self.grid, curv, self.h)

    def hess(self, u):
        """The generalized Hessian in the lower band storage of
        ``grid.gram_plan``."""
        return self.grid.gram_plan.assemble(self.hess_blocks(u), self.mass)


# ---------------------------------------------------------------------------
# inner minimizers

def _band_cholesky(ab, rhs):
    """(x, factor) of A x = rhs by LAPACK dpbtrf and dpbtrs on A's lower band
    storage ``ab`` (from ``plan.assemble``; overwritten); LinAlgError if A
    is not positive definite after rounding."""
    factor, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpbtrf: info {info}")
    return dpbtrs(factor, rhs, lower=1)[0], factor


def _newton_solve(plan, ab, rhs, fixed=None):
    """Solve A d = rhs by ``_band_cholesky``.  Rows and columns flagged in
    the boolean mask ``fixed`` become those of the identity with a zero
    right-hand side, so d vanishes there and the free block is solved as
    the principal submatrix."""
    if fixed is not None:
        ab.ravel(order="F")[plan.slot[fixed[plan.row] | fixed[plan.col]]] = 0.0
        ab[0, fixed] = 1.0
        rhs = np.where(fixed, 0.0, rhs)
    return _band_cholesky(ab, rhs)[0]


# CG iterations on one Newton system before the held factor is replaced.  A
# factorization costs about n kd^2 flops and a CG iteration about 4 n kd, so
# reuse pays on grids with kd >= 4 * _CG_CAP (rectangles 30 cells wide and up).
_CG_CAP = 8


def _takes_guess(grid, model):
    """Whether a step of ``model`` on ``grid`` tries ``solve_step``'s
    ``guess``: a smooth law on the direct banded solve, kd < 4 * _CG_CAP
    (``_continuation``)."""
    return model.is_smooth and grid.gram_plan.kd < 4 * _CG_CAP


class _LaggedFactor:
    """Banded Cholesky factor of an earlier Newton system, held across the
    Newton iterations and steps of one smooth flow.

    Each Newton direction solves the current system H d = -g by conjugate
    gradients on the matrix-free product, preconditioned by the held factor,
    to the inexact-Newton forcing term ||r|| <= min(0.1, res) ||g||
    (Dembo, Eisenstat and Steihaug, SIAM J. Numer. Anal. 19, 1982).  If CG
    misses it within ``_CG_CAP`` iterations or meets a direction of
    nonpositive curvature, the held factor is dropped and H is assembled,
    factored in place and kept, and d is its direct solve, both by
    ``_band_cholesky``, the solve of ``_newton_solve``.  ``factor`` is None
    until the first factorization and after a failed one.
    """

    def __init__(self):
        self.factor = None

    def direction(self, prob, u, g, res, counts):
        """Newton direction at u, with ``counts``' "factorizations" and
        "cg_iters" advanced; raises numpy.linalg.LinAlgError if H is not
        positive definite after rounding."""
        blocks = prob.hess_blocks(u)
        if self.factor is not None:
            d, iters = self._pcg(_hess_product(prob.grid, blocks), -g,
                                 min(0.1, res) * math.sqrt(float(g @ g)))
            counts["cg_iters"] += iters
            if d is not None:
                return d
        self.factor = None
        counts["factorizations"] += 1
        d, self.factor = _band_cholesky(
            prob.grid.gram_plan.assemble(blocks, prob.mass), -g)
        return d

    def _pcg(self, apply_h, b, tol):
        """CG on H x = b from x = 0, preconditioned by the held factor;
        returns (x, iterations), x None on a miss."""
        x = np.zeros_like(b)
        r = b.copy()
        z = dpbtrs(self.factor, r, lower=1)[0]
        p = z
        rz = float(r @ z)
        for it in range(1, _CG_CAP + 1):
            hp = apply_h(p)
            php = float(p @ hp)
            if not php > 0:
                return None, it
            alpha = rz / php
            x += alpha * p
            r -= alpha * hp
            if math.sqrt(float(r @ r)) <= tol:
                return x, it
            z = dpbtrs(self.factor, r, lower=1)[0]
            rz, rz_old = float(r @ z), rz
            p = z + (rz / rz_old) * p
        return None, _CG_CAP


def _stage_entries(iters, residual, exit_, fallbacks, backtracks, ls_floor,
                   counts=None):
    """A Newton stage's log entries.  "fallbacks", the number of Newton
    systems whose factorization failed, "backtracks", the line searches'
    rejected trials, and "ls_floor", the line searches that reached the
    1e-14 floor without sufficient decrease, are there only when nonzero,
    as "rescue" is only on rescue stages; "factorizations" and "cg_iters"
    (``counts``) only on a stage that reused a lagged factor."""
    entries = {"iters": iters, "residual": residual, "exit": exit_}
    for key, value in (("fallbacks", fallbacks), ("backtracks", backtracks),
                       ("ls_floor", ls_floor)):
        if value:
            entries[key] = value
    if counts is not None:
        entries.update(counts)
    return entries


def _minimize_newton(prob, u0, tol, max_iter, lagged=None, nonneg=False):
    """Damped Newton, over u >= 0 when ``nonneg``.

    The residual is max |min(u, r)|, r = M^{-1} g (max |r| without the
    bound).  On the bound each iteration is a semismooth Newton step on
    min(u, r) = 0 (the primal-dual active-set method of Hintermueller, Ito
    and Kunisch, SIAM J. Optim. 13, 2002): the nodes of A = {r > u} move to
    0 and the Newton system is solved on the rest.  The full step is taken
    whenever it cuts the residual to 0.9x (the endgame, where objective
    differences sit below rounding), on the bound only if it also raises
    the objective by at most 1e-12 of its size, since no stall exit or
    rescue stops a cycle of full steps there; otherwise the Armijo line
    search ``_armijo`` on the objective globalizes, interpolating off the
    bound and halving on it.  Each direction is the
    banded Cholesky solve of the Newton system, or, given a
    ``_LaggedFactor`` ``lagged`` (never on the bound), its inexact solve by
    CG preconditioned with that factor.  A Newton system that is not
    positive definite, or a direction that is not one of descent, gives
    way to the scaled gradient -M^{-1} g.  A stall (no 2x progress over 12
    iterations) ends the loop off the bound; on it the returned u is >= 0
    exactly and the residual is taken there.  A residual that is not finite
    (an iterate that overflowed) ends the loop at once.  Returns the final
    u and its stage log entries (see ``_stage_entries``), with exit
    "converged", "stall", "nonfinite" or "max_iter".
    """
    u = u0.copy()
    m = prob.mass
    plan = prob.grid.gram_plan
    best = np.inf
    since_best = 0
    res = np.inf
    fallbacks = backtracks = ls_floor = 0
    counts = None if lagged is None else {"factorizations": 0, "cg_iters": 0}
    it = 0
    exit_ = "max_iter"

    def residual(v, g):
        r = g / m
        return float(np.abs(np.minimum(v, r) if nonneg else r).max()), r

    for it in range(max_iter + 1):
        g = prob.grad(u)
        res, r = residual(u, g)
        if res <= tol and not (nonneg and u.min() < 0.0):
            exit_ = "converged"
            break
        if not math.isfinite(res):
            exit_ = "nonfinite"
            break
        if res < 0.5 * best:
            best, since_best = res, 0
        else:
            since_best += 1
            if since_best > 12 and it >= 15 and not nonneg:
                exit_ = "stall"
                break
        if it == max_iter:
            break
        active = r > u if nonneg else None
        try:
            if active is not None and active.any():
                # d = -u on A, so the free rows' right-hand side gains H_FA u_A
                u_a = np.where(active, u, 0.0)
                rhs = -g
                if u_a.any():
                    rhs = rhs + _hess_product(prob.grid, prob.hess_blocks(u))(u_a)
                d = _newton_solve(plan, prob.hess(u), rhs, fixed=active) - u_a
            elif lagged is None:
                d = _newton_solve(plan, prob.hess(u), -g)
            else:
                d = lagged.direction(prob, u, g, res, counts)
            slope = float(g @ d)
        except np.linalg.LinAlgError:
            fallbacks += 1
            slope = np.nan
        if not np.isfinite(slope) or slope >= 0:
            d = -g / m
            slope = float(g @ d)
        un_full = u + d
        if residual(un_full, prob.grad(un_full))[0] <= 0.9 * res and (
                not nonneg or prob.value(un_full)
                <= prob.value(u) + 1e-12 * abs(prob.value(u))):
            u = un_full
            continue
        u, rejected, floored = _armijo(prob, u, d, slope, nonneg)
        backtracks += rejected
        ls_floor += floored
    if nonneg and u.min() < 0.0:
        u = np.maximum(u, 0.0)
        res = residual(u, prob.grad(u))[0]
    return u, _stage_entries(it, res, exit_, fallbacks, backtracks, ls_floor,
                             counts)


def _armijo(prob, u, d, slope, nonneg=False):
    """Armijo backtracking on the objective along d from u, from the full
    step alpha = 1: the first trial point u + alpha d (projected onto
    u >= 0 when ``nonneg``) whose value is at most f(u) + 1e-4 alpha slope.

    Off the bound a rejected alpha gives way to the minimizer of the
    quadratic through f(u), the slope and f(u + alpha d), clamped to
    [0.1 alpha, 0.5 alpha], or to alpha / 2 when that quadratic does not
    curve upward (safeguarded interpolation: Nocedal and Wright, Numerical
    Optimization, 2nd ed., Sec. 3.5).  At small lam a stage's Newton model
    holds only inside the envelope's narrow kink window, so the accepted
    step can be 2^-20 of the full one: interpolation reaches it in a few
    trials where halving takes twenty.  On the bound the projected path is
    not the smooth restriction the quadratic models, so alpha halves.
    Returns (point, rejected trials, floored); once alpha falls to 1e-14
    the last trial is returned with floored True.
    """
    f0 = prob.value(u)
    alpha = 1.0
    rejected = 0
    while alpha > 1e-14:
        un = u + alpha * d
        if nonneg:
            un = np.maximum(un, 0.0)
        f = prob.value(un)
        if f <= f0 + 1e-4 * alpha * slope:
            return un, rejected, False
        rejected += 1
        curv = f - f0 - slope * alpha
        if nonneg or not curv > 0:
            alpha *= 0.5
        else:
            alpha = min(max(-slope * alpha * alpha / (2.0 * curv), 0.1 * alpha),
                        0.5 * alpha)
    return un, rejected, True


def _finish(grid, model, t, h, w1, w2, u, eta, cfg, log,
            complementarity=None, dual=None, gaps=None, weak=None):
    """The step's ``StepSolution``, or StepNonConverged if it misses a
    tolerance.  ``gaps`` (per-cell Fenchel gaps) and ``weak`` (the weak
    form of (u, eta)) are the route's own when it already holds them.
    The residual is tested first, so the gaps of a field that overflowed
    are never taken, and each test fails on NaN: such a step raises."""
    # the constrained step replaces stationarity by complementarity
    residual = complementarity
    if residual is None:
        residual = (_weak_residual(grid, h, u, eta, _rhs(grid, w1, w2))
                    if weak is None else _scaled_max(grid, weak))
    if not residual <= cfg.tol:
        measure = ("stationarity residual" if complementarity is None
                   else "complementarity measure")
        raise StepNonConverged(
            f"{measure} {residual:.3e} exceeds tol {cfg.tol:.1e}",
            residual=residual, log=log)
    if gaps is None:
        gaps = model.fenchel_gap(t, grid.cell_centers,
                                 disc.gradient(grid, u), eta)
    total = float(grid.cell_volumes @ gaps)
    if not float(gaps.min()) >= -1e-10:
        raise StepNonConverged(
            f"negative Fenchel gap {gaps.min():.3e}", residual=residual, log=log)
    if not total <= cfg.certificate_tol:
        raise StepNonConverged(
            f"Fenchel certificate {total:.3e} exceeds {cfg.certificate_tol:.1e}",
            residual=residual, log=log)
    return StepSolution(u=u, eta=eta, objective=log[-1]["objective"],
                        residual=residual, fenchel_cells=gaps,
                        fenchel_total=total, iterations=log,
                        complementarity=complementarity, dual=dual)


def _start(grid, w1, w2, u0=None):
    return (_rhs(grid, w1, w2) / grid.mass if u0 is None
            else grid.check_field(u0).copy())


def _dual_solve(grid, w1, w2, prox, gap_of, gap_target, max_iter, p0=None,
                handover=0.0, handover_cap=np.inf):
    """Accelerated dual solve of  min_u 1/2||u||_M^2 - b(u) + V(K u).

    FISTA on the dual with gradient-based adaptive restart (Beck-Teboulle
    2009; O'Donoghue-Candes 2015).  The step tau and the operator
    B = I - tau K M^{-1} K^T come from ``grid.dual_plan``, so the gradient
    step B y + tau K M^{-1} rhs costs one sparse matvec; the state is kept
    in flat vectors, viewed as (n_cells, N) only for the prox and the gap.
    The caller supplies the per-cell dual prox ``prox(x) = prox_{tau V*}(x)``
    and the gap measure ``gap_of(p, K u)``, checked against ``gap_target``
    after the first iteration (so a converged start exits at once) and then
    every 50 iterations.  The primal iterate u = M^{-1}(rhs - K^T p)
    is dual-feasible, so the weak-form residual with flux p / (h vol)
    vanishes identically.  Returns (u, p, gap, iters, exit), exit being
    "converged", "handover" (the gap is below ``handover`` times the first
    check's and below ``handover_cap``, and fell less than tenfold since
    the last check: the iteration is in its slow tail), "stall" (no gap
    progress over 50 checks) or "max_iter".
    """
    m = grid.mass
    rhs = _rhs(grid, w1, w2)
    shape = (grid.n_cells, len(grid.grad_ops))
    k_op, kt_op = grid.grad_stack, grid.grad_stack_t
    plan = grid.dual_plan
    b_op = plan.op
    shift = plan.tau * (k_op @ (rhs / m))

    def primal(p):
        return (rhs - kt_op @ p) / m

    p = np.zeros(b_op.shape[0]) if p0 is None else p0.flatten()
    y = p
    theta = 1.0
    gap = first = np.inf
    best_gap = np.inf
    stall = 0
    it = -1
    exit_ = "max_iter"
    for it in range(max_iter):
        x = b_op @ y
        x += shift
        p_new = prox(x.reshape(shape)).ravel()
        theta_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        step = p_new - p
        # gradient-based adaptive restart
        if np.dot(y - p_new, step) > 0:
            y, theta = p_new, 1.0
        else:
            y, theta = p_new + (theta - 1.0) / theta_new * step, theta_new
        p = p_new
        if it == 0 or it % 50 == 49 or it == max_iter - 1:
            last, gap = gap, gap_of(p.reshape(shape),
                                    (k_op @ primal(p)).reshape(shape))
            if gap <= gap_target:
                exit_ = "converged"
                break
            if it == 0:
                first = gap
            elif min(handover * first, handover_cap) >= gap > 0.1 * last:
                exit_ = "handover"
                break
            if gap < best_gap * (1.0 - 1e-9):
                best_gap = gap
                stall = 0
            else:
                stall += 1
                if stall > 50:
                    exit_ = "stall"
                    break
    return primal(p), p.reshape(shape), gap, it + 1, exit_


def _inter_tol(cfg):
    """Residual tolerance of an intermediate continuation stage, and the
    loosest a multiplier round's inner solve of a non-TV step may take: a
    warm start's quality is absolute, not relative to ``tol``."""
    return min(1e-8, max(100.0 * cfg.tol, 1e-12))


def _gap_target(cfg):
    """Fenchel total at which the dual solver stops."""
    return max(1e-14, 1e-3 * cfg.certificate_tol)


def _dual_finish(grid, model, t, h, w1, w2, cfg, p0, log, warm=False):
    """Finish a nonsmooth step on the dual route from the dual point p0 (an
    (n_cells, N) array p = h vol eta): the previous step's dual when
    ``warm``, else the flux of the stage that handed over (the lam_min
    envelope's flux at its field; see ``_continuation``).  Appends the
    route's log entry and returns (u, eta, p), or None when a warm start
    misses.

    It runs the multiplier loop ``_multiplier_finish`` from p0 on the
    Fenchel gap (exact but for a ``Custom`` law's) for up to 40 rounds,
    whose inner solves stop no looser than an intermediate continuation
    stage (log entry ``rescue`` "loop", with its ``certificate``).  It
    stops at 1e-4 of the cold gap target, or at 1e-3 of it once a round
    gains nothing (the inner solves' rounding floor): a stop at 1e-3 alone
    lands the 40-step fractured-1d benchmark flow 7e-8 off a tight solve of
    its step maps, against 2e-8 at 1e-4.  A loop that misses 1e-3 of the
    target marks its entry ``fallback``; that ends a warm start, and a cold
    one returns the loop's best dual-feasible point, whose certificate
    ``_finish`` judges.
    """
    target = h * _gap_target(cfg)
    xs, vol = grid.cell_centers, grid.cell_volumes
    a = (h * vol)[:, None]

    def gap_of(p, q):
        # h times the Fenchel certificate of p = h vol eta at K u = q
        try:
            return h * float(vol @ model.fenchel_gap(t, xs, q, p / a))
        except fm.UnboundedConjugate:
            return np.inf

    u, p, gap, entry = _multiplier_finish(
        grid, model, t, h, w1, w2, p0, gap_of, 1e-4 * target, cfg,
        max_rounds=40, tol_cap=_inter_tol(cfg), accept=1e-3 * target)
    entry.update(rescue="loop", certificate=gap / h)
    log.append(entry)
    return None if warm and "fallback" in entry else (u, p / a, p)


def _continuation(grid, model, t, h, w1, w2, u, cfg, log, lagged,
                  nonneg=False, guess=None):
    """Run the Newton stages of a step, over u >= 0 when ``nonneg``: one
    stage, lam None, for a smooth law, else one per lam of the schedule,
    each minimizing its lam-envelope problem alone, with a warm-start
    tolerance on every stage but the last.  Returns (u, eta, gu, weak, jv,
    clean): eta the selection at u for a smooth law, else the flux of the
    lam_min envelope at u, the flux a clean step returns; gu = grad u; weak
    and jv the weak form of (u, eta) and the per-cell potential j(gu) for
    a smooth law, else None.  gu, weak and jv are read off the last Newton
    evaluation and the logged objective, which are at u.

    The smooth law's one stage reuses the ``_LaggedFactor`` ``lagged`` on
    grids with kd >= 4 * _CG_CAP; continuation stages change lam severalfold
    from one stage to the next, which ruins a lagged factor, and smaller
    bands factor faster than CG iterates, so they keep the direct solve.
    On the direct solve the smooth stage starts from ``guess`` when given
    (``run_flow`` hands an extrapolant of the past fields), and reruns from
    u if that does not converge, the miss kept as its own entry marked
    "start": "extrapolated": from a far start the stall rule can end a
    damped Newton whose objective is still falling.  The lagged path
    ignores the guess (``_takes_guess``), since a closer start tightens
    the CG forcing term min(0.1, res) and costs more CG iterations than
    it saves Newton iterations.
    ``clean`` turns False, and the stages end, when a stage stalls far above
    its target (active sets chattering on the jump set); the caller then
    hands the field to the dual route instead of grinding through the
    remaining stages.  For a law with a flux jump (``kink_scale`` > 0) the
    stages are only a warm-up for the multiplier loop, and they end at the
    first stage that rejects a full Newton step (``backtracks``) or stalls:
    its Newton model has left the envelope's narrow kink window (see
    ``_armijo``), which the smaller lam of the later stages only narrows,
    while the loop's rounds work at a fixed, wider lam.  On the bound there
    is no such exit and every stage runs.
    """
    if grid.gram_plan.kd < 4 * _CG_CAP:
        lagged = None
    if not _takes_guess(grid, model):
        guess = None
    stages = [(None, cfg.tol)]
    if not model.is_smooth:
        *lams, last = cfg.lam_schedule()
        stages = [(lam, _inter_tol(cfg)) for lam in lams] + [(last, cfg.tol)]
    warm_up = model.kink_scale > 0
    clean = True
    for lam, stage_tol in stages:
        prob = _StageProblem(grid, model, t, h, w1, w2, lam)
        lag = lagged if lam is None else None
        stage = None
        if guess is not None:
            u_new, stage = _minimize_newton(prob, guess, stage_tol,
                                            cfg.max_iter, lag, nonneg)
            if stage["exit"] != "converged":
                log.append({"lam": 0.0, **stage, "start": "extrapolated",
                            "objective": prob.value(u_new)})
                stage = None
        if stage is None:
            u_new, stage = _minimize_newton(prob, u, stage_tol, cfg.max_iter,
                                            lag, nonneg)
        u = u_new
        log.append({"lam": lam or 0.0, **stage, "objective": (
            prob.value(u) if lam is None
            else step_objective(grid, model, t, h, w1, w2, u))})
        if not nonneg and (
                stage["residual"] > max(1e-4, 1e3 * stage_tol)
                or warm_up and ("backtracks" in stage
                                or stage["exit"] == "stall")):
            clean = False
            break
    state = prob.evaluate(u)
    gu = state["gu"]
    if model.is_smooth:
        return u, state["eta"], gu, state["g"], state["jv"], clean
    return (u, model.yosida(t, grid.cell_centers, cfg.lam_min, gu), gu, None,
            None, clean)


def solve_step(grid, model, t, h, w1, w2, cfg=None, u0=None, lagged=None,
               dual=None, guess=None):
    """Minimize the implicit-step functional and recover the flux section.

    Returns a StepSolution whose field satisfies the discrete weak form

        int_Omega (u psi + h eta . grad psi) + int_Gamma u psi = b(psi)

    for every nodal test field psi, up to the stated residual.  Raises
    StepNonConverged when the stationarity or certificate tolerances
    cannot be met, and ValueError (BADCONFIG) for invalid configuration.
    Newton starts from ``u0`` (default M^{-1} rhs).  ``guess``, a nodal
    field, is a start tried first by a smooth law on the direct solve
    (``_takes_guess``; ``run_flow`` passes a polynomial extrapolant of the
    past fields, of order 1 to 4); a stage that does not converge from it
    reruns from ``u0`` (``_continuation``).  Every other law and the
    lagged path ignore it.
    ``lagged``, a ``_LaggedFactor``, carries the Newton factor of a smooth
    law from step to step of one flow (``run_flow`` passes one per flow);
    without it the step holds its own.  ``dual``, an (n_cells, N) array,
    is the dual point a step may start from (``run_flow`` passes the
    previous step's ``StepSolution.dual``).  A total-variation step starts
    ``_solve_tv`` from it.  A step of a law with a flux jump (``kink_scale``
    > 0) skips the continuation and runs the multiplier loop from it
    (``_dual_finish``, warm); if the loop misses, the step takes the cold
    route from ``u0`` after it.  Every other law ignores it.

    A smooth step reports the residual, certificate and objective of the
    last Newton evaluation, which is at the field it returns.  On the cold
    route a nonsmooth step returns the lam_min envelope's flux
    when its continuation ran clean, its last stage met ``tol`` (that
    stage's Newton residual is the weak-form residual of this flux) and
    the flux's Fenchel certificate meets ``certificate_tol``.  Else it goes
    to ``_dual_finish`` from the flux of the stage it ended on
    (``_continuation``).
    """
    cfg = cfg or StepConfig()
    w1, w2 = _check_data(grid, h, w1, w2)
    if dual is not None:
        dual = np.asarray(dual, dtype=float).reshape(grid.n_cells,
                                                     len(grid.grad_ops))
        if not np.isfinite(dual).all():
            raise ValueError("dual contains non-finite entries")
    if model.kind == "tv":
        return _solve_tv(grid, model, h, w1, w2, cfg, dual)
    log = []
    if dual is not None and model.kink_scale > 0:
        warm = _dual_finish(grid, model, t, h, w1, w2, cfg, dual, log,
                            warm=True)
        if warm is not None:
            u, eta, p = warm
            return _finish(grid, model, t, h, w1, w2, u, eta, cfg, log, dual=p)
    u = _start(grid, w1, w2, u0)
    if guess is not None:
        guess = grid.check_field(guess, "guess")
    u, eta, gu, weak, jv, clean = _continuation(
        grid, model, t, h, w1, w2, u, cfg, log,
        _LaggedFactor() if lagged is None else lagged, guess=guess)
    p = gaps = None
    if clean and log[-1]["residual"] <= cfg.tol:
        gaps = model.fenchel_gap(t, grid.cell_centers, gu, eta, jv)
    if not model.is_smooth and (
            gaps is None or grid.cell_volumes @ gaps > cfg.certificate_tol):
        # Newton stages chattered on the jump set, or the envelope's flux
        # spoils the certificate; the dual route is exact
        p0 = eta * (h * grid.cell_volumes)[:, None]
        u, eta, p = _dual_finish(grid, model, t, h, w1, w2, cfg, p0, log)
        gaps = None
    return _finish(grid, model, t, h, w1, w2, u, eta, cfg, log, dual=p,
                   gaps=gaps, weak=weak)


def solve_step_obstacle(grid, model, t, h, w1, w2, cfg=None, u0=None):
    """Implicit step constrained to u >= 0 nodewise.

    The reported residual is the complementarity measure
    max_i |min(u_i, r_i)| at the returned field, r the mass-scaled
    unconstrained residual: at every node either u = 0 (and r >= 0) or r
    vanishes.  The stages are those of ``solve_step``, each by
    ``_minimize_newton`` on the bound; with no stall exit and no rescue,
    every stage runs, the last one's measure decides, and a nonsmooth law
    returns that stage's envelope flux.
    """
    cfg = cfg or StepConfig()
    w1, w2 = _check_data(grid, h, w1, w2)
    u = np.maximum(_start(grid, w1, w2, u0), 0.0)
    log = []
    u, eta = _continuation(grid, model, t, h, w1, w2, u, cfg, log, None,
                           nonneg=True)[:2]
    return _finish(grid, model, t, h, w1, w2, u, eta, cfg, log,
                   complementarity=log[-1]["residual"])


def tv_step(grid, rho, h, prev, cfg=None):
    """One implicit step of the total-variation flow with boundary fidelity:

        argmin_u  rho h TV(u) + 1/2 int_Omega (u - prev)^2
                  + 1/2 int_Gamma (u - prev)^2.
    """
    if not (rho > 0 and h > 0):
        raise ValueError("rho and h must be positive")
    cfg = cfg or StepConfig()
    prev = grid.check_field(prev, "prev")
    model = fm.total_variation(rho, grid.dimension)
    return _solve_tv(grid, model, h, prev, prev[grid.boundary_nodes], cfg)


def _ball_projection(radius):
    """Projection of the rows x_c of an (n_cells, N) array, N = 1 or 2, onto
    the balls |x_c| <= radius_c.  The radial scale is exactly 1 inside a
    ball and on zero rows, so those rows pass through bit for bit."""

    def project(x):
        mag = np.hypot(x[:, 0], x[:, 1]) if x.shape[1] == 2 else np.abs(x[:, 0])
        return x * (radius / np.maximum(mag, radius))[:, None]

    return project


def _solve_tv(grid, model, h, w1, w2, cfg, p0=None):
    """Total-variation step over the per-cell polar balls |p_c| <= rho h vol_c.

    The weighted gap sum_c (w_c |grad u|_c - grad u . p_c) equals h times
    the Fenchel certificate.  FISTA (``_dual_solve``) hands over once the
    gap is below 1e-5 of its first check's and falling less than tenfold
    per check, and the multiplier loop (``_multiplier_finish``) takes it to
    the target.  If the loop misses, FISTA resumes from the
    loop's best dual point with what is left of ``pd_max_iter``.

    A warm step starts FISTA from the dual point ``p0`` (an (n_cells, N)
    array, the previous step's dual in a flow), projected onto the balls.
    Its first gap is usually small already, so it hands over at 0.1 of that
    gap, but never above 1e-5 of the gap at p = 0 (h times the TV energy of
    the data), where a cold step would: a warm start far from the new dual
    point, on a moving edge or rough data, would otherwise hand the loop a
    start it cannot finish in its rounds.  A warm step stops at a tenth of
    the cold target: one stopped at the cold target lands at a looser point,
    which shows as a TV energy increase of order 1e-9 along a flow.
    ``pd_max_iter`` bounds its FISTA iterations and the fallback's together,
    as on a cold step.  Without ``p0`` the step starts from p = 0.
    """
    vol = grid.cell_volumes
    a = h * vol
    wc = model.rho * a
    target = h * _gap_target(cfg)
    project = _ball_projection(wc)
    log = []

    def gap_of(p, q):
        mags = np.sqrt((q * q).sum(axis=1))
        return float((wc * mags - (q * p).sum(axis=1)).sum())

    handover, cap = 1e-5, np.inf
    if p0 is not None:
        p0 = project(p0)
        target *= 0.1
        q0 = disc.gradient(grid, _start(grid, w1, w2))
        handover, cap = 0.1, 1e-5 * gap_of(np.zeros_like(p0), q0)

    def fista(p0, handover, max_iter):
        u, p, gap, it, exit_ = _dual_solve(grid, w1, w2, project, gap_of,
                                           target, max_iter, p0, handover,
                                           handover_cap=cap)
        log.append({"lam": 0.0, "iters": it, "residual": 0.0, "exit": exit_,
                    "pd_gap": gap, "objective": step_objective(
                        grid, model, 0.0, h, w1, w2, u)})
        return u, p, gap, it, exit_

    u, p, gap, it, exit_ = fista(p0, handover, cfg.pd_max_iter)
    if gap > target and exit_ != "max_iter":
        u, p, gap, finish = _multiplier_finish(
            grid, model, 0.0, h, w1, w2, p, gap_of, target, cfg, max_rounds=20)
        log.append(finish)
        if "fallback" in finish:
            u, p, gap, _, _ = fista(p, 0.0, cfg.pd_max_iter - it)
    return _finish(grid, model, 0.0, h, w1, w2, u, p / a[:, None], cfg, log,
                   dual=p)


def _multiplier_finish(grid, model, t, h, w1, w2, p, gap_of, target, cfg,
                       max_rounds, tol_cap=np.inf, accept=0.0):
    """Method of multipliers on the lam-envelope of a step, from the dual
    point p (an (n_cells, N) array p = h vol eta) and its primal
    u0 = M^{-1}(rhs - K^T p), whose gap ``gap_of(p, K u0)`` it takes itself.

    Each round minimizes the stage whose envelope argument is shifted by
    the flux eta,  1/2 ||u||_M^2 - b(u) + h sum_c vol_c j_lam(K_c u + lam
    eta_c),  by ``_minimize_newton``, then sets eta <- yosida_lam(K u + lam
    eta) (the semismooth-Newton augmented Lagrangian of Li, Sun and Toh,
    SIAM J. Optim. 28, 2018).  Newton runs on the correction u - u0 with
    K u0 folded into the shift, so the envelope argument carries no
    rounding of u0 and the Newton residual no rounding floor of order
    eps / lam.  The returned pair (u, p) is dual-feasible whatever the
    inner accuracy, so every round's gap is exact.  ``gap_of`` and
    ``target`` are in the units h * certificate.

    lam times the width scale, the law's ``kink_scale`` (its flux jump
    height) or 1 for a law without a jump, is the envelope's kink width in
    gradient units.  It starts at a tenth of the start's RMS error bound
    sqrt(2 gap / |Omega|), but lam never starts above ``cfg.lam0``, the
    first lam of a continuation: a crude start would otherwise spend its
    rounds shrinking lam.  lam shrinks 4x after a round that less than
    halves the gap, and doubles after an inner solve that fails and gains
    nothing.
    The inner solve stops once its mass-scaled residual, read as a gradient
    error of width^-1 times it on every cell, would add a tenth of the best
    gap, but never below that residual's rounding level: the envelope flux
    at an argument s is known only to about eps |s| / lam, and h K^T W
    carries that error into the residual.  An inner solve that stalls at
    rounding but still gains sets a floor of twice its residual; and the
    tolerance, floors included, is never above ``tol_cap``; each inner
    solve takes at most ``cfg.max_iter`` Newton iterations.  A start at or
    below ``target`` runs no round, and a round that gains nothing ends the
    loop once the best gap is at most ``accept``.  After at most
    ``max_rounds`` rounds it returns the best round's (u, p, gap) and its
    log entry: the inner solves' Newton iterations, fallbacks, backtracks
    and floored line searches summed (see ``_stage_entries``), the last
    one's residual and exit, and the rounds, marked ``fallback`` when the
    best gap misses max(target, accept).
    """
    vol = grid.cell_volumes
    a = (h * vol)[:, None]
    m = grid.mass
    rhs = _rhs(grid, w1, w2)
    area = float(vol.sum())
    width = float(vol.min()) ** (1.0 / len(grid.grad_ops))
    scale = model.kink_scale or 1.0
    tol_per_gap = 0.1 * width / (scale * area * h)

    def primal(p):
        return (rhs - grid.grad_stack_t @ p.ravel()) / m

    # h K^T W / M scales a per-cell flux error by about 2 N h / width
    rounding = 2.0 * len(grid.grad_ops) * h * np.finfo(float).eps / width
    u0 = primal(p)
    ku0 = disc.gradient(grid, u0)
    gap = gap_of(p, ku0)
    w1d, w2d = w1 - u0, w2 - u0[grid.boundary_nodes]
    lam = min(cfg.lam0, 0.1 * math.sqrt(2.0 * gap / area) / scale)
    best = (gap, np.zeros_like(u0), p / a)
    _, delta, eta = best
    work = dict.fromkeys(("iters", "fallbacks", "backtracks", "ls_floor"), 0)
    stage = {"residual": 0.0, "exit": "converged"}
    rounds = 0
    tol_low = 0.0
    while gap > target and rounds < max_rounds:
        rounds += 1
        shift = ku0 + lam * eta
        prob = _StageProblem(grid, model, t, h, w1d, w2d, lam, shift=shift)
        floor = rounding * float(np.abs(shift).max()) / lam
        tol = min(tol_cap, max(tol_low, floor,
                               max(target, best[0]) * tol_per_gap))
        delta_new, stage = _minimize_newton(prob, delta, tol, cfg.max_iter)
        for key in work:
            work[key] += stage.get(key, 0)
        eta_new = model.yosida(t, grid.cell_centers, lam,
                               disc.gradient(grid, delta_new) + shift)
        failed = stage["exit"] != "converged"
        last, gap = gap, gap_of(eta_new * a,
                                disc.gradient(grid, primal(eta_new * a)))
        if gap < best[0]:
            best = (gap, delta_new, eta_new)
            if failed:
                tol_low = 2.0 * stage["residual"]
        elif best[0] <= accept:
            break
        elif failed:
            lam *= 2.0
            gap, delta, eta = best
            continue
        delta, eta = delta_new, eta_new
        if gap <= target:
            break
        if gap > 0.5 * last:
            lam /= 4.0
    gap, _, eta = best
    u = primal(eta * a)
    entry = {"lam": lam, **_stage_entries(residual=stage["residual"],
                                          exit_=stage["exit"], **work),
             "rounds": rounds,
             "objective": step_objective(grid, model, t, h, w1, w2, u)}
    if gap > max(target, accept):
        entry["fallback"] = True
    return u, eta * a, gap, entry
