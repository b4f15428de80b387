"""Closed expression language for sources and initial data.

Expressions are built from numbers, the variables ``t``, ``x`` (and ``y``
on 2D grids), the constants ``pi`` and ``e``, the functions ``sin``,
``cos``, ``exp``, and the arithmetic operators ``+ - * / **``.  They are
parsed through the Python ast with a strict whitelist, so configs stay
reproducible data rather than arbitrary code.

Initial data may alternatively use a named profile, e.g.
``{"profile": "step", "split": 0.5, "low": 0.0, "high": 1.0}``.

An expression source has an ``at_times`` entry, which
``discretization.time_moments`` uses to evaluate it at all the times of a
block of steps in one call.
"""

from __future__ import annotations

import ast
import inspect

import numpy as np

__all__ = ["ExpressionError", "compile_expression", "make_source",
           "make_initial", "PROFILES"]

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTS = {"pi": np.pi, "e": np.e}

_ALLOWED_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant,
                  ast.Name, ast.Call, ast.Load, ast.Add, ast.Sub, ast.Mult,
                  ast.Div, ast.Pow, ast.USub, ast.UAdd)


class ExpressionError(ValueError):
    """Rejected expression (syntax outside the whitelisted language)."""


def compile_expression(text, variables):
    """Compile an expression over the given variable names.  The callable
    takes the variables as keywords; its ``powers`` are the variables it
    reads under a ``**``."""
    names = set(variables) | set(_FUNCS) | set(_CONSTS)
    try:
        tree = ast.parse(str(text), mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc.msg}") from None
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ExpressionError(
                f"{text!r}: disallowed syntax {type(node).__name__}")
        if isinstance(node, ast.Call):
            if (not isinstance(node.func, ast.Name)
                    or node.func.id not in _FUNCS or node.keywords):
                raise ExpressionError(f"{text!r}: only sin/cos/exp calls allowed")
        if isinstance(node, ast.Name) and node.id not in names:
            raise ExpressionError(f"{text!r}: unknown name {node.id!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ExpressionError(f"{text!r}: only numeric constants allowed")
    code = compile(tree, "<expression>", "eval")

    def fn(**kw):
        env = dict(_CONSTS)
        env.update(_FUNCS)
        env.update(kw)
        # no floating-point warnings: the package checks the values where
        # they enter (``Grid.check_field``, ``flow_driver.NonFiniteSource``)
        with np.errstate(all="ignore"):
            return eval(code, {"__builtins__": {}}, env)  # noqa: S307

    fn.powers = {name.id for node in ast.walk(tree)
                 if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                 for name in ast.walk(node)
                 if isinstance(name, ast.Name) and name.id in variables}
    return fn


def _coord_env(pts, dimension):
    env = {"x": pts[:, 0]}
    if dimension == 2:
        env["y"] = pts[:, 1]
    return env


def make_source(spec, dimension, seed=0):
    """Build a source callable (t, points) -> values from a config entry."""
    if spec is None:
        return None
    if isinstance(spec, (int, float)):
        if spec == 0:
            return None
        val = float(spec)
        return lambda t, pts: np.full(pts.shape[0], val)
    if isinstance(spec, dict):
        prof = _profile(spec, dimension, seed)
        return lambda t, pts: prof(pts)
    variables = ["t", "x"] + (["y"] if dimension == 2 else [])
    fn = compile_expression(spec, variables)
    source = _Expression(fn, dimension)
    if "t" in fn.powers:
        # a power of a scalar t goes through C pow, the same power of an
        # array of times through numpy's loop, which may round otherwise
        # (a SIMD pow), so this expression keeps one call per time
        return lambda t, pts: source(t, pts)
    return source


class _Expression:
    """An expression source: ``source(t, points)`` at one time, and
    ``source.at_times(ts, points)``, shape (len(ts), n), at many times in
    one evaluation, with t a column against the points.  Elementwise the
    two agree bit for bit as long as no power reads t (``make_source``)."""

    def __init__(self, fn, dimension):
        self._fn = fn
        self._dimension = dimension

    def __call__(self, t, pts):
        out = np.empty(pts.shape[0])
        out[...] = self._fn(t=t, **_coord_env(pts, self._dimension))
        return out

    def at_times(self, ts, pts):
        out = np.empty((len(ts), pts.shape[0]))
        out[...] = self._fn(t=np.asarray(ts, dtype=float)[:, None],
                            **_coord_env(pts, self._dimension))
        return out


def make_initial(spec, dimension, seed=0):
    """Build an initial-data callable (points) -> values."""
    if spec is None:
        return lambda pts: np.zeros(pts.shape[0])
    if isinstance(spec, (int, float)):
        val = float(spec)
        return lambda pts: np.full(pts.shape[0], val)
    if isinstance(spec, dict):
        return _profile(spec, dimension, seed)
    variables = ["x"] + (["y"] if dimension == 2 else [])
    fn = compile_expression(spec, variables)

    def initial(pts):
        out = fn(**_coord_env(pts, dimension))
        return np.broadcast_to(np.asarray(out, dtype=float), (pts.shape[0],)).copy()

    return initial


def _profile(spec, dimension, seed):
    spec = dict(spec)
    try:
        name = spec.pop("profile")
    except KeyError:
        raise ExpressionError("profile spec needs a 'profile' key") from None
    try:
        builder = PROFILES[name]
    except KeyError:
        raise ExpressionError(
            f"unknown profile {name!r}; known: {sorted(PROFILES)}") from None
    keys = set(inspect.signature(builder).parameters) - {"dimension", "seed"}
    unknown = sorted(set(spec) - keys)
    if unknown:
        raise ExpressionError(f"profile {name!r} does not take {unknown}; "
                              f"it takes {sorted(keys)}")
    return builder(dimension=dimension, seed=seed, **spec)


def _step_profile(split=0.5, low=0.0, high=1.0, dimension=1, seed=0):
    def fn(pts):
        return np.where(pts[:, 0] > split, float(high), float(low))
    return fn


def _plateaus_profile(values=(0.0, 1.0, 0.25), dimension=1, seed=0):
    values = [float(v) for v in values]

    def fn(pts):
        x = pts[:, 0]
        lo, hi = x.min(), x.max()
        k = np.minimum((len(values) * (x - lo) / (hi - lo + 1e-300)).astype(int),
                       len(values) - 1)
        return np.asarray(values, dtype=float)[k]

    return fn


def _noise_profile(amplitude=1.0, dimension=1, seed=0):
    def fn(pts):
        rng = np.random.default_rng(seed)
        return float(amplitude) * rng.standard_normal(pts.shape[0])
    return fn


PROFILES = {
    "step": _step_profile,
    "plateaus": _plateaus_profile,
    "noise": _noise_profile,
}
